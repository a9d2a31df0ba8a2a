"""Byte and name stability: the reference CLI digests and the public API,
and no check in the package that relies on ``assert``."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

import superbroadcast
from superbroadcast import analysis, channels, cli, oracle, su2core, thresholds

# SHA-256 of fixed-argument CLI outputs, keyed by the argument string; the
# benchmark harness checks the same file.
GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)

PUBLIC_API = [
    "__version__",
    "HalfInt",
    "cg",
    "cg_square",
    "multiplicity",
    "spin_range",
    "ChannelCoeffs",
    "ExtremalMap",
    "TracePreservationReport",
    "coefficients_for",
    "conjectured_optimal_map",
    "extremal_count",
    "mix",
    "validate_trace_preserving",
    "BlochCurve",
    "BlochReport",
    "InputWeights",
    "OptimalMapResult",
    "ScalingProfile",
    "half_spin_scaling_at_zero",
    "input_weights",
    "optimal_map",
    "perfect_broadcast_channel",
    "scaling_profile",
    "single_copy_bloch",
    "single_copy_convex",
    "MStarResult",
    "PowerLawFit",
    "ThresholdResult",
    "asymptotic_fit",
    "limiting_threshold",
    "m_star",
    "r_star",
    "SchurIsometry",
    "SizeCapError",
    "VerificationReport",
    "apply_channel",
    "build_choi",
    "partial_trace",
    "schur_isometry",
    "single_copy_marginal",
    "verify_closed_form",
]

MODULE_API = {
    su2core: [
        "HalfInt",
        "spin_range",
        "coupled_range",
        "projections",
        "multiplicity",
        "cg",
        "cg_square",
    ],
    channels: [
        "ExtremalMap",
        "ChannelCoeffs",
        "TracePreservationReport",
        "extremal_count",
        "conjectured_optimal_map",
        "coefficients_for",
        "mix",
        "validate_trace_preserving",
    ],
    analysis: [
        "InputWeights",
        "BlochReport",
        "OptimalMapResult",
        "BlochCurve",
        "ScalingProfile",
        "input_weights",
        "single_copy_bloch",
        "single_copy_convex",
        "half_spin_scaling_at_zero",
        "optimal_map",
        "perfect_broadcast_channel",
        "scaling_profile",
    ],
    thresholds: [
        "GRID_STEPS",
        "ThresholdResult",
        "MStarResult",
        "PowerLawFit",
        "r_star",
        "limiting_threshold",
        "m_star",
        "asymptotic_fit",
    ],
    oracle: [
        "DenseOperator",
        "SizeCapError",
        "SchurIsometry",
        "CheckResult",
        "VerificationReport",
        "schur_isometry",
        "projector_J",
        "build_choi",
        "apply_channel",
        "partial_trace",
        "single_copy_marginal",
        "bloch_vector",
        "qubit_state",
        "product_input",
        "random_axis",
        "random_su2",
        "kron_power",
        "verify_closed_form",
        "symmetric_marginal_deviation",
        "permutation_twirl_deviation",
    ],
    cli: ["RunConfig", "main"],
}


def test_golden_digests_cover_seven_outputs():
    assert len(GOLDEN) == 7


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_output_matches_golden_digest(argv, tmp_path):
    target = tmp_path / "out.csv"
    assert cli.main(argv.split() + ["--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[argv]


def test_public_api_is_unchanged():
    assert superbroadcast.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(superbroadcast, name)


@pytest.mark.parametrize("module", MODULE_API, ids=lambda module: module.__name__)
def test_module_api_is_unchanged(module):
    assert module.__all__ == MODULE_API[module]
    for name in MODULE_API[module]:
        assert hasattr(module, name)


def test_package_checks_do_not_rely_on_assert():
    # `python -O` strips assert statements; every check must raise explicitly
    found = []
    for path in sorted((Path(superbroadcast.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
