"""The README's examples run as written: its command-line sessions print
what it shows, and its library quickstart gives the values its comments
state."""

import ast
import contextlib
import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from superbroadcast import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _code_block(heading, language):
    # the first fenced block of that language under a "## heading"
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _sessions():
    # each "$ superbroadcast ..." line with the lines it shows, up to a blank
    sessions = []
    for chunk in _code_block("Command line", "").strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        sessions.append((shlex.split(command.removeprefix("$ "))[1:], shown))
    return sessions


def _pattern(shown):
    # "..." stands for any lines, none included
    parts = ["(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown]
    return "".join(parts)


SESSIONS = _sessions()


def test_readme_shows_four_command_line_sessions():
    assert [argv[0] for argv, _ in SESSIONS] == ["threshold", "mstar", "optimal-map", "verify"]


@pytest.mark.parametrize("argv, shown", SESSIONS, ids=[argv[0] for argv, _ in SESSIONS])
def test_readme_command_line_session(argv, shown, capsys):
    assert cli.main(argv) == 0
    assert re.fullmatch(_pattern(shown), capsys.readouterr().out)


# Expression of each commented quickstart line: what its comment begins with,
# and the check of its value (a print's value is what it printed).
QUICKSTART = {
    "sb.r_star(4, 5).r_star": ("0.7867960929870605", lambda v: v == 0.7867960929870605),
    "sb.m_star(5).m_star": ("21", lambda v: v == 21),
    "print(*result.best_map.output_spin)": ("5/2 5/2 5/2", lambda v: v == "5/2 5/2 5/2\n"),
    "result.report.p": ("1.0453... > 1", lambda v: 1.0453 <= v < 1.0454),
    "sb.half_spin_scaling_at_zero(5, 22)": ("Fraction(1, 1)", lambda v: v == Fraction(1, 1)),
    'sb.asymptotic_fit(range(20, 101, 10), "adjacent")': (
        "slope ~ -2",
        lambda v: abs(v.slope + 2) < 0.05,
    ),
    "report.ok": ("True", lambda v: v is True),
}


def test_readme_quickstart_values():
    source = _code_block("Library quickstart", "python")
    namespace = {}
    checked = []
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        line = source.splitlines()[statement.lineno - 1]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        expression, comment = (part.strip() for part in line.split("#", 1))
        claim, holds = QUICKSTART[expression]
        assert comment.startswith(claim), (expression, comment)
        assert holds(printed.getvalue() if value is None else value), (expression, value)
        checked.append(expression)
    assert checked == list(QUICKSTART)
