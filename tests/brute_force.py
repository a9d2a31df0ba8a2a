"""Brute-force enumeration of extremal maps, an independent cross-check.

The package counts extremal maps in closed form and takes the optimal one
in closed form; it never lists them.  This module lists every map from its
own loops over doubled spins, sharing no logic with the package beyond the
:class:`ExtremalMap` and :class:`HalfInt` constructors, so the tests can
hold the closed forms against an exhaustive search on small registers.
"""

import itertools

from superbroadcast.channels import ExtremalMap
from superbroadcast.su2core import HalfInt


def enumerate_extremal(n_in, m_out):
    """All extremal maps for ``n_in -> m_out``, in lexicographic order.

    Each input spin ``l`` is sent to an output-register spin ``j`` and a
    total spin ``J`` in the coupling range of ``j`` and ``l``.  The choice
    for the smallest ``l`` varies slowest, and each ``l``'s choices run in
    ascending ``j``, then ascending ``J``.
    """
    choices = []
    for dl in range(n_in % 2, n_in + 1, 2):
        choices.append([
            (HalfInt(dj), HalfInt(dJ))
            for dj in range(m_out % 2, m_out + 1, 2)
            for dJ in range(abs(dj - dl), dj + dl + 1, 2)
        ])
    return [
        ExtremalMap(n_in, m_out, tuple(j for j, _ in combo), tuple(J for _, J in combo))
        for combo in itertools.product(*choices)
    ]
