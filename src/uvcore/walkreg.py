"""1- and 2-walk-regularity: the gatekeepers for every certificate.

The defining conditions quantify over all powers of the adjacency matrix;
powers from degree m on (m = number of distinct eigenvalues) are linear
combinations of lower ones, so checking exponents 0..m-1 is exhaustive.
A caller that already holds the graph's powers and m (the spectral pass
in `certify.spectral_data`) passes them in, so nothing is recomputed.
"""

from dataclasses import dataclass

import numpy as np

from ._spectrum import PowerSequence, adjacency_array, minimal_polynomial
from .errors import EdgelessGraph
from .graphs import distance_two_graph


@dataclass(frozen=True)
class WalkRegularity:
    one_walk: bool
    two_walk: bool
    distinct_eigenvalue_count: int


def distinct_eigenvalue_count(g):
    """Number of distinct adjacency eigenvalues (minimal polynomial degree)."""
    return len(minimal_polynomial(g)) - 1


def _constant_on(power, mask):
    vals = power[mask]
    if vals.size == 0:
        return True
    first = vals.flat[0]
    return bool((vals == first).all())


def _walk_checks(g, max_power=None, powers=None, m=None):
    if g.edge_count() == 0:
        raise EdgelessGraph("walk-regularity needs at least one edge")
    ps = powers if powers is not None else PowerSequence(g)
    if m is None:
        m = len(minimal_polynomial(g, powers=ps)) - 1
    top = (m - 1) if max_power is None else max_power
    edge_mask = ps.a64 == 1
    diag_mask = np.eye(g.n, dtype=bool)
    dist2_mask = adjacency_array(distance_two_graph(g)) == 1
    one = True
    two = True
    for ell in range(top + 1):
        p = ps.power(ell)
        if not (_constant_on(p, diag_mask) and _constant_on(p, edge_mask)):
            one = False
            two = False
            break
        if two and not _constant_on(p, dist2_mask):
            two = False
    return WalkRegularity(one, two and one, m)


def walk_regularity(g, powers=None, m=None):
    """Full classification: 1-walk, 2-walk, and distinct eigenvalue count.

    `powers` is the graph's PowerSequence and `m` its number of distinct
    eigenvalues, when the caller already has them.
    """
    return _walk_checks(g, powers=powers, m=m)


def is_one_walk_regular(g):
    """True iff every adjacency power is constant on the diagonal and on edges."""
    return _walk_checks(g).one_walk


def is_two_walk_regular(g):
    """1-walk-regular and additionally constant on distance-2 pairs."""
    return _walk_checks(g).two_walk
