"""Cross-checks between the structured spectral fast paths and the
general-purpose routes they shortcut."""

from fractions import Fraction

import pytest

from conftest import cycle, moebius_ladder_complement, petersen, prism

from uvcore import charpoly, eval_poly_at_matrix, q_kneser
from uvcore._spectrum import PowerSequence, _FractionFree, minimal_polynomial
from uvcore.certify import _phi_tau_matrix, canonical_gram, spectral_data
from uvcore.errors import InvariantViolation
from uvcore.exact import squarefree_part


def test_minimal_polynomial_is_squarefree_charpoly(one_walk_regular_corpus):
    graphs = {n: g for n, g in one_walk_regular_corpus.items() if g.n <= 36}
    graphs["prism"] = prism()
    graphs["c5"] = cycle(5)
    for name, g in graphs.items():
        assert minimal_polynomial(g) == squarefree_part(charpoly(g.adjacency())), name


def test_fraction_free_pivots_are_leading_minors():
    # a non-symmetric matrix grown index by index: the pivots are its
    # leading principal minors 2, 5, -1; after a singular border the
    # leading block still solves, and a non-integral solution is refused
    mat = [[2, 1, 1], [1, 3, 2], [1, 0, 0]]
    ff = _FractionFree()
    pivots = [ff.extend(mat[t][:t], [mat[i][t] for i in range(t + 1)])
              for t in range(3)]
    assert pivots == [2, 5, -1]
    # row 3 = 2 * row 0 makes the bordered matrix singular
    assert ff.extend([4, 2, 2], [4, 2, 2, 8]) == 0
    assert ff.solve([3, 1, 1]) == [1, -2, 3]
    with pytest.raises(InvariantViolation):
        ff.solve([1, 0])


def test_minimal_polynomial_annihilates(one_walk_regular_corpus):
    import numpy as np

    for name, g in list(one_walk_regular_corpus.items())[:6]:
        if g.n > 40:
            continue
        psi = minimal_polynomial(g)
        ps = PowerSequence(g)
        acc = np.zeros((g.n, g.n), dtype=object)
        for i, c in enumerate(psi):
            acc = acc + c * ps.power(i).astype(object)
        assert not acc.any(), name


def test_projector_fast_path_equals_horner(one_walk_regular_corpus):
    # B = (phi_tau mod psi)(A) from the spectral pass's powers against the
    # degree-(n-d) Horner evaluation of phi_tau itself
    graphs = {n: g for n, g in one_walk_regular_corpus.items() if g.n <= 36}
    graphs["ladder_complement"] = moebius_ladder_complement()
    for name, g in graphs.items():
        sd = spectral_data(g)
        assert (sd.integral_spectrum is None) == (name == "ladder_complement"), name
        fast = _phi_tau_matrix(sd)
        slow = eval_poly_at_matrix(list(sd.phi_tau), g.adjacency())
        assert [list(r) for r in fast] == slow, name


def test_q_kneser_gram_matches_q_analog_formula():
    # inner products depend only on the intersection dimension:
    # ([k]_q/[r]_q) * (gamma/(gamma-1)) - 1/(gamma-1), gamma = [n]_q/[r]_q
    from uvcore.families import _rank_mod_q, _rref_subspaces, q_bracket

    q, n, r = 2, 4, 2
    g = q_kneser(q, n, r)
    cg = canonical_gram(g)
    subs = _rref_subspaces(n, r, q)
    gamma = Fraction(q_bracket(n, q), q_bracket(r, q))
    for a in range(g.n):
        for b in range(a, g.n):
            inter_dim = 2 * r - _rank_mod_q(subs[a] + subs[b], q)
            want = (
                Fraction(q_bracket(inter_dim, q), q_bracket(r, q))
                * gamma / (gamma - 1)
                - 1 / (gamma - 1)
            )
            assert cg.entry(a, b) == want


def test_spectral_data_slow_path_used_for_mixed_spectra():
    g = moebius_ladder_complement()
    sd = spectral_data(g)
    assert sd.integral_spectrum is None  # forced down the Berkowitz path
    assert (sd.tau, sd.d) == (-2, 2)
    assert list(sd.phi) == charpoly(g.adjacency())


def test_power_sequence_object_fallback():
    # force the int64 guard off by faking a huge degree bound
    g = petersen()
    ps = PowerSequence(g)
    ps.bound = 1 << 61  # next power must switch to object dtype
    p5 = ps.power(5)
    assert p5.dtype == object
    ps2 = PowerSequence(g)
    import numpy as np

    assert np.array_equal(p5.astype(np.int64), ps2.power(5))
