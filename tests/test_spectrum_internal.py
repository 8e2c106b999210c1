"""Cross-checks between the structured spectral fast paths and the
general-purpose routes they shortcut."""

import random
from fractions import Fraction
from itertools import count
from math import gcd

import numpy as np
import pytest

from conftest import cycle, moebius_ladder_complement, petersen, prism, random_regular
from oracles import integer_root_multiplicities, power_traces, rank_rational

from uvcore import Graph, charpoly, eval_poly_at_matrix, hamming_h, q_kneser
from uvcore import _spectrum
from uvcore._spectrum import (
    _INT64_SAFE,
    PowerSequence,
    _propose,
    adjacency_array,
    eigenvalue_multiplicity,
    exact_matmul,
    minimal_polynomial,
)
from uvcore.certify import (
    _coefficient_gram,
    _independent_columns,
    _primitive_projector,
    canonical_gram,
    characteristic_polynomial,
    spectral_data,
)
from uvcore.errors import InvariantViolation
from uvcore.exact import (
    divide_out_root,
    eval_poly_at_int,
    is_prime,
    mat_mul,
    poly_mul,
    rref_mod,
)


def is_mixed(sd):
    """Whether some eigenvalue is irrational (psi has fewer integer roots than m)."""
    return len(integer_root_multiplicities(list(sd.psi), sd.n)) < len(sd.psi) - 1


def test_minimal_polynomial_is_squarefree_charpoly(one_walk_regular_corpus):
    # psi is the minimal polynomial: monic, psi(A) = 0, and no polynomial
    # of lower degree vanishes at A (I, A, ..., A^(m-1) are independent)
    graphs = {n: g for n, g in one_walk_regular_corpus.items() if g.n <= 36}
    graphs["prism"] = prism()
    graphs["c5"] = cycle(5)
    for name, g in graphs.items():
        psi = minimal_polynomial(g)
        m = len(psi) - 1
        a = g.adjacency()
        assert psi[-1] == 1, name
        assert not any(any(row) for row in eval_poly_at_matrix(psi, a)), name
        power = [[int(i == j) for j in range(g.n)] for i in range(g.n)]
        flat = []
        for _ in range(m):
            flat.append([x for row in power for x in row])
            power = mat_mul(power, a)
        assert rank_rational(flat) == m, name


def test_residue_traces_match_object_pairing():
    # past n k^s >= 2^62 the traces come from residues and CRT; the oracle
    # pairs the powers over Python ints. Random regular graphs have m = n
    # or close, so s runs to about 2n; H_{10,6} (n 512, k 210) to 12
    rng = random.Random(36)
    for n, k in ((36, 3), (42, 4), (48, 5)):
        g = random_regular(rng, n, k)
        ps = PowerSequence(g)
        m = len(minimal_polynomial(g, powers=ps)) - 1
        assert n * k ** (2 * m) >= _INT64_SAFE, (n, k)
        assert [ps.trace(s) for s in range(2 * m + 1)] == power_traces(ps.a64, 2 * m), (n, k)
    ps = PowerSequence(hamming_h(10, 6))
    assert ps.trace(12) > _INT64_SAFE
    assert ps.traces == power_traces(ps.a64, 12)


def test_propose_stops_at_the_first_singular_hankel_minor():
    # Berlekamp-Massey's first zero discrepancy at an even step marks the
    # first leading Hankel minor that vanishes mod q, on any sequence
    class Sequence:
        n = 12

        def __init__(self, seq):
            self.seq = seq

        def trace(self, j):
            return self.seq[j]

    rng = random.Random(17)
    for q in (2, 3, 5, 7):
        for _ in range(100):
            seq = [rng.randrange(-40, 40) for _ in range(2 * Sequence.n + 1)]
            want = next((t for t in range(Sequence.n + 1) if len(rref_mod(
                [[seq[a + b] for b in range(t + 1)] for a in range(t + 1)], q)[1]) <= t), None)
            if want is None:
                with pytest.raises(InvariantViolation):
                    _propose(Sequence(seq), q)
            else:
                assert _propose(Sequence(seq), q) == want, (q, seq)


def _primes_from(start):
    return (p for p in count(start) if is_prime(p))


def test_minimal_polynomial_survives_unlucky_primes(monkeypatch):
    # Petersen's Hankel minors are 10, 300 and 18000: 5 divides all three,
    # so 5 proposes m = 0, fails the exact check and 7 takes over. With 5
    # second it is a lifting prime on which H_3 is singular, and is skipped
    g = petersen()
    want = poly_mul(poly_mul([-3, 1], [-1, 1]), [2, 1])
    for source in ([5, 7, 11, 13], [7, 5, 11, 13]):
        drawn = []

        def primes(source=source):
            for p in source:
                drawn.append(p)
                yield p

        monkeypatch.setattr(_spectrum, "_hankel_primes", primes)
        assert minimal_polynomial(g) == want
        assert drawn == source
    # with no unlucky prime allowed, the first one is fatal
    monkeypatch.setattr(_spectrum, "_hankel_primes", lambda: _primes_from(5))
    monkeypatch.setattr(_spectrum, "_HANKEL_RETRIES", 0)
    with pytest.raises(InvariantViolation):
        minimal_polynomial(g)


def test_minimal_polynomial_builds_no_object_array(monkeypatch):
    # n = 48, k = 5: m = 48, so the traces run to 2m = 96 and n k^96 is far
    # past 2^62; every product stays int64 and no trace past 2m + 2 is taken
    products = []

    def recording(a, b, bound):
        out = exact_matmul(a, b, bound)
        products.append(out.dtype)
        return out

    monkeypatch.setattr(_spectrum, "exact_matmul", recording)
    g = random_regular(random.Random(48), 48, 5)
    ps = PowerSequence(g)
    m = len(minimal_polynomial(g, powers=ps)) - 1
    assert m >= 40 and len(ps.traces) <= 2 * m + 3
    assert products and set(products) == {np.dtype(np.int64)}
    assert all(p.dtype == np.int64 for p in ps.powers)
    assert all(x.dtype == np.int64 for _, prev, cur in ps._chains.values() for x in (prev, cur))


def test_eigenvalue_multiplicity_matches_charpoly_roots(one_walk_regular_corpus):
    # every integer root of phi, with its multiplicity, from the traces
    # alone; the ladder complement also has irrational eigenvalues
    graphs = {n: g for n, g in one_walk_regular_corpus.items() if g.n <= 36}
    graphs["ladder_complement"] = moebius_ladder_complement()
    for name, g in graphs.items():
        ps = PowerSequence(g)
        psi = minimal_polynomial(g, powers=ps)
        roots = integer_root_multiplicities(charpoly(g.adjacency()), g.n)
        for lam, mult in roots.items():
            assert eigenvalue_multiplicity(ps, psi, lam) == mult, (name, lam)
        # the degree k is the largest eigenvalue, so k + 1 is not a root
        with pytest.raises(InvariantViolation):
            eigenvalue_multiplicity(ps, psi, g.degree(0) + 1)


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
    # b from psi_tau(A) on the spectral pass's powers against the primitive
    # part of the degree-(n-d) Horner evaluation of phi_tau = phi/(x-tau)^d,
    # phi from Berkowitz; b's sign is that of phi_tau(tau), since
    # phi_tau(A) = phi_tau(tau) E_tau and b = c E_tau with c > 0
    graphs = {n: g for n, g in one_walk_regular_corpus.items() if g.n <= 36}
    graphs["ladder_complement"] = moebius_ladder_complement()
    for name, g in graphs.items():
        sd = spectral_data(g)
        assert is_mixed(sd) == (name == "ladder_complement"), name
        b, c = _primitive_projector(sd)
        phi_tau = charpoly(g.adjacency())
        for _ in range(sd.d):
            phi_tau, rem = divide_out_root(phi_tau, sd.tau)
            assert rem == 0, name
        at_tau = eval_poly_at_int(phi_tau, sd.tau)
        assert at_tau != 0, name
        slow = eval_poly_at_matrix(phi_tau, g.adjacency())
        content = gcd(*(x for row in slow for x in row))
        if at_tau < 0:
            content = -content
        primitive = [[x // content for x in row] for row in slow]
        assert [list(r) for r in b] == primitive, name
        assert at_tau % c == 0, name


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
    assert is_mixed(sd)  # forced down the Berkowitz path
    assert (sd.tau, sd.d) == (-2, 2)
    assert characteristic_polynomial(g, sd) == charpoly(g.adjacency())


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


def test_adjacency_array_matches_bit_rows(one_walk_regular_corpus):
    # the unpacked bitmasks against the per-bit reading of Graph.adjacency,
    # on orders with and without a partial last byte
    graphs = dict(one_walk_regular_corpus, empty=Graph(0, ()), single=Graph(1, (0,)),
                  c5=cycle(5), ladder_complement=moebius_ladder_complement())
    for name, g in graphs.items():
        a = adjacency_array(g)
        assert a.dtype.name == "int64" and a.shape == (g.n, g.n), name
        assert a.tolist() == g.adjacency(), name


def test_exact_matmul_float_route_just_below_2_53():
    # 8 terms of magnitude below 2^50 each; the largest sum of |terms|,
    # entry (0, 0), lies just below 2^53, so the product runs in float64
    import numpy as np

    rng = np.random.default_rng(53)
    top = (1 << 25) - 1
    a = rng.integers(-top, top + 1, size=(6, 8), dtype=np.int64)
    b = rng.integers(-top, top + 1, size=(8, 5), dtype=np.int64)
    a[0], b[:, 0] = top, -top
    bound = int(np.dot(abs(a).astype(object), abs(b).astype(object)).max())
    assert (1 << 52) < bound < (1 << 53)
    got = exact_matmul(a, b, bound)
    assert got.dtype == np.int64
    assert got.tolist() == np.dot(a.astype(object), b.astype(object)).tolist()


def test_exact_matmul_int64_route_above_2_53():
    # (2^27+1)(2^26+1) = 2^53 + 2^27 + 2^26 + 1 is odd and above 2^53, so a
    # float64 product would round it; the bound sends it to int64 instead
    import numpy as np

    a = np.array([[(1 << 27) + 1]], dtype=np.int64)
    b = np.array([[(1 << 26) + 1]], dtype=np.int64)
    want = ((1 << 27) + 1) * ((1 << 26) + 1)
    assert int((a.astype(np.float64) @ b.astype(np.float64))[0, 0]) != want
    assert exact_matmul(a, b, want).tolist() == [[want]]
    # above 2^62 the product is taken over Python integers
    big = exact_matmul(a << 20, b << 20, want << 40)
    assert big.dtype == object and big.tolist() == [[want << 40]]


def _explicit_coefficient_gram(bp, edges, d):
    """Z^T Z over Python integers, Z with one row per edge."""
    import numpy as np

    cols = _independent_columns(bp, d)
    v = [[bp[i][c] for c in cols] for i in range(len(bp))]
    pairs = list(zip(*np.triu_indices(d)))
    z = np.array([[v[i][a] * v[j][c] + v[i][c] * v[j][a] for a, c in pairs]
                  for i, j in edges], dtype=object)
    return np.dot(z.T, z).tolist()


def test_coefficient_gram_equals_explicit_z_gram(one_walk_regular_corpus):
    # K[(ab),(cd)] = T[ac,bd] + T[ad,bc] with T = P^T A P against Z^T Z;
    # the corpus holds H_{7,4} (rank 364) and qK(4:2) (rank 91)
    for name, g in one_walk_regular_corpus.items():
        cg = canonical_gram(g)
        edges = list(g.edges())
        want = _explicit_coefficient_gram(cg.b, edges, cg.spectral.d)
        assert _coefficient_gram(cg.b, edges, cg.spectral.d) == want, name
    # a scaled basis moves T's bound past 2^53 (int64 route, shift 10),
    # K's past 2^62 (objects after a float A P, shift 12) and A P's past
    # 2^62 (objects throughout, shift 40)
    cg = canonical_gram(petersen())
    edges = list(petersen().edges())
    for shift in (10, 12, 40):
        bp = [[x << shift for x in row] for row in cg.b]
        want = _explicit_coefficient_gram(bp, edges, cg.spectral.d)
        assert _coefficient_gram(bp, edges, cg.spectral.d) == want, shift
