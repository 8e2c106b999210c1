from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete,
    complete_bipartite,
    cycle,
    from_edges,
    petersen,
    random_regular,
    rook_graph,
)
from oracles import rank_rational

from uvcore import (
    Graph,
    augmented_graph,
    canonical_gram,
    complement,
    core_certificate,
    edge_gram_matrix,
    hamming_h,
    hamming_h_prime,
    is_locally_injective_gram,
    is_spanning_subgraph,
    kneser,
    q_kneser,
    sandwich_core_certificate,
    spectral_data,
    uvc_test,
    vector_chromatic,
    write_graph6,
)
from uvcore.certify import (
    LOOSE,
    TIGHT,
    _rank_via_edge_gram,
    _rank_via_vertex_basis,
    _roots_above,
    characteristic_polynomial,
)
from uvcore.errors import (
    EdgelessGraph,
    NonIntegerLeastEigenvalue,
    NotConnected,
    NotOneWalkRegular,
    NotRegular,
)
from uvcore.exact import (
    charpoly,
    divide_out_root,
    eval_poly_at_int,
    mat_mul,
    poly_mul,
    psd_rank,
)


# ---------------------------------------------------------------------------
# spectral_data


def split_least_root(phi, tau):
    """(phi_tau, d): phi = phi_tau (x - tau)^d with phi_tau(tau) != 0."""
    d = 0
    while True:
        q, rem = divide_out_root(phi, tau)
        if rem:
            return phi, d
        phi, d = q, d + 1


def test_spectral_petersen():
    g = petersen()
    sd = spectral_data(g)
    assert (sd.tau, sd.d) == (-2, 4)
    assert canonical_gram(g, sd=sd).c == 15
    phi = characteristic_polynomial(g, sd)
    assert phi == charpoly(g.adjacency())
    phi_tau, d = split_least_root(phi, sd.tau)
    assert d == 4 and eval_poly_at_int(phi_tau, sd.tau) == 1215


def test_spectral_k4():
    g = complete(4)
    sd = spectral_data(g)
    assert (sd.tau, sd.d) == (-1, 3)
    cg = canonical_gram(g, sd=sd)
    a = g.adjacency()
    assert [list(row) for row in cg.b] == [[3 * (i == j) - a[i][j] for j in range(4)]
                                           for i in range(4)]
    assert cg.c == 4


def test_spectral_hamming54():
    sd = spectral_data(hamming_h(5, 4))
    assert (sd.tau, sd.d) == (-3, 5)


def test_spectral_rejects_degenerate():
    with pytest.raises(NotConnected):
        spectral_data(from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(NotRegular):
        spectral_data(from_edges(3, [(0, 1), (1, 2)]))
    with pytest.raises(EdgelessGraph):
        spectral_data(Graph(2, (0, 0)))


def test_spectral_non_integer_least_eigenvalue():
    # C_5 has least eigenvalue (-1 - sqrt(5))/2
    with pytest.raises(NonIntegerLeastEigenvalue):
        spectral_data(cycle(5))
    # the 13-cycle's only integer eigenvalue is 2, everything else irrational
    with pytest.raises(NonIntegerLeastEigenvalue):
        spectral_data(cycle(13))


def test_roots_above_examples():
    # 100x^2 + 401x + 400 has roots near -1.86 and -2.15
    assert not _roots_above([400, 401, 100], -2)
    assert _roots_above([-2, 0, 1], -2)  # +-sqrt(2)
    assert not _roots_above([-2, 0, 1], -1)
    assert not _roots_above([3, 1], -3)  # a root at t itself
    assert _roots_above([5], 0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-6, 6), max_size=4),
    st.lists(st.integers(2, 30), max_size=2),
    st.integers(-7, 7),
    st.sampled_from([1, -3]),
)
def test_roots_above_is_exact_on_real_rooted(int_roots, radicands, t, lead):
    # lead * prod (x - r) * prod (x^2 - s): real-rooted, so the sign test
    # must say exactly whether every root exceeds t
    q = [lead]
    for r in int_roots:
        q = poly_mul(q, [-r, 1])
    for rad in radicands:
        q = poly_mul(q, [-rad, 0, 1])
    # x^2 - s has the roots +-sqrt(s); -sqrt(s) > t iff t < 0 and t^2 > s
    above = all(r > t for r in int_roots) and all(t < 0 and t * t > rad for rad in radicands)
    assert _roots_above(q, t) == above


def test_least_eigenvalue_verdict_matches_float_oracle():
    # NonIntegerLeastEigenvalue exactly when the floating-point spectrum
    # says the least eigenvalue is not an integer (floats only as oracle)
    import random

    import numpy as np

    rng = random.Random(5)
    graphs = [random_regular(rng, n, k) for n in range(8, 31) for k in (3, 4, 5, 6)
              if n * k % 2 == 0]
    # circulants give integer least eigenvalues with irrational ones above
    graphs += [from_edges(n, [(i, (i + s) % n) for i in range(n) for s in (1, step)])
               for n in range(9, 21) for step in range(2, n // 2)]
    outcomes = set()
    for g in graphs:
        lam = np.linalg.eigvalsh(np.array(g.adjacency(), dtype=float))[0]
        integral = abs(lam - round(lam)) < 1e-6
        try:
            sd = spectral_data(g)
        except NonIntegerLeastEigenvalue:
            assert not integral, write_graph6(g)
            outcomes.add(False)
        else:
            assert integral and sd.tau == round(lam), write_graph6(g)
            outcomes.add(True)
    assert len(graphs) >= 50 and outcomes == {True, False}


def test_spectral_phi_matches_charpoly():
    for g in (petersen(), complete(5), rook_graph(3), hamming_h(5, 4)):
        sd = spectral_data(g)
        phi = characteristic_polynomial(g, sd)
        assert phi == charpoly(g.adjacency())
        # phi = phi_tau * (x - tau)^d exactly, with d the multiplicity
        phi_tau, d = split_least_root(phi, sd.tau)
        assert d == sd.d
        rebuilt = phi_tau
        for _ in range(sd.d):
            rebuilt = poly_mul(rebuilt, [-sd.tau, 1])
        assert rebuilt == phi
        # phi_tau(A) = phi_tau(tau) E_tau is an integer multiple of b = c E_tau
        at_tau = eval_poly_at_int(phi_tau, sd.tau)
        assert at_tau % canonical_gram(g, sd=sd).c == 0
        assert (at_tau > 0) == ((sd.n - sd.d) % 2 == 0)


# ---------------------------------------------------------------------------
# canonical gram: projection identities (the exactness backbone)


def check_projection_identities(g):
    cg = canonical_gram(g)
    sd = cg.spectral
    a = g.adjacency()
    b = [list(r) for r in cg.b]
    n = g.n
    # A B = tau B
    ab = mat_mul(a, b)
    assert ab == [[sd.tau * x for x in row] for row in b]
    # B^2 = c B
    bb = mat_mul(b, b)
    assert bb == [[cg.c * x for x in row] for row in b]
    # trace = d c
    assert sum(b[i][i] for i in range(n)) == sd.d * cg.c
    # constant diagonal
    assert len({b[i][i] for i in range(n)}) == 1
    # strict edge value: (n/d) B_ij / c = tau / k on every edge
    for i, j in g.edges():
        assert Fraction(n * b[i][j], sd.d * cg.c) == Fraction(sd.tau, sd.degree_k)
    return cg


def test_projection_identities_corpus(one_walk_regular_corpus):
    assert len(one_walk_regular_corpus) >= 15
    for name, g in one_walk_regular_corpus.items():
        check_projection_identities(g)


def test_canonical_gram_requires_one_walk_regular():
    star_like = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    with pytest.raises((NotOneWalkRegular, NonIntegerLeastEigenvalue, NotRegular)):
        canonical_gram(star_like)


def test_gram_complete_graph_simplex():
    # Gram of K_m is ((m+1) I - J) / m off the shelf: diag 1, off-diag -1/(m-1)
    for m in (3, 4, 6):
        cg = canonical_gram(complete(m))
        for i in range(m):
            for j in range(m):
                want = Fraction(1) if i == j else Fraction(-1, m - 1)
                assert cg.entry(i, j) == want


def test_gram_petersen_edge_value():
    cg = canonical_gram(petersen())
    g = petersen()
    for i, j in g.edges():
        assert cg.entry(i, j) == Fraction(-2, 3)


def test_gram_hamming64_distance_formula():
    g = hamming_h(6, 4)
    cg = canonical_gram(g)
    for i in range(g.n):
        for j in range(g.n):
            dd = bin(i ^ j).count("1")
            dist = dd + (dd & 1)
            assert cg.entry(i, j) == 1 - Fraction(2 * dist, 6)


def test_gram_kneser_intersection_formula():
    # (k/r) * (gamma/(gamma-1)) - 1/(gamma-1), gamma = n/r, k = |S cap S'|
    from uvcore.families import kneser_vertex_index

    for (n, r) in ((5, 2), (7, 3)):
        g = kneser(n, r)
        cg = canonical_gram(g)
        idx = kneser_vertex_index(n, r)
        masks = sorted(idx, key=idx.get)
        gamma = Fraction(n, r)
        for a in range(g.n):
            for b in range(a, g.n):
                k = bin(masks[a] & masks[b]).count("1")
                want = Fraction(k, r) * gamma / (gamma - 1) - 1 / (gamma - 1)
                assert cg.entry(a, b) == want


# ---------------------------------------------------------------------------
# vector chromatic number


def test_vector_chromatic_closed_forms():
    assert vector_chromatic(petersen()) == Fraction(5, 2)
    for m in (2, 3, 5):
        assert vector_chromatic(complete(m)) == m
    assert vector_chromatic(hamming_h(5, 4)) == Fraction(8, 3)
    assert vector_chromatic(kneser(7, 3)) == Fraction(7, 3)


def test_vector_chromatic_at_least_two(one_walk_regular_corpus):
    for name, g in one_walk_regular_corpus.items():
        assert vector_chromatic(g) >= 2, name


# ---------------------------------------------------------------------------
# edge gram matrix


def test_edge_gram_k2():
    g = complete(2)
    m = edge_gram_matrix(canonical_gram(g), g)
    assert m == [[4]]


def test_edge_gram_diagonal_positive(one_walk_regular_corpus):
    for name, g in one_walk_regular_corpus.items():
        if g.n > 40:
            continue
        cg = canonical_gram(g)
        m = edge_gram_matrix(cg, g)
        if cg.spectral.d < g.n:
            assert all(m[e][e] > 0 for e in range(len(m))), name


def test_edge_gram_petersen_rank_oracle():
    g = petersen()
    m = edge_gram_matrix(canonical_gram(g), g)
    assert rank_rational(m) == 10
    assert psd_rank(m) == 10


# ---------------------------------------------------------------------------
# uvc_test


def test_uvc_verdicts():
    assert uvc_test(petersen()).verdict == TIGHT
    assert uvc_test(rook_graph(3)).verdict == LOOSE
    assert uvc_test(q_kneser(2, 4, 2)).verdict == LOOSE


def test_uvc_rank_bounded(one_walk_regular_corpus):
    for name, g in one_walk_regular_corpus.items():
        if g.n > 40:
            continue
        res = uvc_test(g)
        assert res.rank <= res.target, name


def test_gram_is_primitive_with_positive_diagonal():
    # each graph has an even number of distinct eigenvalues, so
    # psi_tau(tau) < 0 and b is -psi_tau(A) / gcd
    for g in (complete(4), kneser(7, 3), hamming_h(6, 4)):
        cg = canonical_gram(g)
        sd = cg.spectral
        psi_tau, _ = divide_out_root(list(sd.psi), sd.tau)
        assert eval_poly_at_int(psi_tau, sd.tau) < 0
        b = cg.b
        assert gcd(*(x for row in b for x in row)) == 1
        assert len({b[i][i] for i in range(g.n)}) == 1 and b[0][0] > 0
        assert cg.c > 0


def test_rank_routes_agree(one_walk_regular_corpus):
    # the edge-indexed and coefficient-indexed Gram formulations must give
    # identical ranks; also against the rational elimination oracle
    for name, g in one_walk_regular_corpus.items():
        if g.n > 36 or g.edge_count() > 60:
            continue
        cg = canonical_gram(g)
        edges = list(g.edges())
        r_edge = _rank_via_edge_gram(cg.b, edges)
        r_vert = _rank_via_vertex_basis(cg.b, edges, cg.spectral.d)
        r_oracle = rank_rational(edge_gram_matrix(cg, g))
        assert r_edge == r_vert == r_oracle, name


def test_scale_invariance_of_rank():
    g = petersen()
    cg = canonical_gram(g)
    scaled = type(cg)(
        b=tuple(tuple(3 * x for x in row) for row in cg.b),
        c=3 * cg.c,
        scale=cg.scale / 3,
        spectral=cg.spectral,
    )
    assert psd_rank(edge_gram_matrix(scaled, g)) == psd_rank(
        edge_gram_matrix(cg, g)
    )


def test_vertex_terms_never_add_rank(one_walk_regular_corpus):
    # augmenting the edge matrices with the vertex matrices p_i p_i^T
    # must not change the spanned dimension
    for name, g in one_walk_regular_corpus.items():
        if g.edge_count() > 30:
            continue
        cg = canonical_gram(g)
        b = cg.b
        edges = list(g.edges())
        m = len(edges)
        n = g.n
        size = m + n
        big = [[0] * size for _ in range(size)]
        em = edge_gram_matrix(cg, g)
        for e in range(m):
            for f in range(m):
                big[e][f] = em[e][f]
        for e, (i, j) in enumerate(edges):
            for u in range(n):
                v = 2 * b[i][u] * b[j][u]
                big[e][m + u] = v
                big[m + u][e] = v
        for u in range(n):
            for w in range(n):
                big[m + u][m + w] = b[u][w] ** 2
        assert rank_rational(big) == rank_rational(em), name


# ---------------------------------------------------------------------------
# local injectivity


def test_locally_injective_petersen():
    g = petersen()
    assert is_locally_injective_gram(canonical_gram(g), g) == (True, True)


def test_locally_injective_complete():
    g = complete(5)
    assert is_locally_injective_gram(canonical_gram(g), g) == (True, True)


def test_hamming42_not_injective(one_walk_regular_corpus):
    # x and x + 1111 share all neighbors in the even component of the
    # distance-2 graph of the 4-cube, hence share their coloring vector
    g = one_walk_regular_corpus["cayley42_even"]
    inj, loc = is_locally_injective_gram(canonical_gram(g), g)
    assert not inj
    assert not loc


def test_k33_not_locally_injective():
    g = complete_bipartite(3, 3)
    inj, loc = is_locally_injective_gram(canonical_gram(g), g)
    assert not inj and not loc


# ---------------------------------------------------------------------------
# core certificates


def test_core_certificate_petersen():
    rep = core_certificate(petersen())
    assert rep.core == "certified"
    assert rep.verdict == TIGHT
    assert rep.srg == (10, 3, 0, 1)


def test_core_certificate_rook_loose():
    rep = core_certificate(rook_graph(3))
    assert rep.core == "inconclusive"
    assert rep.verdict == LOOSE
    assert "loose" in rep.reasons


def test_core_certificate_k33_tight_but_blocked():
    rep = core_certificate(complete_bipartite(3, 3))
    assert rep.verdict == TIGHT
    assert rep.core == "inconclusive"
    assert "bipartite" in rep.reasons
    assert "not_locally_injective" in rep.reasons


def test_core_certificate_complete_graph_via_injectivity():
    # complete graphs are complete multipartite, so the 2-walk route is
    # blocked, but the simplex coloring is injective
    rep = core_certificate(complete(5))
    assert rep.core == "certified"
    assert rep.reasons == ("via_local_injectivity",)


def test_core_certificate_never_negative():
    # whatever happens, the verdict vocabulary is one-sided
    for g in (petersen(), rook_graph(3), cycle(4), complete_bipartite(2, 2)):
        rep = core_certificate(g)
        assert rep.core in ("certified", "inconclusive")


def test_core_certificate_non_integer_reason():
    rep = core_certificate(cycle(5))
    assert rep.core == "inconclusive"
    assert rep.reasons == ("non_integer_least_eigenvalue",)


def test_core_certificate_not_regular_reason():
    rep = core_certificate(from_edges(3, [(0, 1), (1, 2)]))
    assert rep.reasons == ("not_regular",)


def test_core_certificate_rejects_disconnected():
    with pytest.raises(NotConnected):
        core_certificate(from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(EdgelessGraph):
        core_certificate(Graph(3, (0, 0, 0)))


# ---------------------------------------------------------------------------
# augmentation and sandwich certificates


def test_augmented_hamming64():
    assert write_graph6(augmented_graph(hamming_h(6, 4))) == write_graph6(
        hamming_h_prime(6, 4)
    )


def test_augmented_kneser_is_identity():
    g = kneser(5, 2)
    assert write_graph6(augmented_graph(g)) == write_graph6(g)


def test_augmented_complete_identity():
    for m in (3, 5):
        g = complete(m)
        assert augmented_graph(g) == g


def test_augmented_contains_original(one_walk_regular_corpus):
    for name, g in one_walk_regular_corpus.items():
        if g.n > 40:
            continue
        assert is_spanning_subgraph(g, augmented_graph(g)), name


def test_sandwich_certificates():
    h = hamming_h(6, 4)
    hp = hamming_h_prime(6, 4)
    assert sandwich_core_certificate(h, hp).certified
    assert sandwich_core_certificate(h, h).certified
    # h plus a single extra edge from the augmentation
    extra = next(e for e in hp.edges() if not h.has_edge(*e))
    mid = from_edges(h.n, list(h.edges()) + [extra])
    assert sandwich_core_certificate(h, mid).certified
    # K_32 is not inside the augmentation
    k32 = complete(32)
    res = sandwich_core_certificate(h, k32)
    assert not res.certified
    assert "candidate_exceeds_augmentation" in res.reasons


def test_sandwich_rejects_bad_base():
    # rook graph is loose, so it cannot anchor a sandwich certificate
    res = sandwich_core_certificate(rook_graph(3), rook_graph(3))
    assert not res.certified
    assert "base_not_uvc" in res.reasons
