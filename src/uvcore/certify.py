"""Canonical vector colorings, the exact rank test, and core certificates.

The canonical coloring of a 1-walk-regular graph is handled purely through
its Gram matrix: the primitive integer matrix b = c E_tau, a multiple of
the projector E_tau onto the least eigenspace, plus an exact rational
scale. The vectors themselves are never materialized (their entries are
irrational); every statement used downstream is expressible through b.

The decision pipeline for one graph:

    spectral_data   ->  psi, tau, d, walk flags (exact integers)
    canonical_gram  ->  b = +-psi_tau(A) / gcd, c with b^2 = c b, scale n/(d c)
    uvc_test        ->  rank of the span of the edge matrices vs d(d+1)/2
    core_certificate -> one-sided core verdict with reason codes

spectral_data is the single spectral pass: it builds the adjacency powers
A^0..A^m once, finds the minimal polynomial psi from their traces, takes
d from the same traces and decides walk-regularity on the same powers.
canonical_gram evaluates psi_tau(A) for psi_tau = psi / (x - tau), a sum
of those powers equal to psi_tau(tau) E_tau, and then releases them, so
the rank test runs without them. The characteristic polynomial is built
only for `uvcore spectra` (characteristic_polynomial).
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd

import numpy as np

from ._spectrum import (
    _INT64_SAFE,
    PowerSequence,
    eigenvalue_multiplicity,
    exact_matmul,
    minimal_polynomial,
)
from .errors import (
    EdgelessGraph,
    InvariantViolation,
    NonIntegerLeastEigenvalue,
    NotConnected,
    NotOneWalkRegular,
    NotRegular,
    require,
)
from .exact import charpoly, divide_out_root, eval_poly_at_int, poly_mul, psd_rank
from .graphs import (
    Graph,
    distance_two_graph,
    is_bipartite,
    is_complete_multipartite,
    is_connected,
    is_regular,
    is_spanning_subgraph,
    srg_params,
)
from .walkreg import WalkRegularity, walk_regularity

TIGHT = "tight"
LOOSE = "loose"
CERTIFIED = "certified"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SpectralData:
    """Exact spectral facts about a connected regular graph.

    tau is the least eigenvalue (an integer by construction or the call
    fails) and d its multiplicity. psi is the minimal polynomial (ascending
    coefficients) and walk the walk-regularity flags. powers is the
    PowerSequence of the pass; it keeps its traces, and the canonical Gram,
    the last consumer of its matrices, releases them (they are rebuilt if
    asked for again).
    """

    tau: int
    d: int
    degree_k: int
    n: int
    psi: tuple
    walk: WalkRegularity
    powers: PowerSequence = field(compare=False, repr=False)


@dataclass(frozen=True)
class CanonicalGram:
    """Integer Gram data of the canonical vector coloring.

    b is the primitive (entry gcd 1) positive semidefinite integer multiple
    c E_tau of the least-eigenspace projector, so b^2 = c b and
    tr b = d c. The actual Gram matrix (n/d) E_tau is scale * b entrywise,
    with scale = n / (d * c) > 0 as an exact rational.
    """

    b: tuple
    c: int
    scale: Fraction
    spectral: SpectralData

    def entry(self, i, j):
        return self.scale * self.b[i][j]


@dataclass(frozen=True)
class UvcResult:
    rank: int
    target: int
    verdict: str


@dataclass(frozen=True)
class CertReport:
    graph_id: object
    n: int
    degree: object
    srg: object
    tau: object
    d: object
    edges: int
    rank: object
    target: object
    verdict: object
    core: str
    reasons: tuple
    ms: int


@dataclass(frozen=True)
class SandwichCertificate:
    certified: bool
    reasons: tuple


def _integer_eigenvalues(psi, k):
    """The integer roots of psi, increasing: the integer eigenvalues.

    psi is the minimal polynomial of a k-regular graph, so every root lies
    in [-k, k], and k itself is one.
    """
    return [t for t in range(-k, k + 1) if eval_poly_at_int(psi, t) == 0]


def _roots_above(q, t):
    """Whether no real root of the integer polynomial q is <= t.

    With c_j the Taylor coefficients of q at t (repeated synthetic
    division), a root t - y with y >= 0 is a nonnegative root of
    q(t - y) = sum (-1)^j c_j y^j. If every (-1)^j c_j is nonzero with one
    sign, y = 0 is no root and Descartes' rule of signs leaves no positive
    one. The converse holds when q is real-rooted: with all roots above t,
    q(t - y) is a constant times a product of (y + r_i - t), all r_i - t > 0.
    """
    coeffs = []  # (-1)^j c_j
    while q:
        q, c = divide_out_root(q, t)
        coeffs.append(-c if len(coeffs) % 2 else c)
    return all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs)


def spectral_data(g):
    """Minimal polynomial, least eigenvalue and its multiplicity, walk flags.

    The least eigenvalue must be an integer; this is detected, not
    assumed. tau is the least integer root of the minimal polynomial psi,
    and psi / (x - tau) must have no real root at or below tau
    (_roots_above, by Descartes' rule of signs), otherwise
    NonIntegerLeastEigenvalue is raised. psi is the minimal polynomial of
    a symmetric matrix, so its roots are real and simple, and the sign
    test is exact: it rejects precisely the graphs whose least eigenvalue
    is not an integer. This is the graph's one spectral pass: the
    multiplicity comes from the power traces and the walk flags from the
    same adjacency powers.
    """
    if g.edge_count() == 0:
        raise EdgelessGraph("spectral data needs at least one edge")
    if not is_connected(g):
        raise NotConnected("graph is not connected")
    k = is_regular(g)
    if k is None:
        raise NotRegular("graph is not regular")
    ps = PowerSequence(g)
    psi = minimal_polynomial(g, powers=ps)
    m = len(psi) - 1
    tau = _integer_eigenvalues(psi, k)[0]
    if not _roots_above(divide_out_root(psi, tau)[0], tau):
        raise NonIntegerLeastEigenvalue(
            "a non-integer eigenvalue lies below %d" % tau
        )
    d = eigenvalue_multiplicity(ps, psi, tau)
    require(tau < 0 and -tau <= k, "need tau in [-k, 0)")
    return SpectralData(
        tau=tau,
        d=d,
        degree_k=k,
        n=g.n,
        psi=tuple(psi),
        walk=walk_regularity(g, powers=ps, m=m),
        powers=ps,
    )


def characteristic_polynomial(g, sd):
    """The characteristic polynomial phi of A, ascending coefficients.

    Only `uvcore spectra` prints it; the certify path never builds it. If
    every root of psi is one of the integers in [-k, k], phi is the product
    of (x - lam)^mult(lam) with the multiplicities from the power traces;
    a mixed spectrum goes through the division-free charpoly.
    """
    roots = _integer_eigenvalues(sd.psi, sd.degree_k)
    if len(roots) == len(sd.psi) - 1:
        phi = [1]
        for lam in roots:
            for _ in range(eigenvalue_multiplicity(sd.powers, sd.psi, lam)):
                phi = poly_mul(phi, [-lam, 1])
    else:
        phi = charpoly(g.adjacency())
    require(len(phi) - 1 == g.n, "phi must have degree n")
    return phi


def _primitive_projector(sd):
    """(b, c): b = c E_tau primitive positive semidefinite, b^2 = c b.

    For psi_tau = psi / (x - tau), psi_tau(A) = psi_tau(tau) E_tau is the
    spectral idempotent's multiple, a sum of the powers the spectral pass
    built; psi_tau is monic of degree m - 1, which keeps the sum in int64
    whenever the walk-count bound allows. Dividing by the gcd g of its
    entries, with the sign of psi_tau(tau), gives b and c = |psi_tau(tau)|/g.
    b is the last use of the powers: they are released before its Python
    integers are built.
    """
    ps = sd.powers
    r, _ = divide_out_root(sd.psi, sd.tau)
    bound = sum(abs(x) * sd.degree_k**j for j, x in enumerate(r))
    int64_ok = bound < _INT64_SAFE and all(
        ps.power(j).dtype == np.int64 for j in range(len(r))
    )
    acc = np.zeros((sd.n, sd.n), dtype=np.int64 if int64_ok else object)
    for j, x in enumerate(r):
        if x:
            acc += x * (ps.power(j) if int64_ok else ps.power(j).astype(object))
    # eigenvector identity check: A B = tau B
    if int64_ok and bound * sd.degree_k < _INT64_SAFE:
        ab = exact_matmul(ps.a64, acc, bound * sd.degree_k)
        require(np.array_equal(ab, sd.tau * acc), "A B must equal tau B")
    ps.release()
    at_tau = eval_poly_at_int(r, sd.tau)
    g = gcd(*acc.ravel().tolist())
    require(g > 0 and at_tau % g == 0, "psi_tau(A) must be a multiple of E_tau")
    b = acc // (g if at_tau > 0 else -g)
    c = abs(at_tau) // g
    require(sum(b.diagonal().tolist()) == sd.d * c, "tr b must equal d c")
    return tuple(map(tuple, b.tolist())), c


def canonical_gram(g, sd=None):
    """Gram data of the canonical vector coloring of a 1-walk-regular graph."""
    if sd is None:
        sd = spectral_data(g)
    if not sd.walk.one_walk:
        raise NotOneWalkRegular("graph is not 1-walk-regular")
    b, c = _primitive_projector(sd)
    return CanonicalGram(b=b, c=c, scale=Fraction(g.n, sd.d * c), spectral=sd)


def vector_chromatic(g):
    """Exact vector chromatic number 1 - k/tau of a 1-walk-regular graph."""
    sd = spectral_data(g)
    if not sd.walk.one_walk:
        raise NotOneWalkRegular("graph is not 1-walk-regular")
    return 1 - Fraction(sd.degree_k, sd.tau)


def _edge_gram(b, edges):
    """Entry for edges e={i,j}, f={k,l} is 2(B_jl B_ki + B_jk B_li)."""
    m = len(edges)
    out = [[0] * m for _ in range(m)]
    for e in range(m):
        i, j = edges[e]
        bi = b[i]
        bj = b[j]
        for f in range(e, m):
            k, l = edges[f]
            v = 2 * (bj[l] * bi[k] + bj[k] * bi[l])
            out[e][f] = v
            out[f][e] = v
    return out


def edge_gram_matrix(cg, g):
    """Gram matrix of the edge matrices, indexed by lexicographic edges.

    Its rank equals the dimension spanned by the edge matrices because
    scaling the projector scales this whole matrix by a square.
    """
    return _edge_gram(cg.b, list(g.edges()))


def _independent_columns(bp, d):
    """Indices of d exactly independent columns of bp (greedy elimination)."""
    n = len(bp)
    basis = []  # (pivot position, reduced integer vector)
    cols = []
    for c in range(n):
        v = [bp[i][c] for i in range(n)]
        for pos, w in basis:
            if v[pos]:
                f1, f2 = w[pos], v[pos]
                v = [f1 * x - f2 * y for x, y in zip(v, w)]
                cg = 0
                for x in v:
                    cg = gcd(cg, x)
                    if cg == 1:
                        break
                if cg > 1:
                    v = [x // cg for x in v]
        pos = next((i for i, x in enumerate(v) if x), None)
        if pos is not None:
            basis.append((pos, v))
            cols.append(c)
            if len(cols) == d:
                return cols
    raise InvariantViolation("projector multiple has rank below the multiplicity")


def _coefficient_gram(bp, edges, d):
    """The D x D Gram K = Z^T Z of the coefficient matrix Z, as integer rows.

    Z has one row per edge {i,j}: the upper triangle of v_i v_j^T + v_j v_i^T,
    where v_i is row i of d exactly independent columns of bp. Z itself is
    never built. With P the n x D matrix whose column (a<=c) is v_a * v_c
    (entrywise over the vertices) and T = P^T A P, summing over ordered
    adjacent pairs gives K[(ab),(cd)] = T[ac,bd] + T[ad,bc].
    """
    n = len(bp)
    cols = _independent_columns(bp, d)
    v = np.array([[bp[i][c] for c in cols] for i in range(n)], dtype=object)
    m = len(edges)
    maxv = max(1, int(abs(v).max()))
    # |K| <= 4 m maxv^4, twice T's bound: when that fits int64, so does each step
    if 4 * m * maxv**4 < _INT64_SAFE:
        v = v.astype(np.int64)
    iu = np.triu_indices(d)
    p = v[:, iu[0]] * v[:, iu[1]]
    ends = np.array(edges)
    adj = np.zeros((n, n), dtype=np.int64)
    adj[ends[:, 0], ends[:, 1]] = 1
    adj[ends[:, 1], ends[:, 0]] = 1
    # bounds on the sums of |terms|: n maxv^2 for A P, 2 m maxv^4 for T
    ap = exact_matmul(adj, p, n * maxv**2)
    t = exact_matmul(p.T, ap, 2 * m * maxv**4)
    pos = np.zeros((d, d), dtype=np.intp)
    pos[iu] = pos[iu[::-1]] = np.arange(len(iu[0]))
    # one row of K at a time keeps the index arrays at D entries
    return [
        (t[pos[a, iu[0]], pos[b, iu[1]]] + t[pos[a, iu[1]], pos[b, iu[0]]]).tolist()
        for a, b in zip(*iu)
    ]


def _rank_via_vertex_basis(bp, edges, d):
    """dim span of the edge matrices through an integer eigenspace basis.

    Any basis change p -> T p maps the symmetric edge matrices through the
    linear isomorphism S -> T S T^T of symmetric matrices, so the spanned
    dimension computed from integer basis rows equals the one from the
    canonical (irrational) vectors. It is the rank of the coefficient
    matrix Z, which equals the rank of K = Z^T Z, where
    K[(ab),(cd)] = T[ac,bd] + T[ad,bc] for T = P^T A P (_coefficient_gram).
    """
    return psd_rank(_coefficient_gram(bp, edges, d))


def _rank_via_edge_gram(bp, edges):
    return psd_rank(_edge_gram(bp, edges))


def uvc_test(g, cg=None):
    """Rank of the edge-matrix span against the target d(d+1)/2.

    A tight verdict certifies that the canonical coloring is the unique
    optimal one. The rank is computed on the primitive projector multiple
    b and through whichever Gram formulation is smaller: edge-indexed or
    coefficient-indexed.
    """
    if cg is None:
        cg = canonical_gram(g)
    d = cg.spectral.d
    target = d * (d + 1) // 2
    edges = list(g.edges())
    if target <= len(edges):
        rank = _rank_via_vertex_basis(cg.b, edges, d)
    else:
        rank = _rank_via_edge_gram(cg.b, edges)
    require(rank <= target, "rank cannot exceed d(d+1)/2")
    return UvcResult(rank=rank, target=target, verdict=TIGHT if rank == target else LOOSE)


def is_locally_injective_gram(cg, g):
    """(injective, locally_injective) of the canonical coloring.

    Two unit vectors coincide iff their inner product equals the common
    squared norm, i.e. B_ij = B_ii.
    """
    b = cg.b
    diag = b[0][0]
    injective = not any(diag in b[i][i + 1:] for i in range(g.n))
    locally = not any(b[i][j] == diag for i, j in distance_two_graph(g).edges())
    return injective, locally


def augmented_graph(g, cg=None):
    """Add every pair whose coloring inner product meets the edge threshold.

    The threshold is tau/k, the common value on edges of a strict optimal
    coloring. With scale = n/(d c) > 0 and k > 0, scale b_ij <= tau/k is the
    integer test n k b_ij <= tau d c, i.e. b_ij <= floor(tau d c / (n k)).
    """
    if cg is None:
        cg = canonical_gram(g)
    sd = cg.spectral
    thr = sd.tau * sd.d * cg.c // (g.n * sd.degree_k)
    b = cg.b
    rows = [0] * g.n
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if b[i][j] <= thr:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    out = Graph(g.n, tuple(rows))
    require(is_spanning_subgraph(g, out), "augmentation must contain the graph")
    return out


def core_certificate(g, graph_id=None):
    """One-sided core certificate for a connected graph.

    CertifiedCore fires on either route: a tight rank test on a
    2-walk-regular, non-bipartite, non-complete-multipartite graph, or a
    tight rank test whose canonical Gram is locally injective. Everything
    else is Inconclusive with reason codes; no graph is ever declared a
    non-core. Disconnected or edgeless inputs are rejected outright.
    """
    t0 = time.perf_counter()
    if g.edge_count() == 0:
        raise EdgelessGraph("certificates need at least one edge")
    if not is_connected(g):
        raise NotConnected("certificates need a connected graph")

    def report(tau=None, d=None, rank=None, target=None, verdict=None,
               core=INCONCLUSIVE, reasons=()):
        return CertReport(
            graph_id=graph_id,
            n=g.n,
            degree=is_regular(g),
            srg=srg_params(g),
            tau=tau,
            d=d,
            edges=g.edge_count(),
            rank=rank,
            target=target,
            verdict=verdict,
            core=core,
            reasons=tuple(reasons),
            ms=int((time.perf_counter() - t0) * 1000),
        )

    try:
        sd = spectral_data(g)
    except NotRegular:
        return report(reasons=["not_regular"])
    except NonIntegerLeastEigenvalue:
        return report(reasons=["non_integer_least_eigenvalue"])
    wr = sd.walk
    if not wr.one_walk:
        return report(tau=sd.tau, d=sd.d, reasons=["not_one_walk_regular"])
    cg = canonical_gram(g, sd=sd)
    res = uvc_test(g, cg=cg)
    ranked = partial(report, tau=sd.tau, d=sd.d, rank=res.rank,
                     target=res.target, verdict=res.verdict)
    if res.verdict == LOOSE:
        return ranked(reasons=["loose"])
    # tight: try the 2-walk-regular route, then local injectivity
    if wr.two_walk and not is_bipartite(g) and not is_complete_multipartite(g):
        return ranked(core=CERTIFIED, reasons=["via_two_walk_regular"])
    _, locally = is_locally_injective_gram(cg, g)
    if locally:
        return ranked(core=CERTIFIED, reasons=["via_local_injectivity"])
    reasons = []
    if not wr.two_walk:
        reasons.append("not_two_walk_regular")
    if is_bipartite(g):
        reasons.append("bipartite")
    elif is_complete_multipartite(g):
        reasons.append("complete_multipartite")
    reasons.append("not_locally_injective")
    return ranked(reasons=reasons)


def sandwich_core_certificate(h, g):
    """Core certificate for any connected g squeezed between h and h'.

    Requires the base graph h to pass the tight rank test with an
    injective canonical Gram; then every connected graph between h and
    its augmentation is a core.
    """
    reasons = []
    cg = canonical_gram(h)
    if uvc_test(h, cg=cg).verdict != TIGHT:
        reasons.append("base_not_uvc")
    injective, _ = is_locally_injective_gram(cg, h)
    if not injective:
        reasons.append("base_gram_not_injective")
    if not is_connected(g):
        reasons.append("candidate_not_connected")
    if not is_spanning_subgraph(h, g):
        reasons.append("base_not_subgraph")
    if not is_spanning_subgraph(g, augmented_graph(h, cg=cg)):
        reasons.append("candidate_exceeds_augmentation")
    return SandwichCertificate(certified=not reasons, reasons=tuple(reasons))
