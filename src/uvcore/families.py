"""Deterministic generators for the graph families under study.

Every generator documents its vertex order; maps between family members
rely on these orders being reproducible across runs and platforms.
Size budgets guard against accidentally huge instances: exceeding them
raises SizeBudgetExceeded rather than truncating.
"""

from itertools import combinations
from math import comb

from .errors import BadParity, OutOfRange, SizeBudgetExceeded, require
from .exact import is_prime
from .graphs import Graph

DEFAULT_VERTEX_BUDGET = 20000
DEFAULT_EDGE_BUDGET = 200000


def _check_budget(vertices, edges, vertex_budget, edge_budget):
    if vertices > vertex_budget:
        raise SizeBudgetExceeded(
            "%d vertices exceeds budget %d" % (vertices, vertex_budget)
        )
    if edges > edge_budget:
        raise SizeBudgetExceeded("%d edges exceeds budget %d" % (edges, edge_budget))


def q_bracket(k, q):
    """(q^k - 1)/(q - 1): number of lines in a k-dimensional subspace."""
    if q < 2 or k < 0:
        raise ValueError("need q >= 2 and k >= 0")
    return (q**k - 1) // (q - 1)


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if q < 2:
        raise ValueError("need q >= 2")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    require(num % den == 0, "Gaussian binomial must be an integer")
    return num // den


def kneser(n, r, vertex_budget=DEFAULT_VERTEX_BUDGET, edge_budget=DEFAULT_EDGE_BUDGET):
    """Kneser graph: r-subsets of {1..n}, adjacent iff disjoint.

    Vertex order is colexicographic on subsets, realized as increasing
    bitmask value (element t occupies bit t-1).
    """
    if not n >= r >= 1:
        raise OutOfRange("need n >= r >= 1")
    nv = comb(n, r)
    ne = nv * comb(n - r, r) // 2
    _check_budget(nv, ne, vertex_budget, edge_budget)
    masks = _kneser_masks(n, r)
    rows = [0] * nv
    for a in range(nv):
        for b in range(a + 1, nv):
            if masks[a] & masks[b] == 0:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return Graph(nv, tuple(rows))


def _kneser_masks(n, r):
    """r-subsets of {1..n} as bitmasks (element t on bit t-1), in colex order."""
    masks = []
    for last in range(r, n + 1):
        for rest in combinations(range(1, last), r - 1):
            m = 1 << (last - 1)
            for t in rest:
                m |= 1 << (t - 1)
            masks.append(m)
    return masks


def kneser_vertex_index(n, r):
    """Map from subset bitmask to vertex index in kneser(n, r) order."""
    return {m: i for i, m in enumerate(_kneser_masks(n, r))}


def _rref_subspaces(n, r, q):
    """All r-dimensional subspaces of F_q^n as canonical RREF basis matrices.

    Returned sorted lexicographically by the flattened (row-major) matrix.
    """
    out = []
    for pivots in combinations(range(n), r):
        free = []
        for t in range(r):
            for c in range(pivots[t] + 1, n):
                if c not in pivots:
                    free.append((t, c))
        total = q ** len(free)
        for code in range(total):
            mat = [[0] * n for _ in range(r)]
            for t in range(r):
                mat[t][pivots[t]] = 1
            x = code
            for (t, c) in free:
                mat[t][c] = x % q
                x //= q
            out.append(tuple(tuple(row) for row in mat))
    out.sort()
    return out


def _rank_mod_q(rows, q):
    """Rank of a small matrix over F_q (q prime), by Gaussian elimination."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][col] % q:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, q)
        m[rank] = [(x * inv) % q for x in m[rank]]
        for i in range(nr):
            if i != rank and m[i][col] % q:
                f = m[i][col]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def q_kneser(q, n, r, vertex_budget=DEFAULT_VERTEX_BUDGET, edge_budget=DEFAULT_EDGE_BUDGET):
    """q-Kneser graph: r-dimensional subspaces of F_q^n, adjacent iff skew.

    q must be prime (prime powers are out of scope). Vertices are ordered
    lexicographically by their reduced-row-echelon-form basis matrix.
    """
    if not is_prime(q):
        raise OutOfRange("q must be prime (prime powers are not supported)")
    if not n >= r >= 1:
        raise OutOfRange("need n >= r >= 1")
    nv = gaussian_binomial(n, r, q)
    degree = q ** (r * r) * gaussian_binomial(n - r, r, q) if n >= 2 * r else 0
    _check_budget(nv, nv * degree // 2, vertex_budget, edge_budget)
    subs = _rref_subspaces(n, r, q)
    require(len(subs) == nv, "subspace count must match the Gaussian binomial")
    rows = [0] * nv
    for a in range(nv):
        for b in range(a + 1, nv):
            stacked = subs[a] + subs[b]
            if _rank_mod_q(stacked, q) == 2 * r:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return Graph(nv, tuple(rows))


def _xor_graph(nv, good):
    """Graph on 0..nv-1 joining s and s ^ m for every mask m in good."""
    rows = [0] * nv
    for s in range(nv):
        acc = 0
        for m in good:
            acc |= 1 << (s ^ m)
        rows[s] = acc
    return Graph(nv, tuple(rows))


def _hamming_like(n, k, accept, vertex_budget, edge_budget):
    """Common builder for the even-weight distance graphs of the n-cube.

    Vertex t (0 <= t < 2^(n-1)) is the even-weight word whose first n-1
    bits spell t, completed by a parity bit. Two vertices s, t are at cube
    distance D + (D mod 2) where D = popcount(s xor t), so membership
    tests only need D.
    """
    if k % 2:
        raise BadParity("k must be even")
    if not 1 <= k <= n - 1:
        raise OutOfRange("need 1 <= k <= n-1")
    nv = 1 << (n - 1)
    good = [m for m in range(1, nv) if accept(m.bit_count())]
    _check_budget(nv, nv * len(good) // 2, vertex_budget, edge_budget)
    return _xor_graph(nv, good)


def hamming_h(n, k, vertex_budget=DEFAULT_VERTEX_BUDGET, edge_budget=DEFAULT_EDGE_BUDGET):
    """Even-weight component of the distance-k graph of the n-cube."""
    return _hamming_like(
        n, k, lambda d: d + (d & 1) == k, vertex_budget, edge_budget
    )


def hamming_h_prime(n, k, vertex_budget=DEFAULT_VERTEX_BUDGET, edge_budget=DEFAULT_EDGE_BUDGET):
    """Same vertex set as hamming_h(n, k), joined at distance >= k."""
    return _hamming_like(
        n, k, lambda d: d + (d & 1) >= k, vertex_budget, edge_budget
    )


def cayley_z2(n, weights, vertex_budget=DEFAULT_VERTEX_BUDGET, edge_budget=DEFAULT_EDGE_BUDGET):
    """Cayley graph on Z_2^n joining words whose XOR has weight in `weights`.

    Vertices are all of Z_2^n ordered by integer value.
    """
    wset = set(weights)
    if not wset <= set(range(1, n + 1)):
        raise OutOfRange("weights must lie in [1, n]")
    nv = 1 << n
    good = [m for m in range(1, nv) if m.bit_count() in wset]
    _check_budget(nv, nv * len(good) // 2, vertex_budget, edge_budget)
    return _xor_graph(nv, good)


def q_cube(m, j, vertex_budget=DEFAULT_VERTEX_BUDGET, edge_budget=DEFAULT_EDGE_BUDGET):
    """Cayley graph on Z_2^m with connection set of all weights >= j."""
    if not 1 <= j <= m:
        raise OutOfRange("need 1 <= j <= m")
    return cayley_z2(m, range(j, m + 1), vertex_budget, edge_budget)
