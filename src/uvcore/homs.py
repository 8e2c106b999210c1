"""Homomorphism checks between same-family graphs, plus a search oracle.

The family theorems apply only when the two graphs have equal vector
chromatic number; the ratio preconditions are checked as exact rational
equalities and violations raise RatioMismatch rather than returning False
(outside equal ratios the theorems say nothing).
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadParity,
    BudgetExceeded,
    DegenerateRange,
    DimensionMismatch,
    MalformedMap,
    OutOfRange,
    RatioMismatch,
)
from .families import kneser_vertex_index, q_bracket


@dataclass(frozen=True)
class VertexMap:
    source_n: int
    target_n: int
    image: tuple

    def __post_init__(self):
        if len(self.image) != self.source_n:
            raise DimensionMismatch("image length must equal source order")
        for v in self.image:
            if isinstance(v, bool) or not isinstance(v, int):
                raise MalformedMap("image entries must be integers")
            if not 0 <= v < self.target_n:
                raise DimensionMismatch("image vertex out of range")


@dataclass(frozen=True)
class HomVerdict:
    is_hom: bool
    is_injective: bool
    is_induced_embedding: bool


def verify_homomorphism(g, h, vmap):
    """Check a vertex map for the homomorphism / embedding hierarchy.

    is_injective and is_induced_embedding are only claimed for maps that
    are homomorphisms in the first place, so the three flags form a chain.
    """
    if vmap.source_n != g.n or vmap.target_n != h.n:
        raise DimensionMismatch("map endpoints do not match the graphs")
    img = vmap.image
    is_hom = all(h.has_edge(img[i], img[j]) for i, j in g.edges())
    is_inj = is_hom and len(set(img)) == g.n
    induced = is_inj
    if induced:
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if not g.has_edge(i, j) and h.has_edge(img[i], img[j]):
                    induced = False
                    break
            if not induced:
                break
    return HomVerdict(is_hom, is_inj, induced)


# ---------------------------------------------------------------------------
# Kneser graphs


def kneser_hom_exists(n, r, n2, r2):
    """K_{n:r} -> K_{n2:r2} existence when n/r = n2/r2 and n > 2r."""
    if n <= 2 * r:
        raise DegenerateRange("need n > 2r (got n=%d, r=%d)" % (n, r))
    if Fraction(n, r) != Fraction(n2, r2):
        raise RatioMismatch("n/r = %s differs from n2/r2 = %s"
                            % (Fraction(n, r), Fraction(n2, r2)))
    return n2 % n == 0


def kneser_hom_map(n, r, m):
    """The canonical K_{n:r} -> K_{mn:mr} map sending S to [m] x S.

    The pair (a, b) in [m] x [n] is flattened to (a-1)n + b, row-major by
    copy index, so S maps to {(a-1)n + s : a in [m], s in S}.
    """
    if m < 1:
        raise OutOfRange("need m >= 1")
    if n <= 2 * r:
        raise DegenerateRange("need n > 2r (got n=%d, r=%d)" % (n, r))
    src_index = kneser_vertex_index(n, r)
    dst_index = kneser_vertex_index(m * n, m * r)
    src = sorted(src_index, key=src_index.get)
    image = []
    for mask in src:
        big = 0
        for a in range(m):
            big |= mask << (a * n)
        image.append(dst_index[big])
    nv_src = len(src_index)
    nv_dst = len(dst_index)
    return VertexMap(nv_src, nv_dst, tuple(image))


# ---------------------------------------------------------------------------
# q-Kneser graphs


def q_kneser_necessary(q, n, r, q2, n2, r2):
    """Necessary condition for qK_{n:r} -> q2K_{n2:r2} at equal ratios.

    The inner-product spectrum of the canonical coloring of the source
    must embed into the target's: {[k]_q/[r]_q : k in [r]} must be a
    subset of {[k']_q2/[r2]_q2 : k' in [r2]}. False certifies that no
    homomorphism exists.
    """
    if n <= 2 * r or n2 <= 2 * r2:
        raise DegenerateRange("need n > 2r on both sides")
    if Fraction(q_bracket(n, q), q_bracket(r, q)) != Fraction(
        q_bracket(n2, q2), q_bracket(r2, q2)
    ):
        raise RatioMismatch("[n]_q/[r]_q differs between source and target")
    src = {Fraction(q_bracket(k, q), q_bracket(r, q)) for k in range(1, r + 1)}
    dst = {Fraction(q_bracket(k, q2), q_bracket(r2, q2)) for k in range(1, r2 + 1)}
    return src <= dst


# ---------------------------------------------------------------------------
# Hamming graphs


def _word_bits(t, n):
    """Even-weight word of vertex t: n-1 value bits then one parity bit."""
    bits = [(t >> (n - 2 - i)) & 1 for i in range(n - 1)]
    bits.append(sum(bits) & 1)
    return tuple(bits)


def _vertex_of_bits(bits):
    t = 0
    for b in bits[:-1]:
        t = (t << 1) | b
    return t


def _check_hamming_params(n, k):
    if k % 2:
        raise BadParity("k must be even")
    if not k < n < 2 * k - 1:
        raise DegenerateRange("need k < n < 2k-1 (got n=%d, k=%d)" % (n, k))


def hamming_hom_exists(n, k, n2, k2):
    """H_{n,k} -> H_{n2,k2} existence when n/k = n2/k2, k,k2 even, k<n<2k-1."""
    if k % 2 or k2 % 2:
        raise BadParity("k and k2 must be even")
    _check_hamming_params(n, k)
    if Fraction(n, k) != Fraction(n2, k2):
        raise RatioMismatch("n/k = %s differs from n2/k2 = %s"
                            % (Fraction(n, k), Fraction(n2, k2)))
    return n2 % n == 0


def hamming_hom_map(n, k, m):
    """The concatenation map H_{n,k} -> H_{mn,mk}: x goes to x||x||...||x.

    Concatenating m copies multiplies all Hamming distances by m, and even
    weight is preserved, so adjacency at distance k maps to distance mk.
    """
    if m < 1:
        raise OutOfRange("need m >= 1")
    _check_hamming_params(n, k)
    nv_src = 1 << (n - 1)
    nv_dst = 1 << (m * n - 1)
    image = []
    for t in range(nv_src):
        bits = _word_bits(t, n) * m
        image.append(_vertex_of_bits(bits))
    return VertexMap(nv_src, nv_dst, tuple(image))


# ---------------------------------------------------------------------------
# cubical classification

CASE_CORE = 1
CASE_PROPER_CORE_BELOW = 2
CASE_HOM_EQUIVALENT = 3


def q_cube_core_classification(n, k):
    """Classify Q_{n/k} for k < n < 2k into the three-way core trichotomy.

    1: k odd, Q_{n/k} is itself a core.
    2: k even and n < 2k-1, Q_{(n-1)/(k-1)} is the core of Q_{n/k}.
    3: k even and n = 2k-1, Q_{n/k} is homomorphically equivalent to
       Q_{(n-1)/(k-1)} (whether that is its core is open).
    """
    if not k < n < 2 * k:
        raise OutOfRange("need k < n < 2k (got n=%d, k=%d)" % (n, k))
    if k % 2 == 1:
        return CASE_CORE
    if n < 2 * k - 1:
        return CASE_PROPER_CORE_BELOW
    return CASE_HOM_EQUIVALENT


# ---------------------------------------------------------------------------
# brute-force search oracle


def brute_force_hom(g, h, budget=10_000_000):
    """Backtracking homomorphism search; None means provably none exists.

    Source vertices are processed in degree-descending order (ties by
    index); each candidate image must be adjacent to the images of all
    earlier-assigned neighbors. The budget counts candidate trials, and
    exhausting it raises BudgetExceeded, which is distinct from a
    definitive negative answer.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    pos_of = {v: i for i, v in enumerate(order)}
    earlier_nbrs = []
    for idx, v in enumerate(order):
        earlier_nbrs.append(
            [pos_of[u] for u in g.neighbors(v) if pos_of[u] < idx]
        )
    image = [0] * g.n
    nodes = 0

    def place(idx):
        nonlocal nodes
        if idx == g.n:
            return True
        checks = earlier_nbrs[idx]
        for w in range(h.n):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded("search exceeded %d nodes" % budget)
            ok = True
            for p in checks:
                if not h.has_edge(image[p], w):
                    ok = False
                    break
            if ok:
                image[idx] = w
                if place(idx + 1):
                    return True
        return False

    if g.n == 0:
        return VertexMap(0, h.n, ())
    if place(0):
        final = [0] * g.n
        for idx, v in enumerate(order):
            final[v] = image[idx]
        return VertexMap(g.n, h.n, tuple(final))
    return None
