"""Exact integer/rational linear algebra and univariate polynomial arithmetic.

Conventions:
  * polynomials are lists of Python ints, ascending degree, no trailing
    zeros (the zero polynomial is []);
  * matrices are lists of rows of Python ints;
  * rationals are fractions.Fraction.

No floating point is used anywhere in this module.
"""

from fractions import Fraction
from math import gcd

from ._kernels import bareiss_rank as _kernel_bareiss_rank
from .errors import EndpointIsRoot, NotSquare, require

# ---------------------------------------------------------------------------
# polynomial basics


def poly_trim(p):
    """Drop trailing zero coefficients in place-free fashion."""
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return list(p[:i])


def poly_degree(p):
    return len(p) - 1


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_derivative(p):
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_content(p):
    g = 0
    for c in p:
        g = gcd(g, abs(c))
        if g == 1:
            break
    return g


def poly_primitive(p):
    """Primitive part with positive leading coefficient."""
    p = poly_trim(p)
    if not p:
        return []
    g = poly_content(p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def eval_poly_at_int(p, t):
    """Exact Horner evaluation of an integer polynomial at an integer."""
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc


def eval_poly_at_fraction(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def divide_out_root(p, t):
    """Synthetic division of p by (x - t); returns (quotient, remainder).

    Always satisfies p = quotient*(x - t) + remainder with integer
    quotient coefficients and integer remainder p(t).
    """
    p = poly_trim(p)
    if not p:
        return [], 0
    q = [0] * (len(p) - 1)
    acc = 0
    for i in range(len(p) - 1, 0, -1):
        acc = acc * t + p[i]
        q[i - 1] = acc
    rem = acc * t + p[0]
    return q, rem


def _int_nth_root(x, k):
    """floor(x ** (1/k)) for x >= 0, k >= 1, by Newton iteration on ints."""
    if x < 0:
        raise ValueError("negative radicand")
    if x < 2 or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def integer_root_bound(p):
    """Integer B with every real root of p in [-B, B] (Fujiwara-style)."""
    p = poly_trim(p)
    if len(p) <= 1:
        return 0
    lead = abs(p[-1])
    n = len(p) - 1
    best = 0
    for i in range(n):
        a = abs(p[i])
        if a:
            # bound_i = ceil((a / lead) ** (1 / (n - i)))
            k = n - i
            num = -(-a // lead)  # ceil division
            r = _int_nth_root(num, k)
            if r ** k < num:
                r += 1
            best = max(best, r)
    return 2 * best


def integer_roots(p):
    """All integer roots of p with exact multiplicities, as {root: mult}.

    Candidates are the integers within the root bound dividing the
    trailing nonzero coefficient; each is confirmed by synthetic division.
    """
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial has every root")
    roots = {}
    # factor out x^v exactly
    v = 0
    while v < len(p) and p[v] == 0:
        v += 1
    if v:
        roots[0] = v
        p = p[v:]
    if len(p) <= 1:
        return roots
    bound = integer_root_bound(p)
    trailing = abs(p[0])
    for t in range(1, bound + 1):
        if trailing % t:
            continue
        for cand in (t, -t):
            q, rem = divide_out_root(p, cand)
            if rem == 0:
                mult = 1
                while True:
                    q2, rem2 = divide_out_root(q, cand)
                    if rem2 != 0:
                        break
                    q = q2
                    mult += 1
                roots[cand] = mult
    return roots


# ---------------------------------------------------------------------------
# gcd / Sturm sequences


def _pseudo_rem(f, g):
    """Pseudo-remainder of f by g with positive multiplier |lc(g)|^delta.

    The positive multiplier keeps the remainder's sign equal to the sign
    of the true rational remainder, which Sturm counting depends on.
    """
    f = list(f)
    dg = poly_degree(g)
    lg = g[-1]
    alg = abs(lg)
    while poly_degree(f) >= dg and f:
        df = poly_degree(f)
        c = f[-1]
        f = [alg * x for x in f]
        # after scaling, leading coeff is alg*c; eliminate with (alg*c/lg) * x^(df-dg) * g
        factor = alg * c // lg  # exact: alg is +-lg
        for i, gc in enumerate(g):
            f[df - dg + i] -= factor * gc
        f = poly_trim(f)
        if not f:
            break
    return f


def poly_gcd(p, q):
    """GCD of integer polynomials, primitive with positive leading coeff."""
    p = poly_primitive(p)
    q = poly_primitive(q)
    if not p:
        return q
    if not q:
        return p
    if poly_degree(p) < poly_degree(q):
        p, q = q, p
    while q:
        r = poly_primitive(_pseudo_rem(p, q))
        p, q = q, r
    return poly_primitive(p)


def squarefree_part(p):
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    p = poly_primitive(p)
    if poly_degree(p) < 1:
        return p
    g = poly_gcd(p, poly_derivative(p))
    if poly_degree(g) == 0:
        return p
    q, r = poly_divmod_int(p, g)
    require(not r, "squarefree division must be exact")
    return poly_primitive(q)


def poly_divmod_int(f, g):
    """Quotient and remainder of integer polynomials f by g, over the integers.

    Each step divides by g's leading coefficient; that is exact when g is
    monic, or when g divides f (Gauss's lemma, for primitive g), and an
    inexact step raises InvariantViolation.
    """
    r = poly_trim(f)
    dg = len(g) - 1
    q = [0] * max(len(r) - dg, 0)
    for shift in reversed(range(len(q))):
        c, rem = divmod(r[shift + dg], g[-1])
        require(rem == 0, "integer polynomial division must be exact")
        q[shift] = c
        for i, gc in enumerate(g):
            r[shift + i] -= c * gc
    return poly_trim(q), poly_trim(r[:dg])


def sturm_root_count(p, lo, hi):
    """Number of distinct real roots of p in the open interval (lo, hi).

    The Sturm chain is built on the squarefree part with integer
    coefficients, normalizing every remainder to its primitive part.
    Endpoints must not be roots (EndpointIsRoot otherwise).
    """
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    ps = squarefree_part(p)
    if poly_degree(ps) < 1:
        return 0
    if eval_poly_at_fraction(ps, lo) == 0 or eval_poly_at_fraction(ps, hi) == 0:
        raise EndpointIsRoot("interval endpoint is a root")
    def positive_content_reduce(f):
        # sign-preserving: Sturm chains tolerate only positive scalings
        g = poly_content(f)
        return [c // g for c in f] if g > 1 else list(f)

    chain = [ps, positive_content_reduce(poly_derivative(ps))]
    while poly_degree(chain[-1]) >= 1:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break  # cannot happen for squarefree input, kept defensive
        chain.append(positive_content_reduce([-c for c in r]))

    def variations(x):
        signs = []
        for f in chain:
            v = eval_poly_at_fraction(f, x)
            if v:
                signs.append(1 if v > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


# ---------------------------------------------------------------------------
# integer matrices


def mat_mul(a, b):
    n = len(a)
    k = len(b)
    kcols = len(b[0]) if k else 0
    out = [[0] * kcols for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(kcols):
                    oi[j] += c * bt[j]
    return out


def _require_square(a):
    n = len(a)
    for row in a:
        if len(row) != n:
            raise NotSquare("matrix is not square")
    return n


def charpoly(a):
    """Characteristic polynomial det(xI - A), ascending coefficients.

    Division-free Berkowitz algorithm: the coefficient vector of the
    leading r x r principal submatrix is obtained from the previous one
    by a truncated convolution with [1, -a_rr, -R C, -R M C, ...].
    """
    n = _require_square(a)
    p = [1]  # descending coefficients, charpoly of the empty matrix
    for r in range(1, n + 1):
        arr = a[r - 1][r - 1]
        col = [1, -arr]
        if r > 1:
            rvec = a[r - 1][: r - 1]
            cvec = [a[i][r - 1] for i in range(r - 1)]
            w = cvec
            # s_t = R M^(t-1) C for t = 1 .. r-1
            for t in range(1, r):
                col.append(-sum(x * y for x, y in zip(rvec, w)))
                if t < r - 1:
                    w = [
                        sum(a[i][j] * w[j] for j in range(r - 1))
                        for i in range(r - 1)
                    ]
        newp = [0] * (r + 1)
        for i in range(r + 1):
            acc = 0
            for j in range(max(0, i - len(col) + 1), min(i + 1, len(p))):
                acc += col[i - j] * p[j]
            newp[i] = acc
        p = newp
    p.reverse()
    return poly_trim(p)


def eval_poly_at_matrix(p, a):
    """Exact Horner evaluation of an integer polynomial at a square matrix."""
    n = _require_square(a)
    p = poly_trim(p)
    if not p:
        return [[0] * n for _ in range(n)]
    acc = [[p[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(p[:-1]):
        acc = mat_mul(acc, a)
        for i in range(n):
            acc[i][i] += c
    return acc


def bareiss_rank(m):
    """Exact rank over the rationals of an integer matrix."""
    if not m or not m[0]:
        return 0
    return _kernel_bareiss_rank(m)
