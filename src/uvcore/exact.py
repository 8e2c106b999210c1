"""Exact integer linear algebra and univariate polynomial arithmetic.

Conventions:
  * polynomials are lists of Python ints, ascending degree, no trailing
    zeros (the zero polynomial is []);
  * matrices are lists of rows of Python ints, except for elimination mod
    a prime, which works on numpy int64 arrays of residues.

The multimodular helpers (a deterministic prime test, the fixed
descending prime sequences it yields, the Chinese remainder theorem and
Gauss-Jordan elimination mod p) follow von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 5: residues mod enough primes, joined
under a proven bound, then checked exactly over the integers.

No floating point is used anywhere in this module.
"""

import numpy as np

from .errors import NotSquare, OutOfRange, require

# ---------------------------------------------------------------------------
# polynomial basics


def poly_trim(p):
    """Drop trailing zero coefficients in place-free fashion."""
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return list(p[:i])


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def eval_poly_at_int(p, t):
    """Exact Horner evaluation of an integer polynomial at an integer."""
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
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


def psd_rank(mat):
    """Exact rank of a symmetric positive semidefinite integer matrix.

    Symmetric fraction-free (Bareiss) elimination on diagonal pivots: each
    entry stays an exact minor and each update divides exactly by the
    previous pivot. Schur complements of a PSD matrix are PSD, and a zero
    diagonal entry has a zero row, so such rows are dropped and a pivot is
    always on the diagonal. Only the upper wedge is updated. A negative
    diagonal entry (the input was not PSD) raises InvariantViolation.
    """
    m = [[int(x) for x in row] for row in mat]  # a copy; never a fixed width
    act = list(range(len(m)))
    prev = 1
    for rank in range(len(m) + 1):  # each pass takes one pivot
        act = [i for i in act if m[i][i]]
        require(all(m[i][i] > 0 for i in act), "matrix is not positive semidefinite")
        if not act:
            return rank
        piv = min(act, key=lambda i: m[i][i])  # the first least diagonal entry
        act.remove(piv)
        p = m[piv][piv]
        # pivot row/col values for the active set, read in (min, max) order
        pvals = {r: m[piv][r] if r > piv else m[r][piv] for r in act}
        for ri, r in enumerate(act):
            row, a = m[r], pvals[r]
            if a:
                for c in act[ri:]:
                    row[c] = (p * row[c] - a * pvals[c]) // prev
            elif p != prev:
                for c in act[ri:]:
                    row[c] = p * row[c] // prev
        prev = p


# ---------------------------------------------------------------------------
# primes, residues and elimination mod p

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all twelve bases (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n):
    """Deterministic Miller-Rabin test on the prime bases 2..37.

    No composite below 318665857834031151167461 (about 3.2 * 10^23) is a
    strong probable prime to all twelve bases, so the answer is exact
    there; a larger n raises OutOfRange.
    """
    if n >= _MR_EXACT_BELOW:
        raise OutOfRange("the prime test is exact only below %d" % _MR_EXACT_BELOW)
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound):
    """The primes below bound, in descending order (a fixed sequence)."""
    return (p for p in range(bound - 1, 1, -1) if is_prime(p))


def crt(residues, moduli):
    """The x in [0, M), M the product of the pairwise coprime moduli, with
    x = r (mod q) for every residue r and its modulus q."""
    x, mod = 0, 1
    for r, q in zip(residues, moduli):
        x += mod * ((r - x) * pow(mod, -1, q) % q)
        mod *= q
    return x


def rref_mod(a, p):
    """Reduced row echelon form of an integer matrix mod a prime p < 2^31.

    Returns (r, pivots): r is an int64 array with entries in [0, p) and
    pivots holds the pivot column of each nonzero row, so len(pivots) is
    the rank mod p. Every product of two residues is below 2^62, so the
    row operations are exact in int64.
    """
    require(p < 1 << 31, "elimination mod p needs p < 2^31")
    r = np.array(a, dtype=np.int64) % p
    pivots = []
    for col in range(r.shape[1]):
        row = len(pivots)
        if row == r.shape[0]:
            break
        nonzero = np.flatnonzero(r[row:, col])
        if not nonzero.size:
            continue
        if nonzero[0]:
            r[[row, row + nonzero[0]]] = r[[row + nonzero[0], row]]
        r[row] = r[row] * pow(int(r[row, col]), -1, p) % p
        factors = r[:, col].copy()
        factors[row] = 0
        r -= np.outer(factors, r[row])
        r %= p
        pivots.append(col)
    return r, pivots
