"""Exact integer linear algebra and univariate polynomial arithmetic.

Conventions:
  * polynomials are lists of Python ints, ascending degree, no trailing
    zeros (the zero polynomial is []);
  * matrices are lists of rows of Python ints.

No floating point is used anywhere in this module.
"""

from .errors import NotSquare, require

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
