"""Shared spectral machinery: adjacency powers and exact minimal polynomials.

The minimal polynomial psi of an adjacency matrix A (symmetric, hence
diagonalizable) has one simple root per distinct eigenvalue, so its degree
is their number m, and every polynomial in A equals one of degree below m.
One PowerSequence per graph therefore carries the whole spectral side:
the powers A^0..A^m built while finding psi also decide walk-regularity
(exponents below m are exhaustive) and give the canonical Gram
(psi_tau = psi / (x - tau), evaluated at A), and the cached traces give
every eigenvalue multiplicity (eigenvalue_multiplicity).

  * m is found as the first j for which the Hankel matrix of power traces
    [tr(A^(a+b))]_{a,b<=j} becomes singular (the Hankel matrix is the Gram
    of the moment sequence of a positive measure on m points, so its
    leading principal minors are positive up to size m and zero after);
  * one fraction-free elimination, grown by one index per new pair of
    traces, yields those minors as its pivots, and back-substitution on
    the same elimination solves the m x m Hankel system given by Newton's
    identities for psi's coefficients, which must come out integral.

Every dense integer product goes through exact_matmul, whose caller
proves a bound on the magnitude of every partial sum. Below 2^53 the
product runs on float64 BLAS, where each such sum is an exactly
representable integer; up to 2^62 it runs in int64, and past that on
exact object arrays. For the powers the bound is the walk count k^j.
"""

import numpy as np

from .errors import InvariantViolation, require
from .exact import divide_out_root, eval_poly_at_int

_FLOAT64_EXACT = 1 << 53
_INT64_SAFE = 1 << 62


def exact_matmul(a, b, bound):
    """a @ b exactly, for integer arrays with bound >= max_ij sum_k |a_ik b_kj|.

    Every product and every partial sum of an entry is an integer of
    magnitude at most bound, so below 2^53 float64 represents each of them
    exactly in any summation order (FMA included) and BLAS is exact.
    """
    if bound < _FLOAT64_EXACT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    if bound < _INT64_SAFE and a.dtype == b.dtype == np.int64:
        return a @ b
    return np.dot(a.astype(object), b.astype(object))


def adjacency_array(g):
    """0/1 int64 adjacency matrix, unpacked from the row bitmasks."""
    width = (g.n + 7) // 8
    raw = b"".join(r.to_bytes(width, "little") for r in g.rows)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(g.n, width)
    bits = np.unpackbits(packed, axis=1, count=g.n, bitorder="little")
    return bits.astype(np.int64)


class PowerSequence:
    """Lazily extended powers A^0, A^1, ... and traces, with exact arithmetic.

    Entries of A^j are walk counts bounded by maxdeg^j, the bound each
    product passes to exact_matmul; the powers are int64 while it stays
    below 2^62, object dtype afterwards.
    """

    def __init__(self, g):
        self.g = g
        self.n = g.n
        self.maxdeg = max((g.degree(i) for i in range(g.n)), default=0)
        self.traces = [g.n]
        self._start()

    def _start(self):
        self.powers = [np.eye(self.n, dtype=np.int64), adjacency_array(self.g)]
        self.bound = self.maxdeg  # max-entry bound for the last power

    @property
    def a64(self):
        return self.power(1)

    def power(self, j):
        if not self.powers:
            self._start()
        a = self.powers[1]
        while len(self.powers) <= j:
            self.bound *= max(self.maxdeg, 1)
            self.powers.append(exact_matmul(self.powers[-1], a, self.bound))
        return self.powers[j]

    def release(self):
        """Drop every matrix, A included; later calls rebuild them on demand."""
        self.powers = []

    def trace(self, s):
        """tr(A^s) from powers up to ceil(s/2), via Frobenius pairing."""
        while len(self.traces) <= s:
            t = len(self.traces)
            pa = self.power((t + 1) // 2)
            pb = self.power(t // 2)
            # tr(A^t) = <A^h, A^(t-h)>_F since A is symmetric; the products
            # are walk counts summing to tr(A^t) <= n k^t, so int64 is exact
            # below that bound
            if pa.dtype == pb.dtype == np.int64 and self.n * self.maxdeg**t < _INT64_SAFE:
                self.traces.append(int(np.sum(pa * pb)))
            else:
                self.traces.append(int(np.sum(pa.astype(object) * pb.astype(object))))
        return self.traces[s]


class _FractionFree:
    """Fraction-free (Bareiss) elimination of a matrix grown one index at a time.

    upper[k][j] and lower[k][j] (j >= k) hold row k and column k after
    step k: the minors of the leading k x k block bordered by row k and
    column j (resp. row j and column k). Pivot k, upper[k][k], is thus the
    leading principal minor of order k + 1, and every division is exact.
    Growth stops at the first zero pivot.
    """

    def __init__(self):
        self.upper = []
        self.lower = []

    def _reduce(self, vec, factors):
        """Carry a new column (factors=lower) or row (factors=upper) through every step."""
        vec = list(vec)
        prev = 1
        for k, f in enumerate(factors):
            p = self.upper[k][k]
            for i in range(k + 1, len(vec)):
                vec[i] = (p * vec[i] - f[i] * vec[k]) // prev
            prev = p
        return vec

    def extend(self, row, col):
        """Border the t x t matrix with row t and column t; return the new pivot.

        `row` has t entries, `col` t + 1 ending with the diagonal entry.
        """
        t = len(self.upper)
        for f, x in zip(self.lower, self._reduce(row, self.upper)):
            f.append(x)
        col = self._reduce(col, self.lower)
        for f, x in zip(self.upper, col):
            f.append(x)
        # entries left of the diagonal are never read
        self.upper.append([0] * t + [col[t]])
        self.lower.append([0] * t + [col[t]])
        return col[t]

    def solve(self, rhs):
        """Integer x with M x = rhs on the leading len(rhs) indices.

        Raises InvariantViolation when the solution is not integral.
        """
        u = self._reduce(rhs, self.lower)
        x = [0] * len(u)
        for i in reversed(range(len(u))):
            row = self.upper[i]
            num = u[i] - sum(row[j] * x[j] for j in range(i + 1, len(u)))
            x[i], rem = divmod(num, row[i])
            if rem:
                raise InvariantViolation("exact solution is not integral")
        return x


def minimal_polynomial(g, powers=None):
    """Minimal polynomial of the adjacency matrix, ascending integer coeffs."""
    if g.n == 0:
        raise ValueError("empty graph has no spectrum")
    ps = powers if powers is not None else PowerSequence(g)
    ff = _FractionFree()
    for t in range(g.n + 1):
        # border the Hankel matrix H_t of traces with index t
        border = [ps.trace(a + t) for a in range(t)]
        if ff.extend(border, border + [ps.trace(2 * t)]) == 0:
            # H_(t+1) is singular, so m = t and psi solves H_m c = -border
            return ff.solve([-x for x in border]) + [1]
    raise InvariantViolation("Hankel matrix stayed nonsingular past n")


def eigenvalue_multiplicity(ps, psi, lam):
    """Multiplicity of lam, a root of the minimal polynomial psi, from traces.

    With q = psi / (x - lam), q(A) = q(lam) E_lam for the spectral
    idempotent E_lam, whose trace is the multiplicity. tr q(A) is a sum of
    the traces the PowerSequence already caches, so no matrix is touched.
    """
    q, rem = divide_out_root(psi, lam)
    require(rem == 0, "lam must be a root of the minimal polynomial")
    mult, rem = divmod(sum(x * ps.trace(j) for j, x in enumerate(q)),
                       eval_poly_at_int(q, lam))
    require(rem == 0 and mult > 0, "multiplicity must be a positive integer")
    return mult
