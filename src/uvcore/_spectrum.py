"""Shared spectral machinery: adjacency powers and exact minimal polynomials.

The minimal polynomial psi of an adjacency matrix A (symmetric, hence
diagonalizable) has one simple root per distinct eigenvalue, so its degree
is their number m, and every polynomial in A equals one of degree below m.
One PowerSequence per graph therefore carries the whole spectral side:
its traces tr(A^s) give psi and every eigenvalue multiplicity
(eigenvalue_multiplicity), and its exact powers A^0..A^(m-1) decide
walk-regularity (exponents below m are exhaustive) and give the canonical
Gram (psi_tau = psi / (x - tau), evaluated at A).

  * tr(A^s) <= n k^s for the maximum degree k. Below 2^62 it is the int64
    Frobenius pairing <A^h, A^(s-h)>; past that it is joined by CRT from
    its residues mod primes whose product exceeds n k^s, each the same
    pairing of A^h and A^(s-h) reduced mod p. No trace is taken over
    Python-int arrays.
  * m is the first t for which the Hankel matrix H_(t+1) of the traces,
    [tr(A^(a+b))]_(a,b<=t), is singular: it is the Gram matrix of the
    moment sequence of a positive measure on m points, so its leading
    principal minors are positive up to order m and zero after.
    minimal_polynomial proposes m mod a prime and lifts psi's
    coefficients from residues, and accepts them only after an exact
    check over the integers; its docstring has the proof.

Every dense integer product goes through exact_matmul, whose caller
proves a bound on the magnitude of every partial sum. Below 2^53 the
product runs on float64 BLAS, where each such sum is an exactly
representable integer; up to 2^62 it runs in int64, and past that on
exact object arrays. For the powers the bound is the walk count k^j.
"""

from math import prod

import numpy as np

from .errors import InvariantViolation, require
from .exact import crt, divide_out_root, eval_poly_at_int, primes_below, rref_mod

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
    below 2^62, object dtype afterwards. Traces never need the object
    powers: past the int64 bound they come from residues (trace).
    """

    def __init__(self, g):
        self.g = g
        self.n = g.n
        self.maxdeg = max((g.degree(i) for i in range(g.n)), default=0)
        self.traces = [g.n]
        # trace primes p: n (p - 1)^2 < 2^63, so a residue pairing sums in int64
        self._trace_primes = []
        self._prime_source = primes_below(1 << (63 - g.n.bit_length()) // 2)
        self._chains = {}  # p -> (h, A^(h-1) mod p, A^h mod p)
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
        self._chains = {}

    def trace(self, s):
        """tr(A^s) = <A^h, A^(s-h)>_F with h = ceil(s/2), as A is symmetric.

        The products are walk counts summing to tr(A^s) <= n k^s, so below
        2^62 the pairing is exact in int64. Past it, the pairing is taken
        mod primes p whose product exceeds n k^s, and the residues are
        joined by CRT; tr(A^s) >= 0, so it is the CRT value in [0, product).
        """
        while len(self.traces) <= s:
            t = len(self.traces)
            h = (t + 1) // 2
            top = self.n * self.maxdeg**t
            if top < _INT64_SAFE:
                self.traces.append(int(np.sum(self.power(h) * self.power(t - h))))
                continue
            residues, moduli = [], []
            while prod(moduli) <= top:
                if len(moduli) == len(self._trace_primes):
                    self._trace_primes.append(next(self._prime_source))
                p = self._trace_primes[len(moduli)]
                a = self._power_mod(p, h)
                pair = a * (a if 2 * h == t else self._power_mod(p, t - h))
                # each row sums n products below p^2, so under 2^63
                residues.append(int((pair.sum(axis=1) % p).sum() % p))
                moduli.append(p)
            self.traces.append(crt(residues, moduli))
        return self.traces[s]

    def _power_mod(self, p, j):
        """A^j mod p as an int64 array, for j at most one below the last call's.

        While maxdeg^j < 2^53 it is the exact power reduced mod p. Beyond,
        A^j mod p is fmod(R @ A, p) for R = A^(j-1) mod p on float64 BLAS:
        every partial sum is at most n (p - 1) < 2^53, so it is exact. The
        chain keeps its last two members.
        """
        if self.maxdeg**j < _FLOAT64_EXACT:
            return self.power(j) % p
        if p not in self._chains:
            h = 0
            while self.maxdeg ** (h + 1) < _FLOAT64_EXACT:
                h += 1
            self._chains[p] = (h, None, self.power(h) % p)
        h, prev, cur = self._chains[p]
        a = self.a64.astype(np.float64)
        while h < j:
            h, prev, cur = h + 1, cur, np.fmod(cur.astype(np.float64) @ a, p).astype(np.int64)
        self._chains[p] = (h, prev, cur)
        return cur if j == h else prev


def _hankel_primes():
    """The primes minimal_polynomial works mod: descending below 2^31."""
    return primes_below(1 << 31)


# unlucky primes tolerated by one minimal_polynomial call
_HANKEL_RETRIES = 8
_UNLUCKY = "more than %d unlucky primes for the minimal polynomial" % _HANKEL_RETRIES


def _propose(ps, q):
    """The first t for which H_(t+1) is singular mod q, one trace at a time.

    Berlekamp-Massey mod q on s_j = tr(A^j): it keeps the shortest
    recurrence (connection polynomial C, length L) that generates
    s_0..s_(N-1). While the leading minors of the Hankel matrix are
    nonzero mod q, L = t after s_0..s_(2t-1), C is the unique recurrence
    of that length, and the discrepancy of s_(2t) is the Schur complement
    det H_(t+1) / det H_t. The first zero one at an even N gives t; it
    comes at the latest at t = m, since det H_(m+1) = 0, so no trace past
    index 2m is taken.
    """
    conn, prev = [1], [1]
    length, gap, last = 0, 1, 1
    seq = []
    for step in range(2 * ps.n + 1):
        seq.append(ps.trace(step) % q)
        d = sum(x * seq[step - i] for i, x in enumerate(conn)) % q
        if d == 0:
            if step == 2 * length:
                return length
            gap += 1
            continue
        f = d * pow(last, -1, q) % q
        new = conn + [0] * (len(prev) + gap - len(conn))
        for i, x in enumerate(prev):
            new[i + gap] = (new[i + gap] - f * x) % q
        if 2 * length <= step:
            length, prev, last, gap = step + 1 - length, conn, d, 1
        else:
            gap += 1
        conn = new
    raise InvariantViolation("Hankel matrix stayed nonsingular past n mod %d" % q)


def _solve_mod(ps, m, q):
    """c mod q with H_m c = -(tr(A^m), .., tr(A^(2m-1))), or None if H_m is singular mod q."""
    if m == 0:
        return []
    seq = np.array([ps.trace(j) % q for j in range(2 * m)], dtype=np.int64)
    system = seq[np.add.outer(np.arange(m), np.arange(m + 1))]
    system[:, m] = -system[:, m]
    r, pivots = rref_mod(system, q)
    return r[:, m].tolist() if pivots == list(range(m)) else None


def minimal_polynomial(g, powers=None):
    """Minimal polynomial of the adjacency matrix, ascending integer coeffs.

    Mod primes q < 2^31 from a fixed descending sequence, _propose gives
    m, the first t with H_(t+1) singular mod q, and Gauss-Jordan
    elimination mod q solves H_m c = -(tr(A^m), .., tr(A^(2m-1))).
    psi = c_0 + .. + c_(m-1) x^(m-1) + x^m has roots of magnitude at most
    the maximum degree k, so |c_j| <= C(m, j) k^(m-j) <= (k+1)^m, and c is
    lifted by symmetric CRT over primes with product above 2 (k+1)^m.
    The proof, from exact facts only:

      * each residue of c comes from an elimination that found H_m of full
        rank mod q, so det H_m is nonzero and m <= m_true;
      * the exact check H_(m+1) (c, 1) = 0 over the integers shows that
        H_(m+1) is singular; its leading minors are positive up to order
        m_true, so m >= m_true. Then m = m_true, c is the unique solution
        of the first m rows, and psi is the minimal polynomial.

    A prime that divides a leading minor is unlucky: it proposes a
    smaller m, which fails the exact check, or its elimination is
    singular and it is skipped; the next prime is taken. No step is
    random, and more than _HANKEL_RETRIES unlucky primes raise
    InvariantViolation.
    """
    if g.n == 0:
        raise ValueError("empty graph has no spectrum")
    ps = powers if powers is not None else PowerSequence(g)
    primes = _hankel_primes()
    misses = 0
    for q in primes:
        m = _propose(ps, q)
        residues, moduli = [], []
        while True:
            c = _solve_mod(ps, m, q)
            if c is None:
                misses += 1
                require(misses <= _HANKEL_RETRIES, _UNLUCKY)
            else:
                residues.append(c)
                moduli.append(q)
                if prod(moduli) > 2 * (ps.maxdeg + 1) ** m:
                    break
            q = next(primes)
        mod = prod(moduli)
        psi = [x - mod if 2 * x > mod else x
               for x in (crt(col, moduli) for col in zip(*residues))] + [1]
        if all(sum(x * ps.trace(a + j) for j, x in enumerate(psi)) == 0
               for a in range(m + 1)):
            return psi
        misses += 1
        require(misses <= _HANKEL_RETRIES, _UNLUCKY)
    raise InvariantViolation("the prime source ran out")


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
