"""Independent oracles the tests check the fast paths against.

These deliberately use different algorithms from the package: cofactor
expansion instead of Berkowitz, rational Gaussian elimination instead of
fraction-free elimination, Frobenius pairings over Python ints instead of
residues.
"""

from fractions import Fraction

import numpy as np

from uvcore.exact import divide_out_root


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def charpoly_cofactor(a):
    """det(xI - A) by Laplace expansion over column subsets (memoized).

    Expands along the topmost remaining row; entries of xI - A are
    integer polynomials in ascending-coefficient form.
    """
    n = len(a)
    m = []
    for i in range(n):
        row = []
        for j in range(n):
            e = [-a[i][j], 1] if i == j else [-a[i][j]]
            while e and e[-1] == 0:
                e.pop()
            row.append(e)
        m.append(row)
    cache = {}

    def det(cols):
        if not cols:
            return [1]
        if cols in cache:
            return cache[cols]
        row = n - len(cols)
        total = []
        for idx, c in enumerate(cols):
            entry = m[row][c]
            if entry:
                term = poly_mul(entry, det(cols[:idx] + cols[idx + 1:]))
                if idx % 2:
                    term = [-x for x in term]
                total = poly_add(total, term)
        cache[cols] = total
        return total

    return det(tuple(range(n)))


def rank_rational(mat):
    """Rank by plain Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def integer_root_multiplicities(p, bound):
    """{root: multiplicity} of the integer roots of p in [-bound, bound].

    Every integer of the range is tried, dividing (x - t) out while it
    leaves no remainder.
    """
    roots = {}
    for t in range(-bound, bound + 1):
        q, rem = divide_out_root(p, t)
        while p and rem == 0:
            roots[t] = roots.get(t, 0) + 1
            p = q
            q, rem = divide_out_root(p, t)
    return roots


def power_traces(a, top):
    """[tr(A^0), .., tr(A^top)] for a symmetric 0/1 int64 matrix A.

    tr(A^s) is the Frobenius pairing <A^h, A^(s-h)>, h = ceil(s/2), summed
    over Python ints (object dtype). The powers are int64 products while
    the walk-count bound k^h stays below 2^62 and object products after.
    """
    k = int(a.sum(axis=1).max(initial=0))
    powers = [np.eye(len(a), dtype=np.int64)]
    for h in range(1, (top + 1) // 2 + 1):
        if k**h < 1 << 62:
            powers.append(powers[-1] @ a)
        else:
            powers.append(np.dot(powers[-1].astype(object), a.astype(object)))
    return [int(np.sum(powers[(s + 1) // 2].astype(object) * powers[s // 2].astype(object)))
            for s in range(top + 1)]
