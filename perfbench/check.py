"""Correctness gate: every report against its expected values.

The expected values come from workloads.py (closed forms, known ranks,
pinned golden ranks). On top of them this module recomputes facts from
the adjacency matrix with numpy, independently of uvcore: n, degree,
edge count, SRG parameters, the least eigenvalue and its multiplicity,
the rank of the edge-matrix span in floating point, and a walk count
that differs between two edges when a graph is not 1-walk-regular. The
float checks live only here and never decide a verdict of the program.
No check is an `assert`, so `python -O` strips none of them.
"""

import numpy as np

from workloads import rank_fields

EIG_TOL = 1e-6
# a float rank is accepted only with this gap between the last nonzero
# singular value and the first zero one
RANK_GAP = 1e6


def _srg(a):
    n = len(a)
    deg = a.sum(axis=1)
    if n < 2 or not (deg == deg[0]).all():
        return None
    a2 = a @ a
    off = ~np.eye(n, dtype=bool)
    adj = a == 1
    non = off & ~adj
    if not adj.any() or not non.any():
        return None
    lam, mu = np.unique(a2[adj]), np.unique(a2[non])
    if len(lam) != 1 or len(mu) != 1:
        return None
    return [n, int(deg[0]), int(lam[0]), int(mu[0])]


def _float_rank(a, tau):
    """Rank of the span of the edge matrices of the tau-eigenspace."""
    w, u = np.linalg.eigh(a.astype(float))
    basis = u[:, np.abs(w - tau) < EIG_TOL]
    d = basis.shape[1]
    i, j = np.nonzero(np.triu(a))
    outer = basis[i][:, :, None] * basis[j][:, None, :]
    z = (outer + outer.transpose(0, 2, 1))[:, np.triu_indices(d)[0], np.triu_indices(d)[1]]
    s = np.linalg.svd(z, compute_uv=False)
    rank = int((s > s[0] * 1e-9).sum())
    if rank < len(s) and s[rank - 1] < RANK_GAP * s[rank]:
        return None
    return rank


def _independent(g, rep):
    """Problems found by recomputing the report from the adjacency matrix."""
    a = np.array(g.adjacency(), dtype=np.int64)
    deg = a.sum(axis=1)
    facts = {
        "n": g.n,
        "edges": int(a.sum()) // 2,
        "degree": int(deg[0]) if (deg == deg[0]).all() else None,
        "srg": _srg(a),
    }
    problems = ["%s: report %r, numpy %r" % (k, rep.get(k), v)
                for k, v in facts.items() if rep.get(k) != v]
    eig = np.linalg.eigvalsh(a.astype(float))
    reasons = rep.get("reasons") or []
    if "non_integer_least_eigenvalue" in reasons and abs(eig[0] - round(eig[0])) < EIG_TOL:
        problems.append("least eigenvalue %.9f is an integer" % eig[0])
    tau = rep.get("tau")
    if tau is not None:
        mult = int((np.abs(eig - tau) < EIG_TOL).sum())
        if abs(eig[0] - tau) > EIG_TOL or mult != rep.get("d"):
            problems.append("tau %r d %r, numpy %.9f with multiplicity %d"
                            % (tau, rep.get("d"), eig[0], mult))
    if "not_one_walk_regular" in reasons:
        a3 = np.linalg.matrix_power(a, 3)
        if len(np.unique(a3[a == 1])) == 1 and len(np.unique(np.diag(a3))) == 1:
            problems.append("A^3 is constant on edges and diagonal")
    if rep.get("rank") is not None:
        rank = _float_rank(a, tau)
        if rank != rep["rank"]:
            problems.append("rank %r, float rank %r" % (rep["rank"], rank))
    return problems


def check(record, rep):
    """List of problems with one report; empty when it is correct."""
    if not isinstance(rep, dict):
        return ["no report"]
    if record.error is not None:
        if rep.get("error") != record.error:
            return ["expected error %s, got %r" % (record.error, rep)]
        return []
    if "error" in rep:
        return ["unexpected error record %r" % rep]
    want = dict(record.expect)
    if record.float_rank_d is not None:
        a = np.array(record.graph.adjacency(), dtype=np.int64)
        want.update(rank_fields(_float_rank(a, want["tau"]), record.float_rank_d))
    problems = ["%s: report %r, expected %r" % (k, rep.get(k), v)
                for k, v in want.items() if rep.get(k) != v]
    return problems + _independent(record.graph, rep)
