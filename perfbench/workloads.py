"""Graph6 record streams for the certify-pipeline benchmark.

A workload is an endless sequence of cycles. A cycle is a fixed list of
record kinds; the seed and the cycle number only choose which graph of
each kind is drawn (a random Latin square, a random regular graph, a
vertex relabelling). Runs send whole cycles, so every run of a workload
sends the same mix and its medians compare across seeds and commits.

Each record carries the values its report must show. They come from
closed forms and known ranks, never from running the pipeline, except
the golden Latin-square ranks of the default seed, which are pinned
here and cross-checked by the float rank in check.py.
"""

import random
from dataclasses import dataclass, field
from math import comb

from uvcore import (Graph, complement, from_edges, hamming_h, is_connected, kneser, q_kneser,
                    write_graph6)

DEFAULT_SEED = 1

# Exact ranks of the Latin-square records of DEFAULT_SEED, in draw order.
GOLDEN_LATIN_RANKS = (197, 197, 197, 197, 197, 197)

WORKLOADS = ("rank_stream", "family_sweep", "reject_stream")


@dataclass
class Record:
    """One graph6 line and what its report must say.

    `expect` holds exact report fields; `error` the expected error code
    for lines that must come back as error records. `graph` is kept for
    the independent float checks.
    """

    kind: str
    line: str
    graph: Graph = None
    expect: dict = field(default_factory=dict)
    error: str = None
    # multiplicity d when rank, verdict, core and reasons are to follow
    # from the independent float rank (no pinned exact rank)
    float_rank_d: int = None


class Timer:
    """Accumulates the seconds spent generating and encoding inputs."""

    def __init__(self, clock):
        self.clock = clock
        self.generate_s = 0.0
        self.write_graph6_s = 0.0


def _report(n, degree, edges, **fields):
    base = {"n": n, "degree": degree, "edges": edges, "tau": None, "d": None,
            "rank": None, "target": None, "verdict": None,
            "core": "inconclusive", "reasons": []}
    base.update(fields)
    return base


def rank_fields(rank, d):
    """Fields fixed by the rank of a 1-walk-regular, 2-walk-regular graph."""
    target = d * (d + 1) // 2
    if rank is None:
        return {"target": target}
    if rank < target:
        return {"rank": rank, "target": target, "verdict": "loose",
                "core": "inconclusive", "reasons": ["loose"]}
    return {"rank": rank, "target": target, "verdict": "tight",
            "core": "certified", "reasons": ["via_two_walk_regular"]}


def _relabel(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()])


def _random_latin_square(rng, m):
    """Row-by-row random completion with restarts."""
    while True:
        square = []
        for _ in range(m):
            for _attempt in range(200):
                row = list(range(m))
                rng.shuffle(row)
                if all(row[c] != prev[c] for prev in square for c in range(m)):
                    square.append(row)
                    break
            else:
                break
        if len(square) == m:
            return square


def _latin_square_graph(square):
    m = len(square)
    cells = [(r, c, square[r][c]) for r in range(m) for c in range(m)]
    return from_edges(m * m, [
        (v, w) for v in range(m * m) for w in range(v + 1, m * m)
        if any(a == b for a, b in zip(cells[v], cells[w]))
    ])


def _rook_graph(m):
    return from_edges(m * m, [
        (v, w) for v in range(m * m) for w in range(v + 1, m * m)
        if v // m == w // m or v % m == w % m
    ])


def _circulant(n, steps):
    return from_edges(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def _random_regular(rng, n, k):
    """Connected simple k-regular graph by random pairing with restarts."""
    while True:
        points = [v for v in range(n) for _ in range(k)]
        edges = set()
        while points:
            for _attempt in range(100):
                i, j = rng.sample(range(len(points)), 2)
                u, v = sorted((points[i], points[j]))
                if u != v and (u, v) not in edges:
                    break
            else:
                break
            edges.add((u, v))
            for x in sorted((i, j), reverse=True):
                points.pop(x)
        if points:
            continue
        g = from_edges(n, sorted(edges))
        if is_connected(g):
            return g


def _least_eigenvalue_is_integral(g):
    import numpy as np

    lam = np.linalg.eigvalsh(np.array(g.adjacency(), dtype=float))[0]
    return abs(lam - round(lam)) < 1e-6


class _Cycles:
    """Draws the records of one workload, cycle after cycle."""

    def __init__(self, workload, seed, timer):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.seed = seed
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.timer = timer
        self.latin_drawn = 0

    def _make(self, build):
        t0 = self.timer.clock()
        g = build()
        self.timer.generate_s += self.timer.clock() - t0
        return g

    def _line(self, g):
        t0 = self.timer.clock()
        line = write_graph6(g).decode("ascii")
        self.timer.write_graph6_s += self.timer.clock() - t0
        return line

    def _graph_record(self, kind, g, expect):
        return Record(kind, self._line(g), g, expect)

    def next_cycle(self):
        return getattr(self, "_" + self.workload)()

    # -- rank_stream ------------------------------------------------------

    def _latin(self):
        g = self._make(lambda: _latin_square_graph(_random_latin_square(self.rng, 6)))
        rank = None
        if self.seed == DEFAULT_SEED and self.latin_drawn < len(GOLDEN_LATIN_RANKS):
            rank = GOLDEN_LATIN_RANKS[self.latin_drawn]
        self.latin_drawn += 1
        # SRG(36,15,6,6): least eigenvalue -3 with multiplicity 20
        expect = _report(36, 15, 270, srg=[36, 15, 6, 6], tau=-3, d=20,
                         **rank_fields(rank, 20))
        rec = self._graph_record("latin_square", g, expect)
        if rank is None:
            for key in ("rank", "verdict", "core", "reasons"):
                del expect[key]
            rec.float_rank_d = 20
        return rec

    def _rank_stream(self):
        rel = self.rng
        j92 = self._make(lambda: _relabel(rel, complement(kneser(9, 2))))
        rook = self._make(lambda: _relabel(rel, _rook_graph(6)))
        qk = self._make(lambda: _relabel(rel, q_kneser(2, 4, 2)))
        return [
            self._latin(),
            # triangular graph T(9): edge-Gram route, 252 x 252
            self._graph_record("johnson_9_2", j92, _report(
                36, 14, 252, srg=[36, 14, 7, 4], tau=-2, d=27, **rank_fields(216, 27))),
            # 6 x 6 rook graph: edge-Gram route, 180 x 180
            self._graph_record("rook_6", rook, _report(
                36, 10, 180, srg=[36, 10, 4, 2], tau=-2, d=25, **rank_fields(144, 25))),
            self._latin(),
            # qK(4:2) over F_2: vertex-basis route, 105 x 105
            self._graph_record("q_kneser_4_2", qk, _report(
                35, 16, 280, srg=[35, 16, 6, 8], tau=-4, d=14, **rank_fields(91, 14))),
        ]

    # -- family_sweep -----------------------------------------------------

    def _kneser(self, n, r, reasons):
        g = self._make(lambda: _relabel(self.rng, kneser(n, r)))
        nv, k, d = comb(n, r), comb(n - r, r), n - 1
        srg = None
        if r == 2:
            srg = [nv, k, comb(n - 4, 2), comb(n - 3, 2)]
        target = d * (d + 1) // 2
        return self._graph_record("kneser_%d_%d" % (n, r), g, _report(
            nv, k, nv * k // 2, srg=srg, tau=-comb(n - r - 1, r - 1), d=d,
            rank=target, target=target, verdict="tight", core="certified",
            reasons=[reasons]))

    def _hamming(self, n, k):
        g = self._make(lambda: _relabel(self.rng, hamming_h(n, k)))
        nv, deg = 1 << (n - 1), comb(n, k)
        target = n * (n + 1) // 2
        return self._graph_record("hamming_%d_%d" % (n, k), g, _report(
            nv, deg, nv * deg // 2, srg=None,
            tau=(n - 2 * k) * comb(n - 1, k - 1) // k, d=n,
            rank=target, target=target, verdict="tight", core="certified",
            reasons=["via_local_injectivity"]))

    def _family_sweep(self):
        rook3 = self._make(lambda: _relabel(self.rng, _rook_graph(3)))
        t5 = self._make(lambda: _relabel(self.rng, complement(kneser(5, 2))))
        # eleven relabelled H_{9,6}, one after each other member, so the
        # median record of a run is one of them, not the mean of two kinds;
        # its time varies less with the host's load than that of K(10,4)
        h96 = [self._hamming(9, 6) for _ in range(11)]
        others = [
            self._kneser(10, 4, "via_local_injectivity"),
            self._kneser(5, 2, "via_two_walk_regular"),
            self._kneser(11, 5, "via_two_walk_regular"),
            self._graph_record("rook_3", rook3, _report(
                9, 4, 18, srg=[9, 4, 1, 2], tau=-2, d=4, **rank_fields(9, 4))),
            # complement of the Petersen graph is T(5)
            self._graph_record("petersen_complement", t5, _report(
                10, 6, 30, srg=[10, 6, 3, 4], tau=-2, d=5, **rank_fields(15, 5))),
            self._hamming(10, 6),
            self._kneser(7, 3, "via_two_walk_regular"),
        ]
        cycle = []
        for i, rec in enumerate(h96):
            cycle += [rec] + others[i:i + 1]
        return cycle

    # -- reject_stream ----------------------------------------------------

    def _spectral_reject(self, n, k):
        while True:
            g = self._make(lambda: _random_regular(self.rng, n, k))
            if not _least_eigenvalue_is_integral(g):
                break
        return self._graph_record("random_regular_%d_%d" % (n, k), g, _report(
            n, k, n * k // 2, srg=None, reasons=["non_integer_least_eigenvalue"]))

    def _moebius(self, n):
        # C_n(1, n/2) with n = 2 mod 4: least eigenvalue -3, simple, in a
        # mixed spectrum (charpoly fallback); rim and spoke edges differ
        g = self._make(lambda: _relabel(self.rng, _circulant(n, (1, n // 2))))
        return self._graph_record("moebius_%d" % n, g, _report(
            n, 3, 3 * n // 2, srg=None, tau=-3, d=1, reasons=["not_one_walk_regular"]))

    def _odd_cycle(self, n):
        g = self._make(lambda: _relabel(self.rng, _circulant(n, (1,))))
        return self._graph_record("cycle_%d" % n, g, _report(
            n, 2, n, srg=None, reasons=["non_integer_least_eigenvalue"]))

    def _irregular(self):
        def build():
            g = _random_regular(self.rng, 40, 3)
            u, v = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                        if not g.rows[u] >> v & 1)
            rows = list(g.rows)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            return Graph(g.n, tuple(rows))
        g = self._make(build)
        return self._graph_record("irregular", g, _report(
            40, None, 61, srg=None, reasons=["not_regular"]))

    def _disconnected(self):
        def build():
            a = _random_regular(self.rng, 20, 3)
            b = _random_regular(self.rng, 20, 3)
            return Graph(40, a.rows + tuple(r << 20 for r in b.rows))
        g = self._make(build)
        return Record("disconnected", self._line(g), g, error="NotConnected")

    def _malformed(self, cut):
        g = self._make(lambda: _random_regular(self.rng, 24, 3))
        line = self._line(g)
        # drop the last byte, or put a byte below the graph6 range inside
        line = line[:-1] if cut else line[:5] + "!" + line[6:]
        return Record("malformed", line, error="MalformedGraph6")

    def _reject_stream(self):
        # three of the ten random regular graphs are of the cheapest kind,
        # (36, 3), so the median record of a run of 3 or 4 cycles is one
        # of them and not the mean of two kinds
        return [
            self._spectral_reject(36, 3),
            self._moebius(30),
            self._spectral_reject(40, 4),
            self._odd_cycle(45),
            self._spectral_reject(44, 5),
            self._irregular(),
            self._spectral_reject(36, 3),
            self._spectral_reject(48, 3),
            self._moebius(42),
            self._spectral_reject(42, 5),
            self._disconnected(),
            self._spectral_reject(48, 4),
            self._malformed(cut=True),
            self._spectral_reject(36, 3),
            self._spectral_reject(46, 3),
            self._moebius(46),
            self._spectral_reject(48, 5),
            self._malformed(cut=False),
        ]


def cycles(workload, seed, timer):
    """Generator of cycles (lists of Records) for one workload and seed."""
    source = _Cycles(workload, seed, timer)
    while True:
        yield source.next_cycle()
