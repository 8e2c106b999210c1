import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from uvcore import complement, from_edges, is_connected, kneser


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def rook_graph(m):
    """m x m rook's graph: cells adjacent iff same row or same column."""
    edges = []
    for v in range(m * m):
        for w in range(v + 1, m * m):
            if v // m == w // m or v % m == w % m:
                edges.append((v, w))
    return from_edges(m * m, edges)


def prism():
    return from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3), (1, 4), (2, 5)])


def cube_graph():
    return from_edges(8, [(i, i ^ (1 << b)) for i in range(8) for b in range(3)
                          if i < i ^ (1 << b)])


def petersen():
    return kneser(5, 2)


def moebius_ladder_complement():
    """Complement of the Moebius ladder C_8(1,4).

    Spectrum {4, sqrt(2) x2, 0, -sqrt(2) x2, -2 x2}: the least eigenvalue
    is the integer -2 while other eigenvalues are irrational.
    """
    ladder = from_edges(8, [(i, (i + 1) % 8) for i in range(8)]
                        + [(i, i + 4) for i in range(4)])
    return complement(ladder)


def latin_square_graph(square):
    """Latin square graph: cells adjacent iff same row, column, or symbol."""
    m = len(square)
    edges = []
    for v in range(m * m):
        for w in range(v + 1, m * m):
            r1, c1 = divmod(v, m)
            r2, c2 = divmod(w, m)
            if r1 == r2 or c1 == c2 or square[r1][c1] == square[r2][c2]:
                edges.append((v, w))
    return from_edges(m * m, edges)


def random_regular(rng, n, k):
    """Connected simple k-regular graph by random pairing with restarts."""
    while True:
        points = [v for v in range(n) for _ in range(k)]
        edges = set()
        while points:
            for _attempt in range(100):
                i, j = rng.sample(range(len(points)), 2)
                edge = tuple(sorted((points[i], points[j])))
                if edge[0] != edge[1] and edge not in edges:
                    break
            else:
                break
            edges.add(edge)
            for x in sorted((i, j), reverse=True):
                points.pop(x)
        g = from_edges(n, sorted(edges))
        if not points and is_connected(g):
            return g


def random_gram(rng, n, r):
    """X X^T for a random n x r integer X: PSD of rank at most r."""
    x = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
    return [
        [sum(x[i][t] * x[j][t] for t in range(r)) for j in range(n)]
        for i in range(n)
    ]


@pytest.fixture(scope="session")
def one_walk_regular_corpus():
    """Named 1-walk-regular graphs with integral spectra (>= 15 of them)."""
    from uvcore import cayley_z2, hamming_h, q_kneser

    corpus = {
        "K2": complete(2),
        "K3": complete(3),
        "K4": complete(4),
        "K5": complete(5),
        "C4": cycle(4),
        "C6": cycle(6),
        "K33": complete_bipartite(3, 3),
        "cube": cube_graph(),
        "rook3": rook_graph(3),
        "petersen": petersen(),
        "kneser62": kneser(6, 2),
        "kneser72": kneser(7, 2),
        "kneser73": kneser(7, 3),
        "comp_petersen": complement(petersen()),
        "qkneser242": q_kneser(2, 4, 2),
        "hamming54": hamming_h(5, 4),
        "hamming64": hamming_h(6, 4),
        "hamming74": hamming_h(7, 4),
        "cayley42_even": None,  # placeholder replaced below
    }
    # even component of the distance-2 graph of the 4-cube, as its own graph
    full = cayley_z2(4, {2})
    even = sorted(v for v in range(16) if bin(v).count("1") % 2 == 0)
    relabel = {v: i for i, v in enumerate(even)}
    edges = [(relabel[i], relabel[j]) for i, j in full.edges()
             if i in relabel and j in relabel]
    corpus["cayley42_even"] = from_edges(len(even), edges)
    return corpus
