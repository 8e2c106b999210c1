"""Graph value type, graph6 codec, and structural predicates.

A Graph stores its adjacency as one Python int bitmask per vertex
(bit j of rows[i] set iff i ~ j), which keeps complements, BFS and
common-neighbor counts cheap at the scales this package targets.
Vertices are dense indices 0..n-1. Edges are (i, j) tuples with i < j.
"""

from dataclasses import dataclass

from .errors import DimensionMismatch, MalformedGraph6


@dataclass(frozen=True)
class Graph:
    n: int
    rows: tuple

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError("row count must equal vertex count")
        for i, r in enumerate(self.rows):
            if r >> self.n:
                raise ValueError("adjacency bits out of range")
            if (r >> i) & 1:
                raise ValueError("loops are not allowed")

    def has_edge(self, i, j):
        return (self.rows[i] >> j) & 1 == 1

    def degree(self, i):
        return self.rows[i].bit_count()

    def neighbors(self, i):
        m = self.rows[i]
        while m:
            b = m & -m
            yield b.bit_length() - 1
            m ^= b

    def edges(self):
        """Edges (i, j) with i < j in lexicographic order."""
        for i in range(self.n):
            m = self.rows[i] >> (i + 1)
            j = i + 1
            while m:
                if m & 1:
                    yield (i, j)
                m >>= 1
                j += 1

    def edge_count(self):
        return sum(r.bit_count() for r in self.rows) // 2

    def adjacency(self):
        """Adjacency matrix as a list of 0/1 rows."""
        return [
            [(self.rows[i] >> j) & 1 for j in range(self.n)]
            for i in range(self.n)
        ]


def from_edges(n, edges):
    """Build a Graph from an edge list; ignores duplicates, rejects loops."""
    rows = [0] * n
    for i, j in edges:
        if i == j:
            raise ValueError("loops are not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("vertex out of range")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def check_symmetric(g):
    """Full O(n^2) symmetry audit; builders already guarantee it."""
    for i in range(g.n):
        for j in range(g.n):
            if g.has_edge(i, j) != g.has_edge(j, i):
                return False
    return True


# ---------------------------------------------------------------------------
# graph6 codec

_G6_MAX_N = 258047


def parse_graph6(data):
    """Decode one graph6 record (bytes or str), whitespace-stripped."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise MalformedGraph6("non-ASCII character at offset %d" % exc.start)
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise MalformedGraph6("empty record")
    for b in data:
        if not 63 <= b <= 126:
            raise MalformedGraph6("byte %d out of graph6 range" % b)
    if data[0] == 126:
        if len(data) < 4:
            raise MalformedGraph6("truncated vertex count")
        if data[1] == 126:
            raise MalformedGraph6("graphs with more than %d vertices are not supported" % _G6_MAX_N)
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise MalformedGraph6("non-canonical long form for n <= 62")
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise MalformedGraph6(
            "expected %d adjacency bytes for n=%d, got %d" % (nbytes, n, len(body))
        )
    rows = [0] * n
    # column-major upper triangle: x(0,1), x(0,2), x(1,2), x(0,3), ...
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[bit // 6]
            if (byte - 63) >> (5 - bit % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    # padding bits must be zero
    if nbits % 6:
        tail = body[-1] - 63
        if tail & ((1 << (6 - nbits % 6)) - 1):
            raise MalformedGraph6("nonzero padding bits")
    return Graph(n, tuple(rows))


def write_graph6(g):
    """Encode a Graph as one graph6 record (bytes, no trailing newline)."""
    n = g.n
    if n > _G6_MAX_N:
        raise MalformedGraph6("graphs with more than %d vertices are not supported" % _G6_MAX_N)
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    out = bytearray(head)
    acc = 0
    nb = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((g.rows[i] >> j) & 1)
            nb += 1
            if nb == 6:
                out.append(acc + 63)
                acc = 0
                nb = 0
    if nb:
        out.append((acc << (6 - nb)) + 63)
    return bytes(out)


# ---------------------------------------------------------------------------
# structural operations


def complement(g):
    full = (1 << g.n) - 1
    rows = tuple((full ^ g.rows[i]) & ~(1 << i) for i in range(g.n))
    return Graph(g.n, rows)


def distance_two_graph(g):
    """Graph on the same vertices joining exactly the distance-2 pairs."""
    rows = []
    for i in range(g.n):
        reach = 0
        m = g.rows[i]
        while m:
            b = m & -m
            reach |= g.rows[b.bit_length() - 1]
            m ^= b
        rows.append(reach & ~g.rows[i] & ~(1 << i))
    return Graph(g.n, tuple(rows))


def components(g):
    """Vertex sets of connected components, each sorted, in order of minima."""
    seen = 0
    out = []
    for s in range(g.n):
        if (seen >> s) & 1:
            continue
        comp = 1 << s
        frontier = 1 << s
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= g.rows[b.bit_length() - 1]
                m ^= b
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        verts = []
        m = comp
        while m:
            b = m & -m
            verts.append(b.bit_length() - 1)
            m ^= b
        out.append(verts)
    return out


def is_connected(g):
    if g.n == 0:
        return True
    return len(components(g)) == 1


def is_bipartite(g):
    color = [None] * g.n
    for s in range(g.n):
        if color[s] is not None:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if color[v] is None:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def is_regular(g):
    """Common degree if g is regular, else None."""
    if g.n == 0:
        return None
    k = g.degree(0)
    for i in range(1, g.n):
        if g.degree(i) != k:
            return None
    return k


def is_complete_multipartite(g):
    """True iff non-adjacency (plus identity) is an equivalence relation.

    Equivalently: every component of the complement is a clique.
    """
    comp = complement(g)
    for part in components(comp):
        want = 0
        for v in part:
            want |= 1 << v
        for v in part:
            if (comp.rows[v] | (1 << v)) & want != want:
                return False
    return True


def srg_params(g):
    """(v, k, a, c) if g is strongly regular, else None.

    Follows the usual convention that complete and empty graphs are not
    strongly regular (both parameter counts must be witnessed).
    """
    k = is_regular(g)
    if k is None:
        return None
    a = c = None
    for i in range(g.n):
        ri = g.rows[i]
        for j in range(i + 1, g.n):
            common = (ri & g.rows[j]).bit_count()
            if (ri >> j) & 1:
                if a is None:
                    a = common
                elif a != common:
                    return None
            else:
                if c is None:
                    c = common
                elif c != common:
                    return None
    if a is None or c is None:
        return None
    return (g.n, k, a, c)


def is_spanning_subgraph(h, g):
    """True iff every edge of h is an edge of g (same vertex labels)."""
    if h.n != g.n:
        raise DimensionMismatch("vertex counts differ: %d vs %d" % (h.n, g.n))
    return all(h.rows[i] & ~g.rows[i] == 0 for i in range(h.n))
