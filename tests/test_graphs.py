import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete, complete_bipartite, cycle, path_graph, petersen, rook_graph

from uvcore import (
    Graph,
    complement,
    components,
    distance_two_graph,
    from_edges,
    is_bipartite,
    is_complete_multipartite,
    is_connected,
    is_regular,
    is_spanning_subgraph,
    parse_graph6,
    srg_params,
    write_graph6,
)
from uvcore.errors import DimensionMismatch, MalformedGraph6
from uvcore.graphs import check_symmetric


def random_graph(n, seed):
    import random

    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# graph6 codec


def test_parse_single_vertex():
    g = parse_graph6(b"@")
    assert g.n == 1 and g.edge_count() == 0


def test_parse_k2():
    g = parse_graph6(b"A_")
    assert g.n == 2 and g.has_edge(0, 1)


def test_parse_k3():
    g = parse_graph6(b"Bw")
    assert g == complete(3)


def test_write_examples():
    assert write_graph6(complete(3)) == b"Bw"
    assert write_graph6(Graph(1, (0,))) == b"@"
    assert write_graph6(complete(2)) == b"A_"


def test_parse_rejects_bad_bytes():
    with pytest.raises(MalformedGraph6):
        parse_graph6(b"B\x1f")
    with pytest.raises(MalformedGraph6):
        parse_graph6(b"")
    with pytest.raises(MalformedGraph6):
        parse_graph6(b"Bw?")  # wrong length
    with pytest.raises(MalformedGraph6):
        parse_graph6(b"B")  # truncated body


def test_parse_rejects_non_ascii_text():
    # "D?c" is a 5-vertex graph; "Déc" must not be read as it
    for text in ("D\u00e9c", "D\udcc3\udca9c"):
        with pytest.raises(MalformedGraph6, match="offset 1"):
            parse_graph6(text)


def test_parse_rejects_nonzero_padding():
    # K_2 with a stray bit in the padding region
    bad = bytes([65, 63 + 0b110000])
    with pytest.raises(MalformedGraph6):
        parse_graph6(bad)


def test_long_form_roundtrip():
    g = from_edges(100, [(0, 1), (70, 99), (3, 64)])
    enc = write_graph6(g)
    assert enc[0] == 126
    assert parse_graph6(enc) == g


def test_header_accepted():
    assert parse_graph6(b">>graph6<<Bw") == complete(3)


def test_oversize_and_noncanonical_records_rejected():
    with pytest.raises(MalformedGraph6):
        parse_graph6(bytes([126, 126, 63, 63, 63, 63, 63, 63]))  # n > 258047 form
    # long form used for a small n must be rejected as non-canonical
    with pytest.raises(MalformedGraph6):
        parse_graph6(bytes([126, 63, 63, 63 + 3]) + b"w")
    big = Graph(258048, (0,) * 258048)
    with pytest.raises(MalformedGraph6):
        write_graph6(big)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 64))
def test_roundtrip_random(seed, n):
    g = random_graph(n, seed)
    assert parse_graph6(write_graph6(g)) == g


# ---------------------------------------------------------------------------
# complement / distances


def test_complement_examples():
    assert complement(complete(3)).edge_count() == 0
    for n in (2, 5, 7):
        empty = Graph(n, (0,) * n)
        assert complement(empty) == complete(n)
    cc5 = complement(cycle(5))
    assert cc5.n == 5 and cc5.edge_count() == 5 and is_regular(cc5) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 40))
def test_complement_involution(seed, n):
    g = random_graph(n, seed)
    assert complement(complement(g)) == g


def test_distance_two_examples():
    d2 = distance_two_graph(path_graph(3))
    assert d2.edge_count() == 1 and d2.has_edge(0, 2)
    assert distance_two_graph(complete(5)).edge_count() == 0
    dc5 = distance_two_graph(cycle(5))
    assert is_regular(dc5) == 2 and dc5.edge_count() == 5


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 30))
def test_distance_two_disjoint_from_edges(seed, n):
    g = random_graph(n, seed)
    d2 = distance_two_graph(g)
    for i in range(n):
        assert d2.rows[i] & g.rows[i] == 0


# ---------------------------------------------------------------------------
# predicates


def test_predicates_examples():
    k33 = complete_bipartite(3, 3)
    assert is_bipartite(k33) and is_complete_multipartite(k33)
    c5 = cycle(5)
    assert not is_bipartite(c5)
    assert not is_complete_multipartite(c5)
    assert is_regular(c5) == 2
    p = petersen()
    assert is_connected(p) and is_regular(p) == 3


def test_components():
    g = from_edges(5, [(0, 1), (2, 3)])
    assert components(g) == [[0, 1], [2, 3], [4]]
    assert not is_connected(g)


def test_complete_multipartite_cases():
    assert is_complete_multipartite(complete(4))
    assert is_complete_multipartite(complete_bipartite(2, 5))
    # K_{2,2,2} = octahedron
    octa = complement(from_edges(6, [(0, 1), (2, 3), (4, 5)]))
    assert is_complete_multipartite(octa)
    assert not is_complete_multipartite(petersen())


def test_srg_params_examples():
    assert srg_params(petersen()) == (10, 3, 0, 1)
    assert srg_params(rook_graph(3)) == (9, 4, 1, 2)
    assert srg_params(path_graph(3)) is None
    assert srg_params(complete(5)) is None  # conventionally excluded
    assert srg_params(cycle(5)) == (5, 2, 0, 1)


def test_srg_implies_regular():
    for g in (petersen(), rook_graph(3), cycle(5)):
        params = srg_params(g)
        if params is not None:
            v, k, _, _ = params
            assert v == g.n and is_regular(g) == k


def test_spanning_subgraph():
    assert is_spanning_subgraph(cycle(5), complete(5))
    assert not is_spanning_subgraph(complete(5), cycle(5))
    with pytest.raises(DimensionMismatch):
        is_spanning_subgraph(cycle(5), complete(6))


def test_spanning_subgraph_hamming():
    from uvcore import hamming_h, hamming_h_prime

    assert is_spanning_subgraph(hamming_h(6, 4), hamming_h_prime(6, 4))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # loop at vertex 0
    with pytest.raises(ValueError):
        Graph(1, (2,))  # bit out of range
    g = random_graph(17, 3)
    assert check_symmetric(g)
