import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridwalk.errors import GraphParseError
from gridwalk.graph import (
    Graph,
    add_edge,
    complete_graph,
    cycle_graph,
    graph_to_json,
    parse_graph,
    remove_edge,
)


def test_complete_graph_degenerate():
    g = complete_graph(1)
    assert g.edges == frozenset({(1, 1)})


def test_complete_graph_three_nodes():
    g = complete_graph(3)
    assert g.edges == frozenset({(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)})


def test_complete_graph_six_nodes_edge_count():
    # n(n+1)/2 unordered pairs including the n self-loops
    assert len(complete_graph(6).edges) == 21


def test_complete_graph_rejects_zero():
    with pytest.raises(ValueError):
        complete_graph(0)


def test_remove_edge_counts():
    g = remove_edge(complete_graph(3), 1, 2)
    assert len(g.edges) == 5
    assert not g.has_edge(1, 2)
    assert not g.has_edge(2, 1)


def test_remove_self_loop():
    g = remove_edge(complete_graph(2), 1, 1)
    assert g.edges == frozenset({(2, 2), (1, 2)})


def test_remove_all_edges_one_by_one():
    g = complete_graph(2)
    for j, k in [(1, 1), (2, 2), (1, 2)]:
        g = remove_edge(g, j, k)
    assert g.edges == frozenset()


def test_remove_absent_edge_raises():
    with pytest.raises(KeyError):
        remove_edge(cycle_graph(4), 1, 3)


def test_present_complete_two():
    m = complete_graph(2)
    assert m.present.all()


def test_present_after_removal():
    m = remove_edge(complete_graph(2), 1, 2)
    assert m.present.tolist() == [[True, False], [False, True]]


def test_row_is_one_node_and_rejects_nodes_outside_the_graph():
    m = Graph(3, frozenset({(1, 2), (2, 3)}))
    assert m.row(1).tolist() == [False, True, False]
    assert m.row(3).tolist() == [False, True, False]
    for j in (0, -1, 4):
        with pytest.raises(ValueError, match=f"node {j} outside 1..3"):
            m.row(j)
        with pytest.raises(ValueError, match=f"node {j} outside 1..3"):
            m.degree(j)


def test_present_path_graph():
    g = Graph(3, frozenset({(1, 2), (2, 3)}))
    expected = np.zeros((3, 3), dtype=bool)
    expected[0, 1] = expected[1, 0] = True
    expected[1, 2] = expected[2, 1] = True
    assert np.array_equal(g.present, expected)
    assert not g.present.flags.writeable


def test_parse_edgelist():
    g = parse_graph("3\n1 2\n2 3")
    assert g.n == 3
    assert g.edges == frozenset({(1, 2), (2, 3)})


def test_parse_self_loop():
    g = parse_graph("2\n1 1")
    assert g.edges == frozenset({(1, 1)})


def test_parse_duplicates_collapse():
    g = parse_graph("3\n1 2\n2 1\n1 2")
    assert g.edges == frozenset({(1, 2)})


def test_parse_out_of_range_reports_line():
    with pytest.raises(GraphParseError) as err:
        parse_graph("2\n1 5")
    assert err.value.line == 2


def test_parse_malformed_line():
    with pytest.raises(GraphParseError) as err:
        parse_graph("2\n1 2 3")
    assert err.value.line == 2


def test_parse_comments_and_blanks():
    g = parse_graph("# a ring\n3\n\n1 2  # first\n2 3\n3 1\n")
    assert g.edges == frozenset({(1, 2), (2, 3), (1, 3)})


def test_parse_json_document():
    g = parse_graph('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    assert g.edges == frozenset({(1, 2), (2, 3)})


def test_parse_json_rejects_directed():
    with pytest.raises(GraphParseError):
        parse_graph('{"n": 2, "edges": [[1, 2]], "directed": true}')


@pytest.mark.parametrize("text", [
    '{"n": true, "edges": [[true, true]]}',
    '{"n": true, "edges": []}',
    '{"n": 2, "edges": [[1, true]]}',
    '{"n": 2, "edges": [[false, 2]]}',
])
def test_parse_json_rejects_booleans_as_integers(text):
    with pytest.raises(GraphParseError):
        parse_graph(text)


@pytest.mark.parametrize("edges", ["5", '"1 2"', '{"1": 2}'])
def test_parse_json_rejects_edges_that_are_no_list(edges):
    with pytest.raises(GraphParseError, match="'edges' must be a list"):
        parse_graph(f'{{"n": 2, "edges": {edges}}}')


def test_cycle_graph_degrees():
    g = cycle_graph(5)
    assert all(g.degree(j) == 2 for j in range(1, 6))


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=32))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    edges = draw(st.frozensets(pairs, max_size=40))
    return Graph(n, frozenset(edges))


@given(graphs())
def test_mask_symmetric(g):
    m = g.present
    assert np.array_equal(m, m.T)


def loop_mask(g):
    present = np.zeros((g.n, g.n), dtype=bool)
    for j, k in g.edges:
        present[j - 1, k - 1] = present[k - 1, j - 1] = True
    return present


@given(graphs())
def test_json_round_trip(g):
    assert Graph(g.n, g.edges) == g
    assert parse_graph(graph_to_json(g)) == g
    text = "\n".join([str(g.n)] + [f"{j} {k}" for j, k in sorted(g.edges)])
    assert parse_graph(text) == g
    assert np.array_equal(g.present, loop_mask(g))


@given(st.integers(min_value=1, max_value=64))
def test_complete_graph_edge_count(n):
    assert len(complete_graph(n).edges) == n * (n + 1) // 2


@given(graphs())
def test_remove_then_readd_restores(g):
    if not g.edges:
        return
    j, k = sorted(g.edges)[0]
    assert add_edge(remove_edge(g, j, k), j, k) == g


def test_graph_compares_and_hashes_by_value():
    a, b = cycle_graph(5), cycle_graph(5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != remove_edge(cycle_graph(5), 1, 2)
    assert a != cycle_graph(4) and a != a.present


@pytest.mark.parametrize("n", [True, False, 2.0, 0, -1, "3"])
def test_graph_rejects_a_node_count_that_is_no_positive_int(n):
    with pytest.raises(ValueError, match="node count"):
        Graph(n, frozenset())


@pytest.mark.parametrize("edges, reason", [
    ({(1.0, 2.0)}, "integers"),
    ({(1, 2.0)}, "integers"),
    ({(True, True)}, "integers"),
    ({(0, 1)}, "outside"),
    ({(1, 4)}, "outside"),
    ({(-1, 2)}, "outside"),
    ({(1, 2, 3)}, "pairs"),
])
def test_graph_rejects_endpoints_that_are_no_nodes(edges, reason):
    with pytest.raises(ValueError, match=reason):
        Graph(3, frozenset(edges))


def test_no_node_index_wraps_around():
    g = Graph(3, frozenset({(3, 3), (1, 3)}))
    assert g.has_edge(3, 3) and g.has_edge(3, 1)
    for j, k in [(0, 3), (3, 0), (0, 0), (-2, 1), (4, 3)]:
        assert not g.has_edge(j, k)
    with pytest.raises(KeyError):
        remove_edge(g, 0, 0)
    with pytest.raises(ValueError, match="outside"):
        add_edge(g, 0, 1)
