import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gridwalk import graph
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


def parse_outcome(parse, text):
    """The graph a parser returns, or the type, message and line of what it raises."""
    try:
        return parse(text)
    except (GraphParseError, ValueError) as e:
        return type(e), str(e), getattr(e, "line", None)


def rarely(common, rare, one_in=8):
    """``rare`` once in ``one_in`` draws, else ``common``."""
    return st.integers(1, one_in).flatmap(lambda i: rare if i == one_in else common)


@st.composite
def edge_list_documents(draw):
    """Edge-list text, mostly plain "j k" lines, with every trait that rules out the vectorized path."""
    n = draw(st.integers(1, 5))
    number = rarely(st.integers(1, n).map(str), st.sampled_from([
        "0", str(n + 1), "007", "+3", "1_000", "\u0663", "\uff12", "9" * 18, "1" + "0" * 18]), 16)
    blank = rarely(st.sampled_from(["", " ", "\t "]), st.sampled_from(["\x0c", "\u00a0", "# a comment"]), 4)
    gap = rarely(st.just(" "), st.sampled_from(["\t", "  "]))
    margin = rarely(st.just(""), st.sampled_from([" ", "\t"]))
    comment = rarely(st.just(""), st.just(" # note"), 24)

    def line(fields):
        tokens = draw(fields)
        text = tokens[0] if tokens else ""
        for token in tokens[1:]:
            text += draw(gap) + token
        return draw(margin) + text + draw(margin) + draw(comment)

    header = rarely(st.just([str(n)]), st.lists(number, max_size=2))
    body = rarely(st.tuples(number, number).map(list), st.lists(number, max_size=3))
    lines = draw(rarely(st.just([]), st.lists(blank, max_size=2)))
    if draw(st.integers(0, 9)):  # one in ten documents is blank lines alone
        lines.append(line(header))
        lines += [line(body) if draw(st.integers(0, 7)) else draw(blank)
                  for _ in range(draw(st.integers(0, 6)))]
    end = draw(rarely(st.just("\n"), st.just("\r\n")))
    return end.join(lines) + draw(st.sampled_from(["", end]))


# documents that every property over edge_list_documents() also tries
EDGE_LIST_EXAMPLES = [
    "\n  # ring\n3\n\n1 2  # first\n \t\n2 3\n3 1\n",
    "4",
    "4\r\n1 2\r\n",
    "4\n+3 1\n",
    "4\n1_000 1\n",
    "1_000\n1 2\n",
    "4\n\u0663 1\n",
    "4\n1 " + "1" * 19 + "\n",
    "4\n1 " + "0" * 18 + "2\n",
    "4\n1 2\n3\n",
    "4\n1 2 3\n",
    "4\n0 1\n",
    "4\n1 5\n",
    "4\n1 2\n2 1\n1 2\n4 4\n",
]


def with_edge_list_examples(test):
    for text in EDGE_LIST_EXAMPLES:
        test = example(text)(test)
    return test


@settings(max_examples=400)
@given(edge_list_documents())
@with_edge_list_examples
def test_the_vectorized_edge_list_path_agrees_with_the_line_loop(text):
    assert parse_outcome(parse_graph, text) == parse_outcome(graph._parse_edgelist_lines, text)


@settings(max_examples=400)
@given(edge_list_documents())
@with_edge_list_examples
@example("4\n1 2\n\t3\t 4 \n \n")
@example("4\n" + "1" * 17 + " 1\n" + "1" * 18 + " 1")
@example("4\n1 2\n\n")
def test_the_body_match_admits_what_the_line_search_admits(text):
    header = graph._PLAIN_HEADER.match(text)
    start = header.end() if header else 0  # a document without a header still tries the grammar
    admitted = graph._PLAIN_BODY.fullmatch(text, start) is not None
    assert admitted == (oracles.NOT_PLAIN_LINE.search(text, start) is None)


@pytest.mark.parametrize("text, plain", [
    ("3\n1 2\n2 3", True), ("\n \t\n 3 \n\n1\t2\n  3   3  \n", True), ("3\n", True), ("3", True),
    ("3\n \n", True), ("1\n000000000000000001 1\n", True),
    ("", False), ("\n \n", False), ("# c\n3\n1 2", False), ("3\n1 2 # c", False),
    ("3\r\n1 2", False), ("3\n+1 2", False), ("3\n1_0 2", False), ("3\n\u0661 2", False),
    ("3\n1 " + "0" * 18 + "2", False), ("3\n1", False), ("3\n1 2 3", False), ("3\n0 1", False),
    ("3\n1 4", False), ("0\n", False), ("3 1\n1 2", False), ("3\n1 2\x0c", False),
    ("3\n1\u00a02", False),
])
def test_only_plain_edge_lists_take_the_vectorized_path(text, plain):
    g = graph._parse_plain_edgelist(text)
    assert (g is not None) == plain
    if plain:
        assert g == graph._parse_edgelist_lines(text)


def complete_edge_list(n):
    return f"{n}\n" + "".join(f"{j} {k}\n" for j in range(1, n + 1) for k in range(j, n + 1))


def traced_peak(call):
    """``call()`` and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_parsing_a_complete_256_node_edge_list_holds_little_memory():
    n = 256
    text = complete_edge_list(n)
    g, peak = traced_peak(lambda: parse_graph(text))
    assert g == complete_graph(n)
    # the text is 0.23 MiB and its endpoints as int64 0.25 MiB; a loop over the
    # 32 897 lines, or a regular expression that backtracks over them, holds many MiB
    assert peak < 2 * 2**20
    # the 512-node list is 0.95 MiB, and its body is admitted by one match that
    # keeps no state across its 131 328 lines
    text = complete_edge_list(512)
    start = graph._PLAIN_HEADER.match(text).end()
    match, peak = traced_peak(lambda: graph._PLAIN_BODY.fullmatch(text, start))
    assert match is not None and match.end() == len(text)
    assert peak < 2 * 2**20
    # the whole parse reads the text once, with no copy of its body: its 262 656
    # endpoints as int64 are 2.0 MiB, grown by reallocation, and the graph's own arrays
    g, peak = traced_peak(lambda: parse_graph(text))
    assert g == complete_graph(512)
    assert peak < 5 * 2**20


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


@pytest.mark.parametrize("text", ["100000000\n1 2\n", "100000000\n# big\n1 2\n", "1" * 18 + "\n"])
def test_a_node_count_too_large_to_hold_is_a_value_error_naming_it(text):
    n = int(text.split()[0])
    with pytest.raises(ValueError, match=f"graph on {n} nodes needs a {n * n}-byte presence matrix"):
        parse_graph(text)


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
