"""Triple parsing and graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import dense_adjacency, expand
from akgp.kg import (
    TripleParseError,
    build_graph,
    load_triples,
    parse_triples,
    save_triples,
    serialize_triples,
    subgraph_stats,
)
from akgp.rng import Rng


def test_parse_single_triple():
    assert parse_triples("cat\tis_a\tanimal") == [("cat", "is_a", "animal")]


def test_parse_skips_comments_and_trims():
    text = "# comment\n\n a\tr\tb \n"
    assert parse_triples(text) == [("a", "r", "b")]


def test_parse_reports_offending_line():
    text = "a\tr\tb\nbad line without tabs\nc\tr\td\n"
    with pytest.raises(TripleParseError) as exc:
        parse_triples(text)
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)


def test_parse_rejects_empty_field():
    with pytest.raises(TripleParseError):
        parse_triples("a\t\tb")


def test_serialize_round_trip():
    triples = [("a", "r", "b"), ("b", "s", "c"), ("a", "r", "b")]
    assert parse_triples(serialize_triples(triples)) == triples


# every character str.splitlines breaks on that a text-mode file read keeps
# inside a line
LINE_INNER = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", LINE_INNER)
def test_parse_splits_lines_as_a_file_read_does(tmp_path, char):
    triples = [(f"a{char}b", "r", "c"), ("d", f"s{char}t", "e")]
    text = serialize_triples(triples)
    assert parse_triples(text) == triples
    save_triples(tmp_path / "kg.tsv", triples)
    assert load_triples(tmp_path / "kg.tsv") == triples


@pytest.mark.parametrize("text, expected", [
    ("a\tr\tb\nx\ty\n", "line 2: expected 3 tab-separated fields, got 2"),
    ("a\tr\tb\nw\tx\ty\tz\n", "line 2: expected 3 tab-separated fields, got 4"),
    ("a\tr\t \n", "line 1: expected 3 tab-separated fields, got 2"),  # the line is stripped
    ("\n# c\na\t\tb\n", "line 3: empty field"),
    ("a\t \tb\n", "line 1: empty field"),
    ("a\tr\tb\r\nc\ts\r\n", "line 2: expected 3 tab-separated fields, got 2"),
    ("a\tr\tb\rc\ts\r", "line 2: expected 3 tab-separated fields, got 2"),
])
def test_parse_error_messages(tmp_path, text, expected):
    with pytest.raises(TripleParseError) as exc:
        parse_triples(text)
    assert str(exc.value) == expected
    path = tmp_path / "kg.tsv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(TripleParseError) as exc:
        load_triples(path)
    assert str(exc.value) == f"{path}: {expected}"
    assert exc.value.line_no == int(expected.split(":")[0].split()[1])


@pytest.mark.parametrize("text", [
    "a\tr\tb\r\nc\ts\td\r\n",
    "a\tr\tb\rc\ts\td",
    "   # a comment with leading spaces\n\t# and a tab\na\tr\tb\n \t \nc\ts\td\n",
    " a \t r\t b \nc\ts\td",
])
def test_parse_skips_comments_and_blank_lines_and_strips_fields(tmp_path, text):
    expected = [("a", "r", "b"), ("c", "s", "d")]
    assert parse_triples(text) == expected
    path = tmp_path / "kg.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert load_triples(path) == expected


def test_non_utf8_triples_name_the_file(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_bytes(b"a\tr\tb\n\xff\n")
    with pytest.raises(TripleParseError) as exc:
        load_triples(path)
    assert exc.value.line_no is None
    assert str(exc.value) == (f"{path}: not UTF-8 text: 'utf-8' codec can't decode "
                              "byte 0xff in position 6: invalid start byte")


def test_build_graph_two_nodes():
    triples = [("a", "r", "b")]
    g = build_graph(triples)
    assert g.node_ids == ["a", "b"]
    adjacency = expand(g.adjacency)
    assert np.array_equal(adjacency, dense_adjacency(triples, g.node_index))
    assert np.allclose(adjacency, [[0.5, 0.5], [0.5, 0.5]])


def test_build_graph_self_loop_only():
    triples = [("a", "r", "a")]
    g = build_graph(triples)
    assert dense_adjacency(triples, g.node_index).tolist() == [[1.0]]
    assert expand(g.adjacency).tolist() == [[1.0]]


def test_duplicate_edges_collapse():
    g1 = build_graph([("a", "r", "b")])
    triples = [("a", "r", "b"), ("a", "s", "b")]
    g2 = build_graph(triples)
    assert np.array_equal(expand(g2.adjacency), dense_adjacency(triples, g2.node_index))
    assert np.array_equal(expand(g1.adjacency), expand(g2.adjacency))


def test_rows_sum_to_one():
    triples = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a"), ("a", "r", "d")]
    g = build_graph(triples)
    adjacency = expand(g.adjacency)
    assert np.array_equal(adjacency, dense_adjacency(triples, g.node_index))
    assert np.allclose(adjacency.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40))
def test_csr_matches_dense_oracle(pairs):
    # a small name pool makes duplicates, self-loops and both directions common
    triples = [(f"n{h}", "r", f"n{t}") for h, t in pairs]
    g = build_graph(triples)
    first_seen = list(dict.fromkeys(name for h, _, t in triples for name in (h, t)))
    assert g.node_ids == first_seen
    oracle = dense_adjacency(triples, g.node_index)
    assert np.array_equal(expand(g.adjacency), oracle)
    assert np.array_equal(expand(g.adjacency).T, oracle.T)
    for i in range(g.n_nodes):  # row-sorted: strictly ascending columns per row
        row = g.adjacency.indices[g.adjacency.indptr[i]:g.adjacency.indptr[i + 1]]
        assert np.all(np.diff(row) > 0)


def test_node_order_deterministic():
    triples = [("x", "r", "y"), ("z", "r", "x")]
    g1 = build_graph(triples)
    g2 = build_graph(triples)
    assert g1.node_ids == g2.node_ids == ["x", "y", "z"]


def test_empty_triples_rejected():
    with pytest.raises(ValueError):
        build_graph([])


def test_stats_single_edge():
    g = build_graph([("a", "r", "b")])
    stats = subgraph_stats(g)
    assert stats["n_nodes"] == 2
    assert stats["n_edges"] == 1


def test_stats_triangle_histogram():
    g = build_graph([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
    assert subgraph_stats(g)["degree_histogram"] == {2: 3}


def test_stats_edge_count_matches_set_oracle():
    rng = Rng(42)
    names = [f"n{i}" for i in range(30)]
    triples = []
    for _ in range(100):
        h = names[rng.randrange(30)]
        t = names[rng.randrange(30)]
        triples.append((h, "rel", t))
    g = build_graph(triples)

    oracle = set()
    for h, _, t in triples:
        i, j = g.node_index[h], g.node_index[t]
        if i != j:
            oracle.add((min(i, j), max(i, j)))
    assert subgraph_stats(g)["n_edges"] == len(oracle)
