import os
import stat
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wormnet import graph
from wormnet.graph import (
    MAX_NODES,
    EdgeError,
    Graph,
    ParseError,
    _content_lines,
    format_field,
    int64_array,
    read_degree_histogram,
    read_edge_list,
    read_table,
    table_text,
    write_edge_list,
    write_text,
)
from wormnet.netgen import build_configuration_model


def _read_edge_list_oracle(path):
    """The per-line edge-list rules, one line at a time: ``(n, directed,
    edges)``, or ``ParseError`` whose message is the word its rule is matched by."""
    directed = count = None
    edges, seen = [], set()
    for lineno, text in _content_lines(path):
        if directed is None:
            kind, *count = text.split()
            if kind not in ("directed", "undirected") or count[1:] or not all(
                    map(str.isdecimal, count)):
                raise ParseError(path, lineno, "directed")
            directed, count = kind == "directed", int(count[0]) if count else None
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, "expected")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, lineno, "non-integer") from None
        if not -2**63 <= min(u, v) <= max(u, v) < 2**63:
            raise ParseError(path, lineno, "int64 range")
        if u < 0 or v < 0:
            raise ParseError(path, lineno, "negative")
        if not directed and u > v:
            raise ParseError(path, lineno, "u < v")
        if count is not None and max(u, v) >= count:
            raise ParseError(path, lineno, "out of range")
        if u == v:
            raise ParseError(path, lineno, "self-loop")
        if (u, v) in seen:
            raise ParseError(path, lineno, "duplicate")
        seen.add((u, v))
        edges.append((u, v))
    if directed is None:
        raise ParseError(path, 1, "header")
    n = count if count is not None else 1 + max((max(e) for e in edges), default=-1)
    return n, directed, sorted(edges)


def _read_degree_histogram_oracle(path):
    """The per-line histogram rules, one line at a time, as above."""
    counts = {}
    for lineno, text in _content_lines(path):
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, "expected")
        try:
            k, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, lineno, "non-integer") from None
        if not -2**63 <= min(k, c) <= max(k, c) < 2**63:
            raise ParseError(path, lineno, "int64 range")
        if k < 0 or c < 0:
            raise ParseError(path, lineno, "negative")
        if k in counts:
            raise ParseError(path, lineno, "duplicate degree")
        if sum(counts.values()) + c > MAX_NODES:
            raise ParseError(path, lineno, "counts sum past")
        counts[k] = c
    return counts


def _oracle_outcome(oracle, path):
    try:
        return "ok", oracle(path)
    except ParseError as err:
        return "error", (err.lineno, str(err).rsplit(": ", 1)[1])


def _assert_agrees_with_oracle(tmp_path, content, oracle, read, view):
    """``read`` gives ``oracle``'s result, seen through ``view``, or fails at its line
    and with its word, and warns of nothing.  ``content`` is written as UTF-8 bytes,
    line ends untouched."""
    p = tmp_path / "f"
    p.write_bytes(content.encode("utf-8"))
    kind, expected = _oracle_outcome(oracle, p)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if kind == "ok":
            assert view(read(p)) == view(expected)
        else:
            lineno, word = expected
            with pytest.raises(ParseError, match=word) as err:
                read(p)
            assert err.value.lineno == lineno
    assert [str(w.message) for w in caught] == []


def _graph_view(g):
    if isinstance(g, Graph):
        return g.n, g.directed, g.edge_array.tolist()
    n, directed, edges = g
    return n, directed, [list(e) for e in edges]


def _sequence_view(d):
    """A degree sequence, or the sorted sequence of a {k: count} dict."""
    if isinstance(d, dict):
        return [k for k in sorted(d) for _ in range(d[k])]
    return d.tolist()


# Inputs whose tokens, separators, line ends or layout numpy's bulk parse and
# Python's int() might read differently.
_TOKEN_CASES = [
    "{h}\n+1 2\n", "{h}\n1_0 2\n", "{h}\n\uff11 2\n", "{h}\n007 010\n", "{h}\n-0 1\n",
    "{h}\n0 9223372036854775808\n", "{h}\n0 99999999999999999999\n",
    "{h}\n1 2\n-9223372036854775809 1\n", "{h}\n0 1\n99999999999999999999 x\n",
    "{h}\n0\t1\n1 \t 2\n", "{h}\n0\xa01\n\xa0\n1\x0b2\n", "{h}\n0\x0c1\n2\u30003\n",
    "{h}\r\n0 1\r\n1 2\r\n", "{h}\r\n0 1\r\n1 x\r\n", "{h}\r0 1\r2 1\r",
    "{h}\r0 1\r\n\r1 1\n", "{h}\n0 1\n1 2", "{h}\n0 1\n1 1", "{h}\n", "{h}",
    "{h}\n# only a comment\n\n", "# first\n\n{h}\n0 1\n", "# first\n{h}\n0 1\n2 x\n",
    "{h}\n0 1\n1 2 # c\n\n# c\n1 0\n", "{h}\n0 1\n5\n", "{h}\n0 1 2\n3 4 5\n",
    "{h}\n1.0 2\n", "{h}\n0 1\x85 2 3\n", "{h}\n0 1\n1 2\x00\n",
]


# Lines that break one rule each, or none (comments, blanks, padded ids).
_FAULTS = ["0 x", "7", "1 2 3", "-1 2", "2 -1", "3 3", "5 2", "2 5", "# note", "", "+4 06 # c"]


@st.composite
def _edge_files(draw):
    directed = draw(st.booleans())
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          unique=True, max_size=15))
    lines = [f"{u} {v}" for u, v in pairs if u != v and (directed or u < v)]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(lines)))
        extra = _FAULTS + lines[:3] + [" ".join(line.split()[::-1]) for line in lines[:3]]
        lines.insert(pos, draw(st.sampled_from(extra)))
    header = draw(st.sampled_from(["directed" if directed else "undirected", "nonsense", None]))
    return "\n".join(([header] if header is not None else []) + lines) + "\n"


@st.composite
def _simple_graphs(draw):
    core = draw(st.integers(0, 10))
    n = core + draw(st.integers(0, 3))  # trailing isolated nodes
    directed = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.integers(0, max(core - 1, 0)),
                                    st.integers(0, max(core - 1, 0))), max_size=30))
    edges = {(u, v) if directed else (min(u, v), max(u, v)) for u, v in pairs if u != v}
    return Graph(n, directed, sorted(edges))


def _assert_agrees_with_per_edge_oracle(n, directed, pairs):
    """``Graph(n, directed, pairs)`` keeps the pairs a per-edge walk keeps, or
    names the first pair it fails on, with its index and its rule."""
    seen, expected = set(), None
    for i, (a, b) in enumerate(pairs):
        key = (a, b) if directed else (min(a, b), max(a, b))
        why = ("out of range" if not (0 <= a < n and 0 <= b < n) else
               "self-loop" if a == b else "duplicate" if key in seen else None)
        if why:
            expected = (i, why)
            break
        seen.add(key)
    if expected is None:
        assert Graph(n, directed, pairs).edge_array.tolist() == [list(e) for e in sorted(seen)]
        return
    with pytest.raises(EdgeError, match=expected[1]) as err:
        Graph(n, directed, pairs)
    assert err.value.index == expected[0]
    assert str(err.value).startswith(f"edge {pairs[expected[0]][0]} {pairs[expected[0]][1]}: ")


class TestGraph:
    def test_undirected_edges_canonicalized(self):
        g = Graph(4, False, [(2, 1), (0, 3)])
        assert g.edge_array.tolist() == [[0, 3], [1, 2]]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, True, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, False, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, False, [(0, 5)])

    def test_degrees_undirected(self):
        g = Graph(4, False, [(0, 1), (1, 2), (2, 3)])
        assert g.degrees().tolist() == [1, 2, 2, 1]

    def test_degrees_directed_kinds(self):
        g = Graph(3, True, [(0, 1), (0, 2), (2, 0)])
        assert g.degrees("out").tolist() == [2, 0, 1]
        assert g.degrees("in").tolist() == [1, 1, 1]
        assert g.degrees("total").tolist() == [3, 1, 2]
        with pytest.raises(ValueError, match="unknown degree kind 'bogus'"):
            g.degrees("bogus")

    @pytest.mark.parametrize("edges", [np.array([[0, 1, 2]]), np.array([0, 1]), [(0, 1, 2)]])
    def test_edges_must_be_pairs(self, edges):
        with pytest.raises(ValueError, match="edges must be pairs, got an array of shape"):
            Graph(3, False, edges)

    def test_empty_graph(self):
        g = Graph(0, False, [])
        assert g.num_edges == 0
        assert g.degrees().tolist() == []

    def test_negative_node_count(self):
        with pytest.raises(ValueError, match="node count must be >= 0"):
            Graph(-1, False, [])


    def test_first_bad_edge_in_input_order_is_named_with_its_index(self):
        with pytest.raises(EdgeError, match="edge 2 3: duplicate") as err:
            Graph(4, False, [(0, 1), (3, 2), (2, 3), (1, 1)])
        assert err.value.index == 2
        with pytest.raises(EdgeError, match="edge 0 -1: negative node id out of range") as err:
            Graph(4, True, [(0, -1), (2, 2)])
        assert err.value.index == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.booleans(),
           st.lists(st.tuples(*[st.one_of(st.integers(-2, 8), st.sampled_from(
               [-2**63, -2**62, 2**62, 2**63 - 1]))] * 2), max_size=12))
    # sorted rows: ids whose packed keys u * n + v would overflow, adjacent
    # duplicates, a directed self-loop, and an out-of-range last row
    @example(6, True, [(0, 1), (1, 2**62)])
    @example(6, False, [(-2**63, 0), (0, 1)])
    @example(6, True, [(2**62, 2**62 + 1), (2**62 + 1, 2**62 + 2)])
    @example(6, False, [(0, 1), (0, 1)])
    @example(6, True, [(0, 1), (2, 2), (3, 4)])
    @example(6, False, [(0, 1), (1, 2), (5, 6)])
    def test_agrees_with_a_per_edge_oracle(self, n, directed, pairs):
        # each list as drawn, and in canonical sorted order, the order that skips the sort
        canonical = sorted((a, b) if directed else (min(a, b), max(a, b)) for a, b in pairs)
        for rows in (pairs, canonical):
            _assert_agrees_with_per_edge_oracle(n, directed, rows)

    def test_node_count_limit_of_the_packed_sort(self):
        big = MAX_NODES
        assert (big + 2) ** 2 <= 2**63 < (big + 3) ** 2
        g = Graph(big, False, [(big - 1, big - 2), (0, big - 1), (big - 2, 0)])
        assert g.edge_array.tolist() == [[0, big - 2], [0, big - 1], [big - 2, big - 1]]
        with pytest.raises(EdgeError, match="duplicate") as err:
            Graph(big, True, [(big - 1, big - 2), (big - 2, big - 1), (big - 1, big - 2)])
        assert err.value.index == 2
        with pytest.raises(EdgeError, match="out of range") as err:
            Graph(big, True, [(0, 1), (big, 0)])
        assert err.value.index == 1
        with pytest.raises(ValueError, match=f"node count {big + 1} exceeds {big}"):
            Graph(big + 1, False, [])

    def test_input_array_is_left_unsorted(self):
        arr = np.array([[3, 1], [0, 2], [1, 0]])
        g = Graph(4, False, arr)
        assert arr.tolist() == [[3, 1], [0, 2], [1, 0]]
        assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 3]]

    @pytest.mark.parametrize("directed", [False, True])
    def test_sorted_input_array_is_copied(self, directed):
        arr = np.array([[0, 1], [0, 2], [1, 3]])
        g = Graph(4, directed, arr)
        assert arr.flags.writeable and not np.shares_memory(arr, g.edge_array)
        arr[0] = [2, 3]
        assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 3]]

    def test_edges_and_adjacency_are_read_only(self):
        g = Graph(3, False, [(0, 1), (1, 2)])
        indptr, targets = g.out_adjacency
        for arr in (g.edge_array, indptr, targets):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2
        assert g == Graph(3, False, [(0, 1), (1, 2)])

    @settings(max_examples=200, deadline=None)
    @given(_simple_graphs())
    @example(Graph(0, True, []))
    @example(Graph(0, False, []))
    @example(Graph(1, True, []))
    @example(Graph(1, False, []))
    def test_in_adjacency_is_the_out_adjacency_of_the_reversal(self, g):
        reversal = Graph(g.n, True, g.edge_array[:, ::-1]) if g.directed else g
        for mine, theirs in zip(g.in_adjacency, reversal.out_adjacency):
            assert mine is theirs or g.directed
            assert mine.tolist() == theirs.tolist()
            for array in (mine, theirs):
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 0
        edges = {(u, v) for u, v in g.edge_array.tolist()}
        arcs = edges | (set() if g.directed else {(v, u) for u, v in edges})
        indptr, targets = g.out_adjacency
        assert [targets[indptr[u]:indptr[u + 1]].tolist() for u in range(g.n)] == [
            sorted(v for w, v in arcs if w == u) for u in range(g.n)]
        assert len(indptr) == g.n + 1
        for array in (targets, g.in_adjacency[1]):
            assert array.dtype == np.int64 and array.flags.c_contiguous
            assert not np.shares_memory(array, g.edge_array)


def test_int64_array_passes_an_array_through_and_lists_other_iterables():
    ids = np.array([3, 1], dtype=np.int64)
    assert int64_array(ids) is ids
    for values, expected in (({3}, [3]), ([3, 1], [3, 1]), (range(2), [0, 1]),
                             ((i for i in (4,)), [4]), ((), [])):
        got = int64_array(values)
        assert got.dtype == np.int64 and got.tolist() == expected


class TestEdgeListFiles:
    def test_roundtrip_is_identity_on_canonical_files(self, tmp_path):
        g = Graph(5, False, [(0, 1), (1, 2), (2, 4), (0, 4)])
        p1 = tmp_path / "a.edges"
        p2 = tmp_path / "b.edges"
        write_edge_list(g, p1)
        g2 = read_edge_list(p1)
        write_edge_list(g2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert g2 == g

    @pytest.mark.parametrize("m", [0, 1, 3, 4, 5])
    def test_rows_written_in_chunks_equal_one_format(self, tmp_path, monkeypatch, m):
        # chunks of 4 rows: none, one row, one short of a chunk, one chunk, and
        # a chunk plus a one-row chunk; the isolated node 9 puts n in the header
        monkeypatch.setattr(graph, "CHUNK", 4)
        g = Graph(10, True, [(i, i + 1) for i in range(m)])
        write_edge_list(g, tmp_path / "c.edges")
        expected = "directed 10\n" + "%d %d\n" * m % tuple(g.edge_array.ravel().tolist())
        assert (tmp_path / "c.edges").read_text() == expected

    def test_directed_roundtrip(self, tmp_path):
        g = Graph(3, True, [(0, 1), (1, 0), (2, 1)])
        p = tmp_path / "d.edges"
        write_edge_list(g, p)
        assert read_edge_list(p) == g

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# a comment\n\nundirected\n0 1  # inline\n\n1 2\n")
        g = read_edge_list(p)
        assert g.edge_array.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize(
        "content, lineno, match",
        [
            ("nonsense\n0 1\n", 1, "directed"),
            ("undirected\n0\n", 2, "expected"),
            ("undirected\n0 x\n", 2, "non-integer"),
            ("undirected\n1 1\n", 2, "self-loop"),
            ("undirected\n2 1\n", 2, "u < v"),
            ("undirected\n0 1\n0 1\n", 3, "duplicate"),
            ("directed\n0 1\n0 -2\n", 3, "negative"),
        ],
    )
    def test_malformed_lines_name_line_number(self, tmp_path, content, lineno, match):
        p = tmp_path / "bad.edges"
        p.write_text(content)
        with pytest.raises(ParseError, match=match) as err:
            read_edge_list(p)
        assert err.value.lineno == lineno

    def test_missing_header(self, tmp_path):
        p = tmp_path / "empty.edges"
        p.write_text("# only comments\n")
        with pytest.raises(ParseError, match="header"):
            read_edge_list(p)


    def test_trailing_isolated_nodes_survive_a_round_trip(self, tmp_path):
        g = build_configuration_model([1, 1, 0, 0])
        p = tmp_path / "g.edges"
        write_edge_list(g, p)
        assert p.read_text() == "undirected 4\n0 1\n"
        assert read_edge_list(p) == g

    @settings(max_examples=200, deadline=None)
    @given(_simple_graphs())
    def test_write_read_round_trip_is_exact_and_byte_stable(self, tmp_path_factory, g):
        d = tmp_path_factory.mktemp("rt")
        write_edge_list(g, d / "a.edges")
        g2 = read_edge_list(d / "a.edges")
        assert g2 == g
        write_edge_list(g2, d / "b.edges")
        assert (d / "a.edges").read_bytes() == (d / "b.edges").read_bytes()

    @pytest.mark.parametrize(
        "content, lineno, match",
        [
            ("undirected 3\n0 1\n1 3\n", 3, "out of range"),
            ("undirected x\n0 1\n", 1, "header"),
            ("undirected 3 4\n0 1\n", 1, "header"),
            ("undirected -3\n0 1\n", 1, "header"),
            ("# c\nundirected 3037000498\n0 1\n0 x\n", 2,
             "node count 3037000498 exceeds 3037000497, the most a Graph can hold"),
        ],
    )
    def test_optional_node_count_in_header(self, tmp_path, content, lineno, match):
        p = tmp_path / "g.edges"
        p.write_text(content)
        with pytest.raises(ParseError, match=match) as err:
            read_edge_list(p)
        assert err.value.lineno == lineno

    def test_header_count_equal_to_inferred_n_is_accepted(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("directed 2\n0 1\n1 0\n")
        assert read_edge_list(p) == Graph(2, True, [(0, 1), (1, 0)])

    @pytest.mark.parametrize(
        "content, lineno, match",
        [
            ("undirected\n0 1\n0 1\n0 x\n", 3, "duplicate"),
            ("undirected\n2 1\n0 1 2\n", 2, "u < v"),
            ("directed\n1 1\n-1\n", 2, "self-loop"),
        ],
    )
    def test_rule_error_before_bad_token_wins(self, tmp_path, content, lineno, match):
        p = tmp_path / "bad.edges"
        p.write_text(content)
        with pytest.raises(ParseError, match=match) as err:
            read_edge_list(p)
        assert err.value.lineno == lineno

    @settings(max_examples=300, deadline=None)
    @given(_edge_files())
    def test_reader_agrees_with_per_line_oracle(self, tmp_path_factory, content):
        p = tmp_path_factory.mktemp("diff") / "g.edges"
        p.write_text(content)
        kind, expected = _oracle_outcome(_read_edge_list_oracle, p)
        if kind == "ok":
            n, directed, edges = expected
            g = read_edge_list(p)
            assert (g.n, g.directed, g.edge_array.tolist()) == (n, directed, [list(e) for e in edges])
            return
        lineno, word = expected
        with pytest.raises(ParseError, match=word) as err:
            read_edge_list(p)
        assert err.value.lineno == lineno


    @pytest.mark.parametrize("header", ["undirected", "directed", "undirected 6"])
    @pytest.mark.parametrize("content", _TOKEN_CASES)
    def test_token_and_layout_cases_agree_with_per_line_oracle(self, tmp_path, content, header):
        _assert_agrees_with_oracle(tmp_path, content.format(h=header), _read_edge_list_oracle,
                                   read_edge_list, _graph_view)

    @pytest.mark.parametrize("content, lineno", [
        ("undirected\n0 1\n1 9223372036854775808\n", 3),
        ("directed\n# c\n-99999999999999999999 0\n", 3),
    ])
    def test_id_past_int64_names_its_line(self, tmp_path, content, lineno):
        p = tmp_path / "g.edges"
        p.write_text(content)
        with pytest.raises(ParseError, match="node id out of int64 range") as err:
            read_edge_list(p)
        assert err.value.lineno == lineno


    @pytest.mark.parametrize("content, lineno, match", [
        (b"undirected\n0 1\n1 2 # caf\xff\n2 3\n", 3, "byte 0xff is not UTF-8"),
        (b"undirected\r\n0 1\r\n\xe9 2\r\n", 3, "byte 0xe9 is not UTF-8"),
        (b"undirected\r0 1\r1 2\r2 \xc33\r", 4, "byte 0xc3 is not UTF-8"),
        (b"\xef\xbf undirected\n0 1\n", 1, "byte 0xef is not UTF-8"),
        (b"undirected\n0 1\n0 1\n\xff\n", 3, "duplicate"),
        (b"undirected\n0 1\n\xff\n0 1\n0 x\n", 3, "byte 0xff is not UTF-8"),
    ])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, content, lineno, match):
        p = tmp_path / "g.edges"
        p.write_bytes(content)
        with pytest.raises(ParseError, match=match) as err:
            read_edge_list(p)
        assert err.value.lineno == lineno
        assert str(err.value).startswith(f"{p}:{lineno}: ")

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".edges"])
    def test_a_file_is_read_as_text_whatever_its_suffix(self, tmp_path, suffix):
        p = tmp_path / f"g{suffix}"
        p.write_text("undirected\n0 1\n1 2\n")
        assert read_edge_list(p) == Graph(3, False, [(0, 1), (1, 2)])


class TestHistogramFiles:
    def test_reads_the_sorted_degree_sequence(self, tmp_path):
        p = tmp_path / "h.hist"
        p.write_text("9 1\n1 4\n3 2\n")
        back = read_degree_histogram(p)
        assert back.dtype == np.int64
        assert back.tolist() == [1, 1, 1, 1, 3, 3, 9]

    @pytest.mark.parametrize("content, lineno", [
        ("3 10000000000000\n", 1),
        (f"1 5\n2 {MAX_NODES - 5}\n3 1\nfoo\n", 3),
    ])
    def test_counts_past_max_nodes_name_their_line(self, tmp_path, content, lineno):
        p = tmp_path / "h.hist"
        p.write_text(content)
        with pytest.raises(ParseError, match=f"counts sum past {MAX_NODES}") as err:
            read_degree_histogram(p)
        assert err.value.lineno == lineno

    def test_duplicate_degree_key(self, tmp_path):
        p = tmp_path / "h.hist"
        p.write_text("1 5\n1 3\n")
        with pytest.raises(ParseError, match="duplicate degree") as err:
            read_degree_histogram(p)
        assert err.value.lineno == 2

    def test_negative_value(self, tmp_path):
        p = tmp_path / "h.hist"
        p.write_text("2 -1\n")
        with pytest.raises(ParseError, match="negative"):
            read_degree_histogram(p)

    def test_rule_error_before_bad_token_wins(self, tmp_path):
        p = tmp_path / "h.hist"
        p.write_text("1 5\n-1 3\nfoo\n")
        with pytest.raises(ParseError, match="negative") as err:
            read_degree_histogram(p)
        assert err.value.lineno == 2

    @pytest.mark.parametrize("content, lineno, match", [
        (b"1 2\n3 \xfe4\n", 2, "byte 0xfe is not UTF-8"),
        (b"# \x80\n1 2\n", 1, "byte 0x80 is not UTF-8"),
        (b"1 2\n1 3\n\xff\n", 2, "duplicate degree key"),
    ])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, content, lineno, match):
        p = tmp_path / "h.hist"
        p.write_bytes(content)
        with pytest.raises(ParseError, match=match) as err:
            read_degree_histogram(p)
        assert err.value.lineno == lineno
        assert str(err.value).startswith(f"{p}:{lineno}: ")

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_file_is_read_as_text_whatever_its_suffix(self, tmp_path, suffix):
        p = tmp_path / f"h{suffix}"
        p.write_text("2 1\n1 2\n")
        assert read_degree_histogram(p).tolist() == [1, 1, 2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["0 3", "1 4", "2 1", "1 2", "-1 2", "3 -4", "x 1", "5",
                                     "1 2 3", "# c", "", "7 0", "3 2"]), max_size=8))
    def test_reader_agrees_with_per_line_oracle(self, tmp_path_factory, lines):
        p = tmp_path_factory.mktemp("diff") / "h.hist"
        p.write_text("\n".join(lines) + "\n")
        kind, expected = _oracle_outcome(_read_degree_histogram_oracle, p)
        if kind == "ok":
            assert read_degree_histogram(p).tolist() == _sequence_view(expected)
            return
        lineno, word = expected
        with pytest.raises(ParseError, match=word) as err:
            read_degree_histogram(p)
        assert err.value.lineno == lineno

    @pytest.mark.parametrize("content", [
        c.format(h="# header") for c in _TOKEN_CASES] + ["1 5\n2 9223372036854775808\n"])
    def test_token_and_layout_cases_agree_with_per_line_oracle(self, tmp_path, content):
        _assert_agrees_with_oracle(tmp_path, content, _read_degree_histogram_oracle,
                                   read_degree_histogram, _sequence_view)


def _int_row(fields):
    a, b = fields
    return int(a), int(b)


class TestReadTable:
    @staticmethod
    def _read(path):
        """``read_table`` of an ``a,b`` table of integers; the one file it opens is
        closed when it returns, and while the error it raises is still in flight."""
        real_open, opened = open, []

        def spy(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        with mock.patch("builtins.open", spy):
            try:
                return read_table(path, "a,b", _int_row)
            finally:
                assert len(opened) == 1 and opened[0].closed

    def test_blank_lines_are_skipped_and_rows_keep_their_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(table_text("a,b", [(1, 2), (3, 4)]).replace("\n3", "\n\n 3"))
        assert self._read(p) == [(2, (1, 2)), (4, (3, 4))]

    @pytest.mark.parametrize("content, message", [
        (b"", "1: expected header 'a,b', got ''"),
        (b"a,c\n1,2\n", "1: expected header 'a,b', got 'a,c'"),
        (b"a,b # c\n1,2\n", "1: expected header 'a,b', got 'a,b # c'"),
        (b"a,b\n1,2\n\n1,x\n", "4: bad row '1,x'"),
        (b"a,b\n1,2\n3,4,5\n", "3: bad row '3,4,5'"),
        (b"a,b\n1,2\n3,\xff\n1,x\n", "3: byte 0xff is not UTF-8"),
    ], ids=["empty", "header", "no-comments", "row", "fields", "byte"])
    def test_first_bad_line_is_named_and_the_file_closed(self, tmp_path, content, message):
        p = tmp_path / "t.csv"
        p.write_bytes(content)
        with pytest.raises(ParseError) as err:
            self._read(p)
        assert str(err.value) == f"{p}:{message}"


def _mode(path):
    return stat.S_IMODE(os.lstat(path).st_mode)


class TestWriteText:
    @pytest.fixture(autouse=True)
    def umask_022(self):
        old = os.umask(0o022)
        try:
            yield
        finally:
            os.umask(old)

    def test_new_file_gets_umask_mode_and_newline_ends(self, tmp_path):
        p = tmp_path / "out.csv"
        write_text(p, "a,b\n1,2\n")
        assert p.read_bytes() == b"a,b\n1,2\n"
        assert _mode(p) == 0o644
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_existing_file_is_replaced_and_keeps_its_mode(self, tmp_path):
        p = tmp_path / "out.csv"
        p.write_text("old, and longer than the new text\n")
        p.chmod(0o600)
        write_text(p, "new\n")
        assert p.read_text() == "new\n"
        assert _mode(p) == 0o600
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("exists", [True, False])
    def test_symlink_is_followed_and_kept(self, tmp_path, exists):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "real.csv"
        if exists:
            target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_text(link, "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "new\n"
        assert _mode(target) == 0o644
        assert sorted(os.listdir(tmp_path / "data")) == ["real.csv"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        write_text(fifo, "through the pipe\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == ["through the pipe\n"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_error_names_the_path_not_the_temporary_file(self, tmp_path):
        p = tmp_path / "missing" / "out.csv"
        with pytest.raises(FileNotFoundError) as err:
            write_text(p, "x\n")
        assert err.value.filename == str(p)

    def test_failed_write_leaves_old_file_and_no_temporary(self, tmp_path):
        p = tmp_path / "out.csv"
        p.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text(p, "half\n\udc80\n")  # a lone surrogate has no UTF-8 form
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("value, text", [
    (None, "NA"),
    (0.0, "0"),
    (np.float64(0.1), "0.1"),
    (1 / 3, "0.3333333333"),
    (np.int64(12345678901), "12345678901"),  # in full, not in exponent form
    ("", ""),
])
def test_format_field(value, text):
    assert format_field(value) == text


def test_table_text_writes_one_line_per_row():
    assert table_text("a,b", []) == "a,b\n"
    assert table_text("a,b", [(1, 2.5), ("mean", None)]) == "a,b\n1,2.5\nmean,NA\n"
