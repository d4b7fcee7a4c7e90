"""Unit tests for graph IO: the METIS reader/writer and ``readGraph``."""

import re

import pytest

from repro.graphkit import Graph
from repro.graphkit.io import Format, read_metis, readGraph, write_metis


@pytest.fixture
def weighted_graph():
    return Graph.from_weighted_edges(4, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.0)])


def _located(name: str, line: int) -> str:
    """Regex for an error message naming file ``name`` and 1-based ``line``."""
    return re.escape(f"{name}: line {line}:")


class TestMetis:
    def test_roundtrip(self, karate, tmp_path):
        path = tmp_path / "karate.graph"
        write_metis(karate, path)
        loaded = read_metis(path)
        assert loaded.number_of_nodes() == karate.number_of_nodes()
        assert loaded.edge_set() == karate.edge_set()

    def test_roundtrip_weighted(self, weighted_graph, tmp_path):
        path = tmp_path / "w.graph"
        write_metis(weighted_graph, path)
        loaded = read_metis(path)
        assert loaded.weighted
        assert loaded.weight(1, 2) == 0.5

    @pytest.mark.parametrize(
        "g",
        [
            Graph.from_edges(4, [(0, 1), (1, 2)]),  # isolated last node
            Graph.from_edges(5, [(0, 2), (2, 4)]),  # isolated inner nodes
            Graph.from_weighted_edges(3, [(1, 2, 0.5)]),  # isolated first node
            Graph(2),  # no edges at all
        ],
        ids=["last", "inner", "weighted-first", "edgeless"],
    )
    def test_isolated_nodes_roundtrip(self, g, tmp_path):
        # A blank adjacency line is an isolated node, not a skippable line.
        path = tmp_path / "iso.graph"
        write_metis(g, path)
        loaded = read_metis(path)
        assert loaded.number_of_nodes() == g.number_of_nodes()
        assert loaded.edge_set() == g.edge_set()

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.graph"
        path.write_text("% a comment\n3 2\n2 3\n1\n1\n")
        g = read_metis(path)
        assert g.number_of_edges() == 2
        assert g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_header_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 5\n2\n1\n\n")
        with pytest.raises(ValueError):
            read_metis(path)

    def test_wrong_line_count_detected(self, tmp_path):
        path = tmp_path / "bad2.graph"
        path.write_text("3 1\n2\n1\n3\n2\n")
        with pytest.raises(ValueError):
            read_metis(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("3 2\n2 3\n1 x\n1\n", 3),  # neighbour id
            ("% c\n3 2\n2 3\n1\n1.5\n", 5),  # non-integer neighbour id
            ("3 two\n2 3\n1\n1\n", 1),  # header count
        ],
        ids=["word", "decimal", "header"],
    )
    def test_non_integer_token_names_line(self, tmp_path, text, line):
        path = tmp_path / "tok.graph"
        path.write_text(text)
        with pytest.raises(ValueError, match=_located("tok.graph", line)):
            read_metis(path)

    def test_odd_weighted_row_names_line(self, tmp_path):
        path = tmp_path / "odd.graph"
        path.write_text("3 2 001\n2 1 3\n1 1\n1 1\n")
        with pytest.raises(ValueError, match=_located("odd.graph", 2)):
            read_metis(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "0", "-1"])
    def test_bad_weight_names_line(self, tmp_path, weight):
        path = tmp_path / "w.graph"
        path.write_text(f"3 2 001\n2 1 3 1\n1 1\n1 {weight}\n")
        with pytest.raises(ValueError, match=_located("w.graph", 4)):
            read_metis(path)

    @pytest.mark.parametrize("weight", [0.0, -1.5])
    def test_bad_weight_write_names_edge(self, tmp_path, weight):
        g = Graph.from_weighted_edges(3, [(0, 1, 1.0), (1, 2, weight)])
        path = tmp_path / "w.graph"
        with pytest.raises(ValueError, match=re.escape("edge (1,2)")):
            write_metis(g, path)
        assert not path.exists()  # refused before anything was written

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_never_reaches_the_writer(self, weight):
        with pytest.raises(ValueError, match=re.escape("edge (1,2)")):
            Graph.from_weighted_edges(3, [(0, 1, 1.0), (1, 2, weight)])
        g = Graph.from_weighted_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        with pytest.raises(ValueError, match=re.escape("edge (1,2)")):
            g.set_weight(1, 2, weight)
        assert g.weight(1, 2) == 2.0

    def test_positive_weights_round_trip(self, tmp_path):
        g = Graph.from_weighted_edges(3, [(0, 1, 0.25), (1, 2, 3.0)])
        path = tmp_path / "w.graph"
        write_metis(g, path)
        back = read_metis(path)
        assert sorted(back.iter_weighted_edges()) == [(0, 1, 0.25), (1, 2, 3.0)]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.graph"
        path.write_text("")
        with pytest.raises(ValueError):
            read_metis(path)

    def test_directed_write_rejected(self, tmp_path):
        g = Graph(2, directed=True)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            write_metis(g, tmp_path / "d.graph")


class TestDispatcher:
    def test_listing1_style_read(self, karate, tmp_path):
        # Paper Listing 1: nk.readGraph("karate.graph", nk.Format.METIS)
        path = tmp_path / "karate.graph"
        write_metis(karate, path)
        g = readGraph(path, Format.METIS)
        assert g.number_of_edges() == 78

    def test_all_formats_roundtrip(self, two_triangles, tmp_path):
        writers = {Format.METIS: write_metis}
        for fmt in Format:
            path = tmp_path / f"a.{fmt.value}"
            writers[fmt](two_triangles, path)
            loaded = readGraph(path, fmt)
            assert loaded.edge_set() == two_triangles.edge_set()

    def test_unknown_format_rejected(self, triangle, tmp_path):
        path = tmp_path / "t.graph"
        write_metis(triangle, path)
        with pytest.raises(ValueError, match="unsupported format"):
            readGraph(path, "gml")
