import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasigraph.cli import main
from quasigraph.core import Graph
from quasigraph import io as gio
from quasigraph.generators import (
    complete_graph,
    cycle_graph,
    icosahedron_graph,
    petersen_graph,
    random_graph,
    star_graph,
)

from oracles import graph6_encode_reference


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs),
                          unique=True)) if all_pairs else []
    return Graph(n, edges)


class TestGraph6:
    def test_k4_is_the_documented_string(self):
        assert gio.to_graph6(complete_graph(4)) == "C~"

    def test_empty_and_single_vertex(self):
        assert gio.to_graph6(Graph(0)) == "?"
        assert gio.to_graph6(Graph(1)) == "@"
        assert gio.from_graph6("?").n == 0
        assert gio.from_graph6("@").n == 1

    def test_header_accepted_and_emitted(self):
        text = gio.to_graph6(petersen_graph(), header=True)
        assert text.startswith(">>graph6<<")
        assert gio.from_graph6(text) == petersen_graph()

    @pytest.mark.parametrize("g", [
        complete_graph(1), complete_graph(7), cycle_graph(9), star_graph(6),
        petersen_graph(), icosahedron_graph(), random_graph(13, 0.5, seed=2),
    ])
    def test_matches_reference_encoder(self, g):
        assert gio.to_graph6(g) == graph6_encode_reference(g)

    @given(graphs())
    @settings(max_examples=150)
    def test_round_trip_is_bit_exact(self, g):
        encoded = gio.to_graph6(g)
        assert gio.from_graph6(encoded) == g
        assert gio.to_graph6(gio.from_graph6(encoded)) == encoded
        assert encoded == graph6_encode_reference(g)

    def test_large_size_prefix_round_trip(self):
        # size prefix only; a 100-vertex empty graph exercises the 1-byte
        # boundary and a 70-vertex one stays in short form
        for n in (62, 63, 100):
            g = Graph(n)
            assert gio.from_graph6(gio.to_graph6(g)) == g

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            gio.from_graph6("C~~")

    def test_bad_character_rejected(self):
        with pytest.raises(ValueError):
            gio.from_graph6("C" + chr(190))

    @pytest.mark.parametrize("text, bad", [
        ("\x7f" + "?" * 336, "\x7f"), ("~??\x7f" + "?" * 336, "\x7f"),
        ("~~?????\x7f" + "?" * 336, "\x7f"), (">", ">"), ("~" + chr(62) + "??", chr(62)),
    ], ids=["short", "long", "longest", "below", "below-long"])
    def test_size_byte_out_of_range_rejected(self, text, bad):
        # each size byte is checked as the body's are: 127 read as 64
        # vertices, and a byte below 63 as a negative count
        with pytest.raises(ValueError, match=re.escape(f"character {bad!r} out of graph6 range")):
            gio.from_graph6(text)

    def test_file_round_trip(self, tmp_path):
        graphs_out = [complete_graph(5), petersen_graph(), Graph(3)]
        path = tmp_path / "batch.g6"
        assert gio.write_graph6_file(path, graphs_out) == 3
        assert [g for _, g in gio.load_graphs(path)] == graphs_out

    def test_bit_exact_on_whole_fixture_corpus(self, small_corpus):
        for gid, g in small_corpus:
            encoded = gio.to_graph6(g)
            assert gio.from_graph6(encoded) == g, gid
            assert gio.to_graph6(gio.from_graph6(encoded)) == encoded, gid


class TestEdgeList:
    def test_round_trip_with_isolated_vertices(self):
        g = Graph(6, [(0, 1), (2, 4)])
        assert gio.from_edge_list(gio.to_edge_list(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n0 1\n# another\n1 2\n"
        assert gio.from_edge_list(text) == Graph(3, [(0, 1), (1, 2)])

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            gio.from_edge_list("0 1 2\n")
        # each id is an integer >= 0, checked on its own line
        for bad in ("1 x", "1 -2", "1 2.0"):
            with pytest.raises(ValueError, match=f"^line 2: .*, got '{bad}'$"):
                gio.from_edge_list(f"0 1\n{bad}\n")

    def test_declared_n_too_small(self):
        with pytest.raises(ValueError):
            gio.from_edge_list("# n=2\n0 3\n")

    def test_file_round_trip(self, tmp_path):
        g = petersen_graph()
        path = tmp_path / "g.edges"
        gio.write_edge_list_file(path, g)
        assert gio.read_edge_list_file(path) == g


class TestAdjacencyJson:
    def test_round_trip_with_labels(self, tmp_path):
        # the file holds "n" and "adjacency" only; a "labels" key, as older
        # files carry, is read past
        g = Graph(3, [(0, 1)])
        path = tmp_path / "g.json"
        gio.write_adjacency_json_file(path, g)
        assert json.loads(path.read_text()) == {"n": 3, "adjacency": [[1], [0], []]}
        assert gio.read_adjacency_json_file(path) == g
        labelled = {**gio.to_adjacency_json(g), "labels": ["a", "b", "c"]}
        assert gio.from_adjacency_json(labelled) == g

    def test_negative_id_is_an_asymmetric_row(self):
        with pytest.raises(ValueError, match="^adjacency rows are not symmetric at vertex 0$"):
            gio.from_adjacency_json({"n": 2, "adjacency": [[-1], [0]]})

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            gio.from_adjacency_json({"n": 2, "adjacency": [[]]})

    @pytest.mark.parametrize("obj", [
        {"n": True, "adjacency": [[]]},
        {"n": 2, "adjacency": [[True], [False]]},
    ], ids=["n-bool", "neighbor-bool"])
    def test_booleans_rejected(self, obj, tmp_path, capsys):
        # a bool is an int to isinstance, but not a vertex count or id
        with pytest.raises(ValueError, match="integer"):
            gio.from_adjacency_json(obj)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestLoadGraphs:
    def test_dispatch_by_suffix(self, tmp_path):
        g = cycle_graph(5)
        g6 = tmp_path / "a.g6"
        gio.write_graph6_file(g6, [g, g])
        edges = tmp_path / "b.edges"
        gio.write_edge_list_file(edges, g)
        js = tmp_path / "c.json"
        gio.write_adjacency_json_file(js, g)
        assert [x for _, x in gio.load_graphs(g6)] == [g, g]
        assert gio.load_graphs(edges)[0][1] == g
        assert gio.load_graphs(js)[0][1] == g

    def test_malformed_graph6_record_is_named(self, tmp_path):
        # K5, a truncated K5 body, K5: the error names the second record by
        # the id its graph would have had; blank lines are not records
        path = tmp_path / "bad.g6"
        path.write_text("D~{\n\nD~\nD~{\n")
        with pytest.raises(ValueError) as err:
            gio.load_graphs(path)
        assert str(err.value) == "bad.g6:1: graph6 body has 1 characters, expected 2"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            gio.load_graphs(tmp_path / "x.g6", fmt="dimacs")
