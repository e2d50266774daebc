import hashlib
import json

import pytest

from quasigraph import io as gio
from quasigraph.cli import _analyze_one, main
from quasigraph.connectivity import _flow_pairs
from quasigraph.generators import (
    circulant_graph,
    complete_graph,
    cycle_graph,
    icosahedron_graph,
    quasi_5_apex,
    star_graph,
)

from corpus import planted_pair


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"corpus": [
        {"family": "complete", "params": {"n": [6, 7]}},
        {"family": "icosahedron"},
    ]}))
    return path


def test_analyze_graph6(tmp_path, capsys):
    path = tmp_path / "in.g6"
    gio.write_graph6_file(path, [icosahedron_graph(), cycle_graph(6)])
    assert main(["analyze", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    ico = json.loads(lines[0])
    assert ico["kappa"] == 5 and ico["quasi_k"]["holds"] is True
    assert ico["E0"] == []
    c6 = json.loads(lines[1])
    assert c6["kappa"] == 2 and c6["E0"] is None


def test_analyze_star_with_many_components(tmp_path, capsys):
    # the center cut of the 18-vertex star leaves 17 components
    path = tmp_path / "star.g6"
    gio.write_graph6_file(path, [star_graph(18)])
    assert main(["analyze", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["nontrivial_atom"]["body"] == [1, 2]
    assert summary["nontrivial_atom"]["boundary"] == [0]


def test_analyze_reads_past_other_json_keys(tmp_path, capsys):
    # an adjacency JSON file is read for "n" and "adjacency" only, so a
    # "labels" key of any value leaves the summary as it is
    obj = gio.to_adjacency_json(icosahedron_graph())
    lines = []
    for name, extra in [("plain", {}), ("labelled", {"labels": 5})]:
        path = tmp_path / name / "g.json"
        path.parent.mkdir()
        path.write_text(json.dumps({**obj, **extra}))
        assert main(["analyze", str(path)]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] and json.loads(lines[0])["kappa"] == 5


ANALYZE_DIGESTS = {
    4: "a5d1ea87512c88f9c066697cf5e4814e021d2fc39773707ee9c42b4c08f86660",
    5: "1de8e2ba8f0b7f6d0ef44e46080ea95e009cd511b34ce206c1f4431b640cea3f",
}


@pytest.mark.parametrize("k", sorted(ANALYZE_DIGESTS))
def test_analyze_bytes_pinned(k, small_corpus):
    # sha256 of the analyze summaries over the fixture corpus, one
    # json.dumps(summary, sort_keys=True) line each; a deliberate change to
    # the summary updates this digest and is listed in CHANGES.md
    data = "".join(json.dumps(_analyze_one(gid, g, k), sort_keys=True) + "\n"
                   for gid, g in small_corpus)
    assert hashlib.sha256(data.encode()).hexdigest() == ANALYZE_DIGESTS[k]


def test_analyze_tests_quasi_once(count_calls):
    # one pass of the kappa flow pairs in all, on G and on every other
    # graph: it gives kappa and lists the minimum cuts, so there is no
    # second listing and no subset walk
    g = quasi_5_apex(16, 1)
    calls = count_calls("_vertex_connectivity_with_cut", "_min_separators", "_cuts")
    summary = _analyze_one("apex", g, 5)
    assert summary["quasi_k"]["holds"] and summary["kappa"] == 4
    assert calls == {"_vertex_connectivity_with_cut": 1, "_min_separators": 0, "_cuts": 0}


def test_analyze_lists_minimum_cuts_once(count_calls):
    # at kappa = k the atom and the k-cuts that classify the edges both read
    # the minimum cuts, which the call's context lists once
    calls = count_calls("_min_separators")
    summary = _analyze_one("icosahedron", icosahedron_graph(), 5)
    assert summary["kappa"] == 5 and summary["quasi_k"]["holds"]
    assert calls == {"_min_separators": 1}


def test_failed_quasi_test_and_atom_share_one_listing(count_calls, count_certified):
    # the planted pair's least nontrivial 4-cut lies past the n^2-subset
    # scan, so the kappa pass lists the 4-cuts to the end and the
    # certificate comes from them; the context keeps them as the minimum
    # cuts, which the atom then reads: of the 34 pairs, 9 run one flow and
    # 25 are certified by short disjoint paths, and no other listing runs
    g = planted_pair(30, 4)
    calls = count_calls("_min_separators", "_local_vertex_cut")
    certified = count_certified()
    summary = _analyze_one("planted", g, 5)
    assert summary["quasi_k"]["failure"] == "nontrivial-cut"
    assert summary["quasi_k"]["cut"]["vertices"] == [24, 25, 26, 27]
    assert calls == {"_min_separators": 0, "_local_vertex_cut": 9}
    assert certified["certified"] == 25 and len(_flow_pairs(g)) == 34


def test_analyze_routes_two_hop_units_without_search(count_calls):
    # the k-cut flows between disjoint edges and terminals route their
    # two-hop units through the merged end before any search: 923
    # augmenting searches, where common neighbors alone left 4,001
    g = quasi_5_apex(240, 1)
    calls = count_calls("_search")
    assert _analyze_one("apex240", g, 5)["quasi_k"]["holds"]
    assert 0 < calls["_search"] <= 1_000


@pytest.mark.parametrize("g", [
    quasi_5_apex(24, 1), quasi_5_apex(24, 1, attach_triangle=True),
    icosahedron_graph(), circulant_graph(8, (1, 2)), cycle_graph(6), star_graph(6),
], ids=["apex24", "apex24-triangle", "icosahedron", "C8(1,2)", "C6", "star6"])
def test_analyze_builds_one_network(g, count_calls):
    # the quasi test, the k-cuts and the minimum cuts of the atom search
    # share G's network, whichever of them the graph needs
    calls = count_calls("_split_network", "contract_edge")
    _analyze_one("x", g, 5)
    assert calls == {"_split_network": 1, "contract_edge": 0}


def test_verify_exit_zero_and_reports(tmp_path, corpus_file, capsys):
    out = tmp_path / "rep.jsonl"
    code = main(["verify", "--claim", "theorem1", "--claim", "lemma4",
                 "--corpus", str(corpus_file), "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["counts"]["falsified"] == 0
    assert len(out.read_text().splitlines()) == 6


def test_verify_rejects_unknown_claim(tmp_path, corpus_file):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--claim", "bogus", "--corpus", str(corpus_file),
              "--out", str(tmp_path / "x.jsonl")])
    assert err.value.code == 2


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_verify_rejects_a_nan_or_negative_timeout(budget, tmp_path, corpus_file, capsys):
    # a NaN budget would never pass, so it is a usage error like a negative
    # one: one error line, exit 2, and no report written
    out = tmp_path / "rep.jsonl"
    assert main(["verify", "--claim", "theorem1", "--corpus", str(corpus_file),
                 "--out", str(out), "--timeout", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: timeout must be a number of seconds >= 0, got {float(budget)}\n"
    assert sorted(tmp_path.iterdir()) == [corpus_file]


def test_search_reports_counts(tmp_path, corpus_file, capsys):
    assert main(["search", "--corpus", str(corpus_file)]) == 0
    err = capsys.readouterr().err
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary == {"errors": 0, "found": 0, "scanned": 3,
                       "target": "contraction-critical-quasi-5"}


def test_search_goes_on_past_a_bad_graph(tmp_path, capsys):
    # K0 raises, and the search still reaches K5, the one hit of K0..K6;
    # the failure is named on its own line and counted, and exits 2
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"corpus": [{"family": "complete", "params": {"n": [0, 6]}}]}))
    out = tmp_path / "hits.jsonl"
    assert main(["search", "--corpus", str(corpus), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    *errors, last = captured.err.strip().splitlines()
    assert errors == ["error: K0: ValueError: empty graph"]
    assert json.loads(last) == {"errors": 1, "found": 1, "scanned": 7,
                                "target": "contraction-critical-quasi-5"}
    assert [json.loads(line)["graph_id"] for line in out.read_text().splitlines()] == ["K5"]


def test_analyze_error_names_the_graph(tmp_path, capsys):
    # graph6 "?" is the valid empty graph, the second of the file
    path = tmp_path / "e.g6"
    path.write_text(gio.to_graph6(complete_graph(5)) + "\n?\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["graph_id"] == "e.g6:0"
    assert captured.err == "error: e.g6:1: ValueError: empty graph\n"
    # an edge-list or JSON file is read by its graph's visit, so a parse
    # error there is named by the file too
    for name, text, message in [
        ("bad.txt", "0 1\n1 2 3\n", "ValueError: line 2: expected 'u v'"),
        ("bad.json", '{"n": 2,', "JSONDecodeError: "),
    ]:
        path = tmp_path / name
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name}: {message}")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("k", [1, 0])
def test_analyze_rejects_k_below_two(k, tmp_path, capsys):
    # a usage error, named once before any graph is read, not once per graph
    path = tmp_path / "two.g6"
    path.write_text("D~{\nD~{\n")
    assert main(["analyze", str(path), "--k", str(k)]) == 2
    assert capsys.readouterr() == ("", f"error: --k must be at least 2, got {k}\n")


def test_analyze_goes_on_past_a_graph_that_raises(tmp_path, capsys):
    # K5, the empty graph, K5: the second K5 is analysed, and the exit code
    # still reports the error
    path = tmp_path / "e3.g6"
    path.write_text("D~{\n?\nD~{\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    summaries = [json.loads(line) for line in captured.out.splitlines()]
    assert [s["graph_id"] for s in summaries] == ["e3.g6:0", "e3.g6:2"]
    assert summaries[0] == summaries[1] | {"graph_id": "e3.g6:0"}
    assert captured.err == "error: e3.g6:1: ValueError: empty graph\n"


def test_malformed_graph6_record_is_named(tmp_path, capsys):
    # the second line of K5, K5 cut short, K5 is not a graph: analyze parses
    # each record as it visits it, so it names that record by the id its
    # graph would have had, analyses the two K5s and exits 2
    path = tmp_path / "bad.g6"
    path.write_text("D~{\nD~\nD~{\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    summaries = [json.loads(line) for line in captured.out.splitlines()]
    assert [s["graph_id"] for s in summaries] == ["bad.g6:0", "bad.g6:2"]
    assert summaries[0] == summaries[1] | {"graph_id": "bad.g6:0"}
    assert captured.err == \
        "error: bad.g6:1: ValueError: graph6 body has 1 characters, expected 2\n"


def test_graph6_size_byte_out_of_range_is_named(tmp_path, capsys):
    # a size byte of 127 is not read as 64 vertices: K5, that record and
    # K5 give two summaries, one error line naming the record and exit 2
    path = tmp_path / "size.g6"
    path.write_text("D~{\n" + chr(127) + "?" * 336 + "\nD~{\n", encoding="ascii")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert [json.loads(line)["graph_id"] for line in captured.out.splitlines()] == \
        ["size.g6:0", "size.g6:2"]
    assert captured.err == \
        "error: size.g6:1: ValueError: character '\\x7f' out of graph6 range\n"


def test_malformed_graph6_record_sinks_its_corpus_entry(tmp_path, capsys):
    # a search loads a graph6_file corpus entry whole before its first
    # graph, so the malformed record is a usage error of the corpus: named,
    # exit 2, and no graph searched
    path = tmp_path / "bad.g6"
    path.write_text("D~{\nD~\nD~{\n")
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"corpus": [
        {"family": "complete", "params": {"n": 5}},
        {"family": "graph6_file", "params": {"path": str(path)}}]}))
    assert main(["search", "--corpus", str(corpus)]) == 2
    assert capsys.readouterr() == (
        "", "error: bad.g6:1: graph6 body has 1 characters, expected 2\n")


def test_generate_writes_graph6_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "fam"
    code = main(["generate", "--family", "complete", "--params", '{"n": [5, 6]}',
                 "--out", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert [g["graph_id"] for g in manifest["graphs"]] == ["K5", "K6"]
    assert gio.load_graphs(out_dir / "K5.g6") == [("K5.g6:0", complete_graph(5))]


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.g6")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_params_json_exits_two(tmp_path):
    assert main(["generate", "--family", "complete", "--params", "{oops",
                 "--out", str(tmp_path / "d")]) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["verify"])  # missing required arguments
    assert err.value.code == 2


def test_unknown_search_target_exits_two(tmp_path, corpus_file):
    assert main(["search", "--target", "planar",
                 "--corpus", str(corpus_file)]) == 2


def test_falsified_claim_exits_one(tmp_path, corpus_file, monkeypatch, capsys):
    # no honest corpus falsifies the shipped claims, so exercise the exit
    # wiring with a stubbed campaign summary
    import quasigraph.cli as cli

    def fake_campaign(corpus, claims, out, k=None, exhaustive=True, timeout=None):
        return {"graphs": 1, "claims": list(claims), "out": str(out),
                "counts": {"verified": 0, "vacuous": 0, "falsified": 1,
                           "timeout": 0}, "errors": 0}

    monkeypatch.setattr(cli, "run_campaign", fake_campaign)
    code = main(["verify", "--claim", "theorem1", "--corpus", str(corpus_file),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 1


def test_verify_exits_two_on_error_reports(tmp_path, capsys):
    # graph6 "?" is the valid empty graph, which no claim can take
    g6 = tmp_path / "with_empty.g6"
    g6.write_text(gio.to_graph6(complete_graph(6)) + "\n?\n")
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"corpus": [
        {"family": "graph6_file", "params": {"path": str(g6)}}]}))
    out = tmp_path / "rep.jsonl"
    code = main(["verify", "--claim", "theorem1", "--corpus", str(corpus),
                 "--out", str(out)])
    assert code == 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["errors"] == 1 and summary["counts"]["verified"] == 1
    statuses = [json.loads(line)["status"] for line in out.read_text().splitlines()]
    assert statuses == ["verified", "error"]


BAD_SPECS = [
    ("no-path", {"family": "graph6_file"}, "'path'"),
    ("params-list", {"family": "circulant", "params": [1]}, "'params'"),
    ("jumps-string", {"family": "circulant", "params": {"n": 8, "jumps": "12"}}, "'jumps'"),
    ("n-float", {"family": "complete", "params": {"n": 5.5}}, "'n'"),
    ("n-bool", {"family": "complete", "params": {"n": True}}, "'n'"),
    ("n-range-bool", {"family": "complete", "params": {"n": [True, 5]}}, "'n'"),
    ("n-range-inverted", {"family": "complete", "params": {"n": [10, 5]}}, "'n'"),
    ("jumps-bool", {"family": "circulant", "params": {"n": 8, "jumps": [True, 2]}}, "'jumps'"),
    ("attach-triangle-string",
     {"family": "quasi_5_apex", "params": {"n": 10, "attach_triangle": "no"}}, "'attach_triangle'"),
]

BAD_COUNTS = [
    ("count-null", {"family": "icosahedron", "count": None}, "'count'"),
    ("count-float", {"family": "icosahedron", "count": 2.7}, "'count'"),
    ("count-zero", {"family": "icosahedron", "count": 0}, "'count'"),
    ("count-bool", {"family": "icosahedron", "count": True}, "'count'"),
    ("seed-list", {"family": "icosahedron", "seed": [1]}, "'seed'"),
    ("seed-bool", {"family": "icosahedron", "seed": False}, "'seed'"),
    ("seed-string", {"family": "icosahedron", "seed": "1"}, "'seed'"),
]


@pytest.mark.parametrize("command, corpus, field", [
    pytest.param(command, {"corpus": [spec]}, field, id=f"{command}-{name}")
    for command in ("verify", "generate") for name, spec, field in BAD_SPECS
] + [
    pytest.param("verify", {"corpus": [spec]}, field, id=f"verify-{name}")
    for name, spec, field in BAD_COUNTS
] + [
    pytest.param("verify", {"corpus": ["K5"]}, "'corpus' entry", id="verify-entry-string"),
    pytest.param("verify", {"corpus": 3}, "'corpus' list", id="verify-corpus-int"),
    pytest.param("verify", 3, "'corpus' list", id="verify-top-int"),
    pytest.param("verify", [1, 2], "'corpus' entry", id="verify-top-list"),
])
def test_malformed_corpus_spec_exits_two(command, corpus, field, tmp_path, capsys):
    # a bad spec is a usage error, named on one stderr line; exit 1 is kept
    # for a campaign that found a falsified claim
    if command == "verify":
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        argv = ["verify", "--claim", "theorem1", "--corpus", str(path),
                "--out", str(tmp_path / "rep.jsonl")]
    else:
        [spec] = corpus["corpus"]
        argv = ["generate", "--family", spec["family"],
                "--params", json.dumps(spec.get("params", {})), "--out", str(tmp_path / "d")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and err.count("\n") == 1


@pytest.mark.parametrize("name, text, field", [
    ("g.edges", "# n=\n0 1\n", "'n='"),
    ("g.json", json.dumps({"adjacency": [[1], [0]]}), "'n'"),
    ("g.json", json.dumps([[1], [0]]), "object"),
    ("g.json", json.dumps({"n": 2, "adjacency": [["1"], [0]]}), "'adjacency'"),
], ids=["edgelist-empty-n", "json-no-n", "json-list", "json-string-ids"])
def test_malformed_graph_file_exits_two(name, text, field, tmp_path, capsys):
    # like a bad corpus spec, a malformed graph file is a usage error
    path = tmp_path / name
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and err.count("\n") == 1
