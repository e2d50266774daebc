import ast
import hashlib
import importlib
import inspect
import json
import pkgutil
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasigraph
import quasigraph.connectivity as connectivity
from quasigraph import harness
from quasigraph.connectivity import is_quasi_k_connected, vertex_connectivity
from quasigraph.contractibility import is_contraction_critical, is_quasi_k_contractible
from quasigraph.core import Graph, contract_edge
from quasigraph.io import from_graph6, to_graph6
from quasigraph.generators import (
    CorpusSpec,
    circulant_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    generate_corpus,
    glued_cliques,
    icosahedron_graph,
    petersen_graph,
    quasi_5_apex,
    with_edges,
)
from quasigraph.harness import (
    CLAIMS,
    check_degree_sum_condition,
    check_min_degree_condition,
    run_campaign,
    verify_claim,
)

from corpus import dodecahedron_graph, line_graph, quasi_five_corpus
from oracles import (
    brute_degree_sum_violation,
    brute_is_quasi_k,
    brute_vertex_connectivity,
    contraction_decision,
)


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs),
                          unique=True)) if all_pairs else []
    return Graph(n, edges)


def k12_minus_perfect_matching():
    g = complete_graph(12)
    edges = [e for e in g.edges() if e not in {(2 * i, 2 * i + 1) for i in range(6)}]
    from quasigraph.core import Graph

    return Graph(12, edges)


class TestDegreeConditions:
    def test_degree_sum_k6(self):
        assert check_degree_sum_condition(complete_graph(6)) == (True, None)

    def test_degree_sum_icosahedron(self):
        assert check_degree_sum_condition(icosahedron_graph()) == (True, None)

    def test_degree_sum_squared_cycle_fails_adjacent(self):
        ok, pair = check_degree_sum_condition(circulant_graph(8, (1, 2)))
        assert not ok and pair == (0, 1)

    def test_degree_sum_adjacent_only_variant(self):
        # path: endpoint has degree 1, so adjacent pair (0, 1) fails bound 4
        ok, pair = check_degree_sum_condition(cycle_graph(5), bound=4, max_dist=1)
        assert ok
        from quasigraph.generators import path_graph

        ok, pair = check_degree_sum_condition(path_graph(4), bound=4, max_dist=1)
        assert not ok and pair == (0, 1)

    @staticmethod
    def _check_degree_sums(g, bound, max_dist):
        pair = brute_degree_sum_violation(g, bound, max_dist)
        assert check_degree_sum_condition(g, bound, max_dist) == (pair is None, pair), \
            (g.edges(), bound, max_dist)

    @given(graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_degree_sum_matches_pair_scan(self, g, data):
        # the mask check, one ball per vertex that has a partner below the
        # bound, against a distance search over every pair
        bound = data.draw(st.integers(0, 2 * g.n))
        self._check_degree_sums(g, bound, data.draw(st.integers(1, 3)))

    @pytest.mark.parametrize("g", [
        Graph(0), Graph(1), Graph(4), disjoint_union(cycle_graph(5), complete_graph(4)),
        disjoint_union(complete_graph(1), circulant_graph(9, (1, 2))),
    ], ids=["K0", "K1", "E4", "C5+K4", "K1+C9(1,2)"])
    def test_degree_sum_boundary_graphs(self, g):
        for bound in range(2 * g.n + 2):
            for max_dist in range(1, 4):
                self._check_degree_sums(g, bound, max_dist)

    def test_min_degree_condition(self):
        assert check_min_degree_condition(complete_graph(6), 4)       # 5 >= 5
        assert check_min_degree_condition(icosahedron_graph(), 4)     # 5 >= 5
        assert not check_min_degree_condition(circulant_graph(8, (1, 2)), 4)  # 4 < 5


class TestTheorem1:
    def test_icosahedron_verified_with_witness(self):
        rep = verify_claim(icosahedron_graph(), "theorem1", "ico")
        assert rep.status == "verified"
        assert rep.hypotheses_hold and rep.conclusion_holds
        assert rep.witness == {"edge": [0, 1]}

    def test_complete_graph_verified(self):
        assert verify_claim(complete_graph(6), "theorem1").status == "verified"

    def test_c6_vacuous(self):
        rep = verify_claim(cycle_graph(6), "theorem1", "C6")
        assert rep.status == "vacuous"
        assert rep.hypotheses_hold is False and rep.conclusion_holds is None
        assert "kappa=2<5" in rep.witness["failed_hypothesis"]


class TestTheorem2:
    def test_k5_vacuous_on_degree_sum(self):
        rep = verify_claim(complete_graph(5), "theorem2", "K5")
        assert rep.status == "vacuous"
        assert "degree sum" in rep.witness["failed_hypothesis"]

    def test_k6_and_icosahedron_verified(self):
        assert verify_claim(complete_graph(6), "theorem2").status == "verified"
        assert verify_claim(icosahedron_graph(), "theorem2").status == "verified"

    def test_apex_graph_verified(self):
        rep = verify_claim(quasi_5_apex(11, seed=0), "theorem2", "apex")
        assert rep.status == "verified"
        assert rep.witness and "edge" in rep.witness

    def test_squared_cycle_vacuous_not_quasi(self):
        rep = verify_claim(circulant_graph(8, (1, 2)), "theorem2")
        assert rep.status == "vacuous"
        assert "not quasi 5-connected" in rep.witness["failed_hypothesis"]


class TestTheorem2Sharpness:
    """L(Petersen) and L(dodecahedron), the dodecahedron built as GP(10, 2),
    are 4-regular, quasi 5-connected with kappa = 4 and have no quasi
    5-contractible edge: Theorem 2 fails without its degree-sum condition,
    which their degree sums of 8 miss."""

    GRAPH6 = {
        "petersen-line": "N{cOiGDOPCCDAHAC_RG",
        "dodecahedron-line": "]{cOgGD?OA_A?D?@??g?A??T??O??i??Ga??G??gP??@??H?a?G?G_A?@C?O?COA?"
                             "?GcG??HCO",
    }

    @pytest.fixture(scope="class")
    def witnesses(self):
        return {"petersen-line": line_graph(petersen_graph()),
                "dodecahedron-line": line_graph(dodecahedron_graph())}

    @pytest.mark.parametrize("name", ["petersen-line", "dodecahedron-line"])
    def test_sharpness_witness(self, name, witnesses):
        g = witnesses[name]
        assert to_graph6(g) == self.GRAPH6[name]
        assert all(g.degree(v) == 4 for v in g.vertices)
        quasi = is_quasi_k_connected(g, 5)
        assert quasi.holds and quasi.kappa == 4
        ok, pair = check_degree_sum_condition(g, 9, 2)
        assert not ok
        assert is_contraction_critical(g, 5, quasi=True) == (True, None)
        rep = verify_claim(g, "theorem2", name)
        assert rep.status == "vacuous" and rep.hypotheses_hold is False
        assert rep.witness == {"failed_hypothesis": f"degree sum 8<9 for pair {list(pair)}"}

    def test_petersen_line_graph_by_brute_force(self, witnesses):
        g = witnesses["petersen-line"]
        assert brute_vertex_connectivity(g) == 4 and brute_is_quasi_k(g, 5)
        assert not any(brute_is_quasi_k(contract_edge(g, e).graph, 5) for e in g.edges())


class TestDistanceTwoWitnesses:
    """Two nine-vertex graphs with degrees 4,4,4,5,5,5,5,5,5, quasi
    5-connected with kappa = 4 and with no quasi 5-contractible edge. Every
    pair of adjacent vertices has degree sum at least 9, and the first pair
    at distance two that falls short is (6, 7): Theorem 2 needs its
    distance-two clause."""

    GRAPH6 = ["H{S}thk", "Hs\\vUg{"]

    @pytest.mark.parametrize("text", GRAPH6)
    def test_distance_two_witness(self, text):
        g = from_graph6(text)
        assert to_graph6(g) == text
        assert sorted(g.degrees()) == [4, 4, 4, 5, 5, 5, 5, 5, 5]
        quasi = is_quasi_k_connected(g, 5)
        assert quasi.holds and quasi.kappa == 4
        assert check_degree_sum_condition(g, 9, 1) == (True, None)
        assert check_degree_sum_condition(g, 9, 2) == (False, (6, 7))
        assert is_contraction_critical(g, 5, quasi=True) == (True, None)
        rep = verify_claim(g, "theorem2", text)
        assert rep.status == "vacuous" and rep.hypotheses_hold is False
        assert rep.witness == {"failed_hypothesis": "degree sum 8<9 for pair [6, 7]"}

    @pytest.mark.parametrize("text", GRAPH6)
    def test_distance_two_witness_by_brute_force(self, text):
        g = from_graph6(text)
        assert brute_vertex_connectivity(g) == 4 and brute_is_quasi_k(g, 5)
        for e in g.edges():
            brute = brute_is_quasi_k(contract_edge(g, e).graph, 5)
            assert not brute, e
            assert contraction_decision(g, e, 5, True) == brute, e
            assert is_quasi_k_contractible(g, e, 5).quasi_k_contractible == brute, e


class TestOneMessagePerHypothesis:
    """Every claim that fails on the same shared hypothesis reports the same
    message, which names the value that falls short."""

    @staticmethod
    def _messages(g, claims):
        reports = [verify_claim(g, claim) for claim in claims]
        assert all(r.status == "vacuous" and r.hypotheses_hold is False for r in reports)
        return {r.witness["failed_hypothesis"] for r in reports}

    def test_not_quasi_5_connected(self):
        claims = ["theorem2", "lemma2", "lemma3", "lemma5"]
        assert self._messages(circulant_graph(10, (1, 2)), claims) == {
            "not quasi 5-connected (nontrivial-cut, kappa=4)"}

    def test_degree_sum(self):
        claims = ["theorem2", "lemma5", "degree_condition_BC"]
        assert self._messages(from_graph6("H{S}thk"), claims) == {
            "degree sum 8<9 for pair [6, 7]"}


class TestLemmas:
    def test_lemma1_icosahedron_vacuous_not_critical(self):
        rep = verify_claim(icosahedron_graph(), "lemma1")
        assert rep.status == "vacuous"
        assert "not contraction critical" in rep.witness["failed_hypothesis"]

    def test_lemma2_icosahedron_all_edges(self):
        rep = verify_claim(icosahedron_graph(), "lemma2")
        assert rep.status == "verified"
        assert rep.witness == {"configurations": 30}

    def test_lemma2_k5_vacuous_no_configuration(self):
        # contracting any K5 edge leaves minimum degree 3
        rep = verify_claim(complete_graph(5), "lemma2")
        assert rep.status == "vacuous" and rep.hypotheses_hold is True

    def test_lemma2_degree_test_matches_contraction(self, small_corpus, quasi5_corpus):
        # the edges whose contraction keeps minimum degree d, read from the
        # degree masks, against contracting each edge
        for _, g in small_corpus + quasi5_corpus:
            for d in (3, 4, 5):
                assert harness._edges_keeping_min_degree(g, d) == [
                    e for e in g.edges() if contract_edge(g, e).graph.min_degree() >= d], \
                    (g.edges(), d)

    def test_lemma2_witness_runs_under_the_budget(self, monkeypatch):
        # no honest graph falsifies lemma 2, so report every contraction as
        # keeping minimum degree 4: the triangle edges of this apex graph lie
        # in its 4-cut, and the witness gives kappa(G/e), read from G on the
        # claim's own flow context
        g = quasi_5_apex(24, 1, attach_triangle=True)
        monkeypatch.setattr(harness, "_edges_keeping_min_degree", lambda h, d: h.edges())
        rep = verify_claim(g, "lemma2")
        assert rep.status == "falsified"
        e = tuple(rep.witness["edge"])
        assert rep.witness["kappa_after"] == brute_vertex_connectivity(
            contract_edge(g, e).graph) == 3

        # a deadline that passes once the witness edge is reached ends the
        # claim inside the witness
        now, kappa_after = [0.0], harness._kappa_after

        def witness(flows, edge, t):
            assert edge == e
            now[0] = float("inf")
            return kappa_after(flows, edge, t)

        monkeypatch.setattr(harness, "_kappa_after", witness)
        monkeypatch.setattr(connectivity, "monotonic", lambda: now[0])
        assert verify_claim(g, "lemma2", timeout=60).status == "timeout"
        assert now[0] == float("inf")

    def test_lemma3_c6_vacuous(self):
        rep = verify_claim(cycle_graph(6), "lemma3")
        assert rep.status == "vacuous"

    def test_lemma3_apex_triangle_verified(self):
        rep = verify_claim(quasi_5_apex(11, seed=104, attach_triangle=True), "lemma3")
        assert rep.status == "verified"
        assert rep.witness["configurations"] >= 1

    def test_lemma3_small_graph_vacuous(self):
        rep = verify_claim(complete_graph(6), "lemma3")
        assert rep.status == "vacuous"
        assert "n=6<8" in rep.witness["failed_hypothesis"]

    def test_lemma4_on_k44(self):
        from quasigraph.generators import complete_bipartite_graph

        rep = verify_claim(complete_bipartite_graph(4, 4), "lemma4")
        assert rep.status == "verified"
        assert rep.witness["is_critical"] is False
        assert rep.witness["is_regular_triangular"] is False
        assert rep.witness["contractible_edge"] is not None

    def test_lemma4_on_squared_cycle(self):
        rep = verify_claim(circulant_graph(8, (1, 2)), "lemma4")
        assert rep.status == "verified"
        assert rep.witness["is_critical"] is True

    def test_lemma4_vacuous_below_4_connected(self):
        assert verify_claim(cycle_graph(8), "lemma4").status == "vacuous"

    def test_lemma5_glued_vacuous_not_critical(self):
        rep = verify_claim(glued_cliques(7, 5), "lemma5")
        assert rep.status == "vacuous"
        assert "not contraction critical" in rep.witness["failed_hypothesis"]

    def test_unknown_lemma_rejected(self):
        with pytest.raises(ValueError, match="unknown claim 'lemma9'"):
            verify_claim(complete_graph(6), "lemma9")


class TestDegreeConditionClaims:
    def test_A_on_petersen_at_three(self):
        rep = verify_claim(petersen_graph(), "degree_condition_A", k=3)
        assert rep.status == "verified" and rep.witness["k"] == 3

    def test_A_on_icosahedron_at_four(self):
        rep = verify_claim(icosahedron_graph(), "degree_condition_A", k=4)
        assert rep.status == "verified"

    def test_A_vacuous_on_complete(self):
        assert verify_claim(complete_graph(6), "degree_condition_A").status == "vacuous"

    def test_A_vacuous_when_degree_low(self):
        rep = verify_claim(circulant_graph(8, (1, 2)), "degree_condition_A", k=4)
        assert rep.status == "vacuous"
        assert "min degree" in rep.witness["failed_hypothesis"]

    def test_BC_excludes_k7(self):
        rep = verify_claim(complete_graph(9), "degree_condition_BC", k=7)
        assert rep.status == "vacuous"
        assert "k=7" in rep.witness["failed_hypothesis"]

    def test_BC_on_icosahedron(self):
        rep = verify_claim(icosahedron_graph(), "degree_condition_BC", k=4)
        assert rep.status == "verified"

    def test_BC_adjacent_only_branch_at_k8(self):
        g = k12_minus_perfect_matching()
        assert vertex_connectivity(g) >= 8
        rep = verify_claim(g, "degree_condition_BC", k=8)
        assert rep.status == "verified" and rep.witness["k"] == 8


class TestFalsifiedReports:
    # no honest graph falsifies the shipped claims, so hide every
    # contractible edge from the harness
    @pytest.fixture(autouse=True)
    def no_contractible_edge(self, monkeypatch):
        import quasigraph.harness as harness

        monkeypatch.setattr(harness, "_first_contractible_edge", lambda *a, **kw: None)

    def test_theorem1_on_k6(self):
        g = complete_graph(6)
        rep = verify_claim(g, "theorem1", "K6")
        assert (rep.status, rep.hypotheses_hold, rep.conclusion_holds) == (
            "falsified", True, False)
        assert rep.witness == {"graph6": to_graph6(g)}

    def test_degree_condition_A(self):
        g = icosahedron_graph()
        rep = verify_claim(g, "degree_condition_A", "ico", k=4)
        assert (rep.status, rep.hypotheses_hold, rep.conclusion_holds) == (
            "falsified", True, False)
        assert rep.witness == {"k": 4, "graph6": to_graph6(g)}

    def test_lemma5_on_an_edgeless_apex_neighborhood(self):
        # apex 19 is the one degree-4 vertex, its neighborhood has no edge,
        # and the degree sums reach 9 at distance <= 2
        g = quasi_5_apex(20, 5)
        rep = verify_claim(g, "lemma5", "apex")
        assert (rep.status, rep.hypotheses_hold, rep.conclusion_holds) == (
            "falsified", True, False)
        assert rep.witness == {"vertex": 19, "graph6": to_graph6(g)}

    def test_lemma5_on_a_2k2_apex_neighborhood(self):
        rep = verify_claim(quasi_5_apex(20, 1), "lemma5", "apex")
        assert (rep.status, rep.hypotheses_hold, rep.conclusion_holds) == (
            "verified", True, True)
        assert rep.witness is None

    def test_verify_claim_reports_falsified(self):
        rep = verify_claim(complete_graph(6), "theorem1", "K6")
        assert rep.status == "falsified" and rep.witness["graph6"]


class TestVerifyClaimDispatch:
    def test_all_claims_run_on_icosahedron(self):
        for claim in CLAIMS:
            rep = verify_claim(icosahedron_graph(), claim, "ico")
            assert rep.status in ("verified", "vacuous")
            assert rep.elapsed >= 0
            if rep.hypotheses_hold is False:
                assert rep.conclusion_holds is None and rep.status == "vacuous"

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError, match="unknown claim"):
            verify_claim(complete_graph(6), "theorem3")

    def test_one_network_per_claim_call(self, count_calls):
        # the families of the benchmark campaign, smaller: every flow of a
        # claim call, hypotheses and edge search alike, runs on one network
        # of G, built at the call's first flow, so a call that runs no flow
        # builds none; and no edge is contracted
        graphs = generate_corpus({"corpus": [
            {"family": "random_5_connected", "params": {"n": [10, 12]}, "count": 2, "seed": 1},
            {"family": "quasi_5_apex", "params": {"n": [10, 12]}, "count": 2, "seed": 1},
            {"family": "quasi_5_apex", "params": {"n": [10, 12], "attach_triangle": True},
             "seed": 1},
            {"family": "circulant", "params": {"n": [10, 12], "jumps": [1, 2, 3]}},
            {"family": "icosahedron"},
        ]})
        calls = count_calls("_split_network", "contract_edge", "_vertex_connectivity_with_cut",
                            "_local_vertex_cut")
        built = []
        for graph_id, g in graphs:
            for claim in CLAIMS:
                calls.update(_split_network=0, contract_edge=0, _vertex_connectivity_with_cut=0,
                             _local_vertex_cut=0)
                assert verify_claim(g, claim, graph_id).status in ("verified", "vacuous")
                assert calls["_vertex_connectivity_with_cut"] <= 1, (graph_id, claim)
                assert calls["contract_edge"] == 0, (graph_id, claim)
                assert calls["_split_network"] == (calls["_local_vertex_cut"] > 0), (
                    graph_id, claim)
                built.append(calls["_split_network"])
        # 80 of the 171 claim calls run no flow, where each built a network
        assert (len(built), sum(built)) == (171, 91)

    @pytest.mark.parametrize("claim", CLAIMS)
    def test_timeout_reports_timeout(self, claim):
        rep = verify_claim(circulant_graph(20, (1, 2, 3)), claim, timeout=0.0)
        assert rep.status == "timeout"
        assert rep.hypotheses_hold is None and rep.conclusion_holds is None

    def test_no_public_callable_takes_a_deadline(self):
        # a claim's one budget is verify_claim's timeout; the deadline it
        # sets stays on the private flow context
        modules = [quasigraph] + [importlib.import_module(f"quasigraph.{info.name}")
                                  for info in pkgutil.iter_modules(quasigraph.__path__)]
        checked = set()
        for module in modules:
            for name, obj in vars(module).items():
                if name.startswith("_") or not callable(obj) \
                        or not getattr(obj, "__module__", "").startswith("quasigraph") \
                        or isinstance(obj, type) and issubclass(obj, Exception):
                    continue
                assert "deadline" not in inspect.signature(obj).parameters, \
                    f"{module.__name__}.{name}"
                checked.add(obj)
        assert verify_claim in checked and run_campaign in checked

    def test_no_public_callable_takes_a_flow_context(self):
        # a public function takes a Graph and builds its own context; the
        # harness and the CLI call the private functions on theirs
        modules = [quasigraph] + [importlib.import_module(f"quasigraph.{info.name}")
                                  for info in pkgutil.iter_modules(quasigraph.__path__)]
        checked = set()
        for module in modules:
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or not obj.__module__.startswith("quasigraph"):
                    continue
                params = inspect.signature(obj).parameters.values()
                assert not any(p.name == "flows" or "_Flows" in str(p.annotation)
                               for p in params), f"{module.__name__}.{name}"
                checked.add(obj)
        assert "cuts" not in inspect.signature(quasigraph.nontrivial_atom).parameters
        assert {quasigraph.vertex_connectivity, quasigraph.is_quasi_k_connected,
                quasigraph.is_contraction_critical, quasigraph.nontrivial_atom} <= checked


def test_readme_library_block_runs():
    # README's first python block runs as written, and each commented line
    # evaluates to the value its comment starts with
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    values = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if comment and not code.startswith("g = "):
            value = eval(code, namespace)
            assert value == ast.literal_eval(comment.split(",")[0]), line
            values.append(value)
    assert values == [5, True, (), "verified"]


class TestRunCampaign:
    SPEC = {"corpus": [
        {"family": "complete", "params": {"n": [6, 8]}},
        {"family": "icosahedron"},
        {"family": "random_5_connected", "params": {"n": 9}, "count": 2, "seed": 5},
    ]}

    def test_summary_counts(self, tmp_path):
        out = tmp_path / "reports.jsonl"
        summary = run_campaign(generate_corpus(self.SPEC), ["theorem1", "lemma2"], out)
        assert summary["graphs"] == 6
        assert summary["counts"]["verified"] == 12
        assert summary["counts"]["falsified"] == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        first = json.loads(lines[0])
        assert first["graph_id"] == "K6" and first["claim"] == "theorem1"
        assert "elapsed" not in first  # canonical output carries no timing

    def test_complete_six_to_nine_all_verified(self, tmp_path):
        corpus = generate_corpus({"corpus": [{"family": "complete", "params": {"n": [6, 9]}}]})
        summary = run_campaign(corpus, ["theorem1"], tmp_path / "kn.jsonl")
        assert summary["counts"] == {
            "verified": 4, "vacuous": 0, "falsified": 0, "timeout": 0}

    def test_squared_cycle_lemma4_verified(self, tmp_path):
        pairs = [("C8(1,2)", circulant_graph(8, (1, 2)))]
        summary = run_campaign(pairs, ["lemma4"], tmp_path / "m.jsonl")
        assert summary["counts"]["verified"] == 1

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_campaign(generate_corpus(self.SPEC), ["theorem2", "lemma3", "lemma4"], a)
        run_campaign(generate_corpus(self.SPEC), ["theorem2", "lemma3", "lemma4"], b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_bytes_pinned(self, tmp_path):
        # sha256 of the all-claims report; a deliberate schema change
        # updates this digest and is listed in CHANGES.md
        out = tmp_path / "pinned.jsonl"
        run_campaign(generate_corpus(self.SPEC), CLAIMS, out, exhaustive=True)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0d7b10357e3f2d5246a26d9dc864475e19a80fb1a8e6cd4292918982dcc52295")

    def test_empty_corpus(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        summary = run_campaign([], ["theorem1"], out)
        assert summary["counts"] == {
            "verified": 0, "vacuous": 0, "falsified": 0, "timeout": 0}
        assert out.read_text() == ""

    def test_accepts_prebuilt_graph_list(self, tmp_path):
        pairs = [("K6", complete_graph(6)), ("C6", cycle_graph(6))]
        summary = run_campaign(pairs, ["theorem1"], tmp_path / "r.jsonl")
        assert summary["counts"]["verified"] == 1
        assert summary["counts"]["vacuous"] == 1

    def test_accepts_any_iterable_of_pairs(self, tmp_path):
        pairs = [("K6", complete_graph(6)), ("C6", cycle_graph(6))]
        run_campaign(pairs, ["theorem1"], tmp_path / "list.jsonl")
        for name, corpus in [("tuple", tuple(pairs)), ("generator", (pair for pair in pairs))]:
            out = tmp_path / f"{name}.jsonl"
            summary = run_campaign(corpus, ["theorem1"], out)
            assert summary["graphs"] == 2 and summary["errors"] == 0, name
            assert out.read_bytes() == (tmp_path / "list.jsonl").read_bytes(), name

    def test_unknown_claim_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_campaign(generate_corpus(self.SPEC), ["nope"], tmp_path / "x.jsonl")

    def test_failing_graph_reported_as_error(self, tmp_path):
        out = tmp_path / "err.jsonl"
        pairs = [("K6", complete_graph(6)), ("E0", Graph(0)), ("K7", complete_graph(7))]
        summary = run_campaign(pairs, ["theorem1"], out)
        assert summary["counts"] == {
            "verified": 2, "vacuous": 0, "falsified": 0, "timeout": 0}
        assert summary["errors"] == 1
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["graph_id"] for r in reports] == ["K6", "E0", "K7"]
        assert reports[1] == {
            "graph_id": "E0", "claim": "theorem1", "status": "error",
            "hypotheses_hold": None, "conclusion_holds": None,
            "witness": {"error": "ValueError: empty graph"}}

    def test_clean_campaign_counts_no_errors(self, tmp_path):
        summary = run_campaign([("K6", complete_graph(6))], ["theorem1"], tmp_path / "k.jsonl")
        assert summary["errors"] == 0

    def test_output_appears_only_when_complete(self, tmp_path, monkeypatch):
        out = tmp_path / "atomic.jsonl"
        out.write_text("previous\n")
        calls = []

        def interrupted(g, claim, graph_id="", **kwargs):
            calls.append(graph_id)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return verify_claim(g, claim, graph_id, **kwargs)

        monkeypatch.setattr(harness, "verify_claim", interrupted)
        pairs = [("K6", complete_graph(6)), ("K7", complete_graph(7))]
        with pytest.raises(KeyboardInterrupt):
            run_campaign(pairs, ["theorem1"], out)
        assert out.read_text() == "previous\n"
        monkeypatch.setattr(harness, "verify_claim", verify_claim)
        run_campaign(pairs, ["theorem1"], out)
        assert len(out.read_text().splitlines()) == 2
        assert not (tmp_path / "atomic.jsonl.tmp").exists()

    def test_calls_verify_claim_once_per_pair(self, tmp_path, monkeypatch):
        # every (graph, claim) goes through the module-level verify_claim,
        # the shared searches included, so a wrapper bound in its place (as
        # the benchmark's verdict timer is) sees every call and changes none
        seen, dicts = [], []

        def counting(g, claim, graph_id="", **kwargs):
            seen.append((graph_id, claim))
            dicts.append(kwargs["_searches"])
            return verify_claim(g, claim, graph_id, **kwargs)

        monkeypatch.setattr(harness, "verify_claim", counting)
        pairs = [("C8(1,2)", circulant_graph(8, (1, 2))), ("icosahedron", icosahedron_graph()),
                 ("E0", Graph(0))]
        claims = ["theorem1", "lemma4", "lemma5"]
        run_campaign(pairs, claims, tmp_path / "c.jsonl")
        assert seen == [(graph_id, claim) for graph_id, _ in pairs for claim in claims]
        # one dict per graph, shared by its claims and by no other graph's
        per_graph = [dicts[i:i + len(claims)] for i in range(0, len(dicts), len(claims))]
        assert all(d is claim_dicts[0] for claim_dicts in per_graph for d in claim_dicts)
        assert len({id(claim_dicts[0]) for claim_dicts in per_graph}) == len(pairs)
        # C8(1,2) has kappa = 4, so only lemma 4 searches, and finds it
        # contraction critical; the icosahedron's theorem 1 edge also
        # refutes lemma 5's criticality; E0 raises before any search
        assert [claim_dicts[0] for claim_dicts in per_graph] == [
            {(4, False): None}, {(5, True): (0, 1), (4, False): (0, 1)}, {}]

    @pytest.mark.parametrize("k", [None, 4])
    def test_shared_searches_change_no_line(self, tmp_path, monkeypatch, small_corpus, k):
        # the campaign shares each graph's searches among its claims; the
        # same campaign with one independent verify_claim call per pair, no
        # search shared, writes the same bytes, errors included
        pairs = small_corpus + quasi_five_corpus(12)
        shared, independent = tmp_path / "shared.jsonl", tmp_path / "independent.jsonl"
        run_campaign(pairs, CLAIMS, shared, k=k)

        def unshared(*args, _searches, **kwargs):
            return verify_claim(*args, **kwargs)

        monkeypatch.setattr(harness, "verify_claim", unshared)
        run_campaign(pairs, CLAIMS, independent, k=k)
        assert shared.read_text().splitlines() == independent.read_text().splitlines()


class TestGenerateCorpus:
    def test_families_validate_their_claims(self):
        pairs = generate_corpus({"corpus": [
            {"family": "complete", "params": {"n": 6}},
            {"family": "circulant", "params": {"n": 9, "jumps": [1, 2]}},
            {"family": "icosahedron"},
            {"family": "quasi_5_apex", "params": {"n": 10}, "count": 1, "seed": 2},
            {"family": "random_5_connected", "params": {"n": [9, 10]}, "count": 2, "seed": 4},
            {"family": "quasi_5_apex", "params": {"n": 11, "attach_triangle": True}},
        ]})
        ids = [gid for gid, _ in pairs]
        assert ids == ["K6", "C9(1,2)", "icosahedron", "apex4-n10-s2",
                       "rand5-n9-s4", "rand5-n9-s5", "rand5-n10-s4", "rand5-n10-s5",
                       "apex4-n11-s0-tri"]
        by_id = dict(pairs)
        assert vertex_connectivity(by_id["K6"]) == 5
        assert all(by_id["C9(1,2)"].degree(v) == 4 for v in range(9))
        assert vertex_connectivity(by_id["C9(1,2)"]) == 4
        assert by_id["icosahedron"].n == 12
        assert all(vertex_connectivity(g) >= 5 for gid, g in pairs if gid.startswith("rand5"))
        tri = by_id["apex4-n11-s0-tri"]
        assert tri.degree(10) == 4 and vertex_connectivity(tri) == 4
        assert any(tri.has_edge(a, b) and tri.has_edge(a, c) and tri.has_edge(b, c)
                   for a, b, c in combinations(tri.neighbors(10), 3))

    def test_deterministic_for_fixed_seed(self):
        spec = CorpusSpec("random_5_connected", {"n": 10}, count=3, seed=9)
        a = generate_corpus(spec)
        b = generate_corpus(spec)
        assert a == b

    def test_file_families(self, tmp_path):
        from quasigraph import io as gio

        g6 = tmp_path / "pool.g6"
        gio.write_graph6_file(g6, [complete_graph(6), cycle_graph(5)])
        el = tmp_path / "one.edges"
        gio.write_edge_list_file(el, petersen_graph())
        pairs = generate_corpus({"corpus": [
            {"family": "graph6_file", "params": {"path": str(g6)}},
            {"family": "edge_list_file", "params": {"path": str(el)}},
        ]})
        assert [g for _, g in pairs] == [complete_graph(6), cycle_graph(5),
                                         petersen_graph()]
        assert [gid for gid, _ in pairs] == ["pool.g6:0", "pool.g6:1", "one.edges"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate_corpus({"corpus": [{"family": "hypercube"}]})
        with pytest.raises(ValueError, match="^unknown family 'hypercube'; known: "):
            CorpusSpec("hypercube")

    def test_unsatisfiable_spec_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus({"corpus": [
                {"family": "random_5_connected", "params": {"n": 5}}]})
