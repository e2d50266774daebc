import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quasigraph.connectivity as connectivity
import quasigraph.contractibility as contractibility
from quasigraph.cli import _analyze_one
from quasigraph.connectivity import (
    _Flows,
    is_quasi_k_connected,
    vertex_connectivity,
)
from quasigraph.contractibility import (
    _classify,
    _contracts_to,
    _first_contractible_edge,
    _kappa_after,
    compute_E0,
    contraction_reports,
    is_contraction_critical,
    is_k_contractible,
    is_quasi_k_contractible,
    is_regular_triangular,
)
from quasigraph.core import Graph, contract_edge
from quasigraph.generators import (
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    glued_cliques,
    icosahedron_graph,
    petersen_graph,
    quasi_5_apex,
)

from corpus import (
    all_small_graphs,
    dodecahedron_graph,
    induced_subgraph,
    line_graph,
    planted_graphs,
    planted_pair,
)
from oracles import (
    adjacency_sets,
    brute_cuts_of_size,
    brute_is_quasi_k,
    brute_nontrivial,
    brute_vertex_connectivity,
    components_of,
    contracted_min_degree,
    contraction_decision,
    contraction_report,
    is_disconnected,
)


class TestIsKContractible:
    def test_k6_at_four_and_five(self):
        g = complete_graph(6)
        assert is_k_contractible(g, (0, 1), 4) is True   # kappa(K5) = 4
        assert is_k_contractible(g, (0, 1), 5) is False

    def test_icosahedron_has_no_5_contractible_edge(self):
        g = icosahedron_graph()
        for e in g.edges():
            contracted = contract_edge(g, e).graph
            assert brute_vertex_connectivity(contracted) == 4
            assert is_k_contractible(g, e, 5) is False

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            is_k_contractible(cycle_graph(5), (0, 2), 2)

    @pytest.mark.parametrize("e", [(-1, 0), (0, -1), (7, 0), (0, 5)])
    def test_out_of_range_ids_rejected(self, e):
        with pytest.raises(ValueError, match="not an edge"):
            is_k_contractible(cycle_graph(5), e, 2)


class TestIsQuasiKContractible:
    def test_k6_edge_reports_true(self):
        rep = is_quasi_k_contractible(complete_graph(6), (0, 1), 5)
        assert rep.quasi_k_contractible is True
        assert rep.kappa_after == 4
        assert rep.k_contractible is False
        assert rep.in_E0 is False
        assert rep.refuting_cut is None

    def test_icosahedron_has_a_witness(self):
        g = icosahedron_graph()
        reports = [is_quasi_k_contractible(g, e, 5) for e in g.edges()]
        assert any(r.quasi_k_contractible for r in reports)

    def test_hypothesis_violated(self):
        with pytest.raises(ValueError, match="hypothesis violated"):
            is_quasi_k_contractible(cycle_graph(6), (0, 1), 5)

    def test_e0_edge_report_carries_certificate(self):
        g = glued_cliques(7, 5)
        rep = is_quasi_k_contractible(g, (0, 1), 5)
        assert rep.in_E0 is True
        assert rep.quasi_k_contractible is False
        assert rep.kappa_after >= 4
        cut = rep.refuting_cut
        assert cut is not None and cut.nontrivial and cut.size == 4
        # the pre-image expands the merged vertex back to both endpoints
        pre = set(rep.refuting_cut_preimage)
        assert {0, 1} <= pre and len(pre) == 5

    def test_report_invariants_on_apex(self):
        g = quasi_5_apex(10, seed=2)
        for rep in contraction_reports(g, 5):
            if rep.quasi_k_contractible:
                assert rep.kappa_after >= 4
                assert rep.refuting_cut is None
            else:
                assert rep.refuting_cut is not None
            assert rep.in_E0 == (rep.kappa_after >= 4 and not rep.quasi_k_contractible)

    def test_json_round_trip_shape(self):
        rep = is_quasi_k_contractible(glued_cliques(7, 5), (0, 1), 5)
        obj = rep.to_json()
        assert obj["edge"] == [0, 1]
        assert obj["in_E0"] is True
        assert obj["refuting_cut"]["nontrivial"] is True

    def test_planted_e0_edge(self):
        # (35, 36) is the one edge inside the planted nontrivial 5-cut
        # (33, ..., 37); the refuting 4-cut of G/e is its image, far past
        # the first n^2 4-subsets of G/e
        g = planted_pair(40, 5)
        rep = is_quasi_k_contractible(g, (35, 36), 5)
        assert rep.in_E0 and rep.refuting_cut_preimage == (33, 34, 35, 36, 37)
        assert rep == next(r for r in contraction_reports(g, 5) if r.edge == (35, 36))


class TestComputeE0:
    def test_complete_graph_empty(self):
        assert compute_E0(complete_graph(6), 5) == ()

    def test_icosahedron_empty_by_full_scan(self):
        # edge transitive: one quasi 5-contractible edge makes all of them so
        assert compute_E0(icosahedron_graph(), 5) == ()

    def test_glued_cliques_shared_edges(self):
        e0 = compute_E0(glued_cliques(7, 5), 5)
        assert e0 == tuple((u, v) for u in range(5) for v in range(u + 1, 5))

    def test_edge_classes_partition_edge_set(self, quasi5_corpus):
        sample = [g for gid, g in quasi5_corpus if g.n <= 10][:10]
        for g in sample:
            reports = contraction_reports(g, 5)
            assert [r.edge for r in reports] == g.edges()
            for r in reports:
                classes = [r.quasi_k_contractible, r.in_E0, r.kappa_after < 4]
                assert classes.count(True) == 1


def _quasi_pairs(corpus, max_n, ks=(4, 5)):
    """(graph, k) for k in ks wherever the graph is quasi k-connected."""
    return [(g, k) for _, g in corpus if g.n <= max_n for k in ks
            if is_quasi_k_connected(g, k).holds]


def _check_against_single_edge_reports(g, k):
    """contraction_reports and is_quasi_k_contractible, and four flags of
    the class pass (quasi k-contractible, in E0, drops kappa,
    k-contractible), against the single-edge oracle, which contracts each
    edge and tests G/e."""
    expected = [contraction_report(g, e, k) for e in g.edges()]
    assert contraction_reports(g, k) == expected, (g.edges(), k)
    assert [is_quasi_k_contractible(g, e, k) for e in g.edges()] == expected, (g.edges(), k)
    flows = _Flows(g)
    classes = _classify(flows, k)
    assert [(c.quasi_k_contractible, c.in_E0, c.kappa_after < k - 1, c.kappa_after >= k)
            for c in classes] == [
        (r.quasi_k_contractible, r.in_E0, r.kappa_after < k - 1, r.k_contractible)
        for r in expected], (g.edges(), k)


class TestContractionReportsFromCuts:
    def test_report_bytes_pinned(self, small_corpus):
        # sha256 of contraction_reports over the fixture corpus, one line per
        # quasi k-connected (graph, k), k in (4, 5); a deliberate change to
        # the report updates this digest and is listed in CHANGES.md
        lines = 0
        h = hashlib.sha256()
        for gid, g in small_corpus:
            for k in (4, 5):
                if is_quasi_k_connected(g, k).holds:
                    reports = [r.to_json() for r in contraction_reports(g, k)]
                    h.update((json.dumps({"graph_id": gid, "k": k, "reports": reports},
                                         sort_keys=True) + "\n").encode())
                    lines += 1
        assert lines == 183
        assert h.hexdigest() == (
            "7d54b145869cb90754c91dfb385906a655933e2254895bd5d073684497f257bb")

    def test_cut_facts_match_oracles(self, small_corpus, quasi5_corpus):
        # the facts contraction_reports rests on, checked edge by edge
        # against brute force on the contracted graph; a complete graph has
        # no cuts, and contraction_reports sends its edges to max-flow
        checked = 0
        for g, k in _quasi_pairs(small_corpus + quasi5_corpus, 10):
            if g.is_complete():
                continue
            adj = adjacency_sets(g)
            low = [set(t) for t in brute_cuts_of_size(g, k - 1)]
            high = [set(t) for t in brute_cuts_of_size(g, k)] if k < g.n else []
            nontrivial_high = [t for t in high if brute_nontrivial(
                [len(c) for c in components_of(adj, t)])]
            for x, y in g.edges():
                contracted = contract_edge(g, (x, y)).graph
                kappa_after = brute_vertex_connectivity(contracted)
                drops = any({x, y} <= t for t in low)
                assert drops == (kappa_after < k - 1), (g.edges(), k, (x, y))
                if drops:
                    assert kappa_after == k - 2
                    continue
                if not contracted.is_complete():
                    assert (kappa_after == k - 1) == (
                        any(not {x, y} & t for t in low)
                        or any({x, y} <= t for t in high))
                # kappa(G/e) >= k makes G/e quasi k-connected outright
                in_e0 = kappa_after == k - 1 and not brute_is_quasi_k(contracted, k)
                assert in_e0 == any({x, y} <= t for t in nontrivial_high)
                checked += 1
        assert checked > 1000

    def test_contracted_min_degree_matches_contraction(self, small_corpus, quasi5_corpus):
        # the reference that lemma 2's mask test is checked against
        for _, g in small_corpus + quasi5_corpus:
            for e in g.edges():
                assert contracted_min_degree(g, e) == contract_edge(g, e).graph.min_degree()

    def test_contracted_min_degree_rejects_non_edge(self):
        with pytest.raises(ValueError, match="not an edge"):
            contracted_min_degree(cycle_graph(5), (0, 2))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_single_edge_reports(self, k, small_corpus, quasi5_corpus):
        # every graph on <= 5 vertices, for the edges whose G/e is complete
        pool = (small_corpus + quasi5_corpus + [("K", complete_graph(n)) for n in (5, 6, 7)]
                + [("small", g) for g in all_small_graphs(5)])
        for g, _ in _quasi_pairs(pool, 10, (k,)):
            _check_against_single_edge_reports(g, k)

    @given(planted_graphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_single_edge_reports_property(self, gk):
        # n >= 2k+2, so the k-cuts are listed from flows, not scanned
        g, k = gk
        assume(is_quasi_k_connected(g, k).holds)
        _check_against_single_edge_reports(g, k)

    @pytest.mark.parametrize("g, analyze", [
        (quasi_5_apex(24, 1), True),
        (quasi_5_apex(40, 1), False),
        (icosahedron_graph(), False),  # kappa = k
    ], ids=["analyze-apex24", "reports-apex40", "reports-icosahedron"])
    def test_no_subset_walk(self, g, analyze, monkeypatch):
        # the k-cuts come from flows: no k-subset of G is walked
        walks = []
        scan = connectivity._cuts

        def counted(h, size, limit=None):
            walks.append((h.n, size))
            return scan(h, size, limit)

        monkeypatch.setattr(connectivity, "_cuts", counted)
        if analyze:
            _analyze_one("x", g, 5)
        else:
            contraction_reports(g, 5)
        assert walks == []

    @pytest.mark.parametrize("g, analyze", [
        (quasi_5_apex(24, 1), True),
        (quasi_5_apex(24, 1, attach_triangle=True), True),
        (quasi_5_apex(40, 1), False),
    ], ids=["analyze-apex24", "analyze-apex24-triangle", "E0-apex40"])
    def test_no_contraction_and_one_kappa(self, g, analyze, count_calls):
        # analyze and compute_E0 read the edge classes: the quasi test's one
        # pass of the kappa flow pairs is the only kappa computation, on any
        # graph, and it lists the 4-cuts, so no listing of minimum cuts runs
        calls = count_calls("contract_edge", "_vertex_connectivity_with_cut", "_min_separators")
        if analyze:
            assert _analyze_one("x", g, 5)["kappa_dropping_edges"]
        else:
            assert compute_E0(g, 5) == ()
        assert calls == {"contract_edge": 0, "_vertex_connectivity_with_cut": 1,
                         "_min_separators": 0}

    def test_hypothesis_violated(self):
        with pytest.raises(ValueError, match="hypothesis violated"):
            contraction_reports(circulant_graph(8, (1, 2)), 5)

    @pytest.mark.parametrize("g", [
        quasi_5_apex(40, 1), quasi_5_apex(24, 1, attach_triangle=True),
        icosahedron_graph(), planted_pair(40, 5),
    ], ids=["apex40", "apex24-triangle", "icosahedron", "planted40"])
    def test_reports_contract_nothing(self, g, count_calls):
        # every report, and every single-edge report, is read off G's own
        # cuts and network: kappa-dropping, E0 and kappa(G/e) >= k alike
        calls = count_calls("contract_edge", "_split_network")
        reports = contraction_reports(g, 5)
        assert calls == {"contract_edge": 0, "_split_network": 1}
        assert is_quasi_k_contractible(g, g.edges()[-1], 5) == reports[-1]
        assert calls == {"contract_edge": 0, "_split_network": 2}


class TestKappaAfter:
    """kappa(G/e) read from G and its kappa, against brute force on G/e,
    for any G: both sides capped at t, and exact at t = None."""

    @staticmethod
    def _check(graphs):
        checked = 0
        for g in graphs:
            flows = _Flows(g)
            for e in g.edges():
                expected = brute_vertex_connectivity(contract_edge(g, e).graph)
                for t in [None, 2, 3, 4, 5, 6]:
                    cap = g.n if t is None else t
                    assert min(_kappa_after(flows, e, t), cap) == min(expected, cap), (
                        g.edges(), e, t)
                    checked += 1
        return checked

    def test_all_small_graphs(self):
        assert self._check(all_small_graphs(5)) == 6 * 5325

    def test_fixture_corpus(self, small_corpus):
        assert self._check(g for _, g in small_corpus) == 6 * 5090

    def test_quasi_five_corpus(self, quasi5_corpus):
        assert self._check(g for _, g in quasi5_corpus) == 6 * 3857

    def test_outside_the_hypothesis(self):
        # kappa(G) = 1 < kappa(G - 5 - 6) + 1 = 5: the cut {0} of G avoids
        # 5 and 6 and keeps kappa(G/56) at 1
        g = Graph(7, complete_graph(5).edges() + [(5, 6), (0, 5), (0, 6)])
        assert self._check([g]) == 6 * g.edge_count
        assert _kappa_after(_Flows(g), (5, 6)) == 1


class TestContractionCritical:
    def test_icosahedron_plain_critical(self):
        assert is_contraction_critical(icosahedron_graph(), 5) == (True, None)

    def test_icosahedron_not_quasi_critical(self):
        critical, witness = is_contraction_critical(icosahedron_graph(), 5, quasi=True)
        assert critical is False and witness == (0, 1)

    def test_k6_not_critical_at_four(self):
        critical, witness = is_contraction_critical(complete_graph(6), 4)
        assert critical is False and witness == (0, 1)

    def test_hypothesis_checked(self):
        with pytest.raises(ValueError, match="hypothesis violated"):
            is_contraction_critical(cycle_graph(6), 5)
        with pytest.raises(ValueError, match="hypothesis violated"):
            is_contraction_critical(circulant_graph(8, (1, 2)), 5, quasi=True)

    def test_hypothesis_checked_where_the_edge_rule_fails(self):
        # K5 on 0..4 and the edge 56, joined to the rest through 0 only:
        # kappa(G) = 1, and the edge rule, which holds only for G
        # 3-connected, accepts (5, 6) as G - 5 - 6 = K5, though G/56 still
        # has the cut vertex 0
        g = Graph(7, complete_graph(5).edges() + [(5, 6), (0, 5), (0, 6)])
        assert _first_contractible_edge(_Flows(g), 3, False) == (5, 6)
        assert brute_vertex_connectivity(contract_edge(g, (5, 6)).graph) == 1
        with pytest.raises(ValueError, match="hypothesis violated"):
            is_contraction_critical(g, 3)


class TestFirstContractibleEdge:
    @pytest.mark.parametrize("quasi", [True, False])
    def test_matches_oracles_on_corpora(self, quasi, small_corpus, quasi5_corpus):
        # the witness is the first sorted edge whose contraction the oracle
        # accepts; None when the oracle accepts none. Every graph meets the
        # hypothesis the search checks: g quasi 5-connected, or kappa(g) >= k
        graphs = [g for _, g in small_corpus + quasi5_corpus if 2 <= g.n <= 10]
        for g in graphs:
            k = 5 if quasi else brute_vertex_connectivity(g)
            if not (brute_is_quasi_k(g, 5) if quasi else k >= 2):
                continue
            expected = None
            for e in g.edges():
                contracted = contract_edge(g, e).graph
                if (brute_is_quasi_k(contracted, k) if quasi
                        else brute_vertex_connectivity(contracted) >= k):
                    expected = e
                    break
            assert is_contraction_critical(g, k, quasi) == (expected is None, expected), \
                (g.edges(), k)


@st.composite
def graphs_with_an_edge(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return Graph(n, edges), draw(st.sampled_from(sorted(edges)))


def _hypotheses(g, k):
    """The modes of `_contracts_to` whose hypothesis g meets at k: False
    when kappa(g) >= k, True when g is quasi k-connected."""
    modes = [False] if vertex_connectivity(g) >= k else []
    return modes + [True] if k >= 2 and is_quasi_k_connected(g, k).holds else modes


class TestContractsTo:
    """The yes/no decision, read from G - x - y under its hypothesis on G,
    against brute force on G/e and against the contraction oracle; and
    `is_k_contractible` on any graph."""

    @staticmethod
    def _check(g, ks):
        """Every edge against brute force on G/e: kappa(G/e) >= k through
        `is_k_contractible` on any g, and each mode of `_contracts_to` whose
        hypothesis g meets. Returns the number of rule decisions checked."""
        checked = 0
        flows = _Flows(g)
        for k in ks:
            modes = _hypotheses(g, k)
            for e in g.edges():
                h = contract_edge(g, e).graph
                kappa = brute_vertex_connectivity(h)
                assert is_k_contractible(g, e, k) == (kappa >= k), (g.edges(), e, k)
                # brute_is_quasi_k(h, k) is kappa >= k outside kappa = k - 1
                quasi = kappa >= k or (kappa == k - 1 and brute_is_quasi_k(h, k))
                for mode in modes:
                    expected = quasi if mode else kappa >= k
                    assert _contracts_to(flows, e, k, mode) == expected, (g.edges(), e, k, mode)
                    checked += 1
        return checked

    def test_matches_oracles_on_corpora(self, small_corpus, quasi5_corpus):
        checked = sum(self._check(g, (4, 5)) for _, g in small_corpus + quasi5_corpus
                      if g.n <= 10)
        assert checked == 11024

    def test_boundary_graphs(self):
        # G/e is K1, K2, C4, disconnected, or complete; G - x - y is empty
        # (K2), complete, or disconnected
        graphs = [complete_graph(2), complete_graph(3), cycle_graph(5),
                  disjoint_union(complete_graph(2), complete_graph(3)),
                  disjoint_union(cycle_graph(5), complete_graph(1)),
                  complete_graph(5), complete_graph(6),
                  disjoint_union(complete_graph(3), cycle_graph(4))]
        for g in graphs:
            self._check(g, range(6))

    @given(graphs_with_an_edge(), st.integers(2, 5))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracles_property(self, ge, k):
        # any graph: is_k_contractible, and each mode whose hypothesis holds
        self._check(ge[0], (k,))

    def test_matches_contraction_on_corpora(self, small_corpus, quasi5_corpus):
        # every (edge, k, mode) of both corpora and of every graph on at
        # most 5 vertices where the hypothesis holds
        graphs = [g for _, g in small_corpus + quasi5_corpus] + all_small_graphs(5)
        decisions = 0
        for g in graphs:
            flows = _Flows(g)
            for k in range(2, 7):
                for quasi in _hypotheses(g, k):
                    for e in g.edges():
                        assert _contracts_to(flows, e, k, quasi) == contraction_decision(
                            g, e, k, quasi), (g.edges(), e, k, quasi)
                        decisions += 1
        assert decisions == 58928

    @pytest.mark.parametrize("g, e", [
        (complete_graph(2), (0, 1)),  # G - x - y is empty
        (complete_graph(3), (0, 1)),  # G - x - y is K1
        *[(complete_graph(k), (0, 1)) for k in range(4, 8)],  # K_k and K_(k+1)
        (Graph(5, [e for e in complete_graph(5).edges() if e != (0, 2)]), (0, 1)),
        # G - x - y = K4 on 2..5 is complete and G/e is not: 5 misses x and y
        (Graph(6, [(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
               + [(v, w) for v in (0, 1) for w in (2, 3, 4)]), (0, 1)),
        # G - x - y is disconnected: two single vertices, then two edges
        (Graph(4, [e for e in complete_graph(4).edges() if e != (2, 3)]), (0, 1)),
        (Graph(6, [(0, 1), (2, 3), (4, 5)] + [(v, w) for v in (0, 1) for w in range(2, 6)]),
         (0, 1)),
    ])
    def test_boundaries(self, g, e):
        checked = 0
        for k in range(2, 7):
            for quasi in _hypotheses(g, k):
                assert _contracts_to(_Flows(g), e, k, quasi) == contraction_decision(
                    g, e, k, quasi), (g.edges(), k, quasi)
                checked += 1
        assert checked
        self._check(g, range(2, 7))

    @given(planted_graphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_contraction_property(self, gk):
        g, k = gk
        flows = _Flows(g)
        for quasi in _hypotheses(g, k):
            for e in g.edges():
                assert _contracts_to(flows, e, k, quasi) == contraction_decision(
                    g, e, k, quasi), (g.edges(), e, k, quasi)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_is_k_contractible_outside_the_hypothesis(self, k):
        # K5 on 0..4 and the edge 56, joined to the rest through 0 only:
        # kappa(G) = kappa(G/56) = 1, while kappa(G - 5 - 6) = 4 would make
        # the rule, which needs kappa(G) >= k, accept the edge
        g = Graph(7, complete_graph(5).edges() + [(5, 6), (0, 5), (0, 6)])
        assert vertex_connectivity(g) == 1
        assert vertex_connectivity(contract_edge(g, (5, 6)).graph) == 1
        assert brute_vertex_connectivity(induced_subgraph(g, range(5))[0]) == 4
        assert _contracts_to(_Flows(g), (5, 6), k, quasi=False) is True
        assert is_k_contractible(g, (5, 6), k) is False

    def test_quasi_decision_is_one_listing(self, monkeypatch):
        # every icosahedron edge has kappa(G - x - y) = 3 = k - 2, so each
        # decision needs the separators of that size: one flow per pair of
        # G - x - y lists them and would meet any smaller one. The context
        # has checked the hypothesis first, as every caller does, so the
        # kappa that rule A reads is known and no decision runs a kappa pass
        g = icosahedron_graph()
        flows = _Flows(g)
        assert flows.quasi(5).holds and flows.kappa == 5
        calls = []
        flow = connectivity._local_vertex_cut

        def counted(*args):
            calls.append(args[1:3])
            return flow(*args)

        monkeypatch.setattr(connectivity, "_local_vertex_cut", counted)
        for e in g.edges():
            pairs = connectivity._flow_pairs(g, g.full_mask & ~(1 << e[0] | 1 << e[1]))
            calls.clear()
            assert _contracts_to(flows, e, 5, quasi=True) is True
            assert 0 < len(calls) <= len(pairs), e

    @pytest.mark.parametrize("g, k", [
        (circulant_graph(8, (1, 2)), 4), (icosahedron_graph(), 5),
    ], ids=["C8-k4", "icosahedron-k5"])
    def test_plain_decision_is_one_listing(self, g, k, monkeypatch):
        # both are k-connected and contraction critical, so every edge is
        # rejected at the first (k-2)-separator of G - x - y that one
        # listing meets, with at most one flow per pair of G - x - y and no
        # kappa(G/e)
        def refuse(*args):
            raise AssertionError("kappa(G/e) computed")

        listings, calls = [], []
        listing, flow = contractibility._min_separators, connectivity._local_vertex_cut

        def listed(*args):
            listings.append(args)
            return listing(*args)

        def counted(*args):
            calls.append(args[1:3])
            return flow(*args)

        monkeypatch.setattr(contractibility, "_kappa_after", refuse)
        monkeypatch.setattr(contractibility, "_min_separators", listed)
        monkeypatch.setattr(connectivity, "_local_vertex_cut", counted)
        flows = _Flows(g)
        assert flows.kappa == k
        for e in g.edges():
            pairs = connectivity._flow_pairs(g, g.full_mask & ~(1 << e[0] | 1 << e[1]))
            listings.clear()
            calls.clear()
            assert _contracts_to(flows, e, k, quasi=False) is False
            assert len(listings) == 1 and len(calls) <= len(pairs), e

    def test_quasi_needs_k_at_least_two(self):
        # the public search tests the hypothesis first, and the quasi test
        # rejects k < 2 before any edge is decided
        with pytest.raises(ValueError, match="k must be at least 2"):
            is_contraction_critical(complete_graph(4), 1, quasi=True)

    def test_is_k_contractible_caps_every_flow(self, monkeypatch, count_certified):
        # C10(1,2) is 4-connected and contraction critical: kappa(G/e) = 3,
        # so kappa(G - 0 - 1) = 2. The kappa pass caps its flows at the
        # minimum degree 4: of its 8 pairs, 3 are certified by short
        # disjoint paths, and the flows of the other 5 all reach the cap
        # (on C8(1,2) every pair is certified, so no flow runs). Then
        # the flows of G - 0 - 1, with the internal arcs of 0 and 1 closed,
        # are capped at k - 1 = 3 at first, and once a pair falls below
        # that, each later flow at the smallest separator found so far; a
        # cut holding the merged vertex is then below kappa(G), so no other
        # flow runs.
        calls = []
        flow = connectivity._local_vertex_cut

        def recorded(net, s, t, limit, cap=None, *rest):
            # a sweep's capacities carry its flow: read what it closes
            closed = (rest[0].without == (0, 1) if rest and rest[0] is not None
                      else cap is not None and cap[0] == cap[2] == 0)
            calls.append((closed, limit, flow(net, s, t, limit, cap, *rest)))
            return calls[-1][2]

        g = circulant_graph(10, (1, 2))
        monkeypatch.setattr(connectivity, "_local_vertex_cut", recorded)
        monkeypatch.setattr(contractibility, "_local_vertex_cut", recorded)
        certified = count_certified()
        assert is_k_contractible(g, (0, 1), 4) is False
        hypothesis = [c for c in calls if not c[0]]
        assert calls[:len(hypothesis)] == hypothesis
        assert (len(hypothesis), certified["certified"]) == (5, 3)
        assert len(connectivity._flow_pairs(g)) == 8
        assert all(limit == 4 and result == (4, None) for _, limit, result in hypothesis)
        best = 3
        for _, limit, (value, sep) in calls[len(hypothesis):]:
            assert limit == best and value <= limit
            if sep is not None:
                best = value
        assert best == 2 and len(calls) - len(hypothesis) > 1

    @pytest.mark.parametrize("g, k, quasi", [
        (quasi_5_apex(24, 1), 5, True),
        (icosahedron_graph(), 5, True),
        (icosahedron_graph(), 5, False),  # critical: every edge is tried
        (circulant_graph(20, (1, 2)), 4, False),  # critical: every edge is tried
    ], ids=["apex24-quasi", "icosahedron-quasi", "icosahedron-plain", "C20-plain"])
    def test_search_builds_one_network(self, g, k, quasi, count_calls):
        calls = count_calls("contract_edge", "_split_network")
        critical, _ = is_contraction_critical(g, k, quasi)
        assert critical == (not quasi)
        assert calls == {"contract_edge": 0, "_split_network": 1}


def _refuse_listing(*args, **kwargs):
    raise AssertionError("G - x - y listed")


@st.composite
def dense_graphs(draw, max_n=9):
    """Graphs on 4..max_n vertices with edge probability 0.5..1, so that
    kappa(G) > k and kappa(G) = k-1 both occur for k up to 6."""
    n = draw(st.integers(4, max_n))
    p = draw(st.floats(0.5, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


class TestRulesBeforeTheListing:
    """The two rules that `_contracts_to` applies before it lists G - x - y,
    against brute force on G/e. Rule A: kappa(G) > k, so kappa(G/e) >=
    kappa(G) - 1 >= k on n - 1 >= k + 1 vertices, and G/e is k-connected and
    quasi k-connected. Rule B, in quasi mode at kappa(G) = k-1: a (k-1)-cut
    of G that the quasi test listed holds x and y, so kappa(G/e) = k - 2.
    Neither lists G - x - y."""

    def test_rule_a_on_corpora(self, small_corpus, quasi5_corpus, monkeypatch):
        # every edge of each graph on at most 12 vertices with kappa(G) > k
        # for some k in 3..5, brute-forced once at the largest such k, top:
        # G/e has no separator below top, so none below any smaller k
        monkeypatch.setattr(contractibility, "_min_separators", _refuse_listing)
        checked = 0
        for _, g in small_corpus + quasi5_corpus:
            flows = _Flows(g)
            top = min(flows.kappa - 1, 5)
            if g.n > 12 or top < 3:
                continue
            for e in g.edges():
                h = contract_edge(g, e).graph
                adj = adjacency_sets(h)
                assert h.n >= top + 1 and not any(
                    is_disconnected(adj, set(t))
                    for size in range(top) for t in combinations(range(h.n), size)), (g.edges(), e)
                for k in range(3, top + 1):
                    assert _contracts_to(flows, e, k, True) is True, (g.edges(), e, k)
                    assert _contracts_to(flows, e, k, False) is True, (g.edges(), e, k)
                checked += 1
        assert checked == 4056

    def test_rule_b_on_corpora(self, small_corpus, quasi5_corpus, monkeypatch):
        # every edge inside a 4-cut of G, a minimum cut kept by the quasi
        # 5-test's pass, on the quasi 5-connected graphs of kappa 4:
        # contracting it leaves kappa 3
        monkeypatch.setattr(contractibility, "_min_separators", _refuse_listing)
        checked = 0
        for _, g in small_corpus + quasi5_corpus:
            flows = _Flows(g)
            if not flows.quasi(5).holds or flows.kappa != 4:
                continue
            inside = {e for cut in flows.minimum_cuts
                      for e in combinations(cut.vertices, 2) if g.has_edge(*e)}
            for e in sorted(inside):
                assert brute_vertex_connectivity(contract_edge(g, e).graph) == 3, (g.edges(), e)
                assert _contracts_to(flows, e, 5, True) is False, (g.edges(), e)
                checked += 1
        assert checked == 365

    def test_cut_holding_on_corpora(self, small_corpus, quasi5_corpus, count_calls):
        # the least (k-1)-cut of G holding both ends of each edge, against
        # brute force, on the corpus graphs with n <= 12 and each k in 3..6
        # where G is quasi k-connected. At kappa = k-1 the quasi test's pass
        # has kept G's minimum cuts; at kappa >= k they are larger, and the
        # helper lists nothing
        calls = count_calls("_min_separators")
        checked = {"held": 0, "free": 0, "above": 0}
        for _, g in small_corpus + quasi5_corpus:
            if g.n > 12:
                continue
            for k in range(3, 7):
                flows = _Flows(g)
                if not flows.quasi(k).holds:
                    continue
                cuts = brute_cuts_of_size(g, k - 1)
                listed = calls["_min_separators"]
                for e in g.edges():
                    want = next((t for t in cuts if set(e) <= set(t)), None)
                    got = contractibility._cut_holding(flows, e, k)
                    assert (None if got is None else got.vertices) == want, (g.edges(), e, k)
                    checked["above" if flows.kappa >= k else "free" if got is None
                            else "held"] += 1
                if not g.is_complete():
                    assert calls["_min_separators"] == listed, (g.edges(), k)
        assert checked == {"held": 1293, "free": 3138, "above": 11912}

    @given(dense_graphs(), st.integers(2, 6))
    @settings(max_examples=150, deadline=None)
    def test_rules_property(self, g, k):
        # each rule's premise, read by brute force on G, against brute force
        # on G/e, for any G; and the decision in each mode whose hypothesis
        # G meets
        kappa = brute_vertex_connectivity(g)
        assume(kappa >= k - 1)
        low_cuts = [set(t) for t in brute_cuts_of_size(g, k - 1)] if kappa == k - 1 else []
        quasi_g = brute_is_quasi_k(g, k)
        flows = _Flows(g)
        for e in g.edges():
            h = contract_edge(g, e).graph
            if kappa > k:
                assert h.n >= k + 1 and brute_vertex_connectivity(h) >= k, (g.edges(), e, k)
                assert brute_is_quasi_k(h, k), (g.edges(), e, k)
                assert _contracts_to(flows, e, k, False) is True, (g.edges(), e, k)
                assert _contracts_to(flows, e, k, True) is True, (g.edges(), e, k)
            elif any(set(e) <= t for t in low_cuts):
                assert brute_vertex_connectivity(h) == k - 2, (g.edges(), e, k)
                assert not brute_is_quasi_k(h, k), (g.edges(), e, k)
                if quasi_g:
                    assert _contracts_to(flows, e, k, True) is False, (g.edges(), e, k)

    @pytest.mark.parametrize("g", [line_graph(petersen_graph()), line_graph(dodecahedron_graph())],
                             ids=["L(Petersen)", "L(dodecahedron)"])
    def test_rule_b_decides_critical_line_graphs(self, g, count_calls):
        # quasi 5-connected of kappa 4 and critical: each edge xy lies in a
        # triangle xyw of the line graph of a cubic graph, so inside the
        # trivial 4-cut N(w), and no edge needs a listing
        calls = count_calls("_min_separators")
        assert is_contraction_critical(g, 5, quasi=True) == (True, None)
        assert calls == {"_min_separators": 0}

    @pytest.mark.parametrize("g, k, quasi", [
        (circulant_graph(40, (1, 2, 3)), 5, False),  # rule A on every edge
        (circulant_graph(40, (1, 2, 3)), 5, True),
        (icosahedron_graph(), 5, False),  # critical: every edge is listed
        (circulant_graph(20, (1, 2)), 4, False),
        (complete_graph(6), 4, False),
        (quasi_5_apex(24, 1), 5, True),
    ], ids=["C40(1,2,3)", "C40(1,2,3)-quasi", "icosahedron", "C20(1,2)", "K6", "apex24-quasi"])
    def test_critical_runs_one_kappa_pass(self, g, k, quasi, count_calls):
        # the hypothesis kappa(G) >= k is read from the context's one kappa
        # pass, which rule A reads too; the quasi test's pass keeps kappa
        calls = count_calls("_vertex_connectivity_with_cut")
        is_contraction_critical(g, k, quasi)
        assert calls == {"_vertex_connectivity_with_cut": 1}


class TestClassifyAgreesWithSearch:
    def test_first_quasi_contractible_edge_on_corpora(self, small_corpus, quasi5_corpus):
        # two independent routes to the first quasi 5-contractible edge: the
        # class pass, from G's own (k-1)- and k-cuts, and the search, from
        # the two rules and one listing of G - x - y per edge
        checked = 0
        for _, g in small_corpus + quasi5_corpus:
            flows = _Flows(g)
            if not flows.quasi(5).holds:
                continue
            first = next((c.edge for c in _classify(flows, 5) if c.quasi_k_contractible), None)
            search = _Flows(g)
            assert search.quasi(5).holds
            assert _first_contractible_edge(search, 5, True) == first, g.edges()
            checked += 1
        assert checked == 172


def check_martinov(g):
    """Both sides of the 4-connected criticality characterization, computed
    independently: (contraction critical, 4-regular with every edge in a
    triangle)."""
    return is_contraction_critical(g, 4)[0], is_regular_triangular(g)


class TestMartinov:
    def test_k5_is_critical_and_regular_triangular(self):
        assert check_martinov(complete_graph(5)) == (True, True)

    def test_squared_cycle_is_critical(self):
        assert check_martinov(circulant_graph(8, (1, 2))) == (True, True)

    def test_k44_is_neither(self):
        assert check_martinov(complete_bipartite_graph(4, 4)) == (False, False)

    def test_octahedron(self):
        assert check_martinov(circulant_graph(6, (1, 2))) == (True, True)

    def test_requires_4_connected(self):
        with pytest.raises(ValueError, match="hypothesis violated"):
            check_martinov(cycle_graph(6))

    @pytest.mark.parametrize("g", [
        complete_graph(5), complete_graph(6), complete_graph(7),
        complete_bipartite_graph(4, 4), complete_bipartite_graph(4, 5),
        complete_bipartite_graph(5, 5), circulant_graph(7, (1, 2)),
        circulant_graph(8, (1, 2)), circulant_graph(9, (1, 2)),
        circulant_graph(10, (1, 2)), circulant_graph(6, (1, 2)),
        glued_cliques(6, 4), glued_cliques(7, 5), glued_cliques(7, 6),
    ])
    def test_equivalence_on_4_connected_fixtures_up_to_10(self, g):
        # every fixture here is 4-connected with at most 10 vertices
        assert g.n <= 10 and vertex_connectivity(g) >= 4
        critical, structural = check_martinov(g)
        assert critical == structural


class TestLemmaLevelProperties:
    def test_degree_preserving_contractions_stay_4_connected(self, quasi5_corpus):
        # quasi 5-connected + min degree 4 after contraction forces
        # 4-connectivity of the contracted graph
        sample = [g for gid, g in quasi5_corpus if g.n <= 10][:12]
        for g in sample:
            assert is_quasi_k_connected(g, 5).holds
            for e in g.edges():
                contracted = contract_edge(g, e).graph
                if contracted.min_degree() >= 4:
                    assert vertex_connectivity(contracted) >= 4

    def test_triangle_anchored_apex_edges_contract_safely(self):
        # degree-4 vertex with a triangle among its neighbors: contracting
        # onto the remaining neighbor preserves quasi 5-connectivity
        for seed in range(5):
            g = quasi_5_apex(11, seed=200 + seed, attach_triangle=True)
            x = g.n - 1
            nbrs = set(g.neighbors(x))
            from quasigraph.core import triangles_in_neighborhood

            for tri in triangles_in_neighborhood(g, x):
                (x4,) = nbrs - set(tri)
                rep = is_quasi_k_contractible(g, (x, x4), 5)
                assert rep.quasi_k_contractible, (seed, tri, x4)
