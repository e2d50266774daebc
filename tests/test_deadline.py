"""The deadline of a flow context: every flow loop, cut listing, subset scan
and contractible-edge search checks it, a listing cut short by it
leaves the shared network as G's, and a search cut short by it stores no
answer for the next claim on the graph."""

import json

import pytest

import quasigraph.connectivity as connectivity
from quasigraph import harness
from quasigraph.connectivity import DeadlineExceeded, _Flows
from quasigraph.contractibility import _first_contractible_edge
from quasigraph.generators import circulant_graph, icosahedron_graph, quasi_5_apex

from corpus import planted_pair


@pytest.mark.parametrize("g", [quasi_5_apex(40, 1), planted_pair(40, 4)],
                         ids=["apex40", "planted40"])
def test_expired_context_stops_before_any_flow_or_subset(g, count_calls):
    kappa = connectivity.vertex_connectivity(g)
    assert kappa == 4
    calls = count_calls("_local_vertex_cut", "component_masks")
    # the k-cuts row computes kappa before the deadline passes, so it
    # reaches the listing's own first check
    runs = {
        "kappa": (False, lambda flows: connectivity._vertex_connectivity_with_cut(flows)),
        "listing": (False, lambda flows: list(connectivity._min_separators(flows, kappa))),
        "k-cuts": (True, lambda flows: connectivity._quasi_k_cuts(flows, 5)),
        "edge search": (False, lambda flows: _first_contractible_edge(flows, 5, True)),
    }
    for name, (kappa_first, run) in runs.items():
        flows = _Flows(g)
        if kappa_first:
            assert flows.kappa == kappa
            calls["_local_vertex_cut"] = 0
        flows.deadline = 0.0
        with pytest.raises(DeadlineExceeded):
            run(flows)
        assert calls["_local_vertex_cut"] == 0, name
        # the network is built at the first flow: with none run, none is
        # built, unless kappa ran flows first
        assert ("net" in vars(flows)) == kappa_first, name
    calls["component_masks"] = 0
    with pytest.raises(DeadlineExceeded):
        list(connectivity._cuts(_Flows(g, deadline=0.0), 4, g.n * g.n))
    assert calls == {"_local_vertex_cut": 0, "component_masks": 0}


@pytest.mark.parametrize("g", [quasi_5_apex(30, 1), circulant_graph(20, (1, 2))],
                         ids=["apex30", "C20(1,2)"])
@pytest.mark.parametrize("listing", ["min_separators", "quasi_k_cuts", "kappa_pass"])
def test_network_is_restored_after_a_timeout(g, listing, monkeypatch):
    # the deadline passes after j checks, at a point where the listing has
    # added pair edges; C20(1,2) lists separators at most of the pairs of
    # _min_separators, so some timeouts fall between the separators of one
    # pair. The quasi test's one kappa pass adds pair edges and lists
    # 4-cuts too, and keeps neither kappa nor the verdict when it raises.
    # The masks are G's again, and so is the network whenever a flow built
    # one; at j = 0 the quasi test raises before its first flow, and builds
    # no network
    fresh = connectivity._split_network(g)
    for j in range(9):
        flows = _Flows(g)
        if listing != "kappa_pass":
            # kappa is computed before the clock starts, so the checks
            # counted are the listing's own
            assert flows.kappa == 4
        flows.deadline = 0.5
        ticks = iter([0.0] * j)
        monkeypatch.setattr(connectivity, "monotonic", lambda: next(ticks, 1.0))
        with pytest.raises(DeadlineExceeded):
            if listing == "min_separators":
                list(connectivity._min_separators(flows, 4))
            elif listing == "quasi_k_cuts":
                connectivity._quasi_k_cuts(flows, 5)
            else:
                flows.quasi(5)
        assert flows.masks == list(g.masks), j
        if "net" in vars(flows):
            for field in fresh._fields:
                assert getattr(flows.net, field) == getattr(fresh, field), (j, field)
        else:
            assert listing == "kappa_pass" and j == 0, j
        if listing == "kappa_pass":
            assert "kappa_with_cut" not in vars(flows) and not flows._quasi, j
            flows.deadline = None
            again = _Flows(g)
            assert flows.quasi(5) == again.quasi(5), j
            # and the minimum cuts a verdict holding at kappa 4 keeps
            assert vars(flows).get("minimum_cuts") == vars(again).get("minimum_cuts"), j


def _kappa_pass(flows):
    return flows.quasi(5)


@pytest.mark.parametrize("g, listing", [
    (circulant_graph(20, (1, 2)), lambda flows: list(connectivity._min_separators(flows, 4))),
    (quasi_5_apex(17, 1), lambda flows: connectivity._quasi_k_cuts(flows, 5)),
    (quasi_5_apex(17, 1), _kappa_pass),
], ids=["min_separators-C20(1,2)", "quasi_k_cuts-apex17", "kappa_pass-apex17"])
def test_listings_check_once_per_flow_and_separator(g, listing, monkeypatch,
                                                    count_certified):
    # quasi_5_apex(17, 1) has a nontrivial 5-cut, so one of its k-cut flows
    # stops at k and lists separators; its quasi test holds at kappa = 4,
    # so its kappa pass lists the 4-cuts. The kappa pass checks once per
    # pair, also for a pair that short disjoint paths certify with no flow
    # (11 of its 15); the listings certify none
    counts = {"checks": 0, "flows": 0, "separators": 0}
    flow, separators = connectivity._local_vertex_cut, connectivity._pair_separators

    def clock():
        counts["checks"] += 1
        return 0.0

    def counted_flow(*args):
        counts["flows"] += 1
        return flow(*args)

    def counted_separators(*args):
        for sep in separators(*args):
            counts["separators"] += 1
            yield sep

    # kappa is computed before the counting starts, so the checks and
    # flows counted are the listing's own
    flows = _Flows(g)
    assert flows.kappa == 4
    monkeypatch.setattr(connectivity, "monotonic", clock)
    monkeypatch.setattr(connectivity, "_local_vertex_cut", counted_flow)
    monkeypatch.setattr(connectivity, "_pair_separators", counted_separators)
    certified = count_certified()
    flows.deadline = 1.0
    listing(flows)
    assert counts["separators"] > 0
    assert counts["checks"] == counts["flows"] + certified["certified"] + counts["separators"]
    if listing is _kappa_pass:
        assert counts["flows"] + certified["certified"] == len(flows.pairs) == 15
        assert certified["certified"] == 11
    else:
        assert certified["certified"] == 0


@pytest.mark.parametrize("passed", [1, 2, 3, 6, 40])
def test_bounded_scan_stops_within_one_prefix(passed, monkeypatch, count_calls):
    # the certificate scan checks the deadline before the cut-vertex search
    # of each prefix and before each component search, so once `passed`
    # checks have passed and the deadline then expires, it has run exactly
    # one search per check: at most one prefix's search after the last one
    g = circulant_graph(200, (1, 2))
    calls = count_calls("_cut_vertices", "component_masks")
    ticks = iter([0.0] * passed)
    monkeypatch.setattr(connectivity, "monotonic", lambda: next(ticks, 1.0))
    with pytest.raises(DeadlineExceeded):
        list(connectivity._cuts(_Flows(g, deadline=0.5), 4, g.n * g.n))
    assert calls["_cut_vertices"] >= 1
    assert calls["_cut_vertices"] + calls["component_masks"] == passed


def test_a_search_that_times_out_stores_nothing(tmp_path, monkeypatch):
    # the first search of a campaign's graph runs out of time: theorem 1
    # reports timeout and stores no answer, so theorem 2 searches again and
    # reports its usual verdict, which lemma 5 then reads with no search
    g, claims = icosahedron_graph(), ["theorem1", "theorem2", "lemma5"]
    search, seen = harness._first_contractible_edge, []

    def expiring(flows, k, quasi):
        seen.append(dict(flows.searches))
        if len(seen) == 1:
            flows.deadline = 0.0  # raises at the search's first check
        return search(flows, k, quasi)

    expected = [harness.verify_claim(g, claim, "ico").to_json() for claim in claims]
    monkeypatch.setattr(harness, "_first_contractible_edge", expiring)
    out = tmp_path / "ico.jsonl"
    summary = harness.run_campaign([("ico", g)], claims, out)
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert reports[0] == {"graph_id": "ico", "claim": "theorem1", "status": "timeout",
                          "hypotheses_hold": None, "conclusion_holds": None, "witness": None}
    assert reports[1:] == expected[1:]
    assert expected[1]["witness"] == {"edge": [0, 1]}
    assert summary["counts"]["timeout"] == 1 and summary["errors"] == 0
    assert seen == [{}, {}, {(5, True): (0, 1)}]

    # the same through verify_claim's private argument, which the campaign
    # passes: once `seen` is cleared the next search expires again, and the
    # dict stays empty after the timeout
    seen.clear()
    searches = {}
    assert harness.verify_claim(g, "theorem1", _searches=searches).status == "timeout"
    assert searches == {}
    assert harness.verify_claim(g, "theorem1", _searches=searches).witness == {"edge": [0, 1]}
    assert searches == {(5, True): (0, 1)}
