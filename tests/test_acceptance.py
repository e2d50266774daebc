"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
import random
import time

import pytest

from quasigraph.connectivity import (
    enumerate_cuts,
    make_cut,
    vertex_connectivity,
)
from quasigraph.contractibility import is_contraction_critical, is_regular_triangular
from quasigraph.core import Graph, contract_edge
from quasigraph.generators import (
    CorpusSpec,
    complete_graph,
    generate_corpus,
    icosahedron_graph,
)
from quasigraph.harness import (
    CLAIMS,
    check_degree_sum_condition,
    run_campaign,
    verify_claim,
)
from quasigraph import harness
from quasigraph import io as gio

from corpus import fixture_corpus, quasi_five_corpus, theorem1_ingest_graphs
from oracles import brute_vertex_connectivity


def _report(line: str) -> None:
    print(line, flush=True)


@pytest.fixture(scope="module")
def corpus500():
    return fixture_corpus()


@pytest.fixture(scope="module")
def quasi5():
    return quasi_five_corpus()


def test_ac01_connectivity_oracle_equivalence(corpus500):
    start = time.monotonic()
    assert len(corpus500) >= 500
    kappas = set()
    for gid, g in corpus500:
        assert g.n <= 9, gid
        flow = vertex_connectivity(g)
        brute = brute_vertex_connectivity(g)
        assert flow == brute, f"{gid}: flow={flow} brute={brute}"
        kappas.add(flow)
    assert kappas >= set(range(9)), f"connectivity values covered: {sorted(kappas)}"
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(f"[AC-01] connectivity oracle equivalence: PASS "
            f"({len(corpus500)} graphs, kappa 0..8, {elapsed:.1f}s)")


def test_ac02_nontriviality_partition_suite():
    cases = [
        ([1, 3], False),
        ([1, 1, 1], False),
        ([2, 2], True),
        ([1, 1, 2], True),
        ([1, 1, 1, 1], True),
    ]
    for sizes, expected in cases:
        edges = []
        base = 1
        for sz in sizes:
            edges.append((0, base))
            edges.extend((base + i, base + i + 1) for i in range(sz - 1))
            base += sz
        g = Graph(base, edges)
        assert make_cut(g, [0]).nontrivial is expected, f"component sizes {sizes}"
    _report("[AC-02] nontriviality partition unit suite: PASS (5/5 multisets)")


def test_ac03_theorem1_desk_scale(tmp_path):
    start = time.monotonic()
    enumeration = tmp_path / "five_connected_small.g6"
    gio.write_graph6_file(enumeration, theorem1_ingest_graphs())
    ingested = generate_corpus({"corpus": [
        {"family": "graph6_file", "params": {"path": str(enumeration)}},
    ]})
    population = ingested + [(f"K{n}", complete_graph(n)) for n in (6, 7, 8, 9)]
    population.append(("icosahedron", icosahedron_graph()))
    checked = 0
    for gid, g in population:
        assert vertex_connectivity(g) >= 5, f"{gid} must be 5-connected"
        rep = verify_claim(g, "theorem1", gid)
        assert rep.status == "verified", f"{gid}: {rep.status}"
        assert rep.witness and "edge" in rep.witness
        checked += 1
    elapsed = time.monotonic() - start
    _report(f"[AC-03] theorem1 desk-scale reproduction: PASS "
            f"({checked} five-connected graphs, 0 falsified, {elapsed:.1f}s)")


def test_ac04_theorem2_desk_scale(quasi5):
    start = time.monotonic()
    eligible = 0
    for gid, g in quasi5:
        assert g.n <= 14, gid
        ok, _ = check_degree_sum_condition(g, 9, 2)
        if not ok:
            continue
        eligible += 1
        rep = verify_claim(g, "theorem2", gid)
        assert rep.status == "verified", f"{gid}: {rep.status} {rep.witness}"
        assert rep.witness and "edge" in rep.witness
    assert eligible >= 100
    elapsed = time.monotonic() - start
    _report(f"[AC-04] theorem2 desk-scale reproduction: PASS "
            f"({eligible} quasi 5-connected graphs, 0 falsified, {elapsed:.1f}s)")


def test_ac05_martinov_cross_check(corpus500):
    start = time.monotonic()
    population = [(gid, g) for gid, g in corpus500
                  if g.n <= 8 and vertex_connectivity(g) >= 4]
    ids = {gid for gid, _ in population}
    assert "K5" in ids and "K4,4" in ids
    mismatches = []
    critical_ids = []
    for gid, g in population:
        critical, structural = is_contraction_critical(g, 4)[0], is_regular_triangular(g)
        if critical != structural:
            mismatches.append(gid)
        if critical:
            critical_ids.append(gid)
    assert not mismatches, mismatches
    assert "K5" in critical_ids and "K4,4" not in critical_ids
    elapsed = time.monotonic() - start
    _report(f"[AC-05] Martinov cross-check: PASS ({len(population)} four-connected "
            f"graphs, {len(critical_ids)} critical, 0 mismatches, {elapsed:.1f}s)")


def test_ac06_degree_preserving_contractions(quasi5):
    start = time.monotonic()
    violations = 0
    configs = 0
    for gid, g in quasi5:
        rep = verify_claim(g, "lemma2", gid)
        assert rep.status in ("verified", "vacuous"), f"{gid}: {rep.status}"
        if rep.status == "verified":
            configs += rep.witness["configurations"]
        else:
            violations += 0  # vacuous graphs carry no configuration
    assert violations == 0
    elapsed = time.monotonic() - start
    _report(f"[AC-06] minimum-degree-4 contractions stay 4-connected: PASS "
            f"({len(quasi5)} graphs, {configs} contractions, {elapsed:.1f}s)")


def test_ac07_triangle_neighborhood_contractions(quasi5):
    start = time.monotonic()
    configs = 0
    for gid, g in quasi5:
        if g.n < 8:
            continue
        rep = verify_claim(g, "lemma3", gid)
        assert rep.status in ("verified", "vacuous"), f"{gid}: {rep.status}"
        if rep.status == "verified":
            configs += rep.witness["configurations"]
    assert configs >= 10, "suite needs matching configurations to be meaningful"
    elapsed = time.monotonic() - start
    _report(f"[AC-07] triangle-anchored degree-4 contractions: PASS "
            f"({configs} configurations, 0 violations, {elapsed:.1f}s)")


def test_ac08_cut_intersection_identities(corpus500):
    start = time.monotonic()
    rng = random.Random(0xC0FFEE)
    pools = []
    for gid, g in corpus500:
        kappa = vertex_connectivity(g)
        if kappa < 1 or kappa > 5 or kappa >= g.n - 1:
            continue
        cuts = enumerate_cuts(g, kappa)
        if cuts:
            pools.append((g, cuts))
    assert pools
    checked = 0
    while checked < 10_000:
        g, cuts = pools[rng.randrange(len(pools))]
        s_cut = cuts[rng.randrange(len(cuts))]
        t_cut = cuts[rng.randrange(len(cuts))]
        s_set, t_set = set(s_cut.vertices), set(t_cut.vertices)

        def random_side(cut):
            comps = cut.components
            while True:
                chosen = [c for c in comps if rng.random() < 0.5]
                if chosen and len(chosen) < len(comps):
                    return set().union(*chosen)

        a_side = random_side(s_cut)
        b_side = random_side(t_cut)
        b_bar = set(range(g.n)) - b_side - t_set
        assert len(s_set & b_side) + len(s_set & t_set) + len(s_set & b_bar) \
            == len(s_set)
        meet = a_side & b_side
        if meet:
            nbh = set()
            for v in meet:
                nbh.update(g.neighbors(v))
            nbh -= meet
            allowed = (s_set & b_side) | (s_set & t_set) | (a_side & t_set)
            assert nbh <= allowed
        checked += 1
    elapsed = time.monotonic() - start
    _report(f"[AC-08] cut-intersection identities: PASS "
            f"({checked} tuples, 0 violations, {elapsed:.1f}s)")


def test_ac09_contraction_invariants(corpus500):
    start = time.monotonic()
    contractions = 0
    for gid, g in corpus500:
        for e in g.edges():
            x, y = e
            h = contract_edge(g, e).graph
            assert h.n == g.n - 1, gid
            assert h.edge_count == g.edge_count - 1 - (g.masks[x] & g.masks[y]).bit_count(), gid
            for v in h.vertices:
                assert v not in h.neighbors(v), gid
                for w in h.neighbors(v):
                    assert v in h.neighbors(w), gid
            contractions += 1
    elapsed = time.monotonic() - start
    _report(f"[AC-09] contraction invariants: PASS "
            f"({contractions} contractions over {len(corpus500)} graphs, {elapsed:.1f}s)")


def test_ac10_campaign_determinism(tmp_path):
    spec = {"corpus": [
        {"family": "complete", "params": {"n": [6, 8]}},
        {"family": "icosahedron"},
        {"family": "circulant", "params": {"n": 9, "jumps": [1, 2]}},
        {"family": "random_5_connected", "params": {"n": 10}, "count": 3, "seed": 42},
        {"family": "quasi_5_apex", "params": {"n": 11}, "count": 2, "seed": 7},
    ]}
    claims = ["theorem1", "theorem2", "lemma2", "lemma3", "lemma4"]
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    summary_a = run_campaign(generate_corpus(spec), claims, first)
    summary_b = run_campaign(generate_corpus(spec), claims, second)
    bytes_a, bytes_b = first.read_bytes(), second.read_bytes()
    assert bytes_a == bytes_b
    assert summary_a["counts"] == summary_b["counts"]
    assert summary_a["counts"]["falsified"] == 0
    for line in bytes_a.decode().splitlines():
        json.loads(line)
    _report(f"[AC-10] campaign determinism: PASS "
            f"(byte-identical reruns, {len(bytes_a)} bytes, "
            f"{summary_a['counts']} statuses)")


# The `campaign` benchmark's corpus at seed 1 (benchmarks/workloads.py),
# copied here so the pin does not depend on the benchmark's code.
SEED_1_CAMPAIGN = [
    CorpusSpec("random_5_connected", {"n": [10, 20]}, 2, 1),
    CorpusSpec("quasi_5_apex", {"n": [10, 20]}, 2, 1),
    CorpusSpec("quasi_5_apex", {"n": [10, 20], "attach_triangle": True}, 1, 1),
    CorpusSpec("circulant", {"n": [10, 20], "jumps": [1, 2, 3]}),
    CorpusSpec("icosahedron"),
]


def test_ac10_seed_1_campaign_is_pinned(tmp_path):
    # every claim on the 67 graphs: any change to a verdict, a witness or
    # the line format changes the digest
    out = tmp_path / "campaign.jsonl"
    summary = run_campaign(generate_corpus(SEED_1_CAMPAIGN), CLAIMS, out)
    assert summary["graphs"] == 67 and summary["errors"] == 0
    assert summary["counts"] == {"verified": 287, "vacuous": 316, "falsified": 0, "timeout": 0}
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "fabd77d14766273b50dbb8cad2293b48e218fdee88b0796a6c0c17b3a2331541"
    _report(f"[AC-10] seed-1 campaign pinned: PASS (sha256 {digest[:12]}..., "
            f"{summary['counts']})")


def test_seed_1_campaign_flow_count_is_pinned(tmp_path, count_calls, count_certified,
                                              monkeypatch):
    # one flow per pair that short disjoint paths do not certify, in the
    # kappa passes and in the 150 separator listings of the contraction
    # decisions: any change to which pairs run a flow changes the counts.
    # The claims on one graph share its searches for a contractible edge,
    # so of the 302 searches the claims ask for, 134 run, one per graph
    # and (k, mode) asked: the other 168 read a stored answer. A decision
    # lists G - x - y only when neither rule of `_contracts_to` settles it
    # (kappa(G) > k, or an edge inside a listed (k-1)-cut), and every
    # listing is of G - x - y with kappa(G) >= 3, which is connected, so of
    # the 753 pair lists only the 603 of the kappa passes, one per claim
    # call, search for v0's component (`reach_mask` also counts the
    # component searches of the cuts). A claim call builds G's network at
    # its first flow, so the 179 of the 603 claim calls that run none build
    # none
    graphs = generate_corpus(SEED_1_CAMPAIGN)
    calls = count_calls("_local_vertex_cut", "_min_separators", "_split_network",
                        "_flow_pairs", "reach_mask")
    certified = count_certified()
    searches = []
    search = harness._first_contractible_edge

    def counted(flows, k, quasi):
        searches.append((k, quasi) in flows.searches)
        return search(flows, k, quasi)

    monkeypatch.setattr(harness, "_first_contractible_edge", counted)
    run_campaign(graphs, CLAIMS, tmp_path / "campaign.jsonl")
    assert calls == {"_local_vertex_cut": 1571, "_min_separators": 150, "_split_network": 424,
                     "_flow_pairs": 753, "reach_mask": 2239}
    assert certified["certified"] == 7898
    assert (len(searches), searches.count(False)) == (302, 134)
