import hashlib
import json
import random
from contextlib import closing
from itertools import combinations, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quasigraph.connectivity as connectivity
from quasigraph.core import Graph
from quasigraph.connectivity import (
    enumerate_cuts,
    is_quasi_k_connected,
    make_cut,
    minimum_cuts,
    vertex_connectivity,
)
from quasigraph.generators import (
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    glued_cliques,
    icosahedron_graph,
    path_graph,
    petersen_graph,
    quasi_5_apex,
    random_graph,
    star_graph,
)

from corpus import all_small_graphs, induced_subgraph, planted_graphs, planted_pair
from oracles import (
    adjacency_sets,
    brute_cuts_of_size,
    brute_min_separator_size,
    brute_nontrivial,
    brute_vertex_connectivity,
    components_of,
    reference_flow_pairs,
    reference_kappa_with_cut,
    reference_local_vertex_cut,
    reference_short_paths,
    reference_split_network,
)


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs),
                          unique=True)) if all_pairs else []
    return Graph(n, edges)


class TestVertexConnectivity:
    def test_complete_graph_convention(self):
        assert vertex_connectivity(complete_graph(6)) == 5
        assert vertex_connectivity(complete_graph(2)) == 1
        assert vertex_connectivity(complete_graph(1)) == 0

    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(5)) == 2

    def test_petersen_by_brute_force(self):
        p = petersen_graph()
        expected = brute_vertex_connectivity(p)
        assert expected == 3
        assert vertex_connectivity(p) == 3

    def test_disconnected_is_zero(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert vertex_connectivity(g) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            vertex_connectivity(Graph(0))

    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, g):
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)

    def test_matches_brute_force_on_the_corpora(self, small_corpus, quasi5_corpus):
        graphs = [g for _, g in small_corpus + quasi5_corpus if g.n <= 10]
        for g in graphs + BOUNDARY_GRAPHS:
            assert vertex_connectivity(g) == brute_vertex_connectivity(g), g.edges()

    def test_deterministic(self):
        g = random_graph(9, 0.4, seed=11)
        assert vertex_connectivity(g) == vertex_connectivity(g)

    def test_certificates_pinned(self, small_corpus):
        # sha256 over the fixture corpus of (kappa, minimum cut) and of the
        # separator of every non-adjacent pair, as recorded before flows
        # were capped and routed through common neighbors first; the
        # separators must not depend on the order of augmentation
        h = hashlib.sha256()
        for gid, g in small_corpus:
            kappa, cut = connectivity._vertex_connectivity_with_cut(connectivity._Flows(g))
            net = connectivity._split_network(g)
            seps = [make_cut(g, connectivity._local_vertex_cut(net, s, t, g.n, net.cap[:])[1]).to_json()
                    for s in range(g.n) for t in range(s + 1, g.n) if not g.has_edge(s, t)]
            h.update((json.dumps({"graph_id": gid, "kappa": kappa,
                                  "cut": None if cut is None else cut.to_json(),
                                  "separators": seps}, sort_keys=True) + "\n").encode())
        assert h.hexdigest() == (
            "c33680d8492f2ee6a0182c60d326e0c94fc79e1f68782c254a2b1610b3ae57d8")


# K1, K2, K3, C5, disconnected graphs and complete graphs
BOUNDARY_GRAPHS = [
    complete_graph(1), complete_graph(2), complete_graph(3), cycle_graph(5),
    Graph(3), disjoint_union(complete_graph(1), complete_graph(3)),
    disjoint_union(complete_graph(3), cycle_graph(4)), complete_graph(6),
]


class TestMinimumDegreeStart:
    """The kappa pass starts from the minimum degree, with N(v0) as its
    cut, in place of n - 1 with none."""

    def test_cut_at_kappa_equal_to_the_minimum_degree_is_n_v0(self, small_corpus,
                                                                 quasi5_corpus):
        seen = 0
        for _, g in small_corpus + quasi5_corpus + [(None, g) for g in BOUNDARY_GRAPHS]:
            if g.is_complete():
                continue
            kappa, cut = connectivity._vertex_connectivity_with_cut(connectivity._Flows(g))
            if kappa == g.min_degree():
                v0 = connectivity._flow_pairs(g)[0][0]
                assert cut.vertices == g.neighbors(v0), g.edges()
                seen += 1
        assert seen > 20

    def test_isolated_vertex_gives_the_empty_cut_with_no_flow(self, count_calls):
        calls = count_calls("_local_vertex_cut", "_split_network")
        for g in (Graph(3), disjoint_union(complete_graph(1), complete_graph(3))):
            assert connectivity._vertex_connectivity_with_cut(connectivity._Flows(g)) == \
                (0, make_cut(g, ()))
        assert calls == {"_local_vertex_cut": 0, "_split_network": 0}


def _check_one_pass(g):
    """The kappa pass, which adds each pair's edge, against the reference
    loop, which adds none; the (k-1)-cuts that a quasi k-verdict holding at
    kappa = k-1 keeps as the context's minimum cuts, listed in the same
    pass, against the sorted `_min_separators` listing; and the context's
    masks and network, G's again after each pass."""
    flows = connectivity._Flows(g)
    assert connectivity._vertex_connectivity_with_cut(flows) == reference_kappa_with_cut(g), \
        g.edges()
    contexts = [flows]
    for k in range(2, 7):
        flows = connectivity._Flows(g)
        quasi = flows.quasi(k)
        assert flows.kappa_with_cut == reference_kappa_with_cut(g), (g.edges(), k)
        if quasi.holds and quasi.kappa == k - 1 and not g.is_complete():
            # kept by the verdict's own pass: reading them lists nothing again
            assert "minimum_cuts" in vars(flows), (g.edges(), k)
        if quasi.holds:
            listed = sorted(connectivity._min_separators(flows, k - 1), key=lambda c: c.vertices)
            cuts = flows.minimum_cuts if quasi.kappa == k - 1 else []
            assert cuts == listed, (g.edges(), k)
        contexts.append(flows)
    for flows in contexts:
        _check_restored(flows)


def _check_restored(flows):
    """The context's masks are G's, and so is its network if a flow built
    one, field by field."""
    g = flows.g
    assert flows.masks == list(g.masks), g.edges()
    if "net" in vars(flows):
        fresh = connectivity._split_network(g)
        for field in fresh._fields:
            assert getattr(flows.net, field) == getattr(fresh, field), (g.edges(), field)


class TestOnePass:
    """One pass of the kappa flow pairs adds each pair's edge after its
    flow and lists the quasi test's (k-1)-cuts from the same flows."""

    def test_corpora(self, small_corpus, quasi5_corpus):
        for _, g in small_corpus + quasi5_corpus:
            _check_one_pass(g)

    @pytest.mark.parametrize("g", [
        quasi_5_apex(40, 1), quasi_5_apex(24, 1, attach_triangle=True),
        circulant_graph(20, (1, 2)), planted_pair(30, 4), icosahedron_graph(),
        petersen_graph(),
    ], ids=["apex40", "apex24-triangle", "C20(1,2)", "planted30", "icosahedron", "petersen"])
    def test_larger_graphs(self, g):
        _check_one_pass(g)

    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_property(self, g):
        _check_one_pass(g)

    def test_quasi_test_makes_one_flow_per_pair(self, count_calls, count_certified):
        # the 4-cuts are listed from the kappa flows themselves, where a
        # kappa pass and then a listing made two flows per pair (78); of the
        # 39 pairs, 31 are certified by short disjoint paths and run none
        g = quasi_5_apex(40, 1)
        calls, certified = count_calls("_local_vertex_cut"), count_certified()
        assert is_quasi_k_connected(g, 5).holds
        assert (calls["_local_vertex_cut"], certified["certified"]) == (8, 31)
        assert len(connectivity._flow_pairs(g)) == 39

    def test_disconnected_graph_stops_at_its_first_flow(self, count_calls):
        # v0's first pair reaches the other component, whose flow 0 is the
        # least value, so no pair of v0's own component runs a flow, lists
        # its 4-cuts or starts the certificate scan
        g = disjoint_union(quasi_5_apex(100, 1), quasi_5_apex(100, 2))
        calls = count_calls("_local_vertex_cut", "_pair_separators", "_cuts")
        rep = is_quasi_k_connected(g, 5)
        assert (rep.failure, rep.kappa, rep.cut.vertices) == ("connectivity", 0, ())
        assert calls == {"_local_vertex_cut": 1, "_pair_separators": 0, "_cuts": 0}


def _check_network_and_pairs(g):
    """G's split network, field by field with each out_arc row in insertion
    order, against the edge-by-edge reference; and the kappa flow pairs of
    G and of each G - x - y that is not complete against the reference
    pairs, also when the caller vouches that G - x - y is connected and
    no component search runs, and as the listing of G - x - y takes them,
    which vouches for that when kappa(G) > 2. Only this check notices a
    change of arc numbering or row order: the search-count pins hold under
    one."""
    net, ref = connectivity._split_network(g), reference_split_network(g)
    for field in ref._fields:
        assert getattr(net, field) == getattr(ref, field), (g.edges(), field)
    assert [list(row.items()) for row in net.out_arc] == \
        [list(row.items()) for row in ref.out_arc], g.edges()
    if not g.is_complete():
        assert connectivity._flow_pairs(g) == reference_flow_pairs(g), g.edges()
    for x, y in g.edges():
        alive = g.full_mask & ~(1 << x | 1 << y)
        if alive and not connectivity._complete(g, alive):
            expected = reference_flow_pairs(g, alive)
            assert connectivity._flow_pairs(g, alive) == expected, (g.edges(), x, y)
            if len(components_of(adjacency_sets(g), {x, y})) == 1:
                assert connectivity._flow_pairs(g, alive, connected=True) == expected, \
                    (g.edges(), x, y)
    if not g.edge_count:
        return
    flows, flow_pairs, taken = connectivity._Flows(g), connectivity._flow_pairs, []
    wanted = [reference_flow_pairs(g, alive) for alive in
              [g.full_mask & ~(1 << x | 1 << y) for x, y in g.edges()]
              if alive and not connectivity._complete(g, alive)]
    flows.kappa  # before recording: its pass takes G's own pairs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(connectivity, "_flow_pairs",
                   lambda *args: taken.append(flow_pairs(*args)) or taken[-1])
        for e in g.edges():
            with closing(connectivity._min_separators(flows, 0, e)) as listing:
                next(listing, None)
    assert taken == wanted, g.edges()


class TestNetworkAndPairs:
    """The split network, built from the neighbor masks in one pass, and
    the kappa flow pairs, whose component search is one mask BFS from v0,
    against the references in the oracles."""

    def test_corpora(self, small_corpus, quasi5_corpus):
        for _, g in small_corpus + quasi5_corpus:
            _check_network_and_pairs(g)

    @pytest.mark.parametrize("g", [
        quasi_5_apex(40, 1), circulant_graph(40, (1, 2)), planted_pair(30, 4),
        disjoint_union(cycle_graph(5), complete_graph(4)), Graph(3), complete_graph(1),
        Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    ], ids=["apex40", "C40(1,2)", "planted30", "C5+K4", "E3", "K1", "K4-e"])
    def test_larger_and_boundary_graphs(self, g):
        _check_network_and_pairs(g)

    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_property(self, g):
        _check_network_and_pairs(g)


class _CountingRows(list):
    """Adjacency rows that count reads of one node's row, or of every row
    when `node` is None: every augmenting path search reads the source's
    row once, and only a search does."""

    def __init__(self, rows, node=None):
        super().__init__(rows)
        self.node, self.reads = node, 0

    def __getitem__(self, i):
        self.reads += self.node is None or i == self.node
        return super().__getitem__(i)


class _CountingCap(list):
    """Capacities that count the entries written into `writes[0]`, a slice
    assignment by its length; a slice of them counts on the same tally."""

    def __init__(self, items, writes):
        super().__init__(items)
        self.writes = writes

    def __getitem__(self, i):
        got = super().__getitem__(i)
        return _CountingCap(got, self.writes) if isinstance(i, slice) else got

    def __setitem__(self, i, value):
        if isinstance(i, slice):
            value = list(value)
            self.writes[0] += len(value)
        else:
            self.writes[0] += 1
        super().__setitem__(i, value)


class TestFlowMechanism:
    def test_one_network_per_kappa_computation(self, monkeypatch, count_certified):
        # each kappa pass runs a flow for every pair that short disjoint
        # paths do not certify, `flows` of them; the listing of minimum
        # cuts certifies its pairs too, and runs `listed` flows. A network
        # is built at the first flow, so only a computation that runs one
        # builds it: the Petersen graph's kappa pass starts at its minimum
        # degree 3 with N(v0) as its cut, and short paths certify all 9
        # pairs at that cap
        counts = {"networks": 0, "flows": 0}
        build, flow = connectivity._split_network, connectivity._local_vertex_cut

        def counted_build(g):
            counts["networks"] += 1
            return build(g)

        def counted_flow(*args):
            counts["flows"] += 1
            return flow(*args)

        def reset():
            counts.update(networks=0, flows=0)
            certified["certified"] = 0

        monkeypatch.setattr(connectivity, "_split_network", counted_build)
        monkeypatch.setattr(connectivity, "_local_vertex_cut", counted_flow)
        certified = count_certified()
        for g, kappa, flows, listed in [(petersen_graph(), 3, 0, 8),
                                        (circulant_graph(12, (1, 2, 3)), 6, 2, 11),
                                        (icosahedron_graph(), 5, 6, 11),
                                        (cycle_graph(9), 2, 5, 7)]:
            pairs = len(connectivity._flow_pairs(g))
            reset()
            assert vertex_connectivity(g) == kappa
            assert counts == {"networks": int(flows > 0), "flows": flows}
            assert certified["certified"] == pairs - flows
            # kappa and the listing of minimum cuts share one network
            reset()
            assert minimum_cuts(g)
            assert counts == {"networks": 1, "flows": flows + listed}
            assert certified["certified"] == 2 * pairs - flows - listed

    @staticmethod
    def _flow(g, s, t, limit):
        net = connectivity._split_network(g)
        rows = _CountingRows(net.adj, 2 * s + 1)
        return connectivity._local_vertex_cut(net._replace(adj=rows), s, t, limit,
                                             net.cap[:]), rows.reads

    def test_common_neighbor_paths_need_no_search(self):
        # the two sides of K2,5 share five neighbors
        g = complete_bipartite_graph(2, 5)
        assert self._flow(g, 0, 1, 3) == ((3, None), 0)
        assert self._flow(g, 0, 1, 5) == ((5, None), 0)
        # below the limit, one search finds no path and yields the separator
        assert self._flow(g, 0, 1, 6) == ((5, (2, 3, 4, 5, 6)), 1)

    def test_capped_flow_stops_at_its_cap(self):
        # 0 and 4 on C8 share no neighbor and are joined by two paths:
        # one search per unit up to the cap, and one more to prove a
        # maximum below it
        g = cycle_graph(8)
        assert self._flow(g, 0, 4, 1) == ((1, None), 1)
        assert self._flow(g, 0, 4, 2) == ((2, None), 2)
        assert self._flow(g, 0, 4, 3) == ((2, (1, 7)), 3)


def _units(net, cap, s, t):
    """The units of the flow on `cap` out of s, by first vertex, each
    followed to t along the edge arcs with flow."""
    units = {}
    for head, a in net.out_arc[s].items():
        if cap[a ^ 1]:
            path, v = [], head
            while v != t:
                path.append(v)
                v = next(w for w, b in net.out_arc[v].items() if cap[b ^ 1])
            units[head] = path
    return units


def _check_sweep(net, s, t, limit, value, sweep):
    """The sweep holds a flow from s to t of `value` units, or of at least
    `limit` when the flow reached it: vertex-disjoint paths from a
    neighbor of s to a neighbor of t that avoid both. Unless a search has
    left them stale, the sweep's `paths` are those units and `head` and
    `pos` index them."""
    assert sweep.sink == t and len(sweep.cap) == len(net.cap)
    units = _units(net, sweep.cap, s, t)
    used = [v for path in units.values() for v in path]
    assert len(used) == len(set(used)) and not {s, t} & set(used), units
    for path in units.values():
        assert all(w in net.out_arc[v] for v, w in zip(path, path[1:])), units
    assert len(units) == value if value < limit else len(units) >= limit, units
    if not sweep.stale:
        assert sweep.paths == units
        for head, path in units.items():
            assert [(sweep.head[v], sweep.pos[v]) for v in path] == \
                [(head, i) for i in range(len(path))], units


def _reference_flow(net, s, t, limit, cap, sweep=None):
    """`reference_local_vertex_cut` with the library flow's signature. In a
    sweep it runs cold: the carried flow is taken off the sweep's `cap`,
    which then holds the reference's residual capacities."""
    if sweep is not None:
        cap[:] = [0 if a & 1 else c + cap[a + 1] for a, c in enumerate(cap)]
    return reference_local_vertex_cut(net, s, t, limit, cap)


class TestWarmStart:
    """Each flow of a sweep from one source starts from the flow of the
    previous sink, carried over, and searches from both ends; neither
    changes a value, a separator or a listing against the one-ended cold
    flow."""

    @staticmethod
    def _sweep(g, limit, without=()):
        # the kappa pass's sweeps, or with vertices `without` closed the
        # listing's, from the driver of both: one carried flow per run of
        # pairs with the same source, and each pair's edge added after its
        # flow, its arcs added, and their capacities appended to the
        # sweep's, before the next flow
        flows = connectivity._Flows(g)
        net = flows.net
        alive = g.full_mask & ~connectivity.vertices_to_mask(without)
        pairs = connectivity._flow_pairs(g, alive)
        with closing(connectivity._sweeps(flows, pairs, without)) as sweeps:
            for s, t, sweep in sweeps:
                cap = sweep.ready(net)
                expected = reference_local_vertex_cut(net, s, t, limit,
                                                      connectivity._capacities(net, without))
                assert connectivity._local_vertex_cut(net, s, t, limit, cap, sweep) \
                    == expected, (g.edges(), s, t, limit)
                _check_sweep(net, s, t, limit, expected[0], sweep)

    @given(graphs(), st.integers(1, 8))
    @settings(max_examples=250, deadline=None)
    def test_sweep_matches_reference_property(self, g, limit):
        self._sweep(g, limit)

    @pytest.mark.parametrize("g", [
        circulant_graph(40, (1, 2)), quasi_5_apex(40, 1), planted_pair(30, 4),
        petersen_graph(), icosahedron_graph(),
    ], ids=["C40(1,2)", "apex40", "planted30", "petersen", "icosahedron"])
    def test_sweep_matches_reference(self, g):
        for limit in (vertex_connectivity(g) + 1, g.n):
            self._sweep(g, limit)

    def test_listing_matches_reference(self, small_corpus, quasi5_corpus, monkeypatch):
        # the same separators in the same order, also with the ends of an
        # edge closed, as the contraction decision lists them
        cases = []
        for _, g in small_corpus + quasi5_corpus:
            kappa = vertex_connectivity(g)
            cases.append((g, kappa, ()))
            cases += [(g, max(kappa - 1, 0), e) for e in g.edges()[:3] if g.n > 3]
        warm = [list(connectivity._min_separators(connectivity._Flows(g), j, e))
                for g, j, e in cases]
        monkeypatch.setattr(connectivity, "_local_vertex_cut", _reference_flow)
        cold = [list(connectivity._min_separators(connectivity._Flows(g), j, e))
                for g, j, e in cases]
        assert len(cases) > 1000
        for case, got, expected in zip(cases, warm, cold):
            assert got == expected, (case[0].edges(), case[1:])

    @pytest.mark.parametrize("n", [40, 120])
    def test_circulant_sweep_needs_few_searches(self, n, count_calls):
        # consecutive sinks of C_n(1,2) share their paths but for the ends,
        # which the warm start cuts short: 7 augmenting searches, where
        # cold flows ran 73 at n = 40 and 233 at n = 120; the carried units
        # leave no two-hop unit to route, so the count is exact
        calls = count_calls("_search")
        assert is_quasi_k_connected(circulant_graph(n, (1, 2)), 5).cut.vertices == (0, 1, 4, 5)
        assert calls["_search"] == 7

    @pytest.mark.parametrize("n", [120, 240])
    def test_circulant_sweep_work_is_linear(self, n):
        # every capacity the quasi test writes, the network's capacities
        # copied when a sweep starts its flow again included: 8,200 at
        # n = 120 and 16,600 at n = 240 (under 70 per vertex), where routing
        # each sink's paths again from the source wrote 30,188 and 118,028
        flows = connectivity._Flows(circulant_graph(n, (1, 2)))
        writes = [0]
        flows.net = flows.net._replace(cap=_CountingCap(flows.net.cap, writes))
        assert flows.quasi(5).cut.vertices == (0, 1, 4, 5)
        assert 0 < writes[0] <= 70 * n

    @pytest.mark.parametrize("n, bound", [(120, 70_000), (240, 250_000)])
    def test_apex_sweep_work(self, n, bound):
        # every capacity the quasi test writes: 54,906 at n = 120 and
        # 184,740 at n = 240, where starting a sweep's flow again from the
        # kept heads whenever they held fewer vertices than the tails wrote
        # 247,664 and 1,005,238
        flows = connectivity._Flows(quasi_5_apex(n, 1))
        writes = [0]
        flows.net = flows.net._replace(cap=_CountingCap(flows.net.cap, writes))
        assert flows.quasi(5).holds
        assert 0 < writes[0] <= bound

    # A one-ended search with no warm start read 55,373 adjacency rows on
    # C120(1,2) and 38,771 on quasi_5_apex(120, 1).
    @pytest.mark.parametrize("g, cold_reads", [
        (circulant_graph(120, (1, 2)), 55_373), (quasi_5_apex(120, 1), 38_771),
    ], ids=["C120(1,2)", "apex120"])
    def test_quasi_test_reads_few_rows(self, g, cold_reads):
        flows = connectivity._Flows(g)
        rows = _CountingRows(flows.net.adj)
        flows.net = flows.net._replace(adj=rows)
        flows.quasi(5)
        assert 0 < rows.reads <= cold_reads // 4


class TestTwoHopUnits:
    """After the carried and common-neighbor units, each flow routes one
    unit s -> c -> d -> t for each free neighbor d of t outside N(s),
    through the least free c of N(s) and N(d), before it searches; no
    value, separator or listing changes against the reference flow."""

    @staticmethod
    def _cold_cases(g):
        # (s, t, without, merged) as the flows on G's network take them:
        # plain pairs, pairs of G - x - y, and pairs from x with y merged,
        # and with a neighbor of t merged as well, as for an edge terminal
        pairs = [(s, t) for s, t in combinations(g.vertices, 2) if not g.has_edge(s, t)]
        cases = [(s, t, (), ()) for s, t in pairs]
        for x, y in g.edges()[:2]:
            cases += [(s, t, (x, y), ()) for s, t in pairs if not {s, t} & {x, y}]
            for t in sorted(set(g.vertices) - set(g.neighbors(x)) - {x, y}):
                cases.append((x, t, (), (y,)))
                cases += [(x, t, (), (y, z)) for z in sorted(g.neighbors(t))[:1]
                          if z not in set(g.neighbors(x)) | {x, y}]
        return cases

    def test_cold_flows_match_reference(self, small_corpus, quasi5_corpus):
        count = 0
        for _, g in small_corpus + quasi5_corpus:
            net = connectivity._split_network(g)
            for i, (s, t, without, merged) in enumerate(self._cold_cases(g)):
                limit = (2, 5, g.n)[i % 3]
                got = connectivity._capacities(net, without, merged)
                expected = connectivity._capacities(net, without, merged)
                assert connectivity._local_vertex_cut(net, s, t, limit, got) == \
                    reference_local_vertex_cut(net, s, t, limit, expected), \
                    (g.edges(), s, t, without, merged, limit)
                count += 1
        assert count > 10_000

    def test_carried_sweeps_match_reference(self, small_corpus, quasi5_corpus):
        # the kappa pass's sweeps, and the listing's with the ends of an
        # edge closed; `_check_sweep` checks the two-hop units' entries
        for _, g in small_corpus + quasi5_corpus:
            kappa = vertex_connectivity(g)
            TestWarmStart._sweep(g, kappa + 1)
            if g.n > 3 and g.edge_count:
                TestWarmStart._sweep(g, max(kappa, 1), g.edges()[0])

    def test_two_hop_unit_is_recorded_in_the_sweep(self):
        # 0 and 3 on C6 share no neighbor: both units are two-hop, 0-1-2-3
        # and 0-5-4-3, each kept in the sweep by its first vertex
        net = connectivity._split_network(cycle_graph(6))
        sweep = connectivity._Sweep([])
        assert connectivity._local_vertex_cut(net, 0, 3, 2, sweep.ready(net), sweep) == (2, None)
        assert sweep.paths == {1: [1, 2], 5: [5, 4]} and not sweep.stale
        assert [(sweep.head[v], sweep.pos[v]) for v in (1, 2, 5, 4)] == \
            [(1, 0), (1, 1), (5, 0), (5, 1)]

    def test_merged_vertex_carries_several_units(self, count_calls):
        # 0 -> 5 -> 4 through the common neighbor, then 0 -> 1 -> 2 -> 4 and
        # 0 -> 1 -> 3 -> 4 through the merged 1, as x's flows to a terminal
        # run through y in `_quasi_k_cuts`: no search up to the cap, and
        # one to prove the flow maximal below it
        g = Graph(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (0, 5), (5, 4)])
        net = connectivity._split_network(g)
        calls = count_calls("_search")
        cap = connectivity._capacities(net, merged=(1,))
        assert connectivity._local_vertex_cut(net, 0, 4, 3, cap) == (3, None)
        assert calls["_search"] == 0
        cap = connectivity._capacities(net, merged=(1,))
        assert connectivity._local_vertex_cut(net, 0, 4, 4, cap) == (3, (2, 3, 5))
        assert calls["_search"] == 1

    # Searches before two-hop units: 59 on the quasi test of apex40 and 58
    # on the k-cuts of apex16-s26.
    def test_quasi_test_of_apex40_searches_little(self, count_calls):
        g = quasi_5_apex(40, 1)
        calls = count_calls("_search")
        assert is_quasi_k_connected(g, 5).holds
        assert 0 < calls["_search"] <= 15

    def test_k_cuts_of_apex16_search_little(self, count_calls):
        flows = connectivity._Flows(quasi_5_apex(16, 26))
        assert flows.quasi(5).holds and flows.kappa == 4
        calls = count_calls("_search")
        assert connectivity._quasi_k_cuts(flows, 5)
        assert calls["_search"] <= 8


def _pass_results(g):
    """What the kappa pass gives on G: kappa with its cut, and for each k
    in 2..6 the (k-1)-cuts in the order the quasi test's pass lists them,
    with the quasi verdict and the minimum cuts its pass kept."""
    results = [connectivity._vertex_connectivity_with_cut(connectivity._Flows(g))]
    for k in range(2, 7):
        listed = []
        results.append((connectivity._vertex_connectivity_with_cut(
            connectivity._Flows(g), j=k - 1, listed=listed), listed))
        flows = connectivity._Flows(g)
        results.append((flows.quasi(k), vars(flows).get("minimum_cuts")))
    return results


def _listing_results(g):
    """Every listing of G's separators that `_min_separators` gives for
    j <= kappa(G): of G itself and of G - x - y for every edge xy, as the
    contraction decision asks for them, in one flow context."""
    flows = connectivity._Flows(g)
    return [list(connectivity._min_separators(flows, j, without))
            for j in range(flows.kappa + 1) for without in [()] + g.edges()]


def _check_certificates_change_nothing(g, results=_pass_results):
    """What `results` gives on G (the kappa pass, or the separator
    listings) as it is, and with no pair certified by short disjoint
    paths, so that every pair runs its flow."""
    certified = results(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(connectivity, "_has_short_paths", lambda masks, s, t, cap, alive=-1: False)
        flowed = results(g)
    assert certified == flowed, g.edges()


class TestShortPaths:
    """The kappa pass and the separator listings run no flow for a pair
    when a greedy choice of short disjoint paths, read from the neighbor
    masks with the added edges and restricted to the vertices left open,
    reaches the pair's cap: the flow would return (cap, None)."""

    @given(graphs(min_n=2), st.data())
    @settings(max_examples=200, deadline=None)
    def test_certificate_is_sound(self, g, data):
        # on G with a random set of added edges and of closed vertices, H
        # the graph left open, for every pair of H the network does not
        # join and every cap: the paths are found exactly when the greedy
        # count on H reaches the cap, and that count never exceeds the
        # pair's local connectivity in H
        apart = [(s, t) for s, t in combinations(g.vertices, 2) if not g.has_edge(s, t)]
        added = data.draw(st.lists(st.sampled_from(apart), unique=True)) if apart else []
        closed = data.draw(st.sets(st.sampled_from(g.vertices)))
        alive = g.full_mask & ~connectivity.vertices_to_mask(closed)
        net = connectivity._split_network(g)
        mark = len(net.to)
        for u, w in added:
            connectivity._add_edge(net, u, w)
        joined = Graph(g.n, g.edges() + added)
        masks = list(joined.masks)
        adj = [set() if v in closed else row - closed
               for v, row in enumerate(adjacency_sets(joined))]
        cap_h = connectivity._capacities(net, sorted(closed))
        for s, t in apart:
            if (s, t) in added or s in closed or t in closed:
                continue
            count = reference_short_paths(adj, s, t)
            assert count <= reference_local_vertex_cut(net, s, t, g.n, cap_h[:])[0], \
                (g.edges(), added, closed, s, t)
            for cap in range(g.n + 1):
                found = connectivity._has_short_paths(masks, s, t, cap, alive)
                assert found == (count >= cap), (g.edges(), added, closed, s, t, cap)
                if not closed:
                    assert connectivity._has_short_paths(masks, s, t, cap) == found
        connectivity._remove_added_edges(net, mark)
        assert net == connectivity._split_network(g)

    def test_certificates_change_nothing_on_corpora(self, small_corpus, quasi5_corpus,
                                                    count_certified):
        certified = count_certified()
        for _, g in small_corpus + quasi5_corpus:
            _check_certificates_change_nothing(g)
        assert certified["certified"] > 0

    @pytest.mark.parametrize("g", [
        quasi_5_apex(40, 1), circulant_graph(40, (1, 2)), planted_pair(30, 4),
        icosahedron_graph(), petersen_graph(),
    ], ids=["apex40", "C40(1,2)", "planted30", "icosahedron", "petersen"])
    def test_certificates_change_nothing_on_larger_graphs(self, g):
        _check_certificates_change_nothing(g)

    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_certificates_change_nothing_property(self, g):
        _check_certificates_change_nothing(g)

    def test_listing_certificates_change_nothing_on_corpora(self, small_corpus, quasi5_corpus,
                                                            count_certified):
        certified = count_certified()
        for _, g in small_corpus + quasi5_corpus:
            _check_certificates_change_nothing(g, _listing_results)
        assert certified["certified"] > 0

    @pytest.mark.parametrize("g", [
        quasi_5_apex(40, 1), circulant_graph(40, (1, 2)), planted_pair(30, 4),
        icosahedron_graph(), petersen_graph(),
    ], ids=["apex40", "C40(1,2)", "planted30", "icosahedron", "petersen"])
    def test_listing_certificates_change_nothing_on_larger_graphs(self, g):
        _check_certificates_change_nothing(g, _listing_results)

    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_listing_certificates_change_nothing_property(self, g):
        _check_certificates_change_nothing(g, _listing_results)

    def test_sweeps_hold_past_certified_pairs(self, small_corpus, quasi5_corpus,
                                              monkeypatch, count_certified):
        # a certified pair leaves the sweep as it was, holding the flow to
        # an earlier sink or none, and the next flow carries on from there:
        # after every flow that still runs, the sweep holds that flow and
        # the value and separator are the reference flow's
        flow = connectivity._local_vertex_cut
        runs = [0]

        def checked(net, s, t, limit, cap, sweep):
            expected = reference_local_vertex_cut(net, s, t, limit,
                                                  connectivity._capacities(net))
            assert flow(net, s, t, limit, cap, sweep) == expected, (s, t, limit)
            _check_sweep(net, s, t, limit, expected[0], sweep)
            runs[0] += 1
            return expected

        graphs = [g for _, g in small_corpus + quasi5_corpus] + [
            quasi_5_apex(40, 1), circulant_graph(40, (1, 2)), planted_pair(30, 4)]
        monkeypatch.setattr(connectivity, "_local_vertex_cut", checked)
        certified = count_certified()
        for g in graphs:
            connectivity._vertex_connectivity_with_cut(connectivity._Flows(g))
            for k in (4, 5, 6):
                connectivity._Flows(g).quasi(k)
        assert runs[0] > 0 and certified["certified"] > 0


def _check_deferred_arcs(g):
    """The kappa pass and separator listings of `_pass_results` and
    `_listing_results` on G, checked at every flow they run: the network
    is `reference_split_network` of G with the pair edges done so far in
    the pass or listing replayed in order, field by field with each
    out_arc row in insertion order, and the sweep's capacities cover its
    arcs; and at every short-path check the context's masks are G's with
    those edges. The number of flows checked."""
    sweeps, flow, short = (connectivity._sweeps, connectivity._local_vertex_cut,
                           connectivity._has_short_paths)
    running, checked = [], [0]

    def recorded(flows, pairs, without=()):
        done = []
        running.append(done)
        try:
            with closing(sweeps(flows, pairs, without)) as inner:
                for s, t, sweep in inner:
                    yield s, t, sweep
                    done.append((s, t))
        finally:
            running.pop()

    def checked_flow(net, s, t, limit, cap, sweep=None):
        if sweep is not None:
            ref = reference_split_network(g, running[-1])
            for field in ref._fields:
                assert getattr(net, field) == getattr(ref, field), (g.edges(), s, t, field)
            assert [list(row.items()) for row in net.out_arc] == \
                [list(row.items()) for row in ref.out_arc], (g.edges(), s, t)
            assert len(cap) == len(net.cap), (g.edges(), s, t)
            checked[0] += 1
        return flow(net, s, t, limit, cap, sweep)

    def checked_short(masks, s, t, cap, alive=-1):
        assert masks == list(Graph(g.n, g.edges() + running[-1]).masks), (g.edges(), s, t)
        return short(masks, s, t, cap, alive)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(connectivity, "_sweeps", recorded)
        mp.setattr(connectivity, "_local_vertex_cut", checked_flow)
        mp.setattr(connectivity, "_has_short_paths", checked_short)
        _pass_results(g)
        _listing_results(g)
    return checked[0]


class TestDeferredArcs:
    """A pass or listing adds the arcs of the pair edges it is done with
    only when a later pair runs a flow; at every flow the network is the
    one that adding each edge at once gives. This also guards the arc
    numbering of the pair edges and of G's own."""

    def test_corpora(self, small_corpus, quasi5_corpus):
        assert sum(_check_deferred_arcs(g) for _, g in small_corpus + quasi5_corpus) > 1000

    @pytest.mark.parametrize("g", [
        quasi_5_apex(40, 1), circulant_graph(40, (1, 2)), planted_pair(30, 4),
        icosahedron_graph(), petersen_graph(),
    ], ids=["apex40", "C40(1,2)", "planted30", "icosahedron", "petersen"])
    def test_larger_graphs(self, g):
        assert _check_deferred_arcs(g) > 0

    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_property(self, g):
        _check_deferred_arcs(g)


class TestMinVertexCutBetween:
    """The minimum s-t vertex separator of a non-adjacent pair, read from
    an uncapped `_local_vertex_cut` flow on G's network."""

    @staticmethod
    def _cut(g, s, t):
        net = connectivity._split_network(g)
        return make_cut(g, connectivity._local_vertex_cut(net, s, t, g.n, net.cap[:])[1])

    def test_c6_opposite_pair(self):
        g = cycle_graph(6)
        cut = self._cut(g, 0, 3)
        assert brute_min_separator_size(g, 0, 3) == 2
        assert cut.size == 2
        # one vertex from each arc of the cycle
        assert len(set(cut.vertices) & {1, 2}) == 1
        assert len(set(cut.vertices) & {4, 5}) == 1

    def test_k23_unique_separator(self):
        g = complete_bipartite_graph(2, 3)
        cut = self._cut(g, 0, 1)
        assert cut.vertices == (2, 3, 4)

    def test_p3_middle_vertex(self):
        cut = self._cut(path_graph(3), 0, 2)
        assert cut.vertices == (1,)

    def test_reproducible_witness(self):
        g = random_graph(10, 0.35, seed=3)
        pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)
                 if not g.has_edge(u, v)]
        for u, v in pairs:
            assert self._cut(g, u, v) == self._cut(g, u, v)

    @given(graphs(min_n=3, max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_size_matches_brute_force(self, g):
        for s in range(g.n):
            for t in range(s + 1, g.n):
                if not g.has_edge(s, t):
                    cut = self._cut(g, s, t)
                    assert cut.size == brute_min_separator_size(g, s, t)
                    comps_with = [c for c in cut.components if s in c or t in c]
                    assert all(not (s in c and t in c) for c in comps_with)


class TestEnumerateCuts:
    def test_c4_has_two_antipodal_cuts(self):
        cuts = enumerate_cuts(cycle_graph(4), 2)
        assert [c.vertices for c in cuts] == [(0, 2), (1, 3)]

    def test_k5_has_no_4_cuts(self):
        assert enumerate_cuts(complete_graph(5), 4) == []

    def test_c6_matches_brute_force(self):
        cuts = enumerate_cuts(cycle_graph(6), 2)
        expected = brute_cuts_of_size(cycle_graph(6), 2)
        assert [c.vertices for c in cuts] == expected
        assert len(cuts) == 9  # all non-adjacent pairs disconnect a 6-cycle

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            enumerate_cuts(cycle_graph(4), 4)
        with pytest.raises(ValueError):
            enumerate_cuts(cycle_graph(4), -1)

    def test_minimum_cuts_of_complete_graph_is_empty(self):
        assert minimum_cuts(complete_graph(5)) == []

    def test_minimum_cuts_of_disconnected_graph_is_empty_set_cut(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        cuts = minimum_cuts(g)
        assert len(cuts) == 1 and cuts[0].vertices == ()
        assert cuts[0].components == ((0, 1), (2, 3))

    @given(graphs(min_n=2, max_n=12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, g, data):
        size = data.draw(st.integers(0, g.n - 1))
        got = [c.vertices for c in enumerate_cuts(g, size)]
        assert got == brute_cuts_of_size(g, size)

    def test_every_size_matches_oracles(self, small_corpus, quasi5_corpus):
        # Cycles, stars and disjoint unions: cuts with many components, and
        # disconnected graphs, in which every subset is a cut.
        extra = [cycle_graph(7), star_graph(6), path_graph(6),
                 disjoint_union(cycle_graph(4), path_graph(3)),
                 disjoint_union(complete_graph(1), star_graph(4)),
                 disjoint_union(complete_graph(3),
                                disjoint_union(complete_graph(3), complete_graph(2)))]
        graphs = [g for _, g in small_corpus + quasi5_corpus if g.n <= 10] + extra
        for g in graphs:
            adj = adjacency_sets(g)
            for size in range(g.n):
                got = enumerate_cuts(g, size)
                assert [c.vertices for c in got] == brute_cuts_of_size(g, size)
                for cut in got:
                    comps = components_of(adj, set(cut.vertices))
                    assert cut.components == tuple(tuple(sorted(c)) for c in comps)
                    assert cut.nontrivial == brute_nontrivial([len(c) for c in comps])

    def test_bounded_scan_matches_one_bfs_per_subset(self, small_corpus, quasi5_corpus):
        # the scan decides a prefix with many last vertices by its cut
        # vertices; the limits end at the first subset, inside a prefix,
        # past a prefix with a single last vertex, and past the end
        cases = 0
        for _, g in small_corpus + quasi5_corpus:
            adj = adjacency_sets(g)
            for j in range(1, min(4, g.n - 1) + 1):
                subsets = list(combinations(g.vertices, j))
                for limit in sorted({1, g.n - 2, len(subsets) // 2 + 1, len(subsets) - 1,
                                     len(subsets) + 5}):
                    expected = []
                    for t in subsets[:limit]:
                        comps = components_of(adj, set(t))
                        if len(comps) >= 2:
                            expected.append((t, tuple(tuple(sorted(c)) for c in comps)))
                    got = [(cut.vertices, cut.components) for cut in
                           connectivity._cuts(connectivity._Flows(g), j, limit)]
                    assert got == expected, (g.edges(), j, limit)
                    cases += 1
        assert cases > 5000

    def test_certificate_scan_searches_cut_vertices_per_prefix(self, count_calls):
        # the least nontrivial 4-cut of C40(1,2) is the 74th 4-subset, and
        # a component search per subset ran 74 up to it; one cut-vertex
        # search per prefix runs 3, and a component search for each of the
        # two cuts alone
        g = circulant_graph(40, (1, 2))
        flows = connectivity._Flows(g)
        calls = count_calls("_cut_vertices", "component_masks")
        cuts = [cut.vertices for cut in islice(connectivity._cuts(flows, 4, g.n * g.n), 2)]
        assert cuts == [(0, 1, 3, 4), (0, 1, 4, 5)]
        assert calls == {"_cut_vertices": 3, "component_masks": 2}

    def test_minimum_cuts_complete_beyond_sixteen_vertices(self):
        # kappa 6 on 18 vertices: every one of the 99 minimum cuts is listed
        g = circulant_graph(18, (1, 2, 3))
        assert [c.vertices for c in minimum_cuts(g)] == brute_cuts_of_size(g, 6)


def _listing(g):
    """The minimum separators of g as `_min_separators` yields them."""
    return list(connectivity._min_separators(connectivity._Flows(g), vertex_connectivity(g)))


def _separator_families():
    """Circulants, apex graphs, complete bipartite graphs, glued cliques and
    stars: many cuts, a single cut, cuts with many components."""
    out = [circulant_graph(n, (1, 2)) for n in range(7, 31)]
    out += [circulant_graph(n, (1, 2, 3)) for n in range(9, 21)]
    out += [quasi_5_apex(n, seed) for n in range(9, 31, 3) for seed in range(2)]
    out += [quasi_5_apex(n, 7, attach_triangle=True) for n in (12, 20, 30)]
    out += [complete_bipartite_graph(a, b) for a in range(1, 5) for b in range(a, 9) if b >= 2]
    out += [glued_cliques(c, s) for c, s in [(4, 1), (5, 2), (6, 3), (7, 5), (8, 6)]]
    out += [star_graph(n) for n in range(3, 9)]
    return out


class TestMinSeparators:
    def test_matches_enumeration_on_the_corpora(self, small_corpus, quasi5_corpus):
        checked = 0
        for _, g in small_corpus + quasi5_corpus:
            kappa = vertex_connectivity(g)
            if kappa == 0 or kappa >= g.n - 1:
                continue
            got = _listing(g)
            assert len({c.vertices for c in got}) == len(got)
            assert sorted(got, key=lambda c: c.vertices) == enumerate_cuts(g, kappa)
            assert minimum_cuts(g) == enumerate_cuts(g, kappa)
            checked += 1
        assert checked > 400

    def test_matches_oracles_on_families(self):
        for g in _separator_families():
            kappa = vertex_connectivity(g)
            got = _listing(g)
            vertices = [c.vertices for c in got]
            assert len(set(vertices)) == len(vertices), g.edges()
            assert sorted(got, key=lambda c: c.vertices) == enumerate_cuts(g, kappa)
            if g.n <= 16:
                assert sorted(vertices) == brute_cuts_of_size(g, kappa)

    @given(graphs(min_n=3, max_n=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, g):
        kappa = brute_vertex_connectivity(g)
        if 0 < kappa < g.n - 1:
            vertices = [c.vertices for c in _listing(g)]
            assert sorted(vertices) == brute_cuts_of_size(g, kappa)
            assert len(set(vertices)) == len(vertices)

    def test_matches_networkx(self, small_corpus, quasi5_corpus):
        # networkx's all_node_cuts (Kanevsky's algorithm) takes seconds on
        # C16(1,2) and minutes on C20(1,2), so it sees the small graphs only
        nx = pytest.importorskip("networkx")
        pool = [g for _, g in small_corpus[::2] + quasi5_corpus[::4]]
        for g in pool + [g for g in _separator_families() if g.n <= 12]:
            kappa = vertex_connectivity(g)
            if kappa == 0 or kappa >= g.n - 1:
                continue
            h = nx.Graph(list(g.edges()))
            h.add_nodes_from(range(g.n))
            expected = sorted(tuple(sorted(c)) for c in nx.all_node_cuts(h))
            assert sorted(c.vertices for c in _listing(g)) == expected, g.edges()

    @staticmethod
    def _count_leaves(monkeypatch, most=None):
        """Count the flows and the closure leaves of the listing; fail at
        once past `most` leaves."""
        counts = {"leaves": 0, "flows": 0}
        leaves, flow = connectivity._pair_separators, connectivity._local_vertex_cut

        def counted_leaves(*args):
            for sep in leaves(*args):
                counts["leaves"] += 1
                assert most is None or counts["leaves"] <= most
                yield sep

        def counted_flow(*args):
            counts["flows"] += 1
            return flow(*args)

        monkeypatch.setattr(connectivity, "_pair_separators", counted_leaves)
        monkeypatch.setattr(connectivity, "_local_vertex_cut", counted_flow)
        return counts

    def test_a_shattering_cut_is_listed_once_per_pair(self, monkeypatch, count_certified):
        # The 4-side of K4,30 leaves 30 components, and a closure search
        # that did not fix the other components would list it 2^28 times.
        # v0 is on the 30-side: its 29 non-neighbors each give one leaf
        # (the added edges never rejoin 30 components), and the 6 pairs of
        # its neighbors have 30 common neighbors, more than the cap, so
        # short disjoint paths certify them and they run no flow.
        g = complete_bipartite_graph(4, 30)
        pairs = len(connectivity._flow_pairs(g))
        counts = self._count_leaves(monkeypatch, most=pairs)
        certified = count_certified()
        got = list(connectivity._min_separators(connectivity._Flows(g), 4))
        assert [c.vertices for c in got] == [(0, 1, 2, 3)]
        assert len(got[0].components) == 30
        assert pairs == 29 + 6
        assert counts["flows"] == 29 and certified["certified"] == 6
        assert counts["leaves"] == 29

    def test_added_edges_stop_repeats(self, monkeypatch):
        # every 4-cut of C_n(1,2) and 6-cut of C_n(1,2,3) leaves two
        # components, so once a pair's edge is added no later pair finds
        # its separators: one leaf per separator
        counts = self._count_leaves(monkeypatch)
        for g in [circulant_graph(n, (1, 2)) for n in (12, 20, 30)] + [
                circulant_graph(n, (1, 2, 3)) for n in (14, 20)]:
            counts.update(leaves=0)
            got = _listing(g)
            assert all(len(c.components) == 2 for c in got)
            assert counts["leaves"] == len(got)

    def test_complete_graph_has_none(self):
        assert _listing(complete_graph(6)) == []

    def test_first_separator_lies_near_the_source(self, count_calls):
        # the branch that puts a vertex in the separator is searched first, so
        # the first separator of C_n(1,2)'s first pair (0, 3) is N(0), after as
        # many closure searches for every n; the other order searched its way
        # to N(3) first, one closure search per vertex on the long arc
        calls = count_calls("_reach")
        for n in (40, 480):
            flows = connectivity._Flows(circulant_graph(n, (1, 2)))
            cap = flows.net.cap[:]
            assert flows.pairs[0] == (0, 3)
            assert connectivity._local_vertex_cut(flows.net, 0, 3, n, cap)[0] == 4
            calls["_reach"] = 0
            first = next(connectivity._pair_separators(flows.net, cap, 0, 3))
            assert first == (1, 2, n - 2, n - 1) and calls["_reach"] == 6, n

    def test_cost_follows_the_cuts_not_the_subsets(self):
        # C60(1,2) has n(n-5)/2 = 1650 4-cuts among 487,635 4-subsets, and
        # the quasi test on a 60-vertex apex graph confirms its single 4-cut
        g = circulant_graph(60, (1, 2))
        cuts = minimum_cuts(g)
        assert len(cuts) == 1650 and all(c.size == 4 for c in cuts)
        flows = connectivity._Flows(quasi_5_apex(60, 1))
        assert flows.quasi(5).holds and len(vars(flows)["minimum_cuts"]) == 1


class TestWithoutAnEdge:
    """The separators of G - x - y, listed on G's own network with x and y
    closed, against brute force on the induced subgraph; and the shared
    network, restored after every listing."""

    @staticmethod
    def _kappa_without(g, e):
        return brute_vertex_connectivity(
            induced_subgraph(g, [v for v in g.vertices if v not in e])[0])

    @staticmethod
    def _check(g):
        flows = connectivity._Flows(g)
        for e in g.edges():
            h, new_id = induced_subgraph(g, [v for v in g.vertices if v not in e])
            old_id = {i: v for v, i in new_id.items()}
            if h.n == 0:
                continue
            kappa = brute_vertex_connectivity(h)
            expected = [] if h.is_complete() else [
                tuple(sorted(old_id[v] for v in t)) for t in brute_cuts_of_size(h, kappa)]
            listed = list(connectivity._min_separators(flows, kappa, e))
            assert all(set(e) <= set(c.vertices) for c in listed)
            separators = [tuple(v for v in c.vertices if v not in e) for c in listed]
            assert sorted(separators) == sorted(expected), (g.edges(), e)
            assert all(c == make_cut(g, c.vertices) for c in listed)
            # one size too large, the listing still meets a kappa-separator,
            # though separators of the size asked for may come first
            above = list(connectivity._min_separators(flows, kappa + 1, e))
            assert all(set(e) <= set(c.vertices) and c == make_cut(g, c.vertices)
                       and c.size in (kappa + 2, kappa + 3) for c in above)
            assert any(c.size == kappa + 2 for c in above) == (not h.is_complete())

    def test_matches_oracles_on_the_corpora(self, small_corpus, quasi5_corpus):
        for _, g in small_corpus + quasi5_corpus:
            if g.n <= 9:
                self._check(g)

    def test_boundary_graphs(self):
        for g in BOUNDARY_GRAPHS + [complete_bipartite_graph(2, 4), star_graph(5)]:
            self._check(g)

    @given(graphs(min_n=2))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracles_property(self, g):
        self._check(g)

    def test_one_leaf_per_separator(self, monkeypatch):
        # the closure search never branches on x or y, whose out-copies no
        # residual arc enters, so each separator of G - x - y is one leaf
        # (branching on them would list 220 leaves here)
        g = quasi_5_apex(16, 1)
        counts = TestMinSeparators._count_leaves(monkeypatch)
        listed = 0
        for e in g.edges():
            kappa = self._kappa_without(g, e)
            listed += len(list(connectivity._min_separators(connectivity._Flows(g), kappa, e)))
        assert counts["leaves"] == listed == 113

    def test_network_is_restored(self):
        # a listing adds each pair's edge to the shared network and removes
        # them when it ends, runs to the end or not
        g = circulant_graph(12, (1, 2))
        flows = connectivity._Flows(g)
        fresh = connectivity._split_network(g)
        for without in [(), (0, 1)]:
            kappa = self._kappa_without(g, without)
            assert len(list(connectivity._min_separators(flows, kappa, without))) > 1
            assert flows.net == fresh
            listing = connectivity._min_separators(flows, kappa, without)
            grown = next(len(flows.net.to) for _ in listing
                         if len(flows.net.to) > len(fresh.to))
            assert grown > len(fresh.to)
            listing.close()
            assert flows.net == fresh

    def test_sweeps_restore_the_network(self):
        # the driver of every sweep adds each pair's edge to the masks once
        # the caller is done with the pair, and its arcs to the network
        # only when a later pair is about to run a flow (`_Sweep.ready`);
        # it removes them all when the pairs end, the caller closes it
        # early, or the caller raises
        g = circulant_graph(12, (1, 2))
        flows = connectivity._Flows(g)
        pairs = flows.pairs
        with closing(connectivity._sweeps(flows, pairs)) as sweeps:
            assert [list(flows.masks) for _ in sweeps] == \
                [list(Graph(g.n, g.edges() + pairs[:i]).masks) for i in range(len(pairs))]
        # no flow ran, so no arc was added and no network built
        assert "net" not in vars(flows) and flows.masks == list(g.masks)
        fresh = connectivity._split_network(g)
        with closing(connectivity._sweeps(flows, pairs)) as sweeps:
            grown = []
            for i, (s, t, sweep) in enumerate(sweeps):
                if i % 3 == 2:
                    assert len(sweep.ready(flows.net)) == len(flows.net.cap)
                grown.append(len(flows.net.to) - len(fresh.to) if "net" in vars(flows) else None)
        # the arcs of all the pairs before the last flow, pair 2, 5, 8, ...,
        # added just before it
        assert grown == [None, None] + [4 * (i - (i - 2) % 3) for i in range(2, len(pairs))]
        assert flows.net == fresh and flows.masks == list(g.masks)
        with closing(connectivity._sweeps(flows, pairs)) as sweeps:
            next(sweeps), next(sweeps)
            next(sweeps)[2].ready(flows.net)
            assert len(flows.net.to) == len(fresh.to) + 8
        assert flows.net == fresh and flows.masks == list(g.masks)
        with pytest.raises(ZeroDivisionError):
            with closing(connectivity._sweeps(flows, pairs, (0,))) as sweeps:
                for i, (s, t, sweep) in enumerate(sweeps):
                    assert sweep.without == (0,)
                    sweep.ready(flows.net)
                    if i == 3:
                        1 / 0
        assert flows.net == fresh and flows.masks == list(g.masks)


# k = 4, n = 12: an edge added to the network after each pair, as
# `_min_separators` does, loses the 4-cut (1, 4, 6, 11)
LOST_BY_ADDED_EDGES = Graph(12, [
    (0, 1), (0, 6), (0, 7), (0, 8), (0, 10), (1, 3), (1, 6), (1, 9), (2, 4),
    (2, 9), (2, 11), (3, 5), (3, 8), (4, 5), (4, 6), (4, 7), (4, 8), (4, 11),
    (5, 10), (5, 11), (6, 8), (6, 9), (7, 8), (7, 11), (8, 10)])

# k = 4, n = 10, kappa = 3: the 4-cut (1, 5, 7, 8) leaves the component
# {2, 9}, whose ends have degrees 3 and 4, so it holds no vertex of degree
# > k and no edge between two vertices of degree k-1; only the edge
# terminal 29, both ends of degree <= k, reaches it
NEEDS_DEGREE_K_EDGE_TERMINALS = Graph(10, [
    (0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 6), (2, 8), (2, 9),
    (3, 4), (3, 8), (4, 5), (4, 7), (5, 6), (5, 8), (5, 9), (6, 7), (7, 9),
    (8, 9)])


class TestQuasiKCuts:
    """The k-cuts of a quasi k-connected graph, listed from flows between
    disjoint edges and terminals, against the k-subset scan and brute
    force."""

    @staticmethod
    def _check(g, k, oracle=True):
        """Compare the listing with the scan when G is quasi k-connected
        with kappa <= k and not complete, and check that the shared network
        is G's again afterwards; whether it was compared."""
        flows = connectivity._Flows(g)
        quasi = flows.quasi(k)
        if not quasi.holds or quasi.kappa > k or g.is_complete():
            return False
        got = connectivity._quasi_k_cuts(flows, k)
        fresh = connectivity._split_network(g)
        for field in fresh._fields:
            assert getattr(flows.net, field) == getattr(fresh, field), (g.edges(), k, field)
        assert got == enumerate_cuts(g, k), (g.edges(), k)
        if oracle:
            assert [c.vertices for c in got] == brute_cuts_of_size(g, k), (g.edges(), k)
        return True

    def test_matches_scan_on_the_corpora(self, small_corpus, quasi5_corpus):
        checked = {"flows": 0, "scan": 0}
        for _, g in small_corpus + quasi5_corpus:
            for k in range(2, 7):
                if self._check(g, k, oracle=g.n <= 12):
                    checked["flows" if g.n >= 2 * k + 2 else "scan"] += 1
        assert checked["flows"] > 200 and checked["scan"] > 400

    def test_petersen_has_only_edge_terminals(self):
        # 3-regular: at k = 4 every terminal is an edge
        g = petersen_graph()
        assert self._check(g, 4)
        assert len(enumerate_cuts(g, 4)) > 0

    def test_apex_graphs(self):
        for n in range(9, 31):
            for g in (quasi_5_apex(n, n), quasi_5_apex(n, n, attach_triangle=True)):
                assert self._check(g, 5, oracle=n <= 14)

    def test_flows_stop_below_the_cap_only_at_nontrivial_cuts(self, count_calls, monkeypatch):
        # a vertex terminal has degree > k and an edge terminal two ends, so
        # a flow stops at k only at a k-cut with two sides of >= 2 vertices.
        # Most apex graphs have none: their k-cuts cut off one vertex, which
        # the degrees give, so every flow reaches k + 1 and none lists
        # separators. A degree-k vertex is no terminal: its flow would stop
        # at k on its own neighborhood.
        values, flow = [], connectivity._local_vertex_cut

        def recorded(*args):
            result = flow(*args)
            values.append(result[0])
            return result

        monkeypatch.setattr(connectivity, "_local_vertex_cut", recorded)
        calls = count_calls("_pair_separators")
        checked = 0
        for n in range(16, 31):
            for g in (quasi_5_apex(n, 1), quasi_5_apex(n, 1, attach_triangle=True)):
                flows = connectivity._Flows(g)
                assert flows.kappa == 4
                values.clear()
                calls["_pair_separators"] = 0
                if any(c.nontrivial for c in connectivity._quasi_k_cuts(flows, 5)):
                    continue
                checked += 1
                assert calls["_pair_separators"] == 0, n
                assert values and set(values) == {6}, (n, values)
        assert checked >= 28

    def test_no_edge_added_after_a_pair(self):
        # edge terminals add no edge to the network: an edge from a disjoint
        # edge to one end of an edge terminal loses the 4-cut (1, 4, 6, 11)
        assert self._check(LOST_BY_ADDED_EDGES, 4)
        assert (1, 4, 6, 11) in [c.vertices for c in enumerate_cuts(LOST_BY_ADDED_EDGES, 4)]

    def test_edge_terminals_of_degree_k(self):
        g = NEEDS_DEGREE_K_EDGE_TERMINALS
        assert self._check(g, 4)
        assert (1, 5, 7, 8) in [c.vertices for c in enumerate_cuts(g, 4)]

    @given(planted_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, gk):
        assume(self._check(*gk))


class TestNontrivialCut:
    def test_component_multiset_cases(self):
        # star-like gadgets realizing the size multisets around one cut vertex
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
            cut = make_cut(g, [0])
            assert cut.nontrivial is expected, sizes
            if expected:
                a, b = cut.bipartition
                assert len(a) >= 2 and len(b) >= 2
                assert set(a) | set(b) == set(range(1, base))
                assert not set(a) & set(b)

    def test_not_a_cut_rejected(self):
        with pytest.raises(ValueError, match="not a cut"):
            make_cut(complete_graph(4), [0])

    def test_make_cut_components(self):
        cut = make_cut(cycle_graph(6), [0, 3])
        assert cut.components == ((1, 2), (4, 5))
        assert cut.nontrivial and cut.bipartition == ((1, 2), (4, 5))

    @pytest.mark.parametrize("t", [[99], [-1], [0, 6]])
    def test_is_cut_rejects_out_of_range_ids(self, t):
        with pytest.raises(ValueError, match="out of range"):
            make_cut(cycle_graph(6), t)


class TestQuasiKConnected:
    def test_k5_is_quasi_5(self):
        rep = is_quasi_k_connected(complete_graph(5), 5)
        assert rep.holds and rep.kappa == 4 and rep.failure is None

    def test_icosahedron_is_quasi_5(self):
        assert is_quasi_k_connected(icosahedron_graph(), 5).holds

    def test_c6_fails_on_connectivity(self):
        rep = is_quasi_k_connected(cycle_graph(6), 5)
        assert not rep.holds and rep.failure == "connectivity" and rep.kappa == 2
        assert rep.cut is not None and rep.cut.size == 2

    def test_c8_squared_fails_on_nontrivial_cut(self):
        from quasigraph.generators import circulant_graph

        rep = is_quasi_k_connected(circulant_graph(8, (1, 2)), 5)
        assert not rep.holds and rep.failure == "nontrivial-cut"
        assert rep.cut is not None and rep.cut.size == 4 and rep.cut.nontrivial

    def test_glued_cliques_quasi_5(self):
        assert is_quasi_k_connected(glued_cliques(7, 5), 5).holds

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            is_quasi_k_connected(complete_graph(3), 1)

    def test_stops_at_first_nontrivial_cut(self, monkeypatch):
        # C40(1,2) has 700 4-cuts among 91,390 4-subsets; the refuting cut
        # (0, 1, 4, 5) is the second, so the scan ends long before the rest.
        calls = []
        full_scan = connectivity.component_masks

        def counted(masks, alive):
            calls.append(alive)
            return full_scan(masks, alive)

        monkeypatch.setattr(connectivity, "component_masks", counted)
        g = circulant_graph(40, (1, 2))
        rep = is_quasi_k_connected(g, 5)
        assert rep.failure == "nontrivial-cut" and rep.cut.vertices == (0, 1, 4, 5)
        assert len(calls) < 1000
        flows = connectivity._Flows(g)
        assert connectivity._quasi_test(flows, 5) == rep and "minimum_cuts" not in vars(flows)

    def test_scans_subsets_only_for_a_certificate(self, monkeypatch):
        # the (k-1)-subsets are scanned once when the test fails on a
        # nontrivial cut, for the least one and at most n^2 of them, and
        # never when it holds
        walks = []
        scan = connectivity._cuts

        def counted(g, size, limit=None):
            walks.append((size, limit))
            return scan(g, size, limit)

        monkeypatch.setattr(connectivity, "_cuts", counted)
        for g in [circulant_graph(8, (1, 2)), circulant_graph(40, (1, 2))]:
            walks.clear()
            rep = is_quasi_k_connected(g, 5)
            assert rep.failure == "nontrivial-cut" and walks == [(4, g.n * g.n)]
        for g in [quasi_5_apex(30, 1), glued_cliques(7, 5), icosahedron_graph(),
                  cycle_graph(6)]:
            walks.clear()
            is_quasi_k_connected(g, 5)
            assert walks == []

    @given(graphs(min_n=1, max_n=8), st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_connectivity(self, g, k):
        rep = is_quasi_k_connected(g, k)
        if vertex_connectivity(g) < k - 1:
            assert not rep.holds
        if vertex_connectivity(g) >= k:
            assert rep.holds  # every k-connected graph is quasi k-connected


def _least_nontrivial(g, size):
    """The least nontrivial cut of the unbudgeted scan, or None."""
    return next((c for c in enumerate_cuts(g, size) if c.nontrivial), None)


def _past_budget(g, cut):
    """Whether cut lies past the first n^2 subsets of its size."""
    return list(combinations(range(g.n), cut.size)).index(cut.vertices) >= g.n * g.n


class TestQuasiCertificate:
    """The certificate of a quasi test that fails on a nontrivial cut: the
    least nontrivial (k-1)-cut, from the budgeted scan or from the rest of
    the listing, against the unbudgeted scan and the oracles."""

    @staticmethod
    def _check(g, k):
        """Compare the certificate with the scan; which branch gave it, or
        None when the test does not fail on a nontrivial cut. A listing run
        to its end is every (k-1)-cut, which the context keeps as the
        minimum cuts; a listing the scan stopped is kept nowhere."""
        flows = connectivity._Flows(g)
        rep = flows.quasi(k)
        if rep.failure != "nontrivial-cut":
            return None
        assert rep.cut == _least_nontrivial(g, k - 1), (g.edges(), k)
        if _past_budget(g, rep.cut):
            assert vars(flows)["minimum_cuts"] == minimum_cuts(g), (g.edges(), k)
            return "listing"
        assert "minimum_cuts" not in vars(flows), (g.edges(), k)
        return "scan"

    def test_matches_scan_on_the_corpora(self, small_corpus, quasi5_corpus):
        branches = {"scan": 0, "listing": 0, None: 0}
        for _, g in small_corpus + quasi5_corpus:
            for k in range(2, 7):
                branches[self._check(g, k)] += 1
        assert branches["scan"] > 100 and branches["listing"] > 10

    def test_matches_oracles_on_small_graphs(self):
        refuted = 0
        for g in all_small_graphs(5):
            adj = adjacency_sets(g)
            for k in range(2, 7):
                rep = is_quasi_k_connected(g, k)
                nontrivial = [t for t in brute_cuts_of_size(g, k - 1)
                              if brute_nontrivial([len(c) for c in components_of(adj, set(t))])]
                if rep.kappa == k - 1:
                    assert rep.holds == (not nontrivial), (g.edges(), k)
                if not rep.holds and rep.failure == "nontrivial-cut":
                    assert rep.cut.vertices == nontrivial[0], (g.edges(), k)
                    comps = components_of(adj, set(nontrivial[0]))
                    assert rep.cut.components == tuple(sorted(tuple(sorted(c)) for c in comps))
                    refuted += 1
        assert refuted > 0

    @given(planted_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_scan_property(self, gk):
        self._check(*gk)

    @pytest.mark.parametrize("n", range(12, 31))
    def test_planted_late_cut(self, n):
        # the pair's neighborhood is the least nontrivial 4-cut, past the
        # scan budget
        g = planted_pair(n, 4)
        assert self._check(g, 5) == "listing"
        assert is_quasi_k_connected(g, 5).cut.vertices == tuple(range(n - 6, n - 2))

    def test_each_branch_runs(self, monkeypatch, count_calls, count_certified):
        # a circulant's least nontrivial cut lies within the scan budget, so
        # the scan stops there, and the kappa pass, whose listing stopped at
        # its first nontrivial cut, is the only listing; the planted graph's
        # scan runs through all n^2 subsets in vain, and the pass's own
        # listing then runs to its end, with no second flow for any pair
        walks, listed = [], []
        scan, listing = connectivity._cuts, connectivity._min_separators

        def counted_scan(g, size, limit=None):
            walk = {"limit": limit, "last": None, "exhausted": False}
            walks.append(walk)
            for cut in scan(g, size, limit):
                walk["last"] = cut.vertices
                yield cut
            walk["exhausted"] = True

        def counted_listing(*args):
            listed.append(False)
            yield from listing(*args)
            listed[-1] = True

        monkeypatch.setattr(connectivity, "_cuts", counted_scan)
        monkeypatch.setattr(connectivity, "_min_separators", counted_listing)
        for n in (20, 40, 80):
            g = circulant_graph(n, (1, 2))
            walks.clear()
            listed.clear()
            assert is_quasi_k_connected(g, 5).cut.vertices == (0, 1, 4, 5)
            # (0, 1, 4, 5) is the (2n-6)th 4-subset
            assert walks == [{"limit": n * n, "last": (0, 1, 4, 5), "exhausted": False}]
            assert listed == []
        g = planted_pair(30, 4)
        walks.clear()
        listed.clear()
        calls, certified = count_calls("_local_vertex_cut"), count_certified()
        assert is_quasi_k_connected(g, 5).cut.vertices == (24, 25, 26, 27)
        assert [(w["limit"], w["exhausted"]) for w in walks] == [(900, True)]
        assert listed == []
        # of the 34 pairs, 25 are certified by short disjoint paths
        assert (calls["_local_vertex_cut"], certified["certified"]) == (9, 25)
        assert len(connectivity._flow_pairs(g)) == 34


class TestPartitionIdentity:
    def test_counting_fact_over_random_cut_pairs(self):
        rng = random.Random(17)
        pool = [cycle_graph(8), petersen_graph(), icosahedron_graph(),
                glued_cliques(7, 5), random_graph(9, 0.45, seed=1)]
        for g in pool:
            kappa = vertex_connectivity(g)
            if kappa == 0 or kappa >= g.n - 1:
                continue
            cuts = enumerate_cuts(g, kappa)
            for _ in range(200):
                s_cut = rng.choice(cuts)
                t_cut = rng.choice(cuts)
                s_set = set(s_cut.vertices)
                t_set = set(t_cut.vertices)
                b_side = set(rng.choice(t_cut.components))
                b_bar = set(range(g.n)) - b_side - t_set
                assert (len(s_set & b_side) + len(s_set & t_set)
                        + len(s_set & b_bar)) == len(s_set)
