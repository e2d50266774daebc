import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasigraph.core import (
    Graph,
    component_masks,
    contract_edge,
    mask_to_vertices,
    reach_mask,
    triangles_in_neighborhood,
)
from quasigraph.generators import (
    circulant_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    quasi_5_apex,
    random_graph,
)

from corpus import induced_subgraph
from oracles import adjacency_sets, brute_distance, components_of, vertices_within_distance


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs),
                          unique=True)) if all_pairs else []
    return Graph(n, edges)


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_deduplicates_parallel_edges(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_from_adjacency_requires_symmetry(self):
        with pytest.raises(ValueError):
            Graph.from_adjacency([[1], []])

    def test_adjacency_is_stored_once(self):
        g = Graph(4, [(2, 0), (0, 1), (3, 0)])
        assert g.neighbors(0) == (1, 2, 3) and g.neighbors(2) == (0,)
        assert g.edge_count == 3
        assert set(vars(g)) == {"n", "masks", "edge_count"}

    @given(graphs(min_n=0, max_n=12))
    @settings(max_examples=100)
    def test_edges_match_a_sorted_pair_scan(self, g):
        assert g.edges() == [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                             if g.has_edge(u, v)]

    def test_edges_on_large_graphs(self):
        for g in (quasi_5_apex(300, 1), circulant_graph(300, (1, 2, 97))):
            assert g.edges() == sorted((u, v) for u in g.vertices for v in g.neighbors(u)
                                       if u < v)

    def test_equality_ignores_edge_order_and_repeats(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        h = Graph(4, [(3, 2), (1, 0), (2, 1), (0, 1)])
        assert g == h and hash(g) == hash(h)
        assert g != Graph(4, [(0, 1), (1, 2)]) and g != Graph(5, g.edges())

    def test_masks_match_adjacency(self):
        g = cycle_graph(5)
        for v in g.vertices:
            assert g.masks[v] == sum(1 << w for w in g.neighbors(v))


class TestContractEdge:
    def test_k4_contracts_to_k3(self):
        for e in complete_graph(4).edges():
            assert contract_edge(complete_graph(4), e).graph == complete_graph(3)

    def test_c5_contracts_to_c4(self):
        for e in cycle_graph(5).edges():
            assert contract_edge(cycle_graph(5), e).graph == cycle_graph(4)

    def test_k6_contracts_to_k5(self):
        assert contract_edge(complete_graph(6), (2, 5)).graph == complete_graph(5)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            contract_edge(cycle_graph(5), (0, 2))

    @pytest.mark.parametrize("e", [(-1, 0), (0, -1), (7, 0), (0, 5)])
    def test_out_of_range_ids_rejected(self, e):
        with pytest.raises(ValueError, match="not an edge"):
            contract_edge(cycle_graph(5), e)

    def test_vertex_map_and_merged_label(self):
        g = cycle_graph(5)
        con = contract_edge(g, (1, 3 - 1))  # edge (1, 2)
        assert con.vertex_map[1] == con.vertex_map[2] == con.merged
        assert con.preimage(con.merged) == (1, 2)
        assert all(con.preimage(con.vertex_map[v]) == (v,) for v in (0, 3, 4))
        # ids re-compacted to 0..n-2
        assert sorted(set(con.vertex_map)) == list(range(4))

    def test_chained_contraction_keeps_provenance(self):
        g = complete_graph(4)
        first = contract_edge(g, (0, 1))
        second = contract_edge(first.graph, (first.merged, first.graph.n - 1))
        # composed through both vertex maps, the merged vertex holds 0, 1, 3
        assert first.preimage_set(second.preimage(second.merged)) == (0, 1, 3)
        assert [second.vertex_map[first.vertex_map[v]] for v in g.vertices] == [0, 0, 1, 0]

    def test_contraction_below_five_vertices_is_allowed(self):
        # downstream predicates judge the small result; contraction itself
        # works all the way down to a single vertex
        first = contract_edge(cycle_graph(3), (0, 1))
        two = first.graph
        assert two.n == 2 and two.edge_count == 1
        second = contract_edge(two, (0, 1))
        one = second.graph
        assert one.n == 1 and one.edge_count == 0
        assert first.preimage_set(second.preimage(0)) == (0, 1, 2)

    @given(graphs(min_n=2, max_n=9))
    @settings(max_examples=120)
    def test_invariants_on_random_graphs(self, g):
        for e in g.edges():
            x, y = e
            con = contract_edge(g, e)
            h = con.graph
            assert h.n == g.n - 1
            assert h.edge_count == g.edge_count - 1 - (g.masks[x] & g.masks[y]).bit_count()
            for v in h.vertices:
                assert v not in h.neighbors(v)
                for w in h.neighbors(v):
                    assert v in h.neighbors(w)
            merged_nbrs = {con.vertex_map[w]
                           for w in set(g.neighbors(x) + g.neighbors(y)) - {x, y}}
            assert set(h.neighbors(con.merged)) == merged_nbrs


class TestInducedSubgraph:
    def test_k5_triple_is_k3(self):
        sub, remap = induced_subgraph(complete_graph(5), [0, 2, 4])
        assert sub == complete_graph(3)
        assert remap == {0: 0, 2: 1, 4: 2}

    def test_c6_consecutive_is_p3(self):
        sub, _ = induced_subgraph(cycle_graph(6), [1, 2, 3])
        assert sub == path_graph(3)

    def test_empty_selection(self):
        sub, remap = induced_subgraph(cycle_graph(6), [])
        assert sub.n == 0 and remap == {}

    def test_invalid_ids(self):
        with pytest.raises(ValueError):
            induced_subgraph(cycle_graph(6), [0, 6])


def ball(g, u, r):
    """The vertices at distance 1..r from u, by the mask BFS `reach_mask`."""
    return mask_to_vertices(reach_mask(g.masks, 1 << u, g.full_mask, r) & ~(1 << u))


class TestDistance:
    """The ball of radius r around u without u itself, by the mask BFS
    `reach_mask` that the degree-sum check runs, against the reference
    `vertices_within_distance`, a set BFS in the oracles, and that against
    `brute_distance`."""

    def test_c6_opposite(self):
        assert ball(cycle_graph(6), 0, 2) == (1, 2, 4, 5)
        assert ball(cycle_graph(6), 0, 3) == (1, 2, 3, 4, 5)

    def test_same_vertex(self):
        assert 4 not in ball(cycle_graph(6), 4, 3)

    def test_disconnected_pair(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert ball(g, 0, 3) == (1,)

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            vertices_within_distance(cycle_graph(4), 4, 1)

    @given(graphs(max_n=9))
    @settings(max_examples=80)
    def test_matches_oracle_and_is_symmetric(self, g):
        for u in range(g.n):
            for r in range(0, 4):
                expected = vertices_within_distance(g, u, r)
                assert set(expected) == {v for v in g.vertices
                                         if 1 <= brute_distance(g, u, v) <= r}, (g.edges(), u, r)
                assert ball(g, u, r) == expected, (g.edges(), u, r)
                assert all(u in ball(g, v, r) for v in expected)

    @given(graphs(min_n=2, max_n=8))
    @settings(max_examples=60)
    def test_triangle_inequality(self, g):
        # a vertex within a of u and one within b of it are within a + b of u
        for u in range(g.n):
            for a in range(1, 3):
                for b in range(1, 3):
                    reach = set(ball(g, u, a + b)) | {u}
                    for v in ball(g, u, a):
                        assert set(ball(g, v, b)) <= reach

    def test_vertices_within_distance(self):
        g = path_graph(6)
        assert ball(g, 0, 2) == vertices_within_distance(g, 0, 2) == (1, 2)
        assert ball(g, 2, 1) == vertices_within_distance(g, 2, 1) == (1, 3)

    @given(graphs(max_n=9), st.data())
    @settings(max_examples=80)
    def test_components_match_oracle(self, g, data):
        # the same BFS with no radius gives the components of G - removed
        removed = set(data.draw(st.lists(st.integers(0, g.n - 1), unique=True)))
        alive = g.full_mask & ~sum(1 << v for v in removed)
        expected = sorted(components_of(adjacency_sets(g), removed), key=min)
        assert [set(mask_to_vertices(m)) for m in component_masks(g.masks, alive)] == expected
        for comp in expected:
            assert reach_mask(g.masks, 1 << min(comp), alive) == sum(1 << v for v in comp)


def _neighborhood_graph(nbr_edges):
    """Vertex 4 adjacent to 0..3 which carry the given edges."""
    edges = [(4, i) for i in range(4)] + list(nbr_edges)
    return Graph(5, edges)


class TestComponents:
    def test_triangles_in_neighborhood(self):
        g = _neighborhood_graph([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert list(triangles_in_neighborhood(g, 4)) == [(0, 1, 2)]


@given(graphs(min_n=1, max_n=9))
@settings(max_examples=60)
def test_random_graph_roundtrips_through_adjacency(g):
    again = Graph.from_adjacency([g.neighbors(v) for v in g.vertices])
    assert again == g


def test_random_graph_is_seed_deterministic():
    a = random_graph(9, 0.4, seed=5)
    b = random_graph(9, 0.4, seed=5)
    assert a == b
