import pytest

from quasigraph.connectivity import (
    is_quasi_k_connected,
    make_cut,
    minimum_cuts,
    vertex_connectivity,
)
from quasigraph.contractibility import compute_E0
from quasigraph.core import contract_edge
from quasigraph.fragments import (
    fragments_of_cut,
    nontrivial_atom,
    quasi_fragments_wrt_edge,
)
from quasigraph.generators import (
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    glued_cliques,
    icosahedron_graph,
    petersen_graph,
    quasi_5_apex,
    random_graph,
    star_graph,
)

from oracles import brute_nontrivial_fragment_bodies, brute_quasi_fragment_bodies


class TestFragmentsOfCut:
    def test_c6_antipodal_cut_has_two_fragments(self):
        g = cycle_graph(6)
        frags = fragments_of_cut(g, make_cut(g, [0, 3]))
        assert [f.body for f in frags] == [(1, 2), (4, 5)]
        a, b = frags
        assert a.complement == b.body and b.complement == a.body
        assert a.boundary == (0, 3) == b.boundary

    def test_star_center_gives_fourteen(self):
        g = star_graph(5)  # K_{1,4}
        frags = fragments_of_cut(g, make_cut(g, [0]))
        assert len(frags) == 14  # 2^4 - 2

    def test_two_component_cut_fragments_are_mutual_complements(self):
        g = random_graph(8, 0.3, seed=9)
        for size in (1, 2):
            for t in minimum_cuts(g) if vertex_connectivity(g) == size else []:
                frags = fragments_of_cut(g, t)
                bodies = {f.body for f in frags}
                for f in frags:
                    if f.complement:
                        assert f.complement in bodies

    def test_too_many_components_rejected(self):
        g = star_graph(18)  # the center cut leaves 17 components
        with pytest.raises(ValueError, match="17 components: 131070 fragments"):
            fragments_of_cut(g, make_cut(g, [0]))

    def test_fragment_partition_invariant(self):
        g = petersen_graph()
        for cut in minimum_cuts(g):
            for frag in fragments_of_cut(g, cut):
                whole = set(frag.body) | set(frag.boundary) | set(frag.complement)
                assert whole == set(range(g.n))
                assert not set(frag.body) & set(frag.boundary)
                assert not set(frag.body) & set(frag.complement)
                # no edges from body to complement
                for v in frag.body:
                    assert not set(g.neighbors(v)) & set(frag.complement)
                # N(complement) stays inside the boundary
                if frag.complement:
                    nbh = set()
                    for v in frag.complement:
                        nbh.update(g.neighbors(v))
                    assert nbh - set(frag.complement) <= set(frag.boundary)

    def test_boundary_is_exact_neighborhood(self):
        rest, frag = fragments_of_cut(cycle_graph(8), [1, 4])
        assert frag.body == (2, 3) and rest.body == (0, 5, 6, 7)
        assert frag.boundary == rest.boundary == frag.source_cut == (1, 4)
        assert frag.complement == (0, 5, 6, 7)
        assert frag.kind == "nontrivial"


class TestQuasiFragmentsWrtEdge:
    def test_complete_graph_empty(self):
        assert quasi_fragments_wrt_edge(complete_graph(6), (0, 1), 5) == []

    def test_glued_cliques_shared_edge(self):
        frags = quasi_fragments_wrt_edge(glued_cliques(7, 5), (0, 1), 5)
        assert [(f.body, f.source_cut) for f in frags] == [
            ((5, 6), (0, 1, 2, 3, 4)),
            ((7, 8), (0, 1, 2, 3, 4)),
        ]
        assert all(f.kind == "quasi" and len(f.body) >= 2 for f in frags)

    def test_quasi_contractible_edge_gives_empty(self):
        # every icosahedron edge is quasi 5-contractible, so no 5-cut
        # through an edge splits two-sided
        g = icosahedron_graph()
        assert quasi_fragments_wrt_edge(g, (0, 1), 5) == []

    def test_matches_contraction_route(self, quasi5_corpus):
        # e lands in E0 exactly when contraction keeps 4-connectivity and
        # some 5-cut through e splits two-sided: two independent routes
        sample = [g for gid, g in quasi5_corpus if g.n <= 11][:12]
        for g in sample:
            e0 = set(compute_E0(g, 5))
            for e in g.edges():
                con = contract_edge(g, e)
                kappa_after = vertex_connectivity(con.graph)
                has_quasi_frag = bool(quasi_fragments_wrt_edge(g, e, 5))
                assert (e in e0) == (kappa_after >= 4 and has_quasi_frag)

    @pytest.mark.parametrize("e", [(0, 2), (-1, 0), (0, -1), (7, 0), (0, 5)])
    def test_bad_edges_rejected(self, e):
        with pytest.raises(ValueError, match="not an edge"):
            quasi_fragments_wrt_edge(cycle_graph(5), e, 3)

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_k_below_two_rejected(self, k):
        with pytest.raises(ValueError, match="k must be at least 2"):
            quasi_fragments_wrt_edge(cycle_graph(5), (0, 1), k)

    def test_matches_brute_force(self, small_corpus, quasi5_corpus):
        graphs = [g for _, g in small_corpus + quasi5_corpus if g.n <= 10]
        for g in graphs:
            for e in g.edges():
                got = [(f.body, f.source_cut) for f in quasi_fragments_wrt_edge(g, e, 5)]
                assert got == brute_quasi_fragment_bodies(g, e, 5)

    def test_both_sides_at_least_two(self):
        g = quasi_5_apex(10, seed=1)
        for e in g.edges():
            for frag in quasi_fragments_wrt_edge(g, e, 5):
                assert len(frag.body) >= 2
                split_total = g.n - len(frag.source_cut)
                assert split_total - len(frag.body) >= 2


class TestAtoms:
    def test_complete_graph_has_no_atom(self):
        assert nontrivial_atom(complete_graph(6)) is None

    def test_c6_atom_is_lex_least_two_path(self):
        atom = nontrivial_atom(cycle_graph(6))
        assert atom is not None
        assert atom.body == (0, 1) and atom.boundary == (2, 5)

    def test_star_has_no_nontrivial_fragment(self):
        # every fragment of the center cut has a singleton side or complement
        assert nontrivial_atom(star_graph(4)) is None

    @pytest.mark.parametrize("g, body, boundary", [
        (star_graph(18), (1, 2), (0,)),
        (complete_bipartite_graph(2, 17), (2, 3), (0, 1)),
        (star_graph(400), (1, 2), (0,)),
    ])
    def test_atom_on_cut_with_many_components(self, g, body, boundary):
        # the minimum cut leaves 17 or 399 components, too many for
        # fragments_of_cut, and 399 too many for all unions of two
        atom = nontrivial_atom(g)
        assert atom is not None
        assert (atom.body, atom.boundary) == (body, boundary)

    @pytest.mark.parametrize("g", [
        cycle_graph(6), cycle_graph(7), petersen_graph(),
        glued_cliques(7, 5), random_graph(9, 0.5, seed=4), icosahedron_graph(),
        circulant_graph(18, (1, 2, 3)),
    ])
    def test_atom_minimality_by_full_enumeration(self, g):
        bodies = brute_nontrivial_fragment_bodies(g)
        atom = nontrivial_atom(g)
        if not bodies:
            assert atom is None
        else:
            best = min(bodies, key=lambda b: (len(b), b))
            assert atom is not None and atom.body == best

    @pytest.mark.parametrize("k", [4, 5])
    def test_no_atom_when_quasi_at_kappa_k_minus_one(self, k, small_corpus, quasi5_corpus):
        # the rule behind analyze's atom shortcut: quasi k-connected with
        # kappa = k-1 leaves only trivial minimum cuts
        checked = 0
        for _, g in small_corpus + quasi5_corpus:
            if g.n > 12:
                continue
            quasi = is_quasi_k_connected(g, k)
            if quasi.holds and quasi.kappa == k - 1:
                checked += 1
                assert nontrivial_atom(g) is None
                assert brute_nontrivial_fragment_bodies(g) == []
        assert checked > 0
