"""Deterministic fixture corpora shared across the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from quasigraph.core import Graph
from quasigraph.generators import (
    circulant_graph,
    complement_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    glued_cliques,
    icosahedron_graph,
    path_graph,
    petersen_graph,
    quasi_5_apex,
    random_5_connected,
    random_graph,
    star_graph,
)

from oracles import brute_vertex_connectivity


def named_small_graphs() -> list[tuple[str, Graph]]:
    """Hand-picked graphs on at most 9 vertices."""
    out: list[tuple[str, Graph]] = []
    for n in range(1, 10):
        out.append((f"K{n}", complete_graph(n)))
    for n in range(2, 10):
        out.append((f"P{n}", path_graph(n)))
    for n in range(3, 10):
        out.append((f"C{n}", cycle_graph(n)))
    for n in range(4, 10):
        out.append((f"star{n}", star_graph(n)))
    for a in range(1, 5):
        for b in range(a, 5):
            if a + b <= 9 and a + b >= 3:
                out.append((f"K{a},{b}", complete_bipartite_graph(a, b)))
    out.append(("C8(1,2)", circulant_graph(8, (1, 2))))
    out.append(("C9(1,2)", circulant_graph(9, (1, 2))))
    out.append(("octahedron", circulant_graph(6, (1, 2))))
    out.append(("C7(1,2)", circulant_graph(7, (1, 2))))
    out.append(("C9(1,2,3)", circulant_graph(9, (1, 2, 3))))
    out.append(("co-C8", complement_graph(cycle_graph(8))))
    out.append(("co-C9", complement_graph(cycle_graph(9))))
    out.append(("glued-K7s5", glued_cliques(7, 5)))
    out.append(("2K2", disjoint_union(complete_graph(2), complete_graph(2))))
    out.append(("K3+K3", disjoint_union(complete_graph(3), complete_graph(3))))
    out.append(("K4+P4", disjoint_union(complete_graph(4), path_graph(4))))
    out.append(("E5", Graph(5)))
    return out


def fixture_corpus() -> list[tuple[str, Graph]]:
    """>= 500 graphs on <= 9 vertices spanning connectivity 0..8."""
    out = named_small_graphs()
    for n in range(4, 10):
        for p_pct in (20, 35, 50, 65, 80):
            for seed in range(16):
                gid = f"G({n},{p_pct / 100})#{seed}"
                out.append((gid, random_graph(n, p_pct / 100, seed=1000 * n + 10 * p_pct + seed)))
    return out


def quasi_five_corpus(max_n: int = 14) -> list[tuple[str, Graph]]:
    """Quasi 5-connected graphs, 5-connected ones and kappa-4 apexes alike.

    Every entry satisfies the degree-sum threshold of 9 across distance
    one and two, which the theorem-level suites re-check rather than trust.
    """
    out: list[tuple[str, Graph]] = [
        ("K6", complete_graph(6)),
        ("K7", complete_graph(7)),
        ("K8", complete_graph(8)),
        ("K9", complete_graph(9)),
        ("icosahedron", icosahedron_graph()),
        ("glued-K7s5", glued_cliques(7, 5)),
        ("glued-K8s6", glued_cliques(8, 6)),
    ]
    for n in range(8, max_n + 1):
        for seed in range(10):
            out.append((f"rand5-n{n}-s{seed}", random_5_connected(n, seed)))
    for n in range(9, max_n + 1):
        for seed in range(3):
            out.append((f"apex4-n{n}-s{seed}", quasi_5_apex(n, seed)))
            out.append((f"apex4tri-n{n}-s{seed}",
                        quasi_5_apex(n, 100 + seed, attach_triangle=True)))
    return out


def all_small_graphs(max_n: int = 5) -> list[Graph]:
    """Every labeled graph on 1..max_n vertices."""
    out = []
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for bits in range(1 << len(pairs)):
            out.append(Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1]))
    return out


@st.composite
def planted_graphs(draw, min_k: int = 2, max_k: int = 6, max_n: int = 14):
    """(G, k) with 2k+2 <= n <= max_n: a random graph of average degree
    about k+2 in which up to two disjoint pairs of adjacent vertices have
    degree k-1 each, so that edges between two degree-(k-1) vertices
    occur. Not filtered: about a third are quasi k-connected with
    kappa <= k."""
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(2 * k + 2, max(max_n, 2 * k + 2)))
    rng = draw(st.randoms(use_true_random=False))
    p = (k + draw(st.integers(1, 3))) / (n - 1)
    planted = draw(st.integers(0, 2))
    # the planted vertices 0..2*planted-1 get no random edges
    edges = {(u, v) for u in range(2 * planted, n) for v in range(u + 1, n)
             if rng.random() < p}
    rest = range(2 * planted, n)
    for a in range(0, 2 * planted, 2):
        edges.add((a, a + 1))
        for v in (a, a + 1):
            edges.update((v, w) for w in rng.sample(rest, k - 2))
    return Graph(n, sorted(edges)), k


def planted_pair(n: int, width: int) -> Graph:
    """random_5_connected(n-2, 3) plus two adjacent vertices n-2 and n-1,
    both joined to the `width` vertices just below them. At width 4 their
    common neighborhood (n-6, ..., n-3) is the least nontrivial 4-cut, far
    past the first n^2 4-subsets. At width 5 it is a nontrivial 5-cut, and
    contracting an edge inside it leaves a nontrivial 4-cut."""
    host = random_5_connected(n - 2, 3)
    pair = [(n - 2, n - 1)] + [(v, w) for v in (n - 2, n - 1)
                               for w in range(n - 2 - width, n - 2)]
    return Graph(n, list(host.edges()) + pair)

def line_graph(g: Graph) -> Graph:
    """L(G): one vertex per edge of G, in G's sorted edge order, two of them
    adjacent when their edges share an end."""
    edges = g.edges()
    return Graph(len(edges), [(i, j) for i in range(len(edges)) for j in range(i)
                              if len(set(edges[i]) & set(edges[j])) == 1])


def induced_subgraph(g: Graph, s) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on vertex set s, with the old->new id mapping."""
    sel = sorted(set(s))
    if not all(0 <= v < g.n for v in sel):
        raise ValueError(f"vertex set {sel} out of range for n={g.n}")
    new_id = {old: i for i, old in enumerate(sel)}
    edges = [(new_id[u], new_id[v]) for u, v in g.edges() if u in new_id and v in new_id]
    return Graph(len(sel), edges), new_id


def dodecahedron_graph() -> Graph:
    """The dodecahedron as the generalized Petersen graph GP(10, 2): outer
    10-cycle 0..9, spokes i -- i+10, inner edges i+10 -- (i+2 mod 10)+10."""
    return Graph(20, [(i, (i + 1) % 10) for i in range(10)]
                 + [(i, i + 10) for i in range(10)]
                 + [(10 + i, 10 + (i + 2) % 10) for i in range(10)])


# ---------------------------------------------------------------------------
# Exhaustive enumeration of 5-connected graphs on <= 8 vertices.
#
# A graph on n vertices has minimum degree >= 5 exactly when its complement
# has maximum degree <= n - 6. For n <= 8 that complement bound is at most
# 2, and every graph of maximum degree <= 2 is a disjoint union of paths and
# cycles, so the isomorphism classes are exactly the multisets of such
# parts. Complementing each union and keeping the 5-connected results is
# therefore a complete enumeration.

def _part_unions(n: int, max_degree: int):
    options: list[tuple[str, int]] = [("P", k) for k in range(1, n + 1)]
    if max_degree >= 2:
        options += [("C", k) for k in range(3, n + 1)]
    if max_degree <= 0:
        options = [("P", 1)]
    elif max_degree == 1:
        options = [("P", 1), ("P", 2)]
    options.sort(key=lambda part: (-part[1], part[0]))
    found: list[tuple[tuple[str, int], ...]] = []

    def rec(remaining: int, start: int, acc: list[tuple[str, int]]):
        if remaining == 0:
            found.append(tuple(acc))
            return
        for i in range(start, len(options)):
            kind, k = options[i]
            if k <= remaining:
                acc.append((kind, k))
                rec(remaining - k, i, acc)
                acc.pop()

    rec(n, 0, [])
    return found


def _graph_from_parts(parts) -> Graph:
    edges = []
    base = 0
    for kind, k in parts:
        if kind == "P":
            edges.extend((base + i, base + i + 1) for i in range(k - 1))
        else:
            edges.extend((base + i, base + (i + 1) % k) for i in range(k))
        base += k
    return Graph(base, edges)


def five_connected_up_to_8() -> list[Graph]:
    """All 5-connected graphs on 6..8 vertices, one per isomorphism class."""
    graphs = []
    for n in (6, 7, 8):
        for parts in _part_unions(n, n - 6):
            candidate = complement_graph(_graph_from_parts(parts))
            if brute_vertex_connectivity(candidate) >= 5:
                graphs.append(candidate)
    return graphs


def theorem1_ingest_graphs() -> list[Graph]:
    """The 5-connected population for desk-scale ingestion: the exhaustive
    classes up to 8 vertices, seeded samples at 9 and 10, the complete
    graphs through K10, and the icosahedron."""
    graphs = five_connected_up_to_8()
    graphs.append(complete_graph(9))
    graphs.append(complete_graph(10))
    for n in (9, 10):
        for seed in range(60):
            graphs.append(random_5_connected(n, 7000 + 100 * n + seed))
    graphs.append(icosahedron_graph())
    return graphs
