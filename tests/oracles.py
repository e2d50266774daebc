"""Independent brute-force oracles used to derive expected values.

Everything here works on plain Python sets with its own BFS, touching only
the Graph accessors (n, edges, neighbors), and shares no code with the
library paths it is used to check. The exceptions are
`contraction_decision` and `contraction_report`, which run the library's
kappa, cut listing and quasi test on a contracted graph;
`reference_kappa_with_cut`, the library's kappa loop as it was before it
added each pair's edge, on the network of `reference_split_network` and
the pairs of `reference_flow_pairs`, which build both edge by edge from
`edges()` with no code of the library; and `reference_local_vertex_cut`, a
plain flow on such a network that searches from the source alone and
starts each pair cold. The tests check them against brute force, and the
library's network and pairs against the two references.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple


def adjacency_sets(g) -> list[set[int]]:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components_of(adj: list[set[int]], removed: set[int]) -> list[set[int]]:
    alive = [v for v in range(len(adj)) if v not in removed]
    seen: set[int] = set()
    comps = []
    for start in alive:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in removed and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def is_disconnected(adj: list[set[int]], removed: set[int]) -> bool:
    return len(components_of(adj, removed)) >= 2


def brute_vertex_connectivity(g) -> int:
    """Minimum size of a disconnecting vertex set; n - 1 when none exists."""
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    adj = adjacency_sets(g)
    for size in range(n - 1):
        for removed in combinations(range(n), size):
            if is_disconnected(adj, set(removed)):
                return size
    return n - 1


def brute_cuts_of_size(g, size: int) -> list[tuple[int, ...]]:
    adj = adjacency_sets(g)
    return [t for t in combinations(range(g.n), size)
            if is_disconnected(adj, set(t))]


def brute_min_separator_size(g, s: int, t: int) -> int:
    """Smallest vertex set avoiding s, t whose removal separates them."""
    adj = adjacency_sets(g)
    rest = [v for v in range(g.n) if v not in (s, t)]

    def separated(removed: set[int]) -> bool:
        for comp in components_of(adj, removed):
            if s in comp:
                return t not in comp
        raise AssertionError("s must appear in some component")

    for size in range(len(rest) + 1):
        for removed in combinations(rest, size):
            if separated(set(removed)):
                return size
    raise AssertionError("removing all other vertices always separates")


def brute_nontrivial(component_sizes: list[int]) -> bool:
    """Direct enumeration of groupings: both sides need >= 2 vertices."""
    c = len(component_sizes)
    total = sum(component_sizes)
    for r in range(1, c):
        for chosen in combinations(range(c), r):
            side = sum(component_sizes[i] for i in chosen)
            if side >= 2 and total - side >= 2:
                return True
    return False


def brute_is_quasi_k(g, k: int) -> bool:
    kappa = brute_vertex_connectivity(g)
    if kappa < k - 1:
        return False
    adj = adjacency_sets(g)
    for t in combinations(range(g.n), k - 1):
        comps = components_of(adj, set(t))
        if len(comps) >= 2 and brute_nontrivial([len(c) for c in comps]):
            return False
    return True


def brute_distance(g, u: int, v: int):
    if u == v:
        return 0
    adj = adjacency_sets(g)
    seen = {u}
    frontier = {u}
    d = 0
    while frontier:
        d += 1
        nxt = {w for x in frontier for w in adj[x]} - seen
        if v in nxt:
            return d
        seen |= nxt
        frontier = nxt
    return float("inf")


def vertices_within_distance(g, u: int, radius: int) -> tuple[int, ...]:
    """Vertices at distance 1..radius from u, sorted, by a breadth-first
    search over neighbor sets."""
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range for n={g.n}")
    adj = adjacency_sets(g)
    seen = frontier = {u}
    for _ in range(radius):
        frontier = {w for x in frontier for w in adj[x]} - seen
        seen = seen | frontier
    return tuple(sorted(seen - {u}))


def brute_degree_sum_violation(g, bound: int, max_dist: int):
    """The first pair (u, v), u < v, in sorted order, at distance
    1..max_dist with d(u) + d(v) < bound, or None, by a distance search
    from every vertex."""
    adj = adjacency_sets(g)
    for u, v in combinations(range(g.n), 2):
        if len(adj[u]) + len(adj[v]) < bound and brute_distance(g, u, v) <= max_dist:
            return u, v
    return None


def contracted_min_degree(g, e) -> int:
    """Minimum degree of G/e, read from the neighbor sets of g without
    contracting: the merged vertex has |N(x) | N(y)| - 2 neighbors, a common
    neighbor of x and y loses one, and every other vertex keeps its degree."""
    x, y = e
    adj = adjacency_sets(g)
    if not (0 <= x < g.n and 0 <= y < g.n and y in adj[x]):
        raise ValueError(f"({x}, {y}) is not an edge")
    common = adj[x] & adj[y]
    return min([len(adj[x] | adj[y]) - 2]
               + [len(adj[v]) - (v in common) for v in range(g.n) if v not in (x, y)])


def brute_nontrivial_fragment_bodies(g) -> list[tuple[int, ...]]:
    """Bodies of all nontrivial fragments over all minimum cuts."""
    kappa = brute_vertex_connectivity(g)
    if kappa >= g.n - 1:
        return []
    adj = adjacency_sets(g)
    bodies = []
    for t in combinations(range(g.n), kappa):
        comps = components_of(adj, set(t))
        if len(comps) < 2:
            continue
        c = len(comps)
        for r in range(1, c):
            for chosen in combinations(range(c), r):
                body = set().union(*(comps[i] for i in chosen))
                rest = set().union(*(comps[i] for i in range(c) if i not in chosen))
                if len(body) >= 2 and len(rest) >= 2:
                    bodies.append(tuple(sorted(body)))
    return bodies


def brute_quasi_fragment_bodies(g, e, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(body, k-cut) pairs: every side of every split of G - T into two
    sides of >= 2 vertices, over all k-sets T containing both ends of e,
    sorted by (body size, body, T)."""
    x, y = e
    adj = adjacency_sets(g)
    pairs = set()
    for t in combinations(range(g.n), k):
        if x not in t or y not in t:
            continue
        comps = components_of(adj, set(t))
        c = len(comps)
        for r in range(1, c):
            for chosen in combinations(range(c), r):
                body = set().union(*(comps[i] for i in chosen))
                rest = set().union(*(comps[i] for i in range(c) if i not in chosen))
                if len(body) >= 2 and len(rest) >= 2:
                    pairs.add((tuple(sorted(body)), t))
    return sorted(pairs, key=lambda p: (len(p[0]), p[0], p[1]))


def graph6_encode_reference(g) -> str:
    """Independent graph6 encoder built from the raw bit layout."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = chr(126) + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    else:
        raise ValueError("reference encoder handles n <= 258047")
    bitstring = "".join(
        "1" if g.has_edge(i, j) else "0" for j in range(1, n) for i in range(j))
    bitstring += "0" * (-len(bitstring) % 6)
    body = "".join(chr(63 + int(bitstring[i:i + 6], 2))
                   for i in range(0, len(bitstring), 6))
    return prefix + body


def contraction_decision(g, e, k: int, quasi: bool) -> bool:
    """Whether G/e is quasi k-connected (`quasi`) or k-connected, for any G:
    contract e, compute kappa(G/e) capped at k, and at kappa(G/e) = k-1 list
    the (k-1)-cuts of G/e for a nontrivial one.

    This is the contract-and-rescan route that the library's rule on
    G - x - y replaced. It runs the library's kappa and cut listing, but on
    the contracted graph and with no hypothesis on G, and the tests check it
    against brute force on small graphs; it is fast enough to take every
    edge of both corpora at k = 2..6.
    """
    from quasigraph.connectivity import _Flows, _min_separators, _vertex_connectivity_with_cut
    from quasigraph.core import contract_edge

    if quasi and k < 2:
        raise ValueError("k must be at least 2")
    h = _Flows(contract_edge(g, e).graph)
    kappa, _ = _vertex_connectivity_with_cut(h, k)
    if kappa >= k or not quasi:
        return kappa >= k
    return kappa == k - 1 and not any(cut.nontrivial for cut in _min_separators(h, k - 1))


def contraction_report(g, e, k: int):
    """The full contraction report of edge e of a quasi k-connected G, by
    contracting e and testing G/e: kappa(G/e) and the verdict from
    `is_quasi_k_connected(G/e)`, whose certificate is the refuting cut of an
    E0 edge. An edge that drops kappa below k-1 is refuted by the least
    minimum cut of G/e. The preimage expands the merged vertex through
    `Contraction.preimage_set`.

    This is the contract-and-rescan route that the library's reports, read
    off the cuts of G, replaced.
    """
    from quasigraph.connectivity import is_quasi_k_connected, minimum_cuts
    from quasigraph.contractibility import ContractionReport
    from quasigraph.core import contract_edge

    con = contract_edge(g, e)
    rep = is_quasi_k_connected(con.graph, k)
    cut = rep.cut
    if cut is not None and rep.kappa < k - 1:
        cut = minimum_cuts(con.graph)[0]
    return ContractionReport(
        edge=e,
        k=k,
        kappa_after=rep.kappa,
        k_contractible=rep.kappa >= k,
        quasi_k_contractible=rep.holds,
        in_E0=rep.kappa >= k - 1 and not rep.holds,
        refuting_cut=cut,
        refuting_cut_preimage=None if cut is None else con.preimage_set(cut.vertices),
    )


class ReferenceNetwork(NamedTuple):
    """A split network with the fields of `connectivity._SplitNetwork`."""

    to: list[int]
    cap: list[int]
    adj: list[list[tuple[int, int]]]
    out_arc: list[dict[int, int]]


def reference_split_network(g, added=()) -> ReferenceNetwork:
    """The vertex-split network of G, built edge by edge: node 2v is v's
    in-copy and 2v+1 its out-copy, arc 2v is v's internal arc 2v -> 2v+1
    with capacity 1 and arc 2v+1 its reverse, and each edge uw of the
    sorted `edges()` list, u < w, and then each pair (u, w) of `added` in
    its order, appends four arcs from a = len(to): arc a 2u+1 -> 2w and
    arc a+2 2w+1 -> 2u, each of capacity n, and their reverses a+1 and a+3
    with capacity 0. Every arc is appended to its tail's row as (arc,
    head), and out_arc[u][w] = a, out_arc[w][u] = a+2. This is how the
    library numbered the arcs before it built the network from the
    neighbor masks, and how a kappa pass or a separator listing numbers
    the arcs of the pair edges it adds; the tests hold the library's
    network to it field by field."""
    n = g.n
    net = ReferenceNetwork([node ^ 1 for node in range(2 * n)], [1, 0] * n,
                           [[(node, node ^ 1)] for node in range(2 * n)],
                           [{} for _ in range(n)])
    for u, w in list(g.edges()) + list(added):
        a, uo, wo = len(net.to), 2 * u + 1, 2 * w + 1
        net.to.extend((wo - 1, uo, uo - 1, wo))
        net.cap.extend((n, 0, n, 0))
        net.adj[uo].append((a, wo - 1))
        net.adj[wo - 1].append((a + 1, uo))
        net.adj[wo].append((a + 2, uo - 1))
        net.adj[uo - 1].append((a + 3, wo))
        net.out_arc[u][w] = a
        net.out_arc[w][u] = a + 2
    return net


def reference_flow_pairs(g, alive: int | None = None) -> list[tuple[int, int]]:
    """The kappa flow pairs of H, the subgraph of G on the `alive` vertex
    mask (all of G when None), not complete, from neighbor sets: v0, the
    least vertex of least degree in H, against each non-neighbor, those
    outside v0's component first, each part ascending, then each
    non-adjacent pair of v0's neighbors in lexicographic order."""
    adj = adjacency_sets(g)
    keep = {v for v in range(g.n) if alive is None or alive >> v & 1}
    v0 = min(keep, key=lambda v: (len(adj[v] & keep), v))
    nbrs = adj[v0] & keep
    home = next(c for c in components_of(adj, set(range(g.n)) - keep) if v0 in c)
    others = keep - nbrs - {v0}
    pairs = [(v0, w) for w in sorted(others - home) + sorted(others & home)]
    pairs += [(x, y) for x, y in combinations(sorted(nbrs), 2) if y not in adj[x]]
    return pairs


def reference_short_paths(adj: list[set[int]], s: int, t: int) -> int:
    """The greedy count of internally disjoint s-t paths of length 2 and 3
    for non-adjacent s, t, from neighbor sets: every common neighbor, then
    for each neighbor d of t outside N(s), ascending, one path through the
    least neighbor of both s and d that no path holds yet."""
    used = adj[s] & adj[t]
    count = len(used)
    for d in sorted(adj[t] - adj[s]):
        hops = (adj[s] & adj[d]) - used
        if hops:
            used.add(min(hops))
            count += 1
    return count


def reference_kappa_with_cut(g, t: int | None = None):
    """kappa(G) and a minimum cut, with a threshold t as in
    `connectivity._vertex_connectivity_with_cut`, by the plain loop over the
    kappa flow pairs: each pair's flow runs on G's own network, capped at
    the smallest separator found so far (t at first), and no edge is added
    between pairs. The cut is the separator of the first pair to reach the
    final value, as its source reaches in the residual graph. The network
    and the pairs are the references above.
    """
    from quasigraph.connectivity import make_cut

    n = g.n
    t = n if t is None else t
    if n == 1:
        return 0, None
    if is_disconnected(adjacency_sets(g), set()):
        return 0, (make_cut(g, ()) if t > 0 else None)
    if g.edge_count == n * (n - 1) // 2:
        return n - 1, None
    net = reference_split_network(g)
    best, best_sep = min(t, n - 1), None
    for s, w in reference_flow_pairs(g):
        size, sep = reference_local_vertex_cut(net, s, w, best)
        if sep is not None:
            best, best_sep = size, sep
    return best, None if best_sep is None else make_cut(g, best_sep)


def reference_local_vertex_cut(net, s: int, t: int, limit: int, cap=None):
    """(flow value, minimum s-t vertex separator) for non-adjacent s, t on a
    split network such as `reference_split_network`'s, or (limit, None) once
    the flow reaches `limit`, as `connectivity._local_vertex_cut` gives
    them: one unit through each common neighbor whose internal arc is open,
    in ascending order, then shortest augmenting paths from one breadth-first
    search from the source each, with no warm start. The separator is what
    the source reaches in the final residual graph. `cap` is left holding
    the residual capacities when the caller passes it.
    """
    to, adj = net.to, net.adj
    if cap is None:
        cap = net.cap[:]
    src, snk = 2 * s + 1, 2 * t
    flow = 0
    out_s, out_t = net.out_arc[s], net.out_arc[t]
    for c in sorted(out_s.keys() & out_t.keys()):
        if flow == limit:
            return flow, None
        if not cap[2 * c]:
            continue
        for a in (out_s[c], 2 * c, net.out_arc[c][t]):
            cap[a] -= 1
            cap[a ^ 1] += 1
        flow += 1
    while True:
        if flow == limit:
            return flow, None
        prev = [-1] * len(adj)
        prev[src] = -2
        queue = [src]
        for u in queue:
            for a, v in adj[u]:
                if cap[a] and prev[v] == -1:
                    prev[v] = a
                    queue.append(v)
            if prev[snk] != -1:
                break
        else:
            # no augmenting path: prev marks what the source reaches
            return flow, tuple([v for v in range(len(adj) // 2)
                                if prev[2 * v] != -1 and prev[2 * v + 1] == -1])
        node = snk
        while node != src:
            a = prev[node]
            cap[a] -= 1
            cap[a ^ 1] += 1
            node = to[a ^ 1]
        flow += 1
