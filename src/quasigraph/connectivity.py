"""Vertex connectivity, minimum vertex cuts, cut enumeration, and the
quasi k-connectivity decision.

Connectivity uses unit-capacity max-flow on the standard vertex-split
digraph, with the dominating pair/neighbor scheme: fix a minimum-degree
vertex v, take local connectivity against every non-neighbor of v and
between every non-adjacent pair of neighbors of v. The digraph is built
at most once per call, in a flow context (`_Flows`) that the call's entry
point creates and hands to every kappa computation, cut listing and
per-edge decision on the same graph; the private functions below take the
context in place of the graph and never build one, and read kappa, the
minimum cuts and the quasi verdicts from it, where each is computed once
per call. The context also carries the call's deadline, checked once per
flow pair, listed separator and scanned subset, so a call that runs out of
time raises `DeadlineExceeded` within one such step. Each pair's flow
works on a copy of its capacities and stops once it reaches the smallest
separator found so far, since only a smaller one is kept. Each flow routes
one unit through every common neighbor of its pair before it searches for
augmenting paths. In a sweep of sinks from one source (the kappa pass and
the listings), each flow then routes the previous sink's paths again, each
cut short at its first vertex adjacent to the new sink, since consecutive
sinks share most of their paths (the amortised sink sweep of Hao and
Orlin, and of Henzinger, Rao and Gabow). Each augmenting path is found by
a breadth-first search from both ends, which meets in the middle and
steps over a vertex with no flow through it without reading its row. The
separator is read from what the source reaches in the final residual
graph, which is the same for every maximum flow, and augmenting from any
feasible flow ends at a maximum flow, so witness cuts depend neither on
the routed paths nor on the order of augmentation. On C40(1,2) the quasi
test runs 7 augmenting searches, where one-ended cold flows ran 73.

The separators of G - x - y that decide whether contracting an edge xy
keeps G quasi k-connected are listed on G's own digraph: the capacity
copies close the internal arcs of x and y, so no path passes through
them, and the pairs are taken from G's adjacency with x and y removed. A
separator T of G - x - y is returned as the cut T + {x, y} of G, which
leaves the same components. One listing at size j both finds the
separators of size j and meets a smaller one if there is any, so the
decision needs no kappa(G - x - y) first.

Minimum cuts are listed from the same pairs' flows, each capped at
kappa + 1 (after Kanevsky, and Picard and Queyranne): a pair whose flow is
kappa has as its minimum separators the closed sets of the final residual
graph, one canonical closed set per separator. After each pair its edge is
added to the network, so no later pair finds those separators again, and
a seen set drops the few that leave three or more components and survive
the edge; the added arcs are removed when the listing ends, so the shared
network is G's again. The cost follows the number of minimum cuts, not
C(n, kappa). `minimum_cuts` and the contraction decision read this
listing (`_min_separators`). The k-cuts of a quasi k-connected graph,
which classify its edges, are listed the same way from flows between k+1
disjoint edges and terminals: vertices of degree > k and edges between
vertices of degree <= k (`_quasi_k_cuts`). For each disjoint edge the
edges from one of its ends to the vertex terminals done so far are added,
and removed before the next disjoint edge. The neighborhoods that cut off
one vertex are added from the degrees.

The quasi k-connectivity test is one pass over the kappa flow pairs. The
kappa pass adds each pair's edge too, which changes neither kappa nor its
cut (`_vertex_connectivity_with_cut`), so once the smallest separator so
far is k-1 it caps each flow at k and lists the (k-1)-separators of a pair
whose flow is k-1 from that same residual graph, until the certificate
below is known. On quasi_5_apex(40, 1) the test makes 39 flows, one per
pair, where a kappa pass followed by a listing made 78.

Cut enumeration of an arbitrary size scans every vertex subset of that
size in lexicographic order, with one component BFS each, so it is always
complete. It serves `enumerate_cuts` and the k-cuts of a quasi k-connected
graph without k+1 disjoint edges.

A quasi test that fails on a nontrivial (k-1)-cut certifies it with the
lexicographically least one. When the pass lists its first nontrivial
cut, the first n^2 (k-1)-subsets are scanned, which ends at the least
nontrivial cut when it lies among them, and the listing stops there;
otherwise the pass lists on to the end, and at kappa = k-1 that listing
holds every (k-1)-cut, the least nontrivial one among them. Both branches
give the same cut, with one flow per pair, and neither is exponential:
the scan costs at most n^2 component BFS runs, and the listing a closure
search per separator that a pair lists, where a graph of connectivity
kappa has O(2^kappa n^2 / kappa) minimum separators (Kanevsky).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from time import monotonic
from typing import Iterable, Iterator, NamedTuple

from .core import (
    Graph,
    component_masks,
    mask_to_vertices,
    vertices_to_mask,
)


@dataclass(frozen=True, slots=True)
class Cut:
    """A vertex subset whose removal disconnects the graph.

    `masks` are the components of G - vertices as bitmasks, ordered by
    minimum vertex; `components` lists them as sorted vertex tuples.
    `nontrivial` records whether the components can be grouped into two
    sides of at least 2 vertices each; `bipartition` is a witnessing
    grouping when one exists. Both tuple forms are built on each access,
    so a held cut costs a few ints, not a tuple per component.
    """

    vertices: tuple[int, ...]
    masks: tuple[int, ...]
    nontrivial: bool

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return tuple([mask_to_vertices(m) for m in self.masks])

    @property
    def bipartition(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        if not self.nontrivial:
            return None
        side = 0
        for i in _grouping([m.bit_count() for m in self.masks]):
            side |= self.masks[i]
        rest = sum(self.masks) - side
        return tuple(sorted((mask_to_vertices(side), mask_to_vertices(rest))))

    def to_json(self) -> dict:
        bipartition = self.bipartition
        return {
            "vertices": list(self.vertices),
            "components": [list(c) for c in self.components],
            "nontrivial": self.nontrivial,
            "bipartition": None if bipartition is None
            else [list(bipartition[0]), list(bipartition[1])],
        }


def _grouping(sizes: list[int]) -> tuple[int, ...] | None:
    """Indices of components that make one side of a grouping into two
    sides of >= 2 vertices each, or None when there is none.

    This is a subset-sum over component sizes: a grouping exists iff some
    subset of components has a total size in [2, total - 2]. Component
    counts alone are not enough ([1, 3] has no grouping, [1, 1, 2] does).
    """
    total = sum(sizes)
    if total < 4:
        return None
    reachable: dict[int, tuple[int, ...]] = {0: ()}
    for idx, sz in enumerate(sizes):
        for s, chosen in list(reachable.items()):
            if s + sz not in reachable:
                reachable[s + sz] = chosen + (idx,)
    for s in range(2, total - 1):
        if s in reachable:
            return reachable[s]
    return None


def _cut_from_masks(t_sorted: tuple[int, ...], masks: list[int]) -> Cut:
    """The cut t_sorted, from the component masks of G - t_sorted in
    `component_masks` order."""
    return Cut(t_sorted, tuple(masks), _grouping([m.bit_count() for m in masks]) is not None)


def _alive_after_removal(g: Graph, t: Iterable[int]) -> int:
    """Bitmask of the vertices of G - t; error on an id outside 0..n-1."""
    removed = 0
    for v in t:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
        removed |= 1 << v
    return g.full_mask & ~removed


def make_cut(g: Graph, t: Iterable[int]) -> Cut:
    """Materialize the vertex set t as a Cut; error if G - t is connected."""
    t_sorted = tuple(sorted(set(t)))
    masks = component_masks(g.masks, _alive_after_removal(g, t_sorted))
    if len(masks) < 2:
        raise ValueError(f"{t_sorted} is not a cut")
    return _cut_from_masks(t_sorted, masks)


# ---------------------------------------------------------------------------
# Local connectivity by max-flow on the split digraph.

class _SplitNetwork(NamedTuple):
    """The vertex-split digraph of a graph, built once per call and shared
    by every flow of that call (see `_Flows`).

    Node 2v is v's in-copy, 2v+1 its out-copy. Arcs come in pairs, arc
    a ^ 1 being the reverse of arc a: v's internal arc 2v -> 2v+1 is arc
    2v, with capacity 1, and each edge uw gives arcs 2u+1 -> 2w and
    2w+1 -> 2u with capacity n, more than any all-internal cut costs.
    `adj[node]` lists (arc, head) for the arcs leaving node, reverse arcs
    included, and `out_arc[u][w]` is the index of arc 2u+1 -> 2w. A flow
    works on a copy of `cap`.
    """

    to: list[int]
    cap: list[int]
    adj: list[list[tuple[int, int]]]
    out_arc: list[dict[int, int]]


def _arc(net: _SplitNetwork, u: int, v: int, c: int) -> None:
    """Append arc u -> v of capacity c and its reverse, of capacity 0."""
    net.adj[u].append((len(net.to), v))
    net.to.append(v)
    net.cap.append(c)
    net.adj[v].append((len(net.to), u))
    net.to.append(u)
    net.cap.append(0)


def _add_edge(net: _SplitNetwork, u: int, w: int) -> None:
    """Add the arcs of edge uw, each of capacity n."""
    n = len(net.out_arc)
    net.out_arc[u][w] = len(net.to)
    _arc(net, 2 * u + 1, 2 * w, n)
    net.out_arc[w][u] = len(net.to)
    _arc(net, 2 * w + 1, 2 * u, n)


def _remove_added_edges(net: _SplitNetwork, mark: int) -> None:
    """Undo every `_add_edge` made since the network had `mark` arcs."""
    to = net.to
    for a in range(len(to) - 2, mark - 1, -2):
        tail, head = to[a + 1], to[a]
        net.adj[tail].pop()
        net.adj[head].pop()
        del net.out_arc[tail // 2][head // 2]
    del to[mark:], net.cap[mark:]


def _split_network(g: Graph) -> _SplitNetwork:
    n = g.n
    net = _SplitNetwork([], [], [[] for _ in range(2 * n)], [{} for _ in range(n)])
    for v in range(n):
        _arc(net, 2 * v, 2 * v + 1, 1)
    for u in range(n):
        for w in g.sorted_neighbors(u):
            if u < w:
                _add_edge(net, u, w)
    return net


def _local_vertex_cut(net: _SplitNetwork, s: int, t: int, limit: int,
                      cap: list[int] | None = None, paths: list[list[int]] | None = None,
                      ) -> tuple[int, tuple[int, ...] | None]:
    """(flow value, minimum s-t vertex separator) for non-adjacent s, t,
    unless the flow reaches `limit` first: then (limit, None).

    The flow runs from s's out-copy to t's in-copy on `cap`, a copy of the
    network's capacities unless the caller passes one, which is then left
    holding the residual capacities. It first routes one unit along
    s -> c -> t for each common neighbor c whose internal arc is open, in
    ascending order (a closed one is a vertex removed from the graph).

    `paths` warm-starts a sweep of sinks from one source: it holds the
    vertex sequences of the previous flow from s, without s and its sink.
    Each is routed again, cut short at its first vertex adjacent to t, when
    every vertex up to there has its internal arc open. On return `paths`
    holds this flow's paths of two or more vertices, read back from `cap`
    when a search ran; it is left as it was when the common neighbors
    alone reach `limit`.

    Then the flow augments along paths that `_search` finds from both
    ends. An augmenting path enters an in-copy other than the sink's and
    leaves it by the internal arc or by the reverse of an edge arc, both of
    residual capacity at most 1, so each path adds exactly one unit. No path
    leaves the sink's in-copy or enters the source's out-copy, so no unit
    routed out of s or into t is taken back, and `paths` is read back from
    the first vertex of each unit routed after the common neighbors.
    Minimum cuts consist of internal arcs only and read off as a vertex
    set: the vertices whose in-copy the source reaches in the final
    residual graph and whose out-copy it does not. That reachable set is the
    source side of the unique minimal minimum cut, the same for every
    maximum flow, and augmenting from any feasible flow ends at a maximum
    flow, so neither the routed paths nor the order of augmentation changes
    the value or the separator.
    """
    to, adj, out_arc = net.to, net.adj, net.out_arc
    if cap is None:
        cap = net.cap[:]
    src, snk = 2 * s + 1, 2 * t
    flow = 0
    out_s, out_t = out_arc[s], out_arc[t]
    for c in sorted(out_s.keys() & out_t.keys()):
        if flow == limit:
            return flow, None
        if not cap[2 * c]:
            continue
        for a in (out_s[c], 2 * c, out_arc[c][t]):
            cap[a] -= 1
            cap[a ^ 1] += 1
        flow += 1
    if flow == limit:
        return flow, None
    # The warm paths routed, of two or more vertices, and the first vertex
    # of each of them and of each searched path. A one-vertex path would
    # pass through a common neighbor of s and t, all of which are taken.
    routed: list[list[int]] = []
    starts: list[int] = []
    for path in paths or ():
        u, arcs = s, []
        for v in path:
            if not cap[2 * v]:
                break
            arcs += (out_arc[u][v], 2 * v)
            u = v
            if t in out_arc[v]:
                for a in arcs + [out_arc[v][t]]:
                    cap[a] -= 1
                    cap[a ^ 1] += 1
                flow += 1
                if len(arcs) > 2:
                    routed.append(path[:len(arcs) // 2])
                    starts.append(path[0])
                break
        if flow == limit:
            paths[:] = routed
            return flow, None
    sep = None
    while flow != limit:
        pred, succ, meet = _search(adj, cap, src, snk)
        if meet < 0:
            # no augmenting path: pred marks what the source reaches
            sep = tuple([v for v in range(len(adj) // 2)
                         if pred[2 * v] != -1 and pred[2 * v + 1] == -1])
            break
        first = _augment(to, cap, pred, meet, src, 1)
        _augment(to, cap, succ, meet, snk, 0)
        # the path's arc out of the source, on the backward tree when that
        # search reached the source itself
        starts.append(to[first if first >= 0 else succ[src]] // 2)
        flow += 1
    if paths is not None:
        paths[:] = _flow_paths(net, cap, starts, t)
    return flow, sep


def _search(adj: list[list[tuple[int, int]]], cap: list[int], src: int,
            snk: int) -> tuple[list[int], list[int], int]:
    """A breadth-first search from both ends for a path from `src` to `snk`
    in the residual graph of `cap`: (pred, succ, the node where the two
    searches met, or -1 when there is no path). Each step grows the smaller
    frontier by one level, forward over residual arcs (flip 0) or backward
    over reverse residual arcs (flip 1). pred[v] is the arc that enters v
    on the forward tree, succ[v] the arc that leaves v on the backward tree,
    and -1 marks a node not reached; without a path the forward search has
    run to its end. A node whose copy-parity is `flip` (an in-copy forward,
    an out-copy backward) with no flow through its vertex has only the
    internal arc to follow, and its row is not read."""
    pred, succ = [-1] * len(adj), [-1] * len(adj)
    pred[src] = succ[snk] = -2
    ahead, behind = [src], [snk]
    while ahead:
        flip = 1 if behind and len(behind) < len(ahead) else 0
        mine, other = (succ, pred) if flip else (pred, succ)
        grown = []
        for u in behind if flip else ahead:
            for a, v in ((u, u ^ 1),) if u & 1 == flip and not cap[u | 1] else adj[u]:
                if cap[a ^ flip] and mine[v] == -1:
                    mine[v] = a ^ flip
                    if other[v] != -1:
                        return pred, succ, v
                    grown.append(v)
        if flip:
            behind = grown
        else:
            ahead = grown
    return pred, succ, -1


def _augment(to: list[int], cap: list[int], tree: list[int], node: int, root: int,
             end: int) -> int:
    """Push one unit along the arcs of `tree` between `node` and `root`, a
    tree that records arcs into each node (`end` 1) or out of it (`end` 0);
    the arc at `root`, or -1 when node is root."""
    a = -1
    while node != root:
        a = tree[node]
        cap[a] -= 1
        cap[a ^ 1] += 1
        node = to[a ^ end]
    return a


def _flow_paths(net: _SplitNetwork, cap: list[int], starts: list[int],
                t: int) -> list[list[int]]:
    """The paths of the flow on `cap` from the vertices `starts` to t, as
    vertex sequences without t, each followed along the edge arcs with
    flow. With no vertex merged, a vertex other than the flow's ends
    carries at most one unit, so one edge arc with flow leaves it."""
    paths = []
    for v in starts:
        path = []
        while v != t:
            path.append(v)
            for v, a in net.out_arc[v].items():
                if cap[a ^ 1]:
                    break
        paths.append(path)
    return paths


def _flow_pairs(g: Graph, alive: int | None = None) -> list[tuple[int, int]]:
    """The pairs whose flows decide kappa(H), for H the subgraph of G on the
    `alive` vertex mask (all of G when None), connected and not complete:
    v0, the least vertex of minimum degree in H, against each non-neighbor,
    then each non-adjacent pair of v0's neighbors.

    Every separator S separates one of them. If S misses v0 it separates v0
    from some non-neighbor; if S contains v0, v0 has neighbors in two
    components of H - S, and these are not adjacent.
    """
    masks = g.masks
    if alive is None:
        alive = g.full_mask
    v0 = min(mask_to_vertices(alive), key=lambda v: ((masks[v] & alive).bit_count(), v))
    nbrs = masks[v0] & alive
    pairs = [(v0, w) for w in mask_to_vertices(alive & ~nbrs & ~(1 << v0))]
    pairs += [(x, y) for x, y in combinations(mask_to_vertices(nbrs), 2)
              if not masks[x] >> y & 1]
    return pairs


class DeadlineExceeded(Exception):
    """A check ran past its deadline."""


class _Flows:
    """The work context of one call on a graph G: G, the call's deadline (a
    time.monotonic() value, or None for no budget), G's split network and
    kappa flow pairs, and the facts of G: kappa(G) with a minimum cut, the
    sorted minimum cuts, and for each k the quasi k-verdict with its
    (k-1)-cuts. Each is computed on first use and kept for the call; the
    pass of a quasi test keeps kappa with its cut as well, and the minimum
    cuts when it lists all of them. A fact whose computation raises is not
    kept.

    Only an entry point creates one and passes it to every kappa
    computation, cut listing and per-edge decision of the call, so every
    flow runs within the call's budget. Flows work on copies of the
    capacities, and a pass or listing that adds arcs removes them before it
    ends, also when it raises, so the network is G's between uses.
    """

    def __init__(self, g: Graph, deadline: float | None = None) -> None:
        self.g = g
        self.deadline = deadline
        self._quasi: dict[int, tuple[QuasiConnectivity, list[Cut]]] = {}

    def check(self) -> None:
        """Raise DeadlineExceeded once the deadline has passed."""
        if self.deadline is not None and monotonic() > self.deadline:
            raise DeadlineExceeded

    @cached_property
    def net(self) -> _SplitNetwork:
        return _split_network(self.g)

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        return _flow_pairs(self.g)

    @cached_property
    def kappa_with_cut(self) -> tuple[int, Cut | None]:
        return _vertex_connectivity_with_cut(self)

    @property
    def kappa(self) -> int:
        return self.kappa_with_cut[0]

    @cached_property
    def minimum_cuts(self) -> list[Cut]:
        return sorted(_min_separators(self, self.kappa), key=lambda cut: cut.vertices)

    def quasi(self, k: int) -> tuple[QuasiConnectivity, list[Cut]]:
        """The quasi k-verdict of G with its (k-1)-cuts (`_quasi_with_cuts`)."""
        if k not in self._quasi:
            self._quasi[k] = _quasi_with_cuts(self, k)
        return self._quasi[k]


def _capacities(net: _SplitNetwork, without: Iterable[int] = (),
                merged: Iterable[int] = ()) -> list[int]:
    """A copy of the network's capacities with the internal arcs of the
    vertices `without` closed, so no path passes through them, and those of
    the vertices `merged` uncuttable, so no separator holds them."""
    cap = net.cap[:]
    for v in without:
        cap[2 * v] = 0
    for v in merged:
        cap[2 * v] = len(net.out_arc)
    return cap


def _complete(g: Graph, alive: int) -> bool:
    """Whether the subgraph of G on the `alive` vertex mask is complete."""
    masks = g.masks
    return all((masks[v] | 1 << v) & alive == alive for v in mask_to_vertices(alive))


def _vertex_connectivity_with_cut(flows: _Flows, t: int | None = None, j: int | None = None,
                                  listed: list[Cut] | None = None) -> tuple[int, Cut | None]:
    """kappa(G) and a minimum cut of G (None when it has none: K1 and
    complete graphs), for G the graph of the flow context `flows`.

    With a threshold t: when kappa < t, the same value and cut as without
    it; otherwise some value >= t and no cut. Each pair's flow is capped at
    the smallest separator found so far (t at first), since only a smaller
    one is kept. Only the value without t is a fact of G that the context
    keeps.

    After each pair its edge is added to the network, as `_min_separators`
    does, and the added arcs are removed when the pass ends or raises.
    Neither the value nor the cut changes, for any t. Let p be the first
    pair that some kappa-separator splits. An added edge st crosses only
    separators that split (s, t), so no edge added before p crosses a
    kappa-separator, and p's flow is kappa. Every pair before p has a
    local connectivity above kappa in G, and added edges lower no flow, so
    p is still the first pair to reach kappa, and every flow is at least
    kappa. The cut kept is p's least minimum cut, the set its source
    reaches in the residual graph. That set S is a minimum cut of G, no
    added arc leaves it (the arc would join two sides of a kappa-separator
    that then split an earlier pair), and added arcs make no new minimum
    cut, so S is p's least minimum cut with the added edges too.

    With a size j and a list `listed` (the quasi test, from
    `_quasi_with_cuts`, with no t), the same pass lists the j-separators of
    G into `listed`, as `_min_separators(flows, j)` does. While the
    smallest separator so far is j and the listing has not ended, each flow
    is capped at j + 1, so a pair whose flow is exactly j ends at a maximum
    flow, and its separators are read from that same residual graph. Pairs
    whose flow ends above j list nothing in either pass. At the first
    nontrivial cut the first n^2 j-subsets are scanned: when the scan meets
    a nontrivial j-cut, the least one, it is listed too and the listing
    ends, and the pass only confirms kappa. Otherwise the listing runs to
    the end, and at kappa = j it holds every j-cut, which the context keeps,
    sorted, as G's minimum cuts. At kappa > j it is the plain pass and
    lists nothing.

    The flows of a run of pairs from one source warm-start from the
    previous sink's paths (see `_local_vertex_cut`), which changes no flow
    value and no separator.
    """
    g = flows.g
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    if t is None:
        t = n
    if n == 1:
        return 0, None
    if len(component_masks(g.masks, g.full_mask)) > 1:
        return 0, (make_cut(g, ()) if t > 0 else None)
    if g.is_complete():
        return n - 1, None
    best = min(t, n - 1)
    best_sep: tuple[int, ...] | None = None
    net = flows.net
    mark = len(net.to)
    seen: set[tuple[int, ...]] = set()
    scanned, least = False, None
    source, paths = -1, []
    try:
        for s, w in flows.pairs:
            flows.check()
            if s != source:
                source, paths = s, []
            cap = net.cap[:]
            listing = best == j and least is None
            size, sep = _local_vertex_cut(net, s, w, best + 1 if listing else best, cap, paths)
            if size < best:
                best, best_sep = size, sep
            if size == j and sep is not None:
                # a maximum flow of j below the cap: list the pair's j-separators
                for pair_sep in _pair_separators(net, cap, s, w):
                    flows.check()
                    if pair_sep not in seen:
                        seen.add(pair_sep)
                        listed.append(make_cut(g, pair_sep))
                        if listed[-1].nontrivial and not scanned:
                            scanned = True
                            least = next((c for c in _cuts(flows, j, n * n) if c.nontrivial), None)
                            if least is not None:
                                listed.append(least)
                                break
            _add_edge(net, s, w)
    finally:
        _remove_added_edges(net, mark)
    if best == j and least is None:
        flows.minimum_cuts = sorted(listed, key=lambda cut: cut.vertices)
    return best, None if best_sep is None else make_cut(g, best_sep)


def vertex_connectivity(g: Graph) -> int:
    """kappa(G); n - 1 for complete graphs, 0 when disconnected."""
    return _Flows(g).kappa


# ---------------------------------------------------------------------------
# Minimum separators from the residual graphs of the kappa flows.

def _reach(net: _SplitNetwork, cap: list[int], node: int, known: int,
           forward: bool) -> int:
    """Bitmask of the nodes outside `known` that `node` reaches (forward) or
    that reach `node` (backward) in the residual graph of `cap`; `known`
    must be closed in that direction."""
    flip = 0 if forward else 1
    adj = net.adj
    seen = known | 1 << node
    stack = [node]
    while stack:
        for a, v in adj[stack.pop()]:
            if cap[a ^ flip] and not seen >> v & 1:
                seen |= 1 << v
                stack.append(v)
    return seen & ~known


def _pair_separators(net: _SplitNetwork, cap: list[int], s: int, t: int,
                     without: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Every minimum s-t separator once, from the residual capacities `cap`
    of a maximum s-t flow on `net` with the vertices `without` closed.

    The minimum cuts are the node sets X closed under residual arcs that
    hold s's out-copy and not t's in-copy (Picard and Queyranne). Those of
    one separator S differ in the components of G - S other than s's, so
    only one X per S is listed: both copies of s's component and the
    in-copies of S. The search keeps such a closed X and a set Y closed
    under reverse residual arcs, disjoint from X, and branches on the least
    vertex a whose in-copy is in X and whose out-copy is in neither: a stays
    out of S (X takes what a's out-copy reaches) or joins it (Y takes what
    reaches a's out-copy). A branch in which X and Y would meet is dropped;
    the other one then cannot be. Each leaf is one separator: the vertices
    whose in-copy is in X and whose out-copy is not. The out-copy of a
    closed vertex has no residual arc into it, so Y starts with it: the
    vertex is never branched on, and is left out of every separator.

    The branch in which a joins S is searched first, and no path takes it
    more than |S| times, so the first separators lie near s and take a few
    closure searches, however far t is: on C480(1,2) the pair (0, 3)
    yields its first separator after 6 searches, where taking the other
    branch first made 476. Callers check the deadline once per separator,
    so their checks stay close together.
    """
    in_copies = (1 << len(net.adj)) // 3  # the even node bits
    closed = vertices_to_mask(2 * v for v in without)
    stack = [(_reach(net, cap, 2 * s + 1, 0, True),
              _reach(net, cap, 2 * t, 0, False) | closed << 1)]
    while stack:
        inside, outside = stack.pop()
        free = inside & ~((inside | outside) >> 1) & in_copies
        if not free:
            cut = inside & ~(inside >> 1) & in_copies & ~closed
            yield tuple([v for v in range(len(net.adj) // 2) if cut >> 2 * v & 1])
            continue
        out_copy = (free & -free).bit_length()
        grow = _reach(net, cap, out_copy, inside, True)
        if not grow & outside:
            stack.append((inside | grow, outside))
        shrink = _reach(net, cap, out_copy, outside, False)
        if not shrink & inside:
            stack.append((inside, outside | shrink))


def _min_separators(flows: _Flows, j: int,
                    without: tuple[int, ...] = ()) -> Iterator[Cut]:
    """Every separator T of size j of H = G - without once, in discovery
    order, as the cut T + without of G, for G the graph of `flows` and
    kappa(H) >= j; nothing when H is complete, and the one empty separator
    when H is disconnected and j = 0. When kappa(H) < j, a separator
    smaller than j is yielded, perhaps after some of size j.

    Each pair of `_flow_pairs` gets one flow capped at j + 1, on G's
    network with the vertices `without` closed. A flow of j lists the
    pair's minimum separators from its residual graph; a flow below j
    yields its one separator. The flows of a run of pairs from one source
    warm-start from the previous sink's paths. Then the pair's edge is
    added to the network, so later pairs find no separator that splits an
    earlier pair. A separator S is still met at the first pair it splits:
    no edge added before crosses S, so that pair's flow is at most |S|. A
    separator that leaves three or more components can still split a later
    pair; a seen set drops those repeats. The added edges are removed when
    the listing ends, raises or is closed.
    """
    g = flows.g
    alive = g.full_mask & ~vertices_to_mask(without)
    if _complete(g, alive):
        return
    if j == 0:
        if len(component_masks(g.masks, alive)) > 1:
            yield make_cut(g, without)
        return
    net = flows.net
    mark = len(net.to)
    seen: set[tuple[int, ...]] = set()
    source, paths = -1, []
    try:
        for s, t in _flow_pairs(g, alive) if without else flows.pairs:
            flows.check()
            if s != source:
                source, paths = s, []
            cap = _capacities(net, without)
            size, sep = _local_vertex_cut(net, s, t, j + 1, cap, paths)
            if size < j:
                yield make_cut(g, sep + without)
            elif size == j:
                for sep in _pair_separators(net, cap, s, t, without):
                    flows.check()
                    if sep not in seen:
                        seen.add(sep)
                        yield make_cut(g, sep + without)
            _add_edge(net, s, t)
    finally:
        _remove_added_edges(net, mark)


def _quasi_k_cuts(flows: _Flows, k: int) -> list[Cut]:
    """enumerate_cuts(g, k) for G, the graph of `flows`, quasi k-connected,
    not complete, with kappa(G) in {k-1, k}; the flows run on G's network.

    At kappa = k these are the context's minimum cuts. At kappa = k-1 the
    minimum degree is at least k-1, so a k-cut with a singleton component
    {u} is N(u) with deg u = k, or N(u) + v with deg u = k-1 and v outside
    N[u]. Every other k-cut T leaves components of >= 2 vertices each. Of k+1
    disjoint edges T misses one, e = xy, which lies in one component; every
    other component holds a terminal: a vertex of degree > k, or else an
    edge between two vertices of degree <= k, as the component is connected.
    No (k-1)-set separates e from a terminal, as it would be a nontrivial
    (k-1)-cut, so T is a minimum separator between them and is listed from
    the residual graph of their flow, e and an edge terminal each merged
    into one end by an uncuttable internal arc at the other.

    After a vertex terminal tau, the edge x tau is added to the network, as
    `_min_separators` adds each pair's edge: the k-cuts listed for e avoid
    x and y, so a later one that separates x from tau separates e from tau,
    and the pair (e, tau) listed it. An edge terminal adds no edge, since
    that would also drop the k-cuts that hold the terminal's other end,
    which its pair never listed (`LOST_BY_ADDED_EDGES` in the tests). The
    added edges are removed before the next disjoint edge, whose pairs may
    list k-cuts that hold y and separate x from tau, and when the listing
    ends or raises, so the shared network is G's again. Without k+1
    disjoint edges G is small, and the k-subsets are scanned.
    """
    g = flows.g
    if flows.kappa == k:
        return flows.minimum_cuts
    matching, used = [], 0
    for x, y in g.edges():
        if not used & (1 << x | 1 << y):
            matching.append((x, y))
            used |= 1 << x | 1 << y
            if len(matching) == k + 1:
                break
    else:
        return list(_cuts(flows, k))
    masks, deg = g.masks, g.degrees()
    seps: set[tuple[int, ...]] = set()
    for u in g.vertices:
        if deg[u] == k:
            seps.add(mask_to_vertices(masks[u]))
        elif deg[u] == k - 1:
            seps.update(mask_to_vertices(masks[u] | 1 << v) for v in g.vertices
                        if not (masks[u] | 1 << u) >> v & 1)
    terminals = [(v,) for v in g.vertices if deg[v] > k]
    terminals += [(x, y) for x, y in g.edges() if deg[x] <= k and deg[y] <= k]
    net = flows.net
    mark = len(net.to)
    for x, y in matching:
        near = masks[x] | masks[y]
        try:
            for tau in terminals:
                if any(near >> v & 1 for v in tau):
                    continue  # a terminal in N[e] shares e's component
                flows.check()
                cap = _capacities(net, merged=(y,) + tau[1:])
                if _local_vertex_cut(net, x, tau[0], k + 1, cap)[0] == k:
                    for sep in _pair_separators(net, cap, x, tau[0]):
                        flows.check()
                        seps.add(sep)
                if len(tau) == 1:
                    _add_edge(net, x, tau[0])
        finally:
            _remove_added_edges(net, mark)
    return [make_cut(g, sep) for sep in sorted(seps)]


# ---------------------------------------------------------------------------
# Cut enumeration.

def _cuts(flows: _Flows, size: int, limit: int | None = None) -> Iterator[Cut]:
    """The cuts among the first `limit` (all when None) `size`-subsets of
    G, the graph of `flows`, in lexicographic order, one component BFS per
    subset; needs 0 <= size < n."""
    g = flows.g
    masks, full = g.masks, g.full_mask
    for t in islice(combinations(g.vertices, size), limit):
        flows.check()
        comps = component_masks(masks, full & ~vertices_to_mask(t))
        if len(comps) >= 2:
            yield _cut_from_masks(t, comps)


def enumerate_cuts(g: Graph, size: int) -> list[Cut]:
    """All cuts of exactly `size` vertices, lexicographically sorted.

    Every `size`-subset is visited, so the list is always complete.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size >= g.n:
        raise ValueError(f"size {size} must be smaller than the vertex count {g.n}")
    return list(_cuts(_Flows(g), size))


def minimum_cuts(g: Graph) -> list[Cut]:
    """The set of smallest cut sets, lexicographically sorted (empty for
    complete graphs). A disconnected graph has the one empty cut; otherwise
    the cuts are listed from the residual graphs of the kappa flows, so the
    cost grows with the number of cuts rather than with C(n, kappa)."""
    return _Flows(g).minimum_cuts


# ---------------------------------------------------------------------------
# Quasi k-connectivity.

@dataclass(frozen=True, slots=True)
class QuasiConnectivity:
    """Outcome of the quasi k-connectivity test.

    `failure` is None when the test holds, "connectivity" when kappa < k-1,
    or "nontrivial-cut" when a nontrivial (k-1)-cut exists; `cut`
    certifies the failure when a witnessing cut exists.
    """

    holds: bool
    k: int
    kappa: int
    failure: str | None
    cut: Cut | None

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "k": self.k,
            "kappa": self.kappa,
            "failure": self.failure,
            "cut": None if self.cut is None else self.cut.to_json(),
        }


def _quasi_with_cuts(flows: _Flows, k: int) -> tuple[QuasiConnectivity, list[Cut]]:
    """is_quasi_k_connected's verdict on G, the graph of `flows`, with the
    (k-1)-cuts it listed; the flows run on G's network.

    One pass over the kappa flow pairs (`_vertex_connectivity_with_cut`
    with j = k-1) gives kappa with its cut, which the context keeps, and,
    when kappa is exactly k-1, the (k-1)-cuts from the same flows: all of
    them, which the context keeps as its minimum cuts, unless a nontrivial
    one turns up and the scan of the first n^2 (k-1)-subsets then meets
    the least nontrivial one, which ends the listing. Either way the
    certificate is the lexicographically least nontrivial cut listed, and
    no pair runs a second flow. The list is empty whenever the verdict
    fails, and whenever it holds it is the complete, sorted list of
    (k-1)-cuts (there are none once kappa >= k).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    cuts: list[Cut] = []
    kappa, mincut = _vertex_connectivity_with_cut(flows, j=k - 1, listed=cuts)
    flows.kappa_with_cut = kappa, mincut
    if kappa < k - 1:
        return QuasiConnectivity(False, k, kappa, "connectivity", mincut), []
    if kappa >= k:
        return QuasiConnectivity(True, k, kappa, None, None), []
    nontrivial = [cut for cut in cuts if cut.nontrivial]
    if nontrivial:
        least = min(nontrivial, key=lambda cut: cut.vertices)
        return QuasiConnectivity(False, k, kappa, "nontrivial-cut", least), []
    return QuasiConnectivity(True, k, kappa, None, None), flows.minimum_cuts


def is_quasi_k_connected(g: Graph, k: int = 5) -> QuasiConnectivity:
    """(k-1)-connected with no nontrivial (k-1)-cut.

    When kappa is exactly k-1, the (k-1)-cuts are listed from the residual
    graphs of the kappa flows, which find every one, so a verdict that
    holds has seen them all. At the first nontrivial one the listing stops,
    and the certificate is the lexicographically least nontrivial cut,
    found in polynomial time (see `_quasi_with_cuts`).
    """
    return _Flows(g).quasi(k)[0]
