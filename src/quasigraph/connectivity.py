"""Vertex connectivity, minimum vertex cuts, cut enumeration, and the
quasi k-connectivity decision.

Connectivity uses unit-capacity max-flow on the standard vertex-split
digraph, with the dominating pair/neighbor scheme: fix a minimum-degree
vertex v, take local connectivity against every non-neighbor of v and
between every non-adjacent pair of neighbors of v. The digraph is built
at the call's first flow, and at most once per call, in a flow context
(`_Flows`) that the call's entry point creates and hands to every kappa
computation, cut listing and per-edge decision on the same graph, so a
call that runs no flow builds none; the private functions below take the
context in place of the graph and never build one, and read kappa, the
minimum cuts and the quasi verdicts from it, where each is computed once
per call. The context also carries the call's deadline, checked once per
flow pair, listed separator, scanned prefix and component search of a
scan, so a call that runs out of time raises `DeadlineExceeded` within one
such step. Each pair's flow stops once it reaches the smallest separator
found so far, since only a smaller one is kept; the kappa pass starts
from the minimum degree, with N(v) as its cut. The kappa pass and the
listings sweep the sinks of one source at a time (`_sweeps`), and one
capacity list carries the flow from each sink to the next that runs one
(`_Sweep`): each unit of the previous sink's flow is cut short at its
first vertex adjacent to the new sink, found from each vertex's unit and
position, and only the tail after it is undone, since consecutive sinks
share most of their paths (the amortised sink sweep of Hao and Orlin,
and of Henzinger, Rao and Gabow). After a search the units are read
back only at the next sink, from its neighbors backwards, and the flow
starts again from their heads. Other flows start empty on a copy of the
capacities. Each flow then routes one unit through every free common
neighbor of its pair s, t, and one unit s -> c -> d -> t for every free
neighbor d of t outside N(s), through the least free c in N(s) and N(d),
before it searches for augmenting paths: the quasi test of
quasi_5_apex(40, 1) runs 12 searches, and the k-cuts of
quasi_5_apex(16, 26) run 4. One routine moves a unit along its vertices,
or back (`_push`). Each augmenting path is found by a breadth-first
search from both ends, which meets in the middle and steps over a vertex
with no flow through it without reading its row. The separator is read
from what the source reaches in the final residual graph, which is the
same for every maximum flow, and augmenting from any feasible flow ends
at a maximum flow, so witness cuts depend neither on the carried flow nor
on the order of augmentation. On C40(1,2) the quasi test runs 7
augmenting searches, and the capacities it writes grow linearly in n.

The separators of G - x - y that decide whether contracting an edge xy
keeps G k-connected, or quasi k-connected, are listed on G's own
digraph: the capacity copies close the internal arcs of x and y, so no
path passes through them, and the pairs are taken from G's adjacency
with x and y removed. A separator T of G - x - y is returned as the cut
T + {x, y} of G, which leaves the same components. One listing at size
j both finds the separators of size j and meets a smaller one if there
is any, so the decision needs no kappa(G - x - y) first.

Minimum cuts are listed from the same pairs' flows, each capped at
kappa + 1 (after Kanevsky, and Picard and Queyranne): a pair whose flow is
kappa has as its minimum separators the closed sets of the final residual
graph, one canonical closed set per separator. After each pair its edge is
added, so no later pair finds those separators again, and a seen set
drops the few that leave three or more components and survive the edge.
The edge goes into the context's neighbor masks at once, and its arcs
into the network only just before the next flow, as only a flow reads
them; the added arcs are removed when the listing ends, so the shared
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
below is known. A pair runs no flow at all when its common neighbors and
the two-hop paths s -> c -> d -> t through distinct middle vertices, read
from the neighbor masks with the added edges, already reach its cap
(`_has_short_paths`): the flow would stop there with no separator. On
quasi_5_apex(40, 1) the test makes 8 flows and certifies the other 31 of
its 39 pairs; on C40(1,2), whose sinks share few neighbors with v0, it
certifies 3 of 38. The separator listings (`_min_separators`), which
decide every contraction, certify their pairs the same way at their cap
j + 1, reading only the masks' vertices outside `without`, so every path
counted lies in G - without: the search for quasi_5_apex(240, 1)'s first
contractible edge runs 26 flows and certifies the other 211 of its
listings' 237 pairs. Two flow users do not look for short paths. The
flows of `_quasi_k_cuts` run between merged ends, which carry several
units each. In `_kappa_after`, the flows to w run with y merged, and the
masks would certify 2 of the 1,107 flows of quasi_5_apex(240, 1)'s
contraction reports.

Cut enumeration of an arbitrary size decides every vertex subset of that
size in lexicographic order, so it is always complete. The subsets that
share a prefix P of all but their last vertex are decided together by one
search for the cut vertices of G - P (Hopcroft and Tarjan's low points)
when P leaves many last vertices, and otherwise by one component BFS
each. It serves `enumerate_cuts` and the k-cuts of a quasi k-connected
graph without k+1 disjoint edges.

A quasi test that fails on a nontrivial (k-1)-cut certifies it with the
lexicographically least one. When the pass lists its first nontrivial
cut, the first n^2 (k-1)-subsets are scanned, which ends at the least
nontrivial cut when it lies among them, and the listing stops there;
otherwise the pass lists on to the end, and at kappa = k-1 that listing
holds every (k-1)-cut, the least nontrivial one among them. Both branches
give the same cut, with at most one flow per pair, and neither is
exponential: the scan costs at most n^2 component BFS or cut-vertex
searches, and the listing a closure search per separator that a pair
lists, where a graph of connectivity kappa has O(2^kappa n^2 / kappa)
minimum separators (Kanevsky). On C40(1,2) the scan to the certificate
runs 3 cut-vertex searches.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from time import monotonic
from typing import Iterable, Iterator, NamedTuple

from .core import (
    Graph,
    component_masks,
    mask_to_vertices,
    reach_mask,
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
    """The vertex-split digraph of a graph, built at a call's first flow
    and shared by every flow of that call (see `_Flows`).

    Node 2v is v's in-copy, 2v+1 its out-copy. Arcs come in pairs, arc
    a ^ 1 being the reverse of arc a: v's internal arc 2v -> 2v+1 is arc
    2v, with capacity 1, and each edge uw gives arcs 2u+1 -> 2w and
    2w+1 -> 2u with capacity n, more than any all-internal cut costs.
    `adj[node]` lists (arc, head) for the arcs leaving node, reverse arcs
    included, and `out_arc[u][w]` is the index of arc 2u+1 -> 2w. A flow
    works on a copy of `cap`, and a sweep of flows on one (`_Sweep`).
    """

    to: list[int]
    cap: list[int]
    adj: list[list[tuple[int, int]]]
    out_arc: list[dict[int, int]]


def _add_edge(net: _SplitNetwork, u: int, w: int) -> None:
    """Add the arcs of edge uw, each of capacity n: arc 2u+1 -> 2w, its
    reverse, arc 2w+1 -> 2u and its reverse."""
    to, cap, adj, out_arc = net
    a, uo, wo = len(to), 2 * u + 1, 2 * w + 1
    to.extend((wo - 1, uo, uo - 1, wo))
    n = len(out_arc)
    cap.extend((n, 0, n, 0))
    adj[uo].append((a, wo - 1))
    adj[wo - 1].append((a + 1, uo))
    adj[wo].append((a + 2, uo - 1))
    adj[uo - 1].append((a + 3, wo))
    out_arc[u][w] = a
    out_arc[w][u] = a + 2


def _remove_added_edges(net: _SplitNetwork, mark: int) -> None:
    """Undo every `_add_edge` made since the network had `mark` arcs."""
    to, cap, adj, out_arc = net
    for a in range(len(to) - 2, mark - 1, -2):
        tail, head = to[a + 1], to[a]
        adj[tail].pop()
        adj[head].pop()
        del out_arc[tail // 2][head // 2]
    del to[mark:], cap[mark:]


def _split_network(g: Graph) -> _SplitNetwork:
    """G's split network in one pass over each vertex's mask of higher
    neighbors: the arcs of edge uw, u < w, are those `_add_edge(net, u, w)`
    appends, with the edges in sorted order."""
    n = g.n
    # the internal arcs: arc 2v is 2v -> 2v+1, arc 2v+1 its reverse
    to = [node ^ 1 for node in range(2 * n)]
    adj = [[(node, node ^ 1)] for node in range(2 * n)]
    out_arc: list[dict[int, int]] = [{} for _ in range(n)]
    a = 2 * n
    for u, m in enumerate(g.masks):
        uo = 2 * u + 1
        row_in, row_out, out_u = adj[uo - 1], adj[uo], out_arc[u]
        w, m = u, m >> (u + 1)
        while m:
            step = (m & -m).bit_length()
            w += step
            m >>= step
            wo = 2 * w + 1
            to += (wo - 1, uo, uo - 1, wo)
            row_out.append((a, wo - 1))
            adj[wo - 1].append((a + 1, uo))
            adj[wo].append((a + 2, uo - 1))
            row_in.append((a + 3, wo))
            out_u[w] = a
            out_arc[w][u] = a + 2
            a += 4
    return _SplitNetwork(to, [1, 0] * n + [n, 0, n, 0] * g.edge_count, adj, out_arc)


def _push(cap: list[int], out_arc: list[dict[int, int]], u: int, path: Iterable[int],
          t: int, d: int) -> None:
    """Move d units (1 routes one, -1 undoes one) from u along the vertices
    of `path`, through each one's internal arc, and into t."""
    for v in path:
        a = out_arc[u][v]
        cap[a] -= d
        cap[a ^ 1] += d
        cap[2 * v] -= d
        cap[2 * v + 1] += d
        u = v
    a = out_arc[u][t]
    cap[a] -= d
    cap[a ^ 1] += d


class _Sweep:
    """The flow of a sweep of sinks from one source s, carried from each
    sink to the next (see `_retarget`).

    `pending` lists, in order, the pair edges that the `_sweeps` run of
    this sweep is done with and has not yet added to the network; it is
    shared by the run's sweeps, and `ready` adds them just before a flow.
    `cap` holds the residual capacities of a flow from s to `sink`, on the
    network with the vertices `without` closed; `sink` is -1 before the
    sweep's first flow, and until then `cap` is None and `head` and `pos`
    are not allocated. `paths` maps the first vertex of each unit of that
    flow to the unit's vertices without s and the sink (a unit through a
    common neighbor of the two is one vertex long, a two-hop unit two),
    and a vertex v with flow through it is the `pos[v]`th vertex of the
    unit that starts at `head[v]`; the entries of a vertex with no flow
    through it mean nothing. The units are `stale` once a search has
    changed the flow, and are then read back only when the next sink needs
    them (`restart`).
    """

    __slots__ = ("pending", "without", "cap", "sink", "paths", "head", "pos", "stale")

    def __init__(self, pending: list[tuple[int, int]], without: tuple[int, ...] = ()) -> None:
        self.pending, self.without, self.cap = pending, without, None
        self.sink, self.stale = -1, False
        self.paths: dict[int, list[int]] = {}

    def ready(self, net: _SplitNetwork) -> list[int]:
        """The sweep's capacities for its next flow on `net`, once the
        pending edges are added to the network (`_add_edge`), in order: at
        the sweep's first flow a copy of the network's with the vertices
        `without` closed, later the carried ones with the new arcs'
        capacities appended. Either way they are what they would be had
        each edge been added as soon as its pair was done."""
        for u, w in self.pending:
            _add_edge(net, u, w)
        self.pending.clear()
        if self.cap is None:
            self.cap = _capacities(net, self.without)
            self.head, self.pos = [0] * len(net.out_arc), [0] * len(net.out_arc)
        else:
            self.cap += net.cap[len(self.cap):]
        return self.cap

    def keep(self, path: list[int]) -> None:
        """Record `path` as a unit of the flow."""
        self.paths[path[0]] = path
        for i, v in enumerate(path):
            self.head[v], self.pos[v] = path[0], i

    def restart(self, net: _SplitNetwork, s: int, t: int) -> int:
        """Start the stale flow again from the heads of its units that pass
        a neighbor of t, each up to its first one and then into t; their
        number.

        Each head is read back from its neighbor of t along the arcs with
        flow into it: a vertex with flow through it has one edge arc with
        flow into its in-copy, whose reverse arc is then open. A walk back
        that meets another neighbor of t is dropped, as that one's walk
        reads the same unit. A walk from a vertex on a circulation, which a
        search can leave, comes back to that vertex and is dropped too.
        """
        cap, adj, near = self.cap, net.adj, net.out_arc[t]
        heads = []
        for u in near:
            if not cap[2 * u + 1]:
                continue  # no flow through u
            path, v = [u], u
            while True:
                for a, w in adj[2 * v]:
                    if a & 1 and cap[a]:
                        break
                v = w // 2
                if v == s:
                    path.reverse()
                    heads.append(path)
                    break
                if v in near:
                    break
                path.append(v)
        cap[:] = net.cap
        for v in self.without:
            cap[2 * v] = 0
        self.paths, self.stale = {}, False
        for path in heads:
            self.keep(path)
            _push(cap, net.out_arc, s, path, t, 1)
        return len(heads)


def _retarget(net: _SplitNetwork, s: int, t: int, sweep: _Sweep) -> int:
    """Turn the sweep's flow from s into a flow from s to t, and return
    its number of units.

    Each unit is cut short at its first vertex adjacent to t and takes
    that vertex's arc into t; a unit with no vertex adjacent to t is
    dropped. t is on no unit that is kept: its predecessor on a unit is
    adjacent to it, and s is not. The cuts come from looking t's neighbors
    up in `head` and `pos`, and the arcs after them are undone, down to
    the one into the old sink, so the work follows the changed tails, not
    the lengths of the units. Stale units are not looked up: the flow
    starts again from their heads, read back from t's neighbors
    (`_Sweep.restart`), which is the only work done on the units of a
    flow that a search changed.
    """
    cap, out_arc, old = sweep.cap, net.out_arc, sweep.sink
    paths, head, pos = sweep.paths, sweep.head, sweep.pos
    sweep.sink = t
    if old < 0:
        return 0
    if sweep.stale:
        return sweep.restart(net, s, t)
    # with no search since the units were read, every vertex with flow
    # through it is on a unit
    cut: dict[int, int] = {}
    for u in out_arc[t]:
        if cap[2 * u + 1] and (head[u] not in cut or pos[u] < cut[head[u]]):
            cut[head[u]] = pos[u]
    for h, path in list(paths.items()):
        i = cut.get(h, -1)
        _push(cap, out_arc, path[i] if i >= 0 else s, path[i + 1:], old, -1)
        if i < 0:
            del paths[h]
        else:
            del path[i + 1:]
            _push(cap, out_arc, path[i], (), t, 1)
    return len(paths)


def _local_vertex_cut(net: _SplitNetwork, s: int, t: int, limit: int, cap: list[int],
                      sweep: _Sweep | None = None) -> tuple[int, tuple[int, ...] | None]:
    """(flow value, minimum s-t vertex separator) for non-adjacent s, t,
    unless the flow reaches `limit` first: then (limit, None).

    The flow runs from s's out-copy to t's in-copy on `cap`, which is left
    holding the residual capacities. Without a `sweep` the flow starts
    empty on `cap`. With a sweep of sinks from s, `cap` is the sweep's and
    holds its flow to the last sink that ran one, which `_retarget` turns
    into a flow to t; on return the sweep holds this flow and its units.
    The flow then routes one unit along s -> c -> t for each common
    neighbor c whose internal arc is open, in ascending order (a closed one
    is a vertex removed from the graph, or one that a unit already passes
    through), and then one unit along s -> c -> d -> t for each open
    neighbor d of t outside N(s), in ascending order, through the least
    open c in N(s) and N(d); c is not t and d is not s, as s and t are not
    adjacent. The neighbors are read from `out_arc`, so the edges a pass
    has added count too. A merged vertex, whose internal arc has capacity
    n, stays open and may carry several such units: the two-hop units of
    `_quasi_k_cuts` through the merged end. Each unit is kept in the sweep
    by its first vertex.

    Then the flow augments along paths that `_search` finds from both
    ends. An augmenting path enters an in-copy other than the sink's and
    leaves it by the internal arc or by the reverse of an edge arc, both of
    residual capacity at most 1, so each path adds exactly one unit. No path
    leaves the sink's in-copy or enters the source's out-copy, so no unit
    routed out of s is taken back. A search leaves the sweep's units stale
    (see `_retarget`). A carried flow can hold more units than `limit`,
    which only ends the flow at once.
    Minimum cuts consist of internal arcs only and read off as a vertex
    set: the vertices whose in-copy the source reaches in the final
    residual graph and whose out-copy it does not. That reachable set is the
    source side of the unique minimal minimum cut, the same for every
    maximum flow, and augmenting from any feasible flow ends at a maximum
    flow, so neither the carried flow nor the order of augmentation changes
    the value or the separator.
    """
    to, adj, out_arc = net.to, net.adj, net.out_arc
    flow = 0 if sweep is None else _retarget(net, s, t, sweep)
    src, snk = 2 * s + 1, 2 * t
    if flow < limit:
        out_s, out_t = out_arc[s], out_arc[t]
        # common neighbors first, then the rest of N(t); only out_t is
        # walked, as out_s grows with the edges a sweep adds
        common = sorted(out_s.keys() & out_t.keys())
        for d in common + sorted([d for d in out_t if d not in out_s]):
            if not cap[2 * d]:
                continue
            if d in out_s:
                path = [d]
            else:
                hops = [c for c in out_s.keys() & out_arc[d].keys() if cap[2 * c]]
                if not hops:
                    continue
                path = [min(hops), d]
            _push(cap, out_arc, s, path, t, 1)
            if sweep is not None:
                sweep.keep(path)
            flow += 1
            if flow == limit:
                break
    sep = None
    while flow < limit:
        pred, succ, meet = _search(adj, cap, src, snk)
        if meet < 0:
            # no augmenting path: pred marks what the source reaches
            sep = tuple([v for v in range(len(adj) // 2)
                         if pred[2 * v] != -1 and pred[2 * v + 1] == -1])
            break
        _augment(to, cap, pred, meet, src, 1)
        _augment(to, cap, succ, meet, snk, 0)
        flow += 1
        if sweep is not None:
            sweep.stale = True
    return min(flow, limit), sep


def _has_short_paths(masks: list[int], s: int, t: int, cap: int, alive: int = -1) -> bool:
    """Whether a greedy choice finds `cap` internally disjoint s-t paths
    of length 2 and 3, for non-adjacent s, t in the graph H of the neighbor
    bitmasks `masks` restricted to the vertex mask `alive` (all of them by
    default): one path s -> c -> t for every common neighbor c, then one
    path s -> c -> d -> t for each neighbor d of t outside N(s), in
    ascending order, through the least c of N(s) and N(d) that no path
    holds yet, the units that `_local_vertex_cut` routes first in an empty
    flow. The choice stops once the neighbors d left are too few to reach
    `cap`.

    When it finds them, the local connectivity of s and t in H is at least
    `cap`: each c, common neighbor or not, lies in N(s) and is taken once,
    each d lies outside N(s) and is taken once, and none is s or t, as s
    and t are not adjacent, so the paths share no inner vertex. Every c
    and d is read from N(s) & alive or N(t) & alive, so every path stays
    inside H. The kappa pass calls it on G, and the separator listings on
    G - without (`_min_separators`), before a pair's flow."""
    ns, nt = masks[s] & alive, masks[t] & alive
    common = ns & nt
    need = cap - common.bit_count()
    rest = nt ^ common
    left = rest.bit_count()
    if need > left:
        return False
    free = ns ^ common
    while need > 0:
        d = rest & -rest
        rest ^= d
        left -= 1
        hops = free & masks[d.bit_length() - 1]
        if hops:
            free ^= hops & -hops
            need -= 1
        elif need > left:
            return False
    return True


def _search(adj: list[list[tuple[int, int]]], cap: list[int], src: int,
            snk: int) -> tuple[list[int], list[int], int]:
    """A breadth-first search from both ends for a path from `src` to `snk`
    in the residual graph of `cap`: (pred, succ, the node where the two
    searches met, or -1 when there is no path). Each step grows the smaller
    frontier by one level, forward over residual arcs or backward over
    reverse residual arcs. pred[v] is the arc that enters v on the forward
    tree, succ[v] the arc that leaves v on the backward tree, and -1 marks
    a node not reached; without a path the forward search has run to its
    end. A vertex with no flow through it has only its internal arc to
    follow from its in-copy forward and from its out-copy backward, and
    there its row is not read. cap[node | 1], the residual capacity of the
    reverse internal arc, is the flow through either copy's vertex."""
    pred, succ = [-1] * len(adj), [-1] * len(adj)
    pred[src] = succ[snk] = -2
    ahead, behind = [src], [snk]
    while ahead:
        grown = []
        if behind and len(behind) < len(ahead):
            for u in behind:
                for a, v in ((u, u ^ 1),) if u & 1 and not cap[u] else adj[u]:
                    if cap[a ^ 1] and succ[v] == -1:
                        succ[v] = a ^ 1
                        if pred[v] != -1:
                            return pred, succ, v
                        grown.append(v)
            behind = grown
        else:
            for u in ahead:
                for a, v in ((u, u ^ 1),) if not u & 1 and not cap[u | 1] else adj[u]:
                    if cap[a] and pred[v] == -1:
                        pred[v] = a
                        if succ[v] != -1:
                            return pred, succ, v
                        grown.append(v)
            ahead = grown
    return pred, succ, -1


def _augment(to: list[int], cap: list[int], tree: list[int], node: int, root: int,
             end: int) -> None:
    """Push one unit along the arcs of `tree` between `node` and `root`, a
    tree that records arcs into each node (`end` 1) or out of it (`end` 0)."""
    while node != root:
        a = tree[node]
        cap[a] -= 1
        cap[a ^ 1] += 1
        node = to[a ^ end]


def _flow_pairs(g: Graph, alive: int | None = None,
                connected: bool = False) -> list[tuple[int, int]]:
    """The pairs whose flows decide kappa(H), for H the subgraph of G on the
    `alive` vertex mask (all of G when None), not complete: v0, the least
    vertex of minimum degree in H, against each non-neighbor, those outside
    v0's component first, then each non-adjacent pair of v0's neighbors.

    Every separator S separates one of them. If S misses v0 it separates v0
    from some non-neighbor; if S contains v0, v0 has neighbors in two
    components of H - S, and these are not adjacent. The empty separator
    of a disconnected H is no exception: v0 and a vertex of another
    component form the first pair, and its flow is 0. For a connected H
    the non-neighbors run in ascending order. A caller that knows H is
    connected (G - x - y for kappa(G) >= 3) passes `connected`, and no
    search for v0's component runs: the pairs are the same.
    """
    masks = g.masks
    if alive is None:
        alive = g.full_mask
    v0 = min(mask_to_vertices(alive), key=lambda v: ((masks[v] & alive).bit_count(), v))
    nbrs = masks[v0] & alive
    home = alive if connected else reach_mask(masks, 1 << v0, alive)
    others = alive & ~nbrs & ~(1 << v0)
    pairs = [(v0, w) for w in mask_to_vertices(others & ~home) + mask_to_vertices(others & home)]
    pairs += [(x, y) for x, y in combinations(mask_to_vertices(nbrs), 2)
              if not masks[x] >> y & 1]
    return pairs


class DeadlineExceeded(Exception):
    """A check ran past its deadline."""


class _Flows:
    """The work context of one call on a graph G: G, the call's deadline
    (a time.monotonic() value, or None for no budget), G's kappa flow
    pairs, G's split network, built when the call's first flow needs it,
    and `masks`, G's neighbor bitmasks with the edges that the running
    kappa pass or separator listing has added (`_sweeps`), in which both
    look for short disjoint paths (`_has_short_paths`); and the facts of
    G: kappa(G) with a minimum cut, the sorted minimum cuts, and for each
    k the quasi k-verdict. Each is computed on first use and kept for the
    call; the pass of a quasi test keeps kappa with its cut as well, and
    the minimum cuts when it lists all of them, so a verdict that holds at
    kappa = k-1 leaves G's (k-1)-cuts in `minimum_cuts`. A fact whose
    computation raises is not kept. `searches` maps (k, quasi) to the
    first contractible edge of G, or None, that
    `contractibility._first_contractible_edge` found; a campaign passes
    one dict to the contexts of all the claims on one graph, and every
    other context starts with its own empty one.

    Only an entry point creates one and passes it to every kappa
    computation, cut listing and per-edge decision of the call, so every
    flow runs within the call's budget. Flows work on copies of the
    capacities, and a pass or listing that adds arcs or mask bits removes
    them before it ends, also when it raises, so the network and the masks
    are G's between uses.
    """

    def __init__(self, g: Graph, deadline: float | None = None,
                 searches: dict[tuple[int, bool], tuple[int, int] | None] | None = None) -> None:
        self.g = g
        self.deadline = deadline
        self.masks = list(g.masks)
        self._quasi: dict[int, QuasiConnectivity] = {}
        self.searches = {} if searches is None else searches

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

    def quasi(self, k: int) -> QuasiConnectivity:
        """The quasi k-verdict of G (`_quasi_test`)."""
        if k not in self._quasi:
            self._quasi[k] = _quasi_test(self, k)
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


def _sweeps(flows: _Flows, pairs: Iterable[tuple[int, int]],
            without: tuple[int, ...] = ()) -> Iterator[tuple[int, int, _Sweep]]:
    """Each pair (s, t) of `pairs` with the `_Sweep` that carries its flow:
    one sweep per run of pairs from one source, on G's network with the
    vertices `without` closed. The deadline is checked before each pair.
    When the caller asks for the next pair, the last pair's edge is added,
    so later pairs find no separator that splits it: to `flows.masks` at
    once, and to the network only when a later pair is about to run a flow
    (`_Sweep.ready`), as only a flow reads the arcs. At every flow the
    network and the sweep's capacities are then what they would be had
    each edge been added at once, and a run in which no pair runs a flow
    adds no arc and, in a call with no flow before, builds no network.
    When the pairs end, the caller raises or closes the generator, the
    added arcs are removed if a network was built, and the masks are set
    back, so both are G's again. Run it under `contextlib.closing`.
    """
    g, masks = flows.g, flows.masks
    pending: list[tuple[int, int]] = []
    source, sweep = -1, None
    try:
        for s, t in pairs:
            flows.check()
            if s != source:
                source, sweep = s, _Sweep(pending, without)
            yield s, t, sweep
            pending.append((s, t))
            masks[s] |= 1 << t
            masks[t] |= 1 << s
    finally:
        if "net" in vars(flows):
            # the arcs of G's own vertices and edges
            _remove_added_edges(flows.net, 2 * g.n + 4 * g.edge_count)
        masks[:] = g.masks


def _vertex_connectivity_with_cut(flows: _Flows, t: int | None = None, j: int | None = None,
                                  listed: list[Cut] | None = None) -> tuple[int, Cut | None]:
    """kappa(G) and a minimum cut of G (None when it has none: complete
    graphs, K1 among them), for G the graph of the flow context `flows`.

    With a threshold t: when kappa < t, the same value and cut as without
    it; otherwise some value >= t and no cut. Each pair's flow is capped at
    the smallest separator found so far, since only a smaller one is kept.
    Only the value without t is a fact of G that the context keeps. The
    pass stops once the smallest separator so far is empty, since none is
    smaller.

    The smallest separator so far starts at min(t, n - 1) with no cut, or,
    when deg(v0) is below that, at deg(v0) with N(v0) as its cut, for v0
    the source of the first pair, a vertex of least degree. N(v0) is a
    separator, since G is not complete and v0 has a non-neighbor. This
    changes neither the value nor the cut. If kappa < deg(v0), every cap
    stays above kappa up to the first pair whose flow is kappa, which is
    reached as with no start and gives the same cut. If kappa = deg(v0),
    the cut without the start is the least minimum cut of the first pair
    (v0, w), which N(v0) separates: its flow of deg(v0) units saturates
    every neighbor of v0, one unit through each, so the source reaches
    only v0's out-copy and its neighbors' in-copies, and the cut is N(v0).
    With t <= deg(v0) nothing changes. While listing at j = deg(v0), the
    first pair's cap is j + 1, which its local connectivity of at most j
    stays below: it runs the same flow to the same residual graph as with
    a larger cap and lists the same separators. A disconnected G needs no
    case of its own: v0 and a vertex of another component form the first
    pair (`_flow_pairs`), whose flow 0 gives kappa 0 with the empty cut,
    or no cut at t = 0; an isolated v0 starts the pass at 0 with the empty
    cut N(v0), and no flow runs.

    The pairs run through `_sweeps`, as in `_min_separators`: after each
    pair its edge is added, to `flows.masks` at once and to the network
    just before the next flow (`_Sweep.ready`), and the added arcs are
    removed when the pass ends or raises.
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
    `_quasi_test`, with no t), the same pass lists the j-separators of
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

    The pairs of a run from one source share one `_Sweep`, which carries
    each flow on to the next sink (see `_retarget`); this changes no flow
    value and no separator.

    Before a pair's flow, the pass looks for as many short disjoint paths
    between its ends as the pair's cap (the smallest separator so far, or
    one more while listing), in `flows.masks`, G's masks with the edges
    added so far (`_has_short_paths`). When it finds them, the flow would
    return (cap, None): the pass takes that without a flow and leaves the
    sweep as it is. Its flow to an earlier sink, or none, stays a flow on
    the network with the pair's edge added, and `_retarget` carries a flow
    from any earlier sink. Neither value nor cut changes: the first pair
    whose flow is kappa has a local connectivity below its cap, so it is
    never certified and keeps its least cut, and a certified pair while
    listing has a flow above j, so it lists nothing. With the start at
    deg(v0), the first pair can be certified too, and a pass whose pairs
    are all certified runs no flow and builds no network.
    """
    g = flows.g
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    if t is None:
        t = n
    if g.is_complete():
        return n - 1, None
    best = min(t, n - 1)
    best_sep: tuple[int, ...] | None = None
    v0 = flows.pairs[0][0]
    if g.degree(v0) < best:
        best, best_sep = g.degree(v0), g.neighbors(v0)
    seen: set[tuple[int, ...]] = set()
    scanned, least = False, None
    with closing(_sweeps(flows, flows.pairs)) as sweeps:
        for s, w, sweep in sweeps:
            cap = best + 1 if best == j and least is None else best
            if _has_short_paths(flows.masks, s, w, cap):
                size, sep = cap, None  # what the flow would return
            else:
                net = flows.net
                size, sep = _local_vertex_cut(net, s, w, cap, sweep.ready(net), sweep)
            if size < best:
                best, best_sep = size, sep
            if best == 0:
                break
            if size == j and sep is not None:
                # a maximum flow of j below the cap: list the pair's j-separators
                for pair_sep in _pair_separators(flows.net, sweep.cap, s, w):
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


def _min_separators(flows: _Flows, j: int, without: tuple[int, ...] = (),
                    connected: bool = False) -> Iterator[Cut]:
    """Every separator T of size j of H = G - without once, in discovery
    order, as the cut T + without of G, for G the graph of `flows` and
    kappa(H) >= j; nothing when H is complete (the empty H too) or j < 0.
    When kappa(H) < j, a separator smaller than j is yielded, perhaps after
    some of size j. A disconnected H needs no case of its own: its empty
    separator is met by the flow 0 of v0 and a vertex of another component
    (`_flow_pairs`), listed at j = 0 and yielded as smaller above it, and
    the seen set keeps it once. A caller that knows H is connected passes
    `connected`, which spares `_flow_pairs` its component search.

    Each pair of `_flow_pairs` that short paths do not certify (below)
    gets one flow capped at j + 1, on G's network with the vertices
    `without` closed. A flow of j lists the pair's minimum separators from
    its residual graph; a flow below j yields its one separator. The pairs
    run through `_sweeps`: those of a run from one source carry one flow
    from sink to sink in a `_Sweep`, whose capacities start with the
    vertices `without` closed, and then the pair's edge is added, to the
    masks at once and to the network before the next flow, so later pairs
    find no separator that splits an earlier pair. A separator S is still
    met at the first pair it splits: no edge added before crosses S, so
    that pair's flow is at most |S|. A separator that leaves three or more
    components can still split a later pair; a seen set drops those
    repeats. The added edges are removed when the listing ends, raises or
    is closed, and a listing that runs no flow adds no arc.

    Before a pair's flow, the listing looks for j + 1 short disjoint paths
    between its ends in H, read from `flows.masks`, G's masks with the
    edges added so far, restricted to H's vertices (`_has_short_paths`), and
    runs no flow when it finds them, as the kappa pass does. Such a pair
    has a local connectivity of at least j + 1 in H with the added edges
    counted, so its flow, capped at j + 1, would return (j + 1, None),
    which yields nothing: skipping it changes neither the separators
    listed nor their order. The sweep is left as it is, holding the flow
    to an earlier sink or none, which `_retarget` carries on from, and
    `_sweeps` still adds the pair's edge.
    """
    g = flows.g
    alive = g.full_mask & ~vertices_to_mask(without)
    if _complete(g, alive):
        return
    seen: set[tuple[int, ...]] = set()
    pairs = _flow_pairs(g, alive, connected) if without else flows.pairs
    with closing(_sweeps(flows, pairs, without)) as sweeps:
        for s, t, sweep in sweeps:
            if _has_short_paths(flows.masks, s, t, j + 1, alive):
                continue  # its flow would return (j + 1, None)
            net = flows.net
            size, sep = _local_vertex_cut(net, s, t, j + 1, sweep.ready(net), sweep)
            if size < j:
                yield make_cut(g, sep + without)
            elif size == j:
                for sep in _pair_separators(net, sweep.cap, s, t, without):
                    flows.check()
                    if sep not in seen:
                        seen.add(sep)
                        yield make_cut(g, sep + without)


def _quasi_k_cuts(flows: _Flows, k: int) -> list[Cut]:
    """enumerate_cuts(g, k) for G, the graph of `flows`, quasi k-connected,
    not complete, with kappa(G) in {k-1, k}; the flows run on G's network.

    At kappa = k these are the context's minimum cuts. At kappa = k-1 the
    minimum degree is at least k-1, so a k-cut with a singleton component
    {u} is N(u) with deg u = k, or N(u) + v with deg u = k-1 and v outside
    N[u]. G - N(u) - v is {u} and (G - N[u]) - v, so one cut-vertex search
    of G - N[u] decides the cuts N(u) + v of one u: each has those two
    components unless v is a cut vertex there, and only then, or for every
    v when G - N[u] is disconnected, is a component search run.
    Every other k-cut T leaves components of >= 2 vertices each. Of k+1
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
    # each k-cut by its vertices, with the cut when its components are known
    seps: dict[tuple[int, ...], Cut | None] = {}
    rows = None
    for u in g.vertices:
        if deg[u] == k:
            seps[mask_to_vertices(masks[u])] = None
        elif deg[u] == k - 1:
            closed = masks[u] | 1 << u
            if rows is None:
                rows = [g.neighbors(v) for v in g.vertices]
            points = _cut_vertices(rows, mask_to_vertices(closed))
            rest = g.full_mask & ~closed
            for v in mask_to_vertices(rest):
                sep = mask_to_vertices(masks[u] | 1 << v)
                if points is None or points >> v & 1:
                    seps.setdefault(sep, None)
                else:
                    # G - sep is {u} and the connected (G - N[u]) - v
                    other = rest & ~(1 << v)
                    seps[sep] = _cut_from_masks(sep, sorted((1 << u, other),
                                                            key=lambda m: m & -m))
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
                        seps.setdefault(sep, None)
                if len(tau) == 1:
                    _add_edge(net, x, tau[0])
        finally:
            _remove_added_edges(net, mark)
    return [seps[sep] or make_cut(g, sep) for sep in sorted(seps)]


# ---------------------------------------------------------------------------
# Cut enumeration.

# A depth-first search for cut vertices costs about as much as 1.5 to 4
# component searches, so a prefix with fewer last vertices than this to
# check gets one component search per subset instead.
_MANY_CANDIDATES = 4


def _cut_vertices(rows: list[tuple[int, ...]], removed: tuple[int, ...]) -> int | None:
    """The cut vertices of G - removed, as a bitmask, or None when G -
    removed is disconnected, for G the graph of the neighbor rows `rows`
    and `removed` not all of it.

    One depth-first search with Hopcroft-Tarjan low points: a vertex's low
    point is the least discovery index among its neighbors and its
    children's low points, a vertex other than the root is a cut vertex
    when some child's low point is not below its own index, and the root
    is one when it has two children. A removed vertex gets index n, so it
    is never entered and lowers no low point."""
    n = len(rows)
    disc = [-1] * n
    for v in removed:
        disc[v] = n
    low = disc[:]
    root = disc.index(-1)
    disc[root] = low[root] = 0
    stack = [(root, iter(rows[root]))]
    order, points, children = 1, 0, 0
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if disc[w] < 0:
                disc[w] = low[w] = order
                order += 1
                stack.append((w, iter(rows[w])))
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if low[v] >= disc[parent]:
                    if parent == root:
                        children += 1
                    else:
                        points |= 1 << parent
                if low[v] < low[parent]:
                    low[parent] = low[v]
    if order < n - len(removed):
        return None
    return points | 1 << root if children > 1 else points


def _cuts(flows: _Flows, size: int, limit: int | None = None) -> Iterator[Cut]:
    """The cuts among the first `limit` (all when None) `size`-subsets of
    G, the graph of `flows`, in lexicographic order; needs 0 <= size < n.

    The subsets run by their (size-1)-prefixes P, each followed by its
    last vertices v > max P in ascending order. When P leaves at least
    `_MANY_CANDIDATES` of them to check, one depth-first search finds the
    cut vertices of G - P (`_cut_vertices`), and P + v is a cut exactly
    when v is one of them; otherwise, and when G - P is disconnected, each
    P + v gets a component BFS. Only a cut has its components listed by
    BFS in the first case. The deadline is checked once per prefix and
    once per BFS.
    """
    g = flows.g
    masks, full, n = g.masks, g.full_mask, g.n
    rows = [g.neighbors(v) for v in g.vertices]
    left = comb(n, size) if limit is None else limit
    if size == 0:
        if left > 0:
            flows.check()
            comps = component_masks(masks, full)
            if len(comps) >= 2:
                yield _cut_from_masks((), comps)
        return
    for prefix in combinations(range(n - 1), size - 1):
        if left <= 0:
            return
        flows.check()
        low = prefix[-1] + 1 if prefix else 0
        count = min(n - low, left)
        left -= count
        alive = full & ~vertices_to_mask(prefix)
        points = _cut_vertices(rows, prefix) if count >= _MANY_CANDIDATES else None
        for v in range(low, low + count):
            if points is not None and not points >> v & 1:
                continue
            flows.check()
            comps = component_masks(masks, alive & ~(1 << v))
            if len(comps) >= 2:
                yield _cut_from_masks(prefix + (v,), comps)


def enumerate_cuts(g: Graph, size: int) -> list[Cut]:
    """All cuts of exactly `size` vertices, lexicographically sorted.

    Every `size`-subset is decided, by a component search of its own or by
    a cut-vertex search of its prefix (`_cuts`), so the list is always
    complete.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size >= g.n:
        raise ValueError(f"size {size} must be smaller than the vertex count {g.n}")
    return list(_cuts(_Flows(g), size))


def minimum_cuts(g: Graph) -> list[Cut]:
    """The set of smallest cut sets, lexicographically sorted (empty for
    complete graphs, the one empty cut for a disconnected graph), listed
    from the residual graphs of the kappa flows, so the cost grows with the
    number of cuts rather than with C(n, kappa)."""
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


def _quasi_test(flows: _Flows, k: int) -> QuasiConnectivity:
    """is_quasi_k_connected's verdict on G, the graph of `flows`; the flows
    run on G's network.

    One pass over the kappa flow pairs (`_vertex_connectivity_with_cut`
    with j = k-1) gives kappa with its cut, which the context keeps, and,
    when kappa is exactly k-1, the (k-1)-cuts from the same flows: all of
    them, which the context keeps as its minimum cuts, unless a nontrivial
    one turns up and the scan of the first n^2 (k-1)-subsets then meets
    the least nontrivial one, which ends the listing. Either way the
    certificate is the lexicographically least nontrivial cut listed, and
    no pair runs a second flow. A verdict that holds at kappa = k-1 has
    seen every (k-1)-cut, and they are the context's minimum cuts; once
    kappa >= k there are none, and the pass lists nothing.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    cuts: list[Cut] = []
    kappa, mincut = _vertex_connectivity_with_cut(flows, j=k - 1, listed=cuts)
    flows.kappa_with_cut = kappa, mincut
    if kappa < k - 1:
        return QuasiConnectivity(False, k, kappa, "connectivity", mincut)
    nontrivial = [cut for cut in cuts if cut.nontrivial]
    if nontrivial:
        least = min(nontrivial, key=lambda cut: cut.vertices)
        return QuasiConnectivity(False, k, kappa, "nontrivial-cut", least)
    return QuasiConnectivity(True, k, kappa, None, None)


def is_quasi_k_connected(g: Graph, k: int = 5) -> QuasiConnectivity:
    """(k-1)-connected with no nontrivial (k-1)-cut.

    When kappa is exactly k-1, the (k-1)-cuts are listed from the residual
    graphs of the kappa flows, which find every one, so a verdict that
    holds has seen them all. At the first nontrivial one the listing stops,
    and the certificate is the lexicographically least nontrivial cut,
    found in polynomial time (see `_quasi_test`).
    """
    return _Flows(g).quasi(k)
