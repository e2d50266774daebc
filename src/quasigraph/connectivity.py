"""Vertex connectivity, minimum vertex cuts, cut enumeration, and the
quasi k-connectivity decision.

Connectivity uses unit-capacity max-flow on the standard vertex-split
digraph, with the dominating pair/neighbor scheme: fix a minimum-degree
vertex v, take local connectivity against every non-neighbor of v and
between every non-adjacent pair of neighbors of v. Augmentation order is
fixed so witness cuts are reproducible.

Cut enumeration visits every vertex subset of the requested size, so it is
always complete. It walks the subsets depth first in lexicographic order
and carries whether G minus the current prefix is connected. When it is,
removing one more vertex d leaves a connected graph exactly when the
remaining neighbors of d lie in one component, since every path to d ends
at a neighbor of d; a BFS that stops as soon as it has reached them all
decides this. Only subsets that fail this test, or that extend a
disconnected prefix, get a full component BFS, which also gives a cut its
components. The quasi k-connectivity test reads these cuts one at a time
and stops at the first nontrivial one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .core import (
    Graph,
    component_masks,
    mask_to_vertices,
)


@dataclass(frozen=True)
class Cut:
    """A vertex subset whose removal disconnects the graph.

    `components` are the vertex sets of G - vertices, each sorted, ordered
    by minimum vertex. `nontrivial` records whether the components can be
    grouped into two sides of at least 2 vertices each; `bipartition` is a
    witnessing grouping when one exists.
    """

    vertices: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    nontrivial: bool
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "components": [list(c) for c in self.components],
            "nontrivial": self.nontrivial,
            "bipartition": None if self.bipartition is None
            else [list(self.bipartition[0]), list(self.bipartition[1])],
        }


def _nontrivial_split(
    components: tuple[tuple[int, ...], ...],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Group components into two sides with >= 2 vertices each, or None.

    This is a subset-sum over component sizes: a grouping exists iff some
    subset of components has a total size in [2, total - 2]. Component
    counts alone are not enough ([1, 3] has no grouping, [1, 1, 2] does).
    """
    sizes = [len(c) for c in components]
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
            chosen = set(reachable[s])
            side_a = tuple(sorted(v for i in chosen for v in components[i]))
            side_b = tuple(sorted(v for i in range(len(components)) if i not in chosen
                                  for v in components[i]))
            if side_a > side_b:
                side_a, side_b = side_b, side_a
            return side_a, side_b
    return None


def _cut_from_components(t_sorted: tuple[int, ...],
                         comps: tuple[tuple[int, ...], ...]) -> Cut:
    split = _nontrivial_split(comps)
    return Cut(t_sorted, comps, split is not None, split)


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
    alive = _alive_after_removal(g, t_sorted)
    comps = tuple(mask_to_vertices(c) for c in component_masks(g.masks, alive))
    if len(comps) < 2:
        raise ValueError(f"{t_sorted} is not a cut")
    return _cut_from_components(t_sorted, comps)


def is_cut(g: Graph, t: Iterable[int]) -> bool:
    alive = _alive_after_removal(g, t)
    return len(component_masks(g.masks, alive)) >= 2


def is_nontrivial_cut(
    g: Graph, t: Iterable[int],
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Decide whether cut t admits a two-sided grouping with both sides >= 2.

    Returns (verdict, witness bipartition or None). Raises if t is not a cut.
    """
    cut = make_cut(g, t)
    return cut.nontrivial, cut.bipartition


# ---------------------------------------------------------------------------
# Local connectivity by max-flow on the split digraph.

def _local_vertex_cut(g: Graph, s: int, t: int) -> tuple[int, tuple[int, ...]]:
    """Minimum s-t vertex separator for non-adjacent s, t.

    Node 2v is v's in-copy, 2v+1 its out-copy; internal arcs carry capacity
    1 and edge arcs are effectively unbounded, so minimum cuts consist of
    internal arcs only and read off as a vertex set.
    """
    n = g.n
    big = n  # any all-internal cut costs at most n - 2
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(2 * n)]

    def arc(u: int, v: int, c: int) -> None:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)

    for v in range(n):
        arc(2 * v, 2 * v + 1, 1)
    for u in range(n):
        for w in g.sorted_neighbors(u):
            if u < w:
                arc(2 * u + 1, 2 * w, big)
                arc(2 * w + 1, 2 * u, big)
    src, snk = 2 * s + 1, 2 * t
    flow = 0
    while True:
        prev = [-1] * (2 * n)
        prev[src] = -2
        q = deque([src])
        while q and prev[snk] == -1:
            u = q.popleft()
            for ai in adj[u]:
                v = to[ai]
                if cap[ai] > 0 and prev[v] == -1:
                    prev[v] = ai
                    q.append(v)
        if prev[snk] == -1:
            break
        bottleneck = big
        node = snk
        while node != src:
            ai = prev[node]
            bottleneck = min(bottleneck, cap[ai])
            node = to[ai ^ 1]
        node = snk
        while node != src:
            ai = prev[node]
            cap[ai] -= bottleneck
            cap[ai ^ 1] += bottleneck
            node = to[ai ^ 1]
        flow += bottleneck
    seen = [False] * (2 * n)
    seen[src] = True
    q = deque([src])
    while q:
        u = q.popleft()
        for ai in adj[u]:
            v = to[ai]
            if cap[ai] > 0 and not seen[v]:
                seen[v] = True
                q.append(v)
    sep = tuple(v for v in range(n)
                if v != s and v != t and seen[2 * v] and not seen[2 * v + 1])
    return flow, sep


def min_vertex_cut_between(g: Graph, s: int, t: int) -> Cut:
    """A minimum s-t vertex separator, deterministic for fixed input."""
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError("vertex out of range")
    if s == t:
        raise ValueError("endpoints must be distinct")
    if g.has_edge(s, t):
        raise ValueError("adjacent pair has no separator")
    _, sep = _local_vertex_cut(g, s, t)
    return make_cut(g, sep)


def _vertex_connectivity_with_cut(g: Graph) -> tuple[int, Cut | None]:
    if g.n == 0:
        raise ValueError("empty graph")
    if g.n == 1:
        return 0, None
    if len(component_masks(g.masks, g.full_mask)) > 1:
        return 0, make_cut(g, ())
    if g.is_complete():
        return g.n - 1, None
    v0 = min(range(g.n), key=lambda v: (g.degree(v), v))
    best = g.n - 1
    best_sep: tuple[int, ...] | None = None
    nbrs = g.neighbors(v0)
    for w in range(g.n):
        if w != v0 and w not in nbrs:
            size, sep = _local_vertex_cut(g, v0, w)
            if size < best:
                best, best_sep = size, sep
    for x, y in combinations(g.sorted_neighbors(v0), 2):
        if not g.has_edge(x, y):
            size, sep = _local_vertex_cut(g, x, y)
            if size < best:
                best, best_sep = size, sep
    assert best_sep is not None
    return best, make_cut(g, best_sep)


def vertex_connectivity(g: Graph) -> int:
    """kappa(G); n - 1 for complete graphs, 0 when disconnected."""
    return _vertex_connectivity_with_cut(g)[0]


# ---------------------------------------------------------------------------
# Cut enumeration.

def _joined(masks: tuple[int, ...], alive: int, nbrs: int) -> bool:
    """Whether the vertices of `nbrs`, a nonempty subset of `alive`, lie in
    one component of the subgraph induced on `alive`."""
    low = nbrs & -nbrs
    reach = low | (masks[low.bit_length() - 1] & alive)
    rest = nbrs & ~reach
    # Merge the radius-1 balls around the neighbors; reach stays connected.
    grew = True
    while rest and grew:
        grew = False
        r = rest
        while r:
            b = r & -r
            r ^= b
            ball = b | (masks[b.bit_length() - 1] & alive)
            if ball & reach:
                reach |= ball
                grew = True
        rest &= ~reach
    # Then a frontier BFS from the merged balls, until every neighbor is in.
    frontier = reach
    while rest and frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= masks[b.bit_length() - 1]
            f ^= b
        frontier = nxt & alive & ~reach
        reach |= frontier
        rest &= ~reach
    return not rest


def _cuts(g: Graph, size: int) -> Iterator[Cut]:
    """The cuts of exactly `size` vertices, in lexicographic order; needs
    0 <= size < n.

    Each prefix carries its alive mask and whether G - prefix is connected
    (see the module docstring).
    """
    masks = g.masks
    comps = component_masks(masks, g.full_mask)
    if size == 0:
        if len(comps) >= 2:
            yield _cut_from_components((), tuple(mask_to_vertices(c) for c in comps))
        return

    # Prefixes still to extend, as (least vertex to add, prefix, alive mask,
    # G - prefix connected), popped in lexicographic order.
    stack = [(0, (), g.full_mask, len(comps) == 1)]
    while stack:
        start, prefix, alive, connected = stack.pop()
        stop = g.n - size + len(prefix) + 1
        if len(prefix) + 1 < size:
            children = []
            for d in range(start, stop):
                sub = alive & ~(1 << d)
                if connected:
                    joined = _joined(masks, sub, masks[d] & sub)
                else:
                    joined = len(component_masks(masks, sub)) == 1
                children.append((d + 1, prefix + (d,), sub, joined))
            stack.extend(reversed(children))
            continue
        for d in range(start, stop):
            sub = alive & ~(1 << d)
            if connected and _joined(masks, sub, masks[d] & sub):
                continue
            comps = component_masks(masks, sub)
            if len(comps) >= 2:
                yield _cut_from_components(prefix + (d,),
                                           tuple(mask_to_vertices(c) for c in comps))


def enumerate_cuts(g: Graph, size: int) -> list[Cut]:
    """All cuts of exactly `size` vertices, lexicographically sorted.

    Every `size`-subset is visited, so the list is always complete; only
    the subsets whose removal may disconnect G get a full component BFS.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size >= g.n:
        raise ValueError(f"size {size} must be smaller than the vertex count {g.n}")
    return list(_cuts(g, size))


def minimum_cuts(g: Graph) -> list[Cut]:
    """The set of smallest cut sets (empty for complete graphs)."""
    kappa = vertex_connectivity(g)
    if kappa >= g.n - 1:
        return []
    return enumerate_cuts(g, kappa)


# ---------------------------------------------------------------------------
# Quasi k-connectivity.

@dataclass(frozen=True)
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


def _quasi_with_cuts(g: Graph, k: int) -> tuple[QuasiConnectivity, list[Cut]]:
    """is_quasi_k_connected's verdict, with the (k-1)-cuts it scanned.

    When kappa is exactly k-1 the (k-1)-cuts are read in lexicographic
    order and the scan stops at the first nontrivial one. The list is
    empty whenever the verdict fails, and whenever it holds it is the
    complete list of (k-1)-cuts (there are none once kappa >= k).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    kappa, mincut = _vertex_connectivity_with_cut(g)
    if kappa < k - 1:
        return QuasiConnectivity(False, k, kappa, "connectivity", mincut), []
    if kappa >= k:
        return QuasiConnectivity(True, k, kappa, None, None), []
    cuts = []
    for cut in _cuts(g, k - 1):
        if cut.nontrivial:
            return QuasiConnectivity(False, k, kappa, "nontrivial-cut", cut), []
        cuts.append(cut)
    return QuasiConnectivity(True, k, kappa, None, None), cuts


def is_quasi_k_connected(g: Graph, k: int = 5) -> QuasiConnectivity:
    """(k-1)-connected with no nontrivial (k-1)-cut.

    When kappa is exactly k-1, the (k-1)-subsets are scanned until the
    first nontrivial cut, the lexicographically least one, which becomes
    the certificate; a verdict that holds has scanned every subset, so the
    verdict is always sound.
    """
    return _quasi_with_cuts(g, k)[0]
