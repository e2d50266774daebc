"""Simple undirected graphs: breadth-first searches over bitmasks, and
contraction.

Vertices are contiguous ids 0..n-1, and a graph stores its adjacency once, as
one neighbor bitmask per vertex. Graphs are immutable after construction;
every operation returns a new value, so results are safe to share and reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator


class Graph:
    """Immutable simple undirected graph on vertex ids 0..n-1.

    Adjacency is stored once, as `masks`: bit w of masks[v] is set iff vw
    is an edge, so it is symmetric, loop-free and deduplicated. Every
    accessor reads it; `neighbors` returns a sorted tuple. Equality and
    hashing are structural.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        # Built from a list, not a generator, as elsewhere in this module:
        # CPython resizes a tuple built from a generator, so once freed it is
        # parked on its size's free list (up to 2000 per size) and not reused,
        # and a process that runs campaigns grows by about 0.2 MiB per run.
        self.masks = tuple(masks)

    @classmethod
    def from_adjacency(cls, adjacency: Iterable[Iterable[int]]) -> "Graph":
        adj = [list(row) for row in adjacency]
        edges = [(u, v) for u, row in enumerate(adj) for v in row if u < v]
        g = cls(len(adj), edges)
        for u, row in enumerate(adj):
            if set(g.neighbors(u)) != set(row):
                raise ValueError(f"adjacency rows are not symmetric at vertex {u}")
        return g

    @property
    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """N(v), sorted."""
        return mask_to_vertices(self.masks[v])

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple([m.bit_count() for m in self.masks])

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("empty graph has no minimum degree")
        return min(self.degrees())

    def has_edge(self, u: int, v: int) -> bool:
        return self.masks[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted.

        Only the neighbors above u are decoded from each mask, shifted down
        past each one found, so the big-int work shrinks along the row."""
        out = []
        for u, m in enumerate(self.masks):
            v, m = u, m >> (u + 1)
            while m:
                step = (m & -m).bit_length()
                v += step
                m >>= step
                out.append((u, v))
        return out

    @cached_property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def require_edge(g: Graph, e: tuple[int, int]) -> tuple[int, int]:
    """e as (min, max); ValueError unless both ends are vertices of g and adjacent."""
    x, y = e
    if not (0 <= x < g.n and 0 <= y < g.n and g.has_edge(x, y)):
        raise ValueError(f"({x}, {y}) is not an edge")
    return (x, y) if x < y else (y, x)


# ---------------------------------------------------------------------------
# Breadth-first searches over bitmasks: balls and components (the hot path
# for cut enumeration).

def reach_mask(masks: tuple[int, ...], seed: int, alive: int, radius: int | None = None) -> int:
    """The vertices within `radius` steps of the `seed` bitmask in the
    subgraph induced on the `alive` bitmask, seed included, as a bitmask;
    with no radius, all that the seed reaches. One breadth-first search,
    a level at a time: each level ORs the masks of the frontier's vertices.
    """
    if radius is None:
        radius = len(masks)
    reached = frontier = seed
    while frontier and radius > 0:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= masks[b.bit_length() - 1]
            f ^= b
        frontier = nxt & alive & ~reached
        reached |= frontier
        radius -= 1
    return reached


def component_masks(masks: tuple[int, ...], alive: int) -> list[int]:
    """Connected components of the subgraph induced on the `alive` bitmask.

    Returned masks are ordered by their lowest vertex id.
    """
    comps = []
    remaining = alive
    while remaining:
        comp = reach_mask(masks, remaining & -remaining, alive)
        comps.append(comp)
        remaining &= ~comp
    return comps


def mask_to_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def vertices_to_mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# Contraction.

@dataclass(frozen=True)
class Contraction:
    """Result of contracting one edge.

    `vertex_map[old]` is the id of `old` in the contracted graph; both
    endpoints of the contracted edge map to `merged`.
    """

    graph: Graph
    vertex_map: tuple[int, ...]
    merged: int

    def preimage(self, new_id: int) -> tuple[int, ...]:
        return tuple(v for v, nv in enumerate(self.vertex_map) if nv == new_id)

    def preimage_set(self, new_ids: Iterable[int]) -> tuple[int, ...]:
        wanted = set(new_ids)
        return tuple(v for v, nv in enumerate(self.vertex_map) if nv in wanted)


def contracted_mask(mask: int, e: tuple[int, int]) -> int:
    """The vertex set `mask` of G as a mask of G/e's ids, for e = (x, y),
    x < y: y merges into x, and every id above y moves down one."""
    x, y = e
    low = (1 << y) - 1
    return mask & low | mask >> 1 & ~low | (mask >> y & 1) << x


def contract_edge(g: Graph, e: tuple[int, int]) -> Contraction:
    """Contract edge e = (x, y): delete it, identify its ends, merge any
    parallel edges produced. Ids are re-compacted to 0..n-2 by
    `contracted_mask`, so the merged vertex is min(x, y).
    """
    e = x, y = require_edge(g, e)
    vertex_map = tuple([contracted_mask(1 << v, e).bit_length() - 1 for v in range(g.n)])
    edges = {tuple(sorted((vertex_map[u], vertex_map[v]))) for u, v in g.edges() if (u, v) != e}
    return Contraction(Graph(g.n - 1, sorted(edges)), vertex_map, x)


# ---------------------------------------------------------------------------
# Degrees and triangles.

def degree_k_vertices(g: Graph, k: int) -> tuple[int, ...]:
    return tuple(v for v in range(g.n) if g.degree(v) == k)


def triangles_in_neighborhood(g: Graph, x: int) -> Iterator[tuple[int, int, int]]:
    """Triangles contained in N(x), in sorted order."""
    nbrs = g.neighbors(x)
    for a, b, c in combinations(nbrs, 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            yield (a, b, c)
