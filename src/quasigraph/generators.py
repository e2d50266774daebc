"""Graph builders, seeded random families, and corpus generation.

A corpus is a list of `CorpusSpec` entries. Each family is one function in
the `_FAMILIES` table, from its spec to its (graph_id, Graph) pairs, so a
new family is one function and one table entry. Every family re-validates
its declared properties on the generated graph instead of assuming them,
and generation is deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .core import Graph, mask_to_vertices
from .connectivity import (
    _Flows,
    is_quasi_k_connected,
    vertex_connectivity,
)
from . import io as gio


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n-1} with the center at vertex 0."""
    return Graph(n, ((0, i) for i in range(1, n)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def circulant_graph(n: int, jumps: Iterable[int]) -> Graph:
    js = sorted(set(jumps))
    if any(j < 1 or j > n // 2 for j in js):
        raise ValueError(f"jumps must lie in 1..{n // 2}")
    edges = {(min(i, (i + j) % n), max(i, (i + j) % n)) for i in range(n) for j in js}
    return Graph(n, edges)


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def icosahedron_graph() -> Graph:
    """The 5-regular planar triangulation on 12 vertices: two poles (0, 11)
    and two pentagonal rings joined as an antiprism."""
    upper = [1 + i for i in range(5)]
    lower = [6 + i for i in range(5)]
    edges = [(0, u) for u in upper]
    edges += [(upper[i], upper[(i + 1) % 5]) for i in range(5)]
    edges += [(lower[i], lower[(i + 1) % 5]) for i in range(5)]
    edges += [(11, v) for v in lower]
    edges += [(upper[i], lower[i]) for i in range(5)]
    edges += [(upper[i], lower[(i + 1) % 5]) for i in range(5)]
    return Graph(12, edges)


def glued_cliques(clique: int, shared: int) -> Graph:
    """Two copies of K_clique sharing `shared` vertices.

    With clique=7, shared=5 this is 5-connected and the shared set is a
    5-cut splitting the two private pairs, so edges inside the shared set
    contract to graphs with a nontrivial 4-cut.
    """
    if not (0 < shared < clique):
        raise ValueError("need 0 < shared < clique")
    n = 2 * clique - shared
    first = list(range(clique))
    second = list(range(shared)) + list(range(clique, n))
    edges = set()
    for block in (first, second):
        edges.update((min(u, v), max(u, v)) for u, v in combinations(block, 2))
    return Graph(n, edges)


def complement_graph(g: Graph) -> Graph:
    return Graph(g.n, ((u, v) for u, v in combinations(range(g.n), 2)
                       if not g.has_edge(u, v)))


def with_edges(g: Graph, extra: Iterable[tuple[int, int]]) -> Graph:
    return Graph(g.n, list(g.edges()) + list(extra))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, edges)


# ---------------------------------------------------------------------------
# Seeded random families.

def _rng(seed: int | random.Random | None) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_graph(n: int, p: float, seed: int | random.Random | None = None) -> Graph:
    rng = _rng(seed)
    return Graph(n, (e for e in combinations(range(n), 2) if rng.random() < p))


def random_k_connected(n: int, k: int, seed: int | random.Random | None = None) -> Graph:
    """Random graph augmented with edges until it is k-connected.

    Starts near the target density, lifts minimum degree to k on mutable
    adjacency sets, builds the graph once, then patches each remaining
    minimum cut with an edge across two of its components; the loop ends
    only once kappa >= k has been computed on the final graph.
    """
    if n <= k:
        raise ValueError(f"a {k}-connected graph needs more than {k} vertices")
    rng = _rng(seed)
    g = random_graph(n, min(1.0, (k + 0.5) / (n - 1)), rng)
    adj = [set(g.neighbors(v)) for v in g.vertices]
    while True:
        v = min(range(n), key=lambda u: (len(adj[u]), u))
        if len(adj[v]) >= k:
            break
        w = rng.choice([w for w in range(n) if w != v and w not in adj[v]])
        adj[v].add(w)
        adj[w].add(v)
    g = Graph(n, [(v, w) for v in range(n) for w in adj[v] if v < w])
    while True:
        kappa, cut = _Flows(g).kappa_with_cut
        if kappa >= k:
            break
        assert cut is not None
        a = rng.choice(cut.components[0])
        b = rng.choice(cut.components[1])
        g = with_edges(g, [(min(a, b), max(a, b))])
    return g


def random_5_connected(n: int, seed: int | random.Random | None = None) -> Graph:
    return random_k_connected(n, 5, seed)


def quasi_5_apex(n: int, seed: int | random.Random | None = None,
                 attach_triangle: bool = False) -> Graph:
    """A 5-connected graph on n-1 vertices plus one degree-4 vertex.

    The apex neighborhood is the unique 4-cut, and its only split strands
    the apex alone, so the result is quasi 5-connected with kappa = 4.
    With attach_triangle the apex is glued onto a triangle plus one extra
    vertex, producing degree-4 vertices whose neighborhood contains K3.
    """
    if n < 7:
        raise ValueError("need at least 7 vertices")
    rng = _rng(seed)
    h = random_5_connected(n - 1, rng)
    if attach_triangle:
        anchors = None
        for a, b in h.edges():
            common = mask_to_vertices(h.masks[a] & h.masks[b])
            if common:
                c = common[0]
                rest = [v for v in range(h.n) if v not in (a, b, c)]
                anchors = [a, b, c, rng.choice(rest)]
                break
        if anchors is None:
            raise ValueError("host graph has no triangle to attach to")
    else:
        anchors = rng.sample(range(h.n), 4)
    g = Graph(n, list(h.edges()) + [(v, n - 1) for v in anchors])
    quasi = is_quasi_k_connected(g, 5)
    if quasi.kappa != 4 or not quasi.holds:
        raise AssertionError("apex construction lost quasi 5-connectivity")
    return g


# ---------------------------------------------------------------------------
# Corpus specification and generation.

@dataclass(frozen=True)
class CorpusSpec:
    """One corpus entry: a family name plus its parameters.

    `params["n"]` may be an int or an inclusive [lo, hi] range. `count`
    controls how many seeded instances a random family emits. The family,
    `params`, `count` and `seed` are checked on construction; each family
    checks its own parameters as it expands.
    """

    family: str
    params: dict = field(default_factory=dict)
    count: int = 1
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.family not in KNOWN_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {KNOWN_FAMILIES}")
        if not isinstance(self.params, dict):
            raise ValueError(f"'params' must be a JSON object, got {self.params!r}")
        if self.family.endswith("_file") and not isinstance(self.params.get("path"), str):
            raise ValueError(f"family {self.family!r} requires a 'path' parameter")
        if type(self.count) is not int or self.count < 1:
            raise ValueError(f"'count' must be an integer >= 1, got {self.count!r}")
        if self.seed is not None and type(self.seed) is not int:
            raise ValueError(f"'seed' must be an integer or null, got {self.seed!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "CorpusSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"a 'corpus' entry must be a JSON object, got {obj!r}")
        return cls(obj.get("family"), obj.get("params", {}), obj.get("count", 1),
                   obj.get("seed"))


def _sizes(params: dict) -> list[int]:
    n = params.get("n")
    if n is None:
        raise ValueError("family requires an 'n' parameter")
    if type(n) is int:
        return [n]
    if not (isinstance(n, (list, tuple)) and len(n) == 2 and all(type(v) is int for v in n)):
        raise ValueError(f"'n' must be an int or an inclusive [lo, hi] range, got {n!r}")
    if n[0] > n[1]:
        raise ValueError(f"'n' range [lo, hi] must have lo <= hi, got {n!r}")
    return list(range(n[0], n[1] + 1))


def _complete(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    for n in _sizes(spec.params):
        g = complete_graph(n)
        if not g.is_complete():
            raise AssertionError("complete family validation failed")
        yield f"K{n}", g


def _circulant(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    jumps = spec.params.get("jumps", [1])
    if not (isinstance(jumps, (list, tuple)) and all(type(j) is int for j in jumps)):
        raise ValueError(f"'jumps' must be a list of ints, got {jumps!r}")
    for n in _sizes(spec.params):
        g = circulant_graph(n, jumps)
        expected = sum(1 if 2 * j == n else 2 for j in set(jumps))
        if any(g.degree(v) != expected for v in g.vertices):
            raise AssertionError("circulant family validation failed")
        yield f"C{n}({','.join(map(str, jumps))})", g


def _icosahedron(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    g = icosahedron_graph()
    if g.n != 12 or g.edge_count != 30 or vertex_connectivity(g) != 5:
        raise AssertionError("icosahedron validation failed")
    yield "icosahedron", g


def _seeded(spec: CorpusSpec, prefix: str, build: Callable[[int, int], Graph],
            suffix: str = "") -> Iterator[tuple[str, Graph]]:
    """`count` graphs per size, seeded base, base + 1, ... (base 0 for no
    seed), with ids `<prefix>-n<n>-s<seed><suffix>`."""
    base = 0 if spec.seed is None else spec.seed
    for n in _sizes(spec.params):
        for seed in range(base, base + spec.count):
            yield f"{prefix}-n{n}-s{seed}{suffix}", build(n, seed)


def _random_5_connected(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    return _seeded(spec, "rand5", random_5_connected)


def _quasi_5_apex(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    tri = spec.params.get("attach_triangle", False)
    if not isinstance(tri, bool):
        raise ValueError(f"'attach_triangle' must be true or false, got {tri!r}")
    return _seeded(spec, "apex4", partial(quasi_5_apex, attach_triangle=tri),
                   "-tri" if tri else "")


# Each family maps its spec to its (graph_id, Graph) pairs, in order.
_FAMILIES: dict[str, Callable[[CorpusSpec], Iterable[tuple[str, Graph]]]] = {
    "complete": _complete,
    "circulant": _circulant,
    "icosahedron": _icosahedron,
    "random_5_connected": _random_5_connected,
    "quasi_5_apex": _quasi_5_apex,
    "graph6_file": lambda spec: gio.load_graphs(spec.params["path"], "graph6"),
    "edge_list_file": lambda spec: gio.load_graphs(spec.params["path"], "edgelist"),
}
KNOWN_FAMILIES = tuple(_FAMILIES)


def generate_corpus(spec) -> list[tuple[str, Graph]]:
    """Expand a CorpusSpec, a list of them, or parsed corpus JSON into
    (graph_id, Graph) pairs, in declaration order."""
    if isinstance(spec, CorpusSpec):
        spec = [spec]
    entries = spec.get("corpus", []) if isinstance(spec, dict) else spec
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"a corpus must be a list of entries or an object with a "
                         f"'corpus' list, got {entries!r}")
    specs = [s if isinstance(s, CorpusSpec) else CorpusSpec.from_json(s) for s in entries]
    return [pair for s in specs for pair in _FAMILIES[s.family](s)]


def read_corpus_file(path: str | Path) -> list[tuple[str, Graph]]:
    import json

    return generate_corpus(json.loads(Path(path).read_text(encoding="utf-8")))
