"""Fragments of cuts: nontrivial fragments, quasi fragments, and atoms.

A fragment of a cut T is the union of at least one but not all components
of G - T; one helper forms these unions for every query. Its boundary is
the exact neighborhood of the body, which for minimum cuts coincides with
T. Quasi fragments arise from k-cuts containing both ends of an edge whose
removal splits the graph into two sides of at least two vertices each.
An atom is formed from at most two components of each size, so it stays
cheap on cuts that shatter the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .core import Graph, component_masks, mask_to_vertices, require_edge, vertices_to_mask
from .connectivity import Cut, _Flows, _cut_from_masks, make_cut


@dataclass(frozen=True)
class Fragment:
    body: tuple[int, ...]
    boundary: tuple[int, ...]
    complement: tuple[int, ...]
    kind: str  # "plain" | "nontrivial" | "quasi"
    source_cut: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.body)

    def is_nontrivial(self) -> bool:
        return len(self.body) >= 2 and len(self.complement) >= 2

    def to_json(self) -> dict:
        return {
            "body": list(self.body),
            "boundary": list(self.boundary),
            "complement": list(self.complement),
            "kind": self.kind,
            "source_cut": list(self.source_cut),
        }


def _fragment(g: Graph, body_mask: int, source_cut: tuple[int, ...],
              quasi: bool) -> Fragment:
    """The Fragment with body `body_mask`, boundary N(body) computed exactly."""
    body_t = mask_to_vertices(body_mask)
    nbr_mask = 0
    for v in body_t:
        nbr_mask |= g.masks[v]
    boundary_mask = nbr_mask & ~body_mask
    complement_mask = g.full_mask & ~body_mask & ~boundary_mask
    complement_t = mask_to_vertices(complement_mask)
    if quasi:
        kind = "quasi"
    elif len(body_t) >= 2 and len(complement_t) >= 2:
        kind = "nontrivial"
    else:
        kind = "plain"
    return Fragment(body_t, mask_to_vertices(boundary_mask), complement_t, kind, source_cut)


def _component_unions(g: Graph, cut: Cut, parts: list[int], max_parts: int,
                      quasi: bool = False) -> Iterator[Fragment]:
    """Fragments whose body is the union of 1..max_parts of `parts`, components
    of G - cut, never of all components; by part count, then `parts` order."""
    sizes = range(1, min(max_parts, len(cut.masks) - 1) + 1)
    total = sum(comb(len(parts), r) for r in sizes)
    if total > 1 << 16:
        raise ValueError(f"cut {list(cut.vertices)} leaves {len(cut.masks)} components: "
                         f"{total} fragments are too many to enumerate")
    for r in sizes:
        for chosen in combinations(parts, r):
            yield _fragment(g, sum(chosen), cut.vertices, quasi)


def fragments_of_cut(g: Graph, cut: Cut | Iterable[int]) -> list[Fragment]:
    """All unions of proper nonempty component subsets of G - cut: 2^c - 2
    fragments for c components, so more than 16 components raise."""
    if not isinstance(cut, Cut):
        cut = make_cut(g, cut)
    return list(_component_unions(g, cut, cut.masks, len(cut.masks)))


def quasi_fragments_wrt_edge(g: Graph, e: tuple[int, int], k: int = 5) -> list[Fragment]:
    """Sides of nontrivial splits of G - T over all k-cuts T containing e.

    Every grouping of the components of G - T into two sides of >= 2
    vertices contributes both sides. Empty when e has no such k-cut (in
    particular when e is quasi k-contractible).
    """
    x, y = require_edge(g, e)
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > g.n:
        return []
    split_total = g.n - k
    others = [v for v in range(g.n) if v != x and v != y]
    out = []
    for extra in combinations(others, k - 2):
        t = tuple(sorted((x, y) + extra))
        comps = component_masks(g.masks, g.full_mask & ~vertices_to_mask(t))
        if len(comps) < 2:
            continue
        cut = _cut_from_masks(t, comps)
        if cut.nontrivial:
            out.extend(f for f in _component_unions(g, cut, cut.masks, len(cut.masks), quasi=True)
                       if 2 <= f.size <= split_total - 2)
    out.sort(key=lambda f: (f.size, f.body, f.source_cut))
    return out


def nontrivial_atom(g: Graph) -> Fragment | None:
    """A minimum-cardinality nontrivial fragment; ties break on the
    lexicographically least body. None when no nontrivial fragment exists."""
    return _nontrivial_atom(_Flows(g))


def _nontrivial_atom(flows: _Flows) -> Fragment | None:
    """nontrivial_atom for G, the graph of `flows`, from its minimum cuts S.

    Only unions of one or two components of G - S are formed: dropping the
    smallest component from a nontrivial body of three or more components
    leaves a smaller nontrivial body. Of each size only the first two
    components are used: swapping a body's component for an earlier one of
    its size keeps both sides' sizes and makes the body lexicographically
    smaller.
    """
    best, rank = None, lambda f: (f.size, f.body)
    for cut in flows.minimum_cuts:
        by_size: dict[int, list[int]] = {}
        for m in cut.masks:
            by_size.setdefault(m.bit_count(), []).append(m)
        parts = [m for same in by_size.values() for m in same[:2]]
        for frag in _component_unions(flows.g, cut, parts, 2):
            if frag.is_nontrivial() and (best is None or rank(frag) < rank(best)):
                best = frag
    return best
