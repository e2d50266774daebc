"""Per-edge contraction verdicts, the set of quasi-breaking edges, and
contraction-criticality tests.

Every search for a contractible edge runs through `_first_contractible_edge`.

For a quasi k-connected graph the edge set partitions into three classes:
quasi k-contractible edges, edges whose contraction keeps (k-1)-connectivity
but admits a nontrivial (k-1)-cut (the quasi-breaking set E0), and edges
whose contraction drops connectivity below k-1.

One class pass (`_classify`) reads every edge's class from the cuts of G
itself, found once per graph: the (k-1)-cuts, which exist only at
kappa(G) = k-1, where they are G's minimum cuts, kept by the quasi test's
pass, and the k-cuts from max-flows between disjoint edges and terminals
(`connectivity._quasi_k_cuts`), with no scan of the k-subsets unless G is
too small to hold k+1 disjoint edges. For e = xy, a cut of G/e either
avoids the merged vertex, and is then a cut of G avoiding x and y with
the same components up to merging x and y, or contains it, and is then
the image of a cut T of G containing x and y with the same components:
y drops out and every id above it moves down one. Hence, for G quasi
k-connected and G/e not complete:

- kappa(G/e) < k-1 exactly when some (k-1)-cut of G contains x and y;
  then kappa(G/e) = k-2, and the least such cut (`_cut_holding`) is the
  least minimum cut of G/e;
- otherwise kappa(G/e) = k-1 exactly when some (k-1)-cut of G avoids x
  and y or some k-cut of G contains both;
- the nontrivial (k-1)-cuts of G/e are the images of the nontrivial k-cuts
  T of G containing x and y (a (k-1)-cut of G is trivial and stays
  trivial), and the first in contracted ids is the least such T.

G/e is complete exactly when m - 1 - c = C(n-1, 2), c the number of common
neighbors of x and y, and then kappa(G/e) = n-2 with no cut at all:
P3 at k = 2 and C4 at k = 3 have kappa(G/e) = k-1, and K_k has
kappa(G/e) = k-2, though no cut of G holds both ends or avoids both. This
covers a complete G, which has no cuts.

`quasigraph analyze` and `compute_E0` print or return the classes, and
`contraction_reports` and `is_quasi_k_contractible` build each report from
its class (`_report`): the refuting cut is the class cut above, in G/e's
ids (`core.contracted_mask`), and kappa(G/e) is computed only where the
class bounds it below by k, by `_kappa_after`, for any G, from G/e's own
flow pairs for the merged vertex z. A minimal cut of G/e holding z is z
plus a cut of G - x - y between two non-adjacent neighbors of z (the pairs
deciding kappa(G - x - y) bound these too; the shorter list runs). A cut
avoiding z is a cut of G, of size at least kappa(G), that separates xy from
some w outside N[x] + N[y]; these flows run only when the first term is
larger than kappa(G). `is_k_contractible` and lemma 2's witness read it too.

The yes/no decision (`_contracts_to`: is G/e quasi k-connected, or
k-connected), behind both modes of `_first_contractible_edge` and lemma 3,
first applies two rules that read only facts the caller has already
computed:

- rule A: if kappa(G) > k, G/e is k-connected, and so quasi k-connected.
  A cut of G/e avoiding z is a cut of G, and one holding z is the image
  of a cut of G one larger, so kappa(G/e) >= kappa(G) - 1 >= k, on
  n - 1 >= kappa(G) >= k + 1 vertices;
- rule B: in quasi mode at kappa(G) = k-1, if a minimum cut of G holds
  x and y, G/e is not quasi k-connected: by the first rule above,
  kappa(G/e) = k-2.

Otherwise it is one rule with two predicates. It holds under the caller's
hypothesis on G, G quasi k-connected or k-connected, which
`is_contraction_critical` and the claim runners check first. Under it a
cut of G/e that avoids the merged vertex z is a cut of G avoiding x and
y: of size at least k for G k-connected, and for G quasi k-connected of
size at least k-1 and, at k-1, trivial in G and in G/e. So only the cuts
holding z decide: z plus a separator T' of G - x - y. One listing of the
(k-2)-separators of G - x - y (`connectivity._min_separators`), which
meets a smaller separator whenever one exists, decides both modes once
G/e is large enough:

- G/e is k-connected exactly when it has at least k+1 vertices and the
  listing yields nothing;
- G/e is quasi k-connected exactly when it has at least k vertices and the
  listing yields neither a smaller separator nor one, T', that makes
  T' + {x, y} nontrivial in G.

Rule A settles every edge of C400(1,2,3) at k = 5, so theorem 1 lists
nothing there. Rule B settles every edge of L(dodecahedron) at k = 5:
each edge xy lies in a triangle xyw, and so inside the 4-cut N(w). A
seed-1 campaign pass lists G - x - y 313 times, with 1,738 flows in all.

The listing runs no flow for a pair of G - x - y whose short disjoint
paths, read from the neighbor masks without x and y, already number
k - 1, one more than the separator size listed: such a pair lists nothing
(`connectivity._has_short_paths`). The search for quasi_5_apex(240, 1)'s
first quasi 5-contractible edge runs 26 flows over its listings' 237
pairs. G - x - y is connected once kappa(G) >= 3, so neither the listing
nor `_kappa_after` then searches for v0's component (`_flow_pairs`).
`_kappa_after` does not look for short paths: on quasi_5_apex(240, 1)
they would settle 2 of its 1,107 flows, and its flows to w run with y
merged.

Every flow here runs on G's own network, those of G - x - y with the
internal arcs of x and y closed, and no edge is contracted. The private
helpers take G's flow context (`connectivity._Flows`) in place of G, as the
flow layer's do, and read kappa(G) and the cuts of G from it; the public
functions here take G and create one, with no deadline. A search checks
the context's deadline once per edge, on top of the flow layer's own
checks; only a claim call (`harness.verify_claim`) sets one, and reports a
deadline that passes as `timeout`.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import Graph, contracted_mask, mask_to_vertices, require_edge, vertices_to_mask
from .connectivity import (
    Cut,
    _Flows,
    _capacities,
    _flow_pairs,
    _local_vertex_cut,
    _min_separators,
    _quasi_k_cuts,
    _vertex_connectivity_with_cut,
)


@dataclass(frozen=True)
class ContractionReport:
    """Verdicts for contracting a single edge of a quasi k-connected graph.

    The refuting cut, when present, lives in the contracted graph; its
    preimage lists the original vertices behind those ids (the merged vertex
    expands to both endpoints of the edge).
    """

    edge: tuple[int, int]
    k: int
    kappa_after: int
    k_contractible: bool
    quasi_k_contractible: bool
    in_E0: bool
    refuting_cut: Cut | None
    refuting_cut_preimage: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "edge": list(self.edge),
            "k": self.k,
            "kappa_after": self.kappa_after,
            "k_contractible": self.k_contractible,
            "quasi_k_contractible": self.quasi_k_contractible,
            "in_E0": self.in_E0,
            "refuting_cut": None if self.refuting_cut is None else self.refuting_cut.to_json(),
            "refuting_cut_preimage": None if self.refuting_cut_preimage is None
            else list(self.refuting_cut_preimage),
        }


def _require_quasi(flows: _Flows, k: int) -> None:
    """Error unless G, the graph of `flows`, is quasi k-connected."""
    if not flows.quasi(k).holds:
        raise ValueError(f"hypothesis violated: graph is not quasi {k}-connected")


def _cut_holding(flows: _Flows, e: tuple[int, int], k: int) -> Cut | None:
    """The least (k-1)-cut of G, the graph of `flows`, that holds both ends
    of e, or None. G has (k-1)-cuts only at kappa(G) = k-1, where they are
    its minimum cuts; at any other kappa its minimum cuts have another
    size, so they are not read."""
    cuts = flows.minimum_cuts if flows.kappa == k - 1 else []
    x, y = e
    return next((cut for cut in cuts if x in cut.vertices and y in cut.vertices), None)


def is_k_contractible(g: Graph, e: tuple[int, int], k: int) -> bool:
    """Contraction of e leaves a k-connected graph: kappa(G/e) >= k, read
    from G by `_kappa_after` for any G."""
    e = require_edge(g, e)
    flows = _Flows(g)
    return _kappa_after(flows, e, min(_vertex_connectivity_with_cut(flows, k)[0], k), k) >= k


def _contracts_to(flows: _Flows, e: tuple[int, int], k: int, quasi: bool) -> bool:
    """Whether G/e is quasi k-connected (`quasi`) or k-connected, for G,
    the graph of `flows`, quasi k-connected or k-connected respectively (not
    checked), by the rules of the module docstring: a size guard; rule A,
    True once kappa(G) > k; rule B, in quasi mode at kappa(G) = k-1, False
    when a minimum cut of G holds x and y (`_cut_holding`); then
    one listing of the (k-2)-separators of G - x - y on G's network, which
    rejects at the first separator listed (plain) or at the first that is
    smaller or leaves a nontrivial cut of G (`quasi`).

    Both rules read facts that every caller has already computed: kappa(G)
    and, in quasi mode, the minimum cuts that the quasi k-verdict's pass
    kept. G - x - y is
    connected once kappa(G) >= 3, so the listing then runs no component
    search."""
    if flows.g.n - 1 < (k if quasi else k + 1):
        return False
    kappa = flows.kappa
    if kappa > k:
        return True  # rule A: kappa(G/e) >= kappa(G) - 1 >= k
    if quasi and _cut_holding(flows, e, k) is not None:
        return False  # rule B: kappa(G/e) = k - 2
    with closing(_min_separators(flows, k - 2, e, kappa >= 3)) as listing:
        return not any(not quasi or cut.nontrivial or cut.size < k for cut in listing)


def _complete_after(g: Graph, e: tuple[int, int]) -> bool:
    """Whether G/e is complete: it has m - 1 - c edges, c the common
    neighbors of x and y, against C(n-1, 2)."""
    x, y = e
    return g.edge_count - 1 - (g.masks[x] & g.masks[y]).bit_count() == comb(g.n - 1, 2)


def _kappa_after(flows: _Flows, e: tuple[int, int], kappa: int, t: int | None = None) -> int:
    """kappa(G/e) for G, the graph of `flows`, of connectivity kappa; with a
    threshold t (`is_k_contractible` passes k), the same value when it is
    below t, otherwise some value >= t, and kappa may then be capped at t.
    By the module docstring; each flow is capped at the smallest cut so
    far, and z's flows run from x with y's internal arc uncuttable. At
    kappa >= 3, G - x - y is connected and its pairs need no component
    search."""
    g = flows.g
    if _complete_after(g, e):
        return g.n - 2
    x, y = e
    net, masks = flows.net, g.masks
    best = g.n - 3 if t is None else min(t, g.n - 3)  # G/e is not complete
    both = 1 << x | 1 << y
    z_pairs = [(a, b) for a, b in combinations(mask_to_vertices((masks[x] | masks[y]) & ~both), 2)
               if not masks[a] >> b & 1]
    for a, b in min(z_pairs, _flow_pairs(g, g.full_mask & ~both, kappa >= 3), key=len):
        flows.check()
        best = min(best, _local_vertex_cut(net, a, b, best - 1, _capacities(net, e))[0] + 1)
    if best <= kappa:  # a cut avoiding z is one of G
        return best
    for w in mask_to_vertices(g.full_mask & ~(masks[x] | masks[y])):
        flows.check()
        best = _local_vertex_cut(net, x, w, best, _capacities(net, merged=(y,)))[0]
    return best


def _report(flows: _Flows, c: _EdgeClass) -> ContractionReport:
    """The report of c's edge, for G, the graph of `flows`: the class cut in
    G/e's ids refutes G/e, and kappa(G/e) is made exact by `_kappa_after`
    only where the class bounds it below by k."""
    kappa_after = (_kappa_after(flows, c.edge, flows.kappa) if c.kappa_after >= c.k
                   else c.kappa_after)
    refuting = None
    if c.cut is not None:
        refuting = Cut(mask_to_vertices(contracted_mask(vertices_to_mask(c.cut.vertices), c.edge)),
                       tuple([contracted_mask(m, c.edge) for m in c.cut.masks]), c.cut.nontrivial)
    return ContractionReport(
        c.edge, c.k, kappa_after, k_contractible=kappa_after >= c.k,
        quasi_k_contractible=c.quasi_k_contractible, in_E0=c.in_E0, refuting_cut=refuting,
        refuting_cut_preimage=None if c.cut is None else c.cut.vertices)


def is_quasi_k_contractible(g: Graph, e: tuple[int, int], k: int = 5) -> ContractionReport:
    """Full contraction report for e; requires g quasi k-connected. Read
    off e's class, as in `contraction_reports`."""
    e = require_edge(g, e)
    flows = _Flows(g)
    return _report(flows, next(c for c in _classify(flows, k) if c.edge == e))


def compute_E0(g: Graph, k: int = 5) -> tuple[tuple[int, int], ...]:
    """Edges whose contraction keeps (k-1)-connectivity but is not quasi
    k-connected; requires g quasi k-connected. Read from the edge classes."""
    return tuple(c.edge for c in _classify(_Flows(g), k) if c.in_E0)


def contraction_reports(g: Graph, k: int = 5) -> list[ContractionReport]:
    """Per-edge reports for the whole graph, sorted by edge, each read off
    its edge's class (`_report`)."""
    flows = _Flows(g)
    return [_report(flows, c) for c in _classify(flows, k)]


@dataclass(frozen=True, slots=True)
class _EdgeClass:
    """The class of edge e of a quasi k-connected G, read from the cuts of G.

    `kappa_after` is kappa(G/e) when it is below k or G/e is complete, and
    k otherwise, where it is a lower bound. `cut` is the least cut of G that
    refutes G/e: a (k-1)-cut holding both ends when kappa(G/e) < k-1, a
    nontrivial k-cut holding both when e is in E0, else None.
    """

    edge: tuple[int, int]
    k: int
    kappa_after: int
    cut: Cut | None

    @property
    def in_E0(self) -> bool:
        return self.kappa_after == self.k - 1 and self.cut is not None

    @property
    def quasi_k_contractible(self) -> bool:
        return self.kappa_after >= self.k - 1 and self.cut is None


def _classify(flows: _Flows, k: int) -> list[_EdgeClass]:
    """The class of every edge of G, the graph of `flows`, sorted by edge;
    error unless G is quasi k-connected. Read from G's (k-1)-cuts, its
    minimum cuts at kappa = k-1 (`_cut_holding`), and the k-cuts that
    `_quasi_k_cuts` lists on G's network, by the rules of the module
    docstring, with G/e complete settled in closed form."""
    _require_quasi(flows, k)
    g = flows.g
    cuts = flows.minimum_cuts if flows.kappa == k - 1 else []  # the (k-1)-cuts, as in _cut_holding
    # Edges inside some k-cut, and for each the first nontrivial such cut in
    # lexicographic order, which is the one whose image in G/e comes first.
    # There are k-cuts only when kappa <= k, and a complete graph has none.
    in_k_cut: set[tuple[int, int]] = set()
    first_nontrivial: dict[tuple[int, int], Cut] = {}
    has_k_cuts = flows.kappa <= k and not g.is_complete()
    for cut in _quasi_k_cuts(flows, k) if has_k_cuts else []:
        for e in combinations(cut.vertices, 2):
            if g.has_edge(*e):
                in_k_cut.add(e)
                if cut.nontrivial:
                    first_nontrivial.setdefault(e, cut)
    classes = []
    for e in g.edges():
        x, y = e
        cut = None
        if _complete_after(g, e):
            kappa = g.n - 2
        elif (cut := _cut_holding(flows, e, k)) is not None:
            kappa = k - 2
        elif e in in_k_cut or any(x not in c.vertices and y not in c.vertices for c in cuts):
            kappa = k - 1
            cut = first_nontrivial.get(e)
        else:
            kappa = k
        classes.append(_EdgeClass(e, k, kappa, cut))
    return classes


def _first_contractible_edge(flows: _Flows, k: int, quasi: bool) -> tuple[int, int] | None:
    """The first edge in sorted order whose contraction leaves a quasi
    k-connected graph (`quasi`) or a k-connected graph (not `quasi`), or
    None when no edge does.

    G, the graph of `flows`, must be quasi k-connected (`quasi`) or
    k-connected (not `quasi`): each edge is decided from kappa(G), the
    quasi test's cuts, or G - x - y, by rules that hold only then
    (`_contracts_to`), and the hypothesis is not checked here;
    `is_contraction_critical` and the claim runners check it first, and
    so compute the facts the rules read. Every edge shares G's network,
    and the deadline is checked before each edge.
    """
    for e in flows.g.edges():
        flows.check()
        if _contracts_to(flows, e, k, quasi):
            return e
    return None


def is_contraction_critical(g: Graph, k: int,
                            quasi: bool = False) -> tuple[bool, tuple[int, int] | None]:
    """No edge of g is (quasi) k-contractible: the public search for a
    contractible edge.

    Returns (True, None) when critical, else (False, witness edge): the
    first contractible edge in sorted order. Raises ValueError unless g is
    quasi k-connected (`quasi`) or k-connected (not `quasi`), the
    hypothesis under which each edge is decided. Either check is the
    call's one kappa pass, whose kappa the search reads.
    """
    flows = _Flows(g)
    if quasi:
        _require_quasi(flows, k)
    elif flows.kappa < k:
        raise ValueError(f"hypothesis violated: graph is not {k}-connected")
    edge = _first_contractible_edge(flows, k, quasi)
    return edge is None, edge


def is_regular_triangular(g: Graph) -> bool:
    """4-regular with every edge in a triangle: the structural side of the
    4-connected criticality characterization."""
    return (all(g.degree(v) == 4 for v in g.vertices)
            and all(g.masks[u] & g.masks[v] for u, v in g.edges()))
