"""Per-edge contraction verdicts, the set of quasi-breaking edges, and
contraction-criticality tests.

Every search for a contractible edge runs through `first_contractible_edge`.

For a quasi k-connected graph the edge set partitions into three classes:
quasi k-contractible edges, edges whose contraction keeps (k-1)-connectivity
but admits a nontrivial (k-1)-cut (the quasi-breaking set E0), and edges
whose contraction drops connectivity below k-1.

One class pass (`_classify`) reads every edge's class from the cuts of G
itself, found once per graph: the (k-1)-cuts from the quasi test, and the
k-cuts from max-flows between disjoint edges and terminals
(`connectivity._quasi_k_cuts`), with no scan of the k-subsets unless G is
too small to hold k+1 disjoint edges. It contracts no edge and runs no
flow on any G/e. For G quasi k-connected and e = xy, a cut of G/e either
avoids the merged vertex, and is then a cut of G avoiding x and y with
the same components up to merging x and y, or contains it, and is then
the image of a cut T of G containing x and y with the same components.
Hence, unless G/e is complete:

- kappa(G/e) < k-1 exactly when some (k-1)-cut of G contains x and y, and
  then kappa(G/e) = k-2;
- otherwise kappa(G/e) = k-1 exactly when some (k-1)-cut of G avoids x
  and y or some k-cut of G contains both;
- the nontrivial (k-1)-cuts of G/e are the images of the nontrivial k-cuts
  T of G containing x and y (a (k-1)-cut of G is trivial and stays
  trivial), and the first in contracted ids is the T with the least
  sorted(T - {y}), which is also the least T.

G/e is complete exactly when m - 1 - c = C(n-1, 2), c the number of common
neighbors of x and y, and then kappa(G/e) = n-2 with no cut at all:
P3 at k = 2 and C4 at k = 3 have kappa(G/e) = k-1, and K_k has
kappa(G/e) = k-2, though no cut of G holds both ends or avoids both. This
covers a complete G, which has no cuts.

The class pass has two readers: `quasigraph analyze` and `compute_E0`,
which print or return the classes, and `contraction_reports`, which
builds the full reports from them. The builder contracts an edge only for
a field the class does not give: an edge that drops connectivity needs
the flow min-cut as its certificate, an edge with kappa(G/e) >= k needs
the exact value, and an E0 edge's refuting cut is given in contracted ids.
`_edge_report`, the full report with the exact kappa(G/e) and the refuting
cut, is the one helper that contracts an edge and tests the result; it is
behind `is_quasi_k_contractible` and those two builder cases.

The yes/no decision (`_contracts_to`: is G/e quasi k-connected, or
k-connected) contracts nothing either. It is behind both modes of
`first_contractible_edge`, lemma 3 and `is_k_contractible`, and it holds
under the caller's hypothesis on G. By the correspondence above, with the
cuts of G/e that hold the merged vertex being the cuts T' + merged vertex
for T' a cut of G - x - y, with the same components:

- for G k-connected, G/e is k-connected exactly when it has at least
  k+1 vertices and kappa(G - x - y) >= k-1;
- for G quasi k-connected, whose (k-1)-cuts are trivial and stay trivial
  in G/e, G/e is quasi k-connected exactly when it has at least k vertices
  and either kappa(G - x - y) >= k-1, or kappa(G - x - y) = k-2 and no
  minimum separator T' of G - x - y makes T' + {x, y} nontrivial in G.

kappa(G - x - y), capped at k-1, and those separators come from flows on
G's own network with the internal arcs of x and y closed, so every edge of
a search shares one network and no G/e is built. Outside the hypothesis,
`is_k_contractible` contracts the edge and computes kappa(G/e).

The private helpers here take G's flow context (`connectivity._Flows`) in
place of G, as the flow layer's do; only the public functions create one.
A search checks the context's deadline once per edge, on top of the flow
layer's own checks, and raises `DeadlineExceeded` when it has passed.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import Graph, contract_edge, require_edge, vertices_to_mask
from .connectivity import (
    Cut,
    DeadlineExceeded,  # re-exported: part of this module's interface
    QuasiConnectivity,
    _Flows,
    _min_separators,
    _quasi_k_cuts,
    _quasi_with_cuts,
    _vertex_connectivity_with_cut,
    is_quasi_k_connected,
    make_cut,
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


def _require_quasi(flows: _Flows, k: int) -> tuple[QuasiConnectivity, list[Cut]]:
    """The quasi k-connectivity test of G, the graph of `flows`, with every
    (k-1)-cut of G; error unless G is quasi k-connected."""
    quasi, cuts = _quasi_with_cuts(flows, k)
    if not quasi.holds:
        raise ValueError(f"hypothesis violated: graph is not quasi {k}-connected")
    return quasi, cuts


def is_k_contractible(g: Graph, e: tuple[int, int], k: int) -> bool:
    """Contraction of e leaves a k-connected graph.

    When kappa(G) >= k the answer is read from G - x - y (`_contracts_to`);
    otherwise G/e is built and its kappa computed, since the rule needs G
    k-connected.
    """
    e = require_edge(g, e)
    flows = _Flows(g)
    if _vertex_connectivity_with_cut(flows, k)[0] >= k:
        return _contracts_to(flows, e, k, False)
    return _vertex_connectivity_with_cut(_Flows(contract_edge(g, e).graph), k)[0] >= k


def _contracts_to(flows: _Flows, e: tuple[int, int], k: int, quasi: bool) -> bool:
    """Whether G/e is quasi k-connected (`quasi`) or k-connected, for G,
    the graph of `flows`, quasi k-connected or k-connected respectively (not
    checked), by the rules of the module docstring: kappa(G - x - y) is
    capped at k-1, and the minimum separators of G - x - y are listed, until
    the first that makes a nontrivial cut of G with x and y, only when it is
    k-2. Every flow runs on G's network."""
    g = flows.g
    if quasi and k < 2:
        raise ValueError("k must be at least 2")
    if g.n - 1 < (k if quasi else k + 1):
        return False
    if k < 2:  # G/e is connected, with at least k + 1 vertices
        return True
    kappa, _ = _vertex_connectivity_with_cut(flows, k - 1, e)
    if kappa >= k - 1 or not quasi:
        return kappa >= k - 1
    if kappa < k - 2:
        return False
    with closing(_min_separators(flows, k - 2, e)) as listing:
        return not any(cut.nontrivial for cut in listing)


def _edge_report(g: Graph, e: tuple[int, int], k: int) -> ContractionReport:
    con = contract_edge(g, e)
    rep = is_quasi_k_connected(con.graph, k)
    refuting = rep.cut
    preimage = None
    if refuting is not None:
        preimage = con.preimage_set(refuting.vertices)
    return ContractionReport(
        edge=e,
        k=k,
        kappa_after=rep.kappa,
        k_contractible=rep.kappa >= k,
        quasi_k_contractible=rep.holds,
        in_E0=rep.kappa >= k - 1 and not rep.holds,
        refuting_cut=refuting,
        refuting_cut_preimage=preimage,
    )


def is_quasi_k_contractible(g: Graph, e: tuple[int, int], k: int = 5) -> ContractionReport:
    """Full contraction report for e; requires g quasi k-connected."""
    e = require_edge(g, e)
    _require_quasi(_Flows(g), k)
    return _edge_report(g, e, k)


def compute_E0(g: Graph, k: int = 5) -> tuple[tuple[int, int], ...]:
    """Edges whose contraction keeps (k-1)-connectivity but is not quasi
    k-connected; requires g quasi k-connected. Read from the edge classes,
    so no edge is contracted."""
    flows = _Flows(g)
    return tuple(c.edge for c in _classify(flows, k, *_require_quasi(flows, k)) if c.in_E0)


def contraction_reports(g: Graph, k: int = 5) -> list[ContractionReport]:
    """Per-edge reports for the whole graph, sorted by edge.

    Each report is read off its edge's class. An edge is contracted only
    for a field its class does not give: the flow min-cut certificate of an
    edge that drops kappa and the exact kappa(G/e) >= k, both from
    `_edge_report`, and the refuting cut of an E0 edge in contracted ids.
    """
    reports = []
    flows = _Flows(g)
    for c in _classify(flows, k, *_require_quasi(flows, k)):
        # The class gives every field at kappa(G/e) = k-1, and at n-2, where
        # G/e is complete and has no cut.
        if c.kappa_after not in (k - 1, g.n - 2):
            reports.append(_edge_report(g, c.edge, k))
            continue
        refuting = None
        if c.cut is not None:
            con = contract_edge(g, c.edge)
            refuting = make_cut(con.graph, (con.vertex_map[v] for v in c.cut.vertices))
        reports.append(ContractionReport(
            edge=c.edge,
            k=k,
            kappa_after=c.kappa_after,
            k_contractible=c.kappa_after >= k,
            quasi_k_contractible=c.quasi_k_contractible,
            in_E0=c.in_E0,
            refuting_cut=refuting,
            refuting_cut_preimage=None if c.cut is None else c.cut.vertices,
        ))
    return reports


@dataclass(frozen=True, slots=True)
class _EdgeClass:
    """The class of edge e of a quasi k-connected G, read from the cuts of G.

    `kappa_after` is kappa(G/e) when it is below k or G/e is complete, and
    k otherwise, where it is a lower bound. `cut` is the least nontrivial
    k-cut of G holding both ends when e is in E0, else None.
    """

    edge: tuple[int, int]
    k: int
    kappa_after: int
    cut: Cut | None

    @property
    def in_E0(self) -> bool:
        return self.cut is not None

    @property
    def quasi_k_contractible(self) -> bool:
        return self.kappa_after >= self.k - 1 and self.cut is None


def _classify(flows: _Flows, k: int, quasi: QuasiConnectivity,
              cuts: list[Cut]) -> list[_EdgeClass]:
    """The class of every edge of G, the graph of `flows`, sorted by edge,
    from a quasi verdict that holds and its (k-1)-cuts, as
    `_quasi_with_cuts` returns them, and the k-cuts of G, as `_quasi_k_cuts`
    lists them on G's network; by the rules of the module docstring, with
    G/e complete settled in closed form. No edge is contracted and no flow
    runs on any G/e."""
    g = flows.g
    low_cuts = [vertices_to_mask(cut.vertices) for cut in cuts]
    # Edges inside some k-cut, and for each the first nontrivial such cut in
    # lexicographic order, which is the one whose image in G/e comes first.
    # There are k-cuts only when kappa <= k, and a complete graph has none.
    in_k_cut: set[tuple[int, int]] = set()
    first_nontrivial: dict[tuple[int, int], Cut] = {}
    has_k_cuts = quasi.kappa <= k and not g.is_complete()
    for cut in _quasi_k_cuts(flows, k, quasi.kappa) if has_k_cuts else []:
        for e in combinations(cut.vertices, 2):
            if g.has_edge(*e):
                in_k_cut.add(e)
                if cut.nontrivial:
                    first_nontrivial.setdefault(e, cut)
    masks = g.masks
    complete = comb(g.n - 1, 2)  # the edge count of a complete G/e
    classes = []
    for e in g.edges():
        x, y = e
        both = 1 << x | 1 << y
        # G/e has m - 1 - c edges, c the common neighbors of x and y
        if g.edge_count - 1 - (masks[x] & masks[y]).bit_count() == complete:
            kappa = g.n - 2
        elif any(m & both == both for m in low_cuts):
            kappa = k - 2
        elif e in in_k_cut or any(not m & both for m in low_cuts):
            kappa = k - 1
        else:
            kappa = k
        cut = first_nontrivial.get(e) if kappa == k - 1 else None
        classes.append(_EdgeClass(e, k, kappa, cut))
    return classes


def first_contractible_edge(g: Graph, k: int, quasi: bool,
                            flows: _Flows | None = None) -> tuple[int, int] | None:
    """The first edge in sorted order whose contraction leaves a quasi
    k-connected graph (`quasi`) or a k-connected graph (not `quasi`), or
    None when no edge does.

    g must be quasi k-connected (`quasi`) or k-connected (not `quasi`):
    each edge is decided from G - x - y by a rule that holds only then
    (`_contracts_to`), and the hypothesis is not checked here. Every edge
    shares g's network, from `flows` when the caller has built g's flow
    context, whose deadline is checked before each edge.
    """
    flows = flows or _Flows(g)
    for e in g.edges():
        flows.check()
        if _contracts_to(flows, e, k, quasi):
            return e
    return None


def is_contraction_critical(g: Graph, k: int,
                            quasi: bool = False) -> tuple[bool, tuple[int, int] | None]:
    """No edge of g is (quasi) k-contractible.

    Returns (True, None) when critical, else (False, witness edge): the
    first contractible edge in sorted order.
    """
    flows = _Flows(g)
    if quasi:
        _require_quasi(flows, k)
    elif _vertex_connectivity_with_cut(flows, k)[0] < k:
        raise ValueError(f"hypothesis violated: graph is not {k}-connected")
    edge = first_contractible_edge(g, k, quasi, flows=flows)
    return edge is None, edge


def is_regular_triangular(g: Graph) -> bool:
    """4-regular with every edge in a triangle: the structural side of the
    4-connected criticality characterization."""
    return (all(g.degree(v) == 4 for v in g.vertices)
            and all(g.neighbors(u) & g.neighbors(v) for u, v in g.edges()))


def check_martinov(g: Graph) -> tuple[bool, bool]:
    """Both sides of the 4-connected criticality characterization,
    computed independently: (contraction critical, 4-regular with every
    edge in a triangle)."""
    flows = _Flows(g)
    if _vertex_connectivity_with_cut(flows, 4)[0] < 4:
        raise ValueError("hypothesis violated: graph is not 4-connected")
    return (first_contractible_edge(g, 4, quasi=False, flows=flows) is None,
            is_regular_triangular(g))
