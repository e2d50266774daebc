"""Claim verification over graph corpora, with witness certificates.

Each claim is checked per graph: hypotheses are recomputed from scratch,
and a claim is reported falsified only when its hypotheses hold and the
conclusion fails; cut enumeration is always exhaustive. Every search for a
contractible edge goes through `first_contractible_edge`, and one table maps
each claim name to its runner. Reports stream to JSON lines with canonical
key order, so a fixed corpus and seed produce byte-identical output.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .core import (
    Graph,
    contract_edge,
    classify_neighborhood,
    degree_k_vertices,
    triangles_in_neighborhood,
    vertices_within_distance,
)
from .connectivity import enumerate_cuts, is_quasi_k_connected, vertex_connectivity
from .contractibility import (
    DeadlineExceeded,
    check_deadline,
    first_contractible_edge,
    is_regular_triangular,
)
from .fragments import fragments_of_cut
from .generators import generate_corpus
from . import io as gio

VERIFIED = "verified"
VACUOUS = "vacuous"
FALSIFIED = "falsified"
TIMEOUT = "timeout"


@dataclass
class VerificationReport:
    graph_id: str
    claim: str
    status: str
    hypotheses_hold: bool | None
    conclusion_holds: bool | None
    witness: dict | None
    enumeration_mode: str = "exhaustive"  # always; kept for the report schema
    elapsed: float = 0.0

    def to_json(self, include_elapsed: bool = False) -> dict:
        obj = {
            "graph_id": self.graph_id,
            "claim": self.claim,
            "status": self.status,
            "hypotheses_hold": self.hypotheses_hold,
            "conclusion_holds": self.conclusion_holds,
            "witness": self.witness,
            "enumeration_mode": self.enumeration_mode,
        }
        if include_elapsed:
            obj["elapsed"] = self.elapsed
        return obj


def _vacuous(graph_id: str, claim: str, reason: str,
             hypotheses_hold: bool | None = False) -> VerificationReport:
    return VerificationReport(graph_id, claim, VACUOUS, hypotheses_hold, None,
                              {"failed_hypothesis": reason})


def _verified(graph_id: str, claim: str, witness: dict | None) -> VerificationReport:
    return VerificationReport(graph_id, claim, VERIFIED, True, True, witness)


def _falsified(g: Graph, graph_id: str, claim: str, witness: dict) -> VerificationReport:
    witness = dict(witness)
    witness["graph6"] = gio.to_graph6(g)
    return VerificationReport(graph_id, claim, FALSIFIED, True, False, witness)


# ---------------------------------------------------------------------------
# Degree conditions.

def check_degree_sum_condition(
    g: Graph, bound: int = 9, max_dist: int = 2,
) -> tuple[bool, tuple[int, int] | None]:
    """d(x) + d(y) >= bound for every pair at distance 1..max_dist.

    Returns (True, None) or (False, first violating pair in sorted order).
    """
    for u in range(g.n):
        for v in vertices_within_distance(g, u, max_dist):
            if v > u and g.degree(u) + g.degree(v) < bound:
                return False, (u, v)
    return True, None


def check_min_degree_condition(g: Graph, k: int) -> bool:
    """Minimum degree at least floor(5k/4)."""
    if g.n == 0:
        return False
    return g.min_degree() >= (5 * k) // 4


# ---------------------------------------------------------------------------
# Theorems.

def verify_theorem1(g: Graph, graph_id: str = "",
                    deadline: float | None = None) -> VerificationReport:
    """Every 5-connected graph has a quasi 5-contractible edge."""
    kappa = vertex_connectivity(g)
    if kappa < 5:
        return _vacuous(graph_id, "theorem1", f"kappa={kappa}<5")
    edge = first_contractible_edge(g, 5, quasi=True, deadline=deadline)
    if edge is not None:
        return _verified(graph_id, "theorem1", {"edge": list(edge)})
    return _falsified(g, graph_id, "theorem1", {})


def verify_theorem2(g: Graph, graph_id: str = "",
                    deadline: float | None = None) -> VerificationReport:
    """Every quasi 5-connected graph whose degree sums reach 9 on all pairs
    at distance one or two has a quasi 5-contractible edge."""
    quasi = is_quasi_k_connected(g, 5)
    if not quasi.holds:
        return _vacuous(graph_id, "theorem2",
                        f"not quasi 5-connected ({quasi.failure}, kappa={quasi.kappa})")
    ok, pair = check_degree_sum_condition(g, 9, 2)
    if not ok:
        assert pair is not None
        return _vacuous(
            graph_id, "theorem2",
            f"degree sum {g.degree(pair[0]) + g.degree(pair[1])}<9 for pair {list(pair)}")
    edge = first_contractible_edge(g, 5, quasi=True, deadline=deadline)
    if edge is not None:
        return _verified(graph_id, "theorem2", {"edge": list(edge)})
    return _falsified(g, graph_id, "theorem2", {})


# ---------------------------------------------------------------------------
# Lemmas. Each is a universally quantified check over the configurations in
# the graph matching its hypotheses; no configurations means vacuous.

def _verify_lemma1(g: Graph, graph_id: str, exhaustive: bool,
                   deadline: float | None) -> VerificationReport:
    """In a graph that is both 5-connected and critical for quasi
    5-contraction, a nontrivial fragment met by exactly one neighbor of a
    boundary vertex has exactly two vertices."""
    kappa = vertex_connectivity(g)
    if kappa < 5:
        return _vacuous(graph_id, "lemma1", f"kappa={kappa}<5")
    if not exhaustive:
        return _vacuous(graph_id, "lemma1",
                        "criticality hypothesis gated behind exhaustive mode",
                        hypotheses_hold=None)
    # kappa >= 5 makes g quasi 5-connected, so criticality is well posed.
    witness_edge = first_contractible_edge(g, 5, quasi=True, deadline=deadline)
    if witness_edge is not None:
        return _vacuous(graph_id, "lemma1",
                        f"not contraction critical: edge {list(witness_edge)} contracts safely")
    configs = 0
    for cut in enumerate_cuts(g, kappa):
        check_deadline(deadline)
        for frag in fragments_of_cut(g, cut):
            if not frag.is_nontrivial():
                continue
            body = set(frag.body)
            for x in cut.vertices:
                if len(g.neighbors(x) & body) == 1:
                    configs += 1
                    if len(frag.body) != 2:
                        return _falsified(g, graph_id, "lemma1", {
                            "cut": cut.to_json(),
                            "fragment": frag.to_json(),
                            "vertex": x,
                        })
    if configs == 0:
        return _vacuous(graph_id, "lemma1", "no matching fragment configuration",
                        hypotheses_hold=True)
    return _verified(graph_id, "lemma1", {"configurations": configs})


def _verify_lemma2(g: Graph, graph_id: str,
                   deadline: float | None) -> VerificationReport:
    """In a quasi 5-connected graph, any contraction keeping minimum degree
    at least 4 keeps the graph 4-connected."""
    quasi = is_quasi_k_connected(g, 5)
    if not quasi.holds:
        return _vacuous(graph_id, "lemma2", f"not quasi 5-connected ({quasi.failure})")
    configs = 0
    for e in g.edges():
        check_deadline(deadline)
        contracted = contract_edge(g, e).graph
        if contracted.n == 0 or contracted.min_degree() < 4:
            continue
        configs += 1
        kappa = vertex_connectivity(contracted)
        if kappa < 4:
            return _falsified(g, graph_id, "lemma2",
                              {"edge": list(e), "kappa_after": kappa})
    if configs == 0:
        return _vacuous(graph_id, "lemma2", "no contraction keeps minimum degree 4",
                        hypotheses_hold=True)
    return _verified(graph_id, "lemma2", {"configurations": configs})


def _verify_lemma3(g: Graph, graph_id: str,
                   deadline: float | None) -> VerificationReport:
    """In a quasi 5-connected graph on at least 8 vertices, a degree-4
    vertex whose neighborhood contains a triangle contracts safely onto its
    remaining neighbor."""
    quasi = is_quasi_k_connected(g, 5)
    if not quasi.holds:
        return _vacuous(graph_id, "lemma3", f"not quasi 5-connected ({quasi.failure})")
    if g.n < 8:
        return _vacuous(graph_id, "lemma3", f"n={g.n}<8")
    configs = 0
    for x in degree_k_vertices(g, 4):
        nbrs = set(g.sorted_neighbors(x))
        for tri in triangles_in_neighborhood(g, x):
            check_deadline(deadline)
            (x4,) = nbrs - set(tri)
            configs += 1
            if not is_quasi_k_connected(contract_edge(g, (x, x4)).graph, 5).holds:
                return _falsified(g, graph_id, "lemma3", {
                    "vertex": x, "triangle": list(tri), "edge": sorted((x, x4)),
                })
    if configs == 0:
        return _vacuous(graph_id, "lemma3",
                        "no degree-4 vertex with a triangle in its neighborhood",
                        hypotheses_hold=True)
    return _verified(graph_id, "lemma3", {"configurations": configs})


def _verify_lemma4(g: Graph, graph_id: str,
                   deadline: float | None) -> VerificationReport:
    """A 4-connected graph is contraction critical exactly when it is
    4-regular with every edge in a triangle; both sides computed
    independently."""
    kappa = vertex_connectivity(g)
    if kappa < 4:
        return _vacuous(graph_id, "lemma4", f"kappa={kappa}<4")
    witness_edge = first_contractible_edge(g, 4, quasi=False, deadline=deadline)
    critical = witness_edge is None
    structural = is_regular_triangular(g)
    payload = {
        "is_critical": critical,
        "is_regular_triangular": structural,
        "contractible_edge": None if witness_edge is None else list(witness_edge),
    }
    if critical != structural:
        return _falsified(g, graph_id, "lemma4", payload)
    return _verified(graph_id, "lemma4", payload)


def _verify_lemma5(g: Graph, graph_id: str, exhaustive: bool,
                   deadline: float | None) -> VerificationReport:
    """A critical quasi 5-connected graph meeting the degree sum condition
    has no degree-4 vertex with an edgeless neighborhood."""
    quasi = is_quasi_k_connected(g, 5)
    if not quasi.holds:
        return _vacuous(graph_id, "lemma5", f"not quasi 5-connected ({quasi.failure})")
    ok, pair = check_degree_sum_condition(g, 9, 2)
    if not ok:
        assert pair is not None
        return _vacuous(graph_id, "lemma5", f"degree sum below 9 for pair {list(pair)}")
    if not exhaustive:
        return _vacuous(graph_id, "lemma5",
                        "criticality hypothesis gated behind exhaustive mode",
                        hypotheses_hold=None)
    witness_edge = first_contractible_edge(g, 5, quasi=True, deadline=deadline)
    if witness_edge is not None:
        return _vacuous(graph_id, "lemma5",
                        f"not contraction critical: edge {list(witness_edge)} contracts safely")
    for x in degree_k_vertices(g, 4):
        check_deadline(deadline)
        if classify_neighborhood(g, x).tag == "4K1":
            return _falsified(g, graph_id, "lemma5", {"vertex": x})
    return _verified(graph_id, "lemma5", None)


# ---------------------------------------------------------------------------
# Parametric degree-condition claims.

def verify_degree_condition_A(g: Graph, k: int | None = None, graph_id: str = "",
                              deadline: float | None = None) -> VerificationReport:
    """A non-complete k-connected graph with minimum degree at least
    floor(5k/4) has a k-contractible edge."""
    claim = "degree_condition_A"
    kappa = vertex_connectivity(g)
    if k is None:
        k = kappa
    if k < 2:
        return _vacuous(graph_id, claim, f"k={k}<2")
    if g.is_complete():
        return _vacuous(graph_id, claim, "graph is complete")
    if kappa < k:
        return _vacuous(graph_id, claim, f"kappa={kappa}<{k}")
    if not check_min_degree_condition(g, k):
        return _vacuous(graph_id, claim,
                        f"min degree {g.min_degree()} < {(5 * k) // 4}")
    edge = first_contractible_edge(g, k, quasi=False, deadline=deadline)
    if edge is not None:
        return _verified(graph_id, claim, {"edge": list(edge), "k": k})
    return _falsified(g, graph_id, claim, {"k": k})


def verify_degree_condition_BC(g: Graph, k: int | None = None, graph_id: str = "",
                               deadline: float | None = None) -> VerificationReport:
    """A non-complete k-connected graph whose degree sums reach
    2*floor(5k/4)-1 has a k-contractible edge. The pair set is all pairs at
    distance one or two, or only adjacent pairs once k >= 8; k = 7 is
    excluded and reported vacuous."""
    claim = "degree_condition_BC"
    kappa = vertex_connectivity(g)
    if k is None:
        k = kappa
    if k < 2:
        return _vacuous(graph_id, claim, f"k={k}<2")
    if k == 7:
        return _vacuous(graph_id, claim, "k=7 is excluded from this condition")
    if g.is_complete():
        return _vacuous(graph_id, claim, "graph is complete")
    if kappa < k:
        return _vacuous(graph_id, claim, f"kappa={kappa}<{k}")
    bound = 2 * ((5 * k) // 4) - 1
    max_dist = 1 if k >= 8 else 2
    ok, pair = check_degree_sum_condition(g, bound, max_dist)
    if not ok:
        assert pair is not None
        return _vacuous(graph_id, claim,
                        f"degree sum below {bound} for pair {list(pair)}")
    edge = first_contractible_edge(g, k, quasi=False, deadline=deadline)
    if edge is not None:
        return _verified(graph_id, claim, {"edge": list(edge), "k": k})
    return _falsified(g, graph_id, claim, {"k": k})


# ---------------------------------------------------------------------------
# Dispatch and campaign runner.

# Claim name -> runner(g, graph_id, k, exhaustive, deadline).
_RUNNERS = {
    "theorem1": lambda g, gid, k, ex, dl: verify_theorem1(g, gid, dl),
    "theorem2": lambda g, gid, k, ex, dl: verify_theorem2(g, gid, dl),
    "lemma1": lambda g, gid, k, ex, dl: _verify_lemma1(g, gid, ex, dl),
    "lemma2": lambda g, gid, k, ex, dl: _verify_lemma2(g, gid, dl),
    "lemma3": lambda g, gid, k, ex, dl: _verify_lemma3(g, gid, dl),
    "lemma4": lambda g, gid, k, ex, dl: _verify_lemma4(g, gid, dl),
    "lemma5": lambda g, gid, k, ex, dl: _verify_lemma5(g, gid, ex, dl),
    "degree_condition_A": lambda g, gid, k, ex, dl: verify_degree_condition_A(g, k, gid, dl),
    "degree_condition_BC": lambda g, gid, k, ex, dl: verify_degree_condition_BC(g, k, gid, dl),
}
CLAIMS = tuple(_RUNNERS)


def verify_lemma(g: Graph, which: str, graph_id: str = "", exhaustive: bool = True,
                 deadline: float | None = None) -> VerificationReport:
    if not which.startswith("lemma") or which not in _RUNNERS:
        raise ValueError(f"unknown lemma id {which!r}")
    return _RUNNERS[which](g, graph_id, None, exhaustive, deadline)


def verify_claim(g: Graph, claim: str, graph_id: str = "", k: int | None = None,
                 exhaustive: bool = True, timeout: float | None = None) -> VerificationReport:
    if claim not in _RUNNERS:
        raise ValueError(f"unknown claim {claim!r}; known: {CLAIMS}")
    deadline = None if timeout is None else time.monotonic() + timeout
    start = time.monotonic()
    try:
        rep = _RUNNERS[claim](g, graph_id, k, exhaustive, deadline)
    except DeadlineExceeded:
        rep = VerificationReport(graph_id, claim, TIMEOUT, None, None, None)
    rep.elapsed = time.monotonic() - start
    return rep


def run_campaign(corpus, claims: Iterable[str], out: str | Path,
                 k: int | None = None, exhaustive: bool = True,
                 timeout: float | None = None) -> dict:
    """Verify each claim against each corpus graph, streaming JSON lines.

    The summary counts statuses; campaign output is canonical (sorted keys,
    no timing), so reruns with the same corpus and seed are byte-identical.
    """
    claims = list(claims)
    for claim in claims:
        if claim not in _RUNNERS:
            raise ValueError(f"unknown claim {claim!r}; known: {CLAIMS}")
    graphs = corpus if isinstance(corpus, list) and corpus and isinstance(corpus[0], tuple) \
        else generate_corpus(corpus)
    counts = {VERIFIED: 0, VACUOUS: 0, FALSIFIED: 0, TIMEOUT: 0}
    out = Path(out)
    with open(out, "w", encoding="utf-8") as fh:
        for graph_id, g in graphs:
            for claim in claims:
                rep = verify_claim(g, claim, graph_id, k=k,
                                   exhaustive=exhaustive, timeout=timeout)
                fh.write(json.dumps(rep.to_json(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
                counts[rep.status] += 1
    return {
        "graphs": len(graphs),
        "claims": claims,
        "counts": counts,
        "out": str(out),
    }
