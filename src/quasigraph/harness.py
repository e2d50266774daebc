"""Claim verification over graph corpora, with witness certificates.

`verify_claim(g, claim, graph_id, k, timeout)` is the one way to run a
claim. Each claim has one runner in `_RUNNERS`, called as (g, flows, k). A
runner checks the claim's hypotheses in a fixed order and returns either
the first failed one or whether the conclusion holds, with a witness. A
hypothesis that several claims share is decided by one checker with one
message: kappa >= k (`_kappa_at_least`), quasi 5-connectivity
(`_quasi_5`), a degree-sum bound (`_degree_sums`), quasi 5-contraction
criticality (`_critical`) and the degree conditions' prelude
(`_k_connected`).
`verify_claim` creates the one work context of the call, the graph's flow
context with the call's time budget, hands it to the runner and turns the
outcome into the report. A runner reads kappa, the minimum cuts and the
quasi 5-verdict from that context, which computes each at most once per
call and keeps none past it. The one thing a call shares is the answer of
each search for a contractible edge, by (k, mode): `run_campaign` hands
one dict of them to all the claims on a graph, so theorems 1 and 2 and
the criticality of lemmas 1 and 5 search once per graph, and drops it
after the graph's last claim. A search that runs out of time stores
nothing, and a direct call starts an empty dict, so nothing is kept
between graphs. Every flow of the call, in its hypotheses
and in its search for a contractible edge, runs on that context's one
network, and every loop of the call checks the budget, so it holds in
every phase and an expired one is reported as `timeout`; lemmas 1 and 5
always check their criticality hypothesis. A claim is reported falsified
only when its hypotheses hold and the conclusion fails, and every
falsified witness carries the graph's graph6; cut enumeration is always
exhaustive. Every search for a contractible edge goes through
`contractibility._first_contractible_edge`. `run_campaign` runs each
claim on each (graph_id, Graph) pair through `verify_claim`. Reports
stream to JSON lines with canonical key order, so a fixed corpus and seed
produce byte-identical output.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .core import (
    Graph,
    degree_k_vertices,
    reach_mask,
    triangles_in_neighborhood,
    vertices_to_mask,
)
from .connectivity import DeadlineExceeded, _Flows
from .contractibility import (
    _contracts_to,
    _cut_holding,
    _first_contractible_edge,
    _kappa_after,
    is_regular_triangular,
)
from .fragments import fragments_of_cut
from . import io as gio

VERIFIED = "verified"
VACUOUS = "vacuous"
FALSIFIED = "falsified"
TIMEOUT = "timeout"
ERROR = "error"


@dataclass
class VerificationReport:
    graph_id: str
    claim: str
    status: str
    hypotheses_hold: bool | None
    conclusion_holds: bool | None
    witness: dict | None
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "claim": self.claim,
            "status": self.status,
            "hypotheses_hold": self.hypotheses_hold,
            "conclusion_holds": self.conclusion_holds,
            "witness": self.witness,
        }


class _Vacuous(NamedTuple):
    """A runner's outcome when a hypothesis fails."""

    reason: str
    hypotheses_hold: bool = False


# What a runner returns: _Vacuous, or (conclusion holds, witness) once every
# hypothesis holds.
_Outcome = _Vacuous | tuple[bool, dict | None]


# ---------------------------------------------------------------------------
# Degree conditions.

def check_degree_sum_condition(
    g: Graph, bound: int = 9, max_dist: int = 2,
) -> tuple[bool, tuple[int, int] | None]:
    """d(x) + d(y) >= bound for every pair at distance 1..max_dist.

    Returns (True, None) or (False, first violating pair in sorted order).
    below[d] is the mask of the vertices of degree below d, so the partners
    that u falls short with are below[bound - d(u)]; u's ball of radius
    max_dist is searched only when some of them lie above u.
    """
    masks, degrees = g.masks, g.degrees()
    below = [0] * (max(degrees, default=0) + 2)
    for v, d in enumerate(degrees):
        below[d + 1] |= 1 << v
    for d in range(1, len(below)):
        below[d] |= below[d - 1]
    for u, d in enumerate(degrees):
        short = below[max(0, min(bound - d, len(below) - 1))] & -2 << u
        if short:
            short &= reach_mask(masks, 1 << u, -1, max_dist)
            if short:
                return False, (u, (short & -short).bit_length() - 1)
    return True, None


def check_min_degree_condition(g: Graph, k: int) -> bool:
    """Minimum degree at least floor(5k/4)."""
    if g.n == 0:
        return False
    return g.min_degree() >= (5 * k) // 4


# ---------------------------------------------------------------------------
# Hypotheses, conclusions and claim runners.

def _contractible_edge(flows: _Flows, k: int, quasi: bool, extra: dict) -> tuple[bool, dict]:
    """Conclusion of the theorems and degree conditions: some edge contracts
    to a (quasi) k-connected graph. Both witnesses carry `extra`."""
    edge = _first_contractible_edge(flows, k, quasi)
    if edge is None:
        return False, extra
    return True, {"edge": list(edge), **extra}


# One checker per shared hypothesis: each returns the _Vacuous of its
# failure, or None when it holds, so a runner chains them with `or`.

def _kappa_at_least(flows: _Flows, k: int) -> _Vacuous | None:
    """The hypothesis kappa >= k."""
    if flows.kappa < k:
        return _Vacuous(f"kappa={flows.kappa}<{k}")
    return None


def _quasi_5(flows: _Flows) -> _Vacuous | None:
    """The hypothesis that G is quasi 5-connected."""
    quasi = flows.quasi(5)
    if not quasi.holds:
        return _Vacuous(f"not quasi 5-connected ({quasi.failure}, kappa={quasi.kappa})")
    return None


def _degree_sums(g: Graph, bound: int, max_dist: int) -> _Vacuous | None:
    """The hypothesis d(x) + d(y) >= bound on every pair at distance
    1..max_dist."""
    _, pair = check_degree_sum_condition(g, bound, max_dist)
    if pair is not None:
        return _Vacuous(f"degree sum {g.degree(pair[0]) + g.degree(pair[1])}<{bound} "
                        f"for pair {list(pair)}")
    return None


def _critical(flows: _Flows) -> _Vacuous | None:
    """The criticality hypothesis of lemmas 1 and 5, for G quasi
    5-connected: no edge is quasi 5-contractible."""
    edge = _first_contractible_edge(flows, 5, True)
    if edge is not None:
        return _Vacuous(f"not contraction critical: edge {list(edge)} contracts safely")
    return None


def _k_connected(g: Graph, flows: _Flows, k: int, excluded: int | None = None) -> _Vacuous | None:
    """The degree conditions' prelude: k >= 2, k != excluded, G not
    complete, kappa >= k."""
    if k < 2:
        return _Vacuous(f"k={k}<2")
    if k == excluded:
        return _Vacuous(f"k={k} is excluded from this condition")
    if g.is_complete():
        return _Vacuous("graph is complete")
    return _kappa_at_least(flows, k)


# Claim runners. Each takes (g, flows, k), flows being g's flow context with
# the call's budget, returns the first of its hypotheses that fails, in a
# fixed order, and otherwise its conclusion; lemmas are universally
# quantified checks over the configurations in the graph matching their
# hypotheses, and no configurations means vacuous.

def _theorem1(g: Graph, flows: _Flows, k) -> _Outcome:
    """Every 5-connected graph has a quasi 5-contractible edge."""
    return _kappa_at_least(flows, 5) or _contractible_edge(flows, 5, True, {})


def _theorem2(g: Graph, flows: _Flows, k) -> _Outcome:
    """Every quasi 5-connected graph whose degree sums reach 9 on all pairs
    at distance one or two has a quasi 5-contractible edge."""
    return (_quasi_5(flows) or _degree_sums(g, 9, 2)
            or _contractible_edge(flows, 5, True, {}))


def _lemma1(g: Graph, flows: _Flows, k) -> _Outcome:
    """In a graph that is both 5-connected and critical for quasi
    5-contraction, a nontrivial fragment met by exactly one neighbor of a
    boundary vertex has exactly two vertices."""
    # kappa >= 5 makes g quasi 5-connected, so criticality is well posed.
    if vacuous := _kappa_at_least(flows, 5) or _critical(flows):
        return vacuous
    configs = 0
    for cut in flows.minimum_cuts:
        flows.check()
        for frag in fragments_of_cut(g, cut):
            if not frag.is_nontrivial():
                continue
            body = vertices_to_mask(frag.body)
            for x in cut.vertices:
                if (g.masks[x] & body).bit_count() == 1:
                    configs += 1
                    if len(frag.body) != 2:
                        return False, {"cut": cut.to_json(),
                                       "fragment": frag.to_json(), "vertex": x}
    if configs == 0:
        return _Vacuous("no matching fragment configuration", True)
    return True, {"configurations": configs}


def _edges_keeping_min_degree(g: Graph, d: int) -> list[tuple[int, int]]:
    """The edges xy of g, sorted, whose contraction leaves minimum degree at
    least d, read from g's masks: the merged vertex has |N(x) | N(y)| - 2
    neighbors, a common neighbor of x and y loses one, and every other
    vertex keeps its degree. So no vertex but x and y may have degree below
    d, and no common neighbor degree d."""
    masks = g.masks
    low = tight = 0
    for v, degree in enumerate(g.degrees()):
        if degree < d:
            low |= 1 << v
        elif degree == d:
            tight |= 1 << v
    return [(x, y) for x, y in g.edges()
            if not low & ~(1 << x | 1 << y) and not tight & masks[x] & masks[y]
            and (masks[x] | masks[y]).bit_count() - 2 >= d]


def _lemma2(g: Graph, flows: _Flows, k) -> _Outcome:
    """In a quasi 5-connected graph, any contraction keeping minimum degree
    at least 4 keeps the graph 4-connected."""
    if vacuous := _quasi_5(flows):
        return vacuous
    # kappa(G/e) < 4 exactly when some 4-cut of g contains both ends of e
    # (`_cut_holding`; G/e with minimum degree 4 has at least 5 vertices,
    # so it is not a small complete graph).
    configs = 0
    for e in _edges_keeping_min_degree(g, 4):
        flows.check()
        configs += 1
        if _cut_holding(flows, e, 5) is not None:
            return False, {"edge": list(e), "kappa_after": _kappa_after(flows, e)}
    if configs == 0:
        return _Vacuous("no contraction keeps minimum degree 4", True)
    return True, {"configurations": configs}


def _lemma3(g: Graph, flows: _Flows, k) -> _Outcome:
    """In a quasi 5-connected graph on at least 8 vertices, a degree-4
    vertex whose neighborhood contains a triangle contracts safely onto its
    remaining neighbor."""
    if vacuous := _quasi_5(flows):
        return vacuous
    if g.n < 8:
        return _Vacuous(f"n={g.n}<8")
    configs = 0
    for x in degree_k_vertices(g, 4):
        nbrs = set(g.neighbors(x))
        for tri in triangles_in_neighborhood(g, x):
            flows.check()
            (x4,) = nbrs - set(tri)
            configs += 1
            if not _contracts_to(flows, (x, x4), 5, True):
                return False, {"vertex": x, "triangle": list(tri),
                               "edge": sorted((x, x4))}
    if configs == 0:
        return _Vacuous("no degree-4 vertex with a triangle in its neighborhood", True)
    return True, {"configurations": configs}


def _lemma4(g: Graph, flows: _Flows, k) -> _Outcome:
    """A 4-connected graph is contraction critical exactly when it is
    4-regular with every edge in a triangle; both sides computed
    independently."""
    if vacuous := _kappa_at_least(flows, 4):
        return vacuous
    witness_edge = _first_contractible_edge(flows, 4, False)
    critical = witness_edge is None
    structural = is_regular_triangular(g)
    return critical == structural, {
        "is_critical": critical,
        "is_regular_triangular": structural,
        "contractible_edge": None if witness_edge is None else list(witness_edge),
    }


def _lemma5(g: Graph, flows: _Flows, k) -> _Outcome:
    """A critical quasi 5-connected graph meeting the degree sum condition
    has no degree-4 vertex with an edgeless neighborhood."""
    if vacuous := _quasi_5(flows) or _degree_sums(g, 9, 2) or _critical(flows):
        return vacuous
    for x in degree_k_vertices(g, 4):
        flows.check()
        if not any(g.masks[v] & g.masks[x] for v in g.neighbors(x)):
            return False, {"vertex": x}
    return True, None


def _degree_condition_A(g: Graph, flows: _Flows, k) -> _Outcome:
    """A non-complete k-connected graph with minimum degree at least
    floor(5k/4) has a k-contractible edge."""
    k = flows.kappa if k is None else k
    if vacuous := _k_connected(g, flows, k):
        return vacuous
    if not check_min_degree_condition(g, k):
        return _Vacuous(f"min degree {g.min_degree()} < {(5 * k) // 4}")
    return _contractible_edge(flows, k, False, {"k": k})


def _degree_condition_BC(g: Graph, flows: _Flows, k) -> _Outcome:
    """A non-complete k-connected graph whose degree sums reach
    2*floor(5k/4)-1 has a k-contractible edge. The pair set is all pairs at
    distance one or two, or only adjacent pairs once k >= 8; k = 7 is
    excluded and reported vacuous."""
    k = flows.kappa if k is None else k
    return (_k_connected(g, flows, k, excluded=7)
            or _degree_sums(g, 2 * ((5 * k) // 4) - 1, 1 if k >= 8 else 2)
            or _contractible_edge(flows, k, False, {"k": k}))


# ---------------------------------------------------------------------------
# Dispatch and campaign runner.

_RUNNERS = {
    "theorem1": _theorem1, "theorem2": _theorem2,
    "lemma1": _lemma1, "lemma2": _lemma2, "lemma3": _lemma3, "lemma4": _lemma4,
    "lemma5": _lemma5,
    "degree_condition_A": _degree_condition_A, "degree_condition_BC": _degree_condition_BC,
}
CLAIMS = tuple(_RUNNERS)


def _require_budget(timeout: float | None) -> None:
    """Error unless `timeout` is None or a number of seconds >= 0 (inf
    is no budget): a NaN deadline would never pass."""
    if timeout is not None and not timeout >= 0:
        raise ValueError(f"timeout must be a number of seconds >= 0, got {timeout}")


def verify_claim(g: Graph, claim: str, graph_id: str = "", k: int | None = None,
                 timeout: float | None = None, *,
                 _searches: dict | None = None) -> VerificationReport:
    """Run one claim on g and build its report: the one entry point of a
    claim, and the one constructor of every report but a campaign's error
    line. `k` is read by the degree conditions only (default kappa(g)).
    A claim still running `timeout` seconds after the call began is
    reported as `timeout`; a NaN or negative `timeout` is a ValueError,
    and inf is no budget. Falsified witnesses carry the graph's graph6.

    `_searches` is private to `run_campaign`: the dict of g's contractible
    edge searches (`_Flows.searches`) that all the claims on g share. A
    call without it starts an empty one, so it shares nothing."""
    if claim not in _RUNNERS:
        raise ValueError(f"unknown claim {claim!r}; known: {CLAIMS}")
    _require_budget(timeout)
    start = time.monotonic()
    deadline = None if timeout is None else start + timeout
    try:
        outcome = _RUNNERS[claim](g, _Flows(g, deadline, _searches), k)
    except DeadlineExceeded:
        rep = VerificationReport(graph_id, claim, TIMEOUT, None, None, None)
    else:
        if isinstance(outcome, _Vacuous):
            rep = VerificationReport(graph_id, claim, VACUOUS, outcome.hypotheses_hold, None,
                                     {"failed_hypothesis": outcome.reason})
        elif outcome[0]:
            rep = VerificationReport(graph_id, claim, VERIFIED, True, True, outcome[1])
        else:
            rep = VerificationReport(graph_id, claim, FALSIFIED, True, False,
                                     {**outcome[1], "graph6": gio.to_graph6(g)})
    rep.elapsed = time.monotonic() - start
    return rep


def run_campaign(corpus: Iterable[tuple[str, Graph]], claims: Iterable[str],
                 out: str | Path, k: int | None = None, exhaustive: bool = True,
                 timeout: float | None = None) -> dict:
    """Verify each claim against each (graph_id, Graph) pair of `corpus`,
    in order, streaming JSON lines; `generate_corpus` expands a spec into
    such pairs.

    An exception from one (graph, claim) becomes that pair's report, with
    status "error" and the exception in the witness, and the campaign goes
    on; the summary counts statuses in `counts` and errors in `errors`.
    Lines go to `<out>.tmp`, renamed to `out` once every pair is done; an
    unknown claim or a `timeout` that `verify_claim` rejects raises before
    it is opened.
    Campaign output is canonical (sorted keys, no timing), so reruns with
    the same corpus and seed are byte-identical. `exhaustive` is accepted
    and ignored: every claim always checks all its hypotheses.
    """
    claims = list(claims)
    for claim in claims:
        if claim not in _RUNNERS:
            raise ValueError(f"unknown claim {claim!r}; known: {CLAIMS}")
    _require_budget(timeout)
    graphs = list(corpus)
    counts = {VERIFIED: 0, VACUOUS: 0, FALSIFIED: 0, TIMEOUT: 0}
    errors = 0
    out = Path(out)
    tmp = out.with_name(out.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for graph_id, g in graphs:
            searches: dict = {}  # g's contractible-edge searches, dropped with g
            for claim in claims:
                try:
                    rep = verify_claim(g, claim, graph_id, k=k, timeout=timeout,
                                       _searches=searches)
                except Exception as exc:
                    rep = VerificationReport(graph_id, claim, ERROR, None, None,
                                             {"error": f"{type(exc).__name__}: {exc}"})
                    errors += 1
                else:
                    counts[rep.status] += 1
                fh.write(json.dumps(rep.to_json(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
    tmp.replace(out)
    return {
        "graphs": len(graphs),
        "claims": claims,
        "counts": counts,
        "errors": errors,
        "out": str(out),
    }
