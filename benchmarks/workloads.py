"""The benchmark's workloads: inputs built from a seed, one timed pass, and
the correctness gate applied to the outputs of every pass.

Each workload is a closed loop with one caller and no threads: the next call
starts when the previous one has returned. The gates re-derive every
expected verdict independently of the library, from the construction of
the inputs and the brute-force oracles in ``tests/oracles.py``, and run
outside the timed region.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracles
from quasigraph import cli, connectivity, generators, harness
from quasigraph import io as gio
from quasigraph.generators import CorpusSpec

from layertrace import CLAIMS


Clock = Callable[[], float]


@dataclass
class Pass:
    """One timed pass: its wall time, the latency of each verdict in it, and
    its output, which the gate checks later."""

    wall: float
    latencies: list[float]
    output: object


@dataclass
class Verdicts:
    """Gate outcome over all passes of a run."""

    attempted: int
    failed: int
    problems: list[str]


def _fingerprint(graphs) -> list[tuple]:
    return [(gid, g.n, tuple(g.edges())) for gid, g in graphs]


class _Plain:
    """The two accessors the oracles use (``n`` and ``edges()``), for graphs
    built here without the library."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self._edges = edges

    def edges(self) -> list[tuple[int, int]]:
        return self._edges


def _contract(adj: list[set[int]], x: int, y: int) -> _Plain:
    """Identify y with x (x < y) and renumber the vertices above y down by one."""

    def new(v: int) -> int:
        v = x if v == y else v
        return v - 1 if v > y else v

    edges = {(min(new(u), new(v)), max(new(u), new(v)))
             for u in range(len(adj)) for v in adj[u] if u < v and new(u) != new(v)}
    return _Plain(len(adj) - 1, sorted(edges))


def _degree_sums_hold(adj: list[set[int]], bound: int, max_dist: int) -> bool:
    """d(u) + d(v) >= bound for every pair at distance 1..max_dist."""
    for u in range(len(adj)):
        seen = {u}
        frontier = {u}
        for _ in range(max_dist):
            frontier = {w for x in frontier for w in adj[x]} - seen
            seen |= frontier
            if any(len(adj[u]) + len(adj[v]) < bound for v in frontier):
                return False
    return True


def _has_triangle(adj: list[set[int]], vertices: set[int]) -> bool:
    return any(adj[a] & adj[b] & vertices for a in vertices for b in adj[a] & vertices)


# ---------------------------------------------------------------------------
# campaign


class Campaign:
    """``run_campaign`` over the mixed corpus with all 9 claims, exhaustive."""

    name = "campaign"
    why = ("the verifier's real job: vacuous and verified verdicts mixed, time "
           "mostly in max-flow on contracted graphs (lemma2, theorem1, degree "
           "conditions), so flow changes show here")

    def __init__(self, sizes: tuple[int, int] = (10, 20)):
        self.sizes = list(sizes)

    def setup(self, seed: int, work: Path):
        n = self.sizes
        return generators.generate_corpus([
            CorpusSpec("random_5_connected", {"n": n}, 2, seed),
            CorpusSpec("quasi_5_apex", {"n": n}, 2, seed),
            CorpusSpec("quasi_5_apex", {"n": n, "attach_triangle": True}, 1, seed),
            CorpusSpec("circulant", {"n": n, "jumps": [1, 2, 3]}),
            CorpusSpec("icosahedron"),
        ])

    def fingerprint(self, graphs) -> list[tuple]:
        return _fingerprint(graphs)

    def run(self, graphs, work: Path, clock: Clock = perf_counter) -> Pass:
        out = work / "campaign.jsonl"
        latencies: list[float] = []
        inner = harness.verify_claim

        def timed_verify_claim(*args, **kwargs):
            start = clock()
            rep = inner(*args, **kwargs)
            latencies.append(clock() - start)
            return rep

        # One timer at the (graph, claim) boundary; 603 calls per pass.
        harness.verify_claim = timed_verify_claim
        try:
            start = clock()
            summary = harness.run_campaign(graphs, CLAIMS, out, exhaustive=True)
            wall = clock() - start
        finally:
            harness.verify_claim = inner
        return Pass(wall, latencies, (summary, out.read_bytes()))

    def expected_status(self, graph_id: str, adj: list[set[int]], claim: str) -> set[str]:
        """Statuses a correct verifier may report, from the construction.

        Every corpus graph is quasi 5-connected with n >= 10, and the claims
        are theorems, so a claim is verified exactly when its hypotheses
        hold. Graphs with a verified theorem1 or theorem2 witness (re-checked
        by the oracle) are not contraction critical, so lemma1 and lemma5
        are always vacuous. kappa comes from the family: 4 for apex graphs,
        6 for C_n(1,2,3), 5 for the icosahedron and for random 5-connected
        graphs of minimum degree 5; it is unknown (>= 5) above that.
        """
        degrees = [len(a) for a in adj]
        if graph_id.startswith("apex4-"):
            kappa = 4
        elif graph_id.startswith("C"):
            kappa = 6
        elif graph_id == "icosahedron" or min(degrees) == 5:
            kappa = 5
        else:
            kappa = None

        def verdict(hypotheses: bool) -> set[str]:
            return {"verified" if hypotheses else "vacuous"}

        if claim == "theorem1":
            return verdict(kappa is None or kappa >= 5)
        if claim == "theorem2":
            return verdict(_degree_sums_hold(adj, 9, 2))
        if claim in ("lemma1", "lemma5"):
            return {"vacuous"}
        if claim == "lemma2":
            return verdict(any(self._keeps_min_degree_4(adj, x, y)
                               for x in range(len(adj)) for y in adj[x] if x < y))
        if claim == "lemma3":
            return verdict(any(degrees[x] == 4 and _has_triangle(adj, adj[x])
                               for x in range(len(adj))))
        if claim == "lemma4":
            return {"verified"}
        if kappa is None:
            return {"verified", "vacuous"}
        if claim == "degree_condition_A":
            return verdict(min(degrees) >= (5 * kappa) // 4)
        if claim == "degree_condition_BC":
            if kappa == 7:
                return {"vacuous"}
            return verdict(_degree_sums_hold(adj, 2 * ((5 * kappa) // 4) - 1,
                                             1 if kappa >= 8 else 2))
        raise ValueError(f"unknown claim {claim!r}")

    @staticmethod
    def _keeps_min_degree_4(adj: list[set[int]], x: int, y: int) -> bool:
        if len(adj[x] | adj[y]) - 2 < 4:
            return False
        common = adj[x] & adj[y]
        return all(len(adj[w]) - (w in common) >= 4
                   for w in range(len(adj)) if w != x and w != y)

    def check(self, graphs, passes: list[Pass]) -> Verdicts:
        adjs = {gid: oracles.adjacency_sets(g) for gid, g in graphs}
        problems: list[str] = []
        failed = attempted = 0
        witness_ok: dict[tuple, bool] = {}
        first_bytes = passes[0].output[1]
        for i, p in enumerate(passes):
            summary, data = p.output
            if data != first_bytes:
                problems.append(f"pass {i}: report bytes differ from pass 0")
            lines = data.decode("utf-8").splitlines()
            expected_lines = len(graphs) * len(CLAIMS)
            attempted += expected_lines
            if len(lines) != expected_lines:
                problems.append(f"pass {i}: {len(lines)} reports, expected {expected_lines}")
                failed += expected_lines
                continue
            counts = {"verified": 0, "vacuous": 0, "falsified": 0, "timeout": 0}
            for line, (gid, claim) in zip(lines, ((gid, c) for gid, _ in graphs for c in CLAIMS)):
                rep = json.loads(line)
                counts[rep["status"]] = counts.get(rep["status"], 0) + 1
                ok = (rep["graph_id"], rep["claim"]) == (gid, claim) and \
                    rep["status"] in self.expected_status(gid, adjs[gid], claim)
                if ok and rep["status"] == "verified" and claim in (
                        "theorem1", "theorem2", "degree_condition_A", "degree_condition_BC"):
                    key = (gid, claim, tuple(rep["witness"]["edge"]))
                    if key not in witness_ok:
                        witness_ok[key] = self._witness_holds(adjs[gid], claim, rep["witness"])
                    ok = witness_ok[key]
                if not ok:
                    failed += 1
                    if len(problems) < 20:
                        problems.append(f"pass {i}: wrong verdict {line}")
            if counts != summary["counts"]:
                problems.append(f"pass {i}: summary counts {summary['counts']} != reports {counts}")
        return Verdicts(attempted, failed, problems)

    @staticmethod
    def _witness_holds(adj: list[set[int]], claim: str, witness: dict) -> bool:
        x, y = witness["edge"]
        if not (x < y and y in adj[x]):
            return False
        contracted = _contract(adj, x, y)
        if claim in ("theorem1", "theorem2"):
            return oracles.brute_is_quasi_k(contracted, 5)
        return oracles.brute_vertex_connectivity(contracted) >= witness["k"]


# ---------------------------------------------------------------------------
# analyze


class Analyze:
    """``quasigraph analyze`` (``cli.main``, stdout captured) over a graph6
    file of quasi 5-connected apex graphs, with and without the triangle."""

    name = "analyze"
    why = ("every edge is contracted and rescanned with a full 4-subset scan "
           "(about n^5), the per-edge rework one cut table per graph removes; "
           "kappa is 4, so no flow-limited path")

    # Typical edge count of quasi_5_apex(n). The scan work is about
    # m * C(n-1, 4), and m swings by +-8 % between seeds at n = 24, so of
    # CANDIDATES seeded graphs per size the plain variant takes the closest
    # to it and the triangle variant the next closest, on its own host graph.
    # Always building every candidate keeps the set-up work the same.
    TYPICAL_EDGES = {16: 50, 20: 65, 24: 78}
    CANDIDATES = 6

    # n = 20 twice: the median verdict falls among the n = 20 graphs, and
    # four of them keep it from following one graph's structure.
    def __init__(self, sizes: tuple[int, ...] = (16, 20, 20, 24)):
        self.sizes = sizes

    def setup(self, seed: int, work: Path):
        graphs = []
        for j, n in enumerate(self.sizes):
            typical = self.TYPICAL_EDGES.get(n, 0)
            seeds = [(seed * len(self.sizes) + j) * self.CANDIDATES + k
                     for k in range(self.CANDIDATES)]
            candidates = [generators.generate_corpus([CorpusSpec("quasi_5_apex", {"n": n}, 1, s)])[0]
                          for s in seeds]
            plain, tri = sorted(range(self.CANDIDATES),
                                key=lambda i: abs(candidates[i][1].edge_count - typical))[:2]
            graphs += [candidates[plain]] + generators.generate_corpus([CorpusSpec(
                "quasi_5_apex", {"n": n, "attach_triangle": True}, 1, seeds[tri])])
        path = work / "apex.g6"
        gio.write_graph6_file(path, [g for _, g in graphs])
        return graphs, path

    def fingerprint(self, inputs) -> list[tuple]:
        graphs, path = inputs
        return _fingerprint(graphs) + [(path.read_bytes(),)]

    def run(self, inputs, work: Path, clock: Clock = perf_counter) -> Pass:
        _, path = inputs
        sink = _LineClock(clock)
        start = clock()
        with redirect_stdout(sink):
            code = cli.main(["analyze", str(path)])
        wall = clock() - start
        marks = [start] + sink.times
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        return Pass(wall, latencies, (code, sink.getvalue()))

    def check(self, inputs, passes: list[Pass]) -> Verdicts:
        graphs, path = inputs
        problems: list[str] = []
        failed = attempted = 0
        first = passes[0].output[1]
        oracle_checked: dict[str, bool] = {}
        smallest = min(range(len(graphs)), key=lambda i: (graphs[i][1].n, i))
        for i, p in enumerate(passes):
            code, text = p.output
            attempted += len(graphs)
            if code != 0 or text != first:
                problems.append(f"pass {i}: exit code {code} or output differs from pass 0")
            lines = text.splitlines()
            if len(lines) != len(graphs):
                problems.append(f"pass {i}: {len(lines)} summaries for {len(graphs)} graphs")
                failed += len(graphs)
                continue
            for j, (line, (_, g)) in enumerate(zip(lines, graphs)):
                summary = json.loads(line)
                ok = self._summary_holds(f"{path.name}:{j}", g, summary)
                if ok and j == smallest:
                    if line not in oracle_checked:
                        oracle_checked[line] = self._classes_match_oracle(g, summary)
                    ok = oracle_checked[line]
                if not ok:
                    failed += 1
                    problems.append(f"pass {i}: wrong summary for graph {j}")
        return Verdicts(attempted, failed, problems)

    @staticmethod
    def _summary_holds(graph_id: str, g, summary: dict) -> bool:
        """Apex graphs are quasi 5-connected with kappa 4 and a single
        4-cut (the apex neighbourhood), whose only split strands the apex:
        no nontrivial atom. The three edge classes partition the edges."""
        edges = [list(e) for e in g.edges()]
        classes = (summary["quasi_contractible_edges"] or []) + (summary["E0"] or []) + \
            (summary["kappa_dropping_edges"] or [])
        return (summary["graph_id"] == graph_id and summary["n"] == g.n
                and summary["m"] == len(edges) and summary["kappa"] == 4
                and summary["quasi_k"]["holds"] is True
                and summary["nontrivial_atom"] is None
                and sorted(classes) == edges)

    @staticmethod
    def _classes_match_oracle(g, summary: dict) -> bool:
        adj = oracles.adjacency_sets(g)
        quasi = {tuple(e) for e in summary["quasi_contractible_edges"]}
        e0 = {tuple(e) for e in summary["E0"]}
        for x, y in g.edges():
            contracted = _contract(adj, x, y)
            if oracles.brute_vertex_connectivity(contracted) < 4:
                expected = "dropping"
            elif oracles.brute_is_quasi_k(contracted, 5):
                expected = "quasi"
            else:
                expected = "E0"
            got = "quasi" if (x, y) in quasi else "E0" if (x, y) in e0 else "dropping"
            if got != expected:
                return False
        return True


class _LineClock(io.StringIO):
    """Captured stdout that notes the time each output line ends."""

    def __init__(self, clock: Clock) -> None:
        super().__init__()
        self.clock = clock
        self.times: list[float] = []

    def write(self, text: str) -> int:
        n = super().write(text)
        if "\n" in text:
            self.times.extend([self.clock()] * text.count("\n"))
        return n


# ---------------------------------------------------------------------------
# quasi_scan


class QuasiScan:
    """``is_quasi_k_connected(g, 5)`` on large sparse kappa-4 graphs: half
    C_n(1,2) (fails on a nontrivial 4-cut), half apex graphs (holds)."""

    name = "quasi_scan"
    why = ("one exhaustive 4-subset scan per graph and under 1% of time in "
           "flow: isolates enumerate_cuts + component_masks; the bypass case "
           "for per-edge tables and flow changes")

    def __init__(self, sizes: tuple[int, ...] = (36, 38, 40)):
        self.sizes = sizes

    def setup(self, seed: int, work: Path):
        specs = []
        for n in self.sizes:
            specs.append(CorpusSpec("circulant", {"n": n, "jumps": [1, 2]}))
            specs.append(CorpusSpec("quasi_5_apex", {"n": n}, 1, seed))
        return generators.generate_corpus(specs)

    def fingerprint(self, graphs) -> list[tuple]:
        return _fingerprint(graphs)

    def run(self, graphs, work: Path, clock: Clock = perf_counter) -> Pass:
        latencies = []
        results = []
        start = clock()
        for _, g in graphs:
            t = clock()
            results.append(connectivity.is_quasi_k_connected(g, 5))
            latencies.append(clock() - t)
        wall = clock() - start
        return Pass(wall, latencies, results)

    def check(self, graphs, passes: list[Pass]) -> Verdicts:
        problems: list[str] = []
        failed = attempted = 0
        first = [r.to_json() for r in passes[0].output]
        cut_ok: dict[int, bool] = {}
        for i, p in enumerate(passes):
            if [r.to_json() for r in p.output] != first:
                problems.append(f"pass {i}: verdicts differ from pass 0")
            for j, ((gid, g), r) in enumerate(zip(graphs, p.output)):
                attempted += 1
                if re.match(r"C\d+\(1,2\)$", gid):
                    ok = (not r.holds and r.failure == "nontrivial-cut" and r.kappa == 4)
                    if ok:
                        if j not in cut_ok:
                            cut_ok[j] = self._cut_holds(g, r.cut)
                        ok = cut_ok[j]
                else:
                    ok = r.holds and r.kappa == 4 and r.failure is None
                if not ok:
                    failed += 1
                    problems.append(f"pass {i}: wrong verdict for {gid}: {r.to_json()}")
        return Verdicts(attempted, failed, problems)

    @staticmethod
    def _cut_holds(g, cut) -> bool:
        """The refuting cut has 4 vertices and its components, recomputed by
        the oracle, admit a split with >= 2 vertices on each side."""
        adj = oracles.adjacency_sets(g)
        comps = oracles.components_of(adj, set(cut.vertices))
        return (len(cut.vertices) == 4 and cut.nontrivial
                and sorted(tuple(sorted(c)) for c in comps) == sorted(cut.components)
                and oracles.brute_nontrivial([len(c) for c in comps]))


WORKLOADS = {w.name: w for w in (Campaign(), Analyze(), QuasiScan())}
