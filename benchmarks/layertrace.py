"""Per-layer tracing of quasigraph from outside the library.

Each traced function is rebound, in every loaded ``quasigraph`` module that
holds a reference to it, to a wrapper that opens a span on entry and closes
it on exit. Spans nest on a stack: a closing span adds its duration to its
parent's child time, so a layer's self time is its duration minus the time
its traced children cover. Closed spans are folded into per-name totals and
per-(parent, name) edges at once, so memory stays flat however many calls a
run makes (an exhaustive scan makes about a million).

Nothing under ``src/`` is edited; ``Tracer.uninstall`` puts every original
function back.
"""

from __future__ import annotations

import sys
import time
from math import comb

# (module, function) -> span name. Private helpers are named after the layer
# they implement: every kappa computation runs through
# _vertex_connectivity_with_cut, every max-flow through _local_vertex_cut.
TARGETS = {
    ("core", "component_masks"): "core.component_masks",
    ("core", "contract_edge"): "core.contract_edge",
    ("connectivity", "_local_vertex_cut"): "connectivity.local_vertex_cut",
    ("connectivity", "_vertex_connectivity_with_cut"): "connectivity.vertex_connectivity",
    ("connectivity", "enumerate_cuts"): "connectivity.enumerate_cuts",
    ("connectivity", "is_quasi_k_connected"): "connectivity.is_quasi_k_connected",
    ("contractibility", "contraction_reports"): "contractibility.contraction_reports",
    ("contractibility", "is_contraction_critical"): "contractibility.is_contraction_critical",
    ("fragments", "nontrivial_atom"): "fragments.nontrivial_atom",
    ("fragments", "fragments_of_cut"): "fragments.fragments_of_cut",
    ("harness", "verify_claim"): "harness.claim",
    ("generators", "generate_corpus"): "generators.generate_corpus",
    ("io", "load_graphs"): "io.load_graphs",
}

CLAIMS = (
    "theorem1", "theorem2",
    "lemma1", "lemma2", "lemma3", "lemma4", "lemma5",
    "degree_condition_A", "degree_condition_BC",
)

# Per-layer metrics a traced pass reports, with their units. Counts are
# exact; times are seconds of one pass.
LAYER_METRICS = {
    "core.component_masks.calls": "count",
    "core.component_masks.self_s": "s",
    "core.contract_edge.calls": "count",
    "core.contract_edge.self_s": "s",
    "connectivity.local_vertex_cut.calls": "count",
    "connectivity.local_vertex_cut.self_s": "s",
    "connectivity.vertex_connectivity.calls": "count",
    "connectivity.vertex_connectivity.self_s": "s",
    "connectivity.enumerate_cuts.calls": "count",
    "connectivity.enumerate_cuts.self_s": "s",
    "connectivity.enumerate_cuts.subsets": "count",
    "connectivity.enumerate_cuts.cut_yield": "frac",
    "connectivity.is_quasi_k_connected.calls": "count",
    "connectivity.is_quasi_k_connected.scan_share": "frac",
    "contractibility.contraction_reports.self_s": "s",
    "contractibility.is_contraction_critical.calls": "count",
    "contractibility.is_contraction_critical.self_s": "s",
    "fragments.nontrivial_atom.self_s": "s",
    "fragments.fragments_of_cut.calls": "count",
    **{f"harness.claim.{claim}.s": "s" for claim in CLAIMS},
    "generators.generate_corpus.s": "s",
    "io.load_graphs.s": "s",
}


def _claim_span(args: tuple, kwargs: dict) -> str:
    claim = args[1] if len(args) > 1 else kwargs["claim"]
    return f"harness.claim.{claim}"


def _observe_enumerate_cuts(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    g = args[0]
    size = args[1] if len(args) > 1 else kwargs["size"]
    tracer.counters["connectivity.enumerate_cuts.subsets"] += comb(g.n, size)
    tracer.counters["connectivity.enumerate_cuts.cuts"] += len(result)


def _observe_quasi(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    if result.kappa == result.k - 1:
        tracer.counters["connectivity.is_quasi_k_connected.scans"] += 1


_OBSERVERS = {
    "connectivity.enumerate_cuts": _observe_enumerate_cuts,
    "connectivity.is_quasi_k_connected": _observe_quasi,
}


class Tracer:
    """Span recorder for one traced pass; use as a context manager. `clock`
    returns seconds."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # span name -> [calls, inclusive s, self s]
        self.spans: dict[str, list] = {}
        # (parent span name, span name) -> [calls, inclusive s]
        self.edges: dict[tuple[str, str], list] = {}
        self.counters = {
            "connectivity.enumerate_cuts.subsets": 0,
            "connectivity.enumerate_cuts.cuts": 0,
            "connectivity.is_quasi_k_connected.scans": 0,
        }
        # module -> names rebound there, for checking coverage
        self.rebound: dict[str, list[str]] = {}
        self.missing: list[str] = []
        # open spans: [name, start, child time]; the root has no name
        self._stack: list[list] = [["", 0, 0]]
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, span: str, fn):
        stack = self._stack
        spans = self.spans
        edges = self.edges
        clock = self.clock
        name_of = _claim_span if span == "harness.claim" else None
        observe = _OBSERVERS.get(span)

        def traced(*args, **kwargs):
            name = name_of(args, kwargs) if name_of else span
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                parent = stack[-1]
                parent[2] += duration
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[2]
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += duration
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "quasigraph" or name.startswith("quasigraph."))]
        for (mod, attr), span in TARGETS.items():
            owner = sys.modules.get(f"quasigraph.{mod}")
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapper = self._wrap(span, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._undo.append((module, name, original))
                        self.rebound.setdefault(module.__name__, []).append(name)

    def uninstall(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    def metrics(self) -> dict[str, float]:
        """Values of LAYER_METRICS for what this tracer saw; unseen layers are 0."""

        def rec(span: str) -> list:
            return self.spans.get(span, [0, 0.0, 0.0])

        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            span, _, measure = metric.rpartition(".")
            if measure == "calls":
                out[metric] = rec(span)[0]
            elif measure == "self_s":
                out[metric] = rec(span)[2]
            elif measure == "s":
                out[metric] = rec(span)[1]
        subsets = self.counters["connectivity.enumerate_cuts.subsets"]
        out["connectivity.enumerate_cuts.subsets"] = subsets
        out["connectivity.enumerate_cuts.cut_yield"] = (
            self.counters["connectivity.enumerate_cuts.cuts"] / subsets if subsets else 0.0)
        quasi_calls = rec("connectivity.is_quasi_k_connected")[0]
        out["connectivity.is_quasi_k_connected.scan_share"] = (
            self.counters["connectivity.is_quasi_k_connected.scans"] / quasi_calls
            if quasi_calls else 0.0)
        return out

    def call_tree(self) -> list[str]:
        """One line per (parent, span) edge: calls and inclusive seconds."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        return [f"{parent or '<workload>'} -> {name}: {calls} calls, {seconds:.3f} s"
                for (parent, name), (calls, seconds) in rows]
