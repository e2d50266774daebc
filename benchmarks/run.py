"""quasigraph benchmark: one workload per run, built from a seed.

    python3 benchmarks/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is imported from ``src/`` and the
oracles from ``tests/``; the run exits with code 2, printing no result, when
they are missing. Temporary files go to ``.bench_work/`` and are removed.

With ``--trace 0`` the run sets the inputs up several times (``setup_s`` is
the median), then repeats the workload in a closed loop, one caller, until
``--seconds`` have passed (at least one pass) and reports the end-to-end
metrics: ``wall_s`` is the median pass, the verdict percentiles pool every
verdict of every pass. With ``--trace 1`` it runs one untraced pass, then
traced passes for ``--seconds``, and reports the per-layer metrics of
``layertrace.LAYER_METRICS`` plus the tracing overhead; traced runs never
give end-to-end numbers. Every reported time is rescaled to the reference
host speed by the sampler in ``hostspeed.py``, which times a fixed kernel
on a timer while the workload runs; the raw times are printed too.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The lines before it
print the same metrics for reading, with the run's context.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from layertrace import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_MIN times and, while it has taken under
# SETUP_SECONDS in total, up to SETUP_MAX times; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 3.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p98_ms": "ms",
    "peak_rss_mb": "MiB",
}
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "frac",
}


def _import_library() -> None:
    """Put the checkout's ``src`` and ``tests`` first on the path, refusing
    to fall back on any installed copy."""
    package = ROOT / "src" / "quasigraph" / "__init__.py"
    if not package.is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} has no src/quasigraph or tests/oracles.py; "
              "run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT / "tests"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import quasigraph

    if Path(quasigraph.__file__).resolve() != package.resolve():
        print(f"error: imported quasigraph from {quasigraph.__file__}", file=sys.stderr)
        raise SystemExit(2)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def setup(workload, seed: int, work: Path, clock, repeats: int = SETUP_MAX):
    """Set the inputs up (see SETUP_MIN); return the last inputs, the times,
    and whether every repetition built the same inputs."""
    times, prints, inputs = [], [], None
    while len(times) < min(SETUP_MIN, repeats) or (
            len(times) < repeats and sum(times) < SETUP_SECONDS):
        start = clock()
        inputs = workload.setup(seed, work)
        times.append(clock() - start)
        prints.append(workload.fingerprint(inputs))
    return inputs, times, all(p == prints[0] for p in prints)


def loop(workload, inputs, work: Path, seconds: float, host: HostSpeed, traced: bool = False):
    """Closed loop of passes until `seconds` have passed (at least one).
    Returns the passes, the host scale during each, and, when `traced`, the
    tracer installed around each."""
    passes, scales, tracers = [], [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        mark = host.mark()
        if traced:
            tracers.append(Tracer(host.clock))
            with tracers[-1]:
                passes.append(workload.run(inputs, work, host.clock))
        else:
            passes.append(workload.run(inputs, work, host.clock))
        scales.append(host.scale(mark))
    return passes, scales, tracers


def measure(workload, seed: int, seconds: float, work: Path):
    """Untraced run: end-to-end metrics and the gate."""
    with HostSpeed() as host:
        inputs, setup_times, same_inputs = setup(workload, seed, work, host.clock)
        setup_scale = host.scale()
        passes, scales, _ = loop(workload, inputs, work, seconds, host)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    gate_start = perf_counter()
    verdicts = workload.check(inputs, passes)
    gate_s = perf_counter() - gate_start
    latencies = [t * k for p, k in zip(passes, scales) for t in p.latencies]
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "wall_s": statistics.median(p.wall * k for p, k in zip(passes, scales)),
        "verdict_p50_ms": statistics.median(latencies) * 1e3,
        "verdict_p98_ms": percentile(latencies, 0.98) * 1e3,
        "peak_rss_mb": peak_kib / 1024,
    }
    notes = [f"raw setup times (s): {setup_times}",
             f"host scale during set-up: {setup_scale}",
             f"raw pass walls (s): {[p.wall for p in passes]}",
             f"host scale per pass: {scales} ({len(host.samples)} samples)",
             f"verdict samples: {len(latencies)}",
             f"gate (s): {gate_s}"]
    if not same_inputs:
        verdicts.problems.append("setup repetitions built different inputs")
    return metrics, END_TO_END, verdicts, notes


def measure_traced(workload, seed: int, seconds: float, work: Path):
    """Traced run: per-layer metrics of the traced passes, one untraced pass
    for the overhead, and the same gate over every pass."""
    with HostSpeed() as host:
        with Tracer(host.clock) as setup_tracer:
            inputs, _, _ = setup(workload, seed, work, host.clock, repeats=1)
        setup_scale = host.scale()
        (reference,), (reference_scale,), _ = loop(workload, inputs, work, 0, host)
        passes, scales, tracers = loop(workload, inputs, work, seconds, host, traced=True)
    verdicts = workload.check(inputs, [reference] + passes)

    per_pass = [t.metrics() for t in tracers]
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        values = [m[name] for m in per_pass]
        if unit == "count":
            if any(v != values[0] for v in values):
                verdicts.problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
        elif unit == "s":
            metrics[name] = statistics.median(v * k for v, k in zip(values, scales))
        else:
            metrics[name] = statistics.median(values)
    metrics["generators.generate_corpus.s"] = \
        setup_tracer.metrics()["generators.generate_corpus.s"] * setup_scale
    traced_wall = statistics.median(p.wall * k for p, k in zip(passes, scales))
    untraced_wall = reference.wall * reference_scale
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    if tracers[0].missing:
        verdicts.problems.append(f"traced functions not found: {tracers[0].missing}")
    notes = [f"raw traced pass walls (s): {[p.wall for p in passes]}",
             f"host scale per traced pass: {scales}",
             f"raw untraced pass wall (s): {reference.wall}, host scale {reference_scale}",
             "rebound: " + json.dumps(tracers[0].rebound, sort_keys=True),
             "call tree of the first traced pass (raw seconds):"]
    notes += ["  " + row for row in tracers[0].call_tree()]
    return metrics, {**LAYER_METRICS, **TRACE_METRICS}, verdicts, notes


def main(argv: list[str] | None = None, workloads: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    if workloads is None:
        from workloads import WORKLOADS as workloads
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads)}")
    workload = workloads[args.workload]

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = measure_traced if args.trace else measure
        metrics, units, verdicts, notes = run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    context = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 caller, no threads",
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "revision": revision(),
    }
    print("context: " + json.dumps(context, sort_keys=True))
    for note in notes:
        print(note)
    for problem in verdicts.problems:
        print(f"gate: {problem}", file=sys.stderr)
    failed_frac = verdicts.failed / verdicts.attempted if verdicts.attempted else 1.0
    print(f"failed_frac = {failed_frac} ({verdicts.failed} of {verdicts.attempted} verdicts)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    print(json.dumps({
        "correct": not verdicts.problems and verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
