"""Smoke test of the benchmark at tiny sizes; outside the tier-1 suite:

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_library()

import oracles  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "campaign": workloads.Campaign(sizes=(10, 11)),
    "analyze": workloads.Analyze(sizes=(10,)),
    "quasi_scan": workloads.QuasiScan(sizes=(12,)),
}


def bench(name: str, trace: int, workload=None) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)], {name: workload or TINY[name]})
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_workloads_match_the_spec():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_reported_with_its_unit(name, trace):
    result = bench(name, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = bench("analyze", 1), bench("analyze", 1)
    assert [first["metrics"][m]["value"] for m in counts] == \
        [second["metrics"][m]["value"] for m in counts]
    assert first["metrics"]["core.component_masks.calls"]["value"] > 0


def test_wrappers_cover_every_importing_module():
    with Tracer() as tracer:
        pass
    assert not tracer.missing
    for module in ("quasigraph.core", "quasigraph.connectivity", "quasigraph.fragments"):
        assert "component_masks" in tracer.rebound[module]
    assert {"_local_vertex_cut", "_vertex_connectivity_with_cut"} <= set(
        tracer.rebound["quasigraph.connectivity"])
    from quasigraph import core
    assert not hasattr(core.component_masks, "__wrapped__")


def test_expected_statuses_at_seed_1_match_the_recorded_counts():
    campaign = workloads.Campaign()
    graphs = campaign.setup(1, ROOT)
    statuses = [campaign.expected_status(gid, oracles.adjacency_sets(g), claim)
                for gid, g in graphs for claim in workloads.CLAIMS]
    assert all(len(s) == 1 for s in statuses)
    assert Counter(s.pop() for s in statuses) == {"verified": 287, "vacuous": 316}


def test_gate_rejects_a_changed_status_count():
    class WrongCampaign(workloads.Campaign):
        def expected_status(self, graph_id, adj, claim):
            if claim == "lemma2":
                return {"vacuous"}
            return super().expected_status(graph_id, adj, claim)

    result = bench("campaign", 0, WrongCampaign(sizes=(10, 10)))
    assert result["correct"] is False
    assert result["failed"] == 7  # lemma2 is verified on all 7 graphs of n = 10


def test_gate_rejects_a_wrong_scan_verdict(tmp_path):
    scan = TINY["quasi_scan"]
    graphs = scan.setup(1, tmp_path)
    good = scan.run(graphs, tmp_path)
    assert scan.check(graphs, [good]).failed == 0
    flipped = [dataclasses.replace(r, holds=not r.holds) for r in good.output]
    bad = dataclasses.replace(good, output=flipped)
    assert scan.check(graphs, [good, bad]).failed == len(graphs)


def test_gate_rejects_a_misclassified_edge(tmp_path):
    analyze = TINY["analyze"]
    inputs = analyze.setup(1, tmp_path)
    good = analyze.run(inputs, tmp_path)
    assert analyze.check(inputs, [good]).failed == 0
    code, text = good.output
    summary = json.loads(text.splitlines()[0])
    summary["E0"].append(summary["quasi_contractible_edges"].pop())
    lines = text.splitlines()
    lines[0] = json.dumps(summary, sort_keys=True)
    bad = dataclasses.replace(good, output=(code, "\n".join(lines) + "\n"))
    verdicts = analyze.check(inputs, [bad])
    assert verdicts.failed == 1 and verdicts.problems


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "campaign", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
