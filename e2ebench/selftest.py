"""Self-tests of the end-to-end benchmark, at tiny sizes.

Run from the repository root::

    python -m pytest e2ebench/selftest.py -q

Every workload runs with a few seeds per cell and one set-up, so the
whole file takes about a minute on two CPUs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
#: Every workload, including the two BENCHMARK.json leaves out (see
#: README.md): ``sweep-cold-1seed``, and ``fig8-64q-fleet``, which
#: returns wrong results on back-to-back jobs; at these sizes it runs a
#: single job, which the defect does not reach.
NAMES = sorted(workloads.WORKLOADS)

#: Layers each workload must show spans for in its traced run.
EXPECTED_LAYERS = {
    "fig56-32q": {"import", "engine.compile", "runtime.execute",
                  "entanglement.acquire", "entanglement.advance",
                  "results.to_json"},
    "sweep-cold-1seed": {"import", "engine.compile", "benchmarks.build",
                         "partitioning.distribute", "scheduling.lookup",
                         "runtime.lower", "runtime.execute"},
    "svc-open": {"import", "service.submit", "service.journal",
                 "service.job", "service.http", "store.append",
                 "store.encode", "store.fsync", "store.read",
                 "results.to_json", "runtime.execute",
                 "entanglement.acquire"},
    "fig8-64q-fleet": {"import", "service.submit", "store.append",
                       "store.read", "runtime.execute",
                       "entanglement.acquire", "fleet.dispatch"},
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload: few seeds per cell, one set-up."""
    monkeypatch.setattr(workloads.Fig56, "runs", 2)
    monkeypatch.setattr(workloads.FleetClosed, "runs", 4)
    monkeypatch.setattr(workloads.ServiceOpen, "rate", 4.0)
    monkeypatch.setattr(workloads.Workload, "setups", 1)


def bench(capsys, workload: str, trace: int = 0, seconds: float = 0.5):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", str(seconds), "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_is_emitted(capsys, workload):
    result, _out = bench(capsys, workload)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_covers_every_layer(capsys, workload):
    result, out = bench(capsys, workload, trace=1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    table = {line.split()[0] for line in out.splitlines()
             if line.startswith("  ") and len(line.split()) == 4}
    assert EXPECTED_LAYERS[workload] <= table, out
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["import.s"] > 0
    assert metrics["runtime.runs"] > 0
    assert metrics["entanglement.acquires"] > 0
    if workload == "fig8-64q-fleet":
        payload = json.loads((BENCH_DIR.parent / ".e2ebench" /
                              f"BENCH_e2e-{workload}-trace.json").read_text())
        assert payload["fleet.chunks"] > 0
        assert payload["fleet.worker_busy_ratio"] > 0


def test_tampered_output_counts_as_failed(capsys, monkeypatch):
    measure = workloads.CliWorkload.measure

    def tampered(self, *args, **kwargs):
        phase = measure(self, *args, **kwargs)
        index, output = phase.outputs[0]
        phase.outputs[0] = (index, output + b" ")
        return phase

    monkeypatch.setattr(workloads.CliWorkload, "measure", tampered)
    result, _out = bench(capsys, "fig56-32q")
    assert result["correct"] is False
    assert result["failed"] == 1


def test_metric_names_match_the_ledger_gate():
    """``repro bench record`` gates timings and rates by their names;
    every name it classifies must agree with BENCHMARK.json."""
    from repro.analysis.ledger import classify_metric

    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        direction = classify_metric(metric["name"])
        assert direction in (None, metric["better"]), metric["name"]
    for metric in SPEC["end_to_end"]:
        assert classify_metric(metric["name"]) == metric["better"] or \
            metric["unit"] not in ("s", "ms", "1/s"), metric["name"]


def test_benchmark_json_lists_what_run_py_emits():
    listed = {workload["name"] for workload in SPEC["workloads"]}
    assert listed == set(workloads.WORKLOADS) - {"fig8-64q-fleet",
                                                 "sweep-cold-1seed"}
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(40)))[0] == 75
    assert run.tail(list(range(100)))[0] == 90
    assert run.tail(list(range(1000)))[0] == 99
