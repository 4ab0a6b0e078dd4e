"""End-to-end benchmark of the repro CLI, service and fleet.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload fig56-32q --seed 1 --seconds 10 \\
        --trace 0

Workloads are listed in ``BENCHMARK.json`` and built in
``workloads.py``.  ``--trace 0`` measures the end-to-end metrics with
nothing instrumented.  ``--trace 1`` runs the same phase untraced and
then traced (every process through ``launch.py``) and reports the
per-layer split instead.  In both modes every output — CLI result file,
fetched job result — is compared byte for byte with the in-process
serial ``Study.from_spec(spec).run().to_json()`` reference, computed
after the measured phase.

Human-readable tables go to stdout; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The same
metrics are written to ``.e2ebench/BENCH_e2e-<workload>[-trace].json``,
a payload ``repro bench record`` can add to its ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from workloads import WORKLOADS, BenchError, Phase, Processes  # noqa: E402

#: A run must end within this many seconds (the harness allows 180).
RUN_BUDGET_S = 170.0

#: Percentiles considered for a tail; the highest with >= 10 samples
#: beyond it is reported.
TAIL_PERCENTILES = (99, 95, 90, 75)

#: Units of the end-to-end metrics (``--trace 0``).
END_TO_END = {"setup_s": "s", "runs_per_s": "1/s", "peak_rss_mb": "MB"}

#: Units of the per-layer metrics (``--trace 1``) in the result line:
#: the layers every workload in ``BENCHMARK.json`` exercises.
PER_LAYER = {
    "import.s": "s", "engine.compile_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "runtime.execute_s": "s", "runtime.replay_self_s": "s",
    "runtime.runs": "count",
    "entanglement.acquire_s": "s", "entanglement.advance_s": "s",
    "entanglement.acquires": "count", "entanglement.advances": "count",
    "entanglement.successes": "count", "entanglement.consumed": "count",
    "entanglement.wasted": "count", "entanglement.consumed_ratio": "ratio",
    "entanglement.us_per_acquire": "us",
    "results.to_json_s": "s",
    "trace.overhead_ratio": "ratio", "trace.unattributed_s": "s",
}

#: Units of the per-layer metrics shown in the table and payload only:
#: layers some workloads never reach (compile children on a warm daemon,
#: the store and service on the CLI, the fleet outside
#: ``fig8-64q-fleet``) read 0 there.
LAYER_EXTRAS = {
    "benchmarks.build_s": "s", "partitioning.distribute_s": "s",
    "scheduling.lookup_s": "s", "runtime.lower_s": "s",
    "engine.cells_compiled": "count",
    "store.encode_s": "s", "store.append_s": "s", "store.fsync_s": "s",
    "store.chunks": "count", "store.bytes": "bytes", "store.read_s": "s",
    "service.submit_server_ms": "ms", "service.journal_append_s": "s",
    "service.queue_wait_ms": "ms", "service.run_ms": "ms",
    "fleet.leases": "count", "fleet.chunks": "count",
    "fleet.stolen": "count", "fleet.duplicate_ratio": "ratio",
    "fleet.worker_busy_ratio": "ratio",
    "loadgen.late_max_ms": "ms", "src.loc": "lines",
}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: List[float]) -> Optional[Tuple[int, float]]:
    """``(pct, value)`` of the highest percentile with >= 10 samples
    beyond it, or ``None`` when there are too few samples."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (100 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return None


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
class Run:
    """One benchmark invocation: set-ups, phases, reference check."""

    def __init__(self, workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.procs = Processes(env, ROOT)
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def setup_times(self, count: int) -> List[float]:
        """Set the system up ``count`` times; tear each down."""
        times = []
        for _ in range(count):
            seconds, handle = self.workload.setup(self.procs, self.work, None)
            times.append(seconds)
            self.workload.teardown(self.procs, handle)
        return times

    def phase(self, span_dir: Optional[Path]) -> Phase:
        """One set-up, one measured phase, one tear-down."""
        _seconds, handle = self.workload.setup(self.procs, self.work,
                                               span_dir)
        try:
            return self.workload.measure(self.procs, handle, self.work,
                                         span_dir, self.deadline)
        finally:
            self.workload.teardown(self.procs, handle)

    def check(self, phases: List[Phase]) -> int:
        """Compare every output with the serial reference; count misses."""
        from repro.engine.cache import ArtifactCache
        from repro.study import Study

        cache = ArtifactCache()
        references: Dict[int, bytes] = {}
        mismatches = 0
        for phase in phases:
            for index, output in phase.outputs:
                if output is None:
                    continue  # already counted as failed
                if index not in references:
                    study = Study.from_spec(self.workload.specs[index],
                                            cache=cache)
                    references[index] = study.run().to_json().encode()
                    study.close()
                if output != references[index]:
                    kept = ROOT / ".e2ebench" / (
                        f"mismatch-{self.workload.name}-{index}")
                    kept.with_suffix(".got.json").write_bytes(output)
                    kept.with_suffix(".want.json").write_bytes(
                        references[index])
                    print(f"e2ebench: output of input {index} differs from "
                          f"the serial reference; both kept as {kept}.*",
                          file=sys.stderr)
                    mismatches += 1
        return mismatches


def runs_per_s(phase: Phase) -> float:
    return phase.runs / phase.wall_s if phase.wall_s > 0 else 0.0


def end_to_end(phase: Phase, setup: List[float]) -> Dict[str, float]:
    return {
        "setup_s": median(setup),
        "runs_per_s": runs_per_s(phase),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def extras(phase: Phase, failed: int) -> Dict[str, Any]:
    """Metrics shown in the table and payload beyond the gated set.

    ``wall_s`` is the phase's length, ``--seconds`` plus the last
    operation, so it shows speed only through ``runs_per_s``.
    ``job_p50_ms`` is here, not in :data:`END_TO_END`: on a shared 2-CPU
    host the median ``svc-open`` job latency spread by 27 % of its median
    between runs (interquartile range over ten seeds), more than the
    25 % by which a gated metric may worsen.  On the CLI workloads it is
    about ``wall_s`` over the process count.
    """
    rows: Dict[str, Any] = {
        "wall_s": phase.wall_s,
        "failed_ratio": failed / max(1, phase.attempted),
        "jobs": len(phase.latency_ms),
        "job_p50_ms": median(phase.latency_ms),
    }
    jobs_tail = tail(phase.latency_ms)
    if jobs_tail is not None:
        rows[f"job_p{jobs_tail[0]}_ms"] = jobs_tail[1]
    if phase.submit_ms:
        rows["submit_p50_ms"] = median(phase.submit_ms)
    if phase.fetch_ms:
        rows["fetch_p50_ms"] = median(phase.fetch_ms)
    return rows


def per_layer(phase: Phase, processes: List[Dict[str, Any]],
              untraced: Phase) -> Dict[str, float]:
    """Layer metrics of the spans that start inside the traced phase
    (and of every process's import)."""
    window = (phase.start, phase.end)
    table = spans.layer_table(processes, *window)
    counters = spans.sum_counters(processes, *window)

    def self_s(layer: str) -> float:
        return table.get(layer, {}).get("self_s", 0.0)

    def total_s(layer: str) -> float:
        return table.get(layer, {}).get("total_s", 0.0)

    def calls(layer: str) -> int:
        return int(table.get(layer, {}).get("calls", 0))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits = counters.get("engine.cache_hits", 0.0)
    lookups = hits + counters.get("engine.cache_misses", 0.0)
    successes = counters.get("entanglement.generated", 0.0)
    consumed = (counters.get("entanglement.consumed_from_buffer", 0.0)
                + counters.get("entanglement.consumed_direct", 0.0))
    entangle_s = self_s("entanglement.acquire") + self_s(
        "entanglement.advance")
    submits = [(end - start) * 1e3 for name, start, end, *_ in
               spans.phase_spans(processes, *window)
               if name == "service.submit"]
    workers = [p for p in processes if p.get("argv", [""])[0] == "worker"]
    worker_busy = sum(end - start for name, start, end, *_ in
                      spans.phase_spans(workers, *window)
                      if name == "runtime.execute")
    before, after = phase.fleet_before, phase.fleet_after

    def fleet(key: str) -> float:
        return float(after.get(key, 0) - before.get(key, 0))

    return {
        "import.s": total_s("import"),
        "engine.compile_s": self_s("engine.compile"),
        "benchmarks.build_s": self_s("benchmarks.build"),
        "partitioning.distribute_s": self_s("partitioning.distribute"),
        "scheduling.lookup_s": self_s("scheduling.lookup"),
        "runtime.lower_s": self_s("runtime.lower"),
        "engine.cells_compiled": calls("runtime.lower"),
        "engine.cache_hit_ratio": ratio(hits, lookups),
        "runtime.execute_s": total_s("runtime.execute"),
        "runtime.replay_self_s": self_s("runtime.execute"),
        "runtime.runs": counters.get("runtime.runs", 0.0),
        "entanglement.acquire_s": self_s("entanglement.acquire"),
        "entanglement.advance_s": self_s("entanglement.advance"),
        "entanglement.acquires": calls("entanglement.acquire"),
        "entanglement.advances": calls("entanglement.advance"),
        "entanglement.successes": successes,
        "entanglement.consumed": consumed,
        "entanglement.wasted": counters.get("entanglement.wasted", 0.0),
        "entanglement.consumed_ratio": ratio(consumed, successes),
        "entanglement.us_per_acquire":
            ratio(entangle_s * 1e6, calls("entanglement.acquire")),
        "store.encode_s": total_s("store.encode"),
        "store.append_s": total_s("store.append"),
        "store.fsync_s": total_s("store.fsync"),
        "store.chunks": counters.get("store.chunks", 0.0),
        "store.bytes": counters.get("store.bytes", 0.0),
        "store.read_s": total_s("store.read"),
        "results.to_json_s": total_s("results.to_json"),
        "service.submit_server_ms": median(submits),
        "service.journal_append_s": total_s("service.journal"),
        "service.queue_wait_ms": median(phase.queue_wait_ms),
        "service.run_ms": median(phase.run_ms),
        "fleet.leases": fleet("leases_issued"),
        "fleet.chunks": fleet("chunks_done"),
        "fleet.stolen": fleet("chunks_stolen"),
        "fleet.duplicate_ratio": ratio(fleet("duplicate_results"),
                                       fleet("chunks_done")),
        "fleet.worker_busy_ratio":
            ratio(worker_busy, len(workers) * phase.wall_s),
        "loadgen.late_max_ms": max(phase.late_ms, default=0.0),
        "trace.overhead_ratio":
            ratio(runs_per_s(untraced), runs_per_s(phase)) - 1.0,
        "trace.unattributed_s": phase.wall_s - spans.covered_seconds(
            processes, phase.start, phase.end),
        "src.loc": float(sum(
            len(path.read_bytes().splitlines())
            for path in (ROOT / "src").rglob("*.py"))),
    }


def print_layers(processes: List[Dict[str, Any]], phase: Phase) -> None:
    table = spans.layer_table(processes, phase.start, phase.end)
    wall = phase.wall_s
    print(f"  {'layer':26s} {'self_s':>9s} {'% wall':>7s} {'calls':>9s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:26s} {row['self_s']:9.4f} "
              f"{100 * row['self_s'] / wall:6.1f}% {row['calls']:9d}")


def print_metrics(title: str, metrics: Dict[str, float],
                  units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        unit = units.get(name, "ratio" if name.endswith("_ratio") else
                         "ms" if name.endswith("_ms") else "count")
        print(f"  {name:30s} {value:14.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {ROOT / 'src'}; run from "
              f"a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    out_dir = ROOT / ".e2ebench"
    work = out_dir / f"run-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload, work)
    try:
        if args.trace:
            untraced = run.phase(None)
            span_dir = work / "spans"
            span_dir.mkdir()
            phase = run.phase(span_dir)
            phases = [untraced, phase]
        else:
            # Half the set-ups before the phase and half after it, so
            # their median samples the host at two times.
            setup = run.setup_times(workload.setups // 2)
            phase = run.phase(None)
            setup += run.setup_times(workload.setups - workload.setups // 2)
            phases = [phase]
        mismatches = run.check(phases)
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases) + mismatches

        print(f"workload {workload.name}  seed {args.seed}  "
              f"({phase.attempted} operations, {phase.runs} simulated runs)")
        if args.trace:
            processes = spans.load_spans(span_dir)
            layers = per_layer(phase, processes, untraced)
            metrics = {name: layers[name] for name in PER_LAYER}
            extra = {name: layers[name] for name in LAYER_EXTRAS}
            print(f"layers (traced wall {phase.wall_s:.3f} s, untraced "
                  f"{untraced.wall_s:.3f} s)")
            print_layers(processes, phase)
            print_metrics("per-layer metrics", metrics, PER_LAYER)
            print_metrics("also reported", extra, LAYER_EXTRAS)
            units = PER_LAYER
        else:
            metrics = end_to_end(phase, setup)
            print_metrics("end-to-end metrics", metrics, END_TO_END)
            extra = extras(phase, failed)
            print_metrics("also reported (not gated)", extra, {})
            units = END_TO_END
        suffix = "-trace" if args.trace else ""
        (out_dir / f"BENCH_e2e-{workload.name}{suffix}.json").write_text(
            json.dumps({**metrics, **extra}, indent=2) + "\n")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
    except BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    finally:
        run.procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
