"""Runtime benchmark — execution cores and chunked process dispatch.

Measures the wins of the batched execution core on a fig5-style sweep
(TLIM-32 + QAOA-r4-32, all six designs):

* **executor core** — wall-clock of replaying the full grid through the
  legacy per-gate :class:`DesignExecutor` (``REPRO_EXEC=legacy``) versus
  the batched gate-stream replay, asserting the per-run results are
  identical, and
* **dispatch granularity** — wall-clock of the serial backend versus the
  process-pool backend dispatching ``(cell, seed-chunk)`` batches.

Acts as the CI perf-smoke gate: the run *fails* if the batched core is
slower than the legacy core, or if any result diverges.  Emits
``BENCH_runtime.json`` next to the repository root so trajectory points can
be archived and compared.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import emit, repetitions
from repro.core import SystemConfig
from repro.engine import CellCompiler, ProcessPoolBackend, SerialBackend
from repro.engine.backends import ExecutionTask
from repro.runtime import list_designs

BENCHMARKS = ("TLIM-32", "QAOA-r4-32")
DESIGNS = tuple(list_designs())
SYSTEM = SystemConfig()
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"


#: Timed repetitions per measurement; the minimum is reported so scheduler
#: noise on shared machines does not dominate the comparison.
_REPEATS = 3


def _time_grid(cells, seeds, mode):
    """Replay every cell under every seed in one mode; (seconds, results)."""
    best = float("inf")
    results = None
    for _ in range(_REPEATS):
        start = time.perf_counter()
        results = [cell.execute_batch(seeds, mode=mode) for cell in cells]
        best = min(best, time.perf_counter() - start)
    return best, results


def _time_backend(backend, tasks):
    """Execute the task grid through a backend; (best seconds, results)."""
    best = float("inf")
    results = None
    for _ in range(_REPEATS):
        start = time.perf_counter()
        results = backend.execute(tasks)
        best = min(best, time.perf_counter() - start)
    return best, results


def test_runtime_benchmark():
    """Time legacy vs batched and serial vs process dispatch, emit JSON."""
    num_runs = max(8, repetitions(default=8))
    seeds = list(range(1, num_runs + 1))

    compiler = CellCompiler(system=SYSTEM)
    cells_by_benchmark = {
        benchmark: [compiler.compile(benchmark, design) for design in DESIGNS]
        for benchmark in BENCHMARKS
    }
    all_cells = [cell for cells in cells_by_benchmark.values() for cell in cells]

    # Warm both cores once per cell (fidelity caches, stream columns) so the
    # timed regions compare steady-state replay, not first-touch setup.
    for cell in all_cells:
        cell.execute_batch(seeds[:1], mode="legacy")
        cell.execute_batch(seeds[:1], mode="batched")

    # --- executor core: legacy vs batched, per benchmark ----------------
    per_benchmark = {}
    legacy_total = batched_total = 0.0
    identical = True
    for benchmark, cells in cells_by_benchmark.items():
        legacy_s, legacy_results = _time_grid(cells, seeds, "legacy")
        batched_s, batched_results = _time_grid(cells, seeds, "batched")
        identical = identical and legacy_results == batched_results
        legacy_total += legacy_s
        batched_total += batched_s
        per_benchmark[benchmark] = {
            "legacy_s": legacy_s,
            "batched_s": batched_s,
            "speedup": legacy_s / batched_s if batched_s > 0 else float("inf"),
        }
    executor_speedup = (
        legacy_total / batched_total if batched_total > 0 else float("inf")
    )

    # --- dispatch: serial vs chunked process pool -----------------------
    tasks = [ExecutionTask(cell, seed) for cell in all_cells for seed in seeds]
    serial_backend = SerialBackend()
    serial_backend.execute(tasks[:1])
    serial_s, serial_results = _time_backend(serial_backend, tasks)

    with ProcessPoolBackend() as backend:
        workers = backend._workers()
        # Warm the pool outside the timed region with one task per cell, so
        # the initializer ships the full cell set and the timed repeats
        # never trigger a pool rebuild.
        backend.execute([ExecutionTask(cell, seeds[0]) for cell in all_cells])
        process_s, process_results = _time_backend(backend, tasks)
    backend_identical = process_results == serial_results
    process_speedup = serial_s / process_s if process_s > 0 else float("inf")

    # --- report ---------------------------------------------------------
    payload = {
        "benchmarks": list(BENCHMARKS),
        "designs": list(DESIGNS),
        "num_runs": num_runs,
        "tasks": len(tasks),
        "executor": {
            "legacy_s": legacy_total,
            "batched_s": batched_total,
            "speedup": executor_speedup,
            "identical_results": identical,
            "per_benchmark": per_benchmark,
        },
        "dispatch": {
            "serial_s": serial_s,
            "process_s": process_s,
            "speedup": process_speedup,
            "process_workers": workers,
            "cpu_count": os.cpu_count() or 1,
            "identical_results": backend_identical,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "Runtime — batched executor and chunked process dispatch",
        "\n".join([
            f"grid: {len(BENCHMARKS)} benchmarks x {len(DESIGNS)} designs "
            f"x {num_runs} runs ({len(tasks)} tasks)",
            f"legacy executor:  {legacy_total * 1e3:8.1f} ms",
            f"batched executor: {batched_total * 1e3:8.1f} ms "
            f"({executor_speedup:.2f}x, identical={identical})",
            f"serial dispatch:  {serial_s * 1e3:8.1f} ms",
            f"process dispatch: {process_s * 1e3:8.1f} ms "
            f"({process_speedup:.2f}x, {workers} workers, "
            f"identical={backend_identical})",
            f"wrote {OUTPUT_PATH.name}",
        ]),
    )

    # Perf-smoke gate: divergence or a core slowdown fails the run.
    assert identical, "batched executor diverged from the legacy reference"
    assert backend_identical, "process backend diverged from serial"
    assert executor_speedup >= 1.0, (
        f"batched executor slower than legacy ({executor_speedup:.2f}x)"
    )
