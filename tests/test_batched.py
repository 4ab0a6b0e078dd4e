"""Batched execution core: equivalence with the legacy reference executor.

The contract of this PR: for identical seeds the trajectory-batched
executor produces :class:`ExecutionResult`s *bit-identical* to the legacy
:class:`DesignExecutor` — every field, including remote-gate records,
fidelity breakdowns, entanglement statistics, and adaptive variant
histograms.  These tests pin that contract across all six designs, across
topologies, with prebuilt schedule lookup tables, and through the engine's
backends and chunked dispatch.
"""

from __future__ import annotations

import gc
import os
import weakref
from concurrent.futures import Future

import pytest

from repro.core.config import SystemConfig
from repro.engine import (
    ArtifactCache,
    CellCompiler,
    ProcessPoolBackend,
    SerialBackend,
    chunk_tasks,
)
from repro.engine import backends
from repro.engine.backends import ExecutionTask, get_backend
from repro.entanglement.generator import EntanglementGenerator
from repro.exceptions import ConfigurationError
from repro.runtime import (
    BatchedExecutor,
    DesignExecutor,
    execution_mode,
    list_designs,
)
from repro.runtime.execmode import BATCHED, EXEC_ENV_VAR, LEGACY
from repro.runtime.gatestream import OP_REMOTE, lower_cell
from repro.runtime.designs import get_design
from repro.study import Study

SEEDS = [1, 2, 3]


def _assert_identical(legacy, batched):
    assert len(legacy) == len(batched)
    for reference, candidate in zip(legacy, batched):
        assert candidate.seed == reference.seed
        assert candidate.makespan == reference.makespan
        assert candidate.fidelity == reference.fidelity
        assert candidate.fidelity_breakdown == reference.fidelity_breakdown
        assert candidate.qubit_idle_total == reference.qubit_idle_total
        assert candidate.remote_records == reference.remote_records
        assert candidate.epr_statistics == reference.epr_statistics
        assert candidate.variant_histogram == reference.variant_histogram
        # Full dataclass equality last: catches any field the above missed.
        assert candidate == reference


# ---------------------------------------------------------------------------
# equivalence across the whole design / benchmark grid
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("design", list_designs())
@pytest.mark.parametrize("benchmark_name", ["TLIM-16", "QAOA-r2-16"])
def test_batched_equals_legacy_all_designs(benchmark_name, design):
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile(benchmark_name, design)
    legacy = cell.execute_batch(SEEDS, mode="legacy")
    batched = cell.execute_batch(SEEDS, mode="batched")
    _assert_identical(legacy, batched)


@pytest.mark.parametrize("topology,partition_method", [
    ("all_to_all", "multilevel"),
    ("ring", "multilevel"),
    ("line", "contiguous"),
])
def test_batched_equals_legacy_across_topologies(topology, partition_method):
    system = SystemConfig(num_nodes=4, data_qubits_per_node=8,
                          comm_qubits_per_node=8, buffer_qubits_per_node=8,
                          topology=topology, partition_method=partition_method)
    compiler = CellCompiler(system=system)
    for design in ("original", "async_buf", "adapt_buf"):
        cell = compiler.compile("TLIM-32", design)
        _assert_identical(cell.execute_batch(SEEDS, mode="legacy"),
                          cell.execute_batch(SEEDS, mode="batched"))


def test_batched_adaptive_seeds_genuinely_diverge():
    """The equivalence only means something if seeds pick different variants.

    On the 4-node system the adaptive design's per-seed lookup decisions
    differ, so the 12 seeds below do not all share one variant histogram.
    """
    system = SystemConfig(num_nodes=4, data_qubits_per_node=8,
                          comm_qubits_per_node=8, buffer_qubits_per_node=8)
    compiler = CellCompiler(system=system)
    cell = compiler.compile("TLIM-32", "adapt_buf")
    seeds = list(range(1, 13))
    batched = cell.execute_batch(seeds, mode="batched")
    histograms = {tuple(sorted(r.variant_histogram.items())) for r in batched}
    assert len(histograms) > 1
    _assert_identical(cell.execute_batch(seeds, mode="legacy"), batched)


def test_batched_adaptive_uses_prebuilt_lookup():
    """The engine path hands the compile-time lookup to both cores."""
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QAOA-r2-16", "adapt_buf")
    assert cell.lookup is not None
    assert cell.streams is not None and cell.streams.segments is not None
    assert len(cell.streams.segments) == cell.lookup.num_segments
    legacy = cell.execute_batch(SEEDS, mode="legacy")
    batched = cell.execute_batch(SEEDS, mode="batched")
    _assert_identical(legacy, batched)
    # Some run must actually exercise the adaptive rule for this to be a
    # meaningful equivalence case.
    assert any(sum(r.variant_histogram.values()) > 0 for r in batched)


def test_batched_standalone_without_prebuilt_streams():
    """BatchedExecutor lowers on the fly when no compile artifacts exist."""
    from repro.benchmarks.registry import build_benchmark
    from repro.partitioning.assigner import distribute_circuit

    system = SystemConfig()
    architecture = system.build_architecture()
    program = distribute_circuit(build_benchmark("TLIM-16"), num_nodes=2)
    for design in ("async_buf", "adapt_buf", "ideal"):
        legacy = [
            DesignExecutor(architecture, design, seed=seed).run(program)
            for seed in SEEDS
        ]
        batched = BatchedExecutor(architecture, design).run_batch(program, SEEDS)
        _assert_identical(legacy, batched)


def test_batched_custom_segment_length_and_policy():
    from repro.scheduling.policies import AdaptivePolicy

    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "adapt_buf", segment_length=3,
                            adaptive_policy=AdaptivePolicy(asap_threshold=2))
    _assert_identical(cell.execute_batch(SEEDS, mode="legacy"),
                      cell.execute_batch(SEEDS, mode="batched"))


def test_batched_empty_seed_batch():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "original")
    assert cell.execute_batch([], mode="batched") == []
    assert cell.execute_batch([], mode="legacy") == []


def test_batched_single_seed():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QAOA-r2-16", "sync_buf")
    _assert_identical(cell.execute_batch([7], mode="legacy"),
                      cell.execute_batch([7], mode="batched"))


def test_ideal_batch_results_are_independent_objects():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QFT-16", "ideal")
    results = cell.execute_batch([1, 2], mode="batched")
    assert results[0].seed == 1 and results[1].seed == 2
    assert results[0].fidelity_breakdown == results[1].fidelity_breakdown
    assert results[0].fidelity_breakdown is not results[1].fidelity_breakdown
    assert results[0].remote_records is not results[1].remote_records


# ---------------------------------------------------------------------------
# gate-stream lowering
# ---------------------------------------------------------------------------
def test_lowered_stream_matches_program():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "async_buf")
    streams = cell.streams
    circuit = cell.program.circuit
    assert streams.flat.num_gates == circuit.num_gates
    remote = [i for i, gate in enumerate(circuit.gates) if gate.is_remote]
    assert [i for i in range(streams.flat.num_gates)
            if streams.flat.opcodes[i] == OP_REMOTE] == remote
    for index in remote:
        gate = circuit.gates[index]
        pair_id = int(streams.flat.pair_ids[index])
        nodes = tuple(sorted(cell.program.node_of(q) for q in gate.qubits))
        assert streams.pair_list[pair_id] == nodes
    assert streams.num_single + streams.num_two_total + streams.num_measure \
        <= circuit.num_gates
    assert streams.num_two_total - streams.num_local_two == len(remote)


def test_lower_cell_requires_lookup_for_adaptive():
    from repro.exceptions import RuntimeSimulationError

    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "adapt_buf")
    with pytest.raises(RuntimeSimulationError):
        lower_cell(cell.program, cell.architecture, get_design("adapt_buf"),
                   lookup=None)


def test_segment_streams_tile_the_circuit():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("QAOA-r2-16", "init_buf")
    total = sum(
        segment.variants["original"].num_gates
        for segment in cell.streams.segments
    )
    assert total == cell.program.circuit.num_gates
    ids = cell.streams.flat.segment_ids
    assert int(ids.min()) == 0
    assert int(ids.max()) == len(cell.streams.segments) - 1
    assert all(ids[i] <= ids[i + 1] for i in range(len(ids) - 1))


# ---------------------------------------------------------------------------
# REPRO_EXEC selection
# ---------------------------------------------------------------------------
def test_execution_mode_resolution(monkeypatch):
    monkeypatch.delenv(EXEC_ENV_VAR, raising=False)
    assert execution_mode() == BATCHED
    monkeypatch.setenv(EXEC_ENV_VAR, "legacy")
    assert execution_mode() == LEGACY
    assert execution_mode("batched") == BATCHED  # override wins
    monkeypatch.setenv(EXEC_ENV_VAR, "warp-drive")
    with pytest.raises(ConfigurationError):
        execution_mode()


def test_execution_mode_env_rejects_vector(monkeypatch):
    # "vector" named a deleted core; the error must list the real ones.
    monkeypatch.setenv(EXEC_ENV_VAR, "vector")
    with pytest.raises(ConfigurationError, match="available: batched, legacy"):
        execution_mode()
    with pytest.raises(ConfigurationError, match="available: batched, legacy"):
        execution_mode("vector")


def test_repro_exec_env_selects_legacy(monkeypatch):
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "async_buf")
    monkeypatch.setenv(EXEC_ENV_VAR, "legacy")
    via_env = cell.execute(seed=7)
    monkeypatch.delenv(EXEC_ENV_VAR)
    via_batched = cell.execute(seed=7)
    assert via_env == via_batched


def test_collect_trace_routes_to_legacy():
    compiler = CellCompiler(system=SystemConfig())
    cell = compiler.compile("TLIM-16", "async_buf")
    executor = cell.executor(seed=1, collect_trace=True)
    result = executor.run(cell.program, benchmark_name=cell.benchmark)
    assert executor.last_trace is not None
    assert result == cell.execute(seed=1)


# ---------------------------------------------------------------------------
# backend chunking
# ---------------------------------------------------------------------------
def test_chunk_tasks_preserves_order_and_bounds():
    compiler = CellCompiler(system=SystemConfig())
    cell_a = compiler.compile("TLIM-16", "async_buf")
    cell_b = compiler.compile("TLIM-16", "ideal")
    tasks = [ExecutionTask(cell_a, 1), ExecutionTask(cell_a, 2),
             ExecutionTask(cell_b, 1), ExecutionTask(cell_a, 3),
             ExecutionTask(cell_a, 4), ExecutionTask(cell_a, 5)]
    chunks = chunk_tasks(tasks, chunk_size=2)
    assert [(cell is cell_a, seeds) for cell, seeds in chunks] == [
        (True, [1, 2]), (False, [1]), (True, [3, 4]), (True, [5]),
    ]
    flattened = [seed for _, seeds in chunks for seed in seeds]
    assert flattened == [task.seed for task in tasks]
    with pytest.raises(ConfigurationError):
        chunk_tasks(tasks, chunk_size=0)


def test_serial_backend_handles_interleaved_cells():
    compiler = CellCompiler(system=SystemConfig())
    cell_a = compiler.compile("TLIM-16", "async_buf")
    cell_b = compiler.compile("QFT-16", "original")
    tasks = [ExecutionTask(cell_a, 1), ExecutionTask(cell_b, 1),
             ExecutionTask(cell_a, 2), ExecutionTask(cell_b, 2)]
    results = SerialBackend().execute(tasks)
    assert [r.seed for r in results] == [1, 1, 2, 2]
    assert [r.benchmark for r in results] == [
        cell_a.benchmark, cell_b.benchmark, cell_a.benchmark, cell_b.benchmark,
    ]
    assert results == [task.run() for task in tasks]


def test_process_backend_chunked_results_match_serial():
    compiler = CellCompiler(system=SystemConfig())
    cells = [compiler.compile("TLIM-16", design)
             for design in ("original", "async_buf", "adapt_buf")]
    tasks = [ExecutionTask(cell, seed) for cell in cells for seed in SEEDS]
    serial = SerialBackend().execute(tasks)
    with ProcessPoolBackend(max_workers=2, chunksize=2) as backend:
        first = backend.execute(tasks)
        # Second call brings a cell the pool initializer never saw, which
        # rebuilds the pool with the accumulated cell set.
        extra = compiler.compile("QFT-16", "async_buf")
        tasks_2 = tasks + [ExecutionTask(extra, seed) for seed in SEEDS]
        second = backend.execute(tasks_2)
    assert first == serial
    assert second[:len(tasks)] == serial
    assert second[len(tasks):] == SerialBackend().execute(
        [ExecutionTask(extra, seed) for seed in SEEDS]
    )


def test_process_backend_default_workers_never_one_on_multicore(monkeypatch):
    backend = ProcessPoolBackend()
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    # Every usable CPU gets a worker — never a lone worker on a multi-core
    # machine (the BENCH_engine.json 0.89x regression).
    assert backend._workers() >= 2
    if hasattr(os, "sched_getaffinity"):
        # Pinned to one CPU: a 2-worker pool would contend for it, which is
        # worse than serial; a single "worker" short-circuits to inline.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert backend._workers() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert backend._workers() == 1
    assert ProcessPoolBackend(max_workers=3)._workers() == 3


def test_get_backend_honours_repro_backend_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert isinstance(get_backend(None), SerialBackend)
    monkeypatch.setenv("REPRO_BACKEND", "process")
    backend = get_backend(None)
    assert isinstance(backend, ProcessPoolBackend)
    backend.close()
    monkeypatch.setenv("REPRO_BACKEND", "")
    assert isinstance(get_backend(None), SerialBackend)


# ---------------------------------------------------------------------------
# per-batch entanglement timeline pool
# ---------------------------------------------------------------------------
def _sharing_study():
    # Two comm-qubit counts put schedules with different ``num_pairs``
    # (besides the sync and async phasings) into one pool.
    return Study(benchmarks=["QFT-32", "QAOA-r8-32"], num_runs=4,
                 base_seed=5, axes={"comm_qubits_per_node": [4, 10]})


def test_shared_timelines_equal_fresh_generators(monkeypatch):
    # The legacy core builds fresh generators for every run; the batched
    # core shares one timeline per (schedule, psucc, seed) across the batch.
    monkeypatch.setenv(EXEC_ENV_VAR, BATCHED)
    shared = _sharing_study().run().to_json()
    monkeypatch.setenv(EXEC_ENV_VAR, LEGACY)
    fresh = _sharing_study().run().to_json()
    assert shared == fresh


def test_shared_timelines_are_growth_order_independent():
    study = _sharing_study()
    plan = study.plan()
    cells = study.compile_plan(plan)
    seeds = plan.cells[0].seeds
    forward_pool, reverse_pool = {}, {}
    forward = [cell.execute_batch(seeds, mode=BATCHED, timelines=forward_pool)
               for cell in cells]
    # Reverse plan order through one pool: a longer run grows a timeline
    # before a shorter one reads it.
    reverse = [cell.execute_batch(seeds, mode=BATCHED, timelines=reverse_pool)
               for cell in reversed(cells)][::-1]
    fresh = [cell.execute_batch(seeds, mode=BATCHED) for cell in cells]
    assert forward == reverse == fresh
    # Two phasings x two comm-qubit counts x four seeds, one node pair.
    assert len(forward_pool) == len(reverse_pool) == 2 * 2 * len(seeds)


def _track_generators(monkeypatch):
    """Weak references to every generator built from now on."""
    refs = []
    original = EntanglementGenerator.__init__

    def tracking_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(EntanglementGenerator, "__init__", tracking_init)
    return refs


@pytest.mark.parametrize("backend", [
    SerialBackend(), ProcessPoolBackend(max_workers=1),
], ids=["serial", "process-inline"])
def test_timeline_pool_lives_for_one_execute_call(monkeypatch, backend):
    monkeypatch.delenv(EXEC_ENV_VAR, raising=False)
    compiler = CellCompiler(system=SystemConfig())
    cells = [compiler.compile("TLIM-32", design) for design in list_designs()]
    seeds = [3, 4, 5]
    refs = _track_generators(monkeypatch)
    results = backend.execute(
        [ExecutionTask(cell, seed) for cell in cells for seed in seeds])
    assert len(results) == len(cells) * len(seeds)
    # A pool entry is built only on a miss, so builds count its size: one
    # generator per seed and phasing (sync, async) of the one node pair,
    # shared by every non-ideal design.
    assert len(refs) == len(seeds) * 2
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_seed_groups_collect_each_seed_range_across_cells():
    compiler = CellCompiler(system=SystemConfig())
    cell_a = compiler.compile("TLIM-16", "async_buf")
    cell_b = compiler.compile("TLIM-16", "ideal")
    tasks = [ExecutionTask(cell, seed) for cell in (cell_a, cell_b)
             for seed in (1, 2, 3, 4)]
    groups = backends._seed_groups(chunk_tasks(tasks, chunk_size=2))
    assert {seeds: [(start, cell is cell_a) for start, cell in members]
            for seeds, members in groups.items()} == {
        (1, 2): [(0, True), (4, False)],
        (3, 4): [(2, True), (6, False)],
    }


class _InlinePool:
    """Executor stand-in running each submission at once, recording it."""

    def __init__(self):
        self.payloads = []

    def submit(self, fn, payload):
        self.payloads.append(payload)
        future = Future()
        future.set_result(fn(payload))
        return future


@pytest.mark.parametrize("seeds, submissions, generators", [
    # Eight seeds, two workers: one seed range per worker, each carrying
    # every cell, so each seed's two timelines (sync, async) are drawn
    # once.
    ([1, 2, 3, 4, 5, 6, 7, 8], [(6, (1, 2, 3, 4)), (6, (5, 6, 7, 8))], 16),
    # One seed: too few ranges to busy both workers, so the range's cells
    # are split over submissions and each non-ideal cell draws its own.
    ([4], [(1, (4,))] * 6, 5),
], ids=["seed-ranges", "one-seed"])
def test_process_dispatch_submits_seed_ranges(monkeypatch, seeds,
                                              submissions, generators):
    monkeypatch.delenv(EXEC_ENV_VAR, raising=False)
    compiler = CellCompiler(system=SystemConfig())
    cells = [compiler.compile("TLIM-16", design) for design in list_designs()]
    tasks = [ExecutionTask(cell, seed) for cell in cells for seed in seeds]
    serial = SerialBackend().execute(tasks)
    pool = _InlinePool()
    monkeypatch.setattr(backends, "_WORKER_CELLS",
                        {cell.cache_key: cell for cell in cells})
    backend = ProcessPoolBackend(max_workers=2)
    monkeypatch.setattr(backend, "_ensure_pool", lambda cells: pool)
    delivered = []
    refs = _track_generators(monkeypatch)

    def sink(start, batch):
        delivered.append((start, len(batch)))

    assert backend.execute(tasks, sink=sink) == serial
    assert [(len(keys), group_seeds) for keys, group_seeds
            in pool.payloads] == submissions
    assert sorted(delivered) == [(start, len(submissions[0][1]))
                                 for start in range(0, len(tasks),
                                                    len(submissions[0][1]))]
    # Each submission drew its own seeds' timelines and freed its pool.
    assert len(refs) == generators
    gc.collect()
    assert all(ref() is None for ref in refs)


# ---------------------------------------------------------------------------
# ArtifactCache statistics (satellite)
# ---------------------------------------------------------------------------
def test_artifact_cache_hit_rate_guard_and_reset():
    cache = ArtifactCache()
    assert cache.hit_rate == 0.0
    assert cache.stats() == {
        "entries": 0, "hits": 0, "misses": 0, "lookups": 0, "hit_rate": 0.0,
    }
    assert cache.get("cell", "missing") is None
    cache.put("cell", "k", object())
    assert cache.get("cell", "k") is not None
    assert cache.stats()["lookups"] == 2
    assert cache.hit_rate == 0.5
    cache.reset_stats()
    assert cache.stats() == {
        "entries": 1, "hits": 0, "misses": 0, "lookups": 0, "hit_rate": 0.0,
    }


# ---------------------------------------------------------------------------
# bulk sampling (vectorized generator)
# ---------------------------------------------------------------------------
def test_block_sampling_matches_scalar_rng_stream():
    import numpy as np

    from repro.entanglement.attempts import AttemptSchedule
    from repro.entanglement.generator import EntanglementGenerator

    schedule = AttemptSchedule(num_pairs=4)
    generator = EntanglementGenerator(schedule, success_probability=0.4,
                                      seed=11)
    for pair in range(4):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=11, spawn_key=(pair,))
        )
        scalar = [bool(rng.random() < 0.4) for _ in range(300)]
        bulk = [generator.attempt_succeeds(pair, k) for k in range(300)]
        assert bulk == scalar


def test_bulk_successes_between_matches_attempt_scan():
    from repro.entanglement.attempts import AttemptSchedule
    from repro.entanglement.generator import EntanglementGenerator

    schedule = AttemptSchedule(num_pairs=3)
    generator = EntanglementGenerator(schedule, success_probability=0.3,
                                      seed=5)
    reference = EntanglementGenerator(schedule, success_probability=0.3,
                                      seed=5)
    for start, end in [(0.0, 35.0), (10.0, 10.0), (17.3, 220.0),
                       (220.0, 221.0), (0.0, 1.0)]:
        expected = []
        for pair in range(3):
            attempt = schedule.attempt_index_completing_after(pair, start)
            while True:
                completion = schedule.attempt_completion(pair, attempt)
                if completion > end + 1e-12:
                    break
                if completion > start + 1e-12 and \
                        reference.attempt_succeeds(pair, attempt):
                    expected.append((completion, pair, attempt))
                attempt += 1
        events = generator.merged_successes_between(start, end)
        assert [(e.time, e.pair_index, e.attempt_index)
                for e in events] == sorted(expected)
