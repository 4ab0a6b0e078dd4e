"""Trajectory-batched execution of compiled gate streams.

:class:`BatchedExecutor` is the fast execution core behind the engine: it
replays a pre-lowered :class:`~repro.runtime.gatestream.CompiledStreams`
for a whole batch of seeds in one pass, sharing every per-cell artifact
(gate arrays, static gate counts, segment metadata, the schedule lookup
table) across the batch.  Only the entanglement process is stochastic, so
the per-seed replay touches plain floats and the entanglement services —
never ``Gate`` objects, latency tables, or circuit walks.  Given a
backend's timeline pool, runs of every cell with the same seed and attempt
schedule read one shared success timeline.

Results are **bit-identical** to the legacy
:class:`~repro.runtime.executor.DesignExecutor` for the same seed: both
cores drive the same :class:`~repro.runtime.resources.EntanglementDirectory`
(whose generators draw identical variate streams, see
:mod:`repro.entanglement.generator`), apply the same float arithmetic in the
same order for gate timing, and call the same fidelity model.  The legacy
executor remains selectable with ``REPRO_EXEC=legacy`` as the reference
implementation; ``tests/test_batched.py`` pins the equivalence across every
design, topology, and the adaptive scheduling path.

The ideal (monolithic) design is deterministic per cell, so a seed batch
simulates it once and stamps per-seed results from the shared outcome.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.entanglement.werner import werner_fidelity_after
from repro.hardware.architecture import DQCArchitecture
from repro.noise.fidelity import FidelityModel
from repro.partitioning.assigner import DistributedProgram
from repro.runtime.designs import DesignSpec, get_design
from repro.runtime.executor import build_program_lookup, validate_program_capacity
from repro.runtime.gatestream import (
    OP_LOCAL_2Q,
    OP_REMOTE,
    CompiledStreams,
    GateStream,
    lower_cell,
)
from repro.runtime.metrics import ExecutionResult, RemoteGateRecord
from repro.runtime.resources import EntanglementDirectory, TimelinePool
from repro.scheduling.lookup import ScheduleLookupTable
from repro.scheduling.policies import AdaptivePolicy
from repro.scheduling.variants import SchedulingVariant

__all__ = ["BatchedExecutor", "execute_batch"]


class BatchedExecutor:
    """Replays compiled gate streams for batches of seeds.

    Parameters mirror :class:`~repro.runtime.executor.DesignExecutor` minus
    the per-run ``seed`` (seeds are batch inputs) and ``collect_trace``
    (tracing stays a legacy-executor feature); ``streams`` accepts the
    compiler's pre-lowered arrays and is rebuilt on the fly when absent, so
    the executor also works stand-alone.
    """

    def __init__(
        self,
        architecture: DQCArchitecture,
        design,
        fidelity_model: Optional[FidelityModel] = None,
        segment_length: Optional[int] = None,
        adaptive_policy: Optional[AdaptivePolicy] = None,
        lookup: Optional[ScheduleLookupTable] = None,
        streams: Optional[CompiledStreams] = None,
    ) -> None:
        self.architecture = architecture
        self.design: DesignSpec = (
            design if isinstance(design, DesignSpec) else get_design(design)
        )
        self.fidelity_model = fidelity_model or FidelityModel(
            fidelities=architecture.fidelities,
            kappa=architecture.decoherence_rate,
        )
        self.segment_length = segment_length
        self.adaptive_policy = adaptive_policy or AdaptivePolicy()
        self.lookup = lookup
        self.streams = streams

    # ------------------------------------------------------------------
    def run_batch(self, program: DistributedProgram, seeds: Sequence[int],
                  benchmark_name: Optional[str] = None,
                  timelines: Optional[TimelinePool] = None,
                  ) -> List[ExecutionResult]:
        """Replay the program under every seed; results in seed order.

        ``timelines`` is the backend's per-batch generator pool, shared by
        every cell of the batch; without one each run builds its own.
        """
        benchmark_name = benchmark_name or program.name
        self._validate_capacity(program)
        seeds = list(seeds)
        if not seeds:
            return []

        if self.design.ideal:
            streams = self._streams_for(program)
            return self._run_ideal_batch(streams, benchmark_name, seeds)

        lookup = None
        if self.design.adaptive_scheduling:
            lookup = self.lookup if self.lookup is not None else (
                self._build_lookup(program)
            )
        streams = self._streams_for(program, lookup)
        return [
            self._run_one(program, streams, lookup, benchmark_name, seed,
                          timelines)
            for seed in seeds
        ]

    # ------------------------------------------------------------------
    # stochastic (distributed) replay
    # ------------------------------------------------------------------
    def _run_one(self, program: DistributedProgram, streams: CompiledStreams,
                 lookup: Optional[ScheduleLookupTable], benchmark_name: str,
                 seed: int, timelines: Optional[TimelinePool]
                 ) -> ExecutionResult:
        design = self.design
        architecture = self.architecture
        kappa = architecture.decoherence_rate
        epr_fidelity = architecture.fidelities.epr_pair
        directory = EntanglementDirectory(
            architecture,
            attempt_policy=design.attempt_policy,
            use_buffer=design.use_buffer,
            prefill=design.prefill_buffers,
            buffer_cutoff=design.buffer_cutoff,
            seed=seed,
            async_groups=design.async_groups,
            timelines=timelines,
        )

        num_qubits = program.num_qubits
        avail = [0.0] * num_qubits
        busy = [0.0] * num_qubits
        first_use: List[Optional[float]] = [None] * num_qubits
        remote_records: List[RemoteGateRecord] = []
        services = [None] * len(streams.pair_list)
        remote_latency = streams.remote_latency
        gate_counter = 0

        def play(stream: GateStream) -> None:
            nonlocal gate_counter
            for op, a, b, duration, pair_id in stream.rows():
                if op == OP_REMOTE:
                    time_a = avail[a]
                    time_b = avail[b]
                    ready = time_a if time_a >= time_b else time_b
                    service = services[pair_id]
                    if service is None:
                        pair = streams.pair_list[pair_id]
                        service = directory.service(pair[0], pair[1])
                        services[pair_id] = service
                    start, created = service.acquire(ready)
                    finish = start + remote_latency
                    avail[a] = finish
                    avail[b] = finish
                    busy[a] += remote_latency
                    busy[b] += remote_latency
                    if first_use[a] is None:
                        first_use[a] = start
                    if first_use[b] is None:
                        first_use[b] = start
                    remote_records.append(RemoteGateRecord(
                        gate_index=gate_counter,
                        ready_time=ready,
                        start_time=start,
                        finish_time=finish,
                        link_created_time=created,
                        link_fidelity=werner_fidelity_after(
                            epr_fidelity, max(0.0, start - created), kappa),
                    ))
                elif op == OP_LOCAL_2Q:
                    time_a = avail[a]
                    time_b = avail[b]
                    start = time_a if time_a >= time_b else time_b
                    finish = start + duration
                    avail[a] = finish
                    avail[b] = finish
                    busy[a] += duration
                    busy[b] += duration
                    if first_use[a] is None:
                        first_use[a] = start
                    if first_use[b] is None:
                        first_use[b] = start
                else:
                    start = avail[a]
                    avail[a] = start + duration
                    busy[a] += duration
                    if first_use[a] is None:
                        first_use[a] = start
                gate_counter += 1

        if lookup is not None:
            lookup.reset_decisions()
            for segment in streams.segments:
                if segment.qubits:
                    decision_time = min(avail[q] for q in segment.qubits)
                else:
                    decision_time = max(avail)
                if segment.node_pairs:
                    available = sum(
                        directory.count_available(a, b, decision_time)
                        for a, b in segment.node_pairs
                    )
                    chosen = lookup.select_name(segment.index, available,
                                                decision_time)
                else:
                    chosen = SchedulingVariant.ORIGINAL
                play(segment.variants[chosen])
        else:
            play(streams.flat)

        makespan = max(avail)
        directory.finalize(makespan)

        idle_total = 0.0
        for qubit in range(num_qubits):
            first = first_use[qubit]
            if first is None:
                continue
            span = makespan - first
            if span < 0.0:
                span = 0.0
            idle = span - busy[qubit]
            if idle > 0.0:
                idle_total += idle

        breakdown = self.fidelity_model.estimate(
            num_single_qubit=streams.num_single,
            num_local_two_qubit=streams.num_local_two,
            remote_link_fidelities=[
                record.link_fidelity for record in remote_records
            ],
            makespan=makespan,
            num_measurements=streams.num_measure,
            qubit_idle_total=idle_total,
        )
        return ExecutionResult(
            design=design.name,
            benchmark=benchmark_name,
            seed=seed,
            makespan=makespan,
            fidelity=breakdown.total,
            fidelity_breakdown=breakdown,
            num_single_qubit=streams.num_single,
            num_local_two_qubit=streams.num_local_two,
            num_remote=len(remote_records),
            num_measurements=streams.num_measure,
            qubit_idle_total=idle_total,
            remote_records=remote_records,
            epr_statistics=directory.aggregate_statistics(),
            variant_histogram=(lookup.variant_histogram() if lookup else {}),
        )

    # ------------------------------------------------------------------
    # deterministic (ideal) replay
    # ------------------------------------------------------------------
    def _run_ideal_batch(self, streams: CompiledStreams, benchmark_name: str,
                         seeds: Sequence[int]) -> List[ExecutionResult]:
        stream = streams.flat
        num_qubits = stream.num_qubits
        avail = [0.0] * num_qubits
        busy = [0.0] * num_qubits
        first_use: List[Optional[float]] = [None] * num_qubits
        for op, a, b, duration, _pair in stream.rows():
            if op == OP_LOCAL_2Q:
                time_a = avail[a]
                time_b = avail[b]
                start = time_a if time_a >= time_b else time_b
                finish = start + duration
                avail[a] = finish
                avail[b] = finish
                busy[a] += duration
                busy[b] += duration
                if first_use[a] is None:
                    first_use[a] = start
                if first_use[b] is None:
                    first_use[b] = start
            else:
                start = avail[a]
                avail[a] = start + duration
                busy[a] += duration
                if first_use[a] is None:
                    first_use[a] = start

        makespan = max(avail)
        idle_total = 0.0
        for qubit in range(num_qubits):
            first = first_use[qubit]
            if first is None:
                continue
            span = makespan - first
            if span < 0.0:
                span = 0.0
            idle = span - busy[qubit]
            if idle > 0.0:
                idle_total += idle

        breakdown = self.fidelity_model.estimate(
            num_single_qubit=streams.num_single,
            num_local_two_qubit=streams.num_two_total,
            remote_link_fidelities=[],
            makespan=makespan,
            num_measurements=streams.num_measure,
            qubit_idle_total=idle_total,
        )
        return [
            ExecutionResult(
                design=self.design.name,
                benchmark=benchmark_name,
                seed=seed,
                makespan=makespan,
                fidelity=breakdown.total,
                fidelity_breakdown=replace(breakdown),
                num_single_qubit=streams.num_single,
                num_local_two_qubit=streams.num_two_total,
                num_remote=0,
                num_measurements=streams.num_measure,
                qubit_idle_total=idle_total,
            )
            for seed in seeds
        ]

    # ------------------------------------------------------------------
    # lowering / validation helpers
    # ------------------------------------------------------------------
    def _streams_for(self, program: DistributedProgram,
                     lookup: Optional[ScheduleLookupTable] = None
                     ) -> CompiledStreams:
        if self.streams is not None:
            return self.streams
        return lower_cell(program, self.architecture, self.design,
                          lookup=lookup)

    def _build_lookup(self, program: DistributedProgram) -> ScheduleLookupTable:
        """Stand-alone lookup build, shared with the legacy reference."""
        return build_program_lookup(self.architecture, program,
                                    segment_length=self.segment_length,
                                    policy=self.adaptive_policy)

    def _validate_capacity(self, program: DistributedProgram) -> None:
        validate_program_capacity(self.architecture, program)


def execute_batch(
    program: DistributedProgram,
    architecture: DQCArchitecture,
    design,
    seeds: Sequence[int],
    **kwargs,
) -> List[ExecutionResult]:
    """Convenience wrapper: build a batched executor and replay one batch."""
    executor = BatchedExecutor(architecture, design, **kwargs)
    return executor.run_batch(program, seeds)
