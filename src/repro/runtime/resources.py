"""Execution-time resource tracking.

Two trackers back the executors:

* :class:`DataQubitTracker` — per-data-qubit availability and busy/idle
  accounting.  Data qubits within a node are fully connected (paper
  evaluation setting), so availability is the only constraint on local gates.
* :class:`EntanglementDirectory` — one
  :class:`~repro.entanglement.service.EntanglementService` per connected node
  pair, created from the architecture and the design configuration.  Its
  generators come from a :data:`TimelinePool`: a backend passes one pool to
  every run of a batch, so runs with the same seed and attempt schedule
  share one (pure, grow-only) success timeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.entanglement.attempts import AttemptPolicy, AttemptSchedule
from repro.entanglement.generator import EntanglementGenerator
from repro.entanglement.service import EntanglementService
from repro.hardware.architecture import DQCArchitecture
from repro.exceptions import RuntimeSimulationError

__all__ = [
    "DataQubitTracker",
    "EntanglementDirectory",
    "TimelinePool",
]

NodePair = Tuple[int, int]

#: Generators keyed by ``(schedule, success_probability, generator_seed)``,
#: the inputs an :class:`EntanglementGenerator` is a pure function of.
TimelinePool = Dict[Tuple[AttemptSchedule, float, int], EntanglementGenerator]


class DataQubitTracker:
    """Tracks when each data (program) qubit becomes free.

    Qubits are identified by their *program* index (the circuit qubit), not
    by physical location; the mapping to nodes is carried by the
    :class:`~repro.partitioning.assigner.DistributedProgram`.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise RuntimeSimulationError("tracker needs at least one qubit")
        self.num_qubits = num_qubits
        self._available = [0.0] * num_qubits
        self._busy = [0.0] * num_qubits
        self._first_use: List[Optional[float]] = [None] * num_qubits
        self._last_release = [0.0] * num_qubits

    # ------------------------------------------------------------------
    def available_time(self, qubit: int) -> float:
        """Earliest time the qubit is free."""
        self._check(qubit)
        return self._available[qubit]

    def earliest_start(self, qubits) -> float:
        """Earliest common start time for a gate on ``qubits``."""
        return max((self.available_time(q) for q in qubits), default=0.0)

    def occupy(self, qubits, start: float, duration: float) -> float:
        """Mark ``qubits`` busy from ``start`` for ``duration``; returns finish."""
        if duration < 0:
            raise RuntimeSimulationError("gate duration must be non-negative")
        for qubit in qubits:
            self._check(qubit)
            if start < self._available[qubit] - 1e-9:
                raise RuntimeSimulationError(
                    f"qubit {qubit} is busy until {self._available[qubit]}, "
                    f"cannot start at {start}"
                )
        finish = start + duration
        for qubit in qubits:
            if self._first_use[qubit] is None:
                self._first_use[qubit] = start
            self._available[qubit] = finish
            self._busy[qubit] += duration
            self._last_release[qubit] = finish
        return finish

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Latest qubit release time (total circuit latency so far)."""
        return max(self._available, default=0.0)

    def busy_time(self, qubit: int) -> float:
        """Total time the qubit spent executing gates."""
        self._check(qubit)
        return self._busy[qubit]

    def idle_time(self, qubit: int, horizon: Optional[float] = None) -> float:
        """Idle time of an *initialised* qubit up to ``horizon``.

        A qubit is considered initialised from its first use; idle time is
        the span from first use to ``horizon`` (default: the makespan) minus
        its busy time.  Unused qubits contribute zero.
        """
        self._check(qubit)
        if self._first_use[qubit] is None:
            return 0.0
        end = self.makespan if horizon is None else horizon
        span = max(0.0, end - self._first_use[qubit])
        return max(0.0, span - self._busy[qubit])

    def total_idle_time(self, horizon: Optional[float] = None) -> float:
        """Sum of idle times over all qubits."""
        return sum(self.idle_time(q, horizon) for q in range(self.num_qubits))

    def utilisation(self) -> float:
        """Mean busy fraction of qubits that were used at least once."""
        makespan = self.makespan
        if makespan <= 0:
            return 0.0
        used = [q for q in range(self.num_qubits) if self._first_use[q] is not None]
        if not used:
            return 0.0
        return sum(self._busy[q] for q in used) / (makespan * len(used))

    def _check(self, qubit: int) -> None:
        if not (0 <= qubit < self.num_qubits):
            raise RuntimeSimulationError(f"qubit index {qubit} out of range")


class EntanglementDirectory:
    """One entanglement service per connected node pair.

    Parameters
    ----------
    architecture:
        The hardware description (node counts, Table II parameters).
    attempt_policy:
        Synchronous or asynchronous attempt phasing.
    use_buffer:
        Whether generated links can be stored (False reproduces ``original``).
    prefill:
        Whether buffers start full (``init_buf``).
    buffer_cutoff:
        Optional storage cutoff for buffered links.
    seed:
        Base seed; every node pair derives an independent sub-seed.
    timelines:
        Pool to take generators from and add new ones to; a private, empty
        pool when omitted (the legacy executor's fresh generators).
    """

    def __init__(
        self,
        architecture: DQCArchitecture,
        attempt_policy: AttemptPolicy = AttemptPolicy.ASYNCHRONOUS,
        use_buffer: bool = True,
        prefill: bool = False,
        buffer_cutoff: Optional[float] = None,
        seed: int = 0,
        async_groups: Optional[int] = None,
        timelines: Optional[TimelinePool] = None,
    ) -> None:
        self.architecture = architecture
        self.attempt_policy = attempt_policy
        self.use_buffer = use_buffer
        self.prefill = prefill
        self.buffer_cutoff = buffer_cutoff
        self.seed = seed
        self.async_groups = async_groups
        self._timelines: TimelinePool = {} if timelines is None else timelines
        self._services: Dict[NodePair, EntanglementService] = {}

    # ------------------------------------------------------------------
    def service(self, node_a: int, node_b: int) -> EntanglementService:
        """The service connecting two nodes (created lazily)."""
        pair = (min(node_a, node_b), max(node_a, node_b))
        if pair not in self._services:
            self._services[pair] = self._build_service(pair)
        return self._services[pair]

    def services(self) -> Dict[NodePair, EntanglementService]:
        """All services created so far."""
        return dict(self._services)

    def _build_service(self, pair: NodePair) -> EntanglementService:
        architecture = self.architecture
        if not architecture.are_connected(*pair):
            raise RuntimeSimulationError(
                f"nodes {pair} are not connected by an interconnect link"
            )
        num_pairs = architecture.comm_pairs_between(*pair)
        if num_pairs == 0:
            raise RuntimeSimulationError(
                f"no communication qubits available between nodes {pair}"
            )
        times = architecture.gate_times
        groups = self.async_groups
        if groups is None:
            # Default: spread sub-groups over one full generation cycle,
            # staggered by one local-gate time (Fig. 3).
            groups = max(1, int(round(times.epr_generation_cycle / max(
                times.local_cnot, 1e-9))))
        schedule = AttemptSchedule(
            num_pairs=num_pairs,
            cycle_time=times.epr_generation_cycle,
            policy=self.attempt_policy,
            num_groups=groups,
            stagger=times.local_cnot,
        )
        key = (schedule, architecture.physics.epr_success_probability,
               self.seed + 1009 * (pair[0] * architecture.num_nodes + pair[1]))
        generator = self._timelines.get(key)
        if generator is None:
            generator = self._timelines[key] = EntanglementGenerator(
                schedule, success_probability=key[1], seed=key[2])
        capacity = (
            architecture.buffer_capacity_between(*pair) if self.use_buffer else 0
        )
        prefill = capacity if (self.prefill and self.use_buffer) else 0
        return EntanglementService(
            generator=generator,
            buffer_capacity=capacity,
            kappa=architecture.decoherence_rate,
            initial_fidelity=architecture.fidelities.epr_pair,
            swap_latency=times.swap,
            buffer_cutoff=self.buffer_cutoff,
            prefill=prefill,
            node_pair=pair,
        )

    # ------------------------------------------------------------------
    def count_available(self, node_a: int, node_b: int, time: float) -> int:
        """Buffered EPR pairs available between two nodes at ``time``."""
        return self.service(node_a, node_b).count_available(time)

    def finalize(self, time: float) -> None:
        """Flush all services at the end of a run."""
        for service in self._services.values():
            service.finalize(time)

    def aggregate_statistics(self) -> Dict[str, float]:
        """Summed generation / consumption / waste counters over all pairs."""
        totals = {
            "generated": 0,
            "consumed_from_buffer": 0,
            "consumed_direct": 0,
            "wasted": 0,
        }
        for service in self._services.values():
            totals["generated"] += service.statistics.generated_total
            totals["consumed_from_buffer"] += service.statistics.consumed_from_buffer
            totals["consumed_direct"] += service.statistics.consumed_direct
            totals["wasted"] += service.statistics.wasted_total
        return totals
