"""Interactive entanglement-supply simulation for one node pair.

:class:`EntanglementService` is the component the discrete-event executor
talks to.  It simulates, forward in time, the stochastic successes of the
communication-qubit pairs (via :class:`EntanglementGenerator`), stores the
resulting links in a capacity-limited buffer, and serves remote gates
through :meth:`acquire`.

The buffer is two parallel lists, oldest first: the creation time and the
buffered time of each stored link.  Successes come off the sorted
timeline and pre-filled links are created and buffered at time 0, so both
lists stay sorted: the links available at ``t`` are a prefix found by
bisection, the freshest of them is the last one, and a full buffer or the
storage cutoff drops links from the head.

Design variants map onto service configurations:

* ``original`` — ``buffer_capacity = 0``: links cannot be stored, so a
  success is only useful if a remote gate is already waiting (on-demand
  consumption straight from the communication qubits); all other successes
  are wasted.
* ``sync_buf`` / ``async_buf`` — positive buffer capacity with synchronous or
  asynchronous attempt phasing; successes are swapped into buffer qubits and
  wait for remote gates.
* ``init_buf`` — same, but the buffer starts pre-filled with EPR pairs
  generated before program start.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.entanglement.generator import EntanglementGenerator
from repro.exceptions import BufferError, EntanglementError

__all__ = ["EntanglementService", "ServiceStatistics"]


@dataclass
class ServiceStatistics:
    """Counters for one node pair over one simulation run."""

    generated_total: int = 0
    consumed_from_buffer: int = 0
    consumed_direct: int = 0
    #: Links generated (or pre-filled) but never consumed: displaced from
    #: a full buffer, dropped by a zero-capacity one, expired by the
    #: cutoff, or flushed at the end of the run.
    wasted_total: int = 0

    @property
    def consumed_total(self) -> int:
        """Total links consumed by remote gates."""
        return self.consumed_from_buffer + self.consumed_direct


class EntanglementService:
    """EPR-pair supply between two nodes, driven forward in time.

    Parameters
    ----------
    generator:
        Stochastic success process over the attempt schedule (sync/async).
        Other runs may share it: the service only reads and grows its
        timeline and keeps every per-run position to itself.
    buffer_capacity:
        Number of links storable between the node pair (0 = no buffer).
        A link arriving at a full buffer displaces the oldest stored one.
    kappa:
        Decoherence rate of the stored links.
    initial_fidelity:
        Werner fidelity of freshly generated links (Table II: 0.99).
    swap_latency:
        Latency of the local SWAP that moves a fresh link into the buffer.
    buffer_cutoff:
        Optional storage cutoff after which buffered links are discarded.
    prefill:
        Number of pre-generated links placed in the buffer at time 0
        (``init_buf`` design).
    node_pair:
        The two node indices this service connects.

    Notes
    -----
    The service must be driven with non-decreasing times: the executor's
    event loop guarantees that ``acquire`` and ``count_available`` are called
    in chronological order.
    """

    def __init__(
        self,
        generator: EntanglementGenerator,
        buffer_capacity: int,
        kappa: float,
        initial_fidelity: float = 0.99,
        swap_latency: float = 1.0,
        buffer_cutoff: Optional[float] = None,
        prefill: int = 0,
        node_pair: Tuple[int, int] = (0, 1),
    ) -> None:
        if buffer_capacity < 0:
            raise BufferError("buffer capacity must be non-negative")
        if buffer_cutoff is not None and buffer_cutoff <= 0:
            raise BufferError("buffer cutoff must be positive when given")
        if kappa < 0:
            raise EntanglementError("decoherence rate must be non-negative")
        if swap_latency < 0:
            raise EntanglementError("swap latency must be non-negative")
        if prefill < 0:
            raise EntanglementError("prefill count must be non-negative")
        if prefill > buffer_capacity:
            raise EntanglementError(
                "cannot pre-fill more links than the buffer capacity"
            )
        if node_pair[0] == node_pair[1]:
            raise EntanglementError("a link must connect two different nodes")
        if not (0.0 < initial_fidelity <= 1.0):
            raise EntanglementError("initial fidelity must be in (0, 1]")
        schedule = generator.schedule
        # Every success completes at or after its pair's first completion.
        if any(schedule.first_completion(pair) < 0
               for pair in range(schedule.num_pairs)):
            raise EntanglementError("creation time must be non-negative")
        self.generator = generator
        self.buffer_capacity = buffer_capacity
        self.buffer_cutoff = buffer_cutoff
        self.kappa = kappa
        self.initial_fidelity = initial_fidelity
        self.swap_latency = swap_latency
        self.node_pair = (min(node_pair), max(node_pair))
        self.statistics = ServiceStatistics()
        #: The buffer, oldest first: creation and buffered time per link.
        self._created: List[float] = [0.0] * prefill
        self._buffered: List[float] = [0.0] * prefill
        self._materialized_until = 0.0
        #: Timeline index of the first success past the materialised
        #: frontier, and the indices at or beyond it already consumed
        #: directly by :meth:`acquire`.
        self._cursor = 0
        self._delivered: set = set()

    # ------------------------------------------------------------------
    # forward simulation
    # ------------------------------------------------------------------
    def advance_to(self, time: float) -> None:
        """Materialise all generation successes up to ``time``.

        Successes are stored into the buffer (or wasted when it is absent;
        a full buffer drops its oldest link instead).  Idempotent: advancing
        to an earlier time than already materialised is a no-op.  The
        successes delivered are the timeline entries from the cursor up to
        ``time + 1e-12``, less those already consumed directly and those the
        grid-hit rule drops at the old frontier.
        """
        start = self._materialized_until
        if time <= start + 1e-12:
            return
        generator = self.generator
        end = generator.timeline_index(time + 1e-12)
        delivered = self._delivered
        times = generator.times
        created = self._created
        buffered = self._buffered
        capacity = self.buffer_capacity
        cutoff = self.buffer_cutoff
        swap_latency = self.swap_latency
        statistics = self.statistics
        for index in range(self._cursor, end):
            if index in delivered:
                delivered.discard(index)
                continue
            if generator.grid_skips(index, start):
                continue
            statistics.generated_total += 1
            created_time = times[index]
            buffered_time = created_time + swap_latency
            if cutoff is not None:
                self._expire(buffered_time)
            if len(created) >= capacity:
                statistics.wasted_total += 1
                if not capacity:
                    continue
                del created[0]
                del buffered[0]
            created.append(created_time)
            buffered.append(buffered_time)
        self._cursor = end
        self._materialized_until = time
        if cutoff is not None:
            self._expire(time)

    def _expire(self, time: float) -> None:
        """Drop the links stored longer than the cutoff at ``time``."""
        buffered = self._buffered
        limit = self.buffer_cutoff + 1e-12
        count = 0
        while count < len(buffered) and time - buffered[count] > limit:
            count += 1
        if count:
            del self._created[:count]
            del buffered[:count]
            self.statistics.wasted_total += count

    def count_available(self, time: float) -> int:
        """Number of buffered links available for consumption at ``time``."""
        self.advance_to(time)
        return bisect_right(self._buffered, time + 1e-12)

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def acquire(self, after: float,
                max_scan: float = 1e6) -> Tuple[float, float]:
        """Consume one link for a remote gate that becomes ready at ``after``.

        Returns ``(ready_time, created_time)``: ``ready_time >= after`` is
        the time at which the link is in hand (already buffered, or freshly
        generated while the gate waits), ``created_time`` the time its
        generation succeeded, from which its fidelity at consumption
        follows.
        """
        if after < 0:
            raise EntanglementError("acquisition time must be non-negative")
        self.advance_to(after)
        buffered = self._buffered
        if self.buffer_cutoff is not None:
            self._expire(after)
        # 1. A buffered link is already waiting: take the freshest.
        ready = after
        available = bisect_right(buffered, after + 1e-12)
        if not available and buffered:
            # 2. A link has been generated but its buffering SWAP is still
            #    in flight (or it was stored while the service ran ahead in
            #    time): wait for the earliest such link, then take the
            #    freshest link available by then.
            ready = buffered[0]
            available = bisect_right(buffered, ready + 1e-12)
        if available:
            del buffered[available - 1]
            self.statistics.consumed_from_buffer += 1
            return ready, self._created.pop(available - 1)

        # 3. Wait for the next fresh success (consumed directly from the
        #    communication qubits, no buffering SWAP needed): the earliest
        #    undelivered timeline entry after the scan start.
        scan_start = max(after, self._materialized_until)
        horizon = scan_start + max_scan
        generator = self.generator
        times = generator.times
        index = generator.timeline_index(scan_start + 1e-12)
        while (index == len(times) or index in self._delivered
               or generator.grid_skips(index, scan_start)):
            if index < len(times):
                index += 1
            elif generator.horizon > horizon + 1e-12:
                break
            else:
                generator.extend_timeline(generator.horizon)
        if index == len(times) or times[index] > horizon + 1e-12:
            raise EntanglementError(
                f"no entanglement success found within {max_scan} time units"
            )
        self._delivered.add(index)
        created_time = times[index]
        self.statistics.generated_total += 1
        self.statistics.consumed_direct += 1
        return max(after, created_time), created_time

    # ------------------------------------------------------------------
    # end-of-run accounting
    # ------------------------------------------------------------------
    def finalize(self, time: float) -> None:
        """Flush remaining buffered links at the end of the program."""
        self.advance_to(time)
        self.statistics.wasted_total += len(self._buffered)
        self._created.clear()
        self._buffered.clear()
