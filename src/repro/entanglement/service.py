"""Interactive entanglement-supply simulation for one node pair.

:class:`EntanglementService` is the component the discrete-event executor
talks to.  It simulates, forward in time, the stochastic successes of the
communication-qubit pairs (via :class:`EntanglementGenerator`), stores the
resulting links in a capacity-limited :class:`BufferPool`, and serves remote
gates through :meth:`acquire`.

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

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.entanglement.buffer import BufferPool
from repro.entanglement.generator import EntanglementGenerator
from repro.entanglement.link import EntanglementLink, LinkLocation
from repro.exceptions import EntanglementError

__all__ = ["EntanglementService", "ServiceStatistics"]


@dataclass
class ServiceStatistics:
    """Counters for one node pair over one simulation run."""

    generated_total: int = 0
    consumed_from_buffer: int = 0
    consumed_direct: int = 0
    direct_consumed_age: float = 0.0

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
    kappa:
        Decoherence rate used for link-fidelity decay queries.
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
        consumption_order: str = "lifo",
        replace_oldest_when_full: bool = True,
    ) -> None:
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
        self.generator = generator
        self.buffer = BufferPool(
            buffer_capacity,
            cutoff=buffer_cutoff,
            replace_oldest_when_full=replace_oldest_when_full,
            consumption_order=consumption_order,
        )
        self.kappa = kappa
        self.initial_fidelity = initial_fidelity
        self.swap_latency = swap_latency
        self.node_pair = (min(node_pair), max(node_pair))
        self.statistics = ServiceStatistics()
        self._materialized_until = 0.0
        #: Timeline index of the first success past the materialised
        #: frontier, and the indices at or beyond it already consumed
        #: directly by :meth:`acquire`.
        self._cursor = 0
        self._delivered: set = set()
        self._prefill_links(prefill)

    # ------------------------------------------------------------------
    def _prefill_links(self, count: int) -> None:
        for index in range(count):
            link = EntanglementLink(
                node_pair=self.node_pair,
                created_time=0.0,
                initial_fidelity=self.initial_fidelity,
                pair_index=index % max(1, self.generator.schedule.num_pairs),
            )
            stored = self.buffer.store(link, 0.0)
            if not stored:  # pragma: no cover - guarded by the prefill check
                raise EntanglementError("buffer rejected a pre-filled link")

    def _new_link(self, time: float, pair_index: int) -> EntanglementLink:
        self.statistics.generated_total += 1
        return EntanglementLink(
            node_pair=self.node_pair,
            created_time=time,
            initial_fidelity=self.initial_fidelity,
            pair_index=pair_index,
        )

    # ------------------------------------------------------------------
    # forward simulation
    # ------------------------------------------------------------------
    def advance_to(self, time: float) -> None:
        """Materialise all generation successes up to ``time``.

        Successes are stored into the buffer (or wasted when it is full or
        absent).  Idempotent: advancing to an earlier time than already
        materialised is a no-op.  The successes delivered are the timeline
        entries from the cursor up to ``time + 1e-12``, less those already
        consumed directly and those the grid-hit rule drops at the old
        frontier.
        """
        start = self._materialized_until
        if time <= start + 1e-12:
            return
        generator = self.generator
        end = generator.timeline_index(time + 1e-12)
        delivered = self._delivered
        times = generator.times
        for index in range(self._cursor, end):
            if index in delivered:
                delivered.discard(index)
            elif not generator.grid_skips(index, start):
                link = self._new_link(times[index], generator.pairs[index])
                self.buffer.store(link, times[index] + self.swap_latency)
        self._cursor = end
        self._materialized_until = time
        self.buffer.expire_until(time)

    def count_available(self, time: float) -> int:
        """Number of buffered links available for consumption at ``time``."""
        self.advance_to(time)
        return self.buffer.count_available(time)

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def acquire(self, after: float,
                max_scan: float = 1e6) -> Tuple[float, EntanglementLink]:
        """Consume one link for a remote gate that becomes ready at ``after``.

        Returns ``(ready_time, link)`` where ``ready_time >= after`` is the
        time at which the link is in hand (already buffered, or freshly
        generated while the gate waits).  The link is marked consumed at
        ``ready_time``.
        """
        if after < 0:
            raise EntanglementError("acquisition time must be non-negative")
        self.advance_to(after)

        # 1. A buffered link is already waiting.
        if self.buffer.count_available(after) > 0:
            link = self.buffer.pop_available(after)
            self.statistics.consumed_from_buffer += 1
            return after, link

        # 2. A link has been generated but its buffering SWAP is still in
        #    flight (or it was stored while the service ran ahead in time):
        #    wait for the earliest such link.
        pending = [
            link.buffered_time for link in self.buffer.stored_links
            if link.buffered_time is not None and link.buffered_time > after
        ]
        if pending:
            ready = min(pending)
            link = self.buffer.pop_available(ready)
            self.statistics.consumed_from_buffer += 1
            return ready, link

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
        link = self._new_link(times[index], generator.pairs[index])
        ready = max(after, link.created_time)
        age = link.consume(ready)
        self.statistics.consumed_direct += 1
        self.statistics.direct_consumed_age += age
        return ready, link

    # ------------------------------------------------------------------
    # end-of-run accounting
    # ------------------------------------------------------------------
    def finalize(self, time: float) -> None:
        """Flush remaining buffered links at the end of the program."""
        self.advance_to(time)
        self.buffer.flush(time)

    @property
    def total_wasted(self) -> int:
        """Links generated (or pre-filled) but never consumed."""
        return self.buffer.statistics.wasted_total

    def mean_consumed_fidelity(self) -> float:
        """Mean Werner fidelity of consumed links at their consumption time.

        Derived from the recorded consumption ages and the decay law; used in
        reports and tests (higher is better, 0 if nothing was consumed).
        """
        from repro.entanglement.werner import werner_fidelity_after

        total = 0.0
        count = 0
        buffer_stats = self.buffer.statistics
        if buffer_stats.consumed_total:
            mean_age = buffer_stats.mean_consumed_age
            total += buffer_stats.consumed_total * werner_fidelity_after(
                self.initial_fidelity, mean_age, self.kappa
            )
            count += buffer_stats.consumed_total
        if self.statistics.consumed_direct:
            mean_age = (
                self.statistics.direct_consumed_age / self.statistics.consumed_direct
            )
            total += self.statistics.consumed_direct * werner_fidelity_after(
                self.initial_fidelity, mean_age, self.kappa
            )
            count += self.statistics.consumed_direct
        return total / count if count else 0.0
