"""Stochastic heralded entanglement generation.

Combines an :class:`~repro.entanglement.attempts.AttemptSchedule` with a
Bernoulli success model: every attempt of every communication-qubit pair
succeeds independently with probability ``psucc`` (0.4 in the paper's
evaluation).  The generator exposes the successes of each pair as a lazy,
reproducible stream so the runtime can pull exactly as much of the future as
it needs.

Outcomes are drawn from the per-pair PRNG in *vectorized blocks* (a single
``Generator.random(n)`` call covers ``n`` attempts) rather than one Python
call per attempt.  NumPy draws the identical variate sequence whether
``random()`` is called ``n`` times or once with ``size=n``, so block
sampling is bit-identical to the historical per-attempt draws — this is
what lets the batched executor and the legacy reference executor share one
stochastic process.  Per-pair success times are kept as sorted lists.

The successes of all pairs also form one merged *timeline*: parallel lists
``times``/``pairs``/``attempts`` sorted by ``(time, pair)`` and grown in
doubling time horizons.  The entanglement service walks it with a cursor,
so an advance is a bisection plus a slice, not a scan over every pair.
Scans keep the historical grid-hit rule: a pair's scan from ``start``
begins at :meth:`AttemptSchedule.attempt_index_completing_after`, which
skips a completion within ``1e-9`` cycles above ``start``
(:meth:`EntanglementGenerator.grid_skips`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.entanglement.attempts import AttemptSchedule
from repro.exceptions import EntanglementError

__all__ = ["GenerationEvent", "EntanglementGenerator"]

#: First vectorized outcome block per pair; subsequent blocks double up to
#: :data:`_MAX_BLOCK` so long simulations stay O(log) in RNG calls.
_MIN_BLOCK = 128
_MAX_BLOCK = 8192
#: Width, in cycles, of the window above a scan start inside which the
#: grid-hit rule of :meth:`AttemptSchedule.attempt_index_completing_after`
#: (a ``1e-9``-cycle tolerance) can drop a success; ten-fold margin.
_GRID_WINDOW = 1e-8


@dataclass(frozen=True)
class GenerationEvent:
    """One successful entanglement-generation attempt."""

    time: float
    pair_index: int
    attempt_index: int


class EntanglementGenerator:
    """Per-pair Bernoulli success process over an attempt schedule.

    Parameters
    ----------
    schedule:
        The deterministic attempt timing (sync or async phasing).
    success_probability:
        Per-attempt success probability ``psucc``.
    seed:
        Seed of the underlying PRNG; every pair gets an independent,
        reproducible sub-stream.

    Notes
    -----
    Success outcomes are drawn lazily but cached, so querying the same
    attempt twice always gives the same answer — this is what makes the
    interactive runtime simulation reproducible for a fixed seed regardless
    of the order in which the executor explores the timeline.
    """

    def __init__(self, schedule: AttemptSchedule,
                 success_probability: float = 0.4,
                 seed: int = 0) -> None:
        if not (0.0 < success_probability <= 1.0):
            raise EntanglementError("success probability must be in (0, 1]")
        self.schedule = schedule
        self.success_probability = success_probability
        self.seed = seed
        # Per-pair sampled state, indexed by pair: number of attempts drawn
        # so far, the raw outcome blocks, and the sorted success times /
        # attempt indices.  (A pair-less schedule still allocates one slot
        # so out-of-range errors surface through the schedule's own checks.)
        slots = max(1, schedule.num_pairs)
        self._rngs: List[Optional[np.random.Generator]] = [None] * slots
        self._drawn: List[int] = [0] * slots
        self._outcomes: List[List[np.ndarray]] = [[] for _ in range(slots)]
        self._success_times: List[List[float]] = [[] for _ in range(slots)]
        self._success_attempts: List[List[int]] = [[] for _ in range(slots)]
        self._first_completion = [schedule.first_completion(pair_index)
                                  for pair_index in range(slots)]
        # The merged timeline: every success of every pair completing at
        # or before ``horizon``, sorted by (time, pair); ``_merged`` counts
        # each pair's successes already in it.
        self.times: List[float] = []
        self.pairs: List[int] = []
        self.attempts: List[int] = []
        self.horizon = float("-inf")
        self._merged: List[int] = [0] * slots
        self._grid_window = _GRID_WINDOW * schedule.cycle_time

    # ------------------------------------------------------------------
    def _rng_for(self, pair_index: int) -> np.random.Generator:
        rng = self._rngs[pair_index]
        if rng is None:
            # Exactly what ``default_rng(seed_sequence)`` builds, minus
            # its dispatch overhead (one generator per seed and pair).
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=self.seed,
                                       spawn_key=(pair_index,))))
            self._rngs[pair_index] = rng
        return rng

    def _attempt_after(self, pair_index: int, time: float) -> int:
        """Inline replica of :meth:`AttemptSchedule.attempt_index_completing_after`.

        Identical float arithmetic (including the grid-hit rounding
        tolerance) on the cached first-completion time, avoiding the
        five-deep method chain in the per-query hot path.
        """
        first = self._first_completion[pair_index]
        if time < first - 1e-12:
            return 0
        elapsed = (time - first) / self.schedule.cycle_time
        if abs(elapsed - round(elapsed)) < 1e-9:
            return int(round(elapsed)) + 1
        return int(elapsed) + 1

    # ------------------------------------------------------------------
    # bulk sampling
    # ------------------------------------------------------------------
    def _extend(self, pair_index: int) -> None:
        """Draw the next vectorized outcome block of one pair.

        One ``Generator.random(block)`` call consumes exactly the same
        variates as ``block`` scalar draws, so outcomes per attempt index
        are bit-identical to the per-attempt sampling this replaces.
        Successful attempts are appended to the pair's sorted success-time
        arrays (``completion = first + k * cycle``, the same float
        arithmetic as :meth:`AttemptSchedule.attempt_completion`; IEEE-754
        makes each array element equal the scalar result bit for bit).
        """
        drawn = self._drawn[pair_index]
        block = min(_MAX_BLOCK, max(_MIN_BLOCK, drawn))
        outcomes = self._rng_for(pair_index).random(block) < self.success_probability
        self._outcomes[pair_index].append(outcomes)
        successes = np.nonzero(outcomes)[0]
        if successes.size:
            attempts = successes + drawn
            times = (self._first_completion[pair_index]
                     + attempts * self.schedule.cycle_time)
            self._success_times[pair_index].extend(times.tolist())
            self._success_attempts[pair_index].extend(attempts.tolist())
        self._drawn[pair_index] = drawn + block

    def _ensure_attempts(self, pair_index: int, count: int) -> None:
        """Materialise at least ``count`` attempt outcomes for one pair."""
        while self._drawn[pair_index] < count:
            self._extend(pair_index)

    def _ensure_time(self, pair_index: int, time: float) -> None:
        """Materialise every attempt completing at or before ``time``."""
        first = self._first_completion[pair_index]
        cycle = self.schedule.cycle_time
        threshold = time + 1e-12
        drawn = self._drawn[pair_index]
        while drawn == 0 or first + (drawn - 1) * cycle <= threshold:
            self._extend(pair_index)
            drawn = self._drawn[pair_index]

    def _check_pair(self, pair_index: int) -> None:
        if not (0 <= pair_index < max(1, self.schedule.num_pairs)):
            raise EntanglementError(
                f"pair index {pair_index} out of range for "
                f"{self.schedule.num_pairs} pairs"
            )

    def attempt_succeeds(self, pair_index: int, attempt_index: int) -> bool:
        """Whether the given attempt of the given pair succeeds (memoised)."""
        if attempt_index < 0:
            raise EntanglementError("attempt index must be non-negative")
        self._check_pair(pair_index)
        self._ensure_attempts(pair_index, attempt_index + 1)
        offset = attempt_index
        for block in self._outcomes[pair_index]:
            if offset < block.size:
                return bool(block[offset])
            offset -= block.size
        raise EntanglementError(  # pragma: no cover - unreachable by design
            f"attempt {attempt_index} of pair {pair_index} not materialised"
        )

    # ------------------------------------------------------------------
    def successes_between(self, pair_index: int, start: float,
                          end: float) -> List[GenerationEvent]:
        """Successful attempts of one pair completing in ``(start, end]``.

        The interval boundaries replicate the historical per-attempt scan
        exactly: the scan starts at
        :meth:`AttemptSchedule.attempt_index_completing_after` (whose
        grid-hit tolerance can skip a completion within ``1e-9`` of
        ``start``) and keeps completions ``> start + 1e-12`` and
        ``<= end + 1e-12``.
        """
        self._check_pair(pair_index)
        if end < start:
            return []
        self._ensure_time(pair_index, end)
        first_attempt = self._attempt_after(pair_index, start)
        times = self._success_times[pair_index]
        attempts = self._success_attempts[pair_index]
        lo = bisect_left(attempts, first_attempt)
        start_bound = bisect_right(times, start + 1e-12)
        if start_bound > lo:
            lo = start_bound
        hi = bisect_right(times, end + 1e-12)
        if hi <= lo:
            return []
        return [
            GenerationEvent(times[i], pair_index, attempts[i])
            for i in range(lo, hi)
        ]

    def first_success_after(self, pair_index: int, time: float,
                            max_attempts: int = 100000) -> GenerationEvent:
        """First successful attempt of a pair completing strictly after ``time``.

        Only the ``max_attempts`` attempts following the scan start are
        considered (block sampling may have drawn further ahead, but a
        success beyond the window still raises, preserving the historical
        timeout contract).
        """
        self._check_pair(pair_index)
        first_attempt = self._attempt_after(pair_index, time)
        limit = first_attempt + max_attempts
        threshold = time + 1e-12
        while True:
            times = self._success_times[pair_index]
            attempts = self._success_attempts[pair_index]
            lo = bisect_left(attempts, first_attempt)
            lo = max(lo, bisect_right(times, threshold))
            if lo < len(times):
                if attempts[lo] < limit:
                    return GenerationEvent(times[lo], pair_index, attempts[lo])
            elif self._drawn[pair_index] < limit:
                self._extend(pair_index)
                continue
            raise EntanglementError(
                f"no success within {max_attempts} attempts (psucc too small?)"
            )

    # ------------------------------------------------------------------
    # merged success timeline
    # ------------------------------------------------------------------
    def extend_timeline(self, threshold: float) -> None:
        """Grow the timeline until its horizon lies beyond ``threshold``.

        The horizon's span past the schedule start at least doubles, so a
        run costs O(log) growths.  Each pair draws through the same
        outcome blocks as the per-pair queries, and the successes in
        ``(old horizon, new horizon]`` are appended in ``(time, pair)``
        order, which keeps the whole timeline sorted.
        """
        origin = self.schedule.start_time
        horizon = max(threshold + self.schedule.cycle_time,
                      origin + 2 * (self.horizon - origin))
        batch = []
        for pair_index in range(self.schedule.num_pairs):
            self._ensure_time(pair_index, horizon)
            times = self._success_times[pair_index]
            lo = self._merged[pair_index]
            hi = bisect_right(times, horizon, lo)
            batch.extend(zip(times[lo:hi], [pair_index] * (hi - lo),
                             self._success_attempts[pair_index][lo:hi]))
            self._merged[pair_index] = hi
        if batch:
            batch.sort()
            times, pairs, attempts = zip(*batch)
            self.times.extend(times)
            self.pairs.extend(pairs)
            self.attempts.extend(attempts)
        self.horizon = horizon

    def timeline_index(self, threshold: float) -> int:
        """Number of timeline successes completing at or before ``threshold``.

        Grows the timeline first if ``threshold`` reaches its horizon, so
        the answer is final: later growth only appends later successes.
        """
        if threshold >= self.horizon:
            self.extend_timeline(threshold)
        return bisect_right(self.times, threshold)

    def grid_skips(self, index: int, start: float) -> bool:
        """Whether a scan starting at ``start`` drops timeline entry ``index``.

        The historical scans start each pair at
        :meth:`AttemptSchedule.attempt_index_completing_after`, whose
        grid-hit tolerance skips a completion lying within ``1e-9`` cycles
        above ``start``.  Only entries inside that tiny window can differ
        from the plain ``> start + 1e-12`` time filter, so the attempt
        index is computed for them alone.
        """
        return (self.times[index] <= start + self._grid_window
                and self.attempts[index]
                < self._attempt_after(self.pairs[index], start))

    def merged_successes_between(self, start: float, end: float) -> List[GenerationEvent]:
        """Successes of *all* pairs in ``(start, end]``, in ``(time, pair)`` order.

        A slice of the merged timeline with the boundary semantics of
        :meth:`successes_between`.
        """
        if end < start:
            return []
        lo = self.timeline_index(start + 1e-12)
        hi = self.timeline_index(end + 1e-12)
        return [
            GenerationEvent(self.times[i], self.pairs[i], self.attempts[i])
            for i in range(lo, hi) if not self.grid_skips(i, start)
        ]

    # ------------------------------------------------------------------
    def expected_rate(self) -> float:
        """Expected number of successes per time unit across all pairs."""
        return (
            self.schedule.num_pairs
            * self.success_probability
            / self.schedule.cycle_time
        )

    def expected_wait_for_next_success(self) -> float:
        """Mean waiting time for the next success from a random instant.

        With ``n`` pairs attempting continuously, successes form an
        approximately periodic thinned process of rate
        ``n * psucc / T_EG``; the mean residual waiting time is roughly half
        an inter-arrival period plus half a cycle of heralding alignment.
        Used only for analytical sanity checks and examples.
        """
        rate = self.expected_rate()
        if rate == 0:
            return float("inf")
        return 0.5 / rate + 0.5 * self.schedule.cycle_time / max(
            1, self.schedule.effective_groups
        )
