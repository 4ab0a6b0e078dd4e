"""Stochastic heralded entanglement generation.

Combines an :class:`~repro.entanglement.attempts.AttemptSchedule` with a
Bernoulli success model: every attempt of every communication-qubit pair
succeeds independently with probability ``psucc`` (0.4 in the paper's
evaluation).  The generator exposes the successes of all pairs as one lazy,
reproducible timeline so the runtime can pull exactly as much of the future
as it needs.

Outcomes are drawn from the per-pair PRNG in *vectorized blocks* (a single
``Generator.random(n)`` call covers ``n`` attempts) rather than one Python
call per attempt.  NumPy draws the identical variate sequence whether
``random()`` is called ``n`` times or once with ``size=n``, so block
sampling is bit-identical to the historical per-attempt draws — this is
what lets the batched executor and the legacy reference executor share one
stochastic process.  All pairs draw in lockstep into one boolean
``(pair, attempt)`` array.

The successes of all pairs form one merged *timeline*: compact parallel
arrays ``times``/``pairs``/``attempts`` (``array('d')``/``array('i')``/
``array('i')``) sorted by ``(time, pair)`` and grown in doubling time
horizons.  Each growth reads the new successes of all pairs off the
outcome array at once and merges them with one ``np.lexsort``.  The
entanglement service walks the timeline with a cursor, so an advance is a
bisection plus a slice, not a scan over every pair.  Scans keep the
historical grid-hit rule: a pair's scan from ``start`` begins at
:meth:`AttemptSchedule.attempt_index_completing_after`, which skips a
completion within ``1e-9`` cycles above ``start``
(:meth:`EntanglementGenerator.grid_skips`).

The timeline is a pure function of ``(schedule, psucc, seed)`` whatever
order it grows in, and it only ever grows.  So one generator serves every
run of a backend batch with those inputs: each
:class:`~repro.entanglement.service.EntanglementService` keeps its own
cursor, delivered set and buffer, and reads the shared timeline (see
:data:`repro.runtime.resources.TimelinePool`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
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
        # Sampled state: one PRNG per pair and the outcome of every attempt
        # drawn so far, ``_outcomes[pair, attempt]``; every pair has drawn
        # the same number of attempts.  Attempts below ``_merged`` are in
        # the timeline for every pair.  (A pair-less schedule still
        # allocates one slot so out-of-range errors surface through the
        # schedule's own checks.)
        slots = max(1, schedule.num_pairs)
        self._rngs: List[Optional[np.random.Generator]] = [None] * slots
        self._outcomes = np.zeros((slots, 0), dtype=bool)
        self._merged = 0
        self._first_completion = [schedule.first_completion(pair_index)
                                  for pair_index in range(slots)]
        first = np.array(self._first_completion)
        self._first_column = first[:, None]
        self._earliest = float(first.min())
        self._latest = int(first.argmax())
        # The merged timeline: every success of every pair completing at
        # or before ``horizon``, sorted by (time, pair).
        self.times = array("d")
        self.pairs = array("i")
        self.attempts = array("i")
        self.horizon = float("-inf")
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
    def _extend(self) -> None:
        """Draw the next vectorized outcome block of every pair.

        One ``Generator.random(block)`` call consumes exactly the same
        variates as ``block`` scalar draws, so outcomes per attempt index
        are bit-identical to the per-attempt sampling this replaces.
        """
        block = min(_MAX_BLOCK, max(_MIN_BLOCK, self._outcomes.shape[1]))
        fresh = np.stack([self._rng_for(pair_index).random(block)
                          for pair_index in range(len(self._rngs))])
        self._outcomes = np.concatenate(
            (self._outcomes, fresh < self.success_probability), axis=1)

    def _ensure_attempts(self, count: int) -> None:
        """Materialise at least ``count`` attempt outcomes of every pair."""
        while self._outcomes.shape[1] < count:
            self._extend()

    def _ensure_time(self, time: float) -> None:
        """Materialise every attempt completing at or before ``time``.

        The pair with the earliest first completion needs the most
        attempts to get there.
        """
        cycle = self.schedule.cycle_time
        threshold = time + 1e-12
        drawn = self._outcomes.shape[1]
        while drawn == 0 or self._earliest + (drawn - 1) * cycle <= threshold:
            self._extend()
            drawn = self._outcomes.shape[1]

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
        self._ensure_attempts(attempt_index + 1)
        return bool(self._outcomes[pair_index, attempt_index])

    # ------------------------------------------------------------------
    # merged success timeline
    # ------------------------------------------------------------------
    def extend_timeline(self, threshold: float) -> None:
        """Grow the timeline until its horizon lies beyond ``threshold``.

        The horizon's span past the schedule start at least doubles, so a
        run costs O(log) growths.  The successes in ``(old horizon, new
        horizon]`` are read off the outcome array past the merged attempts
        (``completion = first + k * cycle``, the same float arithmetic as
        :meth:`AttemptSchedule.attempt_completion`; IEEE-754 makes each
        array element equal the scalar result bit for bit), then sorted by
        ``(time, pair)`` and appended, which keeps the whole timeline
        sorted.
        """
        origin = self.schedule.start_time
        cycle = self.schedule.cycle_time
        horizon = max(threshold + cycle,
                      origin + 2 * (self.horizon - origin))
        num_pairs = self.schedule.num_pairs
        if num_pairs:
            self._ensure_time(horizon)
            merged = self._merged
            attempts = np.arange(merged, self._outcomes.shape[1])
            completions = self._first_column + attempts * cycle
            pairs, columns = np.nonzero(
                self._outcomes[:, merged:]
                & (completions > self.horizon) & (completions <= horizon))
            times = completions[pairs, columns]
            order = np.lexsort((pairs, times))
            self.times.frombytes(times[order].tobytes())
            self.pairs.frombytes(pairs[order].astype(np.intc).tobytes())
            self.attempts.frombytes(
                attempts[columns[order]].astype(np.intc).tobytes())
            # The pair completing last settles how many attempts every
            # pair has merged.
            self._merged = merged + int(np.searchsorted(
                completions[self._latest], horizon, side="right"))
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

        A slice of the merged timeline with the boundary semantics of the
        historical per-attempt scan: each pair's scan starts at
        :meth:`AttemptSchedule.attempt_index_completing_after` and keeps
        completions ``> start + 1e-12`` and ``<= end + 1e-12``.
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
