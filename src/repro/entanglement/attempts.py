"""Synchronous versus asynchronous entanglement-generation attempt schedules.

Each communication-qubit pair runs back-to-back generation attempts of
duration ``T_EG``.  The *synchronous* policy starts every pair at the same
phase, so successes arrive in bursts at multiples of ``T_EG``; the
*asynchronous* policy of the paper (Sec. III-C) divides the pairs into
sub-groups whose starting times are staggered by one local-gate cycle,
smoothing the arrival pattern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List

from repro.exceptions import EntanglementError

__all__ = ["AttemptPolicy", "AttemptSchedule"]


class AttemptPolicy(str, enum.Enum):
    """How communication-qubit pairs phase their generation attempts."""

    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AttemptSchedule:
    """Deterministic timing of generation attempts for a set of pairs.

    Parameters
    ----------
    num_pairs:
        Number of communication-qubit pairs attempting in parallel.
    cycle_time:
        Duration ``T_EG`` of one attempt (10 local-CNOT units in Table II).
    policy:
        Synchronous or asynchronous phasing.
    num_groups:
        Number of asynchronous sub-groups; the paper staggers groups by one
        local cycle, using ``T_EG / T_local`` groups (4 in Fig. 3).  Ignored
        for the synchronous policy.
    stagger:
        Offset between consecutive sub-groups (one local-gate time).
    start_time:
        Time at which the entanglement-generation service begins (0 unless a
        design delays it).
    steady_state:
        If ``True`` (default), the generation service is modelled as having
        run continuously *before* the program starts (Sec. III-B describes
        entanglement generation as a background service).  The first
        heralding of each sub-group then lands at its phase offset within
        the first cycle, which is exactly the smooth arrival pattern of
        Fig. 3; with ``False`` every pair starts its first attempt at
        ``start_time`` and nothing completes before one full cycle.
    """

    num_pairs: int
    cycle_time: float = 10.0
    policy: AttemptPolicy = AttemptPolicy.ASYNCHRONOUS
    num_groups: int = 10
    stagger: float = 1.0
    start_time: float = 0.0
    steady_state: bool = True

    def __post_init__(self) -> None:
        if self.num_pairs < 0:
            raise EntanglementError("number of pairs must be non-negative")
        if self.cycle_time <= 0:
            raise EntanglementError("attempt cycle time must be positive")
        if self.num_groups < 1:
            raise EntanglementError("need at least one attempt sub-group")
        if self.stagger < 0:
            raise EntanglementError("stagger must be non-negative")

    # ------------------------------------------------------------------
    def group_of(self, pair_index: int) -> int:
        """Sub-group of a communication-qubit pair."""
        self._check_pair(pair_index)
        if self.policy is AttemptPolicy.SYNCHRONOUS:
            return 0
        return pair_index % self.effective_groups

    @property
    def effective_groups(self) -> int:
        """Number of sub-groups actually used (bounded by the pair count)."""
        if self.policy is AttemptPolicy.SYNCHRONOUS:
            return 1
        return max(1, min(self.num_groups, self.num_pairs))

    def offset(self, pair_index: int) -> float:
        """Start offset of the first attempt of a pair."""
        self._check_pair(pair_index)
        if self.policy is AttemptPolicy.SYNCHRONOUS:
            return self.start_time
        return self.start_time + self.group_of(pair_index) * self.stagger

    def first_completion(self, pair_index: int) -> float:
        """Heralding time of the first attempt completing after ``start_time``.

        In steady-state mode the first heralding of a pair lands at its phase
        offset within the first cycle (or one full cycle for phase-0 pairs);
        otherwise the first attempt starts at the pair's offset and completes
        one full cycle later.
        """
        offset = self.offset(pair_index)
        if self.steady_state:
            phase = offset - self.start_time
            if phase > 1e-12:
                return self.start_time + phase
            return self.start_time + self.cycle_time
        return offset + self.cycle_time

    def attempt_start(self, pair_index: int, attempt: int) -> float:
        """Start time of the ``attempt``-th attempt (0-based) of a pair.

        In steady-state mode the first attempt may have started before the
        program (negative times are possible by construction).
        """
        if attempt < 0:
            raise EntanglementError("attempt index must be non-negative")
        return self.attempt_completion(pair_index, attempt) - self.cycle_time

    def attempt_completion(self, pair_index: int, attempt: int) -> float:
        """Completion (heralding) time of the ``attempt``-th attempt."""
        if attempt < 0:
            raise EntanglementError("attempt index must be non-negative")
        return self.first_completion(pair_index) + attempt * self.cycle_time

    def attempt_index_completing_after(self, pair_index: int, time: float) -> int:
        """Index of the first attempt whose completion is strictly after ``time``.

        Used when a pair resumes attempting after having been blocked: the
        pair re-joins its own phase grid rather than starting an arbitrary
        new phase, which preserves the synchronous/asynchronous pattern.
        """
        first = self.first_completion(pair_index)
        if time < first - 1e-12:
            return 0
        elapsed = (time - first) / self.cycle_time
        index = int(elapsed) + 1
        # Exact grid hits: the completion at ``time`` itself does not count
        # as "after", so the next attempt index is wanted.
        if abs(elapsed - round(elapsed)) < 1e-9:
            index = int(round(elapsed)) + 1
        return index

    def completions_between(self, pair_index: int, start: float,
                            end: float) -> List[float]:
        """All attempt completion times of a pair in the interval ``(start, end]``."""
        if end < start:
            raise EntanglementError("interval end must not precede start")
        completions = []
        attempt = self.attempt_index_completing_after(pair_index, start)
        while True:
            completion = self.attempt_completion(pair_index, attempt)
            if completion > end + 1e-12:
                break
            if completion > start + 1e-12:
                completions.append(completion)
            attempt += 1
        return completions

    def completion_stream(self, pair_index: int) -> Iterator[float]:
        """Infinite iterator over the completion times of a pair's attempts."""
        attempt = 0
        while True:
            yield self.attempt_completion(pair_index, attempt)
            attempt += 1

    # ------------------------------------------------------------------
    def _check_pair(self, pair_index: int) -> None:
        if not (0 <= pair_index < max(1, self.num_pairs)):
            raise EntanglementError(
                f"pair index {pair_index} out of range for {self.num_pairs} pairs"
            )
