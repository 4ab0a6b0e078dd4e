"""Unit tests for attempt schedules and the stochastic EPR generator."""

import pytest

from repro.entanglement import (
    AttemptPolicy,
    AttemptSchedule,
    EntanglementGenerator,
)
from repro.exceptions import EntanglementError


class TestAttemptSchedule:
    def test_synchronous_all_pairs_aligned(self):
        schedule = AttemptSchedule(num_pairs=8, policy=AttemptPolicy.SYNCHRONOUS)
        assert {schedule.first_completion(i) for i in range(8)} == {10.0}
        assert schedule.effective_groups == 1

    def test_asynchronous_staggered_first_completions(self):
        schedule = AttemptSchedule(num_pairs=10, policy=AttemptPolicy.ASYNCHRONOUS,
                                   num_groups=10, stagger=1.0)
        completions = sorted(schedule.first_completion(i) for i in range(10))
        assert completions == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]

    def test_group_assignment_round_robin(self):
        schedule = AttemptSchedule(num_pairs=8, policy=AttemptPolicy.ASYNCHRONOUS,
                                   num_groups=4)
        assert schedule.group_of(0) == schedule.group_of(4)
        assert schedule.group_of(1) != schedule.group_of(2)

    def test_groups_capped_by_pairs(self):
        schedule = AttemptSchedule(num_pairs=3, policy=AttemptPolicy.ASYNCHRONOUS,
                                   num_groups=10)
        assert schedule.effective_groups == 3

    def test_completion_grid_period(self):
        schedule = AttemptSchedule(num_pairs=4, policy=AttemptPolicy.ASYNCHRONOUS)
        completions = [schedule.attempt_completion(2, k) for k in range(3)]
        assert completions[1] - completions[0] == pytest.approx(10.0)
        assert completions[2] - completions[1] == pytest.approx(10.0)

    def test_non_steady_state_first_cycle(self):
        schedule = AttemptSchedule(num_pairs=4, policy=AttemptPolicy.ASYNCHRONOUS,
                                   steady_state=False)
        assert min(schedule.first_completion(i) for i in range(4)) >= 10.0

    def test_index_completing_after(self):
        schedule = AttemptSchedule(num_pairs=2, policy=AttemptPolicy.SYNCHRONOUS)
        assert schedule.attempt_index_completing_after(0, 0.0) == 0
        assert schedule.attempt_index_completing_after(0, 10.0) == 1
        assert schedule.attempt_index_completing_after(0, 15.0) == 1
        index = schedule.attempt_index_completing_after(0, 25.0)
        assert schedule.attempt_completion(0, index) > 25.0

    def test_completions_between(self):
        schedule = AttemptSchedule(num_pairs=1, policy=AttemptPolicy.SYNCHRONOUS)
        assert schedule.completions_between(0, 0.0, 35.0) == [10.0, 20.0, 30.0]
        assert schedule.completions_between(0, 10.0, 20.0) == [20.0]

    def test_completion_stream(self):
        schedule = AttemptSchedule(num_pairs=1, policy=AttemptPolicy.SYNCHRONOUS)
        stream = schedule.completion_stream(0)
        assert [next(stream) for _ in range(3)] == [10.0, 20.0, 30.0]

    def test_validation(self):
        with pytest.raises(EntanglementError):
            AttemptSchedule(num_pairs=-1)
        with pytest.raises(EntanglementError):
            AttemptSchedule(num_pairs=1, cycle_time=0.0)
        schedule = AttemptSchedule(num_pairs=2)
        with pytest.raises(EntanglementError):
            schedule.offset(5)
        with pytest.raises(EntanglementError):
            schedule.completions_between(0, 5.0, 1.0)


def _attempt_scan(generator, pair, start, end):
    """Successes of one pair in ``(start, end]``, one attempt at a time.

    The scan starts at :meth:`AttemptSchedule.attempt_index_completing_after`
    (so its grid-hit rule applies) and reads outcomes through the per-pair
    ``attempt_succeeds`` query.
    """
    schedule = generator.schedule
    attempt = schedule.attempt_index_completing_after(pair, start)
    while True:
        completion = schedule.attempt_completion(pair, attempt)
        if completion > end + 1e-12:
            return
        if completion > start + 1e-12 and \
                generator.attempt_succeeds(pair, attempt):
            yield completion, pair, attempt
        attempt += 1


class TestGenerator:
    def _generator(self, policy=AttemptPolicy.SYNCHRONOUS, psucc=0.4, seed=0,
                   pairs=10):
        schedule = AttemptSchedule(num_pairs=pairs, policy=policy)
        return EntanglementGenerator(schedule, psucc, seed=seed)

    def test_outcomes_are_memoised(self):
        generator = self._generator()
        first = [generator.attempt_succeeds(0, k) for k in range(50)]
        second = [generator.attempt_succeeds(0, k) for k in range(50)]
        assert first == second

    def test_reproducible_across_instances(self):
        a = self._generator(seed=7).merged_successes_between(0, 200)
        b = self._generator(seed=7).merged_successes_between(0, 200)
        assert [(e.time, e.pair_index) for e in a] == [(e.time, e.pair_index) for e in b]

    def test_different_seeds_differ(self):
        a = self._generator(seed=1).merged_successes_between(0, 300)
        b = self._generator(seed=2).merged_successes_between(0, 300)
        assert [(e.time, e.pair_index) for e in a] != [(e.time, e.pair_index) for e in b]

    def test_empirical_rate_close_to_psucc(self):
        generator = self._generator(psucc=0.4, seed=3, pairs=10)
        events = generator.merged_successes_between(0, 2000)
        # 10 pairs * 200 attempts * 0.4 = 800 expected successes.
        assert 700 <= len(events) <= 900

    def test_unit_probability_always_succeeds(self):
        generator = self._generator(psucc=1.0)
        events = generator.merged_successes_between(0, 100)
        assert len(events) == 100
        assert [e.attempt_index for e in events if e.pair_index == 0] == \
            list(range(10))

    def test_first_success_after(self):
        generator = self._generator(psucc=1.0)
        index = generator.timeline_index(25.0 + 1e-12)
        assert (generator.times[index], generator.pairs[index]) == (30.0, 0)

    def test_merged_events_sorted(self):
        generator = self._generator(policy=AttemptPolicy.ASYNCHRONOUS, seed=5)
        events = generator.merged_successes_between(0, 500)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_merged_timeline_matches_per_pair_queries(self):
        merged = self._generator(policy=AttemptPolicy.ASYNCHRONOUS, seed=9)
        per_pair = self._generator(policy=AttemptPolicy.ASYNCHRONOUS, seed=9)
        # 20 - 1e-10 sits inside the grid-hit window of the completions at 20.
        for start, end in [(0.0, 35.0), (10.0, 10.0), (20.0 - 1e-10, 61.0),
                           (17.3, 400.0), (400.0, 401.0), (0.0, 3000.0)]:
            expected = sorted(
                event for pair in range(10)
                for event in _attempt_scan(per_pair, pair, start, end))
            assert [(e.time, e.pair_index, e.attempt_index) for e in
                    merged.merged_successes_between(start, end)] == expected

    def test_expected_rate(self):
        generator = self._generator(psucc=0.4, pairs=10)
        assert generator.expected_rate() == pytest.approx(0.4)
        assert generator.expected_wait_for_next_success() > 0

    def test_invalid_probability(self):
        schedule = AttemptSchedule(num_pairs=1)
        with pytest.raises(EntanglementError):
            EntanglementGenerator(schedule, 0.0)
        with pytest.raises(EntanglementError):
            EntanglementGenerator(schedule, 1.5)

    def test_negative_attempt_rejected(self):
        generator = self._generator()
        with pytest.raises(EntanglementError):
            generator.attempt_succeeds(0, -1)
