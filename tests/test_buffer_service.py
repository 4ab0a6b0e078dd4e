"""Unit tests for the entanglement supply service and its link buffer."""

import pytest

from repro.entanglement import (
    AttemptPolicy,
    AttemptSchedule,
    EntanglementGenerator,
    EntanglementService,
)
from repro.exceptions import BufferError, EntanglementError


def make_service(policy=AttemptPolicy.ASYNCHRONOUS, capacity=10, psucc=0.4,
                 seed=0, prefill=0, pairs=10, **kwargs):
    schedule = AttemptSchedule(num_pairs=pairs, policy=policy)
    generator = EntanglementGenerator(schedule, psucc, seed=seed)
    return EntanglementService(generator, buffer_capacity=capacity, kappa=0.002,
                               prefill=prefill, **kwargs)


def make_clock(capacity, **kwargs):
    """One pair succeeding every attempt: links created at 10, 20, 30, ...

    and buffered one swap latency (1.0) later.
    """
    return make_service(policy=AttemptPolicy.SYNCHRONOUS, capacity=capacity,
                        psucc=1.0, pairs=1, **kwargs)


class TestBufferPool:
    """The service's link buffer, driven through the service."""

    def test_store_and_consume(self):
        service = make_clock(capacity=2)
        assert service.count_available(10.5) == 0
        assert service.count_available(11.0) == 1
        assert service.acquire(15.0) == (15.0, 10.0)
        assert service.statistics.consumed_from_buffer == 1

    def test_zero_capacity_rejects(self):
        service = make_clock(capacity=0)
        assert service.count_available(35.0) == 0
        assert service.statistics.generated_total == 3
        assert service.statistics.wasted_total == 3

    def test_replace_oldest_when_full(self):
        service = make_clock(capacity=1)
        assert service.count_available(25.0) == 1
        assert service.statistics.wasted_total == 1
        assert service.acquire(25.0) == (25.0, 20.0)

    def test_lifo_returns_freshest(self):
        service = make_clock(capacity=3)
        assert service.count_available(35.0) == 3
        assert [service.acquire(35.0)[1] for _ in range(3)] == \
            [30.0, 20.0, 10.0]

    def test_pop_without_available_raises(self):
        service = make_clock(capacity=2)
        with pytest.raises(EntanglementError):
            service.acquire(0.5, max_scan=5.0)

    def test_acquire_waits_for_swap_in_flight(self):
        service = make_clock(capacity=2)
        assert service.acquire(10.5) == (11.0, 10.0)
        assert service.statistics.consumed_from_buffer == 1
        assert service.statistics.consumed_direct == 0

    def test_cutoff_expiry(self):
        service = make_clock(capacity=4, buffer_cutoff=15.0)
        assert service.count_available(25.0) == 2
        # Buffered at 11 and 21: both stored longer than the cutoff at 37.
        assert service.count_available(37.0) == 1
        assert service.statistics.wasted_total == 2
        assert service.acquire(37.0) == (37.0, 30.0)

    def test_cutoff_expiry_on_store(self):
        # The link buffered at 11.5 expires when the one buffered at 21.5
        # is stored, before the service reaches 21.5.
        service = make_clock(capacity=4, buffer_cutoff=9.0, swap_latency=1.5)
        assert service.count_available(20.0) == 0
        assert service.statistics.wasted_total == 1
        assert service.acquire(20.0) == (21.5, 20.0)

    def test_flush(self):
        service = make_clock(capacity=4)
        service.finalize(25.0)
        assert service.count_available(25.0) == 0
        assert service.statistics.wasted_total == 2

    def test_mean_consumed_age(self):
        service = make_clock(capacity=2)
        ages = [ready - created for ready, created in
                (service.acquire(25.0), service.acquire(25.0))]
        assert sum(ages) / len(ages) == pytest.approx(10.0)

    def test_invalid_configuration(self):
        with pytest.raises(BufferError):
            make_service(capacity=-1)
        with pytest.raises(BufferError):
            make_service(capacity=1, buffer_cutoff=0.0)


class TestEntanglementService:
    def test_buffered_acquire_is_immediate_when_stocked(self):
        service = make_service(psucc=1.0)
        ready, created = service.acquire(50.0)
        assert ready == pytest.approx(50.0)
        assert created <= 50.0

    def test_acquire_waits_when_nothing_generated_yet(self):
        service = make_service(policy=AttemptPolicy.SYNCHRONOUS, psucc=1.0)
        ready, _ = service.acquire(0.0)
        assert ready >= 10.0

    def test_acquires_are_distinct_links(self):
        service = make_service(psucc=1.0)
        for _ in range(20):
            service.acquire(100.0)
        service.finalize(100.0)
        stats = service.statistics
        assert stats.consumed_total == 20
        # Every generated link is consumed once or wasted once.
        assert stats.generated_total == stats.consumed_total + stats.wasted_total

    def test_unbuffered_waits_for_fresh_success(self):
        service = make_service(capacity=0, psucc=1.0,
                               policy=AttemptPolicy.SYNCHRONOUS)
        ready, _ = service.acquire(12.0)
        assert ready == pytest.approx(20.0)
        assert service.statistics.consumed_direct == 1

    def test_prefill_serves_at_time_zero(self):
        service = make_service(prefill=5, psucc=0.4)
        assert service.acquire(0.0) == (0.0, 0.0)

    def test_prefill_bounded_by_capacity(self):
        with pytest.raises(EntanglementError):
            make_service(capacity=2, prefill=3)

    def test_count_available_monotone_while_unconsumed(self):
        service = make_service(psucc=1.0)
        early = service.count_available(5.0)
        late = service.count_available(50.0)
        assert late >= early

    def test_consumed_links_not_counted(self):
        service = make_service(psucc=1.0)
        before = service.count_available(40.0)
        service.acquire(40.0)
        after = service.count_available(40.0)
        assert after == before - 1

    def test_waste_accounting(self):
        service = make_service(psucc=1.0, capacity=3)
        service.advance_to(500.0)
        service.finalize(500.0)
        stats = service.statistics
        assert stats.generated_total > 3
        assert stats.wasted_total == stats.generated_total
        assert stats.consumed_total == 0

    def test_prefilled_links_count_as_waste(self):
        service = make_clock(capacity=3, prefill=3)
        service.finalize(5.0)
        assert service.statistics.generated_total == 0
        assert service.statistics.wasted_total == 3

    def test_finalize_flushes_buffer(self):
        service = make_service(psucc=1.0)
        service.advance_to(100.0)
        service.finalize(100.0)
        assert service.count_available(100.0) == 0

    def test_async_waits_shorter_than_sync_when_empty(self):
        sync = make_service(policy=AttemptPolicy.SYNCHRONOUS, psucc=1.0, seed=1)
        async_service = make_service(policy=AttemptPolicy.ASYNCHRONOUS, psucc=1.0,
                                     seed=1)
        sync_ready, _ = sync.acquire(0.5)
        async_ready, _ = async_service.acquire(0.5)
        assert async_ready <= sync_ready

    def test_invalid_acquire_time(self):
        service = make_service()
        with pytest.raises(EntanglementError):
            service.acquire(-1.0)

    def test_negative_kappa_rejected(self):
        schedule = AttemptSchedule(num_pairs=1)
        generator = EntanglementGenerator(schedule, 0.5)
        with pytest.raises(EntanglementError):
            EntanglementService(generator, buffer_capacity=1, kappa=-0.1)

    def test_invalid_link_configuration(self):
        with pytest.raises(EntanglementError):
            make_service(swap_latency=-1.0)
        with pytest.raises(EntanglementError):
            make_service(prefill=-1)
        with pytest.raises(EntanglementError):
            make_service(node_pair=(2, 2))
        for fidelity in (0.0, 1.5):
            with pytest.raises(EntanglementError):
                make_service(initial_fidelity=fidelity)

    def test_node_pair_normalised(self):
        assert make_service(node_pair=(3, 1)).node_pair == (1, 3)

    def test_negative_creation_time_rejected(self):
        schedule = AttemptSchedule(num_pairs=1, start_time=-20.0)
        generator = EntanglementGenerator(schedule, 0.5)
        with pytest.raises(EntanglementError):
            EntanglementService(generator, buffer_capacity=1, kappa=0.1)
