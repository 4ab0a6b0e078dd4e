"""Unit tests for the resource trackers, designs, and metrics."""

import pytest

from repro.entanglement import AttemptPolicy
from repro.runtime import (
    DataQubitTracker,
    DesignSpec,
    EntanglementDirectory,
    ExecutionTrace,
    GateTraceEntry,
    get_design,
    list_designs,
)
from repro.runtime.designs import DESIGN_ORDER
from repro.runtime.metrics import ExecutionResult, RemoteGateRecord
from repro.noise.fidelity import FidelityBreakdown
from repro.exceptions import ConfigurationError, RuntimeSimulationError


class TestDataQubitTracker:
    def test_occupy_and_makespan(self):
        tracker = DataQubitTracker(3)
        finish = tracker.occupy((0, 1), 0.0, 2.0)
        assert finish == 2.0
        assert tracker.earliest_start((1, 2)) == 2.0
        tracker.occupy((2,), 0.0, 1.0)
        assert tracker.makespan == 2.0

    def test_conflicting_start_rejected(self):
        tracker = DataQubitTracker(2)
        tracker.occupy((0,), 0.0, 5.0)
        with pytest.raises(RuntimeSimulationError):
            tracker.occupy((0,), 3.0, 1.0)

    def test_idle_accounting(self):
        tracker = DataQubitTracker(2)
        tracker.occupy((0,), 0.0, 1.0)
        tracker.occupy((1,), 0.0, 4.0)
        # Qubit 0 idles from t=1 to the makespan (4).
        assert tracker.idle_time(0) == pytest.approx(3.0)
        assert tracker.idle_time(1) == pytest.approx(0.0)
        assert tracker.total_idle_time() == pytest.approx(3.0)

    def test_unused_qubits_do_not_idle(self):
        tracker = DataQubitTracker(3)
        tracker.occupy((0,), 0.0, 2.0)
        assert tracker.idle_time(2) == 0.0

    def test_utilisation(self):
        tracker = DataQubitTracker(2)
        tracker.occupy((0,), 0.0, 2.0)
        tracker.occupy((1,), 0.0, 4.0)
        assert tracker.utilisation() == pytest.approx((2.0 + 4.0) / (4.0 * 2))

    def test_validation(self):
        with pytest.raises(RuntimeSimulationError):
            DataQubitTracker(0)
        tracker = DataQubitTracker(1)
        with pytest.raises(RuntimeSimulationError):
            tracker.available_time(5)
        with pytest.raises(RuntimeSimulationError):
            tracker.occupy((0,), 0.0, -1.0)


class TestEntanglementDirectory:
    def test_services_created_per_pair(self, small_architecture):
        directory = EntanglementDirectory(small_architecture)
        service = directory.service(1, 0)
        assert service.node_pair == (0, 1)
        assert directory.service(0, 1) is service

    def test_unbuffered_configuration(self, small_architecture):
        directory = EntanglementDirectory(small_architecture, use_buffer=False)
        assert directory.service(0, 1).buffer_capacity == 0

    def test_prefill_configuration(self, small_architecture):
        directory = EntanglementDirectory(small_architecture, prefill=True)
        capacity = small_architecture.buffer_capacity_between(0, 1)
        assert directory.count_available(0, 1, 0.0) == capacity

    def test_aggregate_statistics(self, small_architecture):
        directory = EntanglementDirectory(small_architecture, seed=1)
        directory.service(0, 1).acquire(20.0)
        directory.finalize(50.0)
        stats = directory.aggregate_statistics()
        assert stats["generated"] >= 1
        assert stats["consumed_from_buffer"] + stats["consumed_direct"] == 1


class TestDesigns:
    def test_paper_order(self):
        assert list_designs() == DESIGN_ORDER
        assert DESIGN_ORDER[0] == "original" and DESIGN_ORDER[-1] == "ideal"

    def test_design_flags(self):
        assert get_design("original").use_buffer is False
        assert get_design("sync_buf").attempt_policy is AttemptPolicy.SYNCHRONOUS
        assert get_design("async_buf").attempt_policy is AttemptPolicy.ASYNCHRONOUS
        assert get_design("adapt_buf").adaptive_scheduling is True
        assert get_design("init_buf").prefill_buffers is True
        assert get_design("ideal").ideal is True

    def test_lookup_case_insensitive_and_unknown(self):
        assert get_design("ADAPT_BUF").name == "adapt_buf"
        with pytest.raises(ConfigurationError):
            get_design("bogus")

    def test_invalid_design_combinations(self):
        with pytest.raises(ConfigurationError):
            DesignSpec(name="broken", use_buffer=False,
                       attempt_policy=AttemptPolicy.SYNCHRONOUS,
                       prefill_buffers=True)

    def test_with_overrides(self):
        tweaked = get_design("async_buf").with_overrides(buffer_cutoff=30.0)
        assert tweaked.buffer_cutoff == 30.0
        assert get_design("async_buf").buffer_cutoff is None


class TestMetricsAndTrace:
    def _result(self, makespan=50.0, fidelity=0.8):
        return ExecutionResult(
            design="async_buf", benchmark="toy", seed=0, makespan=makespan,
            fidelity=fidelity, fidelity_breakdown=FidelityBreakdown(),
            num_single_qubit=4, num_local_two_qubit=3, num_remote=2,
            num_measurements=0, qubit_idle_total=10.0,
            remote_records=[
                RemoteGateRecord(1, 5.0, 7.0, 8.2, 6.0, 0.98),
                RemoteGateRecord(3, 9.0, 9.0, 10.2, 8.5, 0.97),
            ],
            epr_statistics={"generated": 10, "wasted": 4},
        )

    def test_relative_metrics(self):
        result = self._result()
        assert result.depth_relative_to(25.0) == pytest.approx(2.0)
        assert result.fidelity_relative_to(0.9) == pytest.approx(0.8 / 0.9)

    def test_remote_summaries(self):
        result = self._result()
        assert result.mean_remote_wait() == pytest.approx(1.0)
        assert result.mean_link_age() == pytest.approx((1.0 + 0.5) / 2)
        assert result.mean_link_fidelity() == pytest.approx(0.975)
        assert result.epr_waste_fraction() == pytest.approx(0.4)
        assert result.summary()["remote_gates"] == 2

    def test_trace_consistency_check(self):
        trace = ExecutionTrace()
        trace.record(GateTraceEntry(0, "h", (0,), 0.0, 0.1))
        trace.record(GateTraceEntry(1, "cx", (0, 1), 0.1, 1.1, is_remote=False))
        assert trace.is_consistent()
        assert trace.makespan() == pytest.approx(1.1)
        trace.record(GateTraceEntry(2, "cx", (1, 2), 0.5, 1.5))
        assert not trace.is_consistent()

    def test_trace_render_and_filters(self):
        trace = ExecutionTrace()
        trace.record(GateTraceEntry(0, "cx", (0, 1), 0.0, 1.2, is_remote=True,
                                    link_fidelity=0.98))
        assert len(trace.remote_entries()) == 1
        assert trace.busy_intervals(0) == [(0.0, 1.2)]
        assert "cx" in trace.render()
