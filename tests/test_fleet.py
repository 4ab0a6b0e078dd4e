"""Worker-fleet tests: protocol, lease lifecycle, and fault injection.

The contract under test is the PR's acceptance criterion: a sweep run on
``FleetBackend`` with two or more workers — including one SIGKILLed
mid-sweep and one joining late — produces results **byte-identical**
(``to_json``) to ``SerialBackend``, and each compiled cell is shipped to
each worker at most once (pinned via coordinator stats).  Around that sit
the wire-protocol pins (framing, version handshake) and the
coordinator-restart-with-partial-store recovery path.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine.backends import SerialBackend, get_backend
from repro.engine.cache import ArtifactCache
from repro.exceptions import ConfigurationError, FleetError
from repro.fleet import FleetBackend, FleetWorker
from repro.fleet import protocol
from repro.fleet.coordinator import FleetCoordinator
from repro.study.store import RunStore
from repro.study.study import Study

ROOT = Path(__file__).resolve().parents[1]

SMALL_SYSTEM = {"data_qubits_per_node": 16, "comm_qubits_per_node": 4,
                "buffer_qubits_per_node": 4}


def small_spec(**overrides):
    """Four cells × a few seeds — finishes in well under a second."""
    spec = {"benchmarks": ["TLIM-32", "QAOA-r4-16"],
            "designs": ["ideal", "original"],
            "num_runs": 4, "system": dict(SMALL_SYSTEM)}
    spec.update(overrides)
    return spec


def serial_json(spec):
    with Study.from_spec(spec, backend=SerialBackend()) as study:
        return study.run().to_json()


def poll_until(condition, timeout=60.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = condition()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


class fleet_of:
    """Context manager: a started backend plus N in-thread workers."""

    def __init__(self, num_workers=2, **backend_kwargs):
        backend_kwargs.setdefault("listen", "127.0.0.1:0")
        backend_kwargs.setdefault("poll", 0.02)
        self.backend = FleetBackend(**backend_kwargs)
        self.num_workers = num_workers
        self.workers = []
        self.threads = []

    def __enter__(self):
        self.backend.start()
        for index in range(self.num_workers):
            self.add_worker(f"w{index}")
        return self

    def add_worker(self, name, cache=None):
        worker = FleetWorker(self.backend.address, name=name, quiet=True,
                             cache=cache or ArtifactCache(), retry=30.0)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        self.workers.append(worker)
        self.threads.append(thread)
        return worker

    def __exit__(self, *exc_info):
        for worker in self.workers:
            worker.stop()
        self.backend.close()
        for thread in self.threads:
            thread.join(timeout=5)


class BoomCell:
    """Module-level (hence picklable) cell that always fails to execute."""

    cache_key = "boom-cell"

    def execute_batch(self, seeds):
        raise RuntimeError("injected failure")


def spawn_worker_process(address, name, retry=60.0):
    """A real ``python -m repro worker`` subprocess (SIGKILL target)."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", address, "--name", name, "--retry", str(retry),
         "--quiet"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "lease", "seeds": [1, 2, 3], "cell": "ab" * 32}
            protocol.send_message(a, message)
            assert protocol.recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.recv_message(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\xff{\"type")  # promises 255 bytes
            a.close()
            with pytest.raises(FleetError, match="mid-frame"):
                protocol.recv_message(b)
        finally:
            b.close()

    def test_oversized_length_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(FleetError, match="limit"):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_untyped_payload_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"[1,2,3]"
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(FleetError, match="typed message"):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_payload_pickle_round_trip_is_exact(self):
        values = [0.1 + 0.2, 1e-308, float("inf"), (1, "x", [2.5])]
        assert protocol.unpack_payload(protocol.pack_payload(values)) == values

    def test_parse_address(self):
        assert protocol.parse_address("127.0.0.1:8766") == ("127.0.0.1", 8766)
        assert protocol.parse_address(":9000") == ("0.0.0.0", 9000)
        with pytest.raises(ConfigurationError):
            protocol.parse_address("no-port")
        with pytest.raises(ConfigurationError):
            protocol.parse_address("host:http")

    def test_version_mismatch_is_rejected_at_hello(self):
        coordinator = FleetCoordinator("127.0.0.1", 0).start()
        try:
            sock = socket.create_connection(
                ("127.0.0.1", coordinator.port), timeout=5)
            try:
                protocol.send_message(sock, {
                    "type": "hello", "version": protocol.PROTOCOL_VERSION + 1,
                    "worker": "skewed"})
                reply = protocol.recv_message(sock)
                assert reply["type"] == "error"
                assert "version" in reply["reason"]
            finally:
                sock.close()
        finally:
            coordinator.close()


# ----------------------------------------------------------------------
# tentpole: fleet results equal serial results, byte for byte
# ----------------------------------------------------------------------
class TestFleetMatchesSerial:
    def test_two_workers_byte_identical_and_cells_ship_once(self):
        spec = small_spec()
        baseline = serial_json(spec)
        with fleet_of(2, chunksize=2) as rig:
            with Study.from_spec(spec, backend=rig.backend) as study:
                fleet_json = study.run().to_json()
            stats = rig.backend.stats()
        assert fleet_json == baseline
        # Both workers participated, and no compiled cell was shipped to
        # any worker more than once (the fingerprint cache held).
        assert stats["workers_seen"] == 2
        assert stats["chunks_done"] > 0
        assert stats["cells_shipped"] >= 1
        assert stats["max_ships_per_cell_worker"] == 1

    def test_dataclass_for_dataclass_equality(self):
        spec = small_spec(num_runs=3)
        with Study.from_spec(spec, backend=SerialBackend()) as study:
            serial_records = study.run().records
        with fleet_of(1, chunksize=2) as rig:
            with Study.from_spec(spec, backend=rig.backend) as study:
                fleet_records = study.run().records
        assert len(fleet_records) == len(serial_records)
        for mine, ref in zip(fleet_records, serial_records):
            assert mine == ref

    def test_streams_to_run_store_chunk_exactly(self, tmp_path):
        spec = small_spec()
        baseline = serial_json(spec)
        with fleet_of(2) as rig:
            with Study.from_spec(spec, backend=rig.backend) as study:
                results = study.run(store=tmp_path / "store",
                                    store_chunk_size=2)
        assert results.to_json() == baseline
        store = RunStore.load(tmp_path / "store")
        assert store.is_complete
        assert store.load_results().to_json() == baseline

    def test_repeat_sweeps_reuse_worker_cell_caches(self):
        spec = small_spec(num_runs=2)
        with fleet_of(1) as rig:
            for _ in range(2):
                with Study.from_spec(spec, backend=rig.backend) as study:
                    study.run()
            stats = rig.backend.stats()
        # The second sweep re-uses the cells the first one shipped.
        assert stats["max_ships_per_cell_worker"] == 1

    def test_get_backend_registry_and_env(self, monkeypatch):
        assert isinstance(get_backend("fleet"), FleetBackend)
        monkeypatch.setenv("REPRO_BACKEND", "fleet")
        assert isinstance(get_backend(None), FleetBackend)
        monkeypatch.setenv("REPRO_FLEET_ADDR", "10.1.2.3:4567")
        backend = get_backend("fleet")
        assert (backend._host, backend._port) == ("10.1.2.3", 4567)

    def test_empty_task_list(self):
        backend = FleetBackend(listen="127.0.0.1:0")
        try:
            assert backend.execute([]) == []
        finally:
            backend.close()


# ----------------------------------------------------------------------
# satellite: fault injection
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_worker_joining_after_sweep_starts(self):
        spec = small_spec()
        baseline = serial_json(spec)
        rig = fleet_of(0)  # no workers yet
        with rig:
            done = {}

            def sweep():
                with Study.from_spec(spec, backend=rig.backend) as study:
                    done["json"] = study.run().to_json()

            thread = threading.Thread(target=sweep, daemon=True)
            thread.start()
            # The sweep is underway with zero workers; joining now must
            # pick it up from the pending lease table.
            poll_until(lambda: rig.backend.coordinator._sweep is not None)
            rig.add_worker("latecomer")
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert done["json"] == baseline

    def test_sigkilled_worker_mid_sweep_is_byte_identical(self):
        spec = small_spec(num_runs=24)  # 96 chunk-1 leases: a wide window
        baseline = serial_json(spec)
        backend = FleetBackend(listen="127.0.0.1:0", chunksize=1, poll=0.02)
        backend.start()
        victim = spawn_worker_process(backend.address, "victim")
        done = {}
        try:
            poll_until(lambda: backend.workers_connected() >= 1, timeout=30)

            def sweep():
                with Study.from_spec(spec, backend=backend) as study:
                    done["json"] = study.run().to_json()

            thread = threading.Thread(target=sweep, daemon=True)
            thread.start()
            # Let the victim commit a few chunks, then SIGKILL it cold.
            poll_until(lambda: backend.stats()["chunks_done"] >= 3,
                       timeout=60)
            killed_at = backend.stats()["chunks_done"]
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=10)
            assert killed_at < 96, "sweep finished before the kill landed"
            # A second worker joins late and finishes the remainder
            # (including the chunks the victim held leases on).
            rescuer = FleetWorker(backend.address, name="rescuer",
                                  quiet=True, cache=ArtifactCache())
            rescue_thread = threading.Thread(target=rescuer.run, daemon=True)
            rescue_thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive(), "sweep did not recover"
            rescuer.stop()
            stats = backend.stats()
        finally:
            backend.close()
            if victim.poll() is None:  # pragma: no cover - defensive
                victim.kill()
        assert done["json"] == baseline
        assert stats["workers_seen"] >= 2
        assert stats["max_ships_per_cell_worker"] == 1

    def test_coordinator_restart_with_partial_store(self, tmp_path):
        spec = small_spec()
        baseline = serial_json(spec)
        store_path = tmp_path / "store"
        # First coordinator commits a handful of chunks, then dies.
        with fleet_of(1, chunksize=1) as rig:
            with Study.from_spec(spec, backend=rig.backend) as study:
                study.run(store=store_path, store_chunk_size=1, max_chunks=4)
        partial = RunStore.load(store_path)
        assert 0 < partial.summary()["done_chunks"] < \
            partial.summary()["total_chunks"]
        # A fresh coordinator (new port, new workers) resumes the store.
        with fleet_of(2, chunksize=1) as rig:
            with Study.from_spec(spec, backend=rig.backend) as study:
                resumed = study.run(store=store_path, store_chunk_size=1)
        assert resumed.to_json() == baseline
        assert RunStore.load(store_path).load_results().to_json() == baseline

    def test_failing_chunk_fails_sweep_after_retries(self):
        backend = FleetBackend(listen="127.0.0.1:0", poll=0.02)
        backend.start()
        worker = FleetWorker(backend.address, name="w0", quiet=True,
                             cache=ArtifactCache())
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            coordinator = backend.coordinator
            sweep = coordinator.submit([("boom-cell", [1, 2])],
                                       {"boom-cell": BoomCell()})
            poll_until(lambda: sweep.error is not None, timeout=30)
            assert "failed" in str(sweep.error)
        finally:
            worker.stop()
            backend.close()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# coordinator odds and ends
# ----------------------------------------------------------------------
class TestCoordinator:
    def test_one_sweep_at_a_time(self):
        coordinator = FleetCoordinator("127.0.0.1", 0).start()
        try:
            coordinator.submit([("k", [1])], {"k": object()})
            with pytest.raises(FleetError, match="already in flight"):
                coordinator.submit([("k", [2])], {"k": object()})
        finally:
            coordinator.close()

    def test_submit_unknown_cell_rejected(self):
        coordinator = FleetCoordinator("127.0.0.1", 0).start()
        try:
            with pytest.raises(FleetError, match="no compiled artifact"):
                coordinator.submit([("mystery", [1])], {})
        finally:
            coordinator.close()

    def test_worker_gives_up_when_no_coordinator(self):
        worker = FleetWorker("127.0.0.1:1", retry=0.2, quiet=True)
        assert worker.run() == 1

    def test_close_is_prompt_and_joins_the_accept_thread(self):
        coordinator = FleetCoordinator("127.0.0.1", 0).start()
        started = time.monotonic()
        coordinator.close()
        assert time.monotonic() - started < 0.5
        assert not any(thread.name == "fleet-accept" and thread.is_alive()
                       for thread in threading.enumerate())

    def test_closed_coordinator_sends_workers_home(self):
        backend = FleetBackend(listen="127.0.0.1:0", poll=0.02)
        backend.start()
        worker = FleetWorker(backend.address, name="w0", quiet=True,
                             cache=ArtifactCache(), retry=0.5)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        poll_until(lambda: backend.workers_connected() == 1, timeout=30)
        backend.close()
        thread.join(timeout=30)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# robustness hardening: heartbeat idle-timeout, quarantine breaker,
# jittered backoff, per-worker throughput stats
# ----------------------------------------------------------------------
def raw_worker(coordinator, name):
    """A hand-driven worker connection past the HELLO/WELCOME handshake."""
    sock = socket.create_connection(("127.0.0.1", coordinator.port),
                                    timeout=10)
    protocol.send_message(sock, {"type": "hello",
                                 "version": protocol.PROTOCOL_VERSION,
                                 "worker": name})
    welcome = protocol.recv_message(sock)
    assert welcome["type"] == "welcome"
    return sock


class TestHardening:
    def test_silent_worker_loses_lease_via_heartbeat_timeout(self):
        """Acceptance criterion: a connected-but-silent worker is declared
        dead by the heartbeat idle-timeout and its chunk is reassigned
        long before the lease reaper's deadline would fire."""
        coordinator = FleetCoordinator(
            "127.0.0.1", 0, poll=0.05, lease_timeout=60.0,
            heartbeat_timeout=1.0).start()
        mute = healthy = None
        try:
            coordinator.submit([("cell", [1, 2])], {"cell": BoomCell()})
            mute = raw_worker(coordinator, "mute")
            protocol.send_message(mute, {"type": "ready"})
            lease = protocol.recv_message(mute)
            assert lease["type"] == "lease" and lease["chunk"] == 0
            # Stay silent: no heartbeat, no result.  The TCP connection
            # stays ESTABLISHED, so only the idle-timeout can save us.
            started = time.monotonic()
            poll_until(lambda:
                       coordinator.stats()["heartbeat_disconnects"] == 1,
                       timeout=30)
            elapsed = time.monotonic() - started
            assert elapsed < 30.0  # far before the 60 s lease deadline
            # The chunk is pending again: a healthy worker gets it now.
            healthy = raw_worker(coordinator, "healthy")
            protocol.send_message(healthy, {"type": "ready"})
            release = protocol.recv_message(healthy)
            assert release["type"] == "lease" and release["chunk"] == 0
            assert release["lease"] != lease["lease"]
        finally:
            for sock in (mute, healthy):
                if sock is not None:
                    sock.close()
            coordinator.close()

    def test_repeated_failures_quarantine_the_worker(self):
        coordinator = FleetCoordinator(
            "127.0.0.1", 0, poll=0.05, quarantine_after=1,
            quarantine_period=60.0).start()
        flaky = None
        try:
            coordinator.submit([("cell", [1]), ("cell", [2])],
                               {"cell": BoomCell()})
            flaky = raw_worker(coordinator, "flaky")
            protocol.send_message(flaky, {"type": "ready"})
            lease = protocol.recv_message(flaky)
            assert lease["type"] == "lease"
            protocol.send_message(flaky, {
                "type": "failure", "lease": lease["lease"],
                "chunk": lease["chunk"], "message": "injected failure"})
            # The breaker opens: the reply to the failure is wait, not
            # the other pending chunk.
            assert protocol.recv_message(flaky)["type"] == "wait"
            stats = coordinator.stats()
            assert stats["workers_quarantined"] == 1
            assert stats["quarantined_now"] == ["flaky"]
            worker = stats["per_worker"]["flaky"]
            assert worker["failures"] == 1 and worker["quarantined"]
        finally:
            if flaky is not None:
                flaky.close()
            coordinator.close()

    def test_backoff_jitter_is_seeded_and_bounded(self):
        one = FleetWorker("127.0.0.1:1", seed=42, quiet=True)
        two = FleetWorker("127.0.0.1:1", seed=42, quiet=True)
        draws_one = [one._jittered(0.8) for _ in range(16)]
        draws_two = [two._jittered(0.8) for _ in range(16)]
        assert draws_one == draws_two  # same seed → same retry schedule
        assert all(0.4 <= d <= 0.8 for d in draws_one)
        assert len(set(draws_one)) > 1  # actually jittered

    def test_per_worker_throughput_reported_after_sweep(self):
        spec = small_spec()
        with fleet_of(2, chunksize=2) as rig:
            with Study.from_spec(spec, backend=rig.backend) as study:
                study.run()
            stats = rig.backend.stats()
        per_worker = stats["per_worker"]
        assert set(per_worker) == {"w0", "w1"}
        assert sum(w["chunks"] for w in per_worker.values()) \
            == stats["chunks_done"]
        for worker in per_worker.values():
            assert worker["seeds_per_s"] >= 0.0
            assert worker["failures"] == 0
            assert not worker["quarantined"]


# ----------------------------------------------------------------------
# lease scoping: results file only under leases of the current sweep
# ----------------------------------------------------------------------
def report(sock, lease, results):
    """Send ``results`` for ``lease`` and return the coordinator's reply."""
    protocol.send_message(sock, {
        "type": "result", "lease": lease["lease"], "chunk": lease["chunk"],
        "cell": lease["cell"], "payload": protocol.pack_payload(results)})
    return protocol.recv_message(sock)


class TestLeaseScoping:
    def test_stolen_lease_of_previous_sweep_is_a_duplicate(self):
        coordinator = FleetCoordinator("127.0.0.1", 0, poll=0.05).start()
        fast = slow = None
        try:
            first = coordinator.submit([("cell", [1])], {"cell": object()})
            fast = raw_worker(coordinator, "fast")
            slow = raw_worker(coordinator, "slow")
            protocol.send_message(fast, {"type": "ready"})
            original = protocol.recv_message(fast)
            protocol.send_message(slow, {"type": "ready"})
            stolen = protocol.recv_message(slow)
            assert stolen["type"] == "lease" and stolen["stolen"]
            assert stolen["chunk"] == original["chunk"] == 0
            report(fast, original, ["first-sweep"])
            assert first.completions.get(timeout=5) == (0, ["first-sweep"])

            second = coordinator.submit([("cell", [2])], {"cell": object()})
            # The first sweep's stolen duplicate reports during the second.
            report(slow, stolen, ["stale"])
            assert coordinator.stats()["duplicate_results"] == 1
            assert second.remaining == 1 and second.completions.empty()
            # The second sweep's own lease still completes it.
            protocol.send_message(fast, {"type": "ready"})
            fresh = protocol.recv_message(fast)
            assert fresh["type"] == "lease" and fresh["seeds"] == [2]
            report(fast, fresh, ["second-sweep"])
            assert second.completions.get(timeout=5) == (0, ["second-sweep"])
        finally:
            for sock in (fast, slow):
                if sock is not None:
                    sock.close()
            coordinator.close()

    def test_expired_lease_of_current_sweep_still_counts(self):
        coordinator = FleetCoordinator("127.0.0.1", 0, poll=0.02,
                                       lease_timeout=0.05).start()
        late = None
        try:
            sweep = coordinator.submit([("cell", [1])], {"cell": object()})
            late = raw_worker(coordinator, "late")
            protocol.send_message(late, {"type": "ready"})
            lease = protocol.recv_message(late)
            poll_until(lambda: coordinator.stats()["leases_expired"] >= 1,
                       timeout=30)
            report(late, lease, ["late"])
            assert sweep.completions.get(timeout=5) == (0, ["late"])
            assert coordinator.stats()["duplicate_results"] == 0
        finally:
            if late is not None:
                late.close()
            coordinator.close()
