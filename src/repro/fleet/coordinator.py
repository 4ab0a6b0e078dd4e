"""Fleet coordinator: a lease table served to workers over sockets.

The coordinator owns the listening socket and the sweep state; it never
executes a chunk itself.  A sweep is submitted as an ordered list of
``(cell-fingerprint, seed-chunk)`` pairs; each chunk is then handed to
workers as a *lease* — an assignment with an id and a deadline — and the
chunk is done when the first result for it arrives, no matter which lease
produced it.  That first-result-wins rule is what makes every fault story
below collapse into "issue another lease":

* **worker leaves / is killed** — its connection drops, its leases are
  released and the chunks return to the pending queue immediately (the
  lease deadline is only the backstop for workers that hang while staying
  connected);
* **worker joins late** — it sends ``ready`` and is served from whatever
  is still pending;
* **tail stealing** — when the pending queue is empty but chunks are still
  in flight, an idle worker is issued a *duplicate* lease on the
  least-covered outstanding chunk, so one slow or dying worker cannot
  stall the sweep's tail.  Duplicate results are dropped here, and the
  durable layer (``RunStore.append_chunk``) is idempotent anyway, so a
  chunk executed twice commits once.

Compiled cells are shipped on demand: a worker that lacks a fingerprint
asks with ``cell-request`` exactly once and caches the cell, so a sweep
ships each cell to each worker at most once — :meth:`FleetCoordinator.stats`
tracks per-``(worker, cell)`` ship counts so tests can pin that invariant.

Two circuit breakers guard the lease table against pathological workers:

* **heartbeat idle-timeout** — every accepted connection carries a read
  timeout (:data:`DEFAULT_HEARTBEAT_TIMEOUT`).  Workers send one-way
  ``heartbeat`` frames while executing, so a connection that stays silent
  past the deadline is *dead*, not busy — a TCP partition leaves the
  socket ESTABLISHED forever otherwise — and its leases are released
  immediately instead of waiting out the (much longer) lease reaper
  deadline;
* **per-worker quarantine** — a worker whose leases keep failing
  (:attr:`quarantine_after` reported failures) is benched for
  :attr:`quarantine_period` seconds: it stays connected and polling but
  receives ``wait`` instead of leases, so one bad host (broken numpy,
  corrupt cache, flaky disk) cannot burn through every chunk's attempt
  budget.

Threading model: one accept thread, one handler thread per connection, one
reaper thread expiring leases.  All sweep state lives behind one lock;
completed batches cross to the submitting thread over a queue.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from queue import Queue
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import FleetError
from repro.faults import failpoint
from repro.fleet import protocol
from repro.fleet.protocol import format_address, recv_message, send_message

__all__ = ["FleetCoordinator", "FleetSweep", "DEFAULT_LEASE_TIMEOUT",
           "DEFAULT_HEARTBEAT_TIMEOUT"]

#: Backstop deadline for a lease whose worker stays connected but silent.
DEFAULT_LEASE_TIMEOUT = 120.0

#: How often idle workers re-ask for work and the reaper scans deadlines.
DEFAULT_POLL = 0.25

#: Idle timeout on accepted worker connections.  Workers heartbeat every
#: ~5 s even while executing, so a connection silent this long is a dead
#: peer (SIGKILL without FIN, network partition), and its leases are
#: released long before the lease reaper's deadline.  Must stay well
#: above the worker heartbeat interval and below the lease timeout.
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: Reported failures before a worker is quarantined (circuit breaker).
DEFAULT_QUARANTINE_AFTER = 3

#: Seconds a quarantined worker is served ``wait`` instead of leases.
DEFAULT_QUARANTINE_PERIOD = 60.0

#: Duplicate-lease cap per chunk: stealing covers a dying worker without
#: letting every idle worker pile onto the same tail chunk.
MAX_LEASES_PER_CHUNK = 2

#: A chunk failing on this many distinct leases fails the sweep (a
#: deterministic execution error will not heal by reassignment).
MAX_CHUNK_ATTEMPTS = 3


@dataclass(frozen=True)
class WorkChunk:
    """One leased unit: replay ``seeds`` through the cell ``cell_key``."""

    index: int
    cell_key: str
    seeds: Tuple[int, ...]


@dataclass
class _Lease:
    id: int
    chunk: int
    worker: str
    deadline: float


class _WorkerLink:
    """Per-connection state: the socket and the uniquified worker name."""

    def __init__(self, name: str, sock: socket.socket) -> None:
        self.name = name
        self.sock = sock


class FleetSweep:
    """Handle on one submitted batch of chunks.

    ``completions`` yields ``(chunk_index, results)`` in completion order;
    a ``None`` sentinel means the sweep failed and :attr:`error` says why.
    """

    def __init__(self, chunks: List[WorkChunk]) -> None:
        self.chunks = chunks
        self.pending: deque = deque(range(len(chunks)))
        self.chunk_leases: Dict[int, Set[int]] = {}
        #: Chunk index of every lease issued for this sweep, live or not:
        #: only these leases may file a result or a failure.
        self.leases: Dict[int, int] = {}
        self.attempts: List[int] = [0] * len(chunks)
        self.done: Set[int] = set()
        self.completions: "Queue[Optional[Tuple[int, list]]]" = Queue()
        self.error: Optional[FleetError] = None

    @property
    def remaining(self) -> int:
        return len(self.chunks) - len(self.done)


class FleetCoordinator:
    """Serve ``(cell, seed-chunk)`` leases to fleet workers.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks a free port (see :attr:`address`).
    lease_timeout:
        Seconds before an unanswered lease expires and its chunk is
        reassigned.  Worker *disconnects* release leases immediately; the
        timeout only covers workers that hang while staying connected.
    poll:
        Idle-worker re-poll interval, also the reaper scan period.
    heartbeat_timeout:
        Read timeout on worker connections; a connection silent this long
        is dropped and its leases released (0 disables — never idle out).
    quarantine_after / quarantine_period:
        Circuit breaker: after this many reported lease failures a worker
        is served ``wait`` instead of leases for this many seconds
        (``quarantine_after=0`` disables the breaker).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 poll: float = DEFAULT_POLL,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
                 quarantine_period: float = DEFAULT_QUARANTINE_PERIOD) -> None:
        if lease_timeout <= 0:
            raise FleetError("lease timeout must be positive")
        if heartbeat_timeout < 0 or quarantine_after < 0 \
                or quarantine_period < 0:
            raise FleetError(
                "heartbeat timeout and quarantine settings must be >= 0")
        self.host = host
        self.port = port
        self.lease_timeout = float(lease_timeout)
        self.poll = float(poll)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.quarantine_after = int(quarantine_after)
        self.quarantine_period = float(quarantine_period)
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._links: Dict[str, _WorkerLink] = {}
        self._sweep: Optional[FleetSweep] = None
        self._leases: Dict[int, _Lease] = {}
        self._lease_counter = 0
        self._worker_counter = 0
        self._closing = False
        self._stopped = threading.Event()  # wakes the reaper on close
        self._started = False
        # Cells available for shipping: live objects plus a pickled-frame
        # cache so a cell is pickled once per coordinator, not per worker.
        self._cells: Dict[str, Any] = {}
        self._cell_frames: Dict[str, str] = {}
        # Counters surfaced by stats().
        self._ships: Dict[Tuple[str, str], int] = {}
        self._workers_seen = 0
        self._chunks_done = 0
        self._chunks_stolen = 0
        self._leases_issued = 0
        self._leases_expired = 0
        self._duplicate_results = 0
        self._heartbeat_disconnects = 0
        self._workers_quarantined = 0
        # Per-worker accounting (persists across reconnects of one name):
        # chunks/seeds completed, reported failures, first-seen time for
        # throughput, and the quarantine deadline.
        self._worker_stats: Dict[str, Dict[str, float]] = {}
        self._quarantined_until: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetCoordinator":
        """Bind, listen, and start the accept + reaper threads."""
        with self._lock:
            if self._started:
                return self
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((self.host, self.port))
            except OSError as error:
                listener.close()
                raise FleetError(
                    f"cannot bind fleet coordinator to "
                    f"{self.host}:{self.port}: {error}"
                ) from error
            listener.listen(64)
            self._listener = listener
            self.port = listener.getsockname()[1]
            self._started = True
        for target, name in ((self._accept_loop, "fleet-accept"),
                             (self._reaper_loop, "fleet-reaper")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    @property
    def address(self) -> str:
        """The actual ``host:port`` the coordinator is (or will be) bound to."""
        return format_address((self.host, self.port))

    def worker_count(self) -> int:
        """Number of currently connected workers."""
        with self._lock:
            return len(self._links)

    def close(self) -> None:
        """Stop accepting, drop every worker connection, join the threads.

        Connected workers see EOF and fall back to their reconnect loop;
        in-flight sweep state is abandoned (callers drain or discard their
        :class:`FleetSweep` themselves).
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            listener, self._listener = self._listener, None
            links = list(self._links.values())
            sweep = self._sweep
        self._stopped.set()
        if listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does (accept fails with EINVAL).
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
        for link in links:
            try:
                link.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            link.sock.close()
        if sweep is not None and sweep.remaining:
            sweep.error = FleetError("coordinator closed mid-sweep")
            sweep.completions.put(None)
        for thread in list(self._threads):
            thread.join(timeout=2.0)

    # ------------------------------------------------------------------
    # sweep submission
    # ------------------------------------------------------------------
    def submit(self, chunks: Sequence[Tuple[str, Sequence[int]]],
               cells: Mapping[str, Any]) -> FleetSweep:
        """Queue a sweep of ``(cell_key, seeds)`` chunks for the fleet.

        ``cells`` maps every referenced fingerprint to its compiled cell
        (shipped on demand to workers that lack it).  Only one sweep may
        be in flight per coordinator.
        """
        self.start()
        work = [WorkChunk(index, key, tuple(int(s) for s in seeds))
                for index, (key, seeds) in enumerate(chunks)]
        sweep = FleetSweep(work)
        with self._lock:
            if self._closing:
                raise FleetError("coordinator is closed")
            if self._sweep is not None and self._sweep.remaining \
                    and self._sweep.error is None:
                raise FleetError("a fleet sweep is already in flight")
            missing = {chunk.cell_key for chunk in work} - set(cells) \
                - set(self._cells)
            if missing:
                raise FleetError(
                    f"sweep references {len(missing)} cell(s) with no "
                    f"compiled artifact to ship"
                )
            self._cells.update(cells)
            self._sweep = sweep
            idle = not self._links
        if idle and work:
            print(
                f"fleet: no workers connected yet; waiting on {self.address} "
                f"(start one with `python -m repro worker "
                f"--connect {self.address}`)",
                file=sys.stderr,
            )
        return sweep

    def abort_sweep(self, sweep: FleetSweep) -> None:
        """Abandon ``sweep`` so a new one can be submitted.

        Called by the backend when the *consuming* side fails mid-sweep —
        e.g. the result sink's store raises ``ENOSPC`` — so the sweep in
        flight does not wedge the coordinator.  Outstanding leases are
        dropped; late results for the abandoned sweep are counted as
        duplicates and discarded.
        """
        with self._lock:
            if self._sweep is not sweep:
                return
            self._sweep = None
            self._leases.clear()

    def stats(self) -> Dict[str, Any]:
        """Counters for operators and the ship-at-most-once assertions.

        ``per_worker`` carries each worker's chunk/seed throughput
        (measured from its first connection) plus failure and quarantine
        state, so operators can spot a slow or flapping host from
        ``repro status``/``/healthz`` without reading coordinator logs.
        """
        with self._lock:
            now = time.monotonic()
            ships_by_worker: Dict[str, int] = {}
            for (worker, _key), count in self._ships.items():
                ships_by_worker[worker] = ships_by_worker.get(worker, 0) + count
            per_worker: Dict[str, Dict[str, Any]] = {}
            for name, acc in sorted(self._worker_stats.items()):
                elapsed = max(now - acc["since"], 1e-9)
                per_worker[name] = {
                    "connected": name in self._links,
                    "chunks": int(acc["chunks"]),
                    "seeds": int(acc["seeds"]),
                    "chunks_per_s": round(acc["chunks"] / elapsed, 3),
                    "seeds_per_s": round(acc["seeds"] / elapsed, 3),
                    "failures": int(acc["failures"]),
                    "quarantined":
                        self._quarantined_until.get(name, 0.0) > now,
                }
            return {
                "address": self.address,
                "workers": len(self._links),
                "workers_seen": self._workers_seen,
                "chunks_done": self._chunks_done,
                "chunks_stolen": self._chunks_stolen,
                "leases_issued": self._leases_issued,
                "leases_expired": self._leases_expired,
                "duplicate_results": self._duplicate_results,
                "heartbeat_disconnects": self._heartbeat_disconnects,
                "workers_quarantined": self._workers_quarantined,
                "quarantined_now": sorted(
                    name for name, until in self._quarantined_until.items()
                    if until > now),
                "per_worker": per_worker,
                "cells_shipped": sum(self._ships.values()),
                "ships_by_worker": ships_by_worker,
                "max_ships_per_cell_worker":
                    max(self._ships.values(), default=0),
            }

    def _worker_acc(self, name: str) -> Dict[str, float]:
        """The per-worker accumulator, created on first reference
        (call with ``self._lock`` held)."""
        acc = self._worker_stats.get(name)
        if acc is None:
            acc = {"chunks": 0.0, "seeds": 0.0, "failures": 0.0,
                   "since": time.monotonic()}
            self._worker_stats[name] = acc
        return acc

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            with self._lock:
                listener = self._listener
            if listener is None:
                return
            try:
                sock, _addr = listener.accept()
            except OSError:
                return  # listener closed
            failpoint("fleet.coordinator.accept")
            # Idle timeout: workers heartbeat even while executing, so a
            # read blocking this long means the peer is gone (partition,
            # SIGKILL without FIN) — drop it and release its leases now
            # instead of letting the lease reaper's deadline do it later.
            sock.settimeout(self.heartbeat_timeout or None)
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,),
                name="fleet-conn", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, sock: socket.socket) -> None:
        link: Optional[_WorkerLink] = None
        try:
            hello = recv_message(sock)
            if hello is None:
                return
            if hello.get("type") != protocol.HELLO:
                send_message(sock, {"type": protocol.ERROR,
                                    "reason": "expected hello"})
                return
            if hello.get("version") != protocol.PROTOCOL_VERSION:
                send_message(sock, {
                    "type": protocol.ERROR,
                    "reason": (
                        f"protocol version mismatch: coordinator speaks "
                        f"{protocol.PROTOCOL_VERSION}, worker sent "
                        f"{hello.get('version')!r}"
                    ),
                })
                return
            link = self._register(str(hello.get("worker") or "worker"), sock)
            send_message(sock, {
                "type": protocol.WELCOME,
                "version": protocol.PROTOCOL_VERSION,
                "worker": link.name,
                "coordinator": f"{os.getpid()}@{self.address}",
            })
            while True:
                message = recv_message(sock)
                if message is None:
                    return
                kind = message["type"]
                if kind == protocol.READY:
                    send_message(sock, self._assignment(link))
                elif kind == protocol.HEARTBEAT:
                    continue  # one-way liveness; resets the idle timeout
                elif kind == protocol.CELL_REQUEST:
                    send_message(
                        sock, self._cell_frame(link, str(message.get("cell"))))
                elif kind == protocol.RESULT:
                    self._complete(message)
                    send_message(sock, self._assignment(link))
                elif kind == protocol.FAILURE:
                    self._failure(message)
                    send_message(sock, self._assignment(link))
                else:
                    raise FleetError(f"unexpected message type {kind!r}")
        except socket.timeout:
            # Connected-but-silent past the heartbeat deadline: declared
            # dead; _unregister below releases the leases immediately.
            with self._lock:
                self._heartbeat_disconnects += 1
        except (OSError, FleetError):
            pass  # connection-level failure: leases are released below
        finally:
            if link is not None:
                self._unregister(link)
            sock.close()

    def _register(self, requested: str, sock: socket.socket) -> _WorkerLink:
        with self._lock:
            name = requested
            while name in self._links:
                self._worker_counter += 1
                name = f"{requested}~{self._worker_counter}"
            link = _WorkerLink(name, sock)
            self._links[name] = link
            self._workers_seen += 1
            self._worker_acc(name)
            return link

    def _unregister(self, link: _WorkerLink) -> None:
        with self._lock:
            if self._links.get(link.name) is link:
                del self._links[link.name]
            # A vanished worker's leases are released immediately — this,
            # not the deadline, is the fast path for SIGKILLed workers.
            for lease in [l for l in self._leases.values()
                          if l.worker == link.name]:
                self._release_lease(lease)

    # ------------------------------------------------------------------
    # lease table (all methods below called with or taking self._lock)
    # ------------------------------------------------------------------
    def _release_lease(self, lease: _Lease) -> None:
        """Drop ``lease`` and requeue its chunk if nobody else holds it."""
        self._leases.pop(lease.id, None)
        sweep = self._sweep
        if sweep is None or lease.id not in sweep.leases \
                or lease.chunk in sweep.done:
            return
        holders = sweep.chunk_leases.get(lease.chunk)
        if holders is not None:
            holders.discard(lease.id)
        if not holders and lease.chunk not in sweep.pending:
            sweep.pending.appendleft(lease.chunk)

    def _assignment(self, link: _WorkerLink) -> Dict[str, Any]:
        failpoint("fleet.coordinator.assign")  # stall outside the lock
        with self._lock:
            if self._closing:
                return {"type": protocol.SHUTDOWN}
            sweep = self._sweep
            if sweep is None or sweep.error is not None or not sweep.remaining:
                return {"type": protocol.WAIT, "poll": self.poll}
            if self._quarantined_until.get(link.name, 0.0) > time.monotonic():
                # Circuit breaker open: the worker keeps polling but gets
                # no leases until its quarantine period lapses.
                return {"type": protocol.WAIT, "poll": self.poll}
            stolen = False
            if sweep.pending:
                index = sweep.pending.popleft()
            else:
                # Tail stealing: duplicate-lease the least-covered chunk
                # still in flight, so a slow or dying worker's chunk is
                # recomputed instead of serializing the whole sweep tail.
                candidates = [
                    i for i in range(len(sweep.chunks))
                    if i not in sweep.done
                    and len(sweep.chunk_leases.get(i, ()))
                    < MAX_LEASES_PER_CHUNK
                ]
                if not candidates:
                    return {"type": protocol.WAIT, "poll": self.poll}
                index = min(candidates, key=lambda i: (
                    len(sweep.chunk_leases.get(i, ())), i))
                stolen = True
                self._chunks_stolen += 1
            self._lease_counter += 1
            lease = _Lease(
                id=self._lease_counter,
                chunk=index,
                worker=link.name,
                deadline=time.monotonic() + self.lease_timeout,
            )
            self._leases[lease.id] = lease
            sweep.chunk_leases.setdefault(index, set()).add(lease.id)
            sweep.leases[lease.id] = index
            self._leases_issued += 1
            chunk = sweep.chunks[index]
            return {
                "type": protocol.LEASE,
                "lease": lease.id,
                "chunk": index,
                "cell": chunk.cell_key,
                "seeds": list(chunk.seeds),
                "deadline": self.lease_timeout,
                "stolen": stolen,
            }

    def _cell_frame(self, link: _WorkerLink, key: str) -> Dict[str, Any]:
        with self._lock:
            frame = self._cell_frames.get(key)
            cell = self._cells.get(key)
        if frame is None:
            if cell is None:
                return {"type": protocol.ERROR,
                        "reason": f"unknown cell {key[:12]}…"}
            frame = protocol.pack_payload(cell)  # pickle outside the lock
        with self._lock:
            self._cell_frames[key] = frame
            pair = (link.name, key)
            self._ships[pair] = self._ships.get(pair, 0) + 1
        return {"type": protocol.CELL, "cell": key, "payload": frame}

    def _complete(self, message: Mapping[str, Any]) -> None:
        results = protocol.unpack_payload(message["payload"])
        with self._lock:
            lease_id = int(message.get("lease", -1))
            lease = self._leases.pop(lease_id, None)
            sweep = self._sweep
            index = int(message["chunk"])
            # A result counts only under a lease issued in this sweep (an
            # expired one included): a stolen duplicate of an earlier
            # sweep's chunk must not land under this sweep's chunk of the
            # same index.
            if sweep is None or sweep.leases.get(lease_id) != index:
                self._duplicate_results += 1
                return
            if lease is not None:
                holders = sweep.chunk_leases.get(lease.chunk)
                if holders is not None:
                    holders.discard(lease.id)
            if index in sweep.done:
                # First result won already (stolen or expired-then-finished
                # lease) — drop; RunStore commits are idempotent anyway.
                self._duplicate_results += 1
                return
            expected = len(sweep.chunks[index].seeds)
            if len(results) != expected:
                raise FleetError(
                    f"chunk {index}: worker returned {len(results)} results "
                    f"for {expected} seeds"
                )
            sweep.done.add(index)
            self._chunks_done += 1
            if lease is not None:
                acc = self._worker_acc(lease.worker)
                acc["chunks"] += 1
                acc["seeds"] += expected
            # Retire every other lease on this chunk; late duplicates hit
            # the `index in sweep.done` branch above.
            for other in sweep.chunk_leases.pop(index, set()):
                self._leases.pop(other, None)
            sweep.completions.put((index, results))

    def _failure(self, message: Mapping[str, Any]) -> None:
        with self._lock:
            lease_id = int(message.get("lease", -1))
            lease = self._leases.pop(lease_id, None)
            if lease is not None:
                acc = self._worker_acc(lease.worker)
                acc["failures"] += 1
                if self.quarantine_after \
                        and acc["failures"] % self.quarantine_after == 0:
                    # Circuit breaker: repeated failures bench the worker
                    # so it cannot burn every chunk's attempt budget.
                    self._quarantined_until[lease.worker] = (
                        time.monotonic() + self.quarantine_period)
                    self._workers_quarantined += 1
            sweep = self._sweep
            index = int(message.get("chunk", -1))
            if sweep is None or sweep.leases.get(lease_id) != index \
                    or index in sweep.done:
                return
            sweep.attempts[index] += 1
            if lease is not None:
                holders = sweep.chunk_leases.get(index)
                if holders is not None:
                    holders.discard(lease.id)
            if sweep.attempts[index] >= MAX_CHUNK_ATTEMPTS:
                sweep.error = FleetError(
                    f"chunk {index} failed {sweep.attempts[index]} times "
                    f"across workers; last error: {message.get('message')}"
                )
                sweep.completions.put(None)
            elif not sweep.chunk_leases.get(index) \
                    and index not in sweep.pending:
                sweep.pending.appendleft(index)

    def _reaper_loop(self) -> None:
        while not self._stopped.wait(self.poll):
            with self._lock:
                if self._closing:
                    return
                now = time.monotonic()
                for lease in [l for l in self._leases.values()
                              if l.deadline <= now]:
                    self._leases_expired += 1
                    self._release_lease(lease)
