"""The four benchmark workloads, driven through ``repro``'s real entry points.

Each workload turns the benchmark seed into its inputs (study specs), sets
the system up, runs a measured phase, and tears the system down.  A
measured phase returns a :class:`Phase`: timings, per-operation samples,
and the raw output bytes of every operation, which ``run.py`` compares
with the in-process serial reference.

* ``fig56-32q`` / ``sweep-cold-1seed`` — ``python -m repro run|sweep``
  subprocesses, one cold process per operation.
* ``svc-open`` — ``repro serve`` (serial backend), one client thread
  submitting jobs open-loop at a fixed rate, results fetched over HTTP.
* ``fig8-64q-fleet`` — ``repro serve --fleet`` plus two ``repro worker``
  processes connected during set-up, Fig 8 jobs submitted closed-loop.

A CLI phase starts processes back to back for ``--seconds`` and lets the
last one finish; ``svc-open`` submits on its schedule for ``--seconds``;
``fig8-64q-fleet`` runs a job count fixed from ``--seconds`` and a
nominal job time.  ``runs_per_s`` shows a faster program.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
LAUNCHER = BENCH_DIR / "launch.py"

BENCHMARKS_32Q = ["TLIM-32", "QAOA-r4-32", "QAOA-r8-32", "QFT-32"]
FIG8_BENCHMARKS = ["QAOA-r4-64", "QAOA-r8-64"]
FIG8_SYSTEM = {"data_qubits_per_node": 32, "comm_qubits_per_node": 20,
               "buffer_qubits_per_node": 20}
SWEEP_AXIS = ("comm_qubits_per_node,buffer_qubits_per_node="
              "4:4,10:10,15:15,20:20")
SWEEP_POINTS = [[4, 4], [10, 10], [15, 15], [20, 20]]

#: Poll interval while the system starts (``setup_s`` moves in its steps).
POLL_S = 0.025

#: Poll interval for job results.  Job latency comes from the server's
#: time stamps, not from the poll, so polling can be sparse; each poll is a
#: request the daemon serves, on a thread of its own, while it runs a job.
JOB_POLL_S = 0.1


class BenchError(RuntimeError):
    """The system under test could not be set up or driven."""


@dataclass
class Phase:
    """What one measured phase did and how long it took."""

    start: float = 0.0            # perf_counter at the first operation
    end: float = 0.0              # perf_counter after the last one
    runs: int = 0                 # simulated runs completed
    attempted: int = 0
    failed: int = 0
    latency_ms: List[float] = field(default_factory=list)
    submit_ms: List[float] = field(default_factory=list)
    fetch_ms: List[float] = field(default_factory=list)
    queue_wait_ms: List[float] = field(default_factory=list)
    run_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    #: (spec index, output bytes or None when the operation failed)
    outputs: List[Tuple[int, Optional[bytes]]] = field(default_factory=list)
    fleet_before: Dict[str, Any] = field(default_factory=dict)
    fleet_after: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Processes:
    """Every process the benchmark starts, so all of them get stopped."""

    def __init__(self, env: Dict[str, str], cwd: Path) -> None:
        self.env = env
        self.cwd = cwd
        self.live: List[subprocess.Popen] = []

    def start(self, argv: List[str], **kwargs) -> subprocess.Popen:
        kwargs.setdefault("stdin", subprocess.DEVNULL)
        proc = subprocess.Popen(argv, env=self.env, cwd=self.cwd, **kwargs)
        self.live.append(proc)
        return proc

    def repro(self, args: List[str], spans: Optional[Path],
              **kwargs) -> subprocess.Popen:
        """Start ``python -m repro ARGS``, or its traced launcher."""
        head = ([sys.executable, str(LAUNCHER), str(spans)]
                if spans is not None else [sys.executable, "-m", "repro"])
        return self.start(head + args, **kwargs)

    def wait(self, proc: subprocess.Popen, timeout: float) -> int:
        try:
            code = proc.wait(timeout=timeout)
        finally:
            if proc.poll() is not None and proc in self.live:
                self.live.remove(proc)
        return code

    def stop_all(self, procs: Optional[List[subprocess.Popen]] = None,
                 timeout: float = 20.0) -> None:
        """SIGTERM (a clean shutdown for serve/worker) to ``procs`` (all
        live ones by default) at once, wait, then SIGKILL stragglers."""
        procs = list(self.live if procs is None else procs)
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
            if proc in self.live:
                self.live.remove(proc)


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
class Http:
    """HTTP/JSON requests to the service, one connection per request.

    A fresh connection per request is what ``repro``'s own client
    (``urllib``) does.  On a kept-alive connection the server's separate
    header and body writes meet the client's delayed ACK, and every
    response stalls ~40 ms, which would measure the client, not the
    service.
    """

    def __init__(self, url: str) -> None:
        host, port = url.split("//", 1)[1].split(":")
        self.host, self.port = host, int(port)

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None,
                client: str = "e2ebench") -> Tuple[int, bytes]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"X-Client": client, "Connection": "close"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def json(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None,
             client: str = "e2ebench") -> Dict[str, Any]:
        status, payload = self.request(method, path, body, client)
        if status >= 400:
            raise BenchError(f"{method} {path} -> {status}: "
                             f"{payload[:200]!r}")
        return json.loads(payload)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Inputs from the seed; set-up, measured phase and tear-down."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 6

    def __init__(self, seed: int, seconds: float) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.specs: List[Dict[str, Any]] = []

    def setup(self, procs: Processes, work: Path,
              spans: Optional[Path]) -> Tuple[float, Any]:
        """Bring the system up; return (seconds until ready, handle)."""
        raise NotImplementedError

    def measure(self, procs: Processes, handle: Any, work: Path,
                spans: Optional[Path], deadline: float) -> Phase:
        raise NotImplementedError

    def teardown(self, procs: Processes, handle: Any) -> None:
        """Stop what :meth:`setup` started."""


class CliWorkload(Workload):
    """Repeated cold ``python -m repro run|sweep`` processes."""

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.base_seed = self.rng.randrange(1, 1_000_000)
        self.specs = [self.spec()]
        self.seconds = seconds

    def spec(self) -> Dict[str, Any]:
        raise NotImplementedError

    def argv(self, out: Path) -> List[str]:
        raise NotImplementedError

    def setup(self, procs, work, spans):
        start = time.perf_counter()
        proc = procs.start([sys.executable, "-c", "import repro.study.cli"])
        if procs.wait(proc, timeout=60) != 0:
            raise BenchError("cannot import repro.study.cli")
        return time.perf_counter() - start, None

    def measure(self, procs, handle, work, spans, deadline):
        """Run processes back to back until ``seconds`` have passed; the
        last one finishes, so ``runs_per_s`` counts whole processes."""
        phase = Phase(start=time.perf_counter())
        runs = self.specs[0]["num_runs"] * self.cells
        index = 0
        while not index or time.perf_counter() - phase.start < self.seconds:
            out = work / f"out-{index}.json"
            began = time.perf_counter()
            proc = procs.repro(self.argv(out), spans,
                               stdout=subprocess.DEVNULL)
            try:
                code = procs.wait(proc, max(1.0, deadline - began))
            except subprocess.TimeoutExpired:
                procs.stop_all([proc])
                code = None
            phase.latency_ms.append((time.perf_counter() - began) * 1e3)
            phase.attempted += 1
            if code == 0 and out.exists():
                phase.outputs.append((0, out.read_bytes()))
                phase.runs += runs
                out.unlink()
            else:
                print(f"e2ebench: CLI process exited with {code}",
                      file=sys.stderr)
                phase.failed += 1
                phase.outputs.append((0, None))
            index += 1
        phase.end = time.perf_counter()
        return phase


class Fig56(CliWorkload):
    name = "fig56-32q"
    cells = len(BENCHMARKS_32Q) * 6
    runs = 50  # the paper's seeds per cell

    def spec(self):
        return {"benchmarks": BENCHMARKS_32Q, "num_runs": self.runs,
                "base_seed": self.base_seed}

    def argv(self, out):
        args = ["run"]
        for bench in BENCHMARKS_32Q:
            args += ["--benchmark", bench]
        return args + ["--runs", str(self.runs), "--seed", str(self.base_seed),
                       "--quiet", "--out", str(out)]


class SweepCold(CliWorkload):
    name = "sweep-cold-1seed"
    cells = len(BENCHMARKS_32Q) * 6 * len(SWEEP_POINTS)

    def spec(self):
        return {"benchmarks": BENCHMARKS_32Q,
                "axes": [{"fields": ["comm_qubits_per_node",
                                     "buffer_qubits_per_node"],
                          "values": SWEEP_POINTS}],
                "num_runs": 1, "base_seed": self.base_seed}

    def argv(self, out):
        args = ["sweep"]
        for bench in BENCHMARKS_32Q:
            args += ["--benchmark", bench]
        return args + ["--axis", SWEEP_AXIS, "--runs", "1",
                       "--seed", str(self.base_seed), "--quiet",
                       "--out", str(out)]


@dataclass
class Service:
    daemon: subprocess.Popen
    url: str
    workers: List[subprocess.Popen]


class ServiceWorkload(Workload):
    """``repro serve`` (optionally with a worker fleet) driven over HTTP."""

    workers = 0
    warmup_spec: Dict[str, Any] = {}

    def setup(self, procs, work, spans):
        root = work / f"data-{time.monotonic_ns()}"
        args = ["serve", "--data-root", str(root), "--port", "0"]
        if self.workers:
            args += ["--fleet", "127.0.0.1:0"]
        start = time.perf_counter()
        daemon = procs.repro(args, spans, stdout=subprocess.PIPE, text=True)
        service = Service(daemon, "", [])
        try:
            service.url = _read_url(daemon, timeout=60)
            http = Http(service.url)
            # The fleet coordinator binds on the scheduler's thread, so
            # its address shows in /healthz a moment after the API is up.
            health = _wait_health(http, lambda h: h.get("status") == "ok" and (
                not self.workers or "fleet_stats" in h))
            if self.workers:
                address = health["fleet_stats"]["address"]
                for index in range(self.workers):
                    service.workers.append(procs.repro(
                        ["worker", "--connect", address, "--quiet",
                         "--name", f"w{index}", "--seed", str(index)],
                        spans, stdout=subprocess.DEVNULL))
                _wait_health(http, lambda h: h.get("fleet_stats", {})
                             .get("workers") == self.workers)
        except BaseException:
            self.teardown(procs, service)
            raise
        return time.perf_counter() - start, service

    def teardown(self, procs, handle):
        procs.stop_all([*handle.workers, handle.daemon])

    def warm_up(self, url: str, deadline: float) -> None:
        """Run :attr:`warmup_spec` to completion before the phase.

        It fills the daemon's compile cache and, on the fleet, ships the
        cells to the workers and warms them, so the phase measures the
        daemon as its users see it after its first job.  Its result is
        not part of the phase.
        """
        http = Http(url)
        job = http.json("POST", "/jobs", self.warmup_spec)
        while time.perf_counter() < deadline:
            state = http.json("GET", f"/jobs/{job['id']}")["state"]
            if state == "done":
                return
            if state in ("failed", "cancelled"):
                raise BenchError(f"warm-up job {job['id']} {state}")
            time.sleep(JOB_POLL_S)
        raise BenchError("warm-up job did not finish in time")

    def _await_job(self, http: Http, job_id: str, phase: Phase,
                   deadline: float) -> Optional[Dict[str, Any]]:
        """Poll until the job's results come back; fetch them.

        Returns the job status (for its time stamps), or ``None`` when
        the job failed or the deadline passed.
        """
        while time.perf_counter() < deadline:
            began = time.perf_counter()
            status, body = http.request("GET", f"/jobs/{job_id}/results")
            if status == 200:
                phase.fetch_ms.append((time.perf_counter() - began) * 1e3)
                job = http.json("GET", f"/jobs/{job_id}")
                job["body"] = body
                return job
            if status != 409 or json.loads(body).get("state") in (
                    "failed", "cancelled"):
                print(f"e2ebench: job {job_id}: {status} {body[:300]!r}",
                      file=sys.stderr)
                return None
            time.sleep(JOB_POLL_S)
        return None

    def _record(self, phase: Phase, index: int,
                job: Optional[Dict[str, Any]], due_wall: float) -> None:
        phase.attempted += 1
        if job is None or job["state"] != "done":
            print(f"e2ebench: job {index} failed: "
                  f"{job and job.get('error')}", file=sys.stderr)
            phase.failed += 1
            phase.outputs.append((index, None))
            return
        phase.outputs.append((index, job["body"]))
        phase.runs += job["total_tasks"]
        phase.latency_ms.append((job["finished"] - due_wall) * 1e3)
        phase.queue_wait_ms.append((job["started"] - job["created"]) * 1e3)
        phase.run_ms.append((job["finished"] - job["started"]) * 1e3)


class ServiceOpen(ServiceWorkload):
    name = "svc-open"
    #: Jobs per second: under half the serial daemon's capacity on a 2-CPU
    #: host, measured as 5.9 jobs/s with a backlog of 40 jobs, so that a
    #: slow spell of the host does not build a queue that outlasts it.
    rate = 2.5
    runs = 1

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        base = self.rng.randrange(1, 1_000_000)
        jobs = max(1, round(self.rate * seconds))
        # Every job has the same shape (all four 32 q benchmarks), so job
        # latency is one mode and its median is steady.  Jobs of one
        # benchmark each would differ about ten-fold (QFT-32 against
        # QAOA-r4-32) and put the median between two modes.
        self.specs = [
            {"benchmarks": BENCHMARKS_32Q, "num_runs": self.runs,
             "base_seed": base + self.runs * i}
            for i in range(jobs + 1)
        ]
        self.warmup_spec = self.specs.pop()

    def measure(self, procs, handle, work, spans, deadline):
        self.warm_up(handle.url, deadline)
        submitted: "queue.Queue" = queue.Queue()
        phase = Phase()
        clock_offset = time.time() - time.perf_counter()
        t0 = time.perf_counter() + 0.05
        phase.start = t0

        def submit_all() -> None:
            for index, spec in enumerate(self.specs):
                due = t0 + index / self.rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                phase.late_ms.append((sent - due) * 1e3)
                # Each job comes from its own user, so the per-client
                # quota never refuses the open loop.
                job = _submit(http, spec, client=f"user-{index}")
                phase.submit_ms.append((time.perf_counter() - sent) * 1e3)
                submitted.put((index, job, due + clock_offset))

        http = Http(handle.url)
        thread = threading.Thread(target=submit_all, name="e2e-submit")
        thread.start()
        try:
            for _ in self.specs:
                index, job, due_wall = submitted.get(
                    timeout=max(1.0, deadline - time.perf_counter()))
                status = (self._await_job(http, job["id"], phase, deadline)
                          if job is not None else None)
                self._record(phase, index, status, due_wall)
        finally:
            thread.join(timeout=max(1.0, deadline - time.perf_counter()))
        phase.end = time.perf_counter()
        return phase


class FleetClosed(ServiceWorkload):
    name = "fig8-64q-fleet"
    workers = 2
    #: Nominal seconds of one warm Fig 8 job on the fleet (2 CPUs).
    nominal_s = 2.0
    runs = 64

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        base = self.rng.randrange(1, 1_000_000)
        jobs = max(1, round(seconds / self.nominal_s))
        self.specs = [
            {"benchmarks": FIG8_BENCHMARKS, "num_runs": self.runs,
             "base_seed": base + self.runs * i, "system": dict(FIG8_SYSTEM)}
            for i in range(jobs)
        ]
        # Half the seeds: two chunks per cell, so both workers get cells.
        self.warmup_spec = {**self.specs[0], "num_runs": self.runs // 2,
                            "base_seed": base + self.runs * jobs}

    def measure(self, procs, handle, work, spans, deadline):
        self.warm_up(handle.url, deadline)
        http = Http(handle.url)
        clock_offset = time.time() - time.perf_counter()
        phase = Phase()
        phase.fleet_before = http.json("GET", "/healthz")["fleet_stats"]
        phase.start = time.perf_counter()
        for index, spec in enumerate(self.specs):
            due = time.perf_counter()
            job = _submit(http, spec)
            phase.submit_ms.append((time.perf_counter() - due) * 1e3)
            status = (self._await_job(http, job["id"], phase, deadline)
                      if job is not None else None)
            self._record(phase, index, status, due + clock_offset)
            phase.fleet_after = http.json("GET", "/healthz")["fleet_stats"]
        phase.end = time.perf_counter()
        return phase


WORKLOADS = {cls.name: cls for cls in (Fig56, SweepCold, ServiceOpen,
                                       FleetClosed)}


# ----------------------------------------------------------------------
def _submit(service: Http, spec: Dict[str, Any],
            client: str = "e2ebench") -> Optional[Dict[str, Any]]:
    """``POST /jobs``; ``None`` (reported) when the submit fails."""
    try:
        return service.json("POST", "/jobs", spec, client=client)
    except (BenchError, OSError, http.client.HTTPException) as error:
        print(f"e2ebench: submit failed: {error}", file=sys.stderr)
        return None


def _read_url(daemon: subprocess.Popen, timeout: float) -> str:
    """The base URL from ``repro serve``'s first stdout line."""
    ready, _, _ = select.select([daemon.stdout], [], [], timeout)
    line = daemon.stdout.readline() if ready else ""
    if "listening on" not in line:
        raise BenchError(f"repro serve did not start: {line!r}")
    return line.split("listening on", 1)[1].split()[0]


def _wait_health(http: Http, ready, timeout: float = 60.0) -> Dict[str, Any]:
    """Poll ``/healthz`` until ``ready(payload)``."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        try:
            health = http.json("GET", "/healthz")
        except (BenchError, OSError):
            health = {}
        if ready(health):
            return health
        time.sleep(POLL_S)
    raise BenchError("service did not become ready")
