"""The HTTP/JSON surface of the study daemon (stdlib ``http.server``).

Endpoints (all JSON unless noted)::

    POST /jobs                    submit a study spec → 201 {job}
                                  400 structured SpecValidationError payload
                                  429 quota-exceeded payload
    GET  /jobs[?state=…&client=…] list jobs + the caller's quota accounting
    GET  /jobs/<id>               job state + live progress + resume point
    GET  /jobs/<id>/results       results from the job's store
         ?format=json|csv         (text/csv for csv); 409 until done
    POST /jobs/<id>/cancel        cooperative cancel → resulting state
    GET  /healthz                 liveness + job-state counts

Tenancy is the ``X-Client`` request header (default ``anonymous``);
priority is the ``X-Priority`` header on submit.  The server is a
``ThreadingHTTPServer`` with daemon threads: requests never block the
scheduler, and status polling stays responsive while jobs run.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.exceptions import SpecValidationError
from repro.service.daemon import JobNotReady, QuotaError, StudyDaemon
from repro.service.jobs import JobError

__all__ = ["build_server", "ServiceRequestHandler"]

#: Submission bodies larger than this are rejected outright (a study spec
#: is a few KB; anything megabytes-large is a mistake or abuse).
MAX_BODY_BYTES = 8 * 1024 * 1024

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)$")
_RESULTS_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)/results$")
_CANCEL_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)/cancel$")


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading server carrying the daemon for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], handler,
                 daemon: StudyDaemon) -> None:
        super().__init__(address, handler)
        self.study_daemon = daemon


def build_server(daemon: StudyDaemon, host: str,
                 port: int) -> ServiceHTTPServer:
    """Bind the API server (``port=0`` picks an ephemeral port)."""
    return ServiceHTTPServer((host, port), ServiceRequestHandler, daemon)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Route one request to the daemon and serialise the response."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    # Headers and body are separate small writes; with Nagle's algorithm
    # the body would wait for the client's delayed ACK (~40 ms per
    # response on a kept-alive connection).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def daemon(self) -> StudyDaemon:
        return self.server.study_daemon

    @property
    def client_name(self) -> str:
        return self.headers.get("X-Client", "anonymous").strip() or "anonymous"

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr chatter (the CLI owns the terminal)."""

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send_text(status, json.dumps(payload, indent=2) + "\n",
                        "application/json")

    def _send_text(self, status: int, text: str,
                   content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Optional[Dict[str, Any]]:
        """The request body as a JSON object, or ``None`` after a 400."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {
                "error": "invalid-body",
                "message": f"Content-Length must be 0..{MAX_BODY_BYTES}",
            })
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._send_json(400, {
                "error": "invalid-json",
                "message": f"request body is not valid JSON: {error}",
            })
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {
                "error": "invalid-json",
                "message": "request body must be a JSON object (a study "
                           "spec)",
            })
            return None
        return payload

    def _not_found(self) -> None:
        self._send_json(404, {"error": "not-found",
                              "message": f"no route for {self.path}"})

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        query = parse_qs(url.query)
        try:
            if url.path == "/healthz":
                self._send_json(200, self.daemon.health())
            elif url.path == "/jobs":
                state = (query.get("state") or [None])[0]
                client = (query.get("client") or [None])[0]
                try:
                    jobs = self.daemon.list_jobs(client=client, state=state)
                except ValueError:
                    self._send_json(400, {
                        "error": "invalid-filter",
                        "message": f"unknown state filter {state!r}",
                    })
                    return
                self._send_json(200, {
                    "jobs": jobs,
                    "quota": self.daemon.quota(self.client_name),
                })
            elif _RESULTS_PATH.match(url.path):
                self._get_results(_RESULTS_PATH.match(url.path).group(1),
                                  query)
            elif _JOB_PATH.match(url.path):
                job_id = _JOB_PATH.match(url.path).group(1)
                self._send_json(200, self.daemon.job_status(job_id))
            else:
                self._not_found()
        except JobError as error:
            self._send_json(404, {"error": "unknown-job",
                                  "message": str(error)})
        except Exception as error:  # noqa: BLE001 - daemon must survive
            self._send_json(500, {"error": "internal",
                                  "message": f"{type(error).__name__}: "
                                             f"{error}"})

    def _get_results(self, job_id: str, query: Dict[str, Any]) -> None:
        fmt = (query.get("format") or ["json"])[0]
        if fmt not in ("json", "csv"):
            self._send_json(400, {
                "error": "invalid-format",
                "message": f"format must be json or csv, got {fmt!r}",
            })
            return
        try:
            text = self.daemon.results(job_id, fmt)
        except JobNotReady as error:
            self._send_json(409, error.to_dict())
            return
        self._send_text(
            200, text,
            "text/csv" if fmt == "csv" else "application/json")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        try:
            if url.path == "/jobs":
                self._post_job()
            elif _CANCEL_PATH.match(url.path):
                job_id = _CANCEL_PATH.match(url.path).group(1)
                state = self.daemon.cancel(job_id)
                self._send_json(200, {"id": job_id, "state": state.value})
            else:
                self._not_found()
        except JobError as error:
            self._send_json(404, {"error": "unknown-job",
                                  "message": str(error)})
        except Exception as error:  # noqa: BLE001 - daemon must survive
            self._send_json(500, {"error": "internal",
                                  "message": f"{type(error).__name__}: "
                                             f"{error}"})

    def _post_job(self) -> None:
        spec = self._read_json_body()
        if spec is None:
            return
        try:
            priority = int(self.headers.get("X-Priority", "0"))
        except ValueError:
            self._send_json(400, {
                "error": "invalid-priority",
                "message": "X-Priority must be an integer",
            })
            return
        try:
            job = self.daemon.submit(spec, client=self.client_name,
                                     priority=priority)
        except SpecValidationError as error:
            self._send_json(400, error.to_dict())
            return
        except QuotaError as error:
            self._send_json(429, error.to_dict())
            return
        self._send_json(201, job.summary())
