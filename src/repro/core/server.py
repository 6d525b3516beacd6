"""Local JSON API over a running :class:`~repro.core.livetail.LiveTailDaemon`.

Stdlib-only (``http.server``), bound to loopback by default, one thread
per request (queries take the daemon lock, so responses are consistent
snapshots of the running aggregates):

- ``GET /healthz``          — liveness + progress counters
- ``GET /tables``           — the registry table names with titles and
  per-table sampling status
- ``GET /tables/<name>``    — one rendered table (title, headers, rows,
  notes) plus its sampling status (offered/admitted/correction when the
  admission controller ever sampled it)
- ``GET /metrics``          — the run metrics registry state
- ``GET /ingest``           — both streams' ingest reports
- ``POST /checkpoint``      — force a checkpoint now (returns its path)
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from repro.core.export import table_to_dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.livetail import LiveTailDaemon


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-livetail/1"

    @property
    def daemon(self) -> "LiveTailDaemon":
        return self.server.daemon  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        pass  # the daemon's stdout is the operator channel, not access logs

    def _send_json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _not_found(self, what: str) -> None:
        self._send_json({"error": f"unknown path {what!r}"}, status=404)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/") or "/"
        daemon = self.daemon
        if path == "/healthz":
            self._send_json(daemon.health())
            return
        if path == "/metrics":
            with daemon.lock:
                daemon.engine.publish_metrics()
                self._send_json(daemon.engine.metrics.state_dict())
            return
        if path == "/ingest":
            self._send_json(daemon.ingest_summary())
            return
        if path == "/tables":
            with daemon.lock:
                tables = daemon.engine.tables()
                self._send_json({
                    "tables": [
                        {
                            "name": name,
                            "title": entry["table"].title,
                            "sampling": entry["sampling"],
                        }
                        for name, entry in tables.items()
                    ]
                })
            return
        if path.startswith("/tables/"):
            name = path[len("/tables/"):]
            with daemon.lock:
                tables = daemon.engine.tables()
                entry = tables.get(name)
                if entry is None:
                    self._send_json(
                        {
                            "error": f"unknown table {name!r}",
                            "known": sorted(tables),
                        },
                        status=404,
                    )
                    return
                payload = table_to_dict(entry["table"])
                payload["name"] = name
                payload["sampling"] = entry["sampling"]
                self._send_json(payload)
            return
        self._not_found(path)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/")
        if path == "/checkpoint":
            written = self.daemon.checkpoint()
            self._send_json({"checkpoint": str(written)})
            return
        self._not_found(path)


class LiveTailServer:
    """The daemon's HTTP front end, served from a background thread."""

    def __init__(
        self, daemon: "LiveTailDaemon", host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.daemon = daemon
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.daemon = daemon  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="livetail-http", daemon=True
        )

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> None:
        self._thread.start()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
