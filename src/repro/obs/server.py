"""The HTTP endpoint: :class:`MetricsServer` over the exporter routes.

A tiny :mod:`http.server` daemon answering GETs from
:data:`~repro.obs.exporters.ROUTES`.  Its own module so that only a
process that serves (:meth:`~repro.obs.core.Observability.serve`)
imports :mod:`http.server`.  Bind port 0 for an ephemeral port (tests
do); the bound port is available as :attr:`MetricsServer.port`.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional

from ..errors import ObservabilityError
from .exporters import ROUTES, _json_reply


class _MetricsHandler(BaseHTTPRequestHandler):
    """Routes GETs to the owning server's observability handle."""

    server: "MetricsServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.partition("?")[0].rstrip("/") or "/"
        handler = ROUTES.get(path)
        if handler is None:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")
            return
        try:
            status, content_type, body = handler(self.server.observability)
        except Exception as exc:
            # A broken route answers 500; it must never hang the scrape
            # loop or kill the serving thread.
            status, content_type, body = _json_reply({"error": repr(exc)}, 500)
        self._reply(status, content_type, body)

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        # Scrapes every few seconds would otherwise spam stderr.
        pass


class MetricsServer(ThreadingHTTPServer):
    """A daemon-threaded HTTP server over one observability handle.

    Usage::

        server = MetricsServer(obs, port=9464).start()
        ...                       # curl localhost:9464/metrics
        server.stop()

    The listening socket binds in ``__init__`` (so :attr:`port` is real
    immediately, even with ``port=0``); :meth:`start` launches the
    serving thread.
    """

    daemon_threads = True

    def __init__(
        self, observability: Any, port: int = 0, host: str = "127.0.0.1"
    ) -> None:
        self.observability = observability
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _MetricsHandler)

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._thread is not None:
            raise ObservabilityError("metrics server already started")
        self._thread = threading.Thread(
            target=self.serve_forever,
            name=f"repro-metrics-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self.shutdown()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.server_close()
