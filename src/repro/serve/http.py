"""A tiny stdlib HTTP scrape endpoint: ``/metrics`` and ``/healthz``.

Attachable to anything that owns a
:class:`~repro.obs.metrics.MetricsRegistry` — the serving layer, a
benchmark, the CLI.  ``GET /metrics`` renders the registry through
:func:`~repro.obs.openmetrics.render_openmetrics` (a scrape sees the
registry as of that instant), ``GET /healthz`` answers a JSON health
document from an optional callable, anything else is 404.

Deliberately :mod:`http.server`, not a framework: the container bakes in
only the standard library, and a scrape endpoint needs nothing more.
The server runs on a daemon thread (``ThreadingHTTPServer``), binds port
0 by default so tests never collide, and is used either as a context
manager or via explicit :meth:`MetricsServer.start` /
:meth:`MetricsServer.stop`.

Thread-safety note: the registry, and the live components it reads
(:meth:`~repro.obs.metrics.MetricsRegistry.register`), are written by
the asyncio loop and read by scrape threads without locks.  That is safe
for these value types — ints/floats under the GIL, plain attribute
reads of stats objects, and dict iteration over *copies* — a scrape may
observe a torn multi-metric snapshot, never a crash or a corrupted
metric.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import CONTENT_TYPE, render_openmetrics


class MetricsServer:
    """Serve one registry's scrape endpoint on a daemon thread."""

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        health: Callable[[], dict[str, Any]] | None = None,
    ):
        self.registry = registry
        self.health = health or (lambda: {"ok": True})
        self._server = ThreadingHTTPServer(
            (host, port), self._handler_class()
        )
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the handler ---------------------------------------------------------

    def _handler_class(self) -> type[BaseHTTPRequestHandler]:
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                if self.path in ("/metrics", "/metrics/"):
                    body = render_openmetrics(outer.registry).encode("utf-8")
                    self._reply(200, CONTENT_TYPE, body)
                elif self.path in ("/healthz", "/healthz/"):
                    body = json.dumps(
                        outer.health(), sort_keys=True
                    ).encode("utf-8")
                    self._reply(200, "application/json", body)
                else:
                    self._reply(
                        404, "text/plain; charset=utf-8", b"not found\n"
                    )

            def _reply(self, code: int, ctype: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrape traffic must not spam stderr

        return Handler


__all__ = ["MetricsServer"]
