"""HTTP front end: query POST endpoints over the live telemetry server.

:class:`ServingServer` subclasses
:class:`~repro.telemetry.server.TelemetryServer`, so one port serves both
the query API and the full observability surface (``/metrics``,
``/health``, ``/progress``, ``/spans``) of the resident machine:

* ``POST /lca``     — ``{"us": [...], "vs": [...]}`` → ``{"lca": [...]}``.
  The handler thread enqueues into the service's windowed queue and blocks
  on its request event; the single worker thread answers whole windows.
* ``POST /treefix`` — ``{"values": [...]}`` → ``{"sums": [...]}``.
* ``POST /cuts``    — ``{"extra_edges": [[u, v], ...]}`` →
  ``{"cut": [...], "min_vertex": v, "min_value": w}``.
* ``GET  /serving`` — boot info + live service stats (JSON twin of the
  ``repro_serve_*`` Prometheus families).

Error mapping is the admission-control contract:
:class:`~repro.errors.ValidationError` → 400,
:class:`~repro.errors.ServeQueueFullError` (shed) → 429,
:class:`~repro.errors.ServeDrainingError` (shutdown) → 503,
``TimeoutError`` → 504, anything else the worker raised → 500.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler

import numpy as np

from repro.errors import (
    ServeDrainingError,
    ServeQueueFullError,
    ValidationError,
)
from repro.serving.service import BootInfo, QueryService
from repro.telemetry.server import DEFAULT_HOST, TelemetryServer

#: refuse request bodies beyond this size (a 10^6-query batch is ~16 MB)
MAX_BODY_BYTES = 64 * 1024 * 1024

#: how long a handler thread waits for the worker before answering 504
REQUEST_TIMEOUT_S = 60.0


class ServingServer(TelemetryServer):
    """One port, two surfaces: query POSTs + the read-only telemetry GETs."""

    def __init__(
        self,
        service: QueryService,
        *,
        boot: BootInfo | None = None,
        port: int = 0,
        host: str = DEFAULT_HOST,
        span_tracer=None,
        watchdog=None,
        extra_publishers=(),
        request_timeout_s: float = REQUEST_TIMEOUT_S,
    ) -> None:
        self.service = service
        self.boot = boot
        self.request_timeout_s = float(request_timeout_s)
        super().__init__(
            service.st.machine,
            port=port,
            host=host,
            span_tracer=span_tracer,
            watchdog=watchdog,
            extra_publishers=(service.publish, *extra_publishers),
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        """Graceful exit: refuse new queries, flush the queue, stop HTTP.

        In-flight requests drain to completion before the socket closes —
        the SIGTERM contract the CI smoke test exercises.
        """
        self.service.drain()
        self.mark_done()
        self.stop()

    # ------------------------------------------------------------------ #
    # GET /serving
    # ------------------------------------------------------------------ #

    def extra_endpoints(self) -> tuple[str, ...]:
        return ("/serving", "POST /lca", "POST /treefix", "POST /cuts")

    def _handle_get_extra(self, handler, route: str, parsed) -> bool:
        del parsed
        if route != "/serving":
            return False
        self._send_json(handler, self.serving())
        return True

    def serving(self) -> dict:
        """JSON body of ``GET /serving``."""
        out = {"service": self.service.describe()}
        if self.boot is not None:
            out["boot"] = asdict(self.boot)
        return out

    # ------------------------------------------------------------------ #
    # POST query endpoints
    # ------------------------------------------------------------------ #

    def _handle_post(self, handler: BaseHTTPRequestHandler) -> None:
        route = handler.path.rstrip("/") or "/"
        op = {"/lca": "lca", "/treefix": "treefix", "/cuts": "cuts"}.get(route)
        try:
            if op is None:
                self._send_json(
                    handler,
                    {"error": f"unknown POST endpoint {route!r}",
                     "endpoints": ["/lca", "/treefix", "/cuts"]},
                    status=404,
                )
                return
            payload = self._read_json(handler)
            self._send_json(handler, self._answer(op, payload))
        except ValidationError as exc:
            self._safe_error(handler, 400, exc)
        except ServeQueueFullError as exc:
            self._safe_error(handler, 429, exc)
        except ServeDrainingError as exc:
            self._safe_error(handler, 503, exc)
        except TimeoutError as exc:
            self._safe_error(handler, 504, exc)
        except Exception as exc:  # noqa: BLE001 - a request must never kill the server
            self._safe_error(handler, 500, exc)

    def _safe_error(self, handler, status: int, exc: Exception) -> None:
        try:
            self._send_json(
                handler, {"error": f"{type(exc).__name__}: {exc}"}, status=status
            )
        except OSError:
            self._dropped_responses += 1  # client hung up mid-error reply

    def _read_json(self, handler: BaseHTTPRequestHandler) -> dict:
        try:
            length = int(handler.headers.get("Content-Length", "0"))
        except ValueError:
            raise ValidationError("Content-Length must be an integer") from None
        if length <= 0:
            raise ValidationError("request body required (JSON object)")
        if length > MAX_BODY_BYTES:
            raise ValidationError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = handler.rfile.read(length)
        try:
            payload = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
            raise ValidationError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        return payload

    def _answer(self, op: str, payload: dict) -> dict:
        """Enqueue, block for the worker's answer, shape the response."""
        request = self.service.submit(op, payload)
        result = request.wait(self.request_timeout_s)
        latency = round(request.latency_s, 6)
        if op == "lca":
            return {"lca": np.asarray(result).tolist(), "latency_seconds": latency}
        if op == "treefix":
            return {"sums": np.asarray(result).tolist(), "latency_seconds": latency}
        vertex, value = result.minimum(self.service.st.tree)
        return {
            "cut": np.asarray(result.cut).tolist(),
            "min_vertex": vertex,
            "min_value": value,
            "latency_seconds": latency,
        }
