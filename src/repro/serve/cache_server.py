"""Live shared mapping cache: a TCP server fronting one
:class:`~repro.mapping.cache.MappingCache`, and a client that stands in
for a local cache anywhere one is accepted.

A process-local cache is shared only by the runs of one process (and,
through its file, by later runs).  :class:`CacheServer` widens that to
every run pointed at it: runs on other processes or machines read and
write one live table, so a mapping searched once — and harvested at the
end of the batch that searched it — is a hit for every later batch of
every run, while those runs are still going.

Protocol: newline-delimited JSON over a persistent TCP connection.  Each
request is ``{"op": ..., ...}`` and each response ``{"ok": true, ...}``
(or ``{"ok": false, "error": msg}``).  Keys travel in their normalized
string form (:func:`~repro.mapping.cache.normalize_key`) and entries as
the JSON encoding already used by the persistent cache format, so the
wire format and the disk format stay in lockstep.

The server can periodically snapshot its table to disk through
:meth:`MappingCache.save` — atomic and merge-on-save, in the unchanged
persistent format — so a long-lived server doubles as the writer of the
cache file that cold runs pre-warm from.
"""

from __future__ import annotations

import hmac
import json
import os
import socket
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Hashable, Iterable, Mapping

from .. import obs
from ..mapping.cache import (
    MappingCache,
    decode_search_result,
    encode_search_result,
    normalize_key,
)
from ..mapping.loma import SearchResult
from ..obs.metrics import MetricsRegistry

#: Environment variable supplying the shared-secret token when neither
#: ``CacheClient(token=...)`` nor ``repro serve --auth-token`` is given.
AUTH_TOKEN_ENV = "REPRO_AUTH_TOKEN"


class CacheServerError(RuntimeError):
    """A cache-server request failed (server-side error or lost link)."""


def _token_matches(given: object, expected: str) -> bool:
    """Constant-time token check; a missing or non-string token fails."""
    return isinstance(given, str) and hmac.compare_digest(
        given.encode(), expected.encode()
    )


def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """Normalize ``"host:port"`` (or a ``(host, port)`` pair) to a tuple."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    text = address.strip()
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cache-server address must be HOST:PORT, got {address!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"cache-server address must be HOST:PORT, got {address!r}"
        ) from None


def format_address(address: tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: serve JSON-line requests until EOF."""

    def handle(self) -> None:
        server: CacheServer = self.server.cache_server  # type: ignore[attr-defined]
        server._connection_opened()
        try:
            while True:
                line = self.rfile.readline()
                if not line:
                    break
                request: dict = {}
                try:
                    decoded = json.loads(line)
                    if not isinstance(decoded, dict):
                        raise ValueError("request must be a JSON object")
                    request = decoded
                    response = server.handle_request(request)
                except Exception as exc:  # noqa: BLE001 - reported to the client
                    response = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                self.wfile.write(json.dumps(response).encode() + b"\n")
                self.wfile.flush()
                if request.get("op") == "shutdown" and response.get("ok"):
                    break
        finally:
            server._connection_closed()


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _MetricsHandler(BaseHTTPRequestHandler):
    """Stdlib HTTP front for :meth:`CacheServer.export_metrics`.

    Serves ``GET /metrics`` (Prometheus text exposition) and
    ``GET /healthz``.  Exposes *aggregate numbers only* — never table
    contents — so a fleet can be scraped without distributing the cache
    auth token; the JSON-line data plane stays behind the token.
    """

    server_version = "repro-metrics"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        cache_server: CacheServer = self.server.cache_server  # type: ignore[attr-defined]
        path = self.path.partition("?")[0].rstrip("/") or "/"
        if path == "/metrics":
            body = cache_server.export_metrics().render_prometheus().encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path in ("/", "/healthz"):
            body = b"ok\n"
            content_type = "text/plain; charset=utf-8"
        else:
            body = b"not found: try /metrics or /healthz\n"
            self.send_response(404)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Scrapes are periodic; stderr chatter would drown the run."""


class _HTTPServer(ThreadingHTTPServer):
    allow_reuse_address = True
    daemon_threads = True


class CacheServer:
    """Serves one live :class:`MappingCache` table to many clients.

    Parameters
    ----------
    cache:
        The fronted cache.  Passing the handle an :class:`Executor`
        already owns means everything the workers learn lands in the
        caller's cache the moment it is put — no harvest step.  A
        private cache is created when omitted.
    host, port:
        Bind address; port ``0`` (default) picks a free port, reported
        by :attr:`address` after :meth:`start`.
    snapshot_path:
        Optional JSON file for periodic + final snapshots (the unchanged
        persistent cache format, written atomically with merge-on-save).
    snapshot_interval:
        Seconds between periodic snapshots (requires ``snapshot_path``);
        ``None`` snapshots only on :meth:`stop`.
    auth_token:
        Optional shared secret.  When set, every request (``metrics``
        and ``stats`` included) must carry a matching ``"token"`` field
        — clients pass ``CacheClient(token=...)`` or set the
        ``REPRO_AUTH_TOKEN`` environment variable — and requests
        without one get a clean JSON error instead of service.
    metrics_port:
        When not ``None``, also serve an HTTP ``GET /metrics``
        Prometheus exposition (plus ``/healthz``) on this port — ``0``
        picks a free one, reported by :attr:`metrics_address` after
        :meth:`start`.  Numbers only, unauthenticated by design; see
        :class:`_MetricsHandler`.
    """

    def __init__(
        self,
        cache: MappingCache | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_path: "str | Path | None" = None,
        snapshot_interval: float | None = None,
        auth_token: str | None = None,
        metrics_port: int | None = None,
    ) -> None:
        if snapshot_interval is not None:
            if snapshot_path is None:
                raise ValueError("snapshot_interval requires snapshot_path")
            if snapshot_interval <= 0:
                raise ValueError(
                    f"snapshot_interval must be > 0, got {snapshot_interval}"
                )
        self.cache = cache if cache is not None else MappingCache()
        self.snapshot_path = (
            Path(snapshot_path) if snapshot_path is not None else None
        )
        self.snapshot_interval = snapshot_interval
        self._bind = (host, port)
        self._lock = threading.RLock()
        self._stop_lock = threading.Lock()
        #: Set once a stop (including its final snapshot) has finished;
        #: lets concurrent stop() callers wait instead of racing past.
        self._stop_done = threading.Event()
        self._stop_done.set()
        # The ownership handoff in stop() runs under _stop_lock; the
        # single start() call happens before any concurrent access
        # exists, and the thread/server handles are only touched by
        # the start/stop caller — hence <owner>, not a lock.
        self._server: _TCPServer | None = None  # guarded-by: _stop_lock
        self._thread: threading.Thread | None = None  # guarded-by: <owner>
        self._snapshot_thread: threading.Thread | None = None  # guarded-by: <owner>
        self.metrics_port = metrics_port
        self._http_server: _HTTPServer | None = None  # guarded-by: <owner>
        self._http_thread: threading.Thread | None = None  # guarded-by: <owner>
        self._stopping = threading.Event()
        self.auth_token = auth_token
        self.requests = {"get": 0, "put": 0, "put_many": 0, "snapshot": 0}  # guarded-by: _lock
        self.snapshots_written = 0  # guarded-by: _lock
        self.unauthorized = 0  # guarded-by: _counter_lock
        # Live load counters (read under _counter_lock): open client
        # connections, requests currently being handled, and requests
        # blocked waiting for the shared-table lock (queue depth).
        self._counter_lock = threading.Lock()
        self.connections = 0  # guarded-by: _counter_lock
        self.connections_total = 0  # guarded-by: _counter_lock
        self.in_flight = 0  # guarded-by: _counter_lock
        self.queue_depth = 0  # guarded-by: _counter_lock

    # ------------------------------------------------------------------
    # Load accounting
    # ------------------------------------------------------------------
    def _connection_opened(self) -> None:
        with self._counter_lock:
            self.connections += 1
            self.connections_total += 1

    def _connection_closed(self) -> None:
        with self._counter_lock:
            self.connections -= 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CacheServer":
        if self._server is not None:
            return self
        server = _TCPServer(self._bind, _Handler)
        server.cache_server = self  # type: ignore[attr-defined]
        self._server = server
        self._stopping.clear()
        self._stop_done.clear()
        self._thread = threading.Thread(
            target=server.serve_forever, name="cache-server", daemon=True
        )
        self._thread.start()
        if self.snapshot_interval is not None:
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop,
                name="cache-server-snapshot",
                daemon=True,
            )
            self._snapshot_thread.start()
        if self.metrics_port is not None:
            http_server = _HTTPServer(
                (self._bind[0], self.metrics_port), _MetricsHandler
            )
            http_server.cache_server = self  # type: ignore[attr-defined]
            self._http_server = http_server
            self._http_thread = threading.Thread(
                target=http_server.serve_forever,
                name="cache-server-metrics",
                daemon=True,
            )
            self._http_thread.start()
        return self

    def stop(self, save: bool = True) -> None:
        """Shut the server down; with ``save`` (default), write a final
        snapshot when a ``snapshot_path`` is configured.

        Safe to call from several threads (e.g. the remote ``shutdown``
        op and the ``repro serve`` foreground loop): exactly one caller
        performs the teardown, and the others block until it has
        finished — including the final snapshot, so no caller can
        report completion while the snapshot is still being written.
        """
        with self._stop_lock:
            server, self._server = self._server, None
        if server is None:
            # Someone else is (or has finished) stopping: wait for the
            # teardown — final snapshot included — to complete.
            self._stop_done.wait(timeout=30.0)
            return
        try:
            self._stopping.set()
            server.shutdown()
            server.server_close()
            if self._http_server is not None:
                self._http_server.shutdown()
                self._http_server.server_close()
                self._http_server = None
            if self._http_thread is not None:
                self._http_thread.join(timeout=5.0)
                self._http_thread = None
            if self._thread is not None:
                self._thread.join(timeout=5.0)
                self._thread = None
            if self._snapshot_thread is not None:
                self._snapshot_thread.join(timeout=5.0)
                self._snapshot_thread = None
            if save and self.snapshot_path is not None:
                self.save_snapshot()
        finally:
            self._stop_done.set()

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); the real port once started."""
        if self._server is not None:
            host, port = self._server.server_address[:2]
            return str(host), int(port)
        return self._bind

    @property
    def metrics_address(self) -> "tuple[str, int] | None":
        """The HTTP metrics endpoint's (host, port), or ``None`` when
        no ``metrics_port`` was configured / the server is stopped."""
        if self._http_server is None:
            return None
        host, port = self._http_server.server_address[:2]
        return str(host), int(port)

    def describe(self) -> str:
        return format_address(self.address)

    def __enter__(self) -> "CacheServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Snapshotting
    # ------------------------------------------------------------------
    def save_snapshot(self, path: "str | Path | None" = None) -> Path:
        """Atomically write the current table in the persistent cache
        format (merge-on-save: concurrent writers are never clobbered)."""
        target = Path(path) if path is not None else self.snapshot_path
        if target is None:
            raise ValueError("cache server has no snapshot path; pass one")
        with self._lock:
            written = self.cache.save(target)
            self.snapshots_written += 1
        return written

    def _snapshot_loop(self) -> None:
        while not self._stopping.wait(self.snapshot_interval):
            self.save_snapshot()

    # ------------------------------------------------------------------
    # Request dispatch (also callable directly, e.g. in tests)
    # ------------------------------------------------------------------
    def handle_request(self, request: Mapping) -> dict:
        if self.auth_token is not None and not _token_matches(
            request.get("token"), self.auth_token
        ):
            # A clean, structured rejection — never an exception, so
            # unauthenticated probes cannot distinguish ops, and every
            # op (metrics/stats included) is behind the same gate.
            with self._counter_lock:
                self.unauthorized += 1
            return {
                "ok": False,
                "error": "authentication failed: missing or invalid token "
                "(pass CacheClient(token=...) or set "
                f"{AUTH_TOKEN_ENV})",
                "unauthorized": True,
            }
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            raise ValueError(f"unknown cache-server op {op!r}")
        with self._counter_lock:
            self.in_flight += 1
            self.queue_depth += 1
        # The table lock serializes op bodies; time spent blocking on it
        # here is "queued", time past it "in flight" (the RLock makes the
        # ops' own acquisitions reentrant no-ops on this thread).
        try:
            with self._lock:
                with self._counter_lock:
                    self.queue_depth -= 1
                return handler(request)
        finally:
            with self._counter_lock:
                self.in_flight -= 1

    def _op_ping(self, request: Mapping) -> dict:
        return {"ok": True, "pong": True, "size": len(self.cache)}

    def _op_get(self, request: Mapping) -> dict:
        key = request["key"]
        with self._lock:
            self.requests["get"] += 1
            entry = self.cache.get(key)
        if entry is None:
            return {"ok": True, "found": False}
        return {"ok": True, "found": True, "entry": encode_search_result(entry)}

    def _op_put(self, request: Mapping) -> dict:
        result = decode_search_result(request["entry"])
        with self._lock:
            self.requests["put"] += 1
            self.cache.put(request["key"], result)
        return {"ok": True}

    def _op_put_many(self, request: Mapping) -> dict:
        entries = {
            key: decode_search_result(data)
            for key, data in request["entries"].items()
        }
        with self._lock:
            self.requests["put_many"] += 1
            new = self.cache.merge(entries)
        return {"ok": True, "new": new}

    def _op_snapshot(self, request: Mapping) -> dict:
        with self._lock:
            self.requests["snapshot"] += 1
            entries = {
                key: encode_search_result(result)
                for key, result in self.cache.snapshot().items()
            }
        return {"ok": True, "entries": entries}

    def _op_keys(self, request: Mapping) -> dict:
        with self._lock:
            keys = sorted(self.cache.keys())
        return {"ok": True, "keys": keys}

    def _op_stats(self, request: Mapping) -> dict:
        with self._lock:
            stats = dict(self.cache.stats)
            stats["requests"] = dict(self.requests)
            stats["snapshots_written"] = self.snapshots_written
        with self._counter_lock:
            stats["connections"] = self.connections
            stats["connections_total"] = self.connections_total
            # Includes this very stats request, so >= 1 when served
            # over the wire.
            stats["in_flight"] = self.in_flight
            stats["queue_depth"] = self.queue_depth
            stats["unauthorized"] = self.unauthorized
        return {"ok": True, "stats": stats}

    def export_metrics(self) -> MetricsRegistry:
        """The server's state as a metrics registry: cache counters,
        per-op request totals and live load gauges, merged with this
        process's global telemetry registry when telemetry is on (an
        embedded server then also exports its executor's counters)."""
        registry = MetricsRegistry()
        if obs.enabled:
            registry.merge(obs.metrics())
        with self._lock:
            cache_stats = dict(self.cache.stats)
            requests = dict(self.requests)
            snapshots = self.snapshots_written
        with self._counter_lock:
            connections = self.connections
            connections_total = self.connections_total
            in_flight = self.in_flight
            queue_depth = self.queue_depth
            unauthorized = self.unauthorized
        registry.counter("cache_server_hits_total").inc(cache_stats["hits"])
        registry.counter("cache_server_misses_total").inc(cache_stats["misses"])
        registry.gauge("cache_server_entries").set(cache_stats["size"])
        for op, count in requests.items():
            registry.counter("cache_server_requests_total", op=op).inc(count)
        registry.counter("cache_server_snapshots_total").inc(snapshots)
        registry.counter("cache_server_unauthorized_total").inc(unauthorized)
        registry.gauge("cache_server_connections").set(connections)
        registry.counter("cache_server_connections_total").inc(connections_total)
        registry.gauge("cache_server_in_flight").set(in_flight)
        registry.gauge("cache_server_queue_depth").set(queue_depth)
        return registry

    def _op_metrics(self, request: Mapping) -> dict:
        """Prometheus text + JSON dump of :meth:`export_metrics` (the
        observability endpoint the ROADMAP's fleet mode needs)."""
        registry = self.export_metrics()
        return {
            "ok": True,
            "text": registry.render_prometheus(),
            "json": registry.to_json(),
        }

    def _op_save(self, request: Mapping) -> dict:
        path = request.get("path") or self.snapshot_path
        if path is None:
            raise ValueError("server has no snapshot path; pass one")
        return {"ok": True, "path": str(self.save_snapshot(path))}

    def _op_shutdown(self, request: Mapping) -> dict:
        # shutdown() blocks until serve_forever returns, so it must run
        # off the handler thread that is executing this very request.
        threading.Thread(target=self.stop, daemon=True).start()
        return {"ok": True}


class CacheClient:
    """A :class:`MappingCache` stand-in backed by a :class:`CacheServer`.

    Implements the full cache surface the engines and executors use —
    ``get``/``put`` on the hot path, ``snapshot``/``merge``/``keys``/
    ``delta`` for the process pool's pre-warm + harvest — so a client
    can be dropped anywhere a :class:`MappingCache` is accepted (e.g.
    ``Executor(cache=CacheClient("host:1234"))``).

    Reads are cached locally: a key fetched or put once is (while it
    stays within ``local_bound``, oldest-out) never requested again, so
    the server mostly sees first-touch traffic.  A *server-side* hit
    therefore always means one client benefiting from an entry another
    client produced.  The bound keeps long-lived clients at flat
    memory; an evicted key is simply re-fetched.
    """

    #: Default capacity of the local read cache.
    DEFAULT_LOCAL_BOUND = 4096

    def __init__(
        self,
        address: "str | tuple[str, int]",
        timeout: float = 60.0,
        local_bound: int | None = DEFAULT_LOCAL_BOUND,
        token: str | None = None,
    ) -> None:
        if local_bound is not None and local_bound < 1:
            raise ValueError(f"local_bound must be >= 1, got {local_bound}")
        self.address = parse_address(address)
        self.timeout = timeout
        self.local_bound = local_bound
        # Shared-secret auth: an explicit token wins; otherwise the
        # environment supplies one (forked workers inherit it), and
        # None means "server does not require auth".
        self.token = token if token is not None else os.environ.get(AUTH_TOKEN_ENV)
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._file = None
        self._local: dict[str, SearchResult] = {}
        self.hits = 0
        self.misses = 0
        try:
            self.ping()  # fail fast on a bad address or rejected token
        except CacheServerError:
            self.close()
            raise

    def _remember(self, text: str, result: SearchResult) -> None:
        self._local[text] = result
        if self.local_bound is not None:
            while len(self._local) > self.local_bound:
                del self._local[next(iter(self._local))]

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _request(self, payload: dict) -> dict:
        if self.token is not None:
            payload = {**payload, "token": self.token}
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        self.address, timeout=self.timeout
                    )
                    self._file = self._sock.makefile("rb")
                self._sock.sendall(json.dumps(payload).encode() + b"\n")
                line = self._file.readline()
            except OSError as exc:
                self._drop_connection()
                raise CacheServerError(
                    f"cache server {format_address(self.address)} "
                    f"unreachable: {exc}"
                ) from exc
            if not line:
                self._drop_connection()
                raise CacheServerError(
                    f"cache server {format_address(self.address)} "
                    "closed the connection"
                )
        response = json.loads(line)
        if not response.get("ok"):
            raise CacheServerError(
                response.get("error", "cache server request failed")
            )
        return response

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._file = None

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "CacheClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # MappingCache surface
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> SearchResult | None:
        text = normalize_key(key)
        entry = self._local.get(text)
        if entry is not None:
            self.hits += 1
            if obs.enabled:
                obs.metrics().counter(
                    "cache_client_gets_total", result="local"
                ).inc()
            return entry
        t0 = time.monotonic() if obs.enabled else 0.0
        response = self._request({"op": "get", "key": text})
        if obs.enabled:
            registry = obs.metrics()
            registry.histogram("cache_client_get_seconds").observe(
                time.monotonic() - t0
            )
            registry.counter(
                "cache_client_gets_total",
                result="hit" if response["found"] else "miss",
            ).inc()
        if not response["found"]:
            self.misses += 1
            return None
        entry = decode_search_result(response["entry"])
        self._remember(text, entry)
        self.hits += 1
        return entry

    def put(self, key: Hashable, result: SearchResult) -> None:
        text = normalize_key(key)
        self._remember(text, result)
        t0 = time.monotonic() if obs.enabled else 0.0
        self._request(
            {"op": "put", "key": text, "entry": encode_search_result(result)}
        )
        if obs.enabled:
            obs.metrics().histogram("cache_client_put_seconds").observe(
                time.monotonic() - t0
            )

    def snapshot(self) -> dict[str, SearchResult]:
        """The server's full table (also refreshes the local read cache)."""
        response = self._request({"op": "snapshot"})
        entries = {
            key: decode_search_result(data)
            for key, data in response["entries"].items()
        }
        for text, entry in entries.items():
            self._remember(text, entry)
        return entries

    def merge(self, entries: Mapping[str, SearchResult]) -> int:
        if not entries:
            return 0
        for text, entry in entries.items():
            self._remember(text, entry)
        t0 = time.monotonic() if obs.enabled else 0.0
        response = self._request(
            {
                "op": "put_many",
                "entries": {
                    key: encode_search_result(result)
                    for key, result in entries.items()
                },
            }
        )
        if obs.enabled:
            obs.metrics().histogram("cache_client_merge_seconds").observe(
                time.monotonic() - t0
            )
        return int(response["new"])

    def keys(self) -> set[str]:
        return set(self._request({"op": "keys"})["keys"])

    def delta(self, baseline: Iterable[str]) -> dict[str, SearchResult]:
        base = set(baseline)
        return {
            key: result
            for key, result in self.snapshot().items()
            if key not in base
        }

    def clear(self) -> None:
        """Drop the *local* read cache and counters (the engine-facing
        ``clear_cache`` surface).  The server's table is shared by other
        clients and runs, so it is deliberately left untouched."""
        self._local.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return int(self.server_stats()["size"])

    def __contains__(self, key: Hashable) -> bool:
        text = normalize_key(key)
        return text in self._local or text in self.keys()

    @property
    def stats(self) -> dict[str, int]:
        """This client's local hit/miss view (``size`` is server-side)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}

    # ------------------------------------------------------------------
    # Server controls
    # ------------------------------------------------------------------
    def ping(self) -> int:
        """Round-trip to the server; returns its current table size."""
        return int(self._request({"op": "ping"})["size"])

    def server_stats(self) -> dict:
        """The server's aggregate stats (hits there are cross-client)."""
        return self._request({"op": "stats"})["stats"]

    def server_metrics(self) -> dict:
        """The server's ``metrics`` op: ``{"text": <Prometheus
        exposition>, "json": <MetricsRegistry dump>}``."""
        response = self._request({"op": "metrics"})
        return {"text": response["text"], "json": response["json"]}

    def save(self, path: "str | Path | None" = None) -> Path:
        """Ask the server to snapshot its table to disk."""
        request: dict = {"op": "save"}
        if path is not None:
            request["path"] = str(path)
        return Path(self._request(request)["path"])

    def shutdown_server(self) -> None:
        self._request({"op": "shutdown"})
        self.close()
