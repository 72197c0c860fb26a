"""The analysis daemon: accept loop, admission, dispatch, responses.

One :class:`AnalysisServer` owns a listening socket (Unix-domain by
default, TCP when given a port), an :class:`~repro.service.admission.AdmissionController`,
a :class:`~repro.service.cache.ResultCache` and a
:class:`~repro.service.pool.WorkerPool`.  Each client connection gets
a handler thread that reads framed requests in lockstep:

* control requests (``stats`` / ``health`` / ``metrics`` /
  ``shutdown``) are answered inline from live state;
* job requests flow admission -> cache -> pool, and the handler blocks
  on the job's completion event (bounded by the job deadline plus a
  grace period, so a client is *never* left hanging even if the pool
  misbehaves).

**Streaming.**  A job request carrying ``"stream": true`` receives
incremental ``partial`` frames (``{"status": "partial", "seq": n,
"op": ...}``) as the worker produces result sections, followed by the
normal terminal frame.  The terminal frame is byte-identical to what a
blocking submit would have returned — it remains the canonical
cacheable result — and reassembling every op
(:func:`~repro.service.protocol.reassemble`) reproduces its ``result``
byte for byte.  Partial ``seq`` numbers restart at 1 on a crash-retry;
because re-execution is deterministic the replayed prefix is identical,
so the daemon drops ``seq <= last-sent`` (counted in
``service.stream.duplicates_dropped``) and the client observes an
exactly-once op stream.  A streamed exchange may legitimately carry
*zero* partial frames (cache hit, rejection) — consumers key off
``status`` alone.

Every stage stamps ``service.*`` telemetry into the server's live
:class:`~repro.telemetry.MetricsRegistry`; ``stats`` serializes the
same snapshot a ``--report`` run would.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time
from dataclasses import dataclass

from ..telemetry import LATENCY_BUCKETS_S, MetricsRegistry
from ..telemetry.obs import latency_summary, new_trace_id, render_prometheus, wall_now_us
from .admission import ACTION_ADMIT, AdmissionController
from .cache import ResultCache
from .jobs import cache_key, resolve_spec
from .observe import NULL_OBSERVABILITY, ServiceObservability
from .pool import Job, WorkerPool
from .protocol import (
    EOF,
    FRAME,
    FrameReader,
    ProtocolError,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_PARTIAL,
    STATUS_REJECTED,
    send_frame,
)

#: extra seconds a handler waits past a job's deadline before declaring
#: the pool lost (belt and braces: the pool itself enforces deadlines).
_GRACE_S = 10.0

#: fallback deadline for jobs that don't carry one.
DEFAULT_DEADLINE_S = 120.0


@dataclass
class ServiceConfig:
    """Daemon configuration (CLI flags map 1:1 onto these fields)."""

    socket_path: str | None = None
    host: str = "127.0.0.1"
    port: int | None = None
    workers: int = 2
    queue_capacity: int = 8
    default_deadline_s: float = DEFAULT_DEADLINE_S
    cache_entries: int = 256
    max_retries: int = 1
    respawn_limit: int = 3
    #: shed fidelity before jobs under overload (``--no-degrade`` = off).
    degrade: bool = True
    #: admit the test-only "chaos" job kind (crash/hang injection).
    allow_chaos: bool = False
    #: flight recorder, sampler and per-job tracing (``--no-observe`` = off).
    observe: bool = True
    #: where flight-recorder dumps land (default: the daemon's cwd).
    obs_dir: str | None = None
    #: metrics-window sampling period for the background sampler.
    sample_interval_s: float = 1.0

    def address(self) -> str:
        if self.port is not None:
            return f"tcp://{self.host}:{self.port}"
        return f"unix://{self.socket_path}"


class AnalysisServer:
    """The DIFT-as-a-service daemon; see the module docstring."""

    def __init__(self, config: ServiceConfig, registry: MetricsRegistry | None = None):
        if (config.socket_path is None) == (config.port is None):
            raise ValueError("configure exactly one of socket_path or port")
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry(enabled=True)
        self.admission = AdmissionController(
            config.queue_capacity, degrade=config.degrade
        )
        self.cache = ResultCache(config.cache_entries, registry=self.registry)
        if config.observe:
            self.obs = ServiceObservability(
                self.registry,
                dump_dir=config.obs_dir,
                sample_interval_s=config.sample_interval_s,
            )
        else:
            self.obs = NULL_OBSERVABILITY
        self.pool = WorkerPool(
            workers=config.workers,
            registry=self.registry,
            max_retries=config.max_retries,
            respawn_limit=config.respawn_limit,
            obs=self.obs,
        )
        self._started_at = 0.0
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._running = False
        self._shutdown_requested = threading.Event()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "AnalysisServer":
        """Bind, start the pool, and begin accepting (non-blocking)."""
        config = self.config
        if config.port is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((config.host, config.port))
            if config.port == 0:  # ephemeral: record what the OS picked
                config.port = listener.getsockname()[1]
        else:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(config.socket_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(config.socket_path)
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self._running = True
        # Bound first, so ``server.start`` records the resolved address.
        self._started_at = time.monotonic()
        self.obs.start()
        self.obs.event(
            "server.start", address=config.address(),
            workers=config.workers, capacity=config.queue_capacity,
        )
        self.pool.start()
        self.registry.gauge("service.workers").set(config.workers)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`stop` or a ``shutdown`` request."""
        if not self._running:
            self.start()
        try:
            while self._running and not self._shutdown_requested.wait(timeout=0.2):
                pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, stop the pool, unlink."""
        if not self._running:
            return
        self._running = False
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for thread in list(self._conn_threads):
            thread.join(timeout=2.0)
        self.pool.stop()
        self.obs.event("server.stop")
        self.obs.stop()
        if self.config.socket_path:
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accept/handler threads ----------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.registry.counter("service.connections").inc()
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            self._conn_threads.append(thread)
            thread.start()
            self._conn_threads = [t for t in self._conn_threads if t.is_alive()]

    def _handle_connection(self, conn: socket.socket) -> None:
        reader = FrameReader(conn)
        with contextlib.closing(conn):
            while self._running:
                try:
                    state, request = reader.poll(timeout_s=0.5)
                    if state == EOF:
                        return  # client closed cleanly
                    if state != FRAME:
                        continue  # idle poll tick; partial frames are buffered
                    response = self._dispatch(request, conn)
                    send_frame(conn, response)
                    if isinstance(request, dict) and request.get("kind") == "shutdown":
                        self._shutdown_requested.set()
                        return
                except ProtocolError as exc:
                    with contextlib.suppress(OSError):
                        send_frame(conn, {"status": STATUS_ERROR, "error": str(exc)})
                    return
                except OSError:
                    return

    # -- request dispatch ----------------------------------------------------
    def _dispatch(self, request, conn: socket.socket | None = None) -> dict:
        if not isinstance(request, dict):
            raise ProtocolError("request must be a JSON object")
        self.registry.counter("service.requests").inc()
        kind = request.get("kind")
        if kind == "stats":
            return {"status": STATUS_OK, "stats": self.stats()}
        if kind == "health":
            return {"status": STATUS_OK, "health": self.health()}
        if kind == "metrics":
            return {
                "status": STATUS_OK,
                "metrics": self.metrics(dump=bool(request.get("dump"))),
            }
        if kind == "shutdown":
            return {"status": STATUS_OK, "shutting_down": True}
        return self._dispatch_job(request, conn)

    def _dispatch_job(self, request: dict, conn: socket.socket | None = None) -> dict:
        w0 = wall_now_us()
        # Per-job tracing is request opt-in ("trace": true) *and* gated
        # on the daemon's observability seam; trace keys are transport
        # metadata resolve_spec ignores, so cache keys never see them.
        want_trace = bool(request.get("trace")) and self.obs.enabled
        trace_id = ""
        if want_trace:
            trace_id = str(request.get("trace_id") or "") or new_trace_id()
        stream = bool(request.get("stream")) and conn is not None
        response, worker_events = self._admit_and_run(request, trace_id, stream, conn)
        if want_trace:
            self.obs.span_at(
                "server.handle", w0, wall_now_us() - w0,
                trace_id=trace_id, status=response.get("status"),
            )
            response["trace"] = {
                "trace_id": trace_id,
                "events": self.obs.trace_events(trace_id) + list(worker_events),
            }
        return response

    def _admit_and_run(
        self, request: dict, trace_id: str,
        stream: bool = False, conn: socket.socket | None = None,
    ) -> tuple[dict, list]:
        """Admission -> cache probe -> pool; (response, worker events)."""
        registry = self.registry
        registry.counter("service.jobs.received").inc()
        t0 = time.monotonic()
        spec = resolve_spec(request, allow_chaos=self.config.allow_chaos)

        a0 = wall_now_us()
        depth = self.pool.depth()
        decision = self.admission.decide(depth, spec.kind, spec.fidelity)
        self.obs.event(
            "admission", action=decision.action, job_kind=spec.kind, depth=depth,
            requested=spec.fidelity, resolved=decision.fidelity,
            reason=decision.reason, trace_id=trace_id,
        )
        if trace_id:
            self.obs.span_at(
                "server.admission", a0, wall_now_us() - a0,
                trace_id=trace_id, action=decision.action, depth=depth,
                fidelity=decision.fidelity,
            )
        if decision.action != ACTION_ADMIT:
            registry.counter("service.jobs.rejected").inc()
            return {
                "status": STATUS_REJECTED,
                "reason": decision.reason,
                "retry_after_s": 0.5,
            }, []
        degraded = decision.degraded
        spec.fidelity = decision.fidelity
        if degraded:
            registry.counter("service.jobs.degraded").inc()
        registry.counter("service.jobs.admitted").inc()

        key = cache_key(spec)
        if spec.cache:
            cached = self.cache.get(key)
            if cached is not None:
                if trace_id:
                    self.obs.instant_at(
                        "server.cache_hit", wall_now_us(), trace_id=trace_id
                    )
                return self._job_response(
                    cached, degraded, decision.reason, cached=True, t0=t0
                ), []

        deadline = spec.deadline_s or self.config.default_deadline_s
        job = Job(spec, key, deadline_s=deadline)
        job.degraded = degraded
        job.degrade_reason = decision.reason
        if trace_id:
            job.trace_id = trace_id
            job.payload["_trace"] = trace_id
        if stream:
            job.stream = True
            job.partial_cb = self._partial_sender(conn)
        self.pool.submit(job)
        if not job.event.wait(timeout=deadline + _GRACE_S):
            # The pool should have timed the job out itself; this is the
            # handler's own never-hang guarantee.
            registry.counter("service.jobs.lost").inc()
            return {"status": STATUS_ERROR, "error": "job lost by the pool"}, []
        if job.status != STATUS_OK:
            return {"status": job.status, "error": job.error}, job.worker_events
        if spec.cache and job.result is not None:
            self.cache.put(key, job.result)
        return self._job_response(
            job.result, degraded, decision.reason, t0=t0
        ), job.worker_events

    def _partial_sender(self, conn: socket.socket):
        """The job's ``partial_cb``: write each new partial to ``conn``.

        It runs on the pool slot thread, which emits every partial
        strictly before it sets the completion event the handler thread
        is parked on — so partial frames and the terminal frame never
        interleave on the socket.  ``seq`` restarts per crash-retry
        attempt; dropping ``seq <= last sent`` keeps the client's op
        stream exactly-once (the retried prefix is a byte-identical
        replay).
        """
        last_seq = 0

        def partial_cb(seq: int, op: dict) -> None:
            nonlocal last_seq
            if seq <= last_seq:
                self.registry.counter("service.stream.duplicates_dropped").inc()
                return
            last_seq = seq
            send_frame(conn, {"status": STATUS_PARTIAL, "seq": seq, "op": op})

        return partial_cb

    def _job_response(
        self, result: dict, degraded: bool, reason: str, cached: bool = False,
        t0: float = 0.0,
    ) -> dict:
        response = {
            "status": STATUS_DEGRADED if degraded else STATUS_OK,
            "result": result,
            "cached": cached,
        }
        if degraded:
            response["reason"] = reason
        if t0:
            self.registry.histogram(
                "service.latency.respond_s", LATENCY_BUCKETS_S
            ).observe(time.monotonic() - t0)
        return response

    # -- introspection -------------------------------------------------------
    def health(self) -> dict:
        return {
            "ok": self.pool.alive_workers() > 0,
            "address": self.config.address(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers_alive": self.pool.alive_workers(),
            "queue_depth": self.pool.depth(),
            "queue_capacity": self.config.queue_capacity,
            "degrade_enabled": self.admission.degrade_enabled,
        }

    def stats(self) -> dict:
        return {
            "health": self.health(),
            "pool": self.pool.stats(),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "entries": len(self.cache),
            },
            "metrics": self.registry.as_dict(),
        }

    def metrics(self, dump: bool = False) -> dict:
        """The ``metrics`` request body: exposition + derived summary.

        The JSON snapshot, Prometheus text and p50/p95/p99 + shed-rate
        summary come straight off the live registry, so they work even
        with observability disabled; the observability extras (sample
        series, flight-dump paths, session id) ride along when the seam
        is on.  ``dump=True`` additionally writes a flight-recorder
        artifact and reports its path.
        """
        payload = {
            "json": self.registry.as_dict(),
            "prometheus": render_prometheus(self.registry),
            "summary": latency_summary(self.registry),
        }
        payload.update(self.obs.metrics_payload(dump=dump))
        return payload


__all__ = [
    "AnalysisServer",
    "DEFAULT_DEADLINE_S",
    "ServiceConfig",
]
