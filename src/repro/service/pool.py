"""Sharded worker-process pool with deadlines, cancellation and respawn.

One worker = one OS process running :func:`repro.service.jobs.execute_job`
in a loop over a duplex pipe (the spawn-and-pipe pattern of
:mod:`repro.multicore.parallel`, minus the shared-memory ring — jobs
are coarse, so a pipe is plenty).  Each worker is paired with one
server-side *slot thread* that feeds it jobs and babysits it:

* **Sharding with idle-steal.**  Jobs route to ``hash(program hash) %
  workers``, so repeated queries over the same program land on the
  same worker (warm CPU caches, warm interpreter state); an idle slot
  steals from the longest other queue, so affinity never costs
  throughput.
* **Deadlines with cancellation.**  The slot thread polls the pipe in
  small ticks; when a job's absolute deadline passes, the worker is
  terminated (the only way to cancel a compute-bound job in another
  process), respawned, and the job answered ``timeout``.
* **Crash detection + bounded respawn.**  A worker that dies mid-job
  is respawned with exponential backoff; the job is retried up to
  ``max_retries`` times, then failed cleanly (``error``, never a
  hang).  A slot that crash-loops past ``respawn_limit`` consecutive
  deaths is declared dead and its queue re-routed; the counter resets
  on any successful job.

The pool never hangs a caller: every submitted job's ``event`` is set
exactly once, with ``ok`` / ``error`` / ``timeout``, even across
worker death and pool shutdown.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from collections import deque

from ..telemetry import LATENCY_BUCKETS_S, NULL_REGISTRY
from ..telemetry.obs import wall_now_us
from .jobs import (
    JobSpec,
    drain_summary_metrics,
    execute_job,
    execute_job_stream,
    execute_job_traced,
    program_key,
)
from .observe import NULL_OBSERVABILITY
from .protocol import STATUS_ERROR, STATUS_OK, STATUS_TIMEOUT

_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: pipe poll tick: bounds deadline/crash detection latency.
_POLL_S = 0.02


#: how often an idle worker checks that its daemon is still alive.
PARENT_CHECK_S = 0.5


def _worker_main(conn) -> None:
    """Worker process loop: recv payload -> execute -> send verdict.

    The loop ends when the daemon sends ``None``, closes the pipe, or
    dies.  A SIGKILLed daemon closes nothing itself, and forked workers
    inherit copies of the daemon's pipe ends, so EOF alone cannot be
    trusted: an idle worker also notices being re-parented and exits.
    """
    daemon_pid = os.getppid()
    try:
        while True:
            try:
                while not conn.poll(PARENT_CHECK_S):
                    if os.getppid() != daemon_pid:
                        return
                payload = conn.recv()
            except (EOFError, OSError):
                break
            if payload is None:
                break
            # "_trace" / "_stream" are transport metadata the server
            # attaches per job, never part of the spec (or cache key).
            trace_id = payload.pop("_trace", None) if isinstance(payload, dict) else None
            stream = bool(payload.pop("_stream", None)) if isinstance(payload, dict) else False
            try:
                if trace_id:
                    # Traced jobs ship spans in the terminal result;
                    # tracing and streaming are mutually exclusive
                    # (the server never sets both).
                    result = execute_job_traced(payload, trace_id)
                elif stream:
                    result = execute_job_stream(
                        payload, lambda op: conn.send(("partial", op))
                    )
                else:
                    result = execute_job(payload)
                metrics = drain_summary_metrics()
                if metrics and isinstance(result, dict):
                    # Piggyback function-summary counter deltas on the
                    # terminal verdict (never on stream frames, so the
                    # reassembled stream stays identical to a blocking
                    # run's payload); the server strips them below.
                    result["_summaries"] = metrics
                verdict = ("ok", result)
            except Exception as exc:
                verdict = ("error", f"{type(exc).__name__}: {exc}")
            try:
                conn.send(verdict)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()


class Job:
    """One admitted job: spec + completion state the server waits on."""

    _ids = itertools.count(1)

    def __init__(self, spec: JobSpec, key: str, deadline_s: float | None = None):
        self.id = next(self._ids)
        self.spec = spec
        self.payload = spec.payload()
        self.key = key
        self.shard_key = program_key(spec)
        self.degraded = False
        self.degrade_reason = ""
        #: distributed-tracing state: empty trace_id = untraced job.
        self.trace_id = ""
        self.worker_events: list[dict] = []
        #: streaming state: ``stream`` marks the worker payload,
        #: ``partial_cb(seq, op)`` is invoked on the slot thread for
        #: every partial the worker ships.  ``partial_seq`` restarts at
        #: 0 on every execution attempt, so a consumer that drops
        #: ``seq <= last seen`` gets exactly-once partials across
        #: crash-retries (execution is deterministic: a retried attempt
        #: replays an identical prefix).
        self.stream = False
        self.partial_cb = None
        self.partial_seq = 0
        self.partials_delivered = 0
        #: invoked (on the finishing thread) right after ``event`` is
        #: set — the async server's loop-wakeup seam.
        self.done_cb = None
        now = time.monotonic()
        self.t_submit = now
        self.w_submit = wall_now_us()
        self.w_start = 0
        self.t_start = 0.0
        self.t_done = 0.0
        self.deadline = None if deadline_s is None else now + deadline_s
        self.attempts = 0
        self.status: str | None = None
        self.result: dict | None = None
        self.error = ""
        self.event = threading.Event()

    def finish(self, status: str, result: dict | None = None, error: str = "") -> None:
        self.t_done = time.monotonic()
        self.status = status
        self.result = result
        self.error = error
        self.event.set()
        callback = self.done_cb
        if callback is not None:
            try:
                callback()
            except Exception:  # pragma: no cover - callback owner's bug
                pass

    def deliver_partial(self, op: dict) -> None:
        """Forward one worker partial to the registered consumer."""
        self.partial_seq += 1
        self.partials_delivered += 1
        callback = self.partial_cb
        if callback is not None:
            try:
                callback(self.partial_seq, op)
            except Exception:  # pragma: no cover - callback owner's bug
                pass

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline


class _Slot:
    """One worker process + its server-side state."""

    def __init__(self, idx: int):
        self.idx = idx
        self.proc = None
        self.conn = None
        self.busy = False
        self.dead = False
        self.respawns = 0
        self.consecutive_respawns = 0
        self.jobs_done = 0


class WorkerPool:
    """Sharded pool of analysis workers; see the module docstring."""

    def __init__(
        self,
        workers: int = 2,
        registry=None,
        max_retries: int = 1,
        respawn_limit: int = 3,
        backoff_s: float = 0.05,
        obs=None,
    ):
        if workers < 1:
            raise ValueError("pool needs >= 1 worker")
        self.workers = workers
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.obs = obs if obs is not None else NULL_OBSERVABILITY
        self.max_retries = max_retries
        self.respawn_limit = respawn_limit
        self.backoff_s = backoff_s
        self._slots = [_Slot(i) for i in range(workers)]
        self._queues: list[deque[Job]] = [deque() for _ in range(workers)]
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._running = False
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_timed_out = 0
        self.jobs_retried = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "WorkerPool":
        self._running = True
        for slot in self._slots:
            self._spawn(slot)
            thread = threading.Thread(
                target=self._slot_loop, args=(slot,), name=f"pool-slot-{slot.idx}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = _CTX.Pipe(duplex=True)
        proc = _CTX.Process(target=_worker_main, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        slot.proc, slot.conn = proc, parent_conn
        self.obs.event("worker.spawn", slot=slot.idx, pid=proc.pid)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop threads, terminate workers, fail anything still queued."""
        with self._cond:
            self._running = False
            leftovers = [job for q in self._queues for job in q]
            for q in self._queues:
                q.clear()
            self._cond.notify_all()
        for job in leftovers:
            job.finish(STATUS_ERROR, error="service shutting down")
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        for slot in self._slots:
            if slot.conn is not None:
                try:
                    slot.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            if slot.proc is not None:
                slot.proc.join(timeout=0.5)
                if slot.proc.is_alive():
                    slot.proc.terminate()
                    slot.proc.join(timeout=1.0)
            if slot.conn is not None:
                slot.conn.close()
                slot.conn = None

    # -- submission ----------------------------------------------------------
    def depth(self) -> int:
        """Admitted-but-unfinished jobs (queued + running)."""
        with self._lock:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return sum(len(q) for q in self._queues) + sum(
            1 for s in self._slots if s.busy
        )

    def submit(self, job: Job) -> None:
        """Route to the job's shard (dead shards fall to the next slot)."""
        if job.stream:
            job.payload["_stream"] = True
        shard = hash(job.shard_key) % self.workers
        with self._cond:
            if not self._running:
                job.finish(STATUS_ERROR, error="service shutting down")
                return
            for off in range(self.workers):
                slot = self._slots[(shard + off) % self.workers]
                if not slot.dead:
                    shard = slot.idx
                    break
            else:
                job.finish(STATUS_ERROR, error="no live workers")
                return
            self._queues[shard].append(job)
            self.registry.gauge("service.queue.depth").set(self._depth_locked())
            self.registry.gauge("service.queue.depth.peak").set_max(self._depth_locked())
            self._cond.notify_all()
        self.obs.event(
            "dispatch", job=job.id, job_kind=job.spec.kind, shard=shard,
            trace_id=job.trace_id,
        )

    def _take(self, slot: _Slot) -> Job | None:
        """Own queue first, else steal from the longest; None = stopped."""
        with self._cond:
            while True:
                if not self._running:
                    return None
                own = self._queues[slot.idx]
                if own:
                    job = own.popleft()
                else:
                    richest = max(
                        (q for q in self._queues if q), key=len, default=None
                    )
                    if richest is None:
                        self._cond.wait(timeout=0.1)
                        continue
                    job = richest.popleft()
                    self.registry.counter("service.pool.steals").inc()
                    self.obs.event("steal", slot=slot.idx, job=job.id)
                slot.busy = True
                self.registry.gauge("service.queue.depth").set(self._depth_locked())
                return job

    # -- execution -----------------------------------------------------------
    def _slot_loop(self, slot: _Slot) -> None:
        while True:
            job = self._take(slot)
            if job is None:
                return
            try:
                self._run_job(slot, job)
            finally:
                with self._cond:
                    slot.busy = False
                    self.registry.gauge("service.queue.depth").set(self._depth_locked())
            if slot.dead:
                self._reroute(slot)
                return

    def _run_job(self, slot: _Slot, job: Job) -> None:
        registry = self.registry
        while True:  # retry loop (worker-crash recovery)
            if not self._running:
                job.finish(STATUS_ERROR, error="service shutting down")
                return
            if job.expired:
                self.jobs_timed_out += 1
                registry.counter("service.jobs.timeouts").inc()
                self.obs.event("deadline.queue-expired", slot=slot.idx, job=job.id)
                job.finish(STATUS_TIMEOUT, error="deadline expired in queue")
                return
            if slot.proc is None or not slot.proc.is_alive():
                if not self._respawn(slot):
                    job.finish(STATUS_ERROR, error="worker unavailable (crash loop)")
                    self.jobs_failed += 1
                    registry.counter("service.jobs.failed").inc()
                    return
            job.attempts += 1
            # Restart the partial numbering per attempt: a crash-retried
            # stream replays its (deterministic) prefix, and consumers
            # drop seqs they have already seen.
            job.partial_seq = 0
            job.t_start = job.t_start or time.monotonic()
            job.w_start = job.w_start or wall_now_us()
            try:
                slot.conn.send(job.payload)
                verdict = self._await_verdict(slot, job)
            except (BrokenPipeError, OSError):
                # The pipe broke mid-send: the worker's state is unknown
                # (it could even send a stale verdict later), so it must
                # not be reused — kill it and let the retry loop respawn.
                self._note_crash(slot)
                if slot.proc is not None and slot.proc.is_alive():
                    slot.proc.terminate()
                    slot.proc.join(timeout=1.0)
                verdict = "retry"
            if verdict == "retry":
                if job.attempts <= self.max_retries:
                    self.jobs_retried += 1
                    registry.counter("service.jobs.retries").inc()
                    continue
                job.finish(
                    STATUS_ERROR,
                    error=f"worker crashed {job.attempts}x running this job",
                )
                self.jobs_failed += 1
                registry.counter("service.jobs.failed").inc()
            return

    def _await_verdict(self, slot: _Slot, job: Job) -> str:
        """Poll the worker for one job's verdict; returns "done"/"retry"."""
        registry = self.registry
        conn, proc = slot.conn, slot.proc
        while True:
            if conn.poll(_POLL_S):
                try:
                    status, body = conn.recv()
                except (EOFError, OSError):
                    self._note_crash(slot)
                    return "retry"
                if status == "partial":
                    # An incremental frame of a streamed job — forward
                    # and keep waiting for the terminal verdict.
                    registry.counter("service.stream.partials").inc()
                    job.deliver_partial(body)
                    continue
                slot.consecutive_respawns = 0
                slot.jobs_done += 1
                if status == "ok":
                    if isinstance(body, dict):
                        # Traced workers ride their span events back
                        # inside the result; strip them *before* the
                        # result is finished (and possibly cached) so
                        # cached payloads stay bit-identical.
                        spans = body.pop("_spans", None)
                        if spans:
                            job.worker_events = spans
                        # Same treatment for the summary counter deltas:
                        # fold into the service registry, keep the
                        # cached result byte-identical.
                        summaries = body.pop("_summaries", None)
                        if summaries:
                            for key, value in summaries.items():
                                registry.counter(f"dift.summaries.{key}").inc(value)
                    self.jobs_completed += 1
                    registry.counter("service.jobs.completed").inc()
                    self._observe_latency(job, slot)
                    job.finish(STATUS_OK, result=body)
                else:
                    self.jobs_failed += 1
                    registry.counter("service.jobs.failed").inc()
                    job.finish(STATUS_ERROR, error=body)
                return "done"
            if job.expired:
                # Cancellation: a compute-bound job in another process
                # can only be stopped by terminating the process.
                proc.terminate()
                proc.join(timeout=1.0)
                self.obs.event(
                    "deadline.cancel", slot=slot.idx, job=job.id,
                    job_kind=job.spec.kind, attempts=job.attempts,
                )
                self.obs.crash_dump("deadline-cancel", slot=slot.idx, job=job.id)
                self._respawn(slot, deliberate=True)
                self.jobs_timed_out += 1
                registry.counter("service.jobs.timeouts").inc()
                job.finish(STATUS_TIMEOUT, error="deadline expired; worker cancelled")
                return "done"
            if not proc.is_alive():
                self._note_crash(slot)
                return "retry"

    def _note_crash(self, slot: _Slot) -> None:
        self.registry.counter("service.workers.crashes").inc()
        pid = slot.proc.pid if slot.proc is not None else None
        self.obs.event("worker.crash", slot=slot.idx, pid=pid)
        self.obs.crash_dump("worker-crash", slot=slot.idx, pid=pid)
        # Reap the dying worker now: pipe EOF can be observed a moment
        # *before* the exiting child becomes waitable, and the retry
        # loop's is_alive() check must not see that zombie window (it
        # would skip the respawn and burn a retry on a dead pipe).
        if slot.proc is not None:
            slot.proc.join(timeout=1.0)

    def _respawn(self, slot: _Slot, deliberate: bool = False) -> bool:
        """Backed-off respawn; False once the slot crash-looped out.

        ``deliberate`` marks respawns the pool *chose* (deadline
        cancellation): they skip the backoff and never count toward the
        crash-loop limit — only unexpected deaths do.
        """
        if slot.conn is not None:
            slot.conn.close()
            slot.conn = None
        if slot.proc is not None:
            if slot.proc.is_alive():
                slot.proc.terminate()
            slot.proc.join(timeout=1.0)
            slot.proc = None
        slot.respawns += 1
        self.registry.counter("service.workers.respawns").inc()
        self.obs.event("worker.respawn", slot=slot.idx, deliberate=deliberate,
                       consecutive=slot.consecutive_respawns)
        if not deliberate:
            slot.consecutive_respawns += 1
            if slot.consecutive_respawns > self.respawn_limit:
                slot.dead = True
                self.registry.counter("service.workers.dead").inc()
                self.obs.event("worker.dead", slot=slot.idx,
                               consecutive=slot.consecutive_respawns)
                self.obs.crash_dump("crash-loop", slot=slot.idx)
                return False
            time.sleep(
                min(self.backoff_s * (2 ** (slot.consecutive_respawns - 1)), 1.0)
            )
        self._spawn(slot)
        return True

    def _reroute(self, dead: _Slot) -> None:
        """Move a dead slot's queue to the remaining live slots."""
        with self._cond:
            orphans = list(self._queues[dead.idx])
            self._queues[dead.idx].clear()
            live = [s for s in self._slots if not s.dead]
            if not live:
                for job in orphans:
                    job.finish(STATUS_ERROR, error="no live workers")
                return
            for i, job in enumerate(orphans):
                self._queues[live[i % len(live)].idx].append(job)
            self._cond.notify_all()

    def _observe_latency(self, job: Job, slot: _Slot | None = None) -> None:
        registry = self.registry
        queue_s = max(0.0, job.t_start - job.t_submit)
        exec_s = max(0.0, time.monotonic() - job.t_start)
        registry.histogram("service.latency.queue_s", LATENCY_BUCKETS_S).observe(queue_s)
        registry.histogram("service.latency.exec_s", LATENCY_BUCKETS_S).observe(exec_s)
        registry.histogram("service.latency.total_s", LATENCY_BUCKETS_S).observe(
            queue_s + exec_s
        )
        if job.trace_id:
            # Retroactive spans: the slot thread learns the stage edges
            # after the fact, so open-span bookkeeping never crosses
            # threads.  tid 0 is the handler lane, slots get 1 + idx.
            tid = 1 + (slot.idx if slot is not None else 0)
            self.obs.span_at(
                "pool.queue", job.w_submit, job.w_start - job.w_submit,
                tid=tid, trace_id=job.trace_id, job=job.id,
            )
            self.obs.span_at(
                "pool.exec", job.w_start, wall_now_us() - job.w_start,
                tid=tid, trace_id=job.trace_id, job=job.id,
                attempts=job.attempts,
            )

    # -- introspection -------------------------------------------------------
    def alive_workers(self) -> int:
        return sum(
            1
            for s in self._slots
            if not s.dead and s.proc is not None and s.proc.is_alive()
        )

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "alive": sum(1 for s in self._slots if not s.dead),
                "busy": sum(1 for s in self._slots if s.busy),
                "depth": self._depth_locked(),
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "timeouts": self.jobs_timed_out,
                "retries": self.jobs_retried,
                "respawns": sum(s.respawns for s in self._slots),
                "per_worker": [
                    {
                        "idx": s.idx,
                        "alive": not s.dead,
                        "busy": s.busy,
                        "jobs_done": s.jobs_done,
                        "respawns": s.respawns,
                        "queued": len(self._queues[s.idx]),
                    }
                    for s in self._slots
                ],
            }


__all__ = ["Job", "WorkerPool"]
