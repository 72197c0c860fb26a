"""The timed phases every workload runs, and the oracles that check them.

Each phase drives the program only through public calls, brackets every
timed sample with the host reference loop (:mod:`hostref`) and keeps
the first answer of every operation for the checks that run after the
timed window:

* :func:`vm_round` — each program plain, under ``DIFTEngine`` as
  shipped (PC taint, default kernel and sinks) and under in-memory
  ONTRAC.  Checked against a ``ReferenceKernel`` run and the
  ``ontrac/offline.py`` baseline.
* :func:`postmortem_round` — ONTRAC with spill into a ``TraceLake``
  plus ``PendingRun.finish`` (writes), cold and warm slices of the
  stored run (reads), and ``diff_runs`` over the buggy corpus.
  Checked against the live in-memory slice and the corpus bug lines.
* :func:`service_phase` — one client, two connections (direct to
  ``repro serve``, and through ``repro route``), closed loop, one
  request outstanding at a time.  Checked against in-process
  ``execute_job``.
"""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.dift import DIFTEngine, PCTaintPolicy
from repro.lake import (
    TraceLake,
    diff_runs,
    input_hash,
    open_spill,
    program_hash,
    resolve_criterion,
    slice_stored,
    suspect_lines,
)
from repro.ontrac import OfflineTracer, OntracConfig
from repro.runner import ProgramRunner
from repro.service import ServiceClient, ServiceError
from repro.service.client import wait_until_ready
from repro.service.jobs import execute_job
from repro.slicing import backward_slice
from repro.workloads import corpus

from gen import MAX_INSTRUCTIONS, Program, rng, service_inputs

MODES = ("plain", "dift", "ontrac")
#: buggy-corpus families whose bug ``diff_runs`` localizes today.
DIFF_FAMILIES = (
    "wrong-variable", "omission-predicate", "omission-init", "malformed-request",
)
#: warm-slice criteria per stored run.
WARM_CRITERIA = 16
#: cold queries per write (each on a freshly opened run) and
#: ``diff_runs`` calls per corpus family, per postmortem round.
COLD_QUERIES = 3
DIFF_REPEATS = 3
#: a repeated request is one of this many latest answered misses on its
#: connection, well inside the daemon's and router's 256-entry caches.
REPEAT_WINDOW = 32
#: a request unanswered this long counts as failed (the run must end
#: within minutes, whatever the service does).
REQUEST_TIMEOUT_S = 30.0


class Ledger:
    """Operations attempted and failed, and wrong answers found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: failed: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.wrong.append(what)
            print(f"perfbench: wrong answer: {what}", file=sys.stderr)
        return ok

    def timed(self, timer, what: str, fn, *args):
        """One attempted operation timed by ``timer`` (``clock.time`` or
        a ``clock.bracket()`` timer); ``None`` if it raised."""
        self.attempted += 1
        try:
            return timer(fn, *args)
        except Exception as exc:  # the run keeps going and reports it
            self.fail(f"{what}: {exc!r}")
            return None


@dataclass
class Series:
    """Repeated samples (:class:`hostref.Sample`) of one thing."""

    samples: list = field(default_factory=list)

    def add(self, sample) -> None:
        self.samples.append(sample)

    def values(self, which: str = "norm") -> list[float]:
        """Seconds per sample, normalized (``"norm"``) or raw."""
        return [getattr(s, which) for s in self.samples]

    def median(self, which: str = "norm") -> float:
        return statistics.median(self.values(which))

    def __len__(self) -> int:
        return len(self.samples)


def mean_of_medians(series: list[Series], which: str = "norm") -> float:
    return sum(s.median(which) for s in series) / len(series)


def rate_k(instructions: int, series: list[Series], which: str = "norm") -> float:
    """Thousands of guest instructions per second over a set of
    programs: total instructions over the sum of per-program medians."""
    return instructions / sum(s.median(which) for s in series) / 1e3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[k]


# -- running one program ------------------------------------------------------
def _runner(p: Program) -> ProgramRunner:
    return ProgramRunner(
        p.compiled.program,
        inputs={k: list(v) for k, v in p.inputs.items()},
        max_instructions=MAX_INSTRUCTIONS,
    )


def _outputs(machine) -> dict:
    return {ch: list(machine.io.output(ch)) for ch in sorted(machine.io.outputs)}


def run_plain(p: Program, spans) -> dict:
    with spans.span("vm"):
        m, res = _runner(p).run()
    return {"instructions": res.instructions, "status": res.status.value,
            "outputs": _outputs(m)}


def run_dift(p: Program, spans, **engine_kw) -> dict:
    with spans.span("dift"):
        m = _runner(p).machine()
        engine = DIFTEngine(PCTaintPolicy(), **engine_kw).attach(m)
        res = m.run(max_instructions=MAX_INSTRUCTIONS)
        alerts = [(a.seq, a.pc, a.label) for a in engine.alerts]
        st = engine.stats
    return {
        "instructions": res.instructions, "status": res.status.value,
        "outputs": _outputs(m), "alerts": alerts,
        "stats": (st.instructions, st.tainted_instructions, st.sources, st.sink_checks),
        "tainted_peak": engine.shadow.peak_locations, "engine": engine,
    }


def run_ontrac(p: Program, spans, spill_path: str | None = None) -> dict:
    with spans.span("ontrac"):
        m, tracer, res = _runner(p).run_traced(OntracConfig(spill_path=spill_path))
        rows = len(tracer.buffer)
    return {"instructions": res.instructions, "status": res.status.value,
            "outputs": _outputs(m), "rows": rows, "tracer": tracer}


RUNNERS = {"plain": run_plain, "dift": run_dift, "ontrac": run_ontrac}


# -- VM modes -----------------------------------------------------------------
@dataclass
class VMResult:
    progs: list
    series: dict = field(default_factory=dict)  # (mode, program) -> Series
    first: dict = field(default_factory=dict)  # (mode, program) -> first outcome
    instructions: dict = field(default_factory=dict)  # program -> instructions
    rounds: int = 0

    def kips(self, mode: str, which: str = "norm") -> float:
        total = sum(self.instructions[p.name] for p in self.progs)
        return rate_k(total, [self.series[(mode, p.name)] for p in self.progs], which)


def vm_round(out: VMResult, clock, spans, ledger) -> None:
    """Every program once in every mode."""
    for p in out.progs:
        for mode in MODES:
            got = ledger.timed(clock.time, f"{mode} {p.name}", RUNNERS[mode], p, spans)
            if got is None:
                continue
            sample, res = got
            out.series.setdefault((mode, p.name), Series()).add(sample)
            out.instructions.setdefault(p.name, res["instructions"])
            out.first.setdefault((mode, p.name), res)
    out.rounds += 1


def _same_slice(a, b) -> bool:
    return a.seqs == b.seqs and a.pcs == b.pcs and a.truncated == b.truncated


def check_vm(progs, vm: VMResult, spans, ledger, criteria: int = 4) -> None:
    """Outputs agree across modes; DIFT equals the ReferenceKernel run;
    ONTRAC slices equal the offline two-phase baseline."""
    for p in progs:
        got = [vm.first.get((m, p.name)) for m in MODES]
        if None in got:
            continue  # its failure is already counted
        plain, dift, ontrac = got
        with spans.span("bench"):
            for res in (dift, ontrac):
                ledger.check(
                    (res["status"], res["instructions"], res["outputs"])
                    == (plain["status"], plain["instructions"], plain["outputs"]),
                    f"{p.name}: outcome differs from the plain run",
                )
            ref = run_dift(p, spans, kernel="reference")
            ledger.check(
                dift["alerts"] == ref["alerts"] and dift["stats"] == ref["stats"],
                f"{p.name}: DIFT alerts/culprits/stats differ from ReferenceKernel",
            )
            m = _runner(p).machine()
            offline = OfflineTracer(p.compiled.program).attach(m)
            m.run(max_instructions=MAX_INSTRUCTIONS)
            baseline = offline.postprocess()
            live = ontrac["tracer"].dependence_graph()
            seqs = sorted(s for s, _ in live.node_items())
            step = max(1, len(seqs) // criteria)
            for crit in seqs[step // 2::step][:criteria] + seqs[-1:]:
                ledger.check(
                    _same_slice(backward_slice(live, crit), backward_slice(baseline, crit)),
                    f"{p.name}: ONTRAC slice at seq {crit} differs from the offline baseline",
                )


# -- postmortem ----------------------------------------------------------------
@dataclass
class CorpusLake:
    lake: TraceLake
    runs: dict  # family -> (failing id, [passing ids], bug lines)


def record_corpus(root: str, spans) -> CorpusLake:
    """Store each diffable buggy-corpus family: the failing build on
    its failing inputs, the fixed build on both input sets."""
    lake = TraceLake(root)
    runs = {}
    for b in corpus():
        if b.name not in DIFF_FAMILIES:
            continue
        with spans.span("ontrac"):
            _, tr, _ = b.runner(failing=True).run_traced(OntracConfig())
        with spans.span("lake.store"):
            failing = lake.put(
                tr.buffer, program=program_hash(b.source),
                input_hash=input_hash(b.failing_inputs), compiled=b.compiled,
            )
        passing = []
        for inputs in (b.failing_inputs, b.passing_inputs):
            runner = ProgramRunner(
                b.fixed_compiled.program,
                inputs={k: list(v) for k, v in inputs.items()},
                scheduler_factory=b.scheduler_factory,
                max_instructions=2_000_000,
            )
            with spans.span("ontrac"):
                _, tr, _ = runner.run_traced(OntracConfig())
            with spans.span("lake.store"):
                passing.append(lake.put(
                    tr.buffer, program=program_hash(b.fixed_source),
                    input_hash=input_hash(inputs), compiled=b.fixed_compiled,
                ))
        runs[b.name] = (failing, passing, set(b.bug_lines))
    return CorpusLake(lake, runs)


@dataclass
class PostmortemResult:
    write: Series = field(default_factory=Series)
    cold: Series = field(default_factory=Series)
    warm: list = field(default_factory=list)  # Series per criterion
    diff: dict = field(default_factory=dict)  # family -> Series
    instructions: int = 0
    rounds: int = 0
    live: object = None  # live DDG of the first write
    first_slices: dict = field(default_factory=dict)  # criterion -> stored slice
    criteria: list = field(default_factory=list)


def _write(lake: TraceLake, p: Program, seed: int, spans):
    with spans.span("lake.store"):
        pending = lake.begin_run(
            program=p.name, input_hash=input_hash(p.inputs), seed=seed,
        )
    res = run_ontrac(p, spans, spill_path=pending.spill_path)
    with spans.span("lake.store"):
        pending.finish(tracer=res["tracer"], compiled=p.compiled)
    return pending, res


def _cold_query(path: str, spans):
    """The post-mortem default: slice back from the newest stored
    instruction of a freshly opened run."""
    with spans.span("lake.format"):
        run = open_spill(path)
    with spans.span("lake.query"):
        crit = resolve_criterion(run)
    with spans.span("slicing"):
        sl = slice_stored(run, crit)
    return run, crit, sl


def _warm_slice(run, crit: int, spans):
    with spans.span("slicing"):
        return slice_stored(run, crit)


def _diff(lake: TraceLake, failing: str, passing: list, spans):
    with spans.span("lake.query"):
        return diff_runs(lake, failing, passing)


def postmortem_round(
    out: PostmortemResult, p: Program, seed: int, corpus_lake: CorpusLake, root: str,
    clock, spans, ledger,
) -> None:
    """One write of ``p`` into a fresh lake (so every cold query is
    cold), its cold queries and warm slices, and the corpus diffs."""
    lake = TraceLake(os.path.join(root, f"r{out.rounds}"))
    got = ledger.timed(clock.time, f"record {p.name}", _write, lake, p, seed, spans)
    if got is not None:
        sample, (pending, res) = got
        out.write.add(sample)
        out.instructions = res["instructions"]
        if out.live is None:
            out.live = res["tracer"].dependence_graph()
            seqs = sorted(s for s, _ in out.live.node_items())
            step = max(1, len(seqs) // WARM_CRITERIA)
            out.criteria = seqs[step // 2::step][:WARM_CRITERIA]
            out.warm = [Series() for _ in out.criteria]
        del res
        run = None
        for _ in range(COLD_QUERIES):
            if run is not None:
                run.close()
            got = ledger.timed(
                clock.time, f"cold query {p.name}", _cold_query, pending.spill_path, spans,
            )
            if got is None:
                run = None
                continue
            sample, (run, crit, sl) = got
            out.cold.add(sample)
            out.first_slices.setdefault(crit, sl)
        if run is not None:
            try:
                for i, c in enumerate(out.criteria):
                    got = ledger.timed(
                        clock.time, f"warm slice {c}", _warm_slice, run, c, spans,
                    )
                    if got is None:
                        continue
                    sample, sl = got
                    out.warm[i].add(sample)
                    out.first_slices.setdefault(c, sl)
            finally:
                run.close()
    for fam, (failing, passing, bug_lines) in corpus_lake.runs.items():
        for _ in range(DIFF_REPEATS):
            got = ledger.timed(
                clock.time, f"diff {fam}", _diff, corpus_lake.lake, failing, passing, spans,
            )
            if got is None:
                continue
            sample, diff = got
            out.diff.setdefault(fam, Series()).add(sample)
            ledger.check(
                bool(suspect_lines(diff) & bug_lines),
                f"diff_runs no longer names the bug line of {fam}",
            )
    out.rounds += 1


def check_postmortem(pm: PostmortemResult, spans, ledger) -> None:
    """Every first stored slice equals the live in-memory slice."""
    if pm.live is None:
        return
    with spans.span("bench"):
        for crit, sl in sorted(pm.first_slices.items()):
            ledger.check(
                _same_slice(sl, backward_slice(pm.live, crit)),
                f"stored slice at seq {crit} differs from the live slice",
            )


# -- service -------------------------------------------------------------------
def _clean_env(src_dir: str) -> dict:
    """The daemon runs with its default configuration: no REPRO_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src_dir
    return env


def _cpu_ticks(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0
    return int(fields[11]) + int(fields[12])  # utime + stime


def _children(pid: int) -> list[int]:
    kids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            kids.append(int(name))
    return kids


def _state(pid: int) -> str | None:
    """The process state letter, or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return None


def end_processes(pids: list[int], timeout_s: float = 10.0) -> None:
    """Kill those of ``pids`` still alive and wait until each has ended:
    reaped when it is (or has become, as an orphan under a subreaper)
    this process's child, otherwise gone or a zombie of its new parent."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
        try:
            os.waitpid(pid, 0)
            continue
        except ChildProcessError:
            pass
        deadline = time.monotonic() + timeout_s
        while _state(pid) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.01)


def end_children() -> None:
    """Kill and reap every child this process still has, until it has
    none; with the subreaper bit set that includes orphaned grandchildren."""
    while True:
        for pid in _children(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


#: seconds between readiness polls of a starting daemon or router.
READY_POLL_S = 0.005


class ServiceStack:
    """``repro serve`` (default config, 2 workers) with ``repro route``
    in front, as child processes on Unix sockets inside ``workdir``."""

    def __init__(self, workdir: str, src_dir: str):
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.env = _clean_env(src_dir)
        self.daemon_addr = os.path.join(workdir, "d.sock")
        self.router_addr = os.path.join(workdir, "r.sock")
        self.daemon: subprocess.Popen | None = None
        self.router: subprocess.Popen | None = None
        self._logs = []

    def _spawn(self, args: list[str], log: str) -> subprocess.Popen:
        fh = open(os.path.join(self.dir, log), "w")
        self._logs.append(fh)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args], cwd=self.dir, env=self.env,
            stdout=fh, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )

    def start(self) -> None:
        # Poll readiness finely: the default 50 ms poll would add up to
        # that much idle time, which does not scale with the host, to
        # ``setup_s``.
        self.daemon = self._spawn(["serve", "--socket", "d.sock"], "serve.log")
        wait_until_ready(self.daemon_addr, timeout_s=30.0, interval_s=READY_POLL_S)
        self.router = self._spawn(
            ["route", "--backends", "d.sock", "--socket", "r.sock"], "route.log",
        )
        wait_until_ready(self.router_addr, timeout_s=30.0, interval_s=READY_POLL_S)

    def pids(self) -> dict:
        return {
            "daemon": [self.daemon.pid] if self.daemon else [],
            "workers": _children(self.daemon.pid) if self.daemon else [],
            "router": [self.router.pid] if self.router else [],
        }

    @staticmethod
    def _wait(proc: subprocess.Popen) -> None:
        """Wait for a process asked to stop; terminate, then kill, it if
        it does not."""
        for escalate in (proc.terminate, proc.kill):
            try:
                proc.wait(timeout=10)
                return
            except subprocess.TimeoutExpired:
                print(f"perfbench: pid {proc.pid} ignored shutdown", file=sys.stderr)
                escalate()
        proc.wait()

    def stop(self) -> None:
        """Shut both down, router first (its backend connection would
        hold the daemon open), and wait until every process, pool workers
        included, has ended."""
        if self.router is not None and self.router.poll() is None:
            self.router.send_signal(signal.SIGINT)
            self._wait(self.router)
        workers = []
        if self.daemon is not None and self.daemon.poll() is None:
            workers = _children(self.daemon.pid)
            try:
                with ServiceClient(self.daemon_addr, timeout_s=10.0) as c:
                    c.shutdown()
            except ServiceError:
                self.daemon.send_signal(signal.SIGINT)
            self._wait(self.daemon)
        # A daemon that had to be killed leaves its pool workers behind.
        end_processes(workers)
        for fh in self._logs:
            fh.close()
        self._logs = []
        self.daemon = self.router = None


def job_payload(kind: str, source: str, params: dict) -> dict:
    """The worker form of a request (what in-process ``execute_job`` takes)."""
    return {"kind": kind, "fidelity": "full", "workload": None, "scale": 1,
            "source": source, "params": params}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def warm_up(stack: ServiceStack, family: str, source: str, line: int, seed: int) -> None:
    """Untimed jobs on both paths so both workers have imported and
    compiled everything once (their inputs never recur)."""
    for addr in (stack.daemon_addr, stack.router_addr):
        with ServiceClient(addr) as c:
            for i in range(4):
                kind = ("attack", "slice")[i % 2]
                params = {"inputs": service_inputs(family, seed, -1 - i), "line": line}
                if addr == stack.router_addr:
                    params["inputs"] = service_inputs(family, seed, -100 - i)
                c.submit(kind, source=source, params=params)


#: the closed loop's request cycle: (connection, kind or "hit").  Each
#: repeat follows a request on its own connection, as a client that
#: re-asks a recent question does.
_CYCLE = (
    ("direct", "attack"), ("direct", "hit"), ("routed", "slice"), ("routed", "hit"),
    ("direct", "slice"), ("routed", "attack"), ("direct", "attack"), ("routed", "slice"),
)


@dataclass
class ServiceResult:
    lat: dict = field(default_factory=lambda: {
        (conn, k): Series() for conn in ("direct", "routed") for k in ("miss", "hit")
    })
    #: (connection, payload, result, Sample) of every answered miss,
    #: for the oracle and the per-request overhead split.
    answered: list = field(default_factory=list)
    requests: int = 0
    misses: int = 0
    degraded: int = 0
    rejected: int = 0
    response_bytes: list = field(default_factory=list)
    responses: list = field(default_factory=list)  # a few, for frame timing
    cpu_ticks: dict = field(default_factory=dict)
    stats_delta: dict = field(default_factory=dict)


def _cache_hits(client: ServiceClient) -> int:
    return int(client.stats()["cache"]["hits"])


def _request(out, conns, done, conn, kind, i, family, source, line, seed,
             timer, spans, ledger) -> None:
    """Send request ``i`` of the cycle and check what comes back."""
    if kind == "hit":
        if not done[conn]:
            return
        recent = done[conn][-REPEAT_WINDOW:]
        payload, first = recent[rng(seed, "hit", i).randrange(len(recent))]
    else:
        params = {"inputs": service_inputs(family, seed, i), "line": line}
        payload, first = job_payload(kind, source, params), None

    def request():
        with spans.span("service", rid=i):
            return conns[conn].submit(
                payload["kind"], source=payload["source"], params=payload["params"],
            )

    got = ledger.timed(timer, f"{conn} {kind} request {i}", request)
    if got is None:
        conns[conn] = ServiceClient(conns[conn].address, REQUEST_TIMEOUT_S).connect()
        return
    sample, resp = got
    status = resp.get("status")
    if status != "ok":
        out.degraded += status == "degraded"
        out.rejected += status == "rejected"
        ledger.fail(f"{conn} {kind} request {i} answered {status!r}")
        return
    out.requests += 1
    out.response_bytes.append(len(canonical(resp)))
    if len(out.responses) < 8:
        out.responses.append(resp)
    if first is None:
        out.misses += 1
        out.lat[(conn, "miss")].add(sample)
        ledger.check(not resp.get("cached"), f"request {i} missed yet was cached")
        done[conn].append((payload, resp["result"]))
        out.answered.append((conn, payload, resp["result"], sample))
    else:
        out.lat[(conn, "hit")].add(sample)
        ledger.check(bool(resp.get("cached")), f"repeat request {i} was not answered by a cache")
        ledger.check(
            canonical(resp["result"]) == canonical(first),
            f"repeat request {i} differs from the answer it repeats",
        )


def service_phase(
    stack: ServiceStack, family: str, source: str, line: int, seed: int,
    clock, seconds, spans, ledger, min_requests=16,
) -> ServiceResult:
    out = ServiceResult()
    conns = {
        "direct": ServiceClient(stack.daemon_addr, REQUEST_TIMEOUT_S).connect(),
        "routed": ServiceClient(stack.router_addr, REQUEST_TIMEOUT_S).connect(),
    }
    done = {"direct": [], "routed": []}  # answered misses per connection
    pids = stack.pids()
    hits0 = {k: _cache_hits(c) for k, c in conns.items()}
    ticks0 = {k: sum(_cpu_ticks(p) for p in v) for k, v in pids.items()}
    deadline = time.perf_counter() + seconds
    i = 0
    try:
        while i < min_requests or time.perf_counter() < deadline:
            # One cycle back to back, as a closed-loop client sends it;
            # the reference loops run between cycles.
            with clock.bracket() as timer:
                for conn, kind in _CYCLE:
                    _request(out, conns, done, conn, kind, i, family, source, line, seed,
                             timer, spans, ledger)
                    i += 1
        out.cpu_ticks = {
            k: sum(_cpu_ticks(p) for p in v) - ticks0[k] for k, v in pids.items()
        }
        out.stats_delta = {k: _cache_hits(c) - hits0[k] for k, c in conns.items()}
    finally:
        for c in conns.values():
            c.close()
    return out


def check_service(sv: ServiceResult, clock, spans, ledger) -> list:
    """Every miss answer equals in-process ``execute_job``.

    Returns ``(connection, request s, in-process execute s)`` per miss,
    normalized, for ``service.jobs.execute_ms`` and the overhead split.
    """
    paired = []
    for conn, payload, answer, latency in sv.answered:
        with spans.span("bench"):
            sample, local = clock.time(execute_job, payload)
            paired.append((conn, latency.norm, sample.norm))
            ledger.check(
                canonical(local) == canonical(answer),
                f"service answer differs from in-process execute_job ({payload['kind']})",
            )
    return paired
