"""Tests for the analysis service (``repro.service``).

Unit layers (protocol framing, admission policy, result cache, job
specs) are tested in-process; the integration layers stand up a real
:class:`~repro.service.AnalysisServer` on a Unix socket (one test uses
TCP) with real worker processes, exercising every job kind, concurrent
clients, queue-full shedding, worker crash recovery, deadlines and
cache idempotency.  Chaos jobs (crash/hang injection, gated behind
``allow_chaos``) make the failure paths deterministic.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service import (
    AdmissionController,
    AnalysisServer,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    cache_key,
    execute_job,
    program_key,
    resolve_spec,
    wait_until_ready,
)
from repro.service.protocol import (
    EOF,
    FRAME,
    PENDING,
    FrameReader,
    MAX_FRAME_BYTES,
    ProtocolError,
    encode,
    recv_frame,
    send_frame,
)

VULN_SOURCE = (
    "fn safe(x) { out(1, 1); }\n"
    "fn admin(x) { out(2, 1); }\n"
    "fn main() {\n"
    "    var fp = alloc(1);\n"
    "    fp[0] = in(0);\n"
    "    icall(fp[0], 0);\n"
    "}\n"
)


@pytest.fixture
def server_factory(tmp_path):
    """Start servers on tmp Unix sockets; all stopped at teardown."""
    servers = []
    counter = [0]

    def start(**kwargs) -> AnalysisServer:
        counter[0] += 1
        kwargs.setdefault("socket_path", str(tmp_path / f"svc{counter[0]}.sock"))
        server = AnalysisServer(ServiceConfig(**kwargs)).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            payload = {"kind": "trace", "values": [1, 2, 3], "nested": {"x": None}}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode({"k": 1})[:3])  # header cut short
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_without_allocation(self):
        a, b = socket.socketpair()
        try:
            import struct

            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="announced"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_frame(self):
        a, b = socket.socketpair()
        try:
            import struct

            a.sendall(struct.pack(">I", 3) + b"\xff\xfe\xfd")
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_frame_reader_survives_split_frames(self):
        """Bytes arriving one at a time across polls must still decode."""
        a, b = socket.socketpair()
        try:
            reader = FrameReader(b)
            wire = encode({"k": "v"})
            for byte in wire[:-1]:
                a.sendall(bytes([byte]))
                state, frame = reader.poll(timeout_s=0.5)
                assert state == PENDING and frame is None
            a.sendall(wire[-1:])
            state, frame = reader.poll(timeout_s=0.5)
            assert state == FRAME
            assert frame == {"k": "v"}
        finally:
            a.close()
            b.close()

    def test_frame_reader_two_frames_one_chunk(self):
        a, b = socket.socketpair()
        try:
            reader = FrameReader(b)
            a.sendall(encode({"n": 1}) + encode({"n": 2}))
            assert reader.poll(0.5) == (FRAME, {"n": 1})
            assert reader.poll(0.5) == (FRAME, {"n": 2})
            a.close()
            assert reader.poll(0.5) == (EOF, None)
        finally:
            b.close()

    def test_frame_reader_timeout_is_pending(self):
        a, b = socket.socketpair()
        try:
            reader = FrameReader(b)
            t0 = time.monotonic()
            assert reader.poll(0.05) == (PENDING, None)
            assert time.monotonic() - t0 < 2.0
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_idle_admits_requested_fidelity(self):
        ctrl = AdmissionController(8, degrade=True)
        decision = ctrl.decide(0, "trace", "full")
        assert (decision.action, decision.fidelity, decision.degraded) == (
            "admit", "full", False,
        )

    def test_degrade_band_steps_one_rung(self):
        ctrl = AdmissionController(8, degrade=True)  # degrade_at=4, shed_at=6
        decision = ctrl.decide(4, "trace", "full")
        assert decision.action == "admit"
        assert decision.fidelity == "dift"
        assert decision.degraded and "overload" in decision.reason

    def test_shed_band_drops_to_cheapest_rung(self):
        ctrl = AdmissionController(8, degrade=True)
        decision = ctrl.decide(6, "trace", "full")
        assert decision.fidelity == "log"

    def test_two_rung_ladder_skips_to_log(self):
        ctrl = AdmissionController(8, degrade=True)
        assert ctrl.decide(4, "slice", "full").fidelity == "log"

    def test_capacity_wall_rejects(self):
        ctrl = AdmissionController(8, degrade=True)
        decision = ctrl.decide(8, "trace", "full")
        assert decision.action == "reject"
        assert "capacity" in decision.reason

    def test_degrade_disabled_goes_straight_to_wall(self):
        ctrl = AdmissionController(8, degrade=False)
        assert ctrl.decide(7, "trace", "full").fidelity == "full"
        assert ctrl.decide(8, "trace", "full").action == "reject"

    def test_requested_low_fidelity_never_upgraded(self):
        ctrl = AdmissionController(8, degrade=True)
        assert ctrl.decide(4, "trace", "log").fidelity == "log"


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip_and_counters(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", {"a": [1, 2]})
        assert cache.get("k") == {"a": [1, 2]}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_isolation_from_caller_mutation(self):
        cache = ResultCache()
        cache.put("k", {"xs": [1]})
        first = cache.get("k")
        first["xs"].append(99)
        assert cache.get("k") == {"xs": [1]}

    def test_bit_identity_of_repeats(self):
        cache = ResultCache()
        cache.put("k", {"b": 2, "a": 1})
        assert canonical(cache.get("k")) == canonical(cache.get("k"))

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refresh a
        cache.put("c", {"v": 3})  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None


# ---------------------------------------------------------------------------
# job specs + in-process execution
# ---------------------------------------------------------------------------
class TestJobs:
    def test_resolve_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown job kind"):
            resolve_spec({"kind": "explode", "workload": "matmul"})

    def test_resolve_rejects_chaos_unless_allowed(self):
        with pytest.raises(ProtocolError, match="chaos"):
            resolve_spec({"kind": "chaos"})
        assert resolve_spec({"kind": "chaos"}, allow_chaos=True).kind == "chaos"

    def test_resolve_needs_exactly_one_program(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            resolve_spec({"kind": "trace"})
        with pytest.raises(ProtocolError, match="exactly one"):
            resolve_spec({"kind": "trace", "workload": "matmul", "source": "x"})

    def test_resolve_rejects_unknown_workload(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            resolve_spec({"kind": "trace", "workload": "quicksort3"})

    def test_resolve_rejects_bad_scale_and_deadline(self):
        with pytest.raises(ProtocolError, match="scale"):
            resolve_spec({"kind": "trace", "workload": "matmul", "scale": 0})
        with pytest.raises(ProtocolError, match="deadline"):
            resolve_spec({"kind": "trace", "workload": "matmul", "deadline_s": -1})

    def test_cache_key_separates_fidelity_and_params(self):
        base = {"kind": "trace", "workload": "matmul"}
        full = resolve_spec(dict(base))
        log = resolve_spec(dict(base, fidelity="log"))
        lined = resolve_spec(dict(base, params={"line": 3}))
        keys = {cache_key(full), cache_key(log), cache_key(lined)}
        assert len(keys) == 3

    def test_program_key_hashes_source(self):
        a = resolve_spec({"kind": "trace", "source": "fn main() { out(1, 1); }"})
        b = resolve_spec({"kind": "trace", "source": "fn main() { out(2, 1); }"})
        assert program_key(a) != program_key(b)
        assert program_key(a).startswith("src:")

    def test_execute_trace_fidelities(self):
        base = {"kind": "trace", "workload": "matmul", "scale": 1, "params": {}}
        full = execute_job(dict(base, fidelity="full"))
        dift = execute_job(dict(base, fidelity="dift"))
        log = execute_job(dict(base, fidelity="log"))
        assert "trace" in full and full["trace"]["stored_bytes"] > 0
        assert "dift" in dift and "trace" not in dift
        assert set(log) == {"kind", "fidelity", "run"}
        # all three fidelities ran the same program to the same outputs
        assert full["run"]["outputs"] == dift["run"]["outputs"] == log["run"]["outputs"]

    def test_execute_attack_full_names_root_cause(self):
        result = execute_job(
            {"kind": "attack", "source": VULN_SOURCE, "fidelity": "full",
             "params": {"inputs": {"0": [1]}}}
        )
        assert result["attack"]["detected"]
        assert result["attack"]["alerts"][0]["root_cause_line"] == 5  # fp[0] = in(0)

    def test_execute_attack_dift_detects_without_root_cause(self):
        result = execute_job(
            {"kind": "attack", "source": VULN_SOURCE, "fidelity": "dift",
             "params": {"inputs": {"0": [1]}}}
        )
        assert result["attack"]["detected"]
        assert "root_cause_line" not in result["attack"]["alerts"][0]

    def test_execute_slice_default_criterion(self):
        result = execute_job(
            {"kind": "slice", "workload": "sort", "scale": 1, "fidelity": "full",
             "params": {}}
        )
        assert result["slice"]["instances"] > 0
        assert result["slice"]["lines"]

    def test_execute_lineage_reports_outputs(self):
        result = execute_job(
            {"kind": "lineage", "workload": "rle", "scale": 1, "fidelity": "full",
             "params": {}}
        )
        assert result["lineage"]["outputs"]


# ---------------------------------------------------------------------------
# integration: live daemon
# ---------------------------------------------------------------------------
class TestServiceIntegration:
    def test_every_kind_roundtrips(self, server_factory):
        server = server_factory(workers=2, queue_capacity=16)
        with ServiceClient(server.config.address()) as client:
            for kind in ("trace", "slice", "attack", "lineage"):
                response = client.submit(kind, workload="matmul")
                assert response["status"] == "ok", response
                assert response["result"]["kind"] == kind
                assert response["result"]["fidelity"] == "full"

    def test_submitted_source_attack(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            response = client.submit(
                "attack", source=VULN_SOURCE, params={"inputs": {"0": [1]}}
            )
        assert response["status"] == "ok"
        assert response["result"]["attack"]["alerts"][0]["root_cause_line"] == 5

    def test_tcp_transport(self):
        config = ServiceConfig(port=0, workers=1)  # ephemeral port
        with AnalysisServer(config):
            health = wait_until_ready(config.address(), timeout_s=10.0)
            assert health["workers_alive"] == 1
            with ServiceClient(config.address()) as client:
                response = client.submit("trace", workload="fsm", fidelity="log")
            assert response["status"] == "ok"

    def test_concurrent_clients_interleaved_kinds(self, server_factory):
        server = server_factory(workers=2, queue_capacity=32)
        kinds = ("trace", "slice", "attack", "lineage")
        responses = {}
        lock = threading.Lock()

        def one(i):
            with ServiceClient(server.config.address()) as client:
                response = client.submit(
                    kinds[i % 4], workload="matmul", params={"tag": i}, cache=False
                )
            with lock:
                responses[i] = response

        threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads), "client hang"
        assert len(responses) == 8
        for i, response in responses.items():
            assert response["status"] == "ok", (i, response)
            assert response["result"]["kind"] == kinds[i % 4]

    def test_queue_full_is_rejected_not_hung(self, server_factory):
        server = server_factory(
            workers=1, queue_capacity=2, allow_chaos=True, degrade=False
        )
        address = server.config.address()
        occupiers = []

        def hang(i):
            with ServiceClient(address) as client:
                occupiers.append(
                    client.submit("chaos", params={"mode": "hang", "sleep_s": 1.0},
                                  cache=False, deadline_s=15.0)
                )

        threads = [threading.Thread(target=hang, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5.0
        while server.pool.depth() < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.pool.depth() >= 2

        t0 = time.monotonic()
        with ServiceClient(address) as client:
            response = client.submit("trace", workload="matmul", cache=False)
        assert response["status"] == "rejected"
        assert "capacity" in response["reason"]
        assert response["retry_after_s"] > 0
        assert time.monotonic() - t0 < 2.0, "rejection must be immediate"
        for t in threads:
            t.join(timeout=30.0)
        assert all(r["status"] == "ok" for r in occupiers)

    def test_overload_degrades_fidelity_with_reason(self, server_factory):
        server = server_factory(
            workers=1, queue_capacity=8, allow_chaos=True, degrade=True
        )
        address = server.config.address()

        def hang(i):
            with ServiceClient(address) as client:
                client.submit("chaos", params={"mode": "hang", "sleep_s": 1.0},
                              cache=False, deadline_s=15.0)

        threads = [threading.Thread(target=hang, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5.0
        while server.pool.depth() < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.pool.depth() >= 4  # degrade band (degrade_at = 4)

        with ServiceClient(address) as client:
            response = client.submit("trace", workload="matmul", cache=False,
                                     deadline_s=30.0)
        assert response["status"] == "degraded"
        assert response["result"]["fidelity"] in ("dift", "log")
        assert "overload" in response["reason"]
        for t in threads:
            t.join(timeout=30.0)

    def test_worker_crash_is_retried_then_failed_cleanly(self, server_factory):
        server = server_factory(workers=1, allow_chaos=True)
        with ServiceClient(server.config.address()) as client:
            response = client.submit("chaos", params={"mode": "exit"},
                                     cache=False, deadline_s=30.0)
            assert response["status"] == "error"
            assert "crashed" in response["error"]
            # the crashed worker was respawned; the service still works
            follow_up = client.submit("trace", workload="matmul")
            assert follow_up["status"] == "ok"
            stats = client.stats()
        assert stats["pool"]["respawns"] >= 1
        assert stats["pool"]["retries"] >= 1
        assert stats["health"]["workers_alive"] == 1

    def test_worker_crash_once_retry_succeeds(self, server_factory, tmp_path):
        server = server_factory(workers=1, allow_chaos=True)
        flag = str(tmp_path / "crash-once.flag")
        with ServiceClient(server.config.address()) as client:
            response = client.submit("chaos", params={"mode": "exit-once", "flag": flag},
                                     cache=False, deadline_s=30.0)
        assert response["status"] == "ok"
        assert response["result"]["chaos"]["survived_retry"] is True

    def test_deadline_cancels_hung_worker(self, server_factory):
        server = server_factory(workers=1, allow_chaos=True)
        with ServiceClient(server.config.address()) as client:
            t0 = time.monotonic()
            response = client.submit("chaos", params={"mode": "hang", "sleep_s": 60.0},
                                     cache=False, deadline_s=1.0)
            elapsed = time.monotonic() - t0
            assert response["status"] == "timeout"
            assert elapsed < 15.0, "timeout must be near the deadline, not the hang"
            # cancellation respawned the worker; the service still works
            follow_up = client.submit("trace", workload="matmul")
            assert follow_up["status"] == "ok"

    def test_cache_repeat_is_bit_identical_and_flagged(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            cold = client.submit("slice", workload="sort")
            warm = client.submit("slice", workload="sort")
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert canonical(cold["result"]) == canonical(warm["result"])

    def test_cache_opt_out(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            client.submit("trace", workload="fsm", cache=False)
            again = client.submit("trace", workload="fsm", cache=False)
        assert again["cached"] is False

    def test_degraded_results_never_poison_full_cache(self, server_factory):
        """A log-fidelity result must not be served to a full request."""
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            log = client.submit("trace", workload="bfs", fidelity="log")
            full = client.submit("trace", workload="bfs", fidelity="full")
        assert log["result"]["fidelity"] == "log"
        assert full["cached"] is False
        assert full["result"]["fidelity"] == "full"

    def test_malformed_job_is_clean_error(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            response = client.request({"kind": "trace"})  # no program
        assert response["status"] == "error"
        assert "exactly one" in response["error"]

    def test_compile_error_is_clean_error(self, server_factory):
        server = server_factory(workers=1)
        with ServiceClient(server.config.address()) as client:
            response = client.submit("trace", source="fn main() { x = ; }")
        assert response["status"] == "error"
        assert "CompileError" in response["error"]

    def test_stats_and_health_fields(self, server_factory):
        server = server_factory(workers=2)
        with ServiceClient(server.config.address()) as client:
            client.submit("trace", workload="matmul")
            health = client.health()
            stats = client.stats()
        assert health["ok"] and health["workers_alive"] == 2
        assert health["queue_capacity"] == 8
        assert stats["pool"]["completed"] >= 1
        assert stats["cache"]["misses"] >= 1
        assert stats["metrics"]["counters"]["service.jobs.admitted"] >= 1
        assert "service.latency.exec_s" in stats["metrics"]["histograms"]

    def test_shutdown_request_stops_daemon(self, tmp_path):
        config = ServiceConfig(socket_path=str(tmp_path / "down.sock"), workers=1)
        server = AnalysisServer(config)
        server.start()
        done = threading.Event()

        def run():
            server.serve_forever()
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        with ServiceClient(config.address()) as client:
            response = client.shutdown()
        assert response["shutting_down"] is True
        assert done.wait(timeout=10.0), "serve_forever did not exit"

    def test_connect_failure_raises_service_error(self, tmp_path):
        with pytest.raises(ServiceError, match="cannot connect"):
            ServiceClient(str(tmp_path / "nothing.sock")).connect()

    def test_wait_until_ready_times_out(self, tmp_path):
        with pytest.raises(ServiceError, match="not ready"):
            wait_until_ready(str(tmp_path / "nothing.sock"), timeout_s=0.3)


def _proc_state(pid):
    """(state, ppid) of ``pid`` from /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def _live_children(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            info = _proc_state(int(entry))
            if info is not None and info[1] == pid and info[0] != "Z":
                kids.append(int(entry))
    return kids


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_exit_when_daemon_is_killed(tmp_path):
    """A SIGKILLed daemon gets no chance to stop its pool; its worker
    processes must notice and exit on their own."""
    path = str(tmp_path / "killed.sock")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", path, "--workers", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        wait_until_ready(path, timeout_s=30.0)
        deadline = time.monotonic() + 10.0
        while len(workers) < 2 and time.monotonic() < deadline:
            workers = _live_children(daemon.pid)
            time.sleep(0.05)
        assert len(workers) == 2, workers
        daemon.kill()
        daemon.wait(timeout=10.0)
        deadline = time.monotonic() + 5.0
        alive = workers
        while alive and time.monotonic() < deadline:
            time.sleep(0.1)
            alive = [
                pid for pid in workers
                if (_proc_state(pid) or ("Z",))[0] != "Z"
            ]
        assert alive == [], f"workers {alive} outlived their daemon"
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10.0)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


class TestServiceConfig:
    def test_exactly_one_transport(self, tmp_path):
        with pytest.raises(ValueError):
            AnalysisServer(ServiceConfig())
        with pytest.raises(ValueError):
            AnalysisServer(ServiceConfig(socket_path="x", port=1))

    def test_address_forms(self):
        assert ServiceConfig(socket_path="/x/y.sock").address() == "unix:///x/y.sock"
        assert ServiceConfig(port=81).address() == "tcp://127.0.0.1:81"
