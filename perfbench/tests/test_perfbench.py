"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke runs use one set-up and a one-second window, so each takes
seconds rather than the minute a real run takes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import phases  # noqa: E402
import run  # noqa: E402
from hostref import C_REF_NS_PER_REP, HostClock  # noqa: E402
from spans import SpanRecorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _smoke(family: str, tmp_path, trace: bool = False) -> dict:
    return run.run_workload(
        family, seed=3, seconds=1.0, trace=trace, setup_reps=1,
        workdir=str(tmp_path / "work"),
    )


def _metric_units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


class TestInputs:
    @pytest.mark.parametrize("family", gen.FAMILIES)
    def test_same_seed_same_bytes_across_processes(self, family):
        code = (
            "import sys; sys.path[:0] = sys.argv[1:3]; import gen; "
            f"sys.stdout.write(gen.fingerprint({family!r}, 7))"
        )
        outs = [
            subprocess.run(
                [sys.executable, "-c", code, BENCH, os.path.join(ROOT, "src")],
                capture_output=True, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1] == gen.fingerprint(family, 7).encode()

    @pytest.mark.parametrize("family", gen.FAMILIES)
    def test_other_seed_other_inputs(self, family):
        assert gen.fingerprint(family, 7) != gen.fingerprint(family, 8)


class TestSmoke:
    @pytest.mark.parametrize("family", gen.FAMILIES)
    def test_every_workload_end_to_end(self, family, tmp_path):
        result = _smoke(family, tmp_path)
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] > 0
        assert _metric_units(result) == _units("end_to_end")
        assert all(m["value"] > 0 for m in result["metrics"].values())

    def test_traced_run_reports_every_layer(self, tmp_path):
        result = _smoke("monitor", tmp_path, trace=True)
        assert result["correct"] is True
        assert result["failed"] == 0
        assert _metric_units(result) == _units("per_layer")
        shares = [
            m["value"] for name, m in result["metrics"].items()
            if name.startswith("trace.self_share.") or name == "trace.unattributed_share"
        ]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)


class TestPlantedWrongAnswers:
    def test_wrong_service_answer_fails_the_run(self, tmp_path, monkeypatch):
        real = phases.execute_job

        def planted(payload):
            out = real(payload)
            out["run"]["instructions"] += 1
            return out

        monkeypatch.setattr(phases, "execute_job", planted)
        result = _smoke("calls", tmp_path)
        assert result["correct"] is False

    def test_wrong_stored_slice_fails_the_run(self, tmp_path, monkeypatch):
        real = phases.slice_stored

        def planted(stored, criterion, *args, **kw):
            return real(stored, max(0, criterion - 1), *args, **kw)

        monkeypatch.setattr(phases, "slice_stored", planted)
        result = _smoke("monitor", tmp_path)
        assert result["correct"] is False

    def test_wrong_dift_culprit_fails_the_run(self, tmp_path, monkeypatch):
        real = phases.run_dift

        def planted(p, spans, **kw):
            out = real(p, spans, **kw)
            if "kernel" not in kw:  # the shipped engine, not the oracle
                out["alerts"] = out["alerts"] + [(0, 0, 0)]
            return out

        monkeypatch.setattr(phases, "run_dift", planted)
        monkeypatch.setitem(phases.RUNNERS, "dift", planted)
        result = _smoke("monitor", tmp_path)
        assert result["correct"] is False


class TestHarness:
    def test_missing_sources_exit_nonzero_without_result(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(BENCH, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "monitor",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""

    def test_normalization_scales_by_nearby_reference_loops(self):
        clock = HostClock(reps=1000)
        c_ref = C_REF_NS_PER_REP * 1000
        clock.loops = [(0.0, c_ref), (0.1, c_ref)]
        assert clock.scale(0.02, 0.05) == pytest.approx(1.0)
        # A host twice as slow doubles the loop time: halve the sample.
        clock.loops = [(0.0, 2 * c_ref), (0.1, 2 * c_ref)]
        assert clock.scale(0.02, 0.05) == pytest.approx(0.5)
        # Loops seconds away from the sample do not count.
        clock.loops = [(-5.0, 9 * c_ref), (0.0, c_ref), (0.1, c_ref), (9.0, 9 * c_ref)]
        assert clock.scale(0.02, 0.05) == pytest.approx(1.0)

    def test_bracketed_samples_share_their_loops(self):
        clock = HostClock(reps=100)
        with clock.bracket() as timer:
            a, out_a = timer(sum, [1, 2])
            b, out_b = timer(sum, [3])
        assert (out_a, out_b) == (3, 3)
        assert len(clock.loops) == 2
        assert a.norm > 0 and b.norm > 0

    def test_self_times_cover_the_root(self):
        spans = SpanRecorder()
        with spans.span("phase:x"):
            with spans.span("vm"):
                with spans.span("dift"):
                    pass
            with spans.span("lake.query"):
                pass
        layers, residual, root = spans.self_times()
        assert sum(layers.values()) + residual == root
        assert set(layers) == {"vm", "dift", "lake.query"}

    def test_percentile_is_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert phases.percentile(values, 0.9) == 90.0
        assert phases.percentile(values, 0.5) == 50.0


def _session_members(sid: int) -> list[tuple[int, str]]:
    """(pid, state) of every process in session ``sid``."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append((int(name), fields[0]))
    return found


class TestProcesses:
    def test_traced_run_leaves_no_process_behind(self):
        """The service stack, its pool workers, the parallel helper and
        multiprocessing's resource tracker have all ended when the run
        exits, not shortly after."""
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", "monitor",
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, start_new_session=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out, err = proc.communicate(timeout=600)
        left = _session_members(proc.pid)
        assert proc.returncode == 0, err[-2000:]
        assert json.loads(out.strip().splitlines()[-1])["correct"]
        assert left == []

    def test_end_processes_ends_an_orphan(self):
        parent = subprocess.Popen(
            [sys.executable, "-c",
             "import os, time\n"
             "pid = os.fork()\n"
             "if pid: print(pid, flush=True)\n"
             "time.sleep(60)\n"],
            stdout=subprocess.PIPE, text=True,
        )
        orphan = int(parent.stdout.readline())
        parent.kill()
        parent.wait()
        parent.stdout.close()
        assert phases._state(orphan) not in (None, "Z")
        phases.end_processes([orphan])
        assert phases._state(orphan) in (None, "Z")
