"""Golden-file tests for telemetry artifacts.

Each fixture under ``tests/goldens/`` is the normalized JSON a fully
deterministic run must reproduce byte-for-byte: two RunReports and one
Chrome trace.  Normalization strips exactly the fields documented as
nondeterministic — ``wall_time_s`` on reports, ``wall_ns`` in span
args — so any other drift (cycle model, record accounting, metric
names, span timestamps) fails the diff.

Runs use the default configuration, so the introspection counters of
the implementations that actually ran (``fastpath.dispatch_hits``,
``ontrac.store.chunks``, ``ontrac.store.resident_bytes``,
``shadow.pages_allocated``) are part of the report.
``ontrac.store.resident_bytes`` stays golden-stable because it is the
deterministic column-payload figure, not a ``getsizeof``/tracemalloc
measurement.

Regenerate after an intentional change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_goldens.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.dift import DIFTEngine, PCTaintPolicy, SinkRule
from repro.lang import compile_source
from repro.ontrac import OntracConfig
from repro.telemetry import Telemetry, build_report
from repro.vm import Machine
from repro.workloads.spec_like import matmul, sort

GOLDEN_DIR = Path(__file__).parent / "goldens"

ATTACK_SOURCE = """
fn safe(x) { out(1, 1); }
fn admin(x) { out(2, 1); }
fn main() {
    var fp = alloc(1);
    fp[0] = in(0);
    icall(fp[0], 0);
}
"""


# --- normalization ----------------------------------------------------------
def normalize_report(report) -> dict:
    """Report as JSON data minus the wall clock."""
    return report.to_dict(deterministic=True)


def normalize_chrome_trace(trace: dict) -> dict:
    """Chrome trace minus per-span wall-clock annotations."""
    events = []
    for ev in trace["traceEvents"]:
        ev = dict(ev)
        if "args" in ev:
            ev["args"] = {k: v for k, v in ev["args"].items() if k != "wall_ns"}
        events.append(ev)
    return {**trace, "traceEvents": events}


def dumps(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


# --- fixture builders -------------------------------------------------------
def build_trace_report() -> dict:
    telemetry = Telemetry.on()
    runner = matmul(4).runner()
    runner.telemetry = telemetry
    _, _, result = runner.run_traced(OntracConfig())
    return normalize_report(build_report("trace", result, telemetry.registry))


def build_dift_report() -> dict:
    telemetry = Telemetry.on()
    compiled = compile_source(ATTACK_SOURCE)
    machine = Machine(compiled.program, telemetry=telemetry)
    machine.io.provide(0, [2])  # out-of-range index: hijack attempt
    engine = DIFTEngine(
        PCTaintPolicy(), sinks=[SinkRule(kind="icall", action="record")]
    ).attach(machine)
    result = machine.run()
    engine.publish_telemetry(telemetry.registry)
    return normalize_report(
        build_report("dift", result, telemetry.registry, extra={"alerts": len(engine.alerts)})
    )


def build_sort_chrome_trace() -> dict:
    telemetry = Telemetry.on()
    runner = sort(16).runner()
    runner.telemetry = telemetry
    runner.run_traced(OntracConfig())
    return normalize_chrome_trace(telemetry.tracer.to_chrome_trace())


GOLDENS = {
    "report_trace_matmul.json": build_trace_report,
    "report_dift_attack.json": build_dift_report,
    "trace_sort_traced.json": build_sort_chrome_trace,
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden(name):
    produced = dumps(GOLDENS[name]())
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(produced)
    expected = path.read_text()
    assert produced == expected, f"{name} drifted from golden; see module docstring"


def test_goldens_are_normalized():
    # The stored fixtures themselves must not contain wall-clock fields.
    for name in GOLDENS:
        text = (GOLDEN_DIR / name).read_text()
        assert "wall_time_s" not in text
        assert "wall_ns" not in text
