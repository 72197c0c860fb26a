"""Unit tests for the DIFT core: policies, shadow state, propagation,
sources, sinks, attack detection."""

import pytest

from repro.dift import BoolTaintPolicy, DIFTEngine, PCTaintPolicy, ShadowState, SinkRule
from repro.lang import compile_source
from repro.vm import Machine, RunStatus

from .conftest import compile_and_run


def run_dift(src, inputs=None, policy=None, **engine_kw):
    cp = compile_source(src)
    m = Machine(cp.program)
    for chan, values in (inputs or {}).items():
        m.io.provide(chan, values)
    engine = DIFTEngine(policy or BoolTaintPolicy(), **engine_kw).attach(m)
    res = m.run()
    return m, res, engine, cp


# --- shadow state ----------------------------------------------------------
class TestShadow:
    def test_none_means_untainted(self):
        s = ShadowState(BoolTaintPolicy())
        s.set_reg(0, 1, True)
        s.set_reg(0, 1, None)
        assert s.reg(0, 1) is None
        assert s.tainted_regs == 0

    def test_cells_and_ranges(self):
        s = ShadowState(BoolTaintPolicy())
        for a in range(10, 15):
            s.set_cell(a, True)
        s.clear_range(11, 3)
        assert s.cell(10) is True and s.cell(14) is True
        assert s.cell(12) is None
        assert s.tainted_cells == 2

    def test_shadow_bytes_scale_with_policy(self):
        b = ShadowState(BoolTaintPolicy())
        p = ShadowState(PCTaintPolicy())
        for s in (b, p):
            s.set_cell(1, 1)
            s.set_cell(2, 1)
        assert p.shadow_bytes == 4 * b.shadow_bytes

    def test_snapshot_isolated(self):
        s = ShadowState(BoolTaintPolicy())
        s.set_cell(1, True)
        snap = s.snapshot()
        s.set_cell(2, True)
        assert snap.cell(2) is None

    @pytest.mark.parametrize("array", [False, True])
    def test_clear_range_over_untainted_holes(self, array):
        # Regression: a range spanning mostly-untainted addresses must
        # remove exactly the tainted cells inside it, in one pass, with
        # the tainted-cell count staying consistent — for the dict and
        # the array store alike.
        s = ShadowState(BoolTaintPolicy(), array=array)
        tainted = [3, 4, 9_000, 9_001, 50_000]
        for a in tainted:
            s.set_cell(a, True)
        assert s.tainted_cells == len(tainted)
        # Range is far larger than the tainted population and overlaps
        # two distant clusters plus the untainted gulf between them.
        s.clear_range(2, 10_000)
        assert s.tainted_cells == 1
        assert s.cell(50_000) is True
        for a in tainted[:-1]:
            assert s.cell(a) is None
        # Clearing an entirely-untainted range is a no-op.
        s.clear_range(100, 40_000)
        assert s.tainted_cells == 1
        s.clear_range(49_999, 3)
        assert s.tainted_cells == 0
        assert s.mem_items() == {}


# --- propagation ------------------------------------------------------------
class TestPropagation:
    def test_input_taints_arithmetic_chain(self):
        m, res, eng, cp = run_dift(
            """
            fn main() {
                var x = in(0);
                var y = x * 2 + 1;
                var z = 5;
                out(y, 1);
                out(z, 1);
            }
            """,
            inputs={0: [10]},
        )
        assert eng.stats.sources == 1
        assert eng.stats.tainted_instructions > 0
        # y's slot (memory) is tainted, z's is not
        tainted = set(eng.shadow.mem)
        y_values = [a for a in tainted]
        assert len(y_values) >= 1

    def test_constants_clear_taint(self):
        m, res, eng, _ = run_dift(
            """
            fn main() {
                var x = in(0);
                x = 7;          // overwritten with a constant
                out(x, 1);
            }
            """,
            inputs={0: [1]},
            sinks=[SinkRule(kind="out", action="record")],
        )
        assert res.status is RunStatus.EXITED
        assert eng.alerts == []  # the out() emits an untainted constant

    def test_taint_through_memory(self):
        m, res, eng, _ = run_dift(
            """
            global buf[4];
            fn main() {
                buf[2] = in(0);
                var y = buf[2];
                out(y, 1);
            }
            """,
            inputs={0: [5]},
            sinks=[SinkRule(kind="out", action="record")],
        )
        assert len(eng.alerts) == 1

    def test_taint_through_call_and_return(self):
        m, res, eng, _ = run_dift(
            """
            fn id(x) { return x; }
            fn main() { out(id(in(0)), 1); }
            """,
            inputs={0: [3]},
            sinks=[SinkRule(kind="out", action="record")],
        )
        assert len(eng.alerts) == 1

    def test_taint_through_spawn_argument(self):
        m, res, eng, _ = run_dift(
            """
            fn child(x) { out(x, 1); }
            fn main() {
                var t = spawn(child, in(0));
                join(t);
            }
            """,
            inputs={0: [9]},
            sinks=[SinkRule(kind="out", action="record")],
        )
        assert len(eng.alerts) == 1

    def test_alloc_clears_stale_taint_on_reuse(self):
        m, res, eng, _ = run_dift(
            """
            fn main() {
                var p = alloc(2);
                p[0] = in(0);
                free(p);
                var q = alloc(2);   // same block reused
                out(q[0], 1);       // fresh memory: untainted
            }
            """,
            inputs={0: [4]},
            sinks=[SinkRule(kind="out", action="record")],
        )
        assert eng.alerts == []

    def test_address_propagation_off_by_default(self):
        src = """
        global table[4];
        fn main() {
            table[0] = 7;
            var i = in(0);
            out(table[i], 1);   // value untainted, index tainted
        }
        """
        _, _, eng, _ = run_dift(src, inputs={0: [0]}, sinks=[SinkRule("out", action="record")])
        assert eng.alerts == []
        _, _, eng2, _ = run_dift(
            src,
            inputs={0: [0]},
            sinks=[SinkRule("out", action="record")],
            propagate_addresses=True,
        )
        assert len(eng2.alerts) == 1

    def test_source_channel_filter(self):
        src = "fn main() { out(in(0) + in(3), 1); }"
        _, _, eng, _ = run_dift(
            src,
            inputs={0: [1], 3: [2]},
            sinks=[SinkRule("out", action="record")],
            source_channels=frozenset({3}),
        )
        assert eng.stats.sources == 1
        assert len(eng.alerts) == 1  # channel-3 taint reaches the sink


# --- sinks / attacks -----------------------------------------------------------
ATTACK_SRC = """
fn greet(x) { out(100 + x, 1); }
fn admin(x) { out(9999, 1); }
fn main() {
    var buf = alloc(4);
    var fp = alloc(1);
    fp[0] = fnid(greet);
    var n = in(0);
    var i = 0;
    while (i < n) {
        buf[i] = in(0);     // no bounds check: can overwrite fp[0]
        i = i + 1;
    }
    icall(fp[0], 7);
}
"""


class TestSinks:
    def test_benign_run_not_flagged(self):
        m, res, eng, _ = run_dift(ATTACK_SRC, inputs={0: [2, 5, 6]})
        assert res.status is RunStatus.EXITED
        assert m.io.output(1) == [107]
        assert eng.alerts == []

    def test_overflow_attack_detected(self):
        m, res, eng, _ = run_dift(ATTACK_SRC, inputs={0: [5, 0, 0, 0, 0, 1]})
        assert res.status is RunStatus.FAILED
        assert res.failure.kind == "attack_detected"
        assert m.io.output(1) == []  # hijacked call never ran
        assert eng.alerts[0].sink == "icall"

    def test_pc_taint_names_root_cause(self):
        cp = compile_source(ATTACK_SRC)
        m = Machine(cp.program)
        m.io.provide(0, [5, 0, 0, 0, 0, 1])
        eng = DIFTEngine(PCTaintPolicy()).attach(m)
        res = m.run()
        assert res.failure.kind == "attack_detected"
        culprit_line = cp.line_of(eng.alerts[0].label)
        # the most recent writer of the hijacked pointer is the
        # overflowing copy statement `buf[i] = in(0);`
        assert "buf[i] = in(0)" in ATTACK_SRC.splitlines()[culprit_line - 1]
        assert res.failure.message != ""

    def test_record_action_does_not_stop_guest(self):
        m, res, eng, _ = run_dift(
            ATTACK_SRC,
            inputs={0: [5, 0, 0, 0, 0, 1]},
            sinks=[SinkRule(kind="icall", action="record")],
        )
        assert res.status is RunStatus.EXITED
        assert m.io.output(1) == [9999]  # attack succeeded, but was logged
        assert len(eng.alerts) == 1

    def test_out_sink_channel_filter(self):
        src = "fn main() { out(in(0), 1); out(in(0), 2); }"
        _, _, eng, _ = run_dift(
            src,
            inputs={0: [1, 2]},
            sinks=[SinkRule(kind="out", channels=frozenset({2}), action="record")],
        )
        assert len(eng.alerts) == 1
        assert eng.alerts[0].sink == "out"


# --- policies & accounting ----------------------------------------------------------
class TestPoliciesAndCosts:
    def test_pc_policy_label_is_latest_writer(self):
        cp = compile_source(
            """
            fn main() {
                var x = in(0);
                var y = x + 1;   // y's label must be this statement
                out(y, 1);
            }
            """
        )
        m = Machine(cp.program)
        m.io.provide(0, [1])
        eng = DIFTEngine(
            PCTaintPolicy(), sinks=[SinkRule("out", action="record")]
        ).attach(m)
        m.run()
        label = eng.alerts[0].label
        # copies preserve labels, so the label names the computation of
        # y on line 4, not the load that delivered it to out()
        assert cp.line_of(label) == 4

    def test_bool_policy_combine(self):
        p = BoolTaintPolicy()
        assert p.combine([True, True]) is True

    def test_overhead_charged_inline(self):
        src = "fn main() { var x = in(0); out(x + 1, 1); }"
        cp = compile_source(src)
        m = Machine(cp.program)
        m.io.provide(0, [1])
        DIFTEngine(BoolTaintPolicy(), sinks=[]).attach(m)
        res = m.run()
        assert res.cycles.overhead > 0
        assert res.cycles.slowdown > 1.0

    def test_overhead_suppressed_for_helper_mode(self):
        src = "fn main() { var x = in(0); out(x + 1, 1); }"
        cp = compile_source(src)
        m = Machine(cp.program)
        m.io.provide(0, [1])
        DIFTEngine(BoolTaintPolicy(), sinks=[], charge_overhead=False).attach(m)
        res = m.run()
        assert res.cycles.overhead == 0

    def test_memory_overhead_metric(self):
        m, res, eng, _ = run_dift(
            """
            global sink[64];
            fn main() {
                var i = 0;
                while (i < 64) { sink[i] = in(0); i = i + 1; }
            }
            """,
            inputs={0: list(range(64))},
            sinks=[],
        )
        assert eng.memory_overhead(m) > 0

    def test_stats_taint_rate(self):
        m, res, eng, _ = run_dift(
            "fn main() { var x = in(0); var y = x + 1; var z = 1 + 2; }",
            inputs={0: [1]},
            sinks=[],
        )
        assert 0 < eng.stats.taint_rate < 1
