"""Unit tests for the MiniC front end: lexer, parser, code generator."""

import pytest

from repro.lang import CompileError, TokKind, compile_source, parse, tokenize
from repro.vm import STDOUT, Machine, RandomScheduler, RunStatus


def run_minic(src, inputs=None, scheduler=None, max_instructions=2_000_000):
    cp = compile_source(src)
    m = Machine(cp.program, scheduler=scheduler)
    for chan, values in (inputs or {}).items():
        m.io.provide(chan, values)
    res = m.run(max_instructions=max_instructions)
    return m, res, cp


def out_of(src, **kw):
    m, res, _ = run_minic(src, **kw)
    assert res.status in (RunStatus.EXITED, RunStatus.HALTED), res
    return m.io.output(STDOUT)


# --- lexer -------------------------------------------------------------------
class TestLexer:
    def test_kinds(self):
        toks = tokenize("fn x 12 + // c\n0x1f 'A'")
        kinds = [t.kind for t in toks]
        assert kinds == [
            TokKind.KEYWORD,
            TokKind.IDENT,
            TokKind.NUMBER,
            TokKind.OP,
            TokKind.NUMBER,
            TokKind.NUMBER,
            TokKind.EOF,
        ]
        assert toks[4].value == 31
        assert toks[5].value == 65

    def test_line_tracking(self):
        toks = tokenize("a\nb\n  c")
        assert [(t.line, t.col) for t in toks[:3]] == [(1, 1), (2, 1), (3, 3)]

    def test_block_comments(self):
        toks = tokenize("a /* skip\nme */ b")
        assert [t.text for t in toks[:2]] == ["a", "b"]
        assert toks[1].line == 2

    def test_two_char_operators(self):
        toks = tokenize("<= >= == != && || << >>")
        assert [t.text for t in toks[:-1]] == ["<=", ">=", "==", "!=", "&&", "||", "<<", ">>"]

    def test_errors(self):
        with pytest.raises(CompileError):
            tokenize("@")
        with pytest.raises(CompileError):
            tokenize("/* unterminated")
        with pytest.raises(CompileError):
            tokenize("'ab'")


# --- parser -------------------------------------------------------------------
class TestParser:
    def test_module_shape(self):
        mod = parse(
            """
            const K = 3;
            global g;
            global arr[10];
            fn f(a, b) { return a + b; }
            fn main() { out(f(1, 2), 1); }
            """
        )
        assert [c.name for c in mod.consts] == ["K"]
        assert [(g.name, g.size) for g in mod.globals] == [("g", 1), ("arr", 10)]
        assert [f.name for f in mod.functions] == ["f", "main"]
        assert mod.functions[0].params == ["a", "b"]

    def test_precedence(self):
        mod = parse("fn main() { var x = 1 + 2 * 3; }")
        init = mod.functions[0].body[0].init
        assert init.op == "+"
        assert init.right.op == "*"

    def test_else_if_chain(self):
        mod = parse(
            "fn main() { if (1) { } else if (2) { } else { return 3; } }"
        )
        stmt = mod.functions[0].body[0]
        inner = stmt.otherwise[0]
        assert inner.cond.value == 2
        assert inner.otherwise[0].value.value == 3

    @pytest.mark.parametrize(
        "src",
        [
            "fn main() { 1 + 2; }",  # bare expression statement
            "fn main() { 3 = x; }",  # bad assignment target
            "fn main() { if 1 { } }",  # missing parens
            "fn main() { var x = ; }",
            "fn main() {",  # unterminated block
            "global g[0];",  # zero-size array
            "junk",
        ],
    )
    def test_rejects(self, src):
        with pytest.raises(CompileError):
            parse(src)


# --- codegen: expressions ----------------------------------------------------------
class TestExpressions:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("1 + 2 * 3", 7),
            ("(1 + 2) * 3", 9),
            ("10 / 3", 3),
            ("10 % 3", 1),
            ("-5 + 2", -3),
            ("1 << 4", 16),
            ("255 >> 4", 15),
            ("6 & 3", 2),
            ("6 | 3", 7),
            ("6 ^ 3", 5),
            ("3 < 4", 1),
            ("4 <= 4", 1),
            ("3 > 4", 0),
            ("4 >= 5", 0),
            ("4 == 4", 1),
            ("4 != 4", 0),
            ("!0", 1),
            ("!7", 0),
            ("1 && 2", 1),
            ("0 && 2", 0),
            ("0 || 0", 0),
            ("0 || 9", 1),
            ("2 + 3 == 5 && 1", 1),
        ],
    )
    def test_arith(self, expr, expected):
        assert out_of(f"fn main() {{ out({expr}, 1); }}") == [expected]

    def test_short_circuit_skips_side_effects(self):
        # The right operand of && must not run when the left is false.
        out = out_of(
            """
            global hits;
            fn bump() { hits = hits + 1; return 1; }
            fn main() {
                var a = 0 && bump();
                var b = 1 || bump();
                out(hits, 1);
                out(a + b, 1);
            }
            """
        )
        assert out == [0, 1]

    def test_deeply_nested_expression(self):
        expr = "1" + " + 1" * 20
        assert out_of(f"fn main() {{ out({expr}, 1); }}") == [21]

    def test_call_in_expression_saves_temps(self):
        # f() clobbers temps; the partial sum must survive the call.
        out = out_of(
            """
            fn f(x) { return x * 100; }
            fn main() { out(7 + f(2) + 3, 1); }
            """
        )
        assert out == [210]

    def test_nested_calls(self):
        out = out_of(
            """
            fn add(a, b) { return a + b; }
            fn main() { out(add(add(1, 2), add(3, 4)), 1); }
            """
        )
        assert out == [10]

    def test_four_params(self):
        out = out_of(
            """
            fn f(a, b, c, d) { return a * 1000 + b * 100 + c * 10 + d; }
            fn main() { out(f(1, 2, 3, 4), 1); }
            """
        )
        assert out == [1234]


# --- codegen: statements & control flow ----------------------------------------------
class TestStatements:
    def test_while_loop(self):
        assert out_of(
            "fn main() { var s = 0; var i = 1; while (i <= 10) { s = s + i; i = i + 1; } out(s, 1); }"
        ) == [55]

    def test_for_loop_with_break_continue(self):
        out = out_of(
            """
            fn main() {
                var s = 0;
                for (var i = 0; i < 100; i = i + 1) {
                    if (i == 5) { break; }
                    if (i % 2 == 0) { continue; }
                    s = s + i;
                }
                out(s, 1);
            }
            """
        )
        assert out == [4]  # 1 + 3

    def test_nested_loops(self):
        out = out_of(
            """
            fn main() {
                var s = 0;
                for (var i = 0; i < 3; i = i + 1) {
                    for (var j = 0; j < 3; j = j + 1) {
                        if (j > i) { break; }
                        s = s + 1;
                    }
                }
                out(s, 1);
            }
            """
        )
        assert out == [6]

    def test_return_without_value_yields_zero(self):
        assert out_of("fn f() { return; }\nfn main() { out(f(), 1); }") == [0]

    def test_fall_off_end_returns_zero(self):
        assert out_of("fn f() { }\nfn main() { out(f(), 1); }") == [0]

    def test_recursion_fibonacci(self):
        out = out_of(
            """
            fn fib(n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() { out(fib(10), 1); }
            """
        )
        assert out == [55]

    def test_globals_scalar_and_array(self):
        out = out_of(
            """
            global g;
            global arr[4];
            fn main() {
                g = 5;
                arr[0] = 10;
                arr[g - 4] = 20;
                out(g + arr[0] + arr[1], 1);
            }
            """
        )
        assert out == [35]

    def test_pointer_through_global(self):
        out = out_of(
            """
            global buf;
            fn fill(x) { buf[0] = x; return 0; }
            fn main() {
                buf = alloc(2);
                fill(9);
                out(buf[0], 1);
            }
            """
        )
        assert out == [9]

    def test_const_folding_reference(self):
        assert out_of("const K = 6;\nfn main() { out(K * 7, 1); }") == [42]


# --- codegen: builtins -----------------------------------------------------------
class TestBuiltins:
    def test_io(self):
        m, res, _ = run_minic(
            "fn main() { out(in(0) + in(0), 1); }", inputs={0: [20, 22]}
        )
        assert m.io.output(STDOUT) == [42]

    def test_assert_failure(self):
        m, res, _ = run_minic("fn main() { assert(1 == 2); }")
        assert res.status is RunStatus.FAILED
        assert res.failure.kind == "assert"

    def test_fail(self):
        _, res, _ = run_minic("fn main() { fail(3); }")
        assert res.failure.kind == "fail"

    def test_halt(self):
        _, res, _ = run_minic("fn worker(x) { while (1) { } }\nfn main() { spawn(worker, 0); halt(); }")
        assert res.status is RunStatus.HALTED

    def test_alloc_free_roundtrip(self):
        out = out_of(
            """
            fn main() {
                var p = alloc(3);
                p[2] = 7;
                out(p[2], 1);
                free(p);
            }
            """
        )
        assert out == [7]

    def test_fnid_and_icall(self):
        out = out_of(
            """
            fn twice(x) { return x + x; }
            fn main() {
                var f = fnid(twice);
                out(icall(f, 21), 1);
            }
            """
        )
        assert out == [42]

    def test_spawn_join_counter(self):
        src = """
        global counter;
        fn worker(n) {
            var i = 0;
            while (i < n) {
                lock(1);
                counter = counter + 1;
                unlock(1);
                i = i + 1;
            }
        }
        fn main() {
            var t1 = spawn(worker, 25);
            var t2 = spawn(worker, 25);
            join(t1); join(t2);
            out(counter, 1);
        }
        """
        for seed in (0, 3, 9):
            m, res, _ = run_minic(
                src, scheduler=RandomScheduler(seed=seed, min_quantum=1, max_quantum=8)
            )
            assert m.io.output(STDOUT) == [50]

    def test_barrier(self):
        out = out_of(
            """
            global done[2];
            fn w(i) {
                barrier_wait(7);
                done[i] = 1;
            }
            fn main() {
                barrier_init(7, 3);
                var a = spawn(w, 0);
                var b = spawn(w, 1);
                barrier_wait(7);
                join(a); join(b);
                out(done[0] + done[1], 1);
            }
            """
        )
        assert out == [2]

    def test_out_returns_value(self):
        assert out_of("fn main() { out(out(5, 1) + 1, 1); }") == [5, 6]


# --- semantic errors --------------------------------------------------------------
class TestSemanticErrors:
    @pytest.mark.parametrize(
        "src,fragment",
        [
            ("fn main() { x = 1; }", "undeclared"),
            ("fn main() { out(x, 1); }", "undeclared"),
            ("fn main() { var x = 1; var x = 2; }", "duplicate"),
            ("const K = 1;\nfn main() { K = 2; }", "const"),
            ("global g;\nfn main() { var g = 1; }", "shadows"),
            ("fn main() { break; }", "break outside"),
            ("fn main() { continue; }", "continue outside"),
            ("fn f(a, b, c, d, e) { }\nfn main() { }", "parameters"),
            ("fn main() { nosuch(); }", "undefined function"),
            ("fn f(a) { }\nfn main() { f(); }", "expects 1 argument"),
            ("fn main() { out(1, in(0)); }", "compile-time constant"),
            ("fn main() { spawn(main, 1); }", None),  # ok actually? main takes 0 params
            ("fn main() { var x = fnid(nope); }", "must name a function"),
            ("fn main() { var q = main; }", "bare function name"),
            ("global a[3];\nfn main() { a = 5; }", "cannot assign to array"),
            ("fn other() { }", "missing entry function"),
            ("global g; global g;", "duplicate symbol"),
        ],
    )
    def test_rejected(self, src, fragment):
        if fragment is None:
            compile_source(src)  # should compile fine
            return
        with pytest.raises(CompileError) as exc:
            compile_source(src)
        assert fragment in str(exc.value)

    def test_spawn_multi_param_target_rejected(self):
        with pytest.raises(CompileError):
            compile_source("fn w(a, b) { }\nfn main() { spawn(w, 1); }")


# --- metadata --------------------------------------------------------------------
class TestMetadata:
    def test_line_map_points_into_source(self):
        src = "fn main() {\n    var x = 1;\n    out(x, 1);\n}\n"
        cp = compile_source(src)
        lines = set(cp.line_map.values())
        assert 2 in lines and 3 in lines

    def test_globals_metadata(self):
        cp = compile_source("global a;\nglobal b[5];\nfn main() { }")
        addr_a, size_a = cp.globals["a"]
        addr_b, size_b = cp.globals["b"]
        assert size_a == 1 and size_b == 5
        assert addr_b == addr_a + 1

    def test_pcs_of_line_inverse(self):
        src = "fn main() {\n    out(1, 1);\n}\n"
        cp = compile_source(src)
        for pc in cp.pcs_of_line(2):
            assert cp.line_of(pc) == 2

    def test_program_validates(self):
        cp = compile_source("fn main() { out(1, 1); }")
        cp.program.validate()


# --- nesting bound -----------------------------------------------------------
DEEP_SOURCES = {
    "parentheses": "fn main() {\n    return " + "(" * 5000 + "1" + ")" * 5000 + ";\n}\n",
    "unary-minus": "fn main() {\n    return " + "-" * 5000 + "1;\n}\n",
    "operator-chain": "fn main() {\n    return " + "+".join(["1"] * 5000) + ";\n}\n",
}


@pytest.mark.parametrize("name", sorted(DEEP_SOURCES))
def test_deep_nesting_is_a_compile_error(name):
    # Hostile depth must come back as a positioned CompileError — from
    # the compiler and from a service job alike — never a RecursionError.
    from repro.service.jobs import execute_job

    source = DEEP_SOURCES[name]
    with pytest.raises(CompileError, match="nesting deeper") as info:
        compile_source(source)
    assert info.value.line == 2
    with pytest.raises(CompileError, match="nesting deeper"):
        execute_job({"kind": "trace", "source": source})
