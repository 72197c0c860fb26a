"""Seeded inputs and programs for the two program families.

Everything a run feeds the program comes from here and depends only on
``(family, seed)``: the same seed gives byte-identical inputs, sources
and request streams.  Programs are the repository's own workload
generators (``repro.workloads``) with freshly generated inputs, plus
one MiniC service program per family whose shape is fixed and whose
constants come from the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.workloads import call_heavy, matmul, suite

FAMILIES = ("monitor", "calls")

#: instructions the VM may run per program (far above any program here).
MAX_INSTRUCTIONS = 20_000_000
#: loop trips of each family's service program (~2-3k guest
#: instructions, so a cache-missing job takes tens of milliseconds).
SERVICE_TRIPS = {"monitor": 48, "calls": 20}


@dataclass
class Program:
    name: str
    compiled: object
    inputs: dict[int, list[int]]


def rng(seed: int, *tags) -> random.Random:
    """A generator private to ``(seed, tags)``; string seeding is stable
    across processes (it does not depend on hash randomization)."""
    return random.Random(":".join(str(t) for t in (seed, *tags)))


def _inputs_like(canonical: dict[int, list[int]], r: random.Random) -> dict[int, list[int]]:
    """Fresh inputs shaped like a workload's canonical ones: a single
    seed value becomes another seed value, a stream another stream."""
    out = {}
    for ch, values in sorted(canonical.items()):
        if len(values) == 1:
            out[ch] = [r.randint(1, 60_000)]
        else:
            out[ch] = [r.randrange(256) for _ in values]
    return out


def _with_inputs(workloads, seed: int, tag: str) -> list[Program]:
    return [
        Program(w.name, w.compiled, _inputs_like(w.inputs, rng(seed, tag, w.name)))
        for w in workloads
    ]


def vm_programs(family: str, seed: int) -> list[Program]:
    """The programs timed plain, under DIFT and under ONTRAC."""
    if family == "monitor":
        workloads = suite(1)
    else:
        workloads = [
            call_heavy(0, iterations=16, name="calls-p0"),
            call_heavy(10, iterations=16, name="calls-p10"),
            call_heavy(2, iterations=16, name="calls-p50"),
        ]
    return _with_inputs(workloads, seed, "vm")


def stored_program(family: str, seed: int) -> Program:
    """The program recorded into the lake: 70k-100k guest instructions,
    so whole-run decoding dominates a cold query."""
    if family == "monitor":
        w = matmul(14)
    else:
        w = call_heavy(10, iterations=40, name="calls-stored")
    return _with_inputs([w], seed, "stored")[0]


def service_source(family: str, seed: int) -> str:
    """The MiniC program service jobs submit as ``source``.

    It reads ``SERVICE_TRIPS[family] + 1`` inputs, emits a checksum, then makes
    an indirect call through an input-derived pointer, so ``attack``
    jobs detect and explain an attack and ``slice`` jobs trace a full
    run.
    """
    r = rng(seed, "service-source", family)
    k = [r.randint(3, 97) for _ in range(4)]
    trips = SERVICE_TRIPS[family]
    if family == "monitor":
        body = (
            "global buf[64];\n"
            "fn safe(x) { out(x, 2); }\n"
            "fn admin(x) { out(x + 1, 2); }\n"
            "fn main() {\n"
            f"    var acc = {k[0]};\n"
            "    var i = 0;\n"
            f"    while (i < {trips}) {{\n"
            "        var c = in(0);\n"
            f"        buf[i % 64] = (buf[(i + {k[1]}) % 64] + c * {k[2]}) % 65521;\n"
            "        acc = (acc * 31 + c + buf[i % 64]) % 65521;\n"
            "        i = i + 1;\n"
            "    }\n"
            "    out(acc, 1);\n"
            "    var fp = alloc(1);\n"
            "    fp[0] = in(0) % 2;\n"
            "    icall(fp[0], acc);\n"
            "}\n"
        )
    else:
        body = (
            "fn safe(x) { out(x, 2); }\n"
            "fn admin(x) { out(x + 1, 2); }\n"
            "fn mix(x) {\n"
            f"    var a = (x + {k[0]}) % 65521;\n"
            f"    a = (a * {k[1]} + x) % 65521;\n"
            f"    a = (a ^ {k[2]}) + x * 3;\n"
            "    return a % 65521;\n"
            "}\n"
            f"fn step(x, y) {{ return (mix(x) + mix(y + {k[3]})) % 65521; }}\n"
            "fn main() {\n"
            "    var acc = 1;\n"
            "    var i = 0;\n"
            f"    while (i < {trips}) {{\n"
            "        acc = step(in(0), acc);\n"
            "        i = i + 1;\n"
            "    }\n"
            "    out(acc, 1);\n"
            "    var fp = alloc(1);\n"
            "    fp[0] = in(0) % 2;\n"
            "    icall(fp[0], acc);\n"
            "}\n"
        )
    return body


def service_inputs(family: str, seed: int, index: int) -> dict[str, list[int]]:
    """Fresh inputs for the ``index``-th cache-missing request."""
    r = rng(seed, "service-request", family, index)
    return {"0": [r.randrange(1000) for _ in range(SERVICE_TRIPS[family] + 1)]}


def checksum_line(source: str) -> int:
    """1-based line of the checksum ``out`` (the slice jobs' criterion)."""
    return source.splitlines().index("    out(acc, 1);") + 1


def fingerprint(family: str, seed: int) -> str:
    """Canonical JSON of every generated input (the determinism test)."""
    doc = {
        "vm": [(p.name, p.inputs) for p in vm_programs(family, seed)],
        "stored": stored_program(family, seed).inputs,
        "service_source": service_source(family, seed),
        "service_inputs": [service_inputs(family, seed, i) for i in range(8)],
    }
    return json.dumps(doc, sort_keys=True)
