"""Probe planning, injection, stripping: the effect-only IR contract.

These are the unit-level proofs behind DESIGN §15: probes are ordinary
tagged IR that every engine executes natively, ``strip_instrumentation``
is the exact inverse of ``inject_probes``, and both the re-entry guard
and the probe-ops pregate reject anything that would break the
effect-only whitelist.
"""

from __future__ import annotations

import pytest

from repro.analysis.clone import clone_function, restore_function
from repro.analysis.probes import check_probe_ops
from repro.cpu import Image
from repro.errors import InstrumentError
from repro.instrument import (
    InstrumentOptions,
    ProbeBuffer,
    inject_probes,
    is_instrumented,
    plan_probes,
    strip_instrumentation,
)
from repro.ir import (
    I64,
    Function,
    FunctionType,
    IRBuilder,
    Interpreter,
    Module,
    print_function,
    ptr,
    verify,
)
from repro.ir import instructions as I
from repro.ir.values import Constant

FULL = InstrumentOptions(trace_memory=True, watch_returns=True,
                         ring_capacity=16)


def build_memfn(m: Module, name: str = "f") -> Function:
    """f(x, p): *(u64*)p = x; return *(u64*)p + 1 — two blocks, one store,
    one load, one watchable ret."""
    f = Function(name, FunctionType(I64, (I64, I64)))
    m.add_function(f)
    entry = f.add_block("entry")
    exit_b = f.add_block("exit")
    b = IRBuilder(entry)
    p = b.inttoptr(f.args[1], ptr(I64), "p")
    b.store(f.args[0], p, align=8)
    v = b.load(p, "v", align=8)
    b.br(exit_b)
    b.position_at_end(exit_b)
    b.ret(b.add(v, b.const(I64, 1), "r"))
    verify(f)
    return f


def instrumented(options: InstrumentOptions = FULL):
    img = Image()
    slot = img.alloc_data(8, align=8)
    m = Module("t")
    f = build_memfn(m)
    plan = plan_probes(f, options)
    buf = ProbeBuffer.allocate(img, plan)
    inject_probes(f, plan, buf)
    verify(f)
    return img, slot, m, f, plan, buf


# -- planning ----------------------------------------------------------------


def test_plan_enumerates_sites():
    m = Module("t")
    f = build_memfn(m)
    plan = plan_probes(f, FULL)
    assert plan.block_names == ("entry", "exit")
    assert plan.ret_blocks == ("exit",)
    assert [op for _, _, op in plan.mem_sites] == ["store", "load"]
    assert [blk for _, blk, _ in plan.mem_sites] == ["entry", "entry"]
    assert plan.watch_sites == ((0, "exit"),)
    assert plan.n_watch == 1


def test_plan_respects_disabled_families():
    m = Module("t")
    f = build_memfn(m)
    plan = plan_probes(f, InstrumentOptions(trace_memory=False,
                                            watch_returns=False))
    assert plan.mem_sites == () and plan.watch_sites == ()
    assert plan.block_names == ("entry", "exit")


def test_ring_capacity_must_be_power_of_two():
    with pytest.raises(InstrumentError):
        ProbeBuffer(Image(), 0x0200_0000, n_blocks=1, n_watch=0,
                    ring_capacity=24)


def test_double_instrument_rejected():
    _img, _slot, _m, f, plan, buf = instrumented()
    with pytest.raises(InstrumentError):
        plan_probes(f, FULL)
    with pytest.raises(InstrumentError):
        inject_probes(f, plan, buf)


def test_plan_function_mismatch_rejected():
    img = Image()
    m = Module("t")
    f = build_memfn(m, "f")
    g = Function("g", FunctionType(I64, (I64,)))
    m.add_function(g)
    b = IRBuilder(g.add_block("start"))
    b.ret(g.args[0])
    verify(g)
    plan = plan_probes(f, FULL)
    buf = ProbeBuffer.allocate(img, plan)
    with pytest.raises(InstrumentError):
        inject_probes(g, plan, buf)


# -- injected semantics (interpreter = reference engine) ---------------------


def test_probes_count_without_changing_results():
    img, slot, m, f, _plan, buf = instrumented()
    it = Interpreter(m, img.memory)
    assert it.run(f, [7, slot]) == 8
    assert it.run(f, [41, slot]) == 42
    assert buf.call_count() == 2
    assert buf.block_counts() == {"entry": 2, "exit": 2}
    assert buf.watch_values() == [42]          # last observed return
    assert buf.watch_hits() == [2]
    events = buf.events()
    assert [(e.kind, e.payload) for e in events] == \
        [("store", slot), ("load", slot)] * 2
    assert [e.seq for e in events] == [0, 1, 2, 3]
    assert buf.dropped() == 0


def test_event_ring_wraps_with_exact_drop_count():
    img, slot, m, f, _plan, buf = instrumented(
        InstrumentOptions(trace_memory=True, ring_capacity=4))
    it = Interpreter(m, img.memory)
    for i in range(5):
        it.run(f, [i, slot])               # 2 events per call
    assert buf.cursor() == 10
    assert buf.dropped() == 6
    assert len(buf.events()) == 4          # retained tail only
    assert buf.drain()[-1].seq == 9
    assert buf.cursor() == 0               # drain resets the cursor
    assert buf.call_count() == 5           # ...but not the counters


# -- strip: the exact inverse ------------------------------------------------


def test_strip_restores_exact_text_and_bumps_versions():
    img = Image()
    m = Module("t")
    f = build_memfn(m)
    before = print_function(f)
    v0 = f.version
    plan = plan_probes(f, FULL)
    buf = ProbeBuffer.allocate(img, plan)
    inject_probes(f, plan, buf)
    assert f.version > v0, "injection must bump the version"
    assert is_instrumented(f)
    assert print_function(f) != before
    v1 = f.version
    removed = strip_instrumentation(f)
    assert removed > 0
    assert f.version > v1, "strip must bump the version"
    assert not is_instrumented(f)
    assert print_function(f) == before
    verify(f)
    # idempotent: nothing left to remove, no gratuitous version bump
    v2 = f.version
    assert strip_instrumentation(f) == 0
    assert f.version == v2


def test_strip_detects_program_dependence_on_probe_value():
    _img, _slot, _m, f, _plan, _buf = instrumented()
    probe_val = next(ins for ins in f.instructions()
                     if ins.probe is not None and ins.opcode == "load")
    term = f.blocks[-1].terminator
    term.operands[0] = probe_val          # program now reads a probe value
    with pytest.raises(InstrumentError):
        strip_instrumentation(f)


def test_clone_and_rollback_preserve_probe_tags():
    img = Image()
    m = Module("t")
    f = build_memfn(m)
    plain = print_function(f)
    plan = plan_probes(f, FULL)
    buf = ProbeBuffer.allocate(img, plan)
    inject_probes(f, plan, buf)
    snapshot = clone_function(f)
    assert sum(1 for i in snapshot.instructions() if i.probe is not None) \
        == sum(1 for i in f.instructions() if i.probe is not None)
    strip_instrumentation(f)
    assert print_function(f) == plain
    restore_function(f, snapshot)
    assert is_instrumented(f), "rollback must bring the probe tags back"
    strip_instrumentation(f)              # ...and stay strippable
    assert print_function(f) == plain


# -- probe-ops pregate -------------------------------------------------------


def test_pregate_accepts_wellformed_probes():
    _img, _slot, _m, f, _plan, buf = instrumented()
    assert check_probe_ops(f, buf.extent()) == []


def test_pregate_rejects_probe_store_outside_buffer():
    _img, slot, _m, f, _plan, buf = instrumented()
    # hostile probe: tagged store aimed at *program* memory
    p = I.Cast("inttoptr", Constant(I64, slot), ptr(I64))
    p.name = f.next_name("p")
    p.probe = ("mem", 99)
    s = I.Store(Constant(I64, 1), p, align=8)
    s.probe = ("mem", 99)
    f.entry.insert(0, p)
    f.entry.insert(1, s)
    findings = check_probe_ops(f, buf.extent())
    assert findings
    assert all(fd.checker == "probe-ops" for fd in findings)
    assert any("escapes the probe buffer" in fd.message for fd in findings)


def test_pregate_rejects_program_consuming_probe_value():
    _img, _slot, _m, f, _plan, buf = instrumented()
    probe_val = next(ins for ins in f.instructions()
                     if ins.probe is not None and ins.opcode == "load")
    term = f.blocks[-1].terminator
    term.operands[0] = probe_val
    findings = check_probe_ops(f, buf.extent())
    assert any("consumes probe value" in fd.message for fd in findings)


def test_pregate_is_interval_precise_not_just_syntactic():
    # the ring-append chain bounds the cursor with `and mask`; shrinking
    # the claimed extent by one byte must flip the verdict
    _img, _slot, _m, f, _plan, buf = instrumented()
    lo, hi = buf.extent()
    assert check_probe_ops(f, (lo, hi)) == []
    assert check_probe_ops(f, (lo, hi - 1))

