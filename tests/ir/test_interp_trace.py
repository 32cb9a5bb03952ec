"""Threaded-dispatch trace cache: invalidation, parity, preemption.

The IR interpreter caches a compiled trace per function,
keyed by the function's mutation version (plus a structural guard).  These
tests prove the core soundness claim: after *any* sanctioned mutation —
pass rewrite, RAUW, direct list surgery, callee replacement — a stale
trace is never executed, including under an 8-thread preemption hammer.
"""

from __future__ import annotations

import threading

from repro.ir import (
    I64, Function, FunctionType, IRBuilder, Interpreter, Module, verify,
)
from repro.ir import interp as interp_mod
from repro.ir.passes import run_o3

B = IRBuilder()  # constant factory only (never positioned)

M64 = (1 << 64) - 1


def build_add_const(m: Module, k: int, name: str = "f"):
    """f(x) = x + k, with the constant as a distinct RAUW-able operand."""
    f = Function(name, FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    c = b.const(I64, k)
    b.ret(b.add(f.args[0], c))
    verify(f)
    return f, c


def test_trace_cached_and_reused():
    interp_mod.clear_traces()
    m = Module("t")
    f, _ = build_add_const(m, 3)
    it = Interpreter(m)
    s0 = interp_mod.trace_cache_stats()
    assert it.run(f, [4]) == 7
    t1 = interp_mod.trace_for(f)
    assert it.run(f, [5]) == 8
    assert interp_mod.trace_for(f) is t1
    s1 = interp_mod.trace_cache_stats()
    assert s1["compiles"] == s0["compiles"] + 1
    assert s1["hits"] > s0["hits"]
    assert interp_mod.trace_is_current(f)


def test_pass_rewrite_invalidates():
    """run_o3 mutates the body; the old trace must not be reused."""
    interp_mod.clear_traces()
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    five = b.add(b.const(I64, 2), b.const(I64, 3))  # foldable
    b.ret(b.add(f.args[0], five))
    verify(f)
    it = Interpreter(m)
    assert it.run(f, [10]) == 15
    old = interp_mod.trace_for(f)
    v0 = f.version
    run_o3(f)
    assert f.version > v0, "a changing pass run must bump the version"
    assert not (interp_mod.trace_for(f) is old), "stale trace survived O3"
    assert it.run(f, [10]) == 15
    assert interp_mod.trace_is_current(f)
    assert interp_mod.trace_cache_stats()["invalidations"] >= 1


def test_rauw_changes_semantics():
    """replace_all_uses is a sanctioned mutation: next run sees new IR."""
    interp_mod.clear_traces()
    m = Module("t")
    f, c = build_add_const(m, 1)
    it = Interpreter(m)
    assert it.run(f, [100]) == 101  # trace for +1 now cached
    c2 = B.const(I64, 40)
    assert f.replace_all_uses(c, c2) == 1
    assert it.run(f, [100]) == 140, "stale +1 trace executed after RAUW"
    assert interp_mod.trace_is_current(f)


def test_structural_surgery_guard():
    """Raw list surgery bypasses version bumps; the shape guard catches it."""
    interp_mod.clear_traces()
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.add(f.args[0], b.const(I64, 7), "dead")  # unused
    b.ret(b.add(f.args[0], b.const(I64, 1)))
    verify(f)
    it = Interpreter(m)
    assert it.run(f, [5]) == 6
    v0 = f.version
    f.entry.instructions.pop(0)  # direct surgery: no version bump
    assert f.version == v0
    assert not interp_mod.trace_is_current(f), \
        "structural guard missed an instruction-count change"
    assert it.run(f, [5]) == 6  # recompiled, not the stale 3-instr trace
    assert interp_mod.trace_is_current(f)


def test_callee_mutation_seen_through_calls():
    """Calls dispatch through trace_for at call time, so a mutated callee
    is re-traced even when the caller's trace is untouched."""
    interp_mod.clear_traces()
    m = Module("t")
    callee, c = build_add_const(m, 5, name="callee")
    caller = Function("caller", FunctionType(I64, (I64,)))
    m.add_function(caller)
    b = IRBuilder(caller.add_block("entry"))
    b.ret(b.call(callee, [b.add(caller.args[0], b.const(I64, 1))], I64))
    verify(caller)
    it = Interpreter(m)
    assert it.run(caller, [10]) == 16
    caller_trace = interp_mod.trace_for(caller)
    assert callee.replace_all_uses(c, B.const(I64, 50)) == 1
    assert it.run(caller, [10]) == 61, "stale callee trace executed"
    assert interp_mod.trace_for(caller) is caller_trace


def test_validator_rollback_invalidates():
    """restore_function (the validator's rollback) counts as a mutation."""
    from repro.analysis.clone import clone_function, restore_function

    interp_mod.clear_traces()
    m = Module("t")
    f, c = build_add_const(m, 9)
    it = Interpreter(m)
    snapshot = clone_function(f)
    assert it.run(f, [1]) == 10
    f.replace_all_uses(c, B.const(I64, 90))
    assert it.run(f, [1]) == 91
    v = f.version
    restore_function(f, snapshot)
    assert f.version > v, "rollback must bump the version"
    assert it.run(f, [1]) == 10, "stale post-mutation trace after rollback"


def test_preemption_hammer_8_threads():
    """8 threads run while the main thread mutates between rounds: every
    run started after a mutation must see the mutated semantics, and the
    cache must never report a stale trace as current."""
    interp_mod.clear_traces()
    m = Module("t")
    f, cur = build_add_const(m, 0)
    it = Interpreter(m)
    it.max_steps = 1 << 40

    NTHREADS, NROUNDS, RUNS = 8, 25, 10
    start = threading.Barrier(NTHREADS + 1)
    done = threading.Barrier(NTHREADS + 1)
    state = {"k": 0, "stop": False}
    errors: list = []

    def worker():
        while True:
            start.wait()
            if state["stop"]:
                return
            k = state["k"]
            for _ in range(RUNS):
                got = it.run(f, [1000])
                if got != (1000 + k) & M64:
                    errors.append(("value", k, got))
                if not interp_mod.trace_is_current(f):
                    errors.append(("stale", k))
            done.wait()

    threads = [threading.Thread(target=worker) for _ in range(NTHREADS)]
    for t in threads:
        t.start()
    try:
        c = cur
        for rnd in range(1, NROUNDS + 1):
            start.wait()  # workers hammer round rnd-1 concurrently
            done.wait()   # quiesce before mutating
            c2 = B.const(I64, rnd)
            assert f.replace_all_uses(c, c2) == 1
            c = c2
            state["k"] = rnd
    finally:
        state["stop"] = True
        start.wait()
        for t in threads:
            t.join()
    assert not errors, errors[:5]
    stats = interp_mod.trace_cache_stats()
    assert stats["invalidations"] >= NROUNDS - 1


def _instrumented_memfn():
    """f(x) = x + 1 via a scratch slot, plus the probe machinery to
    instrument/strip it against a real image memory."""
    from repro.cpu import Image
    from repro.instrument import (
        InstrumentOptions, ProbeBuffer, inject_probes, plan_probes,
    )
    from repro.ir import ptr

    img = Image()
    slot = img.alloc_data(8, align=8)
    m = Module("t")
    f = Function("f", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    p = b.inttoptr(b.const(I64, slot), ptr(I64), "p")
    b.store(f.args[0], p, align=8)
    v = b.load(p, "v", align=8)
    b.ret(b.add(v, b.const(I64, 1)))
    verify(f)

    def instrument():
        plan = plan_probes(f, InstrumentOptions(trace_memory=True,
                                                ring_capacity=64))
        buf = ProbeBuffer.allocate(img, plan)
        inject_probes(f, plan, buf)
        return buf

    return img, m, f, instrument


def test_instrumentation_invalidates_trace():
    """inject_probes and strip_instrumentation are sanctioned mutations:
    both bump the version, so cached traces are never reused across an
    instrumentation boundary."""
    from repro.instrument import strip_instrumentation

    interp_mod.clear_traces()
    img, m, f, instrument = _instrumented_memfn()
    it = Interpreter(m, img.memory)
    assert it.run(f, [4]) == 5
    plain_trace = interp_mod.trace_for(f)

    v0 = f.version
    buf = instrument()
    assert f.version > v0, "inject_probes must bump the version"
    assert not (interp_mod.trace_for(f) is plain_trace), \
        "stale uninstrumented trace survived probe injection"
    assert it.run(f, [4]) == 5           # effect-only: same value
    assert interp_mod.trace_is_current(f)
    assert buf.call_count() == 1 and len(buf.events()) == 2

    v1 = f.version
    assert strip_instrumentation(f) > 0
    assert f.version > v1, "strip must bump the version"
    assert it.run(f, [4]) == 5
    assert interp_mod.trace_is_current(f)
    assert buf.call_count() == 1, "stale instrumented trace kept counting"


def test_instrument_strip_preemption_hammer_8_threads():
    """8 threads interpret while the main thread instruments and strips
    between barrier-quiesced rounds: the observable value never changes
    (probes are effect-only), no stale trace is ever current, and probes
    count exactly the runs of instrumented rounds."""
    from repro.instrument import strip_instrumentation

    interp_mod.clear_traces()
    img, m, f, instrument = _instrumented_memfn()
    it = Interpreter(m, img.memory)
    it.max_steps = 1 << 40

    NTHREADS, NROUNDS, RUNS = 8, 12, 8
    start = threading.Barrier(NTHREADS + 1)
    done = threading.Barrier(NTHREADS + 1)
    state = {"stop": False}
    errors: list = []

    def worker():
        while True:
            start.wait()
            if state["stop"]:
                return
            for _ in range(RUNS):
                got = it.run(f, [41])
                if got != 42:
                    errors.append(("value", got))
                if not interp_mod.trace_is_current(f):
                    errors.append(("stale",))
            done.wait()

    threads = [threading.Thread(target=worker) for _ in range(NTHREADS)]
    for t in threads:
        t.start()
    buf = None
    try:
        for rnd in range(NROUNDS):
            start.wait()  # workers hammer the current body concurrently
            done.wait()   # quiesce before mutating
            if buf is None:
                buf = instrument()  # fresh zeroed buffer each time
            else:
                # counters are plain (non-atomic) u64 adds: with 8 threads
                # racing, some increments may be lost, never invented
                if not 0 < buf.call_count() <= NTHREADS * RUNS:
                    errors.append(("count", buf.call_count()))
                assert strip_instrumentation(f) > 0
                buf = None
    finally:
        state["stop"] = True
        start.wait()
        for t in threads:
            t.join()
    assert not errors, errors[:5]
    assert interp_mod.trace_cache_stats()["invalidations"] >= NROUNDS - 1


def test_engine_parity_on_mutation_sequence():
    """Exact results before and after a RAUW of the constant operand."""
    for k in (0, 7, 123):
        m = Module("a")
        f, c = build_add_const(m, k)
        it = Interpreter(m)
        assert it.run(f, [9]) == 9 + k
        f.replace_all_uses(c, B.const(I64, k + 1))
        assert it.run(f, [9]) == 9 + k + 1
