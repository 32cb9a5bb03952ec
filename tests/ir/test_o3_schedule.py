"""O3 pass scheduling: soundness of skips, validator interlock.

Three claims:

1. Every static no-fire rule is *sound*: whenever the shape fingerprint
   says a pass cannot fire, actually running that pass reports no change
   and leaves the function structurally identical.
2. Static scheduling is output-identical to scheduling disabled.
3. Skipping can never hide a miscompiling pass from the PassValidator:
   a quarantined pass disables all skipping (pre-probe), and a pass that
   miscompiles mid-run is rejected, rolled back, and kills scheduling
   for the rest of the run.
"""

from __future__ import annotations

import pytest

from repro.analysis.clone import clone_function, functions_structurally_equal
from repro.analysis.validate import PassValidator
from repro.ir import (
    I64, Function, FunctionType, IRBuilder, Interpreter, Module, verify,
)
from repro.ir.passes import (
    O3Options, constprop, dce, gvn, inline, instcombine, mem2reg, run_o3,
    simplifycfg, unroll, vectorize,
)
from repro.ir.passes.schedule import (
    PASS_NAMES, Scheduler, ShapeFingerprint, _rule_no_fire,
)

#: how to actually run each schedulable pass, mirroring pipeline.step()
PASS_RUNNERS = {
    "simplifycfg": lambda f: simplifycfg.run(f),
    "mem2reg": lambda f: mem2reg.run(f),
    "inline": lambda f: inline.run(f),
    "constprop": lambda f: constprop.run(f),
    "instcombine": lambda f: instcombine.run(f, True),
    "gvn": lambda f: gvn.run(f),
    "dce": lambda f: dce.run(f),
    "unroll": lambda f: unroll.run(f),
    "vectorize": lambda f: vectorize.run(f).vectorized,
}


def build_straight_const(m: Module) -> Function:
    """Single block, constant operands, one ret: maximally skippable."""
    f = Function("straight", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.add(b.mul(f.args[0], b.const(I64, 3)), b.const(I64, 7)))
    verify(f)
    return f


def build_const_free(m: Module) -> Function:
    """No constant operands, loads or selects: constprop provably idle."""
    f = Function("nocons", FunctionType(I64, (I64, I64)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    v = b.add(f.args[0], f.args[1])
    b.ret(b.mul(v, f.args[0]))
    verify(f)
    return f


def build_loop(m: Module) -> Function:
    """sum_{i<n} i*3: cyclic CFG, phis — unroll/vectorize must not skip."""
    f = Function("loop", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    body = f.add_block("body")
    done = f.add_block("done")
    b.br(body)
    b.position_at_end(body)
    i = b.phi(I64, "i")
    s = b.phi(I64, "s")
    s2 = b.add(s, b.mul(i, b.const(I64, 3)))
    i2 = b.add(i, b.const(I64, 1))
    i.add_incoming(b.const(I64, 0), f.entry)
    i.add_incoming(i2, body)
    s.add_incoming(b.const(I64, 0), f.entry)
    s.add_incoming(s2, body)
    b.cond_br(b.icmp("slt", i2, f.args[0]), body, done)
    b.position_at_end(done)
    b.ret(s2)
    verify(f)
    return f


def build_alloca(m: Module) -> Function:
    f = Function("stk", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    slot = b.alloca(I64)
    b.store(f.args[0], slot)
    b.ret(b.load(slot))
    verify(f)
    return f


BUILDERS = (build_straight_const, build_const_free, build_loop, build_alloca)


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_static_rules_sound(build):
    """A provable no-fire claim must survive actually running the pass."""
    m = Module("t")
    f = build(m)
    fp = ShapeFingerprint(f)
    provable = [n for n in PASS_NAMES if _rule_no_fire(n, fp)]
    assert provable, "every builder should prove at least one pass idle"
    for name in provable:
        probe = clone_function(f)
        before = clone_function(probe)
        changed = PASS_RUNNERS[name](probe)
        assert not changed, f"{name} fired despite a no-fire proof"
        assert functions_structurally_equal(probe, before), \
            f"{name} mutated the function while reporting no change"


def test_rule_expectations_per_shape():
    m = Module("t")
    fp_straight = ShapeFingerprint(build_straight_const(m))
    fp_nocons = ShapeFingerprint(build_const_free(m))
    fp_loop = ShapeFingerprint(build_loop(m))
    fp_stk = ShapeFingerprint(build_alloca(m))
    # straight-line const fn: everything but constprop is provably idle
    assert _rule_no_fire("unroll", fp_straight)
    assert _rule_no_fire("simplifycfg", fp_straight)
    assert not _rule_no_fire("constprop", fp_straight)  # consts present
    # const-free fn: constprop provably idle
    assert _rule_no_fire("constprop", fp_nocons)
    # loop: cyclic, so loop passes must run
    assert fp_loop.cyclic
    assert not _rule_no_fire("unroll", fp_loop)
    assert not _rule_no_fire("vectorize", fp_loop)
    assert not _rule_no_fire("simplifycfg", fp_loop)
    # alloca fn: mem2reg must run, inline is idle
    assert not _rule_no_fire("mem2reg", fp_stk)
    assert _rule_no_fire("inline", fp_stk)


def test_version_rule():
    """'No change at version V' only skips while the version is still V."""
    m = Module("t")
    f = build_const_free(m)
    sched = Scheduler(f, "static")
    assert not sched.should_skip("gvn")
    sched.note_result("gvn", changed=False)
    assert sched.should_skip("gvn"), "no-change at same version must skip"
    f.bump_version()
    assert not sched.should_skip("gvn"), "version bump must clear the skip"
    sched.note_result("gvn", changed=True)
    assert not sched.should_skip("gvn"), "a firing pass is never skipped"


def test_static_output_identical_to_off():
    ma, mb = Module("a"), Module("b")
    fa, fb = build_loop(ma), build_loop(mb)
    ra = run_o3(fa, O3Options(pass_schedule="off"))
    rb = run_o3(fb, O3Options(pass_schedule="static"))
    assert ra.skipped_passes == []
    assert rb.skipped_passes, "static mode should skip something on a loop fn"
    assert functions_structurally_equal(fa, fb), \
        "static scheduling changed the produced IR"
    it_a, it_b = Interpreter(ma), Interpreter(mb)
    for n in (0, 1, 17):
        assert it_a.run(fa, [n]) == it_b.run(fb, [n])
    assert O3Options().pass_schedule == "static"
    for retired in ("auto", "profile"):
        with pytest.raises(ValueError):
            run_o3(build_loop(Module(retired)),
                   O3Options(pass_schedule=retired))


def test_second_sweep_skips_via_version_rule():
    """An already-optimized body re-optimizes with skips and no changes."""
    m = Module("t")
    f = build_loop(m)
    run_o3(f, O3Options(pass_schedule="static"))
    snap = clone_function(f)
    report = run_o3(f, O3Options(pass_schedule="static"))
    assert report.converged
    assert report.skipped_passes
    assert functions_structurally_equal(f, snap)


def test_quarantine_preprobe_disables_scheduling():
    """A pass already in quarantine means zero skips for the whole run."""
    m = Module("t")
    f = build_loop(m)
    validator = PassValidator()
    validator.negative.record("o3pass:gvn", "o3", "seeded by test")
    report = run_o3(f, O3Options(pass_schedule="static"), validator=validator)
    assert report.schedule_mode == "static"
    assert report.schedule_disabled == "quarantined:gvn"
    assert report.skipped_passes == [], \
        "a quarantined pipeline must not skip anything"


def test_miscompile_is_rejected_not_hidden(monkeypatch):
    """Regression: scheduling can never hide a miscompiling pass from the
    validator — the bad pass is rejected + rolled back, and scheduling is
    disabled for the remainder of the run."""
    from repro.ir.passes import pipeline as pipe
    from repro.ir.values import Constant

    real_run = gvn.run

    def evil_run(func):
        changed = real_run(func)
        ret = func.blocks[-1].terminator
        ret.operands[0] = Constant(I64, 12345)  # miscompile: clobber result
        func.bump_version()
        return True

    monkeypatch.setattr(pipe.gvn, "run", evil_run)
    m = Module("t")
    f = build_straight_const(m)
    report = run_o3(f, O3Options(pass_schedule="static"), validate=True)
    assert "gvn" in report.rejected_passes
    assert report.schedule_disabled == "quarantined:gvn"
    assert "gvn" not in report.skipped_passes, \
        "the miscompiling pass was skipped instead of caught"
    # rollback preserved semantics: straight(x) = x*3 + 7
    assert Interpreter(m).run(f, [5]) == 22
    # the quarantine now outlives this run via the validator's negative
    # cache: a fresh run under the same validator gets zero skips too
    validator = PassValidator()
    r1 = run_o3(build_straight_const(Module("u")),
                O3Options(pass_schedule="static"), validator=validator)
    assert "gvn" in r1.rejected_passes
    f2 = build_straight_const(Module("v"))
    r2 = run_o3(f2, O3Options(pass_schedule="static"), validator=validator)
    assert r2.schedule_disabled == "quarantined:gvn"
    assert r2.skipped_passes == []
