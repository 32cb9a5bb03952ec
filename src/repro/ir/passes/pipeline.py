"""The '-O3' pass pipeline (Sec. IV: "standard optimization pipeline with
level 3 ... optionally, floating-point optimizations can be enabled").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.ir import verifier
from repro.ir.module import Function
from repro.obs.trace import TRACER as _TR
from repro.ir.passes import (
    constprop, dce, gvn, inline, instcombine, mem2reg, schedule, simplifycfg,
    unroll, vectorize,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.validate import PassValidator, PassVerdict


@dataclass(frozen=True)
class O3Options:
    """Pipeline configuration.

    ``fast_math`` mirrors ``-ffast-math`` (enables reassociation-dependent
    folds; currently only constant folding differences).  The ablation
    switches let benchmarks measure which passes matter, the paper's stated
    follow-up goal ("identify a small subset of optimizations ... without
    the heavy cost of LLVM", Sec. VII).
    """

    fast_math: bool = True
    enable_inline: bool = True
    enable_unroll: bool = True
    enable_gvn: bool = True
    enable_instcombine: bool = True
    enable_mem2reg: bool = True
    #: 0 = let the (metadata-gated) cost model decide; 2 = the paper's
    #: ``-force-vector-width=2`` experiment (Sec. VI-B)
    force_vector_width: int = 0
    max_iterations: int = 8
    #: pass-skipping policy (repro.ir.passes.schedule): "static" skips only
    #: provably no-fire applications, so its IR equals "off"'s, which runs
    #: every pass; the two still digest to different cache keys
    pass_schedule: str = "static"

    def replace(self, **kw) -> "O3Options":
        """A copy with the given fields changed.

        ``O3Options`` is frozen (it is hashed into cache keys), so ablation
        studies and mode overrides derive variants through this instead of
        re-spelling every field.
        """
        return dataclasses.replace(self, **kw)

    @staticmethod
    def lightweight() -> "O3Options":
        """The paper's Sec. VII proposal: a *small subset* of passes as
        cheap post-processing for DBrew "without the heavy cost of LLVM".

        Per the ablation study (bench_ablation_passes.py) the essential
        passes for lifted/rewritten code are stack promotion and the basic
        cleanups; GVN, unrolling and reassociation are dropped, and the
        pipeline runs a single iteration.
        """
        return O3Options(
            fast_math=False,
            enable_inline=False,
            enable_unroll=False,
            enable_gvn=False,
            # the facet cache makes instcombine non-essential (see the
            # ablation bench), so the subset is just: SimplifyCFG + SROA of
            # the virtual stack + constant folding + ADCE
            enable_instcombine=False,
            enable_mem2reg=True,
            max_iterations=1,
        )


@dataclass
class O3Report:
    """What one ``run_o3`` invocation actually did (cold-path telemetry)."""

    iterations: int = 0
    converged: bool = False
    vectorized: bool = False
    #: per-pass-application verdicts (only populated in validate mode)
    pass_log: "list[PassVerdict]" = field(default_factory=list)
    #: passes rejected (and rolled back) by validation, in rejection order
    rejected_passes: list[str] = field(default_factory=list)
    #: this run was executed under per-pass validation
    validated: bool = False
    #: schedule mode the run used ("static" / "off")
    schedule_mode: str = "off"
    #: pass applications skipped by the scheduler, in skip order
    skipped_passes: list[str] = field(default_factory=list)
    #: scheduling was disabled mid-run (e.g. validator quarantine), and why
    schedule_disabled: str | None = None

    @property
    def miscompiled_pass(self) -> str | None:
        """The first pass validation caught miscompiling (None = clean)."""
        return self.rejected_passes[0] if self.rejected_passes else None


#: debug flag: run the raising IR verifier after *every* pass application.
#: Opt-in via :func:`set_verify_after_each_pass` — pass-bisection debugging,
#: far too slow for the runtime compile path.
VERIFY_AFTER_EACH_PASS = False


def set_verify_after_each_pass(enabled: bool) -> None:
    """Toggle the verify-after-every-pass debug mode (process-wide)."""
    global VERIFY_AFTER_EACH_PASS
    VERIFY_AFTER_EACH_PASS = bool(enabled)


def run_o3(func: Function, options: O3Options = O3Options(),
           budget: "object | None" = None, validate: bool = False,
           validator: "PassValidator | None" = None) -> O3Report:
    """Optimize one function in place to a fixpoint (bounded).

    The sweep loop exits as soon as a full pass sweep reports no change;
    when that fixed point is reached (and vectorization does nothing), the
    trailing DCE/SimplifyCFG cleanup is skipped too — those passes just ran
    to a fixpoint inside the loop, so re-running them is pure overhead on
    the runtime compile path.

    A ``budget`` (:class:`repro.guard.Budget`) charges ``opt_iterations``
    fuel per sweep and polls the wall-clock deadline; it is a keyword
    argument rather than an :class:`O3Options` field because options are
    hashed into cache keys and a budget never changes the produced IR —
    ``validate``/``validator`` follow the same rule: validation can *reject*
    a pass application (restoring its input), never produce different code
    from an accepted one.

    With ``validate=True`` (or an explicit ``validator``) every pass
    application is checked by a :class:`~repro.analysis.validate.
    PassValidator`: structural invariants plus differential interpretation
    of the pass input vs output.  A rejected pass is rolled back and
    quarantined by name, the verdict appears in ``O3Report.pass_log`` and
    ``O3Report.rejected_passes``, and the rest of the pipeline continues.
    """
    report = O3Report()
    if validate and validator is None:
        from repro.analysis.validate import PassValidator
        validator = PassValidator()
    report.validated = validator is not None
    report.schedule_mode = options.pass_schedule
    sched = schedule.Scheduler(func, report.schedule_mode, validator)

    def step(name: str, thunk: Callable[[], Any],
             changed_of: Callable[[Any], bool] = bool) -> bool:
        if sched.should_skip(name):
            report.skipped_passes.append(name)
            return False
        span = _TR.start(f"o3.pass.{name}", {"func": func.name}) \
            if _TR.enabled else None
        try:
            if validator is None:
                changed = bool(changed_of(thunk()))
                sched.note_result(name, changed)
            else:
                _result, verdict = validator.run_pass(
                    name, thunk, func, changed_of=changed_of)
                report.pass_log.append(verdict)
                if not verdict.ok:
                    # a rejection (or a quarantine hit) marks this pipeline
                    # as suspect: no further skipping — every pass must run
                    # under full validation (see schedule.Scheduler)
                    sched.disable(f"quarantined:{name}")
                    if not verdict.quarantined:
                        report.rejected_passes.append(name)
                else:
                    sched.note_result(name, verdict.changed)
                changed = verdict.changed
            if VERIFY_AFTER_EACH_PASS:
                verifier.verify(func)
        finally:
            if span is not None:
                _TR.finish(span)
            if sched.disabled_reason not in (None, "off"):
                report.schedule_disabled = sched.disabled_reason
        return changed

    if budget is not None:
        # checkpoint, not bare check_deadline: the -O3 sweep is the longest
        # uninterruptible span of a background compile, so each sweep
        # boundary is a cooperative yield point where the tiered engine can
        # deprioritize the worker (Budget.yield_hook)
        budget.checkpoint("opt")
    step("simplifycfg", lambda: simplifycfg.run(func))
    if options.enable_mem2reg:
        step("mem2reg", lambda: mem2reg.run(func))
        step("simplifycfg", lambda: simplifycfg.run(func))
    for _ in range(options.max_iterations):
        if budget is not None:
            budget.charge("opt_iterations", stage="opt")
            budget.checkpoint("opt")
        report.iterations += 1
        changed = False
        if options.enable_inline:
            changed |= step("inline", lambda: inline.run(func))
        changed |= step("constprop", lambda: constprop.run(func))
        if options.enable_instcombine:
            changed |= step("instcombine",
                            lambda: instcombine.run(func, options.fast_math))
        if options.enable_gvn:
            changed |= step("gvn", lambda: gvn.run(func))
        changed |= step("dce", lambda: dce.run(func))
        changed |= step("simplifycfg", lambda: simplifycfg.run(func))
        if options.enable_mem2reg:
            changed |= step("mem2reg", lambda: mem2reg.run(func))
        if options.enable_unroll:
            changed |= step("unroll", lambda: unroll.run(func))
        if not changed:
            report.converged = True
            break
    report.vectorized = step(
        "vectorize",
        lambda: vectorize.run(func,
                              force_vector_width=options.force_vector_width),
        changed_of=lambda v: v.vectorized)
    if report.vectorized:
        step("constprop", lambda: constprop.run(func))
        if options.enable_instcombine:
            step("instcombine",
                 lambda: instcombine.run(func, options.fast_math))
    if report.vectorized or not report.converged:
        step("dce", lambda: dce.run(func))
        step("simplifycfg", lambda: simplifycfg.run(func))
    return report
