"""The one tier compile recipe, run by the tiered engine and the farm.

A farm worker is a sound stand-in for an in-process tier only if it builds
exactly what that tier would build, so both take the recipe from here.
**T1** is the cheap rung — :meth:`O3Options.lightweight`, the paper's
Sec. VII "small subset of passes": ``llvm-fix`` with fixes, otherwise a
plain lift-and-regenerate, served ungated.  **T2** is the full
specialization: the :class:`~repro.guard.GuardedTransformer` ladder cut to
its strongest applicable rung, the differential gate as admission control.
A T1 :class:`ReproError` and a degraded T2 ladder both become the
outcome's ``reject``: a failed T2 pins the handle rather than installing
a rung the cheaper tiers already cover.  An ``install(main, budget)``
hook (the engine's instrumented T1) replaces T1's codegen of the post-O3
``main``, which comes from the same cache stages as a plain T1's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cache import SpecializationCache
from repro.cpu.image import Image
from repro.errors import BudgetExceededError, ReproError
from repro.guard import Budget, GateOptions, GuardedTransformer
from repro.instrument import ProbeBuffer
from repro.ir.codegen import JITOptions
from repro.ir.passes import O3Options
from repro.jit import BinaryTransformer, TransformResult
from repro.lift import FunctionSignature, LiftOptions
from repro.lift.fixation import FixedMemory
from repro.obs.metrics import MetricsRegistry
from repro.tier.policy import T1

Fixes = dict[int, int | float | FixedMemory]


@dataclass(frozen=True)
class TierOutcome:
    """What one tier compile produced."""

    addr: int | None = None
    mode: str | None = None
    #: the T2 differential gate (or a gated machine-stage hit) vouched for it
    verified: bool = False
    machine_verdict: str | None = None
    #: why the candidate was refused (None = ``addr`` is installable)
    reject: str | None = None
    #: the refusal came from an exhausted budget, not from the content
    budget_starved: bool = False
    #: the probe buffer of an instrumented T1 (the EdgeProfile source)
    buffer: ProbeBuffer | None = None


def tier_plan(target: int, fixes: Fixes | None,
              mem_regions: Sequence[tuple[int, int]],
              t2_o3: O3Options | None = None,
              ) -> tuple[O3Options, tuple[str, ...]]:
    """``(O3Options, guard ladder)`` for compiling ``target``."""
    if target == T1:
        # the fixation wrapper calls the lifted original, which only exists
        # inside the module — the inliner must collapse that call or
        # codegen has no symbol to resolve it against
        o3 = O3Options.lightweight()
        return (o3.replace(enable_inline=True) if fixes else o3), ()
    o3 = t2_o3 if t2_o3 is not None else O3Options()
    return o3, ("dbrew+llvm",) if fixes or mem_regions else ("llvm",)


def compile_tier(image: Image, target: int, func: str | int,
                 signature: FunctionSignature, fixes: Fixes | None,
                 mem_regions: Sequence[tuple[int, int]],
                 probes: Sequence[tuple], dbrew_func: str | int | None, *,
                 name: str, o3: O3Options | None, ladder: Sequence[str],
                 cache: SpecializationCache | None, budget: Budget,
                 lift_options: LiftOptions | None,
                 jit_options: JITOptions | None, gate_options: GateOptions,
                 machine_verify: bool,
                 registry: MetricsRegistry | None = None,
                 on_result: Callable[[TransformResult], None] | None = None,
                 install: Callable[..., TierOutcome] | None = None,
                 ) -> TierOutcome:
    """Compile ``func`` for ``target`` with a :func:`tier_plan` recipe."""
    if target == T1:
        tx = BinaryTransformer(
            image, o3_options=o3, cache=cache, budget=budget.start(),
            lift_options=lift_options, jit_options=jit_options,
            machine_verify=machine_verify)
        tx.on_result = on_result
        try:
            if install is not None:
                return install(tx.optimize(func, signature, fixes,
                                           name=name).function, tx.budget)
            res = tx.llvm_fixed(func, signature, fixes, name=name) if fixes \
                else tx.llvm_identity(func, signature, name=name)
        except ReproError as exc:
            refuted = exc.context.get("stage") == "machine-verify"
            return TierOutcome(
                reject=f"{type(exc).__name__}: {exc}",
                machine_verdict="refuted" if refuted else None,
                budget_starved=isinstance(exc, BudgetExceededError))
        return TierOutcome(res.addr, "llvm-fix" if fixes else "llvm",
                           machine_verdict=res.machine_verdict)

    guard = GuardedTransformer(
        image, cache=cache, budget=budget, gate_options=gate_options,
        lift_options=lift_options, o3_options=o3, jit_options=jit_options,
        machine_verify=machine_verify, registry=registry)
    guard.tx.on_result = on_result
    res = guard.transform(func, signature, fixes, mem_regions=mem_regions,
                          name=name, probes=probes, ladder=ladder,
                          dbrew_func=dbrew_func)
    if res.degraded:
        refuted = any(a.context.get("stage") == "machine-verify"
                      for a in res.attempts)
        return TierOutcome(
            reject="; ".join(res.failure_summary()) or "ladder degraded",
            machine_verdict="refuted" if refuted else None,
            budget_starved=any(a.error_type == "BudgetExceededError"
                               for a in res.attempts))
    gated = res.result is not None and res.result.machine_gated
    verdict = res.result.machine_verdict if res.result is not None else None
    return TierOutcome(res.addr, res.mode, res.verified or gated, verdict)
