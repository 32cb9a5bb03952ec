"""O3 pass scheduling: skip pass applications that provably do nothing.

``run_o3`` historically ran every enabled pass every sweep; the obs
self-time report shows most of those applications return "no change" —
a full pass walk spent proving nothing fires.  This module lets the
pipeline skip those applications *without changing the produced IR*:

**Static no-fire rules** (``pass_schedule="static"``, the default).
A pass is skipped only when the function's *shape fingerprint*
(opcode histogram, phi/block counts, CFG cyclicity) proves the pass
cannot fire:

* ``inline``  — no non-intrinsic call sites;
* ``mem2reg`` — no ``alloca``;
* ``unroll`` / ``vectorize`` — acyclic CFG (no natural loops);
* ``constprop`` — no loads, no select, and no constant-typed operand
  anywhere (every fold in ``fold.try_fold`` needs one of those);
* ``simplifycfg`` — already a single phi-free block ending in ``ret``.

Each rule is conservative: whenever it is unsure it runs the pass.  On
top of the shape rules, the **version rule** skips a pass whose previous
application on this *exact* function version returned "no change" —
passes are deterministic, so re-running them on an unmutated function is
provably a no-op (this is what makes the final convergence sweep nearly
free).  Both rules are output-identical: ``pass_schedule="off"`` runs
every application and produces the same IR (the two values still hash to
different ``options_digest`` keys, since the digest covers every field).

**Validator interlock** (the de-risk requirement): the moment a
``PassValidator`` quarantines *any* pass — before the run (negative-cache
probe at scheduler construction) or during it (a rejection verdict) —
the scheduler disables itself for the remainder of the run.  A pipeline
known to contain a miscompiling pass gets zero skips: every pass runs
and every application is validated, so scheduling can never hide a
miscompile from the validator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir import instructions as I
from repro.ir.module import Function
from repro.ir.values import Constant, ConstantFP, ConstantVector, Undef
from repro.obs import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.validate import PassValidator

#: every pass name run_o3 can step (for the quarantine pre-probe)
PASS_NAMES = ("simplifycfg", "mem2reg", "inline", "constprop",
              "instcombine", "gvn", "dce", "unroll", "vectorize")

_SKIPS = _metrics.REGISTRY.family("o3.sched.skips")
_RUNS = _metrics.REGISTRY.family("o3.sched.runs")


class ShapeFingerprint:
    """Cheap structural summary of one function body (one instruction walk)."""

    __slots__ = ("nblocks", "nphis", "ncalls", "nallocas", "nloads",
                 "nselects", "has_const_operand", "cyclic", "opcode_histogram")

    def __init__(self, func: Function) -> None:
        hist: dict[str, int] = {}
        nphis = ncalls = nallocas = nloads = nselects = 0
        has_const = False
        for blk in func.blocks:
            for ins in blk.instructions:
                op = ins.opcode
                hist[op] = hist.get(op, 0) + 1
                if isinstance(ins, I.Phi):
                    nphis += 1
                elif isinstance(ins, I.Call):
                    if not ins.intrinsic:
                        ncalls += 1
                elif isinstance(ins, I.Alloca):
                    nallocas += 1
                elif isinstance(ins, I.Load):
                    nloads += 1
                elif isinstance(ins, I.Select):
                    nselects += 1
                if not has_const:
                    for o in ins.operands:
                        if isinstance(o, (Constant, ConstantFP,
                                          ConstantVector, Undef)):
                            has_const = True
                            break
        self.nblocks = len(func.blocks)
        self.nphis = nphis
        self.ncalls = ncalls
        self.nallocas = nallocas
        self.nloads = nloads
        self.nselects = nselects
        self.has_const_operand = has_const
        self.cyclic = _has_cycle(func)
        self.opcode_histogram = hist


def _has_cycle(func: Function) -> bool:
    """True when the CFG has any cycle (conservative: unreachable blocks
    participate)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {id(b): WHITE for b in func.blocks}
    for root in func.blocks:
        if color[id(root)] != WHITE:
            continue
        stack = [(root, iter(root.successors()))]
        color[id(root)] = GRAY
        while stack:
            node, it = stack[-1]
            adv = False
            for succ in it:
                c = color.get(id(succ), BLACK)
                if c == GRAY:
                    return True
                if c == WHITE:
                    color[id(succ)] = GRAY
                    stack.append((succ, iter(succ.successors())))
                    adv = True
                    break
            if not adv:
                color[id(node)] = BLACK
                stack.pop()
    return False


def _rule_no_fire(name: str, fp: ShapeFingerprint) -> bool:
    """True when ``fp`` proves pass ``name`` cannot change the function."""
    if name == "inline":
        return fp.ncalls == 0
    if name == "mem2reg":
        return fp.nallocas == 0
    if name in ("unroll", "vectorize"):
        return not fp.cyclic
    if name == "constprop":
        return (fp.nloads == 0 and fp.nselects == 0
                and not fp.has_const_operand)
    if name == "simplifycfg":
        if fp.nblocks != 1 or fp.nphis != 0:
            return False
        h = fp.opcode_histogram
        return h.get("ret", 0) == 1 and h.get("br", 0) == 0
    return False


class Scheduler:
    """Per-``run_o3``-invocation skip decisions for one function.

    ``mode`` is ``O3Options.pass_schedule`` ("static" or "off");
    construction with "off" yields a scheduler that skips nothing, which
    keeps the pipeline code uniform.
    """

    def __init__(self, func: Function, mode: str,
                 validator: "PassValidator | None" = None) -> None:
        if mode not in ("off", "static"):
            raise ValueError(f"unknown pass_schedule {mode!r}")
        self.func = func
        self.disabled_reason: str | None = None
        self._fp: ShapeFingerprint | None = None
        self._fp_version = -1
        #: pass name -> func version at which it last reported "no change"
        self._nofire_at: dict[str, int] = {}
        self.skipped: list[str] = []
        if mode == "off":
            self.disabled_reason = "off"
        elif validator is not None:
            # a pass already in quarantine means this pipeline is under
            # active suspicion: run everything, validate everything
            for name in PASS_NAMES:
                if validator.negative.check(f"o3pass:{name}") is not None:
                    self.disable(f"quarantined:{name}")
                    break

    # -- state ---------------------------------------------------------------

    def disable(self, reason: str) -> None:
        """Permanently stop skipping for this run (validator interlock)."""
        if self.disabled_reason is None or self.disabled_reason == "off":
            self.disabled_reason = reason

    def fingerprint(self) -> ShapeFingerprint:
        ver = self.func.version
        if self._fp is None or self._fp_version != ver:
            self._fp = ShapeFingerprint(self.func)
            self._fp_version = ver
        return self._fp

    # -- decisions -----------------------------------------------------------

    def should_skip(self, name: str) -> bool:
        if self.disabled_reason is not None:
            return False
        # version rule: this exact body already reported "no change"
        if self._nofire_at.get(name) == self.func.version:
            self._record_skip(name, "version")
            return True
        if _rule_no_fire(name, self.fingerprint()):
            self._record_skip(name, "shape")
            return True
        return False

    def note_result(self, name: str, changed: bool) -> None:
        """Feed one executed pass application back into the model."""
        _RUNS.inc(name)
        if not changed:
            self._nofire_at[name] = self.func.version
        else:
            self._nofire_at.pop(name, None)

    def _record_skip(self, name: str, why: str) -> None:
        self.skipped.append(name)
        _SKIPS.inc(f"{name}:{why}")


def stats() -> dict[str, dict]:
    """Current scheduler counter families (benchmarks / reports)."""
    return {
        "skips": dict(_SKIPS),
        "runs": dict(_RUNS),
    }
