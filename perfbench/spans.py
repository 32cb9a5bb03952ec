"""The traced window: the program's own spans plus the boundaries it lacks.

The traced window turns on the program's tracer, ``repro.obs.trace.TRACER``.
The program already spans its pipeline: ``rewrite`` with
``rewrite.decode``/``emulate``/``encode``, ``transform``, ``fixation``,
``lift`` with ``lift.*``, ``opt`` with one ``o3.pass.<name>`` per pass
run, ``jit.compile``/``lower``/``install``, ``machine.verify``,
``guard.transform``/``rung.*``/``gate``, ``instrument.apply``/``gate``,
``tier.compile`` and, merged from the farm worker processes, ``farm.job``
with everything the worker traced below it.

:meth:`Hooks.install` adds from outside only what the program does not
span: spans around ``Simulator.call`` (``cpu.call``),
``DispatchHandle.address`` (``tier.dispatch``),
``SpecializationCache.get_*`` (``cache.get_*``) and ``FarmClient.compile``
(``farm.compile``), and untimed hooks that count what the pipeline's
results carry (IR sizes, O3 iterations and skips, emitted bytes, machine
verdicts, guard fallbacks).  :meth:`Hooks.uninstall` puts the originals
back.  Nothing under ``src/`` changes on disk.
"""

from __future__ import annotations

import bisect
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple

from repro.analysis import machine as _machine
from repro.cache import SpecializationCache
from repro.cpu import Simulator
from repro.farm import FarmClient
from repro.guard import GuardedTransformer
from repro.instrument import api as _instrument_api
from repro.ir.codegen.jit import JITEngine
from repro.jit import engine as _jit_engine
from repro.obs.trace import TRACER
from repro.tier import DispatchHandle

#: layers in report order; "bench" is the benchmark's own request span
LAYERS = ("bench", "jit", "dbrew", "lift", "ir.passes", "ir.codegen",
          "analysis.machine", "guard", "instrument", "cpu", "tier", "cache",
          "farm")

#: first dotted component of a span name -> the ``src/repro`` layer
_LAYER_OF = {
    "bench": "bench", "transform": "jit", "rewrite": "dbrew",
    "lift": "lift", "fixation": "lift", "opt": "ir.passes",
    "o3": "ir.passes", "jit": "ir.codegen", "machine": "analysis.machine",
    "guard": "guard", "instrument": "instrument", "cpu": "cpu",
    "tier": "tier", "cache": "cache", "farm": "farm",
}


def layer_of(name: str) -> str:
    return _LAYER_OF.get(name.split(".", 1)[0], "other")


def ir_size(func) -> int:
    """Instructions in one IR function (all blocks)."""
    return sum(len(b.instructions) for b in func.blocks)


class Traced(NamedTuple):
    """One finished span, placed: its layer, unit and request."""

    name: str
    layer: str
    unit: int
    request: str
    seconds: float
    self_seconds: float
    #: the parent span's layer ("" for a root)
    parent_layer: str
    attrs: dict


def _thread(span) -> tuple:
    # merged farm spans carry their worker's pid; thread ids are per process
    return (span.attrs or {}).get("pid"), span.tid


def analyse(spans, unit_starts: list[float]) -> list[Traced]:
    """Place every finished span.

    Self time is the span's duration minus that of its children on the
    same thread: a tier compile adopts its dispatch site as parent but runs
    beside it, not inside it.  The request of a span is that of its root
    ``bench.request`` span; the unit is the one running when it started.
    Each span's ``attrs`` gain ``layer``, ``unit`` and ``request``, so the
    Chrome trace written from the tracer carries them.
    """
    spans = [s for s in spans if s.t1 >= 0]
    by_id = {s.span_id: s for s in spans}
    child: dict[int, float] = defaultdict(float)
    for s in spans:
        p = by_id.get(s.parent_id)
        if p is not None and _thread(p) == _thread(s):
            child[p.span_id] += s.duration
    requests: dict[int, str] = {}

    def request_of(s) -> str:
        got = requests.get(s.span_id)
        if got is None:
            p = by_id.get(s.parent_id)
            got = request_of(p) if p is not None else \
                (s.attrs or {}).get("request", "background")
            requests[s.span_id] = got
        return got

    out = []
    for s in spans:
        attrs = s.attrs = dict(s.attrs or {})
        p = by_id.get(s.parent_id)
        placed = Traced(
            s.name, layer_of(s.name),
            max(bisect.bisect_right(unit_starts, s.t0) - 1, 0),
            request_of(s), s.duration,
            max(s.duration - child.get(s.span_id, 0.0), 0.0),
            layer_of(p.name) if p is not None else "", attrs)
        attrs.update(layer=placed.layer, unit=placed.unit,
                     request=placed.request)
        out.append(placed)
    return out


class Hooks:
    """Spans and result counts at the boundaries the program does not
    span.  Counts are kept per unit, in :attr:`counts`."""

    def __init__(self) -> None:
        self.unit = 0
        #: ``perf_counter`` at the start of each unit of the traced window
        self.unit_starts: list[float] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._patches: list[tuple[object, str, object]] = []

    def start_unit(self, unit: int) -> None:
        self.unit = unit
        self.unit_starts.append(time.perf_counter())

    def count(self, key: str, value: float) -> None:
        self.counts[self.unit][key] += value

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner: object, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        wrapper = make(raw)
        wrapper.__wrapped__ = raw  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def _span(self, owner: object, attr: str, name: str,
              before: Callable[..., dict] | None = None,
              after: Callable[..., None] | None = None) -> None:
        """Wrap ``owner.attr`` in a tracer span; ``before`` and ``after``
        read the arguments and the result into the span's attributes."""
        def make(raw):
            def wrapper(*args, **kwargs):
                if not TRACER.enabled:
                    return raw(*args, **kwargs)
                attrs: dict[str, Any] = {} if before is None \
                    else before(args, kwargs)
                span = TRACER.start(name, attrs)
                try:
                    result = raw(*args, **kwargs)
                finally:
                    TRACER.finish(span)
                if after is not None:
                    after(attrs, args, kwargs, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def _count(self, owner: object, attr: str,
               hook: Callable[..., Any]) -> None:
        """Wrap ``owner.attr`` untimed: ``hook(raw, args, kwargs)`` calls
        it and counts what it returns."""
        def make(raw):
            def wrapper(*args, **kwargs):
                if not TRACER.enabled:
                    return raw(*args, **kwargs)
                return hook(raw, args, kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("hooks already installed")
        self._span(Simulator, "call", "cpu.call", _before_sim, _after_sim)
        self._span(DispatchHandle, "address", "tier.dispatch")
        for attr in ("get_machine", "get_module", "get_lifted"):
            self._span(SpecializationCache, attr, f"cache.{attr}",
                       after=_after_cache_get)
        self._span(FarmClient, "compile", "farm.compile")
        self._count(FarmClient, "compile", self._farm)
        for mod in (_jit_engine, _instrument_api):
            self._count(mod, "lift_function", self._lift)
            self._count(mod, "run_o3", self._o3)
        self._count(JITEngine, "compile_function", self._codegen)
        self._count(_machine, "verify_witness", self._verify)
        self._count(GuardedTransformer, "transform", self._guard)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- result counts -----------------------------------------------------

    def _lift(self, raw, args, kwargs):
        func = raw(*args, **kwargs)
        self.count("lift.ir_instrs", ir_size(func))
        return func

    def _o3(self, raw, args, kwargs):
        ir_in = ir_size(args[0])
        report = raw(*args, **kwargs)
        self.count("ir.passes.ir_in", ir_in)
        self.count("ir.passes.ir_instrs_out", ir_size(args[0]))
        self.count("ir.passes.iterations", report.iterations)
        self.count("ir.passes.skipped", len(report.skipped_passes))
        return report

    def _codegen(self, raw, args, kwargs):
        addr = raw(*args, **kwargs)
        engine, func = args[0], args[1]
        name = kwargs.get("name") or func.name
        self.count("ir.codegen.code_bytes",
                   engine.image.func_sizes.get(name, 0))
        return addr

    def _verify(self, raw, args, kwargs):
        report = raw(*args, **kwargs)
        self.count(f"analysis.machine.{report.verdict}", 1)
        return report

    def _farm(self, raw, args, kwargs):
        # lift and O3 ran in a worker process: count the module it shipped
        result = raw(*args, **kwargs)
        if result is not None and result.ok:
            self.count("ir.passes.ir_instrs_out", ir_size(
                result.module.functions[result.main_name]))
        return result

    def _guard(self, raw, args, kwargs):
        result = raw(*args, **kwargs)
        self.count("guard.fallbacks", result.mode == "original")
        return result


def _before_sim(args, kwargs) -> dict:
    st = kwargs.get("stats")
    return {"instrs_before": st.instructions if st is not None else 0}


def _after_sim(attrs: dict, args, kwargs, result) -> None:
    attrs["instrs"] = (result.stats.instructions
                       - attrs.pop("instrs_before"))


def _after_cache_get(attrs: dict, args, kwargs, result) -> None:
    attrs["hit"] = result is not None
