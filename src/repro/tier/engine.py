"""TieredEngine: background compilation behind zero-stall dispatch.

The engine owns a small :class:`~concurrent.futures.ThreadPoolExecutor` of
compile workers plus the dispatch table of registered
:class:`~repro.tier.handle.DispatchHandle` objects.  The life of a handle:

1. **register** — the handle starts at T0 (the original code); the first
   call costs exactly a counter bump and an attribute read.
2. **promotion** — when the call counter crosses a governor threshold the
   dispatch slow path *enqueues* a compile job and returns immediately;
   callers keep running the current tier while the worker compiles.
3. **install** — the worker installs the result by swapping the handle's
   immutable :class:`TierCode` record under the handle lock, but only if
   the job's fixation *epoch* still matches the handle; a ``refix`` racing
   with a compile supersedes it and the stale result is discarded, never
   installed.
4. **demotion** — measured per-call costs reported via
   :meth:`DispatchHandle.observe` feed the governor's EWMA; a tier that is
   consistently worse than a lower ready tier is demoted (with back-off,
   so it does not flap).

What T1 and T2 compile is the one recipe in :mod:`repro.tier.compile`,
run in-process here or by a farm worker; a rejected candidate pins the
handle at its current tier instead of ever serving unverified code.

Worker compiles are *cooperative*: each job's
:class:`~repro.guard.Budget` gets a yield hook that blocks on the
engine's run gate, so :meth:`pause` throttles in-flight compiles at their
next trace-point/sweep/stage checkpoint without any stage knowing about
threads.
"""

from __future__ import annotations

import copy
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Sequence

from repro.cache import SpecializationCache
from repro.cpu.image import Image
from repro.errors import ReproError
from repro.guard import Budget, DifferentialGate, GateOptions
from repro.instrument import InstrumentOptions, Instrumenter
from repro.ir.codegen import JITEngine, JITOptions
from repro.ir.module import Function
from repro.ir.passes import O3Options
from repro.jit import TransformResult
from repro.lift import FunctionSignature, LiftOptions
from repro.lift.fixation import FixedMemory
from repro.obs.metrics import CounterView, MetricsRegistry
from repro.obs.trace import TRACER as _TR, Span
from repro.tier.compile import TierOutcome, compile_tier, tier_plan
from repro.tier.handle import DispatchHandle, TierCode
from repro.tier.policy import (
    NUM_TIERS, T1, EdgeProfile, TierGovernor, TierPolicy,
)


class TierStats:
    """Aggregate engine counters (read with :meth:`snapshot`).

    Backed by a :class:`~repro.obs.metrics.MetricsRegistry`: the int
    attributes are :class:`~repro.obs.metrics.CounterView` thin views and
    the dict-valued fields are registry-owned
    :class:`~repro.obs.metrics.CounterFamily` objects, so one
    ``registry.snapshot()``/``reset()`` is authoritative while the legacy
    attribute protocol (``stats.refixes += 1``,
    ``stats.installs[tier] += 1``) keeps working unchanged.
    """

    registered = CounterView("_registered")
    #: finished jobs discarded because a refix superseded their epoch
    stale_discards = CounterView("_stale_discards")
    demotions = CounterView("_demotions")
    refixes = CounterView("_refixes")
    #: TransformResults observed via the per-call profiling hook
    pipeline_results = CounterView("_pipeline_results")
    #: of those, served by joining another thread's in-flight compile
    coalesced = CounterView("_coalesced")
    #: compile jobs shipped to the farm (attempted, not necessarily served)
    farm_jobs = CounterView("_farm_jobs")
    #: farm requests that fell back to the in-process pipeline
    farm_fallbacks = CounterView("_farm_fallbacks")
    #: farm results served from the shared store without compiling
    farm_cache_hits = CounterView("_farm_cache_hits")
    #: farm results that joined another process's in-flight compile
    farm_coalesced = CounterView("_farm_coalesced")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        r = registry if registry is not None else MetricsRegistry()
        self.registry = r
        self._registered = r.counter("tier.registered")
        self._stale_discards = r.counter("tier.stale_discards")
        self._demotions = r.counter("tier.demotions")
        self._refixes = r.counter("tier.refixes")
        self._pipeline_results = r.counter("tier.pipeline_results")
        self._coalesced = r.counter("tier.coalesced")
        self._farm_jobs = r.counter("tier.farm.jobs")
        self._farm_fallbacks = r.counter("tier.farm.fallbacks")
        self._farm_cache_hits = r.counter("tier.farm.cache_hits")
        self._farm_coalesced = r.counter("tier.farm.coalesced")
        upgrade = {t: 0 for t in range(1, NUM_TIERS)}
        #: compile jobs submitted / installed / rejected, by target tier
        self.submitted = r.family("tier.submitted", upgrade)
        self.installs = r.family("tier.installs", upgrade)
        self.rejections = r.family("tier.rejections", upgrade)
        #: wall seconds spent inside compile jobs, by target tier
        self.compile_seconds = r.family(
            "tier.compile_seconds", {t: 0.0 for t in range(1, NUM_TIERS)})
        #: pipeline results served from a warm cache stage (stage -> count)
        self.cache_served = r.family("tier.cache_served")

    def reset(self) -> None:
        self.registry.reset()

    def snapshot(self) -> dict[str, Any]:
        return {
            "registered": self.registered,
            "submitted": dict(self.submitted),
            "installs": dict(self.installs),
            "rejections": dict(self.rejections),
            "compile_seconds": dict(self.compile_seconds),
            "stale_discards": self.stale_discards,
            "demotions": self.demotions,
            "refixes": self.refixes,
            "pipeline_results": self.pipeline_results,
            "coalesced": self.coalesced,
            "cache_served": dict(self.cache_served),
            "farm_jobs": self.farm_jobs,
            "farm_fallbacks": self.farm_fallbacks,
            "farm_cache_hits": self.farm_cache_hits,
            "farm_coalesced": self.farm_coalesced,
        }


@dataclass(frozen=True)
class _Job:
    """One queued background compile."""

    handle: DispatchHandle
    target: int
    epoch: int
    seq: int
    #: the submitting context's span (None when tracing is off) — the
    #: worker adopts it so its compile span nests under the dispatch site
    parent_span: Span | None = None


class TieredEngine:
    """Hotness-profiled tiered execution over one image."""

    def __init__(self, image: Image, *,
                 cache: SpecializationCache | None = None,
                 policy: TierPolicy | None = None,
                 max_workers: int = 2,
                 clock: Callable[[], float] = time.monotonic,
                 gate_options: GateOptions = GateOptions(),
                 lift_options: LiftOptions | None = None,
                 jit_options: JITOptions | None = None,
                 t2_o3_options: O3Options | None = None,
                 budget_factory: Callable[[], Budget] | None = None,
                 machine_verify: bool = False,
                 registry: MetricsRegistry | None = None,
                 on_install: "Callable[[DispatchHandle, TierCode], None] | None"
                 = None,
                 farm: "Any | None" = None,
                 farm_timeout: float = 60.0,
                 profile: str = "calls",
                 instrument_options: InstrumentOptions | None = None) -> None:
        if profile not in ("calls", "edges"):
            raise ValueError(f"unknown profile source {profile!r}")
        self.image = image
        #: one registry owns every layer's metrics under this engine: tier
        #: counters here, cache.* via the default cache, guard.* via the
        #: per-job T2 GuardedTransformers (get-or-create shares counters)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = cache if cache is not None \
            else SpecializationCache(registry=self.registry)
        self.policy = policy if policy is not None else TierPolicy()
        self.clock = clock
        self.gate_options = gate_options
        self.lift_options = lift_options
        self.jit_options = jit_options
        self.t2_o3_options = t2_o3_options
        #: per-job budget source; the engine chains its throttle gate onto
        #: whatever yield hook the factory's budgets already carry
        self.budget_factory = budget_factory
        #: statically verify every fresh T1/T2 emission against its source
        #: IR (:mod:`repro.analysis.machine`) before installing it; a
        #: refuted proof rejects the job, an inconclusive proof on the
        #: ungated T1 tier downgrades to a one-off differential gate
        self.machine_verify = machine_verify
        #: called (outside the handle lock) after every install — the
        #: stencil driver uses this to invalidate simulator decode caches
        self.on_install = on_install
        #: optional :class:`~repro.farm.FarmClient`: when set, compile
        #: jobs are shipped to the worker-process pool first and the
        #: in-process pipelines below become the fallback path
        self.farm = farm
        self.farm_timeout = farm_timeout
        #: governor hotness source: "calls" (raw invocation counts) or
        #: "edges" — T1 installs instrumented with edge counters
        #: (``repro.instrument``) and each handle's governor promotes on
        #: basic-block heat read from the live probe buffer
        self.profile = profile
        self.instrument_options = instrument_options
        self.stats = TierStats(self.registry)
        self._queue_depth = self.registry.gauge("tier.queue_depth")
        self._dispatch_seconds = self.registry.histogram(
            "tier.dispatch_seconds",
            (1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 1e-4, 1e-3))
        self.registry.view("tier.cycles_ewma", self._ewma_view)
        self.handles: dict[str, DispatchHandle] = {}
        self._lock = threading.RLock()
        self._seq = itertools.count()
        self._closed = False
        #: set = run, cleared = throttle workers at their next checkpoint
        self._running = threading.Event()
        self._running.set()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-tier")

    def _ewma_view(self) -> dict[str, dict[int, float]]:
        """Registry view: per-handle governor EWMAs (owned by the policy
        layer, which stays metrics-free; exposed read-only here)."""
        with self._lock:
            return {name: dict(h.governor.cycles)
                    for name, h in self.handles.items()}

    # -- registration ------------------------------------------------------

    def register(self, func: str | int, signature: FunctionSignature, *,
                 fixes: dict[int, int | float | FixedMemory] | None = None,
                 mem_regions: Sequence[tuple[int, int]] = (),
                 probes: Sequence[tuple] = (),
                 name: str | None = None,
                 dbrew_func: str | int | None = None,
                 policy: TierPolicy | None = None) -> DispatchHandle:
        """Front a (function, fixation) pair with a dispatch handle.

        ``fixes``/``mem_regions``/``probes``/``dbrew_func`` have the same
        meaning as in :meth:`GuardedTransformer.transform`; they define the
        fixation key the upgrade tiers compile for.  The handle starts at
        T0 and is immediately dispatchable.
        """
        if self._closed:
            raise RuntimeError("TieredEngine is closed")
        entry = self.image.symbol(func) if isinstance(func, str) else func
        base = func if isinstance(func, str) else f"f{func:x}"
        hname = name or f"{base}.tiered"
        governor = TierGovernor(policy=policy or self.policy,
                                clock=self.clock)
        handle = DispatchHandle(self, hname, func, entry, signature, fixes,
                                mem_regions, probes, dbrew_func, governor)
        if _TR.enabled:
            # __class__ swap to a timed subclass: DispatchHandle.address()
            # itself stays the bare three-step hot path when tracing is off
            handle._enable_dispatch_trace(self._dispatch_seconds)
        with self._lock:
            if hname in self.handles:
                raise ValueError(f"handle {hname!r} already registered")
            self.handles[hname] = handle
            self.stats.registered += 1
        return handle

    def refix(self, handle: DispatchHandle,
              fixes: dict[int, int | float | FixedMemory] | None = None, *,
              mem_regions: Sequence[tuple[int, int]] = (),
              probes: Sequence[tuple] = ()) -> None:
        """Supersede the handle's fixation key (new parameter values).

        Bumps the compile epoch — in-flight jobs for the old key finish
        but their results are discarded at install time — drops every
        upgrade tier, rebases hotness, and falls back to T0 until the new
        key earns its promotions.
        """
        with handle._cv:
            handle.epoch += 1
            handle.fixes = dict(fixes) if fixes else None
            handle.mem_regions = tuple(mem_regions)
            handle.probes = tuple(probes)
            handle.governor.rebase(handle.calls)
            handle._version += 1
            t0 = TierCode(0, handle.entry, handle.name, handle._version,
                          handle.epoch, "original")
            handle.codes = {0: t0}
            handle._code = t0
            handle._next_review = handle.governor.next_review(handle.calls, 0)
            handle._cv.notify_all()
        with self._lock:
            self.stats.refixes += 1

    # -- dispatch slow path ------------------------------------------------

    def _review(self, handle: DispatchHandle) -> None:
        """Counter crossed a threshold: maybe enqueue a compile.

        Non-blocking by construction: if another thread holds the handle
        lock (an install or a concurrent review), this call just returns —
        the counter keeps climbing and a later call retries.
        """
        if self._closed:
            return
        job = None
        if not handle._cv.acquire(blocking=False):
            return
        try:
            cur = handle._code.tier
            target = handle.governor.next_target(handle.calls, cur,
                                                 handle.in_flight)
            if target is not None:
                handle.in_flight.add(target)
                job = _Job(handle, target, handle.epoch, next(self._seq),
                           _TR.current() if _TR.enabled else None)
            handle._next_review = handle.governor.next_review(
                handle.calls, cur)
        finally:
            handle._cv.release()
        if job is not None:
            with self._lock:
                self.stats.submitted[job.target] += 1
                self._queue_depth.inc()
            if _TR.enabled:
                _TR.instant("tier.promote", {"handle": handle.name,
                                             "target": job.target})
            self._pool.submit(self._run_job, job)

    def _observe(self, handle: DispatchHandle, tier: int,
                 cycles: float) -> None:
        with handle._cv:
            demote_to = handle.governor.observe(tier, cycles)
            if demote_to is None or demote_to not in handle.codes \
                    or handle._code.tier != tier:
                return
            handle.governor.on_demote(tier, handle.calls)
            handle._code = handle.codes[demote_to]
            handle._next_review = handle.governor.next_review(
                handle.calls, demote_to)
            handle._cv.notify_all()
        with self._lock:
            self.stats.demotions += 1
        if _TR.enabled:
            _TR.instant("tier.demote", {"handle": handle.name,
                                        "from": tier, "to": demote_to})

    # -- background compilation --------------------------------------------

    def _job_budget(self) -> Budget:
        budget = self.budget_factory() if self.budget_factory else Budget()
        inner = budget.yield_hook

        def hook() -> None:
            self._running.wait()
            if inner is not None:
                inner()

        budget.yield_hook = hook
        return budget

    def _note_result(self, result: TransformResult) -> None:
        with self._lock:
            self.stats.pipeline_results += 1
            if result.coalesced:
                self.stats.coalesced += 1
            if result.cache_stage is not None:
                self.stats.cache_served[result.cache_stage] = (
                    self.stats.cache_served.get(result.cache_stage, 0) + 1)

    def _run_job(self, job: _Job) -> None:
        if not _TR.enabled:
            return self._run_job_impl(job)
        # worker threads do not inherit the submit-site context: adopt the
        # captured parent so the compile span nests under the dispatch span
        token = _TR.adopt(job.parent_span)
        try:
            with _TR.span("tier.compile", {"handle": job.handle.name,
                                           "target": job.target,
                                           "seq": job.seq}):
                return self._run_job_impl(job)
        finally:
            _TR.release(token)

    def _run_job_impl(self, job: _Job) -> None:
        handle = job.handle
        self._running.wait()
        if handle.epoch != job.epoch or self._closed:
            with handle._cv:
                handle.in_flight.discard(job.target)
                handle._cv.notify_all()
            with self._lock:
                self.stats.stale_discards += 1
                self._queue_depth.dec()
            return

        t0 = time.perf_counter()
        out_name = f"{handle.name}.t{job.target}.e{job.epoch}.s{job.seq}"
        install = partial(self._install_instrumented, handle, out_name) \
            if job.target == T1 and self.profile == "edges" else None
        try:
            o3, ladder = tier_plan(job.target, handle.fixes,
                                   handle.mem_regions, self.t2_o3_options)
            out = self._compile_farm(handle, job, out_name, o3, ladder,
                                     install) \
                if self.farm is not None else None
            if out is None:
                out = compile_tier(
                    self.image, job.target, handle.func, handle.signature,
                    handle.fixes, handle.mem_regions, handle.probes,
                    handle.dbrew_func, name=out_name, o3=o3, ladder=ladder,
                    cache=self.cache, budget=self._job_budget(),
                    lift_options=self.lift_options,
                    jit_options=self.jit_options,
                    gate_options=self.gate_options,
                    machine_verify=self.machine_verify,
                    registry=self.registry, on_result=self._note_result,
                    install=install)
            if out.buffer is not None:
                # attach before the install commits: a stale discard leaves
                # a frozen buffer, and max(calls, heat) makes that harmless
                handle.governor.profile = EdgeProfile(out.buffer)
            elif job.target == T1 and out.reject is None:
                # one gate site for local and farm T1 alike: an
                # inconclusive proof costs this install a one-off gate
                self._t1_machine_gate(handle, out.addr, out.machine_verdict)
        except ReproError as exc:
            out = TierOutcome(reject=f"{type(exc).__name__}: {exc}")
        except BaseException as exc:  # pragma: no cover - defensive
            out = TierOutcome(reject=f"internal error: {exc!r}")
        seconds = time.perf_counter() - t0

        installed: TierCode | None = None
        outcome = "stale"
        with handle._cv:
            handle.in_flight.discard(job.target)
            try:
                if handle.epoch != job.epoch:
                    with self._lock:
                        self.stats.stale_discards += 1
                elif out.reject is not None or out.addr is None:
                    outcome = "reject"
                    handle.governor.on_reject(
                        job.target, out.reject or "no result")
                    with self._lock:
                        self.stats.rejections[job.target] += 1
                else:
                    outcome = "install"
                    handle._version += 1
                    installed = TierCode(job.target, out.addr, out_name,
                                         handle._version, job.epoch,
                                         out.mode or "?", out.verified)
                    handle.codes[job.target] = installed
                    if job.target > handle._code.tier:
                        handle._code = installed
                    handle.governor.on_install(job.target)
                    with self._lock:
                        self.stats.installs[job.target] += 1
                handle._next_review = handle.governor.next_review(
                    handle.calls, handle._code.tier)
            finally:
                handle._cv.notify_all()
        with self._lock:
            self.stats.compile_seconds[job.target] += seconds
            self._queue_depth.dec()
        if _TR.enabled:
            _TR.instant(f"tier.{outcome}",
                        {"handle": handle.name, "target": job.target,
                         "seconds": seconds,
                         "reason": out.reject})
        if installed is not None and self.on_install is not None:
            self.on_install(handle, installed)

    def _compile_farm(self, handle: DispatchHandle, job: _Job, out_name: str,
                      o3: O3Options, ladder: tuple[str, ...],
                      install: Callable[..., TierOutcome] | None,
                      ) -> TierOutcome | None:
        """Ship one compile to the farm; None means "compile in-process".

        The worker runs the same :func:`compile_tier` with the same
        :func:`tier_plan` recipe (``o3``, ``ladder``) and returns a
        position-independent post-O3 module; the engine runs the (cheap)
        code generation, or an instrumented T1's ``install``, here, into
        its own image — so a farm install never costs the client a lift or
        an O3 pipeline.  Every farm deficiency (unkeyable function,
        timeout, dead pool, retryable result, open circuit breaker) falls
        back to the local tiers; only a content-determined negative verdict
        is surfaced as a rejection.
        """
        from repro.farm import protocol as fp
        # breaker fast-skip: while the client's circuit is open, job-key
        # hashing and image publication would be thrown away — degrade to
        # the in-process tiers before doing any of it.  getattr keeps
        # duck-typed farm stubs (tests) working without the method.
        avail = getattr(self.farm, "available", None)
        if avail is not None and not avail():
            with self._lock:
                self.stats.farm_fallbacks += 1
            return None
        target = job.target
        cur = _TR.current() if _TR.enabled else None
        # publish (or re-verify) the image snapshot *before* keying: the
        # job key folds the spec key in, so results computed against
        # different snapshots can never be served interchangeably
        cjob = fp.make_job(
            self.image, out_name, target, handle.func, handle.signature,
            handle.fixes, handle.mem_regions, handle.probes,
            handle.dbrew_func if target != T1 else None, ladder,
            image_key=self.farm.ensure_image(self.image), o3=o3,
            lift_options=self.lift_options, jit=self.jit_options,
            gate=self.gate_options,
            budget=self.budget_factory() if self.budget_factory else None,
            epoch=job.epoch, seq=job.seq, trace=_TR.enabled,
            parent_span_id=cur.span_id if cur is not None else None,
            machine_verify=self.machine_verify)
        if cjob is None:
            with self._lock:
                self.stats.farm_fallbacks += 1
            return None
        with self._lock:
            self.stats.farm_jobs += 1
        res = self.farm.compile(cjob, timeout=self.farm_timeout)
        if res is None or (not res.ok and res.retryable):
            with self._lock:
                self.stats.farm_fallbacks += 1
            return None
        with self._lock:
            if res.cache_stage == "farm":
                self.stats.farm_cache_hits += 1
                self.stats.cache_served["farm"] = (
                    self.stats.cache_served.get("farm", 0) + 1)
            if res.coalesced:
                self.stats.farm_coalesced += 1
        if not res.ok:
            return TierOutcome(reject=res.reject_reason or "farm rejection",
                               machine_verdict=res.machine_verdict)
        main = res.module.functions[res.main_name]
        if install is not None:  # coalesced callers share ``res``: copy
            return install(copy.deepcopy(main), self._job_budget().start())
        addr = JITEngine(self.image, cjob.jit).compile_function(
            main, name=out_name)
        return TierOutcome(addr, res.mode, res.verified, res.machine_verdict)

    def _install_instrumented(self, handle: DispatchHandle, out_name: str,
                              main: Function, budget: Budget) -> TierOutcome:
        """Edge-profile T1: install the post-O3 T1 ``main`` with probes.
        Without probe vectors the gate runs with ``min_conclusive=0``
        (sampled integers cannot exercise pointer parameters)."""
        gate = self.gate_options if handle.probes \
            else replace(self.gate_options, min_conclusive=0)
        res = Instrumenter(
            self.image, lift_options=LiftOptions(budget=budget),
            jit_options=self.jit_options, gate_options=gate,
            machine_verify=self.machine_verify,
        ).install(main, handle.entry, handle.signature, fixes=handle.fixes,
                  options=self.instrument_options or InstrumentOptions(),
                  probes=handle.probes, name=out_name)
        mode = "llvm-fix+instr" if handle.fixes else "llvm+instr"
        return TierOutcome(res.addr, mode, machine_verdict=res.machine_verdict,
                           buffer=res.buffer)

    def _t1_machine_gate(self, handle: DispatchHandle, addr: int,
                         verdict: str | None) -> None:
        """T1 normally installs ungated; an *inconclusive* machine proof
        downgrades that privilege to a mandatory one-off differential
        gate.  (A refuted proof never reaches here — it is a reject.)"""
        if verdict == "inconclusive":
            DifferentialGate(self.image, self.gate_options).gate(
                handle.entry, addr, handle.signature, handle.fixes,
                handle.probes)

    # -- scheduling controls -----------------------------------------------

    def pause(self) -> None:
        """Throttle background compiles at their next budget checkpoint."""
        self._running.clear()

    def resume(self) -> None:
        self._running.set()

    @property
    def paused(self) -> bool:
        return not self._running.is_set()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no compile is queued or running; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in list(self.handles.values()):
            with handle._cv:
                remaining = None if deadline is None else \
                    deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    if handle.in_flight:
                        return False
                    continue
                if not handle._cv.wait_for(lambda: not handle.in_flight,
                                           remaining):
                    return False
        return True

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and shut the pool down.

        The run gate is re-opened first so paused workers can finish (or
        discard) instead of deadlocking the shutdown.
        """
        self._closed = True
        self.resume()
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "TieredEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "closed": self._closed,
                "paused": self.paused,
                "stats": self.stats.snapshot(),
                "handles": {n: h.snapshot()
                            for n, h in self.handles.items()},
            }
