"""BinaryTransformer: the paper's Fig. 1 pipeline glued together.

Loaded binary code -> (optional DBrew specialization) -> x86 -> IR
transformation -> standard -O3 optimization -> JIT code generation -> new
binary code installed in the image.

Each public method implements one evaluation mode of Sec. VI:

* :meth:`llvm_identity` — the plain transformation (mode "LLVM");
* :meth:`llvm_fixed` — IR-level parameter fixation (mode "LLVM-fix");
* DBrew alone is :class:`repro.dbrew.Rewriter` (mode "DBrew");
* :meth:`llvm_identity` applied to a rewritten function gives "DBrew+LLVM".

All methods return a :class:`TransformResult` carrying the new entry
address and wall-clock compile-time stages for Fig. 10.

With a :class:`~repro.cache.SpecializationCache` attached (``cache=``),
repeated transformations are memoized per stage: an identical request
returns the installed code directly (``cache_stage == "machine"``), a
request differing only in code-generation options reuses the post--O3
module, and a re-specialization of a known function for new parameter
values reuses the lifted IR (``cache_stage == "lifted"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.cache import MachineEntry, SpecializationCache
from repro.cache import keys as cache_keys
from repro.cpu.image import Image
from repro.errors import VerificationError
from repro.ir.codegen import JITEngine, JITOptions
from repro.ir.module import Function, Module
from repro.ir.passes import O3Options, O3Report, run_o3
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.lift.fixation import FixedMemory, build_fixation_wrapper
from repro.obs import metrics as _metrics
from repro.obs.trace import TRACER as _TR


@dataclass
class TransformResult:
    """Outcome of one runtime transformation."""

    addr: int
    name: str
    function: Function
    module: Module
    lift_seconds: float = 0.0
    optimize_seconds: float = 0.0
    codegen_seconds: float = 0.0
    #: which cache stage served this transform (None = full compile)
    cache_stage: str | None = None
    #: key of the installed code in the machine cache (None = no cache)
    machine_key: str | None = None
    #: the served machine entry had already passed the verification gate
    #: (only meaningful on a machine-stage hit; see MachineEntry.gated)
    machine_gated: bool = False
    #: this request joined another thread's in-flight compile of the same
    #: key and was served the leader's installed code (no pipeline ran)
    coalesced: bool = False
    #: the main function's pipeline report (None on machine/module cache
    #: hits — the optimizer did not run); carries per-pass validation
    #: verdicts when the transformer runs with a validator attached
    o3_report: "O3Report | None" = None
    #: machine-level translation-validation verdict for the installed code
    #: ("proved"/"inconclusive"; "refuted" never reaches a result — it
    #: raises).  None when the transformer runs without ``machine_verify``
    #: or the serving cache entry predates verification.
    machine_verdict: str | None = None
    #: wall-clock cost of the machine-level proof (0.0 on warm hits — the
    #: verdict is stored with the installed entry and served for free)
    machine_verify_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.lift_seconds + self.optimize_seconds + self.codegen_seconds


def verify_emitted(jit: JITEngine, name: str):
    """Prove the function ``jit`` just emitted equivalent to its IR.

    Thin wrapper over :func:`repro.analysis.machine.verify_witness` that
    feeds the ``machine.verify.*`` metrics counters and raises a refuted
    proof as :class:`VerificationError` (``stage="machine-verify"``, the
    report's ``findings`` attached).  Imported lazily so transformers
    running without ``machine_verify`` never pay for the verifier package.
    A missing witness (backend hook disabled) is *inconclusive*, not
    proved — nothing-to-check is not a proof.
    """
    from repro.analysis import machine as M

    witness = jit.last_witness
    if witness is None:
        report = M.VerifyResult(
            verdict=M.INCONCLUSIVE,
            reasons=[f"backend produced no witness for {name!r}"])
    else:
        report = M.verify_witness(witness)
    _metrics.counter(f"machine.verify.{report.verdict}").inc()
    if report.verdict == M.REFUTED:
        detail = "; ".join(
            f.format() for f in report.findings if f.is_error) \
            or "machine-level proof refuted"
        raise VerificationError(
            f"machine verification refuted {name!r}: {detail}",
            stage="machine-verify", name=name,
            findings=tuple(report.findings))
    return report


class BinaryTransformer:
    """Per-image transformation engine."""

    def __init__(self, image: Image, *, lift_options: LiftOptions | None = None,
                 o3_options: O3Options | None = None,
                 jit_options: JITOptions | None = None,
                 cache: SpecializationCache | None = None,
                 budget: "object | None" = None,
                 validator: "object | None" = None,
                 machine_verify: bool = False) -> None:
        self.image = image
        self.lift_options = lift_options or LiftOptions()
        self.o3_options = o3_options or O3Options()
        self.jit_options = jit_options or JITOptions()
        self.cache = cache
        #: per-pass translation validator (:class:`repro.analysis.validate.
        #: PassValidator`) threaded into every ``run_o3`` call; like the
        #: budget it is never part of cache keys — validation can only
        #: reject a pass (restoring its input), not change accepted output.
        #: Warm cache hits skip optimization and therefore validation:
        #: zero warm-path overhead.
        self.validator = validator
        #: shared :class:`repro.guard.Budget` charged by lift/opt/codegen
        #: stages (None = unlimited); never part of cache keys
        self.budget = budget
        #: statically verify every freshly emitted function against its
        #: source IR (:mod:`repro.analysis.machine`) before installing it.
        #: A refuted proof quarantines the request (``machine:<xkey>``) and
        #: raises :class:`VerificationError` with ``stage="machine-verify"``
        #: before the entry can reach the machine cache.  Like ``validator``
        #: and ``budget`` this is never part of cache keys — verification
        #: only rejects output, it cannot change accepted code.
        self.machine_verify = machine_verify
        #: per-call profiling hook: invoked with every TransformResult this
        #: engine produces (hits and misses alike).  The tiered engine
        #: attaches here to collect compile-cost telemetry per tier without
        #: wrapping every evaluation-mode method.
        self.on_result: "Callable[[TransformResult], None] | None" = None
        #: (image generation, digest) memo for the lifter configuration —
        #: it hashes known-callee bytes, so it must follow image patches
        self._lift_digest: tuple[int, str] | None = None

    def _lift(self, func: str | int, signature: FunctionSignature,
              module: Module, name: str) -> tuple[Function, float]:
        entry = self.image.symbol(func) if isinstance(func, str) else func
        known = dict(self.lift_options.known_functions)
        t0 = time.perf_counter()
        # lift every known call target as a *definition* first, so the IR
        # inliner can see through calls (Sec. III-B: translating call to
        # call "leaves the decision on inlining to the LLVM optimizer")
        for callee_addr, (callee_name, callee_sig) in known.items():
            existing = module.functions.get(callee_name)
            if existing is not None and not existing.is_declaration:
                continue
            lift_function(
                self.image.memory, callee_addr, callee_sig,
                LiftOptions(
                    flag_cache=self.lift_options.flag_cache,
                    facet_cache=self.lift_options.facet_cache,
                    stack_size=self.lift_options.stack_size,
                    name=callee_name,
                    known_functions=known,
                    budget=self.budget,
                ),
                module,
            )
        opts = LiftOptions(
            flag_cache=self.lift_options.flag_cache,
            facet_cache=self.lift_options.facet_cache,
            stack_size=self.lift_options.stack_size,
            name=name,
            known_functions=known,
            budget=self.budget,
        )
        lifted = lift_function(self.image.memory, entry, signature, opts, module)
        return lifted, time.perf_counter() - t0

    def _optimize_module(self, module: Module, main: Function) -> O3Report:
        """Optimize lifted callees first so the inliner sees their real
        (small) size, then the main function."""
        for f in module.functions.values():
            if f is not main and not f.is_declaration:
                run_o3(f, self.o3_options, budget=self.budget,
                       validator=self.validator)
        return run_o3(main, self.o3_options, budget=self.budget,
                      validator=self.validator)

    # -- cache plumbing ----------------------------------------------------------

    def _lifted_key(self, func: str | int,
                    signature: FunctionSignature) -> str | None:
        """Stage-1 key via the cache's memoized content digests."""
        assert self.cache is not None
        code_digest = self.cache.code_digest(self.image, func)
        if code_digest is None:
            return None
        generation = self.cache.attach_image(self.image).generation
        if self._lift_digest is None or self._lift_digest[0] != generation:
            self._lift_digest = (generation, cache_keys.lift_options_digest(
                self.lift_options, self.image))
        return cache_keys.digest_str(
            "lifted", code_digest, cache_keys.signature_digest(signature),
            self._lift_digest[1],
        )

    def _codegen(self, main: Function, out_name: str,
                 xkey: str | None = None) -> tuple[int, float, str | None, float]:
        """Emit ``main``; with ``machine_verify`` also prove the emission.

        Returns ``(addr, codegen_seconds, machine_verdict, verify_seconds)``.
        Both compile paths flow through here, so a refuted proof can never
        reach :meth:`SpecializationCache.put_machine` — the raise happens
        first, and the request key is quarantined like an ``o3pass:``
        rejection so repeat requests fail fast.
        """
        if self.budget is not None:
            self.budget.checkpoint("codegen")  # type: ignore[attr-defined]
        t0 = time.perf_counter()
        jit = JITEngine(self.image, self.jit_options)
        addr = jit.compile_function(main, name=out_name)
        t_cg = time.perf_counter() - t0
        if not self.machine_verify:
            return addr, t_cg, None, 0.0
        try:
            report = verify_emitted(jit, out_name)
        except VerificationError as exc:
            if self.cache is not None and xkey is not None:
                self.cache.put_negative(
                    f"machine:{xkey}", "machine-verify", exc.args[0])
            raise
        return addr, t_cg, report.verdict, report.seconds

    def _transform(self, func: str | int, signature: FunctionSignature,
                   fixes: dict[int, int | float | FixedMemory] | None,
                   out_name: str, mode: str) -> TransformResult:
        """The shared memoized pipeline behind both LLVM modes.

        A machine-stage miss is routed through the cache's
        :class:`~repro.cache.FlightTable`: of N threads missing on the same
        installed-code key concurrently, one runs the pipeline and the rest
        block until it installs, then serve the result as a machine-stage
        hit (``coalesced=True``) — one compile, one installed copy.
        """
        if not _TR.enabled:
            return self._transform_impl(func, signature, fixes, out_name, mode)
        with _TR.span("transform", {"name": out_name, "mode": mode}):
            return self._transform_impl(func, signature, fixes, out_name, mode)

    def _transform_impl(self, func: str | int, signature: FunctionSignature,
                        fixes: dict[int, int | float | FixedMemory] | None,
                        out_name: str, mode: str) -> TransformResult:
        cache = self.cache
        lkey = mkey = xkey = None
        if cache is not None:
            lkey = self._lifted_key(func, signature)
        if lkey is not None:
            assert cache is not None
            mkey = cache_keys.module_key(
                lkey, mode, cache_keys.fixes_digest(fixes, self.image.memory),
                cache_keys.options_digest(self.o3_options),
            )
            xkey = cache_keys.machine_key(
                mkey, cache_keys.options_digest(self.jit_options))

            served = self._serve_machine(xkey, out_name)
            if served is not None:
                return self._done(served)

            result, leader = cache.flights.run(
                ("transform", id(self.image), xkey),
                lambda: self._compile(func, signature, fixes, out_name, mode,
                                      lkey, mkey, xkey))
            if leader:
                return self._done(result)
            served = self._serve_machine(xkey, out_name, coalesced=True)
            if served is not None:
                return self._done(served)
            # leader's entry already evicted (tiny machine capacity under
            # churn): fall through to a private compile
        return self._done(self._compile(func, signature, fixes, out_name,
                                        mode, lkey, mkey, xkey))

    def _done(self, result: TransformResult) -> TransformResult:
        if self.on_result is not None:
            self.on_result(result)
        return result

    def _serve_machine(self, xkey: str, out_name: str, *,
                       coalesced: bool = False) -> TransformResult | None:
        """Alias an installed machine entry under ``out_name``, if cached."""
        assert self.cache is not None
        entry = self.cache.get_machine(self.image, xkey)
        if entry is None:
            return None
        # already installed in this image: alias the requested name
        # to the existing code, nothing to compile
        self.image.symbols[out_name] = entry.addr
        self.image.func_sizes[out_name] = entry.size
        self.cache.note_transform("machine")
        return TransformResult(entry.addr, out_name, entry.function,
                               entry.module, cache_stage="machine",
                               machine_key=xkey, machine_gated=entry.gated,
                               coalesced=coalesced,
                               machine_verdict=entry.machine_verdict)

    def _compile(self, func: str | int, signature: FunctionSignature,
                 fixes: dict[int, int | float | FixedMemory] | None,
                 out_name: str, mode: str, lkey: str | None,
                 mkey: str | None, xkey: str | None) -> TransformResult:
        """The miss path: module-stage lookup, then the full pipeline."""
        cache = self.cache
        if self.machine_verify and cache is not None and xkey is not None:
            neg = cache.check_negative(f"machine:{xkey}")
            if neg is not None:
                raise VerificationError(
                    f"quarantined: {neg.reason}", stage="machine-verify",
                    name=out_name, quarantined=True)
        if mkey is not None:
            assert cache is not None and xkey is not None
            hit = cache.get_module(mkey)
            if hit is not None:
                module, main_name = hit
                main = module.functions[main_name]
                addr, t_cg, verdict, t_mv = self._codegen(main, out_name, xkey)
                cache.put_machine(self.image, xkey, MachineEntry(
                    addr, out_name, self.image.func_sizes[out_name], main,
                    module, machine_verdict=verdict))
                cache.note_transform("module")
                return TransformResult(addr, out_name, main, module,
                                       codegen_seconds=t_cg,
                                       cache_stage="module",
                                       machine_key=xkey,
                                       machine_verdict=verdict,
                                       machine_verify_seconds=t_mv)

        module = None
        lifted = None
        t_lift = 0.0
        cache_stage = None
        if lkey is not None:
            assert cache is not None
            hit = cache.get_lifted(lkey)
            if hit is not None:
                module, lifted_name = hit
                lifted = module.functions[lifted_name]
                cache_stage = "lifted"
        if module is None or lifted is None:
            module = Module(f"tx.{out_name}")
            lifted, t_lift = self._lift(
                func, signature, module,
                out_name + (".orig" if mode == "fixed" else ".lifted"))
            if lkey is not None:
                assert cache is not None
                cache.put_lifted(lkey, module, lifted.name)

        t0 = time.perf_counter()
        if mode == "fixed":
            span = _TR.start("fixation", {"name": out_name}) \
                if _TR.enabled else None
            try:
                main = build_fixation_wrapper(
                    module, lifted, fixes or {}, self.image.memory,
                    name=out_name
                )
            finally:
                if span is not None:
                    _TR.finish(span)
        else:
            main = lifted
        span = _TR.start("opt", {"name": out_name}) if _TR.enabled else None
        try:
            o3_report = self._optimize_module(module, main)
        finally:
            if span is not None:
                _TR.finish(span)
        t_opt = time.perf_counter() - t0
        if mkey is not None:
            assert cache is not None
            cache.put_module(mkey, module, main.name)

        addr, t_cg, verdict, t_mv = self._codegen(main, out_name, xkey)
        if xkey is not None:
            assert cache is not None
            cache.put_machine(self.image, xkey, MachineEntry(
                addr, out_name, self.image.func_sizes[out_name], main, module,
                machine_verdict=verdict))
            cache.note_transform(cache_stage)
        return TransformResult(addr, out_name, main, module,
                               t_lift, t_opt, t_cg, cache_stage=cache_stage,
                               machine_key=xkey, o3_report=o3_report,
                               machine_verdict=verdict,
                               machine_verify_seconds=t_mv)

    # -- evaluation modes --------------------------------------------------------

    def llvm_identity(self, func: str | int, signature: FunctionSignature,
                      *, name: str | None = None) -> TransformResult:
        """Lift -> -O3 -> JIT, no specialization ("basically an identity
        transformation", Sec. VI)."""
        base = func if isinstance(func, str) else f"f{func:x}"
        out_name = name or f"{base}.llvm"
        return self._transform(func, signature, None, out_name, "identity")

    def llvm_vectorized(self, func: str | int, signature: FunctionSignature,
                        fixes: dict[int, int | float | FixedMemory] | None = None,
                        *, name: str | None = None) -> TransformResult:
        """Sec. VII's proposed *explicit* vectorization API.

        "It seems to be more effective to provide explicit APIs, such as a
        way to transform scalar kernels into vectorized kernels" — the user
        asserts vectorization is wanted; the pipeline runs with
        ``force_vector_width=2`` (the metadata gate is overridden, exactly
        like the paper's command-line experiment, but as a first-class API).
        """
        saved = self.o3_options
        self.o3_options = saved.replace(force_vector_width=2)
        try:
            if fixes:
                return self.llvm_fixed(func, signature, fixes, name=name)
            return self.llvm_identity(func, signature, name=name)
        finally:
            self.o3_options = saved

    def llvm_fixed(self, func: str | int, signature: FunctionSignature,
                   fixes: dict[int, int | float | FixedMemory],
                   *, name: str | None = None) -> TransformResult:
        """Lift the original, then specialize at IR level (Sec. IV)."""
        base = func if isinstance(func, str) else f"f{func:x}"
        out_name = name or f"{base}.llvmfix"
        return self._transform(func, signature, fixes, out_name, "fixed")
