"""The instrumenter: optimize -> inject -> JIT -> prove -> gate -> install.

Instrumentation is a *workload*, not a debug mode: an instrumented
function flows through the same pipeline and the same trust boundaries
as any specialization —

1. lift and optimize (:meth:`repro.jit.BinaryTransformer.optimize`), or
   take a post-O3 function from a cache or farm
   (:meth:`Instrumenter.install`); probes go in *after* O3 so they count
   the code that actually runs, and no pass can move, merge or delete them;
2. plan + allocate a :class:`~repro.instrument.buffer.ProbeBuffer` in the
   image's probe region and inject the tagged probe instructions;
3. statically prove the probes effect-only
   (:func:`repro.analysis.probes.check_probe_ops`);
4. JIT through :meth:`repro.jit.BinaryTransformer.codegen`; with
   ``machine_verify`` the emitted bytes are proven equivalent to the
   instrumented IR (probe stores included);
5. differentially gate instrumented vs original execution under the
   effects-whitelist: identical return values, identical program memory,
   only the probe buffer may differ.

Only then is the install handed back.  A rejected step raises exactly
like a rejected specialization would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.analysis.probes import check_probe_ops
from repro.cpu.image import Image
from repro.errors import VerificationError
from repro.guard.verify import DifferentialGate, GateOptions, GateReport
from repro.instrument.buffer import ProbeBuffer
from repro.instrument.passes import (
    InstrumentOptions, ProbePlan, inject_probes, plan_probes,
)
from repro.ir import verify
from repro.ir.codegen import JITOptions
from repro.ir.module import Function, Module
# lift_function/run_o3 stay importable here: perfbench/spans.py patches them
from repro.ir.passes import O3Options, run_o3  # noqa: F401
from repro.jit.engine import BinaryTransformer
from repro.lift import FunctionSignature, LiftOptions, lift_function  # noqa
from repro.lift.fixation import FixedMemory
from repro.obs import metrics as _metrics
from repro.obs.trace import TRACER as _TR


@dataclass
class InstrumentedFunction:
    """One installed instrumented function plus its probe state."""

    name: str
    addr: int
    #: original entry the instrumented copy was lifted from
    source: int
    signature: FunctionSignature
    options: InstrumentOptions
    function: Function
    module: Module
    plan: ProbePlan
    buffer: ProbeBuffer
    gate_report: GateReport
    machine_verdict: str | None = None
    #: per-stage wall time: lift/opt/inject/pregate/codegen/verify/gate
    seconds: dict = field(default_factory=dict)

    def profile(self):
        """An :class:`~repro.tier.EdgeProfile` reading this buffer."""
        from repro.tier.policy import EdgeProfile
        return EdgeProfile(self.buffer)


class Instrumenter:
    """Builds gate-verified instrumented copies of image functions.

    ``lift_options.budget`` (when set) governs the whole build: lift and
    O3 charge it, and codegen waits at its checkpoint.
    """

    def __init__(self, image: Image, *,
                 lift_options: LiftOptions | None = None,
                 o3_options: O3Options | None = None,
                 jit_options: JITOptions | None = None,
                 gate_options: GateOptions | None = None,
                 machine_verify: bool = True) -> None:
        self.image = image
        lift_options = lift_options or LiftOptions()
        #: lift + O3 before injection, codegen + machine proof after it
        self.tx = BinaryTransformer(
            image, lift_options=lift_options, jit_options=jit_options,
            o3_options=o3_options or O3Options.lightweight(),
            budget=lift_options.budget, machine_verify=machine_verify)
        self.gate_options = gate_options or GateOptions()

    def instrument(self, func: str | int, signature: FunctionSignature,
                   *, options: InstrumentOptions | None = None,
                   probes: tuple = (), name: str | None = None,
                   ) -> InstrumentedFunction:
        """Install an instrumented copy of ``func``; returns its handle.

        ``probes`` are differential-gate argument vectors (one value per
        signature parameter), exactly as for specialization gates.
        """
        options = options or InstrumentOptions()
        entry = self.image.symbol(func) if isinstance(func, str) else func
        out_name = name or (f"{func}.instr" if isinstance(func, str)
                            else f"fn_{entry:#x}.instr")
        with _TR.span("instrument.apply", {"name": out_name,
                                           "options": options.digest()}):
            res = self.tx.optimize(entry, signature, name=out_name)
            out = self.install(res.function, entry, signature,
                               options=options, probes=probes, name=out_name)
        out.seconds.update(lift=res.lift_seconds, opt=res.optimize_seconds)
        return out

    def install(self, main: Function, entry: int,
                signature: FunctionSignature, *,
                fixes: dict[int, int | float | FixedMemory] | None = None,
                options: InstrumentOptions, probes: tuple = (),
                name: str) -> InstrumentedFunction:
        """Instrument and install ``main``, the already-optimized function
        at ``entry`` under ``fixes`` (rewritten in place)."""
        seconds: dict = {}
        t0 = time.perf_counter()
        plan = plan_probes(main, options)
        buffer = ProbeBuffer.allocate(self.image, plan)
        inject_probes(main, plan, buffer)
        verify(main)
        seconds["inject"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        findings = check_probe_ops(main, buffer.extent())
        seconds["pregate"] = time.perf_counter() - t0
        if findings:
            _metrics.counter("instrument.pregate.rejected").inc()
            raise VerificationError(
                "probe-ops pregate rejected instrumented "
                f"{name!r}: " + "; ".join(f.format() for f in findings),
                stage="instrument-pregate", findings=tuple(findings))

        try:
            addr, seconds["codegen"], verdict, t_mv = self.tx.codegen(
                main, name)
        except VerificationError:  # only the machine proof raises here
            _metrics.counter("instrument.machine.refuted").inc()
            raise
        if verdict is not None:
            seconds["machine_verify"] = t_mv

        t0 = time.perf_counter()
        gate = DifferentialGate(self.image, replace(
            self.gate_options, ignore_regions=(
                *self.gate_options.ignore_regions, buffer.extent())))
        with _TR.span("instrument.gate", {"name": name}):
            gate_report = gate.gate(entry, addr, signature, fixes, probes)
        seconds["gate"] = time.perf_counter() - t0

        _metrics.counter("instrument.installs").inc()
        fam = _metrics.REGISTRY.family("instrument.probes")
        if options.call_counter:
            fam.inc("call", 1)
        if options.edge_counters:
            fam.inc("edge", len(plan.block_names))
        fam.inc("mem", len(plan.mem_sites))
        fam.inc("watch", len(plan.watch_sites))
        return InstrumentedFunction(
            name=name, addr=addr, source=entry, signature=signature,
            options=options, function=main, module=main.module,
            plan=plan, buffer=buffer, gate_report=gate_report,
            machine_verdict=verdict, seconds=seconds)


def audit_probe_state(result: InstrumentedFunction, *,
                      expected_calls: int | None = None) -> list[str]:
    """Internal-consistency violations of a buffer's recorded state.

    The differential corpus runs this after driving the instrumented
    engine: edge counts must tie out against call counts (entry block
    executes once per call; return blocks sum to the call count), watch
    hits must tie out against returns, and every memory-trace address
    must fall inside a mapped region of the image.
    """
    buf, plan = result.buffer, result.plan
    violations: list[str] = []
    calls = buf.call_count()
    if expected_calls is not None and plan.options.call_counter \
            and calls != expected_calls:
        violations.append(
            f"call counter {calls} != expected {expected_calls}")
    if plan.options.edge_counters and plan.block_names:
        counts = buf.block_counts()
        if plan.options.call_counter:
            entry = plan.block_names[0]
            if counts[entry] != calls:
                violations.append(
                    f"entry block {entry!r} count {counts[entry]} != "
                    f"call count {calls}")
            rets = sum(counts[b] for b in plan.ret_blocks)
            if plan.ret_blocks and rets != calls:
                violations.append(
                    f"return-block counts sum {rets} != call count {calls}")
    if plan.options.watch_returns and plan.options.call_counter \
            and plan.watch_sites \
            and len(plan.watch_sites) == len(plan.ret_blocks):
        hits = sum(buf.watch_hits())
        if hits != calls:
            violations.append(
                f"watch hits {hits} != call count {calls}")
    if plan.options.trace_memory:
        regions = result.buffer.image.memory.regions()
        for ev in buf.events():
            if not any(s <= ev.payload < s + n for s, n in regions):
                violations.append(
                    f"memory-trace event #{ev.seq} ({ev.kind} site "
                    f"{ev.site}) address {ev.payload:#x} outside every "
                    "mapped region")
                break
    return violations
