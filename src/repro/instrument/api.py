"""The instrumenter: lift -> O3 -> inject -> JIT -> prove -> gate -> install.

Instrumentation is a *workload*, not a debug mode: an instrumented
function flows through the same pipeline and the same trust boundaries
as any specialization —

1. lift the machine code to IR and optimize it (probes are injected
   *after* O3 so they count the code that actually runs, and no pass can
   move, merge or delete them);
2. plan + allocate a :class:`~repro.instrument.buffer.ProbeBuffer` in the
   image's probe region and inject the tagged probe instructions;
3. statically prove the probes effect-only
   (:func:`repro.analysis.probes.check_probe_ops`);
4. JIT the instrumented module; with ``machine_verify`` the emitted bytes
   are proven equivalent to the instrumented IR (probe stores included);
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
from repro.ir.codegen import JITEngine, JITOptions
from repro.ir.module import Function, Module
from repro.ir.passes import O3Options, run_o3
from repro.jit.engine import verify_emitted
from repro.lift import FunctionSignature, LiftOptions, lift_function
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
    """Builds gate-verified instrumented copies of image functions."""

    def __init__(self, image: Image, *,
                 lift_options: LiftOptions | None = None,
                 o3_options: O3Options | None = None,
                 jit_options: JITOptions | None = None,
                 gate_options: GateOptions | None = None,
                 machine_verify: bool = True) -> None:
        self.image = image
        self.lift_options = lift_options or LiftOptions()
        self.o3_options = o3_options or O3Options.lightweight()
        self.jit_options = jit_options or JITOptions()
        self.gate_options = gate_options or GateOptions()
        self.machine_verify = machine_verify

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
        if not _TR.enabled:
            return self._instrument(entry, signature, options, probes,
                                    out_name)
        with _TR.span("instrument.apply", {"name": out_name,
                                           "options": options.digest()}):
            return self._instrument(entry, signature, options, probes,
                                    out_name)

    def _instrument(self, entry: int, signature: FunctionSignature,
                    options: InstrumentOptions, probes: tuple,
                    out_name: str) -> InstrumentedFunction:
        seconds: dict = {}
        t0 = time.perf_counter()
        module = Module(f"instr_{out_name}")
        opts = replace(self.lift_options, name=out_name)
        main = lift_function(self.image.memory, entry, signature, opts,
                             module)
        seconds["lift"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        run_o3(main, self.o3_options)
        seconds["opt"] = time.perf_counter() - t0

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
                f"{out_name!r}: " + "; ".join(f.format() for f in findings),
                stage="instrument-pregate", findings=tuple(findings))

        t0 = time.perf_counter()
        jit = JITEngine(self.image, self.jit_options)
        addr = jit.compile_function(main, name=out_name)
        seconds["codegen"] = time.perf_counter() - t0

        verdict = None
        if self.machine_verify:
            t0 = time.perf_counter()
            report = verify_emitted(jit, out_name)
            seconds["machine_verify"] = time.perf_counter() - t0
            verdict = report.verdict
            if verdict == "refuted":
                _metrics.counter("instrument.machine.refuted").inc()
                detail = "; ".join(
                    f.format() for f in report.findings if f.is_error) \
                    or "machine-level proof refuted"
                raise VerificationError(
                    f"machine verification refuted instrumented "
                    f"{out_name!r}: {detail}",
                    stage="machine-verify", name=out_name,
                    findings=tuple(report.findings))

        t0 = time.perf_counter()
        gate_opts = replace(
            self.gate_options,
            ignore_regions=self.gate_options.ignore_regions
            + (buffer.extent(),))
        gate = DifferentialGate(self.image, gate_opts)
        if _TR.enabled:
            with _TR.span("instrument.gate", {"name": out_name}):
                gate_report = gate.gate(entry, addr, signature, None, probes)
        else:
            gate_report = gate.gate(entry, addr, signature, None, probes)
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
            name=out_name, addr=addr, source=entry, signature=signature,
            options=options, function=main, module=module, plan=plan,
            buffer=buffer, gate_report=gate_report,
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
