"""Runtime-rewriting benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` measures one untraced window
and then one traced window with the same seed, and reports the per-layer
metrics: span self time and counts per layer, layer figures, and the
traced-minus-untraced difference of every end-to-end metric.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; a human-readable table precedes it.  The full report is
written to ``.perfbench_out/``; a traced run also writes every span as a
Chrome trace (``*.chrome.json``), which ``python -m repro.obs.report``
reads.

Exit status: 0 when every output matched its reference, 1 when a kernel
produced a wrong matrix, 2 when the program sources are missing, 3 when
the benchmark itself broke.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def end_to_end(run) -> dict[str, float]:
    from workloads import geomean, percentile

    lat = [1000.0 * s for v in run.by_label.values() for s in v]
    return {
        "setup_s": statistics.median(run.setup_seconds),
        "request_ms_p50": statistics.median(lat),
        "request_ms_p90": percentile(lat, 90),
        "requests_per_s": 1000.0 * len(lat) / sum(lat),
        "solve_s": statistics.fmean(run.solve_seconds),
        "cycles_per_cell": geomean(run.cycles.values()),
        "code_bytes": float(run.code_bytes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def samples(run) -> dict[str, int]:
    return {
        "setup_s": len(run.setup_seconds),
        "request_ms_p50": run.requests(),
        "request_ms_p90": run.requests(),
        "requests_per_s": run.requests(),
        "solve_s": len(run.solve_seconds),
        "cycles_per_cell": len(run.cycles),
        "code_bytes": len(run.cycles),
        "peak_rss_mb": 1,
    }


#: O3 passes, one ``o3.pass.<name>`` span per run (repro.ir.passes.pipeline)
O3_PASSES = ("simplifycfg", "mem2reg", "inline", "constprop", "instcombine",
             "gvn", "dce", "unroll", "vectorize")
#: DBrew's own split of a rewrite (repro.dbrew.rewriter)
DBREW_PHASES = ("decode", "emulate", "encode")


def per_layer(run, traced, hooks, spans, chrome) -> dict[str, float]:
    """Layer metrics: the placed ``spans`` (see :func:`spans.analyse`), the
    same trace as Chrome events, and the hooks' counts from the traced
    window; workload bookkeeping (tier/farm/cache counters, cell
    latencies) from the untraced one.  Times are wall milliseconds per
    unit; counts are unit 0's, so they repeat exactly."""
    from repro.obs.report import STAGES, build_breakdown
    from spans import LAYERS
    from workloads import (CODES, KERNELS, MODES, WARMUP_UNITS, geomean,
                           percentile)

    units = traced.unit - WARMUP_UNITS
    unit0 = hooks.counts[0]
    # times come from the measured units, counts from the warm-up unit 0
    timed = [s for s in spans if s.unit >= WARMUP_UNITS]

    def of(name):
        return [s for s in timed if s.name == name]

    def ms(group, attr="seconds") -> float:
        return 1000.0 * sum(getattr(s, attr) for s in group) / units

    def top(layer) -> list:
        """The layer's outermost spans: its inclusive time, once."""
        return [s for s in timed
                if s.layer == layer and s.parent_layer != layer]

    def share(part, whole) -> float:
        total = sum(s.seconds for s in whole)
        return sum(s.seconds for s in part) / total if total else 0.0

    def median(key, scale=1.0) -> float:
        vals = run.extra.get(key, [])
        return statistics.median(vals) * scale if vals else 0.0

    def first(key) -> float:
        vals = run.extra.get(key, [])
        return float(vals[0]) if vals else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = ms([s for s in timed if s.layer == layer],
                                   "self_seconds")
        m[f"{layer}.calls"] = float(sum(
            s.unit == 0 and s.layer == layer for s in spans))
    # the paper's stage split, by the program's own report
    breakdown = build_breakdown({"traceEvents": [
        e for e in chrome["traceEvents"]
        if e.get("args", {}).get("unit", 0) >= WARMUP_UNITS]})
    for stage in STAGES:
        m[f"stage.{stage}_ms"] = breakdown["stages_us"][stage] / 1e3 / units

    m["dbrew.rewrite_ms"] = ms(top("dbrew"))
    for phase in DBREW_PHASES:
        m[f"dbrew.{phase}_ms"] = ms(of(f"rewrite.{phase}"), "self_seconds")
    m["lift.lift_ms"] = ms(top("lift"))
    m["lift.ir_instrs"] = unit0["lift.ir_instrs"]
    o3 = top("ir.passes")
    o3_s = sum(s.seconds for s in o3)
    ir_in = sum(c["ir.passes.ir_in"] for c in hooks.counts.values())
    m["ir.passes.o3_ms"] = ms(o3)
    m["ir.passes.o3_us_per_instr"] = 1e6 * o3_s / ir_in if ir_in else 0.0
    for key in ("ir_instrs_out", "iterations", "skipped"):
        m[f"ir.passes.{key}"] = unit0[f"ir.passes.{key}"]
    m["ir.passes.pass_runs"] = float(sum(
        s.unit == 0 and s.name.startswith("o3.pass.") for s in spans))
    for name in O3_PASSES:
        m[f"ir.passes.pass_ms.{name}"] = ms(of(f"o3.pass.{name}"),
                                            "self_seconds")
    m["ir.codegen.codegen_ms"] = ms(top("ir.codegen"))
    m["ir.codegen.code_bytes"] = unit0["ir.codegen.code_bytes"]

    for code in CODES:
        for kname, _line in KERNELS:
            for mode in MODES:
                lat = run.by_label.get(f"{code}.{kname}.{mode}", [])
                # metric names allow no "+": dbrew+llvm -> dbrew_llvm
                key = f"jit.transform_ms.{code}.{kname}.{mode}".replace(
                    "+", "_")
                m[key] = 1000.0 * statistics.median(lat) if lat else 0.0
    llvm = m["jit.transform_ms.flat.line.llvm"]
    m["jit.fig10.flat_dbrew_llvm_over_llvm"] = (
        m["jit.transform_ms.flat.line.dbrew_llvm"] / llvm if llvm else 0.0)

    m["analysis.machine.verify_ms"] = ms(top("analysis.machine"))
    for verdict in ("proved", "inconclusive", "refuted"):
        m[f"analysis.machine.{verdict}"] = unit0[
            f"analysis.machine.{verdict}"]

    guards, gates = of("guard.transform"), of("guard.gate")
    m["guard.install_ms"] = ms(guards)
    m["guard.gate_ms"] = ms(gates)
    m["guard.gate_share"] = share(gates, guards)
    m["guard.fallbacks"] = unit0["guard.fallbacks"]

    insts = of("instrument.apply")
    m["instrument.install_ms"] = ms(insts)
    m["instrument.gate_share"] = share(of("instrument.gate"), insts)
    ratios = [run.cycles[f"{code}.line.instrument"]
              / run.cycles[f"{code}.line.llvm"] for code in CODES
              if f"{code}.line.instrument" in run.cycles]
    m["instrument.overhead_ratio"] = geomean(ratios)

    sims = top("cpu")
    # calls that raised (a gate probe the original faults on) carry no count
    done = [s for s in sims if "instrs" in s.attrs]
    done_s = sum(s.seconds for s in done)
    m["cpu.sim_instrs"] = float(run.sim_instrs)
    m["cpu.sim_ms"] = ms(sims)
    m["cpu.sim_minstr_per_s"] = (
        sum(s.attrs["instrs"] for s in done) / done_s / 1e6 if done_s else 0.0)

    dispatch = [s.seconds * 1e9 for s in of("tier.dispatch")]
    m["tier.dispatch_ns_p50"] = percentile(dispatch, 50)
    m["tier.dispatch_ns_p99"] = percentile(dispatch, 99)
    m["tier.compile_ms"] = median("tier.compile_s", 1000.0)
    m["tier.promotions"] = first("tier.promotions")
    m["tier.demotions"] = first("tier.demotions")
    handles = sum(run.extra.get("tier.handles", []))
    m["tier.t2_reached_ratio"] = (
        sum(run.extra.get("tier.t2", [])) / handles if handles else 0.0)
    m["tier.time_to_t2_s_p50"] = median("time_to_t2_s")
    m["tier.warm_time_to_t2_ms_p50"] = median("warm_time_to_t2_s", 1000.0)

    m["cache.hit_rate"] = median("cache.hit_rate")
    m["cache.machine_hits"] = first("cache.machine_hits")
    m["cache.invalidations"] = first("cache.invalidations")
    for key in ("farm.jobs", "farm.cache_hits", "farm.fallbacks",
                "farm.retries"):
        m[key] = first(key)
    m["bench.host_slowdown"] = statistics.median(run.host_slowdown)
    return m


def table(title: str, metrics: dict[str, float], units: dict[str, str],
          counts: dict[str, int] | None = None) -> str:
    lines = [title]
    for name, value in metrics.items():
        n = f"  n={counts[name]}" if counts and name in counts else ""
        lines.append(f"  {name:44s} {value:14.6g} {units[name]}{n}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: program sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    try:
        contract = load_contract()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
        work = OUT_DIR / "work"
        work.mkdir(parents=True, exist_ok=True)
        # a traced run splits its time: untraced window, then traced window
        window = args.seconds / 2 if args.trace else args.seconds
        run = workloads.measure(args.workload, args.seed, window, work)
        runs = [run]
        e2e = end_to_end(run)
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "end_to_end": e2e,
                  "samples": samples(run),
                  "host_slowdown": statistics.median(run.host_slowdown),
                  "unit_request_s": [sum(u) for u in run.latencies],
                  "labels": len(run.by_label)}
        chrome = None
        if args.trace:
            from repro.obs.export import trace_to_chrome
            from repro.obs.trace import TRACER
            from spans import Hooks, analyse
            hooks = Hooks()
            hooks.install()
            TRACER.clear()
            TRACER.enable()
            try:
                traced = workloads.measure(args.workload, args.seed, window,
                                           work, hooks=hooks)
            finally:
                TRACER.disable()
                hooks.uninstall()
            runs.append(traced)
            spans = analyse(TRACER.spans, hooks.unit_starts)
            chrome = trace_to_chrome(TRACER)
            layers = per_layer(run, traced, hooks, spans, chrome)
            traced_e2e = report["traced_end_to_end"] = end_to_end(traced)
            for name, value in traced_e2e.items():
                layers[f"trace.overhead.{name}"] = value - e2e[name]
            report["per_layer"] = layers
            declared = contract["per_layer"]
            metrics = layers
        else:
            declared = contract["end_to_end"]
            metrics = e2e
    except Exception:
        traceback.print_exc()
        return 3

    units = {d["name"]: d["unit"] for d in declared}
    if set(units) != set(metrics):
        print("perfbench: computed metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 3
    wrong = sum(r.wrong for r in runs)
    result = {
        "correct": wrong == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(len(r.failed_ids) for r in runs),
        "metrics": {d["name"]: {"value": metrics[d["name"]],
                                "unit": d["unit"]} for d in declared},
    }
    report["result"] = result
    report["failures"] = [f for r in runs for f in r.failures]
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(report, fh)
    if chrome is not None:
        with open(f"{stem}.chrome.json", "w") as fh:
            json.dump(chrome, fh)

    print(table(f"{args.workload} seed={args.seed} "
                f"{'traced' if args.trace else 'untraced'} "
                f"units={run.unit} failed={result['failed']}/"
                f"{result['attempted']}",
                {k: v["value"] for k, v in result["metrics"].items()},
                units, None if args.trace else samples(run)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
