"""Hot-path benchmark: interpreter, decode, O3 scheduling, cold rewrite.

Four quantities (caches are cleared before every "cold" measurement):

1. **Interpreter throughput** — ops/s of the threaded-dispatch IR
   interpreter on a hot counted loop, whose result is checked against a
   plain-Python evaluation of the same loop; bar: at least
   ``MIN_INTERP_OPS_PER_S``.
2. **Decode cost** — ns/instruction for a cold CFG discovery vs a
   decoded-trace cache hit on the same image.
3. **O3 pass scheduling** — share of pipeline pass invocations skipped
   by the shape/version scheduler across representative kernels.
4. **Cold end-to-end rewrite** — best wall time of a cold ``llvm_fixed``
   transform (fresh image, empty caches); bar: at most
   ``MAX_COLD_REWRITE_MS``.

Standalone (CI): ``python bench_hotpath.py --quick --json
BENCH_hotpath.json`` — exits nonzero if any bar is missed.
"""

import argparse
import gc
import json
import time

from repro.cc import compile_c
from repro.ir import (I64, Function, FunctionType, IRBuilder, Interpreter,
                      Module, verify)
from repro.ir import interp as interp_mod
from repro.ir.passes import O3Options, run_o3
from repro.jit import BinaryTransformer
from repro.lift import FunctionSignature, LiftOptions, lift_function
from repro.lift import blocks as blocks_mod

#: 3x the median ops/s (0.30 Mops/s) of a per-instruction dispatch
#: interpreter on this loop, seven ``--quick`` runs on 2 vCPUs
MIN_INTERP_OPS_PER_S = 0.90e6
#: half the median best cold rewrite (56.8 ms) without decode caching,
#: pass scheduling or batched phi substitution, same runs
MAX_COLD_REWRITE_MS = 28.4
MIN_DECODE_WARM_SPEEDUP = 5.0
M64 = (1 << 64) - 1

#: the cold-rewrite workload: phi-heavy after unrolling, so it exercises
#: batched phi substitution and pass scheduling the way the stencil
#: kernels do
REWRITE_SRC = """
long stencil(long n, long c, long *v) {
  long acc = 0;
  for (long i = 0; i < n; i++) {
    long x = v[0] * c + i;
    if (x > 100) acc += x - c; else acc ^= x;
    acc += (x << 1) + (acc >> 2);
  }
  return acc;
}
"""

SKIP_SRCS = (
    ("long poly(long x) { return ((x*3 + 5)*x + 7)*x + 11; }", "poly", 1),
    ("long dot(long a, long b) { return a*b + a + b; }", "dot", 2),
    (REWRITE_SRC, "stencil", 3),
)


def _clear_hot_caches():
    interp_mod.clear_traces()
    blocks_mod.clear_decode_caches()
    gc.collect()


def _build_loop_fn(m: Module) -> Function:
    """sum_{i<n} (i*3+1) ^ (sum>>1) — a counted loop with live phis."""
    f = Function("hot", FunctionType(I64, (I64,)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    body = f.add_block("body")
    done = f.add_block("done")
    b.br(body)
    b.position_at_end(body)
    i = b.phi(I64, "i")
    s = b.phi(I64, "s")
    term = b.mul(i, b.const(I64, 3))
    term = b.add(term, b.const(I64, 1))
    mixed = b.xor(term, b.ashr(s, b.const(I64, 1)))
    s2 = b.add(s, mixed)
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


def _reference_loop(n: int) -> int:
    """``_build_loop_fn`` evaluated in plain Python (i64 wraparound)."""
    i = s = 0
    while True:
        sgn = s - (1 << 64) if s >> 63 else s
        s = (s + (((i * 3 + 1) & M64) ^ ((sgn >> 1) & M64))) & M64
        i += 1
        if i >= n:
            return s


def bench_interp(iters: int) -> dict:
    m = Module("hotpath")
    f = _build_loop_fn(m)
    _clear_hot_caches()
    it = Interpreter(m)
    it.max_steps = 1_000_000_000
    it.run(f, [1000])  # warm-up (and trace compile)
    it.steps = 0
    t0 = time.perf_counter()
    result = it.run(f, [iters])
    dt = time.perf_counter() - t0
    assert result == _reference_loop(iters), \
        "interpreter result differs from the plain-Python loop"
    out = {"steps": it.steps, "seconds": round(dt, 4),
           "ops_per_s": round(it.steps / dt, 1), "result": result}
    ts = interp_mod.trace_cache_stats()
    out["trace_cache"] = {k: ts[k] for k in
                          ("hits", "compiles", "invalidations")}
    return out


def bench_decode(rounds: int) -> dict:
    prog = compile_c(REWRITE_SRC)
    mem = prog.image.memory
    entry = prog.image.symbol("stencil")
    _clear_hot_caches()
    cfg = blocks_mod.discover(mem, entry)
    n_insns = cfg.instruction_count()

    cold_s = 0.0
    for _ in range(rounds):
        _clear_hot_caches()
        t0 = time.perf_counter()
        blocks_mod.discover(mem, entry)
        cold_s += time.perf_counter() - t0
    warm_s = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        blocks_mod.discover(mem, entry)
        warm_s += time.perf_counter() - t0

    stats = blocks_mod.decode_trace_stats()
    cold_ns = cold_s / rounds / n_insns * 1e9
    warm_ns = warm_s / rounds / n_insns * 1e9
    return {
        "instructions": n_insns,
        "cold_ns_per_insn": round(cold_ns, 1),
        "warm_ns_per_insn": round(warm_ns, 1),
        "warm_speedup": round(cold_ns / warm_ns, 1) if warm_ns else 0.0,
        "trace_hits": stats["hits"],
        "trace_misses": stats["misses"],
    }


def bench_o3_skips() -> dict:
    from repro.ir.passes import schedule as sched_mod

    ran0 = sum(sched_mod.stats()["runs"].values())
    skipped = 0
    per_pass: dict[str, int] = {}
    for src, name, nargs in SKIP_SRCS:
        prog = compile_c(src)
        sig = FunctionSignature(("i",) * nargs, "i")
        m = Module("skips")
        f = lift_function(prog.image.memory, prog.image.symbol(name), sig,
                          LiftOptions(name=name), m)
        report = run_o3(f, O3Options(pass_schedule="static"))
        skipped += len(report.skipped_passes)
        for p in report.skipped_passes:
            per_pass[p] = per_pass.get(p, 0) + 1
    ran = sum(sched_mod.stats()["runs"].values()) - ran0
    considered = ran + skipped
    return {
        "considered": considered,
        "skipped": skipped,
        "skip_rate": round(skipped / considered, 3) if considered else 0.0,
        "skipped_by_pass": dict(sorted(per_pass.items())),
    }


def bench_cold_rewrite(rounds: int) -> dict:
    def one() -> float:
        _clear_hot_caches()
        prog = compile_c(REWRITE_SRC)  # fresh image: nothing warm survives
        bt = BinaryTransformer(prog.image)
        t0 = time.perf_counter()
        bt.llvm_fixed("stencil", FunctionSignature(("i", "i", "i"), "i"),
                      {1: 7}, name="stencil.fix")
        return time.perf_counter() - t0

    times = [one() for _ in range(rounds)]
    return {
        "ms": [round(t * 1e3, 1) for t in times],
        "best_ms": round(min(times) * 1e3, 1),
    }


def run_all(quick: bool) -> dict:
    iters = 100_000 if quick else 400_000
    rounds = 3 if quick else 5
    results = {
        "interp": bench_interp(iters),
        "decode": bench_decode(rounds * 10),
        "o3_schedule": bench_o3_skips(),
        "cold_rewrite": bench_cold_rewrite(rounds),
    }
    results["pass"] = {
        "interp_ops_floor":
            results["interp"]["ops_per_s"] >= MIN_INTERP_OPS_PER_S,
        "cold_rewrite_ceiling":
            results["cold_rewrite"]["best_ms"] <= MAX_COLD_REWRITE_MS,
        "decode_trace_warm_speedup":
            results["decode"]["warm_speedup"] >= MIN_DECODE_WARM_SPEEDUP,
        "o3_passes_skipped": results["o3_schedule"]["skipped"] > 0,
    }
    return results


def _report_lines(r: dict) -> list[str]:
    i, d, o, c = r["interp"], r["decode"], r["o3_schedule"], r["cold_rewrite"]
    return [
        f"interp       {i['ops_per_s'] / 1e6:.2f} Mops/s "
        f"(bar >= {MIN_INTERP_OPS_PER_S / 1e6:.2f})",
        f"decode       {d['cold_ns_per_insn']:.0f} -> "
        f"{d['warm_ns_per_insn']:.0f} ns/insn "
        f"({d['warm_speedup']:.0f}x warm, {d['instructions']} insns)",
        f"o3 schedule  {o['skipped']}/{o['considered']} pass runs skipped "
        f"({o['skip_rate']:.0%})",
        f"cold rewrite {c['best_ms']:.1f} ms "
        f"(bar <= {MAX_COLD_REWRITE_MS:.1f})",
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--json", metavar="PATH")
    args = ap.parse_args()

    results = run_all(args.quick)
    for line in _report_lines(results):
        print(line)
    gates = results["pass"]
    failed = [k for k, ok in gates.items() if not ok]
    if failed:
        print(f"FAIL: {', '.join(failed)}")
    else:
        print(f"OK: {', '.join(sorted(gates))}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.json}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
