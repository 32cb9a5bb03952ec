"""Print every end-to-end metric, one row per workload, with sample counts.

    python3 perfbench/summary.py [--seed 1] [--seconds 15] [--workloads a,b]

Runs ``perfbench/run.py --trace 0`` once per workload (default: the
workloads of ``BENCHMARK.json``), then prints ``value[n]`` per metric,
where ``n`` is the number of samples behind the value.  Exits non-zero if
any run failed or produced a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=contract["run_seconds"])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in contract["workloads"]))
    args = ap.parse_args(argv)

    metrics = contract["end_to_end"]
    print(f"seed={args.seed} seconds={args.seconds}; value[samples]")
    print(f"{'workload':18s} {'failed/attempted':>17s} " + " ".join(
        f"{m['name'] + ' (' + m['unit'] + ')':>24s}" for m in metrics))
    status = 0
    for workload in args.workloads.split(","):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload:18s} run failed (exit {proc.returncode})")
            sys.stderr.write(proc.stderr[-4000:])
            status = 1
            continue
        result = json.loads(lines[-1])
        report = json.loads((ROOT / ".perfbench_out" /
                             f"{workload}-seed{args.seed}-trace0.json")
                            .read_text())
        cells = [f"{result['metrics'][m['name']]['value']:.6g}"
                 f"[{report['samples'][m['name']]}]" for m in metrics]
        verdict = "" if result["correct"] else "  WRONG OUTPUT"
        print(f"{workload:18s} {result['failed']:>8d}/{result['attempted']:<8d} "
              + " ".join(f"{c:>24s}" for c in cells) + verdict)
        if not result["correct"] or proc.returncode != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
