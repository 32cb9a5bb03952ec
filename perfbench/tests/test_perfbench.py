"""Self-checks of the benchmark (run with ``python3 -m pytest perfbench/tests``).

* Exact repeat: counts that do not depend on timing — simulated
  cycles/cell, emitted code bytes, lifted and optimized IR sizes and
  simulated instructions — must be identical across two processes run
  with the same seed.  A difference is nondeterminism in the program, to
  be reported, never absorbed into a bound.
* Missing program: in a directory holding only ``BENCHMARK.json`` and the
  benchmark itself, the command must fail without printing a result.
* Known defect: farm-compiled T2 kernels of the flat and sorted stencils
  compute wrong matrices, so ``farm-fanout`` serves the direct cells only.
  The strict xfail below turns into a failure once the farm is fixed, as a
  reminder to add those cells back to ``workloads.FARM_CODES``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
OUT = ROOT / ".perfbench_out"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_END_TO_END = ("cycles_per_cell", "code_bytes")
EXACT_PER_LAYER = ("lift.ir_instrs", "ir.passes.ir_instrs_out",
                   "cpu.sim_instrs")


def _exact_counts(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    report = json.loads(
        (OUT / f"{workload}-seed{seed}-trace1.json").read_text())
    counts = {k: report["end_to_end"][k] for k in EXACT_END_TO_END}
    counts.update({k: report["per_layer"][k] for k in EXACT_PER_LAYER})
    return counts


@pytest.mark.parametrize("workload",
                         [w["name"] for w in CONTRACT["workloads"]])
def test_exact_counts_repeat(workload):
    first = _exact_counts(workload, 7)
    second = _exact_counts(workload, 7)
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    assert not differ, f"nondeterministic counts on {workload}: {differ}"
    # farm-fanout lifts in the farm's worker processes, out of the hooks' reach
    counted = {k: v for k, v in first.items()
               if not (workload == "farm-fanout" and k == "lift.ir_instrs")}
    assert all(v > 0 for v in counted.values()), first


def test_fails_without_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             CONTRACT["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.xfail(strict=True, reason=(
    "farm T2 (dbrew+llvm) modules of the flat and sorted kernels load DBrew "
    "constants from worker-image addresses; see perfbench/README.md"))
@pytest.mark.parametrize("code", ["flat", "sorted"])
def test_farm_t2_matrices_exact(code, tmp_path, monkeypatch):
    import workloads
    monkeypatch.setattr(workloads, "FARM_CODES", (code,))
    run = workloads.Run(1, tmp_path)
    run.latencies.append([])
    workloads.farm_fanout(run)
    assert run.wrong == 0, run.failures
