"""The four closed-loop workloads of the runtime-rewriting benchmark.

Every workload is one client issuing its next request only after the
previous one returned.  Work is grouped in *units* (a pass over the cells,
or a tiered/farm cycle); each unit starts from a fresh
:class:`Fixture`, so units are independent and equally cold.  The seed
drives the request order and the matrix contents only; the programs are
always the paper's Jacobi kernels.

Every kernel a unit installs is run for ``CHECK_SWEEPS`` Jacobi sweeps on
the seeded matrices and compared bit for bit with
:meth:`StencilWorkspace.reference_sweeps` over the same contents.
"""

from __future__ import annotations

import gc
import math
import random
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.bench.modes import (
    CODES, GUARD_LADDERS, prepare_kernel, register_tiered,
)
from repro.cache import SpecializationCache
from repro.farm import FarmClient, FarmPool
from repro.guard import GuardedTransformer
from repro.instrument import InstrumentOptions, Instrumenter
from repro.lift import FunctionSignature
from repro.obs.trace import TRACER
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace, matrices_equal
from repro.tier import T2, TieredEngine, TierPolicy

#: simulated matrix side length (a 7x7 interior per sweep)
SZ = 9
#: Jacobi sweeps per output check; an even count leaves the result in m1
CHECK_SWEEPS = 2
#: fixtures built before measuring; ``setup_s`` is the median build time
#: of these and of the fresh fixture every unit starts from
SETUP_REPEATS = 5
#: a window keeps issuing whole units until it has at least this many
#: measured requests, so p90 always has at least ten samples beyond it
MIN_REQUESTS = 100
#: the first unit of a window warms the interpreter's and the program's
#: caches; it is checked and feeds the exact counts, but is not timed
WARMUP_UNITS = 1
#: hard stop for one window, far inside the 180 s run limit
MAX_WINDOW_SECONDS = 70.0
#: thread CPU seconds of one :func:`calibrate` loop on the reference host
#: (2-vCPU Xeon VM at 2.1 GHz, CPython 3.11) when it runs at full speed;
#: a calibration younger than ``CAL_REUSE_SECONDS`` is reused
CAL_REF_SECONDS = 0.0008
CAL_REUSE_SECONDS = 0.25
#: the program slows down as the calibration loop's slowdown to this
#: power: the exponent that gave the steadiest request latencies over
#: seventeen 20 s windows of verified-install and fifteen of compile-cold
#: on the reference host (see README, "Host-normalized time")
HOST_EXPONENT = 0.7

MODES = ("llvm", "llvm-fix", "dbrew", "dbrew+llvm")
KERNELS = (("line", True), ("element", False))
LINE_SIGNATURE = FunctionSignature(("i",) * 6, None)
INSTRUMENT_OPTIONS = InstrumentOptions(trace_memory=True, watch_returns=True)

#: tiered-jacobi: requests (of CHECK_SWEEPS sweeps) per handle per cycle
TIER_QUOTA = 15
TIER_POLICY = TierPolicy(promote_calls=(2, 8))
#: farm-fanout: promote on the first dispatches; warm phases per cold one.
#: Only the direct cells: the farm's flat and sorted T2 (dbrew+llvm)
#: modules read DBrew constants at worker-image addresses and compute
#: wrong matrices in the client (see README, "Known behaviours").
FARM_CODES = ("direct",)
FARM_POLICY = TierPolicy(promote_calls=(1, 2))
FARM_WARM_PHASES = 3
T2_WAIT_SECONDS = 60.0


class Fixture:
    """A fresh stencil workspace holding seeded matrices and their
    pure-Python reference result."""

    def __init__(self, values: tuple[list[float], list[float]]) -> None:
        self.ws = StencilWorkspace(JacobiSetup(sz=SZ, sweeps=CHECK_SWEEPS))
        self.values = values
        self.load()
        self.reference = self.ws.reference_sweeps(CHECK_SWEEPS)

    def load(self) -> None:
        """Write the seeded contents into both matrices."""
        mem = self.ws.image.memory
        for base, vals in zip((self.ws.m1, self.ws.m2), self.values):
            for i, v in enumerate(vals):
                mem.write_f64(base + 8 * i, v)

    def stencil_arg(self, code: str) -> int:
        return {"direct": 0, "flat": self.ws.flat.addr,
                "sorted": self.ws.sorted.addr}[code]

    def line_probe(self, code: str) -> tuple:
        """A real argument vector for the instrumented line kernels' gate."""
        return (self.stencil_arg(code), self.ws.m1, self.ws.m2, 1, 1, SZ - 1)

    def solve(self, addr: int, code: str, line: bool, clocked):
        """Run the checked sweeps on ``addr`` under ``clocked``:
        (exact?, seconds, stats)."""
        self.load()
        self.ws.driver_for(addr, line=line)
        stats, seconds = clocked(lambda: self.ws.run_sweeps(
            addr, line=line, stencil_arg=self.stencil_arg(code),
            sweeps=CHECK_SWEEPS))
        return (matrices_equal(self.ws.read_matrix(1), self.reference),
                seconds, stats)


class _CalNode:
    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple) -> None:
        self.op = op
        self.args = args

    def eval(self, env: dict) -> int:
        return env.get(self.op, 0) + len(self.args)


def calibrate() -> float:
    """Thread CPU seconds of a fixed pure-Python loop: how fast the host
    runs interpreter code right now.  The loop does what the program does
    most: dict and attribute access, small objects, method calls.  Time
    spent waiting for the interpreter lock or for another process is not
    in it."""
    t0 = time.thread_time()
    acc = 0
    env = {"add": 1, "mul": 2}
    counts: dict[int, int] = {}
    for i in range(1500):
        k = i & 63
        counts[k] = counts.get(k, 0) + i
        acc += _CalNode("add" if i & 1 else "mul", (i, k)).eval(env)
        acc += len(str(i))
    return time.thread_time() - t0


class Run:
    """One measurement window: seeded inputs in, outcomes collected.

    A *request* is one attempt the workload counts (a transform, an
    install, a tiered sweep, a farm job, or a handle registration asking
    for verified T2); it fails at most once, whatever went wrong.
    """

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.unit = 0
        self.attempted = 0
        self.failed_ids: set[int] = set()
        self.wrong = 0
        self.failures: list[str] = []
        #: host-normalized seconds (see :meth:`clocked`) of every completed
        #: timed request, per unit; and per label, of the measured units
        #: (every unit issues the same labels)
        self.latencies: list[list[float]] = []
        self.by_label: dict[str, list[float]] = {}
        #: wall seconds over host-normalized seconds, per clocked call
        self.host_slowdown: list[float] = []
        self.setup_seconds: list[float] = []
        self.solve_seconds: list[float] = []
        self.check_seconds = 0.0
        #: unit-0 figures of the kernels counted in cycles_per_cell
        self.cycles: dict[str, float] = {}
        self.code_bytes = 0
        self.sim_instrs = 0
        #: workload-specific series (tier and farm bookkeeping)
        self.extra: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self._cal = threading.local()

    # -- inputs ------------------------------------------------------------

    def draw_values(self) -> tuple[list[float], list[float]]:
        n = SZ * SZ
        return ([self.rng.uniform(-1.0, 1.0) for _ in range(n)],
                [self.rng.uniform(-1.0, 1.0) for _ in range(n)])

    def fixture(self, values=None) -> Fixture:
        """A fresh fixture; every build is one ``setup_s`` sample."""
        if values is None:
            values = self.draw_values()
        fx, seconds = self.clocked(lambda: Fixture(values))
        self.setup_seconds.append(seconds)
        return fx

    # -- host-normalized time ------------------------------------------------

    def _calibration(self, reuse: bool) -> float:
        last = getattr(self._cal, "last", None)
        if reuse and last is not None \
                and time.perf_counter() - last[0] < CAL_REUSE_SECONDS:
            return last[1]
        seconds = calibrate()
        self._cal.last = (time.perf_counter(), seconds)
        return seconds

    def clocked(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``fn``; return its result and its host-normalized seconds.

        Its wall time is divided by the host's slowdown: the mean of the
        calibrations right before and right after it, over
        ``CAL_REF_SECONDS``, to the power ``HOST_EXPONENT``.  So a period in
        which the host runs slower does not read as a slower program.  The
        calibration after one call serves as the one before the next.
        """
        before = self._calibration(reuse=True)
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        after = self._calibration(reuse=False)
        slowdown = ((before + after) / (2 * CAL_REF_SECONDS)) ** HOST_EXPONENT
        with self._lock:
            self.host_slowdown.append(slowdown)
        return result, seconds / slowdown

    # -- requests ----------------------------------------------------------

    def attempt(self) -> int:
        with self._lock:
            self.attempted += 1
            return self.attempted

    def fail(self, rid: int, reason: str) -> None:
        with self._lock:
            self.failed_ids.add(rid)
            self.failures.append(reason)
        print(f"perfbench: request {rid} failed: {reason}", file=sys.stderr)

    def timed(self, rid: int, label: str, fn: Callable[[], Any]) -> Any:
        """Run one request; record its latency, or its failure."""
        with TRACER.span("bench.request",
                         {"request": f"{self.unit}.{rid}.{label}"}):
            try:
                result, seconds = self.clocked(fn)
            except Exception as exc:  # the loop goes on; the miss is counted
                result = None
                self.fail(rid, f"{label} raised {type(exc).__name__}: {exc}")
        if result is not None:
            with self._lock:
                self.latencies[-1].append(seconds)
                if self.unit >= WARMUP_UNITS:
                    self.by_label.setdefault(label, []).append(seconds)
        return result

    def check(self, rid: int, fx: Fixture, label: str, addr: int, name: str,
              code: str, line: bool, *, counted: bool = True) -> None:
        """Output check of one installed kernel; unit 0 feeds the exact
        figures when ``counted``."""
        ok, seconds, stats = fx.solve(addr, code, line, self.clocked)
        self.check_seconds += seconds
        if not ok:
            self.wrong += 1
            self.fail(rid, f"{label}: Jacobi result differs from reference")
        if counted and self.unit == 0:
            self.cycles[label] = fx.ws.cycles_per_cell(stats, CHECK_SWEEPS)
            self.code_bytes += fx.ws.image.func_sizes[name]
            self.sim_instrs += stats.instructions

    def requests(self) -> int:
        """Completed timed requests of the measured units."""
        return sum(map(len, self.latencies[WARMUP_UNITS:]))

    def note(self, key: str, value: float) -> None:
        with self._lock:
            self.extra.setdefault(key, []).append(value)


# -- compile-cold --------------------------------------------------------------


def compile_cold(run: Run) -> float:
    """Fig. 10 traffic: the 24 transform cells, no cache/guard/proof."""
    fx = run.fixture()
    cells = [(code, kname, line, mode) for code in CODES
             for kname, line in KERNELS for mode in MODES]
    run.rng.shuffle(cells)
    for code, kname, line, mode in cells:
        label = f"{code}.{kname}.{mode}"
        rid = run.attempt()
        res = run.timed(rid, label, lambda: prepare_kernel(
            fx.ws, code, mode, line=line, uid=f".u{run.unit}"))
        if res is not None:
            run.check(rid, fx, label, res.kernel_addr, res.name, code, line)
    return run.check_seconds


# -- verified-install ----------------------------------------------------------


def verified_install(run: Run) -> float:
    """The guarded cells (machine proof + differential gate) plus
    instrumented installs of the three line kernels."""
    fx = run.fixture()
    guard = GuardedTransformer(fx.ws.image, machine_verify=True)
    instrumenter = Instrumenter(fx.ws.image, machine_verify=True)
    cells = [(code, kname, line, mode) for code in CODES
             for kname, line in KERNELS for mode in GUARD_LADDERS]
    cells += [(code, "line", True, "instrument") for code in CODES]
    run.rng.shuffle(cells)
    for code, kname, line, mode in cells:
        label = f"{code}.{kname}.{mode}"
        rid = run.attempt()
        if mode == "instrument":
            res = run.timed(rid, label, lambda: instrumenter.instrument(
                f"line_{code}", LINE_SIGNATURE, options=INSTRUMENT_OPTIONS,
                probes=(fx.line_probe(code),),
                name=f"i.{code}.u{run.unit}"))
            if res is None:
                continue
            gate = res.gate_report
            if gate is None or not gate.passed or gate.vacuous:
                run.fail(rid, f"{label}: gate missing, failed or vacuous")
            addr, name = res.addr, res.name
        else:
            res = run.timed(rid, label, lambda: prepare_kernel(
                fx.ws, code, mode, line=line, uid=f".u{run.unit}",
                guard=guard))
            if res is None:
                continue
            if res.guard_mode != mode:
                run.fail(rid, f"{label}: served by rung {res.guard_mode}")
            elif not res.verified:
                run.fail(rid, f"{label}: gate was vacuous")
            addr, name = res.kernel_addr, res.name
        run.check(rid, fx, label, addr, name, code, line)
    return run.check_seconds


# -- tiered-jacobi -------------------------------------------------------------


def _cells(run: Run, codes=CODES) -> list[tuple[str, str, bool]]:
    cells = [(code, kname, line) for code in codes
             for kname, line in KERNELS]
    run.rng.shuffle(cells)
    return cells


def _check_tiers(run: Run, fx: Fixture, handles, *, counted: bool) -> None:
    """Output-check every upgrade tier each handle installed; the T2
    kernels are the ones ``cycles_per_cell`` counts."""
    for rid, label, code, line, h, _t in handles:
        for tier, tc in sorted(h.codes.items()):
            if tier > 0:
                run.check(rid, fx, f"{label}.T{tier}", tc.addr, tc.name,
                          code, line, counted=counted and tier == T2)


def _t2_latency(run: Run, handles, installed_at: dict[str, float],
                key: str) -> None:
    for rid, label, _code, _line, h, t_reg in handles:
        if h.tier < T2 or not h.code.verified or h.name not in installed_at:
            run.fail(rid, f"{label}: at {h.code.tier_name} ({h.code.mode}),"
                     " not verified T2")
        else:
            run.note(key, installed_at[h.name] - t_reg)


def _install_hook(fx: Fixture, installed_at: dict[str, float]):
    """Engine ``on_install``: drop stale decoded code, stamp T2 installs."""
    def hook(handle, code) -> None:
        fx.ws.sim.invalidate_code()
        if code.tier == T2:
            installed_at[handle.name] = time.perf_counter()
    return hook


def _register(run: Run, fx: Fixture, eng: TieredEngine, cells, uid: str):
    handles = []
    for code, kname, line in cells:
        rid = run.attempt()
        t_reg = time.perf_counter()
        h = register_tiered(fx.ws, code, eng, line=line, uid=uid)
        handles.append((rid, f"{code}.{kname}", code, line, h, t_reg))
    return handles


def tiered_jacobi(run: Run) -> float:
    """Six cells served by a tiered engine while they run; then a fresh
    engine over the same image and cache registers them again (warm)."""
    fx = run.fixture()
    cache = SpecializationCache()
    installed_at: dict[str, float] = {}

    def engine() -> TieredEngine:
        return TieredEngine(fx.ws.image, cache=cache, max_workers=1,
                            machine_verify=True, profile="calls",
                            policy=TIER_POLICY,
                            on_install=_install_hook(fx, installed_at))

    cells = _cells(run)
    with engine() as eng:
        handles = _register(run, fx, eng, cells, f".u{run.unit}")
        # every kernel computes the same Jacobi step, so the whole quota,
        # whichever tier served each sweep, must equal the reference
        fx.load()
        reference = fx.ws.reference_sweeps(
            CHECK_SWEEPS * TIER_QUOTA * len(handles))
        sweep_ids = []
        done = len(run.latencies[-1])
        for k in range(TIER_QUOTA):
            for _rid, label, code, line, h, _t in handles:
                rid = run.attempt()
                sweep_ids.append(rid)
                # the k-th request of a handle meets the same tier each unit
                run.timed(rid, f"sweep{k}.{label}", lambda: fx.ws.run_tiered_sweeps(
                    h, stencil_arg=fx.stencil_arg(code), line=line,
                    sweeps=CHECK_SWEEPS))
        # the quota's solve time is the sum of its requests' times
        solve = sum(run.latencies[-1][done:])
        if not matrices_equal(fx.ws.read_matrix(1), reference):
            run.wrong += 1
            for rid in sweep_ids:
                run.fail(rid, "tiered quota: Jacobi result differs from "
                         "reference")
        for _rid, _l, _c, _ln, h, _t in handles:
            h.wait_for_tier(T2, timeout=T2_WAIT_SECONDS)
        eng.drain(T2_WAIT_SECONDS)
        _t2_latency(run, handles, installed_at, "time_to_t2_s")
        stats = eng.stats
        run.note("tier.compile_s", sum(stats.compile_seconds.values()))
        run.note("tier.promotions", sum(stats.installs.values()))
        run.note("tier.demotions", stats.demotions)
        run.note("tier.t2", sum(h.tier == T2 for *_x, h, _t in handles))
        cold = cache.stats.snapshot()

    with engine() as eng:
        warm = _register(run, fx, eng, cells, f".u{run.unit}w")
        for _rid, _l, _c, _ln, h, t_reg in warm:
            deadline = t_reg + T2_WAIT_SECONDS
            while not h.wait_for_tier(T2, timeout=0.001) \
                    and time.perf_counter() < deadline:
                h.address()
        eng.drain(T2_WAIT_SECONDS)
        _t2_latency(run, warm, installed_at, "warm_time_to_t2_s")
        run.note("tier.t2", sum(h.tier == T2 for *_x, h, _t in warm))
        after = cache.stats.snapshot()

    transforms = after["transforms"] - cold["transforms"]
    hits = after["transform_hits"] - cold["transform_hits"]
    run.note("cache.hit_rate", hits / transforms if transforms else 0.0)
    run.note("cache.machine_hits", after["stage_hits"]["machine"]
             - cold["stage_hits"]["machine"])
    run.note("cache.invalidations", after["invalidations"])
    run.note("tier.handles", len(handles) + len(warm))
    _check_tiers(run, fx, handles, counted=True)
    _check_tiers(run, fx, warm, counted=False)
    return solve


# -- farm-fanout ---------------------------------------------------------------


class _TimedFarmClient(FarmClient):
    """Counts every farm round trip as one request of the workload."""

    def __init__(self, pool: FarmPool, run: Run, phase: str) -> None:
        super().__init__(pool)
        self._run = run
        self._phase = phase

    def compile(self, job, timeout=None):
        run = self._run
        rid = run.attempt()
        label = f"farm.{self._phase}.T{job.tier}"
        res = run.timed(rid, label,
                        lambda: FarmClient.compile(self, job, timeout))
        if res is None:
            run.fail(rid, f"{label}: fell back to in-process compile")
        elif not res.ok:
            run.fail(rid, f"{label}: farm rejected ({res.reject_reason})")
        return res


def farm_fanout(run: Run) -> float:
    """T1+T2 jobs of the ``FARM_CODES`` cells through a two-worker farm,
    cold into a fresh store, then warm from fresh pools over that store."""
    values = run.draw_values()
    store = run.work_dir / f"farm-u{run.unit}"
    shutil.rmtree(store, ignore_errors=True)
    cells = _cells(run, FARM_CODES)
    farm = dict.fromkeys(("farm.jobs", "farm.cache_hits", "farm.fallbacks",
                          "farm.retries"), 0)
    try:
        for phase in range(1 + FARM_WARM_PHASES):
            # identical contents => identical image snapshot => same job keys
            fx = run.fixture(values)
            name = "cold" if phase == 0 else "warm"
            installed_at: dict[str, float] = {}
            pool = FarmPool(workers=2, disk_dir=str(store))
            try:
                client = _TimedFarmClient(pool, run, name)
                with TieredEngine(fx.ws.image, farm=client,
                                  machine_verify=True, policy=FARM_POLICY,
                                  on_install=_install_hook(
                                      fx, installed_at)) as eng:
                    handles = _register(run, fx, eng, cells,
                                        f".u{run.unit}p{phase}")
                    deadline = time.perf_counter() + T2_WAIT_SECONDS
                    while time.perf_counter() < deadline and any(
                            h.tier < T2 for *_x, h, _t in handles):
                        for *_x, h, _t in handles:
                            h.address()
                        time.sleep(0.002)
                    eng.drain(T2_WAIT_SECONDS)
                    _t2_latency(run, handles, installed_at,
                                "time_to_t2_s" if phase == 0
                                else "warm_time_to_t2_s")
                    run.note("tier.t2", sum(h.tier == T2
                                            for *_x, h, _t in handles))
                    run.note("tier.handles", len(handles))
                    stats = eng.stats
                    farm["farm.jobs"] += stats.farm_jobs
                    farm["farm.cache_hits"] += stats.farm_cache_hits
                    farm["farm.fallbacks"] += stats.farm_fallbacks
                    if phase == 0:
                        run.note("tier.compile_s",
                                 sum(stats.compile_seconds.values()))
                        run.note("tier.promotions", sum(stats.installs.values()))
                        run.note("tier.demotions", stats.demotions)
            finally:
                farm["farm.retries"] += pool.snapshot()["retries"]
                pool.close()
            _check_tiers(run, fx, handles, counted=phase == 0)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    for key, value in farm.items():
        run.note(key, value)
    return run.check_seconds


WORKLOADS: dict[str, Callable[[Run], float]] = {
    "compile-cold": compile_cold,
    "verified-install": verified_install,
    "tiered-jacobi": tiered_jacobi,
    "farm-fanout": farm_fanout,
}


def measure(name: str, seed: int, seconds: float, work_dir: Path, *,
            hooks=None) -> Run:
    """One window: timed set-ups, the warm-up unit, then whole units until
    ``seconds`` have passed and ``MIN_REQUESTS`` requests were measured.
    ``hooks`` (a :class:`spans.Hooks`) is told where each unit starts."""
    workload = WORKLOADS[name]
    run = Run(seed, work_dir)
    for _ in range(SETUP_REPEATS):
        run.fixture()
    start = time.perf_counter()
    while True:
        gc.collect()
        if hooks is not None:
            hooks.start_unit(run.unit)
        run.check_seconds = 0.0
        run.latencies.append([])
        solve = workload(run)
        if run.unit >= WARMUP_UNITS:
            run.solve_seconds.append(solve)
        run.unit += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_WINDOW_SECONDS or (
                elapsed >= seconds and run.requests() >= MIN_REQUESTS):
            return run


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (exclusive method); 0.0 without data."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
