"""Cross-process single-flight: one compile per key, whatever dies.

The contract under test (ISSUE acceptance criteria):

* 8 processes racing one key -> exactly one runs the thunk, the rest are
  served through the probe;
* SIGKILLing the leader mid-compile releases its ``flock`` and a waiting
  follower takes over (or, failing that, the caller falls back) — never a
  deadlock;
* a wedged-but-alive leader is bounded by ``timeout``: the follower gives
  up waiting and duplicates the work rather than hanging.
"""

from __future__ import annotations

import os
import time

from repro.cache import DiskStore, FileFlightTable

WORKERS = 8


def _race_main(root: str, store_dir: str, worker: int) -> None:
    store = DiskStore(store_dir)
    flights = FileFlightTable(root, poll_interval=0.002)

    def thunk():
        # detectably non-atomic compile: anyone else entering the thunk
        # concurrently would also append a line
        with open(os.path.join(store_dir, "compiles.log"), "a") as fh:
            fh.write(f"{worker}:{os.getpid()}\n")
        time.sleep(0.1)
        store.put("result", {"by": worker})
        return {"by": worker}

    result, _led = flights.run("key", thunk,
                               lambda: store.get("result"), timeout=60.0)
    assert result is not None and "by" in result
    os._exit(0)


def test_eight_processes_one_compile(mp_ctx, tmp_path):
    root = str(tmp_path / "flights")
    store_dir = str(tmp_path / "store")
    os.makedirs(store_dir, exist_ok=True)
    procs = [mp_ctx.Process(target=_race_main, args=(root, store_dir, w))
             for w in range(WORKERS)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    with open(os.path.join(store_dir, "compiles.log")) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1, f"racing processes each compiled: {lines}"


def _leader_main(root: str, store_dir: str, started: str) -> None:
    flights = FileFlightTable(root)

    def thunk():
        with open(started, "w") as fh:
            fh.write(str(os.getpid()))
        time.sleep(600)  # the test SIGKILLs us long before this returns
        return {"by": "leader"}

    flights.run("key", thunk, lambda: None, timeout=None)
    os._exit(0)


def _follower_main(root: str, store_dir: str, polling: str) -> None:
    store = DiskStore(store_dir)
    flights = FileFlightTable(root, poll_interval=0.01)
    probes = 0

    def thunk():
        store.put("result", {"by": "follower"})
        return {"by": "follower"}

    def probe():
        nonlocal probes
        probes += 1
        if probes == 2:  # only after a failed lock attempt: we are waiting
            open(polling, "w").close()
        return store.get("result")

    result, led = flights.run("key", thunk, probe, timeout=60.0)
    assert result == {"by": "follower"} and led
    assert flights.takeovers == 1
    os._exit(0)


def test_killed_leader_follower_takes_over(mp_ctx, tmp_path):
    root = str(tmp_path / "flights")
    store_dir = str(tmp_path / "store")
    os.makedirs(store_dir, exist_ok=True)
    started = os.path.join(store_dir, "leader-started")

    leader = mp_ctx.Process(target=_leader_main,
                            args=(root, store_dir, started))
    leader.start()
    deadline = time.monotonic() + 30
    while not os.path.exists(started):  # leader holds the lock now
        assert time.monotonic() < deadline, "leader never started"
        time.sleep(0.01)

    polling = os.path.join(store_dir, "follower-polling")
    follower = mp_ctx.Process(target=_follower_main,
                              args=(root, store_dir, polling))
    follower.start()
    deadline = time.monotonic() + 60
    while not os.path.exists(polling):  # follower saw the lock held
        assert time.monotonic() < deadline, "follower never started polling"
        time.sleep(0.01)
    leader.kill()    # SIGKILL mid-compile: flock evaporates with the pid
    leader.join(timeout=10)

    follower.join(timeout=60)
    assert follower.exitcode == 0, "follower deadlocked or failed"
    assert DiskStore(store_dir).get("result") == {"by": "follower"}


def test_wedged_leader_timeout_falls_back():
    """In-process: a thread holds the lock forever; the timed caller
    duplicates the work instead of hanging."""
    import tempfile
    import threading

    with tempfile.TemporaryDirectory() as d:
        flights = FileFlightTable(d, poll_interval=0.005)
        holding = threading.Event()
        release = threading.Event()

        def wedged():
            def thunk():
                holding.set()
                release.wait(30)
                return "leader"
            # flock is per-fd: a second FileFlightTable in this process
            # still contends on the same lock file
            FileFlightTable(d).run("key", thunk, lambda: None, timeout=None)

        t = threading.Thread(target=wedged, daemon=True)
        t.start()
        assert holding.wait(10)
        result, led = flights.run("key", lambda: "fallback",
                                  lambda: None, timeout=0.2)
        assert result == "fallback" and led
        assert flights.timeouts == 1
        release.set()
        t.join(timeout=10)


def test_probe_hit_skips_locking(tmp_path):
    flights = FileFlightTable(str(tmp_path))
    result, led = flights.run("key", lambda: "compiled", lambda: "cached")
    assert result == "cached" and not led
    assert flights.coalesced == 1 and flights.led == 0


def test_sweep_removes_lock_files(tmp_path):
    flights = FileFlightTable(str(tmp_path))
    flights.run("key", lambda: "x", lambda: None)
    assert os.listdir(str(tmp_path))
    flights.sweep()
    assert os.listdir(str(tmp_path)) == []
