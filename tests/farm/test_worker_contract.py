"""The worker's publication contract, driven in-process.

A :class:`FarmWorker` over a temp store runs :func:`compile_tier` and
applies one rule: every reject is published as a negative verdict unless
it is budget-starved, which comes back retryable and unpublished.  The
parity cases pin that the module a worker publishes is exactly the
post-O3 module the same recipe produces in the client's own image.
"""

from __future__ import annotations

import pytest

from repro.errors import IRError
from repro.farm import protocol as fp
from repro.farm.worker import FarmWorker, _RecordingCache
from repro.guard import Budget, GateOptions
from repro.ir.printer import print_module
from repro.lift import FunctionSignature
from repro.lift import blocks as _blocks
from repro.testing.faults import inject_faults
from repro.tier import T1, T2
from repro.tier.compile import compile_tier, tier_plan

SIG = FunctionSignature(("i", "i"), "i")
T2_PROBES = ((10,), (5,))


@pytest.fixture()
def worker(tmp_path):
    w = FarmWorker(0, str(tmp_path / "farm"))
    yield w
    # the worker attaches its store as the process-wide decoded-trace store
    _blocks.attach_trace_store(None)


def _job(worker, prog, tier, fixes=None, *, name="f.job", **extra):
    """The job the tiered engine would ship, its image spec published."""
    spec = fp.ImageSpec.capture(prog.image)
    image_key = fp.image_spec_key(spec.digest())
    worker.store.put(image_key, spec)
    o3, ladder = tier_plan(tier, fixes, ())
    t2 = tier == T2
    return fp.make_job(prog.image, name, tier, "f", SIG, fixes,
                       probes=T2_PROBES if t2 else (),
                       dbrew_func="f" if t2 else None, ladder=ladder,
                       image_key=image_key, o3=o3, **extra)


def test_refuted_t1_proof_is_published(prog, worker, monkeypatch):
    import repro.analysis.machine as machine

    monkeypatch.setattr(machine, "verify_witness",
                        lambda witness: machine.VerifyResult(
                            verdict=machine.REFUTED))
    job = _job(worker, prog, T1, machine_verify=True)
    first = worker.run_job(job)
    assert not first.ok and not first.retryable
    assert first.machine_verdict == "refuted"
    assert first.cache_stage is None
    # the verdict is in the store: a repeat never reaches the verifier
    monkeypatch.undo()
    again = worker.run_job(job)
    assert not again.ok and not again.retryable
    assert again.cache_stage == "farm"
    assert again.machine_verdict == "refuted"


def test_t1_content_failure_is_published(prog, worker):
    job = _job(worker, prog, T1, {1: 7})
    with inject_faults("opt", every=True,
                       error=IRError("injected optimizer fault",
                                     stage="opt", injected=True)):
        first = worker.run_job(job)
    assert not first.ok and not first.retryable
    assert "injected" in first.reject_reason
    # served as the published negative, not recompiled
    again = worker.run_job(job)
    assert not again.ok and not again.retryable
    assert again.cache_stage == "farm"
    assert again.reject_reason == first.reject_reason


def test_budget_starved_t2_is_retryable_and_unpublished(prog, worker):
    job = _job(worker, prog, T2, {1: 3},
               budget=Budget(max_lift_instructions=1))
    res = worker.run_job(job)
    assert not res.ok and res.retryable
    assert "budget" in res.reject_reason
    assert worker.store.get(fp.result_key(job.key)) is None


@pytest.mark.parametrize("tier,fixes", [(T1, None), (T1, {1: 7}),
                                        (T2, {1: 3})],
                         ids=["t1-llvm", "t1-llvm-fix", "t2"])
def test_published_module_matches_in_process_compile(prog, worker,
                                                     tier, fixes):
    job = _job(worker, prog, tier, fixes, name="f.parity")
    res = worker.run_job(job)
    assert res.ok, res.reject_reason

    cache = _RecordingCache()
    o3, ladder = tier_plan(tier, fixes, ())
    t2 = tier == T2
    out = compile_tier(
        prog.image, tier, "f", SIG, fixes, (), T2_PROBES if t2 else (),
        "f" if t2 else None, name="f.parity", o3=o3, ladder=ladder,
        cache=cache, budget=Budget(), lift_options=None, jit_options=None,
        gate_options=GateOptions(), machine_verify=False)
    assert out.reject is None and out.mode == res.mode
    local, _ = cache.get_module(cache.last_module_key)
    assert print_module(res.module) == print_module(local)
