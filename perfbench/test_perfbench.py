"""Tests of the benchmark's own code (not collected by the library's suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ops  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _first_cycles(name: str, seed: int, count: int = 2) -> list[str]:
    stream = workloads.cycles(workloads.WORKLOADS[name], seed)
    return [inst.to_json() for _ in range(count) for inst in next(stream)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_instances(name):
    assert _first_cycles(name, 7) == _first_cycles(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_instances(name):
    assert _first_cycles(name, 7) != _first_cycles(name, 8)


def test_subspace_instances_lie_in_a_subspace_and_its_coset():
    for inst in next(workloads.cycles(workloads.WORKLOADS["subspace_sums"], 3)):
        # S+T lies in one coset of a k-dim subspace, so it is far smaller than q^n
        assert len(workloads.sumset(inst.q, inst.S, inst.T)) <= len(inst.S) * 2


def test_cost_guard_refuses_a_random_q3_n6_pair():
    rng = random.Random(5)
    pool = workloads.points(3, 6)
    inst = workloads.Instance(3, 6, tuple(p for p in pool if rng.random() < 0.03),
                              tuple(p for p in pool if rng.random() < 0.03))
    with pytest.raises(workloads.OutOfBudget, match="vanishing cells"):
        workloads.check_budget(inst)


def test_cost_guard_admits_the_warm_up_instances():
    for wl in workloads.WORKLOADS.values():
        for q, n in wl.spaces:
            workloads.check_budget(workloads.warm_up_instance(q, n))


def _targets():
    out = {}
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        out[(module_name, attr)] = getattr(module, attr)
    return out


def test_traced_run_restores_every_wrapped_function(tmp_path):
    before = _targets()
    vector = importlib.import_module("sumsetcover.field").FieldVector
    add = vector.__dict__["__add__"]
    inst = workloads.warm_up_instance(3, 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(_targets()[key] is not fn for key, fn in before.items())
        with tracer.op(0):
            raw = ops.decompose_run(inst)
    assert ops.decompose_check(inst, raw).ok
    assert _targets() == before and all(_targets()[k] is v for k, v in before.items())
    assert vector.__dict__["__add__"] is add
    spans = len(tracer.spans)
    adds = tracer.vector_adds
    ops.decompose_run(inst)
    assert len(tracer.spans) == spans and tracer.vector_adds == adds

    selfs = tracer.self_times()
    root = tracer.spans[0]
    assert root[0] == tracing.OP_SPAN and root[3] is None
    assert all(s[3] is not None and s[4] == 0 for s in tracer.spans[1:])
    assert sum(t for t, _ in selfs.values()) == pytest.approx(root[2] - root[1])
    assert selfs["vanishing.build"][1] == 1 and adds > 0
    tracer.write(str(tmp_path / "spans.jsonl"))
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == spans


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("sumsetcover.decompose", "no_such_function", "gone.function"),
        ("sumsetcover.no_such_module", "anything", "gone.module"),
    ))
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.op(0):
            ops.decompose_run(workloads.warm_up_instance(2, 2))
    assert "gone.function" not in tracer.self_times()
    assert not hasattr(importlib.import_module("sumsetcover.decompose"), "no_such_function")


def test_speed_log_samples_during_work_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    speed = refclock.SpeedLog()
    with speed.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.seconds) >= 3
    assert sum(speed.seconds) < speed.busy < 0.3
    assert speed.scale() > 0


def test_speed_scale_is_nominal_over_mean_reciprocal_reference():
    speed = refclock.SpeedLog()
    with pytest.raises(ValueError):
        speed.scale()
    speed.seconds = [0.5 * refclock.NOMINAL_S, 2 * refclock.NOMINAL_S]
    assert speed.scale() == pytest.approx((2 + 0.5) / 2)
