"""Tests for the benchmark's own code: span arithmetic, patching, output checks."""

import importlib
import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # clock readings in the order the spans open and close
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):              # 0 .. 10
        with tracer.span("b"):          # 1 .. 4
            with tracer.span("c"):      # 2 .. 3
                pass
        with tracer.span("b"):          # 5 .. 7
            pass
    s = tracer.summary()
    assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 2.0}
    assert s["b"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0 - 1.0}
    assert s["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_wrapped_calls_nest_and_count():
    clock = itertools.count()
    tracer = Tracer(clock=lambda: float(next(clock)))

    def leaf(x):
        return x + 1

    leaf = tracer.wrap(leaf, "leaf", count=lambda c, args, r: c.__setitem__("sum", c["sum"] + r))

    def outer():
        return leaf(1) + leaf(2)

    outer = tracer.wrap(outer, "outer")
    assert outer() == 5
    s = tracer.summary()
    assert s["leaf"]["calls"] == 2
    assert s["outer"]["self_s"] == s["outer"]["total_s"] - s["leaf"]["total_s"]
    assert tracer.counters["sum"] == 5


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    boom = tracer.wrap(boom, "boom")
    with pytest.raises(RuntimeError):
        boom()
    with tracer.span("after"):
        pass
    assert list(tracer.parent) == [-1, -1]


def test_restore_puts_back_every_original():
    targets = layers.targets()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = Tracer()
    layers.install(tracer)
    try:
        for (owner, attr, _, _), original in zip(targets, before):
            assert vars(owner)[attr] is not original
    finally:
        tracer.restore()
    for (owner, attr, _, _), original in zip(targets, before):
        assert vars(owner)[attr] is original


def test_traced_simulation_counts_throttle_requests():
    graph = importlib.import_module("wormnet.graph")
    epidemic = importlib.import_module("wormnet.epidemic")
    throttle = importlib.import_module("wormnet.throttle")
    g = graph.Graph(6, False, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    worm = epidemic.WormBehavior("neighbor", attempt_rate=20.0)
    config = throttle.ThrottleConfig(rate=1.0, working_set_capacity=1)
    plain = epidemic.run(g, worm, init_infected={0}, throttle=config, dt=0.1, t_max=3.0, seed=1)

    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = epidemic.run(g, worm, init_infected={0}, throttle=config, dt=0.1, t_max=3.0,
                              seed=1)
    finally:
        tracer.restore()
    assert traced.rows == plain.rows
    extra = {"cli.import_s": 0.0, "harness.csv_bytes": 0, "trace.wall_ratio": 0.0}
    m = layers.metrics(tracer.summary(), tracer.counters, extra)
    assert m["epidemic.ticks"] == len(plain) - 1
    assert m["throttle.requests"] > 0
    assert m["epidemic.valid_attempts"] == m["throttle.requests"]
    assert m["epidemic.deliveries"] == sum(plain.column("admitted"))
    assert m["throttle.queue_peak"] == max(plain.column("queued"))
    assert 0 <= m["throttle.passed"] <= m["throttle.requests"]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


HEADER = ",".join(checks.SERIES_HEADER) + "\n"


def test_series_check_accepts_a_valid_csv(tmp_path):
    path = tmp_path / "rep_000.csv"
    _write(path, HEADER + "0,0,9,1,0,0,0\n1,0.1,7,3,0,0,2\n2,0.2,7,3,0,1,0\n")
    assert checks.check_series(path, 10) == []


@pytest.mark.parametrize("rows,problem", [
    ("0,0,9,1,0,0,0\n1,0.1,7,2,0,0,2\n", "S+I+R"),
    ("0,0,8,2,0,0,0\n1,0.1,9,1,0,0,0\n", "infected fell"),
    ("0,0,9,1,0,0\n", "fields"),
    ("", "no rows"),
])
def test_series_check_rejects_a_corrupted_csv(tmp_path, rows, problem):
    path = tmp_path / "rep_000.csv"
    _write(path, HEADER + rows)
    found = checks.check_series(path, 10)
    assert found and problem in found[0]


def test_corrupted_replicate_fails_its_experiment_step(tmp_path):
    (tmp_path / "arm").mkdir()
    _write(tmp_path / "arm" / "rep_000.csv", HEADER + "0,0,9,1,0,0,0\n1,0.1,9,2,0,0,1\n")
    step = workloads.Step(("experiment", "--config", "arm.cfg", "--out", "arm"), ("series", "arm"))
    assert checks.check_step(step, str(tmp_path), 10)


def test_threshold_and_slowdown_checks(tmp_path):
    header = "strategy,f_c,method,s_min,trials,ci_halfwidth\n"
    _write(tmp_path / "random.csv", header + "random,0.7,empirical,0.01,10,0.001\n")
    _write(tmp_path / "targeted.csv", header + "targeted,0.02,empirical,0.01,1,0.001\n")
    _write(tmp_path / "bad.csv", header + "targeted,1.5,empirical,0.01,1,0.001\n")
    assert checks.check_fc(tmp_path / "targeted.csv", tmp_path / "random.csv") == []
    assert checks.check_fc(tmp_path / "random.csv", tmp_path / "targeted.csv")
    assert checks.check_fc(tmp_path / "bad.csv")
    compare = "metric,baseline,treated,slowdown\n"
    _write(tmp_path / "fast.csv", compare + "growth_rate,2,0.5,4\ntime_to_fraction,1,NA,NA\n")
    _write(tmp_path / "na.csv", compare + "growth_rate,2,NA,NA\n")
    assert checks.check_slowdown(tmp_path / "fast.csv") == []
    assert checks.check_slowdown(tmp_path / "na.csv")


def test_digests_and_moved(tmp_path):
    _write(tmp_path / "a.csv", "x\n")
    _write(tmp_path / "plan.json", "{}")
    first = checks.digests(tmp_path, skip={"plan.json"})
    assert list(first) == ["a.csv"]
    _write(tmp_path / "a.csv", "y\n")
    assert checks.moved(first, checks.digests(tmp_path, skip={"plan.json"})) == ["a.csv"]


def test_plans_depend_on_the_seed_only():
    for name in workloads.WORKLOADS:
        assert workloads.plan(name, 3) == workloads.plan(name, 3)
        assert workloads.plan(name, 3) != workloads.plan(name, 4)
        assert workloads.plan(name, 3).steps[0].command == "generate"
