"""Golden freeze: sha256 digests of outputs that refactors must reproduce.

Each digest covers the exact bytes a user would get: preset edge lists as
written by ``write_edge_list``, replicate CSVs from ``run_replicate`` over a
matrix of worm x throttle x vaccination settings, and ``wormnet threshold``
CSVs.  The short outputs are pinned as text instead: an experiment pair's
``summary.csv`` files, its compare CSV and its stdout, and ``throttle-demo``
logs.  The README walkthrough's last rows and the benchmark's seven
exactness counts are pinned as numbers, and every file of each benchmark
workload's seed-0 plan by the digest the benchmark records for it.  A change
may update a digest only when it documents the intended output change.
"""

import dataclasses
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from wormnet import harness, presets
from wormnet.cli import main
from wormnet.epidemic import TimeSeries, WormBehavior
from wormnet.graph import write_edge_list
from wormnet.netgen import build_network
from wormnet.percolation import VaccinationStrategy
from wormnet.throttle import HostThrottles, ThrottleConfig


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


EDGE_LISTS = {
    "net-a": "e6ef74eee76516c39ac75cc3fe44a1d2f5418be61b02161ec71a7079045c059d",
    "net-b": "b6b0f53689718718745328c8ed1532c3ee8ef96b2e0b698cca01529eb09d1eaf",
    "net-c": "ecaad8c0940bd672ca550a15bfb3e0d53f185d781962fe8f0d139032adec4da9",
    "net-d": "0cf88c1379c0700d24b4794c2c0362b516d67963190bb73d547979dede19bf2c",
}


@pytest.mark.parametrize("name", sorted(EDGE_LISTS))
def test_preset_edge_list(tmp_path, name):
    path = tmp_path / f"{name}.edges"
    write_edge_list(build_network(presets.preset(name)), path)
    assert _sha(path.read_bytes()) == EDGE_LISTS[name]


WORMS = {
    "neighbor": WormBehavior("neighbor", attempt_rate=5.0),
    "scan": WormBehavior("scan", attempt_rate=20.0, address_space=400),
}
THROTTLES = {
    "none": None,
    "unbounded": ThrottleConfig(rate=1.0, working_set_capacity=4),
    "bounded": ThrottleConfig(rate=1.0, working_set_capacity=4, queue_capacity=3),
}
VACCINATIONS = {
    "none": None,
    "targeted": VaccinationStrategy("targeted", 0.1),
}

REPLICATES = {
    ("neighbor", "none", "none"): "32cf474308d465ea57372ef4f3220e1cb8fdc4b139b303202c5daf7d0f538249",
    ("neighbor", "none", "targeted"): "9db0bbd05d71989e7c4c49f94f0207cf13fbd1773343be83b93d7f4ff4405122",
    ("neighbor", "unbounded", "none"): "5e4a55c94e4c63b792a8dd6d6a7b4c153eb1c3859d6146fdbf3583e05e922448",
    ("neighbor", "unbounded", "targeted"): "adef7e8bfc69f9baf7152f9abeef16d132fe8d9604c599a6c56b3624ded38c6c",
    ("neighbor", "bounded", "none"): "68c8cfe963f0b7314114cf059f3630a73e3da12edf6a2d27e7916e80fd6062da",
    ("neighbor", "bounded", "targeted"): "99a114d2ca96f8a34e0b9a79f67725304c90628a6db30151f3e15a7496577312",
    ("scan", "none", "none"): "b4acbd1b4c601066a3279a526a65caf7c71d2e38902d99ea2e263d155a9a62f6",
    ("scan", "none", "targeted"): "110604f1ffd1bcf35dd3a0d141c5060c68685e5535b0c17677d4d598695920d7",
    ("scan", "unbounded", "none"): "dfcbd366dfcbe47da097bf155f24aa8fe3edad1f64552aa00b7033f97d5cb929",
    ("scan", "unbounded", "targeted"): "c7fe9ca24f8b024da3cfd891c5ad6455606e05a1494e51ae6b14618207647f68",
    ("scan", "bounded", "none"): "b97a7f4ba64b557cab767068923dbc7c68f7cbf21a32be9e3d0c2d7872a6b43a",
    ("scan", "bounded", "targeted"): "f662ee19ff903ccfd89c6561be7a56ba056b1910b086f665f05e790b4a74dfa1",
}


@pytest.fixture(scope="module")
def small_net_b():
    return build_network(dataclasses.replace(presets.preset("net-b"), n=300))


@pytest.mark.parametrize("key", sorted(REPLICATES), ids="-".join)
def test_replicate_csv(small_net_b, replicate_config, key):
    worm, throttle, vaccination = key
    cfg = replicate_config(WORMS[worm], VACCINATIONS[vaccination], THROTTLES[throttle],
                           seed_infected=2, dt=0.1, t_max=4.0, seed=3)
    ts = harness.run_replicate(small_net_b, cfg, 0)
    assert _sha(ts.to_csv_text().encode()) == REPLICATES[key]


# Engine cases the net-b matrix misses: a directed graph (net-c family, with
# nodes of out-degree 0), failed attempts (infection_probability 0.5) that
# travel through the delay queue, random vaccination that leaves a strict
# subset reachable and lets unthrottled runs stop before t_max, an infinite
# release rate, an empty working set and a one-slot queue.
DIRECTED_WORMS = {
    "neighbor": WormBehavior("neighbor", attempt_rate=20.0),
    "neighbor-p0.5": WormBehavior("neighbor", attempt_rate=20.0, infection_probability=0.5),
    "scan-p0.5": WormBehavior(
        "scan", attempt_rate=20.0, infection_probability=0.5, address_space=400),
}
DIRECTED_THROTTLES = {
    "none": None,
    "unbounded": ThrottleConfig(rate=1.0, working_set_capacity=4),
    "rate-inf": ThrottleConfig(rate=math.inf, working_set_capacity=4),
    "ws0": ThrottleConfig(rate=1.0, working_set_capacity=0),
    "queue1": ThrottleConfig(rate=1.0, working_set_capacity=4, queue_capacity=1),
}
DIRECTED_VACCINATIONS = {
    "none": None,
    "random": VaccinationStrategy("random", 0.3),
}

DIRECTED_REPLICATES = {
    ("neighbor", "none", "none"): "7b7adedc5c0237a219c6dca44544d44b0b9d34605bda3bec5ce7e14399fd2eb1",
    ("neighbor", "none", "random"): "e16e64d02542e6ba31c81ceec6dfdd78e78446b886cad0e9614cc57aa130bada",
    ("neighbor", "unbounded", "none"): "5d035fbf9d7bd6b52a80025113a4a9294fe59ad813f252d304740b88e09ac326",
    ("neighbor", "unbounded", "random"): "28b523556cb8ff40711ba36c704c246b3c8f971b7b753f5d2e22050c99949a88",
    ("neighbor", "rate-inf", "none"): "7b7adedc5c0237a219c6dca44544d44b0b9d34605bda3bec5ce7e14399fd2eb1",
    ("neighbor", "rate-inf", "random"): "e16e64d02542e6ba31c81ceec6dfdd78e78446b886cad0e9614cc57aa130bada",
    ("neighbor", "ws0", "none"): "dd491b900d238bdbe51b21925572b5ff9cc8320860b894a89ef34cf7f78a4b8a",
    ("neighbor", "ws0", "random"): "e0876b9085a0c0fd62d94c8b4623123edf76147024a680a7698aebadefcb438d",
    ("neighbor", "queue1", "none"): "1cbcbe07fda05f70d5eb55bed7f567b39d4151640853b4c8fae92b3725af5bc5",
    ("neighbor", "queue1", "random"): "aa1da0a12a9726e6972d73b18b5e765624ae597ecafe8cc45d73b3a7abf39fa3",
    ("neighbor-p0.5", "none", "none"): "a3a074e3961b27dee0c625db8b4a8ff8bb5f054b396765b64320426607d18994",
    ("neighbor-p0.5", "none", "random"): "30db2a78e11700fa78fcb00359ebbdab222ac5bcc5eae6fa2c06fbfec18bebb8",
    ("neighbor-p0.5", "unbounded", "none"): "a6e027b401425ebff21b521d244af079c6a534f44f824111fea117ba3b712f9d",
    ("neighbor-p0.5", "unbounded", "random"): "0749d325383f170a19c35d2137adca4a5431d399bb9f0b8d1eb50cac1d81f921",
    ("neighbor-p0.5", "rate-inf", "none"): "a3a074e3961b27dee0c625db8b4a8ff8bb5f054b396765b64320426607d18994",
    ("neighbor-p0.5", "rate-inf", "random"): "30db2a78e11700fa78fcb00359ebbdab222ac5bcc5eae6fa2c06fbfec18bebb8",
    ("neighbor-p0.5", "ws0", "none"): "d678a0bb2aab9ffd66700aa11fd5af4a0a275e9cbc9c379795f0754ace6b1377",
    ("neighbor-p0.5", "ws0", "random"): "b868afbcb98a7fd6ac8df8326b0003f0201ebcedfc973024140b405e7a320ba9",
    ("neighbor-p0.5", "queue1", "none"): "943d6050dc10356186243f1d8a09e5fc2849f302bfece41a78776de6f422645e",
    ("neighbor-p0.5", "queue1", "random"): "237ec451e57dbcffe67884033d2e17ef97560198829b8170c08d29364eafabb6",
    ("scan-p0.5", "none", "none"): "b5a43296fb61b3e52b5fd0c21e7315242969042398e65d19369fe21c22d2aa8a",
    ("scan-p0.5", "none", "random"): "e33859c3778b6fa4b685bfae437de09c58f4359644697d06eb0c2c2571e2a74f",
    ("scan-p0.5", "unbounded", "none"): "8fe0f7f843671e60c408b91c41d0e38d72ae4b449e925a8a27f48338ab1a5e7b",
    ("scan-p0.5", "unbounded", "random"): "fbd201f63e98bff620af5fc239e327e4f1e0aeb7a7554fd59960554d4622fb5e",
    ("scan-p0.5", "rate-inf", "none"): "b5a43296fb61b3e52b5fd0c21e7315242969042398e65d19369fe21c22d2aa8a",
    ("scan-p0.5", "rate-inf", "random"): "e33859c3778b6fa4b685bfae437de09c58f4359644697d06eb0c2c2571e2a74f",
    ("scan-p0.5", "ws0", "none"): "440c513d7792ace422bbec90943a92c0eaa39729ea31f69088f2ab33f2244080",
    ("scan-p0.5", "ws0", "random"): "d4bf8bfb3e12aeb47a9a950315de2c7912221d8f2014c6dac1bc57bb62642ce3",
    ("scan-p0.5", "queue1", "none"): "76c8cf7a2f1ecd818f6a35fe7cdb9835485052673b05ad60fa588de76dc35ac3",
    ("scan-p0.5", "queue1", "random"): "de04f52befbf760f8ff1b5d790bd55cdecac8edb218cdd58fe0fa45d0c57a7ea",
}


@pytest.fixture(scope="module")
def small_net_c():
    return build_network(dataclasses.replace(presets.preset("net-c"), n=300))


@pytest.mark.parametrize("key", sorted(DIRECTED_REPLICATES), ids="-".join)
def test_directed_replicate_csv(small_net_c, replicate_config, key):
    worm, throttle, vaccination = key
    cfg = replicate_config(DIRECTED_WORMS[worm], DIRECTED_VACCINATIONS[vaccination],
                           DIRECTED_THROTTLES[throttle], seed_infected=2, dt=0.1, t_max=10.0,
                           seed=5)
    ts = harness.run_replicate(small_net_c, cfg, 0)
    assert _sha(ts.to_csv_text().encode()) == DIRECTED_REPLICATES[key]


THRESHOLDS = {
    "random": "1da313e9ec971de696b96a6dcfafe0ce9beb099734a8eadb86f7d94531e2425f",
    "targeted": "890c0d092ac6b8748ad28940fb1e55e7dd5e423a31c58b2bb993c6a1fa14371e",
}


@pytest.mark.parametrize("strategy", sorted(THRESHOLDS))
def test_threshold_csv(tmp_path, strategy):
    graph = tmp_path / "net-d.edges"
    write_edge_list(build_network(presets.preset("net-d")), graph)
    out = tmp_path / "thr.csv"
    rc = main(["threshold", "--graph", str(graph), "--strategy", strategy,
               "--out", str(out)])
    assert rc == 0
    assert _sha(out.read_bytes()) == THRESHOLDS[strategy]


ANALYTICAL_THRESHOLDS = {
    "random": ("2c3059f7be5bb70c751df0d674133b8972d217790906cdda97edf8400363a519",
               "random,0.8431165726,analytical,,0,0"),
    "targeted": ("80804a2749eeffe35d6bbc608a47e8c74402a2ff10fe98b4511a4e171513051d",
                 "targeted,0.0277875,analytical,,0,0"),
}


@pytest.mark.parametrize("strategy", sorted(ANALYTICAL_THRESHOLDS))
def test_analytical_threshold_csv(tmp_path, strategy):
    graph = tmp_path / "net-d.edges"
    write_edge_list(build_network(presets.preset("net-d")), graph)
    out = tmp_path / "thr.csv"
    rc = main(["threshold", "--graph", str(graph), "--strategy", strategy,
               "--method", "analytical", "--out", str(out)])
    assert rc == 0
    digest, row = ANALYTICAL_THRESHOLDS[strategy]
    assert out.read_text().splitlines()[1] == row
    assert _sha(out.read_bytes()) == digest


# A histogram with unsorted keys and a class of isolated nodes.
HISTOGRAM = "1 401\n2 200\n3 120\n7 3\n12 2\n0 5\n"
CONFIGMODEL_EDGE_LISTS = {
    "undirected": "67b6292cb85681d3ab62abf9094b342b96e0a7f4237ddf60dbc0bedf3b0e3959",
    "directed": "6539b98ccdfaf394a93b4e320dc22798c8de7fb524102ce3700fb84c83945fd9",
}


@pytest.mark.parametrize("kind", sorted(CONFIGMODEL_EDGE_LISTS))
def test_configmodel_from_histogram_edge_list(tmp_path, kind):
    hist = tmp_path / "degrees.hist"
    hist.write_text(HISTOGRAM)
    out = tmp_path / "cm.edges"
    directed = ["--directed"] if kind == "directed" else []
    rc = main(["generate", "--family", "configmodel", "--degree-histogram", str(hist),
               "--seed", "4", *directed, "--out", str(out)])
    assert rc == 0
    assert _sha(out.read_bytes()) == CONFIGMODEL_EDGE_LISTS[kind]


# A 3-replicate pair on a small net-b in which some replicates, but not all, are
# censored: each arm has a replicate that never reaches TIME_TO_FRACTION_Q within
# its tmax, so its summary row reads NA and the mean and std skip it.  The arms
# differ in tmax as well as in their controls, which compare allows.
EXPERIMENT_CFG = """\
[network]
preset = net-b
n = 300

[worm]
targeting = neighbor
rate = 5

[run]
replicates = 3
dt = 0.1
tmax = {tmax}
seed = 3
"""
EXPERIMENT_ARMS = {
    "baseline": EXPERIMENT_CFG.format(tmax=14),
    "treated": EXPERIMENT_CFG.format(tmax=16) + "\n[controls]\nthrottle_rate = 16\n",
}
SUMMARIES = {
    "baseline": ("replicate,growth_rate,time_to_fraction\n"
                 "0,1.945339945,NA\n"
                 "1,2.196393638,11.7\n"
                 "2,2.489937958,12\n"
                 "mean,2.21055718,11.85\n"
                 "std,0.2225566644,0.15\n"),
    "treated": ("replicate,growth_rate,time_to_fraction\n"
                "0,1.985336882,13.3\n"
                "1,2.060010872,NA\n"
                "2,2.275984973,14.8\n"
                "mean,2.107110909,14.05\n"
                "std,0.1232420065,0.75\n"),
}
COMPARE_CSV = ("metric,baseline,treated,slowdown\n"
               "growth_rate,2.21055718,2.107110909,1.04909389\n"
               "time_to_fraction,11.85,14.05,1.233333333\n")
EXPERIMENT_STDOUT = (
    "3 replicate(s) -> {baseline}; growth_rate mean = 2.21055718, time_to_0.95 mean = 11.85\n"
    "3 replicate(s) -> {treated}; growth_rate mean = 2.107110909, time_to_0.95 mean = 14.05\n"
    "growth_rate: baseline=2.21055718 treated=2.107110909 slowdown=1.04909389\n"
    "time_to_fraction: baseline=11.85 treated=14.05 slowdown=1.233333333\n"
)


def test_experiment_summary_and_compare_csv(tmp_path, capsys):
    outdirs = {}
    for arm, text in EXPERIMENT_ARMS.items():
        cfg = tmp_path / f"{arm}.cfg"
        cfg.write_text(text)
        outdirs[arm] = str(tmp_path / arm)
        assert main(["experiment", "--config", str(cfg), "--out", outdirs[arm]]) == 0
        assert (tmp_path / arm / "summary.csv").read_text() == SUMMARIES[arm]
    out = tmp_path / "slowdown.csv"
    assert main(["compare", "--baseline", outdirs["baseline"], "--treated", outdirs["treated"],
                 "--out", str(out)]) == 0
    assert out.read_text() == COMPARE_CSV
    assert capsys.readouterr().out == EXPERIMENT_STDOUT.format(**outdirs)


# The request trace of the README walkthrough, and the decision log of each throttle.
THROTTLE_TRACE = "t,dest\n0,1\n0,2\n0.25,1\n0.5,3\n1,4\n1.5,2\n"
THROTTLE_LOGS = {
    "unbounded": ([], "t,dest,decision,delay\n"
                      "0,1,release,0\n0.25,1,admit,0\n1,2,release,1\n"
                      "1.5,2,admit,0\n2,3,release,1.5\n3,4,release,2\n"),
    "queue1": (["--queue-capacity", "1"],
               "t,dest,decision,delay\n"
               "0,1,release,0\n0.25,1,admit,0\n0.5,2,drop,0.5\n"
               "1,3,release,0.5\n1.5,4,drop,0.5\n2,2,release,0.5\n"),
}


@pytest.mark.parametrize("name", sorted(THROTTLE_LOGS))
def test_throttle_demo_log(tmp_path, name):
    flags, expected = THROTTLE_LOGS[name]
    trace = tmp_path / "trace.csv"
    trace.write_text(THROTTLE_TRACE)
    out = tmp_path / "decisions.csv"
    rc = main(["throttle-demo", "--trace", str(trace), "--rate", "1", "--working-set", "4",
               *flags, "--out", str(out)])
    assert rc == 0
    assert out.read_text() == expected


# The README walkthrough's simulate and threshold calls on its generated graph,
# each with the last row of its CSV.
_NEIGHBOR = ["--targeting", "neighbor", "--rate", "40", "--seed-infected", "3"]
_THROTTLE = ["--throttle-rate", "1", "--working-set", "4"]
_RUN = ["--dt", "0.05", "--tmax", "30", "--seed", "7"]
WALKTHROUGH = {
    "fast": (["simulate", *_NEIGHBOR, *_RUN], "269,13.45,2196,2804,0,0,5530"),
    "slow": (["simulate", *_NEIGHBOR, *_THROTTLE, *_RUN], "600,30,4074,926,0,68865,2076"),
    "half": (["simulate", *_NEIGHBOR, "--pinfect", "0.5", *_THROTTLE, *_RUN],
             "600,30,3921,1079,0,88953,1856"),
    "scan": (["simulate", "--targeting", "scan", "--address-space", "10000", "--rate", "40",
              "--seed-infected", "3", *_THROTTLE, "--queue-capacity", "100",
              "--dt", "0.05", "--tmax", "12", "--seed", "7"], "240,12,4429,571,0,29595,397"),
    "targeted": (["threshold", "--strategy", "targeted"],
                 "targeted,0.03125,empirical,0.01,1,0.001"),
    "random": (["threshold", "--strategy", "random", "--trials", "10"],
               "random,0.798828125,empirical,0.01,10,0.001"),
    "analytic": (["threshold", "--strategy", "random", "--method", "analytical"],
                 "random,0.8459036812,analytical,,0,0"),
    "analytic-targeted": (["threshold", "--strategy", "targeted", "--method", "analytical"],
                          "targeted,0.02809714286,analytical,,0,0"),
}


@pytest.fixture(scope="module")
def walkthrough_net(tmp_path_factory):
    path = tmp_path_factory.mktemp("walkthrough") / "net.edges"
    assert main(["generate", "--family", "powerlaw", "--n", "5000", "--alpha", "2.5",
                 "--k-min", "1", "--k-max", "100", "--seed", "1", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("name", WALKTHROUGH)
def test_readme_walkthrough_row(tmp_path, walkthrough_net, name):
    (command, *flags), row = WALKTHROUGH[name]
    out = tmp_path / f"{name}.csv"
    assert main([command, "--graph", str(walkthrough_net), *flags, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == row


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_workloads():
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's seven exactness counts at seed 0, as its traced runs record them;
# threshold-powerlaw runs no epidemic and is checked by its digests only.
EXACTNESS_COUNTS = {
    "outbreak-directed": {
        "requests": 607744, "passed": 437329, "release_calls": 55912, "released": 55912,
        "queue_peak": 121069, "valid_attempts": 12235149, "deliveries": 12120646,
    },
    "throttle-scan": {
        "requests": 2260970, "passed": 1268, "release_calls": 5646, "released": 5646,
        "queue_peak": 1121454, "valid_attempts": 2277696, "deliveries": 23640,
    },
}


@pytest.mark.parametrize("workload", [*sorted(EXACTNESS_COUNTS), "threshold-powerlaw"])
def test_exactness_counts(tmp_path, monkeypatch, workload):
    """Run the workload's seed-0 steps in-process and read the counts from the
    runs' ``HostThrottles.counters`` and their CSVs: ``queued`` peaks at
    queue_peak, every arm's ``admitted`` sums to the deliveries, and an
    unthrottled arm's ``admitted`` counts its valid attempts.  Then every file
    the plan left, its inputs too, has the sha256 that the benchmark records
    for the workload at seed 0."""
    plan = _perfbench_workloads().plan(workload, 0)
    monkeypatch.chdir(tmp_path)
    for name, text in plan.files.items():
        Path(name).write_text(text)
    throttles = []
    init = HostThrottles.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        throttles.append(self)

    monkeypatch.setattr(HostThrottles, "__init__", spy)
    arms = []  # whether each experiment is unthrottled, and its time series
    for step in plan.steps:
        assert main(list(step.argv)) == 0
        if step.command == "experiment":
            _, _, cfg, _, outdir = step.argv
            arms.append((harness.load_config(cfg).throttle is None,
                         TimeSeries.from_csv(Path(outdir) / "rep_000.csv")))
    if workload in EXACTNESS_COUNTS:
        total = {key: sum(h.counters[key] for h in throttles)
                 for key in ("requests", "passed", "release_visits", "released")}
        assert {
            "requests": total["requests"],
            "passed": total["passed"],
            "release_calls": total["release_visits"],
            "released": total["released"],
            "queue_peak": max(int(ts.column("queued").max()) for _, ts in arms),
            "valid_attempts": total["requests"] + sum(
                int(ts.column("admitted").sum()) for unthrottled, ts in arms if unthrottled),
            "deliveries": sum(int(ts.column("admitted").sum()) for _, ts in arms),
        } == EXACTNESS_COUNTS[workload]
    digests = {path.relative_to(tmp_path).as_posix(): _sha(path.read_bytes())
               for path in tmp_path.rglob("*") if path.is_file()}
    with open(PERFBENCH / "baseline" / "digests.json") as fh:
        assert digests == json.load(fh)[workload]["0"]
