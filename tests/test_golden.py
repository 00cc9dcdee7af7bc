"""Golden freeze: sha256 digests of outputs that refactors must reproduce.

Each digest covers the exact bytes a user would get: preset edge lists as
written by ``write_edge_list``, replicate CSVs from ``run_replicate`` over a
matrix of worm x throttle x vaccination settings, and ``wormnet threshold``
CSVs.  A change may update a digest only when it documents the intended
output change.
"""

import dataclasses
import hashlib

import pytest

from wormnet import harness, presets
from wormnet.cli import main
from wormnet.epidemic import WormBehavior
from wormnet.graph import write_edge_list
from wormnet.netgen import build_network
from wormnet.percolation import VaccinationStrategy
from wormnet.throttle import ThrottleConfig


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
def test_replicate_csv(small_net_b, key):
    worm, throttle, vaccination = key
    ts = harness.run_replicate(
        small_net_b, WORMS[worm], VACCINATIONS[vaccination], THROTTLES[throttle],
        2, 0.1, 4.0, 3, 0,
    )
    assert _sha(ts.to_csv_text().encode()) == REPLICATES[key]


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
