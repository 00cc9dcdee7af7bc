import pytest

from wormnet.harness import ExperimentConfig


def _replicate_config(worm, vaccination=None, throttle=None, *,
                      seed_infected=1, dt=0.1, t_max=5.0, seed=0):
    """An ExperimentConfig for ``run_replicate`` on a graph the test builds itself."""
    return ExperimentConfig(
        network_spec=None, graph_path=None, worm=worm, vaccination=vaccination,
        throttle=throttle, replicates=1, dt=dt, t_max=t_max, seed=seed,
        seed_infected=seed_infected,
    )


@pytest.fixture
def replicate_config():
    return _replicate_config
