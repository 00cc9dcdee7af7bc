"""wormnet: malware propagation over contact networks, and what slows it down.

Subpackages: ``netgen`` (network families), ``percolation`` (vaccination
thresholds), ``epidemic`` (propagation engine), ``throttle`` (connection
rate limiting), ``harness`` (experiment batches), ``cli`` (command line).
"""

from .graph import Graph
from .netgen import (
    NetworkSpec,
    build_complete,
    build_configuration_model,
    build_multimodal,
    build_network,
    build_powerlaw,
    sample_powerlaw_degrees,
)
from .percolation import (
    ThresholdResult,
    VaccinationStrategy,
    analytical_threshold,
    empirical_threshold,
    giant_component_fraction,
    vaccinate,
)
from .epidemic import (
    TimeSeries,
    WormBehavior,
    growth_rate,
    run,
    time_to_fraction,
)
from .throttle import ThrottleConfig, ThrottleState, process_trace

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "NetworkSpec",
    "ThresholdResult",
    "ThrottleConfig",
    "ThrottleState",
    "TimeSeries",
    "VaccinationStrategy",
    "WormBehavior",
    "analytical_threshold",
    "build_complete",
    "build_configuration_model",
    "build_multimodal",
    "build_network",
    "build_powerlaw",
    "empirical_threshold",
    "giant_component_fraction",
    "growth_rate",
    "process_trace",
    "run",
    "sample_powerlaw_degrees",
    "time_to_fraction",
    "vaccinate",
]
