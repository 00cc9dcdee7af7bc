"""Experiment configuration, batch execution, and comparison.

Experiments are described by flat ``key = value`` files with bracketed
sections (see ``load_config``).  A run writes one TimeSeries CSV per
replicate plus the fully resolved configuration and derived seeds, so every
output directory is self-describing and byte-reproducible.

Seed scheme: replicate i draws all its randomness from numpy's
``SeedSequence([master_seed, i])``, split into independent child streams for
vaccination, seed-node choice, and propagation.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .epidemic import TimeSeries, WormBehavior, growth_rate, run, time_to_fraction
from .graph import Graph, read_edge_list, table_text, text_lines, write_text
from .netgen import NetworkSpec, build_network, preset
from .percolation import VaccinationStrategy, vaccinate
from .throttle import ThrottleConfig


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


# Each config section's keys and their types; the CLI's flags are these keys.
SECTIONS = {
    "network": {
        "preset": str,
        "family": str,
        "file": str,
        "n": int,
        "alpha": float,
        "k_min": int,
        "k_max": int,
        "directed": bool,
        "peaks": "peaks",
        "degrees_file": str,
        "seed": int,
    },
    "worm": {
        "targeting": str,
        "rate": float,
        "pinfect": float,
        "address_space": int,
    },
    "controls": {
        "vaccinate": str,
        "fraction": float,
        "throttle_rate": float,
        "working_set": int,
        "queue_capacity": int,
    },
    "run": {
        "replicates": int,
        "dt": float,
        "tmax": float,
        "seed": int,
        "seed_infected": int,
    },
}

# Fraction of nodes whose first infection time an experiment summarises.
TIME_TO_FRACTION_Q = 0.95

# The value of each key that has one when a config leaves it out.
DEFAULTS = {
    "worm": {"pinfect": 1.0},
    "controls": {"working_set": 4},
    "run": {"replicates": 1, "dt": 0.1, "tmax": 60.0, "seed": 0, "seed_infected": 1},
}

# The [controls] key that each [controls] key needs beside it: a setting of a
# control that is not applied would be ignored.
_CONTROL_NEEDS = {
    "vaccinate": "fraction",
    "fraction": "vaccinate",
    "working_set": "throttle_rate",
    "queue_capacity": "throttle_rate",
}


@dataclass(frozen=True)
class ExperimentConfig:
    network_spec: NetworkSpec | None
    graph_path: str | None
    worm: WormBehavior
    vaccination: VaccinationStrategy | None
    throttle: ThrottleConfig | None
    replicates: int
    dt: float
    t_max: float
    seed: int
    seed_infected: int
    resolved: dict = dataclasses.field(default_factory=dict, compare=False)


@dataclass
class ExperimentResult:
    """Each replicate's growth rate and time to TIME_TO_FRACTION_Q, None where it
    has none."""

    config: ExperimentConfig
    growth_rates: list[float | None]
    times_to_fraction: list[float | None]


def _parse_kv_file(path) -> dict[str, dict]:
    """The typed values of a config file, one dict per section of ``SECTIONS``; each
    value is converted on its line, so an error names the first bad line.  Only a
    whole line whose first non-blank character is ``#`` is a comment."""
    sections: dict[str, dict] = {s: {} for s in SECTIONS}
    current = None
    for lineno, text in text_lines(path):
        if not text or text.startswith("#"):
            continue
        if text.startswith("[") and text.endswith("]"):
            current = text[1:-1].strip()
            if current not in SECTIONS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in SECTIONS[current]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[current][key] = convert_value(f"{path}:{lineno}", current, key, value)
    return sections


def convert_value(where, section, key, value):
    """Parse the text ``value`` of ``key`` in ``section`` to its config type.

    ``where`` prefixes the error message (``path:lineno`` for a file).
    """
    typ = SECTIONS[section][key]
    try:
        if typ is int:
            return int(value)
        if typ is float:
            return float(value)
        if typ is bool:
            if value.lower() in ("true", "yes", "1"):
                return True
            if value.lower() in ("false", "no", "0"):
                return False
            raise ValueError(value)
        if typ == "peaks":
            peaks = []
            for item in value.split(","):
                d, w = item.split(":")
                peaks.append((int(d), float(w)))
            return tuple(peaks)
        return value
    except (ValueError, TypeError):
        raise ConfigError(f"{where}: bad value {value!r} for key {key!r}") from None


# Each section's fields that are named apart from their config keys, with the key:
# an error that starts with such a field names the key a user wrote instead.
_KEYS = {"worm": {"attempt_rate": "rate", "infection_probability": "pinfect"},
         "controls": {"rate": "throttle_rate", "working_set_capacity": "working_set"}}


def _checked(where, section, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with the ValueError it raises reported as a
    ConfigError in ``[section]`` at ``where``, naming the key of a field."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        field, space, rest = str(exc).partition(" ")
        key = _KEYS.get(section, {}).get(field, field)
        raise ConfigError(f"{where}: [{section}] {key}{space}{rest}") from None


def network_spec(net: dict, where, master: int) -> NetworkSpec | None:
    """The NetworkSpec of a ``[network]`` section, or None when it names a file.

    Exactly one of preset/family/file must be given, and a file takes no other
    key; ``netgen.preset`` and ``NetworkSpec`` decide which keys a preset and a
    family take.  A family's seed defaults to the run's ``master`` seed.  No file
    is opened: a named graph or histogram is read when the graph is built.
    """
    sources = [k for k in ("preset", "family", "file") if k in net]
    if len(sources) != 1:
        raise ConfigError(
            f"{where}: [network] requires exactly one of preset/family/file, got {sources}"
        )
    source = sources[0]
    rest = {key: value for key, value in net.items() if key != source}
    if source == "file":
        if rest:
            raise ConfigError(f"{where}: [network] file does not take {sorted(rest)}")
        return None
    if source == "preset":
        return _checked(where, "network", preset, net["preset"], **rest)
    # a family's keys are its spec's fields
    return _checked(where, "network", NetworkSpec, **{"seed": master, **net})


def load_config(path) -> ExperimentConfig:
    """Parse and validate the config file ``path``, and open no other file; it is read
    by ``text_lines``, as every input is.  See ``experiment_config``."""
    return experiment_config(_parse_kv_file(path), path)


def experiment_config(values: dict[str, dict], where) -> ExperimentConfig:
    """The ExperimentConfig of parsed config sections, one dict per section, with
    the documented defaults filled in; ``where`` prefixes every error."""
    net, worm_sec, ctl, run_sec = ({**DEFAULTS.get(s, {}), **values[s]} for s in SECTIONS)
    if not 0 < run_sec["dt"] < np.inf:
        raise ConfigError(f"{where}: [run] dt must be > 0 and finite, got {run_sec['dt']}")
    if not run_sec["tmax"] > 0:
        raise ConfigError(f"{where}: [run] tmax must be > 0, got {run_sec['tmax']}")
    if run_sec["seed"] < 0:
        raise ConfigError(f"{where}: [run] seed must be >= 0, got {run_sec['seed']}")
    for key in ("replicates", "seed_infected"):
        if run_sec[key] < 1:
            raise ConfigError(f"{where}: [run] {key} must be >= 1, got {run_sec[key]}")
    spec = network_spec(net, where, run_sec["seed"])
    for required in ("targeting", "rate"):
        if required not in worm_sec:
            raise ConfigError(f"{where}: [worm] missing required key {required!r}")
    worm = _checked(where, "worm", WormBehavior, targeting=worm_sec["targeting"],
                    attempt_rate=worm_sec["rate"], infection_probability=worm_sec["pinfect"],
                    address_space=worm_sec.get("address_space"))
    # the keys given, not the defaults: working_set has one
    for key, needed in _CONTROL_NEEDS.items():
        if key in values["controls"] and needed not in values["controls"]:
            raise ConfigError(f"{where}: [controls] {key} requires {needed!r}")
    vaccination = throttle = None
    if "vaccinate" in ctl:
        vaccination = _checked(where, "controls", VaccinationStrategy,
                               ctl["vaccinate"], ctl["fraction"])
    if "throttle_rate" in ctl:
        throttle = _checked(where, "controls", ThrottleConfig, rate=ctl["throttle_rate"],
                            working_set_capacity=ctl["working_set"],
                            queue_capacity=ctl.get("queue_capacity"))

    resolved = {
        "network": dict(sorted(net.items())),
        "worm": dict(sorted(worm_sec.items())),
        # working_set's default is recorded only with the throttle it configures
        "controls": dict(sorted((ctl if throttle else values["controls"]).items())),
        "run": dict(sorted(run_sec.items())),
    }

    return ExperimentConfig(
        network_spec=spec,
        graph_path=net.get("file"),
        worm=worm,
        vaccination=vaccination,
        throttle=throttle,
        replicates=run_sec["replicates"],
        dt=run_sec["dt"],
        t_max=run_sec["tmax"],
        seed=run_sec["seed"],
        seed_infected=run_sec["seed_infected"],
        resolved=resolved,
    )


def build_graph(cfg: ExperimentConfig) -> Graph:
    """The graph of ``cfg``: its edge list read, or its network generated."""
    if cfg.graph_path is not None:
        return read_edge_list(cfg.graph_path)
    return build_network(cfg.network_spec)


def run_replicate(g: Graph, cfg: ExperimentConfig, replicate: int) -> TimeSeries:
    """Replicate ``replicate`` of ``cfg`` on ``g``; all its randomness derives
    from (``cfg.seed``, ``replicate``)."""
    ss = np.random.SeedSequence([cfg.seed, replicate])
    vacc_ss, init_ss, run_ss = ss.spawn(3)
    vaccinated = np.empty(0, dtype=np.int64)
    if cfg.vaccination is not None:
        vaccinated = vaccinate(g, cfg.vaccination, seed=np.random.default_rng(vacc_ss))
    candidates = np.setdiff1d(np.arange(g.n), vaccinated)
    if len(candidates) < cfg.seed_infected:
        raise ValueError("not enough unvaccinated nodes to seed the infection: "
                         f"[run] seed_infected = {cfg.seed_infected}, "
                         f"{len(candidates)} unvaccinated")
    init_rng = np.random.default_rng(init_ss)
    init = init_rng.choice(candidates, size=cfg.seed_infected, replace=False)
    return run(
        g,
        cfg.worm,
        init_infected=init,
        vaccinated=vaccinated,
        throttle=cfg.throttle,
        dt=cfg.dt,
        t_max=cfg.t_max,
        seed=np.random.default_rng(run_ss),
    )


def _format_float(v: float) -> str:
    """``v`` to 10 significant digits when that reads back as ``v``, else exactly."""
    text = f"{v:.10g}"
    return text if float(text) == v else repr(v)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _format_float(v)
    if isinstance(v, tuple):  # peaks
        return ",".join(f"{d}:{_format_float(w)}" for d, w in v)
    return str(v)


def _replicate_csv(outdir: str, i: int) -> str:
    """The path of replicate ``i``'s time series in an experiment directory."""
    return os.path.join(outdir, f"rep_{i:03d}.csv")


def write_resolved_config(cfg: ExperimentConfig, path: str) -> None:
    """Echo the fully resolved configuration (provenance record)."""
    lines = []
    for section in SECTIONS:
        entries = cfg.resolved.get(section, {})
        if not entries:
            continue
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    lines.append("# replicate i uses numpy SeedSequence([seed, i])")
    write_text(path, "\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig, outdir: str) -> ExperimentResult:
    """Execute all replicates, then write CSVs and a summary to ``outdir``; a
    replicate that fails leaves ``outdir`` untouched."""
    g = build_graph(cfg)
    series = [run_replicate(g, cfg, i) for i in range(cfg.replicates)]
    os.makedirs(outdir, exist_ok=True)
    write_resolved_config(cfg, os.path.join(outdir, "resolved.cfg"))
    for i, ts in enumerate(series):
        ts.to_csv(_replicate_csv(outdir, i))
    result = summarize(cfg, series)
    columns = (result.growth_rates, result.times_to_fraction)
    rows = [(i, *values) for i, values in enumerate(zip(*columns))]
    rows += zip(("mean", "std"), *map(mean_std, columns))  # over the replicates that have one
    write_text(os.path.join(outdir, "summary.csv"),
               table_text("replicate,growth_rate,time_to_fraction", rows))
    return result


def summarize(cfg: ExperimentConfig, series: list[TimeSeries]) -> ExperimentResult:
    """Growth rate and time to TIME_TO_FRACTION_Q of each replicate."""
    rates: list[float | None] = []
    times: list[float | None] = []
    for ts in series:
        try:
            rates.append(growth_rate(ts))
        except ValueError:
            rates.append(None)
        times.append(time_to_fraction(ts, TIME_TO_FRACTION_Q))
    return ExperimentResult(cfg, rates, times)


def mean_std(values) -> tuple[float | None, float | None]:
    """The mean and standard deviation of the values that are not None, or
    (None, None) when every value is."""
    vals = [v for v in values if v is not None]
    return (float(np.mean(vals)), float(np.std(vals))) if vals else (None, None)


def load_result(outdir: str) -> ExperimentResult:
    """Reconstruct an ExperimentResult from a finished output directory: its
    ``resolved.cfg`` and the ``[run] replicates`` CSVs that ``run_experiment``
    wrote, and no other file; opens no network file."""
    cfg = load_config(os.path.join(outdir, "resolved.cfg"))
    return summarize(cfg, [TimeSeries.from_csv(_replicate_csv(outdir, i))
                           for i in range(cfg.replicates)])


def compare(baseline: ExperimentResult, treated: ExperimentResult) -> list[dict]:
    """Slowdown table of treated relative to baseline.

    Refuses to compare runs whose network or worm settings differ, or whose
    replicates are not paired: ``[run]`` ``tmax`` alone may differ.  The
    controls must differ (otherwise there is nothing to compare).
    """
    a, b = baseline.config.resolved, treated.config.resolved
    if a.get("network", {}) != b.get("network", {}):
        raise ValueError("cannot compare: experiments use different networks")
    if a.get("worm", {}) != b.get("worm", {}):
        raise ValueError("cannot compare: experiments use different worm behavior")
    run_a, run_b = a.get("run", {}), b.get("run", {})
    for key in ("dt", "seed", "replicates", "seed_infected"):
        if run_a.get(key) != run_b.get(key):
            raise ValueError(f"cannot compare: experiments use different [run] {key} "
                             f"({run_a.get(key)} and {run_b.get(key)})")
    if a.get("controls", {}) == b.get("controls", {}):
        raise ValueError("cannot compare: experiments apply identical controls")

    rows = []
    gb = mean_std(baseline.growth_rates)[0]
    gt = mean_std(treated.growth_rates)[0]
    rows.append({
        "metric": "growth_rate",
        "baseline": gb,
        "treated": gt,
        "slowdown": (gb / gt) if (gb is not None and gt not in (None, 0.0)) else None,
    })
    # per-replicate ratio keeps paired seeds together
    ratios = [
        t / b
        for b, t in zip(baseline.times_to_fraction, treated.times_to_fraction)
        if b not in (None, 0.0) and t is not None
    ]
    rows.append({
        "metric": "time_to_fraction",
        "baseline": mean_std(baseline.times_to_fraction)[0],
        "treated": mean_std(treated.times_to_fraction)[0],
        "slowdown": float(np.mean(ratios)) if ratios else None,
    })
    return rows


COMPARE_COLUMNS = ("metric", "baseline", "treated", "slowdown")


def write_compare_csv(rows: list[dict], path: str) -> None:
    write_text(path, table_text(",".join(COMPARE_COLUMNS),
                                ([row[k] for k in COMPARE_COLUMNS] for row in rows)))
