"""Command-line interface: generate / simulate / threshold / throttle-demo /
experiment / compare."""

from __future__ import annotations

import argparse
import math
import sys

from . import harness
from .graph import format_field, read_edge_list, read_table, table_text, write_edge_list, write_text
from .netgen import GenerationError, build_network
from .percolation import analytical_threshold, empirical_threshold
from .throttle import ThrottleConfig, process_trace


def _sections(args) -> dict:
    """The config sections of the command's flags, each value parsed as on its
    config line."""
    return {name: {key: harness.convert_value(args.command, name, key, value)
                   for key, value in vars(args).items()
                   if key in harness.SECTIONS[name] and value is not None}
            for name in args.sections}


def _cmd_generate(args) -> int:
    master = harness.DEFAULTS["run"]["seed"]
    spec = harness.network_spec(_sections(args)["network"], args.command, master)
    g = build_network(spec)
    write_edge_list(g, args.out)
    print(f"wrote {g!r} to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    """Replicate 0 of the experiment whose ``[network]`` is ``file = --graph``."""
    sections = {**_sections(args), "network": {"file": args.graph}}
    cfg = harness.experiment_config(sections, args.command)
    ts = harness.run_replicate(harness.build_graph(cfg), cfg, 0)
    ts.to_csv(args.out)
    print(f"wrote {len(ts)} rows to {args.out}")
    return 0


def _cmd_threshold(args) -> int:
    g = read_edge_list(args.graph)
    if args.method == "empirical":
        result = empirical_threshold(
            g, args.strategy, s_min=args.s_min, trials=args.trials, seed=args.seed
        )
    else:
        result = analytical_threshold(g.degrees(), args.strategy)
    s_min = "" if result.s_min is None else result.s_min  # an analytical row has none
    write_text(args.out, table_text("strategy,f_c,method,s_min,trials,ci_halfwidth", [
        (result.kind, result.f_c, result.method, s_min, result.trials, result.ci_halfwidth)]))
    print(f"f_c({result.kind}, {result.method}) = {result.f_c:.4g}")
    return 0


def _trace_event(fields) -> tuple[float, int]:
    t_str, dest_str = fields
    if not math.isfinite(t := float(t_str)):
        raise ValueError(t_str)
    return t, int(dest_str)


def _cmd_throttle_demo(args) -> int:
    events = [event for _, event in read_table(args.trace, "t,dest", _trace_event)]
    config = ThrottleConfig(
        rate=args.rate,
        working_set_capacity=args.working_set,
        queue_capacity=args.queue_capacity,
    )
    rows = process_trace(events, config)
    write_text(args.out, table_text("t,dest,decision,delay", rows))
    print(f"wrote {len(rows)} decisions to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = harness.load_config(args.config)
    result = harness.run_experiment(cfg, args.out)
    growth, reach = (format_field(harness.mean_std(values)[0])
                     for values in (result.growth_rates, result.times_to_fraction))
    print(f"{cfg.replicates} replicate(s) -> {args.out}; growth_rate mean = {growth}, "
          f"time_to_{harness.TIME_TO_FRACTION_Q:g} mean = {reach}")
    return 0


def _cmd_compare(args) -> int:
    baseline = harness.load_result(args.baseline)
    treated = harness.load_result(args.treated)
    rows = harness.compare(baseline, treated)
    if args.out:
        harness.write_compare_csv(rows, args.out)
    for row in rows:
        print(f"{row['metric']}: " + " ".join(
            f"{key}={format_field(row[key])}" for key in harness.COMPARE_COLUMNS[1:]))
    return 0


# The config-key flags that are not a plain string flag named after their key.
_FLAG_NAMES = {"degrees_file": "--degree-histogram"}
_FLAG_OPTIONS = {"directed": {"action": "store_const", "const": "true"},
                 "peaks": {"help": "degree:weight,degree:weight,..."}}


def _add_config_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    """Add a flag for each key of ``sections`` but ``file`` (simulate's
    ``--graph``) and ``replicates``: the key spelled with dashes, its dest the
    key.  argparse checks none: ``harness`` does, as for the key's config line."""
    p.set_defaults(sections=sections)
    for section in sections:
        for key in harness.SECTIONS[section]:
            if key not in ("file", "replicates"):
                flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
                p.add_argument(flag, dest=key, **_FLAG_OPTIONS.get(key, {}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wormnet",
        description="Malware propagation simulator and control-strategy toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a network and write an edge list")
    _add_config_flags(p, "network")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="run one propagation and write a time series")
    p.add_argument("--graph", required=True)
    _add_config_flags(p, "worm", "controls", "run")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("threshold", help="estimate the critical vaccination fraction")
    p.add_argument("--graph", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--method", choices=["empirical", "analytical"], default="empirical")
    p.add_argument("--s-min", type=float, dest="s_min", default=0.01)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("throttle-demo", help="run a request trace through a throttle")
    p.add_argument("--trace", required=True)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--working-set", type=int, dest="working_set", default=4)
    p.add_argument("--queue-capacity", type=int, dest="queue_capacity")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_throttle_demo)

    p = sub.add_parser("experiment", help="run a configured batch of replicates")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("compare", help="slowdown table between two experiment dirs")
    p.add_argument("--baseline", required=True)
    p.add_argument("--treated", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GenerationError, OSError, MemoryError) as exc:
        print(f"wormnet: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
