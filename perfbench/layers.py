"""Which program names the traced pass wraps, and the per-layer metrics.

Names are wrapped where the program looks them up: ``wormnet.cli.read_edge_list``
and ``wormnet.harness.read_edge_list`` are separate bindings of one function,
and methods are patched on their classes. Nothing in ``src/`` is edited; the
wrappers live only in the traced interpreter and are removed before it
reports.
"""

from __future__ import annotations

import importlib

# Per-layer metrics in report order, with their units.
METRICS = {
    "graph.init_s": "s",
    "graph.init_edges": "count",
    "graph.init_ns_per_edge": "ns",
    "graph.read_s": "s",
    "graph.read_edges": "count",
    "graph.read_ns_per_edge": "ns",
    "graph.write_s": "s",
    "graph.write_ns_per_edge": "ns",
    "graph.adjacency_s": "s",
    "netgen.build_s": "s",
    "netgen.stubs": "count",
    "netgen.ns_per_stub": "ns",
    "percolation.threshold_s": "s",
    "percolation.giant_calls": "count",
    "percolation.giant_s": "s",
    "percolation.ms_per_giant_call": "ms",
    "percolation.analytical_s": "s",
    "epidemic.init_s": "s",
    "epidemic.init_calls": "count",
    "epidemic.step_s": "s",
    "epidemic.ticks": "count",
    "epidemic.valid_attempts": "count",
    "epidemic.us_per_attempt": "us",
    "epidemic.us_per_tick": "us",
    "epidemic.deliveries": "count",
    "throttle.requests": "count",
    "throttle.request_s": "s",
    "throttle.ns_per_request": "ns",
    "throttle.passed": "count",
    "throttle.pass_ratio": "ratio",
    "throttle.release_calls": "count",
    "throttle.released": "count",
    "throttle.release_s": "s",
    "throttle.queue_peak": "count",
    "harness.load_config_s": "s",
    "harness.replicate_calls": "count",
    "harness.experiment_self_s": "s",
    "harness.csv_bytes": "bytes",
    "harness.load_result_s": "s",
    "harness.compare_s": "s",
    "cli.import_s": "s",
    "cli.generate_s": "s",
    "cli.experiment_s": "s",
    "cli.compare_s": "s",
    "cli.threshold_s": "s",
    "trace.wall_ratio": "ratio",
}


def _count_init_edges(c, args, result):
    c["graph.init_edges"] += args[0].num_edges


def _count_read_edges(c, args, result):
    c["graph.read_edges"] += result.num_edges


def _count_write_edges(c, args, result):
    c["graph.write_edges"] += args[0].num_edges


def _count_stubs(c, args, result):
    # every generated graph matches its degree sequence exactly: 2 stubs per edge
    c["netgen.stubs"] += 2 * result.num_edges


def _count_step(queued_col, admitted_col):
    def count(c, args, result):
        c["epidemic.deliveries"] += result[admitted_col]
        if args[0].throttle_config is None:
            c["epidemic.unthrottled_deliveries"] += result[admitted_col]
        c["throttle.queue_peak"] = max(c["throttle.queue_peak"], result[queued_col])

    return count


def _count_passed(admitted_type):
    def count(c, args, result):
        if isinstance(result, admitted_type):
            c["throttle.passed"] += 1

    return count


def _count_released(c, args, result):
    c["throttle.released"] += len(result)


def targets():
    """``(owner, attribute, span name, counter)`` for every wrapped name."""
    mod = importlib.import_module
    cli, graph, harness = mod("wormnet.cli"), mod("wormnet.graph"), mod("wormnet.harness")
    epidemic, percolation, throttle = (
        mod("wormnet.epidemic"), mod("wormnet.percolation"), mod("wormnet.throttle"))
    columns = epidemic.CSV_HEADER.split(",")
    return [
        (graph.Graph, "__init__", "graph.init", _count_init_edges),
        (graph.Graph, "out_adjacency", "graph.adjacency", None),
        (cli, "read_edge_list", "graph.read", _count_read_edges),
        (harness, "read_edge_list", "graph.read", _count_read_edges),
        (cli, "write_edge_list", "graph.write", _count_write_edges),
        (cli, "build_network", "netgen.build", _count_stubs),
        (harness, "build_network", "netgen.build", _count_stubs),
        (cli, "empirical_threshold", "percolation.threshold", None),
        (percolation, "giant_component_fraction", "percolation.giant", None),
        (cli, "analytical_threshold", "percolation.analytical", None),
        (epidemic.Simulation, "__init__", "epidemic.init", None),
        (epidemic.Simulation, "step", "epidemic.step",
         _count_step(columns.index("queued"), columns.index("admitted"))),
        (throttle.ThrottleState, "request", "throttle.request",
         _count_passed(throttle.Admitted)),
        (throttle.ThrottleState, "tick", "throttle.release", _count_released),
        (harness, "load_config", "harness.load_config", None),
        (harness, "run_experiment", "harness.experiment", None),
        (harness, "run_replicate", "harness.replicate", None),
        (harness, "load_result", "harness.load_result", None),
        (harness, "compare", "harness.compare", None),
    ]


def install(tracer) -> None:
    for owner, attr, name, count in targets():
        tracer.patch(owner, attr, name, count)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def metrics(summary, counters, extra):
    """Per-layer metrics from a span summary, the counters, and ``extra``
    (``cli.import_s``, ``harness.csv_bytes`` and ``trace.wall_ratio``, which
    the benchmark measures outside the spans). A ratio with a zero
    denominator reads 0: that layer did no work on this workload."""

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    c = counters
    requests = calls("throttle.request")
    valid = c.get("epidemic.unthrottled_deliveries", 0) + requests
    step_total = total("epidemic.step")
    out = {
        "graph.init_s": total("graph.init"),
        "graph.init_edges": c.get("graph.init_edges", 0),
        "graph.init_ns_per_edge": _ratio(total("graph.init"), c.get("graph.init_edges", 0), 1e9),
        "graph.read_s": total("graph.read"),
        "graph.read_edges": c.get("graph.read_edges", 0),
        "graph.read_ns_per_edge": _ratio(total("graph.read"), c.get("graph.read_edges", 0), 1e9),
        "graph.write_s": total("graph.write"),
        "graph.write_ns_per_edge": _ratio(total("graph.write"), c.get("graph.write_edges", 0), 1e9),
        "graph.adjacency_s": total("graph.adjacency"),
        "netgen.build_s": own("netgen.build"),
        "netgen.stubs": c.get("netgen.stubs", 0),
        "netgen.ns_per_stub": _ratio(own("netgen.build"), c.get("netgen.stubs", 0), 1e9),
        "percolation.threshold_s": total("percolation.threshold"),
        "percolation.giant_calls": calls("percolation.giant"),
        "percolation.giant_s": total("percolation.giant"),
        "percolation.ms_per_giant_call": _ratio(
            total("percolation.giant"), calls("percolation.giant"), 1e3),
        "percolation.analytical_s": total("percolation.analytical"),
        "epidemic.init_s": total("epidemic.init"),
        "epidemic.init_calls": calls("epidemic.init"),
        "epidemic.step_s": own("epidemic.step"),
        "epidemic.ticks": calls("epidemic.step"),
        "epidemic.valid_attempts": valid,
        # per-unit costs use the step's whole time, throttle calls included
        "epidemic.us_per_attempt": _ratio(step_total, valid, 1e6),
        "epidemic.us_per_tick": _ratio(step_total, calls("epidemic.step"), 1e6),
        "epidemic.deliveries": c.get("epidemic.deliveries", 0),
        "throttle.requests": requests,
        "throttle.request_s": total("throttle.request"),
        "throttle.ns_per_request": _ratio(total("throttle.request"), requests, 1e9),
        "throttle.passed": c.get("throttle.passed", 0),
        "throttle.pass_ratio": _ratio(c.get("throttle.passed", 0), requests),
        "throttle.release_calls": calls("throttle.release"),
        "throttle.released": c.get("throttle.released", 0),
        "throttle.release_s": total("throttle.release"),
        "throttle.queue_peak": c.get("throttle.queue_peak", 0),
        "harness.load_config_s": total("harness.load_config"),
        "harness.replicate_calls": calls("harness.replicate"),
        "harness.experiment_self_s": own("harness.experiment"),
        "harness.load_result_s": total("harness.load_result"),
        "harness.compare_s": total("harness.compare"),
    }
    for command in ("generate", "experiment", "compare", "threshold"):
        out[f"cli.{command}_s"] = total(f"cli.{command}")
    out.update(extra)
    return {name: out[name] for name in METRICS}
