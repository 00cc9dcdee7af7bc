"""wormnet benchmark: run one workload through the CLI and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is taken from
``src/wormnet`` next to this directory, and nothing is installed.

Each iteration is a closed loop: one fresh single-threaded interpreter
(worker.py) calls ``wormnet.cli.main(argv)`` for every step of the workload in
order (see workloads.py). Iterations repeat, at least three, until the next
would end after ``--seconds``; every iteration uses the same seed, so their
output files must be byte-identical. After each iteration the outputs are
checked (checks.py); a step fails on a non-zero exit or a failed check.

End-to-end metrics, medians over the iterations:

* ``setup_s``      interpreter start to the end of the ``generate`` step
* ``run_s``        the analysis steps after ``generate``
* ``wall_s``       interpreter start to exit
* ``cpu_s``        user + system CPU time of the interpreter
* ``peak_rss_mb``  peak resident set size of the interpreter

With ``--trace 1`` the run makes untraced iterations (at least one) while a
traced one would still end within ``--seconds``, then one traced iteration
that wraps each layer's public names (layers.py) and reports per-layer times
and exact counts, plus ``trace.wall_ratio``, the traced iteration's time from
interpreter start to the end of its last step over the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count steps, and their ratio is printed as ``failed_frac`` (it is
not a metric, because it is 0 whenever the program is correct). A fuller record (meta
block, every sample, digests, the span summary) is written to
``.perfbench-work/results/`` at the checkout root. Output digests are compared
with the ones recorded in ``baseline/digests.json`` for the same workload and
seed; a difference is reported as "outputs moved", not as a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE_DIGESTS = os.path.join(HERE, "baseline", "digests.json")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
MIN_ITERATIONS = 3
# a traced iteration takes up to about this many untraced ones
TRACE_COST = 2.5
CHILD_TIMEOUT_S = 170
BOOKKEEPING = {"plan.json", "result.json", "steps.log", "spans.npz", "worker.log"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_iteration(plan, workdir, trace: bool) -> dict:
    """One closed-loop pass over the plan's steps in a fresh interpreter."""
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    for rel, text in plan.files.items():
        with open(os.path.join(workdir, rel), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump({"trace": trace, "steps": [list(s.argv) for s in plan.steps]}, fh)

    with open(os.path.join(workdir, "worker.log"), "w", encoding="utf-8") as log:
        t_spawn = now()
        proc = subprocess.Popen(
            [sys.executable, WORKER, "plan.json", "result.json"],
            cwd=workdir, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t_exit = now()
        proc.returncode = os.waitstatus_to_exitcode(status)

    try:
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {}
    records = result.get("steps", [])

    steps = []
    for i, step in enumerate(plan.steps):
        if i >= len(records):
            problems = [f"not run (worker exit code {proc.returncode})"]
        elif records[i]["rc"] != 0:
            error = records[i]["error"]
            problems = [f"exit code {records[i]['rc']}"
                        + (f": {error.splitlines()[-1]}" if error else "")]
        else:
            problems = checks.check_step(step, workdir, plan.n)
        steps.append({"command": step.command, "problems": problems})

    samples = None
    if len(records) == len(plan.steps):
        samples = {
            "setup_s": records[0]["end"] - t_spawn,
            "run_s": records[-1]["end"] - records[0]["end"],
            "wall_s": t_exit - t_spawn,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
    return {
        "samples": samples,
        "steps": steps,
        "digests": checks.digests(workdir, skip=BOOKKEEPING),
        "result": result,
        "csv_bytes": csv_bytes(workdir),
    }


def csv_bytes(workdir) -> int:
    """Bytes of the experiment CSVs (replicates and summaries) in ``workdir``."""
    total = 0
    for dirpath, _, filenames in os.walk(workdir):
        for name in filenames:
            if name == "summary.csv" or (name.startswith("rep_") and name.endswith(".csv")):
                total += os.path.getsize(os.path.join(dirpath, name))
    return total


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def warm_up() -> None:
    """Import the program once untimed, so bytecode caches exist before timing."""
    subprocess.run(
        [sys.executable, "-c", "import wormnet.cli"], env=child_env(), check=True,
        stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )


def reference_digests(workload, seed):
    try:
        with open(REFERENCE_DIGESTS, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except (OSError, ValueError):
        return None


def measure(plan, seconds: int, trace: bool):
    """Untraced iterations until the budget is spent, then the traced one."""
    workdir = os.path.join(WORK, plan.workload)
    t_start = now()
    untraced = []
    longest = 0.0
    while True:
        t_iteration = now()
        untraced.append(run_iteration(plan, workdir, trace=False))
        longest = max(longest, now() - t_iteration)
        elapsed = now() - t_start
        if trace:
            if elapsed + (1 + TRACE_COST) * longest > seconds:
                break
        elif len(untraced) >= MIN_ITERATIONS and elapsed + longest > seconds:
            break
    traced = run_iteration(plan, workdir, trace=True) if trace else None
    return untraced, traced


def steps_s(samples) -> float:
    """Interpreter start to the end of the last step: the run without the
    traced pass's own bookkeeping after it."""
    return samples["setup_s"] + samples["run_s"]


def per_layer(traced, untraced_samples) -> dict:
    result = traced["result"]
    untraced = statistics.median(steps_s(s) for s in untraced_samples)
    extra = {
        "cli.import_s": result.get("import_s", 0.0),
        "harness.csv_bytes": traced["csv_bytes"],
        "trace.wall_ratio": steps_s(traced["samples"]) / untraced if traced["samples"] else 0.0,
    }
    return layers.metrics(result.get("spans", {}), result.get("counters", {}), extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark must not leave its worker running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "wormnet", "cli.py")):
        print(f"perfbench: no wormnet sources under {SRC}", file=sys.stderr)
        return 2
    plan = workloads.plan(args.workload, args.seed)
    load = os.getloadavg()
    warm_up()
    untraced, traced = measure(plan, args.seconds, bool(args.trace))
    iterations = untraced + ([traced] if traced else [])

    complete = [it["samples"] for it in untraced if it["samples"]]
    if not complete:
        print("perfbench: no iteration ran every step; see .perfbench-work", file=sys.stderr)
        return 1
    medians = {name: statistics.median([s[name] for s in complete]) for name in END_TO_END}
    attempted = sum(len(it["steps"]) for it in iterations)
    failures = [
        f"iteration {i} {step['command']}: {problem}"
        for i, it in enumerate(iterations)
        for step in it["steps"]
        for problem in step["problems"][:1]
    ]
    failed = sum(1 for it in iterations for step in it["steps"] if step["problems"])
    first = iterations[0]["digests"]
    unstable = sorted({p for it in iterations[1:] for p in checks.moved(first, it["digests"])})
    reference = reference_digests(args.workload, args.seed)
    moved = None if reference is None else checks.moved(reference, first)

    meta = {
        "git_sha": git_sha(),
        "versions": iterations[0]["result"].get("versions", {}),
        "nproc": os.cpu_count(),
        "loadavg_start": list(load),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"workload {args.workload}: {len(complete)} untraced iteration(s)")
    for name, unit in END_TO_END.items():
        values = [s[name] for s in complete]
        print(f"  {name:<12} median {medians[name]:10.4f} {unit:<3} "
              f"min {min(values):.4f} max {max(values):.4f} n={len(values)}")
    print(f"  failed_frac  {failed}/{attempted} = {failed / attempted:.4f}")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    if unstable:
        print(f"  NONDETERMINISTIC outputs across same-seed iterations: {', '.join(unstable)}")
    else:
        print(f"  outputs identical across {len(iterations)} same-seed iteration(s): "
              f"{len(first)} files")
    if moved:
        print(f"  outputs moved against baseline/digests.json: {', '.join(moved)}")
    elif moved is not None:
        print("  outputs match baseline/digests.json")

    if traced:
        metrics = per_layer(traced, complete)
        print("per-layer (one traced iteration):")
        for name, value in metrics.items():
            print(f"  {name:<30} {value:>16.6g} {layers.METRICS[name]}")
        report = {name: {"value": v, "unit": layers.METRICS[name]} for name, v in metrics.items()}
    else:
        report = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END.items()}

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = {
        "meta": meta,
        "medians": medians,
        "samples": complete,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "digests": first,
        "nondeterministic": unstable,
        "moved": moved,
        "metrics": report,
        "spans": traced["result"].get("spans") if traced else None,
    }
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
