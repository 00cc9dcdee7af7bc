"""Run one workload iteration in this (fresh) interpreter.

    python3 worker.py PLAN_JSON RESULT_JSON

Imports ``wormnet.cli`` and calls ``wormnet.cli.main(argv)`` for each step of
the plan in order, in the current directory. Step ends are stamped with
CLOCK_MONOTONIC, which the parent process shares, so the parent can time set-up
from the moment it started this interpreter. With ``"trace": true`` the
program's layer boundaries are wrapped (see layers.py) and the per-layer
metrics are added to the result.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_steps(cli, steps, log, tracer):
    records = []
    for argv in steps:
        error = None
        span = tracer.span(f"cli.{argv[0]}") if tracer is not None else contextlib.nullcontext()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), span:
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                rc = 1
                error = traceback.format_exc()
                log.write(error)
        records.append({"command": argv[0], "rc": rc, "end": now(), "error": error})
    return records


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = now()
    import wormnet.cli as cli

    import_s = now() - t0
    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    tracer = None
    if plan["trace"]:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    try:
        with open("steps.log", "w", encoding="utf-8") as log:
            result["steps"] = run_steps(cli, plan["steps"], log, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        tracer.save("spans.npz")
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
