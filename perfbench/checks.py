"""Output checks and digests for one workload iteration.

Each check reads the files a step wrote and returns a list of problems; an
empty list means the step's outputs are correct. Only the standard library is
used, so the checks run in the benchmark's parent process without importing
the program under test.
"""

from __future__ import annotations

import csv
import hashlib
import os

SERIES_HEADER = ["tick", "t", "susceptible", "infected", "recovered", "queued", "admitted"]


def check_edges(path, directed, n):
    """The edge list has the expected header, at least one edge, ids < n."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        want = "directed" if directed else "undirected"
        if header != want:
            return [f"{path}: header {header!r}, want {want!r}"]
        edges = 0
        for lineno, line in enumerate(fh, start=2):
            u, v = (int(x) for x in line.split())
            if not (0 <= u < n and 0 <= v < n):
                return [f"{path}:{lineno}: node id outside [0, {n})"]
            edges += 1
    return [] if edges else [f"{path}: no edges"]


def check_series(path, n):
    """Every row has S+I+R = n, and infected never decreases."""
    problems = []
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header != SERIES_HEADER:
            return [f"{path}: header {header!r}"]
        last_infected = 0
        count = 0
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(SERIES_HEADER):
                return [f"{path}:{lineno}: {len(row)} fields"]
            s, i, r = int(row[2]), int(row[3]), int(row[4])
            if s + i + r != n:
                problems.append(f"{path}:{lineno}: S+I+R = {s + i + r}, want {n}")
            if i < last_infected:
                problems.append(f"{path}:{lineno}: infected fell from {last_infected} to {i}")
            last_infected = i
            count += 1
            if len(problems) >= 5:
                break
    if not count:
        problems.append(f"{path}: no rows")
    return problems


def check_experiment(outdir, n):
    reps = sorted(f for f in os.listdir(outdir) if f.startswith("rep_") and f.endswith(".csv"))
    if not reps:
        return [f"{outdir}: no replicate CSVs"]
    problems = []
    for name in reps:
        problems += check_series(os.path.join(outdir, name), n)
    return problems


def check_slowdown(path):
    """The compare table's growth-rate slowdown exceeds 1."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = {row["metric"]: row for row in csv.DictReader(fh)}
    text = rows.get("growth_rate", {}).get("slowdown", "missing")
    try:
        slowdown = float(text)
    except ValueError:
        return [f"{path}: growth_rate slowdown is {text!r}"]
    return [] if slowdown > 1.0 else [f"{path}: growth_rate slowdown {slowdown} <= 1"]


def read_fc(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{path}: {len(rows)} rows, want 1")
    return float(rows[0]["f_c"])


def check_fc(path, below=None):
    """f_c lies in [0, 1]; a targeted f_c lies below the paired random one."""
    try:
        f_c = read_fc(path)
        if not 0.0 <= f_c <= 1.0:
            return [f"{path}: f_c = {f_c} outside [0, 1]"]
        if below is not None and not f_c < read_fc(below):
            return [f"{path}: f_c = {f_c} not below {below}"]
    except (ValueError, KeyError) as exc:
        return [f"{path}: {exc}"]
    return []


def check_step(step, workdir, n):
    """Problems with the outputs of one step, checked inside ``workdir``."""
    kind, *args = step.check
    paths = [os.path.join(workdir, a) if isinstance(a, str) else a for a in args]
    try:
        if kind == "edges":
            return check_edges(paths[0], args[1], n)
        if kind == "series":
            return check_experiment(paths[0], n)
        if kind == "slowdown":
            return check_slowdown(paths[0])
        if kind == "fc":
            return check_fc(paths[0], paths[1])
    except (OSError, ValueError) as exc:
        return [f"{kind} check: {exc}"]
    raise ValueError(f"unknown check {kind!r}")


def digests(workdir, skip=()):
    """sha256 of every file under ``workdir`` by relative path, except ``skip``."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(workdir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, workdir)
            if rel in skip:
                continue
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def moved(reference, current):
    """Relative paths whose digest differs between two digest maps."""
    return sorted(p for p in set(reference) | set(current) if reference.get(p) != current.get(p))
