"""Discrete-time worm propagation engine.

Dynamics are SI with a fixed tick length: every infected node generates a
Poisson number of connection attempts per tick, each aimed either at a random
graph neighbor or at a random address in a scan space.  Vaccinated nodes are
permanently immune.  An optional per-node throttle delays attempts to new
destinations; queued attempts deliver on the tick their release falls due.

Runs are fully deterministic given (graph, worm, controls, seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, ParseError, int64_array, read_table, table_text, write_text
from .throttle import ClockError, HostThrottles, ThrottleConfig

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2

NEIGHBOR = "neighbor"
SCAN = "scan"

CSV_HEADER = "tick,t,susceptible,infected,recovered,queued,admitted"

# Per-node cap on one tick's attempts, against pathological rate * dt products.
MAX_ATTEMPTS_PER_TICK = 1_000_000


@dataclass(frozen=True)
class WormBehavior:
    """How the worm picks targets and how aggressively it connects.

    ``attempt_rate`` is new-connection attempts per second per infected node.
    ``address_space`` (scan targeting only) defaults to the node count;
    addresses >= n miss.
    """

    targeting: str
    attempt_rate: float
    infection_probability: float = 1.0
    address_space: int | None = None

    def __post_init__(self):
        if self.targeting not in (NEIGHBOR, SCAN):
            raise ValueError(f"unknown targeting {self.targeting!r}; available: {NEIGHBOR}, {SCAN}")
        if not 0 < self.attempt_rate < np.inf:
            raise ValueError("attempt_rate must be > 0 and finite")
        if not 0.0 < self.infection_probability <= 1.0:
            raise ValueError("infection_probability must lie in (0, 1]")
        if self.address_space is not None and self.targeting != SCAN:
            raise ValueError("address_space applies to scan targeting only")


class TimeSeries:
    """Per-tick counts of the run; serializes to a fixed-header CSV."""

    def __init__(self, rows=None):
        self.rows: list[tuple[int, float, int, int, int, int, int]] = list(rows or [])

    def append(self, row) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        idx = CSV_HEADER.split(",").index(name)
        dtype = float if name == "t" else np.int64
        return np.array([r[idx] for r in self.rows], dtype=dtype)

    @property
    def n(self) -> int:
        tick, t, s, i, r, q, a = self.rows[0]
        return s + i + r

    def to_csv_text(self) -> str:
        return table_text(CSV_HEADER, self.rows)

    def to_csv(self, path) -> None:
        write_text(path, self.to_csv_text())

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        """The series of a ``to_csv`` file; a bad row, or a tick, ``t`` or S+I+R that
        breaks the series, fails as ParseError naming its line in the file."""
        rows = read_table(path, CSV_HEADER, _series_row)
        if not rows:
            raise ParseError(path, 2, "no rows after the header")
        n = sum(rows[0][1][2:5])
        for (_, prev), (lineno, row) in zip(rows, rows[1:]):
            if row[0] <= prev[0]:
                raise ParseError(path, lineno, f"tick {row[0]} does not follow tick {prev[0]}")
            if row[1] < prev[1]:
                raise ParseError(path, lineno, f"t {row[1]:.10g} goes back from {prev[1]:.10g}")
            if sum(row[2:5]) != n:
                raise ParseError(path, lineno, f"susceptible + infected + recovered is "
                                               f"{sum(row[2:5])}, not the first row's {n}")
        return cls(row for _, row in rows)


def _series_row(fields) -> tuple[int, float, int, int, int, int, int]:
    tick, t, s, i, r, q, a = fields
    row = (int(tick), float(t), int(s), int(i), int(r), int(q), int(a))
    if not math.isfinite(row[1]) or min(row) < 0:
        raise ValueError
    return row


class Simulation:
    """One deterministic propagation run, advanced tick by tick.

    A tick's deliveries (unthrottled attempts, working-set passes and queue
    releases) are gathered as ``(dest, ok)`` arrays and applied once, as a
    set, at the end of the tick; no request or release reads the
    compartments, so the result does not depend on delivery order.

    ``horizon`` is the time of the last tick the caller will make, and
    ``step`` raises past it; a throttled run's ``throttles``, one
    ``HostThrottles``, get it too.

    The seeds are ``_infect``'s first hits, at t = 0, and ``_infected`` lists
    the infected hosts in infection order.  ``_sus_out`` counts each node's
    susceptible out-neighbours, and ``_spreaders`` holds the ascending positions
    in ``_infected`` of the hosts with one (neighbour worm only); the run is
    exhausted when there is none, or, for a scan worm, when no host is infected
    or none is susceptible.  ``_sinks`` counts the infected hosts that make no
    valid attempt: a neighbour worm's hosts without out-neighbours (none for a
    scan worm).  Every worm and throttle arm draws, gathers and filters its
    attempts through the same lines of ``step``; they differ only in which
    hosts' attempts the gather keeps, and a throttled run alone passes them
    through ``throttles``.
    """

    def __init__(
        self,
        g: Graph,
        worm: WormBehavior,
        *,
        init_infected,
        vaccinated=(),
        throttle: ThrottleConfig | None = None,
        dt: float = 0.1,
        seed=0,
        horizon: float = math.inf,
    ):
        if not 0 < dt < np.inf:
            raise ValueError("dt must be > 0 and finite")
        if not horizon > 0:  # NaN fails too
            raise ValueError("horizon must be > 0")
        vaccinated = np.unique(int64_array(vaccinated))
        init_infected = np.unique(int64_array(init_infected))
        if np.isin(init_infected, vaccinated).any():
            raise ValueError("seed-infected nodes overlap the vaccinated set")
        ids = np.union1d(init_infected, vaccinated)
        bad = ids[(ids < 0) | (ids >= g.n)]
        if len(bad):
            raise ValueError(f"node id {bad[0]} out of range")

        self.g = g
        self.worm = worm
        self.dt = float(dt)
        self.horizon = float(horizon)
        self.tick_index = 0
        self.throttle_config = throttle
        self.rng = np.random.default_rng(seed)

        self.compartments = np.zeros(g.n, dtype=np.int8)
        self.compartments[vaccinated] = RECOVERED
        self.n_susceptible = g.n - len(vaccinated)
        self.n_infected = 0
        self.n_recovered = len(vaccinated)
        self._infected = self._spreaders = np.zeros(0, dtype=np.int64)
        self._sinks = 0

        if worm.targeting == NEIGHBOR:
            self._indptr, self._adj = g.out_adjacency
            self._out_deg = np.diff(self._indptr)
            rows = np.repeat(np.arange(g.n), self._out_deg)
            sus = self.compartments[self._adj] == SUSCEPTIBLE
            self._sus_out = np.bincount(rows[sus], minlength=g.n)
        else:
            self.address_space = g.n if worm.address_space is None else int(worm.address_space)
            if self.address_space < g.n:
                raise ValueError("address_space must be >= n")

        self.throttles = None if throttle is None else HostThrottles(throttle, g.n, self.horizon)
        self._infect(init_infected, 0.0)

    def step(self) -> tuple[int, float, int, int, int, int, int]:
        """Advance one tick; return the resulting TimeSeries row.

        Every arm takes one path.  Each infected host draws its attempts; a
        scan worm's are all valid, and a neighbour worm's host without
        out-neighbours (a sink) makes none.  The gather keeps every valid
        attempt when throttled, since each must reach its source's throttle,
        and otherwise a neighbour worm's spreaders' only (the positions in
        ``_spreaders``, which ``_infect`` keeps), since an idle host's targets
        are all infected or vaccinated.  While no infected host is a sink, a
        throttled or scan tick keeps every draw whole; otherwise one ranged
        gather picks the kept hosts' draws.  The gathered attempts draw
        their targets and success flags.  Without a throttle they are
        delivered, and ``admitted`` counts every valid attempt, gathered or
        not: all drawn attempts while there is no sink.  With one,
        ``admitted`` counts the working-set passes and queue releases that
        ``throttles`` returns.  The tick's deliveries are applied together at
        the end, as a set, by ``_infect``; ``row`` builds the returned row.
        """
        t = (self.tick_index + 1) * self.dt
        if t > self.horizon:
            raise ClockError(f"tick at t={t} passes the horizon {self.horizon}")
        self.tick_index += 1
        worm = self.worm
        rng = self.rng
        throttled = self.throttles is not None
        neighbor = worm.targeting == NEIGHBOR
        snapshot = self._infected

        # a draw of size 0 leaves the generator as it was
        counts = rng.poisson(worm.attempt_rate * self.dt, size=len(snapshot))
        if counts.max(initial=0) > MAX_ATTEMPTS_PER_TICK:
            counts = np.minimum(counts, MAX_ATTEMPTS_PER_TICK)
        total = int(counts.sum())

        if not self._sinks and (throttled or not neighbor):  # every attempt is kept
            sources, pos = np.repeat(snapshot, counts), slice(None)
        else:
            active = np.flatnonzero(self._out_deg[snapshot] > 0) if throttled else self._spreaders
            lens = counts[active]
            pos = _ranges(np.cumsum(counts)[active] - lens, lens)
            sources = np.repeat(snapshot[active], lens)
        if neighbor:
            targets = self._pick(sources, rng.random(total)[pos])
        else:
            targets = rng.integers(0, self.address_space, size=total)[pos]
        if worm.infection_probability < 1.0:
            ok = rng.random(total)[pos] < worm.infection_probability
        else:
            ok = np.ones(len(sources), dtype=bool)

        if throttled:
            targets, ok = self.throttles.deliver(sources, targets, ok, t)
            delivered = len(targets)
        elif self._sinks:
            delivered = int(np.dot(counts, self._out_deg[snapshot] > 0))
        else:
            delivered = total

        self._infect(targets[ok], t)
        return self.row(t, delivered)

    def row(self, t: float, delivered: int) -> tuple[int, float, int, int, int, int, int]:
        """The TimeSeries row of this tick at time ``t``, in which ``delivered``
        attempts were delivered: ``step``'s rows and ``run``'s row 0 alike."""
        return (self.tick_index, t, self.n_susceptible, self.n_infected, self.n_recovered,
                0 if self.throttles is None else self.throttles.queued, delivered)

    def _pick(self, sources, picks):
        """The out-neighbour of each source that its uniform draw in [0, 1) picks."""
        degs = self._out_deg[sources]
        # float rounding can give random() * deg == deg
        idx = np.minimum((picks * degs).astype(np.int64), degs - 1)
        return self._adj[self._indptr[sources] + idx]

    def _infect(self, hits: np.ndarray, t: float) -> None:
        """Infect the still-susceptible nodes among ``hits`` (scan misses past n are
        dropped) at time ``t``: the seeds at t = 0, then each tick's successful
        targets.  They join ``_infected`` in ascending order and start their
        throttles; ``_sus_out``, ``_spreaders`` and ``_sinks`` follow."""
        hits = hits[hits < self.g.n]
        hits = hits[self.compartments[hits] == SUSCEPTIBLE]
        if not len(hits):
            return
        hits = np.unique(hits)
        self.compartments[hits] = INFECTED
        self.n_susceptible -= len(hits)
        self.n_infected += len(hits)
        self._infected = np.concatenate([self._infected, hits])
        if self.worm.targeting == NEIGHBOR:
            # each in-neighbour of a (unique) hit loses one susceptible out-neighbour
            in_ptr, in_src = self.g.in_adjacency
            pos = _ranges(in_ptr[hits], in_ptr[hits + 1] - in_ptr[hits])
            np.subtract.at(self._sus_out, in_src[pos], 1)
            new = np.arange(self.n_infected - len(hits), self.n_infected)  # the hits' positions
            pos = np.concatenate([self._spreaders, new])
            self._spreaders = pos[self._sus_out[self._infected[pos]] > 0]
            self._sinks += int(np.count_nonzero(self._out_deg[hits] == 0))
        if self.throttles is not None:
            self.throttles.start(hits, t)

    def exhausted(self) -> bool:
        """True when no further compartment change is possible.

        For a neighbour worm: no infected host has a susceptible out-neighbour.
        Then no susceptible node is reachable either, since on any path from an
        infected host to a susceptible one that avoids vaccinated nodes, the
        first non-infected node is susceptible and has an infected predecessor.
        """
        if self.worm.targeting == SCAN:
            return self.n_infected == 0 or self.n_susceptible == 0
        return not len(self._spreaders)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The index ranges ``[starts[i], starts[i] + lens[i])``, concatenated."""
    return np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens - starts, lens)


def run(g: Graph, worm: WormBehavior, *, t_max: float = 60.0, **settings) -> TimeSeries:
    """Iterate ``Simulation(g, worm, **settings)`` until t_max or until no further
    spread is possible; ``Simulation`` owns the keywords of ``settings``.

    The last tick is the last at or before ``t_max + 1e-9``, and that time is
    the simulation's horizon, so its throttles store only the queued attempts
    that can still leave within the run."""
    if not t_max > 0:
        raise ValueError("t_max must be > 0")
    horizon = t_max + 1e-9
    sim = Simulation(g, worm, horizon=horizon, **settings)
    ts = TimeSeries([sim.row(0.0, 0)])
    while (sim.tick_index + 1) * sim.dt <= horizon:
        if sim.exhausted():
            break
        ts.append(sim.step())
    return ts


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def growth_rate(ts: TimeSeries) -> float:
    """Least-squares slope of ln(infected) over the early exponential window.

    The window is rows with infected count in [2, n/2]; at least 3 such rows
    are required.
    """
    infected = ts.column("infected")
    t = ts.column("t")
    n = ts.n
    mask = (infected >= 2) & (infected <= 0.5 * n)
    if mask.sum() < 3:
        raise ValueError("need >= 3 rows with infected in [2, n/2] to fit a growth rate")
    return float(np.polyfit(t[mask], np.log(infected[mask]), 1)[0])


def time_to_fraction(ts: TimeSeries, q: float) -> float | None:
    """First time the infected count reaches q * n, or None if never."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    infected = ts.column("infected")
    t = ts.column("t")
    hits = np.nonzero(infected >= q * ts.n)[0]
    if len(hits) == 0:
        return None
    return float(t[hits[0]])
