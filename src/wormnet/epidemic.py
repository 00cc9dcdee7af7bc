"""Discrete-time worm propagation engine.

Dynamics are SI with a fixed tick length: every infected node generates a
Poisson number of connection attempts per tick, each aimed either at a random
graph neighbor or at a random address in a scan space.  Vaccinated nodes are
permanently immune.  An optional per-node throttle delays attempts to new
destinations; queued attempts deliver on the tick their release falls due.

Runs are fully deterministic given (graph, worm, controls, seeds).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .throttle import Admitted, ThrottleConfig, ThrottleState

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2

NEIGHBOR = "neighbor"
SCAN = "scan"

CSV_HEADER = "tick,t,susceptible,infected,recovered,queued,admitted"


@dataclass(frozen=True)
class WormBehavior:
    """How the worm picks targets and how aggressively it connects.

    ``attempt_rate`` is new-connection attempts per second per infected node.
    ``address_space`` (scan targeting only) defaults to the node count;
    addresses >= n miss.  ``max_attempts_per_tick`` caps pathological
    rate * dt products per node.
    """

    targeting: str
    attempt_rate: float
    infection_probability: float = 1.0
    address_space: int | None = None
    max_attempts_per_tick: int = 1_000_000

    def __post_init__(self):
        if self.targeting not in (NEIGHBOR, SCAN):
            raise ValueError(f"unknown targeting {self.targeting!r}")
        if self.attempt_rate <= 0:
            raise ValueError("attempt_rate must be > 0")
        if not 0.0 < self.infection_probability <= 1.0:
            raise ValueError("infection_probability must lie in (0, 1]")
        if self.max_attempts_per_tick < 1:
            raise ValueError("max_attempts_per_tick must be >= 1")


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
        lines = [CSV_HEADER]
        for tick, t, s, i, r, q, a in self.rows:
            lines.append(f"{tick},{t:.10g},{s},{i},{r},{q},{a}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header!r}")
            for line in fh:
                tick, t, s, i, r, q, a = line.strip().split(",")
                rows.append((int(tick), float(t), int(s), int(i), int(r), int(q), int(a)))
        return cls(rows)


class Simulation:
    """One deterministic propagation run, advanced tick by tick.

    Per-node throttle state is created when a node becomes infected, with an
    empty release budget: a freshly infected machine does not get a free
    instant connection, so its novel-destination rate is bounded by the
    throttle rate from its very first contact.
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
    ):
        if dt <= 0:
            raise ValueError("dt must be > 0")
        vaccinated = {int(v) for v in vaccinated}
        init_infected = {int(v) for v in init_infected}
        if init_infected & vaccinated:
            raise ValueError("seed-infected nodes overlap the vaccinated set")
        for v in init_infected | vaccinated:
            if not 0 <= v < g.n:
                raise ValueError(f"node id {v} out of range")

        self.g = g
        self.worm = worm
        self.dt = float(dt)
        self.tick_index = 0
        self.throttle_config = throttle
        self.rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

        self.compartments = np.zeros(g.n, dtype=np.int8)
        if vaccinated:
            self.compartments[sorted(vaccinated)] = RECOVERED
        if init_infected:
            self.compartments[sorted(init_infected)] = INFECTED
        self.n_susceptible = g.n - len(vaccinated) - len(init_infected)
        self.n_infected = len(init_infected)
        self.n_recovered = len(vaccinated)
        self._infected = np.array(sorted(init_infected), dtype=np.int64)

        if worm.targeting == NEIGHBOR:
            self._indptr, self._adj = g.out_adjacency
            self._out_deg = np.diff(self._indptr)
            self.address_space = g.n
        else:
            self.address_space = g.n if worm.address_space is None else int(worm.address_space)
            if self.address_space < g.n:
                raise ValueError("address_space must be >= n")

        self._reachable = self._reachable_susceptible(init_infected, vaccinated)
        self.remaining_reachable = int(self._reachable.sum())

        self._throttles: dict[int, ThrottleState] = {}
        self._success_q: dict[int, deque] = {}
        self._release_heap: list[tuple[float, int]] = []
        self._scheduled: set[int] = set()
        self.queued_total = 0
        if throttle is not None:
            for u in sorted(init_infected):
                self._new_throttle(u, 0.0)

    # -- setup helpers -----------------------------------------------------

    def _reachable_susceptible(self, init_infected, vaccinated) -> np.ndarray:
        """Susceptible nodes a future infection could ever reach."""
        reach = np.zeros(self.g.n, dtype=bool)
        if self.worm.targeting == SCAN:
            reach[self.compartments == SUSCEPTIBLE] = True
            return reach
        seen = np.zeros(self.g.n, dtype=bool)
        frontier = list(init_infected)
        for u in frontier:
            seen[u] = True
        indptr, adj = self._indptr, self._adj
        while frontier:
            u = frontier.pop()
            for v in adj[indptr[u]:indptr[u + 1]]:
                v = int(v)
                if seen[v] or v in vaccinated:
                    continue
                seen[v] = True
                reach[v] = True  # susceptible and reachable
                frontier.append(v)
        return reach

    def _new_throttle(self, node: int, t: float) -> None:
        self._throttles[node] = ThrottleState(self.throttle_config, t0=t, initial_budget=0.0)
        self._success_q[node] = deque()

    # -- stepping ----------------------------------------------------------

    @property
    def t(self) -> float:
        return self.tick_index * self.dt

    def step(self) -> tuple[int, float, int, int, int, int, int]:
        """Advance one tick; return the resulting TimeSeries row."""
        self.tick_index += 1
        t = self.tick_index * self.dt
        worm = self.worm
        comp = self.compartments
        n = self.g.n
        rng = self.rng
        delivered = 0
        newly_infected: list[int] = []

        def deliver(dest: int, success: bool) -> None:
            nonlocal delivered
            delivered += 1
            if success and dest < n and comp[dest] == SUSCEPTIBLE:
                comp[dest] = INFECTED
                self.n_susceptible -= 1
                self.n_infected += 1
                if self._reachable[dest]:
                    self._reachable[dest] = False
                    self.remaining_reachable -= 1
                newly_infected.append(dest)

        snapshot = self._infected
        total = 0
        if len(snapshot):
            lam = worm.attempt_rate * self.dt
            counts = rng.poisson(lam, size=len(snapshot))
            if counts.max(initial=0) > worm.max_attempts_per_tick:
                counts = np.minimum(counts, worm.max_attempts_per_tick)
            total = int(counts.sum())

        if total:
            sources = np.repeat(snapshot, counts)
            if worm.targeting == NEIGHBOR:
                degs = self._out_deg[sources]
                u = rng.random(total)
                idx = (u * degs).astype(np.int64)
                np.minimum(idx, np.maximum(degs - 1, 0), out=idx)
                if len(self._adj):
                    ptr = np.minimum(self._indptr[sources] + idx, len(self._adj) - 1)
                    targets = self._adj[ptr]
                else:
                    targets = np.zeros(total, dtype=np.int64)
                valid = degs > 0
            else:
                targets = rng.integers(0, self.address_space, size=total)
                valid = np.ones(total, dtype=bool)
            if worm.infection_probability < 1.0:
                success = rng.random(total) < worm.infection_probability
            else:
                success = np.ones(total, dtype=bool)

            if self.throttle_config is None:
                tgt_l = targets.tolist()
                ok_l = success.tolist()
                val_l = valid.tolist()
                for j in range(total):
                    if val_l[j]:
                        deliver(tgt_l[j], ok_l[j])
            else:
                src_l = sources.tolist()
                tgt_l = targets.tolist()
                ok_l = success.tolist()
                val_l = valid.tolist()
                for s, d, ok, va in zip(src_l, tgt_l, ok_l, val_l):
                    if not va:
                        continue
                    st = self._throttles[s]
                    drops_before = st.drops
                    if isinstance(st.request(d, t), Admitted):
                        deliver(d, ok)
                    else:
                        sq = self._success_q[s]
                        if st.drops > drops_before:  # bounded queue evicted its head
                            sq.popleft()
                            st.drop_log.clear()
                            self.queued_total -= 1
                        sq.append(ok)
                        self.queued_total += 1
                        if s not in self._scheduled:
                            heapq.heappush(self._release_heap, (st.next_release_due(), s))
                            self._scheduled.add(s)

        if self.throttle_config is not None:
            heap = self._release_heap
            while heap and heap[0][0] <= t + 1e-9:
                _, s = heapq.heappop(heap)
                self._scheduled.discard(s)
                st = self._throttles[s]
                sq = self._success_q[s]
                for d, _delay in st.tick(t):
                    deliver(d, sq.popleft())
                    self.queued_total -= 1
                if st.delay_queue:
                    # guard against re-popping within this tick: a due time
                    # that has not advanced past t would spin forever
                    due = max(st.next_release_due(), t + 2e-9)
                    heapq.heappush(heap, (due, s))
                    self._scheduled.add(s)

        if newly_infected:
            # canonical order: keeps the rng-to-node mapping independent of
            # within-tick delivery order
            newly_infected.sort()
            if self.throttle_config is not None:
                for u in newly_infected:
                    self._new_throttle(u, t)
            self._infected = np.concatenate(
                [self._infected, np.array(newly_infected, dtype=np.int64)]
            )

        return (
            self.tick_index,
            t,
            self.n_susceptible,
            self.n_infected,
            self.n_recovered,
            self.queued_total,
            delivered,
        )

    def exhausted(self) -> bool:
        """True when no further compartment change is possible."""
        return self.n_infected == 0 or self.remaining_reachable == 0


def run(
    g: Graph,
    worm: WormBehavior,
    *,
    init_infected,
    vaccinated=(),
    throttle: ThrottleConfig | None = None,
    dt: float = 0.1,
    t_max: float = 60.0,
    seed=0,
) -> TimeSeries:
    """Iterate the engine until t_max or until no further spread is possible."""
    if t_max <= 0:
        raise ValueError("t_max must be > 0")
    sim = Simulation(
        g,
        worm,
        init_infected=init_infected,
        vaccinated=vaccinated,
        throttle=throttle,
        dt=dt,
        seed=seed,
    )
    ts = TimeSeries()
    ts.append((0, 0.0, sim.n_susceptible, sim.n_infected, sim.n_recovered, 0, 0))
    while (sim.tick_index + 1) * dt <= t_max + 1e-9:
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


def slowdown_factor(
    base: TimeSeries,
    throttled: TimeSeries,
    q: float = 0.95,
    method: str = "time",
) -> float | None:
    """How much slower the throttled run is than the baseline.

    ``method='time'`` compares times to reach fraction q (None propagates when
    either run never reaches it); ``method='growth'`` compares early growth
    rates.
    """
    if method == "time":
        tb = time_to_fraction(base, q)
        tt = time_to_fraction(throttled, q)
        if tb is None or tt is None or tb == 0:
            return None
        return tt / tb
    if method == "growth":
        return growth_rate(base) / growth_rate(throttled)
    raise ValueError(f"unknown method {method!r}")
