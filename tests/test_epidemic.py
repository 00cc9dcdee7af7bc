import copy
import hashlib
import itertools
import math
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wormnet import epidemic
from wormnet.epidemic import (
    CSV_HEADER,
    INFECTED,
    MAX_ATTEMPTS_PER_TICK,
    RECOVERED,
    SUSCEPTIBLE,
    Simulation,
    TimeSeries,
    WormBehavior,
    growth_rate,
    run,
    time_to_fraction,
)
from wormnet.graph import Graph, ParseError
from wormnet.netgen import NetworkSpec, build_complete, build_network, preset
from wormnet.throttle import Admitted, ClockError, ThrottleConfig, ThrottleState


def _star(n):
    return Graph(n, False, [(0, i) for i in range(1, n)])


def _reachable_oracle(g, init_infected, vaccinated):
    """Depth-first search from the infected nodes over out-edges, one node at
    a time: the susceptible nodes that vaccinated nodes do not cut off from
    every infected one."""
    indptr, adj = g.out_adjacency
    reach = np.zeros(g.n, dtype=bool)
    seen = np.zeros(g.n, dtype=bool)
    frontier = list(init_infected)
    for u in frontier:
        seen[u] = True
    while frontier:
        u = frontier.pop()
        for v in adj[indptr[u]:indptr[u + 1]]:
            v = int(v)
            if seen[v] or v in vaccinated:
                continue
            seen[v] = True
            reach[v] = True
            frontier.append(v)
    return reach


@st.composite
def _graph_seeds_vaccinated(draw):
    n = draw(st.integers(1, 25))
    directed = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    edges = {(u, v) if directed else (min(u, v), max(u, v)) for u, v in pairs if u != v}
    roles = draw(st.lists(st.sampled_from("svi"), min_size=n, max_size=n))
    seeds = {v for v, r in enumerate(roles) if r == "i"}
    vaccinated = {v for v, r in enumerate(roles) if r == "v"}
    return Graph(n, directed, sorted(edges)), seeds, vaccinated


def _series(infected, n, dt=1.0):
    rows = []
    for k, i in enumerate(infected):
        rows.append((k, k * dt, n - i, i, 0, 0, 0))
    return TimeSeries(rows)


class TestWormBehavior:
    def test_validation(self):
        with pytest.raises(ValueError):
            WormBehavior("broadcast", 1.0)
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="attempt_rate must be > 0 and finite"):
                WormBehavior("scan", rate)
        with pytest.raises(ValueError):
            WormBehavior("scan", 1.0, infection_probability=0.0)
        with pytest.raises(ValueError):
            WormBehavior("scan", 1.0, infection_probability=1.5)

    def test_address_space_is_for_scan_only(self):
        with pytest.raises(ValueError, match="address_space applies to scan targeting only"):
            WormBehavior("neighbor", 1.0, address_space=7)


class TestTimeSeries:
    @pytest.mark.parametrize("gap", ["", "\n"], ids=["as-written", "blank-line-between-rows"])
    def test_csv_roundtrip(self, tmp_path, gap):
        ts = _series([1, 3, 9], 100)
        p = tmp_path / "run.csv"
        ts.to_csv(p)
        assert p.read_text().splitlines()[0] == CSV_HEADER
        header, first, *rest = p.read_text().splitlines(keepends=True)
        p.write_text("".join([header, first, gap, *rest]))  # a blank line is skipped
        back = TimeSeries.from_csv(p)
        assert back.rows == ts.rows

    def test_header_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("tick,t,s,i\n0,0,9,1\n")
        with pytest.raises(ValueError, match="header"):
            TimeSeries.from_csv(p)

    def test_header_error_names_path(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("tick,t,s,i\n0,0,9,1\n")
        with pytest.raises(ParseError) as err:
            TimeSeries.from_csv(p)
        assert str(err.value) == f"{p}:1: expected header {CSV_HEADER!r}, got 'tick,t,s,i'"

    @pytest.mark.parametrize("row", ["1,0.1,9", "1,0.1,9,1,0,0,x", "1,0.1,9,1,0,0,0,0",
                                     "1,nan,-5,15,0,0,0", "1,inf,9,1,0,0,0", "1,0.1,9,1,0,-1,0",
                                     None])
    def test_bad_row_names_path_and_line(self, tmp_path, row):
        # row None: a header and no rows at all
        p = tmp_path / "rep_000.csv"
        p.write_text(f"{CSV_HEADER}\n" + ("" if row is None else f"0,0,9,1,0,0,0\n{row}\n"))
        with pytest.raises(ParseError) as err:
            TimeSeries.from_csv(p)
        message = "2: no rows after the header" if row is None else f"3: bad row {row!r}"
        assert str(err.value) == f"{p}:{message}"

    @pytest.mark.parametrize("gap", ["", "\n"], ids=["no-blank-line", "after-a-blank-line"])
    @pytest.mark.parametrize("row, message", [
        ("1,0.2,7,3,0,0,1", "tick 1 does not follow tick 1"),
        ("2,0.05,7,3,0,0,1", "t 0.05 goes back from 0.1"),
        ("2,0.2,7,4,0,0,1", "susceptible + infected + recovered is 11, not the first row's 10"),
    ])
    def test_series_defect_names_path_and_line(self, tmp_path, row, message, gap):
        # the line number is the defect's line in the file, blank lines counted
        p = tmp_path / "rep_000.csv"
        p.write_text(f"{CSV_HEADER}\n0,0,9,1,0,0,0\n1,0.1,8,2,0,0,1\n{gap}{row}\n")
        with pytest.raises(ParseError) as err:
            TimeSeries.from_csv(p)
        assert str(err.value) == f"{p}:{4 + len(gap)}: {message}"

    def test_columns(self):
        ts = _series([1, 2], 10)
        assert ts.column("infected").tolist() == [1, 2]
        assert ts.column("t").dtype == float
        assert ts.n == 10


class TestRunInvariants:
    def test_counts_conserved_and_monotone(self):
        g = build_complete(60)
        worm = WormBehavior("neighbor", attempt_rate=5.0)
        ts = run(g, worm, init_infected={0}, dt=0.1, t_max=10.0, seed=1)
        s = ts.column("susceptible")
        i = ts.column("infected")
        r = ts.column("recovered")
        assert np.all(s + i + r == 60)
        assert np.all(np.diff(i) >= 0)  # SI: no recovery from infection
        assert np.all(np.diff(s) <= 0)

    def test_vaccinated_nodes_never_infected(self):
        g = build_complete(40)
        worm = WormBehavior("scan", attempt_rate=20.0)
        ts = run(g, worm, init_infected={0}, vaccinated=set(range(1, 11)),
                 dt=0.1, t_max=30.0, seed=2)
        assert ts.column("recovered")[-1] == 10
        assert ts.column("infected")[-1] <= 30

    def test_deterministic_per_seed(self):
        g = build_complete(50)
        worm = WormBehavior("neighbor", attempt_rate=3.0)
        kw = dict(init_infected={4}, dt=0.05, t_max=5.0, seed=9)
        assert run(g, worm, **kw).to_csv_text() == run(g, worm, **kw).to_csv_text()

    def test_stops_when_everyone_infected(self):
        g = build_complete(10)
        worm = WormBehavior("neighbor", attempt_rate=100.0)
        ts = run(g, worm, init_infected={0}, dt=0.1, t_max=1000.0, seed=0)
        assert ts.rows[-1][3] == 10
        assert len(ts) < 100  # terminated long before t_max

    def test_spread_confined_to_component(self):
        # two disjoint triangles; infection starts in the first
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = Graph(6, False, edges)
        worm = WormBehavior("neighbor", attempt_rate=50.0)
        ts = run(g, worm, init_infected={0}, dt=0.1, t_max=100.0, seed=3)
        assert ts.rows[-1][3] == 3

    def test_seed_overlap_with_vaccinated_rejected(self):
        g = build_complete(5)
        worm = WormBehavior("neighbor", attempt_rate=1.0)
        with pytest.raises(ValueError, match="overlap"):
            run(g, worm, init_infected={0}, vaccinated={0}, t_max=1.0)

    @pytest.mark.parametrize("kw, match", [
        (dict(dt=0.0), "dt must be > 0"),
        (dict(dt=-0.1), "dt must be > 0"),
        (dict(t_max=0.0), "t_max must be > 0"),
        (dict(t_max=-1.0), "t_max must be > 0"),
        (dict(init_infected={5}), "node id 5 out of range"),
        (dict(init_infected={0}, vaccinated={-1}), "node id -1 out of range"),
        # the smallest bad id, not the first that set iteration reaches (9 here)
        (dict(init_infected={9, 6, 5}), "node id 5 out of range"),
        (dict(init_infected=np.array([7, 0]), vaccinated=[-4, 6, -2]), "node id -4 out of range"),
        (dict(t_max=float("nan")), "t_max must be > 0"),
        (dict(dt=float("nan")), "dt must be > 0 and finite"),
        (dict(dt=float("inf")), "dt must be > 0 and finite"),
    ])
    def test_bad_run_arguments_rejected(self, kw, match):
        g = build_complete(5)
        worm = WormBehavior("neighbor", attempt_rate=1.0)
        with pytest.raises(ValueError, match=match):
            run(g, worm, **{"init_infected": {0}, **kw})

    def test_attempts_per_tick_are_capped(self):
        # rate * dt = 1e9 draws about 1e9 attempts; every scanned address is a
        # valid attempt, so the tick delivers exactly the cap
        g = build_complete(10)
        worm = WormBehavior("scan", attempt_rate=1e9, address_space=2**62)
        ts = run(g, worm, init_infected={0}, dt=1.0, t_max=1.0, seed=0)
        assert MAX_ATTEMPTS_PER_TICK == 1_000_000
        assert ts.column("admitted").tolist() == [0, MAX_ATTEMPTS_PER_TICK]

    def test_neighbour_attempts_per_tick_are_capped(self):
        # the cap guards the draw that every arm shares: each attempt of a
        # host with out-neighbours is valid, so the tick delivers the cap too
        g = build_complete(10)
        worm = WormBehavior("neighbor", attempt_rate=1e9)
        ts = run(g, worm, init_infected={0}, dt=1.0, t_max=1.0, seed=0)
        assert ts.column("admitted").tolist() == [0, MAX_ATTEMPTS_PER_TICK]

    @pytest.mark.parametrize("targeting", ["neighbor", "scan"])
    def test_a_tick_without_attempts_draws_only_the_counts(self, targeting):
        # every draw has one entry per host or per attempt, and one of size 0
        # leaves the generator as it was
        g = build_complete(10)
        worm = WormBehavior(targeting, attempt_rate=1e-9, infection_probability=0.5)
        for seeds, throttle in itertools.product((set(), {0, 1}), (None, ThrottleConfig())):
            sim = Simulation(g, worm, init_infected=seeds, throttle=throttle, seed=3)
            rng = copy.deepcopy(sim.rng)
            assert sim.step()[-1] == 0
            assert not rng.poisson(worm.attempt_rate * sim.dt, size=len(seeds)).any()
            assert sim.rng.bit_generator.state == rng.bit_generator.state

    def test_scan_address_space_must_cover_nodes(self):
        g = build_complete(100)
        worm = WormBehavior("scan", attempt_rate=1.0, address_space=50)
        with pytest.raises(ValueError, match="address_space"):
            run(g, worm, init_infected={0}, t_max=1.0)

    def test_directed_edges_spread_one_way(self):
        g = Graph(3, True, [(0, 1), (1, 2)])
        worm = WormBehavior("neighbor", attempt_rate=50.0)
        ts = run(g, worm, init_infected={2}, dt=0.1, t_max=10.0, seed=0)
        assert ts.rows[-1][3] == 1  # node 2 has no out-edges


class TestReachability:
    """``exhausted()`` is true exactly when no susceptible node can still be
    reached from an infected one, and ``_sus_out`` counts each node's
    susceptible out-neighbours."""

    @settings(max_examples=200, deadline=None)
    @given(_graph_seeds_vaccinated(), st.integers(0, 2**32 - 1))
    def test_matches_search_oracle(self, case, seed):
        g, seeds, vaccinated = case
        sim = Simulation(g, WormBehavior("neighbor", attempt_rate=10.0),
                         init_infected=seeds, vaccinated=vaccinated, dt=0.1, seed=seed)
        indptr, adj = g.out_adjacency
        for _ in range(6):
            infected = set(np.flatnonzero(sim.compartments == INFECTED).tolist())
            reachable = _reachable_oracle(g, infected, vaccinated)
            assert sim.exhausted() == (not infected or not reachable.any())
            sus_out = [int((sim.compartments[adj[indptr[u]:indptr[u + 1]]] == SUSCEPTIBLE).sum())
                       for u in range(g.n)]
            assert sim._sus_out.tolist() == sus_out
            # _infect alone keeps the spreaders, as positions in _infected, and the sinks
            spreaders = np.flatnonzero(sim._sus_out[sim._infected] > 0)
            assert sim._spreaders.tolist() == spreaders.tolist()
            assert sim._sinks == sum(indptr[u] == indptr[u + 1] for u in infected)
            sim.step()

    def test_vaccinated_node_blocks_the_path(self):
        g = Graph(4, True, [(0, 1), (1, 2), (2, 3)])
        sim = Simulation(g, WormBehavior("neighbor", attempt_rate=100.0),
                         init_infected={0}, vaccinated={2}, dt=1.0)
        assert not sim.exhausted()  # node 1 is reachable
        sim.step()
        assert sim.compartments.tolist() == [INFECTED, INFECTED, RECOVERED, SUSCEPTIBLE]
        assert sim.exhausted()  # node 3 is only reachable through vaccinated node 2

    def test_scan_reaches_every_susceptible_node(self):
        g = Graph(4, True, [])
        worm = WormBehavior("scan", attempt_rate=100.0)
        sim = Simulation(g, worm, init_infected={0}, vaccinated={3})
        assert not sim.exhausted()  # no edge leads to nodes 1 and 2, but a scan finds them
        ts = run(g, worm, init_infected={0}, vaccinated={3}, dt=1.0, t_max=100.0)
        assert ts.rows[-1][2:5] == (0, 3, 1)
        assert len(ts) < 101  # stopped once no node was susceptible


def _full_gather_replay(sim):
    """Replay the next tick's draws from a copy of ``sim.rng``, gathering
    every attempt: return the valid attempts' sources, targets and success
    flags, in snapshot order, then draw order."""
    rng = copy.deepcopy(sim.rng)
    counts = rng.poisson(sim.worm.attempt_rate * sim.dt, size=len(sim._infected))
    counts = np.minimum(counts, MAX_ATTEMPTS_PER_TICK)
    total = int(counts.sum())
    sources = np.repeat(sim._infected, counts)
    if sim.worm.targeting == "scan":
        targets = rng.integers(0, sim.address_space, size=total)
        valid = np.ones(total, dtype=bool)
    else:
        indptr, adj = sim.g.out_adjacency
        degs = np.diff(indptr)[sources]
        idx = (rng.random(total) * degs).astype(np.int64)
        valid = degs > 0
        targets = adj[indptr[sources[valid]] + np.minimum(idx[valid], degs[valid] - 1)]
    success = np.ones(total, dtype=bool)
    if sim.worm.infection_probability < 1.0:
        success = rng.random(total) < sim.worm.infection_probability
    return sources[valid], targets, success[valid]


class TestUnthrottledStep:
    """The unthrottled neighbour step gathers only the spreaders' attempts, yet
    counts and infects exactly as a gather of every attempt would."""

    @settings(max_examples=200, deadline=None)
    @given(_graph_seeds_vaccinated(), st.sampled_from([1.0, 0.5]), st.integers(0, 2**32 - 1))
    def test_matches_the_full_gather(self, case, p, seed):
        g, seeds, vaccinated = case
        worm = WormBehavior("neighbor", attempt_rate=10.0, infection_probability=p)
        sim = Simulation(g, worm, init_infected=seeds, vaccinated=vaccinated, dt=0.1, seed=seed)
        for _ in range(6):
            _, targets, success = _full_gather_replay(sim)
            infected = set(np.flatnonzero(sim.compartments == INFECTED).tolist())
            infected |= {v for v in targets[success].tolist() if sim.compartments[v] == SUSCEPTIBLE}
            assert sim.step()[-1] == len(targets)
            assert set(np.flatnonzero(sim.compartments == INFECTED).tolist()) == infected


class TestAgainstMarkovOracle:
    def test_star_one_tick_mean_new_infections(self):
        # hub infected on a 5-node star: each attempt hits a uniform leaf, so
        # E[new] = 4 * (1 - exp(-mu/4)) for mu = rate * dt attempts on average
        g = _star(5)
        mu = 1.0
        worm = WormBehavior("neighbor", attempt_rate=mu, infection_probability=1.0)
        expected = 4 * (1 - math.exp(-mu / 4))
        samples = []
        for rep in range(3000):
            ts = run(g, worm, init_infected={0}, dt=1.0, t_max=1.0, seed=rep)
            samples.append(ts.rows[-1][3] - 1)
        mean = np.mean(samples)
        sem = np.std(samples) / math.sqrt(len(samples))
        assert abs(mean - expected) < 4 * sem + 1e-12

    def test_scan_one_tick_mean_new_infections(self):
        # one infected scanner over address space A: each susceptible node is
        # hit with prob 1/A per attempt -> E[new] = (n-1) * (1 - exp(-mu/A))
        n, A, mu = 20, 64, 8.0
        g = build_complete(n)  # topology is irrelevant to scan targeting
        worm = WormBehavior("scan", attempt_rate=mu, address_space=A)
        expected = (n - 1) * (1 - math.exp(-mu / A))
        samples = []
        for rep in range(3000):
            ts = run(g, worm, init_infected={0}, dt=1.0, t_max=1.0, seed=rep)
            samples.append(ts.rows[-1][3] - 1)
        mean = np.mean(samples)
        sem = np.std(samples) / math.sqrt(len(samples))
        assert abs(mean - expected) < 4 * sem + 1e-12

    def test_infection_probability_thins_attempts(self):
        # success prob p multiplies the per-attempt hit rate exactly
        g = _star(5)
        worm = WormBehavior("neighbor", attempt_rate=2.0, infection_probability=0.25)
        expected = 4 * (1 - math.exp(-2.0 * 0.25 / 4))
        samples = []
        for rep in range(3000):
            ts = run(g, worm, init_infected={0}, dt=1.0, t_max=1.0, seed=rep)
            samples.append(ts.rows[-1][3] - 1)
        mean = np.mean(samples)
        sem = np.std(samples) / math.sqrt(len(samples))
        assert abs(mean - expected) < 4 * sem + 1e-12


class TestMeanFieldLaw:
    @pytest.mark.parametrize("dt", [0.002, 0.0005])
    def test_growth_rate_follows_the_tick_recursion(self, dt):
        # a tick's hits apply at its end, so on a complete graph the mean
        # infected count follows I' = I + S(1 - exp(-beta dt I / (n - 1)))
        # and the growth rate depends on dt; fit the recursion the way
        # growth_rate fits a run, and compare over replicates by the CLT
        n, beta, t_max = 1000, 400.0, 1.0
        infected, susceptible = [1.0], n - 1.0
        for _ in range(round(t_max / dt)):
            new = susceptible * -math.expm1(-beta * dt * infected[-1] / (n - 1))
            infected.append(infected[-1] + new)
            susceptible -= new
        infected = np.array(infected)
        t = np.arange(len(infected)) * dt
        window = (infected >= 2) & (infected <= 0.5 * n)
        expected = np.polyfit(t[window], np.log(infected[window]), 1)[0]

        g = build_complete(n)
        worm = WormBehavior("neighbor", attempt_rate=beta)
        rates = [growth_rate(run(g, worm, init_infected={0}, dt=dt, t_max=t_max,
                                 seed=np.random.default_rng(np.random.SeedSequence([8, rep]))))
                 for rep in range(40)]
        sem = np.std(rates, ddof=1) / math.sqrt(len(rates))
        assert abs(np.mean(rates) - expected) < 4 * sem


# Rejection level of every check in TestOneTickLaw, fixed before any was run.
LAW_LEVEL = 1e-6


def _tick_start(g, worm, dt, init_infected, vaccinated=(), ticks=0):
    """A simulation ``ticks`` ticks into a run, ready to draw its next tick."""
    sim = Simulation(g, worm, init_infected=init_infected, vaccinated=vaccinated, dt=dt, seed=9)
    for _ in range(ticks):
        sim.step()
    return sim


def _powerlaw_with_sinks(n, seed):
    """A directed power-law graph in which every tenth node has no out-edge."""
    edges = build_network(NetworkSpec("powerlaw", n, seed=seed, directed=True, alpha=2.5,
                                      k_min=1, k_max=20)).edge_array
    return Graph(n, True, edges[edges[:, 0] % 10 != 0])


# ROADMAP item 13's cases, by name: the tick's starting state, the number of
# one-tick samples drawn from it, and the seed of their stream.  The mid-run
# states have sinks (directed) or idle hosts among their infected.
ONE_TICK_CASES = {
    "directed p=1": lambda: (_tick_start(
        _powerlaw_with_sinks(300, 1), WormBehavior("neighbor", 40.0), 0.05,
        np.arange(0, 300, 8)), 4000, 1),
    "directed p=0.5": lambda: (_tick_start(
        _powerlaw_with_sinks(300, 1), WormBehavior("neighbor", 40.0, 0.5), 0.05,
        np.arange(0, 300, 8)), 4000, 2),
    "undirected": lambda: (_tick_start(
        build_network(NetworkSpec("powerlaw", 300, seed=2, alpha=2.5, k_min=1, k_max=20)),
        WormBehavior("neighbor", 25.0), 0.1,
        np.arange(0, 300, 15), vaccinated=np.arange(7, 300, 15)), 4000, 3),
    "scan over 2n": lambda: (_tick_start(
        Graph(500, False, []), WormBehavior("scan", 10.0, address_space=1000), 0.1,
        np.arange(25), vaccinated=np.arange(25, 50)), 4000, 4),
    "scan over n, p=0.5": lambda: (_tick_start(
        Graph(500, False, []), WormBehavior("scan", 10.0, 0.5), 0.1, np.arange(10)), 4000, 5),
    "mid-run directed": lambda: (_tick_start(
        _powerlaw_with_sinks(400, 3), WormBehavior("neighbor", 10.0), 0.1,
        np.arange(1, 7), ticks=4), 3000, 6),
    "mid-run undirected p=0.5": lambda: (_tick_start(
        build_network(NetworkSpec("powerlaw", 400, seed=4, alpha=2.5, k_min=1, k_max=20)),
        WormBehavior("neighbor", 10.0, 0.5), 0.1,
        np.arange(1, 7), vaccinated=np.arange(0, 400, 20), ticks=4), 3000, 7),
}


def _one_tick_law(sim):
    """Each node's probability of infection in ``sim``'s next tick, and the mean
    of its ``admitted``, from the compartments alone."""
    g, worm, compartments = sim.g, sim.worm, sim.compartments
    infected = compartments == INFECTED
    if worm.targeting == "neighbor":
        edges = g.edge_array if g.directed else np.concatenate([g.edge_array,
                                                                g.edge_array[:, ::-1]])
        out_deg = np.bincount(edges[:, 0], minlength=g.n)
        hot = edges[infected[edges[:, 0]]]
        hazard = np.bincount(hot[:, 1], weights=1.0 / out_deg[hot[:, 0]], minlength=g.n)
        attempting = np.count_nonzero(infected & (out_deg > 0))
    else:
        hazard = np.full(g.n, np.count_nonzero(infected) / sim.address_space)
        attempting = np.count_nonzero(infected)
    mean = worm.attempt_rate * sim.dt
    q = -np.expm1(-mean * worm.infection_probability * hazard)
    return np.where(compartments == SUSCEPTIBLE, q, 0.0), mean * attempting


def _one_tick_samples(sim, reps, seed):
    """Per node, how many of ``reps`` copies of ``sim`` infect it in one tick, and
    per copy, the tick's new infections and ``admitted``.  The copies share one
    generator, seeded with ``seed``, and the graph."""
    rng = np.random.default_rng(seed)
    was_infected = sim.compartments == INFECTED
    counts = np.zeros(sim.g.n, dtype=np.int64)
    new, admitted = np.empty(reps), np.empty(reps)
    for r in range(reps):
        copy_ = copy.deepcopy(sim, {id(sim.g): sim.g, id(sim.rng): rng})
        admitted[r] = copy_.step()[-1]
        hit = (copy_.compartments == INFECTED) & ~was_infected
        counts += hit
        new[r] = np.count_nonzero(hit)
    return counts, new, admitted


class TestOneTickLaw:
    """Below MAX_ATTEMPTS_PER_TICK, an unthrottled tick infects each susceptible
    node v independently, with probability q_v = 1 - exp(-rate * dt * p * h_v):
    h_v sums 1 / d_out(u) over v's infected in-neighbours u for a neighbour worm,
    and is I / address_space for a scan worm.  ``admitted`` is Poisson with mean
    rate * dt times the infected hosts with an out-neighbour (every infected host
    for a scan worm).  Each check rejects at LAW_LEVEL."""

    @pytest.mark.parametrize("case", list(ONE_TICK_CASES))
    def test_tick_draws_from_its_law(self, case):
        sim, reps, seed = ONE_TICK_CASES[case]()
        q, admitted_mean = _one_tick_law(sim)
        counts, new, admitted = _one_tick_samples(sim, reps, seed)
        assert not counts[q == 0].any(), "a node outside the support was infected"
        # each node's count is Binomial(reps, q_v), where the normal limit holds
        tested = reps * np.minimum(q, 1 - q) >= 5
        assert tested.any()
        expected, var = reps * q[tested], reps * q[tested] * (1 - q[tested])
        chi2 = float(np.sum((counts[tested] - expected) ** 2 / var))
        assert stats.chi2.sf(chi2, tested.sum()) >= LAW_LEVEL, (chi2, tested.sum())
        # the tick's new infections: a sum of independent Bernoulli(q_v)
        mean, var = q.sum(), np.sum(q * (1 - q))
        kappa4 = np.sum(q * (1 - q) * (1 - 6 * q * (1 - q)))
        z = {
            "mean": (new.mean() - mean) / math.sqrt(var / reps),
            "variance": (new.var(ddof=1) - var) / math.sqrt((kappa4 + 2 * var**2) / reps),
            "admitted": (admitted.sum() - reps * admitted_mean) / math.sqrt(reps * admitted_mean),
        }
        for name, score in z.items():
            assert 2 * stats.norm.sf(abs(score)) >= LAW_LEVEL, (name, score)


class TestThrottledRuns:
    @pytest.mark.parametrize("targeting", ["neighbor", "scan"])
    @settings(max_examples=200, deadline=None)
    @given(_graph_seeds_vaccinated(), st.sampled_from([1.0, 0.5]), st.integers(0, 4),
           st.integers(0, 2**32 - 1))
    def test_infinite_rate_throttle_equals_no_throttle(self, targeting, case, p, capacity, seed):
        # the throttle gathers every valid attempt and the plain run only the
        # spreaders'; a throttle that releases its whole queue at once must
        # still give the same rows, ``admitted`` included
        g, seeds, vaccinated = case
        worm = WormBehavior(targeting, attempt_rate=10.0, infection_probability=p,
                            address_space=2 * g.n if targeting == "scan" else None)
        kw = dict(init_infected=seeds, vaccinated=vaccinated, dt=0.1, t_max=3.0, seed=seed)
        plain = run(g, worm, **kw)
        free = run(g, worm, throttle=ThrottleConfig(rate=math.inf, working_set_capacity=capacity),
                   **kw)
        assert free.rows == plain.rows

    @pytest.mark.parametrize("targeting", ["neighbor", "scan"])
    @settings(max_examples=200, deadline=None)
    @given(_graph_seeds_vaccinated(), st.sampled_from([1.0, 0.5]), st.integers(0, 2**32 - 1))
    def test_every_valid_attempt_reaches_the_throttle_in_order(self, targeting, case, p, seed):
        # the throttle sees each valid attempt once, in snapshot order, then
        # draw order, with the target and success flag a full gather draws;
        # wrappers set on ThrottleState itself see one request per attempt,
        # in that order, and one tick per due host, as a tracer's would
        g, seeds, vaccinated = case
        worm = WormBehavior(targeting, attempt_rate=10.0, infection_probability=p,
                            address_space=2 * g.n if targeting == "scan" else None)
        sim = Simulation(g, worm, init_infected=seeds, vaccinated=vaccinated,
                         throttle=ThrottleConfig(rate=2.0, working_set_capacity=2),
                         dt=0.1, seed=seed)
        seen, expected = [[], [], []], [[], [], []]
        requested, expected_requests, ticks = [], [], []
        deliver = sim.throttles.deliver
        request, tick = ThrottleState.request, ThrottleState.tick

        def spy(sources, targets, ok, t):
            for log, a in zip(seen, (sources, targets, ok)):
                log.extend(a.tolist())
            return deliver(sources, targets, ok, t)

        def counted_request(state, dest, t, tag=None):
            requested.append((dest, t, tag))
            return request(state, dest, t, tag)

        def counted_tick(state, t):
            ticks.append(t)
            return tick(state, t)

        sim.throttles.deliver = spy
        with mock.patch.object(ThrottleState, "request", counted_request), \
                mock.patch.object(ThrottleState, "tick", counted_tick):
            for _ in range(6):
                attempts = _full_gather_replay(sim)
                for log, a in zip(expected, attempts):
                    log.extend(a.tolist())
                t = (sim.tick_index + 1) * sim.dt
                expected_requests += [(d, t, ok) for d, ok in zip(attempts[1].tolist(),
                                                                  attempts[2].tolist())]
                sim.step()
        assert seen == expected
        assert requested == expected_requests
        assert len(ticks) == sim.throttles.counters["release_visits"]

    @pytest.mark.parametrize("targeting", ["neighbor", "scan"])
    @settings(max_examples=200, deadline=None)
    @given(_graph_seeds_vaccinated(), st.sampled_from([1.0, 0.5]),
           st.sampled_from([0.5, 2.0, math.inf]), st.integers(0, 4), st.sampled_from([None, 1, 3]),
           st.integers(0, 2**32 - 1))
    def test_matches_per_host_throttle_oracle(self, targeting, case, p, rate, capacity,
                                              queue_capacity, seed):
        # differential oracle: each tick, a full gather's attempts go through
        # one ThrottleState per infected host, made at its infection tick and
        # first free a service time later; then every host whose queue head is due ticks once,
        # and the tick's passes and releases are delivered together.  The
        # replay tallies each counter of the engine as it goes.  The engine has
        # the horizon ``run`` gives a 15-tick run, and its throttles store only
        # what can leave by then; the replay's states have none and store all.
        g, seeds, vaccinated = case
        worm = WormBehavior(targeting, attempt_rate=10.0, infection_probability=p,
                            address_space=2 * g.n if targeting == "scan" else None)
        config = ThrottleConfig(rate=rate, working_set_capacity=capacity,
                                queue_capacity=queue_capacity)
        kw = dict(init_infected=seeds, vaccinated=vaccinated, throttle=config, dt=0.2, seed=seed)
        sim = Simulation(g, worm, horizon=3.0 + 1e-9, **kw)
        rows = [(0, 0.0, sim.n_susceptible, sim.n_infected, sim.n_recovered, 0, 0)]
        compartments = sim.compartments.copy()
        hosts = {u: ThrottleState(config, t0=0.0, ready_at=1.0 / rate) for u in seeds}
        tally = {"requests": 0, "passed": 0, "enqueued": 0, "dropped": 0,
                 "released": 0, "release_visits": 0}
        waits = []
        for tick in range(1, 16):
            t = tick * 0.2
            delivered = []
            for s, d, ok in zip(*(a.tolist() for a in _full_gather_replay(sim))):
                decision = hosts[s].request(d, t, ok)
                tally["requests"] += 1
                if isinstance(decision, Admitted):
                    tally["passed"] += 1
                    delivered.append((d, ok))
                else:
                    tally["enqueued"] += 1
                    tally["dropped"] += decision.dropped is not None
            for state in hosts.values():
                due = state.next_release_due()
                if due is not None and due <= t + 1e-9:
                    released = state.tick(t)
                    tally["release_visits"] += 1
                    tally["released"] += len(released)
                    waits += [delay for _d, delay, _ok in released]
                    delivered += [(d, ok) for d, _delay, ok in released]
            for d, ok in delivered:
                if ok and d < g.n and compartments[d] == SUSCEPTIBLE:
                    compartments[d] = INFECTED
                    hosts[d] = ThrottleState(config, t0=t, ready_at=t + 1.0 / rate)
            queued = sum(len(state.delay_queue) for state in hosts.values())
            sir = [int((compartments == c).sum()) for c in (SUSCEPTIBLE, INFECTED, RECOVERED)]
            rows.append(sim.step())
            assert rows[-1][2:] == (*sir, queued, len(delivered))
            assert np.array_equal(np.flatnonzero(sim.compartments == INFECTED),
                                  np.flatnonzero(compartments == INFECTED))
            counters = dict(sim.throttles.counters)
            assert counters.pop("wait_sum") == pytest.approx(math.fsum(waits), rel=1e-12, abs=1e-12)
            assert counters.pop("wait_max") == max(waits, default=0.0)
            assert counters == tally
            if rate < math.inf:  # a due host's tick releases exactly its head
                assert counters["release_visits"] == counters["released"]
        # run gives its simulation that horizon and steps it the same way, up
        # to the tick where no further spread is possible
        ts = run(g, worm, t_max=3.0, **kw)
        assert ts.rows == rows[:len(ts)]

    def test_throttle_slows_spread(self):
        g = build_complete(200)
        worm = WormBehavior("neighbor", attempt_rate=50.0)
        kw = dict(init_infected={0}, dt=0.05, seed=7)
        fast = run(g, worm, t_max=4.0, **kw)
        slow = run(g, worm, throttle=ThrottleConfig(rate=1.0), t_max=60.0, **kw)
        t_fast = time_to_fraction(fast, 0.5)
        t_slow = time_to_fraction(slow, 0.5)
        assert t_fast is not None and t_slow is not None
        assert t_slow > 3 * t_fast

    @pytest.mark.parametrize("rate, dt", [(1.0, 0.1), (3.0, 0.1), (10.0, 0.1), (0.7, 0.05),
                                          (1.0, 0.002)])
    def test_release_counts_are_exact(self, rate, dt):
        # an empty working set passes nothing and a fast scan worm keeps every
        # queue full, so host h, infected at tick k_h and first free a service
        # time later, releases once every P = ceil(1 / (rate * dt)) ticks:
        # floor((T - k_h) / P) times in T ticks, with P taken to the 1e-9
        # tolerance of a due time
        g = Graph(40, False, [])
        worm = WormBehavior("scan", attempt_rate=400.0)
        sim = Simulation(g, worm, init_infected={0}, dt=dt, seed=3,
                         throttle=ThrottleConfig(rate=rate, working_set_capacity=0))
        period = math.ceil(1.0 / (rate * dt) - 1e-9)
        infected_at = {0: 0}
        ticks = round(6.0 / dt)
        for tick in range(1, ticks + 1):
            sim.step()
            for h in np.flatnonzero(sim.compartments == INFECTED).tolist():
                infected_at.setdefault(h, tick)
        expected = sum((ticks - k) // period for k in infected_at.values())
        assert len(infected_at) > 1
        assert sim.throttles.counters["released"] == expected
        assert sim.throttles.counters["release_visits"] == expected
        assert sim.throttles.counters["passed"] == 0

    def test_scan_passes_are_bounded_by_the_working_set_share(self):
        # a uniform scan target falls in a working set of at most W of the
        # address space's Omega addresses with probability at most W / Omega,
        # whatever the set holds, so the passes are bounded by a
        # Binomial(requests, W / Omega) draw: its mean plus 4 standard deviations
        w, omega = 4, 1000
        worm = WormBehavior("scan", attempt_rate=20.0, address_space=omega)
        sim = Simulation(Graph(200, False, []), worm, init_infected={0}, dt=0.1, seed=5,
                         throttle=ThrottleConfig(rate=2.0, working_set_capacity=w))
        for _ in range(100):
            sim.step()
        c = sim.throttles.counters
        mean = c["requests"] * w / omega
        assert c["passed"] <= mean + 4 * math.sqrt(mean)

    def test_queued_column_tracks_backlog(self):
        g = build_complete(50)
        worm = WormBehavior("neighbor", attempt_rate=30.0)
        ts = run(g, worm, init_infected={0}, throttle=ThrottleConfig(rate=1.0),
                 dt=0.1, t_max=3.0, seed=8)
        q = ts.column("queued")
        assert np.all(q >= 0)
        assert q.max() > 0

    def test_bounded_queue_run_completes(self):
        g = build_complete(60)
        worm = WormBehavior("neighbor", attempt_rate=40.0)
        cfg = ThrottleConfig(rate=2.0, queue_capacity=3)
        ts = run(g, worm, init_infected={0}, throttle=cfg, dt=0.1, t_max=40.0, seed=4)
        q = ts.column("queued")
        i = ts.column("infected")
        assert np.all(q <= 3 * i)
        assert np.all(np.diff(i) >= 0)

    def test_a_queued_attempt_holds_one_tuple_and_one_list_slot(self):
        # an empty working set passes nothing and a first release due at
        # t = 100 lets nothing go, so every attempt stays queued.  Each must
        # cost its (dest, t_enq, tag) tuple and a list slot, with some slack,
        # and no more: a destination node's int is shared, not the attempt's own
        n = 2000
        worm = WormBehavior("scan", attempt_rate=400.0, address_space=n)
        sim = Simulation(Graph(n, False, []), worm, init_infected=np.arange(20), dt=0.01,
                         seed=0, throttle=ThrottleConfig(rate=0.01, working_set_capacity=0))
        bound = sys.getsizeof((0, 0.0, True)) + 16
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            for _ in range(10):
                sim.step()
            size, enqueued = tracemalloc.get_traced_memory()[0], sim.throttles.counters["enqueued"]
            for _ in range(240):
                sim.step()
            grown = tracemalloc.get_traced_memory()[0] - size
        finally:
            if not tracing:
                tracemalloc.stop()
        c = sim.throttles.counters
        assert c["passed"] == c["released"] == c["dropped"] == 0
        assert c["enqueued"] - enqueued > 15_000
        assert grown / (c["enqueued"] - enqueued) <= bound

    def test_run_stores_only_the_attempts_that_can_leave_by_t_max(self, monkeypatch):
        # a 200/s scan worm throttled to 1/s piles up about 20 attempts per tick
        # in each host's queue, yet from t0 >= 0 a host can release at most
        # floor(r * t_max) + 1 of them by t_max; the queued column still counts
        # every attempt.  Scenario fixed before measuring; the digest was taken
        # from a run that stored every attempt (1,623 at one host)
        peak = 0

        class Watched(Simulation):
            def step(self):
                nonlocal peak
                row = super().step()
                peak = max(peak, *(len(s.delay_queue) for s in self.throttles.states
                                   if s is not None))
                return row

        monkeypatch.setattr(epidemic, "Simulation", Watched)
        rate, t_max = 1.0, 8.0
        ts = run(Graph(300, False, []), WormBehavior("scan", attempt_rate=200.0),
                 init_infected=range(5), dt=0.1, t_max=t_max, seed=2,
                 throttle=ThrottleConfig(rate=rate, working_set_capacity=4))
        assert hashlib.sha256(ts.to_csv_text().encode()).hexdigest() == (
            "a7d98f00d42218d2756fec7670e35e47ef12e2d63901b859f59e4e49542a665e")
        assert ts.rows[-1][5] == 126_368
        assert peak <= math.floor(rate * t_max) + 2

    def test_a_step_past_the_horizon_raises(self):
        sim = Simulation(Graph(10, False, []), WormBehavior("scan", attempt_rate=5.0),
                         init_infected={0}, dt=0.1, horizon=0.25,
                         throttle=ThrottleConfig(rate=1.0))
        sim.step()
        sim.step()
        with pytest.raises(ClockError, match="passes the horizon"):
            sim.step()
        assert sim.tick_index == 2
        with pytest.raises(ValueError, match="horizon must be > 0"):
            Simulation(Graph(10, False, []), WormBehavior("scan", attempt_rate=5.0),
                       init_infected={0}, horizon=math.nan)


def _renewal_root(excess):
    """The rate lambda > 0 at which ``excess(lambda)``, a renewal sum less 1 that
    falls as lambda grows, crosses 0: bisection to float resolution."""
    lo, hi = 0.0, 1.0
    while excess(hi) > 0:
        lo, hi = hi, 2 * hi
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return (lo + hi) / 2


class TestRenewal:
    """The early growth rate of a run on a sparse directed graph follows from the
    graph's degrees through the renewal (Euler-Lotka) equation
    1 = sum_a m(a) e^(-lambda a), m(a) being the expected new infections a host
    makes at age a.  Early on the graph is tree-like, and a node reached along an
    edge has out-degree k with the in-degree-weighted law
    q_k = sum_v k_in(v) [k_out(v) = k] / m.

    Fixed before the first run: the graph, 8 replicates of 3 random seed hosts,
    each run stopped once infected passes 1,500, the slope of ln I over the rows
    with infected in [30, 1500], and a tolerance of 4 standard errors of the
    replicate mean."""

    REPLICATES, SEEDS, WINDOW = 8, 3, (30, 1500)

    @pytest.fixture(scope="class")
    def net(self):
        g = build_network(replace(preset("net-c"), n=50000, seed=3))
        q = np.bincount(g.degrees("out"), weights=g.degrees("in")) / g.num_edges
        return g, np.arange(1, len(q)), q[1:]  # out-degree 0 spreads nothing

    def _rates(self, g, worm, dt, throttle=None):
        """Each replicate's least-squares slope of ln I over the window."""
        rates = []
        for rep in range(self.REPLICATES):
            pick, engine = np.random.SeedSequence([3, rep]).spawn(2)
            seeds = np.random.default_rng(pick).choice(g.n, self.SEEDS, replace=False)
            sim = Simulation(g, worm, init_infected=seeds, throttle=throttle, dt=dt, seed=engine)
            rows = [sim.row(0.0, 0)]
            while sim.n_infected <= self.WINDOW[1]:
                assert not sim.exhausted()
                rows.append(sim.step())
            ts = TimeSeries(rows)
            t, infected = ts.column("t"), ts.column("infected")
            window = (infected >= self.WINDOW[0]) & (infected <= self.WINDOW[1])
            rates.append(np.polyfit(t[window], np.log(infected[window]), 1)[0])
        return np.mean(rates), np.std(rates, ddof=1) / math.sqrt(len(rates))

    def test_unthrottled_rate(self, net):
        # a host of out-degree k hits each out-neighbour in a tick with
        # probability p_k = 1 - exp(-beta dt / k), and the node it hits draws
        # from the next tick on:
        # 1 = sum_k q_k k sum_{T>=1} p_k (1 - p_k)^(T-1) e^(-lambda T dt)
        g, k, q = net
        beta, dt = 10.0, 0.05
        p = -np.expm1(-beta * dt / k)

        def excess(lam):
            x = math.exp(-lam * dt)
            return np.sum(q * k * p * x / (1 - (1 - p) * x)) - 1

        predicted = _renewal_root(excess)
        assert predicted == pytest.approx(3.377, abs=1e-3)
        mean, sem = self._rates(g, WormBehavior("neighbor", attempt_rate=beta), dt)
        assert abs(mean - predicted) < 4 * sem

    def test_throttled_rate_follows_one_release_per_copy(self, net):
        # beta >> r: a host's queue fills faster than it drains, so its releases
        # are its draws in order, one every 1/r seconds from 1/r after infection
        # (on the tick lattice, since 1/r is a whole number of ticks).  Each
        # queued copy of a destination takes a release of its own, so the j-th
        # release reaches a fresh node with probability (1 - 1/k)^(j-1):
        # 1 = sum_k q_k sum_{j>=1} (1 - 1/k)^(j-1) e^(-lambda j / r).
        # Under a rule that flushed every queued copy of the released
        # destination, the first k releases would be k distinct neighbours:
        # 1 = sum_k q_k sum_{j=1..k} e^(-lambda j / r); the engine rejects it.
        g, k, q = net
        beta, r, dt = 10.0, 1.0, 0.1

        def excess(lam):
            y = math.exp(-lam / r)
            return np.sum(q * y / (1 - (1 - 1 / k) * y)) - 1

        def flush_excess(lam):
            y = math.exp(-lam / r)
            return np.sum(q * y * (1 - y ** k) / (1 - y)) - 1

        predicted, flushed = _renewal_root(excess), _renewal_root(flush_excess)
        assert predicted == pytest.approx(0.343, abs=1e-3)
        mean, sem = self._rates(g, WormBehavior("neighbor", attempt_rate=beta), dt,
                                throttle=ThrottleConfig(rate=r, working_set_capacity=4))
        assert abs(mean - predicted) < 4 * sem
        assert abs(mean - flushed) > 4 * sem


class TestMetrics:
    def test_growth_rate_recovers_exact_exponential(self):
        ts = _series([2, 4, 8, 16, 32], 1000)
        assert growth_rate(ts) == pytest.approx(math.log(2))

    def test_growth_rate_window_excludes_saturation(self):
        # late rows above n/2 must not flatten the fit
        ts = _series([2, 4, 8, 16, 30, 31, 32], 32)
        assert growth_rate(ts) == pytest.approx(math.log(2))

    def test_growth_rate_needs_enough_rows(self):
        with pytest.raises(ValueError, match=">= 3 rows"):
            growth_rate(_series([1, 2, 100], 100))

    def test_time_to_fraction(self):
        ts = _series([1, 5, 50, 99], 100, dt=0.5)
        assert time_to_fraction(ts, 0.5) == pytest.approx(1.0)
        assert time_to_fraction(ts, 0.995) is None
        with pytest.raises(ValueError):
            time_to_fraction(ts, 0.0)
