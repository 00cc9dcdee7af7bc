from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from wormnet import percolation
from wormnet.graph import Graph
from wormnet.netgen import build_complete, build_configuration_model, build_powerlaw
from wormnet.percolation import (
    RANDOM,
    TARGETED,
    ThresholdResult,
    VaccinationStrategy,
    analytical_threshold,
    empirical_threshold,
    giant_component_fraction,
    vaccinate,
)


def _star(n):
    return Graph(n, False, [(0, i) for i in range(1, n)])


def _largest_component_bfs(g, removed):
    """Independent reference: plain BFS over the residual graph."""
    removed = set(removed)
    adj = {u: [] for u in range(g.n)}
    for u, v in g.edge_array:
        u, v = int(u), int(v)
        if u in removed or v in removed:
            continue
        adj[u].append(v)
        adj[v].append(u)  # weak connectivity for directed graphs
    best = 0
    seen = set(removed)
    for start in range(g.n):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        best = max(best, size)
    return best


def _giant_oracle(g, removed):
    """giant_component_fraction as it was before the compacted kernel: components of
    the full n-node graph with the removed nodes' edges dropped."""
    if g.n == 0:
        return 0.0
    keep = np.ones(g.n, dtype=bool)
    removed = list(removed)
    if removed:
        keep[removed] = False
    n_kept = int(keep.sum())
    if n_kept == 0:
        return 0.0
    edges = g.edge_array
    if len(edges):
        mask = keep[edges[:, 0]] & keep[edges[:, 1]]
        edges = edges[mask]
    if len(edges) == 0:
        return 1.0 / g.n
    adj = coo_matrix(
        (np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])),
        shape=(g.n, g.n),
    )
    _, labels = connected_components(adj, directed=g.directed, connection="weak")
    sizes = np.bincount(labels[keep])
    return int(sizes.max()) / g.n


def _reference_threshold(g, kind, s_min, trials, seed):
    """empirical_threshold as a plain bisection that labels every level of every
    trial with _giant_oracle."""
    if kind == TARGETED:
        orders = [np.lexsort((np.arange(g.n), -g.degrees("total")))]
        trials = 1
    else:
        ss = np.random.SeedSequence(seed)
        orders = [np.random.default_rng(c).permutation(g.n) for c in ss.spawn(trials)]

    def response(f):
        k = int(np.floor(f * g.n + 0.5))
        return float(np.mean([_giant_oracle(g, order[:k]) for order in orders]))

    tol = max(1.0 / g.n, 1e-3)
    lo, hi = 0.0, 1.0
    if response(0.0) < s_min:
        f_c = 0.0
    else:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if response(mid) < s_min:
                hi = mid
            else:
                lo = mid
        f_c = hi
    return ThresholdResult(f_c, "empirical", kind, s_min, trials, tol)


@st.composite
def _random_graphs(draw, max_n=30):
    n = draw(st.integers(1, max_n))
    directed = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    edges = {(u, v) if directed else (min(u, v), max(u, v)) for u, v in pairs if u != v}
    return Graph(n, directed, sorted(edges))


@st.composite
def _graphs_and_removals(draw):
    g = draw(_random_graphs())
    ids = draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n))
    form = draw(st.sampled_from(["set", "list", "range", "array", "empty", "all"]))
    if form == "range":
        start = draw(st.integers(0, g.n))
        ids = range(start, draw(st.integers(start, g.n)))
    removed = {
        "set": set(ids), "list": ids, "range": ids, "array": np.array(ids, dtype=np.int64),
        "empty": draw(st.sampled_from([[], set(), range(0), np.array([], dtype=np.int64)])),
        "all": draw(st.sampled_from([range(g.n), np.arange(g.n), list(range(g.n))[::-1]])),
    }[form]
    return g, removed


class TestGiantComponent:
    @settings(max_examples=300, deadline=None)
    @given(_graphs_and_removals())
    def test_equals_the_full_graph_oracle_exactly(self, case):
        g, removed = case
        assert giant_component_fraction(g, removed) == _giant_oracle(g, removed)

    # With 10 trials np.mean sums in its 8-way unrolled loop, with 1 and 3 in a plain one.
    @pytest.mark.parametrize("trials", [1, 3, 10])
    @settings(max_examples=60, deadline=None)
    @given(_random_graphs(max_n=60), st.sampled_from([RANDOM, TARGETED]),
           st.sampled_from([0.02, 0.1, 0.3]), st.integers(0, 1000))
    def test_bisection_gives_the_oracle_bisections_threshold(self, trials, g, kind, s_min, seed):
        expected = _reference_threshold(g, kind, s_min, trials=trials, seed=seed)
        assert empirical_threshold(g, kind, s_min=s_min, trials=trials, seed=seed) == expected

    @settings(max_examples=300, deadline=None)
    @given(_random_graphs(), st.data())
    def test_rank_csr_levels_equal_the_oracle(self, g, data):
        # Every level k in 0..n, k = 0 included: for n < 512 a bisection midpoint rounds to it.
        order = np.array(data.draw(st.permutations(range(g.n))), dtype=np.int64)
        indptr, indices = csr = percolation._rank_csr(g, order)
        assert indptr.dtype == indices.dtype == np.int32
        for r in range(g.n):
            row = indices[indptr[r]:indptr[r + 1]]
            assert (row > r).all() and (np.diff(row) >= 0).all()
        for k in range(g.n + 1):
            assert percolation._level_fraction(csr, k, g.n) == _giant_oracle(g, order[:k])

    def test_counts_beyond_int32_are_named(self):
        big = Graph(2**31, False, [])
        with pytest.raises(ValueError, match="node count 2147483648 exceeds 2147483647"):
            empirical_threshold(big, RANDOM)
        with pytest.raises(ValueError, match="node count 2147483648 exceeds 2147483647"):
            giant_component_fraction(big, [])
        many = SimpleNamespace(n=3, num_edges=2**31, directed=False)
        with pytest.raises(ValueError, match="edge count 2147483648 exceeds 2147483647"):
            giant_component_fraction(many, [])

    def test_matches_bfs_reference_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(5, 40))
            directed = bool(rng.integers(2))
            pairs = {
                (int(a), int(b))
                for a, b in rng.integers(0, n, size=(2 * n, 2))
                if a != b
            }
            if not directed:
                pairs = {(min(a, b), max(a, b)) for a, b in pairs}
            g = Graph(n, directed, pairs)
            k = int(rng.integers(0, n))
            removed = rng.choice(n, size=k, replace=False)
            expected = _largest_component_bfs(g, removed) / n
            assert giant_component_fraction(g, removed) == pytest.approx(expected)

    def test_denominator_is_original_n(self):
        g = build_complete(10)
        assert giant_component_fraction(g, [0, 1, 2, 3, 4]) == pytest.approx(0.5)

    def test_all_removed(self):
        g = build_complete(4)
        assert giant_component_fraction(g, range(4)) == 0.0

    def test_graph_without_nodes(self):
        assert giant_component_fraction(Graph(0, False, []), []) == 0.0

    def test_isolated_survivors(self):
        g = _star(5)
        assert giant_component_fraction(g, [0]) == pytest.approx(1 / 5)


class TestVaccinate:
    def test_targeted_picks_highest_degree_with_id_ties(self):
        g = Graph(5, False, [(0, 1), (0, 2), (0, 3), (1, 2)])
        # degrees: 3, 2, 2, 1, 0 -> top-3 are 0, then 1 before 2 (tie by id)
        chosen = vaccinate(g, VaccinationStrategy(TARGETED, 0.6))
        assert chosen.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("kind", [RANDOM, TARGETED])
    def test_ids_are_sorted_int64(self, kind):
        g = Graph(6, False, [(4, 5), (3, 5), (3, 4), (2, 5), (1, 2)])
        chosen = vaccinate(g, VaccinationStrategy(kind, 0.5), seed=3)
        assert chosen.dtype == np.int64
        assert chosen.tolist() == sorted(set(chosen.tolist()))
        assert len(chosen) == 3

    def test_count_is_rounded(self):
        g = build_complete(10)
        assert len(vaccinate(g, VaccinationStrategy(RANDOM, 0.25), seed=1)) == 3
        assert len(vaccinate(g, VaccinationStrategy(RANDOM, 0.24), seed=1)) == 2

    def test_random_is_seeded(self):
        g = build_complete(30)
        s = VaccinationStrategy(RANDOM, 0.5)
        assert np.array_equal(vaccinate(g, s, seed=7), vaccinate(g, s, seed=7))

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            VaccinationStrategy("degree", 0.1)
        with pytest.raises(ValueError):
            VaccinationStrategy(RANDOM, 1.5)


def _sequence(counts):
    """The degree sequence with ``counts[k]`` entries equal to k."""
    return np.repeat(list(counts), list(counts.values()))


def _analytical_oracle(counts, kind):
    """The analytical f_c of the histogram ``counts``, one degree class at a
    time with Python ints, as the moments were computed before the degree
    sequence became the only form of a distribution."""
    n = sum(counts.values())
    s1 = sum(k * c for k, c in counts.items())
    s2 = sum(k * k * c for k, c in counts.items())
    if kind == RANDOM:
        k1, k2 = s1 / n, s2 / n
        denom = k2 - k1
        return min(max(0.0 if denom <= 0 else 1.0 - k1 / denom, 0.0), 1.0)
    removed = 0.0
    for k, c in sorted(((k, c) for k, c in counts.items() if c), reverse=True):
        below1, below2 = s1 - k * c, s2 - k * k * c
        base = below2 - 2.0 * below1
        coef = (k * k - 2.0 * k) * c
        if base + coef <= 0:
            return min(removed / n, 1.0)
        if coef > 0 and base <= 0:
            return min((removed + (1.0 + base / coef) * c) / n, 1.0)
        removed += c
        s1, s2 = below1, below2
    raise AssertionError("the smallest class always ends the scan")


class TestAnalyticalThreshold:
    def test_random_three_regular(self):
        assert analytical_threshold([3] * 1000, RANDOM).f_c == pytest.approx(0.5)

    def test_random_two_point_mixture(self):
        # mean 4, second moment 20 -> f_c = 1 - 4/16 = 0.75
        degrees = _sequence({2: 500, 6: 500})
        assert analytical_threshold(degrees, RANDOM).f_c == pytest.approx(0.75)

    def test_random_subcritical_distribution(self):
        # <k^2> - <k> <= 0: no giant component even without vaccination
        assert analytical_threshold([1] * 10, RANDOM).f_c == 0.0

    def test_targeted_star(self):
        # hub degree 4 with 4 leaves: removing half the hub class suffices
        degrees = _sequence({1: 4, 4: 1})
        assert analytical_threshold(degrees, TARGETED).f_c == pytest.approx(0.1)

    def test_targeted_subcritical_distribution(self):
        # <k^2> - 2<k> <= 0 before any removal: nothing needs vaccinating
        assert analytical_threshold([1] * 10, TARGETED).f_c == 0.0

    def test_targeted_subcritical_with_a_hub(self):
        # sum k^2 - 2 sum k = 19 - 26 <= 0 although the top class has k^2 > 2k
        assert analytical_threshold(_sequence({3: 1, 1: 10}), TARGETED).f_c == 0.0

    def test_targeted_below_random_on_heavy_tail(self):
        degrees = _sequence({1: 700, 2: 200, 10: 80, 50: 20})
        tgt = analytical_threshold(degrees, TARGETED).f_c
        rnd = analytical_threshold(degrees, RANDOM).f_c
        assert tgt < rnd

    def test_result_fields(self):
        res = analytical_threshold([3] * 10, RANDOM)
        assert res.method == "analytical"
        assert res.s_min is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy kind 'bogus'"):
            analytical_threshold([1, 2], "bogus")

    @pytest.mark.parametrize("degrees", [[], [0, 0, 0], [2, -1, 3]])
    @pytest.mark.parametrize("kind", [RANDOM, TARGETED])
    def test_empty_zero_or_negative_degrees_rejected(self, degrees, kind):
        with pytest.raises(ValueError, match="mean degree > 0"):
            analytical_threshold(degrees, kind)

    @pytest.mark.parametrize("kind", [RANDOM, TARGETED])
    def test_huge_degrees_sum_exactly(self, kind):
        # k^2 c passes 2**63 here, so int64 moment sums would wrap
        counts = {1: 3, 2**32: 2, 3 * 2**31: 1}
        f_c = analytical_threshold(_sequence(counts), kind).f_c
        assert repr(f_c) == repr(_analytical_oracle(counts, kind))

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.integers(0, 60), st.integers(0, 40), min_size=1, max_size=8),
           st.sampled_from([RANDOM, TARGETED]), st.randoms(use_true_random=False))
    def test_agrees_with_per_class_oracle_to_the_bit(self, counts, kind, rnd):
        degrees = _sequence(counts)
        if degrees.sum() == 0:
            return
        rnd.shuffle(degrees)
        f_c = analytical_threshold(degrees, kind).f_c
        assert type(f_c) is float
        assert repr(f_c) == repr(_analytical_oracle(counts, kind))


class TestEmpiricalThreshold:
    def test_targeted_star_needs_only_the_hub(self):
        g = _star(100)
        res = empirical_threshold(g, TARGETED, s_min=0.02)
        assert res.trials == 1
        assert res.f_c <= 2 / 100 + res.ci_halfwidth

    def test_random_agrees_with_analytic_on_regular_graph(self):
        deg = [3] * 2000
        g = build_configuration_model(deg, seed=3)
        res = empirical_threshold(g, RANDOM, s_min=0.02, trials=5, seed=0)
        assert abs(res.f_c - 0.5) < 0.08

    def test_bounds_decide_levels_without_labelling_every_trial(self, monkeypatch):
        g = build_powerlaw(2000, 2.5, 1, 100, 0)
        calls = []
        level_fraction = percolation._level_fraction

        def counted(csr, k, n):
            calls.append(k)
            return level_fraction(csr, k, n)

        monkeypatch.setattr(percolation, "_level_fraction", counted)
        res = empirical_threshold(g, RANDOM, trials=10)
        # Labelling every trial takes one call for k = 0, then 10 per level over 10 levels.
        assert len(calls) < 1 + 10 * 10
        assert res.labellings == len(calls)
        assert res.f_c == _reference_threshold(g, RANDOM, 0.01, trials=10, seed=0).f_c

    def test_subcritical_graph_gives_zero(self):
        g = Graph(200, False, [(2 * i, 2 * i + 1) for i in range(100)])
        res = empirical_threshold(g, RANDOM, s_min=0.05, trials=3)
        assert res.f_c == 0.0

    def test_deterministic_per_seed(self):
        deg = [3] * 400
        g = build_configuration_model(deg, seed=1)
        a = empirical_threshold(g, RANDOM, trials=4, seed=5)
        b = empirical_threshold(g, RANDOM, trials=4, seed=5)
        assert a == b

    def test_parameter_validation(self):
        g = build_complete(5)
        with pytest.raises(ValueError):
            empirical_threshold(g, RANDOM, s_min=0.0)
        with pytest.raises(ValueError):
            empirical_threshold(g, RANDOM, trials=0)
        with pytest.raises(ValueError):
            empirical_threshold(g, "betweenness")
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            empirical_threshold(g, RANDOM, seed=-1)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_threshold_lies_in_unit_interval(self, seed):
        g = build_configuration_model([2] * 60, seed=seed)
        res = empirical_threshold(g, RANDOM, s_min=0.05, trials=2, seed=seed)
        assert 0.0 <= res.f_c <= 1.0
