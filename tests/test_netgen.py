import itertools
import re
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormnet import graph
from wormnet.graph import Graph, _simple_split
from wormnet.netgen import (
    FAMILIES,
    GenerationError,
    NetworkSpec,
    build_complete,
    build_configuration_model,
    build_network,
    preset,
    _check_digraphic,
    _check_graphical,
    _powerlaw_degrees,
    _wire,
)


def _realisable(n, directed):
    """Degree sequences of every simple (di)graph on n nodes, by enumeration:
    ``d`` tuples (undirected) or ``(out, in)`` tuple pairs (directed)."""
    if directed:
        slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        slots = list(itertools.combinations(range(n), 2))
    found = set()
    for chosen in itertools.product((0, 1), repeat=len(slots)):
        out, inn = [0] * n, [0] * n
        for (u, v), on in zip(slots, chosen):
            out[u] += on
            inn[v] += on
        if directed:
            found.add((tuple(out), tuple(inn)))
        else:
            found.add(tuple(o + i for o, i in zip(out, inn)))
    return found


def _passes(check, *seqs):
    try:
        check(*(np.array(s, dtype=np.int64) for s in seqs))
    except GenerationError:
        return False
    return True


class TestNetworkSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            NetworkSpec("smallworld", 10)

    def test_multimodal_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            NetworkSpec("multimodal", 10, peaks=((2, 0.5), (3, 0.4)))

    @pytest.mark.parametrize("peaks, match", [
        (None, "requires peaks"),
        ((), "requires peaks"),
        (((2, 0.0), (3, 1.0)), "must be positive"),
        (((2, -0.5), (3, 1.5)), "must be positive"),
    ])
    def test_multimodal_peaks_required_and_positive(self, peaks, match):
        with pytest.raises(ValueError, match=match):
            NetworkSpec("multimodal", 10, peaks=peaks)

    def test_multimodal_peak_degree_range(self):
        with pytest.raises(ValueError, match="lie in"):
            NetworkSpec("multimodal", 5, peaks=((5, 1.0),))

    def test_configmodel_requires_degrees_file(self):
        with pytest.raises(ValueError, match="configmodel family requires degrees_file"):
            NetworkSpec("configmodel")

    @pytest.mark.parametrize("family, kwargs", [
        ("complete", {"n": 3}),
        ("configmodel", {"degrees_file": "h.hist"}),
        ("powerlaw", {"n": 3, "alpha": 2.0, "k_min": 1, "k_max": 2}),
    ])
    def test_negative_seed_rejected(self, family, kwargs):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            NetworkSpec(family, seed=-1, **kwargs)

    @pytest.mark.parametrize("alpha, k_min, k_max, match", [
        (1.0, 1, 10, "powerlaw requires alpha > 1"),
        (0.5, 1, 10, "powerlaw requires alpha > 1"),
        (float("nan"), 1, 10, "powerlaw requires alpha > 1"),
        (2.5, 5, 3, "powerlaw requires 1 <= k_min <= k_max < n"),
        (2.5, 0, 3, "powerlaw requires 1 <= k_min <= k_max < n"),
        (2.5, 1, 100, "powerlaw requires 1 <= k_min <= k_max < n"),
        (2.0, None, None, "powerlaw requires k_min and k_max"),
    ])
    def test_powerlaw_parameter_validation(self, alpha, k_min, k_max, match):
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            NetworkSpec("powerlaw", 100, alpha=alpha, k_min=k_min, k_max=k_max)

    @pytest.mark.parametrize("directed", [False, True])
    def test_single_degree_support_with_odd_sum_rejected(self, directed):
        # 7 nodes of degree 3 cannot form a graph; bumping one degree to 4
        # would leave the requested support
        with pytest.raises(ValueError, match="^k_min = k_max = 3 with n = 7 gives an odd "
                                             "degree sum; widen the degree range or change n$"):
            NetworkSpec("powerlaw", 7, directed=directed, alpha=2.5, k_min=3, k_max=3)
        g = build_network(NetworkSpec("powerlaw", 8, directed=directed, alpha=2.5,
                                      k_min=3, k_max=3))
        assert g.degrees("out").tolist() == [3] * 8

    @pytest.mark.parametrize("family, kwargs", [
        ("complete", {"n": 5}),
        ("multimodal", {"n": 10, "peaks": ((2, 1.0),)}),
    ])
    def test_undirected_family_rejects_directed(self, family, kwargs):
        with pytest.raises(ValueError, match=rf"^{family} family does not take \['directed'\]$"):
            NetworkSpec(family, directed=True, **kwargs)


class TestPreset:
    def test_overrides_replace_n_and_seed(self):
        assert preset("net-d", n=300, seed=1) == replace(preset("net-d"), n=300, seed=1)

    def test_other_override_refused(self):
        with pytest.raises(ValueError, match=r"^preset does not take \['alpha'\]$"):
            preset("net-d", alpha=3.5)

    def test_unknown_name_refused(self):
        with pytest.raises(ValueError, match="^unknown preset 'net-e'; available: "
                                             "net-a, net-b, net-c, net-d$"):
            preset("net-e")


class TestComplete:
    def test_structure(self):
        g = build_complete(7)
        assert g.num_edges == 21
        assert g.degrees().tolist() == [6] * 7

    def test_trivial_sizes(self):
        assert build_complete(0).num_edges == 0
        assert build_complete(1).num_edges == 0
        assert build_complete(2).edge_array.tolist() == [[0, 1]]


class TestConfigurationModel:
    def test_exact_degree_sequence(self):
        deg = [3, 2, 2, 1, 1, 1, 2, 2, 2, 2]
        g = build_configuration_model(deg, seed=1)
        assert g.degrees().tolist() == deg

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_configuration_model([1, 1, 1])

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_configuration_model([1, -1, 0])

    def test_degree_too_large_rejected(self):
        with pytest.raises(ValueError, match="max degree"):
            build_configuration_model([3, 1, 1, 1][:3])

    def test_non_graphical_sequence_raises(self):
        # Erdos-Gallai fails for (3, 3, 3, 1): no simple graph exists
        with pytest.raises(GenerationError):
            build_configuration_model([3, 3, 3, 1], seed=0)

    def test_deterministic(self):
        deg = [2] * 50
        assert build_configuration_model(deg, seed=9) == build_configuration_model(deg, seed=9)

    def test_directed_out_degrees_exact_in_degrees_permuted(self):
        rng = np.random.default_rng(2)
        out_deg = rng.integers(0, 6, size=60)
        g = build_configuration_model(out_deg, directed=True, seed=7)
        assert g.degrees("out").tolist() == out_deg.tolist()
        assert sorted(g.degrees("in").tolist()) == sorted(out_deg.tolist())

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=16, max_size=40), st.integers(0, 2**31))
    def test_simple_graph_with_exact_degrees(self, deg, seed):
        # min degree 1 and n >= 16 keep every sequence graphical
        # (Erdos-Gallai: 6k <= k(k-1) + (n-k) whenever n >= 8k - k^2)
        deg = list(deg)
        if sum(deg) % 2:
            deg[0] += 1
        g = build_configuration_model(deg, seed=seed)
        assert g.degrees().tolist() == deg
        edges = g.edge_array
        assert not np.any(edges[:, 0] == edges[:, 1])
        assert len(np.unique(edges, axis=0)) == g.num_edges


def _split_oracle(directed, src, dst):
    """The per-pair stub split that ``_wire`` replaced: the kept canonical pairs,
    added to a set in input order, and the leftover pairs in input order."""
    edge_set, leftovers = set(), []
    for u, v in zip(src.tolist(), dst.tolist()):
        e = (u, v) if directed or u < v else (v, u)
        if u == v or e in edge_set:
            leftovers.append((u, v))
        else:
            edge_set.add(e)
    return edge_set, leftovers


def _wire_oracle(n, directed, src, dst, rng):
    """``_wire`` as it was before the split was vectorised: the split above, then
    the same edge-swap repair over ``list(edge_set)``."""
    edge_set, leftovers = _split_oracle(directed, src, dst)
    budget = 100 * max(len(src), 1)
    edge_list = list(edge_set)
    for u, v in leftovers:
        placed = False
        while budget > 0 and not placed:
            budget -= 1
            if not edge_list:
                break
            j = int(rng.integers(len(edge_list)))
            x, y = old = edge_list[j]
            if not directed and not rng.integers(2):
                x, y = y, x
            e1, e2 = (u, y), (x, v)
            if not directed:
                e1, e2 = tuple(sorted(e1)), tuple(sorted(e2))
            if u == y or x == v or e1 == e2 or e1 in edge_set or e2 in edge_set:
                continue
            edge_set.discard(old)
            edge_set.add(e1)
            edge_set.add(e2)
            edge_list[j] = e1
            edge_list.append(e2)
            placed = True
        if not placed:
            raise GenerationError("edge-swap repair exhausted its retry budget")
    return Graph(n, directed, edge_set)


def _check_wire(stubs, directed, seed):
    """``_wire`` builds the oracle's graph, or fails where it fails, and leaves
    its generator where the oracle leaves its own."""
    n, pairs = stubs
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = _wire_oracle(n, directed, src, dst, oracle_rng)
    except GenerationError:
        with pytest.raises(GenerationError):
            _wire(n, directed, src, dst, rng)
    else:
        assert _wire(n, directed, src, dst, rng) == expected
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


_stub_pairs = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)))


class TestWiring:
    """The array split of ``_wire`` must reproduce the per-pair one exactly: the
    repair's draws index ``list(edge_set)`` and walk the leftovers in order."""

    @settings(max_examples=300, deadline=None)
    @given(_stub_pairs, st.booleans())
    def test_split_matches_per_pair_loop(self, stubs, directed):
        n, pairs = stubs
        src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        edge_set, leftovers = _split_oracle(directed, src, dst)
        u, v, _, leftover = _simple_split(n, directed, src, dst)
        assert list(zip(src[leftover].tolist(), dst[leftover].tolist())) == leftovers
        kept = set(zip(u[~leftover].tolist(), v[~leftover].tolist()))
        assert list(kept) == list(edge_set)

    @settings(max_examples=300, deadline=None)
    @given(_stub_pairs, st.booleans(), st.integers(0, 2**31))
    def test_wire_matches_per_pair_wiring(self, stubs, directed, seed):
        _check_wire(stubs, directed, seed)

    @settings(max_examples=300, deadline=None)
    @given(_stub_pairs, st.booleans(), st.integers(0, 2**31), st.integers(1, 4))
    def test_wire_in_small_chunks_matches_per_pair_wiring(self, stubs, directed, seed, chunk):
        # the kept pairs reach the repair's set a few at a time, and most inputs
        # end in a short chunk
        with mock.patch.object(graph, "CHUNK", chunk):
            _check_wire(stubs, directed, seed)

    @pytest.mark.parametrize("directed", [False, True])
    def test_a_one_pair_last_chunk_reaches_the_set(self, directed):
        # ten distinct pairs and a repeat of the first: ten kept pairs in chunks
        # of three, the last of them alone in its chunk, and one pair to repair
        pairs = [(i, (i + 1) % 10) for i in range(10)] + [(0, 1)]
        src, dst = np.array(pairs, dtype=np.int64).T
        assert np.count_nonzero(~_simple_split(10, directed, src, dst)[3]) == 10
        expected = _wire_oracle(10, directed, src, dst, np.random.default_rng(4))
        with mock.patch.object(graph, "CHUNK", 3):
            assert _wire(10, directed, src, dst, np.random.default_rng(4)) == expected


class TestGraphicality:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_erdos_gallai_matches_enumeration(self, n):
        real = _realisable(n, directed=False)
        for d in itertools.product(range(n), repeat=n):
            if sum(d) % 2 == 0:
                assert _passes(_check_graphical, d) == (d in real), d

    @pytest.mark.parametrize("n", range(1, 5))
    def test_fulkerson_chen_anstee_matches_enumeration(self, n):
        real = _realisable(n, directed=True)
        for out in itertools.product(range(n), repeat=n):
            for inn in itertools.product(range(n), repeat=n):
                if sum(out) == sum(inn):
                    assert _passes(_check_digraphic, out, inn) == ((out, inn) in real)

    def test_non_graphical_power_law_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(GenerationError, match="Erdős–Gallai inequality fails for the k = 2"):
            build_network(NetworkSpec("powerlaw", 2000, seed=1, alpha=1.5, k_min=1, k_max=1999))
        assert time.perf_counter() - start < 1.0

    def test_non_digraphic_pairs_rejected(self):
        # whichever node draws in-degree 2 needs two in-neighbours, but only
        # node 0 has out-edges
        with pytest.raises(GenerationError, match="Fulkerson–Chen–Anstee"):
            build_configuration_model([2, 0, 0], directed=True)


class TestMultimodal:
    def test_degrees_land_on_peaks(self):
        peaks = ((3, 0.5), (9, 0.5))
        g = build_network(NetworkSpec("multimodal", 400, seed=11, peaks=peaks))
        degs = g.degrees()
        # the parity fix may bump one node off-peak by exactly +1
        on_peak = np.isin(degs, [3, 9])
        off = np.nonzero(~on_peak)[0]
        assert len(off) <= 1
        if len(off):
            assert degs[off[0]] in (4, 10)

    def test_peak_proportions(self):
        peaks = ((2, 0.25), (8, 0.75))
        g = build_network(NetworkSpec("multimodal", 4000, seed=5, peaks=peaks))
        frac_low = np.mean(np.isin(g.degrees(), [2, 3]))
        assert abs(frac_low - 0.25) < 0.03


def _powerlaw_spec(n, alpha, k_min, k_max, seed=0, directed=False):
    return NetworkSpec("powerlaw", n, seed=seed, directed=directed, alpha=alpha,
                       k_min=k_min, k_max=k_max)


class TestPowerlaw:
    def test_support_and_parity(self):
        degs = build_network(_powerlaw_spec(501, 2.5, 2, 40, seed=3)).degrees()
        assert degs.min() >= 2 and degs.max() <= 40
        assert degs.sum() % 2 == 0
        assert len(degs) == 501

    def test_exponent_recovered_from_samples(self):
        degs = build_network(_powerlaw_spec(100_000, 2.5, 1, 100, seed=0)).degrees()
        ks, counts = np.unique(degs, return_counts=True)
        mask = (ks >= 2) & (ks <= 30) & (counts >= 10)
        slope = np.polyfit(np.log(ks[mask]), np.log(counts[mask]), 1)[0]
        assert slope == pytest.approx(-2.5, abs=0.2)

    def test_steep_exponent_concentrates_at_k_min(self):
        degs = build_network(_powerlaw_spec(10_000, 50.0, 3, 60, seed=1)).degrees()
        assert np.mean(degs == 3) > 0.99

    @pytest.mark.parametrize("directed", [False, True])
    def test_graph_degrees_are_the_seeds_first_draw(self, directed):
        spec = _powerlaw_spec(600, 2.2, 1, 30, seed=12, directed=directed)
        degs = _powerlaw_degrees(spec, np.random.default_rng(12))
        g = build_network(spec)
        assert sorted(g.degrees("out").tolist()) == sorted(degs.tolist())

    def test_build_network_deterministic(self):
        a = build_network(_powerlaw_spec(300, 2.5, 1, 20, seed=8))
        assert a == build_network(_powerlaw_spec(300, 2.5, 1, 20, seed=8))
        assert a != build_network(_powerlaw_spec(300, 2.5, 1, 20, seed=9))


class TestBuildNetwork:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_dispatch_deterministic(self, tmp_path, family):
        hist = tmp_path / "h.hist"
        hist.write_text("2 20\n")
        spec = {
            "complete": NetworkSpec("complete", 12),
            "multimodal": NetworkSpec("multimodal", 50, seed=1, peaks=((2, 0.5), (4, 0.5))),
            "configmodel": NetworkSpec("configmodel", seed=1, degrees_file=str(hist)),
            "powerlaw": NetworkSpec("powerlaw", 80, seed=1, alpha=2.5, k_min=1, k_max=10),
        }[family]
        assert build_network(spec) == build_network(spec)

    def test_configmodel_from_histogram(self, tmp_path):
        p = tmp_path / "h.hist"
        p.write_text("4 5\n2 10\n")
        g = build_network(NetworkSpec("configmodel", degrees_file=str(p)))
        assert sorted(g.degrees().tolist()) == [2] * 10 + [4] * 5

    def test_configmodel_odd_histogram_sum_rejected_not_edited(self, tmp_path):
        (tmp_path / "h.hist").write_text("1 3\n0 1\n")
        spec = NetworkSpec("configmodel", degrees_file=str(tmp_path / "h.hist"))
        with pytest.raises(ValueError, match="sum must be even, got 3"):
            build_network(spec)
