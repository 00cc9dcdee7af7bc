"""Generators for the four contact-network families.

Family A is a complete graph (flat IP connectivity), family B a multi-modal
degree mixture (shared administrator accounts), family C a directed
configuration model (address books), and family D an undirected configuration
model with a heavy-tailed degree distribution (email traffic).

All generators are deterministic given their seed and produce simple graphs
whose degree sequences match the request exactly.

The real datasets behind the families are not available, so the named presets
``net-a`` … ``net-d`` (``preset``), one per family in that order, are documented
approximations sized for desk-scale experiments, not ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import Sequence

import numpy as np

from .graph import Graph, _chunks, _simple_split, read_degree_histogram


class GenerationError(RuntimeError):
    """A degree sequence could not be wired into a simple graph."""


# The fields each family reads besides ``family`` and ``seed``: ``peaks`` is a tuple
# of ``(degree, weight)``, and ``degrees_file`` a ``k count`` histogram, read when
# the graph is built, that gives n.
FAMILIES = {
    "complete": ("n",),
    "multimodal": ("n", "peaks"),
    "configmodel": ("degrees_file", "directed"),
    "powerlaw": ("n", "alpha", "k_min", "k_max", "directed"),
}


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of one network to generate.

    A field that ``FAMILIES`` does not list for ``family`` must be left unset
    (None); only this class checks the fields.  ``directed`` unset builds an
    undirected graph.
    """

    family: str
    n: int | None = None
    seed: int = 0
    peaks: tuple[tuple[int, float], ...] | None = None
    degrees_file: str | None = None
    directed: bool | None = None
    alpha: float | None = None
    k_min: int | None = None
    k_max: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; available: {', '.join(FAMILIES)}")
        unused = [f.name for f in fields(self) if getattr(self, f.name) is not None
                  and f.name not in ("family", "seed", *FAMILIES[self.family])]
        if unused:
            raise ValueError(f"{self.family} family does not take {sorted(unused)}")
        if self.family == "configmodel":
            if self.degrees_file is None:
                raise ValueError("configmodel family requires degrees_file")
        elif self.n is None:
            raise ValueError(f"{self.family} family requires n")
        elif self.n < 0:
            raise ValueError("n must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.family == "multimodal":
            if not self.peaks:
                raise ValueError("multimodal family requires peaks")
            weights = [w for _, w in self.peaks]
            if not all(w > 0 for w in weights):  # NaN fails too
                raise ValueError("peak weights must be positive")
            if not abs(sum(weights) - 1.0) <= 1e-9:
                raise ValueError("peak weights must sum to 1")
            if any(d < 0 or d >= self.n for d, _ in self.peaks):
                raise ValueError("peak degrees must lie in [0, n)")
        if self.family == "powerlaw":
            if self.alpha is None or not self.alpha > 1:
                raise ValueError("powerlaw requires alpha > 1")
            if self.k_min is None or self.k_max is None:
                raise ValueError("powerlaw requires k_min and k_max")
            if not (1 <= self.k_min <= self.k_max < self.n):
                raise ValueError("powerlaw requires 1 <= k_min <= k_max < n")
            if self.k_min == self.k_max and self.n * self.k_min % 2:  # no even-sum draw
                raise ValueError(
                    f"k_min = k_max = {self.k_min} with n = {self.n} gives an odd degree sum; "
                    "widen the degree range or change n"
                )


_PRESETS = {
    "net-a": NetworkSpec("complete", n=1000),
    "net-b": NetworkSpec("multimodal", n=2000, seed=20,
                         peaks=((1, 0.40), (4, 0.35), (12, 0.20), (40, 0.05))),
    "net-c": NetworkSpec("powerlaw", n=5000, seed=30, directed=True, alpha=2.0, k_min=1, k_max=70),
    "net-d": NetworkSpec("powerlaw", n=10000, seed=40, directed=False, alpha=2.5, k_min=1,
                         k_max=100),
}


def preset(name: str, **overrides) -> NetworkSpec:
    """The preset ``name``, with its ``n`` and ``seed`` replaced by any given in
    ``overrides``, which may set no other field."""
    unused = overrides.keys() - {"n", "seed"}
    if unused:
        raise ValueError(f"preset does not take {sorted(unused)}")
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}")
    return replace(_PRESETS[name], **overrides)


def build_complete(n: int) -> Graph:
    """Complete undirected graph: every pair connected, degree n - 1."""
    return Graph(n, False, np.column_stack(np.triu_indices(n, 1)))


def _even_sum(degrees: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """Fix an odd degree sum by bumping one uniformly chosen node's degree.

    The bias is O(1/n) relative to the requested distribution.
    """
    if degrees.sum() % 2:
        degrees = degrees.copy()
        i = int(rng.integers(len(degrees)))
        if degrees[i] + 1 >= n:
            raise GenerationError("cannot adjust degree parity without exceeding n - 1")
        degrees[i] += 1
    return degrees


def build_configuration_model(
    degrees: Sequence[int],
    directed: bool = False,
    seed: int | np.random.Generator = 0,
) -> Graph:
    """Wire a degree sequence into a simple graph by stub matching.

    Self-loops and duplicate edges left over from the matching are repaired
    with double-edge swaps, which preserves the degree sequence exactly.  For
    directed graphs ``degrees`` are out-degrees, and the in-degrees are a
    random permutation of the same multiset.  Degrees that no simple graph
    has raise ``GenerationError`` before any matching.
    """
    rng = np.random.default_rng(seed)
    deg = np.asarray(degrees, dtype=np.int64)
    n = len(deg)
    if np.any(deg < 0):
        raise ValueError("degrees must be non-negative")
    if n and deg.max() >= n:
        raise ValueError("max degree must be < n")
    if directed:
        in_deg = rng.permutation(deg)
        _check_digraphic(deg, in_deg)
        src = np.repeat(np.arange(n, dtype=np.int64), deg)
        dst = np.repeat(np.arange(n, dtype=np.int64), in_deg)
        rng.shuffle(dst)
    else:
        if deg.sum() % 2:
            raise ValueError(f"undirected degree sum must be even, got {deg.sum()}")
        _check_graphical(deg)
        stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
        rng.shuffle(stubs)
        src, dst = stubs[0::2], stubs[1::2]
    return _wire(n, directed, src, dst, rng)


def _check_graphical(deg: np.ndarray) -> None:
    """Raise GenerationError unless some simple graph has these degrees.

    Erdős–Gallai: with d_1 >= ... >= d_n and an even sum, the sequence is
    graphical iff sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k) for every
    k.  The right-hand sum is read off prefix sums: d_i >= k exactly for the
    first c_k = #{i : d_i >= k} entries.  O(n log n); no random draws.
    """
    n = len(deg)
    d = np.sort(deg)[::-1]
    prefix = np.concatenate([[0], np.cumsum(d)])
    k = np.arange(1, n + 1, dtype=np.int64)
    at_least_k = n - np.searchsorted(d[::-1], k, side="left")
    m = np.maximum(k, at_least_k)
    rhs = k * (k - 1) + k * (m - k) + prefix[-1] - prefix[m]
    bad = np.nonzero(prefix[1:] > rhs)[0]
    if len(bad):
        raise GenerationError(
            "degree sequence is not graphical: the Erdős–Gallai inequality "
            f"fails for the k = {bad[0] + 1} largest degrees"
        )


def _check_digraphic(out_deg: np.ndarray, in_deg: np.ndarray) -> None:
    """Raise GenerationError unless some simple digraph has these (out, in)
    degree pairs.

    Fulkerson–Chen–Anstee: with the pairs (a_i, b_i) in non-increasing
    lexicographic order and equal sums, they are digraphic iff
    sum_{i<=k} a_i <= sum_{i<=k} min(b_i, k-1) + sum_{i>k} min(b_i, k) for
    every k.  The right side is sum_i min(b_i, k) less #{i <= k : b_i >= k};
    entry i adds one to that count for every k in [i, b_i].  O(n log n); no
    random draws.
    """
    n = len(out_deg)
    order = np.lexsort((-in_deg, -out_deg))
    a, b = out_deg[order], in_deg[order]
    k = np.arange(1, n + 1, dtype=np.int64)
    b_sorted = np.sort(b)
    b_prefix = np.concatenate([[0], np.cumsum(b_sorted)])
    below_k = np.searchsorted(b_sorted, k, side="left")
    min_sum = b_prefix[below_k] + k * (n - below_k)
    spans = b >= k
    starts = np.bincount(k[spans], minlength=n + 2)
    ends = np.bincount(b[spans] + 1, minlength=n + 2)
    capped = np.cumsum(starts - ends)[1:n + 1]
    bad = np.nonzero(np.cumsum(a) > min_sum - capped)[0]
    if len(bad):
        raise GenerationError(
            "out/in degree sequences are not digraphic: the Fulkerson–Chen–Anstee "
            f"inequality fails for the k = {bad[0] + 1} largest out-degrees"
        )


def _wire(n, directed, src, dst, rng) -> Graph:
    """Match stub ``src[i]`` with stub ``dst[i]``, then repair by edge swaps.

    A pair that is a self-loop or repeats an earlier pair is a leftover.  Each
    leftover (u, v) replaces a random edge (x, y) by (u, y) and (x, v), which
    keeps every (out- and in-) degree; an undirected edge is first given a
    random orientation.  The whole repair shares a budget of 100 draws per pair.
    The draws still index ``list(edge_set)``, a set filled with the kept canonical
    pairs in input order, so they rest on CPython's set order; removing that
    order (roadmap item 6B) moves bytes.

    The graph itself is held as arrays throughout: the kept pairs in sorted order,
    less the pairs the swaps removed, with the ones they added merged in.  So
    ``Graph`` gets its rows in canonical order and skips their sort.  The set and
    its list are built only to drive the draws, from ``_node_pairs``, and
    ``_repair`` returns, releasing every tuple, before ``Graph`` is built.
    """
    u, v, order, leftover = _simple_split(n, directed, src, dst)
    if not leftover.any():
        return Graph(n, directed, np.column_stack((u[order], v[order])))
    kept = (u * n + v)[order][~leftover[order]]  # one key u * n + v per kept pair, sorted
    pairs = _node_pairs(n, u[~leftover], v[~leftover])  # the kept pairs in input order
    del u, v, order  # free the split's columns before the set is built
    removed, added = _repair(pairs, zip(src[leftover].tolist(), dst[leftover].tolist()),
                             directed, 100 * max(len(src), 1), rng)
    kept = np.delete(kept, np.searchsorted(kept, removed[:, 0] * n + removed[:, 1]))
    added = added[:, 0] * n + added[:, 1]
    kept = np.insert(kept, np.searchsorted(kept, added), added)
    return Graph(n, directed, np.column_stack(np.divmod(kept, n)))


def _node_pairs(n, u, v):
    """The pairs ``(u[i], v[i])`` in order, made ``CHUNK`` at a time, each end the
    one int object of its node: the set they fill then holds n ints in all,
    and no list of a whole column is built.  Indexing an object array of the
    ids hands out those ints with no Python call per pair."""
    ids = np.arange(n).astype(object)
    return chain.from_iterable(zip(ids[cu].tolist(), ids[cv].tolist())
                               for cu, cv in zip(_chunks(u), _chunks(v)))


def _repair(pairs, leftovers, directed, budget, rng) -> tuple[np.ndarray, np.ndarray]:
    """Place each leftover (u, v) by an edge swap over the set of ``pairs``;
    return, each as a sorted (k, 2) array, the pairs of ``pairs`` that the swaps
    removed and the pairs they added that are still there.  A pair of ``pairs``
    that a later swap adds back is in both."""
    edge_set = set(pairs)
    edge_list = list(edge_set)
    removed, added = set(), set()
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
            if old in added:  # an earlier swap's pair: un-add it
                added.discard(old)
            else:
                removed.add(old)
            added.add(e1)
            added.add(e2)
            edge_list[j] = e1
            edge_list.append(e2)
            placed = True
        if not placed:
            raise GenerationError("edge-swap repair exhausted its retry budget")
    return (np.array(sorted(removed), dtype=np.int64).reshape(-1, 2),
            np.array(sorted(added), dtype=np.int64).reshape(-1, 2))


def _powerlaw_degrees(spec: NetworkSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw n degrees from the discrete distribution p_k proportional to k^-alpha
    on [k_min, k_max]; the sum is forced even by redrawing uniformly chosen
    entries."""
    ks = np.arange(spec.k_min, spec.k_max + 1, dtype=np.int64)
    with np.errstate(over="ignore"):
        weights = ks.astype(float) ** (-spec.alpha)
    p = weights / weights.sum()
    degrees = rng.choice(ks, size=spec.n, p=p)
    while degrees.sum() % 2:
        i = int(rng.integers(spec.n))  # drawn before the new degree
        degrees[i] = rng.choice(ks, p=p)
    return degrees


def build_network(spec: NetworkSpec) -> Graph:
    """Generate the graph described by a NetworkSpec (deterministic per seed).
    Every family but ``complete`` draws its degrees, or reads a ``configmodel``
    histogram, and wires them by ``build_configuration_model``."""
    if spec.family == "complete":
        return build_complete(spec.n)
    rng = np.random.default_rng(spec.seed)
    if spec.family == "configmodel":
        degrees = read_degree_histogram(spec.degrees_file)
    elif spec.family == "powerlaw":
        degrees = _powerlaw_degrees(spec, rng)
    else:
        peak_degs, weights = np.array(spec.peaks).T
        degrees = rng.choice(peak_degs.astype(np.int64), size=spec.n, p=weights / weights.sum())
        degrees = _even_sum(degrees, rng, spec.n)
    return build_configuration_model(degrees, directed=bool(spec.directed), seed=rng)
