"""Vaccination strategies and epidemic-threshold estimation.

Whether an epidemic can still spread after vaccinating a fraction of nodes is
proxied by the survival of a giant component in the residual graph: the
critical fraction f_c is the smallest vaccinated fraction that drives the
largest component below a cutoff ``s_min`` of the original node count.

Two routes are provided: an empirical Monte-Carlo bisection on an actual
graph, and the analytical criterion on a degree sequence (configuration
model assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, int64_array

RANDOM = "random"
TARGETED = "targeted"
_KINDS = (RANDOM, TARGETED)


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown strategy kind {kind!r}; available: {', '.join(_KINDS)}")


@dataclass(frozen=True)
class VaccinationStrategy:
    kind: str
    fraction: float

    def __post_init__(self):
        _check_kind(self.kind)
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")


@dataclass(frozen=True)
class ThresholdResult:
    """A critical vaccination fraction and how it was obtained.

    ``ci_halfwidth`` is the resolution of the estimate, not a confidence
    interval: the empirical bisection stops at ``max(1/n, 1e-3)``, and the
    analytical value is exact (0).  It says nothing about the spread of f_c
    between trial seeds.

    ``labellings`` and ``levels`` count the work of an empirical estimate: the
    component labellings, the one at k = 0 included, and the bisection levels
    (0 and 0 for the analytical route).  They describe how the estimate was
    computed, not the estimate, so equality ignores them.
    """

    f_c: float
    method: str  # "empirical" or "analytical"
    kind: str
    s_min: float | None
    trials: int
    ci_halfwidth: float
    labellings: int = field(default=0, compare=False)
    levels: int = field(default=0, compare=False)


def _target_count(fraction: float, n: int) -> int:
    return int(np.floor(fraction * n + 0.5))


def _degree_order(g: Graph) -> np.ndarray:
    """Nodes by descending total degree, ties broken by ascending node id."""
    return np.argsort(-g.degrees("total"), kind="stable")


def vaccinate(g: Graph, strategy: VaccinationStrategy, seed: int = 0) -> np.ndarray:
    """The sorted int64 ids of round(f * n) nodes to immunize.

    Random: uniform without replacement.  Targeted: the highest-degree nodes
    (total degree for directed graphs), ties broken by ascending node id.
    """
    k = _target_count(strategy.fraction, g.n)
    if strategy.kind == RANDOM:
        return np.sort(np.random.default_rng(seed).choice(g.n, size=k, replace=False))
    return np.sort(_degree_order(g)[:k])


# `_rank_edges` and the labeller hold node ids in int32; edge counts are held to the same limit.
_INT32_MAX = int(np.iinfo(np.int32).max)


def _check_int32(g: Graph) -> None:
    for name, count in (("node count", g.n), ("edge count", g.num_edges)):
        if count > _INT32_MAX:
            raise ValueError(f"{name} {count} exceeds {_INT32_MAX}, the most percolation can label")


def _point_at_roots(parent: np.ndarray, nodes: np.ndarray) -> None:
    """Point each of ``nodes`` at the root of its chain in the forest ``parent``
    (pointer jumping; a node drops out once its parent is a root)."""
    while len(nodes):
        up = parent[nodes]
        upup = np.take(parent, up)
        moved = up != upup
        nodes = nodes[moved]
        parent[nodes] = upup[moved]


def _component_roots(lo: np.ndarray, hi: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(root, hooked)`` for the ``size``-node graph with the undirected int32 edges
    ``(lo, hi)``, each with lo < hi: ``root[v]`` is the least node of v's connected
    component, and ``hooked`` lists the nodes that are not their own root.

    Each round hooks every root that ends an edge as its higher end onto the
    least root at the other end (Shiloach & Vishkin, J. Algorithms 3, 57, 1982),
    points the hooked roots at the roots of the chains this makes, and contracts
    each edge to its pair of roots, dropping the pairs that have become one root.
    A hook always lowers a node's parent, so no round makes a cycle, and every
    round hooks at least the higher root of each edge left.  The rounds stop when
    no edge is left; then, latest round first, each round's hooked nodes are
    pointed at the roots that their own roots were hooked onto later."""
    # np.take gathers at int32 indices (edge ends, parents) faster than indexing does.
    parent = np.arange(size, dtype=np.int32)
    rounds = []
    while len(lo):
        np.minimum.at(parent, hi, lo)
        ends = np.zeros(size, dtype=bool)
        ends[hi] = True
        hooked = np.flatnonzero(ends)
        _point_at_roots(parent, hooked)
        rounds.append(hooked)
        a, b = np.take(parent, lo), np.take(parent, hi)
        apart = a != b
        a, b = a[apart], b[apart]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    for hooked in reversed(rounds[:-1]):
        parent[hooked] = np.take(parent, parent[hooked])
    return parent, np.concatenate(rounds) if rounds else np.zeros(0, dtype=np.intp)


def giant_component_fraction(g: Graph, removed) -> float:
    """Largest-component size of the residual graph over the original n.

    ``removed`` is an array or any iterable of node ids.  Directed graphs use
    weak connectivity.
    """
    _check_int32(g)
    if g.n == 0:
        return 0.0
    keep = np.ones(g.n, dtype=bool)
    keep[int64_array(removed)] = False
    # The removed nodes rank first, then the kept ones in id order.
    order = np.concatenate([np.flatnonzero(~keep), np.flatnonzero(keep)])
    return _level_fraction(_rank_edges(g, order), g.n - int(np.count_nonzero(keep)), g.n)


def _rank_edges(g: Graph, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges of ``g`` with each node renamed to its position in ``order``, as
    int32 columns ``(lo, hi)`` with lo < hi, sorted by lo, then by hi.

    Removing ``order[:k]`` leaves exactly the edges from ``searchsorted(lo, k)`` on,
    their ranks shifted down by k."""
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    a, b = rank[g.edge_array[:, 0]], rank[g.edge_array[:, 1]]
    # Sorting the packed keys themselves is cheaper than arg-sorting them.
    lo, hi = np.divmod(np.sort(np.minimum(a, b) * g.n + np.maximum(a, b)), g.n)
    return lo.astype(np.int32), hi.astype(np.int32)


def _level_fraction(edges: tuple[np.ndarray, np.ndarray], k: int, n: int) -> float:
    """giant_component_fraction of the graph behind ``_rank_edges`` with its k lowest
    ranks removed."""
    if k == n:
        return 0.0
    lo, hi = edges
    start = int(np.searchsorted(lo, k))
    if start == len(lo):
        return 1.0 / n
    root, hooked = _component_roots(lo[start:] - k, hi[start:] - k, n - k)
    # A root's component is the root and the hooked nodes that point at it.
    return (1 + int(np.bincount(root[hooked]).max())) / n


def empirical_threshold(
    g: Graph,
    kind: str,
    s_min: float = 0.01,
    trials: int = 10,
    seed: int = 0,
) -> ThresholdResult:
    """Bisection for the smallest f with mean giant-component fraction < s_min.

    Random trials share per-trial removal orders across f values (each trial
    removes a prefix of one fixed permutation), so the response is exactly
    monotone per trial and the bisection is well posed.  Targeted removal is
    deterministic, so a single evaluation per f suffices.  Each order is held as
    its ``_rank_edges``, so a bisection step only slices the edges that are left,
    and the labeller (``_component_roots``) labels them.

    A level, k = round(f * n) removed nodes, is decided without labelling every
    trial.  Each trial keeps the fractions of the levels it has labelled, and is
    bounded at k from below by its fraction at the nearest labelled count >= k
    (else 0), and from above by the lesser of its fraction at the nearest
    labelled count <= k and (edges left + 1) / n.  Trials are labelled in order,
    each bound pair collapsing to its fraction, until the mean of the lower
    bounds reaches s_min or the mean of the upper bounds falls below it.  The
    result is that of labelling every trial at every level: a trial's fraction
    never rises with k, a c-node component needs c - 1 of the edges left, and
    ``np.mean`` over a list of fixed length and order rounds monotonically in
    each entry.

    ``ci_halfwidth`` of the result is the bisection resolution
    ``max(1/n, 1e-3)``, not a confidence interval over trials.
    """
    if not 0.0 < s_min < 1.0:
        raise ValueError("s_min must lie in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check_kind(kind)
    if g.n == 0:
        raise ValueError("graph has no nodes")
    _check_int32(g)

    if kind == TARGETED:
        ranked = [_rank_edges(g, _degree_order(g))]
        trials = 1
    else:
        ss = np.random.SeedSequence(seed)
        ranked = [_rank_edges(g, np.random.default_rng(c).permutation(g.n))
                  for c in ss.spawn(trials)]

    def below(f: float) -> bool:
        """Whether the mean giant-component fraction at f is below s_min."""
        k = _target_count(f, g.n)
        lower, upper = [], []
        for levels, (lo_ranks, _) in zip(labelled, ranked):
            after = [j for j in levels if j >= k]
            lower.append(levels[min(after)] if after else 0.0)
            edges_left = len(lo_ranks) - int(np.searchsorted(lo_ranks, k))
            upper.append(min(levels[max(j for j in levels if j <= k)], (edges_left + 1) / g.n))
        for i, levels in enumerate(labelled):
            if float(np.mean(lower)) >= s_min:
                return False
            if float(np.mean(upper)) < s_min:
                return True
            if k not in levels:
                levels[k] = lower[i] = upper[i] = _level_fraction(ranked[i], k, g.n)
        return float(np.mean(lower)) < s_min

    tol = max(1.0 / g.n, 1e-3)
    lo, hi, n_levels = 0.0, 1.0, 0
    # Removing nothing leaves the same graph in every trial: label it once.
    full = _level_fraction(ranked[0], 0, g.n)
    labelled = [{0: full} for _ in ranked]  # per trial, {removed count: fraction}
    if float(np.mean([full] * trials)) < s_min:
        f_c = 0.0
    else:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            n_levels += 1
            if below(mid):
                hi = mid
            else:
                lo = mid
        f_c = hi

    return ThresholdResult(
        f_c=f_c,
        method="empirical",
        kind=kind,
        s_min=s_min,
        trials=trials,
        ci_halfwidth=tol,
        # past the one at k = 0, which every trial shares, each labelling adds one entry
        labellings=1 + sum(len(fractions) - 1 for fractions in labelled),
        levels=n_levels,
    )


def analytical_threshold(degrees, kind: str) -> ThresholdResult:
    """Percolation threshold of the degree sequence ``degrees`` (configuration
    model; any order).

    Random: f_c = 1 - <k> / (<k^2> - <k>), clamped to [0, 1].  Targeted:
    smallest removed top-degree mass whose residual distribution fails the
    giant-component criterion <k^2> - 2<k> <= 0, with fractional occupation
    of the boundary degree class.
    """
    _check_kind(kind)
    degrees = np.asarray(degrees, dtype=np.int64)
    if (degrees < 0).any() or not degrees.any():
        raise ValueError("degree sequence must be non-negative with mean degree > 0")
    # Degree classes k with counts c, as Python ints so that every sum is exact.
    ks, cs = np.unique(degrees, return_counts=True)
    ks, cs = ks.astype(object), cs.astype(object)
    n, s1, s2 = len(degrees), ks @ cs, (ks * ks) @ cs

    if kind == RANDOM:
        k1, k2 = s1 / n, s2 / n
        f_c = 0.0 if k2 - k1 <= 0 else 1.0 - k1 / (k2 - k1)
        f_c = min(max(f_c, 0.0), 1.0)
    else:
        f_c = _targeted_analytical(ks[::-1], cs[::-1], s1, s2, n)

    return ThresholdResult(
        f_c=f_c, method="analytical", kind=kind, s_min=None, trials=0, ci_halfwidth=0.0
    )


def _targeted_analytical(ks, cs, s1: int, s2: int, n: int) -> float:
    """Cut the degree classes ``(ks, cs)``, highest k first.  With the classes
    above k removed and a fraction x of class k, the residual criterion reads
    (below2 - 2 below1) + (1 - x)(k^2 - 2k)c <= 0, where below1 and below2 sum
    k and k^2 over the classes below k.  f_c is set by the first class where it
    holds at x = 0, or is first met for some x in (0, 1].  The last class
    always qualifies: nothing is below it, so base = 0."""
    below1 = s1 - np.cumsum(ks * cs)
    below2 = s2 - np.cumsum(ks * ks * cs)
    base = (below2 - 2.0 * below1).astype(float)
    coef = ((ks * ks - 2.0 * ks) * cs).astype(float)
    subcritical = base + coef <= 0
    i = int(np.argmax(subcritical | ((coef > 0) & (base <= 0))))
    x = 0.0 if subcritical[i] else 1.0 + base[i] / coef[i]
    return min(float((cs[:i].sum() + x * cs[i]) / n), 1.0)
