"""Vaccination strategies and epidemic-threshold estimation.

Whether an epidemic can still spread after vaccinating a fraction of nodes is
proxied by the survival of a giant component in the residual graph: the
critical fraction f_c is the smallest vaccinated fraction that drives the
largest component below a cutoff ``s_min`` of the original node count.

Two routes are provided: an empirical Monte-Carlo bisection on an actual
graph, and the analytical criterion on a degree distribution (configuration
model assumption).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .graph import DegreeDistribution, Graph

RANDOM = "random"
TARGETED = "targeted"
_KINDS = (RANDOM, TARGETED)


@dataclass(frozen=True)
class VaccinationStrategy:
    kind: str
    fraction: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")


@dataclass(frozen=True)
class ThresholdResult:
    """A critical vaccination fraction and how it was obtained.

    ``ci_halfwidth`` is the resolution of the estimate, not a confidence
    interval: the empirical bisection stops at ``max(1/n, 1e-3)``, and the
    analytical value is exact (0).  It says nothing about the spread of f_c
    between trial seeds.
    """

    f_c: float
    method: str  # "empirical" or "analytical"
    kind: str
    s_min: float | None
    trials: int
    ci_halfwidth: float


def _target_count(fraction: float, n: int) -> int:
    return int(np.floor(fraction * n + 0.5))


def _degree_order(g: Graph) -> np.ndarray:
    """Nodes by descending total degree, ties broken by ascending node id."""
    return np.lexsort((np.arange(g.n), -g.degrees("total")))


def vaccinate(g: Graph, strategy: VaccinationStrategy, seed: int = 0) -> set[int]:
    """Pick round(f * n) nodes to immunize.

    Random: uniform without replacement.  Targeted: the highest-degree nodes
    (total degree for directed graphs), ties broken by ascending node id.
    """
    k = _target_count(strategy.fraction, g.n)
    if strategy.kind == RANDOM:
        rng = np.random.default_rng(seed)
        return set(map(int, rng.choice(g.n, size=k, replace=False)))
    return set(map(int, _degree_order(g)[:k]))


# csgraph labels nodes with int32, so node and edge counts must fit in it.
_INT32_MAX = int(np.iinfo(np.int32).max)


def _check_int32(g: Graph) -> None:
    for name, count in (("node count", g.n), ("edge count", g.num_edges)):
        if count > _INT32_MAX:
            raise ValueError(f"{name} {count} exceeds {_INT32_MAX}, the most percolation can label")


def _largest_fraction(indptr: np.ndarray, indices: np.ndarray, n: int) -> float:
    """Largest connected component of the int32 CSR graph ``(indptr, indices)``,
    each entry taken as an undirected edge, over ``n``."""
    size = len(indptr) - 1
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(size, size))
    _, labels = connected_components(graph, directed=False)
    return int(np.bincount(labels).max()) / n


def giant_component_fraction(g: Graph, removed) -> float:
    """Largest-component size of the residual graph over the original n.

    ``removed`` is an array or any iterable of node ids.  Directed graphs use
    weak connectivity.
    """
    _check_int32(g)
    if g.n == 0:
        return 0.0
    if not isinstance(removed, np.ndarray):
        removed = np.fromiter(removed, dtype=np.int64)
    keep = np.ones(g.n, dtype=bool)
    if len(removed):
        keep[removed] = False
    # The removed nodes rank first, then the kept ones in id order.
    order = np.concatenate([np.flatnonzero(~keep), np.flatnonzero(keep)])
    return _level_fraction(_rank_csr(g, order), g.n - int(np.count_nonzero(keep)), g.n)


def _rank_csr(g: Graph, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges of ``g`` with each node renamed to its position in ``order``, as an
    int32 CSR: row r holds, sorted, the higher ranks of the edges whose lower rank is r.

    Removing ``order[:k]`` leaves exactly the rows from k on, shifted down by k."""
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    a, b = rank[g.edge_array[:, 0]], rank[g.edge_array[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    indptr = np.zeros(g.n + 1, dtype=np.int32)
    np.cumsum(np.bincount(lo, minlength=g.n), out=indptr[1:])
    return indptr, hi[np.argsort(lo * g.n + hi)].astype(np.int32)


def _level_fraction(csr: tuple[np.ndarray, np.ndarray], k: int, n: int) -> float:
    """giant_component_fraction of the graph behind ``_rank_csr`` with its k lowest
    ranks removed."""
    if k == n:
        return 0.0
    indptr, indices = csr
    start = indptr[k]
    if start == len(indices):
        return 1.0 / n
    return _largest_fraction(indptr[k:] - start, indices[start:] - k, n)


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
    its ``_rank_csr``, so a bisection step only slices the graph that is left.

    ``ci_halfwidth`` of the result is the bisection resolution
    ``max(1/n, 1e-3)``, not a confidence interval over trials.
    """
    if not 0.0 < s_min < 1.0:
        raise ValueError("s_min must lie in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if kind not in _KINDS:
        raise ValueError(f"unknown strategy kind {kind!r}")
    if g.n == 0:
        raise ValueError("graph has no nodes")
    _check_int32(g)

    if kind == TARGETED:
        csrs = [_rank_csr(g, _degree_order(g))]
        trials = 1
    else:
        ss = np.random.SeedSequence(seed)
        csrs = [_rank_csr(g, np.random.default_rng(c).permutation(g.n)) for c in ss.spawn(trials)]

    def response(f: float) -> float:
        k = _target_count(f, g.n)
        return float(np.mean([_level_fraction(csr, k, g.n) for csr in csrs]))

    tol = max(1.0 / g.n, 1e-3)
    lo, hi = 0.0, 1.0
    # Removing nothing leaves the same graph in every trial: label it once.
    if float(np.mean([_level_fraction(csrs[0], 0, g.n)] * trials)) < s_min:
        f_c = 0.0
    else:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if response(mid) < s_min:
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
    )


def analytical_threshold(dist: DegreeDistribution, kind: str) -> ThresholdResult:
    """Percolation threshold from degree moments (configuration model).

    Random: f_c = 1 - <k> / (<k^2> - <k>), clamped to [0, 1].  Targeted:
    smallest removed top-degree mass whose residual distribution fails the
    giant-component criterion <k^2> - 2<k> <= 0, with fractional occupation
    of the boundary degree class.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown strategy kind {kind!r}")
    if dist.mean() <= 0:
        raise ValueError("distribution must have mean degree > 0")

    if kind == RANDOM:
        k1 = dist.mean()
        k2 = dist.second_moment()
        denom = k2 - k1
        if denom <= 0:
            f_c = 0.0
        else:
            f_c = 1.0 - k1 / denom
        f_c = min(max(f_c, 0.0), 1.0)
    else:
        f_c = _targeted_analytical(dist)

    return ThresholdResult(
        f_c=f_c, method="analytical", kind=kind, s_min=None, trials=0, ci_halfwidth=0.0
    )


def _targeted_analytical(dist: DegreeDistribution) -> float:
    # Scan cut-degree candidates from the top; within the boundary class the
    # removed fraction x solves the (linear) criterion exactly.
    items = sorted(((k, c) for k, c in dist.counts.items() if c), reverse=True)
    s1 = sum(k * c for k, c in items)
    s2 = sum(k * k * c for k, c in items)
    n = dist.n
    removed = 0.0
    for k, c in items:
        below1 = s1 - k * c
        below2 = s2 - k * k * c
        # residual with fraction x of this class removed:
        #   (below2 - 2*below1) + (1 - x) * (k^2 - 2k) * c <= 0
        base = below2 - 2.0 * below1
        coef = (k * k - 2.0 * k) * c
        if base + coef <= 0:  # x = 0 already subcritical
            return min(removed / n, 1.0)
        if coef > 0 and base <= 0:
            # criterion first met for x in (0, 1]: solve base + (1-x)coef = 0
            x = 1.0 + base / coef
            return min((removed + x * c) / n, 1.0)
        removed += c
        s1, s2 = below1, below2
    return 1.0
