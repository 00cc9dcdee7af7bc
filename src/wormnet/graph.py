"""Graph and degree-distribution primitives shared by the generators and simulators.

Nodes are dense integer ids ``0..n-1``.  Graphs are simple (no self-loops, no
duplicate edges) and immutable after construction; undirected edges are stored
once in canonical ``(min, max)`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np


class ParseError(ValueError):
    """Raised for malformed graph / histogram files; carries the line number."""

    def __init__(self, path, lineno: int, message: str):
        self.path = str(path)
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}")


class Graph:
    """Immutable simple graph over integer node ids.

    Edges are held as a lexicographically sorted ``(m, 2)`` int64 array, which
    keeps serialization canonical and lets the simulators vectorize over it.
    """

    __slots__ = ("n", "directed", "_edges", "__dict__")

    def __init__(self, n: int, directed: bool, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("node count must be >= 0")
        self.n = int(n)
        self.directed = bool(directed)

        arr = np.asarray(sorted(self._canonical(edges)), dtype=np.int64)
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.size:
            if arr.min() < 0 or arr.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
            if len(np.unique(arr, axis=0)) != len(arr):
                raise ValueError("duplicate edges are not allowed")
        self._edges = arr

    def _canonical(self, edges):
        if self.directed:
            return [(int(u), int(v)) for u, v in edges]
        return [(min(int(u), int(v)), max(int(u), int(v))) for u, v in edges]

    @property
    def edge_array(self) -> np.ndarray:
        """Edges as a read-only (m, 2) array in canonical sorted order."""
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(u), int(v)) for u, v in self._edges}

    def degrees(self, kind: str = "total") -> np.ndarray:
        """Per-node degree array.  ``kind`` is 'total', 'in' or 'out'.

        For undirected graphs all three kinds coincide.
        """
        if kind not in ("total", "in", "out"):
            raise ValueError(f"unknown degree kind {kind!r}")
        out = np.bincount(self._edges[:, 0], minlength=self.n)
        inc = np.bincount(self._edges[:, 1], minlength=self.n)
        if not self.directed:
            return out + inc
        if kind == "out":
            return out
        if kind == "in":
            return inc
        return out + inc

    @cached_property
    def out_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, targets) adjacency over out-neighbors.

        Undirected graphs include both orientations.  Neighbor lists are
        sorted, so lookups are deterministic.
        """
        if self.directed:
            src = self._edges[:, 0]
            dst = self._edges[:, 1]
        else:
            src = np.concatenate([self._edges[:, 0], self._edges[:, 1]])
            dst = np.concatenate([self._edges[:, 1], self._edges[:, 0]])
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        counts = np.bincount(src, minlength=self.n)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return indptr.astype(np.int64), dst.astype(np.int64)

    def neighbors(self, u: int) -> np.ndarray:
        indptr, targets = self.out_adjacency
        return targets[indptr[u]:indptr[u + 1]]

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.directed == other.directed
            and np.array_equal(self._edges, other._edges)
        )

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, {kind}, m={self.num_edges})"


@dataclass(frozen=True)
class DegreeDistribution:
    """Histogram of node degrees: ``counts[k]`` nodes have degree ``k``.

    ``alpha`` records the power-law exponent when the distribution was
    synthesized from one; it is informational only.
    """

    counts: Mapping[int, int]
    n: int
    alpha: float | None = None

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.n:
            raise ValueError(f"counts sum to {total}, expected n={self.n}")
        if any(k < 0 or c < 0 for k, c in self.counts.items()):
            raise ValueError("degrees and counts must be non-negative")

    @classmethod
    def from_degrees(cls, degrees, alpha: float | None = None) -> "DegreeDistribution":
        degrees = np.asarray(degrees, dtype=np.int64)
        ks, cs = np.unique(degrees, return_counts=True)
        return cls({int(k): int(c) for k, c in zip(ks, cs)}, int(len(degrees)), alpha)

    def fractions(self) -> dict[int, float]:
        """p_k, the fraction of nodes with each degree."""
        return {k: c / self.n for k, c in self.counts.items() if c}

    def to_sequence(self) -> np.ndarray:
        """Expand the histogram into an explicit degree sequence (sorted)."""
        return np.repeat(
            np.array(sorted(self.counts), dtype=np.int64),
            np.array([self.counts[k] for k in sorted(self.counts)], dtype=np.int64),
        )

    def mean(self) -> float:
        return sum(k * c for k, c in self.counts.items()) / self.n

    def second_moment(self) -> float:
        return sum(k * k * c for k, c in self.counts.items()) / self.n


def cumulative_distribution(dist: DegreeDistribution) -> dict[int, float]:
    """Fraction of nodes with degree >= k, for k = 0 .. max_degree + 1.

    Non-increasing in k, equals 1 at k = 0, and adjacent differences recover
    the fractions p_k.
    """
    max_k = max(dist.counts, default=0)
    cum: dict[int, float] = {}
    tail = 0
    for k in range(max_k + 1, -1, -1):
        tail += dist.counts.get(k, 0)
        cum[k] = tail / dist.n if dist.n else 0.0
    return dict(sorted(cum.items()))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _content_lines(path):
    """Yield (lineno, stripped_text) for non-comment, non-blank lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text


def read_edge_list(path) -> Graph:
    """Parse an edge-list file.

    Grammar: first non-comment line is ``directed`` or ``undirected``; each
    subsequent line is ``u v`` with decimal ids.  Undirected files must list
    each edge once with u < v.  ``#`` starts a comment.  The node count is
    inferred as max id + 1.
    """
    directed = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, text in _content_lines(path):
        if directed is None:
            if text not in ("directed", "undirected"):
                raise ParseError(path, lineno, f"expected 'directed' or 'undirected', got {text!r}")
            directed = text == "directed"
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'u v', got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, lineno, f"non-integer node id in {text!r}") from None
        if u < 0 or v < 0:
            raise ParseError(path, lineno, "negative node id")
        if u == v:
            raise ParseError(path, lineno, f"self-loop at node {u}")
        if not directed and u >= v:
            raise ParseError(path, lineno, f"undirected edge must satisfy u < v, got {u} {v}")
        if (u, v) in seen:
            raise ParseError(path, lineno, f"duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    if directed is None:
        raise ParseError(path, 1, "missing 'directed'/'undirected' header line")
    n = 1 + max((max(u, v) for u, v in edges), default=-1)
    return Graph(n, directed, edges)


def write_edge_list(g: Graph, path) -> None:
    """Write a graph in canonical edge-list form (sorted, no comments)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("directed\n" if g.directed else "undirected\n")
        for u, v in g.edge_array:
            fh.write(f"{u} {v}\n")


def read_degree_histogram(path) -> DegreeDistribution:
    """Parse a ``k count`` histogram file into a DegreeDistribution."""
    counts: dict[int, int] = {}
    for lineno, text in _content_lines(path):
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'k count', got {text!r}")
        try:
            k, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, lineno, f"non-integer value in {text!r}") from None
        if k < 0 or c < 0:
            raise ParseError(path, lineno, "negative value")
        if k in counts:
            raise ParseError(path, lineno, f"duplicate degree key {k}")
        counts[k] = c
    return DegreeDistribution(counts, sum(counts.values()))


def write_degree_histogram(dist: DegreeDistribution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k in sorted(dist.counts):
            fh.write(f"{k} {dist.counts[k]}\n")
