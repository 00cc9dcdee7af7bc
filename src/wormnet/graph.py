"""Graph primitives and file formats shared by the generators and simulators.

Nodes are dense integer ids ``0..n-1``.  Graphs are simple (no self-loops, no
duplicate edges) and immutable after construction; undirected edges are stored
once in canonical ``(min, max)`` order.  A degree distribution is held as its
sorted int64 degree sequence; the ``k count`` histogram is only a file format.
"""

from __future__ import annotations

import os
import stat
import warnings
from array import array
from contextlib import closing
from functools import cached_property
from typing import Iterable

import numpy as np


class ParseError(ValueError):
    """Raised for malformed graph / histogram files; carries the line number."""

    def __init__(self, path, lineno: int, message: str):
        self.path = str(path)
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}")


class EdgeError(ValueError):
    """An edge breaks the simple-graph rule, or a file row its format's rules;
    ``index`` is its input position."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


# The largest n whose packed edge keys (n + 2)**2 - 1 fit in int64.
MAX_NODES = 3_037_000_497

# The file-name suffixes np.loadtxt opens through a decompressor.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

# Rows the edge-list writer and the generators' wiring turn into Python objects
# at a time: enough that numpy's per-call cost vanishes, few enough that no
# whole column of Python ints is alive at once.
CHUNK = 1 << 13


class Graph:
    """Immutable simple graph over integer node ids.

    Edges are held as a lexicographically sorted ``(m, 2)`` int64 array, which
    keeps serialization canonical and lets the simulators vectorize over it.
    """

    __slots__ = ("n", "directed", "_edges", "__dict__")

    def __init__(self, n: int, directed: bool, edges: Iterable[tuple[int, int]]):
        """``edges``: (m, 2) array or iterable of pairs, left unmodified.  The first
        in input order with an id outside [0, n), a self-loop or a repeat raises EdgeError.
        ``n`` is at most MAX_NODES.  Rows already in canonical sorted order, as
        ``write_edge_list`` writes them, are copied as they are, with no sort."""
        if n < 0:
            raise ValueError("node count must be >= 0")
        if n > MAX_NODES:
            raise ValueError(f"node count {n} exceeds {MAX_NODES}, the most a Graph can hold")
        self.n = int(n)
        self.directed = bool(directed)

        arr = int64_array(edges)
        if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
            raise ValueError(f"edges must be pairs, got an array of shape {arr.shape}")
        arr = arr.reshape(-1, 2)
        u, v, order, bad = _simple_split(self.n, self.directed, arr[:, 0], arr[:, 1])
        if bad.any():
            i = int(np.argmax(bad))
            a, b = arr[i].tolist()
            why = "self-loop" if a == b else "duplicate"
            if not (0 <= a < self.n and 0 <= b < self.n):
                why = f"{'negative ' if min(a, b) < 0 else ''}node id out of range [0, {self.n})"
            raise EdgeError(i, f"edge {a} {b}: {why}")
        self._edges = np.column_stack((u[order], v[order]))
        self._edges.flags.writeable = False

    @property
    def edge_array(self) -> np.ndarray:
        """Edges as a read-only (m, 2) array in canonical sorted order."""
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def degrees(self, kind: str = "total") -> np.ndarray:
        """Per-node degree array.  ``kind`` is 'total', 'in' or 'out'.

        For undirected graphs all three kinds coincide.
        """
        if kind not in ("total", "in", "out"):
            raise ValueError(f"unknown degree kind {kind!r}")
        out = np.bincount(self._edges[:, 0], minlength=self.n)
        inc = np.bincount(self._edges[:, 1], minlength=self.n)
        if self.directed and kind != "total":
            return out if kind == "out" else inc
        return out + inc

    @cached_property
    def out_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR-style (indptr, targets) adjacency over out-neighbors.

        Undirected graphs include both orientations.  Neighbor lists are sorted,
        so lookups are deterministic; ``targets`` is never a view of ``edge_array``.
        """
        e = self._edges
        if not self.directed:
            e = np.concatenate([e, e[:, ::-1]])
        return _csr(self.n, e[:, 0], e[:, 1])

    @cached_property
    def in_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR-style (indptr, sources) adjacency over in-neighbors,
        sorted; for an undirected graph it is ``out_adjacency`` itself."""
        if not self.directed:
            return self.out_adjacency
        return _csr(self.n, self._edges[:, 1], self._edges[:, 0])

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


def int64_array(values) -> np.ndarray:
    """``values`` as an int64 array: an array passes through (copied only to change
    its dtype), and any other iterable, a set too, is listed first."""
    return np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=np.int64)


def _simple_split(n: int, directed: bool, u: np.ndarray, v: np.ndarray):
    """The simple-graph rule over the pairs (u[i], v[i]): return their canonical
    columns (undirected pairs as (min, max)), the stable order that sorts them, and
    the mask of the rows that are a self-loop, repeat an earlier row or hold an id
    outside [0, n).  Pairs already in strictly increasing order, as
    ``write_edge_list`` writes them, are not sorted: their order is ``slice(None)``."""
    if not directed and (u > v).any():
        u, v = np.minimum(u, v), np.maximum(u, v)
    bad = u == v
    if not len(u):
        return u, v, slice(None), bad
    if min(u.min(), v.min()) >= 0 and max(u.max(), v.max()) < n:
        keys = u * n + v  # one int64 key per pair, in (u, v) order
        if (keys[1:] > keys[:-1]).all():
            return u, v, slice(None), bad
    else:
        bad |= (u < 0) | (u >= n) | (v < 0) | (v >= n)
        # Ids are clipped to [-1, n], so that no key overflows and an out-of-range
        # pair never shares a key with an in-range one.
        keys = (np.clip(u, -1, n) + 1) * (n + 2) + np.clip(v, -1, n) + 1
    order = np.argsort(keys, kind="stable")
    bad[order[1:][np.diff(keys[order]) == 0]] = True
    return u, v, order, bad


def _chunks(a: np.ndarray):
    """``a`` in consecutive slices of ``CHUNK`` rows."""
    return (a[i:i + CHUNK] for i in range(0, len(a), CHUNK))


def _csr(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only CSR (indptr, cols) of the distinct entries (rows[i], cols[i]), sorted
    as the packed keys rows * n + cols, below n**2 and so in int64 (MAX_NODES)."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    cols = np.sort(rows * n + cols) % n
    indptr.flags.writeable = cols.flags.writeable = False
    return indptr, cols


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 with ``\\n`` line ends; the one writer of every output.

    A new or regular file is replaced whole, through a temporary file beside it
    (past any symlink): a new file gets the mode ``open`` gives under the umask, an
    old one keeps its own, and a failed write leaves it unchanged.  A path that is
    no regular file, such as a FIFO or ``/dev/stdout``, is written in place.
    """
    mode = os.stat(path).st_mode if os.path.exists(path) else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the file asked for, not the temporary one
        raise
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def format_field(v) -> str:
    """One field of an output table: None (no value, such as a time a run never
    reached) as ``NA``, a float to 10 significant digits, anything else with ``str``."""
    if v is None:
        return "NA"
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def table_text(header: str, rows) -> str:
    """The CSV text of ``header`` and ``rows``, each a sequence of fields; the one
    table format of every output, each field written by ``format_field``."""
    return "".join([header + "\n", *(",".join(map(format_field, row)) + "\n" for row in rows)])


def text_lines(path):
    """Yield (lineno, stripped_text) for every line of the UTF-8 file ``path``, the
    one reader of every input; a line with a byte that is not UTF-8 raises ParseError."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError as err:  # the escape of a byte that is not UTF-8
                    byte = ord(raw[err.start]) - 0xDC00
                    raise ParseError(path, lineno, f"byte 0x{byte:02x} is not UTF-8") from None
            yield lineno, raw.strip()


def read_table(path, header: str, parse) -> list:
    """(lineno, parse(fields)) of each row of a ``table_text`` table: line 1 must be
    ``header``, blank lines are skipped, and a row whose ``parse`` raises ValueError fails."""
    rows = []
    with closing(text_lines(path)) as lines:
        if (first := next(lines, (1, ""))[1]) != header:
            raise ParseError(path, 1, f"expected header {header!r}, got {first!r}")
        for lineno, text in lines:
            if text:
                try:
                    rows.append((lineno, parse(text.split(","))))
                except ValueError:
                    raise ParseError(path, lineno, f"bad row {text!r}") from None
    return rows


def _content_lines(path):
    """The lines of ``text_lines`` that hold more than a ``#`` comment, cut at the ``#``."""
    for lineno, text in text_lines(path):
        if text := text.split("#", 1)[0].rstrip():
            yield lineno, text


def _int_pairs(path, after: int, fields: str, noun: str, build):
    """``build(pairs)`` for the (m, 2) int64 array of the lines of two integers that
    follow line ``after``.  ``build`` raises EdgeError(i, why) when row i breaks a rule
    of the format.

    numpy parses the lines in bulk, but without line numbers.  When it cannot, or a
    rule fails, the lines are walked one at a time to name the line at fault: the
    first bad line in the file wins, whether a rule, a token or a byte that is not
    UTF-8 broke it.  ``build`` gets the rows in file order, and ``Graph`` sorts them
    only when they are not in canonical order already."""
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt only warns of a file with no rows
        # Given a path, loadtxt reads blocks of text rather than lines, in about half
        # the time.  An absolute path never reads to it as a URL; but it would open
        # a name with a compressed-file suffix through a decompressor, so such a
        # file it is given as the open handle.
        source = fh if os.fspath(path).endswith(_COMPRESSED) else os.path.abspath(path)
        try:
            pairs = np.loadtxt(source, dtype=np.int64, comments="#", skiprows=after,
                               ndmin=2, encoding="utf-8")
        except (ValueError, Warning):
            pairs = None
    if pairs is not None and pairs.shape[1] == 2:
        try:
            return build(pairs)
        except EdgeError:
            pass
    values, linenos, error = array("q"), array("q"), None
    try:
        for lineno, text in _content_lines(path):
            if lineno <= after:
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ParseError(path, lineno, f"expected {fields!r}, got {text!r}")
            try:
                values.fromlist([int(parts[0]), int(parts[1])])
            except ValueError:
                raise ParseError(path, lineno, f"non-integer {noun} in {text!r}") from None
            except OverflowError:
                raise ParseError(path, lineno, f"{noun} out of int64 range in {text!r}") from None
            linenos.append(lineno)
    except ParseError as err:  # the first bad line, token or byte; build may fail earlier
        error = err
    try:
        result = build(np.frombuffer(values, dtype=np.int64).reshape(-1, 2))
    except EdgeError as err:
        raise ParseError(path, linenos[err.index], str(err)) from None
    if error:
        raise error
    return result


def read_edge_list(path) -> Graph:
    """Parse an edge-list file.

    Grammar: first non-comment line is ``directed`` or ``undirected``,
    optionally followed by the node count; each subsequent line is ``u v``
    with decimal ids.  Undirected files must list each edge once with u < v.
    ``#`` starts a comment.  Without a count, n is max id + 1.
    """
    with closing(_content_lines(path)) as lines:
        lineno, header = next(lines, (1, ""))
    kind, *count = header.split() or [""]
    if kind not in ("directed", "undirected") or count[1:] or not all(map(str.isdecimal, count)):
        raise ParseError(
            path, lineno, f"expected 'directed' or 'undirected' header line, got {header!r}")
    if count and int(count[0]) > MAX_NODES:
        raise ParseError(path, lineno, f"node count {count[0]} exceeds {MAX_NODES}, "
                         "the most a Graph can hold")
    directed = kind == "directed"

    def build(pairs):
        n = int(count[0]) if count else int(pairs.max(initial=-1)) + 1
        # Graph checks the rows before the first u > v; a negative id there is its error.
        wrong_way = (not directed) & (pairs[:, 0] > pairs[:, 1]) & (pairs[:, 1] >= 0)
        stop = int(np.argmax(wrong_way)) if wrong_way.any() else len(pairs)
        g = Graph(n, directed, pairs[:stop])
        if stop < len(pairs):
            u, v = pairs[stop].tolist()
            raise EdgeError(stop, f"undirected edge must satisfy u < v, got {u} {v}")
        return g

    return _int_pairs(path, lineno, "u v", "node id", build)


def write_edge_list(g: Graph, path) -> None:
    """Write a graph in canonical edge-list form (sorted, no comments); the
    header carries the node count only when it exceeds max id + 1.  The rows
    are formatted ``CHUNK`` at a time, so no list of every id is built."""
    n = f" {g.n}" if g.n > int(g.edge_array.max(initial=-1)) + 1 else ""
    header = ("directed" if g.directed else "undirected") + n + "\n"
    rows = ("%d %d\n" * len(c) % tuple(c.ravel().tolist()) for c in _chunks(g.edge_array))
    write_text(path, "".join([header, *rows]))


def read_degree_histogram(path) -> np.ndarray:
    """Parse a ``k count`` histogram file into the sorted degree sequence it
    encodes.  Its counts may sum to at most MAX_NODES."""

    def build(pairs):
        negative = (pairs < 0).any(axis=1)
        repeats = np.ones(len(pairs), dtype=bool)
        repeats[np.unique(pairs[:, 0], return_index=True)[1]] = False
        too_many = np.cumsum(np.clip(pairs[:, 1], 0, MAX_NODES + 1)) > MAX_NODES
        bad = negative | repeats | too_many
        if bad.any():
            i = int(np.argmax(bad))
            raise EdgeError(i, "negative value" if negative[i] else
                            f"duplicate degree key {pairs[i, 0]}" if repeats[i] else
                            f"counts sum past {MAX_NODES}, the most a Graph can hold")
        order = np.argsort(pairs[:, 0])
        return np.repeat(pairs[order, 0], pairs[order, 1])

    return _int_pairs(path, 0, "k count", "value", build)
