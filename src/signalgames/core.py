"""Input spaces, message spaces, protocols, labels and their elementary statistics.

The central objects are:

* :class:`InputSpace` - a finite weighted set of points in ``R^dim``,
  i.e. a discrete random variable over real vectors.
* :class:`MessageSpace` - a finite set of distinct messages with an
  explicit metric (Hamming over symbol sequences by default).
* :class:`Protocol` - a total deterministic map from input index to
  message index; the object under analysis.
* :class:`LabelMap` - a total labelling of the inputs by one attribute.
* :class:`GameSpec` - which game is played and with which parameters.

Everything is immutable after construction and every operation is a pure
function, so concurrent evaluation is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyClassError, MetricUndefinedError

__all__ = [
    "InputSpace",
    "MessageSpace",
    "Protocol",
    "LabelMap",
    "GameSpec",
    "GAME_KINDS",
    "message_probabilities",
    "conditional_stats",
]

GAME_KINDS = ("reconstruction", "discrimination", "global", "supervised",
              "classification")

_WEIGHT_TOL = 1e-12


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


class InputSpace:
    """A bounded input distribution: points ``x_i`` with prior weights ``w_i``.

    Weights are explicit probabilities, strictly positive and summing to one.
    The default constructor takes explicit weights; :meth:`uniform` builds the
    empirical uniform measure over the given points.
    """

    def __init__(self, points: Sequence[Sequence[float]] | np.ndarray,
                 weights: Sequence[float] | np.ndarray | None = None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty 2d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must have one entry per point")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")
        self.points = _as_readonly(pts)
        self.weights = _as_readonly(w)
        # the moments depend on the space alone, so they are computed once
        pts, w = self.points, self.weights
        mean = w @ pts
        centered = pts - mean
        self._mean = _as_readonly(mean)
        self._variance = float(w @ np.einsum("ij,ij->i", centered, centered))
        # w_i and, per coordinate, w_i (x_i - E X): the weight vectors of the
        # reconstruction closed form's class sums
        self._reco_weights = (w, *(_as_readonly(c) for c in w * centered.T))

    @classmethod
    def uniform(cls, points: Sequence[Sequence[float]] | np.ndarray) -> "InputSpace":
        return cls(points)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def _distinct_points(self) -> int:
        """The number of distinct points, counted on first use."""
        return len(np.unique(self.points, axis=0))

    def mean(self) -> np.ndarray:
        """``E X``, as a new array on each call."""
        return self._mean.copy()

    def variance(self) -> float:
        """Total variance ``E ||X - E X||^2`` (trace of the covariance)."""
        return self._variance

    def is_uniform(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.weights - 1.0 / self.size) <= tol))

    def __repr__(self) -> str:
        return f"InputSpace(n={self.size}, dim={self.dim})"


class MessageSpace:
    """A finite set of distinct messages together with a metric.

    Three metric forms are supported:

    * ``hamming``: messages are fixed-length symbol sequences over a
      vocabulary ``0..V-1``; the distance is the number of differing
      positions.
    * ``euclidean``: messages are real vectors under the L2 distance.
    * ``table``: an explicit symmetric distance table.

    The space keeps what it was built from, the (K, L) symbols, (K, dim)
    vectors or (K, K) table, and :meth:`distances` computes the distances
    between two lists of messages on demand.
    """

    def __init__(self, kind: str, atoms: list, coords: np.ndarray,
                 vocab_size: int | None = None, length: int | None = None):
        if len(atoms) == 0:
            raise ValueError("message space needs at least one message")
        if kind == "table":  # NaN fails both comparisons
            off = coords.copy()
            np.fill_diagonal(off, 1.0)
            distinct = np.all((off > 0.0) & (off < np.inf))
        else:
            distinct = len(np.unique(coords, axis=0)) == len(coords)
        if not distinct:
            raise ValueError("messages must be pairwise distinct "
                             "(all pairwise distances strictly positive)")
        self.kind = kind
        self.atoms = list(atoms)
        self.vocab_size = vocab_size
        self.length = length
        self._coords = _as_readonly(coords)

    # -- constructors ------------------------------------------------------

    @classmethod
    def symbol_sequences(cls, messages: Iterable[Sequence[int] | str],
                         vocab_size: int, length: int | None = None) -> "MessageSpace":
        """Messages as symbol sequences under the Hamming distance."""
        seqs = [_parse_symbols(m) for m in messages]
        if not seqs:
            raise ValueError("message space needs at least one message")
        if length is None:
            length = len(seqs[0])
        if length < 1:
            raise ValueError("messages need at least one symbol")
        arr = np.asarray(seqs, dtype=int)
        if arr.ndim != 2 or arr.shape[1] != length:
            raise ValueError(f"all messages must have length {length}")
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= vocab_size:
            raise ValueError("symbols must lie in 0..V-1")
        return cls("hamming", [tuple(s) for s in seqs], arr,
                   vocab_size=vocab_size, length=length)

    @classmethod
    def full_code(cls, vocab_size: int, length: int) -> "MessageSpace":
        """Every sequence of the given length, in lexicographic order."""
        grids = np.indices((vocab_size,) * length).reshape(length, -1).T
        return cls.symbol_sequences([tuple(g) for g in grids], vocab_size, length)

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[float]] | np.ndarray) -> "MessageSpace":
        vec = np.asarray(vectors, dtype=float)
        if vec.ndim == 1:
            vec = vec[:, None]
        if not np.all(np.isfinite(vec)):
            raise ValueError("message vectors must be finite")
        return cls("euclidean", [np.array(v) for v in vec], vec)

    @classmethod
    def from_distance_table(cls, names: Sequence, table: np.ndarray) -> "MessageSpace":
        table = np.asarray(table, dtype=float)
        if table.shape != (len(names), len(names)):
            raise ValueError("distance table shape mismatch")
        if not np.allclose(table, table.T):
            raise ValueError("distance table must be symmetric")
        return cls("table", list(names), table)

    # -- queries -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.atoms)

    def distances(self, rows, cols) -> np.ndarray:
        """Distances between messages ``rows`` and ``cols`` (index arrays),
        shape ``(len(rows), len(cols))``, summed one symbol or coordinate
        at a time, so equal messages are at distance exactly zero."""
        if self.kind == "table":
            return np.take(self._coords[rows], cols, axis=1)
        if self.kind == "euclidean":
            dist = _sq_dists(self._coords[rows], self._coords[cols])
            return np.sqrt(dist, out=dist)
        a, b = self._coords[rows].T, self._coords[cols].T
        differ = np.not_equal.outer(a[0], b[0])
        dist = differ.astype(float)
        for x, y in zip(a[1:], b[1:]):
            dist += np.not_equal.outer(x, y, out=differ)
        return dist

    def epsilon_min(self) -> float:
        """Minimum distance between a pair of distinct messages."""
        if self.size < 2:
            raise MetricUndefinedError(
                "epsilon_M undefined: fewer than two messages")
        every = np.arange(self.size)
        best = math.inf
        for lo, hi, below in _pair_blocks(self.size):
            dist = self.distances(every[lo:hi], every[lo:])
            dist[:, :hi - lo][below] = math.inf
            best = min(best, float(dist.min()))
        return best

    def atom_string(self, i: int) -> str:
        """Canonical text form of a message (used by the file formats)."""
        atom = self.atoms[i]
        if self.kind == "hamming":
            if self.vocab_size is not None and self.vocab_size <= 10:
                return "".join(str(s) for s in atom)
            return "-".join(str(s) for s in atom)
        if self.kind == "euclidean":
            return ",".join(repr(float(v)) for v in np.atleast_1d(atom))
        return str(atom)

    def __repr__(self) -> str:
        return f"MessageSpace(kind={self.kind!r}, K={self.size})"


def _parse_symbols(m) -> tuple:
    if isinstance(m, str):
        return tuple(int(c) for c in m)
    return tuple(int(s) for s in m)


class Protocol:
    """A total deterministic sender: input index ``i`` maps to message
    index ``assignment[i]`` with ``0 <= assignment[i] < num_messages``."""

    def __init__(self, assignment: Sequence[int] | np.ndarray, num_messages: int):
        a = np.asarray(assignment, dtype=int)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("assignment must be a non-empty 1d sequence")
        if a.min() < 0 or a.max() >= num_messages:
            raise ValueError("assignment references a message index >= K")
        self.assignment = _as_readonly(a)
        self.num_messages = int(num_messages)

    @classmethod
    def constant(cls, n: int, num_messages: int = 1, message: int = 0) -> "Protocol":
        return cls(np.full(n, message), num_messages)

    @classmethod
    def identity(cls, n: int) -> "Protocol":
        return cls(np.arange(n), n)

    @property
    def size(self) -> int:
        return self.assignment.size

    def used_messages(self) -> np.ndarray:
        return np.unique(self.assignment)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Protocol)
                and self.num_messages == other.num_messages
                and np.array_equal(self.assignment, other.assignment))

    def __hash__(self) -> int:
        return hash((self.num_messages, self.assignment.tobytes()))

    def __repr__(self) -> str:
        return f"Protocol({self.assignment.tolist()}, K={self.num_messages})"


class LabelMap:
    """A total labelling of the inputs by one named attribute."""

    def __init__(self, labels: Sequence, name: str = "label"):
        if len(labels) == 0:
            raise ValueError("labels must be non-empty")
        self.labels = tuple(labels)
        self.name = name
        self.values = tuple(sorted(set(self.labels), key=str))
        self._index = {v: k for k, v in enumerate(self.values)}
        self._codes = _as_readonly(np.array(
            [self._index[l] for l in self.labels], dtype=int))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def num_values(self) -> int:
        return len(self.values)

    def codes(self) -> np.ndarray:
        """Labels as integer codes into :attr:`values` (read-only)."""
        return self._codes

    def __repr__(self) -> str:
        return f"LabelMap({self.name!r}, n={self.size}, values={self.values})"


@dataclass(frozen=True)
class GameSpec:
    """Game kind plus the parameters that drive loss evaluation."""

    kind: str
    d: int = 2
    labels: LabelMap | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in GAME_KINDS:
            raise ValueError(f"unknown game kind {self.kind!r}")
        if self.kind in ("discrimination", "supervised") and self.d < 2:
            raise ValueError("candidate count d must be at least 2")
        if self.kind == "supervised":
            if self.labels is None:
                raise ValueError("supervised game requires a label map")
            if self.labels.num_values < 2:
                raise ValueError("supervised game needs >=2 labels")
            if self.d > self.labels.num_values:
                raise ValueError("supervised game requires d <= number of labels")
        if self.kind == "classification" and self.labels is None:
            raise ValueError("classification game requires a label map")


# ---------------------------------------------------------------------------
# Elementary statistics
# ---------------------------------------------------------------------------

def message_probabilities(protocol: Protocol, space: InputSpace) -> np.ndarray:
    """``p_m = P(S(X) = m)`` for every message index."""
    _check_sizes(protocol, space)
    return _class_sums(protocol.assignment, protocol.num_messages,
                       space.weights)[0]


def conditional_stats(protocol: Protocol, space: InputSpace,
                      m: int) -> tuple[np.ndarray, float]:
    """Conditional mean and total variance of ``X`` given ``S(X) = m``."""
    _check_sizes(protocol, space)
    members = protocol.assignment == m
    mass = float(space.weights[members].sum())
    if mass <= 0.0:
        raise EmptyClassError(f"empty equivalence class for message {m}")
    w = space.weights[members] / mass
    pts = space.points[members]
    mean = w @ pts
    centered = pts - mean
    var = float(w @ np.einsum("ij,ij->i", centered, centered))
    return mean, var


def _class_sums(codes: np.ndarray, size: int,
                *weights: np.ndarray) -> list[np.ndarray]:
    """Per-row class sums of a (B, N) code matrix with values below
    ``size``: for each weight vector, ``out[b, c]`` sums ``weights[i]``
    over the inputs ``i`` with ``codes[b, i] == c``. The codes are offset
    by row, so one bincount per weight vector does all rows. One (N,)
    row of codes gives (size,) sums."""
    if codes.ndim == 1:
        return [np.bincount(codes, w, size) for w in weights]
    rows = len(codes)
    flat = (codes + np.arange(0, rows * size, size)[:, None]).ravel()
    return [np.bincount(flat, np.tile(w, rows), rows * size).reshape(
        rows, size) for w in weights]


def _product_rows(radices: Sequence[int],
                  chunk: int = 4096) -> Iterator[np.ndarray]:
    """The mixed-radix product ``itertools.product(*map(range, radices))``
    in the same order, as (B, c) integer arrays of at most ``chunk`` rows."""
    radices = [int(r) for r in radices]
    total = math.prod(radices)
    for start in range(0, total, chunk):
        q = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rows = np.empty((q.size, len(radices)), dtype=np.int64)
        for c in range(len(radices) - 1, -1, -1):  # the last column is fastest
            q, rows[:, c] = np.divmod(q, radices[c])
        yield rows


def _multiset_rows(n: int, r: int,
                   chunk: int = 4096) -> Iterator[np.ndarray]:
    """The non-decreasing ``r``-tuples over ``range(n)``,
    ``itertools.combinations_with_replacement(range(n), r)`` in the same
    order, as (B, r) integer arrays of at most ``chunk`` rows. Each block
    is unranked from its row numbers, one ``searchsorted`` per column."""
    total = math.comb(n + r - 1, r) if n else int(r == 0)
    # firsts[c][v]: the completions of columns c.. whose column c is below
    # v, were column c free to start at 0; below a prefix ending in u, a
    # row's rank counts from firsts[c][u]
    firsts = [np.cumsum([0] + [math.comb(n - v + r - c - 2, r - c - 1)
                               for v in range(n)], dtype=np.int64)
              for c in range(r)]
    for start in range(0, total, chunk):
        q = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rows = np.empty((q.size, r), dtype=np.int64)
        low = np.zeros(q.size, dtype=np.int64)  # the previous column
        for c, first in enumerate(firsts):
            q += first[low]
            low = rows[:, c] = np.searchsorted(first, q, side="right") - 1
            q -= first[low]
        yield rows


# Rows per block of :func:`_partition_rows`, half of :func:`_product_rows`'s.
# With the class sums carried along the prefixes, 2048 ran fastest of 1024
# to 8192 on both searches at N=12, K=3 (5-11% ahead of 1024 and of 4096;
# 2-core Xeon VM, glibc malloc). Larger blocks expand into arrays that
# glibc's allocator returns to the system and faults back in for the next
# block (per discrimination search: no minor faults at 2048, about 340 at
# 4096 and 890 at 8192); smaller ones pay more per-call overhead.
_PARTITION_BLOCK = 2048


def _partition_rows(n: int, k: int, weights: Sequence[np.ndarray] = (),
                    codes: np.ndarray | None = None, v: int = 1,
                    keep: Callable[[list[np.ndarray], int],
                                   np.ndarray | None] | None = None
                    ) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """The set partitions of ``n`` inputs into at most ``k >= 1`` blocks, as
    restricted-growth strings (input 0 is in block 0; each later input is
    in a block at most one above the largest block so far, and below
    ``k``), in lexicographic order, as (B, n) arrays of at most
    ``_PARTITION_BLOCK`` rows in the smallest unsigned integer type that
    holds ``k - 1``. Prefixes are extended one column at a time, block by
    block, so that only a few blocks per column are held at once.

    Each block comes with its class sums, one (B, min(k, n) * v) array per
    weight vector: input ``i`` in block ``b`` adds ``w[i]`` to column
    ``b * v + codes[i]`` (``codes`` defaults to zeros). Each prefix carries
    its sums, and extending it by input ``i`` adds ``w[i]`` once, so every
    class sum is ``0.0`` plus its inputs' weights in input order: the bits
    of :func:`_class_sums` on the rows' codes.

    ``keep(sums, width)``, if given, is called on each block of prefixes
    just extended to ``width < n`` inputs, before it is split into blocks,
    and returns a boolean mask of the prefixes to go on with (``None``
    keeps them all): the others and every completion of them are skipped,
    the rest keep their order. Complete partitions are never filtered."""
    codes = np.zeros(n, dtype=np.int64) if codes is None else codes
    if k == 1:  # the one partition puts every input in block 0
        yield np.zeros((1, n), dtype=np.uint8), \
            [np.bincount(codes, w, v)[None] for w in weights]
        return
    cols = min(k, n) * v
    stack = [(np.zeros((1, n), dtype=np.min_scalar_type(k - 1)),
              np.full(1, -1), [np.zeros((1, cols)) for _ in weights], 0)]
    while stack:  # rows, largest block, class sums, width of the prefix
        rows, top, sums, width = stack.pop()
        if width == n:
            yield rows, sums
            continue
        choices = np.minimum(top + 2, k)
        parent = np.repeat(np.arange(len(rows)), choices)
        digit = np.arange(len(parent)) \
            - (np.cumsum(choices) - choices).take(parent)
        rows, top = rows.take(parent, axis=0), top.take(parent)
        rows[:, width] = digit
        np.maximum(top, digit, out=top)
        sums = [s.take(parent, axis=0) for s in sums]
        at = np.arange(0, len(rows) * cols, cols) + digit * v + codes[width]
        for s, w in zip(sums, weights):
            s.ravel()[at] += w[width]
        mask = None if keep is None or width + 1 == n \
            else keep(sums, width + 1)
        if mask is not None and not mask.all():
            rows, top = rows[mask], top[mask]
            sums = [s[mask] for s in sums]
        stack += [(rows[i:i + _PARTITION_BLOCK], top[i:i + _PARTITION_BLOCK],
                   [s[i:i + _PARTITION_BLOCK] for s in sums], width + 1)
                  for i in range(0, len(rows), _PARTITION_BLOCK)][::-1]


def _check_sizes(protocol: Protocol, space: InputSpace) -> None:
    if protocol.size != space.size:
        raise ValueError(
            f"protocol covers {protocol.size} inputs, space has {space.size}")


# Elements per pair block: each temporary is 256 KiB of float64, whatever
# the number of rows. Timed from 2**12 to 2**18 on a 2-core x86-64 VM, on
# the bounded simplicity scan of a 2,500-row table in four 625-row message
# groups, of 864 rows in six and of 2,500 one-row messages, and on topsim
# at n = 1,000: 2**15 was fastest or within noise of the fastest on each.
# Larger blocks fall out of cache, smaller ones pay more per-call overhead.
_PAIR_BLOCK = 2 ** 15


def _pair_blocks(n: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Blocks of the pairs ``i < j < n``: rows ``[lo, hi)`` meet columns
    ``[lo, n)`` in about ``_PAIR_BLOCK`` elements, and ``below`` masks the
    entries on and below the diagonal of the first ``hi - lo`` columns."""
    lo = 0
    while lo < n:
        hi = min(n, lo + _block_rows(n - lo))
        yield lo, hi, np.tri(hi - lo, dtype=bool)
        lo = hi


def _block_rows(cols: int) -> int:
    """Rows of a pair block against ``cols`` columns: about
    ``_PAIR_BLOCK`` elements, and at least one row."""
    return max(1, _PAIR_BLOCK // cols)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and of ``b``,
    summed one coordinate column at a time (never ``|a|^2 + |b|^2 - 2 a.b``),
    so equal rows are at distance exactly zero. The first column's squares
    start the sum, which has the bits of adding them to zeros."""
    cols = zip(a.T, b.T, strict=True)
    first = next(cols, None)
    if first is None:  # no coordinates
        return np.zeros((len(a), len(b)))
    total = np.empty((len(a), len(b)))
    diff = np.empty_like(total)
    with np.errstate(over="ignore"):  # a distance past float64 is inf
        np.square(np.subtract.outer(*first, out=total), out=total)
        for x, y in cols:
            np.subtract.outer(x, y, out=diff)
            total += np.square(diff, out=diff)
    return total
