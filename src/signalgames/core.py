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
from typing import Iterable, Iterator, Sequence

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
    "input_variance",
    "conditional_stats",
    "expected_pairwise_sqdist",
    "epsilon_min",
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

    @classmethod
    def uniform(cls, points: Sequence[Sequence[float]] | np.ndarray) -> "InputSpace":
        pts = np.asarray(points, dtype=float)
        n = pts.shape[0] if pts.ndim > 1 else len(pts)
        return cls(pts, np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def variance(self) -> float:
        """Total variance ``E ||X - E X||^2`` (trace of the covariance)."""
        centered = self.points - self.mean()
        return float(self.weights @ np.einsum("ij,ij->i", centered, centered))

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
    """

    def __init__(self, kind: str, atoms: list, dist: np.ndarray,
                 vocab_size: int | None = None, length: int | None = None):
        if len(atoms) == 0:
            raise ValueError("message space needs at least one message")
        dist = np.asarray(dist, dtype=float)
        if dist.shape != (len(atoms), len(atoms)):
            raise ValueError("distance table shape mismatch")
        off = dist[~np.eye(len(atoms), dtype=bool)]
        if off.size and (np.any(off <= 0.0) or not np.all(np.isfinite(off))):
            raise ValueError("messages must be pairwise distinct "
                             "(all pairwise distances strictly positive)")
        self.kind = kind
        self.atoms = list(atoms)
        self.vocab_size = vocab_size
        self.length = length
        self._dist = _as_readonly(dist)

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
        arr = np.asarray(seqs, dtype=int)
        if arr.ndim != 2 or arr.shape[1] != length:
            raise ValueError(f"all messages must have length {length}")
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= vocab_size:
            raise ValueError("symbols must lie in 0..V-1")
        dist = (arr[:, None, :] != arr[None, :, :]).sum(axis=2).astype(float)
        return cls("hamming", [tuple(s) for s in seqs], dist,
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
        diff = vec[:, None, :] - vec[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        return cls("euclidean", [np.array(v) for v in vec], dist)

    @classmethod
    def from_distance_table(cls, names: Sequence, table: np.ndarray) -> "MessageSpace":
        table = np.asarray(table, dtype=float)
        if not np.allclose(table, table.T):
            raise ValueError("distance table must be symmetric")
        return cls("table", list(names), table)

    # -- queries -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.atoms)

    def distance(self, i: int, j: int) -> float:
        return float(self._dist[i, j])

    def distance_matrix(self) -> np.ndarray:
        return self._dist

    def epsilon_min(self) -> float:
        """Minimum distance between a pair of distinct messages."""
        if self.size < 2:
            raise MetricUndefinedError(
                "epsilon_M undefined: fewer than two messages")
        off = self._dist[~np.eye(self.size, dtype=bool)]
        return float(off.min())

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

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def num_values(self) -> int:
        return len(self.values)

    def codes(self) -> np.ndarray:
        """Labels as integer codes into :attr:`values`."""
        return np.array([self._index[l] for l in self.labels], dtype=int)

    def __repr__(self) -> str:
        return f"LabelMap({self.name!r}, n={self.size}, values={self.values})"


@dataclass(frozen=True)
class GameSpec:
    """Game kind plus the parameters that drive loss evaluation."""

    kind: str
    d: int = 2
    labels: LabelMap | None = field(default=None, compare=False)
    seed: int = 0
    samples: int = 10_000

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
        if self.samples < 1:
            raise ValueError("samples must be positive")


# ---------------------------------------------------------------------------
# Elementary statistics
# ---------------------------------------------------------------------------

def message_probabilities(protocol: Protocol, space: InputSpace) -> np.ndarray:
    """``p_m = P(S(X) = m)`` for every message index."""
    _check_sizes(protocol, space)
    return _class_sums(protocol.assignment[None], protocol.num_messages,
                       space.weights)[0][0]


def input_variance(space: InputSpace) -> float:
    """Total variance ``Var[X]``."""
    return space.variance()


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


def expected_pairwise_sqdist(space: InputSpace) -> float:
    """``E ||x1 - x2||^2`` for an i.i.d. pair, via the identity ``2 Var[X]``."""
    return 2.0 * space.variance()


def epsilon_min(message_space: MessageSpace) -> float:
    """Minimum distance between distinct messages (``eps_M``)."""
    return message_space.epsilon_min()


def _class_sums(codes: np.ndarray, size: int,
                *weights: np.ndarray) -> list[np.ndarray]:
    """Per-row class sums of a (B, N) code matrix with values below
    ``size``: for each weight vector, ``out[b, c]`` sums ``weights[i]``
    over the inputs ``i`` with ``codes[b, i] == c``. The codes are offset
    by row, so one bincount per weight vector does all rows."""
    rows = len(codes)
    if rows == 1:  # one row needs no offsets
        return [np.bincount(codes[0], w, size)[None] for w in weights]
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


def _check_sizes(protocol: Protocol, space: InputSpace) -> None:
    if protocol.size != space.size:
        raise ValueError(
            f"protocol covers {protocol.size} inputs, space has {space.size}")
