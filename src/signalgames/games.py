"""Ground-truth loss evaluators for the five games, plus synchronized agents.

This module is the oracle layer: losses are evaluated by exact enumeration
over the finite input space (targets, candidate tuples and target
positions), directly from each game's definition, or by seeded Monte-Carlo
only when a caller passes ``mode="mc"``. Past ``EXACT_TERM_BUDGET`` terms,
read at call time, an exact path raises ``BudgetExceededError``. The closed
forms in :mod:`signalgames.objectives` are verified against these
evaluators.

Each game's per-input loss is written once, as the (N, J) loss of every
input under J message choices: the exact evaluators read it at the
protocol's messages, the synchronized sender at every defined message, so
the two agree bit for bit.

The built-in :class:`SynchronizedDiscriminationReceiver` and
:class:`ScoreDiscriminationReceiver` give the target the same probability
at every position and for every order of the distractors. For them the
discrimination-style paths fix the target first and enumerate distractor
multisets, each weighted by its number of orderings: ``C(S+d-2, d-1)``
terms per target and message choice over a law's ``S`` support points,
instead of ``d * S^(d-1)`` ordered ones. Every other receiver, a subclass
that overrides ``probabilities_batch`` included, is asked every ordered
query. The budget counts the terms actually enumerated.

Receivers are represented over finite domains: a reconstruction receiver is
a per-message point table, a global receiver a per-message distribution over
input indices, and a discrimination receiver a
:class:`DiscriminationReceiver`. Candidates are referenced by input index;
the input space carries their geometry.

Every loss path queries a discrimination receiver in batches:
``probabilities_batch(messages (B,), candidates (B, d)) -> (B, d)`` returns
one distribution over candidate positions per row. The exact paths pass at
most 4096 rows per call, except where one input's terms under one message
choice exceed 4096: a batch then holds the smallest product of trailing
radices of that enumeration that reaches 4096. The built-in receivers
implement the batch in numpy, and their scalar ``probabilities(message,
candidates)`` is the batch on one row. A subclass may define only the
scalar method instead; the base class then stacks it row by row.

Monte-Carlo estimates cut each substream into blocks of ``_MC_BLOCK`` rows
that start at exact stream offsets, so a block draws what it would draw in
order. Blocks of the built-in synchronized, score and tabular receivers
run on a thread pool, built on first use; any other receiver is asked on
the caller's thread. Every seeded report is the same for every worker
count.

Conventions:

* logarithms are in nats;
* distractors are drawn i.i.d. from the prior, with replacement, and may
  equal the target; duplicated candidates are handled by position-count
  normalization, under which the exact d-candidates loss reduces to the
  binomial closed form;
* infinite per-sample losses (a receiver assigning zero probability to the
  realized target) are carried as IEEE infinities and flagged separately on
  the report.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import GameSpec, InputSpace, LabelMap, Protocol, _class_sums, \
    _multiset_rows, _product_rows, _sq_dists, message_probabilities
from .errors import BudgetExceededError, EmptyClassError

__all__ = [
    "LossReport",
    "ReconstructionReceiver",
    "GlobalReceiver",
    "DiscriminationReceiver",
    "SynchronizedDiscriminationReceiver",
    "TabularDiscriminationReceiver",
    "ConstantDiscriminationReceiver",
    "ScoreDiscriminationReceiver",
    "ClassificationReceiver",
    "eval_reconstruction",
    "eval_discrimination",
    "eval_global",
    "eval_supervised",
    "eval_classification",
    "synchronized_receiver",
    "synchronized_sender",
    "per_input_message_losses",
    "substream",
    "EXACT_TERM_BUDGET",
]

# the package's only work limit; every check goes through _check_terms
EXACT_TERM_BUDGET = 10 ** 8

_PROB_TOL = 1e-12

# uniforms per chunk of Monte-Carlo draws: a Monte-Carlo block scores its
# rows a chunk at a time, so each worker holds one chunk
_DRAW_BLOCK = 1 << 16

# rows per Monte-Carlo block: fixed, so every row's draws and every report
# are the same whatever the worker count
_MC_BLOCK = 1 << 16

# Monte-Carlo worker threads; None reads the usable cores at each call
_WORKERS = None
_POOLS: dict = {}
_POOL_LOCK = threading.Lock()


def _forget_pools() -> None:
    """In a forked child: the parent's pool threads do not exist there."""
    global _POOL_LOCK
    _POOLS.clear()
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


def substream(seed: int, *names: str) -> np.random.Generator:
    """Named RNG substream derived from a single base seed.

    Streams for different names are independent, and adding a new stream
    never perturbs existing ones.
    """
    digest = 0
    for name in names:
        for ch in name.encode():
            digest = (digest * 131 + ch) % (2 ** 63)
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(digest,)))


def _nll(p) -> np.ndarray:
    """``-log p`` elementwise, ``inf`` where ``p`` is 0; ``math.log`` is
    taken once per distinct value."""
    p = np.asarray(p, dtype=float)
    distinct, inverse = np.unique(p.ravel(), return_inverse=True)
    return np.array([-math.log(v) if v > 0.0 else math.inf
                     for v in distinct.tolist()])[inverse].reshape(p.shape)


# ---------------------------------------------------------------------------
# Receivers
# ---------------------------------------------------------------------------

class ReconstructionReceiver:
    """Per-message point predictions; rows may be undefined for unused
    messages."""

    def __init__(self, points: np.ndarray, defined: np.ndarray | None = None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        self.points = pts
        self.defined = (np.ones(pts.shape[0], dtype=bool)
                        if defined is None else np.asarray(defined, dtype=bool))
        self.num_messages = pts.shape[0]


class GlobalReceiver:
    """Per-message distribution over input indices."""

    def __init__(self, table: np.ndarray, defined: np.ndarray | None = None):
        tab = np.asarray(table, dtype=float)
        self.table = tab
        self.defined = (np.ones(tab.shape[0], dtype=bool)
                        if defined is None else np.asarray(defined, dtype=bool))
        self.num_messages = tab.shape[0]
        for m in np.flatnonzero(self.defined):
            row = tab[m]
            if np.any(row < 0.0) or abs(row.sum() - 1.0) > _PROB_TOL:
                raise ValueError(f"row {m} is not a probability distribution")


class DiscriminationReceiver:
    """Base class: a map (message, candidate index tuple) -> distribution
    over candidate positions.

    Subclasses define ``probabilities_batch`` or the scalar
    ``probabilities``; each method defaults to the other. A subclass of a
    built-in receiver that changes its outputs overrides
    ``probabilities_batch``, which is what the loss paths call.
    """

    num_candidates: int
    num_messages: int

    def probabilities(self, m: int, candidates: tuple[int, ...]) -> np.ndarray:
        return self.probabilities_batch(np.array([m]),
                                        np.array([candidates]))[0]

    def probabilities_batch(self, messages: np.ndarray,
                            candidates: np.ndarray) -> np.ndarray:
        """Row ``r`` of the (B, d) result is the distribution for message
        ``messages[r]`` and candidate tuple ``candidates[r]``."""
        if type(self).probabilities is DiscriminationReceiver.probabilities:
            raise NotImplementedError(
                "a discrimination receiver defines probabilities or "
                "probabilities_batch")
        candidates = np.asarray(candidates)
        out = np.empty(candidates.shape)
        for r, (m, cands) in enumerate(zip(np.asarray(messages).tolist(),
                                           candidates.tolist())):
            out[r] = self.probabilities(m, tuple(cands))
        return out


def _uniform_where(empty: np.ndarray, rows: np.ndarray,
                   totals: np.ndarray) -> np.ndarray:
    """``rows / totals``, with uniform rows where ``empty`` (shape (B, 1))
    is set: the division runs only on the other rows."""
    out = np.divide(rows, totals, out=np.empty(rows.shape), where=~empty)
    out[empty[:, 0]] = 1.0 / rows.shape[1]
    return out


class SynchronizedDiscriminationReceiver(DiscriminationReceiver):
    """The closed-form synchronized receiver: uniform over the candidate
    positions whose sender message matches, by position count.

    On the (in-game unreachable) queries where no candidate matches the
    message, the output is uniform so that every row stays a distribution.
    """

    def __init__(self, protocol: Protocol, d: int):
        self.messages = protocol.assignment
        self.num_candidates = int(d)
        self.num_messages = protocol.num_messages

    def probabilities_batch(self, messages, candidates):
        match = self.messages[candidates] == np.asarray(messages)[:, None]
        k = match.sum(axis=1, keepdims=True)
        return _uniform_where(k == 0, match, k)


class TabularDiscriminationReceiver(DiscriminationReceiver):
    """Dense table over explicit (message, candidate tuple) queries.

    ``rows`` holds one distribution per query in the order of ``table``,
    whose values are views of those rows; ``messages`` (Q,) and
    ``candidates`` (Q, d) hold the queries in the same order.

    A query ``(m, c_0, ..., c_{d-1})`` has the mixed-radix code
    ``((m R + c_0) R + c_1) R ...``, where ``R`` is one more than the
    largest candidate in the table and messages run to one more than the
    largest message. An index of one entry per code, ``-1`` where the table
    has no row, answers a batch with one ``take``. The index is built on
    the first lookup; past ``EXACT_TERM_BUDGET`` codes that lookup raises
    ``BudgetExceededError``, while a table that is never looked up (for
    receiver simplicity, or to serialize) is never indexed.
    """

    def __init__(self, d: int, num_messages: int,
                 table: dict[tuple[int, tuple[int, ...]], np.ndarray]):
        self.num_candidates = int(d)
        self.num_messages = int(num_messages)
        rows = []
        for key, row in table.items():
            m, cands = key
            if not 0 <= m < num_messages or len(cands) != d \
                    or min(cands, default=0) < 0:
                raise ValueError(f"query {key} is not a message below "
                                 f"{num_messages} with {d} candidates")
            rows.append(np.asarray(row, dtype=float))
            if rows[-1].shape != (d,):
                raise ValueError(f"row for query {key} is not a distribution")
        self.rows = np.array(rows, dtype=float).reshape(len(rows), d)
        bad = np.any(self.rows < 0.0, axis=1) \
            | (np.abs(self.rows.sum(axis=1) - 1.0) > _PROB_TOL)
        if bad.any():
            raise ValueError(f"row for query {list(table)[bad.argmax()]} "
                             "is not a distribution")
        self.table = dict(zip(table, self.rows))
        try:
            self.messages = np.array([m for m, _ in table], dtype=np.int64)
            self.candidates = np.array([c for _, c in table],
                                       dtype=np.int64).reshape(-1, d)
        except OverflowError:
            raise ValueError("a table query does not fit in 64-bit "
                             "integers") from None
        # codes run over messages below ``_stops[0]`` and candidates below
        # ``_stops[1]``
        self._stops = (int(self.messages.max(initial=-1)) + 1,
                       int(self.candidates.max(initial=-1)) + 1)
        self._index = None

    def _code(self, messages: np.ndarray, candidates: np.ndarray
              ) -> np.ndarray:
        """Mixed-radix code of each query row; meaningful only where the
        message and every candidate are below their stops."""
        code = messages.astype(np.int64)
        for c in candidates.T:
            code *= self._stops[1]
            code += c
        return code

    def _lookup(self) -> np.ndarray:
        """The index from code to row (``-1`` for no row) in the smallest
        signed type that holds every row number; built on first use, after
        ``_check_terms`` on its length."""
        if self._index is None:
            codes = self._stops[0] * self._stops[1] ** self.num_candidates
            _check_terms(codes, "tabular receiver index", "query codes")
            index = np.full(max(codes, 1), -1,
                            dtype=np.min_scalar_type(-1 - len(self.rows)))
            index[self._code(self.messages, self.candidates)] = \
                np.arange(len(self.rows))
            self._index = index
        return self._index

    def probabilities_batch(self, messages, candidates):
        messages, candidates = np.asarray(messages), np.asarray(candidates)
        at = np.zeros(len(candidates), dtype=np.intp)
        found = at < 0
        if candidates.shape[1] == self.num_candidates:
            # a row out of range codes anywhere: "clip" keeps its code in
            # the index, and the range test refuses it
            at = self._lookup().take(self._code(messages, candidates),
                                     mode="clip")
            found = (at >= 0) & (messages >= 0) \
                & (messages < self._stops[0]) \
                & ((candidates >= 0) & (candidates < self._stops[1])).all(1)
        if not found.all():
            r = int(np.argmin(found))
            raise EmptyClassError(
                f"receiver undefined on query ({int(messages[r])}, "
                f"{tuple(candidates[r].tolist())})")
        return self.rows[at]


class ConstantDiscriminationReceiver(DiscriminationReceiver):
    """Outputs a fixed distribution regardless of message and candidates."""

    def __init__(self, vector: np.ndarray, num_messages: int = 1):
        row = np.asarray(vector, dtype=float)
        if np.any(row < 0.0) or abs(row.sum() - 1.0) > _PROB_TOL:
            raise ValueError("constant output is not a distribution")
        self.vector = row
        self.num_candidates = row.size
        self.num_messages = int(num_messages)

    def probabilities_batch(self, messages, candidates):
        return np.broadcast_to(self.vector, (len(candidates), self.vector.size))


class ScoreDiscriminationReceiver(DiscriminationReceiver):
    """Candidate-unaware receiver: scores each candidate independently via
    ``score(m, x)`` and normalizes the scores into a distribution."""

    def __init__(self, scores: np.ndarray, d: int):
        self.scores = np.asarray(scores, dtype=float)  # (K, N)
        self.num_candidates = int(d)
        self.num_messages = self.scores.shape[0]

    def probabilities_batch(self, messages, candidates):
        s = self.scores[np.asarray(messages)[:, None], candidates]
        total = s.sum(axis=1, keepdims=True)
        return _uniform_where(total <= 0.0, s, total)


class ClassificationReceiver(DiscriminationReceiver):
    """Candidate-independent distribution over label positions given the
    message, ``P(Y = y | S(X) = m)``."""

    def __init__(self, conditional: np.ndarray, defined: np.ndarray | None = None):
        tab = np.asarray(conditional, dtype=float)
        self.conditional = tab
        self.defined = (np.ones(tab.shape[0], dtype=bool)
                        if defined is None else np.asarray(defined, dtype=bool))
        self.num_candidates = tab.shape[1]
        self.num_messages = tab.shape[0]

    def probabilities_batch(self, messages, candidates):
        messages = np.asarray(messages)
        undefined = messages[~self.defined[messages]]
        if undefined.size:
            raise EmptyClassError(f"receiver undefined for message "
                                  f"{undefined[0]} (empty equivalence class)")
        return self.conditional[messages]


# ---------------------------------------------------------------------------
# Loss reports
# ---------------------------------------------------------------------------

@dataclass
class LossReport:
    """Expected loss plus the per-input breakdown and evaluation metadata."""

    expected: float
    per_input: np.ndarray
    mode: str                     # "exact" or "monte-carlo"
    samples: int | None = None
    seed: int | None = None
    std_error: float | None = None
    infinite: bool = False


def _exact_eval(protocol: Protocol, receiver, space: InputSpace, kind: str,
                d: int = 2, labels: LabelMap | None = None) -> LossReport:
    """Exact report of a protocol: the message-loss table read at each
    input's own message. A receiver with a ``defined`` mask must define
    every message the protocol uses."""
    defined = getattr(receiver, "defined", None)
    if defined is not None:
        used = protocol.used_messages()
        missing = used[~defined[used]]
        if missing.size:
            raise EmptyClassError(
                f"receiver missing used messages {missing.tolist()}")
    per_input = _message_losses(receiver, space, protocol.assignment[:, None],
                                kind, d, labels)[:, 0]
    infinite = bool(np.any(np.isinf(per_input)))
    expected = float(space.weights @ per_input) if not infinite else math.inf
    return LossReport(expected, per_input, "exact", infinite=infinite)


def _message_losses(receiver, space: InputSpace, messages: np.ndarray,
                    kind: str, d: int = 2, labels: LabelMap | None = None
                    ) -> np.ndarray:
    """Loss of each input ``i`` under each message choice ``messages[i, j]``,
    shape (N, J): the one place each game's per-input loss is written. The
    exact evaluators read it at the protocol's messages and the
    synchronized sender at every defined message, so the two agree."""
    if kind == "reconstruction":
        return _sq_dists(space.points, receiver.points)[
            np.arange(space.size)[:, None], messages]
    if kind == "global":
        return _nll(receiver.table[messages, np.arange(space.size)[:, None]])
    if kind == "classification":
        return _classification_losses(messages, receiver, space, labels)
    if kind in ("discrimination", "supervised"):
        laws, law_of = _distractor_laws(
            space, labels if kind == "supervised" else None)
        return _exact_discrimination_losses(messages, receiver, d, laws,
                                            law_of)
    raise ValueError(f"unknown game kind {kind!r}")


# ---------------------------------------------------------------------------
# Reconstruction and global games
# ---------------------------------------------------------------------------

def eval_reconstruction(protocol: Protocol, receiver: ReconstructionReceiver,
                        space: InputSpace) -> LossReport:
    """Exact expected squared-distance loss ``E ||R(S(x)) - x||^2``."""
    return _exact_eval(protocol, receiver, space, "reconstruction")


def eval_global(protocol: Protocol, receiver: GlobalReceiver,
                space: InputSpace) -> LossReport:
    """Exact expected loss ``E [-log P(R(S(x)) = x)]``."""
    return _exact_eval(protocol, receiver, space, "global")


# ---------------------------------------------------------------------------
# Discrimination-style games
# ---------------------------------------------------------------------------

def _check_terms(terms: int, what: str = "exact enumeration",
                 unit: str = "terms", at_least: bool = False) -> None:
    """Raise ``BudgetExceededError`` with ``required=terms`` when ``terms``
    exceed ``EXACT_TERM_BUDGET``, read at call time; ``at_least`` marks
    ``terms`` as a lower bound of the work in the message."""
    if terms > EXACT_TERM_BUDGET:
        bound = "at least " if at_least else ""
        raise BudgetExceededError(f"{what} needs {bound}{terms} {unit} "
                                  f"(budget {EXACT_TERM_BUDGET})",
                                  required=terms)


def _check_mode(mode: str) -> str:
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _query_nll(receiver: DiscriminationReceiver, messages, candidates,
               positions) -> np.ndarray:
    """Loss ``-log P(target position)`` of one receiver query per row of the
    (B, d) candidate matrix; ``messages`` and ``positions`` are given per
    row or shared by all rows. One ``probabilities_batch`` call answers
    every row."""
    b = len(candidates)
    probs = receiver.probabilities_batch(np.broadcast_to(messages, (b,)),
                                         candidates)
    return _nll(probs[np.arange(b), np.broadcast_to(positions, (b,))])


def _splice(distractors: np.ndarray, targets, positions) -> np.ndarray:
    """Candidate rows: each row's distractors in order with its target
    inserted at its position (targets and positions per row or shared)."""
    b, d = distractors.shape[0], distractors.shape[1] + 1
    cands = np.empty((b, d), dtype=np.int64)
    for j in range(d):
        # left of the target column j holds distractor j, right of it
        # distractor j - 1
        if j == 0 or j == d - 1:
            other = distractors[:, min(j, d - 2)]
        else:
            other = np.where(positions < j, distractors[:, j - 1],
                             distractors[:, j])
        cands[:, j] = np.where(positions == j, targets, other)
    return cands


def _add_sorted(out: np.ndarray, index: np.ndarray,
                values: np.ndarray) -> None:
    """``out[index] += values`` for a non-decreasing ``index``, by one
    bincount over the span of ``out`` it covers."""
    lo = index[0]
    part = np.bincount(index - lo, weights=values)
    out[lo:lo + part.size] += part


def _group_chunk(inner: list[int]) -> int:
    """Rows per block of a product enumeration whose trailing ``inner``
    radices run over one (input, message choice) group's terms: as many
    whole groups as fit in 4096 rows, or else the smallest product of
    trailing radices that reaches 4096, at most one group. Every group then
    splits at the same offsets, so its sum is associated the same way
    whatever its index and however many message choices are enumerated."""
    group = math.prod(inner)
    if group <= 4096:
        return 4096 // group * group
    chunk = 1
    for r in reversed(inner):
        chunk *= r
        if chunk >= 4096:
            return chunk


def _disc_terms(laws: np.ndarray, law_of: np.ndarray, k: int, d: int,
                multiset: bool) -> int:
    """Terms the exact enumeration visits: per law, targets x ``k`` message
    choices x either the ``C(S+d-2, d-1)`` distractor multisets or the
    ``d`` positions x ``S^(d-1)`` distractor tuples over its support of
    size ``S``."""
    total = 0
    for law, dw in enumerate(laws):
        s = int(np.count_nonzero(dw > 0.0))
        per_target = math.comb(s + d - 2, d - 1) if multiset \
            else d * s ** (d - 1)
        total += int(np.count_nonzero(law_of == law)) * k * per_target
    return total


def _arrangements(rows: np.ndarray) -> np.ndarray:
    """Distinct orderings of each non-decreasing row, ``r! / prod(run
    lengths!)``, built column by column; every partial product counts the
    orderings of a prefix, an integer, so it is exact below 2^53."""
    count, run = np.ones(len(rows)), np.ones(len(rows))
    for c in range(1, rows.shape[1]):
        run = np.where(rows[:, c] == rows[:, c - 1], run + 1.0, 1.0)
        count = count * (c + 1) / run
    return count


def _exact_discrimination_losses(
        messages: np.ndarray, receiver: DiscriminationReceiver, d: int,
        laws: np.ndarray, law_of: np.ndarray) -> np.ndarray:
    """Loss of each input ``i`` under each message choice ``messages[i, j]``,
    shape (N, J), by full enumeration of distractors. Input ``i`` draws its
    distractors from ``laws[law_of[i]]``. Past ``EXACT_TERM_BUDGET`` terms
    it raises before enumerating.

    For the built-in synchronized and score receivers the target sits at
    position 0 and the distractors run over the non-decreasing tuples of
    the law's support, each weighted by its number of orderings. Any other
    receiver is asked every (target position, ordered distractor tuple).
    Per law, the terms are enumerated in blocks, each one receiver batch
    of at most 4096 rows (more only when one input's terms under one
    choice exceed 4096), split at the same offsets in every (input,
    choice) group.
    """
    n, k = messages.shape
    # these two ignore the target's position and the distractors' order;
    # a subclass that overrides their batch may not
    multiset = type(receiver).probabilities_batch in (
        SynchronizedDiscriminationReceiver.probabilities_batch,
        ScoreDiscriminationReceiver.probabilities_batch)
    _check_terms(_disc_terms(laws, law_of, k, d, multiset))
    losses = np.zeros((n, k))
    for law, dw in enumerate(laws):
        targets = np.flatnonzero(law_of == law)
        support = np.flatnonzero(dw > 0.0)
        sums = np.zeros(targets.size * k)
        if multiset:
            for block in _multiset_rows(support.size, d - 1):
                distr = support[block]
                w = _arrangements(block) * dw[distr].prod(axis=1)
                step = max(1, 4096 // len(block))  # (target, choice) pairs
                for first in range(0, sums.size, step):
                    pairs = np.arange(first, min(first + step, sums.size))
                    i, j = targets[pairs // k], pairs % k
                    cands = np.empty((pairs.size, len(block), d),
                                     dtype=np.int64)
                    cands[:, :, 0], cands[:, :, 1:] = i[:, None], distr
                    nll = _query_nll(receiver,
                                     np.repeat(messages[i, j], len(block)),
                                     cands.reshape(-1, d), 0)
                    sums[pairs] += (nll.reshape(pairs.size, -1) * w).sum(1)
        else:
            inner = [d] + [support.size] * (d - 1)
            for block in _product_rows([targets.size, k] + inner,
                                       _group_chunk(inner)):
                i, j, t = targets[block[:, 0]], block[:, 1], block[:, 2]
                distr = support[block[:, 3:]]
                w = dw[distr].prod(axis=1) * (1.0 / d)
                nll = _query_nll(receiver, messages[i, j],
                                 _splice(distr, i, t), t)
                _add_sorted(sums, block[:, 0] * k + j, w * nll)
        losses[targets] = sums.reshape(-1, k)
    return losses


def _check_samples(samples, shards=1) -> None:
    """Monte-Carlo sizes: ``samples`` and ``shards`` must be positive
    integers."""
    for name, value in (("samples", samples), ("shards", shards)):
        if not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(
                f"{name} must be a positive integer, got {value!r}")


class _Sampler:
    """Draws from a finite law that are exactly those of
    ``Generator.choice(n, size, p=weights)`` on the same stream: the same
    uniforms ``rng.random`` in stream order, against the same normalized
    cdf (``np.cumsum(weights)``, divided by its last entry), answered as
    ``cdf.searchsorted(u, "right")``.

    A uniform is looked up in a guide table of ``m`` equal-width buckets
    (Chen & Asau 1974; Devroye 1986, ch. III), ``m`` the smallest power of
    two of at least ``16 n``. Bucket ``b`` covers ``[b/m, (b+1)/m)``; it
    holds the answer of every draw in it, ``searchsorted(cdf, b/m,
    "right")``, unless a cdf step falls inside it, and then ``-1``. Scaling
    by a power of two is exact, so a draw's bucket ``floor(u m)`` is exact,
    and only draws in a step bucket (at most ``n / m`` of the unit
    interval) go through ``searchsorted``. Uniforms are taken in blocks of
    ``_DRAW_BLOCK``: ``random(a)`` then ``random(b)`` is the stream of
    ``random(a + b)``."""

    def __init__(self, weights: np.ndarray):
        self.cdf = np.cumsum(weights)
        self.cdf /= self.cdf[-1]
        self.m = 1 << (16 * self.cdf.size - 1).bit_length()
        edges = np.arange(self.m + 1) / self.m
        first = self.cdf.searchsorted(edges[:-1], "right")
        self.guide = np.where(
            first == self.cdf.searchsorted(edges[1:], "left"), first, -1)

    def draw(self, rng: np.random.Generator, shape,
             out: np.ndarray | None = None) -> np.ndarray:
        """int64 draws of the given shape, written into ``out`` (a
        contiguous int64 array of that shape) when one is passed."""
        if out is None:
            out = np.empty(shape, dtype=np.int64)
        flat = out.reshape(-1)
        for lo in range(0, flat.size, _DRAW_BLOCK):
            u = rng.random(min(_DRAW_BLOCK, flat.size - lo))
            # every bucket index is below m; "clip" writes ``out`` unbuffered
            idx = self.guide.take((u * self.m).astype(np.intp),
                                  out=flat[lo:lo + u.size], mode="clip")
            step = np.flatnonzero(idx < 0)
            if step.size:
                idx.put(step, self.cdf.searchsorted(u.take(step), "right"))
        return out


def _mc_report(losses: np.ndarray, targets: np.ndarray, n: int,
               seed: int) -> LossReport:
    """Report of a Monte-Carlo sample: the mean loss, overall and per
    target input (NaN for inputs never drawn), with its standard error.
    Losses are never NaN or ``-inf``, so a non-finite mean means an
    infinite loss. Past one block of samples the standard error is
    computed on the pool while the caller sums per input."""
    mean = float(losses.mean())
    infinite = not math.isfinite(mean)
    spread = not infinite and losses.size > 1
    pool = _pool() if spread and losses.size > _MC_BLOCK else None
    se = pool.submit(_std_error, losses) if pool else None
    per_input = np.full(n, np.nan)
    sums, = _class_sums(targets, n, losses)
    hits = np.bincount(targets, minlength=n)
    np.divide(sums, hits, out=per_input, where=hits > 0)
    if spread:
        se = se.result() if pool else _std_error(losses)
    return LossReport(math.inf if infinite else mean, per_input,
                      "monte-carlo", samples=losses.size, seed=seed,
                      std_error=se, infinite=infinite)


def _std_error(losses: np.ndarray) -> float:
    return float(losses.std(ddof=1) / math.sqrt(losses.size))


def _worker_count() -> int:
    """Threads for Monte-Carlo blocks: ``_WORKERS`` when set, else the
    cores this process may run on."""
    if _WORKERS is not None:
        return _WORKERS
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity
        return os.cpu_count() or 1


def _pool():
    """The shared pool of ``_worker_count()`` threads, built on first use;
    None for one worker."""
    workers = _worker_count()
    if workers < 2:
        return None
    with _POOL_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            from concurrent.futures import ThreadPoolExecutor
            pool = _POOLS[workers] = ThreadPoolExecutor(
                workers, thread_name_prefix="signalgames-mc")
    return pool


def _run_blocks(job, blocks: list[tuple], concurrent: bool) -> None:
    """``job(*block)`` for every block: on the pool when ``concurrent`` is
    set and there are several blocks and workers, else on the caller's
    thread in order. Either way the first failing block in order raises
    its exception."""
    pool = _pool() if concurrent and len(blocks) > 1 else None
    if pool is None:
        for block in blocks:
            job(*block)
        return
    for _ in pool.map(lambda block: job(*block), blocks):
        pass


def _pool_safe(receiver: DiscriminationReceiver, d: int) -> bool:
    """Whether blocks of queries to ``receiver`` may run concurrently: only
    for the built-in score and tabular receivers, whose batch writes
    nothing. The tabular index is built here, before any block runs."""
    batch = type(receiver).probabilities_batch
    if batch is TabularDiscriminationReceiver.probabilities_batch \
            and receiver.num_candidates == d:
        receiver._lookup()
    return batch in (ScoreDiscriminationReceiver.probabilities_batch,
                     TabularDiscriminationReceiver.probabilities_batch)


def _advanced(seeds, steps: int) -> np.random.Generator:
    """The PCG64 generator of the seed sequence ``seeds``, moved ``steps``
    draws ahead, one per uniform."""
    return np.random.Generator(np.random.PCG64(seeds).advance(steps))


def _row_blocks(start: int, size: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` offsets of ``_MC_BLOCK``-row blocks over ``size``
    rows, then shifted by ``start``."""
    return [(start + lo, start + min(lo + _MC_BLOCK, size))
            for lo in range(0, size, _MC_BLOCK)]


def _mc_discrimination(messages: np.ndarray, receiver: DiscriminationReceiver,
                       space: InputSpace, d: int, samples: int, seed: int,
                       shards: int = 1) -> LossReport:
    """Seeded Monte-Carlo estimate; shards derive independent substreams so
    results are reproducible for a fixed (seed, samples, shards).

    A shard of ``size`` rows draws, through one :class:`_Sampler` of the
    prior, ``size`` target uniforms, then ``size * (d - 1)`` distractor
    uniforms in row order, then (for every receiver but the synchronized
    one) ``integers(0, d, size)`` target positions. Its rows are cut into
    blocks of ``_MC_BLOCK``: block ``[lo, hi)`` draws its targets from the
    shard's generator rebuilt from its seed sequence and moved ``lo`` draws
    ahead, and its distractors from one moved ``size + lo * (d - 1)``
    ahead, so every row
    gets the same draws however the blocks run. The positions come from
    the shard's generator moved ``size * d`` ahead, in block order on the
    caller's thread; ``integers`` rejects some draws, so their offsets are
    unknown.

    The synchronized receiver's loss is ``log(1 + c)`` for ``c``
    distractors sharing the target's message. Its blocks, and those of the
    built-in score and tabular receivers, run on ``_run_blocks``'s pool;
    any other receiver is asked block by block on the caller's thread. A
    block is scored a chunk of at most ``_DRAW_BLOCK`` uniforms at a time,
    so the path holds the targets and losses (16 B per sample), the
    positions (1 B more) and one chunk per worker."""
    _check_samples(samples, shards)
    _check_terms(samples, "Monte-Carlo", "samples")
    sampler = _Sampler(space.weights)
    targets = np.empty(samples, dtype=np.int64)
    losses = np.empty(samples)
    sync = type(receiver).probabilities_batch is \
        SynchronizedDiscriminationReceiver.probabilities_batch
    positions = None if sync \
        else np.empty(samples, dtype=np.min_scalar_type(d - 1))
    log_counts = np.log1p(np.arange(d, dtype=float))

    chunk = max(1, _DRAW_BLOCK // d)  # rows of d uniforms

    def job(seeds, size, start, lo, hi):
        target_draws = _advanced(seeds, lo - start)
        distractor_draws = _advanced(seeds, size + (lo - start) * (d - 1))
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            drawn = sampler.draw(target_draws, b - a, out=targets[a:b])
            distr = sampler.draw(distractor_draws, (b - a, d - 1))
            if sync:
                own = messages[drawn]
                count = np.zeros(b - a, dtype=np.intp)
                for c in range(d - 1):
                    count += messages[distr[:, c]] == own
                log_counts.take(count, out=losses[a:b])
            else:
                at = positions[a:b]
                losses[a:b] = _query_nll(receiver, messages[drawn],
                                         _splice(distr, drawn, at), at)

    blocks = []
    start = 0
    for shard in range(shards):
        size = samples // shards + (1 if shard < samples % shards else 0)
        rng = substream(seed, "monte-carlo", str(shard))
        rows = _row_blocks(start, size)
        if not sync:
            rng.bit_generator.advance(size * d)
            for lo, hi in rows:
                positions[lo:hi] = rng.integers(0, d, size=hi - lo)
        blocks += [(rng.bit_generator.seed_seq, size, start, lo, hi)
                   for lo, hi in rows]
        start += size
    _run_blocks(job, blocks, sync or _pool_safe(receiver, d))
    return _mc_report(losses, targets, space.size, seed)


def eval_discrimination(protocol: Protocol, receiver: DiscriminationReceiver,
                        space: InputSpace, d: int, mode: str = "exact",
                        samples: int = 10_000, seed: int = 0,
                        shards: int = 1) -> LossReport:
    """Expected d-candidates discrimination loss.

    ``mode`` is ``exact`` (refused above the term budget) or ``mc`` (a
    seeded estimate from ``samples`` draws in ``shards`` substreams).
    Distractors are i.i.d. draws from the prior and may equal the target.
    """
    if d < 2:
        raise ValueError("candidate count d must be at least 2")
    if _check_mode(mode) == "exact":
        return _exact_eval(protocol, receiver, space, "discrimination", d)
    return _mc_discrimination(protocol.assignment, receiver, space, d,
                              samples, seed, shards)


def _label_groups(space: InputSpace, labels: LabelMap):
    """Each input's label code, the inputs of each label value, and the
    prior conditioned on each label value over its inputs."""
    if labels.size != space.size:
        raise ValueError("label map does not cover the input space")
    codes = labels.codes()
    groups = [np.flatnonzero(codes == y) for y in range(labels.num_values)]
    return codes, groups, [space.weights[g] / space.weights[g].sum()
                           for g in groups]


def _distractor_laws(space: InputSpace, labels: LabelMap | None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Distractor laws as rows of a (L, N) table, and the row each target
    draws from: without labels the prior; with labels (the supervised
    game), per label value, the prior conditioned on another label."""
    if labels is None:
        return space.weights[None], np.zeros(space.size, dtype=int)
    if labels.size != space.size:
        raise ValueError("label map does not cover the input space")
    codes = labels.codes()
    masses, = _class_sums(codes, labels.num_values, space.weights)
    if labels.num_values < 2:
        raise ValueError("supervised game needs >=2 labels")
    if np.any(np.abs(masses - 1.0 / labels.num_values) > 1e-9):
        raise ValueError("supervised game assumes balanced (uniform) labels")
    laws = np.zeros((labels.num_values, space.size))
    for y, value in enumerate(labels.values):
        mask = codes != y
        rest = float(space.weights[mask].sum())
        if rest <= 0.0:
            raise ValueError(f"label {value!r} has zero complementary mass")
        laws[y, mask] = space.weights[mask] / rest
    return laws, codes


def eval_supervised(protocol: Protocol, receiver: DiscriminationReceiver,
                    space: InputSpace, labels: LabelMap, d: int = 2
                    ) -> LossReport:
    """Supervised discrimination: distractors are drawn from the prior
    conditioned on carrying a different label than the target."""
    return _exact_eval(protocol, receiver, space, "supervised", d, labels)


def _classification_losses(messages: np.ndarray,
                           receiver: DiscriminationReceiver,
                           space: InputSpace, labels: LabelMap) -> np.ndarray:
    """Classification loss of each input under each message choice, shape
    (N, J). A built-in :class:`ClassificationReceiver` ignores the
    candidates, so its loss is read off its table; any other receiver is
    asked every candidate tuple of one input per label value, in blocks
    split alike in every (input, choice) group (``_group_chunk``)."""
    codes, groups, cond = _label_groups(space, labels)
    if type(receiver).probabilities_batch \
            is ClassificationReceiver.probabilities_batch:
        return _nll(receiver.conditional[messages, codes[:, None]])
    n, k = messages.shape
    sizes = [g.size for g in groups]
    _check_terms(math.prod(sizes) * n * k)
    sums = np.zeros(n * k)
    for block in _product_rows([n, k] + sizes, _group_chunk(sizes)):
        i, j, picks = block[:, 0], block[:, 1], block[:, 2:]
        cands = np.stack([g[picks[:, y]] for y, g in enumerate(groups)],
                         axis=1)
        w = np.prod([c[picks[:, y]] for y, c in enumerate(cond)], axis=0)
        nll = _query_nll(receiver, messages[i, j], cands, codes[i])
        _add_sorted(sums, i * k + j, w * nll)
    return sums.reshape(n, k)


def eval_classification(protocol: Protocol, receiver: DiscriminationReceiver,
                        space: InputSpace, labels: LabelMap,
                        mode: str = "exact", samples: int = 10_000,
                        seed: int = 0) -> LossReport:
    """Classification discrimination: the candidate tuple holds exactly one
    fresh conditional draw per label value, and the receiver must point at
    the target's label position."""
    if _check_mode(mode) == "exact":
        return _exact_eval(protocol, receiver, space, "classification",
                           labels=labels)
    _check_samples(samples)
    _check_terms(samples, "Monte-Carlo", "samples")
    codes, groups, cond = _label_groups(space, labels)
    rng = substream(seed, "monte-carlo", "classification")
    sampler = _Sampler(space.weights)
    if type(receiver).probabilities_batch \
            is ClassificationReceiver.probabilities_batch:
        # candidates are drawn after the targets and never read: the loss
        # of input i is -log conditional[m_i, y_i], read once per input
        targets = sampler.draw(rng, samples)
        missed = targets[~receiver.defined[protocol.assignment][targets]]
        if missed.size:
            raise EmptyClassError(
                f"receiver undefined for message "
                f"{protocol.assignment[missed[0]]} (empty equivalence class)")
        per_input = _classification_losses(protocol.assignment[:, None],
                                            receiver, space, labels)[:, 0]
        return _mc_report(per_input[targets], targets, space.size, seed)
    # the stream holds the targets, then each label's draws in turn: block
    # [lo, hi) of label y starts samples * (1 + y) + lo draws in
    targets = np.empty(samples, dtype=np.int64)
    losses = np.empty(samples)
    label_samplers = [_Sampler(c) for c in cond]

    chunk = max(1, _DRAW_BLOCK // (1 + len(groups)))  # rows of uniforms

    def job(lo, hi):
        streams = [_advanced(rng.bit_generator.seed_seq, samples * y + lo)
                   for y in range(1 + len(groups))]
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            drawn = sampler.draw(streams[0], b - a, out=targets[a:b])
            cands = np.empty((b - a, len(groups)), dtype=np.int64)
            for y, (g, draws) in enumerate(zip(groups, label_samplers)):
                cands[:, y] = g[draws.draw(streams[1 + y], b - a)]
            losses[a:b] = _query_nll(receiver, protocol.assignment[drawn],
                                     cands, codes[drawn])

    _run_blocks(job, _row_blocks(0, samples),
                _pool_safe(receiver, len(groups)))
    return _mc_report(losses, targets, space.size, seed)


# ---------------------------------------------------------------------------
# Synchronized agents
# ---------------------------------------------------------------------------

def synchronized_receiver(protocol: Protocol, space: InputSpace,
                          spec: GameSpec):
    """The conditionally optimal receiver for a fixed sender.

    reconstruction -> per-message conditional means; discrimination and
    supervised -> position-count indicator normalization; global -> the
    conditional input distribution; classification -> ``P(Y | m)``.
    """
    p = message_probabilities(protocol, space)
    used = p > 0.0
    if spec.kind == "reconstruction":
        firsts = _class_sums(protocol.assignment, protocol.num_messages,
                             *(space.weights * space.points.T))
        pts = np.full((protocol.num_messages, space.dim), np.nan)
        np.divide(np.stack(firsts, axis=1), p[:, None], out=pts,
                  where=used[:, None])
        return ReconstructionReceiver(pts, defined=used)
    if spec.kind in ("discrimination", "supervised"):
        return SynchronizedDiscriminationReceiver(protocol, spec.d)
    if spec.kind == "global":
        a = protocol.assignment
        table = np.zeros((protocol.num_messages, space.size))
        table[a, np.arange(space.size)] = space.weights / p[a]
        return GlobalReceiver(table, defined=used)
    if spec.kind == "classification":
        from .objectives import joint_message_label
        joint = joint_message_label(protocol, space, spec.labels)
        cond = np.zeros_like(joint)
        np.divide(joint, p[:, None], out=cond, where=p[:, None] > 0)
        return ClassificationReceiver(cond, defined=used)
    raise ValueError(f"unknown game kind {spec.kind!r}")


def per_input_message_losses(receiver, space: InputSpace,
                             spec: GameSpec) -> np.ndarray:
    """Expected per-input loss of each possible message choice, shape (N, K),
    ``inf`` at the messages a receiver with a ``defined`` mask leaves
    undefined.

    This is the quantity a synchronized sender minimizes pointwise; for a
    fixed receiver the loss of input ``x`` depends on the sender only
    through the message chosen for ``x``.
    """
    n, k = space.size, receiver.num_messages
    defined = np.flatnonzero(getattr(receiver, "defined",
                                     np.ones(k, dtype=bool)))
    losses = np.full((n, k), np.inf)
    losses[:, defined] = _message_losses(
        receiver, space, np.broadcast_to(defined, (n, defined.size)),
        spec.kind, spec.d, spec.labels)
    return losses


def synchronized_sender(receiver, space: InputSpace,
                        spec: GameSpec) -> Protocol:
    """Loss-minimizing sender for a fixed receiver; ties break toward the
    lowest message index. The per-input achieved loss is tie-invariant."""
    losses = per_input_message_losses(receiver, space, spec)
    return Protocol(np.argmin(losses, axis=1), receiver.num_messages)

