"""Ground-truth loss evaluators for the five games, plus synchronized agents.

This module is the oracle layer: losses are evaluated either by exact
enumeration over the finite input space (targets, candidate tuples and
target positions) or by seeded Monte-Carlo sampling, directly from each
game's definition. The closed forms in :mod:`signalgames.objectives` are
verified against these evaluators.

Receivers are represented over finite domains: a reconstruction receiver is
a per-message point table, a global receiver a per-message distribution over
input indices, and a discrimination receiver a
:class:`DiscriminationReceiver`. Candidates are referenced by input index;
the input space carries their geometry.

Every loss path queries a discrimination receiver in batches:
``probabilities_batch(messages (B,), candidates (B, d)) -> (B, d)`` returns
one distribution over candidate positions per row. The exact paths pass at
most 4096 rows per call. The built-in receivers implement the batch in
numpy, and their scalar ``probabilities(message, candidates)`` is the batch
on one row. A subclass may define only the scalar method instead; the base
class then stacks it row by row.

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
from dataclasses import dataclass

import numpy as np

from .core import GameSpec, InputSpace, LabelMap, Protocol, _class_sums, \
    _product_rows, message_probabilities
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
    "materialize_discrimination_table",
    "substream",
    "EXACT_TERM_BUDGET",
]

EXACT_TERM_BUDGET = 10 ** 8

_PROB_TOL = 1e-12


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


def _nll(p: float) -> float:
    return -math.log(p) if p > 0.0 else math.inf


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

    def point(self, m: int) -> np.ndarray:
        if not self.defined[m]:
            raise EmptyClassError(f"receiver undefined for message {m} "
                                  "(empty equivalence class)")
        return self.points[m]


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

    def likelihood(self, m: int, i: int) -> float:
        if not self.defined[m]:
            raise EmptyClassError(f"receiver undefined for message {m} "
                                  "(empty equivalence class)")
        return float(self.table[m, i])


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
    """``rows / totals``, with uniform rows where ``empty`` is set."""
    safe = np.where(empty, 1.0, totals)
    return np.where(empty, 1.0 / rows.shape[1], rows / safe)


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
    whose values are views of those rows.
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
        self._row_of = {key: r for r, key in enumerate(table)}
        self.table = dict(zip(self._row_of, self.rows))

    def probabilities_batch(self, messages, candidates):
        keys = zip(np.asarray(messages).tolist(),
                   map(tuple, np.asarray(candidates).tolist()))
        try:
            return self.rows[[self._row_of[key] for key in keys]]
        except KeyError as exc:
            m, cands = exc.args[0]
            raise EmptyClassError(
                f"receiver undefined on query ({m}, {cands})") from None


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


def _exact_report(per_input: np.ndarray, weights: np.ndarray) -> LossReport:
    infinite = bool(np.any(np.isinf(per_input)))
    expected = float(weights @ per_input) if not infinite else math.inf
    return LossReport(expected, per_input, "exact", infinite=infinite)


# ---------------------------------------------------------------------------
# Reconstruction and global games
# ---------------------------------------------------------------------------

def eval_reconstruction(protocol: Protocol, receiver: ReconstructionReceiver,
                        space: InputSpace) -> LossReport:
    """Exact expected squared-distance loss ``E ||R(S(x)) - x||^2``."""
    used = protocol.used_messages()
    if not np.all(receiver.defined[used]):
        missing = used[~receiver.defined[used]]
        raise EmptyClassError(f"receiver missing used messages {missing.tolist()}")
    diff = receiver.points[protocol.assignment] - space.points
    per_input = np.einsum("ij,ij->i", diff, diff)
    return _exact_report(per_input, space.weights)


def eval_global(protocol: Protocol, receiver: GlobalReceiver,
                space: InputSpace) -> LossReport:
    """Exact expected loss ``E [-log P(R(S(x)) = x)]``."""
    per_input = np.array([
        _nll(receiver.likelihood(protocol.assignment[i], i))
        for i in range(space.size)
    ])
    return _exact_report(per_input, space.weights)


# ---------------------------------------------------------------------------
# Discrimination-style games
# ---------------------------------------------------------------------------

def _exact_disc_term_count(n: int, d: int) -> int:
    return n ** (d - 1) * n * d


def _evaluation_mode(mode: str, terms: int, budget: int,
                     what: str = "exact enumeration") -> str:
    """``exact`` or ``mc``: ``auto`` picks exact enumeration when its term
    count fits the budget; an explicit ``exact`` over budget raises."""
    if mode == "auto":
        mode = "exact" if terms <= budget else "mc"
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and terms > budget:
        raise BudgetExceededError(
            f"{what} needs {terms} terms (budget {budget})", required=terms)
    return mode


def _query_nll(receiver: DiscriminationReceiver, messages, candidates,
               positions) -> np.ndarray:
    """Loss ``-log P(target position)`` of one receiver query per row of the
    (B, d) candidate matrix; ``messages`` and ``positions`` are given per
    row or shared by all rows. One ``probabilities_batch`` call answers
    every row; the logarithm is ``math.log``, taken once per distinct
    probability."""
    b = len(candidates)
    probs = receiver.probabilities_batch(np.broadcast_to(messages, (b,)),
                                         candidates)
    p = probs[np.arange(b), np.broadcast_to(positions, (b,))]
    distinct, inverse = np.unique(p, return_inverse=True)
    return np.array([_nll(v) for v in distinct.tolist()])[inverse]


def _splice(distractors: np.ndarray, targets, positions) -> np.ndarray:
    """Candidate rows: each row's distractors in order with its target
    inserted at its position (targets and positions per row or shared)."""
    b, d = distractors.shape[0], distractors.shape[1] + 1
    at = np.arange(d) == np.broadcast_to(positions, (b,))[:, None]
    cands = np.empty((b, d), dtype=np.int64)
    cands[at] = np.broadcast_to(targets, (b,))
    cands[~at] = distractors.ravel()
    return cands


def _add_sorted(out: np.ndarray, index: np.ndarray,
                values: np.ndarray) -> None:
    """``out[index] += values`` for a non-decreasing ``index``, by one
    bincount over the span of ``out`` it covers."""
    lo = index[0]
    part = np.bincount(index - lo, weights=values)
    out[lo:lo + part.size] += part


def _exact_discrimination_losses(
        messages: np.ndarray, receiver: DiscriminationReceiver, d: int,
        laws: np.ndarray, law_of: np.ndarray) -> np.ndarray:
    """Loss of each input ``i`` under each message choice ``messages[i, j]``,
    shape (N, J), by full enumeration of distractor tuples and target
    positions. Input ``i`` draws its distractors from ``laws[law_of[i]]``.

    Per law, the (target, choice, position, distractor tuple) terms are
    enumerated target-major in blocks of at most 4096 rows, and each block
    is one receiver batch.
    """
    n, k = messages.shape
    losses = np.zeros((n, k))
    for law, dw in enumerate(laws):
        targets = np.flatnonzero(law_of == law)
        support = np.flatnonzero(dw > 0.0)
        sums = np.zeros(targets.size * k)
        for block in _product_rows([targets.size, k, d]
                                   + [support.size] * (d - 1)):
            i, j, t = targets[block[:, 0]], block[:, 1], block[:, 2]
            distr = support[block[:, 3:]]
            w = dw[distr].prod(axis=1) * (1.0 / d)
            nll = _query_nll(receiver, messages[i, j], _splice(distr, i, t),
                             t)
            _add_sorted(sums, block[:, 0] * k + j, w * nll)
        losses[targets] = sums.reshape(-1, k)
    return losses


def _mc_report(losses: np.ndarray, targets: np.ndarray, n: int,
               seed: int) -> LossReport:
    """Report of a Monte-Carlo sample: the mean loss, overall and per
    target input (NaN for inputs never drawn), with its standard error."""
    per_input = np.full(n, np.nan)
    sums, hits = _class_sums(targets[None], n, losses, np.ones(losses.size))
    np.divide(sums[0], hits[0], out=per_input, where=hits[0] > 0)
    infinite = bool(np.any(np.isinf(losses)))
    expected = float(losses.mean()) if not infinite else math.inf
    se = float(losses.std(ddof=1) / math.sqrt(losses.size)) \
        if not infinite and losses.size > 1 else None
    return LossReport(expected, per_input, "monte-carlo", samples=losses.size,
                      seed=seed, std_error=se, infinite=infinite)


def _mc_discrimination(messages: np.ndarray, receiver: DiscriminationReceiver,
                       space: InputSpace, d: int, samples: int, seed: int,
                       shards: int = 1) -> LossReport:
    """Seeded Monte-Carlo estimate; shards derive independent substreams so
    results are reproducible for a fixed (seed, samples, shards)."""
    if samples < 1 or shards < 1:
        raise ValueError("samples and shards must be positive")
    n = space.size
    counts = [samples // shards + (1 if s < samples % shards else 0)
              for s in range(shards)]
    loss_chunks, target_chunks = [], []
    sync = isinstance(receiver, SynchronizedDiscriminationReceiver)
    for shard, size in enumerate(counts):
        if size == 0:
            continue
        rng = substream(seed, "monte-carlo", str(shard))
        targets = rng.choice(n, size=size, p=space.weights)
        distr = rng.choice(n, size=(size, d - 1), p=space.weights)
        if sync:
            share = messages[distr] == messages[targets][:, None]
            losses = np.log1p(share.sum(axis=1).astype(float))
        else:
            positions = rng.integers(0, d, size=size)
            losses = _query_nll(receiver, messages[targets],
                                _splice(distr, targets, positions), positions)
        loss_chunks.append(losses)
        target_chunks.append(targets)
    return _mc_report(np.concatenate(loss_chunks),
                      np.concatenate(target_chunks), n, seed)


def eval_discrimination(protocol: Protocol, receiver: DiscriminationReceiver,
                        space: InputSpace, d: int, mode: str = "auto",
                        samples: int = 10_000, seed: int = 0,
                        shards: int = 1,
                        budget: int = EXACT_TERM_BUDGET) -> LossReport:
    """Expected d-candidates discrimination loss.

    ``mode`` is one of ``exact`` (refused above the term budget), ``mc``,
    or ``auto`` (exact when affordable, Monte-Carlo otherwise). Distractors
    are i.i.d. draws from the prior and may equal the target.
    """
    if d < 2:
        raise ValueError("candidate count d must be at least 2")
    terms = _exact_disc_term_count(space.size, d)
    if _evaluation_mode(mode, terms, budget) == "exact":
        per_input = _exact_discrimination_losses(
            protocol.assignment[:, None], receiver, d, space.weights[None],
            np.zeros(space.size, dtype=int))[:, 0]
        return _exact_report(per_input, space.weights)
    return _mc_discrimination(protocol.assignment, receiver, space, d,
                              samples, seed, shards)


def _distractor_laws(space: InputSpace, labels: LabelMap | None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Distractor laws as rows of a (L, N) table, and the row each target
    draws from: without labels the prior; with labels (the supervised
    game), per label value, the prior conditioned on another label."""
    if labels is None:
        return space.weights[None], np.zeros(space.size, dtype=int)
    codes = labels.codes()
    masses, = _class_sums(codes[None], labels.num_values, space.weights)
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
                    space: InputSpace, labels: LabelMap, d: int = 2,
                    budget: int = EXACT_TERM_BUDGET) -> LossReport:
    """Supervised discrimination: distractors are drawn from the prior
    conditioned on carrying a different label than the target."""
    if labels.size != space.size:
        raise ValueError("label map does not cover the input space")
    laws, law_of = _distractor_laws(space, labels)
    _evaluation_mode("exact", _exact_disc_term_count(space.size, d), budget)
    per_input = _exact_discrimination_losses(
        protocol.assignment[:, None], receiver, d, laws, law_of)[:, 0]
    return _exact_report(per_input, space.weights)


def eval_classification(protocol: Protocol, receiver: DiscriminationReceiver,
                        space: InputSpace, labels: LabelMap,
                        mode: str = "auto", samples: int = 10_000,
                        seed: int = 0,
                        budget: int = EXACT_TERM_BUDGET) -> LossReport:
    """Classification discrimination: the candidate tuple holds exactly one
    fresh conditional draw per label value, and the receiver must point at
    the target's label position."""
    if labels.size != space.size:
        raise ValueError("label map does not cover the input space")
    codes = labels.codes()
    groups = [np.flatnonzero(codes == y) for y in range(labels.num_values)]
    cond = [space.weights[g] / space.weights[g].sum() for g in groups]
    sizes = [g.size for g in groups]
    n = space.size
    messages = protocol.assignment
    if _evaluation_mode(mode, math.prod(sizes) * n, budget) == "exact":
        # (target, candidate tuple) pairs, in blocks of at most 4096 rows
        per_input = np.zeros(n)
        for block in _product_rows([n] + sizes):
            i, picks = block[:, 0], block[:, 1:]
            cands = np.stack([g[picks[:, y]] for y, g in enumerate(groups)],
                             axis=1)
            w = np.prod([c[picks[:, y]] for y, c in enumerate(cond)], axis=0)
            nll = _query_nll(receiver, messages[i], cands, codes[i])
            _add_sorted(per_input, i, w * nll)
        return _exact_report(per_input, space.weights)

    rng = substream(seed, "monte-carlo", "classification")
    targets = rng.choice(n, size=samples, p=space.weights)
    cands = np.stack([g[rng.choice(len(g), size=samples, p=c)]
                      for g, c in zip(groups, cond)], axis=1)
    losses = _query_nll(receiver, messages[targets], cands, codes[targets])
    return _mc_report(losses, targets, n, seed)


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
        firsts = _class_sums(protocol.assignment[None], protocol.num_messages,
                             *(space.weights * space.points.T))
        pts = np.full((protocol.num_messages, space.dim), np.nan)
        np.divide(np.concatenate(firsts).T, p[:, None], out=pts,
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


def per_input_message_losses(receiver, space: InputSpace, spec: GameSpec,
                             budget: int = EXACT_TERM_BUDGET) -> np.ndarray:
    """Expected per-input loss of each possible message choice, shape (N, K).

    This is the quantity a synchronized sender minimizes pointwise; for a
    fixed receiver the loss of input ``x`` depends on the sender only
    through the message chosen for ``x``.
    """
    n, k = space.size, receiver.num_messages
    losses = np.full((n, k), np.inf)
    if spec.kind == "reconstruction":
        for m in range(k):
            if receiver.defined[m]:
                diff = space.points - receiver.points[m]
                losses[:, m] = np.einsum("ij,ij->i", diff, diff)
        return losses
    if spec.kind == "global":
        for m in range(k):
            if receiver.defined[m]:
                with np.errstate(divide="ignore"):
                    losses[:, m] = -np.log(receiver.table[m])
        return losses
    if spec.kind in ("discrimination", "supervised"):
        d = spec.d
        laws, law_of = _distractor_laws(
            space, spec.labels if spec.kind == "supervised" else None)
        terms = n ** (d - 1) * n * k * d
        if terms <= budget:
            return _exact_discrimination_losses(
                np.broadcast_to(np.arange(k), (n, k)), receiver, d, laws,
                law_of)
        # past the exact budget: seeded Monte-Carlo with draws shared
        # across message choices, so the per-input argmin stays stable
        draws = max(1, spec.samples // n)
        rng = substream(spec.seed, "monte-carlo", "sender")
        for i in range(n):
            distr = rng.choice(n, size=(draws, d - 1), p=laws[law_of[i]])
            positions = np.tile(rng.integers(0, d, size=draws), k)
            nll = _query_nll(receiver, np.repeat(np.arange(k), draws),
                             _splice(np.tile(distr, (k, 1)), i, positions),
                             positions)
            # a running sum per message choice, in draw order
            losses[i] = np.cumsum(nll.reshape(k, draws), axis=1)[:, -1] / draws
        return losses
    if spec.kind == "classification":
        codes = spec.labels.codes()
        if isinstance(receiver, ClassificationReceiver):
            for m in range(k):
                if receiver.defined[m]:
                    row = receiver.conditional[m]
                    losses[:, m] = [_nll(float(row[codes[i]]))
                                    for i in range(n)]
            return losses
        raise NotImplementedError(
            "synchronized sender for classification needs a "
            "candidate-independent receiver table")
    raise ValueError(f"unknown game kind {spec.kind!r}")


def synchronized_sender(receiver, space: InputSpace, spec: GameSpec,
                        budget: int = EXACT_TERM_BUDGET) -> Protocol:
    """Loss-minimizing sender for a fixed receiver; ties break toward the
    lowest message index. The per-input achieved loss is tie-invariant."""
    losses = per_input_message_losses(receiver, space, spec, budget=budget)
    return Protocol(np.argmin(losses, axis=1), receiver.num_messages)


def materialize_discrimination_table(receiver: DiscriminationReceiver,
                                     space: InputSpace,
                                     max_rows: int = 10 ** 6
                                     ) -> TabularDiscriminationReceiver:
    """Dense (message x candidate tuple) table of a discrimination receiver."""
    d = receiver.num_candidates
    rows = receiver.num_messages * space.size ** d
    if rows > max_rows:
        raise ValueError(f"dense table would need {rows} rows "
                         f"(max {max_rows})")
    table = {}
    for block in _product_rows([receiver.num_messages] + [space.size] * d):
        probs = receiver.probabilities_batch(block[:, 0], block[:, 1:])
        for (m, *cands), row in zip(block.tolist(), probs):
            table[(m, tuple(cands))] = row
    return TabularDiscriminationReceiver(d, receiver.num_messages, table)

