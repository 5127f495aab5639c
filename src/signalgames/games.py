"""Ground-truth loss evaluators for the five games, plus synchronized agents.

This module is the oracle layer: losses are evaluated either by exact
enumeration over the finite input space (targets, candidate tuples and
target positions) or by seeded Monte-Carlo sampling, directly from each
game's definition. The closed forms in :mod:`signalgames.objectives` are
verified against these evaluators.

Receivers are represented over finite domains: a reconstruction receiver is
a per-message point table, a global receiver a per-message distribution over
input indices, and a discrimination receiver any object with a
``probabilities(message, candidates)`` method returning a distribution over
candidate positions. Candidates are referenced by input index; the input
space carries their geometry.

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

import itertools
import math
from dataclasses import dataclass
from typing import Callable

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
    over candidate positions."""

    num_candidates: int
    num_messages: int

    def probabilities(self, m: int, candidates: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError


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

    def probabilities(self, m: int, candidates: tuple[int, ...]) -> np.ndarray:
        match = np.fromiter((self.messages[c] == m for c in candidates),
                            dtype=bool, count=len(candidates))
        k = int(match.sum())
        if k == 0:
            return np.full(len(candidates), 1.0 / len(candidates))
        return match.astype(float) / k


class TabularDiscriminationReceiver(DiscriminationReceiver):
    """Dense table over explicit (message, candidate tuple) queries."""

    def __init__(self, d: int, num_messages: int,
                 table: dict[tuple[int, tuple[int, ...]], np.ndarray]):
        self.num_candidates = int(d)
        self.num_messages = int(num_messages)
        self.table = {}
        for key, row in table.items():
            m, cands = key
            if not 0 <= m < num_messages or len(cands) != d \
                    or min(cands, default=0) < 0:
                raise ValueError(f"query {key} is not a message below "
                                 f"{num_messages} with {d} candidates")
            row = np.asarray(row, dtype=float)
            if row.shape != (d,) or np.any(row < 0.0) \
                    or abs(row.sum() - 1.0) > _PROB_TOL:
                raise ValueError(f"row for query {key} is not a distribution")
            self.table[key] = row

    def probabilities(self, m: int, candidates: tuple[int, ...]) -> np.ndarray:
        try:
            return self.table[(m, tuple(candidates))]
        except KeyError:
            raise EmptyClassError(
                f"receiver undefined on query ({m}, {tuple(candidates)})")

    def queries(self):
        return self.table.items()


class ConstantDiscriminationReceiver(DiscriminationReceiver):
    """Outputs a fixed distribution regardless of message and candidates."""

    def __init__(self, vector: np.ndarray, num_messages: int = 1):
        row = np.asarray(vector, dtype=float)
        if np.any(row < 0.0) or abs(row.sum() - 1.0) > _PROB_TOL:
            raise ValueError("constant output is not a distribution")
        self.vector = row
        self.num_candidates = row.size
        self.num_messages = int(num_messages)

    def probabilities(self, m: int, candidates: tuple[int, ...]) -> np.ndarray:
        return self.vector


class ScoreDiscriminationReceiver(DiscriminationReceiver):
    """Candidate-unaware receiver: scores each candidate independently via
    ``score(m, x)`` and normalizes the scores into a distribution."""

    def __init__(self, scores: np.ndarray, d: int):
        self.scores = np.asarray(scores, dtype=float)  # (K, N)
        self.num_candidates = int(d)
        self.num_messages = self.scores.shape[0]

    def probabilities(self, m: int, candidates: tuple[int, ...]) -> np.ndarray:
        s = self.scores[m, list(candidates)]
        total = s.sum()
        if total <= 0.0:
            return np.full(len(candidates), 1.0 / len(candidates))
        return s / total


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

    def probabilities(self, m: int, candidates: tuple[int, ...]) -> np.ndarray:
        if not self.defined[m]:
            raise EmptyClassError(f"receiver undefined for message {m} "
                                  "(empty equivalence class)")
        return self.conditional[m]


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

    def to_dict(self) -> dict:
        out = {
            "expected_loss": self.expected,
            "per_input_loss": [float(v) for v in self.per_input],
            "mode": self.mode,
            "infinite": self.infinite,
        }
        if self.mode == "monte-carlo":
            out.update(samples=self.samples, seed=self.seed,
                       std_error=self.std_error)
        return out


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
    row or shared by all rows."""
    rows = np.asarray(candidates).tolist()
    ms = np.broadcast_to(messages, (len(rows),)).tolist()
    ts = np.broadcast_to(positions, (len(rows),)).tolist()
    return np.array([_nll(float(receiver.probabilities(m, tuple(r))[t]))
                     for m, r, t in zip(ms, rows, ts)], dtype=float)


def _splice(distractors: np.ndarray, targets, positions) -> np.ndarray:
    """Candidate rows: each row's distractors in order with its target
    inserted at its position (targets and positions per row or shared)."""
    b, d = distractors.shape[0], distractors.shape[1] + 1
    at = np.arange(d) == np.broadcast_to(positions, (b,))[:, None]
    cands = np.empty((b, d), dtype=np.int64)
    cands[at] = np.broadcast_to(targets, (b,))
    cands[~at] = distractors.ravel()
    return cands


def _exact_discrimination_per_input(
        messages: np.ndarray, receiver: DiscriminationReceiver,
        space: InputSpace, d: int,
        distractor_weights: Callable[[int], np.ndarray]) -> np.ndarray:
    """Per-input loss by full enumeration of distractor tuples and target
    positions. The distractor law may depend on the target index."""
    n = space.size
    per_input = np.zeros(n)
    for i in range(n):
        dw = distractor_weights(i)
        support = np.flatnonzero(dw > 0.0)
        for block in _product_rows([support.size] * (d - 1)):
            distr = support[block]
            w = dw[distr].prod(axis=1) * (1.0 / d)
            for t in range(d):
                per_input[i] += w @ _query_nll(
                    receiver, messages[i], _splice(distr, i, t), t)
    return per_input


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
        per_input = _exact_discrimination_per_input(
            protocol.assignment, receiver, space, d, lambda i: space.weights)
        return _exact_report(per_input, space.weights)
    return _mc_discrimination(protocol.assignment, receiver, space, d,
                              samples, seed, shards)


def _supervised_distractor_weights(space: InputSpace, labels: LabelMap):
    codes = labels.codes()
    masses, = _class_sums(codes[None], labels.num_values, space.weights)
    if labels.num_values < 2:
        raise ValueError("supervised game needs >=2 labels")
    if np.any(np.abs(masses - 1.0 / labels.num_values) > 1e-9):
        raise ValueError("supervised game assumes balanced (uniform) labels")

    def weights_for(i: int) -> np.ndarray:
        mask = codes != codes[i]
        rest = float(space.weights[mask].sum())
        if rest <= 0.0:
            raise ValueError(f"label {labels.labels[i]!r} has zero "
                             "complementary mass")
        out = np.where(mask, space.weights, 0.0)
        return out / rest

    return weights_for


def eval_supervised(protocol: Protocol, receiver: DiscriminationReceiver,
                    space: InputSpace, labels: LabelMap, d: int = 2,
                    budget: int = EXACT_TERM_BUDGET) -> LossReport:
    """Supervised discrimination: distractors are drawn from the prior
    conditioned on carrying a different label than the target."""
    if labels.size != space.size:
        raise ValueError("label map does not cover the input space")
    weights_for = _supervised_distractor_weights(space, labels)
    _evaluation_mode("exact", _exact_disc_term_count(space.size, d), budget)
    per_input = _exact_discrimination_per_input(
        protocol.assignment, receiver, space, d, weights_for)
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
        per_input = np.zeros(n)
        for block in _product_rows(sizes):
            cands = np.stack([g[block[:, y]] for y, g in enumerate(groups)],
                             axis=1)
            w = np.prod([c[block[:, y]] for y, c in enumerate(cond)], axis=0)
            for i in range(n):
                per_input[i] += w @ _query_nll(receiver, messages[i], cands,
                                               codes[i])
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
        if spec.kind == "supervised":
            weights_for = _supervised_distractor_weights(space, spec.labels)
        else:
            weights_for = lambda i: space.weights
        terms = n ** (d - 1) * n * k * d
        if terms <= budget:
            for m in range(k):
                losses[:, m] = _exact_discrimination_per_input(
                    np.full(n, m), receiver, space, d, weights_for)
            return losses
        # past the exact budget: seeded Monte-Carlo with draws shared
        # across message choices, so the per-input argmin stays stable
        draws = max(1, spec.samples // n)
        rng = substream(spec.seed, "monte-carlo", "sender")
        for i in range(n):
            distr = rng.choice(n, size=(draws, d - 1), p=weights_for(i))
            positions = rng.integers(0, d, size=draws)
            cands = _splice(distr, i, positions)
            for m in range(k):
                # a running sum, in draw order
                losses[i, m] = np.cumsum(_query_nll(
                    receiver, m, cands, positions))[-1] / draws
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
    for m in range(receiver.num_messages):
        for cands in itertools.product(range(space.size), repeat=d):
            table[(m, cands)] = np.asarray(receiver.probabilities(m, cands),
                                           dtype=float)
    return TabularDiscriminationReceiver(d, receiver.num_messages, table)

