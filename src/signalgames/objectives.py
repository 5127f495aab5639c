"""Closed-form objectives equivalent to each game's expected loss.

For a fixed sender, plugging the synchronized receiver back into each game's
loss yields a closed-form function of the protocol alone:

* reconstruction: the unexplained variance ``sum_m p_m Var[X|m]``;
* d-candidates discrimination: ``sum_m f(p_m)`` with
  ``f(p) = p * E log(1 + Binomial(d-1, p))`` (for d=2 this is
  ``log 2 * sum_m p_m^2``, and ``sum_m p_m^2`` is the constant-stripped
  form valid inside argmin);
* global discrimination: ``-I(X; S(X)) = -H(S(X))`` for deterministic senders;
* supervised discrimination: ``sum_{m,y} P(m,y) E log(1 + Binomial(d-1,
  q_my))``, where ``q_my = (p_m - P(m,y)) / (1 - P(y))`` is the chance that
  a distractor, drawn from outside label ``y``, shares message ``m`` (for
  d=2 and balanced labels this is ``log 2 * V/(V-1)`` times the two-term
  form ``sum_m p_m^2 - sum_{m,y} P(m,y)^2``);
* classification discrimination: ``-I(Y; S(X))``.

All logarithms are natural (nats); entropies use the plug-in convention
``0 log 0 = 0``; mutual information is computed from exact joint weight
tables, never from samples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import GameSpec, InputSpace, LabelMap, Protocol, _check_sizes, \
    _class_sums, message_probabilities

__all__ = [
    "reco_objective",
    "binomial_log_moment",
    "disc_objective",
    "disc_objective_simplified",
    "global_objective",
    "supervised_objective",
    "SupervisedObjective",
    "classification_objective",
    "batch_objective",
    "convexity_check",
    "entropy",
    "mutual_information",
    "joint_message_label",
]


def reco_objective(protocol: Protocol, space: InputSpace) -> float:
    """Weighted unexplained variance ``sum_m P(S=m) Var[X | S=m]``."""
    return _one_row(protocol, space, "reconstruction")


def binomial_log_moment(p: float | np.ndarray, d: int) -> float | np.ndarray:
    """``f(p) = p * E log(1 + Binomial(d-1, p))`` via the exact binomial
    sum, elementwise over a float or an array of ``p``."""
    p = np.asarray(p, dtype=float)
    if not ((p >= -1e-12) & (p <= 1.0 + 1e-12)).all():
        raise ValueError("p must lie in [0, 1]")
    p = p.clip(0.0, 1.0)
    return (p * _log1p_binomial_mean(p, d))[()]


def _log1p_binomial_mean(p: np.ndarray, d: int) -> np.ndarray:
    """``E log(1 + Binomial(d-1, p))`` by the exact binomial sum,
    elementwise, for probabilities already known to lie in [0, 1]."""
    if d < 2:
        raise ValueError("candidate count d must be at least 2")
    n = d - 1
    q = 1.0 - p if n > 1 else None
    acc = None
    for k in range(1, n + 1):  # k = 0 contributes log 1 = 0
        # x ** 1 is x and x ** 0 is 1 exactly, so those powers are skipped
        term = math.comb(n, k) * math.log1p(k) * (p ** k if k > 1 else p)
        if k < n:
            term = term * (q ** (n - k) if k < n - 1 else q)
        acc = term if acc is None else acc + term
    return acc


def disc_objective(protocol: Protocol, space: InputSpace, d: int) -> float:
    """Exact expected discrimination loss of the synchronized pair,
    ``sum_m p_m * E log(1 + Binomial(d-1, p_m))``."""
    return _one_row(protocol, space, "discrimination", d)


def disc_objective_simplified(protocol: Protocol, space: InputSpace) -> float:
    """The single-distractor form ``sum_m p_m^2``.

    Valid for comparing protocols at d=2 only; it strips the constant
    ``log 2`` factor, so it is not a loss value.
    """
    p = message_probabilities(protocol, space)
    return float(p @ p)


def global_objective(protocol: Protocol, space: InputSpace) -> float:
    """``-I(X; S(X))``, which equals ``-H(S(X))`` for a deterministic sender.

    Inputs are treated as distinct atoms indexed by position, so the
    identity ``I(X; S(X)) = H(X) - H(X|S(X)) = H(S(X))`` holds exactly.
    """
    return _one_row(protocol, space, "global")


class SupervisedObjective(NamedTuple):
    value: float
    diversity_term: float  # sum_m P(m)^2
    purity_term: float     # sum_{m,y} P(m, y)^2


def supervised_objective(protocol: Protocol, space: InputSpace,
                         labels: LabelMap) -> SupervisedObjective:
    """Two-term supervised objective ``sum_m P(m)^2 - sum_{m,y} P(m,y)^2``.

    The first term rewards diverse messages, the second rewards label-pure
    equivalence classes. The value lies in [0, 1] and vanishes exactly when
    every class is label-pure. With balanced labels over ``V`` values, the
    d=2 supervised loss is ``log 2 * V/(V-1)`` times the value;
    :func:`batch_objective` gives the loss itself at any ``d``.
    """
    diversity, purity = map(float, _supervised_terms(
        _joint(protocol.assignment, protocol.num_messages, space, labels)))
    return SupervisedObjective(diversity - purity, diversity, purity)


def classification_objective(protocol: Protocol, space: InputSpace,
                             labels: LabelMap) -> float:
    """``-I(Y; S(X))`` from the exact joint message/label table."""
    return _one_row(protocol, space, "classification", labels=labels)


def convexity_check(d: int, grid_step: float = 1e-3) -> bool:
    """Grid check that ``p -> binomial_log_moment(p, d)`` is convex on [0, 1].

    Evaluates central second differences on a uniform grid and requires all
    of them to be at least ``-1e-9``.
    """
    if grid_step > 1e-3:
        raise ValueError("grid step must be at most 1e-3")
    grid = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    vals = binomial_log_moment(grid, d)
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    return bool(np.all(second >= -1e-9))


# ---------------------------------------------------------------------------
# Plug-in information quantities
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).smallest_subnormal


def entropy(probs: np.ndarray) -> np.ndarray:
    """Plug-in Shannon entropy in nats with ``0 log 0 = 0``, of each
    distribution along the last axis. Entries must be non-negative.

    Every positive float is at least the smallest subnormal, so clamping
    there moves only ``p = 0``, whose term ``log(tiny) * -0`` is then
    ``+0`` with no warning. Each term is ``log(p) * -p``, signed zeros
    included, so a point mass has entropy ``+0``.
    """
    probs = np.asarray(probs, dtype=float)
    return np.add.reduce(np.log(np.maximum(probs, _TINY)) * -probs, axis=-1)


def mutual_information(joint: np.ndarray) -> np.ndarray:
    """``I(row; col)`` of joint probability tables held in the last two
    axes, in nats."""
    joint = np.asarray(joint, dtype=float)
    add = np.add.reduce
    return entropy(add(joint, axis=-1)) + entropy(add(joint, axis=-2)) \
        - entropy(joint.reshape(*joint.shape[:-2], -1))


def joint_message_label(protocol: Protocol, space: InputSpace,
                        labels: LabelMap) -> np.ndarray:
    """Exact joint table ``P(S(X) = m, Y = y)`` of shape (K, |Y|)."""
    return _joint(protocol.assignment, protocol.num_messages, space, labels)


# ---------------------------------------------------------------------------
# Batched closed forms: one kernel for many assignments and for one protocol
# ---------------------------------------------------------------------------

def batch_objective(assignments: np.ndarray, space: InputSpace,
                    spec: GameSpec) -> np.ndarray:
    """Closed-form objective of the game ``spec`` for each row of a
    (batch, n) matrix of assignments."""
    assignments = np.asarray(assignments, dtype=int)
    if assignments.ndim != 2 or assignments.shape[1] != space.size:
        raise ValueError(f"assignments of shape {assignments.shape} do not "
                         f"cover {space.size} inputs")
    return _objective_rows(assignments, int(assignments.max(initial=0)) + 1,
                           space, spec.kind, spec.d, spec.labels)


def _one_row(protocol: Protocol, space: InputSpace, kind: str, d: int = 2,
             labels: LabelMap | None = None) -> float:
    _check_sizes(protocol, space)
    return float(_objective_rows(protocol.assignment, protocol.num_messages,
                                 space, kind, d, labels))


def _objective_rows(assignments: np.ndarray, k: int, space: InputSpace,
                    kind: str, d: int, labels: LabelMap | None) -> np.ndarray:
    """The closed form of each row of a (B, N) matrix of assignments with
    values below ``k`` (or of one (N,) assignment, giving a scalar): its
    class sums, then :func:`_sums_objective`."""
    weights, codes, v = _class_layout(space, kind, labels)
    if codes is not None:
        assignments = assignments * v + codes
    return _sums_objective(_class_sums(assignments, k * v, *weights),
                           space, kind, d, v)


def _class_layout(space: InputSpace, kind: str, labels: LabelMap | None):
    """What the closed form of ``kind`` sums per class: the weight vectors
    (the prior, and for reconstruction each coordinate of
    ``w_i (x_i - E X)``), and for the label games each input's label code
    and the label count ``V``, class ``m`` and label ``y`` being column
    ``m * V + y`` (else ``None`` and 1)."""
    if kind == "reconstruction":
        return space._reco_weights, None, 1
    if kind not in ("supervised", "classification"):
        return (space.weights,), None, 1
    if labels.size != space.size:
        raise ValueError("label map does not cover the input space")
    return (space.weights,), labels.codes(), labels.num_values


def _sums_objective(sums: list[np.ndarray], space: InputSpace, kind: str,
                    d: int, v: int) -> np.ndarray:
    """The one dispatch from class sums to each game's closed form: the
    (B, K * v) or (K * v,) sums of :func:`_class_layout`'s weight vectors,
    each closed form reducing over all K classes given."""
    add = np.add.reduce
    if kind == "reconstruction":
        return space._variance - _explained(sums)
    masses, = sums
    if kind == "global":
        return -entropy(masses)
    if kind == "discrimination":
        return add(masses * _log1p_binomial_mean(masses, d), axis=-1)
    joint = masses.reshape(*masses.shape[:-1], -1, v)
    if kind == "supervised":
        outside = 1.0 - add(joint, axis=-2, keepdims=True)  # 1 - P(y)
        q = add(joint, axis=-1, keepdims=True) - joint
        q /= outside
        return add(joint * _log1p_binomial_mean(q, d), axis=(-2, -1))
    if kind == "classification":
        return -mutual_information(joint)
    raise ValueError(f"unknown game kind {kind!r}")


def _explained(sums: list[np.ndarray]) -> np.ndarray:
    """The explained part of reconstruction's closed form, ``sum_m
    ||E[(X - EX) 1{S=m}]||^2 / p_m``, from its class sums; an empty class
    has sums of exactly 0, so dividing by tiny keeps 0."""
    masses, first, *rest = sums
    explained = first * first
    for s in rest:
        explained += s * s
    explained /= np.maximum(masses, _TINY)
    return np.add.reduce(explained, axis=-1)


def _joint(assignments: np.ndarray, k: int, space: InputSpace,
           labels: LabelMap) -> np.ndarray:
    """``P(S(X) = m, Y = y)`` for each row, shape (B, K, |Y|), or (K, |Y|)
    for one (N,) assignment."""
    (w,), codes, v = _class_layout(space, "classification", labels)
    sums, = _class_sums(assignments * v + codes, k * v, w)
    return sums.reshape(*assignments.shape[:-1], k, v)


def _supervised_terms(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sum_m P(m)^2`` and ``sum_{m,y} P(m, y)^2`` of joint tables."""
    add = np.add.reduce
    masses = add(joint, axis=-1)
    return add(masses * masses, axis=-1), add(joint * joint, axis=(-2, -1))
