"""Decision procedures for the four protocol/receiver quality definitions.

* semantic consistency: the expected within-message variance is strictly
  below the total input variance;
* spatial meaningfulness: the same comparison holds when conditioning on
  message *proximity* at every threshold up to ``eps0``;
* receiver simplicity: the receiver's output variation is bounded by
  ``k * input variation`` with ``k = (sqrt(2) - 1) / (2 eps0) * sqrt(Var[X])``;
* non-degeneracy: the worst-case per-input loss of a synchronized sender is
  at most a quarter of the best constant receiver's expected loss.

Strict inequalities are evaluated with a configurable margin (default 0,
i.e. exact float comparison); results within 1e-12 of equality carry a
``boundary`` flag because some constructions land exactly on the boundary
and the direction of the comparison matters there.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .core import GameSpec, InputSpace, MessageSpace, Protocol, _class_sums
from .games import ConstantDiscriminationReceiver, EXACT_TERM_BUDGET, \
    ReconstructionReceiver, TabularDiscriminationReceiver, \
    per_input_message_losses

__all__ = [
    "SemanticConsistency",
    "semantic_consistency",
    "ThresholdCheck",
    "SpatialMeaningfulness",
    "spatial_meaningfulness",
    "SimplicityCheck",
    "receiver_simplicity",
    "simplicity_constant",
    "NonDegeneracy",
    "non_degeneracy",
    "optimal_constant_receiver",
]

_BOUNDARY_TOL = 1e-12


class SemanticConsistency(NamedTuple):
    consistent: bool
    explained_variance: float
    unexplained_variance: float
    boundary: bool


def semantic_consistency(protocol: Protocol, space: InputSpace,
                         margin: float = 0.0) -> SemanticConsistency:
    """Strict-inequality check ``E_m Var[X|m] < Var[X]``.

    Returns the verdict together with the explained and unexplained
    variance; the two always add up to ``Var[X]``.
    """
    from .objectives import reco_objective
    total = space.variance()
    unexplained = reco_objective(protocol, space)
    explained = total - unexplained
    boundary = abs(explained) <= _BOUNDARY_TOL
    consistent = (unexplained < total - margin) and not boundary
    return SemanticConsistency(bool(consistent), float(explained),
                               float(unexplained), bool(boundary))


class ThresholdCheck(NamedTuple):
    epsilon: float          # 0.0 stands for every eps below the smallest
                            # realized positive message distance
    conditional: float
    unconditional: float
    strict: bool
    boundary: bool
    vacuous: bool


class SpatialMeaningfulness(NamedTuple):
    meaningful: bool
    thresholds: tuple[ThresholdCheck, ...]


def spatial_meaningfulness(protocol: Protocol, space: InputSpace,
                           message_space: MessageSpace,
                           eps0: float | None = None,
                           margin: float = 0.0) -> SpatialMeaningfulness:
    """Check the proximity-conditioned pairwise inequality at every
    threshold up to ``eps0``.

    The conditional expectation is a step function of the threshold between
    realized message distances, so it suffices to evaluate the finite set
    ``{0} + {realized pairwise distances of used messages in (0, eps0]}``
    (the pseudo-threshold 0 covers every eps below the smallest realized
    positive distance, where only same-message pairs are merged). Each
    conditional is an exact weighted double sum over input pairs, with
    i.i.d. pairs, so self-pairs are included. Thresholds whose conditioning
    event carries no mass are reported as vacuous and skipped with a
    warning.
    """
    eps_m = message_space.epsilon_min()
    if eps0 is None:
        eps0 = eps_m
    if eps0 <= 0.0:
        raise ValueError("eps0 must be positive")
    if eps0 < eps_m:
        # the plain form of the definition asks for eps0 >= eps_M; below
        # that only same-message pairs ever merge, which is still a
        # well-defined (weaker) check
        warnings.warn(f"eps0 = {eps0} is below eps_M = {eps_m}; only "
                      "same-message pairs are conditioned on")

    used = protocol.used_messages()
    w, pts = space.weights, space.points
    # per-class mass, second moment and first moment, unnormalized
    p, sq, *first = (s[0, used] for s in _class_sums(
        protocol.assignment[None], protocol.num_messages, w,
        w * np.einsum("ij,ij->i", pts, pts), *(w * pts.T)))
    first = np.stack(first, axis=1)
    # p_a p_b E ||x1 - x2||^2 over independent draws from classes a and b
    pair = p[None, :] * sq[:, None] + p[:, None] * sq[None, :] \
        - 2.0 * first @ first.T
    dist = message_space.distance_matrix()[np.ix_(used, used)]
    unconditional = 2.0 * space.variance()

    realized = np.unique(dist[dist > 0.0])
    thresholds = [0.0] + [float(e) for e in realized if e <= eps0]

    checks = []
    ok = True
    for eps in thresholds:
        event = dist <= eps
        mass = float((p[:, None] * p[None, :])[event].sum())
        if mass <= 0.0:
            warnings.warn(f"threshold {eps}: conditioning event is empty; "
                          "skipped as vacuous")
            checks.append(ThresholdCheck(eps, math.nan, unconditional,
                                         strict=False, boundary=False,
                                         vacuous=True))
            continue
        conditional = float(pair[event].sum() / mass)
        boundary = abs(conditional - unconditional) <= _BOUNDARY_TOL
        strict = (conditional < unconditional - margin) and not boundary
        ok = ok and strict
        checks.append(ThresholdCheck(eps, conditional, float(unconditional),
                                     bool(strict), bool(boundary),
                                     vacuous=False))
    return SpatialMeaningfulness(ok, tuple(checks))


# ---------------------------------------------------------------------------
# Receiver simplicity
# ---------------------------------------------------------------------------

def simplicity_constant(eps0: float, space: InputSpace) -> float:
    """``k = (sqrt(2) - 1) / (2 eps0) * sqrt(Var[X])``."""
    return (math.sqrt(2.0) - 1.0) / (2.0 * eps0) * math.sqrt(space.variance())


class SimplicityCheck(NamedTuple):
    simple: bool
    worst_ratio: float
    k: float
    output_mode: str
    diagnostic: str | None


def receiver_simplicity(receiver, eps0: float, space: InputSpace,
                        message_space: MessageSpace,
                        output_mode: str = "canonical") -> SimplicityCheck:
    """Lipschitz-style check ``||R(a) - R(b)|| <= k ||a - b||`` over all
    pairs of the receiver's finite domain.

    Domain distances compose the message metric with the Euclidean distance
    of the candidate vectors (reconstruction receivers have message-only
    domains). For discrimination receivers the outputs are distributions
    over exchangeable candidate positions, so by default they are compared
    in canonical (sorted) form, invariant to position relabeling;
    ``output_mode="positional"`` compares raw vectors instead. Domain
    entries with identical embeddings but different outputs fail
    automatically with a diagnostic.
    """
    k = simplicity_constant(eps0, space)
    if isinstance(receiver, ReconstructionReceiver):
        output_mode = "points"
        idx = np.flatnonzero(receiver.defined)
        dom = message_space.distance_matrix()[np.ix_(idx, idx)]
        outs = receiver.points[idx]
    elif isinstance(receiver, TabularDiscriminationReceiver):
        keys = list(receiver.table.keys())
        msgs = np.array([m for m, _ in keys], dtype=int)
        cands = np.array([c for _, c in keys], dtype=int)
        flat = space.points[cands].reshape(len(keys), -1)
        diff = flat[:, None, :] - flat[None, :, :]
        cand_sq = np.einsum("abk,abk->ab", diff, diff)
        msg_d = message_space.distance_matrix()[np.ix_(msgs, msgs)]
        dom = np.sqrt(msg_d ** 2 + cand_sq)
        outs = receiver.rows
        if output_mode == "canonical":
            outs = np.sort(outs, axis=1)[:, ::-1]
        elif output_mode != "positional":
            raise ValueError(f"unknown output mode {output_mode!r}")
    else:
        raise TypeError("simplicity is checked on finite receiver tables "
                        "(reconstruction or tabular discrimination)")

    out_diff = outs[:, None, :] - outs[None, :, :]
    out_d = np.sqrt(np.einsum("abk,abk->ab", out_diff, out_diff))
    upper = np.triu_indices(dom.shape[0], k=1)
    dom_u, out_u = dom[upper], out_d[upper]

    degenerate = (dom_u <= 0.0) & (out_u > 0.0)
    if np.any(degenerate):
        return SimplicityCheck(False, math.inf, k, output_mode,
                               "duplicate domain embeddings with different "
                               "outputs")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dom_u > 0.0, out_u / dom_u, 0.0)
    worst = float(ratios.max()) if ratios.size else 0.0
    return SimplicityCheck(worst <= k, worst, k, output_mode, None)


# ---------------------------------------------------------------------------
# Non-degeneracy
# ---------------------------------------------------------------------------

class NonDegeneracy(NamedTuple):
    non_degenerate: bool
    sup_loss: float
    constant_loss: float


def optimal_constant_receiver(space: InputSpace, spec: GameSpec):
    """Best constant receiver and its expected loss.

    reconstruction: the mean point, with loss ``Var[X]``; discrimination:
    the uniform d-vector, with loss ``log d``.
    """
    if spec.kind == "reconstruction":
        mean = space.mean()
        return ReconstructionReceiver(mean[None, :]), space.variance()
    if spec.kind == "discrimination":
        vec = np.full(spec.d, 1.0 / spec.d)
        return ConstantDiscriminationReceiver(vec), math.log(spec.d)
    raise ValueError(f"no constant-receiver closed form for game "
                     f"{spec.kind!r}")


def non_degeneracy(receiver, space: InputSpace, spec: GameSpec,
                   budget: int = EXACT_TERM_BUDGET) -> NonDegeneracy:
    """``sup_x loss(synchronized sender, receiver, x) <= 1/4 * constant loss``.

    The per-input achieved loss is the minimum over message choices, which
    is invariant to argmin tie-breaking, so one canonical synchronized
    sender represents them all.
    """
    _, constant_loss = optimal_constant_receiver(space, spec)
    losses = per_input_message_losses(receiver, space, spec, budget=budget)
    sup = float(losses.min(axis=1).max())
    return NonDegeneracy(sup <= 0.25 * constant_loss, sup, constant_loss)
