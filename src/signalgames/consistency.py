"""Decision procedures for the four protocol/receiver quality definitions.

* semantic consistency: the expected within-message variance is strictly
  below the total input variance;
* spatial meaningfulness: the same comparison holds when conditioning on
  message *proximity* at every threshold up to ``eps0``;
* receiver simplicity: the receiver's output variation is bounded by
  ``k * input variation`` with ``k = (sqrt(2) - 1) / (2 eps0) * sqrt(Var[X])``;
* non-degeneracy: the worst-case per-input loss of a synchronized sender is
  at most a quarter of the best constant receiver's expected loss.

Strict inequalities are exact float comparisons; results within 1e-12 of
equality carry a ``boundary`` flag because some constructions land exactly
on the boundary and the direction of the comparison matters there.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from . import core
from .core import GameSpec, InputSpace, MessageSpace, Protocol, \
    _block_rows, _class_sums, _pair_blocks, _sq_dists
from .games import ConstantDiscriminationReceiver, ReconstructionReceiver, \
    TabularDiscriminationReceiver, _check_terms, per_input_message_losses
from .objectives import batch_objective, reco_objective

__all__ = [
    "SemanticConsistency",
    "semantic_consistency",
    "consistent_rows",
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


def semantic_consistency(protocol: Protocol,
                         space: InputSpace) -> SemanticConsistency:
    """Strict-inequality check ``E_m Var[X|m] < Var[X]``.

    Returns the verdict together with the explained and unexplained
    variance; the two always add up to ``Var[X]``.
    """
    total = space.variance()
    unexplained = reco_objective(protocol, space)
    explained = total - unexplained
    boundary = abs(explained) <= _BOUNDARY_TOL
    return SemanticConsistency(bool(_consistent(total, unexplained)),
                               float(explained), float(unexplained),
                               bool(boundary))


def consistent_rows(assignments: np.ndarray,
                    space: InputSpace) -> np.ndarray:
    """The :func:`semantic_consistency` verdict for each row of a (B, N)
    assignment matrix, from one batched reconstruction objective."""
    unexplained = batch_objective(assignments, space,
                                  GameSpec("reconstruction"))
    return _consistent(space.variance(), unexplained)


def _consistent(total, unexplained):
    """Strictly less unexplained variance than ``Var[X]``, and not within
    the boundary tolerance of it."""
    return (unexplained < total) & (abs(total - unexplained) > _BOUNDARY_TOL)


class ThresholdCheck(NamedTuple):
    epsilon: float          # 0.0 stands for every eps below the smallest
                            # realized positive message distance
    conditional: float
    unconditional: float
    strict: bool
    boundary: bool
    vacuous: bool = False   # always: the event at 0 holds same-message pairs


class SpatialMeaningfulness(NamedTuple):
    meaningful: bool
    thresholds: tuple[ThresholdCheck, ...]


def spatial_meaningfulness(protocol: Protocol, space: InputSpace,
                           message_space: MessageSpace,
                           eps0: float | None = None
                           ) -> SpatialMeaningfulness:
    """Check the proximity-conditioned pairwise inequality at every
    threshold up to ``eps0``.

    The conditional expectation is a step function of the threshold between
    realized message distances, so it suffices to evaluate the finite set
    ``{0} + {realized pairwise distances of used messages in (0, eps0]}``
    (the pseudo-threshold 0 covers every eps below the smallest realized
    positive distance, where only same-message pairs are merged). Each
    conditional is an exact weighted double sum over input pairs, with
    i.i.d. pairs, so self-pairs are included. ``eps_M`` is computed only
    when ``eps0`` is None or no realized positive distance is within
    ``eps0``; otherwise that distance bounds ``eps_M <= eps0`` already.
    With one message and a given ``eps0`` it is never computed: the only
    threshold, 0, merges every pair, so the check is not strict.
    """
    if eps0 is not None and eps0 <= 0.0:
        raise ValueError("eps0 must be positive")
    used = protocol.used_messages()
    # about eight U x U arrays over the U used messages
    _check_terms(used.size ** 2, "spatial meaningfulness", "message pairs")
    dist = message_space.distances(used, used).ravel()
    if eps0 is None or (message_space.size > 1 and not np.any(
            (dist > 0.0) & (dist <= eps0))):
        eps_m = message_space.epsilon_min()
        if eps0 is None:
            eps0 = eps_m
        elif eps0 < eps_m:
            # the plain form of the definition asks for eps0 >= eps_M;
            # below that only same-message pairs ever merge, which is
            # still a well-defined (weaker) check
            warnings.warn(f"eps0 = {eps0} is below eps_M = {eps_m}; only "
                          "same-message pairs are conditioned on")

    w, pts = space.weights, space.points
    # per-class mass, second moment and first moment, unnormalized
    p, sq, *first = (s[used] for s in _class_sums(
        protocol.assignment, protocol.num_messages, w,
        w * np.einsum("ij,ij->i", pts, pts), *(w * pts.T)))
    first = np.stack(first, axis=1)
    # p_a p_b E ||x1 - x2||^2 over independent draws from classes a and b
    pair = p[None, :] * sq[:, None] + p[:, None] * sq[None, :] \
        - 2.0 * first @ first.T
    unconditional = 2.0 * space.variance()

    # one pass in order of message distance: the event d <= eps is a prefix
    order = np.argsort(dist, kind="stable")
    dist = dist[order]
    cum_mass = np.cumsum(np.multiply.outer(p, p).ravel()[order])
    cum_pair = np.cumsum(pair.ravel()[order])
    realized = np.unique(dist[dist > 0.0])
    thresholds = [0.0] + [float(e) for e in realized if e <= eps0]
    ends = np.searchsorted(dist, thresholds, side="right")

    checks = []
    for eps, end in zip(thresholds, ends):
        conditional = float(cum_pair[end - 1] / cum_mass[end - 1])
        boundary = abs(conditional - unconditional) <= _BOUNDARY_TOL
        strict = conditional < unconditional and not boundary
        checks.append(ThresholdCheck(eps, conditional, float(unconditional),
                                     bool(strict), bool(boundary)))
    return SpatialMeaningfulness(all(t.strict for t in checks), tuple(checks))


# ---------------------------------------------------------------------------
# Receiver simplicity
# ---------------------------------------------------------------------------

def simplicity_constant(eps0: float, space: InputSpace) -> float:
    """``k = (sqrt(2) - 1) / (2 eps0) * sqrt(Var[X])``."""
    if eps0 <= 0.0:
        raise ValueError("eps0 must be positive")
    return (math.sqrt(2.0) - 1.0) / (2.0 * eps0) * math.sqrt(space.variance())


class SimplicityCheck(NamedTuple):
    simple: bool
    worst_ratio: float
    k: float
    output_mode: str
    diagnostic: str | None


def receiver_simplicity(receiver, eps0: float | None, space: InputSpace,
                        message_space: MessageSpace,
                        output_mode: str = "canonical") -> SimplicityCheck:
    """Lipschitz-style check ``||R(a) - R(b)|| <= k ||a - b||`` over all
    pairs of the receiver's finite domain (``eps0=None`` takes ``eps_M``).

    Domain distances compose the message metric with the Euclidean distance
    of the candidate vectors (reconstruction receivers have message-only
    domains). For discrimination receivers the outputs are distributions
    over exchangeable candidate positions, so by default they are compared
    in canonical (sorted) form, invariant to position relabeling;
    ``output_mode="positional"`` compares raw vectors instead. Domain
    entries with identical embeddings but different outputs fail
    automatically with a diagnostic. A NaN output gives a NaN
    ``worst_ratio``, which is not simple. A domain of more than
    ``EXACT_TERM_BUDGET`` unordered pairs raises ``BudgetExceededError``
    before any pair is formed or ``eps_M`` is computed.
    """
    if isinstance(receiver, ReconstructionReceiver):
        output_mode = "points"
        msgs = np.flatnonzero(receiver.defined)
        emb = np.empty((len(msgs), 0))
        outs = receiver.points[msgs]
    elif isinstance(receiver, TabularDiscriminationReceiver):
        msgs = receiver.messages
        emb = space.points[receiver.candidates].reshape(
            len(msgs), receiver.num_candidates * space.dim)
        outs = receiver.rows
        if output_mode == "canonical":
            outs = np.sort(outs, axis=1)[:, ::-1]
        elif output_mode != "positional":
            raise ValueError(f"unknown output mode {output_mode!r}")
    else:
        raise TypeError("simplicity is checked on finite receiver tables "
                        "(reconstruction or tabular discrimination)")

    _check_terms(len(msgs) * (len(msgs) - 1) // 2, "receiver simplicity",
                 "domain pairs")
    k = simplicity_constant(message_space.epsilon_min() if eps0 is None
                            else eps0, space)
    worst = _worst_ratio(msgs, message_space, emb, outs)
    if worst is None:
        return SimplicityCheck(False, math.inf, k, output_mode,
                               "duplicate domain embeddings with different "
                               "outputs")
    return SimplicityCheck(worst <= k, worst, k, output_mode, None)


def _worst_ratio(msgs: np.ndarray, message_space: MessageSpace,
                 emb: np.ndarray, outs: np.ndarray) -> float | None:
    """The largest ``||outs[a] - outs[b]|| / ||a - b||`` over the unordered
    pairs ``a < b`` of domain rows, or None if some pair lies at domain
    distance zero with different outputs. Pairs at distance zero with equal
    outputs count as 0; a NaN output makes the result NaN.

    The squared domain distance of a pair is the squared distance of its
    ``emb`` rows plus the squared message distance of its ``msgs``. The
    rows are sorted by message, then by the widest ``emb`` coordinate, and
    each message's rows are cut into cells. A run is one cell, or
    consecutive cells (one-row messages, say) that fit together in
    ``isqrt(_PAIR_BLOCK) // 2`` rows, so a few runs' pairs fill one block;
    a cell holds a third of that. Every pair inside a run is scored first,
    which gives a running worst ratio. Each run then meets only the later
    cells that ``_kept_cells`` keeps. A NaN or infinite bound keeps its
    cell, so every NaN output and every pair at distance zero is formed.
    Blocks hold about ``_PAIR_BLOCK`` elements and the bound one row a
    cell, so memory does not grow with the number of pairs. Equal rows
    are at distance exactly zero.
    """
    n = len(msgs)
    if n < 2:
        return 0.0
    keys = (msgs,)
    if emb.shape[1]:
        with np.errstate(over="ignore"):  # a width past float64 is inf
            keys = (emb[:, np.ptp(emb, axis=0).argmax()], msgs)
    order = np.lexsort(keys)
    msgs, emb, outs = msgs[order], emb[order], outs[order]
    first = np.r_[True, msgs[1:] != msgs[:-1]]
    group, groups = np.cumsum(first) - 1, msgs[first]  # message groups
    cap = max(1, math.isqrt(core._PAIR_BLOCK) // 2)  # rows of a run
    # each row's place in its message; a cell starts every cap // 3 rows
    place = np.arange(n) - np.flatnonzero(first)[group]
    first = place % max(1, cap // 3) == 0
    cell = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    ends, of_cell = np.r_[starts[1:], n], group[starts]
    boxes = [f.reduceat(x, starts) for x in (outs, emb)
             for f in (np.minimum, np.maximum)]
    runs, c = [], 0
    while c < len(starts):  # one step per run, not per cell
        end = max(c + 1, int(np.searchsorted(ends, starts[c] + cap, "right")))
        runs.append((c, end))
        c = end

    def rows(lo, hi):
        return msgs[lo:hi], emb[lo:hi], outs[lo:hi]

    best = 0.0
    for c, end in runs:
        lo, hi = starts[c], ends[end - 1]
        for a, b, below in _pair_blocks(hi - lo):
            top = _block_top(message_space, rows(lo + a, lo + b),
                             rows(lo + a, hi), below)
            if top is None:
                return None
            best = np.maximum(best, top)
    for c, end in runs:
        kept = _kept_cells(message_space, groups, of_cell, boxes, c, end,
                           best)
        cols = np.flatnonzero(kept[cell])
        if not len(cols):
            continue
        step = _block_rows(len(cols))
        cols = msgs[cols], emb[cols], outs[cols]
        lo, hi = starts[c], ends[end - 1]
        for a in range(lo, hi, step):
            top = _block_top(message_space, rows(a, min(hi, a + step)), cols)
            if top is None:
                return None
            best = np.maximum(best, top)
    return float(best)


# relative allowance below the running worst ratio that a cell's bound
# must clear before its pairs are dropped
_BOUND_SLACK = 1e-12


def _kept_cells(message_space: MessageSpace, groups: np.ndarray,
                of_cell: np.ndarray, boxes: list, c: int, end: int,
                best: float) -> np.ndarray:
    """Which cells, all after ``end``, have pairs with cells ``[c, end)``
    that may reach the ratio ``best``. ``groups`` holds the messages in
    order and ``of_cell`` each cell's place in it; ``boxes`` holds each
    cell's lowest and highest output, then its lowest and highest
    embedding, per coordinate. A pair's output distance is at most the
    farthest reach between the two output boxes, and its domain distance
    at least the gap between the embedding boxes joined with the smallest
    message distance between the cells. Both are summed one coordinate at
    a time in the pair's own order, each step a monotone rounding of the
    pair's, so no dropped pair has a larger computed ratio. The message
    distances are formed between the messages, not the cells, in blocks;
    the rest holds one row a cell."""
    kept = np.zeros(len(of_cell), dtype=bool)
    if end == len(of_cell):
        return kept
    ours = groups[of_cell[c]:of_cell[end - 1] + 1]
    theirs = groups[of_cell[end]:]
    step, gap = _block_rows(len(ours)), np.empty(len(theirs))
    for lo in range(0, len(theirs), step):
        gap[lo:lo + step] = message_space.distances(
            ours, theirs[lo:lo + step]).min(axis=0)
    gap = gap[of_cell[end:] - of_cell[end]]
    (out_lo, out_hi), (emb_lo, emb_hi) = (
        (low[c:end].min(axis=0), high[c:end].max(axis=0))
        for low, high in (boxes[:2], boxes[2:]))
    lows, highs, emb_lows, emb_highs = (b[end:] for b in boxes)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        reach = _sq_sum(np.maximum(out_hi - lows, highs - out_lo))
        dom = _sq_sum(np.maximum(np.maximum(emb_lows - emb_hi,
                                            emb_lo - emb_highs), 0.0))
        dom += np.square(gap)
        bound = np.sqrt(reach) / np.sqrt(dom)
        kept[end:] = ~(bound * (1.0 + _BOUND_SLACK) < best)
    return kept


def _sq_sum(span: np.ndarray) -> np.ndarray:
    """The squares of each row of ``span`` summed one column at a time,
    the first square starting the sum, as ``core._sq_dists`` sums them;
    zeros for no columns."""
    if not span.shape[1]:
        return np.zeros(len(span))
    total = np.square(span[:, 0])
    for col in span.T[1:]:
        total += np.square(col)
    return total


def _block_top(message_space: MessageSpace, rows: tuple, cols: tuple,
               below: np.ndarray | None = None) -> float | None:
    """The largest ratio between the pairs of ``rows`` and ``cols``, each a
    (messages, embeddings, outputs) triple, or None for a pair at domain
    distance zero with different outputs. ``below`` gives ratio 0 to the
    entries on and below the diagonal of the first columns."""
    dom, out = (_sq_dists(x, y) for x, y in zip(rows[1:], cols[1:]))
    gap = message_space.distances(rows[0], cols[0])
    with np.errstate(over="ignore"):  # a distance past float64 is inf
        dom += np.square(gap, out=gap)
    if below is not None:
        out[:, :len(below)][below] = 0.0
        dom[:, :len(below)][below] = 1.0
    np.sqrt(dom, out=dom)
    np.sqrt(out, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(out, dom, out=out)
    top = ratio.max()
    if not math.isfinite(top):
        # a zero distance gives inf for different outputs and NaN for
        # equal ones, which count as 0; a NaN output at a positive
        # distance stays NaN
        if np.any(np.isinf(ratio) & (dom == 0.0)):
            return None
        ratio[~(dom > 0.0)] = 0.0
        top = ratio.max()
    return top


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


def non_degeneracy(receiver, space: InputSpace,
                   spec: GameSpec) -> NonDegeneracy:
    """``sup_x loss(synchronized sender, receiver, x) <= 1/4 * constant loss``.

    The per-input achieved loss is the minimum over message choices, which
    is invariant to argmin tie-breaking, so one canonical synchronized
    sender represents them all.
    """
    _, constant_loss = optimal_constant_receiver(space, spec)
    losses = per_input_message_losses(receiver, space, spec)
    sup = float(losses.min(axis=1).max())
    return NonDegeneracy(sup <= 0.25 * constant_loss, sup, constant_loss)
