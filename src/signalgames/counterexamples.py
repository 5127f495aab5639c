"""Bit-exact constructions of the two adversarial instances, with a single
verification entry point per construction.

* The mirror-pairs instance: twelve scalar inputs ``{+-1, ..., +-6}`` under
  a uniform prior, six scalar messages ``1..6``, a single-distractor game,
  and a receiver that separates the pairs ``A_k = {k, -k}`` perfectly while
  being unable to tell the two members of a pair apart. Its synchronized
  sender maps ``+-k`` to message ``k``; the pair is simple, non-degenerate
  and exactly optimal, yet explains none of the input variance and fails
  every proximity threshold.
* The antipodal split: on a uniform space with ``2K`` points, pairing each
  point with its farthest unmatched partner yields a protocol with uniform
  message masses (hence optimal for the single-distractor objective) whose
  equivalence classes deliberately merge dissimilar inputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .consistency import non_degeneracy, receiver_simplicity, \
    semantic_consistency, simplicity_constant, spatial_meaningfulness
from .core import GameSpec, InputSpace, MessageSpace, Protocol, \
    conditional_stats, message_probabilities
from .errors import BudgetExceededError
from .games import TabularDiscriminationReceiver, eval_discrimination, \
    synchronized_sender
from .objectives import binomial_log_moment, disc_objective, \
    disc_objective_simplified
from .optimize import balanced_partition, optima

__all__ = [
    "MirrorPairsInstance",
    "build_mirror_pairs_instance",
    "verify_mirror_pairs",
    "build_anticonsistent_optimal",
    "verify_antipodal_split",
]


class MirrorPairsInstance(NamedTuple):
    space: InputSpace
    message_space: MessageSpace
    receiver: TabularDiscriminationReceiver
    protocol: Protocol


def build_mirror_pairs_instance() -> MirrorPairsInstance:
    """Construct the mirror-pairs instance.

    Points are ordered ``1, -1, 2, -2, ..., 6, -6``; message ``k`` is the
    scalar ``k``. The receiver table covers every (message, ordered
    candidate pair) query: a point mass on the single candidate belonging
    to the message's pair, and the uniform coin when both or neither do
    (the neither case never occurs in play; uniform keeps rows valid).
    """
    values = np.repeat(np.arange(1.0, 7.0), 2) * np.tile([1.0, -1.0], 6)
    space = InputSpace.uniform(values[:, None])
    message_space = MessageSpace.from_vectors(
        np.arange(1.0, 7.0)[:, None])
    pair_of = np.repeat(np.arange(6), 2)
    protocol = Protocol(pair_of, 6)

    m, a, b = np.indices((6, space.size, space.size)).reshape(3, -1)
    in_a, in_b = pair_of[a] == m, pair_of[b] == m
    first = 0.5 + 0.5 * (in_a.astype(float) - in_b)
    receiver = TabularDiscriminationReceiver.from_queries(
        2, 6, m, np.column_stack([a, b]), np.column_stack([first, 1 - first]))
    return MirrorPairsInstance(space, message_space, receiver, protocol)


def verify_mirror_pairs(inst: MirrorPairsInstance | None = None) -> dict:
    """Run the ordered verification steps for the mirror-pairs instance,
    ``inst`` if given (a caller that also writes it builds it once), else
    a new :func:`build_mirror_pairs_instance`.

    Returns a report with one entry per step; ``passed`` is the overall
    conjunction and ``failed_step`` names the first failing step, if any.
    """
    if inst is None:
        inst = build_mirror_pairs_instance()
    space, message_space, receiver, sender = inst
    spec = GameSpec("discrimination", d=2)
    log2 = math.log(2.0)
    steps = []

    def step(name: str, ok: bool, **details):
        steps.append({"step": name, "ok": bool(ok), **details})

    var = space.variance()
    eps_m = message_space.epsilon_min()
    p = message_probabilities(sender, space)
    step("construction", abs(var - 91.0 / 6.0) <= 1e-12 and eps_m == 1.0
         and np.all(np.abs(p - 1.0 / 6.0) <= 1e-12),
         variance=var, eps_m=eps_m, message_masses=p.tolist())

    simp = receiver_simplicity(receiver, eps_m, space, message_space)
    step("simplicity", simp.simple
         and abs(simp.k - simplicity_constant(1.0, space)) <= 1e-12
         and abs(simp.worst_ratio - 1.0 / math.sqrt(2.0)) <= 1e-12,
         worst_ratio=simp.worst_ratio, k=simp.k)

    sync = synchronized_sender(receiver, space, spec)
    step("synchronized-sender", sync == sender,
         assignment=sync.assignment.tolist())

    loss = eval_discrimination(sender, receiver, space, d=2, mode="exact")
    step("synchronized-loss", abs(loss.expected - log2 / 6.0) <= 1e-12,
         expected_loss=loss.expected, target=log2 / 6.0)

    nd = non_degeneracy(receiver, space, spec)
    step("non-degeneracy", nd.non_degenerate
         and abs(nd.constant_loss - log2) <= 1e-12
         and abs(nd.sup_loss - log2 / 6.0) <= 1e-12,
         sup_loss=nd.sup_loss, constant_loss=nd.constant_loss)

    # uniform masses attain the convexity lower bound K * f(1/K), so the
    # sender is exactly optimal for the closed-form objective
    objective = disc_objective(sender, space, 2)
    bound = 6.0 * binomial_log_moment(1.0 / 6.0, 2)
    simplified = disc_objective_simplified(sender, space)
    step("optimality", abs(objective - bound) <= 1e-12
         and abs(simplified - 1.0 / 6.0) <= 1e-12,
         objective=objective, uniform_bound=bound, simplified=simplified)

    sem = semantic_consistency(sender, space)
    cond_means = [float(conditional_stats(sender, space, m)[0][0])
                  for m in range(6)]
    step("semantic-consistency", (not sem.consistent)
         and abs(sem.explained_variance) <= 1e-12
         and all(abs(v) <= 1e-12 for v in cond_means),
         explained=sem.explained_variance,
         unexplained=sem.unexplained_variance,
         conditional_means=cond_means)

    # the predicate quantifies over all eps <= eps0; every choice of eps0
    # must fail because the sub-unit thresholds sit exactly on equality
    every = np.arange(message_space.size)
    realized = np.unique(message_space.distances(every, every))
    verdicts = [spatial_meaningfulness(sender, space, message_space, eps0=e)
                for e in realized if e >= eps_m]
    base = verdicts[0]
    below = [t for t in base.thresholds if t.epsilon == 0.0]
    equal_below = all(abs(t.conditional - t.unconditional) <= 1e-12
                      for t in below)
    step("spatial-meaningfulness",
         equal_below and all(not v.meaningful for v in verdicts),
         eps0_values=[float(e) for e in realized if e >= eps_m],
         thresholds=[t._asdict() for t in base.thresholds])

    failed = next((s["step"] for s in steps if not s["ok"]), None)
    return {"instance": "mirror-pairs", "passed": failed is None,
            "failed_step": failed, "steps": steps}


def build_anticonsistent_optimal(space: InputSpace, k: int) -> Protocol:
    """Adversarial antipodal pairing: optimal for the single-distractor
    objective yet merging the least similar inputs.

    Requires a uniform prior over exactly ``2K`` points. Optimality is
    verified on the spot: the pairing gives every message mass ``1/K``,
    which attains the convexity lower bound of the objective.
    """
    protocol = balanced_partition(space, k, flavor="adversarial-antipodal")
    simplified = disc_objective_simplified(protocol, space)
    if abs(simplified - 1.0 / k) > 1e-12:
        raise AssertionError("antipodal pairing failed to produce uniform "
                             "message masses")
    return protocol


def verify_antipodal_split(space: InputSpace, k: int) -> dict:
    """Verdict report for the antipodal split on the given space.

    Confirms the split ties the exhaustive minimum if the partitions fit
    ``games.EXACT_TERM_BUDGET`` (else uniform masses attain the convexity
    bound) and reports its semantic-consistency verdict.
    """
    protocol = build_anticonsistent_optimal(space, k)
    simplified = disc_objective_simplified(protocol, space)
    report = {
        "instance": "antipodal-split",
        "assignment": protocol.assignment.tolist(),
        "simplified_objective": simplified,
    }
    try:
        best = optima(space, k, GameSpec("discrimination", d=2))[0]
    except BudgetExceededError:
        report["optimal"] = True  # uniform masses attain the convexity bound
    else:
        report["exhaustive_minimum"] = best
        report["optimal"] = bool(
            abs(disc_objective(protocol, space, 2) - best) <= 1e-12)
    sem = semantic_consistency(protocol, space)
    report["semantically_consistent"] = bool(sem.consistent)
    report["explained_variance"] = sem.explained_variance
    report["passed"] = bool(report["optimal"] and not sem.consistent)
    return report
