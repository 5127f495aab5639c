"""Protocol analysis metrics: message variance, random baselines, purity,
topographic similarity, disentanglement scores, cluster variance and
discrimination accuracy.

Message variance follows the empirical recipe exactly: classes are formed
from the dataset, pairwise squared distances are summed over ordered pairs
including self-pairs, each class sum is divided by its cardinality, and the
total by ``2N``. Under that ordered-pair convention the metric coincides
with the unexplained-variance objective on uniform-weight spaces. The
random baseline shuffles the input-to-message assignment while preserving
class cardinalities.

Disentanglement scores are mutual-information gaps normalized per unit
(position, vocabulary symbol, or attribute) and averaged over units; units
with zero entropy contribute 0 (the 0/0 convention). All information
quantities are plug-in values from exact joint weight tables, in nats; the
scores themselves are ratios and therefore base-free.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np

from .core import InputSpace, LabelMap, MessageSpace, Protocol, \
    _class_sums, _pair_blocks, _sq_dists, message_probabilities
from .errors import MetricUndefinedError
from .games import GameSpec, _check_terms, substream, synchronized_receiver
from .objectives import entropy, joint_message_label, mutual_information

__all__ = [
    "unique_messages",
    "message_variance",
    "random_baseline",
    "purity",
    "max_purity",
    "topsim",
    "disentanglement",
    "cluster_variance",
    "discrimination_accuracy",
]

def unique_messages(protocol: Protocol) -> int:
    return int(protocol.used_messages().size)


def message_variance(protocol: Protocol, space: InputSpace) -> float:
    """Class-normalized pairwise spread ``(1/2N) sum_m (1/|[m]|)
    sum_{x1,x2 in [m]} ||x1 - x2||^2`` over ordered pairs with self-pairs.

    Counts inputs as dataset rows (the empirical measure); on uniform-weight
    spaces the value equals the unexplained-variance objective exactly.
    """
    pts = space.points
    # per class: the count n_m, sum ||x||^2 and sum x; the pair sum over
    # the class is 2 (n_m sum ||x||^2 - ||sum x||^2)
    counts, sq, *first = _class_sums(
        protocol.assignment, protocol.num_messages,
        np.ones(space.size), np.einsum("ij,ij->i", pts, pts), *pts.T)
    spread = sum(f * f for f in first)
    np.divide(spread, counts, out=spread, where=counts > 0)
    return float((sq - spread).sum() / space.size)


def random_baseline(protocol: Protocol, space: InputSpace,
                    metric: Callable[[Protocol, InputSpace], float],
                    repeats: int = 100, seed: int = 0) -> tuple[float, float]:
    """Mean and population std of a metric over ``repeats`` seeded
    class-size-preserving shuffles of the assignment.

    Non-uniform weights trigger a warning: a shuffle preserves class
    cardinalities, not class masses.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not space.is_uniform():
        warnings.warn("random baseline preserves class cardinalities; with "
                      "non-uniform weights the class masses change under "
                      "shuffling")
    rng = substream(seed, "baseline")
    values = np.array([metric(Protocol(
        protocol.assignment[rng.permutation(space.size)],
        protocol.num_messages), space) for _ in range(repeats)], dtype=float)
    return float(values.mean()), float(values.std(ddof=0))


def purity(protocol: Protocol, space: InputSpace, labels: LabelMap) -> float:
    """Mass-weighted average over messages of the majority-label fraction."""
    joint = joint_message_label(protocol, space, labels)
    return float(joint.max(axis=1).sum())


def max_purity(protocol: Protocol, space: InputSpace,
               attributes: Sequence[LabelMap]) -> float:
    """Per-message maximum purity over the attributes, averaged by mass."""
    if not attributes:
        raise ValueError("max purity needs at least one attribute")
    per_attr = np.stack([
        joint_message_label(protocol, space, lab).max(axis=1)
        for lab in attributes
    ])
    return float(per_attr.max(axis=0).sum())


def topsim(protocol: Protocol, space: InputSpace,
           message_space: MessageSpace) -> float:
    """Spearman correlation between input-pair distances (Euclidean) and
    message-pair distances, over all unordered input pairs.

    Ties get average ranks. A constant distance vector on either side makes
    the correlation undefined and raises. More than ``EXACT_TERM_BUDGET``
    input pairs raise ``BudgetExceededError`` before anything is allocated.

    The input distances are formed in the blocks of ``core._pair_blocks``
    and ranked by one sort. A message distance depends only on the pair of
    used messages, so its average rank comes from the count of input pairs
    behind each distinct distance of the U x U table.
    """
    n = space.size
    if n < 2:
        raise MetricUndefinedError("topsim needs at least two inputs")
    pairs = n * (n - 1) // 2
    _check_terms(pairs, "topsim", "input pairs")
    used, inv = np.unique(protocol.assignment, return_inverse=True)
    # cls: the index of each message pair's distance among the distinct ones
    _, cls = np.unique(message_space.distances(used, used),
                       return_inverse=True)
    cls = cls.reshape(used.size, used.size)
    # input pairs per message pair: n_a n_b off the diagonal (a < b) and
    # n_a (n_a - 1) / 2 on it
    sizes = np.bincount(inv)
    per_pair = np.triu(np.outer(sizes, sizes), 1)
    per_pair[np.diag_indices(used.size)] = sizes * (sizes - 1) // 2
    counts = np.bincount(cls.ravel(), per_pair.ravel()).astype(np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    msg_rank = ((starts + ends + 1) / 2)[cls]

    # row 0: input distances, then their ranks; row 1: message ranks, both
    # in the row-major order of the pairs i < j
    ranks = np.empty((2, pairs))
    at = 0
    for lo, hi, below in _pair_blocks(n):
        upper = np.ones((hi - lo, n - lo), dtype=bool)
        upper[:, :hi - lo] = ~below
        stop = at + int(np.count_nonzero(upper))
        ranks[0, at:stop] = _sq_dists(space.points[lo:hi],
                                      space.points[lo:])[upper]
        ranks[1, at:stop] = msg_rank[np.ix_(inv[lo:hi], inv[lo:])][upper]
        at = stop
    np.sqrt(ranks[0], out=ranks[0])
    ranks[0] = _average_ranks(ranks[0])
    # the largest input rank is (P + 1) / 2 only when every input pair ties
    # (all-infinite distances count as equal); on the message side every
    # pair falls in one distance class
    if ranks[0].max() == (pairs + 1) / 2 or counts.max() == pairs:
        raise MetricUndefinedError("topsim undefined (zero variance)")
    return float(np.corrcoef(ranks)[1, 0])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, each run of ties given the mean of its
    positions. The means are half-integers whatever order the sort leaves
    ties in, so the default (unstable) sort serves."""
    order = np.argsort(x)
    xs = x[order]
    distinct = xs[1:] != xs[:-1]
    ranks = np.empty(x.size)
    if distinct.all():
        ranks[order] = np.arange(1.0, x.size + 1)
        return ranks
    starts = np.flatnonzero(np.r_[True, distinct])
    ends = np.r_[starts[1:], x.size]
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


# ---------------------------------------------------------------------------
# Disentanglement
# ---------------------------------------------------------------------------

def _weighted_joint(codes_a: np.ndarray, codes_b: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    rows, cols = codes_a.max() + 1, codes_b.max() + 1
    joint, = _class_sums(codes_a * cols + codes_b, rows * cols,
                         weights)
    return joint.reshape(rows, cols)


def _mean_mi_gap(units, others, w: np.ndarray,
                 units_are_messages: bool) -> float:
    """Mean over ``units`` of the gap between the unit's two largest MIs
    with ``others``, over its entropy (0 without entropy). The bits of
    ``mutual_information`` depend on orientation: messages are the rows."""
    terms = []
    for u in units:
        h_u = entropy(_weighted_joint(u, np.zeros_like(u), w).sum(axis=1))
        if h_u <= 0.0:
            terms.append(0.0)
            continue
        mis = sorted((mutual_information(
            _weighted_joint(u, v, w) if units_are_messages
            else _weighted_joint(v, u, w)) for v in others), reverse=True)
        terms.append((mis[0] - mis[1]) / h_u)
    return float(np.mean(terms))


def disentanglement(protocol: Protocol, space: InputSpace,
                    message_space: MessageSpace,
                    attributes: Sequence[LabelMap],
                    kind: str = "posdis") -> float:
    """Mutual-information-gap scores over message units.

    ``posdis`` treats each message position as a unit, ``bosdis`` each
    vocabulary symbol's occurrence count, and the gap (difference between
    the two largest MI values against the attributes) is normalized by the
    unit's entropy. ``sposdis`` flips the roles: the gap is taken per
    attribute over the positions and normalized by the attribute's entropy.
    Scores are means over units and lie in [0, 1].
    """
    if message_space.kind != "hamming":
        raise ValueError("disentanglement needs a symbol-sequence message "
                         "space")
    seqs = np.asarray([message_space.atoms[m] for m in protocol.assignment],
                      dtype=int)
    attr_codes = [lab.codes() for lab in attributes]
    positions = [seqs[:, j] for j in range(message_space.length)]
    w = space.weights

    if kind in ("posdis", "bosdis"):
        if len(attributes) < 2:
            raise ValueError(f"{kind} needs at least two attributes "
                             "(the MI gap is taken over attributes)")
        units = positions if kind == "posdis" else [
            (seqs == v).sum(axis=1) for v in range(message_space.vocab_size)]
        return _mean_mi_gap(units, attr_codes, w, True)

    if kind == "sposdis":
        if message_space.length < 2:
            raise ValueError("sposdis needs at least two message positions "
                             "(the MI gap is taken over positions)")
        if not attributes:
            raise ValueError("sposdis needs at least one attribute")
        return _mean_mi_gap(attr_codes, positions, w, False)
    raise ValueError(f"unknown disentanglement kind {kind!r}")


# ---------------------------------------------------------------------------
# Cluster variance (symbol-group-restricted message spaces)
# ---------------------------------------------------------------------------

def cluster_variance(protocol: Protocol, space: InputSpace,
                     message_space: MessageSpace,
                     symbol_groups: Sequence[Sequence[int]]) -> float:
    """Message variance after merging messages whose symbols share a group.

    ``symbol_groups`` must partition the vocabulary, and every used message
    must draw all its symbols from a single group (mirroring generation
    that masks out all other symbols); offending messages are rejected.
    """
    if message_space.kind != "hamming":
        raise ValueError("cluster variance needs a symbol-sequence message "
                         "space")
    groups = [frozenset(int(s) for s in g) for g in symbol_groups]
    seen: set[int] = set()
    for g in groups:
        if g & seen:
            raise ValueError("symbol groups must be disjoint")
        seen |= g
    if seen != set(range(message_space.vocab_size)):
        raise ValueError("symbol groups must cover the whole vocabulary")
    group_of_symbol = {s: gi for gi, g in enumerate(groups) for s in g}

    merged = np.zeros(space.size, dtype=int)
    for i, m in enumerate(protocol.assignment):
        gids = {group_of_symbol[s] for s in message_space.atoms[m]}
        if len(gids) != 1:
            raise ValueError(
                f"message {message_space.atom_string(int(m))!r} mixes "
                "symbols from different groups")
        merged[i] = gids.pop()
    return message_variance(Protocol(merged, len(groups)), space)


# ---------------------------------------------------------------------------
# Discrimination accuracy
# ---------------------------------------------------------------------------

def discrimination_accuracy(protocol: Protocol, space: InputSpace,
                            receiver_kind: str = "synchronized",
                            d: int = 41,
                            distractors: str = "replacement") -> float:
    """Probability of picking the target's position among ``d`` candidates.

    Distractors are i.i.d. draws from the prior; with the default
    ``replacement`` law a distractor may duplicate the target (matching the
    game definition), while ``exclude-target`` renormalizes the prior over
    the other inputs. ``synchronized`` picks the argmax of the synchronized
    discrimination receiver, ``reconstruction-nearest`` the candidate
    closest to the conditional-mean reconstruction (a candidate within
    ``1e-12`` of the target's distance ties, one below that beats it); ties
    break uniformly at random. With ``c_i`` the distractor mass scoring
    worse than target ``i`` and ``r_i`` that plus the tie mass, the target
    wins with probability ``(1/d) sum_{j<d} r_i^(d-1-j) c_i^j``, exactly.
    """
    if receiver_kind not in ("synchronized", "reconstruction-nearest"):
        raise ValueError(f"unknown receiver kind {receiver_kind!r}")
    if distractors not in ("replacement", "exclude-target"):
        raise ValueError(f"unknown distractor law {distractors!r}")
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    msgs, w = protocol.assignment, space.weights
    if receiver_kind == "synchronized":
        tie = message_probabilities(protocol, space)[msgs]
        worse = 1.0 - tie
    else:
        recon = synchronized_receiver(protocol, space,
                                      GameSpec("reconstruction"))
        tie, worse = np.empty(space.size), np.empty(space.size)
        for m in protocol.used_messages():
            dist = np.linalg.norm(space.points - recon.points[m], axis=1)
            order = np.argsort(dist)
            ranked = dist[order]
            below = np.concatenate(([0.0], np.cumsum(w[order])))
            own = np.flatnonzero(msgs == m)
            lo = np.searchsorted(ranked, dist[own] - 1e-12, side="left")
            hi = np.searchsorted(ranked, dist[own] + 1e-12, side="right")
            tie[own], worse[own] = below[hi] - below[lo], below[-1] - below[hi]
    if distractors == "exclude-target":
        if space.size < 2:
            raise ValueError("exclude-target needs at least two inputs")
        tie, worse = (tie - w) / (1.0 - w), worse / (1.0 - w)
    reach = worse + tie
    total, power = np.ones(space.size), np.ones(space.size)
    for _ in range(d - 1):  # Horner: sum_j reach^(d-1-j) worse^j
        power *= worse
        total = total * reach + power
    return float(w @ total / d)
