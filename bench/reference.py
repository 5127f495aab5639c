"""Independent reference values for the benchmark's correctness checks.

Nothing here imports ``signalgames``: every value is derived from the
definitions with numpy and the standard library, so a fault in the package
cannot make its own check pass. All logarithms are natural.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


# ---------------------------------------------------------------------------
# Elementary tables
# ---------------------------------------------------------------------------

def masses(assignment, weights, k: int) -> np.ndarray:
    """``p_m``: prior mass of each message."""
    return np.bincount(assignment, weights=weights, minlength=k)


def joint(assignment, codes, weights, k: int, v: int) -> np.ndarray:
    """``P(S = m, Y = y)`` as a (k, v) table."""
    return np.bincount(np.asarray(assignment) * v + np.asarray(codes),
                       weights=weights, minlength=k * v).reshape(k, v)


def entropy(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# Closed forms of the synchronized pair, one per game
# ---------------------------------------------------------------------------

def binomial_moments(p, d: int, power: int = 1) -> np.ndarray:
    """``E log(1 + B)^power`` for ``B ~ Binomial(d - 1, p)``, elementwise,
    by the exact binomial sum."""
    p = np.asarray(p, dtype=float)
    n = d - 1
    out = np.zeros_like(p)
    for j in range(1, n + 1):
        out += math.comb(n, j) * p ** j * (1.0 - p) ** (n - j) \
            * math.log1p(j) ** power
    return out


def discrimination_loss(p, d: int) -> float:
    """Binomial-sum closed form ``sum_m p_m E log(1 + Bin(d-1, p_m))``."""
    p = np.asarray(p, dtype=float)
    return float((p * binomial_moments(p, d)).sum())


def discrimination_sample_se(p, d: int, samples: int) -> float:
    """Standard error of a mean of ``samples`` per-sample losses of a
    receiver that puts ``1 / (number of matching candidates)`` on the
    target: the loss is ``log(1 + B)`` with the target's message drawn from
    ``p`` and ``B ~ Binomial(d - 1, p_m)``."""
    p = np.asarray(p, dtype=float)
    first = float((p * binomial_moments(p, d, 1)).sum())
    second = float((p * binomial_moments(p, d, 2)).sum())
    return math.sqrt(max(second - first * first, 0.0) / samples)


def reconstruction_loss(assignment, points, weights, k: int) -> float:
    """``sum_m p_m Var[X | m]`` from class means."""
    points = np.asarray(points, dtype=float).reshape(len(weights), -1)
    p = masses(assignment, weights, k)
    sums = np.stack([np.bincount(assignment, weights=weights * points[:, j],
                                 minlength=k)
                     for j in range(points.shape[1])], axis=1)
    means = np.divide(sums, p[:, None], out=np.zeros_like(sums),
                      where=p[:, None] > 0)
    diff = points - means[assignment]
    return float(weights @ np.einsum("ij,ij->i", diff, diff))


def h_x_given_s(assignment, weights, k: int) -> float:
    """``H(X | S)``: the exact global-game loss of the synchronized pair."""
    p = masses(assignment, weights, k)
    return float(-(weights * np.log(weights / p[assignment])).sum())


def h_y_given_s(assignment, codes, weights, k: int, v: int) -> float:
    """``H(Y | S)``: the exact classification loss of the synchronized
    pair."""
    tab = joint(assignment, codes, weights, k, v)
    return entropy(tab) - entropy(tab.sum(axis=1))


def supervised_terms(assignment, codes, weights, k: int, v: int) -> float:
    """Two-term supervised form ``sum_m p_m^2 - sum_{m,y} P(m, y)^2``."""
    p = masses(assignment, weights, k)
    tab = joint(assignment, codes, weights, k, v)
    return float(p @ p - (tab * tab).sum())


def supervised_loss(assignment, codes, weights, k: int, v: int) -> float:
    """Exact d=2 supervised loss: the two-term form scaled by
    ``log 2 * |Y| / (|Y| - 1)``."""
    return math.log(2.0) * v / (v - 1) \
        * supervised_terms(assignment, codes, weights, k, v)


def global_objective(assignment, weights, k: int) -> float:
    """``-H(S)``."""
    return -entropy(masses(assignment, weights, k))


def classification_objective(assignment, codes, weights, k: int,
                             v: int) -> float:
    """``-I(Y; S)``."""
    tab = joint(assignment, codes, weights, k, v)
    return -(entropy(tab.sum(axis=1)) + entropy(tab.sum(axis=0))
             - entropy(tab))


# ---------------------------------------------------------------------------
# Search optima
# ---------------------------------------------------------------------------

def balanced_sizes(n: int, k: int) -> list[int]:
    q, r = divmod(n, k)
    return [q + 1] * r + [q] * (k - r)


def discrimination_optimum(n: int, k: int, d: int) -> float:
    """Minimum of the discrimination objective on ``n`` equal-weight
    inputs: the loss is a sum of a strictly convex function of the masses,
    so the most balanced split is the only optimal mass profile."""
    return discrimination_loss(np.asarray(balanced_sizes(n, k)) / n, d)


def discrimination_optimum_counts(n: int, k: int) -> tuple[int, int]:
    """(labelled optima, optima up to relabelling) for equal weights.

    Labelled count: multinomial ``n! / prod s_m!`` times the number of ways
    to hand the block sizes to the ``k`` messages. Up to relabelling, the
    non-empty blocks of equal size are interchangeable.
    """
    sizes = balanced_sizes(n, k)
    multinomial = math.factorial(n)
    for s in sizes:
        multinomial //= math.factorial(s)
    labelings = math.factorial(k)
    for c in Counter(sizes).values():
        labelings //= math.factorial(c)
    unlabelled = multinomial
    for c in Counter(s for s in sizes if s > 0).values():
        unlabelled //= math.factorial(c)
    return multinomial * labelings, unlabelled


def reconstruction_optimum_1d(x, weights, k: int) -> tuple[float, int]:
    """Optimal weighted squared-error split of scalar points into at most
    ``k`` classes, by dynamic programming over contiguous runs of the
    sorted points (an optimal class is always an interval).

    Returns (optimum, number of non-empty classes used).
    """
    x = np.asarray(x, dtype=float).ravel()
    order = np.argsort(x, kind="stable")
    xs, ws = x[order], np.asarray(weights, dtype=float)[order]
    n = xs.size
    c0 = np.concatenate([[0.0], np.cumsum(ws)])
    c1 = np.concatenate([[0.0], np.cumsum(ws * xs)])
    c2 = np.concatenate([[0.0], np.cumsum(ws * xs * xs)])

    def cost(i: int, j: int) -> float:  # points i..j-1
        w = c0[j] - c0[i]
        s = c1[j] - c1[i]
        return (c2[j] - c2[i]) - s * s / w

    best = [[math.inf] * (n + 1) for _ in range(k + 1)]
    best[0][0] = 0.0
    for c in range(1, k + 1):
        for j in range(1, n + 1):
            best[c][j] = min(best[c - 1][i] + cost(i, j) for i in range(j))
    used = min(range(1, k + 1), key=lambda c: (best[c][n], c))
    return best[used][n], used


def labelled_copies(k: int, blocks: int) -> int:
    """Labelled protocols sharing one partition into ``blocks`` classes."""
    return math.factorial(k) // math.factorial(k - blocks)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def message_variance(assignment, points) -> float:
    """The empirical recipe, literally: ordered pairwise squared distances
    with self-pairs summed per class, each class sum divided by its
    cardinality, the total divided by ``2N``."""
    points = np.asarray(points, dtype=float).reshape(len(assignment), -1)
    total = 0.0
    for m in np.unique(assignment):
        pts = points[assignment == m]
        diff = pts[:, None, :] - pts[None, :, :]
        total += float(np.einsum("ijk,ijk->", diff, diff)) / len(pts)
    return total / (2.0 * len(assignment))


def purity(assignment, codes, weights, k: int, v: int) -> float:
    return float(joint(assignment, codes, weights, k, v).max(axis=1).sum())


def unique_messages(assignment) -> int:
    return len(set(int(m) for m in assignment))


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    values = np.asarray(values)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.concatenate([[0], np.flatnonzero(ordered[1:]
                                                 != ordered[:-1]) + 1])
    ends = np.concatenate([starts[1:], [values.size]])
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(a, b) -> float:
    ra, rb = average_ranks(a), average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb / math.sqrt((ra @ ra) * (rb @ rb)))


def topsim(assignment, points, symbols) -> float:
    """Spearman correlation of Euclidean input distances and Hamming
    message distances over unordered input pairs. ``symbols`` holds one
    symbol sequence per message."""
    points = np.asarray(points, dtype=float).reshape(len(assignment), -1)
    seqs = np.asarray(symbols)[np.asarray(assignment)]
    iu, ju = np.triu_indices(len(assignment), k=1)
    diff = points[iu] - points[ju]
    input_d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    msg_d = (seqs[iu] != seqs[ju]).sum(axis=1)
    return spearman(input_d, msg_d)


def accuracy(p, d: int) -> float:
    """Synchronized discrimination accuracy ``sum_m (1 - (1 - p_m)^d) / d``
    with ties broken uniformly."""
    p = np.asarray(p, dtype=float)
    return float((1.0 - (1.0 - p[p > 0]) ** d).sum() / d)


def accuracy_se(assignment, weights, k: int, d: int, trials: int) -> float:
    """Standard error of an accuracy estimate with ``trials`` Bernoulli
    episodes per input, each hitting with ``E[1 / (1 + B)]``."""
    p = masses(assignment, weights, k)[assignment]
    hit = (1.0 - (1.0 - p) ** d) / (d * p)
    return math.sqrt(float((weights ** 2 * hit * (1.0 - hit)).sum()) / trials)


# ---------------------------------------------------------------------------
# Quality definitions
# ---------------------------------------------------------------------------

def proximity_conditionals(assignment, points, weights, msg_dist,
                           thresholds) -> list[float]:
    """``E[||x1 - x2||^2 | d(S(x1), S(x2)) <= eps]`` for i.i.d. pairs, one
    value per threshold, from per-class first and second moments."""
    points = np.asarray(points, dtype=float).reshape(len(weights), -1)
    k = msg_dist.shape[0]
    p = masses(assignment, weights, k)
    sums = np.stack([np.bincount(assignment, weights=weights * points[:, j],
                                 minlength=k)
                     for j in range(points.shape[1])], axis=1)
    sq = np.bincount(assignment, weights=weights
                     * np.einsum("ij,ij->i", points, points), minlength=k)
    # E||x1 - x2||^2 * p_a * p_b over independent draws from classes a, b
    pair = sq[:, None] * p[None, :] + p[:, None] * sq[None, :] \
        - 2.0 * sums @ sums.T
    mass = p[:, None] * p[None, :]
    return [float(pair[msg_dist <= eps].sum() / mass[msg_dist <= eps].sum())
            for eps in thresholds]


def score_table_rows(scores) -> list[tuple[int, tuple[int, int], list[float]]]:
    """Every (message, ordered candidate pair) row of the d=2 receiver that
    normalizes the positive scores ``scores[m, x]`` over the candidates."""
    k, n = scores.shape
    rows = []
    for m in range(k):
        for a in range(n):
            for b in range(n):
                total = scores[m, a] + scores[m, b]
                rows.append((m, (a, b), [scores[m, a] / total,
                                         scores[m, b] / total]))
    return rows


def score_sup_loss(scores, weights) -> float:
    """Worst per-input loss of the synchronized sender against the d=2
    normalized-score receiver: ``max_i min_m sum_j w_j -log(s_mi / (s_mi +
    s_mj))``."""
    s = np.asarray(scores, dtype=float)
    share = s[:, :, None] / (s[:, :, None] + s[:, None, :])  # (m, i, j)
    losses = -np.log(share) @ weights  # (m, i)
    return float(losses.min(axis=0).max())


def lipschitz_ratio(messages, candidates, probs, points, msg_dist,
                    block: int = 256) -> float:
    """Worst ``||R(a) - R(b)|| / ||a - b||`` over unordered row pairs of a
    discrimination table, computed in row blocks.

    The domain distance composes the message distance with the Euclidean
    distance of the stacked candidate points; outputs are compared with
    their entries sorted in decreasing order.
    """
    messages = np.asarray(messages)
    flat = np.asarray(points, dtype=float)[np.asarray(candidates)]
    flat = flat.reshape(len(messages), -1)
    outs = -np.sort(-np.asarray(probs, dtype=float), axis=1)
    worst = 0.0
    for lo in range(0, len(messages), block):
        hi = min(lo + block, len(messages))
        a = slice(lo, hi)
        dom2 = msg_dist[messages[a][:, None], messages[None, :]] ** 2 \
            + ((flat[a, None, :] - flat[None, :, :]) ** 2).sum(axis=2)
        out = np.sqrt(((outs[a, None, :] - outs[None, :, :]) ** 2).sum(axis=2))
        later = np.arange(len(messages))[None, :] > np.arange(lo, hi)[:, None]
        ok = later & (dom2 > 0.0)
        if ok.any():
            worst = max(worst, float((out[ok] / np.sqrt(dom2[ok])).max()))
    return worst


def simplicity_constant(eps0: float, points, weights) -> float:
    """``(sqrt 2 - 1) / (2 eps0) * sqrt(Var[X])``."""
    points = np.asarray(points, dtype=float).reshape(len(weights), -1)
    centred = points - weights @ points
    var = float(weights @ np.einsum("ij,ij->i", centred, centred))
    return (math.sqrt(2.0) - 1.0) / (2.0 * eps0) * math.sqrt(var)


def decimal_hamming(k: int) -> np.ndarray:
    """Hamming distances between the zero-padded decimal names ``0..k-1``
    that the CLI gives messages when no protocol file names them."""
    width = max(1, len(str(k - 1)))
    names = np.asarray([list(str(m).zfill(width)) for m in range(k)])
    return (names[:, None, :] != names[None, :, :]).sum(axis=2).astype(float)
