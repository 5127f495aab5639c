"""Independent brute-force oracles used to pin the library's fast paths.

Everything here is written as plain loops straight from the defining
formulas, sharing no code with the package internals it checks.
"""

import itertools
import math

import numpy as np

from signalgames import games, optimize
from signalgames.core import _pair_blocks, _partition_rows, _sq_dists
from signalgames.games import TabularDiscriminationReceiver, substream
from signalgames.objectives import _class_layout


def variance_bruteforce(points, weights):
    """Var[X] via the pairwise identity: E||x1 - x2||^2 / 2."""
    return pairwise_sqdist_bruteforce(points, weights) / 2.0


def pairwise_sqdist_bruteforce(points, weights):
    """E||x1 - x2||^2 over an i.i.d. pair, by weighted double sum."""
    points = np.asarray(points, dtype=float)
    total = 0.0
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            d = points[i] - points[j]
            total += wi * wj * float(d @ d)
    return total


def conditional_pairwise_bruteforce(assignment, msg_dist, points, weights,
                                    eps):
    """E[||x1 - x2||^2 | d(S(x1), S(x2)) <= eps] by literal pair filtering.

    ``eps`` below the smallest positive message distance conditions on
    equal messages.
    """
    points = np.asarray(points, dtype=float)
    num = den = 0.0
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            if msg_dist[assignment[i]][assignment[j]] <= eps:
                d = points[i] - points[j]
                num += wi * wj * float(d @ d)
                den += wi * wj
    return num / den


def lipschitz_bruteforce(receiver, points, msg_dist, canonical=True):
    """Worst ``||R(a) - R(b)|| / ||a - b||`` over unordered pairs of a
    finite receiver's domain, by a plain double loop, and whether some pair
    at domain distance zero has different outputs (such pairs are left out
    of the worst ratio).

    A reconstruction receiver's domain is its defined messages; a tabular
    discrimination receiver's is its (message, candidates) keys, embedded
    by the message and the stacked candidate points, with outputs sorted
    in decreasing order when ``canonical``.
    """
    if hasattr(receiver, "defined"):
        domain = [(m, [], [float(v) for v in receiver.points[m]])
                  for m in range(len(receiver.defined))
                  if receiver.defined[m]]
    else:
        domain = []
        for (m, cands), row in receiver.table.items():
            out = [float(v) for v in row]
            if canonical:
                out = sorted(out, reverse=True)
            domain.append((m, [float(v) for c in cands for v in points[c]],
                           out))
    worst, degenerate = 0.0, False
    for a in range(len(domain)):
        for b in range(a + 1, len(domain)):
            (ma, ea, oa), (mb, eb, ob) = domain[a], domain[b]
            dom = math.sqrt(float(msg_dist[ma][mb]) ** 2
                            + sum((x - y) ** 2 for x, y in zip(ea, eb)))
            out = math.sqrt(sum((x - y) ** 2 for x, y in zip(oa, ob)))
            if dom == 0.0:
                degenerate = degenerate or out > 0.0
            else:
                worst = max(worst, out / dom)
    return worst, degenerate


def labellings_bruteforce(partitions, k):
    """Every labelled protocol of the set partitions (rows numbering their
    blocks from 0), as tuples: row by row, the j blocks of a row take the
    messages of each tuple of itertools.permutations(range(k), j) in turn."""
    return [tuple(labels[b] for b in row)
            for row in partitions
            for labels in itertools.permutations(range(k), max(row) + 1)]


def reconstruction_loss_bruteforce(assignment, receiver_points, points,
                                   weights):
    total = 0.0
    for i, w in enumerate(weights):
        d = np.asarray(receiver_points[assignment[i]]) - points[i]
        total += w * float(d @ d)
    return total


def optimal_receiver_probs(assignment, m, candidates):
    """Posterior over candidate positions given the message, from first
    principles: uniform over the positions whose sender message matches."""
    match = [1.0 if assignment[c] == m else 0.0 for c in candidates]
    s = sum(match)
    if s == 0:
        return [1.0 / len(candidates)] * len(candidates)
    return [v / s for v in match]


def discrimination_loss_bruteforce(assignment, weights, d,
                                   receiver=None):
    """Exact d-candidates loss by enumerating targets, ordered distractor
    tuples and target positions."""
    n = len(weights)
    if receiver is None:
        receiver = lambda m, cands: optimal_receiver_probs(assignment, m,
                                                           cands)
    total = 0.0
    for i in range(n):
        m = assignment[i]
        for distr in itertools.product(range(n), repeat=d - 1):
            w = weights[i] * math.prod(weights[c] for c in distr)
            for t in range(d):
                cands = distr[:t] + (i,) + distr[t:]
                p = receiver(m, cands)[t]
                total += w / d * (-math.log(p) if p > 0 else math.inf)
    return total


def materialize_discrimination_table(receiver, space):
    """Dense (message x ordered candidate tuple) table of a discrimination
    receiver over the inputs of ``space``, one ``probabilities`` query per
    row."""
    d = receiver.num_candidates
    table = {}
    for m, *cands in itertools.product(range(receiver.num_messages),
                                       *[range(space.size)] * d):
        table[(m, tuple(cands))] = receiver.probabilities(m, tuple(cands))
    return TabularDiscriminationReceiver(d, receiver.num_messages, table)


def _asked_losses(receiver, messages, candidates, positions):
    """``-log`` of the probability each query row gives its target's
    position, ``inf`` where it is 0; one batch answers every row."""
    probs = receiver.probabilities_batch(messages, candidates)
    return np.array([-math.log(p) if p > 0.0 else math.inf
                     for p in probs[np.arange(len(probs)), positions]])


def discrimination_mc_flat(assignment, receiver, weights, d, samples, seed,
                           shards=1, synchronized=False):
    """Targets and losses of seeded Monte-Carlo discrimination with every
    shard's draws taken in single calls: all ``size`` targets by
    ``Generator.choice``, then all (size, d-1) distractors, then (unless
    ``synchronized``) all target positions by ``integers``. A synchronized
    loss is ``log(1 + c)`` for ``c`` distractors sharing the target's
    message; any other receiver is asked every row at once."""
    assignment = np.asarray(assignment)
    n = len(weights)
    targets, losses = [], []
    for shard in range(shards):
        size = samples // shards + (1 if shard < samples % shards else 0)
        rng = substream(seed, "monte-carlo", str(shard))
        t = rng.choice(n, size, p=weights)
        distr = rng.choice(n, (size, d - 1), p=weights)
        if synchronized:
            count = (assignment[distr] == assignment[t][:, None]).sum(axis=1)
            losses.append(np.log1p(np.arange(d, dtype=float))[count])
        else:
            pos = rng.integers(0, d, size=size)
            cands = np.array([list(row[:p]) + [i] + list(row[p:])
                              for row, i, p in zip(distr.tolist(),
                                                   t.tolist(), pos.tolist())],
                             dtype=np.int64).reshape(size, d)
            losses.append(_asked_losses(receiver, assignment[t], cands, pos))
        targets.append(t)
    return np.concatenate(targets), np.concatenate(losses)


def classification_mc_flat(assignment, receiver, weights, codes, samples,
                           seed):
    """Targets and losses of seeded Monte-Carlo classification with all
    targets drawn in one ``Generator.choice`` call, then each label's
    candidates in one call, label by label."""
    assignment, codes = np.asarray(assignment), np.asarray(codes)
    rng = substream(seed, "monte-carlo", "classification")
    t = rng.choice(len(weights), samples, p=weights)
    cands = []
    for y in range(codes.max() + 1):
        group = np.flatnonzero(codes == y)
        law = np.asarray(weights)[group] / np.asarray(weights)[group].sum()
        cands.append(group[rng.choice(group.size, samples, p=law)])
    return t, _asked_losses(receiver, assignment[t], np.stack(cands, axis=1),
                            codes[t])


def accuracy_bruteforce(assignment, points, weights, d, receiver_kind,
                        distractors):
    """Discrimination accuracy by enumerating every ordered (d-1)-tuple of
    distractors. Per tuple the target wins with probability 1/(#ties) if it
    is among the best candidates: for ``synchronized`` the candidates
    sharing its message, for ``reconstruction-nearest`` those within 1e-12
    of the smallest distance to the conditional mean of its message."""
    n = len(weights)
    points = [np.asarray(x, dtype=float) for x in points]
    total = 0.0
    for i in range(n):
        m = assignment[i]
        if distractors == "replacement":
            law = list(weights)
        else:
            rest = sum(weights[j] for j in range(n) if j != i)
            law = [0.0 if j == i else weights[j] / rest for j in range(n)]
        if receiver_kind == "reconstruction-nearest":
            members = [j for j in range(n) if assignment[j] == m]
            mass = sum(weights[j] for j in members)
            centre = sum(weights[j] * points[j] for j in members) / mass
        hit = 0.0
        for distr in itertools.product(range(n), repeat=d - 1):
            p = math.prod(law[c] for c in distr)
            if p == 0.0:
                continue
            if receiver_kind == "synchronized":
                win = 1.0 / (1 + sum(assignment[c] == m for c in distr))
            else:
                dist = [math.dist(points[c], centre) for c in (i, *distr)]
                best = min(dist)
                ties = [abs(x - best) <= 1e-12 for x in dist]
                win = ties[0] / sum(ties)
            hit += p * win
        total += weights[i] * hit
    return total


def supervised_loss_bruteforce(assignment, weights, labels, d=2):
    """Exact d-candidates supervised loss with the synchronized receiver;
    each of the d-1 distractors is drawn from the inputs whose label
    differs from the target's."""
    n = len(weights)
    total = 0.0
    for i in range(n):
        others = [j for j in range(n) if labels[j] != labels[i]]
        rest = sum(weights[j] for j in others)
        for distr in itertools.product(others, repeat=d - 1):
            w = weights[i] * math.prod(weights[j] / rest for j in distr)
            shared = 1 + sum(1 for j in distr if assignment[j] == assignment[i])
            total += w * math.log(shared)
    return total


def global_loss_bruteforce(assignment, weights):
    """Exact global loss with the conditional-distribution receiver,
    i.e. the plug-in H(X | S(X))."""
    n = len(weights)
    total = 0.0
    for i in range(n):
        mass = sum(weights[j] for j in range(n)
                   if assignment[j] == assignment[i])
        total += weights[i] * (-math.log(weights[i] / mass))
    return total


def classification_loss_bruteforce(assignment, weights, labels):
    """Exact classification loss with the label-posterior receiver,
    i.e. the plug-in H(Y | S(X))."""
    n = len(weights)
    total = 0.0
    for i in range(n):
        mass = sum(weights[j] for j in range(n)
                   if assignment[j] == assignment[i])
        same = sum(weights[j] for j in range(n)
                   if assignment[j] == assignment[i]
                   and labels[j] == labels[i])
        total += weights[i] * (-math.log(same / mass))
    return total


def entropy_bruteforce(probs):
    return -sum(p * math.log(p) for p in probs if p > 0)


def mutual_information_bruteforce(joint):
    joint = np.asarray(joint, dtype=float)
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    total = 0.0
    for a in range(joint.shape[0]):
        for b in range(joint.shape[1]):
            if joint[a, b] > 0:
                total += joint[a, b] * math.log(
                    joint[a, b] / (rows[a] * cols[b]))
    return total


def message_variance_bruteforce(assignment, points):
    """Literal transcription of the metric recipe: ordered pairs including
    self-pairs, class sums divided by class size, total by 2N."""
    points = np.asarray(points, dtype=float)
    classes = {}
    for i, m in enumerate(assignment):
        classes.setdefault(m, []).append(i)
    pair_sum = 0.0
    for members in classes.values():
        local = 0.0
        for i in members:
            for j in members:
                d = points[i] - points[j]
                local += float(d @ d)
        pair_sum += local / len(members)
    return pair_sum / (2 * len(assignment))


def average_ranks_bruteforce(values):
    """1-based average ranks from the definition: the count of smaller
    values plus half of (the count of equal values, self included, plus
    one)."""
    x = np.asarray(values, dtype=float)
    less = (x[None, :] < x[:, None]).sum(axis=1)
    equal = (x[None, :] == x[:, None]).sum(axis=1)
    return less + (equal + 1) / 2


def spearman_bruteforce(xs, ys):
    """Spearman correlation via average ranks and the Pearson formula."""

    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for t in range(i, j + 1):
                r[order[t]] = avg
            i = j + 1
        return r

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


# ---------------------------------------------------------------------------
# Bit-level references: the search loops as first written, operation for
# operation, so a faster loop can be held to the same float64 bits
# ---------------------------------------------------------------------------

def sq_dists_from_zeros(a, b):
    """Squared distances between the rows of ``a`` and of ``b``, each
    coordinate column's squared differences added to a table of zeros."""
    total = np.zeros((len(a), len(b)))
    diff = np.empty_like(total)
    with np.errstate(over="ignore"):
        for x, y in zip(a.T, b.T, strict=True):
            np.subtract.outer(x, y, out=diff)
            total += np.square(diff, out=diff)
    return total


def kmeans_two_tables(points, weights, centroids, max_iters, tol=0.0):
    """Weighted Lloyd alternation that forms the distance table twice per
    round, once after the update for the trace and again in the next
    assignment, and finds empty clusters message by message. Returns
    ``(assign, centroids, trace, rounds, converged, repaired)``, where
    ``repaired`` lists the round of every empty-cluster repair."""
    points = np.asarray(points, dtype=float)
    centroids = np.array(centroids, dtype=float)
    n, k = len(points), len(centroids)
    trace, repaired = [], []
    prev_assign, prev_obj = None, math.inf
    rounds, converged = 0, False
    assign = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        rounds += 1
        while True:
            d2 = sq_dists_from_zeros(points, centroids)
            assign = np.argmin(d2, axis=1)
            nearest = d2[np.arange(n), assign]
            empty = [m for m in range(k) if not np.any(assign == m)]
            if not empty:
                break
            repaired.append(rounds)
            centroids[empty[0]] = points[int(np.argmax(nearest))]
        obj = float(weights @ nearest)
        trace.append(obj)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            converged = True
            break
        masses = np.bincount(assign, weights, k)
        firsts = [np.bincount(assign, weights * points[:, j], k)
                  for j in range(points.shape[1])]
        centroids = np.stack(firsts, axis=1) / masses[:, None]
        d2 = sq_dists_from_zeros(points, centroids)
        obj = float(weights @ d2[np.arange(n), assign])
        trace.append(obj)
        if prev_obj - obj < tol:
            converged = True
            break
        prev_assign, prev_obj = assign, obj
    return assign, centroids, trace, rounds, converged, repaired


def greedy_balance_argmin(weights, k):
    """The greedy balancer with one ``np.argmin`` over the masses per
    input: heaviest input first (stable), into the lightest message."""
    masses = np.zeros(k)
    assign = np.zeros(len(weights), dtype=int)
    for i in np.argsort(-np.asarray(weights), kind="stable"):
        m = int(np.argmin(masses))
        assign[i] = m
        masses[m] += weights[i]
    return assign


def argmin_rows_unpruned(space, k, spec, best=None):
    """The exhaustive search's argmin loop before it pruned: every
    partition of the enumerator scored, block by block, by the search's
    scorer, with the same budget on held ties. Returns ``(best, rows)``;
    ``rows`` is ``None`` when the ties outgrew the budget before the
    minimum was known."""
    tol, n = optimize._TIE_TOL, space.size
    fixed = best is not None
    best = best if fixed else math.inf
    kept, held, dropped = [], 0, None
    weights, codes, v = _class_layout(space, spec.kind, spec.labels)
    for rows, sums in _partition_rows(n, k, weights, codes, v):
        values = optimize._block_objective(rows, sums, space, spec, v)
        low = float(values.min())
        if low < best:
            best = low
            if kept is not None:
                kept = [(x[x <= best + tol], r[x <= best + tol])
                        for x, r in kept]
                held = sum(len(x) for x, _ in kept)
        if kept is None or low > best + tol:
            continue
        tied = values <= best + tol
        kept.append((values[tied], rows[tied]))
        held += len(kept[-1][0])
        if held * n > games.EXACT_TERM_BUDGET:
            kept, dropped = None, (best, held)
            if fixed:
                break
    if dropped is not None and dropped[0] == best:
        games._check_terms(dropped[1] * n, "exhaustive search's tie set",
                           "assignment entries", at_least=True)
    return best, kept and np.concatenate([r for _, r in kept], dtype=int)


def exhaustive_unpruned(space, k, spec):
    """The minimum and tied partition rows of a search that scores every
    partition, scanning again with the minimum fixed when the ties outgrew
    the budget."""
    best, rows = argmin_rows_unpruned(space, k, spec)
    if rows is None:
        best, rows = argmin_rows_unpruned(space, k, spec, best)
    return best, rows


def worst_ratio_unpruned(msgs, message_space, emb, outs):
    """The receiver-simplicity scan before it was bounded: every unordered
    pair of domain rows scored, block by block, in the rows' own order.
    Same signature and result as ``consistency._worst_ratio``."""
    tops = [0.0]
    for lo, hi, below in _pair_blocks(len(msgs)):
        dom, out = (_sq_dists(x[lo:hi], x[lo:]) for x in (emb, outs))
        gap = message_space.distances(msgs[lo:hi], msgs[lo:])
        with np.errstate(over="ignore"):  # a distance past float64 is inf
            dom += np.square(gap, out=gap)
        # the entries on and below the diagonal get ratio 0
        out[:, :hi - lo][below] = 0.0
        dom[:, :hi - lo][below] = 1.0
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
        tops.append(top)
    return float(np.max(tops))
