"""Protocol search: exhaustive argmin enumeration, alternating
reconstruction optimization, and balanced-partition constructors.

The exhaustive search evaluates the closed-form objective of the requested
game once for every set partition of the inputs into at most K messages and
keeps the whole argmin set as partitions, with a view of their labellings.
The alternation for the reconstruction game interleaves a nearest-output
assignment step with a class-mean update step, exactly the classic weighted
k-means loop, and its objective trace is non-increasing.
Balanced partitions construct uniform-mass protocols directly: a greedy
variant for arbitrary weights and an adversarial variant that pairs each
point with its farthest unmatched partner.
"""

from __future__ import annotations

import copy
import heapq
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .core import GameSpec, InputSpace, MessageSpace, Protocol, _as_readonly, \
    _class_sums, _partition_rows, _sq_dists
from . import games
from .games import _check_terms, substream
from .objectives import _TINY, _class_layout, _explained, \
    _log1p_binomial_mean, _sums_objective, batch_objective

__all__ = [
    "ProtocolRows",
    "SearchResult",
    "exhaustive_search",
    "optima",
    "batch_objective",
    "KMeansResult",
    "kmeans_alternation",
    "balanced_partition",
]

_TIE_TOL = 1e-12  # objective values this close to the minimum are optima

# The pruning bound's allowance for rounding, relative to Var[X] for
# reconstruction and to the total mass 1 for the mass games: the bound and
# the closed form each add about N terms no larger than that, so they differ
# by far less for any N the budget admits.
_BOUND_SLACK = 1e-9

# add.reduce adds up to 7 class columns in order, so the zero columns a
# block carries past a row's classes leave the row's score alone; from 8 on
# it groups them, and a row's bits depend on the widest row of its block.
# Pruning changes which rows share a block, so it runs only up to 7.
_IN_ORDER_CLASSES = 7

# Partitions from which the mass games prune. On a uniform space their
# bound skips little, and below this its fixed cost (the ceiling and one
# filter call per input) is not repaid: at K=3, N=10 (9,842 partitions)
# took 1.13 ms pruned against 1.04 ms scanned in full, N=11 (29,525) 2.11
# against 2.71 ms; at K=4, N=9 (11,051) 0.92 against 0.90 ms, N=10
# (43,947) 2.73 against 3.44 ms (2-core x86-64 VM).
_MASS_BOUND_FROM = 16_384


class ProtocolRows(Sequence):
    """Every labelled protocol of a (P, N) partition array, read-only: each
    partition's ``j`` blocks relabelled by ``itertools.permutations(range(K),
    j)`` in turn. An item is built when read; a slice views a ``range``."""

    def __init__(self, partitions: np.ndarray, num_messages: int):
        self.partitions = partitions
        self.num_messages = k = int(num_messages)
        self._index = range(labelled_count(partitions, k))
        top = partitions.max(axis=1)  # the number of blocks, minus one
        sizes = np.array([math.perm(k, j) for j in range(1, top.max() + 2)],
                         dtype=np.int64 if self._index.stop < 2 ** 63
                         else object)
        self._ends = np.cumsum(sizes[top])  # one past each partition's items

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = copy.copy(self)
            view._index = self._index[index]
            return view
        i = self._index[index]
        p = int(np.searchsorted(self._ends, i, side="right"))
        row, k = self.partitions[p], self.num_messages
        rank, j = i - int(self._ends[p - 1] if p else 0), int(row.max()) + 1
        labels: list[int] = []  # item rank of permutations(range(k), j)
        for place in range(j):
            label, rank = divmod(rank, math.perm(k - place - 1, j - place - 1))
            for used in sorted(labels):  # the label-th label not yet used
                label += used <= label
            labels.append(label)
        return Protocol(np.array(labels)[row], k)

    def __add__(self, other: Sequence[Protocol]) -> list[Protocol]:
        return [*self, *other]


def labelled_count(partitions: np.ndarray, k: int) -> int:
    """The labellings of the partition rows by ``k`` messages, ``sum
    perm(k, j)`` over the rows with ``j`` blocks, as an exact int."""
    counts = np.bincount(partitions.max(axis=1)).tolist()
    return sum(c * math.perm(k, j) for j, c in enumerate(counts, 1))


class SearchResult(NamedTuple):
    value: float
    protocols: ProtocolRows  # every labelled optimum, built when read
    partitions: np.ndarray   # one row per optimum up to relabeling


def exhaustive_search(space: InputSpace,
                      message_space: MessageSpace | int,
                      spec: GameSpec) -> SearchResult:
    """The full argmin set of :func:`optima` (values within 1e-12 of the
    minimum): ``partitions``, the tied partitions as one read-only ``int``
    array, and ``protocols``, a view of every labelling of them
    (``K!/(K-j)!`` for a partition with ``j`` blocks), which
    :func:`labelled_count` counts. Past ``games.EXACT_TERM_BUDGET``
    assignment entries of the ties it raises ``BudgetExceededError``."""
    k = message_space.size if isinstance(message_space, MessageSpace) \
        else int(message_space)
    value, blocks = optima(space, k, spec)
    kept, held = [], 0
    for rows in blocks:
        kept.append(rows)
        held += len(rows)
        _check_terms(held * space.size, "exhaustive search's tie set",
                     "assignment entries", at_least=True)
    partitions = _as_readonly(np.concatenate(kept, dtype=int))
    return SearchResult(value, ProtocolRows(partitions, k), partitions)


def optima(space: InputSpace, k: int, spec: GameSpec):
    """``(value, blocks)``: the minimum of the closed form of ``spec`` over
    all protocols of ``k`` messages, and an iterator over the partitions
    within 1e-12 of it, as non-empty blocks of restricted-growth strings in
    the enumerator's dtype, in lexicographic order. Each set partition of
    the inputs into at most ``k`` blocks is scored once (every closed form
    ignores message labels), their count checked first against
    ``games.EXACT_TERM_BUDGET``. The ties are held while their assignment
    entries fit the budget; past it, ``blocks`` scans again with the
    minimum known and yields each block's ties as they are scored.

    The reconstruction, discrimination and global searches skip the
    prefixes whose completions all score above the optimum (see
    :func:`_completion_bound`); every partition within the tie tolerance is
    still scored, so the result is that of scoring them all."""
    n = space.size
    if k < 1:
        raise ValueError("need at least one message")
    count, exact = _partition_count(n, k, games.EXACT_TERM_BUDGET)
    _check_terms(count, "exhaustive search", "partitions", at_least=not exact)
    bound = _completion_bound(space, k, spec, count)
    best, kept, held = math.inf, [], 0  # kept: (values, rows) of the ties
    for values, rows in _scored_blocks(space, k, spec, bound):
        low = float(values.min())
        if low < best:
            best = low
            if kept is not None:
                kept = [(v[v <= best + _TIE_TOL], r[v <= best + _TIE_TOL])
                        for v, r in kept]
                held = sum(len(v) for v, _ in kept)
        if kept is None or low > best + _TIE_TOL:
            continue
        tied = values <= best + _TIE_TOL
        kept.append((values[tied], rows[tied]))
        held += len(kept[-1][0])
        if held * n > games.EXACT_TERM_BUDGET:
            kept = None
    if kept is None:  # the ties outgrew the budget: scan again for them
        kept = ((v, r[v <= best + _TIE_TOL])
                for v, r in _scored_blocks(space, k, spec, bound, best))
    return best, (rows for _, rows in kept if len(rows))


def _partition_count(n: int, k: int, limit: int) -> tuple[int, bool]:
    """The set partitions of ``n`` inputs into at most ``k`` blocks,
    ``sum_{j <= min(k, n)} S(n, j)``, by the Stirling recurrence, and
    whether that is exact: the count never falls as inputs are added, so
    it stops at the first prefix whose count passes ``limit``, a lower
    bound (for ``k >= 2`` within about ``log2(limit)`` inputs)."""
    row = [1]  # S(i, j) for j <= min(k, i)
    for i in range(1, n + 1):
        if len(row) <= k:
            row.append(0)
        for j in range(len(row) - 1, 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
        if i < n and sum(row) > limit:
            return sum(row), False
    return sum(row), True


def _completion_bound(space: InputSpace, k: int, spec: GameSpec,
                      count: int):
    """``(lower, ceiling, slack)`` for pruning the search, or ``None`` where
    it scores every partition. ``lower(sums, width)`` bounds from below the
    score of every completion of each prefix of ``width`` inputs from its
    carried class sums (``None`` where it cannot skip one); a prefix is
    skipped when that bound exceeds the smaller of ``ceiling`` and the
    running minimum by more than ``slack``, the tie tolerance plus a
    rounding allowance, so no partition within the tie tolerance of the
    minimum is skipped. The ceiling is the closed form of one protocol
    built by a cheap deterministic heuristic, some partition's score, so
    the optimum is at most it; it only sets the threshold, never the
    reported minimum.

    Reconstruction's closed form is the weighted within-class sum of
    squares, ``sum_i w_i ||x_i - EX||^2 - sum_m ||S_m||^2 / M_m`` with
    ``S_m`` and ``M_m`` the class sums of ``w_i (x_i - EX)`` and ``w_i``.
    Taken over the first ``width`` inputs it never falls as an input joins
    a class, and at width ``N`` it is the closed form (Koontz, Narendra and
    Fukunaga, 1975). The ceiling comes from one fixed-seed k-means run (the
    greedy balanced partition where k-means cannot repair an empty class).

    Discrimination and global score ``sum_m f(p_m)`` with ``f`` convex
    (``p E log(1 + Bin(d-1, p))`` and ``p log p``). A completion into at
    most ``C = min(K, N)`` classes gives the prefix's heaviest class, of
    mass ``t``, a final mass ``q >= t``; by Jensen the other classes score
    at least ``(C-1) f((1-q)/(C-1))``, and with ``f(q)`` that is convex in
    ``q``, least at ``1/C``. So no completion scores below its value at
    ``max(t, 1/C)``. The ceiling comes from the greedy balanced partition.
    These games prune only from ``_MASS_BOUND_FROM`` of the ``count``
    partitions.

    Supervised, classification, and searches past ``_IN_ORDER_CLASSES``
    classes scan every partition."""
    classes = min(k, space.size)
    if not 1 < classes <= _IN_ORDER_CLASSES:
        return None
    if spec.kind == "reconstruction":
        centered = space.points - space._mean
        prefix = np.concatenate(([0.0], np.cumsum(
            space.weights * np.einsum("ij,ij->i", centered, centered))))

        def lower(sums, width):
            return prefix[width] - _explained(sums)
        try:
            seed = kmeans_alternation(space,
                                      min(k, space._distinct_points)).protocol
        except RuntimeError:  # its repair fails where distances underflow
            seed = balanced_partition(space, classes)
        scale = space._variance
    elif spec.kind in ("discrimination", "global") \
            and count >= _MASS_BOUND_FROM:
        if spec.kind == "discrimination":
            def f(p):
                return p * _log1p_binomial_mean(p, spec.d)
        else:
            def f(p):
                return np.log(np.maximum(p, _TINY)) * p
        even = 1.0 / classes
        # prefixes of at most this many inputs hold no class past 1/C
        start = int(np.searchsorted(np.cumsum(space.weights), even,
                                    side="right"))

        def lower(sums, width):
            if width <= start:
                return None
            top = np.full(len(sums[0]), even)
            for column in sums[0].T:
                np.maximum(top, column, out=top)
            rest = np.maximum(1.0 - top, 0.0) / (classes - 1)
            return f(top) + (classes - 1) * f(rest)
        seed, scale = balanced_partition(space, classes), 1.0
    else:
        return None
    ceiling = float(batch_objective(seed.assignment[None], space, spec)[0])
    return lower, ceiling, _TIE_TOL + _BOUND_SLACK * scale


def _scored_blocks(space: InputSpace, k: int, spec: GameSpec, bound,
                   best: float = math.inf):
    """Each block of partitions the search scores, as ``(values, rows)`` in
    enumeration order; ``bound`` (:func:`_completion_bound`) skips prefixes
    that cannot reach the least value yielded so far, or ``best``."""
    weights, codes, v = _class_layout(space, spec.kind, spec.labels)
    keep = None
    if bound is not None:
        lower, ceiling, slack = bound

        def keep(sums, width):  # reads the running minimum at each call
            low = lower(sums, width)  # a NaN bound skips nothing
            return None if low is None \
                else ~(low > min(ceiling, best) + slack)
    for rows, sums in _partition_rows(space.size, k, weights, codes, v,
                                      keep):
        values = _block_objective(rows, sums, space, spec, v)
        best = min(best, float(values.min()))
        yield values, rows


def _block_objective(rows: np.ndarray, sums: list[np.ndarray],
                     space: InputSpace, spec: GameSpec, v: int) -> np.ndarray:
    """The closed form of each row of a block of partitions from the class
    sums carried with it. They are reduced over the ``rows.max() + 1``
    blocks :func:`batch_objective` would infer for the block, so the values
    are its bits: past 8 classes, trailing zero columns would change
    ``add.reduce``'s pairwise grouping."""
    width = (int(rows.max()) + 1) * v
    return _sums_objective([np.ascontiguousarray(s[:, :width]) for s in sums],
                           space, spec.kind, spec.d, v)


# ---------------------------------------------------------------------------
# Alternating reconstruction optimization (weighted k-means)
# ---------------------------------------------------------------------------

class KMeansResult(NamedTuple):
    protocol: Protocol
    centroids: np.ndarray
    trace: list[float]
    rounds: int
    converged: bool


def kmeans_alternation(space: InputSpace, k: int,
                       init: str | Sequence = "sample", seed: int = 0,
                       max_iters: int = 100, tol: float = 0.0) -> KMeansResult:
    """Alternate nearest-centroid assignment and class-mean updates.

    ``init`` is either ``"sample"`` (a seeded draw of ``k`` distinct data
    points) or an explicit array of finite centroids. Ties in the
    assignment step break toward the lowest message index. An empty
    cluster is re-seeded to the point farthest from its nearest centroid.
    The returned trace holds the weighted sum of squared distances after
    every half-step and is non-increasing; the final value equals the
    reconstruction objective of the returned protocol.
    """
    distinct = space._distinct_points
    if not 1 <= k <= distinct:
        raise ValueError(f"need 1 <= K <= {distinct}, the number of "
                         "distinct points")
    pts, w = space.points, space.weights
    if isinstance(init, str):
        if init != "sample":
            raise ValueError(f"unknown init {init!r}")
        rng = substream(seed, "kmeans-init")
        centroids = pts[rng.choice(space.size, size=k, replace=False)].copy()
    else:
        centroids = np.asarray(init, dtype=float).reshape(k, -1)
        if centroids.shape[1] != space.dim:
            raise ValueError("centroid dimension mismatch")
        if not np.isfinite(centroids).all():
            raise ValueError("centroids must be finite")

    trace: list[float] = []
    prev_assign = None
    prev_obj = math.inf
    rounds = 0
    converged = False
    assign = np.zeros(space.size, dtype=int)
    weighted = w * pts.T  # the class-sum weights of the update step
    d2 = _sq_dists(pts, centroids)
    for _ in range(max_iters):
        rounds += 1
        assign, centroids, obj = _assign_with_repair(pts, w, centroids, d2)
        trace.append(obj)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            converged = True
            break
        masses, *firsts = _class_sums(assign, k, w, *weighted)
        centroids = np.stack(firsts, axis=1) / masses[:, None]
        d2 = _sq_dists(pts, centroids)  # the next assignment's table too
        obj = float(w @ d2[np.arange(space.size), assign])
        trace.append(obj)
        if prev_obj - obj < tol:
            converged = True
            break
        prev_assign = assign
        prev_obj = obj
    protocol = Protocol(assign, k)
    return KMeansResult(protocol, centroids, trace, rounds, converged)


def _assign_with_repair(pts, w, centroids, d2):
    """Nearest-centroid assignment and its weighted objective from ``d2``,
    the distance table of ``centroids``, re-seeding the first empty cluster
    to the point farthest from its nearest centroid until none is empty.
    The table is recomputed only after such a repair."""
    k = centroids.shape[0]
    for _ in range(k + 1):
        assign = np.argmin(d2, axis=1)
        nearest = d2[np.arange(pts.shape[0]), assign]
        counts = np.bincount(assign, minlength=k)
        if counts.all():
            return assign, centroids, float(w @ nearest)
        centroids = centroids.copy()
        centroids[int(np.argmin(counts))] = pts[int(np.argmax(nearest))]
        d2 = _sq_dists(pts, centroids)
    raise RuntimeError("empty-cluster repair did not converge")


# ---------------------------------------------------------------------------
# Balanced partitions
# ---------------------------------------------------------------------------

def balanced_partition(space: InputSpace, k: int,
                       flavor: str = "greedy-uniform") -> Protocol:
    """Uniform-mass protocol constructors.

    ``greedy-uniform`` places the largest remaining weight (equal weights
    in input order) into the currently lightest message, the lowest
    message index among equally light ones. ``adversarial-antipodal``
    requires a uniform prior with exactly ``2K`` points and pairs each
    point with its farthest unmatched partner, one pair per message,
    producing protocols that are optimal for the single-distractor
    discrimination objective while deliberately merging dissimilar inputs.
    """
    if flavor == "greedy-uniform":
        if k < 1:
            raise ValueError("need at least one message")
        weights = space.weights.tolist()
        heap = [(0.0, m) for m in range(k)]  # (mass, message), sorted
        assign = np.zeros(space.size, dtype=int)
        for i in np.argsort(-space.weights, kind="stable").tolist():
            mass, m = heap[0]  # the lightest, lowest index among ties
            assign[i] = m
            heapq.heapreplace(heap, (mass + weights[i], m))
        return Protocol(assign, k)
    if flavor == "adversarial-antipodal":
        if space.size != 2 * k:
            raise ValueError("adversarial pairing requires exactly 2K points")
        if not space.is_uniform():
            raise ValueError("adversarial pairing requires a uniform prior")
        assign = np.full(space.size, -1, dtype=int)
        d2 = _sq_dists(space.points, space.points)
        unmatched = list(range(space.size))
        for m in range(k):
            i, *unmatched = unmatched
            j = unmatched[int(np.argmax(d2[i, unmatched]))]
            assign[i] = assign[j] = m
            unmatched.remove(j)
        return Protocol(assign, k)
    raise ValueError(f"unknown flavor {flavor!r}")
