"""Protocol search: exhaustive argmin enumeration, alternating
reconstruction optimization, and balanced-partition constructors.

The exhaustive search evaluates the closed-form objective of the requested
game for every assignment of inputs to messages and keeps the whole argmin
set. The alternation for the reconstruction game interleaves a
nearest-output assignment step with a class-mean update step, exactly the
classic weighted k-means loop, and its objective trace is non-increasing.
Balanced partitions construct uniform-mass protocols directly: a greedy
variant for arbitrary weights and an adversarial variant that pairs each
point with its farthest unmatched partner.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .core import GameSpec, InputSpace, MessageSpace, Protocol, _class_sums, \
    _product_rows
from .errors import BudgetExceededError
from .games import substream
from .objectives import batch_objective

__all__ = [
    "SearchResult",
    "exhaustive_search",
    "batch_objective",
    "canonical_assignment",
    "KMeansResult",
    "kmeans_alternation",
    "balanced_partition",
]

ENUMERATION_BUDGET = 10 ** 7

_TIE_TOL = 1e-12  # objective values this close to the minimum are optima


class SearchResult(NamedTuple):
    value: float
    protocols: list[Protocol]


def exhaustive_search(space: InputSpace,
                      message_space: MessageSpace | int,
                      spec: GameSpec,
                      budget: int = ENUMERATION_BUDGET) -> SearchResult:
    """Evaluate every one of the ``K^N`` protocols and return the full
    argmin set (values within 1e-12 of the minimum)."""
    k = message_space.size if isinstance(message_space, MessageSpace) \
        else int(message_space)
    n = space.size
    total = k ** n
    if total > budget:
        raise BudgetExceededError(
            f"search space has {total} protocols (budget {budget})",
            required=total)
    best = math.inf
    kept: list[tuple[np.ndarray, np.ndarray]] = []  # (values, rows) slices
    for rows in _product_rows([k] * n):
        digits = np.ascontiguousarray(rows[:, ::-1])  # input 0 varies fastest
        values = batch_objective(digits, space, spec)
        if values.min() < best:
            best = float(values.min())
            kept = [(v[v <= best + _TIE_TOL], r[v <= best + _TIE_TOL])
                    for v, r in kept]
        tied = values <= best + _TIE_TOL
        kept.append((values[tied], digits[tied]))
    protocols = [Protocol(row, k) for _, rows in kept for row in rows]
    return SearchResult(best, protocols)


def canonical_assignment(protocol: Protocol) -> tuple[int, ...]:
    """Assignment relabeled by order of first appearance, for grouping
    protocols that differ only by a message permutation."""
    mapping: dict[int, int] = {}
    out = []
    for m in protocol.assignment:
        if int(m) not in mapping:
            mapping[int(m)] = len(mapping)
        out.append(mapping[int(m)])
    return tuple(out)


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
    points) or an explicit centroid array. Ties in the assignment step break
    toward the lowest message index. An empty cluster is re-seeded to the
    point farthest from its nearest centroid. The returned trace holds the
    weighted sum of squared distances after every half-step and is
    non-increasing; the final value equals the reconstruction objective of
    the returned protocol.
    """
    if not 1 <= k <= space.size:
        raise ValueError("need 1 <= K <= number of points")
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

    trace: list[float] = []
    prev_assign = None
    prev_obj = math.inf
    rounds = 0
    converged = False
    assign = np.zeros(space.size, dtype=int)
    for _ in range(max_iters):
        rounds += 1
        assign, centroids = _assign_with_repair(pts, w, centroids)
        d2 = _sq_dists(pts, centroids)
        trace.append(float(w @ d2[np.arange(space.size), assign]))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            converged = True
            break
        masses, *firsts = _class_sums(assign[None], k, w, *(w * pts.T))
        centroids = np.concatenate(firsts).T / masses.T
        d2 = _sq_dists(pts, centroids)
        obj = float(w @ d2[np.arange(space.size), assign])
        trace.append(obj)
        if prev_obj - obj < tol:
            converged = True
            break
        prev_assign = assign
        prev_obj = obj
    protocol = Protocol(assign, k)
    return KMeansResult(protocol, centroids, trace, rounds, converged)


def _sq_dists(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _assign_with_repair(pts, w, centroids):
    """Nearest-centroid assignment, re-seeding empty clusters to the point
    farthest from its nearest centroid."""
    k = centroids.shape[0]
    centroids = centroids.copy()
    for _ in range(k + 1):
        d2 = _sq_dists(pts, centroids)
        assign = np.argmin(d2, axis=1)
        empty = [m for m in range(k) if not np.any(assign == m)]
        if not empty:
            return assign, centroids
        nearest = d2[np.arange(pts.shape[0]), assign]
        centroids[empty[0]] = pts[int(np.argmax(nearest))]
    raise RuntimeError("empty-cluster repair did not converge")


# ---------------------------------------------------------------------------
# Balanced partitions
# ---------------------------------------------------------------------------

def balanced_partition(space: InputSpace, k: int,
                       flavor: str = "greedy-uniform") -> Protocol:
    """Uniform-mass protocol constructors.

    ``greedy-uniform`` places the largest remaining weight into the
    currently lightest message. ``adversarial-antipodal`` requires a uniform
    prior with exactly ``2K`` points and pairs each point with its farthest
    unmatched partner, one pair per message, producing protocols that are
    optimal for the single-distractor discrimination objective while
    deliberately merging dissimilar inputs.
    """
    if flavor == "greedy-uniform":
        order = np.argsort(-space.weights, kind="stable")
        masses = np.zeros(k)
        assign = np.zeros(space.size, dtype=int)
        for i in order:
            m = int(np.argmin(masses))
            assign[i] = m
            masses[m] += space.weights[i]
        return Protocol(assign, k)
    if flavor == "adversarial-antipodal":
        if space.size != 2 * k:
            raise ValueError("adversarial pairing requires exactly 2K points")
        if not space.is_uniform():
            raise ValueError("adversarial pairing requires a uniform prior")
        assign = np.full(space.size, -1, dtype=int)
        diff = space.points[:, None, :] - space.points[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        unmatched = list(range(space.size))
        for m in range(k):
            i = unmatched[0]
            rest = unmatched[1:]
            j = rest[int(np.argmax(d2[i, rest]))]
            assign[i] = assign[j] = m
            unmatched.remove(i)
            unmatched.remove(j)
        return Protocol(assign, k)
    raise ValueError(f"unknown flavor {flavor!r}")
