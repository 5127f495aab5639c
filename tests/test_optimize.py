import itertools
import math
import tracemalloc

import numpy as np
import pytest

from signalgames import (
    BudgetExceededError,
    GameSpec,
    InputSpace,
    LabelMap,
    Protocol,
    balanced_partition,
    disc_objective,
    disc_objective_simplified,
    exhaustive_search,
    kmeans_alternation,
    message_probabilities,
    reco_objective,
    semantic_consistency,
)
from signalgames.core import GAME_KINDS, _partition_rows
from signalgames import core, games, optimize
from signalgames.games import substream
from signalgames.optimize import batch_objective

from conftest import first_appearance, random_protocol, random_space, \
    rng_for
from oracles import classification_loss_bruteforce, \
    discrimination_loss_bruteforce, entropy_bruteforce, \
    exhaustive_unpruned, global_loss_bruteforce, greedy_balance_argmin, \
    kmeans_two_tables, labellings_bruteforce, \
    reconstruction_loss_bruteforce, sq_dists_from_zeros, \
    supervised_loss_bruteforce

LOG2 = math.log(2.0)

block_objective = optimize._block_objective  # the search's scoring seam


def _scan_every_partition(monkeypatch):
    """Switch the search's pruning off, for tests that count every
    partition scored or feed scores the real bound would contradict."""
    monkeypatch.setattr(optimize, "_completion_bound", lambda *args: None)


_D = {"reconstruction": 2, "discrimination": 3, "global": 2,
      "supervised": 2, "classification": 2}


def _oracle_instance(rng, kind, n, num_labels=2):
    """A random space of ``n`` inputs; uniform, with ``num_labels``
    balanced labels, for the labelled games."""
    pts = rng.normal(size=(n, int(rng.integers(1, 3))))
    if kind in ("supervised", "classification"):
        return InputSpace.uniform(pts), \
            LabelMap(["a", "b", "c"][:num_labels] * (n // num_labels))
    w = rng.random(n) + 0.1
    return InputSpace(pts, w / w.sum()), None


def _oracle_objective(spec, assignment, space):
    """The game's closed form, read off the brute-force optimal loss: the
    oracles return the loss of the synchronized receiver, which differs
    from the closed form by H(X) or H(Y)."""
    a = [int(m) for m in assignment]
    w = space.weights.tolist()
    if spec.kind == "reconstruction":
        means = {}
        for m in set(a):
            members = [i for i in range(len(a)) if a[i] == m]
            mass = sum(w[i] for i in members)
            means[m] = sum(w[i] * space.points[i] for i in members) / mass
        return reconstruction_loss_bruteforce(a, means, space.points, w)
    if spec.kind == "discrimination":
        return discrimination_loss_bruteforce(a, w, spec.d)
    if spec.kind == "global":
        return global_loss_bruteforce(a, w) - entropy_bruteforce(w)
    labels = spec.labels.labels
    if spec.kind == "supervised":
        return supervised_loss_bruteforce(a, w, labels, spec.d)
    label_mass = [sum(wi for wi, y in zip(w, labels) if y == value)
                  for value in spec.labels.values]
    return classification_loss_bruteforce(a, w, labels) \
        - entropy_bruteforce(label_mass)


class TestExhaustiveSearch:
    def test_reconstruction_unique_up_to_relabeling(self, space_b):
        result = exhaustive_search(space_b, 2, GameSpec("reconstruction"))
        assert abs(result.value - 0.25) < 1e-12
        assert result.partitions.tolist() == [[0, 0, 1, 1]]

    def test_discrimination_all_even_splits(self, space_b):
        result = exhaustive_search(space_b, 2, GameSpec("discrimination",
                                                        d=2))
        assert len(result.protocols) == 6
        assert abs(result.value - 0.5 * LOG2) < 1e-12
        for p in result.protocols:
            assert abs(disc_objective_simplified(p, space_b) - 0.5) < 1e-12

    def test_uneven_split_values(self, space_b):
        vals = {disc_objective_simplified(Protocol(a, 2), space_b)
                for a in itertools.product(range(2), repeat=4)}
        assert {round(v, 6) for v in vals} == {0.5, 0.625, 1.0}

    def test_single_point_trivial(self):
        space = InputSpace.uniform([[3.0]])
        result = exhaustive_search(space, 2, GameSpec("reconstruction"))
        assert result.value == 0.0 and len(result.protocols) == 2

    def test_zero_messages_rejected(self, space_b):
        with pytest.raises(ValueError, match="one message"):
            exhaustive_search(space_b, 0, GameSpec("reconstruction"))

    def test_budget_error_reports_requirement(self, space_b, monkeypatch):
        # four equal points tie all 14 partitions into at most 3 blocks:
        # the term budget, read at call time, counts those partitions
        # before any is scored, then the 56 assignment entries of the ties
        scored = []
        monkeypatch.setattr(optimize, "_block_objective",
                            lambda *a: scored.append(1) or block_objective(*a))
        space = InputSpace.uniform(np.zeros((4, 1)))
        spec = GameSpec("reconstruction")
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 56)
        assert len(exhaustive_search(space, 3, spec).partitions) == 14
        # one adjacent pair merged: mass 1/2 at within-pair variance 1/4
        assert exhaustive_search(space_b, 3, spec).value == 0.125
        for budget, required, scores in ((55, 56, True), (13, 14, False)):
            monkeypatch.setattr(games, "EXACT_TERM_BUDGET", budget)
            scored.clear()
            with pytest.raises(BudgetExceededError) as exc:
                exhaustive_search(space, 3, spec)
            assert exc.value.required == required
            assert bool(scored) == scores

    def test_partition_count_matches_enumeration(self):
        for n in range(1, 9):
            for k in range(1, 7):
                rows = sum(len(r) for r, _ in _partition_rows(n, k))
                assert optimize._partition_count(n, k, rows) == (rows, True)
                # a stop just below the count still passes the limit
                assert optimize._partition_count(n, k, rows - 1)[0] == rows

    def test_partition_count_stops_past_the_limit(self):
        # the count never falls as inputs are added: for 10^5 inputs into
        # at most 10^5 blocks it stops at the 14 inputs whose Bell number,
        # 190,899,322, first passes 10^8, and reports that lower bound
        assert optimize._partition_count(10 ** 5, 10 ** 5, 10 ** 8) == \
            (190_899_322, False)
        assert optimize._partition_count(14, 14, 10 ** 8) == \
            (190_899_322, True)
        # 2^(i-1) partitions of i inputs into at most 2 blocks
        assert optimize._partition_count(10 ** 6, 2, 10 ** 8) == \
            (2 ** 27, False)

    def test_all_tie_labels_every_protocol(self, monkeypatch):
        # six equal points tie all 122 partitions into at most 3 blocks,
        # 732 entries; their labellings are all 3^6 = 729 protocols
        space = InputSpace.uniform(np.zeros((6, 1)))
        spec = GameSpec("reconstruction")
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 6 * 122)
        result = exhaustive_search(space, 3, spec)
        assert len(result.partitions) == 122
        assert sorted(tuple(p.assignment.tolist()) for p in result.protocols) \
            == list(itertools.product(range(3), repeat=6))
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 6 * 122 - 1)
        with pytest.raises(BudgetExceededError) as exc:
            exhaustive_search(space, 3, spec)
        assert exc.value.required == 6 * 122

    def test_rescans_when_ties_outgrow_the_budget(self, monkeypatch):
        # every partition but the last, 0122, ties at 1 and it scores 0:
        # one row per batch, so the scan holds at most 14 / 4 = 3 tied
        # rows before it sees the minimum, and a second scan keeps 0122
        def score(rows, *rest):
            scored.append(len(rows))
            return np.where((rows == [0, 1, 2, 2]).all(axis=1), 0.0, 1.0)

        scored = []
        _scan_every_partition(monkeypatch)
        monkeypatch.setattr(optimize, "_block_objective", score)
        monkeypatch.setattr(core, "_PARTITION_BLOCK", 1)
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 14)
        space = InputSpace.uniform(np.arange(4.0)[:, None])
        result = exhaustive_search(space, 3, GameSpec("reconstruction"))
        assert scored == [1] * 28
        assert result.value == 0.0
        assert result.partitions.tolist() == [[0, 1, 2, 2]]
        assert sorted(p.assignment.tolist() for p in result.protocols) \
            == sorted([a, b, c, c] for a, b, c in itertools.permutations(
                range(3)))
        # when all 14 tie, the scan drops the 4 rows, 16 entries, it holds
        # on its first step past the budget, and the second scan refuses
        # them at its 4th row
        scored.clear()
        monkeypatch.setattr(optimize, "_block_objective", lambda rows, *rest:
                            scored.append(len(rows)) or np.zeros(len(rows)))
        with pytest.raises(BudgetExceededError) as exc:
            exhaustive_search(space, 3, GameSpec("reconstruction"))
        assert exc.value.required == 16
        assert "needs at least 16 assignment entries" in str(exc.value)
        assert scored == [1] * 18

    def test_second_scan_refuses_ties_at_a_lower_minimum(self, monkeypatch):
        # the 5 partitions 000x/001x tie at 1 and the scan drops them on the
        # 4th; the 9 others tie at 0, so the minimum moves after the drop
        # and a second scan refuses the 4 rows, 16 entries, it holds by 0110
        def score(rows, *rest):
            scored.append(len(rows))
            return np.where(rows[:, 1] == 0, 1.0, 0.0)

        scored = []
        _scan_every_partition(monkeypatch)
        monkeypatch.setattr(optimize, "_block_objective", score)
        monkeypatch.setattr(core, "_PARTITION_BLOCK", 1)
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 14)
        space = InputSpace.uniform(np.arange(4.0)[:, None])
        with pytest.raises(BudgetExceededError) as exc:
            exhaustive_search(space, 3, GameSpec("reconstruction"))
        assert exc.value.required == 16
        assert "needs at least 16 assignment entries" in str(exc.value)
        assert scored == [1] * (14 + 9)

    def test_scan_holds_rows_within_the_budget(self, monkeypatch):
        # 20 equal points tie all 2^19 partitions into at most 2 blocks,
        # 20 * 2^19 entries; at a budget of 2^19 the scan holds at most
        # 2^19 / 20 of the rows, about 28 B each (15 MB for all of them),
        # and a second scan refuses the ties at the row past the budget
        space = InputSpace.uniform(np.zeros((20, 1)))
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 2 ** 19)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as exc:
                exhaustive_search(space, 2, GameSpec("reconstruction"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "needs at least" in str(exc.value)
        assert 2 ** 19 < exc.value.required < 20 * 2 ** 19
        assert peak < 4 * 2 ** 20

    def test_counts_partitions_not_labelled_protocols(self):
        # 3^15 = 14,348,907 labelled protocols, 2,391,485 partitions; the
        # equal-mass splits 15!/(5!^3 3!) tie
        space = InputSpace.uniform(np.arange(15.0)[:, None])
        result = exhaustive_search(space, 3, GameSpec("discrimination", d=2))
        assert len(result.partitions) == 126_126
        assert len(result.protocols) == 6 * 126_126

    def test_batch_matches_oracles(self):
        rng = rng_for("batch-objective")
        for kind in GAME_KINDS:
            space, labels = _oracle_instance(
                rng, kind, 2 * int(rng.integers(1, 4)))
            spec = GameSpec(kind, d=_D[kind], labels=labels)
            rows = np.stack([random_protocol(rng, space.size, 3).assignment
                             for _ in range(8)])
            got = batch_objective(rows, space, spec)
            want = [_oracle_objective(spec, r, space) for r in rows]
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), kind

    @pytest.mark.parametrize("kind,d,k", [
        *(pytest.param(kind, _D[kind], 3, id=kind) for kind in GAME_KINDS),
        # three labels, so that three candidates are allowed; two messages,
        # so that no optimum is label-pure
        pytest.param("supervised", 3, 2, id="supervised-d3")])
    def test_argmin_set_matches_oracles(self, kind, d, k):
        rng = rng_for(f"argmin-{kind}")
        space, labels = _oracle_instance(rng, kind, 6, num_labels=max(2, d))
        _search_matches_bruteforce(space, k, GameSpec(kind, d=d,
                                                      labels=labels))


def _search_matches_bruteforce(space, k, spec):
    """Check the search's value and labelled argmin set against every
    labelled protocol scored by the oracles: the same protocols, each
    once, in any order. Returns the search result and the brute-force
    argmin list, sorted."""
    rows = list(itertools.product(range(k), repeat=space.size))
    values = np.array([_oracle_objective(spec, r, space) for r in rows])
    best = values.min()
    want = [r for r, v in zip(rows, values) if v <= best + 1e-9]
    result = exhaustive_search(space, k, spec)
    assert abs(result.value - best) < 1e-12
    got = [tuple(p.assignment.tolist()) for p in result.protocols]
    assert len(got) == len(want) == len(set(got))
    assert sorted(got) == want
    return result, want


def _edge_instance(kind, case):
    """Small instances at the edges of the partition enumeration: more
    messages than inputs, one message, one input, and a weighted space
    whose mirror symmetry ties several partitions."""
    n, k = {"k_above_n": (3, 5), "k1": (4, 1), "n1": (1, 3),
            "weighted_ties": (6, 3)}[case]
    points = np.array([-2.0, 2.0, -1.0, 1.0, -0.5, 0.5])[:n]
    weights = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])[:n]
    space = InputSpace(points, weights / weights.sum())
    labels = LabelMap(["a", "b", "b", "a", "a", "b"][:n]) \
        if kind in ("supervised", "classification") else None
    return space, k, GameSpec(kind, d=_D[kind], labels=labels)


class TestPartitionSearch:
    """The partition search against a brute-force scan of every labelled
    protocol, scored by the oracles."""

    @pytest.mark.parametrize("kind,case", [
        (kind, case) for kind in GAME_KINDS
        for case in ("k_above_n", "k1", "n1", "weighted_ties")
        # one input carries one label, and the supervised game needs two
        if (kind, case) != ("supervised", "n1")])
    def test_matches_labelled_bruteforce(self, kind, case):
        space, k, spec = _edge_instance(kind, case)
        result, want = _search_matches_bruteforce(space, k, spec)
        assert len(result.protocols) == sum(
            math.perm(k, int(row.max()) + 1) for row in result.partitions) \
            == optimize.labelled_count(result.partitions, k)
        partitions = [tuple(row) for row in result.partitions.tolist()]
        assert len(set(partitions)) == len(partitions)
        assert set(partitions) == {first_appearance(r) for r in want}
        if case == "weighted_ties":
            assert len(partitions) > 1

    def test_view_order_matches_itertools(self):
        # seven tied partitions, of 2 and of 3 blocks
        space, k, spec = _edge_instance("supervised", "weighted_ties")
        result = exhaustive_search(space, k, spec)
        assert {int(row.max()) for row in result.partitions} == {1, 2}
        assert [tuple(p.assignment.tolist()) for p in result.protocols] \
            == labellings_bruteforce(result.partitions.tolist(), k)

    def test_protocols_sequence(self, space_b):
        result = exhaustive_search(space_b, 3, GameSpec("discrimination"))
        protocols = result.protocols
        every = labellings_bruteforce(result.partitions.tolist(), 3)
        assert len(protocols) == len(every) == 36
        for index in (0, 5, -1, -7, -36):
            assert tuple(protocols[index].assignment) == every[index]
        for part in (slice(1, 3), slice(None, None, -5), slice(-4, None),
                     slice(40, None)):
            view = [tuple(p.assignment) for p in protocols[part]]
            assert len(protocols[part]) == len(view)
            assert view == every[part]
        assert protocols[1:][2:][-1] == protocols[-1]
        joined = protocols + protocols[:1]
        assert isinstance(joined, list) and joined == [*protocols,
                                                       protocols[0]]
        for index in (36, -37):
            with pytest.raises(IndexError):
                protocols[index]
        with pytest.raises(IndexError):
            protocols[:2][2]
        # plain ints, so that arithmetic on the array cannot wrap around
        assert result.partitions.dtype == int
        assert not result.partitions.flags.writeable

    def test_counts_past_sys_maxsize(self):
        # four equal points tie all 15 partitions, whose labellings by
        # 10^5 messages are every protocol: 10^20, past len()
        space = InputSpace.uniform(np.zeros((4, 1)))
        result = exhaustive_search(space, 10 ** 5, GameSpec("reconstruction"))
        assert optimize.labelled_count(result.partitions, 10 ** 5) == 10 ** 20
        with pytest.raises(OverflowError):
            len(result.protocols)
        assert result.protocols[0] == Protocol([0, 0, 0, 0], 10 ** 5)
        assert result.protocols[-1] == Protocol(
            [99_999, 99_998, 99_997, 99_996], 10 ** 5)


def _block_scores(space, k, spec, monkeypatch):
    """The search's result and each block it scored, with the scores."""
    blocks = []

    def record(rows, *rest):
        values = block_objective(rows, *rest)
        blocks.append((rows.copy(), values))
        return values

    monkeypatch.setattr(optimize, "_block_objective", record)
    return exhaustive_search(space, k, spec), blocks


def _reference_scan(space, k, spec):
    """The minimum and tied partitions of a scan that scores each block of
    partitions through ``batch_objective``."""
    scored = [(rows, batch_objective(rows, space, spec))
              for rows, _ in _partition_rows(space.size, k)]
    best = min(float(v.min()) for _, v in scored)
    tied = [r[v <= best + optimize._TIE_TOL] for r, v in scored]
    return best, np.concatenate(tied, dtype=int)


_BIT_SPECS = [("reconstruction", 2), ("discrimination", 2),
              ("discrimination", 3), ("global", 2), ("supervised", 2),
              ("supervised", 3), ("classification", 2)]


class TestSearchScoresFromCarriedSums:
    """The search scores each block of partitions from the class sums the
    enumerator carries along the prefixes; every score has the bits of
    ``batch_objective`` on the block's rows."""

    @pytest.mark.parametrize("kind,d", [
        pytest.param(kind, d, id=f"{kind}-d{d}") for kind, d in _BIT_SPECS])
    @pytest.mark.parametrize("n,k", [(9, 1), (8, 2), (9, 3), (7, 5), (5, 7),
                                     (9, 9), (9, 12)])
    def test_bits_match_batch_objective(self, kind, d, n, k, monkeypatch):
        # weighted and seeded, with three labels of unequal mass; at n=9
        # and k >= 9 the carried sums have 9 columns, and blocks that use
        # fewer classes are reduced over their own width, as batch_objective
        # reduces them (past 8 classes, add.reduce groups pairwise)
        rng = rng_for(f"carried-sums-{kind}-{d}-{n}-{k}")
        w = rng.random(n) + 0.1
        space = InputSpace(rng.normal(size=(n, int(rng.integers(1, 3)))),
                           w / w.sum())
        labels = LabelMap([0, 1, 2] + rng.integers(0, 3, n - 3).tolist())
        spec = GameSpec(kind, d=d, labels=labels)
        monkeypatch.setattr(core, "_PARTITION_BLOCK", 512)
        _scan_every_partition(monkeypatch)
        result, blocks = _block_scores(space, k, spec, monkeypatch)
        assert sum(len(r) for r, _ in blocks) \
            == optimize._partition_count(n, k, 10 ** 8)[0]
        for rows, values in blocks:
            want = batch_objective(rows, space, spec)
            assert np.array_equal(values.view(np.int64),
                                  want.view(np.int64))
        best, tied = _reference_scan(space, k, spec)
        assert result.value.hex() == best.hex()
        assert np.array_equal(result.partitions, tied)
        if k >= 9:  # blocks of fewer and of all 9 classes were scored
            assert {int(r.max()) + 1 for r, _ in blocks} >= {8, 9}

    def test_carried_width_is_capped_by_the_inputs(self):
        # four equal points into at most 10^5 messages: the sums carry
        # min(K, N) = 4 columns, not 10^5 per row
        space = InputSpace.uniform(np.zeros((4, 1)))
        spec = GameSpec("reconstruction")
        tracemalloc.start()
        try:
            result = exhaustive_search(space, 10 ** 5, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.partitions) == 15
        assert peak < 2 ** 20


def _pruning_instance(rng, kind, shape):
    """A seeded search instance: up to 10 inputs in 1 to 3 dimensions,
    ``K`` from 1 to 6 or at least ``N``, uniform or random weights, d = 2
    or 3, and points drawn normal, from a few integers (duplicates), in
    mirror pairs about the origin, or within 1e-7 of one point."""
    d = int(rng.integers(2, 4))
    labelled = kind in ("supervised", "classification")
    n = int(rng.integers(d if labelled else 1, 11))
    dim = int(rng.integers(1, 4))
    if shape == "normal":
        pts = rng.normal(size=(n, dim))
    elif shape == "duplicates":
        pts = rng.integers(0, 3, size=(n, dim)).astype(float)
    elif shape == "mirror":
        half = rng.normal(size=((n + 1) // 2, dim))
        pts = np.concatenate([half, -half])[:n]
    else:
        pts = 1.0 + 1e-7 * rng.normal(size=(n, dim))
    if rng.random() < 0.5:
        space = InputSpace.uniform(pts)
    else:
        w = rng.random(n) + 0.1
        space = InputSpace(pts, w / w.sum())
    k = int(rng.choice([1, 2, 3, 4, 5, 6, n, n + 3]))
    labels = None
    if labelled:  # d labels, each used at least once
        labels = LabelMap(rng.permutation(np.arange(n) % d).tolist())
    return space, k, GameSpec(kind, d=d, labels=labels)


def _rows_scored(space, k, spec, monkeypatch):
    """The search's result and the number of partitions it scored."""
    result, blocks = _block_scores(space, k, spec, monkeypatch)
    return result, sum(len(rows) for rows, _ in blocks)


# seeded instances per shape: more for the games the search prunes
_INSTANCES = {"reconstruction": 30, "discrimination": 15, "global": 15}

MASS_BOUND_FROM = optimize._MASS_BOUND_FROM
BUDGET = games.EXACT_TERM_BUDGET


class TestPruning:
    """The reconstruction, discrimination and global searches skip
    partition prefixes whose completions all score above the optimum; the
    value, tie set and their order are those of the scan that scores every
    partition."""

    @pytest.fixture(autouse=True)
    def _mass_games_prune_at_every_size(self, monkeypatch):
        # so that the small instances here run the mass games' bound too
        monkeypatch.setattr(optimize, "_MASS_BOUND_FROM", 0)

    @pytest.mark.parametrize("kind", ["discrimination", "global"])
    def test_mass_games_prune_past_a_size(self, kind, monkeypatch):
        # below 16,384 partitions the mass games' bound does not repay its
        # fixed cost, so those searches scan every partition
        monkeypatch.setattr(optimize, "_MASS_BOUND_FROM", MASS_BOUND_FROM)
        spec = GameSpec(kind)
        for n, k, pruned in ((10, 3, False), (11, 3, True), (9, 4, False),
                             (10, 4, True)):
            space = InputSpace.uniform(np.arange(float(n)))
            count = optimize._partition_count(n, k, 10 ** 8)[0]
            bound = optimize._completion_bound(space, k, spec, count)
            assert (bound is not None) == pruned
            _, scored = _rows_scored(space, k, spec, monkeypatch)
            assert (scored < count) == pruned

    @pytest.mark.parametrize("shape", ["normal", "duplicates", "mirror",
                                       "near-equal"])
    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_matches_the_unpruned_scan(self, kind, shape):
        rng = rng_for(f"pruning-{kind}-{shape}")
        for _ in range(_INSTANCES.get(kind, 6)):
            space, k, spec = _pruning_instance(rng, kind, shape)
            result = exhaustive_search(space, k, spec)
            best, rows = exhaustive_unpruned(space, k, spec)
            assert result.value.hex() == best.hex()
            assert np.array_equal(result.partitions, rows)
            assert optimize.labelled_count(result.partitions, k) \
                == optimize.labelled_count(rows, k)

    @pytest.mark.parametrize("kind,d", [("reconstruction", 2),
                                        ("discrimination", 2),
                                        ("discrimination", 3),
                                        ("global", 2)])
    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 4), (6, 6)])
    def test_bound_is_below_every_completion(self, kind, d, n, k):
        # the bound on each prefix, from the sums of its first inputs, is at
        # most the closed form of every completion, within the rounding
        # allowance; reconstruction's is the closed form at width N
        rng = rng_for(f"pruning-bound-{kind}-{d}-{n}-{k}")
        spec = GameSpec(kind, d=d)
        full = np.concatenate([r for r, _ in _partition_rows(n, k)])
        for points in (rng.normal(size=(n, 2)),
                       rng.integers(0, 2, size=(n, 1)).astype(float)):
            w = rng.random(n) + 0.1
            for space in (InputSpace(points, w / w.sum()),
                          InputSpace.uniform(points)):
                lower, _, _ = optimize._completion_bound(space, k, spec,
                                                         len(full))
                allowance = optimize._BOUND_SLACK * (
                    space.variance() if kind == "reconstruction" else 1.0)
                values = batch_objective(full, space, spec)
                weights, _, _ = optimize._class_layout(space, kind, None)
                checked = 0
                for width in range(1, n + 1):
                    cut = [c[:width] for c in weights]
                    for rows, sums in _partition_rows(width, k, cut):
                        bounds = lower(sums, width)
                        if bounds is None:  # no prefix could be skipped
                            continue
                        checked += 1
                        for row, bound in zip(rows, bounds):
                            below = (full[:, :width] == row).all(axis=1)
                            assert bound <= values[below].min() + allowance
                            if width == n and kind == "reconstruction":
                                assert abs(bound - values[below][0]) \
                                    <= allowance
                assert checked

    @pytest.mark.parametrize("gap", [4e-13, -4e-13])
    def test_near_tie_survives(self, gap, monkeypatch):
        # with {10s, 11s} as the third block, {0, s}{2s + e} and
        # {0}{s, 2s + e} differ by s^2 (2e + e^2) / 10, within the tie
        # tolerance but past the rounding allowance (1e-9 Var[X] is below
        # 1e-13 at s = 0.001); the far points let the bound skip prefixes
        s = 0.001
        e = 5 * gap / s ** 2
        space = InputSpace.uniform(s * np.array([0.0, 1.0, 2.0 + e,
                                                 10.0, 11.0]))
        spec = GameSpec("reconstruction")
        assert optimize._BOUND_SLACK * space.variance() < abs(gap) / 4
        result, scored = _rows_scored(space, 3, spec, monkeypatch)
        assert scored < optimize._partition_count(5, 3, 10 ** 8)[0]
        best, rows = exhaustive_unpruned(space, 3, spec)
        assert result.value.hex() == best.hex()
        assert result.partitions.tolist() == rows.tolist() \
            == [[0, 0, 1, 2, 2], [0, 1, 1, 2, 2]]

    @pytest.mark.parametrize("kind", ["reconstruction", "discrimination",
                                      "global"])
    def test_seed_below_the_optimum_is_not_the_value(self, kind,
                                                     monkeypatch):
        # a ceiling one ulp below the optimum skips no tied partition and
        # never stands in for the minimum: the value is a scored row's
        rng = rng_for(f"pruning-ceiling-{kind}")
        bound = optimize._completion_bound
        for _ in range(20):
            n = int(rng.integers(3, 10))
            w = rng.random(n) + 0.1
            space = InputSpace(rng.normal(size=(n, int(rng.integers(1, 3)))),
                               w / w.sum())
            k = int(rng.integers(2, 5))
            spec = GameSpec(kind)
            best, rows = exhaustive_unpruned(space, k, spec)
            below = float(np.nextafter(best, -np.inf))

            def lowered(*args, below=below):
                lower, _, slack = bound(*args)
                return lower, below, slack
            monkeypatch.setattr(optimize, "_completion_bound", lowered)
            result = exhaustive_search(space, k, spec)
            assert result.value.hex() == best.hex() != below.hex()
            assert np.array_equal(result.partitions, rows)

    @pytest.mark.parametrize("kind", ["reconstruction", "discrimination",
                                      "global"])
    def test_eighteen_weighted_points_score_few_partitions(self, kind,
                                                           monkeypatch):
        # 64,570,082 partitions of 18 inputs into at most 3 blocks; the
        # bound leaves under 5% of them to score (243 rows for
        # reconstruction, under 2% for the mass games)
        rng = rng_for("pruning-18")
        w = rng.random(18) + 0.1
        space = InputSpace(rng.normal(size=(18, 1)), w / w.sum())
        result, scored = _rows_scored(space, 3, GameSpec(kind), monkeypatch)
        assert scored < 64_570_082 // 20
        assert len(result.partitions) == 1

    @pytest.mark.parametrize("kind", ["reconstruction", "discrimination",
                                      "global"])
    def test_many_classes_scan_every_partition(self, kind, monkeypatch):
        # past 7 classes a row's score depends on the rows of its block,
        # so the search does not prune there
        space = InputSpace.uniform(np.arange(8.0)[:, None])
        spec = GameSpec(kind)
        assert optimize._completion_bound(space, 8, spec, 4140) is None
        assert optimize._completion_bound(space, 7, spec, 4139) is not None
        _, scored = _rows_scored(space, 8, spec, monkeypatch)
        assert scored == optimize._partition_count(8, 8, 10 ** 8)[0]

    def test_ceiling_without_kmeans(self):
        # squared distances of 1e-300 underflow, so k-means cannot repair
        # its empty clusters; the greedy balanced partition sets the ceiling
        space = InputSpace.uniform(np.array([1.0, 2.0, 0.0, 0.5, -1.0])
                                   * 1e-300)
        spec = GameSpec("reconstruction")
        with pytest.raises(RuntimeError, match="repair"):
            kmeans_alternation(space, 3)
        result = exhaustive_search(space, 3, spec)
        best, rows = exhaustive_unpruned(space, 3, spec)
        assert result.value.hex() == best.hex()
        assert np.array_equal(result.partitions, rows)

    @pytest.mark.parametrize("kind", ["supervised", "classification"])
    def test_label_games_scan_every_partition(self, kind):
        space, k, spec = _edge_instance(kind, "weighted_ties")
        assert optimize._completion_bound(space, k, spec, 10 ** 8) is None


def _optima_scored(space, k, spec, monkeypatch):
    """``optima``'s value, its blocks in a list, and the partitions scored
    before and after the blocks were read."""
    scored, score = [], optimize._block_objective
    monkeypatch.setattr(optimize, "_block_objective", lambda rows, *rest:
                        scored.append(len(rows)) or score(rows, *rest))
    value, blocks = optimize.optima(space, k, spec)
    before = sum(scored)
    blocks = list(blocks)
    return value, blocks, before, sum(scored)


# instances whose ties outgrow a budget that admits their partitions
_TIE_HEAVY = {
    "reconstruction": (np.zeros(8), 3, None),  # all 1,094 partitions tie
    "discrimination": (np.zeros(8), 3, None),  # 280 of 1,094
    "global": (np.zeros(8), 3, None),
    "supervised": (np.zeros(5), 4, [0, 0, 0, 0, 1]),  # 14 of 51
    "classification": (np.zeros(5), 4, [0, 0, 0, 0, 1]),
}


class TestOptima:
    """``optima`` gives the minimum and the tied partitions, block by
    block, of the scan that scores every partition: held by the first
    pass while their entries fit the budget, else from a second scan."""

    @pytest.fixture(autouse=True)
    def _mass_games_prune_at_every_size(self, monkeypatch):
        monkeypatch.setattr(optimize, "_MASS_BOUND_FROM", 0)

    @staticmethod
    def check(value, blocks, k, best, rows):
        assert value.hex() == best.hex()
        assert all(len(b) and b.dtype == np.min_scalar_type(k - 1)
                   for b in blocks)
        assert np.array_equal(np.concatenate(blocks, dtype=int), rows)

    @pytest.mark.parametrize("shape", ["normal", "duplicates", "mirror",
                                       "near-equal"])
    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_matches_the_referee_at_the_tie_budget(self, kind, shape,
                                                   monkeypatch):
        # each instance at the budget its ties just fit, where the first
        # pass holds them, and one entry below it, where a second scan
        # yields them (if the partitions still fit)
        rng = rng_for(f"optima-{kind}-{shape}")
        for _ in range(6):
            space, k, spec = _pruning_instance(rng, kind, shape)
            monkeypatch.setattr(games, "EXACT_TERM_BUDGET", BUDGET)
            best, rows = exhaustive_unpruned(space, k, spec)
            count = optimize._partition_count(space.size, k, 10 ** 8)[0]
            entries = space.size * len(rows)
            for budget in {max(count, entries), max(count, entries - 1)}:
                monkeypatch.setattr(games, "EXACT_TERM_BUDGET", budget)
                value, blocks, before, after = _optima_scored(
                    space, k, spec, monkeypatch)
                self.check(value, blocks, k, best, rows)
                assert (after > before) == (entries > budget)

    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_second_scan_yields_what_the_first_would_hold(self, kind,
                                                          monkeypatch):
        points, k, labels = _TIE_HEAVY[kind]
        space = InputSpace.uniform(points[:, None])
        spec = GameSpec(kind, labels=labels and LabelMap(labels))
        best, rows = exhaustive_unpruned(space, k, spec)
        count = optimize._partition_count(space.size, k, 10 ** 8)[0]
        assert count < space.size * len(rows)
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", count)
        value, blocks, before, after = _optima_scored(space, k, spec,
                                                      monkeypatch)
        self.check(value, blocks, k, best, rows)
        assert before > 0 and after > before

    def test_minimum_moves_after_the_drop(self, monkeypatch):
        # the 5 partitions 000x/001x tie at 1 and the first pass drops them
        # on the 4th; the 9 others tie at 0, and the second scan, scoring
        # every partition again, yields them one row at a time
        _scan_every_partition(monkeypatch)
        monkeypatch.setattr(core, "_PARTITION_BLOCK", 1)
        monkeypatch.setattr(optimize, "_block_objective", lambda rows, *rest:
                            np.where(rows[:, 1] == 0, 1.0, 0.0))
        space = InputSpace.uniform(np.arange(4.0)[:, None])
        spec = GameSpec("reconstruction")
        best, rows = exhaustive_unpruned(space, 3, spec)
        assert best == 0.0 and len(rows) == 9
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 14)
        value, blocks, before, after = _optima_scored(space, 3, spec,
                                                      monkeypatch)
        self.check(value, blocks, 3, best, rows)
        assert len(blocks) == 9 and (before, after) == (14, 28)

    def test_second_scan_holds_no_tie(self, monkeypatch):
        # 20 equal points tie all 2^19 partitions into at most 2 blocks,
        # 10 MB as 1-byte strings; past the budget the second scan yields
        # them a block at a time
        space = InputSpace.uniform(np.zeros((20, 1)))
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 2 ** 19)
        tracemalloc.start()
        try:
            value, blocks = optimize.optima(space, 2,
                                            GameSpec("reconstruction"))
            tied = sum(len(rows) for rows in blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 0.0 and tied == 2 ** 19
        assert peak < 4 * 2 ** 20


class TestKMeans:
    def test_good_init_converges_in_one_update(self, space_b):
        res = kmeans_alternation(space_b, 2, init=[[0.4], [2.6]])
        assert res.protocol.assignment.tolist() == [0, 0, 1, 1]
        assert np.allclose(res.centroids.ravel(), [0.5, 2.5])
        assert abs(res.trace[-1] - 0.25) < 1e-12
        assert res.rounds <= 2 and res.converged

    def test_near_tie_init(self, space_b):
        res = kmeans_alternation(space_b, 2, init=[[1.4], [1.6]])
        assert res.protocol.assignment.tolist() == [0, 0, 1, 1]
        assert abs(res.trace[-1] - 0.25) < 1e-12

    def test_k_equals_n_reaches_zero(self, space_b):
        res = kmeans_alternation(space_b, 4, init=space_b.points)
        assert res.trace[-1] == 0.0

    def test_trace_monotone_on_random_instances(self):
        rng = rng_for("kmeans-monotone")
        for trial in range(40):
            space = random_space(rng, n_max=9, dim_max=3)
            k = int(rng.integers(1, min(space.size, 4) + 1))
            res = kmeans_alternation(space, k, seed=trial)
            assert all(b <= a + 1e-12
                       for a, b in zip(res.trace, res.trace[1:]))
            assert abs(res.trace[-1]
                       - reco_objective(res.protocol, space)) < 1e-10

    def test_final_value_at_least_exhaustive_optimum(self):
        rng = rng_for("kmeans-vs-exhaustive")
        for trial in range(10):
            space = random_space(rng, n_max=6, dim_max=2)
            k = 2
            res = kmeans_alternation(space, k, seed=trial)
            best = exhaustive_search(space, k,
                                     GameSpec("reconstruction")).value
            assert res.trace[-1] >= best - 1e-12

    def test_empty_cluster_repair(self):
        # both centroids start on the same far point; repair must fill the
        # empty cluster instead of crashing
        space = InputSpace.uniform([[0.0], [1.0], [10.0]])
        res = kmeans_alternation(space, 2, init=[[10.0], [10.0]])
        assert len(set(res.protocol.assignment.tolist())) == 2

    def test_non_finite_init_rejected(self, space_b):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                kmeans_alternation(space_b, 2, init=[[bad], [1.0]])

    def test_validates_k(self, space_b):
        with pytest.raises(ValueError):
            kmeans_alternation(space_b, 5)
        # three points, two of them equal, hold only two clusters
        with pytest.raises(ValueError, match="distinct"):
            kmeans_alternation(InputSpace.uniform([[0.0], [0.0], [1.0]]), 3)

    def test_distinct_points_counted_once(self, monkeypatch):
        # the space counts its distinct points on first use; each k-means
        # call and the search's k-means ceiling read that count
        space = InputSpace.uniform([[0.0], [1.0], [1.0], [2.0]])
        unique, calls = np.unique, []
        monkeypatch.setattr(np, "unique", lambda *args, **kwargs:
                            calls.append(1) or unique(*args, **kwargs))
        kmeans_alternation(space, 2)
        exhaustive_search(space, 3, GameSpec("reconstruction"))
        with pytest.raises(ValueError) as exc:
            kmeans_alternation(space, 4)
        assert str(exc.value) == \
            "need 1 <= K <= 3, the number of distinct points"
        assert len(calls) == 1


class TestBalancedPartition:
    def test_greedy_balances_masses(self):
        space = InputSpace(np.arange(4.0)[:, None], [0.4, 0.3, 0.2, 0.1])
        p = balanced_partition(space, 2, "greedy-uniform")
        assert p.assignment.tolist() == [0, 1, 1, 0]
        assert np.allclose(message_probabilities(p, space), [0.5, 0.5])

    def test_greedy_uniform_divisible(self):
        space = InputSpace.uniform(np.arange(6.0)[:, None])
        p = balanced_partition(space, 3, "greedy-uniform")
        assert np.allclose(message_probabilities(p, space), 1.0 / 3.0)

    def test_adversarial_farthest_pairing(self, space_b):
        p = balanced_partition(space_b, 2, "adversarial-antipodal")
        assert p.assignment.tolist() == [0, 1, 1, 0]

    def test_adversarial_requires_even_uniform(self):
        odd = InputSpace.uniform(np.arange(3.0)[:, None])
        with pytest.raises(ValueError):
            balanced_partition(odd, 2, "adversarial-antipodal")
        lopsided = InputSpace(np.arange(4.0)[:, None], [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ValueError):
            balanced_partition(lopsided, 2, "adversarial-antipodal")

    def test_unknown_flavor(self, space_b):
        with pytest.raises(ValueError):
            balanced_partition(space_b, 2, "nope")

    @pytest.mark.parametrize("d", [2, 3])
    def test_adversarial_ties_exhaustive_optimum(self, d):
        rng = rng_for(f"adversarial-optimal-{d}")
        for _ in range(6):
            k = int(rng.integers(2, 4))
            pts = rng.normal(size=(2 * k, 2))
            space = InputSpace.uniform(pts)
            protocol = balanced_partition(space, k, "adversarial-antipodal")
            spec = GameSpec("discrimination", d=d)
            best = exhaustive_search(space, k, spec).value
            assert abs(disc_objective(protocol, space, d) - best) < 1e-12

    def test_adversarial_optimum_fails_consistency_on_b(self, space_b):
        # the antipodal optimum explains nothing while the reconstruction
        # optimum is consistent
        protocol = balanced_partition(space_b, 2, "adversarial-antipodal")
        assert not semantic_consistency(protocol, space_b).consistent
        best = exhaustive_search(space_b, 2,
                                 GameSpec("reconstruction")).protocols[0]
        assert semantic_consistency(best, space_b).consistent


def _seeded_spaces(name, count):
    """Seeded spaces of 3 to 30 points in 1 to 3 dimensions: integer grids
    with duplicates and normal draws, under uniform and random weights."""
    rng = rng_for(name)
    for trial in range(count):
        n, dim = int(rng.integers(3, 31)), int(rng.integers(1, 4))
        pts = (rng.integers(0, 4, size=(n, dim)).astype(float)
               if trial % 2 else rng.normal(size=(n, dim)))
        if trial % 3:
            w = rng.random(n) + 0.05
            yield rng, InputSpace(pts, w / w.sum())
        else:
            yield rng, InputSpace.uniform(pts)


class TestBitsMatchTheReferenceLoops:
    """The search loops against references that do every operation the
    first versions did: k-means forming two distance tables per round,
    the greedy balancer with one argmin per input, and distances summed
    into zeros. Equal bytes, not a tolerance."""

    @staticmethod
    def _assert_kmeans_bits(space, k, init, max_iters=30, tol=0.0):
        got = kmeans_alternation(space, k, init=init, max_iters=max_iters,
                                 tol=tol)
        assign, centroids, trace, rounds, converged, repaired = \
            kmeans_two_tables(space.points, space.weights, init, max_iters,
                              tol)
        assert got.protocol.assignment.tobytes() == assign.tobytes()
        assert got.centroids.tobytes() == centroids.tobytes()
        assert [v.hex() for v in got.trace] == [v.hex() for v in trace]
        assert (got.rounds, got.converged) == (rounds, converged)
        return repaired

    def test_kmeans_on_seeded_instances(self):
        repairs = 0
        for trial, (rng, space) in enumerate(
                _seeded_spaces("kmeans-reference", 40)):
            distinct = len(np.unique(space.points, axis=0))
            k = int(rng.integers(1, min(distinct, 8) + 1))
            init = space.points[substream(trial, "kmeans-init").choice(
                space.size, size=k, replace=False)]
            assert kmeans_alternation(space, k, seed=trial).trace == \
                kmeans_alternation(space, k, init=init).trace
            repairs += len(self._assert_kmeans_bits(space, k, init))
            # every centroid on one far point: repairs before any update
            far = np.full((k, space.dim), 10.0)
            repairs += len(self._assert_kmeans_bits(space, k, far))
            self._assert_kmeans_bits(space, k, init, max_iters=3, tol=1e-3)
        assert repairs > 0

    def test_kmeans_repair_in_the_first_round(self):
        space = InputSpace.uniform([[0.0], [1.0], [10.0]])
        assert self._assert_kmeans_bits(space, 2, [[10.0], [10.0]]) == [1]

    def test_kmeans_repair_in_a_later_round(self):
        # round 1 gives the clusters {7, 8}, {1, 2} and {3, 6}; in round 2
        # 3 and 6 tie between their centroid and a lower index, so the
        # third cluster empties and the table is formed again after it
        space = InputSpace.uniform([[3.0], [1.0], [7.0], [6.0], [2.0], [8.0]])
        repaired = self._assert_kmeans_bits(space, 3, [[9.0], [0.0], [5.0]])
        assert repaired == [2]

    def test_greedy_on_seeded_instances(self):
        for rng, space in _seeded_spaces("greedy-reference", 40):
            k = int(rng.integers(1, space.size + 3))
            got = balanced_partition(space, k, "greedy-uniform")
            want = greedy_balance_argmin(space.weights, k)
            assert got.assignment.tobytes() == want.tobytes()

    @pytest.mark.parametrize("weights", [
        [0.4, 0.2, 0.2, 0.1, 0.1],  # masses tie again after two steps
        [0.125] * 8,  # every step is a tie
        [0.3, 0.1, 0.1, 0.2, 0.1, 0.2],
        [1 / 3] * 3,
    ])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
    def test_greedy_ties_go_to_the_lowest_message(self, weights, k):
        space = InputSpace(np.arange(len(weights), dtype=float)[:, None],
                           np.asarray(weights) / sum(weights))
        got = balanced_partition(space, k, "greedy-uniform").assignment
        assert got.tobytes() == \
            greedy_balance_argmin(space.weights, k).tobytes()

    def test_greedy_equal_weights_deal_messages_in_turn(self):
        space = InputSpace.uniform(np.arange(8.0)[:, None])
        got = balanced_partition(space, 3, "greedy-uniform").assignment
        assert got.tolist() == [0, 1, 2, 0, 1, 2, 0, 1]

    def test_greedy_rejects_zero_messages(self, space_b):
        with pytest.raises(ValueError, match="at least one message"):
            balanced_partition(space_b, 0, "greedy-uniform")

    @pytest.mark.parametrize("a, b", [
        (np.array([[0.0, 1.0], [2.0, -3.0]]),
         np.array([[0.0, 1.0], [2.0, -3.0], [0.5, 0.5]])),  # equal rows
        (np.array([[1e200], [-1e200]]), np.array([[-1e200], [0.0]])),  # inf
        (np.array([[1e200, 0.0], [0.0, 1e155]]),
         np.array([[0.0, -1e155], [-1e200, 1.0]])),  # inf in either column
        (np.zeros((3, 0)), np.zeros((2, 0))),  # no coordinates
        (np.arange(6).reshape(3, 2), np.arange(4).reshape(2, 2)),  # ints
        (np.zeros((0, 2)), np.ones((4, 2))),
    ])
    def test_sq_dists_cases(self, a, b):
        got = core._sq_dists(a, b)
        want = sq_dists_from_zeros(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_sq_dists_equal_rows_are_exactly_zero(self):
        pts = rng_for("sq-dists-equal").normal(size=(6, 3))
        assert not core._sq_dists(pts, pts).diagonal().any()

    def test_sq_dists_on_seeded_instances(self):
        for rng, space in _seeded_spaces("sq-dists-reference", 20):
            other = space.points[rng.permutation(space.size)[:5]] * 3.0
            for a, b in ((space.points, space.points),
                         (space.points, other)):
                assert core._sq_dists(a, b).tobytes() == \
                    sq_dists_from_zeros(a, b).tobytes()

    def test_sq_dists_column_mismatch_raises(self):
        with pytest.raises(ValueError):
            core._sq_dists(np.zeros((2, 0)), np.zeros((2, 1)))
