import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from signalgames import (
    BudgetExceededError,
    GameSpec,
    InputSpace,
    MessageSpace,
    Protocol,
    ReconstructionReceiver,
    non_degeneracy,
    optimal_constant_receiver,
    receiver_simplicity,
    semantic_consistency,
    simplicity_constant,
    spatial_meaningfulness,
    synchronized_receiver,
    synchronized_sender,
    TabularDiscriminationReceiver,
)
from signalgames import consistency, core, games, io
from signalgames.games import SynchronizedDiscriminationReceiver

from conftest import random_space, rng_for
from oracles import conditional_pairwise_bruteforce, lipschitz_bruteforce, \
    materialize_discrimination_table, worst_ratio_unpruned

LOG2 = math.log(2.0)


class TestSemanticConsistency:
    def test_clustered_split(self, space_b, split):
        res = semantic_consistency(split, space_b)
        assert res.consistent
        assert abs(res.explained_variance - 1.0) < 1e-12
        assert abs(res.unexplained_variance - 0.25) < 1e-12

    def test_anti_split(self, space_b, anti):
        res = semantic_consistency(anti, space_b)
        assert not res.consistent
        assert res.explained_variance == 0.0
        assert res.boundary

    def test_lossless(self, space_b):
        res = semantic_consistency(Protocol.identity(4), space_b)
        assert res.consistent
        assert abs(res.explained_variance - 1.25) < 1e-12
        assert res.unexplained_variance == 0.0


class TestSpatialMeaningfulness:
    def test_close_messages_merge_everything(self, space_b, split):
        # messages one apart: at eps = 1 all pairs merge, conditional equals
        # unconditional, so the strict requirement fails
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        res = spatial_meaningfulness(split, space_b, ms, eps0=1.0)
        assert not res.meaningful
        top = [t for t in res.thresholds if t.epsilon == 1.0][0]
        assert top.boundary and not top.strict

    def test_far_messages_keep_classes_apart(self, space_b, split):
        # eps0 below eps_M: only same-message pairs merge (warned, since the
        # plain definition asks for eps0 >= eps_M)
        ms = MessageSpace.from_vectors([[0.0], [4.0]])
        with pytest.warns(UserWarning, match="below eps_M"):
            res = spatial_meaningfulness(split, space_b, ms, eps0=1.0)
        assert res.meaningful
        only = res.thresholds[0]
        assert only.epsilon == 0.0
        assert abs(only.conditional - 0.5) < 1e-12
        assert abs(only.unconditional - 2.5) < 1e-12

    def test_nonpositive_eps0_rejected(self, space_b, split):
        ms = MessageSpace.from_vectors([[0.0], [4.0]])
        with pytest.raises(ValueError):
            spatial_meaningfulness(split, space_b, ms, eps0=0.0)

    def test_eps_m_scanned_only_when_it_can_warn(self, space_b, split,
                                                  monkeypatch):
        calls = []
        scan = MessageSpace.epsilon_min
        monkeypatch.setattr(MessageSpace, "epsilon_min",
                            lambda self: calls.append(1) or scan(self))
        ms = MessageSpace.from_vectors([[0.0], [4.0], [1.0]])
        # the used pair at distance 4 is within eps0, so eps_M <= eps0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spatial_meaningfulness(split, space_b, ms, eps0=4.0)
        assert calls == []
        # no used pair within eps0: eps_M = 1 decides the warning
        with pytest.warns(UserWarning, match="below eps_M"):
            spatial_meaningfulness(split, space_b, ms, eps0=0.5)
        assert calls == [1]
        spatial_meaningfulness(split, space_b, ms)
        assert calls == [1, 1]

    def test_message_pairs_past_the_budget_exit_before_any_distance(
            self, monkeypatch):
        # 12 inputs on 12 distinct messages: 144 message pairs, checked
        # before the U x U distances or eps_M are formed
        space = InputSpace.uniform(np.arange(12.0)[:, None])
        protocol = Protocol(np.arange(12), 12)
        ms = MessageSpace.from_vectors(np.arange(12.0)[:, None])
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 144)
        assert spatial_meaningfulness(protocol, space, ms).meaningful
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 143)

        def fail(*args):
            raise AssertionError("distances formed past the budget")

        monkeypatch.setattr(MessageSpace, "distances", fail)
        with pytest.raises(BudgetExceededError,
                           match="spatial meaningfulness needs 144 message "
                                 "pairs") as e:
            spatial_meaningfulness(protocol, space, ms)
        assert e.value.required == 144

    def test_conditionals_match_bruteforce(self):
        rng = rng_for("spatial-oracle")
        for _ in range(10):
            space = random_space(rng, n_max=6)
            k = int(rng.integers(2, 4))
            protocol = Protocol(rng.integers(0, k, size=space.size), k)
            vecs = np.sort(rng.normal(size=k))[:, None] * 3.0
            ms = MessageSpace.from_vectors(vecs)
            every = np.arange(k)
            res = spatial_meaningfulness(protocol, space, ms,
                                         eps0=float(
                                             ms.distances(every, every).max()))
            dist = ms.distances(every, every).tolist()
            for t in res.thresholds:
                eps = t.epsilon if t.epsilon > 0 else \
                    min(v for row in dist for v in row if v > 0) / 2
                want = conditional_pairwise_bruteforce(
                    protocol.assignment.tolist(), dist, space.points,
                    space.weights.tolist(), eps)
                assert abs(t.conditional - want) < 1e-10

    def test_sorted_sweep_matches_bruteforce(self):
        # many messages at tied distances: Hamming sequences and points of
        # an integer grid, so every positive distance is at least 1
        rng = rng_for("spatial-sweep-oracle")
        for case in range(20):
            space = random_space(rng, n_max=10)
            k = int(rng.integers(2, 9))
            if case % 2:
                atoms = rng.choice(27, size=k, replace=False)
                ms = MessageSpace.symbol_sequences(
                    [[a // 9, a // 3 % 3, a % 3] for a in atoms], 3)
            else:
                grid = rng.choice(25, size=k, replace=False)
                ms = MessageSpace.from_vectors(
                    np.stack([grid // 5, grid % 5], axis=1).astype(float))
            protocol = Protocol(rng.integers(0, k, size=space.size), k)
            dist = ms.distances(np.arange(k), np.arange(k))
            res = spatial_meaningfulness(protocol, space, ms,
                                         eps0=float(dist.max()))
            used = protocol.used_messages()
            realized = sorted({float(v) for v in dist[np.ix_(used, used)].flat
                               if v > 0})
            assert [t.epsilon for t in res.thresholds] == [0.0] + realized
            for t in res.thresholds:
                eps = t.epsilon if t.epsilon > 0 else 0.5
                want = conditional_pairwise_bruteforce(
                    protocol.assignment.tolist(), dist.tolist(),
                    space.points, space.weights.tolist(), eps)
                assert not t.vacuous
                assert abs(t.conditional - want) < 1e-10

    def test_spatial_implies_semantic(self):
        rng = rng_for("spatial-implies-semantic")
        hits = 0
        for _ in range(150):
            space = random_space(rng, n_max=6)
            k = int(rng.integers(2, 4))
            protocol = Protocol(rng.integers(0, k, size=space.size), k)
            ms = MessageSpace.from_vectors(
                (np.arange(k) * 2.0)[:, None])
            res = spatial_meaningfulness(protocol, space, ms, eps0=2.0)
            if res.meaningful:
                hits += 1
                assert semantic_consistency(protocol, space).consistent
        assert hits >= 8  # the implication was actually exercised


class TestReceiverSimplicity:
    def test_constant_receiver(self, space_b):
        recv = ReconstructionReceiver(np.asarray([[1.5], [1.5]]))
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        res = receiver_simplicity(recv, 1.0, space_b, ms)
        assert res.simple and res.worst_ratio == 0.0

    def test_antipodal_outputs_fail(self):
        # two messages one apart mapping to points (1,0) and (0,1) on a
        # unit-variance space: ratio sqrt(2) far exceeds k ~ 0.207
        space = InputSpace.uniform([[0.0], [2.0]])  # Var = 1
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        recv = ReconstructionReceiver(np.asarray([[1.0, 0.0], [0.0, 1.0]]))
        res = receiver_simplicity(recv, 1.0, space, ms)
        assert not res.simple
        assert abs(res.worst_ratio - math.sqrt(2.0)) < 1e-12
        assert abs(res.k - (math.sqrt(2) - 1) / 2) < 1e-12

    def test_output_distance_past_float64_is_infinite(self, space_b):
        # the squared output gap (1e308)^2 overflows: an infinite ratio,
        # not simple, and no overflow warning
        recv = ReconstructionReceiver(np.asarray([[1e308], [0.0]]))
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        res = receiver_simplicity(recv, 1.0, space_b, ms)
        assert not res.simple and res.worst_ratio == math.inf

    def test_duplicate_domain_diagnostic(self):
        # two indices carrying the same point embed two queries identically
        # while the receiver answers them differently
        from signalgames import TabularDiscriminationReceiver
        space = InputSpace.uniform([[0.0], [0.0], [1.0]])
        table = {
            (0, (0, 2)): np.asarray([1.0, 0.0]),
            (0, (1, 2)): np.asarray([0.5, 0.5]),
        }
        recv = TabularDiscriminationReceiver(2, 2, table)
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        res = receiver_simplicity(recv, 1.0, space, ms)
        assert not res.simple and res.diagnostic is not None
        assert math.isinf(res.worst_ratio)

    def test_positional_mode_is_stricter(self, space_b, split):
        # a receiver whose outputs only permute must pass canonically but
        # can fail positionally
        recv = materialize_discrimination_table(
            SynchronizedDiscriminationReceiver(split, 2), space_b)
        ms = MessageSpace.from_vectors([[0.0], [100.0]])
        eps0 = 100.0
        canonical = receiver_simplicity(recv, eps0, space_b, ms)
        positional = receiver_simplicity(recv, eps0, space_b, ms,
                                         output_mode="positional")
        assert canonical.worst_ratio <= positional.worst_ratio

    def test_matches_pair_loop(self, monkeypatch):
        # the row-block kernel against a plain double loop over unordered
        # pairs, at block sizes of 1 and 7 elements and the default
        rng = rng_for("simplicity-oracle")
        blocks = (1, 7, core._PAIR_BLOCK)
        seen = dict.fromkeys(("reconstruction", "undefined", "d2", "d3",
                              "symbols", "vectors", "duplicates", "rows0",
                              "rows1", "rows2", "diagnostic"), 0)
        for case in range(120):
            space, recv, ms, tags = _simplicity_instance(rng, case)
            modes = ("points",) if "reconstruction" in tags \
                else ("canonical", "positional")
            for mode in modes:
                results = []
                for block in blocks:
                    monkeypatch.setattr(core, "_PAIR_BLOCK", block)
                    results.append(receiver_simplicity(
                        recv, 1.0, space, ms, output_mode=mode))
                assert results[0] == results[1] == results[2]
                res = results[0]
                worst, degenerate = lipschitz_bruteforce(
                    recv, space.points.tolist(), ms.distances(
                        np.arange(ms.size), np.arange(ms.size)).tolist(),
                    canonical=mode == "canonical")
                assert (res.diagnostic is not None) == degenerate
                if degenerate:
                    assert math.isinf(res.worst_ratio) and not res.simple
                    tags.append("diagnostic")
                else:
                    assert math.isclose(res.worst_ratio, worst,
                                        rel_tol=1e-12, abs_tol=0.0)
                    assert res.simple == (res.worst_ratio <= res.k)
            for tag in set(tags):
                seen[tag] += 1
        assert min(seen.values()) > 0, seen

    def test_pair_budget(self, space_b, monkeypatch):
        # the domain's pair count is checked against the games term budget
        # before any pair is formed
        recv = ReconstructionReceiver(np.arange(5.0)[:, None])
        ms = MessageSpace.from_vectors(np.arange(5.0)[:, None])
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 10)
        assert receiver_simplicity(recv, 1.0, space_b, ms).worst_ratio == 1.0
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 9)
        with pytest.raises(BudgetExceededError) as exc:
            receiver_simplicity(recv, 1.0, space_b, ms)
        assert exc.value.required == 10

    @pytest.mark.parametrize("kind", ["tabular", "reconstruction"])
    def test_pair_memory_bounded(self, kind):
        # 2,500 rows, 3,123,750 pairs: R x R pair tensors peaked at 626 MB,
        # and a copy of the reconstruction case's 2,500 x 2,500 message
        # table takes 50 MB
        rng = rng_for("simplicity-memory")
        space = InputSpace.uniform(rng.normal(size=(25, 2)))
        if kind == "tabular":
            scores = rng.random((4, 25)) + 0.05
            table = {(m, (a, b)): scores[m, [a, b]] / scores[m, [a, b]].sum()
                     for m in range(4) for a in range(25) for b in range(25)}
            recv = TabularDiscriminationReceiver(2, 4, table)
            ms = MessageSpace.from_vectors(np.arange(4.0)[:, None])
        else:
            recv = ReconstructionReceiver(rng.normal(size=(2500, 2)))
            ms = MessageSpace.from_vectors(rng.normal(size=(2500, 3)))
        tracemalloc.start()
        try:
            res = receiver_simplicity(recv, 1.0, space, ms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert res.diagnostic is None and res.worst_ratio > 0.0

    @pytest.mark.parametrize("rows, worst", [
        # a NaN row at a positive distance from the others
        ([[math.nan] * 2, [0.3, 0.7], [0.3, 0.7]], math.nan),
        # NaN rows only at distance zero from each other
        ([[0.5, 0.5], [math.nan] * 2, [math.nan] * 2], math.nan),
        # a NaN row does not hide a duplicate embedding with other outputs
        ([[math.nan] * 2, [0.3, 0.7], [0.6, 0.4]], math.inf),
        ([[0.5, 0.5], [0.3, 0.7], [0.3, 0.7]], 0.2),
    ], ids=["nan", "nan_at_zero", "nan_and_duplicate", "finite"])
    def test_nan_outputs_propagate(self, rows, worst, monkeypatch):
        # keys 1 and 2 share a message and candidate points (inputs 0 and 1
        # coincide), so they lie at domain distance zero; the constructor
        # refuses NaN rows, so they are written into a valid table
        space = InputSpace.uniform(np.array([[0.0], [0.0], [1.0]]))
        keys = [(1, (0, 1)), (0, (0, 2)), (0, (1, 2))]
        recv = TabularDiscriminationReceiver(
            2, 2, {key: np.full(2, 0.5) for key in keys})
        recv.rows[:] = rows
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        for block in (1, 7, core._PAIR_BLOCK):
            monkeypatch.setattr(core, "_PAIR_BLOCK", block)
            res = receiver_simplicity(recv, 1.0, space, ms)
            assert not res.simple
            assert (res.diagnostic is not None) == math.isinf(worst)
            assert (math.isclose(res.worst_ratio, worst, rel_tol=1e-12)
                    or math.isnan(res.worst_ratio) and math.isnan(worst))

    def test_nan_reconstruction_output(self, space_b):
        recv = ReconstructionReceiver(np.array([[0.0], [math.nan], [0.1]]))
        ms = MessageSpace.from_vectors([[0.0], [1.0], [2.0]])
        res = receiver_simplicity(recv, 1.0, space_b, ms)
        assert math.isnan(res.worst_ratio) and not res.simple
        assert res.diagnostic is None

    def test_k_constant(self, space_b):
        assert abs(simplicity_constant(1.0, space_b)
                   - (math.sqrt(2) - 1) / 2 * math.sqrt(1.25)) < 1e-15

    @pytest.mark.parametrize("eps0", [0.0, -1.0])
    def test_k_constant_needs_positive_eps0(self, space_b, eps0):
        with pytest.raises(ValueError, match="positive"):
            simplicity_constant(eps0, space_b)


class TestBoundedScan:
    """The bounded pair scan against the unpruned one it replaced: the same
    ``worst_ratio`` bits and diagnostic, with fewer pairs formed where the
    bound can fire."""

    BLOCKS = (1, 7, 64, core._PAIR_BLOCK)

    def test_bits_match_unpruned_on_instances(self, monkeypatch):
        rng = rng_for("simplicity-oracle")
        for case in range(120):
            space, recv, ms, tags = _simplicity_instance(rng, case)
            modes = ("points",) if "reconstruction" in tags \
                else ("canonical", "positional")
            for mode in modes:
                _assert_same_as_unpruned(monkeypatch, recv, space, ms, mode,
                                         self.BLOCKS)

    @pytest.mark.parametrize("messages", ["vectors", "symbols", "table"])
    def test_bits_match_unpruned_on_dense_tables(self, monkeypatch,
                                                 messages):
        rng = rng_for(f"simplicity-dense-{messages}")
        for _ in range(6):
            k, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            space, recv = _dense_table(rng, 7 if d == 2 else 4, k, d)
            ms = _message_space(rng, messages, k)
            for mode in ("canonical", "positional"):
                _assert_same_as_unpruned(monkeypatch, recv, space, ms, mode,
                                         self.BLOCKS)

    def test_dense_table_forms_fewer_pairs(self, monkeypatch):
        rng = rng_for("simplicity-dense-count")
        space, recv = _dense_table(rng, 12, 4, 2)
        ms = MessageSpace.from_vectors(np.arange(4.0)[:, None])
        rows = len(recv.rows)
        bounded = _formed_pairs(monkeypatch, recv, space, ms)
        monkeypatch.setattr(consistency, "_BOUND_SLACK", math.inf)
        every = _formed_pairs(monkeypatch, recv, space, ms)
        assert every >= rows * (rows - 1) // 2
        assert bounded < every / 2
        _assert_same_as_unpruned(monkeypatch, recv, space, ms, "canonical")

    def test_every_pair_formed_when_the_bound_cannot_fire(self, monkeypatch):
        # four messages 1e-6 apart, of 25 rows each, so that each message
        # lies in one cell of the default block and the cells' embedding
        # boxes overlap: every bound between cells is about 1e6 times any
        # output gap, far above the ratios inside a message
        rng = rng_for("simplicity-dense-close")
        space, recv = _dense_table(rng, 5, 4, 2)
        ms = MessageSpace.from_vectors([[0.0], [1e-6], [2e-6], [3e-6]])
        rows = len(recv.rows)
        bounded = _formed_pairs(monkeypatch, recv, space, ms)
        assert bounded >= rows * (rows - 1) // 2
        monkeypatch.setattr(consistency, "_BOUND_SLACK", math.inf)
        assert bounded == _formed_pairs(monkeypatch, recv, space, ms)
        _assert_same_as_unpruned(monkeypatch, recv, space, ms, "canonical")

    def test_cli_shaped_table_forms_few_block_elements(self, monkeypatch):
        # 25 inputs, 4 messages at Hamming distance 1, every d=2 query: a
        # scan bounded only across messages forms every block of each
        # message's own 625 rows, 914,336 elements
        rng = rng_for("simplicity-cli-shaped")
        space, recv = _dense_table(rng, 25, 4, 2)
        ms = io.default_message_space(4)
        by_message = 4 * sum((hi - lo) * (625 - lo)
                             for lo, hi, _ in core._pair_blocks(625))
        assert by_message == 914_336
        assert _formed_pairs(monkeypatch, recv, space, ms) < 0.4 * by_message
        _assert_same_as_unpruned(monkeypatch, recv, space, ms, "canonical")

    @pytest.mark.parametrize("dim", [1, 3])
    def test_bits_match_unpruned_across_cells(self, monkeypatch, dim):
        # 81 rows a message: three cells of the default block, and one row
        # a cell at the small blocks
        rng = rng_for(f"simplicity-cells-{dim}")
        space, recv = _dense_table(rng, 9, 2, 2, dim)
        ms = MessageSpace.from_vectors([[0.0], [0.5]])
        for mode in ("canonical", "positional"):
            _assert_same_as_unpruned(monkeypatch, recv, space, ms, mode,
                                     self.BLOCKS)

    @pytest.mark.parametrize("twin", [3, 29, 89])
    def test_duplicate_embedding_across_a_cell_boundary(self, monkeypatch,
                                                        twin):
        # the twin of input ``twin`` sorts right after it: rows 29 and 30
        # straddle a cell of the default block, 89 and 90 a run of it, 3
        # and 4 a run of the block of 64 elements
        xs = list(range(120)) + [twin]
        probs = [[0.25 + x / 240, 0.75 - x / 240] for x in xs]
        probs[-1] = [0.5, 0.5]
        space, recv = _one_message_table(xs, probs)
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        res = _assert_same_as_unpruned(monkeypatch, recv, space, ms,
                                       "positional", self.BLOCKS)
        assert res.diagnostic is not None and res.worst_ratio == math.inf

    def test_equal_sort_values_across_a_cell_boundary(self, monkeypatch):
        # the first coordinate, the widest, takes two values, so 50 rows
        # of each message share the value the rows are sorted by
        rng = rng_for("simplicity-cells-ties")
        pts = np.column_stack([np.repeat([0.0, 5.0], 5), rng.random(10)])
        space, recv = _dense_table(rng, len(pts), 2, 2, points=pts)
        ms = MessageSpace.from_vectors([[0.0], [0.5]])
        for mode in ("canonical", "positional"):
            _assert_same_as_unpruned(monkeypatch, recv, space, ms, mode,
                                     self.BLOCKS)

    def test_nan_in_a_later_cell_of_one_message(self, monkeypatch):
        # rows 0 and 1 embed 1e-3 apart and answer differently, a ratio
        # above 400; the last row sorts last, alone in the fourth cell of
        # the default block and far from the rest, so its bound would
        # drop it; a NaN output there must still be formed
        space, recv = _far_row_table()
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        finite = _formed_pairs(monkeypatch, recv, space, ms)
        assert receiver_simplicity(recv, 1.0, space, ms).worst_ratio > 400
        recv.rows[-1] = math.nan
        assert _formed_pairs(monkeypatch, recv, space, ms) > finite
        res = _assert_same_as_unpruned(monkeypatch, recv, space, ms,
                                       "positional", self.BLOCKS)
        assert math.isnan(res.worst_ratio) and res.diagnostic is None

    @pytest.mark.parametrize("mode", ["canonical", "positional"])
    def test_output_gap_past_float64_inside_one_message(self, monkeypatch,
                                                        mode):
        # the last row, alone in its cell, answers 1e308 away from the
        # rest: its squared output gaps pass float64
        space, recv = _far_row_table()
        recv.rows[-1] = [1e308, 0.0]
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = _assert_same_as_unpruned(monkeypatch, recv, space, ms,
                                           mode, self.BLOCKS)
        assert res.worst_ratio == math.inf and res.diagnostic is None

    def test_one_row_messages_share_runs(self, monkeypatch):
        # a reconstruction receiver has one row per message: 1,000 of them
        # take a few dozen blocks, not one per message
        rng = rng_for("simplicity-runs")
        recv = ReconstructionReceiver(rng.normal(size=(1000, 1)))
        ms = MessageSpace.from_vectors(rng.normal(size=(1000, 2)))
        space = InputSpace.uniform([[0.0], [1.0]])
        assert len(_formed_blocks(monkeypatch, recv, space, ms)) < 100

    @pytest.mark.parametrize("later", [
        [(0, 2), (2, 0), (3, 0)],
        [(0, 2)],           # no row of its own message to meet
        [(2, 0), (3, 0)],   # only at distance zero from its own message
    ], ids=["three", "alone", "twins"])
    def test_nan_in_a_later_group(self, monkeypatch, later):
        # inputs 0 and 1 are 1e-3 apart, so message 0's rows give a ratio
        # near 500 before message 1 is reached; message 1's NaN row must
        # still be formed, although its bound would drop it otherwise; a
        # block of 4 elements puts each message in its own run
        space, recv = _near_twins_table(later)
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        monkeypatch.setattr(core, "_PAIR_BLOCK", 4)
        finite = _formed_pairs(monkeypatch, recv, space, ms)
        assert receiver_simplicity(recv, 1.0, space, ms).worst_ratio > 400
        recv.rows[-1] = math.nan
        assert _formed_pairs(monkeypatch, recv, space, ms) > finite
        res = _assert_same_as_unpruned(monkeypatch, recv, space, ms,
                                       "positional", self.BLOCKS)
        assert math.isnan(res.worst_ratio) and res.diagnostic is None

    @pytest.mark.parametrize("mode", ["canonical", "positional"])
    def test_output_gap_past_float64_in_a_later_group(self, monkeypatch,
                                                      mode):
        space, recv = _near_twins_table()
        recv.rows[2] = [1e308, 0.0]
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = _assert_same_as_unpruned(monkeypatch, recv, space, ms,
                                           mode, self.BLOCKS)
        assert res.worst_ratio == math.inf and res.diagnostic is None

    def test_duplicate_embedding_in_a_later_group(self, monkeypatch):
        # message 1's last two rows embed alike and answer differently
        space, recv = _near_twins_table()
        recv.rows[-1] = [0.9, 0.1]
        ms = MessageSpace.from_vectors([[0.0], [1.0]])
        res = _assert_same_as_unpruned(monkeypatch, recv, space, ms,
                                       "positional", self.BLOCKS)
        assert res.diagnostic is not None and res.worst_ratio == math.inf

    def test_duplicate_embedding_across_messages_at_distance_zero(
            self, monkeypatch):
        # distinct messages whose distance underflows to 0: candidates
        # (0, 2) under both embed alike, so different outputs fail
        space, recv = _near_twins_table()
        ms = MessageSpace.from_vectors([[0.0], [1e-200]])
        assert ms.distances([0], [1])[0, 0] == 0.0
        res = _assert_same_as_unpruned(monkeypatch, recv, space, ms,
                                       "positional", self.BLOCKS)
        assert res.diagnostic is not None


def _assert_same_as_unpruned(monkeypatch, recv, space, ms, mode,
                             blocks=(core._PAIR_BLOCK,)):
    """``receiver_simplicity`` with the bounded scan and with the unpruned
    referee, at each pair block size: equal ``worst_ratio`` bits, verdict
    and diagnostic. Returns the bounded result."""
    results = []
    for block in blocks:
        monkeypatch.setattr(core, "_PAIR_BLOCK", block)
        results.append(receiver_simplicity(recv, 1.0, space, ms,
                                           output_mode=mode))
        with monkeypatch.context() as patch:
            patch.setattr(consistency, "_worst_ratio", worst_ratio_unpruned)
            results.append(receiver_simplicity(recv, 1.0, space, ms,
                                               output_mode=mode))
    for res in results:
        assert res.worst_ratio.hex() == results[0].worst_ratio.hex()
        assert (res.simple, res.diagnostic) == \
            (results[0].simple, results[0].diagnostic)
    return results[0]


def _formed_blocks(monkeypatch, recv, space, ms):
    """Rows times columns of each block the scan forms, seen through
    ``_sq_dists`` (called once for the embeddings, once for the outputs)."""
    formed = []
    sq_dists = core._sq_dists

    def counting(a, b):
        formed.append(len(a) * len(b))
        return sq_dists(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(consistency, "_sq_dists", counting)
        receiver_simplicity(recv, 1.0, space, ms)
    return formed[::2]


def _formed_pairs(monkeypatch, recv, space, ms):
    return sum(_formed_blocks(monkeypatch, recv, space, ms))


def _dense_table(rng, n, k, d, dim=2, points=None):
    """A uniform space of ``n`` normal points in ``dim`` dimensions, or of
    ``points``, and a discrimination table of every (message, candidate
    tuple) of ``k`` messages, its rows in random order so that the
    messages interleave."""
    if points is None:
        points = rng.normal(size=(n, dim))
    space = InputSpace.uniform(points)
    scores = rng.random((k, n)) + 0.05
    keys = list(itertools.product(range(k), itertools.product(range(n),
                                                              repeat=d)))
    table = {}
    for i in rng.permutation(len(keys)):
        m, cands = keys[i]
        table[m, cands] = scores[m, list(cands)] / scores[m, list(cands)].sum()
    return space, TabularDiscriminationReceiver(d, k, table)


def _message_space(rng, kind, k):
    if kind == "vectors":
        return MessageSpace.from_vectors(rng.normal(size=(k, 2)))
    if kind == "symbols":
        atoms = rng.choice(9, size=k, replace=False)
        return MessageSpace.symbol_sequences(
            [[a // 3, a % 3] for a in atoms], 3)
    table = rng.uniform(0.5, 2.0, size=(k, k))
    table = table + table.T
    np.fill_diagonal(table, 0.0)
    return MessageSpace.from_distance_table(list(range(k)), table)


def _one_message_table(xs, probs):
    """A uniform space of the 1-D points ``xs`` and a table of message 0
    alone: row ``a`` answers candidates ``(a, 2)`` with ``probs[a]``, so
    the rows sort by ``xs``."""
    space = InputSpace.uniform(np.asarray(xs, dtype=float)[:, None])
    table = {(0, (a, 2)): np.asarray(p) for a, p in enumerate(probs)}
    return space, TabularDiscriminationReceiver(2, 2, table)


def _far_row_table():
    """91 rows of one message: inputs 0 and 1e-3 answered differently,
    then 2, ..., 89 and 1000 answered alike."""
    xs = [0.0, 1e-3] + list(range(2, 90)) + [1000.0]
    probs = [[0.9, 0.1], [0.4, 0.6]] + [[0.5, 0.5]] * 89
    return _one_message_table(xs, probs)


def _near_twins_table(later=((0, 2), (2, 0), (3, 0))):
    """Two messages over inputs 0 and 1 (1e-3 apart), 2 and its copy 3:
    message 0 answers candidates (0, 2) and (1, 2) differently, so its
    worst ratio is about 500; message 1 answers the candidates ``later``
    alike ((2, 0) and (3, 0) embed alike)."""
    space = InputSpace.uniform([[0.0], [1e-3], [1.0], [1.0]])
    table = {(0, (0, 2)): np.asarray([0.9, 0.1]),
             (0, (1, 2)): np.asarray([0.4, 0.6])}
    for cands in later:
        table[1, cands] = np.asarray([0.5, 0.5])
    return space, TabularDiscriminationReceiver(2, 2, table)


class TestNonDegeneracy:
    def test_constant_reconstruction_receiver_degenerate(self, space_b):
        recv, loss = optimal_constant_receiver(space_b,
                                               GameSpec("reconstruction"))
        assert np.allclose(recv.points, 1.5) and loss == 1.25
        res = non_degeneracy(recv, space_b, GameSpec("reconstruction"))
        assert not res.non_degenerate
        assert abs(res.sup_loss - 2.25) < 1e-12
        assert abs(0.25 * res.constant_loss - 0.3125) < 1e-12

    def test_lossless_receiver(self, space_b):
        recv = synchronized_receiver(Protocol.identity(4), space_b,
                                     GameSpec("reconstruction"))
        res = non_degeneracy(recv, space_b, GameSpec("reconstruction"))
        assert res.non_degenerate and res.sup_loss == 0.0

    def test_discrimination_constant(self, space_b):
        recv, loss = optimal_constant_receiver(
            space_b, GameSpec("discrimination", d=4))
        assert np.allclose(recv.vector, 0.25)
        assert abs(loss - math.log(4.0)) < 1e-15

    def test_unsupported_game(self, space_b):
        with pytest.raises(ValueError):
            optimal_constant_receiver(space_b, GameSpec("global"))


def _simplicity_instance(rng, case):
    """An input space, a finite receiver and a message space for the pair
    loop, with the tags of the shapes it covers. Every third case has 0, 1
    or 2 domain rows; a point is duplicated in half the spaces, and a
    duplicated table row keeps or changes its output."""
    tags = []
    n, dim, k = (int(rng.integers(1, 6)), int(rng.integers(1, 3)),
                 int(rng.integers(1, 5)))
    pts = rng.normal(size=(n, dim))
    if n > 1 and rng.random() < 0.5:
        pts[n - 1] = pts[0]
        tags.append("duplicates")
    space = InputSpace.uniform(pts)
    if case // 4 % 2:
        atoms = rng.choice(9, size=k, replace=False)
        ms = MessageSpace.symbol_sequences([[a // 3, a % 3] for a in atoms],
                                           3)
        tags.append("symbols")
    else:
        ms = MessageSpace.from_vectors(rng.normal(size=(k, 2)))
        tags.append("vectors")
    rows = case // 3 % 3 if case % 3 == 0 else int(rng.integers(3, 40))
    if case % 4 == 0:
        defined = np.zeros(k, dtype=bool)
        defined[rng.permutation(k)[:rows]] = True
        tags += ["reconstruction"] + ["undefined"] * (not defined.all())
        recv = ReconstructionReceiver(rng.normal(size=(k, dim)), defined)
        rows = int(defined.sum())
    else:
        d = 2 + case % 2
        keys = list(itertools.product(range(k), itertools.product(
            range(n), repeat=d)))
        keys = [keys[i] for i in rng.permutation(len(keys))[:rows]]
        table = {key: rng.dirichlet(np.ones(d)) for key in keys}
        if "duplicates" in tags and keys and rng.random() < 0.7:
            # the first row again, with input 0 swapped for its copy
            m, cands = keys[0]
            twin = (m, tuple(n - 1 if c == 0 else c for c in cands))
            if twin != keys[0]:
                table[twin] = table[keys[0]] if rng.random() < 0.3 \
                    else rng.dirichlet(np.ones(d))
        recv = TabularDiscriminationReceiver(d, k, table)
        tags.append(f"d{d}")
        rows = len(table)
    if rows <= 2:
        tags.append(f"rows{rows}")
    return space, recv, ms, tags


def _lipschitz_cover_receiver(space, rng):
    """Reconstruction receiver built to pass both receiver conditions:
    outputs march along the data range in steps below the Lipschitz budget
    while covering every point within half the output spacing."""
    var = space.variance()
    step_budget = (math.sqrt(2.0) - 1.0) / 2.0 * math.sqrt(var)
    step = 0.9 * step_budget
    lo = float(space.points.min()) - 0.25 * step
    hi = float(space.points.max()) + 0.25 * step
    k = int(math.ceil((hi - lo) / step)) + 1
    outputs = lo + step * np.arange(k)
    ms = MessageSpace.from_vectors(np.arange(float(k))[:, None])
    return ReconstructionReceiver(outputs[:, None]), ms


class TestReconstructionSpatialTheorem:
    def test_simple_nondegenerate_receivers_give_spatial_senders(self):
        # generated receivers passing both conditions always induce
        # spatially meaningful synchronized senders
        rng = rng_for("reco-spatial")
        checked = 0
        while checked < 15:
            space = random_space(rng, n_max=6, dim_max=1, uniform=True)
            if space.variance() < 1e-6:
                continue
            recv, ms = _lipschitz_cover_receiver(space, rng)
            eps0 = ms.epsilon_min()
            simp = receiver_simplicity(recv, eps0, space, ms)
            nd = non_degeneracy(recv, space, GameSpec("reconstruction"))
            assert simp.simple and nd.non_degenerate
            sender = synchronized_sender(recv, space,
                                         GameSpec("reconstruction"))
            res = spatial_meaningfulness(sender, space, ms, eps0=eps0)
            assert res.meaningful
            checked += 1


class TestReconstructionOptimaConsistent:
    def test_every_optimum_semantically_consistent(self):
        # desk-scale check: whenever some protocol is consistent, every
        # exhaustive reconstruction optimum is
        from signalgames import exhaustive_search
        import itertools
        rng = rng_for("optima-consistency")
        for _ in range(10):
            space = random_space(rng, n_max=5, dim_max=2)
            k = int(rng.integers(2, 4))
            if space.variance() == 0.0 or k >= space.size:
                continue
            any_consistent = any(
                semantic_consistency(Protocol(a, k), space).consistent
                for a in itertools.product(range(k), repeat=space.size))
            result = exhaustive_search(space, k, GameSpec("reconstruction"))
            if any_consistent:
                for p in result.protocols:
                    assert semantic_consistency(p, space).consistent
