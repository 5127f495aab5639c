import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalgames import (
    BudgetExceededError,
    ClassificationReceiver,
    ConstantDiscriminationReceiver,
    EmptyClassError,
    GameSpec,
    GlobalReceiver,
    InputSpace,
    LabelMap,
    Protocol,
    ReconstructionReceiver,
    eval_classification,
    eval_discrimination,
    eval_global,
    eval_reconstruction,
    eval_supervised,
    synchronized_receiver,
    synchronized_sender,
)
from signalgames.games import (
    DiscriminationReceiver,
    ScoreDiscriminationReceiver,
    SynchronizedDiscriminationReceiver,
    TabularDiscriminationReceiver,
    materialize_discrimination_table,
    per_input_message_losses,
    substream,
)

from conftest import random_protocol, random_space, rng_for
from oracles import (
    discrimination_loss_bruteforce,
    global_loss_bruteforce,
    reconstruction_loss_bruteforce,
    supervised_loss_bruteforce,
)

LOG2 = math.log(2.0)


@pytest.fixture
def score_instance():
    """Weighted five-point space, three messages, and a candidate-aware
    score receiver that never assigns zero probability."""
    space = InputSpace(np.arange(5.0)[:, None], [0.1, 0.2, 0.3, 0.15, 0.25])
    protocol = Protocol([0, 0, 1, 1, 2], 3)
    scores = np.array([[1.0, 2.0, 0.5, 1.0, 3.0],
                       [0.2, 1.0, 2.0, 1.0, 0.5],
                       [1.0, 1.0, 1.0, 2.0, 0.3]])
    return space, protocol, ScoreDiscriminationReceiver(scores, 3)


class TestEvalReconstruction:
    def test_lossless(self, space_b):
        ident = Protocol.identity(4)
        recv = ReconstructionReceiver(space_b.points.copy())
        assert eval_reconstruction(ident, recv, space_b).expected == 0.0

    def test_class_means(self, space_b, split):
        recv = ReconstructionReceiver(np.asarray([[0.5], [2.5]]))
        rep = eval_reconstruction(split, recv, space_b)
        assert abs(rep.expected - 0.25) < 1e-15
        assert rep.mode == "exact"
        assert abs(space_b.weights @ rep.per_input - rep.expected) < 1e-12

    def test_constant_receiver_pays_variance(self, space_b):
        recv = ReconstructionReceiver(np.asarray([[1.5]]))
        rep = eval_reconstruction(Protocol.constant(4), recv, space_b)
        assert abs(rep.expected - 1.25) < 1e-15

    def test_missing_message_errors(self, space_b, split):
        recv = ReconstructionReceiver(np.asarray([[0.5], [np.nan]]),
                                      defined=[True, False])
        with pytest.raises(EmptyClassError):
            eval_reconstruction(split, recv, space_b)

    def test_matches_bruteforce(self):
        rng = rng_for("recon-oracle")
        for _ in range(20):
            space = random_space(rng)
            protocol = random_protocol(rng, space.size)
            recv = synchronized_receiver(protocol, space,
                                         GameSpec("reconstruction"))
            got = eval_reconstruction(protocol, recv, space).expected
            pts = [recv.points[m] if recv.defined[m] else np.zeros(space.dim)
                   for m in range(protocol.num_messages)]
            want = reconstruction_loss_bruteforce(
                protocol.assignment.tolist(), pts, space.points,
                space.weights.tolist())
            assert abs(got - want) < 1e-12


class TestEvalDiscrimination:
    def test_split_synchronized(self, space_b, split):
        recv = SynchronizedDiscriminationReceiver(split, 2)
        rep = eval_discrimination(split, recv, space_b, 2, mode="exact")
        assert abs(rep.expected - 0.5 * LOG2) < 1e-12

    def test_constant_receiver(self, space_b, split):
        recv = ConstantDiscriminationReceiver([0.5, 0.5])
        rep = eval_discrimination(split, recv, space_b, 2, mode="exact")
        assert abs(rep.expected - LOG2) < 1e-12

    def test_lossless_per_input(self, space_b):
        # the distractor duplicates the target with probability 1/4,
        # costing log 2 on the coin flip
        ident = Protocol.identity(4)
        recv = SynchronizedDiscriminationReceiver(ident, 2)
        rep = eval_discrimination(ident, recv, space_b, 2, mode="exact")
        assert np.allclose(rep.per_input, 0.25 * LOG2, atol=1e-12)

    def test_zero_probability_flagged_infinite(self, space_b, split):
        recv = ConstantDiscriminationReceiver([1.0, 0.0])
        rep = eval_discrimination(split, recv, space_b, 2, mode="exact")
        assert rep.infinite and math.isinf(rep.expected)

    def test_exact_budget_guard(self, space_b, split):
        recv = SynchronizedDiscriminationReceiver(split, 2)
        with pytest.raises(BudgetExceededError):
            eval_discrimination(split, recv, space_b, 2, mode="exact",
                                budget=3)

    def test_auto_switches_to_mc(self, space_b, split):
        recv = SynchronizedDiscriminationReceiver(split, 2)
        rep = eval_discrimination(split, recv, space_b, 2, mode="auto",
                                  budget=3, samples=4000, seed=5)
        assert rep.mode == "monte-carlo"
        assert rep.std_error is not None
        assert abs(rep.expected - 0.5 * LOG2) < 5 * rep.std_error

    def test_matches_bruteforce_d2_and_d3(self):
        rng = rng_for("disc-oracle")
        for d in (2, 3):
            for _ in range(6):
                space = random_space(rng, n_max=5)
                protocol = random_protocol(rng, space.size, k_max=3)
                recv = SynchronizedDiscriminationReceiver(protocol, d)
                got = eval_discrimination(protocol, recv, space, d,
                                          mode="exact").expected
                want = discrimination_loss_bruteforce(
                    protocol.assignment.tolist(), space.weights.tolist(), d)
                assert abs(got - want) < 1e-12

    def test_mc_deterministic_and_sharded(self, space_b, split):
        recv = SynchronizedDiscriminationReceiver(split, 2)
        a = eval_discrimination(split, recv, space_b, 2, mode="mc",
                                samples=5000, seed=3)
        b = eval_discrimination(split, recv, space_b, 2, mode="mc",
                                samples=5000, seed=3)
        assert a.expected == b.expected
        c = eval_discrimination(split, recv, space_b, 2, mode="mc",
                                samples=5000, seed=3, shards=4)
        d = eval_discrimination(split, recv, space_b, 2, mode="mc",
                                samples=5000, seed=3, shards=4)
        assert c.expected == d.expected

    def test_exact_asks_one_query_per_term(self, space_b, split):
        calls = []

        class Counting(SynchronizedDiscriminationReceiver):
            def probabilities_batch(self, messages, candidates):
                calls.extend(zip(np.asarray(messages).tolist(),
                                 map(tuple, np.asarray(candidates).tolist())))
                return super().probabilities_batch(messages, candidates)

        rep = eval_discrimination(split, Counting(split, 3), space_b, 3,
                                  mode="exact")
        # targets x distractor tuples x positions, covering every tuple
        assert len(calls) == 4 ** 3 * 3
        assert len({cands for _, cands in calls}) == 4 ** 3
        assert abs(rep.expected - discrimination_loss_bruteforce(
            split.assignment.tolist(), space_b.weights.tolist(), 3)) < 1e-12

    def test_exact_batches_hold_at_most_4096_rows(self):
        sizes = []

        class Sizes(ScoreDiscriminationReceiver):
            def probabilities_batch(self, messages, candidates):
                sizes.append(len(candidates))
                return super().probabilities_batch(messages, candidates)

        space = InputSpace.uniform(np.arange(20.0)[:, None])
        protocol = Protocol(np.arange(20) % 4, 4)
        labels = LabelMap(list("abcd") * 5)
        recv = Sizes(rng_for("batch-rows").random((4, 20)) + 0.1, 3)
        eval_discrimination(protocol, recv, space, 3, mode="exact")
        eval_supervised(protocol, recv, space, labels, d=3)
        per_input_message_losses(recv, space, GameSpec("discrimination", d=3))
        eval_classification(protocol, Sizes(recv.scores, 4), space, labels,
                            mode="exact")
        # 20 x 20^2 x 3 terms, then 20 x 15^2 x 3, then 4 choices each
        assert sum(sizes) == 24_000 + 13_500 + 96_000 + 5 ** 4 * 20
        assert max(sizes) == 4096

    def test_generic_receiver_mc_path(self, space_b, split):
        # dense table receivers run the per-episode path
        recv = materialize_discrimination_table(
            SynchronizedDiscriminationReceiver(split, 2), space_b)
        rep = eval_discrimination(split, recv, space_b, 2, mode="mc",
                                  samples=3000, seed=11)
        assert abs(rep.expected - 0.5 * LOG2) < 5 * rep.std_error


def _one_query_reference(recv, m, cands) -> np.ndarray:
    """Each built-in receiver's output, written out for one query."""
    if isinstance(recv, SynchronizedDiscriminationReceiver):
        match = np.array([recv.messages[c] == m for c in cands])
        k = int(match.sum())
        return np.full(len(cands), 1.0 / len(cands)) if k == 0 \
            else match.astype(float) / k
    if isinstance(recv, ScoreDiscriminationReceiver):
        s = recv.scores[m, list(cands)]
        total = s.sum()
        return np.full(len(cands), 1.0 / len(cands)) if total <= 0.0 \
            else s / total
    if isinstance(recv, TabularDiscriminationReceiver):
        return recv.table[(m, tuple(cands))]
    if isinstance(recv, ConstantDiscriminationReceiver):
        return recv.vector
    return recv.conditional[m]


class TestProbabilitiesBatch:
    @staticmethod
    def receivers(assignment, scores, messages, cands):
        k, d = scores.shape[0], cands.shape[1]
        score = ScoreDiscriminationReceiver(scores, d)
        table = {(m, tuple(c)): _one_query_reference(score, m, c)
                 for m, c in zip(messages.tolist(), cands.tolist())}
        vector = np.arange(1.0, d + 1.0) / (d * (d + 1) / 2)
        return [SynchronizedDiscriminationReceiver(Protocol(assignment, k), d),
                score, TabularDiscriminationReceiver(d, k, table),
                ConstantDiscriminationReceiver(vector, k),
                ClassificationReceiver(np.tile(vector, (k, 1)))]

    @staticmethod
    def assert_rows_match(recv, messages, cands):
        batch = recv.probabilities_batch(messages, cands)
        assert batch.shape == cands.shape
        for row, m, c in zip(batch, messages.tolist(), cands.tolist()):
            one = recv.probabilities(m, tuple(c))
            want = np.asarray(_one_query_reference(recv, m, c), dtype=float)
            assert row.tobytes() == one.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_row_stacked_probabilities(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        k = data.draw(st.integers(1, 3), label="k")
        d = data.draw(st.integers(2, 10), label="d")  # d >= 8: pairwise sums
        b = data.draw(st.integers(0, 12), label="rows")

        def ints(hi, size, label):
            return np.array(data.draw(st.lists(
                st.integers(0, hi - 1), min_size=size, max_size=size),
                label=label), dtype=int)

        messages = ints(k, b, "messages")
        cands = ints(n, b * d, "candidates").reshape(b, d)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        scores = rng.random((k, n)) * 10.0 * (rng.random((k, n)) > 0.2)
        scores[0] = 0.0  # message 0 scores every candidate zero
        for recv in self.receivers(ints(k, n, "assignment"), scores,
                                   messages, cands):
            self.assert_rows_match(recv, messages, cands)

    def test_edge_rows(self):
        # no candidate carries message 2, message 0 scores all zero, and
        # candidates repeat
        messages = np.array([2, 0, 1, 1])
        cands = np.array([[0, 1, 2], [0, 0, 0], [2, 2, 1], [0, 2, 2]])
        scores = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 2.0], [1.0, 1.0, 1.0]])
        for recv in self.receivers(np.array([0, 0, 1]), scores, messages,
                                   cands):
            self.assert_rows_match(recv, messages, cands)
        sync = SynchronizedDiscriminationReceiver(Protocol([0, 0, 1], 3), 3)
        assert np.allclose(sync.probabilities_batch(messages, cands)[:2],
                           [[1 / 3] * 3, [1 / 3] * 3])

    def test_subclass_with_only_probabilities(self, space_b, split):
        # the base class stacks the scalar method, on every loss path
        class ScalarOnly(DiscriminationReceiver):
            num_candidates, num_messages = 3, 2
            sync = SynchronizedDiscriminationReceiver(split, 3)

            def probabilities(self, m, candidates):
                assert isinstance(candidates, tuple)
                return self.sync.probabilities(m, candidates).tolist()

        recv = ScalarOnly()
        rep = eval_discrimination(split, recv, space_b, 3, mode="exact")
        assert abs(rep.expected - discrimination_loss_bruteforce(
            split.assignment.tolist(), space_b.weights.tolist(), 3)) < 1e-12
        table = materialize_discrimination_table(recv, space_b)
        want = materialize_discrimination_table(recv.sync, space_b)
        assert list(table.table) == list(want.table)
        assert np.array_equal(table.rows, want.rows)
        mc = [eval_discrimination(split, r, space_b, 3, mode="mc",
                                  samples=300, seed=4) for r in (recv, table)]
        assert mc[0].expected == mc[1].expected
        assert mc[0].per_input.tolist() == mc[1].per_input.tolist()

    def test_subclass_with_neither_method(self):
        with pytest.raises(NotImplementedError):
            DiscriminationReceiver().probabilities(0, (0, 1))

    def test_sparse_table_raises_on_missing_query(self, space_b, split):
        sparse = TabularDiscriminationReceiver(
            2, 2, {(0, (0, 1)): np.array([0.5, 0.5])})
        undefined = r"^receiver undefined on query \(\d+, \(\d+, \d+\)\)$"
        with pytest.raises(EmptyClassError, match=undefined):
            eval_discrimination(split, sparse, space_b, 2, mode="exact")
        with pytest.raises(EmptyClassError, match=undefined):
            eval_discrimination(split, sparse, space_b, 2, mode="mc",
                                samples=50, seed=1)
        with pytest.raises(EmptyClassError, match=undefined):
            per_input_message_losses(sparse, space_b,
                                     GameSpec("discrimination", d=2))
        with pytest.raises(EmptyClassError, match=r"\(1, \(0, 1\)\)$"):
            sparse.probabilities(1, (0, 1))


class TestTabularReceiver:
    @pytest.mark.parametrize("row", [[0.5, 0.6], [-0.5, 1.5], [1.0],
                                     [0.2, 0.3, 0.5]])
    def test_rejects_rows_that_are_not_distributions(self, row):
        table = {(0, (0, 1)): [0.5, 0.5], (1, (1, 0)): row}
        with pytest.raises(ValueError, match=r"^row for query \(1, \(1, 0\)\) "
                                             "is not a distribution$"):
            TabularDiscriminationReceiver(2, 2, table)

    def test_table_values_are_views_of_rows(self):
        recv = TabularDiscriminationReceiver(
            2, 2, {(0, (0, 1)): [0.25, 0.75], (1, (1, 1)): [0.5, 0.5]})
        assert list(recv.table) == [(0, (0, 1)), (1, (1, 1))]
        assert recv.rows.tolist() == [[0.25, 0.75], [0.5, 0.5]]
        assert all(np.shares_memory(row, recv.rows)
                   for row in recv.table.values())


class TestEvalGlobal:
    def test_lossless_point_mass(self, space_b):
        ident = Protocol.identity(4)
        recv = GlobalReceiver(np.eye(4))
        assert eval_global(ident, recv, space_b).expected == 0.0

    def test_constant_prior_matching(self, space_b):
        recv = GlobalReceiver(np.full((1, 4), 0.25))
        rep = eval_global(Protocol.constant(4, 1), recv, space_b)
        assert abs(rep.expected - math.log(4.0)) < 1e-12

    def test_split_conditional(self, space_b, split):
        recv = synchronized_receiver(split, space_b, GameSpec("global"))
        assert abs(eval_global(split, recv, space_b).expected - LOG2) < 1e-12

    def test_zero_likelihood_flagged(self, space_b, split):
        table = np.asarray([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        rep = eval_global(split, GlobalReceiver(table), space_b)
        assert rep.infinite and math.isinf(rep.expected)

    def test_equals_conditional_entropy(self):
        rng = rng_for("global-oracle")
        for _ in range(15):
            space = random_space(rng)
            protocol = random_protocol(rng, space.size)
            recv = synchronized_receiver(protocol, space, GameSpec("global"))
            got = eval_global(protocol, recv, space).expected
            want = global_loss_bruteforce(protocol.assignment.tolist(),
                                          space.weights.tolist())
            assert abs(got - want) < 1e-10


class TestEvalSupervised:
    def test_label_pure_split(self, space_b, split, labels_ab):
        recv = SynchronizedDiscriminationReceiver(split, 2)
        rep = eval_supervised(split, recv, space_b, labels_ab)
        assert rep.expected == 0.0

    def test_anti_split(self, space_b, anti, labels_ab):
        recv = SynchronizedDiscriminationReceiver(anti, 2)
        rep = eval_supervised(anti, recv, space_b, labels_ab)
        assert abs(rep.expected - 0.5 * LOG2) < 1e-12

    def test_single_label_errors(self, space_b, split):
        recv = SynchronizedDiscriminationReceiver(split, 2)
        with pytest.raises(ValueError, match=">=2 labels"):
            eval_supervised(split, recv, space_b,
                            LabelMap(["A", "A", "A", "A"]))

    def test_imbalanced_labels_rejected(self, space_b, split):
        recv = SynchronizedDiscriminationReceiver(split, 2)
        with pytest.raises(ValueError, match="balanced"):
            eval_supervised(split, recv, space_b,
                            LabelMap(["A", "B", "B", "B"]))

    def test_matches_bruteforce(self):
        rng = rng_for("supervised-oracle")
        from conftest import random_labeled_instance
        for _ in range(10):
            space, protocol, labels = random_labeled_instance(rng, n_max=6)
            recv = SynchronizedDiscriminationReceiver(protocol, 2)
            got = eval_supervised(protocol, recv, space, labels).expected
            want = supervised_loss_bruteforce(protocol.assignment.tolist(),
                                              space.weights.tolist(),
                                              list(labels.labels))
            assert abs(got - want) < 1e-12

    def test_objective_scaling_holds_for_three_labels(self):
        # exact loss = log 2 * |Y|/(|Y|-1) * two-term objective, also away
        # from the binary-label case
        from signalgames import InputSpace, supervised_objective
        rng = rng_for("supervised-three-labels")
        space = InputSpace.uniform(rng.normal(size=(6, 2)))
        labels = LabelMap(["a", "a", "b", "b", "c", "c"])
        for _ in range(10):
            protocol = Protocol(rng.integers(0, 3, size=6), 3)
            recv = SynchronizedDiscriminationReceiver(protocol, 2)
            got = eval_supervised(protocol, recv, space, labels).expected
            scale = LOG2 * 3.0 / 2.0
            want = scale * supervised_objective(protocol, space,
                                                labels).value
            assert abs(got - want) < 1e-12


class TestEvalClassification:
    def test_examples(self, space_b, split, anti, labels_ab):
        for protocol, expect in ((split, 0.0), (anti, LOG2),
                                 (Protocol.constant(4), LOG2)):
            spec = GameSpec("classification", labels=labels_ab)
            recv = synchronized_receiver(protocol, space_b, spec)
            got = eval_classification(protocol, recv, space_b, labels_ab,
                                      mode="exact").expected
            assert abs(got - expect) < 1e-12

    def test_mc_agrees(self, space_b, anti, labels_ab):
        spec = GameSpec("classification", labels=labels_ab)
        recv = synchronized_receiver(anti, space_b, spec)
        rep = eval_classification(anti, recv, space_b, labels_ab, mode="mc",
                                  samples=500, seed=1)
        assert abs(rep.expected - LOG2) < 1e-12  # loss ignores candidates

    def test_exact_matches_enumeration(self, score_instance):
        # unequal label groups with unequal weights, and a receiver that
        # reads the candidates: every tuple weight and query matters
        space, protocol, recv = score_instance
        labels = LabelMap(["a", "b", "a", "c", "b"])
        codes = labels.codes()
        groups = [np.flatnonzero(codes == y) for y in range(3)]
        want = 0.0
        for i in range(space.size):
            for cands in itertools.product(*groups):
                w = np.prod([space.weights[c] / space.weights[g].sum()
                             for c, g in zip(cands, groups)])
                p = recv.probabilities(protocol.assignment[i], cands)
                want -= space.weights[i] * w * math.log(p[codes[i]])
        got = eval_classification(protocol, recv, space, labels,
                                  mode="exact").expected
        assert abs(got - want) < 1e-12

    def test_mc_single_sample_has_no_std_error(self, space_b, anti,
                                               labels_ab):
        spec = GameSpec("classification", labels=labels_ab)
        recv = synchronized_receiver(anti, space_b, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = eval_classification(anti, recv, space_b, labels_ab,
                                      mode="mc", samples=1, seed=1)
        assert rep.samples == 1 and rep.std_error is None


class TestMonteCarloGolden:
    """Monte-Carlo outputs pinned to values recorded before the candidate
    enumeration and the receiver queries were shared across paths; a fixed
    (seed, samples, shards) must keep reproducing them exactly."""

    @staticmethod
    def assert_report(rep, expected, std_error, per_input):
        assert rep.expected == expected and rep.std_error == std_error
        assert rep.per_input.tolist() == per_input

    @pytest.mark.parametrize("tabular", [False, True])
    def test_discrimination_one_shard(self, score_instance, tabular):
        space, protocol, score = score_instance
        recv = materialize_discrimination_table(score, space) if tabular \
            else score
        rep = eval_discrimination(protocol, recv, space, 3, mode="mc",
                                  samples=400, seed=11)
        self.assert_report(rep, 1.1922323299594275, 0.02700378391153747, [
            1.3848744399927826, 0.8778260687761471, 0.7466896460938499,
            1.1086683859934208, 1.9279026649448199])

    def test_discrimination_three_shards(self, score_instance):
        space, protocol, score = score_instance
        rep = eval_discrimination(protocol, score, space, 3, mode="mc",
                                  samples=400, seed=11, shards=3)
        self.assert_report(rep, 1.141494976240282, 0.02837071023289896, [
            1.32079644680516, 0.907572563143975, 0.6827173133848875,
            1.1125543151806894, 1.993744699290962])

    def test_classification(self, score_instance):
        space, protocol, score = score_instance
        labels = LabelMap(["a", "b", "a", "c", "b"])
        rep = eval_classification(protocol, score, space, labels, mode="mc",
                                  samples=300, seed=5)
        self.assert_report(rep, 1.269148558578663, 0.040506632031829116, [
            1.8756026317039367, 0.5243949793684745, 1.039969533900755,
            1.2242860095230859, 1.9310025443313792])

    def test_sender_losses_past_budget(self, score_instance):
        space, _, score = score_instance
        spec = GameSpec("discrimination", d=3, seed=7, samples=200)
        losses = per_input_message_losses(score, space, spec, budget=10)
        assert losses.tolist() == [
            [1.3882756518757897, 2.402864059191707, 1.0318385402213914],
            [0.9321449680555363, 1.1053825799188335, 1.0442291956502752],
            [1.8919964817901023, 0.7123504916293639, 1.0440872845388727],
            [1.3595131595694865, 1.0966519451742014, 0.6757816178874775],
            [0.6795978806135012, 1.531449302398399, 1.9520888521505566]]


class TestSynchronizedReceiver:
    def test_reconstruction_means(self, space_b, split):
        recv = synchronized_receiver(split, space_b,
                                     GameSpec("reconstruction"))
        assert np.allclose(recv.points, [[0.5], [2.5]])

    def test_discrimination_point_mass(self, space_b, split):
        recv = synchronized_receiver(split, space_b,
                                     GameSpec("discrimination", d=2))
        assert recv.probabilities(0, (0, 2)).tolist() == [1.0, 0.0]
        assert recv.probabilities(0, (2, 1)).tolist() == [0.0, 1.0]
        assert recv.probabilities(0, (0, 1)).tolist() == [0.5, 0.5]

    def test_classification_posterior(self, space_b, anti, labels_ab):
        recv = synchronized_receiver(
            anti, space_b, GameSpec("classification", labels=labels_ab))
        assert np.allclose(recv.conditional, 0.5)

    def test_empty_class_query_errors(self, space_b):
        const = Protocol.constant(4, 2)
        recv = synchronized_receiver(const, space_b,
                                     GameSpec("reconstruction"))
        with pytest.raises(EmptyClassError):
            recv.point(1)


class TestSynchronizedSender:
    def test_projection(self, space_b):
        recv = ReconstructionReceiver(np.asarray([[0.5], [2.5]]))
        sender = synchronized_sender(recv, space_b,
                                     GameSpec("reconstruction"))
        assert sender.assignment.tolist() == [0, 0, 1, 1]

    def test_constant_receiver_lowest_index(self, space_b):
        recv = ReconstructionReceiver(np.asarray([[1.5], [1.5], [1.5]]))
        sender = synchronized_sender(recv, space_b,
                                     GameSpec("reconstruction"))
        assert sender.assignment.tolist() == [0, 0, 0, 0]

    def test_achieved_loss_tie_invariant(self):
        # per-input achieved loss is the argmin value, whatever the pick
        from signalgames.games import per_input_message_losses
        rng = rng_for("tie-invariance")
        for _ in range(10):
            space = random_space(rng, n_max=6)
            k = int(rng.integers(2, 4))
            recv = ReconstructionReceiver(
                space.points[rng.choice(space.size, size=k)])
            losses = per_input_message_losses(recv, space,
                                              GameSpec("reconstruction"))
            best = losses.min(axis=1)
            sender = synchronized_sender(recv, space,
                                         GameSpec("reconstruction"))
            chosen = losses[np.arange(space.size), sender.assignment]
            assert np.allclose(chosen, best, atol=0)

    def test_mc_fallback_beyond_exact_budget(self, space_b, split):
        # past the term budget the sender estimates per-message losses from
        # seeded draws and still recovers the clustered assignment
        recv = SynchronizedDiscriminationReceiver(split, 2)
        spec = GameSpec("discrimination", d=2, seed=3, samples=8000)
        sender = synchronized_sender(recv, space_b, spec, budget=5)
        assert sender.assignment.tolist() == [0, 0, 1, 1]

    def test_fixed_point_never_increases_loss(self):
        rng = rng_for("fixed-point")
        spec = GameSpec("reconstruction")
        for _ in range(20):
            space = random_space(rng)
            protocol = random_protocol(rng, space.size)
            recv = synchronized_receiver(protocol, space, spec)
            before = eval_reconstruction(protocol, recv, space).expected
            resync = synchronized_sender(recv, space, spec)
            after = eval_reconstruction(resync, recv, space).expected
            assert after <= before + 1e-12


class TestProperScoring:
    def test_perturbed_rows_never_beat_synchronized(self, space_b):
        rng = rng_for("proper-scoring")
        protocol = Protocol([0, 0, 1, 1], 2)
        recv = materialize_discrimination_table(
            SynchronizedDiscriminationReceiver(protocol, 2), space_b)
        base = eval_discrimination(protocol, recv, space_b, 2,
                                   mode="exact").expected
        keys = list(recv.table.keys())
        for _ in range(50):
            key = keys[int(rng.integers(len(keys)))]
            row = recv.table[key].copy()
            bump = min(0.1, float(row.min()), float(1.0 - row.max()))
            delta = rng.uniform(0, bump) if bump > 0 else 0.0
            perturbed = dict(recv.table)
            j = int(rng.integers(2))
            newrow = row.copy()
            newrow[j] += delta
            newrow[1 - j] -= delta
            perturbed[key] = newrow
            other = TabularDiscriminationReceiver(2, 2, perturbed)
            worse = eval_discrimination(protocol, other, space_b, 2,
                                        mode="exact").expected
            assert worse >= base - 1e-12


class TestCandidateUnawareEquivalence:
    def test_losses_match(self, space_b, split):
        from signalgames import ScoreDiscriminationReceiver
        sync = SynchronizedDiscriminationReceiver(split, 2)
        indicator = np.zeros((split.num_messages, split.size))
        indicator[split.assignment, np.arange(split.size)] = 1.0
        score = ScoreDiscriminationReceiver(indicator, 2)
        a = eval_discrimination(split, sync, space_b, 2, mode="exact")
        b = eval_discrimination(split, score, space_b, 2, mode="exact")
        assert abs(a.expected - b.expected) < 1e-12


class TestSubstream:
    def test_named_streams_independent_and_stable(self):
        a1 = substream(7, "baseline").random(3)
        a2 = substream(7, "baseline").random(3)
        b = substream(7, "accuracy").random(3)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
