import math
import warnings

import numpy as np
import pytest

from signalgames import (
    BudgetExceededError,
    ConstantDiscriminationReceiver,
    EmptyClassError,
    GameSpec,
    GlobalReceiver,
    LabelMap,
    Protocol,
    ReconstructionReceiver,
    candidate_unaware_equivalence,
    eval_classification,
    eval_discrimination,
    eval_global,
    eval_reconstruction,
    eval_supervised,
    synchronized_receiver,
    synchronized_sender,
)
from signalgames.games import (
    SynchronizedDiscriminationReceiver,
    TabularDiscriminationReceiver,
    materialize_discrimination_table,
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

    def test_generic_receiver_mc_path(self, space_b, split):
        # dense table receivers run the per-episode path
        recv = materialize_discrimination_table(
            SynchronizedDiscriminationReceiver(split, 2), space_b)
        rep = eval_discrimination(split, recv, space_b, 2, mode="mc",
                                  samples=3000, seed=11)
        assert abs(rep.expected - 0.5 * LOG2) < 5 * rep.std_error


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

    def test_mc_single_sample_has_no_std_error(self, space_b, anti,
                                               labels_ab):
        spec = GameSpec("classification", labels=labels_ab)
        recv = synchronized_receiver(anti, space_b, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = eval_classification(anti, recv, space_b, labels_ab,
                                      mode="mc", samples=1, seed=1)
        assert rep.samples == 1 and rep.std_error is None


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
    def test_split_and_anti(self, space_b, split, anti):
        for protocol in (split, anti, Protocol.identity(4)):
            ok, gap = candidate_unaware_equivalence(protocol, space_b, 2)
            assert ok and gap == 0.0

    def test_losses_match(self, space_b, split):
        from signalgames import ScoreDiscriminationReceiver
        sync = SynchronizedDiscriminationReceiver(split, 2)
        score = ScoreDiscriminationReceiver.indicator(split, 2)
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
