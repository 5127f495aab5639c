import itertools
import math
import warnings

import numpy as np
import pytest

from signalgames import (
    GameSpec,
    InputSpace,
    LabelMap,
    Protocol,
    binomial_log_moment,
    classification_objective,
    convexity_check,
    disc_objective,
    disc_objective_simplified,
    entropy,
    global_objective,
    mutual_information,
    reco_objective,
    supervised_objective,
)
from signalgames.games import (
    eval_classification,
    eval_discrimination,
    eval_global,
    eval_reconstruction,
    eval_supervised,
    synchronized_receiver,
)
from signalgames.objectives import batch_objective, joint_message_label

from conftest import random_protocol, random_space, rng_for
from oracles import entropy_bruteforce, mutual_information_bruteforce

LOG2 = math.log(2.0)


class TestRecoObjective:
    def test_split(self, space_b, split):
        assert abs(reco_objective(split, space_b) - 0.25) < 1e-15

    def test_anti_split_explains_nothing(self, space_b, anti):
        assert abs(reco_objective(anti, space_b) - 1.25) < 1e-15

    def test_lossless(self, space_b):
        assert reco_objective(Protocol.identity(4), space_b) == 0.0

    def test_decomposition(self):
        # explained + unexplained = Var[X]
        rng = rng_for("decomposition")
        for _ in range(25):
            space = random_space(rng)
            protocol = random_protocol(rng, space.size)
            unexplained = reco_objective(protocol, space)
            from signalgames import semantic_consistency
            res = semantic_consistency(protocol, space)
            assert abs(res.explained_variance + unexplained
                       - space.variance()) < 1e-10


class TestBinomialLogMoment:
    def test_zero(self):
        assert binomial_log_moment(0.0, 2) == 0.0
        assert binomial_log_moment(0.0, 7) == 0.0

    def test_certain_collision(self):
        assert abs(binomial_log_moment(1.0, 2) - LOG2) < 1e-15

    def test_half_three_candidates(self):
        # enumerate k in {0,1,2}: 0.5 * (0.5 log 2 + 0.25 log 3)
        expect = 0.5 * (0.5 * LOG2 + 0.25 * math.log(3.0))
        assert abs(binomial_log_moment(0.5, 3) - expect) < 1e-15
        assert abs(binomial_log_moment(0.5, 3) - 0.31061333) < 1e-7

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binomial_log_moment(1.5, 2)
        with pytest.raises(ValueError):
            binomial_log_moment(0.5, 1)


class TestDiscObjective:
    def test_uniform_messages(self):
        for k in (2, 3, 4):
            space = InputSpace.uniform(np.arange(float(k))[:, None])
            p = Protocol(list(range(k)), k)
            assert abs(disc_objective_simplified(p, space) - 1.0 / k) < 1e-12
            assert abs(disc_objective(p, space, 2) - LOG2 / k) < 1e-12

    def test_constant(self, space_b):
        const = Protocol.constant(4)
        assert disc_objective_simplified(const, space_b) == 1.0
        assert abs(disc_objective(const, space_b, 2) - LOG2) < 1e-15

    def test_two_equal_messages_d3(self, space_b, split):
        expect = 2.0 * binomial_log_moment(0.5, 3)
        assert abs(disc_objective(split, space_b, 3) - expect) < 1e-15
        assert abs(expect - 0.62123) < 1e-5

    def test_d2_equals_log2_sum_squares(self):
        rng = rng_for("disc-d2")
        for _ in range(25):
            space = random_space(rng)
            protocol = random_protocol(rng, space.size)
            assert abs(disc_objective(protocol, space, 2)
                       - LOG2 * disc_objective_simplified(protocol, space)
                       ) < 1e-12


class TestGlobalObjective:
    def test_constant_zero_information(self, space_b):
        assert global_objective(Protocol.constant(4), space_b) == 0.0

    def test_split(self, space_b, split):
        assert abs(global_objective(split, space_b) + LOG2) < 1e-15

    def test_lossless(self, space_b):
        assert abs(global_objective(Protocol.identity(4), space_b)
                   + math.log(4.0)) < 1e-15

    def test_equals_mi_bookkeeping(self):
        # -H(S(X)) agrees with H(X) - H(X|S) for deterministic senders
        from oracles import global_loss_bruteforce
        rng = rng_for("global-mi")
        for _ in range(20):
            space = random_space(rng)
            protocol = random_protocol(rng, space.size)
            h_x = entropy_bruteforce(space.weights)
            h_x_given_s = global_loss_bruteforce(protocol.assignment.tolist(),
                                                 space.weights.tolist())
            assert abs(global_objective(protocol, space)
                       - (h_x_given_s - h_x)) < 1e-10


class TestSupervisedObjective:
    def test_label_pure(self, space_b, split, labels_ab):
        res = supervised_objective(split, space_b, labels_ab)
        assert abs(res.value) < 1e-15
        assert abs(res.diversity_term - 0.5) < 1e-15
        assert abs(res.purity_term - 0.5) < 1e-15

    def test_anti_split(self, space_b, anti, labels_ab):
        res = supervised_objective(anti, space_b, labels_ab)
        assert abs(res.value - 0.25) < 1e-15

    def test_constant(self, space_b, labels_ab):
        res = supervised_objective(Protocol.constant(4), space_b, labels_ab)
        assert abs(res.value - 0.5) < 1e-15

    def test_nonnegative_zero_iff_pure(self, space_b, labels_ab):
        # full enumeration over K=2 assignments of the four-point space
        for assignment in itertools.product(range(2), repeat=4):
            protocol = Protocol(assignment, 2)
            res = supervised_objective(protocol, space_b, labels_ab)
            assert res.value >= -1e-15
            joint = joint_message_label(protocol, space_b, labels_ab)
            pure = all((row > 0).sum() <= 1 for row in joint)
            assert (res.value < 1e-15) == pure


class TestClassificationObjective:
    def test_examples(self, space_b, split, anti, labels_ab):
        assert abs(classification_objective(split, space_b, labels_ab)
                   + LOG2) < 1e-15
        assert abs(classification_objective(anti, space_b, labels_ab)) < 1e-15
        assert abs(classification_objective(Protocol.constant(4), space_b,
                                            labels_ab)) < 1e-15

    def test_against_bruteforce_mi(self):
        rng = rng_for("classification-mi")
        for _ in range(20):
            space = random_space(rng, uniform=True)
            protocol = random_protocol(rng, space.size)
            labels = LabelMap([int(v) for v in
                               rng.integers(0, 3, size=space.size)])
            joint = joint_message_label(protocol, space, labels)
            assert abs(classification_objective(protocol, space, labels)
                       + mutual_information_bruteforce(joint)) < 1e-10


class TestPinnedBits:
    """The closed forms' exact bits on a small seeded population, recorded
    before the kernel was tuned; any reordering of its float operations
    that moves a bit fails here."""

    # per protocol: reconstruction, discrimination (d=3), global,
    # supervised value, diversity and purity terms, classification
    SCALAR = [
        ["0x1.fa69ed5b84395p+0", "0x1.1a9c6c0dd3adep-1",
         "-0x1.d7a7411008e08p-1", "0x1.ca394e20de757p-3",
         "0x1.c808d052afe02p-2", "0x1.c5d85284814adp-3",
         "-0x1.703e858f26a1cp-2"],
        ["0x1.042a35e825b26p+1", "0x1.029ff30218834p-1",
         "-0x1.fcdead43fbe76p-1", "0x1.0000000000000p-54",
         "0x1.9bf85e0ad95d7p-2", "0x1.9bf85e0ad95d6p-2",
         "-0x1.fcdead43fbe76p-1"],
        ["0x1.177e83713bfcap+1", "0x1.c597d0499aa04p-2",
         "-0x1.14932bd98fd72p+0", "0x1.6d12c997998f1p-3",
         "0x1.612828a8b8864p-2", "0x1.553d87b9d77d7p-3",
         "-0x1.c7c940de55c50p-3"],
        ["0x1.3db5b271e473ep+0", "0x1.cc13b56135ca6p-2",
         "-0x1.125af94ac4a6bp+0", "0x1.1c16bc66038b9p-3",
         "0x1.6719c3b72e681p-2", "0x1.b21ccb0859449p-3",
         "-0x1.aeb140b1a9ab0p-2"],
    ]
    # batch_objective's supervised loss at d=3, one entry per protocol
    SUPERVISED_LOSS = ["0x1.bc27293059ddap-2", "0x0.0p+0",
                       "0x1.9809e12152f25p-2", "0x1.3434762e479eep-2"]

    @staticmethod
    def _population():
        rng = rng_for("pinned closed-form bits")
        n, k = 7, 3
        pts = rng.normal(size=(n, 2))
        w = rng.random(n) + 0.1
        space = InputSpace(pts, w / w.sum())
        labels = LabelMap([f"y{int(v)}" for v in rng.integers(0, 3, size=n)])
        rows = []
        while len(rows) < 4:  # batch_objective infers K from message K-1
            a = rng.integers(0, k, size=n)
            if a.max() == k - 1:
                rows.append(a)
        return space, labels, np.array(rows), k

    def test_scalar_forms(self):
        space, labels, rows, k = self._population()
        for a, want in zip(rows, self.SCALAR):
            q = Protocol(a, k)
            sup = supervised_objective(q, space, labels)
            got = [reco_objective(q, space), disc_objective(q, space, 3),
                   global_objective(q, space), sup.value,
                   sup.diversity_term, sup.purity_term,
                   classification_objective(q, space, labels)]
            assert [float.hex(v) for v in got] == want

    def test_batch_equals_scalar(self):
        space, labels, rows, k = self._population()
        scalar = {
            "reconstruction": lambda q: reco_objective(q, space),
            "discrimination": lambda q: disc_objective(q, space, 3),
            "global": lambda q: global_objective(q, space),
            "classification": lambda q: classification_objective(
                q, space, labels),
        }
        for kind, form in scalar.items():
            batch = batch_objective(rows, space,
                                    GameSpec(kind, d=3, labels=labels))
            for a, value in zip(rows, batch):
                assert float.hex(float(value)) == float.hex(
                    form(Protocol(a, k)))
        sup = batch_objective(rows, space,
                              GameSpec("supervised", d=3, labels=labels))
        assert [float.hex(float(v)) for v in sup] == self.SUPERVISED_LOSS


class TestConvexity:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_grid(self, d):
        assert convexity_check(d)

    def test_step_guard(self):
        with pytest.raises(ValueError):
            convexity_check(2, grid_step=0.01)


class TestInformationHelpers:
    def test_entropy_conventions(self):
        assert entropy([1.0]) == 0.0
        assert abs(entropy([0.5, 0.5, 0.0]) - LOG2) < 1e-15

    def test_mi_matches_bruteforce(self):
        rng = rng_for("mi")
        for _ in range(10):
            joint = rng.random((3, 4))
            joint /= joint.sum()
            assert abs(mutual_information(joint)
                       - mutual_information_bruteforce(joint)) < 1e-12

    @pytest.mark.parametrize("shape", [(300, 7), (40, 6, 5)])
    def test_entropy_matches_entr(self, shape):
        special = pytest.importorskip("scipy.special")
        p = _tables_with_zeros(rng_for(f"entropy-entr-{shape}"), shape, 1)
        got, want = entropy(p), special.entr(p).sum(axis=-1)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
        # the point masses among the rows keep entr's +0
        assert np.any(want == 0.0)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_mutual_information_matches_entr(self):
        special = pytest.importorskip("scipy.special")
        joint = _tables_with_zeros(rng_for("mi-entr"), (300, 6, 4), 2)

        def h(q):
            return special.entr(q).sum(axis=-1)

        want = h(joint.sum(axis=-1)) + h(joint.sum(axis=-2)) \
            - h(joint.reshape(len(joint), -1))
        assert np.max(np.abs(mutual_information(joint) - want)) <= 1e-15

    def test_zero_and_subnormal_entries_warn_nothing(self):
        tiny = 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.copysign(1.0, entropy([1.0, 0.0])) == 1.0
            assert 0.0 < entropy([tiny, 0.0, 1.0]) < 1e-300
            assert 0.0 <= mutual_information([[tiny, 0.0], [0.0, 1.0]]) \
                < 1e-300
            # -H(S) of a point mass among empty messages reads -0.0
            one = InputSpace.uniform([[0.0]])
            assert math.copysign(1.0, global_objective(
                Protocol([0], 2), one)) == -1.0


def _tables_with_zeros(rng, shape, axes):
    """Random probability tables over the last ``axes`` axes, about a third
    of the entries zero, the first table a point mass."""
    p = rng.random(shape)
    p[rng.random(shape) < 0.35] = 0.0
    p[0] = 0.0
    p[(0,) * len(shape)] = 1.0
    total = p.sum(axis=tuple(range(-axes, 0)), keepdims=True)
    return p / np.where(total > 0.0, total, 1.0)


def _argmin_set(values, tol=1e-12):
    best = min(values)
    return {i for i, v in enumerate(values) if v <= best + tol}


class TestLemmaEquivalence:
    """Argmin sets of the closed forms match the exact game losses under
    synchronized receivers, enumerated over every protocol of a small
    instance."""

    def _enumerate(self, n, k):
        return [Protocol(a, k)
                for a in itertools.product(range(k), repeat=n)]

    def test_reconstruction(self):
        rng = rng_for("lemma-reco")
        for _ in range(4):
            space = random_space(rng, n_max=5, dim_max=2)
            protocols = self._enumerate(space.size, 2)
            closed = [reco_objective(p, space) for p in protocols]
            exact = []
            for p in protocols:
                r = synchronized_receiver(p, space, GameSpec("reconstruction"))
                exact.append(eval_reconstruction(p, r, space).expected)
            assert _argmin_set(closed) == _argmin_set(exact)
            assert max(abs(c - e) for c, e in zip(closed, exact)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_discrimination(self, d):
        rng = rng_for(f"lemma-disc-{d}")
        space = random_space(rng, n_max=4, dim_max=2)
        protocols = self._enumerate(space.size, 2)
        spec = GameSpec("discrimination", d=d)
        closed = [disc_objective(p, space, d) for p in protocols]
        exact = []
        for p in protocols:
            r = synchronized_receiver(p, space, spec)
            exact.append(eval_discrimination(p, r, space, d,
                                             mode="exact").expected)
        assert _argmin_set(closed) == _argmin_set(exact)
        assert max(abs(c - e) for c, e in zip(closed, exact)) < 1e-10

    def test_global(self):
        rng = rng_for("lemma-global")
        space = random_space(rng, n_max=5)
        protocols = self._enumerate(space.size, 2)
        closed = [global_objective(p, space) for p in protocols]
        exact = []
        for p in protocols:
            r = synchronized_receiver(p, space, GameSpec("global"))
            exact.append(eval_global(p, r, space).expected)
        assert _argmin_set(closed) == _argmin_set(exact)

    def test_supervised(self):
        space = InputSpace.uniform(np.asarray(
            [[0.0, 1.0], [2.0, 0.5], [1.0, -1.0], [3.0, 0.0]]))
        labels = LabelMap(["a", "a", "b", "b"])
        protocols = self._enumerate(4, 2)
        spec = GameSpec("supervised", d=2, labels=labels)
        closed = [supervised_objective(p, space, labels).value
                  for p in protocols]
        exact = []
        for p in protocols:
            r = synchronized_receiver(p, space, spec)
            exact.append(eval_supervised(p, r, space, labels).expected)
        assert _argmin_set(closed) == _argmin_set(exact)
        # the exact loss is an exact positive rescaling of the objective
        scale = LOG2 * labels.num_values / (labels.num_values - 1)
        assert max(abs(e - scale * c)
                   for c, e in zip(closed, exact)) < 1e-10

    def test_classification(self):
        space = InputSpace.uniform(np.asarray(
            [[0.0], [2.0], [1.0], [3.0]]))
        labels = LabelMap(["a", "a", "b", "b"])
        protocols = self._enumerate(4, 2)
        spec = GameSpec("classification", labels=labels)
        closed = [classification_objective(p, space, labels)
                  for p in protocols]
        exact = []
        for p in protocols:
            r = synchronized_receiver(p, space, spec)
            exact.append(eval_classification(p, r, space, labels,
                                             mode="exact").expected)
        assert _argmin_set(closed) == _argmin_set(exact)


class TestCorollaryUniform:
    @pytest.mark.parametrize("d", [2, 3])
    def test_equal_mass_partitions_optimal(self, d):
        # uniform six points, three messages: every equal-size partition
        # attains the exhaustive minimum
        from signalgames import exhaustive_search
        space = InputSpace.uniform(np.arange(6.0)[:, None])
        spec = GameSpec("discrimination", d=d)
        result = exhaustive_search(space, 3, spec)
        bound = 3.0 * binomial_log_moment(1.0 / 3.0, d)
        assert abs(result.value - bound) < 1e-12
        for p in result.protocols:
            counts = np.bincount(p.assignment, minlength=3)
            assert sorted(counts.tolist()) == [2, 2, 2]
