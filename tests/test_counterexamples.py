import math

import numpy as np
import pytest

from signalgames import (
    BudgetExceededError,
    GameSpec,
    InputSpace,
    build_anticonsistent_optimal,
    build_mirror_pairs_instance,
    disc_objective,
    disc_objective_simplified,
    exhaustive_search,
    message_probabilities,
    semantic_consistency,
    verify_antipodal_split,
    verify_mirror_pairs,
)
from signalgames import games
from signalgames.games import eval_discrimination, synchronized_sender

LOG2 = math.log(2.0)


@pytest.fixture(scope="module")
def inst():
    return build_mirror_pairs_instance()


@pytest.fixture(scope="module")
def report():
    return verify_mirror_pairs()


class TestMirrorPairsConstruction:
    def test_variance(self, inst):
        assert abs(inst.space.variance() - 91.0 / 6.0) < 1e-12

    def test_epsilon(self, inst):
        assert inst.message_space.epsilon_min() == 1.0

    def test_uniform_masses(self, inst):
        p = message_probabilities(inst.protocol, inst.space)
        assert np.allclose(p, 1.0 / 6.0, atol=1e-12)

    def test_dense_table_covers_all_queries(self, inst):
        assert len(inst.receiver.table) == 6 * 12 * 12
        for row in inst.receiver.table.values():
            assert abs(row.sum() - 1.0) < 1e-12

    def test_receiver_case_analysis(self, inst):
        # indices: 0 -> +1, 1 -> -1, 2 -> +2, ...
        assert inst.receiver.probabilities(0, (0, 2)).tolist() == [1.0, 0.0]
        assert inst.receiver.probabilities(0, (2, 1)).tolist() == [0.0, 1.0]
        assert inst.receiver.probabilities(0, (0, 1)).tolist() == [0.5, 0.5]
        # neither candidate in the message's pair: uniform completion
        assert inst.receiver.probabilities(0, (2, 3)).tolist() == [0.5, 0.5]


class TestMirrorPairsVerification:
    def test_overall(self, report):
        assert report["passed"] and report["failed_step"] is None

    @pytest.mark.parametrize("name", [
        "construction", "simplicity", "synchronized-sender",
        "synchronized-loss", "non-degeneracy", "optimality",
        "semantic-consistency", "spatial-meaningfulness"])
    def test_each_step(self, report, name):
        step = next(s for s in report["steps"] if s["step"] == name)
        assert step["ok"]

    def test_simplicity_numbers(self, report):
        step = next(s for s in report["steps"] if s["step"] == "simplicity")
        assert abs(step["worst_ratio"] - 1.0 / math.sqrt(2.0)) < 1e-12
        exact_k = (math.sqrt(2.0) - 1.0) / 2.0 * math.sqrt(91.0 / 6.0)
        assert abs(step["k"] - exact_k) < 1e-12
        assert abs(step["k"] - 0.8066) < 1e-4
        assert step["k"] > 1.0 / math.sqrt(2.0)

    def test_loss_numbers(self, report):
        step = next(s for s in report["steps"]
                    if s["step"] == "synchronized-loss")
        assert abs(step["expected_loss"] - LOG2 / 6.0) < 1e-12
        assert abs(step["expected_loss"] - 0.115525) < 1e-6
        nd = next(s for s in report["steps"] if s["step"] == "non-degeneracy")
        assert abs(nd["constant_loss"] - 0.693147) < 1e-6

    def test_synchronized_sender_is_pairing(self):
        inst = build_mirror_pairs_instance()
        sender = synchronized_sender(inst.receiver, inst.space,
                                     GameSpec("discrimination", d=2))
        assert sender == inst.protocol

    def test_per_input_losses_constant(self):
        inst = build_mirror_pairs_instance()
        rep = eval_discrimination(inst.protocol, inst.receiver, inst.space,
                                  2, mode="exact")
        assert np.allclose(rep.per_input, LOG2 / 6.0, atol=1e-12)


class TestAnticonsistentOptimal:
    def test_four_point_line(self, space_b):
        protocol = build_anticonsistent_optimal(space_b, 2)
        assert protocol.assignment.tolist() == [0, 1, 1, 0]
        assert abs(disc_objective_simplified(protocol, space_b) - 0.5) < 1e-12
        assert not semantic_consistency(protocol, space_b).consistent

    def test_symmetric_pairs(self):
        space = InputSpace.uniform(np.asarray([-2.0, -1.0, 1.0, 2.0])[:, None])
        protocol = build_anticonsistent_optimal(space, 2)
        res = semantic_consistency(protocol, space)
        assert not res.consistent and abs(res.explained_variance) < 1e-12
        # pairs {-2, 2} and {-1, 1}: both class means at zero
        from signalgames import conditional_stats
        for m in range(2):
            mean, _ = conditional_stats(protocol, space, m)
            assert abs(float(mean[0])) < 1e-12

    def test_two_points_single_message(self):
        space = InputSpace.uniform([[0.0], [1.0]])
        protocol = build_anticonsistent_optimal(space, 1)
        assert protocol.assignment.tolist() == [0, 0]
        assert not semantic_consistency(protocol, space).consistent

    def test_matches_exhaustive_optimum(self):
        from conftest import rng_for
        rng = rng_for("anticonsistent-optimal")
        for _ in range(6):
            k = int(rng.integers(2, 4))
            space = InputSpace.uniform(rng.normal(size=(2 * k, 2)))
            protocol = build_anticonsistent_optimal(space, k)
            best = exhaustive_search(space, k,
                                     GameSpec("discrimination", d=2)).value
            assert abs(disc_objective(protocol, space, 2) - best) < 1e-12

    def test_preconditions(self, space_b):
        lop = InputSpace(np.arange(4.0)[:, None], [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ValueError):
            build_anticonsistent_optimal(lop, 2)
        with pytest.raises(ValueError):
            build_anticonsistent_optimal(space_b, 3)


class TestAntipodalVerdict:
    def test_search_within_enumeration_budget(self, monkeypatch):
        # the search scores 86,472 partitions and holds 945 tied pairings
        # of 10 entries each: within the term budget the split is checked
        # against the exhaustive minimum, and a budget one below the
        # partition count leaves only the convexity bound
        mags = np.array([3.0, 2.5, 1.5, 0.75, 0.25])
        space = InputSpace.uniform(np.ravel(np.column_stack([mags, -mags])))
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 86_472)
        report = verify_antipodal_split(space, 5)
        assert report["passed"] and report["optimal"]
        assert abs(report["exhaustive_minimum"] - LOG2 / 5) < 1e-12
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 86_472 - 1)
        report = verify_antipodal_split(space, 5)
        assert report["passed"] and "exhaustive_minimum" not in report

    def test_minimum_past_the_tie_budget(self, monkeypatch):
        # the 8 partitions of {0, 1, 2, 3} into at most 2 blocks fit a
        # budget of 8, but the 3 tied pairings' 12 entries do not: the
        # split is still checked against the exhaustive minimum
        space = InputSpace.uniform(np.arange(4.0)[:, None])
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 8)
        with pytest.raises(BudgetExceededError):
            exhaustive_search(space, 2, GameSpec("discrimination", d=2))
        report = verify_antipodal_split(space, 2)
        assert report["passed"] and report["optimal"]
        assert abs(report["exhaustive_minimum"] - LOG2 / 2) < 1e-12

    def test_report(self, space_b):
        report = verify_antipodal_split(space_b, 2)
        assert report["passed"]
        assert report["optimal"]
        assert not report["semantically_consistent"]
        assert abs(report["simplified_objective"] - 0.5) < 1e-12
