import math

import numpy as np
import pytest

from signalgames import (
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
)
from signalgames.games import materialize_discrimination_table, \
    SynchronizedDiscriminationReceiver

from conftest import random_space, rng_for
from oracles import conditional_pairwise_bruteforce

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

    def test_conditionals_match_bruteforce(self):
        rng = rng_for("spatial-oracle")
        for _ in range(10):
            space = random_space(rng, n_max=6)
            k = int(rng.integers(2, 4))
            protocol = Protocol(rng.integers(0, k, size=space.size), k)
            vecs = np.sort(rng.normal(size=k))[:, None] * 3.0
            ms = MessageSpace.from_vectors(vecs)
            res = spatial_meaningfulness(protocol, space, ms,
                                         eps0=float(
                                             ms.distance_matrix().max()))
            dist = ms.distance_matrix().tolist()
            for t in res.thresholds:
                if t.vacuous:
                    continue
                eps = t.epsilon if t.epsilon > 0 else \
                    min(v for row in dist for v in row if v > 0) / 2
                want = conditional_pairwise_bruteforce(
                    protocol.assignment.tolist(), dist, space.points,
                    space.weights.tolist(), eps)
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

    def test_k_constant(self, space_b):
        assert abs(simplicity_constant(1.0, space_b)
                   - (math.sqrt(2) - 1) / 2 * math.sqrt(1.25)) < 1e-15

    @pytest.mark.parametrize("eps0", [0.0, -1.0])
    def test_k_constant_needs_positive_eps0(self, space_b, eps0):
        with pytest.raises(ValueError, match="positive"):
            simplicity_constant(eps0, space_b)


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
