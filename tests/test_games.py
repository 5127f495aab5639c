import ast
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

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
from signalgames import games
from signalgames.games import (
    DiscriminationReceiver,
    ScoreDiscriminationReceiver,
    SynchronizedDiscriminationReceiver,
    TabularDiscriminationReceiver,
    per_input_message_losses,
    substream,
)

from conftest import random_protocol, random_space, rng_for
from oracles import (
    classification_mc_flat,
    discrimination_loss_bruteforce,
    discrimination_mc_flat,
    global_loss_bruteforce,
    materialize_discrimination_table,
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

    @pytest.mark.parametrize("dim", [2, 4])
    def test_receiver_of_another_dimension_raises(self, dim):
        space = InputSpace.uniform(np.eye(3))
        recv = ReconstructionReceiver(np.zeros((2, dim)))
        with pytest.raises(ValueError):
            eval_reconstruction(Protocol([0, 1, 0], 2), recv, space)
        with pytest.raises(ValueError):
            per_input_message_losses(recv, space, GameSpec("reconstruction"))

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

    def test_exact_budget_guard(self, space_b, split, monkeypatch):
        # 4 targets x C(4, 1) distractor multisets: 16 terms, checked
        # against the module budget as it stands at call time
        recv = SynchronizedDiscriminationReceiver(split, 2)
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 16)
        assert eval_discrimination(split, recv, space_b, 2).mode == "exact"
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 15)
        with pytest.raises(BudgetExceededError) as exc:
            eval_discrimination(split, recv, space_b, 2)
        assert exc.value.required == 16

    def test_auto_mode_rejected(self, space_b, split, labels_ab):
        recv = SynchronizedDiscriminationReceiver(split, 2)
        with pytest.raises(ValueError, match="unknown mode 'auto'"):
            eval_discrimination(split, recv, space_b, 2, mode="auto")
        with pytest.raises(ValueError, match="unknown mode 'auto'"):
            eval_classification(split, recv, space_b, labels_ab, mode="auto")

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
        # each batch holds whole (input, choice) groups: at most three of
        # 3 x 20^2 terms, or six of 5^4 candidate tuples
        assert max(sizes) == 6 * 5 ** 4 and max(sizes[:7]) == 3 * 1200

    def test_batches_never_shrink_below_4096_rows(self):
        # where one input's terms exceed 4096 rows, a batch holds the
        # fewest trailing radices that reach 4096, whatever the label order
        assert games._group_chunk([1500, 3]) == 4500
        assert games._group_chunk([3000, 2]) == 6000
        assert games._group_chunk([3, 1500]) == 4500
        assert games._group_chunk([2, 5000]) == 5000
        assert games._group_chunk([3, 100, 100]) == 10_000
        sizes = []

        class Sizes(ScoreDiscriminationReceiver):
            def probabilities_batch(self, messages, candidates):
                sizes.append(len(candidates))
                return super().probabilities_batch(messages, candidates)

        n = 129  # labels of 65 and 64 inputs: 4160 tuples per input
        space = InputSpace.uniform(np.arange(float(n))[:, None])
        labels = LabelMap([0] * 65 + [1] * 64)
        recv = Sizes(rng_for("batch-floor").random((2, n)) + 0.1, 2)
        eval_classification(Protocol(np.arange(n) % 2, 2), recv, space,
                            labels)
        assert sizes == [65 * 64] * n

    def test_generic_receiver_mc_path(self, space_b, split):
        # dense table receivers run the per-episode path
        recv = materialize_discrimination_table(
            SynchronizedDiscriminationReceiver(split, 2), space_b)
        rep = eval_discrimination(split, recv, space_b, 2, mode="mc",
                                  samples=3000, seed=11)
        assert abs(rep.expected - 0.5 * LOG2) < 5 * rep.std_error

    def test_mc_asks_a_subclass_that_overrides_the_batch(self, space_b,
                                                         split):
        # half the synchronized rows, half the uniform coin: the
        # synchronized shortcut would estimate the parent's 0.5 log 2
        class Blurred(SynchronizedDiscriminationReceiver):
            def probabilities_batch(self, messages, candidates):
                return 0.5 * super().probabilities_batch(
                    messages, candidates) + 0.25

        recv = Blurred(split, 2)
        exact = eval_discrimination(split, recv, space_b, 2,
                                    mode="exact").expected
        rep = eval_discrimination(split, recv, space_b, 2, mode="mc",
                                  samples=20_000, seed=7)
        assert abs(rep.expected - exact) < 4 * rep.std_error

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_mc_synchronized_memory_per_sample(self, score_instance, d,
                                               shards):
        # the synchronized path holds its targets and losses and one block
        # of distractors, never a (samples, d - 1) array
        space, protocol, _ = score_instance
        recv = synchronized_receiver(protocol, space,
                                     GameSpec("discrimination", d=d))
        samples = 10 ** 6
        tracemalloc.start()
        try:
            eval_discrimination(protocol, recv, space, d, mode="mc",
                                samples=samples, seed=2, shards=shards)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * samples


class TestMonteCarloSizes:
    @pytest.mark.parametrize("samples", [0, -1, 2.5])
    def test_samples_must_be_a_positive_integer(self, score_instance,
                                                samples):
        space, protocol, score = score_instance
        labels = LabelMap(["a", "b", "a", "c", "b"])
        with pytest.raises(ValueError, match="samples must be a positive"):
            eval_discrimination(protocol, score, space, 3, mode="mc",
                                samples=samples)
        with pytest.raises(ValueError, match="samples must be a positive"):
            eval_classification(protocol, score, space, labels, mode="mc",
                                samples=samples)

    @pytest.mark.parametrize("shards", [0, -1, 2.5])
    def test_shards_must_be_a_positive_integer(self, score_instance, shards):
        space, protocol, score = score_instance
        with pytest.raises(ValueError, match="shards must be a positive"):
            eval_discrimination(protocol, score, space, 3, mode="mc",
                                samples=10, shards=shards)


class TestSampler:
    """The guide-table sampler returns exactly ``Generator.choice``'s draws
    on the same stream."""

    @staticmethod
    def weights(kind, n):
        u = rng_for(f"sampler-{n}").random(n)
        if kind == "uniform":
            w = np.ones(n)
        elif kind == "steep":  # many cdf steps in the first buckets
            w = u ** 7 + 1e-12
        else:  # one input holds nearly all the mass
            w = np.full(n, 1e-9)
            w[n // 2] = 1.0
        return w / w.sum()

    @pytest.mark.parametrize("kind", ["uniform", "steep", "dominant"])
    @pytest.mark.parametrize("n", [1, 2, 24, 255, 256, 257, 5000])
    def test_draws_equal_generator_choice(self, n, kind):
        w = self.weights(kind, n)
        sampler = games._Sampler(w)
        for shape in [(0,), (1,), (65537,), (70001, 2), (3, 0)]:
            for seed in range(3):
                want = np.random.default_rng(seed).choice(n, size=shape, p=w)
                got = sampler.draw(np.random.default_rng(seed), shape)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("w", [[1.0], [1 / 3, 2 / 3], [0.25, 0.25, 0.5],
                                   [0.1, 0.2, 0.3, 0.15, 0.25]])
    def test_uniforms_on_cdf_values_and_bucket_edges(self, w):
        # uniforms that equal a cdf value, a bucket edge or their
        # neighbouring doubles answer as searchsorted(cdf, u, "right")
        class Uniforms:
            def __init__(self, u):
                self.u, self.at = u, 0

            def random(self, size):
                self.at += size
                return self.u[self.at - size:self.at]

        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        edges = np.concatenate([np.arange(2 ** j) / 2 ** j
                                for j in range(12)])
        u = np.concatenate([cdf, edges, 1 / np.arange(3.0, 99.0)])
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        sampler = games._Sampler(np.array(w))
        # u * m and b / m are exact only for a power of two m
        assert sampler.m >= 4 * len(w) and sampler.m & (sampler.m - 1) == 0
        got = sampler.draw(Uniforms(u), u.size)
        assert np.array_equal(got, cdf.searchsorted(u, "right"))

    def test_draws_continue_the_stream(self):
        # a draw takes exactly its own uniforms, so the next call on the
        # same generator sees what follows them
        w = self.weights("steep", 24)
        want, got = np.random.default_rng(9), np.random.default_rng(9)
        sampler = games._Sampler(w)
        for size in (5, 70_000, 3):
            assert np.array_equal(sampler.draw(got, size),
                                  want.choice(24, size=size, p=w))
        assert got.random() == want.random()


class _Ordered(DiscriminationReceiver):
    """Answers as ``inner`` does, but is not a built-in receiver, so the
    exact paths ask it every (target position, ordered distractor tuple)."""

    def __init__(self, inner):
        self.inner = inner
        self.num_candidates = inner.num_candidates
        self.num_messages = inner.num_messages

    def probabilities_batch(self, messages, candidates):
        return self.inner.probabilities_batch(messages, candidates)


def _score_probs(scores):
    """The score receiver's distribution for one query, in plain Python."""
    def probs(m, cands):
        s = [float(scores[m][c]) for c in cands]
        total = sum(s)
        return [1.0 / len(s)] * len(s) if total <= 0.0 \
            else [v / total for v in s]
    return probs


def _assert_losses_match(got, want, tol=1e-12):
    """Equal infinities, and finite entries within ``tol``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= tol)


class TestMultisetPath:
    """The built-in synchronized and score receivers enumerate distractor
    multisets; every answer must equal the ordered enumeration's."""

    @staticmethod
    def instance(rng):
        """A random space (points on a small grid, so that some repeat),
        protocol and score table (some scores 0, so that some losses are
        infinite), with ``n^d`` small enough for the plain-loop oracle."""
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, {2: 7, 3: 7, 4: 6, 5: 5}[d]))
        k = int(rng.integers(1, 4))
        w = rng.random(n) + 0.05
        space = InputSpace(rng.integers(0, 2, size=(n, 2)).astype(float),
                           w / w.sum())
        protocol = Protocol(rng.integers(0, k, size=n), k)
        scores = rng.random((k, n)) * (rng.random((k, n)) > 0.25)
        return space, protocol, scores, d

    def test_matches_ordered_enumeration(self):
        rng = rng_for("multiset-path")
        infinite = finite = 0
        for _ in range(120):
            space, protocol, scores, d = self.instance(rng)
            a, w = protocol.assignment.tolist(), space.weights.tolist()
            sync = SynchronizedDiscriminationReceiver(protocol, d)
            score = ScoreDiscriminationReceiver(scores, d)
            for recv, probs in ((sync, None), (score, _score_probs(scores))):
                rep = eval_discrimination(protocol, recv, space, d)
                want = discrimination_loss_bruteforce(a, w, d, probs)
                _assert_losses_match(rep.expected, want)
                ordered = eval_discrimination(protocol, _Ordered(recv),
                                              space, d)
                _assert_losses_match(rep.per_input, ordered.per_input)
                spec = GameSpec("discrimination", d=d)
                _assert_losses_match(
                    per_input_message_losses(recv, space, spec),
                    per_input_message_losses(_Ordered(recv), space, spec))
                infinite += rep.infinite
                finite += not rep.infinite
        assert infinite >= 10 and finite >= 100

    def test_supervised_law_matches_ordered_enumeration(self):
        rng = rng_for("multiset-supervised")
        for _ in range(30):
            d = int(rng.integers(2, 5))
            v = int(rng.integers(d, d + 2))  # the game asks d <= labels
            per = int(rng.integers(1, 3))
            space = InputSpace.uniform(rng.integers(0, 2, size=(v * per, 1)))
            labels = LabelMap(np.repeat(np.arange(v), per).tolist())
            protocol = random_protocol(rng, space.size, k_max=3)
            scores = rng.random((protocol.num_messages, space.size)) \
                * (rng.random((protocol.num_messages, space.size)) > 0.25)
            sync = SynchronizedDiscriminationReceiver(protocol, d)
            got = eval_supervised(protocol, sync, space, labels, d=d)
            assert abs(got.expected - supervised_loss_bruteforce(
                protocol.assignment.tolist(), space.weights.tolist(),
                list(labels.labels), d)) < 1e-12
            spec = GameSpec("supervised", d=d, labels=labels)
            for recv in (sync, ScoreDiscriminationReceiver(scores, d)):
                _assert_losses_match(
                    eval_supervised(protocol, recv, space, labels,
                                    d=d).per_input,
                    eval_supervised(protocol, _Ordered(recv), space, labels,
                                    d=d).per_input)
                _assert_losses_match(
                    per_input_message_losses(recv, space, spec),
                    per_input_message_losses(_Ordered(recv), space, spec))

    def test_zero_weight_inputs_in_a_law(self):
        # laws that give some inputs no weight, as the supervised laws do
        rng = rng_for("multiset-zero-weights")
        for _ in range(30):
            space, protocol, scores, d = self.instance(rng)
            n, k = space.size, protocol.num_messages
            laws = rng.random((2, n)) * (rng.random((2, n)) > 0.4)
            laws[:, 0] += 0.1  # every law keeps some support
            laws /= laws.sum(axis=1, keepdims=True)
            law_of = rng.integers(0, 2, size=n)
            messages = np.broadcast_to(np.arange(k), (n, k))
            for recv in (SynchronizedDiscriminationReceiver(protocol, d),
                         ScoreDiscriminationReceiver(scores, d)):
                _assert_losses_match(
                    games._exact_discrimination_losses(
                        messages, recv, d, laws, law_of),
                    games._exact_discrimination_losses(
                        messages, _Ordered(recv), d, laws, law_of))

    def test_position_dependent_subclass_takes_the_ordered_path(
            self, score_instance):
        space, protocol, score = score_instance

        class Reversed(ScoreDiscriminationReceiver):
            def probabilities_batch(self, messages, candidates):
                return super().probabilities_batch(messages,
                                                   candidates)[:, ::-1]

        recv = Reversed(score.scores, 3)
        probs = _score_probs(score.scores)
        got = eval_discrimination(protocol, recv, space, 3).expected
        want = discrimination_loss_bruteforce(
            protocol.assignment.tolist(), space.weights.tolist(), 3,
            lambda m, cands: probs(m, cands)[::-1])
        assert abs(got - want) < 1e-12
        # the multiset answer (target always first) would differ
        assert abs(got - eval_discrimination(protocol, score, space,
                                             3).expected) > 1e-3

    def test_batches_hold_at_most_4096_rows(self, monkeypatch):
        sizes = []
        batch = ScoreDiscriminationReceiver.probabilities_batch

        def counted(self, messages, candidates):
            sizes.append(len(candidates))
            return batch(self, messages, candidates)

        monkeypatch.setattr(ScoreDiscriminationReceiver,
                            "probabilities_batch", counted)
        space = InputSpace.uniform(np.arange(20.0)[:, None])
        protocol = Protocol(np.arange(20) % 4, 4)
        labels = LabelMap(list("abcd") * 5)
        recv = ScoreDiscriminationReceiver(
            rng_for("multiset-rows").random((4, 20)) + 0.1, 5)
        eval_discrimination(protocol, recv, space, 5, mode="exact")
        eval_supervised(protocol, recv, space, labels, d=5)
        per_input_message_losses(recv, space, GameSpec("discrimination", d=5))
        # 20 x C(23, 4) terms, then 20 x C(18, 4), then 4 choices of each
        assert sum(sizes) == 20 * math.comb(23, 4) + 20 * math.comb(18, 4) \
            + 4 * 20 * math.comb(23, 4)
        assert max(sizes) == 4096

    def test_past_the_budget_raises_before_enumerating(self, space_b, split,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(games, "_multiset_rows", refuse)
        monkeypatch.setattr(games, "_product_rows", refuse)
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 4 * math.comb(6, 3)
                            - 1)
        recv = SynchronizedDiscriminationReceiver(split, 4)
        with pytest.raises(BudgetExceededError) as exc:
            eval_discrimination(split, recv, space_b, 4)
        assert exc.value.required == 4 * math.comb(6, 3)
        # the ordered path counts positions and distractor tuples
        with pytest.raises(BudgetExceededError) as exc:
            eval_discrimination(split, _Ordered(recv), space_b, 4)
        assert exc.value.required == 4 * 4 * 4 ** 3


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


    @staticmethod
    def random_table(rng, d, k, n, rows):
        """A table over ``rows`` distinct random queries."""
        queries = {(int(rng.integers(k)),
                    tuple(rng.integers(n, size=d).tolist()))
                   for _ in range(rows)}
        return TabularDiscriminationReceiver(d, k, {
            q: (w := rng.random(d) + 0.1) / w.sum() for q in sorted(queries)})

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_batch_reads_the_table_row(self, d):
        rng = rng_for(f"tabular-index-{d}")
        recv = self.random_table(rng, d, 3, 6, 200)
        keys = list(recv.table)
        picks = rng.integers(len(keys), size=500)
        messages = np.array([keys[i][0] for i in picks])
        cands = np.array([keys[i][1] for i in picks])
        batch = recv.probabilities_batch(messages, cands)
        for row, i in zip(batch, picks.tolist()):
            assert row.tobytes() == recv.table[keys[i]].tobytes()

    @pytest.mark.parametrize("messages, cands, missing", [
        ([0, 1], [[0, 1, 2], [0, 0, 0]], r"\(1, \(0, 0, 0\)\)"),  # no row
        # out of range, coding onto or clipped to a row of the table
        ([0, 0], [[0, 1, 2], [0, 0, 5]], r"\(0, \(0, 0, 5\)\)"),
        ([0, 0], [[0, 1, 2], [0, 2, -1]], r"\(0, \(0, 2, -1\)\)"),
        ([0, 2], [[0, 1, 2], [0, 0, 0]], r"\(2, \(0, 0, 0\)\)"),
        ([-1], [[2, 2, 2]], r"\(-1, \(2, 2, 2\)\)"),
        ([0], [[0, 1]], r"\(0, \(0, 1\)\)"),  # wrong width
    ])
    def test_missing_queries_raise(self, messages, cands, missing):
        # R = 3, and messages stop at 2, below num_messages
        recv = TabularDiscriminationReceiver(3, 3, {
            (0, (0, 0, 0)): [0.1, 0.1, 0.8], (0, (0, 1, 2)): [0.2, 0.3, 0.5],
            (1, (2, 2, 2)): [0.4, 0.3, 0.3]})
        assert recv.probabilities_batch([1, 0], [[2, 2, 2], [0, 0, 0]]
                                        ).tolist() == [[0.4, 0.3, 0.3],
                                                       [0.1, 0.1, 0.8]]
        with pytest.raises(EmptyClassError, match=missing):
            recv.probabilities_batch(np.array(messages), np.array(cands))

    def test_empty_table_raises(self):
        recv = TabularDiscriminationReceiver(2, 2, {})
        with pytest.raises(EmptyClassError, match=r"\(0, \(0, 0\)\)$"):
            recv.probabilities(0, (0, 0))

    def test_index_past_the_budget(self, space_b, monkeypatch):
        # a sparse table whose index spans 2 x 4^3 = 128 codes: past the
        # budget it still builds, serializes and is checked for
        # simplicity, and only its lookup raises
        from signalgames import MessageSpace, io, receiver_simplicity
        table = {(0, (0, 1, 2)): [0.2, 0.3, 0.5],
                 (1, (3, 0, 0)): [0.4, 0.3, 0.3]}
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 127)
        recv = TabularDiscriminationReceiver(3, 2, table)
        assert io.receiver_from_json(io.receiver_to_json(recv)).table.keys() \
            == recv.table.keys()
        ms = MessageSpace.from_vectors(np.arange(2.0)[:, None])
        assert receiver_simplicity(recv, 1.0, space_b, ms).worst_ratio > 0.0
        with pytest.raises(BudgetExceededError,
                           match="tabular receiver index needs 128 query "
                                 r"codes \(budget 127\)") as exc:
            recv.probabilities(0, (0, 1, 2))
        assert exc.value.required == 128
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 128)
        assert recv.probabilities(1, (3, 0, 0)).tolist() == [0.4, 0.3, 0.3]


class TestMaskFreeKernels:
    @staticmethod
    def splice_reference(distractors, targets, positions):
        # the boolean-mask scatter the column-wise splice replaced
        b, d = distractors.shape[0], distractors.shape[1] + 1
        at = np.arange(d) == np.broadcast_to(positions, (b,))[:, None]
        cands = np.empty((b, d), dtype=np.int64)
        cands[at] = np.broadcast_to(targets, (b,))
        cands[~at] = distractors.ravel()
        return cands

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_splice_matches_mask_scatter(self, d):
        rng = rng_for(f"splice-{d}")
        distr = rng.integers(0, 50, size=(300, d - 1))
        targets, positions = rng.integers(0, 50, 300), rng.integers(0, d, 300)
        for t in (targets, 7):
            for p in (positions, 0, d - 1, d // 2):
                got = games._splice(distr, t, p)
                assert got.dtype == np.int64
                assert np.array_equal(got,
                                      self.splice_reference(distr, t, p))

    @pytest.mark.parametrize("share", [0.0, 0.3, 1.0])
    def test_uniform_where_bits(self, share):
        # the former double np.where, bit for bit, on float and 0/1 rows
        rng = rng_for(f"uniform-where-{share}")
        scores = rng.random((400, 3)) * 7.0
        scores[rng.random(400) < share] = 0.0
        match = rng.random((400, 5)) < 0.4
        match[rng.random(400) < share] = False
        for rows in (scores, match):
            totals = rows.sum(axis=1, keepdims=True)
            empty = totals <= 0
            safe = np.where(empty, 1.0, totals)
            want = np.where(empty, 1.0 / rows.shape[1], rows / safe)
            assert games._uniform_where(empty, rows, totals).tobytes() == \
                want.tobytes()


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

    @pytest.mark.parametrize("samples, seed, expected, std_error, "
                             "per_input", [
        (300, 5, 0.473330975140028, 0.023005887394214407, [
            1.0986122886681098, 0.40546510810816405, 0.40546510810816455,
            1.0986122886681087, 0.0]),
        (100_003, 11, 0.4766736967662405, 0.0012492293630117412, [
            1.098612288667977, 0.40546510810803466, 0.4054651081079628,
            1.0986122886679635, 0.0]),
    ])
    def test_classification_table(self, score_instance, samples, seed,
                                  expected, std_error, per_input):
        # the built-in receiver's loss is read off its table: the targets
        # are drawn as before and the candidates no longer are
        space, protocol, _ = score_instance
        labels = LabelMap(["a", "b", "a", "c", "b"])
        recv = synchronized_receiver(
            protocol, space, GameSpec("classification", labels=labels))
        rep = eval_classification(protocol, recv, space, labels, mode="mc",
                                  samples=samples, seed=seed)
        self.assert_report(rep, expected, std_error, per_input)
        recv = ClassificationReceiver(np.array(
            [[0.6, 0.3, 0.1], [0.2, 0.3, 0.5], [0.1, 0.8, 0.1]]))
        rep = eval_classification(protocol, recv, space, labels, mode="mc",
                                  samples=300, seed=5)
        self.assert_report(rep, 0.940060333788365, 0.03227660114716842, [
            0.5108256237659906, 1.2039728043259361, 1.6094379124340998,
            0.693147180559945, 0.22314355131420924])

    def test_classification_table_undefined_message(self, score_instance):
        space, protocol, _ = score_instance
        labels = LabelMap(["a", "b", "a", "c", "b"])
        recv = ClassificationReceiver(np.full((3, 3), 1.0 / 3.0),
                                      defined=[True, False, True])
        with pytest.raises(EmptyClassError, match="^receiver undefined for "
                                                  "message 1 "):
            eval_classification(protocol, recv, space, labels, mode="mc",
                                samples=300, seed=5)

    def test_classification_table_memory_per_sample(self, score_instance):
        # targets and losses only: no (samples, labels) candidate array
        space, protocol, _ = score_instance
        labels = LabelMap(["a", "b", "a", "c", "b"])
        recv = synchronized_receiver(
            protocol, space, GameSpec("classification", labels=labels))
        samples = 10 ** 6
        tracemalloc.start()
        try:
            eval_classification(protocol, recv, space, labels, mode="mc",
                                samples=samples, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * samples

    @pytest.mark.parametrize("d, shards, expected, std_error, per_input", [
        (2, 1, 0.245439735040251, 0.0007412290400507853, [
            0.2073573924712682, 0.20895621258738023, 0.3111430439013522,
            0.3103423653007002, 0.17183705835979854]),
        (2, 4, 0.2452213969534459, 0.0007410799146805046, [
            0.20701294210402404, 0.2063373437041939, 0.31085708408729756,
            0.311701082490679, 0.1732141382028512]),
        (3, 1, 0.45391083564083734, 0.0009161658552250066, [
            0.3898468511460093, 0.39102380390229824, 0.567459590818776,
            0.5620516522005302, 0.3282995590674397]),
        (3, 4, 0.45524261726378645, 0.0009167238224614813, [
            0.3875559584815223, 0.39212139652316563, 0.5677881166259096,
            0.5657049744838524, 0.3319258415837915]),
    ])
    def test_synchronized(self, score_instance, d, shards, expected,
                          std_error, per_input):
        # enough samples that each shard draws and scores several blocks
        space, protocol, _ = score_instance
        recv = synchronized_receiver(protocol, space,
                                     GameSpec("discrimination", d=d))
        rep = eval_discrimination(protocol, recv, space, d, mode="mc",
                                  samples=200_003, seed=11, shards=shards)
        self.assert_report(rep, expected, std_error, per_input)


class Leaning(ScoreDiscriminationReceiver):
    """A user subclass that overrides the batch: its parent's answer
    weighted by position, so every target position matters. It records
    the thread of every call."""

    def __init__(self, scores, d):
        super().__init__(scores, d)
        self.threads = set()

    def probabilities_batch(self, messages, candidates):
        self.threads.add(threading.get_ident())
        p = super().probabilities_batch(messages, candidates) \
            * np.arange(1.0, self.num_candidates + 1.0)
        return p / p.sum(axis=1, keepdims=True)


_TABLES = {}


def discrimination_receiver(kind, space, protocol, scores, d):
    if kind == "synchronized":
        return SynchronizedDiscriminationReceiver(protocol, d)
    if kind == "subclass":
        return Leaning(scores, d)
    if kind == "score":
        return ScoreDiscriminationReceiver(scores, d)
    # the leaning receiver's answers, in a built-in table
    if d not in _TABLES:
        _TABLES[d] = materialize_discrimination_table(Leaning(scores, d),
                                                      space)
    return _TABLES[d]


class TestMonteCarloBlocks:
    """Monte-Carlo rows are drawn and scored in fixed blocks at exact
    stream offsets, on a thread pool for the built-in receivers: every
    report equals the one of single-call draws, for every worker count."""

    @pytest.fixture(params=[1, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(games, "_WORKERS", request.param)
        return request.param

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # blocks of 700 rows scored in chunks of 256 uniforms, so a few
        # thousand samples split unevenly over shards, blocks and chunks
        monkeypatch.setattr(games, "_MC_BLOCK", 700)
        monkeypatch.setattr(games, "_DRAW_BLOCK", 256)

    @staticmethod
    def assert_same(rep, want):
        assert rep.expected == want.expected
        assert rep.std_error == want.std_error
        assert rep.samples == want.samples and rep.infinite == want.infinite
        assert np.array_equal(rep.per_input, want.per_input, equal_nan=True)

    @pytest.mark.parametrize("kind", ["synchronized", "score", "tabular",
                                      "subclass"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_blocks_draw_what_single_calls_draw(self, score_instance, kind,
                                                d, shards, workers,
                                                small_blocks):
        space, protocol, score = score_instance
        recv = discrimination_receiver(kind, space, protocol, score.scores,
                                       d)
        samples = 5003
        rep = eval_discrimination(protocol, recv, space, d, mode="mc",
                                  samples=samples, seed=17, shards=shards)
        targets, losses = discrimination_mc_flat(
            protocol.assignment, recv, space.weights, d, samples, 17,
            shards, synchronized=kind == "synchronized")
        self.assert_same(rep, games._mc_report(losses, targets, space.size,
                                               17))

    @pytest.mark.parametrize("kind", ["score", "tabular", "subclass"])
    def test_classification_blocks_draw_what_single_calls_draw(
            self, score_instance, kind, workers, small_blocks):
        space, protocol, score = score_instance
        labels = LabelMap(["a", "b", "a", "c", "b"])
        recv = discrimination_receiver(kind, space, protocol, score.scores,
                                       3)
        rep = eval_classification(protocol, recv, space, labels, mode="mc",
                                  samples=4001, seed=5)
        targets, losses = classification_mc_flat(
            protocol.assignment, recv, space.weights, labels.codes(), 4001,
            5)
        self.assert_same(rep, games._mc_report(losses, targets, space.size,
                                               5))

    def test_more_workers_than_cores_with_fast_switching(
            self, score_instance, small_blocks, monkeypatch):
        # blocks write disjoint slices of shared arrays: a lost or crossed
        # write would move the report off the single-call draws
        monkeypatch.setattr(games, "_WORKERS",
                            len(os.sched_getaffinity(0)) + 1
                            if hasattr(os, "sched_getaffinity") else 3)
        space, protocol, score = score_instance
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for kind in ("synchronized", "score", "tabular"):
                recv = discrimination_receiver(kind, space, protocol,
                                               score.scores, 3)
                rep = eval_discrimination(protocol, recv, space, 3,
                                          mode="mc", samples=20_011,
                                          seed=23, shards=3)
                targets, losses = discrimination_mc_flat(
                    protocol.assignment, recv, space.weights, 3, 20_011, 23,
                    3, synchronized=kind == "synchronized")
                self.assert_same(rep, games._mc_report(
                    losses, targets, space.size, 23))
        finally:
            sys.setswitchinterval(interval)

    def test_golden_pins_hold_for_every_worker_count(self, score_instance,
                                                     workers):
        # the 200,003-sample pins span several full-size blocks
        golden = TestMonteCarloGolden()
        for tabular in (False, True):
            golden.test_discrimination_one_shard(score_instance, tabular)
        golden.test_discrimination_three_shards(score_instance)
        golden.test_classification(score_instance)
        pins, = [mark.args[1] for mark
                 in TestMonteCarloGolden.test_synchronized.pytestmark
                 if mark.name == "parametrize"]
        for pin in pins:
            golden.test_synchronized(score_instance, *pin)

    def test_user_batch_runs_on_the_calling_thread(self, score_instance,
                                                   small_blocks,
                                                   monkeypatch):
        monkeypatch.setattr(games, "_WORKERS", 3)
        space, protocol, score = score_instance
        recv = Leaning(score.scores, 3)
        eval_discrimination(protocol, recv, space, 3, mode="mc",
                            samples=5003, seed=1, shards=2)
        eval_classification(protocol, recv, space,
                            LabelMap(["a", "b", "a", "c", "b"]), mode="mc",
                            samples=5003, seed=1)
        assert recv.threads == {threading.get_ident()}

    def test_first_failing_block_raises(self, score_instance, workers,
                                        small_blocks, monkeypatch):
        # a table without the queries of message 2: every worker count
        # names the same first undefined row
        space, protocol, score = score_instance
        full = discrimination_receiver("tabular", space, protocol,
                                       score.scores, 2)
        sparse = TabularDiscriminationReceiver(2, 3, {
            key: row for key, row in full.table.items() if key[0] != 2})
        with pytest.raises(EmptyClassError) as caught:
            eval_discrimination(protocol, sparse, space, 2, mode="mc",
                                samples=5003, seed=3, shards=2)
        monkeypatch.setattr(games, "_WORKERS", 1)
        with pytest.raises(EmptyClassError) as serial:
            eval_discrimination(protocol, sparse, space, 2, mode="mc",
                                samples=5003, seed=3, shards=2)
        assert str(caught.value) == str(serial.value)

    def test_single_block_stays_on_the_calling_thread(self, score_instance,
                                                      monkeypatch):
        monkeypatch.setattr(games, "_WORKERS", 3)
        monkeypatch.setattr(games, "_pool", None)  # calling it fails
        space, protocol, score = score_instance
        for recv in (score, SynchronizedDiscriminationReceiver(protocol, 3)):
            eval_discrimination(protocol, recv, space, 3, mode="mc",
                                samples=games._MC_BLOCK, seed=1)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_builds_its_own_pool(self, score_instance,
                                              monkeypatch):
        # the parent's pool threads do not exist in a forked child
        monkeypatch.setattr(games, "_WORKERS", 2)
        space, protocol, score = score_instance
        run = lambda: eval_discrimination(  # noqa: E731
            protocol, score, space, 3, mode="mc", samples=3 * games._MC_BLOCK,
            seed=4).expected
        want = run()
        assert games._POOLS
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if run() == want else 1
            finally:
                os._exit(code)
        for _ in range(600):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.1)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish in 60 s")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_import_starts_no_thread(self):
        script = ("import sys, threading, signalgames; "
                  "print(threading.active_count(), "
                  "'concurrent.futures' in sys.modules)")
        src = str(Path(games.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "False"]

    @pytest.mark.parametrize("kind", ["score", "tabular"])
    @pytest.mark.parametrize("d", [3, 5])
    def test_memory_per_sample(self, score_instance, kind, d):
        # targets, losses and positions, the standard error's deviations,
        # and one chunk per worker: no (samples, d) array
        space, protocol, score = score_instance
        recv = discrimination_receiver(kind, space, protocol, score.scores,
                                       d)
        eval_discrimination(protocol, recv, space, d, mode="mc", samples=10)
        samples = 10 ** 6
        tracemalloc.start()
        try:
            eval_discrimination(protocol, recv, space, d, mode="mc",
                                samples=samples, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * samples

    def test_classification_memory_per_sample(self, score_instance):
        space, protocol, score = score_instance
        labels = LabelMap(["a", "b", "a", "c", "b"])
        samples = 10 ** 6
        tracemalloc.start()
        try:
            eval_classification(protocol, score, space, labels, mode="mc",
                                samples=samples, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * samples

    def test_samples_past_the_budget_exit_before_drawing(self, score_instance,
                                                         monkeypatch):
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 1000)
        monkeypatch.setattr(games, "_Sampler", None)  # drawing fails
        space, protocol, score = score_instance
        labels = LabelMap(["a", "b", "a", "c", "b"])
        table = synchronized_receiver(
            protocol, space, GameSpec("classification", labels=labels))
        calls = [
            lambda: eval_discrimination(protocol, score, space, 3,
                                        mode="mc", samples=1001),
            lambda: eval_discrimination(
                protocol, SynchronizedDiscriminationReceiver(protocol, 3),
                space, 3, mode="mc", samples=1001, shards=4),
            lambda: eval_classification(protocol, score, space, labels,
                                        mode="mc", samples=1001),
            lambda: eval_classification(protocol, table, space, labels,
                                        mode="mc", samples=1001),
        ]
        for call in calls:
            with pytest.raises(BudgetExceededError,
                               match="Monte-Carlo needs 1001 samples") as e:
                call()
            assert e.value.required == 1001


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

    def test_empty_class_query_errors(self, space_b, split, labels_ab):
        # a constant protocol leaves message 1 undefined: an evaluator
        # asked for it names it, and the sender's table scores it inf
        const = Protocol.constant(4, 2)
        for kind, evaluate in (
                ("reconstruction", eval_reconstruction),
                ("global", eval_global),
                ("classification", lambda p, r, s: eval_classification(
                    p, r, s, labels_ab))):
            spec = GameSpec(kind, labels=labels_ab)
            recv = synchronized_receiver(const, space_b, spec)
            with pytest.raises(EmptyClassError,
                               match=r"missing used messages \[1\]$"):
                evaluate(split, recv, space_b)
            losses = per_input_message_losses(recv, space_b, spec)
            assert np.isfinite(losses[:, 0]).all()
            assert np.isposinf(losses[:, 1]).all()


class TestSynchronizedSender:
    def test_classification_table_is_read_not_enumerated(self):
        # 100^3 candidate tuples per input would pass the term budget; a
        # ClassificationReceiver ignores them, so its table is read
        n, k = 300, 4
        rng = rng_for("classification-lookup")
        space = InputSpace.uniform(rng.normal(size=(n, 1)))
        labels = LabelMap((np.arange(n) % 3).tolist())
        cond = rng.dirichlet(np.ones(3), size=k)
        recv = ClassificationReceiver(cond)
        spec = GameSpec("classification", labels=labels)
        losses = per_input_message_losses(recv, space, spec)
        assert (losses == [[-math.log(cond[m, y]) for m in range(k)]
                           for y in labels.codes()]).all()
        sender = synchronized_sender(recv, space, spec)
        assert (eval_classification(sender, recv, space, labels).per_input
                == losses.min(axis=1)).all()

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

    def test_exact_within_budget_raises_past_it(self, space_b, split,
                                                monkeypatch):
        # 2 message choices x 16 multiset terms each; past the budget the
        # sender raises instead of estimating
        recv = SynchronizedDiscriminationReceiver(split, 2)
        spec = GameSpec("discrimination", d=2)
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 32)
        sender = synchronized_sender(recv, space_b, spec)
        assert sender.assignment.tolist() == [0, 0, 1, 1]
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 31)
        with pytest.raises(BudgetExceededError) as exc:
            synchronized_sender(recv, space_b, spec)
        assert exc.value.required == 32

    def test_classification_with_a_candidate_aware_receiver(
            self, score_instance):
        space, protocol, recv = score_instance
        labels = LabelMap(["a", "b", "a", "c", "b"])
        spec = GameSpec("classification", labels=labels)
        sender = synchronized_sender(recv, space, spec)
        losses = per_input_message_losses(recv, space, spec)
        assert sender.assignment.tolist() \
            == np.argmin(losses, axis=1).tolist()
        best = eval_classification(sender, recv, space, labels).expected
        assert best <= eval_classification(protocol, recv, space,
                                           labels).expected

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


class TestMessageLossTable:
    """The sender's loss table read at a protocol's own messages equals
    that protocol's exact per-input losses with ``==``, infinities
    included: both read one loss table per game. Some instances span
    several 4096-row enumeration blocks."""

    @staticmethod
    def assert_agree(protocol, receiver, space, spec, evaluate):
        table = per_input_message_losses(receiver, space, spec)
        got = table[np.arange(space.size), protocol.assignment]
        want = evaluate(protocol, receiver, space).per_input
        assert (got == want).all(), (got - want)

    @staticmethod
    def weighted_space(rng, n, dim=1):
        w = rng.random(n) + 0.1
        return InputSpace(rng.normal(size=(n, dim)), w / w.sum())

    @staticmethod
    def scores(rng, k, n):
        """Scores with some zeros, so that some losses are infinite."""
        return rng.random((k, n)) * (rng.random((k, n)) > 0.2)

    def test_reconstruction_in_three_dimensions(self):
        rng = rng_for("loss-table-reconstruction")
        spec = GameSpec("reconstruction")
        for _ in range(50):
            n, k = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            space = self.weighted_space(rng, n, dim=3)
            protocol = Protocol(rng.integers(0, k, size=n), k)
            for recv in (ReconstructionReceiver(rng.normal(size=(k, 3))),
                         synchronized_receiver(protocol, space, spec)):
                self.assert_agree(protocol, recv, space, spec,
                                  eval_reconstruction)

    def test_global_with_random_tables(self):
        rng = rng_for("loss-table-global")
        spec = GameSpec("global")
        for n in (3, 8, 1000, 5000):
            k = int(rng.integers(1, 5))
            space = self.weighted_space(rng, n)
            table = rng.dirichlet(np.ones(n), size=k)
            table[:, rng.random(n) < 0.1] = 0.0
            table /= table.sum(axis=1, keepdims=True)
            protocol = Protocol(rng.integers(0, k, size=n), k)
            self.assert_agree(protocol, GlobalReceiver(table), space, spec,
                              eval_global)

    @pytest.mark.parametrize("kind", ["discrimination", "supervised"])
    def test_discrimination_games(self, kind):
        rng = rng_for(f"loss-table-{kind}")
        for n, k, d in ((6, 2, 2), (6, 3, 3), (60, 4, 2)):
            space = self.weighted_space(rng, n)
            labels = None
            if kind == "supervised":
                space = InputSpace.uniform(space.points)
                labels = LabelMap((np.arange(n) % 3).tolist())
            spec = GameSpec(kind, d=d, labels=labels)
            protocol = Protocol(rng.integers(0, k, size=n), k)
            score = ScoreDiscriminationReceiver(self.scores(rng, k, n), d)
            if kind == "supervised":
                def evaluate(p, r, s):
                    return eval_supervised(p, r, s, labels, d=d)
            else:
                def evaluate(p, r, s):
                    return eval_discrimination(p, r, s, d)
            for recv in (score, materialize_discrimination_table(score,
                                                                 space)):
                self.assert_agree(protocol, recv, space, spec, evaluate)

    def test_classification(self):
        rng = rng_for("loss-table-classification")
        for n, k in ((5, 2), (8, 3), (30, 4), (51, 2)):
            space = self.weighted_space(rng, n)
            labels = LabelMap((np.arange(n) % 3).tolist())
            spec = GameSpec("classification", labels=labels)
            protocol = Protocol(rng.integers(0, k, size=n), k)
            conditional = rng.dirichlet(np.ones(3), size=k)
            conditional[rng.random((k, 3)) < 0.2] = 0.0
            conditional[:, 0] += conditional.sum(axis=1) == 0.0
            conditional /= conditional.sum(axis=1, keepdims=True)
            for recv in (ClassificationReceiver(conditional),
                         ScoreDiscriminationReceiver(self.scores(rng, k, n),
                                                     3)):
                self.assert_agree(
                    protocol, recv, space, spec,
                    lambda p, r, s: eval_classification(p, r, s, labels))


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


def test_term_budget_is_the_only_limit():
    # every limit goes through games._check_terms against the one constant
    def raises_budget(node):
        return isinstance(node, ast.Call) and "BudgetExceededError" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    constants, calls, raised = [], 0, []
    for path in sorted(Path(games.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            constants += [(path.stem, t.id) for t in targets
                          if isinstance(t, ast.Name)
                          and (t.id.endswith("_BUDGET")
                               or t.id.startswith("MAX_"))]
        calls += sum(map(raises_budget, ast.walk(tree)))
        raised += [(path.stem, func.name) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef)
                   for node in ast.walk(func) if raises_budget(node)]
    assert constants == [("games", "EXACT_TERM_BUDGET")]
    assert calls == 1 and raised == [("games", "_check_terms")]
