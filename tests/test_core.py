import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalgames import (
    EmptyClassError,
    InputSpace,
    MessageSpace,
    MetricUndefinedError,
    Protocol,
    conditional_stats,
    message_probabilities,
    reco_objective,
)
from signalgames import core, io
from signalgames.core import _class_sums, _multiset_rows, _product_rows

from conftest import random_protocol, random_space, rng_for
from oracles import pairwise_sqdist_bruteforce, variance_bruteforce


class TestInputSpace:
    def test_uniform_default(self):
        s = InputSpace.uniform([[0.0], [1.0]])
        assert np.allclose(s.weights, 0.5)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            InputSpace([[0.0], [1.0]], [0.5, 0.6])
        with pytest.raises(ValueError):
            InputSpace([[0.0], [1.0]], [1.0, 0.0])
        with pytest.raises(ValueError):
            InputSpace([[0.0], [np.inf]])
        with pytest.raises(ValueError):
            InputSpace(np.empty((0, 1)))

    def test_1d_points_promoted(self):
        s = InputSpace.uniform([0.0, 1.0, 2.0])
        assert s.dim == 1 and s.size == 3


class TestClassSums:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_class_loop(self, data):
        rows = data.draw(st.integers(1, 4), label="rows")
        n = data.draw(st.integers(1, 7), label="n")
        size = data.draw(st.integers(1, 9), label="size")  # may exceed n
        codes = np.array(data.draw(st.lists(
            st.lists(st.integers(0, size - 1), min_size=n, max_size=n),
            min_size=rows, max_size=rows), label="codes"), dtype=int)
        codes[-1, -1] = size - 1  # some code reaches the top class
        floats = st.floats(-10.0, 10.0, allow_nan=False)
        weights = [np.array(data.draw(st.lists(floats, min_size=n,
                                               max_size=n)))
                   for _ in range(data.draw(st.integers(1, 3)))]
        sums = _class_sums(codes, size, *weights)
        assert len(sums) == len(weights)
        for w, out in zip(weights, sums):
            assert out.shape == (rows, size)
            for b in range(rows):
                for c in range(size):
                    members = [i for i in range(n) if codes[b, i] == c]
                    expected = sum(w[i] for i in members) if members else 0.0
                    assert abs(out[b, c] - expected) <= 1e-9


class TestMessageProbabilities:
    def test_sums_to_one_random(self):
        rng = rng_for("partition")
        for _ in range(25):
            space = random_space(rng)
            protocol = random_protocol(rng, space.size)
            p = message_probabilities(protocol, space)
            assert p.shape == (protocol.num_messages,)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_constant(self, space_b):
        p = message_probabilities(Protocol.constant(4, 2), space_b)
        assert p.tolist() == [1.0, 0.0]

    def test_uniform_split(self, space_b, split):
        assert np.allclose(message_probabilities(split, space_b), [0.5, 0.5])

    def test_weighted_split(self):
        s = InputSpace(np.arange(4.0)[:, None], [0.1, 0.2, 0.3, 0.4])
        p = message_probabilities(Protocol([0, 0, 1, 1], 2), s)
        assert np.allclose(p, [0.3, 0.7], atol=1e-12)


class TestVariance:
    def test_two_point(self):
        assert InputSpace.uniform([[0.0], [1.0]]).variance() == 0.25

    def test_four_point(self, space_b):
        assert space_b.variance() == 1.25

    def test_mirror_pairs_space(self):
        vals = [float(v) for k in range(1, 7) for v in (k, -k)]
        s = InputSpace.uniform(np.asarray(vals)[:, None])
        assert abs(s.variance() - 91.0 / 6.0) < 1e-12

    def test_matches_bruteforce(self):
        rng = rng_for("variance")
        for _ in range(20):
            s = random_space(rng)
            assert abs(s.variance()
                       - variance_bruteforce(s.points, s.weights)) < 1e-10


class TestMoments:
    """The mean and total variance are computed once per space; the cached
    values keep the bits of the direct formulas and cannot be corrupted
    through what :meth:`InputSpace.mean` hands out."""

    def test_match_direct_formulas_bit_for_bit(self):
        rng = rng_for("cached-moments")
        for _ in range(50):
            s = random_space(rng, n_max=40, dim_max=4)
            x, w = s.points, s.weights
            mean = w @ x
            centered = x - mean
            assert np.array_equal(s.mean(), mean)
            assert s.variance() == float(
                w @ np.einsum("ij,ij->i", centered, centered))

    def test_writing_into_the_mean_changes_nothing(self):
        rng = rng_for("cached-moments-write")
        s = random_space(rng, n_max=12)
        protocol = random_protocol(rng, s.size)
        mean, var = s.mean(), s.variance()
        reco = reco_objective(protocol, s)
        handed_out = s.mean()
        handed_out += 1e3
        assert np.array_equal(s.mean(), mean)
        assert s.variance() == var
        assert reco_objective(protocol, s) == reco

    def test_reconstruction_objective_reads_the_cache(self, monkeypatch):
        rng = rng_for("cached-moments-calls")
        s = random_space(rng, n_max=12)
        protocols = [random_protocol(rng, s.size) for _ in range(100)]

        def refuse(self):
            raise AssertionError("moment recomputed per protocol")

        monkeypatch.setattr(InputSpace, "mean", refuse)
        monkeypatch.setattr(InputSpace, "variance", refuse)
        for protocol in protocols:
            reco_objective(protocol, s)


class TestConditionalStats:
    def test_adjacent_class(self, space_b, split):
        mean, var = conditional_stats(split, space_b, 0)
        assert np.allclose(mean, [0.5]) and var == 0.25

    def test_spread_class(self, space_b, anti):
        mean, var = conditional_stats(anti, space_b, 0)
        assert np.allclose(mean, [1.5]) and var == 2.25

    def test_singleton_class(self, space_b):
        _, var = conditional_stats(Protocol.identity(4), space_b, 2)
        assert var == 0.0

    def test_empty_class_errors(self, space_b):
        with pytest.raises(EmptyClassError):
            conditional_stats(Protocol.constant(4, 2), space_b, 1)

    def test_law_of_total_variance(self):
        rng = rng_for("total-variance")
        for _ in range(30):
            space = random_space(rng)
            protocol = random_protocol(rng, space.size)
            p = message_probabilities(protocol, space)
            mu = space.mean()
            acc = 0.0
            for m in range(protocol.num_messages):
                if p[m] == 0:
                    continue
                mean, var = conditional_stats(protocol, space, m)
                acc += p[m] * (var + float((mean - mu) @ (mean - mu)))
            assert abs(acc - space.variance()) < 1e-10


class TestPairwiseSqdist:
    """``E ||x1 - x2||^2`` over an i.i.d. pair is ``2 Var[X]``."""

    def test_examples(self, space_b):
        assert 2.0 * InputSpace.uniform([[0.], [1.]]).variance() == 0.5
        assert 2.0 * space_b.variance() == 2.5
        assert 2.0 * InputSpace.uniform([[7.0]]).variance() == 0.0

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=7),
           st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_identity_against_double_sum(self, coords, wseed):
        rng = np.random.default_rng(wseed)
        w = rng.random(len(coords)) + 0.05
        space = InputSpace(np.asarray(coords)[:, None], w / w.sum())
        direct = pairwise_sqdist_bruteforce(space.points, space.weights)
        assert abs(2.0 * space.variance() - direct) < 1e-10


class TestMessageSpace:
    def test_hamming_epsilon(self):
        ms = MessageSpace.symbol_sequences(["0000", "0001", "0371"],
                                           vocab_size=8, length=4)
        assert ms.epsilon_min() == 1.0  # 0000 and 0001 differ in one symbol
        assert ms.distances([0], [2]).tolist() == [[3.0]]

    def test_scalar_messages(self):
        ms = MessageSpace.from_vectors(np.arange(1.0, 7.0)[:, None])
        assert ms.epsilon_min() == 1.0

    def test_vector_epsilon(self):
        ms = MessageSpace.from_vectors([[0, 0], [0, 3], [4, 0]])
        assert ms.epsilon_min() == 3.0

    def test_single_message_undefined(self):
        ms = MessageSpace.from_vectors([[0.0]])
        with pytest.raises(MetricUndefinedError):
            ms.epsilon_min()

    def test_duplicate_messages_rejected(self):
        with pytest.raises(ValueError):
            MessageSpace.symbol_sequences(["01", "01"], 2)

    def test_distance_table_validation(self):
        with pytest.raises(ValueError):
            MessageSpace.from_distance_table(["a", "b"],
                                             [[0, 1], [2, 0]])

    def test_full_code(self):
        ms = MessageSpace.full_code(2, 2)
        assert ms.size == 4 and ms.atoms[0] == (0, 0)

    @pytest.mark.parametrize("build", [
        lambda: MessageSpace.from_vectors([[0.0, 1.0], [2.0, 0.0],
                                           [0.0, 1.0]]),
        lambda: MessageSpace.from_vectors([[0.0], [-0.0]]),
        lambda: MessageSpace.from_distance_table(
            "abc", [[0, 1, 0], [1, 0, 2], [0, 2, 0]]),
    ], ids=["vectors", "signed_zero", "table"])
    def test_duplicate_vectors_and_table_entries_rejected(self, build):
        with pytest.raises(ValueError, match="pairwise distinct"):
            build()

    def test_empty_symbols_and_non_finite_vectors_rejected(self):
        with pytest.raises(ValueError, match="at least one symbol"):
            MessageSpace.symbol_sequences([()], 2)
        with pytest.raises(ValueError, match="finite"):
            MessageSpace.from_vectors([[0.0], [math.nan]])

    @pytest.mark.parametrize("kind", ["hamming", "euclidean", "table"])
    def test_distances_match_double_loop(self, kind):
        rng = rng_for(f"message-distances-{kind}")
        k = 12
        if kind == "hamming":
            codes = rng.choice(4 ** 3, size=k, replace=False)
            atoms = [(c // 16, c // 4 % 4, c % 4) for c in codes.tolist()]
            ms = MessageSpace.symbol_sequences(atoms, 4)

            def dist(i, j):
                return float(sum(a != b for a, b in zip(atoms[i], atoms[j])))
        elif kind == "euclidean":
            vecs = rng.normal(size=(k, 3)).tolist()
            ms = MessageSpace.from_vectors(vecs)

            def dist(i, j):
                return math.sqrt(sum((a - b) * (a - b)
                                     for a, b in zip(vecs[i], vecs[j])))
        else:
            x = rng.normal(size=k)
            table = (np.abs(x[:, None] - x[None, :]) + 1.0
                     - np.eye(k)).tolist()
            ms = MessageSpace.from_distance_table(range(k), table)

            def dist(i, j):
                return table[i][j]
        # unsorted and repeated rows; columns a strided, descending view
        rows = np.array([7, 2, 2, 11, 0, 7])
        cols = np.arange(k)[::-3]
        want = [[dist(i, j) for j in cols.tolist()] for i in rows.tolist()]
        assert ms.distances(rows, cols).tolist() == want
        assert ms.distances(cols, cols).diagonal().tolist() == \
            [dist(j, j) for j in cols.tolist()]

    def test_epsilon_min_in_the_last_row_block(self, monkeypatch):
        # 300 scalar messages one apart but the last, half a unit from its
        # neighbour: with the default block the pair sits in the last of
        # three row blocks
        vecs = np.arange(300.0)
        vecs[-1] = 298.5
        ms = MessageSpace.from_vectors(vecs)
        for block in (1, 7, core._PAIR_BLOCK):
            monkeypatch.setattr(core, "_PAIR_BLOCK", block)
            assert ms.epsilon_min() == 0.5

    def test_epsilon_min_memory_grows_with_messages(self):
        # a dense 4,000 x 4,000 table and its masks peaked at 260 MB
        tracemalloc.start()
        try:
            eps = io.default_message_space(4000).epsilon_min()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eps == 1.0 and peak < 16 * 2 ** 20


class TestProtocol:
    def test_validation(self):
        with pytest.raises(ValueError):
            Protocol([0, 2], 2)
        with pytest.raises(ValueError):
            Protocol([], 1)

    def test_equality_and_hash(self):
        assert Protocol([0, 1], 2) == Protocol([0, 1], 2)
        assert Protocol([0, 1], 2) != Protocol([0, 1], 3)
        assert len({Protocol([0, 1], 2), Protocol([0, 1], 2)}) == 1


class TestProductRows:
    @pytest.mark.parametrize("radices", [[3, 1, 4, 2], [5], [], [2, 0, 3]])
    def test_matches_itertools_product_across_chunks(self, radices):
        blocks = list(_product_rows(radices, chunk=5))
        assert all(0 < b.shape[0] <= 5 for b in blocks)
        rows = [tuple(r) for b in blocks for r in b.tolist()]
        assert rows == list(itertools.product(*map(range, radices)))


class TestMultisetRows:
    @pytest.mark.parametrize("n,r", [(4, 3), (1, 5), (6, 1), (3, 0), (0, 2),
                                     (5, 4)])
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_matches_combinations_with_replacement(self, n, r, chunk):
        blocks = list(_multiset_rows(n, r, chunk=chunk))
        assert all(0 < b.shape[0] <= chunk and b.shape[1] == r
                   for b in blocks)
        assert all(b.shape[0] == chunk for b in blocks[:-1])
        rows = [tuple(row) for b in blocks for row in b.tolist()]
        assert rows == list(itertools.combinations_with_replacement(
            range(n), r))

    def test_default_blocks_hold_4096_rows(self):
        # C(30, 5) = 142,506 rows, checked on the first and last blocks
        sizes, first, last = [], None, None
        for block in _multiset_rows(26, 5):
            sizes.append(len(block))
            first = block if first is None else first
            last = block
        assert sum(sizes) == math.comb(30, 5) and max(sizes) == 4096
        assert first[:2].tolist() == [[0] * 5, [0, 0, 0, 0, 1]]
        assert last[-1].tolist() == [25] * 5
        assert np.all(np.diff(last, axis=1) >= 0)
