import tracemalloc

import numpy as np
import pytest

from signalgames import (
    BudgetExceededError,
    InputSpace,
    LabelMap,
    MessageSpace,
    MetricUndefinedError,
    Protocol,
    cluster_variance,
    disentanglement,
    discrimination_accuracy,
    max_purity,
    message_variance,
    purity,
    random_baseline,
    reco_objective,
    topsim,
    unique_messages,
)

from signalgames import games, io
from signalgames.core import _sq_dists
from signalgames.metrics import _average_ranks

from conftest import random_protocol, random_space, rng_for
from oracles import accuracy_bruteforce, average_ranks_bruteforce, \
    message_variance_bruteforce, spearman_bruteforce


class TestMessageVariance:
    def test_split(self, space_b, split):
        assert abs(message_variance(split, space_b) - 0.25) < 1e-15

    def test_constant_equals_variance(self, space_b):
        assert abs(message_variance(Protocol.constant(4), space_b)
                   - 1.25) < 1e-15

    def test_lossless_zero(self, space_b):
        assert message_variance(Protocol.identity(4), space_b) == 0.0

    def test_equals_reco_objective_on_uniform(self):
        rng = rng_for("msgvar-identity")
        for _ in range(20):
            space = random_space(rng, uniform=True)
            protocol = random_protocol(rng, space.size)
            assert abs(message_variance(protocol, space)
                       - reco_objective(protocol, space)) < 1e-10

    def test_matches_literal_recipe(self):
        rng = rng_for("msgvar-oracle")
        for _ in range(15):
            space = random_space(rng, uniform=True)
            protocol = random_protocol(rng, space.size)
            want = message_variance_bruteforce(
                protocol.assignment.tolist(), space.points)
            assert abs(message_variance(protocol, space) - want) < 1e-10


class TestRandomBaseline:
    def test_single_class_is_degenerate(self, space_b):
        mean, std = random_baseline(Protocol.constant(4), space_b,
                                    message_variance, repeats=5, seed=0)
        assert abs(mean - 1.25) < 1e-15 and std == 0.0

    def test_lossless_baseline_zero(self, space_b):
        mean, std = random_baseline(Protocol.identity(4), space_b,
                                    message_variance, repeats=4, seed=1)
        assert mean == 0.0 and std == 0.0

    def test_baseline_never_beats_trained_optimum(self):
        from signalgames import GameSpec, exhaustive_search
        rng = rng_for("baseline-degrades")
        for _ in range(6):
            space = random_space(rng, n_max=6, uniform=True)
            k = 2
            best = exhaustive_search(space, k,
                                     GameSpec("reconstruction")).protocols[0]
            # every shuffle is a protocol the search scored, so the bound
            # holds for each sample and for any seeded mean of them
            mean, _ = random_baseline(best, space, message_variance,
                                      repeats=20, seed=5)
            assert mean >= message_variance(best, space) - 1e-12

    def test_nonuniform_warns(self, split):
        space = InputSpace(np.arange(4.0)[:, None], [0.4, 0.3, 0.2, 0.1])
        with pytest.warns(UserWarning, match="cardinalities"):
            random_baseline(split, space, message_variance, repeats=2,
                            seed=0)

    def test_seeded_reproducibility(self, space_b, split):
        a = random_baseline(split, space_b, message_variance, repeats=10,
                            seed=3)
        b = random_baseline(split, space_b, message_variance, repeats=10,
                            seed=3)
        assert a == b


class TestPurity:
    def test_label_pure(self, space_b, split, labels_ab):
        assert purity(split, space_b, labels_ab) == 1.0

    def test_anti_split_half(self, space_b, anti, labels_ab):
        assert abs(purity(anti, space_b, labels_ab) - 0.5) < 1e-15

    def test_three_one_classes(self, space_b, labels_ab):
        p = Protocol([0, 0, 0, 1], 2)
        assert abs(purity(p, space_b, labels_ab) - 0.75) < 1e-15

    def test_max_purity_over_attributes(self, space_b, split):
        attr1 = LabelMap(["A", "A", "B", "B"], "attr1")
        attr2 = LabelMap(["x", "y", "x", "y"], "attr2")
        assert max_purity(split, space_b, [attr1, attr2]) == 1.0
        assert abs(max_purity(split, space_b, [attr2]) - 0.5) < 1e-15


class TestAverageRanks:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 257, 2000])
    @pytest.mark.parametrize("kind", ["ties", "continuous"])
    def test_matches_definition(self, n, kind):
        rng = rng_for(f"average-ranks-{kind}-{n}")
        x = rng.integers(0, 5, size=n).astype(float) if kind == "ties" \
            else rng.normal(size=n)
        assert np.array_equal(_average_ranks(x), average_ranks_bruteforce(x))

    def test_infinities_tie_last(self):
        x = np.array([np.inf, 1.0, np.inf, 0.0])
        assert _average_ranks(x).tolist() == [3.5, 2.0, 3.5, 1.0]


class TestTopsim:
    def test_monotone_code_is_one(self):
        space = InputSpace.uniform(np.arange(3.0)[:, None])
        ms = MessageSpace.symbol_sequences(["00", "01", "11"], 2)
        assert topsim(Protocol.identity(3), space, ms) == 1.0

    def test_constant_protocol_undefined(self, space_b):
        ms = MessageSpace.symbol_sequences(["00", "01"], 2)
        with pytest.raises(MetricUndefinedError, match="zero variance"):
            topsim(Protocol.constant(4, 2), space_b, ms)

    def test_matches_bruteforce_spearman(self):
        rng = rng_for("topsim-oracle")
        for _ in range(10):
            space = random_space(rng, n_max=7, uniform=True)
            k = 3
            protocol = Protocol(rng.integers(0, k, size=space.size), k)
            ms = MessageSpace.from_vectors(rng.normal(size=(k, 2)))
            iu = np.triu_indices(space.size, k=1)
            din = np.linalg.norm(space.points[iu[0]] - space.points[iu[1]],
                                 axis=1)
            dmsg = ms.distances(np.arange(k), np.arange(k))[
                protocol.assignment[iu[0]], protocol.assignment[iu[1]]]
            if np.ptp(din) == 0 or np.ptp(dmsg) == 0:
                continue
            want = spearman_bruteforce(din.tolist(), dmsg.tolist())
            assert abs(topsim(protocol, space, ms) - want) < 1e-10

    def test_matches_scipy_spearman(self):
        stats = pytest.importorskip("scipy.stats")
        rng = rng_for("topsim-scipy")
        grid = np.indices((20, 20)).reshape(2, -1).T.astype(float)
        checked = 0
        for i in range(60):
            n = int(rng.integers(3, 301))
            # grid points tie in distance; normal points do not
            pts = grid[rng.choice(len(grid), n, replace=False)] if i % 2 \
                else rng.normal(size=(n, 2))
            kind = i % 3
            if kind == 0:  # Hamming: integer distances, heavy ties
                ms = MessageSpace.full_code(3, 2)
            elif kind == 1:
                ms = MessageSpace.from_vectors(rng.normal(size=(6, 2)))
            else:
                table = np.triu(rng.integers(1, 4, size=(6, 6)), 1)
                ms = MessageSpace.from_distance_table(
                    list("abcdef"), (table + table.T).astype(float))
            protocol = Protocol(rng.integers(0, ms.size, size=n), ms.size)
            iu = np.triu_indices(n, k=1)
            din = np.sqrt(_sq_dists(pts, pts)[iu])
            dmsg = ms.distances(protocol.assignment, protocol.assignment)[iu]
            if np.ptp(din) == 0 or np.ptp(dmsg) == 0:
                continue
            assert topsim(protocol, InputSpace.uniform(pts), ms) \
                == stats.spearmanr(din, dmsg).statistic
            checked += 1
        assert checked >= 50

    def test_pinned_value(self):
        # seeded N=1,000 inputs on the 18-message length-2 code of two
        # symbol groups, messages following position with a tenth
        # reassigned; the value is pinned to the bit
        rng = rng_for("topsim-pin")
        pts = rng.normal(size=(1000, 2))
        groups = ((0, 1, 2), (3, 4, 5))
        ms = MessageSpace.symbol_sequences(
            [(a, b) for g in groups for a in g for b in g], vocab_size=6,
            length=2)
        tertile = lambda v: np.searchsorted(  # noqa: E731
            np.quantile(v, [1 / 3, 2 / 3]), v)
        msgs = 9 * (pts[:, 0] > 0) + 3 * tertile(pts[:, 1]) \
            + tertile(pts[:, 0])
        noise = rng.random(1000) < 0.1
        msgs[noise] = rng.integers(0, 18, size=noise.sum())
        value = topsim(Protocol(msgs, 18), InputSpace.uniform(pts), ms)
        assert value.hex() == "0x1.5fce2cb5b8c13p-2"

    def test_equidistant_messages_undefined(self):
        # distinct messages, but every input pair in one distance class
        space = InputSpace.uniform(np.arange(3.0)[:, None])
        ms = MessageSpace.symbol_sequences(["0", "1", "2"], 3)
        with pytest.raises(MetricUndefinedError, match="zero variance"):
            topsim(Protocol.identity(3), space, ms)

    def test_pair_budget(self, space_b, monkeypatch):
        ms = MessageSpace.symbol_sequences(["00", "01", "11", "10"], 2)
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 6)
        assert topsim(Protocol.identity(4), space_b, ms) > 0.0
        monkeypatch.setattr(games, "EXACT_TERM_BUDGET", 5)
        with pytest.raises(BudgetExceededError, match="6 input pairs") as exc:
            topsim(Protocol.identity(4), space_b, ms)
        assert exc.value.required == 6

    def test_memory_per_input_pair(self):
        # the full N x N distance matrix, triu indices and a (P, 2) rank
        # table took 96 bytes per input pair
        n = 2000
        rng = rng_for("topsim-memory")
        space = InputSpace.uniform(rng.normal(size=(n, 2)))
        protocol = Protocol(rng.integers(0, 18, size=n), 18)
        ms = io.default_message_space(18)
        tracemalloc.start()
        try:
            topsim(protocol, space, ms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * n * (n - 1) // 2

    def test_equal_infinite_distances_undefined(self):
        # every input pair is farther apart than float64 reaches
        space = InputSpace.uniform(np.asarray([[0.0], [1e200], [-1e200]]))
        ms = MessageSpace.symbol_sequences(["00", "01", "11"], 2)
        with pytest.raises(MetricUndefinedError, match="zero variance"):
            topsim(Protocol.identity(3), space, ms)

    def test_invariant_under_distance_preserving_relabeling(self):
        # permuting the symbol alphabet preserves Hamming distances
        space = InputSpace.uniform(np.asarray([[0.0], [1.0], [2.5], [4.0]]))
        msgs = ["00", "01", "10", "11"]
        ms = MessageSpace.symbol_sequences(msgs, 2)
        protocol = Protocol([0, 1, 2, 3], 4)
        swapped = ["".join("1" if c == "0" else "0" for c in m)
                   for m in msgs]
        ms2 = MessageSpace.symbol_sequences(swapped, 2)
        assert abs(topsim(protocol, space, ms)
                   - topsim(protocol, space, ms2)) < 1e-12


class TestDisentanglement:
    @pytest.fixture
    def two_attribute_grid(self):
        pts = np.asarray([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        space = InputSpace.uniform(pts)
        a1 = LabelMap([0, 0, 1, 1], "first")
        a2 = LabelMap([0, 1, 0, 1], "second")
        return space, a1, a2

    def test_perfectly_positional(self, two_attribute_grid):
        space, a1, a2 = two_attribute_grid
        ms = MessageSpace.symbol_sequences(["00", "01", "10", "11"], 2)
        protocol = Protocol([0, 1, 2, 3], 4)
        assert disentanglement(protocol, space, ms, [a1, a2],
                               "posdis") == 1.0

    def test_xor_code_entangled(self, two_attribute_grid):
        space, a1, a2 = two_attribute_grid
        ms = MessageSpace.symbol_sequences(["00", "11"], 2)
        protocol = Protocol([0, 1, 1, 0], 2)
        assert disentanglement(protocol, space, ms, [a1, a2],
                               "posdis") == 0.0

    def test_constant_protocol_scores_zero(self, two_attribute_grid):
        space, a1, a2 = two_attribute_grid
        ms = MessageSpace.symbol_sequences(["00"], 2)
        protocol = Protocol.constant(4, 1)
        for kind in ("posdis", "bosdis", "sposdis"):
            assert disentanglement(protocol, space, ms, [a1, a2],
                                   kind) == 0.0

    def test_single_attribute_rejected_for_gap_kinds(self,
                                                     two_attribute_grid):
        space, a1, _ = two_attribute_grid
        ms = MessageSpace.symbol_sequences(["00", "01"], 2)
        protocol = Protocol([0, 0, 1, 1], 2)
        for kind in ("posdis", "bosdis"):
            with pytest.raises(ValueError, match="two attributes"):
                disentanglement(protocol, space, ms, [a1], kind)

    def test_sposdis_needs_an_attribute(self, two_attribute_grid):
        space, _, _ = two_attribute_grid
        ms = MessageSpace.symbol_sequences(["00", "01"], 2)
        protocol = Protocol([0, 0, 1, 1], 2)
        with pytest.raises(ValueError, match="one attribute"):
            disentanglement(protocol, space, ms, [], "sposdis")

    def test_scores_in_unit_interval(self, two_attribute_grid):
        space, a1, a2 = two_attribute_grid
        rng = rng_for("disent-range")
        ms = MessageSpace.full_code(2, 2)
        for _ in range(20):
            protocol = Protocol(rng.integers(0, 4, size=4), 4)
            for kind in ("posdis", "bosdis", "sposdis"):
                v = disentanglement(protocol, space, ms, [a1, a2], kind)
                assert -1e-12 <= v <= 1.0 + 1e-12


class TestPinnedDisentanglementBits:
    """posdis, bosdis and sposdis bits on seeded weighted instances,
    recorded before the two MI-gap loops were merged. Each joint table has
    the message side as its rows; transposing one moves the last bits of
    ``mutual_information``, and fails here."""

    # per instance: posdis, bosdis, sposdis
    PINS = [
        ["0x1.55ba4e289ac18p-5", "0x1.5b1d37468f33cp-5",
         "0x1.040bd3c2aef1bp-4"],
        ["0x1.940ebfd5c625cp-4", "0x1.177ee8fbae04bp-4",
         "0x1.b925c1217887bp-4"],
        ["0x1.9403ce09363e8p-5", "0x1.88a20cb639097p-5",
         "0x1.a57894a7fe7fdp-3"],
        ["0x1.c5f37886802ecp-4", "0x1.d71147bd3e041p-5",
         "0x1.af995ecf14e6dp-4"],
        ["0x1.6208450bd6c58p-3", "0x1.95c49200ff493p-5",
         "0x1.804d524a7cdd3p-3"],
        ["0x1.1046846d41b95p-4", "0x1.108fbba0ff373p-5",
         "0x1.4fdbefc36be78p-4"],
        ["0x1.4e3d910545fbdp-4", "0x1.bf3c4b120a515p-5",
         "0x1.1fc81083a56cfp-3"],
        ["0x1.290eda7597f28p-5", "0x1.480a2dfeb4f0bp-4",
         "0x1.991a5aa25afe7p-4"],
    ]

    def test_scores(self):
        rng = rng_for("pinned disentanglement bits")
        ms = MessageSpace.full_code(3, 3)
        for want in self.PINS:
            n = 15
            w = rng.random(n) + 0.1
            space = InputSpace(rng.normal(size=(n, 2)), w / w.sum())
            attributes = [LabelMap(rng.integers(0, 3, size=n).tolist(),
                                   f"a{j}") for j in range(3)]
            protocol = Protocol(rng.integers(0, ms.size, size=n), ms.size)
            got = [disentanglement(protocol, space, ms, attributes, kind)
                   for kind in ("posdis", "bosdis", "sposdis")]
            assert [float.hex(v) for v in got] == want


class TestClusterVariance:
    def test_identity_groups_no_merge(self, space_b):
        ms = MessageSpace.symbol_sequences(["0", "1", "2", "3"], 4)
        protocol = Protocol.identity(4)
        groups = [[0], [1], [2], [3]]
        assert abs(cluster_variance(protocol, space_b, ms, groups)
                   - message_variance(protocol, space_b)) < 1e-15

    def test_single_group_merges_all(self, space_b):
        ms = MessageSpace.symbol_sequences(["0", "1", "2", "3"], 4)
        protocol = Protocol.identity(4)
        assert abs(cluster_variance(protocol, space_b, ms, [[0, 1, 2, 3]])
                   - 1.25) < 1e-15

    def test_paired_groups(self, space_b):
        ms = MessageSpace.symbol_sequences(["0", "1", "2", "3"], 4)
        protocol = Protocol.identity(4)
        assert abs(cluster_variance(protocol, space_b, ms, [[0, 1], [2, 3]])
                   - 0.25) < 1e-15

    def test_mixed_group_message_rejected(self, space_b):
        ms = MessageSpace.symbol_sequences(["01", "23", "03", "12"], 4)
        protocol = Protocol([0, 1, 2, 3], 4)
        with pytest.raises(ValueError, match="mixes"):
            cluster_variance(protocol, space_b, ms, [[0, 1], [2, 3]])

    def test_partition_validated(self, space_b):
        ms = MessageSpace.symbol_sequences(["0", "1"], 2)
        protocol = Protocol([0, 0, 1, 1], 2)
        with pytest.raises(ValueError, match="cover"):
            cluster_variance(protocol, space_b, ms, [[0]])
        with pytest.raises(ValueError, match="disjoint"):
            cluster_variance(protocol, space_b, ms, [[0, 1], [1]])

    def test_never_below_message_variance(self):
        rng = rng_for("clustervar-monotone")
        vocab, length = 4, 2
        ms = MessageSpace.full_code(vocab, length)
        groups = [[0, 1], [2, 3]]
        ok = [i for i, atom in enumerate(ms.atoms)
              if len({0 if s < 2 else 1 for s in atom}) == 1]
        for _ in range(20):
            space = random_space(rng, uniform=True)
            protocol = Protocol(
                [ok[int(rng.integers(len(ok)))] for _ in range(space.size)],
                ms.size)
            cv = cluster_variance(protocol, space, ms, groups)
            assert cv >= message_variance(protocol, space) - 1e-12


class TestDiscriminationAccuracy:
    def test_split_exact_three_quarters(self, space_b, split):
        acc = discrimination_accuracy(split, space_b, "synchronized", d=2)
        assert acc == 0.75

    def test_lossless_with_replacement_pays_collisions(self, space_b):
        ident = Protocol.identity(4)
        acc = discrimination_accuracy(ident, space_b, "synchronized", d=2)
        # the distractor duplicates the target with probability w, halving
        # that episode's success
        want = sum(w * (1 - w / 2) for w in space_b.weights)
        assert abs(acc - want) < 1e-15

    def test_lossless_excluding_target_is_perfect(self, space_b):
        ident = Protocol.identity(4)
        acc = discrimination_accuracy(ident, space_b, "synchronized", d=2,
                                      distractors="exclude-target")
        assert acc == 1.0

    def test_constant_protocol_near_chance(self):
        # every candidate shares the message, so the pick is a fair d-way
        # coin: exactly 1/d, up to the rounding of the 40 uniform weights
        space = InputSpace.uniform(np.arange(40.0)[:, None])
        for d in (2, 5, 41):
            acc = discrimination_accuracy(Protocol.constant(40), space,
                                          "synchronized", d=d)
            assert abs(acc - 1.0 / d) < 1e-15

    def test_reconstruction_nearest_on_split(self, space_b, split):
        acc = discrimination_accuracy(split, space_b,
                                      "reconstruction-nearest", d=2)
        # reconstruction lands on the class mean; the target wins unless the
        # distractor shares its class, which forces a coin flip
        assert abs(acc - 0.75) < 1e-15

    @pytest.mark.parametrize("kind, law, exact", [
        ("synchronized", "replacement", 0.587996875),
        ("synchronized", "exclude-target", 0.7910915678585462),
        ("reconstruction-nearest", "replacement", 0.5879968749999999),
        ("reconstruction-nearest", "exclude-target", 0.8376878397421025)])
    def test_pinned_values(self, kind, law, exact):
        # recorded from the exact enumeration of every distractor tuple
        space = InputSpace(np.arange(5.0)[:, None],
                           [0.1, 0.2, 0.3, 0.15, 0.25])
        protocol = Protocol([0, 0, 1, 1, 2], 3)
        acc = discrimination_accuracy(protocol, space, kind, d=4,
                                      distractors=law)
        assert abs(acc - exact) < 1e-12

    def test_matches_tuple_enumeration(self):
        # weighted instances with duplicated points (ties in distance),
        # unused messages and K = 1, against every distractor tuple
        rng = rng_for("accuracy-oracle")
        for case in range(200):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 5))
            if case % 2:  # few grid positions: duplicates and equidistance
                pts = rng.integers(0, 3, size=(n, 2)).astype(float)
            else:
                pts = rng.normal(size=(n, 2))
            w = rng.random(n) + 0.1
            space = InputSpace(pts, w / w.sum())
            k = 1 if case % 5 == 0 else int(rng.integers(2, 5))
            protocol = Protocol(rng.integers(0, k, size=n), k)
            for kind in ("synchronized", "reconstruction-nearest"):
                for law in ("replacement", "exclude-target"):
                    want = accuracy_bruteforce(
                        protocol.assignment.tolist(), pts,
                        space.weights.tolist(), d, kind, law)
                    got = discrimination_accuracy(protocol, space, kind, d,
                                                  law)
                    assert abs(got - want) < 1e-12, (case, kind, law)

    def test_synchronized_closed_form_at_scale(self):
        rng = rng_for("accuracy-scale")
        w = rng.random(1000) + 0.1
        space = InputSpace(rng.normal(size=(1000, 2)), w / w.sum())
        protocol = Protocol(rng.integers(0, 18, size=1000), 18)
        p = np.bincount(protocol.assignment, weights=space.weights,
                        minlength=18)
        want = float(np.sum(1.0 - (1.0 - p) ** 41) / 41)
        assert abs(discrimination_accuracy(protocol, space, "synchronized",
                                           d=41) - want) < 1e-12

    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_fewer_than_two_candidates_rejected(self, space_b, split, d):
        with pytest.raises(ValueError, match="at least 2"):
            discrimination_accuracy(split, space_b, d=d)

    def test_exclude_target_needs_two_inputs(self):
        space = InputSpace.uniform(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="two inputs"):
            discrimination_accuracy(Protocol.constant(1), space, d=2,
                                    distractors="exclude-target")


class TestUniqueMessages:
    def test_counts_used_only(self, split):
        assert unique_messages(split) == 2
        assert unique_messages(Protocol.constant(4, 3)) == 1
