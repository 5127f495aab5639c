"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints
one ``ACCEPTANCE nn [PASS|FAIL]`` line (visible with ``pytest -s`` or in
failure output). Runtime-limited criteria measure wall time.
"""

import itertools
import math
import time

import numpy as np

from signalgames import (
    GameSpec,
    InputSpace,
    LabelMap,
    MessageSpace,
    Protocol,
    balanced_partition,
    binomial_log_moment,
    classification_objective,
    convexity_check,
    disc_objective,
    disc_objective_simplified,
    eval_classification,
    eval_discrimination,
    eval_global,
    eval_reconstruction,
    eval_supervised,
    exhaustive_search,
    global_objective,
    kmeans_alternation,
    message_variance,
    non_degeneracy,
    purity,
    reco_objective,
    receiver_simplicity,
    semantic_consistency,
    spatial_meaningfulness,
    supervised_objective,
    synchronized_receiver,
    synchronized_sender,
    topsim,
    verify_mirror_pairs,
)
from signalgames.counterexamples import build_mirror_pairs_instance
from signalgames.games import ReconstructionReceiver, substream
from signalgames.metrics import cluster_variance, discrimination_accuracy
from signalgames.objectives import entropy, joint_message_label

LOG2 = math.log(2.0)
SEED = 42


def _record(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {description}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def _population(seed: int, count: int = 200, labeled: bool = False):
    """Seeded random instances: N <= 8, dim <= 3, K <= 4."""
    rng = substream(seed, "acceptance-population",
                    "labeled" if labeled else "plain")
    out = []
    for _ in range(count):
        dim = int(rng.integers(1, 4))
        if labeled:
            half = int(rng.integers(1, 5))
            n = 2 * half
            space = InputSpace.uniform(rng.normal(size=(n, dim)))
            labels = LabelMap(["a"] * half + ["b"] * half)
        else:
            n = int(rng.integers(2, 9))
            w = rng.random(n) + 0.1
            space = InputSpace(rng.normal(size=(n, dim)), w / w.sum())
            labels = None
        k = int(rng.integers(1, 5))
        protocol = Protocol(rng.integers(0, k, size=n), k)
        out.append((space, protocol, labels))
    return out


def test_criterion_01_lemma1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for space, protocol, _ in _population(SEED):
        recv = synchronized_receiver(protocol, space,
                                     GameSpec("reconstruction"))
        exact = eval_reconstruction(protocol, recv, space).expected
        worst = max(worst, abs(exact - reco_objective(protocol, space)))
    elapsed = time.perf_counter() - t0
    _record(1, "reconstruction loss with synchronized receiver equals the "
               "unexplained-variance objective",
            worst < 1e-10 and elapsed < 5.0,
            f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_lemma2_oracle_equivalence():
    t0 = time.perf_counter()
    worst_exact = 0.0
    worst_z = 0.0
    for idx, (space, protocol, _) in enumerate(_population(SEED)):
        recv2 = synchronized_receiver(protocol, space,
                                      GameSpec("discrimination", d=2))
        exact = eval_discrimination(protocol, recv2, space, 2,
                                    mode="exact").expected
        closed2 = LOG2 * disc_objective_simplified(protocol, space)
        worst_exact = max(worst_exact, abs(exact - closed2))

        recv3 = synchronized_receiver(protocol, space,
                                      GameSpec("discrimination", d=3))
        rep = eval_discrimination(protocol, recv3, space, 3, mode="mc",
                                  samples=200_000, seed=SEED + idx)
        closed3 = disc_objective(protocol, space, 3)
        gap = abs(rep.expected - closed3)
        if rep.std_error and rep.std_error > 0:
            worst_z = max(worst_z, gap / rep.std_error)
        else:
            # zero sampling variance (e.g. one message): the estimate must
            # hit the closed form up to float round-off
            worst_z = max(worst_z, 0.0 if gap <= 1e-12 else math.inf)
    elapsed = time.perf_counter() - t0
    _record(2, "single-distractor exact loss equals log2 * sum p^2; "
               "three-candidate Monte-Carlo matches the binomial form "
               "within 4 standard errors at 200k samples",
            worst_exact < 1e-10 and worst_z <= 4.0 and elapsed < 60.0,
            f"max exact gap {worst_exact:.2e}, max z {worst_z:.2f}, "
            f"{elapsed:.1f}s")


def test_criterion_03_variant_lemmas_oracle_equivalence():
    worst_global = worst_sup = worst_cls = 0.0
    for space, protocol, _ in _population(SEED):
        recv = synchronized_receiver(protocol, space, GameSpec("global"))
        exact = eval_global(protocol, recv, space).expected
        closed = global_objective(protocol, space) + entropy(space.weights)
        worst_global = max(worst_global, abs(exact - closed))
    for space, protocol, labels in _population(SEED, labeled=True):
        spec = GameSpec("supervised", d=2, labels=labels)
        recv = synchronized_receiver(protocol, space, spec)
        exact = eval_supervised(protocol, recv, space, labels).expected
        scale = LOG2 * labels.num_values / (labels.num_values - 1)
        closed = scale * supervised_objective(protocol, space, labels).value
        worst_sup = max(worst_sup, abs(exact - closed))

        cspec = GameSpec("classification", labels=labels)
        crecv = synchronized_receiver(protocol, space, cspec)
        exact = eval_classification(protocol, crecv, space, labels,
                                    mode="exact").expected
        h_y = entropy(joint_message_label(protocol, space,
                                          labels).sum(axis=0))
        closed = classification_objective(protocol, space, labels) + h_y
        worst_cls = max(worst_cls, abs(exact - closed))
    ok = worst_global < 1e-10 and worst_sup < 1e-10 and worst_cls < 1e-10
    _record(3, "global, supervised (d=2) and classification exact losses "
               "match their closed forms",
            ok, f"gaps {worst_global:.2e} / {worst_sup:.2e} / "
                f"{worst_cls:.2e}")


def test_criterion_04_uniform_optimality_and_convexity():
    t0 = time.perf_counter()
    ok = True
    space = InputSpace.uniform(np.arange(6.0)[:, None])
    for d in (2, 3):
        result = exhaustive_search(space, 3, GameSpec("discrimination", d=d))
        bound = 3.0 * binomial_log_moment(1.0 / 3.0, d)
        ok = ok and abs(result.value - bound) < 1e-12
        for assignment in set(itertools.permutations([0, 0, 1, 1, 2, 2])):
            value = disc_objective(Protocol(assignment, 3), space, d)
            ok = ok and abs(value - result.value) < 1e-12
    convex = all(convexity_check(d, grid_step=1e-3) for d in (2, 3, 5, 41))
    elapsed = time.perf_counter() - t0
    _record(4, "every equal-mass partition attains the exhaustive optimum "
               "(N=6, K=3, d in {2,3}); the binomial moment is grid-convex "
               "for d in {2,3,5,41}",
            ok and convex and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_05_optima_consistency_contrast():
    rng = substream(SEED, "acceptance-optima-contrast")
    all_consistent = True
    for _ in range(50):
        n = int(rng.integers(3, 7))
        dim = int(rng.integers(1, 3))
        k = int(rng.integers(2, 4))
        if k >= n:
            k = n - 1
        w = rng.random(n) + 0.1
        space = InputSpace(rng.normal(size=(n, dim)), w / w.sum())
        if space.variance() <= 0.0:
            continue
        protocols = [Protocol(a, k)
                     for a in itertools.product(range(k), repeat=n)]
        if not any(semantic_consistency(p, space).consistent
                   for p in protocols):
            continue
        result = exhaustive_search(space, k, GameSpec("reconstruction"))
        all_consistent = all_consistent and all(
            semantic_consistency(p, space).consistent
            for p in result.protocols)

    b = InputSpace.uniform(np.arange(4.0)[:, None])
    adversarial = balanced_partition(b, 2, "adversarial-antipodal")
    best = exhaustive_search(b, 2, GameSpec("discrimination", d=2)).value
    disc_optimal = (
        abs(disc_objective_simplified(adversarial, b) - 0.5) < 1e-12
        and abs(disc_objective(adversarial, b, 2) - best) < 1e-12)
    res = semantic_consistency(adversarial, b)
    contrast = (not res.consistent) and abs(res.explained_variance) <= 1e-12
    _record(5, "every exhaustive reconstruction optimum is semantically "
               "consistent; the antipodal split is discrimination-optimal "
               "yet explains zero variance",
            all_consistent and disc_optimal and contrast)


def test_criterion_06_mirror_pairs_instance():
    t0 = time.perf_counter()
    report = verify_mirror_pairs()
    steps = {s["step"]: s for s in report["steps"]}
    inst = build_mirror_pairs_instance()
    var_ok = abs(inst.space.variance() - 91.0 / 6.0) <= 1e-12
    k = steps["simplicity"]["k"]
    k_ok = (abs(k - (math.sqrt(2) - 1) / 2 * math.sqrt(91.0 / 6.0)) <= 1e-12
            and k > 1.0 / math.sqrt(2.0))
    loss_ok = abs(steps["synchronized-loss"]["expected_loss"]
                  - LOG2 / 6.0) <= 1e-12
    approx_ok = (abs(steps["synchronized-loss"]["expected_loss"]
                     - 0.115525) < 1e-6
                 and abs(steps["non-degeneracy"]["constant_loss"]
                         - 0.693147) < 1e-6)
    nd_ok = steps["non-degeneracy"]["ok"]
    sub_unit = [t for t in steps["spatial-meaningfulness"]["thresholds"]
                if t["epsilon"] == 0.0]
    equality_ok = all(abs(t["conditional"] - t["unconditional"]) <= 1e-12
                      for t in sub_unit) and len(sub_unit) == 1
    elapsed = time.perf_counter() - t0
    _record(6, "mirror-pairs instance reproduces all proof constants and "
               "the sub-unit equality of conditional and unconditional "
               "pair distances",
            report["passed"] and var_ok and k_ok and loss_ok and approx_ok
            and nd_ok and equality_ok and elapsed < 5.0,
            f"{elapsed:.2f}s")


def _covering_lipschitz_receiver(space):
    """March outputs across the data range in steps below the Lipschitz
    budget while covering every input within half a step."""
    var = space.variance()
    step = 0.9 * (math.sqrt(2.0) - 1.0) / 2.0 * math.sqrt(var)
    lo = float(space.points.min()) - 0.25 * step
    hi = float(space.points.max()) + 0.25 * step
    k = int(math.ceil((hi - lo) / step)) + 1
    outputs = lo + step * np.arange(k)
    ms = MessageSpace.from_vectors(np.arange(float(k))[:, None])
    return ReconstructionReceiver(outputs[:, None]), ms


def test_criterion_07_simple_nondegenerate_receivers_spatial():
    rng = substream(SEED, "acceptance-receiver-suite")
    spec = GameSpec("reconstruction")
    checked = 0
    counterexamples = 0
    while checked < 50:
        n = int(rng.integers(3, 7))
        space = InputSpace.uniform(np.sort(rng.normal(size=n) * 2.0)[:, None])
        if space.variance() < 1e-3:
            continue
        recv, ms = _covering_lipschitz_receiver(space)
        eps0 = ms.epsilon_min()
        if not receiver_simplicity(recv, eps0, space, ms).simple:
            continue
        if not non_degeneracy(recv, space, spec).non_degenerate:
            continue
        sender = synchronized_sender(recv, space, spec)
        if not spatial_meaningfulness(sender, space, ms,
                                      eps0=eps0).meaningful:
            counterexamples += 1
        checked += 1
    _record(7, "50 simple non-degenerate reconstruction receivers all "
               "induce spatially meaningful synchronized senders",
            counterexamples == 0, f"{counterexamples} counterexamples")


def test_criterion_08_alternation_convergence_and_monotonicity():
    b = InputSpace.uniform(np.arange(4.0)[:, None])
    res = kmeans_alternation(b, 2, init=[[0.4], [2.6]])
    seeded_ok = (res.rounds <= 2 and abs(res.trace[-1] - 0.25) < 1e-12
                 and all(y <= x + 1e-12
                         for x, y in zip(res.trace, res.trace[1:])))
    rng = substream(SEED, "acceptance-kmeans")
    monotone = True
    for trial in range(100):
        n = int(rng.integers(2, 10))
        dim = int(rng.integers(1, 4))
        w = rng.random(n) + 0.1
        space = InputSpace(rng.normal(size=(n, dim)), w / w.sum())
        k = int(rng.integers(1, min(n, 4) + 1))
        out = kmeans_alternation(space, k, seed=trial)
        monotone = monotone and all(
            y <= x + 1e-12 for x, y in zip(out.trace, out.trace[1:]))
    _record(8, "alternation from centroids (0.4, 2.6) reaches 0.25 within "
               "two rounds; traces are non-increasing on 100 random "
               "instances",
            seeded_ok and monotone)


def test_criterion_09_metric_identities():
    rng = substream(SEED, "acceptance-metrics")
    b = InputSpace.uniform(np.arange(4.0)[:, None])
    split = Protocol([0, 0, 1, 1], 2)

    identity_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        space = InputSpace.uniform(rng.normal(size=(n, 2)))
        k = int(rng.integers(1, 5))
        protocol = Protocol(rng.integers(0, k, size=n), k)
        identity_ok = identity_ok and abs(
            message_variance(protocol, space)
            - reco_objective(protocol, space)) < 1e-10

    ms = MessageSpace.full_code(4, 2)
    groups = [[0, 1], [2, 3]]
    pure = [i for i, atom in enumerate(ms.atoms)
            if len({0 if s < 2 else 1 for s in atom}) == 1]
    merge_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        space = InputSpace.uniform(rng.normal(size=(n, 2)))
        protocol = Protocol([pure[int(rng.integers(len(pure)))]
                             for _ in range(n)], ms.size)
        merge_ok = merge_ok and (
            cluster_variance(protocol, space, ms, groups)
            >= message_variance(protocol, space) - 1e-12)

    line3 = InputSpace.uniform(np.arange(3.0)[:, None])
    code = MessageSpace.symbol_sequences(["00", "01", "11"], 2)
    topsim_ok = topsim(Protocol.identity(3), line3, code) == 1.0

    labels = LabelMap(["A", "A", "B", "B"])
    purity_ok = (
        abs(purity(split, b, labels) - 1.0) <= 1e-12
        and abs(purity(Protocol([0, 1, 1, 0], 2), b, labels) - 0.5) <= 1e-12
        and abs(purity(Protocol([0, 0, 0, 1], 2), b, labels) - 0.75) <= 1e-12)

    acc = discrimination_accuracy(split, b, "synchronized", d=2)
    accuracy_ok = acc == 0.75
    _record(9, "message variance matches the reconstruction objective; "
               "merging symbol groups never reduces it; topsim, purity and "
               "exact discrimination accuracy hit their pinned values",
            identity_ok and merge_ok and topsim_ok and purity_ok
            and accuracy_ok)


def test_criterion_10_deterministic_reports(tmp_path):
    from signalgames import io
    from signalgames.cli import main
    b = InputSpace.uniform(np.arange(4.0)[:, None])
    io.save_input_space(tmp_path / "space.csv", b,
                        [LabelMap(["A", "A", "B", "B"], "label")])
    io.save_protocol(tmp_path / "protocol.csv", Protocol([0, 0, 1, 1], 2),
                     io.default_message_space(2))
    args = ["analyze", "--input", str(tmp_path / "space.csv"),
            "--protocol", str(tmp_path / "protocol.csv"),
            "--d", "2", "--seed", "123"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    same_json = (tmp_path / "r1" / "report.json").read_bytes() == \
        (tmp_path / "r2" / "report.json").read_bytes()
    same_csv = (tmp_path / "r1" / "report.csv").read_bytes() == \
        (tmp_path / "r2" / "report.csv").read_bytes()
    _record(10, "repeated runs with one seed emit byte-identical reports",
            same_json and same_csv)
