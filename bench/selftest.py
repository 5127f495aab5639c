"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

First the references are compared with brute force on instances small
enough to enumerate. Then every operation of the three workloads runs once
on a fixed seed: each check must pass on the program's real output and must
fail, with the expected message, on a deliberately wrong copy of it. Exits 1
if any expectation does not hold.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
from harness import Checker, CliOutcome, clean_exit_2  # noqa: E402

SEED = 7
problems: list[str] = []


def expect(what: str, ok: bool) -> None:
    print(f"{'ok    ' if ok else 'FAILED'} {what}")
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------
# References against brute force
# ---------------------------------------------------------------------------

def brute_discrimination(a, w, d) -> float:
    """Targets x distractor tuples x positions, uniform over matches."""
    total = 0.0
    for i, wi in enumerate(w):
        for distr in itertools.product(range(len(w)), repeat=d - 1):
            share = 1 + sum(a[j] == a[i] for j in distr)
            total += wi * math.prod(w[j] for j in distr) * math.log(share)
    return total


def brute_accuracy(a, w, d) -> float:
    total = 0.0
    for i, wi in enumerate(w):
        for distr in itertools.product(range(len(w)), repeat=d - 1):
            share = 1 + sum(a[j] == a[i] for j in distr)
            total += wi * math.prod(w[j] for j in distr) / share
    return total


def check_references() -> None:
    rng = np.random.default_rng(SEED)
    n, k = 5, 3
    w = rng.random(n) + 0.5
    w /= w.sum()
    a = rng.integers(0, k, size=n)
    p = ref.masses(a, w, k)
    expect("binomial-sum closed form equals enumeration (d=3)",
           abs(ref.discrimination_loss(p, 3) - brute_discrimination(a, w, 3))
           < 1e-12)
    expect("accuracy closed form equals enumeration (d=3)",
           abs(ref.accuracy(p, 3) - brute_accuracy(a, w, 3)) < 1e-12)

    n = 7
    w = np.full(n, 1.0 / n)
    x = rng.normal(size=n)
    xw = rng.random(n) + 0.5
    xw /= xw.sum()
    disc, reco = [], []
    for row in itertools.product(range(k), repeat=n):
        row = np.asarray(row)
        disc.append(ref.discrimination_loss(ref.masses(row, w, k), 2))
        reco.append(ref.reconstruction_loss(row, x, xw, k))
    disc, reco = np.asarray(disc), np.asarray(reco)
    labelled, unlabelled = ref.discrimination_optimum_counts(n, k)
    expect("optimum count equals enumeration (n=7, K=3)",
           int((disc <= disc.min() + 1e-12).sum()) == labelled
           and labelled // math.factorial(k) == unlabelled)
    expect("balanced optimum equals enumeration",
           abs(ref.discrimination_optimum(n, k, 2) - disc.min()) < 1e-15)
    best, blocks = ref.reconstruction_optimum_1d(x, xw, k)
    expect("interval DP equals enumeration (n=7, K=3)",
           abs(best - reco.min()) < 1e-12
           and int((reco <= reco.min() + 1e-12).sum())
           == ref.labelled_copies(k, blocks))

    from scipy import stats
    u = rng.integers(0, 5, size=300).astype(float)
    v = u + rng.integers(0, 3, size=300)
    expect("average-rank Spearman equals scipy on tied data",
           abs(ref.spearman(u, v) - stats.spearmanr(u, v).statistic) < 1e-12)

    scores = rng.random((3, 6)) + 0.05
    rows = ref.score_table_rows(scores)
    pts = rng.normal(size=(6, 2))
    args = ([m for m, _, _ in rows], [c for _, c, _ in rows],
            [q for _, _, q in rows], pts, ref.decimal_hamming(3))
    expect("row-blocked Lipschitz ratio does not depend on the block",
           abs(ref.lipschitz_ratio(*args, block=7)
               - ref.lipschitz_ratio(*args, block=10 ** 6)) < 1e-15)


# ---------------------------------------------------------------------------
# Workload checks against wrong values
# ---------------------------------------------------------------------------

def shifted(r, delta):
    return dataclasses.replace(r, expected=r.expected + delta)


def json_edit(outcome: CliOutcome, edit) -> CliOutcome:
    rep = json.loads(outcome.stdout)
    edit(rep)
    return dataclasses.replace(outcome, stdout=json.dumps(
        rep, sort_keys=True, indent=2) + "\n")


def nudge(v: float) -> float:
    """A wrong value just outside the report tolerance."""
    return v + 1e-8 * max(1.0, abs(v))


def assign(path: tuple, value):
    def edit(rep):
        node = rep
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
    return edit


def corruptions(w):
    """op name -> [(description, wrong output maker, expected message)]."""
    loss = [("closed form off by 1e-9", lambda r: shifted(r, 1e-9), "")]
    cli_common = [
        ("flipped exit code", lambda o: dataclasses.replace(o, code=1),
         "exit code"),
        ("one extra byte of stdout",
         lambda o: dataclasses.replace(o, stdout=o.stdout + " "), "stdout"),
    ]
    out = {
        "exact_sync": loss, "supervised": loss, "classification": loss,
        "global": loss, "reconstruction": loss,
        "exact_score": loss + [("1e-11 away from the synchronized loss",
                                lambda r: shifted(r, 1e-11),
                                "vs synchronized")],
        "non_degeneracy": [
            ("sup loss off by 1e-9",
             lambda r: r._replace(sup_loss=r.sup_loss + 1e-9), "sup loss"),
            ("flipped verdict",
             lambda r: r._replace(non_degenerate=not r.non_degenerate),
             "verdict")],
        "closed_forms": [
            (f"{name} closed form off by 1e-9",
             lambda v, j=j: v + 1e-9 * (np.arange(5) == j), name)
            for j, name in enumerate(("reconstruction", "discrimination",
                                      "global", "supervised",
                                      "classification"))],
        "search_reco": [
            ("optimum off by 1e-9",
             lambda r: r._replace(value=r.value + 1e-9), "interval DP"),
            ("optimum count off by one",
             lambda r: r._replace(protocols=r.protocols[1:]),
             "optimum count")],
        "search_disc": [
            ("optimum off by 1e-9",
             lambda r: r._replace(value=r.value + 1e-9), "balanced split"),
            ("optimum count off by one",
             lambda r: r._replace(protocols=r.protocols + r.protocols[:1]),
             "optimum count")],
        "kmeans": [("trace that rises once", lambda r: r._replace(
            trace=r.trace[:2] + [r.trace[1] * 1.001] + r.trace[2:]),
            "non-increasing")],
        "balanced": [("one input moved", lambda q: type(q)(
            np.r_[(q.assignment[0] + 1) % q.num_messages, q.assignment[1:]],
            q.num_messages), "class sizes")],
        "analyze": cli_common + [
            (f"{key} off by 1e-8",
             lambda o, key=key: json_edit(o, assign((key,), nudge)),
             f"analyze {key}")
            for key in ("message_variance", "cluster_variance", "purity",
                        "topsim")] + [
            ("unique_messages off by one", lambda o: json_edit(
                o, assign(("unique_messages",), lambda v: v + 1)),
             "unique_messages"),
            ("disc_accuracy 5 standard errors off", lambda o: json_edit(
                o, assign(("disc_accuracy",),
                          lambda v: v + 5 * w["cli"].accuracy_se)),
             "disc_accuracy")],
        "verify_def4": cli_common + [
            ("conditional off by 1e-8", lambda o: json_edit(
                o, assign(("witnesses", 0, "conditional"), nudge)),
             "conditional")],
        "verify_def5": cli_common + [
            ("worst ratio off by 1e-8", lambda o: json_edit(
                o, assign(("witnesses", "worst_ratio"), nudge)),
             "worst ratio"),
            ("flipped verdict", lambda o: json_edit(
                o, assign(("verdict",), lambda v: not v)), "verdict")],
        "verify_def6": cli_common + [
            ("sup loss off by 1e-8", lambda o: json_edit(
                o, assign(("witnesses", "sup_loss"), nudge)), "sup loss")],
        "optimize": cli_common + [
            ("optimum count off by one", lambda o: json_edit(
                o, assign(("num_optimal",), lambda v: v + 1)),
             "num_optimal"),
            ("objective off by 1e-8", lambda o: json_edit(
                o, assign(("objective",), nudge)), "objective")],
        "thm5": cli_common + [
            ("not passed", lambda o: json_edit(
                o, assign(("passed",), lambda v: False)), "passed")],
        "thm2": cli_common + [
            ("not passed", lambda o: json_edit(
                o, assign(("passed",), lambda v: False)), "passed")],
    }
    oracle = w["oracle"]
    for name, p, want in (("mc_sync", oracle.p, oracle.disc),
                          ("mc_score", oracle.p, oracle.disc),
                          ("mc_tabular", oracle.tab_p, oracle.tab_disc)):
        out[name] = [
            ("5 standard errors off", lambda r, p=p, want=want: dataclasses.
             replace(r, expected=want + 5 * ref.discrimination_sample_se(
                 p, oracle.size["d"], r.samples)), "estimate"),
            ("one ulp away from the first call", lambda r: dataclasses.replace(
                r, expected=float(np.nextafter(r.expected, math.inf))),
             "repeated call")]
    return out


def check_workloads() -> None:
    from workloads import WORKLOADS
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        parts = {name: cls(SEED, workdir) for name, cls in WORKLOADS.items()}
        for part in parts.values():
            part.setup()
            part.prepare()
        wrong = corruptions(parts)
        for part in parts.values():
            for op in part.ops():
                out = op.call()
                if op.malformed:
                    continue
                real = Checker()
                op.check(real, out)
                expect(f"{op.name}: passes on the program's output",
                       not real.failures)
                for what, corrupt, message in wrong[op.name]:
                    c = Checker()
                    op.check(c, corrupt(out))
                    expect(f"{op.name}: fails on {what}",
                           any(message in f for f in c.failures))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expect("a probe exiting 2 without a traceback passes",
           clean_exit_2(CliOutcome(2, "", "")))
    expect("a probe with a flipped exit code fails",
           not clean_exit_2(CliOutcome(0, "", "")))
    expect("a probe that raised fails",
           not clean_exit_2(CliOutcome(None, "", "", "Traceback ...")))


def main() -> int:
    check_references()
    check_workloads()
    print(f"{len(problems)} expectation(s) failed" if problems
          else "all checks behave")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
