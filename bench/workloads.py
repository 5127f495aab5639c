"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``setup``), computes the
reference values of its checks with :mod:`reference` outside any timed
region (``prepare``), and lists its operations (``ops``). ``headline``
turns the per-round operation times into its end-to-end metrics. With
``probe=True`` a workload keeps only the operations behind its headline
metrics, at a small size; the other workloads run it that way so that every
end-to-end metric is measured on every workload.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import signalgames as sg
from signalgames import cli, consistency, games, io, objectives, optimize

import reference as ref
from harness import (EXACT_TOL, REPORT_RTOL, SAME_TOL, Checker, CliOutcome,
                     Op, typical, rng_for, run_cli)


def _uniform_labels(rng, n: int, values: int, prefix: str) -> list[str]:
    """Balanced labels: ``n / values`` inputs per value, shuffled."""
    labels = [f"{prefix}{j % values}" for j in range(n)]
    return [labels[i] for i in rng.permutation(n)]


def _weights(rng, n: int) -> np.ndarray:
    w = rng.random(n) + 0.5
    return w / w.sum()


def _tertile(values: np.ndarray) -> np.ndarray:
    return np.searchsorted(np.quantile(values, [1 / 3, 2 / 3]), values)


def _codes(labels: list[str]) -> tuple[np.ndarray, int]:
    values = sorted(set(labels))
    index = {v: j for j, v in enumerate(values)}
    return np.array([index[v] for v in labels]), len(values)


# ---------------------------------------------------------------------------
# oracle: exact and Monte-Carlo loss evaluation
# ---------------------------------------------------------------------------

class Oracle:
    """Exact and Monte-Carlo losses of seeded protocols in all five games,
    checked against their closed forms."""

    name = "oracle"
    FULL = dict(n=24, k=6, d=3, mc_sync=1_000_000, mc_table=20_000,
                tab_n=12, tab_k=4, population=500)
    PROBE = dict(n=16, k=4, d=3, mc_sync=200_000, mc_table=10_000,
                 tab_n=8, tab_k=3, population=100)
    # calls per round, so that short operations get enough timed calls
    REPEAT = dict(mc_sync=1, mc_score=2, mc_tabular=3, closed_forms=2)
    REPEAT_PROBE = dict(mc_sync=3, mc_score=2, mc_tabular=4, closed_forms=5)

    def __init__(self, seed: int, workdir: Path, probe: bool = False):
        self.seed, self.probe = seed, probe
        self.size = self.PROBE if probe else self.FULL
        self.first: dict = {}

    def setup(self) -> None:
        s, seed = self.size, self.seed
        n, k, d = s["n"], s["k"], s["d"]
        rng = rng_for(seed, "oracle-disc")
        self.space = sg.InputSpace(rng.normal(size=(n, 2)), _weights(rng, n))
        self.protocol = sg.Protocol(rng.integers(0, k, size=n), k)
        self.sync = games.synchronized_receiver(
            self.protocol, self.space, sg.GameSpec("discrimination", d=d))
        indicator = np.zeros((k, n))
        indicator[self.protocol.assignment, np.arange(n)] = 1.0
        self.score = games.ScoreDiscriminationReceiver(indicator, d)
        self.mc_seed = int(rng.integers(2 ** 31))

        # tabular copy of a synchronized receiver over every query
        rng = rng_for(seed, "oracle-table")
        tn, tk = s["tab_n"], s["tab_k"]
        self.tab_space = sg.InputSpace(rng.normal(size=(tn, 2)),
                                       _weights(rng, tn))
        self.tab_protocol = sg.Protocol(rng.integers(0, tk, size=tn), tk)
        cands = np.indices((tn,) * d).reshape(d, -1).T
        msgs = self.tab_protocol.assignment[cands]
        table = {}
        for m in range(tk):
            match = (msgs == m).astype(float)
            count = match.sum(axis=1, keepdims=True)
            rows = np.where(count > 0, match / np.maximum(count, 1.0), 1.0 / d)
            for c, row in zip(map(tuple, cands.tolist()), rows):
                table[(m, c)] = row
        self.table = games.TabularDiscriminationReceiver(d, tk, table)

        # protocol population for the scalar closed forms
        rng = rng_for(seed, "oracle-population")
        self.labels = sg.LabelMap(_uniform_labels(rng, n, 4, "y"), "y")
        self.population = [sg.Protocol(rng.integers(0, k, size=n), k)
                           for _ in range(s["population"])]
        if not self.probe:
            self._setup_other_games()

    def _setup_other_games(self) -> None:
        rng = rng_for(self.seed, "oracle-supervised")
        n, k = 80, 8
        self.sup_space = sg.InputSpace.uniform(rng.normal(size=(n, 2)))
        self.sup_labels = sg.LabelMap(_uniform_labels(rng, n, 4, "y"), "y")
        self.sup_protocol = sg.Protocol(rng.integers(0, k, size=n), k)
        self.sup_receiver = games.synchronized_receiver(
            self.sup_protocol, self.sup_space,
            sg.GameSpec("supervised", d=2, labels=self.sup_labels))

        rng = rng_for(self.seed, "oracle-classification")
        n, k = 24, 4
        self.cls_space = sg.InputSpace(rng.normal(size=(n, 2)),
                                       _weights(rng, n))
        self.cls_labels = sg.LabelMap(_uniform_labels(rng, n, 3, "c"), "c")
        self.cls_protocol = sg.Protocol(rng.integers(0, k, size=n), k)
        self.cls_receiver = games.synchronized_receiver(
            self.cls_protocol, self.cls_space,
            sg.GameSpec("classification", labels=self.cls_labels))

        rng = rng_for(self.seed, "oracle-global")
        n, k = 200, 8
        self.glob_space = sg.InputSpace(rng.normal(size=(n, 2)),
                                        _weights(rng, n))
        self.glob_protocol = sg.Protocol(rng.integers(0, k, size=n), k)
        self.glob_receiver = games.synchronized_receiver(
            self.glob_protocol, self.glob_space, sg.GameSpec("global"))
        self.reco_receiver = games.synchronized_receiver(
            self.glob_protocol, self.glob_space,
            sg.GameSpec("reconstruction"))

        rng = rng_for(self.seed, "oracle-nondegeneracy")
        n, k = 30, 5
        self.nd_space = sg.InputSpace(rng.normal(size=(n, 2)),
                                      _weights(rng, n))
        self.nd_scores = rng.random((k, n)) + 0.05
        self.nd_receiver = games.TabularDiscriminationReceiver(2, k, {
            (m, c): np.asarray(p) for m, c, p in
            ref.score_table_rows(self.nd_scores)})

    def prepare(self) -> None:
        s, d = self.size, self.size["d"]
        w = self.space.weights
        self.p = ref.masses(self.protocol.assignment, w, s["k"])
        self.disc = ref.discrimination_loss(self.p, d)
        self.tab_p = ref.masses(self.tab_protocol.assignment,
                                self.tab_space.weights, s["tab_k"])
        self.tab_disc = ref.discrimination_loss(self.tab_p, d)
        codes, v = _codes(list(self.labels.labels))
        pts = self.space.points
        self.forms = np.array([[
            ref.reconstruction_loss(a, pts, w, s["k"]),
            ref.discrimination_loss(ref.masses(a, w, s["k"]), d),
            ref.global_objective(a, w, s["k"]),
            ref.supervised_terms(a, codes, w, s["k"], v),
            ref.classification_objective(a, codes, w, s["k"], v),
        ] for a in (q.assignment for q in self.population)])
        if self.probe:
            return
        codes, v = _codes(list(self.sup_labels.labels))
        self.sup_loss = ref.supervised_loss(
            self.sup_protocol.assignment, codes, self.sup_space.weights, 8, v)
        codes, v = _codes(list(self.cls_labels.labels))
        self.cls_loss = ref.h_y_given_s(self.cls_protocol.assignment, codes,
                                        self.cls_space.weights, 4, v)
        a, w = self.glob_protocol.assignment, self.glob_space.weights
        self.glob_loss = ref.h_x_given_s(a, w, 8)
        self.reco_loss = ref.reconstruction_loss(a, self.glob_space.points,
                                                 w, 8)
        self.nd_sup = ref.score_sup_loss(self.nd_scores, self.nd_space.weights)

    # -- operations -------------------------------------------------------

    def ops(self) -> list[Op]:
        s, d = self.size, self.size["d"]
        rep = self.REPEAT_PROBE if self.probe else self.REPEAT
        ops = [
            Op("exact_sync", lambda: games.eval_discrimination(
                self.protocol, self.sync, self.space, d, mode="exact"),
               self.check_exact_sync),
            Op("exact_score", lambda: games.eval_discrimination(
                self.protocol, self.score, self.space, d, mode="exact"),
               self.check_exact_score),
        ]
        if not self.probe:
            ops += [
                Op("supervised", lambda: games.eval_supervised(
                    self.sup_protocol, self.sup_receiver, self.sup_space,
                    self.sup_labels, d=2),
                   lambda c, r: c.close("exact supervised loss", r.expected,
                                        self.sup_loss)),
                Op("classification", lambda: games.eval_classification(
                    self.cls_protocol, self.cls_receiver, self.cls_space,
                    self.cls_labels, mode="exact"),
                   lambda c, r: c.close("exact classification loss = H(Y|S)",
                                        r.expected, self.cls_loss)),
                Op("global", lambda: games.eval_global(
                    self.glob_protocol, self.glob_receiver, self.glob_space),
                   lambda c, r: c.close("exact global loss = H(X|S)",
                                        r.expected, self.glob_loss)),
                Op("reconstruction", lambda: games.eval_reconstruction(
                    self.glob_protocol, self.reco_receiver, self.glob_space),
                   lambda c, r: c.close("exact reconstruction loss",
                                        r.expected, self.reco_loss)),
                Op("non_degeneracy", lambda: consistency.non_degeneracy(
                    self.nd_receiver, self.nd_space,
                    sg.GameSpec("discrimination", d=2)),
                   self.check_non_degeneracy),
            ]
        ops += [
            Op("mc_sync", lambda: games.eval_discrimination(
                self.protocol, self.sync, self.space, d, mode="mc",
                samples=s["mc_sync"], seed=self.mc_seed, shards=4),
               lambda c, r: self.check_mc(c, "mc_sync", r, self.p,
                                          self.disc), repeat=rep["mc_sync"]),
            Op("mc_score", lambda: games.eval_discrimination(
                self.protocol, self.score, self.space, d, mode="mc",
                samples=s["mc_table"], seed=self.mc_seed),
               lambda c, r: self.check_mc(c, "mc_score", r, self.p,
                                          self.disc), repeat=rep["mc_score"]),
            Op("mc_tabular", lambda: games.eval_discrimination(
                self.tab_protocol, self.table, self.tab_space, d, mode="mc",
                samples=s["mc_table"], seed=self.mc_seed),
               lambda c, r: self.check_mc(c, "mc_tabular", r, self.tab_p,
                                          self.tab_disc),
               repeat=rep["mc_tabular"]),
            Op("closed_forms", self.closed_forms, self.check_closed_forms,
               repeat=rep["closed_forms"]),
        ]
        return ops

    def closed_forms(self) -> np.ndarray:
        space, labels, d = self.space, self.labels, self.size["d"]
        return np.array([[
            objectives.reco_objective(q, space),
            objectives.disc_objective(q, space, d),
            objectives.global_objective(q, space),
            objectives.supervised_objective(q, space, labels).value,
            objectives.classification_objective(q, space, labels),
        ] for q in self.population])

    # -- checks -------------------------------------------------------------

    def check_exact_sync(self, c: Checker, report) -> None:
        c.close("exact synchronized loss vs binomial sum", report.expected,
                self.disc)
        c.repeats(self.first, "exact synchronized loss", report.expected)

    def check_exact_score(self, c: Checker, report) -> None:
        c.close("exact score-receiver loss vs binomial sum", report.expected,
                self.disc)
        c.close("exact score-receiver loss vs synchronized", report.expected,
                self.first["exact synchronized loss"], SAME_TOL)

    def check_non_degeneracy(self, c: Checker, res) -> None:
        c.close("non-degeneracy sup loss", res.sup_loss, self.nd_sup)
        c.close("non-degeneracy constant loss", res.constant_loss,
                math.log(2.0))
        c.equal("non-degeneracy verdict", res.non_degenerate,
                self.nd_sup <= 0.25 * math.log(2.0))

    def check_mc(self, c: Checker, name: str, report, p, want) -> None:
        se = ref.discrimination_sample_se(p, self.size["d"], report.samples)
        c.within_se(f"{name} estimate vs binomial sum", report.expected,
                    want, se)
        c.repeats(self.first, f"{name} with a fixed (seed, samples, shards)",
                  report.expected)

    def check_closed_forms(self, c: Checker, values) -> None:
        worst = np.abs(np.asarray(values) - self.forms).max(axis=0)
        for name, gap in zip(("reconstruction", "discrimination", "global",
                              "supervised", "classification"), worst):
            c.close(f"{name} closed form, worst gap over the population",
                    float(gap), 0.0)

    # -- metrics ------------------------------------------------------------

    def headline(self, rounds) -> dict[str, float]:
        s = self.size
        terms = s["n"] ** s["d"] * s["d"]  # targets x distractors x positions
        return {
            "exact_terms_per_s": 2 * terms / typical(
                rounds, "exact_sync", "exact_score"),
            "mc_sync_samples_per_s": s["mc_sync"] / typical(
                rounds, "mc_sync"),
            "mc_table_samples_per_s": 2 * s["mc_table"] / typical(
                rounds, "mc_score", "mc_tabular"),
            "closed_forms_per_s": s["population"] / typical(
                rounds, "closed_forms"),
        }


# ---------------------------------------------------------------------------
# search: exhaustive, alternating and balanced protocol search
# ---------------------------------------------------------------------------

class Search:
    """Exhaustive search over all K^N labelled protocols, k-means
    alternation and balanced partitions."""

    name = "search"
    FULL = dict(n=12, k=3, km_n=2000, km_k=50)
    PROBE = dict(n=10, k=3)
    REPEAT, REPEAT_PROBE = 1, 2  # calls of each search per round

    def __init__(self, seed: int, workdir: Path, probe: bool = False):
        self.seed, self.probe = seed, probe
        self.size = self.PROBE if probe else self.FULL

    def setup(self) -> None:
        n = self.size["n"]
        rng = rng_for(self.seed, "search")
        self.reco_space = sg.InputSpace(rng.normal(size=(n, 1)),
                                        _weights(rng, n))
        self.disc_space = sg.InputSpace.uniform(rng.normal(size=(n, 1)))
        if not self.probe:
            self.km_space = sg.InputSpace.uniform(
                rng.normal(size=(self.size["km_n"], 2)))
            self.km_seed = int(rng.integers(2 ** 31))

    def prepare(self) -> None:
        n, k = self.size["n"], self.size["k"]
        self.reco_best, blocks = ref.reconstruction_optimum_1d(
            self.reco_space.points, self.reco_space.weights, k)
        self.reco_count = ref.labelled_copies(k, blocks)
        self.disc_best = ref.discrimination_optimum(n, k, 2)
        self.disc_count, _ = ref.discrimination_optimum_counts(n, k)

    def ops(self) -> list[Op]:
        k = self.size["k"]
        rep = self.REPEAT_PROBE if self.probe else self.REPEAT
        ops = [
            Op("search_reco", lambda: optimize.exhaustive_search(
                self.reco_space, k, sg.GameSpec("reconstruction")),
               self.check_reco, repeat=rep),
            Op("search_disc", lambda: optimize.exhaustive_search(
                self.disc_space, k, sg.GameSpec("discrimination", d=2)),
               self.check_disc, repeat=rep),
        ]
        if not self.probe:
            km_k = self.size["km_k"]
            ops += [
                Op("kmeans", lambda: optimize.kmeans_alternation(
                    self.km_space, km_k, seed=self.km_seed,
                    max_iters=25),
                   self.check_kmeans),
                Op("balanced", lambda: optimize.balanced_partition(
                    self.km_space, km_k), self.check_balanced),
            ]
        return ops

    def check_reco(self, c: Checker, result) -> None:
        c.close("reconstruction search optimum vs interval DP", result.value,
                self.reco_best, EXACT_TOL, relative=True)
        c.equal("reconstruction search optimum count", len(result.protocols),
                self.reco_count)
        a = np.asarray(result.protocols[0].assignment)
        c.close("reconstruction loss of a returned optimum",
                ref.reconstruction_loss(a, self.reco_space.points,
                                        self.reco_space.weights,
                                        self.size["k"]),
                self.reco_best, EXACT_TOL, relative=True)

    def check_disc(self, c: Checker, result) -> None:
        n, k = self.size["n"], self.size["k"]
        c.close("discrimination search optimum vs balanced split",
                result.value, self.disc_best)
        c.equal("discrimination search optimum count",
                len(result.protocols), self.disc_count)
        sizes = sorted(np.bincount(result.protocols[-1].assignment,
                                   minlength=k).tolist())
        c.equal("block sizes of a returned optimum", sizes,
                sorted(ref.balanced_sizes(n, k)))

    def check_kmeans(self, c: Checker, result) -> None:
        trace = result.trace
        c.true("k-means trace is non-increasing", all(
            b <= a + 1e-12 * abs(a) for a, b in zip(trace, trace[1:])))
        c.close("k-means final objective vs its protocol's loss", trace[-1],
                ref.reconstruction_loss(
                    np.asarray(result.protocol.assignment),
                    self.km_space.points, self.km_space.weights,
                    self.size["km_k"]), REPORT_RTOL, relative=True)

    def check_balanced(self, c: Checker, protocol) -> None:
        n, k = self.size["km_n"], self.size["km_k"]
        c.equal("balanced partition class sizes",
                sorted(np.bincount(protocol.assignment, minlength=k).tolist()),
                sorted(ref.balanced_sizes(n, k)))

    def headline(self, rounds) -> dict[str, float]:
        total = 2 * self.size["k"] ** self.size["n"]
        return {"protocols_per_s": total / typical(
            rounds, "search_reco", "search_disc")}


# ---------------------------------------------------------------------------
# cli: the command-line front end on files
# ---------------------------------------------------------------------------

# length-2 messages whose symbols come from one of two vocabulary groups
_GROUPS = ((0, 1, 2), (3, 4, 5))
_ATOMS = [(a, b) for g in _GROUPS for a in g for b in g]


class Cli:
    """``signalgames`` subcommands called in-process on files written
    during setup, plus six malformed-input probes."""

    name = "cli"
    FULL = dict(n=1000, nd_n=25, nd_k=4, opt_n=10, pairs=4)
    PROBE = dict(n=300, nd_n=20, nd_k=4, opt_n=9, pairs=4)
    # calls per round, so that every headline operation gets enough timed
    # calls; verify --def 5 varies most from call to call
    REPEAT = dict(analyze=1, verify_def5=2, optimize=2, thm5=2)
    REPEAT_PROBE = dict(analyze=2, verify_def5=1, optimize=4, thm5=1)

    def __init__(self, seed: int, workdir: Path, probe: bool = False):
        self.seed, self.probe = seed, probe
        self.size = self.PROBE if probe else self.FULL
        self.dir = Path(workdir) / ("cli-probe" if probe else "cli")
        self.first: dict = {}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def setup(self) -> None:
        s = self.size
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = rng_for(self.seed, "cli-analyze")
        n = s["n"]
        self.space = sg.InputSpace.uniform(rng.normal(size=(n, 2)))
        self.shape = _uniform_labels(rng, n, 4, "s")
        self.color = [f"c{v}" for v in rng.integers(0, 3, size=n)]
        # messages follow position (group by the sign of x, symbols by
        # tertiles of y and x within it), with a tenth of inputs reassigned
        pts = self.space.points
        group = (pts[:, 0] > 0).astype(int)
        self.assignment = group * 9 + _tertile(pts[:, 1]) * 3 \
            + _tertile(pts[:, 0])
        noise = rng.random(n) < 0.1
        self.assignment[noise] = rng.integers(0, len(_ATOMS), size=noise.sum())
        io.save_input_space(self.path("space.csv"), self.space,
                            [sg.LabelMap(self.shape, "shape")])
        with open(self.path("color.csv"), "w") as fh:
            fh.write("id,color\n" + "".join(
                f"{i},{c}\n" for i, c in enumerate(self.color)))
        messages = sg.MessageSpace.symbol_sequences(_ATOMS, vocab_size=6,
                                                    length=2)
        io.save_protocol(self.path("protocol.csv"),
                         sg.Protocol(self.assignment, len(_ATOMS)), messages)

        # dense d=2 receiver table: normalized positive scores
        rng = rng_for(self.seed, "cli-receiver")
        nd_n, nd_k = s["nd_n"], s["nd_k"]
        self.nd_space = sg.InputSpace(rng.normal(size=(nd_n, 2)),
                                      _weights(rng, nd_n))
        io.save_input_space(self.path("receiver-space.csv"), self.nd_space)
        self.scores = rng.random((nd_k, nd_n)) + 0.05
        self.rows = ref.score_table_rows(self.scores)
        with open(self.path("receiver.json"), "w") as fh:
            json.dump({"kind": "discrimination", "d": 2, "num_messages": nd_k,
                       "rows": [{"message": m, "candidates": list(c),
                                 "probs": p} for m, c, p in self.rows]}, fh)

        rng = rng_for(self.seed, "cli-optimize")
        io.save_input_space(self.path("optimize-space.csv"),
                            sg.InputSpace.uniform(
                                rng.normal(size=(s["opt_n"], 1))))
        if not self.probe:
            self._setup_full(rng)

    def _setup_full(self, rng) -> None:
        # antipodal split: +-a pairs, largest magnitude first, so pairing
        # each point with its farthest unmatched partner joins +a and -a
        mags = np.sort(rng.uniform(0.5, 3.0, size=self.size["pairs"]))[::-1]
        points = np.ravel(np.column_stack([mags, -mags]))
        io.save_input_space(self.path("antipodal.csv"),
                            sg.InputSpace.uniform(points[:, None]))
        # fixed inputs for the malformed probes, independent of the seed
        bad = self.dir / "malformed"
        bad.mkdir(exist_ok=True)
        (bad / "empty.csv").write_text("")
        io.save_input_space(bad / "space.csv",
                            sg.InputSpace.uniform(np.arange(6.0)[:, None]))
        (bad / "protocol.csv").write_text(
            "id,message\n" + "".join(f"{i},{i % 2}\n" for i in range(6)))
        (bad / "norows.json").write_text(
            '{"kind": "discrimination", "d": 2, "num_messages": 2}')
        (bad / "short-labels.csv").write_text("id,color\n0,a\n1,b\n2,a\n")

    def prepare(self) -> None:
        s = self.size
        a, pts = self.assignment, self.space.points
        w = self.space.weights
        k = len(_ATOMS)
        codes, v = _codes(self.shape)
        merged = np.array([0 if _ATOMS[m][0] in _GROUPS[0] else 1 for m in a])
        self.analyze_ref = {
            "unique_messages": ref.unique_messages(a),
            "message_variance": ref.message_variance(a, pts),
            "cluster_variance": ref.message_variance(merged, pts),
            "purity": ref.purity(a, codes, w, k, v),
            "topsim": ref.topsim(a, pts, np.asarray(_ATOMS)),
        }
        p = ref.masses(a, w, k)
        self.accuracy = ref.accuracy(p, 41)
        self.accuracy_se = ref.accuracy_se(a, w, k, 41, 1)

        used = np.unique(a)
        atoms = np.asarray(_ATOMS)
        dist = (atoms[:, None, :] != atoms[None, :, :]).sum(axis=2)
        realized = np.unique(dist[np.ix_(used, used)])
        realized = realized[realized > 0]
        self.thresholds = [0.0] + [float(e) for e in realized
                                   if e <= realized[0]]
        self.conditionals = ref.proximity_conditionals(
            a, pts, w, dist.astype(float), self.thresholds)
        centred = pts - w @ pts
        self.unconditional = 2.0 * float(w @ np.einsum("ij,ij->i", centred,
                                                       centred))

        nd_pts, nd_w = self.nd_space.points, self.nd_space.weights
        self.k_simplicity = ref.simplicity_constant(1.0, nd_pts, nd_w)
        self.worst_ratio = ref.lipschitz_ratio(
            [m for m, _, _ in self.rows], [c for _, c, _ in self.rows],
            [q for _, _, q in self.rows], nd_pts,
            ref.decimal_hamming(s["nd_k"]))
        self.nd_sup = ref.score_sup_loss(self.scores, nd_w)
        self.opt_best = ref.discrimination_optimum(s["opt_n"], 3, 2)
        self.opt_counts = ref.discrimination_optimum_counts(s["opt_n"], 3)

    # -- operations -------------------------------------------------------

    def call(self, *argv: str) -> CliOutcome:
        return run_cli(cli.main, [*argv, "--seed", str(self.seed)])

    def ops(self) -> list[Op]:
        p = self.path
        rep = self.REPEAT_PROBE if self.probe else self.REPEAT
        out = lambda name: ("--out", p(f"out-{name}"))  # noqa: E731
        ops = [
            Op("analyze", lambda: self.call(
                "analyze", "--input", p("space.csv"), "--protocol",
                p("protocol.csv"), "--labels", p("color.csv"), "--vocab",
                "6", "--symbol-groups", "0,1,2;3,4,5", *out("analyze")),
               self.check_analyze, repeat=rep["analyze"]),
        ]
        if not self.probe:
            ops.append(Op("verify_def4", lambda: self.call(
                "verify", "--def", "4", "--input", p("space.csv"),
                "--protocol", p("protocol.csv"), "--vocab", "6"),
                self.check_def4))
        ops.append(Op("verify_def5", lambda: self.call(
            "verify", "--def", "5", "--input", p("receiver-space.csv"),
            "--receiver", p("receiver.json")), self.check_def5,
            repeat=rep["verify_def5"]))
        if not self.probe:
            ops.append(Op("verify_def6", lambda: self.call(
                "verify", "--def", "6", "--game", "discrimination", "--d",
                "2", "--input", p("receiver-space.csv"), "--receiver",
                p("receiver.json")), self.check_def6))
        ops += [
            Op("optimize", lambda: self.call(
                "optimize", "--game", "discrimination", "--d", "2", "--k",
                "3", "--method", "exhaustive", "--input",
                p("optimize-space.csv"), *out("optimize")),
               self.check_optimize, repeat=rep["optimize"]),
            Op("thm5", lambda: self.call(
                "counterexample", "--which", "thm5", *out("thm5")),
               self.check_thm5, repeat=rep["thm5"]),
        ]
        if self.probe:
            return ops
        ops.append(Op("thm2", lambda: self.call(
            "counterexample", "--which", "thm2", "--input",
            p("antipodal.csv"), "--k", str(self.size["pairs"]),
            *out("thm2")), self.check_thm2))
        bad = lambda name: p(f"malformed/{name}")  # noqa: E731
        probes = {
            "empty_csv": ("analyze", "--input", bad("empty.csv"),
                          "--protocol", bad("protocol.csv")),
            "receiver_without_rows": ("verify", "--def", "5", "--input",
                                      bad("space.csv"), "--receiver",
                                      bad("norows.json")),
            "missing_labels": ("analyze", "--input", bad("space.csv"),
                               "--protocol", bad("protocol.csv"),
                               "--labels", bad("missing.csv")),
            "def3_without_protocol": ("verify", "--def", "3", "--input",
                                      bad("space.csv")),
            "optimize_k0": ("optimize", "--k", "0", "--method", "exhaustive",
                            "--input", bad("space.csv")),
            "short_labels": ("analyze", "--input", bad("space.csv"),
                             "--protocol", bad("protocol.csv"), "--labels",
                             bad("short-labels.csv")),
        }
        for name, argv in probes.items():
            ops.append(Op(f"malformed.{name}", lambda argv=argv: self.call(
                *argv, *out("malformed")), malformed=True))
        return ops

    # -- checks -------------------------------------------------------------

    def report(self, c: Checker, name: str, outcome: CliOutcome,
               code: int = 0) -> dict:
        """Exit code, stdout identical to the first call's, parsed JSON."""
        c.equal(f"{name} exit code", outcome.code, code)
        c.repeats(self.first, f"{name} stdout", outcome.stdout)
        try:
            return json.loads(outcome.stdout)
        except json.JSONDecodeError:
            c.true(f"{name} prints a JSON report", False)
            return {}

    def check_analyze(self, c: Checker, outcome: CliOutcome) -> None:
        rep = self.report(c, "analyze", outcome)
        bad = sorted(k for k, v in rep.items()
                     if isinstance(v, dict) and "error" in v or v == "undefined")
        c.equal("analyze entries that are errors", bad, [])
        c.equal("analyze unique_messages", rep.get("unique_messages"),
                self.analyze_ref["unique_messages"])
        for key in ("message_variance", "cluster_variance", "purity",
                    "topsim"):
            c.close(f"analyze {key}", rep.get(key), self.analyze_ref[key],
                    REPORT_RTOL, relative=True)
        c.within_se("analyze disc_accuracy vs synchronized closed form",
                    rep.get("disc_accuracy"), self.accuracy, self.accuracy_se)

    def check_def4(self, c: Checker, outcome: CliOutcome) -> None:
        rep = self.report(c, "verify --def 4", outcome)
        checks = rep.get("witnesses", [])
        c.equal("verify --def 4 thresholds",
                [t.get("epsilon") for t in checks], self.thresholds)
        for t, want in zip(checks, self.conditionals):
            c.close(f"verify --def 4 conditional at {t.get('epsilon')}",
                    t.get("conditional"), want, REPORT_RTOL, relative=True)
            c.close("verify --def 4 unconditional", t.get("unconditional"),
                    self.unconditional, REPORT_RTOL, relative=True)
        c.equal("verify --def 4 verdict", rep.get("verdict"),
                all(x < self.unconditional for x in self.conditionals))

    def check_def5(self, c: Checker, outcome: CliOutcome) -> None:
        rep = self.report(c, "verify --def 5", outcome)
        worst = rep.get("witnesses", {}).get("worst_ratio")
        c.close("verify --def 5 worst ratio vs row-blocked ratio", worst,
                self.worst_ratio, REPORT_RTOL, relative=True)
        c.close("verify --def 5 constant k", rep.get("margins", {}).get("k"),
                self.k_simplicity, REPORT_RTOL, relative=True)
        c.equal("verify --def 5 verdict", rep.get("verdict"),
                self.worst_ratio <= self.k_simplicity)

    def check_def6(self, c: Checker, outcome: CliOutcome) -> None:
        rep = self.report(c, "verify --def 6", outcome)
        wit = rep.get("witnesses", {})
        c.close("verify --def 6 sup loss", wit.get("sup_loss"), self.nd_sup,
                REPORT_RTOL, relative=True)
        c.close("verify --def 6 constant loss", wit.get("constant_loss"),
                math.log(2.0), REPORT_RTOL, relative=True)
        c.equal("verify --def 6 verdict", rep.get("verdict"),
                self.nd_sup <= 0.25 * math.log(2.0))

    def check_optimize(self, c: Checker, outcome: CliOutcome) -> None:
        rep = self.report(c, "optimize", outcome)
        c.close("optimize objective", rep.get("objective"), self.opt_best,
                REPORT_RTOL, relative=True)
        c.equal("optimize num_optimal", rep.get("num_optimal"),
                self.opt_counts[0])
        c.equal("optimize num_optimal_up_to_relabeling",
                rep.get("num_optimal_up_to_relabeling"), self.opt_counts[1])

    def check_thm5(self, c: Checker, outcome: CliOutcome) -> None:
        rep = self.report(c, "counterexample thm5", outcome)
        c.equal("thm5 passed", rep.get("passed"), True)
        loss = [s.get("expected_loss") for s in rep.get("steps", [])
                if s.get("step") == "synchronized-loss"]
        c.close("thm5 expected loss", loss[0] if loss else None,
                math.log(2.0) / 6.0, REPORT_RTOL, relative=True)

    def check_thm2(self, c: Checker, outcome: CliOutcome) -> None:
        rep = self.report(c, "counterexample thm2", outcome)
        c.equal("thm2 passed", rep.get("passed"), True)
        c.close("thm2 exhaustive minimum", rep.get("exhaustive_minimum"),
                math.log(2.0) / self.size["pairs"], REPORT_RTOL, relative=True)

    def headline(self, rounds) -> dict[str, float]:
        return {
            "analyze_s": typical(rounds, "analyze"),
            "verify_simplicity_s": typical(rounds, "verify_def5"),
            "optimize_s": typical(rounds, "optimize"),
            "counterexample_s": typical(rounds, "thm5"),
        }


WORKLOADS = {w.name: w for w in (Oracle, Search, Cli)}
