"""Command-line front end: ingestion, subcommand dispatch, report emission.

Subcommands: ``analyze``, ``metrics``, ``verify``, ``optimize``,
``counterexample``. All randomness flows from the single ``--seed`` through
named substreams, reports carry the seed and a schema version, and float
formatting is fixed, so identical configurations produce byte-identical
files. Exit codes: 0 success (metric-level precondition failures become
per-metric error entries), 2 parse errors, 3 budget overflows.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import consistency, counterexamples, games, io, metrics as met, \
    objectives, optimize
from .core import GameSpec, InputSpace, LabelMap, MessageSpace, Protocol
from .errors import BudgetExceededError, MetricUndefinedError, ParseError, \
    SignalGamesError

log = logging.getLogger("signalgames")

SCHEMA_VERSION = 1

# games whose closed-form objective is a log-scale (nats) quantity; the
# reconstruction objective is a variance and the supervised one a pure
# probability expression, so unit conversion must not touch them
NATS_OBJECTIVE_GAMES = ("discrimination", "global", "classification")

CSV_COLUMNS = [
    "unique_messages", "disc_accuracy", "topsim", "message_variance",
    "baseline_mean", "baseline_std", "purity", "max_purity", "posdis",
    "bosdis", "sposdis", "cluster_variance",
]


@dataclass
class RunConfig:
    seed: int = 0
    out: Path | None = None
    fmt: str = "json"
    log_base: str = "nats"
    metric_names: list[str] = field(default_factory=list)
    d: int = 41
    trials: int = 1
    accuracy_receiver: str = "synchronized"
    baseline_repeats: int = 100
    symbol_groups: list[list[int]] | None = None


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory for report files")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json")
    parser.add_argument("--log-base", choices=("nats", "bits"),
                        default="nats")
    parser.add_argument("--log-level", default="warning")


def _data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", type=Path, required=True,
                        help="input-space CSV/JSON file")
    parser.add_argument("--protocol", type=Path, help="protocol CSV/JSON file")
    parser.add_argument("--labels", type=Path,
                        help="label CSV file (header id,<attr>,...)")
    parser.add_argument("--vocab", type=int, default=None,
                        help="vocabulary size override for protocol files")


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


_positive_int = _at_least(1)
_candidate_count = _at_least(2)


def _floats(text: str) -> list[float]:
    """An argparse type: numbers separated by commas or semicolons."""
    return [float(v) for v in text.replace(";", ",").split(",")]


def _parse_symbol_groups(text: str) -> list[list[int]]:
    """An argparse type: a vocabulary partition such as '0,1;2,3'."""
    return [[int(s) for s in part.split(",") if s != ""]
            for part in text.split(";")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signalgames",
        description="Analyze, optimize and verify finite signaling-game "
                    "communication protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full metric report "
                               "(JSON plus a table-style CSV row)")
    p_metrics = sub.add_parser("metrics", help="flat metrics JSON")
    for p in (p_analyze, p_metrics):
        _common_flags(p)
        _data_flags(p)
        p.add_argument("--metrics", dest="metric_names", default="",
                       help="comma-separated metric subset (default: all)")
        p.add_argument("--d", type=int, default=41,
                       help="candidate count for discrimination accuracy")
        p.add_argument("--trials", type=_positive_int, default=1)
        p.add_argument("--accuracy-receiver",
                       choices=("synchronized", "reconstruction-nearest"),
                       default="synchronized")
        p.add_argument("--baseline-repeats", type=int, default=100)
        p.add_argument("--symbol-groups", type=_parse_symbol_groups,
                       default=None,
                       help="vocabulary partition, e.g. '0,1;2,3;4,5'")

    p_verify = sub.add_parser("verify", help="definition, lemma and "
                              "enumeration verdicts")
    _common_flags(p_verify)
    p_verify.add_argument("--samples", type=_positive_int, default=200_000,
                          help="Monte-Carlo samples for --lemma 2 at d > 2")
    p_verify.add_argument("--input", type=Path)
    p_verify.add_argument("--protocol", type=Path)
    p_verify.add_argument("--labels", type=Path)
    p_verify.add_argument("--vocab", type=int, default=None)
    p_verify.add_argument("--def", dest="definition",
                          choices=("3", "4", "5", "6"))
    p_verify.add_argument("--lemma", choices=("1", "2", "a1", "a2", "a3"))
    p_verify.add_argument("--corollary", choices=("1",))
    p_verify.add_argument("--d", type=_candidate_count, default=2)
    p_verify.add_argument("--eps0", type=float, default=None)
    p_verify.add_argument("--receiver", type=Path,
                          help="receiver JSON (defs 5 and 6)")
    p_verify.add_argument("--game", choices=("reconstruction",
                                             "discrimination"),
                          default="reconstruction")
    p_verify.add_argument("--instances", type=_positive_int, default=200,
                          help="random instances for lemma checks")
    p_verify.add_argument("--n", type=_positive_int, default=6)
    p_verify.add_argument("--k", type=_positive_int, default=3)
    p_verify.add_argument("--expect", choices=("pass", "fail"), default=None)

    p_opt = sub.add_parser("optimize", help="protocol search")
    _common_flags(p_opt)
    _data_flags(p_opt)
    p_opt.add_argument("--game", choices=("reconstruction", "discrimination",
                                          "global", "supervised",
                                          "classification"),
                       default="reconstruction")
    p_opt.add_argument("--method", choices=("exhaustive", "kmeans",
                                            "balanced"), default="exhaustive")
    p_opt.add_argument("--k", type=_positive_int, required=True,
                       help="number of messages")
    p_opt.add_argument("--d", type=_candidate_count, default=2)
    p_opt.add_argument("--init", type=_floats, default=None,
                       help="explicit centroids, e.g. '0.4,2.6' or "
                            "'0,1;2,3' (K points of the input dimension)")
    p_opt.add_argument("--flavor", choices=("greedy-uniform",
                                            "adversarial-antipodal"),
                       default="greedy-uniform")
    p_opt.add_argument("--max-iters", type=_positive_int, default=100)
    p_opt.add_argument("--tol", type=float, default=0.0)
    p_opt.add_argument("--budget", type=int,
                       default=optimize.ENUMERATION_BUDGET)

    p_ctr = sub.add_parser("counterexample", help="construct and verify the "
                           "named adversarial instances")
    _common_flags(p_ctr)
    p_ctr.add_argument("--which", choices=("thm5", "thm2"), required=True,
                       help="thm5: the mirror-pairs discrimination instance; "
                            "thm2: the antipodal optimal split")
    p_ctr.add_argument("--input", type=Path, default=None,
                       help="input space for the antipodal split "
                            "(default: uniform {0,1,2,3})")
    p_ctr.add_argument("--k", type=_positive_int, default=None)
    return parser


# ---------------------------------------------------------------------------
# Shared ingestion helpers
# ---------------------------------------------------------------------------

def _load_data(args) -> tuple[InputSpace, Protocol | None,
                              MessageSpace | None, list[LabelMap]]:
    space, labels = io.load_input_space(args.input)
    protocol, message_space = None, None
    if getattr(args, "protocol", None):
        protocol, message_space = io.load_protocol(
            args.protocol, vocab_size=getattr(args, "vocab", None))
        if protocol.size != space.size:
            raise ParseError("protocol and input space cover different "
                             "numbers of inputs", str(args.protocol))
    if getattr(args, "labels", None):
        extra = io.load_labels(args.labels)
        if extra and extra[0].size != space.size:
            # the line where the first missing or surplus row sits
            raise ParseError(f"{extra[0].size} label rows for {space.size} "
                             "inputs", str(args.labels),
                             line=min(extra[0].size, space.size) + 2)
        labels = labels + extra
    return space, protocol, message_space, labels


def _to_log_base(report: dict, base: str) -> dict:
    """Rescale the report's declared nats-valued fields to the requested
    base. Reports list those field names under ``_nats_fields`` (consumed
    here); all other numbers keep their native units."""
    nats_fields = frozenset(report.pop("_nats_fields", ()))
    if base == "nats" or not nats_fields:
        return report
    ln2 = math.log(2.0)

    def walk(node, convert=False):
        if isinstance(node, dict):
            return {k: walk(v, convert=k in nats_fields)
                    for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v, convert=convert) for v in node]
        if convert and isinstance(node, (int, float)) and math.isfinite(node):
            return float(node) / ln2
        return node

    return walk(report)


# ---------------------------------------------------------------------------
# Metric computation
# ---------------------------------------------------------------------------

def compute_metrics(space: InputSpace, protocol: Protocol,
                    message_space: MessageSpace, labels: list[LabelMap],
                    cfg: RunConfig) -> dict:
    """Flat metric report; precondition failures become per-metric error
    entries instead of aborting the run."""
    wanted = cfg.metric_names or [
        "unique_messages", "message_variance", "baseline_mean",
        "baseline_std", "purity", "max_purity", "topsim", "posdis", "bosdis",
        "sposdis", "cluster_variance", "disc_accuracy"]
    report: dict = {}

    def attempt(name, fn):
        if name not in wanted:
            return
        try:
            report[name] = fn()
        except MetricUndefinedError:
            report[name] = "undefined"
        except (ValueError, BudgetExceededError) as exc:
            report[name] = {"error": str(exc)}

    attempt("unique_messages", lambda: met.unique_messages(protocol))
    attempt("message_variance", lambda: met.message_variance(protocol, space))

    if "baseline_mean" in wanted or "baseline_std" in wanted:
        try:
            mean, std = met.random_baseline(
                protocol, space, met.message_variance,
                repeats=cfg.baseline_repeats, seed=cfg.seed)
            report["baseline_mean"], report["baseline_std"] = mean, std
        except (ValueError, BudgetExceededError) as exc:
            report["baseline_mean"] = {"error": str(exc)}
            report["baseline_std"] = {"error": str(exc)}

    attempt("purity", lambda: _require_labels(labels, 1)
            and met.purity(protocol, space, labels[0]))
    attempt("max_purity", lambda: _require_labels(labels, 1)
            and met.max_purity(protocol, space, labels))
    attempt("topsim", lambda: met.topsim(protocol, space, message_space))
    for kind in ("posdis", "bosdis", "sposdis"):
        attempt(kind, lambda kind=kind: met.disentanglement(
            protocol, space, message_space, labels, kind=kind))
    attempt("cluster_variance", lambda: met.cluster_variance(
        protocol, space, message_space, _require_groups(cfg)))
    attempt("disc_accuracy", lambda: met.discrimination_accuracy(
        protocol, space, receiver_kind=cfg.accuracy_receiver, d=cfg.d,
        seed=cfg.seed, trials=cfg.trials))
    return report


def _require_labels(labels, n):
    if len(labels) < n:
        raise ValueError("no label attribute provided")
    return True


def _require_groups(cfg: RunConfig):
    if cfg.symbol_groups is None:
        raise ValueError("symbol groups not provided (--symbol-groups)")
    return cfg.symbol_groups


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args, flat_only: bool = False) -> int:
    cfg = RunConfig(seed=args.seed, out=args.out,
                    fmt=args.fmt, log_base=args.log_base,
                    metric_names=[s for s in args.metric_names.split(",")
                                  if s],
                    d=args.d, trials=args.trials,
                    accuracy_receiver=args.accuracy_receiver,
                    baseline_repeats=args.baseline_repeats,
                    symbol_groups=args.symbol_groups)
    space, protocol, message_space, labels = _load_data(args)
    if protocol is None:
        raise ParseError("analyze needs a --protocol file", "")
    report = {"schema": SCHEMA_VERSION, "seed": cfg.seed,
              "conventions": {"disentanglement_normalization":
                              "mean-over-units",
                              "message_variance_pairs":
                              "ordered-with-self"}}
    report.update(compute_metrics(space, protocol, message_space, labels,
                                  cfg))
    report = _to_log_base(report, cfg.log_base)
    if cfg.fmt == "csv":
        sys.stdout.write(_csv_row_text(report))
    else:
        sys.stdout.write(io.dumps_report(report))
    if cfg.out is not None:
        io.write_report(cfg.out / "report.json", report)
        if not flat_only:
            _write_csv_row(cfg.out / "report.csv", report)
    return 0


def _csv_row_text(report: dict) -> str:
    import csv as _csv
    import io as _io
    formatted = io.format_floats(report)
    buf = _io.StringIO()
    writer = _csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerow([_csv_cell(formatted.get(c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def _write_csv_row(path: Path, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_csv_row_text(report))


def _csv_cell(value):
    if isinstance(value, dict):
        return "error"
    if value is None:
        return ""
    return value


def cmd_metrics(args) -> int:
    return cmd_analyze(args, flat_only=True)


def cmd_optimize(args) -> int:
    space, _, _, labels = _load_data(args)
    label = labels[0] if labels else None
    spec_kwargs = {"kind": args.game, "d": args.d, "seed": args.seed}
    if args.game in ("supervised", "classification"):
        if label is None:
            raise ParseError(f"{args.game} optimization needs labels", "")
        spec_kwargs["labels"] = label
    try:
        spec = GameSpec(**spec_kwargs)
    except ValueError as exc:  # e.g. more candidates than labels
        raise ParseError(str(exc), str(args.input))

    trace: list[float] = []
    if args.method == "exhaustive":
        result = optimize.exhaustive_search(space, args.k, spec,
                                            budget=args.budget)
        best = result.protocols[0]
        value = result.value
        extra = {
            "num_optimal": len(result.protocols),
            "num_optimal_up_to_relabeling": len(
                {optimize.canonical_assignment(p) for p in result.protocols}),
        }
    elif args.method == "kmeans":
        if spec.kind != "reconstruction":
            raise ParseError("kmeans optimizes the reconstruction game", "")
        init = "sample"
        if args.init is not None:
            if len(args.init) != args.k * space.dim:
                raise ParseError(f"--init gives {len(args.init)} values for "
                                 f"{args.k} centroids in {space.dim} "
                                 "dimensions")
            init = np.reshape(args.init, (args.k, space.dim))
        if args.k > space.size:
            raise ParseError(f"--k {args.k} centroids for {space.size} input "
                             "points", str(args.input))
        res = optimize.kmeans_alternation(space, args.k, init=init,
                                          seed=args.seed,
                                          max_iters=args.max_iters,
                                          tol=args.tol)
        best, value, trace = res.protocol, res.trace[-1], res.trace
        extra = {"rounds": res.rounds, "converged": res.converged}
    else:
        if args.flavor == "adversarial-antipodal":
            _check_antipodal(space, args.k, args.input)
        best = optimize.balanced_partition(space, args.k, flavor=args.flavor)
        value = float(optimize.batch_objective(best.assignment[None], space,
                                               spec)[0])
        extra = {"flavor": args.flavor}

    message_space = io.default_message_space(args.k)
    out = args.out or Path(".")
    io.save_protocol(out / "protocol.csv", best, message_space)
    _write_trace(out / "trace.csv", trace if trace else [value])
    report = {"schema": SCHEMA_VERSION, "seed": args.seed,
              "game": args.game, "method": args.method, "objective": value,
              "message_variance": met.message_variance(best, space), **extra}
    if args.game == "discrimination" and args.d == 2:
        # the constant-stripped single-distractor form, for argmin reading
        report["simplified_objective"] = \
            objectives.disc_objective_simplified(best, space)
    if args.game in NATS_OBJECTIVE_GAMES:
        report["_nats_fields"] = ["objective"]
    report = _to_log_base(report, args.log_base)
    io.write_report(out / "result.json", report)
    sys.stdout.write(io.dumps_report(report))
    return 0


def _write_trace(path: Path, trace: list[float]) -> None:
    import csv as _csv
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["step", "objective"])
        for i, v in enumerate(trace):
            writer.writerow([i, io.format_floats(float(v))])


def _check_antipodal(space: InputSpace, k: int, path: Path | None) -> None:
    if 2 * k != space.size or not space.is_uniform():
        raise ParseError("the antipodal split needs a uniform prior on "
                         f"exactly 2K points; --k {k} on {space.size} "
                         "points", str(path or ""))


def cmd_counterexample(args) -> int:
    out = args.out or Path(".")
    if args.which == "thm5":
        inst = counterexamples.build_mirror_pairs_instance()
        report = counterexamples.verify_mirror_pairs()
        io.save_input_space(out / "space.csv", inst.space)
        io.save_protocol(out / "protocol.csv", inst.protocol,
                         io.default_message_space(6))
        io.write_report(out / "receiver.json",
                        io.receiver_to_json(inst.receiver))
    else:
        if args.input is not None:
            space, _ = io.load_input_space(args.input)
        else:
            space = InputSpace.uniform(np.arange(4.0)[:, None])
        k = args.k if args.k is not None else space.size // 2
        _check_antipodal(space, k, args.input)
        report = counterexamples.verify_antipodal_split(space, k)
        protocol = Protocol(np.asarray(report["assignment"]), k)
        io.save_input_space(out / "space.csv", space)
        io.save_protocol(out / "protocol.csv", protocol,
                         io.default_message_space(k))
    report = {"schema": SCHEMA_VERSION, "seed": args.seed, **report}
    if args.which == "thm5":
        report["_nats_fields"] = ["expected_loss", "target", "sup_loss",
                                  "constant_loss", "objective",
                                  "uniform_bound"]
    else:
        report["_nats_fields"] = ["exhaustive_minimum"]
    report = _to_log_base(report, args.log_base)
    io.write_report(out / "verdict.json", report)
    sys.stdout.write(io.dumps_report(report))
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Verify
# ---------------------------------------------------------------------------

def _random_instance(rng, n_max=8, dim_max=3, k_max=4, labeled=False):
    dim = int(rng.integers(1, dim_max + 1))
    labels = None
    if labeled:
        # the supervised closed form assumes balanced label mass
        half = int(rng.integers(1, n_max // 2 + 1))
        n = 2 * half
        space = InputSpace.uniform(rng.normal(size=(n, dim)))
        labels = LabelMap(["a"] * half + ["b"] * half)
    else:
        n = int(rng.integers(2, n_max + 1))
        w = rng.random(n) + 0.1
        space = InputSpace(rng.normal(size=(n, dim)), w / w.sum())
    k = int(rng.integers(1, k_max + 1))
    protocol = Protocol(rng.integers(0, k, size=space.size), k)
    return space, protocol, labels


def _verify_lemma(args) -> dict:
    rng = games.substream(args.seed, "verify-lemma", str(args.lemma))
    gaps = []
    tol = 1e-10
    for _ in range(args.instances):
        if args.lemma == "1":
            space, protocol, _ = _random_instance(rng)
            recv = games.synchronized_receiver(protocol, space,
                                               GameSpec("reconstruction"))
            exact = games.eval_reconstruction(protocol, recv, space).expected
            gaps.append(abs(exact - objectives.reco_objective(protocol,
                                                              space)))
        elif args.lemma == "2":
            space, protocol, _ = _random_instance(rng)
            spec = GameSpec("discrimination", d=args.d)
            recv = games.synchronized_receiver(protocol, space, spec)
            closed = objectives.disc_objective(protocol, space, args.d)
            if args.d == 2:
                exact = games.eval_discrimination(protocol, recv, space, 2,
                                                  mode="exact").expected
                gaps.append(abs(exact - closed))
            else:
                rep = games.eval_discrimination(
                    protocol, recv, space, args.d, mode="mc",
                    samples=args.samples, seed=args.seed)
                se = rep.std_error or 0.0
                tol = None
                gaps.append(abs(rep.expected - closed) / max(4 * se, 1e-300))
        elif args.lemma == "a1":
            space, protocol, _ = _random_instance(rng)
            recv = games.synchronized_receiver(protocol, space,
                                               GameSpec("global"))
            exact = games.eval_global(protocol, recv, space).expected
            h_x = objectives.entropy(space.weights)
            closed = objectives.global_objective(protocol, space) + h_x
            gaps.append(abs(exact - closed))
        elif args.lemma in ("a2", "a3"):
            space, protocol, labels = _random_instance(rng, labeled=True)
            if args.lemma == "a2":
                spec = GameSpec("supervised", d=2, labels=labels)
                recv = games.synchronized_receiver(protocol, space, spec)
                exact = games.eval_supervised(protocol, recv, space,
                                              labels).expected
                obj = objectives.supervised_objective(protocol, space,
                                                      labels).value
                scale = math.log(2.0) * labels.num_values \
                    / (labels.num_values - 1)
                gaps.append(abs(exact - scale * obj))
            else:
                spec = GameSpec("classification", labels=labels)
                recv = games.synchronized_receiver(protocol, space, spec)
                exact = games.eval_classification(protocol, recv, space,
                                                  labels,
                                                  mode="exact").expected
                closed = objectives.classification_objective(
                    protocol, space, labels) + objectives.entropy(
                        objectives.joint_message_label(
                            protocol, space, labels).sum(axis=0))
                gaps.append(abs(exact - closed))
    max_gap = float(max(gaps))
    if tol is None:  # Monte-Carlo: gaps are in units of 4 standard errors
        return {"check": f"lemma-{args.lemma}", "d": args.d,
                "max_gap_in_4se_units": max_gap, "verdict": max_gap <= 1.0,
                "instances": args.instances}
    report = {"check": f"lemma-{args.lemma}", "d": args.d,
              "max_gap": max_gap, "tolerance": tol, "verdict": max_gap < tol,
              "instances": args.instances}
    if args.lemma != "1":  # reconstruction gaps are squared distances
        report["_nats_fields"] = ["max_gap", "tolerance"]
    return report


def _verify_definition(args) -> dict:
    needs = ("input", "protocol") if args.definition in ("3", "4") \
        else ("input", "receiver")
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ParseError(f"verify --def {args.definition} needs "
                         f"{' and '.join(missing)}", "")
    if args.definition in ("3", "4"):
        space, labels = io.load_input_space(args.input)
        protocol, message_space = io.load_protocol(args.protocol,
                                                   vocab_size=args.vocab)
        if args.definition == "3":
            res = consistency.semantic_consistency(protocol, space)
            return {"definition": "semantic-consistency",
                    "verdict": res.consistent,
                    "witnesses": {"explained": res.explained_variance,
                                  "unexplained": res.unexplained_variance},
                    "margins": {"gap": res.explained_variance,
                                "boundary": res.boundary}}
        res = consistency.spatial_meaningfulness(protocol, space,
                                                 message_space,
                                                 eps0=args.eps0)
        return {"definition": "spatial-meaningfulness",
                "verdict": res.meaningful,
                "witnesses": [t._asdict() for t in res.thresholds],
                "margins": {"min_gap": min(
                    (t.unconditional - t.conditional
                     for t in res.thresholds if not t.vacuous),
                    default=math.nan)}}
    space, _ = io.load_input_space(args.input)
    receiver = _load_receiver(args, space)
    if args.definition == "5":
        if args.protocol:
            _, message_space = io.load_protocol(args.protocol,
                                                vocab_size=args.vocab)
        else:
            message_space = io.default_message_space(receiver.num_messages)
        if receiver.num_messages > message_space.size:
            raise ParseError(f"{receiver.num_messages} receiver messages for "
                             f"{message_space.size} in the message space",
                             str(args.receiver))
        eps0 = args.eps0 if args.eps0 is not None \
            else message_space.epsilon_min()
        res = consistency.receiver_simplicity(receiver, eps0, space,
                                              message_space)
        return {"definition": "receiver-simplicity", "verdict": res.simple,
                "witnesses": {"worst_ratio": res.worst_ratio,
                              "output_mode": res.output_mode,
                              "diagnostic": res.diagnostic},
                "margins": {"k": res.k, "slack": res.k - res.worst_ratio}}
    spec = GameSpec(args.game, d=args.d)
    res = consistency.non_degeneracy(receiver, space, spec)
    report = {"definition": "non-degeneracy",
              "verdict": res.non_degenerate,
              "witnesses": {"sup_loss": res.sup_loss,
                            "constant_loss": res.constant_loss},
              "margins": {"slack": 0.25 * res.constant_loss - res.sup_loss}}
    if args.game == "discrimination":  # reconstruction losses are variances
        report["_nats_fields"] = ["sup_loss", "constant_loss", "slack"]
    return report


def _load_receiver(args, space: InputSpace):
    """The ``--receiver`` file, checked against the input space and against
    the receivers ``--def 5`` or ``--def 6 --game G --d D`` evaluates."""
    receiver = io.load_receiver(args.receiver)
    points = isinstance(receiver, games.ReconstructionReceiver)
    table = isinstance(receiver, games.TabularDiscriminationReceiver)
    if args.definition == "5":
        fits = points or table
    elif args.game == "reconstruction":
        fits = points
    else:  # discrimination receivers, and only those, have candidates
        fits = getattr(receiver, "num_candidates", None) == args.d
    if points:
        fits = fits and receiver.points.shape[1] == space.dim
    if table:
        fits = fits and all(max(c) < space.size for _, c in receiver.table)
    if not fits:
        use = "" if args.definition == "5" \
            else f" --game {args.game} --d {args.d}"
        raise ParseError(f"a {type(receiver).__name__} does not fit verify "
                         f"--def {args.definition}{use} on {space.size} "
                         f"inputs in {space.dim} dimensions",
                         str(args.receiver))
    return receiver


def _verify_corollary(args) -> dict:
    space = InputSpace.uniform(np.arange(float(args.n))[:, None])
    spec = GameSpec("discrimination", d=args.d)
    result = optimize.exhaustive_search(space, args.k, spec)
    uniform_ok = True
    target = 1.0 / args.k
    if args.n % args.k == 0:
        equal_mass = np.array(list(met._distinct_shuffles(
            np.repeat(np.arange(args.k), args.n // args.k),
            optimize.ENUMERATION_BUDGET)))
        values = optimize.batch_objective(equal_mass, space, spec)
        uniform_ok = bool(np.all(np.abs(values - result.value) <= 1e-12))
    convex = objectives.convexity_check(args.d)
    minimizers = np.array([p.assignment for p in result.protocols])
    masses_uniform_at_min = bool(np.allclose(
        (minimizers[:, :, None] == np.arange(args.k)).sum(axis=1),
        args.n / args.k))
    return {"check": "corollary-1", "n": args.n, "k": args.k, "d": args.d,
            "verdict": uniform_ok and convex,
            "_nats_fields": ["exhaustive_minimum"],
            "witnesses": {"exhaustive_minimum": result.value,
                          "uniform_mass": target,
                          "num_optimal": len(result.protocols),
                          "minimizers_all_equal_mass": masses_uniform_at_min,
                          "convexity": convex}}


def cmd_verify(args) -> int:
    if args.definition:
        report = _verify_definition(args)
    elif args.lemma:
        report = _verify_lemma(args)
    elif args.corollary:
        report = _verify_corollary(args)
    else:
        raise ParseError("verify needs one of --def, --lemma, --corollary",
                         "")
    report = {"schema": SCHEMA_VERSION, "seed": args.seed, **report}
    report = _to_log_base(report, args.log_base)
    sys.stdout.write(io.dumps_report(report))
    if args.out is not None:
        io.write_report(args.out / "verdict.json", report)
    if args.expect is not None:
        return 0 if report["verdict"] == (args.expect == "pass") else 1
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(),
                                      logging.WARNING))
    handlers = {
        "analyze": cmd_analyze,
        "metrics": cmd_metrics,
        "verify": cmd_verify,
        "optimize": cmd_optimize,
        "counterexample": cmd_counterexample,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SignalGamesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
