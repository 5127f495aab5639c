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
import math
import sys
from pathlib import Path

import numpy as np

from . import consistency, counterexamples, games, io, metrics as met, \
    objectives, optimize
from .core import GameSpec, InputSpace, LabelMap, MessageSpace, Protocol
from .errors import BudgetExceededError, EmptyClassError, \
    MetricUndefinedError, ParseError, SignalGamesError

SCHEMA_VERSION = 1

# games whose closed-form objective is a log-scale (nats) quantity; the
# reconstruction objective is a variance, so unit conversion must not
# touch it
NATS_OBJECTIVE_GAMES = ("discrimination", "global", "supervised",
                        "classification")

CSV_COLUMNS = [
    "unique_messages", "disc_accuracy", "topsim", "message_variance",
    "baseline_mean", "baseline_std", "purity", "max_purity", "posdis",
    "bosdis", "sposdis", "cluster_variance",
]


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory for report files")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json")
    parser.add_argument("--log-base", choices=("nats", "bits"),
                        default="nats")


def _data_flags(parser: argparse.ArgumentParser,
                input_required: bool = True) -> None:
    parser.add_argument("--input", type=Path, required=input_required,
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


def _positive_float(text: str) -> float:
    """An argparse type: a finite number above zero."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {value}")
    return value


def _floats(text: str) -> list[float]:
    """An argparse type: finite numbers split by commas or semicolons."""
    values = [float(v) for v in text.replace(";", ",").split(",")]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return values


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
        p.add_argument("--d", type=_candidate_count, default=41,
                       help="candidate count for discrimination accuracy")
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
    _data_flags(p_verify, input_required=False)
    p_verify.add_argument("--def", dest="definition",
                          choices=("3", "4", "5", "6"))
    p_verify.add_argument("--lemma", choices=("1", "2", "a1", "a2", "a3"))
    p_verify.add_argument("--corollary", choices=("1",))
    p_verify.add_argument("--d", type=_candidate_count, default=2)
    p_verify.add_argument("--eps0", type=_positive_float, default=None)
    p_verify.add_argument("--receiver", type=Path,
                          help="receiver JSON (defs 5 and 6)")
    p_verify.add_argument("--game", choices=("reconstruction",
                                             "discrimination"),
                          default="reconstruction")
    p_verify.add_argument("--instances", type=_positive_int, default=200,
                          help="random instances for lemma checks; the "
                               "term budget applies to each instance")
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


def _output_paths(args, *names: str) -> dict[str, Path]:
    """The path each output file of ``names`` is written to, in ``--out``
    (else the current directory), after checking that none of them is one
    of the run's input files, which writing it would overwrite. Commands
    write only to the paths this returns."""
    out = args.out or Path(".")
    inputs = [path for path in (
        getattr(args, flag, None)
        for flag in ("input", "protocol", "labels", "receiver"))
        if path is not None and path.exists()]
    paths = {name: out / name for name in names}
    for target in paths.values():
        if target.exists() and any(target.samefile(path) for path in inputs):
            raise ParseError("output would overwrite an input file; "
                             "choose another --out", str(target))
    return paths


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
                    args) -> dict:
    """Flat metric report for the ``analyze``/``metrics`` arguments;
    precondition failures become per-metric error entries instead of
    aborting the run."""
    wanted = [s for s in args.metric_names.split(",") if s] or [
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
                repeats=args.baseline_repeats, seed=args.seed)
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
        protocol, space, message_space, _require_groups(args)))
    attempt("disc_accuracy", lambda: met.discrimination_accuracy(
        protocol, space, receiver_kind=args.accuracy_receiver, d=args.d))
    return report


def _require_labels(labels, n):
    if len(labels) < n:
        raise ValueError("no label attribute provided")
    return True


def _require_groups(args):
    if args.symbol_groups is None:
        raise ValueError("symbol groups not provided (--symbol-groups)")
    return args.symbol_groups


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args, flat_only: bool = False) -> int:
    paths = {} if args.out is None else _output_paths(
        args, "report.json", *(() if flat_only else ("report.csv",)))
    space, protocol, message_space, labels = _load_data(args)
    if protocol is None:
        raise ParseError("analyze needs a --protocol file", "")
    report = {"schema": SCHEMA_VERSION, "seed": args.seed,
              "conventions": {"disentanglement_normalization":
                              "mean-over-units",
                              "message_variance_pairs":
                              "ordered-with-self"}}
    report.update(compute_metrics(space, protocol, message_space, labels,
                                  args))
    report = _to_log_base(report, args.log_base)
    if paths:
        text = io.write_report(paths["report.json"], report)
    elif args.fmt != "csv":
        text = io.dumps_report(report)
    if args.fmt == "csv" or paths and not flat_only:
        row = _csv_row_text(report)  # formatted once, for both outputs
    sys.stdout.write(row if args.fmt == "csv" else text)
    if paths and not flat_only:  # report.json made the directory
        paths["report.csv"].write_text(row)
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


def _csv_cell(value):
    if isinstance(value, dict):
        return "error"
    if value is None:
        return ""
    return value


def cmd_metrics(args) -> int:
    return cmd_analyze(args, flat_only=True)


def cmd_optimize(args) -> int:
    paths = _output_paths(args, "protocol.csv", "trace.csv", "result.json")
    space, _, _, labels = _load_data(args)
    label = labels[0] if labels else None
    spec_kwargs = {"kind": args.game, "d": args.d}
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
        value, blocks = optimize.optima(space, args.k, spec)
        labelled = tied = consistent = 0
        for rows in blocks:
            if not tied:
                best = Protocol(rows[0], args.k)
            labelled += optimize.labelled_count(rows, args.k)
            tied += len(rows)
            consistent += int(consistency.consistent_rows(rows, space).sum())
        extra = {"num_optimal": labelled,
                 "num_optimal_up_to_relabeling": tied,
                 "num_optimal_semantically_consistent": consistent}
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
        distinct = space._distinct_points
        if args.k > distinct:
            raise ParseError(f"--k {args.k} centroids for {distinct} "
                             "distinct input points", str(args.input))
        try:
            res = optimize.kmeans_alternation(space, args.k, init=init,
                                              seed=args.seed,
                                              max_iters=args.max_iters,
                                              tol=args.tol)
        except RuntimeError as exc:  # squared distances that underflow
            raise ParseError(f"--k {args.k} centroids: {exc}; the input "
                             "points are too close for their squared "
                             "distances to be told apart",
                             str(args.input)) from None
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
    io.save_protocol(paths["protocol.csv"], best, message_space)
    _write_trace(paths["trace.csv"], trace if trace else [value])
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
    sys.stdout.write(io.write_report(paths["result.json"], report))
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
    paths = _output_paths(
        args, "space.csv", "protocol.csv", "verdict.json",
        *(("receiver.json",) if args.which == "thm5" else ()))
    if args.which == "thm5":
        inst = counterexamples.build_mirror_pairs_instance()
        report = counterexamples.verify_mirror_pairs(inst)
        io.save_input_space(paths["space.csv"], inst.space)
        io.save_protocol(paths["protocol.csv"], inst.protocol,
                         io.default_message_space(6))
        io.save_receiver(paths["receiver.json"], inst.receiver)
    else:
        if args.input is not None:
            space, _ = io.load_input_space(args.input)
        else:
            space = InputSpace.uniform(np.arange(4.0)[:, None])
        k = args.k if args.k is not None else space.size // 2
        _check_antipodal(space, k, args.input)
        report = counterexamples.verify_antipodal_split(space, k)
        protocol = Protocol(np.asarray(report["assignment"]), k)
        io.save_input_space(paths["space.csv"], space)
        io.save_protocol(paths["protocol.csv"], protocol,
                         io.default_message_space(k))
    report = {"schema": SCHEMA_VERSION, "seed": args.seed, **report}
    if args.which == "thm5":
        report["_nats_fields"] = ["expected_loss", "target", "sup_loss",
                                  "constant_loss", "objective",
                                  "uniform_bound"]
    else:
        report["_nats_fields"] = ["exhaustive_minimum"]
    report = _to_log_base(report, args.log_base)
    sys.stdout.write(io.write_report(paths["verdict.json"], report))
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Verify
# ---------------------------------------------------------------------------

def _random_instance(rng, num_labels: int = 0):
    """A random protocol on a random space of at most 8 inputs. With
    ``num_labels``, the space is uniform and carries that many balanced
    label values, as the supervised game assumes."""
    dim = int(rng.integers(1, 4))
    labels = None
    if num_labels:
        per = int(rng.integers(1, max(1, 8 // num_labels) + 1))
        space = InputSpace.uniform(rng.normal(size=(num_labels * per, dim)))
        labels = LabelMap(np.repeat(np.arange(num_labels), per).tolist())
    else:
        n = int(rng.integers(2, 9))
        w = rng.random(n) + 0.1
        space = InputSpace(rng.normal(size=(n, dim)), w / w.sum())
    k = int(rng.integers(1, 5))
    protocol = Protocol(rng.integers(0, k, size=space.size), k)
    return space, protocol, labels


# lemma -> the game it states a closed form for
_LEMMA_GAMES = {"1": "reconstruction", "2": "discrimination", "a1": "global",
                "a2": "supervised", "a3": "classification"}


def _verify_lemma(args) -> dict:
    """The exact loss of the synchronized pair against the closed form, on
    random instances, to 1e-10. An instance whose enumeration exceeds the
    term budget raises ``BudgetExceededError``."""
    kind = _LEMMA_GAMES[args.lemma]
    rng = games.substream(args.seed, "verify-lemma", str(args.lemma))
    # the supervised game needs at least d label values
    num_labels = {"supervised": max(2, args.d), "classification": 2}.get(
        kind, 0)
    gaps = []
    for _ in range(args.instances):
        space, protocol, labels = _random_instance(rng, num_labels)
        spec = GameSpec(kind, d=args.d, labels=labels)
        recv = games.synchronized_receiver(protocol, space, spec)
        exact = games._exact_eval(protocol, recv, space, kind, spec.d,
                                  labels).expected
        closed = float(objectives.batch_objective(protocol.assignment[None],
                                                  space, spec)[0])
        if kind == "global":  # plus H(X)
            closed += objectives.entropy(space.weights)
        elif kind == "classification":  # plus H(Y)
            closed += objectives.entropy(np.bincount(labels.codes(),
                                                     space.weights))
        gaps.append(abs(exact - closed))
    max_gap = float(max(gaps))
    tol = 1e-10
    report = {"check": f"lemma-{args.lemma}", "d": args.d,
              "max_gap": max_gap, "tolerance": tol, "verdict": max_gap < tol,
              "instances": args.instances}
    if kind != "reconstruction":  # reconstruction gaps are squared distances
        report["_nats_fields"] = ["max_gap", "tolerance"]
    return report


def _require_eps0(args, message_space: MessageSpace) -> None:
    """``epsilon_M`` needs two messages; with fewer, ``--eps0`` must give
    the threshold."""
    if args.eps0 is None and message_space.size < 2:
        raise ParseError(f"verify --def {args.definition} on fewer than two "
                         "messages needs --eps0 (epsilon_M is undefined)", "")


def _verify_definition(args) -> dict:
    needs = ("input", "protocol") if args.definition in ("3", "4") \
        else ("input", "receiver")
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ParseError(f"verify --def {args.definition} needs "
                         f"{' and '.join(missing)}", "")
    if args.definition in ("3", "4"):
        space, protocol, message_space, _ = _load_data(args)
        if args.definition == "3":
            res = consistency.semantic_consistency(protocol, space)
            return {"definition": "semantic-consistency",
                    "verdict": res.consistent,
                    "witnesses": {"explained": res.explained_variance,
                                  "unexplained": res.unexplained_variance},
                    "margins": {"gap": res.explained_variance,
                                "boundary": res.boundary}}
        _require_eps0(args, message_space)
        res = consistency.spatial_meaningfulness(protocol, space,
                                                 message_space,
                                                 eps0=args.eps0)
        return {"definition": "spatial-meaningfulness",
                "verdict": res.meaningful,
                "witnesses": [t._asdict() for t in res.thresholds],
                "margins": {"min_gap": min(
                    t.unconditional - t.conditional
                    for t in res.thresholds)}}
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
        _require_eps0(args, message_space)
        res = consistency.receiver_simplicity(receiver, args.eps0, space,
                                              message_space)
        return {"definition": "receiver-simplicity", "verdict": res.simple,
                "witnesses": {"worst_ratio": res.worst_ratio,
                              "output_mode": res.output_mode,
                              "diagnostic": res.diagnostic},
                "margins": {"k": res.k, "slack": res.k - res.worst_ratio}}
    spec = GameSpec(args.game, d=args.d)
    try:
        res = consistency.non_degeneracy(receiver, space, spec)
    except EmptyClassError as exc:  # the file lacks a query the game asks
        raise ParseError(str(exc), str(args.receiver)) from None
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
        fits = fits and bool(np.all(receiver.candidates < space.size))
    if not fits:
        use = "" if args.definition == "5" \
            else f" --game {args.game} --d {args.d}"
        raise ParseError(f"a {type(receiver).__name__} does not fit verify "
                         f"--def {args.definition}{use} on {space.size} "
                         f"inputs in {space.dim} dimensions",
                         str(args.receiver))
    return receiver


def _equal_mass_partitions(n: int, k: int) -> int:
    """The number of partitions of ``n`` inputs into ``k`` unordered blocks
    of ``n / k`` each, ``n! / ((n/k)!^k k!)``: block ``j`` takes the
    smallest input left and ``n/k - 1`` of the other ``n - j n/k - 1``."""
    size = n // k
    return math.prod(math.comb(n - j * size - 1, size - 1) for j in range(k))


def _verify_corollary(args) -> dict:
    space = InputSpace.uniform(np.arange(float(args.n))[:, None])
    spec = GameSpec("discrimination", d=args.d)
    value, blocks = optimize.optima(space, args.k, spec)
    labelled = tied = equal_mass = 0
    for rows in blocks:
        # the class sizes of each row, from one count of (row, label) codes
        masses = np.bincount(
            (rows + args.k * np.arange(len(rows))[:, None]).ravel(),
            minlength=len(rows) * args.k).reshape(len(rows), args.k)
        equal_mass += int(np.all(masses == args.n // args.k, axis=1).sum())
        labelled += optimize.labelled_count(rows, args.k)
        tied += len(rows)
    # every equal-mass partition is among the tied optima
    uniform_ok = args.n % args.k != 0 \
        or equal_mass == _equal_mass_partitions(args.n, args.k)
    convex = objectives.convexity_check(args.d)
    return {"check": "corollary-1", "n": args.n, "k": args.k, "d": args.d,
            "verdict": uniform_ok and convex,
            "_nats_fields": ["exhaustive_minimum"],
            "witnesses": {"exhaustive_minimum": value,
                          "uniform_mass": 1.0 / args.k,
                          "num_optimal": labelled,
                          "minimizers_all_equal_mass": equal_mass == tied,
                          "convexity": convex}}


def cmd_verify(args) -> int:
    paths = {} if args.out is None else _output_paths(args, "verdict.json")
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
    sys.stdout.write(io.write_report(paths["verdict.json"], report) if paths
                     else io.dumps_report(report))
    if args.expect is not None:
        return 0 if report["verdict"] == (args.expect == "pass") else 1
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
