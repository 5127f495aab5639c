"""Per-layer tracing by replacing the package's functions with wrappers.

Each wrapped call records a span (name, start, end, parent, run id) and
the counts measured at that boundary. Functions are replaced in every
``signalgames`` module that holds them, so names that one module imports
from another by value are wrapped too. ``probabilities`` is counted by
wrapping the receiver classes' methods rather than proxying receivers,
because the program dispatches on receiver types. Nothing here changes
what the program computes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

# (module, function, span name)
SPANS = [
    ("games", "eval_discrimination", "games.eval_discrimination"),
    ("games", "eval_supervised", "games.eval_supervised"),
    ("games", "eval_classification", "games.eval_classification"),
    ("games", "per_input_message_losses", "games.per_input_message_losses"),
    ("consistency", "non_degeneracy", "consistency.non_degeneracy"),
    ("consistency", "receiver_simplicity", "consistency.receiver_simplicity"),
    ("consistency", "spatial_meaningfulness",
     "consistency.spatial_meaningfulness"),
    ("objectives", "reco_objective", "objectives.closed_form"),
    ("objectives", "disc_objective", "objectives.closed_form"),
    ("objectives", "global_objective", "objectives.closed_form"),
    ("objectives", "supervised_objective", "objectives.closed_form"),
    ("objectives", "classification_objective", "objectives.closed_form"),
    ("optimize", "exhaustive_search", "optimize.exhaustive_search"),
    ("optimize", "batch_objective", "optimize.batch_objective"),
    ("optimize", "kmeans_alternation", "optimize.kmeans_alternation"),
    ("optimize", "canonical_assignment", "optimize.canonical_assignment"),
    ("metrics", "topsim", "metrics.topsim"),
    ("metrics", "random_baseline", "metrics.random_baseline"),
    ("metrics", "disentanglement", "metrics.disentanglement"),
    ("metrics", "discrimination_accuracy", "metrics.discrimination_accuracy"),
    ("metrics", "cluster_variance", "metrics.cluster_variance"),
    ("metrics", "message_variance", "metrics.message_variance"),
    ("io", "load_input_space", "io.read"),
    ("io", "load_protocol", "io.read"),
    ("io", "load_receiver", "io.read"),
    ("cli", "_load_labels", "io.read"),  # the CLI's own label-file reader
    ("io", "save_input_space", "io.write"),
    ("io", "save_protocol", "io.write"),
    ("io", "write_report", "io.write"),
    ("counterexamples", "verify_mirror_pairs",
     "counterexamples.verify_mirror_pairs"),
    ("counterexamples", "verify_antipodal_split",
     "counterexamples.verify_antipodal_split"),
    ("cli", "main", "cli.main"),
]

# spans whose peak traced allocation is measured in the allocation round
ALLOC_SPANS = ("optimize.exhaustive_search", "consistency.receiver_simplicity")

# metric name -> (unit, better); the order of the traced output
LAYER_METRICS = {
    "games.exact.s": ("s", "lower"),
    "games.exact.terms": ("count", "lower"),
    "games.exact.us_per_term": ("us", "lower"),
    "games.eval_supervised.s": ("s", "lower"),
    "games.eval_classification.s": ("s", "lower"),
    "games.probabilities.calls": ("count", "lower"),
    "games.probabilities.calls_per_term": ("ratio", "lower"),
    "games.mc_sync.s": ("s", "lower"),
    "games.mc_table.s": ("s", "lower"),
    "games.mc.samples": ("count", "lower"),
    "games.per_input_message_losses.s": ("s", "lower"),
    "consistency.non_degeneracy.s": ("s", "lower"),
    "objectives.closed_form.s": ("s", "lower"),
    "objectives.closed_form.us_per_protocol": ("us", "lower"),
    "optimize.exhaustive_search.s": ("s", "lower"),
    "optimize.batch_objective.s": ("s", "lower"),
    "optimize.batch_objective.us_per_protocol": ("us", "lower"),
    "optimize.argmin.s": ("s", "lower"),
    "optimize.candidates_scored": ("count", "lower"),
    "optimize.optima_kept": ("count", "lower"),
    "optimize.exhaustive_search.peak_alloc_mb": ("MB", "lower"),
    "optimize.kmeans_alternation.s": ("s", "lower"),
    "optimize.kmeans_alternation.rounds": ("count", "lower"),
    "optimize.canonical_assignment.s": ("s", "lower"),
    "consistency.receiver_simplicity.s": ("s", "lower"),
    "consistency.receiver_simplicity.pairs": ("count", "lower"),
    "consistency.receiver_simplicity.peak_alloc_mb": ("MB", "lower"),
    "consistency.spatial_meaningfulness.s": ("s", "lower"),
    "consistency.spatial_meaningfulness.thresholds": ("count", "lower"),
    "metrics.topsim.s": ("s", "lower"),
    "metrics.random_baseline.s": ("s", "lower"),
    "metrics.disentanglement.s": ("s", "lower"),
    "metrics.discrimination_accuracy.s": ("s", "lower"),
    "metrics.cluster_variance.s": ("s", "lower"),
    "metrics.message_variance.s": ("s", "lower"),
    "io.read.s": ("s", "lower"),
    "io.read.bytes": ("bytes", "lower"),
    "io.write.s": ("s", "lower"),
    "io.write.bytes": ("bytes", "lower"),
    "counterexamples.verify_mirror_pairs.s": ("s", "lower"),
    "counterexamples.verify_antipodal_split.s": ("s", "lower"),
    "cli.self.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else (
        args[position] if len(args) > position else None)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _after_eval_discrimination(tracer, span, args, kwargs, report) -> None:
    """Name the span by the path the call took, from its public result."""
    from signalgames import games
    space = _arg(args, kwargs, 2, "space")
    d = _arg(args, kwargs, 3, "d")
    if report.mode == "exact":
        span[0] = "games.exact"
        tracer.counts["games.exact.terms"] += space.size ** d * d
    else:
        receiver = _arg(args, kwargs, 1, "receiver")
        sync = isinstance(receiver, games.SynchronizedDiscriminationReceiver)
        span[0] = "games.mc_sync" if sync else "games.mc_table"
        tracer.counts["games.mc.samples"] += report.samples


def _after_receiver_simplicity(tracer, span, args, kwargs, result) -> None:
    rows = len(_arg(args, kwargs, 0, "receiver").table)
    tracer.counts["consistency.receiver_simplicity.pairs"] += \
        rows * (rows - 1) // 2


def _after_spatial(tracer, span, args, kwargs, result) -> None:
    tracer.counts["consistency.spatial_meaningfulness.thresholds"] += \
        len(result.thresholds)


def _after_search(tracer, span, args, kwargs, result) -> None:
    tracer.counts["optimize.optima_kept"] += len(result.protocols)


def _after_batch(tracer, span, args, kwargs, result) -> None:
    tracer.counts["optimize.candidates_scored"] += len(result)


def _after_kmeans(tracer, span, args, kwargs, result) -> None:
    tracer.counts["optimize.kmeans_alternation.rounds"] += result.rounds


def _after_closed_form(tracer, span, args, kwargs, result) -> None:
    tracer.counts["objectives.closed_form.protocols"] += 1


def _after_io(tracer, span, args, kwargs, result) -> None:
    if tracer.outermost(span):
        tracer.counts[f"{span[0]}.bytes"] += _file_bytes(
            _arg(args, kwargs, 0, "path"))


AFTER = {
    "games.eval_discrimination": _after_eval_discrimination,
    "consistency.receiver_simplicity": _after_receiver_simplicity,
    "consistency.spatial_meaningfulness": _after_spatial,
    "optimize.exhaustive_search": _after_search,
    "optimize.batch_objective": _after_batch,
    "optimize.kmeans_alternation": _after_kmeans,
    "objectives.closed_form": _after_closed_form,
    "io.read": _after_io,
    "io.write": _after_io,
}


class Tracer:
    """Spans and counts of the traced rounds of one run.

    A span is a list ``[name, start, end, parent, run]``; ``parent`` is the
    index of the enclosing span or -1. Tracing is off unless ``enabled``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.run_counts: dict[int, Counter] = {}
        self.run = -1
        self.enabled = False
        self.alloc = False
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import signalgames
        from signalgames import games
        modules = [m for name, m in sys.modules.items()
                   if name == "signalgames" or name.startswith("signalgames.")]
        for module_name, attr, span in SPANS:
            module = getattr(signalgames, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        for cls in vars(games).values():
            if isinstance(cls, type) and issubclass(
                    cls, games.DiscriminationReceiver) \
                    and "probabilities" in vars(cls):
                fn = vars(cls)["probabilities"]
                self._undo.append((cls, "probabilities", fn))
                setattr(cls, "probabilities", self._count_calls(fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def _count_calls(self, fn):
        tracer = self

        @functools.wraps(fn)
        def probabilities(*args, **kwargs):
            if tracer.enabled:
                tracer.counts["games.probabilities.calls"] += 1
            return fn(*args, **kwargs)
        return probabilities

    def _wrap(self, fn, name: str):
        tracer = self
        after = AFTER.get(name)
        alloc = name in ALLOC_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            measure = alloc and tracer.alloc and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    key = f"{name}.peak_alloc_mb"
                    tracer.counts[key] = max(tracer.counts[key], peak)
                tracer._close(span)
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result
        return wrapper

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter(), None, parent, self.run]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def outermost(self, span: list) -> bool:
        """No enclosing span carries the same name."""
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == span[0]:
                return False
            parent = self.spans[parent][3]
        return True

    def begin(self, run: int) -> None:
        self.run = run
        self.counts = Counter()
        self.run_counts[run] = self.counts

    # -- per-layer figures ----------------------------------------------------

    def layer_times(self, run: int) -> tuple[dict[str, float], float, float]:
        """Total time per span name (nested spans of the same name counted
        once), plus the self time of ``cli.main`` and of
        ``optimize.exhaustive_search``."""
        child_time: dict[int, float] = defaultdict(float)
        indices = [i for i, s in enumerate(self.spans) if s[4] == run]
        for i in indices:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        self_time = {"cli.main": 0.0, "optimize.exhaustive_search": 0.0}
        for i in indices:
            span = self.spans[i]
            duration = span[2] - span[1]
            if self.outermost(span):
                totals[span[0]] += duration
            if span[0] in self_time:
                self_time[span[0]] += duration - child_time[i]
        return totals, self_time["cli.main"], \
            self_time["optimize.exhaustive_search"]

    def layer_metrics(self, run: int) -> dict[str, float]:
        totals, cli_self, search_self = self.layer_times(run)
        counts = self.run_counts.get(run, Counter())
        out = {}
        for metric in LAYER_METRICS:
            if metric.endswith(".s"):
                out[metric] = totals.get(metric[:-2], 0.0)
            elif metric in counts:
                out[metric] = float(counts[metric])
        terms = counts["games.exact.terms"]
        protocols = counts["objectives.closed_form.protocols"]
        candidates = counts["optimize.candidates_scored"]
        queries = terms + counts["games.mc.samples"]
        out.update({
            "games.exact.us_per_term": _ratio(1e6 * out["games.exact.s"],
                                              terms),
            "games.probabilities.calls_per_term": _ratio(
                counts["games.probabilities.calls"], queries),
            "objectives.closed_form.us_per_protocol": _ratio(
                1e6 * out["objectives.closed_form.s"], protocols),
            "optimize.batch_objective.us_per_protocol": _ratio(
                1e6 * out["optimize.batch_objective.s"], candidates),
            "optimize.argmin.s": search_self,
            "cli.self.s": cli_self,
        })
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines ``[name, start, end, parent, run]`` followed
        by one line of counts per run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": {
                str(run): dict(c) for run, c in self.run_counts.items()}})
                + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
