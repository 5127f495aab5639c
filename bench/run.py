"""Benchmark of signalgames: one seeded workload per run.

    python3 bench/run.py --workload {oracle,search,cli} --seed N \
        --seconds S --trace {0,1}

The run sets up its inputs several times (``setup_s`` is the median), then
repeats whole rounds of the workload's operations, one caller issuing each
operation after the previous one returned, until ``--seconds`` have passed.
Every output is checked against values that ``reference.py`` computes
independently. With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` the rounds alternate between
untraced and traced and the metrics are the per-layer ones. Earlier lines
hold the run's provenance and the per-operation detail.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

# One BLAS thread, set before numpy loads: on two shared cores a second
# thread beside the caller measures the scheduler, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "signalgames"
SETUP_REPEATS = 5
SETUP_PROBES = 5  # host probes before and after each set-up step

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "exact_terms_per_s": "terms/s",
    "mc_sync_samples_per_s": "samples/s",
    "mc_table_samples_per_s": "samples/s",
    "closed_forms_per_s": "protocols/s",
    "protocols_per_s": "protocols/s",
    "analyze_s": "s",
    "verify_simplicity_s": "s",
    "optimize_s": "s",
    "counterexample_s": "s",
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import signalgames; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def commit() -> str:
    """HEAD of the checkout's own git directory, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy links, if it exposes one."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)),
                     "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def source_lines() -> int:
    """Non-blank lines of the package source."""
    return sum(1 for path in sorted(PACKAGE.glob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "seed": seed,
        "source_lines": source_lines(),
    }


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Round:
    def __init__(self):
        self.times: dict[str, list[float]] = {}  # every call's raw time
        self.scaled: dict[str, list[float]] = {}  # at reference host speed
        # scaled time of the own operations, each once (mean over repeats)
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.own_rss_mb = 0.0  # peak RSS before the first probe operation
        self.host: list[float] = []  # host probe times, one before each call

    def slowdown(self) -> float:
        """How many times slower than the reference speed the host ran
        during this round, by the median of its host probes."""
        from harness import PROBE_NOMINAL_S
        return median(self.host) / PROBE_NOMINAL_S


def run_round(ops, checker, tracer=None) -> Round:
    """Issue every operation ``op.repeat`` times, in order, each call after
    the previous one returned; check each output outside the timed
    region. Each call's time is also scaled to the reference host speed
    by the round's slowdown."""
    from harness import clean_exit_2, host_probe
    rnd = Round()
    calls = []  # (op, seconds)
    for op in ops:
        if op.cross and not rnd.own_rss_mb:
            rnd.own_rss_mb = peak_rss_mb()
        for _ in range(op.repeat):
            # garbage the previous call left is not collected in this one
            gc.collect()
            rnd.host.append(host_probe())
            rnd.attempted += 1
            if tracer is not None:
                tracer.enabled = not op.cross and not op.malformed
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception:  # an operation that should succeed crashed
                rnd.failed += 1
                print(f"{op.name} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.enabled = False
            calls.append((op, time.perf_counter() - start))
            if op.malformed:
                if not clean_exit_2(out):
                    rnd.failed += 1
            elif op.check is not None:
                op.check(checker, out)
    rnd.host.append(host_probe())
    slow = rnd.slowdown()
    for op, elapsed in calls:
        rnd.times.setdefault(op.name, []).append(elapsed)
        rnd.scaled.setdefault(op.name, []).append(elapsed / slow)
        if not op.cross and not op.malformed:
            rnd.wall += elapsed / slow / op.repeat
    return rnd


def build(args, workdir: Path):
    """Set the workload and the probes of the other two up several times;
    return the last set and the import and build times, each scaled to
    the reference host speed by host probes taken just before and after
    it."""
    from harness import PROBE_NOMINAL_S, host_probe
    from workloads import WORKLOADS

    def slowdown_around(step):
        probes = [host_probe() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        out = step()
        elapsed = time.perf_counter() - start
        probes += [host_probe() for _ in range(SETUP_PROBES)]
        return median(probes) / PROBE_NOMINAL_S, elapsed, out

    def setup_all():
        parts = [cls(args.seed, workdir, probe=name != args.workload)
                 for name, cls in WORKLOADS.items()]
        for part in parts:
            part.setup()
        return parts

    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        slow, _, seconds = slowdown_around(import_seconds)
        imports.append(seconds / slow)
    for _ in range(SETUP_REPEATS):
        slow, seconds, parts = slowdown_around(setup_all)
        builds.append(seconds / slow)
    return parts, imports, builds


def run_rounds(ops, checker, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed. With a tracer, an
    allocation round comes first, then untraced and traced rounds
    alternate. Returns (all rounds, untraced rounds, traced (id, round))."""
    rounds, untraced, traced = [], [], []
    deadline = time.perf_counter() + seconds
    if tracer is not None:
        tracer.alloc = True
        tracer.begin(0)
        rounds.append(run_round(ops, checker, tracer))
        tracer.alloc = False
    while True:
        rnd = run_round(ops, checker)
        rounds.append(rnd)
        untraced.append(rnd)
        if tracer is not None:
            tracer.begin(len(rounds))
            rnd = run_round(ops, checker, tracer)
            rounds.append(rnd)
            traced.append((len(rounds) - 1, rnd))
        if time.perf_counter() >= deadline:
            return rounds, untraced, traced


def layer_metrics(tracer, traced, untraced) -> dict[str, float]:
    """Median over the traced rounds, times scaled to the reference host
    speed like the end-to-end ones; counts are the same in every round."""
    from tracing import LAYER_METRICS
    per_round = []
    for run_id, rnd in traced:
        slow = rnd.slowdown()
        per_round.append({
            name: value / slow if LAYER_METRICS[name][0] in ("s", "us")
            else value
            for name, value in tracer.layer_metrics(run_id).items()})
    metrics = {name: median(m.get(name, 0.0) for m in per_round)
               for name in LAYER_METRICS}
    for key in ("optimize.exhaustive_search.peak_alloc_mb",
                "consistency.receiver_simplicity.peak_alloc_mb"):
        metrics[key] = float(tracer.run_counts[0][key])
    metrics["trace.overhead_s"] = median(r.wall for _, r in traced) \
        - median(r.wall for r in untraced)
    return metrics


def run(args) -> dict:
    from harness import Checker
    from tracing import LAYER_METRICS, Tracer

    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        parts, imports, builds = build(args, workdir)
        for part in parts:
            part.prepare()
        # the workload's own operations first, then the probes of the others
        ops = []
        for part in sorted(parts, key=lambda part: part.probe):
            for op in part.ops():
                op.cross = part.probe
                ops.append(op)

        checker = Checker()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            rounds, untraced, traced = run_rounds(ops, checker, args.seconds,
                                                  tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [r.scaled for r in untraced]
    detail = {"rounds": len(untraced),
              "slowdown": [r.slowdown() for r in untraced], "ops": {}}
    for name in dict.fromkeys(op.name for op in ops):
        raw = [t for r in untraced for t in r.times.get(name, [])]
        if raw:
            detail["ops"][name] = {
                "n": len(raw), "min": min(raw), "median": median(raw),
                "scaled_median": median(t for r in times
                                        for t in r.get(name, []))}
    if tracer is None:
        metrics = {
            "setup_s": median(imports) + median(builds),
            "wall_s": median(r.wall for r in untraced),
            "peak_rss_mb": untraced[0].own_rss_mb,
        }
        for part in parts:
            metrics.update(part.headline(times))
        units = END_TO_END_UNITS
        detail.update(import_s=imports, build_s=builds)
    else:
        metrics = layer_metrics(tracer, traced, untraced)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        trace_file = ROOT / ".bench-trace" / (
            f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_file)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    for failure in checker.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "detail": detail,
        "result": {
            "correct": not checker.failures,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle", "search", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import signalgames
    except ImportError as exc:
        print(f"error: cannot import signalgames from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if Path(signalgames.__file__).resolve().parent != PACKAGE:
        print(f"error: signalgames was imported from {signalgames.__file__}, "
              f"not from {PACKAGE}", file=sys.stderr)
        return 2
    out = run(args)
    print(json.dumps({"provenance": provenance(args.seed)}))
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
