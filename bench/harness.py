"""Building blocks shared by the workloads: operations, checks and
in-process CLI calls."""

from __future__ import annotations

import contextlib
import io as _textio
import math
import time
import traceback
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

EXACT_TOL = 1e-10    # an exact oracle against its closed form (absolute)
SAME_TOL = 1e-12     # two exact evaluations of the same loss
REPORT_RTOL = 1e-9   # values read back from 12-significant-digit reports
SE_BOUND = 4.0       # Monte-Carlo estimates against closed forms


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent generator for one named input set of one seed."""
    return np.random.default_rng([int(seed), zlib.crc32(tag.encode())])


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    ``malformed`` operations are fed broken input: they succeed only if
    the CLI exits 2 without a traceback, and they have no other check.
    ``cross`` operations are another workload's headline operations at
    probe size (see README); they stay out of ``wall_s`` and the trace.
    A round calls an operation ``repeat`` times, so that short operations
    get as many timed calls in a run as long ones.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[["Checker", Any], None] | None = None
    malformed: bool = False
    cross: bool = False
    repeat: int = 1


class Checker:
    """Collects failed correctness checks instead of raising, so one run
    reports every fault it saw."""

    def __init__(self):
        self.failures: list[str] = []

    def true(self, what: str, ok) -> None:
        if not ok:
            self.failures.append(what)

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")

    def close(self, what: str, got, want, tol: float = EXACT_TOL,
              relative: bool = False) -> None:
        scale = max(1.0, abs(want)) if relative else 1.0
        if not (isinstance(got, (int, float)) and math.isfinite(got)
                and abs(got - want) <= tol * scale):
            self.failures.append(f"{what}: got {got!r}, want {want!r} "
                                 f"(tolerance {tol:g})")

    def within_se(self, what: str, got, want, se: float) -> None:
        if not (isinstance(got, float) and abs(got - want) <= SE_BOUND * se):
            self.failures.append(f"{what}: got {got!r}, want {want!r} "
                                 f"within {SE_BOUND:g} x {se:.3g}")

    def repeats(self, store: dict, key: str, value) -> None:
        """The first value seen under ``key`` is the one every later call
        must reproduce exactly."""
        first = store.setdefault(key, value)
        if value != first:
            self.failures.append(f"{key}: repeated call gave {value!r}, "
                                 f"first call gave {first!r}")


@dataclass
class CliOutcome:
    code: int | None
    stdout: str
    stderr: str
    traceback: str | None = None


def run_cli(main: Callable[[list[str]], int], argv: list[str]) -> CliOutcome:
    """Call the CLI entry point in-process with captured output. A raised
    exception is the traceback a user would see."""
    out, err = _textio.StringIO(), _textio.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the program crashed; record it as a user would
        return CliOutcome(None, out.getvalue(), err.getvalue(),
                          traceback.format_exc())
    return CliOutcome(code, out.getvalue(), err.getvalue())


def clean_exit_2(outcome: CliOutcome) -> bool:
    """A malformed input is handled when the CLI exits 2 without a
    traceback."""
    return outcome.code == 2 and outcome.traceback is None


def typical(rounds: list[dict[str, list[float]]], *names: str) -> float:
    """Sum over ``names`` of the median time of every call of that
    operation in the run's rounds."""
    return sum(float(np.median([t for r in rounds for t in r.get(name, [])]))
               for name in names)


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# Time the host probe takes at the reference host speed: about its median
# on the machine the reference figures were taken on (README, "Statistics")
PROBE_NOMINAL_S = 0.0034

_PROBE_SMALL = np.random.default_rng(0).random((128, 8)) + 0.1
_PROBE_LARGE = np.random.default_rng(1).random(80_000)


def host_probe() -> float:
    """Seconds a fixed computation takes now. It shares no code with the
    package but does the same kinds of work: an interpreted loop over a
    dict, many numpy calls on short arrays and a few on long ones."""
    start = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(6000):
        acc[i % 61] = acc.get(i % 61, 0) + i * i
    total = 0.0
    for row in _PROBE_SMALL:
        total += float(np.log(row / row.sum()).sum())
    total += float(np.log1p(np.cumsum(np.sort(_PROBE_LARGE))).sum())
    return time.perf_counter() - start
