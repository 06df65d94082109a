"""CLI ops, their correctness checks, and the statistics of the untraced run.

Every op calls the in-process CLI entry point with stdout and stderr
captured, exactly as ``omtdist ...`` would run it, and is checked against the
workload's reference.
"""

from __future__ import annotations

import io
import math
import re
import statistics
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

DELTA_LINE = re.compile(r"\d+\.\d{9}\n")
VERIFY_KINDS = ("interleaving", "goodmap", "labelling")


@dataclass(frozen=True)
class Pair:
    """A written input pair and the distance the CLI must print for it.

    With ``tol == 0`` the printed line must equal ``f"{reference:.9f}"``;
    otherwise it may differ from ``reference`` by at most ``tol``.
    """

    a: Path
    b: Path
    cert: Path
    reference: float
    tol: float = 0.0


@dataclass(frozen=True)
class OpResult:
    kind: str  # "distance", "certify" or "verify-<mode>"
    seconds: float
    failure: str | None  # why the op counts as failed, or None
    mark: int = 0  # index of the last speed mark taken before the op


# -- machine speed ------------------------------------------------------------

# The calibration loop's time at the machine's nominal speed: about its
# fastest time on a 2-vCPU virtual machine with Python 3.11.
CAL_NOMINAL_S = 0.007
# Least wall time between two speed marks.
CAL_INTERVAL_S = 0.25


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work that uses no program code.

    Integer arithmetic, boxed floats, dict and list churn and a sort: the
    kinds of work the pure-Python engine does, so the loop slows down with
    the machine in about the same proportion.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i
    d = {}
    for i in range(10_000):
        d[(i * 7919) % 5003] = [float(i), i * 0.5, str(i)]
    sorted(d.items(), key=lambda kv: kv[1][0])
    return time.perf_counter() - t0


class SpeedLog:
    """Calibration times taken between ops, to take the machine's speed out of op times.

    On a shared host the same op can take twice as long from one minute to
    the next.  An op's time is scaled by ``CAL_NOMINAL_S`` over the mean of
    the calibration times just before and just after it, which gives its
    time at the nominal speed.
    """

    def __init__(self):
        self.marks: list[float] = []
        self._last = -math.inf

    def mark(self) -> int:
        self.marks.append(calibrate())
        self._last = time.perf_counter()
        return len(self.marks) - 1

    def tick(self) -> int:
        """Take a mark if ``CAL_INTERVAL_S`` has passed since the last; the last mark's index."""
        if time.perf_counter() - self._last >= CAL_INTERVAL_S:
            return self.mark()
        return len(self.marks) - 1

    def nominal(self, seconds: float, mark: int) -> float:
        after = self.marks[min(mark + 1, len(self.marks) - 1)]
        return seconds * CAL_NOMINAL_S / ((self.marks[mark] + after) / 2)


def call_cli(main, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """Run ``main(argv)`` with captured output: (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code: int | None
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # argparse exits on usage errors
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # an op that raises is a failed op, not a failed run
        code, error = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue(), error


def classify(kind: str, code: int | None, stdout: str, error: str | None, pair: Pair) -> str | None:
    """Why an op failed, or None when its output is right."""
    if error is not None:
        return "exception"
    if code != 0:
        return f"exit {code}"
    if kind.startswith("verify"):
        return None if stdout == "ok\n" else "verify not ok"
    if not DELTA_LINE.fullmatch(stdout):
        return "bad stdout"
    if pair.tol == 0.0:
        return None if stdout == f"{pair.reference:.9f}\n" else "wrong delta"
    return None if abs(float(stdout) - pair.reference) <= pair.tol else "wrong delta"


def mix_argvs(pair: Pair, certify: bool) -> list[tuple[str, list[str]]]:
    """The op mix of one pair: distance, then optionally certify and verify."""
    a, b, c = str(pair.a), str(pair.b), str(pair.cert)
    ops = [("distance", ["distance", a, b])]
    if certify:
        ops.append(("certify", ["distance", a, b, "--emit-certificate", c]))
        ops.extend((f"verify-{k}", ["verify", k, a, b, c]) for k in VERIFY_KINDS)
    return ops


def run_mix(main, pair: Pair, certify: bool, speed: SpeedLog | None = None) -> list[OpResult]:
    # A certificate left from an earlier pair must not be verified by mistake.
    pair.cert.unlink(missing_ok=True)
    results = []
    for kind, argv in mix_argvs(pair, certify):
        mark = speed.tick() if speed else 0
        seconds, code, stdout, error = call_cli(main, argv)
        results.append(OpResult(kind, seconds, classify(kind, code, stdout, error, pair), mark))
    return results


# -- statistics ---------------------------------------------------------------


def tail_index(n: int) -> int | None:
    """Index, in sorted order, of the tail sample: p95, or lower if it must be.

    The tail is the p95 sample (nearest rank) when at least 10 samples lie
    beyond it, which holds from 200 samples on.  Below that it is the highest
    sample with 10 samples beyond it, and None when that sample would not lie
    above the median (fewer than 21 samples); the tail is then the median.
    A fixed p95 keeps the tail's meaning when a faster program fits more
    samples into a run.
    """
    if n < 21:
        return None
    return min(math.ceil(0.95 * n) - 1, n - 11)


def summarise(samples: list[float]) -> dict:
    """Median and tail of a sample, with the tail's percentile and the count."""
    ordered = sorted(samples)
    n = len(ordered)
    p50 = statistics.median(ordered)
    k = tail_index(n)
    if k is None:
        return {"p50": p50, "tail": p50, "tail_label": "p50", "n": n}
    label = f"p{math.floor(100 * (k + 1) / n)}"
    return {"p50": p50, "tail": ordered[k], "tail_label": label, "n": n}


@dataclass
class UntracedRun:
    """Op results and failures of the untraced loop."""

    mixes: list[list[OpResult]] = field(default_factory=list)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # (op kind, reason) -> count
    elapsed: float = 0.0

    def add(self, results: list[OpResult]) -> None:
        self.mixes.append(results)
        self.attempted += len(results)
        for r in results:
            if r.failure is not None:
                self.failures[(r.kind, r.failure)] += 1

    @property
    def pairs(self) -> int:
        return len(self.mixes)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def timings(self, seconds=lambda r: r.seconds) -> dict[str, list[float]]:
        """Per pair: distance, certify, verify (three modes summed) and whole-mix times.

        ``seconds`` maps an op result to the time to use for it.
        """
        out: dict[str, list[float]] = {"distance": [], "certify": [], "verify": [], "mix": []}
        for results in self.mixes:
            by_kind = {r.kind: seconds(r) for r in results}
            out["distance"].append(by_kind["distance"])
            if "certify" in by_kind:
                out["certify"].append(by_kind["certify"])
                out["verify"].append(sum(t for k, t in by_kind.items() if k.startswith("verify")))
            out["mix"].append(sum(by_kind.values()))
        return out


def whole_passes(pairs: list, pass_size: int, seconds: float):
    """Yield (index, pair) pass by pass until ``seconds`` have passed.

    A pass is ``pass_size`` consecutive pairs, and the passes repeat in
    order.  The clock is read only between passes, so every run covers whole
    passes, the same mix of inputs, however fast the program is.
    """
    if len(pairs) % pass_size:
        raise ValueError("the pairs must split into whole passes")
    deadline = time.perf_counter() + seconds
    start = 0
    while True:
        for index in range(start, start + pass_size):
            yield index, pairs[index]
        start = (start + pass_size) % len(pairs)
        if time.perf_counter() >= deadline:
            return


def run_untraced(main, pairs: list[Pair], certify: bool, pass_size: int, seconds: float,
                 speed: SpeedLog, between_passes) -> UntracedRun:
    """The closed loop over whole passes; ``between_passes`` runs before each pass."""
    run = UntracedRun()
    start = time.perf_counter()
    for index, pair in whole_passes(pairs, pass_size, seconds):
        if index % pass_size == 0:
            between_passes()
        run.add(run_mix(main, pair, certify, speed))
    run.elapsed = time.perf_counter() - start
    speed.mark()
    return run
