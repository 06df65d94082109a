#!/usr/bin/env python3
"""The omtdist benchmark: CLI distance, certify and verify on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cat-distance --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` of that checkout and driven
through ``omtdist.cli.main`` in this process, with stdout captured.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
replays every op stage by stage and reports per-layer metrics.  The last line
of stdout is one JSON object; the lines before it are a readable report.
NOTES.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_SPAWNS = 11


def import_program():
    """Import omtdist from this checkout's src/, refusing any other copy."""
    sys.path.insert(1, str(SRC))
    import omtdist
    import omtdist.cli

    if not Path(omtdist.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"omtdist was imported from {omtdist.__file__}, not from {SRC}")
    return omtdist.cli.main


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "git_commit": git_commit(),
    }


def write_small_pair(work: Path) -> tuple[Path, Path]:
    from workloads import small_pair

    a, b = small_pair()
    pa, pb = work / "small_a.tree", work / "small_b.tree"
    pa.write_text(a.text())
    pb.write_text(b.text())
    return pa, pb


class SetupProbe:
    """Seconds from spawning ``python -m omtdist.cli distance`` to its answer.

    ``SETUP_SPAWNS`` fresh processes run on the small pair, spread evenly
    over the run by ``due``, so that they see the machine at several moments
    rather than in one burst.  The times are wall times (see NOTES.md).
    """

    def __init__(self, pa: Path, pb: Path, seconds: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.argv = [sys.executable, "-m", "omtdist.cli", "distance", str(pa), str(pb)]
        self.interval = seconds / SETUP_SPAWNS
        self.next = time.perf_counter()
        self.times: list[float] = []
        self.wrong = 0

    def spawn(self) -> None:
        from workloads import SMALL_PAIR_DISTANCE

        t0 = time.perf_counter()
        with subprocess.Popen(self.argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            self.times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        self.wrong += code != 0 or line != f"{SMALL_PAIR_DISTANCE:.9f}\n"

    def due(self) -> None:
        """Spawn once if the next spawn is due; called between passes."""
        if len(self.times) < SETUP_SPAWNS and time.perf_counter() >= self.next:
            self.spawn()
            self.next += self.interval

    def finish(self) -> None:
        while len(self.times) < SETUP_SPAWNS:
            self.spawn()


def write_pairs(workload, seed: int, work: Path):
    """Write the workload's inputs and attach each pair's reference distance.

    A pair without a closed-form reference gets ``scale`` times the distance
    of its unscaled dyadic pair, computed here, outside any timed region.
    """
    from omtdist import treeio
    from omtdist.curves import induced_curve
    from omtdist.frechet import compute_frechet_value

    from measure import Pair
    from workloads import write_pair

    pairs = []
    for i, spec in enumerate(workload.make(seed)):
        pa, pb = write_pair(spec, work, i)
        if spec.reference is not None:
            pairs.append(Pair(pa, pb, work / "cert.json", spec.reference))
            continue
        base = [treeio.document_to_tree(t.document()) for t in spec.base]
        d0 = compute_frechet_value(induced_curve(base[0]), induced_curve(base[1]))
        pairs.append(Pair(pa, pb, work / "cert.json", spec.scale * d0, tol=spec.tol))
    return pairs


def untraced_metrics(main, workload, pairs, seconds: float, small: tuple[Path, Path]):
    from measure import CAL_NOMINAL_S, SpeedLog, run_untraced, summarise

    speed = SpeedLog()
    probe = SetupProbe(*small, seconds)
    run = run_untraced(main, pairs, workload.certify, workload.pass_size, seconds, speed, probe.due)
    probe.finish()
    setup, setup_wrong = probe.times, probe.wrong
    attempted = run.attempted + len(setup)
    failed = run.failed + setup_wrong
    nominal = run.timings(lambda r: speed.nominal(r.seconds, r.mark))
    raw = run.timings()
    dist, mix = summarise(nominal["distance"]), summarise(nominal["mix"])
    values = {
        "setup_s": statistics.median(setup),
        "distance_s.p50": dist["p50"],
        "distance_s.tail": dist["tail"],
        "mix_s.p50": mix["p50"],
        "mix_s.tail": mix["tail"],
        "pairs_per_s": run.pairs / sum(nominal["mix"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    cal = sorted(speed.marks)
    print(f"speed: {len(cal)} calibrations, min {cal[0] * 1e3:.2f} ms, median "
          f"{statistics.median(cal) * 1e3:.2f} ms, max {cal[-1] * 1e3:.2f} ms "
          f"(nominal {CAL_NOMINAL_S * 1e3:.2f} ms)")
    print(f"setup_s: median of {len(setup)} spawns, {setup_wrong} wrong answers; "
          f"wall {statistics.median(setup):.6f} s")
    kinds = ["distance", "mix"] + (["certify", "verify"] if workload.certify else [])
    for kind in kinds:
        s, w = summarise(nominal[kind]), summarise(raw[kind])
        print(f"{kind}_s: p50 {s['p50']:.6f} s, {s['tail_label']} {s['tail']:.6f} s, n={s['n']}; "
              f"wall p50 {w['p50']:.6f} s, {w['tail_label']} {w['tail']:.6f} s")
    print(f"wall: {run.pairs} pairs in {run.elapsed:.3f} s")
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} ops failed)")
    for (kind, reason), n in sorted(run.failures.items()):
        print(f"  failed {kind}: {reason} x{n}")
    return values, attempted, failed


def traced_metrics(main, workload, pairs, seconds: float, work: Path, seed: int):
    from measure import summarise
    from tracing import COUNTERS, STAGES, TREE_METHODS, run_traced

    run = run_traced(main, pairs, workload.certify, workload.pass_size, seconds,
                     work / "replay-cert.json")
    out = BENCH / "_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{workload.name}-seed{seed}.jsonl"
    run.tracer.write(spans_path)

    names = [f"{s}_s" for s in STAGES] + list(COUNTERS) + ["trace.overhead_s"]
    values = {n: statistics.median(m[n] for m in run.mixes) for n in names}
    for method in TREE_METHODS:
        key = f"trees.{method}_calls"
        values[key] = statistics.median(c[key] for c in run.tree_counts)
    all_coverage = [c for cs in run.coverage.values() for c in cs]
    values["trace.coverage"] = statistics.median(all_coverage)
    values["trace.mismatches"] = len(run.mismatches)

    print(f"traced {len(run.mixes)} pair mixes, {len(run.tracer.spans)} spans -> {spans_path.relative_to(ROOT)}")
    for kind, cov in run.coverage.items():
        gap = summarise(run.gaps[kind])
        flag = "" if min(cov) >= 0.8 else "  (stages cover under 80% of some ops)"
        print(f"coverage {kind}: median {statistics.median(cov):.3f}, min {min(cov):.3f}, "
              f"untraced minus staged p50 {gap['p50']:.6f} s{flag}")
    for line in run.mismatches:
        print(f"delta mismatch: {line}")
    return values, run.attempted, run.failed + len(run.mismatches)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli_main = import_program()
    except ImportError as e:
        print(f"error: cannot import the program under test: {e}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(args.seed)
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        pairs = write_pairs(workload, args.seed, work)
        small = write_small_pair(work)
        # Let lazy imports and first-call costs happen before any timing.
        from measure import call_cli

        call_cli(cli_main, ["distance", str(small[0]), str(small[1])])
        if args.trace:
            values, attempted, failed = traced_metrics(cli_main, workload, pairs, args.seconds, work, args.seed)
        else:
            values, attempted, failed = untraced_metrics(cli_main, workload, pairs, args.seconds, small)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # BENCHMARK.json declares the metrics and their units; a metric it lists
    # that the run did not measure is an error.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
