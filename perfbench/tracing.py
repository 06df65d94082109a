"""The traced run: a stage-by-stage replay of each CLI op, with spans.

The replay calls each layer's public functions the way ``omtdist.cli`` does,
and wraps every call in a span (name, start, end, parent, op id).  It changes
nothing in the program.  The binary search over the Frechet candidates is the
one in ``frechet.compute_frechet_value``, written out here so that each
decision goes through ``decide_frechet`` and gets its own span.

Calls to ``MergeTree.ancestor_at``, ``lca`` and ``is_ancestor`` are counted in
a separate replay with those methods wrapped, so the wrappers do not inflate
the span times.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from omtdist import treeio
from omtdist.cli import build_parser
from omtdist.curves import in_order_walk
from omtdist.frechet import decide_frechet, extract_matching, frechet_candidates
from omtdist.interleaving import (
    check_good_map,
    check_interleaving,
    check_monotone,
    matched_traces_from_matching,
    matching_to_interleaving,
)
from omtdist.labelling import check_monotone_labelling, good_to_labelling, label_distance
from omtdist.trees import MergeTree

from measure import Pair, call_cli, classify, mix_argvs, whole_passes

TREE_METHODS = ("ancestor_at", "lca", "is_ancestor")

# Stage spans, each reported as "<name>_s"; op spans are named "op.<kind>".
STAGES = (
    "cli.args",
    "treeio.parse",
    "curves.walk",
    "frechet.candidates",
    "frechet.decide",
    "frechet.extract",
    "interleaving.build",
    "labelling.from_goodmap",
    "treeio.serialise",
    "interleaving.check",
    "interleaving.monotone",
    "interleaving.goodmap_tw",
    "interleaving.goodmap_g",
    "labelling.check",
)
COUNTERS = (
    "curves.points",
    "curves.distinct_heights",
    "frechet.candidates",
    "frechet.decisions",
    "frechet.cells",
    "frechet.table_bytes",
    "treeio.cert_bytes",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op: int


class Tracer:
    """Spans and counters kept in memory; ``op`` tags everything with an op id."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def count(self, name: str, n: int) -> None:
        self.counts[self.op][name] += n

    def self_times(self, first: int = 0) -> list[float]:
        """Duration minus the time covered by child spans, for spans[first:].

        Spans from ``first`` on must not have parents before ``first``.
        """
        spans = self.spans[first:]
        own = [s.end - s.start for s in spans]
        for s in spans:
            if s.parent is not None:
                own[s.parent - first] -= s.end - s.start
        return own

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "op": s.op}) + "\n")


class NullTracer(Tracer):
    """Records nothing; used by the counting replay."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, n: int) -> None:
        pass


@contextmanager
def counting_tree_calls(counts: Counter):
    """Count calls of the ``TREE_METHODS`` of every MergeTree while active."""
    originals = {name: getattr(MergeTree, name) for name in TREE_METHODS}

    def wrap(name, method):
        def counted(self, *args, **kwargs):
            counts[f"trees.{name}_calls"] += 1
            return method(self, *args, **kwargs)

        return counted

    for name, method in originals.items():
        setattr(MergeTree, name, wrap(name, method))
    try:
        yield counts
    finally:
        for name, method in originals.items():
            setattr(MergeTree, name, method)


# -- replay of the CLI ops ---------------------------------------------------


def _search(tr: Tracer, P, Q, cands) -> float:
    """``compute_frechet_value``'s binary search, one span per decision."""
    cells = P.n_segments * Q.n_segments

    def decide(i: int) -> bool:
        tr.count("frechet.decisions", 1)
        tr.count("frechet.cells", cells)
        with tr.span("frechet.decide"):
            return decide_frechet(P, Q, float(cands[i]))

    if decide(0):
        return float(cands[0])
    lo, hi = 0, len(cands) - 1
    if not decide(hi):
        raise AssertionError("largest candidate must be feasible")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if decide(mid):
            hi = mid
        else:
            lo = mid
    return float(cands[hi])


def _parse_trees(pair: Pair):
    return treeio.parse_tree(pair.a.read_text()), treeio.parse_tree(pair.b.read_text())


def replay_distance(tr: Tracer, pair: Pair, cert: Path | None, out: list[str]) -> None:
    """``omtdist distance A B [--emit-certificate C]``, stage by stage."""
    with tr.span("treeio.parse"):
        a, b = _parse_trees(pair)
    with tr.span("curves.walk"):
        walk_p, walk_q = in_order_walk(a), in_order_walk(b)
        P, Q = walk_p.curve(), walk_q.curve()
    tr.count("curves.points", len(P.heights) + len(Q.heights))
    tr.count("curves.distinct_heights", len(set(P.finite_heights())) + len(set(Q.finite_heights())))
    with tr.span("frechet.candidates"):
        cands = frechet_candidates(P, Q)
    tr.count("frechet.candidates", len(cands))
    value = _search(tr, P, Q, cands)
    with tr.span("frechet.extract"):
        matching = extract_matching(P, Q, value)
    n, m = P.n_segments, Q.n_segments
    # extract_matching's reach tables: two bool and two float64 arrays.
    tr.count("frechet.table_bytes", 9 * ((n + 1) * m + n * (m + 1)))
    with tr.span("interleaving.build"):
        matched = matched_traces_from_matching(a, b, walk_p, walk_q, matching)
        alpha, beta = matching_to_interleaving(a, b, matched, value)
    out.append(f"{value:.9f}\n")
    if cert is not None:
        with tr.span("labelling.from_goodmap"):
            labelling = good_to_labelling(alpha)
        with tr.span("treeio.serialise"):
            text = treeio.serialise_certificate(alpha, beta, labelling)
            cert.write_text(text)
        tr.count("treeio.cert_bytes", len(text.encode()))


def replay_verify(tr: Tracer, mode: str, pair: Pair, cert: Path, out: list[str]) -> None:
    """``omtdist verify MODE A B C``, stage by stage, short-circuiting as the CLI does."""
    with tr.span("treeio.parse"):
        a, b = _parse_trees(pair)
        alpha, beta, labelling = treeio.parse_certificate(cert.read_text(), a, b)
    if mode == "interleaving":
        with tr.span("interleaving.check"):
            bad = check_interleaving(alpha, beta)
        if bad is None:
            with tr.span("interleaving.monotone"):
                bad = check_monotone(alpha) or check_monotone(beta)
    elif mode == "goodmap":
        with tr.span("interleaving.goodmap_tw"):
            bad = check_good_map(alpha, variant="TW")
        if bad is None:
            with tr.span("interleaving.goodmap_g"):
                bad = check_good_map(alpha, variant="G")
        if bad is None:
            with tr.span("interleaving.monotone"):
                bad = check_monotone(alpha)
    else:
        with tr.span("labelling.check"):
            bad = "no labelling" if labelling is None else check_monotone_labelling(labelling)
            if bad is None:
                m, m_prime = labelling.matrices()
                if label_distance(m, m_prime) > alpha.delta + 1e-9:
                    bad = "label distance exceeds delta"
    if bad is None:
        out.append("ok\n")


def replay_op(tr: Tracer, kind: str, argv: list[str], pair: Pair, cert: Path) -> str:
    """Replay one op under an op span; returns what the CLI would print on stdout.

    ``argv`` is only parsed, as the CLI parses it; the replay writes and reads
    its certificate at ``cert``.
    """
    tr.op += 1
    out: list[str] = []
    with tr.span(f"op.{kind}"):
        try:
            with tr.span("cli.args"):
                build_parser().parse_args(argv)
            if kind == "distance":
                replay_distance(tr, pair, None, out)
            elif kind == "certify":
                replay_distance(tr, pair, cert, out)
            else:
                replay_verify(tr, kind.removeprefix("verify-"), pair, cert, out)
        except Exception:  # the CLI fails this op too; the stdout comparison shows it
            pass
    return "".join(out)


# -- the traced loop -----------------------------------------------------------


@dataclass
class TracedRun:
    tracer: Tracer
    mixes: list[dict]  # per pair mix: layer metric -> value
    tree_counts: list[Counter]  # per distinct pair
    coverage: dict[str, list[float]]  # op kind -> stage time / untraced op time
    gaps: dict[str, list[float]]  # op kind -> untraced op time - stage time
    mismatches: list[str]
    attempted: int = 0
    failed: int = 0


def run_traced(main, pairs: list[Pair], certify: bool, pass_size: int, seconds: float,
               replay_cert: Path) -> TracedRun:
    """Per pair: the untraced CLI mix, its traced replay, and (once) a counting replay."""
    tr = Tracer()
    run = TracedRun(tr, [], [], defaultdict(list), defaultdict(list), [])
    counted: set[int] = set()
    for index, pair in whole_passes(pairs, pass_size, seconds):
        pair.cert.unlink(missing_ok=True)
        replay_cert.unlink(missing_ok=True)
        first_span = len(tr.spans)
        untraced_total = 0.0
        for kind, argv in mix_argvs(pair, certify):
            seconds_cli, code, stdout, error = call_cli(main, argv)
            run.attempted += 1
            run.failed += classify(kind, code, stdout, error, pair) is not None
            untraced_total += seconds_cli
            op_span = len(tr.spans)
            replayed = replay_op(tr, kind, argv, pair, replay_cert)
            if replayed != stdout:
                run.mismatches.append(f"pair {index} {kind}: cli {stdout!r} replay {replayed!r}")
            staged = sum(s.end - s.start for s in tr.spans[op_span:] if s.parent == op_span)
            run.coverage[kind].append(staged / seconds_cli)
            run.gaps[kind].append(seconds_cli - staged)
        run.mixes.append(mix_metrics(tr, first_span, untraced_total))
        if index not in counted:
            counted.add(index)
            counts: Counter = Counter({f"trees.{m}_calls": 0 for m in TREE_METHODS})
            with counting_tree_calls(counts):
                quiet = NullTracer()
                replay_cert.unlink(missing_ok=True)
                for kind, argv in mix_argvs(pair, certify):
                    replay_op(quiet, kind, argv, pair, replay_cert)
            run.tree_counts.append(counts)
    return run


def mix_metrics(tr: Tracer, first_span: int, untraced_total: float) -> dict:
    """Per-layer metrics of the mix whose spans start at ``first_span``."""
    spans = tr.spans[first_span:]
    values = {f"{name}_s": 0.0 for name in STAGES}
    traced_total = 0.0
    for s, own in zip(spans, tr.self_times(first_span)):
        if s.name.startswith("op."):
            traced_total += s.end - s.start
        else:
            values[f"{s.name}_s"] += own
    ops = {s.op for s in spans}
    for name in COUNTERS:
        values[name] = sum(tr.counts[op][name] for op in ops)
    values["trace.overhead_s"] = traced_total - untraced_total
    return values
