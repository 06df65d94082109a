"""Tests of the benchmark's own helpers: statistics, generators, checks, replay."""

from __future__ import annotations

import math
import random
import statistics

from measure import (
    CAL_NOMINAL_S,
    OpResult,
    Pair,
    SpeedLog,
    UntracedRun,
    classify,
    run_mix,
    run_untraced,
    summarise,
    tail_index,
)
from tracing import Tracer, run_traced
from workloads import (
    REAL_SCALE_TOL,
    SHIFT_GRID,
    WORKLOADS,
    bit_reversed,
    caterpillar_shift_pairs,
    draw_real_scale,
    scaled_random_pairs,
    write_pair,
)


def test_tail_is_highest_sample_with_ten_beyond_up_to_p95():
    for n in (21, 50, 100, 199, 200, 333, 720):
        values = [float(v) for v in random.Random(n).sample(range(10 * n), n)]
        s = summarise(values)
        beyond = sum(v > s["tail"] for v in values)
        assert beyond == (10 if n <= 200 else n - math.ceil(0.95 * n))
        assert beyond >= 10 and s["tail"] >= s["p50"] and s["n"] == n
    assert summarise([float(v) for v in range(200)])["tail_label"] == "p95"
    assert summarise([float(v) for v in range(720)])["tail_label"] == "p95"
    assert summarise([float(v) for v in range(100)])["tail_label"] == "p90"


def test_tail_falls_back_to_median_below_21_samples():
    assert tail_index(20) is None and tail_index(21) == 10
    s = summarise([5.0, 1.0, 3.0])
    assert s == {"p50": 3.0, "tail": 3.0, "tail_label": "p50", "n": 3}


def test_generators_are_seed_deterministic():
    for name, workload in WORKLOADS.items():
        first = [(p.a.text(), p.b.text(), p.reference, p.scale) for p in workload.make(7)]
        again = [(p.a.text(), p.b.text(), p.reference, p.scale) for p in workload.make(7)]
        assert first == again, name
        others = {tuple(p.b.text() for p in workload.make(seed)) for seed in range(3)}
        assert len(others) > 1, name


def test_shift_is_on_the_grid_and_is_the_reference():
    for spec in caterpillar_shift_pairs(0, 5, count=16):
        c = spec.reference
        assert 0 < c <= 1 and (c * 64).is_integer()
        assert all(spec.b.height[v] == h + c for v, h in spec.a.height.items() if h != float("inf"))


def test_shifts_take_one_per_stratum_and_spread_every_prefix():
    assert bit_reversed(8) == [0, 4, 2, 6, 1, 5, 3, 7]
    for seed in range(5):
        ks = [round(p.reference * SHIFT_GRID) for p in caterpillar_shift_pairs(seed, 3, count=16)]
        assert sorted((k - 1) // 4 for k in ks) == list(range(16))
        assert sorted((k - 1) // 16 for k in ks[:4]) == [0, 1, 2, 3]


def test_height_scaling_keeps_shape_and_leaf_order():
    for spec in scaled_random_pairs(3, count=30):
        for scaled, base in zip((spec.a, spec.b), spec.base):
            assert scaled.parent == base.parent
            assert scaled.children == base.children
            assert scaled.leaf_order() == base.leaf_order()
            for v, h in base.height.items():
                assert scaled.height[v] == (h if h == float("inf") else h * spec.scale)
        assert 0.5 <= spec.scale <= 2.0
        assert (spec.scale * 64).is_integer() and spec.tol == 0.0
    real = scaled_random_pairs(3, count=30, draw_scale=draw_real_scale)
    assert all(0.5 <= p.scale <= 2.0 and p.tol == REAL_SCALE_TOL for p in real)
    assert not all((p.scale * 64).is_integer() for p in real)


def test_scaled_documents_parse_with_the_same_leaf_order():
    from omtdist import treeio

    for spec in scaled_random_pairs(4, count=10):
        parsed = treeio.parse_tree(spec.a.text())
        assert list(parsed.leaf_order.sequence) == spec.base[0].leaf_order()


def _pair(tmp_path, reference=0.5, tol=0.0):
    return Pair(tmp_path / "a", tmp_path / "b", tmp_path / "cert", reference, tol)


def test_classify_counts_nonzero_exit_as_failure(tmp_path):
    pair = _pair(tmp_path)
    assert classify("distance", 1, "0.500000000\n", None, pair) == "exit 1"
    assert classify("verify-goodmap", 1, "ok\n", None, pair) == "exit 1"
    assert classify("distance", None, "", "ValueError: x", pair) == "exception"


def test_classify_checks_format_reference_and_ok(tmp_path):
    exact = _pair(tmp_path)
    assert classify("distance", 0, "0.500000000\n", None, exact) is None
    assert classify("certify", 0, "0.515625000\n", None, exact) == "wrong delta"
    assert classify("distance", 0, "0.5\n", None, exact) == "bad stdout"
    assert classify("verify-labelling", 0, "ok\n", None, exact) is None
    assert classify("verify-labelling", 0, "", None, exact) == "verify not ok"
    scaled = _pair(tmp_path, reference=0.7000000004, tol=1e-6)
    assert classify("distance", 0, "0.700000000\n", None, scaled) is None
    assert classify("distance", 0, "0.704000000\n", None, scaled) == "wrong delta"


def test_failed_ops_are_counted_against_attempted(tmp_path):
    pair = _pair(tmp_path)
    run = UntracedRun()
    run.add(run_mix(lambda argv: 1, pair, certify=True))
    assert run.attempted == 5 and run.failed == 5 and run.pairs == 1

    def raises(argv):
        raise RuntimeError("boom")

    run.add(run_mix(raises, pair, certify=False))
    assert run.attempted == 6 and run.failed == 6
    assert run.failures[("distance", "exception")] == 1


def test_nominal_time_scales_by_the_marks_either_side():
    speed = SpeedLog()
    speed.marks = [CAL_NOMINAL_S, 3 * CAL_NOMINAL_S]
    assert speed.nominal(1.0, 0) == 0.5  # the machine ran at half speed on average
    assert speed.nominal(1.0, 1) == 1 / 3  # the last mark has none after it
    speed.marks = []
    assert speed.mark() == 0 and speed.tick() == 0  # no new mark within the interval
    assert len(speed.marks) == 1 and speed.marks[0] > 0


def test_timings_split_a_mix_by_op_kind():
    run = UntracedRun()
    kinds = ["distance", "certify", "verify-interleaving", "verify-goodmap", "verify-labelling"]
    run.add([OpResult(k, t, None) for k, t in zip(kinds, (1.0, 2.0, 3.0, 4.0, 5.0))])
    run.add([OpResult("distance", 7.0, "wrong delta")])
    t = run.timings()
    assert t == {"distance": [1.0, 7.0], "certify": [2.0], "verify": [12.0], "mix": [15.0, 7.0]}
    assert run.timings(lambda r: 2 * r.seconds)["mix"] == [30.0, 14.0]
    assert run.pairs == 2 and run.failed == 1


def test_untraced_loop_runs_whole_passes_and_calls_between_them(tmp_path):
    pairs = [_pair(tmp_path) for _ in range(6)]
    starts = []
    run = run_untraced(lambda argv: 0, pairs, False, 3, 0.0, SpeedLog(), lambda: starts.append(1))
    assert run.pairs == 3 and len(starts) == 1 and run.failed == 3  # no stdout: bad format


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.op = 0
    with tr.span("op.distance"):
        with tr.span("frechet.decide"):
            sum(range(10000))
        with tr.span("frechet.decide"):
            sum(range(10000))
    own = tr.self_times()
    durations = [s.end - s.start for s in tr.spans]
    assert own[1:] == durations[1:]
    assert abs(own[0] - (durations[0] - durations[1] - durations[2])) < 1e-12


def test_replay_matches_cli_on_a_small_caterpillar(tmp_path):
    from omtdist.cli import main

    spec = caterpillar_shift_pairs(11, 6, count=1)[0]
    pa, pb = write_pair(spec, tmp_path, 0)
    pair = Pair(pa, pb, tmp_path / "cert.json", spec.reference)
    run = run_traced(main, [pair], True, 1, 0.0, tmp_path / "replay.json")
    assert run.mismatches == [] and run.failed == 0 and run.attempted == 5
    mix = run.mixes[0]
    assert mix["frechet.decisions"] >= 1 and mix["frechet.decide_s"] > 0
    assert mix["treeio.cert_bytes"] > 0 and mix["interleaving.goodmap_g_s"] > 0
    assert run.tree_counts[0]["trees.ancestor_at_calls"] > 0
    assert statistics.median(run.coverage["distance"]) > 0
