"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is fixed
here; timing budgets are asserted after a one-off warm-up of both kernels so
that first-call costs (module imports, numpy's lazily loaded routines, cold
caches) are not billed to any criterion.
"""

import random
import time

import pytest

from omtdist.curves import induced_curve
from omtdist.frechet import compute_frechet_value, decide_frechet
from omtdist.curves import Curve1D, interleaving_to_matching
from omtdist.interleaving import (
    check_good_map,
    check_interleaving,
    check_monotone,
    monotone_interleaving_distance,
    pair_gap,
)
from omtdist.labelling import check_monotone_labelling, good_to_labelling, labelling_to_interleaving
from omtdist.oracle import (
    PartitionInstance,
    all_order_curves,
    brute_force_min_over_orders,
    build_partition_reduction,
    discrete_frechet_refined,
)
from omtdist.curves import induced_leaf_order, induced_ordered_tree
from omtdist.randomtrees import caterpillar, random_omt, random_pair, shifted, tree_a, tree_b


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # Runs the Frechet engine and the oracle once before any criterion is timed.
    a, b = tree_a(), tree_b()
    monotone_interleaving_distance(a, b)
    discrete_frechet_refined(induced_curve(a), induced_curve(b), 0.5)
    yield


def _report(k, problems, elapsed, budget):
    status = "PASS" if not problems and elapsed < budget else "FAIL"
    print(f"[acceptance {k}] {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert not problems, problems[:5]
    assert elapsed < budget, f"criterion {k} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_acceptance_1_order_bijection_round_trip():
    rng = random.Random(101)
    problems = []
    t0 = time.perf_counter()
    for i in range(500):
        omt = random_omt(rng, min_leaves=1, max_leaves=20)
        order = induced_leaf_order(omt.tree, omt.compare)
        if order.sequence != omt.leaf_order.sequence:
            problems.append(f"L(T(.)) broke at trial {i}")
        rebuilt = induced_ordered_tree(omt.tree, omt.compare)
        if any(rebuilt.tree.children(v) != omt.tree.children(v) for v in omt.tree.vertices):
            problems.append(f"T(L(.)) broke at trial {i}")
    _report(1, problems, time.perf_counter() - t0, 5.0)


def test_acceptance_2_frechet_oracle_equivalence():
    rng = random.Random(202)
    problems = []
    t0 = time.perf_counter()
    for i in range(200):
        a, b = random_pair(rng, min_leaves=1, max_leaves=12)
        p, q = induced_curve(a), induced_curve(b)
        value = compute_frechet_value(p, q)
        approx = discrete_frechet_refined(p, q, 0.01)
        if not (approx - 0.02 - 1e-12 <= value <= approx + 1e-12):
            problems.append(f"trial {i}: value {value} vs oracle {approx}")
        if not decide_frechet(p, q, value):
            problems.append(f"trial {i}: decision rejects the optimum")
        if value > 1e-9 and decide_frechet(p, q, value - 1e-9):
            problems.append(f"trial {i}: decision accepts below the optimum")
    _report(2, problems, time.perf_counter() - t0, 30.0)


def test_acceptance_3_main_theorem_constructive():
    rng = random.Random(303)
    problems = []
    t0 = time.perf_counter()
    for i in range(200):
        a, b = random_pair(rng, min_leaves=1, max_leaves=12)
        delta, (alpha, beta) = monotone_interleaving_distance(a, b)
        if check_interleaving(alpha, beta) is not None:
            problems.append(f"trial {i}: interleaving check failed")
        if check_monotone(alpha) is not None or check_monotone(beta) is not None:
            problems.append(f"trial {i}: monotonicity check failed")
        cost, _ = pair_gap(*interleaving_to_matching(alpha, beta))
        if cost > delta + 1e-9:
            problems.append(f"trial {i}: reverse cost {cost} > {delta}")
    _report(3, problems, time.perf_counter() - t0, 60.0)


def test_acceptance_4_three_distance_equality():
    rng = random.Random(404)
    problems = []
    t0 = time.perf_counter()
    for i in range(100):
        a, b = random_pair(rng, min_leaves=1, max_leaves=12)
        delta, (alpha, beta) = monotone_interleaving_distance(a, b)
        tw = check_good_map(alpha, "TW")
        g = check_good_map(alpha, "G")
        if tw is not None or g is not None:
            problems.append(f"trial {i}: good-map variants {tw} / {g}")
            continue
        lab = good_to_labelling(alpha)
        if check_monotone_labelling(lab) is not None:
            problems.append(f"trial {i}: labelling not monotone")
        if lab.distance() > delta + 1e-9:
            problems.append(f"trial {i}: label distance {lab.distance()} > {delta}")
        a2, b2 = labelling_to_interleaving(lab, delta)
        if check_interleaving(a2, b2) is not None:
            problems.append(f"trial {i}: rebuilt interleaving fails")
        if check_monotone(a2) is not None or check_monotone(b2) is not None:
            problems.append(f"trial {i}: rebuilt interleaving not monotone")
        # No construction beats the optimum: the realised certificate cost
        # re-decides to False strictly below delta.
        p, q = induced_curve(a), induced_curve(b)
        if delta > 1e-9 and decide_frechet(p, q, delta - 1e-9):
            problems.append(f"trial {i}: certificate beats the optimum")
    _report(4, problems, time.perf_counter() - t0, 60.0)


def test_acceptance_5_order_mirror_phenomenon():
    problems = []
    t0 = time.perf_counter()
    a, b = tree_a(), tree_b()
    delta, _ = monotone_interleaving_distance(a, b)
    if abs(delta - 1.0) > 1e-9:
        problems.append(f"monotone distance {delta} != 1.0")
    if brute_force_min_over_orders(a.tree, b.tree) != 0.0:
        problems.append("some order pair should align the trees at distance 0")
    _report(5, problems, time.perf_counter() - t0, 1.0)


def test_acceptance_6_partition_gap():
    problems = []
    t0 = time.perf_counter()
    yes = build_partition_reduction(PartitionInstance((1, 1, 2), 2, 9.0))
    d_yes = brute_force_min_over_orders(*yes)
    if not d_yes <= 1.0 + 1e-9:
        problems.append(f"yes-instance min over orders {d_yes} > 1")
    no = build_partition_reduction(PartitionInstance((1, 1, 4), 2, 9.0))
    curves_a = [Curve1D(h) for h in all_order_curves(no[0])]
    curves_b = [Curve1D(h) for h in all_order_curves(no[1])]
    worst = min(compute_frechet_value(pa, pb) for pa in curves_a for pb in curves_b)
    if not worst >= 3.0 - 1e-9:
        problems.append(f"no-instance admits an order pair at {worst} < 3")
    _report(6, problems, time.perf_counter() - t0, 120.0)


def test_acceptance_7_metric_sanity():
    rng = random.Random(707)
    problems = []
    t0 = time.perf_counter()
    for i in range(100):
        a = random_omt(rng, min_leaves=1, max_leaves=8)
        b = random_omt(rng, min_leaves=1, max_leaves=8)
        c = random_omt(rng, min_leaves=1, max_leaves=8)
        daa, _ = monotone_interleaving_distance(a, a)
        dab, _ = monotone_interleaving_distance(a, b)
        dba, _ = monotone_interleaving_distance(b, a)
        dbc, _ = monotone_interleaving_distance(b, c)
        dac, _ = monotone_interleaving_distance(a, c)
        if daa != 0.0:
            problems.append(f"trial {i}: d(T,T) = {daa}")
        if abs(dab - dba) > 1e-9:
            problems.append(f"trial {i}: asymmetric {dab} vs {dba}")
        if dac > dab + dbc + 1e-9:
            problems.append(f"trial {i}: triangle {dac} > {dab} + {dbc}")
    base = random_omt(random.Random(708), min_leaves=2, max_leaves=8)
    for c_shift in (0.5, 2.0, 10.0):
        d, _ = monotone_interleaving_distance(base, shifted(base, c_shift))
        if abs(d - c_shift) > 1e-9:
            problems.append(f"shift law d(T, T+{c_shift}) = {d}")
    _report(7, problems, time.perf_counter() - t0, 30.0)


def test_acceptance_8_near_quadratic_scaling():
    problems = []
    t0 = time.perf_counter()
    times = {}
    for n in (100, 200, 400):
        a = caterpillar(n)
        b = shifted(caterpillar(n), 0.3125)
        best = float("inf")
        for _ in range(3):  # best-of-3: exclude one-off allocator effects
            t1 = time.perf_counter()
            delta, _ = monotone_interleaving_distance(a, b)
            best = min(best, time.perf_counter() - t1)
        times[n] = best
        if delta != 0.3125:
            problems.append(f"n={n}: unexpected distance {delta}")
    if times[400] >= 10.0:
        problems.append(f"n=400 took {times[400]:.2f}s")
    # Floor the timings: at n=100 a run takes milliseconds and raw ratios
    # would measure noise rather than growth.
    floored = {n: max(t, 0.05) for n, t in times.items()}
    for lo, hi in ((100, 200), (200, 400)):
        ratio = floored[hi] / floored[lo]
        if ratio > 6.0:
            problems.append(f"doubling {lo}->{hi} scaled by {ratio:.1f}x")
    _report(8, problems, time.perf_counter() - t0, 30.0)
