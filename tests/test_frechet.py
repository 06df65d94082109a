import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omtdist import frechet, treeio
from omtdist.curve1d import cap_height
from omtdist.curves import Curve1D, induced_curve
from omtdist.frechet import (
    compute_frechet,
    compute_frechet_value,
    decide_frechet,
    extract_matching,
    frechet_candidates,
)
from omtdist.oracle import discrete_frechet_refined
from omtdist.randomtrees import caterpillar, random_pair, shifted
from omtdist.trees import INF

A_CURVE = Curve1D((INF, 0.0, 3.0, 1.0, INF))
B_CURVE = Curve1D((INF, 1.0, 3.0, 0.0, INF))


def capped_heights(P, Q):
    """Both curves' heights as float lists, the sentinels at ``cap_height``:
    the float inputs on which the sweep is checked against its references."""
    H = cap_height(P, Q)
    return [H, *P.heights[1:-1], H], [H, *Q.heights[1:-1], H]


def test_decide_identity():
    assert decide_frechet(A_CURVE, A_CURVE, 0.0)


def test_decide_mirror_pair():
    assert not decide_frechet(A_CURVE, B_CURVE, 0.99)
    assert decide_frechet(A_CURVE, B_CURVE, 1.0)


def test_decide_shifted():
    shifted = A_CURVE.shifted(2.0)
    assert decide_frechet(A_CURVE, shifted, 2.0)
    assert not decide_frechet(A_CURVE, shifted, 1.99)


def test_decide_rejects_negative_delta():
    with pytest.raises(ValueError):
        decide_frechet(A_CURVE, A_CURVE, -0.5)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.5])
def test_decide_and_extract_reject_bad_delta(delta):
    with pytest.raises(ValueError):
        decide_frechet(A_CURVE, A_CURVE, delta)
    with pytest.raises(ValueError):
        extract_matching(A_CURVE, A_CURVE, delta)


def test_compute_identity_and_mirror():
    value, matching = compute_frechet(A_CURVE, A_CURVE)
    assert value == 0.0 and matching.cost() == 0.0
    assert all(s.s == s.t for s in matching.steps)
    assert compute_frechet_value(A_CURVE, B_CURVE) == 1.0


def test_compute_single_leaves():
    p = Curve1D((INF, 0.0, INF))
    q = Curve1D((INF, 5.0, INF))
    assert compute_frechet_value(p, q) == 5.0


def test_half_difference_candidate_is_attained():
    # Needle vs deep two-leaf profile: the optimum is a half difference.
    p = Curve1D((INF, 0.0, INF))
    q = Curve1D((INF, 0.0, 5.0, 0.0, INF))
    assert compute_frechet_value(p, q) == 2.5
    assert not decide_frechet(p, q, 2.5 - 1e-9)


def test_extract_matching_cost_examples():
    m0 = extract_matching(A_CURVE, A_CURVE, 0.0)
    assert m0.cost() == 0.0
    m1 = extract_matching(A_CURVE, B_CURVE, 1.0)
    assert m1.cost() == 1.0
    assert m1.verify_monotone()
    with pytest.raises(ValueError):
        extract_matching(A_CURVE, B_CURVE, 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_matching_cost_below_delta(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=8)
    p, q = induced_curve(a), induced_curve(b)
    value = compute_frechet_value(p, q)
    delta = value + rand.choice([0.0, 0.25, 1.0])
    matching = extract_matching(p, q, delta)
    assert matching.cost() <= delta
    assert matching.verify_monotone()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_decision_monotone_and_flip(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=8)
    p, q = induced_curve(a), induced_curve(b)
    value = compute_frechet_value(p, q)
    assert decide_frechet(p, q, value)
    assert decide_frechet(p, q, value + 0.5)
    if value > 1e-9:
        assert not decide_frechet(p, q, value - 1e-9)
    assert value in frechet_candidates(p, q)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_equivalence_two_resolutions(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=8)
    p, q = induced_curve(a), induced_curve(b)
    value = compute_frechet_value(p, q)
    for r in (0.1, 0.01):
        approx = discrete_frechet_refined(p, q, r)
        assert value <= approx + 1e-12
        assert approx <= value + 2 * r + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_symmetry_and_reversal(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=8)
    p, q = induced_curve(a), induced_curve(b)
    value = compute_frechet_value(p, q)
    assert compute_frechet_value(q, p) == value
    assert compute_frechet_value(p.reversed(), q.reversed()) == value


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_cap_invariance(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=8)
    P, Q = induced_curve(a), induced_curve(b)
    # Callers cannot choose the cap, but any cap above the integer one must
    # give the same optimum: the searches over curves capped at H and at 2H
    # agree, and on these dyadic heights the optimum over the scale is
    # compute_frechet_value itself.
    p, q, _, scale = frechet._scaled(P, Q)
    expected = compute_frechet_value(P, Q)
    for cap in (p[0], 2 * p[0]):
        pc, qc = [cap, *p[1:-1], cap], [cap, *q[1:-1], cap]
        value, _ = frechet._search(pc, qc)
        assert value / scale == expected


def test_matching_names_every_vertex_of_both_curves(nondyadic_corner_pair):
    # Where a bottom entry meets a left entry (a corner), the two steps merge
    # into one that keeps the vertex label of each, so every vertex of both
    # curves is some step's index and its point is exact, not a height
    # rounded on an edge: the vertex's integer height scaled back.
    rand = random.Random(5)
    pairs = [random_pair(rand, min_leaves=1, max_leaves=10) for _ in range(300)]
    pairs.append(tuple(map(treeio.parse_tree, nondyadic_corner_pair)))
    for a, b in pairs:
        P, Q = induced_curve(a), induced_curve(b)
        value, matching = compute_frechet(P, Q)
        p, q, _, scale = frechet._scaled(P, Q, value)
        assert {st.p_index for st in matching.steps} >= set(range(len(p)))
        assert {st.q_index for st in matching.steps} >= set(range(len(q)))
        for st in matching.steps:
            assert st.p_index is None or (st.hp == p[st.p_index] / scale and st.p_edge is None)
            assert st.q_index is None or (st.hq == q[st.q_index] / scale and st.q_edge is None)
        assert [h / scale for h in p[1:-1]] == list(P.heights[1:-1])


def _reach_scalar(p, q, delta):
    """Full-grid reference for the free-space sweep: every cell, in order.

    Returns ``(v_ok, v_lo, h_ok, h_lo)`` of shape ``(N + 1, M + 1)``, indexed
    like the sweep's reached boundaries; ``lo`` is meaningful only where ``ok``.
    ``p`` and ``q`` are lists of heights.
    """
    N = len(p) - 1
    M = len(q) - 1
    W = M + 1
    size = (N + 1) * W
    v_ok, h_ok = [False] * size, [False] * size
    v_lo, h_lo = [0.0] * size, [0.0] * size
    if abs(p[0] - q[0]) <= delta:
        full = True
        for j in range(M):
            full = full and abs(p[0] - q[j]) <= delta
            v_ok[j] = full
            v_lo[j] = q[j] if q[j + 1] > q[j] else -q[j]
        full = True
        for i in range(N):
            full = full and abs(p[i] - q[0]) <= delta
            h_ok[i * W] = full
            h_lo[i * W] = p[i] if p[i + 1] > p[i] else -p[i]

    q_up = [q[j + 1] > q[j] for j in range(M)]
    q_min = [q[j] if q[j] < q[j + 1] else q[j + 1] for j in range(M)]
    q_max = [q[j] if q[j] > q[j + 1] else q[j + 1] for j in range(M)]
    x_lo = [q[j + 1] - delta for j in range(M)]
    x_hi = [q[j + 1] + delta for j in range(M)]
    for i in range(N):
        a0, a1 = p[i], p[i + 1]
        p_up = a1 > a0
        a_min = a0 if a0 < a1 else a1
        a_max = a0 if a0 > a1 else a1
        y_lo = a1 - delta
        y_hi = a1 + delta
        row = i * W
        for j in range(M):
            k = row + j
            left_ok, bot_ok = v_ok[k], h_ok[k]
            if not (left_ok or bot_ok):
                continue
            lo = q_min[j] if q_min[j] > y_lo else y_lo
            hi = q_max[j] if q_max[j] < y_hi else y_hi
            klo, khi = (lo, hi) if q_up[j] else (-hi, -lo)
            if not bot_ok:
                left_lo = v_lo[k]
                klo = left_lo if left_lo > klo else klo
            v_ok[k + W] = klo <= khi
            v_lo[k + W] = klo
            lo = a_min if a_min > x_lo[j] else x_lo[j]
            hi = a_max if a_max < x_hi[j] else x_hi[j]
            klo, khi = (lo, hi) if p_up else (-hi, -lo)
            if not left_ok:
                bot_lo = h_lo[k]
                klo = bot_lo if bot_lo > klo else klo
            h_ok[k + 1] = klo <= khi
            h_lo[k + 1] = klo
    shape = (N + 1, W)
    return tuple(np.array(t).reshape(shape) for t in (v_ok, v_lo, h_ok, h_lo))


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _assert_sweep_matches_reference(p, q, delta):
    v_ok, v_lo, h_ok, h_lo = _reach_scalar(p, q, delta)
    N, M = len(p) - 1, len(q) - 1
    ends_free = abs(p[0] - q[0]) <= delta and abs(p[N] - q[M]) <= delta
    expected = ends_free and bool(v_ok[N, M - 1] or h_ok[N - 1, M])
    # The sweep builds its own column table, or reads the one the search
    # builds once per curve pair; both must give the reference's answer.
    for cols in (None, frechet._columns(q)):
        reached = [], []
        assert frechet._sweep(p, q, delta, reached, cols) == expected
        assert frechet._sweep(p, q, delta, None, cols) == expected
        if expected:
            # A feasible sweep finishes every row: N + 1 right-boundary rows
            # (the left edge first) and N bottom-boundary rows.
            assert len(reached[0]) == N + 1 and len(reached[1]) == N
        if not ends_free:
            continue
        # Lower ends compared bit for bit (signed zeros included) wherever reached.
        for ok, lo, rows in ((v_ok, v_lo, reached[0]), (h_ok, h_lo, reached[1])):
            want = {(int(i), int(j)): _bits(lo[i, j]) for i, j in zip(*np.nonzero(ok))}
            for js, _ in rows:
                assert js == sorted(set(js))
            got = {(i, j): _bits(x) for i, (js, los) in enumerate(rows) for j, x in zip(js, los)}
            assert got == want


def _off_grid(curve: Curve1D, scale: float) -> Curve1D:
    return Curve1D(tuple(h if h == INF else h * scale for h in curve.heights))


def _large_grid_pairs():
    rand = random.Random(20261018)
    for _ in range(6):
        yield random_pair(rand, min_leaves=20, max_leaves=60)
    for n in (20, 45):
        yield caterpillar(n), shifted(caterpillar(n), 0.3125)


# "Scalar" is the full-grid reference above; "wavefront" the sweep, which
# carries only the frontier of boundaries it reached from row to row.
@pytest.mark.parametrize("a, b", list(_large_grid_pairs()))
def test_wavefront_flip_and_matching_on_large_grids(a, b):
    p, q = induced_curve(a), induced_curve(b)
    value = compute_frechet_value(p, q)
    assert decide_frechet(p, q, value)
    if value > 1e-9:
        assert not decide_frechet(p, q, value - 1e-9)
    matching = extract_matching(p, q, value)
    assert matching.cost() <= value
    assert matching.verify_monotone()


@pytest.mark.parametrize("leaves", [(6, 10), (18, 24), (40, 45), (46, 60)])
def test_scalar_and_wavefront_tables_agree(leaves):
    # Grids on both sides of 8192 cells, where an earlier engine switched
    # from a scalar loop to a numpy wavefront; dyadic and off-grid heights.
    rand = random.Random(leaves[0])
    for k in range(4):
        a, b = random_pair(rand, min_leaves=leaves[0], max_leaves=leaves[1])
        P, Q = induced_curve(a), induced_curve(b)
        if k % 2:
            P, Q = _off_grid(P, 0.7303), _off_grid(Q, 0.7303)
        p, q = capped_heights(P, Q)
        cands = frechet_candidates(P, Q)
        value = compute_frechet_value(P, Q)
        for delta in (0.0, value, float(np.nextafter(value, -1.0)), value + 0.25,
                      float(cands[rand.randrange(len(cands))])):
            if delta >= 0:
                _assert_sweep_matches_reference(p, q, delta)


def test_sweep_matches_reference_on_raw_profiles():
    # Uncapped profiles, so paths may also run up the first column or along
    # the first row; integer and off-grid heights, every cross and half value.
    rand = random.Random(7)
    for k in range(150):
        scale = 1.0 if k % 2 else 0.7303
        p, q = (np.array([rand.randint(0, 6) * scale for _ in range(rand.randint(2, 9))])
                for _ in range(2))
        deltas = np.unique(np.concatenate([np.abs(p[:, None] - q[None, :]).ravel(),
                                           (np.abs(p[:, None] - p[None, :]) * 0.5).ravel()]))
        for delta in deltas:
            _assert_sweep_matches_reference(p.tolist(), q.tolist(), float(delta))


def _candidate_pairs():
    rand = random.Random(343185045)
    for _ in range(4):
        a, b = random_pair(rand, min_leaves=1, max_leaves=30)
        yield induced_curve(a), induced_curve(b)
    cat = induced_curve(caterpillar(40))
    yield cat, induced_curve(shifted(caterpillar(40), 0.3125))
    yield _off_grid(cat, 0.7303), _off_grid(induced_curve(shifted(caterpillar(40), 0.3125)), 0.7303)


def _reference_candidates(p, q) -> np.ndarray:
    """Every critical value, materialised: the independent reference for the
    implicit search.  Cross differences over all vertex pairs and half
    differences within each curve, sorted and distinct."""
    p, q = np.array(p), np.array(q)
    cross = np.abs(p[:, None] - q[None, :]).ravel()
    half_p = (np.abs(p[:, None] - p[None, :]) * 0.5).ravel()
    half_q = (np.abs(q[:, None] - q[None, :]) * 0.5).ravel()
    return np.unique(np.concatenate([cross, half_p, half_q]))


def _reference_distance(P, Q) -> float:
    """Plain binary search of the decision over the materialised candidates."""
    p, q = capped_heights(P, Q)
    cands = _reference_candidates(p, q)
    lo, hi = -1, len(cands) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if frechet._sweep(p, q, float(cands[mid])):
            hi = mid
        else:
            lo = mid
    return float(cands[hi])


@pytest.mark.parametrize("P, Q", list(_candidate_pairs()))
def test_candidates_from_distinct_heights_equal_all_points(P, Q):
    p, q = capped_heights(P, Q)
    old = _reference_candidates(p, q)
    new = frechet_candidates(P, Q)
    assert np.array_equal(old.view(np.int64), new.view(np.int64))
    # The implicit search's rows hold every exact candidate on the integer
    # scale, each pair of distinct heights once.
    p, q, _, _ = frechet._scaled(P, Q)
    values = [(arr[k] - base) // div for arr, base, div, s, e in frechet._rows(p, q) for k in range(s, e)]
    exact = {abs(a - b) for a in p for b in q}
    exact |= {abs(a - b) // 2 for c in (p, q) for a in c for b in c}
    assert set(values) == exact
    xs, ys = set(p), set(q)
    assert len(values) == len(xs) * len(ys) + sum(n * (n + 1) // 2 for n in (len(xs), len(ys)))


# Interior heights on a grid of quarters: few distinct values, so repeated
# heights, shared minima (LB == 0) and shifted copies (LB == U) are common.
_profiles = st.lists(st.integers(0, 12), min_size=1, max_size=12)


def _curve(profile, shift=0):
    return Curve1D.from_heights([INF] + [(h + shift) / 4 for h in profile] + [INF])


@settings(max_examples=150, deadline=None)
@given(_profiles, _profiles, st.sampled_from(["free", "shifted", "same-min", "one-vertex"]),
       st.booleans())
def test_implicit_search_equals_materialised_reference(a, b, shape, sample_all):
    P = _curve(a)
    if shape == "shifted":
        Q = _curve(a, shift=b[0] + 1)
    elif shape == "same-min":
        Q = _curve([min(a)] + [min(a) + h for h in b])
    elif shape == "one-vertex":
        Q = _curve(b[:1])
    else:
        Q = _curve(b)
    # With no listing allowance the search samples and counts to the end.
    with pytest.MonkeyPatch.context() as mp:
        if sample_all:
            mp.setattr(frechet, "_LIST_PER_VERTEX", 0)
        value = compute_frechet_value(P, Q)
        full, matching = compute_frechet(P, Q)
    expected = _reference_distance(P, Q)
    assert value == full == expected
    assert matching.cost() <= value
    p, q = capped_heights(P, Q)
    lb = abs(min(p) - min(q))
    ub = frechet._greedy_coupling_cost(p, q)
    assert lb <= value <= ub
    # The persistence bound lies between the essential bars' and the optimum
    # (quarters are exact on the scale).
    sp, sq, _, scale = frechet._scaled(P, Q)
    assert lb <= frechet._persistence_bound(sp, sq, abs(min(sp) - min(sq))) / scale <= expected
    if shape == "shifted":
        assert lb == ub == value
    if shape == "same-min":
        assert lb == 0.0


@pytest.mark.parametrize("n", [32, 80])
def test_greedy_cap_is_a_candidate_above_the_distance(n):
    base = caterpillar(n)
    rand = random.Random(n)
    pairs = [(base, shifted(base, k / 64), k / 64) for k in range(1, 65, 9)]
    pairs += [random_pair(rand, min_leaves=1, max_leaves=30) + (None,) for _ in range(8)]
    for a, b, shift in pairs:
        P, Q = induced_curve(a), induced_curve(b)
        p, q = capped_heights(P, Q)
        bound = frechet._greedy_coupling_cost(p, q)
        value = compute_frechet_value(P, Q)
        assert bound in frechet_candidates(P, Q)
        assert bound >= value
        if shift is not None:
            assert bound == value == shift


def _three_gap_coupling(p, q):
    """The greedy coupling as first written, every step computing all three
    gaps: the reference for the walk that tests the diagonal first.  Its
    cost and its coupled pairs."""
    N, M = len(p) - 1, len(q) - 1
    i = j = 0
    worst = abs(p[0] - q[0])
    pairs = [(0, 0)]
    while i < N or j < M:
        if i == N:
            j += 1
        elif j == M:
            i += 1
        else:
            diag = abs(p[i + 1] - q[j + 1])
            up = abs(p[i + 1] - q[j])
            right = abs(p[i] - q[j + 1])
            if diag <= worst or diag <= min(up, right):
                i += 1
                j += 1
            elif up <= right:
                i += 1
            else:
                j += 1
        worst = max(worst, abs(p[i] - q[j]))
        pairs.append((i, j))
    return worst, pairs


def test_greedy_coupling_equals_the_three_gap_reference():
    rand = random.Random(20261020)
    pairs = []
    for k in range(150):
        a, b = random_pair(rand, min_leaves=1, max_leaves=30)
        P, Q = induced_curve(a), induced_curve(b)
        pairs += [(P, Q), (_off_grid(P, 0.7303 + k / 997), _off_grid(Q, 0.7303 + k / 997))]
    for n in (1, 7, 32, 80):
        base = caterpillar(n)
        pairs += [(induced_curve(base), induced_curve(shifted(base, k / 64))) for k in range(1, 65)]
    for P, Q in pairs:
        p, q, _, _ = frechet._scaled(P, Q)
        coupled = []
        cost = frechet._greedy_coupling_cost(p, q, coupled)
        assert (cost, coupled) == _three_gap_coupling(p, q)
        assert frechet._greedy_coupling_cost(p, q) == cost


def _coupling_witness(P, Q):
    """The matching ``compute_frechet`` returns where the optimum is the greedy
    coupling's cost: one vertex step per pair of the reference coupling.
    None where the search accepts a smaller candidate."""
    p, q, _, scale = frechet._scaled(P, Q)
    c, ub = frechet._search(p, q)
    if c != ub:
        return None
    _, pairs = _three_gap_coupling(p, q)
    steps = tuple(frechet.MatchStep(float(i), float(j), p[i] / scale, q[j] / scale, i, j) for i, j in pairs)
    return frechet.Matching(steps, frechet._rounded_up(c, scale))


def _search_pairs():
    """Seeded dyadic pairs, the same scaled off the grid, and caterpillar shifts."""
    rand = random.Random(20261019)
    for k in range(24):
        a, b = random_pair(rand, min_leaves=1, max_leaves=14)
        P, Q = induced_curve(a), induced_curve(b)
        yield P, Q
        yield _off_grid(P, 0.7303 + k / 97), _off_grid(Q, 0.7303 + k / 97)
    for n in (12, 32):
        base = caterpillar(n)
        for k in (1, 17, 40, 63):
            yield induced_curve(base), induced_curve(shifted(base, k / 64))


def _swept_witness(P, Q):
    """The matching ``compute_frechet`` returns where the search accepts a
    candidate ``c`` below the greedy coupling's cost: ``extract_matching`` at
    the value where ``c`` is the value on the search's scale, and otherwise
    the backtrack of one recording sweep at ``c`` itself."""
    p, q, _, scale = frechet._scaled(P, Q)
    c, _ = frechet._search(p, q)
    value = compute_frechet_value(P, Q)
    if Fraction(value) * scale == c:
        return extract_matching(P, Q, value)
    return frechet._backtrack(p, q, scale, value, frechet._reached(p, q, c, value))


def test_compute_frechet_backtracks_the_search_sweep(monkeypatch):
    # compute_frechet walks the greedy coupling once, inside the search.
    # Where the optimum is the coupling's cost, the matching is that walk's
    # coupling, and compute_frechet sweeps and builds column tables exactly
    # as often as compute_frechet_value.  Elsewhere the matching comes from
    # one recording sweep at the search's exact optimum, which builds its own
    # table, so compute_frechet sweeps and builds exactly once more.
    counts = {"_sweep": 0, "_columns": 0, "_greedy_coupling_cost": 0}

    def counted(name):
        original = getattr(frechet, name)

        def call(*args):
            counts[name] += 1
            return original(*args)
        return call

    pairs = list(_search_pairs())
    coupled = off_value = 0
    for P, Q in pairs:
        expected_value = compute_frechet_value(P, Q)
        expected = _coupling_witness(P, Q)
        coupled += expected is not None
        swept = expected is None
        if swept:
            expected = _swept_witness(P, Q)
            p, q, _, scale = frechet._scaled(P, Q)
            off_value += Fraction(expected_value) * scale != frechet._search(p, q)[0]
        with monkeypatch.context() as mp:
            for name in counts:
                mp.setattr(frechet, name, counted(name))
            counts.update(dict.fromkeys(counts, 0))
            compute_frechet_value(P, Q)
            value_counts = dict(counts)
            counts.update(dict.fromkeys(counts, 0))
            value, matching = compute_frechet(P, Q)
        assert counts == {"_sweep": value_counts["_sweep"] + swept, "_columns": value_counts["_columns"] + swept,
                          "_greedy_coupling_cost": 1}
        assert value == expected_value
        assert matching.delta == expected.delta
        # repr tells -0.0 from 0.0, so the steps agree bit for bit.
        assert repr(matching.steps) == repr(expected.steps)
    # Every caterpillar shift and a few random pairs take the coupling, and
    # some off-grid optima are no float.
    assert 8 < coupled < len(pairs)
    assert off_value > 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
@example(seed=9, off_grid=False)
def test_compute_frechet_sweeps_on_the_search_scale(seed, off_grid):
    # The rounded-up value is an exact integer on the search's scale, and the
    # matching is the greedy coupling, walked once, where its cost is the
    # optimum, and otherwise the one swept at the optimum: on dyadic heights,
    # where the optimum is the value, extract_matching's at the value step for
    # step, also where _scaled(P, Q, value) takes twice the scale (seed 9).
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=10)
    P, Q = induced_curve(a), induced_curve(b)
    if off_grid:
        s = 0.5 + rand.random()
        P, Q = _off_grid(P, s), _off_grid(Q, s)
    scale = frechet._scaled(P, Q)[3]
    with mock.patch.object(frechet, "_greedy_coupling_cost", wraps=frechet._greedy_coupling_cost) as walk:
        value, matching = compute_frechet(P, Q)
    assert walk.call_count == 1
    assert (Fraction(value) * scale).denominator == 1
    if seed == 9 and not off_grid:
        assert frechet._scaled(P, Q, value)[3] == 2 * scale
    if not off_grid:
        p, q, _, _ = frechet._scaled(P, Q)
        assert Fraction(value) * scale == frechet._search(p, q)[0]
    coupling = _coupling_witness(P, Q)
    expected = _swept_witness(P, Q) if coupling is None else coupling
    assert repr(matching) == repr(expected)


def test_search_builds_one_column_table_per_pair(monkeypatch):
    # The search builds the column table of q once and hands it to every
    # decision it makes; on a caterpillar shift it decides nothing and builds
    # none.  The decisions themselves are pinned: on this batch the search
    # decided 495 times before the table existed, with the cap two units of
    # the scale above 2 max - min, and decides 481 times with the cap of
    # cap_height on the scale, which leaves the bracket sooner, and 284 times
    # once it decides the persistence bound first, which is often the optimum.
    rand = random.Random(20261019)
    pairs = []
    for k in range(40):
        a, b = random_pair(rand, min_leaves=1, max_leaves=12)
        P, Q = induced_curve(a), induced_curve(b)
        pairs += [(P, Q), (_off_grid(P, 0.7303 + k / 97), _off_grid(Q, 0.7303 + k / 97))]
    builds, tables, decisions = [0], [], [0]
    columns, sweep = frechet._columns, frechet._sweep

    def counted_columns(q):
        builds[0] += 1
        return columns(q)

    def counted_sweep(p, q, delta, reached=None, cols=None):
        decisions[0] += 1
        tables.append(cols)
        return sweep(p, q, delta, reached, cols)

    monkeypatch.setattr(frechet, "_columns", counted_columns)
    monkeypatch.setattr(frechet, "_sweep", counted_sweep)
    for P, Q in pairs:
        builds[0] = 0
        tables.clear()
        compute_frechet_value(P, Q)
        assert builds[0] == 1 and tables
        assert tables[0] is not None and all(cols is tables[0] for cols in tables)
    assert decisions[0] == 284
    base = caterpillar(32)
    builds[0] = decisions[0] = 0
    assert compute_frechet_value(induced_curve(base), induced_curve(shifted(base, 17 / 64))) == 17 / 64
    assert builds[0] == decisions[0] == 0


def _tree_bars(tree, scale: int) -> list[tuple[int, int]]:
    """The finite bars ``(death, birth)`` of a merge tree by the elder rule,
    sorted, on the integer scale: at each vertex, every child but one with
    the lowest subtree minimum dies.  Subtree minima are read in reverse
    pre-order."""
    low, bars = {}, []
    for v in reversed(tree.vertices):
        kids = tree.children(v)
        if not kids:
            low[v] = tree.height(v)
            continue
        mins = sorted(low[c] for c in kids)
        low[v] = mins[0]
        bars += [(tree.height(v), m) for m in mins[1:]]
    return sorted((int(Fraction(d) * scale), int(Fraction(b) * scale)) for d, b in bars)


def test_curve_bars_are_the_elder_rule_bars_of_the_tree():
    # The stack pass over the induced curve finds the bars of the tree, as a
    # multiset, also where leaves or merges share a height (coarse grids,
    # caterpillars, three-child merges).
    rand = random.Random(20261020)
    trees = [random_pair(rand, min_leaves=1, max_leaves=30, grid=grid) for grid in (8, 64, 2**20) * 40]
    trees += [(caterpillar(n), shifted(caterpillar(n), 17 / 64)) for n in (1, 2, 40)]
    for a, b in trees:
        p, q, _, scale = frechet._scaled(induced_curve(a), induced_curve(b))
        assert sorted(frechet._bars(p)) == _tree_bars(a.tree, scale)
        assert sorted(frechet._bars(q)) == _tree_bars(b.tree, scale)


@pytest.mark.parametrize("n", [32, 80])
def test_caterpillar_shifts_never_compute_the_persistence_bound(n, monkeypatch):
    # On a caterpillar and its shift the essential bars meet the greedy
    # coupling's cost, so the search stops before the bars are read.
    calls = [0]
    bound = frechet._persistence_bound

    def counted(*args):
        calls[0] += 1
        return bound(*args)

    monkeypatch.setattr(frechet, "_persistence_bound", counted)
    base = caterpillar(n)
    P = induced_curve(base)
    for k in range(1, 65):
        assert compute_frechet_value(P, induced_curve(shifted(base, k / 64))) == k / 64
    assert calls[0] == 0


# Interior heights of either sign with any 53-bit mantissa, across the
# magnitudes 2**-40 to 2**40: off every common float grid, so neither the
# candidates nor the optimum need be floats.
_wide_heights = st.lists(
    st.builds(lambda m, e, sign: sign * math.ldexp(m, e), st.floats(1.0, 2.0, exclude_max=True),
              st.integers(-40, 40), st.sampled_from([1.0, -1.0])),
    min_size=1, max_size=6)


def _exact_distance(P, Q) -> Fraction:
    """The optimum in Fractions: a binary search of the sweep over every
    candidate of the exact heights, the cap above them all."""
    finite = [Fraction(h) for h in P.heights[1:-1] + Q.heights[1:-1]]
    cap = 2 * max(finite) - min(finite) + 1
    p = [cap, *map(Fraction, P.heights[1:-1]), cap]
    q = [cap, *map(Fraction, Q.heights[1:-1]), cap]
    cands = sorted({abs(a - b) for a in p for b in q}
                   | {abs(a - b) / 2 for c in (p, q) for a in c for b in c})
    lo, hi = -1, len(cands) - 1  # the largest candidate is always feasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if frechet._sweep(p, q, cands[mid]):
            hi = mid
        else:
            lo = mid
    return cands[hi]


def _float_at_or_above(x: Fraction) -> float:
    """The least float at or above ``x``."""
    value = float(x)
    return math.nextafter(value, math.inf) if Fraction(value) < x else value


@settings(max_examples=200, deadline=None)
@given(_wide_heights, _wide_heights)
def test_value_is_the_exact_optimum_rounded_up(a, b):
    P, Q = Curve1D.from_heights([INF, *a, INF]), Curve1D.from_heights([INF, *b, INF])
    value = compute_frechet_value(P, Q)
    exact = _exact_distance(P, Q)
    assert value == _float_at_or_above(exact)
    # The persistence bound lies between the essential bars' and the exact
    # optimum, on the scale that holds both.
    p, q, _, scale = frechet._scaled(P, Q)
    lb = abs(min(p) - min(q))
    assert lb <= frechet._persistence_bound(p, q, lb) <= exact * scale
    # The least float the decision accepts, and a witness there.
    assert decide_frechet(P, Q, value)
    if value > 0:
        assert not decide_frechet(P, Q, math.nextafter(value, 0))
    assert extract_matching(P, Q, value).verify_monotone()


def test_off_grid_optimum_is_rounded_up():
    # The optimum c is half the depth of Q's valley at 0.4977 between its two
    # peaks at 1.0439.  c is no float but the midpoint of two; the lower one,
    # where rounding to nearest puts c, is refused, so the value is the upper.
    P = Curve1D((INF, 0.5084712621930755, 0.5838003380735312, 0.5273035311631894, INF))
    Q = Curve1D((INF, 0.46007430225339685, 1.0438746987069618, 0.883800396453565, 0.8932165318802354,
                 0.49773884396007845, 1.0438746987069618, 0.8367197193202129, INF))
    c = (Fraction(1.0438746987069618) - Fraction(0.49773884396007845)) / 2
    value = compute_frechet_value(P, Q)
    assert value == 0.2730679273734417
    assert Fraction(math.nextafter(value, 0)) < c < Fraction(value)
    assert not decide_frechet(P, Q, math.nextafter(value, 0))


def _scaled_by_division(P, Q, delta=0.0):
    """The integer scale written as multiplication by ``scale // d``."""
    cap_height(P, Q)
    rp = [h.as_integer_ratio() for h in P.heights[1:-1]]
    rq = [h.as_integer_ratio() for h in Q.heights[1:-1]]
    dn, dd = delta.as_integer_ratio()
    scale = 2 * max([dd] + [d for _, d in rp + rq])
    p = [n * (scale // d) for n, d in rp]
    q = [n * (scale // d) for n, d in rq]
    cap = 2 * max(p + q) - min(p + q) + scale
    return [cap, *p, cap], [cap, *q, cap], dn * (scale // dd), scale


# Every finite magnitude whose range cap_height accepts, subnormals included.
_any_heights = st.lists(st.floats(-2.0**1021, 2.0**1021), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(_any_heights, _any_heights, st.one_of(st.just(0.0), st.floats(5e-324, 2.0**1021)))
def test_scaled_shifts_give_the_integers_of_division(a, b, delta):
    P, Q = Curve1D.from_heights([INF, *a, INF]), Curve1D.from_heights([INF, *b, INF])
    assert frechet._scaled(P, Q, delta) == _scaled_by_division(P, Q, delta)


def test_scaled_refuses_what_cap_height_refuses():
    P, Q = Curve1D((INF, -1e308, INF)), Curve1D((INF, 1e308, INF))
    with pytest.raises(ValueError, match="too wide a range to cap") as refused:
        cap_height(P, Q)
    with pytest.raises(ValueError) as scaled:
        frechet._scaled(P, Q)
    assert str(scaled.value) == str(refused.value)
    # The least subnormal, 2**-1074, becomes the even integer 2 on the scale 2**1075.
    p, _, _, scale = frechet._scaled(Curve1D((INF, 5e-324, INF)), Curve1D((INF, 0.0, INF)))
    assert p[1] == 2 and scale == 2**1075
