import bisect
import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtdist import curves
from omtdist.curves import (
    CurveTrace,
    ViolatingSubcurve,
    classify_curve,
    contract_violating,
    count_visits,
    find_violating_subcurves,
    in_order_walk,
    interleaving_to_matching,
    planted_walk,
    visits,
)
from omtdist.curve1d import induced_curve
from omtdist.frechet import Matching, MatchStep, compute_frechet
from omtdist.interleaving import (
    CertificateError,
    CheckFailure,
    ImageFloor,
    ShiftMap,
    _t2_witness,
    check_good_map,
    check_interleaving,
    check_monotone,
    leg_point,
    maps_from_pairs,
    matched_points,
    matching_to_interleaving,
    monotone_interleaving_distance,
    pair_gap,
    witness_points,
)
from omtdist.labelling import (
    Labelling,
    check_label_distance,
    check_monotone_labelling,
    good_to_labelling,
    labelling_to_interleaving,
    matching_to_labelling,
)
from omtdist.randomtrees import caterpillar, random_omt, random_pair, shifted
from omtdist.trees import HEIGHT_TOL, INF, MergeTree, TreePoint, points_close
from omtdist.ordering import OrderedMergeTree

from conftest import scaled


def _omt(parent, height, order):
    tree = MergeTree(parent, height, order)
    return OrderedMergeTree(tree, tree.leaves)


def _identity_pair(omt):
    images = {u: omt.tree.point(u) for u in omt.tree.leaves}
    return (
        ShiftMap(omt, omt, 0.0, dict(images)),
        ShiftMap(omt, omt, 0.0, dict(images)),
    )


def test_identity_interleaving_ok(tree_a):
    a, b = _identity_pair(tree_a)
    assert check_interleaving(a, b) is None
    assert check_monotone(a) is None


def test_optimal_pair_verifies(tree_a, tree_b):
    delta, (alpha, beta) = monotone_interleaving_distance(tree_a, tree_b)
    assert delta == 1.0
    assert check_interleaving(alpha, beta) is None
    assert check_monotone(alpha) is None and check_monotone(beta) is None


def test_wrong_delta_fails_c1(tree_a, tree_b):
    # The maps arrive validated; a replaced copy gets a verdict of its own.
    _, (alpha, beta) = monotone_interleaving_distance(tree_a, tree_b)
    a_half, b_half = (m._replace(delta=0.5) for m in (alpha, beta))
    assert "_verdict" in alpha.__dict__ and "_verdict" not in a_half.__dict__
    bad = check_interleaving(a_half, b_half)
    assert bad is not None and bad.condition == "C1"
    assert a_half.validate().condition == "C1" and alpha.validate() is None


def test_mismatched_deltas_rejected(tree_a, tree_b):
    _, (alpha, beta) = monotone_interleaving_distance(tree_a, tree_b)
    alpha = alpha._replace(delta=2.0)
    with pytest.raises(CertificateError):
        check_interleaving(alpha, beta)


def test_shift_maps_are_immutable(tree_a, tree_b):
    _, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    for field in ("delta", "leaf_images"):
        with pytest.raises(AttributeError):
            setattr(alpha, field, getattr(alpha, field))
    # So is the labelling a certificate carries.
    lab = good_to_labelling(alpha)
    for field in ("pi", "pi_prime"):
        with pytest.raises(AttributeError):
            setattr(lab, field, getattr(lab, field))


def test_crossed_map_fails_monotone(tree_a, tree_b):
    # Send u1 above w2 and u2 above w1: order-reversing but height-consistent.
    alpha = ShiftMap(
        tree_a,
        tree_b,
        1.0,
        {"u1": TreePoint("w2", 1.0), "u2": TreePoint("w1", 2.0)},
    )
    assert alpha.validate() is None
    bad = check_monotone(alpha)
    assert bad is not None and bad.condition == "monotone"


def test_matching_to_interleaving_identity(tree_a):
    walk = in_order_walk(tree_a)
    value, matching = compute_frechet(walk.curve(), walk.curve())
    matched = matched_points(tree_a, tree_a, matching)
    alpha, beta = matching_to_interleaving(tree_a, tree_a, matched, 0.0)
    for u in tree_a.tree.leaves:
        assert alpha.leaf_images[u] == tree_a.tree.point(u)
    assert check_interleaving(alpha, beta) is None


def test_matching_to_interleaving_example(tree_a, tree_b):
    value, matching = compute_frechet(induced_curve(tree_a), induced_curve(tree_b))
    matched = matched_points(tree_a, tree_b, matching)
    alpha, beta = matching_to_interleaving(tree_a, tree_b, matched, value)
    assert alpha.leaf_images["u1"].height == 1.0
    assert check_interleaving(alpha, beta) is None
    assert check_monotone(alpha) is None and check_monotone(beta) is None


def test_matching_to_interleaving_rejects_unmatched(tree_a, tree_b):
    value, matching = compute_frechet(induced_curve(tree_a), induced_curve(tree_b))
    matched = matched_points(tree_a, tree_b, matching)
    with pytest.raises(CertificateError, match="matched"):
        matching_to_interleaving(tree_a, tree_b, matched, value / 2)


def test_matching_conversions_refuse_misaligned_or_short_point_lists(tree_a, tree_b):
    # Unequal lists would be cut to the shorter one, and one pair has no
    # parameter to name; both conversions refuse rather than guess.
    a, b = tree_a.tree, tree_b.tree
    xs = [a.point(a.root), a.point("u1"), a.point("u2"), a.point(a.root)]
    ys = [b.point(b.root), b.point("w1"), b.point("w2"), b.point(b.root)]
    for px, py in ((xs, ys[:-1]), (xs[:-1], ys)):
        with pytest.raises(CertificateError, match="^paired point lists differ in length: "):
            matching_to_interleaving(tree_a, tree_b, (px, py), 1.0)
        with pytest.raises(CertificateError, match="^paired point lists differ in length: "):
            matching_to_labelling(tree_a, tree_b, (px, py))
    for n in (0, 1):
        with pytest.raises(CertificateError, match=f"^a matching needs at least two pairs, got {n}$"):
            matching_to_interleaving(tree_a, tree_b, ([a.point("u1")] * n, [b.point(b.root)] * n), 0.5)


def test_maps_from_pairs_reads_each_leaf_off_its_first_pair(tree_a, tree_b):
    delta, (alpha, beta) = monotone_interleaving_distance(tree_a, tree_b)
    a, b = tree_a.tree, tree_b.tree
    xs = [a.point(u) for u in a.leaves] + [beta.leaf_images[w] for w in b.leaves]
    ys = [alpha.leaf_images[u] for u in a.leaves] + [b.point(w) for w in b.leaves]
    got = maps_from_pairs(tree_a, tree_b, xs, ys, delta)
    assert [m.leaf_images for m in got] == [alpha.leaf_images, beta.leaf_images]
    # A later pair at a leaf must agree with the first one.
    with pytest.raises(CertificateError, match="^paired points give conflicting images for leaf 'u1'$"):
        maps_from_pairs(tree_a, tree_b, xs + [a.point("u1")], ys + [b.point(b.root)], delta)
    # Every leaf must be paired; the unpaired ones are listed in leaf order.
    with pytest.raises(CertificateError, match=r"^leaves paired with no point: \['u1', 'u2'\]$"):
        maps_from_pairs(tree_a, tree_b, [], [], delta)
    with pytest.raises(CertificateError, match=r"^leaves paired with no point: \['u1'\]$"):
        maps_from_pairs(tree_a, tree_b, xs[1:], ys[1:], delta)
    # Both maps must validate: paired with w1, u1 lands 1 above itself at delta 0.
    with pytest.raises(CertificateError, match="^induced map is inconsistent: C1: image of leaf 'u1' "):
        maps_from_pairs(tree_a, tree_b, xs[:2], [b.point("w1"), b.point("w2")], 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_aligned_breakpoints_form_a_labelling_that_induces_the_same_maps(seed):
    # A delta-matching and a monotone delta-labelling induce the interleaving
    # by one rule, so the matching read as a labelling gives the same maps.
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=8)
    delta, matching = compute_frechet(induced_curve(a), induced_curve(b))
    matched = matched_points(a, b, matching)
    want = matching_to_interleaving(a, b, matched, delta)
    # The full set of aligned pairs, and its subset that the certificate
    # keeps: the first aligned pair at each leaf of either tree.
    full = Labelling(a, b, *map(tuple, matched))
    leaf_pairs = matching_to_labelling(a, b, matched)
    assert leaf_pairs.size <= len(a.tree.leaves) + len(b.tree.leaves)
    for lab in (full, leaf_pairs):
        assert lab.validate() is None  # every leaf on both sides carries a label
        assert check_monotone_labelling(lab) is None
        assert check_label_distance(lab, delta) is None
        got = labelling_to_interleaving(lab, delta)
        assert [m.leaf_images for m in got] == [m.leaf_images for m in want]


def test_interleaving_to_matching_identity(tree_a):
    a, b = _identity_pair(tree_a)
    xs, ys = interleaving_to_matching(a, b)
    assert pair_gap(xs, ys)[0] == 0.0
    assert classify_curve(tree_a, CurveTrace.uniform(tree_a.tree, xs)) == "in_order"
    assert classify_curve(tree_a, CurveTrace.uniform(tree_a.tree, ys)) == "in_order"


def test_interleaving_to_matching_optimal(tree_a, tree_b):
    delta, (alpha, beta) = monotone_interleaving_distance(tree_a, tree_b)
    xs, ys = interleaving_to_matching(alpha, beta)
    assert pair_gap(xs, ys)[0] == delta == 1.0
    assert classify_curve(tree_b, CurveTrace.uniform(tree_b.tree, ys)) == "in_order"


def test_interleaving_to_matching_rejects_invalid(tree_a, tree_b):
    alpha = ShiftMap(
        tree_a,
        tree_b,
        1.0,
        {"u1": TreePoint("w2", 1.0), "u2": TreePoint("w1", 2.0)},
    )
    beta = ShiftMap(
        tree_b,
        tree_a,
        1.0,
        {"w1": TreePoint("u2", 2.0), "w2": TreePoint("u1", 1.0)},
    )
    with pytest.raises(CertificateError):
        interleaving_to_matching(alpha, beta)


def _construction_digests():
    """sha256 over the reprs of ``interleaving_to_matching`` and of
    ``find_violating_subcurves`` on the pushed walk, for both map orders of
    the maps read off each pair's witness points at its delta and half a
    unit above: 200 random pairs of at most 12 leaves, then 8 caterpillar
    shifts."""
    rand = random.Random(20261022)
    pairs = [random_pair(rand, min_leaves=1, max_leaves=12, multi_child_prob=0.4) for _ in range(200)]
    pairs += [(caterpillar(n), shifted(caterpillar(n), c)) for n in (3, 7) for c in (0.25, 0.5, 1.0, 3.0)]
    matchings, violating = hashlib.sha256(), hashlib.sha256()
    for a, b in pairs:
        delta, (xs, ys) = witness_points(a, b)
        for d in (delta, delta + 0.5):
            alpha, beta = maps_from_pairs(a, b, xs, ys, d)
            for m1, m2 in ((alpha, beta), (beta, alpha)):
                matchings.update(repr(interleaving_to_matching(m1, m2)).encode() + b"\0")
                walk = in_order_walk(m1.source)
                pushed = [m1.apply(x) for x in walk.points]
                found = find_violating_subcurves(CurveTrace(m1.target.tree, walk.params, pushed, validate=False))
                violating.update(repr(found).encode() + b"\0")
    return matchings.hexdigest(), violating.hexdigest()


def test_interleaving_to_matching_and_violating_subcurves_are_pinned():
    # Computed with the splice rule that tabled the child entered between
    # each two visits, and the search that ended by dropping nested
    # subcurves: the direct rules must give the same outputs.
    assert _construction_digests() == (
        "8cfc2accf2532b40136a6ace37d69a6b69208f666f7f2e3563c7fba7f7d78c2c",
        "8e1ab21119ece1a9f02be6f70f1ebe8a193eb8c1d206b45a737fbb489e6d9183",
    )


def test_distance_identity_and_example(tree_a, tree_b):
    assert monotone_interleaving_distance(tree_a, tree_a)[0] == 0.0
    assert monotone_interleaving_distance(tree_a, tree_b)[0] == 1.0


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_distance_height_shift_law(c, rng):
    omt = random_omt(rng, min_leaves=2, max_leaves=8)
    d, _ = monotone_interleaving_distance(omt, shifted(omt, c))
    assert d == c


def test_good_map_optimal_passes_both_variants(tree_a, tree_b):
    _, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    assert check_good_map(alpha, "TW") is None
    assert check_good_map(alpha, "G") is None


def test_good_map_deep_unvisited_subtree_fails():
    # Map a single-leaf tree into one branch of a deep pair: the other branch
    # is unvisited with depth 5 > 2 * delta.
    t = MergeTree({"root": None, "u": "root"}, {"root": INF, "u": 0.0})
    src = OrderedMergeTree(t, t.leaves)
    t2 = MergeTree(
        {"root": None, "v": "root", "a": "v", "b": "v"},
        {"root": INF, "v": 5.0, "a": 0.0, "b": 0.0},
    )
    dst = OrderedMergeTree(t2, t2.leaves)
    alpha = ShiftMap(src, dst, 1.0, {"u": TreePoint("a", 1.0)})
    assert alpha.validate() is None
    tw = check_good_map(alpha, "TW")
    g = check_good_map(alpha, "G")
    assert tw is not None and tw.condition == "T3"
    assert g is not None and g.condition == "G3"


def _violating_subcurves_reference(trace):
    """The maximal violating subcurves by a rescan of the trace at every
    breakpoint and vertex height, ascending, skipping the runs inside a
    subcurve found at a lower level."""
    tree, pts = trace.tree, trace.points
    heights = [p.height for p in pts]
    found = []
    for c in sorted({h for h in heights if math.isfinite(h)} | set(tree.finite_heights())):
        i, n = 0, len(pts)
        while i < n:
            if heights[i] <= c:
                i += 1
                continue
            j = i
            while j + 1 < n and heights[j + 1] > c:
                j += 1
            if i > 0 and j < n - 1:
                left, right = trace.param_at(i - 1, c), trace.param_at(j, c)
                lp = leg_point(tree, pts[i - 1], pts[i], c)
                rp = leg_point(tree, pts[j], pts[j + 1], c)
                if lp == rp and left < right and not any(v.left <= left and right <= v.right for v in found):
                    found.append(ViolatingSubcurve(left, right, lp))
            i = j + 1
    return sorted(found, key=lambda v: (v.left, -v.right))


def _point_at_height(trace, t, h):
    """The breakpoint at parameter ``t``, else the point at height ``h`` of the leg holding ``t``."""
    k = bisect.bisect_right(trace.params, t) - 1
    if trace.params[k] == t:
        return trace.points[k]
    return leg_point(trace.tree, trace.points[k], trace.points[k + 1], h)


def _interleaving_to_matching_reference(a, b):
    """``interleaving_to_matching`` on float parameters, contracting by the
    rescan above, aligning the walk with the contracted image on the union
    of their params, and splicing each missed subtree at a visit of its
    attach point found by scanning the whole trace: the last visit before
    the first breakpoint strictly below the attach point in a subtree right
    of the top, else the last visit."""
    walk = in_order_walk(a.source)
    dst_tree = a.target.tree
    pushed = CurveTrace(dst_tree, list(walk.params), [a.apply(x) for x in walk.points], validate=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "find_violating_subcurves", _violating_subcurves_reference)
        contracted, _ = contract_violating(pushed)
    params = sorted(set(walk.params) | set(contracted.params))
    right_pts = [contracted.point_at(t) for t in params]
    left_pts = [_point_at_height(walk, t, rp.height - a.delta) for t, rp in zip(params, right_pts)]
    left_trace = CurveTrace(a.source.tree, params, left_pts, validate=False)
    right_trace = CurveTrace(dst_tree, params, right_pts, validate=False)
    jobs = []
    for v, attach in ImageFloor(dst_tree, pushed.points).maximal_unvisited():
        events = visits(right_trace, attach)
        start, end = dst_tree.leaf_span(v)
        u_param = events[-1][0]
        for t, pt in zip(params, right_pts):
            if pt.height < attach.height and dst_tree.is_ancestor(pt, attach) and dst_tree.leaf_span(pt.anchor)[0] >= end:
                u_param = [s for s, _ in events if s < t][-1]
                break
        jobs.append((u_param, start, attach, v))
    jobs.sort(key=lambda j: (j[0], j[1]))
    for u_param, _start, attach, v in reversed(jobs):
        k = bisect.bisect_left(params, u_param)
        if k == len(params) or params[k] != u_param:
            left_pts.insert(k, _point_at_height(left_trace, u_param, attach.height - a.delta))
            right_pts.insert(k, attach)
            params.insert(k, u_param)
        block = planted_walk(dst_tree, v, attach)
        params[k + 1 : k + 1] = [u_param] * len(block)
        right_pts[k + 1 : k + 1] = block
        left_pts[k + 1 : k + 1] = [left_pts[k]] * len(block)
    return left_pts, right_pts


def test_interleaving_to_matching_and_violating_subcurves_match_the_rescan_references():
    # Inputs the pinned digests lack: larger random pairs with wide vertices,
    # a longer caterpillar, and maps lifted or lowered off the witness; then
    # pairs scaled off the dyadic grid, where float params could round.
    rand = random.Random(20261023)
    pairs = [random_pair(rand, min_leaves=20, max_leaves=60, multi_child_prob=0.4) for _ in range(8)]
    pairs += [(caterpillar(32), shifted(caterpillar(32), c)) for c in (0.25, 17 / 64, 3.0)]
    maps = []
    for a, b in pairs:
        delta, (xs, ys) = witness_points(a, b)
        maps += [maps_from_pairs(a, b, xs, ys, delta + d) for d in (0, 1 / 64, 1 / 8, 1 / 2, 2)]
        alpha, beta = maps[-5]
        maps += [(_lifted(alpha, 0.25), _lifted(beta, 0.25)), (_lowered(alpha, rand), _lowered(beta, rand))]
    for s in (math.pi, 1e-7 * math.e, 3.3e5, 1.37 * 2**24):
        for _ in range(3):
            a, b = (scaled(t, s) for t in random_pair(rand, min_leaves=10, max_leaves=40, grid=2**20))
            delta, (xs, ys) = witness_points(a, b)
            for d in (0, 1 / 64, 1 / 8, 1 / 2):
                try:
                    maps.append(maps_from_pairs(a, b, xs, ys, delta * (1 + d)))
                except CertificateError:
                    pass
    seen = Counter()
    for m1, m2 in maps:
        for x, y in ((m1, m2), (m2, m1)):
            walk = in_order_walk(x.source)
            pushed = CurveTrace(x.target.tree, walk.params, [x.apply(p) for p in walk.points], validate=False)
            found = find_violating_subcurves(pushed)
            assert repr(found) == repr(_violating_subcurves_reference(pushed))
            assert repr(interleaving_to_matching(x, y)) == repr(_interleaving_to_matching_reference(x, y))
            seen["subcurves"] += len(found)
            seen["splices"] += len(ImageFloor(x.target.tree, pushed.points).maximal_unvisited())
            seen["maps"] += 1
    assert seen["subcurves"] and seen["splices"], seen


def test_interleaving_to_matching_reads_each_answer_off_one_pass():
    # No rescan: each subcurve costs two params and each splice at most one,
    # the search asks one lca height per pair of breakpoints it weighs, and
    # no pushed point climbs from its vertex's first leaf.
    a, b = caterpillar(200), shifted(caterpillar(200), 17 / 64)
    delta, (xs, ys) = witness_points(a, b)
    alpha, beta = maps_from_pairs(a, b, xs, ys, delta + 0.5)
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    class CountedParents(dict):
        def __getitem__(self, v):
            calls["parent"] += 1
            return super().__getitem__(v)

    for m1, m2 in ((alpha, beta), (beta, alpha)):
        walk = in_order_walk(m1.source)
        pushed = CurveTrace(m1.target.tree, walk.params, [m1.apply(x) for x in walk.points], validate=False)
        found = find_violating_subcurves(pushed)
        tops = ImageFloor(m1.target.tree, pushed.points).maximal_unvisited()
        assert found and tops
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CurveTrace, "param_at", counted("param_at", CurveTrace.param_at))
            mp.setattr(MergeTree, "lca_height", counted("lca_height", MergeTree.lca_height))
            for tree in (a.tree, b.tree):
                mp.setattr(tree, "_parent", CountedParents(tree._parent))
            interleaving_to_matching(m1, m2)
        assert calls["param_at"] <= 2 * len(found) + len(tops), calls
        assert calls["lca_height"] <= 2 * len(walk.points), calls
        assert calls["parent"] <= 25 * len(m1.source.tree.leaves), calls


def test_interleaving_to_matching_keeps_a_breakpoint_an_ulp_below_a_cut():
    # Off the dyadic grid the subcurve's level sits one ulp above the
    # breakpoint where it returns, which holds the attach point of a missed
    # leaf.  A float cut param rounds onto that breakpoint and drops it, so
    # the splice finds no visit; by index the walk keeps it after the cut.
    pair = random_pair(random.Random(396), min_leaves=2, max_leaves=8, multi_child_prob=0.4)
    a, b = (scaled(t, 1e-7 * math.e) for t in pair)
    delta, (xs, ys) = witness_points(a, b)
    alpha, beta = maps_from_pairs(a, b, xs, ys, delta * (1 + 1 / 8))
    walk = in_order_walk(beta.source)
    pushed = [beta.apply(x) for x in walk.points]
    trace = CurveTrace(a.tree, walk.params, pushed, validate=False)
    (cut,) = find_violating_subcurves(trace)
    assert math.nextafter(pushed[9].height, INF) == cut.point.height and cut.right == walk.params[9]
    assert pushed[9] not in contract_violating(trace)[0].points
    xs, ys = interleaving_to_matching(beta, alpha)
    assert pushed[9] in ys and pair_gap(xs, ys)[0] == beta.delta
    assert classify_curve(b, CurveTrace.uniform(b.tree, xs)) == "in_order"
    assert classify_curve(a, CurveTrace.uniform(a.tree, ys)) == "in_order"


def _single_path_map(src, dst, delta, leaf):
    """All leaves imaged onto the root path of one target leaf: consistent, often bad."""
    base = dst.tree.point(leaf)
    images = {}
    for u in src.tree.leaves:
        h = src.tree.height(u) + delta
        if h < base.height:
            return None
        images[u] = dst.tree.ancestor_at(base, h)
    return ShiftMap(src, dst, delta, images)


def _lifted(sm, bump):
    return ShiftMap(
        sm.source,
        sm.target,
        sm.delta + bump,
        {
            u: sm.target.tree.ancestor_at(sm.leaf_images[u], sm.source.tree.height(u) + sm.delta + bump)
            for u in sm.source.tree.leaves
        },
    )


def _test_maps(a, b, delta, alpha, beta):
    """Optimal, lifted and single-path maps between one pair."""
    maps = [alpha, beta, _lifted(alpha, 0.5)]
    for leaf in b.tree.leaves:
        for d in (delta, delta + 0.25):
            m = _single_path_map(a, b, d, leaf)
            if m is not None:
                maps.append(m)
    return maps


def _off_grid_g2_map():
    # Leaves u0 and u2 merge at m1, more than delta above the lca of their
    # images, which is the image of u0.  That image minus delta lands one ulp
    # below the height of u0, so a level set sampled there misses u0.
    a = _omt(
        {"root": None, "m2": "root", "m1": "m2", "u3": "m2", "u0": "m1", "m0": "m1", "u1": "m0", "u2": "m0"},
        {"root": INF, "m2": 2.2036865879241057, "m1": 2.147897054052609, "u3": 1.0600011435584304,
         "u0": 0.3905267371004744, "m0": 1.9247389185666237, "u1": 1.6736860161448903,
         "u2": 0.22315813548598537},
        {"root": ["m2"], "m2": ["m1", "u3"], "m1": ["u0", "m0"], "m0": ["u1", "u2"]},
    )
    b = _omt(
        {"root": None, "m1": "root", "u0": "m1", "u1": "m1", "m0": "m1", "u2": "m0", "u3": "m0"},
        {"root": INF, "m1": 2.2036865879241057, "u0": 0.3626319701647262, "u1": 0.7810534742009488,
         "m0": 1.8689493846951275, "u2": 1.6178964822733939, "u3": 0.976316842751186},
        {"root": ["m1"], "m1": ["u0", "u1", "m0"], "m0": ["u2", "u3"]},
    )
    alpha = ShiftMap(a, b, 0.8078953387149634, {
        "u0": TreePoint("u1", 1.1984220758154378),
        "u1": TreePoint("m1", 2.4815813548598538),
        "u2": TreePoint("u1", 1.0310534742009487),
        "u3": TreePoint("u1", 1.8678964822733939),
    })
    assert alpha.validate() is None
    return alpha


def test_good_map_g2_caught_off_the_dyadic_grid():
    alpha = _off_grid_g2_map()
    assert check_good_map(alpha, "TW").condition == "T2"
    assert check_good_map(alpha, "G").condition == "G2"


def _cherry_and_leaf(h0, h1, h_merge, h_leaf):
    """Leaves u0, u1 merging at m0, and a single leaf w, with off-grid heights."""
    a = _omt({"root": None, "m0": "root", "u0": "m0", "u1": "m0"},
             {"root": INF, "m0": h_merge, "u0": h0, "u1": h1}, None)
    b = _omt({"root": None, "w": "root"}, {"root": INF, "w": h_leaf}, None)
    return a, b


def test_c2_tolerates_rounding_below_a_merge():
    # The round trip of u1 climbs to (0.89 + delta) + delta, an ulp below
    # m0, on the edge of u0.
    a, b = _cherry_and_leaf(0.76, 0.89, 1.11, 0.87)
    _, (alpha, beta) = monotone_interleaving_distance(a, b)
    assert check_interleaving(alpha, beta) is None


def test_t2_and_labelling_tolerate_rounding_off_the_grid():
    # u0 lifted by 2 * delta lands an ulp below m0, on its own edge, and the
    # preimage level of the image of u1, (0.02 + delta) - delta, an ulp
    # below u1.
    a, b = _cherry_and_leaf(0.15, 0.02, 0.17, 0.01)
    delta, (alpha, _) = monotone_interleaving_distance(a, b)
    assert check_good_map(alpha, "TW") is None
    assert check_good_map(alpha, "G") is None
    lab = good_to_labelling(alpha)
    assert check_monotone_labelling(lab) is None
    assert lab.distance() <= delta + 1e-9


def test_monotone_of_a_lifted_map_off_the_grid():
    # Sampled level sets map to heights an ulp apart, which a layer
    # comparison refuses; the leaf images compare without that.
    a, b = _cherry_and_leaf(0.22, 0.65, 0.69, 0.83)
    _, (alpha, _) = monotone_interleaving_distance(a, b)
    assert check_monotone(_lifted(alpha, 0.5)) is None


def test_good_map_g_samples_no_level_sets(tree_a, tree_b, monkeypatch):
    _, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    bad = _off_grid_g2_map()

    def refuse(*args):
        raise AssertionError("the good-map check sampled the maps")

    monkeypatch.setattr(ShiftMap, "apply", refuse)
    monkeypatch.setattr(MergeTree, "level_set", refuse)
    for variant in ("TW", "G"):
        assert check_good_map(alpha, variant) is None
        assert check_good_map(bad, variant).condition == variant[0] + "2"


def _any_leaf_map(rand, src, dst, delta):
    """Each source leaf imaged above a random low enough target leaf, determined or not."""
    images = {}
    for u in src.tree.leaves:
        h = src.tree.height(u) + delta
        low = [w for w in dst.tree.leaves if dst.tree.height(w) <= h]
        if not low:
            return None
        images[u] = dst.tree.ancestor_at(dst.tree.point(rand.choice(low)), h)
    return ShiftMap(src, dst, delta, images)


def _random_leaf_map(rand, src, dst, delta):
    """As ``_any_leaf_map``, but None unless the map is determined."""
    m = _any_leaf_map(rand, src, dst, delta)
    return m if m is not None and m.validate() is None else None


def _sampled_heights(a):
    """Source vertex heights, target vertex heights shifted down by delta, and midpoints."""
    src = a.source.tree
    min_leaf = min(src.height(u) for u in src.leaves)
    hs = set(src.finite_heights())
    hs.update(h - a.delta for h in a.target.tree.finite_heights() if h - a.delta >= min_leaf)
    hs = sorted(hs)
    return sorted(set(hs) | {(x + y) / 2 for x, y in zip(hs, hs[1:])})


def _sampled_monotone(a):
    """Reference: the map keeps the order of every sampled source level set."""
    for h in _sampled_heights(a):
        pts = a.source.level_set(h)
        imgs = [a.apply(x) for x in pts]
        if any(i1 != i2 and a.target.compare(i1, i2) > 0 for i1, i2 in zip(imgs, imgs[1:])):
            return "monotone"
    return None


def _sampled_interleaving(a, b):
    """Reference C2/C4: the round trip of every vertex and of every level set at
    a vertex height of the other tree minus delta is the 2-delta ancestor."""
    for fwd, back, cond in ((a, b, "C2"), (b, a, "C4")):
        tree = fwd.source.tree
        witnesses = [tree.point(v) for v in tree.vertices if tree.height(v) != INF]
        min_leaf = min(tree.height(u) for u in tree.leaves)
        for h in back.source.tree.finite_heights():
            if h - fwd.delta >= min_leaf:
                witnesses.extend(tree.level_set(h - fwd.delta))
        for x in witnesses:
            expected = tree.ancestor_at(x, x.height + 2.0 * fwd.delta)
            if not points_close(tree, back.apply(fwd.apply(x)), expected):
                return cond
    return None


def _two_delta_up(tree, x, two_delta):
    return tree.ancestor_at(x, max(x.height + two_delta, x.height))


def _sampled_good_map(a):
    """Reference TW: T2 on every vertex and sampled level-set point x1 against
    every leaf x2, T3 leaf by leaf below each unvisited top found by scanning."""
    if a.validate() is not None:
        return "T1"
    src, dst = a.source.tree, a.target.tree
    two_delta = 2.0 * a.delta
    pts = [src.point(v) for v in src.vertices if src.height(v) != INF]
    for h in _sampled_heights(a):
        pts.extend(src.level_set(h))
    for x1 in pts:
        img1 = a.apply(x1)
        up1 = _two_delta_up(src, x1, two_delta + HEIGHT_TOL)
        for u in src.leaves:
            if dst.is_ancestor(a.leaf_images[u], img1):
                if not src.is_ancestor(_two_delta_up(src, src.point(u), two_delta), up1):
                    return "T2"
    for v, attach in _brute_image(dst, a.leaf_images.values())[2]:
        if any(attach.height - dst.height(u) > two_delta + HEIGHT_TOL for u in dst.subtree_leaves(v)):
            return "T3"
    return None


def test_good_map_variants_agree():
    rand = random.Random(20261019)
    seen = Counter()
    for k in range(60):
        a, b = random_pair(rand, min_leaves=1, max_leaves=7, multi_child_prob=0.4)
        if k % 2:
            s = rand.uniform(0.5, 2.0)
            a, b = scaled(a, s), scaled(b, s)
        delta, (alpha, beta) = monotone_interleaving_distance(a, b)
        maps = _test_maps(a, b, delta, alpha, beta)
        for d in (delta, delta + 0.25, delta + 0.5):
            maps += [_random_leaf_map(rand, a, b, d) for _ in range(3)]
        for m in filter(None, maps):
            want = _sampled_good_map(m)
            tw, g = check_good_map(m, "TW"), check_good_map(m, "G")
            assert (tw and tw.condition) == want, (tw, want)
            assert (g and g.condition) == (want and "G" + want[1]), (g, want)
            seen[want] += 1
            if want == "T2":
                # The witness violates T2 by definition.
                x1, x2 = tw.witness
                src, dst = m.source.tree, m.target.tree
                assert dst.is_ancestor(m.leaf_images[x2.anchor], m.apply(x1))
                up1 = _two_delta_up(src, x1, 2.0 * m.delta + 1e-9)
                assert not src.is_ancestor(_two_delta_up(src, x2, 2.0 * m.delta), up1)
    assert all(seen[tag] for tag in (None, "T2", "T3")), seen


def _first_g2_pair_reference(a, tol=1e-9):
    """The pair loop: the first source leaves i < j that merge more than
    delta + tol above the lca of their images."""
    src, dst = a.source.tree, a.target.tree
    leaves = [src.point(u) for u in src.leaves]
    imgs = [a.leaf_images[u] for u in src.leaves]
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            if src.lca(leaves[i], leaves[j]).height - dst.lca(imgs[i], imgs[j]).height > a.delta + tol:
                return i, j
    return None


def test_good_map_pair_check_matches_pair_loop():
    rand = random.Random(20261021)
    seen = Counter()
    for k in range(60):
        a, b = random_pair(rand, min_leaves=1, max_leaves=8, multi_child_prob=0.4)
        if k % 2:
            s = rand.uniform(0.5, 2.0)
            a, b = scaled(a, s), scaled(b, s)
        delta, (alpha, beta) = monotone_interleaving_distance(a, b)
        maps = _test_maps(a, b, delta, alpha, beta)
        for d in (delta, delta + 0.25, delta + 0.5):
            maps += [_random_leaf_map(rand, a, b, d) for _ in range(3)]
        for m in filter(None, maps):
            if m.validate() is not None:
                continue
            tw, g = check_good_map(m, "TW"), check_good_map(m, "G")
            pair = _first_g2_pair_reference(m)
            if pair is None:
                assert (tw and tw.condition) in (None, "T3") and (g and g.condition) in (None, "G3")
                seen["no pair"] += 1
                continue
            src, dst = m.source.tree, m.target.tree
            u_i, u_j = (src.point(src.leaves[k]) for k in pair)
            y = dst.lca(m.leaf_images[u_i.anchor], m.leaf_images[u_j.anchor])
            assert (tw.condition, tw.witness) == ("T2", (_t2_witness(m, u_i, y), u_j))
            assert (g.condition, g.witness) == ("G2", (y, src.lca(u_i, u_j)))
            seen["pair"] += 1
    assert min(seen.values()) > 20, seen


def test_good_map_pair_check_skips_a_leaf_against_itself():
    # With a negative delta a leaf merges with itself above its own image;
    # that is no pair of leaves, so the pair check must not fire.
    a = _omt({"root": None, "u": "root"}, {"root": INF, "u": 0.0}, None)
    m = ShiftMap(a, shifted(a, -0.5), -0.5, {"u": TreePoint("u", -0.5)})
    assert m.validate() is None and _first_g2_pair_reference(m) is None
    assert check_good_map(m, "TW") is None and check_good_map(m, "G") is None


def test_t2_witness_image_reaches_past_rounding():
    # The images of source leaves u1 and u4 meet at m0, at height L, and
    # (L - delta) + delta rounds an ulp below L, so the witness above u1
    # must sit an ulp higher for its image to reach m0.
    a = _omt(
        {"root": None, "m2": "root", "m1": "m2", "u0": "m1", "u1": "m1", "m0": "m1", "u2": "m0", "u3": "m0", "u4": "m2"},
        {"root": INF, "m2": 2.2922881448357466, "m1": 1.9648184098592114, "u0": 1.1610290603713522,
         "u1": 1.071719132650479, "m0": 1.8457385062313805, "u2": 0.5358595663252395,
         "u3": 1.667118650789634, "u4": 0.833559325394817},
        {"root": ["m2"], "m2": ["m1", "u4"], "m1": ["u0", "u1", "m0"], "m0": ["u2", "u3"]},
    )
    b = _omt(
        {"root": None, "m2": "root", "u0": "m2", "u1": "m2", "m1": "m2", "u2": "m1", "m0": "m1", "u3": "m0", "u4": "m0", "u5": "m0"},
        {"root": INF, "m2": 1.905278458045296, "u0": 0.9228692531156902, "u1": 0.5060895904182817,
         "m1": 1.8159685303244226, "u2": 1.7564285785105072, "m0": 1.6968886266965917,
         "u3": 1.399188867627014, "u4": 0.8633293013017748, "u5": 0.29769975906957746},
        {"root": ["m2"], "m2": ["u0", "u1", "m1"], "m1": ["u2", "m0"], "m0": ["u3", "u4", "u5"]},
    )
    alpha = ShiftMap(a, b, 0.5358595663252396, {
        "u0": TreePoint("u1", 1.696888626696592),
        "u1": TreePoint("u4", 1.6075786989757184),
        "u2": TreePoint("u4", 1.071719132650479),
        "u3": TreePoint("m2", 2.2029782171148735),
        "u4": TreePoint("u5", 1.3694188917200565),
    })
    bad = check_good_map(alpha, "TW")
    assert bad.condition == _sampled_good_map(alpha) == "T2"
    x1, x2 = bad.witness
    assert b.tree.is_ancestor(alpha.leaf_images[x2.anchor], alpha.apply(x1))


def test_leaf_pair_checks_match_level_set_samplers():
    rand = random.Random(20261018)
    seen = {"monotone": 0, "not monotone": 0, "interleaving": 0, "C2/C4": 0}
    for _ in range(40):
        a, b = random_pair(rand, min_leaves=1, max_leaves=8, multi_child_prob=0.4)
        delta, (alpha, beta) = monotone_interleaving_distance(a, b)
        pairs = [(alpha, beta), (_lifted(alpha, 0.25), _lifted(beta, 0.25))]
        for d in (delta, delta + 0.25, delta + 0.5):
            for _ in range(4):
                pairs.append((_random_leaf_map(rand, a, b, d), _random_leaf_map(rand, b, a, d)))
        for m1, m2 in pairs:
            for m in (m1, m2):
                if m is not None:
                    want = _sampled_monotone(m)
                    bad = check_monotone(m)
                    assert (bad and bad.condition) == want, (bad, want)
                    seen["not monotone" if want else "monotone"] += 1
            if m1 is not None and m2 is not None:
                want = _sampled_interleaving(m1, m2)
                bad = check_interleaving(m1, m2)
                assert (bad and bad.condition) == want, (bad, want)
                seen["C2/C4" if want else "interleaving"] += 1
    assert min(seen.values()) > 0, seen


def test_leaf_image_checks_sample_no_level_sets(monkeypatch):
    rand = random.Random(7)
    cases = []
    for _ in range(15):
        a, b = random_pair(rand, min_leaves=2, max_leaves=8, multi_child_prob=0.4)
        cases.append(monotone_interleaving_distance(a, b)[1])

    def refuse(*args):
        raise AssertionError("the check sampled the maps")

    monkeypatch.setattr(MergeTree, "level_set", refuse)
    for alpha, beta in cases:
        assert check_interleaving(alpha, beta) is None
    monkeypatch.setattr(ShiftMap, "apply", refuse)
    for alpha, beta in cases:
        assert check_monotone(alpha) is None and check_monotone(beta) is None
        assert check_monotone_labelling(good_to_labelling(alpha)) is None


def _brute_image(tree, imgs):
    """Membership, lowest ancestors and unvisited tops of the upward closure of ``imgs``, by scanning them."""
    imgs = list(imgs)

    def contains(y):
        return any(tree.is_ancestor(img, y) for img in imgs)

    def lowest(y):
        return min((tree.lca(y, img) for img in imgs), key=lambda z: z.height)

    unvisited = [
        (v, lowest(tree.point(v)))
        for v in tree.vertices
        if tree.parent(v) is not None
        and not contains(tree.point(v))
        and contains(tree.point(tree.parent(v)))
    ]
    return contains, lowest, unvisited


def _edge_points(tree):
    """A quarter, half and three quarters up each finite edge, and one above the top merge."""
    pts = []
    for v in tree.vertices:
        p = tree.parent(v)
        if p is None:
            continue
        lo, hi = tree.height(v), tree.height(p)
        if hi == INF:
            pts.append(TreePoint(v, lo + 1.0))
        else:
            pts += [TreePoint(v, lo + (hi - lo) * f) for f in (0.25, 0.5, 0.75)]
    return pts


def _check_floor(tree, imgs, pts) -> bool:
    """Asserts the floor of ``imgs`` against the scans at ``pts``; whether it misses a subtree."""
    floor = ImageFloor(tree, imgs)
    contains, lowest, unvisited = _brute_image(tree, imgs)
    for y in pts:
        assert (floor.low[y.anchor] <= y.height) == contains(y), y
        assert floor.lowest_ancestor(y) == lowest(y), y
    assert floor.maximal_unvisited() == unvisited
    return bool(unvisited)


def test_image_floor_matches_leaf_image_scans():
    rand = random.Random(20261018)
    seen = {"good": 0, "bad": 0, "unvisited": 0, "vertex_image": 0, "point_sets": 0}
    for _ in range(15):
        a, b = random_pair(rand, min_leaves=1, max_leaves=8, multi_child_prob=0.5)
        delta, (alpha, beta) = monotone_interleaving_distance(a, b)
        for m in _test_maps(a, b, delta, alpha, beta):
            seen["good" if check_good_map(m, "G") is None else "bad"] += 1
            tree = m.target.tree
            imgs = list(m.leaf_images.values())
            pts = [tree.point(v) for v in tree.vertices] + imgs + _edge_points(tree)
            seen["unvisited"] += _check_floor(tree, imgs, pts)
            seen["vertex_image"] += any(img == tree.point(img.anchor) for img in imgs)
        # Any set of vertex and edge points has a floor, not only leaf images.
        for tree in (a.tree, b.tree):
            pts = [tree.point(v) for v in tree.vertices] + _edge_points(tree)
            for _ in range(4):
                seen["point_sets"] += _check_floor(tree, rand.sample(pts, rand.randint(1, len(pts))), pts)
    assert min(seen.values()) > 0, seen


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_alpha_well_defined_at_revisits(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=2, max_leaves=8)
    delta, (alpha, beta) = monotone_interleaving_distance(a, b)
    # Every merge vertex: all descendant leaves determine the same image.
    tree = a.tree
    for v in tree.vertices:
        if len(tree.children(v)) < 2:
            continue
        imgs = {
            alpha.apply(tree.point(v))
            for _ in [None]
        }
        for u in tree.subtree_leaves(v):
            h = tree.height(v) + delta
            base = alpha.leaf_images[u]
            imgs.add(b.tree.ancestor_at(base, max(h, base.height)))
        assert len(imgs) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_matching_interleaving(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=7)
    delta, (alpha, beta) = monotone_interleaving_distance(a, b)
    matched = interleaving_to_matching(alpha, beta)
    assert pair_gap(*matched)[0] <= delta
    again = matching_to_interleaving(a, b, matched, delta)
    assert check_interleaving(*again) is None
    assert check_monotone(again[0]) is None and check_monotone(again[1]) is None
    # The reverse matching is a monotone delta-labelling too.
    lab = matching_to_labelling(a, b, matched)
    assert lab.validate() is None
    assert check_monotone_labelling(lab) is None
    assert check_label_distance(lab, delta) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_distance_lower_bounds(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=8)
    delta, _ = monotone_interleaving_distance(a, b)
    min_gap = abs(
        min(a.tree.height(u) for u in a.tree.leaves)
        - min(b.tree.height(u) for u in b.tree.leaves)
    )
    assert delta >= min_gap - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_inflated_delta_certificates_still_convert(seed):
    # A certificate lifted to a larger delta is still a monotone interleaving
    # and must still convert to matched in-order curves within that delta.
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=7)
    delta, (alpha, beta) = monotone_interleaving_distance(a, b)
    bump = rand.choice([0.5, 1.0])
    la, lb = _lifted(alpha, bump), _lifted(beta, bump)
    assert check_interleaving(la, lb) is None
    xs, ys = interleaving_to_matching(la, lb)
    assert pair_gap(xs, ys)[0] <= delta + bump
    assert classify_curve(b, CurveTrace.uniform(b.tree, ys)) == "in_order"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_pushed_walk_contracts_to_partial(seed):
    # The image of a walk under a monotone map is weak in-order; contracting
    # its violating subcurves yields a partial (possibly full) in-order curve.
    from omtdist.curves import CurveTrace, classify_curve, contract_violating

    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=2, max_leaves=7)
    delta, (alpha, _) = monotone_interleaving_distance(a, b)
    walk = in_order_walk(a)
    pushed = CurveTrace(b.tree, walk.params, [alpha.apply(x) for x in walk.points])
    assert classify_curve(b, pushed) in ("weak", "partial", "in_order")
    contracted, _paused = contract_violating(pushed)
    assert classify_curve(b, contracted) in ("partial", "in_order")


def _validate_per_child_reference(m):
    """``ShiftMap.validate`` as one ancestor walk per child of every vertex."""
    tree, target = m.source.tree, m.target.tree
    for u in tree.leaves:
        if u not in m.leaf_images:
            return CheckFailure("C1", f"leaf {u!r} has no image")
        img = m.leaf_images[u]
        if not target.contains_point(img):
            return CheckFailure("C1", f"image of {u!r} is not a point of the target")
        if abs(img.height - (tree.height(u) + m.delta)) > HEIGHT_TOL:
            return CheckFailure("C1", f"image of leaf {u!r} is not exactly delta higher", (u, img))
    for v in tree.vertices:
        cs = tree.children(v)
        if len(cs) < 2:
            continue
        h = tree.height(v) + m.delta
        imgs = []
        for c in cs:
            base = m.leaf_images[tree.leaves[tree.leaf_span(c)[0]]]
            imgs.append(target.ancestor_at(base, max(h, base.height)))
        if any(not points_close(target, imgs[0], im) for im in imgs[1:]):
            return CheckFailure("determination", f"children of {v!r} disagree on the image", (v,))
    return None


def test_validate_matches_per_child_walk():
    rand = random.Random(20261021)
    seen = Counter()
    for k in range(120):
        a, b = random_pair(rand, min_leaves=1, max_leaves=10, multi_child_prob=0.4)
        if k % 2:
            s = rand.uniform(0.5, 2.0)
            a, b = scaled(a, s), scaled(b, s)
        try:
            delta, (alpha, beta) = monotone_interleaving_distance(a, b)
            maps = _test_maps(a, b, delta, alpha, beta) + [_lifted(beta, 0.375)]
        except CertificateError:  # rounding off the grid (ROADMAP item 1)
            delta, maps = 0.25, []
        for d in (delta, delta + 0.5, 3.0):
            maps += [_any_leaf_map(rand, a, b, d), _any_leaf_map(rand, b, a, d)]
        for m in maps:
            if m is None:
                continue
            want = _validate_per_child_reference(m)
            assert m.validate() == want
            seen[None if want is None else want.condition] += 1
    assert seen[None] > 0 and seen["determination"] > 50, seen


def test_validate_walks_each_level_once():
    # One ancestor_at walk per child of every merge, each starting where the
    # walk below it stopped: the per-child walks from the leaves read O(n^2)
    # parent links on a caterpillar (over 2,000 at n = 64).
    a = caterpillar(64)
    b = shifted(a, 17 / 64)
    _, (alpha, beta) = monotone_interleaving_distance(a, b)

    class CountingDict(dict):
        reads = 0

        def __getitem__(self, key):
            CountingDict.reads += 1
            return dict.__getitem__(self, key)

    for tree in (a.tree, b.tree):
        tree._parent = CountingDict(tree._parent)
    n = len(a.tree.leaves)
    # Each walk reads one link more than the vertices it climbs.  The
    # images of alpha sit at most one spine vertex below the next merge's
    # level; those of beta climb two more, since delta spans two spine steps.
    # Fresh copies, since the maps arrive with their verdict cached.
    for m, bound in ((alpha, 4 * n), (beta, 8 * n)):
        CountingDict.reads = 0
        assert m._replace().validate() is None
        assert 0 < CountingDict.reads <= bound


def _check_interleaving_reference(a, b):
    """``check_interleaving`` through the map methods: ``apply``, ``ancestor_at``, ``is_ancestor``."""
    if a.delta != b.delta or a.source is not b.target or a.target is not b.source:
        raise CertificateError("incompatible maps")
    for m, cond in ((a, "C1"), (b, "C3")):
        bad = _validate_per_child_reference(m)
        if bad is not None:
            return CheckFailure(cond, bad.detail, bad.witness)
    for fwd, back, cond in ((a, b, "C2"), (b, a, "C4")):
        tree = fwd.source.tree
        for u in tree.leaves:
            x = tree.point(u)
            roundtrip = back.apply(fwd.apply(x))
            if not tree.is_ancestor(x, tree.ancestor_at(roundtrip, roundtrip.height + HEIGHT_TOL)):
                return CheckFailure(cond, f"round trip misses the 2-delta ancestor at {x}", (x, roundtrip))
    return None


def _maps_from_pairs_reference(src, dst, xs, ys, delta):
    """``maps_from_pairs`` through a child-table test, ``lift`` and ``points_close`` per pair."""
    maps = []
    for s, d, own, other in ((src, dst, xs, ys), (dst, src, ys, xs)):
        tree = s.tree
        images = {}
        for x, y in zip(own, other):
            u = x.anchor
            if x.height != tree.height(u) or tree.children(u):
                continue
            img = d.tree.lift(y, tree.height(u) + delta)
            if u not in images:
                images[u] = img
            elif not points_close(d.tree, images[u], img):
                raise CertificateError(f"paired points give conflicting images for leaf {u!r}")
        missing = [u for u in tree.leaves if u not in images]
        if missing:
            raise CertificateError(f"leaves paired with no point: {missing}")
        maps.append(ShiftMap(s, d, delta, images))
    for m in maps:
        bad = _validate_per_child_reference(m)
        if bad is not None:
            raise CertificateError(f"induced map is inconsistent: {bad}")
    return maps[0], maps[1]


def _floor_reference(tree, points):
    """``ImageFloor``'s ``low`` and maximal unvisited subtrees, through the tree's methods."""
    low = {v: INF for v in tree.vertices}
    for y in points:
        low[y.anchor] = min(low[y.anchor], y.height)
    for v in reversed(tree.vertices):
        p = tree.parent(v)
        if p is not None:
            low[p] = min(low[p], low[v])
    tops = []
    for v in tree.vertices:
        p = tree.parent(v)
        if p is None or low[v] <= tree.height(v) or low[p] > tree.height(p):
            continue
        tops.append((v, TreePoint(v, low[v]) if low[v] < tree.height(p) else tree.point(p)))
    return low, tops


def _matched_points_reference(omt_p, omt_q, matching):
    """The paired points of a matching read off the in-order walks: a walk
    breakpoint per vertex step, ``leg_point`` per edge step."""

    def on_walk(walk, index, edge, h):
        if index is not None:
            return walk.points[index]
        return leg_point(walk.tree, walk.points[edge], walk.points[edge + 1], h)

    walk_p, walk_q = in_order_walk(omt_p), in_order_walk(omt_q)
    xs = [on_walk(walk_p, st.p_index, st.p_edge, st.hp) for st in matching.steps]
    ys = [on_walk(walk_q, st.q_index, st.q_edge, st.hq) for st in matching.steps]
    return xs, ys


def _maps_outcome(f, *args):
    """The leaf images of the maps a call returns, or the CertificateError it raises, as text."""
    try:
        alpha, beta = f(*args)
    except CertificateError as e:
        return f"CertificateError: {e}"
    return repr((alpha.delta, alpha.leaf_images, beta.leaf_images))


def _moved(m, rand):
    """``m`` with one leaf image moved to another point of the target at its height."""
    u = rand.choice(m.source.tree.leaves)
    img = m.leaf_images[u]
    if img.height == INF:
        return None
    others = [y for y in m.target.tree.level_set(img.height) if y != img]
    if not others:
        return None
    return m._replace(leaf_images={**m.leaf_images, u: rand.choice(others)})


def _nudged(m, rand, step):
    """``m`` with some leaf images ``step(h)`` high instead of h = height(u) + delta,
    lifted from the leaf below them where it lies low enough, else kept on their
    anchor, where they may leave the tree."""
    src, dst = m.source.tree, m.target.tree
    images = dict(m.leaf_images)
    for u in src.leaves:
        if rand.random() < 0.5:
            continue
        h = step(src.height(u) + m.delta)
        base = dst.point(dst.leaves[dst.leaf_span(images[u].anchor)[0]])
        images[u] = dst.ancestor_at(base, h) if base.height <= h else TreePoint(images[u].anchor, h)
    return m._replace(leaf_images=images)


_NUDGES = (
    lambda h: math.nextafter(h, INF),
    lambda h: math.nextafter(h, -INF),
    lambda h: h + HEIGHT_TOL / 2,
    lambda h: h - HEIGHT_TOL / 2,
)


def _compare_passes_with_references(a, b, rand, seen):
    """Asserts every certificate pass on the pair (a, b) against its method-based reference."""
    delta, (alpha, beta) = monotone_interleaving_distance(a, b)
    value, matching = compute_frechet(induced_curve(a), induced_curve(b))
    xs, ys = matched_points(a, b, matching)
    assert repr((xs, ys)) == repr(_matched_points_reference(a, b, matching))
    alphas = [alpha, _moved(alpha, rand)] + [_nudged(alpha, rand, step) for step in _NUDGES]
    betas = [beta, _moved(beta, rand)] + [_nudged(beta, rand, step) for step in _NUDGES]
    alphas.append(_any_leaf_map(rand, a, b, delta))
    betas.append(_any_leaf_map(rand, b, a, delta))
    for al in filter(None, alphas):
        for be in filter(None, betas):
            # Fresh copies, so that each side computes its own verdicts.
            want = _check_interleaving_reference(al._replace(), be._replace())
            assert repr(check_interleaving(al, be)) == repr(want)
            assert repr(al.validate()) == repr(_validate_per_child_reference(al))
            seen[want.condition if want else "ok"] += 1
            seen["determination"] += want is not None and "disagree" in want.detail
    for m in filter(None, alphas + betas):
        tree = m.target.tree
        floor = ImageFloor(tree, m.leaf_images.values())
        low, tops = _floor_reference(tree, m.leaf_images.values())
        assert repr(floor.low) == repr(low)
        assert repr(floor.maximal_unvisited()) == repr(tops)
        seen["unvisited"] += bool(tops)
    # The paired points of the matching, at the value, a smaller delta and
    # with their order reversed on one side; then random labels.
    cases = [(xs, ys, value), (xs, ys, value / 2), (xs, ys[::-1], value)]
    for _ in range(3):
        n = rand.randint(1, 2 * len(xs))
        cases.append(([rand.choice(xs) for _ in range(n)], [rand.choice(ys) for _ in range(n)], value))
    for px, py, d in cases:
        want = _maps_outcome(_maps_from_pairs_reference, a, b, px, py, d)
        assert _maps_outcome(maps_from_pairs, a, b, px, py, d) == want
        seen["maps" if want.startswith("(") else want.split()[1]] += 1
    seen["one leaf"] += min(len(a.tree.leaves), len(b.tree.leaves)) == 1
    seen["three children"] += any(len(t.children(v)) > 2 for t in (a.tree, b.tree) for v in t.vertices)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.7303, 2.0**-40, 2.0**40]))
def test_inlined_passes_match_their_method_references(seed, s):
    # C1 and determination, C2/C4, maps_from_pairs, the image floor and the
    # matched points, each against the method-based pass it replaced:
    # verdicts, details and witnesses (repr tells -0.0 from 0.0).
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=7, multi_child_prob=0.5)
    _compare_passes_with_references(scaled(a, s), scaled(b, s), rand, Counter())


def test_inlined_passes_meet_every_case():
    # The same comparison on a fixed batch, which reaches every outcome.
    rand = random.Random(20261020)
    seen = Counter()
    for k in range(40):
        a, b = random_pair(rand, min_leaves=1, max_leaves=7, multi_child_prob=0.5)
        s = (1.0, 0.7303, 2.0**-40, 2.0**40)[k % 4]
        _compare_passes_with_references(scaled(a, s), scaled(b, s), rand, seen)
    for key in ("ok", "C1", "C3", "determination", "C2", "C4", "unvisited", "maps", "paired", "leaves",
                "induced", "one leaf", "three children"):
        assert seen[key] > 0, (key, seen)


def test_matched_points_clamp_edge_steps_to_their_leg(tree_a, tree_b):
    # A step height outside its segment, as rounding elsewhere could leave it,
    # is clamped to the leg as leg_point clamps it: below the leaf to the
    # leaf, above the merge to the merge, and never past the root edge.
    value, matching = compute_frechet(induced_curve(tree_a), induced_curve(tree_b))
    walk_a, walk_b = in_order_walk(tree_a), in_order_walk(tree_b)
    last = len(walk_a.points) - 2
    steps = [matching.steps[0]]
    for e, h in ((1, -5.0), (1, 1e6), (2, -5.0), (0, 1e6), (last, -5.0), (last, 1e300)):
        steps.append(MatchStep(0.0, 0.0, h, h, None, None, e, min(e, len(walk_b.points) - 2)))
    xs, ys = matched_points(tree_a, tree_b, Matching(tuple(steps), value))
    for st_, x, y in zip(steps[1:], xs[1:], ys[1:]):
        assert x == leg_point(tree_a.tree, walk_a.points[st_.p_edge], walk_a.points[st_.p_edge + 1], st_.hp)
        assert y == leg_point(tree_b.tree, walk_b.points[st_.q_edge], walk_b.points[st_.q_edge + 1], st_.hq)
    assert xs[1] == tree_a.tree.point(walk_a.points[1].anchor)
    assert xs[2] == walk_a.points[2] and xs[3] == walk_a.points[3]


def test_validate_refuses_images_of_non_leaves(tree_a, tree_b):
    _, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    for key, img in (("v", tree_b.tree.point("w1")), ("zzz", TreePoint("nope", 0.0))):
        m = ShiftMap(alpha.source, alpha.target, alpha.delta, {**alpha.leaf_images, key: img})
        bad = m.validate()
        assert bad.condition == "C1" and repr(key) in bad.detail
        assert check_good_map(m).condition == "T1"
        assert check_good_map(m, "G").condition == "G1"


def _splice_tops_reference(a):
    """The splice tops of ``interleaving_to_matching`` and their attach points, by visit counts.

    The pushed and contracted walk aligned with the source walk, as the
    conversion builds it; a top is a vertex it never visits whose parent it
    visits, attached at the lowest breakpoint on the top's edge, else at the
    parent.
    """
    walk = in_order_walk(a.source)
    tree = a.target.tree
    pushed = CurveTrace(tree, list(walk.params), [a.apply(x) for x in walk.points], validate=False)
    contracted, _ = contract_violating(pushed)
    params = sorted(set(walk.params) | set(contracted.params))
    trace = CurveTrace(tree, params, [contracted.point_at(t) for t in params], validate=False)
    tops = []
    for v in tree.vertices:
        p = tree.parent(v)
        if p is None or count_visits(trace, tree.point(v)) or not count_visits(trace, tree.point(p)):
            continue
        stem = [pt for pt in trace.points if pt.anchor == v and pt.height > tree.height(v)]
        tops.append((v, min(stem, key=lambda pt: pt.height) if stem else tree.point(p)))
    return tops


def _lowered(m, rand):
    """``m`` with each leaf image lowered by 0 to 4 times 1e-10 where its edge allows: C1 holds."""
    tree = m.target.tree
    images = {}
    for u, img in m.leaf_images.items():
        h = img.height - rand.randrange(5) * 1e-10
        images[u] = TreePoint(img.anchor, h) if h >= tree.height(img.anchor) else img
    return m._replace(leaf_images=images)


def _splice_tops(a, b):
    """The (top, attach point) pairs ``interleaving_to_matching(a, b)`` splices at."""
    seen = []
    real = ImageFloor.maximal_unvisited

    def record(floor):
        seen.append(real(floor))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ImageFloor, "maximal_unvisited", record)
        interleaving_to_matching(a, b)
    (tops,) = seen
    return tops


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_splice_tops_match_the_visit_count_reference(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=8)
    delta, (alpha, beta) = monotone_interleaving_distance(a, b)
    bump = rand.choice([0.25, 0.5, 1.0])
    pairs = [(alpha, beta), (_lifted(alpha, bump), _lifted(beta, bump))]
    pairs.append((_lowered(alpha, rand), _lowered(beta, rand)))
    for m1, m2 in pairs:
        assert check_interleaving(m1, m2) is None
        for x, y in ((m1, m2), (m2, m1)):
            assert _splice_tops(x, y) == _splice_tops_reference(x)


def test_splice_tops_read_the_pushed_leaf_images():
    # A leaf image a few 1e-10 below h + delta passes C1, but the walk visits
    # the point at h + delta: a floor of the raw images would attach below
    # every point the walk visits on that edge.
    rand = random.Random(20261019)
    seen = Counter()
    for _ in range(40):
        a, b = random_pair(rand, min_leaves=2, max_leaves=8)
        _, (alpha, beta) = monotone_interleaving_distance(a, b)
        la, lb = _lowered(alpha, rand), _lowered(beta, rand)
        for x, y in ((la, lb), (lb, la)):
            want = _splice_tops_reference(x)
            assert _splice_tops(x, y) == want
            raw = ImageFloor(x.target.tree, x.leaf_images.values())
            seen["raw floor differs"] += raw.maximal_unvisited() != want
            seen["maps"] += 1
    assert seen["raw floor differs"] > 0, seen
