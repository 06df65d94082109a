import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtdist.curves import (
    Curve1D,
    CurveTrace,
    classify_curve,
    contract_violating,
    count_visits,
    find_violating_subcurves,
    in_order_walk,
    induced_curve,
    unvisited_degree,
    visits,
)
from omtdist.interleaving import ImageFloor, leg_point, monotone_interleaving_distance
from omtdist.randomtrees import random_omt, random_pair
from omtdist.trees import INF, TreePoint, validate_tree
from conftest import build_tree, scaled


def test_walk_tree_a(tree_a):
    assert induced_curve(tree_a).heights == (INF, 0.0, 3.0, 1.0, INF)


def test_walk_tree_b(tree_b):
    assert induced_curve(tree_b).heights == (INF, 1.0, 3.0, 0.0, INF)


def test_walk_single_leaf():
    omt = build_tree({"root": (None, INF), "u": ("root", 0.0)})
    assert induced_curve(omt).heights == (INF, 0.0, INF)


def test_walk_multi_child_merge():
    omt = build_tree(
        {
            "root": (None, INF),
            "v": ("root", 2.0),
            "a": ("v", 0.0),
            "b": ("v", 0.5),
            "c": ("v", 0.25),
        }
    )
    # A 3-child merge appears twice between its child excursions.
    assert induced_curve(omt).heights == (INF, 0.0, 2.0, 0.5, 2.0, 0.25, INF)


def _raw_walk(omt):
    return [x.height for x in in_order_walk(omt).points]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 9), st.sampled_from([0.0, 0.5, 1.0]),
       st.one_of(st.just(1.0), st.floats(0.5, 2.0)))
def test_induced_curve_of_a_valid_tree_is_its_canonical_walk(seed, n, multi, s):
    # One leaf, binary and three-child merges, heights on and off the grid.
    omt = scaled(random_omt(random.Random(seed), min_leaves=n, max_leaves=n, multi_child_prob=multi), s)
    assert validate_tree(omt.tree) is None
    assert induced_curve(omt).heights == Curve1D.from_heights(_raw_walk(omt)).heights


@pytest.mark.parametrize("spec, heights", [
    # a at its parent's height: the walk pauses at 2.0, then falls on to 0.0
    ({"root": (None, INF), "v": ("root", 2.0), "a": ("v", 2.0), "b": ("v", 0.0)}, (INF, 0.0, INF)),
    # w is unary, so no pair of leaves merges there
    ({"root": (None, INF), "w": ("root", 3.0), "v": ("w", 2.0), "a": ("v", 0.0), "b": ("v", 1.0)},
     (INF, 0.0, 2.0, 1.0, INF)),
], ids=["non-strict", "unary"])
def test_induced_curve_of_an_invalid_tree_is_canonicalised(spec, heights):
    omt = build_tree(spec)
    assert validate_tree(omt.tree) is not None
    curve = induced_curve(omt)
    assert curve.heights == Curve1D.from_heights(_raw_walk(omt)).heights == heights
    assert curve == Curve1D(heights)


def test_canonicalisation_drops_pauses_and_collinear():
    c = Curve1D.from_heights([INF, 3.0, 1.0, 1.0, 2.0, 3.0, 0.5, INF])
    assert c.heights == (INF, 1.0, 3.0, 0.5, INF)


def test_curve_rejects_interior_inf():
    with pytest.raises(ValueError):
        Curve1D((INF, 1.0, INF, 0.5, INF))


def test_classify_walk_is_in_order(tree_a, caterpillar3):
    for omt in (tree_a, caterpillar3):
        assert classify_curve(omt, in_order_walk(omt)) == "in_order"


def test_classify_deleted_excursion_is_partial(caterpillar3):
    tree = caterpillar3.tree
    # Walk of (a, b, c) skipping leaf b's excursion entirely.
    pts = [
        tree.point("root"),
        tree.point("a"),
        tree.point("v2"),
        tree.point("c"),
        tree.point("root"),
    ]
    trace = CurveTrace(tree, [k / 4 for k in range(5)], pts)
    assert classify_curve(caterpillar3, trace) == "partial"


def _excursion_trace(tree, heights_up):
    """root -> a -> (a-edge at h) -> a -> ... -> root on a two-leaf tree."""
    pts = [tree.point("root"), tree.point("a")]
    for h in heights_up:
        pts.append(TreePoint("a", h))
        pts.append(tree.point("a"))
    pts.append(tree.point("root"))
    n = len(pts)
    return CurveTrace(tree, [k / (n - 1) for k in range(n)], pts)


@pytest.fixture
def two_leaf():
    return build_tree(
        {"root": (None, INF), "m": ("root", 2.0), "a": ("m", 0.0), "b": ("m", 0.0)}
    )


def test_classify_reentry_is_weak(two_leaf):
    trace = _excursion_trace(two_leaf.tree, [1.0])
    assert classify_curve(two_leaf, trace) == "weak"


def test_violating_subcurves_on_walk_empty(tree_a, caterpillar3):
    for omt in (tree_a, caterpillar3):
        assert find_violating_subcurves(in_order_walk(omt)) == []


def test_violating_subcurve_single(two_leaf):
    trace = _excursion_trace(two_leaf.tree, [1.0])
    found = find_violating_subcurves(trace)
    assert len(found) == 1
    v = found[0]
    assert v.point == two_leaf.tree.point("a")
    assert trace.point_at(v.left) == v.point and trace.point_at(v.right) == v.point


def test_violating_subcurves_two_disjoint(two_leaf):
    trace = _excursion_trace(two_leaf.tree, [1.0, 1.5])
    found = find_violating_subcurves(trace)
    assert len(found) == 2
    assert found[0].right <= found[1].left


def test_contract_partial_unchanged(tree_a):
    walk = in_order_walk(tree_a)
    out, paused = contract_violating(walk)
    assert paused == [] and out.points == walk.points


def test_contract_flattens_excursion(two_leaf):
    trace = _excursion_trace(two_leaf.tree, [1.0])
    out, paused = contract_violating(trace)
    assert len(paused) == 1
    assert all(p.height <= 0.0 or p.height == INF or p == two_leaf.tree.point("m") for p in out.points if p.anchor == "a")
    assert classify_curve(two_leaf, out) == "partial"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_subcurves_stay_below_lca(seed):
    rand = random.Random(seed)
    omt = random_omt(rand, min_leaves=2, max_leaves=10)
    trace = in_order_walk(omt)
    tree = omt.tree
    for _ in range(5):
        t1, t2 = sorted((rand.random(), rand.random()))
        top = tree.lca(trace.point_at(t1), trace.point_at(t2))
        for t in (t1 + (t2 - t1) * k / 6 for k in range(7)):
            pt = trace.point_at(t)
            # Interpolated sample heights carry last-ulp noise; containment in
            # the subtree is what matters.
            assert tree.lca(pt, top).height <= top.height + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_curve_extrema_structure(seed):
    rand = random.Random(seed)
    omt = random_omt(rand, min_leaves=2, max_leaves=12)
    tree = omt.tree
    curve = induced_curve(omt)
    hs = curve.heights
    minima = [y for x, y, z in zip(hs, hs[1:], hs[2:]) if y < x and y < z]
    maxima = [y for x, y, z in zip(hs, hs[1:], hs[2:]) if y > x and y > z]
    assert minima == [tree.height(u) for u in tree.leaves]
    expected_maxima = sorted(
        h
        for v in tree.vertices
        if tree.parent(v) is not None and len(tree.children(v)) >= 2
        for h in [tree.height(v)] * (len(tree.children(v)) - 1)
    )
    assert sorted(maxima) == expected_maxima


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_reparameterisation_invariance(seed):
    rand = random.Random(seed)
    omt = random_omt(rand, min_leaves=1, max_leaves=10)
    walk = in_order_walk(omt)
    warped = [t**2 for t in walk.params]
    warped[-1] = 1.0
    other = CurveTrace(omt.tree, warped, walk.points)
    assert other.curve() == walk.curve()


def test_visit_counts_match_definition(tree_a):
    walk = in_order_walk(tree_a)
    tree = tree_a.tree
    assert count_visits(walk, tree.point("v")) == 3
    assert count_visits(walk, tree.point("u1")) == 1
    assert count_visits(walk, TreePoint("u1", 2.0)) == 2
    assert count_visits(walk, tree.point("root")) == 2


def test_leg_point_clamps_to_the_leg(tree_a):
    tree = tree_a.tree
    u1, v, root = tree.point("u1"), tree.point("v"), tree.point("root")
    mid = TreePoint("u1", 2.0)
    for a, b in ((u1, mid), (mid, u1)):
        assert leg_point(tree, a, b, 1.5) == TreePoint("u1", 1.5)
        assert leg_point(tree, a, b, -1.0) == u1  # below the leg
        assert leg_point(tree, a, b, 2.5) == mid  # above the leg
    # A leg to the root climbs past the top merge onto the root edge.
    for a, b in ((root, u1), (u1, root)):
        assert leg_point(tree, a, b, 2.0) == mid
        assert leg_point(tree, a, b, 3.0) == v
        assert leg_point(tree, a, b, 7.0) == TreePoint("v", 7.0)
        assert leg_point(tree, a, b, INF) == root


def test_root_legs_share_one_stand_in_for_inf(tree_a):
    # Parameters and heights correspond through the same finite top both
    # ways, so the param where a root leg reaches a height names that height.
    walk = in_order_walk(tree_a)
    assert walk.top == 4.0
    t = walk.param_at(0, 2.0)
    assert walk.params[0] < t < walk.params[1]
    assert walk.point_at(t) == TreePoint("u1", 2.0)
    assert walk.point_at(walk.param_at(3, 2.5)) == TreePoint("u2", 2.5)


def _count_visits_reference(trace, x):
    """The legs that cover ``x``, neighbours merged only through a breakpoint at ``x``."""
    tree = trace.tree
    covered = []
    for i, (a, b) in enumerate(zip(trace.points, trace.points[1:])):
        lo, hi = (a, b) if a.height <= b.height else (b, a)
        if lo.height <= x.height <= hi.height and tree.is_ancestor(lo, x) and tree.is_ancestor(x, hi):
            covered.append(i)
    return sum(
        1 for k, i in enumerate(covered) if k == 0 or i != covered[k - 1] + 1 or trace.points[i] != x
    )


def _visit_samples(trace):
    """Vertices, breakpoints, and per edge its midpoint and the breakpoint heights inside it."""
    tree = trace.tree
    heights = {p.height for p in trace.points if p.height != INF}
    xs = [tree.point(v) for v in tree.vertices] + list(trace.points)
    for v in tree.vertices:
        p = tree.parent(v)
        if p is None:
            continue
        lo, hi = tree.height(v), tree.height(p)
        xs.append(TreePoint(v, (lo + hi) / 2 if hi != INF else lo + 1.0))
        xs.extend(TreePoint(v, h) for h in heights if lo < h < hi)
    return xs


def test_visits_tie_on_the_root_edge_in_leg_order(tree_a):
    """Above `top` the legs to the root all clamp their params, so two legs
    meeting at the interior root breakpoint tie; the earlier leg comes first."""
    tree = tree_a.tree
    root = tree.point("root")
    trace = CurveTrace(tree, [0.0, 0.25, 0.5, 0.75, 1.0], [root, tree.point("u1"), root, tree.point("u2"), root])
    assert trace.top < 10.0
    assert visits(trace, TreePoint("v", 10.0)) == [(0.0, -1), (0.5, -2), (0.5, -3), (1.0, -4)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_count_visits_matches_covering_leg_reference(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=8)
    _, (alpha, beta) = monotone_interleaving_distance(a, b)
    for m in (alpha, beta):
        walk = in_order_walk(m.source)
        pushed = CurveTrace(m.target.tree, walk.params, [m.apply(x) for x in walk.points])
        contracted, _ = contract_violating(pushed)
        for trace in (walk, pushed, contracted):
            for x in _visit_samples(trace):
                assert count_visits(trace, x) == _count_visits_reference(trace, x)


def _branch_reference(tree, points, x, child):
    """Climbs case by case: inside T_{x,child}, or on its stem below x."""
    cpoint = tree.point(child)
    at_vertex = x.height == tree.height(x.anchor)
    for p in points:
        if p == x or p.height >= x.height or not tree.is_ancestor(p, x):
            continue
        if tree.is_ancestor(p, cpoint):
            return True
        if at_vertex:
            if tree.child_toward(x.anchor, p) == child:
                return True
        elif p.anchor == x.anchor:
            return True
    return False


def _check_unvisited_degree(tree, points, xs) -> int:
    """Asserts the floor's unvisited degree at each of ``xs``; returns the branches hit."""
    floor = ImageFloor(tree, points)
    hits = 0
    for x in xs:
        at_vertex = x.height == tree.height(x.anchor)
        branches = tree.children(x.anchor) if at_vertex else [x.anchor]
        wants = [_branch_reference(tree, points, x, c) for c in branches]
        assert unvisited_degree(floor, x) == wants.count(False), x
        hits += sum(wants)
    return hits


def test_branch_breakpoints_match_case_by_case_reference():
    rng = random.Random(11)
    hits = 0
    for _ in range(60):
        tree = random_omt(rng, 1, 10, multi_child_prob=0.3).tree
        xs = []
        for v in tree.vertices:
            xs.append(tree.point(v))
            p = tree.parent(v)
            if p is not None and tree.height(p) != INF:
                xs.append(TreePoint(v, (tree.height(v) + tree.height(p)) / 2))
        for _ in range(8):
            hits += _check_unvisited_degree(tree, rng.sample(xs, rng.randint(1, len(xs))), xs)
    assert hits > 100
    # The traces the curve classes are decided on: walks, pushed walks and
    # their contractions.
    hits = 0
    for _ in range(15):
        a, b = random_pair(rng, min_leaves=1, max_leaves=8, multi_child_prob=0.3)
        _, (alpha, beta) = monotone_interleaving_distance(a, b)
        for m in (alpha, beta):
            walk = in_order_walk(m.source)
            pushed = CurveTrace(m.target.tree, walk.params, [m.apply(x) for x in walk.points])
            contracted, _ = contract_violating(pushed)
            for trace in (walk, pushed, contracted):
                hits += _check_unvisited_degree(trace.tree, trace.points, _visit_samples(trace))
    assert hits > 100
