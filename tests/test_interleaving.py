import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtdist.curves import classify_curve, in_order_walk
from omtdist.frechet import compute_frechet
from omtdist.interleaving import (
    CertificateError,
    ImageFloor,
    ShiftMap,
    check_good_map,
    check_interleaving,
    check_monotone,
    interleaving_to_matching,
    matched_traces_from_matching,
    matching_to_interleaving,
    monotone_interleaving_distance,
)
from omtdist.randomtrees import random_omt, random_pair, shifted
from omtdist.trees import INF, MergeTree, TreePoint
from omtdist.ordering import OrderedMergeTree


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
    _, (alpha, beta) = monotone_interleaving_distance(tree_a, tree_b)
    alpha.delta = 0.5
    beta.delta = 0.5
    bad = check_interleaving(alpha, beta)
    assert bad is not None and bad.condition == "C1"


def test_mismatched_deltas_rejected(tree_a, tree_b):
    _, (alpha, beta) = monotone_interleaving_distance(tree_a, tree_b)
    alpha.delta = 2.0
    with pytest.raises(CertificateError):
        check_interleaving(alpha, beta)


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
    matched = matched_traces_from_matching(tree_a, tree_a, walk, walk, matching)
    alpha, beta = matching_to_interleaving(tree_a, tree_a, matched, 0.0)
    for u in tree_a.tree.leaves:
        assert alpha.leaf_images[u] == tree_a.tree.point(u)
    assert check_interleaving(alpha, beta) is None


def test_matching_to_interleaving_example(tree_a, tree_b):
    wa, wb = in_order_walk(tree_a), in_order_walk(tree_b)
    value, matching = compute_frechet(wa.curve(), wb.curve())
    matched = matched_traces_from_matching(tree_a, tree_b, wa, wb, matching)
    alpha, beta = matching_to_interleaving(tree_a, tree_b, matched, value)
    assert alpha.leaf_images["u1"].height == 1.0
    assert check_interleaving(alpha, beta) is None
    assert check_monotone(alpha) is None and check_monotone(beta) is None


def test_matching_to_interleaving_rejects_unmatched(tree_a, tree_b):
    wa, wb = in_order_walk(tree_a), in_order_walk(tree_b)
    value, matching = compute_frechet(wa.curve(), wb.curve())
    matched = matched_traces_from_matching(tree_a, tree_b, wa, wb, matching)
    with pytest.raises(CertificateError, match="matched"):
        matching_to_interleaving(tree_a, tree_b, matched, value / 2)


def test_interleaving_to_matching_identity(tree_a):
    a, b = _identity_pair(tree_a)
    matched = interleaving_to_matching(a, b)
    assert matched.cost() == 0.0
    assert classify_curve(tree_a, matched.left) == "in_order"
    assert classify_curve(tree_a, matched.right) == "in_order"


def test_interleaving_to_matching_optimal(tree_a, tree_b):
    delta, (alpha, beta) = monotone_interleaving_distance(tree_a, tree_b)
    matched = interleaving_to_matching(alpha, beta)
    assert matched.cost() == delta == 1.0
    assert classify_curve(tree_b, matched.right) == "in_order"


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_good_map_variants_agree(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=7)
    delta, (alpha, beta) = monotone_interleaving_distance(a, b)
    pairs = {None: None, "T1": "G1", "T2": "G2", "T3": "G3"}
    for cand in _test_maps(a, b, delta, alpha, beta):
        tw = check_good_map(cand, "TW")
        g = check_good_map(cand, "G")
        assert pairs[tw and tw.condition] == (g and g.condition), (tw, g)


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


def test_good_map_g_samples_no_level_sets(tree_a, tree_b, monkeypatch):
    _, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    bad = _off_grid_g2_map()

    def refuse(*args):
        raise AssertionError("the G check sampled the maps")

    monkeypatch.setattr(ShiftMap, "apply", refuse)
    monkeypatch.setattr(MergeTree, "level_set", refuse)
    assert check_good_map(alpha, "G") is None
    assert check_good_map(bad, "G").condition == "G2"


def _brute_image(a):
    """Image membership, lowest image ancestors and unvisited tops by scanning leaf images."""
    tree = a.target.tree
    imgs = list(a.leaf_images.values())

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


def test_image_floor_matches_leaf_image_scans():
    rand = random.Random(20261018)
    seen = {"good": 0, "bad": 0, "unvisited": 0, "vertex_image": 0}
    for _ in range(15):
        a, b = random_pair(rand, min_leaves=1, max_leaves=8, multi_child_prob=0.5)
        delta, (alpha, beta) = monotone_interleaving_distance(a, b)
        for m in _test_maps(a, b, delta, alpha, beta):
            seen["good" if check_good_map(m, "G") is None else "bad"] += 1
            tree = m.target.tree
            floor = ImageFloor(m)
            contains, lowest, unvisited = _brute_image(m)
            pts = [tree.point(v) for v in tree.vertices] + list(m.leaf_images.values())
            for v in tree.vertices:
                p = tree.parent(v)
                if p is not None and tree.height(p) != INF:
                    lo, hi = tree.height(v), tree.height(p)
                    pts += [TreePoint(v, lo + (hi - lo) * f) for f in (0.25, 0.5, 0.75)]
            for y in pts:
                assert floor.contains(y) == contains(y), y
                assert floor.lowest_ancestor(y) == lowest(y), y
            assert floor.maximal_unvisited() == unvisited
            seen["unvisited"] += bool(unvisited)
            seen["vertex_image"] += any(img == tree.point(img.anchor) for img in m.leaf_images.values())
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
    assert matched.cost() <= delta
    again = matching_to_interleaving(a, b, matched, delta)
    assert check_interleaving(*again) is None
    assert check_monotone(again[0]) is None and check_monotone(again[1]) is None


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
    matched = interleaving_to_matching(la, lb)
    assert matched.cost() <= delta + bump
    assert classify_curve(b, matched.right) == "in_order"


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
