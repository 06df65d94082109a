import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtdist.curves import Curve1D, in_order_walk, induced_curve
from omtdist.ordering import OrderedMergeTree
from omtdist.randomtrees import random_omt
from omtdist.trees import INF, MergeTree, TreePoint, validate_tree


def test_validate_minimal_tree_ok():
    t = MergeTree({"root": None, "u": "root"}, {"root": INF, "u": 0.0})
    assert validate_tree(t) is None


def test_validate_non_strict_height():
    t = MergeTree(
        {"root": None, "v": "root", "a": "v", "b": "v"},
        {"root": INF, "v": 2.0, "a": 2.0, "b": 0.0},
    )
    bad = validate_tree(t)
    assert bad is not None and bad.code == "non-strict-height" and bad.vertex == "a"


@pytest.mark.parametrize("h", [-INF, float("nan")])
def test_validate_nonfinite_height(h):
    t = MergeTree(
        {"root": None, "v": "root", "a": "v", "b": "v"},
        {"root": INF, "v": 2.0, "a": h, "b": 0.0},
    )
    bad = validate_tree(t)
    assert bad is not None and bad.code == "nonfinite-height" and bad.vertex == "a"


def test_validate_multiple_roots():
    t = MergeTree({"root": None, "v": "root", "u": "v"}, {"root": INF, "v": INF, "u": 0.0})
    bad = validate_tree(t)
    assert bad is not None and bad.code == "multiple-roots"


def test_validate_unary_vertex():
    t = MergeTree({"root": None, "v": "root", "u": "v"}, {"root": INF, "v": 1.0, "u": 0.0})
    bad = validate_tree(t)
    assert bad is not None and bad.code == "unary-vertex"
    assert validate_tree(t.normalised()) is None


@pytest.fixture
def tri():
    # Tree A of the running example: leaves at 0 and 1 merging at 3.
    return MergeTree(
        {"root": None, "v": "root", "u1": "v", "u2": "v"},
        {"root": INF, "v": 3.0, "u1": 0.0, "u2": 1.0},
    )


def test_ancestor_at_examples(tri):
    u1 = tri.point("u1")
    assert tri.ancestor_at(u1, 0.0) == u1
    assert tri.ancestor_at(u1, 2.0) == TreePoint("u1", 2.0)
    assert tri.ancestor_at(tri.point("u2"), 3.0) == tri.point("v")
    assert tri.ancestor_at(u1, INF) == tri.point("root")
    with pytest.raises(ValueError):
        tri.ancestor_at(tri.point("v"), 1.0)


def test_lca_examples(tri):
    u1, u2 = tri.point("u1"), tri.point("u2")
    assert tri.lca(u1, u2) == tri.point("v")
    mid = TreePoint("u1", 2.0)
    assert tri.lca(u1, mid) == mid
    assert tri.lca(mid, u1) == mid
    assert tri.lca(u1, u1) == u1


def test_level_set_examples(tri):
    assert tri.level_set(2.0) == [TreePoint("u1", 2.0), TreePoint("u2", 2.0)]
    assert tri.level_set(3.0) == [tri.point("v")]
    assert tri.level_set(0.5) == [TreePoint("u1", 0.5)]


def _naive_common_ancestors(tree, x, y, heights):
    """Brute-force oracle: enumerate candidate points and filter common ancestors."""
    candidates = [tree.point(v) for v in tree.vertices]
    for h in heights:
        candidates.extend(tree.level_set(h))
    return [
        z
        for z in candidates
        if tree.is_ancestor(x, z) and tree.is_ancestor(y, z)
    ]


def _random_point(tree, rand):
    v = rand.choice([v for v in tree.vertices if tree.parent(v) is not None])
    lo = tree.height(v)
    hi = tree.height(tree.parent(v))
    if hi == INF:
        hi = lo + 2.0
    k = rand.randrange(5)
    h = lo + (hi - lo) * k / 8.0
    return tree.ancestor_at(tree.point(v), h)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_lca_matches_bruteforce(seed):
    rand = random.Random(seed)
    tree = random_omt(rand, min_leaves=2, max_leaves=10).tree
    x = _random_point(tree, rand)
    y = _random_point(tree, rand)
    z = tree.lca(x, y)
    heights = sorted({x.height, y.height, z.height} | set(tree.finite_heights()))
    commons = _naive_common_ancestors(tree, x, y, heights)
    assert z in commons
    assert all(c.height >= z.height for c in commons)
    assert tree.lca(y, x) == z
    assert z.height >= max(x.height, y.height)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_ancestor_transitivity(seed):
    rand = random.Random(seed)
    tree = random_omt(rand, min_leaves=1, max_leaves=10).tree
    x = _random_point(tree, rand)
    h1 = x.height + rand.random()
    h2 = h1 + rand.random()
    one_step = tree.ancestor_at(x, h2)
    two_step = tree.ancestor_at(tree.ancestor_at(x, h1), h2)
    assert one_step == two_step


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_level_set_structure(seed):
    rand = random.Random(seed)
    tree = random_omt(rand, min_leaves=1, max_leaves=10).tree
    hs = tree.finite_heights()
    # Constant combinatorics between consecutive vertex heights.
    for a, b in zip(hs, hs[1:]):
        lo = tree.level_set(a + (b - a) / 4)
        hi = tree.level_set(a + 3 * (b - a) / 4)
        if a + (b - a) / 4 < a + 3 * (b - a) / 4:
            assert len(lo) == len(hi)
    assert len(tree.level_set(hs[-1] + 1.0)) == 1


def test_contains_and_deg(tri):
    assert tri.contains_point(TreePoint("u1", 1.5))
    assert not tri.contains_point(TreePoint("u1", 3.5))
    assert tri.deg(tri.point("v")) == 2
    assert tri.deg(TreePoint("u1", 1.0)) == 1
    assert tri.deg(tri.point("u1")) == 0


def test_shift_and_normalise_to_zero(tri):
    up = tri.shifted(2.0)
    assert up.height("u1") == 2.0 and up.height("root") == INF
    assert up.normalised_to_zero().height("u1") == 0.0


def _walking_reference(tree):
    """Ancestry queries answered by parent-pointer walks, without the pre-order index."""

    def is_ancestor(below, above):
        return above.height >= below.height and tree.ancestor_at(below, above.height) == above

    def depth(v):
        d = 0
        while tree.parent(v) is not None:
            v, d = tree.parent(v), d + 1
        return d

    def lca(x, y):
        if is_ancestor(x, y):
            return y
        if is_ancestor(y, x):
            return x
        a, b = x.anchor, y.anchor
        da, db = depth(a), depth(b)
        while da > db:
            a, da = tree.parent(a), da - 1
        while db > da:
            b, db = tree.parent(b), db - 1
        while a != b:
            a, b = tree.parent(a), tree.parent(b)
        return tree.point(a)

    def child_toward(v, x):
        cur = x.anchor
        while tree.parent(cur) != v:
            cur = tree.parent(cur)
        return cur

    def subtree_leaves(v):
        out, stack = [], [v]
        while stack:
            u = stack.pop()
            if tree.is_leaf(u):
                out.append(u)
            stack.extend(reversed(tree.children(u)))
        return out

    return SimpleNamespace(
        is_ancestor=is_ancestor, lca=lca, child_toward=child_toward, subtree_leaves=subtree_leaves
    )


def _vertex_and_edge_points(tree):
    """Every vertex point (the root at +inf too) and edge-interior points at and between vertex heights."""
    hs = tree.finite_heights()
    levels = hs + [(a + b) / 2 for a, b in zip(hs, hs[1:])] + [hs[-1] + 1.0]
    pts = [tree.point(v) for v in tree.vertices]
    for h in levels:
        pts.extend(tree.level_set(h))
    return list(dict.fromkeys(pts))


def _assert_index_matches_walks(tree):
    ref = _walking_reference(tree)
    for v in tree.vertices:
        below = ref.subtree_leaves(v)
        assert tree.subtree_leaves(v) == below
        lo, hi = tree.leaf_span(v)
        assert list(tree.leaves[lo:hi]) == below
    pts = _vertex_and_edge_points(tree)
    assert any(x.height == INF for x in pts)
    assert any(x.height != tree.height(x.anchor) for x in pts)
    for x in pts:
        for y in pts:
            assert tree.is_ancestor(x, y) == ref.is_ancestor(x, y), (x, y)
            assert tree.lca(x, y) == ref.lca(x, y), (x, y)
            assert tree.lca(x, y).height == tree.lca_heights([x, y])[0, 1], (x, y)
        for v in tree.vertices:
            if x != tree.point(v) and ref.is_ancestor(x, tree.point(v)):
                assert tree.child_toward(v, x) == ref.child_toward(v, x), (v, x)
            else:
                with pytest.raises(ValueError):
                    tree.child_toward(v, x)


def _assert_walk_and_curve_match_lca_walk(tree):
    """The in-order walk and induced curve against a walk that climbs to each neighbour lca."""
    ref = _walking_reference(tree)
    root = tree.point(tree.root)
    leaves = [tree.point(u) for u in tree.leaves]
    expected = [root]
    for u, w in zip(leaves, leaves[1:]):
        expected += [u, ref.lca(u, w)]
    expected += [leaves[-1], root]
    omt = OrderedMergeTree(tree, tree.leaves)
    assert in_order_walk(omt).points == expected
    curve = Curve1D.from_heights([x.height for x in expected])
    assert [h.hex() for h in induced_curve(omt).heights] == [h.hex() for h in curve.heights]


def _shuffled(tree, rand):
    """The same tree built from vertex maps in a random order, with its child order given."""
    vs = list(tree.vertices)
    rand.shuffle(vs)
    copy = MergeTree(
        {v: tree.parent(v) for v in vs},
        {v: tree.height(v) for v in vs},
        {v: tree.children(v) for v in vs if tree.children(v)},
    )
    assert copy.leaves == tree.leaves and copy.vertices == tree.vertices
    return copy


def test_interval_index_matches_walks_on_random_trees():
    rand = random.Random(20261018)
    three_way = 0
    for _ in range(12):
        tree = random_omt(rand, min_leaves=1, max_leaves=9, multi_child_prob=0.5).tree
        three_way += any(len(tree.children(v)) == 3 for v in tree.vertices)
        for t in (tree, _shuffled(tree, rand)):
            _assert_index_matches_walks(t)
            _assert_walk_and_curve_match_lca_walk(t)
    assert three_way > 0
    for _ in range(40):
        tree = random_omt(rand, min_leaves=1, max_leaves=30, multi_child_prob=0.4).tree
        _assert_walk_and_curve_match_lca_walk(tree)
        _assert_walk_and_curve_match_lca_walk(_shuffled(tree, rand))


def test_interval_index_matches_walks_without_leaf_alignment():
    # Child lists given out of insertion order, with a leaf ahead of deeper
    # subtrees and a three-way merge, so leaf order differs from vertex order.
    parent = {
        "root": None, "top": "root", "m3": "top", "a": "m3", "b": "m3", "c": "m3",
        "m2": "top", "d": "m2", "e": "m2", "f": "top",
    }
    height = {
        "root": INF, "top": 5.0, "m3": 2.0, "a": 0.0, "b": 1.0, "c": 0.5,
        "m2": 3.0, "d": 1.5, "e": 0.25, "f": 4.0,
    }
    order = {"top": ["f", "m2", "m3"], "m3": ["c", "a", "b"], "m2": ["e", "d"]}
    tree = MergeTree(parent, height, order)
    assert tree.leaves == ("f", "e", "d", "c", "a", "b")
    assert tree.leaf_span("m3") == (3, 6) and tree.subtree_leaves("m2") == ["e", "d"]
    _assert_index_matches_walks(tree)
    _assert_walk_and_curve_match_lca_walk(tree)
    assert tree.merge_vertices == ("top", "m2", "top", "m3", "m3")


def test_normalised_keeps_child_order_and_merges():
    # v and x are unary; contracting them keeps w's children in their given order.
    t = MergeTree(
        {"root": None, "v": "root", "w": "v", "x": "w", "a": "x", "b": "w", "c": "w"},
        {"root": INF, "v": 5.0, "w": 3.0, "x": 1.0, "a": 0.0, "b": 2.0, "c": 0.5},
        {"root": ["v"], "v": ["w"], "w": ["c", "x", "b"], "x": ["a"]},
    )
    n = t.normalised()
    assert validate_tree(n) is None
    assert n.children("root") == ("w",) and n.children("w") == ("c", "a", "b")
    assert (n.leaves, n.merges, n.merge_vertices) == (t.leaves, t.merges, t.merge_vertices)
