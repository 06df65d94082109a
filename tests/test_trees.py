import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtdist.curves import Curve1D, in_order_walk, induced_curve
from omtdist.interleaving import leg_point
from omtdist.ordering import OrderedMergeTree
from omtdist.randomtrees import random_omt
from omtdist.trees import INF, InvalidTreeError, MergeTree, TreePoint, Violation, validate_tree
from conftest import scaled


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


def _root_path(tree, v):
    path = [v]
    while tree.parent(path[-1]) is not None:
        path.append(tree.parent(path[-1]))
    return path


def _anchor_reference(tree, v, h):
    """The highest vertex at or below ``h`` on the listed root path of ``v``, else ``v``."""
    return max((w for w in _root_path(tree, v) if tree.height(w) <= h), key=tree.height, default=v)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2.0**-40, 1.0, 2.0**40]), st.data())
def test_the_one_climb_matches_the_listed_root_path(seed, s, data):
    # One-leaf trees and three-child merges, heights scaled far off 1 both
    # ways, and queries exactly at a vertex height, one ulp either side of
    # it, inside an edge and at +inf.
    rand = random.Random(seed)
    tree = scaled(random_omt(rand, min_leaves=1, max_leaves=9, multi_child_prob=0.4), s).tree
    v = data.draw(st.sampled_from(tree.vertices))
    path = _root_path(tree, v)
    w = data.draw(st.sampled_from(path + list(tree.vertices)))
    base = tree.height(w)
    near = [base, math.nextafter(base, -INF), math.nextafter(base, INF), INF]
    if tree.parent(w) is not None and tree.height(tree.parent(w)) < INF:
        near.append((base + tree.height(tree.parent(w))) / 2)
    h = data.draw(st.sampled_from(near))
    hv = tree.height(v)
    assert tree.anchor_at(v, h) == _anchor_reference(tree, v, h)
    top = max(h, hv)
    assert tree.lift(tree.point(v), h) == TreePoint(_anchor_reference(tree, v, top), top)
    if h >= hv:
        assert tree.ancestor_at(tree.point(v), h) == TreePoint(_anchor_reference(tree, v, h), h)
    else:
        with pytest.raises(ValueError):
            tree.ancestor_at(tree.point(v), h)
    # A leg from a point of v's edge, or v itself, up to a vertex of its root path.
    p = tree.parent(v)
    lo = tree.point(v)
    if p is not None and tree.height(p) < INF and data.draw(st.booleans()):
        lo = TreePoint(v, (hv + tree.height(p)) / 2)
    hi = tree.point(data.draw(st.sampled_from([u for u in path if tree.height(u) >= lo.height])))
    clamped = min(max(h, lo.height), hi.height)
    want = TreePoint(_anchor_reference(tree, v, clamped), clamped)
    assert leg_point(tree, lo, hi, h) == leg_point(tree, hi, lo, h) == want


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
            assert tree.lca(x, y).height == tree.lca_height(x, y), (x, y)
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


# -- the constructor's walk against plain recursion ---------------------------


def _recursive_index(parent, height, table):
    """Pre-order, leaves, neighbour merges, spans and child tuples of a forest,
    by recursion over its children: the table's lists, and for any vertex the
    table omits the children named by the parent pointers, in their order."""
    kids = {v: tuple(c for c in parent if parent[c] == v) for v in parent}
    kids.update((v, tuple(cs)) for v, cs in (table or {}).items())
    order, leaves, merges, spans = [], [], [], {}

    def visit(v):
        order.append(v)
        lo = len(leaves)
        if not kids[v]:
            leaves.append(v)
        for i, c in enumerate(kids[v]):
            if i:
                merges.append((height[v], v))
            visit(c)
        spans[v] = (lo, len(leaves))

    for i, r in enumerate(v for v in parent if parent[v] is None):
        if i:
            merges.append((INF, None))
        visit(r)
    return SimpleNamespace(order=order, leaves=leaves, merges=merges, spans=spans, kids=kids)


def _ordered_checks(tree):
    """The merge-tree invariants checked one after another, first violation wins."""
    vs = tree.vertices
    roots = [v for v in vs if tree.parent(v) is None]
    infs = [v for v in vs if tree.height(v) == INF]
    if len(roots) > 1 or len(infs) > 1:
        return Violation("multiple-roots", (roots + infs)[1], "more than one root/+inf vertex")
    if not infs:
        return Violation("no-root", roots[0], "root height must be +inf")
    if roots[0] != infs[0]:
        return Violation("multiple-roots", infs[0], "+inf height on a non-root vertex")
    if len(tree.children(roots[0])) != 1:
        return Violation("root-degree", roots[0], "root must have exactly one child")
    unary = None
    for v in vs:
        if v == roots[0]:
            continue
        h = tree.height(v)
        if not -INF < h < tree.height(tree.parent(v)):
            if not math.isfinite(h):
                return Violation("nonfinite-height", v)
            return Violation("non-strict-height", v, "height must strictly increase towards the root")
        if unary is None and len(tree.children(v)) == 1:
            unary = v
    if unary is not None:
        return Violation("unary-vertex", unary, "interior degree-1 vertex (not canonical)")
    return None


def _maps(tree, rand, prefix=""):
    """The tree's parent and height maps in a random vertex order, and its
    children table with every list shuffled."""
    vs = list(tree.vertices)
    rand.shuffle(vs)
    parent = {prefix + v: None if tree.parent(v) is None else prefix + tree.parent(v) for v in vs}
    height = {prefix + v: tree.height(v) for v in vs}
    table = {prefix + v: rand.sample([prefix + c for c in tree.children(v)], len(tree.children(v)))
             for v in vs if tree.children(v)}
    return parent, height, table


def _mutated(parent, height, table, rand):
    """The maps with one fault of a merge tree put in at a random vertex."""
    parent, height, table = dict(parent), dict(height), {v: list(cs) for v, cs in table.items()}
    root = next(v for v in parent if parent[v] is None)
    below = [v for v in parent if parent[v] is not None]
    v = rand.choice(below)
    p = parent[v]
    fault = rand.choice(["at-or-above", "unary", "second-inf", "root-degree", "nan"])
    if fault == "at-or-above":
        height[v] = INF if p == root else height[p] + rand.choice([0.0, 0.5])
    elif fault == "unary":
        w = f"x{len(parent)}"
        parent[w], height[w] = p, (height[v] + 1.0 if p == root else (height[v] + height[p]) / 2)
        parent[v] = w
        table[p] = [w if c == v else c for c in table[p]]
        table[w] = [v]
    elif fault == "second-inf":
        height[v] = INF
    elif fault == "root-degree":
        w = f"x{len(parent)}"
        parent[w], height[w] = root, 0.0
        table[root].insert(rand.randrange(2), w)
    else:
        height[v] = float("nan")
    return parent, height, table


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_walk_matches_recursion(seed):
    rand = random.Random(seed)
    source = random_omt(rand, min_leaves=1, max_leaves=14, multi_child_prob=0.4).tree
    parent, height, table = _maps(source, rand)
    partial = {v: cs for v, cs in table.items() if rand.random() < 0.5}
    # A forest of two trees, built directly, whose roots sit anywhere in the maps.
    other = _maps(random_omt(rand, min_leaves=1, max_leaves=6).tree, rand, prefix="b.")
    mixed = list(parent) + list(other[0])
    rand.shuffle(mixed)
    both = {**parent, **other[0]}
    forest = ({v: both[v] for v in mixed}, {**height, **other[1]}, {**table, **other[2]})
    cases = [(parent, height, table), (parent, height, partial), (parent, height, None), forest]
    for faults in (1, 1, 1, 2, 2):
        mutated = (parent, height, table)
        for _ in range(faults):
            mutated = _mutated(*mutated, rand)
        cases.append(mutated)
    for p, h, t in cases:
        tree = MergeTree(p, h, t)
        ref = _recursive_index(p, h, t)
        assert list(tree.vertices) == ref.order and list(tree.leaves) == ref.leaves
        assert list(zip(tree.merges, tree.merge_vertices)) == ref.merges
        for v in p:
            assert tree.leaf_span(v) == ref.spans[v] and tree.children(v) == ref.kids[v]
        assert validate_tree(tree) == _ordered_checks(tree)
    assert validate_tree(MergeTree(parent, height, partial)) is None


def _tree_checks(parent, table):
    """The message of the first reason the maps form no tree, checked one
    after another: parents, the table against them, roots, reachability."""
    derived = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            if p not in derived:
                return f"vertex {v!r} has unknown parent {p!r}"
            derived[p].append(v)
    kids = dict(derived)
    for v, given in table.items():
        if v not in derived:
            return f"children_order names unknown vertex {v!r}"
        if sorted(given) != sorted(derived[v]):
            return f"children_order for {v!r} is not a permutation"
        kids[v] = given
    roots = [v for v in parent if parent[v] is None]
    if not roots:
        return "no parentless vertex (cycle)"
    seen, stack = set(), roots
    while stack:
        v = stack.pop()
        seen.add(v)
        stack = stack + [c for c in kids[v] if c not in seen]
    return None if len(seen) == len(parent) else "cycle detected: not all vertices reachable from a root"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_walk_rejects_what_the_tree_checks_reject(seed):
    rand = random.Random(seed)
    parent, height, table = _maps(random_omt(rand, min_leaves=2, max_leaves=10).tree, rand)
    table = {v: cs for v, cs in table.items() if rand.random() < 0.7}
    for _ in range(rand.randint(1, 2)):
        w = rand.choice(list(parent))
        listed = [v for v, cs in table.items() if v in parent and cs]
        table_faults = ["repeat", "drop", "move", "unknown-key", "unknown-child"] if listed else []
        fault = rand.choice(["cycle", "orphan"] + table_faults)
        v = rand.choice(listed) if listed else None
        if fault == "repeat":
            table[v] = table[v] + [rand.choice(table[v])]
        elif fault == "drop":
            table[v] = table[v][1:]
        elif fault == "move":
            table[w] = table.get(w, []) + [table[v].pop()]
        elif fault == "unknown-key":
            table["nowhere"] = rand.choice([[], [w]])
        elif fault == "unknown-child":
            table[v] = table[v] + ["nowhere"]
        elif fault == "cycle":
            # w and one of its children name each other as parent; the
            # table leaves out the two lists that would show it.
            below = [c for c in parent if parent[c] == w]
            if below:
                table.pop(w, None)
                table.pop(parent[w], None)
                parent[w] = rand.choice(below)
        else:
            parent[w] = "nowhere"
    expected = _tree_checks(parent, table)
    if expected is None:
        MergeTree(parent, height, table)
    else:
        with pytest.raises(InvalidTreeError) as exc:
            MergeTree(parent, height, table)
        assert str(exc.value) == expected
