import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtdist.curves import check_layer_consistency, induced_leaf_order, induced_ordered_tree
from omtdist.ordering import OrderedMergeTree, OrderError, ViolatingTriple, check_leaf_order, first_flip
from omtdist.randomtrees import random_omt
from omtdist.trees import TreePoint


def _separates_bruteforce(tree, seq):
    """Definition-level oracle: check every leaf triple directly."""
    rank = {u: i for i, u in enumerate(seq)}
    for u1, u, u2 in itertools.permutations(seq, 3):
        if rank[u1] <= rank[u] <= rank[u2]:
            v = tree.lca(tree.point(u1), tree.point(u2))
            below = set(tree.subtree_leaves(v.anchor)) if v.height == tree.height(v.anchor) else set(tree.subtree_leaves(v.anchor))
            if u not in below:
                return False
    return True


def test_check_leaf_order_two_leaves(tree_a):
    assert check_leaf_order(tree_a.tree, ("u1", "u2")) is None
    assert check_leaf_order(tree_a.tree, ("u2", "u1")) is None


def test_check_leaf_order_violating_triple(caterpillar3):
    tree = caterpillar3.tree
    assert not _separates_bruteforce(tree, ("a", "c", "b"))
    bad = check_leaf_order(tree, ("a", "c", "b"))
    assert bad is not None and (bad.u1, bad.u, bad.u2) == ("a", "c", "b")
    assert _separates_bruteforce(tree, ("a", "b", "c"))
    assert check_leaf_order(tree, ("a", "b", "c")) is None


def test_check_leaf_order_rejects_non_permutation(tree_a):
    with pytest.raises(OrderError):
        check_leaf_order(tree_a.tree, ("u1", "u1"))


def _sorted_ranks_violation(tree, seq):
    """Reference witness: sort the ranks below each vertex and name the first gap."""
    rank = {u: i for i, u in enumerate(seq)}
    for v in tree.vertices:
        ranks = sorted(rank[u] for u in tree.subtree_leaves(v))
        if ranks[-1] - ranks[0] + 1 == len(ranks):
            continue
        inside = set(ranks)
        gap = next(i for i in range(ranks[0], ranks[-1]) if i not in inside)
        u1 = seq[max(i for i in inside if i < gap)]
        u2 = seq[min(i for i in inside if i > gap)]
        return ViolatingTriple(u1, seq[gap], u2)
    return None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_check_leaf_order_agrees_with_bruteforce(seed):
    rand = random.Random(seed)
    omt = random_omt(rand, min_leaves=3, max_leaves=6)
    leaves = list(omt.tree.leaves)
    for _ in range(4):
        rand.shuffle(leaves)
        bad = check_leaf_order(omt.tree, tuple(leaves))
        assert (bad is None) == _separates_bruteforce(omt.tree, tuple(leaves))
        assert bad == _sorted_ranks_violation(omt.tree, tuple(leaves))


def _separating_shuffle(rand, tree):
    """A random separating leaf order: each vertex's children in random order."""
    order = []

    def walk(v):
        cs = list(tree.children(v))
        rand.shuffle(cs)
        if not cs:
            order.append(v)
        for c in cs:
            walk(c)

    walk(tree.root)
    return tuple(order)


def test_ordered_tree_aligns_a_permuted_separating_order():
    rand = random.Random(20261019)
    for _ in range(30):
        tree = random_omt(rand, min_leaves=2, max_leaves=10, multi_child_prob=0.4).tree
        seq = _separating_shuffle(rand, tree)
        omt = OrderedMergeTree(tree, seq)
        assert omt.tree.leaves == omt.leaf_order.sequence == seq
        for v in omt.tree.vertices:
            assert set(omt.tree.children(v)) == set(tree.children(v))
            assert set(omt.tree.subtree_leaves(v)) == set(tree.subtree_leaves(v))


def test_induced_layer_compare_examples(tree_a):
    p1 = TreePoint("u1", 2.0)
    p2 = TreePoint("u2", 2.0)
    assert tree_a.compare(p1, p2) == -1
    assert tree_a.compare(p2, p1) == 1
    assert tree_a.compare(p1, p1) == 0
    with pytest.raises(ValueError):
        tree_a.compare(p1, TreePoint("u2", 2.5))
    # One point anchored at a leaf and at the merge above it: distinct pairs
    # on one root path, so neither lies left of the other.
    with pytest.raises(ValueError, match="disjoint subtrees"):
        tree_a.compare(TreePoint("u1", 4.0), TreePoint("v", 4.0))


def _leafset_compare(omt, x1, x2):
    """Definition-level oracle: compare subtree leaf sets elementwise."""
    tree = omt.tree
    rank = {u: i for i, u in enumerate(omt.leaf_order.sequence)}
    l1 = [rank[u] for u in tree.subtree_leaves(x1.anchor)]
    l2 = [rank[u] for u in tree.subtree_leaves(x2.anchor)]
    if x1 == x2:
        return 0
    if all(a <= b for a in l1 for b in l2):
        return -1
    if all(b <= a for a in l1 for b in l2):
        return 1
    raise AssertionError("leaf sets interleave; order is broken")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_layer_compare_matches_leafset_oracle(seed):
    rand = random.Random(seed)
    omt = random_omt(rand, min_leaves=2, max_leaves=10)
    hs = omt.tree.finite_heights()
    h = rand.choice(hs + [(a + b) / 2 for a, b in zip(hs, hs[1:])])
    pts = omt.level_set(h)
    for x1 in pts:
        for x2 in pts:
            assert omt.compare(x1, x2) == _leafset_compare(omt, x1, x2)


def test_induced_leaf_order_round_trip_two_leaves(tree_a):
    out = induced_leaf_order(tree_a.tree, tree_a.compare)
    assert out.sequence == ("u1", "u2")


def test_induced_leaf_order_caterpillar(caterpillar3):
    omt = OrderedMergeTree(caterpillar3.tree, ("b", "a", "c"))
    out = induced_leaf_order(omt.tree, omt.compare)
    assert out.sequence == ("b", "a", "c")


def test_induced_leaf_order_inconsistent_comparator(caterpillar3):
    with pytest.raises(OrderError, match="inconsistent"):
        induced_leaf_order(caterpillar3.tree, lambda a, b: -1)


def test_layer_consistency_valid(tree_a, caterpillar3):
    assert check_layer_consistency(tree_a.tree, tree_a.compare) is None
    assert check_layer_consistency(caterpillar3.tree, caterpillar3.compare) is None


def test_layer_consistency_witness(caterpillar3):
    tree = caterpillar3.tree
    good = caterpillar3.compare

    def bad_cmp(x1, x2):
        # Flip the order below height 1 only: breaks upward consistency.
        if x1.height < 1.0:
            return -good(x1, x2)
        return good(x1, x2)

    w = check_layer_consistency(tree, bad_cmp)
    assert w is not None and w.kind in ("consistency", "antisymmetry")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_layer_consistency_random(seed):
    rand = random.Random(seed)
    omt = random_omt(rand, min_leaves=1, max_leaves=10)
    hs = omt.tree.finite_heights()
    mids = [(a + b) / 2 for a, b in zip(hs, hs[1:])]
    assert check_layer_consistency(omt.tree, omt.compare, mids) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_identities(seed):
    rand = random.Random(seed)
    omt = random_omt(rand, min_leaves=1, max_leaves=20)
    # L then T: the induced leaf order rebuilds the same ordered tree.
    order = induced_leaf_order(omt.tree, omt.compare)
    assert order.sequence == omt.leaf_order.sequence
    rebuilt = induced_ordered_tree(omt.tree, omt.compare)
    for v in omt.tree.vertices:
        assert rebuilt.tree.children(v) == omt.tree.children(v)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_descendants_inherit_strict_order(seed):
    rand = random.Random(seed)
    omt = random_omt(rand, min_leaves=2, max_leaves=8)
    tree = omt.tree
    hs = tree.finite_heights()
    h = rand.choice(hs)
    pts = omt.level_set(h)
    for x1, x2 in itertools.combinations(pts, 2):
        c = omt.compare(x1, x2)
        for u1 in tree.subtree_leaves(x1.anchor):
            for u2 in tree.subtree_leaves(x2.anchor):
                hbar = max(tree.height(u1), tree.height(u2))
                a1 = tree.ancestor_at(tree.point(u1), hbar)
                a2 = tree.ancestor_at(tree.point(u2), hbar)
                assert omt.compare(a1, a2) == c


def _compare_points_reference(omt, x1, x2):
    """Point order: compare the ancestors at the higher of the two heights."""
    h = max(x1.height, x2.height)
    a1 = omt.tree.ancestor_at(x1, h)
    a2 = omt.tree.ancestor_at(x2, h)
    return 0 if a1 == a2 else omt.compare(a1, a2)


def _first_flip_reference(src, dst, xs, ys):
    """The pair loop: first i < j ordered strictly one way in src and the other in dst."""
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            c = _compare_points_reference(src, xs[i], xs[j])
            if c and c * _compare_points_reference(dst, ys[i], ys[j]) < 0:
                return i, j
    return None


def test_first_flip_matches_pair_loop(point_set_pairs):
    seen = {"flip": 0, "none": 0}
    for src, xs, dst, ys in point_set_pairs:
        want = _first_flip_reference(src, dst, xs, ys)
        assert first_flip(src, dst, xs, ys) == want
        seen["none" if want is None else "flip"] += 1
        # Against itself, no pair of points flips.
        assert first_flip(src, src, xs, xs) is None
    assert min(seen.values()) > 50, seen


def test_first_flip_matches_pair_loop_on_larger_labellings():
    """Labellings of up to 60 labels from optimal good maps, with labels added
    at internal vertices and at the roots and a few target labels swapped, so
    that several pairs flip and the row-major choice among them matters."""
    from omtdist.interleaving import monotone_interleaving_distance
    from omtdist.labelling import good_to_labelling

    rand = random.Random(20261019)
    rows, multi = [], 0
    for _ in range(60):
        src, dst = (random_omt(rand, min_leaves=4, max_leaves=16, multi_child_prob=0.4) for _ in "ab")
        _, (alpha, _) = monotone_interleaving_distance(src, dst)
        lab = good_to_labelling(alpha)
        xs, ys = list(lab.pi), list(lab.pi_prime)
        for _ in range(rand.randint(2, 12)):
            k = rand.randrange(len(xs) + 1)
            x = src.root_point if rand.random() < 0.2 else src.tree.point(rand.choice(src.tree.vertices))
            y = dst.root_point if rand.random() < 0.2 else dst.tree.point(rand.choice(dst.tree.vertices))
            xs.insert(k, x)
            ys.insert(k, y)
        for _ in range(rand.randint(0, 3)):
            i, j = rand.randrange(len(ys)), rand.randrange(len(ys))
            ys[i], ys[j] = ys[j], ys[i]
        want = _first_flip_reference(src, dst, xs, ys)
        assert first_flip(src, dst, xs, ys) == want
        assert first_flip(dst, src, ys, xs) == want
        if want is not None:
            i = want[0]
            rows.append(i)
            flips = sum(
                _compare_points_reference(src, xs[i], xs[j]) * _compare_points_reference(dst, ys[i], ys[j]) < 0
                for j in range(len(xs))
            )
            multi += flips > 1
    # Most cases flip, in rows past the first, often with more than one pair in that row.
    assert len(rows) > 30 and len(set(rows)) > 5 and multi > 10, (rows, multi)
