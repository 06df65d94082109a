import random

import pytest

from omtdist.ordering import OrderedMergeTree
from omtdist.randomtrees import random_omt
from omtdist.trees import INF, MergeTree, TreePoint


def build_tree(spec: dict[str, tuple[str | None, float]], order=None) -> OrderedMergeTree:
    """Tiny builder: vertex -> (parent, height); child order follows dict order."""
    parent = {v: p for v, (p, _) in spec.items()}
    height = {v: h for v, (_, h) in spec.items()}
    tree = MergeTree(parent, height)
    return OrderedMergeTree(tree, order if order is not None else tree.leaves)


def scaled(omt: OrderedMergeTree, s: float) -> OrderedMergeTree:
    """All heights multiplied by ``s``; off every coarse dyadic grid for most ``s``."""
    tree = omt.tree
    heights = {v: tree.height(v) * s for v in tree.vertices}
    parents = {v: tree.parent(v) for v in tree.vertices}
    scaled_tree = MergeTree(parents, heights, {v: tree.children(v) for v in tree.vertices})
    return OrderedMergeTree(scaled_tree, scaled_tree.leaves)


def random_point(rand: random.Random, tree: MergeTree) -> TreePoint:
    """A vertex point (the root included) or a point inside the edge above a vertex."""
    v = rand.choice(tree.vertices)
    p = tree.parent(v)
    if p is None or rand.random() < 0.5:
        return tree.point(v)
    lo = tree.height(v)
    h = lo + rand.random() * (min(tree.height(p), lo + 1.0) - lo)
    return TreePoint(v, h) if lo < h < tree.height(p) else tree.point(v)


@pytest.fixture(scope="session")
def point_set_pairs():
    """Seeded (src, xs, dst, ys) cases with ``len(xs) == len(ys)``.

    Heights are dyadic or scaled off the grid, trees may have a single leaf,
    the first cases carry 0, 1 and 2 points, and points sit at vertices,
    inside edges or at the root, repeats included.
    """
    rand = random.Random(20261020)
    cases = []
    for k in range(400):
        src, dst = (random_omt(rand, min_leaves=1, max_leaves=9, multi_child_prob=0.4) for _ in "ab")
        if k % 2:
            s = rand.uniform(0.5, 2.0)
            src, dst = scaled(src, s), scaled(dst, s)
        count = k % 3 if k < 30 else rand.randint(3, 14)
        xs = [random_point(rand, src.tree) for _ in range(count)]
        ys = [random_point(rand, dst.tree) for _ in range(count)]
        cases.append((src, xs, dst, ys))
    return cases


@pytest.fixture
def tree_a():
    from omtdist.randomtrees import tree_a as make

    return make()


@pytest.fixture
def tree_b():
    from omtdist.randomtrees import tree_b as make

    return make()


@pytest.fixture
def caterpillar3():
    """Leaves a, b under v1 (h=2); leaf c joins at v2 (h=4)."""
    return build_tree(
        {
            "root": (None, INF),
            "v2": ("root", 4.0),
            "v1": ("v2", 2.0),
            "a": ("v1", 0.0),
            "b": ("v1", 0.0),
            "c": ("v2", 0.0),
        }
    )


@pytest.fixture
def rng():
    return random.Random(20260810)
