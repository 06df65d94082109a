import json
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


def _tree_text(vertices, children) -> str:
    """An omt-tree-1 document from (id, parent, height) triples and a children table."""
    return json.dumps({
        "format": "omt-tree-1",
        "vertices": [{"id": v, "parent": p, "height": "inf" if h == INF else h} for v, p, h in vertices],
        "children": children,
    })


@pytest.fixture
def nondyadic_corner_pair():
    """Two tree documents with heights off every dyadic grid.

    The pair is one of the random pairs scaled by a real factor (1.5007 here)
    whose optimal matching has corner steps: a bottom entry next to a left
    entry at one vertex of each curve.  Were a corner to keep only one
    step's vertex label, leaf u2 of the first tree would be named by an edge
    step and its rounded height, and the certificate could not be built.
    """
    a = _tree_text(
        [
            ("u0", "m2", 1.3131101581154367), ("u1", "m1", 0.9144874315446793),
            ("u2", "m0", 0.8675906401834136), ("u3", "m0", 0.0703451870418984),
            ("m0", "m1", 1.1020745969897416), ("m1", "m2", 1.3365585537960696),
            ("m2", "root", 1.4538005321992336), ("root", None, INF),
        ],
        {"m0": ["u2", "u3"], "m1": ["u1", "m0"], "m2": ["u0", "m1"], "root": ["m2"]},
    )
    b = _tree_text(
        [
            ("u0", "m3", 0.1641387697644296), ("u1", "m0", 0.1406903740837968),
            ("u2", "m0", 0.7269002660996168), ("u3", "m1", 0.5158647049739216),
            ("u4", "m1", 0.117241978403164), ("u5", "m2", 0.117241978403164),
            ("u6", "m4", 1.2662133667541713), ("m0", "m1", 1.055177805628476),
            ("m1", "m2", 1.17241978403164), ("m2", "m3", 1.5006973235604992),
            ("m3", "m4", 1.7117328846861943), ("m4", "root", 1.993113632853788),
            ("root", None, INF),
        ],
        {"m0": ["u1", "u2"], "m1": ["m0", "u3", "u4"], "m2": ["m1", "u5"], "m3": ["u0", "m2"],
         "m4": ["m3", "u6"], "root": ["m4"]},
    )
    return a, b


@pytest.fixture
def large_offgrid_pair():
    """Two tree documents with heights near 2**40 off every dyadic grid.

    Pair 26 of the benchmark's pairs-nondyadic workload (seed 343185045),
    every height multiplied by 2**40.  Its optimum is no float: a witness
    swept at the optimum rounded up to a float has a gap one ulp above that
    value, which the emit's gap check refuses.
    """
    a = _tree_text(
        [
            ("u0", "m1", 597942269299.3352), ("u1", "m0", 904579330478.4814),
            ("u2", "m0", 398628179532.89014), ("m0", "m1", 919911183537.4388),
            ("m1", "root", 935243036596.3961), ("root", None, INF),
        ],
        {"m0": ["u1", "u2"], "m1": ["u0", "m0"], "root": ["m1"]},
    )
    b = _tree_text(
        [
            ("u0", "m0", 107322971412.7012), ("u1", "m0", 168650383648.53046),
            ("u2", "m0", 751260799888.9083), ("m0", "root", 858583771301.6096),
            ("root", None, INF),
        ],
        {"m0": ["u0", "u1", "u2"], "root": ["m0"]},
    )
    return a, b
