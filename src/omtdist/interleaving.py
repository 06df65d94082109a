"""Interleaving certificates between ordered merge trees.

A delta-shift map sends every point of one tree to a point exactly delta
higher in the other.  Such a map is continuous iff it is determined by its
values on the leaves through the ancestor rule, so a :class:`ShiftMap` stores
just the leaf image table; evaluation lifts the image of any descendant leaf.
A map is an immutable named tuple, so the checks below share its one
validation; all of them compare heights up to the one tolerance ``HEIGHT_TOL``.

This module verifies interleavings (conditions C1-C4), monotonicity, and the
two equivalent single-map ("good map") characterisations.  Every check works
on the leaf images: C2/C4 at the source leaves, monotonicity as one
O(L log L) order check on the leaf spans of the leaves and their images
(:func:`first_flip`), the second good-map condition (T2 or G2) as one
closed form over leaf pairs (one pass, :func:`max_lca_gap`), and T3/G3 off
the floor of the leaf images (:class:`ImageFloor`, the planted subtrees its
upward closure misses, in two passes over the parent table).  No
check samples level sets; the level-set samplers live in the tests as
independent references.

The certificate of the distance is read off the paired points ``(xs, ys)``
of a witness matching (:func:`witness_points`, the one caller of the
Frechet engine, which it imports when called).  A curve sample is a vertex
of the in-order walk (:func:`leaf_range_walk`) and a step inside a segment
is its :func:`leg_point`, so no trace is built.  The cost of the pairs is
their :func:`pair_gap`, and they induce the interleaving, as a monotone
labelling does, by one rule (:func:`maps_from_pairs`): each leaf maps to
the ancestor, delta above it, of the first point paired with it.  The way
back, interleaving to matching, runs in no CLI op; it lives in
:mod:`omtdist.curves`, which imports this module.

Every root-path climb here, in C1/determination, C2/C4,
:func:`maps_from_pairs`, :func:`leg_point` and :func:`matched_points`, is
one call of :meth:`MergeTree.anchor_at`, the climb that
:meth:`MergeTree.lift` is built on.  The passes carry points as
``(anchor, height)`` pairs and build a :class:`TreePoint` only for a point
they return or report; the tests hold each of them to the method-based pass
it replaced (:meth:`ShiftMap.apply`, :meth:`MergeTree.lift`).
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .curve1d import induced_curve
from .ordering import OrderedMergeTree, first_flip
from .trees import HEIGHT_TOL, INF, MergeTree, TreePoint, VertexId, max_lca_gap, points_close

if TYPE_CHECKING:
    from .curves import CurveTrace
    from .frechet import Matching


class CertificateError(ValueError):
    """A certificate is structurally unusable (mismatched trees or deltas)."""


class CheckFailure(NamedTuple):
    condition: str
    detail: str = ""
    witness: tuple = ()

    def __str__(self) -> str:
        return f"{self.condition}: {self.detail}"


class _ShiftMapFields(NamedTuple):
    source: OrderedMergeTree
    target: OrderedMergeTree
    delta: float
    leaf_images: dict[VertexId, TreePoint]


class ShiftMap(_ShiftMapFields):
    """A delta-shift map, finitely represented by its leaf images.

    A map is immutable, so its C1/determination verdict is computed once, on
    first use, and kept in the ``__dict__`` of this named tuple without
    ``__slots__``.  ``leaf_images`` must not be mutated after construction;
    derive a changed map with ``_replace``, which gets a verdict of its own.
    """

    def apply(self, x: TreePoint) -> TreePoint:
        """Image of an arbitrary point via the ancestor rule on any leaf below."""
        tree = self.source.tree
        img = self.leaf_images[tree.leaves[tree.leaf_span(x.anchor)[0]]]
        return self.target.tree.lift(img, x.height + self.delta)

    def validate(self) -> CheckFailure | None:
        """Leaf coverage, the exact-shift condition C1, and determination."""
        return self._verdict

    @functools.cached_property
    def _verdict(self) -> CheckFailure | None:
        """The verdict of :meth:`validate`, computed once per map.

        C1 also refuses an image keyed by anything but a source leaf, so that
        no later check reads an entry that the map does not stand for.
        Determination checks that at every internal vertex the images induced
        by each child agree; by induction this makes the map well defined at
        every point.  The image a child induces at its parent's level is the
        ancestor there of the child's own image (both are ancestors of the
        image of the child's first leaf), so one bottom-up pass finds them
        all, each walk starting where the walk below it stopped.  When
        several vertices disagree, the first in pre-order is reported.
        """
        tree = self.source.tree
        target = self.target.tree
        images, delta = self.leaf_images, self.delta
        heights, kids = tree._height, tree._kids
        for u in tree._leaves:
            if u not in images:
                return CheckFailure("C1", f"leaf {u!r} has no image")
            img = images[u]
            if not target.contains_point(img):
                return CheckFailure("C1", f"image of {u!r} is not a point of the target")
            if abs(img.height - (heights[u] + delta)) > HEIGHT_TOL:
                return CheckFailure("C1", f"image of leaf {u!r} is not exactly delta higher", (u, img))
        if len(images) != len(tree._leaves):
            leaves = set(tree._leaves)
            u = next(u for u in images if u not in leaves)
            return CheckFailure("C1", f"image keyed by {u!r}, which is not a leaf of the source", (u,))
        first_bad = None
        at = {}  # each vertex's image via its first leaf, as (anchor, height)
        for v in reversed(tree._preorder):
            cs = kids.get(v)
            if not cs:
                at[v] = images[v]
                continue
            if len(cs) == 1:
                # Below a single child any lower point of the same root path
                # starts the walk to the next level just as well.
                at[v] = at[cs[0]]
                continue
            h = heights[v] + delta
            first = None
            for c in cs:
                # target.lift(at[c], h), kept as a pair.
                cur, hc = at[c]
                hc = hc if hc > h else h
                cur = target.anchor_at(cur, hc)
                if first is None:
                    first = (cur, hc)
                elif first != (cur, hc) and not points_close(target, TreePoint(*first), TreePoint(cur, hc)):
                    first_bad = v
            at[v] = first
        if first_bad is not None:
            return CheckFailure(
                "determination", f"children of {first_bad!r} disagree on the image", (first_bad,)
            )
        return None


def _require_compatible(a: ShiftMap, b: ShiftMap) -> None:
    if a.delta != b.delta:
        raise CertificateError("the two maps carry different deltas")
    if a.source is not b.target or a.target is not b.source:
        raise CertificateError("maps do not connect the same pair of ordered trees")


def check_interleaving(a: ShiftMap, b: ShiftMap) -> CheckFailure | None:
    """Verify conditions C1-C4 of a delta-interleaving.

    C1/C3 are the exact-shift conditions checked by ``validate``.  C2/C4 are
    checked at the source leaves.  Once both maps validate, both sides of a
    round trip climb root paths, so equality at a leaf propagates to all its
    ancestors and the leaves alone are exhaustive; the witness is the first
    failing leaf.  A round trip sits 2*delta above its start by construction,
    so it is the 2-delta ancestor iff, lifted by ``HEIGHT_TOL`` past last-ulp
    noise below a merge, it is an ancestor.
    """
    _require_compatible(a, b)
    for m, cond in ((a, "C1"), (b, "C3")):
        bad = m.validate()
        if bad is not None:
            return CheckFailure(cond, bad.detail, bad.witness)
    for fwd, back, cond in ((a, b, "C2"), (b, a, "C4")):
        tree, mid = fwd.source.tree, fwd.target.tree
        heights, m_span, m_leaves = tree._height, mid._span, mid._leaves
        there, back_images = fwd.leaf_images, back.leaf_images
        for u in tree._leaves:
            # The round trip back.apply(fwd.apply(x)) of the leaf point
            # x = (u, hu) is the ancestor at rt of the leaf image anchored at
            # cur below.  x must lie below the round trip's ancestor
            # HEIGHT_TOL higher, which one climb from cur reaches; the round
            # trip's own anchor is climbed to only for the witness.
            hu = heights[u]
            cur, h = there[u]
            top = hu + fwd.delta
            h = h if h > top else top
            cur = mid.anchor_at(cur, h)
            cur, rt = back_images[m_leaves[m_span[cur][0]]]
            top = h + back.delta
            rt = rt if rt > top else top
            h = rt + HEIGHT_TOL
            if not (h >= hu and tree._holds(tree.anchor_at(cur, h), u)):
                x = TreePoint(u, hu)
                roundtrip = TreePoint(tree.anchor_at(cur, rt), rt)
                return CheckFailure(cond, f"round trip misses the 2-delta ancestor at {x}", (x, roundtrip))
    return None


def check_monotone(a: ShiftMap) -> CheckFailure | None:
    """Order preservation of a shift map, checked on its leaf images.

    The points of one level are ancestors of leaves in the same order, and
    distinct ancestors keep the order of the points below them, so the map
    preserves the order of every level iff no two leaf images flip.
    """
    bad = a.validate()
    if bad is not None:
        return bad
    src = a.source.tree
    leaves = src.leaves
    # first_flip reads a point's anchor alone, so a leaf stands as the 1-tuple of itself.
    flip = first_flip(a.source, a.target, list(zip(leaves)), [a.leaf_images[u] for u in leaves])
    if flip is not None:
        x1, x2 = (src.point(leaves[k]) for k in flip)
        return CheckFailure(
            "monotone", f"images of leaves {x1.anchor!r} and {x2.anchor!r} flip order", (x1, x2)
        )
    return None


# -- good maps -------------------------------------------------------------


class ImageFloor:
    """The upward closure of a set of tree points, read off one reverse pre-order pass.

    ``low[v]`` is the lowest height of the points anchored in the subtree of
    ``v`` (+inf if none), so ``(v, h)`` lies above some point iff
    ``low[v] <= h``.  The lowest ancestors in the closure and the planted
    subtrees the points miss are read off ``low``.  The image of a shift
    map is the closure of its leaf images; a trace enters exactly the planted
    subtrees that hold one of its breakpoints, since a monotone leg cannot
    dip into a subtree and come back out.
    """

    def __init__(self, tree: MergeTree, points: Iterable[TreePoint]):
        self.tree = tree
        preorder, parent = tree._preorder, tree._parent
        low = dict.fromkeys(preorder, INF)
        for a, h in points:
            if h < low[a]:
                low[a] = h
        for v in reversed(preorder):
            p = parent[v]
            if p is not None and low[v] < low[p]:
                low[p] = low[v]
        self.low = low

    def lowest_ancestor(self, y: TreePoint) -> TreePoint:
        """The lowest ancestor of ``y`` lying in the closure."""
        tree, v = self.tree, y.anchor
        p = tree.parent(v)
        while p is not None and self.low[v] >= tree.height(p):
            v, p = p, tree.parent(p)
        return TreePoint(v, max(y.height, tree.height(v), self.low[v]))

    def maximal_unvisited(self) -> list[tuple[VertexId, TreePoint]]:
        """(top vertex, attach point) of each maximal planted subtree outside the closure.

        A top is an unvisited vertex whose parent is in the closure; it
        attaches at the lowest closure point on its own edge, else at its
        parent.
        """
        low, parent, height = self.low, self.tree._parent, self.tree._height
        out = []
        for v in self.tree._preorder:
            p = parent[v]
            if p is None or low[v] <= height[v] or low[p] > height[p]:
                continue
            out.append((v, TreePoint(v, low[v]) if low[v] < height[p] else TreePoint(p, height[p])))
        return out


def _t2_witness(a: ShiftMap, u: TreePoint, y: TreePoint) -> TreePoint:
    """The lowest point above leaf ``u`` whose image reaches ``y``: height(y) - delta,
    raised past last-ulp rounding so that its image does reach ``y``."""
    h = max(u.height, y.height - a.delta)
    while max(h + a.delta, a.leaf_images[u.anchor].height) < y.height:
        h = math.nextafter(h, INF)
    return a.source.tree.ancestor_at(u, h)


def check_good_map(a: ShiftMap, variant: str = "TW") -> CheckFailure | None:
    """Verify the three conditions of a delta-good map.

    ``variant="TW"`` reports the ancestor-preservation form (T1-T3),
    ``variant="G"`` the preimage-lca / depth form (G1-G3).  The two forms are
    equivalent and share one check; the variant only picks the condition
    tags and witnesses.  The tests keep a level-set sampler of T2 as the
    independent reference.

    The second conditions are one inequality over source leaves u_i, u_j
    whose images meet at height L.  The lowest point x1 above u_i whose image
    covers the image of u_j sits at L - delta, and its 2-delta lift covers u_j
    iff the two leaves merge at most L + delta (+ ``HEIGHT_TOL``) in the source.
    That is T2 at (x1, u_j), and pairs whose second point is a leaf suffice:
    a violation at (x1, x2) descends to (x1, leaf below x2) because the
    2-delta lifts of both sit on one root path.  It is also G2, since the
    ancestors of u_i, u_j at height h share an image iff h + delta reaches L.
    One pass of :func:`max_lca_gap` gives each leaf's largest gap over all
    pairs, and only the rows whose gap exceeds the bound are scanned for the
    first failing pair in row-major order, above the diagonal: both lca
    heights are symmetric, and a row that fails only on its diagonal
    (delta < 0) holds no such pair.
    The third conditions compare the attach point of each maximal unvisited
    subtree, read off the :class:`ImageFloor` of the leaf images, with its
    lowest leaf.
    """
    if variant not in ("TW", "G"):
        raise ValueError("variant must be 'TW' or 'G'")
    tw = variant == "TW"
    bad = a.validate()
    if bad is not None:
        return CheckFailure("T1" if tw else "G1", bad.detail, bad.witness)
    src = a.source.tree
    dst = a.target.tree
    leaves = [src.point(u) for u in src.leaves]
    leaf_imgs = [a.leaf_images[u] for u in src.leaves]

    bound = a.delta + HEIGHT_TOL
    rows = max_lca_gap(src, leaves, dst, leaf_imgs, bound)
    for i, j in ((i, j) for i, row in enumerate(rows) if row > bound for j in range(i + 1, len(leaves))):
        if src.lca_height(leaves[i], leaves[j]) - dst.lca_height(leaf_imgs[i], leaf_imgs[j]) > bound:
            y = dst.lca(leaf_imgs[i], leaf_imgs[j])
            if tw:
                witness = (_t2_witness(a, leaves[i], y), leaves[j])
                return CheckFailure("T2", "ancestor relation not preserved", witness)
            witness = (y, src.lca(leaves[i], leaves[j]))
            return CheckFailure("G2", f"preimage lca of {y} sits too high", witness)
    for v, attach in ImageFloor(dst, leaf_imgs).maximal_unvisited():
        u = min(dst.subtree_leaves(v), key=dst.height)
        gap = attach.height - dst.height(u)
        if gap > 2.0 * a.delta + HEIGHT_TOL:
            if tw:
                return CheckFailure("T3", f"unvisited point {u!r} is {gap} below its image ancestor", (u, attach))
            return CheckFailure("G3", f"unvisited planted subtree below {attach} is too deep", (v, attach))
    return None


# -- matchings -> interleavings ---------------------------------------------


def leg_point(tree: MergeTree, a: TreePoint, b: TreePoint, h: float) -> TreePoint:
    """The point at height ``h`` of the monotone leg between ``a`` and ``b``.

    A height outside the leg is clamped to its nearer end, which absorbs
    last-ulp noise in a height computed elsewhere.
    """
    (v, lo), (w, hi) = a, b
    if lo > hi:
        v, lo, hi = w, hi, lo
    h = lo if lo > h else h
    h = hi if hi < h else h
    return TreePoint(tree.anchor_at(v, h), h)


def leaf_range_walk(tree: MergeTree, lo: int, hi: int) -> list[TreePoint]:
    """The in-order walk over leaves ``lo`` to ``hi - 1``: l_lo, m_lo, l_{lo+1}, ..., l_{hi-1}.

    ``m_i`` is the lca vertex of leaves i and i + 1, read from the tree's
    neighbour-merge record (:attr:`MergeTree.merge_vertices`), so the walk
    makes no ``lca`` call and builds no leaf span.
    """
    height, leaves = tree._height, tree._leaves
    pts = []
    for u, m in zip(leaves[lo:hi], tree._merge_vertices[lo : hi - 1]):
        pts += (TreePoint(u, height[u]), TreePoint(m, height[m]))
    u = leaves[hi - 1]
    pts.append(TreePoint(u, height[u]))
    return pts


def pair_gap(xs: Sequence[TreePoint], ys: Sequence[TreePoint]) -> tuple[float, int]:
    """The largest height gap between paired points ``xs[k]`` and ``ys[k]``,
    two points at +inf counting 0, and the first ``k`` where it occurs.

    Heights interpolate linearly between consecutive pairs, so each leg's
    largest gap sits at one of its ends, and the gap is the cost of the
    matching that the pairs realise.
    """
    worst, at = 0.0, 0
    for k, ((_, ha), (_, hb)) in enumerate(zip(xs, ys)):
        if ha == INF and hb == INF:
            continue
        gap = abs(ha - hb)
        if gap > worst:
            worst, at = gap, k
    return worst, at


def matched_points(
    omt_p: OrderedMergeTree, omt_q: OrderedMergeTree, matching: Matching
) -> tuple[list[TreePoint], list[TreePoint]]:
    """The paired points of a matching of the induced curves: per step, its
    point on either tree.

    The samples of an induced curve are the vertices of the in-order walk:
    sample k is the root for k = 0 and k = 2L, leaf ``k // 2`` for odd k, and
    ``merge_vertices[k // 2 - 1]`` for the other even k.  A step inside
    segment e lies on the walk leg between samples e and e + 1, at the step's
    height clamped to the leg as :func:`leg_point` clamps it.
    """
    _, _, hp, hq, p_index, q_index, p_edge, q_edge = zip(*matching.steps)
    return _walk_points(omt_p.tree, p_index, p_edge, hp), _walk_points(omt_q.tree, q_index, q_edge, hq)


def _walk_points(tree: MergeTree, indices, edges, heights) -> list[TreePoint]:
    """The points of one curve's steps: at walk vertex ``indices[k]``, else on
    walk leg ``edges[k]`` at height ``heights[k]``."""
    root = tree.point(tree.root)
    at = [root, *leaf_range_walk(tree, 0, len(tree._leaves)), root]
    return [at[k] if k is not None else leg_point(tree, at[e], at[e + 1], h)
            for k, e, h in zip(indices, edges, heights)]


def matched_traces_from_matching(
    omt_p: OrderedMergeTree,
    omt_q: OrderedMergeTree,
    walk_p: CurveTrace,
    walk_q: CurveTrace,
    matching: Matching,
) -> tuple[list[TreePoint], list[TreePoint]]:
    """:func:`matched_points` under the name and arguments that the benchmark's
    stage replay (``perfbench/tracing.py``) imports; the walks are not read.
    Nothing else calls it, and it goes with that replay."""
    return matched_points(omt_p, omt_q, matching)


def maps_from_pairs(
    src: OrderedMergeTree,
    dst: OrderedMergeTree,
    xs: Sequence[TreePoint],
    ys: Sequence[TreePoint],
    delta: float,
) -> tuple[ShiftMap, ShiftMap]:
    """The interleaving pair induced by paired points ``xs[k]`` of ``src`` and ``ys[k]`` of ``dst``.

    Each leaf maps to the ancestor, delta above it, of the first point paired
    with it, in both directions.  Later pairs at a leaf must agree up to
    ``points_close``, every leaf must be paired, and both maps must validate;
    otherwise :class:`CertificateError`.
    """
    maps = []
    for s, d, own, other in ((src, dst, xs, ys), (dst, src, ys, xs)):
        tree, target = s.tree, d.tree
        heights, kids = tree._height, tree._kids
        images: dict[VertexId, TreePoint] = {}
        for (u, hx), (cur, h) in zip(own, other):
            hu = heights[u]
            if hx != hu or kids.get(u):
                continue
            # target.lift(y, hu + delta), kept as a pair.
            top = hu + delta
            h = h if h > top else top
            cur = target.anchor_at(cur, h)
            img = images.get(u)
            if img is None:
                images[u] = TreePoint(cur, h)
            elif img != (cur, h) and not points_close(target, img, TreePoint(cur, h)):
                raise CertificateError(f"paired points give conflicting images for leaf {u!r}")
        missing = [u for u in tree._leaves if u not in images]
        if missing:
            raise CertificateError(f"leaves paired with no point: {missing}")
        maps.append(ShiftMap(s, d, delta, images))
    for m in maps:
        bad = m.validate()
        if bad is not None:
            raise CertificateError(f"induced map is inconsistent: {bad}")
    return maps[0], maps[1]


def matching_to_interleaving(
    omt_p: OrderedMergeTree,
    omt_q: OrderedMergeTree,
    matched: tuple[Sequence[TreePoint], Sequence[TreePoint]],
    delta: float,
) -> tuple[ShiftMap, ShiftMap]:
    """The monotone interleaving induced by the paired points ``(xs, ys)`` of a
    delta-matching: :func:`maps_from_pairs`, once the pairs are checked to lie
    at most delta apart in height.

    The two lists must be aligned and hold at least two pairs, a start and an
    end.  A refusal names the first worst pair by its parameter on the
    uniform traces through the points.
    """
    xs, ys = matched
    if len(xs) != len(ys):
        raise CertificateError(f"paired point lists differ in length: {len(xs)} and {len(ys)}")
    if len(xs) < 2:
        raise CertificateError(f"a matching needs at least two pairs, got {len(xs)}")
    gap, k = pair_gap(xs, ys)
    if gap > delta + HEIGHT_TOL:
        raise CertificateError(f"traces are not {delta}-matched: gap {gap} at parameter {k / (len(xs) - 1)}")
    return maps_from_pairs(omt_p, omt_q, xs, ys, delta)


# -- the distance ------------------------------------------------------------


def witness_points(
    omt_p: OrderedMergeTree, omt_q: OrderedMergeTree
) -> tuple[float, tuple[list[TreePoint], list[TreePoint]]]:
    """The distance and the paired points ``(xs, ys)`` of a witness matching.

    Computes the Frechet distance of the induced curves, the ones plain
    ``distance`` computes, with a witness matching, and reads its
    :func:`matched_points`.  Every certificate is read off these points.
    """
    from .frechet import compute_frechet

    value, matching = compute_frechet(induced_curve(omt_p), induced_curve(omt_q))
    return value, matched_points(omt_p, omt_q, matching)


def monotone_interleaving_distance(
    omt_p: OrderedMergeTree, omt_q: OrderedMergeTree
) -> tuple[float, tuple[ShiftMap, ShiftMap]]:
    """Exact monotone interleaving distance with an optimal certificate:
    the interleaving pair induced by the :func:`witness_points`."""
    value, matched = witness_points(omt_p, omt_q)
    return value, matching_to_interleaving(omt_p, omt_q, matched, value)
