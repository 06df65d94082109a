"""Interleaving certificates between ordered merge trees.

A delta-shift map sends every point of one tree to a point exactly delta
higher in the other.  Such a map is continuous iff it is determined by its
values on the leaves through the ancestor rule, so a :class:`ShiftMap` stores
just the leaf image table; evaluation lifts the image of any descendant leaf.
A map is immutable, so the checks below share its one validation; all of
them compare heights up to the one tolerance ``HEIGHT_TOL``.

This module verifies interleavings (conditions C1-C4), monotonicity, and the
two equivalent single-map ("good map") characterisations.  Every check works
on the leaf images: C2/C4 at the source leaves, monotonicity as one
O(L log L) order check on the leaf spans of the leaves and their images
(:func:`first_flip`), the second good-map condition (T2 or G2) as one
closed form over leaf pairs (one pass, :func:`max_lca_gap`), and T3/G3 off
the floor of the leaf images.  No check samples level sets; the level-set
samplers live in the tests as independent references.

The module converts between delta-matchings of the induced curves and
monotone interleavings, one function each way: :func:`matching_to_interleaving`
and :func:`interleaving_to_matching`.  A matching is its paired points, the
aligned lists ``(xs, ys)``.  A matching and a monotone labelling induce the
interleaving by one rule, :func:`maps_from_pairs`: each leaf maps to the
ancestor, delta above it, of the first point paired with it.  The distance
reduces to the Frechet distance of the induced curves, and its certificate
is read off the paired points of a witness matching (:func:`matched_points`):
a curve sample is a vertex of the in-order walk
(:func:`omtdist.curves.leaf_range_walk` between two root visits), and a step
inside a segment lies on the walk leg, so no trace is built.  The way back
splices an in-order subwalk through each maximal subtree that the pushed
walk misses, read off the floor of its points.  The floor
(:class:`omtdist.curves.ImageFloor`), and the walks, leg points, visits and
parameters the way back needs, come from :mod:`omtdist.curves`.

Every root-path climb here, in C1/determination, C2/C4,
:func:`maps_from_pairs` and :func:`matched_points`, is one call of
:meth:`MergeTree.anchor_at`, the climb that :meth:`MergeTree.lift` and
:func:`omtdist.curves.leg_point` are built on.  The passes carry points as
``(anchor, height)`` pairs and build a :class:`TreePoint` only for a point
they return or report; the tests hold each of them to the method-based pass
it replaced (:meth:`ShiftMap.apply`, :meth:`MergeTree.lift`).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Sequence

from . import frechet
from .curves import (
    CurveTrace,
    ImageFloor,
    contract_violating,
    in_order_walk,
    induced_curve,
    leaf_range_walk,
    leg_point,
    pair_gap,
    planted_walk,
    visits,
)
from .ordering import OrderedMergeTree, first_flip
from .trees import HEIGHT_TOL, INF, MergeTree, TreePoint, VertexId, max_lca_gap, points_close


class CertificateError(ValueError):
    """A certificate is structurally unusable (mismatched trees or deltas)."""


@dataclass(frozen=True)
class CheckFailure:
    condition: str
    detail: str = ""
    witness: tuple = ()

    def __str__(self) -> str:
        return f"{self.condition}: {self.detail}"


@dataclass(frozen=True)
class ShiftMap:
    """A delta-shift map, finitely represented by its leaf images.

    A map is immutable, so its C1/determination verdict is computed once, on
    first use, and every later check reads it.  ``leaf_images`` must not be
    mutated after construction; derive a changed map with
    ``dataclasses.replace``, which gets a verdict of its own.
    """

    source: OrderedMergeTree
    target: OrderedMergeTree
    delta: float
    leaf_images: dict[VertexId, TreePoint]

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
    One pass of :func:`max_lca_gap` tells whether a pair fails; only then are
    the pairs scanned in row-major order, above the diagonal: both lca heights are symmetric.
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
    if max_lca_gap(src, leaves, dst, leaf_imgs) > bound:
        for i, j in ((i, j) for i in range(len(leaves)) for j in range(i + 1, len(leaves))):
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


def matched_points(
    omt_p: OrderedMergeTree, omt_q: OrderedMergeTree, matching: frechet.Matching
) -> tuple[list[TreePoint], list[TreePoint]]:
    """The paired points of a matching of the induced curves: per step, its
    point on either tree.

    The samples of an induced curve are the vertices of the in-order walk:
    sample k is the root for k = 0 and k = 2L, leaf ``k // 2`` for odd k, and
    ``merge_vertices[k // 2 - 1]`` for the other even k.  A step inside
    segment e lies on the walk leg between samples e and e + 1, at the step's
    height clamped to the leg as :func:`omtdist.curves.leg_point` clamps it.
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
    matching: frechet.Matching,
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


# -- interleavings -> matchings ---------------------------------------------


def _section_children(trace: CurveTrace, y: TreePoint, events) -> list[VertexId | None]:
    """For each gap between consecutive visits of vertex ``y``, the child entered."""
    tree = trace.tree
    out: list[VertexId | None] = []
    for (s0, _), (s1, _) in zip(events, events[1:]):
        child = None
        for k, pt in enumerate(trace.points):
            if s0 < trace.params[k] < s1 and pt != y and pt.height < y.height and tree.is_ancestor(pt, y):
                child = tree.child_toward(y.anchor, pt)
                break
        out.append(child)
    return out


def interleaving_to_matching(a: ShiftMap, b: ShiftMap) -> tuple[list[TreePoint], list[TreePoint]]:
    """The paired points ``(xs, ys)`` of a delta-matching of in-order curves,
    from a monotone interleaving.

    Pushes the canonical walk of the source through the map, contracts the
    maximal violating subcurves, and splices an in-order subwalk through every
    planted subtree the image missed (pausing the source curve meanwhile).
    Read at uniform parameters, the two lists are in-order curves on the
    source and the target.
    """
    bad = check_interleaving(a, b)
    if bad is not None:
        raise CertificateError(f"not a valid interleaving: {bad}")
    for m in (a, b):
        bad = check_monotone(m)
        if bad is not None:
            raise CertificateError(f"interleaving is not monotone: {bad}")

    src, dst = a.source, a.target
    walk = in_order_walk(src)
    pushed = CurveTrace(dst.tree, list(walk.params), [a.apply(x) for x in walk.points], validate=False)
    contracted, _paused = contract_violating(pushed)

    # Align the walk with the contracted image on the union of their params.
    # Off its breakpoints the source curve sits exactly delta below the image
    # (at a contraction boundary, below the pause point), so its points there
    # are resolved by height, not by parameter interpolation.
    params = sorted(set(walk.params) | set(contracted.params))
    right_pts = [contracted.point_at(t) for t in params]
    left_pts = [walk.point_at_height(t, rp.height - a.delta) for t, rp in zip(params, right_pts)]

    dst_tree = dst.tree
    left_trace = CurveTrace(src.tree, params, left_pts, validate=False)
    right_trace = CurveTrace(dst_tree, params, right_pts, validate=False)

    # The splice tops and their attach points are those of the floor of the
    # pushed walk, not of the raw leaf images: a leaf image that C1 accepts
    # below h + delta is lifted onto the point the walk visits.  The tops are
    # never nested, so their span starts order them as pre-order does.
    jobs = []  # (insert param, span start, attach point, top vertex)
    for v, attach in ImageFloor(dst_tree, pushed.points).maximal_unvisited():
        events = visits(right_trace, attach)
        if not events:
            raise AssertionError("attach point of an unvisited subtree is never visited")
        if attach.height != dst_tree.height(attach.anchor):
            if len(events) != 1:
                raise AssertionError("interior attach point should be visited exactly once")
            u_param = events[0][0]
        else:
            sections = _section_children(right_trace, attach, events)
            order = list(dst_tree.children(attach.anchor))
            pos = order.index(v)
            u_param = events[-1][0]
            for later in order[pos + 1 :]:
                if later in sections:
                    u_param = events[sections.index(later)][0]
                    break
        jobs.append((u_param, dst_tree.leaf_span(v)[0], attach, v))

    jobs.sort(key=lambda j: (j[0], j[1]))

    # Descending parameter order keeps earlier insertion spots stable; jobs
    # sharing a parameter end up spliced in walk order.
    for u_param, _start, attach, v in reversed(jobs):
        k = bisect.bisect_left(params, u_param)
        if k == len(params) or params[k] != u_param:
            left_pts.insert(k, left_trace.point_at_height(u_param, attach.height - a.delta))
            right_pts.insert(k, attach)
            params.insert(k, u_param)
        block = planted_walk(dst_tree, v, attach)
        params[k + 1 : k + 1] = [u_param] * len(block)
        right_pts[k + 1 : k + 1] = block
        left_pts[k + 1 : k + 1] = [left_pts[k]] * len(block)

    return left_pts, right_pts


# -- the distance ------------------------------------------------------------


def witness_points(
    omt_p: OrderedMergeTree, omt_q: OrderedMergeTree
) -> tuple[float, tuple[list[TreePoint], list[TreePoint]]]:
    """The distance and the paired points ``(xs, ys)`` of a witness matching.

    Computes the Frechet distance of the induced curves, the ones plain
    ``distance`` computes, with a witness matching, and reads its
    :func:`matched_points`.  Every certificate is read off these points.
    """
    value, matching = frechet.compute_frechet(induced_curve(omt_p), induced_curve(omt_q))
    return value, matched_points(omt_p, omt_q, matching)


def monotone_interleaving_distance(
    omt_p: OrderedMergeTree, omt_q: OrderedMergeTree
) -> tuple[float, tuple[ShiftMap, ShiftMap]]:
    """Exact monotone interleaving distance with an optimal certificate:
    the interleaving pair induced by the :func:`witness_points`."""
    value, matched = witness_points(omt_p, omt_q)
    return value, matching_to_interleaving(omt_p, omt_q, matched, value)
