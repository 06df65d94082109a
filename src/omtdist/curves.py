"""Tree walks and their induced 1D curves.

An in-order walk of an ordered merge tree starts and ends at the root,
descends into subtrees following the leaf order, and visits every point
``deg + 1`` times.  Tracing the height function along the walk yields a 1D
curve with +inf sentinels at both ends; that curve is what the Frechet engine
consumes.  :class:`Curve1D` and :func:`induced_curve` live in
:mod:`omtdist.curve1d`, which the distance imports without this module, and
are re-exported here.

A :class:`CurveTrace` stores a curve on a tree as a sequence of breakpoints.
Between two consecutive breakpoints the curve follows the unique monotone
tree path, so one endpoint of every leg is an ancestor of the other (pauses
repeat a point).  The weak/partial/in-order classification and the
violating-subcurve machinery operate on this representation.

This module is the one home of each trace fact, and
:mod:`omtdist.interleaving` calls it: the in-order walk over a range of
leaves (:func:`leaf_range_walk`) and through a planted subtree
(:func:`planted_walk`), the point of a leg at a height
(:func:`leg_point`), the finite stand-in for +inf (:attr:`CurveTrace.top`)
through which parameters and heights correspond on every leg, the point at
a parameter resolved by height (:meth:`CurveTrace.point_at_height`), the
visits of a point (:func:`visits`), and the floor of a point set
(:class:`ImageFloor`): its upward closure and the planted subtrees it
misses.  One floor serves every reader of that fact: the image of a shift
map is the floor of its leaf images (good-map condition 3, the labelling
construction), the splice tops of the interleaving-to-matching conversion
are the subtrees the pushed walk misses, and the unvisited degree and leaf
coverage of the curve classes come from the floor of a trace's breakpoints.
The floor is two passes over the tree's own parent table, with no method
call per vertex.

The certificate of the distance needs no trace: it reads its paired points
straight off the matching steps (:func:`omtdist.interleaving.matched_points`),
on the :func:`leaf_range_walk` of the whole tree and by the rule of
:func:`leg_point`.  A leg point is one climb, :meth:`MergeTree.anchor_at`,
from the leg's lower end.  A matching between two trees is that aligned
pair of point lists ``(xs, ys)`` and nothing more: its cost is their
:func:`pair_gap`, and a caller that wants either side as a trace wraps it
with :meth:`CurveTrace.uniform`.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .curve1d import Curve1D, induced_curve
from .ordering import OrderedMergeTree, sample_levels
from .trees import INF, MergeTree, TreePoint, VertexId


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


class CurveTrace:
    """A curve on a tree, stored as breakpoints joined by monotone legs.

    Parameters and heights correspond linearly on each leg, with :attr:`top`
    standing in for +inf on the legs to the root.
    """

    def __init__(
        self,
        tree: MergeTree,
        params: Sequence[float],
        points: Sequence[TreePoint],
        validate: bool = True,
    ):
        if len(params) != len(points) or len(points) < 2:
            raise ValueError("trace needs matching params/points with at least two breakpoints")
        if validate:
            for a, b in zip(params, params[1:]):
                if b < a:
                    raise ValueError("params must be non-decreasing")
            for a, b in zip(points, points[1:]):
                if not (tree.is_ancestor(a, b) or tree.is_ancestor(b, a)):
                    raise ValueError("consecutive breakpoints must be ancestor-related")
        self.tree = tree
        self.params = list(params)
        self.points = list(points)

    @classmethod
    def uniform(cls, tree: MergeTree, points: Sequence[TreePoint]) -> "CurveTrace":
        """The trace through ``points`` at parameters ``k / (n - 1)``, unvalidated."""
        n = len(points)
        return cls(tree, [k / (n - 1) for k in range(n)], points, validate=False)

    def heights(self) -> list[float]:
        return [p.height for p in self.points]

    def curve(self) -> Curve1D:
        return Curve1D.from_heights(self.heights())

    @functools.cached_property
    def top(self) -> float:
        """The finite stand-in for +inf: one above every finite height of the trace and its tree."""
        return max([h for h in self.heights() if h != INF] + self.tree.finite_heights()) + 1.0

    def param_at(self, k: int, h: float) -> float:
        """The parameter at which leg ``k`` reaches height ``h``, clamped to the leg."""
        ha, hb = min(self.points[k].height, self.top), min(self.points[k + 1].height, self.top)
        pa, pb = self.params[k], self.params[k + 1]
        frac = min(1.0, max(0.0, (h - ha) / (hb - ha)))
        return pa + frac * (pb - pa)

    def point_at_height(self, t: float, h: float) -> TreePoint:
        """The breakpoint at parameter ``t``, else the point at height ``h`` of the leg holding ``t``.

        Resolving by height is exact where the caller knows the height the
        point must have, as the interleaving construction does.
        """
        k = bisect.bisect_right(self.params, t) - 1
        if self.params[k] == t:
            return self.points[k]
        return leg_point(self.tree, self.points[k], self.points[k + 1], h)

    def point_at(self, t: float) -> TreePoint:
        """Point of the trace at parameter ``t``, interpolating heights linearly per leg."""
        if not self.params[0] <= t <= self.params[-1]:
            raise ValueError("parameter out of range")
        k = bisect.bisect_right(self.params, t) - 1
        if self.params[k] == t:
            return self.points[k]
        a, b = self.points[k], self.points[k + 1]
        ha, hb = min(a.height, self.top), min(b.height, self.top)
        pa, pb = self.params[k], self.params[k + 1]
        return leg_point(self.tree, a, b, ha + (t - pa) / (pb - pa) * (hb - ha))

    def __repr__(self) -> str:
        return f"CurveTrace({len(self.points)} breakpoints)"


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


def planted_walk(tree: MergeTree, v: VertexId, attach: TreePoint) -> list[TreePoint]:
    """The in-order walk through the planted subtree of ``v`` hanging from ``attach``:
    attach, then the :func:`leaf_range_walk` over the leaves of ``v``, then attach."""
    return [attach, *leaf_range_walk(tree, *tree.leaf_span(v)), attach]


def in_order_walk(omt: OrderedMergeTree) -> CurveTrace:
    """The canonical in-order walk: the planted walk of the whole tree from its root.

    Uniform parameters; the induced curve's interior samples are exactly the
    alternating leaf/merge heights.
    """
    tree = omt.tree
    return CurveTrace.uniform(tree, planted_walk(tree, tree.root, tree.point(tree.root)))


# -- visit accounting ------------------------------------------------------


def visits(trace: CurveTrace, y: TreePoint) -> list[tuple[float, int]]:
    """The visits of ``y``, the components of its preimage, in time order.

    A visit is a run of breakpoints at ``y``, given as (param, index) of its
    first breakpoint, or a leg ``k`` passing strictly through ``y``, given as
    (the param where the leg meets ``y``'s height, ``-k - 1``).  Legs that
    end at ``y`` belong to the run there.  The scan goes leg by leg and the
    params do not decrease, so it finds the visits in time order; two visits
    at one param (two legs meeting at a root breakpoint, for a point above
    :attr:`CurveTrace.top`, where their params clamp) come earlier leg first.
    """
    tree, pts = trace.tree, trace.points
    events: list[tuple[float, int]] = []
    for k, (a, b) in enumerate(zip(pts, pts[1:] + [None])):
        if a == y:
            if k == 0 or pts[k - 1] != y:
                events.append((trace.params[k], k))
        elif b is not None and b != y:
            lo, hi = (a, b) if a.height <= b.height else (b, a)
            if lo.height < y.height < hi.height and tree.is_ancestor(lo, y) and tree.is_ancestor(y, hi):
                events.append((trace.param_at(k, y.height), -k - 1))
    return events


def count_visits(trace: CurveTrace, x: TreePoint) -> int:
    """Number of connected components of the preimage of ``x`` under the trace."""
    return len(visits(trace, x))


class ImageFloor:
    """The upward closure of a set of tree points, read off one reverse pre-order pass.

    ``low[v]`` and ``high[v]`` are the lowest and highest heights of the
    points anchored in the subtree of ``v`` (+inf and -inf if none), so
    ``(v, h)`` lies above some point iff ``low[v] <= h``.  The planted
    subtrees the points miss are read off ``low`` too.  The image of a shift
    map is the closure of its leaf images; a trace enters exactly the planted
    subtrees that hold one of its breakpoints, since a monotone leg cannot
    dip into a subtree and come back out.
    """

    def __init__(self, tree: MergeTree, points: Iterable[TreePoint]):
        self.tree = tree
        preorder, parent = tree._preorder, tree._parent
        low = dict.fromkeys(preorder, INF)
        high = dict.fromkeys(preorder, -INF)
        for a, h in points:
            if h < low[a]:
                low[a] = h
            if h > high[a]:
                high[a] = h
        for v in reversed(preorder):
            p = parent[v]
            if p is not None:
                if low[v] < low[p]:
                    low[p] = low[v]
                if high[v] > high[p]:
                    high[p] = high[v]
        self.low, self.high = low, high

    def contains(self, y: TreePoint) -> bool:
        return self.low[y.anchor] <= y.height

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


def unvisited_degree(floor: ImageFloor, x: TreePoint) -> int:
    """The planted subtrees rooted at ``x`` that hold none of the floor's points.

    Inside an edge, ``x`` roots one planted subtree, the points of its
    anchor's subtree strictly below ``x``; at a vertex, one per child, the
    points of that child's subtree.  So a subtree is missed iff no point
    anchored under its branch lies below ``x``.
    """
    tree = floor.tree
    if x.height == tree.height(x.anchor):
        branches = tree.children(x.anchor)
    else:
        branches = [x.anchor]
    return sum(1 for c in branches if floor.low[c] >= x.height)


def _order_respect_witness(omt: OrderedMergeTree, trace: CurveTrace):
    """A strict layer-order violation between two crossing times, or None.

    Checked at breakpoint heights, finite vertex heights and midpoints: the
    level crossings in time order must never strictly decrease in the layer
    order.
    """
    tree = omt.tree
    for h in sample_levels(tree, trace.heights()):
        crossings = [
            leg_point(tree, a, b, h)
            for a, b in zip(trace.points, trace.points[1:])
            if min(a.height, b.height) <= h <= max(a.height, b.height)
        ]
        prev = None
        for pt in crossings:
            if prev is not None and prev != pt and omt.compare(prev, pt) > 0:
                return (prev, pt, h)
            prev = pt
    return None


def _visit_witnesses(trace: CurveTrace) -> list[TreePoint]:
    """Vertices plus per-edge interior samples separating the trace's critical heights."""
    tree = trace.tree
    bp_heights = sorted({p.height for p in trace.points if math.isfinite(p.height)})
    witnesses: list[TreePoint] = [tree.point(v) for v in tree.vertices]
    for v in tree.vertices:
        p = tree.parent(v)
        if p is None:
            continue
        lo, hi = tree.height(v), tree.height(p)
        upper = hi if hi != INF else trace.top
        cuts = [lo] + [h for h in bp_heights if lo < h < upper] + [upper]
        for a, b in zip(cuts, cuts[1:]):
            witnesses.append(TreePoint(v, (a + b) / 2))
        for h in bp_heights:
            if lo < h < upper:
                witnesses.append(TreePoint(v, h))
    return witnesses


def classify_curve(omt: OrderedMergeTree, trace: CurveTrace) -> str:
    """Strongest curve class satisfied: 'in_order', 'partial', 'weak' or 'none'.

    Property 1 (order respect) is checked on level crossings; property 2
    (visit count ``deg + 1 - kappa``) at all vertices and per-edge interior
    witnesses; property 3 additionally requires every leaf to be visited.

    A point with zero visits never violates property 2 on its own: by
    continuity the unvisited region is a union of unvisited planted subtrees,
    and the count at each attach point already budgets for them through kappa.
    """
    tree = trace.tree
    root_point = tree.point(tree.root)
    if trace.points[0] != root_point or trace.points[-1] != root_point:
        raise ValueError("trace must start and end at the root")

    if _order_respect_witness(omt, trace) is not None:
        return "none"

    floor = ImageFloor(tree, trace.points)
    for x in _visit_witnesses(trace):
        n = count_visits(trace, x)
        if n and n != tree.deg(x) + 1 - unvisited_degree(floor, x):
            return "weak"
    # A leaf is visited iff some breakpoint sits at it: none can lie below it.
    visited = all(floor.low[u] == tree.height(u) for u in tree.leaves)
    return "in_order" if visited else "partial"


# -- violating subcurves ---------------------------------------------------


@dataclass(frozen=True)
class ViolatingSubcurve:
    left: float
    right: float
    point: TreePoint


def find_violating_subcurves(trace: CurveTrace) -> list[ViolatingSubcurve]:
    """All maximal violating subcurves of a trace, in time order.

    A violating subcurve leaves a point and returns to that same point while
    staying strictly above it.  Maximal ones are pairwise interior-disjoint.
    Candidate base levels are the breakpoint heights and the finite vertex
    heights: a maximal subcurve is pinned either by a strict local minimum of
    the height profile (a breakpoint) or by a branching vertex of the tree.
    """
    tree = trace.tree
    heights = [p.height for p in trace.points]
    levels = sorted({h for h in heights if math.isfinite(h)} | set(tree.finite_heights()))
    found: list[ViolatingSubcurve] = []

    def covered(l: float, r: float) -> bool:
        return any(v.left <= l and r <= v.right for v in found)

    n = len(trace.points)
    for c in levels:
        above = [h > c for h in heights]
        i = 0
        while i < n:
            if not above[i]:
                i += 1
                continue
            j = i
            while j + 1 < n and above[j + 1]:
                j += 1
            if i > 0 and j < n - 1:
                # The legs into and out of the run straddle c, so c lies on both.
                l_param, r_param = trace.param_at(i - 1, c), trace.param_at(j, c)
                lp = leg_point(tree, trace.points[i - 1], trace.points[i], c)
                rp = leg_point(tree, trace.points[j], trace.points[j + 1], c)
                if lp == rp and l_param < r_param and not covered(l_param, r_param):
                    found.append(ViolatingSubcurve(l_param, r_param, lp))
            i = j + 1
    found.sort(key=lambda v: (v.left, -v.right))
    out: list[ViolatingSubcurve] = []
    for v in found:
        if out and v.left >= out[-1].left and v.right <= out[-1].right:
            continue
        out.append(v)
    return out


def contract_violating(trace: CurveTrace) -> tuple[CurveTrace, list[tuple[float, float]]]:
    """Flatten every maximal violating subcurve to its base point.

    Returns the contracted trace and the paused param intervals.  On a weak
    in-order curve the result is a partial in-order curve.
    """
    violating = find_violating_subcurves(trace)
    if not violating:
        return trace, []
    params: list[float] = []
    points: list[TreePoint] = []
    n = len(trace.points)
    i = 0
    paused: list[tuple[float, float]] = []
    for v in violating:
        while i < n and trace.params[i] < v.left:
            params.append(trace.params[i])
            points.append(trace.points[i])
            i += 1
        params.extend([v.left, v.right])
        points.extend([v.point, v.point])
        paused.append((v.left, v.right))
        while i < n and trace.params[i] <= v.right:
            i += 1
    while i < n:
        params.append(trace.params[i])
        points.append(trace.points[i])
        i += 1
    return CurveTrace(trace.tree, params, points), paused


# -- paired points ---------------------------------------------------------


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
