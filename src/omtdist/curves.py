"""The paper's constructions that no CLI op runs: traces on trees, the way
back from an interleaving to a matching, and layer orders.

An in-order walk of an ordered merge tree starts and ends at the root,
descends into subtrees following the leaf order, and visits every point
``deg + 1`` times.  Its height profile is the curve the Frechet engine
consumes: :class:`Curve1D` and :func:`induced_curve`, which live in
:mod:`omtdist.curve1d` and are re-exported here.

A :class:`CurveTrace` stores a curve on a tree as breakpoints joined by
monotone legs, so one end of every leg is an ancestor of the other (pauses
repeat a point).  The curve classes, the visits of a point and, in one
stack pass, the violating subcurves are read off it.
:func:`interleaving_to_matching` pushes the canonical walk through a
monotone interleaving in one pass, contracts its violating subcurves and
splices an in-order subwalk (:func:`planted_walk`) through each maximal
subtree the pushed walk misses, where two marking passes place it, all by
index into the walk, with no float parameters in between.  The layer orders
recover a leaf order from a comparator of level-set points
(:func:`induced_leaf_order`) and validate the comparator
(:func:`check_layer_consistency`).

The CLI runs the other direction only, matching to certificates and their
checks, in :mod:`omtdist.interleaving` and :mod:`omtdist.labelling`.  The
trace facts those read (:func:`leaf_range_walk`, :func:`leg_point`,
:class:`ImageFloor`, :func:`pair_gap`) live there, and this module imports
them; no module a CLI op loads imports this one.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Callable, Iterable, NamedTuple, Sequence

from .curve1d import Curve1D, induced_curve
from .interleaving import (
    CertificateError,
    ImageFloor,
    ShiftMap,
    check_interleaving,
    check_monotone,
    leaf_range_walk,
    leg_point,
)
from .ordering import LeafOrder, OrderedMergeTree, OrderError
from .trees import INF, MergeTree, TreePoint, VertexId


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
        """The finite stand-in for +inf: one above every finite height of the trace and its tree,
        or the next float up where adding one no longer rises (from 2**53 on)."""
        h = max([h for h in self.heights() if h != INF] + self.tree.finite_heights())
        return max(h + 1.0, math.nextafter(h, INF))

    def param_at(self, k: int, h: float) -> float:
        """The parameter at which leg ``k`` reaches height ``h``, clamped to the leg."""
        ha, hb = min(self.points[k].height, self.top), min(self.points[k + 1].height, self.top)
        pa, pb = self.params[k], self.params[k + 1]
        frac = min(1.0, max(0.0, (h - ha) / (hb - ha)))
        return pa + frac * (pb - pa)

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
        for prev, pt in zip(crossings, crossings[1:]):
            if prev != pt and omt.compare(prev, pt) > 0:
                return (prev, pt, h)
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


class ViolatingSubcurve(NamedTuple):
    left: float
    right: float
    point: TreePoint


def _violating_runs(trace: CurveTrace) -> list[tuple[int, int, ViolatingSubcurve]]:
    """Each maximal violating subcurve, in time order, with the legs ``a`` and
    ``b - 1`` it leaves and returns on; its level is its point's height.

    Cut at level c, a subcurve runs from the leg out of breakpoint ``a`` to
    the leg into ``b``: both at most c, all breakpoints between above c.
    One stack pass lists each such pair, as in building a Cartesian tree,
    with m the lowest height between.  The legs cross c at one point exactly
    when c is at least the lca height of ``points[a]`` and ``points[b]``, so
    the pair first violates at that height (a breakpoint or vertex height,
    as the levels of a rescan are), if it is below m.  Its cut shrinks as c
    rises and the outer of two nested pairs violates lower: the maximal
    subcurves are the outermost pairs whose first cut is a nonempty interval.
    """
    tree, pts = trace.tree, trace.points
    pairs = []  # (a, b, first violating level)
    stack: list[int] = []  # strictly rising heights, each below all later ones so far
    for b, y in enumerate(pts):
        while stack and pts[stack[-1]].height >= y.height:
            m = pts[stack.pop()].height
            if stack and (c := tree.lca_height(pts[stack[-1]], y)) < m:
                pairs.append((stack[-1], b, c))
        stack.append(b)
    runs, end = [], 0
    for a, b, c in sorted(pairs, key=lambda r: (r[0], -r[1])):
        if b > end and (left := trace.param_at(a, c)) < (right := trace.param_at(b - 1, c)):
            runs.append((a, b, ViolatingSubcurve(left, right, leg_point(tree, pts[a], pts[a + 1], c))))
            end = b
    return runs


def find_violating_subcurves(trace: CurveTrace) -> list[ViolatingSubcurve]:
    """All maximal violating subcurves of a trace, in time order: each leaves a point and
    returns to it staying strictly above it, and maximal ones are interior-disjoint."""
    return [v for _, _, v in _violating_runs(trace)]


def contract_violating(trace: CurveTrace) -> tuple[CurveTrace, list[tuple[float, float]]]:
    """Flatten every maximal violating subcurve to its base point.

    Returns the contracted trace and the paused param intervals.  On a weak
    in-order curve the result is a partial in-order curve.
    """
    violating = find_violating_subcurves(trace)
    if not violating:
        return trace, []
    params, points, i = [], [], 0
    for v in violating:
        lo = bisect.bisect_left(trace.params, v.left, i)
        params += trace.params[i:lo] + [v.left, v.right]
        points += trace.points[i:lo] + [v.point, v.point]
        i = bisect.bisect_right(trace.params, v.right, lo)
    params += trace.params[i:]
    points += trace.points[i:]
    return CurveTrace(trace.tree, params, points), [(v.left, v.right) for v in violating]


# -- interleavings -> matchings ---------------------------------------------


def interleaving_to_matching(a: ShiftMap, b: ShiftMap) -> tuple[list[TreePoint], list[TreePoint]]:
    """The paired points ``(xs, ys)`` of a delta-matching of in-order curves,
    from a monotone interleaving.

    Pushes the canonical walk of the source through the map, contracts the
    maximal violating subcurves, and splices an in-order subwalk through every
    planted subtree the image missed (pausing the source curve meanwhile).
    Read at uniform parameters, the two lists are in-order curves on the
    source and the target.  Everything goes by walk index: the image pauses
    at a subcurve's point while the walk runs on, and where the subcurve is
    cut inside a leg the walk pairs with it at its level minus delta.

    A subtree goes in at the visit of its attach point after which an
    in-order walk descends into it.  The contracted image enters a vertex's
    children in leaf order and stays below one between two visits of it, so
    below a parent that is the leg or run just before the image first enters
    a later child's planted subtree, else the one at the last breakpoint at
    or below the parent.  Inside the top's own edge, the attach point is the
    lowest point the image reaches there: one visit, a run of breakpoints.
    """
    bad = check_interleaving(a, b)
    if bad is not None:
        raise CertificateError(f"not a valid interleaving: {bad}")
    for m in (a, b):
        bad = check_monotone(m)
        if bad is not None:
            raise CertificateError(f"interleaving is not monotone: {bad}")

    src, dst, delta = a.source.tree, a.target.tree, a.delta
    # One bottom-up pass lifts each vertex's first child's image (a leaf's
    # own) to its height + delta: the image ShiftMap.apply reads off the
    # first leaf, each climb starting where the one below it stopped.
    image = {}
    for v in reversed(src.vertices):
        kids = src.children(v)
        image[v] = dst.lift(image[kids[0]] if kids else a.leaf_images[v], src.height(v) + delta)
    walk = planted_walk(src, src.root, src.point(src.root))
    pushed = [image[v] for v, _ in walk]

    # Contract: the image pauses at each subcurve's point while the walk runs
    # on.  The point cuts legs i and j - 1 at its level c, inside each leg
    # unless c is the height of the breakpoint outside the subcurve.
    xs, ys, k = [], [], 0
    for i, j, cut in _violating_runs(CurveTrace.uniform(dst, pushed)):
        pt, c = cut.point, cut.point.height
        paused = walk[i + 1 : j]
        if c > pushed[i].height:
            paused.insert(0, leg_point(src, walk[i], walk[i + 1], c - delta))
        if c > pushed[j].height:
            paused.append(leg_point(src, walk[j - 1], walk[j], c - delta))
        xs += walk[k : i + 1] + paused
        ys += pushed[k : i + 1] + [pt] * len(paused)
        k = j
    xs += walk[k:]
    ys += pushed[k:]

    # A forward pass marks first[x], the first pair in the planted subtree
    # of x, a backward one last[x], the last at or below x (a climb stops at
    # a marked vertex: those are closed upward); enters_right[x] is the
    # first in a later sibling's planted subtree, else after last[parent].
    parent, height, n = dst._parent, dst._height, len(ys)
    first, last, enters_right = {}, {}, {}
    for i, (x, _) in enumerate(ys):
        while x is not None and x not in first:
            first[x], x = i, parent[x]
    for i in range(n - 1, -1, -1):
        x, h = ys[i]
        x = x if h == height[x] else parent[x]
        while x is not None and x not in last:
            last[x], x = i, parent[x]
    for p in dst.vertices:
        k = last.get(p, -1) + 1
        for c in reversed(dst.children(p)):
            enters_right[c], k = k, min(k, first.get(c, n))

    # The splice tops and their attach points are those of the floor of the
    # pushed walk, not of the raw leaf images: a leaf image that C1 accepts
    # below h + delta is lifted onto the point the walk visits.  A splice
    # goes in after pair k, the first of a run of its attach point, else
    # inside leg k in the order the leg passes the heights.  The tops are
    # never nested, so their span starts order the blocks at one place.
    splices = []  # (pair k, place along leg k, span start, attach point, top vertex)
    for v, attach in ImageFloor(dst, pushed).maximal_unvisited():
        try:  # the pair or leg k of the visit
            k = ys.index(attach, first.get(v, n)) if attach.anchor == v else enters_right[v] - 1
        except ValueError:
            k = -1
        if k < 0:
            raise AssertionError("attach point of an unvisited subtree is never visited")
        if ys[k] == attach:
            while k and ys[k - 1] == attach:
                k -= 1
            place = -INF
        else:
            place = attach.height if ys[k].height < ys[k + 1].height else -attach.height
        splices.append((k, place, dst.leaf_span(v)[0], attach, v))
    splices.sort(reverse=True)  # keys differ by the span start at the latest

    # One forward pass emits the pairs and, after pair k, its splices: the
    # walk pauses where the image reaches the attach point.
    out_x, out_y = [], []
    for k, (x, y) in enumerate(zip(xs, ys)):
        out_x.append(x)
        out_y.append(y)
        while splices and splices[-1][0] == k:
            *_, attach, v = splices.pop()
            if out_y[-1] != attach:
                out_x.append(leg_point(src, x, xs[k + 1], attach.height - delta))
                out_y.append(attach)
            block = planted_walk(dst, v, attach)
            out_x += [out_x[-1]] * len(block)
            out_y += block
    return out_x, out_y


# -- layer orders ----------------------------------------------------------


LayerComparator = Callable[[TreePoint, TreePoint], int]


def induced_leaf_order(tree: MergeTree, layer_cmp: LayerComparator) -> LeafOrder:
    """Recover the leaf order from a layer comparator.

    Two leaves are compared by lifting the lower one to the height of the
    higher and applying the layer comparison there.  The comparator is
    validated pairwise afterwards: any antisymmetry or transitivity defect
    surfaces as an :class:`OrderError`.
    """
    leaves = list(tree.leaves)

    @functools.lru_cache(maxsize=None)
    def leaf_cmp(u1: VertexId, u2: VertexId) -> int:
        h = max(tree.height(u1), tree.height(u2))
        a1 = tree.ancestor_at(tree.point(u1), h)
        a2 = tree.ancestor_at(tree.point(u2), h)
        return layer_cmp(a1, a2)

    for i, u1 in enumerate(leaves):
        for u2 in leaves[i + 1 :]:
            c, d = leaf_cmp(u1, u2), leaf_cmp(u2, u1)
            if c == 0 or d == 0 or c == d:
                raise OrderError(
                    f"inconsistent comparator: leaves {u1!r}, {u2!r} compare ({c}, {d})"
                )

    ordered = sorted(leaves, key=functools.cmp_to_key(leaf_cmp))
    for i, u1 in enumerate(ordered):
        for u2 in ordered[i + 1 :]:
            if leaf_cmp(u1, u2) != -1:
                raise OrderError(
                    f"inconsistent comparator: no total order places {u1!r} before {u2!r}"
                )
    return LeafOrder(tuple(ordered))


def induced_ordered_tree(tree: MergeTree, layer_cmp: LayerComparator) -> OrderedMergeTree:
    """The ordered merge tree determined by a consistent layer comparator."""
    return OrderedMergeTree(tree, induced_leaf_order(tree, layer_cmp))


class ConsistencyWitness(NamedTuple):
    kind: str
    height_low: float
    height_high: float
    x1: TreePoint
    x2: TreePoint


def sample_levels(tree: MergeTree, extra: Iterable[float]) -> list[float]:
    """The finite vertex and ``extra`` heights, with the midpoint of each two
    consecutive ones, sorted: where checks of level sets sample them."""
    hs = set(tree.finite_heights())
    hs.update(h for h in extra if math.isfinite(h))
    hs = sorted(hs)
    mids = [(a + b) / 2 for a, b in zip(hs, hs[1:])]
    return sorted(set(hs) | set(mids))


def check_layer_consistency(tree: MergeTree, layer_cmp: LayerComparator) -> ConsistencyWitness | None:
    """Verify that a layer comparator behaves like a consistent layer-order.

    Checks, at every vertex height and midpoint (:func:`sample_levels`): the
    total-order axioms on the level set, upward consistency between
    consecutive sampled heights, and the downward strictness of distinct
    branches.  Between consecutive vertex heights the level-set combinatorics
    are constant, so these samples are exhaustive.
    """
    heights = sample_levels(tree, ())
    min_leaf = min(tree.height(u) for u in tree.leaves)
    heights = [h for h in heights if h >= min_leaf]

    for h in heights:
        pts = tree.level_set(h)
        for i, a in enumerate(pts):
            if layer_cmp(a, a) != 0:
                return ConsistencyWitness("irreflexive", h, h, a, a)
            for b in pts[i + 1 :]:
                c, d = layer_cmp(a, b), layer_cmp(b, a)
                if c == 0 or d == 0 or c == d:
                    return ConsistencyWitness("antisymmetry", h, h, a, b)
        for a in pts:
            for b in pts:
                for c_ in pts:
                    if layer_cmp(a, b) <= 0 and layer_cmp(b, c_) <= 0 and layer_cmp(a, c_) > 0:
                        return ConsistencyWitness("transitivity", h, h, a, c_)

    for h1, h2 in zip(heights, heights[1:]):
        pts = tree.level_set(h1)
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                c1 = layer_cmp(a, b)
                ua = tree.ancestor_at(a, h2)
                ub = tree.ancestor_at(b, h2)
                if ua == ub:
                    continue
                c2 = layer_cmp(ua, ub)
                # Upward consistency and downward strictness coincide here:
                # distinct ancestors must be ordered exactly like the pair below.
                if c1 != c2:
                    return ConsistencyWitness("consistency", h1, h2, a, b)
    return None
