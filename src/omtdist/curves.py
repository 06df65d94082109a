"""The paper's constructions that no CLI op runs: traces on trees, the way
back from an interleaving to a matching, and layer orders.

An in-order walk of an ordered merge tree starts and ends at the root,
descends into subtrees following the leaf order, and visits every point
``deg + 1`` times.  Its height profile is the curve the Frechet engine
consumes: :class:`Curve1D` and :func:`induced_curve`, which live in
:mod:`omtdist.curve1d` and are re-exported here.

A :class:`CurveTrace` stores a curve on a tree as breakpoints joined by
monotone legs, so one end of every leg is an ancestor of the other (pauses
repeat a point).  The curve classes, the visits of a point and the
violating subcurves are read off it.  :func:`interleaving_to_matching`
pushes the canonical walk through a monotone interleaving, contracts its
violating subcurves and splices an in-order subwalk (:func:`planted_walk`)
through each maximal subtree the pushed walk misses.  The layer orders
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


class ViolatingSubcurve(NamedTuple):
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


def check_layer_consistency(
    tree: MergeTree,
    layer_cmp: LayerComparator,
    sample_heights: Sequence[float] = (),
) -> ConsistencyWitness | None:
    """Verify that a layer comparator behaves like a consistent layer-order.

    Checks, at every vertex height, midpoint, and extra sample: the total-order
    axioms on the level set, upward consistency between consecutive sampled
    heights, and the downward strictness of distinct branches.  Between
    consecutive vertex heights the level-set combinatorics are constant, so
    these samples are exhaustive.
    """
    heights = sample_levels(tree, sample_heights)
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
