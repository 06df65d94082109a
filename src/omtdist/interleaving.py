"""Interleaving certificates between ordered merge trees.

A delta-shift map sends every point of one tree to a point exactly delta
higher in the other.  Such a map is continuous iff it is determined by its
values on the leaves through the ancestor rule, so a :class:`ShiftMap` stores
just the leaf image table; evaluation lifts the image of any descendant leaf.

This module verifies interleavings (conditions C1-C4), monotonicity, and the
two equivalent single-map ("good map") characterisations: TW checks T2 on
sampled witness points, G checks G2 in closed form over leaf pairs, and both
read the image of the map off an :class:`ImageFloor`.  It converts between
matched in-order curve pairs and monotone interleavings in both directions.
The distance itself reduces to the Frechet distance of the induced curves.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from . import frechet
from .curves import (
    CurveTrace,
    MatchedTraces,
    contract_violating,
    count_visits,
    in_order_walk,
)
from .ordering import OrderedMergeTree
from .trees import INF, MergeTree, TreePoint, VertexId, points_close

HEIGHT_TOL = 1e-9


class CertificateError(ValueError):
    """A certificate is structurally unusable (mismatched trees or deltas)."""


@dataclass(frozen=True)
class CheckFailure:
    condition: str
    detail: str = ""
    witness: tuple = ()

    def __str__(self) -> str:
        return f"{self.condition}: {self.detail}"


@dataclass
class ShiftMap:
    """A delta-shift map, finitely represented by its leaf images."""

    source: OrderedMergeTree
    target: OrderedMergeTree
    delta: float
    leaf_images: dict[VertexId, TreePoint]

    def apply(self, x: TreePoint) -> TreePoint:
        """Image of an arbitrary point via the ancestor rule on any leaf below."""
        tree = self.source.tree
        lo = tree.leaf_span(x.anchor)[0]
        img = self.leaf_images[tree.leaves[lo]]
        h = x.height + self.delta
        if h < img.height:  # absorb last-ulp noise from composed float sums
            h = img.height
        return self.target.tree.ancestor_at(img, h)

    def __call__(self, x: TreePoint) -> TreePoint:
        return self.apply(x)

    def validate(self, tol: float = HEIGHT_TOL) -> CheckFailure | None:
        """Leaf coverage, the exact-shift condition C1, and determination.

        Determination checks that at every internal vertex the images induced
        by each child agree; by induction this makes the map well defined at
        every point.
        """
        tree = self.source.tree
        target = self.target.tree
        for u in tree.leaves:
            if u not in self.leaf_images:
                return CheckFailure("C1", f"leaf {u!r} has no image")
            img = self.leaf_images[u]
            if not target.contains_point(img):
                return CheckFailure("C1", f"image of {u!r} is not a point of the target")
            if abs(img.height - (tree.height(u) + self.delta)) > tol:
                return CheckFailure(
                    "C1", f"image of leaf {u!r} is not exactly delta higher", (u, img)
                )
        for v in tree.vertices:
            cs = tree.children(v)
            if len(cs) < 2:
                continue
            h = tree.height(v) + self.delta
            imgs = []
            for c in cs:
                leaf = tree.leaves[tree.leaf_span(c)[0]]
                base = self.leaf_images[leaf]
                imgs.append(target.ancestor_at(base, max(h, base.height)))
            if any(not points_close(target, imgs[0], im, tol) for im in imgs[1:]):
                return CheckFailure(
                    "determination", f"children of {v!r} disagree on the image", (v,)
                )
        return None


def _require_compatible(a: ShiftMap, b: ShiftMap) -> None:
    if a.delta != b.delta:
        raise CertificateError("the two maps carry different deltas")
    if a.source is not b.target or a.target is not b.source:
        raise CertificateError("maps do not connect the same pair of ordered trees")


def _two_delta_up(tree: MergeTree, x: TreePoint, two_delta: float) -> TreePoint:
    h = x.height + two_delta
    return tree.ancestor_at(x, max(h, x.height))


def check_interleaving(a: ShiftMap, b: ShiftMap, tol: float = HEIGHT_TOL) -> CheckFailure | None:
    """Verify conditions C1-C4 of a delta-interleaving.

    C1/C3 are the exact-shift conditions checked by ``validate``.  C2/C4 are
    checked at every leaf and vertex plus, for each vertex of the other tree,
    the level set at its height minus delta.  Equality at a leaf propagates to
    all its ancestors (both sides climb the same root path), so the leaf
    checks alone are already exhaustive; the witness set mirrors the richer
    statement for better failure reports.
    """
    _require_compatible(a, b)
    for m, cond in ((a, "C1"), (b, "C3")):
        bad = m.validate(tol)
        if bad is not None:
            return CheckFailure(cond, bad.detail, bad.witness)
    two_delta = 2.0 * a.delta
    for fwd, back, cond in ((a, b, "C2"), (b, a, "C4")):
        tree = fwd.source.tree
        witnesses = [tree.point(v) for v in tree.vertices]
        min_leaf = min(tree.height(u) for u in tree.leaves)
        for v_other in back.source.tree.vertices:
            h = back.source.tree.height(v_other)
            if h == INF:
                continue
            h -= fwd.delta
            if h >= min_leaf:
                witnesses.extend(tree.level_set(h))
        for x in witnesses:
            if x.height == INF:
                continue
            roundtrip = back.apply(fwd.apply(x))
            expected = _two_delta_up(tree, x, two_delta)
            if not points_close(tree, roundtrip, expected, tol):
                return CheckFailure(
                    cond, f"round trip misses the 2-delta ancestor at {x}", (x, roundtrip, expected)
                )
    return None


def _monotone_heights(a: ShiftMap) -> list[float]:
    src = a.source.tree
    hs = set(src.finite_heights())
    min_leaf = min(src.height(u) for u in src.leaves)
    for h in a.target.tree.finite_heights():
        if h - a.delta >= min_leaf:
            hs.add(h - a.delta)
    hs = sorted(hs)
    mids = [(x + y) / 2 for x, y in zip(hs, hs[1:])]
    return sorted(set(hs) | set(mids))


def check_monotone(a: ShiftMap) -> CheckFailure | None:
    """Order preservation of a shift map, checked layer by layer.

    Sufficient heights: source vertex heights, target vertex heights shifted
    down by delta, and midpoints; between those the level-set combinatorics of
    both trees are constant.
    """
    bad = a.validate()
    if bad is not None:
        return bad
    for h in _monotone_heights(a):
        pts = a.source.level_set(h)
        images = [a.apply(x) for x in pts]
        for (x1, im1), (x2, im2) in zip(zip(pts, images), zip(pts[1:], images[1:])):
            if im1 != im2 and a.target.compare(im1, im2) > 0:
                return CheckFailure(
                    "monotone", f"order of level {h} flips under the map", (x1, x2)
                )
    return None


# -- good maps -------------------------------------------------------------


class ImageFloor:
    """The image of a shift map, read off one reverse pre-order pass.

    The image is the upward closure of the leaf images.  ``low[v]`` and
    ``high[v]`` are the lowest and highest leaf image heights anchored in the
    subtree of ``v`` (+inf and -inf if none), so ``(v, h)`` is in the image
    iff ``low[v] <= h``.
    """

    def __init__(self, a: ShiftMap):
        tree = self.tree = a.target.tree
        low = {v: INF for v in tree.vertices}
        high = {v: -INF for v in tree.vertices}
        for img in a.leaf_images.values():
            low[img.anchor] = min(low[img.anchor], img.height)
            high[img.anchor] = max(high[img.anchor], img.height)
        for v in reversed(tree.vertices):
            p = tree.parent(v)
            if p is not None:
                low[p] = min(low[p], low[v])
                high[p] = max(high[p], high[v])
        self.low, self.high = low, high

    def contains(self, y: TreePoint) -> bool:
        return self.low[y.anchor] <= y.height

    def lowest_ancestor(self, y: TreePoint) -> TreePoint:
        """The lowest ancestor of ``y`` lying in the image of the map."""
        tree, v = self.tree, y.anchor
        p = tree.parent(v)
        while p is not None and self.low[v] >= tree.height(p):
            v, p = p, tree.parent(p)
        return TreePoint(v, max(y.height, tree.height(v), self.low[v]))

    def maximal_unvisited(self) -> list[tuple[VertexId, TreePoint]]:
        """(top vertex, attach point) of each maximal planted subtree outside the image.

        A top is an unvisited vertex whose parent is in the image; it attaches
        at the lowest image point on its own edge, else at its parent.
        """
        tree, low = self.tree, self.low
        out = []
        for v in tree.vertices:
            p = tree.parent(v)
            if p is None or low[v] <= tree.height(v) or low[p] > tree.height(p):
                continue
            out.append((v, TreePoint(v, low[v]) if low[v] < tree.height(p) else tree.point(p)))
        return out


def _t2_witnesses(a: ShiftMap) -> list[TreePoint]:
    src = a.source.tree
    pts = [src.point(v) for v in src.vertices if src.height(v) != INF]
    min_leaf = min(src.height(u) for u in src.leaves)
    for h in _monotone_heights(a):
        if h >= min_leaf:
            pts.extend(src.level_set(h))
    return pts


def check_good_map(a: ShiftMap, variant: str = "TW", tol: float = HEIGHT_TOL) -> CheckFailure | None:
    """Verify the three conditions of a delta-good map.

    ``variant="TW"`` checks the ancestor-preservation form (T1-T3),
    ``variant="G"`` the preimage-lca / depth form (G1-G3).  The two are
    equivalent, and their second conditions share no code, so the equivalence
    can be tested: T2 is checked on sampled witness points, G2 in closed form
    over pairs of source leaves.  T3 and G3 read the maximal unvisited
    subtrees off an :class:`ImageFloor`.

    For T2 it suffices to test pairs whose second point is a leaf: a violation
    at (x1, x2) descends to (x1, leaf below x2) because the 2-delta lifts of
    both sit on one root path.
    """
    if variant not in ("TW", "G"):
        raise ValueError("variant must be 'TW' or 'G'")
    bad = a.validate(tol)
    if bad is not None:
        return CheckFailure("T1" if variant == "TW" else "G1", bad.detail, bad.witness)
    src = a.source.tree
    dst = a.target.tree
    two_delta = 2.0 * a.delta
    leaves = [src.point(u) for u in src.leaves]
    leaf_imgs = [a.leaf_images[u] for u in src.leaves]

    if variant == "TW":
        for x1 in _t2_witnesses(a):
            img1 = a.apply(x1)
            up1 = _two_delta_up(src, x1, two_delta)
            for x2, img2 in zip(leaves, leaf_imgs):
                if dst.is_ancestor(img2, img1):
                    if not src.is_ancestor(_two_delta_up(src, x2, two_delta), up1):
                        return CheckFailure("T2", "ancestor relation not preserved", (x1, x2))
        for v, attach in ImageFloor(a).maximal_unvisited():
            for u in dst.subtree_leaves(v):
                gap = attach.height - dst.height(u)
                if gap > two_delta + tol:
                    return CheckFailure(
                        "T3", f"unvisited point {u!r} is {gap} below its image ancestor", (u, attach)
                    )
        return None

    # variant == "G".  G2 bounds the lca of every preimage set 2*delta above
    # its level.  The ancestors of leaves u1, u2 at height h share an image
    # iff h + delta reaches the lca of their images, so G2 fails iff some
    # pair merges more than delta above that lca.  In leaf order, leaves
    # i < j merge at the highest neighbour merge between them.
    merges = [src.lca(x, y).height for x, y in zip(leaves, leaves[1:])]
    for i, img_i in enumerate(leaf_imgs):
        top = -INF
        for j in range(i + 1, len(leaves)):
            top = max(top, merges[j - 1])
            # The lca of the images sits no lower than either image.
            if top - max(img_i.height, leaf_imgs[j].height) > a.delta + tol:
                y = dst.lca(img_i, leaf_imgs[j])
                if top - y.height > a.delta + tol:
                    witness = (y, src.lca(leaves[i], leaves[j]))
                    return CheckFailure("G2", f"preimage lca of {y} sits too high", witness)
    for v, attach in ImageFloor(a).maximal_unvisited():
        bottom = min(dst.height(u) for u in dst.subtree_leaves(v))
        if attach.height - bottom > two_delta + tol:
            return CheckFailure(
                "G3", f"unvisited planted subtree below {attach} is too deep", (v, attach)
            )
    return None


# -- matchings -> interleavings ---------------------------------------------


def matched_traces_from_matching(
    omt_p: OrderedMergeTree,
    omt_q: OrderedMergeTree,
    walk_p: CurveTrace,
    walk_q: CurveTrace,
    matching: frechet.Matching,
) -> MatchedTraces:
    """Realise a curve matching as a pair of traces on a shared parameter.

    Walk breakpoints correspond 1:1 to curve samples, so every matching step
    names either a walk breakpoint or a height on a specific walk leg.
    """

    def on_walk(walk: CurveTrace, index, edge, h) -> TreePoint:
        if index is not None:
            return walk.points[index]
        tree = walk.tree
        x, y = walk.points[edge], walk.points[edge + 1]
        lo = x if x.height <= y.height else y
        return tree.ancestor_at(lo, h)

    left_pts = [on_walk(walk_p, st.p_index, st.p_edge, st.hp) for st in matching.steps]
    right_pts = [on_walk(walk_q, st.q_index, st.q_edge, st.hq) for st in matching.steps]
    n = len(left_pts)
    params = [k / (n - 1) for k in range(n)]
    return MatchedTraces(
        CurveTrace(omt_p.tree, params, left_pts, validate=False),
        CurveTrace(omt_q.tree, params, right_pts, validate=False),
    )


def matching_to_interleaving(
    omt_p: OrderedMergeTree,
    omt_q: OrderedMergeTree,
    matched: MatchedTraces,
    delta: float,
    tol: float = HEIGHT_TOL,
) -> tuple[ShiftMap, ShiftMap]:
    """Build the monotone interleaving induced by a delta-matched curve pair.

    Each leaf's image is the ancestor, delta above the leaf, of the other
    curve's position at any visit time of the leaf; well-definedness across
    revisit times is asserted for every multiply visited breakpoint.
    """
    cost = matched.cost()
    if cost > delta + tol:
        raise CertificateError(
            f"traces are not {delta}-matched: gap {cost} at parameter {matched.worst_param()}"
        )

    def build(src: OrderedMergeTree, dst: OrderedMergeTree, own: CurveTrace, other: CurveTrace) -> ShiftMap:
        tree = src.tree
        images: dict[VertexId, TreePoint] = {}
        for k, pt in enumerate(own.points):
            if pt.height != tree.height(pt.anchor) or not tree.is_leaf(pt.anchor):
                continue
            u = pt.anchor
            o = other.points[k]
            h = tree.height(u) + delta
            img = dst.tree.ancestor_at(o, max(h, o.height))
            if u in images:
                if not points_close(dst.tree, images[u], img, tol):
                    raise CertificateError(f"matched traces give conflicting images for leaf {u!r}")
            else:
                images[u] = img
        missing = set(tree.leaves) - set(images)
        if missing:
            raise CertificateError(f"leaves never visited by the matched traces: {missing}")
        return ShiftMap(src, dst, delta, images)

    alpha = build(omt_p, omt_q, matched.left, matched.right)
    beta = build(omt_q, omt_p, matched.right, matched.left)
    for m in (alpha, beta):
        bad = m.validate(tol)
        if bad is not None:
            raise CertificateError(f"induced map is inconsistent: {bad}")
    return alpha, beta


# -- interleavings -> matchings ---------------------------------------------


def _visit_events(trace: CurveTrace, y: TreePoint, cap: float) -> list[tuple[float, int]]:
    """(start param, index) of each visit of ``y``, breakpoint runs and pass-throughs.

    ``cap`` stands in for the +inf sentinels when interpolating pass-through
    parameters, so visits on the trunk legs order correctly.
    """
    tree = trace.tree
    events: list[tuple[float, int]] = []
    n = len(trace.points)
    k = 0
    while k < n:
        if trace.points[k] == y:
            start = trace.params[k]
            idx = k
            while k + 1 < n and trace.points[k + 1] == y:
                k += 1
            events.append((start, idx))
        else:
            if k + 1 < n and trace.points[k + 1] != y:
                aa, bb = trace.points[k], trace.points[k + 1]
                if aa != bb:
                    lo, hi = (aa, bb) if aa.height <= bb.height else (bb, aa)
                    if lo.height < y.height < hi.height and tree.is_ancestor(lo, y) and tree.is_ancestor(y, hi):
                        pa, pb = trace.params[k], trace.params[k + 1]
                        ha = min(aa.height, cap)
                        hb = min(bb.height, cap)
                        frac = (y.height - ha) / (hb - ha)
                        events.append((pa + frac * (pb - pa), -k - 1))
        k += 1
    return sorted(events)


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


def interleaving_to_matching(a: ShiftMap, b: ShiftMap) -> MatchedTraces:
    """Construct a delta-matched pair of in-order curves from a monotone interleaving.

    Pushes the canonical walk of the source through the map, contracts the
    maximal violating subcurves, splices an in-order subwalk through every
    planted subtree the image missed (pausing the source curve meanwhile),
    and reparameterises uniformly.
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
    # At a contraction boundary the source curve sits exactly delta below the
    # pause point, so its breakpoint there is resolved by height, not by
    # parameter interpolation.
    walk_pos = {t: i for i, t in enumerate(walk.params)}
    contr_pos = {t: i for i, t in enumerate(contracted.params)}
    params = sorted(set(walk.params) | set(contracted.params))
    src_tree = src.tree
    left_pts: list[TreePoint] = []
    right_pts: list[TreePoint] = []
    for t in params:
        if t in contr_pos:
            rp = contracted.points[contr_pos[t]]
        else:
            rp = contracted.point_at(t)
        if t in walk_pos:
            lp = walk.points[walk_pos[t]]
        else:
            k = bisect.bisect_right(walk.params, t) - 1
            la, lb = walk.points[k], walk.points[k + 1]
            lo = la if la.height <= lb.height else lb
            h = rp.height - a.delta
            h = min(max(h, lo.height), max(la.height, lb.height))
            lp = src_tree.ancestor_at(lo, h)
        left_pts.append(lp)
        right_pts.append(rp)

    dst_tree = dst.tree
    right_trace = CurveTrace(dst_tree, params, right_pts, validate=False)
    preorder_pos = {v: i for i, v in enumerate(dst_tree.vertices)}
    finite_bp = [pt.height for pt in right_pts if pt.height != INF]
    cap = max(finite_bp + dst_tree.finite_heights()) + 1.0

    jobs = []  # (insert param, preorder position, attach point, top vertex)
    for v in dst_tree.vertices:
        p = dst_tree.parent(v)
        if p is None:
            continue
        if count_visits(right_trace, dst_tree.point(v)) > 0:
            continue
        if count_visits(right_trace, dst_tree.point(p)) == 0:
            continue
        # Attach: the lowest visited point on v's parent edge, else the parent.
        stem = [
            pt
            for pt in right_trace.points
            if pt.anchor == v and pt.height > dst_tree.height(v)
        ]
        attach = min(stem, key=lambda pt: pt.height) if stem else dst_tree.point(p)
        events = _visit_events(right_trace, attach, cap)
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
        jobs.append((u_param, preorder_pos[v], attach, v))

    jobs.sort(key=lambda j: (j[0], j[1]))

    def planted_walk(attach: TreePoint, v: VertexId) -> list[TreePoint]:
        leaves = dst_tree.subtree_leaves(v)
        pts = [attach]
        for i, u in enumerate(leaves):
            pts.append(dst_tree.point(u))
            if i + 1 < len(leaves):
                pts.append(dst_tree.lca(dst_tree.point(u), dst_tree.point(leaves[i + 1])))
        pts.append(attach)
        return pts

    params = list(params)
    base_params = list(params)
    base_left = list(left_pts)

    def left_point_at(u_param: float, attach: TreePoint) -> TreePoint:
        # The source curve sits exactly delta below its image when the
        # insertion parameter is hit, so resolve the point by height (exact)
        # rather than by parameter interpolation.
        k = bisect.bisect_right(base_params, u_param) - 1
        if base_params[k] == u_param:
            return base_left[k]
        lo, hi = base_left[k], base_left[k + 1]
        if hi.height < lo.height:
            lo, hi = hi, lo
        h = attach.height - a.delta
        h = min(max(h, lo.height), hi.height)
        return src_tree.ancestor_at(lo, h)

    # Descending parameter order keeps earlier insertion spots stable; jobs
    # sharing a parameter end up spliced in walk order.
    for u_param, _pos, attach, v in reversed(jobs):
        k = bisect.bisect_left(params, u_param)
        if k == len(params) or params[k] != u_param:
            left_pts.insert(k, left_point_at(u_param, attach))
            right_pts.insert(k, attach)
            params.insert(k, u_param)
        block = planted_walk(attach, v)
        params[k + 1 : k + 1] = [u_param] * len(block)
        right_pts[k + 1 : k + 1] = block
        left_pts[k + 1 : k + 1] = [left_pts[k]] * len(block)

    pair = MatchedTraces(
        CurveTrace(src.tree, params, left_pts, validate=False),
        CurveTrace(dst_tree, params, right_pts, validate=False),
    )
    return pair.reparameterised_uniform()


# -- the distance ------------------------------------------------------------


def monotone_interleaving_distance(
    omt_p: OrderedMergeTree, omt_q: OrderedMergeTree
) -> tuple[float, tuple[ShiftMap, ShiftMap]]:
    """Exact monotone interleaving distance with an optimal certificate.

    Computes the Frechet distance of the induced curves, extracts a witness
    matching, and converts it into the interleaving pair.
    """
    walk_p = in_order_walk(omt_p)
    walk_q = in_order_walk(omt_q)
    value, matching = frechet.compute_frechet(walk_p.curve(), walk_q.curve())
    matched = matched_traces_from_matching(omt_p, omt_q, walk_p, walk_q, matching)
    alpha, beta = matching_to_interleaving(omt_p, omt_q, matched, value)
    return value, (alpha, beta)
