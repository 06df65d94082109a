"""Merge trees as topological spaces.

A merge tree is a rooted tree with a height function that strictly increases
towards a root at +infinity.  Distances in this package are defined on the
topological realisation of the tree, so points interior to edges are
first-class citizens: a :class:`TreePoint` names a spot on an edge by the
vertex below it and an absolute height.

An ordered merge tree is the Cartesian tree of its induced curve
``[inf, l0, m0, l1, ..., inf]``, where ``m_i`` is the merge height of the
neighbouring leaves i and i+1 (Gabow-Bentley-Tarjan 1984).  So the lca
height of two points is a range max over ``m`` between their leaf spans
(Bender-Farach-Colton, "The LCA problem revisited", 2000).  The spans, ``m``
and the vertex at each entry of ``m`` are the tree's only subtree index; the
constructor's one walk fills ``m``, and the spans are built on first use.
Spans are laminar: two canonical points are ancestor-related iff their spans
nest (heights break the one tie, the root and its child), and otherwise they
are ordered as their disjoint spans are and meet at the vertex of the highest
merge between them.  A sparse table over ``m``, in plain lists, answers that
range max in O(1) (``lca_height``), and :func:`max_lca_gap` gives each label
its largest gap between the lca heights of two labelled point lists, in one
bottom-up pass and, where some gap exceeds a bound, one top-down pass.

A point climbs its root path in one place, :meth:`MergeTree.anchor_at`, which
names the vertex an ancestor at a height is anchored at.  ``ancestor_at``,
``lift`` (the rule by which every shift image climbs) and the certificate
passes of :mod:`omtdist.interleaving` all call it, so a change to that rule
is a change to this module alone.

The tree itself is immutable after construction and all queries are
read-only, so instances may be shared freely between threads.  Two threads
that race to build the spans or the sparse table on first use build equal
copies.
"""

from __future__ import annotations

import functools
import math
from typing import Hashable, Mapping, NamedTuple, Sequence

INF = math.inf
# How far two heights may differ and still name one point: absorbs last-ulp
# noise from composed float sums in the certificate checks.
HEIGHT_TOL = 1e-9

VertexId = Hashable


class InvalidTreeError(ValueError):
    """The input cannot be interpreted as a rooted tree at all."""


class Violation(NamedTuple):
    """First merge-tree invariant violated by a structure, with a witness."""

    code: str
    vertex: VertexId | None = None
    detail: str = ""

    def __str__(self) -> str:
        where = f" at vertex {self.vertex!r}" if self.vertex is not None else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.code}{where}{tail}"


class TreePoint(NamedTuple):
    """A point of the topological realisation.

    ``anchor`` names a vertex; the point sits on the edge from ``anchor``
    towards its parent, at absolute height ``height``.  Canonical form anchors
    a point that coincides with a vertex at that vertex, so two canonical
    points are the same point of the realisation iff they compare equal.  A
    named tuple: points compare and hash as their ``(anchor, height)`` pairs.
    """

    anchor: VertexId
    height: float


class MergeTree:
    """Rooted tree with heights, queried through its realisation.

    Parameters
    ----------
    parent:
        Maps every vertex id to its parent id, or ``None`` for the root.
    height:
        Maps every vertex id to a height; the root carries ``math.inf``.
    children_order:
        Optional explicit child sequence per vertex.  Defaults to the order in
        which children appear in ``parent``.  The child order is what a later
        leaf-order alignment permutes.  The tree keeps the given sequences, so
        they must not change afterwards.

    Construction only rejects structures that are not trees (unknown parents,
    cycles, empty input).  Whether the result is a valid *merge* tree is the
    business of :func:`validate_tree`; all point queries assume validity.
    """

    def __init__(
        self,
        parent: Mapping[VertexId, VertexId | None],
        height: Mapping[VertexId, float],
        children_order: Mapping[VertexId, Sequence[VertexId]] | None = None,
    ):
        if not parent:
            raise InvalidTreeError("empty vertex set")
        if parent.keys() != height.keys():
            raise InvalidTreeError("parent and height maps disagree on the vertex set")
        parent = dict(parent)
        heights = {v: float(h) for v, h in height.items()}

        # The children table: the given one, with the children of any vertex
        # it omits read off the parent pointers.
        given = children_order or {}
        kids = dict(given)
        roots = []
        for v, p in parent.items():
            if p is None:
                roots.append(v)
            elif p not in given:
                kids.setdefault(p, []).append(v)
        if not self._walk(parent, heights, kids, roots):
            raise _structure_error(parent, children_order)

    @classmethod
    def _loaded(
        cls,
        parent: dict[VertexId, VertexId | None],
        heights: dict[VertexId, float],
        children: Mapping[VertexId, Sequence[VertexId]],
        roots: list[VertexId],
    ) -> MergeTree | None:
        """The tree of maps a loader builds and hands over, or None if the
        table alone does not make a tree; the constructor then names why.

        ``heights`` are floats and ``roots`` the parentless vertices in the
        order of ``parent``; the tree keeps both maps and the child
        sequences.  When :meth:`_walk` reaches every vertex from ``children``
        alone, each non-root vertex was listed by its parent, so the table
        omits no vertex with children and the constructor would walk the
        same table.
        """
        tree = object.__new__(cls)
        try:
            return tree if tree._walk(parent, heights, dict(children), roots) else None
        except TypeError:  # a listed child is unhashable, so no vertex
            return None

    def _walk(self, parent: dict, heights: dict, kids: dict, roots: list) -> bool:
        """Index the tree by one depth-first walk of the children table
        ``kids``; False if the table and parent pointers form no tree.

        The vertex popped right after a leaf is a later child of the lca of
        that leaf and the next one (a root there stands between the trees of a
        forest, at +inf).  The walk is the permutation and cycle test too:
        each listed child names its lister as parent, and n pops reach n
        distinct vertices.  It also notes whether the tree is a valid merge
        tree, for validate_tree.
        """
        order, leaves, merges, merge_vertices = [], [], [], []
        stack = roots[::-1]
        strict, unary = True, []
        try:
            for _ in range(len(parent)):
                v = stack.pop()
                order.append(v)
                cs = kids.get(v)
                if cs:
                    hv = heights[v]
                    for c in cs:
                        if parent[c] != v:
                            raise KeyError(c)
                        if not -INF < heights[c] < hv:
                            strict = False
                    if len(cs) == 1:
                        unary.append(v)
                    stack.extend(reversed(cs))
                else:
                    leaves.append(v)
                    if stack:
                        p = parent[stack[-1]]
                        merges.append(INF if p is None else heights[p])
                        merge_vertices.append(p)
        except (IndexError, KeyError):  # the stack ran dry, or a listed child is not the lister's
            return False
        if stack or len(set(order)) != len(parent) or not kids.keys() <= parent.keys():
            return False
        self._parent = parent
        self._height = heights
        # One root, at +inf, is the one unary vertex, and every child lies
        # strictly below its parent, so no other vertex is at +inf.
        self._valid = strict and len(roots) == 1 and unary == roots and heights[roots[0]] == INF
        self._kids = kids
        self._roots = tuple(roots)
        self._preorder = tuple(order)
        self._leaves = tuple(leaves)
        self._merges = tuple(merges)
        self._merge_vertices = tuple(merge_vertices)
        return True

    @functools.cached_property
    def _span(self) -> dict[VertexId, tuple[int, int]]:
        """The leaves below v are leaves[lo:hi] with (lo, hi) = span[v]."""
        kids = self._kids
        span: dict[VertexId, tuple[int, int]] = {}
        rank = len(self._leaves)
        for v in reversed(self._preorder):
            cs = kids.get(v)
            if cs:
                span[v] = (span[cs[0]][0], span[cs[-1]][1])
            else:
                rank -= 1
                span[v] = (rank, rank + 1)
        return span

    # -- structure ---------------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._preorder

    @property
    def leaves(self) -> tuple[VertexId, ...]:
        """Leaves in depth-first order of the stored child lists."""
        return self._leaves

    @property
    def root(self) -> VertexId:
        if len(self._roots) != 1:
            raise InvalidTreeError("tree does not have a unique root")
        return self._roots[0]

    def parent(self, v: VertexId) -> VertexId | None:
        return self._parent[v]

    def height(self, v: VertexId) -> float:
        return self._height[v]

    def children(self, v: VertexId) -> tuple[VertexId, ...]:
        return tuple(self._kids.get(v, ()))

    def is_leaf(self, v: VertexId) -> bool:
        return not self._kids.get(v)

    def finite_heights(self) -> list[float]:
        """Sorted distinct finite vertex heights."""
        return sorted({h for h in self._height.values() if math.isfinite(h)})

    def subtree_leaves(self, v: VertexId) -> list[VertexId]:
        """Leaves below ``v`` in leaf order."""
        lo, hi = self._span[v]
        return list(self._leaves[lo:hi])

    def leaf_span(self, v: VertexId) -> tuple[int, int]:
        """Half-open index interval of ``v``'s subtree leaves in ``self.leaves``."""
        return self._span[v]

    @property
    def merges(self) -> tuple[float, ...]:
        """Neighbour merge heights: ``merges[i]`` is the lca height of leaves i and i + 1."""
        return self._merges

    @property
    def merge_vertices(self) -> tuple[VertexId, ...]:
        """The vertex at each neighbour merge: the lca of leaves i and i + 1."""
        return self._merge_vertices

    def _holds(self, v: VertexId, u: VertexId) -> bool:
        """Whether vertex ``u`` lies in the subtree of ``v``: heights break the root's span tie."""
        lo, hi = self._span[v]
        u_lo, u_hi = self._span[u]
        return lo <= u_lo and u_hi <= hi and self._height[u] <= self._height[v]

    # -- points ------------------------------------------------------------

    def point(self, v: VertexId) -> TreePoint:
        return TreePoint(v, self._height[v])

    def contains_point(self, x: TreePoint) -> bool:
        if x.anchor not in self._parent:
            return False
        hv = self._height[x.anchor]
        if x.height == hv:
            return True
        p = self._parent[x.anchor]
        return p is not None and hv < x.height < self._height[p]

    def deg(self, x: TreePoint) -> int:
        """Down-degree of a point: child count at a vertex, 1 inside an edge."""
        if x.height == self._height[x.anchor]:
            return len(self._kids.get(x.anchor, ()))
        return 1

    def anchor_at(self, v: VertexId, h: float) -> VertexId:
        """The highest vertex at or below height ``h`` on the root path of ``v``,
        or ``v`` itself if it lies above ``h``.

        This is the one climb of the package: the ancestor at ``h`` of a point
        anchored at ``v`` no higher than ``h`` is anchored here.
        """
        parent, height = self._parent, self._height
        while True:
            p = parent[v]
            if p is None or h < height[p]:
                return v
            v = p
            if height[v] == h:
                return v

    def ancestor_at(self, x: TreePoint, h: float) -> TreePoint:
        """The unique ancestor of ``x`` at height ``h`` (requires ``h >= height(x)``)."""
        if h < x.height:
            raise ValueError(f"ancestor height {h} below point height {x.height}")
        return TreePoint(self.anchor_at(x.anchor, h), h)

    def lift(self, x: TreePoint, h: float) -> TreePoint:
        """The ancestor of ``x`` at height ``h``, never below ``x``.

        This is how a shift image climbs from a point it must lie above:
        ``h`` is a composed float sum, and where its last-ulp noise lands it
        below ``x`` the image is ``x`` itself.
        """
        h = max(h, x.height)
        return TreePoint(self.anchor_at(x.anchor, h), h)

    def is_ancestor(self, below: TreePoint, above: TreePoint) -> bool:
        """True iff ``below`` precedes ``above`` in the ancestor order (incl. equality).

        Both points must be canonical, as every point of this package is.
        """
        return above.height >= below.height and self._holds(above.anchor, below.anchor)

    def lca(self, x: TreePoint, y: TreePoint) -> TreePoint:
        if self.is_ancestor(x, y):
            return y
        if self.is_ancestor(y, x):
            return x
        # Unrelated points have disjoint spans and meet at the highest
        # neighbour merge between them, the range max lca_height reads.
        (x_lo, x_hi), (y_lo, y_hi) = self._span[x.anchor], self._span[y.anchor]
        k = max(range(min(x_lo, y_lo), max(x_hi, y_hi) - 1), key=self._merges.__getitem__)
        return self.point(self._merge_vertices[k])

    # -- lca heights ---------------------------------------------------------

    @functools.cached_property
    def _range_max_table(self) -> list[list[float]]:
        """Sparse table over the neighbour merges: row r holds the max of ``2**r`` merges from each index on."""
        rows = [list(self._merges)]
        while 2 ** len(rows) <= len(self._merges):
            prev, w = rows[-1], 1 << (len(rows) - 1)
            rows.append([a if a > b else b for a, b in zip(prev, prev[w:])])
        return rows

    def lca_height(self, x: TreePoint, y: TreePoint) -> float:
        """``lca(x, y).height`` bit for bit, in O(1)."""
        (x_lo, x_hi), (y_lo, y_hi) = self._span[x.anchor], self._span[y.anchor]
        h = x.height if x.height > y.height else y.height
        return self._lca_height(x_lo if x_lo < y_lo else y_lo, x_hi if x_hi > y_hi else y_hi, h)

    def _lca_height(self, lo: int, hi: int, top: float) -> float:
        """The lca height of points that span ``leaves[lo:hi]``, the highest at ``top``."""
        if hi - lo < 2:
            return top
        r = (hi - 1 - lo).bit_length() - 1
        row = self._range_max_table[r]
        a, b = row[lo], row[hi - 1 - (1 << r)]
        a = a if a > b else b
        return a if a > top else top

    def level_set(self, h: float) -> list[TreePoint]:
        """All points at height ``h``, one per crossing edge plus exact vertices.

        Emission follows the depth-first order of the stored child lists, which
        realises the layer-order on aligned trees.
        """
        if not math.isfinite(h):
            raise ValueError("level_set expects a finite height")
        pts: list[TreePoint] = []
        for v in self._preorder:
            hv = self._height[v]
            if hv == h:
                pts.append(TreePoint(v, h))
            else:
                p = self._parent[v]
                if p is not None and hv < h < self._height[p]:
                    pts.append(TreePoint(v, h))
        return pts

    def child_toward(self, v: VertexId, x: TreePoint) -> VertexId:
        """The child of vertex ``v`` whose planted subtree contains ``x`` (with ``x`` strictly below ``v``)."""
        for c in self._kids.get(v, ()):
            if self._holds(c, x.anchor):
                return c
        raise ValueError("point is not strictly below the vertex")

    # -- rebuilding --------------------------------------------------------

    def with_children_order(self, children_order: Mapping[VertexId, Sequence[VertexId]]) -> "MergeTree":
        merged = {v: children_order.get(v, self._kids.get(v, ())) for v in self._parent}
        return MergeTree(self._parent, self._height, merged)

    def shifted(self, c: float) -> "MergeTree":
        """Heights shifted by ``c`` (the root stays at +inf)."""
        h = {v: (hv if hv == INF else hv + c) for v, hv in self._height.items()}
        return MergeTree(self._parent, h, self._kids)

    def normalised(self) -> "MergeTree":
        """Contract interior degree-1 vertices; the realisation is unchanged."""
        unary = {
            v
            for v in self._preorder
            if self._parent[v] is not None and len(self._kids.get(v, ())) == 1
        }
        if not unary:
            return self
        parent: dict[VertexId, VertexId | None] = {}
        for v in self._preorder:
            if v in unary:
                continue
            p = self._parent[v]
            while p in unary:
                p = self._parent[p]
            parent[v] = p

        def descend(v: VertexId) -> VertexId:
            while v in unary:
                v = self._kids[v][0]
            return v

        # Preserve the surviving relative child order.
        order = {v: [descend(c) for c in self._kids.get(v, ())] for v in parent}
        height = {v: self._height[v] for v in parent}
        return MergeTree(parent, height, order)

    def __repr__(self) -> str:
        return f"MergeTree({len(self._parent)} vertices, {len(self._leaves)} leaves)"


def validate_tree(tree: MergeTree) -> Violation | None:
    """Check the merge-tree invariants, returning the first violation or None.

    Checked in order: a unique root at +inf, a single trunk edge below the
    root, finite heights elsewhere, strict height increase along every edge,
    and no interior degree-1 vertices (canonical form).  The constructor's
    walk already knows whether all of them hold; the checks run only to name
    the first violation.
    """
    if tree._valid:
        return None
    parent, height, kids = tree._parent, tree._height, tree._kids
    roots = list(tree._roots)  # the roots in pre-order
    infs = [v for v in tree._preorder if height[v] == INF]
    if len(roots) > 1 or len(infs) > 1:
        return Violation("multiple-roots", (roots + infs)[1], "more than one root/+inf vertex")
    if len(infs) == 0:
        return Violation("no-root", roots[0], "root height must be +inf")
    if roots[0] != infs[0]:
        return Violation("multiple-roots", infs[0], "+inf height on a non-root vertex")
    root = roots[0]
    if len(kids.get(root, ())) != 1:
        return Violation("root-degree", root, "root must have exactly one child")
    below = tree._preorder[1:]  # the pre-order starts at the root
    for v in below:
        h = height[v]
        if not -INF < h < height[parent[v]]:
            if not math.isfinite(h):
                return Violation("nonfinite-height", v)
            return Violation("non-strict-height", v, "height must strictly increase towards the root")
    for v in below:
        if len(kids.get(v, ())) == 1:
            return Violation("unary-vertex", v, "interior degree-1 vertex (not canonical)")
    return None


def _structure_error(parent: Mapping, children_order: Mapping | None) -> InvalidTreeError:
    """The first reason a parent map and children table form no tree, in the
    order of the checks: unknown parents, then the table, then the roots."""
    derived: dict[VertexId, list[VertexId]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            if p not in derived:
                return InvalidTreeError(f"vertex {v!r} has unknown parent {p!r}")
            derived[p].append(v)
    for v, given in (children_order or {}).items():
        if v not in derived:
            return InvalidTreeError(f"children_order names unknown vertex {v!r}")
        if len(given) != len(derived[v]) or set(given) != set(derived[v]):
            return InvalidTreeError(f"children_order for {v!r} is not a permutation")
    if None not in parent.values():
        return InvalidTreeError("no parentless vertex (cycle)")
    return InvalidTreeError("cycle detected: not all vertices reachable from a root")


def max_lca_gap(a: MergeTree, xs: Sequence[TreePoint], b: MergeTree, ys: Sequence[TreePoint],
                bound: float) -> list[float]:
    """The row maxima of the lca gaps where some gap exceeds ``bound``: entry
    i is the max over j of ``a.lca_height(xs[i], xs[j]) - b.lca_height(ys[i],
    ys[j])``, a pair at +inf in both trees counting 0.  Otherwise entry i is
    the gap of one pair with label i, at most ``bound``.

    A pair merges in ``b`` at a point z with both labels in S_z, the labels at
    or below z, and the lca in ``a`` of a set holding x_i is that of x_i and
    one of its points, so row i is the max of lca_a(S_z).height - height(z)
    over the vertices and labels z of ``b`` at or above ys[i].  lca_a(S_z)
    needs only the min span start, max span stop and max height of S_z: one
    post-order walk of ``b`` carries them up and keeps the gap at each label
    and the largest on each edge.  Each row is the max of some edges, so only
    where an edge's gap exceeds ``bound`` does one pre-order pass carry the
    max above each edge down, and a suffix max along each edge give the
    labels on it the max at or above them.
    """
    span, n, heights, parent, lca_height = a._span, len(a._leaves), b._height, b._parent, a._lca_height
    on: dict[VertexId, list] = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        on.setdefault(y.anchor, []).append((y.height, *span[x.anchor], x.height, i))
    # The three numbers of the labels below each vertex; the root hands its own to None.
    up = dict.fromkeys([*b._preorder, None], (n, 0, -INF))
    rows = [-INF] * len(xs)
    edge = {None: -INF}  # the largest gap on each vertex's edge
    for v in reversed(b._preorder):
        lo, hi, top = up[v]
        # v if labels lie below it, then each label at v or above it in height order.
        best = -INF
        if lo < hi:
            lca, h = lca_height(lo, hi, top), heights[v]
            best = 0.0 if lca == h else lca - h
        labels = on.get(v)
        if labels:
            labels.sort()
            for h, x_lo, x_hi, x_h, i in labels:
                lo, hi, top = x_lo if x_lo < lo else lo, x_hi if x_hi > hi else hi, x_h if x_h > top else top
                lca = lca_height(lo, hi, top)
                rows[i] = gap = 0.0 if lca == h else lca - h
                if gap > best:
                    best = gap
        edge[v] = best
        p_lo, p_hi, p_top = up[p := parent[v]]
        up[p] = (lo if lo < p_lo else p_lo, hi if hi > p_hi else p_hi, top if top > p_top else p_top)
    if not max(edge.values()) > bound:
        return rows
    for v in b._preorder:  # each entry becomes the largest gap at or above its edge
        g = edge[parent[v]]
        if g > edge[v]:
            edge[v] = g
    for v, labels in on.items():  # each label takes the largest gap at or above it
        run = edge[parent[v]]
        for label in reversed(labels):
            i = label[4]
            if rows[i] > run:
                run = rows[i]
            rows[i] = run
    return rows


def points_close(tree: MergeTree, x: TreePoint, y: TreePoint) -> bool:
    """Whether two points coincide up to ``HEIGHT_TOL`` along a shared root path.

    Exact equality is plain ``==`` on canonical points; this variant absorbs
    last-ulp height noise from composed float arithmetic in certificate checks.
    """
    if x == y:
        return True
    if abs(x.height - y.height) > HEIGHT_TOL:
        return False
    lo, hi = (x, y) if x.height <= y.height else (y, x)
    return tree.is_ancestor(lo, hi)
