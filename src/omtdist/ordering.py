"""Order structures on merge trees.

Two equivalent ways to order a merge tree: a *layer-order* (one total order
per level set, consistent under taking ancestors) and a *leaf-order* (a total
order on the leaves that separates subtrees).  The two determine each other.
This module holds the leaf order, its validator and the layer order it
induces (:meth:`OrderedMergeTree.compare`), which is what every CLI op
reads.  The other direction, a leaf order recovered from a layer comparator,
and the comparator's validator are among the paper's constructions in
:mod:`omtdist.curves`.

The canonical in-memory representation is :class:`OrderedMergeTree`: the leaf
order is stored explicitly and the tree's child lists are permuted once so a
plain depth-first traversal realises it.  The induced layer comparison then
reduces to comparing subtree leaf intervals, and so does the order check of
two point lists (:func:`first_flip`), which monotone maps and labellings
must pass.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple, Sequence

from .trees import MergeTree, TreePoint, VertexId


class OrderError(ValueError):
    """A leaf order or layer comparator is structurally unusable."""


class LeafOrder(NamedTuple):
    """An immutable leaf sequence; equal sequences give equal orders."""

    sequence: tuple[VertexId, ...]


class ViolatingTriple(NamedTuple):
    """Witness that a leaf order fails to separate subtrees: u sits between u1, u2
    in the order but outside the subtree of lca(u1, u2)."""

    u1: VertexId
    u: VertexId
    u2: VertexId


def check_leaf_order(tree: MergeTree, order: LeafOrder | Sequence[VertexId]) -> ViolatingTriple | None:
    """Validate the separating-subtrees property; None means the order is fine.

    A leaf order separates subtrees iff every vertex's subtree leaves form a
    contiguous block of the order, that is iff their highest and lowest rank
    differ by one less than their count.  One reverse pre-order pass gives
    those ranks, so the scan is linear in the tree.
    """
    seq = tuple(order.sequence if isinstance(order, LeafOrder) else order)
    if len(seq) != len(tree.leaves) or set(seq) != set(tree.leaves):
        raise OrderError("leaf order is not a permutation of the leaves")
    rank = {u: i for i, u in enumerate(seq)}
    lo, hi = {}, {}
    for v in reversed(tree.vertices):
        cs = tree.children(v)
        lo[v] = min(lo[c] for c in cs) if cs else rank[v]
        hi[v] = max(hi[c] for c in cs) if cs else rank[v]
    for v in tree.vertices:
        start, stop = tree.leaf_span(v)
        if hi[v] - lo[v] == stop - start - 1:
            continue
        # Find the gap and produce a witness triple.
        inside = {rank[u] for u in tree.subtree_leaves(v)}
        gap = next(i for i in range(lo[v], hi[v]) if i not in inside)
        u1 = seq[max(i for i in inside if i < gap)]
        u2 = seq[min(i for i in inside if i > gap)]
        return ViolatingTriple(u1, seq[gap], u2)
    return None


class OrderedMergeTree:
    """A merge tree together with a subtree-separating leaf order.

    The stored tree has its child lists aligned to the leaf order, so
    ``tree.leaves`` equals the order and depth-first traversals are in-order
    walks.  A tree whose depth-first leaves already are the order is stored
    as it is.  Instances are immutable.
    """

    def __init__(self, tree: MergeTree, leaf_order: LeafOrder | Sequence[VertexId]):
        order = leaf_order if isinstance(leaf_order, LeafOrder) else LeafOrder(tuple(leaf_order))
        if order.sequence != tree.leaves:
            bad = check_leaf_order(tree, order)
            if bad is not None:
                raise OrderError(f"leaf order does not separate subtrees: {bad}")
            rank = {u: i for i, u in enumerate(order.sequence)}
            first = {v: rank[tree.leaves[tree.leaf_span(v)[0]]] for v in tree.vertices}
            tree = tree.with_children_order({v: sorted(tree.children(v), key=first.get) for v in tree.vertices})
            if tree.leaves != order.sequence:
                raise AssertionError("reordered children do not give the leaf order")
        self.tree = tree
        self.leaf_order = order

    @property
    def root_point(self) -> TreePoint:
        return self.tree.point(self.tree.root)

    def compare(self, x1: TreePoint, x2: TreePoint) -> int:
        """Induced layer comparison of two equal-height points (-1, 0, +1);
        ValueError for distinct points on one root path (not canonical)."""
        if x1.height != x2.height:
            raise ValueError("layer comparison requires equal heights")
        if x1 == x2:
            return 0
        lo1 = self.tree.leaf_span(x1.anchor)[0]
        lo2 = self.tree.leaf_span(x2.anchor)[0]
        if lo1 == lo2:
            raise ValueError("distinct equal-height points must root disjoint subtrees")
        return -1 if lo1 < lo2 else 1

    def level_set(self, h: float) -> list[TreePoint]:
        """Level set in layer order."""
        return self.tree.level_set(h)

    def __repr__(self) -> str:
        return f"OrderedMergeTree({len(self.tree.vertices)} vertices, order={self.leaf_order.sequence!r})"


def first_flip(
    src: OrderedMergeTree, dst: OrderedMergeTree, xs: Sequence[TreePoint], ys: Sequence[TreePoint]
) -> tuple[int, int] | None:
    """First index pair ``i < j`` in row-major order ordered strictly one way
    by ``xs`` in ``src`` and strictly the other way by ``ys`` in ``dst``; None
    if no pair flips.

    Points compare through their ancestors at the higher of their two
    heights: equal or ancestor-related points are unordered.  All points must
    be canonical, as :meth:`ShiftMap.validate` and :meth:`Labelling.validate`
    ensure.  Then only their leaf spans matter, and those are laminar: two
    points are related iff their spans nest, and otherwise they are ordered
    as their disjoint spans are.  So ``i`` flips with some ``j`` iff a ``j``
    lies wholly after ``i`` in ``src`` and wholly before it in ``dst``, or the
    other way round.  Sorting the points once by span start and once by span
    end, a suffix min of the ``dst`` span ends and a prefix max of the
    ``dst`` span starts answer that with two bisects per point.  The first
    point that flips is the row of the first pair (its partners all lie
    after it), and a scan of that row finds the column: O(L log L) time and
    O(L) memory in all.  Only each point's anchor, ``x[0]``, is read.
    """
    src_span, dst_span = src.tree._span, dst.tree._span
    a = [src_span[x[0]] for x in xs]
    b = [dst_span[y[0]] for y in ys]
    # By src span start, the least dst span end from each point on; by src
    # span end, the greatest dst span start up to each point.
    after = sorted((lo, dhi) for (lo, _), (_, dhi) in zip(a, b))
    before = sorted((hi, dlo) for (_, hi), (dlo, _) in zip(a, b))
    starts = [lo for lo, _ in after]
    ends = [hi for hi, _ in before]
    least_end = [*itertools.accumulate(reversed([e for _, e in after]), min, initial=math.inf)][::-1]
    most_start = [*itertools.accumulate((s for _, s in before), max, initial=-math.inf)]

    for i, ((lo, hi), (dlo, dhi)) in enumerate(zip(a, b)):
        # Some j after i in src and before it in dst, or before and after.
        if least_end[bisect.bisect_left(starts, hi)] <= dlo or most_start[bisect.bisect_right(ends, lo)] >= dhi:
            for j in range(i + 1, len(a)):
                (lo2, hi2), (dlo2, dhi2) = a[j], b[j]
                if (hi <= lo2 and dhi2 <= dlo) or (hi2 <= lo and dhi <= dlo2):
                    return i, j
    return None
