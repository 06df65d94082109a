"""The 1D curve of a tree: what the Frechet engine consumes.

An in-order walk of an ordered merge tree starts and ends at the root and
visits the leaves in order, passing the merge of each pair of neighbouring
leaves between them.  Its height profile, canonicalised, is the curve
``[inf, h(l0), m0, h(l1), ..., inf]``.  This module holds that curve, its
construction and the finite stand-in for its +inf ends (:func:`cap_height`),
so the distance loads no trace machinery (:mod:`omtdist.curves` re-exports
the curve) and the SVG export of a curve loads no Frechet engine.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .trees import INF, validate_tree

if TYPE_CHECKING:
    from .ordering import OrderedMergeTree


def _check_frame(h: tuple[float, ...]) -> None:
    """The checks of a canonical curve that canonicalising cannot guarantee."""
    if len(h) < 3:
        raise ValueError("a curve needs two sentinels and at least one interior sample")
    if h[0] != INF or h[-1] != INF:
        raise ValueError("curve must start and end at +inf")
    if not all(map(math.isfinite, h[1:-1])):
        raise ValueError("interior heights must be finite")


class _CurveFields(NamedTuple):
    heights: tuple[float, ...]


class Curve1D(_CurveFields):
    """Canonical 1D curve: the extrema sequence with +inf sentinel endpoints.

    Parameters are implicit and uniform; the Frechet distance does not depend
    on them.  Canonical form has strictly alternating interior minima/maxima,
    so equality of curves is equality of these tuples.  A named tuple of one
    field, so instances are immutable; ``_make`` and ``_replace`` skip the
    checks, as ``_canonical`` does.
    """

    __slots__ = ()

    def __new__(cls, heights: tuple[float, ...]) -> "Curve1D":
        h = heights
        _check_frame(h)
        for a, b in zip(h, h[1:]):
            if a == b:
                raise ValueError("canonical curve has no repeated adjacent heights")
        for a, b, c in zip(h, h[1:], h[2:]):
            if (a < b < c) or (a > b > c):
                raise ValueError("canonical curve has no monotone interior triples")
        return tuple.__new__(cls, (heights,))

    @classmethod
    def _canonical(cls, heights: tuple[float, ...]) -> "Curve1D":
        """The curve of heights known to alternate strictly: only the frame is checked."""
        _check_frame(heights)
        return tuple.__new__(cls, (heights,))

    @classmethod
    def from_heights(cls, raw: Sequence[float]) -> "Curve1D":
        """Canonicalise a height profile: drop pauses and non-extremal samples."""
        pts: list[float] = []
        for h in raw:
            if not pts or h != pts[-1]:
                pts.append(h)
        out: list[float] = []
        for h in pts:
            while len(out) >= 2 and ((out[-2] < out[-1] < h) or (out[-2] > out[-1] > h)):
                out.pop()
            out.append(h)
        # With +inf ends and finite interior heights the order is total, so
        # the passes above leave no repeat and no monotone triple: only the
        # frame needs checking.
        return cls._canonical(tuple(out))

    @property
    def n_segments(self) -> int:
        return len(self.heights) - 1

    def finite_heights(self) -> list[float]:
        return [h for h in self.heights if math.isfinite(h)]

    def reversed(self) -> "Curve1D":
        return Curve1D(tuple(reversed(self.heights)))

    def shifted(self, c: float) -> "Curve1D":
        return Curve1D(tuple(h if h == INF else h + c for h in self.heights))


def cap_height(P: Curve1D, Q: Curve1D) -> float:
    """Finite float stand-in for the +inf sentinels of a curve pair.

    Any cap at least ``max + achievable distance`` leaves the Frechet distance
    unchanged; ``max + range + 1`` clears that bar because the distance never
    exceeds the joint height range.  Raises ValueError when the cap, or its
    gap to the lowest height, overflows: the distance could then overflow too.
    """
    finite = P.heights[1:-1] + Q.heights[1:-1]
    return _cap(max(finite), min(finite))


def _cap(mx: float, mn: float) -> float:
    """The cap of the finite heights ``mn`` to ``mx``; see :func:`cap_height`."""
    cap = mx + (mx - mn) + 1.0
    if not math.isfinite(cap - mn):
        raise ValueError(f"heights from {mn!r} to {mx!r} span too wide a range to cap")
    return cap


def induced_curve(omt: OrderedMergeTree) -> Curve1D:
    """The curve ``[inf, h(l0), m0, h(l1), ..., inf]`` of the in-order walk
    (:func:`omtdist.curves.in_order_walk`), canonicalised, built from the
    leaf heights and the neighbour merges.

    In a valid merge tree every leaf lies strictly below the merges on either
    side of it, and the root is at +inf, so the walk already alternates
    strictly and is its own canonical form; any other tree is canonicalised.
    """
    tree = omt.tree
    heights = [tree.height(tree.root)] * (2 * len(tree.leaves) + 1)
    heights[1::2] = map(tree._height.__getitem__, tree._leaves)
    heights[2:-1:2] = tree.merges
    if validate_tree(tree) is None:
        return Curve1D._canonical(tuple(heights))
    return Curve1D.from_heights(heights)
