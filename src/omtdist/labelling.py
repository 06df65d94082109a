"""Labelled merge trees and the label distance.

A labelling assigns ``n`` shared labels to points of two trees so that every
leaf on each side carries at least one label.  The induced matrix records the
heights of pairwise label LCAs; the label distance is the sup-norm difference
of the two matrices.  A monotone labelling additionally respects the point
orders of the two trees.

``good_to_labelling`` implements the order-aware refinement of the classical
construction: labels from the source leaves are paired with their images, and
each target leaf ``w`` is paired with a carefully chosen preimage of its
lowest image ancestor so that monotonicity survives.  ``labelling_to_interleaving``
closes the loop back to a pair of shift maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interleaving import (
    HEIGHT_TOL,
    CertificateError,
    CheckFailure,
    ShiftMap,
    check_good_map,
    check_monotone,
    lowest_image_ancestor,
)
from .ordering import OrderedMergeTree
from .trees import MergeTree, TreePoint, VertexId, points_close, snap_height


@dataclass
class Labelling:
    """A pair of equally sized label maps into two ordered merge trees."""

    source: OrderedMergeTree
    target: OrderedMergeTree
    pi: tuple[TreePoint, ...]
    pi_prime: tuple[TreePoint, ...]

    def __post_init__(self):
        if len(self.pi) != len(self.pi_prime):
            raise CertificateError("label maps must have equal size")

    @property
    def size(self) -> int:
        return len(self.pi)

    def validate(self) -> CheckFailure | None:
        for omt, points, name in (
            (self.source, self.pi, "pi"),
            (self.target, self.pi_prime, "pi_prime"),
        ):
            tree = omt.tree
            for x in points:
                if not tree.contains_point(x):
                    return CheckFailure("label-map", f"{name} maps a label outside the tree", (x,))
            hit = {
                x.anchor
                for x in points
                if x.height == tree.height(x.anchor) and tree.is_leaf(x.anchor)
            }
            missing = set(tree.leaves) - hit
            if missing:
                return CheckFailure("label-map", f"{name} misses leaves {missing}")
        return None

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            induced_matrix(self.source.tree, self.pi),
            induced_matrix(self.target.tree, self.pi_prime),
        )

    def distance(self) -> float:
        m, mp = self.matrices()
        return label_distance(m, mp)


def induced_matrix(tree: MergeTree, points: tuple[TreePoint, ...] | list[TreePoint]) -> np.ndarray:
    """Symmetric matrix of pairwise label LCA heights; diagonal = label heights."""
    n = len(points)
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        out[i, i] = points[i].height
        for j in range(i + 1, n):
            h = tree.lca(points[i], points[j]).height
            out[i, j] = h
            out[j, i] = h
    return out


def label_distance(m: np.ndarray, m_prime: np.ndarray) -> float:
    """Entrywise sup-norm of the matrix difference."""
    if m.shape != m_prime.shape:
        raise ValueError("induced matrices must have equal dimensions")
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m - m_prime)))


def check_monotone_labelling(lab: Labelling) -> CheckFailure | None:
    """Monotonicity of a labelling over all label pairs.

    Requires: strict point order of the source images implies non-strict order
    of the target images, where points compare via their ancestors at the
    higher of the two heights.
    """
    bad = lab.validate()
    if bad is not None:
        return bad
    n = lab.size
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if lab.source.compare_points(lab.pi[i], lab.pi[j]) < 0:
                if lab.target.compare_points(lab.pi_prime[i], lab.pi_prime[j]) > 0:
                    return CheckFailure(
                        "monotone-labelling",
                        f"labels {i} and {j} flip order between the trees",
                        (i, j),
                    )
    return None


def good_to_labelling(a: ShiftMap, tol: float = HEIGHT_TOL) -> Labelling:
    """A monotone delta-labelling of size |L| + |L'| from a monotone good map.

    Source leaves are labelled with their images.  Each target leaf ``w`` gets
    a preimage of its lowest image ancestor ``w_F``: the smallest one in the
    layer order, unless some earlier leaf below ``w_F`` also maps strictly
    below it, in which case the largest preimage-ancestor compatible with that
    earlier leaf is taken (the lifted-leaf construction).
    """
    for checker, what in ((check_good_map, "good"), (check_monotone, "monotone")):
        bad = checker(a)
        if bad is not None:
            raise CertificateError(f"input map is not {what}: {bad}")

    src, dst = a.source, a.target
    src_tree, dst_tree = src.tree, dst.tree
    pairs: list[tuple[TreePoint, TreePoint]] = []
    for u in src_tree.leaves:
        pairs.append((src_tree.point(u), a.leaf_images[u]))
    labelled_s1 = [img for _, img in pairs]

    for w in dst_tree.leaves:
        w_point = dst_tree.point(w)
        w_f = lowest_image_ancestor(a, w_point)
        h = snap_height(src_tree, w_f.height - a.delta, tol)
        level = src.level_set(h)
        x_set = [x for x in level if points_close(dst_tree, a.apply(x), w_f, tol)]
        if not x_set:
            raise CertificateError(f"no preimage found for the image ancestor of leaf {w!r}")

        # Leaves of the subtree under w_f in leaf order.
        sorted_w = dst_tree.subtree_leaves(w_f.anchor)
        anchors = {
            u: lowest_image_ancestor(a, dst_tree.point(u)) for u in sorted_w
        }
        s_idx = [
            k
            for k, u in enumerate(sorted_w)
            if anchors[u].height < w_f.height
        ]
        i = sorted_w.index(w)
        s_before = [k for k in s_idx if k < i]
        if not s_before:
            x = x_set[0]
            for cand in x_set[1:]:
                if src.compare(cand, x) < 0:
                    x = cand
            pairs.append((x, w_point))
            continue

        i_hat = max(s_before)
        y_set = [
            img
            for img in labelled_s1
            if dst_tree.is_ancestor(img, w_f) and img != w_f
        ]
        h1 = max(anchors[sorted_w[k]].height for k in s_idx)
        h2 = max((y.height for y in y_set), default=-math.inf)
        h_hat = max(h1, h2)
        if not h_hat < w_f.height:
            raise AssertionError("lifted height must stay below the image ancestor")
        w_hat = dst_tree.ancestor_at(dst_tree.point(sorted_w[i_hat]), h_hat)

        def preimage_ancestors(w_lift: TreePoint) -> list[TreePoint]:
            pre = [
                z
                for z in src.level_set(snap_height(src_tree, h_hat - a.delta, tol))
                if points_close(dst_tree, a.apply(z), w_lift, tol)
            ]
            return [src_tree.ancestor_at(z, h) for z in pre]

        x_hat_set = [x for x in preimage_ancestors(w_hat) if any(x == c for c in x_set)]
        if not x_hat_set:
            raise AssertionError("lifted preimage ancestors must meet the preimage set")
        x_hat = x_hat_set[0]
        for cand in x_hat_set[1:]:
            if src.compare(cand, x_hat) > 0:
                x_hat = cand

        # The lifted preimage sets respect the layer order across indices.
        for k1 in s_idx:
            for k2 in s_idx:
                if k1 >= k2:
                    continue
                wk1 = dst_tree.ancestor_at(dst_tree.point(sorted_w[k1]), h_hat)
                wk2 = dst_tree.ancestor_at(dst_tree.point(sorted_w[k2]), h_hat)
                if wk1 == wk2:
                    continue
                xs1 = preimage_ancestors(wk1)
                xs2 = preimage_ancestors(wk2)
                for z1 in xs1:
                    for z2 in xs2:
                        if z1 != z2 and src.compare(z1, z2) > 0:
                            raise AssertionError(
                                "lifted preimage sets out of order; construction precondition broken"
                            )
        pairs.append((x_hat, w_point))

    pi = tuple(p for p, _ in pairs)
    pi_prime = tuple(q for _, q in pairs)
    return Labelling(src, dst, pi, pi_prime)


def labelling_to_interleaving(
    lab: Labelling, delta: float, tol: float = HEIGHT_TOL
) -> tuple[ShiftMap, ShiftMap]:
    """The interleaving pair induced by a monotone delta-labelling.

    Each point maps to the ancestor, delta above it, of the other-side image
    of any label in its subtree; the finite representation stores this at the
    leaves only.
    """
    if lab.distance() > delta + tol:
        raise CertificateError(
            f"label distance {lab.distance()} exceeds delta={delta}"
        )
    bad = lab.validate()
    if bad is not None:
        raise CertificateError(str(bad))

    def build(src: OrderedMergeTree, dst: OrderedMergeTree, pi, pi_prime) -> ShiftMap:
        tree = src.tree
        images: dict[VertexId, TreePoint] = {}
        for u in tree.leaves:
            upt = tree.point(u)
            ell = next(k for k, x in enumerate(pi) if x == upt)
            other = pi_prime[ell]
            h = tree.height(u) + delta
            images[u] = dst.tree.ancestor_at(other, max(h, other.height))
        return ShiftMap(src, dst, delta, images)

    alpha = build(lab.source, lab.target, lab.pi, lab.pi_prime)
    beta = build(lab.target, lab.source, lab.pi_prime, lab.pi)
    for m in (alpha, beta):
        bad = m.validate(tol)
        if bad is not None:
            raise CertificateError(f"labelling induces an inconsistent map: {bad}")
    return alpha, beta
