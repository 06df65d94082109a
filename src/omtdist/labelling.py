"""Labelled merge trees and the label distance.

A labelling assigns ``n`` shared labels to points of two trees so that every
leaf on each side carries at least one label.  The induced matrix records the
heights of pairwise label LCAs; the label distance is the sup-norm difference
of the two matrices, whose row maxima the checks read off two passes of
:func:`max_lca_gap`, one per direction, without building them.  A monotone
labelling also respects the trees' point orders.

A delta-matching of the induced curves already is a monotone
delta-labelling: the lca height of two points of an in-order walk is the
curve maximum between them, a delta-matching moves those maxima by at most
delta, and its parameters never cross.  So any set of aligned pairs that
names every leaf on both sides is one, and ``matching_to_labelling`` keeps
the first pair at each leaf of either tree, at most |L| + |L'| labels, off
the paired points ``(xs, ys)`` of the matching.  Those are the pairs
:func:`omtdist.interleaving.maps_from_pairs` reads each leaf image from, so
the labelling induces the same interleaving as the matching.
``labelling_to_interleaving`` closes the loop back to a pair of shift maps
by that rule.

``good_to_labelling`` implements the paper's construction from a single
map: labels from the source leaves are paired with their images, and each
target leaf ``w`` is paired with a carefully chosen preimage of its lowest
image ancestor so that monotonicity survives.  The certificate path does not
need it, since it holds the matching; it stays as the paper's good map to
labelling direction, for callers that hold a good map and no matching.
Preimages are read off the leaf images, and monotonicity is one order check
over label pairs, so no level set is sampled.  :meth:`Labelling.validate`
tests each label with :meth:`MergeTree.contains_point` and notes the leaves
it lands on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .interleaving import (
    HEIGHT_TOL,
    CertificateError,
    CheckFailure,
    ImageFloor,
    ShiftMap,
    check_good_map,
    check_monotone,
    maps_from_pairs,
)
from .ordering import OrderedMergeTree, first_flip
from .trees import INF, MergeTree, TreePoint, VertexId, max_lca_gap

if TYPE_CHECKING:
    import numpy as np


class _LabellingFields(NamedTuple):
    source: OrderedMergeTree
    target: OrderedMergeTree
    pi: tuple[TreePoint, ...]
    pi_prime: tuple[TreePoint, ...]


class Labelling(_LabellingFields):
    """A pair of equally sized label maps into two ordered merge trees.

    A named tuple; ``_make`` and ``_replace`` skip the equal-size check.
    """

    __slots__ = ()

    def __new__(cls, source, target, pi, pi_prime) -> "Labelling":
        if len(pi) != len(pi_prime):
            raise CertificateError("label maps must have equal size")
        return tuple.__new__(cls, (source, target, pi, pi_prime))

    @property
    def size(self) -> int:
        return len(self.pi)

    def validate(self) -> CheckFailure | None:
        """Every label is a point of its tree, and every leaf of either tree carries one."""
        for omt, points, name in (
            (self.source, self.pi, "pi"),
            (self.target, self.pi_prime, "pi_prime"),
        ):
            tree = omt.tree
            bad = _off_tree(tree, points, name)
            if bad is not None:
                return bad
            height, kids = tree._height, tree._kids
            hit = {a for a, h in points if h == height[a] and not kids.get(a)}
            missing = [u for u in tree._leaves if u not in hit]
            if missing:
                return CheckFailure("label-map", f"{name} misses leaves {missing}", (missing[0],))
        return None

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return induced_matrix(self.source.tree, self.pi), induced_matrix(self.target.tree, self.pi_prime)

    def distance(self) -> float:
        """``label_distance(*self.matrices())``: the max of the rows, each at least 0."""
        return max(self._rows(-INF), default=0.0)

    def _rows(self, bound: float) -> list[float]:
        """Each label's largest lca gap to any label, its diagonal included,
        read off two passes of :func:`max_lca_gap`, one per direction: exact
        wherever it exceeds ``bound``, and otherwise at most ``bound``."""
        a, b, xs, ys = self.source.tree, self.target.tree, self.pi, self.pi_prime
        rows = zip(max_lca_gap(a, xs, b, ys, bound), max_lca_gap(b, ys, a, xs, bound))
        return [r if r > s else s for r, s in rows]


def _off_tree(tree: MergeTree, points: Sequence[TreePoint], name: str) -> CheckFailure | None:
    """The label-map failure of the first label that is not a point of ``tree``."""
    for x in points:
        if not tree.contains_point(x):
            return CheckFailure("label-map", f"{name} maps a label outside the tree", (x,))
    return None


def induced_matrix(tree: MergeTree, points: tuple[TreePoint, ...] | list[TreePoint]) -> np.ndarray:
    """Symmetric matrix of pairwise label LCA heights; diagonal = label heights.

    The paper's definition, one ``tree.lca`` per pair, and the reference that
    the label checks are tested against."""
    import numpy as np

    n = len(points)
    return np.array([[tree.lca(x, y).height for y in points] for x in points], dtype=np.float64).reshape(n, n)


def label_distance(m: np.ndarray, m_prime: np.ndarray) -> float:
    """Entrywise sup-norm of the matrix difference, where two labels at the
    root of both trees (inf - inf) count as 0: both pairs merge at the same height."""
    import numpy as np

    if m.shape != m_prime.shape:
        raise ValueError("induced matrices must have equal dimensions")
    with np.errstate(invalid="ignore"):
        gaps = np.where(m == m_prime, 0.0, abs(m - m_prime))
    return float(gaps.max()) if gaps.size else 0.0


def check_label_distance(lab: Labelling, delta: float) -> CheckFailure | None:
    """The first label pair, in row-major order, whose lca heights differ by more than delta.

    A label off its tree fails first, with the label-map failure of
    :meth:`Labelling.validate`; the labels need not cover the leaves.
    ``Labelling._rows`` gives each label's largest gap, and only the rows
    above the bound are scanned.  The lca heights are symmetric in i, j, so
    each row starts at the diagonal, and the first row above the bound holds
    the first failing pair."""
    a, b, xs, ys = lab.source.tree, lab.target.tree, lab.pi, lab.pi_prime
    bad = _off_tree(a, xs, "pi") or _off_tree(b, ys, "pi_prime")
    if bad is not None:
        return bad
    bound = delta + HEIGHT_TOL
    for i, row in enumerate(lab._rows(bound)):
        if not row > bound:
            continue
        for j in range(i, len(xs)):
            m, mp = a.lca_height(xs[i], xs[j]), b.lca_height(ys[i], ys[j])
            if (0.0 if m == mp else abs(m - mp)) > bound:
                detail = f"lca heights of labels {i} and {j} are {m!r} and {mp!r}, more than delta {delta!r} apart"
                return CheckFailure("label-distance", detail, (i, j))
    return None


def check_monotone_labelling(lab: Labelling) -> CheckFailure | None:
    """Monotonicity of a labelling over all label pairs.

    Requires: strict point order of the source images implies non-strict order
    of the target images, where points compare via their ancestors at the
    higher of the two heights.
    """
    bad = lab.validate()
    if bad is not None:
        return bad
    flip = first_flip(lab.source, lab.target, lab.pi, lab.pi_prime)
    if flip is not None:
        i, j = flip
        return CheckFailure(
            "monotone-labelling", f"labels {i} and {j} flip order between the trees", (i, j)
        )
    return None


def good_to_labelling(a: ShiftMap) -> Labelling:
    """A monotone delta-labelling of size |L| + |L'| from a monotone good map.

    This is the single-map route to a labelling.  It checks its input as a
    good map first and scans the leaf images per target leaf, so it costs
    O(|L| * |L'|) tree queries; a caller holding the witness matching reads
    the labelling off it with :func:`matching_to_labelling` instead.

    Source leaves are labelled with their images.  A target leaf ``w`` is
    labelled at the level ``h`` of its lowest image ancestor ``w_F`` minus
    delta, with the ancestor of a source leaf whose image lies below ``w_F``:
    the first one, unless an earlier leaf under ``w_F`` has its lowest image
    ancestor strictly below ``w_F``.  Then the last such leaf is lifted to
    ``w_hat`` just below ``w_F``, and the source leaf is the last one whose
    image lies below ``w_hat``.  The paper's lifted-leaf construction takes
    the largest preimage of ``w_hat`` at ``h``, the same point: the leaves
    below each point of a level are contiguous in leaf order.
    """
    bad = check_good_map(a, "G") or check_monotone(a)
    if bad is not None:
        raise CertificateError(f"input map is not a monotone good map: {bad}")

    src, dst = a.source, a.target
    src_tree, dst_tree = src.tree, dst.tree
    leaf_imgs = [(src_tree.point(u), a.leaf_images[u]) for u in src_tree.leaves]
    pairs = list(leaf_imgs)

    def below(y: TreePoint) -> list[TreePoint]:
        return [x for x, img in leaf_imgs if dst_tree.is_ancestor(img, y)]

    floor = ImageFloor(dst_tree, a.leaf_images.values())
    anchors = {w: floor.lowest_ancestor(dst_tree.point(w)) for w in dst_tree.leaves}
    for w in dst_tree.leaves:
        w_f = anchors[w]
        pre = below(w_f)
        if not pre:
            raise CertificateError(f"no preimage found for the image ancestor of leaf {w!r}")
        # Every preimage leaf lies at or below the level, so the max only
        # absorbs last-ulp noise in w_f.height - delta.
        h = max([w_f.height - a.delta] + [x.height for x in pre])

        # The leaves under w_f in leaf order, w at index i, and the indices
        # of those whose lowest image ancestor lies strictly below w_f.
        top = w_f.anchor
        sorted_w = dst_tree.subtree_leaves(top)
        i = dst_tree.leaf_span(w)[0] - dst_tree.leaf_span(top)[0]
        s_idx = [k for k, u in enumerate(sorted_w) if anchors[u].height < w_f.height]
        if not s_idx or s_idx[0] >= i:
            pairs.append((src_tree.ancestor_at(pre[0], h), dst_tree.point(w)))
            continue

        # w_f is the lowest image point above w, so the leaf images strictly
        # below it all lie in the subtrees of its anchor's children.
        h_hat = max(
            [anchors[sorted_w[k]].height for k in s_idx]
            + [y.height for _, y in leaf_imgs if y.anchor != top and dst_tree._holds(top, y.anchor)]
        )
        if not h_hat < w_f.height:
            raise AssertionError("lifted height must stay below the image ancestor")
        i_hat = max(k for k in s_idx if k < i)
        w_hat = dst_tree.ancestor_at(dst_tree.point(sorted_w[i_hat]), h_hat)
        pairs.append((src_tree.ancestor_at(below(w_hat)[-1], h), dst_tree.point(w)))

    pi = tuple(p for p, _ in pairs)
    pi_prime = tuple(q for _, q in pairs)
    return Labelling(src, dst, pi, pi_prime)


def matching_to_labelling(
    omt_p: OrderedMergeTree,
    omt_q: OrderedMergeTree,
    matched: tuple[Sequence[TreePoint], Sequence[TreePoint]],
) -> Labelling:
    """The monotone labelling of the paired points ``(xs, ys)`` of a
    delta-matching: the first pair at each leaf of either tree, in matching
    order.  The two lists must be aligned.

    Its label distance is at most the matching cost, and it induces the
    interleaving of :func:`omtdist.interleaving.matching_to_interleaving`,
    which checks that cost and that every leaf is paired.
    """
    xs, ys = matched
    if len(xs) != len(ys):
        raise CertificateError(f"paired point lists differ in length: {len(xs)} and {len(ys)}")
    p_height, p_kids = omt_p.tree._height, omt_p.tree._kids
    q_height, q_kids = omt_q.tree._height, omt_q.tree._kids
    pi: list[TreePoint] = []
    pi_prime: list[TreePoint] = []
    seen_p: set[VertexId] = set()
    seen_q: set[VertexId] = set()
    for x, y in zip(xs, ys):
        (u, hu), (w, hw) = x, y
        new = False
        if hu == p_height[u] and not p_kids.get(u) and u not in seen_p:
            seen_p.add(u)
            new = True
        if hw == q_height[w] and not q_kids.get(w) and w not in seen_q:
            seen_q.add(w)
            new = True
        if new:
            pi.append(x)
            pi_prime.append(y)
    return Labelling(omt_p, omt_q, tuple(pi), tuple(pi_prime))


def labelling_to_interleaving(lab: Labelling, delta: float) -> tuple[ShiftMap, ShiftMap]:
    """The interleaving pair induced by a monotone delta-labelling.

    Each point maps to the ancestor, delta above it, of the other-side image
    of any label in its subtree (:func:`maps_from_pairs`).  The labels are
    checked to be points of their trees before anything reads them.
    """
    bad = lab.validate() or check_label_distance(lab, delta)
    if bad is not None:
        raise CertificateError(str(bad))
    return maps_from_pairs(lab.source, lab.target, lab.pi, lab.pi_prime, delta)
