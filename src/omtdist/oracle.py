"""Independent reference implementations used to validate the main pipeline.

Nothing here shares code with the production Frechet engine: the discrete
Frechet oracle runs its own dense dynamic program on resampled curves with
its own sentinel handling, and the order exhauster enumerates leaf orders
directly from child permutations.

Also home to the balanced-partition reduction that builds tree pairs whose
interleaving distance separates yes- from no-instances; those trees feed the
gap sanity tests.  Only :func:`brute_force_min_over_orders` runs the Frechet
engine, which it imports when called, so ``reduce`` loads none.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from .curve1d import Curve1D
from .trees import INF, MergeTree, VertexId

if TYPE_CHECKING:
    import numpy as np


def _dfd_kernel(a, b):
    """Discrete Frechet distance of two height sequences (Eiter-Mannila).

    ``D[i, j] = max(|a[i] - b[j]|, min(D[i-1, j], D[i-1, j-1], D[i, j-1]))``
    with out-of-range entries at +inf, except that ``D[0, 0]`` is the first
    distance.  Cell ``(i, j)`` needs only the two previous anti-diagonals, so
    each anti-diagonal is computed at once and only three are kept, indexed
    by ``i + 1`` so that ``i = -1`` reads the +inf in slot 0.
    """
    import numpy as np

    n = a.shape[0]
    m = b.shape[0]
    rb = b[::-1]  # b[d - i] for i = i0..i1 is rb[m - 1 - d + i0 : m - d + i1]
    older = np.full(n + 1, np.inf)
    prev = np.full(n + 1, np.inf)
    cur = np.full(n + 1, np.inf)
    prev[1] = abs(a[0] - b[0])
    for d in range(1, n + m - 1):
        i0 = max(0, d - m + 1)
        i1 = min(d, n - 1)
        dist = np.abs(a[i0 : i1 + 1] - rb[m - 1 - d + i0 : m - d + i1])
        # Predecessors of (i, d - i): (i - 1, d - i) and (i, d - i - 1) on the
        # previous anti-diagonal, (i - 1, d - i - 1) on the one before.
        best = np.minimum(prev[i0 : i1 + 1], prev[i0 + 1 : i1 + 2])
        np.minimum(best, older[i0 : i1 + 1], out=best)
        np.maximum(best, dist, out=cur[i0 + 1 : i1 + 2])
        older, prev, cur = prev, cur, older
    return prev[n]


def _oracle_capped(P: Curve1D, Q: Curve1D) -> tuple[list[float], list[float]]:
    finite = P.finite_heights() + Q.finite_heights()
    top = max(finite) + (max(finite) - min(finite)) + 1.0
    cap = lambda hs: [top if h == INF else h for h in hs]
    return cap(P.heights), cap(Q.heights)


def _resample(heights: list[float], resolution: float) -> np.ndarray:
    import numpy as np

    out = [heights[0]]
    for a, b in zip(heights, heights[1:]):
        steps = max(1, math.ceil(abs(b - a) / resolution))
        for k in range(1, steps + 1):
            out.append(a + (b - a) * k / steps)
    return np.asarray(out, dtype=np.float64)


def discrete_frechet_refined(P: Curve1D, Q: Curve1D, resolution: float) -> float:
    """Discrete Frechet distance on curves resampled to steps <= resolution.

    Always an upper bound on the continuous distance, and at most
    ``2 * resolution`` above it.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    p, q = _oracle_capped(P, Q)
    return float(_dfd_kernel(_resample(p, resolution), _resample(q, resolution)))


# -- exhaustive order search -------------------------------------------------


def all_order_curves(tree: MergeTree) -> set[tuple[float, ...]]:
    """Induced-curve height tuples over every subtree-separating leaf order.

    Valid leaf orders correspond exactly to choices of a child permutation at
    every vertex, so the walk profiles are generated by direct DFS over those
    choices.
    """
    internal = [v for v in tree.vertices if len(tree.children(v)) > 1]
    perms = [list(itertools.permutations(tree.children(v))) for v in internal]
    out: set[tuple[float, ...]] = set()
    for choice in itertools.product(*perms):
        order = dict(zip(internal, choice))

        def profile(v: VertexId) -> list[float]:
            cs = order.get(v, tree.children(v))
            if not cs:
                return [tree.height(v)]
            parts = [profile(c) for c in cs]
            merged = parts[0]
            for nxt in parts[1:]:
                merged = merged + [tree.height(v)] + nxt
            return merged

        heights = [INF] + profile(tree.children(tree.root)[0]) + [INF]
        out.add(tuple(Curve1D.from_heights(heights).heights))
    return out


def brute_force_min_over_orders(tree: MergeTree, other: MergeTree, max_leaves: int = 8) -> float:
    """Minimum monotone interleaving distance over all valid leaf-order pairs.

    Exhausts per-vertex child permutations on both trees; orders inducing the
    same 1D curve are collapsed before the pairwise distance computations.
    """
    from .frechet import compute_frechet_value

    if len(tree.leaves) > max_leaves or len(other.leaves) > max_leaves:
        raise ValueError(f"trees exceed the brute-force budget of {max_leaves} leaves")
    curves_a = [Curve1D(h) for h in all_order_curves(tree)]
    curves_b = [Curve1D(h) for h in all_order_curves(other)]
    return min(compute_frechet_value(pa, pb) for pa in curves_a for pb in curves_b)


# -- balanced-partition reduction ---------------------------------------------


class _PartitionFields(NamedTuple):
    values: tuple[int, ...]
    groups: int
    lam: float = 9.0


class PartitionInstance(_PartitionFields):
    """A balanced-partition instance (X, m) with the reduction's scale constant.

    A named tuple; ``_make`` and ``_replace`` skip the checks.
    """

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...], groups: int, lam: float = 9.0) -> "PartitionInstance":
        if groups < 1:
            raise ValueError("need at least one group")
        if any(v < 1 for v in values):
            raise ValueError("values must be positive integers")
        if not (math.isfinite(lam) and lam > 8):
            raise ValueError(f"the scale constant must be finite and exceed 8, got {lam!r}")
        if sum(values) % groups != 0:
            raise ValueError("group sum must be integral for a candidate instance")
        return tuple.__new__(cls, (values, groups, lam))

    @property
    def mu(self) -> int:
        return sum(self.values) // self.groups


def build_partition_reduction(inst: PartitionInstance) -> tuple[MergeTree, MergeTree]:
    """The two reduction trees for a balanced-partition instance.

    The first tree hangs ``a_i`` leaves at height 0 below a vertex at
    ``lam`` for each value, joined through vertices at ``lam + 1`` into a
    common vertex at ``lam + 2``.  The second tree groups ``mu`` leaves at
    height 1 below vertices at ``lam + 1`` joined at ``lam + 3``.  The raw
    construction contains chain vertices, which are contracted; contraction
    does not move any point of the realisation.
    """
    lam = inst.lam
    parent: dict[str, str | None] = {"root": None, "r": "root"}
    height: dict[str, float] = {"root": INF, "r": lam + 2.0}
    for i, a in enumerate(inst.values):
        parent[f"p{i}"] = "r"
        height[f"p{i}"] = lam + 1.0
        parent[f"phat{i}"] = f"p{i}"
        height[f"phat{i}"] = lam
        for k in range(a):
            parent[f"u{i}.{k}"] = f"phat{i}"
            height[f"u{i}.{k}"] = 0.0
    t = MergeTree(parent, height).normalised()

    parent2: dict[str, str | None] = {"root": None, "r": "root"}
    height2: dict[str, float] = {"root": INF, "r": lam + 3.0}
    for j in range(inst.groups):
        parent2[f"q{j}"] = "r"
        height2[f"q{j}"] = lam + 1.0
        for k in range(inst.mu):
            parent2[f"w{j}.{k}"] = f"q{j}"
            height2[f"w{j}.{k}"] = 1.0
    t_prime = MergeTree(parent2, height2).normalised()
    return t, t_prime
