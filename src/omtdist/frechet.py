"""Exact Frechet distance between 1D piecewise-linear curves.

The decision procedure propagates reachable intervals through the free-space
diagram of the two curves (one cell per segment pair).  For 1D segments the
per-cell free region is a band between two parallel lines, hence convex, so
the classical interval propagation is exact.

Boundary intervals are represented in *height space* along the edge they live
on, oriented by the edge direction, which keeps the whole decision free of
divisions: on inputs whose heights are dyadic rationals every comparison is
exact.  Divisions only appear when a witness matching is materialised, where
parameters are cosmetic.

The exact optimum is the smallest feasible value among the finite critical
candidates: all vertex-vertex height differences between the curves, plus all
half differences of vertex heights within each curve (the 1D form of the
monotonicity events; the optimum of two curves can be such a half difference,
so vertex-vertex differences alone are not enough).

The +inf sentinels are replaced, here only, by a finite cap exceeding every
achievable distance; the result is cap-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve1D
from .trees import INF


def cap_height(P: Curve1D, Q: Curve1D) -> float:
    """Finite stand-in for the +inf sentinels of a curve pair.

    Any cap at least ``max + achievable distance`` leaves the Frechet distance
    unchanged; ``max + range + 1`` clears that bar because the distance never
    exceeds the joint height range.  Raises ValueError when the cap, or its
    gap to the lowest height, overflows: no sweep could compare against it.
    """
    finite = P.finite_heights() + Q.finite_heights()
    mx, mn = max(finite), min(finite)
    cap = mx + (mx - mn) + 1.0
    if not math.isfinite(cap - mn):
        raise ValueError(f"heights from {mn!r} to {mx!r} span too wide a range to cap")
    return cap


def capped_arrays(P: Curve1D, Q: Curve1D, cap: float | None = None):
    H = cap_height(P, Q) if cap is None else float(cap)
    finite = P.finite_heights() + Q.finite_heights()
    if H <= max(finite):
        raise ValueError("cap must exceed every finite height")
    p = np.array([H if h == INF else h for h in P.heights], dtype=np.float64)
    q = np.array([H if h == INF else h for h in Q.heights], dtype=np.float64)
    return p, q, H


# Grids of at most this many cells are swept by the scalar loop, larger ones
# by the wavefront: each anti-diagonal costs a dozen numpy calls, which only
# pays off once diagonals are long, while the loop skips unreachable cells.
# Whole distances on random pairs and caterpillars cost the same either way
# at about 2**13 cells.  Both paths give identical tables.
_SCALAR_MAX_CELLS = 8192


def _reach_tables(p, q, delta):
    """Reachable parts of every cell boundary of the free-space diagram.

    Returns ``(v_ok, v_lo, h_ok, h_lo)``, each of shape ``(N + 1, M + 1)`` for
    curves of ``N`` and ``M`` segments.  ``v_*[i, j]`` (``j < M``) is the
    boundary at vertex ``i`` of ``p`` over segment ``j`` of ``q``, and
    ``h_*[i, j]`` (``i < N``) the boundary at vertex ``j`` of ``q`` over
    segment ``i`` of ``p``.  A boundary is reachable (``ok``) from its lower
    end ``lo`` up to its free upper end; both are heights along the boundary's
    segment, negated on a descending one.  ``lo`` is meaningful only where
    ``ok``.
    """
    if (len(p) - 1) * (len(q) - 1) <= _SCALAR_MAX_CELLS:
        return _reach_scalar(p, q, delta)
    return _reach_wavefront(p, q, delta)


def _reach_scalar(p, q, delta):
    """``_reach_tables`` by a cell-by-cell loop over Python floats."""
    N = len(p) - 1
    M = len(q) - 1
    W = M + 1
    size = (N + 1) * W
    v_ok, h_ok = [False] * size, [False] * size
    v_lo, h_lo = [0.0] * size, [0.0] * size
    p, q = p.tolist(), q.tolist()
    if abs(p[0] - q[0]) <= delta:
        full = True
        for j in range(M):
            full = full and abs(p[0] - q[j]) <= delta
            v_ok[j] = full
            v_lo[j] = q[j] if q[j + 1] > q[j] else -q[j]
        full = True
        for i in range(N):
            full = full and abs(p[i] - q[0]) <= delta
            h_ok[i * W] = full
            h_lo[i * W] = p[i] if p[i + 1] > p[i] else -p[i]

    q_up = [q[j + 1] > q[j] for j in range(M)]
    q_min = [q[j] if q[j] < q[j + 1] else q[j + 1] for j in range(M)]
    q_max = [q[j] if q[j] > q[j + 1] else q[j + 1] for j in range(M)]
    x_lo = [q[j + 1] - delta for j in range(M)]
    x_hi = [q[j + 1] + delta for j in range(M)]
    for i in range(N):
        a0, a1 = p[i], p[i + 1]
        p_up = a1 > a0
        a_min = a0 if a0 < a1 else a1
        a_max = a0 if a0 > a1 else a1
        y_lo = a1 - delta
        y_hi = a1 + delta
        row = i * W
        for j in range(M):
            k = row + j
            left_ok, bot_ok = v_ok[k], h_ok[k]
            if not (left_ok or bot_ok):
                continue
            # Right boundary: p at vertex i + 1 against q's segment j.
            lo = q_min[j] if q_min[j] > y_lo else y_lo
            hi = q_max[j] if q_max[j] < y_hi else y_hi
            klo, khi = (lo, hi) if q_up[j] else (-hi, -lo)
            if not bot_ok:
                left_lo = v_lo[k]
                klo = left_lo if left_lo > klo else klo
            v_ok[k + W] = klo <= khi
            v_lo[k + W] = klo
            # Top boundary: q at vertex j + 1 against p's segment i.
            lo = a_min if a_min > x_lo[j] else x_lo[j]
            hi = a_max if a_max < x_hi[j] else x_hi[j]
            klo, khi = (lo, hi) if p_up else (-hi, -lo)
            if not left_ok:
                bot_lo = h_lo[k]
                klo = bot_lo if bot_lo > klo else klo
            h_ok[k + 1] = klo <= khi
            h_lo[k + 1] = klo
    shape = (N + 1, W)
    return (
        np.array(v_ok).reshape(shape),
        np.array(v_lo).reshape(shape),
        np.array(h_ok).reshape(shape),
        np.array(h_lo).reshape(shape),
    )


def _free_bounds(x, b, delta):
    """Free part of the boundary at height ``x[r]`` over segment ``c`` of ``b``.

    Returned as ``(lo, hi)`` arrays indexed ``[r, c]``, oriented like the
    reach tables; the free part is empty where ``lo > hi``.
    """
    b0, b1 = b[:-1], b[1:]
    b_min = np.where(b0 < b1, b0, b1)
    b_max = np.where(b0 > b1, b0, b1)
    lo = x[:, None] - delta
    lo = np.where(b_min > lo, b_min, lo)
    hi = x[:, None] + delta
    hi = np.where(b_max < hi, b_max, hi)
    up = b1 > b0
    return np.where(up, lo, -hi), np.where(up, hi, -lo)


def _reach_wavefront(p, q, delta):
    """``_reach_tables`` by numpy sweeps along the anti-diagonals of the grid.

    Cell ``(i, j)`` reads the boundaries that cells ``(i - 1, j)`` and
    ``(i, j - 1)`` wrote, so every cell of one anti-diagonal can be done at
    once.  In the flattened ``(N + 1) x (M + 1)`` tables an anti-diagonal is
    a basic slice with stride ``M``.  Each cell does the float operations of
    ``_reach_scalar``, so the tables are bit-identical.
    """
    N = len(p) - 1
    M = len(q) - 1
    W = M + 1
    shape = (N + 1, W)
    v_ok, h_ok = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    v_lo, h_lo = np.zeros(shape), np.zeros(shape)
    tables = v_ok, v_lo, h_ok, h_lo
    if abs(p[0] - q[0]) > delta:
        return tables
    v_ok[0, :M] = np.logical_and.accumulate(np.abs(p[0] - q[:M]) <= delta)
    v_lo[0, :M] = np.where(q[1:] > q[:-1], q[:-1], -q[:-1])
    h_ok[:N, 0] = np.logical_and.accumulate(np.abs(p[:N] - q[0]) <= delta)
    h_lo[:N, 0] = np.where(p[1:] > p[:-1], p[:-1], -p[:-1])

    # Free bounds of each cell's right and top boundaries, at the cell's index.
    bounds = np.zeros((4,) + shape)
    bounds[0, :N, :M], bounds[1, :N, :M] = _free_bounds(p[1:], q, delta)
    top_lo, top_hi = _free_bounds(q[1:], p, delta)
    bounds[2, :N, :M], bounds[3, :N, :M] = top_lo.T, top_hi.T
    right_lo, right_hi, top_lo, top_hi = bounds.reshape(4, -1)
    v_ok, v_lo, h_ok, h_lo = (t.ravel() for t in tables)
    for d in range(N + M - 1):
        first = d + max(0, d - M + 1) * M
        stop = d + min(d, N - 1) * M + 1
        cell = slice(first, stop, M)
        right = slice(first + W, stop + W, M)
        top = slice(first + 1, stop + 1, M)
        left_ok, bot_ok = v_ok[cell], h_ok[cell]
        left_lo, bot_lo = v_lo[cell], h_lo[cell]
        reach = left_ok | bot_ok
        klo, khi = right_lo[cell], right_hi[cell]
        lo = np.where(bot_ok, klo, np.where(left_lo > klo, left_lo, klo))
        v_lo[right] = lo
        np.logical_and(reach, lo <= khi, out=v_ok[right])
        klo, khi = top_lo[cell], top_hi[cell]
        lo = np.where(left_ok, klo, np.where(bot_lo > klo, bot_lo, klo))
        h_lo[top] = lo
        np.logical_and(reach, lo <= khi, out=h_ok[top])
    return tables


def _decide(p, q, delta):
    """The decision: both end points free and the top-right corner reachable."""
    N = len(p) - 1
    M = len(q) - 1
    if abs(p[0] - q[0]) > delta or abs(p[N] - q[M]) > delta:
        return False
    v_ok, _, h_ok, _ = _reach_tables(p, q, delta)
    return bool(v_ok[N, M - 1] or h_ok[N - 1, M])


def decide_frechet(P: Curve1D, Q: Curve1D, delta: float, cap: float | None = None) -> bool:
    """Whether the Frechet distance of the two curves is at most ``delta``."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    p, q, _ = capped_arrays(P, Q, cap)
    return _decide(p, q, float(delta))


def frechet_candidates(P: Curve1D, Q: Curve1D, cap: float | None = None) -> np.ndarray:
    """Sorted distinct critical values: cross differences and in-curve half differences."""
    p, q, _ = capped_arrays(P, Q, cap)
    cross = np.abs(p[:, None] - q[None, :]).ravel()
    half_p = (np.abs(p[:, None] - p[None, :]) * 0.5).ravel()
    half_q = (np.abs(q[:, None] - q[None, :]) * 0.5).ravel()
    return np.unique(np.concatenate([cross, half_p, half_q]))


def compute_frechet_value(P: Curve1D, Q: Curve1D, cap: float | None = None) -> float:
    """Exact Frechet distance: binary search of the decision over the candidates."""
    p, q, _ = capped_arrays(P, Q, cap)
    cands = frechet_candidates(P, Q, cap)
    if _decide(p, q, float(cands[0])):
        return float(cands[0])
    lo, hi = 0, len(cands) - 1
    if not _decide(p, q, float(cands[hi])):
        raise AssertionError("largest candidate must be feasible")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _decide(p, q, float(cands[mid])):
            hi = mid
        else:
            lo = mid
    return float(cands[hi])


@dataclass(frozen=True)
class MatchStep:
    """One breakpoint of a matching path.

    ``s``/``t`` are in cell units (segment index plus fraction); ``hp``/``hq``
    are the exact curve heights there.  Sample indices are set when the step
    sits on a curve vertex, edge indices when strictly inside a segment.
    """

    s: float
    t: float
    hp: float
    hq: float
    p_index: int | None = None
    q_index: int | None = None
    p_edge: int | None = None
    q_edge: int | None = None


@dataclass(frozen=True)
class Matching:
    """A monotone free-space path, materialised as matched breakpoints.

    The path is non-decreasing in both coordinates; segments that pause one
    curve are flagged rather than perturbed, encoding the limit of strictly
    increasing bijections.
    """

    steps: tuple[MatchStep, ...]
    delta: float
    n_cells: tuple[int, int]
    cap: float

    def cost(self) -> float:
        worst = 0.0
        for st in self.steps:
            worst = max(worst, abs(st.hp - st.hq))
        return worst

    def pause_flags(self) -> list[str | None]:
        """Per-segment degeneracy: 'p' pauses the first curve, 'q' the second."""
        flags: list[str | None] = []
        for a, b in zip(self.steps, self.steps[1:]):
            if a.s == b.s:
                flags.append("p")
            elif a.t == b.t:
                flags.append("q")
            else:
                flags.append(None)
        return flags

    def verify_monotone(self) -> bool:
        return all(
            b.s >= a.s and b.t >= a.t and (b.s > a.s or b.t > a.t)
            for a, b in zip(self.steps, self.steps[1:])
        )


def _q_point(q: np.ndarray, j: int, kappa: float) -> tuple[float, float]:
    y = kappa if q[j + 1] > q[j] else -kappa
    t = j + (y - q[j]) / (q[j + 1] - q[j])
    return float(t), float(y)


def _p_point(p: np.ndarray, i: int, kappa: float) -> tuple[float, float]:
    x = kappa if p[i + 1] > p[i] else -kappa
    s = i + (x - p[i]) / (p[i + 1] - p[i])
    return float(s), float(x)


def extract_matching(P: Curve1D, Q: Curve1D, delta: float, cap: float | None = None) -> Matching:
    """A delta-matching witnessing ``decide_frechet(P, Q, delta)``.

    Backtracks the reachability tables from the top-right corner.  Each cell is
    entered exactly the way its exit boundary was justified during propagation
    (bottom entry preferred for a right-boundary exit, left entry preferred for
    a top-boundary exit), which keeps the path monotone.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    p, q, H = capped_arrays(P, Q, cap)
    N = len(p) - 1
    M = len(q) - 1
    v_ok, v_lo, h_ok, h_lo = _reach_tables(p, q, float(delta))
    corner_free = abs(p[N] - q[M]) <= delta
    if not corner_free or not (v_ok[N, M - 1] or h_ok[N - 1, M]):
        raise ValueError(f"delta={delta} is not feasible for this curve pair")

    steps: list[MatchStep] = [
        MatchStep(float(N), float(M), float(p[N]), float(q[M]), p_index=N, q_index=M)
    ]
    i, j = N - 1, M - 1
    exit_kind = "v" if v_ok[N, M - 1] else "h"
    while True:
        if exit_kind == "v":
            use_bottom = bool(h_ok[i, j])
        else:
            use_bottom = not bool(v_ok[i, j])
        if use_bottom:
            if not h_ok[i, j]:
                raise AssertionError("backtrack entered an unreachable bottom boundary")
            s_val, hp = _p_point(p, i, h_lo[i, j])
            steps.append(MatchStep(s_val, float(j), hp, float(q[j]), p_edge=i, q_index=j))
            if j == 0:
                for ii in range(i, 0, -1):
                    steps.append(MatchStep(float(ii), 0.0, float(p[ii]), float(q[0]), p_index=ii, q_index=0))
                break
            j -= 1
            exit_kind = "h"
        else:
            if not v_ok[i, j]:
                raise AssertionError("backtrack entered an unreachable left boundary")
            t_val, hq = _q_point(q, j, v_lo[i, j])
            steps.append(MatchStep(float(i), t_val, float(p[i]), hq, p_index=i, q_edge=j))
            if i == 0:
                for jj in range(j, 0, -1):
                    steps.append(MatchStep(0.0, float(jj), float(p[0]), float(q[jj]), p_index=0, q_index=jj))
                break
            i -= 1
            exit_kind = "v"
    steps.append(MatchStep(0.0, 0.0, float(p[0]), float(q[0]), p_index=0, q_index=0))
    steps.reverse()

    deduped: list[MatchStep] = []
    for st in steps:
        if deduped and st.s == deduped[-1].s and st.t == deduped[-1].t:
            continue
        deduped.append(st)
    matching = Matching(tuple(deduped), float(delta), (N, M), H)
    assert matching.verify_monotone()
    return matching


def compute_frechet(P: Curve1D, Q: Curve1D, cap: float | None = None) -> tuple[float, Matching]:
    """Exact distance together with a witness matching attaining it."""
    value = compute_frechet_value(P, Q, cap)
    return value, extract_matching(P, Q, value, cap)
