"""Exact Frechet distance between 1D piecewise-linear curves.

The decision procedure propagates reachable intervals through the free-space
diagram of the two curves (Alt-Godau; one cell per segment pair).  For 1D
segments the per-cell free region is a band between two parallel lines, hence
convex, so the classical interval propagation is exact.  One sweep does it
row by row and visits only the cells it can reach, so a decision far from the
optimum dies after a few cells; it keeps one row of boundaries, and the
witness matching is backtracked from the boundaries it reached.

Boundary intervals are represented in *height space* along the edge they live
on, oriented by the edge direction, which keeps the whole decision free of
divisions: on inputs whose heights are dyadic rationals every comparison is
exact.  Divisions only appear when a witness matching is materialised, where
parameters are cosmetic.

The exact optimum is the smallest feasible value among the finite critical
candidates: all vertex-vertex height differences between the curves, plus all
half differences of vertex heights within each curve (the 1D form of the
monotonicity events; the optimum of two curves can be such a half difference,
so vertex-vertex differences alone are not enough).  The binary search over
them is capped from above by the cost of a greedy vertex coupling, as in the
pruned searches of Bringmann-Kunnemann-Nusser ("Walking the dog fast in
practice", 2019).  Its last accepted decision is the one at the optimum, so
``compute_frechet`` backtracks the witness from that decision's sweep rather
than sweeping the optimum again.

The +inf sentinels are replaced, here only, by a finite cap exceeding every
achievable distance; the result is cap-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _sweep(p, q, delta, reached=None):
    """Whether the top-right corner of the free-space diagram is reachable.

    ``p`` and ``q`` are lists of the ``N + 1`` and ``M + 1`` capped heights.
    Cell ``(i, j)`` pairs segment ``i`` of ``p`` with segment ``j`` of ``q``.
    Its left boundary ``v[i, j]`` lies at vertex ``i`` of ``p`` over segment
    ``j`` of ``q``, its bottom boundary ``h[i, j]`` at vertex ``j`` of ``q``
    over segment ``i`` of ``p``.  A boundary is reachable from its lower end
    ``lo`` up to its free upper end; ``lo`` is a height along the boundary's
    segment, negated on a descending one.

    The sweep goes one row (one segment of ``p``) at a time and visits only
    cells with a reachable left or bottom boundary.  It carries the row's
    reached right boundaries as sorted ``(j, lo)`` lists and the bottom
    boundary of the next cell as one scalar, so it needs O(M) memory, and it
    stops as soon as a row hands nothing on.  When ``reached`` is a pair of
    dicts ``(v, h)``, the lower end of every reached boundary is stored in
    them under ``(i, j)``.
    """
    N = len(p) - 1
    M = len(q) - 1
    if abs(p[0] - q[0]) > delta or abs(p[N] - q[M]) > delta:
        return False
    record = reached is not None
    if record:
        v_lo, h_lo = reached
    left_j, left_lo = [], []
    for j in range(M):
        if abs(p[0] - q[j]) > delta:
            break
        left_j.append(j)
        left_lo.append(q[j] if q[j + 1] > q[j] else -q[j])
        if record:
            v_lo[0, j] = left_lo[-1]

    q_up = [q[j + 1] > q[j] for j in range(M)]
    q_min = [q[j] if q[j] < q[j + 1] else q[j + 1] for j in range(M)]
    q_max = [q[j] if q[j] > q[j + 1] else q[j + 1] for j in range(M)]
    x_lo = [q[j + 1] - delta for j in range(M)]
    x_hi = [q[j + 1] + delta for j in range(M)]
    column = True
    bot_ok = False
    for i in range(N):
        a0, a1 = p[i], p[i + 1]
        p_up = a1 > a0
        a_min = a0 if a0 < a1 else a1
        a_max = a0 if a0 > a1 else a1
        y_lo = a1 - delta
        y_hi = a1 + delta
        # Bottom of cell (i, 0): reachable along vertex 0 of q while free.
        column = column and abs(a0 - q[0]) <= delta
        if column:
            bot_ok, bot_lo, j = True, (a0 if p_up else -a0), 0
            if record:
                h_lo[i, 0] = bot_lo
        elif left_j:
            bot_ok, j = False, left_j[0]
        else:
            return False
        right_j, right_lo = [], []
        k, n_left = 0, len(left_j)
        while True:
            left_ok = k < n_left and left_j[k] == j
            if left_ok:
                l_lo = left_lo[k]
                k += 1
            elif not bot_ok:
                if k == n_left:
                    break
                j = left_j[k]
                continue
            # Right boundary: p at vertex i + 1 against q's segment j.
            lo = q_min[j] if q_min[j] > y_lo else y_lo
            hi = q_max[j] if q_max[j] < y_hi else y_hi
            klo, khi = (lo, hi) if q_up[j] else (-hi, -lo)
            if not bot_ok:
                klo = l_lo if l_lo > klo else klo
            if klo <= khi:
                right_j.append(j)
                right_lo.append(klo)
                if record:
                    v_lo[i + 1, j] = klo
            # Top boundary: q at vertex j + 1 against p's segment i.
            lo = a_min if a_min > x_lo[j] else x_lo[j]
            hi = a_max if a_max < x_hi[j] else x_hi[j]
            klo, khi = (lo, hi) if p_up else (-hi, -lo)
            if not left_ok:
                klo = bot_lo if bot_lo > klo else klo
            bot_ok, bot_lo = klo <= khi, klo
            j += 1
            if bot_ok and record:
                h_lo[i, j] = klo
            if j == M:
                break
        left_j, left_lo = right_j, right_lo
    # The corner is reached by the last row's right or top boundary.
    return bool(left_j and left_j[-1] == M - 1) or bot_ok


def _check_delta(delta) -> float:
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and non-negative, got {delta!r}")
    return delta


def decide_frechet(P: Curve1D, Q: Curve1D, delta: float, cap: float | None = None) -> bool:
    """Whether the Frechet distance of the two curves is at most ``delta``."""
    delta = _check_delta(delta)
    p, q, _ = capped_arrays(P, Q, cap)
    return _sweep(p.tolist(), q.tolist(), delta)


def frechet_candidates(P: Curve1D, Q: Curve1D, cap: float | None = None) -> np.ndarray:
    """Sorted distinct critical values: cross differences and in-curve half differences."""
    p, q, _ = capped_arrays(P, Q, cap)
    return _candidates(p, q)


def _candidates(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Repeated heights only repeat differences: build from distinct ones.
    p, q = np.unique(p), np.unique(q)
    cross = np.abs(p[:, None] - q[None, :]).ravel()
    half_p = (np.abs(p[:, None] - p[None, :]) * 0.5).ravel()
    half_q = (np.abs(q[:, None] - q[None, :]) * 0.5).ravel()
    return np.unique(np.concatenate([cross, half_p, half_q]))


def _greedy_coupling_cost(p, q) -> float:
    """Cost of a greedy coupling of the vertices: an upper bound on the distance.

    From ``(0, 0)`` the coupling steps to ``(i + 1, j + 1)`` unless that raises
    the running maximum, and otherwise to the cheapest of the three next
    pairs.  Its cost, the largest ``|p_i - q_j|`` it couples, is a cross
    candidate and a discrete Frechet cost, which is never below the
    continuous distance.
    """
    N = len(p) - 1
    M = len(q) - 1
    i = j = 0
    worst = abs(p[0] - q[0])
    while i < N or j < M:
        if i == N:
            j += 1
        elif j == M:
            i += 1
        else:
            diag = abs(p[i + 1] - q[j + 1])
            up = abs(p[i + 1] - q[j])
            right = abs(p[i] - q[j + 1])
            if diag <= worst or diag <= min(up, right):
                i += 1
                j += 1
            elif up <= right:
                i += 1
            else:
                j += 1
        worst = max(worst, abs(p[i] - q[j]))
    return worst


def _search(p: list[float], q: list[float], cands: np.ndarray, decide) -> float:
    """The smallest candidate that ``decide`` accepts, by binary search.

    The search is capped by the greedy coupling's cost ``U``: once ``U`` is
    feasible, every candidate from ``U`` up is known feasible and is not
    decided again.  Should the decision refuse ``U`` (possible only where
    the predicates round), the largest candidate is the cap instead.  The
    final ``hi`` is always one that ``decide`` accepted, and every accepted
    value after it is lower, so the last accepted decision is the one at
    the returned value.
    """

    def at(k: int) -> bool:
        return decide(float(cands[k]))

    if at(0):
        return float(cands[0])
    lo, hi = 0, len(cands) - 1
    known = int(np.searchsorted(cands, _greedy_coupling_cost(p, q)))
    if known == 0 or not at(known):
        if known == hi or not at(hi):
            raise AssertionError("largest candidate must be feasible")
        known = hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= known or at(mid):
            hi = mid
        else:
            lo = mid
    return float(cands[hi])


def compute_frechet_value(P: Curve1D, Q: Curve1D, cap: float | None = None) -> float:
    """Exact Frechet distance: binary search of the decision over the candidates."""
    p, q, _ = capped_arrays(P, Q, cap)
    cands = _candidates(p, q)
    p, q = p.tolist(), q.tolist()
    return _search(p, q, cands, lambda delta: _sweep(p, q, delta))


class MatchStep(NamedTuple):
    """One breakpoint of a matching path.

    ``s``/``t`` are in cell units (segment index plus fraction); ``hp``/``hq``
    are the exact curve heights there.  Sample indices are set when the step
    sits on a curve vertex, edge indices when strictly inside a segment.  A
    named tuple rather than a frozen dataclass: a matching has one step per
    cell on its path, and a tuple builds several times faster.
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


def _q_point(q: list[float], j: int, kappa: float) -> tuple[float, float]:
    y = kappa if q[j + 1] > q[j] else -kappa
    return j + (y - q[j]) / (q[j + 1] - q[j]), y


def _p_point(p: list[float], i: int, kappa: float) -> tuple[float, float]:
    x = kappa if p[i + 1] > p[i] else -kappa
    return i + (x - p[i]) / (p[i + 1] - p[i]), x


def extract_matching(P: Curve1D, Q: Curve1D, delta: float, cap: float | None = None) -> Matching:
    """A delta-matching witnessing ``decide_frechet(P, Q, delta)``.

    Backtracks the reached boundaries of one sweep from the top-right corner.
    Each cell is entered exactly the way its exit boundary was justified during
    propagation (bottom entry preferred for a right-boundary exit, left entry
    preferred for a top-boundary exit), which keeps the path monotone.
    """
    delta = _check_delta(delta)
    p, q, H = capped_arrays(P, Q, cap)
    p, q = p.tolist(), q.tolist()
    reached: tuple[dict, dict] = ({}, {})
    if not _sweep(p, q, delta, reached):
        raise ValueError(f"delta={delta} is not feasible for this curve pair")
    return _backtrack(p, q, H, delta, reached)


def _backtrack(p: list[float], q: list[float], H: float, delta: float, reached) -> Matching:
    """The matching read off the reached boundaries of a feasible sweep."""
    v_lo, h_lo = reached
    N = len(p) - 1
    M = len(q) - 1
    steps: list[MatchStep] = [MatchStep(float(N), float(M), p[N], q[M], p_index=N, q_index=M)]
    i, j = N - 1, M - 1
    exit_kind = "v" if (N, M - 1) in v_lo else "h"
    while True:
        if exit_kind == "v":
            use_bottom = (i, j) in h_lo
        else:
            use_bottom = (i, j) not in v_lo
        if use_bottom:
            if (i, j) not in h_lo:
                raise AssertionError("backtrack entered an unreachable bottom boundary")
            s_val, hp = _p_point(p, i, h_lo[i, j])
            steps.append(MatchStep(s_val, float(j), hp, q[j], p_edge=i, q_index=j))
            if j == 0:
                for ii in range(i, 0, -1):
                    steps.append(MatchStep(float(ii), 0.0, p[ii], q[0], p_index=ii, q_index=0))
                break
            j -= 1
            exit_kind = "h"
        else:
            if (i, j) not in v_lo:
                raise AssertionError("backtrack entered an unreachable left boundary")
            t_val, hq = _q_point(q, j, v_lo[i, j])
            steps.append(MatchStep(float(i), t_val, p[i], hq, p_index=i, q_edge=j))
            if i == 0:
                for jj in range(j, 0, -1):
                    steps.append(MatchStep(0.0, float(jj), p[0], q[jj], p_index=0, q_index=jj))
                break
            i -= 1
            exit_kind = "v"
    steps.append(MatchStep(0.0, 0.0, p[0], q[0], p_index=0, q_index=0))
    steps.reverse()

    deduped: list[MatchStep] = []
    for st in steps:
        if deduped and st.s == deduped[-1].s and st.t == deduped[-1].t:
            continue
        deduped.append(st)
    matching = Matching(tuple(deduped), delta, (N, M), H)
    assert matching.verify_monotone()
    return matching


def compute_frechet(P: Curve1D, Q: Curve1D, cap: float | None = None) -> tuple[float, Matching]:
    """Exact distance together with a witness matching attaining it.

    Every decision of the search records its reached boundaries, and the
    matching is backtracked from those of the last accepted one, which is
    the decision at the returned value; so no sweep runs twice.
    """
    p, q, H = capped_arrays(P, Q, cap)
    cands = _candidates(p, q)
    p, q = p.tolist(), q.tolist()
    reached = None

    def decide(delta: float) -> bool:
        nonlocal reached
        tables = ({}, {})
        if not _sweep(p, q, delta, tables):
            return False
        reached = tables
        return True

    value = _search(p, q, cands, decide)
    return value, _backtrack(p, q, H, value, reached)
