"""Exact Frechet distance between 1D piecewise-linear curves.

The decision procedure propagates reachable intervals through the free-space
diagram of the two curves (Alt-Godau; one cell per segment pair).  For 1D
segments the per-cell free region is a band between two parallel lines, hence
convex, so the classical interval propagation is exact.  One sweep does it
row by row and visits only the cells it can reach, so a decision far from the
optimum dies after a few cells; it carries one row of boundaries, and when
asked it keeps each row's reached boundaries as its own sorted ``(j, lo)``
lists, from which ``extract_matching`` backtracks the witness matching.  What
a cell needs of the second curve (each segment's direction, ends and next
height) does not depend on ``delta``: the search builds that column table
once per curve pair and hands it to every decision.

Boundary intervals are represented in *height space* along the edge they live
on, oriented by the edge direction, so the sweep only adds, subtracts and
compares.  It runs on integers: each finite height, and the ``delta`` of a
decision, is some ``n / 2**d`` (``float.as_integer_ratio``), and one common
scale ``2**k`` makes all of them even integers.  So every decision is exact,
on every finite float input, and the +inf sentinels become a finite integer
cap; every cap that high gives the same result.

The exact optimum is the smallest feasible value among the finite critical
candidates: all vertex-vertex height differences between the curves, plus all
half differences of vertex heights within each curve (the 1D form of the
monotonicity events; the optimum of two curves can be such a half difference,
so vertex-vertex differences alone are not enough).  On the scale each is an
integer.  They are searched implicitly, as in Har-Peled-Raichel ("The Frechet
distance revisited and extended", TALG 2014): over the sorted distinct
heights of each curve, the candidates ``y - x`` of one base height ``x`` grow
with ``y``, so each base height holds its in-bracket candidates as one run,
found by one bisection.  While the bracket holds many candidates, the search
decides the median of a random sample of it and only counts; once few are
left, it lists them and binary-searches them, so it needs O(N + M) memory.
The bracket is closed from both sides, as in the pruned searches of
Bringmann-Kunnemann-Nusser ("Walking the dog fast in practice", 2019): from
above by the cost of a greedy vertex coupling, and from below by a
bottleneck bound of the curves' 0-dimensional sublevel persistence
diagrams.  The diagrams do not depend on the parametrisation, so by
stability (Cohen-Steiner-Edelsbrunner-Harer, DCG 2007) their bottleneck
distance is at most the Frechet distance, as it is at most the interleaving
distance of the merge trees (Morozov-Beketayev-Weber, TopoInVis 2013).  The
essential bars give ``|min p - min q|``; on most small pairs the finite bars
raise the bound to the optimum itself, which one decision then confirms.
The optimum, rounded up to a float, is the least float ``delta`` that
``decide_frechet`` accepts.  Where it is the greedy coupling's cost, as on
every caterpillar shift, ``compute_frechet`` takes that coupling as its
witness, and otherwise backtracks one more sweep, at the exact optimum.

Nothing here imports numpy except ``frechet_candidates``, which returns an
array, so no CLI command loads it: not ``distance``, with or without
``--emit-certificate``, and not ``verify``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .curve1d import Curve1D, _cap, cap_height

if TYPE_CHECKING:
    import numpy as np


def _scaled(P: Curve1D, Q: Curve1D, delta: float = 0.0) -> tuple[list[int], list[int], int, int]:
    """Both curves' heights and ``delta`` as integers on one scale: ``(p, q, d, scale)``.

    ``scale`` is ``2**k``, ``k`` one more than the largest ``d`` of any finite
    height or ``delta`` written ``n / 2**d``, so each of them becomes the even
    integer ``n << (k - d)``.  The +inf sentinels become the cap ``max +
    range + 1`` of ``cap_height`` on that scale, so the cap is the same real
    height on every scale; what ``cap_height`` refuses is refused.
    """
    rp = [h.as_integer_ratio() for h in P.heights[1:-1]]
    rq = [h.as_integer_ratio() for h in Q.heights[1:-1]]
    dn, dd = delta.as_integer_ratio()
    # The scale 2**k is twice the largest denominator.  A denominator 2**e
    # has bit length e + 1, and its numerator shifts left by k - e.
    k = max(dd, max(map(itemgetter(1), rp)), max(map(itemgetter(1), rq))).bit_length()
    top = k + 1
    p = [n << (top - den.bit_length()) for n, den in rp]
    q = [n << (top - den.bit_length()) for n, den in rq]
    hi, lo = max(max(p), max(q)), min(min(p), min(q))
    scale = 1 << k
    # Scaling is exact, so these are the float extremes that cap_height reads.
    _cap(hi / scale, lo / scale)
    cap = 2 * hi - lo + scale
    return [cap, *p, cap], [cap, *q, cap], dn << (top - dd.bit_length()), scale


def _columns(q) -> list[tuple]:
    """The column table of ``q``: per segment ``j``, ``(up, low, high, next)``.

    ``up`` tells whether the segment ascends, ``low`` and ``high`` are its
    lower and upper end and ``next`` is ``q[j + 1]``.  None of them depends on
    ``delta``, so one table serves every decision on a curve pair.
    """
    return [(b > a, a if a < b else b, a if a > b else b, b) for a, b in zip(q, q[1:])]


def _sweep(p, q, delta, reached=None, cols=None):
    """Whether the top-right corner of the free-space diagram is reachable.

    ``p`` and ``q`` are lists of the ``N + 1`` and ``M + 1`` capped heights,
    and ``cols`` is ``_columns(q)``, built here when not given.  Cell ``(i,
    j)`` pairs segment ``i`` of ``p`` with segment ``j`` of ``q``.  Its left
    boundary ``v[i, j]`` lies at vertex ``i`` of ``p`` over segment ``j`` of
    ``q``, its bottom boundary ``h[i, j]`` at vertex ``j`` of ``q`` over
    segment ``i`` of ``p``.  A boundary is reachable from its lower end ``lo``
    up to its free upper end; ``lo`` is a height along the boundary's segment,
    negated on a descending one.

    The sweep goes one row (one segment of ``p``) at a time and visits only
    cells with a reachable left or bottom boundary.  It carries the row's
    reached right boundaries as sorted ``(j, lo)`` lists and the bottom
    boundary of the next cell as one scalar, so it needs O(M) memory, and it
    stops as soon as a row hands nothing on.  When ``reached`` is a pair of
    lists ``(v_rows, h_rows)``, the sweep appends to them, for every row it
    finishes, the ``(j, lo)`` lists of the reached boundaries: ``v_rows[i]``
    those of ``v[i, .]`` and ``h_rows[i]`` those of ``h[i, .]``.
    """
    N = len(p) - 1
    M = len(q) - 1
    if abs(p[0] - q[0]) > delta or abs(p[N] - q[M]) > delta:
        return False
    if cols is None:
        cols = _columns(q)
    record = reached is not None
    if record:
        v_rows, h_rows = reached
    left_j, left_lo = [], []
    for j in range(M):
        if abs(p[0] - q[j]) > delta:
            break
        left_j.append(j)
        left_lo.append(q[j] if cols[j][0] else -q[j])
    if record:
        v_rows.append((left_j, left_lo))

    column = True
    bot_ok = False
    for i in range(N):
        a0, a1 = p[i], p[i + 1]
        p_up = a1 > a0
        a_min = a0 if a0 < a1 else a1
        a_max = a0 if a0 > a1 else a1
        y_lo = a1 - delta
        y_hi = a1 + delta
        bot_j, bot_los = [], []
        # Bottom of cell (i, 0): reachable along vertex 0 of q while free.
        column = column and abs(a0 - q[0]) <= delta
        if column:
            bot_ok, bot_lo, j = True, (a0 if p_up else -a0), 0
            if record:
                bot_j.append(0)
                bot_los.append(bot_lo)
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
            up, c_lo, c_hi, qn = cols[j]
            # Right boundary: p at vertex i + 1 against q's segment j.
            if up:
                klo = c_lo if c_lo > y_lo else y_lo
                khi = c_hi if c_hi < y_hi else y_hi
            else:
                klo = -c_hi if c_hi < y_hi else -y_hi
                khi = -c_lo if c_lo > y_lo else -y_lo
            if not bot_ok and l_lo > klo:
                klo = l_lo
            if klo <= khi:
                right_j.append(j)
                right_lo.append(klo)
            # Top boundary: q at vertex j + 1 against p's segment i.
            x_lo = qn - delta
            x_hi = qn + delta
            if p_up:
                klo = a_min if a_min > x_lo else x_lo
                khi = a_max if a_max < x_hi else x_hi
            else:
                klo = -a_max if a_max < x_hi else -x_hi
                khi = -a_min if a_min > x_lo else -x_lo
            if not left_ok and bot_lo > klo:
                klo = bot_lo
            bot_ok, bot_lo = klo <= khi, klo
            j += 1
            if bot_ok and record:
                bot_j.append(j)
                bot_los.append(klo)
            if j == M:
                break
        if record:
            h_rows.append((bot_j, bot_los))
            v_rows.append((right_j, right_lo))
        left_j, left_lo = right_j, right_lo
    # The corner is reached by the last row's right or top boundary.
    return bool(left_j and left_j[-1] == M - 1) or bot_ok


def _check_delta(delta) -> float:
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and non-negative, got {delta!r}")
    return delta


def decide_frechet(P: Curve1D, Q: Curve1D, delta: float) -> bool:
    """Whether the Frechet distance of the two curves is at most ``delta``, exactly."""
    p, q, d, _ = _scaled(P, Q, _check_delta(delta))
    return _sweep(p, q, d)


# -- the critical values -------------------------------------------------------

# A bracket holding more candidates than this many per vertex is only counted
# and sampled; a smaller one is listed and binary-searched.  Listing is what
# makes small pairs fast: on 1,152 random pairs of up to 12 leaves a distance
# took 0.63-0.73 ms with 8, 32 or 128 and 0.82-1.02 ms with 0 (sampling to
# the end).  At random n = 400 and 1,000 every setting took 19-22 decisions
# and the same time within noise.
_LIST_PER_VERTEX = 8
# Size of the random sample whose median the search decides while counting;
# 31 and 127 took as many decisions (±1) and no less time.
_SAMPLE = 63


def _rows(p: list[int], q: list[int]) -> list[list]:
    """Every candidate pair once, as rows whose values grow along the row.

    A row ``[arr, base, div, s, e]`` holds the values ``(arr[k] - base) // div``
    for ``s <= k < e``, ``div`` being 1 or, on a half row, 2; the heights are
    even integers, so the division is exact.  ``arr`` is sorted and
    ``arr[s] >= base``, so the values are sorted too.  Per distinct height
    ``a`` of ``p`` there are two cross rows: the heights ``b >= a`` of ``q``
    give ``b - a``, and the heights ``b < a`` give ``a - b``, written as
    ``(-b) - (-a)`` over the negated heights of ``q`` in increasing order.
    Per distinct height of either curve there is one half row over the
    heights of its own curve at or above it.
    """
    xs, ys = sorted(set(p)), sorted(set(q))
    neg = [-b for b in reversed(ys)]
    rows = []
    for a in xs:
        rows.append([ys, a, 1, bisect_left(ys, a), len(ys)])
        rows.append([neg, -a, 1, bisect_right(neg, -a), len(neg)])
    for arr in (xs, ys):
        rows.extend([arr, a, 2, k, len(arr)] for k, a in enumerate(arr))
    return [row for row in rows if row[3] < row[4]]


def _least_accepted(rows: list[list], lo: int, hi: int, limit: int, decide) -> int | None:
    """The smallest candidate in ``[lo, hi)`` that ``decide`` accepts, or None.

    ``rows`` are narrowed in place: the values of a row at least ``t`` start
    at the first height at least ``base + t * div``.  Every candidate below an
    accepted one is searched and every candidate above a refused one is
    dropped.
    """
    for row in rows:
        arr, base, div, s, e = row
        row[3] = s = bisect_left(arr, base + lo * div, s, e)
        row[4] = bisect_left(arr, base + hi * div, s, e)
    rows = [row for row in rows if row[3] < row[4]]
    best = None
    rand = None
    while True:
        ends = list(accumulate(row[4] - row[3] for row in rows))
        if not ends or ends[-1] <= limit:
            break
        if rand is None:
            rand = random.Random(0)
        sample = []
        for rank in (rand.randrange(ends[-1]) for _ in range(_SAMPLE)):
            r = bisect_right(ends, rank)
            arr, base, div, s, e = rows[r]
            sample.append((arr[s + rank - (ends[r - 1] if r else 0)] - base) // div)
        sample.sort()
        pivot = sample[_SAMPLE // 2]
        if decide(pivot):
            best = pivot
            for row in rows:
                row[4] = bisect_left(row[0], row[1] + pivot * row[2], row[3], row[4])
        else:
            for row in rows:
                row[3] = bisect_left(row[0], row[1] + (pivot + 1) * row[2], row[3], row[4])
        rows = [row for row in rows if row[3] < row[4]]
    values = sorted({(x - base) // div for arr, base, div, s, e in rows for x in arr[s:e]})
    a, b = -1, len(values)
    while b - a > 1:
        mid = (a + b) // 2
        if decide(values[mid]):
            b = mid
        else:
            a = mid
    return values[b] if b < len(values) else best


def frechet_candidates(P: Curve1D, Q: Curve1D) -> np.ndarray:
    """Sorted distinct critical values: cross differences and in-curve half differences.

    The search never builds this set.  Each value is the float nearest one
    candidate of the heights capped at ``cap_height``; where all of them are
    floats (heights on a common fine dyadic grid), ``compute_frechet_value``
    returns one of them.
    """
    import numpy as np

    H = cap_height(P, Q)
    # Repeated heights only repeat differences: build from distinct ones.
    p, q = np.unique([H, *P.heights[1:-1]]), np.unique([H, *Q.heights[1:-1]])
    cross = np.abs(p[:, None] - q[None, :]).ravel()
    half_p = (np.abs(p[:, None] - p[None, :]) * 0.5).ravel()
    half_q = (np.abs(q[:, None] - q[None, :]) * 0.5).ravel()
    return np.unique(np.concatenate([cross, half_p, half_q]))


def _greedy_coupling_cost(p: list[int], q: list[int], pairs: list | None = None) -> int:
    """Cost of a greedy coupling of the vertices: an upper bound on the distance.

    From ``(0, 0)`` the coupling steps to ``(i + 1, j + 1)`` unless that raises
    the running maximum, and otherwise to the cheapest of the three next
    pairs; the side gaps are computed only when the diagonal would raise it.
    Its cost, the largest ``|p_i - q_j|`` it couples, is an integer cross
    candidate on the search's scale and a discrete Frechet cost, which is
    never below the continuous distance (Eiter-Mannila 1994): between coupled
    pairs both curves move linearly, so where the cost is the distance, the
    coupling is a witness.  A list ``pairs`` receives every coupled ``(i, j)``.
    """
    N = len(p) - 1
    M = len(q) - 1
    record = pairs is not None
    i = j = 0
    worst = abs(p[0] - q[0])
    # Comparisons, not min/max calls: the calls took half the walk on small pairs.
    while i < N and j < M:
        if record:
            pairs.append((i, j))
        gap = abs(p[i + 1] - q[j + 1])
        if gap > worst:
            up = abs(p[i + 1] - q[j])
            right = abs(p[i] - q[j + 1])
            if up < gap or right < gap:
                if up <= right:
                    i, gap = i + 1, up
                else:
                    j, gap = j + 1, right
                if gap > worst:
                    worst = gap
                continue
            worst = gap
        i += 1
        j += 1
    # One curve is at its end; the coupling walks the rest of the other.
    if record:
        pairs += [(N, k) for k in range(j, M + 1)] if i == N else [(k, M) for k in range(i, N + 1)]
    rest = [abs(p[N] - b) for b in q[j:]] if i == N else [abs(a - q[M]) for a in p[i:]]
    return max(worst, max(rest))


def _bars(c: list[int]) -> list[tuple[int, int]]:
    """The finite sublevel bars of the alternating heights ``c``, each as
    ``(death, birth)``.

    ``c`` is a canonical capped curve, so ``c[1::2]`` are its minima.  By the
    elder rule a bar is born at a minimum and dies at the lowest height where
    its component meets one with a lower minimum.  One stack pass finds them,
    as when building a Cartesian tree: the stack holds the minima not yet
    met by a lower one, increasing, each with the highest height from it to
    the next.
    """
    bars, stack = [], []
    for i in range(1, len(c), 2):
        b = c[i]
        while stack and stack[-1][0] >= b:
            born, gap = stack.pop()
            if stack:
                left = stack[-1][1]
                bars.append((min(left, gap), born))
                stack[-1][1] = max(left, gap)
            else:
                bars.append((gap, born))
        stack.append([b, c[i + 1]])
    bars.extend((gap, born) for (born, _), (_, gap) in zip(stack[1:], stack))
    return bars


def _persistence_bound(p: list[int], q: list[int], lb: int) -> int:
    """A lower bound on the distance, at least ``lb``: a bottleneck bound of
    the curves' 0-dimensional sublevel persistence diagrams.

    The distance is at least the bottleneck distance of the two diagrams
    (stability, Cohen-Steiner-Edelsbrunner-Harer 2007; the diagram does not
    depend on the parametrisation), and a bottleneck matching pairs each bar
    with the diagonal, at half its persistence, or with a bar of the other
    curve, at their L-inf distance.  So each bar bounds it by the smaller of
    the two; ``lb`` is the bound of the essential bars.  Heights are even
    integers, so each term is an exact candidate.  The bars go in decreasing
    persistence until half of it is within the bound, and a bar's partners
    are scanned outwards from its place in the other curve's bars, sorted by
    death, while one nearer than the nearest found can remain.
    """
    bp, bq = sorted(_bars(p)), sorted(_bars(q))
    for mine, other in ((bp, bq), (bq, bp)):
        n = len(other)
        for d, b in sorted(mine, key=lambda bar: bar[1] - bar[0]):
            near = (d - b) // 2
            if near <= lb:
                break
            k = bisect_left(other, (d, b))
            for j, step in ((k, 1), (k - 1, -1)):
                while 0 <= j < n and near > lb:
                    e, c = other[j]
                    if abs(e - d) >= near:
                        break
                    if abs(c - b) < near:
                        near = max(abs(e - d), abs(c - b))
                    j += step
            if near > lb:
                lb = near
    return lb


def _search(p: list[int], q: list[int], pairs: list | None = None) -> tuple[int, int]:
    """The smallest candidate that the sweep accepts, searched in ``[LB, U]``,
    with ``U``: ``(c, U)``; a list ``pairs`` receives the greedy coupling.

    The greedy coupling's cost ``U`` bounds the distance from above.  From
    below it is bounded by ``|min p - min q|``, which settles a pair whose
    bounds meet, such as a caterpillar and its shift, and otherwise by
    ``_persistence_bound``, which the search decides first: on most small
    pairs it is the distance.  Only the candidates above a refused ``LB``
    and below ``U`` are searched.  ``U`` itself is never decided: the
    decision is exact, so it accepts ``U``, which is the answer when nothing
    below it is accepted.  The column table of ``q`` is built once, and only
    when the bracket leaves something to decide.
    """
    lb = abs(min(p) - min(q))
    ub = _greedy_coupling_cost(p, q, pairs)
    if lb < ub:
        lb = _persistence_bound(p, q, lb)
    if lb >= ub:
        return ub, ub
    cols = _columns(q)

    def decide(delta: int) -> bool:
        return _sweep(p, q, delta, None, cols)

    if decide(lb):
        return lb, ub
    limit = _LIST_PER_VERTEX * (len(p) + len(q))
    value = _least_accepted(_rows(p, q), lb + 1, ub, limit, decide)
    return ub if value is None else value, ub


def compute_frechet_value(P: Curve1D, Q: Curve1D) -> float:
    """Exact Frechet distance, rounded up to the smallest float at or above it.

    The search finds the optimum ``c`` on the integer scale; ``c / scale``
    rounded up is the least float ``delta`` that ``decide_frechet`` accepts.
    """
    p, q, _, scale = _scaled(P, Q)
    return _rounded_up(_search(p, q)[0], scale)


def _rounded_up(c: int, scale: int) -> float:
    """The least float at or above ``c / scale``."""
    value = c / scale
    n, d = value.as_integer_ratio()
    return math.nextafter(value, math.inf) if n * scale < c * d else value


class MatchStep(NamedTuple):
    """One breakpoint of a matching path.

    ``s``/``t`` are in cell units (segment index plus fraction); ``hp``/``hq``
    are the curve heights there, correctly rounded (exact at a vertex of
    finite height).  Sample indices are set when the step sits on a curve
    vertex, edge indices when strictly inside a segment.  A named tuple, the
    cheapest record to build: a matching has one step per cell on its path.
    """

    s: float
    t: float
    hp: float
    hq: float
    p_index: int | None = None
    q_index: int | None = None
    p_edge: int | None = None
    q_edge: int | None = None


class Matching(NamedTuple):
    """A monotone free-space path, materialised as matched breakpoints.

    The path is non-decreasing in both coordinates; a segment that pauses one
    curve keeps that coordinate fixed rather than perturbing it, encoding the
    limit of strictly increasing bijections.
    """

    steps: tuple[MatchStep, ...]
    delta: float

    def cost(self) -> float:
        worst = 0.0
        for st in self.steps:
            worst = max(worst, abs(st.hp - st.hq))
        return worst

    def verify_monotone(self) -> bool:
        return all(
            b.s >= a.s and b.t >= a.t and (b.s > a.s or b.t > a.t)
            for a, b in zip(self.steps, self.steps[1:])
        )


def _segment_point(c: list[int], i: int, kappa: int, scale: int) -> tuple[float, float]:
    """Parameter and float height on segment ``i`` of integer heights ``c`` at
    the boundary end ``kappa`` (negated on a descending segment)."""
    y = kappa if c[i + 1] > c[i] else -kappa
    return i + (y - c[i]) / (c[i + 1] - c[i]), y / scale


def extract_matching(P: Curve1D, Q: Curve1D, delta: float) -> Matching:
    """A delta-matching witnessing ``decide_frechet(P, Q, delta)``.

    Backtracks the reached boundaries of one sweep from the top-right corner.
    Each cell is entered exactly the way its exit boundary was justified during
    propagation (bottom entry preferred for a right-boundary exit, left entry
    preferred for a top-boundary exit), which keeps the path monotone.  The
    sweep runs on the integer scale that holds ``delta`` exactly; each step's
    parameters and heights are converted back by correctly rounded division.
    """
    delta = _check_delta(delta)
    p, q, d, scale = _scaled(P, Q, delta)
    return _backtrack(p, q, scale, delta, _reached(p, q, d, delta))


def _reached(p, q, d: int, delta: float) -> tuple[list, list]:
    """The reached boundaries ``(v_rows, h_rows)`` of one recording sweep on
    the integer heights ``p`` and ``q`` at ``d``, the scaled ``delta``.
    ValueError if the corner is not reached."""
    v_rows, h_rows = [], []
    if not _sweep(p, q, d, (v_rows, h_rows)):
        raise ValueError(f"delta={delta} is not feasible for this curve pair")
    return v_rows, h_rows


def _backtrack(p, q, scale: int, delta: float, reached: tuple[list, list]) -> Matching:
    """The matching of :func:`extract_matching`, backtracked through the
    boundaries that :func:`_reached` recorded on the heights ``p`` and ``q``
    of ``scale``."""
    v_rows, h_rows = reached
    N = len(p) - 1
    M = len(q) - 1
    pf, qf = [h / scale for h in p], [h / scale for h in q]
    steps: list[MatchStep] = [MatchStep(float(N), float(M), pf[N], qf[M], N, M)]
    i, j = N - 1, M - 1
    last_j = v_rows[N][0]
    exit_kind = "v" if last_j and last_j[-1] == M - 1 else "h"
    while True:
        # The lower ends of boundaries h[i, j] and v[i, j], None where unreached.
        js, los = h_rows[i]
        k = bisect_left(js, j)
        bot_lo = los[k] if k < len(js) and js[k] == j else None
        js, los = v_rows[i]
        k = bisect_left(js, j)
        left_lo = los[k] if k < len(js) and js[k] == j else None
        use_bottom = bot_lo is not None if exit_kind == "v" else left_lo is None
        if use_bottom:
            if bot_lo is None:
                raise AssertionError("backtrack entered an unreachable bottom boundary")
            s_val, hp = _segment_point(p, i, bot_lo, scale)
            steps.append(MatchStep(s_val, float(j), hp, qf[j], None, j, i, None))
            if j == 0:
                for ii in range(i, 0, -1):
                    steps.append(MatchStep(float(ii), 0.0, pf[ii], qf[0], ii, 0))
                break
            j -= 1
            exit_kind = "h"
        else:
            if left_lo is None:
                raise AssertionError("backtrack entered an unreachable left boundary")
            t_val, hq = _segment_point(q, j, left_lo, scale)
            steps.append(MatchStep(float(i), t_val, pf[i], hq, i, None, None, j))
            if i == 0:
                for jj in range(j, 0, -1):
                    steps.append(MatchStep(0.0, float(jj), pf[0], qf[jj], 0, jj))
                break
            i -= 1
            exit_kind = "v"
    steps.append(MatchStep(0.0, 0.0, pf[0], qf[0], 0, 0))
    steps.reverse()

    # Two steps at one spot (a corner, where a bottom entry meets a left
    # entry) merge, keeping the vertex either one names on each curve.
    merged: list[MatchStep] = []
    for st in steps:
        if merged and st.s == merged[-1].s and st.t == merged[-1].t:
            prev = merged.pop()
            a = st if st.p_index is not None else prev
            b = st if st.q_index is not None else prev
            st = MatchStep(prev.s, prev.t, a.hp, b.hq, a.p_index, b.q_index, a.p_edge, b.q_edge)
        merged.append(st)
    matching = Matching(tuple(merged), delta)
    if not matching.verify_monotone():
        raise AssertionError("backtracked matching is not monotone")
    return matching


def compute_frechet(P: Curve1D, Q: Curve1D) -> tuple[float, Matching]:
    """Exact distance together with a witness matching attaining it.

    Where the distance is the greedy coupling's cost, the witness is the
    coupling that the search walked: one vertex step per pair, and no column
    table, sweep or backtrack.  Otherwise it is backtracked from one
    recording sweep at the search's exact optimum ``c``; where ``c / scale``
    is a float, that is the matching ``extract_matching`` makes at the value.
    """
    p, q, _, scale = _scaled(P, Q)
    pairs: list[tuple[int, int]] = []
    c, ub = _search(p, q, pairs)
    value = _rounded_up(c, scale)
    if c == ub:
        steps = (MatchStep(float(i), float(j), p[i] / scale, q[j] / scale, i, j) for i, j in pairs)
        return value, Matching(tuple(steps), value)
    return value, _backtrack(p, q, scale, value, _reached(p, q, c, value))
