import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtdist import interleaving, labelling, treeio
from omtdist.cli import main
from omtdist.interleaving import (
    CertificateError,
    CheckFailure,
    ShiftMap,
    check_good_map,
    check_interleaving,
    check_monotone,
    maps_from_pairs,
    monotone_interleaving_distance,
    witness_points,
)
from omtdist.labelling import (
    Labelling,
    check_label_distance,
    check_monotone_labelling,
    good_to_labelling,
    induced_matrix,
    label_distance,
    labelling_to_interleaving,
    matching_to_labelling,
)
from omtdist.randomtrees import caterpillar, random_omt, random_pair, shifted
from omtdist.trees import HEIGHT_TOL, INF, MergeTree, TreePoint, max_lca_gap

from conftest import random_point, scaled


def test_induced_matrix_examples(tree_a, tree_b):
    m = induced_matrix(tree_a.tree, (TreePoint("u1", 0.0), TreePoint("u2", 1.0)))
    assert m.tolist() == [[0.0, 3.0], [3.0, 1.0]]
    mp = induced_matrix(tree_b.tree, (TreePoint("w1", 1.0), TreePoint("w2", 0.0)))
    assert mp.tolist() == [[1.0, 3.0], [3.0, 0.0]]
    single = induced_matrix(tree_a.tree, (TreePoint("v", 3.0),))
    assert single.tolist() == [[3.0]]
    assert label_distance(m, mp) == 1.0


def _lca_matrix_reference(tree, points):
    """The pair loop: one lca climb per pair."""
    n = len(points)
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        out[i, i] = points[i].height
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = tree.lca(points[i], points[j]).height
    return out


def test_induced_matrix_matches_lca_loop(point_set_pairs):
    for src, xs, dst, ys in point_set_pairs:
        for omt, points in ((src, xs), (dst, ys)):
            m = induced_matrix(omt.tree, points)
            assert m.dtype == np.float64 and m.shape == (len(points), len(points))
            assert m.tobytes() == _lca_matrix_reference(omt.tree, points).tobytes()


def test_label_distance_basics():
    m = np.array([[0.0, 3.0], [3.0, 1.0]])
    assert label_distance(m, m) == 0.0
    assert label_distance(m, m + 2.5) == 2.5
    with pytest.raises(ValueError):
        label_distance(m, np.zeros((3, 3)))


def test_check_label_distance_names_the_first_pair_in_row_major_order(point_set_pairs):
    # The pair loop, over every delta between two entry gaps: the check fails
    # exactly when some pair differs by more than delta, names the first such
    # pair, and a label pair at the root in both trees (inf - inf) agrees.
    seen = Counter()
    for src, xs, dst, ys in point_set_pairs:
        lab = Labelling(src, dst, tuple(xs), tuple(ys))
        m, mp = lab.matrices()
        n = len(xs)
        with np.errstate(invalid="ignore"):
            gaps = sorted({float(g) for g in abs(m - mp).ravel() if g == g})
        for delta in [0.0] + [g * 0.5 for g in gaps if g != float("inf")] + gaps:
            pairs = ((i, j) for i in range(n) for j in range(n))
            first = next(
                (ij for ij in pairs if abs(float(m[ij]) - float(mp[ij])) > delta + HEIGHT_TOL), None
            )
            bad = check_label_distance(lab, delta)
            if first is None:
                assert bad is None
                continue
            seen[first[0] == first[1]] += 1
            assert (bad.condition, bad.witness) == ("label-distance", first)
            assert bad.detail == (
                f"lca heights of labels {first[0]} and {first[1]} are {float(m[first])!r} and"
                f" {float(mp[first])!r}, more than delta {delta!r} apart"
            )
    assert seen[True] > 0 and seen[False] > 0


def _signed_gaps(m, m_prime):
    """Entrywise ``m - m_prime``, where two labels at the root of both trees count as 0."""
    with np.errstate(invalid="ignore"):
        return np.where(m == m_prime, 0.0, m - m_prime)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9), st.booleans(), st.booleans(), st.booleans())
def test_max_lca_gap_matches_the_matrix_reference(seed, n_a, n_b, monotone, off_grid, at_roots):
    # Either random points (vertices, edge points, roots, repeats) or the
    # emitted monotone labelling of a pair on a grid of quarter steps, whose
    # labels tie in height everywhere; one-leaf trees included, in both roles.
    rand = random.Random(seed)
    if monotone:
        a = random_omt(rand, min_leaves=n_a, max_leaves=n_a, grid=4)
        b = random_omt(rand, min_leaves=n_b, max_leaves=n_b, grid=4)
        _, matched = witness_points(a, b)
        lab = matching_to_labelling(a, b, matched)
        xs, ys = list(lab.pi), list(lab.pi_prime)
    else:
        a = random_omt(rand, min_leaves=n_a, max_leaves=n_a, multi_child_prob=0.4)
        b = random_omt(rand, min_leaves=n_b, max_leaves=n_b, multi_child_prob=0.4)
        if off_grid:
            s = rand.uniform(0.5, 2.0)
            a, b = scaled(a, s), scaled(b, s)
        count = rand.randint(0, 14)
        xs = [random_point(rand, a.tree) for _ in range(count)]
        ys = [random_point(rand, b.tree) for _ in range(count)]
    if at_roots:
        k = rand.randint(0, len(xs))
        xs.insert(k, a.tree.point(a.tree.root))
        ys.insert(k, b.tree.point(b.tree.root))
    m, mp = induced_matrix(a.tree, xs), induced_matrix(b.tree, ys)
    # Every row maximum, bit for bit, at any bound the largest gap exceeds,
    # and at a bound that it does not exceed, one entry per row, each at most
    # its row maximum.
    for s, p, t, q, gaps in ((a, xs, b, ys, _signed_gaps(m, mp)), (b, ys, a, xs, _signed_gaps(mp, m))):
        rows = [float(g) for g in gaps.max(axis=1, initial=-np.inf)]
        top = max(rows, default=-INF)
        assert max_lca_gap(s.tree, p, t.tree, q, math.nextafter(top, -INF)) == rows
        within = max_lca_gap(s.tree, p, t.tree, q, top)
        assert len(within) == len(rows) and all(w <= r for w, r in zip(within, rows))
    lab = Labelling(a, b, tuple(xs), tuple(ys))
    assert lab.distance() == label_distance(m, mp)


def test_identity_labelling(tree_a):
    _, (alpha, _) = monotone_interleaving_distance(tree_a, tree_a)
    lab = good_to_labelling(alpha)
    assert lab.size == 4
    assert lab.distance() == 0.0
    assert check_monotone_labelling(lab) is None


def test_example_pair_labelling(tree_a, tree_b):
    delta, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    lab = good_to_labelling(alpha)
    assert lab.size == len(tree_a.tree.leaves) + len(tree_b.tree.leaves)
    assert lab.distance() <= delta
    assert check_monotone_labelling(lab) is None


def test_crossed_labelling_witnessed(tree_a, tree_b):
    lab = Labelling(
        tree_a,
        tree_b,
        (TreePoint("u1", 0.0), TreePoint("u2", 1.0)),
        (TreePoint("w2", 0.0), TreePoint("w1", 1.0)),
    )
    bad = check_monotone_labelling(lab)
    assert bad is not None and bad.condition == "monotone-labelling"


def test_single_label_vacuous():
    # One label on single-leaf trees: monotone holds vacuously.
    import omtdist.trees as T
    from omtdist.ordering import OrderedMergeTree

    t = T.MergeTree({"root": None, "u": "root"}, {"root": T.INF, "u": 0.0})
    omt = OrderedMergeTree(t, t.leaves)
    lab = Labelling(omt, omt, (t.point("u"),), (t.point("u"),))
    assert check_monotone_labelling(lab) is None


def test_labelling_to_interleaving_identity(tree_a):
    pts = tuple(tree_a.tree.point(u) for u in tree_a.tree.leaves)
    lab = Labelling(tree_a, tree_a, pts, pts)
    alpha, beta = labelling_to_interleaving(lab, 0.0)
    assert check_interleaving(alpha, beta) is None


def test_labelling_to_interleaving_example(tree_a, tree_b):
    delta, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    lab = good_to_labelling(alpha)
    a2, b2 = labelling_to_interleaving(lab, delta)
    assert check_interleaving(a2, b2) is None
    assert check_monotone(a2) is None and check_monotone(b2) is None


def test_labelling_to_interleaving_rejects_large_distance(tree_a, tree_b):
    delta, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    lab = good_to_labelling(alpha)
    with pytest.raises(CertificateError):
        labelling_to_interleaving(lab, delta / 4)


def test_labelling_to_interleaving_sees_past_labels_at_both_roots(tree_a, tree_b):
    # Their lca heights are inf in both trees, and inf - inf is NaN; the
    # other label pairs must still be checked against delta.
    delta, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    lab = good_to_labelling(alpha)
    roots = (tree_a.tree.point(tree_a.tree.root), tree_b.tree.point(tree_b.tree.root))
    lab = Labelling(lab.source, lab.target, lab.pi + roots[:1], lab.pi_prime + roots[1:])
    labelling_to_interleaving(lab, delta)
    with pytest.raises(CertificateError, match="^label-distance: "):
        labelling_to_interleaving(lab, delta / 4)


def test_labelling_to_interleaving_refuses_a_label_off_the_tree(tree_a, tree_b):
    # The label maps are checked before anything reads the leaf spans of
    # their anchors, so an unknown anchor is a label-map failure, not a
    # KeyError.
    delta, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    lab = good_to_labelling(alpha)
    lab = Labelling(lab.source, lab.target, (TreePoint("nope", 0.0),) + lab.pi[1:], lab.pi_prime)
    with pytest.raises(CertificateError, match="^label-map: pi maps a label outside the tree$"):
        labelling_to_interleaving(lab, delta)


def _label_map_reference(lab):
    """``Labelling.validate`` through ``contains_point`` and ``is_leaf`` per label."""
    for omt, points, name in ((lab.source, lab.pi, "pi"), (lab.target, lab.pi_prime, "pi_prime")):
        tree = omt.tree
        for x in points:
            if not tree.contains_point(x):
                return CheckFailure("label-map", f"{name} maps a label outside the tree", (x,))
        hit = {x.anchor for x in points if x.height == tree.height(x.anchor) and tree.is_leaf(x.anchor)}
        missing = [u for u in tree.leaves if u not in hit]
        if missing:
            return CheckFailure("label-map", f"{name} misses leaves {missing}", (missing[0],))
    return None


def test_label_map_check_matches_the_per_label_reference(point_set_pairs):
    # Labels at vertices, inside edges, at the root, a leaf height above or
    # below its edge, and unknown anchors; with and without every leaf labelled.
    rand = random.Random(7)
    seen = Counter()
    for src, xs, dst, ys in point_set_pairs[:200]:
        for _ in range(3):
            px = list(xs) + [src.tree.point(u) for u in src.tree.leaves if rand.random() < 0.8]
            py = list(ys) + [dst.tree.point(w) for w in dst.tree.leaves if rand.random() < 0.8]
            n = min(len(px), len(py))
            px, py = px[:n], py[:n]
            if n and rand.random() < 0.3:
                k = rand.randrange(n)
                x = px[k]
                px[k] = rand.choice([TreePoint(x.anchor, x.height + 1e9), TreePoint(x.anchor, x.height - 1.0),
                                     TreePoint("nowhere", x.height)])
            lab = Labelling(src, dst, tuple(px), tuple(py))
            want = _label_map_reference(lab)
            assert repr(lab.validate()) == repr(want)
            seen[want.detail.split()[1] if want else "ok"] += 1
    assert seen["ok"] and seen["maps"] and seen["misses"], seen


def test_check_label_distance_refuses_a_label_off_its_tree(tree_a, tree_b):
    # A label anchored at no vertex, or above its edge, fails the label-map
    # check as validate words it, not with a KeyError.
    u1, w1 = tree_a.tree.point("u1"), tree_b.tree.point("w1")
    for stray in (TreePoint("zz", 0.0), TreePoint("u1", 1e9)):
        for pi, pi_prime, name in (((stray,), (w1,), "pi"), ((u1,), (stray,), "pi_prime")):
            lab = Labelling(tree_a, tree_b, pi, pi_prime)
            bad = check_label_distance(lab, 1.0)
            assert (bad.condition, bad.detail, bad.witness) == (
                "label-map", f"{name} maps a label outside the tree", (stray,)
            )


def test_missing_leaves_are_listed_in_leaf_order_with_the_first_as_witness():
    a = caterpillar(6)
    b = shifted(a, 0.25)
    delta, (alpha, _) = monotone_interleaving_distance(a, b)
    lab = good_to_labelling(alpha)
    keep = [k for k, x in enumerate(lab.pi) if x.anchor == a.tree.leaves[2]][:1]
    short = Labelling(a, b, tuple(lab.pi[k] for k in keep), tuple(lab.pi_prime[k] for k in keep))
    missing = [u for u in a.tree.leaves if u != a.tree.leaves[2]]
    bad = short.validate()
    assert (bad.condition, bad.witness) == ("label-map", (missing[0],))
    assert bad.detail == f"pi misses leaves {missing}"
    with pytest.raises(CertificateError, match=r"^label-map: pi misses leaves \["):
        labelling_to_interleaving(short, delta)


def test_label_distance_counts_labels_at_both_roots_as_agreeing(tree_a, tree_b):
    # Their lca heights are inf in both trees: inf - inf must count as a gap
    # of 0, not as a NaN that every comparison passes.
    delta, (alpha, _) = monotone_interleaving_distance(tree_a, tree_b)
    lab = good_to_labelling(alpha)
    roots = (tree_a.tree.point(tree_a.tree.root), tree_b.tree.point(tree_b.tree.root))
    lab = Labelling(lab.source, lab.target, lab.pi + roots[:1], lab.pi_prime + roots[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lab.distance() == delta == 1.0
        assert check_label_distance(lab, delta) is None
        assert check_label_distance(lab, delta / 2).witness == (0, 0)


def test_good_to_labelling_requires_monotone(tree_a, tree_b):
    from omtdist.interleaving import ShiftMap

    crossed = ShiftMap(
        tree_a,
        tree_b,
        1.0,
        {"u1": TreePoint("w2", 1.0), "u2": TreePoint("w1", 2.0)},
    )
    with pytest.raises(CertificateError):
        good_to_labelling(crossed)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_pipeline_fixed_point(seed):
    rand = random.Random(seed)
    a, b = random_pair(rand, min_leaves=1, max_leaves=8)
    delta, (alpha, beta) = monotone_interleaving_distance(a, b)
    lab = good_to_labelling(alpha)
    assert check_monotone_labelling(lab) is None
    assert lab.distance() <= delta + 1e-12
    a2, b2 = labelling_to_interleaving(lab, delta)
    assert check_interleaving(a2, b2) is None
    assert check_monotone(a2) is None and check_monotone(b2) is None
    # Relabelling the rebuilt pair keeps everything monotone at the same delta.
    lab2 = good_to_labelling(a2)
    assert lab2.distance() <= delta + 1e-12


def test_certificate_checks_make_linear_tree_calls(monkeypatch):
    # Every check below once made O(n^2) lca climbs or ancestor_at walks
    # over leaf or label pairs; now each makes O(n) of them.
    a = caterpillar(64)
    b = shifted(a, 17 / 64)
    _, (alpha, _) = monotone_interleaving_distance(a, b)
    lab = good_to_labelling(alpha)
    counts = Counter()
    for name in ("lca", "ancestor_at"):
        method = getattr(MergeTree, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(MergeTree, name, counted)
    checks = {
        "monotone": lambda: check_monotone(alpha),
        "goodmap TW": lambda: check_good_map(alpha, "TW"),
        "goodmap G": lambda: check_good_map(alpha, "G"),
        "monotone labelling": lambda: check_monotone_labelling(lab),
        "matrices": lambda: None if lab.distance() <= alpha.delta + 1e-9 else "label distance",
    }
    n = len(a.tree.leaves)
    for name, check in checks.items():
        counts.clear()
        assert check() is None, name
        assert sum(counts.values()) <= 3 * n, (name, counts)


def test_a_refusal_scans_only_the_rows_above_the_bound(monkeypatch):
    # Each certificate's one failing pair is the last that a row-major scan
    # reaches: the diagonal of the last label, raised 1/2 up its edge, and the
    # last two leaves of a caterpillar, which the map sends to one leaf of a
    # caterpillar a leaf shorter.  The row maxima lead the scan to it in O(n)
    # lca_height calls, where the scan of every pair makes about n^2.
    n = 300
    a = caterpillar(n)
    leaves = a.tree.leaves
    pi = tuple(a.tree.point(u) for u in leaves)
    raised = TreePoint(leaves[-1], pi[-1].height + 0.5)
    lab = Labelling(a, a, pi, pi[:-1] + (raised,))
    b = shifted(caterpillar(n - 1), 0.25)
    targets = b.tree.leaves + b.tree.leaves[-1:]
    alpha = ShiftMap(a, b, 0.25, {u: TreePoint(w, x.height + 0.25) for u, w, x in zip(leaves, targets, pi)})
    calls = Counter()
    lca_height = MergeTree.lca_height

    def counted(self, x, y):
        calls["lca_height"] += 1
        return lca_height(self, x, y)

    monkeypatch.setattr(MergeTree, "lca_height", counted)
    bad = check_label_distance(lab, 0.25)
    assert bad.condition == "label-distance" and bad.witness == (n - 1, n - 1)
    assert calls["lca_height"] <= n
    calls.clear()
    for variant, condition in (("TW", "T2"), ("G", "G2")):
        bad = check_good_map(alpha, variant)
        assert bad.condition == condition
    assert bad.witness == (alpha.leaf_images[leaves[-1]], a.tree.point(a.tree.parent(leaves[-1])))
    assert calls["lca_height"] <= 2 * n


def test_a_passing_check_stops_after_the_post_order_walk(monkeypatch):
    # At a bound that no gap exceeds, max_lca_gap returns what its post-order
    # walk found: each entry at most its row maximum, and some below it, so
    # the pre-order pass did not run.  Both checks hand it their bound.
    a, b = random_pair(random.Random(0), min_leaves=12, max_leaves=12)
    delta, (alpha, _) = monotone_interleaving_distance(a, b)
    lab = good_to_labelling(alpha)
    bound = delta + HEIGHT_TOL
    calls = []

    def recorded(*args):
        calls.append(args)
        return max_lca_gap(*args)

    monkeypatch.setattr(interleaving, "max_lca_gap", recorded)
    monkeypatch.setattr(labelling, "max_lca_gap", recorded)
    assert check_good_map(alpha, "TW") is None and check_label_distance(lab, delta) is None
    assert [args[-1] for args in calls] == [bound] * 3
    short = []
    for *args, _ in calls:
        rows, walked = max_lca_gap(*args, -INF), max_lca_gap(*args, bound)
        assert max(rows) <= bound and all(w <= r for w, r in zip(walked, rows))
        short.append(walked != rows)
    assert short[0] and any(short[1:])


class _CountingParents(dict):
    """A parent table that counts its link reads."""

    reads = 0

    def __getitem__(self, key):
        _CountingParents.reads += 1
        return dict.__getitem__(self, key)


def test_certificate_passes_read_linear_parent_links():
    # C2/C4 and maps_from_pairs climb the parent links through
    # MergeTree.anchor_at, which the method counters above do not count:
    # three climbs per leaf and direction, and one per paired leaf and per
    # child of a merge, each reading one link more than the vertices it
    # climbs.  Climbs from the leaves at every level would read O(n^2) links.
    a = caterpillar(64)
    b = shifted(a, 17 / 64)
    _, (alpha, beta) = monotone_interleaving_distance(a, b)
    delta, (xs, ys) = witness_points(a, b)
    for tree in (a.tree, b.tree):
        tree._parent = _CountingParents(tree._parent)
    assert alpha.validate() is None and beta.validate() is None
    n = len(a.tree.leaves)
    _CountingParents.reads = 0
    assert check_interleaving(alpha, beta) is None
    assert 0 < _CountingParents.reads <= 8 * n
    _CountingParents.reads = 0
    maps_from_pairs(a, b, xs, ys, delta)
    assert 0 < _CountingParents.reads <= 12 * n


def test_certificate_emit_makes_linear_tree_calls(monkeypatch, tmp_path):
    # The emit reads its labelling off the witness matching in O(n) tree
    # queries; a preimage scan per target leaf would make n^2 is_ancestor calls.
    a = caterpillar(64)
    pa, pb, cert = tmp_path / "a.tree", tmp_path / "b.tree", tmp_path / "cert.json"
    pa.write_text(treeio.serialise_tree(a))
    pb.write_text(treeio.serialise_tree(shifted(a, 17 / 64)))
    counts = Counter()
    for name in ("lca", "ancestor_at", "is_ancestor"):
        method = getattr(MergeTree, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(MergeTree, name, counted)
    # The loader's trees count the parent links that the anchor_at climbs read.
    walk = MergeTree._walk

    loaded = []

    def counting_walk(self, *args):
        made = walk(self, *args)
        if made:
            self._parent = _CountingParents(self._parent)
            loaded.append(self)
        return made

    monkeypatch.setattr(MergeTree, "_walk", counting_walk)
    _CountingParents.reads = 0
    assert main(["distance", str(pa), str(pb), "--emit-certificate", str(cert)]) == 0
    monkeypatch.setattr(MergeTree, "_walk", walk)
    n = len(a.tree.leaves)
    assert counts["is_ancestor"] < n, counts
    assert sum(counts.values()) <= 10 * n, counts
    assert 0 < _CountingParents.reads <= 16 * n
    # The emit walks the trees off their leaf and neighbour-merge records, so
    # neither loaded tree builds its leaf spans.
    assert len(loaded) == 2 and not any("_span" in vars(tree) for tree in loaded)
