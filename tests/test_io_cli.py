import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omtdist
from omtdist import frechet, interleaving, treeio
from omtdist.cli import build_parser, main
from omtdist.curves import induced_curve
from omtdist.frechet import compute_frechet_value, extract_matching
from omtdist.interleaving import ShiftMap
from omtdist.labelling import Labelling, matching_to_labelling
from omtdist.ordering import OrderedMergeTree
from omtdist.randomtrees import caterpillar, random_omt, shifted, tree_a, tree_b
from omtdist.trees import INF, InvalidTreeError, MergeTree, TreePoint


def test_serialise_parse_round_trip():
    omt = tree_a()
    text = treeio.serialise_tree(omt)
    back = treeio.parse_tree(text)
    assert back.leaf_order.sequence == omt.leaf_order.sequence
    assert treeio.serialise_tree(back) == text
    doc = treeio.tree_to_document(omt)
    assert treeio.tree_to_document(back) == doc


def test_round_trip_random_trees(rng):
    for _ in range(10):
        omt = random_omt(rng, min_leaves=1, max_leaves=10)
        text = treeio.serialise_tree(omt)
        back = treeio.parse_tree(text)
        assert treeio.serialise_tree(back) == text


def test_parse_tree_builds_the_tree_once(monkeypatch):
    texts = [treeio.serialise_tree(random_omt(random.Random(k), min_leaves=1, max_leaves=12)) for k in range(10)]

    def refuse(*args):
        raise AssertionError("loading rebuilt the tree")

    monkeypatch.setattr(MergeTree, "with_children_order", refuse)
    for text in texts:
        assert treeio.serialise_tree(treeio.parse_tree(text)) == text


def test_parse_rejects_inf_on_non_root():
    doc = treeio.tree_to_document(tree_a())
    for rec in doc["vertices"]:
        if rec["id"] == "u1":
            rec["height"] = "inf"
    with pytest.raises(treeio.ParseError, match="multiple-roots"):
        treeio.document_to_tree(doc)


def test_parse_truncated_reports_position():
    text = treeio.serialise_tree(tree_a())[:40]
    with pytest.raises(treeio.ParseError, match="line"):
        treeio.parse_tree(text)


def test_certificate_round_trip(tree_a, tree_b):
    from omtdist.interleaving import monotone_interleaving_distance
    from omtdist.labelling import good_to_labelling

    delta, (alpha, beta) = monotone_interleaving_distance(tree_a, tree_b)
    lab = good_to_labelling(alpha)
    text = treeio.serialise_certificate(alpha, beta, lab)
    a2, b2, lab2 = treeio.parse_certificate(text, tree_a, tree_b)
    assert a2.delta == delta and a2.leaf_images == alpha.leaf_images
    assert b2.leaf_images == beta.leaf_images
    assert lab2.pi == lab.pi and lab2.pi_prime == lab.pi_prime


_ids = st.text(st.characters(exclude_categories=("Cs",)), max_size=6) | st.sampled_from(['"', "\\", "é", "\u2603"])
_heights = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, INF, 1e300, 5e-324])
_points = st.builds(TreePoint, _ids, _heights)


@settings(max_examples=200, deadline=None)
@given(
    images=st.tuples(*[st.dictionaries(_ids, _points, max_size=4)] * 2),
    delta=st.floats(allow_nan=False, allow_infinity=False) | st.integers() | st.just(-0.0),
    labels=st.none() | st.lists(st.tuples(_points, _points), max_size=4),
)
def test_certificate_text_is_the_json_module_text(images, delta, labels):
    """The certificate writer spells every document as json.dumps does,
    including quoted and non-ASCII ids, -0.0, an int delta, no labelling
    and empty maps."""
    a, b = tree_a(), tree_b()
    alpha = ShiftMap(a, b, delta, images[0])
    beta = ShiftMap(b, a, delta, images[1])
    lab = None
    if labels is not None:
        lab = Labelling(a, b, tuple(x for x, _ in labels), tuple(y for _, y in labels))
    want = json.dumps(treeio.certificate_to_document(alpha, beta, lab), sort_keys=True, indent=2) + "\n"
    assert treeio.serialise_certificate(alpha, beta, lab) == want


@pytest.fixture
def tree_files(tmp_path):
    pa = tmp_path / "a.tree"
    pb = tmp_path / "b.tree"
    pa.write_text(treeio.serialise_tree(tree_a()))
    pb.write_text(treeio.serialise_tree(tree_b()))
    return pa, pb


def test_cli_validate(tree_files, capsys):
    pa, _ = tree_files
    assert main(["validate", str(pa)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def _malform(doc, how):
    if how == "unknown vertex":
        doc["children"]["nowhere"] = []
    elif how == "table not an object":
        doc["children"] = ["v"]
    elif how == "entry not a list":
        doc["children"]["v"] = 5
    else:  # a boolean height
        doc["vertices"][-1]["height"] = True


@pytest.mark.parametrize(
    "how", ["unknown vertex", "table not an object", "entry not a list", "boolean height"]
)
def test_cli_validate_malformed_tree_document(tmp_path, capsys, how):
    doc = treeio.tree_to_document(tree_a())
    _malform(doc, how)
    path = tmp_path / "bad.tree"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def _doc(*records, children=None):
    """A tree document; (id, parent, height) triples become vertex records, anything else stays raw."""
    doc = {
        "format": treeio.TREE_FORMAT,
        "vertices": [
            {"id": r[0], "parent": r[1], "height": r[2]} if isinstance(r, tuple) else r for r in records
        ],
    }
    if children is not None:
        doc["children"] = children
    return doc


ROOT, V, U1, U2 = ("root", None, "inf"), ("v", "root", 3.0), ("u1", "v", 0.0), ("u2", "v", 1.0)
_INVALID = "invalid merge tree: "

# Every way loading a tree document can fail, with its exact message; the
# last rows carry two faults each and expect the one checked first.
LOAD_REJECTIONS = [
    pytest.param({"format": "omt-tree-0", "vertices": [1]}, treeio.ParseError,
                 "expected a omt-tree-1 document", id="wrong-format"),
    pytest.param(_doc(), treeio.ParseError, "document has no vertex records", id="no-records"),
    pytest.param(_doc(ROOT, V, U1, U2, 5), treeio.ParseError,
                 "malformed vertex record 5", id="record-not-an-object"),
    pytest.param(_doc(ROOT, V, U1, U2, {"parent": "v", "height": 2.0}), treeio.ParseError,
                 "malformed vertex record {'parent': 'v', 'height': 2.0}", id="record-without-id"),
    pytest.param(_doc(ROOT, V, U1, U2, ("u1", "v", 2.0)), treeio.ParseError,
                 "duplicate vertex id 'u1'", id="duplicate-id"),
    pytest.param(_doc(ROOT, V, U1, ("7", "v", 1.0), (7, "v", 2.0)), treeio.ParseError,
                 "duplicate vertex id '7'", id="duplicate-id-as-number"),
    pytest.param(_doc(ROOT, V, U1, ("u2", "v", "x")), treeio.ParseError,
                 "invalid height 'x' at vertex 'u2'", id="height-string"),
    pytest.param(_doc(ROOT, V, U1, {"id": "u2", "parent": "v"}), treeio.ParseError,
                 "invalid height None at vertex 'u2'", id="height-missing"),
    pytest.param(_doc(ROOT, V, U1, ("u2", "v", True)), treeio.ParseError,
                 "invalid height True at vertex 'u2'", id="height-boolean"),
    pytest.param(_doc(ROOT, V, U1, ("u2", "v", [1.0])), treeio.ParseError,
                 "invalid height [1.0] at vertex 'u2'", id="height-list"),
    pytest.param(_doc(ROOT, V, U1, ("u2", "v", "nan")), treeio.ParseError,
                 "invalid height 'nan' at vertex 'u2'", id="height-nan-string"),
    pytest.param(_doc(ROOT, V, U1, ("u2", "v", float("nan"))), treeio.ParseError,
                 "invalid height nan at vertex 'u2'", id="height-nan"),
    pytest.param(_doc(ROOT, V, U1, ("u2", "v", float("inf"))), treeio.ParseError,
                 "invalid height inf at vertex 'u2'", id="height-infinity"),
    pytest.param(_doc(ROOT, V, U1, ("u2", "v", -float("inf"))), treeio.ParseError,
                 "invalid height -inf at vertex 'u2'", id="height-minus-infinity"),
    pytest.param(_doc(ROOT, V, U1, U2, children=["v"]), treeio.ParseError,
                 "children table is not an object", id="children-not-an-object"),
    pytest.param(_doc(ROOT, V, U1, U2, children={"v": "u1"}), treeio.ParseError,
                 "children of 'v' are not a list", id="children-not-a-list"),
    pytest.param(_doc(ROOT, V, U1, ("u2", "nowhere", 1.0)), InvalidTreeError,
                 "vertex 'u2' has unknown parent 'nowhere'", id="unknown-parent"),
    pytest.param(_doc(ROOT, V, U1, U2, children={"nowhere": []}), InvalidTreeError,
                 "children_order names unknown vertex 'nowhere'", id="children-unknown-vertex"),
    pytest.param(_doc(ROOT, V, U1, U2, children={"v": ["u1", "u1"]}), InvalidTreeError,
                 "children_order for 'v' is not a permutation", id="children-repeat"),
    pytest.param(_doc(ROOT, V, U1, U2, children={"v": ["u1"]}), InvalidTreeError,
                 "children_order for 'v' is not a permutation", id="children-missing-one"),
    pytest.param(_doc(ROOT, V, U1, U2, children={"v": ["u2", "u1", "root"]}), InvalidTreeError,
                 "children_order for 'v' is not a permutation", id="children-extra-one"),
    pytest.param(_doc(ROOT, V, U1, U2, children={"u1": ["u2"]}), InvalidTreeError,
                 "children_order for 'u1' is not a permutation", id="children-of-a-leaf"),
    pytest.param(_doc(("root", "v", "inf"), V, U1, U2), InvalidTreeError,
                 "no parentless vertex (cycle)", id="no-parentless-vertex"),
    pytest.param(_doc(ROOT, V, U1, U2, ("a", "b", 5.0), ("b", "a", 6.0)), InvalidTreeError,
                 "cycle detected: not all vertices reachable from a root", id="unreachable-cycle"),
    pytest.param(_doc(ROOT, V, U1, U2, ("w", None, 4.0)), treeio.ParseError,
                 _INVALID + "multiple-roots at vertex 'w': more than one root/+inf vertex",
                 id="multiple-roots-two-parentless"),
    pytest.param(_doc(ROOT, V, ("u1", "v", "inf"), U2), treeio.ParseError,
                 _INVALID + "multiple-roots at vertex 'root': more than one root/+inf vertex",
                 id="multiple-roots-two-inf"),
    pytest.param(_doc(("u1", "v", "inf"), ROOT, V, U2), treeio.ParseError,
                 _INVALID + "multiple-roots at vertex 'root': more than one root/+inf vertex",
                 id="multiple-roots-two-inf-listed-out-of-order"),
    pytest.param(_doc(("root", None, 9.0), ("v", "root", "inf"), U1, U2), treeio.ParseError,
                 _INVALID + "multiple-roots at vertex 'v': +inf height on a non-root vertex",
                 id="multiple-roots-inf-below-root"),
    pytest.param(_doc(("root", None, 9.0), V, U1, U2), treeio.ParseError,
                 _INVALID + "no-root at vertex 'root': root height must be +inf", id="no-root"),
    pytest.param(_doc(ROOT, ("u1", "root", 0.0), ("u2", "root", 1.0)), treeio.ParseError,
                 _INVALID + "root-degree at vertex 'root': root must have exactly one child",
                 id="root-degree-two"),
    pytest.param(_doc(ROOT), treeio.ParseError,
                 _INVALID + "root-degree at vertex 'root': root must have exactly one child",
                 id="root-degree-zero"),
    pytest.param(_doc(ROOT, V, ("u1", "v", 3.0), U2), treeio.ParseError,
                 _INVALID + "non-strict-height at vertex 'u1': height must strictly increase towards the root",
                 id="non-strict-height"),
    pytest.param(_doc(ROOT, V, ("w", "v", 2.0), ("u1", "w", 0.0), ("u2", "w", 1.0)), treeio.ParseError,
                 _INVALID + "unary-vertex at vertex 'v': interior degree-1 vertex (not canonical)",
                 id="unary-vertex"),
    pytest.param(_doc(ROOT, V, ("u1", "v", "x"), ("u1", "v", 2.0)), treeio.ParseError,
                 "invalid height 'x' at vertex 'u1'", id="first-of-height-then-duplicate"),
    pytest.param(_doc(ROOT, V, U1, U2, ("u1", "v", "x")), treeio.ParseError,
                 "duplicate vertex id 'u1'", id="first-of-duplicate-and-height"),
    pytest.param(_doc(ROOT, V, U1, ("u2", "nowhere", 1.0), children={"v": 5}), treeio.ParseError,
                 "children of 'v' are not a list", id="first-of-children-then-parent"),
    pytest.param(_doc(ROOT, V, U1, ("u2", "nowhere", 1.0), children={"nowhere": []}), InvalidTreeError,
                 "vertex 'u2' has unknown parent 'nowhere'", id="first-of-parent-then-children"),
    pytest.param(_doc(ROOT, V, U1, U2, ("w", None, 4.0), children={"v": ["u1"]}), InvalidTreeError,
                 "children_order for 'v' is not a permutation", id="first-of-permutation-then-roots"),
    pytest.param(_doc(ROOT, ("v", "root", 5.0), ("w", "v", 4.0), ("u1", "w", 0.0), ("u2", "w", 4.0)),
                 treeio.ParseError,
                 _INVALID + "non-strict-height at vertex 'u2': height must strictly increase towards the root",
                 id="first-of-height-then-unary"),
    pytest.param(_doc(ROOT, V, U1, U2, children={"v": ["u1"], "nowhere": []}), InvalidTreeError,
                 "children_order for 'v' is not a permutation", id="first-of-permutation-then-unknown-vertex"),
    pytest.param(_doc(("a", "b", 5.0), ("b", "a", 6.0), ROOT, V, U1, ("u2", "nowhere", 1.0)), InvalidTreeError,
                 "vertex 'u2' has unknown parent 'nowhere'", id="first-of-parent-then-cycle"),
    pytest.param(_doc(ROOT, V, ("w", "v", 2.0), ("u1", "w", 0.0), ("u2", "w", 1.0), ("u3", "v", 0.5),
                      children={"v": ["w", "w"]}), InvalidTreeError,
                 "children_order for 'v' is not a permutation", id="child-repeated-while-sibling-missing"),
    pytest.param(_doc(ROOT, V, U1, U2, children={"v": [["u1"], "u2"]}), InvalidTreeError,
                 "children_order for 'v' is not a permutation", id="child-id-a-list"),
    pytest.param(_doc(ROOT, V, U1, ("7", "v", 1.0), children={"v": ["u1", 8]}), InvalidTreeError,
                 "children_order for 'v' is not a permutation", id="child-id-an-unknown-number"),
]


@pytest.mark.parametrize("doc, error, message", LOAD_REJECTIONS)
def test_load_rejections_keep_their_messages(tmp_path, capsys, doc, error, message):
    text = json.dumps(doc)
    with pytest.raises(ValueError) as exc:
        treeio.parse_tree(text)
    assert type(exc.value) is error and str(exc.value) == message
    path = tmp_path / "bad.tree"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _numbered(doc, child_id):
    """The document with each vertex id replaced by its rank as a number;
    ``child_id`` writes the ids in the children table."""
    rank = {rec["id"]: k for k, rec in enumerate(doc["vertices"])}
    return {
        "format": doc["format"],
        "vertices": [
            {"id": rank[rec["id"]], "parent": None if rec["parent"] is None else rank[rec["parent"]],
             "height": rec["height"]}
            for rec in doc["vertices"]
        ],
        "children": {str(rank[v]): [child_id(rank[c]) for c in cs] for v, cs in doc["children"].items()},
    }


def test_numeric_ids_load_as_their_strings(tmp_path, capsys):
    a = caterpillar(7)
    doc = treeio.tree_to_document(a)
    numbers = _numbered(doc, int)
    strings = _numbered(doc, str)
    # Pre-order ranks: the root 0 over the spine 1 .. 6, each over one leaf.
    assert numbers["children"]["1"] == [2, 13] and strings["children"]["1"] == ["2", "13"]
    # String ids in the vertex records, numbers in the table, and no table at all.
    mixed = dict(numbers, vertices=[{**rec, "id": str(rec["id"])} for rec in numbers["vertices"]])
    untabled = {k: v for k, v in strings.items() if k != "children"}
    want = treeio.document_to_tree(strings).tree
    assert want.leaves == tuple(str(k) for k in range(7, 14))
    other = tmp_path / "other.tree"
    other.write_text(treeio.serialise_tree(shifted(a, 0.25)))
    outputs = set()
    for form in (numbers, strings, mixed, untabled):
        tree = treeio.document_to_tree(json.loads(json.dumps(form))).tree
        assert tree.vertices == want.vertices and tree.leaves == want.leaves
        assert tree.merges == want.merges and tree.merge_vertices == want.merge_vertices
        path = tmp_path / "form.tree"
        path.write_text(json.dumps(form))
        assert main(["distance", str(path), str(other)]) == 0
        outputs.add(capsys.readouterr())
    assert outputs == {("0.250000000\n", "")}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("alpha", {"u1": 5}, "malformed point 5 in alpha['u1']"),
        ("beta", {"w2": {"height": 1.0}}, "malformed point {'height': 1.0} in beta['w2']"),
        ("alpha", {"u1": {"anchor": "w1", "height": "x"}}, "invalid height 'x' in alpha['u1']"),
        ("labelling", {"pi": [{"anchor": "u1"}], "pi_prime": []}, "invalid height None in pi"),
        ("labelling", {"pi": [], "pi_prime": [[]]}, "malformed point [] in pi_prime"),
    ],
)
def test_certificate_point_rejections_keep_their_messages(certificate, capsys, key, value, message):
    pa, pb, cert = certificate
    doc = json.loads(cert.read_text())
    doc[key] = value
    cert.write_text(json.dumps(doc))
    with pytest.raises(treeio.ParseError) as exc:
        treeio.parse_certificate(cert.read_text(), tree_a(), tree_b())
    assert str(exc.value) == message
    assert main(["verify", "interleaving", str(pa), str(pb), str(cert)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _images_in_reference(raw, name):
    """``treeio._images_in`` with every record through ``_point_in``."""
    if not isinstance(raw, dict):
        raise treeio.ParseError(f"{name} is not an object of leaf images")
    return {u: treeio._point_in(x, "in {}[{!r}]", name, u) for u, x in raw.items()}


def _points_in_reference(raw, name):
    """``treeio._points_in`` with every record through ``_point_in``."""
    points = raw.get(name, [])
    if not isinstance(points, list):
        raise treeio.ParseError(f"labelling {name} is not a list of points")
    return tuple(treeio._point_in(x, "in {}", name) for x in points)


def _read(f, *args):
    """What a reader returns, or the ParseError it raises, as text (repr tells -0.0 from 0.0)."""
    try:
        return repr(f(*args))
    except treeio.ParseError as e:
        return f"ParseError: {e}"


_MISSING = object()
_point_records = st.builds(
    lambda anchor, height, extra: {
        **({} if anchor is _MISSING else {"anchor": anchor}),
        **({} if height is _MISSING else {"height": height}),
        **extra,
    },
    st.one_of(st.text(max_size=3), st.integers(-3, 3), st.none(), st.booleans(), st.just(_MISSING)),
    st.one_of(
        st.floats(), st.integers(-(10**400), 10**400), st.sampled_from(["inf", "-inf", "x", None, True]),
        st.just(_MISSING),
    ),
    st.dictionaries(st.sampled_from(["note", "anchors", "h"]), st.integers(), max_size=2),
)
_records = st.one_of(
    _point_records, _point_records, st.integers(), st.lists(st.integers(), max_size=2), st.none(), st.text(max_size=2)
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.dictionaries(st.text(max_size=3), _records, max_size=4), st.lists(_records, max_size=2)),
    st.one_of(st.lists(_records, max_size=4), st.dictionaries(st.text(max_size=2), _records, max_size=1)),
)
@example(
    {"u1": {"anchor": "w1", "height": 0.5, "note": 1}, "u2": {"anchor": "w2", "height": 0},
     "u3": {"anchor": "w3", "height": "inf"}},
    [{"anchor": "w1", "height": 10**400}],
)
@example({"u1": {"anchor": 7, "height": 0.5}}, [{"height": 0.5}, {"anchor": None, "height": 0.5}])
def test_point_readers_match_the_record_by_record_reference(images, points):
    # The readers take the record the writer makes inline and hand every
    # other one to _point_in: the same points, the same ParseError messages,
    # raised at the same record.  Records carry extra keys, integer, huge,
    # "inf" or non-finite heights, and non-string or missing anchors.
    assert _read(treeio._images_in, images, "alpha") == _read(_images_in_reference, images, "alpha")
    raw = {"pi": points}
    assert _read(treeio._points_in, raw, "pi") == _read(_points_in_reference, raw, "pi")


def test_cli_distance_and_verify(tree_files, tmp_path, capsys):
    pa, pb = tree_files
    cert = tmp_path / "cert.json"
    assert main(["distance", str(pa), str(pb), "--emit-certificate", str(cert)]) == 0
    out = capsys.readouterr().out
    assert out == "1.000000000\n"
    for kind in ("interleaving", "goodmap", "labelling"):
        assert main(["verify", kind, str(pa), str(pb), str(cert)]) == 0
        assert capsys.readouterr().out == "ok\n"
    # A too-small delta must fail verification.
    assert main(["verify", "interleaving", str(pa), str(pb), str(cert), "--delta", "0.5"]) == 1


def test_cli_distance_self_is_zero(tree_files, capsys):
    pa, _ = tree_files
    assert main(["distance", str(pa), str(pa)]) == 0
    assert capsys.readouterr().out == "0.000000000\n"


def test_cli_distance_deterministic(tree_files, capsys):
    pa, pb = tree_files
    main(["distance", str(pa), str(pb)])
    first = capsys.readouterr().out
    main(["distance", str(pa), str(pb)])
    assert capsys.readouterr().out == first


def test_cli_all_pairs(tree_files, tmp_path, capsys):
    assert main(["distance", "--all-pairs", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == "a.tree\tb.tree\t1.000000000\n"


def test_cli_curve_csv_and_svg(tree_files, tmp_path, capsys):
    pa, _ = tree_files
    svg = tmp_path / "curve.svg"
    assert main(["curve", str(pa), "--svg", str(svg)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "param,height"
    assert lines[1].endswith(",inf") and lines[-1].endswith(",inf")
    assert len(lines) == 6
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_cli_convert(tree_files, capsys):
    pa, _ = tree_files
    assert main(["convert", str(pa), "--heights", "2.0,3.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "leaf-order\tu1\tu2"
    assert out[1].startswith("level 2.0") and "u1@2.0" in out[1] and "u2@2.0" in out[1]
    assert out[2].startswith("level 3.5") and "v@3.5" in out[2]


def test_cli_reduce(tmp_path, capsys):
    out_a = tmp_path / "ra.tree"
    out_b = tmp_path / "rb.tree"
    assert main(["reduce", "--set", "1,1,2", "--m", "2", "--out-a", str(out_a), "--out-b", str(out_b)]) == 0
    a = treeio.parse_tree(out_a.read_text())
    b = treeio.parse_tree(out_b.read_text())
    assert len(a.tree.leaves) == 4 and len(b.tree.leaves) == 4
    # Without out paths both documents go to stdout, the same bytes.
    capsys.readouterr()
    assert main(["reduce", "--set", "1,1,2", "--m", "2"]) == 0
    assert capsys.readouterr() == (out_a.read_text() + out_b.read_text(), "")
    assert main(["reduce", "--set", "1,1,1", "--m", "2"]) == 2


@pytest.mark.parametrize("given", ["--out-a", "--out-b"])
def test_cli_reduce_refuses_one_out_path_alone(given, tmp_path, capsys):
    # One path alone is a usage error: nothing is written, and nothing printed on stdout.
    out = tmp_path / "r.tree"
    assert main(["reduce", "--set", "1,1,2", "--m", "2", given, str(out)]) == 2
    assert capsys.readouterr() == ("", "error: --out-a and --out-b go together\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lam", ["inf", "-inf", "nan", "8"])
def test_cli_reduce_rejects_a_scale_constant_that_is_not_finite_above_8(lam, tmp_path, capsys):
    # An infinite lambda would put the inner vertices at +inf and write trees
    # that `validate` rejects; reduce refuses it as a usage error instead.
    out_a, out_b = tmp_path / "ra.tree", tmp_path / "rb.tree"
    argv = ["reduce", "--set", "1,1", "--m", "1", f"--lambda={lam}", "--out-a", str(out_a), "--out-b", str(out_b)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert not out_a.exists() and not out_b.exists()


def test_cli_convert_rejects_non_finite_heights(tree_files, capsys):
    pa, _ = tree_files
    for h in ("inf", "nan"):
        assert main(["convert", str(pa), "--heights", h]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("heights", ["1,x", "1,,2"])
def test_cli_convert_names_malformed_heights(tree_files, capsys, heights):
    # A list that is not all numbers is a usage error that names the list, as
    # a bad --delta is.
    pa, _ = tree_files
    with pytest.raises(SystemExit) as exc:
        main(["convert", str(pa), "--heights", heights])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"argument --heights: expected comma-separated numbers, got {heights!r}\n")


def test_cli_curve_unwritable_svg(tree_files, tmp_path, capsys):
    pa, _ = tree_files
    assert main(["curve", str(pa), "--svg", str(tmp_path / "missing" / "x.svg")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_cli_emit_unwritable_certificate_prints_no_distance(tree_files, tmp_path, capsys):
    # The certificate is written before delta is printed: a failed write
    # leaves stdout empty, as `curve --svg` does.
    pa, pb = tree_files
    cert = tmp_path / "missing" / "c.json"
    assert main(["distance", str(pa), str(pb), "--emit-certificate", str(cert)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not cert.exists()


def test_cli_curve_svg_refuses_heights_too_wide_to_cap(tmp_path, capsys):
    # The +inf ends are drawn at the cap `distance` uses, and no finite cap
    # clears leaves at -1e308 and 0 under a merge at 1e308: both commands
    # refuse the tree, and no SVG with nan coordinates is written.
    tree = tmp_path / "wide.tree"
    tree.write_text(json.dumps({
        "format": "omt-tree-1",
        "vertices": [{"id": "r", "parent": None, "height": "inf"}, {"id": "v", "parent": "r", "height": 1e308},
                     {"id": "u1", "parent": "v", "height": -1e308}, {"id": "u2", "parent": "v", "height": 0}],
        "children": {"r": ["v"], "v": ["u1", "u2"]},
    }))
    svg = tmp_path / "wide.svg"
    for argv in (["curve", str(tree), "--svg", str(svg)], ["distance", str(tree), str(tree)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "span too wide a range to cap" in err
    assert not svg.exists()


@pytest.mark.parametrize("leaf", [0.0, 1e20])
def test_cli_curve_svg_draws_the_inf_ends_at_the_top(leaf, tmp_path, capsys):
    # A lone leaf at 1e20 caps at 1e20 + 0 + 1.0, which rounds to 1e20; the
    # +inf ends still sit at the top edge, as they do for a leaf at 0.
    tree = tmp_path / "one.tree"
    tree.write_text(json.dumps({
        "format": "omt-tree-1",
        "vertices": [{"id": "r", "parent": None, "height": "inf"}, {"id": "u", "parent": "r", "height": leaf}],
        "children": {"r": ["u"]},
    }))
    svg = tmp_path / "one.svg"
    assert main(["curve", str(tree), "--svg", str(svg)]) == 0
    capsys.readouterr()
    assert 'points="0.000,0.000 320.000,360.000 640.000,0.000"' in svg.read_text()


@pytest.fixture
def certificate(tree_files, tmp_path, capsys):
    pa, pb = tree_files
    cert = tmp_path / "cert.json"
    assert main(["distance", str(pa), str(pb), "--emit-certificate", str(cert)]) == 0
    capsys.readouterr()
    return pa, pb, cert


@pytest.mark.parametrize("kind", ["interleaving", "goodmap", "labelling"])
@pytest.mark.parametrize("delta", ["nan", "inf", "-1", "x"])
def test_cli_verify_rejects_bad_delta_option(certificate, capsys, kind, delta):
    pa, pb, cert = certificate
    with pytest.raises(SystemExit) as exc:
        main(["verify", kind, str(pa), str(pb), str(cert), "--delta", delta])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--delta" in err


def test_cli_verify_accepts_certificate_carrying_matrices(certificate, capsys):
    pa, pb, cert = certificate
    doc = json.loads(cert.read_text())
    assert set(doc["labelling"]) == {"pi", "pi_prime"}
    _, _, lab = treeio.parse_certificate(cert.read_text(), tree_a(), tree_b())
    m, m_prime = lab.matrices()
    doc["labelling"]["matrix"] = m.tolist()
    doc["labelling"]["matrix_prime"] = m_prime.tolist()
    cert.write_text(json.dumps(doc))
    for kind in ("interleaving", "goodmap", "labelling"):
        assert main(["verify", kind, str(pa), str(pb), str(cert)]) == 0
        assert capsys.readouterr().out == "ok\n"


def test_cli_verify_rejects_non_finite_delta_in_file(certificate, tmp_path, capsys):
    pa, pb, cert = certificate
    doc = json.loads(cert.read_text())
    for bad in (float("nan"), float("inf")):
        doc["delta"] = bad
        cert.write_text(json.dumps(doc))
        with pytest.raises(treeio.ParseError, match="delta"):
            treeio.parse_certificate(cert.read_text(), tree_a(), tree_b())
        assert main(["verify", "labelling", str(pa), str(pb), str(cert)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "key, value",
    [
        ("alpha", []),
        ("beta", []),
        ("labelling", []),
        ("labelling", {"pi": 3, "pi_prime": []}),
        ("labelling", {"pi": [], "pi_prime": 3}),
        ("delta", True),
    ],
)
def test_cli_verify_rejects_malformed_certificate(certificate, capsys, key, value):
    pa, pb, cert = certificate
    doc = json.loads(cert.read_text())
    doc[key] = value
    cert.write_text(json.dumps(doc))
    with pytest.raises(treeio.ParseError):
        treeio.parse_certificate(cert.read_text(), tree_a(), tree_b())
    for kind in ("interleaving", "goodmap", "labelling"):
        assert main(["verify", kind, str(pa), str(pb), str(cert)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


def test_cli_verify_failure_carries_one_condition_tag(certificate, capsys):
    pa, pb, cert = certificate
    leaf_image = (
        ": image of leaf 'u1' is not exactly delta higher\n"
        "  witness: 'u1'\n"
        "  witness: anchor 'w1' at height 1.0\n"
    )
    expected = {
        "interleaving": "verification failed: C1" + leaf_image,
        "goodmap": "verification failed: T1" + leaf_image,
        "labelling": (
            "verification failed: label-distance: lca heights of labels 0 and 0 are 0.0 and 1.0,"
            " more than delta 0.5 apart\n"
            "  witness: 0\n"
            "  witness: 0\n"
        ),
    }
    for kind, err in expected.items():
        assert main(["verify", kind, str(pa), str(pb), str(cert), "--delta", "0.5"]) == 1
        assert capsys.readouterr().err == err
    # A broken beta fails as C3, again with a single tag.
    doc = json.loads(cert.read_text())
    doc["beta"]["w1"]["height"] += 0.25
    cert.write_text(json.dumps(doc))
    assert main(["verify", "interleaving", str(pa), str(pb), str(cert)]) == 1
    assert capsys.readouterr().err == (
        "verification failed: C3: image of leaf 'w1' is not exactly delta higher\n"
        "  witness: 'w1'\n"
        "  witness: anchor 'u1' at height 2.25\n"
    )


def test_cli_verify_labelling_sees_past_labels_at_both_roots(certificate, capsys):
    # Their lca heights are inf in both trees, and inf - inf is NaN; the
    # other label pairs must still be checked against delta.
    pa, pb, cert = certificate
    doc = json.loads(cert.read_text())
    doc["labelling"]["pi"].append({"anchor": "root", "height": "inf"})
    doc["labelling"]["pi_prime"].append({"anchor": "root", "height": "inf"})
    cert.write_text(json.dumps(doc))
    assert main(["verify", "labelling", str(pa), str(pb), str(cert)]) == 0
    assert capsys.readouterr() == ("ok\n", "")
    assert main(["verify", "labelling", str(pa), str(pb), str(cert), "--delta", "0.5"]) == 1
    assert capsys.readouterr().err.startswith("verification failed: label-distance: ")


def test_cli_certifies_a_nondyadic_pair_with_corner_steps(nondyadic_corner_pair, tmp_path, capsys):
    pa, pb, cert = tmp_path / "a.tree", tmp_path / "b.tree", tmp_path / "cert.json"
    pa.write_text(nondyadic_corner_pair[0])
    pb.write_text(nondyadic_corner_pair[1])
    assert main(["distance", str(pa), str(pb), "--emit-certificate", str(cert)]) == 0
    assert capsys.readouterr() == ("0.703451870\n", "")
    for kind in ("interleaving", "goodmap", "labelling"):
        assert main(["verify", kind, str(pa), str(pb), str(cert)]) == 0
        assert capsys.readouterr() == ("ok\n", "")


def test_cli_certifies_a_large_pair_whose_optimum_is_no_float(large_offgrid_pair, tmp_path, capsys):
    # The witness is swept at the exact optimum, which lies strictly below
    # the printed value, so no gap of the matching exceeds that value.
    P, Q = (induced_curve(treeio.parse_tree(text)) for text in large_offgrid_pair)
    p, q, _, scale = frechet._scaled(P, Q)
    c, ub = frechet._search(p, q)
    assert c < ub and c < Fraction(compute_frechet_value(P, Q)) * scale
    pa, pb, cert = tmp_path / "a.tree", tmp_path / "b.tree", tmp_path / "cert.json"
    pa.write_text(large_offgrid_pair[0])
    pb.write_text(large_offgrid_pair[1])
    assert main(["distance", str(pa), str(pb), "--emit-certificate", str(cert)]) == 0
    assert capsys.readouterr() == ("344966693826.539611816\n", "")
    for kind in ("interleaving", "goodmap", "labelling"):
        assert main(["verify", kind, str(pa), str(pb), str(cert)]) == 0
        assert capsys.readouterr() == ("ok\n", "")


def test_cli_all_pairs_three_files(tree_files, tmp_path, capsys):
    (tmp_path / "c.tree").write_text(treeio.serialise_tree(tree_a()))
    assert main(["distance", "--all-pairs", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "a.tree\tb.tree\t1.000000000\n"
        "a.tree\tc.tree\t0.000000000\n"
        "b.tree\tc.tree\t1.000000000\n"
    )


def test_cli_distance_exit_codes(tree_files, tmp_path, capsys):
    pa, _ = tree_files
    assert main(["distance", str(pa)]) == 2
    assert main(["distance", str(pa), str(tmp_path / "none.tree")]) == 1
    assert capsys.readouterr().err.count("error: ") == 2


def _two_leaf_file(path, low, high, merge):
    tree = MergeTree(
        {"root": None, "m": "root", "a": "m", "b": "m"},
        {"root": INF, "m": merge, "a": low, "b": high},
    )
    path.write_text(treeio.serialise_tree(OrderedMergeTree(tree, tree.leaves)))
    return str(path)


@pytest.mark.parametrize(
    "low, high, merge", [(0.0, 1.0, 9e307), (0.0, 1.0, 1e308), (-1e308, 0.0, 1.0)]
)
def test_cli_distance_rejects_heights_too_wide_to_cap(tmp_path, capsys, low, high, merge):
    path = _two_leaf_file(tmp_path / "wide.tree", low, high, merge)
    assert main(["distance", path, path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_distance_of_huge_heights_to_itself(tmp_path, capsys):
    path = _two_leaf_file(tmp_path / "huge.tree", -1e300, 0.0, 1e300)
    assert main(["distance", path, path]) == 0
    assert capsys.readouterr().out == "0.000000000\n"


def test_cli_all_pairs_needs_a_directory(tree_files, tmp_path, capsys):
    pa, _ = tree_files
    for where in (tmp_path / "missing", pa):
        assert main(["distance", "--all-pairs", str(where)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_cli_all_pairs_takes_no_trees_or_certificate(tree_files, tmp_path, capsys):
    pa, pb = tree_files
    cert = tmp_path / "cert.json"
    for extra in ([str(pa)], [str(pa), str(pb)], ["--emit-certificate", str(cert)]):
        assert main(["distance", "--all-pairs", str(tmp_path), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
    assert not cert.exists()


def _one_leaf_and_cherry(tmp_path):
    """One leaf at 0 against two leaves at 0 merging at 3 (distance 1.5)."""
    one = MergeTree({"root": None, "u": "root"}, {"root": INF, "u": 0.0})
    cherry = MergeTree(
        {"root": None, "v": "root", "w1": "v", "w2": "v"},
        {"root": INF, "v": 3.0, "w1": 0.0, "w2": 0.0},
    )
    pa, pb = tmp_path / "one.tree", tmp_path / "cherry.tree"
    pa.write_text(treeio.serialise_tree(OrderedMergeTree(one, one.leaves)))
    pb.write_text(treeio.serialise_tree(OrderedMergeTree(cherry, cherry.leaves)))
    return str(pa), str(pb)


@pytest.mark.parametrize(
    "key, image", [("root", {"anchor": "w2", "height": 0.0}), ("zzz", {"anchor": "nope", "height": 0.0})]
)
def test_cli_verify_refuses_images_of_non_leaves(tmp_path, capsys, key, image):
    # Read as a leaf image, the root entry once made the goodmap check pass
    # (and an unknown anchor crashed it with a KeyError).
    pa, pb = _one_leaf_and_cherry(tmp_path)
    assert main(["distance", pa, pb]) == 0
    assert capsys.readouterr().out == "1.500000000\n"
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "format": treeio.CERT_FORMAT,
        "delta": 0.0,
        "alpha": {"u": {"anchor": "w1", "height": 0.0}, key: image},
        "beta": {"w1": {"anchor": "u", "height": 0.0}, "w2": {"anchor": "u", "height": 0.0}},
    }))
    for kind, tag in (("goodmap", "T1"), ("interleaving", "C1")):
        assert main(["verify", kind, pa, pb, str(cert)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"verification failed: {tag}: image keyed by {key!r}, which is not a leaf of the source\n"
            f"  witness: {key!r}\n"
        )


def test_main_builds_one_parser(tree_files, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "omtdist":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    pa, _ = tree_files
    assert main(["validate", str(pa)]) == 0
    assert main(["validate", str(pa)]) == 0
    assert len(built) == 1
    capsys.readouterr()
    # The shared parser still reports a usage error on the current stderr.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "goodmap"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: omtdist verify")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nosuch"],
        ["-h"],
        ["--", "validate", "{a}"],
        ["distance", "-h"],
        ["distance", "{a}", "{b}", "{c}"],
        ["verify", "bogus", "{a}", "{b}", "{c}"],
        ["verify", "goodmap"],
        ["verify", "goodmap", "{a}", "{b}", "{c}", "--delta", "-1"],
        ["convert", "{a}", "--heights", "1,x"],
        ["reduce", "--set", "1,2"],
    ],
)
def test_main_answers_usage_as_the_full_parser(certificate, capsys, argv):
    # main parses a command's arguments with that command's parser alone; what
    # argparse refuses or answers must read as the full parser's two passes.
    pa, pb, cert = certificate
    argv = [s.format(a=pa, b=pb, c=cert) for s in argv]

    def run(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    assert run(main) == run(build_parser().parse_args)


def test_main_reads_sys_argv(tree_files, monkeypatch, capsys):
    pa, _ = tree_files
    monkeypatch.setattr(sys, "argv", ["omtdist", "validate", str(pa)])
    assert main() == 0
    assert capsys.readouterr() == ("ok: 4 vertices, 2 leaves\n", "")
    monkeypatch.setattr(sys, "argv", ["omtdist", "verify", "bogus", str(pa), str(pa), str(pa)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: omtdist verify")


@pytest.mark.parametrize(
    "argv, path, code",
    [
        (["validate", "{missing}"], "{missing}", errno.ENOENT),
        (["distance", "{dir}", "{b}"], "{dir}", errno.EISDIR),
        (["verify", "goodmap", "{a}", "{b}", "{missing}"], "{missing}", errno.ENOENT),
        (["distance", "{a}", "{b}", "--emit-certificate", "{dir}"], "{dir}", errno.EISDIR),
        # Paths are opened as given: pathlib would drop the trailing slash and
        # read the tree.
        (["validate", "{a}/"], "{a}/", errno.ENOTDIR),
    ],
    ids=["missing-tree", "directory-tree", "missing-certificate", "directory-emit-target", "trailing-slash"],
)
def test_cli_document_errors_name_the_path_as_given(tree_files, tmp_path, capsys, argv, path, code):
    pa, pb = tree_files
    folder = tmp_path / "folder"
    folder.mkdir()
    names = {"a": pa, "b": pb, "missing": tmp_path / "missing.tree", "dir": folder}
    before = sorted(tmp_path.rglob("*"))
    assert main([s.format(**names) for s in argv]) == 1
    path = path.format(**names)
    assert capsys.readouterr() == ("", f"error: [Errno {code}] {os.strerror(code)}: {path!r}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_each_op_validates_each_map_once(tmp_path, monkeypatch, capsys):
    # A map built or parsed once is validated once, however many checks
    # read its verdict.
    pa, pb, cert = tmp_path / "a.tree", tmp_path / "b.tree", tmp_path / "cert.json"
    a = caterpillar(32)
    pa.write_text(treeio.serialise_tree(a))
    pb.write_text(treeio.serialise_tree(shifted(a, 17 / 64)))
    verdict = ShiftMap.__dict__["_verdict"]
    compute = verdict.func
    calls = []

    def counted(m):
        calls.append(m)
        return compute(m)

    monkeypatch.setattr(verdict, "func", counted)
    ops = {
        "distance": ["distance", str(pa), str(pb)],
        "certify": ["distance", str(pa), str(pb), "--emit-certificate", str(cert)],
        "interleaving": ["verify", "interleaving", str(pa), str(pb), str(cert)],
        "goodmap": ["verify", "goodmap", str(pa), str(pb), str(cert)],
        "labelling": ["verify", "labelling", str(pa), str(pb), str(cert)],
    }
    counts = {}
    for name, argv in ops.items():
        calls.clear()
        assert main(argv) == 0
        counts[name] = len(calls)
    # Plain distance builds no map: it computes the value alone.
    assert counts == {"distance": 0, "certify": 2, "interleaving": 2, "goodmap": 1, "labelling": 0}
    capsys.readouterr()


def test_plain_distance_builds_no_certificate(tmp_path, monkeypatch, capsys):
    # distance and --all-pairs print the value alone: with the step that
    # builds the maps from the paired points broken they print the same
    # bytes, and only --emit-certificate reaches it.
    rand = random.Random(12)
    base = caterpillar(12)
    trees = [tree_a(), tree_b(), base, shifted(base, 17 / 64)]
    trees += [random_omt(rand, min_leaves=1, max_leaves=12) for _ in range(4)]
    for k, omt in enumerate(trees):
        (tmp_path / f"t{k}.tree").write_text(treeio.serialise_tree(omt))
    paths = [str(tmp_path / f"t{k}.tree") for k in range(len(trees))]
    argvs = [["distance", a, b] for a, b in zip(paths, paths[1:])]
    argvs.append(["distance", "--all-pairs", str(tmp_path)])
    before = []
    for argv in argvs:
        assert main(argv) == 0
        before.append(capsys.readouterr().out)

    def broken(*args, **kwargs):
        raise AssertionError("plain distance built an interleaving")

    monkeypatch.setattr(interleaving, "maps_from_pairs", broken)
    for argv, out in zip(argvs, before):
        assert main(argv) == 0
        assert capsys.readouterr().out == out
    with pytest.raises(AssertionError, match="built an interleaving"):
        main(["distance", paths[0], paths[1], "--emit-certificate", str(tmp_path / "cert.json")])


# Pair 507 of the pairs-nondyadic workload (seed 343185045): 4 and 7 leaves,
# heights scaled off the dyadic grid.  It is the pair of the
# ``nondyadic_corner_pair`` fixture, which certifies; here it checks the
# printed distance.
NONDYADIC_A = (
    '{"children": {'
    '"m0": ["u2", "u3"], '
    '"m1": ["u1", "m0"], '
    '"m2": ["u0", "m1"], '
    '"root": ["m2"]}, '
    '"format": "omt-tree-1", "vertices": ['
    '{"height": 1.3131101581154367, "id": "u0", "parent": "m2"}, '
    '{"height": 0.9144874315446793, "id": "u1", "parent": "m1"}, '
    '{"height": 0.8675906401834136, "id": "u2", "parent": "m0"}, '
    '{"height": 0.0703451870418984, "id": "u3", "parent": "m0"}, '
    '{"height": 1.1020745969897416, "id": "m0", "parent": "m1"}, '
    '{"height": 1.3365585537960696, "id": "m1", "parent": "m2"}, '
    '{"height": 1.4538005321992336, "id": "m2", "parent": "root"}, '
    '{"height": "inf", "id": "root", "parent": null}'
    ']}'
)
NONDYADIC_B = (
    '{"children": {'
    '"m0": ["u1", "u2"], '
    '"m1": ["m0", "u3", "u4"], '
    '"m2": ["m1", "u5"], '
    '"m3": ["u0", "m2"], '
    '"m4": ["m3", "u6"], '
    '"root": ["m4"]}, '
    '"format": "omt-tree-1", "vertices": ['
    '{"height": 0.1641387697644296, "id": "u0", "parent": "m3"}, '
    '{"height": 0.1406903740837968, "id": "u1", "parent": "m0"}, '
    '{"height": 0.7269002660996168, "id": "u2", "parent": "m0"}, '
    '{"height": 0.5158647049739216, "id": "u3", "parent": "m1"}, '
    '{"height": 0.117241978403164, "id": "u4", "parent": "m1"}, '
    '{"height": 0.117241978403164, "id": "u5", "parent": "m2"}, '
    '{"height": 1.2662133667541713, "id": "u6", "parent": "m4"}, '
    '{"height": 1.055177805628476, "id": "m0", "parent": "m1"}, '
    '{"height": 1.17241978403164, "id": "m1", "parent": "m2"}, '
    '{"height": 1.5006973235604992, "id": "m2", "parent": "m3"}, '
    '{"height": 1.7117328846861943, "id": "m3", "parent": "m4"}, '
    '{"height": 1.993113632853788, "id": "m4", "parent": "root"}, '
    '{"height": "inf", "id": "root", "parent": null}'
    ']}'
)


def test_cli_distance_off_the_grid_prints_the_value(tmp_path, capsys):
    pa, pb = tmp_path / "a.tree", tmp_path / "b.tree"
    pa.write_text(NONDYADIC_A)
    pb.write_text(NONDYADIC_B)
    value = compute_frechet_value(induced_curve(treeio.parse_tree(NONDYADIC_A)),
                                  induced_curve(treeio.parse_tree(NONDYADIC_B)))
    assert abs(value - 0.703451870418984) <= 1e-12
    assert main(["distance", str(pa), str(pb)]) == 0
    out, err = capsys.readouterr()
    assert out == f"{value:.9f}\n" and err == ""


# Pairs 428 and 430 of the pairs-nondyadic workload (seed 343185045), with
# heights scaled by about 0.6455 and 1.6980.  Where the search decided in
# floats, its distance was off the exact optimum, and the emit failed with
# "determination: children of ... disagree on the image".
OFF_GRID_PAIRS = {
    428: (
        _doc(("u0", "m4", 0.10086583724809678), ("u1", "m4", 0.2622511768450516),
             ("u2", "m1", 0.4841560187908645), ("u3", "m1", 0.5648486885893419),
             ("u4", "m1", 0.43372310016681614), ("u5", "m3", 0.5648486885893419),
             ("u6", "m0", 0.3631170140931484), ("u7", "m0", 0.342943846643529),
             ("u8", "m2", 0.4740694350660548), ("m0", "m2", 0.4740694350660548),
             ("m1", "m5", 0.6354547746630097), ("m2", "m3", 0.5951084397637709),
             ("m3", "m5", 0.6051950234885807), ("m4", "m6", 0.37320359781795803),
             ("m5", "m6", 0.7766669468103451), ("m6", "root", 0.8674462003336323), ("root", None, "inf"),
             children={"m0": ["u6", "u7"], "m1": ["u2", "u3", "u4"], "m2": ["m0", "u8"],
                       "m3": ["u5", "m2"], "m4": ["u0", "u1"], "m5": ["m1", "m3"], "m6": ["m4", "m5"],
                       "root": ["m6"]}),
        _doc(("u0", "m4", 0.5345889374149129), ("u1", "m2", 0.2723377605698613),
             ("u2", "m2", 0.4942426025156742), ("u3", "m6", 0.6051950234885807),
             ("u4", "m3", 0.5245023536901032), ("u5", "m3", 0.32277067919390967),
             ("u6", "m0", 0.5345889374149129), ("u7", "m0", 0.20173167449619356),
             ("u8", "m0", 0.4740694350660548), ("u9", "m1", 0.37320359781795803),
             ("u10", "m5", 0.5345889374149129), ("u11", "m5", 0.6253681909382),
             ("m0", "m1", 0.6253681909382), ("m1", "m5", 0.7867535305351548),
             ("m2", "m4", 0.6354547746630097), ("m3", "m6", 0.5648486885893419),
             ("m4", "m6", 0.6455413583878193), ("m5", "m7", 0.8775327840584419),
             ("m6", "m7", 0.7867535305351548), ("m7", "root", 0.9582254538569194), ("root", None, "inf"),
             children={"m0": ["u6", "u7", "u8"], "m1": ["m0", "u9"], "m2": ["u1", "u2"],
                       "m3": ["u4", "u5"], "m4": ["u0", "m2"], "m5": ["m1", "u10", "u11"],
                       "m6": ["m4", "u3", "m3"], "m7": ["m6", "m5"], "root": ["m7"]}),
        "0.191645091\n",
    ),
    430: (
        _doc(("u0", "m4", 0.4775596144050531), ("u1", "m3", 0.7959326906750885),
             ("u2", "m3", 1.5653342916610073), ("u3", "m0", 0.2653108968916962),
             ("u4", "m0", 0.8224637803642582), ("u5", "m1", 0.6367461525400708),
             ("u6", "m1", 1.193899036012633), ("u7", "m2", 1.3000233947693114),
             ("u8", "m6", 0.18571762782418733), ("u9", "m5", 0.5040907040942227),
             ("u10", "m5", 0.4510285247158835), ("m0", "m8", 0.902057049431767),
             ("m1", "m2", 1.591865381350177), ("m2", "m7", 1.9898317266877212),
             ("m3", "m4", 1.6714586504176858), ("m4", "m9", 1.8306451885527038),
             ("m5", "m6", 0.9285881391209366), ("m6", "m7", 1.3000233947693114),
             ("m7", "m8", 2.3082048029577567), ("m8", "m9", 2.600046789538623),
             ("m9", "root", 2.998013134876167), ("root", None, "inf"),
             children={"m0": ["u3", "u4"], "m1": ["u5", "u6"], "m2": ["m1", "u7"], "m3": ["u1", "u2"],
                       "m4": ["u0", "m3"], "m5": ["u9", "u10"], "m6": ["u8", "m5"], "m7": ["m2", "m6"],
                       "m8": ["m0", "m7"], "m9": ["m4", "m8"], "root": ["m9"]}),
        _doc(("u0", "m0", 1.6183964710393468), ("u1", "m0", 0.6632772422292404),
             ("u2", "m3", 1.1408368566342935), ("u3", "m3", 1.3000233947693114),
             ("u4", "m4", 1.193899036012633), ("u5", "m6", 0.4244974350267139),
             ("u6", "m1", 0.902057049431767), ("u7", "m1", 1.0877746772559544),
             ("u8", "m5", 1.326554484458481), ("u9", "m5", 0.37143525564837465),
             ("u10", "m2", 0.026531089689169618), ("u11", "m2", 1.4061477535259899),
             ("m0", "m9", 2.0428939060660607), ("m1", "m7", 1.114305766945124),
             ("m2", "m8", 1.7245208297960253), ("m3", "m4", 1.5653342916610073),
             ("m4", "m6", 1.804114098863534), ("m5", "m7", 1.5388032019718378),
             ("m6", "m9", 1.9367695473093822), ("m7", "m8", 1.7510519194851948),
             ("m8", "m10", 2.149018264822739), ("m9", "m10", 2.202080444201078),
             ("m10", "root", 2.5469846101602833), ("root", None, "inf"),
             children={"m0": ["u0", "u1"], "m1": ["u6", "u7"], "m2": ["u10", "u11"], "m3": ["u2", "u3"],
                       "m4": ["m3", "u4"], "m5": ["u8", "u9"], "m6": ["m4", "u5"], "m7": ["m1", "m5"],
                       "m8": ["m7", "m2"], "m9": ["m0", "m6"], "m10": ["m9", "m8"], "root": ["m10"]}),
        "0.795932691\n",
    ),
}


@pytest.mark.parametrize("index", sorted(OFF_GRID_PAIRS))
def test_cli_certifies_off_grid_pairs_at_the_exact_distance(index, tmp_path, capsys):
    doc_a, doc_b, line = OFF_GRID_PAIRS[index]
    pa, pb, cert = tmp_path / "a.tree", tmp_path / "b.tree", tmp_path / "cert.json"
    pa.write_text(json.dumps(doc_a))
    pb.write_text(json.dumps(doc_b))
    assert main(["distance", str(pa), str(pb), "--emit-certificate", str(cert)]) == 0
    assert capsys.readouterr() == (line, "")
    for kind in ("interleaving", "goodmap", "labelling"):
        assert main(["verify", kind, str(pa), str(pb), str(cert)]) == 0
        assert capsys.readouterr() == ("ok\n", "")


def test_cli_verify_labelling_refuses_a_certificate_without_labelling(certificate, capsys):
    pa, pb, cert = certificate
    doc = json.loads(cert.read_text())
    del doc["labelling"]
    cert.write_text(json.dumps(doc))
    assert main(["verify", "labelling", str(pa), str(pb), str(cert)]) == 1
    assert capsys.readouterr() == ("", "error: certificate carries no labelling\n")
    # The maps alone still verify.
    for kind in ("interleaving", "goodmap"):
        assert main(["verify", kind, str(pa), str(pb), str(cert)]) == 0
        assert capsys.readouterr().out == "ok\n"


HUGE = "1" + "0" * 400  # a JSON integer no float can hold


def test_cli_rejects_integer_heights_too_large_for_a_float(tree_files, certificate, tmp_path, capsys):
    pa, pb, cert = certificate
    huge = tmp_path / "huge.tree"
    huge.write_text(pa.read_text().replace('"height": 1.0', f'"height": {HUGE}', 1))
    assert HUGE in huge.read_text()
    with pytest.raises(treeio.ParseError, match="invalid height"):
        treeio.parse_tree(huge.read_text())
    for argv in (["validate", str(huge)], ["distance", str(huge), str(pb)],
                 ["verify", "interleaving", str(huge), str(pb), str(cert)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_cli_verify_rejects_integer_delta_too_large_for_a_float(certificate, capsys):
    pa, pb, cert = certificate
    doc = json.loads(cert.read_text())
    cert.write_text(cert.read_text().replace(f'"delta": {doc["delta"]!r}', f'"delta": {HUGE}', 1))
    assert HUGE in cert.read_text()
    for kind in ("interleaving", "goodmap", "labelling"):
        assert main(["verify", kind, str(pa), str(pb), str(cert)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: certificate carries no usable delta\n"


@pytest.mark.parametrize("kind", ["interleaving", "goodmap"])
def test_cli_verify_failure_shows_witness_points(certificate, capsys, kind):
    pa, pb, cert = certificate
    assert main(["verify", kind, str(pa), str(pb), str(cert), "--delta", "0.25"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("verification failed: ") and "exactly delta higher" in lines[0]
    # The failing leaf, then its image as a point of the target tree.
    assert lines[1:] == ["  witness: 'u1'", "  witness: anchor 'w1' at height 1.0"]


def test_distance_builds_no_leaf_spans():
    """A plain distance reads the pre-order, leaves and merges only; the leaf
    spans are built on the first ancestry query."""
    a, b = (treeio.parse_tree(treeio.serialise_tree(t)) for t in (caterpillar(80), shifted(caterpillar(80), 0.25)))
    assert compute_frechet_value(induced_curve(a), induced_curve(b)) == 0.25
    for t in (a.tree, b.tree):
        assert "_span" not in t.__dict__
    # The spine vertex m_i merges u_i into the subtree of u_0 .. u_(i-1).
    tree = a.tree
    assert tree.leaf_span("m79") == (0, 80)
    assert "_span" in tree.__dict__
    assert tree.leaves == tuple(f"u{i}" for i in range(80))
    spine = ["u0"] + [f"m{i}" for i in range(1, 80)]
    for i in range(80):
        assert tree.leaf_span(f"u{i}") == (i, i + 1) and tree.children(f"u{i}") == ()
        assert tree.leaf_span(spine[i]) == (0, i + 1)
    for i in range(1, 80):
        assert tree.children(f"m{i}") == (spine[i - 1], f"u{i}")
    assert tree.children("root") == ("m79",) and tree.leaf_span("root") == (0, 80)


@pytest.mark.parametrize("n", [1, 7, 32])
def test_cli_emit_labels_each_caterpillar_leaf_once(n, tmp_path, capsys):
    # Against its shift, the caterpillar's matching pairs each leaf with its
    # shifted copy first, so the labelling is those n leaf pairs.  The bounds
    # of the search meet, so the witness is the greedy coupling, and the
    # certificate is byte for byte the one read off extract_matching at delta.
    a = caterpillar(n)
    pa, pb, cert = tmp_path / "a.tree", tmp_path / "b.tree", tmp_path / "cert.json"
    pa.write_text(treeio.serialise_tree(a))
    pb.write_text(treeio.serialise_tree(shifted(a, 0.25)))
    assert main(["distance", str(pa), str(pb), "--emit-certificate", str(cert)]) == 0
    assert capsys.readouterr().out == "0.250000000\n"
    labelling = json.loads(cert.read_text())["labelling"]
    assert len(labelling["pi"]) == len(labelling["pi_prime"]) == n
    for kind in ("interleaving", "goodmap", "labelling"):
        assert main(["verify", kind, str(pa), str(pb), str(cert)]) == 0
        assert capsys.readouterr().out == "ok\n"
    A, B = (treeio.parse_tree(path.read_text()) for path in (pa, pb))
    assert _takes_the_coupling(A, B)
    matched = interleaving.matched_points(A, B, extract_matching(induced_curve(A), induced_curve(B), 0.25))
    alpha, beta = interleaving.matching_to_interleaving(A, B, matched, 0.25)
    assert cert.read_text() == treeio.serialise_certificate(alpha, beta, matching_to_labelling(A, B, matched))


def _takes_the_coupling(a, b) -> bool:
    """Whether the optimum of the pair is its greedy coupling's cost, so that
    the emit's witness is the coupling."""
    p, q, _, _ = frechet._scaled(induced_curve(a), induced_curve(b))
    c, ub = frechet._search(p, q)
    return c == ub


def _moved(omt, move):
    """The tree with ``move`` applied to each finite height."""
    doc = json.loads(treeio.serialise_tree(omt))
    for v in doc["vertices"]:
        if v["height"] != "inf":
            v["height"] = move(v["height"])
    return treeio.parse_tree(json.dumps(doc))


def _coupling_pairs():
    """Pairs whose optimum is the greedy coupling's cost: random trees against
    a copy with every height moved by 1/256 up or down (merges are at least
    1/64 above their children, so the copy is a tree), and random pairs whose
    search bounds meet, scaled off the dyadic grid."""
    rand = random.Random(20261020)
    for _ in range(12):
        a = random_omt(rand, min_leaves=1, max_leaves=12)
        yield a, _moved(a, lambda h: h + rand.choice((-1, 1)) / 256)
    found = 0
    while found < 8:
        a, b = (_moved(random_omt(rand, min_leaves=1, max_leaves=12), lambda h: h * 0.7303) for _ in "ab")
        p, q, _, _ = frechet._scaled(induced_curve(a), induced_curve(b))
        if frechet._persistence_bound(p, q, abs(min(p) - min(q))) >= frechet._greedy_coupling_cost(p, q):
            found += 1
            yield a, b


@pytest.mark.parametrize("index", range(20))
def test_cli_certifies_the_greedy_coupling_where_it_is_optimal(index, tmp_path, capsys):
    a, b = list(_coupling_pairs())[index]
    assert _takes_the_coupling(a, b)
    pa, pb, cert = tmp_path / "a.tree", tmp_path / "b.tree", tmp_path / "cert.json"
    pa.write_text(treeio.serialise_tree(a))
    pb.write_text(treeio.serialise_tree(b))
    assert main(["distance", str(pa), str(pb), "--emit-certificate", str(cert)]) == 0
    assert capsys.readouterr() == (f"{compute_frechet_value(induced_curve(a), induced_curve(b)):.9f}\n", "")
    for kind in ("interleaving", "goodmap", "labelling"):
        assert main(["verify", kind, str(pa), str(pb), str(cert)]) == 0
        assert capsys.readouterr() == ("ok\n", "")


def test_cli_verify_labelling_stderr_does_not_depend_on_the_hash_seed(tmp_path):
    # The missing leaves are listed in leaf order, not in set order, and the
    # first of them is the witness.
    a = caterpillar(6)
    pa, pb, cert = tmp_path / "a.tree", tmp_path / "b.tree", tmp_path / "cert.json"
    pa.write_text(treeio.serialise_tree(a))
    pb.write_text(treeio.serialise_tree(shifted(a, 0.25)))
    assert main(["distance", str(pa), str(pb), "--emit-certificate", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    for key in ("pi", "pi_prime"):
        doc["labelling"][key] = doc["labelling"][key][:1]
    cert.write_text(json.dumps(doc))
    src = str(Path(omtdist.__file__).resolve().parents[1])
    errs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "omtdist.cli", "verify", "labelling", str(pa), str(pb), str(cert)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 1 and run.stdout == ""
        errs.append(run.stderr)
    missing = [u for u in a.tree.leaves if u != doc["labelling"]["pi"][0]["anchor"]]
    assert errs[0] == errs[1] == (
        f"verification failed: label-map: pi misses leaves {missing}\n  witness: {missing[0]!r}\n"
    )


# The package modules each op loads besides `omtdist` and `cli`: every op
# reads trees, so loads these four; the table lists what each op adds.
_CORE = {"treeio", "trees", "ordering", "curve1d"}


@pytest.fixture(scope="module")
def spawn():
    """Run ``python -X importtime`` with the package importable; return its
    stdout and the names of the modules it imported."""
    src = str(Path(omtdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        done = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        # -X importtime lists every module the process imported, one per line.
        return done.stdout, {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}

    return run


@pytest.fixture(scope="module")
def bare_modules(spawn):
    """What a bare interpreter of the same environment loads (a site hook may
    load `dataclasses` or `inspect`)."""
    return spawn("-c", "pass")[1]


# Each op's stdout on the fixture pair, where it is pinned: the pair's
# distance is 1.
@pytest.mark.parametrize(("argv", "adds", "stdout"), [
    pytest.param(["validate", "{a}"], set(), None, id="validate"),
    pytest.param(["curve", "{a}"], set(), None, id="curve"),
    pytest.param(["convert", "{a}", "--heights", "0.5"], set(), None, id="convert"),
    pytest.param(["reduce", "--set", "1,1,2", "--m", "2"], {"oracle"}, None, id="reduce"),
    pytest.param(["distance", "{a}", "{b}"], {"frechet"}, "1.000000000\n", id="distance"),
    pytest.param(["distance", "--all-pairs", "{dir}"], {"frechet"}, None, id="all-pairs"),
    pytest.param(["distance", "{a}", "{b}", "--emit-certificate", "{dir}/spawned.json"],
                 {"frechet", "interleaving", "labelling"}, "1.000000000\n", id="emit"),
    *(pytest.param(["verify", kind, "{a}", "{b}", "{cert}"], {"interleaving", "labelling"}, "ok\n",
                   id=f"verify-{kind}")
      for kind in ("interleaving", "goodmap", "labelling")),
])
def test_cli_op_loads_exactly_its_modules(certificate, spawn, bare_modules, argv, adds, stdout):
    """Each op loads the package modules it runs and no other: no op loads
    `curves`, the paper's constructions that none runs, and only the ops that
    compute a distance load the Frechet engine.  No op loads numpy, and every
    record is a named tuple, so no op loads `dataclasses` or the `inspect` it
    imports."""
    pa, pb, cert = certificate
    argv = [arg.format(a=pa, b=pb, dir=pa.parent, cert=cert) for arg in argv]
    out, imported = spawn("-m", "omtdist.cli", *argv)
    assert out and (stdout is None or out == stdout)
    package = {m for m in imported if m.startswith("omtdist.")} - {"omtdist.cli"}
    assert package == {f"omtdist.{m}" for m in _CORE | adds}
    assert not {m for m in imported if m == "numpy" or m.startswith("numpy.")}
    assert not (imported - bare_modules) & {"dataclasses", "inspect"}
    if "--emit-certificate" in argv:
        assert json.loads(Path(argv[-1]).read_text())["delta"] == 1.0


def test_cli_rejects_deeply_nested_documents(certificate, tmp_path, capsys):
    pa, pb, cert = certificate
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    with pytest.raises(treeio.ParseError, match="nests too deeply"):
        treeio.parse_tree(deep.read_text())
    with pytest.raises(treeio.ParseError, match="nests too deeply"):
        treeio.parse_certificate(deep.read_text(), tree_a(), tree_b())
    argvs = [["validate", str(deep)], ["distance", str(deep), str(pb)], ["distance", str(pa), str(deep)],
             ["verify", "interleaving", str(deep), str(pb), str(cert)]]
    argvs += [["verify", kind, str(pa), str(pb), str(deep)] for kind in ("interleaving", "goodmap", "labelling")]
    for argv in argvs:
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: document nests too deeply\n" and "Traceback" not in err


def _round_trip_digest(pairs, folder: Path) -> str:
    """sha256 over the exit code, stdout, stderr and certificate bytes of the
    emit, and of the three verify modes plain, with ``--delta 0`` and with
    ``--delta`` half the certificate's delta, on every pair in order.

    The three modes also verify the certificate with one alpha image moved to
    another point of its level, which reaches the checks past C1:
    determination, C2/C4, the order check and T2/T3."""
    digest = hashlib.sha256()
    pa, pb, cert = folder / "a.tree", folder / "b.tree", folder / "cert.json"

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for part in (str(code), out.getvalue(), err.getvalue()):
            digest.update(part.replace(str(folder), "<dir>").encode() + b"\0")

    for a, b in pairs:
        pa.write_text(a)
        pb.write_text(b)
        cert.unlink(missing_ok=True)
        run(["distance", str(pa), str(pb), "--emit-certificate", str(cert)])
        text = cert.read_text()
        digest.update(text.encode() + b"\0")
        half = repr(json.loads(text)["delta"] / 2)
        for kind in ("interleaving", "goodmap", "labelling"):
            for extra in ([], ["--delta", "0"], ["--delta", half]):
                run(["verify", kind, str(pa), str(pb), str(cert), *extra])
        doc, target = json.loads(text), treeio.parse_tree(b).tree
        for u, img in doc["alpha"].items():
            others = [y for y in target.level_set(img["height"]) if y.anchor != img["anchor"]]
            if others:
                doc["alpha"][u] = {"anchor": others[-1].anchor, "height": others[-1].height}
                cert.write_text(json.dumps(doc))
                for kind in ("interleaving", "goodmap", "labelling"):
                    run(["verify", kind, str(pa), str(pb), str(cert)])
                break
    return digest.hexdigest()


def test_certificate_round_trip_bytes_are_pinned(nondyadic_corner_pair, tmp_path):
    """Every emit and verify of a fixed batch prints and writes the bytes it
    always has: 40 random pairs, caterpillar(32) against four shifts, and the
    off-grid corner pair.  A change to a certificate pass that moves a
    verdict, a witness, a detail or one byte of a certificate changes the
    digest."""
    rand = random.Random(28)
    pairs = []
    for _ in range(40):
        a, b = (random_omt(rand, min_leaves=1, max_leaves=12) for _ in "ab")
        pairs.append((treeio.serialise_tree(a), treeio.serialise_tree(b)))
    cat = caterpillar(32)
    for c in (3 / 64, 17 / 64, 0.5, 41 / 64):
        pairs.append((treeio.serialise_tree(cat), treeio.serialise_tree(shifted(cat, c))))
    pairs.append(nondyadic_corner_pair)
    assert _round_trip_digest(pairs, tmp_path) == "17ccb8db117523f59933d3b9c270b8503f05ef71c458aa26a495b596a2aedb3f"
