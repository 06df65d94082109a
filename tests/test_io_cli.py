import json

import pytest

from omtdist import treeio
from omtdist.cli import main
from omtdist.ordering import OrderedMergeTree
from omtdist.randomtrees import random_omt, tree_a, tree_b
from omtdist.trees import INF, MergeTree


def test_serialise_parse_round_trip():
    omt = tree_a()
    text = treeio.serialise_tree(omt, metadata={"note": "example"})
    back = treeio.parse_tree(text)
    assert back.leaf_order.sequence == omt.leaf_order.sequence
    assert treeio.serialise_tree(back, metadata={"note": "example"}) == text
    doc = treeio.tree_to_document(omt, metadata={"note": "example"})
    assert treeio.tree_to_document(back, metadata={"note": "example"}) == doc


def test_round_trip_random_trees(rng):
    for _ in range(10):
        omt = random_omt(rng, min_leaves=1, max_leaves=10)
        text = treeio.serialise_tree(omt)
        back = treeio.parse_tree(text)
        assert treeio.serialise_tree(back) == text


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
    assert main(["reduce", "--set", "1,1,1", "--m", "2"]) == 2


def test_cli_convert_rejects_non_finite_heights(tree_files, capsys):
    pa, _ = tree_files
    for h in ("inf", "nan"):
        assert main(["convert", str(pa), "--heights", h]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_cli_curve_unwritable_svg(tree_files, tmp_path, capsys):
    pa, _ = tree_files
    assert main(["curve", str(pa), "--svg", str(tmp_path / "missing" / "x.svg")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


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


def test_cli_verify_failure_carries_one_condition_tag(certificate, capsys):
    pa, pb, cert = certificate
    expected = {"interleaving": "C1", "goodmap": "T1"}
    for kind, tag in expected.items():
        assert main(["verify", kind, str(pa), str(pb), str(cert), "--delta", "0.5"]) == 1
        err = capsys.readouterr().err
        assert err == f"verification failed: {tag}: image of leaf 'u1' is not exactly delta higher\n"
    # A broken beta fails as C3, again with a single tag.
    doc = json.loads(cert.read_text())
    doc["beta"]["w1"]["height"] += 0.25
    cert.write_text(json.dumps(doc))
    assert main(["verify", "interleaving", str(pa), str(pb), str(cert)]) == 1
    assert capsys.readouterr().err == (
        "verification failed: C3: image of leaf 'w1' is not exactly delta higher\n"
    )


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
