"""The `omtdist` package surface: lazy names, the same objects, the same star import."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omtdist

# The names `omtdist` exports, by the module that defines or re-exports each.
EXPORTS = {
    "curves": (
        "Curve1D", "CurveTrace", "check_layer_consistency", "classify_curve", "contract_violating",
        "find_violating_subcurves", "in_order_walk", "induced_curve",
        "induced_leaf_order", "induced_ordered_tree", "interleaving_to_matching",
    ),
    "frechet": (
        "Matching", "compute_frechet", "compute_frechet_value", "decide_frechet", "extract_matching",
        "frechet_candidates",
    ),
    "interleaving": (
        "CertificateError", "CheckFailure", "ShiftMap", "check_good_map", "check_interleaving",
        "check_monotone", "matching_to_interleaving", "monotone_interleaving_distance",
    ),
    "labelling": (
        "Labelling", "check_label_distance", "check_monotone_labelling", "good_to_labelling",
        "induced_matrix", "label_distance", "labelling_to_interleaving", "matching_to_labelling",
    ),
    "ordering": ("LeafOrder", "OrderedMergeTree", "OrderError", "check_leaf_order"),
    "oracle": (
        "PartitionInstance", "brute_force_min_over_orders", "build_partition_reduction",
        "discrete_frechet_refined",
    ),
    "trees": ("INF", "InvalidTreeError", "MergeTree", "TreePoint", "Violation", "validate_tree"),
}
NAMES = [name for names in EXPORTS.values() for name in names]


def _fresh_python(code: str) -> str:
    src = str(Path(omtdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_loads_no_submodule():
    out = _fresh_python("import sys, omtdist; print(sorted(m for m in sys.modules if m.startswith('omtdist.')))")
    assert out == "[]\n"


def test_a_name_loads_its_home_module_only():
    out = _fresh_python(
        "import sys, omtdist; omtdist.compute_frechet_value; "
        "print(sorted(m for m in sys.modules if m.startswith('omtdist.')))"
    )
    assert "'omtdist.frechet'" in out and "omtdist.interleaving" not in out and "omtdist.curves" not in out


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"omtdist.{module}")
    for name in EXPORTS[module]:
        assert getattr(omtdist, name) is getattr(home, name), name
        assert name in dir(omtdist) and name in omtdist.__all__, name


def test_unknown_names_raise_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(omtdist, "no_such_name")
    # A submodule not yet loaded is an unknown name until the import system loads it.
    out = _fresh_python("from omtdist import treeio, randomtrees; print(treeio.__name__, randomtrees.__name__)")
    assert out == "omtdist.treeio omtdist.randomtrees\n"


def test_star_import_binds_the_exported_names_and_their_modules():
    namespace: dict = {}
    exec("from omtdist import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(NAMES + list(EXPORTS))
    for module in EXPORTS:
        assert namespace[module] is importlib.import_module(f"omtdist.{module}")
    assert all(namespace[name] is getattr(omtdist, name) for name in NAMES)


def test_value_classes_compare_hash_print_and_stay_immutable():
    from omtdist.curve1d import Curve1D
    from omtdist.frechet import Matching, MatchStep
    from omtdist.curves import ConsistencyWitness, ViolatingSubcurve
    from omtdist.interleaving import CheckFailure
    from omtdist.oracle import PartitionInstance
    from omtdist.ordering import LeafOrder, ViolatingTriple
    from omtdist.trees import INF, TreePoint, Violation

    x = TreePoint("v", 1.0)
    cases = [
        (x, "TreePoint(anchor='v', height=1.0)"),
        (Violation("unary-vertex", "v"), "Violation(code='unary-vertex', vertex='v', detail='')"),
        (ViolatingTriple("a", "b", "c"), "ViolatingTriple(u1='a', u='b', u2='c')"),
        (ConsistencyWitness("antisymmetry", 1.0, 1.0, x, x),
         f"ConsistencyWitness(kind='antisymmetry', height_low=1.0, height_high=1.0, x1={x!r}, x2={x!r})"),
        (Matching((MatchStep(0.0, 0.0, 1.0, 1.0),), 0.0),
         "Matching(steps=(MatchStep(s=0.0, t=0.0, hp=1.0, hq=1.0, p_index=None, q_index=None, "
         "p_edge=None, q_edge=None),), delta=0.0)"),
        (LeafOrder(("a", "b")), "LeafOrder(sequence=('a', 'b'))"),
        (Curve1D((INF, 0.0, INF)), "Curve1D(heights=(inf, 0.0, inf))"),
        (CheckFailure("C1", "no image", (x,)), f"CheckFailure(condition='C1', detail='no image', witness=({x!r},))"),
        (ViolatingSubcurve(0.25, 0.75, x), f"ViolatingSubcurve(left=0.25, right=0.75, point={x!r})"),
        (PartitionInstance((1, 1, 2), 2), "PartitionInstance(values=(1, 1, 2), groups=2, lam=9.0)"),
    ]
    names = {"inf": INF, "MatchStep": MatchStep, **{type(v).__name__: type(v) for v, _ in cases}}
    for value, text in cases:
        assert repr(value) == text
        # A copy built from the same fields is equal and hashes equal.
        twin = eval(text, names)
        assert twin == value and hash(twin) == hash(value) and twin is not value
        field = text[text.index("(") + 1:text.index("=")]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert LeafOrder(("a", "b")) != LeafOrder(("b", "a")) and Curve1D((INF, 0.0, INF)) != (INF, 0.0, INF)
    assert str(Violation("unary-vertex", "v", "not canonical")) == "unary-vertex at vertex 'v': not canonical"
    assert str(CheckFailure("C1", "no image", (x,))) == "C1: no image"
