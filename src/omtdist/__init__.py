"""Monotone interleaving distance for ordered merge trees.

Computes the distance exactly by reducing to the Frechet distance of the 1D
curves induced by in-order tree walks, and constructs and verifies the three
equivalent certificate forms: monotone interleavings, good maps, and monotone
labellings.

Each name below loads on first use (PEP 562), from its home module, so
``import omtdist`` loads no submodule and a program pays only for the modules
it touches.
"""

import importlib

_HOMES = {
    "curve1d": ("Curve1D", "induced_curve"),
    "curves": (
        "CurveTrace",
        "check_layer_consistency",
        "classify_curve",
        "contract_violating",
        "find_violating_subcurves",
        "in_order_walk",
        "induced_leaf_order",
        "induced_ordered_tree",
        "interleaving_to_matching",
    ),
    "frechet": (
        "Matching",
        "compute_frechet",
        "compute_frechet_value",
        "decide_frechet",
        "extract_matching",
        "frechet_candidates",
    ),
    "interleaving": (
        "CertificateError",
        "CheckFailure",
        "ShiftMap",
        "check_good_map",
        "check_interleaving",
        "check_monotone",
        "matching_to_interleaving",
        "monotone_interleaving_distance",
    ),
    "labelling": (
        "Labelling",
        "check_label_distance",
        "check_monotone_labelling",
        "good_to_labelling",
        "induced_matrix",
        "label_distance",
        "labelling_to_interleaving",
        "matching_to_labelling",
    ),
    "ordering": (
        "LeafOrder",
        "OrderedMergeTree",
        "OrderError",
        "check_leaf_order",
    ),
    "oracle": (
        "PartitionInstance",
        "brute_force_min_over_orders",
        "build_partition_reduction",
        "discrete_frechet_refined",
    ),
    "trees": (
        "INF",
        "InvalidTreeError",
        "MergeTree",
        "TreePoint",
        "Violation",
        "validate_tree",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

# `from omtdist import *` also binds the submodules that hold these names, as
# it always has; the import system loads each of them for a star import.
__all__ = [*_HOME, "curves", "frechet", "interleaving", "labelling", "oracle", "ordering", "trees"]

__version__ = "0.1.0"


def __getattr__(name: str):
    # An unknown name raises AttributeError, so `from omtdist import treeio`
    # falls through to importing the submodule.
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
