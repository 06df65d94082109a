"""Monotone interleaving distance for ordered merge trees.

Computes the distance exactly by reducing to the Frechet distance of the 1D
curves induced by in-order tree walks, and constructs and verifies the three
equivalent certificate forms: monotone interleavings, good maps, and monotone
labellings.
"""

from .curves import (
    Curve1D,
    CurveTrace,
    MatchedTraces,
    classify_curve,
    contract_violating,
    find_violating_subcurves,
    in_order_walk,
    induced_curve,
)
from .frechet import (
    Matching,
    compute_frechet,
    compute_frechet_value,
    decide_frechet,
    extract_matching,
    frechet_candidates,
)
from .interleaving import (
    CertificateError,
    CheckFailure,
    ShiftMap,
    check_good_map,
    check_interleaving,
    check_monotone,
    interleaving_to_matching,
    matched_traces_from_matching,
    matching_to_interleaving,
    monotone_interleaving_distance,
)
from .labelling import (
    Labelling,
    check_label_distance,
    check_monotone_labelling,
    good_to_labelling,
    induced_matrix,
    label_distance,
    labelling_to_interleaving,
)
from .ordering import (
    LeafOrder,
    OrderedMergeTree,
    OrderError,
    check_layer_consistency,
    check_leaf_order,
    induced_layer_compare,
    induced_leaf_order,
    induced_ordered_tree,
)
from .oracle import (
    PartitionInstance,
    brute_force_min_over_orders,
    build_partition_reduction,
    discrete_frechet_refined,
)
from .trees import (
    INF,
    InvalidTreeError,
    MergeTree,
    TreePoint,
    Violation,
    validate_tree,
)

__version__ = "0.1.0"
