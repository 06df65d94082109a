#!/usr/bin/env python3
"""End-to-end demo on the order-mirrored example pair.

Writes the two tree documents and an optimal certificate into a directory,
then walks the three certificate forms and re-verifies each, as
`omtdist distance --emit-certificate` followed by `omtdist verify` does.
The demo builds its labelling from the good map, by the paper's
construction; the CLI reads the labelling off the witness matching.
"""

import argparse
from pathlib import Path

from omtdist import treeio
from omtdist.curves import interleaving_to_matching
from omtdist.interleaving import (
    check_good_map,
    check_interleaving,
    check_monotone,
    monotone_interleaving_distance,
    pair_gap,
)
from omtdist.labelling import check_monotone_labelling, good_to_labelling, labelling_to_interleaving
from omtdist.oracle import brute_force_min_over_orders
from omtdist.randomtrees import tree_a, tree_b


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_out", help="output directory")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    a, b = tree_a(), tree_b()
    (out / "a.tree").write_text(treeio.serialise_tree(a))
    (out / "b.tree").write_text(treeio.serialise_tree(b))

    delta, (alpha, beta) = monotone_interleaving_distance(a, b)
    print(f"monotone interleaving distance: {delta:.9f}")
    print(f"min over all leaf orders:       {brute_force_min_over_orders(a.tree, b.tree):.9f}")

    assert check_interleaving(alpha, beta) is None
    assert check_monotone(alpha) is None and check_monotone(beta) is None
    print("interleaving certificate: ok")

    assert check_good_map(alpha, "TW") is None and check_good_map(alpha, "G") is None
    print("good-map certificate (both variants): ok")

    lab = good_to_labelling(alpha)
    assert check_monotone_labelling(lab) is None
    print(f"labelling certificate: ok (label distance {lab.distance():.9f})")

    a2, b2 = labelling_to_interleaving(lab, delta)
    assert check_interleaving(a2, b2) is None
    xs, ys = interleaving_to_matching(alpha, beta)
    print(f"matched in-order curves realise cost {pair_gap(xs, ys)[0]:.9f}")

    (out / "certificate.json").write_text(treeio.serialise_certificate(alpha, beta, lab))
    print(f"documents written to {out}/")


if __name__ == "__main__":
    main()
