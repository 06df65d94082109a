"""Command-line interface.

Exit codes: 0 on success, 1 when a validation or verification fails, 2 for
usage errors.  Machine-readable output goes to stdout, diagnostics to stderr;
identical inputs produce byte-identical stdout.  The Frechet engine
(``frechet``), the certificate modules (``interleaving``, ``labelling``) and
the reduction (``oracle``) are imported inside the subcommands that run them,
and no op loads ``curves``, so each op loads only the modules it runs.  Every
record is a named tuple, built by the ``typing`` module that every op loads.

An op's arguments are parsed once, by its command's parser; only an argument
list that names no command goes through the top parser.  Documents are read
and written with plain ``open`` in text mode and the default encoding, as
``Path.read_text`` does, but the path is used as given: pathlib would turn
``''`` into ``.`` and drop a trailing ``/``, so ``validate a.tree/`` fails
with "Not a directory".  ``--all-pairs`` lists its folder with ``Path.glob``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import treeio
from .curve1d import induced_curve
from .ordering import OrderedMergeTree
from .trees import TreePoint


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _load_tree(path: str) -> OrderedMergeTree:
    return treeio.parse_tree(_read(path))


def _cmd_validate(args) -> int:
    omt = _load_tree(args.tree)
    print(f"ok: {len(omt.tree.vertices)} vertices, {len(omt.tree.leaves)} leaves")
    return 0


def _emit(path_a: str, path_b: str, path: str) -> int:
    a = _load_tree(path_a)
    b = _load_tree(path_b)
    from .interleaving import matching_to_interleaving, witness_points
    from .labelling import matching_to_labelling

    # Every part of the certificate is read off the paired points of one
    # witness matching.
    delta, matched = witness_points(a, b)
    alpha, beta = matching_to_interleaving(a, b, matched, delta)
    labelling = matching_to_labelling(a, b, matched)
    # The certificate is written before delta is printed, so a failed write
    # prints nothing on stdout.
    _write(path, treeio.serialise_certificate(alpha, beta, labelling))
    print(f"{delta:.9f}")
    return 0


def _cmd_distance(args) -> int:
    from .frechet import compute_frechet_value

    if args.all_pairs:
        if args.tree_a or args.emit_certificate:
            print("error: --all-pairs takes no tree arguments and no --emit-certificate", file=sys.stderr)
            return 2
        folder = Path(args.all_pairs)
        if not folder.is_dir():
            raise NotADirectoryError(f"--all-pairs needs a directory, got {args.all_pairs!r}")
        paths = sorted(folder.glob("*.tree"))
        curves = [induced_curve(_load_tree(str(p))) for p in paths]
        for i, (pa, a) in enumerate(zip(paths, curves)):
            for pb, b in zip(paths[i + 1 :], curves[i + 1 :]):
                print(f"{pa.name}\t{pb.name}\t{compute_frechet_value(a, b):.9f}")
        return 0
    if not (args.tree_a and args.tree_b):
        print("error: distance needs two trees or --all-pairs", file=sys.stderr)
        return 2
    if args.emit_certificate:
        return _emit(args.tree_a, args.tree_b, args.emit_certificate)
    a = _load_tree(args.tree_a)
    b = _load_tree(args.tree_b)
    print(f"{compute_frechet_value(induced_curve(a), induced_curve(b)):.9f}")
    return 0


def _cmd_curve(args) -> int:
    curve = induced_curve(_load_tree(args.tree))
    if args.svg:
        _write(args.svg, treeio.curve_to_svg(curve))
    sys.stdout.write(treeio.curve_to_csv(list(curve.heights)))
    return 0


def _cmd_verify(args) -> int:
    from .interleaving import check_good_map, check_interleaving, check_monotone
    from .labelling import check_label_distance, check_monotone_labelling

    a = _load_tree(args.tree_a)
    b = _load_tree(args.tree_b)
    alpha, beta, labelling = treeio.parse_certificate(_read(args.certificate), a, b)
    if args.delta is not None:
        alpha = alpha._replace(delta=args.delta)
        beta = beta._replace(delta=args.delta)

    if args.kind == "interleaving":
        bad = check_interleaving(alpha, beta) or check_monotone(alpha) or check_monotone(beta)
    elif args.kind == "goodmap":
        bad = check_good_map(alpha, variant="TW") or check_monotone(alpha)
    else:  # labelling
        if labelling is None:
            print("error: certificate carries no labelling", file=sys.stderr)
            return 1
        bad = check_monotone_labelling(labelling) or check_label_distance(labelling, alpha.delta)
    if bad is not None:
        print(f"verification failed: {bad}", file=sys.stderr)
        for w in bad.witness:
            shown = f"anchor {w.anchor!r} at height {w.height!r}" if isinstance(w, TreePoint) else repr(w)
            print(f"  witness: {shown}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _cmd_convert(args) -> int:
    omt = _load_tree(args.tree)
    levels = [(h, omt.level_set(h)) for h in args.heights or []]
    print("leaf-order\t" + "\t".join(str(u) for u in omt.leaf_order.sequence))
    for h, pts in levels:
        rendered = "\t".join(
            str(x.anchor) if x.height == omt.tree.height(x.anchor) else f"{x.anchor}@{x.height!r}"
            for x in pts
        )
        print(f"level {h!r}\t{rendered}")
    return 0


def _cmd_reduce(args) -> int:
    if bool(args.out_a) != bool(args.out_b):
        print("error: --out-a and --out-b go together", file=sys.stderr)
        return 2
    from .oracle import PartitionInstance, build_partition_reduction

    try:
        values = tuple(int(s) for s in args.set.split(","))
        inst = PartitionInstance(values, args.m, args.lam)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    t, t_prime = build_partition_reduction(inst)
    doc_a = treeio.serialise_tree(OrderedMergeTree(t, t.leaves))
    doc_b = treeio.serialise_tree(OrderedMergeTree(t_prime, t_prime.leaves))
    if args.out_a:
        _write(args.out_a, doc_a)
        _write(args.out_b, doc_b)
    else:
        sys.stdout.write(doc_a)
        sys.stdout.write(doc_b)
    return 0


def _heights(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _delta(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="omtdist",
        description="Monotone interleaving distance for ordered merge trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # ``main`` hands a command's arguments straight to that command's parser.
    parser.commands = sub.choices

    p = sub.add_parser("validate", help="check a tree document")
    p.add_argument("tree")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("distance", help="distance between two trees")
    p.add_argument("tree_a", nargs="?")
    p.add_argument("tree_b", nargs="?")
    p.add_argument("--emit-certificate", metavar="PATH")
    p.add_argument("--all-pairs", metavar="DIR", help="all pairs of *.tree files in a directory")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("curve", help="induced 1D curve as CSV")
    p.add_argument("tree")
    p.add_argument("--svg", metavar="PATH", help="also write a polyline rendering")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("verify", help="verify a certificate")
    p.add_argument("kind", choices=["interleaving", "goodmap", "labelling"])
    p.add_argument("tree_a")
    p.add_argument("tree_b")
    p.add_argument("certificate")
    p.add_argument("--delta", type=_delta, default=None, help="override the certificate delta")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convert", help="print the leaf order and level sets")
    p.add_argument("tree")
    p.add_argument("--heights", type=_heights, default=None, help="comma-separated heights for layer-order listings")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("reduce", help="emit the balanced-partition reduction trees")
    p.add_argument("--set", required=True, help="comma-separated positive integers")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=9.0)
    p.add_argument("--out-a", metavar="PATH")
    p.add_argument("--out-b", metavar="PATH")
    p.set_defaults(func=_cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # When the first argument names a command, that command's parser alone
    # parses the rest, as the top parser would hand them on.  Anything else,
    # or an argument the command leaves over, goes to the top parser, which
    # answers or refuses it with the same bytes as before.
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
    if command is None or extras:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # ParseError and CertificateError included
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
