"""Tree and certificate documents.

Trees travel as JSON objects: a format marker, vertex records (id, parent id
or null for the root, height as a number or the literal string "inf"), and a
children-order table that fixes the leaf order.  Serialisation is canonical:
vertices in depth-first pre-order, keys sorted, shortest round-trip decimals.
Certificates mirror the shift-map leaf-image tables and the labelling maps;
only :func:`parse_certificate` imports their classes, so reading a tree loads
no certificate module.  The SVG export reads its cap from
:mod:`omtdist.curve1d`, so no document loads the Frechet engine.  A point record as the writer makes it, a string
anchor and a finite float height, is read inline; any other record goes
through one reader (``_point_in``), which keeps every error message and the
order in which records are refused.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _string_text
from typing import TYPE_CHECKING, Any

from .curve1d import Curve1D, cap_height
from .ordering import OrderedMergeTree
from .trees import INF, MergeTree, TreePoint, validate_tree

if TYPE_CHECKING:
    from .interleaving import ShiftMap
    from .labelling import Labelling

TREE_FORMAT = "omt-tree-1"
CERT_FORMAT = "omt-certificate-1"


class ParseError(ValueError):
    """Input text is not a valid document; carries a position or a vertex."""


def _height_out(h: float) -> Any:
    return "inf" if h == INF else h


def _finite(raw: Any) -> float | None:
    """A JSON number as a finite float; None for anything else, including an
    integer too large for a float."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    try:
        value = float(raw)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _height_in(raw: Any, where: str, *args: Any) -> float:
    """A height field as a float; ``where.format(*args)`` places it in the
    error message, and is formatted only when there is an error."""
    if type(raw) is float and -INF < raw < INF:
        return raw
    if raw == "inf":
        return INF
    value = _finite(raw)
    if value is None:
        raise ParseError(f"invalid height {raw!r} {where.format(*args)}")
    return value


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ParseError("document nests too deeply") from e


def tree_to_document(omt: OrderedMergeTree) -> dict:
    """The document of an ordered tree: its vertices in pre-order, each with
    its parent and height, and the child lists that fix its leaf order.
    Nothing else goes in, and the reader keeps nothing else."""
    tree = omt.tree
    return {
        "format": TREE_FORMAT,
        "vertices": [
            {
                "id": str(v),
                "parent": None if tree.parent(v) is None else str(tree.parent(v)),
                "height": _height_out(tree.height(v)),
            }
            for v in tree.vertices
        ],
        "children": {
            str(v): [str(c) for c in tree.children(v)]
            for v in tree.vertices
            if tree.children(v)
        },
    }


def serialise_tree(omt: OrderedMergeTree) -> str:
    return json.dumps(tree_to_document(omt), sort_keys=True, indent=2) + "\n"


def document_to_tree(doc: dict) -> OrderedMergeTree:
    """The ordered tree of a tree document.

    Ids that are not strings are converted with ``str``.  The tree keeps the
    document's child lists where they already hold string ids, so they must
    not change afterwards, as with :class:`MergeTree`.
    """
    if not isinstance(doc, dict) or doc.get("format") != TREE_FORMAT:
        raise ParseError(f"expected a {TREE_FORMAT} document")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise ParseError("document has no vertex records")
    parent: dict[str, str | None] = {}
    height: dict[str, float] = {}
    roots: list[str] = []
    for rec in vertices:
        if not isinstance(rec, dict) or "id" not in rec:
            raise ParseError(f"malformed vertex record {rec!r}")
        vid = rec["id"]
        if type(vid) is not str:
            vid = str(vid)
        if vid in parent:
            raise ParseError(f"duplicate vertex id {vid!r}")
        p = rec.get("parent")
        if type(p) is not str:
            if p is None:
                roots.append(vid)
            else:
                p = str(p)
        parent[vid] = p
        h = rec.get("height")
        height[vid] = h if type(h) is float and -INF < h < INF else _height_in(h, "at vertex {!r}", vid)
    children = doc.get("children", {})
    if not isinstance(children, dict):
        raise ParseError("children table is not an object")
    for v, cs in children.items():
        if not isinstance(cs, list):
            raise ParseError(f"children of {v!r} are not a list")
    # A table that lists every child by its string id makes the tree as it
    # stands; any other goes through the constructor, with its ids as strings.
    tree = MergeTree._loaded(parent, height, children, roots) or MergeTree(
        parent, height, {str(v): [str(c) for c in cs] for v, cs in children.items()}
    )
    bad = validate_tree(tree)
    if bad is not None:
        raise ParseError(f"invalid merge tree: {bad}")
    # Depth-first leaves always separate subtrees.
    return OrderedMergeTree(tree, tree.leaves)


def parse_tree(text: str) -> OrderedMergeTree:
    return document_to_tree(_load_json(text))


# -- certificates ------------------------------------------------------------


def _point_out(x: TreePoint) -> dict:
    return {"anchor": str(x.anchor), "height": _height_out(x.height)}


def _point_in(raw: Any, where: str, *args: Any) -> TreePoint:
    """A point record; ``where.format(*args)`` places it in an error message."""
    if not isinstance(raw, dict) or "anchor" not in raw:
        raise ParseError(f"malformed point {raw!r} {where.format(*args)}")
    return TreePoint(str(raw["anchor"]), _height_in(raw.get("height"), where, *args))


def _images_in(raw: Any, name: str) -> dict[str, TreePoint]:
    if not isinstance(raw, dict):
        raise ParseError(f"{name} is not an object of leaf images")
    images = {}
    for u, x in raw.items():
        # The record the writer makes, read inline; any other goes to _point_in.
        if type(x) is dict:
            a, h = x.get("anchor"), x.get("height")
            if type(a) is str and type(h) is float and -INF < h < INF:
                images[u] = TreePoint(a, h)
                continue
        images[u] = _point_in(x, "in {}[{!r}]", name, u)
    return images


def _points_in(raw: dict, name: str) -> tuple[TreePoint, ...]:
    points = raw.get(name, [])
    if not isinstance(points, list):
        raise ParseError(f"labelling {name} is not a list of points")
    out = []
    for x in points:
        # As in _images_in.
        if type(x) is dict:
            a, h = x.get("anchor"), x.get("height")
            if type(a) is str and type(h) is float and -INF < h < INF:
                out.append(TreePoint(a, h))
                continue
        out.append(_point_in(x, "in {}", name))
    return tuple(out)


def certificate_to_document(
    alpha: ShiftMap, beta: ShiftMap, labelling: Labelling | None = None
) -> dict:
    doc = {
        "format": CERT_FORMAT,
        "delta": alpha.delta,
        "alpha": {str(u): _point_out(x) for u, x in alpha.leaf_images.items()},
        "beta": {str(u): _point_out(x) for u, x in beta.leaf_images.items()},
    }
    if labelling is not None:
        # The induced matrices are derived data: `verify labelling` recomputes
        # them, and older certificates that carry them parse unchanged.
        doc["labelling"] = {
            "pi": [_point_out(x) for x in labelling.pi],
            "pi_prime": [_point_out(x) for x in labelling.pi_prime],
        }
    return doc


def _number_text(x: float) -> str:
    """A finite number as ``json.dumps`` spells it."""
    return float.__repr__(x) if isinstance(x, float) else int.__repr__(x)


def _point_text(x: TreePoint, pad: str) -> str:
    """A point record as an indented JSON object closing at indent ``pad``."""
    inner = pad + "  "
    height = '"inf"' if x.height == INF else _number_text(x.height)
    return (
        f'{{\n{inner}"anchor": {_string_text(str(x.anchor))},\n'
        f'{inner}"height": {height}\n{pad}}}'
    )


def _images_text(images: dict, pad: str) -> str:
    if not images:
        return "{}"
    inner = pad + "  "
    items = sorted({str(u): x for u, x in images.items()}.items())
    body = ",\n".join(f"{inner}{_string_text(u)}: {_point_text(x, inner)}" for u, x in items)
    return f"{{\n{body}\n{pad}}}"


def _points_text(points: tuple[TreePoint, ...], pad: str) -> str:
    if not points:
        return "[]"
    inner = pad + "  "
    body = ",\n".join(inner + _point_text(x, inner) for x in points)
    return f"[\n{body}\n{pad}]"


def serialise_certificate(alpha: ShiftMap, beta: ShiftMap, labelling: Labelling | None = None) -> str:
    """The certificate document as ``json.dumps(..., sort_keys=True, indent=2)``
    writes it, byte for byte, built directly: with ``indent`` set, ``json``
    takes its pure-Python encoder, which costs several times as much."""
    parts = [
        f'{{\n  "alpha": {_images_text(alpha.leaf_images, "  ")},\n',
        f'  "beta": {_images_text(beta.leaf_images, "  ")},\n',
        f'  "delta": {_number_text(alpha.delta)},\n',
        f'  "format": {_string_text(CERT_FORMAT)}',
    ]
    if labelling is not None:
        parts.append(
            ',\n  "labelling": {\n'
            f'    "pi": {_points_text(labelling.pi, "    ")},\n'
            f'    "pi_prime": {_points_text(labelling.pi_prime, "    ")}\n  }}'
        )
    parts.append("\n}\n")
    return "".join(parts)


def parse_certificate(
    text: str, source: OrderedMergeTree, target: OrderedMergeTree
) -> tuple[ShiftMap, ShiftMap, Labelling | None]:
    from .interleaving import ShiftMap
    from .labelling import Labelling

    doc = _load_json(text)
    if not isinstance(doc, dict) or doc.get("format") != CERT_FORMAT:
        raise ParseError(f"expected a {CERT_FORMAT} document")
    delta = _finite(doc.get("delta"))
    if delta is None or delta < 0:
        raise ParseError("certificate carries no usable delta")
    alpha = ShiftMap(source, target, delta, _images_in(doc.get("alpha", {}), "alpha"))
    beta = ShiftMap(target, source, delta, _images_in(doc.get("beta", {}), "beta"))
    labelling = None
    if "labelling" in doc:
        raw = doc["labelling"]
        if not isinstance(raw, dict):
            raise ParseError("labelling is not an object")
        labelling = Labelling(source, target, _points_in(raw, "pi"), _points_in(raw, "pi_prime"))
    return alpha, beta, labelling


# -- curve exports -----------------------------------------------------------


def curve_to_csv(heights: list[float]) -> str:
    n = len(heights)
    lines = ["param,height"]
    for k, h in enumerate(heights):
        p = k / (n - 1)
        lines.append(f"{p!r},{'inf' if h == INF else repr(h)}")
    return "\n".join(lines) + "\n"


def curve_to_svg(curve: Curve1D) -> str:
    """A single polyline over a fixed 640 x 360 viewBox spanning the curve's heights.

    The view spans the lowest height up to the cap of the Frechet engine
    (:func:`omtdist.curve1d.cap_height`), which refuses heights that span too
    wide a range to cap.  The +inf ends are drawn at the top edge, where the
    cap lands whenever it lies above the lowest height; a cap that rounds to
    the lowest height would draw them level with it.
    """
    width, height_px = 640.0, 360.0
    top = cap_height(curve, curve)
    lo = min(curve.finite_heights())
    span = top - lo or 1.0
    heights = curve.heights
    n = len(heights)
    pts = []
    for k, h in enumerate(heights):
        x = width * k / (n - 1)
        y = 0.0 if h == INF else height_px * (1.0 - (h - lo) / span)
        pts.append(f"{x:.3f},{y:.3f}")
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height_px:.0f}">'
        f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{" ".join(pts)}"/>'
        "</svg>\n"
    )
