"""Queries on a complex that the package does not make itself, for the tests.

``zero_cells`` and ``is_transversal`` read what ``build_complex`` records;
``local_h_complexity`` and ``classify_vertex`` ask ``plmorse.morse`` about
one flat component or one 0-cell where the program asks about all of them.
"""

from fractions import Fraction

from plmorse import morse
from plmorse.complexes import CanonicalComplex, Check, FlatComponent, build_complex, flat_cells
from plmorse.geometry import rational_point
from plmorse.network import Network


def zero_cells(cx: CanonicalComplex) -> list:
    """Each 0-cell's point, as Fractions, and F-value, its one 0-face, sorted."""
    faces = (cx.skeleton[c.label].points[0] for c in cx.cells_of_dim(0))
    return sorted((rational_point(p), f) for p, f in faces)


def is_transversal(net: Network) -> Check:
    """No node map is identically zero on a cell of the complex before its layer."""
    cx = build_complex(net)
    if cx.transversality_witnesses:
        return Check(False, cx.transversality_witnesses[0])
    return Check(True)


def local_h_complexity(cx: CanonicalComplex, comp: FlatComponent) -> morse.LocalComplexityRecord:
    """Per-degree ranks of H_*(F<=a, F<=a minus K) for the flat component K."""
    if comp not in flat_cells(cx):
        raise ValueError(f"no flat component {comp.labels} at level {comp.level}")
    return morse._records(cx, [comp])[0]


def classify_vertex(cx: CanonicalComplex, point) -> morse.VertexClass:
    """Regular / nondegenerate-critical(index) / degenerate-critical at a 0-cell."""
    morse._require_shallow_generic(cx)
    p = tuple(Fraction(x) for x in point)
    for cell in cx.cells_of_dim(0):
        if rational_point(cx.skeleton[cell.label].points[0][0]) == p:
            return morse._classify_zero_cell(cx, cell.label)
    raise ValueError(f"{p} is not a 0-cell of the complex")
