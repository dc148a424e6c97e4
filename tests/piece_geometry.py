"""H-representation of a refined piece, the reference for what
``plmorse.compact`` reads off the complex's combinatorics.

The program never builds a cell's or a piece's polyhedron: a cell is its
sign-pattern rows, a piece's boundedness comes from the parent cell's 0- and
1-faces, and its pointedness from the cell's lineality and the kernel cut.  The tests rebuild the closed cell from its rows, and the closed
piece from the parent's rows, F's interval and the kernel cut, and compare.
A compact model numbers its vertices by piece key and holds no coordinate;
``model_coordinates`` gives its vertices' points from the same geometry.
"""

from plmorse.compact import essentialize
from plmorse.geometry import Polyhedron, canon_constraint


def interval_constraints(g, k, iv):
    """Canonical (equalities, inequalities) expressing <g, x> + k in the
    interval (lo, hi), each end None when unbounded."""
    lo, hi = iv
    if lo is not None and lo == hi:
        return [canon_constraint(g, k - lo, equality=True)], []
    ineqs = [] if lo is None else [canon_constraint(g, k - lo)]
    if hi is not None:
        ineqs.append(canon_constraint(tuple(-x for x in g), hi - k))
    return [], ineqs


def piece_geometry(piece) -> Polyhedron:
    """The closed piece: the parent cell with F in the piece's interval, cut
    by the hyperplanes orthogonal to its kernel."""
    c = piece.cell
    eqs, ges = [], []
    if not c.flat:
        eqs, ges = interval_constraints(c.gradient, c.constant, piece.interval)
    eqs += [canon_constraint(d, 0, equality=True) for d in piece.kernel]
    return Polyhedron(len(c.gradient), [*c.eqs, *eqs], [*c.stricts, *ges])


def cell_geometry(cell) -> Polyhedron:
    """The closure of a canonical cell: {eqs = 0, stricts >= 0}."""
    return Polyhedron(len(cell.gradient), cell.eqs, cell.stricts)


def model_coordinates(model, rcx) -> tuple:
    """The point of each vertex of a model built on the refinement rcx, in
    vertex-id order: the one vertex of its essentialized 0-dimensional piece."""
    pieces = essentialize([rcx.cells[k] for k in model.vertices], rcx.source)
    return tuple(v for p in pieces for (v,) in [piece_geometry(p).vertices])
