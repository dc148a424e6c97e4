"""Interval refinement and compact polytopal models of level-split sets.

Sublevel, superlevel, level, and strip sets of a network are unions of cells
of the canonical complex refined along finitely many values of F.  A piece
is kept where F's range over its parent cell meets the interval, and its
0- and 1-faces are read off the parent's.  A set's compact model is the
bounded subcomplex of its pieces' face poset, once essentialization (a cut
by the row space of W1, projecting out the common lineality ker(W1)) has
made every piece pointed.  The bounded faces of a pointed polyhedron form a
contractible complex (Björner, Las Vergnas, Sturmfels, White and Ziegler,
Oriented Matroids, section 4.5), so, adding pieces in order of dimension,
the bounded pieces have the homotopy type of the set and of every
face-closed union of its pieces.  No hull is taken.  The model carries
provenance back to the refined pieces, so distinguished subcomplexes (flat
components, strip floors) can be marked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .complexes import (
    CanonicalComplex,
    CellFaces,
    FlatComponent,
    Label,
    LabeledCell,
    components,
    flat_cells,
)
from .geometry import Polyhedron, Vec, canon_constraint, dot, rank

Interval = tuple[Fraction | None, Fraction | None]
PieceKey = tuple[Label, Interval]


def _iv_sort(iv: Interval):
    lo, hi = iv
    return (lo is not None, lo or 0, hi is not None, hi or 0)


def piece_sort_key(key: PieceKey):
    return (key[0], _iv_sort(key[1]))


@dataclass(frozen=True)
class RefinedCell:
    """The part of a cell of the complex where F lies in ``interval``.

    ``faces`` are the cell's 0- and 1-faces; ``kernel`` holds the directions
    that ``essentialize`` cut away (none before it).
    """

    cell: LabeledCell
    interval: Interval
    faces: CellFaces
    kernel: tuple[Vec, ...] = ()

    @property
    def source(self) -> Label:
        return self.cell.label

    @property
    def key(self) -> PieceKey:
        return (self.source, self.interval)

    @cached_property
    def pointed(self) -> bool:
        """Whether the closed piece has no lines: every line of the cell is
        cut by an end of the interval or by the kernel."""
        lines = self.cell.geometry.lineality_basis
        cuts = list(self.kernel)
        if self.interval != (None, None):
            cuts.append(self.cell.gradient)
        return rank([[dot(c, b) for b in lines] for c in cuts]) == len(lines)

    @property
    def dimension(self) -> int:
        """Dimension of the closed piece: the parent's, less the kernel,
        less one where a point interval cuts a nonflat parent."""
        lo, hi = self.interval
        cut = lo is not None and lo == hi and not self.cell.flat
        return self.cell.dimension - len(self.kernel) - cut

    @property
    def bounded(self) -> bool:
        """Whether no ray 1-face of the parent survives the interval.

        The rays span the parent's recession cone, and a ray of slope s
        leaves F >= lo when s < 0 and F <= hi when s > 0.  The one parent
        with no 0-face, the line of a net with no hidden layer, is two
        opposite rays, which only two finite ends cut off.
        """
        slopes = [e.slope for e in self.faces.edges if not e.bounded]
        if not slopes:
            return True
        lo, hi = self.interval
        if not self.faces.points:
            return lo is not None and hi is not None and slopes[0] != 0
        return (lo is not None and all(s < 0 for s in slopes)) or (
            hi is not None and all(s > 0 for s in slopes)
        )

    @cached_property
    def geometry(self) -> Polyhedron:
        """The closed piece: the cell with F in the interval, cut by the
        hyperplanes orthogonal to the kernel."""
        c, poly = self.cell, self.cell.geometry
        eqs, ges = [], []
        if not c.flat:
            eqs, ges = _interval_constraints(c.gradient, c.constant, self.interval)
        eqs += [canon_constraint(d, 0, equality=True) for d in self.kernel]
        if not (eqs or ges):
            return poly
        req, rst = poly.relint_system
        return Polyhedron(
            poly.n,
            eqs=poly.eqs + tuple(eqs),
            ges=poly.ges + tuple(ges),
            relint=(req + tuple(eqs), rst + tuple(ges)),
        )

    @cached_property
    def vertices(self) -> list[Vec]:
        """Vertices of the piece cut by the row space of W1, sorted: the
        parent's 0-faces with F in the closed interval, and the points where
        its 1-faces cross a finite end of the interval."""
        lo, hi = self.interval
        found = {
            p
            for p, f in self.faces.points
            if (lo is None or f >= lo) and (hi is None or f <= hi)
        }
        for t in {lo, hi} - {None}:
            for e in self.faces.edges:
                if e.slope == 0:
                    continue
                s = (t - e.value) / e.slope
                if s >= 0 and (not e.bounded or s <= 1):
                    found.add(tuple(a + s * d for a, d in zip(e.start, e.direction)))
        return sorted(found)


class RefinedComplex:
    """Cells of a canonical complex cut along level sets of F."""

    def __init__(self, cx: CanonicalComplex, thresholds, cells):
        self.source = cx
        self.thresholds = tuple(thresholds)
        self.cells: dict[PieceKey, RefinedCell] = cells

    def __repr__(self):
        return f"RefinedComplex({len(self.cells)} pieces at {self.thresholds})"

    def keys_in(self, lo, hi) -> list[PieceKey]:
        """Pieces whose F-interval sits inside [lo, hi] (None = unbounded)."""
        return sorted(
            (k for k, p in self.cells.items() if _interval_subset(p.interval, (lo, hi))),
            key=piece_sort_key,
        )

    def containment_pairs(self, keys):
        """(inner, outer) over the given keys, inner in the closure of outer.

        Piece (a, I) lies in the closure of piece (b, J) exactly when a is b
        or a face of b, and I is inside J; the faces come from the face poset.
        """
        keys = list(keys)
        by_label: dict[Label, list[PieceKey]] = {}
        for k in keys:
            by_label.setdefault(k[0], []).append(k)
        pairs = []
        for a in keys:
            for lab in [a[0], *self.source.cofaces_of(a[0])]:
                for b in by_label.get(lab, ()):
                    if b != a and _interval_subset(a[1], b[1]):
                        pairs.append((a, b))
        return pairs

    def components(self, keys) -> list[list[PieceKey]]:
        keys = sorted(keys, key=piece_sort_key)
        return components(keys, self.containment_pairs(keys))


def _interval_subset(inner: Interval, outer: Interval) -> bool:
    lo1, hi1 = inner
    lo2, hi2 = outer
    if lo2 is not None and (lo1 is None or lo1 < lo2):
        return False
    if hi2 is not None and (hi1 is None or hi1 > hi2):
        return False
    return True


def _relints_meet(a: Interval, b: Interval) -> bool:
    """Whether the relative interiors of two closed intervals meet."""
    if a[0] is not None and a[0] == a[1]:
        return _scalar_in_relint(a[0], b)
    if b[0] is not None and b[0] == b[1]:
        return _scalar_in_relint(b[0], a)
    return (a[0] is None or b[1] is None or a[0] < b[1]) and (
        b[0] is None or a[1] is None or b[0] < a[1]
    )


def _scalar_in_relint(v: Fraction, iv: Interval) -> bool:
    lo, hi = iv
    if lo is not None and hi is not None and lo == hi:
        return v == lo
    if lo is not None and not v > lo:
        return False
    if hi is not None and not v < hi:
        return False
    return True


def _interval_constraints(g: Vec, k: Fraction, iv: Interval):
    """Canonical (equalities, inequalities) expressing F in the interval."""
    lo, hi = iv
    eqs, ineqs = [], []
    if lo is not None and hi is not None and lo == hi:
        eqs.append(canon_constraint(g, k - lo, equality=True))
    else:
        if lo is not None:
            ineqs.append(canon_constraint(g, k - lo))
        if hi is not None:
            ineqs.append(canon_constraint(tuple(-x for x in g), hi - k))
    return eqs, ineqs


def refine_at_levels(cx: CanonicalComplex, thresholds) -> RefinedComplex:
    """Cut every cell along F = t for each threshold t.

    A piece (C, I) is kept when the relative interior of C meets the relative
    interior of F^{-1}(I), so each point of |C| lands in exactly one piece.
    F maps the relative interior of C onto the relative interior of F(closure
    of C), whose ends the cell's faces give.
    """
    ts = sorted({Fraction(t) for t in thresholds})
    intervals: list[Interval] = []
    if not ts:
        intervals = [(None, None)]
    else:
        intervals.append((None, ts[0]))
        for i, t in enumerate(ts):
            intervals.append((t, t))
            if i + 1 < len(ts):
                intervals.append((t, ts[i + 1]))
        intervals.append((ts[-1], None))

    pieces: dict[PieceKey, RefinedCell] = {}
    for lab, c in cx.cells.items():
        faces = cx.skeleton[lab]
        f_range = faces.f_range
        for iv in intervals:
            if _relints_meet(f_range, iv):
                pieces[(lab, iv)] = RefinedCell(c, iv, faces)
    return RefinedComplex(cx, ts, pieces)


# ---------------------------------------------------------------------------
# essentialization


@dataclass(frozen=True)
class Essentialization:
    """Projection record: normal-span rank and the directions projected out."""

    rank: int
    kernel: tuple[Vec, ...]


def essentialize(pieces, cx: CanonicalComplex):
    """Intersect pieces of the complex with the row space of W1.

    Every cell and F are invariant along ker(W1), the common lineality of the
    cells, so this is a homotopy equivalence onto cells whose dimension drops
    by dim ker(W1); when W1 has full column rank the input is returned
    unchanged.
    """
    kernel = cx.kernel
    out = [replace(p, kernel=kernel) for p in pieces] if kernel else list(pieces)
    return out, Essentialization(cx.network.n0 - len(kernel), kernel)


# ---------------------------------------------------------------------------
# compact part


@dataclass(frozen=True)
class ModelCell:
    """A cell with its vertex ids, the pieces it comes from, and the ids
    (vertex sets) of its proper faces."""

    verts: frozenset[int]
    dimension: int
    sources: frozenset[PieceKey]
    faces: frozenset[frozenset[int]]


class CompactModel:
    """Compact polytopal complex: cells keyed by their vertex ids, with
    the vertices' coordinates."""

    def __init__(self, vertices, cells):
        self.vertices: tuple[Vec, ...] = tuple(vertices)
        self.cells: dict[frozenset[int], ModelCell] = cells

    def __repr__(self):
        return f"CompactModel({len(self.vertices)} vertices, {len(self.cells)} cells)"

    @property
    def dim(self) -> int:
        return max((c.dimension for c in self.cells.values()), default=-1)

    def cells_of_dim(self, d: int) -> list[ModelCell]:
        return [c for c in self.cells.values() if c.dimension == d]

    def cells_with_source(self, keys) -> frozenset:
        keys = frozenset(keys)
        return frozenset(cid for cid, c in self.cells.items() if c.sources & keys)


def _where(key: PieceKey) -> str:
    return f"cell {key[0]} over F-interval {key[1]}"


def compact_part(pieces, pairs) -> CompactModel:
    """The bounded subcomplex of the given pieces, read off their face poset.

    ``pairs`` are the (inner, outer) containment pairs among the pieces'
    keys.  Every piece must be pointed.  A model cell is a bounded piece:
    its vertices are the 0-dimensional pieces in its closure, its faces
    the other bounded pieces there, and its sources the piece and every
    piece whose closure holds it.  Each 0-dimensional piece is one point,
    each bounded d-piece has at least d + 1 vertices, the faces of its
    closure alternate to 1 as a polytope's do, and no two cells share a
    vertex set; a piece that breaks one of these is named in a RuntimeError.
    """
    for p in pieces:
        if not p.pointed:
            raise ValueError(f"{_where(p.key)} is unpointed; essentialize the component first")
    # pieces by number: their keys hold Fractions, which are slow to hash
    keys = [p.key for p in pieces]
    index = {k: i for i, k in enumerate(keys)}
    closure = [[i] for i in range(len(keys))]
    sources = [[i] for i in range(len(keys))]
    for a, b in pairs:
        i, j = index[a], index[b]
        closure[j].append(i)
        sources[i].append(j)
    dims = {i: p.dimension for i, p in enumerate(pieces) if p.bounded}
    points = {}
    for i, d in dims.items():
        if d == 0:
            found = pieces[i].vertices
            if len(found) != 1:
                raise RuntimeError(f"0-dimensional {_where(keys[i])} has points {found}, not one")
            points[i] = found[0]
    order = sorted(points, key=points.__getitem__)
    vid = {i: n for n, i in enumerate(order)}
    verts_of = {i: frozenset(vid[f] for f in closure[i] if f in vid) for i in dims}
    cells: dict[frozenset[int], ModelCell] = {}
    for i, d in dims.items():
        k, verts = keys[i], verts_of[i]
        faces = [f for f in closure[i] if f in dims]
        if len(verts) < d + 1:
            raise RuntimeError(f"bounded {d}-dimensional {_where(k)} has {len(verts)} vertices")
        chi = sum((-1) ** dims[f] for f in faces)
        if chi != 1:
            raise RuntimeError(f"the faces of bounded {_where(k)} alternate to {chi}, not 1")
        if verts in cells:
            raise RuntimeError(f"{_where(k)} has the vertex set of another piece")
        below = frozenset(verts_of[f] for f in faces if f != i)
        cells[verts] = ModelCell(verts, d, frozenset(keys[j] for j in sources[i]), below)
    return CompactModel(tuple(points[i] for i in order), cells)


# ---------------------------------------------------------------------------
# level-split models


def _selected_model(rcx: RefinedComplex, lo, hi):
    keys = rcx.keys_in(lo, hi)
    pieces, _ = essentialize([rcx.cells[k] for k in keys], rcx.source)
    return compact_part(pieces, rcx.containment_pairs(keys)), keys


def sublevel_model(cx: CanonicalComplex, c) -> CompactModel:
    """Compact model of F <= c."""
    c = Fraction(c)
    return _selected_model(refine_at_levels(cx, [c]), None, c)[0]


def superlevel_model(cx: CanonicalComplex, c) -> CompactModel:
    """Compact model of F >= c."""
    c = Fraction(c)
    return _selected_model(refine_at_levels(cx, [c]), c, None)[0]


def level_model(cx: CanonicalComplex, c) -> CompactModel:
    """Compact model of F = c."""
    c = Fraction(c)
    return _selected_model(refine_at_levels(cx, [c]), c, c)[0]


def modeled_pair(rcx: RefinedComplex, outer, inner):
    """Model of the pieces in the outer F-range, with the inner range marked.

    Returns (model, ids of model cells coming from the inner range).
    """
    model, _ = _selected_model(rcx, *outer)
    return model, model.cells_with_source(rcx.keys_in(*inner))


@dataclass(frozen=True)
class StripModel:
    model: CompactModel
    level: Fraction
    lower: Fraction
    floor: frozenset
    k_cells: tuple[tuple[FlatComponent, frozenset], ...]


def strip_pair_model(cx: CanonicalComplex, a, lower) -> StripModel:
    """Compact model of the strip lower <= F <= a, with the flat components
    at level a and the floor F = lower marked as subcomplexes.

    The open interval (lower, a) must be free of nontransversal thresholds
    and lower itself must be a transversal value.
    """
    a, lower = Fraction(a), Fraction(lower)
    if not lower < a:
        raise ValueError("strip needs lower < a")
    for t in cx.nontransversal_thresholds:
        if lower <= t < a:
            raise ValueError(
                f"nontransversal threshold {t} inside the strip [{lower}, {a})"
            )
    model, keys = _selected_model(refine_at_levels(cx, [lower, a]), lower, a)
    key_set = set(keys)
    floor = model.cells_with_source(k for k in keys if k[1] == (lower, lower))
    marks = []
    for comp in flat_cells(cx):
        if comp.level != a:
            continue
        k_keys = [(lab, (a, a)) for lab in comp.labels]
        for k in k_keys:
            if k not in key_set:
                raise RuntimeError(f"flat cell {k[0]} has no piece at level {a} in the strip")
        marks.append((comp, model.cells_with_source(k_keys)))
    return StripModel(model, a, lower, floor, tuple(marks))
