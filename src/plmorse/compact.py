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
face-closed union of its pieces, such as a flat component's closed star in
a strip.  No hull is taken and no coordinate is computed: a polytopal
complex is a regular CW complex, so its face poset fixes its homology
(Björner 1984).  Vertex ids number the 0-dimensional pieces in key order,
and each cell carries its piece's key, so a down-set of pieces marks a
subcomplex.

Pointedness is decided once per complex: every cell's lineality is ker(W1)
(``build_complex``), which F's gradient does not cut, so a piece is pointed
when its kernel cut spans ker(W1).  With no hidden layer the kernel cut
leaves a line, and ``compact_part`` refuses its piece over the whole line.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction

from .complexes import (
    CanonicalComplex,
    CellFaces,
    FlatComponent,
    Label,
    LabeledCell,
    components,
)
from .geometry import Vec

Interval = tuple[Fraction | None, Fraction | None]
# A piece is named by its parent's label and the index of its interval among
# the refinement's sorted thresholds t_0 < ... < t_{k-1}: interval 2j is the
# open gap below t_j (above t_{k-1} when j = k), and 2j + 1 is t_j itself.
PieceKey = tuple[Label, int]


@dataclass(frozen=True)
class RefinedCell:
    """The part of a cell of the complex where F lies in ``interval``, the
    refinement's interval number ``index``.

    ``faces`` are the cell's 0- and 1-faces; ``kernel`` holds the directions
    that ``essentialize`` cut away (none before it).
    """

    cell: LabeledCell
    interval: Interval
    index: int
    faces: CellFaces
    kernel: tuple[Vec, ...] = ()

    @property
    def source(self) -> Label:
        return self.cell.label

    @property
    def key(self) -> PieceKey:
        return (self.source, self.index)

    @property
    def pointed(self) -> bool:
        """Whether the closed piece has no lines.

        The cell's lines form its lineality space, ker(W1) in a net with a
        hidden layer (``build_complex``), and the kernel cut removes all of
        them or none.  F's gradient lies in the row space of W1, so no end
        of the interval cuts one: the piece is pointed exactly when its
        kernel cut spans ker(W1).  With no hidden layer the cell is all of
        input space, and the kernel cut leaves a line along the gradient
        with no 0-face, which only a finite end of the interval cuts.
        """
        cuts = len(self.kernel) + (not self.faces.points and self.interval != (None, None))
        return cuts == self.cell.lineality

    @property
    def dimension(self) -> int:
        """Dimension of the closed piece: the parent's, less the kernel,
        less one where a point interval cuts a nonflat parent."""
        cut = self.index % 2 == 1 and not self.cell.flat
        return self.cell.dimension - len(self.kernel) - cut

    @property
    def bounded(self) -> bool:
        """Whether no ray 1-face of the parent survives the interval.

        The rays span the parent's recession cone, and a ray of slope s
        leaves F >= lo when s < 0 and F <= hi when s > 0.  The one parent
        with no 0-face, the line of a net with no hidden layer, is two
        opposite rays, which only two finite ends cut off.
        """
        rays, (lo, hi) = self.faces.rays, self.interval
        if not self.faces.points:
            return lo is not None and hi is not None and 0 not in rays
        return not rays or (lo is not None and rays == {-1}) or (hi is not None and rays == {1})


class RefinedComplex:
    """Cells of a canonical complex cut along level sets of F, in key order."""

    def __init__(self, cx: CanonicalComplex, thresholds, cells):
        self.source = cx
        self.thresholds = tuple(thresholds)
        self.cells: dict[PieceKey, RefinedCell] = cells
        self._keys = {k: k for k in cells}  # so closures share the keys' tuples
        self._closures: dict[PieceKey, list[PieceKey]] = {}

    def __repr__(self):
        return f"RefinedComplex({len(self.cells)} pieces at {self.thresholds})"

    def index_of(self, t) -> int:
        """Index of the point interval {t}; t must be a threshold."""
        if t not in self.thresholds:
            raise ValueError(f"{t} is not a threshold of this refinement")
        return 2 * self.thresholds.index(t) + 1

    def keys_in(self, lo, hi) -> list[PieceKey]:
        """Pieces whose F-interval sits inside [lo, hi], each end None
        (unbounded) or a threshold."""
        first = 0 if lo is None else self.index_of(lo)
        last = 2 * len(self.thresholds) if hi is None else self.index_of(hi)
        return [k for k in self.cells if first <= k[1] <= last]

    def closure(self, key: PieceKey) -> list[PieceKey]:
        """The pieces in the closure of piece (b, j), itself first.

        Piece (a, i) lies in the closure of piece (b, j) exactly when a is b
        or a face of b, and interval i is inside interval j: i is j, or j is
        a gap and i a threshold next to it.  The faces come from the face
        poset.  Each closure is walked once per refinement, and kept.
        """
        if key not in self._closures:
            b, j = key
            near = (j,) if j % 2 else (j, j - 1, j + 1)
            faces = (b, *self.source.faces_of(b))
            self._closures[key] = [k for a in faces for i in near if (k := self._keys.get((a, i)))]
        return self._closures[key]

    def containment_pairs(self, keys):
        """(inner, outer) over the given keys, inner in the closure of outer."""
        keys = list(keys)
        present = set(keys)
        return [(a, b) for b in keys for a in self.closure(b) if a != b and a in present]

    def components(self, keys) -> list[list[PieceKey]]:
        keys = sorted(keys)
        return components(keys, self.containment_pairs(keys))

    def component_counts(self, *nested) -> list[int]:
        """Connected components of each of the given down-sets, each inside the
        next, by one union-find over piece numbers that grows: a piece new to
        a down-set is in no closure from the set before, so growing the set
        adds the new pieces and the edges to their closures, and undoes none."""
        index: dict[PieceKey, int] = {}
        parent: list[int] = []
        counts, n = [], 0

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for keys in nested:
            new = [k for k in keys if k not in index]
            parent.extend(index.setdefault(k, len(index)) for k in new)
            n += len(new)
            for k in new:
                r = find(index[k])  # stays k's root: every union hangs a root on it
                for a in self.closure(k):
                    if (i := find(index[a])) != r:
                        parent[i] = r
                        n -= 1
            counts.append(n)
        return counts


def refine_at_levels(cx: CanonicalComplex, thresholds) -> RefinedComplex:
    """Cut every cell along F = t for each threshold t.

    A piece (C, i) is kept when the relative interior of C meets the relative
    interior of F^{-1}(interval i), so each point of |C| lands in exactly one
    piece.  F maps the relative interior of C onto the relative interior of
    F(closure of C), whose ends the cell's faces give: a point lands in one
    interval, and an open range in the run of intervals between its ends.
    """
    ts = sorted({Fraction(t) for t in thresholds})
    ends = [None, *ts, None]
    intervals: list[Interval] = [
        (ts[i // 2],) * 2 if i % 2 else (ends[i // 2], ends[i // 2 + 1])
        for i in range(2 * len(ts) + 1)
    ]
    pieces: dict[PieceKey, RefinedCell] = {}
    for lab, c in sorted(cx.cells.items()):  # so the pieces come in key order
        faces = cx.skeleton[lab]
        lo, hi = faces.f_range
        if lo is not None and lo == hi:
            # two per threshold below lo, and one more when lo is one
            span = [bisect_left(ts, lo) + bisect_right(ts, lo)]
        else:
            first = 0 if lo is None else 2 * bisect_right(ts, lo)
            span = range(first, 2 * (len(ts) if hi is None else bisect_left(ts, hi)) + 1)
        for i in span:
            pieces[(lab, i)] = RefinedCell(c, intervals[i], i, faces)
    return RefinedComplex(cx, ts, pieces)


# ---------------------------------------------------------------------------
# essentialization


def essentialize(pieces, cx: CanonicalComplex):
    """Intersect pieces of the complex with the row space of W1.

    Every cell and F are invariant along ker(W1), the common lineality of the
    cells, so this is a homotopy equivalence onto cells whose dimension drops
    by dim ker(W1); when W1 has full column rank the input is returned
    unchanged.
    """
    kernel = cx.kernel
    return [replace(p, kernel=kernel) for p in pieces] if kernel else list(pieces)


# ---------------------------------------------------------------------------
# compact part


@dataclass(frozen=True)
class ModelCell:
    """A cell with its vertex ids, the key of the piece it is (None in a
    model not read off a refinement), and the ids (vertex sets) of its
    proper faces."""

    verts: frozenset[int]
    dimension: int
    key: PieceKey | None
    faces: frozenset[frozenset[int]]


class CompactModel:
    """Compact polytopal complex: cells keyed by their vertex ids, with the
    key of the 0-dimensional piece each vertex id stands for."""

    def __init__(self, vertices, cells):
        self.vertices: tuple[PieceKey, ...] = tuple(vertices)
        self.cells: dict[frozenset[int], ModelCell] = cells

    def __repr__(self):
        return f"CompactModel({len(self.vertices)} vertices, {len(self.cells)} cells)"

    @property
    def dim(self) -> int:
        return max((c.dimension for c in self.cells.values()), default=-1)

    def cells_with_source(self, keys) -> frozenset:
        """Ids of the cells whose piece is one of ``keys``.  Every caller marks
        a down-set of pieces, whose cells are a subcomplex."""
        keys = frozenset(keys)
        return frozenset(cid for cid, c in self.cells.items() if c.key in keys)


def _where(p: RefinedCell) -> str:
    return f"cell {p.source} over F-interval {p.interval}"


def compact_part(pieces, closure) -> CompactModel:
    """The bounded subcomplex of the given pieces, read off their face poset.

    ``closure`` maps a piece's key to the keys in its closure, itself first
    (``RefinedComplex.closure``); keys outside the given pieces are skipped.
    Every piece must be pointed.  A model cell is a bounded piece: its
    vertices are the 0-dimensional pieces in its closure, numbered in the
    order given (key order, from every caller), and its faces the other
    bounded pieces there.  No coordinate is computed.  Each bounded d-piece
    has at least d + 1 vertices, the faces of its closure alternate to 1 as
    a polytope's do, and no two cells share a vertex set; a piece that
    breaks one of these is named in a RuntimeError.
    """
    for p in pieces:
        if not p.pointed:
            raise ValueError(f"{_where(p)} is unpointed; essentialize the component first")
    bounded = [p for p in pieces if p.bounded]
    dims = {p.key: p.dimension for p in bounded}
    vid = {k: n for n, k in enumerate(k for k, d in dims.items() if d == 0)}
    faces_of = {k: [f for f in closure(k) if f in dims] for k in dims}
    verts_of = {k: frozenset(vid[f] for f in fs if f in vid) for k, fs in faces_of.items()}
    cells: dict[frozenset[int], ModelCell] = {}
    for p in bounded:
        k = p.key
        d, verts, faces = dims[k], verts_of[k], faces_of[k]
        if len(verts) < d + 1:
            raise RuntimeError(f"bounded {d}-dimensional {_where(p)} has {len(verts)} vertices")
        chi = sum((-1) ** dims[f] for f in faces)
        if chi != 1:
            raise RuntimeError(f"the faces of bounded {_where(p)} alternate to {chi}, not 1")
        if verts in cells:
            raise RuntimeError(f"{_where(p)} has the vertex set of another piece")
        cells[verts] = ModelCell(verts, d, k, frozenset(verts_of[f] for f in faces if f != k))
    return CompactModel(vid, cells)


# ---------------------------------------------------------------------------
# level-split models


def _model(rcx: RefinedComplex, keys, marked=()) -> tuple[CompactModel, frozenset]:
    """Compact model of the pieces with the given keys, and the ids of its
    cells coming from the marked ones."""
    pieces = essentialize([rcx.cells[k] for k in keys], rcx.source)
    model = compact_part(pieces, rcx.closure)
    return model, model.cells_with_source(marked)


def sublevel_model(cx: CanonicalComplex, c) -> CompactModel:
    """Compact model of F <= c."""
    rcx = refine_at_levels(cx, [c])
    return _model(rcx, rcx.keys_in(None, Fraction(c)))[0]


def superlevel_model(cx: CanonicalComplex, c) -> CompactModel:
    """Compact model of F >= c."""
    rcx = refine_at_levels(cx, [c])
    return _model(rcx, rcx.keys_in(Fraction(c), None))[0]


def modeled_pair(rcx: RefinedComplex, outer, *inner):
    """Model of the pieces in the outer F-range, with each inner range marked.

    Returns (model, ids of model cells coming from each inner range in turn).
    """
    model, _ = _model(rcx, rcx.keys_in(*outer))
    return (model, *(model.cells_with_source(rcx.keys_in(*r)) for r in inner))


def strip_pair_model(rcx: RefinedComplex, comp: FlatComponent):
    """Compact model of the closed star of the flat component K in F <= a,
    K's level, and the ids of its model cells from K.

    The star is the pieces at a and over the gap below a whose closure holds
    a piece of K, with their closures.  A closed piece meets K in a union of
    its faces, so the star is a neighbourhood of K in F <= a; the rest of
    F <= a is closed and misses K, and excision gives H(F <= a, F <= a minus K)
    on the star.  Pieces at the next lower threshold have no vertex in K.  Only
    bounded pieces are modeled, so the caller refines at -M below every level.
    """
    a = Fraction(comp.level)
    cx, top = rcx.source, rcx.index_of(a)
    k_keys = [(lab, top) for lab in comp.labels]
    for k in k_keys:
        if k not in rcx.cells:
            raise RuntimeError(f"flat cell {k[0]} has no piece at level {a} in the strip")
    star = rcx.cells.keys() & {
        (b, j) for lab in comp.labels for b in (lab, *cx.cofaces_of(lab)) for j in (top - 1, top)
    }
    closed = {k for s in star for k in rcx.closure(s)}
    return _model(rcx, sorted(closed), k_keys)
