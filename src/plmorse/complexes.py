"""Polyhedral complex of a ReLU network, with ternary labels and orientations.

The input space is carved into cells on which every hidden neuron has a fixed
sign; cells are keyed by that ternary label (one entry per hidden neuron, in
layer order).  Construction is layer by layer: each cell of the partial
complex is split by the zero set of every next-layer pre-activation, which is
affine on the cell.  It runs on the integer layers of ``integer_layers``, so
each cell's affine map is int rows, a positive multiple of the rational one.
A cell is its sign-pattern rows, ``LabeledCell.eqs`` = 0 and ``.stricts`` > 0,
canonical and sorted: they cut out its relative interior, and weakened its
closure, so no implicit equality detection is ever needed here.  A split
makes a child only on a side that one projection of the cell onto the node's
form showed nonempty (``geometry.form_signs``).

The face poset and the 1-skeleton come from one pass over the cells by
dimension (see ``CanonicalComplex.face_pairs``).  The skeleton is integer: a
0-face is (P, d), the point P/d, from one fraction-free solve, and edge
directions and slopes are ints, so a cell's witness needs no common
denominator.  Edge orientations and the boundedness census read the edges,
flat levels the 0-faces; points become Fractions only to be shown.

Also provides genericity of each layer's solution-set arrangement (construction
records where a node map is identically zero on a cell), flat cell detection
with per-level connected components, gradient orientation of the 1-skeleton,
and cell counts by dimension and boundedness.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, islice
from operator import mul

from .geometry import (
    Constraint,
    IntVec,
    Vec,
    canon_constraint,
    canonical_line_direction,
    dot,
    echelon,
    feasible,
    form_signs,
    primitive_direction,
    rank,
    rational_point,
    solve_integer,
    spans,
)
from .network import Network, integer_layers

Label = tuple[int, ...]


@dataclass(frozen=True)
class LabeledCell:
    label: Label
    eqs: tuple[Constraint, ...]  # rows = 0 on the cell: the label's zero entries
    stricts: tuple[Constraint, ...]  # rows > 0 on the cell: its nonzero entries
    gradient: Vec
    constant: Fraction
    flat: bool
    dimension: int
    lineality: int  # dimension of the lineality space, one for all cells
    form: tuple[IntVec, int]  # (g, k): F = (<g, x> + k) / sigma, one sigma per complex


@dataclass(frozen=True)
class Check:
    """Outcome of a yes/no network test, with a witness when it fails."""

    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, order=True)
class FlatComponent:
    level: Fraction
    labels: tuple[Label, ...]


# Named tuples, not dataclasses: a frozen dataclass takes about 1 ms to
# define, and every CLI call pays for it at import.
class Edge(namedtuple("Edge", "start direction slope bounded")):
    """A segment or a ray from the 0-face ``start`` = (P, d), along the int
    ``direction``: a ray's, or Q*d - P*e to the end Q/e of a segment.  The
    int ``slope`` <g, direction> has the sign of F's change along it."""

    __slots__ = ()


class CellFaces(namedtuple("CellFaces", "points edges f_range rays")):
    """0- and 1-faces of a cell's closure cut by the row space of W1.

    ``points`` holds each 0-face as a ((P, d), F-value) pair for the point
    P/d, P int and d > 0; ``edges`` holds each 1-face as an ``Edge``, a
    segment or a ray (a line with no 0-face is two rays).  ``f_range`` is
    F(closure), None marking an unbounded end, and ``rays`` the signs of the
    rays' slopes, both found once, from those two.
    """

    __slots__ = ()

    def __new__(cls, points, edges):
        rays = frozenset(_sign(e.slope) for e in edges if not e.bounded)
        lo = None if -1 in rays else min(f for _, f in points)
        hi = None if 1 in rays else max(f for _, f in points)
        return super().__new__(cls, points, edges, (lo, hi), rays)


class CanonicalComplex:
    """All labeled cells of a network, with face poset and 1-skeleton data."""

    def __init__(self, net: Network, cells: dict[Label, LabeledCell], witnesses):
        self.network = net
        self.cells = cells
        self.transversality_witnesses = tuple(witnesses)

    def __repr__(self):
        return f"CanonicalComplex({len(self.cells)} cells, n0={self.network.n0})"

    def cells_of_dim(self, d: int) -> list[LabeledCell]:
        return [c for c in self.cells.values() if c.dimension == d]

    @cached_property
    def face_pairs(self) -> set[tuple[Label, Label]]:
        """(sub, super) for every strict face relation sub < super.

        K(F) is a polyhedral complex, so sub < sup exactly when sub's label
        refines sup's (Masden, arXiv 2207.07696): for x in relint(sub) and y in
        relint(sup), each layer-1 form is affine, with sup's sign at y and sub's
        (0 or the same) at x, so sup's sign on (x, y]; that makes the next
        layer's forms affine on [x, y], and by induction (x, y] lies in sup.
        A walk down a trie of the labels finds a cell's cofaces: it follows
        the cell's sign at each nonzero entry and every child at each zero,
        so the leaves it reaches are the labels that agree with the cell's
        wherever that is nonzero, which is refinement.  It walks prefixes of
        existing labels only, never the 3^z sign patterns of z zeros.  The
        pass visits cells by dimension, reads each cell's witness off the
        faces found so far (``_relint_point``), raises RuntimeError if it is
        off the cell's relative interior, and records ``skeleton`` and each
        cell's face and coface lists (``faces_of``, ``cofaces_of``) in its order.
        """
        k, n0, sigma = len(self.kernel), self.network.n0, integer_layers(self.network)[1]
        kern = tuple(canon_constraint(v, 0) for v in self.kernel)
        order = sorted(self.cells.values(), key=lambda c: c.dimension)
        trie: dict = {}
        for r, c in enumerate(order):  # leaf: the cell's place in the pass and its label
            reduce(lambda node, s: node.setdefault(s, {}), c.label, trie)[None] = r, c.label
        self._faces: dict[Label, list[Label]] = {lab: [] for lab in self.cells}
        self._cofaces: dict[Label, list[Label]] = {}
        points: dict[Label, tuple[tuple[IntVec, int], Fraction]] = {}
        edges: dict[Label, tuple[Edge, ...]] = {}
        self._skeleton: dict[Label, CellFaces] = {}
        for r, c in enumerate(order):
            lab, d, fs = c.label, c.dimension, [c.label, *self._faces[c.label]]
            if d == k:  # one point, over den, the lcm of the solve's n pivots
                (p, den), _ = solve_integer(c.eqs + kern, n0)
                points[lab] = (p, den), Fraction(sum(map(mul, c.form[0], p)) + c.form[1] * den,
                                                 sigma * den)
            elif d == k + 1:
                edges[lab] = _edges(c, [points[f][0] for f in fs if f in points], kern)
            faces = self._skeleton[lab] = CellFaces(
                tuple(points[f] for f in fs if f in points),
                tuple(e for f in fs for e in edges.get(f, ())),
            )
            w, den = _relint_point(faces)
            signs = [_sign(sum(map(mul, g, w)) + o * den) for g, o in c.eqs + c.stricts]
            if signs != [0] * len(c.eqs) + [1] * len(c.stricts):
                raise RuntimeError(f"witness {show_point((w, den))} is off the relative "
                                   f"interior of cell {lab}")
            level = [trie]
            for s in lab:
                level = ([n for m in level if (n := m.get(s))] if s
                         else [n for m in level for n in m.values()])
            ups = self._cofaces[lab] = [b for u, b in sorted(m[None] for m in level) if u != r]
            for sup in ups:
                self._faces[sup].append(lab)
        return {(sub, sup) for sub in self.cells for sup in self._cofaces[sub]}

    @cached_property
    def kernel(self) -> tuple[Vec, ...]:
        """Basis of ker(W1), 1 at one free column each: cells and F are invariant along it."""
        (a, _), *_ = integer_layers(self.network)[0]
        (_, d), null = solve_integer([(row, 0) for row in a], self.network.n0)
        return tuple(tuple(Fraction(x, d) for x in v) for v in null)

    @property
    def skeleton(self) -> dict[Label, CellFaces]:
        """Each cell's 0- and 1-faces, recorded by the ``face_pairs`` pass.

        The minimal cells have dimension k = dim ker(W1); each, cut by the
        row space of W1, is one point.  The cells one dimension higher are
        the 1-faces: a segment from the lexicographically smaller of their
        two minimal faces to the other, or a ray from their one minimal face
        along their hull, oriented into the cell (two opposite rays for a
        line with no minimal face).
        """
        self.face_pairs  # noqa: B018  (the pass records the skeleton)
        return self._skeleton

    def faces_of(self, label: Label) -> list[Label]:
        """The cell's proper faces, lower dimensions first (``face_pairs``)."""
        self.face_pairs  # noqa: B018  (the pass records the lists)
        return self._faces[label]

    def cofaces_of(self, label: Label) -> list[Label]:
        """The cells the cell is a proper face of, lower dimensions first."""
        self.face_pairs  # noqa: B018
        return self._cofaces[label]

    @cached_property
    def flat_labels(self) -> tuple[Label, ...]:
        return tuple(lab for lab, c in self.cells.items() if c.flat)

    @cached_property
    def nontransversal_thresholds(self) -> tuple[Fraction, ...]:
        """F on each flat cell, where it is constant, read at a 0-face."""
        return tuple(sorted({self.skeleton[lab].points[0][1] for lab in self.flat_labels}))


def _edges(cell: LabeledCell, ends, kern) -> tuple[Edge, ...]:
    """The 1-face that a (k+1)-cell with the given minimal faces is: a
    segment from the lexicographically smaller end, by cross-multiplication,
    or rays along its hull cut by the kernel rows, oriented into the cell."""
    g = cell.form[0]
    if len(ends) == 2:
        (p, a), (q, b) = ends
        if [x * b for x in p] > [y * a for y in q]:
            (p, a), (q, b) = (q, b), (p, a)
        r = tuple(y * a - x * b for x, y in zip(p, q))
        return (Edge((p, a), r, sum(map(mul, g, r)), True),)
    base, (r,) = solve_integer(cell.eqs + kern, len(g))
    if any(sum(map(mul, c, r)) < 0 for c, _ in cell.stricts):
        r = tuple(-x for x in r)
    rays = [r] if ends else [r, tuple(-x for x in r)]
    return tuple(Edge(ends[0] if ends else base, v, sum(map(mul, g, v)), False) for v in rays)


def _relint_point(faces: CellFaces) -> tuple[list[int], int]:
    """(sum P_i + D sum R_j, D) with D = sum d_i, for the 0-faces P_i/d_i and
    ray directions R_j of a cut cell conv(V) + cone(R): the 0-faces weighted
    d_i/D plus the rays, a point of relint conv(V) + relint cone(R) with no
    common denominator to find; the start of a line, which has no 0-face."""
    if not faces.points:
        return faces.edges[0].start
    den = sum(d for (_, d), _ in faces.points)
    rays = ([den * x for x in e.direction] for e in faces.edges if not e.bounded)
    return [sum(col) for col in zip(*(p for (p, _), _ in faces.points), *rays)], den


def show_point(p) -> str:
    """An integer pair (P, d) printed as the point P/d: (1/2, -1/3)."""
    return f"({', '.join(map(str, rational_point(p)))})"

# ---------------------------------------------------------------------------
# construction


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _node_form(arow, b, rows, offs):
    """Integer affine form of one pre-activation in input coordinates, on a cell."""
    return tuple(sum(map(mul, arow, col)) for col in zip(*rows)), sum(map(mul, arow, offs)) + b


def _split_by_layer(work, m: int, n: int):
    """Refine every cell by the zero set of each node; extend labels.

    One ``form_signs`` projection per split finds whether the node's form is
    positive and whether negative on the cell's relative interior.  That set
    is convex and relatively open, so the form takes one value or an open
    interval on it, and vanishes on it iff both or neither.  A child's new
    row joins its ``cuts``, the rows the projections read, only when the
    form took both signs: else the row holds on all of the parent."""
    for i in range(m):
        nxt = []
        for label, eqs, ineqs, cuts, forms in work:
            g, k = forms[i]
            if not any(g):
                nxt.append((label + (_sign(k),), eqs, ineqs, cuts, forms))
                continue
            ge = canon_constraint(g, k)
            le = (tuple(-x for x in ge[0]), -ge[1])
            pos, neg = form_signs(n, eqs, cuts, ge)
            if pos:
                nxt.append((label + (1,), eqs, ineqs + (ge,), cuts + (ge,) * neg, forms))
            if pos == neg:
                eq = ge if next(x for x in g if x) > 0 else le
                nxt.append((label + (0,), eqs + (eq,), ineqs, cuts, forms))
            if neg:
                nxt.append((label + (-1,), eqs, ineqs + (le,), cuts + (le,) * pos, forms))
        work = nxt
    # ReLU: neurons labeled +1 pass through, the rest output zero
    off = ((0,) * n, 0)
    return [(label, eqs, ineqs, cuts,
             *map(tuple, zip(*(f if s > 0 else off for s, f in zip(label[-m:], forms)))))
            for label, eqs, ineqs, cuts, forms in work]


def _layer_stages(n: int, layers):
    """The cells of the partial complex before each layer of ``integer_layers``,
    in order, as (label, eqs, ineqs, cuts, forms): ``forms`` are the layer's
    node forms in input coordinates, int, positive multiples of the rational
    ones, so every sign, zero set and span is the rational one.  eqs = 0 with
    ineqs > 0, or with cuts > 0, cuts out the cell's relative interior.  Each
    hidden layer splits the cells only once the next stage is asked for."""
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    work = [((), (), (), (), ident, (0,) * n)]
    for li, layer in enumerate(layers):
        work = [(label, eqs, ineqs, cuts, [_node_form(a, b, rows, offs) for a, b in zip(*layer)])
                for label, eqs, ineqs, cuts, rows, offs in work]
        yield work
        if li + 1 < len(layers):
            work = _split_by_layer(work, len(layer[1]), n)


def build_complex(net: Network) -> CanonicalComplex:
    """Subdivide input space layer by layer into sign-labeled cells.

    Each nonzero row of W1 gives every cell an equality or a strict row
    along it, and every later normal, like F's gradient, combines rows of
    W1: each cell's lineality space is ker(W1) (all of input space with no
    hidden layer), so its dimension is found once."""
    n = net.n0
    witnesses: list[str] = []
    layers, sigma = integer_layers(net)
    stages = _layer_stages(n, layers)
    for li, work in enumerate(islice(stages, net.depth)):
        # node-map transversality: on a nonempty cell an affine form is
        # identically zero iff it lies in the span of the cell's equalities
        for label, eqs, _, _, forms in work:
            basis = echelon([[*c, o] for c, o in eqs])
            for ni, (g, k) in enumerate(forms):
                if spans(basis, (*g, k)):
                    witnesses.append(
                        f"node {ni} of hidden layer {li} is identically zero "
                        f"on the cell labeled {label}"
                    )
    lines = n - rank(layers[0][0]) if net.depth else n
    cells: dict[Label, LabeledCell] = {}
    for label, eqs, ineqs, _, ((g, k),) in next(stages):
        eqs, ineqs = tuple(sorted(set(eqs))), tuple(sorted(set(ineqs)))  # canonical rows
        basis = echelon([c for c, _ in eqs])
        dim, flat = n - len(basis[1]), spans(basis, g)
        grad, const = tuple(Fraction(x, sigma) for x in g), Fraction(k, sigma)
        cells[label] = LabeledCell(label, eqs, ineqs, grad, const, flat, dim, lines, (g, k))
    return CanonicalComplex(net, cells, witnesses)


# ---------------------------------------------------------------------------
# queries


def components(nodes, edges) -> list[list]:
    """Connected components of a graph by union-find.

    Components come in the order of their first node, and each lists its
    nodes in the given order.  Nodes are numbered once, so find steps hash
    nothing.
    """
    nodes = list(nodes)
    index: dict = {}
    ids = [index.setdefault(x, len(index)) for x in nodes]
    parent = list(range(len(index)))
    for a, b in edges:
        parent[find_root(parent, index[a])] = find_root(parent, index[b])
    groups: dict[int, list] = {}
    for x, k in zip(nodes, ids):
        groups.setdefault(find_root(parent, k), []).append(x)
    return list(groups.values())


def find_root(parent: list[int], k: int) -> int:
    """Root of node k in a union-find forest, halving the path walked."""
    while parent[k] != k:
        parent[k] = parent[parent[k]]
        k = parent[k]
    return k


def flat_cells(cx: CanonicalComplex) -> list[FlatComponent]:
    """Flat subcomplex, split into connected components at each level, sorted
    by level and labels; a component's cells are joined by their cofaces."""
    flats = set(cx.flat_labels)
    edges = [(lab, sup) for lab in cx.flat_labels for sup in cx.cofaces_of(lab) if sup in flats]
    return sorted(FlatComponent(cx.skeleton[labs[0]].points[0][1], tuple(sorted(labs)))
                  for labs in components(cx.flat_labels, edges))


def reference_direction(cx: CanonicalComplex, label: Label) -> Vec:
    """Stored direction along which a 1-cell's orientation is measured: a
    segment's from its smaller end, a ray's into the cell, and a line's with
    its first nonzero entry positive."""
    if cx.cells[label].dimension != 1:
        raise ValueError("reference_direction needs a 1-cell")
    if cx.kernel:  # then every 1-cell is a minimal cell, a line along ker(W1)
        return canonical_line_direction(cx.kernel[0])
    edges = cx.skeleton[label].edges
    if len(edges) == 2:
        return canonical_line_direction(edges[0].direction)
    return primitive_direction(edges[0].direction)


def edge_orientation(cx: CanonicalComplex, label: Label) -> str:
    """Does F increase, decrease, or stay constant along the reference direction."""
    cell = cx.cells[label]
    if cell.dimension != 1:
        raise ValueError(f"cell {label} has dimension {cell.dimension}, not 1")
    s = _sign(dot(cell.gradient, reference_direction(cx, label)))
    return {1: "increasing", -1: "decreasing", 0: "flat"}[s]


def census(cx: CanonicalComplex) -> dict[tuple[int, bool], int]:
    """Cell counts keyed by (dimension, bounded).  A cell is bounded when it
    has no line along ker(W1) and none of its 1-faces is a ray."""
    return dict(Counter((c.dimension, not cx.kernel and not cx.skeleton[lab].rays)
                        for lab, c in cx.cells.items()))


# ---------------------------------------------------------------------------
# network-level predicates


def is_generic(net: Network) -> Check:
    """Every small subset of each layer's solution sets meets in the expected
    dimension: k <= n0 of them in an affine subspace of codimension k (never
    empty, never degenerate), n0+1 of them in the empty set.  Deeper layers
    are checked cell by cell on the partial complex."""
    n, ((a, b), *_) = net.n0, integer_layers(net)[0]
    for size in range(1, min(len(b), n + 1) + 1):
        for T in combinations(range(len(b)), size):
            point, null = solve_integer([(a[i], b[i]) for i in T], n)
            if size <= n and (point is None or n - len(null) != size):
                return Check(False, f"hidden layer 0 nodes {T}: degenerate intersection")
            if size > n and point is not None:
                return Check(False, f"hidden layer 0 nodes {T}: common point {show_point(point)}")
    return _deep_genericity(net) if net.depth > 1 else Check(True)


def _deep_genericity(net: Network) -> Check:
    """Per-cell solution-set checks for layers past the first."""
    n = net.n0
    stages = islice(_layer_stages(n, integer_layers(net)[0]), 1, net.depth)
    for li, work in enumerate(stages, start=1):
        for label, eqs, _, cuts, forms in work:
            eq_normals = [c for c, _ in eqs]
            base = rank(eq_normals)
            for size in range(1, min(len(forms), n + 1) + 1):
                for T in combinations(range(len(forms)), size):
                    if not feasible(n, eqs=eqs + tuple(forms[i] for i in T), gts=cuts):
                        continue
                    if rank(eq_normals + [forms[i][0] for i in T]) != base + size:
                        return Check(False, f"hidden layer {li} nodes {T} on cell {label}: "
                                     "degenerate intersection")
    return Check(True)

