"""References for the compact models and their triangulation.

The hull model of a selection of refined pieces is the reference that the
bounded-subcomplex model in ``plmorse.compact`` is compared against.  Each
pointed piece is replaced by the convex hull of its vertices, and the model
is the union of those polytopes and all their faces, deduplicated by vertex
set.  Unbounded directions are dropped, which is a deformation retraction
for complexes whose components have full normal span.  Faces are found by
trying every d-subset of a polytope's vertices as a facet, and a cell's
faces in the model are the cells on a proper subset of its vertices.

The pulling triangulation is the reference for ``homology.triangulate``,
which takes the order complex of a model's face poset instead.

The extreme rays of a polyhedron, found by trying every subset of its
strict constraints that leaves a one-dimensional cone, are the reference
for the ray edges of ``CanonicalComplex.skeleton``, and through them for
``reference_direction`` and ``census``.
"""

from itertools import combinations

from plmorse.compact import CompactModel, ModelCell
from plmorse.geometry import dot, primitive_direction, rank, rref
from plmorse.homology import Triangulation

from linear_reference import nullspace_basis, solve_linear
from order_complex import from_maximal
from piece_geometry import piece_geometry


def row_space_basis(rows) -> list:
    """The nonzero rows of the reduced row echelon form: a basis of the row space."""
    return [tuple(r) for r in rref(rows)[0]]


def affine_rank(verts) -> int:
    vs = list(verts)
    return rank([tuple(a - b for a, b in zip(v, vs[0])) for v in vs[1:]])


def polytope_faces(verts, memo) -> set:
    """All nonempty faces of conv(verts), each as a frozenset of vertices."""
    verts = tuple(sorted(verts))
    key = frozenset(verts)
    got = memo.get(key)
    if got is not None:
        return got
    out = {key}
    d = affine_rank(verts)
    if d == 0:
        memo[key] = out
        return out
    n = len(verts[0])
    v0 = verts[0]
    basis = row_space_basis([tuple(a - b for a, b in zip(v, v0)) for v in verts[1:]])
    coord_rows = [tuple(b[i] for b in basis) for i in range(n)]
    lam = {v: solve_linear(coord_rows, [a - b for a, b in zip(v, v0)], d)[0] for v in verts}
    for t in combinations(verts, d):
        dirs = [tuple(a - b for a, b in zip(lam[u], lam[t[0]])) for u in t[1:]]
        ns = nullspace_basis(dirs, d)
        if len(ns) != 1:
            continue
        eta = ns[0]
        base = dot(eta, lam[t[0]])
        svals = [dot(eta, lam[v]) - base for v in verts]
        if all(s >= 0 for s in svals) or all(s <= 0 for s in svals):
            face = tuple(v for v, s in zip(verts, svals) if s == 0)
            if len(face) < len(verts):
                out |= polytope_faces(face, memo)
    memo[key] = out
    return out


def rays(poly) -> list:
    """Extreme rays of a pointed polyhedron's recession cone, as sorted
    primitive integer directions."""
    if not poly.nonempty:
        return []
    if not poly.pointed:
        raise ValueError("ray enumeration on an unpointed polyhedron")
    eqs, stricts = poly.relint_system
    eq_rows = [c for c, _ in eqs]
    need = poly.n - rank(eq_rows) - 1
    if need < 0:
        return []
    ineq_rows = [c for c, _ in stricts]

    def in_cone(d):
        return all(dot(r, d) == 0 for r in eq_rows) and all(dot(r, d) >= 0 for r in ineq_rows)

    found = set()
    for subset in combinations(ineq_rows, need):
        rows = eq_rows + list(subset)
        if rank(rows) != poly.n - 1:
            continue
        null = nullspace_basis(rows, poly.n)
        if len(null) != 1:
            continue
        for cand in (null[0], tuple(-x for x in null[0])):
            if not in_cone(cand):
                continue
            tight = eq_rows + [r for r in ineq_rows if dot(r, cand) == 0]
            if rank(tight) == poly.n - 1:
                found.add(primitive_direction(cand))
    return sorted(found)


def bounded(poly) -> bool:
    """Whether a polyhedron is a polytope: empty, or pointed with no ray."""
    return not poly.nonempty or (poly.pointed and not rays(poly))


class HullModel(CompactModel):
    """A hull model, whose vertices are points.  ``sources`` maps each cell
    to every piece whose hull has it as a face, and a cell is marked when
    one of them is; a cell's ``key`` is its lowest-dimensional source."""

    def __init__(self, vertices, cells, sources):
        super().__init__(vertices, cells)
        self.sources = sources

    def cells_with_source(self, keys) -> frozenset:
        keys = frozenset(keys)
        return frozenset(cid for cid, src in self.sources.items() if src & keys)


def hull_compact_part(pieces) -> HullModel:
    """Union of the pieces' vertex hulls and all their faces; every piece
    must be pointed.  Vertices are taken from each piece's H-representation."""
    memo: dict = {}
    sources: dict = {}
    dims = {}
    for p in pieces:
        geo = piece_geometry(p)
        if not geo.pointed:
            raise ValueError(f"cell {p.source} over F-interval {p.interval} is unpointed")
        dims[p.key] = p.dimension
        for face in polytope_faces(tuple(geo.vertices), memo):
            sources.setdefault(face, set()).add(p.key)
    all_verts = sorted({v for face in sources for v in face})
    vid = {v: i for i, v in enumerate(all_verts)}
    ids = {face: frozenset(vid[v] for v in face) for face in sources}
    cells = {}
    for face, src in sources.items():
        below = frozenset(ids[f] for f in sources if f < face)
        key = min(src, key=lambda k: (dims[k], k))
        cells[ids[face]] = ModelCell(ids[face], affine_rank(sorted(face)), key, below)
    return HullModel(all_verts, cells, {ids[face]: frozenset(src) for face, src in sources.items()})


def pulling_triangulation(model) -> Triangulation:
    """Pulling triangulation of a compact polytopal model, no new vertices.

    Each cell is coned from its minimal vertex over the triangulations of the
    facets missing that vertex, so shared faces get identical simplices.
    by_cell maps each model cell id to its top-dimensional simplices.
    """
    cells = model.cells
    tops: dict = {}
    for cid, c in sorted(cells.items(), key=lambda kv: (kv[1].dimension, sorted(kv[0]))):
        d = c.dimension
        if d == 0:
            tops[cid] = (tuple(cid),)
            continue
        v0 = min(cid)
        out = set()
        for fid, f in cells.items():
            if f.dimension == d - 1 and fid < cid and v0 not in fid:
                for s in tops[fid]:
                    out.add(tuple(sorted((v0,) + s)))
        if not out:
            raise RuntimeError(f"cell {sorted(cid)} has no facet missing its minimal vertex")
        tops[cid] = tuple(sorted(out))
    all_tops = [s for ts in tops.values() for s in ts]
    sc = from_maximal(model.vertices, all_tops)
    return Triangulation(sc, tops)
