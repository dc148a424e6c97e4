"""Simplicial helpers that only the tests use.

``plmorse.homology`` takes the package's homology on cellular chains of the
compact models.  Its simplicial route (``triangulate``, ``complement_complex``,
``relative_betti``) stays there; these helpers build simplicial complexes by
hand and mark the order complex of a model, so that the tests can compare the
cellular ranks with the order-complex ranks.
"""

from plmorse.homology import SimplicialComplex, Simplex, Triangulation, barycentric_pair


def face_closure(tops) -> frozenset[Simplex]:
    out: set[Simplex] = set()
    stack = [tuple(sorted(s)) for s in tops]
    while stack:
        s = stack.pop()
        if s in out or not s:
            continue
        out.add(s)
        for i in range(len(s)):
            f = s[:i] + s[i + 1 :]
            if f and f not in out:
                stack.append(f)
    return frozenset(out)


def from_maximal(vertices, tops) -> SimplicialComplex:
    """The complex of the given simplices and all their faces."""
    return SimplicialComplex(tuple(vertices), face_closure(tops))


def dimension(sc: SimplicialComplex) -> int:
    return max((len(s) - 1 for s in sc.simplices), default=-1)


def k_simplices(sc: SimplicialComplex, k: int) -> list[Simplex]:
    return sorted(s for s in sc.simplices if len(s) == k + 1)


def barycentric(sc: SimplicialComplex) -> SimplicialComplex:
    return barycentric_pair(sc)[0]


def carried_simplices(tri: Triangulation, ids) -> frozenset[Simplex]:
    """Subcomplex of the triangulation covering the given model cells."""
    return face_closure([s for cid in ids for s in tri.by_cell[cid]])
