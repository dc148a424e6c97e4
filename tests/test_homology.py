import math
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmorse.compact import CompactModel, RefinedCell
from plmorse.complexes import CellFaces, LabeledCell
from plmorse.geometry import Polyhedron
from plmorse.homology import (
    NotFullError,
    OracleResult,
    SimplicialComplex,
    SimplicialPair,
    _union_counts,
    barycentric,
    barycentric_pair,
    betti,
    carried_simplices,
    complement_complex,
    face_closure,
    grid_oracle,
    relative_betti,
    sparse_rank,
    triangulate,
)
from plmorse.network import AffineLayer, Network, build_fan_network, random_network

from hull_model import hull_compact_part

F = Fraction


def model_of(poly: Polyhedron):
    """The polytope with all its faces, by the hull model."""
    cell = LabeledCell((1,), poly, (F(0),) * poly.n, F(0), True, poly.dim)
    faces = CellFaces(tuple((v, F(0)) for v in poly.vertices), ())
    piece = RefinedCell(cell, (None, None), 0, faces)
    return hull_compact_part([piece])


def square_model():
    return model_of(
        Polyhedron(2, ges=[((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 1)])
    )


def hexagon_model():
    ges = [
        ((-2, -1), 2),
        ((-2, 1), 2),
        ((2, 1), 2),
        ((2, -1), 2),
        ((0, -1), 1),
        ((0, 1), 1),
    ]
    return model_of(Polyhedron(2, ges=ges))


def pts(*coords):
    return tuple(tuple(F(x) for x in p) for p in coords)


def hollow_triangle():
    return SimplicialComplex.from_maximal(
        pts((0, 0), (1, 0), (0, 1)), [(0, 1), (1, 2), (0, 2)]
    )


def filled_triangle():
    return SimplicialComplex.from_maximal(pts((0, 0), (1, 0), (0, 1)), [(0, 1, 2)])


def annulus():
    verts = pts(
        (2, 2), (-2, 2), (-2, -2), (2, -2), (1, 1), (-1, 1), (-1, -1), (1, -1)
    )
    tops = []
    for k in range(4):
        a, b = k, (k + 1) % 4
        tops.append((a, b, a + 4))
        tops.append((b, a + 4, (b % 4) + 4))
    return SimplicialComplex.from_maximal(verts, tops)


def test_face_closure_of_triangle():
    assert face_closure([(2, 0, 1)]) == frozenset(
        {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}
    )


def test_sparse_rank():
    assert sparse_rank([]) == 0
    assert sparse_rank([{}]) == 0
    assert sparse_rank([{0: 1}, {1: 1}]) == 2
    assert sparse_rank([{0: 2, 1: 4}, {0: 3, 1: 6}]) == 1
    assert sparse_rank([{0: 2}, {1: 3}]) == 2
    assert sparse_rank([{0: 2, 1: 3}, {0: 4, 1: 1, 2: 5}, {0: 6, 1: 4, 2: 5}]) == 2


def f_vector(sc: SimplicialComplex):
    return tuple(len(sc.k_simplices(k)) for k in range(sc.dim + 1))


def test_triangulate_square_into_eight_triangles():
    model = square_model()
    tri = triangulate(model)
    assert f_vector(tri.complex) == (9, 16, 8)
    assert betti(tri.complex) == (1,)
    top = next(cid for cid, c in model.cells.items() if c.dimension == 2)
    # a vertex per cell, the square last; its chains are the 8 flags v < e < square
    assert tri.complex.vertices[-1] == (0, 1, 2, 3)
    assert sum(len(s) == 3 for s in tri.by_cell[top]) == 8
    assert all(s[-1] == 8 for s in tri.by_cell[top])


def test_triangulate_hexagon_into_twelve_triangles():
    model = hexagon_model()
    tri = triangulate(model)
    assert f_vector(tri.complex) == (13, 24, 12)
    assert betti(tri.complex) == (1,)
    top = next(cid for cid, c in model.cells.items() if c.dimension == 2)
    assert sum(len(s) == 3 for s in tri.by_cell[top]) == 12


def test_triangulate_segment_into_two_edges():
    model = model_of(Polyhedron(1, ges=[((1,), 0), ((-1,), 1)]))
    tri = triangulate(model)
    assert f_vector(tri.complex) == (3, 2)
    assert betti(tri.complex) == (1,)
    assert tri.complex.simplices == frozenset({(0,), (1,), (2,), (0, 2), (1, 2)})


def test_triangulate_rejects_corrupted_faces():
    model = square_model()
    cells = model.cells
    top = next(cid for cid, c in cells.items() if c.dimension == 2)
    edge = next(cid for cid, c in cells.items() if c.dimension == 1)
    off = min(top - edge)
    corruptions = [
        (top, cells[top].faces | {frozenset({9})}),  # not a model cell
        (edge, cells[edge].faces | {top}),  # a cell of higher dimension
        (edge, cells[edge].faces | {edge}),  # the cell itself
        (edge, cells[edge].faces | {frozenset({off})}),  # a vertex off the edge
    ]
    for cid, faces in corruptions:
        bad = dict(cells)
        bad[cid] = replace(cells[cid], faces=faces)
        with pytest.raises(RuntimeError, match=re.escape(f"cell {sorted(cid)} lists face")):
            triangulate(CompactModel(model.vertices, bad))


def test_triangulate_is_deterministic():
    t1 = triangulate(hexagon_model())
    t2 = triangulate(hexagon_model())
    assert t1.complex == t2.complex
    assert t1.by_cell == t2.by_cell


def test_carried_simplices():
    model = square_model()
    tri = triangulate(model)
    assert carried_simplices(tri, model.cells) == tri.complex.simplices
    verts = [cid for cid, c in model.cells.items() if c.dimension == 0]
    assert carried_simplices(tri, verts) == frozenset({(0,), (1,), (2,), (3,)})


def test_betti_basics():
    assert betti(SimplicialComplex((), frozenset())) == ()
    assert betti(hollow_triangle()) == (1, 1)
    assert betti(filled_triangle()) == (1,)
    two_points = SimplicialComplex.from_maximal(pts((0, 0), (1, 0)), [(0,), (1,)])
    assert betti(two_points) == (2,)
    assert betti(annulus()) == (1, 1)


def test_barycentric_subdivision_counts():
    sd = barycentric(filled_triangle())
    assert len(sd.vertices) == 7
    assert len(sd.k_simplices(2)) == 6
    edge = SimplicialComplex.from_maximal(pts((0, 0), (1, 0)), [(0, 1)])
    sd_edge = barycentric(edge)
    assert sd_edge.vertices == ((0,), (1,), (0, 1))
    assert len(sd_edge.k_simplices(1)) == 2


def test_barycentric_preserves_betti():
    assert betti(barycentric(hollow_triangle())) == (1, 1)
    assert betti(barycentric(annulus())) == (1, 1)


def test_relative_betti_examples():
    x = filled_triangle()
    boundary = face_closure([(0, 1), (1, 2), (0, 2)])
    assert relative_betti(SimplicialPair(x, boundary)) == (0, 0, 1)
    edge = SimplicialComplex.from_maximal(pts((0, 0), (1, 0)), [(0, 1)])
    ends = frozenset({(0,), (1,)})
    assert relative_betti(SimplicialPair(edge, ends)) == (0, 1)
    a = annulus()
    assert relative_betti(SimplicialPair(a, frozenset())) == betti(a)


def test_relative_betti_euler_and_rank_bounds():
    x = filled_triangle()
    pairs = [
        (x, face_closure([(0, 1), (1, 2), (0, 2)])),
        (
            SimplicialComplex.from_maximal(pts((0, 0), (1, 0)), [(0, 1)]),
            frozenset({(0,), (1,)}),
        ),
    ]
    for sc, sub in pairs:
        rel = relative_betti(SimplicialPair(sc, sub))
        bx = betti(sc)
        ba = betti(SimplicialComplex(sc.vertices, frozenset(sub)))
        chi = lambda bs: sum((-1) ** i * b for i, b in enumerate(bs))
        assert chi(bx) == chi(ba) + chi(rel)
        for i, b in enumerate(rel):
            below = ba[i - 1] if 0 < i <= len(ba) else 0
            here = bx[i] if i < len(bx) else 0
            assert b <= below + here


def test_relative_betti_of_model_boundary():
    model = hexagon_model()
    tri = triangulate(model)
    top = next(c for c in model.cells.values() if c.dimension == 2)
    sub = carried_simplices(tri, top.faces)
    assert betti(SimplicialComplex(tri.complex.vertices, sub)) == (1, 1)
    assert relative_betti(SimplicialPair(tri.complex, sub)) == (0, 0, 1)


def test_barycentric_pair_maps_subcomplex():
    x = filled_triangle()
    boundary = face_closure([(0, 1), (1, 2), (0, 2)])
    sd, sd_sub = barycentric_pair(x, boundary)
    assert len(sd_sub) == 12
    assert relative_betti(SimplicialPair(sd, sd_sub)) == (0, 0, 1)


def test_complement_deformation_retract():
    edge = SimplicialComplex.from_maximal(pts((0, 0), (1, 0)), [(0, 1)])
    assert complement_complex(edge, frozenset({(0,)})) == frozenset({(1,)})
    hollow = hollow_triangle()
    away = complement_complex(hollow, frozenset({(0,)}))
    assert away == frozenset({(1,), (2,), (1, 2)})
    assert betti(SimplicialComplex(hollow.vertices, away)) == (1,)
    assert complement_complex(hollow, hollow.simplices) == frozenset()


def test_complement_rejects_non_full_subcomplex():
    x = filled_triangle()
    partial = face_closure([(0, 1), (1, 2)])
    with pytest.raises(NotFullError):
        complement_complex(x, partial)


def one_bend_net():
    return Network(
        (
            AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
            AffineLayer.make([[1, 1]], [0], "none"),
        )
    )


def test_grid_oracle_sublevel_values():
    res = grid_oracle(one_bend_net(), "sublevel", F(1, 3), F(1, 4), 4)
    assert res.betti == (1,)
    assert res.margin >= F(1, 12)
    assert res.squares > 0
    fan1 = build_fan_network(1)
    assert grid_oracle(fan1, "sublevel", F(-1, 4), F(1, 8), 4).betti == (2,)
    assert grid_oracle(fan1, "sublevel", F(1, 4), F(1, 8), 4).betti == (1,)


def test_grid_oracle_band_and_superlevel():
    net = one_bend_net()
    assert grid_oracle(net, "band", (F(-1, 3), F(1, 3)), F(1, 4), 4).betti == (1,)
    assert grid_oracle(net, "superlevel", F(1, 3), F(1, 4), 4).betti == (1,)


def test_grid_oracle_rejects_bad_input():
    one_input = Network(
        (
            AffineLayer.make([[1]], [0], "relu"),
            AffineLayer.make([[1]], [0], "none"),
        )
    )
    with pytest.raises(ValueError, match="two-input"):
        grid_oracle(one_input, "sublevel", 0, F(1, 4), 4)
    with pytest.raises(ValueError, match="mode"):
        grid_oracle(one_bend_net(), "level", 0, F(1, 4), 4)
    with pytest.raises(ValueError, match="resolution"):
        grid_oracle(one_bend_net(), "sublevel", 0, 0, 4)
    for box in (0, -1):
        with pytest.raises(ValueError, match="box must be positive"):
            grid_oracle(one_bend_net(), "sublevel", 0, F(1, 4), box)
    with pytest.raises(ValueError, match="lo <= hi"):
        grid_oracle(one_bend_net(), "band", (F(1, 3), F(-1, 3)), F(1, 4), 4)


def triangulated_union(ok):
    """Betti numbers and count of the closed grid squares whose four corners
    pass in ok, by triangulating the squares and taking ranks."""
    vid: dict = {}
    tris = []
    for i in range(len(ok) - 1):
        for j in range(len(ok[0]) - 1):
            corners = [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)]
            if all(ok[x][y] for x, y in corners):
                a, p, q, d = (vid.setdefault(k, len(vid)) for k in corners)
                tris += [(a, p, d), (a, q, d)]
    return betti(SimplicialComplex.from_maximal(tuple(vid), tris)), len(tris) // 2


def reference_oracle(net, mode, c, resolution, box) -> OracleResult:
    """grid_oracle by the direct route: a Fraction value at every grid point,
    the passing squares triangulated, and Betti numbers by rank."""
    r, b = F(resolution), F(box)
    if mode == "band":
        lo, hi = F(c[0]), F(c[1])
        passes = lambda v: lo <= v <= hi
        dist = lambda v: min(abs(v - lo), abs(v - hi))
    else:
        t = F(c)
        passes = (lambda v: v <= t) if mode == "sublevel" else (lambda v: v >= t)
        dist = lambda v: abs(v - t)
    grid = range(math.ceil(2 * b / r) + 1)
    values = {(i, j): net.evaluate((-b + i * r, -b + j * r))[0] for i in grid for j in grid}
    bs, squares = triangulated_union([[passes(values[i, j]) for j in grid] for i in grid])
    return OracleResult(bs, min(dist(v) for v in values.values()), squares)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda w: st.lists(st.lists(st.booleans(), min_size=w, max_size=w), min_size=2, max_size=7)
    )
)
def test_union_counts_match_triangulated_squares(ok):
    """Squares touching at a corner only, holes and empty grids included."""
    b0, corners, sides, squares = _union_counts(ok)
    bs, want_squares = triangulated_union(ok)
    assert squares == want_squares
    assert (b0, b0 - (corners - sides + squares)) == (*bs, 0, 0)[:2]


def abs_sum_net():
    """|x| + |y|: its superlevel sets in a box are annuli."""
    return Network(
        (
            AffineLayer.make([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 0, 0], "relu"),
            AffineLayer.make([[1, 1, 1, 1]], [0], "none"),
        )
    )


# name: (net, box, resolution, {(mode, threshold): Betti numbers or None})
ORACLE_CASES = {
    "fan1": (build_fan_network(1), 2, F(1, 8), {
        ("sublevel", F(-1, 4)): (2,),
        ("superlevel", F(-1, 4)): None,
        ("band", (F(-1, 4), F(1, 4))): None,
    }),
    "abs_hole": (abs_sum_net(), 3, F(1, 4), {
        ("sublevel", F(9, 8)): (1,),
        ("superlevel", F(9, 8)): (1, 1),
        ("band", (F(9, 8), F(17, 8))): (1, 1),
    }),
    "deep_2_2_2_1_seed5": (random_network((2, 2, 2, 1), 5), 3, F(1, 4), {
        ("sublevel", F(0)): None,
        ("superlevel", F(1, 5)): None,
        ("band", (F(-1, 5), F(1, 5))): None,
    }),
    "box_off_grid": (build_fan_network(1), F(7, 3), F(1, 4), {
        ("sublevel", F(-1, 3)): None,
        ("superlevel", F(-1, 3)): None,
        ("band", (F(-1, 3), F(1, 2))): None,
    }),
    "empty": (abs_sum_net(), 2, F(1, 4), {
        ("sublevel", F(-1)): (),
        ("superlevel", F(5)): (),
        ("band", (F(5), F(6))): (),
    }),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_grid_oracle_matches_triangulated_reference(name):
    net, box, res, calls = ORACLE_CASES[name]
    for (mode, c), want in calls.items():
        got = grid_oracle(net, mode, c, res, box)
        assert got == reference_oracle(net, mode, c, res, box), (mode, c)
        if want is not None:
            assert got.betti == want, (mode, c)


_BASE_FACES = face_closure([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 5)])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(sorted(_BASE_FACES)), min_size=1, max_size=8))
def test_subdivision_preserves_betti(tops):
    verts = tuple(tuple(F(1) if j == i else F(0) for j in range(6)) for i in range(6))
    sc = SimplicialComplex.from_maximal(verts, tops)
    assert betti(barycentric(sc)) == betti(sc)
