import math
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmorse.compact import CompactModel, ModelCell, RefinedCell, sublevel_model
from plmorse.complexes import build_complex
from plmorse.complexes import CellFaces, LabeledCell
from plmorse.geometry import Polyhedron
from plmorse.homology import (
    CellularComplex,
    NotFullError,
    OracleResult,
    SimplicialComplex,
    SimplicialPair,
    _grid_rows,
    _union_counts,
    barycentric_pair,
    betti,
    complement_complex,
    grid_oracle,
    relative_betti,
    sparse_rank,
    triangulate,
)
from plmorse.network import (
    AffineLayer,
    Network,
    build_fan_network,
    integer_layers,
    random_network,
)

from hull_model import hull_compact_part
from order_complex import (
    barycentric,
    carried_simplices,
    dimension,
    face_closure,
    from_maximal,
    k_simplices,
)

F = Fraction


def model_of(poly: Polyhedron):
    """The polytope with all its faces, by the hull model."""
    cell = LabeledCell((1,), poly.eqs, poly.ges, (F(0),) * poly.n, F(0), True, poly.dim, 0)
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
    return from_maximal(
        pts((0, 0), (1, 0), (0, 1)), [(0, 1), (1, 2), (0, 2)]
    )


def filled_triangle():
    return from_maximal(pts((0, 0), (1, 0), (0, 1)), [(0, 1, 2)])


def annulus():
    verts = pts(
        (2, 2), (-2, 2), (-2, -2), (2, -2), (1, 1), (-1, 1), (-1, -1), (1, -1)
    )
    tops = []
    for k in range(4):
        a, b = k, (k + 1) % 4
        tops.append((a, b, a + 4))
        tops.append((b, a + 4, (b % 4) + 4))
    return from_maximal(verts, tops)


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
    return tuple(len(k_simplices(sc, k)) for k in range(dimension(sc) + 1))


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
    """The order complex and the cellular chains run the same face check."""
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
        for build in (triangulate, CellularComplex):
            with pytest.raises(RuntimeError, match=re.escape(f"cell {sorted(cid)} lists face")):
                build(CompactModel(model.vertices, bad))


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
    two_points = from_maximal(pts((0, 0), (1, 0)), [(0,), (1,)])
    assert betti(two_points) == (2,)
    assert betti(annulus()) == (1, 1)


def test_barycentric_subdivision_counts():
    sd = barycentric(filled_triangle())
    assert len(sd.vertices) == 7
    assert len(k_simplices(sd, 2)) == 6
    edge = from_maximal(pts((0, 0), (1, 0)), [(0, 1)])
    sd_edge = barycentric(edge)
    assert sd_edge.vertices == ((0,), (1,), (0, 1))
    assert len(k_simplices(sd_edge, 1)) == 2


def test_barycentric_preserves_betti():
    assert betti(barycentric(hollow_triangle())) == (1, 1)
    assert betti(barycentric(annulus())) == (1, 1)


def test_relative_betti_examples():
    x = filled_triangle()
    boundary = face_closure([(0, 1), (1, 2), (0, 2)])
    assert relative_betti(SimplicialPair(x, boundary)) == (0, 0, 1)
    edge = from_maximal(pts((0, 0), (1, 0)), [(0, 1)])
    ends = frozenset({(0,), (1,)})
    assert relative_betti(SimplicialPair(edge, ends)) == (0, 1)
    a = annulus()
    assert relative_betti(SimplicialPair(a, frozenset())) == betti(a)


def test_relative_betti_euler_and_rank_bounds():
    x = filled_triangle()
    pairs = [
        (x, face_closure([(0, 1), (1, 2), (0, 2)])),
        (
            from_maximal(pts((0, 0), (1, 0)), [(0, 1)]),
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
    edge = from_maximal(pts((0, 0), (1, 0)), [(0, 1)])
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


def simplicial_model(tops, top_cell=False) -> CompactModel:
    """A model whose cells are the simplices spanned by tops and all their
    faces; with top_cell, one more cell on all the vertices, of one dimension
    more, whose faces are all of those."""
    simplices = sorted(face_closure(tops), key=len)
    cells = {}
    for s in simplices:
        below = frozenset(frozenset(f) for f in simplices if len(f) < len(s) and set(f) < set(s))
        cells[frozenset(s)] = ModelCell(frozenset(s), len(s) - 1, None, below)
    verts = frozenset(v for s in simplices for v in s)
    if top_cell:
        cells[verts] = ModelCell(verts, len(simplices[-1]), None, frozenset(cells))
    return CompactModel(tuple((F(v),) for v in range(max(verts) + 1)), cells)


def top_cell(model):
    return max(model.cells, key=lambda cid: model.cells[cid].dimension)


def test_cellular_betti_of_polygons():
    for model in (square_model(), hexagon_model()):
        chains = CellularComplex(model)
        rim = model.cells[top_cell(model)].faces
        assert chains.betti() == (1,)
        assert chains.betti(rim) == (1, 1)
        assert chains.relative_betti(rim) == (0, 0, 1)
        assert chains.relative_betti(model.cells) == ()
        assert chains.relative_betti(frozenset()) == (1,)


def test_cellular_incidences_follow_the_face_poset():
    model = square_model()
    bd = CellularComplex(model).boundary
    for cid, c in model.cells.items():
        if c.dimension == 1:
            lo, hi = sorted(cid)
            assert bd[cid] == {frozenset({lo}): -1, frozenset({hi}): 1}
    top = top_cell(model)
    first = min((f for f in bd[top]), key=sorted)
    assert bd[top][first] == 1 and len(bd[top]) == 4


@pytest.mark.parametrize(
    "make",
    [
        square_model,
        hexagon_model,
        lambda: sublevel_model(build_complex(build_fan_network(2)), F(1, 2)),
        lambda: sublevel_model(build_complex(random_network((3, 3, 1), 3)), F(0)),
    ],
    ids=["square", "hexagon", "fan2", "331s3"],
)
def test_cellular_boundary_squares_to_zero(make):
    """d(d(c)) = 0 on every cell, the augmentation of the 0-cells included."""
    model = make()
    bd = CellularComplex(model).boundary
    assert model.dim >= 2
    for cid in model.cells:
        twice: dict = {}
        for f, a in bd[cid].items():
            for r, b in bd.get(f, {}).items():
                twice[r] = twice.get(r, 0) + a * b
        assert not any(twice.values()), sorted(cid)


def test_cellular_local_betti_examples():
    path = CellularComplex(simplicial_model([(0, 1), (1, 2)]))
    assert path.local_betti({frozenset({1})}) == (0, 1)
    assert path.local_betti({frozenset({0})}) == ()
    disk = CellularComplex(simplicial_model([(6, i, (i + 1) % 6) for i in range(6)]))
    assert disk.local_betti({frozenset({6})}) == (0, 0, 1)
    assert disk.local_betti({frozenset({0})}) == ()
    square = square_model()
    assert CellularComplex(square).local_betti(square.cells) == (1,)


def test_cellular_rejects_a_ridge_in_one_facet():
    """The square lists three of its four edges, so two of its corners lie
    in one facet each."""
    model = square_model()
    top = top_cell(model)
    edge = next(f for f in model.cells[top].faces if len(f) == 2)
    bad = dict(model.cells)
    bad[top] = replace(bad[top], faces=bad[top].faces - {edge})
    with pytest.raises(RuntimeError, match=re.escape(f"cell {sorted(top)} has ridge")):
        CellularComplex(CompactModel(model.vertices, bad))


def test_cellular_rejects_a_disconnected_facet_graph():
    """A 2-cell whose facets form two disjoint triangles."""
    loops = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    with pytest.raises(RuntimeError, match=re.escape("facet graph of cell [0, 1, 2, 3, 4, 5]")):
        CellularComplex(simplicial_model(loops, top_cell=True))


def test_cellular_rejects_a_facet_reached_with_both_signs():
    """A 3-cell whose facets form the six-vertex projective plane: every
    ridge lies in two facets, but the surface has no orientation."""
    rp2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
           (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    message = r"cell \[0, 1, 2, 3, 4, 5\] reaches facet .* with both signs"
    with pytest.raises(RuntimeError, match=message):
        CellularComplex(simplicial_model(rp2, top_cell=True))


def test_local_betti_rejects_a_cell_meeting_k_in_two_faces():
    """Two opposite corners of a square: K is vertex-full, but the square
    meets it in two vertices, so the cells that miss K are not a deformation
    retract of the square minus K."""
    model = square_model()
    top = top_cell(model)
    corner = frozenset({min(top)})
    opposite = next(
        frozenset({v}) for v in top if not any({min(top), v} == set(e) for e in model.cells)
    )
    with pytest.raises(RuntimeError, match=re.escape(f"cell {sorted(top)} outside K meets K")):
        CellularComplex(model).local_betti({corner, opposite})


def test_cellular_rejects_marks_that_are_not_down_sets():
    model = square_model()
    edge = next(cid for cid, c in model.cells.items() if c.dimension == 1)
    chains = CellularComplex(model)
    for call in (chains.betti, chains.relative_betti, chains.local_betti):
        with pytest.raises(RuntimeError, match=re.escape(f"cell {sorted(edge)} is marked")):
            call({edge})
    with pytest.raises(RuntimeError, match=re.escape(f"cell {sorted(edge)} is marked")):
        chains.relative_betti(set(), {edge})


def test_cellular_relative_betti_inside_an_outer_down_set():
    """H(A, B) for down-sets B inside A: the whole model by default, and a
    B outside A is refused."""
    model = square_model()
    chains = CellularComplex(model)
    rim = model.cells[top_cell(model)].faces
    corner = next(cid for cid in rim if len(cid) == 1)
    assert chains.relative_betti(rim, model.cells) == chains.relative_betti(rim) == (0, 0, 1)
    assert chains.relative_betti({corner}, rim) == (0, 1)
    assert chains.relative_betti(rim, rim) == ()
    with pytest.raises(ValueError, match="inner down-set is not inside the outer one"):
        chains.relative_betti(rim, {corner})


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


@pytest.mark.parametrize("mode, c", [
    ("band", (F(-1, 3), F(0), F(1, 3))),
    ("band", (F(1, 3),)),
    ("band", F(1, 3)),
    ("sublevel", (F(-1, 3), F(1, 3))),
    ("superlevel", [F(1, 3)]),
])
def test_grid_oracle_rejects_thresholds_that_do_not_fit_the_mode(mode, c):
    with pytest.raises(ValueError, match=f"{mode} mode needs"):
        grid_oracle(one_bend_net(), mode, c, F(1, 4), 4)


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
    return betti(from_maximal(tuple(vid), tris)), len(tris) // 2


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
    "affine_2_1_seed1": (random_network((2, 1), 1), 3, F(1, 4), {
        ("sublevel", F(0)): (1,),
        ("superlevel", F(0)): (1,),
        ("band", (F(-1, 2), F(1, 2))): (1,),
    }),
    "deep_2_3_3_1_seed2": (random_network((2, 3, 3, 1), 2), 3, F(1, 4), {
        ("sublevel", F(0)): None,
        ("superlevel", F(0)): None,
        ("band", (F(-1, 2), F(1, 2))): None,
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


def dead_unit_net():
    """A hidden unit with an all-zero weight row and negative bias (dead
    everywhere), one with a zero row and positive bias, and one dead on the
    grid below."""
    return Network(
        (
            AffineLayer.make([[0, 0], [1, -1], [0, 0], [1, 0]], [2, 0, -1, -10], "relu"),
            AffineLayer.make([[1, F(1, 2), 3, 5]], [-1], "none"),
        )
    )


def zero_weight_net():
    return Network(
        (
            AffineLayer.make([[1, 0], [F(-2, 3), 1]], [F(1, 5), 0], "relu"),
            AffineLayer.make([[0, 2], [1, -1]], [1, 0], "relu"),
            AffineLayer.make([[3, 0]], [F(-1, 7)], "none"),
        )
    )


GRID_ROW_NETS = {
    "affine_2_1": lambda: random_network((2, 1), 1),
    "dead_unit": dead_unit_net,
    "zero_weight": zero_weight_net,
    "random_2_3_3_1": lambda: random_network((2, 3, 3, 1), 2),
    "golden_2_2_2_1_seed5": lambda: random_network((2, 2, 2, 1), 5),
    "fan1": lambda: build_fan_network(1),
    "abs_sum": abs_sum_net,
}


@pytest.mark.parametrize("name", sorted(GRID_ROW_NETS))
def test_grid_rows_match_network_evaluate(name):
    """Row i of _grid_rows is sigma * F(X/q) at (xs[i], xs[j]) for every j,
    where integer_layers(net, q) gives F = G/sigma."""
    net = GRID_ROW_NETS[name]()
    q = 6
    xs = list(range(-3 * q, 3 * q + 1, 3))
    layers, sigma = integer_layers(net, q)
    rows = list(_grid_rows(layers, xs))
    assert len(rows) == len(xs)
    for x, row in zip(xs, rows):
        assert row == [sigma * net.evaluate((F(x, q), F(y, q)))[0] for y in xs], x


_BASE_FACES = face_closure([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 5)])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(sorted(_BASE_FACES)), min_size=1, max_size=8))
def test_subdivision_preserves_betti(tops):
    verts = tuple(tuple(F(1) if j == i else F(0) for j in range(6)) for i in range(6))
    sc = from_maximal(verts, tops)
    assert betti(barycentric(sc)) == betti(sc)
