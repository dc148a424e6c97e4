"""Complex construction, labels, flats, orientations, census, predicates."""

import re
import time
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmorse import complexes
from plmorse.complexes import (
    _deep_genericity,
    build_complex,
    census,
    components,
    edge_orientation,
    flat_cells,
    is_generic,
    reference_direction,
)
from plmorse.geometry import (
    Polyhedron,
    canonical_line_direction,
    dot,
    feasible,
    form_signs,
    primitive_direction,
    rational_point,
    vec,
)
from plmorse.morse import analyze
from plmorse.network import (
    AffineLayer,
    Network,
    build_coarse_bound_network,
    build_fan_network,
    integer_layers,
    load_network,
    prescribe_edge_orientations,
    random_network,
)

import build_reference
from face_reference import scan_faces
from fm_reference import contained
from hull_model import bounded, rays
from linear_reference import nullspace_basis, solve_linear
from net_helpers import (
    ANALYZE_CORPUS_NETS,
    activation_pattern,
    concurrent_rational_lines,
    generic_line_counts,
    negate,
)
from piece_geometry import cell_geometry
from queries import is_transversal, zero_cells

F = Fraction


def form_at(cell, point) -> Fraction:
    """F at a point of the cell's closure, from its rational form."""
    return dot(cell.gradient, point) + cell.constant


def n1_network():
    return Network(
        (
            AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
            AffineLayer.make([[1, 1]], [0], "none"),
        )
    )


def three_line_network(out=(2, -3, 1)):
    """Rows x=0, y=0, x+y=1; output weights as given."""
    return Network(
        (
            AffineLayer.make([[1, 0], [0, -1], [-1, -1]], [0, 0, 1], "relu"),
            AffineLayer.make([list(out)], [0], "none"),
        )
    )


def test_components_keep_node_order():
    nodes = ["e", "a", "d", "b", "c", "f"]
    edges = [("a", "c"), ("d", "e"), ("c", "f")]
    assert components(nodes, edges) == [["e", "d"], ["a", "c", "f"], ["b"]]
    assert components([], []) == []


def test_n1_cell_counts():
    cx = build_complex(n1_network())
    assert len(cx.cells) == 9
    assert len(cx.cells_of_dim(2)) == 4
    assert len(cx.cells_of_dim(1)) == 4
    assert len(cx.cells_of_dim(0)) == 1


def test_n1_zero_cells():
    cx = build_complex(n1_network())
    assert zero_cells(cx) == [(vec((0, 0)), F(0))]


def test_n1_flat_component_is_third_quadrant():
    cx = build_complex(n1_network())
    comps = flat_cells(cx)
    assert len(comps) == 1
    comp = comps[0]
    assert comp.level == 0
    assert set(comp.labels) == {(-1, -1), (-1, 0), (0, -1), (0, 0)}
    dims = sorted(cx.cells[lab].dimension for lab in comp.labels)
    assert dims == [0, 1, 1, 2]


def test_n1_edge_orientations():
    cx = build_complex(n1_network())
    # positive x-axis: F = x, increasing away from the origin
    assert edge_orientation(cx, (1, 0)) == "increasing"
    assert reference_direction(cx, (1, 0)) == vec((1, 0))
    # negative x-axis: F = 0
    assert edge_orientation(cx, (-1, 0)) == "flat"


def test_n1_census():
    c = census(build_complex(n1_network()))
    assert c[(1, False)] == 4
    assert c[(2, False)] == 4
    assert c[(0, True)] == 1


def test_generic_three_line_counts():
    net = random_network((2, 3, 1), seed=11)
    assert is_generic(net)
    cx = build_complex(net)
    assert len(cx.cells_of_dim(2)) == 7
    assert len(cx.cells_of_dim(1)) == 9
    assert len(cx.cells_of_dim(0)) == 3
    assert len(zero_cells(cx)) == 3
    c = census(cx)
    want = generic_line_counts(3)
    assert c.get((1, False), 0) == want["unbounded_one_cells"] == 6
    assert c.get((2, False), 0) == want["unbounded_two_cells"] == 6
    assert c.get((2, True), 0) == want["bounded_two_cells"] == 1


def test_generic_four_line_counts():
    net = random_network((2, 4, 1), seed=2)
    assert is_generic(net)
    c = census(build_complex(net))
    assert c.get((1, False), 0) == 8
    assert c.get((2, False), 0) == 8
    assert c.get((2, True), 0) == 3


def test_three_line_flat_set():
    # Flat set: the all-minus region (x<=0, y>=0, x+y>=1) with its faces at
    # level 0, plus the isolated vertices (0,0) at level 1 and (1,0) at 2.
    net = three_line_network()
    cx = build_complex(net)
    comps = flat_cells(cx)
    assert len(comps) == 3
    by_level = {c.level: c for c in comps}
    assert sorted(by_level) == [0, 1, 2]
    big = by_level[F(0)]
    assert (-1, -1, -1) in big.labels
    assert sorted(cx.cells[l].dimension for l in big.labels) == [0, 1, 1, 2]
    assert [cx.cells[l].dimension for l in by_level[F(1)].labels] == [0]
    assert [cx.cells[l].dimension for l in by_level[F(2)].labels] == [0]
    # dense evaluation oracle: F vanishes throughout the all-minus region
    for x in range(-8, 1):
        for y in range(-2, 9):
            if x <= 0 and y >= 0 and x + y >= 1:
                assert net.evaluate((x, y))[0] == 0
    # and every positive-dimensional flat cell is a face of that region
    for cell in cx.cells.values():
        if cell.flat and cell.dimension > 0:
            assert _label_refines_all_minus(cell.label)


def _label_refines_all_minus(label):
    return all(s <= 0 for s in label)


def test_fan1_vertices_and_flat_square():
    cx = build_complex(build_fan_network(1))
    zs = zero_cells(cx)
    assert [p for p, _ in zs] == [
        vec((-1, -1)),
        vec((-1, 1)),
        vec((1, -1)),
        vec((1, 1)),
    ]
    comps = flat_cells(cx)
    central = [c for c in comps if any(cx.cells[l].dimension == 2 for l in c.labels)]
    assert len(central) == 1
    assert central[0].level == 0
    # closed square: one 2-cell, four edges, four vertices
    dims = sorted(cx.cells[l].dimension for l in central[0].labels)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_fan2_flat_hexagon():
    cx = build_complex(build_fan_network(2))
    comps = flat_cells(cx)
    central = [c for c in comps if any(cx.cells[l].dimension == 2 for l in c.labels)]
    assert len(central) == 1 and central[0].level == 0
    dims = sorted(cx.cells[l].dimension for l in central[0].labels)
    assert dims == [0] * 6 + [1] * 6 + [2]


def test_fan1_incident_rays_alternate_with_output_weights():
    net = build_fan_network(1)
    cx = build_complex(net)
    w = net.layers[1].weights[0]
    seen = 0
    for cell in cx.cells_of_dim(1):
        pos = [i for i, s in enumerate(cell.label) if s > 0]
        edges = cx.skeleton[cell.label].edges
        if len(pos) != 1 or len(edges) != 1 or edges[0].bounded:
            continue
        away = edges[0].direction
        assert rays(cell_geometry(cell)) == [primitive_direction(away)]
        got = dot(cell.gradient, away)
        assert (got > 0) == (w[pos[0]] > 0) and got != 0
        seen += 1
    assert seen == 8


def test_prescribed_orientations_measured_on_complex():
    base = build_fan_network(1).layers[0]
    for signs in [(1, 1, 1, 1), (-1, -1, -1, -1), (1, -1, 1, -1)]:
        s = prescribe_edge_orientations(base, signs)
        net = Network((base, AffineLayer.make([list(s)], [0], "none")))
        cx = build_complex(net)
        for cell in cx.cells_of_dim(1):
            pos = [i for i, v in enumerate(cell.label) if v > 0]
            if len(pos) != 1 or bounded(cell_geometry(cell)):
                continue
            away = rays(cell_geometry(cell))[0]
            assert dot(cell.gradient, away) * signs[pos[0]] > 0


def test_face_pairs_match_label_refinement():
    cx = build_complex(n1_network())
    assert ((0, 0), (1, 1)) in cx.face_pairs
    assert ((0, 1), (1, 1)) in cx.face_pairs
    assert ((0, 1), (1, -1)) not in cx.face_pairs
    edges = [lab for lab in cx.cofaces_of((0, 0)) if cx.cells[lab].dimension == 1]
    assert set(edges) == {(0, 1), (0, -1), (1, 0), (-1, 0)}
    assert len(cx.cofaces_of((0, 0))) == 8
    assert cx.faces_of((1, 1)) == [(0, 0), (1, 0), (0, 1)]  # lower dimensions first


@pytest.mark.parametrize("arch", [(2, 2, 2, 1), (2, 3, 2, 1), (3, 2, 2, 1), (2, 3, 3, 1)])
def test_face_pairs_match_fm_containment_on_deep_nets(arch):
    """Reference rule: sub < sup when sub has lower dimension, its label
    refines sup's, and the closed cells nest by the Fraction
    Fourier-Motzkin containment test."""
    for seed in range(4):
        cx = build_complex(random_network(arch, seed))
        cells = list(cx.cells.values())
        geo = {c.label: cell_geometry(c) for c in cells}
        want = {
            (a.label, b.label)
            for a in cells
            for b in cells
            if a.dimension < b.dimension
            and all(x == y or x == 0 for x, y in zip(a.label, b.label))
            and contained(geo[a.label], geo[b.label])
        }
        assert cx.face_pairs == want, (arch, seed)
        for faces in cx.skeleton.values():
            pts = [p for p, _ in faces.points]
            for e in faces.edges:
                if e.bounded:  # start P/a, and Q*a - P*b the direction to its end Q/b
                    (p, a) = e.start
                    ends = [(q, b) for q, b in pts
                            if tuple(y * a - x * b for x, y in zip(p, q)) == e.direction]
                    assert e.start in pts and len(ends) == 1, (arch, seed)
                    assert rational_point(e.start) < rational_point(ends[0]), (arch, seed)


def test_face_pairs_and_skeleton_make_no_feasibility_call(monkeypatch):
    net = random_network((2, 3, 2, 1), 3)
    want = build_complex(net)
    cx = build_complex(net)

    def refuse(*args, **kwargs):
        raise AssertionError("feasible called")

    monkeypatch.setattr("plmorse.complexes.feasible", refuse)
    monkeypatch.setattr("plmorse.geometry.feasible", refuse)
    assert cx.face_pairs and cx.skeleton
    monkeypatch.undo()
    assert cx.face_pairs == want.face_pairs
    assert cx.skeleton == want.skeleton


def test_face_pairs_test_each_cell_once(monkeypatch):
    """Label refinement is the face relation, so the pass makes and tests
    only each cell's own witness against its relative interior."""
    witness = complexes._relint_point
    calls = []

    def counted(faces):
        calls.append(faces)
        return witness(faces)

    monkeypatch.setattr(complexes, "_relint_point", counted)
    for net in (build_fan_network(2), random_network((2, 3, 2, 1), 3)):
        calls.clear()
        cx = build_complex(net)
        assert cx.face_pairs
        assert len(calls) == len(cx.cells)


def test_witness_outside_its_cell_is_named(monkeypatch):
    solve = complexes.solve_integer

    def off_cell(rows, n):
        (p, d), basis = solve(rows, n)
        return (tuple(x + d for x in p), d), basis

    monkeypatch.setattr(complexes, "solve_integer", off_cell)
    cx = build_complex(n1_network())
    message = "witness (1, 1) is off the relative interior of cell (0, 0)"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        cx.face_pairs


def _sorted_vertex_rule(cell):
    """The rule reference_direction replaced: a line's canonical lineality
    direction, a segment's sorted vertices, or a ray's extreme ray."""
    p = cell_geometry(cell)
    if not p.pointed:
        lines = nullspace_basis([c for c, _ in (*p.eqs, *p.ges)], p.n)
        return canonical_line_direction(lines[0])
    if bounded(p):
        a, b = p.vertices
        return primitive_direction(tuple(y - x for x, y in zip(a, b)))
    return rays(p)[0]


def test_reference_direction_matches_vertex_and_ray_rules():
    nets = [
        random_network((2, 3, 1), seed=11),
        Network((AffineLayer.make([[2]], [1], "none"),)),
        random_network((2, 1, 1), seed=0),
    ]
    kinds = Counter()
    for net in nets:
        cx = build_complex(net)
        for cell in cx.cells_of_dim(1):
            got = reference_direction(cx, cell.label)
            assert got == _sorted_vertex_rule(cell), cell.label
            if cx.kernel:
                kinds["kernel line"] += 1
            elif not cell_geometry(cell).pointed:
                kinds["line"] += 1
            elif bounded(cell_geometry(cell)):
                kinds["segment"] += 1
            else:
                assert rays(cell_geometry(cell)) == [got]
                kinds["ray"] += 1
    assert set(kinds) == {"segment", "ray", "line", "kernel line"}


def test_census_matches_polyhedron_boundedness():
    nets = [random_network((2, 1, 1), seed=0), Network((AffineLayer.make([[2, 1]], [1], "none"),))]
    for m in (3, 4, 5):
        generic = [net for net in (random_network((2, m, 1), s) for s in range(8)) if is_generic(net)]
        nets += generic[:4]
    assert len(nets) == 14
    for net in nets:
        cx = build_complex(net)
        want = Counter((c.dimension, bounded(cell_geometry(c))) for c in cx.cells.values())
        assert census(cx) == dict(want)


def test_flat_subcomplex_closed_under_faces():
    for net in (build_fan_network(2), random_network((2, 4, 1), seed=8)):
        cx = build_complex(net)
        flats = set(cx.flat_labels)
        for sub, sup in cx.face_pairs:
            if sup in flats:
                assert sub in flats


def test_all_zero_cells_flat_and_thresholds_cover_them():
    net = random_network((2, 4, 1), seed=21)
    cx = build_complex(net)
    assert all(c.flat for c in cx.cells_of_dim(0))
    assert len(zero_cells(cx)) == len(cx.cells_of_dim(0)) > 0
    for p, f in zero_cells(cx):
        assert f in cx.nontransversal_thresholds
        assert net.evaluate(p)[0] == f


def test_genericity_verdicts():
    assert not is_generic(build_fan_network(2))
    dup = Network(
        (
            AffineLayer.make([[1, 0], [1, 0]], [0, 0], "relu"),
            AffineLayer.make([[1, 1]], [0], "none"),
        )
    )
    res = is_generic(dup)
    assert not res and res.witness is not None
    assert is_generic(n1_network())


def test_genericity_witness_prints_a_rational_point():
    res = is_generic(concurrent_rational_lines())
    assert res.witness == "hidden layer 0 nodes (0, 1, 2): common point (1/2, 1/3)"


def test_random_nets_generic_and_transversal():
    for seed in range(40):
        net = random_network((2, 3, 1), seed=seed)
        assert is_generic(net)
        assert is_transversal(net)


def test_transversality_witness_for_zero_node():
    net = Network(
        (
            AffineLayer.make([[0, 0], [0, 1]], [0, 0], "relu"),
            AffineLayer.make([[1, 1]], [0], "none"),
        )
    )
    res = is_transversal(net)
    assert not res
    assert "node 0" in res.witness


def test_deep_network_cells_match_evaluation():
    net = random_network((2, 2, 2, 1), seed=13)
    cx = build_complex(net)
    pts = [
        (F(x, 3), F(y, 3)) for x in range(-6, 7, 3) for y in range(-6, 7, 3)
    ]
    for p in pts:
        lab = activation_pattern(net, p)
        assert lab in cx.cells
        cell = cx.cells[lab]
        assert cell_geometry(cell).contains(p)
        assert form_at(cell, p) == net.evaluate(p)[0]


def test_coarse_bound_network_generic_transversal():
    for m in (3, 4, 5):
        net = build_coarse_bound_network(m)
        assert is_generic(net)
        assert is_transversal(net)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.tuples(*[st.fractions(F(-5), F(5))] * 2))
def test_sample_points_land_in_matching_cells(seed, p):
    net = random_network((2, 3, 1), seed=seed)
    cx = build_complex(net)
    lab = activation_pattern(net, p)
    assert lab in cx.cells
    assert cell_geometry(cx.cells[lab]).contains(p)
    assert form_at(cx.cells[lab], p) == net.evaluate(p)[0]


def test_negation_duality_cells_and_orientations():
    net = random_network((2, 3, 1), seed=31)
    cx = build_complex(net)
    nx = build_complex(negate(net))
    assert set(cx.cells) == set(nx.cells)
    flip = {"increasing": "decreasing", "decreasing": "increasing", "flat": "flat"}
    for c in cx.cells_of_dim(1):
        assert edge_orientation(nx, c.label) == flip[edge_orientation(cx, c.label)]


GOLDEN = Path(__file__).parent / "golden"

# Hand-made nets for the corners of integer construction: scales that are
# not powers of two, weight rows that are all zero, units that are constant
# (dead) on some cells, a second layer whose two zero sets coincide, and node
# maps that are identically zero on a cell: in the first layer, past it, and
# (on x = 0, y > 0, as x + y - y) with a nonzero gradient.
HAND_NETS = {
    "non-dyadic": Network((
        AffineLayer.make([[F(1, 3), F(-2, 7)], [F(-2, 7), 1], [1, F(1, 3)]],
                         [F(1, 3), F(-2, 7), 0], "relu"),
        AffineLayer.make([[F(-2, 7), F(1, 3), 1], [F(1, 3), 1, F(-2, 7)]],
                         [F(1, 3), F(-1, 7)], "relu"),
        AffineLayer.make([[F(1, 3), F(-2, 7)]], [F(2, 7)], "none"),
    )),
    "zero rows": Network((
        AffineLayer.make([[0, 0], [1, -1], [1, 1]], [1, 0, -1], "relu"),
        AffineLayer.make([[0, 0, 0], [1, 1, -1]], [-1, 0], "relu"),
        AffineLayer.make([[1, -1]], [0], "none"),
    )),
    "dead unit": Network((
        AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
        AffineLayer.make([[1, 0], [1, 1]], [-1, 1], "relu"),
        AffineLayer.make([[1, 1]], [0], "none"),
    )),
    "degenerate deep layer": Network((
        AffineLayer.make([[1, 0], [0, 1], [1, 1]], [0, 0, -1], "relu"),
        AffineLayer.make([[1, 1, 0], [1, 1, 0]], [-1, -1], "relu"),
        AffineLayer.make([[1, -1]], [0], "none"),
    )),
    "zero node": Network((
        AffineLayer.make([[0, 0], [0, 1]], [0, 0], "relu"),
        AffineLayer.make([[1, 1]], [0], "none"),
    )),
    "deep zero node": Network((
        AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
        AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
        AffineLayer.make([[1, 1]], [0], "none"),
    )),
    "vanishing node": Network((
        AffineLayer.make([[1, 1], [1, 0], [0, 1]], [0, 0, 0], "relu"),
        AffineLayer.make([[1, 0, -1]], [0], "relu"),
        AffineLayer.make([[1]], [0], "none"),
    )),
    "no hidden layer": Network((AffineLayer.make([[1, 2]], [3], "none"),)),
    "zero first layer": Network((
        AffineLayer.make([[0, 0]], [1], "relu"),
        AffineLayer.make([[1]], [0], "none"),
    )),
}


def _reference_corpus():
    for path in sorted(GOLDEN.glob("*.net.json")):
        yield path.name, load_network(path)
    for k in (1, 2):
        yield f"fan{k}", build_fan_network(k)
    for m in (4, 5):
        yield f"coarse{m}", build_coarse_bound_network(m)
    for arch in [(2, 3, 1), (2, 2, 2, 1), (2, 3, 2, 1), (3, 2, 2, 1)]:
        for seed in range(4):
            yield f"{arch} seed {seed}", random_network(arch, seed)
    yield from HAND_NETS.items()


def _cell_record(c):
    return (c.label, c.eqs, c.stricts, c.gradient, c.constant, c.dimension, c.flat, c.lineality,
            c.form)


@pytest.mark.parametrize("net", [pytest.param(net, id=name) for name, net in _reference_corpus()])
def test_build_matches_fraction_reference(net):
    """Integer cell maps, two feasibility tests per split and dimensions read
    off the equalities give the cells, forms, witnesses and deep genericity
    verdict of the Fraction construction."""
    cx, ref = build_complex(net), build_reference.build_complex(net)
    assert list(cx.cells) == list(ref.cells)
    for lab, c in cx.cells.items():
        assert _cell_record(c) == _cell_record(ref.cells[lab]), lab
        assert all(type(x) is Fraction for x in (*c.gradient, c.constant))
    assert cx.transversality_witnesses == ref.transversality_witnesses
    deep = _deep_genericity(net)
    assert (None if deep is None else deep.witness) == build_reference.deep_genericity(net)


@pytest.mark.parametrize("net", [pytest.param(net, id=name) for name, net in _reference_corpus()])
def test_cell_rows_are_their_probed_relint_system(net):
    """Probing the closure {eqs = 0, stricts >= 0} of each cell finds it
    nonempty, with relative interior exactly {eqs = 0, stricts > 0}: a
    cell's rows are canonical, and none of its strict rows is an implicit
    equality, so the face pass may test its witness against them."""
    for c in build_complex(net).cells.values():
        poly = Polyhedron(net.n0, c.eqs, c.stricts)
        assert poly.nonempty and poly.relint_system == (c.eqs, c.stricts), c.label


def _hull_solution(cell):
    """Reference for a cell's point: its hull equalities solved exactly."""
    eqs = cell.eqs
    return solve_linear([c for c, _ in eqs], [-o for _, o in eqs], len(cell.gradient))[0]


@pytest.mark.parametrize("net", [
    *(pytest.param(net, id=name) for name, net in _reference_corpus()),
    *(pytest.param(make(), id=f"corpus {name}") for name, make in ANALYZE_CORPUS_NETS.items()),
])
def test_skeleton_points_and_flat_levels_match_hull_solutions(net):
    """Each 0-cell's point, and F on each flat cell, read off the skeleton,
    are what solving the cell's hull equalities gives."""
    cx = build_complex(net)
    for c in cx.cells_of_dim(0):
        p = _hull_solution(c)
        ((q, f),) = cx.skeleton[c.label].points
        assert rational_point(q) == p and f == form_at(c, p)
    want = {lab: form_at(cx.cells[lab], _hull_solution(cx.cells[lab])) for lab in cx.flat_labels}
    assert cx.nontransversal_thresholds == tuple(sorted(set(want.values())))
    for comp in flat_cells(cx):
        assert {want[lab] for lab in comp.labels} == {comp.level}


def _fraction_skeleton(cx):
    """Reference for the integer skeleton: each minimal cell's point, its
    hull equalities and the kernel solved over Fraction, and each 1-face as
    (start, direction, slope, bounded), a segment from its smaller end with
    direction and slope its end's point and F-value less its start's, or a
    ray along the hull's nullspace, oriented into the cell."""
    k, n = len(cx.kernel), cx.network.n0

    def cut(c):
        rows = [g for g, _ in c.eqs] + list(cx.kernel)
        return solve_linear(rows, [-o for _, o in c.eqs] + [0] * k, n)

    points = {c.label: cut(c)[0] for c in cx.cells_of_dim(k)}
    edges = {}
    for c in cx.cells_of_dim(k + 1):
        ends = sorted(points[f] for f in cx.faces_of(c.label) if f in points)
        if len(ends) == 2:
            p, q = ends
            rise = form_at(c, q) - form_at(c, p)
            edges[c.label] = [(p, tuple(b - a for a, b in zip(p, q)), rise, True)]
            continue
        base, (d,) = cut(c)
        if any(dot(g, d) < 0 for g, _ in c.stricts):
            d = tuple(-x for x in d)
        rays = [d] if ends else [d, tuple(-x for x in d)]
        edges[c.label] = [(ends[0] if ends else base, r, dot(c.gradient, r), False) for r in rays]
    return points, edges


@pytest.mark.parametrize("net", [
    *(pytest.param(net, id=name) for name, net in _reference_corpus()),
    *(pytest.param(make(), id=f"corpus {name}") for name, make in ANALYZE_CORPUS_NETS.items()),
])
def test_integer_skeleton_matches_fraction_route(net):
    """Each 0-face (P, d) is the Fraction solution P/d, with d > 0 and the
    least such; each 1-face starts where the Fraction route's does, its
    integer direction is a positive multiple of that route's, and its
    integer slope has the sign of F's change along it."""
    cx = build_complex(net)
    points, edges = _fraction_skeleton(cx)
    for lab, want in points.items():
        (((p, d), f),) = cx.skeleton[lab].points
        assert d > 0 and rational_point((p, d)) == want and f == form_at(cx.cells[lab], want)
        assert d == lcm(*(x.denominator for x in want)) and all(type(x) is int for x in p)
    for lab, want in edges.items():
        got = cx.skeleton[lab].edges
        assert len(got) == len(want), lab
        for e, (start, direction, slope, bounded) in zip(got, want):
            assert rational_point(e.start) == start and e.bounded == bounded, lab
            assert primitive_direction(e.direction) == primitive_direction(direction), lab
            assert all(type(x) is int for x in (*e.direction, e.slope)), lab
            assert (e.slope > 0) - (e.slope < 0) == (slope > 0) - (slope < 0), lab


def test_hand_nets_reach_their_corners():
    """The hand-made nets of the reference test do hold the cases they name."""
    assert build_reference.deep_genericity(HAND_NETS["degenerate deep layer"])
    for name in ("zero node", "deep zero node", "vanishing node"):
        assert build_complex(HAND_NETS[name]).transversality_witnesses, name
    for name in ("zero rows", "dead unit"):
        layers = HAND_NETS[name].layers
        stage = list(build_reference.layer_stages(HAND_NETS[name]))[1][1]
        forms = [
            build_reference._node_form(w, b, rows, offs)
            for w, b in zip(layers[1].weights, layers[1].bias)
            for _, _, _, rows, offs in stage
        ]
        assert any(not any(g) and k != 0 for g, k in forms), name


def test_build_and_analyze_never_test_emptiness(monkeypatch):
    """The split shows every cell nonempty, so no canonical cell (nor any
    piece cut from one) runs the emptiness test."""
    def refuse(self):
        raise AssertionError("Polyhedron.nonempty called")

    monkeypatch.setattr(Polyhedron, "nonempty", property(refuse))
    for net in (build_fan_network(2), load_network(GOLDEN / "random_2_3_2_1_seed3.net.json")):
        cx = build_complex(net)
        assert zero_cells(cx) and flat_cells(cx)
        analyze(net)


def test_build_makes_one_projection_per_split(monkeypatch):
    """The golden (2,2,2,1) seed 5 net splits a cell by a nonzero form 20
    times: one ``form_signs`` projection each, and no ``feasible`` call,
    where two calls per split made 40."""
    calls = {"form_signs": 0, "feasible": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr("plmorse.complexes.form_signs", counted("form_signs", form_signs))
    monkeypatch.setattr("plmorse.complexes.feasible", counted("feasible", feasible))
    monkeypatch.setattr("plmorse.geometry.feasible", counted("feasible", feasible))
    cx = build_complex(random_network((2, 2, 2, 1), 5))
    assert len(cx.cells) == 25
    assert calls == {"form_signs": 20, "feasible": 0}


@pytest.mark.parametrize("arch, seed", [((2, 2, 2, 1), 5), ((2, 3, 2, 1), 3), ((3, 4, 3, 1), 2)])
def test_cells_cut_rows_hold_their_other_rows(arch, seed):
    """Each partial-complex cell's ``cuts`` with its equalities cut out the
    same set as all its rows: every row left out is positive on the
    relative interior of eqs = 0, cuts > 0."""
    net = random_network(arch, seed)
    left_out = 0
    for work in complexes._layer_stages(net.n0, integer_layers(net)[0]):
        for _, eqs, ineqs, cuts, _ in work:
            assert set(cuts) <= set(ineqs)
            for c, o in set(ineqs) - set(cuts):
                left_out += 1
                assert not feasible(net.n0, eqs=eqs, ges=[(tuple(-x for x in c), -o)], gts=cuts)
    assert left_out > 0


def _lines_through_origin(m):
    """m distinct lines through the origin of the plane, x + k y = 0."""
    return Network((
        AffineLayer.make([[1, k] for k in range(m)], [0] * m, "relu"),
        AffineLayer.make([[(-1) ** k for k in range(m)]], [0], "none"),
    ))


# Nets whose labels have zeros in the same entry everywhere or many zeros at
# one cell: a hidden row that is zero with a zero bias, and concurrent lines.
DEGENERATE_FACE_NETS = {
    "zero hidden row": Network((
        AffineLayer.make([[1, 0], [0, 0], [0, 1], [1, 1]], [0, 0, 1, -1], "relu"),
        AffineLayer.make([[1, 2, -1, 1]], [0], "none"),
    )),
    "zero hidden row, deep": Network((
        AffineLayer.make([[1, -1], [0, 0], [1, 1]], [0, 0, -1], "relu"),
        AffineLayer.make([[1, 1, 0], [1, 0, -1]], [-1, 0], "relu"),
        AffineLayer.make([[1, -1]], [0], "none"),
    )),
    "concurrent lines": _lines_through_origin(5),
    "concurrent lines off the origin": Network((
        AffineLayer.make([[1, 0], [0, 1], [1, 1], [1, -1]], [-1, -1, -2, 0], "relu"),
        AffineLayer.make([[1, -1, 2, -2]], [1], "none"),
    )),
}


def _face_nets():
    for path in sorted(GOLDEN.glob("*.net.json")):
        yield path.name, lambda path=path: load_network(path)
    for name, make in ANALYZE_CORPUS_NETS.items():
        yield f"corpus {name}", make
    for arch in [(2, 3, 3, 1), (3, 4, 4, 1), (2, 2, 2, 2, 1)]:
        for seed in range(4):
            yield f"{arch} seed {seed}", lambda arch=arch, seed=seed: random_network(arch, seed)
    yield "(4, 8, 1) seed 3", lambda: random_network((4, 8, 1), 3)
    for name, net in {**HAND_NETS, **DEGENERATE_FACE_NETS}.items():
        yield name, lambda net=net: net


@pytest.mark.parametrize("make", [pytest.param(make, id=name) for name, make in _face_nets()])
def test_face_lists_match_the_label_scan(make):
    """The trie walk finds the face pairs of the label scan, and each cell's
    face and coface lists in the scan's order."""
    cx = build_complex(make())
    pairs, faces, cofaces = scan_faces(cx)
    assert cx.face_pairs == pairs
    for lab in cx.cells:
        assert cx.faces_of(lab) == faces[lab], lab
        assert cx.cofaces_of(lab) == cofaces[lab], lab


def test_degenerate_face_nets_reach_their_corners():
    """Every label of the zero-row nets has a 0 in that row, and five lines
    meet at the origin of the concurrent net."""
    for name in ("zero hidden row", "zero hidden row, deep"):
        assert all(lab[1] == 0 for lab in build_complex(DEGENERATE_FACE_NETS[name]).cells), name
    cx = build_complex(DEGENERATE_FACE_NETS["concurrent lines"])
    assert cx.cells[(0,) * 5].dimension == 0


def test_face_walk_stays_bounded_at_sixteen_concurrent_lines():
    """At the origin of 16 lines through it, a label with 16 zeros, a lookup
    of every label its own could refine would try 3^16 (about 43 million);
    the walk follows only labels that exist, 65 cells in all."""
    cx = build_complex(_lines_through_origin(16))
    origin = (0,) * 16
    assert len(cx.cells) == 65 and cx.cells[origin].dimension == 0
    start = time.process_time()
    pairs = cx.face_pairs
    assert time.process_time() - start < 2
    assert pairs == scan_faces(cx)[0]
    assert len(cx.cofaces_of(origin)) == 64
