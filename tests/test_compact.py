import re
from fractions import Fraction
from pathlib import Path

import pytest

from plmorse import morse
from plmorse.complexes import FlatComponent, build_complex, components, flat_cells
from plmorse.compact import (
    CompactModel,
    compact_part,
    essentialize,
    modeled_pair,
    refine_at_levels,
    strip_pair_model,
    sublevel_model,
    superlevel_model,
)
from plmorse.geometry import Polyhedron, canon_constraint, feasible, rank
from plmorse.homology import (
    CellularComplex,
    SimplicialComplex,
    SimplicialPair,
    barycentric_pair,
    betti,
    complement_complex,
    relative_betti,
    triangulate,
)
from plmorse.network import (
    AffineLayer,
    Network,
    build_coarse_bound_network,
    build_fan_network,
    load_network,
    random_network,
)

from fm_reference import contained
from hull_model import bounded, hull_compact_part, polytope_faces, pulling_triangulation
from linear_reference import nullspace_basis
from net_helpers import ANALYZE_CORPUS_NETS, level_model
from order_complex import carried_simplices
from piece_geometry import interval_constraints, model_coordinates, piece_geometry
from queries import zero_cells
from strip_reference import reference_local_records, whole_strip_model

F = Fraction


def two_relu_net():
    return Network(
        (
            AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
            AffineLayer.make([[1, 1]], [0], "none"),
        )
    )


def half_plane_net():
    return Network(
        (
            AffineLayer.make([[1, 0]], [0], "relu"),
            AffineLayer.make([[1]], [0], "none"),
        )
    )


def test_refine_splits_first_quadrant_at_one():
    cx = build_complex(two_relu_net())
    rcx = refine_at_levels(cx, [F(1)])
    quadrant = [p for (lab, _), p in rcx.cells.items() if lab == (1, 1)]
    assert [(p.index, p.interval) for p in quadrant] == list(enumerate(AT_ONE))
    assert [piece_geometry(p).dim for p in quadrant] == [2, 1, 2]
    # the two new vertices sit where x+y=1 crosses the axes
    x_axis = rcx.cells[((1, 0), 1)]
    y_axis = rcx.cells[((0, 1), 1)]
    assert piece_geometry(x_axis).vertices == [(F(1), F(0))]
    assert piece_geometry(y_axis).vertices == [(F(0), F(1))]


def test_refine_below_range_changes_nothing():
    cx = build_complex(two_relu_net())
    rcx = refine_at_levels(cx, [F(-1)])
    assert len(rcx.cells) == len(cx.cells)
    for (lab, _iv), piece in rcx.cells.items():
        assert piece_geometry(piece).dim == cx.cells[lab].dimension


def test_refine_fan2_level_zero_is_flat_set():
    net = build_fan_network(2)
    cx = build_complex(net)
    rcx = refine_at_levels(cx, [F(0)])
    zero_keys = rcx.keys_in(F(0), F(0))
    assert {rcx.cells[k].interval for k in zero_keys} == {(F(0), F(0))}
    hex_labels = {
        comp.labels for comp in flat_cells(cx) if comp.level == 0 and len(comp.labels) > 1
    }
    assert len(hex_labels) == 1
    for lab in next(iter(hex_labels)):
        assert (lab, 1) in zero_keys
    for k in zero_keys:
        src = cx.cells[k[0]]
        if src.flat:
            assert {f for _, f in cx.skeleton[src.label].points} == {0}
        elif (geo := piece_geometry(rcx.cells[k])).pointed:
            for v in geo.vertices:
                assert net.evaluate(v)[0] == 0


def test_piece_values_stay_inside_interval():
    cx = build_complex(two_relu_net())
    rcx = refine_at_levels(cx, [F(1, 2), F(2)])
    checked = 0
    for piece in rcx.cells.values():
        lo, hi = piece.interval
        geo = piece_geometry(piece)
        assert geo.pointed
        for p in geo.vertices:
            v = cx.network.evaluate(p)[0]
            assert lo is None or v >= lo
            assert hi is None or v <= hi
            checked += 1
    assert checked > 10


def test_essentialize_half_plane_complex_onto_axis():
    cx = build_complex(half_plane_net())
    rcx = refine_at_levels(cx, [])
    pieces = [rcx.cells[k] for k in rcx.keys_in(None, None)]
    assert all(not piece_geometry(p).pointed for p in pieces)
    ess = essentialize(pieces, cx)
    assert cx.network.n0 - len(cx.kernel) == 1
    assert cx.kernel == ((F(0), F(1)),)
    assert all(p.kernel == cx.kernel for p in ess)
    dims = sorted(piece_geometry(p).dim for p in ess)
    assert dims == [0, 1, 1]
    for before, after in zip(pieces, ess):
        assert piece_geometry(after).dim == piece_geometry(before).dim - 1
        assert piece_geometry(after).pointed
    point = [p for p in ess if piece_geometry(p).dim == 0][0]
    assert piece_geometry(point).vertices == [(F(0), F(0))]


def test_essentialize_pointed_component_is_identity():
    cx = build_complex(two_relu_net())
    rcx = refine_at_levels(cx, [])
    pieces = [rcx.cells[k] for k in rcx.keys_in(None, None)]
    ess = essentialize(pieces, cx)
    assert cx.network.n0 - len(cx.kernel) == 2
    assert cx.kernel == ()
    assert [piece_geometry(p).eqs for p in ess] == [piece_geometry(p).eqs for p in pieces]
    assert [piece_geometry(p).ges for p in ess] == [piece_geometry(p).ges for p in pieces]


def test_compact_part_of_quadrant_is_origin():
    cx = build_complex(two_relu_net())
    rcx = refine_at_levels(cx, [])
    quadrant = [
        rcx.cells[k]
        for k in rcx.keys_in(None, None)
        if all(s >= 0 for s in k[0])
    ]
    assert len(quadrant) == 4
    model = compact_part(quadrant, rcx.closure)
    assert model_coordinates(model, rcx) == ((F(0), F(0)),)
    assert len(model.cells) == 1


def test_compact_part_of_whole_plane_complex_is_a_point():
    cx = build_complex(two_relu_net())
    rcx = refine_at_levels(cx, [])
    keys = rcx.keys_in(None, None)
    model = compact_part([rcx.cells[k] for k in keys], rcx.closure)
    assert model_coordinates(model, rcx) == ((F(0), F(0)),)
    assert len(model.cells) == 1


def test_compact_part_unit_square_is_itself():
    # the lines x = 0, x = 1, y = 0, y = 1 bound one cell, the unit square
    cx = build_complex(
        Network(
            (
                AffineLayer.make([[1, 0], [1, 0], [0, 1], [0, 1]], [0, -1, 0, -1], "relu"),
                AffineLayer.make([[1, 1, 1, 1]], [0], "none"),
            )
        )
    )
    rcx = refine_at_levels(cx, [])
    keys = rcx.keys_in(None, None)
    model = compact_part([rcx.cells[k] for k in keys], rcx.closure)
    assert model.vertices == tuple(k for k in keys if rcx.cells[k].dimension == 0)
    assert sorted(model_coordinates(model, rcx)) == [(F(x), F(y)) for x in (0, 1) for y in (0, 1)]
    by_dim = sorted(c.dimension for c in model.cells.values())
    assert by_dim == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    square = next(c for c in model.cells.values() if c.dimension == 2)
    assert square.verts == frozenset(range(4))


def test_compact_part_rejects_unpointed_cells():
    cx = build_complex(half_plane_net())
    rcx = refine_at_levels(cx, [])
    keys = rcx.keys_in(None, None)
    with pytest.raises(ValueError, match="essentialize"):
        compact_part([rcx.cells[k] for k in keys], rcx.closure)


def test_sublevel_models_of_two_relu_net():
    cx = build_complex(two_relu_net())
    empty = sublevel_model(cx, F(-1))
    assert len(empty.cells) == 0
    assert betti(triangulate(empty).complex) == ()
    at_zero = sublevel_model(cx, F(0))
    assert betti(triangulate(at_zero).complex) == (1,)
    assert model_coordinates(at_zero, refine_at_levels(cx, [F(0)])) == ((F(0), F(0)),)
    at_one = sublevel_model(cx, F(1))
    assert betti(triangulate(at_one).complex) == (1,)


def test_sublevel_betti_constant_between_thresholds():
    cx = build_complex(two_relu_net())
    assert betti(triangulate(sublevel_model(cx, F(1, 3))).complex) == betti(
        triangulate(sublevel_model(cx, F(7, 2))).complex
    )
    assert betti(triangulate(sublevel_model(cx, F(-5))).complex) == betti(
        triangulate(sublevel_model(cx, F(-1, 7))).complex
    )


def test_level_and_superlevel_agree_above_thresholds():
    for net in (two_relu_net(), build_fan_network(1)):
        cx = build_complex(net)
        m = max((abs(t) for t in cx.nontransversal_thresholds), default=F(0)) + 1
        lvl = betti(triangulate(level_model(cx, m)).complex)
        sup = betti(triangulate(superlevel_model(cx, m)).complex)
        assert lvl == sup


def test_fan1_superlevel_has_two_components():
    cx = build_complex(build_fan_network(1))
    assert betti(triangulate(superlevel_model(cx, F(1, 4))).complex) == (2,)
    assert betti(triangulate(sublevel_model(cx, F(-1, 4))).complex) == (2,)


def _stars(cx, a):
    """(component, closed-star model, K ids) for each flat component at
    level a, in one refinement at -M and a."""
    rcx = refine_at_levels(cx, [-morse.big_m(cx), a])
    return [(c, *strip_pair_model(rcx, c)) for c in flat_cells(cx) if c.level == a]


def test_strip_of_two_relu_net_is_a_point():
    cx = build_complex(two_relu_net())
    stars = _stars(cx, F(0))
    assert len(stars) == 1
    comp, model, ids = stars[0]
    assert model_coordinates(model, refine_at_levels(cx, [F(-1), F(0)])) == ((F(0), F(0)),)
    assert len(model.cells) == 1
    assert comp.level == 0
    assert ids == frozenset(model.cells)


def test_whole_strip_of_two_relu_net_has_no_floor():
    cx = build_complex(two_relu_net())
    sm = whole_strip_model(cx, F(0), F(-1))
    assert model_coordinates(sm.model, refine_at_levels(cx, [F(-1), F(0)])) == ((F(0), F(0)),)
    assert len(sm.k_cells) == 1
    assert sm.floor == frozenset()


def test_strip_names_a_missing_component_piece():
    cx = build_complex(two_relu_net())
    rcx = refine_at_levels(cx, [F(-1), F(0)])
    bogus = FlatComponent(F(0), ((1, 1),))
    with pytest.raises(RuntimeError, match=r"flat cell \(1, 1\) has no piece at level 0"):
        strip_pair_model(rcx, bogus)


def test_strip_fan2_marks_hexagon_and_collars():
    cx = build_complex(build_fan_network(2))
    hex_marks = [(c, m, ids) for c, m, ids in _stars(cx, F(0)) if len(c.labels) == 13]
    assert len(hex_marks) == 1
    comp, model, ids = hex_marks[0]
    assert comp.level == 0
    assert len(ids) == 13
    assert len(model.cells) > 13
    # collars around the hexagon where F dips below zero
    collars = [
        c
        for cid, c in model.cells.items()
        if c.dimension == 2 and cid not in ids
    ]
    assert collars
    for c in collars:
        assert cx.cells[c.key[0]].dimension == 2


def test_whole_strip_fan2_marks_its_floor():
    cx = build_complex(build_fan_network(2))
    below = max(t for t in cx.nontransversal_thresholds if t < 0)
    sm = whole_strip_model(cx, F(0), below / 2)
    assert any(len(c.labels) == 13 for c, _ in sm.k_cells)
    assert sm.floor


def test_strip_fan2_relative_homology_of_hexagon():
    cx = build_complex(build_fan_network(2))
    _, model, k_ids = next(s for s in _stars(cx, F(0)) if len(s[0].labels) == 13)
    tri = triangulate(model)
    comp = complement_complex(tri.complex, carried_simplices(tri, k_ids))
    assert relative_betti(SimplicialPair(tri.complex, comp)) == (0, 2)


def test_strip_without_flat_cells_collapses_to_floor():
    cx = build_complex(two_relu_net())
    assert _stars(cx, F(1, 2)) == []
    sm = whole_strip_model(cx, F(1, 2), F(1, 4))
    assert sm.k_cells == ()
    assert sm.floor
    tri = triangulate(sm.model)
    floor_sc = SimplicialComplex(
        tri.complex.vertices, carried_simplices(tri, sm.floor)
    )
    assert betti(tri.complex) == betti(floor_sc) == (1,)


def test_strip_pair_separation():
    cx = build_complex(build_fan_network(2))
    stars = _stars(cx, F(0))
    assert stars
    for comp, model, ids in stars:
        k_verts = {v for cid in ids for v in cid}
        for cid in model.cells:
            if cid not in ids:
                assert not set(cid) <= k_verts


def test_star_records_match_whole_strip_reference():
    """Each component's ranks on its closed star in F <= a, in one
    refinement at -M and the levels, equal its ranks on the whole strip
    below its level, refined alone.  The one-input plateaus of (1,3,1) and
    (1,2,2,1) include (1,3,1) seed 4, whose gap below its plateau is
    unbounded without -M."""
    nets = [load_network(p) for p in sorted(GOLDEN.glob("*.net.json"))]
    nets += [build_fan_network(n) for n in (1, 2)]
    nets += [build_coarse_bound_network(m) for m in (4, 5)]
    for arch in [(2, 3, 1), (2, 4, 1), (2, 2, 2, 1), (3, 3, 1), (2, 3, 2, 1)]:
        nets += [random_network(arch, seed) for seed in range(4)]
    for arch in [(1, 3, 1), (1, 2, 2, 1)]:
        nets += [random_network(arch, seed) for seed in range(8)]
    compared = 0
    for net in nets:
        cx = build_complex(net)
        if cx.transversality_witnesses:
            continue
        got = morse.local_records(cx)
        assert got == reference_local_records(cx), net.architecture
        compared += len(got)
    assert compared > 100


def test_modeled_pair_sublevel_pair_of_nonnegative_net():
    # F >= 0 everywhere, so the F <= -1 part of the pair is empty
    cx = build_complex(two_relu_net())
    rcx = refine_at_levels(cx, [F(-2), F(-1), F(1)])
    model, inner = modeled_pair(rcx, (F(-2), F(1)), (F(-2), F(-1)))
    assert inner == frozenset()
    tri = triangulate(model)
    pair = SimplicialPair(tri.complex, carried_simplices(tri, inner))
    assert relative_betti(pair) == (1,)


def _hulls_intersect(a_pts, b_pts):
    p, q = len(a_pts), len(b_pts)
    nv = p + q
    eqs = [
        (tuple([1] * p + [0] * q), -1),
        (tuple([0] * p + [1] * q), -1),
    ]
    for d in range(len(a_pts[0])):
        eqs.append((tuple([x[d] for x in a_pts] + [-x[d] for x in b_pts]), 0))
    ges = [(tuple(1 if i == j else 0 for j in range(nv)), 0) for i in range(nv)]
    return feasible(nv, eqs=eqs, ges=ges)


def _assert_polytopal_complex(model: CompactModel, rcx):
    coords = model_coordinates(model, rcx)
    cells = list(model.cells)
    for i, c1 in enumerate(cells):
        for c2 in cells[i + 1 :]:
            shared = c1 & c2
            if shared:
                assert shared in model.cells
                for cid in (c1, c2):
                    faces = polytope_faces(tuple(coords[v] for v in cid), {})
                    assert frozenset(coords[v] for v in shared) in faces
            else:
                assert not _hulls_intersect(
                    [coords[v] for v in c1], [coords[v] for v in c2]
                )


def test_models_are_polytopal_complexes():
    cx = build_complex(two_relu_net())
    _assert_polytopal_complex(sublevel_model(cx, F(1)), refine_at_levels(cx, [F(1)]))
    fan1 = build_complex(build_fan_network(1))
    smaller = [t for t in fan1.nontransversal_thresholds if t < 0]
    lower = max(smaller) / 2 if smaller else F(-1)
    rcx = refine_at_levels(fan1, [-morse.big_m(fan1), F(0)])
    for _, model, _ in _stars(fan1, F(0)):
        _assert_polytopal_complex(model, rcx)
    rcx = refine_at_levels(fan1, [lower, F(0)])
    _assert_polytopal_complex(whole_strip_model(fan1, F(0), lower).model, rcx)


def _level_queries(cx):
    """(levels, lo, hi) of a sublevel, superlevel, strip, level-only and
    no-threshold model, cut at the median 0-cell value, and of two models
    cut at every 0-cell value, the second also at each value plus 1/3, so
    that the F-ranges of cells end exactly at thresholds."""
    values = sorted({f for _, f in zero_cells(cx)})
    c = values[len(values) // 2] if values else F(0)
    every = values or [c]
    shifted = sorted({*every, *(v + F(1, 3) for v in every)})
    return [
        ([c], None, c),
        ([c], c, None),
        ([c - F(1, 2), c], c - F(1, 2), c),
        ([c], c, c),
        ([], None, None),
        (every, every[0], c),
        (shifted, c, c + F(1, 3)),
    ]


def deep_flat_net():
    """relu(relu(x) + relu(y)): the second-layer node map dies on a quadrant."""
    return Network(
        (
            AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
            AffineLayer.make([[1, 1]], [0], "relu"),
            AffineLayer.make([[1]], [0], "none"),
        )
    )


def _interval_subset(inner, outer) -> bool:
    """Whether the closed interval inner lies in outer (None = unbounded)."""
    lo1, hi1 = inner
    lo2, hi2 = outer
    if lo2 is not None and (lo1 is None or lo1 < lo2):
        return False
    if hi2 is not None and (hi1 is None or hi1 > hi2):
        return False
    return True


def _pairwise_containment(rcx, keys):
    """Reference rule: every ordered pair of pieces tested on its own.  The
    inner label refines the outer one, the inner piece has lower dimension,
    its F-interval lies in the outer one, and on deep nets the closed pieces
    nest (exact Fourier-Motzkin test)."""
    deep = rcx.source.network.depth > 1
    geo = {k: piece_geometry(rcx.cells[k]) for k in keys}
    pairs = set()
    for a in keys:
        for b in keys:
            if a == b or geo[a].dim >= geo[b].dim:
                continue
            if not all(x == y or x == 0 for x, y in zip(a[0], b[0])):
                continue
            if not _interval_subset(rcx.cells[a].interval, rcx.cells[b].interval):
                continue
            if deep and a[0] != b[0] and not contained(geo[a], geo[b]):
                continue
            pairs.add((a, b))
    return pairs


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_fan_network(1),
        lambda: build_coarse_bound_network(4),
        lambda: random_network((2, 2, 2, 1), 5),
        lambda: random_network((3, 3, 1), 10004),
        deep_flat_net,
    ],
    ids=["fan1", "coarse_bound4", "random_2_2_2_1_seed5", "random_3_3_1_seed10004", "deep_flat"],
)
def test_containment_pairs_match_pairwise_rule(make):
    """Containment, read off each piece's closure, follows the pairwise
    rule: each closure is the pieces the rule puts inside it, and the
    components of pieces over a key range are those the rule's pairs join.
    The face and coface lists are the face pairs, each transposed."""
    cx = build_complex(make())
    faces = [(a, b) for b in cx.cells for a in cx.faces_of(b)]
    cofaces = [(a, b) for a in cx.cells for b in cx.cofaces_of(a)]
    assert len(faces) == len(cofaces) == len(cx.face_pairs)
    assert set(faces) == set(cofaces) == cx.face_pairs
    for levels, lo, hi in _level_queries(cx):
        rcx = refine_at_levels(cx, levels)
        inside = {k: set() for k in rcx.cells}
        for a, b in _pairwise_containment(rcx, list(rcx.cells)):
            inside[b].add(a)
        for k in rcx.cells:
            closure = rcx.closure(k)
            assert closure[0] == k and len(closure) == len(set(closure))
            assert set(closure[1:]) == inside[k], (levels, k)
        keys = sorted(rcx.keys_in(lo, hi))
        want = components(keys, _pairwise_containment(rcx, keys))
        assert rcx.components(keys) == want, (levels, lo, hi)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_fan_network(1),
        lambda: build_fan_network(2),
        lambda: build_coarse_bound_network(4),
        lambda: random_network((2, 2, 2, 1), 5),
        lambda: random_network((3, 3, 1), 10004),
        deep_flat_net,
    ],
    ids=["fan1", "fan2", "coarse_bound4", "random_2_2_2_1_seed5", "random_3_3_1_seed10004",
         "deep_flat"],
)
def test_component_counts_grow_through_nested_down_sets(make):
    """One union-find grown through F <= t for rising t, and one through
    F >= t for falling t, count the components that one-shot union-finds
    over each set find."""
    cx = build_complex(make())
    ts = cx.nontransversal_thresholds
    levels = sorted({*ts, *(t + F(1, 2) for t in ts), *(t - F(1, 3) for t in ts)})
    rcx = refine_at_levels(cx, levels)
    subs = [rcx.keys_in(None, t) for t in levels] + [rcx.keys_in(None, None)]
    sups = [rcx.keys_in(t, None) for t in reversed(levels)] + [rcx.keys_in(None, None)]
    for nested in (subs, sups):
        assert rcx.component_counts(*nested) == [len(rcx.components(k)) for k in nested]


def _leaves(x):
    if isinstance(x, (tuple, list, frozenset)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def test_piece_keys_hold_only_ints():
    """Pieces are named by parent label and interval number, so keys,
    closures, components, model vertices and model-cell keys hash no Fraction."""
    cx = build_complex(build_fan_network(2))
    below = max(t for t in cx.nontransversal_thresholds if t < 0)
    rcx = refine_at_levels(cx, [below / 2, F(0), F(1)])
    keys = rcx.keys_in(None, None)
    assert set(keys) == set(rcx.cells)
    model, _ = modeled_pair(rcx, (below / 2, F(1)), (F(0), F(0)))
    strip = next(m for c, m, _ in _stars(cx, F(0)) if len(c.labels) == 13)
    found = [
        keys,
        [rcx.closure(k) for k in keys],
        rcx.components(keys),
        [m.vertices for m in (model, strip)],
        [c.key for m in (model, strip) for c in m.cells.values()],
    ]
    assert all(type(x) is int for x in _leaves(found))
    assert all(rcx.cells[k].index == k[1] for k in keys)


def test_keys_in_takes_only_thresholds_as_ends():
    cx = build_complex(two_relu_net())
    rcx = refine_at_levels(cx, [F(1)])
    assert rcx.keys_in(None, F(1)) == sorted(k for k in rcx.cells if k[1] <= 1)
    assert rcx.keys_in(F(1), F(1)) == sorted(k for k in rcx.cells if k[1] == 1)
    for lo, hi in ((F(1, 2), None), (None, F(2)), (F(0), F(1))):
        with pytest.raises(ValueError, match="not a threshold"):
            rcx.keys_in(lo, hi)


def _pair_ranks(rcx, outer, inner):
    model, ids = modeled_pair(rcx, outer, inner)
    tri = triangulate(model)
    return relative_betti(SimplicialPair(tri.complex, carried_simplices(tri, ids)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_fan_network(1),
        lambda: build_coarse_bound_network(4),
        lambda: random_network((2, 2, 2, 1), 5),
        lambda: random_network((3, 3, 1), 10004),
        lambda: random_network((3, 2, 1), 1),
        half_plane_net,
    ],
    ids=["fan1", "coarse_bound4", "random_2_2_2_1_seed5", "random_3_3_1_seed10004",
         "random_3_2_1_seed1", "half_plane"],
)
def test_stable_measures_match_separate_models(make):
    """One refinement at +-M with marked models gives what the separate
    sub/superlevel models and the excised [-M-1, M] strip pairs give."""
    cx = build_complex(make())
    st, co, counts = morse.stable_measures(cx)
    m = st.m
    separate = tuple(
        betti(triangulate(model(cx, c)).complex)
        for model, c in ((sublevel_model, -m), (sublevel_model, m),
                         (superlevel_model, -m), (superlevel_model, m))
    )
    vecs = (st.sub_minus, st.sub_plus, st.super_minus, st.super_plus)
    assert vecs == separate
    assert counts == tuple(v[0] if v else 0 for v in vecs)
    mp = m + 1
    assert co.sublevel == _pair_ranks(
        refine_at_levels(cx, [-mp, -m, m]), (-mp, m), (-mp, -m)
    )
    assert co.superlevel == _pair_ranks(
        refine_at_levels(cx, [-m, m, mp]), (-m, mp), (m, mp)
    )
    # the kernel taken from W1 is the one each component's normals give
    rcx = refine_at_levels(cx, [-m, m])
    keys = rcx.keys_in(None, None)
    n = cx.network.n0
    for comp in rcx.components(keys):
        pieces = [rcx.cells[k] for k in comp]
        geos = [piece_geometry(p) for p in pieces]
        normals = [c for geo in geos for c, _ in (*geo.eqs, *geo.ges)]
        assert cx.kernel == tuple(nullspace_basis(normals, n))
        assert all(p.kernel == cx.kernel for p in essentialize(pieces, cx))


def _reference_pieces(cx, levels):
    """Reference rule: one Fourier-Motzkin feasibility test per (cell,
    interval), keeping the piece when the relative interior of the cell meets
    F^-1 of the relative interior of the interval; then the vertices of each
    kept piece, cut by the span of all kept pieces' normals, by subset
    enumeration.  Returns {(label, interval): vertices}."""
    ts = sorted(set(levels))
    intervals = [(None, None)]
    if ts:
        intervals = [(None, ts[0])]
        for a, b in zip(ts, ts[1:]):
            intervals += [(a, a), (a, b)]
        intervals += [(ts[-1], ts[-1]), (ts[-1], None)]
    n = cx.network.n0
    kept = {}
    for lab, c in cx.cells.items():
        for iv in intervals:
            eqc, inc = interval_constraints(c.gradient, c.constant, iv)
            if feasible(n, eqs=[*c.eqs, *eqc], gts=[*c.stricts, *inc]):
                kept[(lab, iv)] = (c, eqc, inc)
    normals = [
        coef for c, eqc, inc in kept.values() for coef, _ in [*c.eqs, *c.stricts, *eqc, *inc]
    ]
    cut = [canon_constraint(d, 0, equality=True) for d in nullspace_basis(normals, n)]
    out = {}
    for key, (c, eqc, inc) in kept.items():
        out[key] = Polyhedron(n, [*c.eqs, *eqc, *cut], [*c.stricts, *inc]).vertices
    return out


REFERENCE_NETS = {
    "fan1": lambda: build_fan_network(1),
    "fan2": lambda: build_fan_network(2),
    "coarse_bound4": lambda: build_coarse_bound_network(4),
    "random_2_3_1_seed3": lambda: random_network((2, 3, 1), 3),
    "random_2_2_2_1_seed5": lambda: random_network((2, 2, 2, 1), 5),
    "random_2_3_2_1_seed3": lambda: random_network((2, 3, 2, 1), 3),
    "random_3_3_1_seed10004": lambda: random_network((3, 3, 1), 10004),
    "random_3_2_1_seed1": lambda: random_network((3, 2, 1), 1),
    "half_plane": half_plane_net,
    "random_2_1_1_seed1": lambda: random_network((2, 1, 1), 1),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_NETS))
def test_pieces_and_vertices_match_feasibility_and_enumeration(name):
    """Pieces kept by the F-range rule equal what Fourier-Motzkin gives, and
    the kernel cut what the span of all pieces' normals gives, so each
    essentialized piece has the vertices that subset enumeration finds with
    that cut, and the dimension and boundedness of its H-representation, on
    full-rank and rank-deficient first layers alike.  Every cell's lineality
    is ker(W1), the rule pointedness is decided by."""
    cx = build_complex(REFERENCE_NETS[name]())
    k = len(cx.kernel)
    assert cx.network.depth >= 1
    for c in cx.cells.values():
        lines = nullspace_basis([g for g, _ in (*c.eqs, *c.stricts)], cx.network.n0)
        assert c.lineality == len(lines) == k
        assert rank([*lines, *cx.kernel]) == k
    for levels, _, _ in _level_queries(cx):
        rcx = refine_at_levels(cx, levels)
        want = _reference_pieces(cx, levels)
        got = {(p.source, p.interval): p for p in rcx.cells.values()}
        assert set(got) == set(want), levels
        for piece in got.values():
            assert piece.pointed == piece_geometry(piece).pointed
        for piece in essentialize(rcx.cells.values(), cx):
            geo = piece_geometry(piece)
            assert piece.pointed and geo.pointed
            assert (piece.dimension, piece.bounded) == (geo.dim, bounded(geo)), (levels, piece.key)
            assert geo.vertices == want[(piece.source, piece.interval)], (levels, piece.key)


def test_affine_net_pieces_are_cut_from_a_line():
    """With no hidden layer the one cell, cut by the row space of W1, is a
    line with no 0-face; its pieces' vertices are where it crosses levels,
    and a model's vertices are its point pieces."""
    cx = build_complex(
        Network((AffineLayer.make([[1, 2]], [3], "none"),))
    )
    rcx = refine_at_levels(cx, [F(-2), F(3)])
    origin, below = (F(0), F(0)), (F(-1), F(-2))
    pieces = essentialize(rcx.cells.values(), cx)
    assert {p.interval: piece_geometry(p).vertices for p in pieces} == {
        (None, F(-2)): [below],
        (F(-2), F(-2)): [below],
        (F(-2), F(3)): [below, origin],
        (F(3), F(3)): [origin],
        (F(3), None): [origin],
    }
    (model,) = modeled_pair(rcx, (F(-2), F(3)))
    assert model.vertices == (((), 1), ((), 3))
    assert model_coordinates(model, rcx) == (below, origin)
    for model in (sublevel_model, superlevel_model, level_model):
        assert betti(triangulate(model(cx, F(1))).complex) == (1,)


def test_affine_net_whole_line_stays_unpointed():
    """With no hidden layer the kernel cut leaves the cell a line along F's
    gradient: only a finite end of the interval makes a piece pointed."""
    cx = build_complex(Network((AffineLayer.make([[1, 2]], [3], "none"),)))
    rcx = refine_at_levels(cx, [])
    keys = rcx.keys_in(None, None)
    pieces = essentialize([rcx.cells[k] for k in keys], cx)
    assert [p.pointed for p in pieces] == [False]
    assert not piece_geometry(pieces[0]).pointed
    with pytest.raises(ValueError, match="unpointed; essentialize"):
        compact_part(pieces, rcx.closure)
    rcx = refine_at_levels(cx, [F(1)])
    pieces = essentialize(list(rcx.cells.values()), cx)
    assert all(p.pointed and piece_geometry(p).pointed for p in pieces)


# pieces of two_relu_net refined at F = 1, by name: interval 0 is F < 1,
# interval 1 is F = 1
AT_ONE = [(None, F(1)), (F(1), F(1)), (F(1), None)]
O = ((0, 0), 0)
A = ((1, 0), 1)
B = ((0, 1), 1)
X_SEG = ((1, 0), 0)
Y_SEG = ((0, 1), 0)
TRIANGLE = ((1, 1), 0)


def _sublevel_with_closures(drop=(), add=()):
    """F <= 1 of two_relu_net with F = 1 marked, with the closures corrupted:
    inner leaves the closure of outer for each (inner, outer) in drop, and
    joins it for each in add.  Returns the refinement, the model and the
    marked ids."""
    cx = build_complex(two_relu_net())
    rcx = refine_at_levels(cx, [F(1)])
    true_closure = rcx.closure
    rcx.closure = lambda b: [a for a in true_closure(b) if (a, b) not in drop] + [
        a for a, outer in add if outer == b
    ]
    return rcx, *modeled_pair(rcx, (None, F(1)), (F(1), F(1)))


def _where(key):
    return re.escape(f"cell {key[0]} over F-interval {AT_ONE[key[1]]}")


def test_uncorrupted_sublevel_is_the_triangle():
    rcx, model, marked = _sublevel_with_closures()
    assert sorted(c.dimension for c in model.cells.values()) == [0, 0, 0, 1, 1, 1, 2]
    # vertex ids in key order
    assert model.vertices == (O, B, A)
    assert model_coordinates(model, rcx) == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
    # the hypotenuse from (0, 1) to (1, 0) and its ends
    assert marked == {frozenset({1}), frozenset({2}), frozenset({1, 2})}
    assert model.cells[frozenset({0})].key == O
    assert model.cells[frozenset({0, 1, 2})].key == TRIANGLE
    # a piece marks its own cell only, so a mark must be a down-set of pieces
    assert model.cells_with_source([TRIANGLE]) == {frozenset({0, 1, 2})}
    with pytest.raises(RuntimeError, match="is marked but not all of its faces are"):
        CellularComplex(model).betti(model.cells_with_source([TRIANGLE]))


def test_selected_model_rejects_piece_with_too_few_vertices():
    with pytest.raises(RuntimeError, match=f"bounded 1-dimensional {_where(X_SEG)} has 1 vertices"):
        _sublevel_with_closures(drop=[(A, X_SEG)])


def test_selected_model_rejects_closure_not_alternating_to_one():
    with pytest.raises(RuntimeError, match=f"faces of bounded {_where(TRIANGLE)} alternate to 2"):
        _sublevel_with_closures(drop=[(X_SEG, TRIANGLE)])


def test_selected_model_rejects_pieces_sharing_a_vertex_set():
    with pytest.raises(RuntimeError, match="has the vertex set of another piece"):
        _sublevel_with_closures(drop=[(B, Y_SEG)], add=[(A, Y_SEG)])


GOLDEN = Path(__file__).resolve().parent / "golden"

HULL_NETS = {
    **{
        path.name.removesuffix(".net.json"): (lambda path=path: load_network(path))
        for path in sorted(GOLDEN.glob("*.net.json"))
    },
    "random_2_1_seed3": lambda: random_network((2, 1), 3),
    "random_3_1_seed3": lambda: random_network((3, 1), 3),
    "random_3_2_1_seed1": lambda: random_network((3, 2, 1), 1),
    "random_2_1_2_1_seed3": lambda: random_network((2, 1, 2, 1), 3),
}


def _cell_betti(tri, ids):
    marked = carried_simplices(tri, ids)
    return (
        betti(tri.complex),
        betti(SimplicialComplex(tri.complex.vertices, marked)),
        relative_betti(SimplicialPair(tri.complex, marked)),
    )


def _points(vids, vertices):
    return frozenset(vertices[v] for v in vids)


def _local_ranks(sc, marked):
    return relative_betti(SimplicialPair(sc, complement_complex(sc, marked)))


@pytest.mark.parametrize("name", sorted(HULL_NETS))
def test_bounded_subcomplex_matches_hull_model(name):
    """The bounded pieces and the vertex hulls of all pieces give the same
    Betti numbers, of the selection, of a marked part and of the pair, and
    every bounded piece is a face of the hull model with the same dimension,
    piece, faces and mark; the hull model marks a face when any piece whose
    hull has it is marked.
    The pulling triangulation of the bounded pieces gives them too, and on
    strips, subdivided, the same ranks relative to the complement of the
    marked part as the order complex."""
    cx = build_complex(HULL_NETS[name]())
    values = sorted({f for _, f in zero_cells(cx)})
    c = values[len(values) // 2] if values else F(0)
    h = F(1, 2)
    rcx = refine_at_levels(cx, [c - h, c, c + h])
    for outer, inner in [
        ((None, c), (None, c - h)),
        ((c, None), (c + h, None)),
        ((c - h, c), (c - h, c - h)),
        ((c - h, c), (c, c)),
    ]:
        model, ids = modeled_pair(rcx, outer, inner)
        pieces = essentialize([rcx.cells[k] for k in rcx.keys_in(*outer)], cx)
        hull = hull_compact_part(pieces)
        hull_ids = hull.cells_with_source(rcx.keys_in(*inner))
        tri, pulled = triangulate(model), pulling_triangulation(model)
        want = _cell_betti(tri, ids)
        assert want == _cell_betti(triangulate(hull), hull_ids), (outer, inner)
        assert want == _cell_betti(pulled, ids), (outer, inner)
        if None not in outer:
            sd, sd_k = barycentric_pair(pulled.complex, carried_simplices(pulled, ids))
            local = _local_ranks(tri.complex, carried_simplices(tri, ids))
            assert local == _local_ranks(sd, sd_k), (outer, inner)
        coords = model_coordinates(model, rcx)
        hull_cells = {_points(cid, hull.vertices): cid for cid in hull.cells}
        for cid, cell in model.cells.items():
            got = hull_cells[_points(cid, coords)]
            assert (hull.cells[got].dimension, hull.cells[got].key) == (cell.dimension, cell.key)
            assert {_points(f, hull.vertices) for f in hull.cells[got].faces} == {
                _points(f, coords) for f in cell.faces
            }
            assert (got in hull_ids) == (cid in ids), (outer, inner, cell.key)


ONE_POINT_NETS = {
    **{path.name: (lambda path=path: load_network(path)) for path in sorted(GOLDEN.glob("*.net.json"))},
    **{f"corpus {name}": make for name, make in ANALYZE_CORPUS_NETS.items()},
}


@pytest.mark.parametrize("name", sorted(ONE_POINT_NETS))
def test_bounded_zero_pieces_are_one_point(name, monkeypatch):
    """``compact_part`` numbers 0-dimensional pieces and computes no point, so
    the tests check that each is one point, in every refinement analyze
    makes.  A bounded 0-dimensional piece comes from a minimal cell, one
    point once cut by the row space of W1, or from a nonflat cell one
    dimension up cut at a threshold, on whose cut segment, ray or line F is
    strictly monotone and so meets the level once."""
    made = []

    def refine(cx, thresholds):
        made.append(refine_at_levels(cx, thresholds))
        return made[-1]

    monkeypatch.setattr(morse, "refine_at_levels", refine)
    morse.analyze(ONE_POINT_NETS[name]())
    assert made
    for rcx in made:
        pieces = essentialize(rcx.cells.values(), rcx.source)
        zeros = [p for p in pieces if p.bounded and p.dimension == 0]
        assert zeros
        for p in zeros:
            assert len(piece_geometry(p).vertices) == 1, (rcx.thresholds, p.key)
