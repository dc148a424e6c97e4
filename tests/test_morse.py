import re
import sys
from fractions import Fraction as F
from itertools import zip_longest
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmorse import compact, homology, morse
from plmorse.compact import (
    RefinedComplex,
    modeled_pair,
    refine_at_levels,
    strip_pair_model,
    sublevel_model,
    superlevel_model,
)
from plmorse.complexes import build_complex, flat_cells
from plmorse.homology import (
    SimplicialComplex,
    SimplicialPair,
    betti,
    complement_complex,
    relative_betti,
    triangulate,
)
from plmorse.morse import (
    DEGENERATE,
    NONDEGENERATE,
    REGULAR,
    UnsupportedNetworkError,
)
from plmorse.network import (
    AffineLayer,
    Network,
    build_coarse_bound_network,
    build_fan_network,
    load_network,
    random_network,
)

import order_complex
from order_complex import carried_simplices
from net_helpers import ANALYZE_CORPUS_NETS
from queries import classify_vertex, local_h_complexity
from stable_reference import two_model_measures
from strip_reference import strip_epsilon


def two_relu_net():
    return Network((
        AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
        AffineLayer.make([[1, 1]], [0], "none"),
    ))


def three_line_net(out_w):
    return Network((
        AffineLayer.make([[1, 0], [0, -1], [-1, -1]], [0, 0, 1], "relu"),
        AffineLayer.make([out_w], [0], "none"),
    ))


def deep_flat_net():
    """relu(relu(x) + relu(y)): the second-layer node map dies on a quadrant."""
    return Network((
        AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
        AffineLayer.make([[1, 1]], [0], "relu"),
        AffineLayer.make([[1]], [0], "none"),
    ))


def test_big_m():
    cx = build_complex(two_relu_net())
    assert morse.big_m(cx) == 1
    cx2 = build_complex(build_fan_network(2))
    assert morse.big_m(cx2) == max(abs(t) for t in cx2.nontransversal_thresholds) + 1


def test_local_record_of_flat_quadrant():
    cx = build_complex(two_relu_net())
    records = morse.local_records(cx)
    assert len(records) == 1
    rec = records[0]
    assert rec.level == 0
    assert set(rec.labels) == {(-1, -1), (-1, 0), (0, -1), (0, 0)}
    assert rec.ranks == (1,)
    assert rec.total == 1
    assert rec.h_critical
    assert morse.global_h_complexity(cx) == 1


def test_fan1_plateau_is_degree_one_critical():
    cx = build_complex(build_fan_network(1))
    records = morse.local_records(cx)
    assert len(records) == 1
    assert len(records[0].labels) == 9
    assert records[0].ranks == (0, 1)


def test_fan2_hexagon_local_ranks():
    cx = build_complex(build_fan_network(2))
    comp = next(c for c in flat_cells(cx) if len(c.labels) == 13)
    rec = local_h_complexity(cx, comp)
    assert rec.level == 0
    assert rec.ranks == (0, 2)


def test_fan2_records_and_global():
    cx = build_complex(build_fan_network(2))
    records = morse.local_records(cx)
    assert len(records) == 9
    by_ranks = sorted(rec.ranks for rec in records)
    assert by_ranks.count(()) == 3
    assert by_ranks.count((1,)) == 1
    assert by_ranks.count((0, 1)) == 2
    assert by_ranks.count((0, 2)) == 1
    assert by_ranks.count((0, 0, 1)) == 2
    assert morse.global_h_complexity(cx) == 7


def test_local_h_complexity_unknown_component():
    cx = build_complex(two_relu_net())
    from plmorse.complexes import FlatComponent

    bogus = FlatComponent(F(0), ((1, 1),))
    with pytest.raises(ValueError, match="no flat component"):
        local_h_complexity(cx, bogus)


def test_floor_choice_does_not_change_ranks():
    """The hexagon's closed star has the same ranks whether the threshold
    below its level is -M, with other thresholds inside the gap, or a thin
    strip's floor."""
    cx = build_complex(build_fan_network(2))
    a = F(0)
    eps = strip_epsilon(cx, a)
    comp = next(c for c in flat_cells(cx) if c.level == a and len(c.labels) == 13)
    results = []
    for lower in (-morse.big_m(cx), a - eps, a - eps / 2):
        model, ids = strip_pair_model(refine_at_levels(cx, [lower, a]), comp)
        tri = triangulate(model)
        away = complement_complex(tri.complex, carried_simplices(tri, ids))
        results.append(relative_betti(SimplicialPair(tri.complex, away)))
    assert results == [(0, 2)] * 3


GOLDEN = Path(__file__).parent / "golden"

# Nets on which cellular homology is compared with the order complex.
ORDER_COMPLEX_NETS = {
    **{
        path.name.removesuffix(".net.json"): (lambda path=path: load_network(path))
        for path in sorted(GOLDEN.glob("*.net.json"))
    },
    **{f"fan{n}": (lambda n=n: build_fan_network(n)) for n in (1, 2)},
    **{f"coarse{m}": (lambda m=m: build_coarse_bound_network(m)) for m in (4, 5)},
    **{
        f"{''.join(map(str, arch))}s{seed}": (lambda arch=arch, seed=seed: random_network(arch, seed))
        for arch in [(2, 3, 1), (2, 4, 1), (2, 2, 2, 1), (3, 3, 1), (2, 3, 2, 1), (3, 4, 1)]
        for seed in range(4)
    },
}


def order_complex_measures(model, sets, pairs):
    """b(A) for each A carried by one of the sets, and b(A, B) for each pair
    (i, j) of indices of B inside A, on the order complex of the model."""
    tri = triangulate(model)
    carried = [carried_simplices(tri, ids) for ids in sets]
    return (
        tuple(betti(SimplicialComplex(tri.complex.vertices, c)) for c in carried),
        tuple(
            relative_betti(SimplicialPair(SimplicialComplex(tri.complex.vertices, carried[i]),
                                          carried[j]))
            for i, j in pairs
        ),
    )


def order_complex_local_ranks(model, ids):
    """H(X, X minus K) on the order complex, against the full complement of K."""
    tri = triangulate(model)
    away = complement_complex(tri.complex, carried_simplices(tri, ids))
    return relative_betti(SimplicialPair(tri.complex, away))


@pytest.mark.parametrize("name", sorted(ORDER_COMPLEX_NETS))
def test_cellular_ranks_match_order_complex(name):
    """The one +-M model and every star model give the same ranks on cells
    as on the order complex of their face posets."""
    cx = build_complex(ORDER_COMPLEX_NETS[name]())
    st, co, _ = morse.stable_measures(cx)
    m = st.m
    rcx = refine_at_levels(cx, [-m, m])
    model, *sets = modeled_pair(rcx, (None, None), (None, -m), (None, m), (-m, None), (m, None))
    want = order_complex_measures(model, sets, [(1, 0), (2, 3)])
    assert ((st.sub_minus, st.sub_plus, st.super_minus, st.super_plus),
            (co.sublevel, co.superlevel)) == want
    rcx = refine_at_levels(cx, [-m, *cx.nontransversal_thresholds])
    for comp in flat_cells(cx):
        model, ids = strip_pair_model(rcx, comp)
        got = morse._star_record(rcx, comp).ranks
        assert got == order_complex_local_ranks(model, ids), comp.labels


def test_analyze_takes_no_order_complex(monkeypatch):
    """analyze runs on cellular chains: none of the order-complex route runs."""
    names = ["triangulate", "carried_simplices", "complement_complex", "relative_betti"]

    def refuse(*args, **kwargs):
        raise AssertionError("analyze called the order-complex route")

    plmorse_modules = [mod for key, mod in sys.modules.items() if key.startswith("plmorse.")]
    for mod in [*plmorse_modules, order_complex]:
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    assert not hasattr(homology, "carried_simplices")
    for net in (build_fan_network(2), random_network((2, 3, 2, 1), 3)):
        rep = morse.analyze(net)
        assert rep.components and rep.stable.sub_plus


def test_analyze_refines_once_for_strips_and_once_for_stable_measures(monkeypatch):
    """The strip refinement holds -M and the level of each flat component
    that is not one minimal cell, and is skipped when there is none; the
    stable measures refine once at -M and M."""
    calls = []

    def counted(cx, thresholds):
        calls.append(sorted(thresholds))
        return refine_at_levels(cx, thresholds)

    monkeypatch.setattr(morse, "refine_at_levels", counted)
    cx = build_complex(build_fan_network(2))
    morse.analyze(build_fan_network(2))
    (hexagon,) = [comp for comp in flat_cells(cx) if not isolated(cx, comp)]
    a, m = hexagon.level, morse.big_m(cx)
    assert calls == [[-m, a], [-m, m]]
    calls.clear()
    net = random_network((2, 4, 1), 130007)
    cx = build_complex(net)
    assert all(isolated(cx, comp) for comp in flat_cells(cx))
    morse.analyze(net)
    assert calls == [[-morse.big_m(cx), morse.big_m(cx)]]


@pytest.mark.parametrize(
    "net", [build_fan_network(2), random_network((2, 3, 2, 1), 3)], ids=["fan2", "2321s3"]
)
def test_local_h_complexity_matches_local_records(net):
    cx = build_complex(net)
    records = morse.local_records(cx)
    comps = flat_cells(cx)
    assert len(records) == len(comps) > 1
    for comp, rec in zip(comps, records):
        assert rec.labels == comp.labels
        assert local_h_complexity(cx, comp) == rec


def isolated(cx, comp):
    """Whether the flat component is one minimal cell, the link route's case."""
    return len(comp.labels) == 1 and cx.cells[comp.labels[0]].dimension == len(cx.kernel)


def lifted(net):
    """The net on three inputs whose W1 has the sum of its two columns as a
    third: every cell is a planar cell times the line along (1, 1, -1), so
    ker(W1) has dimension 1 and each planar vertex becomes a minimal line."""
    first = net.layers[0]
    weights = [[*row, row[0] + row[1]] for row in first.weights]
    return Network((AffineLayer.make(weights, first.bias, first.activation), *net.layers[1:]))


def leaving_slopes(cx, v):
    """F's slope along each edge at the minimal cell v, leaving v."""
    ((p, _),) = cx.skeleton[v].points
    k = len(cx.kernel)
    return [e.slope if e.start == p else -e.slope
            for c in cx.cofaces_of(v) if cx.cells[c].dimension == k + 1
            for e in cx.skeleton[c].edges]


# The seed-13 nets of the benchmark's analyze-shallow and analyze-deep corpora
# (fan(1), one (2,3,1) net, the (2,2,2,1) and the (3,3,1) nets have no isolated
# flat minimal cell), named "231s130004" for "(2, 3, 1) seed 130004",
# three-input lifts of planar nets, and two constant nets, whose one cell is
# all of input space, so that its link is empty.
LINK_NETS = {
    **{re.sub(r"\((.*)\) seed ", lambda m: m[1].replace(", ", "") + "s", name): make
       for name, make in ANALYZE_CORPUS_NETS.items()},
    "lifted_fan2": lambda: lifted(build_fan_network(2)),
    **{
        f"lifted_{''.join(map(str, arch))}s{seed}": (
            lambda arch=arch, seed=seed: lifted(random_network(arch, seed)))
        for arch, seed in [((2, 3, 1), 1), ((2, 4, 1), 0), ((2, 4, 1), 1)]
    },
    "constant": lambda: Network((AffineLayer.make([[0, 0]], [3], "none"),)),
    "constant_relu": lambda: Network((
        AffineLayer.make([[0, 0], [0, 0]], [1, -1], "relu"),
        AffineLayer.make([[1, 1]], [0], "none"),
    )),
}
NO_ISOLATED = {
    "fan1", "231s130005", "2221s130002", "2221s130003", "331s130004", "331s130005", "331s130006",
}


@pytest.mark.parametrize("name", sorted(LINK_NETS))
def test_link_route_matches_strip_route(name):
    """Each flat component that is one minimal cell gets the same ranks from
    its lower link as from its closed star in a refinement at -M and its
    level; a local minimum gets (1,), and a local maximum the top degree of
    its link."""
    cx = build_complex(LINK_NETS[name]())
    top = cx.network.n0 - len(cx.kernel)
    comps = [comp for comp in flat_cells(cx) if isolated(cx, comp)]
    assert bool(comps) == (name not in NO_ISOLATED)
    for comp in comps:
        want = morse._star_record(refine_at_levels(cx, [-morse.big_m(cx), comp.level]), comp)
        got = morse._link_record(cx, comp)
        assert got == want, comp.labels
        slopes = leaving_slopes(cx, comp.labels[0])
        if all(s > 0 for s in slopes):
            assert got.ranks == (1,)
        if slopes and all(s < 0 for s in slopes):
            assert got.ranks == (0,) * top + (1,)


# The order-complex nets (the golden nets and seeds 0-3 of six architectures),
# the link nets (both seed-13 analyze corpora, three-input lifts with a
# 1-dimensional kernel and two constant nets), a net with no hidden layer
# and the half-plane net relu(x).
STABLE_NETS = {
    **ORDER_COMPLEX_NETS,
    **LINK_NETS,
    "no_hidden_layer": lambda: Network((AffineLayer.make([[1, 2]], [3], "none"),)),
    "half_plane": lambda: Network((
        AffineLayer.make([[1, 0]], [0], "relu"),
        AffineLayer.make([[1]], [0], "none"),
    )),
}


@pytest.mark.parametrize("name", sorted(STABLE_NETS))
def test_one_model_matches_two_model_reference(name):
    """The stable vectors, coarse ranks and counts read off one model of the
    +-M refinement are those of the two marked models."""
    cx = build_complex(STABLE_NETS[name]())
    assert morse.stable_measures(cx) == two_model_measures(cx)


@pytest.mark.parametrize("lift", [False, True], ids=["fan2", "lifted_fan2"])
def test_link_route_has_a_local_minimum_and_maximum(lift):
    net = lifted(build_fan_network(2)) if lift else build_fan_network(2)
    cx = build_complex(net)
    top = cx.network.n0 - len(cx.kernel)
    ranks = [morse._link_record(cx, comp).ranks for comp in flat_cells(cx) if isolated(cx, comp)]
    assert (1,) in ranks and (0,) * top + (1,) in ranks


def test_link_route_of_a_constant_net_is_e0():
    cx = build_complex(LINK_NETS["constant"]())
    (comp,) = flat_cells(cx)
    assert cx.cofaces_of(comp.labels[0]) == []
    assert morse.local_records(cx) == (morse.LocalComplexityRecord(F(3), comp.labels, (1,)),)


def _one_vertex(cx):
    comp = next(comp for comp in flat_cells(cx) if isolated(cx, comp))
    return comp, comp.labels[0]


def test_link_route_checks_the_euler_characteristic():
    cx = build_complex(build_fan_network(2))
    comp, v = _one_vertex(cx)
    cx.cofaces_of(v).remove(next(c for c in cx.cofaces_of(v) if cx.cells[c].dimension == 2))
    message = f"the link of flat cell {v} is not a 1-sphere"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        local_h_complexity(cx, comp)


def test_link_route_refuses_a_flat_edge():
    cx = build_complex(build_fan_network(2))
    comp, v = _one_vertex(cx)
    edge = next(c for c in cx.cofaces_of(v) if cx.cells[c].dimension == 1)
    faces = cx.skeleton[edge]
    cx.skeleton[edge] = faces._replace(edges=tuple(e._replace(slope=0) for e in faces.edges))
    with pytest.raises(RuntimeError, match=re.escape(f"flat cell {v} has a flat edge")):
        local_h_complexity(cx, comp)


def test_local_h_complexity_of_a_vertex_refines_nothing(monkeypatch):
    cx = build_complex(random_network((3, 4, 1), 3))
    want = morse.local_records(cx)

    def refuse(*args):
        raise AssertionError("a vertex's local ranks refined the complex")

    monkeypatch.setattr(morse, "refine_at_levels", refuse)
    comps = flat_cells(cx)
    assert any(isolated(cx, comp) for comp in comps)
    for comp, rec in zip(comps, want):
        if isolated(cx, comp):
            assert local_h_complexity(cx, comp) == rec


@pytest.mark.parametrize("arch", [(2, 3, 1), (2, 4, 1), (3, 4, 1), (4, 5, 1)])
def test_isolated_vertex_ranks_match_classification(arch):
    """On generic one-hidden-layer nets, a Regular vertex has no local
    homology and a NondegenerateCritical vertex of index k has e_k."""
    checked = 0
    for seed in range(6):
        cx = build_complex(random_network(arch, seed))
        try:
            classes = {v.point: v for v in morse.classify_vertices(cx)}
        except UnsupportedNetworkError:
            continue
        for comp in flat_cells(cx):
            if isolated(cx, comp):
                v = classes[cx.skeleton[comp.labels[0]].points[0][0]]
                want = {REGULAR: (), NONDEGENERATE: (0,) * (v.index or 0) + (1,)}[v.kind]
                assert local_h_complexity(cx, comp).ranks == want, (seed, v)
                checked += 1
    assert checked


def test_stable_complexities_two_relu():
    st = morse.stable_measures(build_complex(two_relu_net()))[0]
    assert st.m == 1
    assert st.sub_minus == ()
    assert st.sub_plus == (1,)
    assert st.super_minus == (1,)
    assert st.super_plus == (1,)


def test_stable_complexities_fans():
    for n in (1, 2):
        st = morse.stable_measures(build_complex(build_fan_network(n)))[0]
        assert st.sub_minus == (2,)
        assert st.sub_plus == (1,)
        assert st.super_minus == (1,)
        assert st.super_plus == (2,)


def test_stable_invariant_under_larger_cutoff():
    cx = build_complex(build_fan_network(1))
    st = morse.stable_measures(cx)[0]
    m = morse.big_m(cx) + 5
    vecs = tuple(
        betti(triangulate(md).complex)
        for md in (
            sublevel_model(cx, -m),
            sublevel_model(cx, m),
            superlevel_model(cx, -m),
            superlevel_model(cx, m),
        )
    )
    assert vecs == (st.sub_minus, st.sub_plus, st.super_minus, st.super_plus)


def test_coarse_complexities_examples():
    assert morse.coarse_complexities(build_complex(two_relu_net())) == morse.CoarseComplexities((1,), ())
    co = morse.coarse_complexities(build_complex(build_fan_network(2)))
    assert co.sublevel == (0, 1)
    assert co.superlevel == (0, 1)
    assert co.sublevel_total == 1


def test_coarse_bound_networks():
    co3 = morse.coarse_complexities(build_complex(build_coarse_bound_network(3)))
    assert co3.sublevel == (0, 1)
    co4 = morse.coarse_complexities(build_complex(build_coarse_bound_network(4)))
    assert co4.sublevel == (0, 2)
    assert co4.superlevel == (0, 2)


def test_component_counts_match_stable_betti():
    for net in (two_relu_net(), build_fan_network(1), three_line_net([2, -3, 1])):
        cx = build_complex(net)
        st, _, counts = morse.stable_measures(cx)
        for got, vec in zip(counts, (st.sub_minus, st.sub_plus, st.super_minus, st.super_plus)):
            b0 = vec[0] if vec else 0
            assert got == b0


def test_component_count_bounds_fan2():
    cx = build_complex(build_fan_network(2))
    _, co, (n_minus, n_plus, n_super_minus, n_super_plus) = morse.stable_measures(cx)
    assert abs(n_minus - n_plus) <= co.sublevel_total
    assert abs(n_super_plus - n_super_minus) <= co.superlevel_total


def test_stable_measures_check_counts_against_b0(monkeypatch):
    real = homology.sparse_rank
    monkeypatch.setattr(homology, "sparse_rank", lambda rows: real(rows) + 1)
    with pytest.raises(RuntimeError, match="connected components but Betti numbers"):
        morse.stable_measures(build_complex(build_fan_network(1)))


@pytest.mark.parametrize("at", range(4), ids=["sub_minus", "sub_plus", "super_minus", "super_plus"])
def test_stable_measures_name_the_set_whose_count_disagrees(monkeypatch, at):
    """A component count that is not b_0 of its set is a RuntimeError that
    names the set."""
    m = F(1)
    lo, hi = ((None, -m), (None, m), (-m, None), (m, None))[at]
    real = RefinedComplex.component_counts

    def one_too_many(rcx, *nested):
        found = real(rcx, *nested)
        return [n + (sorted(keys) == rcx.keys_in(lo, hi)) for keys, n in zip(nested, found)]

    monkeypatch.setattr(RefinedComplex, "component_counts", one_too_many)
    cx = build_complex(two_relu_net())
    assert morse.big_m(cx) == m
    want = two_model_measures(cx)[0]
    vec = (want.sub_minus, want.sub_plus, want.super_minus, want.super_plus)[at]
    where = f"F <= {hi}" if lo is None else f"F >= {lo}"
    n = (vec[0] if vec else 0) + 1
    with pytest.raises(RuntimeError, match=re.escape(
            f"{where} has {n} connected components but Betti numbers {vec}")):
        morse.stable_measures(cx)


def test_analyze_builds_one_model_for_the_stable_measures(monkeypatch):
    """On fan(2) the +-M measures make one compact_part call and one
    CellularComplex; every other one is the hexagon's star model or an
    isolated vertex's link."""
    calls, inside = [], []
    part, chains, stable = compact.compact_part, morse.CellularComplex, morse.stable_measures

    def counted_part(pieces, pairs):
        calls.append(("compact_part", bool(inside)))
        return part(pieces, pairs)

    def counted_chains(model):
        calls.append(("CellularComplex", bool(inside)))
        return chains(model)

    def marked_stable(cx):
        inside.append(cx)
        try:
            return stable(cx)
        finally:
            inside.pop()

    monkeypatch.setattr(compact, "compact_part", counted_part)
    monkeypatch.setattr(morse, "CellularComplex", counted_chains)
    monkeypatch.setattr(morse, "stable_measures", marked_stable)
    morse.analyze(build_fan_network(2))
    assert [name for name, in_stable in calls if in_stable] == ["compact_part", "CellularComplex"]
    cx = build_complex(build_fan_network(2))
    comps = flat_cells(cx)
    stars = sum(not isolated(cx, comp) for comp in comps)
    assert stars == 1
    assert calls.count(("compact_part", False)) == stars
    assert calls.count(("CellularComplex", False)) == len(comps)


def test_stable_measures_walk_each_closure_once(monkeypatch):
    """The counts and the one model share one walk of each piece's closure."""
    cx = build_complex(build_fan_network(2))
    refined = []

    def kept(cx, thresholds):
        refined.append(refine_at_levels(cx, thresholds))
        return refined[-1]

    walked = []
    faces_of = cx.faces_of
    monkeypatch.setattr(morse, "refine_at_levels", kept)
    monkeypatch.setattr(cx, "faces_of", lambda lab: walked.append(lab) or faces_of(lab))
    morse.stable_measures(cx)
    (rcx,) = refined
    assert len(walked) == len(rcx.cells)
    key = next(iter(rcx.cells))
    assert rcx.closure(key) is rcx.closure(key)
    assert len(walked) == len(rcx.cells)


def test_classify_vertex_threeline():
    cx = build_complex(three_line_net([2, -3, 1]))
    v = classify_vertex(cx, (0, 0))
    assert v.kind == NONDEGENERATE
    assert v.index == 1
    v2 = classify_vertex(build_complex(three_line_net([2, 1, 1])), (0, 0))
    assert v2.kind == REGULAR
    assert v2.index is None


def test_classify_vertex_on_flat_boundary():
    v = classify_vertex(build_complex(two_relu_net()), (0, 0))
    assert v.kind == DEGENERATE


def test_one_monotone_pair_makes_a_vertex_regular_beside_a_flat_edge():
    """F = 0 * relu(x) + relu(y) + relu(x - y + 3).  Near (0, 0) F is
    3 + x + g(y) and near (0, 3) it is 3 + x + g(x - y + 3), g flat on one
    side: F is strictly monotone along x, so both are regular whichever
    pair of edges is looked at first.  (-3, 0) has no monotone pair."""
    net = Network((
        AffineLayer.make([[1, 0], [0, 1], [1, -1]], [0, 0, 3], "relu"),
        AffineLayer.make([[0, 1, 1]], [0], "none"),
    ))
    cx = build_complex(net)
    verts = morse.classify_vertices(cx)
    assert [(v.point, v.kind) for v in verts] == [
        ((-3, 0), DEGENERATE), ((0, 0), REGULAR), ((0, 3), REGULAR)
    ]
    (rec,) = [r for r in morse.local_records(cx) if r.level == 3]
    assert rec.total == 0


def test_classify_vertices_sorted():
    cx = build_complex(three_line_net([2, -3, 1]))
    verts = morse.classify_vertices(cx)
    assert [v.point for v in verts] == [(0, 0), (0, 1), (1, 0)]
    assert [v.kind for v in verts] == [NONDEGENERATE, DEGENERATE, REGULAR]


def test_classify_rejects_deep_and_nongeneric():
    with pytest.raises(UnsupportedNetworkError, match="single hidden layer"):
        classify_vertex(build_complex(deep_flat_net()), (0, 0))
    with pytest.raises(UnsupportedNetworkError, match="not generic"):
        morse.classify_vertices(build_complex(build_fan_network(2)))
    cx = build_complex(three_line_net([2, -3, 1]))
    with pytest.raises(ValueError, match="not a 0-cell"):
        classify_vertex(cx, (5, 5))


def test_is_pl_morse_depth2():
    co_oriented = Network((
        AffineLayer.make([[1, 0], [0, 1], [-1, -1]], [0, 0, 1], "relu"),
        AffineLayer.make([[1, 1, 1]], [0], "none"),
    ))
    assert morse.is_pl_morse_depth2(co_oriented) is True
    assert morse.is_pl_morse_depth2(two_relu_net()) is False
    assert morse.is_pl_morse_depth2(three_line_net([2, -3, 1])) is False
    with pytest.raises(UnsupportedNetworkError, match="single hidden layer"):
        morse.is_pl_morse_depth2(deep_flat_net())
    with pytest.raises(UnsupportedNetworkError, match="not generic"):
        morse.is_pl_morse_depth2(build_fan_network(2))


def test_analyze_threeline():
    rep = morse.analyze(three_line_net([2, -3, 1]))
    assert rep.thresholds == (F(0), F(1), F(2))
    assert rep.global_h_complexity == 2
    by_level = {rec.level: rec for rec in rep.components}
    assert by_level[F(0)].ranks == (1,)
    assert by_level[F(1)].labels == (((0, 0, 1)),)
    assert by_level[F(1)].ranks == (0, 1)
    assert by_level[F(2)].ranks == ()
    assert not by_level[F(2)].h_critical
    assert rep.vertices is not None and len(rep.vertices) == 3
    crit = next(v for v in rep.vertices if v.kind == NONDEGENERATE)
    assert crit.point == (0, 0)
    assert crit.index == 1
    assert by_level[F(1)].ranks[crit.index] == 1
    assert rep.flags["coarse_le_global"] is True
    assert rep.flags["global_le_vertex_count"] is True


def test_analyze_fan2():
    rep = morse.analyze(build_fan_network(2))
    assert rep.vertices is None
    assert rep.global_h_complexity == 7
    hexagon = next(rec for rec in rep.components if len(rec.labels) == 13)
    assert hexagon.level == 0
    assert hexagon.ranks == (0, 2)
    assert rep.counts == (2, 1, 1, 2)
    assert rep.flags["coarse_le_global"] is True


def test_analyze_rejects_nontransversal():
    with pytest.raises(UnsupportedNetworkError, match="not transversal"):
        morse.analyze(deep_flat_net())


def test_report_json_matches_schema():
    for net in (three_line_net([2, -3, 1]), build_fan_network(2)):
        rep = morse.analyze(net)
        doc = morse.report_to_json(rep)
        jsonschema.validate(doc, morse.REPORT_SCHEMA)
    doc = morse.report_to_json(morse.analyze(three_line_net([2, -3, 1])))
    assert doc["thresholds"] == ["0/1", "1/1", "2/1"]
    assert doc["global_h_complexity"] == 2
    assert set(doc["counts"]) == {"n_minus", "n_plus", "n_super_minus", "n_super_plus"}
    crit = next(v for v in doc["vertices"] if v["class"] == NONDEGENERATE)
    assert crit == {"point": ["0/1", "0/1"], "class": NONDEGENERATE, "index": 1}
    regular = next(v for v in doc["vertices"] if v["class"] == REGULAR)
    assert "index" not in regular


def _euler(ranks):
    return sum((-1) ** k * r for k, r in enumerate(ranks))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 10**6))
def test_reports_satisfy_euler_balance_and_weak_morse_inequalities(width, seed):
    """On random (2, k, 1) nets, chi(F<=M) - chi(F<=-M), the summed local
    Euler characteristics and chi of the coarse sublevel pair agree, chi of
    the coarse superlevel pair is chi(F>=-M) - chi(F>=M), and the coarse
    sublevel ranks c and the local ranks summed by degree s satisfy the weak
    Morse inequalities c_k <= s_k and the strong ones, the alternating sums
    c_k - c_(k-1) + ... + (-1)^k c_0 <= s_k - s_(k-1) + ... + (-1)^k s_0."""
    report = morse.analyze(random_network((2, width, 1), seed))
    stable, coarse = report.stable, report.coarse
    local = [rec.ranks for rec in report.components]
    assert (
        _euler(stable.sub_plus) - _euler(stable.sub_minus)
        == sum(map(_euler, local))
        == _euler(coarse.sublevel)
    )
    assert _euler(coarse.superlevel) == _euler(stable.super_minus) - _euler(stable.super_plus)
    summed = [sum(col) for col in zip_longest(*local, fillvalue=0)]
    pairs = list(zip_longest(coarse.sublevel, summed, fillvalue=0))
    for k, (c_k, s_k) in enumerate(pairs):
        assert c_k <= s_k
        assert sum((-1) ** (k - j) * (c - s) for j, (c, s) in enumerate(pairs[: k + 1])) <= 0
