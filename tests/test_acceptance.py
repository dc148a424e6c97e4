"""Acceptance gate: the ten headline checks, one pass/fail line each, and
criterion 8 once more as a property test.

Run with -s to see the lines; each headline test prints its verdict only
after every assertion in it has held.
"""

import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plmorse import morse
from plmorse.compact import refine_at_levels, sublevel_model, superlevel_model
from plmorse.complexes import (
    build_complex,
    census,
    edge_orientation,
    is_generic,
)
from plmorse.ensembles import montecarlo_flat_cell, montecarlo_plmorse
from plmorse.geometry import rational_point
from plmorse.homology import CellularComplex, betti, grid_oracle, triangulate
from plmorse.network import (
    AffineLayer,
    Network,
    build_coarse_bound_network,
    build_fan_network,
    random_network,
)

from net_helpers import generic_line_counts, level_model, negate
from piece_geometry import model_coordinates
from queries import zero_cells

ACC_SEED = 20260822


def two_relu_net():
    return Network((
        AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
        AffineLayer.make([[1, 1]], [0], "none"),
    ))


def three_line_net():
    return Network((
        AffineLayer.make([[1, 0], [0, -1], [-1, -1]], [0, 0, 1], "relu"),
        AffineLayer.make([[2, -3, 1]], [0], "none"),
    ))


def generic_nets(arch, count, base_seed, attempts=500):
    out = []
    for offset in range(attempts):
        if len(out) == count:
            return out
        net = random_network(arch, base_seed + offset)
        if is_generic(net):
            out.append(net)
    raise AssertionError(f"only {len(out)}/{count} generic nets at {arch} in {attempts} draws")


@pytest.fixture(scope="module")
def survey():
    """Generic depth-2 nets with their coarse ranks and region counts."""
    archs = [(2, 3 + i % 3, 1) for i in range(100)] + [(3, 3, 1)] * 5 + [(3, 4, 1)] * 5
    rows = []
    for i, arch in enumerate(archs):
        net = generic_nets(arch, 1, ACC_SEED + 100 * i)[0]
        cx = build_complex(net)
        _, coarse, counts = morse.stable_measures(cx)
        rows.append((arch, cx, coarse, counts))
    return rows


def test_criterion_01_zaslavsky_census():
    t0 = time.time()
    for m in (3, 4, 5):
        want = generic_line_counts(m)
        for net in generic_nets((2, m, 1), 50, ACC_SEED + 1000 * m):
            cells = census(build_complex(net))
            assert cells.get((0, True), 0) == want["zero_cells"]
            assert cells.get((0, False), 0) == 0
            assert cells.get((1, True), 0) + cells.get((1, False), 0) == want["one_cells"]
            assert cells.get((1, False), 0) == want["unbounded_one_cells"]
            assert cells.get((2, True), 0) + cells.get((2, False), 0) == want["two_cells"]
            assert cells.get((2, False), 0) == want["unbounded_two_cells"]
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"criterion 1 (Zaslavsky census, 150 nets): PASS in {elapsed:.1f}s")


def _within_four_sigma(summary, p):
    diff = summary.empirical_rate - p
    return diff * diff * summary.trials <= 16 * p * (1 - p)


def test_criterion_02_plmorse_probability():
    t0 = time.time()
    rates = []
    for n, n1, p in ((1, 3, F(1, 2)), (2, 3, F(1, 8)), (2, 5, F(1, 2))):
        s = montecarlo_plmorse(n, n1, 10_000, ACC_SEED)
        assert s.closed_form == p
        assert _within_four_sigma(s, p)
        rates.append(f"({n},{n1})={float(s.empirical_rate):.4f}")
    zero = montecarlo_plmorse(3, 2, 1_000, ACC_SEED)
    assert zero.successes == 0
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"criterion 2 (PL-Morse probability, {' '.join(rates)}, (3,2)=0): PASS in {elapsed:.1f}s")


def test_criterion_03_fan_local_complexity():
    details = []
    for n in (1, 2, 3):
        t0 = time.time()
        report = morse.analyze(build_fan_network(n))
        elapsed = time.time() - t0
        central = max(report.components, key=lambda rec: len(rec.labels))
        assert central.level == 0
        assert central.ranks == (0, n)
        details.append(f"fan({n})->(0,{n}) in {elapsed:.1f}s")
        if n == 3:
            assert elapsed < 120
    print(f"criterion 3 (fan local complexity, {'; '.join(details)}): PASS")


def test_criterion_04_coarse_sharp_bound(survey):
    for m in (4, 5):
        co = morse.coarse_complexities(build_complex(build_coarse_bound_network(m)))
        assert co.sublevel == (0, m - 2)
    planar = [(arch, co) for arch, _, co, _ in survey if arch[0] == 2]
    assert len(planar) == 100
    for arch, co in planar:
        bound = arch[1] - 2
        assert co.sublevel_total <= bound
        assert co.superlevel_total <= bound
    print("criterion 4 (coarse bound: m-2 sharp at m=4,5; 100 random nets under it): PASS")


def test_criterion_05_component_count_bounds(survey):
    assert len(survey) >= 100
    for _, _, co, counts in survey:
        n_minus, n_plus, n_super_minus, n_super_plus = counts
        assert abs(n_minus - n_plus) <= co.sublevel_total
        assert abs(n_super_plus - n_super_minus) <= co.superlevel_total
    print(f"criterion 5 (component-count bounds on {len(survey)} nets, 0 violations): PASS")


def test_criterion_06_classification_vs_homology():
    checked = {morse.REGULAR: 0, morse.NONDEGENERATE: 0}
    for arch in ((2, 3, 1), (2, 4, 1)):
        for net in generic_nets(arch, 25, ACC_SEED + 7 * arch[1]):
            cx = build_complex(net)
            if cx.transversality_witnesses:
                continue
            records = {}
            for rec in morse.local_records(cx):
                for lab in rec.labels:
                    if cx.cells[lab].dimension == 0:
                        records[rational_point(cx.skeleton[lab].points[0][0])] = rec
            for v in morse.classify_vertices(cx):
                if v.kind == morse.REGULAR:
                    assert records[v.point].total == 0
                    checked[morse.REGULAR] += 1
                elif v.kind == morse.NONDEGENERATE:
                    rec = records[v.point]
                    assert rec.total == 1
                    assert rec.ranks[v.index] == 1
                    checked[morse.NONDEGENERATE] += 1
    assert checked[morse.REGULAR] > 0 and checked[morse.NONDEGENERATE] > 0
    print(
        f"criterion 6 (classification vs homology: {checked[morse.REGULAR]} regular, "
        f"{checked[morse.NONDEGENERATE]} critical vertices agree): PASS"
    )


def _gap_samples(thresholds):
    if not thresholds:
        return [(F(-1), F(1))]
    gaps = [(thresholds[0] - 2, thresholds[0] - 1)]
    for lo, hi in zip(thresholds, thresholds[1:]):
        step = (hi - lo) / 3
        gaps.append((lo + step, lo + 2 * step))
    gaps.append((thresholds[-1] + 1, thresholds[-1] + 2))
    return gaps


def test_criterion_07_homotopy_invariance_in_gaps():
    nets = [random_network((2, 3, 1), ACC_SEED + i) for i in range(14)]
    nets += [random_network((2, 4, 1), ACC_SEED + 50 + i) for i in range(3)]
    nets += [random_network((2, 2, 2, 1), ACC_SEED + 80 + i) for i in range(3)]
    assert len(nets) == 20
    gaps_checked = 0
    for net in nets:
        cx = build_complex(net)
        for a, b in _gap_samples(cx.nontransversal_thresholds):
            sub_a = betti(triangulate(sublevel_model(cx, a)).complex)
            sub_b = betti(triangulate(sublevel_model(cx, b)).complex)
            assert sub_a == sub_b
            sup_a = betti(triangulate(superlevel_model(cx, a)).complex)
            sup_b = betti(triangulate(superlevel_model(cx, b)).complex)
            assert sup_a == sup_b
            gaps_checked += 1
        m = morse.big_m(cx)
        level = betti(triangulate(level_model(cx, m)).complex)
        above = betti(triangulate(superlevel_model(cx, m)).complex)
        assert level == above
    print(f"criterion 7 (homotopy invariance: 20 nets, {gaps_checked} gaps, level=superlevel at M): PASS")


def _vertex_radius(cx):
    radius = F(0)
    for p, _ in zero_cells(cx):
        radius = max(radius, *(abs(x) for x in p))
    return radius


def _lipschitz_sq(cx):
    return max(sum(x * x for x in cell.gradient) for cell in cx.cells.values())


def _margin_safe(cx, c):
    """A threshold the grid can resolve: every feature at least two pixels wide.

    Around a vertex with value just below c the sublevel set contains a ball
    of radius (distance to nearest threshold) / Lipschitz; requiring that to
    be at least 1/8 keeps features visible at the finest grid used.
    """
    d = min(abs(c - t) for t in cx.nontransversal_thresholds) if cx.nontransversal_thresholds else F(1, 3)
    return 64 * d * d >= _lipschitz_sq(cx)


def _stable_grid_betti(net, mode, c, box):
    """Refine the grid until two consecutive resolutions agree with margin > 0."""
    resolution = F(1, 4)
    prev = None
    for _ in range(4):
        res = grid_oracle(net, mode, c, resolution, box)
        if (
            prev is not None
            and prev.betti == res.betti
            and prev.margin > 0
            and res.margin > 0
        ):
            return res.betti
        prev = res
        resolution /= 2
    raise AssertionError(f"grid Betti never stabilized for {mode} at threshold {c}")


def _triangulated_betti(model):
    return betti(triangulate(model).complex)


def _oracle_agrees(cx, c, ranks=_triangulated_betti):
    sub = sublevel_model(cx, c)
    sup = superlevel_model(cx, c)
    rcx = refine_at_levels(cx, [c])
    support = F(0)
    for model in (sub, sup):
        for v in model_coordinates(model, rcx):
            support = max(support, *(abs(x) for x in v))
    if support > 8:
        return False
    box = max(4, math.ceil(support) + 2)
    grid_sub = _stable_grid_betti(cx.network, "sublevel", c, box)
    grid_sup = _stable_grid_betti(cx.network, "superlevel", c, box)
    pipeline_sub = ranks(sub)
    pipeline_sup = ranks(sup)
    assert grid_sub == pipeline_sub, (c, grid_sub, pipeline_sub)
    assert grid_sup == pipeline_sup, (c, grid_sup, pipeline_sup)
    return True


def _thirds(thresholds):
    """One non-dyadic sample with denominator 3 inside each transversal gap."""
    if not thresholds:
        return [F(1, 3)]
    out = [thresholds[0] - F(2, 3)]
    for lo, hi in zip(thresholds, thresholds[1:]):
        out.append(lo + (hi - lo) / 3)
    out.append(thresholds[-1] + F(2, 3))
    return out


def _compare_safe_thresholds(cx, ranks=_triangulated_betti):
    hits = 0
    for c in _thirds(cx.nontransversal_thresholds):
        if _margin_safe(cx, c) and _oracle_agrees(cx, c, ranks):
            hits += 1
    return hits


def test_criterion_08_oracle_equivalence():
    compared = 0
    for net in (two_relu_net(), build_fan_network(1), three_line_net()):
        hits = _compare_safe_thresholds(build_complex(net))
        assert hits > 0
        compared += hits
    random_nets = 0
    offset = 0
    while random_nets < 10 and offset < 200:
        cx = build_complex(random_network((2, 3, 1), ACC_SEED + 200 + offset))
        offset += 1
        if _vertex_radius(cx) > 6 or _lipschitz_sq(cx) > 16:
            continue
        hits = _compare_safe_thresholds(cx)
        if hits:
            random_nets += 1
            compared += hits
    assert random_nets >= 10
    assert compared >= 20
    print(
        f"criterion 8 (oracle equivalence: 3 named + {random_nets} random nets, "
        f"{compared} thresholds, sub+super): PASS"
    )


@settings(derandomize=True, max_examples=12, deadline=None)
@given(width=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_criterion_08_oracle_property(width, seed):
    """Criterion 8 as a property: on random (2,k,1) nets, k <= 4, the
    cellular Betti numbers of the sublevel and superlevel models equal the
    grid oracle's once its margin has settled, at one level in each
    transversal gap that the grid resolves.  The oracle shares no code with
    the models, whose vertices are numbered by piece key."""
    cx = build_complex(random_network((2, width, 1), seed))
    assume(_vertex_radius(cx) <= 6 and _lipschitz_sq(cx) <= 16)
    assume(_compare_safe_thresholds(cx, lambda model: CellularComplex(model).betti()) > 0)


def test_criterion_09_flat_cell_probability():
    s = montecarlo_flat_cell((2, 1, 1), 10_000, ACC_SEED)
    assert _within_four_sigma(s, F(1, 2))
    s3 = montecarlo_flat_cell((2, 3, 1), 10_000, ACC_SEED)
    p = F(1, 8)
    shortfall = p - s3.empirical_rate
    assert shortfall <= 0 or shortfall * shortfall * s3.trials <= 16 * p * (1 - p)
    print(
        f"criterion 9 (flat-cell probability: (2,1,1)={float(s.empirical_rate):.4f}~1/2, "
        f"(2,3,1)={float(s3.empirical_rate):.4f}>=1/8): PASS"
    )


def test_criterion_10_negation_duality():
    nets = [random_network((2, 3, 1), ACC_SEED + 300 + i) for i in range(16)]
    nets += [random_network((2, 4, 1), ACC_SEED + 330 + i) for i in range(2)]
    nets += [random_network((2, 2, 2, 1), ACC_SEED + 360 + i) for i in range(2)]
    assert len(nets) == 20
    swap = {"increasing": "decreasing", "decreasing": "increasing", "flat": "flat"}
    for net in nets:
        cx = build_complex(net)
        cx_neg = build_complex(negate(net))
        st, co, counts = morse.stable_measures(cx)
        st_neg, co_neg, counts_neg = morse.stable_measures(cx_neg)
        assert st_neg.sub_minus == st.super_plus
        assert st_neg.sub_plus == st.super_minus
        assert st_neg.super_minus == st.sub_plus
        assert st_neg.super_plus == st.sub_minus
        assert co_neg.sublevel == co.superlevel
        assert co_neg.superlevel == co.sublevel
        assert counts_neg == (counts[3], counts[2], counts[1], counts[0])
        ones = [c.label for c in cx.cells_of_dim(1)]
        assert sorted(ones) == sorted(c.label for c in cx_neg.cells_of_dim(1))
        assert all(edge_orientation(cx_neg, lab) == swap[edge_orientation(cx, lab)]
                   for lab in ones)
    print("criterion 10 (negation duality on 20 nets, orientations reversed): PASS")
