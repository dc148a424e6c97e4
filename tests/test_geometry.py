"""Exact linear algebra, feasibility, and polyhedron tests."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmorse import geometry
from plmorse.geometry import (
    Polyhedron,
    VertexEnumerationError,
    canon_constraint,
    canonical_line_direction,
    dot,
    echelon,
    feasible,
    form_signs,
    primitive_direction,
    rank,
    rational_point,
    rref,
    solve_integer,
    spans,
    strict_feasible,
    vec,
)
from plmorse.network import inactive_walls, random_int_layers

import fm_reference
from fm_reference import feasible as fraction_feasible
from fm_reference import integer_feasible
from fm_reference import rref as fraction_rref
from hull_model import bounded, rays
from linear_reference import nullspace_basis, solve_linear

F = Fraction


def test_canon_constraint_scales_to_primitive_integers():
    coef, off = canon_constraint((F(2, 3), F(-4, 3)), F(2))
    assert (coef, off) == ((1, -2), 3)


def test_canon_constraint_equality_sign():
    coef, off = canon_constraint((-2, 4), 6, equality=True)
    assert (coef, off) == ((1, -2), -3)
    coef, off = canon_constraint((0, 0), -5, equality=True)
    assert (coef, off) == ((0, 0), 1)


@pytest.mark.parametrize("coef, off, want, want_eq", [
    ((6, -4), 2, ((3, -2), 1), ((3, -2), 1)),
    ((-6, 4), -2, ((-3, 2), -1), ((3, -2), 1)),
    ((F(2, 3), F(-4, 3)), F(-2), ((1, -2), -3), ((1, -2), -3)),
    ((F(-1, 3), 2), F(2, 7), ((-7, 42), 6), ((7, -42), -6)),
    ((0, F(-3, 5), 1), 0, ((0, -3, 5), 0), ((0, 3, -5), 0)),
    ((0, 0), 0, ((0, 0), 0), ((0, 0), 0)),
    ((F(0), 0), F(0), ((0, 0), 0), ((0, 0), 0)),
    ((0, 0), -4, ((0, 0), -1), ((0, 0), 1)),
    ((F(0), F(0)), F(5, 3), ((0, 0), 1), ((0, 0), 1)),
    ((), F(-2, 9), ((), -1), ((), 1)),
])
def test_canon_constraint_takes_ints_and_fractions_alike(coef, off, want, want_eq):
    """ints, Fractions and mixes of them give the tuple of the all-Fraction
    form, which is the constraint of the affine form's rational entries."""
    wrapped = (tuple(F(c) for c in coef), F(off))
    for equality, expected in ((False, want), (True, want_eq)):
        got = canon_constraint(coef, off, equality=equality)
        assert got == canon_constraint(*wrapped, equality=equality) == expected
        assert all(type(v) is int for v in (*got[0], got[1]))


def test_rank_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(rows) == 2
    ns = nullspace_basis(rows, 3)
    assert len(ns) == 1
    for row in rows:
        assert dot(row, ns[0]) == 0


def test_solve_linear_unique_and_inconsistent():
    sol, null = solve_linear([[2, 0], [1, 1]], [4, 3], 2)
    assert sol == (F(2), F(1))
    assert null == []
    sol, _ = solve_linear([[1, 1], [1, 1]], [0, 1], 2)
    assert sol is None


@st.composite
def small_matrices(draw):
    """Matrices of up to 6 rows and 1-6 columns (so wide, square and tall),
    mixing int and Fraction entries, with zero rows and, for rank deficiency,
    rows that are combinations of earlier ones.  Zero rows are allowed."""
    ncols = draw(st.integers(1, 6))
    scalar = st.one_of(
        st.just(0), st.integers(-4, 4), st.fractions(F(-3), F(3), max_denominator=5)
    )
    row = st.one_of(st.just([0] * ncols), st.lists(scalar, min_size=ncols, max_size=ncols))
    rows = draw(st.lists(row, max_size=4))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(st.sampled_from([-2, -1, F(1, 2), 1, 3]))
        rows.insert(draw(st.integers(0, len(rows))), [x + k * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=600, deadline=None)
@given(small_matrices())
def test_rref_matches_fraction_elimination(rows):
    """The fraction-free elimination returns the rational RREF exactly."""
    want = fraction_rref(rows)
    got = rref(rows)
    assert got == want
    assert all(type(x) is F for row in got[0] for x in row)
    assert rank(rows) == len(want[1])


def two_elimination_solve(rows, rhs, n):
    """The reference for ``solve_linear``: one elimination of the augmented
    system for the solution, and a second, of ``rows`` alone, for the
    nullspace."""
    red, pivots = rref([list(row) + [r] for row, r in zip(rows, rhs)])
    if n in pivots:
        return None, nullspace_basis(rows, n)
    x = [F(0)] * n
    for i, p in enumerate(pivots):
        x[p] = red[i][n]
    return tuple(x), nullspace_basis(rows, n)


@st.composite
def linear_systems(draw):
    """(rows, rhs, n) with n <= 4: rows as in ``small_matrices`` (zero and
    dependent rows included; the empty system is an edge case below), and a
    right-hand side either taken at a rational point, so the system is
    consistent, or drawn freely, which makes a system with dependent rows
    inconsistent more often than not."""
    rows = draw(small_matrices().filter(lambda rows: rows and len(rows[0]) <= 4))
    n = len(rows[0])
    scalar = st.one_of(st.integers(-4, 4), st.fractions(F(-3), F(3), max_denominator=5))
    if draw(st.booleans()):
        point = draw(st.lists(scalar, min_size=n, max_size=n))
        rhs = [dot(row, point) for row in rows]
    else:
        rhs = draw(st.lists(scalar, min_size=len(rows), max_size=len(rows)))
    return rows, rhs, n


@settings(max_examples=600, deadline=None)
@given(linear_systems())
def test_solve_linear_matches_two_eliminations(system):
    """Reading the nullspace off the augmented system's reduced form gives
    the solution and the nullspace basis of two separate eliminations."""
    rows, rhs, n = system
    sol, null = solve_linear(rows, rhs, n)
    assert (sol, null) == two_elimination_solve(rows, rhs, n)
    if sol is not None:
        assert [dot(row, sol) for row in rows] == [F(r) for r in rhs]
    assert all(dot(row, v) == 0 for row in rows for v in null)
    assert rank(rows) + len(null) == n


@settings(max_examples=600, deadline=None)
@given(linear_systems())
def test_integer_solve_matches_fraction_solve(system):
    """The fraction-free solve gives the Fraction solve's solution as P/d and
    its nullspace basis as integer vectors over the same d.  d is a multiple
    of the solution's common denominator, and that denominator itself when
    the solution is unique."""
    rows, rhs, n = system
    want, null = solve_linear(rows, rhs, n)
    got, ints = solve_integer([canon_constraint(row, -r) for row, r in zip(rows, rhs)], n)
    assert (got is None) == (want is None)
    if got is not None:
        (p, d), den = got, lcm(*(x.denominator for x in want))
        assert d > 0 and rational_point(got) == want and d % den == 0
        assert null or d == den
        assert all(type(x) is int for x in p)
        assert [tuple(F(x, d) for x in v) for v in ints] == null


def test_integer_solve_edge_cases():
    identity = [(1, 0), (0, 1)]
    assert solve_integer([], 2) == (((0, 0), 1), identity)
    assert solve_integer([((0, 0), 0)], 2) == (((0, 0), 1), identity)
    assert solve_integer([((0, 0), 1)], 2) == (None, identity)
    assert solve_integer([((2, 0), -1), ((0, 3), -1)], 2) == (((3, 2), 6), [])
    assert solve_integer([((1, 1), 0), ((1, 1), -1)], 2) == (None, [(-1, 1)])


def test_solve_linear_eliminates_once(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr("plmorse.geometry.rref", counted)
    for rhs in ([4, 3, 7], [4, 3, 0]):  # consistent, inconsistent
        solve_linear([[2, 0, 1], [1, 1, 0], [3, 1, 1]], rhs, 3)
    assert calls == [3, 3]


def test_rref_edge_cases():
    assert rref([]) == ([], [])
    assert rank([]) == 0
    assert rref([[0, 0, 0], [0, 0, 0]]) == ([], [])
    assert rref([[0, 2, 4, F(1, 3)]]) == ([[0, 1, 2, F(1, 6)]], [1])
    assert rref([[-3, 6], [2, -4]]) == ([[1, -2]], [0])
    assert rank([[0, 0], [1, 1], [2, 2]]) == 1
    identity = [(1, 0), (0, 1)]
    assert nullspace_basis([], 2) == identity
    assert nullspace_basis([[0, 0]], 2) == identity
    assert solve_linear([], [], 2) == ((0, 0), identity)
    assert solve_linear([[0, 0]], [0], 2) == ((0, 0), identity)
    assert solve_linear([[0, 0]], [1], 2) == (None, identity)


def test_in_span():
    """Whether a target is in the row space: ``spans`` on an ``echelon``."""
    assert spans(echelon([(1, 2)]), (2, 4))
    assert not spans(echelon([(1, 2)]), (1, 0))
    assert spans(echelon([]), (0, 0))
    assert not spans(echelon([]), (1, 0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-3, 3)] * 4), max_size=4),
    st.tuples(*[st.integers(-3, 3)] * 4),
    st.lists(st.tuples(*[st.integers(-2, 2)] * 4), max_size=3),
)
def test_spans_matches_two_ranks(rows, target, mixes):
    """Membership read off one elimination agrees with comparing ranks, on
    targets drawn freely and on targets built as integer combinations."""
    basis = echelon(rows)
    for t in [target] + [tuple(sum(w * r[k] for w, r in zip(mix, rows)) for k in range(4))
                         for mix in mixes]:
        assert spans(basis, t) == (rank([*rows, t]) == rank(rows)), t


# -- feasibility: witnessed-feasible vs Farkas-certified infeasible ---------


def test_feasible_with_witness():
    # (1/2, 1/3) satisfies the system; feasibility must agree.
    sys_ges = [((2, 0), -1), ((0, 3), -1), ((-1, -1), 1)]
    for coef, off in sys_ges:
        assert dot(coef, (F(1, 2), F(1, 3))) + off >= 0
    assert feasible(2, ges=sys_ges)


def test_infeasible_by_farkas_certificate():
    # x >= 1, y >= 1, x + y <= 1:  summing the three gives 0 >= 1.
    assert not feasible(2, ges=[((1, 0), -1), ((0, 1), -1), ((-1, -1), 1)])


def test_strict_needs_interior():
    # x >= 0 and -x >= 0 is the line x = 0: weakly feasible, strictly not.
    assert feasible(1, ges=[((1,), 0), ((-1,), 0)])
    assert not strict_feasible(1, [((1,), 0), ((-1,), 0)])


def test_equalities_mixed_with_stricts():
    # x + y = 1, x > 0, y > 0 has solutions; adding x > 1 kills them.
    assert feasible(2, eqs=[((1, 1), -1)], gts=[((1, 0), 0), ((0, 1), 0)])
    assert not feasible(
        2, eqs=[((1, 1), -1)], gts=[((1, 0), 0), ((0, 1), 0), ((1, 0), -1)]
    )


def test_inconsistent_equalities():
    assert not feasible(2, eqs=[((1, 1), 0), ((1, 1), -1)])


def test_strict_open_but_not_closed_gap():
    # x > 0, x < 0 infeasible; x > 0, x < 1 feasible.
    assert not feasible(1, gts=[((1,), 0), ((-1,), 0)])
    assert feasible(1, gts=[((1,), 0), ((-1,), 1)])


def test_feasible_zero_variables_constants():
    assert feasible(0, ges=[((), 0)])
    assert not feasible(0, gts=[((), 0)])
    assert not feasible(0, eqs=[((), 3)])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(-4, 4)] * 3),
            st.integers(-4, 4),
        ),
        max_size=5,
    ),
    st.tuples(*[st.fractions(F(-3), F(3))] * 3),
)
def test_feasible_never_rejects_a_witness(ges, point):
    """Any system a concrete point satisfies must be reported feasible."""
    if all(dot(c, point) + o >= 0 for c, o in ges):
        assert feasible(3, ges=ges)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(*[st.integers(-4, 4)] * 2), st.integers(-4, 4)),
        max_size=4,
    ),
    st.tuples(*[st.fractions(F(-3), F(3))] * 2),
)
def test_strict_feasible_never_rejects_a_witness(gts, point):
    if all(dot(c, point) + o > 0 for c, o in gts):
        assert feasible(2, gts=gts)


@st.composite
def small_systems(draw):
    """Systems over Q^n, n <= 3, mixing int and Fraction entries, zero rows,
    constraints repeated within and across kinds, opposite pairs (a >= 0 with
    -a >= 0 or -a > 0, where strictness decides), and, half the time, an
    equality shifted off a parallel copy of itself."""
    n = draw(st.integers(0, 3))
    scalar = st.one_of(
        st.just(0), st.integers(-3, 3), st.fractions(F(-3), F(3), max_denominator=4)
    )
    form = st.tuples(
        st.one_of(st.just((0,) * n), st.tuples(*[scalar] * n)), scalar
    )
    pool = draw(st.lists(form, min_size=1, max_size=4))
    pool += [(tuple(-c for c in coef), -off) for coef, off in pool]
    pick = st.lists(st.sampled_from(pool), max_size=5)
    eqs, ges, gts = draw(pick), draw(pick), draw(pick)
    if eqs and draw(st.booleans()):
        coef, off = eqs[0]
        eqs.append((coef, off + 1))
    return n, eqs, ges, gts


@settings(max_examples=1000, deadline=None)
@given(small_systems())
def test_feasible_matches_fraction_elimination(system):
    """Feasible and infeasible answers both agree with the rational reference."""
    n, eqs, ges, gts = system
    assert feasible(n, eqs, ges, gts) == fraction_feasible(n, eqs, ges, gts)


# The elimination keeps only the tightest bound on each side of the last
# variable: (ges, gts, feasible) over x in Q^1, each row (coef, off).
LAST_VARIABLE_CASES = [
    ([((1,), -1), ((-1,), 1)], [], True),  # x >= 1, -x + 1 >= 0
    ([((-1,), 1)], [((1,), -1)], False),  # x - 1 > 0, -x + 1 >= 0
    # several rows at the lower bound 1, one of them strict
    ([((1,), -1), ((2,), -2), ((-1,), 1)], [((1,), -1)], False),
    ([((1,), -1), ((2,), -2), ((-1,), 1), ((-1,), 3)], [], True),
    # the tightest row on each side is not the first one listed
    ([((1,), -1), ((1,), -3), ((-1,), 5), ((-1,), 3)], [((1,), -2)], True),
    ([((1,), -1), ((1,), -3), ((-1,), 5)], [((1,), -2), ((-1,), 3)], False),
    ([((2,), -1), ((-3,), 2)], [((-1,), 1)], True),  # 1/2 <= x <= 2/3, x < 1
    ([((3,), -2), ((-2,), 1)], [], False),  # 2/3 <= x <= 1/2
    # a side with no bound
    ([((1,), -1), ((1,), -7), ((3,), 1)], [((1,), -2)], True),
    ([((-1,), 1), ((-2,), -9)], [((-5,), 4)], True),
]


@pytest.mark.parametrize("ges, gts, want", LAST_VARIABLE_CASES)
def test_last_variable_keeps_the_tightest_bounds(ges, gts, want):
    """In every order of the rows, and with a second variable eliminated
    first (y between two bounds that x does not touch)."""
    assert fraction_feasible(1, [], ges, gts) == want
    rows = [(r, False) for r in ges] + [(r, True) for r in gts]
    for order in itertools.permutations(rows):
        g = [r for r, s in order if not s]
        t = [r for r, s in order if s]
        assert feasible(1, ges=g, gts=t) == want, order
    lifted_ges = [((c[0], 0), o) for c, o in ges] + [((0, 1), 0), ((0, -1), 1)]
    lifted_gts = [((c[0], 0), o) for c, o in gts]
    assert feasible(2, ges=lifted_ges, gts=lifted_gts) == want


def test_last_variable_finish_on_trial_systems():
    """The all-inactive systems of the PL-Morse trials on random (3, 6, 1)
    nets, six strict rows of 53-bit numerators each, and 100 systems of six
    rows of uniform 53-bit integers, against the rational elimination."""
    rng = random.Random(17)
    systems = [inactive_walls(*next(random_int_layers((3, 6, 1), seed, scheme)))
               for scheme, count in (("gaussian", 200), ("uniform", 40)) for seed in range(count)]
    systems += [[(tuple(rng.randint(-2**53, 2**53) for _ in range(3)), rng.randint(-2**53, 2**53))
                 for _ in range(6)] for _ in range(100)]
    answers = set()
    for gts in systems:
        got = strict_feasible(3, gts)
        assert got == fraction_feasible(3, [], [], gts), gts
        answers.add(got)
    assert answers == {True, False}


def _pruning_systems():
    """400 seeded systems over Q^4 and Q^5: 0-2 equalities, 0-2 >= rows and
    5-8 > rows, entries in [-3, 3].  Past n = 3 these run enough
    eliminations for Chernikov's rule to drop rows."""
    rng = random.Random(18)

    def forms(lo, hi, n):
        return [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-3, 3))
                for _ in range(rng.randint(lo, hi))]

    out = []
    for _ in range(400):
        n = rng.randint(4, 5)
        out.append((n, forms(0, 2, n), forms(0, 2, n), forms(5, 8, n)))
    return out


def test_feasible_matches_the_unpruned_elimination(monkeypatch):
    """Chernikov's rule changes no answer: the integer elimination that keeps
    every combination agrees on every system, and so does the rational one
    where at most four variables are free.  (With five free variables and no
    last-variable finish the rational one can take seconds per system.)  The
    rule does act here: the program makes fewer combinations in all."""
    made = {"program": 0, "reference": 0}

    def counting(module, key):
        keep = module._keep

        def counted(*args):
            made[key] += 1
            return keep(*args)
        monkeypatch.setattr(module, "_keep", counted)

    counting(geometry, "program")
    counting(fm_reference, "reference")
    answers = set()
    for n, eqs, ges, gts in _pruning_systems():
        got = feasible(n, eqs, ges, gts)
        assert got == integer_feasible(n, eqs, ges, gts), (n, eqs, ges, gts)
        if n == 4 or eqs:
            assert got == fraction_feasible(n, eqs, ges, gts), (n, eqs, ges, gts)
        answers.add(got)
    assert answers == {True, False}
    assert made["program"] < made["reference"]


@st.composite
def form_systems(draw):
    """(n, eqs, gts, form) over Q^n, n <= 4, so that at most four variables
    are free: up to two equalities (half the systems have none), up to six
    strict rows, entries int or Fraction, and a form drawn freely or, where
    there are equalities, a combination of them plus t0 in {3, 0, -2}, so
    that it is the constant t0 on the set."""
    n = draw(st.integers(1, 4))
    scalar = st.one_of(st.integers(-3, 3), st.fractions(F(-3), F(3), max_denominator=4))
    affine = st.tuples(st.tuples(*[scalar] * n), scalar)
    eqs = draw(st.lists(affine, max_size=2)) if draw(st.booleans()) else []
    gts = draw(st.lists(affine, max_size=6))
    if eqs and draw(st.booleans()):
        ws = draw(st.lists(st.integers(-2, 2), min_size=len(eqs), max_size=len(eqs)))
        g = tuple(sum(w * c[i] for w, (c, _) in zip(ws, eqs)) for i in range(n))
        form = g, sum(w * o for w, (_, o) in zip(ws, eqs)) + draw(st.sampled_from([3, 0, -2]))
    else:
        form = draw(affine)
    return n, eqs, gts, form


@settings(max_examples=800, deadline=None)
@given(form_systems())
def test_form_signs_match_two_feasibility_tests(system):
    """One projection answers what the two tests ask: is the form positive
    somewhere on eqs = 0, gts > 0, and is it negative somewhere.  The
    rational reference agrees too (n <= 4, so it stays fast)."""
    n, eqs, gts, (g, k) = system
    neg_form = (tuple(-x for x in g), -k)
    got = form_signs(n, eqs, gts, (g, k))
    assert got == (feasible(n, eqs, gts=gts + [(g, k)]), feasible(n, eqs, gts=gts + [neg_form]))
    assert got == (fraction_feasible(n, eqs, [], gts + [(g, k)]),
                   fraction_feasible(n, eqs, [], gts + [neg_form]))


# The open segment x + y = 1, 0 < x < 1 in the plane, and x + y - 1 + t0 on
# it, which is t0 there; past y < -1 too, it is empty.
SEGMENT = [((1, 1), -1)], [((1, 0), 0), ((-1, 0), 1)]


@pytest.mark.parametrize("t0, want", [(3, (True, False)), (0, (False, False)), (-2, (False, True))])
def test_form_signs_of_a_form_constant_on_the_set(t0, want):
    eqs, gts = SEGMENT
    assert form_signs(2, eqs, gts, ((1, 1), t0 - 1)) == want
    assert form_signs(2, eqs, gts + [((0, -1), -1)], ((1, 1), t0 - 1)) == (False, False)


@pytest.mark.parametrize("form, want", [
    (((1, 0), 0), (True, False)),  # x in (0, 1)
    (((2, 0), -1), (True, True)),  # 2x - 1 in (-1, 1)
    (((1, 0), -1), (False, True)),  # x - 1 in (-1, 0): the upper end is open
    (((0, 1), 5), (True, False)),  # y + 5 = 6 - x in (5, 6)
    (((1, 2), 0), (True, False)),  # x + 2y = 2 - x in (1, 2)
])
def test_form_signs_on_an_open_segment(form, want):
    assert form_signs(2, *SEGMENT, form) == want


def test_last_variable_step_is_not_pruned():
    """An infeasible all-strict system over Q^3 that a prune of the last
    elimination, after ``_tightest`` has kept one row per side, calls
    feasible; in every row order."""
    gts = [((-3, -2, -2), 2), ((-1, -2, -3), 2), ((1, 3, 2), -3), ((1, -2, 2), -3),
           ((-2, 1, -2), 1)]
    assert not fraction_feasible(3, [], [], gts)
    assert not integer_feasible(3, [], [], gts)
    for order in itertools.permutations(gts):
        assert not strict_feasible(3, list(order)), order


# -- polyhedra --------------------------------------------------------------


def unit_square():
    return Polyhedron(
        2, ges=[((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)]
    )


def test_square_vertices_and_dim():
    p = unit_square()
    assert p.dim == 2
    assert bounded(p)
    assert p.vertices == [vec((0, 0)), vec((0, 1)), vec((1, 0)), vec((1, 1))]
    assert rays(p) == []


def test_vertex_defining_property():
    # Every reported vertex satisfies all constraints and is tight on a
    # full-rank subset; checked directly, independent of the enumerator.
    p = Polyhedron(2, ges=[((1, 1), -1), ((1, -1), 1), ((-1, 0), 2)])
    for v in p.vertices:
        assert p.contains(v)
        tight = [c for c, o in p.ges if dot(c, v) + o == 0]
        assert rank(tight) == 2


def test_minkowski_reconstruction_of_quadrant_shift():
    # {x >= 1, y >= 2} = vertex (1,2) + cone(e1, e2).
    p = Polyhedron(2, ges=[((1, 0), -1), ((0, 1), -2)])
    assert p.vertices == [vec((1, 2))]
    assert sorted(rays(p)) == [vec((0, 1)), vec((1, 0))]
    assert not bounded(p)


def test_lower_dimensional_segment():
    # Segment from (0,0) to (1,1) on the diagonal.
    p = Polyhedron(2, eqs=[((1, -1), 0)], ges=[((1, 0), 0), ((-1, 0), 1)])
    assert p.dim == 1
    assert p.vertices == [vec((0, 0)), vec((1, 1))]
    assert bounded(p)


def test_implicit_equality_detected():
    # x >= 0, -x >= 0 forces the hull onto x = 0 without an explicit equality.
    p = Polyhedron(2, ges=[((1, 0), 0), ((-1, 0), 0), ((0, 1), 0)])
    assert p.dim == 1
    assert ((1, 0), 0) in p.relint_system[0]


def test_empty_polyhedron():
    p = Polyhedron(1, ges=[((1,), -1), ((-1,), 0)])
    assert not p.nonempty
    assert p.dim == -1
    assert p.vertices == []


def test_unpointed_vertex_enumeration_refuses():
    # A vertical strip contains the line x = 0 direction: no vertices exist.
    p = Polyhedron(2, ges=[((1, 0), 0), ((-1, 0), 1)])
    assert not p.pointed
    with pytest.raises(VertexEnumerationError):
        p.vertices


def test_half_strip():
    # {0 <= x <= 1, y <= 0}: pointed, two vertices, one recession ray.
    p = Polyhedron(2, ges=[((1, 0), 0), ((-1, 0), 1), ((0, -1), 0)])
    assert p.pointed
    assert p.vertices == [vec((0, 0)), vec((1, 0))]
    assert rays(p) == [vec((0, -1))]


def test_relint_membership():
    p = unit_square()
    assert p.contains((F(1, 2), F(1, 2)))
    assert p.contains((F(0), F(1, 2)))
    assert not p.contains((F(-1, 2), F(1, 2)))


def test_normal_span_and_lineality_are_complements():
    """A polyhedron is pointed iff the nullspace of its normals, the
    directions of the lines it holds, is zero."""
    wedge = [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), -1)]
    cases = [
        (Polyhedron(3, ges=wedge), [vec((0, 0, 1))]),
        (Polyhedron(3, eqs=[((0, 0, 1), 0)], ges=wedge), []),
        (Polyhedron(3, eqs=[((0, 1, 1), 0)], ges=[((1, 0, 0), 0)]), [vec((0, -1, 1))]),
        (Polyhedron(2), [vec((1, 0)), vec((0, 1))]),
    ]
    for p, lines in cases:
        normals = [c for c, _ in (*p.eqs, *p.ges)]
        assert nullspace_basis(normals, p.n) == lines
        assert p.pointed == (not lines)


def test_primitive_direction():
    assert primitive_direction((F(2, 3), F(-4, 3))) == vec((1, -2))
    assert primitive_direction((6, -4, 0)) == vec((3, -2, 0))
    assert all(type(x) is F for x in primitive_direction((6, -4)))
    assert canonical_line_direction((0, F(-1, 2))) == vec((0, 1))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(*[st.integers(-3, 3)] * 2), st.integers(-3, 3)),
        min_size=1,
        max_size=5,
    )
)
def test_vertices_lie_in_polyhedron(ges):
    p = Polyhedron(2, ges=ges)
    if not p.nonempty or not p.pointed:
        return
    for v in p.vertices:
        assert p.contains(v)
        tight = [c for c, o in list(p.eqs) + list(p.ges) if dot(c, v) + o == 0]
        assert rank(tight) == 2
