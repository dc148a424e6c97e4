"""Exact rational linear algebra and convex polyhedra.

All arithmetic is exact; no floats enter any geometric predicate.  Linear
algebra takes and returns rationals (fractions.Fraction), but row reduction
and the feasibility test scale each input row to primitive integers once and
eliminate on ints.  A linear constraint is a pair ``(coef, off)`` encoding the
affine form ``<coef, x> + off`` and is stored in canonical integer form: every
entry an int, gcd of all entries 1.  Equality constraints additionally have
their first nonzero coefficient positive, so that a hyperplane has one key.

Polyhedra are kept in H-representation.  A ``Polyhedron`` is an ad hoc closed
set: an SVG clip, a region of ``prescribe_edge_orientations``, a test's
reference.  Its relative interior is a system ``(eqs, stricts)``: the points
satisfying every equality and every strict inequality.  It is found by
probing each inequality for an implicit equality.  The cells of the canonical
complex are not polyhedra: each is its own sign-pattern rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
Constraint = tuple[IntVec, int]


def vec(xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _primitive_ints(entries) -> list[int]:
    """The rationals times the one positive scale that makes them coprime
    integers (all zeros stay zeros); ints are only divided by their gcd."""
    try:
        return _coprime(entries)
    except TypeError:  # math.gcd takes ints only
        pass
    scale = lcm(*(e.denominator for e in entries))
    return _coprime([e.numerator * (scale // e.denominator) for e in entries])


def _coprime(ints: list[int]) -> list[int]:
    """The integers divided by their gcd (all zeros stay zeros)."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def canon_constraint(coef, off, equality: bool = False) -> Constraint:
    """Scale an affine form to primitive integers; orient equalities."""
    ints = _primitive_ints([*coef, off])
    if equality:
        lead = next((v for v in ints[:-1] if v != 0), None)
        if lead is None and ints[-1] != 0:
            lead = ints[-1]
        if lead is not None and lead < 0:
            ints = [-v for v in ints]
    return tuple(ints[:-1]), ints[-1]


# ---------------------------------------------------------------------------
# dense exact linear algebra


def echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination.  Each row is scaled once to
    primitive integers, and each step is pv*row - f*pivot_row divided by its
    gcd, so every returned row is a nonzero multiple of its row in the
    reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    mat = [_primitive_ints(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        top, pv = mat[r], mat[r][c]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                f = row[c]
                mat[i] = _coprime([pv * a - f * b for a, b in zip(row, top)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of int or Fraction rows: (nonzero rows, pivots)."""
    mat, pivots = echelon(rows)
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(mat, pivots)], pivots


def rank(rows) -> int:
    return len(echelon(rows)[1])


def nullspace_basis(rows, n: int) -> list[Vec]:
    """Basis of {x in Q^n : row . x = 0 for every row}."""
    return _nullspace(*rref(rows), n)


def _nullspace(red, pivots, n: int) -> list[Vec]:
    """Nullspace basis read off a reduced row echelon form's free columns."""
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def in_span(target, rows) -> bool:
    """Whether target lies in the row space of rows."""
    return spans(echelon(rows), target)


def spans(basis, target) -> bool:
    """Whether target lies in the row space of an ``echelon`` result: each
    reduced row clears its own pivot entry only, so nothing is left iff so."""
    for row, p in zip(*basis):
        if target[p]:
            target = [row[p] * a - target[p] * b for a, b in zip(target, row)]
    return not any(target)


def solve_linear(rows, rhs, n: int) -> tuple[Vec | None, list[Vec]]:
    """Solve rows . x = rhs exactly.

    Returns (particular solution or None if inconsistent, nullspace basis),
    from one elimination: the augmented system's reduced form is that of
    ``rows`` with a right-hand column, plus [0 ... 0 | 1] when inconsistent.
    """
    red, pivots = rref([list(row) + [r] for row, r in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        return None, _nullspace(red, pivots[:-1], n)
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    return tuple(x), _nullspace(red, pivots, n)


# ---------------------------------------------------------------------------
# exact feasibility (Fourier-Motzkin with strictness tracking)


def _keep(work: dict, row: list[int], strict: bool, mask: int, n: int) -> bool:
    """Add an integer row with its history mask to the work rows, keeping the
    smaller history of a row met twice; False if it is a violated constant."""
    coef = tuple(row[:n])
    if any(coef):
        key = (coef, row[n], strict)
        if key not in work or mask.bit_count() < work[key].bit_count():
            work[key] = mask
        return True
    return row[n] > 0 if strict else row[n] >= 0


def feasible(n: int, eqs=(), ges=(), gts=()) -> bool:
    """Exact feasibility of {x : eqs = 0, ges >= 0, gts > 0} over Q^n.

    The equalities are substituted, then Fourier-Motzkin eliminates every
    variable, each step a positive integer combination, so each row is a
    positive multiple of its rational counterpart and no sign changes.
    Total and exact; a strict row combined with any other is strict."""
    ineqs = [([*c, o], False) for c, o in ges] + [([*c, o], True) for c, o in gts]
    done = _substitute([[*c, o] for c, o in eqs], ineqs)
    return done is not None and _eliminate(done[0], n) is not None


def form_signs(n: int, eqs, gts, form) -> tuple[bool, bool]:
    """Whether the form (g, k) is positive somewhere, and whether negative
    somewhere, on {x : eqs = 0, gts > 0} over Q^n, from one projection.

    Its value t joins as variable n through <g,x> + k - t = 0, pivoted after
    the equalities, and on t only when no x is left: t is then one value t0.
    Else t is eliminated last.  The set is convex and relatively open, so t
    takes an open interval on it, whose ends are the last step's tightest
    rows c*t + o > 0: the upper end (c < 0) is positive iff o > 0, and so is
    the lower end (c > 0) negative; a side with no row has no end."""
    done = _substitute([[*form[0], -1, form[1]]] + [[*c, 0, o] for c, o in eqs],
                       [([*c, 0, o], True) for c, o in gts])
    last = done and _eliminate(done[0], n + 1, last=n)
    if not last:
        return False, False
    if fixed := [p for p in done[1] if not any(p[:n])]:  # c*t + o = 0
        return fixed[0][n] * fixed[0][n + 1] < 0, fixed[0][n] * fixed[0][n + 1] > 0
    _, lo, hi = last if last[0] == n else (n, [], [])
    return not hi or hi[0][0][1] > 0, not lo or lo[0][0][1] > 0


def _substitute(eqs, ineqs):
    """Substitute the equality rows, last first, into the rest and into the
    (row, strict) inequalities, each on its first nonzero entry but the last
    (the offset) as a primitive-integer pivot.  Returns (inequalities, pivot
    rows), or None when an equality reads c = 0 with c nonzero."""
    pending, pivots = [_primitive_ints(e) for e in eqs], []
    while pending:
        pivot = pending.pop()
        j = next((k for k, v in enumerate(pivot[:-1]) if v), None)
        if j is None:
            if pivot[-1]:
                return None
            continue
        pivots.append(pivot)
        p, sp = abs(pivot[j]), (1 if pivot[j] > 0 else -1)

        def sub(row):  # |p|*row - sgn(p)*row[j]*pivot: zero at j, same sign
            t = sp * row[j]
            return [p * a - t * b for a, b in zip(row, pivot)] if t else row

        pending = [_primitive_ints(sub(row)) for row in pending]
        ineqs = [(sub(row), s) for row, s in ineqs]
    return ineqs, pivots


def _eliminate(ineqs, n: int, last=None):
    """Fourier-Motzkin elimination of all variables of the (row, strict)
    inequalities over Q^n, x_last after the others: (variable, lower rows,
    upper rows) of the last step, or None when the rows are infeasible.
    Each row carries the bitmask of the inequalities it combines; Chernikov's
    rule drops one of more than k + 1 made at the k-th elimination (rows kept
    imply it), but not at the last, where ``_tightest`` keeps one per side.
    A row made while three variables or more are left is divided by its gcd."""
    work: dict = {}  # (coef, off, strict) -> mask of the rows of ineqs it combines
    for i, (row, s) in enumerate(ineqs):
        if not _keep(work, _primitive_ints(row), s, 1 << i, n):
            return None
    cap, j, pos, neg = 1, None, [], []  # cap at the k-th elimination: k + 1
    while work:
        cap += 1
        counts = {}  # variable -> [rows with it positive, negative], by first use
        for coef, _, _ in work:
            for k, v in enumerate(coef):
                if v:
                    counts.setdefault(k, [0, 0])[v < 0] += 1
        j = min((k for k in counts if k != last), key=lambda k: counts[k][0] * counts[k][1],
                default=last)
        pos, neg, rest = [], [], {}
        for con, h in work.items():
            cj = con[0][j]
            if cj > 0:
                pos.append((con, h))
            elif cj < 0:
                neg.append((con, h))
            else:
                rest[con] = h
        work = rest
        if len(counts) == 1:  # x_j alone is left: only its tightest bounds matter
            pos, neg, cap = _tightest(pos, j), _tightest(neg, j), len(ineqs)
        for (pc, po, ps), ph in pos:
            for (nc, no, ns), nh in neg:
                if (h := ph | nh).bit_count() > cap:
                    continue
                a, b = pc[j], -nc[j]
                row = [b * x + a * y for x, y in zip(pc, nc)]
                row.append(b * po + a * no)
                if not _keep(work, _coprime(row) if len(counts) > 2 else row, ps or ns, h, n):
                    return None
    return j, pos, neg


def _tightest(side: list, j: int) -> list:
    """Of (row, mask) pairs with rows c*x_j + o >= 0 (or > 0), c of one sign,
    the one of least o/|c| as a one-item list, a strict one on a tie, or []."""
    best = side[:1]
    for item in side[1:]:
        (c, o, s), _ = item
        (bc, bo, _), _ = best[0]
        d = o * abs(bc[j]) - bo * abs(c[j])
        if d < 0 or (d == 0 and s):
            best = [item]
    return best


def strict_feasible(n: int, ineqs) -> bool:
    """Exact nonemptiness of the open polyhedron {x : <g,x> + c > 0 for all}."""
    return feasible(n, gts=ineqs)


# ---------------------------------------------------------------------------
# polyhedra


class VertexEnumerationError(ValueError):
    """Raised when vertices of an unpointed polyhedron are requested."""


class Polyhedron:
    """Closed convex polyhedron {x : eqs = 0, ges >= 0} in Q^n."""

    def __init__(self, n: int, eqs=(), ges=()):
        self.n = n
        self.eqs = tuple(sorted({canon_constraint(c, o, equality=True) for c, o in eqs}))
        self.ges = tuple(sorted({canon_constraint(c, o) for c, o in ges}))

    def __repr__(self):
        return f"Polyhedron(n={self.n}, eqs={len(self.eqs)}, ges={len(self.ges)}, dim={self.dim})"

    # -- basic predicates ---------------------------------------------------

    @cached_property
    def nonempty(self) -> bool:
        return feasible(self.n, eqs=self.eqs, ges=self.ges)

    @cached_property
    def relint_system(self) -> tuple[tuple[Constraint, ...], tuple[Constraint, ...]]:
        """(equalities, strict inequalities) cutting out the relative interior."""
        if not self.nonempty:
            return self.eqs, self.ges
        eqs = list(self.eqs)
        stricts = []
        for g in self.ges:
            if feasible(self.n, eqs=self.eqs, ges=self.ges, gts=[g]):
                stricts.append(g)
            else:
                eqs.append(canon_constraint(g[0], g[1], equality=True))
        return tuple(sorted(set(eqs))), tuple(sorted(set(stricts)))

    @cached_property
    def dim(self) -> int:
        if not self.nonempty:
            return -1
        return self.n - rank([c for c, _ in self.relint_system[0]])

    @property
    def pointed(self) -> bool:
        """Whether the polyhedron holds no line: its normals have rank n."""
        return rank([c for c, _ in (*self.eqs, *self.ges)]) == self.n

    def contains(self, point) -> bool:
        """Whether the point lies in the closed polyhedron."""
        # Scale the point to integers once; the constraints are integer.
        den = lcm(*(x.denominator for x in point))
        ints = [x.numerator * (den // x.denominator) for x in point]

        def value(coef, off):
            return sum(c * x for c, x in zip(coef, ints)) + off * den

        return all(value(c, o) == 0 for c, o in self.eqs) and all(
            value(c, o) >= 0 for c, o in self.ges
        )

    # -- V-representation ---------------------------------------------------

    @cached_property
    def vertices(self) -> list[Vec]:
        """All 0-faces, sorted lexicographically.  Requires pointedness."""
        if not self.nonempty:
            return []
        if not self.pointed:
            raise VertexEnumerationError(
                "vertex enumeration on unpointed polyhedron; essentialize first"
            )
        eqs, stricts = self.relint_system
        eq_rows = [c for c, _ in eqs]
        eq_rhs = [-o for _, o in eqs]
        need = self.n - rank(eq_rows)
        found = set()
        for subset in combinations(stricts, need):
            rows = eq_rows + [c for c, _ in subset]
            rhs = eq_rhs + [-o for _, o in subset]
            sol, null = solve_linear(rows, rhs, self.n)
            if sol is not None and not null and self.contains(sol):
                found.add(sol)
        return sorted(found)


def primitive_direction(v) -> Vec:
    """Scale a nonzero rational vector to primitive integers, keeping direction."""
    return tuple(Fraction(x) for x in _primitive_ints([Fraction(x) for x in v]))


def canonical_line_direction(v) -> Vec:
    """Primitive direction with first nonzero entry positive (sign-free lines)."""
    d = primitive_direction(v)
    lead = next((x for x in d if x != 0), None)
    if lead is not None and lead < 0:
        d = tuple(-x for x in d)
    return d
