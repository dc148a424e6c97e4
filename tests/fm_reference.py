"""Fourier-Motzkin feasibility and Gauss-Jordan elimination over
``Fraction``, the references for ``plmorse.geometry.feasible`` and
``plmorse.geometry.rref``, and the exact polyhedron containment test built on
that feasibility, the reference for the face relation of
``plmorse.complexes.CanonicalComplex.face_pairs``.  ``integer_feasible`` is a
second reference for ``feasible``: the same integer elimination without
Chernikov's rule, keeping every combination.

The feasibility test is the rational form of the same elimination:
equalities are removed by Gaussian substitution with ``Fraction``
multipliers, every inequality is rescaled to its canonical primitive-integer
form, and each step combines a positive and a negative row with ``Fraction``
coefficients.  The program runs the elimination on primitive integers
instead; on any system the two must give the same answer.  Likewise ``rref``
here divides each pivot row by its pivot before eliminating, where the
program eliminates fraction-free and divides once on return; the reduced row
echelon form is unique, so the two must return equal rows.
"""

from fractions import Fraction

from plmorse.geometry import _coprime, _primitive_ints, canon_constraint


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _const_ok(off, strict: bool) -> bool:
    return off > 0 if strict else off >= 0


def feasible(n: int, eqs=(), ges=(), gts=()) -> bool:
    """Exact feasibility of {x : eqs = 0, ges >= 0, gts > 0} over Q^n."""
    ineqs: list[tuple[list[Fraction], Fraction, bool]] = []
    for coef, off in ges:
        ineqs.append(([Fraction(c) for c in coef], Fraction(off), False))
    for coef, off in gts:
        ineqs.append(([Fraction(c) for c in coef], Fraction(off), True))

    pending = [[Fraction(c) for c in coef] + [Fraction(off)] for coef, off in eqs]
    while pending:
        row = pending.pop()
        j = next((k for k in range(n) if row[k] != 0), None)
        if j is None:
            if row[n] != 0:
                return False
            continue
        pj = row[j]
        for other in pending:
            if other[j] != 0:
                t = other[j] / pj
                for k in range(n + 1):
                    other[k] -= t * row[k]
        new_ineqs = []
        for c, off, s in ineqs:
            if c[j] != 0:
                t = c[j] / pj
                c = [a - t * b for a, b in zip(c, row[:n])]
                off = off - t * row[n]
                c[j] = Fraction(0)
            new_ineqs.append((c, off, s))
        ineqs = new_ineqs

    def canon(c, off, s):
        coef, ioff = canon_constraint(c, off)
        return coef, ioff, s

    work = set()
    for c, off, s in ineqs:
        if all(x == 0 for x in c):
            if not _const_ok(off, s):
                return False
            continue
        work.add(canon(c, off, s))

    while work:
        counts = {}
        for coef, off, s in work:
            for k in range(n):
                if coef[k] != 0:
                    counts.setdefault(k, [0, 0])
        for coef, off, s in work:
            for k in counts:
                if coef[k] > 0:
                    counts[k][0] += 1
                elif coef[k] < 0:
                    counts[k][1] += 1
        if not counts:
            break
        j = min(counts, key=lambda k: counts[k][0] * counts[k][1])
        pos, neg, rest = [], [], set()
        for con in work:
            cj = con[0][j]
            if cj > 0:
                pos.append(con)
            elif cj < 0:
                neg.append(con)
            else:
                rest.add(con)
        work = rest
        for pc, po, ps in pos:
            for nc, no, ns in neg:
                a, b = pc[j], nc[j]
                c = [Fraction(-b) * x + Fraction(a) * y for x, y in zip(pc, nc)]
                off = -b * po + a * no
                s = ps or ns
                if all(x == 0 for x in c):
                    if not _const_ok(off, s):
                        return False
                    continue
                work.add(canon(c, off, s))
    return True


def _keep(work: set, row: list[int], strict: bool, n: int) -> bool:
    """Add a primitive row to the work set; False if it is a violated constant."""
    if any(row[:n]):
        work.add((tuple(row[:n]), row[n], strict))
        return True
    return row[n] > 0 if strict else row[n] >= 0


def integer_feasible(n: int, eqs=(), ges=(), gts=()) -> bool:
    """Exact feasibility of {x : eqs = 0, ges >= 0, gts > 0} over Q^n.

    Every form is scaled once to primitive integers.  Equalities are removed
    by integer substitution, then Fourier-Motzkin eliminates the remaining
    variables, each step a positive integer combination divided by its gcd.
    Each row is thus a positive multiple of its rational counterpart, so no
    sign changes.  Total and exact; the combination of a strict inequality
    with any other is strict.
    """
    ineqs = [(_primitive_ints([*c, o]), False) for c, o in ges]
    ineqs += [(_primitive_ints([*c, o]), True) for c, o in gts]

    # Integer substitution for the equalities.
    pending = [_primitive_ints([*c, o]) for c, o in eqs]
    while pending:
        pivot = pending.pop()
        j = next((k for k in range(n) if pivot[k] != 0), None)
        if j is None:
            if pivot[n] != 0:
                return False
            continue
        p, sp = abs(pivot[j]), (1 if pivot[j] > 0 else -1)

        def sub(row):  # |p|*row - sgn(p)*row[j]*pivot: zero at j, same sign
            t = sp * row[j]
            return _coprime([p * a - t * b for a, b in zip(row, pivot)]) if t else row

        pending = [sub(row) for row in pending]
        ineqs = [(sub(row), s) for row, s in ineqs]

    # Fourier-Motzkin elimination of the remaining variables.
    work = set()
    for row, s in ineqs:
        if not _keep(work, row, s, n):
            return False
    while work:
        counts = {}  # variable -> [rows with it positive, negative], by first use
        for coef, _, _ in work:
            for k, v in enumerate(coef):
                if v:
                    counts.setdefault(k, [0, 0])[v < 0] += 1
        j = min(counts, key=lambda k: counts[k][0] * counts[k][1])
        pos, neg, rest = [], [], set()
        for con in work:
            cj = con[0][j]
            if cj > 0:
                pos.append(con)
            elif cj < 0:
                neg.append(con)
            else:
                rest.add(con)
        work = rest
        if len(counts) == 1:  # x_j alone is left: only its tightest bounds matter
            pos, neg = _tightest(pos, j), _tightest(neg, j)
        for pc, po, ps in pos:
            for nc, no, ns in neg:
                a, b = pc[j], -nc[j]
                row = [b * x + a * y for x, y in zip(pc, nc)]
                row.append(b * po + a * no)
                if not _keep(work, _coprime(row), ps or ns, n):
                    return False
    return True


def _tightest(side: list, j: int) -> list:
    """Of rows c*x_j + o >= 0 (or > 0) with c of one sign, the one with the
    least o/|c| as a one-row list, a strict one on a tie; [] for no rows."""
    best = side[:1]
    for con in side[1:]:
        d = con[1] * abs(best[0][0][j]) - best[0][1] * abs(con[0][j])
        if d < 0 or (d == 0 and con[2]):
            best = [con]
    return best


def contained(inner, outer) -> bool:
    """Exact containment of polyhedra (inner nonempty): no point of inner's
    relative interior violates a constraint of outer, two feasibility tests
    per equality of outer and one per inequality."""
    eqs, stricts = inner.relint_system
    for coef, off in outer.ges:
        if feasible(inner.n, eqs=eqs, gts=list(stricts) + [(tuple(-x for x in coef), -off)]):
            return False
    for coef, off in outer.eqs:
        for flip in (1, -1):
            probe = (tuple(flip * -x for x in coef), flip * -off)
            if feasible(inner.n, eqs=eqs, gts=list(stricts) + [probe]):
                return False
    return True
