"""Linear solves over ``Fraction``, read off the program's ``rref``.

``solve_linear`` and ``nullspace_basis`` are the references for
``plmorse.geometry.solve_integer``, which reads the same solution and
nullspace off one fraction-free ``echelon`` as integer numerators over one
denominator.  The other references (hull models, the Fraction construction,
the kernel and vertex checks) solve with them too.  ``rref`` is looked up on
the module at each call, so a test that counts its calls sees these.
"""

from fractions import Fraction

from plmorse import geometry


def nullspace_basis(rows, n: int) -> list:
    """Basis of {x in Q^n : row . x = 0 for every row}."""
    return _nullspace(*geometry.rref(rows), n)


def _nullspace(red, pivots, n: int) -> list:
    """Nullspace basis read off a reduced row echelon form's free columns."""
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def solve_linear(rows, rhs, n: int) -> tuple:
    """Solve rows . x = rhs exactly.

    Returns (particular solution or None if inconsistent, nullspace basis),
    from one elimination: the augmented system's reduced form is that of
    ``rows`` with a right-hand column, plus [0 ... 0 | 1] when inconsistent.
    """
    red, pivots = geometry.rref([list(row) + [r] for row, r in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        return None, _nullspace(red, pivots[:-1], n)
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    return tuple(x), _nullspace(red, pivots, n)
