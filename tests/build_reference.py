"""Construction of the canonical complex over ``Fraction``, the reference for
``plmorse.complexes.build_complex`` and the deep genericity check.

Each cell of the worklist carries its affine input map in rationals, and a
node splits a cell with three feasibility tests, one per sign.  Every cell is
tested for emptiness once more before its dimension is read.  The program
carries the maps as positive integer multiples of these (over the scale of
``plmorse.network.integer_layers``), decides the zero side from the other two
tests, and reads the dimension, flatness and transversality off one
elimination of each cell's equalities, where this module compares ranks and
evaluates the node at a point; on every network the two must give the same
cells, labels, forms and verdicts.
"""

from fractions import Fraction
from itertools import combinations, islice

from plmorse.complexes import CanonicalComplex, LabeledCell, _sign
from plmorse.geometry import (
    canon_constraint,
    dot,
    feasible,
    nullspace_basis,
    rank,
    solve_linear,
)


def _in_span(target, rows) -> bool:
    """Whether target lies in the row space of rows, by comparing two ranks."""
    return rank([*rows, target]) == rank(rows)


def _initial_cell(n: int):
    ident = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )
    zero = tuple(Fraction(0) for _ in range(n))
    # worklist entry: (label, eqs, ineqs, input_map_rows, input_offset)
    return ((), (), (), ident, zero)


def _node_form(wrow, b, rows, offs):
    """Affine form of one pre-activation in input coordinates, on a cell."""
    return tuple(dot(wrow, col) for col in zip(*rows)), dot(wrow, offs) + b


def _split_by_layer(work, layer, n: int):
    """Refine every cell by the zero set of each node; extend labels."""
    for wrow, b in zip(layer.weights, layer.bias):
        nxt = []
        for label, eqs, ineqs, rows, offs in work:
            g, k = _node_form(wrow, b, rows, offs)
            if all(x == 0 for x in g):
                nxt.append((label + (_sign(k),), eqs, ineqs, rows, offs))
                continue
            ge = canon_constraint(g, k)
            le = canon_constraint(tuple(-x for x in g), -k)
            eq = canon_constraint(g, k, equality=True)
            if feasible(n, eqs=eqs, gts=ineqs + (ge,)):
                nxt.append((label + (1,), eqs, ineqs + (ge,), rows, offs))
            if feasible(n, eqs=eqs + (eq,), gts=ineqs):
                nxt.append((label + (0,), eqs + (eq,), ineqs, rows, offs))
            if feasible(n, eqs=eqs, gts=ineqs + (le,)):
                nxt.append((label + (-1,), eqs, ineqs + (le,), rows, offs))
        work = nxt
    # ReLU: neurons labeled +1 pass through, the rest output zero
    zero = tuple(Fraction(0) for _ in range(n))
    post = []
    width = layer.out_dim
    for label, eqs, ineqs, rows, offs in work:
        block = label[-width:]
        new_rows, new_offs = [], []
        for s, wrow, b in zip(block, layer.weights, layer.bias):
            if s > 0:
                g, k = _node_form(wrow, b, rows, offs)
                new_rows.append(g)
                new_offs.append(k)
            else:
                new_rows.append(zero)
                new_offs.append(Fraction(0))
        post.append((label, eqs, ineqs, tuple(new_rows), tuple(new_offs)))
    return post


def layer_stages(net):
    """(layer, cells of the partial complex before it) for every layer."""
    n = net.n0
    work = [_initial_cell(n)]
    for layer in net.layers[:-1]:
        yield layer, work
        work = _split_by_layer(work, layer, n)
    yield net.layers[-1], work


def build_complex(net) -> CanonicalComplex:
    """The canonical complex, its transversality witnesses included."""
    n = net.n0
    witnesses: list[str] = []
    stages = layer_stages(net)
    for li, (layer, work) in enumerate(islice(stages, net.depth)):
        for label, eqs, ineqs, rows, offs in work:
            eq_normals = [c for c, _ in eqs]
            for ni, (wrow, b) in enumerate(zip(layer.weights, layer.bias)):
                g, k = _node_form(wrow, b, rows, offs)
                if _in_span(g, eq_normals):
                    point, _ = solve_linear(eq_normals, [-o for _, o in eqs], n)
                    if point is not None and dot(g, point) + k == 0:
                        witnesses.append(
                            f"node {ni} of hidden layer {li} is identically zero "
                            f"on the cell labeled {label}"
                        )
    out, work = next(stages)
    cells = {}
    for label, eqs, ineqs, rows, offs in work:
        grad, const = _node_form(out.weights[0], out.bias[0], rows, offs)
        eqs, ineqs = tuple(sorted(set(eqs))), tuple(sorted(set(ineqs)))
        eq_normals = [c for c, _ in eqs]
        flat = _in_span(grad, eq_normals)
        nonempty = feasible(n, eqs=eqs, gts=ineqs)  # tests the cell for emptiness
        dim = n - rank(eq_normals) if nonempty else -1
        lines = len(nullspace_basis([c for c, _ in eqs + ineqs], n))
        cells[label] = LabeledCell(label, eqs, ineqs, grad, const, flat, dim, lines)
    return CanonicalComplex(net, cells, witnesses)


def deep_genericity(net) -> str | None:
    """Witness of the first degenerate intersection past the first layer,
    or None when there is none."""
    n = net.n0
    for li, (layer, work) in enumerate(islice(layer_stages(net), 1, net.depth), start=1):
        for label, eqs, ineqs, rows, offs in work:
            eq_normals = [c for c, _ in eqs]
            base = rank(eq_normals)
            forms = [
                _node_form(wrow, b, rows, offs) for wrow, b in zip(layer.weights, layer.bias)
            ]
            for size in range(1, min(layer.out_dim, n + 1) + 1):
                for T in combinations(range(layer.out_dim), size):
                    sub_eqs = tuple(
                        canon_constraint(forms[i][0], forms[i][1], equality=True)
                        for i in T
                    )
                    if not feasible(n, eqs=eqs + sub_eqs, gts=ineqs):
                        continue
                    if rank(eq_normals + [forms[i][0] for i in T]) != base + size:
                        return (
                            f"hidden layer {li} nodes {T} on cell {label}: "
                            "degenerate intersection"
                        )
    return None
