"""Homology over the rationals, cellular and simplicial, plus a grid oracle.

A compact polytopal model is a regular CW complex, so its cellular chain
complex has one generator per cell, with incidence numbers read off the face
poset (Björner 1984, "Posets, regular CW complexes and Bruhat order").
CellularComplex gives the Betti numbers of a model, of a down-set of its
cells and of a pair of nested down-sets, and the local ranks H(X, X minus K)
of a marked subcomplex K.  The simplicial route stays: the order complex of
the face poset, which is the model's barycentric subdivision (triangulate),
plus barycentric_pair and complement_complex.  Both routes share one rank loop,
exact integer ranks of sparse boundary matrices, and take relative Betti
numbers from the quotient by a subcomplex.  The grid oracle rebuilds
sublevel, superlevel and band sets of a 2-input network anew on a pixel
grid, giving an independent check on the whole pipeline: it evaluates the
grid in Python ints and reads the Betti numbers of the union of passing
squares off a union-find component count and the Euler characteristic, so
it uses neither the triangulation nor the rank code above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, gcd, inf, lcm
from operator import and_, or_

from .complexes import components
from .geometry import Vec
from .network import Network, integer_layers

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """Simplices as sorted tuples of vertex ids; ``vertices`` labels the ids,
    by the cells' vertex ids in a triangulated model and by the subdivided
    simplices in a barycentric subdivision."""

    vertices: tuple[Vec | Simplex, ...]
    simplices: frozenset[Simplex]


@dataclass(frozen=True)
class SimplicialPair:
    complex: SimplicialComplex
    sub: frozenset[Simplex]


class NotFullError(ValueError):
    """The subcomplex misses a simplex spanned by its own vertices."""


def sparse_rank(rows) -> int:
    """Rank of an integer matrix given as sparse {column: value} rows."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        while r:
            c = max(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                rank += 1
                break
            u, v = p[c], r[c]
            if u in (1, -1):
                f = v * u
                for col, val in p.items():
                    nv = r.get(col, 0) - f * val
                    if nv:
                        r[col] = nv
                    else:
                        r.pop(col, None)
            else:
                g = gcd(u, v)
                a, b = u // g, v // g
                for col in set(r) | set(p):
                    nv = a * r.get(col, 0) - b * p.get(col, 0)
                    if nv:
                        r[col] = nv
                    else:
                        r.pop(col, None)
                g2 = gcd(*r.values())
                if g2 > 1:
                    r = {cc: vv // g2 for cc, vv in r.items()}
    return rank


def _trim(bs) -> tuple[int, ...]:
    bs = list(bs)
    while bs and bs[-1] == 0:
        bs.pop()
    return tuple(bs)


def _chain_betti(by_dim, boundary) -> tuple[int, ...]:
    """Betti numbers of the chain complex with generators by_dim[k] in degree
    k, where boundary(g) maps g's faces to their coefficients.  A face
    outside the generators is read as zero, so the generators may span a
    quotient by the rest."""
    ranks = [0] * (len(by_dim) + 1)
    for k in range(1, len(by_dim)):
        index = {g: i for i, g in enumerate(by_dim[k - 1])}
        ranks[k] = sparse_rank(
            [{index[f]: v for f, v in boundary(g).items() if f in index} for g in by_dim[k]]
        )
    return _trim(len(gens) - ranks[k] - ranks[k + 1] for k, gens in enumerate(by_dim))


def _simplicial_betti(simplices) -> tuple[int, ...]:
    """A simplex is a cell whose i-th facet, s without s[i], has incidence (-1)^i."""
    top = max(map(len, simplices), default=0)
    by_dim = [sorted(s for s in simplices if len(s) == k + 1) for k in range(top)]
    return _chain_betti(by_dim, lambda s: {s[:i] + s[i + 1 :]: (-1) ** i for i in range(len(s))})


def betti(sc: SimplicialComplex) -> tuple[int, ...]:
    """Rational Betti numbers (b0, b1, ...), trailing zeros dropped."""
    return _simplicial_betti(sc.simplices)


def check_subcomplex(sc: SimplicialComplex, sub) -> None:
    for s in sub:
        if s not in sc.simplices:
            raise ValueError(f"sub simplex {s} not in the complex")
        for i in range(len(s)):
            f = s[:i] + s[i + 1 :]
            if f and f not in sub:
                raise ValueError(f"sub not face-closed: missing {f}")


def check_full(sc: SimplicialComplex, sub) -> None:
    sub_verts = {v for s in sub for v in s}
    for s in sc.simplices:
        if s not in sub and all(v in sub_verts for v in s):
            raise NotFullError(f"simplex {s} spans sub vertices but is not in sub")


def relative_betti(pair: SimplicialPair) -> tuple[int, ...]:
    """Betti numbers of the quotient chain complex (simplices outside sub).

    Exact for every subcomplex pair; fullness is only needed when the sub is
    later complemented, and complement_complex enforces it there.
    """
    sc, sub = pair.complex, frozenset(pair.sub)
    check_subcomplex(sc, sub)
    return _simplicial_betti(sc.simplices - sub)


# ---------------------------------------------------------------------------
# cellular homology of compact models


def _cell_order(model) -> list[frozenset[int]]:
    """A model's cell ids by (dimension, sorted vertex ids).

    A listed face that is not a model cell of lower dimension on vertices of
    the cell is named in a RuntimeError.
    """
    cells = model.cells
    order = sorted(cells, key=lambda cid: (cells[cid].dimension, sorted(cid)))
    for cid in order:
        c = cells[cid]
        for fid in c.faces:
            f = cells.get(fid)
            if f is None or f.dimension >= c.dimension or not f.verts <= c.verts:
                raise RuntimeError(
                    f"cell {sorted(cid)} lists face {sorted(fid)}, which is not a "
                    "lower-dimensional model cell on its vertices"
                )
    return order


def _incidences(cid, cells, boundary) -> dict[frozenset[int], int]:
    """[c:f] on each facet f of the cell c with id cid, given ``boundary`` on
    the lower-dimensional cells.  An edge's lower vertex id gets -1, a higher
    cell's first facet +1, and across each ridge r, shared by facets f and g,
    [c:g] = -[c:f][f:r][g:r], which makes d(d(c)) vanish on r.  A 0-cell
    gets the augmentation."""
    d = cells[cid].dimension
    if d == 0:
        return {frozenset(): 1}
    facets = sorted((f for f in cells[cid].faces if cells[f].dimension == d - 1), key=sorted)
    by_ridge: dict[frozenset[int], list[frozenset[int]]] = {}
    for f in facets:
        for r in boundary[f]:
            by_ridge.setdefault(r, []).append(f)
    sign = dict.fromkeys(facets[:1], -1 if d == 1 else 1)
    stack = facets[:1]
    while stack:
        f = stack.pop()
        for r, fr in boundary[f].items():
            fs = by_ridge[r]
            if len(fs) != 2:
                raise RuntimeError(f"cell {sorted(cid)} has ridge {sorted(r)} in {len(fs)} facets")
            g = fs[fs[0] == f]  # the other facet on r
            s = -sign[f] * fr * boundary[g][r]
            if g not in sign:
                sign[g] = s
                stack.append(g)
            elif sign[g] != s:
                raise RuntimeError(f"cell {sorted(cid)} reaches facet {sorted(g)} with both signs")
    if not facets or len(sign) != len(facets):
        raise RuntimeError(f"the facet graph of cell {sorted(cid)} is empty or disconnected")
    return sign


class CellularComplex:
    """The cellular chain complex of a compact model: one generator per cell.

    A polytopal complex is a regular CW complex, so the face poset gives its
    incidence numbers (Björner 1984): ``boundary[c]`` maps each facet f of
    cell c to [c:f] = +-1 (_incidences).  A 0-cell carries the augmentation
    [v:{}] = 1, which no rank reads, so that an edge's two ends share a
    ridge.  A ridge in other than two facets, an empty or disconnected facet
    graph and a facet reached with both signs are named in a RuntimeError.
    """

    def __init__(self, model):
        cells = self.cells = model.cells
        self.boundary: dict[frozenset[int], dict[frozenset[int], int]] = {}
        self.by_dim: list[list[frozenset[int]]] = [[] for _ in range(model.dim + 1)]
        for cid in _cell_order(model):
            self.boundary[cid] = _incidences(cid, cells, self.boundary)
            self.by_dim[cells[cid].dimension].append(cid)

    def _betti(self, chains) -> tuple[int, ...]:
        """Betti numbers of the chains on the given cells, every face outside
        them read as zero."""
        by_dim = [[cid for cid in group if cid in chains] for group in self.by_dim]
        return _chain_betti(by_dim, self.boundary.__getitem__)

    def _down_set(self, ids) -> frozenset[frozenset[int]]:
        ids = frozenset(ids)
        for cid in ids:
            if not self.cells[cid].faces <= ids:
                raise RuntimeError(f"cell {sorted(cid)} is marked but not all of its faces are")
        return ids

    def betti(self, sub=None) -> tuple[int, ...]:
        """Betti numbers of the model, or of its subcomplex on the down-set sub."""
        return self._betti(self.boundary if sub is None else self._down_set(sub))

    def relative_betti(self, sub, outer=None) -> tuple[int, ...]:
        """Betti numbers of the pair (subcomplex on the down-set outer, by
        default the whole model; subcomplex on the down-set sub inside it)."""
        outer = self.boundary.keys() if outer is None else self._down_set(outer)
        if not (sub := self._down_set(sub)) <= outer:
            raise ValueError("the inner down-set is not inside the outer one")
        return self._betti(outer - sub)

    def local_betti(self, k_ids) -> tuple[int, ...]:
        """Ranks of H(X, X minus K) for the subcomplex K on the down-set k_ids.

        X minus K retracts onto the order complex of the cells outside K,
        and that onto D, the cells with no vertex in K, when each cell u
        outside K meets K in one face of u: the faces of u that miss K then
        form a shellable ball (Bruggesser and Mani 1971), and Quillen's fiber
        lemma (Quillen 1978, Prop. 1.6) applies.  So the ranks are those of
        H(X, D), whose chains are the cells with a vertex in K.  A cell
        outside K whose faces in K have more than one maximal element is
        named in a RuntimeError.
        """
        cells, k_ids = self.cells, self._down_set(k_ids)
        k_verts = frozenset().union(*k_ids)
        near = frozenset(cid for cid in cells if not cid.isdisjoint(k_verts))
        for cid in near - k_ids:
            in_k = [f for f in cells[cid].faces if f in k_ids]
            top = max(in_k, key=lambda f: cells[f].dimension)
            if not all(f == top or f in cells[top].faces for f in in_k):
                raise RuntimeError(f"cell {sorted(cid)} outside K meets K in more than one face")
        return self._betti(near)


# ---------------------------------------------------------------------------
# triangulating compact models


@dataclass(frozen=True)
class Triangulation:
    complex: SimplicialComplex
    by_cell: dict


def _chains(faces) -> list[list[Simplex]]:
    """Entry i: the increasing chains topped by i of a poset in which
    faces[i] lists the elements below i, all less than i."""
    chains: list[list[Simplex]] = []
    for below in faces:
        top = (len(chains),)
        chains.append([top] + [ch + top for f in below for ch in chains[f]])
    return chains


def triangulate(model) -> Triangulation:
    """The order complex of a compact model's face poset, which for a
    polytopal complex is its barycentric subdivision (Björner 1984).

    Vertex i stands for the i-th cell by (dimension, vertex ids), and each
    chain of faces is a simplex; by_cell maps each model cell id to the
    chains that end at it.  A listed face that is not a model cell of lower
    dimension on vertices of the cell is named in a RuntimeError.
    """
    cells = model.cells
    order = _cell_order(model)
    index = {cid: i for i, cid in enumerate(order)}
    chains = _chains([index[f] for f in cells[cid].faces] for cid in order)
    simplices = frozenset(ch for group in chains for ch in group)
    sc = SimplicialComplex(tuple(tuple(sorted(cid)) for cid in order), simplices)
    return Triangulation(sc, dict(zip(order, chains)))


# ---------------------------------------------------------------------------
# subdivision and complements


def barycentric_pair(sc: SimplicialComplex, sub=frozenset()):
    """Barycentric subdivision; returns (new complex, image of sub).

    Combinatorial: new vertex i stands for the i-th old simplex in order of
    size, and its simplices are the chains of old simplices, which that
    order numbers increasingly.  The new complex's vertices are the old
    simplices, and no coordinate is computed.
    """
    simps = sorted(sc.simplices, key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(simps)}
    chains = _chains(
        [index[f] for r in range(1, len(s)) for f in combinations(s, r)] for s in simps
    )
    new_sub = frozenset(ch for s in sub for ch in chains[index[s]])
    new_simps = frozenset(ch for group in chains for ch in group)
    return SimplicialComplex(tuple(simps), new_simps), new_sub


def complement_complex(sc: SimplicialComplex, k_sub) -> frozenset[Simplex]:
    """Full subcomplex on the vertices outside k_sub (which must be full)."""
    k_sub = frozenset(k_sub)
    check_subcomplex(sc, k_sub)
    check_full(sc, k_sub)
    k_verts = {v for s in k_sub for v in s}
    return frozenset(s for s in sc.simplices if not any(v in k_verts for v in s))


# ---------------------------------------------------------------------------
# grid oracle


# Largest grid grid_oracle evaluates, in points.  On fan(1) on a 2-vCPU VM, a 257 x 257
# grid takes 0.06-0.09 s CPU and 17 MiB peak RSS, and 999 x 999 takes 1.0-1.2 s and 25 MiB.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class OracleResult:
    betti: tuple[int, ...]
    margin: Fraction
    squares: int


def grid_oracle(net: Network, mode: str, c, resolution, box) -> OracleResult:
    """Betti numbers of a sublevel/superlevel/band set from a corner-tested
    pixel grid over [-box, box]^2.

    The set is the union of the closed grid squares whose four corners pass.
    The grid is evaluated in Python ints (integer_layers, on grid points
    X/q) one unit at a time along each row: a unit's values on a row are one
    list.  Each threshold is tested on the integer output.  The union
    lies in the plane, so H_2 = 0: b_0 counts its components by union-find
    over runs of passing squares, V and E are counted from the pass/fail
    rows, and b_1 = b_0 - (V - E + S).  Nothing is triangulated and no rank
    is taken, so the oracle shares no homology code with the pipeline it
    checks.  margin is the least distance from F at a grid point to a
    threshold; the answer is trustworthy when it comfortably exceeds
    resolution times the network's Lipschitz constant.
    A non-positive resolution or box, thresholds that do not fit the mode
    (one value; a (lo, hi) pair in band mode), a band with lo > hi, and grids
    of more than MAX_GRID_POINTS points are refused with ValueError."""
    if net.n0 != 2:
        raise ValueError("grid oracle works on two-input networks only")
    r = Fraction(resolution)
    if r <= 0:
        raise ValueError("resolution must be positive")
    b = Fraction(box)
    if b <= 0:
        raise ValueError("box must be positive")
    # each bound (t, s) asks for s*F >= s*t
    signs = {"band": (1, -1), "sublevel": (-1,), "superlevel": (1,)}.get(mode)
    if signs is None:
        raise ValueError(f"unknown mode {mode!r}")
    try:
        ts = tuple(map(Fraction, c)) if mode == "band" else (Fraction(c),)
    except TypeError:
        ts = ()
    if len(ts) != len(signs):
        got = ", ".join(map(str, c)) if isinstance(c, (tuple, list)) else c
        raise ValueError(f"{mode} mode needs {len(signs)} threshold value(s), got {got}")
    if mode == "band" and ts[0] > ts[1]:
        raise ValueError(f"band needs lo <= hi, got {ts[0]} > {ts[1]}")

    steps = ceil(2 * b / r)
    if (steps + 1) ** 2 > MAX_GRID_POINTS:
        raise ValueError(
            f"a grid over box {b} at resolution {r} has {(steps + 1) ** 2} points, "
            f"more than the limit of {MAX_GRID_POINTS}"
        )
    q = lcm(b.denominator, r.denominator)
    layers, sigma = integer_layers(net, q)
    xs = list(range(int(-b * q), int((steps * r - b) * q) + 1, int(r * q)))  # q times the grid
    # s*F >= s*t  iff  s*td*G - s*tn*sigma >= 0, for t = tn/td and F = G/sigma
    lin = [(s * t.denominator, s * t.numerator * sigma) for t, s in zip(ts, signs)]
    ok: list[list[bool]] = []
    least = [inf] * len(lin)
    for row in _grid_rows(layers, xs):
        passing = [True] * len(row)
        for k, (u, v) in enumerate(lin):
            gap = [u * g - v for g in row]
            least[k] = min(least[k], *map(abs, gap))
            passing = list(map(and_, passing, [d >= 0 for d in gap]))
        ok.append(passing)
    margin = min(Fraction(m, abs(u) * sigma) for m, (u, _) in zip(least, lin))

    b0, corners, sides, squares = _union_counts(ok)
    return OracleResult(_trim((b0, b0 - (corners - sides + squares))), margin, squares)


def _union_counts(ok) -> tuple[int, int, int, int]:
    """Components, corners, sides and squares of the union of the closed grid
    squares whose four corners pass in ``ok``.

    Squares that share a side or a corner touch, so the components unite
    each row's runs of passing squares with the runs they touch in the row
    above.  A corner or side counts once, however many squares hold it.
    """
    width = len(ok[0]) - 1
    prev, prev_near = [False] * width, [False] * (width + 1)
    runs: list[tuple[int, int]] = []
    links = []
    prev_first = corners = sides = squares = 0
    for top, bottom in zip(ok, [*ok[1:], [False] * (width + 1)]):
        both = list(map(and_, top, bottom))
        row = list(map(and_, both, both[1:]))
        # near[j]: a passing square in this row has a corner at grid column j
        padded = [False, *row, False]
        near = list(map(or_, padded, padded[1:]))
        corners += sum(map(or_, prev_near, near))
        sides += sum(near) + sum(map(or_, prev, row))
        squares += sum(row)
        first = len(runs)
        runs += zip([j for j in range(width) if row[j] and not padded[j]],
                    [j for j in range(width) if row[j] and not padded[j + 2]])
        k = prev_first
        for r in range(first, len(runs)):
            lo, hi = runs[r]
            while k < first and runs[k][1] < lo - 1:
                k += 1
            m = k
            while m < first and runs[m][0] <= hi + 1:
                links.append((m, r))
                m += 1
        prev, prev_near, prev_first = row, near, first
    return len(components(range(len(runs)), links)), corners, sides, squares


def _grid_rows(layers, xs):
    """Rows of the integer output G at (xs[i], xs[j]), one row per i, each
    evaluated one unit at a time: z[k] lists unit k's values along the row."""
    (a1, b1), rest = layers[0], layers[1:]
    cols = [[w[1] * y for y in xs] for w in a1]
    for x in xs:
        z = [[s + t for t in col] for s, col in zip([w[0] * x + c for w, c in zip(a1, b1)], cols)]
        for a, bias in rest:
            h = [[v if v > 0 else 0 for v in zs] for zs in z]
            z = []
            for ws, c in zip(a, bias):
                acc = [c] * len(xs)
                for w, hs in zip(ws, h):
                    acc = [s + w * v for s, v in zip(acc, hs)]
                z.append(acc)
        yield z[0]
