"""Simplicial homology over the rationals, plus a cubical grid oracle.

Compact polytopal models are triangulated by pulling (cone each cell from its
lexicographically minimal vertex over its triangulated boundary), which adds
no vertices and is compatible across shared faces.  Betti numbers come from
exact integer ranks of the boundary matrices; relative Betti numbers from the
quotient by a subcomplex.  The grid oracle rebuilds sublevel/superlevel/band
sets of a 2-input network from scratch on a pixel grid, giving an independent
check on the whole pipeline: it evaluates the grid in Python ints and reads
the Betti numbers of the union of passing squares off a union-find component
count and the Euler characteristic, so it uses neither the triangulation nor
the rank code above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .complexes import components
from .geometry import Vec
from .network import Network, integer_layers

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple[Vec, ...]
    simplices: frozenset[Simplex]

    @classmethod
    def from_maximal(cls, vertices, tops) -> "SimplicialComplex":
        return cls(tuple(vertices), face_closure(tops))

    @property
    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def k_simplices(self, k: int) -> list[Simplex]:
        return sorted(s for s in self.simplices if len(s) == k + 1)


@dataclass(frozen=True)
class SimplicialPair:
    complex: SimplicialComplex
    sub: frozenset[Simplex]


class NotFullError(ValueError):
    """The subcomplex misses a simplex spanned by its own vertices."""


def face_closure(tops) -> frozenset[Simplex]:
    out: set[Simplex] = set()
    stack = [tuple(sorted(s)) for s in tops]
    while stack:
        s = stack.pop()
        if s in out or not s:
            continue
        out.add(s)
        for i in range(len(s)):
            f = s[:i] + s[i + 1 :]
            if f and f not in out:
                stack.append(f)
    return frozenset(out)


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
                if r:
                    g2 = 0
                    for val in r.values():
                        g2 = gcd(g2, val)
                    if g2 > 1:
                        r = {cc: vv // g2 for cc, vv in r.items()}
    return rank


def _boundary_rows(simplices_k, index_km1) -> list[dict[int, int]]:
    rows = []
    for s in simplices_k:
        row: dict[int, int] = {}
        for i in range(len(s)):
            f = s[:i] + s[i + 1 :]
            j = index_km1.get(f)
            if j is not None:
                row[j] = row.get(j, 0) + (1 if i % 2 == 0 else -1)
        rows.append({c: v for c, v in row.items() if v})
    return rows


def _trim(bs) -> tuple[int, ...]:
    bs = list(bs)
    while bs and bs[-1] == 0:
        bs.pop()
    return tuple(bs)


def _chain_betti(simplices) -> list[int]:
    """Betti numbers of the chain complex spanned by the given simplices, with
    every face outside them taken as zero (a quotient by the rest)."""
    d = max(len(s) for s in simplices) - 1
    by_k: list[list[Simplex]] = [[] for _ in range(d + 1)]
    for s in simplices:
        by_k[len(s) - 1].append(s)
    for group in by_k:
        group.sort()
    ranks = [0] * (d + 2)
    for k in range(1, d + 1):
        index = {s: i for i, s in enumerate(by_k[k - 1])}
        ranks[k] = sparse_rank(_boundary_rows(by_k[k], index))
    return [len(by_k[k]) - ranks[k] - ranks[k + 1] for k in range(d + 1)]


def betti(sc: SimplicialComplex) -> tuple[int, ...]:
    """Rational Betti numbers (b0, b1, ...), trailing zeros dropped."""
    return _trim(_chain_betti(sc.simplices)) if sc.simplices else ()


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
    rel = sc.simplices - sub
    return _trim(_chain_betti(rel)) if rel else ()


# ---------------------------------------------------------------------------
# triangulating compact models


@dataclass(frozen=True)
class Triangulation:
    complex: SimplicialComplex
    by_cell: dict


def triangulate(model) -> Triangulation:
    """Pulling triangulation of a compact polytopal model, no new vertices.

    Each cell is coned from its minimal vertex over the triangulations of the
    facets missing that vertex, so shared faces get identical simplices.
    by_cell maps each model cell id to its top-dimensional simplices.
    """
    cells = model.cells
    tops: dict = {}
    for cid, c in sorted(cells.items(), key=lambda kv: (kv[1].dimension, sorted(kv[0]))):
        d = c.dimension
        if d == 0:
            tops[cid] = (tuple(cid),)
            continue
        v0 = min(cid)
        out = set()
        for fid, f in cells.items():
            if f.dimension == d - 1 and fid < cid and v0 not in fid:
                for s in tops[fid]:
                    out.add(tuple(sorted((v0,) + s)))
        if not out:
            raise RuntimeError(f"cell {sorted(cid)} has no facet missing its minimal vertex")
        tops[cid] = tuple(sorted(out))
    all_tops = [s for ts in tops.values() for s in ts]
    sc = SimplicialComplex.from_maximal(model.vertices, all_tops)
    return Triangulation(sc, tops)


def carried_simplices(tri: Triangulation, ids) -> frozenset[Simplex]:
    """Subcomplex of the triangulation covering the given model cells."""
    return face_closure([s for cid in ids for s in tri.by_cell[cid]])


# ---------------------------------------------------------------------------
# subdivision and complements


def barycenter(sc: SimplicialComplex, s: Simplex) -> Vec:
    k = len(s)
    return tuple(sum(coords) / k for coords in zip(*(sc.vertices[v] for v in s)))


def barycentric_pair(sc: SimplicialComplex, sub=frozenset()):
    """Barycentric subdivision; returns (new complex, image of sub)."""
    simps = sorted(sc.simplices, key=lambda s: (len(s), s))
    bary = {s: barycenter(sc, s) for s in simps}
    new_verts = sorted(set(bary.values()))
    vid = {v: i for i, v in enumerate(new_verts)}

    chains_memo: dict[Simplex, list[tuple[Simplex, ...]]] = {}

    def chains(s: Simplex):
        got = chains_memo.get(s)
        if got is not None:
            return got
        out = [(s,)]
        for f in _proper_faces(s):
            for ch in chains(f):
                out.append(ch + (s,))
        chains_memo[s] = out
        return out

    def to_simplex(ch):
        return tuple(sorted(vid[bary[x]] for x in ch))

    new_simps = {to_simplex(ch) for s in simps for ch in chains(s)}
    new_sub = {to_simplex(ch) for s in sub for ch in chains(s)}
    return SimplicialComplex(tuple(new_verts), frozenset(new_simps)), frozenset(new_sub)


def barycentric(sc: SimplicialComplex) -> SimplicialComplex:
    return barycentric_pair(sc)[0]


def _proper_faces(s: Simplex):
    out = []
    stack = [s[:i] + s[i + 1 :] for i in range(len(s))]
    seen = set()
    while stack:
        f = stack.pop()
        if not f or f in seen:
            continue
        seen.add(f)
        out.append(f)
        for i in range(len(f)):
            stack.append(f[:i] + f[i + 1 :])
    return out


def complement_complex(sc: SimplicialComplex, k_sub) -> frozenset[Simplex]:
    """Full subcomplex on the vertices outside k_sub (which must be full)."""
    k_sub = frozenset(k_sub)
    check_subcomplex(sc, k_sub)
    check_full(sc, k_sub)
    k_verts = {v for s in k_sub for v in s}
    return frozenset(s for s in sc.simplices if not any(v in k_verts for v in s))


# ---------------------------------------------------------------------------
# grid oracle


# Largest grid grid_oracle evaluates, in points.  On fan(1) on a 2-vCPU VM, a
# 257 x 257 grid took 0.4 s and 31 MiB peak, and 999 x 999 took 7.3 s and 252 MiB.
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
    X/q), and each threshold is tested on the integer output.  The union
    lies in the plane, so H_2 = 0: b_0 counts the components of the squares'
    corners and sides by union-find, and b_1 = b_0 - (V - E + S).  Nothing
    is triangulated and no rank is taken, so the oracle shares no homology
    code with the pipeline it checks.  margin is the least distance from F
    at a grid point to a threshold; the answer is trustworthy when it
    comfortably exceeds resolution times the network's Lipschitz constant.
    A non-positive resolution or box, a band with lo > hi, and grids of more
    than MAX_GRID_POINTS points are refused with ValueError."""
    if net.n0 != 2:
        raise ValueError("grid oracle works on two-input networks only")
    r = Fraction(resolution)
    if r <= 0:
        raise ValueError("resolution must be positive")
    b = Fraction(box)
    if b <= 0:
        raise ValueError("box must be positive")
    # each bound (t, s) asks for s*F >= s*t
    if mode == "band":
        lo, hi = Fraction(c[0]), Fraction(c[1])
        if lo > hi:
            raise ValueError(f"band needs lo <= hi, got {lo} > {hi}")
        bounds = ((lo, 1), (hi, -1))
    elif mode == "sublevel":
        bounds = ((Fraction(c), -1),)
    elif mode == "superlevel":
        bounds = ((Fraction(c), 1),)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    steps = int(2 * b / r)
    if steps * r < 2 * b:
        steps += 1
    if (steps + 1) ** 2 > MAX_GRID_POINTS:
        raise ValueError(
            f"a grid over box {b} at resolution {r} has {(steps + 1) ** 2} points, "
            f"more than the limit of {MAX_GRID_POINTS}"
        )
    q = lcm(b.denominator, r.denominator)
    layers, sigma = integer_layers(net, q)
    xs = [int((i * r - b) * q) for i in range(steps + 1)]
    # s*F >= s*t  iff  s*td*G - s*tn*sigma >= 0, for t = tn/td and F = G/sigma
    lin = [(s * t.denominator, s * t.numerator * sigma) for t, s in bounds]
    ok: list[list[bool]] = []
    row_mins: list[list[int]] = [[] for _ in lin]
    for row in _grid_rows(layers, xs):
        passing = [True] * len(row)
        for (u, v), mins in zip(lin, row_mins):
            gap = [u * g - v for g in row]
            mins.append(min(map(abs, gap)))
            passing = [p and d >= 0 for p, d in zip(passing, gap)]
        ok.append(passing)
    margin = min(Fraction(min(mins), abs(u) * sigma) for (u, _), mins in zip(lin, row_mins))

    n = steps + 1
    corners: set[int] = set()
    sides: set[tuple[int, int]] = set()
    squares = 0
    for i in range(steps):
        row0, row1 = ok[i], ok[i + 1]
        for j in range(steps):
            if row0[j] and row0[j + 1] and row1[j] and row1[j + 1]:
                squares += 1
                a, p = i * n + j, (i + 1) * n + j
                corners.update((a, a + 1, p, p + 1))
                sides.update(((a, a + 1), (p, p + 1), (a, p), (a + 1, p + 1)))
    b0 = len(components(corners, sides))
    b1 = b0 - (len(corners) - len(sides) + squares)
    return OracleResult(_trim((b0, b1)), margin, squares)


def _grid_rows(layers, xs):
    """Rows of the integer output G at (xs[i], xs[j]), one row per i."""
    (a1, b1), rest = layers[0], layers[1:]
    cols = [[w[1] * y for w in a1] for y in xs]
    for x in xs:
        base = [w[0] * x + c for w, c in zip(a1, b1)]
        row = []
        for col in cols:
            z = [s + t for s, t in zip(base, col)]
            for a, bias in rest:
                z = [sum(w * v for w, v in zip(ws, z) if v > 0) + c for ws, c in zip(a, bias)]
            row.append(z[0])
        yield row
