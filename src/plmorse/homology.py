"""Simplicial homology over the rationals, plus a cubical grid oracle.

Compact polytopal models are triangulated by pulling (cone each cell from its
lexicographically minimal vertex over its triangulated boundary), which adds
no vertices and is compatible across shared faces.  Betti numbers come from
exact integer ranks of the boundary matrices; relative Betti numbers from the
quotient by a subcomplex.  The grid oracle rebuilds sublevel/superlevel/band
sets of a 2-input network from scratch on a pixel grid, giving an independent
check on the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .geometry import Vec
from .network import Network

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


# Largest grid grid_oracle evaluates, in points.  A 257 x 257 grid on fan(1) took
# 10 s and 79 MiB peak on a 2-vCPU VM; 10^6 points scale that to minutes and ~1 GiB.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class OracleResult:
    betti: tuple[int, ...]
    margin: Fraction
    squares: int


def grid_oracle(net: Network, mode: str, c, resolution, box) -> OracleResult:
    """Betti numbers of a sublevel/superlevel/band set from a corner-tested
    pixel grid over [-box, box]^2, triangulated and run through the same rank
    machinery.  Trustworthy when the reported margin comfortably exceeds
    resolution times the network's Lipschitz constant.  Grids of more than
    MAX_GRID_POINTS points are refused with ValueError."""
    if net.n0 != 2:
        raise ValueError("grid oracle works on two-input networks only")
    r = Fraction(resolution)
    if r <= 0:
        raise ValueError("resolution must be positive")
    b = Fraction(box)
    if mode == "band":
        lo, hi = Fraction(c[0]), Fraction(c[1])
        passes = lambda v: lo <= v <= hi
        dist = lambda v: min(abs(v - lo), abs(v - hi))
    elif mode == "sublevel":
        t = Fraction(c)
        passes = lambda v: v <= t
        dist = lambda v: abs(v - t)
    elif mode == "superlevel":
        t = Fraction(c)
        passes = lambda v: v >= t
        dist = lambda v: abs(v - t)
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
    ok: dict[tuple[int, int], bool] = {}
    margin = None
    for i in range(steps + 1):
        x = -b + i * r
        for j in range(steps + 1):
            y = -b + j * r
            v = net.evaluate((x, y))[0]
            ok[(i, j)] = passes(v)
            d = dist(v)
            if margin is None or d < margin:
                margin = d

    vid: dict[tuple[int, int], int] = {}

    def vert(i, j):
        got = vid.get((i, j))
        if got is None:
            got = vid[(i, j)] = len(vid)
        return got

    tris = []
    squares = 0
    for i in range(steps):
        for j in range(steps):
            if ok[(i, j)] and ok[(i + 1, j)] and ok[(i, j + 1)] and ok[(i + 1, j + 1)]:
                squares += 1
                a, p, q, d = vert(i, j), vert(i + 1, j), vert(i, j + 1), vert(i + 1, j + 1)
                tris.append((a, p, d))
                tris.append((a, q, d))
    coords = [None] * len(vid)
    for (i, j), k in vid.items():
        coords[k] = (-b + i * r, -b + j * r)
    sc = SimplicialComplex.from_maximal(tuple(coords), tris)
    return OracleResult(betti(sc), margin if margin is not None else Fraction(0), squares)
