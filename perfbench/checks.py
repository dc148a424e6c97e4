"""Output checks, computed without the program under test.

Everything here is hand-written exact arithmetic over ``Fraction``: a
forward pass, a linear solve, closed forms, and identities that the
homology the program reports must satisfy whatever the network.  Each
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# networks, read from the JSON the program is given


def parse_network(doc) -> list[tuple[list[list[Fraction]], list[Fraction]]]:
    """Layers as (weight rows, biases), every scalar an exact Fraction."""
    return [
        ([[Fraction(w) for w in row] for row in layer["weights"]],
         [Fraction(b) for b in layer["bias"]])
        for layer in doc["layers"]
    ]


def forward(layers, x) -> Fraction:
    """F(x): ReLU on every hidden layer, none on the scalar output."""
    v = [Fraction(t) for t in x]
    for i, (rows, bias) in enumerate(layers):
        z = [sum((w * t for w, t in zip(row, v)), Fraction(0)) + b for row, b in zip(rows, bias)]
        v = z if i == len(layers) - 1 else [max(t, Fraction(0)) for t in z]
    return v[0]


def solve(rows, rhs):
    """The unique solution of a square system, or None if it is singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def euler(ranks) -> int:
    return sum((-1) ** k * r for k, r in enumerate(ranks))


# ---------------------------------------------------------------------------
# analyze reports


def zaslavsky_vertices(m: int, n: int) -> int:
    """0-cells of m hyperplanes in general position in R^n."""
    return math.comb(m, n)


def _morse_problems(name, coarse, local) -> list[str]:
    out = []
    top = max(len(coarse), len(local))
    c = list(coarse) + [0] * (top - len(coarse))
    s = list(local) + [0] * (top - len(local))
    for k in range(top):
        if c[k] > s[k]:
            out.append(f"weak Morse inequality fails in degree {k}: {name} {c[k]} > local {s[k]}")
        alt_c = sum((-1) ** (k - j) * c[j] for j in range(k + 1))
        alt_s = sum((-1) ** (k - j) * s[j] for j in range(k + 1))
        if alt_c > alt_s:
            out.append(f"strong Morse inequality fails in degree {k}: {alt_c} > {alt_s}")
    return out


def check_report(report: dict, layers, family: str, param) -> list[str]:
    """Identities every analyze report must satisfy, plus family closed forms."""
    out = []
    comps = report["components"]
    st, co, cn = report["stable"], report["coarse"], report["counts"]
    for rec in comps:
        if rec["total"] != sum(rec["ranks"]):
            out.append(f"component total {rec['total']} != sum of ranks {rec['ranks']}")
    if report["global_h_complexity"] != sum(r["total"] for r in comps):
        out.append("global complexity is not the sum of local totals")
    if sorted({Fraction(r["level"]) for r in comps}) != [Fraction(t) for t in report["thresholds"]]:
        out.append("thresholds are not the levels of the flat components")

    # Euler balance: chi(F<=M) - chi(F<=-M) = sum of local chi = chi(coarse sublevel)
    local_chi = sum(euler(r["ranks"]) for r in comps)
    sub_chi = euler(st["sub_plus"]) - euler(st["sub_minus"])
    if not sub_chi == local_chi == euler(co["sublevel"]):
        out.append(f"sublevel Euler balance: stable {sub_chi}, local {local_chi}, "
                   f"coarse {euler(co['sublevel'])}")
    if euler(co["superlevel"]) != euler(st["super_minus"]) - euler(st["super_plus"]):
        out.append("superlevel Euler balance fails")

    summed = []
    for r in comps:
        for k, v in enumerate(r["ranks"]):
            summed += [0] * (k + 1 - len(summed))
            summed[k] += v
    out += _morse_problems("coarse sublevel", co["sublevel"], summed)

    if abs(cn["n_minus"] - cn["n_plus"]) > sum(co["sublevel"]):
        out.append("|n_minus - n_plus| exceeds the coarse sublevel total")
    if abs(cn["n_super_plus"] - cn["n_super_minus"]) > sum(co["superlevel"]):
        out.append("|n_super_plus - n_super_minus| exceeds the coarse superlevel total")
    if len(layers) == 2:
        for r in comps:
            for lab in r["cells"]:
                p = zero_cell_point(layers, lab)
                if p is not None and forward(layers, p) != Fraction(r["level"]):
                    out.append(f"level {r['level']} of 0-cell {lab} is not F at its vertex")
    if report["vertices"] is not None:
        m, n = len(layers[0][0]), len(layers[0][0][0])
        if len(report["vertices"]) != zaslavsky_vertices(m, n):
            out.append(f"{len(report['vertices'])} vertices, Zaslavsky gives {zaslavsky_vertices(m, n)}")
        out += _check_vertex_classes(report, comps, layers)

    if family == "fan":
        central = tuple(-1 for _ in layers[0][0])
        hit = [r for r in comps if list(central) in r["cells"]]
        if len(hit) != 1 or hit[0]["ranks"] != [0, param]:
            out.append(f"fan({param}) central component ranks {[r['ranks'] for r in hit]}, want [0, {param}]")
    if family == "coarse" and co["sublevel"] != [0, param - 2]:
        out.append(f"coarse-bound({param}) coarse sublevel {co['sublevel']}, want [0, {param - 2}]")
    return out


def zero_cell_point(layers, label):
    """The point of a one-hidden-layer 0-cell, solved from its zero units."""
    rows, bias = layers[0]
    zeros = [i for i, s in enumerate(label) if s == 0]
    if len(zeros) != len(rows[0]):
        return None
    return solve([rows[i] for i in zeros], [-bias[i] for i in zeros])


def _check_vertex_classes(report, comps, layers) -> list[str]:
    """Regular: no local homology; nondegenerate of index i: rank 1 in degree i.

    Compared for vertices that form a flat component on their own; the
    vertex of a 0-cell label is solved by hand from its zero units.
    """
    alone = {}
    for r in comps:
        if len(r["cells"]) == 1:
            p = zero_cell_point(layers, r["cells"][0])
            if p is not None:
                alone[p] = r["ranks"]
    out = []
    for v in report["vertices"]:
        ranks = alone.get(tuple(Fraction(x) for x in v["point"]))
        if ranks is None:
            continue
        if v["class"] == "Regular" and sum(ranks) != 0:
            out.append(f"regular vertex {v['point']} has local ranks {ranks}")
        if v["class"] == "NondegenerateCritical":
            i = v["index"]
            want = [0] * i + [1]
            if ranks != want:
                out.append(f"index-{i} vertex {v['point']} has local ranks {ranks}")
    return out


# ---------------------------------------------------------------------------
# Monte Carlo summaries and grid oracle results


def plmorse_rate(n: int, n1: int) -> Fraction:
    """P(random (n, n1, 1) net is PL Morse) = sum_{k>n} C(n1, k) / 2^n1."""
    return Fraction(sum(math.comb(n1, k) for k in range(n + 1, n1 + 1)), 2**n1)


def _far(rate: Fraction, p: Fraction, trials: int) -> bool:
    """More than four binomial standard deviations from p."""
    return (rate - p) ** 2 * trials > 16 * p * (1 - p)


def check_montecarlo(doc: dict, kind: str, arch, trials: int) -> list[str]:
    out = []
    if doc["kind"] != kind or doc["architecture"] != list(arch) or doc["trials"] != trials:
        out.append(f"summary is for {doc['kind']} {doc['architecture']} x{doc['trials']}")
    if not 0 <= doc["successes"] <= trials:
        out.append(f"{doc['successes']} successes of {trials} trials")
        return out
    rate = Fraction(doc["successes"], trials)
    if kind == "plmorse":
        p = plmorse_rate(arch[0], arch[1])
        if doc["closed_form"] is None or Fraction(doc["closed_form"]) != p:
            out.append(f"closed form {doc['closed_form']}, want {p}")
        if _far(rate, p, trials):
            out.append(f"PL Morse rate {rate} is more than 4 sigma from {p}")
    else:
        p = Fraction(1, 2 ** arch[-2])
        if doc["bound"] is None or Fraction(doc["bound"]) != p:
            out.append(f"bound {doc['bound']}, want {p}")
        if rate < p and _far(rate, p, trials):
            out.append(f"flat-cell rate {rate} is more than 4 sigma below {p}")
    return out


def check_oracle(doc: dict, mode: str, want) -> list[str]:
    out = []
    if doc["mode"] != mode:
        out.append(f"oracle ran in {doc['mode']} mode, asked for {mode}")
    if doc["betti"] != list(want):
        out.append(f"grid Betti numbers {doc['betti']}, exact pipeline gives {list(want)}")
    if not Fraction(doc["margin"]) > 0:
        out.append(f"grid margin {doc['margin']} is not positive")
    return out
