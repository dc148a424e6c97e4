"""Seeded inputs for each benchmark workload.

``python3 perfbench/corpus.py --workload NAME --seed N --out DIR`` writes the
workload's network files and a ``manifest.json`` listing the program calls of
one pass.  The same seed always gives the same files.  The benchmark times
this script in fresh interpreters as its set-up cost, so it does exactly
what a user must do before the first call: import the package and make the
inputs.  The oracle workload's level search is the benchmark's work, not
the user's: run.py makes it beforehand, untimed (see ``oracle_picks``).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from plmorse.network import (  # noqa: E402
    build_coarse_bound_network,
    build_fan_network,
    network_to_json,
    random_network,
    save_network,
)

import checks  # noqa: E402

# One pass of each analyze workload: (family, parameter, count).  "fan" and
# "coarse" are the paper's planar constructions and "reference" is the seed-3
# random net of the same architecture that the roadmap's figures use; these
# do not change with --seed and anchor the pass time.  "random" nets are
# drawn from --seed.
ANALYZE_CORPUS = {
    "analyze-shallow": [
        ("fan", 1, 1),
        ("fan", 2, 1),
        ("coarse", 4, 1),
        ("coarse", 5, 1),
        ("random", (2, 3, 1), 3),
        ("random", (2, 4, 1), 1),
    ],
    "analyze-deep": [
        ("reference", (2, 3, 2, 1), 1),
        ("reference", (3, 4, 1), 1),
        ("random", (2, 2, 2, 1), 2),
        ("random", (3, 3, 1), 3),
    ],
}
REFERENCE_SEED = 3

# One pass of the montecarlo workload: (kind, architecture, trials).
MONTECARLO_MIX = [
    ("plmorse", (3, 6, 1), 1000),
    ("flat_cell", (3, 4, 4, 1), 1000),
]

# The oracle workload: fan(1) at one level on a fine grid, plus this many
# seeded (2,3,1) nets at one level each on a coarser grid, every level in
# sublevel and superlevel mode.  fan(1)'s superlevel call makes the largest
# complex of the workload, so it, not a seeded net, sets the peak memory.
ORACLE_RANDOM_NETS = 2
ORACLE_BOX = 4
ORACLE_FAN_RESOLUTION = Fraction(1, 16)
ORACLE_RESOLUTION = Fraction(1, 8)
ORACLE_PIXELS = 3
ORACLE_DRAWS = 2000


def sub_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def _save(net, out: Path, name: str) -> str:
    path = out / f"{name}.json"
    save_network(net, path)
    return str(path)


def analyze_ops(workload: str, seed: int, out: Path) -> list[dict]:
    ops = []
    index = 0
    for family, param, count in ANALYZE_CORPUS[workload]:
        for _ in range(count):
            if family == "fan":
                net, name = build_fan_network(param), f"fan{param}"
            elif family == "coarse":
                net, name = build_coarse_bound_network(param), f"coarse{param}"
            else:
                s = REFERENCE_SEED if family == "reference" else sub_seed(seed, index)
                net = random_network(param, s)
                name = f"{family}{''.join(map(str, param))}-{s}"
            path = _save(net, out, name)
            ops.append({"id": name, "kind": "analyze", "argv": ["analyze", path],
                        "net": path, "family": family, "param": param})
            index += 1
    return ops


def montecarlo_ops(seed: int) -> list[dict]:
    ops = []
    for index, (kind, arch, trials) in enumerate(MONTECARLO_MIX):
        s = str(sub_seed(seed, index))
        if kind == "plmorse":
            what = ["--plmorse", str(arch[0]), str(arch[1])]
        else:
            what = ["--flat", ",".join(map(str, arch))]
        ops.append({"id": f"{kind}-{'-'.join(map(str, arch))}", "kind": "montecarlo",
                    "argv": ["montecarlo", *what, "--trials", str(trials), "--seed", s],
                    "mc_kind": kind, "arch": list(arch), "trials": trials})
    return ops


# ---------------------------------------------------------------------------
# oracle levels, found by hand on planar one-hidden-layer networks


def line_vertices(layers) -> list[tuple[tuple[int, int], tuple[Fraction, Fraction]]]:
    """((i, j), point) for every pair of hidden-unit lines that meet."""
    rows, bias = layers[0]
    out = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            (a, b), (c, d) = rows[i], rows[j]
            det = a * d - b * c
            if det == 0:
                continue
            e, f = -bias[i], -bias[j]
            out.append(((i, j), ((e * d - b * f) / det, (a * f - e * c) / det)))
    return out


def level_crossings(layers, c) -> list[tuple[Fraction, Fraction]]:
    """Points where F = c on the 1-cells of a planar one-hidden-layer net.

    F restricted to one unit's line is linear between the points where the
    other lines cross it, so each piece (segment or ray) meets F = c at most
    once unless F is constant on it.
    """
    rows, bias = layers[0]
    verts = line_vertices(layers)
    out = []
    for i, (w, b) in enumerate(zip(rows, bias)):
        u = (-w[1], w[0])
        norm = w[0] * w[0] + w[1] * w[1]
        p0 = (-b * w[0] / norm, -b * w[1] / norm)
        at = lambda t: (p0[0] + t * u[0], p0[1] + t * u[1])
        ts = sorted({
            ((p[0] - p0[0]) * u[0] + (p[1] - p0[1]) * u[1]) / norm
            for pair, p in verts if i in pair
        })
        ends = [ts[0] - 1] + ts + [ts[-1] + 1] if ts else [Fraction(0), Fraction(1)]
        for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
            flo, fhi = checks.forward(layers, at(lo)), checks.forward(layers, at(hi))
            if flo == fhi:
                continue
            t = lo + (c - flo) / (fhi - flo) * (hi - lo)
            first, last = k == 0, k == len(ends) - 2
            if (first or lo <= t) and (last or t <= hi):
                out.append(at(t))
    return out


def planar_levels(layers) -> set[Fraction]:
    """Every value a flat cell can take: vertex values and the all-off level."""
    levels = {checks.forward(layers, p) for _, p in line_vertices(layers)}
    levels.add(layers[-1][1][0])
    return levels


def lipschitz_sq_bound(layers) -> Fraction:
    """Max |gradient|^2 over every subset of active units (a superset of regions)."""
    rows, _ = layers[0]
    out_w = layers[1][0][0]
    best = Fraction(0)
    for mask in range(1 << len(rows)):
        g = [sum((out_w[i] * rows[i][k] for i in range(len(rows)) if mask >> i & 1), Fraction(0))
             for k in range(2)]
        best = max(best, g[0] * g[0] + g[1] * g[1])
    return best


def oracle_levels(layers, box: int, resolution: Fraction, pixels: int) -> list[Fraction]:
    """Levels the grid oracle resolves, in order of preference.

    Candidates sit a third and two thirds of the way into each gap between
    flat levels, and 2/3 and 4/3 beyond the extremes.  A candidate is kept
    when every feature of the sub- and superlevel set is at least ``pixels``
    grid steps wide (distance to the nearest flat level over the Lipschitz
    bound), when every vertex of the compact models (arrangement vertices
    and level crossings) lies two units inside the box, and when its
    denominator has a factor 3, so that no value on the dyadic grid can
    equal it and the margin is positive.
    """
    reach = box - 2
    verts = [p for _, p in line_vertices(layers)]
    if any(abs(x) > reach for p in verts for x in p):
        return []
    levels = sorted(planar_levels(layers))
    cands = [levels[0] - Fraction(k, 3) for k in (2, 4)]
    cands += [lo + (hi - lo) * k / 3 for lo, hi in zip(levels, levels[1:]) for k in (1, 2)]
    cands += [levels[-1] + Fraction(k, 3) for k in (2, 4)]
    lsq = lipschitz_sq_bound(layers)
    out = []
    for c in cands:
        if c.denominator % 3:
            continue
        d = min(abs(c - t) for t in levels)
        if d * d < (pixels * resolution) ** 2 * lsq:
            continue
        if all(abs(x) <= reach for p in level_crossings(layers, c) for x in p):
            out.append(c)
    return out


def _resolution(s: int | None) -> Fraction:
    return ORACLE_FAN_RESOLUTION if s is None else ORACLE_RESOLUTION


def _oracle_levels(net, resolution: Fraction) -> list[Fraction]:
    layers = checks.parse_network(network_to_json(net))
    return oracle_levels(layers, ORACLE_BOX, resolution, ORACLE_PIXELS)


ORACLE_PICKS = "oracle-picks.json"


def oracle_picks(seed: int, out: Path) -> list[list]:
    """``[name, random seed or None, levels]`` of each oracle net.

    The search draws nets and solves for levels with exact arithmetic; it is
    the benchmark's own work, not the user's, so run.py calls this once in
    its own process before set-up is timed.  Set-up then reads the picks
    back from ``out``.
    """
    path = out / ORACLE_PICKS
    if path.exists():
        return json.loads(path.read_text())
    picks = [["fan1", None, _oracle_levels(build_fan_network(1), _resolution(None))[:1]]]
    if not picks[0][2]:
        raise SystemExit("fan1: no level the grid oracle resolves")
    offset = 0
    while len(picks) < 1 + ORACLE_RANDOM_NETS:
        if offset == ORACLE_DRAWS:
            raise SystemExit(f"only {len(picks) - 1} oracle nets in {ORACLE_DRAWS} draws")
        s = sub_seed(seed, offset)
        offset += 1
        levels = _oracle_levels(random_network((2, 3, 1), s), _resolution(s))[:1]
        if levels:
            picks.append([f"random231-{s}", s, levels])
    picks = [[name, s, [str(c) for c in levels]] for name, s, levels in picks]
    out.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(picks) + "\n")
    return picks


def oracle_ops(seed: int, out: Path) -> list[dict]:
    ops = []
    for name, s, levels in oracle_picks(seed, out):
        net = build_fan_network(1) if s is None else random_network((2, 3, 1), s)
        path = _save(net, out, name)
        for k, c in enumerate(levels):
            for mode in ("sublevel", "superlevel"):
                ops.append({"id": f"{name}-{mode}{k}", "kind": "oracle", "net": path,
                            "mode": mode, "threshold": c,
                            "argv": ["oracle", path, "--mode", mode, f"--threshold={c}",
                                     "--resolution", str(_resolution(s)),
                                     "--box", str(ORACLE_BOX)]})
    return ops


WORKLOADS = ("analyze-shallow", "analyze-deep", "montecarlo", "oracle")


def make_inputs(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    if workload in ANALYZE_CORPUS:
        ops = analyze_ops(workload, seed, out)
    elif workload == "montecarlo":
        ops = montecarlo_ops(seed)
    elif workload == "oracle":
        ops = oracle_ops(seed, out)
    else:
        raise SystemExit(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    import plmorse.cli  # noqa: F401  (every call goes through it: load it as a first call would)

    make_inputs(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
