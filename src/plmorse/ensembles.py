"""Monte Carlo experiments for the PL-Morse and flat-cell probabilities.

Each trial is a pure function of (seed, index), so runs are deterministic and
embarrassingly parallel; PLMORSE_THREADS caps the worker pool (default 1,
meaning in-process serial execution), which never exceeds the CPU count, as
the pool starts all its processes at once.  Trials run on integer draws: each
takes its weights and point as int numerators over 2**53 from the same seeded
streams as ``random_network`` and ``random_point`` (random.gauss's Box-Muller
pairs, computed inline) and builds no Fraction.  The PL-Morse trial draws only
the first layer and tests its all-minus region for integer feasibility; the
flat cell goes through ``minimal_cell_is_flat``'s integer layer walk.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .geometry import echelon, spans, strict_feasible
from .network import (_SNAP, FRACTION_SCHEMA, Network, _sampler, fraction_to_json,
                      inactive_walls, integer_layers, object_schema, random_int_layers)

_SEED_STRIDE = 1_000_003


def plmorse_probability_formula(n: int, n1: int) -> Fraction:
    """Probability that a random single-hidden-layer net R^n -> R is PL Morse."""
    if n < 1 or n1 < 1:
        raise ValueError("widths must be positive")
    if n1 <= n:
        return Fraction(0)
    total = sum(math.comb(n1, k) for k in range(n + 1, n1 + 1))
    return Fraction(total, 2**n1)


@dataclass(frozen=True)
class TrialSummary:
    kind: str
    architecture: tuple[int, ...]
    trials: int
    seed: int
    scheme: str
    successes: int
    closed_form: Fraction | None
    bound: Fraction | None

    @property
    def empirical_rate(self) -> Fraction:
        return Fraction(self.successes, self.trials)

    @property
    def confidence(self) -> tuple[float, float]:
        """Two-sided four-sigma binomial interval around the empirical rate."""
        p = float(self.empirical_rate)
        half = 4.0 * math.sqrt(p * (1.0 - p) / self.trials)
        return (max(0.0, p - half), min(1.0, p + half))


def trial_seed(seed: int, index: int) -> int:
    return seed * _SEED_STRIDE + index


def _threads() -> int:
    raw = os.environ.get("PLMORSE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"PLMORSE_THREADS must be an integer, got {raw!r}") from exc
    return max(1, min(n, os.cpu_count() or 1))


def _run_trials(worker, args_list) -> int:
    threads = _threads()
    if threads == 1:
        return sum(1 for args in args_list if worker(args))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        chunk = max(1, len(args_list) // (threads * 8))
        return sum(1 for hit in pool.map(worker, args_list, chunksize=chunk) if hit)


def _experiment(kind, arch, worker, trials, seed, scheme, closed_form, bound) -> TrialSummary:
    """Run worker on (arch, seed, scheme, index) for each trial index."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    hits = _run_trials(worker, [(arch, seed, scheme, i) for i in range(trials)])
    return TrialSummary(kind, arch, trials, seed, scheme, hits, closed_form, bound)


def _plmorse_trial(args) -> bool:
    arch, seed, scheme, index = args
    rows, bias = next(random_int_layers(arch, trial_seed(seed, index), scheme))
    return not strict_feasible(arch[0], inactive_walls(rows, bias))


def montecarlo_plmorse(
    n: int, n1: int, trials: int, seed: int, scheme: str = "gaussian"
) -> TrialSummary:
    """Empirical rate of the all-minus region being empty over random nets."""
    closed_form = plmorse_probability_formula(n, n1)
    return _experiment("plmorse", (n, n1, 1), _plmorse_trial, trials, seed, scheme,
                       closed_form, None)


def _point_ints(n: int, seed: int, scheme: str) -> tuple[int, ...]:
    return _sampler(scheme, f"plmorse|point|{scheme}|{n}|{seed}")(n)


def random_point(n: int, seed: int, scheme: str = "gaussian") -> tuple[Fraction, ...]:
    """Point drawn from the same symmetric coordinate law as the weights."""
    return tuple(Fraction(k, _SNAP) for k in _point_ints(n, seed, scheme))


def minimal_cell_is_flat(net: Network, x) -> bool:
    """Whether F is constant on the smallest cell whose closure contains x.

    The cell's affine hull is cut out by the hyperplanes of the hidden units
    whose pre-activation vanishes at x; the cell is flat exactly when the
    gradient of the masked affine composition lies in their span.  The walk
    runs in integers on X = q*x (``integer_layers``): every pre-activation,
    normal and gradient is a positive multiple of the rational one, so no
    sign and no span changes.
    """
    x = [Fraction(v) for v in x]
    q = math.lcm(*(v.denominator for v in x))
    layers, _ = integer_layers(net, q)
    return _flat_walk(layers, [v.numerator * (q // v.denominator) for v in x])


def _flat_walk(layers, values) -> bool:
    """``minimal_cell_is_flat`` on integer layers (A, B) and the integer
    point they take, as ``integer_layers`` scales them."""
    n = len(values)
    cols = None  # the columns of the walk's Jacobian so far; None is the identity
    normals: list[tuple[int, ...]] = []
    for weights, bias in layers[:-1]:
        rows, new_values = [], []
        for wrow, b in zip(weights, bias):
            coeffs = wrow if cols is None else tuple(sum(map(mul, wrow, col)) for col in cols)
            val = sum(map(mul, wrow, values)) + b
            if val == 0:
                normals.append(coeffs)
            rows.append(coeffs if val > 0 else (0,) * n)
            new_values.append(max(val, 0))
        values, cols = new_values, list(zip(*rows))
    out = layers[-1][0][0]
    gradient = out if cols is None else tuple(sum(map(mul, out, col)) for col in cols)
    return spans(echelon(normals), gradient)


def _flat_trial(args) -> bool:
    arch, seed, scheme, index = args
    s = trial_seed(seed, index)
    # integer_layers at q = 2**53 with every layer scaled by e = 2**53: the
    # point's numerators are X, and layer i's bias carries sigma = 2**(53(i+1)).
    layers = [(rows, tuple(b * _SNAP ** (i + 1) for b in bias))
              for i, (rows, bias) in enumerate(random_int_layers(arch, s, scheme))]
    return _flat_walk(layers, _point_ints(arch[0], s, scheme))


def montecarlo_flat_cell(
    arch, trials: int, seed: int, scheme: str = "gaussian"
) -> TrialSummary:
    """Empirical rate of landing in a flat cell, against the 2^-n_m bound."""
    arch = tuple(int(a) for a in arch)
    if len(arch) < 3:
        raise ValueError("architecture needs at least one hidden layer")
    return _experiment("flat_cell", arch, _flat_trial, trials, seed, scheme,
                       None, Fraction(1, 2) ** arch[-2])


def summary_to_json(summary: TrialSummary) -> dict:
    lo, hi = summary.confidence
    cf, bound = summary.closed_form, summary.bound
    return {
        "kind": summary.kind,
        "architecture": list(summary.architecture),
        "trials": summary.trials,
        "seed": summary.seed,
        "scheme": summary.scheme,
        "successes": summary.successes,
        "empirical_rate": fraction_to_json(summary.empirical_rate),
        "closed_form": None if cf is None else fraction_to_json(cf),
        "bound": None if bound is None else fraction_to_json(bound),
        "confidence": [lo, hi],
    }


_FRACTION_OR_NULL = {**FRACTION_SCHEMA, "type": ["string", "null"]}
_POSITIVE = {"type": "integer", "minimum": 1}

TRIAL_SCHEMA = object_schema(
    {
        "kind": {"enum": ["plmorse", "flat_cell"]},
        "architecture": {"type": "array", "items": _POSITIVE, "minItems": 2},
        "trials": _POSITIVE,
        "seed": {"type": "integer"},
        "scheme": {"enum": ["gaussian", "uniform"]},
        "successes": {"type": "integer", "minimum": 0},
        "empirical_rate": FRACTION_SCHEMA,
        "closed_form": _FRACTION_OR_NULL,
        "bound": _FRACTION_OR_NULL,
        "confidence": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
    }
)
