"""Monte Carlo experiments for the PL-Morse and flat-cell probabilities.

Each trial is a pure function of (seed, index), so runs are deterministic and
embarrassingly parallel; PLMORSE_THREADS caps the worker pool (default 1,
meaning in-process serial execution).  A trial's exact tests run on integers:
the all-minus region through the integer feasibility test, the flat cell
through the network's integer layers at the sampled point.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .geometry import in_span
from .network import (Network, _sampler, fraction_to_json, has_inactive_region,
                      integer_layers, random_network)

_SEED_STRIDE = 1_000_003


def plmorse_probability_formula(n: int, n1: int) -> Fraction:
    """Probability that a random single-hidden-layer net R^n -> R is PL Morse."""
    if n < 1 or n1 < 1:
        raise ValueError("widths must be at least 1")
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
    return max(1, n)


def _run_trials(worker, args_list) -> int:
    threads = _threads()
    if threads == 1:
        return sum(1 for args in args_list if worker(args))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        chunk = max(1, len(args_list) // (threads * 8))
        return sum(1 for hit in pool.map(worker, args_list, chunksize=chunk) if hit)


def _plmorse_trial(args) -> bool:
    n, n1, seed, scheme, index = args
    net = random_network((n, n1, 1), trial_seed(seed, index), scheme=scheme)
    return not has_inactive_region(net.layers[0])


def montecarlo_plmorse(
    n: int, n1: int, trials: int, seed: int, scheme: str = "gaussian"
) -> TrialSummary:
    """Empirical rate of the all-minus region being empty over random nets."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    hits = _run_trials(_plmorse_trial, [(n, n1, seed, scheme, i) for i in range(trials)])
    return TrialSummary(
        kind="plmorse",
        architecture=(n, n1, 1),
        trials=trials,
        seed=seed,
        scheme=scheme,
        successes=hits,
        closed_form=plmorse_probability_formula(n, n1),
        bound=None,
    )


def random_point(n: int, seed: int, scheme: str = "gaussian") -> tuple[Fraction, ...]:
    """Point drawn from the same symmetric coordinate law as the weights."""
    draw = _sampler(scheme)
    rng = random.Random(f"plmorse|point|{scheme}|{n}|{seed}")
    return tuple(draw(rng) for _ in range(n))


def minimal_cell_is_flat(net: Network, x) -> bool:
    """Whether F is constant on the smallest cell whose closure contains x.

    The cell's affine hull is cut out by the hyperplanes of the hidden units
    whose pre-activation vanishes at x; the cell is flat exactly when the
    gradient of the masked affine composition lies in their span.  The walk
    runs in integers on X = q*x (``integer_layers``): every pre-activation,
    normal and gradient is a positive multiple of the rational one, so no
    sign and no span changes.
    """
    n = net.n0
    x = [Fraction(v) for v in x]
    q = math.lcm(*(v.denominator for v in x))
    layers, _ = integer_layers(net, q)
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    values = [v.numerator * (q // v.denominator) for v in x]
    normals: list[tuple[int, ...]] = []
    for weights, bias in layers[:-1]:
        cols = list(zip(*rows))
        rows, new_values = [], []
        for wrow, b in zip(weights, bias):
            coeffs = tuple(sum(map(mul, wrow, col)) for col in cols)
            val = sum(map(mul, wrow, values)) + b
            if val == 0:
                normals.append(coeffs)
            rows.append(coeffs if val > 0 else (0,) * n)
            new_values.append(max(val, 0))
        values = new_values
    gradient = tuple(sum(map(mul, layers[-1][0][0], col)) for col in zip(*rows))
    return in_span(gradient, normals)


def _flat_trial(args) -> bool:
    arch, seed, scheme, index = args
    s = trial_seed(seed, index)
    net = random_network(arch, s, scheme=scheme)
    x = random_point(arch[0], s, scheme=scheme)
    return minimal_cell_is_flat(net, x)


def montecarlo_flat_cell(
    arch, trials: int, seed: int, scheme: str = "gaussian"
) -> TrialSummary:
    """Empirical rate of landing in a flat cell, against the 2^-n_m bound."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    arch = tuple(int(a) for a in arch)
    if len(arch) < 3:
        raise ValueError("architecture needs at least one hidden layer")
    hits = _run_trials(_flat_trial, [(arch, seed, scheme, i) for i in range(trials)])
    n_m = arch[-2]
    return TrialSummary(
        kind="flat_cell",
        architecture=arch,
        trials=trials,
        seed=seed,
        scheme=scheme,
        successes=hits,
        closed_form=None,
        bound=Fraction(1, 2**n_m),
    )


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


_FRACTION_OR_NULL = {
    "type": ["string", "null"],
    "pattern": "^-?[0-9]+/[0-9]+$",
}

TRIAL_SCHEMA = {
    "type": "object",
    "required": [
        "kind",
        "architecture",
        "trials",
        "seed",
        "scheme",
        "successes",
        "empirical_rate",
        "closed_form",
        "bound",
        "confidence",
    ],
    "properties": {
        "kind": {"enum": ["plmorse", "flat_cell"]},
        "architecture": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 2,
        },
        "trials": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "scheme": {"enum": ["gaussian", "uniform"]},
        "successes": {"type": "integer", "minimum": 0},
        "empirical_rate": {"type": "string", "pattern": "^-?[0-9]+/[0-9]+$"},
        "closed_form": _FRACTION_OR_NULL,
        "bound": _FRACTION_OR_NULL,
        "confidence": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    },
}
