"""Small helpers that only the tests call.

``ANALYZE_CORPUS_NETS`` are the benchmark's analyze corpora at seed 13;
``generic_line_counts`` is the closed-form census that
``plmorse.complexes.census`` is checked against; ``level_model`` builds the
compact model of a level set the way ``plmorse.compact`` builds sublevel and
superlevel models; ``concurrent_rational_lines`` is a net whose three hidden
lines meet at a point with non-integer coordinates; the rest read a
``plmorse.network.Network`` pointwise or negate it.
"""

from fractions import Fraction
from math import comb

from plmorse.compact import CompactModel, _model, refine_at_levels
from plmorse.complexes import CanonicalComplex
from plmorse.network import (
    NONE,
    AffineLayer,
    Network,
    build_coarse_bound_network,
    build_fan_network,
    random_network,
)


# The networks of both analyze benchmark corpora at seed 13 (perfbench/corpus.py):
# fan and coarse-bound nets, the seed-3 references, and random nets.
ANALYZE_CORPUS_NETS = {
    **{f"fan{k}": (lambda k=k: build_fan_network(k)) for k in (1, 2)},
    **{f"coarse{m}": (lambda m=m: build_coarse_bound_network(m)) for m in (4, 5)},
    **{
        f"{arch} seed {seed}": (lambda arch=arch, seed=seed: random_network(arch, seed))
        for arch, seeds in [
            ((2, 3, 1), (130004, 130005, 130006)),
            ((2, 4, 1), (130007,)),
            ((2, 3, 2, 1), (3,)),
            ((3, 4, 1), (3,)),
            ((2, 2, 2, 1), (130002, 130003)),
            ((3, 3, 1), (130004, 130005, 130006)),
        ]
        for seed in seeds
    },
}


def generic_line_counts(m: int) -> dict[str, int]:
    """Closed-form cell census for m generic lines in the plane."""
    return {
        "two_cells": 1 + m + comb(m, 2),
        "bounded_two_cells": comb(m - 1, 2),
        "unbounded_two_cells": 2 * m,
        "one_cells": m * m,
        "unbounded_one_cells": 2 * m,
        "zero_cells": comb(m, 2),
    }


def concurrent_rational_lines() -> Network:
    """Hidden lines x = 1/2, y = 1/3 and x + y = 5/6, all through (1/2, 1/3)."""
    return Network((
        AffineLayer.make([[1, 0], [0, 1], [1, 1]],
                         [Fraction(-1, 2), Fraction(-1, 3), Fraction(-5, 6)], "relu"),
        AffineLayer.make([[1, 1, 1]], [0], "none"),
    ))


def level_model(cx: CanonicalComplex, c) -> CompactModel:
    """Compact model of F = c."""
    rcx = refine_at_levels(cx, [c])
    return _model(rcx, rcx.keys_in(Fraction(c), Fraction(c)))[0]


def total_hidden(net: Network) -> int:
    return sum(net.architecture[1:-1])


def activation_pattern(net: Network, point) -> tuple[int, ...]:
    """Ternary sign (+1/0/-1) of every hidden pre-activation at the point."""
    _, pre = net.evaluate(point)
    return tuple((z > 0) - (z < 0) for z in pre)


def negate(net: Network) -> Network:
    """Network computing -F (output layer negated)."""
    last = net.layers[-1]
    flipped = AffineLayer(
        tuple(tuple(-w for w in row) for row in last.weights),
        tuple(-b for b in last.bias),
        NONE,
    )
    return Network(net.layers[:-1] + (flipped,))
