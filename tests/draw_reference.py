"""Seeded dyadic draws over ``Fraction``, the reference for the integer draws
in ``plmorse.network``.

Each coordinate is the float the scheme's law gives, snapped to
``Fraction(round(x * 2**53), 2**53)``, taken from the same seeded stream and
in the same order as ``random_network`` and ``random_point`` take them.  The
program keeps the integer numerators and divides by 2**53 only when it
builds a ``Network`` or a point; the two routes must give equal values.
"""

import random
from fractions import Fraction

from plmorse.network import AffineLayer, Network

SNAP = 1 << 53


def snap(x: float) -> Fraction:
    return Fraction(round(x * SNAP), SNAP)


def _draw(scheme: str):
    if scheme == "gaussian":
        return lambda rng: snap(rng.gauss(0.0, 1.0))
    if scheme == "uniform":
        return lambda rng: snap(rng.uniform(-1.0, 1.0))
    raise ValueError(f"unknown scheme {scheme!r}")


def snap_network(arch, seed: int, scheme: str = "gaussian") -> Network:
    draw = _draw(scheme)
    rng = random.Random(f"plmorse|{scheme}|{','.join(map(str, arch))}|{seed}")
    layers = []
    for i in range(len(arch) - 1):
        rows = tuple(tuple(draw(rng) for _ in range(arch[i])) for _ in range(arch[i + 1]))
        bias = tuple(draw(rng) for _ in range(arch[i + 1]))
        layers.append(AffineLayer(rows, bias, "none" if i == len(arch) - 2 else "relu"))
    return Network(tuple(layers))


def snap_point(n: int, seed: int, scheme: str = "gaussian") -> tuple[Fraction, ...]:
    draw = _draw(scheme)
    rng = random.Random(f"plmorse|point|{scheme}|{n}|{seed}")
    return tuple(draw(rng) for _ in range(n))
