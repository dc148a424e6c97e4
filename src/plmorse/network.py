"""ReLU network model: exact evaluation, serialization, and constructions.

A network is a chain of affine layers with ReLU on every hidden layer and no
activation on the final (scalar) layer.  All parameters are Fractions, so
evaluation, activation signs, and every downstream geometric predicate are
exact.  Includes two explicit depth-2 families on the plane built from lines
tangent to the unit circle, plus seeded random ensembles.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import cos, lcm, log, pi, sin, sqrt, tan, tau

from .geometry import Polyhedron, Vec, dot, strict_feasible, vec

RELU = "relu"
NONE = "none"


class NetworkFormatError(ValueError):
    """Problem with network data (file or construction)."""


class NetworkShapeError(NetworkFormatError):
    """Layer dimensions do not line up."""


class RationalParseError(NetworkFormatError):
    """A scalar could not be read as an exact rational."""


@dataclass(frozen=True)
class AffineLayer:
    weights: tuple[tuple[Fraction, ...], ...]
    bias: tuple[Fraction, ...]
    activation: str

    @classmethod
    def make(cls, weights, bias, activation: str) -> "AffineLayer":
        return cls(
            tuple(tuple(Fraction(w) for w in row) for row in weights),
            tuple(Fraction(b) for b in bias),
            activation,
        )

    @property
    def out_dim(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return len(self.weights[0]) if self.weights else 0

    def preactivation(self, x) -> tuple[Fraction, ...]:
        return tuple(dot(row, x) + b for row, b in zip(self.weights, self.bias))


@dataclass(frozen=True)
class Network:
    layers: tuple[AffineLayer, ...]

    def __post_init__(self):
        if not self.layers:
            raise NetworkShapeError("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            if not layer.weights:
                raise NetworkShapeError(f"layer {i} has no units")
            if layer.out_dim != len(layer.bias):
                raise NetworkShapeError(
                    f"layer {i}: {layer.out_dim} weight rows but {len(layer.bias)} biases"
                )
            for r, row in enumerate(layer.weights):
                if len(row) != layer.in_dim:
                    raise NetworkShapeError(
                        f"layer {i} row {r}: expected length {layer.in_dim}, got {len(row)}"
                    )
            if i > 0 and layer.in_dim != self.layers[i - 1].out_dim:
                raise NetworkShapeError(
                    f"layer {i} takes {layer.in_dim} inputs but layer {i - 1} "
                    f"outputs {self.layers[i - 1].out_dim}"
                )
            want = NONE if i == len(self.layers) - 1 else RELU
            if layer.activation != want:
                raise NetworkFormatError(
                    f"layer {i}: activation must be {want!r}, got {layer.activation!r}"
                )
        if self.layers[-1].out_dim != 1:
            raise NetworkShapeError("final layer must have a single output")

    @property
    def architecture(self) -> tuple[int, ...]:
        return (self.layers[0].in_dim,) + tuple(l.out_dim for l in self.layers)

    @property
    def n0(self) -> int:
        return self.layers[0].in_dim

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(l.out_dim for l in self.layers[:-1])

    @property
    def depth(self) -> int:
        """Number of hidden layers."""
        return len(self.layers) - 1

    def evaluate(self, point) -> tuple[Fraction, tuple[Fraction, ...]]:
        """Exact output value and the flat tuple of hidden pre-activations."""
        x = vec(point)
        if len(x) != self.n0:
            raise NetworkShapeError(f"point has length {len(x)}, expected {self.n0}")
        pre: list[Fraction] = []
        for layer in self.layers[:-1]:
            z = layer.preactivation(x)
            pre.extend(z)
            x = tuple(max(zi, Fraction(0)) for zi in z)
        out = self.layers[-1].preactivation(x)
        return out[0], tuple(pre)


def integer_layers(net: Network, q: int = 1):
    """The network on inputs x = X/q as integer layers: F(X/q) = G(X)/sigma.

    Each layer (W, c) is scaled by e, the lcm of its denominators.  Because
    ReLU commutes with a positive scale, Y = sigma*x passes through it as
    max(A*Y + B, 0) with A = e*W and B = sigma*e*c, after which sigma becomes
    sigma*e; the last layer, without ReLU, gives G.  Returns the integer
    (A, B) pairs and the final sigma.
    """
    sigma = q
    out = []
    for layer in net.layers:
        e = lcm(*(x.denominator for row in layer.weights for x in row),
                *(c.denominator for c in layer.bias))
        a = tuple(tuple(w.numerator * (e // w.denominator) for w in row)
                  for row in layer.weights)
        b = tuple(c.numerator * (e // c.denominator) * sigma for c in layer.bias)
        out.append((a, b))
        sigma *= e
    return tuple(out), sigma


# ---------------------------------------------------------------------------
# serialization


def _fraction_from_json(x, where: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise RationalParseError(f"{where}: zero denominator in {x!r}") from None
        except ValueError:
            raise RationalParseError(f"{where}: cannot parse {x!r} as a rational") from None
    raise RationalParseError(f"{where}: expected number or 'p/q' string, got {type(x).__name__}")


def fraction_to_json(x: Fraction) -> str:
    """Exact 'p/q' text of a rational, as network files and reports store it."""
    return f"{x.numerator}/{x.denominator}"


# JSON schema of fraction_to_json's text, and of an object that holds every
# one of the given properties; the report and trial schemas are built from them.
FRACTION_SCHEMA = {"type": "string", "pattern": "^-?[0-9]+/[0-9]+$"}


def object_schema(properties: dict, **more) -> dict:
    return {"type": "object", "required": list(properties), "properties": properties, **more}


def _reject_constant(text: str):
    raise RationalParseError(f"non-finite number {text!r} is not a rational")


def _array(x, where: str) -> list:
    if not isinstance(x, list):
        raise NetworkFormatError(f"{where}: expected an array, got {type(x).__name__}")
    return x


def load_network(path) -> Network:
    """Read a network from JSON, parsing every scalar exactly.

    JSON numbers are read as the exact rational their decimal literal denotes
    (0.1 means 1/10); strings use 'p/q' form.
    """
    with open(path) as fh:
        data = json.load(fh, parse_float=Fraction, parse_constant=_reject_constant)
    if not isinstance(data, dict) or "layers" not in data:
        raise NetworkFormatError("top level must be an object with a 'layers' key")
    layers = []
    for i, spec in enumerate(_array(data["layers"], "layers")):
        where = f"layer {i}"
        if not isinstance(spec, dict):
            raise NetworkFormatError(f"{where}: expected an object")
        try:
            raw_w, raw_b, act = spec["weights"], spec["bias"], spec["activation"]
        except KeyError as missing:
            raise NetworkFormatError(f"{where}: missing key {missing}") from None
        if act not in (RELU, NONE):
            raise NetworkFormatError(f"{where}: unknown activation {act!r}")
        weights = []
        for r, row in enumerate(_array(raw_w, f"{where} weights")):
            at = f"{where} row {r}"
            weights.append(tuple(_fraction_from_json(w, at) for w in _array(row, at)))
        at = f"{where} bias"
        bias = tuple(_fraction_from_json(b, at) for b in _array(raw_b, at))
        layers.append(AffineLayer(tuple(weights), bias, act))
    return Network(tuple(layers))


def network_to_json(net: Network) -> dict:
    return {
        "layers": [
            {
                "weights": [[fraction_to_json(w) for w in row] for row in layer.weights],
                "bias": [fraction_to_json(b) for b in layer.bias],
                "activation": layer.activation,
            }
            for layer in net.layers
        ]
    }


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_json(net), fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# explicit families: tangent lines to the unit circle


def _circle_point(theta: float, precision: int = 1 << 20) -> Vec:
    """Rational point on the unit circle near angle theta (measured from north,
    clockwise), via the tangent half-angle parametrization."""
    # (sin, cos) = (2t/(1+t^2), (1-t^2)/(1+t^2)) with t = tan(theta/2)
    half = theta / 2.0
    if abs(cos(half)) < 1e-9:
        return vec((0, -1))
    t = Fraction(round(tan(half) * precision), precision)
    d = 1 + t * t
    return (2 * t / d, (1 - t * t) / d)


def _cross(p: Vec, q: Vec) -> Fraction:
    return p[0] * q[1] - p[1] * q[0]


def _check_cyclic_tangency_points(points: list[Vec], wraparound: bool = True):
    for p in points:
        if p[0] * p[0] + p[1] * p[1] != 1:
            raise ValueError(f"tangency point {p} is off the unit circle")
    last = len(points) if wraparound else len(points) - 1
    for i in range(last):
        q = points[(i + 1) % len(points)]
        if not _cross(points[i], q) < 0:
            raise ValueError(f"tangency points {points[i]} and {q} are out of clockwise order")
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if not dot(p, q) < 1:
                raise ValueError(f"coincident tangency points {p} and {q}")


def build_fan_network(n: int) -> Network:
    """Depth-2 network on the plane whose hidden layer is 2n+2 lines tangent
    to the unit circle at equally spaced points, with alternating output
    weights.  The inscribed (2n+2)-gon is a flat region at level 0."""
    if n < 1:
        raise ValueError("need n >= 1")
    count = 2 * n + 2
    points = [_circle_point(pi * j / (n + 1)) for j in range(1, count + 1)]
    _check_cyclic_tangency_points(points)
    hidden = AffineLayer(
        tuple((p[0], p[1]) for p in points),
        tuple(Fraction(-1) for _ in points),
        RELU,
    )
    out = AffineLayer(
        (tuple(Fraction((-1) ** j) for j in range(1, count + 1)),),
        (Fraction(0),),
        NONE,
    )
    return Network((hidden, out))


def build_coarse_bound_network(m: int) -> Network:
    """Depth-2 network on the plane from m tangent lines on the upper half of
    the circle, with output weights -1, ±2, ..., ±1 chosen so sublevel sets
    below every threshold keep m-2 bounded loops' worth of relative cycles."""
    if m < 3:
        raise ValueError("need m >= 3")
    points = [_circle_point(pi * i / (m + 1)) for i in range(1, m + 1)]
    _check_cyclic_tangency_points(points, wraparound=False)
    hidden = AffineLayer(
        tuple((-p[0], -p[1]) for p in points),
        tuple(Fraction(1) for _ in points),
        RELU,
    )
    w = [Fraction(0)] * m
    w[0] = Fraction(-1)
    for i in range(2, m):
        w[i - 1] = Fraction(2 * (-1) ** i)
    w[m - 1] = Fraction((-1) ** m)
    out = AffineLayer((tuple(w),), (Fraction(0),), NONE)
    return Network((hidden, out))


def inactive_walls(weights, bias) -> list:
    """The forms -(<w, x> + b) of a layer's units, positive where a unit is off."""
    return [(tuple(-w for w in row), -b) for row, b in zip(weights, bias)]


def has_inactive_region(layer: AffineLayer) -> bool:
    """Whether some open region has every unit of the layer strictly inactive."""
    return strict_feasible(layer.in_dim, inactive_walls(layer.weights, layer.bias))


def prescribe_edge_orientations(layer1: AffineLayer, signs) -> tuple[Fraction, ...]:
    """Output-weight vector steering the flow across each wall of the flat cell.

    layer1 must have a full-dimensional region where every neuron is inactive;
    the returned vector s puts slope signs[i] on neuron i's wall, so crossing
    wall i out of the flat cell raises the output iff signs[i] = +1.  Neurons
    whose hyperplane does not support a facet of the region get weight 0.
    """
    signs = tuple(int(s) for s in signs)
    if len(signs) != layer1.out_dim:
        raise ValueError(f"need {layer1.out_dim} signs, got {len(signs)}")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    n = layer1.in_dim
    walls = inactive_walls(layer1.weights, layer1.bias)
    region = Polyhedron(n, ges=walls)
    if region.dim != n:
        raise ValueError("inactive region of layer is empty or lower-dimensional")
    out = []
    for wall, s in zip(walls, signs):
        facet = Polyhedron(n, eqs=[wall], ges=walls)
        out.append(Fraction(s) if facet.dim == n - 1 else Fraction(0))
    return tuple(out)


# ---------------------------------------------------------------------------
# random ensembles

_SNAP = 1 << 53


def _sampler(scheme: str, key: str):
    """count -> the next count coordinates of the stream seeded by key, as
    numerators over 2**53: ``random.Random(key)``'s ``gauss(0.0, 1.0)`` or
    ``uniform(-1.0, 1.0)``, computed here as those methods compute them."""
    if scheme not in ("gaussian", "uniform"):
        raise ValueError(f"unknown scheme {scheme!r}")
    r = random.Random(key).random
    stream = _box_muller(r) if scheme == "gaussian" else (
        round((-1.0 + 2.0 * u) * _SNAP) for u in iter(r, None))  # r() never returns None
    return lambda k: tuple(islice(stream, k))


def _box_muller(r):
    """gauss's Box-Muller pairs from two ``random()`` calls, cosine value first."""
    while True:
        x2pi = r() * tau
        g2rad = sqrt(-2.0 * log(1.0 - r()))
        yield round(cos(x2pi) * g2rad * _SNAP)
        yield round(sin(x2pi) * g2rad * _SNAP)


def random_int_layers(arch, seed: int, scheme: str = "gaussian"):
    """Each layer's (rows, bias) of ``random_network`` as int numerators over
    2**53, drawn lazily, in order, from the same seeded stream."""
    arch = tuple(int(a) for a in arch)
    if len(arch) < 2:
        raise ValueError("architecture needs at least input and output widths")
    if any(a < 1 for a in arch):
        raise ValueError("widths must be positive")
    if arch[-1] != 1:
        raise ValueError("output width must be 1")
    draw = _sampler(scheme, f"plmorse|{scheme}|{','.join(map(str, arch))}|{seed}")
    return ((tuple(draw(a) for _ in range(b)), draw(b)) for a, b in zip(arch, arch[1:]))


def random_network(arch, seed: int, scheme: str = "gaussian") -> Network:
    """Seeded random network with parameters snapped to dyadic rationals.

    arch lists all widths (n0, ..., nm, 1); scheme is 'gaussian' or 'uniform',
    both symmetric about zero.  Deterministic in (arch, seed, scheme).
    """
    layers = list(random_int_layers(arch, seed, scheme))
    last = len(layers) - 1
    return Network(tuple(
        AffineLayer(tuple(tuple(Fraction(w, _SNAP) for w in row) for row in rows),
                    tuple(Fraction(b, _SNAP) for b in bias), NONE if i == last else RELU)
        for i, (rows, bias) in enumerate(layers)))
