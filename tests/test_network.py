"""Network model: evaluation, serialization, explicit families, ensembles."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmorse import geometry, network
from plmorse.geometry import Polyhedron, canon_constraint, dot, feasible
from plmorse.network import (
    AffineLayer,
    Network,
    NetworkFormatError,
    NetworkShapeError,
    RationalParseError,
    _check_cyclic_tangency_points,
    _sampler,
    build_coarse_bound_network,
    build_fan_network,
    inactive_walls,
    integer_layers,
    load_network,
    prescribe_edge_orientations,
    random_int_layers,
    random_network,
    save_network,
)

from draw_reference import snap_network
from net_helpers import activation_pattern, negate, total_hidden

F = Fraction


def n1_network():
    """sigma(x) + sigma(y)"""
    return Network(
        (
            AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
            AffineLayer.make([[1, 1]], [0], "none"),
        )
    )


def test_evaluate_n1():
    net = n1_network()
    assert net.evaluate((1, 2))[0] == 3
    assert net.evaluate((-1, -2))[0] == 0
    assert net.evaluate((-1, 2))[0] == 2


def test_activation_pattern_n1():
    net = n1_network()
    assert activation_pattern(net, (1, 2)) == (1, 1)
    assert activation_pattern(net, (-1, -2)) == (-1, -1)
    assert activation_pattern(net, (0, 2)) == (0, 1)


def test_evaluate_dimension_mismatch():
    with pytest.raises(NetworkShapeError):
        n1_network().evaluate((1, 2, 3))


def test_architecture_props():
    net = random_network((2, 3, 1), seed=5)
    assert net.architecture == (2, 3, 1)
    assert net.n0 == 2
    assert net.architecture[1:-1] == (3,)
    assert total_hidden(net) == 3
    assert net.depth == 1


def test_bad_shapes_rejected():
    with pytest.raises(NetworkShapeError):
        Network(
            (
                AffineLayer.make([[1, 0], [0, 1]], [0, 0], "relu"),
                AffineLayer.make([[1, 1, 1]], [0], "none"),
            )
        )
    with pytest.raises(NetworkFormatError):
        Network((AffineLayer.make([[1, 0]], [0], "relu"),))
    with pytest.raises(NetworkShapeError, match="layer 0 has no units"):
        Network((AffineLayer.make([], [], "relu"), AffineLayer.make([[]], [0], "none")))


# -- explicit families ------------------------------------------------------


def test_fan1_exact_layers():
    net = build_fan_network(1)
    hidden, out = net.layers
    assert hidden.weights == ((F(1), F(0)), (F(0), F(-1)), (F(-1), F(0)), (F(0), F(1)))
    assert hidden.bias == (F(-1),) * 4
    assert out.weights == ((F(-1), F(1), F(-1), F(1)),)
    assert out.bias == (F(0),)
    assert net.evaluate((0, 0))[0] == 0


def test_fan_flat_on_central_polygon():
    for n in (1, 2, 3):
        net = build_fan_network(n)
        hidden = net.layers[0]
        cell = Polyhedron(
            2,
            ges=[
                (tuple(-w for w in row), -b)
                for row, b in zip(hidden.weights, hidden.bias)
            ],
        )
        verts = cell.vertices
        assert len(verts) == 2 * n + 2
        for v in verts:
            assert net.evaluate(v)[0] == 0
        centroid = tuple(sum(c) / len(verts) for c in zip(*verts))
        assert net.evaluate(centroid)[0] == 0


def test_fan_tangency_rows_on_unit_circle():
    net = build_fan_network(2)
    for row in net.layers[0].weights:
        assert row[0] ** 2 + row[1] ** 2 == 1
    assert net.layers[1].weights[0] == tuple(F((-1) ** j) for j in range(1, 7))


NORTH, EAST, SOUTH, WEST = (F(0), F(1)), (F(1), F(0)), (F(0), F(-1)), (F(-1), F(0))


@pytest.mark.parametrize(
    "points, match",
    [
        ([NORTH, (F(1, 2), F(1, 2))], "off the unit circle"),
        ([EAST, NORTH], "out of clockwise order"),
        ([NORTH, EAST, SOUTH, WEST, NORTH], "coincident"),
    ],
    ids=["off_circle", "counterclockwise", "coincident"],
)
def test_tangency_point_check_raises(points, match):
    _check_cyclic_tangency_points([NORTH, EAST, SOUTH, WEST])
    with pytest.raises(ValueError, match=match):
        _check_cyclic_tangency_points(points, wraparound=False)


def test_coarse_bound_output_weights():
    assert build_coarse_bound_network(3).layers[1].weights[0] == (F(-1), F(2), F(-1))
    assert build_coarse_bound_network(4).layers[1].weights[0] == (F(-1), F(2), F(-2), F(1))
    assert build_coarse_bound_network(5).layers[1].weights[0] == (
        F(-1),
        F(2),
        F(-2),
        F(2),
        F(-1),
    )


def test_coarse_bound_all_plus_near_origin():
    net = build_coarse_bound_network(4)
    assert activation_pattern(net, (0, 0)) == (1, 1, 1, 1)


# -- prescribed orientations ------------------------------------------------


def test_prescribe_all_outward_and_inward():
    layer = build_fan_network(1).layers[0]
    assert prescribe_edge_orientations(layer, (1, 1, 1, 1)) == (F(1),) * 4
    assert prescribe_edge_orientations(layer, (-1, -1, -1, -1)) == (F(-1),) * 4


def test_prescribe_alternating_reproduces_fan_output():
    net = build_fan_network(1)
    s = prescribe_edge_orientations(net.layers[0], (-1, 1, -1, 1))
    assert s == net.layers[1].weights[0]


def test_prescribe_zeroes_non_facet_neuron():
    # Third line x <= 3 lies strictly outside the square [-1,1]^2: no facet.
    layer = AffineLayer.make([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 0]], [-1, -1, -1, -1, -3], "relu")
    s = prescribe_edge_orientations(layer, (1, 1, 1, 1, 1))
    assert s == (F(1), F(1), F(1), F(1), F(0))


def test_prescribe_requires_full_dim_region():
    layer = AffineLayer.make([[1, 0], [-1, 0]], [0, 0], "relu")
    with pytest.raises(ValueError):
        prescribe_edge_orientations(layer, (1, 1))


def _reference_prescribe(layer, signs):
    """The orientation rule on closed polyhedra: the inactive region must
    have dimension n, and wall i keeps its sign iff the region's part on
    the wall has dimension n - 1."""
    n = layer.in_dim
    walls = inactive_walls(layer.weights, layer.bias)
    if Polyhedron(n, ges=walls).dim != n:
        raise ValueError("inactive region of layer is empty or lower-dimensional")
    return tuple(F(s) if Polyhedron(n, eqs=[w], ges=walls).dim == n - 1 else F(0)
                 for w, s in zip(walls, signs))


def _seeded_layer(rng):
    """A layer of m <= 6 units on n <= 3 inputs with small rational entries;
    some units are all zero, or repeat an earlier unit scaled by a positive
    or a negative number."""
    n, m = rng.randint(1, 3), rng.randint(1, 6)
    entry = lambda: F(rng.choice([-2, -1, 0, 0, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
    rows, bias = [], []
    for i in range(m):
        kind = rng.random()
        if kind < 0.1:
            row, b = [F(0)] * n, F(0)
        elif kind < 0.25 and i:
            j, c = rng.randrange(i), F(rng.choice([1, 2, 1, 3])) * rng.choice([1, 1, 1, -1])
            row, b = [c * x for x in rows[j]], c * bias[j]
        else:
            row, b = [entry() for _ in range(n)], entry()
        rows.append(row)
        bias.append(b)
    return AffineLayer.make(rows, bias, "relu"), [rng.choice([-1, 1]) for _ in range(m)]


def test_prescribe_matches_closed_polyhedron_rule():
    """On seeded layers, the strict-feasibility rule gives the result, or
    the refusal, of the rule on closed polyhedra, and the layers reach
    every corner case the rule names."""
    rng = random.Random(27)
    seen = Counter()
    for _ in range(600):
        layer, signs = _seeded_layer(rng)
        try:
            want = _reference_prescribe(layer, signs)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                prescribe_edge_orientations(layer, signs)
            walls = inactive_walls(layer.weights, layer.bias)
            seen["lower-dimensional" if Polyhedron(layer.in_dim, ges=walls).nonempty
                 else "empty"] += 1
            continue
        assert prescribe_edge_orientations(layer, signs) == want, (layer, signs)
        rows = [canon_constraint(w, b) for w, b in zip(layer.weights, layer.bias)]
        seen["all-zero unit"] += any(not any(c) and not o for c, o in rows)
        seen["repeated unit"] += len(set(rows)) < len(rows)
        seen["non-facet"] += F(0) in want
        seen["accepted"] += 1
    assert min(seen[k] for k in ("empty", "lower-dimensional", "all-zero unit",
                                 "repeated unit", "non-facet", "accepted")) >= 10, seen


def test_prescribe_makes_one_feasibility_test_per_wall(monkeypatch):
    """fan(2)'s layer of m = 6 units takes m + 1 feasibility tests: one for
    the region and one for each wall."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return feasible(*args, **kwargs)

    for module in (geometry, network):
        monkeypatch.setattr(module, "feasible", counted)
    layer = build_fan_network(2).layers[0]
    assert prescribe_edge_orientations(layer, (1,) * 6) == (F(1),) * 6
    assert len(calls) == layer.out_dim + 1


# -- serialization ----------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    net = build_fan_network(2)
    p = tmp_path / "fan2.json"
    save_network(net, p)
    assert load_network(p) == net


def test_load_parses_decimals_exactly(tmp_path):
    p = tmp_path / "net.json"
    p.write_text(
        json.dumps(
            {
                "layers": [
                    {"weights": [[0.1, "1/3"]], "bias": [-2], "activation": "relu"},
                    {"weights": [["2/4"]], "bias": [0.25], "activation": "none"},
                ]
            }
        )
    )
    net = load_network(p)
    assert net.layers[0].weights[0] == (F(1, 10), F(1, 3))
    assert net.layers[1].weights[0][0] == F(1, 2)
    assert net.layers[1].bias[0] == F(1, 4)


def test_load_third_survives_roundtrip(tmp_path):
    net = Network(
        (
            AffineLayer.make([[F(1, 3)]], [F(-1, 7)], "relu"),
            AffineLayer.make([[1]], [0], "none"),
        )
    )
    p = tmp_path / "third.json"
    save_network(net, p)
    assert load_network(p).layers[0].weights[0][0] == F(1, 3)


def test_load_bad_row_length_names_layer_and_row(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(
        json.dumps(
            {
                "layers": [
                    {"weights": [[1, 0], [1]], "bias": [0, 0], "activation": "relu"},
                    {"weights": [[1, 1]], "bias": [0], "activation": "none"},
                ]
            }
        )
    )
    with pytest.raises(NetworkShapeError, match="layer 0 row 1"):
        load_network(p)


def test_load_zero_denominator(tmp_path):
    p = tmp_path / "zero.json"
    p.write_text(
        json.dumps(
            {"layers": [{"weights": [["1/0"]], "bias": [0], "activation": "none"}]}
        )
    )
    with pytest.raises(RationalParseError):
        load_network(p)


@pytest.mark.parametrize(
    "data, where",
    [
        ({"layers": 5}, "layers"),
        ({"layers": {"weights": [[1]]}}, "layers"),
        ({"layers": [{"weights": 5, "bias": [0], "activation": "none"}]}, "layer 0 weights"),
        ({"layers": [{"weights": [1], "bias": [0], "activation": "none"}]}, "layer 0 row 0"),
        ({"layers": [{"weights": ["12"], "bias": [0], "activation": "none"}]}, "layer 0 row 0"),
        ({"layers": [{"weights": [[1]], "bias": 0, "activation": "none"}]}, "layer 0 bias"),
        (
            {"layers": [
                {"weights": [[1]], "bias": [0], "activation": "relu"},
                {"weights": [[1]], "bias": "0", "activation": "none"},
            ]},
            "layer 1 bias",
        ),
    ],
)
def test_load_non_array_structure_names_where(tmp_path, data, where):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(NetworkFormatError, match=f"^{where}: expected an array"):
        load_network(p)


def test_load_malformed_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_network(p)


# -- ensembles --------------------------------------------------------------


def test_random_network_deterministic():
    a = random_network((2, 3, 1), seed=42, scheme="gaussian")
    b = random_network((2, 3, 1), seed=42, scheme="gaussian")
    assert a == b
    c = random_network((2, 3, 1), seed=43, scheme="gaussian")
    assert a != c


def test_random_network_shapes_and_schemes():
    for scheme in ("gaussian", "uniform"):
        net = random_network((2, 3, 1), seed=7, scheme=scheme)
        assert len(net.layers[0].weights) == 3
        assert len(net.layers[0].weights[0]) == 2
        assert len(net.layers[1].weights) == 1
        assert len(net.layers[1].weights[0]) == 3
    with pytest.raises(ValueError):
        random_network((2, 3, 1), seed=1, scheme="cauchy")
    with pytest.raises(ValueError):
        random_network((), seed=1)


def test_random_network_dyadic_snap():
    net = random_network((2, 3, 1), seed=9)
    for layer in net.layers:
        for row in layer.weights:
            for w in row:
                assert (1 << 53) % w.denominator == 0


@pytest.mark.parametrize("scheme", ["gaussian", "uniform"])
def test_random_network_matches_snapped_draws(scheme):
    """The integer draw divided by 2**53 is the snapped Fraction draw."""
    for arch in ((1, 1), (2, 3, 1), (3, 6, 1), (2, 2, 2, 1), (3, 4, 4, 1), (4, 1, 3, 2, 1)):
        for seed in (0, 1, 7, 10004, 2**40 + 3):
            net = random_network(arch, seed, scheme)
            assert net == snap_network(arch, seed, scheme)
            assert all(
                isinstance(v, F)
                for layer in net.layers
                for v in (*layer.bias, *(w for row in layer.weights for w in row))
            )


@pytest.mark.parametrize("scheme", ["gaussian", "uniform"])
def test_sampler_matches_the_standard_library(scheme):
    """Read in chunks of 1 to 7 values, so that odd chunks end between the
    two values of a Box-Muller pair, the sampler gives exactly the snapped
    values of ``random.Random(key).gauss(0.0, 1.0)`` or ``.uniform(-1.0, 1.0)``,
    the second value of each pair carried across calls as ``gauss`` carries it."""
    for i in range(60):
        key = f"plmorse|{scheme}|{i}"
        rng = random.Random(key)
        law = (lambda: rng.gauss(0.0, 1.0)) if scheme == "gaussian" else (
            lambda: rng.uniform(-1.0, 1.0))
        draw = _sampler(scheme, key)
        for k in (1, 2, 3, 4, 5, 6, 7, 3, 1, 5):
            assert draw(k) == tuple(round(law() * 2**53) for _ in range(k)), (key, k)


def test_sampler_refuses_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        _sampler("cauchy", "key")


def test_first_layer_draws_alone_match_the_whole_network():
    """The lazily drawn first layer is the first layer of every later draw."""
    for arch in ((3, 6, 1), (3, 4, 4, 1), (2, 1)):
        for seed in (0, 5, 10004):
            layers = list(random_int_layers(arch, seed))
            assert next(random_int_layers(arch, seed)) == layers[0]
            assert [len(rows) for rows, _ in layers] == list(arch[1:])


def test_negate_pointwise():
    net = random_network((2, 4, 1), seed=3)
    neg = negate(net)
    for pt in [(0, 0), (F(1, 3), F(-2, 5)), (10, -7)]:
        assert neg.evaluate(pt)[0] == -net.evaluate(pt)[0]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32),
    st.tuples(*[st.fractions(F(-2), F(2))] * 2),
    st.tuples(*[st.fractions(F(-2), F(2))] * 2),
)
def test_piecewise_affine_midpoint(seed, x, y):
    """Points sharing a strict activation pattern lie in one affine piece."""
    net = random_network((2, 3, 1), seed=seed)
    px, py = activation_pattern(net, x), activation_pattern(net, y)
    if px != py or 0 in px:
        return
    mid = tuple((a + b) / 2 for a, b in zip(x, y))
    assert net.evaluate(mid)[0] == (net.evaluate(x)[0] + net.evaluate(y)[0]) / 2


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (2, 3, 1), (3, 2, 2, 1), (2, 2, 3, 1)]),
    st.integers(0, 2**32),
    st.integers(1, 60),
    st.lists(st.integers(-200, 200), min_size=3, max_size=3),
)
def test_integer_layers_match_evaluate(arch, seed, q, xs):
    """F(X/q) = G(X)/sigma, with G run through the integer layers."""
    net = random_network(arch, seed=seed)
    layers, sigma = integer_layers(net, q)
    y = xs[: arch[0]]
    for k, (a, b) in enumerate(layers):
        if k:
            y = [max(v, 0) for v in y]
        y = [sum(w * v for w, v in zip(row, y)) + c for row, c in zip(a, b)]
    assert all(isinstance(v, int) for v in y)
    assert F(y[0], sigma) == net.evaluate([F(x, q) for x in xs[: arch[0]]])[0]
