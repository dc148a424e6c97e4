from fractions import Fraction
from pathlib import Path

import pytest

from plmorse import complexes, geometry, network
from plmorse.complexes import build_complex
from plmorse.geometry import Polyhedron
from plmorse.network import (
    AffineLayer,
    Network,
    build_coarse_bound_network,
    build_fan_network,
    load_network,
    random_network,
)
from plmorse.svg import _clipped_vertices, render_svg, viewport_box

from queries import zero_cells


def three_line_net():
    return Network((
        AffineLayer.make([[1, 0], [0, -1], [-1, -1]], [0, 0, 1], "relu"),
        AffineLayer.make([[2, -3, 1]], [0], "none"),
    ))


def test_fan2_has_one_line_per_hidden_unit():
    doc = render_svg(build_complex(build_fan_network(2)))
    assert doc.count("<line ") == 6
    assert doc.startswith("<svg ")
    assert 'version="1.1"' in doc
    assert doc.rstrip().endswith("</svg>")


def test_fan2_flat_markup():
    doc = render_svg(build_complex(build_fan_network(2)))
    assert doc.count('class="flat-cell"') == 1
    assert doc.count('class="flat-edge"') == 6
    assert doc.count('class="flat-vertex"') == 14
    assert doc.count("<circle ") == 14


def test_edges_are_paths_with_arrowheads():
    cx = build_complex(three_line_net())
    doc = render_svg(cx)
    assert doc.count("<line ") == 3
    paths = doc.count("<path ")
    arrows = doc.count('class="arrow"')
    one_cells = len(cx.cells_of_dim(1))
    flat_edges = sum(1 for c in cx.cells_of_dim(1) if c.flat)
    assert paths == one_cells
    assert arrows == one_cells - flat_edges
    assert doc.count("<circle ") == 3


def test_viewport_covers_vertices():
    cx = build_complex(three_line_net())
    xmin, xmax, ymin, ymax = viewport_box(cx)
    assert len(zero_cells(cx)) == 3
    for (x, y), _ in zero_cells(cx):
        assert xmin < x < xmax
        assert ymin < y < ymax


def test_coordinates_are_fixed_point():
    doc = render_svg(build_complex(build_fan_network(1)))
    assert "Fraction" not in doc
    for chunk in doc.split('x1="')[1:]:
        value = chunk.split('"')[0]
        whole, dot, frac = value.partition(".")
        assert dot == "." and len(frac) == 3


def test_rejects_other_input_dimensions():
    one_d = Network((
        AffineLayer.make([[1]], [0], "relu"),
        AffineLayer.make([[1]], [0], "none"),
    ))
    with pytest.raises(ValueError, match="two-input"):
        render_svg(build_complex(one_d))


GOLDEN = Path(__file__).parent / "golden"


def _clip_nets():
    """The golden two-input nets, the explicit families and seeded nets."""
    for path in sorted(GOLDEN.glob("*.net.json")):
        if (net := load_network(path)).n0 == 2:
            yield path.name, net
    for n in (1, 2, 3):
        yield f"fan{n}", build_fan_network(n)
    for m in (3, 4, 5, 6):
        yield f"coarse{m}", build_coarse_bound_network(m)
    for arch in ((2, 3, 1), (2, 5, 1), (2, 3, 2, 1)):
        for seed in (1, 2, 3):
            yield f"{arch} seed {seed}", random_network(arch, seed)


def _reference_clip(box, eqs, ges=()):
    """The clip as a closed polyhedron's vertices, by subset enumeration."""
    xmin, xmax, ymin, ymax = box
    walls = (((1, 0), -xmin), ((-1, 0), xmax), ((0, 1), -ymin), ((0, -1), ymax))
    return Polyhedron(2, eqs, [*ges, *walls]).vertices


@pytest.mark.parametrize("net", [pytest.param(net, id=name) for name, net in _clip_nets()])
def test_clip_matches_polyhedron_vertices(net):
    """Every 2-cell, every 1-cell and every first-layer wall clipped to the
    viewport, and to a box around the origin that cuts many of them down to
    a point or nothing, has the vertices subset enumeration finds."""
    cx = build_complex(net)
    layer = net.layers[0]
    systems = [(c.eqs, c.stricts) for d in (1, 2) for c in cx.cells_of_dim(d)]
    systems += [([(row, b)], ()) for row, b in zip(layer.weights, layer.bias)]
    half = Fraction(1, 2)
    for box in (viewport_box(cx), (-half, half, -half, half)):
        for eqs, ges in systems:
            want = _reference_clip(box, eqs, ges)
            assert _clipped_vertices(box, eqs, ges) == want, (box, eqs, ges)


def test_clip_corner_cases():
    box = (Fraction(0), Fraction(2), Fraction(0), Fraction(1))
    assert _clipped_vertices(box, [], [((1, 1), -3)]) == [(2, 1)]  # one corner
    assert _clipped_vertices(box, [], [((1, 0), -3)]) == []  # past the box
    assert _clipped_vertices(box, [((1, -1), 0)], []) == [(0, 0), (1, 1)]  # a diagonal
    assert _clipped_vertices(box, [((0, 1), 0)], []) == [(0, 0), (2, 0)]  # along a side
    assert _clipped_vertices(box, [((1, 0), -1)], [((0, 1), 0), ((0, -1), 0)]) == [(1, 0)]


def test_render_builds_no_polyhedron_and_tests_no_feasibility(monkeypatch):
    """The clip reads each cell's own rows in exact arithmetic: no
    ``Polyhedron`` is built and no feasibility test runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("Polyhedron or feasible called")

    for net in (build_fan_network(2), load_network(GOLDEN / "random_2_3_2_1_seed3.net.json")):
        cx = build_complex(net)
        with monkeypatch.context() as patch:
            patch.setattr(Polyhedron, "__init__", refuse)
            for module in (geometry, complexes, network):
                patch.setattr(module, "feasible", refuse)
            doc = render_svg(cx)
        assert doc.endswith("</svg>\n")
