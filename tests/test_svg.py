import pytest

from plmorse.complexes import build_complex
from plmorse.network import AffineLayer, Network, build_fan_network
from plmorse.svg import render_svg, viewport_box

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
