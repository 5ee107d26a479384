import numpy as np
import pytest

from tcalign import InvalidInput
from tcalign.io import scatter_svg, write_scatter_svg


def test_svg_contains_all_points(rng):
    pts_a = rng.standard_normal((5, 2))
    pts_b = rng.standard_normal((7, 2)) + 3
    svg = scatter_svg([("source", pts_a), ("target", pts_b)])
    assert svg.count("<circle") == 5 + 7 + 2  # points plus two legend markers
    assert "source" in svg and "target" in svg
    assert svg.startswith("<svg")


def test_svg_rejects_non_2d(rng):
    with pytest.raises(InvalidInput):
        scatter_svg([("x", rng.standard_normal((4, 3)))])


def test_svg_rejects_empty_series_list():
    with pytest.raises(InvalidInput):
        scatter_svg([])


def test_svg_deterministic(rng):
    pts = rng.standard_normal((6, 2))
    assert scatter_svg([("a", pts)]) == scatter_svg([("a", pts)])


def test_write_scatter_svg(tmp_path, rng):
    path = tmp_path / "out.svg"
    write_scatter_svg(path, [("a", rng.standard_normal((3, 2)))])
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_written_svg_is_the_rendered_document(tmp_path, rng):
    series = [("a", rng.standard_normal((4, 2))), ("b", rng.standard_normal((3, 2)))]
    path = tmp_path / "out.svg"
    write_scatter_svg(path, series)
    assert path.read_bytes() == scatter_svg(series).encode("utf-8")
