"""SVG rendering: projection geometry, panel grouping, determinism."""

from fractions import Fraction

from lietower.periodic import projection_slice
from lietower.svgout import FLOOR_H, _project, svg_root_squares, svg_tower
from lietower.verify import SuiteContext


def test_projection_same_lm_is_vertical():
    x1, y1 = _project(2, 1, 3)
    x2, y2 = _project(2, 1, 4)
    assert x1 == x2
    assert y1 - y2 == FLOOR_H  # one floor of height per unit n


def test_projection_mirror_plane():
    x_up, y_up = _project(0, 0, 2)
    x_dn, y_dn = _project(0, 0, -2)
    assert x_up == x_dn
    assert y_up == -y_dn


def test_root_squares_panels(gs42):
    svg = svg_root_squares(SuiteContext(gs42).roots)
    assert svg.count("plane (") == 3  # three coordinate planes
    for name in ("K+", "K-", "J+", "J-", "T+", "S-", "P+", "Q-"):
        assert f">{name}<" in svg


def test_root_squares_panels_rank4(gs44):
    svg = svg_root_squares(SuiteContext(gs44).roots)
    assert svg.count("plane (") == 6
    assert ">2K+<" in svg and ">1Q-<" in svg


def test_tower_svg_renders_all_floors(elements):
    tower = projection_slice(elements, Fraction(-1, 2))
    svg = svg_tower(tower)
    for n in list(range(1, 9)) + list(range(-1, -9, -1)):
        assert f">n={n}<" in svg
    assert ">H<" in svg and ">anti-H<" in svg and ">Uue<" in svg


def test_tower_svg_stable(elements):
    tower = projection_slice(elements, Fraction(1, 2))
    assert svg_tower(tower) == svg_tower(tower)
