"""Deterministic SVG renderings of the root squares and the weight tower.

Output is plain string assembly: element order is fixed, coordinates are
formatted with two decimals, and nothing (no timestamps, no random ids)
varies between runs, so identical inputs give byte-identical files.

Three-dimensional content is drawn through one fixed isometric projection
of a grid point (m, l, n):

    x = STEP * (m - l) * cos(30 deg)
    y = -FLOOR_H * n + STEP * (m + l) * sin(30 deg)

(screen y grows downward, so floors with larger n sit higher).  Points
with equal (l, m) on consecutive floors share x, which renders the
homolog connections as vertical lines.
"""

from __future__ import annotations

from .periodic import TowerSlice, homolog_lines

COS30 = 0.8660254037844387
SIN30 = 0.5
STEP = 26.0
FLOOR_H = 46.0

_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def _fmt(value: float) -> str:
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _axis_label(name: str) -> str:
    """Digits as subscripts and the alias D as Delta: L12 -> L₁₂, D3 -> Δ₃."""
    return name.replace("D", "Δ").translate(_SUBSCRIPTS)


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []

    def add(self, piece: str) -> None:
        self.parts.append(piece)

    def line(self, x1, y1, x2, y2, stroke="#444444", width=1.0, dash: str = "") -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{dash_attr}/>'
        )

    def circle(self, cx, cy, r, fill="#000000", stroke="none") -> None:
        self.add(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{fill}" stroke="{stroke}"/>'
        )

    def text(self, x, y, content, size=10.0, anchor="middle") -> None:
        self.add(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{_fmt(size)}" text-anchor="{anchor}" fill="#000000">'
            f"{_esc(content)}</text>"
        )

    def document(self, width: float, height: float) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
            f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>\n'
        )
        return head + "\n".join(self.parts) + "\n</svg>\n"


def svg_root_squares(table) -> str:
    """One panel per coordinate plane of a ``cartan.RootTable``; each
    square's vertices are the four ladder roots living in that plane,
    labelled by operator name.  ``table`` is left unannotated: naming its
    type would make ``tower --format svg`` import the algebra."""
    axes = table.cartan
    # group roots by their (two-axis) support
    panels: dict[tuple[int, int], list[tuple[str, tuple]]] = {}
    for name, root in table.roots.items():
        support = tuple(k for k, c in enumerate(root) if c)
        if len(support) != 2:
            continue
        panels.setdefault(support, []).append((name, root))
    panel_keys = sorted(panels)
    size = 190.0
    margin = 26.0
    scale = 52.0
    width = margin + len(panel_keys) * (size + margin)
    height = size + 2 * margin + 14.0
    canvas = _Canvas()
    for idx, key in enumerate(panel_keys):
        ox = margin + idx * (size + margin) + size / 2
        oy = margin + size / 2 + 8.0
        ax, ay = axes[key[0]], axes[key[1]]
        canvas.line(ox - size / 2, oy, ox + size / 2, oy, stroke="#888888")
        canvas.line(ox, oy - size / 2, ox, oy + size / 2, stroke="#888888")
        canvas.text(ox + size / 2 - 4.0, oy - 6.0, _axis_label(ax), size=11.0, anchor="end")
        canvas.text(ox + 6.0, oy - size / 2 + 10.0, _axis_label(ay), size=11.0, anchor="start")
        # unit ticks
        for t in (-1.0, 1.0):
            canvas.line(ox + t * scale, oy - 3.0, ox + t * scale, oy + 3.0, stroke="#888888")
            canvas.line(ox - 3.0, oy - t * scale, ox + 3.0, oy - t * scale, stroke="#888888")
        # square through the four roots
        pts = []
        for name, root in panels[key]:
            cx = float(root[key[0]]) * scale
            cy = float(root[key[1]]) * scale
            pts.append((name, ox + cx, oy - cy))
        ordered = sorted(pts, key=lambda p: (p[1], p[2]))
        hull = [ordered[0], ordered[1], ordered[3], ordered[2]] if len(ordered) == 4 else ordered
        for k in range(len(hull)):
            x1, y1 = hull[k][1], hull[k][2]
            x2, y2 = hull[(k + 1) % len(hull)][1], hull[(k + 1) % len(hull)][2]
            canvas.line(x1, y1, x2, y2, stroke="#bbccee", width=1.2)
        canvas.circle(ox, oy, 2.6, fill="#333333")
        for name, x, y in pts:
            canvas.circle(x, y, 3.4, fill="#1f4e9c")
            dy = -6.0 if y <= oy else 13.0
            canvas.text(x, y + dy, name, size=10.0)
        canvas.text(
            ox, oy + size / 2 + 16.0,
            f"plane ({_axis_label(ax)}, {_axis_label(ay)})", size=10.0,
        )
    return canvas.document(width, height)


def _project(m: float, l: float, n: float) -> tuple[float, float]:
    x = STEP * (m - l) * COS30
    y = -FLOOR_H * n + STEP * (m + l) * SIN30
    return x, y


def svg_tower(tower: TowerSlice) -> str:
    """Isometric rendering of one spin projection of the weight tower.

    Floors stack by n (matter up, antimatter down, mirror plane dashed);
    each floor carries its l-rings with the 2l+1 m-points, filled points
    labelled by element symbol and Z, unfilled ones hollow.
    """
    floors = sorted(tower.floors.items(), reverse=True)
    xs, ys = zip(*(
        _project(m, l, n) for n, rings in floors for l, ring in rings.items() for m in ring
    ))
    pad = 56.0
    min_x, max_x = min(xs) - pad, max(xs) + pad
    min_y, max_y = min(ys) - pad, max(ys) + pad
    ox, oy = -min_x, -min_y
    width, height = max_x - min_x, max_y - min_y
    canvas = _Canvas()
    canvas.text(ox, 16.0, f"spin projection s = {tower.s_text}", size=13.0)
    # mirror plane
    y0 = oy
    canvas.line(8.0, y0, width - 8.0, y0, stroke="#999999", width=0.8, dash="6 4")
    # homolog lines first (below the points): same (l, m), consecutive n > 0
    for chain in homolog_lines(tower):
        first, last = chain[0].ket, chain[-1].ket
        x1, y1 = _project(first.m, first.l, first.n)
        x2, y2 = _project(last.m, last.l, last.n)
        canvas.line(ox + x1, oy + y1, ox + x2, oy + y2, stroke="#cdd9ec", width=1.0)
    for n, rings in floors:
        # floor label at the left edge
        fx, fy = _project(-(abs(n) - 1) - 1.2, abs(n) - 1, n)
        canvas.text(ox + fx - 10.0, oy + fy + 3.0, f"n={n}", size=10.0, anchor="end")
        for l, ring in rings.items():
            for m, e in ring.items():
                x, y = _project(m, l, n)
                px, py = ox + x, oy + y
                if e is None:
                    canvas.circle(px, py, 2.6, fill="#ffffff", stroke="#aaaaaa")
                else:
                    canvas.circle(px, py, 3.2, fill="#8c1d1d" if e.anti else "#1f4e9c")
                    canvas.text(px, py - 6.0, e.symbol, size=8.5)
    return canvas.document(width, height + 8.0)
