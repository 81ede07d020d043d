"""Static SVG Risk-Complexity plots.

Hand-rolled SVG with fixed-precision coordinates so rendered files are
byte-for-byte reproducible and suitable for golden-file tests.
"""

from __future__ import annotations

import math
from html import escape

WIDTH, HEIGHT = 640, 480
MARGIN = dict(left=70, right=20, top=20, bottom=50)

PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Axes:
    def __init__(self, x_range, y_range, log_x=False):
        self.log_x = log_x
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if log_x:
            self.x0, self.x1 = math.log10(self.x0), math.log10(self.x1)

    def px(self, x: float) -> float:
        # on a log axis, an x below its lower limit (a zero risk) is drawn there
        if self.log_x:
            x = max(math.log10(x), self.x0) if x > 0 else self.x0
        span = self.x1 - self.x0 or 1.0
        inner = WIDTH - MARGIN["left"] - MARGIN["right"]
        return MARGIN["left"] + (x - self.x0) / span * inner

    def py(self, y: float) -> float:
        span = self.y1 - self.y0 or 1.0
        inner = HEIGHT - MARGIN["top"] - MARGIN["bottom"]
        return HEIGHT - MARGIN["bottom"] - (y - self.y0) / span * inner


def risk_complexity_svg(fronts: dict, star=None, log_x: bool = False,
                        title: str = "Risk-Complexity") -> str:
    """Render Pareto fronts (family -> [(x, y), ...]) plus the dashed
    non-vacuity line y = 1 - x and an optional reference star."""
    all_pts = [p for pts in fronts.values() for p in pts]
    if star is not None:
        all_pts.append(star)
    xs = [p[0] for p in all_pts] or [0.0, 1.0]
    ys = [p[1] for p in all_pts] or [0.0, 1.0]
    x_hi = max(max(xs), 1.0)
    y_hi = max(max(ys), 1.0) * 1.05
    if log_x:
        positive = [x for x in xs if x > 0]
        x_lo = max(min(positive), 1e-4) / 2 if positive else 1e-4
    else:
        x_lo = min(min(xs), 0.0)
    ax = _Axes((x_lo, x_hi), (0.0, y_hi), log_x=log_x)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="14" text-anchor="middle" '
        f'font-family="monospace" font-size="13">'
        f'{escape(title, quote=False)}</text>',
    ]
    # axes
    left, bottom = MARGIN["left"], HEIGHT - MARGIN["bottom"]
    right, top = WIDTH - MARGIN["right"], MARGIN["top"]
    parts.append(f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{left}" y1="{bottom}" x2="{left}" y2="{top}" '
                 'stroke="black"/>')
    parts.append(f'<text x="{(left + right) // 2}" y="{HEIGHT - 14}" '
                 'text-anchor="middle" font-family="monospace" font-size="12">'
                 "empirical risk</text>")
    parts.append(f'<text x="16" y="{(top + bottom) // 2}" text-anchor="middle" '
                 'font-family="monospace" font-size="12" '
                 f'transform="rotate(-90 16 {(top + bottom) // 2})">complexity</text>')
    # dashed non-vacuity line y = 1 - x
    seg = []
    for i in range(101):
        x = x_lo + (x_hi - x_lo) * i / 100 if not log_x else (
            10 ** (math.log10(x_lo) + (math.log10(x_hi) - math.log10(x_lo)) * i / 100))
        y = 1.0 - x
        if 0.0 <= y <= y_hi:
            seg.append(f"{_fmt(ax.px(x))},{_fmt(ax.py(y))}")
    if seg:
        parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                     'stroke="gray" stroke-dasharray="6,4"/>')
    # fronts
    for idx, family in enumerate(sorted(fronts)):
        pts = sorted(fronts[family])
        if not pts:
            continue
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{_fmt(ax.px(x))},{_fmt(ax.py(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{_fmt(ax.px(x))}" cy="{_fmt(ax.py(y))}" '
                         f'r="3" fill="{color}"/>')
        parts.append(f'<text x="{right - 150}" y="{top + 16 * (idx + 1)}" '
                     f'font-family="monospace" font-size="11" fill="{color}">'
                     f"{escape(family, quote=False)}</text>")
    # reference star
    if star is not None:
        cx, cy = ax.px(star[0]), ax.py(star[1])
        pts = []
        for i in range(10):
            r = 8.0 if i % 2 == 0 else 3.5
            angle = -math.pi / 2 + i * math.pi / 5
            pts.append(f"{_fmt(cx + r * math.cos(angle))},"
                       f"{_fmt(cy + r * math.sin(angle))}")
        parts.append(f'<polygon points="{" ".join(pts)}" fill="purple"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
