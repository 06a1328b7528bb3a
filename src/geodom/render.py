"""Static SVG pictures of instances, with an optional highlighted solution."""
from __future__ import annotations

from math import isfinite
from typing import Iterable, Optional

from .errors import InvalidInputError
from .geom import OrthoInstance
from .instances import InstanceFile, UnitBkInstance
from .srs import SrsInstance
from .ssr import SsrInstance
from .stabbedl import StabbedLInstance

_W = 640.0
_PAD = 24.0
_TOO_LARGE = "coordinates are too large to draw with floats"


def _style(selected: bool, cls: str) -> str:
    if selected:
        return 'stroke="#d62728" stroke-width="3.2"'
    if cls == "ray":
        return 'stroke="#2ca02c" stroke-width="1.6"'
    if cls == "ghost":
        return 'stroke="#999999" stroke-width="1.2" stroke-dasharray="5,4"'
    return 'stroke="#1f77b4" stroke-width="1.6"'


def _polylines(f: InstanceFile, selected: set[int]):
    """Yield (point list, css class, is_selected, label) per drawable item."""
    data = f.data
    if isinstance(data, (SsrInstance, SrsInstance)):
        xs = [float(s.x) for s in data.segments] + [float(r.x_right) for r in data.rays]
        left = (min(xs) if xs else 0.0) - 2.0
        ray_sel = selected if isinstance(data, SsrInstance) else set()
        seg_sel = selected if isinstance(data, SrsInstance) else set()
        for r in data.rays:
            y = float(r.y)
            yield [(left, y), (float(r.x_right), y)], "ray", r.id in ray_sel, f"r{r.id}"
        for s in data.segments:
            x = float(s.x)
            yield [(x, float(s.y_lo)), (x, float(s.y_hi))], "seg", s.id in seg_sel, f"v{s.id}"
        return
    if isinstance(data, StabbedLInstance):
        ys = [float(p.corner_y) for p in data.paths]
        lo = (min(ys) if ys else 0.0) - 1.0
        hi = max((float(p.corner_y + p.vlen) for p in data.paths), default=1.0) + 1.0
        x0 = float(data.line_x)
        yield [(x0, lo), (x0, hi)], "ghost", False, "line"
        for p in data.paths:
            cx, cy = float(p.corner_x), float(p.corner_y)
            pts = [(cx, cy + float(p.vlen)), (cx, cy), (cx + float(p.hlen), cy)]
            yield pts, "seg", p.id in selected, f"p{p.id}"
        return
    if isinstance(data, OrthoInstance):
        for s in data.hsegs:
            cls = "seg" if s.id in data.candidate_ids else "ghost"
            pts = [(float(s.x_lo), float(s.y)), (float(s.x_hi), float(s.y))]
            yield pts, cls, s.id in selected, f"h{s.id}"
        for s in data.vsegs:
            cls = "seg" if s.id in data.candidate_ids else "ghost"
            pts = [(float(s.x), float(s.y_lo)), (float(s.x), float(s.y_hi))]
            yield pts, cls, s.id in selected, f"v{s.id}"
        return
    if isinstance(data, UnitBkInstance):
        for p in data.paths:
            pts = [(float(x), float(y)) for x, y in p.points()]
            yield pts, "seg", p.id in selected, f"p{p.id}"
        return
    raise InvalidInputError(f"cannot render kind {f.kind!r}")


def render_svg(f: InstanceFile, selected: Optional[Iterable[int]] = None) -> str:
    chosen = set(selected) if selected is not None else set()
    try:
        items = list(_polylines(f, chosen))
    except OverflowError:  # a coordinate beyond the float range
        raise InvalidInputError(_TOO_LARGE) from None
    points = [pt for pts, _, _, _ in items for pt in pts]
    if not points:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="64" height="64"/>\n'
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span_x = max(xmax - xmin, 1.0)
    span_y = max(ymax - ymin, 1.0)
    scale = (_W - 2 * _PAD) / span_x
    height = span_y * scale + 2 * _PAD
    if not (isfinite(span_x) and isfinite(height)):  # floats that overflowed
        raise InvalidInputError(_TOO_LARGE)

    def sx(x: float) -> float:
        return _PAD + (x - xmin) * scale

    def sy(y: float) -> float:
        return _PAD + (ymax - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {_W:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    # draw unselected first so highlights sit on top
    for pts, cls, is_sel, label in sorted(items, key=lambda it: it[2]):
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" {_style(is_sel, cls)}>'
            f"<title>{label}</title></polyline>"
        )
        if cls == "ray":
            tip_x, tip_y = pts[-1]
            parts.append(
                f'<circle cx="{sx(tip_x):.2f}" cy="{sy(tip_y):.2f}" r="2.6" '
                f'fill="{"#d62728" if is_sel else "#2ca02c"}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
