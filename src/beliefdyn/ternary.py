"""Deterministic SVG rendering of three-concept belief states.

The three-concept simplex is drawn as an equilateral triangle with the
corners standing for the pure beliefs (1,0,0), (0,1,0), (0,0,1).  Each
person is a point inside the triangle; an optional shaded region around a
person traces the set of states within a KL budget of their belief, and
line segments mark communication links.

Output is a plain SVG string with fixed-precision coordinates, so the same
input always renders to the same bytes.
"""

import numpy as np

from .homophily import _floored

SQRT3_2 = float(np.sqrt(3.0) / 2.0)

# triangle corners in plot coordinates (unit side)
_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3_2]])

# (x, y, 1) = _BARY_SYSTEM @ barycentric coordinates
_BARY_SYSTEM = np.vstack([_CORNERS.T, np.ones(3)])

_SIZE = 640                 # SVG width in pixels

_PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#bcbd22"]


class WrongDimensionError(ValueError):
    """Ternary rendering needs exactly three concepts."""


def bary_to_xy(p):
    """Map a 3-simplex point to plot coordinates."""
    p = np.asarray(p, dtype=float)
    return p @ _CORNERS


def kl_region_polygon(center, eps, rays=720):
    """Points tracing {x : KL(center, x) = eps} inside the triangle.

    March ``rays`` directions from the center; along each, bisect the KL
    value to the budget (all rays advance together).  The divergence blows
    up at the triangle edge, so a crossing always exists strictly inside.
    The center is floored as every divergence is (:mod:`beliefdyn.homophily`).
    """
    c = _floored(center)
    xy0 = bary_to_xy(c)

    theta = 2.0 * np.pi * np.arange(rays) / rays
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])

    # barycentric coordinates are affine in the plane: b(t) = b0 + t * db
    minv = np.linalg.inv(_BARY_SYSTEM)
    b0 = minv @ np.array([xy0[0], xy0[1], 1.0])
    db = dirs @ minv[:, :2].T                      # (rays, 3), rows sum to 0

    with np.errstate(divide="ignore", invalid="ignore"):
        candidates = np.where(db < -1e-15, -b0[None, :] / db, np.inf)
    t_edge = candidates.min(axis=1) * (1.0 - 1e-9)

    const = float(np.sum(c * np.log(c)))

    def kl_at(t):
        b = b0[None, :] + t[:, None] * db
        b = np.maximum(b, 1e-300)
        return const - (np.log(b) @ c)

    lo = np.zeros(rays)
    hi = t_edge.copy()
    inside_at_edge = kl_at(hi) < eps               # region clipped by the simplex
    lo[inside_at_edge] = hi[inside_at_edge]
    for _ in range(40):                            # halvings of each ray's bracket
        mid = 0.5 * (lo + hi)
        below = kl_at(mid) < eps
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t_star = 0.5 * (lo + hi)
    return xy0[None, :] + t_star[:, None] * dirs


def _fmt(x):
    return "%.4f" % x


def render_ternary(q, links=(), region_eps=None):
    """Render belief rows, links, and optional KL regions as an SVG string.

    Parameters
    ----------
    q : array_like, shape (r, 3)
        Belief rows on the three-concept simplex, labelled 1..r.
    links : iterable of (i, j)
        Person pairs to connect with a segment (direction not drawn).
    region_eps : float or None
        KL budget of every person's shaded region; None skips them.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != 3:
        raise WrongDimensionError(f"expected (r, 3) beliefs, got {q.shape}")
    r = q.shape[0]
    margin = 0.08 * _SIZE
    scale = _SIZE - 2 * margin

    def to_screen(xy):
        # flip y: SVG grows downwards
        x = margin + xy[0] * scale
        y = _SIZE - margin - xy[1] * scale
        return x, y

    parts = []
    height = int(_SIZE * 0.95)
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{height}" '
        f'viewBox="0 0 {_SIZE} {height}">')
    parts.append(f'<rect width="{_SIZE}" height="{height}" fill="white"/>')

    if region_eps is not None:
        for i in range(r):
            poly = kl_region_polygon(q[i], region_eps)
            coords = " ".join("%s,%s" % tuple(map(_fmt, to_screen(p))) for p in poly)
            color = _PALETTE[i % len(_PALETTE)]
            parts.append(f'<polygon points="{coords}" fill="{color}" '
                         f'fill-opacity="0.15" stroke="none"/>')

    corners = [to_screen(c) for c in _CORNERS]
    tri = " ".join("%s,%s" % tuple(map(_fmt, c)) for c in corners)
    parts.append(f'<polygon points="{tri}" fill="none" stroke="#333333" stroke-width="1.5"/>')
    for name, c in zip(("(1,0,0)", "(0,1,0)", "(0,0,1)"), corners):
        parts.append(f'<text x="{_fmt(c[0])}" y="{_fmt(c[1] + 16)}" font-size="11" '
                     f'text-anchor="middle" fill="#555555">{name}</text>')

    for i, j in sorted(set(tuple(sorted(e)) for e in links)):
        a = to_screen(bary_to_xy(q[i]))
        b = to_screen(bary_to_xy(q[j]))
        parts.append(f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
                     f'y2="{_fmt(b[1])}" stroke="#444444" stroke-width="1.2"/>')

    for i in range(r):
        x, y = to_screen(bary_to_xy(q[i]))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="{color}"/>')
        parts.append(f'<text x="{_fmt(x + 8)}" y="{_fmt(y - 8)}" font-size="12" '
                     f'fill="#222222">{i + 1}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
