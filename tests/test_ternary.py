import numpy as np
import pytest

from beliefdyn.homophily import kl_divergence
from beliefdyn.stochastic import DimensionMismatchError
from beliefdyn.ternary import bary_to_xy, kl_region_polygon, render_ternary


def xy_to_bary(xy):
    """Barycentric coordinates of a plot point: the corners' weights that
    give (x, y) and sum to 1."""
    corners = bary_to_xy(np.eye(3))
    return np.linalg.solve(np.vstack([corners.T, np.ones(3)]), [xy[0], xy[1], 1.0])


def test_barycenter_maps_to_triangle_centroid():
    xy = bary_to_xy([1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(xy, [0.5, np.sqrt(3) / 6], atol=1e-12)


def test_corner_maps_to_vertex():
    assert np.allclose(bary_to_xy([1, 0, 0]), [0.0, 0.0])
    assert np.allclose(bary_to_xy([0, 1, 0]), [1.0, 0.0])


def test_xy_round_trip():
    rng = np.random.default_rng(71)
    for _ in range(20):
        p = rng.dirichlet(np.ones(3))
        assert np.allclose(xy_to_bary(bary_to_xy(p)), p, atol=1e-12)


def test_region_boundary_sits_at_the_budget():
    center = np.array([0.4, 0.35, 0.25])
    eps = 0.1
    poly = kl_region_polygon(center, eps, rays=64)
    for xy in poly[::8]:
        b = xy_to_bary(xy)
        assert np.all(b > 0)
        val = kl_divergence(center, b / b.sum())
        assert val == pytest.approx(eps, abs=1e-6)


def test_region_clipped_at_simplex_edge_for_big_budget():
    center = np.array([0.05, 0.05, 0.9])
    poly = kl_region_polygon(center, 50.0, rays=32)
    bary = np.array([xy_to_bary(xy) for xy in poly])
    assert bary.min() > -1e-9       # never leaves the triangle
    assert bary.min() < 1e-4        # but hugs its boundary


def test_tiny_budget_degenerates_to_point():
    center = np.array([0.3, 0.4, 0.3])
    poly = kl_region_polygon(center, 1e-12, rays=16)
    xy0 = bary_to_xy(center)
    assert np.max(np.linalg.norm(poly - xy0, axis=1)) < 1e-4


def test_render_deterministic_bytes():
    rng = np.random.default_rng(72)
    q = rng.dirichlet(np.ones(3), size=4)
    links = [(0, 1), (2, 3)]
    a = render_ternary(q, links, region_eps=0.3)
    b = render_ternary(q, links, region_eps=0.3)
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")


def test_render_counts_elements():
    q = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    svg = render_ternary(q, links=[(0, 1)], region_eps=None)
    assert svg.count("<circle") == 3
    assert svg.count("<line") == 1
    assert svg.count("<polygon") == 1   # just the triangle frame


def test_duplicate_links_drawn_once():
    q = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]])
    svg = render_ternary(q, links=[(0, 1), (1, 0)])
    assert svg.count("<line") == 1


def test_wrong_dimension_rejected():
    with pytest.raises(DimensionMismatchError, match=r"expected \(r, 3\) beliefs"):
        render_ternary(np.full((2, 4), 0.25))
