import numpy as np
import pytest

from raytrans import geometry as geo
from raytrans.errors import (
    DegenerateGradient,
    GridTooCoarse,
    OrderTooHigh,
    RootNotBracketed,
)
from raytrans.fields import EnergyInterval, GridSpec, sample_field, sup_norm_estimate
from raytrans.norms import h_norm


def broken_domain(level, gradient):
    return geo.ConvexDomain(level=level, level_gradient=gradient, diameter=2.0)


class TestGeometryErrors:
    def test_root_not_bracketed_for_inconsistent_level(self):
        # a level function that never turns positive cannot bracket an exit
        dom = broken_domain(
            lambda x: -np.ones(len(np.atleast_2d(x))),
            lambda x: np.zeros((len(np.atleast_2d(x)), 3)),
        )
        with pytest.raises(RootNotBracketed):
            geo.escape_times_rootfind(dom, np.zeros((1, 3)), np.array([1.0, 0, 0]))

    def test_degenerate_gradient_on_boundary(self):
        dom = broken_domain(
            lambda x: np.zeros(len(np.atleast_2d(x))),
            lambda x: np.zeros((len(np.atleast_2d(x)), 3)),
        )
        with pytest.raises(DegenerateGradient):
            geo.outward_normal(dom, np.array([1.0, 0, 0]))


class TestGridErrors:
    def test_too_few_lattice_nodes(self):
        with pytest.raises(GridTooCoarse):
            GridSpec(geo.ConvexDomain.unit_ball(), 2, 2, 4, EnergyInterval(0.0, 1.0), 1)

    def test_sup_norm_needs_interior_depth(self):
        # a 5-node lattice leaves no node four steps clear of the boundary
        g = GridSpec(geo.ConvexDomain.unit_ball(), 5, 2, 4, EnergyInterval(0.0, 1.0), 1)
        with pytest.raises(GridTooCoarse):
            sup_norm_estimate(lambda x, w, E: x[:, 0], 4, g)

    def test_h_norm_order_cap(self):
        g = GridSpec(geo.ConvexDomain.unit_ball(), 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        f = sample_field(lambda x, w, E: np.ones(len(x)), g)
        with pytest.raises(OrderTooHigh):
            h_norm(f, 4)

    def test_h_norm_negative_order(self):
        g = GridSpec(geo.ConvexDomain.unit_ball(), 9, 2, 4, EnergyInterval(0.0, 1.0), 1)
        f = sample_field(lambda x, w, E: np.ones(len(x)), g)
        with pytest.raises(ValueError, match="nonnegative"):
            h_norm(f, -1)
