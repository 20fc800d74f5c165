import numpy as np
import pytest

from raytrans import geometry as geo
from raytrans.errors import GridTooCoarse, OrderTooHigh
from raytrans.fields import EnergyInterval, GridSpec, sample_field, sup_norm_estimate
from raytrans.norms import h_norm


class TestGridErrors:
    def test_too_few_lattice_nodes(self):
        with pytest.raises(GridTooCoarse):
            GridSpec(geo.ConvexDomain.unit_ball(), 2, 2, 4, EnergyInterval(0.0, 1.0), 1)

    @pytest.mark.parametrize("n_polar, n_azimuth, n_energy", [(0, 4, 1), (2, 0, 1), (2, 4, 0), (2, -1, 1)])
    def test_too_few_sphere_or_energy_nodes(self, n_polar, n_azimuth, n_energy):
        with pytest.raises(GridTooCoarse, match="at least 1 polar"):
            GridSpec(geo.ConvexDomain.unit_ball(), 5, n_polar, n_azimuth, EnergyInterval(0.0, 1.0), n_energy)

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
