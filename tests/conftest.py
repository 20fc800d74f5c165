import numpy as np
import pytest
from hypothesis import settings

from raytrans import attenuation as at
from raytrans.geometry import escape_times

# the generated tests draw the same examples on every run and write no
# example database; pytest's --hypothesis-profile=default restores random draws
settings.register_profile("derandomize", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("derandomize")


def _ray_system(coeffs, domain, xs, omega, E, quad, T=None):
    """A ``RaySystem`` of the points ``xs`` for one (direction, energy):
    its nodes placed by ``_ray_groups`` (on the exit times ``T``, computed if
    None) and its weights formed from sigma + shift, group by group.  It is
    the reference the ray systems of ``SweepCache.system`` are checked
    against, and the way tests build one on points that are not a grid."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    omega = np.asarray(omega, dtype=float).reshape(3)
    if T is None:
        T = escape_times(domain, xs, omega)
    groups = []
    for sel, _, pts, width in at._ray_groups(xs, omega, T, quad):
        w, _ = at._ray_geometry(at._node_sigma(coeffs, pts, omega, float(E)), width, quad)
        groups.append((sel, pts.reshape(-1, 3), w))
    return at.RaySystem(omega, float(E), xs.shape[0], groups, quad)


@pytest.fixture(scope="session")
def ray_system():
    """``_ray_system``, the test-side builder of a ray system."""
    return _ray_system
