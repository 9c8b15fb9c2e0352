import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

from antoine.geom3 import point_circle_distance
from antoine.necklace import build_necklace, validate_necklace

# smallest even multiplicity whose construction passes every validation
# check at the default certificate grids; rederived by the acceptance suite
M_STAR = 40


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc (Python objects and numpy buffers) sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def torus_membership(torus, p, tol=1e-12):
    """Direct containment oracle for the classifier tests: "inside", "boundary" or "outside"
    the solid torus, with a boundary band of width 2*tol."""
    d = point_circle_distance(torus.core, p)
    return "inside" if d < torus.tube - tol else "outside" if d > torus.tube + tol else "boundary"


settings.register_profile(
    "suite", max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def necklace16():
    return build_necklace(16)


@pytest.fixture(scope="session")
def necklace40():
    return build_necklace(M_STAR)


@pytest.fixture(scope="session")
def geometry_report40(necklace40):
    # geometric checks only; the full run including linking happens once, in
    # the acceptance suite
    return validate_necklace(necklace40, check_linking=False)
