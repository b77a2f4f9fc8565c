import pytest

from hypoflow import GridSpec, build_grid


@pytest.fixture(scope="session")
def grid_small():
    """Cheap grid for algebraic checks."""
    return build_grid(GridSpec(dim=1, nx=32, nv=16))


@pytest.fixture(scope="session")
def grid_accept():
    """The resolution the acceptance suite runs at."""
    return build_grid(GridSpec(dim=1, nx=64, nv=32))


@pytest.fixture(scope="session")
def grid_2d():
    return build_grid(GridSpec(dim=2, nx=16, nv=8))
