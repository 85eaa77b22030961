import numpy as np
import pytest
import scipy.fft

import vortexlab as vx
from vortexlab import spectral as spx


def pytest_collection_modifyitems(items):
    # the long_runs decays take most of the suite's time
    for item in items:
        if "long_runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


def band_limited_random_velocity(n=32, max_mode=8.0, seed=1234,
                                 box_length=2 * np.pi):
    """Seeded random divergence-free velocity band-limited to |m| < max_mode."""
    grid = vx.Grid(n, box_length)
    rng = np.random.default_rng(seed)
    ch = spx.to_spectral(grid, rng.standard_normal((3,) + grid.shape))
    ch = spx.spec_band_limit(grid, ch, max_mode)
    ch = spx.spec_project(grid, ch)
    ch[..., 0, 0, 0] = 0.0
    return vx.VectorField(grid, ch, "spectral")


# Band inside which the masked nonlinear term equals the exact continuum one,
# so chain-rule evolution residuals close at roundoff.
def evolution_band(n):
    return ((n - 1) // 3) // 2 + 1


@pytest.fixture(scope="session")
def grid16():
    return vx.Grid(16)


@pytest.fixture(scope="session")
def grid32():
    return vx.Grid(32)


@pytest.fixture(scope="session")
def band8_field():
    """The n=32, |m| < 8 seeded field the exactness checks run on."""
    return band_limited_random_velocity(32, 8.0, seed=1234)


@pytest.fixture(scope="session")
def tg_state():
    grid = vx.Grid(32)
    return vx.initial_condition("taylor_green", grid, re=100.0)


@pytest.fixture(scope="session")
def ev_state():
    """Random state narrow enough for exact evolution residuals, n=32."""
    u = band_limited_random_velocity(32, float(evolution_band(32)), seed=77)
    return vx.FlowState(u, t=0.0, re=200.0)


@pytest.fixture
def fft_fields(monkeypatch):
    """Counts of scalar fields transformed forward and inverse while the
    test runs, through a wrapper on the transform backend."""
    fields = {"forward": 0, "inverse": 0}

    class CountingFFT:
        def rfftn(self, values, **kw):
            fields["forward"] += values.size // values.shape[-1] ** 3
            return scipy.fft.rfftn(values, **kw)

        def irfftn(self, coeffs, s, **kw):
            fields["inverse"] += coeffs.size // (s[0] * s[1]
                                                 * (s[2] // 2 + 1))
            return scipy.fft.irfftn(coeffs, s=s, **kw)

    monkeypatch.setattr(spx, "_fft", CountingFFT())
    return fields
