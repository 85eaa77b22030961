"""Kernel evaluation, sandwich bounds, propagator and timescale tests.

Closed forms are pinned against frozen literals and against the
quadrature/series oracles; limits are checked at the parameter extremes
where a naive split-exponential implementation would overflow.
"""

import math

import numpy as np
import pytest
from scipy import stats

import vortexlab as vx
from vortexlab import heatkernel as hk

import oracles

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestPhiPsi:
    def test_quantile_literal(self):
        assert hk.phi(1.959963985) == pytest.approx(0.975, abs=1e-9)

    def test_half_at_zero(self):
        assert hk.phi(0.0) == 0.5
        assert hk.psi(0.0) == 0.5

    def test_complement(self):
        a = np.linspace(-6.0, 6.0, 41)
        assert np.allclose(hk.phi(a) + hk.psi(a), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("a", [-2.0, -0.5, 0.0, 1.0, 2.3])
    def test_tail_against_quadrature(self, a):
        assert hk.psi(a) == pytest.approx(oracles.normal_tail(a), abs=1e-9)

    def test_monotone(self):
        a = np.linspace(-8.0, 8.0, 200)
        assert np.all(np.diff(hk.phi(a)) > 0)


class TestPBeta:
    def test_point_literals(self):
        # r = beta*t puts the Gaussian factor at its peak and Psi at 1/2
        assert hk.p_beta(1.0, 1.0, 0.0, 1.0) == pytest.approx(
            INV_SQRT_2PI + 0.5, abs=1e-15)
        assert hk.p_beta(1.0, 1.0, 0.0, 1.0) == pytest.approx(
            0.8989422804014326, abs=1e-14)
        assert hk.p_beta(0.0, 1.0, 0.0, -1.0) == pytest.approx(
            0.08331547058768629, abs=1e-14)
        assert hk.p_beta(0.0, 1.0, 0.0, 1.0) == pytest.approx(
            1.0833154705876864, abs=1e-14)

    def test_closed_matches_quadrature_method(self):
        r = np.array([0.0, 0.3, 1.0, 2.5])
        for t in (0.25, 1.0, 4.0):
            for b in (-2.0, -1.0, 0.0, 1.5):
                closed = hk.p_beta(r, t, 0.0, b)
                quad = hk.p_beta(r, t, 0.0, b, method="quadrature")
                scale = np.abs(closed).max()
                assert np.abs(closed - quad).max() < 1e-11 * max(scale, 1.0)

    def test_against_independent_simpson(self):
        for r, t, b in [(0.5, 1.0, 0.7), (1.0, 1.0, 1.0), (2.0, 0.5, -1.2)]:
            want = oracles.p_beta_quadrature(r, t, b)
            assert hk.p_beta(r, t, 0.0, b) == pytest.approx(want, abs=1e-11)

    def test_symmetric_in_x_y(self):
        assert hk.p_beta(0.3, 0.7, 1.1, 0.4) == hk.p_beta(1.1, 0.7, 0.3, 0.4)

    def test_increasing_in_beta(self):
        betas = np.linspace(-3.0, 3.0, 25)
        vals = hk.p_beta(0.8, 0.5, 0.0, betas)
        assert np.all(np.diff(vals) > 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="t must be positive"):
            hk.p_beta(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="unknown method"):
            hk.p_beta(0.0, 1.0, 0.0, 1.0, method="series")

    def test_large_beta_stays_finite(self):
        # exp(beta*r) alone is ~1e434 here; the combined exponent is tame
        val = hk.p_beta(1.0, 1.0, 0.0, 1000.0)
        assert np.isfinite(val)
        assert val == pytest.approx(1000.0 * hk.psi(-999.0) + float(
            np.exp(-0.5 * 999.0 ** 2) * INV_SQRT_2PI), rel=1e-12)


class TestGammaPm:
    def test_coincident_point_literal(self):
        xi = np.array([0.4, -1.0, 0.2])
        want = (2.0 * math.pi) ** -1.5 * math.exp(-1.5)
        assert want == pytest.approx(0.014167345154413286, abs=1e-17)
        for sign in (+1, -1):
            assert hk.gamma_pm(xi, xi, 1.0, 1.0, sign) == pytest.approx(
                want, rel=1e-14)

    def test_peak_at_drifted_center(self):
        sigma, t = 2.0, 0.1
        xi = np.zeros(3)
        center = xi + t * np.ones(3)
        peak = hk.gamma_pm(xi, center, t, sigma, +1)
        assert peak == pytest.approx(sigma ** 3 * (2 * math.pi * t) ** -1.5,
                                     rel=1e-14)
        off = center + 0.3 * np.array([1.0, -1.0, 0.5])
        assert hk.gamma_pm(xi, off, t, sigma, +1) < peak

    def test_normalization_by_riemann_sum(self):
        sigma, t = 2.0, 0.1
        std = math.sqrt(t) / sigma
        ax = t + np.linspace(-8 * std, 8 * std, 121)
        pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
        vals = hk.gamma_pm(np.zeros(3), pts, t, sigma, +1)
        h = ax[1] - ax[0]
        assert float(vals.sum()) * h ** 3 == pytest.approx(1.0, abs=1e-8)

    def test_validation(self):
        xi = np.zeros(3)
        with pytest.raises(ValueError, match="t must be positive"):
            hk.gamma_pm(xi, xi, 0.0, 1.0)
        with pytest.raises(ValueError, match="sigma"):
            hk.gamma_pm(xi, xi, 1.0, -1.0)
        with pytest.raises(ValueError, match="sign"):
            hk.gamma_pm(xi, xi, 1.0, 1.0, sign=2)


class TestKernelParams:
    def test_reynolds_relation(self):
        p = hk.KernelParams(sigma=10.0, delta=0.01)
        assert p.reynolds == pytest.approx(200.0, rel=1e-15)
        q = hk.KernelParams.from_reynolds(200.0, 0.01)
        assert q.sigma == pytest.approx(10.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            hk.KernelParams(sigma=0.0, delta=0.1)
        with pytest.raises(ValueError):
            hk.KernelParams(sigma=1.0, delta=0.0)
        with pytest.raises(ValueError):
            hk.KernelParams.from_reynolds(-10.0, 0.1)


class TestSandwichBounds:
    def test_direct_zero_drift_sandwich(self):
        # envelopes rebuilt from f_pm products, exact kernel written out
        # by hand: an independent route to what kernel_bounds_check does
        sigma, delta = 3.0, 0.05
        xi = np.array([0.1, -0.2, 0.3])
        offs = np.linspace(-0.6, 0.6, 13)
        pts = xi + np.stack(np.meshgrid(offs, offs, offs, indexing="ij"),
                            axis=-1)
        q = np.sum((pts - xi) ** 2, axis=-1)
        exact = sigma ** 3 * (2 * math.pi * delta) ** -1.5 * np.exp(
            -sigma ** 2 * q / (2 * delta))
        lower = np.ones_like(exact)
        upper = np.ones_like(exact)
        for i in range(3):
            lower = lower * hk.f_pm(sigma, xi[i], delta, pts[..., i], -1)
            upper = upper * hk.f_pm(sigma, xi[i], delta, pts[..., i], +1)
        peak = float(exact.max())
        assert float((exact - lower).min()) >= -1e-12 * peak
        assert float((upper - exact).min()) >= -1e-12 * peak

    @pytest.mark.parametrize("re", [10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 1e-1])
    def test_report_passes_for_unit_drifts(self, re, delta):
        sigma = math.sqrt(re / 2.0)
        for drift in [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]:
            rep = hk.kernel_bounds_check(sigma, delta, drift)
            assert rep.passed, rep.as_dict()
            assert rep.min_slack >= -1e-12
            assert rep.points > 0
            assert rep.kernel_max > 0

    def test_mixed_drift_and_dict(self):
        rep = hk.kernel_bounds_check(5.0, 0.02, (1.0, -0.5, 0.3))
        assert rep.passed
        d = rep.as_dict()
        assert d["min_slack"] == min(d["lower_min_slack"],
                                     d["upper_min_slack"])

    def test_rejects_superunit_drift(self):
        with pytest.raises(ValueError, match="phi_i"):
            hk.kernel_bounds_check(5.0, 0.02, (1.5, 0.0, 0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            hk.kernel_bounds_check(0.0, 0.02, (0, 0, 0))
        with pytest.raises(ValueError):
            hk.kernel_bounds_check(5.0, -0.1, (0, 0, 0))


class TestFPm:
    def test_sigma_one_reduces_to_p_beta(self):
        xs = np.linspace(-2.0, 2.0, 17)
        for sign in (+1, -1):
            got = hk.f_pm(1.0, 0.3, 0.7, xs, sign)
            want = hk.p_beta(0.3, 0.7, xs, float(sign))
            assert np.allclose(got, want, rtol=1e-14, atol=0)

    def test_order(self):
        xs = np.linspace(-3.0, 3.0, 31)
        low = hk.f_pm(4.0, 0.0, 0.1, xs, -1)
        high = hk.f_pm(4.0, 0.0, 0.1, xs, +1)
        assert np.all(high - low >= 0)

    def test_finite_at_large_sigma(self):
        for sign in (+1, -1):
            assert np.isfinite(hk.f_pm(1e3, 0.0, 1e-2, 2.0, sign))

    @pytest.mark.parametrize("sigma", [10.0, 100.0, 1000.0])
    def test_psi_term_three_cases(self, sigma):
        delta = 0.5
        # positive combination |x - xi| - delta: the tail dies
        assert abs(hk.f_pm_psi_term(sigma, 0.0, delta, 1.0, +1)) < 1e-9
        # zero combination: exactly half the drift speed survives
        assert hk.f_pm_psi_term(sigma, 0.0, delta, 0.5, +1) == sigma / 2.0
        assert hk.f_pm_psi_term(sigma, 0.0, delta, 0.5, -1) == pytest.approx(
            -sigma * hk.psi(sigma * 1.0 / math.sqrt(delta)), rel=1e-12)
        # negative combination: the full drift speed survives
        neg = hk.f_pm_psi_term(sigma, 0.0, delta, 0.2, +1)
        assert abs(neg / sigma - 1.0) < 2e-4
        if sigma >= 100.0:
            assert neg == sigma

    def test_psi_term_limit_tightens_with_sigma(self):
        vals = [abs(hk.f_pm_psi_term(s, 0.0, 0.5, 0.2, +1) / s - 1.0)
                for s in (10.0, 100.0)]
        assert vals[1] < vals[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            hk.f_pm(-1.0, 0.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            hk.f_pm(1.0, 0.0, -0.1, 0.0)
        with pytest.raises(ValueError):
            hk.f_pm(1.0, 0.0, 0.1, 0.0, sign=0)


class TestBallAverage:
    def test_subgrid_radius_hits_center_sample_only(self):
        grid = vx.Grid(8)
        rng = np.random.default_rng(2)
        v = vx.VectorField.physical(grid, rng.standard_normal((3,) + grid.shape))
        out = hk.ball_average(v, 0.5 * grid.spacing)
        want = v.data * grid.spacing ** 3
        assert np.allclose(out, want, rtol=1e-12, atol=1e-15)

    def test_matches_direct_periodic_sum(self):
        grid = vx.Grid(16)
        rng = np.random.default_rng(3)
        v = vx.VectorField.physical(grid, rng.standard_normal((3,) + grid.shape))
        radius = 0.7
        out = hk.ball_average(v, radius)
        for c in range(3):
            want = oracles.ball_sum_direct(v.data[c], radius)
            assert np.abs(out[c] - want).max() < 1e-12 * np.abs(want).max()

    def test_validation(self):
        grid = vx.Grid(8)
        v = vx.VectorField.physical(grid, np.zeros((3,) + grid.shape))
        with pytest.raises(ValueError, match="radius"):
            hk.ball_average(v, 0.0)


def _single_mode_theta(n):
    grid = vx.Grid(n)
    _, _, z = grid.coordinates()
    f = np.broadcast_to(np.sin(z), grid.shape).copy()
    return vx.VectorField.physical(grid, np.stack([f, 0 * f, 0 * f]))


class TestShortTimePropagator:
    def test_constant_field_formula(self):
        # theta = const: ball integral is const * (discrete ball volume)
        grid = vx.Grid(16)
        c = np.array([0.7, -0.3, 1.1])
        data = np.ones((3,) + grid.shape) * c[:, None, None, None]
        theta = vx.VectorField.physical(grid, data)
        gamma = np.diag([1.0, -0.5, -0.5])
        params = hk.KernelParams(sigma=2.0, delta=0.5)

        idx = np.arange(grid.n)
        off = np.minimum(idx, grid.n - idx) * grid.spacing
        d2 = (off[:, None, None] ** 2 + off[None, :, None] ** 2
              + off[None, None, :] ** 2)
        v_disc = np.count_nonzero(d2 < params.delta ** 2) * grid.spacing ** 3

        memory = math.exp(-1.5 * params.sigma ** 2 * params.delta)
        want = memory * (c + params.delta * gamma @ c) + params.sigma * v_disc * c
        out = hk.short_time_vorticity_step(theta, gamma, params)
        assert out.rep == "physical"
        flat = out.data.reshape(3, -1)
        assert np.abs(flat - want[:, None]).max() < 1e-12 * np.abs(want).max()

    def test_difference_to_exact_decreases_with_delta(self):
        theta = _single_mode_theta(32)
        gamma = np.diag([1.0, -0.5, -0.5])
        diffs = []
        for delta in (0.02, 0.01, 0.005):
            params = hk.KernelParams.from_reynolds(100.0, delta)
            approx = hk.short_time_vorticity_step(theta, gamma, params)
            exact = hk.exact_linear_vorticity_step(theta, gamma,
                                                   (0.0, 0.0, 0.0), params)
            diffs.append(float(np.abs(approx.data
                                      - exact.to_physical().data).max()))
        assert diffs[0] > diffs[1] > diffs[2], diffs

    def test_strain_matrix_validation(self):
        theta = _single_mode_theta(8)
        params = hk.KernelParams(sigma=1.0, delta=0.1)
        with pytest.raises(ValueError, match="symmetric"):
            hk.short_time_vorticity_step(theta, [[0, 1, 0], [0, 0, 0],
                                                 [0, 0, 0]], params)
        with pytest.raises(ValueError, match="traceless"):
            hk.short_time_vorticity_step(theta, np.eye(3), params)
        with pytest.raises(ValueError, match="3x3"):
            hk.short_time_vorticity_step(theta, np.zeros((2, 2)), params)


class TestExactLinearStep:
    def test_tiny_delta_is_identity(self):
        theta = _single_mode_theta(8)
        params = hk.KernelParams(sigma=1.0, delta=1e-300)
        out = hk.exact_linear_vorticity_step(theta, np.diag([1.0, -0.5, -0.5]),
                                             (1.0, 1.0, 1.0), params)
        assert out.rep == "physical"
        assert np.abs(out.data - theta.data).max() < 1e-12

    def test_pure_drift_translates_one_cell(self):
        grid = vx.Grid(16)
        rng = np.random.default_rng(4)
        theta = vx.VectorField.physical(
            grid, rng.standard_normal((3,) + grid.shape))
        delta = 0.25
        drift = (grid.spacing / delta, 0.0, 0.0)
        params = hk.KernelParams(sigma=1e6, delta=delta)  # diffusionless limit
        out = hk.exact_linear_vorticity_step(theta, np.zeros((3, 3)), drift,
                                             params)
        want = np.roll(theta.data, 1, axis=1)
        assert np.abs(out.data - want).max() < 1e-9

    def test_strain_exponential_against_series(self):
        theta = _single_mode_theta(8)
        gamma = np.array([[0.3, 0.2, 0.0], [0.2, -0.1, 0.4],
                          [0.0, 0.4, -0.2]])
        params = hk.KernelParams(sigma=2.0, delta=0.3)
        out = hk.exact_linear_vorticity_step(theta, gamma, (0.0, 0.0, 0.0),
                                             params)
        grid = theta.grid
        k2 = sum(np.asarray(k) ** 2 for k in grid.k)
        factor = np.exp(-k2 * params.delta / params.reynolds)
        spec = theta.to_spectral().data * factor
        propagated = vx.VectorField.spectral(grid, spec).to_physical().data
        mat = oracles.expm_taylor(params.delta * gamma)
        want = np.einsum("ij,j...->i...", mat, propagated)
        assert np.abs(out.data - want).max() < 1e-12

    def test_rep_follows_input(self):
        theta = _single_mode_theta(8).to_spectral()
        params = hk.KernelParams(sigma=1.0, delta=0.1)
        out = hk.exact_linear_vorticity_step(theta, np.zeros((3, 3)),
                                             (0.0, 0.0, 0.0), params)
        assert out.rep == "spectral"


class TestTimescale:
    def test_values(self):
        rep = hk.vorticity_timescale(1.5e-5, 10.0)
        assert rep.t_scale == pytest.approx(3.0e-7, rel=1e-12)
        assert hk.vorticity_timescale(1e-6, 1.0).t_scale == pytest.approx(
            2.0e-6, rel=1e-12)
        assert "independent" in rep.note

    def test_validation(self):
        with pytest.raises(ValueError):
            hk.vorticity_timescale(0.0, 1.0)
        with pytest.raises(ValueError):
            hk.vorticity_timescale(1e-6, -1.0)

    def test_dimensionless_form_ignores_length(self):
        a = vx.DimensionlessScaling(L=1.0, U=2.0, nu=1e-4)
        b = vx.DimensionlessScaling(L=7.0, U=2.0, nu=1e-4)
        # same 2 nu / U^2 once the advective time kappa is restored
        assert hk.dimensionless_timescale(a) * a.kappa == pytest.approx(
            2 * a.nu / a.U ** 2, rel=1e-14)
        assert hk.dimensionless_timescale(b) * b.kappa == pytest.approx(
            2 * b.nu / b.U ** 2, rel=1e-14)
        assert hk.dimensionless_timescale(a) * a.kappa == pytest.approx(
            hk.dimensionless_timescale(b) * b.kappa, rel=1e-14)


class TestMonteCarlo:
    def test_constant_drift_agrees(self):
        rep = hk.monte_carlo_kernel_check(math.sqrt(50.0), 0.01,
                                          (0.0, 0.0, 0.0), samples=20000,
                                          seed=0)
        assert rep.violating_cells == 0
        assert rep.constant_drift
        assert rep.cells == 8 ** 3
        assert rep.chi2_p_value is not None and rep.chi2_p_value > 1e-3
        assert rep.violation_fraction == 0.0

    def test_bounded_variable_drift(self):
        rep = hk.monte_carlo_kernel_check(math.sqrt(50.0), 0.01, np.sin,
                                          samples=20000, seed=1)
        assert rep.violating_cells == 0
        assert not rep.constant_drift
        assert rep.chi2_p_value is None

    def test_drift_bound_enforced_during_sampling(self):
        def too_fast(x):
            return np.full_like(x, 2.0)

        with pytest.raises(ValueError, match="unit bound"):
            hk.monte_carlo_kernel_check(2.0, 0.01, too_fast, samples=64)

    def test_callable_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            hk.monte_carlo_kernel_check(2.0, 0.01, lambda x: x[..., 0],
                                        samples=64)

    def test_validation(self):
        with pytest.raises(ValueError):
            hk.monte_carlo_kernel_check(2.0, 0.01, (0, 0, 0), samples=0)
        with pytest.raises(ValueError):
            hk.monte_carlo_kernel_check(2.0, 0.01, (0, 0, 0), samples=10,
                                        bins=1)

    def test_seeded_reports_are_reproducible(self):
        kw = dict(samples=5000, seed=7)
        a = hk.monte_carlo_kernel_check(3.0, 0.02, (1.0, 0.0, -1.0), **kw)
        b = hk.monte_carlo_kernel_check(3.0, 0.02, (1.0, 0.0, -1.0), **kw)
        assert a == b


class TestMonteCarloSampler:
    """A vector drift is drawn exactly; a callable always runs the loop."""

    SIGMA, DELTA = 3.0, 0.02

    @staticmethod
    def counting(fn):
        calls = []

        def wrapped(points):
            calls.append(len(points))
            return fn(points)

        return wrapped, calls

    def test_constant_callable_runs_the_loop_against_the_exact_law(self):
        # with additive noise and a constant drift the endpoints of the
        # loop are N(xi + c delta, delta / sigma^2 I); chi-squared over 6^3
        # equiprobable cells of that law
        const = np.array([0.5, -0.3, 0.0])
        drift, calls = self.counting(
            lambda p: np.broadcast_to(const, p.shape))
        xi = np.array([0.2, -0.1, 0.3])
        samples = 20000
        x = np.tile(xi, (samples, 1))
        hk._euler_maruyama(drift, x, self.DELTA, self.SIGMA,
                           np.random.default_rng(3))
        assert len(calls) == 200
        z = (x - (xi + const * self.DELTA)) / (math.sqrt(self.DELTA)
                                               / self.SIGMA)
        edges = stats.norm.ppf(np.linspace(0.0, 1.0, 7))
        counts, _ = np.histogramdd(z, bins=[edges] * 3)
        expected = samples / counts.size
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, counts.size - 1) > 1e-3

        calls.clear()
        rep = hk.monte_carlo_kernel_check(self.SIGMA, self.DELTA, drift,
                                          samples=20000, seed=3)
        # the drift at xi, then 200 steps for each of the two batches
        assert len(calls) == 1 + 2 * 200
        assert not rep.constant_drift and rep.chi2_p_value is None
        assert rep.violating_cells == 0

    def test_callable_constant_on_probes_only_runs_the_loop(self):
        # zero on every probe point {-1, 0, 1}^3, not elsewhere
        drift, calls = self.counting(lambda p: 0.9 * np.sin(np.pi * p))
        rep = hk.monte_carlo_kernel_check(self.SIGMA, self.DELTA, drift,
                                          samples=2000, seed=0)
        assert not rep.constant_drift
        assert len(calls) > 2

    def test_callable_gets_no_chi2_and_is_centred_at_its_value(
            self, monkeypatch):
        # 0.9 sin(pi p) vanishes on the points {-1, 0, 1}^3 but not at xi
        xi = np.array([0.5, 0.5, 0.5])
        bins = []
        histogramdd = np.histogramdd

        def capture(pts, *args, **kwargs):
            bins.append(kwargs["bins"])
            return histogramdd(pts, *args, **kwargs)

        monkeypatch.setattr(np, "histogramdd", capture)
        rep = hk.monte_carlo_kernel_check(
            self.SIGMA, self.DELTA, lambda p: 0.9 * np.sin(np.pi * p),
            samples=20000, seed=0, xi=xi)
        assert not rep.constant_drift
        assert rep.chi2_statistic is None and rep.chi2_p_value is None
        assert rep.violating_cells == 0
        (edges,) = bins
        centre = [0.5 * (e[0] + e[-1]) for e in edges]
        assert centre == pytest.approx(xi + 0.9 * self.DELTA, abs=1e-15)

    def test_vector_drift_is_drawn_exactly(self, monkeypatch):
        def no_loop(*args, **kwargs):
            raise AssertionError("the step loop ran for a vector drift")

        monkeypatch.setattr(hk, "_euler_maruyama", no_loop)
        rep = hk.monte_carlo_kernel_check(self.SIGMA, self.DELTA,
                                          np.array([1.0, 0.0, -1.0]),
                                          samples=5000, seed=2)
        assert rep.constant_drift and rep.as_dict()["constant_drift"]

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_draw_has_the_drifted_law(self, monkeypatch, seed):
        xi = np.array([0.2, -0.1, 0.3])
        drift = np.array([1.0, 0.0, -1.0])
        samples = 20000
        drawn = []
        histogramdd = np.histogramdd

        def capture(pts, *args, **kwargs):
            drawn.append(np.array(pts))
            return histogramdd(pts, *args, **kwargs)

        monkeypatch.setattr(np, "histogramdd", capture)
        rep = hk.monte_carlo_kernel_check(self.SIGMA, self.DELTA, drift,
                                          samples=samples, seed=seed, xi=xi)
        (pts,) = drawn
        se = math.sqrt(self.DELTA) / self.SIGMA / math.sqrt(samples)
        assert np.all(np.abs(pts.mean(axis=0) - (xi + drift * self.DELTA))
                      < 5.0 * se)
        assert rep.violating_cells == 0
        assert rep.chi2_p_value > 1e-3

    def test_superunit_vector_drift_refused(self):
        with pytest.raises(ValueError, match=r"\|phi_i\| <= 1"):
            hk.monte_carlo_kernel_check(self.SIGMA, self.DELTA,
                                        (0.0, 1.5, 0.0), samples=64)
