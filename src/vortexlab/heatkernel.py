"""Drift-kernel bounds and the short-time vorticity propagator.

In dimensionless variables the vorticity is transported by the operator
(1/Re) Delta - phi . grad with |phi_i| <= 1 and stretched by the strain.
For a constant drift the transition kernel is an explicit Gaussian; for a
merely bounded drift it is sandwiched between products of one-dimensional
kernels p^beta evaluated at beta = -sigma and beta = +sigma, with
sigma = sqrt(Re/2).  Since p^beta is pointwise increasing in beta, the
lower envelope is the beta = -sigma product and the upper envelope the
beta = +sigma product.

This module evaluates the kernels and envelopes in overflow-safe combined
exponent form, cross-checks them by adaptive quadrature and by Monte
Carlo sampling of the associated diffusion (endpoints drawn exactly from
their Gaussian law for a constant vector drift, by Euler-Maruyama paths
for a drift callable), and assembles the short-time propagator

    e^{-3 sigma^2 delta / 2} (theta + delta Gamma theta)
        + sigma * (integral of theta over the delta-ball)

together with the exact constant-coefficient propagator that serves as
its oracle.  The vorticity renewal timescale 2 nu / U^2 lives here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy import integrate, linalg, special, stats

from .solver import DimensionlessScaling
from .spectral import Grid, VectorField, to_physical, to_spectral

__all__ = [
    "KernelParams",
    "TimescaleReport",
    "KernelBoundsReport",
    "MonteCarloReport",
    "phi",
    "psi",
    "p_beta",
    "gamma_pm",
    "kernel_bounds_check",
    "monte_carlo_kernel_check",
    "f_pm",
    "f_pm_psi_term",
    "ball_average",
    "short_time_vorticity_step",
    "exact_linear_vorticity_step",
    "vorticity_timescale",
    "dimensionless_timescale",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class KernelParams:
    """Scale pair for the dimensionless kernels.

    sigma = sqrt(Re/2) fixes the molecular diffusivity 1/Re = 1/(2 sigma^2);
    delta is the elapsed time of the step.
    """

    sigma: float
    delta: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def reynolds(self) -> float:
        return 2.0 * self.sigma ** 2

    @classmethod
    def from_reynolds(cls, re: float, delta: float) -> "KernelParams":
        if not re > 0:
            raise ValueError(f"Reynolds number must be positive, got {re}")
        return cls(math.sqrt(re / 2.0), delta)


@dataclass(frozen=True)
class TimescaleReport:
    """Lifetime of vorticity before renewal, 2 nu / U^2.

    The scale contains no length: doubling the domain leaves it unchanged,
    which is the point of the estimate.
    """

    nu: float
    U: float
    t_scale: float
    note: str = "independent of domain size"


def phi(a):
    """Standard normal CDF, via the complementary error function."""
    return 0.5 * special.erfc(-np.asarray(a, dtype=float) / _SQRT2)


def psi(a):
    """Upper normal tail 1 - phi(a)."""
    return 0.5 * special.erfc(np.asarray(a, dtype=float) / _SQRT2)


def p_beta(x, t, y, beta, method: str = "closed"):
    """One-dimensional drift kernel with drift speed beta.

    Closed form (2 pi t)^{-1/2} exp(-(r - beta t)^2 / (2t))
    + beta Psi((r - beta t)/sqrt(t)) with r = |x - y|; combining the
    exponents keeps the value finite where exp(beta r) alone would
    overflow.  method="quadrature" instead integrates
    z exp(-(z - beta sqrt(t))^2 / 2) over z >= r/sqrt(t) adaptively and
    is the independent cross-check path.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError(f"t must be positive, got {t}")
    r = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    b = np.asarray(beta, dtype=float)
    if method == "closed":
        z = (r - b * t_arr) / np.sqrt(t_arr)
        return (np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi * t_arr)
                + b * psi(z))
    if method == "quadrature":
        return _p_beta_quadrature(r, t_arr, b)
    raise ValueError(f"unknown method: {method!r}")


def _p_beta_quadrature(r, t, beta):
    def one(r_, t_, b_):
        lo = r_ / math.sqrt(t_)
        shift = b_ * math.sqrt(t_)
        # integrand is Gaussian around max(shift, lo); 45 sigmas of margin
        hi = max(shift, lo) + 45.0
        val, _ = integrate.quad(
            lambda z: z * math.exp(-0.5 * (z - shift) ** 2),
            lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
        return val / math.sqrt(2.0 * math.pi * t_)

    return np.vectorize(one, otypes=[float])(r, t, beta)[()]


def gamma_pm(xi, x, t, sigma, sign: int = +1):
    """Gaussian kernel of (1/(2 sigma^2)) Delta with unit drift sign*(1,1,1):
    the exact constant-drift kernel that kernel_bounds_check sandwiches.

    Density over x (last axis holds the three components) of a point
    started at xi: center xi + sign*t*(1,1,1), per-axis variance
    t / sigma^2, peak value sigma^3 (2 pi t)^{-3/2}.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _constant_drift_kernel(np.asarray(xi, dtype=float),
                                  np.asarray(x, dtype=float), t, sigma,
                                  sign * np.ones(3))


# ---------------------------------------------------------------------------
# sandwich bounds for the bounded-drift kernel


@dataclass(frozen=True)
class KernelBoundsReport:
    sigma: float
    delta: float
    drift: tuple
    points: int
    lower_min_slack: float
    upper_min_slack: float
    kernel_max: float

    @property
    def min_slack(self) -> float:
        return min(self.lower_min_slack, self.upper_min_slack)

    @property
    def passed(self) -> bool:
        return self.min_slack >= -1e-12

    def as_dict(self) -> dict:
        return {"sigma": self.sigma, "delta": self.delta,
                "drift": list(self.drift), "points": self.points,
                "lower_min_slack": self.lower_min_slack,
                "upper_min_slack": self.upper_min_slack,
                "kernel_max": self.kernel_max,
                "min_slack": self.min_slack, "passed": self.passed}


def _check_unit_drift(drift: np.ndarray) -> np.ndarray:
    drift = np.asarray(drift, dtype=float).reshape(3)
    if np.any(np.abs(drift) > 1.0 + 1e-12):
        raise ValueError(
            f"each drift component must satisfy |phi_i| <= 1, got {drift}")
    return drift


def _constant_drift_kernel(xi, x, delta, sigma, drift):
    # exact kernel: Gaussian centered at xi + drift*delta, variance delta/sigma^2
    diff = sigma * (x - xi - drift * delta)
    q = np.sum(diff * diff, axis=-1)
    return sigma ** 3 * (2.0 * np.pi * delta) ** -1.5 * np.exp(
        -q / (2.0 * delta))


def _envelope(xi, x, delta, sigma, sign):
    # sigma^3 prod_i p^{sign*sigma}(sigma xi_i, delta, sigma x_i)
    vals = p_beta(sigma * xi[..., 0], delta, sigma * x[..., 0], sign * sigma)
    for i in (1, 2):
        vals = vals * p_beta(sigma * xi[..., i], delta, sigma * x[..., i],
                             sign * sigma)
    return sigma ** 3 * vals


def _axis_offsets(drift_i: float, sigma: float, delta: float) -> np.ndarray:
    s = math.sqrt(delta) / sigma
    near = drift_i * delta + s * np.array(
        [-8.0, -4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    coarse = delta * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    return np.unique(np.concatenate([near, coarse]))


def kernel_bounds_check(sigma: float, delta: float,
                        drift) -> KernelBoundsReport:
    """Sandwich the exact constant-drift kernel between the p^{-sigma} and
    p^{+sigma} product envelopes on a separation lattice.

    The lattice covers both the diffusive scale sqrt(delta)/sigma around
    the drifted center and the O(delta) drift scale, for two base points.
    Slacks are absolute; the report passes when the worst one is above
    -1e-12.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    drift = _check_unit_drift(drift)
    base_points = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1]])
    lower_min = np.inf
    upper_min = np.inf
    kernel_max = 0.0
    points = 0
    for xi in base_points:
        axes = [xi[i] + _axis_offsets(drift[i], sigma, delta)
                for i in range(3)]
        x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        exact = _constant_drift_kernel(xi, x, delta, sigma, drift)
        lower = _envelope(xi, x, delta, sigma, -1)
        upper = _envelope(xi, x, delta, sigma, +1)
        lower_min = min(lower_min, float((exact - lower).min()))
        upper_min = min(upper_min, float((upper - exact).min()))
        kernel_max = max(kernel_max, float(exact.max()))
        points += exact.size
    return KernelBoundsReport(
        sigma=sigma, delta=delta, drift=tuple(drift), points=points,
        lower_min_slack=lower_min, upper_min_slack=upper_min,
        kernel_max=kernel_max)


# ---------------------------------------------------------------------------
# Monte Carlo consistency check of the associated diffusion


@dataclass(frozen=True)
class MonteCarloReport:
    """Outcome of one Monte Carlo check.  constant_drift is true when the
    drift was a vector, whose endpoints are drawn exactly; a callable's
    paths take 200 Euler-Maruyama steps."""

    samples: int
    cells: int
    violating_cells: int
    constant_drift: bool
    chi2_statistic: Optional[float]
    chi2_p_value: Optional[float]
    chi2_dof: Optional[int]

    @property
    def violation_fraction(self) -> float:
        return self.violating_cells / self.cells

    def as_dict(self) -> dict:
        return {"samples": self.samples, "cells": self.cells,
                "violating_cells": self.violating_cells,
                "violation_fraction": self.violation_fraction,
                "constant_drift": self.constant_drift,
                "chi2_statistic": self.chi2_statistic,
                "chi2_p_value": self.chi2_p_value,
                "chi2_dof": self.chi2_dof}


DriftLike = Union[Callable[[np.ndarray], np.ndarray], np.ndarray, tuple, list]

_EM_STEPS = 200
# paths per batch; each batch draws from its own child of SeedSequence(seed),
# so this size is part of what a seed fixes
_BATCH_SIZE = 10_000


def _euler_maruyama(fn, x: np.ndarray, delta: float, sigma: float,
                    rng: np.random.Generator) -> None:
    """Advance the paths x (one per row) in place over time delta by
    _EM_STEPS steps."""
    h = delta / _EM_STEPS
    noise_scale = math.sqrt(h) / sigma
    z = np.empty_like(x)
    dx = np.empty_like(x)
    for _ in range(_EM_STEPS):
        drift = np.asarray(fn(x), dtype=float)
        top = np.abs(drift).max()
        if top > 1.0 + 1e-9:
            raise ValueError("drift exceeded the unit bound during "
                             f"sampling: max |phi_i| = {top}")
        # x + drift h + noise_scale Z, in that order; the drift array
        # belongs to the callable and is left as returned
        np.multiply(drift, h, out=dx)
        x += dx
        rng.standard_normal(out=z)
        z *= noise_scale
        x += z


def _cell_extrema(refined: np.ndarray, bins: int):
    """Per-cell max/min of values sampled on the doubled lattice
    (corners, edge midpoints, centers)."""
    hi = np.full((bins,) * 3, -np.inf)
    lo = np.full((bins,) * 3, np.inf)
    for d in itertools.product((0, 1, 2), repeat=3):
        sub = refined[d[0]::2, d[1]::2, d[2]::2][:bins, :bins, :bins]
        np.maximum(hi, sub, out=hi)
        np.minimum(lo, sub, out=lo)
    return hi, lo


def monte_carlo_kernel_check(sigma: float, delta: float,
                             drift_field: DriftLike,
                             samples: int = 100_000, seed: int = 0, *,
                             xi=(0.0, 0.0, 0.0),
                             bins: int = 8) -> MonteCarloReport:
    """Sample the diffusion dX = phi(X) dt + sigma^{-1} dB started at xi
    and compare the empirical density of X_delta with the kernel
    envelopes.

    A drift given as a vector is constant, and with additive noise the
    endpoint law is then exactly N(xi + phi delta, delta/sigma^2 I): each
    endpoint is drawn at once as xi + phi delta + (sqrt(delta)/sigma) Z.
    A drift given as a callable is integrated by Euler-Maruyama with step
    delta/200; the bound |phi_i| <= 1 is enforced on every evaluation.
    Its endpoint law is not known, even where its values look constant,
    so it reports constant_drift false.  Each batch of _BATCH_SIZE paths
    draws from its own child of SeedSequence(seed), so a seed fixes the
    report.

    Cells of a (bins)^3 histogram around the drifted center xi + phi(xi)
    delta are flagged when the density estimate exceeds the upper
    envelope or undercuts the lower one by more than three standard
    errors; the expected count of flagged cells is about zero.  For a
    vector drift the exact product-Gaussian law is known and a
    chi-squared test against it is run as well (cells with expected count
    below 5 are pooled into a rest bucket together with the out-of-window
    mass).
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    xi = np.asarray(xi, dtype=float).reshape(3)
    if callable(drift_field):
        fn, const = drift_field, None
        at_xi = np.asarray(fn(xi[np.newaxis]), dtype=float)
        if at_xi.shape != (1, 3):
            raise ValueError(
                "drift callable must map (N, 3) points to (N, 3) values")
        center = xi + at_xi[0] * delta
    else:
        fn, const = None, _check_unit_drift(drift_field)
        center = xi + const * delta

    s = math.sqrt(delta) / sigma
    children = np.random.SeedSequence(seed).spawn(
        (samples + _BATCH_SIZE - 1) // _BATCH_SIZE)
    pts = np.empty((samples, 3))
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        x = pts[k * _BATCH_SIZE:(k + 1) * _BATCH_SIZE]
        if fn is None:
            rng.standard_normal(out=x)
            x *= s
            x += xi + const * delta
        else:
            x[:] = xi
            _euler_maruyama(fn, x, delta, sigma, rng)

    edges = [center[i] + s * np.linspace(-4.0, 4.0, bins + 1)
             for i in range(3)]
    counts, _ = np.histogramdd(pts, bins=edges)
    cell_volume = float(np.prod([e[1] - e[0] for e in edges]))

    # envelope extrema per cell from a doubled sampling lattice
    fine = [center[i] + s * np.linspace(-4.0, 4.0, 2 * bins + 1)
            for i in range(3)]
    lattice = np.stack(np.meshgrid(*fine, indexing="ij"), axis=-1)
    upper_hi, _ = _cell_extrema(_envelope(xi, lattice, delta, sigma, +1), bins)
    _, lower_lo = _cell_extrema(_envelope(xi, lattice, delta, sigma, -1), bins)

    p_hat = counts / samples
    density = p_hat / cell_volume
    se = np.sqrt(np.maximum(p_hat, 1.0 / samples)
                 * (1.0 - np.minimum(p_hat, 1.0)) / samples) / cell_volume
    violating = int(np.count_nonzero(
        (density - 3.0 * se > upper_hi)
        | (density + 3.0 * se < np.maximum(lower_lo, 0.0))))

    chi2_stat = chi2_p = chi2_dof = None
    if const is not None:
        axis_probs = [np.diff(phi((edges[i] - center[i]) / s))
                      for i in range(3)]
        cell_probs = np.einsum("i,j,k->ijk", *axis_probs)
        expected = samples * cell_probs
        keep = expected >= 5.0
        obs_kept = counts[keep]
        exp_kept = expected[keep]
        rest_obs = samples - obs_kept.sum()
        rest_exp = samples - exp_kept.sum()
        terms = (obs_kept - exp_kept) ** 2 / exp_kept
        chi2_stat = float(terms.sum())
        dof = int(obs_kept.size) - 1
        if rest_exp > 0:
            chi2_stat += float((rest_obs - rest_exp) ** 2 / rest_exp)
            dof += 1
        chi2_dof = dof
        chi2_p = float(stats.chi2.sf(chi2_stat, dof))

    return MonteCarloReport(
        samples=samples, cells=int(counts.size), violating_cells=violating,
        constant_drift=const is not None, chi2_statistic=chi2_stat,
        chi2_p_value=chi2_p, chi2_dof=chi2_dof)


# ---------------------------------------------------------------------------
# scaled one-dimensional kernels f_pm and the short-time propagator


def _f_pm_args(sigma, xi, delta, x, sign):
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    r = np.abs(np.asarray(x, dtype=float) - np.asarray(xi, dtype=float))
    return sigma * (r - sign * delta) / math.sqrt(delta)


def f_pm(sigma, xi, delta, x, sign: int = +1):
    """Scaled drift kernel sigma * p^{sign*sigma}(sigma xi, delta, sigma x).

    Combined-exponent closed form
    sigma (2 pi delta)^{-1/2} exp(-z^2/2) + sign sigma^2 Psi(z) with
    z = sigma (|x - xi| - sign delta)/sqrt(delta); stays finite at
    sigma ~ 1e3 where a split exp(sigma^2 |x - xi|) factor overflows.
    Note the tail term carries sigma^2, not sigma: composing through
    p_beta multiplies the inner beta Psi coefficient by the outer sigma.
    """
    z = _f_pm_args(sigma, xi, delta, x, sign)
    return (sigma / math.sqrt(2.0 * math.pi * delta) * np.exp(-0.5 * z * z)
            + sign * sigma ** 2 * psi(z))


def f_pm_psi_term(sigma, xi, delta, x, sign: int = +1):
    """Tail term of f_pm normalized by one power of sigma:
    sign * sigma * Psi(sigma (|x - xi| - sign delta)/sqrt(delta)).

    As sigma grows at fixed |x - xi| - sign*delta this tends to 0 when
    that combination is positive, to sign*sigma when negative, and to
    sign*sigma/2 exactly at zero, which is the three-case behavior the
    asymptotics checks pin down.
    """
    z = _f_pm_args(sigma, xi, delta, x, sign)
    return sign * sigma * psi(z)


def _ball_indicator(grid: Grid, radius: float) -> np.ndarray:
    # minimum-image distance from the origin sample, one cell per entry
    idx = np.arange(grid.n)
    off = np.minimum(idx, grid.n - idx) * grid.spacing
    d2 = (off[:, None, None] ** 2 + off[None, :, None] ** 2
          + off[None, None, :] ** 2)
    return (d2 < radius * radius).astype(float)


def ball_average(field: VectorField, radius: float) -> np.ndarray:
    """Integral of the field over the ball of given radius around every
    grid point, by direct summation of in-ball samples times the cell
    volume.  Evaluated as a circular convolution with the ball indicator,
    which reproduces the sum exactly; radii below the grid spacing reduce
    to the center sample alone.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    grid = field.grid
    data = field.to_physical().data
    kernel_hat = to_spectral(grid, _ball_indicator(grid, radius))
    conv = to_physical(grid, to_spectral(grid, data) * kernel_hat)
    # forward-normalized transforms leave a 1/n^3; n^3 h^3 is the volume
    return conv * (grid.n ** 3 * grid.spacing ** 3)


def _check_strain_matrix(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if g.shape != (3, 3):
        raise ValueError(f"strain matrix must be 3x3, got shape {g.shape}")
    scale = max(1.0, float(np.abs(g).max()))
    if float(np.abs(g - g.T).max()) > 1e-12 * scale:
        raise ValueError("strain matrix must be symmetric")
    if abs(float(np.trace(g))) > 1e-12 * scale:
        raise ValueError(
            f"strain matrix must be traceless, got trace {np.trace(g)}")
    return g


def short_time_vorticity_step(theta_tau: VectorField, gamma,
                              params: KernelParams) -> VectorField:
    """One short-time step of the vorticity under constant strain:

        e^{-3 sigma^2 delta/2} (theta + delta Gamma theta)
            + sigma * (ball integral of theta of radius delta).

    The memory factor comes from the lower kernel envelope, the ball term
    from the upper one.  Meaningful only while delta is small; beyond
    delta sigma^2 of order ten the memory factor is numerically dead.
    Returns a physical-representation field.
    """
    g = _check_strain_matrix(gamma)
    data = theta_tau.to_physical().data
    memory = math.exp(-1.5 * params.sigma ** 2 * params.delta)
    local = memory * (data + params.delta
                      * np.einsum("ij,j...->i...", g, data))
    ball = ball_average(theta_tau, params.delta)
    return VectorField.physical(theta_tau.grid,
                                local + params.sigma * ball)


def exact_linear_vorticity_step(theta_tau: VectorField, gamma, drift,
                                params: KernelParams) -> VectorField:
    """Exact step of (d/dt + drift . grad - (1/Re) Delta) theta =
    Gamma theta for constant Gamma and constant drift.

    Spectral multiplication by exp(-|k|^2 delta / Re - i k . drift delta)
    followed by the matrix exponential e^{delta Gamma}; the oracle against
    which the short-time approximation converges.  Returned in the
    representation of the input.
    """
    g = np.asarray(gamma, dtype=float)
    if g.shape != (3, 3):
        raise ValueError(f"strain matrix must be 3x3, got shape {g.shape}")
    drift = np.asarray(drift, dtype=float).reshape(3)
    grid = theta_tau.grid
    kx, ky, kz = grid.k
    k2 = kx * kx + ky * ky + kz * kz
    phase = kx * drift[0] + ky * drift[1] + kz * drift[2]
    factor = np.exp(-(k2 / params.reynolds + 1j * phase) * params.delta)
    propagated = theta_tau.to_spectral().data * factor
    stretched = np.einsum("ij,j...->i...", linalg.expm(params.delta * g),
                          propagated)
    out = VectorField.spectral(grid, np.ascontiguousarray(stretched))
    return out.to_physical() if theta_tau.rep == "physical" else out


def vorticity_timescale(nu: float, U: float) -> TimescaleReport:
    """Renewal time 2 nu / U^2 of small-scale vorticity."""
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if not U > 0:
        raise ValueError(f"U must be positive, got {U}")
    return TimescaleReport(nu=nu, U=U, t_scale=2.0 * nu / U ** 2)


def dimensionless_timescale(scaling: DimensionlessScaling) -> float:
    """Dimensionless renewal time 2/Re; multiplied by the advective time
    L/U it gives back 2 nu / U^2 whatever L is."""
    if not scaling.Re > 0:
        raise ValueError(f"Re must be positive, got {scaling.Re}")
    return 2.0 / scaling.Re
