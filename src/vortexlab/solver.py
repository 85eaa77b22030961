"""Decaying incompressible Navier-Stokes in spectral form, plus the
evolution-equation residual checks.

The state is the divergence-free spectral velocity.  The right-hand side is
nu lap(u) - P[(u . grad) u] with P the Leray projection; the advective term
is assembled in rotational form (u x omega), whose gradient part P removes
mode by mode, so the two forms agree exactly after projection and masking.
Time stepping is classical RK4 on the nonlinear term with the viscous
factor exp(-nu |k|^2 dt) applied exactly.

Residual checks differentiate ns_rhs by the chain rule instead of finite
differencing, so every evolution equation becomes an algebraic identity at
a single state.  On states band-limited to half the dealias band the masked
right-hand side coincides with the exact one and the residuals sit at
roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .identities import (
    ResidualReport,
    _advective_flux,
    _dot,
    _pressure_flux,
    _report,
    _viscous_flux,
)
from .kinematics import Workspace, _require_solenoidal
from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    physical_gradient,
    spec_divergence,
    spec_project,
    spectral_mean_square,
    to_physical,
    to_spectral,
    unpack_symmetric,
)

__all__ = [
    "CFLViolation",
    "NumericalAbort",
    "FlowState",
    "SolverConfig",
    "DimensionlessScaling",
    "leray_project",
    "pressure_from_velocity",
    "ns_rhs",
    "step",
    "initial_condition",
    "nondimensionalize",
    "redimensionalize",
    "evolution_workspaces",
    "evolution_residual",
    "EVOLUTION_CHECKS",
]


class CFLViolation(RuntimeError):
    """Raised when dt exceeds the advective stability bound."""

    def __init__(self, dt: float, bound: float, max_speed: float, t: float):
        self.dt = dt
        self.bound = bound
        self.max_speed = max_speed
        self.t = t
        super().__init__(
            f"CFL violation at t={t:.6g}: dt={dt:.6g} exceeds bound "
            f"{bound:.6g} (max |u| = {max_speed:.6g})"
        )


class NumericalAbort(RuntimeError):
    """Raised when a step produces a state that FlowState refuses, such as
    one with non-finite values; t is the time that state would have had."""

    def __init__(self, message: str, t: float):
        self.t = t
        super().__init__(f"numerical abort at t={t:.6g}: {message}")


@dataclass(frozen=True)
class FlowState:
    """Divergence-free spectral velocity with time and viscosity parameters.

    Exactly one of nu (dimensional) or re (dimensionless) must be given;
    the advancing equations always use effective_viscosity, which is nu or
    1/re respectively.
    """

    u: VectorField
    t: float = 0.0
    nu: Optional[float] = None
    re: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.u, VectorField) or self.u.rep != "spectral":
            raise ValueError("FlowState stores a spectral VectorField")
        if (self.nu is None) == (self.re is None):
            raise ValueError("give exactly one of nu (dimensional) or re "
                             "(dimensionless)")
        param = self.nu if self.nu is not None else self.re
        if not (np.isfinite(param) and param > 0):
            raise ValueError(f"viscosity parameter must be positive, got {param}")
        _require_solenoidal(self.u.grid, self.u.data, "state velocity")

    @property
    def mode(self) -> str:
        return "dimensional" if self.nu is not None else "dimensionless"

    @property
    def effective_viscosity(self) -> float:
        return self.nu if self.nu is not None else 1.0 / self.re

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def velocity_physical(self) -> VectorField:
        return self.u.to_physical()

    def mean_square_velocity(self) -> float:
        return spectral_mean_square(self.grid, self.u.data)


@dataclass(frozen=True)
class SolverConfig:
    """Step size and run extent; dealiasing and the RK4 scheme are fixed."""

    dt: float
    t_end: float
    output_interval: float = 0.05
    cfl_constant: float = 0.5

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end > 0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not (self.output_interval > 0):
            raise ValueError(
                f"output_interval must be positive, got {self.output_interval}")
        if not (0 < self.cfl_constant <= 1):
            raise ValueError(
                f"cfl_constant must lie in (0, 1], got {self.cfl_constant}")


@dataclass(frozen=True)
class DimensionlessScaling:
    """Reference scales L (length), U (max velocity), kappa = L/U, Re = UL/nu."""

    L: float
    U: float
    kappa: float = None
    Re: float = None
    nu: float = None

    def __post_init__(self):
        if not (self.L > 0 and self.U > 0):
            raise ValueError("scales L and U must be positive")
        if self.kappa is None:
            object.__setattr__(self, "kappa", self.L / self.U)
        if self.Re is None:
            if self.nu is None:
                raise ValueError("give Re directly or nu to derive it")
            object.__setattr__(self, "Re", self.U * self.L / self.nu)
        if self.nu is None:
            object.__setattr__(self, "nu", self.U * self.L / self.Re)
        if not (self.Re > 0):
            raise ValueError(f"Re must be positive, got {self.Re}")
        if abs(self.kappa * self.U - self.L) > 1e-12 * self.L:
            raise ValueError("kappa inconsistent with L/U beyond 1e-12")
        if abs(self.Re * self.nu - self.U * self.L) > 1e-12 * self.U * self.L:
            raise ValueError("Re inconsistent with U L / nu beyond 1e-12")


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part of v; output divergence vanishes spectrally."""
    if v.rep == "spectral":
        return VectorField(v.grid, spec_project(v.grid, v.data), "spectral")
    vh = spec_project(v.grid, to_spectral(v.grid, v.data))
    return VectorField(v.grid, to_physical(v.grid, vh), "physical")


def pressure_from_velocity(u: VectorField,
                           workspace: Optional[Workspace] = None
                           ) -> ScalarField:
    """Zero-mean pressure with lap(p) = -div((u . grad) u)."""
    ws = Workspace.of(u, workspace)
    _require_solenoidal(ws.grid, ws.uh, "velocity of the pressure solve")
    if u.rep == "physical":
        return ScalarField(ws.grid, to_physical(ws.grid, ws.ph), "physical")
    return ScalarField(ws.grid, ws.ph, "spectral")


def _nonlinear(ws: Workspace, dealias: bool = True) -> np.ndarray:
    """Projected (and masked) spectral u x omega of the workspace's velocity;
    the one form of the nonlinear term, shared by step and ns_rhs."""
    ch = ws.lamb_h
    if dealias:
        ch = ch * ws.grid.dealias_mask
    return spec_project(ws.grid, ch)


def _stage(grid: Grid, uh: np.ndarray) -> Workspace:
    return Workspace(VectorField(grid, uh, "spectral"))


def ns_rhs(state: FlowState, dealias: bool = True,
           workspace: Optional[Workspace] = None) -> VectorField:
    """du/dt = nu lap(u) - P[(u . grad) u], spectral and solenoidal;
    `workspace`, that of state.u, lends its samples of u and omega."""
    grid = state.grid
    nl = _nonlinear(Workspace.of(state.u, workspace), dealias)
    rhs = nl - (state.effective_viscosity * grid.k2) * state.u.data
    return VectorField(grid, rhs, "spectral")


# Integrating factors depend only on (n, L, nu, h); k2 is a pure function of
# the first two, so caching on those keys is safe across Grid instances.
_FACTOR_CACHE: dict = {}


def _viscous_factors(grid: Grid, nu: float, h: float):
    key = (grid.n, grid.box_length, float(nu), float(h))
    hit = _FACTOR_CACHE.get(key)
    if hit is None:
        if len(_FACTOR_CACHE) >= 16:
            _FACTOR_CACHE.clear()
        hit = (np.exp((-nu * h) * grid.k2), np.exp((-0.5 * nu * h) * grid.k2))
        _FACTOR_CACHE[key] = hit
    return hit


def step(state: FlowState, config: SolverConfig) -> FlowState:
    """One RK4 step with the viscous factor exp(-nu |k|^2 dt) applied exactly."""
    grid = state.grid
    h = config.dt
    nu = state.effective_viscosity
    e_full, e_half = _viscous_factors(grid, nu, h)

    uh = state.u.data
    first = Workspace(state.u)
    n1 = _nonlinear(first)
    speed = math.sqrt(float((first.up * first.up).sum(axis=0).max()))
    del first
    if speed > 0.0:
        bound = config.cfl_constant * grid.spacing / speed
        if h > bound:
            raise CFLViolation(h, bound, speed, state.t)
    n2 = _nonlinear(_stage(grid, e_half * (uh + (0.5 * h) * n1)))
    n3 = _nonlinear(_stage(grid, e_half * uh + (0.5 * h) * n2))
    n4 = _nonlinear(_stage(grid, e_full * uh + h * (e_half * n3)))
    new = e_full * uh + (h / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
    try:
        return FlowState(VectorField(grid, new, "spectral"),
                         t=state.t + h, nu=state.nu, re=state.re)
    except ValueError as exc:
        # the input state was valid, so the step itself broke it
        raise NumericalAbort(str(exc), state.t + h) from exc


# ---------------------------------------------------------------------------
# initial conditions

def _taylor_green(grid: Grid) -> np.ndarray:
    x, y, z = grid.coordinates()
    u = np.zeros((3,) + grid.shape)
    u[0] = np.sin(x) * np.cos(y) * np.cos(z)
    u[1] = -np.cos(x) * np.sin(y) * np.cos(z)
    return u


def _abc(grid: Grid, A: float, B: float, C: float) -> np.ndarray:
    x, y, z = grid.coordinates()
    u = np.empty((3,) + grid.shape)
    u[0] = A * np.sin(z) + C * np.cos(y)
    u[1] = B * np.sin(x) + A * np.cos(z)
    u[2] = C * np.sin(y) + B * np.cos(x)
    return u


def _random_isotropic(grid: Grid, k0: float, energy: float, seed) -> np.ndarray:
    if not (k0 > 0):
        raise ValueError(f"k0 must be positive, got {k0}")
    if not (energy > 0):
        raise ValueError(f"energy must be positive, got {energy}")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((3,) + grid.shape)
    ch = to_spectral(grid, noise)
    kmag = grid.k_magnitude()
    # amplitude k exp(-(k/k0)^2) puts the shell spectrum at k^4 exp(-2(k/k0)^2)
    ch *= kmag * np.exp(-((kmag / k0) ** 2))
    ch = spec_project(grid, ch) * grid.dealias_mask
    ch[:, 0, 0, 0] = 0.0
    ms = spectral_mean_square(grid, ch)
    if ms <= 0.0:
        raise ValueError("random field degenerated to zero; check k0 and n")
    ch *= math.sqrt(2.0 * energy / ms)
    return ch


def initial_condition(kind: str, grid: Grid, params: Optional[dict] = None,
                      seed=None, *, nu: Optional[float] = None,
                      re: Optional[float] = None, t: float = 0.0) -> FlowState:
    """Build a FlowState; kind in {taylor_green, abc, random_isotropic}.

    params: abc takes A, B, C (default 1 each); random_isotropic takes k0
    (default 4) and energy, the kinetic energy <|u|^2>/2 (default 0.5).
    """
    params = dict(params or {})
    if kind == "taylor_green":
        _reject_extra(params, ())
        uh = to_spectral(grid, _taylor_green(grid))
    elif kind == "abc":
        a = float(params.pop("A", 1.0))
        b = float(params.pop("B", 1.0))
        c = float(params.pop("C", 1.0))
        _reject_extra(params, ("A", "B", "C"))
        uh = to_spectral(grid, _abc(grid, a, b, c))
    elif kind == "random_isotropic":
        k0 = float(params.pop("k0", 4.0))
        energy = float(params.pop("energy", 0.5))
        _reject_extra(params, ("k0", "energy"))
        uh = _random_isotropic(grid, k0, energy, seed)
    else:
        raise ValueError(
            f"unknown initial condition {kind!r}; expected taylor_green, "
            f"abc or random_isotropic")
    return FlowState(VectorField(grid, uh, "spectral"), t=t, nu=nu, re=re)


def _reject_extra(params: dict, allowed) -> None:
    if params:
        raise ValueError(f"unexpected initial-condition parameters "
                         f"{sorted(params)}; allowed: {sorted(allowed)}")


# ---------------------------------------------------------------------------
# dimensionless scaling

def nondimensionalize(state: FlowState, scaling: DimensionlessScaling) -> FlowState:
    """u(L x, kappa t) / U on the rescaled box; carries Re = U L / nu."""
    if state.mode != "dimensional":
        raise ValueError("state is already dimensionless")
    if abs(scaling.nu - state.nu) > 1e-12 * state.nu:
        raise ValueError("scaling viscosity disagrees with the state")
    grid = state.grid
    new_grid = Grid(grid.n, grid.box_length / scaling.L)
    uh = state.u.data / scaling.U
    return FlowState(VectorField(new_grid, uh, "spectral"),
                     t=state.t / scaling.kappa, re=scaling.Re)


def redimensionalize(state: FlowState, scaling: DimensionlessScaling) -> FlowState:
    if state.mode != "dimensionless":
        raise ValueError("state is already dimensional")
    if abs(scaling.Re - state.re) > 1e-12 * state.re:
        raise ValueError("scaling Reynolds number disagrees with the state")
    grid = state.grid
    new_grid = Grid(grid.n, grid.box_length * scaling.L)
    uh = state.u.data * scaling.U
    return FlowState(VectorField(new_grid, uh, "spectral"),
                     t=state.t * scaling.kappa, nu=scaling.nu)


# ---------------------------------------------------------------------------
# evolution-equation residuals
#
# Each check reads the workspace f of u and the workspace fd of du/dt, so
# that A-dot, S-dot and omega-dot are fd.a, fd.s and fd.w.

EVOLUTION_CHECKS = ("vorticity", "energy", "enstrophy", "strain", "trS2", "trS3")


def evolution_workspaces(state: FlowState) -> tuple[Workspace, Workspace]:
    """Workspaces of state.u and of du/dt = ns_rhs(state); building the
    second reuses the first's samples of u and omega."""
    f = Workspace(state.u)
    return f, Workspace(ns_rhs(state, workspace=f))


def _lstar_scalar(nu: float, f: Workspace, q: np.ndarray) -> np.ndarray:
    """nu lap q - u . grad q with spectral derivatives of the samples."""
    g = f.grid
    qh = to_spectral(g, q)
    return (nu * to_physical(g, qh * (-g.k2))
            - _dot(f.up, physical_gradient(g, qh)))


def _lap_s(f: Workspace) -> np.ndarray:
    return unpack_symmetric(to_physical(f.grid, f.sh * (-f.grid.k2)), axis=0)


def _check_vorticity(nu, f, fd):
    lap_w = to_physical(f.grid, f.wh * (-f.grid.k2))
    advect_w = np.einsum("j...,ij...->i...", f.up, f.dw)
    lhs = fd.w - nu * lap_w + advect_w
    rhs = np.einsum("ij...,j...->i...", f.s, f.w)
    return (_report("vorticity", lhs - rhs, lhs),)


def _check_energy(nu, f, fd):
    g = f.grid
    enstrophy = f.invariants.enstrophy.data
    lhs = 2.0 * _dot(f.up, fd.up) - _lstar_scalar(nu, f, _dot(f.up, f.up))

    div_pu = (_dot(f.up, physical_gradient(g, f.ph))
              + to_physical(g, f.ph) * f.divu)
    div_cross = to_physical(g, spec_divergence(g, f.lamb_h))

    rhs_closing = -2.0 * nu * enstrophy \
        - 2.0 * nu * f.div_advection - 2.0 * div_pu
    rhs_displayed = -nu * enstrophy + nu * div_cross - 2.0 * div_pu
    return (
        _report("energy[advective-flux]", lhs - rhs_closing, lhs),
        _report("energy[curl-flux]", lhs - rhs_displayed, lhs),
    )


def _check_enstrophy(nu, f, fd):
    inv = f.invariants
    lhs = _dot(f.w, fd.w) - _lstar_scalar(nu, f, 0.5 * inv.enstrophy.data)
    rhs = inv.omega_S_omega.data - nu * inv.grad_omega_sq.data
    return (_report("enstrophy", lhs - rhs, lhs),)


def _check_strain(nu, f, fd):
    advect_s = np.einsum("k...,ijk...->ij...", f.up, f.ds)
    lhs = fd.s - nu * _lap_s(f) + advect_s

    s2 = np.einsum("ik...,kj...->ij...", f.s, f.s)
    eye = np.eye(3).reshape(3, 3, 1, 1, 1)
    rhs = -s2 + 0.25 * (eye * f.invariants.enstrophy.data
                        - np.einsum("i...,j...->ij...", f.w, f.w)) \
        - f.hess_p
    return (_report("strain", lhs - rhs, lhs),)


def _check_trS2(nu, f, fd):
    inv = f.invariants
    lhs = 2.0 * np.einsum("ij...,ij...->...", f.s, fd.s) \
        - _lstar_scalar(nu, f, inv.trS2.data)

    wsw = inv.omega_S_omega.data
    grad_w2 = inv.grad_omega_sq.data
    s_hess = np.einsum("ij...,ij...->...", f.s, f.hess_p)
    rhs_direct = (-2.0 * inv.trS3.data - 0.5 * wsw
                  - 2.0 * nu * inv.grad_S_sq.data - 2.0 * s_hess)

    # divergence form, assembled from the product-rule expansions of the
    # identity checks so no sampled product is differentiated spectrally
    pressure_flux = _pressure_flux(f, f.ph, f.hess_p)
    first, u_grad_q = _advective_flux(f)
    viscous_flux = _viscous_flux(f)

    def rhs_divform(c: float) -> np.ndarray:
        bracket2 = 2.0 * (first + u_grad_q) \
            - c * (u_grad_q + f.div_advection * f.divu)
        return (wsw - nu * grad_w2 - 2.0 * pressure_flux
                - bracket2 - 2.0 * nu * viscous_flux)

    rhs_c3 = rhs_divform(3.0)
    rhs_c1 = rhs_divform(1.0)
    return (
        _report("trS2[direct]", lhs - rhs_direct, lhs),
        _report("trS2[divergence c=3]", lhs - rhs_c3, lhs),
        _report("trS2[divergence c=1]", lhs - rhs_c1, lhs),
        _report("trS2[agreement c=3]", rhs_direct - rhs_c3, rhs_direct),
        _report("trS2[agreement c=1]", rhs_direct - rhs_c1, rhs_direct),
    )


def _check_trS3(nu, f, fd):
    inv = f.invariants
    s, ds = f.s, f.ds
    s2 = np.einsum("ik...,kj...->ij...", s, s)

    # lap and advection of trS^3 via pointwise contractions: the cubic
    # itself is never transformed
    s_ds_ds = np.einsum("ij...,jkl...,kil...->...", s, ds, ds)
    lap_q = 3.0 * np.einsum("ij...,ij...->...", s2, _lap_s(f)) + 6.0 * s_ds_ds
    advect_q = 3.0 * np.einsum("l...,ij...,ijl...->...", f.up, s2, ds)
    lhs = 3.0 * np.einsum("ij...,ij...->...", s2, fd.s) \
        - nu * lap_q + advect_q

    tr_s2 = inv.trS2.data
    sw = np.einsum("ij...,j...->i...", s, f.w)
    common = (0.75 * (tr_s2 * inv.enstrophy.data - _dot(sw, sw))
              - 6.0 * nu * s_ds_ds
              - 3.0 * np.einsum("ij...,ij...->...", s2, f.hess_p))
    tr_s4 = np.einsum("ij...,ij...->...", s2, s2)
    rhs_s4 = -3.0 * tr_s4 + common
    rhs_sq = -3.0 * tr_s2 * tr_s2 + common
    return (
        _report("trS3[tr(S^4)]", lhs - rhs_s4, lhs),
        _report("trS3[(tr S^2)^2]", lhs - rhs_sq, lhs),
    )


def evolution_residual(state: FlowState, which: str,
                       workspaces: Optional[tuple] = None
                       ) -> tuple[ResidualReport, ...]:
    """Residuals of (d/dt - Lstar) applied to one evolved quantity.

    Lstar = nu lap - u . grad; time derivatives come from the chain rule on
    ns_rhs.  Checks with more than one candidate form return one report per
    variant: energy in advective-flux (closing) and curl-flux (non-closing)
    form; trS2 in its direct form and divergence form with second-bracket
    coefficients 3 (closing) and 1 (non-closing), plus the cross-form
    agreement; trS3 under both readings of its -3|S|^4 term.
    `workspaces`, from evolution_workspaces(state), shares fields between
    checks.
    """
    if which not in EVOLUTION_CHECKS:
        raise ValueError(f"unknown evolution check {which!r}; "
                         f"expected one of {EVOLUTION_CHECKS}")
    if workspaces is None:
        workspaces = evolution_workspaces(state)
    f, fd = workspaces
    if f.u is not state.u:
        raise ValueError("the workspaces belong to another state")
    check = globals()["_check_" + which]
    return check(state.effective_viscosity, f, fd)
