"""Pointwise exactness checks for the velocity-gradient trace identities.

Each check evaluates both sides of an identity on the grid and reports norms
of the difference.  Inputs are expected to be divergence-free and
band-limited to |k| < n/4: products of up to three factors then stay inside
the representable band, provided no sampled product is differentiated
spectrally.  To honor that, every divergence of a cubic expression is
expanded by the product rule first, so transforms only ever see fields whose
true band fits the grid.  The checks then resolve to roundoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kinematics import Workspace
from .spectral import (
    ScalarField,
    VectorField,
    physical_gradient,
    physical_hessian,
    spec_divergence,
    to_physical,
    to_spectral,
)

__all__ = [
    "ResidualReport",
    "residual_tr2",
    "residual_tr3",
    "residual_grad_sw",
    "residual_pressure_hessian",
    "gamma2_residual",
    "mean_identities",
    "switched_invariant_residuals",
]

_SCALE_FLOOR = 1e-300


@dataclass(frozen=True)
class ResidualReport:
    """Norms of one identity residual.

    reference_scale is the sup-norm of the identity's left side, floored by
    the largest constituent term of the right side where those are supplied.
    The floor matters when the left side vanishes identically (Taylor-Green
    makes tr A^3 zero pointwise) while the balancing terms stay order one;
    without it the ratio degenerates to roundoff over roundoff.
    """

    name: str
    sup_norm: float
    l2_norm: float
    reference_scale: float
    relative: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "sup_norm": self.sup_norm,
            "l2_norm": self.l2_norm,
            "reference_scale": self.reference_scale,
            "relative": self.relative,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def _report(name: str, residual: np.ndarray, lhs: np.ndarray,
            *scale_terms: np.ndarray) -> ResidualReport:
    sup = float(np.abs(residual).max())
    l2 = float(np.sqrt(np.mean(residual * residual)))
    ref = float(np.abs(lhs).max())
    for term in scale_terms:
        ref = max(ref, float(np.abs(term).max()))
    return ResidualReport(name, sup, l2, ref, sup / max(ref, _SCALE_FLOOR))


def _dot(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.einsum("i...,i...->...", v, w)


def _advective_flux(ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of div(u . grad W), W = (u . grad) u, and Q = div W:
    (d_i u_j)(d_j W_i) and u . grad Q.  The flux of tr A^3 and the second
    bracket of the tr S^2 divergence form are built from these and
    Q div u, so no cubic product is ever transformed."""
    dw = physical_gradient(ws.grid, ws.advection_h)
    first = np.einsum("ji...,ij...->...", ws.a, dw)
    grad_q = physical_gradient(ws.grid,
                               spec_divergence(ws.grid, ws.advection_h))
    return first, _dot(ws.up, grad_q)


def _pressure_flux(ws: Workspace, ph: np.ndarray,
                   hess: np.ndarray) -> np.ndarray:
    """div(u . grad(grad p)) - div(u lap p) by the product rule:
    (d_i u_j)(d_j d_i p) + u . grad(lap p)
    - (u . grad(lap p) + lap p div u)."""
    lap_h = ph * (-ws.grid.k2)
    u_grad_lap = _dot(ws.up, physical_gradient(ws.grid, lap_h))
    second = np.einsum("ji...,ij...->...", ws.a, hess) + u_grad_lap
    return second - (u_grad_lap + to_physical(ws.grid, lap_h) * ws.divu)


def _viscous_flux(ws: Workspace) -> np.ndarray:
    """div[ tr(grad((u.grad) grad u)) - (u.grad) lap u ], the trace being
    sum_k d_k((u.grad) d_k u).  Innermost factors are sampled pointwise;
    the two outer derivatives act spectrally on those samples."""
    grid = ws.grid
    gh = to_spectral(grid, np.einsum("j...,ikj...->ki...", ws.up, ws.ddu))
    trace_term = to_physical(grid, spec_divergence(
        grid, spec_divergence(grid, gh)))
    dlap = physical_gradient(grid, ws.uh * (-grid.k2))
    hh = to_spectral(grid, np.einsum("j...,ij...->i...", ws.up, dlap))
    return trace_term - to_physical(grid, spec_divergence(grid, hh))


def residual_tr2(u: VectorField,
                 workspace: Optional[Workspace] = None) -> ResidualReport:
    """tr A^2 = div(u . grad u), checked pointwise."""
    ws = Workspace.of(u, workspace)
    tr_a2 = np.einsum("ij...,ji...->...", ws.a, ws.a)
    return _report("tr2", tr_a2 - ws.div_advection, tr_a2)


def residual_tr3(u: VectorField, flux_coefficient: float = 1.5,
                 workspace: Optional[Workspace] = None) -> ResidualReport:
    """tr A^3 = div[u . grad(u . grad u) - c (div(u . grad u)) u].

    c = flux_coefficient.  The default 3/2 closes the identity pointwise;
    passing another value measures the defect of that variant instead.
    """
    ws = Workspace.of(u, workspace)
    tr_a3 = np.einsum("ij...,jk...,ki...->...", ws.a, ws.a, ws.a)
    # the second flux term expands to u . grad Q + Q div u with Q = div W
    first, u_grad_q = _advective_flux(ws)
    divergence_total = (
        first + u_grad_q
        - flux_coefficient * (u_grad_q + ws.div_advection * ws.divu)
    )
    return _report("tr3", tr_a3 - divergence_total, tr_a3,
                   first, u_grad_q, flux_coefficient * u_grad_q)


def residual_grad_sw(u: VectorField,
                     workspace: Optional[Workspace] = None) -> ResidualReport:
    """|grad S|^2 - |grad omega|^2 / 2 as a pure divergence (_viscous_flux)."""
    ws = Workspace.of(u, workspace)
    grad_s2 = np.einsum("ijk...,ijk...->...", ws.ds, ws.ds)
    grad_w2 = np.einsum("ik...,ik...->...", ws.dw, ws.dw)
    lhs = grad_s2 - 0.5 * grad_w2
    # Beltrami flows have |grad S|^2 = |grad omega|^2 / 2 pointwise, so the
    # left side can vanish identically; scale by its pieces as well
    return _report("grad-sw", lhs - _viscous_flux(ws), lhs,
                   grad_s2, 0.5 * grad_w2)


def residual_pressure_hessian(u: VectorField, p: ScalarField,
                              workspace: Optional[Workspace] = None
                              ) -> ResidualReport:
    """S : hess p = div(u . grad(grad p)) - div(u lap p), checked pointwise."""
    ws = Workspace.of(u, workspace)
    ph = p.data if p.rep == "spectral" else to_spectral(ws.grid, p.data)
    hess = physical_hessian(ws.grid, ph)
    lhs = np.einsum("ij...,ij...->...", ws.s, hess)
    return _report("pressure-hessian", lhs - _pressure_flux(ws, ph, hess), lhs)


def gamma2_residual(u: VectorField, f: ScalarField, nu: float,
                    workspace: Optional[Workspace] = None) -> ResidualReport:
    """Iterated carre-du-champ of L = nu lap + u . grad against its closed form.

    Definition side: Gamma2(f, f) = (L Gamma(f, f) - 2 Gamma(f, Lf)) / 2 with
    Gamma(f, g) = nu grad f . grad g.  Closed form for solenoidal u:
    nu^2 |hess f|^2 - nu S_ij d_i f d_j f.
    """
    if not (nu > 0):
        raise ValueError(f"viscosity must be positive, got {nu}")
    ws = Workspace.of(u, workspace)
    grid = ws.grid
    fh = f.data if f.rep == "spectral" else to_spectral(grid, f.data)

    grad_f = physical_gradient(grid, fh)
    hess_f = physical_hessian(grid, fh)
    lap_f = to_physical(grid, fh * (-grid.k2))

    lf = nu * lap_f + _dot(ws.up, grad_f)
    gamma = nu * _dot(grad_f, grad_f)

    gamma_h = to_spectral(grid, gamma)
    l_gamma = (nu * to_physical(grid, gamma_h * (-grid.k2))
               + _dot(ws.up, physical_gradient(grid, gamma_h)))
    gamma_f_lf = nu * _dot(grad_f, physical_gradient(
        grid, to_spectral(grid, lf)))
    definition = 0.5 * l_gamma - gamma_f_lf

    closed = (nu * nu * np.einsum("ij...,ij...->...", hess_f, hess_f)
              - nu * np.einsum("ij...,i...,j...->...", ws.s, grad_f, grad_f))
    return _report("gamma2", definition - closed, definition)


def mean_identities(u: VectorField, workspace: Optional[Workspace] = None
                    ) -> tuple[ResidualReport, ...]:
    """The three volume-mean relations between strain and vorticity.

    <|S|^2> = <|omega|^2> / 2, <tr S^3> = -3 <omega . S omega> / 4 and
    <|grad S|^2> = <|grad omega|^2> / 2.  Periodicity makes the divergence
    terms that separate the two sides vanish identically in the mean.
    """
    inv = Workspace.of(u, workspace).invariants

    def scalar_report(name, lhs, rhs, integrand_scale):
        diff = abs(lhs - rhs)
        ref = max(abs(lhs), integrand_scale)
        return ResidualReport(name, diff, diff, ref,
                              diff / max(ref, _SCALE_FLOOR))

    mean = lambda fld: float(fld.data.mean())  # noqa: E731
    sup = lambda fld: float(np.abs(fld.data).max())  # noqa: E731
    return (
        scalar_report("mean-strain-enstrophy",
                      mean(inv.trS2), 0.5 * mean(inv.enstrophy),
                      sup(inv.trS2)),
        scalar_report("mean-trS3-stretching",
                      mean(inv.trS3), -0.75 * mean(inv.omega_S_omega),
                      sup(inv.trS3)),
        scalar_report("mean-gradS-gradomega",
                      mean(inv.grad_S_sq), 0.5 * mean(inv.grad_omega_sq),
                      sup(inv.grad_S_sq)),
    )


def switched_invariant_residuals(u: VectorField,
                                 workspace: Optional[Workspace] = None
                                 ) -> tuple[ResidualReport, ...]:
    """Pointwise decomposition of the gradient traces into strain and
    vorticity parts: tr A^2 = tr S^2 - |omega|^2 / 2 and
    tr A^3 = tr S^3 + 3 omega . S omega / 4."""
    inv = Workspace.of(u, workspace).invariants
    lhs2 = inv.trA2.data
    res2 = lhs2 - (inv.trS2.data - 0.5 * inv.enstrophy.data)
    lhs3 = inv.trA3.data
    res3 = lhs3 - (inv.trS3.data + 0.75 * inv.omega_S_omega.data)
    return (_report("tr2-sw", res2, lhs2,
                    inv.trS2.data, 0.5 * inv.enstrophy.data),
            _report("tr3-sw", res3, lhs3,
                    inv.trS3.data, 0.75 * inv.omega_S_omega.data))
