"""Velocity-gradient kinematics: A, S, omega, invariant traces, eigenvalues.

Everything here is algebra on a single velocity snapshot, and Workspace is
the one place its derived fields are formed.  Products are
formed pointwise in physical space; derivatives are spectral.  For the
cubic traces to be alias-free the input should be band-limited to
|k| < n/4, which the verification suites enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .spectral import (
    SYMMETRIC_PAIRS,
    Grid,
    ScalarField,
    TensorField3,
    VectorField,
    physical_gradient,
    physical_hessian,
    spec_curl,
    spec_derivative,
    spec_divergence,
    spec_poisson,
    spectral_inner,
    to_physical,
    to_spectral,
    unpack_symmetric,
)

__all__ = [
    "StrainEigenvalues",
    "InvariantFields",
    "Workspace",
    "relative_divergence",
    "invariants",
    "strain_eigenvalues",
    "variance_P",
    "mean_helicity",
]


def _spectral_data(u: VectorField) -> np.ndarray:
    return u.data if u.rep == "spectral" else to_spectral(u.grid, u.data)


def _relative_divergence(grid: Grid, uh: np.ndarray) -> float:
    div = sum(grid.kd[a] * uh[a] for a in range(3))
    denom = float(np.abs(uh).max())
    if denom == 0.0:
        return 0.0
    return float(np.abs(div).max()) / denom


def relative_divergence(u: VectorField) -> float:
    """max_k |k . u_hat| / max_k |u_hat|, zero for a solenoidal field."""
    return _relative_divergence(u.grid, _spectral_data(u))


def _require_solenoidal(grid: Grid, uh: np.ndarray, what: str,
                        tol: float = 1e-10) -> None:
    rel = _relative_divergence(grid, uh)
    # written so that NaN fails: non-finite data gives a NaN ratio
    if not rel < tol:
        if not math.isfinite(rel):
            raise ValueError(f"{what} has non-finite values")
        raise ValueError(
            f"{what} is not solenoidal: max |div u| = {rel:.3e} "
            f"(relative), tolerance {tol:.0e}")


def _hermitian_defect(uh: np.ndarray) -> float:
    """max |u_hat(kx, ky) - conj u_hat(-kx, -ky)| on the kz = 0 and kz = n/2
    planes over max |u_hat|: zero for the transform of a real field."""
    planes = uh[..., [0, -1]]
    mirrored = np.roll(np.flip(planes, axis=(-3, -2)), 1, axis=(-3, -2))
    denom = float(np.abs(uh).max())
    if denom == 0.0:
        return 0.0
    return float(np.abs(planes - mirrored.conj()).max()) / denom


def _require_hermitian(uh: np.ndarray, what: str, tol: float = 1e-10) -> None:
    rel = _hermitian_defect(uh)
    if not rel < tol:
        raise ValueError(
            f"{what} is not the transform of a real field: its kz = 0 and "
            f"kz = n/2 planes have a Hermitian defect of {rel:.3e} "
            f"(relative), tolerance {tol:.0e}")


def _lamb_vector(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise u x omega."""
    c = np.empty_like(u)
    c[0] = u[1] * w[2] - u[2] * w[1]
    c[1] = u[2] * w[0] - u[0] * w[2]
    c[2] = u[0] * w[1] - u[1] * w[0]
    return c


class Workspace:
    """The derived fields of one velocity, each computed on first use and
    then kept.

    Names ending in h are spectral coefficients; the others are physical
    samples.  Component axes come first and a derivative index is the last
    of them: a[i, j] = d_j u_i, ds[i, j, k] = d_k S_ij, dw[i, k] = d_k
    omega_i, ddu[i, j, k] = d_j d_k u_i, hess_p[i, j] = d_i d_j p.  sh holds
    the six components of SYMMETRIC_PAIRS.  Linear fields (S, omega, their
    gradients, p) are formed from u_hat in spectral space; only products
    are sampled and transformed forward.

    A workspace holds many full-grid arrays: keep one only as long as the
    computations that share it.
    """

    def __init__(self, u: VectorField):
        self.u = u
        self.grid = u.grid

    @classmethod
    def of(cls, u: VectorField,
           workspace: Optional["Workspace"] = None) -> "Workspace":
        """`workspace` when given, which must belong to u; else a new one."""
        if workspace is None:
            return cls(u)
        if workspace.u is not u:
            raise ValueError("the workspace belongs to another velocity")
        return workspace

    @cached_property
    def uh(self) -> np.ndarray:
        return _spectral_data(self.u)

    @cached_property
    def up(self) -> np.ndarray:
        if self.u.rep == "physical":
            return self.u.data
        return to_physical(self.grid, self.uh)

    @cached_property
    def a(self) -> np.ndarray:
        return physical_gradient(self.grid, self.uh)

    @cached_property
    def s(self) -> np.ndarray:
        return 0.5 * (self.a + np.swapaxes(self.a, 0, 1))

    @cached_property
    def sh(self) -> np.ndarray:
        g, uh = self.grid, self.uh
        return np.stack([
            0.5 * (spec_derivative(g, uh[i], j) + spec_derivative(g, uh[j], i))
            for i, j in SYMMETRIC_PAIRS])

    @cached_property
    def s_from_sh(self) -> np.ndarray:
        """S sampled from its six packed components: 6 transforms where s
        takes the 9 of A, for callers that need no A.  It equals s to
        roundoff."""
        return unpack_symmetric(to_physical(self.grid, self.sh), axis=0)

    @cached_property
    def ds(self) -> np.ndarray:
        return unpack_symmetric(physical_gradient(self.grid, self.sh), axis=0)

    @cached_property
    def wh(self) -> np.ndarray:
        return spec_curl(self.grid, self.uh)

    @cached_property
    def w(self) -> np.ndarray:
        return to_physical(self.grid, self.wh)

    @cached_property
    def dw(self) -> np.ndarray:
        return physical_gradient(self.grid, self.wh)

    @cached_property
    def ddu(self) -> np.ndarray:
        return physical_hessian(self.grid, self.uh)

    @cached_property
    def divu(self) -> np.ndarray:
        return to_physical(self.grid, spec_divergence(self.grid, self.uh))

    @cached_property
    def advection_h(self) -> np.ndarray:
        """(u . grad) u, sampled from u and A."""
        return to_spectral(self.grid,
                           np.einsum("j...,ij...->i...", self.up, self.a))

    @cached_property
    def div_advection(self) -> np.ndarray:
        return to_physical(self.grid,
                           spec_divergence(self.grid, self.advection_h))

    @cached_property
    def advective_flux(self) -> tuple[np.ndarray, np.ndarray]:
        """The two terms of div(u . grad W), W = (u . grad) u, and Q = div W:
        (d_i u_j)(d_j W_i) and u . grad Q.  The flux of tr A^3 and the
        second bracket of the tr S^2 divergence form are built from these
        and Q div u, so no cubic product is ever transformed."""
        g = self.grid
        first = np.einsum("ji...,ij...->...", self.a,
                          physical_gradient(g, self.advection_h))
        grad_q = physical_gradient(g, spec_divergence(g, self.advection_h))
        return first, np.einsum("i...,i...->...", self.up, grad_q)

    @cached_property
    def lap_s(self) -> np.ndarray:
        g = self.grid
        return unpack_symmetric(to_physical(g, self.sh * (-g.k2)), axis=0)

    @cached_property
    def lamb_h(self) -> np.ndarray:
        """u x omega, sampled from u and omega."""
        return to_spectral(self.grid, _lamb_vector(self.up, self.w))

    @cached_property
    def ph(self) -> np.ndarray:
        """Zero-mean pressure with lap(p) = -div((u . grad) u)."""
        return spec_poisson(self.grid,
                            -spec_divergence(self.grid, self.advection_h))

    @cached_property
    def hess_p(self) -> np.ndarray:
        return physical_hessian(self.grid, self.ph)

    @cached_property
    def invariants(self) -> "InvariantFields":
        # through the module attribute, so that a wrapper on
        # kinematics.invariants (benchmark/tracing.py, the transform-count
        # test) sees each computation: one call per velocity
        return invariants(self.u, self)


@dataclass(frozen=True)
class InvariantFields:
    """Pointwise invariant scalars of one velocity snapshot (physical rep).

    grad_S_sq is the full contraction sum_{ijk} (d_k S_ij)^2 and
    grad_omega_sq is sum_{ik} (d_k omega_i)^2.
    """

    trA2: ScalarField
    trA3: ScalarField
    trS2: ScalarField
    trS3: ScalarField
    enstrophy: ScalarField
    omega_S_omega: ScalarField
    grad_S_sq: ScalarField
    grad_omega_sq: ScalarField


def invariants(u: VectorField,
               workspace: Optional[Workspace] = None) -> InvariantFields:
    """The invariant scalars of u; `workspace`, u's own, shares its fields."""
    ws = Workspace.of(u, workspace)
    _require_solenoidal(ws.grid, ws.uh, "velocity field")
    a, s, w = ws.a, ws.s, ws.w
    trA2 = np.einsum("ij...,ji...->...", a, a)
    trA3 = np.einsum("ij...,jk...,ki...->...", a, a, a)
    trS2 = np.einsum("ij...,ij...->...", s, s)
    trS3 = np.einsum("ij...,jk...,ki...->...", s, s, s)
    enst = np.einsum("i...,i...->...", w, w)
    wsw = np.einsum("i...,ij...,j...->...", w, s, w)
    grad_s = np.einsum("ijk...,ijk...->...", ws.ds, ws.ds)
    grad_w = np.einsum("ik...,ik...->...", ws.dw, ws.dw)

    wrap = lambda arr: ScalarField(ws.grid, arr, "physical")  # noqa: E731
    return InvariantFields(
        trA2=wrap(trA2),
        trA3=wrap(trA3),
        trS2=wrap(trS2),
        trS3=wrap(trS3),
        enstrophy=wrap(enst),
        omega_S_omega=wrap(wsw),
        grad_S_sq=wrap(grad_s),
        grad_omega_sq=wrap(grad_w),
    )


@dataclass(frozen=True)
class StrainEigenvalues:
    """Per-point strain eigenvalues ordered a >= b >= c (and a+b+c = 0)."""

    grid: Grid
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != self.grid.shape:
                raise ValueError(
                    f"eigenvalue array {name} must have shape {self.grid.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _eigenvalues_from_traces(trS2: np.ndarray, trS3: np.ndarray) -> np.ndarray:
    """Roots of t^3 - (trS2/2) t - (trS3/3) = 0, descending along axis 0.

    Trigonometric form for the depressed cubic with three real roots.  The
    traces are normalized by their field maximum first so that trS2**1.5
    cannot underflow for uniformly tiny strain; points more than thirty
    orders of magnitude below the maximum are treated as strain-free.
    """
    top = float(np.max(trS2, initial=0.0))
    if not (top > 0.0 and np.isfinite(top)):
        return np.zeros((3,) + np.shape(trS2))
    t2 = trS2 / top
    with np.errstate(over="ignore", under="ignore"):
        t3 = (trS3 / top) / np.sqrt(top)
    live = t2 > 1e-60
    safe = np.where(live, t2, 1.0)
    amp = 2.0 * np.sqrt(safe / 6.0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        raw = t3 * np.sqrt(6.0) / safe ** 1.5
    # trS3 = 0 with degenerate scaling gives 0/0; its limit is the
    # symmetric spectrum, which arg = 0 produces
    arg = np.clip(np.nan_to_num(raw, nan=0.0, posinf=1.0, neginf=-1.0),
                  -1.0, 1.0)
    theta = np.arccos(arg) / 3.0
    shift = 2.0 * np.pi / 3.0
    lam = np.stack([
        amp * np.cos(theta),
        amp * np.cos(theta - shift),
        amp * np.cos(theta - 2.0 * shift),
    ])
    lam = np.where(live, lam, 0.0) * np.sqrt(top)
    # cos ordering already gives descending roots; the sort only arbitrates
    # exact ties and guards the invariant
    return np.sort(lam, axis=0)[::-1]


def strain_eigenvalues(S: TensorField3) -> StrainEigenvalues:
    s = S.data if S.rep == "physical" else to_physical(S.grid, S.data)
    trace = np.einsum("ii...->...", s)
    scale = max(float(np.abs(s).max()), 1e-300)
    if float(np.abs(trace).max()) > 1e-10 * scale:
        raise ValueError("strain tensor must be traceless")
    sym_defect = float(np.abs(s - np.swapaxes(s, 0, 1)).max())
    if sym_defect > 1e-10 * scale:
        raise ValueError("strain tensor must be symmetric")
    trS2 = np.einsum("ij...,ij...->...", s, s)
    trS3 = np.einsum("ij...,jk...,ki...->...", s, s, s)
    lam = _eigenvalues_from_traces(trS2, trS3)
    return StrainEigenvalues(S.grid, lam[0], lam[1], lam[2])


def variance_P(eigs: StrainEigenvalues) -> tuple[ScalarField, ScalarField]:
    """Eigenvalue spread P = ((a-b)^2 + (b-c)^2 + (c-a)^2) / 3.

    Returns (P, trS2/3).  The second entry is the statistical variance of
    {a, b, c} about their zero mean; under a+b+c = 0 the first equals trS2
    itself, so the two differ by exactly a factor of three.
    """
    a, b, c = eigs.a, eigs.b, eigs.c
    p = ((a - b) ** 2 + (b - c) ** 2 + (c - a) ** 2) / 3.0
    var = (a * a + b * b + c * c) / 3.0
    return (
        ScalarField(eigs.grid, p, "physical"),
        ScalarField(eigs.grid, var, "physical"),
    )


def mean_helicity(u: VectorField,
                  workspace: Optional[Workspace] = None) -> float:
    """Volume mean of u . curl u, as a Parseval sum of the coefficients."""
    ws = Workspace.of(u, workspace)
    return spectral_inner(ws.grid, ws.uh, ws.wh)
