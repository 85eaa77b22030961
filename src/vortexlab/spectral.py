"""Periodic-box spectral fields and operators.

Fields live on a uniform n^3 grid covering [0, L)^3 with periodic topology,
indexed data[ix, iy, iz].  The spectral representation is the half-complex
output of a real-to-complex 3-D FFT with forward scaling, so the (0,0,0)
coefficient of a scalar field equals its volume mean.  Wavenumbers are the
integer multiples of 2*pi/L; differentiation multiplies by i*k with the
Nyquist mode zeroed, and the two-thirds mask retains exactly the modes with
|k_i| < (n/3)(2*pi/L) on every axis.

All field values are immutable after construction and every operation is
pure: it returns a new field and leaves its inputs untouched.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import ClassVar, Literal, Union

import numpy as np
import scipy.fft as _fft

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "TensorField3",
    "Field",
    "fft_workers",
    "transform",
    "derivative",
    "gradient",
    "divergence",
    "curl",
    "laplacian",
    "gradient_tensor",
    "hessian",
    "solve_poisson",
    "dealias",
    "band_limit",
    "volume_mean",
    "spectral_mean_square",
    "spectral_inner",
]

Rep = Literal["physical", "spectral"]

_TWO_PI = 2.0 * np.pi


def fft_workers() -> int:
    """Worker-thread count for FFT calls: the CPUs this process may use
    (_cpu_limit), capped by the VXL_THREADS variable when it is set."""
    limit = _cpu_limit()
    raw = os.environ.get("VXL_THREADS")
    if raw is not None and raw.strip():
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"VXL_THREADS must be a positive integer, got {raw!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"VXL_THREADS must be a positive integer, got {raw!r}")
        return min(workers, limit)
    return limit


_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cpu_quota():
    """CPUs granted by the cgroup v2 cpu.max quota; None when there is none."""
    try:
        with open(_CGROUP_CPU_MAX) as fh:
            quota, period = fh.read().split()
        return None if quota == "max" else int(quota) / int(period)
    except (OSError, ValueError):
        return None


@functools.lru_cache(maxsize=None)
def _cpu_limit() -> int:
    """The affinity mask's CPU count, bounded by the cgroup quota rounded
    up; computed once per process, as fft_workers runs on every transform."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    if quota:
        cpus = min(cpus, math.ceil(quota))
    return max(1, cpus)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


class Grid:
    """Uniform periodic n^3 grid together with its wavenumber bookkeeping.

    Parameters
    ----------
    n : int
        Points per axis; even and at least 8 (powers of two transform fastest).
    box_length : float
        Physical edge length of the box, default 2*pi.

    Attributes
    ----------
    spacing : grid step L/n.
    shape, spectral_shape : array shapes of the two representations.
    modes : per-axis integer mode arrays, broadcastable to spectral_shape.
    k : physical wavenumbers 2*pi*m/L per axis (true values incl. Nyquist).
    kd : wavenumbers used for differentiation; the Nyquist entry is zeroed
        so that d/dx of a real field stays real and odd derivatives at the
        unpaired mode do not inject spurious content.
    k2 : |k|^2 assembled from kd (so laplacian == div(grad) exactly).
    dealias_mask : bool, True on modes retained by the two-thirds rule.
    nyquist_mask : bool, True where any axis sits at its Nyquist mode.
    parseval_weights : multiplicity of each stored half-complex mode.
    """

    __slots__ = (
        "n",
        "box_length",
        "spacing",
        "shape",
        "spectral_shape",
        "modes",
        "k",
        "kd",
        "k2",
        "dealias_mask",
        "nyquist_mask",
        "parseval_weights",
    )

    def __init__(self, n: int, box_length: float = _TWO_PI):
        if not isinstance(n, (int, np.integer)):
            raise ValueError(f"grid size must be an integer, got {n!r}")
        if n < 8 or n % 2:
            raise ValueError(f"grid size must be even and >= 8, got {n}")
        if not (np.isfinite(box_length) and box_length > 0):
            raise ValueError(f"box length must be positive and finite, got {box_length}")
        self.n = int(n)
        self.box_length = float(box_length)
        self.spacing = self.box_length / self.n
        self.shape = (self.n, self.n, self.n)
        nz = self.n // 2 + 1
        self.spectral_shape = (self.n, self.n, nz)

        m_full = np.rint(np.fft.fftfreq(self.n) * self.n).astype(np.int64)
        m_half = np.arange(nz, dtype=np.int64)
        mx = m_full.reshape(self.n, 1, 1)
        my = m_full.reshape(1, self.n, 1)
        mz = m_half.reshape(1, 1, nz)
        self.modes = (_frozen(mx), _frozen(my), _frozen(mz))

        scale = _TWO_PI / self.box_length
        half = self.n // 2
        k = []
        kd = []
        for m in self.modes:
            k.append(_frozen(scale * m.astype(np.float64)))
            kd.append(_frozen(np.where(np.abs(m) == half, 0.0, scale * m)))
        self.k = tuple(k)
        self.kd = tuple(kd)
        self.k2 = _frozen(sum(kdi * kdi for kdi in self.kd))

        keep = np.ones(self.spectral_shape, dtype=bool)
        for m in self.modes:
            keep &= 3 * np.abs(m) < self.n
        self.dealias_mask = _frozen(keep)

        nyq = np.zeros(self.spectral_shape, dtype=bool)
        for m in self.modes:
            nyq |= np.abs(m) == half
        self.nyquist_mask = _frozen(nyq)

        w = np.full((1, 1, nz), 2.0)
        w[..., 0] = 1.0
        w[..., -1] = 1.0
        self.parseval_weights = _frozen(np.broadcast_to(w, (1, 1, nz)).copy())

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable physical coordinates (x, y, z) of the grid points."""
        axis = self.spacing * np.arange(self.n)
        return (
            axis.reshape(self.n, 1, 1),
            axis.reshape(1, self.n, 1),
            axis.reshape(1, 1, self.n),
        )

    def k_magnitude(self) -> np.ndarray:
        """|k| from the true wavenumbers, shape spectral_shape."""
        return np.sqrt(sum(ki * ki for ki in self.k))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.box_length == other.box_length
        )

    def __hash__(self) -> int:
        return hash((self.n, self.box_length))

    def __repr__(self) -> str:
        return f"Grid(n={self.n}, box_length={self.box_length!r})"


# ---------------------------------------------------------------------------
# raw-array transforms and operators (grid first, arrays second)

def to_spectral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Forward real FFT over the trailing three axes; leading axes batch."""
    return _fft.rfftn(values, axes=(-3, -2, -1), norm="forward",
                      workers=fft_workers())


def to_physical(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of to_spectral; always returns real values."""
    return _fft.irfftn(coeffs, s=grid.shape, axes=(-3, -2, -1), norm="forward",
                       workers=fft_workers())


def spec_derivative(grid: Grid, coeffs: np.ndarray, axis: int) -> np.ndarray:
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    return coeffs * (1j * grid.kd[axis])


def spec_gradient(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """d_k of every component of coeffs, k on a new last component axis."""
    return np.stack([spec_derivative(grid, coeffs, k) for k in range(3)],
                    axis=-4)


def spec_divergence(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    return sum(spec_derivative(grid, coeffs[a], a) for a in range(3))


def spec_curl(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    ik = tuple(1j * kdi for kdi in grid.kd)
    out = np.empty_like(coeffs)
    out[0] = coeffs[2] * ik[1] - coeffs[1] * ik[2]
    out[1] = coeffs[0] * ik[2] - coeffs[2] * ik[0]
    out[2] = coeffs[1] * ik[0] - coeffs[0] * ik[1]
    return out


def spec_laplacian(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    return coeffs * (-grid.k2)


def spec_poisson(grid: Grid, rhs: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Solve lap(f) = rhs for the zero-mean f; rejects rhs with nonzero mean."""
    scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    mean_mag = float(np.abs(rhs[..., 0, 0, 0]).max())
    if mean_mag > rel_tol * scale:
        raise ValueError(
            f"Poisson right-hand side must have zero mean; |mean| = {mean_mag:.3e} "
            f"vs scale {scale:.3e}"
        )
    out = np.zeros_like(rhs)
    np.divide(rhs, -grid.k2, out=out, where=grid.k2 > 0)
    return out


def spec_project(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Remove the gradient part: u - k (k.u)/|k|^2, leaving k.u = 0."""
    kd = grid.kd
    div = kd[0] * coeffs[0] + kd[1] * coeffs[1] + kd[2] * coeffs[2]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(grid.k2 > 0, div / grid.k2, 0.0)
    out = np.empty_like(coeffs)
    for a in range(3):
        np.multiply(kd[a], ratio, out=out[a])
    np.subtract(coeffs, out, out=out)
    return out


def spec_dealias(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    return coeffs * grid.dealias_mask


def spec_band_limit(grid: Grid, coeffs: np.ndarray, max_mode: float) -> np.ndarray:
    """Keep only modes with |m| < max_mode (spherical cut in mode units)."""
    mx, my, mz = grid.modes
    keep = (mx * mx + my * my + mz * mz) < max_mode * max_mode
    return coeffs * keep


# the six index pairs (i, j), i <= j, of a symmetric 3x3 tensor, and the
# position of every (i, j) in that list
SYMMETRIC_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_PAIR_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def unpack_symmetric(packed: np.ndarray, axis: int = -4) -> np.ndarray:
    """Full 3x3 components from the six of SYMMETRIC_PAIRS held on `axis`."""
    return np.take(packed, _PAIR_INDEX, axis=axis)


def physical_gradient(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Samples of d_k of every component of coeffs, k on a new last axis."""
    return to_physical(grid, spec_gradient(grid, coeffs))


def physical_hessian(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Samples of d_i d_j of every component of coeffs on two new last
    axes (i, j); only the six pairs i <= j are transformed."""
    kd = grid.kd
    packed = np.stack([coeffs * (-kd[i] * kd[j]) for i, j in SYMMETRIC_PAIRS],
                      axis=-4)
    return unpack_symmetric(to_physical(grid, packed))


def spectral_mean_square(grid: Grid, coeffs: np.ndarray) -> float:
    """Volume mean of the squared field, summed over any component axes.

    Uses the discrete Parseval identity of the half-complex layout, so the
    result matches mean(values**2) of the physical representation.
    """
    return spectral_inner(grid, coeffs, coeffs)


def spectral_inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Volume mean of the pointwise product of the fields with coefficients
    a and b, summed over any component axes.

    The discrete Parseval identity of the half-complex layout: each stored
    mode also stands for its unstored conjugate, except on the kz = 0 and
    kz = n/2 planes.  Re(a conj b) is weighted and summed element by
    element, so the sum is fixed by the array shape alone: random initial
    conditions are normalized by spectral_mean_square, and their fields
    would move by an ulp under another summation order.
    """
    if a.shape != b.shape or a.shape[-3:] != grid.spectral_shape:
        raise ValueError(f"need two arrays of coefficients on {grid}, got "
                         f"shapes {a.shape} and {b.shape}")
    re_ab = (a.real * b.real + a.imag * b.imag) * grid.parseval_weights
    return float(re_ab.sum())


# ---------------------------------------------------------------------------
# field wrappers

@dataclass(frozen=True)
class _BaseField:
    grid: Grid
    data: np.ndarray
    rep: Rep

    _component_shape: ClassVar[tuple] = ()

    def __post_init__(self):
        if self.rep not in ("physical", "spectral"):
            raise ValueError(f"rep must be 'physical' or 'spectral', got {self.rep!r}")
        base = self.grid.shape if self.rep == "physical" else self.grid.spectral_shape
        want = self._component_shape + base
        dtype = np.float64 if self.rep == "physical" else np.complex128
        arr = np.asarray(self.data)
        if self.rep == "physical" and np.iscomplexobj(arr):
            raise ValueError("physical field values must be real")
        arr = arr.astype(dtype, copy=False)
        if arr.shape != want:
            raise ValueError(f"expected data of shape {want}, got {arr.shape}")
        object.__setattr__(self, "data", _frozen(arr))

    # -- constructors ------------------------------------------------------
    @classmethod
    def physical(cls, grid: Grid, values) -> "_BaseField":
        return cls(grid, values, "physical")

    @classmethod
    def spectral(cls, grid: Grid, coeffs) -> "_BaseField":
        return cls(grid, coeffs, "spectral")

    # -- conversions -------------------------------------------------------
    def to_spectral(self) -> "_BaseField":
        if self.rep == "spectral":
            return self
        return type(self)(self.grid, to_spectral(self.grid, self.data), "spectral")

    def to_physical(self) -> "_BaseField":
        if self.rep == "physical":
            return self
        return type(self)(self.grid, to_physical(self.grid, self.data), "physical")

    @property
    def values(self) -> np.ndarray:
        return self.data

    def _same(self, data: np.ndarray, rep: Rep) -> "_BaseField":
        return type(self)(self.grid, data, rep)


class ScalarField(_BaseField):
    _component_shape = ()


class VectorField(_BaseField):
    """Three scalar components over one shared grid, stacked on axis 0."""

    _component_shape = (3,)

    def component(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.data[i], self.rep)

    def __getitem__(self, i: int) -> ScalarField:
        return self.component(i)


class TensorField3(_BaseField):
    """Rank-2 field with components T[i, j] over one shared grid."""

    _component_shape = (3, 3)

    def component(self, i: int, j: int) -> ScalarField:
        return ScalarField(self.grid, self.data[i, j], self.rep)


Field = Union[ScalarField, VectorField, TensorField3]


# ---------------------------------------------------------------------------
# field-level operators; each returns a field in the representation of its
# input (spectral math happens internally either way)

def _spectral_op(field: Field, fn) -> np.ndarray:
    coeffs = field.data if field.rep == "spectral" else to_spectral(field.grid, field.data)
    return fn(field.grid, coeffs)


def _wrap(field: Field, kind, coeffs: np.ndarray) -> Field:
    if field.rep == "physical":
        return kind(field.grid, to_physical(field.grid, coeffs), "physical")
    return kind(field.grid, coeffs, "spectral")


def transform(field: Field, to: Rep) -> Field:
    if to == "physical":
        return field.to_physical()
    if to == "spectral":
        return field.to_spectral()
    raise ValueError(f"unknown representation {to!r}")


def derivative(field: ScalarField, axis: int) -> ScalarField:
    """Spectral d/dx_axis of a scalar field."""
    if not isinstance(field, ScalarField):
        raise TypeError("derivative expects a ScalarField")
    return _wrap(field, ScalarField,
                 _spectral_op(field, lambda g, c: spec_derivative(g, c, axis)))


def gradient(field: ScalarField) -> VectorField:
    if not isinstance(field, ScalarField):
        raise TypeError("gradient expects a ScalarField")
    return _wrap(field, VectorField, _spectral_op(field, spec_gradient))


def divergence(field: VectorField) -> ScalarField:
    if not isinstance(field, VectorField):
        raise TypeError("divergence expects a VectorField")
    return _wrap(field, ScalarField, _spectral_op(field, spec_divergence))


def curl(field: VectorField) -> VectorField:
    if not isinstance(field, VectorField):
        raise TypeError("curl expects a VectorField")
    return _wrap(field, VectorField, _spectral_op(field, spec_curl))


def laplacian(field: Field) -> Field:
    return _wrap(field, type(field), _spectral_op(field, spec_laplacian))


def gradient_tensor(field: VectorField) -> TensorField3:
    """A[i, j] = d u_i / d x_j."""
    if not isinstance(field, VectorField):
        raise TypeError("gradient_tensor expects a VectorField")

    return _wrap(field, TensorField3, _spectral_op(field, spec_gradient))


def hessian(field: ScalarField) -> TensorField3:
    if not isinstance(field, ScalarField):
        raise TypeError("hessian expects a ScalarField")

    return _wrap(field, TensorField3, _spectral_op(
        field, lambda g, c: spec_gradient(g, spec_gradient(g, c))))


def solve_poisson(rhs: ScalarField) -> ScalarField:
    """Zero-mean solution of lap(f) = rhs; rejects a nonzero-mean rhs."""
    if not isinstance(rhs, ScalarField):
        raise TypeError("solve_poisson expects a ScalarField")
    return _wrap(rhs, ScalarField, _spectral_op(rhs, spec_poisson))


def dealias(field: Field) -> Field:
    return _wrap(field, type(field), _spectral_op(field, spec_dealias))


def band_limit(field: Field, max_mode: float) -> Field:
    return _wrap(field, type(field), _spectral_op(
        field, lambda g, c: spec_band_limit(g, c, max_mode)))


def volume_mean(field: ScalarField) -> float:
    """Arithmetic mean over grid points; equals the k = 0 coefficient."""
    if not isinstance(field, ScalarField):
        raise TypeError("volume_mean expects a ScalarField")
    if field.rep == "physical":
        return float(field.data.mean())
    return float(field.data[0, 0, 0].real)
