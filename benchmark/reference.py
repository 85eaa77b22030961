"""Computations made outside the program: VXL1 snapshot reading and
writing, random solenoidal velocity fields, and an integrating-factor RK4
Navier-Stokes integrator in convective form.

Everything here uses plain ``numpy.fft`` and shares no code with vortexlab,
so agreement with the program is evidence, not tautology.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# magic, grid size n, box length, time, viscosity, component count; then
# little-endian f64 samples, x fastest, components one after another
VXL1_HEADER = struct.Struct("<4sIdddB")
VXL1_MAGIC = b"VXL1"
BOX = 2.0 * math.pi


def write_vxl1(path, u, t, nu, box_length=BOX):
    """Write a (3, n, n, n) velocity array as a VXL1 snapshot."""
    n = u.shape[-1]
    with open(path, "wb") as fh:
        fh.write(VXL1_HEADER.pack(VXL1_MAGIC, n, box_length, t, nu, 3))
        for comp in u:
            fh.write(np.ascontiguousarray(comp.transpose(2, 1, 0))
                     .astype("<f8").tobytes())


def read_vxl1(path):
    """Return (u, t, nu, box_length) from a VXL1 velocity snapshot."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, n, box_length, t, nu, tag = VXL1_HEADER.unpack_from(raw)
    if magic != VXL1_MAGIC or tag != 3:
        raise ValueError(f"{path} is not a VXL1 velocity snapshot")
    flat = np.frombuffer(raw, dtype="<f8", offset=VXL1_HEADER.size)
    u = flat.reshape(3, n, n, n).transpose(0, 3, 2, 1).astype(np.float64)
    return u, t, nu, box_length


class Wavenumbers:
    """Half-complex wavenumbers of an n^3 box and its two-thirds mask."""

    def __init__(self, n, box_length=BOX):
        m = np.fft.fftfreq(n, 1.0 / n)
        mz = np.arange(n // 2 + 1, dtype=float)
        mx, my, mz = np.meshgrid(m, m, mz, indexing="ij")
        scale = 2.0 * math.pi / box_length
        self.n = n
        self.k = np.stack([scale * mx, scale * my, scale * mz])
        self.k2 = (self.k ** 2).sum(axis=0)
        self.mask = ((3 * np.abs(mx) < n) & (3 * np.abs(my) < n)
                     & (3 * np.abs(mz) < n))

    def project(self, vh):
        """Remove the gradient part of a spectral vector field."""
        kdotv = (self.k * vh).sum(axis=0)
        ratio = np.divide(kdotv, self.k2, out=np.zeros_like(kdotv),
                          where=self.k2 > 0)
        return vh - self.k * ratio


def _fwd(u):
    return np.fft.rfftn(u, axes=(-3, -2, -1), norm="forward")


def _inv(uh, n):
    return np.fft.irfftn(uh, s=(n, n, n), axes=(-3, -2, -1), norm="forward")


def random_solenoidal(n, rng, k0, energy):
    """Divergence-free field inside the two-thirds band, spectrum peaked at
    k0, zero mean and mean kinetic energy <|u|^2>/2 = energy."""
    wn = Wavenumbers(n)
    uh = _fwd(rng.standard_normal((3, n, n, n)))
    kmag = np.sqrt(wn.k2)
    uh = wn.project(uh * (kmag * np.exp(-(kmag / k0) ** 2))) * wn.mask
    uh[:, 0, 0, 0] = 0.0
    u = _inv(uh, n)
    return u * math.sqrt(2.0 * energy / float((u * u).sum(axis=0).mean()))


def _convective_rhs(uh, wn):
    """-P[mask((u . grad) u)], with every product formed in physical space."""
    n = wn.n
    u = _inv(uh, n)
    adv = np.zeros_like(u)
    for j in range(3):
        adv += u[j] * _inv(1j * wn.k[j] * uh, n)
    return -wn.project(_fwd(adv) * wn.mask)


def integrate(u0, nu, h, steps, box_length=BOX):
    """Classical RK4 on the nonlinear term with exp(-nu k^2 t) applied
    exactly (the integrating-factor, or Lawson, scheme)."""
    n = u0.shape[-1]
    wn = Wavenumbers(n, box_length)
    full = np.exp(-nu * h * wn.k2)
    half = np.exp(-0.5 * nu * h * wn.k2)
    uh = _fwd(u0)
    for _ in range(steps):
        a = _convective_rhs(uh, wn)
        b = _convective_rhs(half * (uh + 0.5 * h * a), wn)
        c = _convective_rhs(half * uh + 0.5 * h * b, wn)
        d = _convective_rhs(full * uh + h * (half * c), wn)
        uh = full * uh + (h / 6.0) * (full * a + 2.0 * half * (b + c) + d)
    return _inv(uh, n)


def reference_with_error(u0, nu, h, steps, box_length=BOX):
    """Reference state after `steps` steps of size h, and its step-halving
    error estimate: for a fourth-order scheme the error of the h run is
    about |u_2h - u_h| / 15."""
    if steps % 2:
        raise ValueError(f"step halving needs an even step count, got {steps}")
    fine = integrate(u0, nu, h, steps, box_length)
    coarse = integrate(u0, nu, 2.0 * h, steps // 2, box_length)
    return fine, float(np.abs(coarse - fine).max()) / 15.0
