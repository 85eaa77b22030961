"""Binary snapshots and run manifests.

Snapshot layout: magic "VXL1", u32 grid size n, f64 box length, f64 time,
f64 viscosity, u8 component-count tag (1 scalar, 3 vector, 9 tensor),
then the physical samples as little-endian f64 in x-fastest order with
components concatenated.  Arrays in memory are [ix, iy, iz] C-order, so
each component is transposed before writing and after reading.

For plain fields the time and viscosity slots are zero.  For flow states
the viscosity slot holds the effective viscosity; a state saved from a
Reynolds-number parameterization round-trips through load_state(...,
dimensionless=True) as re = 1/viscosity.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .solver import FlowState
from .spectral import Field, Grid, ScalarField, TensorField3, VectorField

__all__ = [
    "MAGIC",
    "save_field",
    "load_field",
    "save_state",
    "load_state",
    "write_manifest",
    "read_manifest",
]

MAGIC = b"VXL1"
_HEADER = struct.Struct("<4sIdddB")


def _components(field: Field) -> np.ndarray:
    data = field.to_physical().data
    return data.reshape((-1,) + field.grid.shape)


def save_field(path, field: Field, *, time: float = 0.0,
               viscosity: float = 0.0) -> None:
    comps = _components(field)
    header = _HEADER.pack(MAGIC, field.grid.n, field.grid.box_length,
                          float(time), float(viscosity), comps.shape[0])
    with open(path, "wb") as fh:
        fh.write(header)
        for comp in comps:
            fh.write(np.ascontiguousarray(
                comp.transpose(2, 1, 0)).astype("<f8").tobytes())


def load_field(path):
    """Read one snapshot; returns (field, time, viscosity)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"truncated snapshot: {path}")
    magic, n, box_length, time, viscosity, tag = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"not a VXL1 snapshot: {path}")
    if tag not in (1, 3, 9):
        raise ValueError(f"unknown component tag {tag} in {path}")
    expected = _HEADER.size + tag * n ** 3 * 8
    if len(raw) != expected:
        raise ValueError(
            f"snapshot size mismatch in {path}: have {len(raw)} bytes, "
            f"expected {expected}")
    grid = Grid(n, box_length)
    flat = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if not np.isfinite(flat).all():
        raise ValueError(f"snapshot {path} has non-finite values")
    comps = flat.reshape(tag, n, n, n).transpose(0, 3, 2, 1)
    if tag == 1:
        field: Field = ScalarField.physical(grid, comps[0])
    elif tag == 3:
        field = VectorField.physical(grid, comps)
    else:
        field = TensorField3.physical(grid, comps.reshape(3, 3, n, n, n))
    return field, time, viscosity


def save_state(path, state: FlowState) -> None:
    save_field(path, state.u, time=state.t,
               viscosity=state.effective_viscosity)


def load_state(path, dimensionless: bool = False) -> FlowState:
    field, time, viscosity = load_field(path)
    if not isinstance(field, VectorField):
        raise ValueError(f"snapshot {path} does not hold a velocity field")
    if not viscosity > 0:
        raise ValueError(
            f"snapshot {path} has no positive viscosity; not a flow state")
    u = field.to_spectral()
    if dimensionless:
        return FlowState(u=u, t=time, re=1.0 / viscosity)
    return FlowState(u=u, t=time, nu=viscosity)


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path, "r") as fh:
        return json.load(fh)
