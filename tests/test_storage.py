import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vortexlab as vx

from conftest import band_limited_random_velocity


def rand_field(cls, grid, seed, components=()):
    rng = np.random.default_rng(seed)
    return cls.physical(grid, rng.standard_normal(components + grid.shape))


class TestFieldRoundTrip:
    @pytest.mark.parametrize("cls,comp", [
        (vx.ScalarField, ()),
        (vx.VectorField, (3,)),
        (vx.TensorField3, ((3, 3))),
    ])
    def test_physical_round_trip(self, tmp_path, grid16, cls, comp):
        comp = comp if isinstance(comp, tuple) else (comp,)
        f = rand_field(cls, grid16, seed=len(comp), components=comp)
        path = tmp_path / "f.vxl"
        vx.save_field(path, f, time=0.25, viscosity=0.01)
        g, t, nu = vx.load_field(path)
        assert type(g) is cls
        assert t == 0.25 and nu == 0.01
        assert g.grid == grid16
        assert np.abs(g.to_physical().data - f.data).max() == 0.0

    def test_spectral_input_round_trips_via_physical(self, grid16):
        f = rand_field(vx.ScalarField, grid16, seed=9).to_spectral()
        import tempfile, os
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "f.vxl")
            vx.save_field(path, f)
            g, _, _ = vx.load_field(path)
        orig = f.to_physical().data
        assert np.abs(g.data - orig).max() < 1e-15 * max(np.abs(orig).max(), 1.0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, grid16, seed):
        import os, tempfile
        f = rand_field(vx.VectorField, grid16, seed=seed, components=(3,))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "p.vxl")
            vx.save_field(path, f)
            g, _, _ = vx.load_field(path)
        assert np.abs(g.data - f.data).max() == 0.0


class TestBinaryLayout:
    def test_header_layout(self, tmp_path, grid16):
        f = rand_field(vx.ScalarField, grid16, seed=3)
        path = tmp_path / "h.vxl"
        vx.save_field(path, f, time=1.5, viscosity=0.125)
        blob = path.read_bytes()
        magic, n, box, t, nu, tag = struct.unpack_from("<4sIdddB", blob, 0)
        assert magic == b"VXL1"
        assert n == 16
        assert box == pytest.approx(2 * np.pi)
        assert t == 1.5 and nu == 0.125
        assert tag == 1
        assert len(blob) == 33 + 8 * 16 ** 3

    def test_payload_is_x_fastest(self, tmp_path, grid16):
        f = rand_field(vx.ScalarField, grid16, seed=4)
        path = tmp_path / "x.vxl"
        vx.save_field(path, f)
        blob = path.read_bytes()
        first = struct.unpack_from("<16d", blob, 33)
        assert np.abs(np.array(first) - f.data[:, 0, 0]).max() == 0.0
        second = struct.unpack_from("<16d", blob, 33 + 16 * 8)
        assert np.abs(np.array(second) - f.data[:, 1, 0]).max() == 0.0

    def test_component_tags(self, tmp_path, grid16):
        for cls, comp, tag in [(vx.ScalarField, (), 1),
                               (vx.VectorField, (3,), 3),
                               (vx.TensorField3, (3, 3), 9)]:
            f = rand_field(cls, grid16, seed=tag, components=comp)
            path = tmp_path / f"t{tag}.vxl"
            vx.save_field(path, f)
            blob = path.read_bytes()
            assert blob[32] == tag
            assert len(blob) == 33 + 8 * tag * 16 ** 3

    def test_rejects_bad_magic(self, tmp_path, grid16):
        f = rand_field(vx.ScalarField, grid16, seed=5)
        path = tmp_path / "bad.vxl"
        vx.save_field(path, f)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic|format"):
            vx.load_field(path)

    def test_rejects_truncation(self, tmp_path, grid16):
        f = rand_field(vx.ScalarField, grid16, seed=6)
        path = tmp_path / "cut.vxl"
        vx.save_field(path, f)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="size|payload|truncat"):
            vx.load_field(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, tmp_path, grid16, bad):
        data = rand_field(vx.ScalarField, grid16, seed=7).data.copy()
        data[3, 2, 1] = bad
        path = tmp_path / "nan.vxl"
        vx.save_field(path, vx.ScalarField.physical(grid16, data))
        with pytest.raises(ValueError, match="non-finite"):
            vx.load_field(path)

    def test_rejects_bad_tag(self, tmp_path, grid16):
        f = rand_field(vx.ScalarField, grid16, seed=7)
        path = tmp_path / "tag.vxl"
        vx.save_field(path, f)
        blob = bytearray(path.read_bytes())
        blob[32] = 5
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="tag|component"):
            vx.load_field(path)


class TestStateRoundTrip:
    def test_dimensional_state(self, tmp_path):
        u = band_limited_random_velocity(16, 4.0, seed=11)
        state = vx.FlowState(u, t=0.75, nu=0.05)
        path = tmp_path / "s.vxl"
        vx.save_state(path, state)
        back = vx.load_state(path)
        assert back.t == 0.75
        assert back.nu == 0.05
        assert back.re is None
        a = back.u.to_physical().data
        b = state.u.to_physical().data
        assert np.abs(a - b).max() < 1e-14 * np.abs(b).max()

    def test_dimensionless_state(self, tmp_path):
        u = band_limited_random_velocity(16, 4.0, seed=12)
        state = vx.FlowState(u, t=0.0, re=250.0)
        path = tmp_path / "d.vxl"
        vx.save_state(path, state)
        back = vx.load_state(path, dimensionless=True)
        assert back.nu is None
        assert back.re == pytest.approx(250.0, rel=1e-12)

    def test_load_state_requires_vector(self, tmp_path, grid16):
        f = rand_field(vx.ScalarField, grid16, seed=13)
        path = tmp_path / "sc.vxl"
        vx.save_field(path, f, viscosity=0.1)
        with pytest.raises(ValueError, match="vector|velocity"):
            vx.load_state(path)

    def test_load_state_requires_viscosity(self, tmp_path):
        u = band_limited_random_velocity(16, 4.0, seed=14)
        path = tmp_path / "nov.vxl"
        vx.save_field(path, u, viscosity=0.0)
        with pytest.raises(ValueError, match="viscosity"):
            vx.load_state(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        payload = {"n": 32, "box_length": 6.283185307179586, "nu": 0.01,
                   "dt": 1e-3, "t_end": 1.0, "seed": 7,
                   "ic_kind": "taylor-green", "ic_params": {}}
        path = tmp_path / "manifest.json"
        vx.write_manifest(path, payload)
        assert vx.read_manifest(path) == payload

    def test_deterministic_bytes(self, tmp_path):
        payload = {"b": 1, "a": 2}
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        vx.write_manifest(p1, payload)
        vx.write_manifest(p2, dict(reversed(list(payload.items()))))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")
