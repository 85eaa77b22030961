import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import vortexlab as vx
from vortexlab import spectral as spx

import oracles as oc


def rand_physical(n, seed, components=()):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(components + (n, n, n))


class TestGrid:
    def test_basic_attributes(self, grid32):
        assert grid32.shape == (32, 32, 32)
        assert grid32.spectral_shape == (32, 32, 17)
        assert grid32.spacing == pytest.approx(2 * np.pi / 32)

    @pytest.mark.parametrize("bad_n", [7, 9, 0, -8, 6, 2.5])
    def test_rejects_bad_size(self, bad_n):
        with pytest.raises(ValueError):
            vx.Grid(bad_n)

    @pytest.mark.parametrize("bad_l", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_box(self, bad_l):
        with pytest.raises(ValueError):
            vx.Grid(16, bad_l)

    def test_wavenumbers(self, grid16):
        mx, my, mz = grid16.modes
        assert mx.shape == (16, 1, 1)
        assert mz.shape == (1, 1, 9)
        assert mx.ravel().tolist() == [0, 1, 2, 3, 4, 5, 6, 7, -8,
                                       -7, -6, -5, -4, -3, -2, -1]
        # true wavenumbers keep the Nyquist value, derivative ones zero it
        assert grid16.k[0].ravel()[8] == pytest.approx(-8.0)
        assert grid16.kd[0].ravel()[8] == 0.0
        assert grid16.kd[2].ravel()[8] == 0.0
        assert grid16.k2[0, 0, 0] == 0.0

    def test_box_length_scales_wavenumbers(self):
        g = vx.Grid(16, box_length=np.pi)
        assert g.k[0].ravel()[1] == pytest.approx(2.0)

    def test_dealias_mask_counts(self, grid16):
        # per axis the rule keeps 3|m| < n: m in {-5..5} on n=16
        kept = int(grid16.dealias_mask[:, 0, 0].sum())
        assert kept == 11

    def test_coordinates_broadcastable(self, grid16):
        x, y, z = grid16.coordinates()
        assert x.shape == (16, 1, 1) and z.shape == (1, 1, 16)
        assert x.ravel()[1] == pytest.approx(grid16.spacing)

    def test_equality_and_hash(self):
        assert vx.Grid(16) == vx.Grid(16)
        assert vx.Grid(16) != vx.Grid(32)
        assert hash(vx.Grid(16)) == hash(vx.Grid(16))


class TestTransforms:
    def test_round_trip(self, grid16):
        values = rand_physical(16, 5)
        back = spx.to_physical(grid16, spx.to_spectral(grid16, values))
        assert np.abs(back - values).max() < 1e-12

    def test_forward_scaling_mean(self, grid16):
        values = rand_physical(16, 6)
        ch = spx.to_spectral(grid16, values)
        assert ch[0, 0, 0].real == pytest.approx(values.mean(), abs=1e-14)
        assert abs(ch[0, 0, 0].imag) < 1e-15

    def test_batched_leading_axes(self, grid16):
        values = rand_physical(16, 7, components=(3,))
        ch = spx.to_spectral(grid16, values)
        assert ch.shape == (3, 16, 16, 9)
        one = spx.to_spectral(grid16, values[1])
        assert np.abs(ch[1] - one).max() == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, grid16, seed):
        values = rand_physical(16, seed)
        back = spx.to_physical(grid16, spx.to_spectral(grid16, values))
        assert np.abs(back - values).max() < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_parseval(self, grid16, seed):
        values = rand_physical(16, seed, components=(3,))
        ch = spx.to_spectral(grid16, values)
        direct = float((values ** 2).mean(axis=(-3, -2, -1)).sum())
        assert spx.spectral_mean_square(grid16, ch) == pytest.approx(
            direct, rel=1e-12)
        other = rand_physical(16, seed + 1, components=(3,))
        cross = float((values * other).mean(axis=(-3, -2, -1)).sum())
        assert spx.spectral_inner(
            grid16, ch, spx.to_spectral(grid16, other)) == pytest.approx(
                cross, rel=1e-12, abs=1e-14)
        assert spx.spectral_inner(grid16, ch, ch) == pytest.approx(
            direct, rel=1e-14)

    def test_inner_rejects_other_layouts(self, grid16):
        ch = spx.to_spectral(grid16, rand_physical(16, 0, components=(3,)))
        with pytest.raises(ValueError, match="coefficients"):
            spx.spectral_inner(grid16, ch, ch[0])
        with pytest.raises(ValueError, match="coefficients"):
            spx.spectral_inner(vx.Grid(8), ch, ch)


class TestDifferentialOperators:
    def test_derivative_of_sine(self, grid16):
        x, _, _ = grid16.coordinates()
        f = np.broadcast_to(np.sin(x), grid16.shape)
        fh = spx.to_spectral(grid16, f)
        dfdx = spx.to_physical(grid16, spx.spec_derivative(grid16, fh, 0))
        assert np.abs(dfdx - np.cos(x)).max() < 1e-13

    def test_derivative_matches_symbolic(self, grid16):
        expr = sp.sin(oc.X) * sp.cos(2 * oc.Y) + sp.cos(3 * oc.Z)
        f = oc.eval_on_grid(expr, 16)
        fh = spx.to_spectral(grid16, f)
        for axis, var in enumerate((oc.X, oc.Y, oc.Z)):
            want = oc.eval_on_grid(sp.diff(expr, var), 16)
            got = spx.to_physical(grid16, spx.spec_derivative(grid16, fh, axis))
            assert np.abs(got - want).max() < 1e-12

    def test_derivative_axis_validation(self, grid16):
        fh = np.zeros(grid16.spectral_shape, complex)
        with pytest.raises(ValueError):
            spx.spec_derivative(grid16, fh, 3)

    def test_laplacian_is_div_grad(self, grid16):
        f = rand_physical(16, 11)
        fh = spx.to_spectral(grid16, f)
        lap = spx.spec_laplacian(grid16, fh)
        divgrad = spx.spec_divergence(grid16, spx.spec_gradient(grid16, fh))
        assert np.abs(lap - divgrad).max() < 1e-11

    def test_curl_of_gradient_vanishes(self, grid16):
        fh = spx.to_spectral(grid16, rand_physical(16, 12))
        cg = spx.spec_curl(grid16, spx.spec_gradient(grid16, fh))
        assert np.abs(cg).max() < 1e-11


class TestPoisson:
    def test_negative_sine_source(self, grid16):
        # lap f = -sin(x) has the periodic zero-mean solution f = sin(x)
        x, _, _ = grid16.coordinates()
        rhs = np.broadcast_to(-np.sin(x), grid16.shape)
        fh = spx.spec_poisson(grid16, spx.to_spectral(grid16, rhs))
        f = spx.to_physical(grid16, fh)
        assert np.abs(f - np.sin(x)).max() < 1e-13

    def test_rejects_nonzero_mean(self, grid16):
        rhs = np.ones(grid16.shape)
        with pytest.raises(ValueError, match="zero mean"):
            spx.spec_poisson(grid16, spx.to_spectral(grid16, rhs))

    def test_solution_has_zero_mean(self, grid16):
        # sources must live in the range of the discrete laplacian, which
        # excludes Nyquist content along with the mean
        rhs_h = spx.spec_dealias(
            grid16, spx.to_spectral(grid16, rand_physical(16, 13)))
        rhs_h[0, 0, 0] = 0.0
        fh = spx.spec_poisson(grid16, rhs_h)
        assert abs(fh[0, 0, 0]) < 1e-14
        lap = spx.spec_laplacian(grid16, fh)
        assert np.abs(lap - rhs_h).max() < 1e-12


class TestProjectionAndMasks:
    def test_projection_is_solenoidal(self, grid16):
        ch = spx.to_spectral(grid16, rand_physical(16, 14, components=(3,)))
        ph = spx.spec_project(grid16, ch)
        div = spx.to_physical(grid16, spx.spec_divergence(grid16, ph))
        assert np.abs(div).max() < 1e-12

    def test_projection_idempotent(self, grid16):
        ch = spx.to_spectral(grid16, rand_physical(16, 15, components=(3,)))
        once = spx.spec_project(grid16, ch)
        twice = spx.spec_project(grid16, once)
        assert np.abs(twice - once).max() < 1e-14

    def test_projection_removes_gradients(self, grid16):
        fh = spx.to_spectral(grid16, rand_physical(16, 16))
        gh = spx.spec_gradient(grid16, fh)
        assert np.abs(spx.spec_project(grid16, gh)).max() < 1e-11

    def test_band_limit_spherical(self, grid16):
        ch = spx.to_spectral(grid16, rand_physical(16, 17))
        cut = spx.spec_band_limit(grid16, ch, 4.0)
        mx, my, mz = grid16.modes
        outside = (mx**2 + my**2 + mz**2) >= 16
        assert np.abs(cut[outside]).max() == 0.0
        inside = ~outside
        assert np.abs(cut[inside] - ch[inside]).max() == 0.0

    def test_dealias_zeroes_high_modes(self, grid16):
        ch = spx.to_spectral(grid16, rand_physical(16, 18))
        cut = spx.spec_dealias(grid16, ch)
        assert np.abs(cut[~grid16.dealias_mask]).max() == 0.0


class TestFieldWrappers:
    def test_shape_validation(self, grid16):
        with pytest.raises(ValueError):
            vx.ScalarField(grid16, np.zeros((3, 16, 16, 16)), "physical")
        with pytest.raises(ValueError):
            vx.VectorField(grid16, np.zeros((16, 16, 16)), "physical")
        with pytest.raises(ValueError):
            vx.TensorField3(grid16, np.zeros((3, 16, 16, 16)), "physical")
        with pytest.raises(ValueError):
            vx.ScalarField(grid16, np.zeros((16, 16, 16)), "fourier")

    def test_physical_rejects_complex(self, grid16):
        with pytest.raises(ValueError, match="real"):
            vx.ScalarField(grid16, np.zeros((16, 16, 16), complex), "physical")

    def test_data_is_immutable(self, grid16):
        f = vx.ScalarField.physical(grid16, rand_physical(16, 19))
        with pytest.raises(ValueError):
            f.data[0, 0, 0] = 1.0

    def test_representation_round_trip(self, grid16):
        f = vx.ScalarField.physical(grid16, rand_physical(16, 20))
        back = f.to_spectral().to_physical()
        assert back.rep == "physical"
        assert np.abs(back.data - f.data).max() < 1e-12

    def test_component_access(self, grid16):
        v = vx.VectorField.physical(grid16, rand_physical(16, 21, (3,)))
        assert isinstance(v[1], vx.ScalarField)
        assert np.abs(v[1].data - v.data[1]).max() == 0.0
        t = vx.TensorField3.physical(grid16, rand_physical(16, 22, (3, 3)))
        assert np.abs(t.component(2, 1).data - t.data[2, 1]).max() == 0.0

    def test_volume_mean_equals_k0(self, grid16):
        f = vx.ScalarField.physical(grid16, rand_physical(16, 23))
        fh = f.to_spectral()
        assert vx.volume_mean(f) == pytest.approx(float(f.data.mean()), abs=1e-14)
        assert vx.volume_mean(fh) == pytest.approx(float(f.data.mean()), abs=1e-14)

    def test_field_operators_shapes(self, grid16):
        f = vx.ScalarField.physical(grid16, rand_physical(16, 24))
        assert isinstance(vx.gradient(f), vx.VectorField)
        assert isinstance(vx.hessian(f), vx.TensorField3)
        v = vx.gradient(f)
        assert isinstance(vx.divergence(v), vx.ScalarField)
        assert isinstance(vx.curl(v), vx.VectorField)
        with pytest.raises(TypeError):
            vx.gradient(v)
        with pytest.raises(TypeError):
            vx.divergence(f)

    def test_result_keeps_input_representation(self, grid16):
        f = vx.ScalarField.physical(grid16, rand_physical(16, 25))
        assert vx.gradient(f).rep == "physical"
        assert vx.gradient(f.to_spectral()).rep == "spectral"


class TestWorkerConfig:
    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the affinity size and cgroup quota fft_workers sees."""
        def set_cpus(affinity, quota):
            monkeypatch.setattr(spx.os, "sched_getaffinity",
                                lambda pid: set(range(affinity)))
            monkeypatch.setattr(spx, "_cpu_quota", lambda: quota)
            spx._cpu_limit.cache_clear()

        monkeypatch.delenv("VXL_THREADS", raising=False)
        yield set_cpus
        spx._cpu_limit.cache_clear()

    @pytest.mark.parametrize("affinity,quota,want", [
        (1, None, 1), (8, None, 8), (8, 2.0, 2), (8, 2.5, 3), (8, 0.5, 1),
        (2, 16.0, 2)])
    def test_bounded_by_affinity_and_quota(self, cpus, affinity, quota, want):
        cpus(affinity, quota)
        assert spx.fft_workers() == want

    def test_env_caps_the_limit(self, cpus, monkeypatch):
        cpus(4, None)
        monkeypatch.setenv("VXL_THREADS", "2")
        assert spx.fft_workers() == 2
        monkeypatch.setenv("VXL_THREADS", "16")
        assert spx.fft_workers() == 4

    def test_limit_is_read_once(self, cpus, monkeypatch):
        cpus(3, None)
        assert spx.fft_workers() == 3
        monkeypatch.setattr(spx.os, "sched_getaffinity", lambda pid: {0})
        assert spx.fft_workers() == 3

    @pytest.mark.parametrize("text,want", [
        ("max 100000\n", None), ("50000 100000\n", 0.5),
        ("200000 100000\n", 2.0), ("garbled\n", None)])
    def test_cgroup_quota_file(self, monkeypatch, tmp_path, text, want):
        path = tmp_path / "cpu.max"
        path.write_text(text)
        monkeypatch.setattr(spx, "_CGROUP_CPU_MAX", str(path))
        assert spx._cpu_quota() == want

    def test_missing_cgroup_file_means_no_quota(self, monkeypatch, tmp_path):
        monkeypatch.setattr(spx, "_CGROUP_CPU_MAX", str(tmp_path / "none"))
        assert spx._cpu_quota() is None

    def test_env_override(self, cpus, monkeypatch):
        cpus(4, None)
        monkeypatch.setenv("VXL_THREADS", "2")
        assert spx.fft_workers() == 2

    @pytest.mark.parametrize("bad", ["0", "-3", "abc"])
    def test_env_rejects_bad_values(self, monkeypatch, bad):
        monkeypatch.setenv("VXL_THREADS", bad)
        with pytest.raises(ValueError):
            spx.fft_workers()
