import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import vortexlab as vx
from vortexlab import spectral as spx
from vortexlab.kinematics import relative_divergence

import oracles as oc
from conftest import band_limited_random_velocity


@pytest.fixture(scope="module")
def tg_velocity(grid32):
    return vx.initial_condition("taylor_green", grid32, nu=0.01).u


@pytest.fixture(scope="module")
def abc_velocity(grid32):
    return vx.initial_condition("abc", grid32, nu=0.01).u


class TestVelocityGradient:
    def test_matches_symbolic_on_taylor_green(self, tg_velocity):
        a = vx.Workspace(tg_velocity).a
        sym = oc.grad_matrix(oc.taylor_green_exprs())
        for i in range(3):
            for j in range(3):
                want = oc.eval_on_grid(sym[i, j], 32)
                assert np.abs(a[i, j] - want).max() < 1e-12

    def test_trace_vanishes(self, band8_field):
        a = vx.Workspace(band8_field).a
        trace = np.einsum("ii...->...", a)
        assert np.abs(trace).max() < 1e-10 * np.abs(a).max()

    def test_rejects_divergent_input(self, grid32):
        x, _, _ = grid32.coordinates()
        bad = np.zeros((3,) + grid32.shape)
        bad[0] = np.broadcast_to(np.sin(x), grid32.shape)
        with pytest.raises(ValueError, match="div"):
            vx.invariants(vx.VectorField.physical(grid32, bad))

    def test_relative_divergence_zero_field(self, grid32):
        zero = vx.VectorField.physical(grid32, np.zeros((3,) + grid32.shape))
        assert relative_divergence(zero) == 0.0


class TestVorticity:
    def test_taylor_green_closed_form(self, grid32, tg_velocity):
        w = vx.Workspace(tg_velocity).w
        x, y, z = grid32.coordinates()
        want = np.stack([
            np.broadcast_to(-np.cos(x) * np.sin(y) * np.sin(z), grid32.shape),
            np.broadcast_to(-np.sin(x) * np.cos(y) * np.sin(z), grid32.shape),
            np.broadcast_to(2 * np.sin(x) * np.sin(y) * np.cos(z), grid32.shape),
        ])
        assert np.abs(w - want).max() < 1e-12

    def test_abc_is_beltrami(self, abc_velocity):
        # curl u = u for the unit ABC flow
        ws = vx.Workspace(abc_velocity)
        assert np.abs(ws.w - ws.up).max() < 1e-12

    def test_divergence_free(self, band8_field):
        w = vx.VectorField.spectral(band8_field.grid,
                                    vx.Workspace(band8_field).wh)
        assert relative_divergence(w) < 1e-12


def _skew_from_vorticity(w):
    """0.5 eps_kji omega_k: the skew part of A that omega stands for."""
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    return 0.5 * np.einsum("kji,k...->ij...", eps, w)


class TestDecompose:
    """A splits into S (symmetric part) and omega (the skew part)."""

    def test_reconstruction(self, band8_field):
        ws = vx.Workspace(band8_field)
        a = ws.a
        # skew part Omega_ij = (A - A^T)/2 = 0.5 eps_kji omega_k
        skew = 0.5 * (a - np.swapaxes(a, 0, 1))
        assert np.abs(skew - _skew_from_vorticity(ws.w)).max() < 1e-12
        assert np.abs(ws.s - np.swapaxes(ws.s, 0, 1)).max() == 0.0
        assert np.abs(ws.s + skew - a).max() < 1e-12

    def test_vorticity_agrees_with_curl(self, band8_field):
        # omega read off the skew part of A against omega = curl u
        ws = vx.Workspace(band8_field)
        a = ws.a
        from_a = np.stack([a[2, 1] - a[1, 2], a[0, 2] - a[2, 0],
                           a[1, 0] - a[0, 1]])
        assert np.abs(from_a - ws.w).max() < 1e-11


class TestWorkspace:
    def test_flux_and_lap_s_computed_once(self, band8_field, fft_fields):
        ws = vx.Workspace(band8_field)
        ws.up, ws.a, ws.advection_h  # the inputs they read
        for name, inverse in (("advective_flux", 12), ("lap_s", 6)):
            fft_fields.update(forward=0, inverse=0)
            first = getattr(ws, name)
            assert fft_fields == {"forward": 0, "inverse": inverse}
            assert getattr(ws, name) is first
            assert fft_fields == {"forward": 0, "inverse": inverse}


class TestInvariants:
    def test_pointwise_match_symbolic_abc(self, abc_velocity):
        inv = vx.invariants(abc_velocity)
        sym = oc.invariant_exprs(oc.abc_exprs())
        for name in ("trA2", "trA3", "trS2", "trS3", "enstrophy",
                     "omega_S_omega"):
            want = oc.eval_on_grid(sym[name], 32)
            got = getattr(inv, name).data
            assert np.abs(got - want).max() < 1e-11, name

    def test_switch_relations(self, band8_field):
        inv = vx.invariants(band8_field)
        lhs2 = inv.trA2.data
        rhs2 = inv.trS2.data - 0.5 * inv.enstrophy.data
        assert np.abs(lhs2 - rhs2).max() < 1e-10 * np.abs(inv.trS2.data).max()
        lhs3 = inv.trA3.data
        rhs3 = inv.trS3.data + 0.75 * inv.omega_S_omega.data
        assert np.abs(lhs3 - rhs3).max() < 1e-10 * np.abs(inv.trS3.data).max()

    def test_gradient_invariants_positive(self, band8_field):
        inv = vx.invariants(band8_field)
        assert inv.grad_S_sq.data.min() >= 0.0
        assert inv.grad_omega_sq.data.min() >= 0.0
        assert inv.enstrophy.data.min() >= 0.0

    def test_taylor_green_trA3_vanishes_pointwise(self, tg_velocity):
        # symbolic oracle: tr A^3 is identically zero for this flow
        sym = oc.invariant_exprs(oc.taylor_green_exprs())
        assert sp.simplify(sym["trA3"]) == 0
        inv = vx.invariants(tg_velocity)
        assert np.abs(inv.trA3.data).max() < 1e-13
        # while the two pieces it splits into are order one
        assert np.abs(inv.trS3.data).max() > 0.05


def _strain(u):
    return vx.TensorField3.physical(u.grid, vx.Workspace(u).s)


@pytest.fixture(scope="module")
def eigs_and_strain(band8_field):
    S = _strain(band8_field)
    return vx.strain_eigenvalues(S), S


class TestStrainEigenvalues:
    def test_ordering(self, eigs_and_strain):
        eigs, _ = eigs_and_strain
        assert np.all(eigs.a >= eigs.b - 1e-14)
        assert np.all(eigs.b >= eigs.c - 1e-14)

    def test_invariant_relations(self, eigs_and_strain):
        eigs, S = eigs_and_strain
        scale = np.maximum(np.maximum(np.abs(eigs.a), np.abs(eigs.b)),
                           np.maximum(np.abs(eigs.c), 1.0))
        assert np.abs(eigs.a + eigs.b + eigs.c).max() < 1e-12 * scale.max()
        trS2 = np.einsum("ij...,ij...->...", S.data, S.data)
        trS3 = np.einsum("ij...,jk...,ki...->...", S.data, S.data, S.data)
        sum_sq = eigs.a**2 + eigs.b**2 + eigs.c**2
        assert np.abs(sum_sq - trS2).max() < 1e-10 * np.abs(trS2).max()
        prod = 3.0 * eigs.a * eigs.b * eigs.c
        assert np.abs(prod - trS3).max() < 1e-10 * np.abs(trS3).max()

    def test_against_brute_force(self, eigs_and_strain):
        eigs, S = eigs_and_strain
        idx = [(0, 0, 0), (3, 17, 9), (31, 2, 25), (16, 16, 16), (8, 24, 5)]
        for i, j, k in idx:
            mat = S.data[:, :, i, j, k]
            want = oc.eig_descending(mat)
            got = np.array([eigs.a[i, j, k], eigs.b[i, j, k], eigs.c[i, j, k]])
            assert np.abs(got - want).max() < 1e-10

    def test_rejects_non_traceless(self, grid16):
        data = np.zeros((3, 3) + grid16.shape)
        data[0, 0] = 1.0
        with pytest.raises(ValueError, match="traceless"):
            vx.strain_eigenvalues(vx.TensorField3.physical(grid16, data))

    def test_rejects_asymmetric(self, grid16):
        data = np.zeros((3, 3) + grid16.shape)
        data[0, 1] = 1.0
        data[0, 0] = 1.0
        data[1, 1] = -1.0
        with pytest.raises(ValueError, match="symmetric"):
            vx.strain_eigenvalues(vx.TensorField3.physical(grid16, data))

    def test_zero_strain_gives_zero(self, grid16):
        S = vx.TensorField3.physical(grid16, np.zeros((3, 3) + grid16.shape))
        eigs = vx.strain_eigenvalues(S)
        assert np.abs(eigs.a).max() == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
           st.floats(0.1, 3.0))
    def test_random_symmetric_matrices(self, grid16, entries, scale):
        # embed one traceless symmetric matrix at every grid point
        m = np.array([
            [entries[0], entries[2], entries[3]],
            [entries[2], entries[1], entries[4]],
            [entries[3], entries[4], -entries[0] - entries[1]],
        ]) * scale
        data = np.broadcast_to(m[..., None, None, None],
                               (3, 3) + grid16.shape).copy()
        eigs = vx.strain_eigenvalues(vx.TensorField3.physical(grid16, data))
        want = oc.eig_descending(m)
        got = np.array([eigs.a[0, 0, 0], eigs.b[0, 0, 0], eigs.c[0, 0, 0]])
        ref = max(np.abs(want).max(), 1.0)
        assert np.abs(got - want).max() < 1e-8 * ref


class TestVarianceAndHelicity:
    def test_variance_relation(self, band8_field):
        S = _strain(band8_field)
        eigs = vx.strain_eigenvalues(S)
        p, var = vx.variance_P(eigs)
        # under a+b+c = 0 the spread P equals trS2 and 3 var
        trS2 = np.einsum("ij...,ij...->...", S.data, S.data)
        assert np.abs(p.data - trS2).max() < 1e-10 * np.abs(trS2).max()
        assert np.abs(p.data - 3.0 * var.data).max() < 1e-10 * np.abs(trS2).max()

    def test_invariants_variance_matches(self, band8_field):
        inv = vx.invariants(band8_field)
        p, _ = vx.variance_P(vx.strain_eigenvalues(_strain(band8_field)))
        assert np.abs(p.data - inv.trS2.data).max() \
            < 1e-8 * np.abs(inv.trS2.data).max()

    def test_abc_helicity(self, abc_velocity):
        # symbolic oracle: <u . omega> = A^2 + B^2 + C^2 = 3 for the unit flow
        sym = oc.box_mean(sum(
            u * w for u, w in zip(oc.abc_exprs(), oc.curl_exprs(oc.abc_exprs()))))
        assert sym == 3
        assert vx.mean_helicity(abc_velocity) == pytest.approx(3.0, abs=1e-12)

    def test_taylor_green_helicity_zero(self, tg_velocity):
        assert vx.mean_helicity(tg_velocity) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_switch_relations_random_fields(seed):
    u = band_limited_random_velocity(16, 4.0, seed=seed)
    inv = vx.invariants(u)
    scale2 = max(float(np.abs(inv.trS2.data).max()), 1e-30)
    lhs2 = inv.trA2.data - (inv.trS2.data - 0.5 * inv.enstrophy.data)
    assert np.abs(lhs2).max() < 1e-10 * scale2
    scale3 = max(float(np.abs(inv.trS3.data).max()), 1e-30)
    lhs3 = inv.trA3.data - (inv.trS3.data + 0.75 * inv.omega_S_omega.data)
    assert np.abs(lhs3).max() < 1e-10 * scale3
