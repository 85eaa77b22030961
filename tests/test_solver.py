"""Solver-layer tests: state validation, scaling, stepping, residuals.

Exact-decay cases (Beltrami, single Fourier mode) make the integrating
factor and the projection of the nonlinear term testable at roundoff.
"""

import numpy as np
import pytest

import vortexlab as vx
from vortexlab import kinematics as kin
from vortexlab import spectral as spx

import oracles
from conftest import band_limited_random_velocity, evolution_band


def _state(field, **kw):
    kw.setdefault("re", 100.0)
    return vx.FlowState(field, **kw)


class TestFlowState:
    def test_requires_exactly_one_viscosity(self, band8_field):
        with pytest.raises(ValueError):
            vx.FlowState(band8_field, nu=0.01, re=100.0)
        with pytest.raises(ValueError):
            vx.FlowState(band8_field)

    @pytest.mark.parametrize("kw", [{"nu": 0.0}, {"nu": -1.0}, {"re": 0.0},
                                    {"re": -5.0}, {"nu": float("nan")},
                                    {"re": float("inf")}])
    def test_rejects_nonpositive_or_nonfinite(self, band8_field, kw):
        with pytest.raises(ValueError):
            vx.FlowState(band8_field, **kw)

    def test_rejects_non_solenoidal(self, grid16):
        x, y, z = grid16.coordinates()
        comp = np.sin(x) + 0.0 * y + 0.0 * z
        u = vx.VectorField.physical(grid16, np.stack([comp, 0 * comp, 0 * comp]))
        with pytest.raises(ValueError, match="solenoidal"):
            vx.FlowState(u.to_spectral(), nu=0.01)

    def test_rejects_non_hermitian_coefficients(self):
        # random complex coefficients are the transform of no real field:
        # their Parseval mean square disagrees with that of their samples
        grid = vx.Grid(8)
        rng = np.random.default_rng(0)
        shape = (3,) + grid.spectral_shape
        ch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ch = spx.spec_project(grid, ch) * grid.dealias_mask
        ch[:, 0, 0, 0] = 0.0
        u = vx.VectorField.spectral(grid, ch)
        samples = spx.to_physical(grid, ch)
        assert spx.spectral_mean_square(grid, ch) > 1.05 * (samples ** 2).mean(
            axis=(1, 2, 3)).sum()
        with pytest.raises(ValueError, match="real field"):
            vx.FlowState(u, re=100.0)

    @pytest.mark.parametrize("kind", ["taylor_green", "abc",
                                      "random_isotropic"])
    def test_accepts_states_it_makes(self, tmp_path, kind):
        st = vx.initial_condition(kind, vx.Grid(16), seed=2, re=100.0)
        st = vx.step(st, vx.SolverConfig(dt=1e-3, t_end=1e-3))
        vx.save_state(tmp_path / "s.vxl", st)
        back = vx.load_state(tmp_path / "s.vxl", dimensionless=True)
        for state in (st, back):
            assert kin._hermitian_defect(state.u.data) < 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_velocity(self, band8_field, bad):
        data = band8_field.data.copy()
        data[1, 2, 3, 4] = bad
        u = vx.VectorField.spectral(band8_field.grid, data)
        with pytest.raises(ValueError, match="non-finite"):
            vx.FlowState(u, nu=0.01)
        with pytest.raises(ValueError, match="non-finite"):
            vx.pressure_from_velocity(u)

    def test_requires_spectral_representation(self, grid16):
        u = vx.initial_condition("taylor_green", grid16, re=100.0).u
        with pytest.raises(ValueError, match="spectral"):
            vx.FlowState(u.to_physical(), re=100.0)

    def test_mode_and_effective_viscosity(self, band8_field):
        dim = vx.FlowState(band8_field, nu=0.02)
        nod = vx.FlowState(band8_field, re=50.0)
        assert dim.mode == "dimensional"
        assert nod.mode == "dimensionless"
        assert dim.effective_viscosity == 0.02
        assert nod.effective_viscosity == pytest.approx(1.0 / 50.0, rel=1e-15)

    def test_velocity_physical_and_mean_square(self, band8_field):
        st = _state(band8_field)
        up = vx.Workspace(st.u).up
        want = spx.to_physical(band8_field.grid, band8_field.data)
        assert np.array_equal(up, want)
        ms = float(np.mean(np.einsum("i...,i...->...", want, want)))
        assert st.mean_square_velocity() == pytest.approx(ms, rel=1e-12)


class TestSolverConfig:
    def test_defaults(self):
        cfg = vx.SolverConfig(dt=1e-3, t_end=1.0)
        assert cfg.output_interval == 0.05
        assert cfg.cfl_constant == 0.5

    @pytest.mark.parametrize("kw", [
        {"dt": 0.0}, {"dt": -1e-3}, {"t_end": 0.0}, {"t_end": -2.0},
        {"output_interval": 0.0}, {"cfl_constant": 0.0},
        {"cfl_constant": 1.5},
    ])
    def test_validation(self, kw):
        base = {"dt": 1e-3, "t_end": 1.0}
        base.update(kw)
        with pytest.raises(ValueError):
            vx.SolverConfig(**base)


class TestDimensionlessScaling:
    def test_derives_kappa_and_re(self):
        sc = vx.DimensionlessScaling(L=2.0, U=0.5, nu=0.01)
        assert sc.kappa == pytest.approx(4.0, rel=1e-15)
        assert sc.Re == pytest.approx(100.0, rel=1e-15)

    def test_derives_nu_from_re(self):
        sc = vx.DimensionlessScaling(L=1.0, U=2.0, Re=40.0)
        assert sc.nu == pytest.approx(0.05, rel=1e-15)

    def test_needs_re_or_nu(self):
        with pytest.raises(ValueError, match="Re directly or nu"):
            vx.DimensionlessScaling(L=1.0, U=1.0)

    def test_rejects_inconsistent_overspecification(self):
        with pytest.raises(ValueError, match="inconsistent"):
            vx.DimensionlessScaling(L=2.0, U=0.5, Re=50.0, nu=0.01)
        with pytest.raises(ValueError, match="kappa"):
            vx.DimensionlessScaling(L=2.0, U=0.5, kappa=999.0, nu=0.01)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            vx.DimensionlessScaling(L=-1.0, U=1.0, nu=0.01)
        with pytest.raises(ValueError):
            vx.DimensionlessScaling(L=1.0, U=0.0, nu=0.01)


class TestNondimensionalize:
    @pytest.fixture()
    def dim_state(self, grid16):
        return vx.initial_condition("taylor_green", grid16, nu=0.01, t=0.3)

    def test_forward(self, dim_state):
        sc = vx.DimensionlessScaling(L=2.0, U=0.5, nu=0.01)
        nd = vx.nondimensionalize(dim_state, sc)
        assert nd.mode == "dimensionless"
        assert nd.re == pytest.approx(100.0, rel=1e-15)
        assert nd.grid.box_length == pytest.approx(np.pi, rel=1e-15)
        assert nd.t == pytest.approx(0.3 / 4.0, rel=1e-14)
        assert np.allclose(nd.u.data, dim_state.u.data / 0.5, rtol=0, atol=0)

    def test_round_trip(self, dim_state):
        sc = vx.DimensionlessScaling(L=2.0, U=0.5, nu=0.01)
        back = vx.redimensionalize(vx.nondimensionalize(dim_state, sc), sc)
        assert back.mode == "dimensional"
        assert back.nu == pytest.approx(0.01, rel=1e-15)
        assert back.grid.box_length == pytest.approx(2 * np.pi, rel=1e-15)
        assert back.t == pytest.approx(0.3, rel=1e-14)
        assert np.allclose(back.u.data, dim_state.u.data, rtol=1e-15, atol=0)

    def test_direction_guards(self, dim_state):
        sc = vx.DimensionlessScaling(L=2.0, U=0.5, nu=0.01)
        nd = vx.nondimensionalize(dim_state, sc)
        with pytest.raises(ValueError, match="already"):
            vx.nondimensionalize(nd, sc)
        with pytest.raises(ValueError, match="already"):
            vx.redimensionalize(dim_state, sc)

    def test_scaling_must_match_state(self, dim_state):
        off = vx.DimensionlessScaling(L=2.0, U=0.5, nu=0.02)
        with pytest.raises(ValueError, match="disagrees"):
            vx.nondimensionalize(dim_state, off)


class TestLerayProjection:
    def test_kills_pure_gradient(self, grid16):
        rng = np.random.default_rng(5)
        fh = spx.to_spectral(grid16, rng.standard_normal(grid16.shape))
        gh = np.stack([spx.spec_derivative(grid16, fh, a) for a in range(3)])
        proj = vx.leray_project(vx.VectorField(grid16, gh, "spectral"))
        assert np.abs(proj.data).max() < 1e-13 * np.abs(gh).max()

    def test_fixes_solenoidal_field(self, band8_field):
        out = vx.leray_project(band8_field)
        assert np.allclose(out.data, band8_field.data, rtol=1e-13, atol=1e-16)

    def test_output_divergence_and_rep(self, grid16):
        rng = np.random.default_rng(6)
        v = vx.VectorField.physical(grid16,
                                    rng.standard_normal((3,) + grid16.shape))
        out = vx.leray_project(v)
        assert out.rep == "physical"
        assert kin.relative_divergence(out) < 1e-13


class TestPressure:
    def test_poisson_relation(self, band8_field):
        grid = band8_field.grid
        p = vx.pressure_from_velocity(band8_field)
        up = spx.to_physical(grid, band8_field.data)
        a = np.stack([np.stack(
            [spx.to_physical(grid, spx.spec_derivative(grid, band8_field.data[i], j))
             for j in range(3)]) for i in range(3)])
        adv = np.einsum("j...,ij...->i...", up, a)
        rhs = -spx.spec_divergence(grid, spx.to_spectral(grid, adv))
        lap_p = -grid.k2 * p.data
        assert np.abs(lap_p - rhs).max() < 1e-11 * np.abs(rhs).max()

    def test_zero_mean(self, band8_field):
        p = vx.pressure_from_velocity(band8_field)
        assert abs(p.data[0, 0, 0]) < 1e-14

    def test_rejects_divergent_input(self, grid16):
        x, _, _ = grid16.coordinates()
        f = np.broadcast_to(np.sin(x), grid16.shape).copy()
        u = vx.VectorField.physical(grid16, np.stack([f, 0 * f, 0 * f]))
        with pytest.raises(ValueError, match="solenoidal"):
            vx.pressure_from_velocity(u)


class TestNsRhs:
    def test_output_is_solenoidal(self, band8_field):
        rhs = vx.ns_rhs(_state(band8_field))
        assert rhs.rep == "spectral"
        assert kin.relative_divergence(rhs) < 1e-13

    def test_beltrami_rhs_is_pure_decay(self, grid16):
        # ABC has omega = u, so u x omega = 0 and |k|^2 = 1 on every mode:
        # the whole right side collapses to -nu u.
        st = vx.initial_condition("abc", grid16, nu=0.05)
        rhs = vx.ns_rhs(st)
        err = np.abs(rhs.data + 0.05 * st.u.data).max()
        assert err < 1e-14 * np.abs(st.u.data).max()


def _single_mode_state(grid, nu):
    # u = (sin 2z, 0, 0): the nonlinear term u x omega = (0, 0, sin 4z)
    # is parallel to its wavevector, so Leray projection removes it exactly
    # and the solution is Stokes decay at rate 4 nu.
    _, _, z = grid.coordinates()
    f = np.broadcast_to(np.sin(2 * z), grid.shape).copy()
    u = vx.VectorField.physical(grid, np.stack([f, 0 * f, 0 * f]))
    return vx.FlowState(u.to_spectral(), nu=nu)


class TestStep:
    def test_beltrami_exponential_decay(self, grid16):
        nu, dt, nsteps = 0.05, 0.01, 100
        st = vx.initial_condition("abc", grid16, nu=nu)
        u0 = st.u.data.copy()
        cfg = vx.SolverConfig(dt=dt, t_end=nsteps * dt)
        for _ in range(nsteps):
            st = vx.step(st, cfg)
        want = np.exp(-nu * st.t) * u0
        assert st.t == pytest.approx(1.0, rel=1e-12)
        assert np.abs(st.u.data - want).max() < 1e-10 * np.abs(u0).max()

    def test_single_mode_stokes_decay(self, grid16):
        nu, dt, nsteps = 0.01, 0.005, 100
        st = _single_mode_state(grid16, nu)
        u0 = st.u.data.copy()
        cfg = vx.SolverConfig(dt=dt, t_end=nsteps * dt)
        for _ in range(nsteps):
            st = vx.step(st, cfg)
        want = np.exp(-4.0 * nu * st.t) * u0
        assert np.abs(st.u.data - want).max() < 1e-10 * np.abs(u0).max()

    def test_cfl_violation_raised_with_details(self, grid16):
        st = vx.initial_condition("taylor_green", grid16, re=100.0)
        cfg = vx.SolverConfig(dt=5.0, t_end=10.0)
        with pytest.raises(vx.CFLViolation) as exc:
            vx.step(st, cfg)
        err = exc.value
        assert err.dt == 5.0
        assert err.t == 0.0
        assert err.max_speed > 0
        assert err.bound == pytest.approx(
            cfg.cfl_constant * grid16.spacing / err.max_speed, rel=1e-12)
        assert "CFL" in str(err)

    def test_step_is_deterministic(self, grid16):
        cfg = vx.SolverConfig(dt=2e-3, t_end=1.0)
        outs = []
        for _ in range(2):
            st = vx.initial_condition("random_isotropic", grid16, seed=9,
                                      params={"k0": 2.0, "energy": 0.1},
                                      re=100.0)
            for _ in range(5):
                st = vx.step(st, cfg)
            outs.append(st.u.data.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_solenoidality_preserved(self, grid16):
        st = vx.initial_condition("random_isotropic", grid16, seed=3,
                                  params={"k0": 2.0, "energy": 0.2}, re=100.0)
        cfg = vx.SolverConfig(dt=2e-3, t_end=1.0)
        for _ in range(50):
            st = vx.step(st, cfg)
        assert kin.relative_divergence(st.u) < 1e-12

    def test_convergence_order(self, grid16):
        """Halving dt should shrink the step error by about 2^4."""
        # Horizon long enough that truncation error (~1e-12 .. 1e-9 here)
        # sits far above the roundoff floor of the fine reference.
        t_end = 0.4
        re = 50.0

        def advance(dt):
            st = vx.initial_condition("taylor_green", grid16, re=re)
            cfg = vx.SolverConfig(dt=dt, t_end=t_end)
            n = round(t_end / dt)
            for _ in range(n):
                st = vx.step(st, cfg)
            return st.u.data

        ref = advance(2.5e-3)
        errs = [float(np.abs(advance(dt) - ref).max())
                for dt in (4e-2, 2e-2, 1e-2)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.9


class TestInitialConditions:
    def test_unknown_kind(self, grid16):
        with pytest.raises(ValueError, match="unknown initial condition"):
            vx.initial_condition("vortex_sheet", grid16, re=10.0)

    def test_rejects_unexpected_params(self, grid16):
        with pytest.raises(ValueError):
            vx.initial_condition("taylor_green", grid16, params={"k0": 1.0},
                                 re=10.0)
        with pytest.raises(ValueError):
            vx.initial_condition("abc", grid16, params={"D": 1.0}, re=10.0)

    def test_taylor_green_mean_square(self, grid32):
        st = vx.initial_condition("taylor_green", grid32, re=100.0)
        assert st.mean_square_velocity() == pytest.approx(0.25, abs=1e-13)

    def test_abc_coefficients_and_helicity(self, grid16):
        st = vx.initial_condition("abc", grid16,
                                  params={"A": 1.0, "B": 2.0, "C": 3.0},
                                  nu=0.1)
        # helicity of the A,B,C flow is A^2 + B^2 + C^2
        assert vx.mean_helicity(st.u) == pytest.approx(14.0, rel=1e-12)

    def test_random_energy_normalization(self, grid32):
        st = vx.initial_condition("random_isotropic", grid32, seed=11,
                                  params={"k0": 4.0, "energy": 0.5}, re=100.0)
        assert st.mean_square_velocity() == pytest.approx(1.0, rel=1e-12)
        assert kin.relative_divergence(st.u) < 1e-13

    def test_random_is_seed_deterministic(self, grid16):
        kw = dict(params={"k0": 2.0, "energy": 0.3}, re=50.0)
        a = vx.initial_condition("random_isotropic", grid16, seed=4, **kw)
        b = vx.initial_condition("random_isotropic", grid16, seed=4, **kw)
        c = vx.initial_condition("random_isotropic", grid16, seed=5, **kw)
        assert np.array_equal(a.u.data, b.u.data)
        assert not np.array_equal(a.u.data, c.u.data)

    def test_random_dealiased_and_zero_mean(self, grid16):
        st = vx.initial_condition("random_isotropic", grid16, seed=8,
                                  params={"k0": 2.0, "energy": 0.3}, re=50.0)
        assert np.abs(st.u.data[:, 0, 0, 0]).max() == 0.0
        masked = st.u.data * st.grid.dealias_mask
        assert np.array_equal(masked, st.u.data)

    def test_random_param_validation(self, grid16):
        with pytest.raises(ValueError):
            vx.initial_condition("random_isotropic", grid16, seed=1,
                                 params={"k0": -1.0, "energy": 0.5}, re=10.0)
        with pytest.raises(ValueError):
            vx.initial_condition("random_isotropic", grid16, seed=1,
                                 params={"k0": 2.0, "energy": 0.0}, re=10.0)


# Report names, keyed by check, split into forms that close at roundoff
# and alternate-coefficient forms that do not.
_CLOSING = {
    "vorticity": ("vorticity",),
    "energy": ("energy[advective-flux]",),
    "enstrophy": ("enstrophy",),
    "strain": ("strain",),
    "trS2": ("trS2[direct]", "trS2[divergence c=3]", "trS2[agreement c=3]"),
    "trS3": ("trS3[tr(S^4)]",),
}
_DEFECTIVE = {
    "energy": ("energy[curl-flux]",),
    "trS2": ("trS2[divergence c=1]", "trS2[agreement c=1]"),
    "trS3": ("trS3[(tr S^2)^2]",),
}


class TestEvolutionResiduals:
    def test_check_names_registry(self):
        assert vx.EVOLUTION_CHECKS == ("vorticity", "energy", "enstrophy",
                                       "strain", "trS2", "trS3")

    def test_unknown_check_rejected(self, ev_state):
        with pytest.raises(ValueError, match="unknown evolution check"):
            vx.evolution_residual(ev_state, "momentum")

    @pytest.mark.parametrize("which", vx.EVOLUTION_CHECKS)
    def test_closing_forms_close(self, ev_state, which):
        reports = {r.name: r for r in vx.evolution_residual(ev_state, which)}
        for name in _CLOSING[which]:
            assert reports[name].relative < 1e-8, (name, reports[name].relative)

    @pytest.mark.parametrize("which", sorted(_DEFECTIVE))
    def test_non_closing_variants_stay_open(self, ev_state, which):
        reports = {r.name: r for r in vx.evolution_residual(ev_state, which)}
        for name in _DEFECTIVE[which]:
            assert reports[name].relative > 1e-3, (name, reports[name].relative)

    def test_report_name_sets(self, ev_state):
        for which in vx.EVOLUTION_CHECKS:
            got = tuple(r.name for r in vx.evolution_residual(ev_state, which))
            want = _CLOSING[which] + _DEFECTIVE.get(which, ())
            assert set(got) == set(want)

    def test_band_limit_matters(self, grid32):
        # Outside the evolution band the masked nonlinear term no longer
        # matches the exact one, so this only documents that the fixture
        # band is required, not that wider fields are wrong.
        u = band_limited_random_velocity(32, float(evolution_band(32)),
                                        seed=21)
        st = vx.FlowState(u, re=150.0)
        rep = vx.evolution_residual(st, "enstrophy")[0]
        assert rep.relative < 1e-8
