"""Release checklist: ten numbered end-to-end checks.

Each test prints one "ACCEPTANCE NN: PASS/FAIL" line to the live
terminal.  Number 05 audits the energy balance written with coefficient
nu on the enstrophy term; the balance only closes with 2 nu, so that
check fails by design and stays red.  The two companion tests after it
pin the laws that do hold, at the same tolerances.

The two n=64 decaying runs behind numbers 04-06 are made once by a module
fixture through `simulate` and take a few minutes; everything else is
desk-scale.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import vortexlab as vx
from vortexlab import heatkernel as hk
from vortexlab import kinematics as kin
from vortexlab.cli import main


def _verdict(capsys, num: int, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def long_runs(tmp_path_factory):
    """Two decaying runs of `simulate`: Taylor-Green and random-isotropic,
    n=64, Re=100, dt=1e-3 over t in [0, 2], sampled every 0.05.  The
    records are read back from the run's CSV, whose shortest round-trip
    floats give back exactly what diagnose returned."""
    flags = ["--n", "64", "--re", "100", "--dt", "1e-3", "--t-end", "2",
             "--output-interval", "0.05", "--q-list", "1,2,3"]
    root = tmp_path_factory.mktemp("long_runs")
    out = {}
    for name, ic_flags in [
            ("taylor_green", ["--ic", "taylor-green"]),
            ("random", ["--ic", "random", "--k0", "4", "--energy", "0.5",
                        "--seed", "7"])]:
        run_dir = root / name
        start = time.perf_counter()
        code = main(["simulate", *flags, *ic_flags, "--out", str(run_dir)])
        seconds = time.perf_counter() - start
        assert code == 0
        manifest = vx.read_manifest(run_dir / "manifest.json")
        out[name] = SimpleNamespace(
            series=vx.read_series_csv(run_dir / "diagnostics.csv", manifest),
            seconds=seconds, nu=1.0 / manifest["Re"])
    return out


def test_acceptance_01_exactness_suite(capsys, band8_field):
    start = time.perf_counter()
    reports = [vx.residual_tr2(band8_field), vx.residual_tr3(band8_field)]
    reports.extend(vx.switched_invariant_residuals(band8_field))
    reports.append(vx.residual_grad_sw(band8_field))
    reports.append(vx.residual_pressure_hessian(
        band8_field, vx.pressure_from_velocity(band8_field)))
    scalar = vx.ScalarField.spectral(band8_field.grid,
                                     band8_field.to_spectral().data[0])
    reports.append(vx.gamma2_residual(band8_field, scalar, 0.01))
    elapsed = time.perf_counter() - start

    worst = max(r.relative for r in reports)
    ok = worst < 1e-9 and elapsed < 30.0
    _verdict(capsys, 1, ok)
    assert len(reports) == 7
    assert ok, {r.name: r.relative for r in reports}


def test_acceptance_02_mean_identities(capsys, band8_field, tg_state):
    reports = list(vx.mean_identities(band8_field))
    reports += list(vx.mean_identities(tg_state.u))
    worst = max(r.relative for r in reports)

    inv = vx.invariants(tg_state.u)
    enstrophy = float(inv.enstrophy.data.mean())
    strain = float(inv.trS2.data.mean())
    means_ok = (abs(enstrophy - 0.75) < 1e-10 and abs(strain - 0.375) < 1e-10)

    ok = worst < 1e-11 and means_ok
    _verdict(capsys, 2, ok)
    assert ok, (worst, enstrophy, strain)


_CLOSING = {
    "vorticity": ("vorticity",),
    "energy": ("energy[advective-flux]",),
    "enstrophy": ("enstrophy",),
    "strain": ("strain",),
    "trS2": ("trS2[direct]", "trS2[divergence c=3]"),
    "trS3": ("trS3[tr(S^4)]",),
}


def test_acceptance_03_evolution_residuals(capsys, ev_state):
    by_name = {}
    for which in vx.EVOLUTION_CHECKS:
        for rep in vx.evolution_residual(ev_state, which):
            by_name[rep.name] = rep.relative

    closing_ok = all(by_name[name] < 1e-8
                     for names in _CLOSING.values() for name in names)
    agreement_ok = by_name["trS2[agreement c=3]"] < 1e-9
    vanishing = [name for name in ("trS3[tr(S^4)]", "trS3[(tr S^2)^2]")
                 if by_name[name] < 1e-8]

    ok = closing_ok and agreement_ok and vanishing == ["trS3[tr(S^4)]"]
    _verdict(capsys, 3, ok, f"vanishing trS3 reading: {vanishing}")
    assert ok, by_name


def test_acceptance_04_entropy_decay(capsys, long_runs):
    ok = True
    details = {}
    for name, run in long_runs.items():
        rep = vx.entropy_monotonicity_check(run.series)
        run_ok = (rep.violations == 0
                  and rep.max_increase <= rep.tolerance
                  and rep.passed
                  and run.seconds < 300.0)
        details[name] = (rep.as_dict(), round(run.seconds, 1))
        ok = ok and run_ok
    _verdict(capsys, 4, ok)
    assert ok, details


def test_acceptance_05_energy_law_as_written(capsys, long_runs):
    # First form: 2<u . du/dt> + nu <|omega|^2> = 0 to 1e-10 relative.
    # Second form: d<|S|^2>/dt + nu <|grad omega|^2> = <omega . S omega>
    # to 1e-9.  The first only closes with 2 nu on the enstrophy term, so
    # this check is expected to fail; the companions below hold.
    worst_energy = 0.0
    worst_strain = 0.0
    for run in long_runs.values():
        nu = run.nu
        for r in run.series.records:
            dissip = nu * r.mean_enstrophy
            scale = max(abs(r.d_mean_u2_dt), dissip)
            worst_energy = max(worst_energy,
                               abs(r.d_mean_u2_dt + dissip) / scale)
            lhs = r.d_mean_S2_dt + nu * r.mean_grad_omega2
            sscale = max(abs(r.d_mean_S2_dt), nu * r.mean_grad_omega2,
                         abs(r.mean_omega_S_omega))
            worst_strain = max(worst_strain,
                               abs(lhs - r.mean_omega_S_omega) / sscale)

    ok = worst_energy < 1e-10 and worst_strain < 1e-9
    _verdict(capsys, 5, ok,
             f"energy-form worst relative {worst_energy:.3e}; "
             f"closes with 2*nu, kept red on purpose")
    assert ok, (worst_energy, worst_strain)


def test_energy_law_true_coefficient(long_runs):
    """d<|u|^2>/dt = -2 nu <|omega|^2> at every sample of both runs."""
    for run in long_runs.values():
        for r in run.series.records:
            want = -2.0 * run.nu * r.mean_enstrophy
            assert abs(r.d_mean_u2_dt - want) <= 1e-10 * abs(want)


def test_strain_dissipation_law(long_runs):
    """d<|S|^2>/dt + nu <|grad omega|^2> = <omega . S omega> to 1e-9."""
    for run in long_runs.values():
        for r in run.series.records:
            lhs = r.d_mean_S2_dt + run.nu * r.mean_grad_omega2
            scale = max(abs(r.d_mean_S2_dt), run.nu * r.mean_grad_omega2,
                        abs(r.mean_omega_S_omega))
            assert abs(lhs - r.mean_omega_S_omega) <= 1e-9 * scale


def test_acceptance_06_lq_inequality(capsys, long_runs):
    ok = True
    worst = 0.0
    for run in long_runs.values():
        for r in run.series.records:
            for q, slack, scale in r.lq_checks:
                margin = slack + 1e-9 * scale
                worst = min(worst, margin)
                ok = ok and margin >= 0.0
    _verdict(capsys, 6, ok)
    assert ok, worst


def test_acceptance_07_kernel_suite(capsys):
    start = time.perf_counter()

    worst_rel = 0.0
    for b in (-5.0, -2.0, 0.0, 1.0, 5.0):
        for r in (0.0, 0.5, 1.0, 2.5, 5.0):
            for t in (1e-3, 0.1, 1.0, 10.0):
                closed = float(hk.p_beta(r, t, 0.0, b))
                quad = float(hk.p_beta(r, t, 0.0, b, method="quadrature"))
                denom = max(abs(closed), abs(quad), 1e-300)
                worst_rel = max(worst_rel, abs(closed - quad) / denom)
    quad_ok = worst_rel < 1e-10

    sandwich_ok = True
    for re in (10.0, 100.0, 1000.0):
        for delta in (1e-3, 1e-2, 1e-1):
            for drift in ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)):
                rep = hk.kernel_bounds_check(math.sqrt(re / 2.0), delta,
                                             drift)
                sandwich_ok = sandwich_ok and rep.min_slack >= -1e-12

    limits_ok = True
    for s in (10.0, 100.0, 1000.0):
        d = 1.0 / s ** 2
        outside = float(hk.f_pm_psi_term(s, 0.0, d, d + 0.5) / s)
        inside = float(hk.f_pm_psi_term(s, 0.0, 1.0, 0.5) / s)
        boundary = float(hk.f_pm_psi_term(s, 0.0, d, d) / s)
        limits_ok = limits_ok and (outside < 1e-6
                                   and inside > 1.0 - 1e-6
                                   and abs(boundary - 0.5) < 1e-12)

    mc = hk.monte_carlo_kernel_check(math.sqrt(50.0), 0.01, (0.0, 0.0, 0.0),
                                     samples=100_000, seed=0)
    mc_ok = mc.violating_cells == 0

    elapsed = time.perf_counter() - start
    ok = quad_ok and sandwich_ok and limits_ok and mc_ok and elapsed < 120.0
    _verdict(capsys, 7, ok)
    assert ok, (worst_rel, sandwich_ok, limits_ok, mc.as_dict(), elapsed)


def test_acceptance_08_short_time_propagator(capsys):
    grid = vx.Grid(32)
    _, _, z = grid.coordinates()
    f = np.broadcast_to(np.sin(z), grid.shape).copy()
    theta = vx.VectorField.physical(grid, np.stack([f, 0 * f, 0 * f]))
    gamma = np.diag([1.0, -0.5, -0.5])
    diffs = []
    for delta in (0.02, 0.01, 0.005):
        params = hk.KernelParams.from_reynolds(100.0, delta)
        approx = hk.short_time_vorticity_step(theta, gamma, params)
        exact = hk.exact_linear_vorticity_step(theta, gamma, (0.0, 0.0, 0.0),
                                               params)
        diffs.append(float(np.abs(approx.data
                                  - exact.to_physical().data).max()))
    monotone = diffs[0] > diffs[1] > diffs[2]

    payloads = []
    for length in ("1", "5"):
        code = main(["kernel", "--timescale", "--nu", "1e-6", "--u", "1",
                     "--l", length])
        out = capsys.readouterr().out
        assert code == 0
        payloads.append(json.loads(out))
    timescale_ok = (payloads[0]["t_scale"] == pytest.approx(2.0e-6,
                                                            rel=1e-12)
                    and payloads[0]["t_scale"] == payloads[1]["t_scale"])

    ok = monotone and timescale_ok
    _verdict(capsys, 8, ok)
    assert ok, (diffs, [p["t_scale"] for p in payloads])


def test_acceptance_09_solver_gates(capsys):
    # solenoidality over 1000 steps
    grid = vx.Grid(32)
    state = vx.initial_condition("random_isotropic", grid, seed=3,
                                 params={"k0": 4.0, "energy": 0.5}, re=100.0)
    cfg = vx.SolverConfig(dt=2e-3, t_end=2.0)
    max_div = 0.0
    for j in range(1000):
        state = vx.step(state, cfg)
        if (j + 1) % 100 == 0:
            max_div = max(max_div, kin.relative_divergence(state.u))
    solenoidal_ok = max_div < 1e-11

    # temporal order on a smooth state
    g16 = vx.Grid(16)

    def advance(dt):
        st = vx.initial_condition("taylor_green", g16, re=50.0)
        c = vx.SolverConfig(dt=dt, t_end=0.4)
        for _ in range(round(0.4 / dt)):
            st = vx.step(st, c)
        return st.u.data

    ref = advance(2.5e-3)
    errs = [float(np.abs(advance(dt) - ref).max())
            for dt in (4e-2, 2e-2, 1e-2)]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    order_ok = min(orders) >= 3.9

    # viscous decay of a single mode: u = (sin 2z, 0, 0) has |k|^2 = 4 and
    # a nonlinear term that the projection removes exactly
    _, _, z16 = g16.coordinates()
    f = np.broadcast_to(np.sin(2 * z16), g16.shape).copy()
    u = vx.VectorField.physical(g16, np.stack([f, 0 * f, 0 * f]))
    st = vx.FlowState(u.to_spectral(), nu=0.01)
    u0 = st.u.data.copy()
    c = vx.SolverConfig(dt=5e-3, t_end=1.0)
    for _ in range(100):
        st = vx.step(st, c)
    want = np.exp(-4.0 * 0.01 * st.t) * u0
    stokes_err = float(np.abs(st.u.data - want).max() / np.abs(u0).max())
    stokes_ok = stokes_err < 1e-10

    ok = solenoidal_ok and order_ok and stokes_ok
    _verdict(capsys, 9, ok)
    assert ok, (max_div, orders, stokes_err)


def test_acceptance_10_determinism(capsys, tmp_path):
    flags = ["--n", "16", "--ic", "random", "--seed", "42", "--nu", "0.01",
             "--dt", "0.01", "--t-end", "0.1", "--output-interval", "0.05"]
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["simulate", *flags, "--out", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()

    files_ok = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("diagnostics.csv", "manifest.json", "qr_histogram.json",
                     "state_final.vxl"))

    texts = []
    for _ in range(2):
        assert main(["verify", "--n", "16"]) == 0
        texts.append(capsys.readouterr().out)
    verify_ok = texts[0] == texts[1]

    ok = files_ok and verify_ok
    _verdict(capsys, 10, ok)
    assert ok
