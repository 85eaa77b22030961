"""Each correctness check passes the program's real output and rejects a
deliberately wrong one."""

import copy
import json

import numpy as np
import pytest
from scipy import stats

import checks
import reference
from vortexlab import storage
from workloads import call_cli, variable_drift
from vortexlab.heatkernel import monte_carlo_kernel_check


# ---------------------------------------------------------------------------
# decay-dns


@pytest.fixture(scope="module")
def decay_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("decay")
    rc, _ = call_cli(["simulate", "--n", 16, "--re", 100, "--ic", "random",
                      "--seed", 3, "--dt", 0.01, "--output-interval", 0.02,
                      "--t-end", 0.04, "--save-snapshots", "--out", out])
    assert rc == 0
    rc, text = call_cli(["stats", "--run", out])
    assert rc == 0
    return out, json.loads(text)


def test_stats_report_passes(decay_run):
    assert checks.check_stats_report(decay_run[1]) == []


@pytest.mark.parametrize("mutate", [
    lambda r: r["lq"][1].update(min_slack=-1e-6),
    lambda r: r["entropy"].update(violations=1, max_increase=1e-3),
    lambda r: r["entropy"].update(bound2_min_slack=-1.0),
    lambda r: r["entropy"].update(bound3_max_relative=1e-6),
    lambda r: r.update(passed=False),
])
def test_stats_report_rejects(decay_run, mutate):
    report = copy.deepcopy(decay_run[1])
    mutate(report)
    assert checks.check_stats_report(report)


def _rows(out):
    rows = checks.read_csv_rows(out / "diagnostics.csv")
    nu = checks.viscosity(json.loads((out / "manifest.json").read_text()))
    return rows, nu


def test_energy_law_and_budget_pass(decay_run):
    rows, nu = _rows(decay_run[0])
    assert checks.check_energy_law(rows, nu) == []
    assert checks.check_energy_budget(rows, nu) == []


def test_energy_law_rejects_nu_in_place_of_2nu(decay_run):
    rows, nu = _rows(decay_run[0])
    for row in rows:
        row["d_mean_u2_dt"] = -nu * row["mean_enstrophy"]
    assert checks.check_energy_law(rows, nu)
    assert checks.check_energy_budget(rows, nu)


def test_energy_budget_rejects_a_shifted_energy(decay_run):
    rows, nu = _rows(decay_run[0])
    rows[1]["mean_u2"] *= 1.0 + 1e-5
    assert checks.check_energy_budget(rows, nu)


def test_reference_agrees_and_rejects_one_perturbed_mode(decay_run):
    out = decay_run[0]
    u0, _, nu, box = reference.read_vxl1(out / "state_0000.vxl")
    u1, _, _, _ = reference.read_vxl1(out / "state_0001.vxl")
    ref, err = reference.reference_with_error(u0, nu, 0.01, 2, box)
    assert checks.check_reference(u1, ref, err) == []
    uh = np.fft.rfftn(u1, axes=(1, 2, 3))
    uh[0, 1, 2, 1] += 1e-6 * np.abs(uh).max()
    wrong = np.fft.irfftn(uh, s=u1.shape[1:], axes=(1, 2, 3))
    assert checks.check_reference(wrong, ref, err)


# ---------------------------------------------------------------------------
# verify-snapshots


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "snap.vxl"
    u = reference.random_solenoidal(16, np.random.default_rng(5), 3.0, 0.5)
    reference.write_vxl1(path, u, 0.25, 0.02)
    rc, text = call_cli(["verify", "--snapshot", path])
    assert rc == 0
    return path, u, json.loads(text)


def test_verify_report_passes(snapshot):
    assert checks.check_verify_report(snapshot[2]) == []


def _entry(report, name):
    return next(e for e in report["reports"] if e["name"] == name)


@pytest.mark.parametrize("mutate", [
    lambda r: _entry(r, "gamma2").update(relative=2e-9),
    lambda r: r["reports"].remove(_entry(r, "strain")),
    lambda r: _entry(r, "tr3[c=0.5]").update(relative=1e-3),
    lambda r: r.update(failed=["tr2"], passed=False),
])
def test_verify_report_rejects(snapshot, mutate):
    report = copy.deepcopy(snapshot[2])
    mutate(report)
    assert checks.check_verify_report(report)


def test_snapshot_bits_pass_and_reject_one_perturbed_mode(snapshot, tmp_path):
    path, u, _ = snapshot
    field, t, nu = storage.load_field(path)
    assert checks.check_snapshot_bits(field.data, t, nu, u, 0.25, 0.02) == []
    uh = np.fft.rfftn(u, axes=(1, 2, 3))
    uh[2, 3, 1, 2] += 1e-12
    wrong = np.fft.irfftn(uh, s=u.shape[1:], axes=(1, 2, 3))
    reference.write_vxl1(tmp_path / "wrong.vxl", wrong, 0.25, 0.02)
    field, t, nu = storage.load_field(tmp_path / "wrong.vxl")
    assert checks.check_snapshot_bits(field.data, t, nu, u, 0.25, 0.02)
    assert checks.check_snapshot_bits(u, 0.5, 0.02, u, 0.25, 0.02)


# ---------------------------------------------------------------------------
# kernel-lattice


@pytest.fixture(scope="module")
def kernel_report():
    rc, text = call_cli(["kernel", "--re", 100, "--delta", 0.01,
                         "--samples", 2000, "--seed", 11])
    assert rc == 0
    return json.loads(text)


def test_kernel_report_passes(kernel_report):
    assert checks.check_kernel_report(kernel_report) == []


def _resampled_p(report, stat):
    mc = report["monte_carlo"]
    mc["chi2_statistic"] = stat
    mc["chi2_p_value"] = float(stats.chi2.sf(stat, mc["chi2_dof"]))


@pytest.mark.parametrize("mutate", [
    lambda r: r["sandwich"][1].update(lower_min_slack=-1e-9),
    lambda r: r["monte_carlo"].update(violating_cells=1),
    lambda r: r.update(p_beta_max_relative=1e-8),
    lambda r: r.update(propagator_diffs=[0.5, 0.5, 0.2]),
    lambda r: r["monte_carlo"].update(
        chi2_p_value=r["monte_carlo"]["chi2_p_value"] * 1.01),
    lambda r: _resampled_p(r, 1e4),
    lambda r: r["monte_carlo"].update(constant_drift=False),
])
def test_kernel_report_rejects(kernel_report, mutate):
    report = copy.deepcopy(kernel_report)
    mutate(report)
    assert checks.check_kernel_report(report)


def test_variable_drift_check():
    mc = monte_carlo_kernel_check(10.0, 0.01, variable_drift, samples=2000,
                                  seed=4).as_dict()
    assert checks.check_monte_carlo(mc, constant=False) == []
    assert checks.check_monte_carlo(dict(mc, violating_cells=2),
                                    constant=False)
    assert checks.check_monte_carlo(dict(mc, constant_drift=True),
                                    constant=False)
