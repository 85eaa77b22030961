"""End-to-end command-line tests driven through main(argv).

Each failure path must exit with the documented code and leave a JSON
object on stderr; artifact layout and determinism are checked on real
(tiny) runs.
"""

import argparse
import json
import os
import socket
import subprocess
import sys

import numpy as np
import pytest

import vortexlab as vx
from vortexlab import cli, kinematics, solver
from vortexlab.cli import _read_config_file, main
from vortexlab.storage import save_field, save_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_payload(err):
    lines = [ln for ln in err.strip().splitlines() if ln.strip()]
    return json.loads(lines[-1])


SIM_FLAGS = ["--n", "16", "--nu", "0.01", "--dt", "0.01",
             "--t-end", "0.1", "--output-interval", "0.05"]


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert stderr_payload(err)["error"] == "usage"

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--bogus")
        assert code == 2
        assert stderr_payload(err)["error"] == "usage"

    def test_bad_ic_choice(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--ic", "vortex-sheet")
        assert code == 2

    def test_nu_and_re_together(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--nu", "0.1", "--re",
                               "10", "--out", str(tmp_path / "r"))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "config"
        assert "not both" in payload["message"]

    def test_odd_n_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--n", "17", "--nu", "0.1",
                               "--out", str(tmp_path / "r"))
        assert code == 2
        assert "even" in stderr_payload(err)["message"]


class TestConfigFile:
    def test_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "n = 16\n"
            "box-length = 6.283185307179586  # dashes fold to underscores\n"
            "q_list = 1,2,3\n"
            "save_snapshots = true\n"
            "\n")
        entries = _read_config_file(str(path))
        assert entries["n"] == 16
        assert entries["box_length"] == pytest.approx(2 * np.pi)
        assert entries["q_list"] == (1.0, 2.0, 3.0)
        assert entries["save_snapshots"] is True

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("warp = 9\n")
        with pytest.raises(ValueError, match="unknown key"):
            _read_config_file(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a sentence\n")
        with pytest.raises(ValueError, match="key=value"):
            _read_config_file(str(path))

    def test_flags_override_file(self, capsys, tmp_path):
        path = tmp_path / "ts.cfg"
        path.write_text("timescale = true\nnu = 0.5\nu = 1.0\n")
        code, out, _ = run_cli(capsys, "kernel", "--config", str(path),
                               "--nu", "1e-6")
        assert code == 0
        payload = json.loads(out)
        assert payload["t_scale"] == pytest.approx(2.0e-6, rel=1e-12)

    def test_config_alone_drives_command(self, capsys, tmp_path):
        path = tmp_path / "ts.cfg"
        path.write_text("timescale = yes\nnu = 1.5e-5\nu = 10\n")
        code, out, _ = run_cli(capsys, "kernel", "--config", str(path))
        assert code == 0
        assert json.loads(out)["t_scale"] == pytest.approx(3.0e-7, rel=1e-12)

    def test_every_flag_is_a_config_key(self, tmp_path):
        # each flag, given as a file entry, coerces to what the flag gives
        parser = cli.build_parser()
        samples = {int: "16", float: "0.5", cli._parse_floats: "1,2,3"}
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        path = tmp_path / "one.cfg"
        for command, sub in subparsers.choices.items():
            for flag in sub._actions:
                if not flag.option_strings or flag.dest in ("help", "config"):
                    continue
                name = flag.option_strings[0]
                if flag.nargs == 0:
                    text, argv = "true", [name]
                else:
                    text = (flag.choices[0] if flag.choices
                            else samples.get(flag.type, "x"))
                    argv = [name, text]
                path.write_text(f"{name[2:]} = {text}\n")
                want = getattr(parser.parse_args([command, *argv]), flag.dest)
                assert _read_config_file(str(path)) == {flag.dest: want}, name


class TestSimulate:
    def test_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--nu", "0.01")
        assert code == 2
        assert "--out" in stderr_payload(err)["message"]

    def test_requires_viscosity(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--out",
                               str(tmp_path / "r"))
        assert code == 2

    def test_tiny_run_artifacts(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "simulate", *SIM_FLAGS,
                             "--out", str(out))
        assert code == 0
        assert (out / "manifest.json").is_file()
        assert (out / "diagnostics.csv").is_file()
        assert (out / "state_final.vxl").is_file()
        assert (out / "qr_histogram.json").is_file()
        assert not (out / ".vxl-lock").exists()

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["nu"] == 0.01
        assert manifest["ic_kind"] == "taylor_green"

        series = vx.read_series_csv(out / "diagnostics.csv", manifest)
        assert len(series) == 3  # t = 0, 0.05, 0.1
        assert series.records[0].mean_enstrophy == pytest.approx(0.75,
                                                                 abs=1e-12)
        assert series.records[-1].t == pytest.approx(0.1, rel=1e-12)

    def test_no_invariant_fields(self, capsys, monkeypatch, tmp_path):
        # diagnose reads quadratic means from spectra and samples only S
        # and omega, so no full set of invariant fields is built
        def refuse(*args, **kwargs):
            raise AssertionError("simulate built the invariant fields")

        monkeypatch.setattr(kinematics, "invariants", refuse)
        code, _, _ = run_cli(capsys, "simulate", *SIM_FLAGS,
                             "--out", str(tmp_path / "run"))
        assert code == 0

    def test_snapshot_series(self, capsys, tmp_path):
        out = tmp_path / "snaps"
        code, _, _ = run_cli(capsys, "simulate", *SIM_FLAGS, "--out",
                             str(out), "--save-snapshots")
        assert code == 0
        names = sorted(p.name for p in out.glob("state_*.vxl"))
        assert names == ["state_0000.vxl", "state_0001.vxl",
                         "state_0002.vxl", "state_final.vxl"]

    def test_repeat_runs_identical(self, capsys, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code, _, _ = run_cli(capsys, "simulate", "--ic", "random",
                                 "--seed", "42", *SIM_FLAGS,
                                 "--out", str(out))
            assert code == 0
            outs.append(out)
        for name in ("diagnostics.csv", "manifest.json", "state_final.vxl",
                     "qr_histogram.json"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    def test_lockfile_blocks_concurrent_use(self, capsys, tmp_path):
        out = tmp_path / "busy"
        out.mkdir()
        (out / ".vxl-lock").touch()
        code, _, err = run_cli(capsys, "simulate", *SIM_FLAGS,
                               "--out", str(out))
        assert code == 2
        assert "in use" in stderr_payload(err)["message"]

    def test_lock_names_its_owner(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "run"
        owners = []
        real_step = cli.step

        def peeking_step(state, config):
            owners.append(json.loads((out / ".vxl-lock").read_text()))
            return real_step(state, config)

        monkeypatch.setattr(cli, "step", peeking_step)
        code, _, _ = run_cli(capsys, "simulate", *SIM_FLAGS, "--out", str(out))
        assert code == 0
        assert owners[0]["pid"] == os.getpid()
        assert owners[0]["host"] == socket.gethostname()
        assert owners[0]["started"].endswith("Z")
        assert not (out / ".vxl-lock").exists()

    def test_live_owner_blocks_use(self, capsys, tmp_path):
        out = tmp_path / "busy"
        out.mkdir()
        (out / ".vxl-lock").write_text(json.dumps(
            {"pid": os.getpid(), "host": socket.gethostname(),
             "started": "2020-01-01T00:00:00Z"}))
        code, _, err = run_cli(capsys, "simulate", *SIM_FLAGS,
                               "--out", str(out))
        assert code == 2
        message = stderr_payload(err)["message"]
        assert "in use" in message and str(os.getpid()) in message

    def test_stale_lock_is_refused_and_named(self, capsys, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()
        out = tmp_path / "stale"
        out.mkdir()
        lock = out / ".vxl-lock"
        lock.write_text(json.dumps(
            {"pid": child.pid, "host": socket.gethostname(),
             "started": "2020-01-01T00:00:00Z"}))
        before = lock.read_bytes()
        code, _, err = run_cli(capsys, "simulate", *SIM_FLAGS,
                               "--out", str(out))
        assert code == 2
        message = stderr_payload(err)["message"]
        assert "stale lock" in message and str(child.pid) in message
        assert lock.read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == [".vxl-lock"]

    def test_non_finite_initial_state_refused(self, capsys, tmp_path):
        # 2 * energy overflows, so the scaled random field is inf and NaN
        out = tmp_path / "run"
        code, _, err = run_cli(capsys, "simulate", "--n", "16", "--ic",
                               "random", "--energy", "1e308", "--re", "100",
                               "--dt", "0.01", "--t-end", "0.02",
                               "--output-interval", "0.01", "--out", str(out))
        assert code != 0
        assert "non-finite" in stderr_payload(err)["message"]
        assert not (out / "diagnostics.csv").exists()

    def test_non_finite_step_is_a_numerical_abort(self, capsys, tmp_path,
                                                  monkeypatch):
        def overflowing(grid, nu, h):
            inf = np.full(grid.k2.shape, np.inf)
            return inf, inf

        monkeypatch.setattr(solver, "_viscous_factors", overflowing)
        with np.errstate(all="ignore"):
            code, _, err = run_cli(capsys, "simulate", *SIM_FLAGS,
                                   "--out", str(tmp_path / "r"))
        assert code == 3
        payload = stderr_payload(err)
        assert payload["error"] == "numerical"
        assert "non-finite" in payload["message"]
        assert payload["t"] == pytest.approx(0.01, rel=1e-12)

    def test_cfl_abort(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--n", "16", "--nu",
                               "1e-4", "--dt", "0.3", "--t-end", "0.6",
                               "--output-interval", "0.3",
                               "--out", str(tmp_path / "r"))
        assert code == 3
        payload = stderr_payload(err)
        assert payload["error"] == "cfl"
        assert payload["dt"] == 0.3
        assert payload["bound"] < 0.3
        assert payload["max_speed"] > 0
        assert "t" in payload


class TestVerify:
    def test_taylor_green_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "16")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["failed"] == []
        gated = [e for e in payload["reports"] if e["gated"]]
        assert len(gated) >= 12
        names = {e["name"] for e in payload["reports"]}
        # non-closing variants ride along ungated
        assert "tr3[c=0.5]" in names
        assert "energy[curl-flux]" in names

    def test_abc_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "16", "--ic", "abc")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_report_file_written(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "--n", "16", "--out",
                               str(tmp_path))
        assert code == 0
        on_disk = json.loads((tmp_path / "verify_report.json").read_text())
        assert on_disk == json.loads(out)

    def test_zero_snapshot_passes(self, capsys, tmp_path):
        grid = vx.Grid(16)
        u = vx.VectorField.spectral(
            grid, np.zeros((3,) + grid.spectral_shape, complex))
        snap = tmp_path / "zero.vxl"
        save_state(snap, vx.FlowState(u, nu=0.1))
        code, out, _ = run_cli(capsys, "verify", "--snapshot", str(snap))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_divergent_snapshot_rejected(self, capsys, tmp_path):
        grid = vx.Grid(16)
        x, _, _ = grid.coordinates()
        f = np.broadcast_to(np.sin(x), grid.shape).copy()
        bad = vx.VectorField.physical(grid, np.stack([f, 0 * f, 0 * f]))
        snap = tmp_path / "bad.vxl"
        save_field(snap, bad, viscosity=0.1)
        code, _, err = run_cli(capsys, "verify", "--snapshot", str(snap))
        assert code == 2
        assert "solenoidal" in stderr_payload(err)["message"]

    def test_missing_snapshot_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--snapshot",
                               str(tmp_path / "nope.vxl"))
        assert code == 2
        assert stderr_payload(err)["error"] == "io"


class TestVerifyCost:
    """One verify shares the derived fields of each velocity it checks."""

    # scalar fields transformed by one verify, whatever the grid size
    MAX_INVERSE_FIELDS = 248
    MAX_FORWARD_FIELDS = 38

    def test_transform_and_invariant_counts(self, monkeypatch, fft_fields):
        velocities = []
        invariants = kinematics.invariants

        def counting_invariants(u, *args, **kwargs):
            velocities.append(u.data.tobytes())
            return invariants(u, *args, **kwargs)

        state = vx.initial_condition("random_isotropic", vx.Grid(16), seed=3,
                                     re=100.0)
        fft_fields.update(forward=0, inverse=0)
        monkeypatch.setattr(kinematics, "invariants", counting_invariants)
        reports = cli._verify_reports(state)

        assert len(reports) == 23
        assert fft_fields["inverse"] <= self.MAX_INVERSE_FIELDS
        assert fft_fields["forward"] <= self.MAX_FORWARD_FIELDS
        # the identity and the evolution suite each check one velocity
        assert len(velocities) == len(set(velocities)) == 2


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("stats") / "run"
    code = main(["simulate", *SIM_FLAGS, "--out", str(out)])
    assert code == 0
    return out


class TestStats:
    def test_stats_report(self, capsys, run_dir):
        code, out, _ = run_cli(capsys, "stats", "--run", str(run_dir))
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["entropy"]["violations"] == 0
        assert [e["q"] for e in payload["lq"]] == [1.0, 2.0, 3.0]
        assert all(e["passed"] for e in payload["lq"])
        assert (run_dir / "stats_report.json").is_file()

    def test_truncated_run_refused(self, capsys, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--n", "16", "--nu", "0.01", "--dt", "0.01",
                     "--t-end", "0.25", "--output-interval", "0.05",
                     "--out", str(out)]) == 0
        csv = out / "diagnostics.csv"
        lines = csv.read_text().splitlines(keepends=True)
        assert len(lines) == 7  # the header and t = 0, 0.05, ..., 0.25
        csv.write_text("".join(lines[:4]))
        code, _, err = run_cli(capsys, "stats", "--run", str(out))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "config"
        assert "3 records" in payload["message"]
        assert not (out / "stats_report.json").exists()

    def test_requires_run_dir(self, capsys):
        code, _, err = run_cli(capsys, "stats")
        assert code == 2
        assert "--run" in stderr_payload(err)["message"]

    def test_missing_run_dir(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "stats", "--run",
                               str(tmp_path / "ghost"))
        assert code == 2
        assert stderr_payload(err)["error"] == "io"


class TestKernel:
    def test_timescale_output(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--timescale", "--nu",
                               "1e-6", "--u", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["t_scale"] == pytest.approx(2.0e-6, rel=1e-12)
        assert "independent" in payload["note"]

    def test_timescale_invariant_under_length(self, capsys):
        payloads = []
        for length in ("1", "5"):
            code, out, _ = run_cli(capsys, "kernel", "--timescale", "--nu",
                                   "1e-6", "--u", "1", "--l", length)
            assert code == 0
            payloads.append(json.loads(out))
        a, b = payloads
        assert a["t_scale"] == b["t_scale"]
        # the dimensionless number changes with L but undoes itself via kappa
        assert a["dimensionless"] != b["dimensionless"]
        assert a["dimensionless"] * a["kappa"] == pytest.approx(
            b["dimensionless"] * b["kappa"], rel=1e-14)

    def test_timescale_needs_nu(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--timescale")
        assert code == 2
        assert "--nu" in stderr_payload(err)["message"]

    def test_suite_small_sample(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "kernel", "--re", "100", "--delta",
                               "0.01", "--samples", "2000", "--out",
                               str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["p_beta_max_relative"] < 1e-10
        assert payload["propagator_monotone"] is True
        assert payload["monte_carlo"]["violating_cells"] == 0
        assert (tmp_path / "kernel_report.json").is_file()

    def test_sigma_flag(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--sigma", "7.071",
                               "--samples", "2000")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_needs_sigma_or_re(self, capsys):
        code, _, err = run_cli(capsys, "kernel")
        assert code == 2
        assert "sigma" in stderr_payload(err)["message"]
