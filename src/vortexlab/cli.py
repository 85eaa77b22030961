"""Command-line front end: simulate, verify, stats, kernel.

Every run is reproducible from its flags plus seed; identical invocations
produce bit-identical CSV/JSON artifacts.  All failure paths emit a
machine-readable JSON object on stderr.  Exit codes: 0 pass, 1 check
failure, 2 usage or configuration error, 3 numerical abort (a CFL
violation, or a step that made the state non-finite).

A flat key=value file can be passed via --config; explicit flags override
file entries.  Keys use the long flag names (dashes and underscores are
interchangeable).  VXL_THREADS caps transform parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import (
    RunSeries,
    diagnose,
    entropy_monotonicity_check,
    read_series_csv,
    write_series_csv,
)
from .heatkernel import (
    KernelParams,
    dimensionless_timescale,
    exact_linear_vorticity_step,
    f_pm,
    f_pm_psi_term,
    kernel_bounds_check,
    monte_carlo_kernel_check,
    p_beta,
    short_time_vorticity_step,
    vorticity_timescale,
)
from .identities import (
    gamma2_residual,
    mean_identities,
    residual_grad_sw,
    residual_pressure_hessian,
    residual_tr2,
    residual_tr3,
    switched_invariant_residuals,
)
from .kinematics import Workspace
from .solver import (
    CFLViolation,
    DimensionlessScaling,
    EVOLUTION_CHECKS,
    FlowState,
    NumericalAbort,
    SolverConfig,
    evolution_residual,
    evolution_workspaces,
    initial_condition,
    pressure_from_velocity,
    step,
)
from .spectral import Grid, ScalarField, VectorField, band_limit
from .storage import load_state, read_manifest, save_state, write_manifest

__all__ = ["RunConfig", "main"]

_IC_KINDS = {
    "taylor-green": "taylor_green",
    "abc": "abc",
    "random": "random_isotropic",
}

# residual thresholds used to gate the verify exit code; variants kept for
# reporting only have no entry here
_VERIFY_GATES = {
    "tr2": 1e-9,
    "tr3": 1e-9,
    "tr2-sw": 1e-9,
    "tr3-sw": 1e-9,
    "grad-sw": 1e-9,
    "pressure-hessian": 1e-9,
    "gamma2": 1e-9,
    "mean-strain-enstrophy": 1e-11,
    "mean-trS3-stretching": 1e-11,
    "mean-gradS-gradomega": 1e-11,
    "vorticity": 1e-8,
    "energy[advective-flux]": 1e-8,
    "enstrophy": 1e-8,
    "strain": 1e-8,
    "trS2[direct]": 1e-8,
    "trS2[divergence c=3]": 1e-8,
    "trS2[agreement c=3]": 1e-9,
    "trS3[tr(S^4)]": 1e-8,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters shared by the subcommands.

    Exactly one of nu and re must be set for commands that evolve or
    differentiate a state in time.
    """

    command: str
    n: int = 32
    box_length: float = 2.0 * math.pi
    nu: Optional[float] = None
    re: Optional[float] = None
    dt: float = 1e-3
    t_end: float = 1.0
    output_interval: float = 0.05
    cfl_constant: float = 0.5
    out: Optional[str] = None
    seed: int = 0
    ic: str = "taylor-green"
    q_list: tuple = (1.0, 2.0, 3.0)
    k0: float = 4.0
    energy: float = 0.5
    abc: tuple = (1.0, 1.0, 1.0)
    save_snapshots: bool = False

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError(f"n must be an even integer >= 8, got {self.n}")
        for name in ("box_length", "dt", "t_end", "output_interval",
                     "cfl_constant", "k0", "energy"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.nu is not None and not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.re is not None and not self.re > 0:
            raise ValueError(f"re must be positive, got {self.re}")
        if self.nu is not None and self.re is not None:
            raise ValueError("pass either --nu or --re, not both")
        if self.ic not in _IC_KINDS:
            raise ValueError(f"unknown initial condition {self.ic!r}")
        if not self.q_list:
            raise ValueError("q list must not be empty")
        if any(q < 1 for q in self.q_list):
            raise ValueError(f"q values must be at least 1, got {self.q_list}")
        if len(self.abc) != 3:
            raise ValueError(f"abc needs three amplitudes, got {self.abc}")

    @property
    def ic_kind(self) -> str:
        return _IC_KINDS[self.ic]

    @property
    def ic_params(self) -> dict:
        if self.ic == "abc":
            return {"A": self.abc[0], "B": self.abc[1], "C": self.abc[2]}
        if self.ic == "random":
            return {"k0": self.k0, "energy": self.energy}
        return {}

    def require_viscosity(self) -> None:
        if self.nu is None and self.re is None:
            raise ValueError("pass one of --nu or --re")


# ---------------------------------------------------------------------------
# argument plumbing


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# coercions for --config file entries, keyed by canonical name
_CONFIG_TYPES = {
    "n": int,
    "box_length": float,
    "nu": float,
    "re": float,
    "dt": float,
    "t_end": float,
    "output_interval": float,
    "cfl_constant": float,
    "out": str,
    "seed": int,
    "ic": str,
    "q_list": _parse_floats,
    "k0": float,
    "energy": float,
    "abc": _parse_floats,
    "save_snapshots": _parse_bool,
    "snapshot": str,
    "run": str,
    "sigma": float,
    "delta": float,
    "u": float,
    "l": float,
    "samples": int,
    "timescale": _parse_bool,
}


def _read_config_file(path: str) -> dict:
    entries = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            entries[key] = _CONFIG_TYPES[key](value)
    return entries


def _merged(args: argparse.Namespace) -> dict:
    """Config-file values overridden by explicitly passed flags."""
    merged = dict(_read_config_file(args.config)) if args.config else {}
    for key, value in vars(args).items():
        if key in ("config", "func", "command") or value is None:
            continue
        merged[key] = value
    return merged


def _build_config(args: argparse.Namespace) -> RunConfig:
    merged = _merged(args)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    kwargs = {k: v for k, v in merged.items() if k in fields}
    if "q_list" in kwargs and isinstance(kwargs["q_list"], str):
        kwargs["q_list"] = _parse_floats(kwargs["q_list"])
    if "abc" in kwargs and isinstance(kwargs["abc"], str):
        kwargs["abc"] = _parse_floats(kwargs["abc"])
    return RunConfig(command=args.command, **kwargs)


def _extra(args: argparse.Namespace, key: str, default=None):
    merged = _merged(args)
    return merged.get(key, default)


def build_parser() -> _Parser:
    parser = _Parser(prog="vxl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", default=None, metavar="FILE",
                        help="flat key=value file; flags override it")
    common.add_argument("--n", type=int, default=None)
    common.add_argument("--box-length", dest="box_length", type=float,
                        default=None)
    common.add_argument("--nu", type=float, default=None)
    common.add_argument("--re", type=float, default=None)
    common.add_argument("--dt", type=float, default=None)
    common.add_argument("--t-end", dest="t_end", type=float, default=None)
    common.add_argument("--output-interval", dest="output_interval",
                        type=float, default=None)
    common.add_argument("--out", default=None, metavar="DIR")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--ic", choices=sorted(_IC_KINDS), default=None)
    common.add_argument("--q-list", dest="q_list", type=_parse_floats,
                        default=None, metavar="Q1,Q2,...")
    common.add_argument("--cfl-constant", dest="cfl_constant", type=float,
                        default=None)

    sim = sub.add_parser("simulate", parents=[common],
                         help="run a decaying flow and record diagnostics")
    sim.add_argument("--k0", type=float, default=None)
    sim.add_argument("--energy", type=float, default=None)
    sim.add_argument("--abc", type=_parse_floats, default=None,
                     metavar="A,B,C")
    sim.add_argument("--save-snapshots", dest="save_snapshots",
                     action="store_true", default=None)
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", parents=[common],
                         help="evaluate identity and evolution residuals")
    ver.add_argument("--snapshot", default=None, metavar="FILE")
    ver.set_defaults(func=cmd_verify)

    sta = sub.add_parser("stats", parents=[common],
                         help="entropy and L^q checks over a finished run")
    sta.add_argument("--run", default=None, metavar="DIR")
    sta.set_defaults(func=cmd_stats)

    ker = sub.add_parser("kernel", parents=[common],
                         help="drift-kernel bound and propagator checks")
    ker.add_argument("--sigma", type=float, default=None)
    ker.add_argument("--delta", type=float, default=None)
    ker.add_argument("--samples", type=int, default=None)
    ker.add_argument("--timescale", action="store_true", default=None)
    ker.add_argument("--u", type=float, default=None)
    ker.add_argument("--l", type=float, default=None)
    ker.set_defaults(func=cmd_kernel)

    return parser


@contextmanager
def _locked(outdir: Path):
    lock = outdir / ".vxl-lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ValueError(
            f"output directory {outdir} is in use by another run "
            f"(remove {lock} if stale)")
    os.close(fd)
    try:
        yield
    finally:
        try:
            os.unlink(lock)
        except FileNotFoundError:
            pass


def _dump(payload: dict, path: Optional[Path]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if path is not None:
        path.write_text(text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    cfg.require_viscosity()
    if cfg.out is None:
        raise ValueError("simulate requires --out")
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with _locked(outdir):
        grid = Grid(cfg.n, cfg.box_length)
        state = initial_condition(cfg.ic_kind, grid, params=cfg.ic_params,
                                  seed=cfg.seed, nu=cfg.nu, re=cfg.re)
        solver_config = SolverConfig(dt=cfg.dt, t_end=cfg.t_end,
                                     output_interval=cfg.output_interval,
                                     cfl_constant=cfg.cfl_constant)
        steps_per_output = max(1, round(cfg.output_interval / cfg.dt))
        n_outputs = round(cfg.t_end / (steps_per_output * cfg.dt))

        manifest = {
            "n": cfg.n, "box_length": cfg.box_length,
            "dt": cfg.dt, "t_end": cfg.t_end,
            "output_interval": cfg.output_interval,
            "cfl_constant": cfg.cfl_constant,
            "seed": cfg.seed, "ic_kind": cfg.ic_kind,
            "ic_params": cfg.ic_params, "q_list": list(cfg.q_list),
        }
        if cfg.nu is not None:
            manifest["nu"] = cfg.nu
        else:
            manifest["Re"] = cfg.re

        # the final record's histogram of (tr A^2, tr A^3) is the Q-R output
        records = [diagnose(state, cfg.q_list,
                            include_histogram=n_outputs == 0)]
        if cfg.save_snapshots:
            save_state(outdir / "state_0000.vxl", state)
        for j in range(1, n_outputs + 1):
            for _ in range(steps_per_output):
                state = step(state, solver_config)
            records.append(diagnose(state, cfg.q_list,
                                    include_histogram=j == n_outputs))
            if cfg.save_snapshots:
                save_state(outdir / f"state_{j:04d}.vxl", state)
        series = RunSeries(tuple(records), manifest)

        write_manifest(outdir / "manifest.json", manifest)
        write_series_csv(series, outdir / "diagnostics.csv")
        save_state(outdir / "state_final.vxl", state)
        (outdir / "qr_histogram.json").write_text(json.dumps(
            records[-1].qr_histogram.as_dict(), sort_keys=True) + "\n")
    return 0


def _verify_reports(state: FlowState):
    grid = state.grid
    nu = state.effective_viscosity
    # identity suite: products of two fields must stay representable
    u_id = band_limit(state.u, grid.n // 4)
    # evolution suite: the dealias mask must not clip the advection term
    ev_cut = ((grid.n - 1) // 3) // 2 + 1
    ev_state = FlowState(u=band_limit(state.u, ev_cut), t=state.t,
                         nu=state.nu, re=state.re)

    ws = Workspace(u_id)
    reports = [residual_tr2(u_id, ws), residual_tr3(u_id, workspace=ws)]
    reports.append(dataclasses.replace(
        residual_tr3(u_id, flux_coefficient=0.5, workspace=ws),
        name="tr3[c=0.5]"))
    reports.extend(switched_invariant_residuals(u_id, ws))
    reports.append(residual_grad_sw(u_id, ws))
    reports.append(residual_pressure_hessian(
        u_id, pressure_from_velocity(u_id, ws), ws))
    scalar = ScalarField.spectral(grid, u_id.data[0])
    reports.append(gamma2_residual(u_id, scalar, nu, ws))
    reports.extend(mean_identities(u_id, ws))
    # one suite's workspaces at a time: the identity one is released first
    del ws
    workspaces = evolution_workspaces(ev_state)
    for which in EVOLUTION_CHECKS:
        reports.extend(evolution_residual(ev_state, which, workspaces))
    return reports


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    snapshot = _extra(args, "snapshot")
    if snapshot is not None:
        state = load_state(snapshot)
    else:
        grid = Grid(cfg.n, cfg.box_length)
        nu, re = cfg.nu, cfg.re
        if nu is None and re is None:
            re = 100.0
        state = initial_condition(cfg.ic_kind, grid, params=cfg.ic_params,
                                  seed=cfg.seed, nu=nu, re=re)

    entries = []
    failed = []
    for report in _verify_reports(state):
        entry = report.as_dict()
        threshold = _VERIFY_GATES.get(report.name)
        entry["threshold"] = threshold
        entry["gated"] = threshold is not None
        if threshold is not None:
            entry["passed"] = bool(report.relative < threshold)
            if not entry["passed"]:
                failed.append(report.name)
        entries.append(entry)

    payload = {"reports": entries, "failed": failed,
               "passed": not failed}
    _dump(payload, Path(cfg.out) / "verify_report.json" if cfg.out else None)
    return 0 if not failed else 1


def cmd_stats(cfg: RunConfig, args: argparse.Namespace) -> int:
    run_dir = _extra(args, "run", cfg.out)
    if run_dir is None:
        raise ValueError("stats requires --run pointing at a run directory")
    run = Path(run_dir)
    manifest = read_manifest(run / "manifest.json")
    series = read_series_csv(run / "diagnostics.csv", manifest)

    entropy = entropy_monotonicity_check(series)
    lq_entries = []
    all_ok = entropy.passed
    qs = series.records[0].q_values
    for idx, q in enumerate(qs):
        slacks = np.array([r.lq_checks[idx][1] for r in series.records])
        scales = np.array([r.lq_checks[idx][2] for r in series.records])
        margins = slacks + 1e-9 * scales
        ok = bool(margins.min() >= 0.0)
        all_ok = all_ok and ok
        lq_entries.append({
            "q": q,
            "min_slack": float(slacks.min()),
            "max_scale": float(scales.max()),
            "worst_margin": float(margins.min()),
            "passed": ok,
        })

    payload = {"entropy": entropy.as_dict(), "lq": lq_entries,
               "passed": bool(all_ok)}
    _dump(payload, run / "stats_report.json")
    return 0 if all_ok else 1


def _kernel_suite(sigma: float, delta: float, samples: int,
                  seed: int) -> dict:
    # closed form vs quadrature on a coarse parameter lattice
    max_rel = 0.0
    for beta in (-5.0, -2.0, 0.0, 1.0, 5.0):
        for r in (0.0, 0.5, 1.0, 5.0):
            for t in (1e-3, 1.0, 10.0):
                closed = float(p_beta(r, t, 0.0, beta))
                quad = float(p_beta(r, t, 0.0, beta, method="quadrature"))
                denom = max(abs(closed), abs(quad), 1e-300)
                max_rel = max(max_rel, abs(closed - quad) / denom)

    sandwich = [kernel_bounds_check(sigma, delta, drift).as_dict()
                for drift in ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))]

    # Psi-term three-case limits, plus ordering of the scaled kernels.
    # Outside: |x - xi| - delta = +0.5 at sigma^2 delta = 1.  Inside needs
    # |x - xi| < delta, so it runs at fixed delta = 1 instead.
    limits = []
    limits_ok = True
    for s in (10.0, 100.0, 1000.0):
        d = 1.0 / s ** 2
        tail = float(f_pm_psi_term(s, 0.0, d, d + 0.5) / s)
        body = float(f_pm_psi_term(s, 0.0, 1.0, 0.5) / s)
        edge = float(f_pm_psi_term(s, 0.0, d, d) / s)
        minus = float(f_pm_psi_term(s, 0.0, d, d + 0.5, sign=-1) / -s)
        ok = (tail < 1e-6 and body > 1.0 - 1e-6
              and abs(edge - 0.5) < 1e-12 and minus < 1e-6)
        limits_ok = limits_ok and ok
        limits.append({"sigma": s, "outside": tail, "inside": body,
                       "boundary": edge, "minus_branch": minus,
                       "passed": ok})
    xs = np.linspace(-2.0, 2.0, 41)
    order_slack = float(np.min(f_pm(sigma, 0.0, delta, xs, +1)
                               - f_pm(sigma, 0.0, delta, xs, -1)))

    # short-time propagator against the exact constant-coefficient step
    grid = Grid(32)
    x = np.broadcast_to(grid.coordinates()[0], grid.shape)
    theta = VectorField.physical(grid, np.stack(
        [np.sin(x), np.zeros(grid.shape), np.cos(x)]))
    gamma = np.diag([1.0, -0.5, -0.5])
    diffs = []
    for d in (0.02, 0.01, 0.005):
        params = KernelParams(sigma, d)
        approx = short_time_vorticity_step(theta, gamma, params)
        exact = exact_linear_vorticity_step(theta, gamma,
                                            (0.0, 0.0, 0.0), params)
        diffs.append(float(np.abs(approx.data - exact.data).max()))
    monotone = all(b < a for a, b in zip(diffs, diffs[1:]))

    mc = monte_carlo_kernel_check(sigma, delta, (0.0, 0.0, 0.0),
                                  samples=samples, seed=seed)

    passed = (max_rel < 1e-10
              and all(s["passed"] for s in sandwich)
              and limits_ok
              and order_slack >= -1e-12
              and monotone
              and mc.violating_cells == 0)
    return {
        "p_beta_max_relative": max_rel,
        "sandwich": sandwich,
        "psi_term_limits": limits,
        "f_order_min_slack": order_slack,
        "propagator_diffs": diffs,
        "propagator_monotone": monotone,
        "monte_carlo": mc.as_dict(),
        "passed": bool(passed),
    }


def cmd_kernel(cfg: RunConfig, args: argparse.Namespace) -> int:
    if _extra(args, "timescale"):
        if cfg.nu is None:
            raise ValueError("timescale mode requires --nu")
        U = _extra(args, "u", 1.0)
        L = _extra(args, "l", 1.0)
        report = vorticity_timescale(cfg.nu, U)
        scaling = DimensionlessScaling(L=L, U=U, nu=cfg.nu)
        payload = {
            "nu": report.nu, "U": report.U, "t_scale": report.t_scale,
            "note": report.note, "L": L, "Re": scaling.Re,
            "dimensionless": dimensionless_timescale(scaling),
            "kappa": scaling.kappa,
        }
        _dump(payload, Path(cfg.out) / "timescale.json" if cfg.out else None)
        return 0

    sigma = _extra(args, "sigma")
    if sigma is None:
        if cfg.re is None:
            raise ValueError("kernel checks require --sigma or --re")
        sigma = math.sqrt(cfg.re / 2.0)
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    delta = _extra(args, "delta", 0.01)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    samples = _extra(args, "samples", 100_000)
    payload = _kernel_suite(sigma, delta, samples, cfg.seed)
    _dump(payload, Path(cfg.out) / "kernel_report.json" if cfg.out else None)
    return 0 if payload["passed"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _build_config(args)
        return args.func(cfg, args)
    except CFLViolation as exc:
        _emit_error("cfl", str(exc), t=exc.t, dt=exc.dt, bound=exc.bound,
                    max_speed=exc.max_speed)
        return 3
    except NumericalAbort as exc:
        _emit_error("numerical", str(exc), t=exc.t)
        return 3
    except ValueError as exc:
        _emit_error("config", str(exc))
        return 2
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
