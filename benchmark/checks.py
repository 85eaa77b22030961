"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list means the output
passed.  The checks test properties the method must have or compare with
computations made in `reference.py`; none compares with a stored copy of
an earlier output.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy import stats

# Gates of the verify command.  A gated residual must stay below its gate;
# the names must all be reported, so a dropped check is caught too.
VERIFY_GATES = {
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
# Variants that do not close: a residual near zero would mean the verifier
# no longer tells a wrong formula from a right one.
NON_CLOSING = ("energy[curl-flux]", "tr3[c=0.5]", "trS2[divergence c=1]",
               "trS3[(tr S^2)^2]")
NON_CLOSING_FLOOR = 1e-2

ENERGY_LAW_RTOL = 1e-10
ENERGY_BUDGET_RTOL = 1e-6
SANDWICH_FLOOR = -1e-12
P_BETA_RTOL = 1e-10
CHI2_P_FLOOR = 1e-6
CHI2_P_RTOL = 1e-9


def read_csv_rows(path):
    """diagnostics.csv as a list of {column: float}."""
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def viscosity(manifest):
    return manifest["nu"] if "nu" in manifest else 1.0 / manifest["Re"]


# ---------------------------------------------------------------------------
# decay-dns


def check_stats_report(report):
    """Entropy functional non-increasing, chained bounds, L^q slacks >= 0."""
    problems = []
    if report.get("passed") is not True:
        problems.append("stats report does not pass")
    ent = report["entropy"]
    if ent["violations"] != 0 or ent["max_increase"] > ent["tolerance"]:
        problems.append(f"entropy functional increased by "
                        f"{ent['max_increase']:.3e}")
    tol = 1e-9 * ent["bound_scale"]
    for key in ("bound1_min_slack", "bound2_min_slack"):
        if ent[key] < -tol:
            problems.append(f"chained bound {key} = {ent[key]:.3e} < 0")
    if ent["bound3_max_relative"] > 1e-9:
        problems.append(f"bound3 relative {ent['bound3_max_relative']:.3e}")
    if not report["lq"]:
        problems.append("no L^q entries")
    for entry in report["lq"]:
        if not entry["min_slack"] >= 0.0:
            problems.append(f"L^q slack at q={entry['q']} is "
                            f"{entry['min_slack']:.3e}")
    return problems


def check_energy_law(rows, nu):
    """d<|u|^2>/dt = -2 nu <|omega|^2> in every record."""
    problems = []
    for row in rows:
        expect = -2.0 * nu * row["mean_enstrophy"]
        err = abs(row["d_mean_u2_dt"] - expect)
        if not err <= ENERGY_LAW_RTOL * abs(expect):
            problems.append(f"energy law at t={row['t']}: relative error "
                            f"{err / abs(expect):.3e}")
    return problems


def check_energy_budget(rows, nu):
    """Each change of <|u|^2> equals the time integral of its recorded rate.

    Trapezoid rule with the Euler-Maclaurin end correction
    -(dt^2/12) [f'(b) - f'(a)], where f = d<|u|^2>/dt and
    f' = -2 nu d<|omega|^2>/dt = -4 nu d<|S|^2>/dt, both from the record.
    """
    problems = []
    scale = abs(rows[0]["mean_u2"])
    for a, b in zip(rows, rows[1:]):
        dt = b["t"] - a["t"]
        trap = 0.5 * dt * (a["d_mean_u2_dt"] + b["d_mean_u2_dt"])
        slope = -4.0 * nu * (b["d_mean_S2_dt"] - a["d_mean_S2_dt"])
        integral = trap - dt * dt / 12.0 * slope
        err = abs((b["mean_u2"] - a["mean_u2"]) - integral)
        if not err <= ENERGY_BUDGET_RTOL * scale:
            problems.append(f"energy budget over [{a['t']}, {b['t']}]: "
                            f"misses by {err:.3e}")
    return problems


def check_reference(program_u, reference_u, error_estimate):
    """The program's state agrees with the independent reference within
    the reference's own error estimate (plus a roundoff floor)."""
    scale = float(np.abs(reference_u).max())
    bound = error_estimate + 1e-13 * scale
    diff = float(np.abs(program_u - reference_u).max())
    if not diff <= bound:
        return [f"state differs from the reference by {diff:.3e} "
                f"> error estimate {bound:.3e}"]
    return []


# ---------------------------------------------------------------------------
# verify-snapshots


def check_verify_report(report):
    problems = []
    if report.get("failed") != [] or report.get("passed") is not True:
        problems.append(f"verify reports failures {report.get('failed')}")
    by_name = {entry["name"]: entry for entry in report["reports"]}
    for name, gate in VERIFY_GATES.items():
        entry = by_name.get(name)
        if entry is None:
            problems.append(f"gated check {name} missing")
        elif not entry["relative"] < gate:
            problems.append(f"{name}: residual {entry['relative']:.3e} "
                            f">= gate {gate:.0e}")
    for name in NON_CLOSING:
        entry = by_name.get(name)
        if entry is None:
            problems.append(f"non-closing variant {name} missing")
        elif not entry["relative"] > NON_CLOSING_FLOOR:
            problems.append(f"{name}: non-closing variant closes "
                            f"({entry['relative']:.3e})")
    return problems


def check_snapshot_bits(loaded, t, nu, generated, gen_t, gen_nu):
    """A snapshot read back equals, bit for bit, the array written."""
    if (loaded.shape != generated.shape or loaded.dtype != np.float64
            or np.ascontiguousarray(loaded).tobytes()
            != np.ascontiguousarray(generated).tobytes()):
        return ["snapshot read back differs from the generated array"]
    if t != gen_t or nu != gen_nu:
        return [f"snapshot header (t={t}, nu={nu}) differs from "
                f"(t={gen_t}, nu={gen_nu})"]
    return []


# ---------------------------------------------------------------------------
# kernel-lattice


def check_monte_carlo(mc, constant):
    problems = []
    if mc["violating_cells"] != 0:
        problems.append(f"{mc['violating_cells']} Monte Carlo cells leave "
                        f"the envelopes")
    if mc["constant_drift"] is not constant:
        problems.append(f"constant_drift is {mc['constant_drift']}")
    if constant:
        p = float(stats.chi2.sf(mc["chi2_statistic"], mc["chi2_dof"]))
        reported = mc["chi2_p_value"]
        if not abs(p - reported) <= CHI2_P_RTOL * max(p, 1e-300):
            problems.append(f"chi2 p-value {reported!r} != recomputed {p!r}")
        if not reported > CHI2_P_FLOOR:
            problems.append(f"chi2 p-value {reported:.3e} below "
                            f"{CHI2_P_FLOOR:.0e}")
    return problems


def check_kernel_report(report):
    problems = []
    for entry in report["sandwich"]:
        slack = min(entry["lower_min_slack"], entry["upper_min_slack"])
        if not slack >= SANDWICH_FLOOR:
            problems.append(f"sandwich slack {slack:.3e} at drift "
                            f"{entry['drift']}")
    if not report["p_beta_max_relative"] < P_BETA_RTOL:
        problems.append(f"p_beta closed form vs quadrature "
                        f"{report['p_beta_max_relative']:.3e}")
    diffs = report["propagator_diffs"]
    if len(diffs) < 2 or not all(b < a for a, b in zip(diffs, diffs[1:])):
        problems.append(f"propagator differences not decreasing: {diffs}")
    problems += check_monte_carlo(report["monte_carlo"], constant=True)
    return problems

