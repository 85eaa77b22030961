"""Run diagnostics and the statistical decay checks.

One DiagnosticsRecord captures every volume-averaged quantity at one
instant, including chain-rule time derivatives obtained from the solver
right-hand side, so that entropy monotonicity, the L^q enstrophy
inequality and the dissipation laws can all be audited later from the CSV
alone, without re-reading velocity snapshots.

The box average stands in for the ensemble mean throughout: every
mean-of-a-divergence step in the underlying decay arguments vanishes
exactly for periodic fields, which is what makes these checks sharp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .kinematics import Workspace, mean_helicity
from .solver import FlowState, evolution_workspaces
from .spectral import (
    SYMMETRIC_PAIRS,
    physical_gradient,
    spectral_inner,
    to_spectral,
)

__all__ = [
    "OMEGA_FLOOR",
    "Histogram2D",
    "QRInvariants",
    "LqReport",
    "EntropyReport",
    "DiagnosticsRecord",
    "RunSeries",
    "diagnose",
    "lq_inequality_check",
    "entropy_monotonicity_check",
    "qr_invariants",
    "csv_header",
    "write_series_csv",
    "read_series_csv",
]

# floor added to |omega|^2 before fractional powers; mirrors the (x+delta)^(q/2)
# regularization used to derive the L^q inequality
OMEGA_FLOOR = 1e-30


@dataclass(frozen=True)
class Histogram2D:
    """Joint counts with the JSON layout {q_edges, r_edges, counts}."""

    q_edges: tuple
    r_edges: tuple
    counts: tuple

    def as_dict(self) -> dict:
        return {
            "q_edges": list(self.q_edges),
            "r_edges": list(self.r_edges),
            "counts": [list(row) for row in self.counts],
        }

    @property
    def total(self) -> int:
        return int(sum(sum(row) for row in self.counts))


@dataclass(frozen=True)
class QRInvariants:
    """Histogram over pointwise (tr A^2, tr A^3) and the conventional
    (Q, R) = (-tr A^2 / 2, -tr A^3 / 3) alternate."""

    traces: Histogram2D
    conventional: Histogram2D

    def as_dict(self) -> dict:
        return {"traces": self.traces.as_dict(),
                "conventional_qr": self.conventional.as_dict()}


@dataclass(frozen=True)
class LqReport:
    """Slack of d<|omega|^q>/dt <= gradient term + stretching term."""

    q: float
    derivative: float
    gradient_term: float
    stretching_term: float
    slack: float
    scale: float

    @property
    def passed(self) -> bool:
        return self.slack >= -1e-9 * self.scale

    def as_dict(self) -> dict:
        return {"q": self.q, "derivative": self.derivative,
                "gradient_term": self.gradient_term,
                "stretching_term": self.stretching_term,
                "slack": self.slack, "scale": self.scale,
                "passed": self.passed}


@dataclass(frozen=True)
class EntropyReport:
    samples: int
    tolerance: float
    violations: int
    max_increase: float
    bound1_min_slack: float
    bound2_min_slack: float
    bound3_max_relative: float
    bound_scale: float

    @property
    def passed(self) -> bool:
        tol = 1e-9 * self.bound_scale
        return (self.violations == 0
                and self.bound1_min_slack >= -tol
                and self.bound2_min_slack >= -tol
                and self.bound3_max_relative <= 1e-9)

    def as_dict(self) -> dict:
        return {"samples": self.samples, "tolerance": self.tolerance,
                "violations": self.violations,
                "max_increase": self.max_increase,
                "bound1_min_slack": self.bound1_min_slack,
                "bound2_min_slack": self.bound2_min_slack,
                "bound3_max_relative": self.bound3_max_relative,
                "bound_scale": self.bound_scale, "passed": self.passed}


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Volume means and chain-rule rates at one instant.

    mean_abs_omega_q holds (q, <|omega|^q>) pairs; lq_checks holds
    (q, slack, scale) triples from lq_inequality_check evaluated at the
    same state.  qr_histogram is carried in memory and written as JSON,
    not into the CSV.  The d_*_dt rates come from the solver right-hand
    side via the chain rule, so each record is self-contained for the
    decay checks.
    """

    t: float
    mean_u2: float
    mean_enstrophy: float
    mean_abs_omega: float
    mean_S2: float
    mean_trS3: float
    mean_omega_S_omega: float
    mean_grad_omega2: float
    mean_grad_S2: float
    entropy_functional: float
    mean_abs_omega_q: tuple = ()
    qr_histogram: Optional[Histogram2D] = field(default=None, compare=False)
    mean_helicity: float = 0.0
    d_mean_u2_dt: float = 0.0
    d_mean_S2_dt: float = 0.0
    d_mean_abs_omega_dt: float = 0.0
    mean_unit_omega_S_omega: float = 0.0
    lq_checks: tuple = ()

    @property
    def q_values(self) -> tuple:
        return tuple(q for q, _ in self.mean_abs_omega_q)


@dataclass(frozen=True)
class RunSeries:
    """Records at strictly increasing, uniformly spaced times."""

    records: tuple
    manifest: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        times = [r.t for r in self.records]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("record times must be strictly increasing")
        if len(times) >= 3:
            gaps = np.diff(times)
            if np.abs(gaps - gaps[0]).max() > 1e-8 * max(gaps[0], 1e-300):
                raise ValueError("records must be uniformly spaced in time")

    def __len__(self) -> int:
        return len(self.records)


def _lq_terms(q: float, nu: float, grid, m: np.ndarray, wsw: np.ndarray,
              w: np.ndarray, wdot: np.ndarray) -> LqReport:
    # m = |omega|^2 + floor; powers of m never touch zero
    derivative = q * float((m ** ((q - 2.0) / 2.0) * np.einsum(
        "i...,i...->...", w, wdot)).mean())
    stretching = q * float((m ** ((q - 2.0) / 2.0) * wsw).mean())
    if q == 1.0:
        gradient_term = 0.0
    else:
        grad = physical_gradient(grid, to_spectral(grid, m ** (q / 4.0)))
        gradient_term = -4.0 * (1.0 - 1.0 / q) * nu * float(
            np.einsum("i...,i...->...", grad, grad).mean())
    slack = (gradient_term + stretching) - derivative
    scale = max(abs(derivative), abs(gradient_term), abs(stretching), 1e-300)
    return LqReport(q, derivative, gradient_term, stretching, slack, scale)


def _vorticity_terms(f: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise |omega|^2 and omega . S omega of the workspace's velocity."""
    w = f.w
    return (np.einsum("i...,i...->...", w, w),
            np.einsum("i...,ij...,j...->...", w, f.s_from_sh, w))


def _tr_s3(f: Workspace) -> np.ndarray:
    s = f.s_from_sh
    return np.einsum("ij...,jk...,ki...->...", s, s, s)


def _gradient_traces(f: Workspace, enstrophy: np.ndarray, wsw: np.ndarray,
                     trs3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (tr A^2, tr A^3), flattened, by the trace identities of
    A = S + W: tr A^2 = S:S - |omega|^2 / 2 and tr A^3 = tr S^3 + (3/4)
    omega . S omega, so A itself is never sampled."""
    s = f.s_from_sh
    trs2 = np.einsum("ij...,ij...->...", s, s)
    return (trs2 - 0.5 * enstrophy).ravel(), (trs3 + 0.75 * wsw).ravel()


def lq_inequality_check(state: FlowState, q: float) -> LqReport:
    """Check d<|omega|^q>/dt against its decay bound at one state.

    The bound: -4(1 - 1/q) nu <|grad |omega|^(q/2)|^2> + q <|omega|^(q-2)
    omega . S omega>, with the time derivative taken by the chain rule, so
    the slack is a property of the state alone.
    """
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    f, fd = evolution_workspaces(state)
    enstrophy, wsw = _vorticity_terms(f)
    return _lq_terms(float(q), state.effective_viscosity, state.grid,
                     enstrophy + OMEGA_FLOOR, wsw, f.w, fd.w)


def qr_invariants(state: FlowState, bins: int = 32) -> QRInvariants:
    """Joint histograms of the pointwise velocity-gradient invariants."""
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    f = Workspace(state.u)
    enstrophy, wsw = _vorticity_terms(f)
    tra2, tra3 = _gradient_traces(f, enstrophy, wsw, _tr_s3(f))
    return QRInvariants(
        traces=_histogram2d(tra2, tra3, bins),
        conventional=_histogram2d(-0.5 * tra2, -tra3 / 3.0, bins),
    )


def _histogram2d(x: np.ndarray, y: np.ndarray, bins: int) -> Histogram2D:
    counts, xe, ye = np.histogram2d(x, y, bins=bins)
    return Histogram2D(tuple(float(v) for v in xe),
                       tuple(float(v) for v in ye),
                       tuple(tuple(int(c) for c in row) for row in counts))


def _strain_inner(grid, ah: np.ndarray, bh: np.ndarray) -> float:
    """<S:T> of two symmetric tensors from the coefficients of their six
    SYMMETRIC_PAIRS components; an off-diagonal pair stands for two."""
    return sum((1.0 if i == j else 2.0) * spectral_inner(grid, ah[p], bh[p])
               for p, (i, j) in enumerate(SYMMETRIC_PAIRS))


def diagnose(state: FlowState, q_list: Sequence[float] = (1.0, 2.0, 3.0),
             histogram_bins: int = 32,
             include_histogram: bool = True) -> DiagnosticsRecord:
    """All volume means, rates and per-q checks at one state.

    Every quadratic mean is a Parseval sum over the coefficients of u,
    omega and S and of their time derivatives, with du/dt = ns_rhs.  Only
    the terms that are not quadratic (|omega|, |omega|^q, omega . S omega,
    tr S^3, the L^q terms and the Q-R histogram) are formed from samples.
    """
    grid = state.grid
    nu = state.effective_viscosity
    f, fd = evolution_workspaces(state)
    w, wdot = f.w, fd.w
    enstrophy, wsw = _vorticity_terms(f)
    trs3 = _tr_s3(f)

    mean_u2 = state.mean_square_velocity()
    mean_abs_omega = float(np.sqrt(enstrophy).mean())
    m = enstrophy + OMEGA_FLOOR

    record_q = tuple(
        (float(q), float((m ** (float(q) / 2.0)).mean())) for q in q_list)
    lq = tuple(_lq_terms(float(q), nu, grid, m, wsw, w, wdot) for q in q_list)

    hist = None
    if include_histogram:
        hist = _histogram2d(*_gradient_traces(f, enstrophy, wsw, trs3),
                            histogram_bins)

    return DiagnosticsRecord(
        t=state.t,
        mean_u2=mean_u2,
        mean_enstrophy=spectral_inner(grid, f.wh, f.wh),
        mean_abs_omega=mean_abs_omega,
        mean_S2=_strain_inner(grid, f.sh, f.sh),
        mean_trS3=float(trs3.mean()),
        mean_omega_S_omega=float(wsw.mean()),
        mean_grad_omega2=spectral_inner(grid, grid.k2 * f.wh, f.wh),
        mean_grad_S2=_strain_inner(grid, grid.k2 * f.sh, f.sh),
        entropy_functional=mean_abs_omega + mean_u2 / (math.sqrt(2.0) * nu),
        mean_helicity=mean_helicity(state.u, f),
        d_mean_u2_dt=2.0 * spectral_inner(grid, f.uh, fd.uh),
        d_mean_S2_dt=2.0 * _strain_inner(grid, f.sh, fd.sh),
        d_mean_abs_omega_dt=float(
            (m ** -0.5 * np.einsum("i...,i...->...", w, wdot)).mean()),
        mean_unit_omega_S_omega=float((m ** -0.5 * wsw).mean()),
        mean_abs_omega_q=record_q,
        lq_checks=tuple((r.q, r.slack, r.scale) for r in lq),
        qr_histogram=hist,
    )


def entropy_monotonicity_check(series: RunSeries) -> EntropyReport:
    """Non-increase of <|omega|> + <|u|^2>/(sqrt(2) nu) along the run,
    plus the chained bounds d<|omega|>/dt <= <|omega|^-1 omega.S omega>
    <= sqrt(<|S|^2>) sqrt(<|omega|^2>) = <|omega|^2>/sqrt(2) per sample."""
    records = series.records
    if len(records) < 3:
        raise ValueError(f"need at least 3 samples, got {len(records)}")
    e = [r.entropy_functional for r in records]
    tol = 1e-10 * e[0]
    increases = [b - a for a, b in zip(e, e[1:])]
    violations = sum(1 for inc in increases if inc > tol)

    b1 = [r.mean_unit_omega_S_omega - r.d_mean_abs_omega_dt for r in records]
    cs = [math.sqrt(r.mean_S2 * r.mean_enstrophy) for r in records]
    b2 = [c - r.mean_unit_omega_S_omega for c, r in zip(cs, records)]
    b3 = [abs(c - r.mean_enstrophy / math.sqrt(2.0))
          / max(r.mean_enstrophy / math.sqrt(2.0), 1e-300)
          for c, r in zip(cs, records)]
    scale = max(max(r.mean_enstrophy for r in records) / math.sqrt(2.0), 1e-300)
    return EntropyReport(
        samples=len(records),
        tolerance=tol,
        violations=violations,
        max_increase=max(increases),
        bound1_min_slack=min(b1),
        bound2_min_slack=min(b2),
        bound3_max_relative=max(b3),
        bound_scale=scale,
    )


# ---------------------------------------------------------------------------
# CSV serialization; float formatting is shortest-roundtrip repr so repeated
# runs with one seed are byte-identical

_LEAD_COLUMNS = (
    "t", "mean_u2", "mean_enstrophy", "mean_abs_omega", "mean_S2",
    "mean_trS3", "mean_omega_S_omega", "mean_grad_omega2", "mean_grad_S2",
    "entropy_functional",
)
_TAIL_COLUMNS = (
    "mean_helicity", "d_mean_u2_dt", "d_mean_S2_dt",
    "d_mean_abs_omega_dt", "mean_unit_omega_S_omega",
)


def _q_tag(q: float) -> str:
    return f"{q:g}"


def csv_header(q_values: Sequence[float]) -> list:
    cols = list(_LEAD_COLUMNS)
    for q in q_values:
        cols.append(f"mean_abs_omega_q{_q_tag(q)}")
    cols.extend(_TAIL_COLUMNS)
    for q in q_values:
        cols.append(f"lq_slack_q{_q_tag(q)}")
        cols.append(f"lq_scale_q{_q_tag(q)}")
    return cols


def _format(x: float) -> str:
    return repr(float(x))


def write_series_csv(series: RunSeries, path) -> None:
    qs = series.records[0].q_values if series.records else ()
    lines = [",".join(csv_header(qs))]
    for r in series.records:
        row = [_format(getattr(r, name)) for name in _LEAD_COLUMNS]
        row += [_format(v) for _, v in r.mean_abs_omega_q]
        row += [_format(getattr(r, name)) for name in _TAIL_COLUMNS]
        for _, slack, scale in r.lq_checks:
            row.append(_format(slack))
            row.append(_format(scale))
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series_csv(path, manifest: Optional[dict] = None) -> RunSeries:
    with open(path, "r", newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty diagnostics file: {path}")
    header = lines[0].split(",")
    qs = [float(name[len("mean_abs_omega_q"):]) for name in header
          if name.startswith("mean_abs_omega_q")]
    if header != csv_header(qs):
        raise ValueError(f"unrecognized diagnostics header in {path}")
    records = []
    for line in lines[1:]:
        vals = [float(tok) for tok in line.split(",")]
        named = dict(zip(header, vals))
        scalars = {name: named[name]
                   for name in _LEAD_COLUMNS + _TAIL_COLUMNS}
        records.append(DiagnosticsRecord(
            **scalars,
            mean_abs_omega_q=tuple(
                (q, named[f"mean_abs_omega_q{_q_tag(q)}"]) for q in qs),
            lq_checks=tuple(
                (q, named[f"lq_slack_q{_q_tag(q)}"],
                 named[f"lq_scale_q{_q_tag(q)}"]) for q in qs),
        ))
    return RunSeries(tuple(records), manifest or {})
