"""The three benchmark workloads.

Each workload drives vortexlab through its public entry points
(``vortexlab.cli.main`` and, for the variable-drift Monte Carlo check,
``vortexlab.heatkernel.monte_carlo_kernel_check``), one request at a time,
and checks every output.  Entry points are looked up on their module at
call time, so a traced round sees the tracer's wrappers.

A request is the workload's unit of work, timed on its own in CPU seconds
of the whole process (all threads):
  decay-dns         one RK4 step (`solver.step` as called by `cli`)
  verify-snapshots  one `verify` call on one stored snapshot
  kernel-lattice    one lattice cell: a `kernel` call at one (Re, delta),
                    or one variable-drift Monte Carlo check at one Re
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass

import numpy as np

import checks
import reference
from vortexlab import cli, heatkernel, storage


def now():
    """(wall seconds, process CPU seconds) at this instant."""
    return time.perf_counter(), time.process_time()


def since(start):
    wall, cpu = now()
    return wall - start[0], cpu - start[1]


def call_cli(argv):
    """Run one subcommand in-process; returns (exit code, its stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


class Workload:
    """Set-up, rounds of requests, and the checks made along the way.

    `min_requests` is the least number of requests a run measures, so that
    the 75th percentile of their latencies has ten samples beyond it.
    """

    min_requests = 40

    def __init__(self, seed, workdir, size):
        self.seed = seed
        self.dir = workdir
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.latencies = []   # CPU seconds per request
        self.busy = [0.0, 0.0]  # wall and CPU seconds of the requests
        self.requests = 0     # completed requests
        self.drift_samples = 0

    def setup(self):
        """Make the inputs and make one warm-up call."""
        raise NotImplementedError

    def round(self, tracer):
        """One round of requests; the same requests every round."""
        raise NotImplementedError

    def final_checks(self):
        """Checks made once, after the measured rounds."""

    def _attempt(self, rc):
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            return False
        return True

    def _served(self, requests, spent, latencies):
        """Count `requests` done in `spent` (wall, CPU) seconds."""
        self.busy[0] += spent[0]
        self.busy[1] += spent[1]
        self.requests += requests
        self.latencies += latencies

    def _problem(self, what, problems):
        self.problems.extend(f"{what}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# decay-dns


@dataclass(frozen=True)
class DecaySize:
    n: int = 64
    dt: float = 0.005
    output_interval: float = 0.05
    t_end: float = 0.1


class DecayDNS(Workload):
    """`simulate` of a random isotropic decaying flow, then `stats`."""

    def _argv(self, t_end, output_interval, out):
        s = self.size
        return ["simulate", "--n", s.n, "--re", 100, "--ic", "random",
                "--k0", 4, "--energy", 0.5, "--seed", self.seed,
                "--dt", s.dt, "--output-interval", output_interval,
                "--t-end", t_end, "--save-snapshots", "--out", out]

    def setup(self):
        s = self.size
        self.steps = round(s.t_end / s.dt)
        self.steps_per_output = round(s.output_interval / s.dt)
        self.records = round(s.t_end / s.output_interval) + 1
        self.first = self.dir / "first"
        self.rest = self.dir / "rest"
        self.csv = None
        warm = self.dir / "warm"
        shutil.rmtree(warm, ignore_errors=True)
        rc, _ = call_cli(self._argv(s.dt, s.dt, warm))
        if rc != 0:
            raise RuntimeError(f"warm-up simulate exited {rc}")

    def round(self, tracer):
        if tracer is not None:
            tracer.request = f"round-{self.attempted // 2}"
        out = self.first if self.csv is None else self.rest
        shutil.rmtree(out, ignore_errors=True)
        step_times = []
        traced_step = cli.step

        def timed_step(*args, **kwargs):
            t0 = time.process_time()
            try:
                return traced_step(*args, **kwargs)
            finally:
                step_times.append(time.process_time() - t0)

        cli.step = timed_step
        try:
            start = now()
            rc, _ = call_cli(self._argv(self.size.t_end,
                                        self.size.output_interval, out))
            spent = since(start)
        finally:
            cli.step = traced_step
        if not self._attempt(rc):
            return
        self._served(len(step_times), spent, step_times)

        rc, text = call_cli(["stats", "--run", out])
        if not self._attempt(rc):
            return
        self._problem("stats", checks.check_stats_report(json.loads(text)))
        rows = checks.read_csv_rows(out / "diagnostics.csv")
        manifest = json.loads((out / "manifest.json").read_text())
        nu = checks.viscosity(manifest)
        if len(rows) != self.records or len(step_times) != self.steps:
            self._problem("simulate", [
                f"{len(rows)} records and {len(step_times)} steps, expected "
                f"{self.records} and {self.steps}"])
            return
        self._problem("energy law", checks.check_energy_law(rows, nu))
        self._problem("energy budget", checks.check_energy_budget(rows, nu))
        data = (out / "diagnostics.csv").read_bytes()
        if self.csv is None:
            self.csv = data
        elif data != self.csv:
            self._problem("simulate", ["a repeated run wrote another CSV"])

    def final_checks(self):
        if self.csv is None:
            return
        u0, t0, nu, box = reference.read_vxl1(self.first / "state_0000.vxl")
        u1, t1, _, _ = reference.read_vxl1(self.first / "state_0001.vxl")
        steps = round((t1 - t0) / self.size.dt)
        if steps != self.steps_per_output:
            self._problem("reference", [f"first output after {steps} steps"])
            return
        ref, err = reference.reference_with_error(u0, nu, self.size.dt,
                                                  steps, box)
        self._problem("reference", checks.check_reference(u1, ref, err))


# ---------------------------------------------------------------------------
# verify-snapshots


@dataclass(frozen=True)
class VerifySize:
    # (grid size, snapshots of that size); one round verifies each once
    mix: tuple = ((32, 7), (48, 1))


class VerifySnapshots(Workload):
    """Closed loop, one client: `verify` on stored VXL1 snapshots."""

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.snapshots = []
        for n, count in self.size.mix:
            for _ in range(count):
                u = reference.random_solenoidal(
                    n, rng, k0=rng.uniform(2.5, 4.0),
                    energy=rng.uniform(0.25, 1.0))
                t = float(rng.uniform(0.0, 1.0))
                nu = float(rng.uniform(0.01, 0.05))
                path = self.dir / f"snap_{len(self.snapshots):02d}_n{n}.vxl"
                reference.write_vxl1(path, u, t, nu)
                self.snapshots.append((path, u, t, nu))
        self.order = [int(i) for i in rng.permutation(len(self.snapshots))]
        rc, _ = call_cli(["verify", "--snapshot", self.snapshots[0][0]])
        if rc != 0:
            raise RuntimeError(f"warm-up verify exited {rc}")

    def round(self, tracer):
        for index in self.order:
            path = self.snapshots[index][0]
            if tracer is not None:
                tracer.request = f"verify-{self.attempted}"
            start = now()
            rc, text = call_cli(["verify", "--snapshot", path])
            spent = since(start)
            if not self._attempt(rc):
                continue
            self._served(1, spent, [spent[1]])
            self._problem(f"verify {path.name}",
                          checks.check_verify_report(json.loads(text)))

    def final_checks(self):
        for path, u, t, nu in self.snapshots:
            field, t_read, nu_read = storage.load_field(path)
            self._problem(f"reload {path.name}", checks.check_snapshot_bits(
                field.data, t_read, nu_read, u, t, nu))


# ---------------------------------------------------------------------------
# kernel-lattice


@dataclass(frozen=True)
class KernelSize:
    re: tuple = (10.0, 100.0, 1000.0)
    deltas: tuple = (1e-3, 1e-2, 1e-1)
    samples: int = 20_000


def variable_drift(points):
    """A bounded, non-constant drift: |phi_i| <= 0.8 everywhere."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    return np.stack([0.8 * np.sin(3.0 * x + y), 0.6 * np.cos(2.0 * z),
                     0.7 * np.tanh(5.0 * y)], axis=1)


class KernelLattice(Workload):
    """`kernel` over Re x delta, plus one variable-drift check per Re."""

    def setup(self):
        s = self.size
        cells = [(re, d) for re in s.re for d in s.deltas]
        seeds = np.random.SeedSequence(self.seed).generate_state(
            len(cells) + len(s.re))
        self.cells = [(re, d, int(c)) for (re, d), c in zip(cells, seeds)]
        self.drift_cells = [(re, int(c))
                            for re, c in zip(s.re, seeds[len(cells):])]
        rc, _ = call_cli(self._argv(*self.cells[0]))
        if rc != 0:
            raise RuntimeError(f"warm-up kernel exited {rc}")

    def _argv(self, re, delta, seed):
        return ["kernel", "--re", re, "--delta", delta,
                "--samples", self.size.samples, "--seed", seed]

    def round(self, tracer):
        for re, delta, seed in self.cells:
            if tracer is not None:
                tracer.request = f"cell-{self.attempted}"
            start = now()
            rc, text = call_cli(self._argv(re, delta, seed))
            spent = since(start)
            if not self._attempt(rc):
                continue
            self._served(1, spent, [spent[1]])
            self._problem(f"kernel Re={re} delta={delta}",
                          checks.check_kernel_report(json.loads(text)))
        for re, seed in self.drift_cells:
            drift = variable_drift
            if tracer is not None:
                tracer.request = f"cell-{self.attempted}"
                drift = tracer.wrap_drift(variable_drift)
                self.drift_samples += self.size.samples
            start = now()
            try:
                report = heatkernel.monte_carlo_kernel_check(
                    math.sqrt(re / 2.0), 1e-2, drift,
                    samples=self.size.samples, seed=seed)
                rc = 0
            except ValueError:
                rc = 1
            spent = since(start)
            if not self._attempt(rc):
                continue
            self._served(1, spent, [spent[1]])
            self._problem(f"variable drift Re={re}", checks.check_monte_carlo(
                report.as_dict(), constant=False))


WORKLOADS = {
    "decay-dns": (DecayDNS, DecaySize()),
    "verify-snapshots": (VerifySnapshots, VerifySize()),
    "kernel-lattice": (KernelLattice, KernelSize()),
}
