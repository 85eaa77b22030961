"""Span tracing of vortexlab from outside the package, and the per-layer
metrics derived from the spans.

`Tracer.install` replaces every public function of the traced modules with
a wrapper that records one span per call: name, start and end on the
process CPU clock, parent span and request id.  The replacement is made in
every loaded ``vortexlab`` module that holds the function, so calls between
modules (``to_physical`` inside ``solver``, ``p_beta`` inside ``cli``) are
traced too.  Spans stay in memory until the run ends; nothing inside the
program is edited.

Span durations in the metrics are CPU seconds of the whole process (all
threads), as are the benchmark's end-to-end times except `requests_per_s`
(see README.md).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import statistics
import sys
import time

MODULES = ("spectral", "kinematics", "identities", "solver", "diagnostics",
           "heatkernel", "storage", "cli")

# fields: name, CPU start, CPU end, parent index (-1 for none), request id,
# attrs
NAME, START, END, PARENT, REQUEST, ATTRS = range(6)
FIELDS = ("name", "cpu_start", "cpu_end", "parent", "request", "attrs")


def _public_functions(module):
    for name, value in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield name, value


def _to_spectral_attrs(args, kwargs, result):
    grid, values = args[0], args[1]
    return {"fields": values.size // grid.n ** 3,
            "bytes": values.nbytes + result.nbytes}


def _to_physical_attrs(args, kwargs, result):
    grid, coeffs = args[0], args[1]
    return {"fields": coeffs.size // (grid.n * grid.n * (grid.n // 2 + 1)),
            "bytes": coeffs.nbytes + result.nbytes}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _p_beta_attrs(args, kwargs, result):
    return {"method": kwargs.get("method",
                                 args[4] if len(args) > 4 else "closed")}


def _mc_attrs(args, kwargs, result):
    return {"samples": result.samples}


# attributes recorded after the call returns, so they are not inside the
# span; keyed by "<module>.<function>"
_ATTRS = {
    "spectral.to_spectral": _to_spectral_attrs,
    "spectral.to_physical": _to_physical_attrs,
    "storage.save_field": _file_bytes,
    "storage.load_field": _file_bytes,
    "storage.write_manifest": _file_bytes,
    "storage.read_manifest": _file_bytes,
    "heatkernel.p_beta": _p_beta_attrs,
    "heatkernel.monte_carlo_kernel_check": _mc_attrs,
}


def _velocity_digest(u):
    return hashlib.blake2b(memoryview(u.data), digest_size=16).hexdigest()


class Tracer:
    """Collects spans while installed; `uninstall` restores the program."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self.drift_calls = 0
        self.drift_rows = 0

    # -- installation ------------------------------------------------------
    def install(self):
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"vortexlab.{short}"]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == "vortexlab"
                                        or key.startswith("vortexlab."))]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, qualname, fn):
        spans = self.spans
        stack = self._stack
        attrs_fn = _ATTRS.get(qualname)
        digest = qualname == "kinematics.invariants"
        cpu = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = {"velocity": _velocity_digest(args[0])} if digest else None
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, extra]
            stack.append(len(spans))
            spans.append(span)
            span[START] = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = cpu()
                stack.pop()
            if attrs_fn is not None:
                span[ATTRS] = attrs_fn(args, kwargs, result)
            return result

        return wrapper

    def wrap_drift(self, drift):
        """Count the calls to, and rows through, a drift callable."""

        def counted(points):
            self.drift_calls += 1
            self.drift_rows += len(points)
            return drift(points)

        return counted

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _children(spans):
    kids = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(index)
    return kids


def _duration(span):
    return span[END] - span[START]


def _median(values):
    return statistics.median(values) if values else 0.0


class SpanIndex:
    """Queries over one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.kids = _children(spans)

    def named(self, *names):
        return [i for i, s in enumerate(self.spans) if s[NAME] in names]

    def module(self, short):
        prefix = short + "."
        return [i for i, s in enumerate(self.spans)
                if s[NAME].startswith(prefix)]

    def self_time(self, index):
        return _duration(self.spans[index]) - sum(
            _duration(self.spans[k]) for k in self.kids[index])

    def outermost(self, indices):
        """Drop spans nested inside another span of the same set."""
        chosen = set(indices)
        out = []
        for i in indices:
            p = self.spans[i][PARENT]
            while p >= 0 and p not in chosen:
                p = self.spans[p][PARENT]
            if p < 0:
                out.append(i)
        return out

    def total(self, indices):
        return sum(_duration(self.spans[i]) for i in self.outermost(indices))

    def covered(self, index, names):
        """Time of the outermost descendants of `index` named in `names`."""
        time_in = 0.0
        todo = list(self.kids[index])
        while todo:
            k = todo.pop()
            if self.spans[k][NAME] in names:
                time_in += _duration(self.spans[k])
            else:
                todo.extend(self.kids[k])
        return time_in


TRANSFORMS = ("spectral.to_spectral", "spectral.to_physical")
PROPAGATOR = ("heatkernel.short_time_vorticity_step",
              "heatkernel.exact_linear_vorticity_step")


def layer_metrics(tracer, plain, traced, drift_samples):
    """Per-layer metrics, as totals per traced round unless named as a
    median.  `plain` and `traced` are the CPU times of the untraced and
    traced rounds; their medians give the tracing overhead.

    `drift_samples` is the number of paths sampled with the benchmark's
    drift callable; with the rows that passed through it, it gives the
    Euler-Maruyama step count per path, which turns the samples of every
    Monte Carlo call into path-steps.
    """
    ix = SpanIndex(tracer.spans)
    sp = ix.spans
    per = 1.0 / len(traced)

    def attr_sum(indices, key):
        # a call that raised has no attributes
        return sum(sp[i][ATTRS][key] for i in indices if sp[i][ATTRS])

    fwd = ix.named("spectral.to_spectral")
    inv = ix.named("spectral.to_physical")
    steps = ix.named("solver.step")
    diag = ix.named("diagnostics.diagnose")
    invariants = ix.named("kinematics.invariants")
    velocities = {(sp[i][REQUEST], sp[i][ATTRS]["velocity"])
                  for i in invariants}
    ident = ix.module("identities")
    mc = ix.named("heatkernel.monte_carlo_kernel_check")
    mc_s = ix.total(mc)
    em_steps = round(tracer.drift_rows / drift_samples) if drift_samples else 0
    path_steps = attr_sum(mc, "samples") * em_steps
    quad = [i for i in ix.named("heatkernel.p_beta")
            if sp[i][ATTRS] and sp[i][ATTRS]["method"] == "quadrature"]
    saves = ix.named("storage.save_field")
    loads = ix.named("storage.load_field")
    writes = ix.named("storage.save_field", "storage.write_manifest")
    reads = ix.named("storage.load_field", "storage.read_manifest")
    cli = ix.module("cli")

    return {
        "spectral.fwd_fields": (attr_sum(fwd, "fields") * per, "count"),
        "spectral.inv_fields": (attr_sum(inv, "fields") * per, "count"),
        "spectral.fft_s": (ix.total(fwd + inv) * per, "s"),
        "spectral.fft_gb": (attr_sum(fwd + inv, "bytes") * per / 1e9, "GB"),
        "solver.steps": (len(steps) * per, "count"),
        "solver.step_ms": (1e3 * _median(
            [_duration(sp[i]) for i in steps]), "ms"),
        "solver.step_self_ms": (1e3 * _median(
            [_duration(sp[i]) - ix.covered(i, TRANSFORMS) for i in steps]),
            "ms"),
        "solver.residual_s": (
            ix.total(ix.named("solver.evolution_residual")) * per, "s"),
        "diagnostics.calls": (len(diag) * per, "count"),
        "diagnostics.diagnose_ms": (1e3 * _median(
            [_duration(sp[i]) for i in diag]), "ms"),
        "diagnostics.diagnose_self_ms": (1e3 * _median(
            [ix.self_time(i) for i in diag]), "ms"),
        "kinematics.invariants_calls": (len(invariants) * per, "count"),
        "kinematics.invariants_per_velocity": (
            len(invariants) / len(velocities) if velocities else 0.0,
            "ratio"),
        "identities.s": (ix.total(ident) * per, "s"),
        "identities.self_s": (sum(ix.self_time(i) for i in ident) * per, "s"),
        "heatkernel.mc_s": (mc_s * per, "s"),
        "heatkernel.mc_path_steps_per_s": (
            path_steps / mc_s if mc_s > 0 else 0.0, "path-steps/s"),
        "heatkernel.drift_calls": (tracer.drift_calls * per, "count"),
        "heatkernel.bounds_s": (
            ix.total(ix.named("heatkernel.kernel_bounds_check")) * per, "s"),
        "heatkernel.quadrature_s": (ix.total(quad) * per, "s"),
        "heatkernel.propagator_s": (ix.total(ix.named(*PROPAGATOR)) * per,
                                    "s"),
        "storage.save_ms": (1e3 * _median(
            [_duration(sp[i]) for i in saves]), "ms"),
        "storage.load_ms": (1e3 * _median(
            [_duration(sp[i]) for i in loads]), "ms"),
        "storage.bytes_written": (attr_sum(writes, "bytes") * per, "bytes"),
        "storage.bytes_read": (attr_sum(reads, "bytes") * per, "bytes"),
        "cli.self_s": (sum(ix.self_time(i) for i in cli) * per, "s"),
        "trace.overhead_pct": (100.0 * (_median(traced) / _median(plain)
                                        - 1.0), "%"),
    }
