"""Tiny-size runs of every workload, untraced and traced."""

import pytest

import run
from workloads import DecaySize, KernelSize, VerifySize

SMOKE = {
    "decay-dns": DecaySize(n=16, dt=0.01, output_interval=0.02, t_end=0.04),
    "verify-snapshots": VerifySize(mix=((16, 3), (24, 1))),
    "kernel-lattice": KernelSize(re=(10.0, 1000.0), deltas=(1e-2,),
                                 samples=2000),
}
END_TO_END = {"requests_per_s", "requests_per_cpu_s", "request_cpu_ms_p50",
              "request_cpu_ms_tail", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_untraced_run(name):
    result, problems = run.run_workload(name, 2, 0.01, False,
                                        size=SMOKE[name])
    assert problems == []
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


def test_cold_setup_runs_in_its_own_process():
    assert run.cold_setup("kernel-lattice", 2) > 0


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run(name):
    result, problems = run.run_workload(name, 2, 0.01, True,
                                        size=SMOKE[name])
    assert problems == []
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["cli.self_s"] > 0
    if name == "decay-dns":
        assert metrics["solver.steps"] == 4
        assert metrics["diagnostics.calls"] == 3
        # three diagnoses, then the Q-R histogram of the final state again
        assert metrics["kinematics.invariants_calls"] == 4
        assert metrics["kinematics.invariants_per_velocity"] == 4 / 3
        assert metrics["storage.bytes_written"] > 0
        assert metrics["spectral.fwd_fields"] > 0
    elif name == "verify-snapshots":
        assert metrics["solver.residual_s"] > 0
        assert metrics["identities.s"] > 0
        assert metrics["storage.bytes_read"] > 0
        assert metrics["solver.steps"] == 0
    else:
        assert metrics["heatkernel.mc_s"] > 0
        assert metrics["heatkernel.drift_calls"] > 0
        assert metrics["heatkernel.mc_path_steps_per_s"] > 0
        assert metrics["diagnostics.calls"] == 0
