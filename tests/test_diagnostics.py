"""Diagnostics records, decay inequalities, histograms and the CSV layer."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import vortexlab as vx
from vortexlab import diagnostics
from vortexlab.diagnostics import OMEGA_FLOOR, csv_header

import oracles


@pytest.fixture(scope="module")
def tg16():
    return vx.initial_condition("taylor_green", vx.Grid(16), re=100.0)


@pytest.fixture(scope="module")
def tg16_record(tg16):
    return vx.diagnose(tg16)


def _short_series(n_records=6, stride=2, dt=0.01):
    st = vx.initial_condition("taylor_green", vx.Grid(16), re=100.0)
    cfg = vx.SolverConfig(dt=dt, t_end=1.0)
    records = [vx.diagnose(st, include_histogram=False)]
    for _ in range(n_records - 1):
        for _ in range(stride):
            st = vx.step(st, cfg)
        records.append(vx.diagnose(st, include_histogram=False))
    return vx.RunSeries(tuple(records), {"ic": "taylor_green", "n": 16})


@pytest.fixture(scope="module")
def series():
    return _short_series()


class TestDiagnose:
    def test_taylor_green_means(self, tg16_record):
        r = tg16_record
        assert r.mean_u2 == pytest.approx(0.25, abs=1e-13)
        assert r.mean_enstrophy == pytest.approx(0.75, abs=1e-12)
        assert r.mean_S2 == pytest.approx(0.375, abs=1e-12)
        assert abs(r.mean_trS3) < 1e-15
        assert abs(r.mean_helicity) < 1e-14

    def test_entropy_functional_composition(self, tg16_record):
        nu = 0.01
        want = tg16_record.mean_abs_omega + tg16_record.mean_u2 / (
            math.sqrt(2.0) * nu)
        assert tg16_record.entropy_functional == pytest.approx(want, rel=1e-14)

    def test_energy_rate_is_twice_nu_enstrophy(self, tg16_record):
        # d<|u|^2>/dt = -2 nu <|omega|^2> holds exactly for dealiased
        # solenoidal fields; the advective and pressure fluxes average out.
        want = -2.0 * 0.01 * tg16_record.mean_enstrophy
        assert tg16_record.d_mean_u2_dt == pytest.approx(want, rel=1e-12)

    def test_q_moments_match_direct_average(self, tg16):
        r = vx.diagnose(tg16, q_list=(1.0, 2.5))
        m = vx.invariants(tg16.u).enstrophy.data + OMEGA_FLOOR
        got = dict(r.mean_abs_omega_q)
        assert got[1.0] == pytest.approx(float(np.mean(m ** 0.5)), rel=1e-13)
        assert got[2.5] == pytest.approx(float(np.mean(m ** 1.25)), rel=1e-13)
        assert r.q_values == (1.0, 2.5)

    def test_q2_moment_equals_enstrophy(self, tg16_record):
        got = dict(tg16_record.mean_abs_omega_q)[2.0]
        assert got == pytest.approx(tg16_record.mean_enstrophy, rel=1e-12)

    def test_abc_stretching_mean_vanishes(self):
        st = vx.initial_condition("abc", vx.Grid(16), nu=0.1)
        r = vx.diagnose(st, include_histogram=False)
        assert abs(r.mean_omega_S_omega) < 1e-13
        assert r.mean_helicity == pytest.approx(3.0, rel=1e-12)
        # Beltrami: enstrophy equals energy density
        assert r.mean_enstrophy == pytest.approx(r.mean_u2, rel=1e-12)

    def test_histogram_toggle(self, tg16):
        without = vx.diagnose(tg16, include_histogram=False)
        assert without.qr_histogram is None
        with_h = vx.diagnose(tg16, histogram_bins=8)
        assert with_h.qr_histogram.total == 16 ** 3
        assert len(with_h.qr_histogram.q_edges) == 9

    @pytest.mark.parametrize("include_histogram", [False, True])
    def test_transform_count(self, fft_fields, include_histogram):
        # samples of u, omega, S (six components), d omega/dt and the two
        # L^q gradients; everything quadratic is summed over coefficients
        st = vx.initial_condition("random_isotropic", vx.Grid(16), seed=3,
                                  re=100.0)
        fft_fields.update(forward=0, inverse=0)
        vx.diagnose(st, include_histogram=include_histogram)
        assert fft_fields["inverse"] <= 21
        assert fft_fields["forward"] <= 5

    def test_zero_state_record(self):
        grid = vx.Grid(8)
        u = vx.VectorField.spectral(
            grid, np.zeros((3,) + grid.spectral_shape, complex))
        r = vx.diagnose(vx.FlowState(u, nu=0.1), include_histogram=False)
        assert r.mean_u2 == 0.0
        assert r.mean_enstrophy == 0.0
        assert r.mean_abs_omega == 0.0
        assert r.entropy_functional == 0.0
        assert r.d_mean_u2_dt == 0.0
        # q-moments sit at the regularization floor, not exactly zero
        assert dict(r.mean_abs_omega_q)[1.0] <= 2.0 * OMEGA_FLOOR ** 0.5
        for _, slack, _ in r.lq_checks:
            assert slack == 0.0


def _evolved(state, steps):
    config = vx.SolverConfig(dt=0.01, t_end=1.0)
    for _ in range(steps):
        state = vx.step(state, config)
    return state


_ORACLE_STATES = {
    "random": lambda g: vx.initial_condition(
        "random_isotropic", g, seed=7, params={"k0": 4.0, "energy": 0.5},
        re=100.0),
    "taylor_green": lambda g: vx.initial_condition("taylor_green", g,
                                                   re=100.0),
    "taylor_green_evolved": lambda g: _evolved(
        vx.initial_condition("taylor_green", g, re=100.0), 10),
    "abc": lambda g: vx.initial_condition("abc", g, nu=0.1),
}


def _edges_agree(got, want):
    """Histogram edges equal to within 1e-12 of their scale."""
    want = np.asarray(want)
    return np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@functools.lru_cache(maxsize=None)
def _oracle_case(name):
    """diagnose's record of one n = 32 state, the (tr A^2, tr A^3) samples
    its histogram binned, and the physical-mean oracle's values."""
    state = _ORACLE_STATES[name](vx.Grid(32))
    samples = []
    histogram2d = np.histogram2d

    def capture(x, y, **kwargs):
        samples.append((x, y))
        return histogram2d(x, y, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "histogram2d", capture)
        record = vx.diagnose(state)
    return record, samples[0], oracles.physical_diagnostics(state)


class TestAgainstPhysicalMeans:
    """diagnose's Parseval sums and trace identities against volume means
    and traces of sampled A, S, omega, their gradients and du/dt."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_STATES))
    def test_every_field(self, name):
        record, _, want = _oracle_case(name)
        for f in dataclasses.fields(record):
            if f.name == "qr_histogram":
                continue
            # the absolute bound is for means that vanish, such as
            # Taylor-Green's <tr S^3> and helicity
            got = np.ravel(getattr(record, f.name))
            assert got == pytest.approx(np.ravel(want[f.name]), rel=1e-12,
                                        abs=1e-15), f.name

    @pytest.mark.parametrize("name", ["random", "taylor_green_evolved"])
    def test_histogram_counts_equal(self, name):
        # after ten steps Taylor-Green's tr A^3 no longer vanishes
        record, _, want = _oracle_case(name)
        hist = record.qr_histogram
        counts, qe, re = np.histogram2d(want["trA2"], want["trA3"],
                                        bins=len(hist.q_edges) - 1)
        assert np.array_equal(np.array(hist.counts), counts)
        assert _edges_agree(hist.q_edges, qe)
        assert _edges_agree(hist.r_edges, re)

    def test_taylor_green_histogram(self):
        # at t = 0 tr A^3 vanishes identically, so its axis bins roundoff
        # and only the tr A^2 marginal is a property of the flow
        record, (_, y), want = _oracle_case("taylor_green")
        hist = record.qr_histogram
        counts, qe, _ = np.histogram2d(want["trA2"], want["trA3"],
                                       bins=len(hist.q_edges) - 1)
        scale = np.abs(want["trA2"]).max() ** 1.5
        assert np.abs(y).max() < 1e-12 * scale
        assert np.abs(want["trA3"]).max() < 1e-12 * scale
        assert np.array_equal(np.array(hist.counts).sum(axis=1),
                              counts.sum(axis=1))
        assert _edges_agree(hist.q_edges, qe)

    def test_abc_histogram_moves_only_edge_points(self):
        # the symmetric lattice puts points exactly on bin edges, where
        # roundoff picks the side
        record, (x, y), want = _oracle_case("abc")
        hist = record.qr_histogram
        bins = len(hist.q_edges) - 1
        _, qe, re = np.histogram2d(want["trA2"], want["trA3"], bins=bins)
        assert _edges_agree(hist.q_edges, qe)
        assert _edges_agree(hist.r_edges, re)

        def bin_of(values, edges):
            index = np.searchsorted(edges, values, side="right") - 1
            return np.clip(index, 0, bins - 1)

        dq = bin_of(x, hist.q_edges) - bin_of(want["trA2"], qe)
        dr = bin_of(y, hist.r_edges) - bin_of(want["trA3"], re)
        assert max(np.abs(dq).max(), np.abs(dr).max()) <= 1
        assert np.count_nonzero(dq | dr) <= 1e-3 * x.size


class TestLqInequality:
    def test_rejects_q_below_one(self, tg16):
        with pytest.raises(ValueError, match="q must be at least 1"):
            vx.lq_inequality_check(tg16, 0.5)

    def test_q1_has_no_gradient_term(self, tg16):
        rep = vx.lq_inequality_check(tg16, 1.0)
        assert rep.gradient_term == 0.0

    def test_q2_terms_against_direct_formulas(self, tg16):
        rep = vx.lq_inequality_check(tg16, 2.0)
        inv = vx.invariants(tg16.u)
        w = vx.vorticity(tg16.u).to_physical().data
        wdot = vx.vorticity(vx.ns_rhs(tg16)).to_physical().data
        d_want = 2.0 * float(np.einsum("i...,i...->...", w, wdot).mean())
        s_want = 2.0 * float(inv.omega_S_omega.data.mean())
        assert rep.derivative == pytest.approx(d_want, rel=1e-12)
        assert rep.stretching_term == pytest.approx(s_want, abs=1e-13)

    def test_slack_composition_and_passed(self, tg16):
        for q in (1.0, 2.0, 3.0):
            rep = vx.lq_inequality_check(tg16, q)
            want = (rep.gradient_term + rep.stretching_term) - rep.derivative
            assert rep.slack == pytest.approx(want, rel=1e-14)
            assert rep.scale >= abs(rep.derivative)
            assert rep.passed == (rep.slack >= -1e-9 * rep.scale)

    def test_holds_along_a_short_run(self):
        st = vx.initial_condition("random_isotropic", vx.Grid(16), seed=13,
                                  params={"k0": 2.0, "energy": 0.2}, re=80.0)
        cfg = vx.SolverConfig(dt=5e-3, t_end=1.0)
        for k in range(30):
            if k % 10 == 0:
                for q in (1.0, 2.0, 3.0):
                    rep = vx.lq_inequality_check(st, q)
                    assert rep.slack >= -1e-9 * rep.scale, (st.t, q, rep)
            st = vx.step(st, cfg)

    def test_transforms_only_the_fields_it_reads(self, fft_fields):
        # |omega|^2 and omega . S omega, not the invariants' gradient fields
        st = vx.initial_condition("random_isotropic", vx.Grid(16), seed=3,
                                  re=100.0)
        fft_fields.update(forward=0, inverse=0)
        vx.lq_inequality_check(st, 2.0)
        assert fft_fields["inverse"] <= 18

    def test_as_dict_round(self, tg16):
        d = vx.lq_inequality_check(tg16, 2.0).as_dict()
        assert set(d) == {"q", "derivative", "gradient_term",
                          "stretching_term", "slack", "scale", "passed"}


class TestQRInvariants:
    def test_bins_validation(self, tg16):
        with pytest.raises(ValueError, match="bins"):
            vx.qr_invariants(tg16, bins=1)

    def test_matches_numpy_histogram(self, tg16):
        # Taylor-Green's lattice puts many tr A^2 samples exactly on bin
        # edges, where roundoff picks the side, and its tr A^3 vanishes
        # identically, so that axis bins roundoff.  So the tr A^2 marginal
        # is held between the bounds that the traces of the sampled A allow
        # to within 1e-12 of their scale, and the R edges must be roundoff.
        qr = vx.qr_invariants(tg16, bins=16)
        inv = vx.invariants(tg16.u)
        x = inv.trA2.data.ravel()
        scale = np.abs(x).max()
        assert np.abs(inv.trA3.data).max() < 1e-12 * scale ** 1.5
        for hist, q in ((qr.traces, x), (qr.conventional, -0.5 * x)):
            _, edges = np.histogram(q, bins=16)
            assert _edges_agree(hist.q_edges, edges)
            counts = np.array(hist.counts).sum(axis=1)
            lo, hi = edges[:-1], edges[1:]
            v, tol = q[:, np.newaxis], 1e-12 * scale
            inside = ((v > lo + tol) & (v < hi - tol)).sum(axis=0)
            near = ((v >= lo - tol) & (v <= hi + tol)).sum(axis=0)
            assert np.all(inside <= counts) and np.all(counts <= near)
            assert np.abs(hist.r_edges).max() < 1e-12 * scale ** 1.5

    def test_matches_numpy_histogram_where_tra3_varies(self):
        st = vx.initial_condition("random_isotropic", vx.Grid(16), seed=3,
                                  re=100.0)
        qr = vx.qr_invariants(st, bins=16)
        inv = vx.invariants(st.u)
        x = inv.trA2.data.ravel()
        y = inv.trA3.data.ravel()
        for hist, (q, r) in ((qr.traces, (x, y)),
                             (qr.conventional, (-0.5 * x, -y / 3.0))):
            counts, qe, re = np.histogram2d(q, r, bins=16)
            assert np.array_equal(np.array(hist.counts), counts.astype(int))
            assert _edges_agree(hist.q_edges, qe)
            assert _edges_agree(hist.r_edges, re)

    def test_transforms_only_s_and_omega(self, tg16, fft_fields):
        fft_fields.update(forward=0, inverse=0)
        vx.qr_invariants(tg16)
        assert fft_fields["inverse"] <= 9
        assert fft_fields["forward"] == 0

    def test_totals_and_dict_shape(self, tg16):
        qr = vx.qr_invariants(tg16, bins=4)
        assert qr.traces.total == 16 ** 3
        assert qr.conventional.total == 16 ** 3
        d = qr.as_dict()
        assert set(d) == {"traces", "conventional_qr"}
        assert len(d["traces"]["counts"]) == 4


class TestRunSeries:
    def test_requires_increasing_times(self, tg16_record):
        import dataclasses
        r2 = dataclasses.replace(tg16_record, t=tg16_record.t)
        with pytest.raises(ValueError, match="strictly increasing"):
            vx.RunSeries((tg16_record, r2))

    def test_requires_uniform_spacing(self, tg16_record):
        import dataclasses
        rs = [dataclasses.replace(tg16_record, t=t) for t in (0.0, 0.1, 0.35)]
        with pytest.raises(ValueError, match="uniform"):
            vx.RunSeries(tuple(rs))

    def test_len_and_manifest(self, series):
        assert len(series) == 6
        assert series.manifest["ic"] == "taylor_green"


class TestEntropyMonotonicity:
    def test_report_on_short_run(self, series):
        rep = vx.entropy_monotonicity_check(series)
        assert rep.samples == 6
        assert rep.violations == 0
        assert rep.max_increase <= rep.tolerance
        assert rep.bound1_min_slack >= -1e-9 * rep.bound_scale
        assert rep.bound2_min_slack >= -1e-9 * rep.bound_scale
        # <|S|^2> = <|omega|^2>/2 makes the Cauchy-Schwarz midpoint exact
        assert rep.bound3_max_relative < 1e-9
        assert rep.passed

    def test_needs_three_samples(self, series):
        with pytest.raises(ValueError, match="at least 3"):
            vx.entropy_monotonicity_check(vx.RunSeries(series.records[:2]))

    def test_as_dict_keys(self, series):
        d = vx.entropy_monotonicity_check(series).as_dict()
        assert d["passed"] is True
        assert d["samples"] == 6


class TestCsvRoundTrip:
    def test_header_layout(self):
        cols = csv_header((1.0, 2.0, 3.0))
        assert cols[0] == "t"
        assert "mean_abs_omega_q1" in cols
        assert "lq_slack_q3" in cols
        assert cols.index("mean_abs_omega_q1") < cols.index("mean_helicity")

    def test_round_trip_exact(self, series, tmp_path):
        path = tmp_path / "series.csv"
        vx.write_series_csv(series, path)
        back = vx.read_series_csv(path, manifest=dict(series.manifest))
        assert len(back) == len(series)
        for a, b in zip(series.records, back.records):
            assert a == b  # float repr round-trips exactly
        assert back.manifest == series.manifest

    def test_write_is_deterministic(self, series, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        vx.write_series_csv(series, p1)
        vx.write_series_csv(series, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_header(self, series, tmp_path):
        path = tmp_path / "series.csv"
        vx.write_series_csv(series, path)
        text = path.read_text().replace("mean_u2", "mean_q2", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="header"):
            vx.read_series_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            vx.read_series_csv(path)
