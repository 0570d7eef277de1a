import json
import math
from dataclasses import replace
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from friedrichs.errors import ConfigurationError, FitDomainError
from friedrichs.numutil import format_float17
from friedrichs.sweep import (CSV_COLUMNS, config_hash, emit_report,
                              fit_powerlaw, load_config_file, load_manifest,
                              render_csv, render_svg, resolve_config, run_sweep)

QUICK_TAUS = (100.0, 316.22776601683796, 1000.0, 3162.2776601683795)


@pytest.fixture(scope="module")
def quick_result():
    cfg = resolve_config({}, tau_values=QUICK_TAUS, formats=("csv", "json", "svg"))
    return run_sweep(cfg)


class TestFit:
    def test_exact_power_law(self):
        taus = np.geomspace(10, 1e4, 8)
        fit = fit_powerlaw([(t, 3.0 * t ** -1.5) for t in taus])
        assert abs(fit.slope + 1.5) <= 1e-12
        assert abs(fit.intercept - math.log(3.0)) <= 1e-12
        assert fit.max_abs_residual <= 1e-13
        assert fit.slope_stderr <= 1e-13

    def test_constant_series(self):
        fit = fit_powerlaw([(t, 0.7) for t in (10., 100., 1000., 10000.)])
        assert abs(fit.slope) <= 1e-12

    def test_logarithmic_correction_slope(self):
        # independent regression of ln(tau)/tau over two decades
        taus = np.geomspace(1e2, 1e4, 12)
        fit = fit_powerlaw([(t, math.log(t) / t) for t in taus])
        x = np.log(taus)
        y = np.log(np.log(taus) / taus)
        ref_slope = np.polyfit(x, y, 1)[0]
        assert abs(fit.slope - ref_slope) <= 1e-12
        assert -1.0 < fit.slope < -0.85

    def test_rejects_nonpositive_values(self):
        with pytest.raises(FitDomainError) as err:
            fit_powerlaw([(10., 1.), (100., 0.0), (1000., 1.), (1e4, 1.)])
        assert err.value.offending == [100.0]

    def test_rejects_short_series(self):
        with pytest.raises(ConfigurationError):
            fit_powerlaw([(10., 1.), (100., 0.5), (1000., 0.2)])


class TestConfig:
    def test_defaults_resolve(self):
        cfg = resolve_config({})
        assert cfg.n_panels == 20
        assert cfg.k_min == 2.0 ** -20
        assert cfg.k_min <= 0.01 / max(cfg.tau_values)
        assert cfg.probe_slope == -1.5 and cfg.probe_slope_max is None

    def test_gapped_auto_checks(self):
        cfg = resolve_config({}, gap_shift=1.0, tau_values=(100., 200., 400., 1000.))
        assert cfg.probe_slope is None
        assert cfg.probe_slope_max == -2.5
        assert cfg.window_slope == -1.0

    def test_sub_unit_beta_auto_checks(self):
        cfg = resolve_config({}, beta=0.5)
        assert cfg.probe_slope == -0.5 and cfg.probe_tol == 0.10
        assert cfg.window_slope == -0.5

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[model]\nbeta = 1.5\nfrobnicate = 3\n")
        with pytest.raises(ConfigurationError):
            load_config_file(str(p))

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigurationError):
            load_config_file(str(p))

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("[model]\nbeta = 1.25\ngap_shift = 0\n"
                     "[sweep]\ntau_values = 100, 1000, 10000, 100000\n"
                     "[output]\nformats = csv\n")
        cfg = resolve_config(load_config_file(str(p)))
        assert cfg.beta == 1.25
        assert cfg.tau_values == (100.0, 1000.0, 10000.0, 100000.0)
        assert cfg.formats == ("csv",)
        assert cfg.probe_slope == -1.25

    def test_under_resolved_k_min_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_config({"model": {"k_min": "1e-4", "n_panels": "14"}},
                           tau_values=(100., 1000., 10000., 100000.))

    def test_probe_inside_window_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_config({"sweep": {"s_probe": "0.9"}})

    @pytest.mark.parametrize("raw, key", [
        ({"integrate": {"max_step": "0"}}, "max_step"),
        ({"integrate": {"max_step": "-0.5"}}, "max_step"),
        ({"sweep": {"window_samples": "1"}}, "window_samples"),
        ({"model": {"k_max": "-1"}}, "k_max"),
        ({"model": {"k_max": "0"}}, "k_max"),
        ({"integrate": {"calibrate_rel_tol": "0"}}, "calibrate_rel_tol"),
        ({"integrate": {"drift_tolerance": "-1e-9"}}, "drift_tolerance"),
        ({"sweep": {"tau_values": "100, inf"}}, "tau_values"),
        ({"sweep": {"tau_values": "100, nan"}}, "tau_values"),
        ({"model": {"k_max": "inf"}}, "k_max"),
        ({"integrate": {"max_step": "nan"}}, "max_step"),
        ({"sweep": {"s_probe": "nan"}}, "s_probe"),
        ({"model": {"k_max": "1e308"}}, "k_max"),
        ({"sweep": {"tau_values": "100, 1e307"}}, "tau_values"),
        ({"sweep": {"tau_values": "100, 100, 316.2, 1e3"}}, "tau_values")])
    def test_step_settings_checked_on_resolve(self, raw, key):
        with pytest.raises(ConfigurationError, match=key):
            resolve_config(raw)

    @pytest.mark.parametrize("overrides, key", [
        ({"beta": 0.0}, "beta"), ({"beta": -1.5}, "beta"),
        ({"theta_total": 0.0}, "theta_total"), ({"gap_shift": -0.1}, "gap_shift"),
        ({"nodes_per_panel": 1}, "nodes_per_panel"),
        ({"cutoff_fraction": 0.0}, "cutoff_fraction"),
        ({"cutoff_fraction": 1.0}, "cutoff_fraction"),
        ({"cutoff_fraction": 1.5}, "cutoff_fraction"),
        ({"k_min": -1e-6, "n_panels": 14}, "k_min"),
        ({"k_min": 1e-6, "n_panels": 0}, "n_panels"),
        ({"k_min": 1e-6, "n_panels": 14, "k_max": 1e-7}, "k_max"),
        ({"k_min": 1e-6, "n_panels": 14, "k_max": 1e-6}, "k_max")])
    def test_model_inputs_checked_on_resolve(self, overrides, key):
        # the model's own input rules, applied before any model is built
        with pytest.raises(ConfigurationError, match=f"{key} must"):
            resolve_config({}, **overrides)

    def test_hash_changes_with_content(self):
        a = resolve_config({}, beta=1.5)
        b = resolve_config({}, beta=1.25)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(resolve_config({}, beta=1.5))

    def test_hash_ignores_run_settings(self):
        base = config_hash(resolve_config({}, jobs=1))
        assert config_hash(resolve_config({}, jobs=2)) == base
        assert config_hash(resolve_config({}, directory="elsewhere",
                                          formats=("svg",))) == base


class TestOutputs:
    def test_csv_round_trip_bit_exact(self, quick_result):
        text = render_csv(quick_result)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        for line, rec in zip(lines[1:], quick_result.records):
            fields = line.split(",")
            assert float(fields[0]) == rec.tau
            assert float(fields[2]) == rec.leak_probe
            assert float(fields[3]) == rec.sup_leak_window
            assert float(fields[8]) == rec.unitarity_drift
            assert fields[6] == str(quick_result.n_nodes)

    def test_float_formatting_round_trips(self):
        for x in (1.0 / 3.0, 2.654418960326e-05, 1e-300, math.pi):
            assert float(format_float17(x)) == x

    def test_manifest_hash_recomputes(self, quick_result, tmp_path):
        paths = emit_report(quick_result, formats=("json",),
                            out_dir=str(tmp_path))
        payload = json.loads(open(paths["json"]).read())
        reloaded = load_manifest(paths["json"])
        assert payload["config_hash"] == config_hash(reloaded.config)

    def test_svg_well_formed_with_polylines(self, quick_result):
        svg = render_svg(quick_result)
        root = ET.fromstring(svg)
        polylines = [el for el in root.iter()
                     if el.tag.endswith("polyline")]
        assert len(polylines) == 4  # two data series + two fitted lines

    def test_reemission_reproduces_csv(self, quick_result, tmp_path):
        paths = emit_report(quick_result, formats=("csv", "json"),
                            out_dir=str(tmp_path / "a"))
        reloaded = load_manifest(paths["json"])
        again = emit_report(reloaded, formats=("csv",),
                            out_dir=str(tmp_path / "b"))
        assert open(paths["csv"], "rb").read() == open(again["csv"], "rb").read()

    def test_unwritable_directory_raises(self, quick_result):
        with pytest.raises(OSError):
            emit_report(quick_result, formats=("csv",),
                        out_dir="/proc/definitely/not/writable")


class TestRunSweep:
    def test_records_ordered_and_complete(self, quick_result):
        taus = [r.tau for r in quick_result.records]
        assert taus == sorted(taus)
        assert len(taus) == len(QUICK_TAUS)
        assert all(r.error is None for r in quick_result.records)
        assert all(r.unitarity_drift <= 1e-9 for r in quick_result.records)

    def test_fits_present_and_sane(self, quick_result):
        fit = quick_result.fits["leak_probe"]
        assert fit is not None
        assert abs(fit.slope + 1.5) <= 0.12
        assert quick_result.checks["probe_slope"]["pass"]

    def test_converged_calibration_passes_its_check(self, quick_result):
        rel = quick_result.calibration["history"][-1]["rel_change"]
        assert quick_result.checks["step_calibration"] == {
            "value": rel, "tol": 0.005, "pass": True}

    def test_unconverged_calibration_fails_its_check(self):
        # three halvings cannot bring the change down to 1e-7
        cfg = resolve_config({}, tau_values=QUICK_TAUS, nodes_per_panel=4,
                             calibrate_rel_tol=1e-7)
        result = run_sweep(cfg)
        history = result.calibration["history"]
        assert [h["n_steps"] for h in history] == [2048, 4096, 8192]
        check = result.checks["step_calibration"]
        assert check == {"value": history[-1]["rel_change"], "tol": 1e-7,
                         "pass": False}
        assert check["value"] > 1e-7

    def test_leak_decays_monotonically(self, quick_result):
        # the adiabatic limit is approached: no lower plateau in tau
        probes = [r.leak_probe for r in quick_result.records]
        assert all(a > b for a, b in zip(probes, probes[1:]))

    def test_jobs_changes_nothing(self, quick_result):
        # jobs is accepted for compatibility; every missing tau still runs
        # in one batch in this process
        result = run_sweep(replace(quick_result.config, jobs=3))
        assert result.calibration["batches"] == [
            {"taus": list(QUICK_TAUS), "n_steps": 2048},
            {"taus": [QUICK_TAUS[0], QUICK_TAUS[-1]], "n_steps": 4096}]
        assert result.calibration == quick_result.calibration
        assert render_csv(result) == render_csv(quick_result)

    def test_calibration_batches_feed_production(self, quick_result):
        cal = quick_result.calibration
        assert cal["n_steps"] == 2048
        assert cal["batches"] == [
            {"taus": list(QUICK_TAUS), "n_steps": 2048},
            {"taus": [QUICK_TAUS[0], QUICK_TAUS[-1]], "n_steps": 4096}]
        assert cal["reused_trajectories"] == len(QUICK_TAUS)
        # each record carries its batch's wall time over the batch width
        walls = [r.wall_time_s for r in quick_result.records]
        assert len(set(walls)) == 1 and walls[0] > 0.0
        assert all(line.endswith(",0.0000000000000000e+00")
                   for line in render_csv(quick_result).splitlines()[1:])

    def test_step_counts_are_integers_end_to_end(self):
        # 2915 steps is not an exact reciprocal: 1 / (1 / 2915) > 2915
        cfg = resolve_config({}, tau_values=QUICK_TAUS, window_samples=2915)
        result = run_sweep(cfg)
        assert result.calibration["n_steps"] == 2915
        assert result.calibration["batches"] == [
            {"taus": list(QUICK_TAUS), "n_steps": 2915},
            {"taus": [QUICK_TAUS[0], QUICK_TAUS[-1]], "n_steps": 5830}]
        assert [r.n_steps for r in result.records] == [2915] * len(QUICK_TAUS)

    def test_uncalibrated_manifest_names_its_step_count(self):
        cfg = resolve_config({}, tau_values=QUICK_TAUS, calibrate=False)
        result = run_sweep(cfg)
        assert result.calibration["n_steps"] == 512
        assert [r.n_steps for r in result.records] == [512] * len(QUICK_TAUS)
        assert "step_calibration" not in result.checks

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failed_column_taints_only_its_record(self, quick_result,
                                                 spoil_column):
        bad_tau = QUICK_TAUS[1]
        spoil_column(bad_tau, np.inf)
        result = run_sweep(quick_result.config)
        bad = [r for r in result.records if r.error is not None]
        assert [r.tau for r in bad] == [bad_tau]
        assert bad[0].error.startswith("NumericalOverflow")
        for got, want in zip(result.records, quick_result.records):
            if got.tau != bad_tau:
                assert (got.leak_probe, got.sup_leak_window, got.unitarity_drift) \
                    == (want.leak_probe, want.sup_leak_window, want.unitarity_drift)
        assert len(render_csv(result).splitlines()) == len(QUICK_TAUS)
