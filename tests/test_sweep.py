import json
import math
import os
import re
from dataclasses import asdict, replace
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from friedrichs import sweep
from friedrichs.errors import ConfigurationError, FitDomainError
from friedrichs.numutil import format_float17
from friedrichs.propagate import evolve_true
from friedrichs.sweep import (_SETTINGS, CSV_COLUMNS, FitResult,
                              build_model_from_config, clause, config_hash,
                              emit_report, evaluate_checks, fit_powerlaw,
                              load_config_file, load_manifest, render_csv,
                              render_clause, render_svg, resolve_config,
                              run_sweep, slope_checks)

QUICK_TAUS = (100.0, 316.22776601683796, 1000.0, 3162.2776601683795)
DEFAULT_DIGEST = "9ed575ffb37de7eeb9410dc989418a27dc726383150b98b56fae1777237a1253"
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _slopes(probe, window):
    """Fits with the given slopes and nothing else that slope_checks reads."""
    return {name: FitResult(slope=slope, intercept=0.0, slope_stderr=0.0,
                            max_abs_residual=0.0, n_points=5)
            for name, slope in (("leak_probe", probe), ("sup_leak_window", window))}


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

    @pytest.mark.parametrize("tau, value", [
        (np.nan, 1.0), (np.inf, 1.0), (0.0, 1.0), (-100.0, 1.0),
        (100.0, np.nan), (100.0, np.inf)],
        ids=["nan-tau", "inf-tau", "zero-tau", "negative-tau", "nan-value",
             "inf-value"])
    def test_rejects_non_finite_or_nonpositive_points(self, tau, value):
        # each is refused by name, before a log can warn or a NaN slope return
        points = [(10., 1.), (tau, value), (1000., 1.), (1e4, 1.)]
        with pytest.raises(FitDomainError, match="offending") as err:
            fit_powerlaw(points)
        np.testing.assert_array_equal(err.value.offending, [tau])   # NaN == NaN

    def test_rejects_a_single_tau(self):
        # four points at one tau would divide 0 by 0
        with pytest.raises(FitDomainError, match="two distinct taus") as err:
            fit_powerlaw([(100., v) for v in (1., 2., 3., 4.)])
        assert err.value.offending == [100.0] * 4

    def test_rejects_short_series(self):
        with pytest.raises(ConfigurationError):
            fit_powerlaw([(10., 1.), (100., 0.5), (1000., 0.2)])


@pytest.mark.parametrize("value, bounds, passed", [
    (1.0, {"max": 1.0}, True), (1.1, {"max": 1.0}, False),
    (0.3, {"min": 0.3}, True), (0.2, {"min": 0.3}, False),
    ([2.6, 3.0], {"min": 2.5, "max": 3.1}, True),
    ([2.6, 3.2], {"min": 2.5, "max": 3.1}, False),
    (-1.4, {"expected": -1.5, "tol": 0.12}, True),
    (-1.3, {"expected": -1.5, "tol": 0.12}, False),
    (0.004, {"tol": 0.005}, True), (0.006, {"tol": 0.005}, False),
    (None, {"max": 0}, False), (math.nan, {"max": 1.0}, False),
    ([], {"max": 2.0}, False),        # nothing measured, as None
    ([1.0, 0.25], {"drop": 4.0}, True), ([1.0, 0.3], {"drop": 4.0}, False),
    ([1e-13, 1e-13], {"drop": 4.0, "floor": 1e-12}, True),
    ([1e-11, 1e-11], {"drop": 4.0, "floor": 1e-12}, False),
    (1e-6, {"max": None}, False),     # a measured bound that was not measured
])
def test_clause_passes_within_its_bounds(value, bounds, passed):
    # a list passes when each of its numbers does; a drop pair (coarse,
    # fine) when fine falls by the factor or to the floor
    assert clause(value, **bounds) == {"value": value, **bounds, "pass": passed}


def test_render_clause():
    assert render_clause("tail_ratios", clause([2.8284271247, 3], min=2.5, max=3.1)) \
        == "tail_ratios: PASS [2.828427, 3] (min 2.5, max 3.1)"
    assert render_clause("probe_slope", clause(None, expected=-1.5, tol=0.12)) \
        == "probe_slope: FAIL None (expected -1.5, tol 0.12)"


class TestConfig:
    def test_defaults_resolve(self):
        cfg = resolve_config({})
        assert cfg.n_panels == 20
        assert cfg.k_min == 2.0 ** -20
        assert cfg.k_min <= 0.01 / max(cfg.tau_values)
        assert slope_checks(cfg.beta, cfg.gap_shift, _slopes(-1.4, -1.0)) == {
            "probe_slope": {"value": -1.4, "expected": -1.5, "tol": 0.12,
                            "pass": True},
            "window_slope": {"value": -1.0, "expected": -1.0, "tol": 0.15,
                             "pass": True}}

    def test_gapped_auto_checks(self):
        assert slope_checks(1.5, 1.0, _slopes(-2.4, -1.2)) == {
            "probe_slope_max": {"value": -2.4, "max": -2.5, "pass": False},
            "window_slope": {"value": -1.2, "expected": -1.0, "tol": 0.15,
                             "pass": False}}

    def test_sub_unit_beta_auto_checks(self):
        assert slope_checks(0.5, 0.0, {}) == {
            "probe_slope": {"value": None, "expected": -0.5, "tol": 0.10,
                            "pass": False},
            "window_slope": {"value": None, "expected": -0.5, "tol": 0.15,
                             "pass": False}}
        tols = {beta: slope_checks(beta, 0.0, {})["probe_slope"]["tol"]
                for beta in (0.75, 1.0, 1.25)}
        assert tols == {0.75: 0.10, 1.0: 0.15, 1.25: 0.12}

    @pytest.mark.parametrize("taus", [(1000.0,), (100.0, 200.0, 400.0, 800.0)])
    def test_unfittable_taus_have_no_slope_checks(self, taus):
        # a fit needs 4 taus over 1.5 decades; fewer leave no slope to check
        assert evaluate_checks(resolve_config({}, tau_values=taus), [],
                               _slopes(-1.5, -1.0), {"calibrated": False}) == {
            "errored_records": {"value": 0, "max": 0, "pass": True}}

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        # the documented block, inline comments and all, names every
        # declared key in its section and parses to exactly the defaults
        text = open(README, encoding="utf-8").read()
        block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        raw = load_config_file(str(path))
        declared = {}
        for key, setting in _SETTINGS.items():
            declared.setdefault(setting.section, set()).add(key)
        assert {section: set(keys) for section, keys in raw.items()} == declared
        assert resolve_config(raw) == resolve_config({})

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
        assert slope_checks(cfg.beta, cfg.gap_shift, {})["probe_slope"]["expected"] \
            == -1.25

    def test_under_resolved_k_min_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_config({"model": {"k_min": "1e-4", "n_panels": "14"}},
                           tau_values=(100., 1000., 10000., 100000.))

    def test_probe_inside_window_rejected(self):
        # s_probe is retired: a probe inside the window, like any other, is
        # refused as an unknown key
        with pytest.raises(ConfigurationError, match="s_probe"):
            resolve_config({"sweep": {"s_probe": "0.9"}})

    @pytest.mark.parametrize("raw, key", [
        ({"integrate": {"max_step": "0"}}, "max_step"),
        ({"integrate": {"max_step": "-0.5"}}, "max_step"),
        ({"sweep": {"window_samples": "256"}}, "window_samples"),   # retired
        ({"model": {"k_max": "-1"}}, "k_max"),
        ({"model": {"k_max": "0"}}, "k_max"),
        ({"integrate": {"calibrate_rel_tol": "0"}}, "calibrate_rel_tol"),
        ({"integrate": {"drift_tolerance": "-1e-9"}}, "drift_tolerance"),
        ({"sweep": {"tau_values": "100, inf"}}, "tau_values"),
        ({"sweep": {"tau_values": "100, nan"}}, "tau_values"),
        ({"model": {"k_max": "inf"}}, "k_max"),
        ({"integrate": {"max_step": "nan"}}, "max_step"),
        ({"sweep": {"s_probe": "1.5"}}, "s_probe"),                 # retired
        ({"model": {"k_max": "1e308"}}, "k_max"),
        ({"sweep": {"tau_values": "100, 1e307"}}, "tau_values"),
        ({"sweep": {"tau_values": "100, 100, 316.2, 1e3"}}, "tau_values"),
        ({"output": {"formats": ","}}, "formats"),
        ({"output": {"directory": ""}}, "directory"),
        ({"integrate": {"max_step": "5e-324"}}, "max_step"),     # 1 / max_step is inf
        ({"integrate": {"max_step": "1e-300"}}, "max_step")])    # past the step budget
    def test_step_settings_checked_on_resolve(self, raw, key):
        # a retired key, even at its old default, is an unknown key
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
        ({"k_min": 1e-6, "n_panels": 14, "k_max": 1e-6}, "k_max"),
        ({"nodes_per_panel": 2.5}, "nodes_per_panel"),
        ({"k_min": 1e-6, "n_panels": 14.0}, "n_panels"),
        ({"beta": True}, "beta"),
        ({"calibrate": "no"}, "calibrate"),
        ({"max_step": "0.1"}, "max_step"),
        ({"directory": 5}, "directory"),
        ({"jobs": 2.5}, "jobs"),
        ({"tau_values": ("a",)}, "tau_values"),
        ({"tau_values": 100.0}, "tau_values"),
        ({"formats": "csv"}, "formats"),
        # np.asarray would read True as 1.0
        ({"tau_values": (True, 200.0)}, "tau_values")])
    def test_model_inputs_checked_on_resolve(self, overrides, key):
        # every key's rule, applied to typed overrides before anything is built
        with pytest.raises(ConfigurationError, match=f"{key} must"):
            resolve_config({}, **overrides)

    @pytest.mark.parametrize("overrides", [{"k_min": 1e-6}, {"n_panels": 14}],
                             ids=["k_min", "n_panels"])
    def test_grid_ends_set_together(self, overrides):
        with pytest.raises(ConfigurationError,
                           match="k_min and n_panels must both be auto or both explicit"):
            resolve_config({}, **overrides)

    def test_hash_changes_with_content(self):
        a = resolve_config({}, beta=1.5)
        b = resolve_config({}, beta=1.25)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(resolve_config({}, beta=1.5))

    @pytest.mark.parametrize("raw, digest", [
        ({}, DEFAULT_DIGEST),
        ({"model": {"nodes_per_panel": "16"}},
         "a2e3d31dc2a00e0e1dfb0e7d1838f449b9e1a3efeffb32a2d9a940f2d1ac2c97"),
        ({"model": {"beta": "1.25", "nodes_per_panel": "16"}},
         "24204fb548893541761add299fd9721d68f6fc669a57f765c0d5552be4c1c938"),
        ({"model": {"nodes_per_panel": "16"},
          "sweep": {"tau_values": "100, 1000, 10000, 100000"}},
         "38834a47a5e22bd2b249b9e7db22e4ad63a502ab6b5a2ac26db64038f74af072"),
        ({"model": {"nodes_per_panel": "16"}, "integrate": {"max_step": "0.001"}},
         "5e45cdfc036ef478b82e138ff537d0671fec433baed7cb069db5d44eb323e0d5")],
        ids=["default", "default-16-nodes", "model", "sweep", "integrate"])
    def test_hash_pinned(self, raw, digest):
        # a stored config_hash keeps naming its config: the digests of the
        # configs written before the default grid went to 8 nodes per panel
        # hold for the same configs written with nodes_per_panel = 16
        assert config_hash(resolve_config(raw)) == digest

    def test_hash_ignores_run_settings(self):
        assert config_hash(resolve_config({}, jobs=2)) == DEFAULT_DIGEST
        assert config_hash(resolve_config({}, directory="elsewhere",
                                          formats=("svg",))) == DEFAULT_DIGEST
        for key, text in (("directory", "elsewhere"), ("formats", "svg"),
                          ("jobs", "4")):
            assert config_hash(resolve_config({"output": {key: text}})) \
                == DEFAULT_DIGEST


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

    def test_manifest_with_retired_check_keys_refused(self, quick_result,
                                                      tmp_path):
        paths = emit_report(quick_result, formats=("json",), out_dir=str(tmp_path))
        payload = json.loads(open(paths["json"]).read())
        retired = ("probe_slope", "probe_tol", "probe_slope_max",
                   "window_slope", "window_tol")
        payload["config"].update(dict.fromkeys(retired, None))
        with open(paths["json"], "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ConfigurationError,
                           match="config: unknown keys " + ", ".join(sorted(retired))):
            load_manifest(paths["json"])

    def test_reemission_reproduces_csv(self, quick_result, tmp_path):
        paths = emit_report(quick_result, formats=("csv", "json"),
                            out_dir=str(tmp_path / "a"))
        reloaded = load_manifest(paths["json"])
        # a list of formats and a path object are valid arguments too
        again = emit_report(reloaded, formats=["csv"], out_dir=tmp_path / "b")
        assert open(paths["csv"], "rb").read() == open(again["csv"], "rb").read()

    @pytest.mark.parametrize("kwargs, name, rule", [
        ({"formats": (), "out_dir": "x"}, "formats", "formats must be a nonempty list"),
        ({"formats": ("csv",), "out_dir": ""}, "out_dir", "out_dir must be a nonempty path"),
        ({"formats": "csv", "out_dir": "x"}, "formats",
         "formats must be a nonempty list"),
        ({"formats": ("csv",), "out_dir": 5}, "out_dir", "out_dir must be a nonempty path")],
        ids=["kwargs0-formats", "kwargs1-out_dir", "string-formats", "number-out_dir"])
    def test_empty_argument_refused(self, quick_result, tmp_path, monkeypatch,
                                    kwargs, name, rule):
        # empty is not None: the config's formats and directory are not
        # taken in its place, and nothing is written; formats is held to
        # its config key's rule
        monkeypatch.chdir(tmp_path)
        result = replace(quick_result, config=replace(
            quick_result.config, directory=str(tmp_path / "cfgdir")))
        with pytest.raises(ConfigurationError, match=rule):
            emit_report(result, **kwargs)
        assert os.listdir(tmp_path) == []

    def test_unknown_second_format_writes_nothing(self, quick_result, tmp_path):
        # every format is checked before the first file is written
        with pytest.raises(ConfigurationError,
                           match=r"formats must be .*, got \('csv', 'pdf'\)"):
            emit_report(quick_result, formats=("csv", "pdf"),
                        out_dir=str(tmp_path / "out"))
        assert os.listdir(tmp_path) == []

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

    @pytest.fixture(scope="class")
    def unconverged(self):
        # four checks cannot bring the change down to 1e-7
        cfg = resolve_config({}, tau_values=QUICK_TAUS, nodes_per_panel=4,
                             calibrate_rel_tol=1e-7)
        return cfg, run_sweep(cfg)

    def test_unconverged_calibration_fails_its_check(self, unconverged):
        _, result = unconverged
        history = result.calibration["history"]
        assert [h["n_steps"] for h in history] == [2048, 4096, 8192, 16384]
        assert [h["against"] for h in history] == [1024, 2048, 4096, 8192]
        check = result.checks["step_calibration"]
        assert check == {"value": history[-1]["rel_change"], "tol": 1e-7,
                         "pass": False}
        assert check["value"] > 1e-7

    def test_unconverged_calibration_ends_at_eight_times_the_start(
            self, unconverged):
        # the last check compares 8192 with 16384 steps at the end taus,
        # and production runs at 16384
        cfg, result = unconverged
        assert result.calibration["n_steps"] == 16384
        assert [r.n_steps for r in result.records] == [16384] * len(QUICK_TAUS)
        model = build_model_from_config(cfg)
        ends = [QUICK_TAUS[0], QUICK_TAUS[-1]]
        coarse, fine = (np.array([t.leak_at(1.0) for t in evolve_true(
            model, ends, n, cfg.drift_tolerance).trajectories()])
            for n in (8192, 16384))
        rel = float(np.max(np.abs(coarse - fine) /
                           np.maximum(np.abs(fine), 1e-300)))
        assert result.calibration["history"][-1]["rel_change"] == rel

    def test_calibration_stops_at_the_step_budget(self, unconverged, monkeypatch):
        # with a budget of 4096 steps the check at 4096 is the last, though
        # it fails: doubling again would pass the budget
        cfg, _ = unconverged
        monkeypatch.setattr(sweep, "MAX_STEPS", 4096)
        result = run_sweep(cfg)
        assert [h["n_steps"] for h in result.calibration["history"]] == [2048, 4096]
        assert result.calibration["n_steps"] == 4096
        assert not result.checks["step_calibration"]["pass"]

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
            {"taus": [QUICK_TAUS[0], QUICK_TAUS[-1]], "n_steps": 1024}]
        assert result.calibration == quick_result.calibration
        assert render_csv(result) == render_csv(quick_result)

    def test_calibration_batches_feed_production(self, quick_result):
        cal = quick_result.calibration
        assert cal["n_steps"] == 2048
        assert cal["batches"] == [
            {"taus": list(QUICK_TAUS), "n_steps": 2048},
            {"taus": [QUICK_TAUS[0], QUICK_TAUS[-1]], "n_steps": 1024}]
        assert cal["reused_trajectories"] == len(QUICK_TAUS)
        # each record carries its batch's wall time over the batch width
        walls = [r.wall_time_s for r in quick_result.records]
        assert len(set(walls)) == 1 and walls[0] > 0.0
        assert all(line.endswith(",0.0000000000000000e+00")
                   for line in render_csv(quick_result).splitlines()[1:])

    def test_step_counts_are_integers_end_to_end(self):
        # 1 / 2915 is not an exact reciprocal: 1 / (1 / 2915) > 2915, so
        # max_step gives 2916 steps, and the check runs exactly half that
        cfg = resolve_config({}, tau_values=QUICK_TAUS, max_step=1.0 / 2915)
        result = run_sweep(cfg)
        assert result.calibration["n_steps"] == 2916
        assert result.calibration["batches"] == [
            {"taus": list(QUICK_TAUS), "n_steps": 2916},
            {"taus": [QUICK_TAUS[0], QUICK_TAUS[-1]], "n_steps": 1458}]
        assert [r.n_steps for r in result.records] == [2916] * len(QUICK_TAUS)

    def test_odd_step_count_is_checked_against_its_floor_half(self):
        # 1 / 2048.5 gives 2049 steps; the check runs 2049 // 2 = 1024,
        # and production keeps 2049
        cfg = resolve_config({}, tau_values=QUICK_TAUS, max_step=1.0 / 2048.5)
        result = run_sweep(cfg)
        assert [(h["n_steps"], h["against"])
                for h in result.calibration["history"]] == [(2049, 1024)]
        assert result.calibration["batches"] == [
            {"taus": list(QUICK_TAUS), "n_steps": 2049},
            {"taus": [QUICK_TAUS[0], QUICK_TAUS[-1]], "n_steps": 1024}]
        assert [r.n_steps for r in result.records] == [2049] * len(QUICK_TAUS)

    def test_level_below_change_bounds_the_level_above(self):
        # at tau = 100 the default model is second order in the step, so
        # |L_1024 - L_2048| is about 4 times |L_2048 - L_4096|: the check
        # against n // 2 is the stricter one
        model = build_model_from_config(resolve_config({}))
        l1024, l2048, l4096 = (evolve_true(model, 100.0, n).leak_at(1.0)
                               for n in (1024, 2048, 4096))
        assert abs(l1024 - l2048) >= 2.0 * abs(l2048 - l4096) > 0.0

    def test_uncalibrated_manifest_names_its_step_count(self):
        cfg = resolve_config({}, tau_values=QUICK_TAUS, calibrate=False)
        result = run_sweep(cfg)
        assert result.calibration["n_steps"] == 512
        assert [r.n_steps for r in result.records] == [512] * len(QUICK_TAUS)
        assert "step_calibration" not in result.checks

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failed_column_taints_only_its_record(self, quick_result,
                                                 spoil_column):
        # an interior tau, and each end: step calibration compares the ends
        # that stay live at 1024 and 2048 steps, so a failed end too fails
        # only its own record
        model = build_model_from_config(quick_result.config)
        ends = (QUICK_TAUS[0], QUICK_TAUS[-1])
        leaks = {n: dict(zip(ends, (t.leak_at(1.0) for t in evolve_true(
            model, ends, n).trajectories()))) for n in (1024, 2048)}
        for bad_tau in (QUICK_TAUS[1], *ends):
            coarse, fine = (np.array([leaks[n][t] for t in ends if t != bad_tau])
                            for n in (1024, 2048))
            rel = float(np.max(np.abs(coarse - fine) /
                               np.maximum(np.abs(fine), 1e-300)))
            spoil_column(bad_tau, np.inf)
            result = run_sweep(quick_result.config)
            assert result.calibration["history"] == [
                {"n_steps": 2048, "against": 1024, "rel_change": rel}]
            bad = [r for r in result.records if r.error is not None]
            assert [r.tau for r in bad] == [bad_tau]
            assert bad[0].error.startswith("NumericalOverflow")
            for got, want in zip(result.records, quick_result.records):
                if got.tau != bad_tau:
                    assert asdict(got) == {**asdict(want), "wall_time_s": got.wall_time_s}
            assert len(render_csv(result).splitlines()) == len(QUICK_TAUS)
            # the taus are fittable, but three records give no fit: that fails
            assert result.fits == {"leak_probe": None, "sup_leak_window": None}
            assert result.checks["probe_slope"] == {"value": None, "expected": -1.5,
                                                    "tol": 0.12, "pass": False}


@pytest.mark.parametrize("calibrate", [True, False])
def test_refused_taus_raise_not_errored_records(quick_result, calibrate):
    # a tau that breaks its rule is the caller's error, even where it
    # bypassed resolve_config: the whole batch is refused, not recorded
    cfg = replace(quick_result.config, tau_values=(0.0, 100.0), calibrate=calibrate)
    with pytest.raises(ConfigurationError, match="taus must be"):
        run_sweep(cfg)


def _assert_sweep_values(result, want):
    assert [r.tau for r in result.records] == list(want)
    for r in result.records:
        probe, sup = want[r.tau]
        assert abs(r.leak_probe - probe) <= 1e-12 * probe
        assert abs(r.sup_leak_window - sup) <= 1e-12 * sup


def test_default_sweep_values_pinned():
    # leak_probe and sup_leak_window of the default sweep (8 nodes per
    # panel, N = 160) to 17 digits, as the default CSV carries them
    _assert_sweep_values(run_sweep(resolve_config({})), {
        100.0: (0.026214980141569515, 0.05266479355225388),
        316.22776601683796: (0.004703517029812526, 0.015970583134579226),
        1000.0: (0.0008385125677627649, 0.004976530905420877),
        3162.2776601683795: (0.00014922773497767119, 0.0015661321450590746),
        10000.0: (2.6544163494732007e-05, 0.0004944879249547354),
    })


def test_16_node_sweep_values_pinned():
    # the same sweep at 16 nodes per panel (N = 320), the default grid's
    # doubling: its values are those the default sweep gave at 16 nodes
    # per panel, so the integrator is unchanged
    _assert_sweep_values(run_sweep(resolve_config({}, nodes_per_panel=16)), {
        100.0: (0.0262149329782289, 0.05266409654036156),
        316.22776601683796: (0.004703530044980283, 0.01597055537376012),
        1000.0: (0.0008385104185705347, 0.0049765133006192935),
        3162.2776601683795: (0.00014922738787271958, 0.0015661256114159515),
        10000.0: (2.6544189192949808e-05, 0.0004944858759678279),
    })
