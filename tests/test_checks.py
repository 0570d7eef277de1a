"""Every clause of a shared acceptance check is applied, and every
registry entry fails under a planted error.

Pinning a check's bounds guards their values, not that each is read:
a clause dropped from a check leaves the other bounds, and on the
default inputs the verdict, unchanged. So each clause case below
patches one input in friedrichs.checks, asserts that exactly its
clauses fail and that the verdict is False, and each planted error
names the clauses of its registry entry that it fails.
"""

import dataclasses
import math

import numpy as np
import pytest

from friedrichs import checks, contour, propagate, sweep
from friedrichs.cli import main


def _failed(chk):
    """The names of chk's failing clauses; a failing clause fails chk."""
    failed = [name for name, c in chk.clauses.items() if not c["pass"]]
    assert chk.ok is (not failed)
    return failed


def _off_eigenbasis(rule):
    return lambda h, p, x, spec: rule(h, p, x, spec) + 1e-6


def _one_ibp_residual_high(suite):
    def planted(*args, **kwargs):
        reports = suite(*args, **kwargs)
        # the last pair: the first is the refinement's 64-node residual
        reports[-1] = dataclasses.replace(reports[-1], residual=2e-6)
        return reports
    return planted


def _refined_as(fine, coarse):
    """verify_ibp that answers fine nodes with the coarse rule's result."""
    def patch(verify):
        def planted(model, tau, quad_order):
            return verify(model, tau, quad_order=coarse if quad_order == fine
                          else quad_order)
        return planted
    return patch


@pytest.mark.parametrize("name, plant, clause", [
    ("tilde_eigenbasis", _off_eigenbasis, "eigenbasis_residual"),
    ("ibp_suite", _one_ibp_residual_high, "ibp_residual"),
    ("verify_ibp", _refined_as(96, 48), "refine_48_96"),
    ("verify_ibp", _refined_as(128, 64), "refine_64_128"),
], ids=["eigenbasis", "ibp", "refine_48", "refine_64"])
def test_each_contour_clause_is_applied(monkeypatch, name, plant, clause):
    monkeypatch.setattr(checks, name, plant(getattr(checks, name)))
    assert _failed(checks.contour_calculus()) == [clause]


class _PhaseAtZeroOfCosine:
    """An asymptotic form whose phase sits where cos vanishes."""

    def phase(self, p):
        return 0.5 * math.pi


def _off_at_zero(bump):
    return lambda p: bump(p) * (1.0 + 1e-5 * (p == 0.0))


@pytest.mark.parametrize("name, plant, failed", [
    ("bump_transform", _off_at_zero, ["transform_at_0"]),
    # with no usable p no ratio is measured, and that fails too
    ("BUMP_ASYMPTOTIC", lambda form: _PhaseAtZeroOfCosine(),
     ["max_abs_cos_phase", "ratio_dev_times_sqrt_p"]),
    ("bump_transform_asymptotic", lambda asym: lambda p: 1.5 * asym(p),
     ["ratio_dev_times_sqrt_p"]),
], ids=["at_0", "usable", "ratio"])
def test_each_bump_clause_is_applied(monkeypatch, name, plant, failed):
    monkeypatch.setattr(checks, name, plant(getattr(checks, name)))
    assert _failed(checks.bump_asymptotics((100.0, 200.0, 400.0))) == failed


def test_no_usable_p_fails_the_ratio_clause():
    # at this p, cos(phase) is 5e-15: no ratio is compared, and the empty
    # list of deviations is nothing measured, which fails like None
    chk = checks.bump_asymptotics((100.75096593908545,))
    assert _failed(chk) == ["max_abs_cos_phase", "ratio_dev_times_sqrt_p"]
    assert "ratio_dev_times_sqrt_p: FAIL [] (max 2)" in chk.lines


@pytest.fixture(scope="module")
def series_128():    # criterion 8's inputs
    return checks.Inputs().series


def _tail_scaled_at(tau, vec_factor, norm_factor):
    def patch(tail):
        def planted(model, t):
            vec, nrm = tail(model, t)
            if t == tau:
                return vec * vec_factor, nrm * norm_factor
            return vec, nrm
        return planted
    return patch


@pytest.mark.parametrize("plant, clause", [
    # the column moves 1e-6 relative; its norm, which the ratios read, not
    (_tail_scaled_at(100.0, 1.0 + 1e-6, 1.0), "column_rel_err"),
    (_tail_scaled_at(2000.0, 1.0, 1.5), "tail_ratios"),
], ids=["column", "ratios"])
def test_each_first_order_clause_is_applied(monkeypatch, series_128, plant,
                                            clause):
    model, series = series_128
    monkeypatch.setattr(checks, "first_order_tail", plant(checks.first_order_tail))
    assert _failed(checks.first_order_closed_form(model, series, 100.0)) == [clause]


def _slope_moved(fit):
    """fit_powerlaw with its slope moved by 0.2."""
    def planted(points):
        result = fit(points)
        return dataclasses.replace(result, slope=result.slope + 0.2)
    return planted


def _flat_decay(defect):
    def planted(model, tau, *args):
        value, norms, batches = defect(model, tau, *args)
        return value * tau ** 0.5, norms, batches
    return planted


def _wrong_parity(series):
    def planted(*args, **kwargs):
        ser = series(*args, **kwargs)
        ser.terms[1][0, 0] = 1e-6 * np.linalg.norm(ser.terms[1])
        return ser
    return planted


def _exponent_low(build):
    """build_form_factor whose k ** (beta - 1/2) is k ** (beta - 0.6)."""
    return lambda grid, beta, *args: dataclasses.replace(
        build(grid, beta - 0.1, *args), beta=beta)


def _overflow_on(n_nodes):
    """_interaction_blocks whose tau = 1000 directions are infinite on a
    grid of n_nodes alone: one of criterion 11's two sweeps errs there."""
    def patch(blocks):
        def planted(model, taus, n_steps):
            forms, clean = blocks(model, taus, n_steps)
            if model.measure.n_nodes != n_nodes:
                return forms, clean
            scale = np.where(np.asarray(taus) == 1000.0, np.inf, 1.0)[:, None]
            return forms, ((start, d * scale) for start, d in clean)
        return planted
    return patch


def _step_change_set(value):
    """_calibrate_steps whose last check reports value as its step change."""
    def patch(calibrate):
        def planted(cfg, cache):
            n, calibration = calibrate(cfg, cache)
            calibration["history"][-1]["rel_change"] = value
            return n, calibration
        return planted
    return patch


_ERRED = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


def _slopes_at(*betas):
    return [f"{name} at beta={beta}" for beta in betas
            for name in ("probe_slope", "window_slope")]


@pytest.mark.parametrize("criterion, module, name, plant, failed", [
    (1, sweep, "fit_powerlaw", _slope_moved, _slopes_at(1.25, 1.5, 1.75)),
    (2, sweep, "fit_powerlaw", _slope_moved, _slopes_at(1.5)),
    (3, sweep, "fit_powerlaw", _slope_moved, _slopes_at(0.5)),
    (3, checks, "_settled_defect", _flat_decay, ["defect_slope"]),
    # a physics mutant: criteria 1, 2 and 4 pass it (probe slope -1.3975
    # at beta = 1.5); only the sub-unit probe slope leaves its band
    (3, sweep, "build_form_factor", _exponent_low, ["probe_slope at beta=0.5"]),
    (4, sweep, "fit_powerlaw", _slope_moved, _slopes_at(1.0)),
    (6, checks, "bump_transform", _off_at_zero, ["transform_at_0"]),
    (7, checks, "wave_operator_series", _wrong_parity, ["parity_defects"]),
    (8, checks, "first_order_tail", _tail_scaled_at(2000.0, 1.0, 1.5),
     ["tail_ratios"]),
    (10, contour, "_IBP_SIGN", lambda sign: -sign,
     ["ibp_residual", "refine_48_96", "refine_64_128"]),
    # the trimmed fit alone: the sweep's own fits keep their slopes
    (11, checks, "fit_powerlaw", _slope_moved, ["trimmed_slope_shift"]),
    # an errored record in one sweep: the grid change is NaN; without it
    # the base sweep (N = 160) leaves three taus, too few for the trimmed fit
    pytest.param(11, propagate, "_interaction_blocks", _overflow_on(320),
                 ["grid_rel_change"], marks=_ERRED),
    pytest.param(11, propagate, "_interaction_blocks", _overflow_on(160),
                 ["grid_rel_change", "trimmed_slope_shift"], marks=_ERRED),
    # the grid change is held to the base sweep's step change: a step
    # change below it, or none measured, fails the grid clause alone
    (11, sweep, "_calibrate_steps", _step_change_set(1e-9), ["grid_rel_change"]),
    (11, sweep, "_calibrate_steps", _step_change_set(None), ["grid_rel_change"]),
], ids=["1", "2", "3-sweep", "3-defect", "3-exponent", "4", "6", "7", "8", "10",
        "11", "11-errored-fine", "11-errored-base", "11-step-below-grid",
        "11-step-unmeasured"])
def test_planted_error_fails_registry_entry(monkeypatch, criterion, module, name,
                                            plant, failed):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    assert _failed(checks.REGISTRY[criterion](checks.Inputs())) == failed


def test_verify_fails_only_the_planted_criterion(monkeypatch, capsys):
    # only criterion 6 reads the bump transform
    monkeypatch.setattr(checks, "bump_transform", _off_at_zero(checks.bump_transform))
    assert main(["verify"]) == 4
    verdicts = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("[criterion")]
    assert verdicts == [f"[criterion {n:2d}] {'FAIL' if n == 6 else 'PASS'}"
                        for n in checks.REGISTRY]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_errored_record_fails_only_its_check(spoil_column, tmp_path, capsys):
    # the middle tau of the default sweep overflows; the other four still
    # fit, calibrate and stay first-order dominant
    spoil_column(1000.0, np.inf)
    inputs = checks.Inputs()
    result = inputs.sweep(1.5)
    assert [name for name, c in result.checks.items() if not c["pass"]] == [
        "errored_records"]
    assert result.checks["errored_records"] == {"value": 1, "max": 0, "pass": False}
    assert _failed(checks.REGISTRY[2](inputs)) == ["errored_records at beta=1.5"]
    assert main(["sweep", "--check", "--out", str(tmp_path)]) == 4
    assert "check errored_records: FAIL 1 (max 0)" in capsys.readouterr().out
