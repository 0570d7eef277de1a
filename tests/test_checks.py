"""Every clause of a shared acceptance check is applied, and every
registry entry fails under a planted error.

Pinning a check's bounds guards their values, not that each is read:
a clause dropped from a verdict leaves the bounds, and on the default
inputs the verdict, unchanged. So each clause case below patches one
input in friedrichs.checks so that exactly one clause fails, confirms
from the check's values that every other clause still holds, and
asserts that the verdict is False.
"""

import dataclasses
import math

import numpy as np
import pytest

from friedrichs import checks, contour, sweep
from friedrichs.cli import main


def _contour_clauses(chk):
    b, v = chk.bounds, chk.values
    (r48, r96), (r64, r128) = v["refinements"][48, 96], v["refinements"][64, 128]
    return {
        "eigenbasis": v["eigenbasis_residuals"][64] <= b["eigenbasis_residual"],
        "ibp": all(rep.residual <= b["ibp_residual"] for rep in v["ibp"]),
        "refine_48": r96 <= r48 / b["refinement_drop"],
        "refine_64": (r128 <= r64 / b["refinement_drop"]
                      or r128 <= b["refined_floor"]),
    }


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
    ("tilde_eigenbasis", _off_eigenbasis, "eigenbasis"),
    ("ibp_suite", _one_ibp_residual_high, "ibp"),
    ("verify_ibp", _refined_as(96, 48), "refine_48"),
    ("verify_ibp", _refined_as(128, 64), "refine_64"),
], ids=["eigenbasis", "ibp", "refine_48", "refine_64"])
def test_each_contour_clause_is_applied(monkeypatch, name, plant, clause):
    monkeypatch.setattr(checks, name, plant(getattr(checks, name)))
    chk = checks.contour_calculus()
    held = _contour_clauses(chk)
    assert held.pop(clause) is False
    assert all(held.values())
    assert chk.ok is False


def _bump_clauses(chk):
    b, v = chk.bounds, chk.values
    devs = [(dev, bound) for *_, dev, bound in v["rows"] if dev is not None]
    return {
        "at_0": abs(v["transform_at_0"] - b["transform_at_0"]) <= b["at_0_tol"],
        "usable": bool(devs),
        "ratio": all(dev <= bound for dev, bound in devs),
    }


class _PhaseAtZeroOfCosine:
    """An asymptotic form whose phase sits where cos vanishes."""

    def phase(self, p):
        return 0.5 * math.pi


def _off_at_zero(bump):
    return lambda p: bump(p) * (1.0 + 1e-5 * (p == 0.0))


@pytest.mark.parametrize("name, plant, clause", [
    ("bump_transform", _off_at_zero, "at_0"),
    ("BUMP_ASYMPTOTIC", lambda form: _PhaseAtZeroOfCosine(), "usable"),
    ("bump_transform_asymptotic", lambda asym: lambda p: 1.5 * asym(p), "ratio"),
], ids=["at_0", "usable", "ratio"])
def test_each_bump_clause_is_applied(monkeypatch, name, plant, clause):
    monkeypatch.setattr(checks, name, plant(getattr(checks, name)))
    chk = checks.bump_asymptotics((100.0, 200.0, 400.0))
    held = _bump_clauses(chk)
    assert held.pop(clause) is False
    assert all(held.values())
    assert chk.ok is False


@pytest.fixture(scope="module")
def series_128(model_b15_small):    # criterion 8's inputs
    return model_b15_small, checks.volterra_series(model_b15_small, 100.0)


def _first_order_clauses(chk, beta):
    b, v = chk.bounds, chk.values
    lo, hi = b["ratio_over_2_beta"]
    return {
        "column": v["column_rel_err"] <= b["column_rel_err"],
        "ratios": all(lo * 2.0 ** beta <= r <= hi * 2.0 ** beta
                      for r in v["ratios"]),
    }


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
    (_tail_scaled_at(100.0, 1.0 + 1e-6, 1.0), "column"),
    (_tail_scaled_at(2000.0, 1.0, 1.5), "ratios"),
], ids=["column", "ratios"])
def test_each_first_order_clause_is_applied(monkeypatch, series_128, plant,
                                            clause):
    model, series = series_128
    monkeypatch.setattr(checks, "first_order_tail", plant(checks.first_order_tail))
    chk = checks.first_order_closed_form(model, series, 100.0)
    held = _first_order_clauses(chk, model.form_factor.beta)
    assert held.pop(clause) is False
    assert all(held.values())
    assert chk.ok is False


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


@pytest.mark.parametrize("criterion, module, name, plant", [
    (1, sweep, "fit_powerlaw", _slope_moved),
    (2, sweep, "fit_powerlaw", _slope_moved),
    (3, sweep, "fit_powerlaw", _slope_moved),
    (3, checks, "_settled_defect", _flat_decay),
    (4, sweep, "fit_powerlaw", _slope_moved),
    (6, checks, "bump_transform", _off_at_zero),
    (7, checks, "wave_operator_series", _wrong_parity),
    (8, checks, "first_order_tail", _tail_scaled_at(2000.0, 1.0, 1.5)),
    (10, contour, "_IBP_SIGN", lambda sign: -sign),
    # the trimmed fit alone: the sweep's own fits keep their slopes
    (11, checks, "fit_powerlaw", _slope_moved),
], ids=["1", "2", "3-sweep", "3-defect", "4", "6", "7", "8", "10", "11"])
def test_planted_error_fails_registry_entry(monkeypatch, criterion, module, name,
                                            plant):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    assert checks.REGISTRY[criterion]().ok is False


def test_verify_fails_only_the_planted_criterion(monkeypatch, capsys):
    # only criterion 6 reads the bump transform
    monkeypatch.setattr(checks, "bump_transform", _off_at_zero(checks.bump_transform))
    assert main(["verify"]) == 4
    verdicts = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("[criterion")]
    assert verdicts == [f"[criterion {n:2d}] {'FAIL' if n == 6 else 'PASS'}"
                        for n in checks.REGISTRY]
