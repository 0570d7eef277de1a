"""Every clause of a shared acceptance check is applied.

Pinning a check's bounds guards their values, not that each is read:
a clause dropped from a verdict leaves the bounds, and on the default
inputs the verdict, unchanged. So each case below patches one input in
friedrichs.checks so that exactly one clause fails, confirms from the
check's values that every other clause still holds, and asserts that
the verdict is False.
"""

import dataclasses
import math

import pytest

from friedrichs import checks


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
    chk = checks.contour_calculus(3)
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


@pytest.mark.parametrize("name, plant, clause", [
    ("bump_transform",
     lambda bump: lambda p: bump(p) * (1.0 + 1e-5 * (p == 0.0)), "at_0"),
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

