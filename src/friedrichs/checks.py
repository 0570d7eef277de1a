"""Acceptance checks, each defined once, and their registry.

REGISTRY maps each criterion that needs only the package to a function
of no arguments returning its Check: criteria 1-4 (the sweep's own
checks at the default taus, with criterion 3's uniform defect beside
its sweep), 6 (bump-transform asymptotics), 7 (series parity), 8 (the
first-order closed form), 10 (the contour calculus) and 11 (grid,
rerun and fit robustness). `friedrichs verify` prints every entry; the
acceptance tests run the same entries and pin their bounds. Criteria 5
and 9 stay in the tests. Neither the package's __init__ nor sweep
imports this module.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .contour import ContourSpec, ibp_suite, tilde, tilde_eigenbasis, verify_ibp
from .model import (FriedrichsModel, assemble_model, build_form_factor,
                    build_grid, build_switching)
from .oscint import BUMP_ASYMPTOTIC, bump_transform, bump_transform_asymptotic
from .sweep import SweepResult, fit_powerlaw, render_csv, resolve_config, run_sweep
from .volterra import (WaveOperatorSeries, _settled_defect, first_order_tail,
                       wave_operator_series)

__all__ = ["Check", "REGISTRY", "acceptance_sweep",
           "sweep_checks", "uniform_defect", "bump_asymptotics",
           "volterra_series", "series_parity", "first_order_closed_form",
           "tilde_problem", "contour_calculus", "robustness"]

MAX_NODES = 4096    # criterion 1's cap on the continuum grid


@dataclass(frozen=True)
class Check:
    """What a check computed, the bounds it held the values to, its
    verdict, and the lines that report them."""

    values: dict
    bounds: dict
    ok: bool
    lines: list[str]


def acceptance_sweep(beta: float, nodes_per_panel: int = 16) -> SweepResult:
    """The default sweep (its default taus) at beta."""
    return run_sweep(resolve_config({}, beta=beta, nodes_per_panel=nodes_per_panel))


def _number(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def sweep_checks(*betas: float) -> Check:
    """Criteria 1-4's sweep half: the checks the sweep at each beta
    evaluates itself (its slopes, step_calibration and first_order_dominant),
    and that no record errored and the grid has at most MAX_NODES nodes.

    values and bounds are keyed by beta, then by check; a check's bounds
    are the entries of its dict other than value and pass, so they are
    written only where the sweep sets them.
    """
    values, bounds, ok, lines = {}, {}, True, []
    for beta in betas:
        result = acceptance_sweep(beta)
        errored = sum(r.error is not None for r in result.records)
        held = {"n_nodes": {"value": result.n_nodes, "max": MAX_NODES,
                            "pass": result.n_nodes <= MAX_NODES},
                "errored_records": {"value": errored, "max": 0, "pass": errored == 0},
                **result.checks}
        values[beta] = {name: chk["value"] for name, chk in held.items()}
        bounds[beta] = {name: {k: v for k, v in chk.items() if k not in ("value", "pass")}
                        for name, chk in held.items()}
        ok = ok and all(chk["pass"] for chk in held.values())
        lines.append(f"sweep at beta={beta}, {result.calibration['n_steps']} steps:")
        for name, chk in held.items():
            limits = ", ".join(f"{k} {v}" for k, v in bounds[beta][name].items())
            lines.append(f"  {name}: {'PASS' if chk['pass'] else 'FAIL'} "
                         f"{_number(chk['value'])} ({limits})")
    return Check(values, bounds, ok, lines)


def uniform_defect() -> Check:
    """Criterion 3's defect half: sup_s ||1 - Omega(s)|| falls like tau^-beta.

    Without a gap the adiabatic error decays only as a power of tau. On
    the N = 160 grid (1, 20, 8, 2^-20) with beta = 0.5, the defect is
    taken at four taus from 1e2 to 1e4 with 1024 steps each, and the
    slope of log defect against log tau must lie within 0.15 of -0.5.
    values also hold, per tau, the exact norms the defect took and the
    batches that took them.
    """
    bounds = {"slope": -0.5, "slope_tol": 0.15}
    grid = build_grid(1.0, 20, 8, 2.0 ** -20)
    model = assemble_model(grid, build_form_factor(grid, 0.5),
                           build_switching(np.pi / 4))
    taus = np.geomspace(1e2, 1e4, 4)
    defects, norms, batches = zip(*(_settled_defect(model, t, None, 1024)
                                    for t in taus))
    slope = float(np.polyfit(np.log(taus), np.log(defects), 1)[0])
    ok = abs(slope - bounds["slope"]) <= bounds["slope_tol"]
    lines = [f"uniform defect at N={model.measure.n_nodes}, beta=0.5, 1024 steps:"]
    lines += [f"  tau={t:9.2f}: defect {d:.6e} ({n} exact norms in {b} batches)"
              for t, d, n, b in zip(taus, defects, norms, batches)]
    lines.append(f"defect slope {slope:+.4f} (bound {bounds['slope']:+.2f} "
                 f"+- {bounds['slope_tol']})")
    return Check({"taus": taus.tolist(), "defects": list(defects), "slope": slope,
                  "exact_norms": list(norms), "batches": list(batches)},
                 bounds, ok, lines)


def bump_asymptotics(ps=(100.0, 200.0, 400.0)) -> Check:
    """Criterion 6: the bump transform at 0, and its saddle-point form.

    values["rows"] holds (p, transform, asymptotic, |ratio - 1|, bound)
    per p. The deviation is None where |cos(phase)| is at most the cut,
    since near a zero of the cosine the ratio measures nothing; the
    check fails when no p clears the cut.
    """
    bounds = {"transform_at_0": 0.4439938, "at_0_tol": 1e-6,
              "min_abs_cos_phase": 0.3, "ratio_dev_times_sqrt_p": 2.0}
    zero = bump_transform(0.0)
    rows = []
    for p in ps:
        num, asym = bump_transform(p), bump_transform_asymptotic(p)
        used = abs(np.cos(BUMP_ASYMPTOTIC.phase(p))) > bounds["min_abs_cos_phase"]
        rows.append((p, num, asym, abs(num / asym - 1.0) if used else None,
                     bounds["ratio_dev_times_sqrt_p"] / np.sqrt(p)))
    devs = [(dev, bound) for *_, dev, bound in rows if dev is not None]
    ok = (abs(zero - bounds["transform_at_0"]) <= bounds["at_0_tol"]
          and bool(devs) and all(dev <= bound for dev, bound in devs))
    lines = [f"transform at 0: {zero:.10f} (reference {bounds['transform_at_0']})",
             f"{'p':>8} {'numeric':>14} {'asymptotic':>14} {'|ratio-1|':>10} "
             f"{'bound':>8} {'used':>5}"]
    lines += [f"{p:8.1f} {num:14.6e} {asym:14.6e} "
              + (f"{'-':>10} {bound:8.3f}  near-zero, skipped" if dev is None
                 else f"{dev:10.3e} {bound:8.3f}  yes")
              for p, num, asym, dev, bound in rows]
    return Check({"transform_at_0": zero, "rows": rows}, bounds, ok, lines)


def volterra_series(model: FriedrichsModel, tau: float = 100.0) -> WaveOperatorSeries:
    """The series criteria 7 and 8 read: orders 1-4 at s = 1.5."""
    return wave_operator_series(model, tau, max_order=4, quad_order=64, s_eval=1.5)


def series_parity(series: WaveOperatorSeries) -> Check:
    """Criterion 7: the wrong-parity blocks of terms 1-4 vanish."""
    bounds = {"parity_defect": 1e-9}
    defects = series.parity_defects()
    return Check({"parity_defects": defects}, bounds,
                 bool(max(defects) <= bounds["parity_defect"]),
                 [f"wrong-parity defect, order {i}: {d:.3e}"
                  for i, d in enumerate(defects, start=1)])


def first_order_closed_form(model: FriedrichsModel, series: WaveOperatorSeries,
                            tau: float = 100.0) -> Check:
    """Criterion 8: term 1's continuum column is -i times the closed form,
    whose norm falls as tau^-beta: its ratios at tau = 1e3 over 2e3 and
    2e3 over 4e3 lie in a band of multiples of 2^beta."""
    bounds = {"column_rel_err": 1e-8, "ratio_over_2_beta": (0.9, 1.1)}
    vec, nrm = first_order_tail(model, tau)
    rel = float(np.linalg.norm(series.terms[1][1:, 0] - (-1j) * vec)) / max(nrm, 1e-300)
    norms = [first_order_tail(model, t)[1] for t in (1000.0, 2000.0, 4000.0)]
    ratios = [norms[0] / norms[1], norms[1] / norms[2]]
    target = 2.0 ** model.form_factor.beta
    lo, hi = bounds["ratio_over_2_beta"]
    ok = (rel <= bounds["column_rel_err"]
          and all(lo * target <= r <= hi * target for r in ratios))
    lines = [f"first-order column vs closed form: rel err {rel:.3e}"]
    lines += [f"tail norm ratio tau={t}: {r:.4f} (2^beta = {target:.4f})"
              for t, r in zip(("1e3 vs 2e3", "2e3 vs 4e3"), ratios)]
    return Check({"column_rel_err": rel, "ratios": ratios}, bounds, ok, lines)


def tilde_problem(seed: int):
    """(h, p, x): a random 8 x 8 Hermitian h with eigenvalues +-0.1 and six
    in (1, 2), the projection p on the first two, and a random x."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8))
                        + 1j * rng.standard_normal((8, 8)))
    lam = np.concatenate([[-0.1, 0.1], 1.0 + rng.random(6)])
    h = (q * lam) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    p = q[:, :2] @ q[:, :2].conj().T
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return h, p, x


def contour_calculus() -> Check:
    """Criterion 10: the tilde quadrature and the integration-by-parts identity.

    The contour quadrature of tilde_problem(3) matches the eigenbasis
    rule at 64 points (16 and 32 are reported). The identity runs at
    tau = 50 on a gapped N = 32 model: every profile pair of ibp_suite
    at 64 nodes, then two refinements of the default pair. 48 -> 96
    drops the residual by the factor; 64 -> 128 drops it by the factor
    or reaches the floor.
    """
    bounds = {"eigenbasis_residual": 1e-10, "ibp_residual": 1e-6,
              "refinement_drop": 4.0, "refined_floor": 1e-12}
    h, p, x = tilde_problem(3)
    specs = [ContourSpec(center=0.0, radius=0.5, n_points=n) for n in (16, 32, 64)]
    eigen = {spec.n_points: float(np.linalg.norm(
        tilde(h, p, x, spec) - tilde_eigenbasis(h, p, x, spec))) for spec in specs}
    grid = build_grid(1.0, 8, 4, 1e-3)
    model = assemble_model(grid, build_form_factor(grid, 1.5),
                           build_switching(np.pi / 4), gap_shift=1.0)
    suite = ibp_suite(model, 50.0, quad_order=64)
    r48, r96, r128 = (verify_ibp(model, 50.0, quad_order=q).residual
                      for q in (48, 96, 128))
    r64, drop = suite[0].residual, bounds["refinement_drop"]
    ok = (eigen[64] <= bounds["eigenbasis_residual"]
          and all(rep.residual <= bounds["ibp_residual"] for rep in suite)
          and r96 <= r48 / drop
          and (r128 <= r64 / drop or r128 <= bounds["refined_floor"]))
    refinements = {(48, 96): (r48, r96), (64, 128): (r64, r128)}
    lines = [f"eigenbasis-rule residual at n_points={n}: {r:.3e}"
             for n, r in eigen.items()]
    lines.append(f"identity checks at N={model.measure.n_nodes}, tau=50, gap=1:")
    lines += [f"  profile={rep.profile_tag}: residual={rep.residual:.3e} "
              f"sign={rep.sign:+d}" for rep in suite]
    lines += [f"  refinement {q} -> {q2}: {coarse:.3e} -> {fine:.3e}"
              for (q, q2), (coarse, fine) in refinements.items()]
    return Check({"eigenbasis_residuals": eigen, "ibp": suite,
                  "refinements": refinements}, bounds, ok, lines)


def robustness() -> Check:
    """Criterion 11: the beta = 1.5 sweep is robust and deterministic.

    Doubling nodes_per_panel moves every probe and window leak by less
    than 1% relative, a rerun of the same config renders the same CSV
    bytes, and the probe slope fitted without the smallest tau lies
    within 0.05 of the full fit.
    """
    bounds = {"grid_rel_change": 0.01, "trimmed_slope_shift": 0.05}
    base, fine = acceptance_sweep(1.5), acceptance_sweep(1.5, nodes_per_panel=32)
    rel = float(max(abs(getattr(a, name) - getattr(b, name)) / getattr(b, name)
                    for a, b in zip(base.records, fine.records)
                    for name in ("leak_probe", "sup_leak_window")))
    identical = render_csv(base) == render_csv(run_sweep(base.config))
    full = base.fits["leak_probe"]
    shift = math.inf if full is None else abs(full.slope - fit_powerlaw(
        [(r.tau, r.leak_probe) for r in base.records[1:]]).slope)
    ok = (fine.n_nodes == 2 * base.n_nodes and rel < bounds["grid_rel_change"]
          and identical and shift <= bounds["trimmed_slope_shift"])
    lines = [f"node doubling N={base.n_nodes} -> {fine.n_nodes} moves leaks by "
             f"{rel:.2e} (bound < {bounds['grid_rel_change']})",
             f"CSV byte-identical across reruns: {identical}",
             f"probe slope without the smallest tau moves by {shift:.3f} "
             f"(bound {bounds['trimmed_slope_shift']})"]
    return Check({"n_nodes": (base.n_nodes, fine.n_nodes), "grid_rel_change": rel,
                  "csv_identical": identical, "trimmed_slope_shift": shift},
                 bounds, ok, lines)


def _sub_unit_beta() -> Check:
    """Criterion 3: the sweep at beta = 0.5 and, beside it, the uniform defect."""
    sweep, defect = sweep_checks(0.5), uniform_defect()
    return Check({**sweep.values, "defect": defect.values},
                 {**sweep.bounds, "defect": defect.bounds},
                 sweep.ok and defect.ok, sweep.lines + defect.lines)


def _series_inputs() -> tuple[FriedrichsModel, WaveOperatorSeries]:
    """Criteria 7 and 8's model (N = 128, beta = 1.5) and its series."""
    grid = build_grid(1.0, 16, 8, 2.0 ** -16)
    model = assemble_model(grid, build_form_factor(grid, 1.5),
                           build_switching(np.pi / 4))
    return model, volterra_series(model)


#: criterion -> its check; criteria 5 and 9 are the tests' own
REGISTRY: dict[int, Callable[[], Check]] = {
    1: lambda: sweep_checks(1.25, 1.5, 1.75),
    2: lambda: sweep_checks(1.5),
    3: _sub_unit_beta,
    4: lambda: sweep_checks(1.0),
    6: bump_asymptotics,
    7: lambda: series_parity(_series_inputs()[1]),
    8: lambda: first_order_closed_form(*_series_inputs()),
    10: contour_calculus,
    11: robustness,
}
