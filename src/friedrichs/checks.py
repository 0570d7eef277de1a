"""Acceptance checks, each defined once, and their registry.

REGISTRY maps each criterion that needs only the package to a function
of one run's Inputs returning its Check: criteria 1-4 (the sweep's own
checks at the default taus, with criterion 3's uniform defect beside
its sweep), 6 (bump-transform asymptotics), 7 (series parity), 8 (the
first-order closed form), 10 (the contour calculus) and 11 (grid,
rerun and fit robustness). A Check is named clauses in the shape the
sweep writes (sweep.clause), which pass together, plus report-only
notes. `friedrichs verify` prints every entry; the acceptance tests run
the same entries and pin their bounds. Criteria 5 and 9 stay in the
tests. Neither the package's __init__ nor sweep imports this module.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contour import ContourSpec, ibp_suite, tilde, tilde_eigenbasis, verify_ibp
from .model import (FriedrichsModel, assemble_model, build_form_factor,
                    build_grid, build_switching)
from .oscint import BUMP_ASYMPTOTIC, bump_transform, bump_transform_asymptotic
from .sweep import (SweepResult, _fittable, clause, fit_powerlaw, render_clause,
                    render_csv, resolve_config, run_sweep)
from .volterra import (WaveOperatorSeries, _settled_defect, first_order_tail,
                       wave_operator_series)

__all__ = ["Check", "Inputs", "REGISTRY",
           "sweep_checks", "uniform_defect", "bump_asymptotics",
           "node_doubling",
           "series_parity", "first_order_closed_form",
           "tilde_problem", "contour_calculus", "robustness"]

MAX_NODES = 4096    # criterion 1's cap on the continuum grid


@dataclass(frozen=True)
class Check:
    """Named clauses (sweep.clause records) and report-only notes, from
    which the verdict, the bounds and the report lines follow."""

    clauses: dict
    notes: Sequence[str] = ()

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.clauses.values())

    @property
    def bounds(self) -> dict:
        return {name: {k: v for k, v in c.items() if k not in ("value", "pass")}
                for name, c in self.clauses.items()}

    @property
    def lines(self) -> list[str]:
        return [render_clause(name, c) for name, c in self.clauses.items()] \
            + list(self.notes)


class Inputs:
    """What several entries read, each made once, on its first request:
    the default sweeps and criteria 7-8's series. There is no module-level
    cache: a run, or a test that patches what these call, makes its own."""

    def __init__(self):
        self._sweeps = {}

    def sweep(self, beta: float, **grid) -> SweepResult:
        """The sweep at its default taus and beta, on the default grid
        unless grid overrides its keys (nodes_per_panel, k_min, n_panels)."""
        cfg = resolve_config({}, beta=beta, **grid)
        if cfg not in self._sweeps:
            self._sweeps[cfg] = run_sweep(cfg)
        return self._sweeps[cfg]

    def refined(self, beta: float) -> tuple[SweepResult, SweepResult]:
        """The default sweep at beta and its refinement: twice the nodes
        per panel, so twice the Jacobi panel's too, and the bottom one
        panel lower (k_min / 2 and n_panels + 1)."""
        base = self.sweep(beta)
        cfg = base.config
        return base, self.sweep(beta, nodes_per_panel=2 * cfg.nodes_per_panel,
                                k_min=cfg.k_min / 2.0, n_panels=cfg.n_panels + 1)

    @cached_property
    def series(self) -> tuple[FriedrichsModel, WaveOperatorSeries]:
        """Criteria 7 and 8's model (N = 128, beta = 1.5) and its series:
        orders 1-4 at tau = 100 and s = 1.5."""
        grid = build_grid(1.0, 16, 8, 2.0 ** -16)
        model = assemble_model(grid, build_form_factor(grid, 1.5),
                               build_switching(np.pi / 4))
        return model, wave_operator_series(model, 100.0, max_order=4,
                                           quad_order=64, s_eval=1.5)


def sweep_checks(inputs: Inputs, *betas: float) -> Check:
    """Criteria 1-4's sweep half: at each beta, on the default grid, the
    checks the sweep evaluates itself (sweep.evaluate_checks) and that
    its grid has at most MAX_NODES nodes, each clause named with its beta."""
    clauses, notes = {}, []
    for beta in betas:
        result = inputs.sweep(beta)
        held = {"n_nodes": clause(result.n_nodes, max=MAX_NODES), **result.checks}
        clauses.update({f"{name} at beta={beta}": c for name, c in held.items()})
        notes.append(f"sweep at beta={beta}: {result.calibration['n_steps']} steps")
    return Check(clauses, notes)


def uniform_defect() -> Check:
    """Criterion 3's defect half: sup_s ||1 - Omega(s)|| falls like tau^-beta.

    Without a gap the adiabatic error decays only as a power of tau. On
    the N = 160 grid (1, 20, 8, 2^-20) with beta = 0.5, the defect is
    taken at four taus from 1e2 to 1e4 with 1024 steps each, and the
    slope of log defect against log tau must lie within 0.15 of -0.5.
    The notes give, per tau, the exact norms the defect took and the
    batches that took them.
    """
    grid = build_grid(1.0, 20, 8, 2.0 ** -20)
    model = assemble_model(grid, build_form_factor(grid, 0.5),
                           build_switching(np.pi / 4))
    taus = np.geomspace(1e2, 1e4, 4)
    defects, norms, batches = zip(*(_settled_defect(model, t, None, 1024)
                                    for t in taus))
    slope = fit_powerlaw(zip(taus, defects)).slope
    notes = [f"uniform defect at N={model.measure.n_nodes}, beta=0.5, 1024 steps:"]
    notes += [f"  tau={t:9.2f}: defect {d:.6e} ({n} exact norms in {b} batches)"
              for t, d, n, b in zip(taus, defects, norms, batches)]
    return Check({"defect_slope": clause(slope, expected=-0.5, tol=0.15)}, notes)


def bump_asymptotics(ps=(100.0, 200.0, 400.0)) -> Check:
    """Criterion 6: the bump transform at 0, and its saddle-point form.

    The transform over its saddle-point form is compared only at the p
    whose |cos(phase)| reaches 0.3, since near a zero of the cosine the
    ratio measures nothing: at least one p must, and |ratio - 1| sqrt(p)
    is at most 2 at each. The notes list every p, skipped ones too.
    """
    cosines = [abs(float(np.cos(BUMP_ASYMPTOTIC.phase(p)))) for p in ps]
    clear = clause(max(cosines), min=0.3)
    rows = [(p, bump_transform(p), bump_transform_asymptotic(p), cos >= clear["min"])
            for p, cos in zip(ps, cosines)]
    devs = {p: abs(num / asym - 1.0) for p, num, asym, used in rows if used}
    notes = [f"{'p':>8} {'numeric':>14} {'asymptotic':>14} {'|ratio-1|':>10}"]
    notes += [f"{p:8.1f} {num:14.6e} {asym:14.6e} "
              + (f"{devs[p]:10.3e}" if used else f"{'-':>10}  near-zero, skipped")
              for p, num, asym, used in rows]
    return Check({
        "transform_at_0": clause(bump_transform(0.0), expected=0.4439938, tol=1e-6),
        "max_abs_cos_phase": clear,
        "ratio_dev_times_sqrt_p": clause([d * math.sqrt(p) for p, d in devs.items()],
                                         max=2.0)}, notes)


def series_parity(series: WaveOperatorSeries) -> Check:
    """Criterion 7: the wrong-parity blocks of terms 1-4 vanish."""
    return Check({"parity_defects": clause(list(series.parity_defects()),
                                           max=1e-9)})


def first_order_closed_form(model: FriedrichsModel, series: WaveOperatorSeries,
                            tau: float = 100.0) -> Check:
    """Criterion 8: term 1's continuum column is -i times the closed form,
    whose norm falls as tau^-beta: its ratios at tau = 1e3 over 2e3 and
    2e3 over 4e3 lie in [0.9, 1.1] times 2^beta."""
    vec, nrm = first_order_tail(model, tau)
    rel = float(np.linalg.norm(series.terms[1][1:, 0] - (-1j) * vec)) / max(nrm, 1e-300)
    norms = [first_order_tail(model, t)[1] for t in (1000.0, 2000.0, 4000.0)]
    target = 2.0 ** model.form_factor.beta
    return Check({"column_rel_err": clause(rel, max=1e-8),
                  "tail_ratios": clause([norms[0] / norms[1], norms[1] / norms[2]],
                                        min=0.9 * target, max=1.1 * target)})


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
    rule at 64 points (16 and 32 are noted). The identity runs at
    tau = 50 on a gapped N = 32 model: every profile pair of ibp_suite
    at 64 nodes, then two refinements of the default pair. 48 -> 96
    drops the residual by the factor; 64 -> 128 drops it by the factor
    or reaches the floor.
    """
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
    notes = (f"eigenbasis-rule residual at 16 and 32 points: {eigen[16]:.3e}, "
             f"{eigen[32]:.3e}",
             f"ibp_residual by profile: {', '.join(r.profile_tag for r in suite)}; "
             f"N={model.measure.n_nodes}, tau=50, gap=1, sign={suite[0].sign:+d}")
    return Check({
        "eigenbasis_residual": clause(eigen[64], max=1e-10),
        "ibp_residual": clause([rep.residual for rep in suite], max=1e-6),
        "refine_48_96": clause([r48, r96], drop=4.0),
        "refine_64_128": clause([suite[0].residual, r128], drop=4.0, floor=1e-12)},
        notes)


def node_doubling(inputs: Inputs, beta: float) -> dict:
    """The default grid's error at beta, held to the sweep's step error.

    The refined grid (Inputs.refined: twice the nodes per panel, the
    bottom one panel lower) may move no probe or window leak, relative,
    by more than the default sweep's own step change: the rel_change
    between n // 2 and n steps that its step_calibration check reports.
    So the grid, its bottom included, adds no error beyond the one every
    record already carries. An errored record's NaN leaks fail the
    clause, and so does a step change that was not measured (None).
    """
    base, fine = inputs.refined(beta)
    rel = float(np.max([abs(getattr(a, name) - getattr(b, name)) / getattr(b, name)
                        for a, b in zip(base.records, fine.records)
                        for name in ("leak_probe", "sup_leak_window")]))
    return clause(rel, max=base.checks.get("step_calibration", {}).get("value"))


def robustness(inputs: Inputs) -> Check:
    """Criterion 11: the beta = 1.5 sweep is robust and deterministic.

    The refined grid has twice the nodes of the default grid extended
    one panel down, and moves no probe or window leak by more than the
    sweep's own step change (node_doubling), a fresh rerun of the same
    config renders the same CSV bytes, and the probe slope fitted without
    the smallest tau lies within 0.05 of the full fit. The trimmed fit
    skips errored records, as the sweep's fits do, and is not measured
    unless the rest can fit.
    """
    base, fine = inputs.refined(1.5)
    differs = render_csv(base) != render_csv(run_sweep(base.config))
    full = base.fits["leak_probe"]
    trimmed = [(r.tau, r.leak_probe) for r in base.records[1:] if r.error is None]
    shift = (abs(full.slope - fit_powerlaw(trimmed).slope)
             if full is not None and _fittable([t for t, _ in trimmed]) else None)
    return Check({
        "node_ratio": clause(fine.n_nodes / (base.n_nodes + base.config.nodes_per_panel),
                             expected=2.0, tol=0.0),
        "grid_rel_change": node_doubling(inputs, 1.5),
        "rerun_csv_differs": clause(int(differs), max=0),
        "trimmed_slope_shift": clause(shift, max=0.05)},
        (f"refined grid: N={base.n_nodes} -> {fine.n_nodes}",))


def _sub_unit_beta(inputs: Inputs) -> Check:
    """Criterion 3: the sweep at beta = 0.5 and, beside it, the uniform defect."""
    sweep, defect = sweep_checks(inputs, 0.5), uniform_defect()
    return Check({**sweep.clauses, **defect.clauses}, [*sweep.notes, *defect.notes])


#: criterion -> its check of one run's Inputs; criteria 5 and 9 are the tests' own
REGISTRY: dict[int, Callable[[Inputs], Check]] = {
    1: lambda inputs: sweep_checks(inputs, 1.25, 1.5, 1.75),
    2: lambda inputs: sweep_checks(inputs, 1.5),
    3: _sub_unit_beta,
    4: lambda inputs: sweep_checks(inputs, 1.0),
    6: lambda inputs: bump_asymptotics(),
    7: lambda inputs: series_parity(inputs.series[1]),
    8: lambda inputs: first_order_closed_form(*inputs.series),
    10: lambda inputs: contour_calculus(),
    11: robustness,
}
