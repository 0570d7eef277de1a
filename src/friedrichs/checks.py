"""Acceptance checks, each defined once.

Criterion 3's defect half (the uniform defect's decay), 6 (bump-transform
asymptotics), 7 (series parity), 8 (the first-order closed form) and 10
(the contour calculus). The CLI's defect-check, fourier-check,
volterra-check and tilde-check print them; the acceptance tests run them
and pin their bounds. The package's __init__ does not import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import ContourSpec, ibp_suite, tilde, tilde_eigenbasis, verify_ibp
from .model import (FriedrichsModel, assemble_model, build_form_factor,
                    build_grid, build_switching)
from .oscint import BUMP_ASYMPTOTIC, bump_transform, bump_transform_asymptotic
from .volterra import (WaveOperatorSeries, _settled_defect, first_order_tail,
                       wave_operator_series)

__all__ = ["Check", "uniform_defect", "bump_asymptotics", "volterra_series",
           "series_parity", "first_order_closed_form", "tilde_problem",
           "contour_calculus"]


@dataclass(frozen=True)
class Check:
    """What a check computed, the bounds it held the values to, its
    verdict, and the lines that report them."""

    values: dict
    bounds: dict
    ok: bool
    lines: list[str]


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
                 max(defects) <= bounds["parity_defect"],
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


def contour_calculus(seed: int = 3) -> Check:
    """Criterion 10: the tilde quadrature and the integration-by-parts identity.

    The contour quadrature of tilde_problem(seed) matches the eigenbasis
    rule at 64 points (16 and 32 are reported). The identity runs at
    tau = 50 on a gapped N = 32 model: every profile pair of ibp_suite
    at 64 nodes, then two refinements of the default pair. 48 -> 96
    drops the residual by the factor; 64 -> 128 drops it by the factor
    or reaches the floor.
    """
    bounds = {"eigenbasis_residual": 1e-10, "ibp_residual": 1e-6,
              "refinement_drop": 4.0, "refined_floor": 1e-12}
    h, p, x = tilde_problem(seed)
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
