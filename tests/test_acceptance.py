"""Acceptance suite: the tests of each criterion print a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criteria 1-4, 6, 7, 8, 10 and 11 run the entries
of friedrichs.checks.REGISTRY (criterion 1 one beta at a time) on one
checks.Inputs, as `friedrichs verify` does, and pin the bounds each
reports in BOUNDS, as the bound entries of each entry's clauses (a
measured bound, such as criterion 11's grid bound, as the function of
the run's inputs that reads it); criteria 1-4
read the sweep's own checks, so their slope tolerances are written only
in sweep.slope_checks. Criterion 5 (its floor is tuned) and criterion 9
(it compares with the oracles) stay here. Tolerances are fixed, not
tuned at runtime. Every slope claim is fitted over tau spanning at
least 1.5 decades but criterion 5's: GAPPED_TAUS span one decade
(100-1000), which a sweep would not fit (sweep._fittable), so it calls
slope_checks on its own fits.
"""

import numpy as np
import pytest

from friedrichs import checks
from friedrichs.contour import ContourSpec, slaved_tail_probe, tilde, \
    tilde_eigenbasis
from friedrichs.model import assemble_model, build_form_factor, build_grid, \
    build_switching
from friedrichs.propagate import evolve_wave_operator
from friedrichs.sweep import fit_powerlaw, render_clause, slope_checks

from oracles import PerStepWaveOperator, eigen_tilde, verify_generators

GAPPED_TAUS = (100.0, 158.489, 251.189, 398.107, 630.957, 1000.0)
GAPPED_FLOOR = 1e-13  # below this the collapsed tail is roundoff, not signal


def _sweep_bounds(beta, probe_tol, window_slope):
    """The bounds sweep_checks reports for the threshold sweep at beta."""
    return {f"{name} at beta={beta}": bounds for name, bounds in {
        "n_nodes": {"max": 4096}, "errored_records": {"max": 0},
        "probe_slope": {"expected": -beta, "tol": probe_tol},
        "window_slope": {"expected": window_slope, "tol": 0.15},
        "step_calibration": {"tol": 0.005},
        "first_order_dominant": {"max": 0.5}}.items()}


BOUNDS = {
    1: {beta: _sweep_bounds(beta, 0.12, -1.0) for beta in (1.25, 1.5, 1.75)},
    2: _sweep_bounds(1.5, 0.12, -1.0),
    3: {**_sweep_bounds(0.5, 0.10, -0.5),
        "defect_slope": {"expected": -0.5, "tol": 0.15}},
    4: _sweep_bounds(1.0, 0.15, -1.0),
    6: {"transform_at_0": {"expected": 0.4439938, "tol": 1e-6},
        "max_abs_cos_phase": {"min": 0.3}, "ratio_dev_times_sqrt_p": {"max": 2.0}},
    7: {"parity_defects": {"max": 1e-9}},
    8: {"column_rel_err": {"max": 1e-8},
        "tail_ratios": {"min": 0.9 * 2.0 ** 1.5, "max": 1.1 * 2.0 ** 1.5}},
    10: {"eigenbasis_residual": {"max": 1e-10}, "ibp_residual": {"max": 1e-6},
         "refine_48_96": {"drop": 4.0},
         "refine_64_128": {"drop": 4.0, "floor": 1e-12}},
    11: {"node_ratio": {"expected": 2.0, "tol": 0.0},
         "grid_rel_change": {"max": lambda inputs: _step_change(inputs, 1.5)},
         "rerun_csv_differs": {"max": 0}, "trimmed_slope_shift": {"max": 0.05}},
}


def _step_change(inputs, beta):
    """The default sweep's step change at beta (its step_calibration value):
    the measured bound of its node doubling."""
    return inputs.sweep(beta).checks["step_calibration"]["value"]


def _measured(bounds, inputs):
    """bounds, each measured bound (a function of the run's inputs) read."""
    return {name: {key: v(inputs) if callable(v) else v for key, v in b.items()}
            for name, b in bounds.items()}


def _report(num, ok, desc):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def _report_check(num, chk, bounds, desc=None, ok=True):
    """Report a registered check, its bounds pinned in BOUNDS."""
    assert chk.bounds == bounds, f"criterion {num}: bounds moved"
    _report(num, chk.ok and ok, "\n    ".join(
        [desc or f"{len(chk.clauses)} clauses", *chk.lines]))


def test_registry_lists_every_criterion_but_5_and_9():
    assert list(checks.REGISTRY) == list(BOUNDS)


@pytest.fixture(scope="module")
def inputs():
    """The run's shared sweeps and series, as `friedrichs verify` makes them."""
    return checks.Inputs()


@pytest.mark.parametrize("beta", list(BOUNDS[1]))
def test_criterion_1_gapless_long_time_tail(inputs, beta):
    # registry entry 1 is sweep_checks over the three betas; one at a time here
    _report_check(1, checks.sweep_checks(inputs, beta), BOUNDS[1][beta])


@pytest.mark.parametrize("criterion", [2, 3, 4, 6, 7, 8, 11])
def test_registry_entry(inputs, criterion):
    _report_check(criterion, checks.REGISTRY[criterion](inputs),
                  _measured(BOUNDS[criterion], inputs))


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.25, 1.75])
def test_default_grid_error_within_step_error(inputs, beta):
    # criterion 11's grid clause at the other acceptance betas: doubling
    # the default grid moves no leak by more than the sweep's step change
    grid = checks.node_doubling(inputs, beta)
    assert grid["max"] == _step_change(inputs, beta)
    assert grid["pass"], grid


@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 1.5, 1.75])
def test_default_grid_error_within_its_refinement_change(inputs, beta):
    # the refinement's change is the default grid's error, its bottom
    # included: every leak lies within it of a reference with 16 nodes per
    # panel and its Jacobi panel on [0, 2^-20]. The slack, 1e-12 of the
    # leak, covers rounding alone: the refined sweep and the reference
    # agree to about 1e-15, and the changes are 1.8e-7 or more
    base, fine = inputs.refined(beta)
    ref = inputs.sweep(beta, nodes_per_panel=16, k_min=2.0 ** -20, n_panels=20)
    assert (base.n_nodes, fine.n_nodes, ref.n_nodes) == (76, 168, 344)
    assert len({r.n_steps for s in (base, fine, ref) for r in s.records}) == 1
    for name in ("leak_probe", "sup_leak_window"):
        leak, refined, exact = (np.array([getattr(r, name) for r in s.records])
                                for s in (base, fine, ref))
        assert np.all(np.abs(leak - exact)
                      <= np.abs(leak - refined) + 1e-12 * exact), name


def test_criterion_5_gapped_control():
    grid = build_grid(1.0, 17, 8, 1e-5)
    model = assemble_model(grid, build_form_factor(grid, 1.5),
                           build_switching(np.pi / 4), gap_shift=1.0)
    records = slaved_tail_probe(model, GAPPED_TAUS, max_step=1.0 / 2048)
    taus = np.array([r[0] for r in records])
    probes = np.maximum([r[1] for r in records], 1e-300)
    sups = np.array([r[2] for r in records])

    # the slopes held to the bounds a gapped sweep checks
    slopes = slope_checks(1.5, 1.0, {"leak_probe": fit_powerlaw(zip(taus, probes)),
                                     "sup_leak_window": fit_powerlaw(zip(taus, sups))})
    pair_slopes = np.diff(np.log(probes)) / np.diff(np.log(taus))
    live = np.minimum(probes[:-1], probes[1:]) > GAPPED_FLOOR
    steepening = all(b <= a + 0.25 for a, b, keep_a, keep_b in
                     zip(pair_slopes, pair_slopes[1:], live, live[1:])
                     if keep_a and keep_b)
    ok = all(chk["pass"] for chk in slopes.values()) and steepening
    _report(5, ok, "gap=1: " + "; ".join(
        render_clause(name, chk) for name, chk in slopes.items())
        + f"; steepening above floor={steepening} "
          f"(tails {probes[0]:.1e} -> {probes[-1]:.1e})")


def test_criterion_9_structural_identities(inputs):
    drifts = [r.unitarity_drift for b in (1.25, 1.5, 1.75)
              for r in inputs.sweep(b).records]
    drift_ok = max(drifts) <= 1e-9

    grid = build_grid(1.0, 8, 8, 1e-3)  # N = 64
    model = assemble_model(grid, build_form_factor(grid, 1.5),
                           build_switching(np.pi / 4))
    tau = 50.0
    _, omegas, _ = evolve_wave_operator(model, tau, 8192, np.array([0.5, 1.0]))
    offdiag_ok = True
    for omega in omegas:
        p = np.zeros((model.dim, model.dim), dtype=complex)
        p[0, 0] = 1.0
        dist = np.linalg.norm(omega @ p @ omega.conj().T - p, 2)
        blocks = max(np.linalg.norm(omega[1:, 0]), np.linalg.norm(omega[0, 1:]))
        offdiag_ok &= abs(dist - blocks) <= 1e-10

    gen = verify_generators(model, tau)
    gen_ok = gen.max_had_vs_hr <= 1e-12

    _, om_s, _ = PerStepWaveOperator(model, tau, 20000,
                                     scheme="strang_split").run([1.0])
    phases = np.exp(-1j * tau * model.diag_energies)
    wave_ok = np.linalg.norm(phases[:, None] * omegas[1] - om_s[0], 2) <= 1e-6

    ok = drift_ok and offdiag_ok and gen_ok and wave_ok
    _report(9, ok, f"drift<=1e-9 ({max(drifts):.1e}); projector-distance "
                   f"identity ok={offdiag_ok}; generators match "
                   f"({gen.max_had_vs_hr:.1e}<=1e-12); "
                   f"frame*wave=true ok={wave_ok}")


def test_criterion_10_contour_calculus(inputs):
    # registry entry 10, plus the oracle's eigenbasis division only tests hold
    h, p, x = checks.tilde_problem(3)
    spec = ContourSpec(center=0.0, radius=0.5, n_points=64)
    resid = np.linalg.norm(tilde(h, p, x, spec) - eigen_tilde(h, x, 0.0, 0.5))
    rule = np.linalg.norm(tilde_eigenbasis(h, p, x, spec)
                          - eigen_tilde(h, x, 0.0, 0.5))
    _report_check(10, checks.REGISTRY[10](inputs), BOUNDS[10],
                  f"oracle residual {resid:.1e} (<=1e-10), eigenbasis rule "
                  f"{rule:.1e} (<=1e-12)", ok=resid <= 1e-10 and rule <= 1e-12)
