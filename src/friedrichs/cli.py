"""Command-line interface.

Subcommands: simulate (one trajectory), sweep (tau sweep with fits),
fourier-check (bump-transform asymptotics table), volterra-check (series
parity and first-order column), tilde-check (contour calculus suite),
report (re-emit outputs from a stored manifest).

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 acceptance-check failure (only when --check is passed).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigurationError, FriedrichsError
from . import sweep as sweep_mod
from .sweep import (build_model_from_config, emit_report, load_config_file,
                    load_manifest, resolve_config, run_sweep)

_CHECK_FAIL = 4


def _add_common(parser, with_out=True):
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--tau", help="comma-separated tau list override")
    parser.add_argument("--beta", type=float, help="coupling exponent override")
    parser.add_argument("--gap", type=float, help="gap shift override")
    if with_out:
        parser.add_argument("--out", help="output directory override")
        parser.add_argument("--format", dest="formats",
                            help="comma list from csv,json,svg")


def _float_list(flag: str, text: str) -> tuple[float, ...]:
    """Finite numbers, comma or space separated, given to flag; at least one."""
    try:
        values = tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigurationError(f"bad {flag} list {text!r}") from exc
    if not values:
        raise ConfigurationError(f"{flag} lists no values")
    if not all(map(math.isfinite, values)):
        raise ConfigurationError(f"{flag} values must be finite, got {text!r}")
    return values


def _given(flag: str, text: str | None) -> str | None:
    """The value given to flag, None when it was not given; refuses ''."""
    if text is not None and not text.strip():
        raise ConfigurationError(f"{flag} is empty")
    return text


def _formats(text: str | None) -> tuple[str, ...] | None:
    text = _given("--format", text)
    return None if text is None else tuple(text.split(","))


def _config_from_args(args) -> sweep_mod.SweepConfig:
    config = _given("--config", args.config)
    raw = {} if config is None else load_config_file(config)
    overrides = {}
    if args.tau is not None:
        overrides["tau_values"] = _float_list("--tau", args.tau)
    if args.beta is not None:
        overrides["beta"] = args.beta
    if args.gap is not None:
        overrides["gap_shift"] = args.gap
    if _given("--out", getattr(args, "out", None)) is not None:
        overrides["directory"] = args.out
    formats = _formats(getattr(args, "formats", None))
    if formats is not None:
        overrides["formats"] = formats
    return resolve_config(raw, **overrides)


def _cmd_simulate(args) -> int:
    from .propagate import evolve_true, steps_for
    cfg = _config_from_args(args)
    model = build_model_from_config(cfg)
    tau = cfg.tau_values[0] if args.single_tau is None else args.single_tau
    n = max(cfg.window_samples, steps_for(cfg.max_step))
    tr = evolve_true(model, tau, n, cfg.drift_tolerance)
    print(f"# tau={tau} steps={tr.n_window_steps} "
          f"drift={tr.unitarity_drift:.3e}")
    print("# s leak")
    # eleven window times snapped to the step grid, then the probe
    snapped = dict.fromkeys(round(s * n) / n for s in np.linspace(0.0, 1.0, 11))
    for s in (*snapped, cfg.s_probe):
        print(f"{s:.6f} {tr.leak_at(s):.12e}")
    print(f"# sup leak in window: {tr.sup_leak_window:.12e}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    result = run_sweep(cfg)
    paths = emit_report(result)
    failed = [r for r in result.records if r.error is not None]
    for r in failed:
        print(f"tau={r.tau}: {r.error}", file=sys.stderr)
    for name, fit in result.fits.items():
        if fit is not None:
            print(f"{name}: slope={fit.slope:+.4f} "
                  f"stderr={fit.slope_stderr:.4f} n={fit.n_points}")
    for name, chk in result.checks.items():
        print(f"check {name}: {'PASS' if chk['pass'] else 'FAIL'} {chk}")
    print("wrote: " + " ".join(sorted(paths.values())))
    if args.check and (failed or not all(c["pass"] for c in result.checks.values())):
        return _CHECK_FAIL
    return 0


def _cmd_fourier_check(args) -> int:
    from .oscint import BUMP_ASYMPTOTIC, bump_transform, bump_transform_asymptotic
    ps = _float_list("--p", args.p)
    if min(ps) <= 0.0:
        raise ConfigurationError(f"--p values must be > 0, got {args.p!r}")
    zero = bump_transform(0.0)
    print(f"transform at 0: {zero:.10f} (reference 0.4439938)")
    ok = abs(zero - 0.4439938) <= 1e-6
    print(f"{'p':>8} {'numeric':>14} {'asymptotic':>14} {'|ratio-1|':>10} "
          f"{'bound':>8} {'used':>5}")
    for p in ps:
        num = bump_transform(p)
        asym = bump_transform_asymptotic(p)
        cosphase = np.cos(BUMP_ASYMPTOTIC.phase(p))
        bound = 2.0 / np.sqrt(p)
        if abs(cosphase) > 0.3:
            dev = abs(num / asym - 1.0)
            ok = ok and dev <= bound
            print(f"{p:8.1f} {num:14.6e} {asym:14.6e} {dev:10.3e} "
                  f"{bound:8.3f}  yes")
        else:
            print(f"{p:8.1f} {num:14.6e} {asym:14.6e} {'-':>10} {bound:8.3f} "
                  f" near-zero, skipped")
    print("fourier-check:", "PASS" if ok else "FAIL")
    return 0 if (ok or not args.check) else _CHECK_FAIL


def _cmd_volterra_check(args) -> int:
    from .volterra import first_order_tail, wave_operator_series
    cfg = _config_from_args(args)
    # series checks are budgeted for small grids; shrink independently of the sweep grid
    cfg = replace(cfg, n_panels=min(cfg.n_panels, 16),
                            nodes_per_panel=min(cfg.nodes_per_panel, 8),
                            k_min=cfg.k_max * 2.0 ** -min(cfg.n_panels, 16),
                            gap_shift=0.0)
    model = build_model_from_config(cfg)
    tau = 100.0 if args.single_tau is None else args.single_tau
    ser = wave_operator_series(model, tau, max_order=4, quad_order=64, s_eval=1.5)
    defects = ser.parity_defects()
    print(f"N={model.measure.n_nodes} tau={tau} panels={ser.n_panels}")
    for i, d in enumerate(defects, start=1):
        print(f"wrong-parity defect, order {i}: {d:.3e}")
    vec, nrm = first_order_tail(model, tau)
    col = ser.terms[1][1:, 0]
    rel = float(np.linalg.norm(col - (-1j) * vec) / max(nrm, 1e-300))
    print(f"first-order column vs closed form: rel err {rel:.3e}")
    _, n1 = first_order_tail(model, 1000.0)
    _, n2 = first_order_tail(model, 2000.0)
    ratio = n1 / n2
    print(f"tail norm ratio tau=1e3 vs 2e3: {ratio:.4f} "
          f"(2^beta = {2 ** cfg.beta:.4f})")
    ok = (max(defects) <= 1e-9 and rel <= 1e-8
          and 0.9 * 2 ** cfg.beta <= ratio <= 1.1 * 2 ** cfg.beta)
    print("volterra-check:", "PASS" if ok else "FAIL")
    return 0 if (ok or not args.check) else _CHECK_FAIL


def _cmd_tilde_check(args) -> int:
    from .contour import ContourSpec, ibp_suite, tilde, tilde_eigenbasis
    from .model import assemble_model, build_form_factor, build_grid, build_switching

    rng = np.random.default_rng(args.seed)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8))
                        + 1j * rng.standard_normal((8, 8)))
    lam = np.concatenate([[-0.1, 0.1], 1.0 + rng.random(6)])
    h = (q * lam) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    p = q[:, :2] @ q[:, :2].conj().T
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    residuals = {}
    for n_points in (16, 32, 64):
        spec = ContourSpec(center=0.0, radius=0.5, n_points=n_points)
        residuals[n_points] = float(np.linalg.norm(
            tilde(h, p, x, spec) - tilde_eigenbasis(h, p, x, spec)))
        print(f"eigenbasis-rule residual at n_points={n_points}: "
              f"{residuals[n_points]:.3e}")
    ok = residuals[64] <= 1e-10

    grid = build_grid(1.0, 8, 4, 1e-3)
    model = assemble_model(grid, build_form_factor(grid, 1.5),
                           build_switching(np.pi / 4), 1.0)
    print(f"identity checks at N={model.measure.n_nodes}, tau=50, gap=1:")
    reports = ibp_suite(model, 50.0, quad_order=64)
    for rep in reports:
        print(f"  profile={rep.profile_tag}: residual={rep.residual:.3e} "
              f"sign={rep.sign:+d}")
        ok = ok and rep.residual <= 1e-6
    coarse = ibp_suite(model, 50.0, quad_order=48)[0]
    fine = ibp_suite(model, 50.0, quad_order=96)[0]
    print(f"  refinement 48 -> 96: {coarse.residual:.3e} -> {fine.residual:.3e}")
    ok = ok and fine.residual <= coarse.residual / 4.0
    print("tilde-check:", "PASS" if ok else "FAIL")
    return 0 if (ok or not args.check) else _CHECK_FAIL


def _cmd_report(args) -> int:
    result = load_manifest(args.manifest)
    paths = emit_report(result, formats=_formats(args.formats),
                        out_dir=_given("--out", args.out))
    print("wrote: " + " ".join(sorted(paths.values())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friedrichs",
        description="Numerical experiments on slowly driven threshold bound states")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory and print leaks")
    _add_common(p, with_out=False)
    p.add_argument("--single-tau", type=float, default=None,
                   help="tau for the trajectory (default: first of tau_values)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="full tau sweep with slope fits")
    _add_common(p)
    p.add_argument("--check", action="store_true",
                   help="exit 4 unless all configured checks pass")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fourier-check", help="bump transform vs asymptotics")
    p.add_argument("--p", default="100,200,400", help="comma list of p values")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_fourier_check)

    p = sub.add_parser("volterra-check",
                       help="series parity and first-order column checks")
    _add_common(p, with_out=False)
    p.add_argument("--single-tau", type=float, default=None)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_volterra_check)

    p = sub.add_parser("tilde-check", help="contour calculus verification suite")
    p.add_argument("--seed", type=int, default=3,
                   help="seed of the random 8x8 Hamiltonian of the "
                        "eigenbasis-rule check; the identity checks use "
                        "fixed profile seeds")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_tilde_check)

    p = sub.add_parser("report", help="re-emit outputs from a stored manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", dest="formats", default=None)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FriedrichsError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
