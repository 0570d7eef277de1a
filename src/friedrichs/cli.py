"""Command-line interface.

Subcommands: sweep (tau sweep with fits; one tau with --tau T), verify
(every check of friedrichs.checks.REGISTRY, acceptance criteria 1-4, 6,
7, 8, 10 and 11), report (re-emit outputs from a stored manifest).

The sweep flags that set a config key are read by the config grammar as
if written in the config file, and override the file; a flag given an
empty value is refused by name.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 acceptance-check failure (sweep only when --check is passed; verify
always).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError, FriedrichsError
from . import checks
from .sweep import (_RENDERERS, _SETTINGS, SweepConfig, _parse_value, emit_report,
                    load_config_file, load_manifest, render_clause, resolve_config,
                    run_sweep)

_CHECK_FAIL = 4
#: sweep flag -> the config key it sets
_SETTING_FLAGS = {"--tau": "tau_values", "--beta": "beta", "--gap": "gap_shift",
                  "--out": "directory", "--format": "formats"}


def _given(flag: str, text: str | None) -> str | None:
    """The value given to flag, None when it was not given; refuses ''."""
    if text is not None and not text.strip():
        raise ConfigurationError(f"{flag} is empty")
    return text


def _config_from_args(args) -> SweepConfig:
    config = _given("--config", args.config)
    raw = {} if config is None else load_config_file(config)
    for flag, key in _SETTING_FLAGS.items():
        text = _given(flag, getattr(args, flag[2:]))
        if text is not None:
            raw.setdefault(_SETTINGS[key].section, {})[key] = text
    return resolve_config(raw)


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    result = run_sweep(cfg)
    paths = emit_report(result)
    for r in result.records:
        if r.error is not None:
            print(f"tau={r.tau}: {r.error}", file=sys.stderr)
    for name, fit in result.fits.items():
        if fit is not None:
            print(f"{name}: slope={fit.slope:+.4f} "
                  f"stderr={fit.slope_stderr:.4f} n={fit.n_points}")
    if "window_slope" not in result.checks:
        print("no slope checks: a fit needs at least 4 taus over 1.5 decades")
    for name, chk in result.checks.items():
        print("check " + render_clause(name, chk))
    print("wrote: " + " ".join(sorted(paths.values())))
    if args.check and not all(chk["pass"] for chk in result.checks.values()):
        return _CHECK_FAIL
    return 0


def _cmd_verify(args) -> int:
    failed, inputs = [], checks.Inputs()
    for criterion, check in checks.REGISTRY.items():
        chk = check(inputs)
        print(f"[criterion {criterion:2d}] {'PASS' if chk.ok else 'FAIL'}")
        print("\n".join(f"  {line}" for line in chk.lines))
        if not chk.ok:
            failed.append(criterion)
    print("verify:", "FAIL " + ", ".join(map(str, failed)) if failed else "PASS")
    return _CHECK_FAIL if failed else 0


def _cmd_report(args) -> int:
    result = load_manifest(args.manifest)
    formats = _given("--format", args.format)
    if formats is not None:
        formats = _parse_value(_SETTINGS["formats"].grammar, formats, "--format")
    paths = emit_report(result, formats=formats, out_dir=_given("--out", args.out))
    print("wrote: " + " ".join(sorted(paths.values())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friedrichs",
        description="Numerical experiments on slowly driven threshold bound states")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="full tau sweep with slope fits")
    p.add_argument("--config", help="path to a key = value config file")
    p.add_argument("--tau", help="tau list override, comma or space separated")
    p.add_argument("--beta", help="coupling exponent override")
    p.add_argument("--gap", help="gap shift override")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--format", help=f"list from {', '.join(_RENDERERS)}")
    p.add_argument("--check", action="store_true",
                   help="exit 4 unless every check passes")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run every registered acceptance check")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="re-emit outputs from a stored manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default=None)
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
