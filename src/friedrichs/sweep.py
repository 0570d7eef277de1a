"""Experiment harness: tau sweeps, power-law fits, and report files.

A sweep evolves the bound state once per tau, records the leak at a
post-window probe time and the in-window supremum, fits log-log slopes,
and emits CSV/JSON/SVG outputs. Runs are deterministic: fixed float
formatting, records ordered by tau, and results independent of how the
taus are batched.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .errors import (ConfigurationError, FitDomainError, FriedrichsError,
                     IntegrationFailure)
from .model import (FriedrichsModel, assemble_model, build_form_factor,
                    build_grid, build_switching, check_model_inputs)
from .numutil import format_float17
from .propagate import evolve_true, steps_for

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "SweepResult",
    "FitResult",
    "load_config_file",
    "resolve_config",
    "config_hash",
    "build_model_from_config",
    "run_sweep",
    "fit_powerlaw",
    "evaluate_checks",
    "emit_report",
    "load_manifest",
]

CSV_COLUMNS = ("tau", "s_probe", "leak_probe", "sup_leak_window", "beta",
               "gap_shift", "n_nodes", "theta_total", "unitarity_drift",
               "wall_time_s")

_DEFAULT_TAUS = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0))

#: config file schema: section -> key -> (type tag, default)
_SCHEMA = {
    "model": {
        "beta": ("float", 1.5),
        "theta_total": ("float", math.pi / 4.0),
        "gap_shift": ("float", 0.0),
        "k_max": ("float", 1.0),
        "k_min": ("float_or_auto", "auto"),
        "n_panels": ("int_or_auto", "auto"),
        "nodes_per_panel": ("int", 16),
        "cutoff_fraction": ("float", 0.5),
    },
    "sweep": {
        "tau_values": ("float_list", _DEFAULT_TAUS),
        "s_probe": ("float", 1.5),
        "window_samples": ("int", 256),
    },
    "integrate": {
        "max_step": ("float_or_auto", "auto"),
        "calibrate": ("bool", True),
        "calibrate_rel_tol": ("float", 0.005),
        "drift_tolerance": ("float", 1e-9),
    },
    "output": {
        "directory": ("str", "out"),
        "formats": ("str_list", ("csv", "json")),
        "jobs": ("int", 1),
    },
    "check": {
        "probe_slope": ("float_or_auto_or_none", "auto"),
        "probe_tol": ("float_or_auto", "auto"),
        "probe_slope_max": ("float_or_auto_or_none", "auto"),
        "window_slope": ("float_or_auto_or_none", "auto"),
        "window_tol": ("float_or_auto", "auto"),
    },
}


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved sweep parameters (no 'auto' values remain)."""

    beta: float
    theta_total: float
    gap_shift: float
    k_max: float
    k_min: float
    n_panels: int
    nodes_per_panel: int
    cutoff_fraction: float
    tau_values: tuple[float, ...]
    s_probe: float
    window_samples: int
    max_step: float | None
    calibrate: bool
    calibrate_rel_tol: float
    drift_tolerance: float
    directory: str
    formats: tuple[str, ...]
    jobs: int    # accepted for compatibility; has no effect
    probe_slope: float | None
    probe_tol: float
    probe_slope_max: float | None
    window_slope: float | None
    window_tol: float


@dataclass
class SweepRecord:
    tau: float
    leak_probe: float
    sup_leak_window: float
    unitarity_drift: float
    wall_time_s: float
    n_steps: int
    error: str | None = None


@dataclass
class FitResult:
    slope: float
    intercept: float
    slope_stderr: float
    max_abs_residual: float
    n_points: int


@dataclass
class SweepResult:
    config: SweepConfig
    config_hash: str
    n_nodes: int
    records: list[SweepRecord]
    fits: dict
    checks: dict
    calibration: dict
    code_version: str = __version__


def _parse_value(tag: str, raw, where: str):
    if not isinstance(raw, str):
        return raw  # already a default
    text = raw.strip()
    try:
        if tag == "float":
            return float(text)
        if tag == "int":
            return int(text)
        if tag == "bool":
            low = text.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(text)
        if tag == "str":
            return text
        if tag in ("float_or_auto", "int_or_auto"):
            if text.lower() == "auto":
                return "auto"
            return float(text) if tag.startswith("float") else int(text)
        if tag == "float_or_auto_or_none":
            low = text.lower()
            if low in ("auto", "none"):
                return low
            return float(text)
        if tag == "float_list":
            return tuple(float(v) for v in text.replace(",", " ").split())
        if tag == "str_list":
            return tuple(v.strip() for v in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {where}: {raw!r} ({exc})") from exc
    raise ConfigurationError(f"unhandled schema tag {tag}")


def load_config_file(path: str) -> dict:
    """Parse the flat key = value config file with bracketed sections.

    Unknown sections or keys are errors; values are validated on resolve.
    """
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    raw: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{section}]")
            raw.setdefault(section, {})[key] = value
    return raw


def resolve_config(raw: dict | None = None, **overrides) -> SweepConfig:
    """Apply defaults, overrides, and the auto rules; validate everything.

    Auto rules: the grid is graded by ratio-2 panels from k_max down to
    at most 0.01/max(tau); check expectations follow the configured beta
    and gap.
    """
    raw = raw or {}
    values: dict = {}
    for section, keys in _SCHEMA.items():
        for key, (tag, default) in keys.items():
            supplied = raw.get(section, {}).get(key, default)
            values[key] = _parse_value(tag, supplied, f"[{section}] {key}")
    for key, val in overrides.items():
        if key not in values:
            raise ConfigurationError(f"unknown config override {key!r}")
        if val is not None:
            values[key] = val

    taus = tuple(sorted(float(t) for t in values["tau_values"]))
    values["tau_values"] = taus
    non_finite = [key for key, val in values.items()
                  if any(isinstance(v, float) and not math.isfinite(v)
                         for v in (val if isinstance(val, tuple) else (val,)))]
    if non_finite:
        raise ConfigurationError(f"{', '.join(non_finite)} must be finite")
    if not taus:
        raise ConfigurationError("tau_values must be nonempty")
    if any(t <= 0 for t in taus):
        raise ConfigurationError("tau_values must be positive")
    repeated = sorted({a for a, b in zip(taus, taus[1:]) if a == b})
    if repeated:
        raise ConfigurationError(
            f"tau_values must be distinct; repeated: {', '.join(map(repr, repeated))}")
    tau_max = max(taus)
    for key in ("calibrate_rel_tol", "drift_tolerance"):
        if not values[key] > 0.0:
            raise ConfigurationError(f"{key} must be positive")
    check_model_inputs(k_max=values["k_max"])    # the auto grid takes its log

    if values["n_panels"] == "auto" or values["k_min"] == "auto":
        if not (values["k_min"] == "auto" and values["n_panels"] == "auto"):
            raise ConfigurationError(
                "k_min and n_panels must both be auto or both explicit")
        span = values["k_max"] * tau_max / 0.01
        if not math.isfinite(span):
            raise ConfigurationError(
                f"k_max={values['k_max']:.3e} with tau_values up to {tau_max:.3e}: "
                f"the auto grid's span k_max * tau / 0.01 overflows")
        n = max(4, math.ceil(math.log2(span)))
        values["n_panels"] = n
        values["k_min"] = values["k_max"] * 2.0 ** (-n)
    check_model_inputs(**{key: values[key] for key in (
        "beta", "theta_total", "gap_shift", "k_max", "k_min", "n_panels",
        "nodes_per_panel", "cutoff_fraction")})
    if values["k_min"] > 0.01 / tau_max + 1e-15:
        raise ConfigurationError(
            f"k_min={values['k_min']:.3e} does not resolve k ~ 1/tau for "
            f"tau_max={tau_max:.3e} (needs k_min <= {0.01 / tau_max:.3e})")
    if values["s_probe"] <= 1.0:
        raise ConfigurationError("s_probe must exceed the switching window")
    if values["jobs"] < 1:
        raise ConfigurationError("jobs must be >= 1")
    for fmt in values["formats"]:
        if fmt not in ("csv", "json", "svg"):
            raise ConfigurationError(f"unknown output format {fmt!r}")
    if values["window_samples"] < 2:
        raise ConfigurationError("window_samples must be at least 2")
    if values["max_step"] == "auto":
        values["max_step"] = None
    steps_for(values["max_step"])   # rejects max_step <= 0

    beta, gap = values["beta"], values["gap_shift"]
    if values["probe_slope"] == "auto":
        values["probe_slope"] = None if gap > 0.0 else -beta
    elif values["probe_slope"] == "none":
        values["probe_slope"] = None
    if values["probe_tol"] == "auto":
        values["probe_tol"] = 0.15 if beta == 1.0 else (0.10 if beta < 1.0 else 0.12)
    if values["probe_slope_max"] == "auto":
        values["probe_slope_max"] = -2.5 if gap > 0.0 else None
    elif values["probe_slope_max"] == "none":
        values["probe_slope_max"] = None
    if values["window_slope"] == "auto":
        values["window_slope"] = -1.0 if gap > 0.0 else -min(beta, 1.0)
    elif values["window_slope"] == "none":
        values["window_slope"] = None
    if values["window_tol"] == "auto":
        values["window_tol"] = 0.15

    return SweepConfig(**values)


#: run and output settings: they change no result, so they are not hashed
_RUN_SETTINGS = ("directory", "formats", "jobs")


def canonical_config_text(cfg: SweepConfig) -> str:
    """Stable one-line-per-field rendering of the hashed (physics) fields."""
    lines = []
    for key, value in sorted(asdict(cfg).items()):
        if key in _RUN_SETTINGS:
            continue
        if isinstance(value, float):
            value = format_float17(value)
        elif isinstance(value, tuple):
            value = ",".join(format_float17(v) if isinstance(v, float) else str(v)
                             for v in value)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: SweepConfig) -> str:
    return hashlib.sha256(canonical_config_text(cfg).encode()).hexdigest()


def build_model_from_config(cfg: SweepConfig) -> FriedrichsModel:
    grid = build_grid(cfg.k_max, cfg.n_panels, cfg.nodes_per_panel, cfg.k_min)
    ff = build_form_factor(grid, cfg.beta, cfg.cutoff_fraction)
    sw = build_switching(cfg.theta_total)
    return assemble_model(grid, ff, sw, cfg.gap_shift)


def _record(tau: float, result, wall_s: float, s_probe: float) -> SweepRecord:
    if isinstance(result, FriedrichsError):
        drift = result.drift if isinstance(result, IntegrationFailure) else math.nan
        return SweepRecord(tau=tau, leak_probe=math.nan, sup_leak_window=math.nan,
                           unitarity_drift=drift, wall_time_s=0.0, n_steps=0,
                           error=f"{type(result).__name__}: {result}")
    return SweepRecord(tau=tau, leak_probe=result.leak_at(s_probe),
                       sup_leak_window=result.sup_leak_window,
                       unitarity_drift=result.unitarity_drift, wall_time_s=wall_s,
                       n_steps=result.n_window_steps)


@dataclass
class _TrajectoryCache:
    """Records by (n_steps, tau), shared by step calibration and production.

    The only place a sweep integrates.
    """

    cfg: SweepConfig
    model: FriedrichsModel
    records: dict = field(default_factory=dict)
    batches: list = field(default_factory=list)

    def get(self, n_steps: int, taus) -> list[SweepRecord]:
        """Records at n_steps, running the missing taus first as one batch.

        Each new record is credited with the batch's wall time divided by
        its width.
        """
        missing = [t for t in dict.fromkeys(taus) if (n_steps, t) not in self.records]
        if missing:
            start = time.perf_counter()
            try:
                results = evolve_true(self.model, missing, n_steps,
                                      self.cfg.drift_tolerance).results
            except FriedrichsError as exc:
                results = [exc] * len(missing)
            wall_s = (time.perf_counter() - start) / len(missing)
            for t, r in zip(missing, results):
                self.records[(n_steps, t)] = _record(t, r, wall_s, self.cfg.s_probe)
            self.batches.append({"taus": missing, "n_steps": n_steps})
        return [self.records[(n_steps, t)] for t in taus]


def _calibrate_steps(cfg: SweepConfig, cache: _TrajectoryCache) -> tuple[int, dict]:
    """Refine the step count until halving moves probe leaks below tolerance.

    Checked at both ends of the tau range (the smallest leak is the most
    demanding); the step does not depend on tau, so the accepted count
    serves every tau. The first candidate step count runs every tau, so
    that production finds its records in the cache when that count is
    accepted; the halved steps run the two ends. Uncalibrated, the step
    count is max_step's (512 when auto), at least window_samples.
    """
    steps = max(cfg.window_samples, steps_for(cfg.max_step))
    if not cfg.calibrate:
        return steps, {"calibrated": False, "n_steps": steps}
    taus = (cfg.tau_values[0], cfg.tau_values[-1])

    def probe_leaks(n, run_taus):
        by_tau = dict(zip(run_taus, cache.get(n, run_taus)))
        for t in taus:
            if by_tau[t].error is not None:
                raise IntegrationFailure(
                    f"step calibration at tau={t} with {n} steps failed: "
                    f"{by_tau[t].error}", by_tau[t].unitarity_drift)
        return np.array([by_tau[t].leak_probe for t in taus])

    n = max(steps, 2048)
    coarse = probe_leaks(n, cfg.tau_values)
    history = []
    for _ in range(3):
        fine = probe_leaks(2 * n, taus)
        rel = float(np.max(np.abs(coarse - fine) /
                           np.maximum(np.abs(fine), 1e-300)))
        history.append({"n_steps": n, "rel_change": rel})
        if rel <= cfg.calibrate_rel_tol:
            break
        n *= 2
        coarse = fine
    return n, {"calibrated": True, "n_steps": n, "history": history}


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evolve every tau, fit the tails, and evaluate configured checks.

    Step calibration and production draw their records from one cache
    by step count and tau (_TrajectoryCache.get), so production runs
    only the taus calibration did not. A column's result does not depend
    on its batch, records come in tau order, and an integration failure
    taints only its own tau. A calibration whose last halving still
    moved the leaks by more than calibrate_rel_tol fails the
    step_calibration check.
    """
    model = build_model_from_config(cfg)
    cache = _TrajectoryCache(cfg, model)
    n, calibration = _calibrate_steps(cfg, cache)
    reused = sum((n, t) in cache.records for t in cfg.tau_values)
    records = cache.get(n, cfg.tau_values)
    calibration["batches"] = cache.batches
    calibration["reused_trajectories"] = reused

    fits = {}
    good = [r for r in records if r.error is None]
    for name in ("leak_probe", "sup_leak_window"):
        pts = [(r.tau, getattr(r, name)) for r in good if getattr(r, name) > 0.0]
        span = (math.log10(pts[-1][0] / pts[0][0]) if len(pts) >= 2 else 0.0)
        fits[name] = fit_powerlaw(pts) if len(pts) >= 4 and span >= 1.5 else None

    checks = evaluate_checks(cfg, fits)
    if calibration["calibrated"]:
        rel = calibration["history"][-1]["rel_change"]
        checks["step_calibration"] = {"value": rel, "tol": cfg.calibrate_rel_tol,
                                      "pass": rel <= cfg.calibrate_rel_tol}
    if cfg.gap_shift == 0.0 and good:
        # threshold case: the probe leak is a first-order quantity only
        # while the squared in-window amplitude stays subdominant
        ratios = [r.sup_leak_window ** 2 / r.leak_probe for r in good
                  if r.leak_probe > 0.0]
        checks["first_order_dominant"] = {
            "max_ratio": max(ratios) if ratios else None,
            "pass": bool(ratios and max(ratios) <= 0.5)}
    return SweepResult(config=cfg, config_hash=config_hash(cfg),
                       n_nodes=model.measure.n_nodes, records=records,
                       fits=fits, checks=checks, calibration=calibration)


def fit_powerlaw(points) -> FitResult:
    """Least-squares line through (log tau, log value); slope is the exponent."""
    points = sorted((float(t), float(v)) for t, v in points)
    if len(points) < 4:
        raise ConfigurationError(f"need at least 4 points, got {len(points)}")
    bad = [t for t, v in points if v <= 0.0]
    if bad:
        raise FitDomainError(
            f"power-law fit needs positive values; offending tau: {bad}", bad)
    x = np.log([t for t, _ in points])
    y = np.log([v for _, v in points])
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    dof = max(n - 2, 1)
    stderr = float(np.sqrt(np.sum(resid ** 2) / dof / sxx))
    return FitResult(slope=slope, intercept=intercept, slope_stderr=stderr,
                     max_abs_residual=float(np.max(np.abs(resid))), n_points=n)


def evaluate_checks(cfg: SweepConfig, fits: dict) -> dict:
    """Compare fitted slopes against the configured expectations."""
    checks = {}
    probe_fit = fits.get("leak_probe")
    window_fit = fits.get("sup_leak_window")
    if cfg.probe_slope is not None:
        ok = (probe_fit is not None
              and abs(probe_fit.slope - cfg.probe_slope) <= cfg.probe_tol)
        checks["probe_slope"] = {
            "value": None if probe_fit is None else probe_fit.slope,
            "expected": cfg.probe_slope, "tol": cfg.probe_tol, "pass": bool(ok)}
    if cfg.probe_slope_max is not None:
        ok = probe_fit is not None and probe_fit.slope <= cfg.probe_slope_max
        checks["probe_slope_max"] = {
            "value": None if probe_fit is None else probe_fit.slope,
            "max": cfg.probe_slope_max, "pass": bool(ok)}
    if cfg.window_slope is not None:
        ok = (window_fit is not None
              and abs(window_fit.slope - cfg.window_slope) <= cfg.window_tol)
        checks["window_slope"] = {
            "value": None if window_fit is None else window_fit.slope,
            "expected": cfg.window_slope, "tol": cfg.window_tol, "pass": bool(ok)}
    return checks


def render_csv(result: SweepResult) -> str:
    """Fixed column order, 17-digit floats; errored rows are omitted.

    wall_time_s is written as 0.0, so that the bytes do not depend on
    timing; the measured times are in the manifest's records.
    """
    cfg = result.config
    lines = [",".join(CSV_COLUMNS)]
    for r in result.records:
        if r.error is not None:
            continue
        row = (r.tau, cfg.s_probe, r.leak_probe, r.sup_leak_window, cfg.beta,
               cfg.gap_shift, result.n_nodes, cfg.theta_total,
               r.unitarity_drift, 0.0)
        lines.append(",".join(str(v) if isinstance(v, int) else format_float17(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _fit_to_dict(fit: FitResult | None):
    return None if fit is None else asdict(fit)


def render_manifest(result: SweepResult) -> str:
    payload = {
        "code_version": result.code_version,
        "config": asdict(result.config),
        "config_hash": result.config_hash,
        "n_nodes": result.n_nodes,
        "records": [asdict(r) for r in result.records],
        "fits": {k: _fit_to_dict(v) for k, v in result.fits.items()},
        "checks": result.checks,
        "calibration": result.calibration,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _svg_series(points: list[tuple[float, float]], bounds, color: str,
                width=640.0, height=480.0, margin=60.0) -> str:
    x0, x1, y0, y1 = bounds

    def sx(t):
        return margin + (math.log10(t) - x0) / max(x1 - x0, 1e-12) * (width - 2 * margin)

    def sy(v):
        return height - margin - (math.log10(v) - y0) / max(y1 - y0, 1e-12) \
            * (height - 2 * margin)

    coords = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}" />')


def render_svg(result: SweepResult) -> str:
    """Log-log plot: one polyline per data series plus fitted lines."""
    good = [r for r in result.records if r.error is None]
    series = {
        "#1f77b4": [(r.tau, r.leak_probe) for r in good if r.leak_probe > 0],
        "#d62728": [(r.tau, r.sup_leak_window) for r in good
                    if r.sup_leak_window > 0],
    }
    pts = [p for s in series.values() for p in s]
    if not pts:
        raise ConfigurationError("nothing to plot: no positive leak values")
    xs = [math.log10(t) for t, _ in pts]
    ys = [math.log10(v) for _, v in pts]
    bounds = (min(xs), max(xs), min(ys) - 0.2, max(ys) + 0.2)
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
            f'viewBox="0 0 640 480">',
            '<rect x="60" y="60" width="520" height="360" fill="none" '
            'stroke="#000" stroke-width="1" />']
    for color, data in series.items():
        if data:
            body.append(_svg_series(data, bounds, color))
    for name, color in (("leak_probe", "#9edae5"), ("sup_leak_window", "#ff9896")):
        fit = result.fits.get(name)
        data = series["#1f77b4" if name == "leak_probe" else "#d62728"]
        if fit is not None and data:
            t0, t1 = data[0][0], data[-1][0]
            line = [(t, math.exp(fit.intercept) * t ** fit.slope) for t in (t0, t1)]
            body.append(_svg_series(line, bounds, color))
    body.append('<text x="320" y="455" text-anchor="middle" '
                'font-size="13">tau (log)</text>')
    body.append('<text x="20" y="240" font-size="13" '
                'transform="rotate(-90 20 240)">leak (log)</text>')
    body.append("</svg>")
    return "\n".join(body) + "\n"


def emit_report(result: SweepResult, formats=None, out_dir: str | None = None) -> dict:
    """Write the requested formats; returns {format: path}. I/O errors
    propagate as OSError."""
    import os

    formats = tuple(formats) if formats else result.config.formats
    out_dir = out_dir or result.config.directory
    os.makedirs(out_dir, exist_ok=True)
    renderers = {"csv": (render_csv, "sweep.csv"),
                 "json": (render_manifest, "manifest.json"),
                 "svg": (render_svg, "sweep.svg")}
    paths = {}
    for fmt in formats:
        if fmt not in renderers:
            raise ConfigurationError(f"unknown output format {fmt!r}")
        render, name = renderers[fmt]
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render(result))
        paths[fmt] = path
    return paths


def _checked(cls, data: dict, where: str) -> dict:
    """data, if its keys are exactly cls's fields; else a ConfigurationError
    naming the unknown and the missing keys."""
    names = {f.name for f in fields(cls)}
    problems = {"unknown keys": set(data) - names, "missing keys": names - set(data)}
    if any(problems.values()):
        raise ConfigurationError(f"{where}: " + "; ".join(
            f"{k} {', '.join(sorted(v))}" for k, v in problems.items() if v))
    return data


def load_manifest(path: str) -> SweepResult:
    """Rebuild a SweepResult from a stored manifest for re-emission.

    The manifest must hold exactly the fields this version writes.
    """
    where = f"manifest {path}"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = _checked(SweepResult, json.load(fh), where)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot load {where}: {exc}") from exc
    cfg_dict = dict(_checked(SweepConfig, payload["config"], f"{where} config"))
    for key in ("tau_values", "formats"):
        cfg_dict[key] = tuple(cfg_dict[key])
    cfg = SweepConfig(**cfg_dict)
    fits = {k: None if v is None else
            FitResult(**_checked(FitResult, v, f"{where} fit {k}"))
            for k, v in payload["fits"].items()}
    records = [SweepRecord(**_checked(SweepRecord, r, f"{where} record {i}"))
               for i, r in enumerate(payload["records"])]
    return SweepResult(config=cfg, config_hash=payload["config_hash"],
                       n_nodes=payload["n_nodes"], records=records, fits=fits,
                       checks=payload["checks"],
                       calibration=payload["calibration"],
                       code_version=payload["code_version"])
