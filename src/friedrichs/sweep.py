"""Experiment harness: tau sweeps, power-law fits, and report files.

A sweep evolves the bound state once per tau, records the leak after the
window and the in-window supremum, fits log-log slopes,
and emits CSV/JSON/SVG outputs. Runs are deterministic: fixed float
formatting, records ordered by tau, and results independent of how the
taus are batched.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import (ConfigurationError, FitDomainError, FriedrichsError,
                     IntegrationFailure)
from .model import (_INPUT_RULES, FriedrichsModel, assemble_model,
                    build_form_factor, build_grid, build_switching,
                    check_model_inputs)
from .numutil import format_float17
from .propagate import _DRIFT_TOLERANCE, MAX_STEPS, evolve_true, steps_for

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
    "clause",
    "render_clause",
    "slope_checks",
    "evaluate_checks",
    "emit_report",
    "load_manifest",
]

_DEFAULT_TAUS = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0))
#: the grid's Gauss-Jacobi panel spans [0, k_min], k_min <= _K0_TAU / max(tau).
#: Measured, not derived. On the default taus, k_min = 2^-8 (k_min tau_max = 39)
#: with the default 12 Jacobi nodes is within 8.3e-8 relative, at beta = 0.25
#: to 1.75, of the same grid with its bottom at 2^-20, well below the grid's
#: 2.5e-6 to 1.3e-5 node-doubling change. At k_min tau_max = 156, 24 Jacobi
#: nodes still leave 4.0e-5 in the probe at beta = 1.5, and 16 leave 8.5e-3.
_K0_TAU = 40.0


class _Setting(NamedTuple):
    section: str       # the config file's [section]
    grammar: Callable  # parses the key's stripped text
    default: object
    run: bool          # a run setting changes no result and is not hashed


def _setting(section: str, grammar: Callable, default, run: bool = False):
    """A SweepConfig field, declared as the config key of that name."""
    return field(metadata={"setting": _Setting(section, grammar, default, run)})


def _auto(parse: Callable) -> Callable:
    """parse, with auto read as None: a value resolve_config derives."""
    return lambda text: None if text.lower() == "auto" else parse(text)


def _listed(parse: Callable) -> Callable:
    return lambda text: tuple(parse(v) for v in text.replace(",", " ").split())


def _flag(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved sweep parameters (only max_step may stay auto, None).

    Every field is the config key of its name, declared by _setting;
    resolve_config parses and checks the keys in field order.
    """

    beta: float = _setting("model", float, 1.5)
    theta_total: float = _setting("model", float, math.pi / 4.0)
    gap_shift: float = _setting("model", float, 0.0)
    k_max: float = _setting("model", float, 1.0)
    k_min: float = _setting("model", _auto(float), None)
    n_panels: int = _setting("model", _auto(int), None)
    nodes_per_panel: int = _setting("model", int, 8)
    cutoff_fraction: float = _setting("model", float, 0.5)
    tau_values: tuple[float, ...] = _setting("sweep", _listed(float), _DEFAULT_TAUS)
    max_step: float | None = _setting("integrate", _auto(float), None)
    calibrate: bool = _setting("integrate", _flag, True)
    calibrate_rel_tol: float = _setting("integrate", float, 0.005)
    drift_tolerance: float = _setting("integrate", float, _DRIFT_TOLERANCE)
    formats: tuple[str, ...] = _setting("output", _listed(str), ("csv", "json"),
                                        run=True)
    directory: str = _setting("output", str, "out", run=True)
    jobs: int = _setting("output", int, 1, run=True)    # has no effect


#: config key -> its declaration, in SweepConfig's field order
_SETTINGS = {f.name: f.metadata["setting"] for f in fields(SweepConfig)}


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


def _parse_value(grammar: Callable, raw, where: str):
    if not isinstance(raw, str):
        return raw  # already a default
    try:
        return grammar(raw.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {where}: {raw!r} ({exc})") from exc


def load_config_file(path: str) -> dict:
    """Parse the flat key = value config file with bracketed sections.

    Unknown sections or keys are errors; values are validated on resolve.
    A '#' after whitespace starts a comment, also after a value.
    """
    import configparser

    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return _known({section: dict(parser.items(section))
                   for section in parser.sections()})


def _known(raw: dict) -> dict:
    """raw, if every section and key in it is declared on SweepConfig."""
    for section, keys in raw.items():
        if section not in {s.section for s in _SETTINGS.values()}:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in keys:
            if key not in _SETTINGS or _SETTINGS[key].section != section:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{section}]")
    return raw


def resolve_config(raw: dict | None = None, **overrides) -> SweepConfig:
    """Apply defaults, overrides, and the auto rules; validate everything.

    raw maps section -> key -> setting text, from a config file or the
    CLI's flags; _parse_value parses it. An override is already typed.
    Every key is checked by its rule in model._INPUT_RULES, in one call.
    auto is read as None. Auto rules: max_step stays None (512 steps,
    see steps_for), and the grid is graded by ratio-2 panels from k_max
    down to k_min <= _K0_TAU/max(tau) (at least 4 panels), below which
    build_model_from_config puts its Gauss-Jacobi panel. An explicit
    k_min must reach _K0_TAU/max(tau) too.
    """
    raw = _known(raw or {})
    values = {key: _parse_value(s.grammar, raw.get(s.section, {}).get(key, s.default),
                                f"[{s.section}] {key}")
              for key, s in _SETTINGS.items()}
    for key, val in overrides.items():
        if key not in values:
            raise ConfigurationError(f"unknown config override {key!r}")
        if val is not None:
            values[key] = val

    auto = [key for key in ("k_min", "n_panels") if values[key] is None]
    if len(auto) == 1:
        raise ConfigurationError("k_min and n_panels must both be auto or both explicit")
    check_model_inputs(**{key: val for key, val in values.items() if key not in auto})
    values["tau_values"] = tuple(sorted(float(t) for t in values["tau_values"]))
    values["directory"] = os.fspath(values["directory"])   # a str, for the manifest
    tau_max = values["tau_values"][-1]
    if auto:
        span = values["k_max"] * tau_max / _K0_TAU
        if not math.isfinite(span):
            raise ConfigurationError(
                f"k_max={values['k_max']:.3e} with tau_values up to {tau_max:.3e}: "
                f"the auto grid's span k_max * tau / {_K0_TAU:g} overflows")
        n = max(4, math.ceil(math.log2(span)))
        values.update(n_panels=n, k_min=values["k_max"] * 2.0 ** (-n))
    if values["k_min"] > _K0_TAU / tau_max * (1.0 + 1e-12):
        raise ConfigurationError(
            f"k_min={values['k_min']:.3e} does not resolve k ~ 1/tau for "
            f"tau_max={tau_max:.3e} (needs k_min <= {_K0_TAU / tau_max:.3e})")
    return SweepConfig(**values)


def canonical_config_text(cfg: SweepConfig) -> str:
    """Stable one-line-per-field rendering of the hashed (physics) fields."""
    lines = []
    for key in sorted(key for key, s in _SETTINGS.items() if not s.run):
        value = getattr(cfg, key)
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
    """The model on the config's grid: its Gauss-Legendre panels on
    [k_min, k_max] and the Gauss-Jacobi panel for beta on [0, k_min]."""
    grid = build_grid(cfg.k_max, cfg.n_panels, cfg.nodes_per_panel, cfg.k_min,
                      beta=cfg.beta)
    ff = build_form_factor(grid, cfg.beta, cfg.cutoff_fraction)
    sw = build_switching(cfg.theta_total)
    return assemble_model(grid, ff, sw, cfg.gap_shift)


def _record(tau: float, result, wall_s: float) -> SweepRecord:
    if isinstance(result, FriedrichsError):
        drift = result.drift if isinstance(result, IntegrationFailure) else math.nan
        return SweepRecord(tau=tau, leak_probe=math.nan, sup_leak_window=math.nan,
                           unitarity_drift=drift, wall_time_s=0.0, n_steps=0,
                           error=f"{type(result).__name__}: {result}")
    return SweepRecord(tau=tau, leak_probe=result.leak_at(1.0),
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
        its width. A column that fails becomes its tau's errored record.
        """
        missing = [t for t in dict.fromkeys(taus) if (n_steps, t) not in self.records]
        if missing:
            start = time.perf_counter()
            results = evolve_true(self.model, missing, n_steps,
                                  self.cfg.drift_tolerance).results
            wall_s = (time.perf_counter() - start) / len(missing)
            for t, r in zip(missing, results):
                self.records[(n_steps, t)] = _record(t, r, wall_s)
            self.batches.append({"taus": missing, "n_steps": n_steps})
        return [self.records[(n_steps, t)] for t in taus]


def _calibrate_steps(cfg: SweepConfig, cache: _TrajectoryCache) -> tuple[int, dict]:
    """Refine the step count until its half moves probe leaks below tolerance.

    Checked at both ends of the tau range (the smallest leak is the most
    demanding); the step does not depend on tau, so the accepted count
    serves every tau. The candidate count n runs every tau, so that
    production finds its records in the cache when n is accepted; the
    ends run again at n // 2 to compare. An end whose record errored at
    either count is left out of the comparison (its record fails on its
    own); with no end left, rel_change is None and calibration stops. A
    failed check doubles n, whose level below is then already cached;
    four checks reach 8 times the start, and no check doubles past the
    step budget (propagate.MAX_STEPS). Uncalibrated, the step count is
    max_step's (512 when auto); calibration starts from it, at least 2048.
    """
    steps = steps_for(cfg.max_step)
    if not cfg.calibrate:
        return steps, {"calibrated": False, "n_steps": steps}
    ends = (cfg.tau_values[0], cfg.tau_values[-1])
    n = max(steps, 2048)
    cache.get(n, cfg.tau_values)
    history = []
    while True:
        live = [(c.leak_probe, f.leak_probe)
                for f, c in zip(cache.get(n, ends), cache.get(n // 2, ends))
                if f.error is None and c.error is None]
        coarse, fine = np.array(live).reshape(-1, 2).T
        rel = float(np.max(np.abs(coarse - fine) /
                           np.maximum(np.abs(fine), 1e-300))) if live else None
        history.append({"n_steps": n, "against": n // 2, "rel_change": rel})
        if (rel is None or rel <= cfg.calibrate_rel_tol or len(history) == 4
                or 2 * n > MAX_STEPS):
            return n, {"calibrated": True, "n_steps": n, "history": history}
        n *= 2


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evolve every tau, fit the tails, and evaluate the checks.

    Step calibration and production draw their records from one cache
    by step count and tau (_TrajectoryCache.get), so production runs
    only the taus calibration did not. A column's result does not depend
    on its batch, records come in tau order, and an integration failure
    taints only its own tau. evaluate_checks makes every check.
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
        fits[name] = fit_powerlaw(pts) if _fittable([t for t, _ in pts]) else None
    checks = evaluate_checks(cfg, records, fits, calibration)
    return SweepResult(config=cfg, config_hash=config_hash(cfg),
                       n_nodes=model.measure.n_nodes, records=records,
                       fits=fits, checks=checks, calibration=calibration)


def _fittable(taus) -> bool:
    """A sweep fits a slope through 4 or more sorted taus over 1.5 decades."""
    return len(taus) >= 4 and math.log10(taus[-1] / taus[0]) >= 1.5


def fit_powerlaw(points) -> FitResult:
    """Least-squares line through (log tau, log value); slope is the exponent.

    Needs 4 or more points, at two or more taus, whose taus and values
    are finite and positive; FitDomainError names any other points.
    """
    points = sorted((float(t), float(v)) for t, v in points)
    if len(points) < 4:
        raise ConfigurationError(f"need at least 4 points, got {len(points)}")
    bad = [(t, v) for t, v in points
           if not (math.isfinite(t) and t > 0.0 and math.isfinite(v) and v > 0.0)]
    if bad:
        raise FitDomainError(
            f"power-law fit needs finite, positive taus and values; "
            f"offending (tau, value): {bad}", [t for t, _ in bad])
    if points[0][0] == points[-1][0]:
        raise FitDomainError(f"power-law fit needs two distinct taus; every "
                             f"point is at tau={points[0][0]!r}", [t for t, _ in points])
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


def clause(value, **bounds) -> dict:
    """A check's record: its value, the bounds it is held to, and "pass".

    value is a number, a list of numbers, or None or [] (nothing
    measured, which fails); a bound that is itself measured fails the
    same way when it is None. Each number must be at least min, at most
    max, and within tol of expected (of 0 without one). A drop bound
    reads value as a refinement pair (coarse, fine): fine must fall to
    coarse / drop, or to floor where one is given.
    """
    if (value is None or (isinstance(value, list) and not value)
            or None in bounds.values()):
        ok = False
    elif "drop" in bounds:
        coarse, fine = value
        ok = fine <= coarse / bounds["drop"] or fine <= bounds.get("floor", -math.inf)
    else:
        ok = all(bounds.get("min", -math.inf) <= v <= bounds.get("max", math.inf)
                 and abs(v - bounds.get("expected", 0.0)) <= bounds.get("tol", math.inf)
                 for v in (value if isinstance(value, list) else [value]))
    return {"value": value, **bounds, "pass": bool(ok)}


def render_clause(name: str, record: dict) -> str:
    """'name: PASS value (bound value, ...)', the one rendering of a clause."""
    def shown(v):
        return ("[" + ", ".join(map(shown, v)) + "]" if isinstance(v, list)
                else f"{v:.7g}" if isinstance(v, float) else str(v))
    bounds = ", ".join(f"{key} {shown(v)}" for key, v in record.items()
                       if key not in ("value", "pass"))
    verdict = "PASS" if record["pass"] else "FAIL"
    return f"{name}: {verdict} {shown(record['value'])} ({bounds})"


def slope_checks(beta: float, gap_shift: float, fits: dict) -> dict:
    """Compare fitted slopes with the expectations beta and gap_shift fix.

    At threshold (gap_shift = 0) the probe leak falls like tau^-beta,
    within 0.12 (0.10 for beta < 1, 0.15 at beta = 1), and the in-window
    supremum like tau^-min(beta, 1). With a gap the probe leak collapses
    at least as fast as tau^-2.5 and the supremum keeps the 1/tau rate.
    Window slopes are held to 0.15. A missing fit fails its check. The
    tolerances are set, not derived. At beta = 1 the probe carries no
    logarithmic factor (its slope on the default taus is -0.997). The
    factor shows in the window instead, whose first-order amplitude
    ||c/E|| holds the logarithmically divergent integral of k^-1: its
    slope there is -0.929.
    """
    probe, window = (None if fits.get(name) is None else fits[name].slope
                     for name in ("leak_probe", "sup_leak_window"))
    if gap_shift == 0.0:
        tol = 0.15 if beta == 1.0 else (0.10 if beta < 1.0 else 0.12)
        return {"probe_slope": clause(probe, expected=-beta, tol=tol),
                "window_slope": clause(window, expected=-min(beta, 1.0), tol=0.15)}
    return {"probe_slope_max": clause(probe, max=-2.5),
            "window_slope": clause(window, expected=-1.0, tol=0.15)}


def evaluate_checks(cfg: SweepConfig, records: list[SweepRecord], fits: dict,
                    calibration: dict) -> dict:
    """Every check a sweep makes, as clause records by name: no errored
    record; slope_checks where the taus can be fitted (_fittable); the
    last calibration check (n // 2 against n steps) within
    calibrate_rel_tol; at threshold, sup_leak_window^2 / leak_probe at
    most 0.5, as the probe leak is first order only while the squared
    in-window amplitude stays subdominant."""
    good = [r for r in records if r.error is None]
    checks = {"errored_records": clause(len(records) - len(good), max=0)}
    if _fittable(cfg.tau_values):
        checks.update(slope_checks(cfg.beta, cfg.gap_shift, fits))
    if calibration["calibrated"]:
        checks["step_calibration"] = clause(calibration["history"][-1]["rel_change"],
                                            tol=cfg.calibrate_rel_tol)
    if cfg.gap_shift == 0.0 and good:
        ratios = [r.sup_leak_window ** 2 / r.leak_probe for r in good
                  if r.leak_probe > 0.0]
        checks["first_order_dominant"] = clause(max(ratios, default=None), max=0.5)
    return checks


#: sweep.csv's columns in order, each with where its value comes from: the
#: same-named attribute of the record, the config or the result, or a
#: constant. s_probe is a fixed 1.5 label (every s >= 1 reads the leak at
#: s = 1), and wall_time_s a fixed 0.0, so that the bytes do not depend on
#: timing; the measured times are in the manifest's records.
_CSV = (("tau", "record"), ("s_probe", 1.5), ("leak_probe", "record"),
        ("sup_leak_window", "record"), ("beta", "config"), ("gap_shift", "config"),
        ("n_nodes", "result"), ("theta_total", "config"),
        ("unitarity_drift", "record"), ("wall_time_s", 0.0))
CSV_COLUMNS = tuple(name for name, _ in _CSV)


def render_csv(result: SweepResult) -> str:
    """Fixed column order (_CSV), 17-digit floats; errored rows are omitted."""
    lines = [",".join(CSV_COLUMNS)]
    for r in result.records:
        if r.error is not None:
            continue
        source = {"record": r, "config": result.config, "result": result}
        row = (getattr(source[src], name) if isinstance(src, str) else src
               for name, src in _CSV)
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
    """Log-log plot: one polyline per data series plus fitted lines; with no
    positive leak value, the empty frame."""
    good = [r for r in result.records if r.error is None]
    series = {
        "#1f77b4": [(r.tau, r.leak_probe) for r in good if r.leak_probe > 0],
        "#d62728": [(r.tau, r.sup_leak_window) for r in good
                    if r.sup_leak_window > 0],
    }
    pts = [p for s in series.values() for p in s]
    xs = [math.log10(t) for t, _ in pts] or [0.0]     # no points: the empty frame
    ys = [math.log10(v) for _, v in pts] or [0.0]
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


#: output format -> its renderer and file name
_RENDERERS = {"csv": (render_csv, "sweep.csv"),
              "json": (render_manifest, "manifest.json"),
              "svg": (render_svg, "sweep.svg")}
_INPUT_RULES["formats"] = (
    lambda v: isinstance(v, (tuple, list)) and len(v) > 0
    and all(isinstance(f, str) and f in _RENDERERS for f in v),
    f"must be a nonempty list from {', '.join(_RENDERERS)}")


def emit_report(result: SweepResult, formats=None, out_dir: str | None = None) -> dict:
    """Write the requested formats; returns {format: path}.

    formats or out_dir left as None take the config's. Both are checked
    (formats by its config key's rule) and every format is rendered
    before anything is written. I/O errors propagate as OSError.
    """
    formats = result.config.formats if formats is None else formats
    out_dir = result.config.directory if out_dir is None else out_dir
    check_model_inputs(formats=formats, out_dir=out_dir)
    texts = {fmt: _RENDERERS[fmt][0](result) for fmt in formats}
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for fmt, text in texts.items():
        path = os.path.join(out_dir, _RENDERERS[fmt][1])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
    cfg = SweepConfig(**{
        key: tuple(value) if isinstance(_SETTINGS[key].default, tuple) else value
        for key, value in _checked(SweepConfig, payload["config"],
                                   f"{where} config").items()})
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
