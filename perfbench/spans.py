"""Spans around the calls into each friedrichs layer, recorded from outside.

`Tracer.install` replaces public functions on the modules that call them
with wrappers that record a span (name, start, end, parent, pass id) in
memory; `uninstall` puts the originals back, so untraced passes run the
program untouched. Names missing from a module are skipped, so a later
refactor of the package loses a metric rather than breaking the run.

Pool workers inherit the wrappers when they fork but record nothing:
only the parent's spans are kept.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("model", "oscint", "propagate", "sweep", "volterra", "contour")

_MODEL_BUILD = ("build_grid", "build_form_factor", "build_switching",
                "assemble_model")

#: (module whose namespace the caller reads, attribute, span name)
WRAPPED = (
    [("friedrichs.sweep", n, f"model.{n}") for n in _MODEL_BUILD]
    + [("friedrichs.model", n, f"model.{n}") for n in _MODEL_BUILD]
    + [
        ("friedrichs.propagate", "fourier_legendre_moments",
         "oscint.fourier_legendre_moments"),
        ("friedrichs.sweep", "evolve_true", "propagate.evolve_true"),
        ("friedrichs.contour", "evolve_true", "propagate.evolve_true"),
        ("friedrichs.volterra", "evolve_wave_operator",
         "propagate.evolve_wave_operator"),
        ("friedrichs.sweep", "run_sweep", "sweep.run_sweep"),
        # private, but the only outside marker of calibration trajectories
        ("friedrichs.sweep", "_calibrate_steps", "sweep.calibrate"),
        ("friedrichs.sweep", "fit_powerlaw", "sweep.fit_powerlaw"),
        ("friedrichs.sweep", "evaluate_checks", "sweep.evaluate_checks"),
        ("friedrichs.sweep", "emit_report", "sweep.emit_report"),
        ("friedrichs.volterra", "adiabatic_defect", "volterra.adiabatic_defect"),
        ("friedrichs.volterra", "wave_operator_series",
         "volterra.wave_operator_series"),
        ("friedrichs.contour", "slaved_tail_probe", "contour.slaved_tail_probe"),
        ("friedrichs.contour", "ibp_suite", "contour.ibp_suite"),
        ("friedrichs.contour", "verify_ibp", "contour.verify_ibp"),
    ]
)


def _trajectory_attrs(result, args, kwargs):
    return {"steps": result.n_window_steps, "dim": args[0].dim, "width": 1,
            "drift": result.unitarity_drift}


def _wave_attrs(result, args, kwargs):
    model = args[0]
    steps = kwargs["n_steps"] if "n_steps" in kwargs else args[2]
    return {"steps": int(steps), "dim": model.dim, "width": model.dim,
            "drift": float(result[2])}


def _sweep_attrs(result, args, kwargs):
    good = [r for r in result.records if r.error is None]
    return {"rounds": len(result.calibration.get("history", [])),
            "record_steps": sum(r.n_steps for r in good),
            "errored": len(result.records) - len(good),
            "drift": max((r.unitarity_drift for r in good), default=0.0)}


def _emit_attrs(result, args, kwargs):
    return {"bytes": sum(os.path.getsize(p) for p in result.values())}


_ATTRS = {
    "propagate.evolve_true": _trajectory_attrs,
    "propagate.evolve_wave_operator": _wave_attrs,
    "sweep.run_sweep": _sweep_attrs,
    "sweep.emit_report": _emit_attrs,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: object
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _TracedPool:
    """Context manager around a real pool; its span covers submit to join."""

    def __init__(self, tracer, pool):
        self._tracer, self._pool, self._span = tracer, pool, None

    def __enter__(self):
        self._span = self._tracer.open("sweep.pool")
        return self._pool.__enter__()

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.close(self._span, exc[1])


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = None
        self._stack: list[Span] = []
        self._saved: list[tuple] = []
        self._pid = os.getpid()

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                    self.pass_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, exc: BaseException | None = None):
        span.end = time.perf_counter()
        if exc is not None:
            span.error = type(exc).__name__
        self._stack.pop()

    def _wrap(self, fn, name: str):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, exc)
                raise
            self.close(span)
            if attrs is not None:
                try:
                    span.attrs = attrs(result, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass    # a changed signature loses only these attributes
            return result

        return wrapper

    def _wrap_pool(self, cls):
        def factory(*args, **kwargs):
            pool = cls(*args, **kwargs)
            if os.getpid() != self._pid:
                return pool
            return _TracedPool(self, pool)

        return factory

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        module = importlib.import_module("friedrichs.sweep")
        pool_cls = getattr(module, "ProcessPoolExecutor", None)
        if pool_cls is not None:
            self._saved.append((module, "ProcessPoolExecutor", pool_cls))
            module.ProcessPoolExecutor = self._wrap_pool(pool_cls)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str, environment: dict):
        """Write the environment and every span, once, as JSON to `path`."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment,
                       "spans": [asdict(s) for s in self.spans]}, fh)


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part its direct children cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def _compulsory_bytes(span: Span) -> float:
    """Bytes one step must move, from array sizes (cache misses ignored).

    The state, `dim` by `width` complex, is read and written once; the
    step's coupling column needs the N couplings and N frequencies
    (float64) and N moments (complex128).
    """
    n = span.attrs["dim"] - 1
    return 2 * 16 * span.attrs["dim"] * span.attrs["width"] + (8 + 8 + 16) * n


def _stepping(spans: list[Span]) -> tuple[int, float, float]:
    steps = sum(s.attrs["steps"] for s in spans)
    seconds = sum(s.duration for s in spans)
    bytes_ = (sum(_compulsory_bytes(s) * s.attrs["steps"] for s in spans) / steps
              if steps else 0.0)
    return steps, seconds, bytes_


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass (finished spans only)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(name):
        return by_name.get(name, [])

    def total(*names):
        return sum(s.duration for n in names for s in of(n))

    own = _self_times(spans)
    index = {s.id: s for s in spans}

    def inside(span, name):
        p = span.parent
        while p is not None:
            if index[p].name == name:
                return True
            p = index[p].parent
        return False

    m: dict[str, float] = {}
    m["model.build_calls"] = len(of("model.assemble_model"))
    m["model.build_s"] = total(*(f"model.{n}" for n in _MODEL_BUILD))
    m["oscint.moments_calls"] = len(of("oscint.fourier_legendre_moments"))
    m["oscint.moments_s"] = total("oscint.fourier_legendre_moments")

    done = [s for s in of("propagate.evolve_true") if "steps" in s.attrs]
    steps, seconds, bytes_ = _stepping(done)
    m["propagate.trajectories"] = len(of("propagate.evolve_true"))
    m["propagate.steps"] = steps
    m["propagate.evolve_s"] = seconds
    m["propagate.us_per_step"] = 1e6 * seconds / steps if steps else 0.0
    m["propagate.bytes_per_step_computed"] = bytes_
    waves = [s for s in of("propagate.evolve_wave_operator") if "steps" in s.attrs]
    steps, seconds, bytes_ = _stepping(waves)
    m["propagate.wave_steps"] = steps
    m["propagate.wave_s"] = seconds
    m["propagate.wave_bytes_per_step_computed"] = bytes_
    m["propagate.drift_max"] = max(
        [s.attrs["drift"] for s in done + waves + of("sweep.run_sweep")
         if "drift" in s.attrs], default=0.0)

    calib = [s for s in done if inside(s, "sweep.calibrate")]
    calib_steps = sum(s.attrs["steps"] for s in calib)
    record_steps = sum(s.attrs.get("record_steps", 0) for s in of("sweep.run_sweep"))
    m["sweep.calibration_trajectories"] = len(calib)
    m["sweep.calibration_steps"] = calib_steps
    m["sweep.calibration_s"] = total("sweep.calibrate")
    m["sweep.calibration_rounds"] = sum(s.attrs.get("rounds", 0)
                                        for s in of("sweep.run_sweep"))
    m["sweep.useful_step_ratio"] = (record_steps / (record_steps + calib_steps)
                                    if record_steps else 0.0)
    m["sweep.errored_records"] = sum(s.attrs.get("errored", 0)
                                     for s in of("sweep.run_sweep"))
    m["sweep.pool_wait_s"] = total("sweep.pool")
    m["sweep.pool_self_s"] = sum(own[s.id] for s in of("sweep.run_sweep"))
    m["sweep.fit_s"] = total("sweep.fit_powerlaw", "sweep.evaluate_checks")
    m["sweep.emit_s"] = total("sweep.emit_report")
    m["sweep.emit_bytes"] = sum(s.attrs.get("bytes", 0)
                                for s in of("sweep.emit_report"))

    m["volterra.series_s"] = total("volterra.wave_operator_series")
    m["volterra.defect_s"] = total("volterra.adiabatic_defect")
    m["volterra.defect_self_s"] = sum(own[s.id]
                                      for s in of("volterra.adiabatic_defect"))
    m["contour.ibp_calls"] = len(of("contour.verify_ibp"))
    m["contour.ibp_s"] = total("contour.verify_ibp")
    m["contour.tail_probe_s"] = total("contour.slaved_tail_probe")

    for layer in LAYERS:
        mine = [s for s in spans if s.name.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.self_s"] = sum(own[s.id] for s in mine)
        m[f"{layer}.errors"] = sum(1 for s in mine if s.error is not None)
    return m


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    suffix = metric.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.startswith("us_per"):
        return "us"
    if "bytes" in suffix:
        return "B"
    if suffix in ("useful_step_ratio", "drift_max", "failed_ratio"):
        return "1"
    return "count"


def layer_table(runs: list[dict]) -> str:
    """Median calls, self time and errors per layer over traced passes."""
    lines = [f"{'layer':<10} {'calls':>7} {'self_s':>10} {'errors':>6}"]
    for layer in LAYERS:
        calls, self_s, errors = (statistics.median(r[f"{layer}.{k}"] for r in runs)
                                 for k in ("calls", "self_s", "errors"))
        lines.append(f"{layer:<10} {calls:>7g} {self_s:>10.4f} {errors:>6g}")
    return "\n".join(lines)
