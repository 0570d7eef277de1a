"""Benchmark workloads: inputs from a seed, one pass of each, and its checks.

Every workload calls only public functions of the friedrichs package, and
looks them up on their modules at call time so that `spans.py` can wrap
them. Seed 0 gives exactly the inputs of the acceptance suite. Any other
seed maps onto one of `N_VARIANTS` shipped variants, whose refined
reference values `references.json` holds (see `make_references.py`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from friedrichs import contour, model as fmodel, sweep, volterra

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

N_VARIANTS = 16
# Jitter is downward only: raising the largest sweep tau above 2^20/100
# adds a grid panel (N = 320 -> 336), which would tie the work per step,
# and so every timing, to the seed.
JITTER_DECADES = 0.05

SWEEP_TAUS = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0))
GAPPED_TAUS = (100.0, 158.489, 251.189, 398.107, 630.957, 1000.0)
DEFECT_TAUS = tuple(float(t) for t in np.geomspace(1e2, 1e4, 4))
SERIES_TAU = 100.0
IBP_TAU = 50.0
IBP_SEEDS = (101, 102, 103)

GAPPED_STEPS = 2048
DEFECT_STEPS = 1024
SWEEP_STEPS = 2048          # where calibration settles for every variant
REFINE = 16                 # reference step count / production step count
GAPPED_FLOOR = 1e-13        # below this a collapsed tail is roundoff
# The state has unit norm, so an output carries about 1e-15 of absolute
# roundoff: below 1e-8 that is more, relative to the output, than the
# 1e-7-level step error result_rel_err is there to show, and it changes
# with the seed. Such outputs are still checked, to GAPPED_FLOOR absolute.
REL_ERR_FLOOR = 1e-8


@dataclass(frozen=True)
class Inputs:
    """Everything a workload receives; a pure function of the seed."""

    variant: int
    sweep_taus: tuple[float, ...]
    gapped_taus: tuple[float, ...]
    defect_taus: tuple[float, ...]
    series_tau: float
    ibp_tau: float
    ibp_seeds: tuple[int, ...]
    # problem sizes; only the smoke test shrinks them
    gapped_grid: tuple = (1.0, 17, 8, 1e-5)
    defect_grid: tuple = (1.0, 20, 8, 2.0 ** -20)
    series_grid: tuple = (1.0, 16, 8, 2.0 ** -16)
    ibp_grid: tuple = (1.0, 8, 4, 1e-3)
    gapped_steps: int = GAPPED_STEPS
    defect_steps: int = DEFECT_STEPS
    sweep_overrides: tuple = ()

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in self.__dict__.items()}


def _jitter(taus, rng) -> tuple[float, ...]:
    """Scale each tau by 10^u with u uniform in [-JITTER_DECADES, 0]."""
    return tuple(float(t * 10.0 ** rng.uniform(-JITTER_DECADES, 0.0))
                 for t in taus)


def make_inputs(seed: int) -> Inputs:
    variant = seed % N_VARIANTS
    if variant == 0:
        return Inputs(0, SWEEP_TAUS, GAPPED_TAUS, DEFECT_TAUS, SERIES_TAU,
                      IBP_TAU, IBP_SEEDS)
    rng = np.random.default_rng(variant)
    return Inputs(variant,
                  sweep_taus=_jitter(SWEEP_TAUS, rng),
                  gapped_taus=_jitter(GAPPED_TAUS, rng),
                  defect_taus=_jitter(DEFECT_TAUS, rng),
                  series_tau=_jitter((SERIES_TAU,), rng)[0],
                  ibp_tau=_jitter((IBP_TAU,), rng)[0],
                  ibp_seeds=tuple(s + 10 * variant for s in IBP_SEEDS))


def load_references(inputs: Inputs, path: str = REFERENCES_PATH) -> dict:
    """Stored reference values for the inputs' variant.

    Raises ValueError when the stored inputs differ from `inputs`, so a
    change to input generation cannot silently compare against the
    references of other inputs.
    """
    with open(path, "r", encoding="utf-8") as fh:
        stored = json.load(fh)
    entry = stored["variants"][inputs.variant]
    if entry["inputs"] != json.loads(json.dumps(inputs.as_dict())):
        raise ValueError(f"{path}: variant {inputs.variant} was computed "
                         "for other inputs; regenerate it")
    return entry["values"]


def _build(grid, beta, gap_shift=0.0):
    k_max, n_panels, nodes_per_panel, k_min = grid
    g = fmodel.build_grid(k_max, n_panels, nodes_per_panel, k_min)
    return fmodel.assemble_model(g, fmodel.build_form_factor(g, beta),
                                 fmodel.build_switching(math.pi / 4),
                                 gap_shift=gap_shift)


@dataclass
class PassResult:
    """Outputs of one pass: values compared with references, and checks."""

    values: dict[str, float]
    checks: dict[str, bool]
    csv: str | None = None


@dataclass
class ThresholdSweep:
    """`run_sweep` on the default config, then `emit_report` in csv, json, svg."""

    jobs: int
    ref_key: str = "threshold_sweep"
    rtol: float = 0.005     # the sweep's own calibrate_rel_tol

    def setup(self, inputs: Inputs):
        cfg = sweep.resolve_config({}, tau_values=inputs.sweep_taus,
                                   jobs=self.jobs,
                                   formats=("csv", "json", "svg"),
                                   **dict(inputs.sweep_overrides))
        sweep.build_model_from_config(cfg)
        return cfg

    def run(self, cfg, out_dir: str, serial: bool = False) -> PassResult:
        if serial:
            cfg = replace(cfg, jobs=1)
        result = sweep.run_sweep(cfg)
        paths = sweep.emit_report(result, cfg.formats, out_dir)
        with open(paths["csv"], "r", encoding="utf-8") as fh:
            csv = fh.read()
        values, checks = {}, {}
        for i, r in enumerate(result.records):
            checks[f"record {i} computed"] = r.error is None
            checks[f"record {i} drift"] = r.unitarity_drift <= cfg.drift_tolerance
            values[f"leak_probe[{i}]"] = r.leak_probe
            values[f"sup_leak_window[{i}]"] = r.sup_leak_window
        for name, check in result.checks.items():
            checks[f"sweep check {name}"] = bool(check["pass"])
        return PassResult(values, checks, csv)

    def reference(self, inputs: Inputs, out_dir: str) -> dict[str, float]:
        cfg = replace(self.setup(inputs), calibrate=False,
                      max_step=1.0 / (REFINE * SWEEP_STEPS))
        return self.run(cfg, out_dir).values


@dataclass
class GappedProbe:
    """`slaved_tail_probe` as acceptance criterion 5 runs it."""

    ref_key: str = "gapped_probe"
    rtol: float = 0.005

    def setup(self, inputs: Inputs):
        return inputs, _build(inputs.gapped_grid, 1.5, gap_shift=1.0)

    def run(self, state, out_dir: str, serial: bool = False,
            n_steps: int | None = None) -> PassResult:
        inputs, model = state
        records = contour.slaved_tail_probe(
            model, inputs.gapped_taus,
            max_step=1.0 / (n_steps or inputs.gapped_steps))
        taus = np.array([r[0] for r in records])
        probes = np.maximum([r[1] for r in records], 1e-300)
        sups = np.array([r[2] for r in records])
        probe_slope = np.polyfit(np.log(taus), np.log(probes), 1)[0]
        window_slope = sweep.fit_powerlaw(list(zip(taus, sups))).slope
        pair = np.diff(np.log(probes)) / np.diff(np.log(taus))
        live = np.minimum(probes[:-1], probes[1:]) > GAPPED_FLOOR
        steepening = all(b <= a + 0.25 for a, b, keep_a, keep_b in
                         zip(pair, pair[1:], live, live[1:]) if keep_a and keep_b)
        values = {}
        for i, (p, s) in enumerate(zip(probes, sups)):
            values[f"probe[{i}]"] = float(p)
            values[f"sup[{i}]"] = float(s)
        checks = {"probe slope <= -2.5": probe_slope <= -2.5,
                  "window slope -1 +- 0.15": abs(window_slope + 1.0) <= 0.15,
                  "steepening above floor": steepening}
        return PassResult(values, checks)

    def reference(self, inputs: Inputs, out_dir: str) -> dict[str, float]:
        return self.run(self.setup(inputs), out_dir,
                        n_steps=REFINE * inputs.gapped_steps).values


@dataclass
class VerificationSuite:
    """Criterion 3's defect, criteria 7-8's series and criterion 10's IBP."""

    ref_key: str = "verification_suite"
    # 1024 steps put the tau = 1e4 defect 0.55% off; criterion 3 fits a
    # slope over two decades to +-0.15, which a 1% error moves by < 0.003
    rtol: float = 0.01

    def setup(self, inputs: Inputs):
        return (inputs, _build(inputs.defect_grid, 0.5),
                _build(inputs.series_grid, 1.5),
                _build(inputs.ibp_grid, 1.5, gap_shift=1.0))

    def run(self, state, out_dir: str, serial: bool = False,
            n_steps: int | None = None) -> PassResult:
        inputs, m_defect, m_series, m_ibp = state
        taus = np.array(inputs.defect_taus)
        defects = [volterra.adiabatic_defect(m_defect, t,
                                             n_steps=n_steps or inputs.defect_steps)
                   for t in taus]
        values = {f"defect[{i}]": float(d) for i, d in enumerate(defects)}
        if n_steps is not None:     # a reference needs only the defects
            return PassResult(values, {})
        slope = np.polyfit(np.log(taus), np.log(defects), 1)[0]
        series = volterra.wave_operator_series(m_series, inputs.series_tau,
                                               max_order=4, quad_order=64,
                                               s_eval=1.5)
        checks = {"defect slope -0.5 +- 0.15": abs(slope + 0.5) <= 0.15,
                  "series parity defects <= 1e-9":
                      max(series.parity_defects()) <= 1e-9}
        for order in (64, 128):
            for rep in contour.ibp_suite(m_ibp, inputs.ibp_tau,
                                         quad_order=order,
                                         seeds=inputs.ibp_seeds):
                checks[f"ibp {rep.profile_tag} q={order} residual <= 1e-6"] = \
                    rep.residual <= 1e-6
        return PassResult(values, checks)

    def reference(self, inputs: Inputs, out_dir: str) -> dict[str, float]:
        return self.run(self.setup(inputs), out_dir,
                        n_steps=REFINE * inputs.defect_steps).values


# threshold_sweep_pool and gapped_probe run on request, but BENCHMARK.json
# does not declare them. On two vCPUs of a shared host, the pool's
# run-to-run spread was 0.14-0.18 of the median, and longer runs did not
# help. gapped_probe is the most host-sensitive workload: its per-step
# Python overhead ran about 1.85x slower in the host's busy stretches,
# against 1.6x for threshold_sweep and 1.45x for verification_suite, so
# its spread reached the 0.25 bound. Its layers are still measured:
# propagate by the other two, contour by verification_suite.
WORKLOADS = {
    "threshold_sweep": ThresholdSweep(jobs=1),
    "gapped_probe": GappedProbe(),
    "verification_suite": VerificationSuite(),
    "threshold_sweep_pool": ThresholdSweep(jobs=2),
}


def compare(values: dict[str, float], refs: dict[str, float],
            rtol: float) -> tuple[float, dict]:
    """Largest relative deviation from the references, and one check per value.

    A value passes within rtol relative or GAPPED_FLOOR absolute; the
    largest relative deviation skips references below REL_ERR_FLOOR.
    """
    worst, checks = 0.0, {}
    for key, ref in refs.items():
        dev = abs(values[key] - ref)
        checks[f"{key} matches the reference"] = dev <= rtol * abs(ref) + GAPPED_FLOOR
        if abs(ref) >= REL_ERR_FLOOR and math.isfinite(dev):
            worst = max(worst, dev / abs(ref))
    return worst, checks
