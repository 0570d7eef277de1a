"""Discretized bound-state-plus-continuum model with smooth switching.

The continuum L^2(R_+, dk) is realized on a geometrically graded
Gauss-Legendre grid with k in [k_min, k_max]. The coupling density
phi(k) = norm * sqrt(2 beta) k^(beta - 1/2) * cutoff(k) makes the
cumulative coupling weight below x equal norm^2 * x^(2 beta), which is
the small-energy law controlling the long-time leak exponent. Driving
enters through a rotation angle g(s) whose rate is a smooth bump
supported in [0, 1]; the rotation generator exchanges the bound
direction with the coupling direction.
"""

from __future__ import annotations

import math
import numbers
import os
import reprlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError, ConfigurationError
from .numutil import cosine_graded_edges, gauss_panel, gauss_rule

__all__ = [
    "DiscretizedMeasure",
    "FormFactor",
    "SwitchingProfile",
    "FriedrichsModel",
    "PanelLayout",
    "build_grid",
    "build_form_factor",
    "build_switching",
    "assemble_model",
    "check_model_inputs",
    "rotate",
    "bump_function",
    "bump_function_derivative",
]


def bump_function(s):
    """exp(-1/(s(1-s))) on (0, 1), exactly zero outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    out[inside] = np.exp(-1.0 / (si * (1.0 - si)))
    return out if out.ndim else float(out)


def bump_function_derivative(s):
    """Derivative of the bump; vanishes (with all orders) at 0 and 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    q = si * (1.0 - si)
    out[inside] = np.exp(-1.0 / q) * (1.0 - 2.0 * si) / (q * q)
    return out if out.ndim else float(out)


def _cumulative_bump_table(n_panels: int = 64, n_nodes: int = 24):
    """Panel edges on [0,1] and cumulative integrals of the bump up to each edge."""
    edges = cosine_graded_edges(0.0, 1.0, n_panels)
    cum = np.zeros(n_panels + 1)
    for m in range(n_panels):
        x, w = gauss_panel(edges[m], edges[m + 1], n_nodes)
        cum[m + 1] = cum[m] + float(w @ bump_function(x))
    return edges, cum


_BUMP_EDGES, _BUMP_CUM = _cumulative_bump_table()
#: integral of exp(-1/(s(1-s))) over [0, 1]
BUMP_NORM = float(_BUMP_CUM[-1])


def _bump_cumulative(s):
    """Integral of the bump from 0 to s, spectrally accurate, vectorized.

    Each point adds a 24-node Gauss rule on [panel edge, s] to the table
    value at its panel's edge; the nodes and weights of all points are
    built at once.
    """
    s = np.asarray(s, dtype=float)
    flat = np.clip(s.ravel(), 0.0, 1.0)
    idx = np.minimum(np.searchsorted(_BUMP_EDGES, flat, side="right") - 1,
                     len(_BUMP_EDGES) - 2)
    a = _BUMP_EDGES[idx]
    x, w = gauss_rule(24)
    half = 0.5 * (flat - a)
    nodes = a[:, None] + half[:, None] * (x + 1.0)
    out = _BUMP_CUM[idx] + np.vecdot(half[:, None] * w, bump_function(nodes))
    out = out.reshape(s.shape)
    return out if out.ndim else float(out)


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, strictly increasing between."""
    return _bump_cumulative(x) / BUMP_NORM


class SwitchingProfile:
    """Smooth driving pair (g, gdot) with gdot >= 0 supported in [0, 1].

    g rises monotonically from 0 to theta_total and is constant afterwards.
    Instances are immutable: plain data plus methods.
    """

    def __init__(self, theta_total: float):
        # >= 0, where build_switching asks > 0: zero driving is built directly
        holds, rule = _NONNEGATIVE
        if not holds(theta_total):
            raise ConfigurationError(f"theta_total {rule}, got {theta_total}")
        self.theta_total = float(theta_total)
        self.gdot_max = self.theta_total * bump_function(0.5) / BUMP_NORM

    def g(self, s):
        """Accumulated rotation angle; g(0) = 0, g(s >= 1) = theta_total."""
        return self.theta_total * smooth_step(s)

    def gdot(self, s):
        """Rotation rate; a normalized bump on (0, 1), zero elsewhere."""
        return self.theta_total * bump_function(s) / BUMP_NORM

    def gddot(self, s):
        """Second derivative of g, used by analytic transport derivatives."""
        return self.theta_total * bump_function_derivative(s) / BUMP_NORM

    def __repr__(self):
        return f"SwitchingProfile(theta_total={self.theta_total!r})"


@dataclass(frozen=True)
class PanelLayout:
    """Record of the geometric panel subdivision of the energy axis."""

    edges: np.ndarray
    nodes_per_panel: int


@dataclass(frozen=True)
class DiscretizedMeasure:
    """Quadrature nodes and weights standing in for L^2(R_+, dk)."""

    nodes: np.ndarray
    weights: np.ndarray
    k_min: float
    k_max: float
    panel_layout: PanelLayout

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum approximating the integral over [k_min, k_max]."""
        return float(self.weights @ values)


@dataclass(frozen=True)
class FormFactor:
    """Coupling density phi(k_j) with small-k exponent beta."""

    beta: float
    values: np.ndarray
    cutoff_fraction: float
    norm_constant: float

    def __post_init__(self):
        self.values.flags.writeable = False


@dataclass(frozen=True)
class FriedrichsModel:
    """Assembled Hamiltonian data: diagonal energies plus rank-one coupling.

    Basis: index 0 is the bound direction, indices 1..N the continuum
    nodes. The static Hamiltonian is diag(0, k_j + gap_shift). The
    exchange generator A maps e0 -> c and v -> <c, v> e0 with the unit
    coupling vector c_j = phi(k_j) sqrt(w_j).
    """

    measure: DiscretizedMeasure
    form_factor: FormFactor
    switching: SwitchingProfile
    gap_shift: float
    coupling: np.ndarray = field(init=False)
    diag_energies: np.ndarray = field(init=False)

    def __post_init__(self):
        c = self.form_factor.values * np.sqrt(self.measure.weights)
        energies = np.concatenate(([0.0], self.measure.nodes + self.gap_shift))
        c.flags.writeable = False
        energies.flags.writeable = False
        object.__setattr__(self, "coupling", c)
        object.__setattr__(self, "diag_energies", energies)

    @property
    def dim(self) -> int:
        return 1 + self.measure.n_nodes

    def exchange_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim), dtype=complex)
        a[0, 1:] = self.coupling
        a[1:, 0] = self.coupling
        return a


def _reals(holds, ndim: int = 0, distinct: bool = False):
    """The rule that v is a finite real number (ndim 0), or a nonempty
    sequence of them (ndim 1), each of which holds; with distinct, none
    repeated. Ints and floats are real; bools and strings are not, also
    inside a sequence, where np.asarray would coerce a bool to a number."""
    def rule(v):
        if isinstance(v, Sequence) and any(isinstance(t, (bool, np.bool_)) for t in v):
            return False
        try:
            x = np.asarray(v)
        except (TypeError, ValueError):
            return False
        values = x.ravel().tolist()
        return (x.ndim == ndim and x.dtype.kind in "iuf" and x.size > 0
                and all(math.isfinite(t) and holds(t) for t in values)
                and not (distinct and len(set(values)) < len(values)))
    return rule


def _count(least: int):
    """The rule that v is an integer (not a bool) of at least least."""
    return lambda v: (isinstance(v, numbers.Integral) and not isinstance(v, bool)
                      and v >= least)


_is_positive = _reals(lambda v: v > 0.0)
_POSITIVE = (_is_positive, "must be finite and > 0")
_NONNEGATIVE = (_reals(lambda v: v >= 0.0), "must be finite and >= 0")
_TIME = (_reals(lambda v: v >= 0.0), "must be a finite time >= 0")
_TIME_GRID = (_reals(lambda v: v >= 0.0, 1),
              "must be a nonempty sequence of finite times >= 0")
_PATH = (lambda v: isinstance(v, (str, os.PathLike)) and os.fspath(v) != "",
         "must be a nonempty path")

#: every input checked on its own: name -> (condition, rule as stated).
#: propagate adds the n_steps and max_step rules beside its step budget,
#: and sweep the formats rule beside its table of renderers.
_INPUT_RULES = {
    # the model
    "beta": _POSITIVE,
    "theta_total": _POSITIVE,
    "gap_shift": _NONNEGATIVE,
    "k_max": _POSITIVE,
    "k_min": _POSITIVE,
    "n_panels": (_count(1), "must be an integer >= 1"),
    "nodes_per_panel": (_count(2), "must be an integer >= 2"),
    "cutoff_fraction": (_reals(lambda v: 0.0 < v < 1.0), "must lie in (0, 1)"),
    # the evolution and verification entry points
    "tau": _POSITIVE,
    "taus": (_reals(lambda v: v > 0.0, 1),
             "must be a nonempty sequence of finite numbers > 0"),
    "record_s": _TIME_GRID,
    "s_grid": _TIME_GRID,
    "s": _TIME,
    "s_eval": _TIME,
    "quad_order": (_count(1), "must be an integer >= 1"),
    "radius": _POSITIVE,
    "n_points": (_count(16), "must be an integer >= 16"),
    "p": (_reals(lambda v: True), "must be finite"),
    # the sweep's own settings, and emit_report's directory
    "tau_values": (_reals(lambda v: v > 0.0, 1, distinct=True),
                   "must be a nonempty sequence of distinct finite numbers > 0"),
    "calibrate": (lambda v: isinstance(v, (bool, np.bool_)), "must be true or false"),
    "calibrate_rel_tol": _POSITIVE,
    "drift_tolerance": _POSITIVE,
    "directory": _PATH,
    "out_dir": _PATH,
    "jobs": (_count(1), "must be an integer >= 1"),
}


def check_model_inputs(**inputs) -> None:
    """Raise ConfigurationError for the first input that breaks its rule.

    _INPUT_RULES is the one statement of what each named input may be:
    the builders, the evolution and verification entry points and
    resolve_config all check their inputs here. Every number must be
    finite and real (a bool is not a number), a count is an integer, and
    a sequence is a nonempty one-dimensional sequence of numbers. Given
    both grid ends, k_max must also exceed k_min.
    """
    for name, value in inputs.items():
        holds, rule = _INPUT_RULES[name]
        if not holds(value):
            shown = value if np.isscalar(value) else reprlib.repr(value)
            raise ConfigurationError(f"{name} {rule}, got {shown}")
    if {"k_max", "k_min"} <= inputs.keys() and not inputs["k_max"] > inputs["k_min"]:
        raise ConfigurationError(f"k_max must exceed k_min, got k_max="
                                 f"{inputs['k_max']}, k_min={inputs['k_min']}")


def build_grid(k_max: float, n_panels: int, nodes_per_panel: int,
               k_min: float) -> DiscretizedMeasure:
    """Geometric panels from k_max down to k_min, Gauss-Legendre inside each.

    The panel ratio is constant, (k_min/k_max)^(1/n_panels); with
    n_panels = log2(k_max/k_min) this is the ratio-2 grading that keeps
    resolving k ~ 1/tau as tau grows.
    """
    check_model_inputs(k_max=k_max, k_min=k_min, n_panels=n_panels,
                       nodes_per_panel=nodes_per_panel)
    ratio = (k_min / k_max) ** (1.0 / n_panels)
    edges = k_max * ratio ** np.arange(n_panels + 1)  # descending
    edges = edges[::-1].copy()
    edges[0], edges[-1] = k_min, k_max  # kill rounding at the ends
    nodes, weights = [], []
    for m in range(n_panels):
        x, w = gauss_panel(edges[m], edges[m + 1], nodes_per_panel)
        nodes.append(x)
        weights.append(w)
    return DiscretizedMeasure(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        k_min=float(k_min),
        k_max=float(k_max),
        panel_layout=PanelLayout(edges=edges, nodes_per_panel=nodes_per_panel),
    )


def build_form_factor(grid: DiscretizedMeasure, beta: float,
                      cutoff_fraction: float = 0.5) -> FormFactor:
    """Coupling density with integral of phi^2 below x equal to const * x^(2 beta).

    The raw profile sqrt(2 beta) k^(beta - 1/2) is multiplied by a smooth
    cutoff that is 1 below cutoff_fraction * k_max and 0 at k_max, then
    rescaled to unit norm in L^2(w dk). beta = 0 is rejected: phi^2 dk
    would not be integrable at the origin under this realization.
    """
    check_model_inputs(beta=beta, cutoff_fraction=cutoff_fraction)
    k = grid.nodes
    k_on = cutoff_fraction * grid.k_max
    cut = 1.0 - smooth_step((k - k_on) / (grid.k_max - k_on))
    raw = np.sqrt(2.0 * beta) * k ** (beta - 0.5) * cut
    norm_sq = grid.integrate(raw * raw)
    norm_constant = 1.0 / np.sqrt(norm_sq)
    return FormFactor(beta=float(beta), values=norm_constant * raw,
                      cutoff_fraction=float(cutoff_fraction),
                      norm_constant=float(norm_constant))


def build_switching(theta_total: float) -> SwitchingProfile:
    """Smooth switching with total angle theta_total > 0."""
    check_model_inputs(theta_total=theta_total)
    return SwitchingProfile(theta_total)


def assemble_model(grid: DiscretizedMeasure, form_factor: FormFactor,
                   switching: SwitchingProfile, gap_shift: float = 0.0) -> FriedrichsModel:
    """Combine grid, coupling and driving into a model; gap_shift >= 0.

    gap_shift = 0 puts the bound state at the continuum threshold;
    gap_shift > 0 opens a spectral gap below the continuum (control case).
    """
    check_model_inputs(gap_shift=gap_shift)
    if len(form_factor.values) != grid.n_nodes:
        raise AssemblyError(
            f"form factor has {len(form_factor.values)} values for "
            f"{grid.n_nodes} grid nodes")
    model = FriedrichsModel(measure=grid, form_factor=form_factor,
                            switching=switching, gap_shift=float(gap_shift))
    norm = np.linalg.norm(model.coupling)
    if abs(norm - 1.0) > 1e-10:
        raise AssemblyError(f"coupling vector norm {norm} deviates from 1")
    return model


def rotate(model: FriedrichsModel, theta, rows: np.ndarray) -> np.ndarray:
    """exp(i theta_m A) rows[m] for each row m of a (m, dim) array; O(N) a row.

    theta is one angle for every row or one per row. A^2 is the
    orthogonal projector Pi onto span{e0, c}, so
    exp(i theta A) = 1 + (cos theta - 1) Pi + i sin theta A.
    """
    c = model.coupling
    b0 = rows[:, 0]
    cc = rows[:, 1:] @ c
    cos_m1 = np.cos(theta) - 1.0
    isin = 1j * np.sin(theta)
    out = rows.copy()
    out[:, 0] += cos_m1 * b0 + isin * cc
    out[:, 1:] += np.multiply.outer(cos_m1 * cc + isin * b0, c)
    return out
