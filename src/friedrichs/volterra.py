"""Wave-operator series, its closed-form first-order tail, and the uniform defect.

The wave operator compares the true and frame-following dynamics. It
solves a Volterra equation driven by the interaction kernel

    K(t) = -i gdot(t) [ |c(t)><e0| + |e0><c(t)| ],   c(t)_j = e^{i tau w_j t} c_j,

which vanishes outside the switching window. Iterated integrals of K
give the series terms; parity is exact term by term (even terms preserve
the bound/continuum split, odd terms exchange it), so only odd terms
feed the leak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalOverflow, ResourceBudgetError
from .model import FriedrichsModel, check_model_inputs
from .numutil import (block_norms, cumulative_integration_matrix, gauss_rule,
                      norm_bracket, operator_norm)
from .oscint import rate_transform
from .propagate import evolve_wave_operator

__all__ = [
    "WaveOperatorSeries",
    "kernel_columns",
    "wave_operator_series",
    "first_order_tail",
    "adiabatic_defect",
]

_MAX_N = 512
_MAX_ORDER = 4
#: candidate matrices adiabatic_defect holds before it settles one
_KEEP = 8


def kernel_columns(model: FriedrichsModel, tau: float, t) -> np.ndarray:
    """Bound-to-continuum columns of K at the times t, shape (len(t), N).

    Row m is -i gdot(t_m) e^{i tau w_j t_m} c_j, the whole of K(t_m):
    K is anti-Hermitian, so its bound row is minus the conjugate of the
    column, and the other blocks vanish. Magnitudes are tau-independent.
    """
    t = np.asarray(t, dtype=float)
    phases = np.exp(1j * tau * model.diag_energies[1:] * t[:, None])
    return -1j * model.switching.gdot(t)[:, None] * phases * model.coupling


@dataclass
class WaveOperatorSeries:
    """Iterated-integral terms of the wave operator at one evaluation time."""

    terms: list[np.ndarray]        # terms[i] at s_eval; terms[0] = identity
    tau: float
    quad_order: int
    s_eval: float
    n_panels: int
    term_sup_norms: list[float]    # sup over panel ends of ||term_i(s)||

    def partial_sum(self, up_to: int | None = None) -> np.ndarray:
        k = len(self.terms) if up_to is None else up_to + 1
        return sum(self.terms[:k])

    def parity_defects(self) -> list[float]:
        """Relative norms of the wrong-parity blocks per term (term 1 on)."""
        out = []
        for i, m in enumerate(self.terms[1:], start=1):
            b = block_norms(m)
            scale = max(operator_norm(m), 1e-300)
            if i % 2 == 1:  # odd terms are purely off-diagonal
                bad = max(b["pp"], b["cc"])
            else:
                bad = max(b["pc"], b["cp"])
            out.append(bad / scale)
        return out


def wave_operator_series(model: FriedrichsModel, tau: float, max_order: int = 4,
                         quad_order: int = 64, s_eval: float = 1.0) -> WaveOperatorSeries:
    """Series terms by composite Gauss collocation over the time simplex.

    Each level integrates K(t) against the previous level cumulatively:
    within a panel the integrand is collocated at quad_order Gauss nodes
    and integrated through the Legendre cumulative matrix, which is
    spectrally accurate once the per-panel phase tau * E_max * h stays
    a modest multiple of the node count. Panel count scales with tau
    accordingly. Sized for N <= 512 and max_order <= 4.

    K(t) X depends on X only through its bound row X[0, :] and the
    contraction col(t)^dagger X[1:, :] of its continuum rows, so per
    node a level carries just those two rows, row0 and kc. With start
    the term before the panel and G[m, j] = col_m^dagger col_j,

        row0' = start[0] - half cum @ kc
        kc'   = conj(col) @ start[1:] + half (cum * G) @ row0,

    and the panel adds -half w @ kc to start[0] and half (col^T * w) @
    row0 to start[1:]. The cost per panel and level is O(q dim^2) and
    the (q, dim, dim) stack of level values is never formed; the terms
    are dense only at the panel ends.
    """
    check_model_inputs(tau=tau)
    n_cont = model.dim - 1
    if n_cont > _MAX_N:
        raise ResourceBudgetError(
            f"series evaluation is budgeted for N <= {_MAX_N}, got N={n_cont}")
    if not 1 <= max_order <= _MAX_ORDER:
        raise ResourceBudgetError(
            f"series order is budgeted to {_MAX_ORDER}, got {max_order}")
    if quad_order < 4:
        raise ConfigurationError("quad_order must be at least 4")
    u = min(float(s_eval), 1.0)
    e_max = float(np.max(model.diag_energies))
    n_panels = max(4, math.ceil(tau * e_max * u / quad_order))

    x, w = gauss_rule(quad_order)
    cum = cumulative_integration_matrix(quad_order)
    dim = model.dim
    edges = np.linspace(0.0, u, n_panels + 1)
    starts = [np.eye(dim, dtype=complex)] + \
        [np.zeros((dim, dim), dtype=complex) for _ in range(max_order)]
    sup_norms = [1.0] + [0.0] * max_order
    warm = [None] * (max_order + 1)

    for p in range(n_panels):
        a, b = edges[p], edges[p + 1]
        half = 0.5 * (b - a)
        t_nodes = 0.5 * (a + b) + half * x
        col = kernel_columns(model, tau, t_nodes)   # (q, N)
        cum_g = cum * (col.conj() @ col.T)
        col_w = (col * w[:, None]).T                # (N, q)
        # level 0 is the identity at every node
        row0 = np.zeros((quad_order, dim), dtype=complex)
        row0[:, 0] = 1.0
        kc = np.zeros((quad_order, dim), dtype=complex)
        kc[:, 1:] = col.conj()
        for i in range(1, max_order + 1):
            start = starts[i]
            new_row0 = start[0] - half * (cum @ kc)
            new_kc = col.conj() @ start[1:] + half * (cum_g @ row0)
            start[0] -= half * (w @ kc)
            start[1:] += half * (col_w @ row0)
            sup, warm[i] = operator_norm(start, start=warm[i], return_vector=True)
            sup_norms[i] = max(sup_norms[i], sup)
            row0, kc = new_row0, new_kc

    return WaveOperatorSeries(terms=starts, tau=tau, quad_order=quad_order,
                              s_eval=float(s_eval), n_panels=n_panels,
                              term_sup_norms=sup_norms)


def first_order_tail(model: FriedrichsModel, tau: float) -> tuple[np.ndarray, float]:
    """After-window bound-to-continuum column of the first series term.

    Entries are ghat(tau * k_j) * c_j with ghat the transform of the
    switching rate; the norm scales like tau^(-beta) once tau resolves
    the small-k coupling law. Requires the threshold case gap_shift = 0.
    The series term itself carries a further factor -i from the kernel;
    comparisons against series columns align that phase explicitly.
    """
    check_model_inputs(tau=tau)
    if model.gap_shift != 0.0:
        raise ConfigurationError("first_order_tail requires gap_shift = 0")
    sw = model.switching
    vals = np.array([rate_transform(sw, tau * k) for k in model.measure.nodes])
    vec = vals * model.coupling
    return vec, float(np.linalg.norm(vec))


def adiabatic_defect(model: FriedrichsModel, tau: float,
                     s_grid: np.ndarray | None = None,
                     n_steps: int | None = None) -> float:
    """sup over s of || 1 - wave_operator(s) ||, the uniform error scale.

    The default grid is 200 uniform points in the window plus the frozen
    after-window value. The norms are taken while the wave operator
    evolves (evolve_wave_operator's on_record), so at most _KEEP + 1
    buffers are held, not one matrix per grid point. Each stop forms
    A = 1 - Omega once, into a spare buffer, and gets a bracket
    lo <= ||A|| <= hi from one Rayleigh-Ritz round on a warm 4-column
    block (numutil.norm_bracket; Cauchy interlacing, Parlett, The
    Symmetric Eigenvalue Problem, sec. 11.5); the block then advances by
    one power step. The bracket's Frobenius sum also checks A finite, so
    a non-finite stop raises NumericalOverflow before the Ritz round
    reads it. A stop is kept, buffer and all, only if hi exceeds the best
    lower bound so far; a kept stop is dropped, its buffer back to the
    spares, once its hi falls below that bound, which grows with every
    bracket and every exact norm. When more than _KEEP are held, the one
    with the highest hi is settled by block power iteration
    (numutil.operator_norm, converged to 1e-12 relative or the call
    fails); the rest are settled at the end, highest hi first. A dropped
    stop cannot hold the supremum, so the result is the largest exact
    norm, as if every stop had been settled.
    """
    n_cont = model.dim - 1
    if n_cont > _MAX_N:
        raise ResourceBudgetError(
            f"defect evaluation is budgeted for N <= {_MAX_N}, got N={n_cont}")
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 201)
    if n_steps is None:
        n_steps = 1024
    kept = []                  # (hi, A, warm block) per kept stop
    spare = []                 # buffers of dropped stops, for reuse
    floor = 0.0                # the best lower bound of the supremum
    best = 0.0                 # the largest exact norm
    v = None

    def prune():
        spare.extend(c[1] for c in kept if c[0] < floor)
        kept[:] = [c for c in kept if c[0] >= floor]

    def settle_highest():
        nonlocal floor, best
        _, a, start = kept.pop(max(range(len(kept)), key=lambda i: kept[i][0]))
        best = max(best, operator_norm(a, start=start))
        spare.append(a)
        floor = max(floor, best)
        prune()

    def take(s, omega):
        nonlocal floor, v
        a = spare.pop() if spare else np.empty_like(omega)
        # A = 1 - Omega; negating the float view is exact and several
        # times faster than negating the complex array
        np.negative(omega.view(float), out=a.view(float))
        a.flat[::model.dim + 1] += 1.0
        try:
            lo, hi, v = norm_bracket(a, v)
        except NumericalOverflow:
            raise NumericalOverflow(
                f"non-finite propagator at step {round(s * n_steps)}") from None
        floor = max(floor, lo)
        if hi > floor:
            kept.append((hi, a, v))
        else:
            spare.append(a)
        prune()
        if len(kept) > _KEEP:
            settle_highest()

    evolve_wave_operator(model, tau, n_steps, record_s=s_grid, on_record=take)
    while kept:
        settle_highest()
    return float(best)
