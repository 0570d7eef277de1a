"""Time evolution at large adiabaticity parameter tau, and the leak metric.

The true dynamics is integrated in the interaction picture. In the
co-rotating frame the generator is tau * H + gdot(s) * A, with H fixed
diagonal and A the fixed exchange generator; taking out the free phases
exp(-i tau s H) leaves a rank-two coupling with oscillating phases. Each
step exponentiates the exactly integrated coupling, with the oscillatory
moments int gdot(t) exp(i tau omega t) dt evaluated by the Filon
machinery, so the step is limited by the smoothness of gdot alone, not
by tau (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999). A step is
a rank-two rotation exp(-i r (|u><e0| + |e0><u|)) of cost O(N).

The loop evolves a batch of T states at once, one per tau:
`evolve_true` takes one tau or a sequence of them, and a single tau is
the batch T = 1. Every operation acts on each row alone, so a row's
result does not depend on which other taus share its batch.

The generators are prepared in blocks of _RESEED_STEPS (64) steps, for
all T rows together: one real matrix product contracts the Filon
moments, shape (T, N, deg + 1), with the per-step Legendre coefficients
of gdot, so the (T, N, n_steps) array of generators never exists at
once. Within a block the free phases exp(i tau omega t) at the step
midpoints advance by powers of a fixed rotor exp(i tau omega h); each
block re-seeds them with a direct exp, which bounds the rounding the
rotor accumulates to about 64 ulps.

Each step takes one sum of squares of the continuum amplitudes over all
rows; the square root is the leak, and with the bound amplitude, also
kept per step, it gives the norm drift |sqrt(|b0|^2 + cont) - 1|. Drift
and finiteness are evaluated for every step of every row. A row that
goes non-finite or exceeds the drift tolerance fails alone; the other
rows of its batch are unaffected.

The wave-operator evolution applies the same rotations to a (dim, dim)
matrix. The product of a block's steps has the compact-WY form
1 + X T X^dagger with X = [e0, u_1, e0, u_2, ...] (Schreiber & Van
Loan, 1989; the T factor of Joffrain et al., 2006): one small triangular
T per block, built in log2(64) doubling rounds, and the product of any
run of the block's steps is a diagonal block of that T. So the matrix
takes two BLAS-3 passes per run between record stops, with no QR and
no loop over steps (see _block_factor and _apply_steps).

For s >= 1 the driving vanishes, so the interaction-frame state stays
as it was at the end of the window: a run stops at s = 1, and its leak
at any later s is the leak at s = 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, FriedrichsError, IntegrationFailure,
                     NumericalOverflow)
from .model import FriedrichsModel, check_model_inputs
from .numutil import legendre_projection
from .oscint import fourier_legendre_moments

__all__ = [
    "steps_for",
    "Trajectory",
    "TrajectoryBatch",
    "evolve_true",
    "evolve_wave_operator",
]

_MAGNUS_DEGREE = 8
_RESEED_STEPS = 64
_AUTO_STEPS = 512


def steps_for(max_step: float | None) -> int:
    """Step count in the window [0, 1] for a cap on the step; auto is 512."""
    if max_step is None:
        return _AUTO_STEPS
    if max_step <= 0.0:
        raise ConfigurationError("max_step must be positive")
    return math.ceil(1.0 / max_step)


@dataclass
class Trajectory:
    """The leak after every step of the window [0, 1], and the final state.

    window_leaks[m] is the leak at s = m / n_window_steps. final_state is
    the packed interaction-frame vector at s = 1; past the window the
    driving vanishes, so it is the state at every s >= 1.
    """

    tau: float
    unitarity_drift: float
    n_window_steps: int
    window_leaks: np.ndarray
    final_state: np.ndarray

    @property
    def sup_leak_window(self) -> float:
        return float(np.max(self.window_leaks))

    def leak_at(self, s: float) -> float:
        """Leak at s >= 0; an in-window s is looked up at its grid step."""
        if not s >= 0.0:
            raise ConfigurationError(f"s must be >= 0, got {s}")
        return float(self.window_leaks[round(min(s, 1.0) * self.n_window_steps)])


@dataclass
class TrajectoryBatch:
    """One batched run: an entry per tau, in the order the taus were given.

    An entry is the column's Trajectory, or the FriedrichsError that
    rejected that column alone.
    """

    # perfbench's tracer reads n_window_steps and unitarity_drift of what
    # evolve_true returns (this or a Trajectory) to count propagate.steps
    taus: tuple[float, ...]
    results: list
    n_window_steps: int

    @property
    def unitarity_drift(self) -> float:
        """Largest drift among the columns that completed."""
        return max((r.unitarity_drift for r in self.results
                    if isinstance(r, Trajectory)), default=0.0)

    def trajectories(self) -> list[Trajectory]:
        """Every column's trajectory; raises the first column error instead."""
        for r in self.results:
            if isinstance(r, FriedrichsError):
                raise r
        return list(self.results)


def _interaction_blocks(model: FriedrichsModel, taus: np.ndarray, n_steps: int):
    """Rank-two rotations of the interaction steps, _RESEED_STEPS at a time.

    Yields (first step, u, cos r - 1, i sin r) with u of shape
    (steps, T, N) and the others (steps, T). Step m of row t rotates by
    d = coupling * exp(i tau_t omega t_m) * mu_t[:, m]: mu is the Filon
    moment of gdot against the free phase over the step, taken relative
    to the midpoint t_m. Then r = |d| and u = d / r (zero when r is).
    The phase at the first step of a block is a direct exp; step k of
    the block multiplies it by the rotor power exp(i tau omega h)^k.
    """
    h = 1.0 / n_steps
    deg = _MAGNUS_DEGREE
    x, _, analysis = legendre_projection(deg + 1)
    mids = (np.arange(n_steps) + 0.5) * h
    t_nodes = mids[:, None] + 0.5 * h * x[None, :]
    # (n_steps, deg + 1): Legendre coefficients of gdot on each step
    coeffs = (0.5 * h) * (model.switching.gdot(t_nodes) @ analysis.T)
    freqs = np.multiply.outer(taus, model.diag_energies[1:])
    # (deg + 1, T, N), with the coupling folded in
    moments = np.moveaxis(fourier_legendre_moments(freqs * 0.5 * h, deg), -1, 0)
    moments = np.ascontiguousarray(moments) * model.coupling
    powers = np.empty((_RESEED_STEPS,) + freqs.shape, dtype=complex)
    powers[0] = 1.0
    powers[1:] = np.exp(1j * freqs * h)
    np.multiply.accumulate(powers, axis=0, out=powers)
    for start in range(0, n_steps, _RESEED_STEPS):
        stop = min(start + _RESEED_STEPS, n_steps)
        seeded = moments * np.exp(1j * freqs * mids[start])
        # one real product over all rows: (steps, deg + 1) @ (deg + 1, 2 T N)
        d = coeffs[start:stop] @ seeded.view(float).reshape(deg + 1, -1)
        d = d.view(complex).reshape((stop - start,) + freqs.shape)
        d *= powers[:stop - start]
        dr = d.view(float)
        r = np.sqrt(np.vecdot(dr, dr))
        # numpy divides complex by real through the reciprocal, so this
        # multiply gives the same bits at a quarter of the cost
        d *= (1.0 / np.where(r > 0.0, r, 1.0))[..., None]
        yield start, d, np.cos(r) - 1.0, 1j * np.sin(r)


def _evolve_rows(model: FriedrichsModel, taus: np.ndarray, n: int,
                 drift_tolerance: float) -> list:
    """The stepping loop from e0: row t of the state evolves with taus[t].

    Returns one Trajectory or FriedrichsError per row.
    """
    bound = np.empty((n + 1, len(taus)), dtype=complex)  # b0 after each step
    sq = np.empty((n + 1, len(taus)))    # continuum sum of squares, likewise
    cont = np.zeros((len(taus), model.measure.n_nodes), dtype=complex)
    cont_r = cont.view(float)
    bound[0] = 1.0
    sq[0] = 0.0

    for start, u, cos_m1, isin in _interaction_blocks(model, taus, n):
        for j in range(len(cos_m1)):
            m = start + j
            b0, nb = bound[m], bound[m + 1]
            uc = np.vecdot(u[j], cont)
            np.multiply(cos_m1[j], b0, out=nb)
            nb -= isin[j] * uc
            nb += b0
            coef = cos_m1[j] * uc
            coef -= isin[j] * b0
            cont += u[j] * coef[:, None]
            np.vecdot(cont_r, cont_r, out=sq[m + 1])

    leaks = np.sqrt(sq)
    dev = np.abs(np.sqrt(np.abs(bound) ** 2 + sq) - 1.0)
    finite = np.isfinite(bound) & np.isfinite(sq)
    results = []
    for t, tau in enumerate(taus.tolist()):
        if not finite[:, t].all():
            step = int(np.argmin(finite[:, t]))
            results.append(NumericalOverflow(
                f"non-finite state at step {step} (tau={tau})"))
            continue
        drift = float(np.max(dev[:, t]))
        if drift > drift_tolerance:
            results.append(IntegrationFailure(
                f"unitarity drift {drift:.3e} exceeds tolerance "
                f"{drift_tolerance:.1e} (tau={tau})", drift))
            continue
        results.append(Trajectory(tau=tau, unitarity_drift=drift, n_window_steps=n,
                                  window_leaks=np.ascontiguousarray(leaks[:, t]),
                                  final_state=np.concatenate((bound[n, t:t + 1],
                                                              cont[t]))))
    return results


def evolve_true(model: FriedrichsModel, tau, n_steps: int,
                drift_tolerance: float = 1e-9):
    """Integrate the driven dynamics from the bound state e0 at s = 0.

    The window [0, 1] is covered by n_steps uniform steps, and the leak
    is kept after every one of them; past the window the
    interaction-frame state is constant, so the run stops at s = 1.

    With a single tau, returns its Trajectory or raises its failure.
    With a sequence of taus, integrates them in one batch and returns a
    TrajectoryBatch in which a failed column holds its error; the other
    columns are unaffected, and each equals its single-tau run bit for
    bit.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if taus.ndim != 1 or taus.size == 0:
        raise ConfigurationError("tau must be a number or a nonempty sequence")
    for t in taus.tolist():
        check_model_inputs(tau=t)
    if n_steps < 1:
        raise ConfigurationError("n_steps must be at least 1")

    results = _evolve_rows(model, taus, n_steps, drift_tolerance)
    if np.ndim(tau) == 0:
        return TrajectoryBatch((float(tau),), results, n_steps).trajectories()[0]
    return TrajectoryBatch(tuple(taus.tolist()), results, n_steps)


def _total_norm_dev(state: np.ndarray) -> float:
    sq = np.abs(state[0]) ** 2 + np.sum(np.abs(state[1:]) ** 2, axis=0)
    return float(np.max(np.abs(np.sqrt(sq) - 1.0)))


def _block_factor(u: np.ndarray, cos_m1: np.ndarray,
                  isin: np.ndarray) -> np.ndarray:
    """T of the compact-WY form R_k ... R_1 = 1 + X T X^dagger of k steps.

    R_j = 1 + X_j M_j X_j^dagger with X_j = [e0, u_j] and M_j =
    [[cos r - 1, -i sin r], [-i sin r, cos r - 1]]; X = [X_1, ..., X_k]
    and T = (1 - M L)^-1 M, (2 k, 2 k), with M block diagonal and L the
    strictly lower block part of X^dagger X (Schreiber & Van Loan, SIAM
    J. Sci. Stat. Comput. 10, 1989; Joffrain et al., ACM TOMS 32, 2006).
    Built in doubling rounds: two adjacent factors T1, T2 merge into
    [[T1, 0], [T2 G21 T1, T2]], G21 the Gram block of the later steps
    against the earlier ones. The steps are padded to a power of two
    with identity steps (M = 0), whose rows and columns of T are zero.
    """
    k = len(cos_m1)
    p = 1 << (k - 1).bit_length()
    t = np.zeros((p, 2, 2), dtype=complex)
    t[:k, 0, 0] = t[:k, 1, 1] = cos_m1
    t[:k, 0, 1] = t[:k, 1, 0] = -isin
    gram = np.zeros((p, 2, p, 2), dtype=complex)   # X^dagger X
    gram[:, 0, :, 0] = 1.0                         # e0 is orthogonal to every u
    gram[:k, 1, :k, 1] = u.conj() @ u.T
    gram = gram.reshape(2 * p, 2 * p)
    w = 2                                          # columns per factor
    while len(t) > 1:
        pair = np.arange(0, len(t), 2)             # the earlier factor of each pair
        g21 = gram.reshape(len(t), w, len(t), w)[pair + 1, :, pair]
        merged = np.zeros((len(t) // 2, 2 * w, 2 * w), dtype=complex)
        merged[:, :w, :w] = t[0::2]
        merged[:, w:, w:] = t[1::2]
        merged[:, w:, :w] = t[1::2] @ g21 @ t[0::2]
        t, w = merged, 2 * w
    return t[0, :2 * k, :2 * k]


def _apply_steps(mat: np.ndarray, u: np.ndarray, t: np.ndarray) -> None:
    """mat <- R_b ... R_a mat in place for a run of steps a..b.

    t is the run's diagonal block of its block's factor T, which is the
    run's own factor: a diagonal block of a block-triangular inverse is
    the inverse of that block. Its e0 rows and columns fold onto one, so
    the product is 1 + Y C Y^dagger with Y = [e0, u_a, ..., u_b] and a
    (k + 1, k + 1) core C, and the matrix takes two BLAS-3 passes.
    """
    k = len(u)
    t = t.reshape(k, 2, k, 2)
    core = np.empty((k + 1, k + 1), dtype=complex)
    core[0, 0] = t[:, 0, :, 0].sum()
    core[0, 1:] = t[:, 0, :, 1].sum(axis=0)
    core[1:, 0] = t[:, 1, :, 0].sum(axis=1)
    core[1:, 1:] = t[:, 1, :, 1]
    y = np.empty((k + 1, mat.shape[1]), dtype=complex)    # Y^dagger mat
    y[0] = mat[0]
    np.matmul(u.conj(), mat[1:], out=y[1:])
    z = core @ y
    mat[0] += z[0]
    mat[1:] += u.T @ z[1:]


# perfbench's tracer reads n_steps (third argument or keyword) and the drift
# result[2] to count propagate.wave_steps; keep both where they are
def evolve_wave_operator(model: FriedrichsModel, tau: float, n_steps: int,
                         record_s: np.ndarray, drift_tolerance: float = 1e-9,
                         on_record: Callable[[float, np.ndarray], None] | None = None):
    """Evolve the full basis in the interaction frame; the matrix at time s
    is the wave operator comparing true and frame dynamics.

    Takes the same rotations as evolve_true, applied to the (dim, dim)
    matrix a run at a time: each _RESEED_STEPS-step block gets one
    compact-WY factor (_block_factor), and the steps between consecutive
    stops (record steps and the block's end) go in as one update built
    from that factor's diagonal block (_apply_steps). A non-finite
    rotation makes its block's whole factor non-finite. Drift and
    finiteness are checked at every block end, so at least every 64
    steps and at the last step. Returns (actual record times snapped to
    the grid, list of matrices, drift).

    With on_record, each record stop calls on_record(s, mat) instead of
    keeping a copy, and the list comes back empty: a consumer that
    reduces each matrix as it comes holds one matrix, not one per
    record. mat is the evolving matrix itself, to be read and not kept
    or written. It is not checked at the stop, so a consumer checks
    finiteness itself before it relies on mat (adiabatic_defect takes it
    from the Frobenius sum its norm bracket needs anyway).
    """
    check_model_inputs(tau=tau)
    n = int(n_steps)
    record_idx = {min(round(float(t) * n), n) for t in record_s}
    mat = np.eye(model.dim, dtype=complex)
    out, s_out = [], []
    drift = 0.0

    def record(step):
        s_out.append(step / n)
        if on_record is None:
            out.append(mat.copy())
        else:
            on_record(step / n, mat)

    if 0 in record_idx:
        record(0)
    for start, u, cos_m1, isin in _interaction_blocks(
            model, np.array([float(tau)]), n):
        stop = start + len(cos_m1)
        t = _block_factor(u[:, 0], cos_m1[:, 0], isin[:, 0])
        a = 0
        for b in sorted({i - start for i in record_idx if start < i < stop}
                        | {stop - start}):
            _apply_steps(mat, u[a:b, 0], t[2 * a:2 * b, 2 * a:2 * b])
            a = b
            if b + start in record_idx:
                record(b + start)
        dev = _total_norm_dev(mat)
        if not np.isfinite(dev):
            raise NumericalOverflow(f"non-finite propagator at step {stop}")
        drift = max(drift, dev)
    if drift > drift_tolerance:
        raise IntegrationFailure(
            f"propagator drift {drift:.3e} exceeds {drift_tolerance:.1e}", drift)
    return np.array(s_out), out, drift
