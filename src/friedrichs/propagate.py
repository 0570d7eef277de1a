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
matrix, a block of steps at a time (see _apply_rotations).

For s >= 1 the driving vanishes, so the interaction-frame state stays
as it was at the end of the window: a run stops at s = 1, and its leak
at any later s is the leak at s = 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, ContractViolation, FriedrichsError,
                     IntegrationFailure, NumericalOverflow)
from .model import FriedrichsModel, RotatingState, apply_rotation, rotation_dense
from .numutil import legendre_projection
from .oscint import fourier_legendre_moments

__all__ = [
    "steps_for",
    "Trajectory",
    "TrajectoryBatch",
    "GeneratorCheck",
    "evolve_true",
    "evolve_wave_operator",
    "adiabatic_state",
    "leak",
    "to_frame",
    "verify_generators",
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
        d /= np.where(r > 0.0, r, 1.0)[..., None]
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
    if np.any(~(taus > 0.0)):
        raise ConfigurationError(f"tau must be positive, got {tau}")
    if n_steps < 1:
        raise ConfigurationError("n_steps must be at least 1")

    results = _evolve_rows(model, taus, n_steps, drift_tolerance)
    if np.ndim(tau) == 0:
        return TrajectoryBatch((float(tau),), results, n_steps).trajectories()[0]
    return TrajectoryBatch(tuple(taus.tolist()), results, n_steps)


def _total_norm_dev(state: np.ndarray) -> float:
    sq = np.abs(state[0]) ** 2 + np.sum(np.abs(state[1:]) ** 2, axis=0)
    return float(np.max(np.abs(np.sqrt(sq) - 1.0)))


def _apply_rotations(mat: np.ndarray, u: np.ndarray, cos_m1: np.ndarray,
                     isin: np.ndarray) -> None:
    """mat <- R_k ... R_1 mat in place, for the rank-two rotations of k steps.

    R_j = 1 + X_j M_j X_j^dagger with X_j = [e0, u_j] and M_j =
    [[cos r - 1, -i sin r], [-i sin r, cos r - 1]], so the product is the
    identity off the span of Q = [e0, basis], basis an orthonormal basis
    of the u_j. With W the product in Q's coordinates, it equals
    1 + Q (W - 1) Q^dagger: the rotations act on the small W - 1, and
    the matrix takes one BLAS-3 update instead of k rank-one passes.
    """
    basis, coords = np.linalg.qr(u.T)    # u_j = basis @ coords[:, j]
    k, r = len(cos_m1), len(coords)
    x = np.zeros((k, r + 1, 2), dtype=complex)
    x[:, 0, 0] = 1.0
    x[:, 1:, 1] = coords.T
    m = np.empty((k, 2, 2), dtype=complex)
    m[:, 0, 0] = m[:, 1, 1] = cos_m1
    m[:, 0, 1] = m[:, 1, 0] = -isin
    xm = x @ m
    xh = x.conj().transpose(0, 2, 1)
    d = np.zeros((r + 1, r + 1), dtype=complex)     # W - 1
    for j in range(k):
        d += xm[j] @ (xh[j] + xh[j] @ d)
    t = d[:, 1:] @ (basis.conj().T @ mat[1:])
    t += np.multiply.outer(d[:, 0], mat[0])
    mat[0] += t[0]
    mat[1:] += basis @ t[1:]


# perfbench's tracer reads n_steps (third argument or keyword) and the drift
# result[2] to count propagate.wave_steps; keep both where they are
def evolve_wave_operator(model: FriedrichsModel, tau: float, n_steps: int,
                         record_s: np.ndarray, drift_tolerance: float = 1e-9,
                         on_record: Callable[[float, np.ndarray], None] | None = None):
    """Evolve the full basis in the interaction frame; the matrix at time s
    is the wave operator comparing true and frame dynamics.

    Takes the same rotations as evolve_true, applied to the (dim, dim)
    matrix in blocks: the steps between consecutive stops (record steps
    and the end of each _RESEED_STEPS-step block) go in as one update of
    compact-WY form (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10,
    1989), see _apply_rotations. Drift and finiteness are checked at
    every block end, so at least every 64 steps and at the last step.
    Returns (actual record times snapped to the grid, list of matrices,
    drift).

    With on_record, each record stop calls on_record(s, mat) instead of
    keeping a copy, and the list comes back empty: a consumer that
    reduces each matrix as it comes holds one matrix, not one per
    record. mat is the evolving matrix itself, to be read and not kept
    or written; it is checked finite first, so a non-finite stop raises
    NumericalOverflow before the consumer sees it.
    """
    n = int(n_steps)
    record_idx = {min(round(float(t) * n), n) for t in record_s}
    mat = np.eye(model.dim, dtype=complex)
    out, s_out = [], []
    drift = 0.0

    def record(step):
        s_out.append(step / n)
        if on_record is None:
            out.append(mat.copy())
        elif np.isfinite(mat).all():
            on_record(step / n, mat)
        else:
            raise NumericalOverflow(f"non-finite propagator at step {step}")

    if 0 in record_idx:
        record(0)
    for start, u, cos_m1, isin in _interaction_blocks(
            model, np.array([float(tau)]), n):
        stop = start + len(cos_m1)
        a = start
        for b in sorted({i for i in record_idx if start < i < stop} | {stop}):
            _apply_rotations(mat, u[a - start:b - start, 0],
                             cos_m1[a - start:b - start, 0],
                             isin[a - start:b - start, 0])
            a = b
            if b in record_idx:
                record(b)
        dev = _total_norm_dev(mat)
        if not np.isfinite(dev):
            raise NumericalOverflow(f"non-finite propagator at step {stop}")
        drift = max(drift, dev)
    if drift > drift_tolerance:
        raise IntegrationFailure(
            f"propagator drift {drift:.3e} exceeds {drift_tolerance:.1e}", drift)
    return np.array(s_out), out, drift


def adiabatic_state(model: FriedrichsModel, tau: float, s: float) -> RotatingState:
    """Frame-following comparison state V(g(s)) e0 in the lab frame.

    The bound energy is zero, so the dynamical phase drops out and the
    result does not depend on tau (kept in the signature for symmetry
    with the true evolution).
    """
    if s < 0.0:
        raise ConfigurationError(f"s must be >= 0, got {s}")
    st = model.bound_state()
    st.frame = "lab"
    st.time_s = float(s)
    return apply_rotation(model, float(model.switching.g(s)), st)


def to_frame(model: FriedrichsModel, tau: float, state: RotatingState,
             frame: str) -> RotatingState:
    """Convert a state between lab, rotating and interaction frames."""
    if frame not in ("lab", "rotating", "interaction"):
        raise ConfigurationError(f"unknown frame {frame!r}")
    cur = state.copy()
    s = cur.time_s
    if cur.frame == frame:
        return cur
    # go through the rotating frame
    if cur.frame == "lab":
        cur = apply_rotation(model, -float(model.switching.g(s)), cur)
        cur.frame = "rotating"
    elif cur.frame == "interaction":
        vec = cur.as_vector() * np.exp(-1j * tau * s * model.diag_energies)
        cur = RotatingState.from_vector(vec, "rotating", s)
    if frame == "rotating":
        return cur
    if frame == "lab":
        out = apply_rotation(model, float(model.switching.g(s)), cur)
        out.frame = "lab"
        return out
    vec = cur.as_vector() * np.exp(1j * tau * s * model.diag_energies)
    return RotatingState.from_vector(vec, "interaction", s)


def leak(model: FriedrichsModel, state: RotatingState) -> float:
    """Distance of the state from the followed bound direction, in [0, 1].

    In the rotating or interaction frame the followed projection pulls
    back to the fixed bound direction, so the leak is the continuum norm;
    lab-frame states are rotated back first.
    """
    nrm = state.norm()
    if abs(nrm - 1.0) > 1e-6:
        raise ContractViolation(f"state norm {nrm} deviates from 1 beyond 1e-6")
    if state.frame == "lab":
        state = apply_rotation(model, -float(model.switching.g(state.time_s)), state)
    elif state.frame not in ("rotating", "interaction"):
        raise ConfigurationError(f"unknown frame {state.frame!r}")
    return float(np.linalg.norm(state.continuum_amps))


@dataclass
class GeneratorCheck:
    """Residuals comparing the frame generator with the commutator form."""

    s_samples: np.ndarray
    had_vs_hr: np.ndarray          # ||H_AD - H_r|| per sample
    commutator_diag_bound: np.ndarray    # ||P (i[Pdot,P]) P|| per sample
    commutator_diag_complement: np.ndarray
    pdot_fd_error: np.ndarray      # FD residual at h
    pdot_fd_ratio: np.ndarray      # residual(h) / residual(h/2)

    @property
    def max_had_vs_hr(self) -> float:
        return float(np.max(self.had_vs_hr))


def verify_generators(model: FriedrichsModel, tau: float,
                      s_samples=(0.25, 0.5, 0.75), fd_h: float = 2e-3) -> GeneratorCheck:
    """Check H_AD = H_r and the off-diagonality of the commutator generator.

    H_AD adds (i/tau)[Pdot, P] to H(s); H_r adds (i/tau) Vdot V^dagger.
    For rotations generated by the fixed exchange operator the two agree
    identically. Pdot is also validated against central differences.
    """
    s_samples = np.asarray(s_samples, dtype=float)
    a = model.exchange_dense()
    h0 = np.diag(model.diag_energies).astype(complex)
    sw = model.switching
    res_hh, res_pb, res_pc, fd_err, fd_ratio = [], [], [], [], []

    def projector(s):
        v0 = rotation_dense(model, float(sw.g(s)))[:, 0]
        return np.outer(v0, v0.conj())

    for s in s_samples:
        v = rotation_dense(model, float(sw.g(s)))
        hs = v @ h0 @ v.conj().T
        ps = np.outer(v[:, 0], v[:, 0].conj())
        gd = float(sw.gdot(s))
        pdot = 1j * gd * (a @ ps - ps @ a)
        comm = pdot @ ps - ps @ pdot
        h_ad = hs + (1j / tau) * comm
        h_r = hs + (1j / tau) * (1j * gd * a)
        res_hh.append(np.linalg.norm(h_ad - h_r, 2))
        comm_gen = 1j * comm
        res_pb.append(np.linalg.norm(ps @ comm_gen @ ps, 2))
        pperp = np.eye(model.dim) - ps
        res_pc.append(np.linalg.norm(pperp @ comm_gen @ pperp, 2))
        e1 = np.linalg.norm((projector(s + fd_h) - projector(s - fd_h)) / (2 * fd_h)
                            - pdot, 2)
        e2 = np.linalg.norm((projector(s + fd_h / 2) - projector(s - fd_h / 2)) / fd_h
                            - pdot, 2)
        fd_err.append(e1)
        fd_ratio.append(e1 / e2 if e2 > 0 else np.nan)

    return GeneratorCheck(s_samples=s_samples,
                          had_vs_hr=np.array(res_hh),
                          commutator_diag_bound=np.array(res_pb),
                          commutator_diag_complement=np.array(res_pc),
                          pdot_fd_error=np.array(fd_err),
                          pdot_fd_ratio=np.array(fd_ratio))
