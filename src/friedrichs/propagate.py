"""Time evolution at large adiabaticity parameter tau, and the leak metric.

The true dynamics is integrated in the co-rotating frame, where the
generator is tau * H + gdot(s) * A with H fixed diagonal and A the fixed
exchange generator. Two schemes are provided, both with closed-form
substeps of cost O(N):

* strang_split: diagonal free phase, exact exchange rotation at the
  midpoint rate, diagonal free phase. Second order; the step must
  resolve the free phases, so cost grows linearly with tau.
* interaction_magnus: in the interaction picture the generator is a
  rank-two coupling with oscillating phases. Each step exponentiates the
  exactly integrated generator, with the oscillatory moments
  int gdot(t) exp(i tau omega t) dt evaluated by the Filon machinery.
  The step is limited by the smoothness of gdot alone, not by tau.

Both schemes step by rank-two rotations exp(-i r (|u><e0| + |e0><u|)),
so one loop serves both; strang_split wraps each rotation in half free
phases. The loop evolves a batch of T states at once, one per tau:
`evolve_true` takes one tau or a sequence of them, and a single tau is
the batch T = 1. Every operation acts on each row alone, so a row's
result does not depend on which other taus share its batch.

The interaction generators are prepared in blocks of _RESEED_STEPS (64)
steps, for all T rows together: one real matrix product contracts the
Filon moments, shape (T, N, deg + 1), with the per-step Legendre
coefficients of gdot, so the (T, N, n_steps) array of generators never
exists at once. Within a block the free phases exp(i tau omega t) at
the step midpoints advance by powers of a fixed rotor exp(i tau omega h);
each block re-seeds them with a direct exp, which bounds the rounding
the rotor accumulates to about 64 ulps. The wave-operator evolution
applies the same blocks to a (dim, dim) matrix.

Each step takes one sum of squares of the continuum amplitudes over all
rows; the square root is the leak, and with the bound amplitude, also
kept per step, it gives the norm drift |sqrt(|b0|^2 + cont) - 1|. Drift
and finiteness are evaluated for every step of every row. A row that
goes non-finite or exceeds the drift tolerance fails alone; the other
rows of its batch are unaffected.

For s >= 1 the driving vanishes and the remaining evolution is a single
exact diagonal phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, ContractViolation, FriedrichsError,
                     IntegrationFailure, NumericalOverflow)
from .model import FriedrichsModel, RotatingState, apply_rotation, rotation_dense
from .numutil import legendre_projection
from .oscint import fourier_legendre_moments

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "TrajectoryBatch",
    "GeneratorCheck",
    "evolve_true",
    "evolve_wave_operator",
    "adiabatic_state",
    "leak",
    "to_frame",
    "verify_generators",
    "resolve_scheme",
]

_MAGNUS_DEGREE = 8
_SCHEMES = ("strang_split", "interaction_magnus")
_RESEED_STEPS = 64


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection and step control for one trajectory."""

    scheme: str = "strang_split"
    max_step: float | None = None
    s_end: float = 1.5
    record_times: tuple[float, ...] = ()
    window_samples: int = 256
    drift_tolerance: float = 1e-9
    strang_step_budget: int = 1000

    def __post_init__(self):
        if self.scheme not in _SCHEMES + ("auto",):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.max_step is not None and self.max_step <= 0.0:
            raise ConfigurationError("max_step must be positive")
        if self.record_times and self.s_end < max(self.record_times):
            raise ConfigurationError("s_end must cover all record_times")
        if self.window_samples < 2:
            raise ConfigurationError("window_samples must be at least 2")


@dataclass
class Trajectory:
    """Sampled states and leak values from one integration run.

    In-window samples sit on the step grid: a record time s <= 1 is
    stored at the snapped time round(s * n) / n.
    """

    samples: list[tuple[float, RotatingState, float]]
    tau: float
    unitarity_drift: float
    scheme: str
    n_window_steps: int
    window_s: np.ndarray
    window_leaks: np.ndarray

    @property
    def sup_leak_window(self) -> float:
        return float(np.max(self.window_leaks))

    def leak_at(self, s: float) -> float:
        """Leak recorded at s; an in-window s is looked up at its grid step."""
        if s <= 1.0:
            s = round(s * self.n_window_steps) / self.n_window_steps
        for sv, _, lv in self.samples:
            if abs(sv - s) <= 1e-12:
                return lv
        raise KeyError(f"s={s} was not recorded")


@dataclass
class TrajectoryBatch:
    """One batched run: an entry per tau, in the order the taus were given.

    An entry is the column's Trajectory, or the FriedrichsError that
    rejected that column alone.
    """

    taus: tuple[float, ...]
    results: list
    scheme: str
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


def _strang_h(model: FriedrichsModel, tau: float, config: IntegratorConfig) -> float:
    """Step bound: resolve the driving and keep the free phase per step small."""
    e_max = float(np.max(model.diag_energies))
    h = 0.05 / max(tau * e_max, 1e-12)
    gd = model.switching.gdot_max
    if gd > 0.0:
        h = min(h, 0.05 / gd)
    if config.max_step is not None:
        h = min(h, config.max_step)
    return h


def resolve_scheme(model: FriedrichsModel, tau: float,
                   config: IntegratorConfig) -> str:
    """Pick a concrete scheme for 'auto': strang until its step count
    exceeds the configured budget, the interaction integrator beyond."""
    if config.scheme != "auto":
        return config.scheme
    n_strang = math.ceil(1.0 / _strang_h(model, tau, config))
    return "strang_split" if n_strang <= config.strang_step_budget else "interaction_magnus"


def _window_steps(model: FriedrichsModel, tau: float, config: IntegratorConfig,
                  scheme: str) -> int:
    if scheme == "strang_split":
        n = math.ceil(1.0 / _strang_h(model, tau, config))
    elif config.max_step is not None:
        n = math.ceil(1.0 / config.max_step)
    else:
        n = 512
    return max(n, config.window_samples)


def _interaction_blocks(model: FriedrichsModel, taus: np.ndarray, n_steps: int):
    """Rank-two rotations of the interaction scheme, _RESEED_STEPS steps at a time.

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


def _steps(model: FriedrichsModel, taus: np.ndarray, n_steps: int, scheme: str):
    """(rotation blocks, half free phases or None) of a scheme.

    A strang step rotates by the exchange generator: u is the coupling
    and r = h gdot, the same for every tau, so one block row serves all.
    """
    if scheme != "strang_split":
        return _interaction_blocks(model, taus, n_steps), None
    h = 1.0 / n_steps
    theta = h * model.switching.gdot((np.arange(n_steps) + 0.5) * h)
    u = np.broadcast_to(model.coupling, (n_steps, 1, model.dim - 1))
    block = (0, u, (np.cos(theta) - 1.0)[:, None], (1j * np.sin(theta))[:, None])
    half = np.exp(np.multiply.outer(-0.5j * h * taus, model.diag_energies))
    return [block], half


def _evolve_rows(model: FriedrichsModel, taus: np.ndarray, n: int, scheme: str,
                 config: IntegratorConfig, initial: RotatingState) -> list:
    """The stepping loop: row t of the state evolves with taus[t].

    Returns one Trajectory or FriedrichsError per row.
    """
    frame = "rotating" if scheme == "strang_split" else "interaction"
    record_idx, late_times = set(), []
    for t in sorted(set(config.record_times) | {min(config.s_end, 1.0)}):
        if t <= 1.0:
            record_idx.add(round(t * n))
        else:
            late_times.append(t)

    vec0 = initial.as_vector()
    bound = np.empty((n + 1, len(taus)), dtype=complex)  # b0 after each step
    sq = np.empty((n + 1, len(taus)))    # continuum sum of squares, likewise
    cont = np.tile(vec0[1:], (len(taus), 1))
    cont_r = cont.view(float)
    bound[0] = vec0[0]
    np.vecdot(cont_r, cont_r, out=sq[0])
    kept = {0: np.column_stack((bound[0], cont))} if 0 in record_idx else {}

    blocks, half = _steps(model, taus, n, scheme)
    for start, u, cos_m1, isin in blocks:
        for j in range(len(cos_m1)):
            m = start + j
            b0, nb = bound[m], bound[m + 1]
            if half is not None:
                b0 = b0 * half[:, 0]
                cont *= half[:, 1:]
            uc = np.vecdot(u[j], cont)
            np.multiply(cos_m1[j], b0, out=nb)
            nb -= isin[j] * uc
            nb += b0
            coef = cos_m1[j] * uc
            coef -= isin[j] * b0
            cont += u[j] * coef[:, None]
            if half is not None:
                nb *= half[:, 0]
                cont *= half[:, 1:]
            np.vecdot(cont_r, cont_r, out=sq[m + 1])
            if m + 1 in record_idx:
                kept[m + 1] = np.column_stack((nb, cont))

    leaks = np.sqrt(sq)
    dev = np.abs(np.sqrt(np.abs(bound) ** 2 + sq) - 1.0)
    finite = np.isfinite(bound) & np.isfinite(sq)
    window_s = np.arange(n + 1) / n
    final = np.column_stack((bound[n], cont))
    results = []
    for t, tau in enumerate(taus.tolist()):
        if not finite[:, t].all():
            step = int(np.argmin(finite[:, t]))
            results.append(NumericalOverflow(
                f"non-finite state at step {step} (tau={tau})"))
            continue
        drift = float(np.max(dev[:, t]))
        if drift > config.drift_tolerance:
            results.append(IntegrationFailure(
                f"unitarity drift {drift:.3e} exceeds tolerance "
                f"{config.drift_tolerance:.1e} (tau={tau}, scheme={scheme})",
                drift))
            continue
        samples = [(idx / n, RotatingState.from_vector(kept[idx][t], frame, idx / n),
                    float(leaks[idx, t])) for idx in sorted(kept)]
        for s in late_times:
            vec = final[t]
            if frame == "rotating":
                vec = vec * np.exp(-1j * tau * (s - 1.0) * model.diag_energies)
            samples.append((s, RotatingState.from_vector(vec, frame, s),
                            float(leaks[n, t])))
        results.append(Trajectory(samples=samples, tau=tau, unitarity_drift=drift,
                                  scheme=scheme, n_window_steps=n,
                                  window_s=window_s,
                                  window_leaks=np.ascontiguousarray(leaks[:, t])))
    return results


def evolve_true(model: FriedrichsModel, tau, config: IntegratorConfig,
                initial: RotatingState | None = None):
    """Integrate the driven dynamics from s = 0 and sample the leak.

    The window [0, 1] is covered by uniform steps (at least
    window_samples of them, so the in-window supremum is tracked
    densely); record_times inside the window are snapped to the step
    grid, times past the window are reached by one exact phase step.

    With a single tau, returns its Trajectory or raises its failure.
    With a sequence of taus, which must share one scheme and step count,
    integrates them in one batch and returns a TrajectoryBatch in which
    a failed column holds its error; the other columns are unaffected,
    and each equals its single-tau run bit for bit.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if taus.ndim != 1 or taus.size == 0:
        raise ConfigurationError("tau must be a number or a nonempty sequence")
    if np.any(~(taus > 0.0)):
        raise ConfigurationError(f"tau must be positive, got {tau}")
    if initial is None:
        initial = model.bound_state()
    if abs(initial.norm() - 1.0) > 1e-9:
        raise ContractViolation(f"initial state norm {initial.norm()} is not 1")
    if initial.time_s != 0.0:
        raise ConfigurationError("evolution must start at s = 0")

    plans = set()
    for t in taus.tolist():
        scheme = resolve_scheme(model, t, config)
        plans.add((scheme, _window_steps(model, t, config, scheme)))
    if len(plans) > 1:
        raise ConfigurationError(
            f"a batch must share one scheme and step count; got {sorted(plans)}")
    (scheme, n), = plans
    results = _evolve_rows(model, taus, n, scheme, config, initial)
    if np.ndim(tau) == 0:
        return TrajectoryBatch((float(tau),), results, scheme, n).trajectories()[0]
    return TrajectoryBatch(tuple(taus.tolist()), results, scheme, n)


def _total_norm_dev(state: np.ndarray) -> float:
    sq = np.abs(state[0]) ** 2 + np.sum(np.abs(state[1:]) ** 2, axis=0)
    return float(np.max(np.abs(np.sqrt(sq) - 1.0)))


def evolve_wave_operator(model: FriedrichsModel, tau: float, n_steps: int,
                         record_s: np.ndarray,
                         scheme: str = "interaction_magnus",
                         drift_tolerance: float = 1e-9):
    """Evolve the full basis; in the interaction frame the matrix at time s
    is the wave operator comparing true and frame dynamics.

    Takes the same rotations as evolve_true, applied to the (dim, dim)
    matrix by matrix-vector products. Returns (actual record times
    snapped to the grid, list of matrices, drift). With
    scheme='strang_split' the matrices are rotating-frame propagators
    instead.
    """
    n = int(n_steps)
    blocks, half = _steps(model, np.array([float(tau)]), n, scheme)
    if half is not None:
        half = half[0][:, None]
    record_idx = sorted({min(round(float(t) * n), n) for t in record_s})
    mat = np.eye(model.dim, dtype=complex)
    out, s_out = [], []
    drift = 0.0
    targets = set(record_idx)
    if 0 in targets:
        out.append(mat.copy())
        s_out.append(0.0)
    for start, u, cos_m1, isin in blocks:
        for j in range(len(cos_m1)):
            m = start + j
            if half is not None:
                mat *= half
            b0 = mat[0].copy()
            uc = u[j, 0].conj() @ mat[1:]
            mat[0] += cos_m1[j, 0] * b0 - isin[j, 0] * uc
            mat[1:] += np.multiply.outer(u[j, 0], cos_m1[j, 0] * uc - isin[j, 0] * b0)
            if half is not None:
                mat *= half
            if (m + 1) in targets:
                out.append(mat.copy())
                s_out.append((m + 1) / n)
            if (m + 1) % 64 == 0 or m == n - 1:
                dev = _total_norm_dev(mat)
                if not np.isfinite(dev):
                    raise NumericalOverflow(f"non-finite propagator at step {m + 1}")
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
