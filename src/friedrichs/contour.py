"""Resolvent contour calculus and the slaved-leak verification tools.

The tilde operation

    tilde(X) = -(1/2 pi i) closed-integral R(z) X R(z) dz

over a contour enclosing the followed part of the spectrum inverts the
adjoint action of H on the off-diagonal blocks: in the eigenbasis,
cross-block entries are divided by (lambda_out - lambda_in) and diagonal
blocks vanish. On gapped models this underlies an integration-by-parts
identity that exhibits in-window leak as a boundary term slaved to the
bound state; both sides of that identity are evaluated here by
independent quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (ConfigurationError, ResourceBudgetError,
                     SpectralSeparationError)
from .model import (DiscretizedMeasure, FormFactor, FriedrichsModel, PanelLayout,
                    SwitchingProfile, FriedrichsModel as _Model, rotation_dense)
from .numutil import gauss_panel
from .propagate import IntegratorConfig, evolve_true

__all__ = [
    "ContourSpec",
    "tilde",
    "tilde_eigenbasis",
    "PolyMatrixProfile",
    "ExchangeRateProfile",
    "IbpReport",
    "verify_ibp",
    "ibp_suite",
    "slaved_tail_probe",
]

_IBP_MAX_N = 128


@dataclass(frozen=True)
class ContourSpec:
    """Circle contour on which the resolvent sandwich is quadratured."""

    center: complex
    radius: float
    n_points: int = 64

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ConfigurationError("contour radius must be positive")
        if self.n_points < 16:
            raise ConfigurationError("contour needs at least 16 points")

    def points(self) -> np.ndarray:
        # midpoint angles; trapezoid on a circle converges geometrically
        theta = 2.0 * np.pi * (np.arange(self.n_points) + 0.5) / self.n_points
        return self.center + self.radius * np.exp(1j * theta)


def _classify_spectrum(eigs: np.ndarray, contour: ContourSpec) -> np.ndarray:
    """Inside mask; raises unless every eigenvalue clears radius/4 margin."""
    dist = np.abs(eigs - contour.center)
    inside = dist < contour.radius
    margin = np.where(inside, contour.radius - dist, dist - contour.radius)
    worst = float(np.min(margin))
    if worst < contour.radius / 4.0:
        raise SpectralSeparationError(
            f"spectrum clears the contour by only {worst:.3e} "
            f"(needs >= radius/4 = {contour.radius / 4.0:.3e})")
    return inside


def tilde(h: np.ndarray, p: np.ndarray, x: np.ndarray,
          contour: ContourSpec) -> np.ndarray:
    """Contour-quadrature resolvent sandwich of X; dense solves per node.

    The contour must enclose exactly the spectral patch of the projection
    p, with margin; this is checked against the eigenvalues of h.
    """
    eigs = np.linalg.eigvalsh(h)
    inside = _classify_spectrum(eigs, contour)
    rank = int(round(float(np.trace(p).real)))
    if int(np.sum(inside)) != rank:
        raise SpectralSeparationError(
            f"contour encloses {int(np.sum(inside))} eigenvalues but the "
            f"projection has rank {rank}")
    dim = h.shape[0]
    eye = np.eye(dim)
    acc = np.zeros((dim, dim), dtype=complex)
    for z in contour.points():
        rx = np.linalg.solve(h - z * eye, x)
        rxr = np.linalg.solve((h - z * eye).T, rx.T).T
        acc += (z - contour.center) * rxr
    return -acc / contour.n_points


def tilde_eigenbasis(h: np.ndarray, p: np.ndarray, x: np.ndarray,
                     contour: ContourSpec) -> np.ndarray:
    """Reference evaluation through the eigendecomposition of h.

    Cross-block entries of X are divided by (lambda_out - lambda_in);
    both diagonal blocks are annihilated.
    """
    eigs, vecs = np.linalg.eigh(h)
    inside = _classify_spectrum(eigs, contour)
    xe = vecs.conj().T @ x @ vecs
    out = np.zeros_like(xe)
    lam = eigs.astype(float)
    for a in range(len(lam)):
        for b in range(len(lam)):
            if inside[a] == inside[b]:
                continue
            lam_in, lam_out = (lam[a], lam[b]) if inside[a] else (lam[b], lam[a])
            out[a, b] = xe[a, b] / (lam_out - lam_in)
    return vecs @ out @ vecs.conj().T


def _tilde_static(model: FriedrichsModel, x: np.ndarray) -> np.ndarray:
    """Tilde w.r.t. the static diagonal Hamiltonian, in closed form."""
    out = np.zeros_like(x, dtype=complex)
    gaps = model.diag_energies[1:]  # lambda_out - lambda_in = k + gap_shift
    out[0, 1:] = x[0, 1:] / gaps
    out[1:, 0] = x[1:, 0] / gaps
    return out


class PolyMatrixProfile:
    """Matrix polynomial in s with an analytic derivative."""

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    @classmethod
    def random(cls, dim: int, degree: int, seed: int) -> "PolyMatrixProfile":
        rng = np.random.default_rng(seed)
        c = (rng.standard_normal((degree + 1, dim, dim))
             + 1j * rng.standard_normal((degree + 1, dim, dim)))
        c /= (1.0 + np.arange(degree + 1))[:, None, None]
        return cls(c)

    def value(self, s: float) -> np.ndarray:
        powers = float(s) ** np.arange(len(self.coeffs))
        return np.einsum("m,mjk->jk", powers, self.coeffs)

    def derivative(self, s: float) -> np.ndarray:
        m = np.arange(len(self.coeffs), dtype=float)
        powers = np.zeros_like(m)
        powers[1:] = m[1:] * float(s) ** (m[1:] - 1.0)
        return np.einsum("m,mjk->jk", powers, self.coeffs)


class ExchangeRateProfile:
    """The driving commutator profile i gdot(s) A with analytic derivative."""

    def __init__(self, model: FriedrichsModel):
        self._a = model.exchange_dense()
        self._sw = model.switching

    def value(self, s: float) -> np.ndarray:
        return 1j * float(self._sw.gdot(s)) * self._a

    def derivative(self, s: float) -> np.ndarray:
        return 1j * float(self._sw.gddot(s)) * self._a


@dataclass
class IbpReport:
    """Result of one integration-by-parts identity check."""

    residual: float
    lhs_norm: float
    sign: int
    quad_order: int
    tau: float
    s: float
    profile_tag: str


@lru_cache(maxsize=1)
def _calibrated_sign() -> int:
    """Fix the global sign of the boundary side on a 2-by-2 probe."""
    measure = DiscretizedMeasure(
        nodes=np.array([1.0]), weights=np.array([1.0]), k_min=0.5, k_max=1.5,
        panel_layout=PanelLayout(edges=np.array([0.5, 1.5]), nodes_per_panel=1))
    ff = FormFactor(beta=1.0, values=np.array([1.0]), cutoff_fraction=0.5,
                    norm_constant=1.0)
    tiny = _Model(measure=measure, form_factor=ff,
                  switching=SwitchingProfile(np.pi / 4), gap_shift=1.0)
    lhs, rhs = _ibp_sides(tiny, tau=40.0, x_profile=ExchangeRateProfile(tiny),
                          y_profile=PolyMatrixProfile.random(2, 2, seed=7),
                          s=1.25, quad_order=160)
    plus = np.linalg.norm(lhs - rhs)
    minus = np.linalg.norm(lhs + rhs)
    if not (plus < 1e-3 * minus or minus < 1e-3 * plus):
        raise SpectralSeparationError(
            "sign calibration probe was inconclusive; "
            f"residuals {plus:.3e} / {minus:.3e}")
    return 1 if plus < minus else -1


def _ibp_sides(model: FriedrichsModel, tau: float, x_profile, y_profile,
               s: float, quad_order: int):
    """Both sides of the identity, each by its own Gauss quadrature.

    Left: Pperp int_0^s U^dag X U P Y dt.
    Right: (i/tau) Pperp ( [U^dag tilde(X) U P Y]_0^s
                           - int U^dag D U P Y dt
                           - int U^dag tilde(X) U P Ydot dt ),
    where D is the transport derivative of the tilde'd profile,
    D(t) = V tilde_0( d/dt (V^dag X V) ) V^dag; written out,
    d/dt (V^dag X V) = V^dag Xdot V - i gdot [A, V^dag X V]. The tilde
    reduces to the static cross-block division in the rotated basis.
    """
    dim = model.dim
    sw = model.switching
    a_dense = model.exchange_dense()
    energies = model.diag_energies

    def u_ad(t):
        v = rotation_dense(model, float(sw.g(t)))
        return v * np.exp(-1j * tau * t * energies)[None, :]

    def rotated(t, m):
        v = rotation_dense(model, float(sw.g(t)))
        return v.conj().T @ m @ v, v

    def tilde_of_x(t):
        xv, v = rotated(t, x_profile.value(t))
        return v @ _tilde_static(model, xv) @ v.conj().T

    def transport_derivative(t):
        xv, v = rotated(t, x_profile.value(t))
        xdv = v.conj().T @ x_profile.derivative(t) @ v
        gd = float(sw.gdot(t))
        inner = xdv - 1j * gd * (a_dense @ xv - xv @ a_dense)
        return v @ _tilde_static(model, inner) @ v.conj().T

    pperp = np.eye(dim, dtype=complex)
    pperp[0, 0] = 0.0

    def project(m):
        out = m.copy()
        out[0, :] = 0.0       # Pperp on the left
        return out

    def bound_column_only(m):
        out = np.zeros_like(m)
        out[:, 0] = m[:, 0]   # P on the right of U^dag X U
        return out

    nodes, weights = gauss_panel(0.0, s, quad_order)
    lhs = np.zeros((dim, dim), dtype=complex)
    int_d = np.zeros((dim, dim), dtype=complex)
    int_y = np.zeros((dim, dim), dtype=complex)
    for t, w in zip(nodes, weights):
        u = u_ad(t)
        y = y_profile.value(t)
        yd = y_profile.derivative(t)
        core = u.conj().T @ x_profile.value(t) @ u
        lhs += w * project(bound_column_only(core) @ y)
        core_d = u.conj().T @ transport_derivative(t) @ u
        int_d += w * project(bound_column_only(core_d) @ y)
        core_t = u.conj().T @ tilde_of_x(t) @ u
        int_y += w * project(bound_column_only(core_t) @ yd)

    def boundary(t):
        u = u_ad(t)
        core = u.conj().T @ tilde_of_x(t) @ u
        return project(bound_column_only(core) @ y_profile.value(t))

    rhs = (1j / tau) * (boundary(s) - boundary(0.0) - int_d - int_y)
    return lhs, rhs


def verify_ibp(model: FriedrichsModel, tau: float, x_profile=None,
               y_profile=None, s: float = 1.25, quad_order: int = 64,
               profile_tag: str = "default") -> IbpReport:
    """Residual of the integration-by-parts identity on a gapped model.

    The identity moves the in-window leak integral onto boundary terms of
    order 1/tau; it holds exactly, so the residual is pure quadrature
    error and shrinks superalgebraically as quad_order grows. The overall
    sign of the boundary side is fixed once by a 2-by-2 probe and
    recorded in the report.
    """
    if model.gap_shift <= 0.0:
        raise ConfigurationError("the identity check needs gap_shift > 0")
    if model.dim - 1 > _IBP_MAX_N:
        raise ResourceBudgetError(
            f"identity check budgeted for N <= {_IBP_MAX_N}")
    if x_profile is None:
        x_profile = ExchangeRateProfile(model)
    if y_profile is None:
        y_profile = PolyMatrixProfile.random(model.dim, 2, seed=11)
    sign = _calibrated_sign()
    lhs, rhs = _ibp_sides(model, tau, x_profile, y_profile, s, quad_order)
    residual = float(np.linalg.norm(lhs - sign * rhs, 2))
    return IbpReport(residual=residual, lhs_norm=float(np.linalg.norm(lhs, 2)),
                     sign=sign, quad_order=quad_order, tau=tau, s=s,
                     profile_tag=profile_tag)


def ibp_suite(model: FriedrichsModel, tau: float, s: float = 1.25,
              quad_order: int = 64, seeds=(101, 102, 103)) -> list[IbpReport]:
    """Default profile pair plus seeded random smooth polynomial pairs."""
    reports = [verify_ibp(model, tau, s=s, quad_order=quad_order)]
    for seed in seeds:
        xp = PolyMatrixProfile.random(model.dim, 3, seed=seed)
        yp = PolyMatrixProfile.random(model.dim, 2, seed=seed + 5000)
        reports.append(verify_ibp(model, tau, x_profile=xp, y_profile=yp,
                                  s=s, quad_order=quad_order,
                                  profile_tag=f"random-{seed}"))
    return reports


def slaved_tail_probe(model: FriedrichsModel, tau_list, s_probe: float = 1.5,
                      max_step: float | None = None):
    """Leak at a post-window probe for each tau on a gapped model.

    Intended for slope fitting: with a gap the in-window leak is slaved
    to the bound state and collapses after the window, so the probe
    values fall faster than any tested power while the in-window
    supremum keeps the 1/tau rate. All taus run as one batch. Returns
    (tau, probe leak, window sup) records ordered by tau.
    """
    tau_list = sorted(float(t) for t in tau_list)
    if model.gap_shift <= 0.0:
        raise ConfigurationError("slaved-tail probe expects a gapped model")
    if model.gap_shift * tau_list[0] < 50.0:
        raise ConfigurationError(
            "gap times smallest tau must reach 50 for the probe to be "
            f"meaningful; got {model.gap_shift * tau_list[0]:.1f}")
    cfg = IntegratorConfig(scheme="interaction_magnus", max_step=max_step,
                           s_end=s_probe, record_times=(s_probe,))
    trajectories = evolve_true(model, tau_list, cfg).trajectories()
    return [(tau, tr.leak_at(s_probe), tr.sup_leak_window)
            for tau, tr in zip(tau_list, trajectories)]
