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

import numpy as np

from .errors import (ConfigurationError, ResourceBudgetError,
                     SpectralSeparationError)
from .model import FriedrichsModel
from .numutil import gauss_panel
from .propagate import evolve_true, steps_for

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


class PolyMatrixProfile:
    """Matrix polynomial in s with an analytic derivative.

    value and derivative take a time or an array of times; an array gives
    the matrices stacked along its leading axes.
    """

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    @classmethod
    def random(cls, dim: int, degree: int, seed: int) -> "PolyMatrixProfile":
        rng = np.random.default_rng(seed)
        c = (rng.standard_normal((degree + 1, dim, dim))
             + 1j * rng.standard_normal((degree + 1, dim, dim)))
        c /= (1.0 + np.arange(degree + 1))[:, None, None]
        return cls(c)

    def value(self, s) -> np.ndarray:
        powers = np.asarray(s, dtype=float)[..., None] ** np.arange(len(self.coeffs))
        return np.tensordot(powers, self.coeffs, axes=1)

    def derivative(self, s) -> np.ndarray:
        m = np.arange(len(self.coeffs), dtype=float)
        s = np.asarray(s, dtype=float)[..., None]
        powers = np.zeros(s.shape[:-1] + m.shape)
        powers[..., 1:] = m[1:] * s ** (m[1:] - 1.0)
        return np.tensordot(powers, self.coeffs, axes=1)


class ExchangeRateProfile:
    """The driving commutator profile i gdot(s) A with analytic derivative.

    Takes a time or an array of times, like PolyMatrixProfile.
    """

    def __init__(self, model: FriedrichsModel):
        self._a = model.exchange_dense()
        self._sw = model.switching

    def value(self, s) -> np.ndarray:
        return 1j * np.multiply.outer(self._sw.gdot(s), self._a)

    def derivative(self, s) -> np.ndarray:
        return 1j * np.multiply.outer(self._sw.gddot(s), self._a)


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


# Sign of the identity Left = _IBP_SIGN * Right, as _ibp_sides defines
# the two sides. With U = V exp(-i tau t H0) and Gamma = Vdot V^dag,
# dU/dt = (Gamma - i tau H) U, so for any Z(t)
#     d/dt (U^dag Z U) = U^dag (Zdot - [Gamma, Z] + i tau [H, Z]) U.
# Take Z = tilde(X): then Zdot - [Gamma, Z] = D, and the cross-block
# division gives Pperp [H, tilde(X)] P = Pperp X P. Since U^dag P U is the
# fixed bound projector P0,
#     i tau Pperp0 U^dag X U P0 = Pperp0 (d/dt (U^dag tilde(X) U) - U^dag D U) P0.
# Multiplying by Y on the right and integrating the derivative term by
# parts gives Left = (1 / (i tau)) Pperp0 (...) = -Right.
_IBP_SIGN = -1


def _unrotate(model: FriedrichsModel, theta: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """V(theta_m)^dag vecs[m] for each row m; exp(-i theta A) in O(N)."""
    c = model.coupling
    b0 = vecs[:, 0]
    cc = vecs[:, 1:] @ c
    cos_m1 = np.cos(theta) - 1.0
    isin = 1j * np.sin(theta)
    out = vecs.copy()
    out[:, 0] += cos_m1 * b0 - isin * cc
    out[:, 1:] += np.multiply.outer(cos_m1 * cc - isin * b0, c)
    return out


def _ibp_sides(model: FriedrichsModel, tau: float, x_profile, y_profile,
               s: float, quad_order: int):
    """Both sides of the identity Left = -Right, each by Gauss quadrature.

    Left: Pperp int_0^s U^dag X U P Y dt.
    Right: (i/tau) Pperp ( [U^dag tilde(X) U P Y]_0^s
                           - int U^dag D U P Y dt
                           - int U^dag tilde(X) U P Ydot dt ),
    where U = V exp(-i tau t H0), P projects on the bound direction e0
    and D is the transport derivative of the tilde'd profile,
    D(t) = V tilde_0( d/dt (V^dag X V) ) V^dag; written out,
    d/dt (V^dag X V) = V^dag Xdot V - i gdot [A, V^dag X V]. The tilde
    reduces to the static cross-block division in the rotated basis.
    The derivation is at _IBP_SIGN.

    Every term is Pperp (U^dag M U e0) (x) Y[0, :], and U e0 = V e0 since
    the bound energy is zero. With m = V^dag X V e0, U^dag X U e0 =
    phase * m for phase = exp(i tau t H0), and U^dag tilde(X) U e0 =
    phase * (0, m[1:] / gaps); D's column is the same division of
    V^dag Xdot V e0 - i gdot (A m - V^dag X V A e0). So each side takes
    three profile matvecs per node and the rotations in O(N), and the
    nodes, stacked, contract in one (dim, q) @ (q, dim) product.
    """
    sw = model.switching
    c = model.coupling
    gaps = model.diag_energies[1:]
    nodes, weights = gauss_panel(0.0, s, quad_order)
    # the quadrature nodes, then the two boundary times
    t = np.concatenate((nodes, [s, 0.0]))
    theta = sw.g(t)
    gd = sw.gdot(t)
    cos, isin = np.cos(theta), 1j * np.sin(theta)
    ve0 = np.empty((len(t), model.dim), dtype=complex)     # V e0
    ve0[:, 0] = cos
    ve0[:, 1:] = np.multiply.outer(isin, c)
    va0 = np.empty_like(ve0)                               # V A e0
    va0[:, 0] = isin
    va0[:, 1:] = np.multiply.outer(cos, c)
    x_vals = x_profile.value(t)
    xv = _unrotate(model, theta, (x_vals @ ve0[:, :, None])[..., 0])
    xva = _unrotate(model, theta, (x_vals @ va0[:, :, None])[..., 0])
    xdv = _unrotate(model, theta,
                    (x_profile.derivative(t) @ ve0[:, :, None])[..., 0])
    a_xv = np.empty_like(xv)                               # A m
    a_xv[:, 0] = xv[:, 1:] @ c
    a_xv[:, 1:] = np.multiply.outer(xv[:, 0], c)
    inner = xdv - 1j * gd[:, None] * (a_xv - xva)
    phase = np.exp(1j * tau * t[:, None] * model.diag_energies)
    col_x = phase * xv
    col_x[:, 0] = 0.0
    col_d = np.zeros_like(col_x)
    col_d[:, 1:] = phase[:, 1:] * inner[:, 1:] / gaps
    col_t = np.zeros_like(col_x)
    col_t[:, 1:] = phase[:, 1:] * xv[:, 1:] / gaps
    y_rows = y_profile.value(t)[:, 0]
    yd_rows = y_profile.derivative(nodes)[:, 0]

    q = quad_order
    lhs = (col_x[:q].T * weights) @ y_rows[:q]
    int_d = (col_d[:q].T * weights) @ y_rows[:q]
    int_y = (col_t[:q].T * weights) @ yd_rows
    boundary = (np.outer(col_t[q], y_rows[q])
                - np.outer(col_t[q + 1], y_rows[q + 1]))
    rhs = (1j / tau) * (boundary - int_d - int_y)
    return lhs, rhs


def verify_ibp(model: FriedrichsModel, tau: float, x_profile=None,
               y_profile=None, s: float = 1.25, quad_order: int = 64,
               profile_tag: str = "default") -> IbpReport:
    """Residual of the integration-by-parts identity on a gapped model.

    The identity moves the in-window leak integral onto boundary terms of
    order 1/tau; it holds exactly, so the residual is pure quadrature
    error and shrinks superalgebraically as quad_order grows. The sign
    of the boundary side is derived (see _IBP_SIGN) and recorded in the
    report. The profiles must map an array of times to the stacked
    matrices, as PolyMatrixProfile and ExchangeRateProfile do.
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
    lhs, rhs = _ibp_sides(model, tau, x_profile, y_profile, s, quad_order)
    residual = float(np.linalg.norm(lhs - _IBP_SIGN * rhs, 2))
    return IbpReport(residual=residual, lhs_norm=float(np.linalg.norm(lhs, 2)),
                     sign=_IBP_SIGN, quad_order=quad_order, tau=tau, s=s,
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
    trajectories = evolve_true(model, tau_list, steps_for(max_step)).trajectories()
    return [(tau, tr.leak_at(s_probe), tr.sup_leak_window)
            for tau, tr in zip(tau_list, trajectories)]
