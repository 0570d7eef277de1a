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
from .model import FriedrichsModel, check_model_inputs, rotate
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


class _SeparableProfile:
    """A matrix profile written as a separable sum X(s) = sum_k f_k(s) C_k.

    Subclasses give the coefficients coeffs, (K, dim, dim), and the
    weights f_k and their derivatives at a time or an array of times,
    (..., K). value and derivative form the matrices, stacked along the
    time's leading axes; the identity check never forms them and
    contracts the weights with products of the coefficients instead.
    """

    coeffs: np.ndarray

    def weights(self, s) -> np.ndarray:
        raise NotImplementedError

    def derivative_weights(self, s) -> np.ndarray:
        raise NotImplementedError

    def value(self, s) -> np.ndarray:
        return np.tensordot(self.weights(s), self.coeffs, axes=1)

    def derivative(self, s) -> np.ndarray:
        return np.tensordot(self.derivative_weights(s), self.coeffs, axes=1)


class PolyMatrixProfile(_SeparableProfile):
    """Matrix polynomial in s: the weights are the powers s^k."""

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    @classmethod
    def random(cls, dim: int, degree: int, seed: int) -> "PolyMatrixProfile":
        rng = np.random.default_rng(seed)
        c = (rng.standard_normal((degree + 1, dim, dim))
             + 1j * rng.standard_normal((degree + 1, dim, dim)))
        c /= (1.0 + np.arange(degree + 1))[:, None, None]
        return cls(c)

    def weights(self, s) -> np.ndarray:
        return np.asarray(s, dtype=float)[..., None] ** np.arange(len(self.coeffs))

    def derivative_weights(self, s) -> np.ndarray:
        m = np.arange(len(self.coeffs), dtype=float)
        s = np.asarray(s, dtype=float)[..., None]
        powers = np.zeros(s.shape[:-1] + m.shape)
        powers[..., 1:] = m[1:] * s ** (m[1:] - 1.0)
        return powers


class ExchangeRateProfile(_SeparableProfile):
    """The driving commutator profile i gdot(s) A: one coefficient, A."""

    def __init__(self, model: FriedrichsModel):
        self.coeffs = model.exchange_dense()[None]
        self._sw = model.switching

    def weights(self, s) -> np.ndarray:
        return 1j * np.asarray(self._sw.gdot(s))[..., None]

    def derivative_weights(self, s) -> np.ndarray:
        return 1j * np.asarray(self._sw.gddot(s))[..., None]


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
    V^dag Xdot V e0 - i gdot (A m - V^dag X V A e0). The profiles enter
    through their separable form X = sum_k f_k C_k. V e0 and V A e0 lie
    in span{e0, (0, c)} at every node, so the coefficients are applied
    once, to those two vectors, and the weights f_k (f_k' for Xdot) and
    the node's cos/sin combine them; Y's bound row is the weights times
    the rows C_y[:, 0]. No per-node matrix is formed: a node costs
    O(K N) and its rotations O(N), and the nodes, stacked, contract with
    Y's weights. So each side comes as a (dim, K_y) factor F, the side
    being F @ C_y[:, 0]: returns (F_left, F_right, C_y[:, 0]).
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
    # V e0 = cos e0 + i sin c~ and V A e0 = i sin e0 + cos c~ with
    # c~ = (0, c), so X V e0 = sum_k f_k (cos C_k e0 + i sin C_k c~)
    cols = np.concatenate((x_profile.coeffs[:, :, 0],
                           x_profile.coeffs[:, :, 1:] @ c))    # (2 K, dim)

    def applied(f, a, b):       # sum_k f_k C_k (a e0 + b c~), node by node
        return rotate(model, -theta,
                      np.hstack((f * a[:, None], f * b[:, None])) @ cols)

    f = x_profile.weights(t)
    xv = applied(f, cos, isin)
    xva = applied(f, isin, cos)
    xdv = applied(x_profile.derivative_weights(t), cos, isin)
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
    f_y = y_profile.weights(t)

    q = quad_order
    lhs = (col_x[:q].T * weights) @ f_y[:q]
    int_d = (col_d[:q].T * weights) @ f_y[:q]
    int_y = (col_t[:q].T * weights) @ y_profile.derivative_weights(nodes)
    boundary = (np.outer(col_t[q], f_y[q])
                - np.outer(col_t[q + 1], f_y[q + 1]))
    rhs = (1j / tau) * (boundary - int_d - int_y)
    return lhs, rhs, y_profile.coeffs[:, 0]


def verify_ibp(model: FriedrichsModel, tau: float, x_profile=None,
               y_profile=None, s: float = 1.25, quad_order: int = 64,
               profile_tag: str = "default") -> IbpReport:
    """Residual of the integration-by-parts identity on a gapped model.

    The identity moves the in-window leak integral onto boundary terms of
    order 1/tau; it holds exactly, so the residual is pure quadrature
    error and shrinks superalgebraically as quad_order grows. The sign
    of the boundary side is derived (see _IBP_SIGN) and recorded in the
    report. The profiles must be separable sums sum_k f_k(s) C_k, giving
    their coefficients and weights as PolyMatrixProfile and
    ExchangeRateProfile do.
    """
    check_model_inputs(tau=tau, s=s)
    if model.gap_shift <= 0.0:
        raise ConfigurationError("the identity check needs gap_shift > 0")
    if model.dim - 1 > _IBP_MAX_N:
        raise ResourceBudgetError(
            f"identity check budgeted for N <= {_IBP_MAX_N}")
    if x_profile is None:
        x_profile = ExchangeRateProfile(model)
    if y_profile is None:
        y_profile = PolyMatrixProfile.random(model.dim, 2, seed=11)
    lhs, rhs, y_bound = _ibp_sides(model, tau, x_profile, y_profile, s,
                                   quad_order)
    # a side F @ y_bound with y_bound^dagger = Q R has the norm of F R^dagger
    r_adj = np.linalg.qr(y_bound.conj().T, mode="r").conj().T
    residual = float(np.linalg.norm((lhs - _IBP_SIGN * rhs) @ r_adj, 2))
    return IbpReport(residual=residual,
                     lhs_norm=float(np.linalg.norm(lhs @ r_adj, 2)),
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


def slaved_tail_probe(model: FriedrichsModel, tau_list,
                      max_step: float | None = None):
    """Leak after the window (at s = 1, as at any s >= 1) for each tau on
    a gapped model.

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
    return [(tau, tr.leak_at(1.0), tr.sup_leak_window)
            for tau, tr in zip(tau_list, trajectories)]
