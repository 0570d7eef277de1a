"""Oscillatory integrals: Filon quadrature and bump-function transforms.

The workhorse is a panel Filon rule: on each panel the smooth factor is
projected onto Legendre polynomials from its values at Gauss nodes, and
the Fourier factor is integrated exactly through the moment identity

    int_{-1}^{1} P_q(x) e^{iwx} dx = 2 i^q j_q(w),

with j_q the spherical Bessel function. The rule is therefore exact for
polynomial factors up to the projection degree at any frequency, and the
cost per panel is independent of the frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import spherical_jn

from .errors import ConfigurationError, PrecisionLimitError
from .model import SwitchingProfile, bump_function
from .numutil import cosine_graded_edges, legendre_projection

__all__ = [
    "AsymptoticForm",
    "BUMP_ASYMPTOTIC",
    "fourier_legendre_moments",
    "filon_integral",
    "rate_transform",
    "windowed_rate_transform",
    "bump_transform",
    "bump_transform_asymptotic",
]

#: absolute floor below which double-precision cancellation dominates
CANCELLATION_FLOOR = 1e-15

_DEFAULT_PANELS = 64
_DEFAULT_DEGREE = 10


def fourier_legendre_moments(w, degree: int) -> np.ndarray:
    """Moments M[..., q] = int_{-1}^{1} P_q(x) exp(i w x) dx, vectorized in w.

    Evaluated as 2 i^q j_q(w); spherical Bessel evaluation is stable for
    every real w, so no small/large-frequency switching is needed.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    aw = np.abs(w)
    out = np.empty(w.shape + (degree + 1,), dtype=complex)
    for q in range(degree + 1):
        out[..., q] = (2.0 * 1j ** q) * spherical_jn(q, aw)
    neg = w < 0
    if np.any(neg):
        out[neg] = np.conj(out[neg])
    return out


def filon_integral(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   p: float, n_panels: int = _DEFAULT_PANELS,
                   degree: int = _DEFAULT_DEGREE) -> complex:
    """int_a^b f(t) exp(i p t) dt with f smooth and p arbitrary.

    Cosine-graded panels cluster near both endpoints, which suits factors
    that flatten steeply there (bump functions).
    """
    if b <= a:
        return 0.0 + 0.0j
    edges = cosine_graded_edges(a, b, n_panels)
    x, _, analysis = legendre_projection(degree + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    # nodes for all panels at once: t[m, i] = mid_m + half_m * x_i
    t = mid[:, None] + half[:, None] * x[None, :]
    coeffs = analysis @ f(t.ravel()).reshape(t.shape).T  # (degree+1, n_panels)
    moments = fourier_legendre_moments(p * half, degree)  # (n_panels, degree+1)
    panel_vals = np.einsum("mq,qm->m", moments, coeffs)
    return complex(np.sum(half * np.exp(1j * p * mid) * panel_vals))


def rate_transform(profile: SwitchingProfile, p: float) -> complex:
    """Fourier transform of the switching rate: int_0^1 gdot(t) exp(i p t) dt.

    At p = 0 this is the total angle. Decays faster than any power of
    1/p since gdot is smooth with compact support.
    """
    return filon_integral(profile.gdot, 0.0, 1.0, p)


def windowed_rate_transform(profile: SwitchingProfile, s: float, tau: float) -> complex:
    """int_0^{min(s, 1)} gdot(t) exp(i t tau) dt.

    Truncating inside the switching window leaves a stationary boundary
    term of size gdot(s)/tau; truncating at or past the window end leaves
    none, and the integral decays faster than any power of 1/tau. At
    tau = 0 the value is g(min(s, 1)), real.
    """
    if s < 0.0:
        raise ConfigurationError(f"s must be >= 0, got {s}")
    upper = min(float(s), 1.0)
    if upper <= 0.0:
        return 0.0 + 0.0j
    return filon_integral(profile.gdot, 0.0, upper, tau)


def _canonical_bump(s):
    """exp(-1/(1-s^2)) on (-1, 1), zero outside; even and C-infinity."""
    s = np.asarray(s, dtype=float)
    return bump_function(0.5 * (s + 1.0)) ** 0.25


@dataclass(frozen=True)
class AsymptoticForm:
    """Large-p form of the canonical bump transform, factor by factor.

    amplitude * decay(p) * power(p) * cos(phase(p)) approximates the
    transform with a relative correction of order 2/sqrt(p) (an empirical
    coefficient on p in [50, 400]) away from the cosine zeros.
    """

    amplitude: float = 2.0 * np.sqrt(np.pi) / (2.0 * np.e) ** 0.25
    decay: Callable[[float], float] = field(default=lambda p: np.exp(-np.sqrt(p)))
    power: Callable[[float], float] = field(default=lambda p: p ** -0.75)
    phase: Callable[[float], float] = field(
        default=lambda p: p - np.sqrt(p) - 3.0 * np.pi / 8.0)

    def envelope(self, p: float) -> float:
        return self.amplitude * self.decay(p) * self.power(p)


BUMP_ASYMPTOTIC = AsymptoticForm()


def bump_transform(p: float) -> float:
    """Transform of the canonical bump: int_{-1}^{1} cos(p s) exp(-1/(1-s^2)) ds.

    Even in p. Raises PrecisionLimitError once the expected magnitude
    falls below 100x the double-precision cancellation floor (around
    p ~ 650); beyond that the O(1) integrand cancels past what doubles
    can represent.
    """
    p = abs(float(p))
    if p > 0.0 and BUMP_ASYMPTOTIC.envelope(p) < 100.0 * CANCELLATION_FLOOR:
        raise PrecisionLimitError(
            f"bump transform at p={p} lies below the cancellation floor; "
            "values are only meaningful for p <~ 650 in double precision")
    val = filon_integral(_canonical_bump, -1.0, 1.0, p)
    return float(val.real)


def bump_transform_asymptotic(p: float) -> float:
    """Saddle-point form of the bump transform, valid for p >~ 30.

    2 sqrt(pi)/(2e)^(1/4) * exp(-sqrt(p)) / p^(3/4) * cos(p - sqrt(p) - 3 pi/8).
    """
    if p <= 0.0:
        raise ConfigurationError(f"asymptotic form needs p > 0, got {p}")
    form = BUMP_ASYMPTOTIC
    return form.envelope(p) * np.cos(form.phase(p))
