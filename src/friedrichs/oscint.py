"""Oscillatory integrals: Filon quadrature and bump-function transforms.

The workhorse is a panel Filon rule: on each panel the smooth factor is
projected onto Legendre polynomials from its values at Gauss nodes, and
the Fourier factor is integrated exactly through the moment identity

    int_{-1}^{1} P_q(x) e^{iwx} dx = 2 i^q j_q(w),

with j_q the spherical Bessel function. The rule is therefore exact for
polynomial factors up to the projection degree at any frequency, and the
cost per panel is independent of the frequency.

The j_q come from numpy alone, all orders in one pass over w, by the
direction of recurrence that is stable for each w (DLMF 10.51; Gautschi,
"Computational aspects of three-term recurrence relations", SIAM Rev. 9,
1967): a power series in w^2 for |w| <= 2.5, upward recurrence from j_0
and j_1 for |w| > degree + 1, and Miller's backward recurrence between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, PrecisionLimitError
from .model import SwitchingProfile, bump_function, check_model_inputs
from .numutil import cosine_graded_edges, legendre_projection

__all__ = [
    "AsymptoticForm",
    "BUMP_ASYMPTOTIC",
    "fourier_legendre_moments",
    "filon_integral",
    "rate_transform",
    "bump_transform",
    "bump_transform_asymptotic",
]

#: absolute floor below which double-precision cancellation dominates
CANCELLATION_FLOOR = 1e-15

#: filon_integral's cosine-graded panels and Legendre degree per panel
_FILON_PANELS = 64
_FILON_DEGREE = 10

#: |w| up to here takes the power series; its terms stay below 1.1, so
#: cancellation costs a few ulps at most
_SERIES_MAX_W = 2.5
#: series terms kept: the first one dropped is below 1e-18 of j_q at 2.5
_SERIES_TERMS = 14
#: Miller's recurrence starts this many orders above the highest returned
_MILLER_EXTRA_ORDERS = 25


def _spherical_jn_series(w: np.ndarray, degree: int) -> np.ndarray:
    """j_q(w) = w^q/(2q+1)!! * sum_k (-w^2/2)^k / (k! (2q+3)...(2q+2k+1)).

    Horner's rule on the ratio of consecutive terms; every term keeps its
    relative accuracy, so tiny high-order moments do too.
    """
    q = np.arange(degree + 1)
    y = (w * w)[:, None]
    total = np.ones(y.shape[:1] + q.shape)
    for k in range(_SERIES_TERMS, 0, -1):
        total = 1.0 - y / (2 * k * (2 * q + 2 * k + 1)) * total
    odd = np.where(q % 2 == 1, w[:, None], 1.0)   # w^q = odd * y^(q//2), sign-exact
    return odd * y ** (q // 2) / np.cumprod(2 * q + 1.0) * total


def _spherical_jn_upward(w: np.ndarray, degree: int) -> np.ndarray:
    """j_0 .. j_degree by j_{q+1} = (2q+1)/w j_q - j_{q-1}; stable for |w| > q."""
    j = [np.sin(w) / w]
    j.append((j[0] - np.cos(w)) / w)
    for q in range(1, degree):
        j.append((2 * q + 1) / w * j[q] - j[q - 1])
    return np.stack(j[:degree + 1], axis=-1)


def _spherical_jn_miller(w: np.ndarray, degree: int) -> np.ndarray:
    """j_0 .. j_degree by the backward recurrence from a far order.

    The recurrence fixes the ratios; the sum rule sum_q (2q+1) j_q^2 = 1
    fixes the scale, and whichever of j_0, j_1 is larger fixes the sign.
    """
    top = degree + _MILLER_EXTRA_ORDERS
    rec = np.zeros(w.shape + (top + 2,))
    rec[:, top] = 1.0
    for q in range(top, 0, -1):
        rec[:, q - 1] = (2 * q + 1) / w * rec[:, q] - rec[:, q + 1]
    rec /= np.abs(rec).max(axis=-1, keepdims=True)   # squares stay finite
    scale = 1.0 / np.sqrt((2 * np.arange(top + 2) + 1) @ (rec * rec).T)
    exact = _spherical_jn_upward(w, 1)
    pick = np.argmax(np.abs(exact), axis=-1)[:, None]
    flip = np.take_along_axis(exact, pick, -1) * np.take_along_axis(rec, pick, -1)
    return rec[:, :degree + 1] * np.where(flip[:, 0] < 0.0, -scale, scale)[:, None]


def _spherical_jn(w: np.ndarray, degree: int) -> np.ndarray:
    """j_0(w) .. j_degree(w) on a new last axis, for real w of any sign."""
    out = np.empty(w.shape + (degree + 1,))
    aw = np.abs(w)
    series = aw <= _SERIES_MAX_W
    upward = aw > degree + 1
    miller = ~(series | upward)
    out[series] = _spherical_jn_series(w[series], degree)
    out[upward] = _spherical_jn_upward(w[upward], degree)
    out[miller] = _spherical_jn_miller(w[miller], degree)
    return out


def fourier_legendre_moments(w, degree: int) -> np.ndarray:
    """Moments M[..., q] = int_{-1}^{1} P_q(x) exp(i w x) dx, vectorized in w.

    Evaluated as 2 i^q j_q(w) with j_q from numpy alone: a power series in
    w^2 for |w| <= 2.5, upward recurrence for |w| > degree + 1, Miller's
    backward recurrence normalised by sum_q (2q+1) j_q^2 = 1 in between
    (DLMF 10.51; Gautschi, SIAM Rev. 9, 1967). j_q(-w) = (-1)^q j_q(w)
    holds exactly, so M(-w) is exactly the conjugate of M(w).
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    two_i_pow = np.array([2.0, 2.0j, -2.0, -2.0j])[np.arange(degree + 1) % 4]
    return two_i_pow * _spherical_jn(w, degree)


def filon_integral(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, p):
    """int_a^b f(t) exp(i p t) dt with f smooth and p arbitrary.

    _FILON_PANELS (64) cosine-graded panels cluster near both endpoints,
    which suits factors that flatten steeply there (bump functions); on
    each, f is projected onto Legendre polynomials up to _FILON_DEGREE
    (10). p may be an array: f's Legendre coefficients do not depend on
    p, so every p shares them and one moment call covers all (p, panel)
    pairs. Returns a complex for a scalar p and an array of p's shape
    otherwise.
    """
    p_arr = np.asarray(p, dtype=float)
    vals = np.zeros(p_arr.shape, dtype=complex)
    if b > a:
        edges = cosine_graded_edges(a, b, _FILON_PANELS)
        x, _, analysis = legendre_projection(_FILON_DEGREE + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        # nodes for all panels at once: t[m, i] = mid_m + half_m * x_i
        t = mid[:, None] + half[:, None] * x[None, :]
        coeffs = analysis @ f(t.ravel()).reshape(t.shape).T  # (degree + 1, panels)
        pv = p_arr.reshape(-1, 1)
        # (len(p), panels, degree + 1)
        moments = fourier_legendre_moments(pv * half, _FILON_DEGREE)
        panel_vals = np.einsum("pmq,qm->pm", moments, coeffs)
        vals = np.sum(half * np.exp(1j * pv * mid) * panel_vals,
                      axis=-1).reshape(p_arr.shape)
    return complex(vals) if vals.ndim == 0 else vals


def rate_transform(profile: SwitchingProfile, p):
    """Fourier transform of the switching rate: int_0^1 gdot(t) exp(i p t) dt.

    p is a number or an array (one moment call for all of them; see
    filon_integral). At p = 0 this is the total angle. Decays faster than
    any power of 1/p since gdot is smooth with compact support.
    """
    return filon_integral(profile.gdot, 0.0, 1.0, p)


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

    Even in p, defined for every finite p. Raises PrecisionLimitError
    once the expected magnitude falls below 100x the double-precision
    cancellation floor (around p ~ 650); beyond that the O(1) integrand
    cancels past what doubles can represent.
    """
    check_model_inputs(p=p)
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
    Its precondition p > 0 is its own; the p rule asks only finiteness.
    """
    check_model_inputs(p=p)
    if not p > 0.0:
        raise ConfigurationError(f"p must be > 0 for the asymptotic form, got {p}")
    form = BUMP_ASYMPTOTIC
    return form.envelope(p) * np.cos(form.phase(p))
