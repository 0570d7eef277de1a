"""Small numerical helpers: Gauss panels, Legendre transforms, operator norms."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .errors import ConvergenceFailure, NumericalOverflow

_NORM_BLOCK = 4
#: block power iteration: relative residual to converge to, and round cap
_POWER_TOL = 1e-12
_POWER_ROUNDS = 300


@lru_cache(maxsize=32)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_panel(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = gauss_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def cosine_graded_edges(a: float, b: float, n_panels: int) -> np.ndarray:
    """Panel edges on [a, b] clustered toward both endpoints.

    Useful for integrands that are flat-but-steep near the interval ends.
    """
    theta = np.linspace(0.0, np.pi, n_panels + 1)
    return a + (b - a) * 0.5 * (1.0 - np.cos(theta))


@lru_cache(maxsize=8)
def legendre_projection(n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (nodes, weights, A) for modal Legendre analysis on [-1, 1].

    A maps values at the n Gauss nodes to Legendre coefficients a_l,
    l = 0..n-1, via the discrete projection
    a_l = (2l+1)/2 * sum_i w_i P_l(x_i) f(x_i).
    """
    x, w = gauss_rule(n_nodes)
    v = legvander(x, n_nodes - 1)  # v[i, l] = P_l(x_i)
    scale = (2.0 * np.arange(n_nodes) + 1.0) / 2.0
    a = scale[:, None] * (v * w[:, None]).T
    a.flags.writeable = False
    return x, w, a


@lru_cache(maxsize=8)
def cumulative_integration_matrix(n_nodes: int) -> np.ndarray:
    """Matrix S with (S f)_r ~= integral_{-1}^{x_r} of the interpolant of f.

    f is given by values at the n Gauss-Legendre nodes x_r. Built through
    the Legendre modal basis, which stays well conditioned at high order:
    int_{-1}^{x} P_0 = x + 1 and
    int_{-1}^{x} P_l = (P_{l+1}(x) - P_{l-1}(x)) / (2l + 1) for l >= 1.
    """
    x, _, analysis = legendre_projection(n_nodes)
    v = legvander(x, n_nodes)  # includes P_{n_nodes}
    b = np.zeros((n_nodes, n_nodes))
    b[:, 0] = x + 1.0
    for l in range(1, n_nodes):
        b[:, l] = (v[:, l + 1] - v[:, l - 1]) / (2 * l + 1)
    s = b @ analysis
    s.flags.writeable = False
    return s


def _start_block(n: int) -> np.ndarray:
    """Deterministic orthonormal (n, min(_NORM_BLOCK, n)) start block.

    Non-symmetric in its entries, so it never sits in an invariant
    subspace of the matrices met here.
    """
    j = np.arange(n)[:, None]
    c = np.arange(1, min(_NORM_BLOCK, n) + 1)[None, :]
    return np.linalg.qr(np.cos(0.7 * c * j) + 1j * np.sin(0.3 * j + 0.1 * c))[0]


def block_power_norms(product, adjoint, start: np.ndarray, labels=None):
    """Spectral norms of a batch of operators by block power iteration.

    Operator i is given only by its two products: product(active, v)
    returns A_i v_i stacked over the batch indices `active`, v of shape
    (len(active), n, c), and adjoint(active, w) returns A_i^dagger w_i.
    start holds one orthonormal (n, c) block per operator. Each round
    takes the Rayleigh-Ritz values of every A_i^dagger A_i on its block
    with stacked eigh, so the top value converges like
    (sigma_{c+1} / sigma_1)^(2 k) after k rounds however close sigma_2
    sits to sigma_1. Operator i leaves the batch once its top Ritz pair
    (theta, x) has || A^dagger A x - theta x || <= tol * theta, tol =
    _POWER_TOL (1e-12), which puts theta within tol * theta of an
    eigenvalue; the rest move on to the stacked QR of their next power
    step. Raises ConvergenceFailure, naming labels[i] when given, if an
    operator is still in the batch after _POWER_ROUNDS (300) rounds.
    Returns (sigma, blocks): the norms and the Ritz blocks they
    converged on, top vector first.
    """
    sigma = np.empty(len(start))
    blocks = np.empty(start.shape, dtype=complex)
    active = np.arange(len(start))
    v = start
    for _ in range(_POWER_ROUNDS):
        b = product(active, v)
        theta, y = np.linalg.eigh(b.conj().swapaxes(-1, -2) @ b)
        theta, y = theta[:, ::-1], y[:, :, ::-1]
        ritz = v @ y
        w = adjoint(active, b @ y)           # A^dagger A on the Ritz block
        top = theta[:, 0]
        res = np.linalg.norm(w[:, :, 0] - top[:, None] * ritz[:, :, 0], axis=1)
        done = (top <= 0.0) | (res <= _POWER_TOL * top)
        sigma[active[done]] = np.sqrt(np.maximum(top[done], 0.0))
        blocks[active[done]] = ritz[done]
        if done.all():
            return sigma, blocks
        active, v = active[~done], np.linalg.qr(w[~done])[0]
        rel = res[~done] / top[~done]
    where = "" if labels is None else f" for {labels[active[0]]}"
    raise ConvergenceFailure(
        f"block power iteration did not reach tol {_POWER_TOL:.1e} in "
        f"{_POWER_ROUNDS} rounds"
        f"{where} (relative residual {rel[0]:.1e})")


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm of a formed matrix m, block_power_norms' batch of one.

    Iterates a block of _NORM_BLOCK (4) orthonormal columns on
    m^dagger m from the deterministic start block.
    """
    if not np.all(np.isfinite(m)):
        raise NumericalOverflow("operator_norm of a non-finite matrix")
    # m^dagger w through (w^dagger m)^dagger: only the thin side is conjugated
    sigma, _ = block_power_norms(
        lambda active, v: m @ v,
        lambda active, w: (w.conj().swapaxes(-1, -2) @ m).conj().swapaxes(-1, -2),
        _start_block(m.shape[1])[None])
    return float(sigma[0])


def rounding_gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u the unit roundoff of doubles.

    A computed sum of n products is within gamma_n times the sum of their
    moduli of the exact one, whatever the order of summation (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
    sec. 3.1).
    """
    nu = n * np.finfo(float).eps / 2.0
    return nu / (1.0 - nu)


def ritz_bounds(grams: np.ndarray, fro_sq, theta_slack, fro_slack):
    """Bounds lo <= ||A||_2 <= hi from one Rayleigh-Ritz round, batched.

    grams = (A V)^dagger (A V), shape (..., k, k), for an orthonormal
    (n, k) block V, and fro_sq = ||A||_F^2. With theta_1 >= ... >=
    theta_k the Ritz values of A^dagger A on V, the eigenvalues of
    grams, Cauchy interlacing gives theta_i <= lambda_i, the eigenvalues
    of A^dagger A (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998,
    sec. 11.5). So lo^2 = theta_1, and since the lambda_i sum to
    ||A||_F^2, lambda_1 <= ||A||_F^2 - theta_2 - ... - theta_k = hi^2,
    where theta_2 + ... + theta_k = tr grams - theta_1. The caller
    derives the rounding allowances: theta_slack bounds the error of one
    computed Ritz value and comes off lo^2; fro_slack bounds the error
    of the computed hi^2 and goes onto it.

    Returns (lo, hi). Only the Ritz values are formed (eigvalsh); a
    caller that reads a Ritz vector takes it from eigh of that Gram
    matrix alone.
    """
    top = np.linalg.eigvalsh(grams)[..., -1]
    rest = np.trace(grams, axis1=-2, axis2=-1).real - top
    lo = np.sqrt(np.maximum(top - theta_slack, 0.0))
    hi = np.sqrt(np.maximum(fro_sq - rest + fro_slack, 0.0))
    return lo, hi


def format_float17(x: float) -> str:
    """17-significant-digit lowercase scientific form; round-trips doubles."""
    return f"{x:.16e}"
