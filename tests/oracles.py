"""Independent reference computations the tests check the package against.

Everything here is deliberately brute force and shares no code with the
integration or quadrature paths under test. The one exception is
PerStepExpRunner, the interaction-picture step as it stood before the
stepping loop was batched over tau: it reuses the package's Filon
moments, and cross-checks only how the loop lays out its work.
"""

import numpy as np


def dense_reference_evolve(model, tau, s_end, h=1e-5):
    """Frozen-Hamiltonian matrix-exponential stepper in the rotating frame.

    Builds the dense generator tau*H + gdot(s_mid)*A on every step and
    applies its exact exponential (via eigendecomposition). O(n_steps *
    dim^3); intended for dim <= ~8. Returns the final packed state.
    """
    dim = model.dim
    h_mat = np.diag(model.diag_energies).astype(complex)
    a_mat = model.exchange_dense()
    n = int(round(s_end / h))
    mids = (np.arange(n) + 0.5) * h
    gd = model.switching.gdot(mids)

    # stack the per-step generators, exponentiate in a vectorized sweep,
    # then contract the ordered product pairwise (keeps the loop depth log n)
    gens = tau * h_mat[None, :, :] + gd[:, None, None] * a_mat[None, :, :]
    lam, vec = np.linalg.eigh(gens)
    phases = np.exp(-1j * h * lam)
    steps = np.einsum("sij,sj,skj->sik", vec, phases, vec.conj())

    prod = steps
    while prod.shape[0] > 1:
        if prod.shape[0] % 2 == 1:
            last = prod[-1]
            pairs = np.einsum("sij,sjk->sik", prod[1:-1:2], prod[0:-1:2])
            prod = np.concatenate([pairs, last[None]])
        else:
            prod = np.einsum("sij,sjk->sik", prod[1::2], prod[0::2])
    u = prod[0]

    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    return u @ psi0


def trapezoid_rate_transform(profile, p, n=1_000_000):
    """Brute-force transform of the switching rate on a uniform grid.

    The integrand is smooth with all derivatives vanishing at both ends,
    so the trapezoid rule converges faster than any power of 1/n.
    """
    t = np.linspace(0.0, 1.0, n + 1)
    f = profile.gdot(t) * np.exp(1j * p * t)
    return np.trapezoid(f, t)


def eigen_tilde(h, x, center, radius):
    """Cross-block division rule computed with an explicit double loop."""
    lam, vec = np.linalg.eigh(h)
    inside = np.abs(lam - center) < radius
    xe = vec.conj().T @ x @ vec
    out = np.zeros_like(xe)
    for a in range(len(lam)):
        for b in range(len(lam)):
            if inside[a] and not inside[b]:
                out[a, b] = xe[a, b] / (lam[b] - lam[a])
            elif inside[b] and not inside[a]:
                out[a, b] = xe[a, b] / (lam[a] - lam[b])
    return vec @ out @ vec.conj().T


def two_level_rotation(theta):
    """Exact 2x2 rotation exp(i theta sigma_x) on span{bound, coupling}."""
    return np.array([[np.cos(theta), 1j * np.sin(theta)],
                     [1j * np.sin(theta), np.cos(theta)]])


def single_mode_model(k=1.0, theta_total=np.pi / 4, gap_shift=0.0):
    """One continuum mode with unit coupling; smallest honest model."""
    from friedrichs.model import (DiscretizedMeasure, FormFactor, FriedrichsModel,
                                  PanelLayout, SwitchingProfile)

    measure = DiscretizedMeasure(
        nodes=np.array([float(k)]), weights=np.array([1.0]),
        k_min=0.5 * k, k_max=1.5 * k,
        panel_layout=PanelLayout(edges=np.array([0.5 * k, 1.5 * k]),
                                 nodes_per_panel=1))
    ff = FormFactor(beta=1.0, values=np.array([1.0]), cutoff_fraction=0.5,
                    norm_constant=1.0)
    return FriedrichsModel(measure=measure, form_factor=ff,
                           switching=SwitchingProfile(theta_total),
                           gap_shift=float(gap_shift))


def _apply_rank2_exp(u, r, state):
    """In-place exp(-i M) with M = |d><e0| + |e0><d|, d = r u, u unit."""
    if r == 0.0:
        return
    b0 = state[0].copy()
    uc = u.conj() @ state[1:]
    cos_m1 = np.cos(r) - 1.0
    isin = 1j * np.sin(r)
    state[0] += cos_m1 * b0 - isin * uc
    state[1:] += np.multiply.outer(u, cos_m1 * uc - isin * b0)


class PerStepExpRunner:
    """Interaction-picture stepping for one tau, a fresh exp per step.

    Each step evaluates exp(i tau omega t_mid) over every node directly
    and exponentiates the rank-two generator d = coupling * phase * mu.
    """

    degree = 8

    def __init__(self, model, tau, n_steps):
        from friedrichs.numutil import legendre_projection
        from friedrichs.oscint import fourier_legendre_moments

        self.model = model
        self.n = n_steps
        self.h = 1.0 / n_steps
        deg = self.degree
        x, _, analysis = legendre_projection(deg + 1)
        mids = (np.arange(n_steps) + 0.5) * self.h
        t_nodes = mids[:, None] + 0.5 * self.h * x[None, :]
        coeffs = analysis @ model.switching.gdot(t_nodes.ravel()).reshape(t_nodes.shape).T
        freqs = tau * model.diag_energies[1:]
        moments = fourier_legendre_moments(freqs * 0.5 * self.h, deg)
        # mu[:, step] = int_step gdot(t) e^{i tau omega t} dt / phase(mid)
        self.mu = 0.5 * self.h * (moments @ coeffs)
        self.freqs = freqs
        self.mids = mids

    def step(self, m, state):
        d = self.model.coupling * (np.exp(1j * self.freqs * self.mids[m])
                                   * self.mu[:, m])
        r = np.linalg.norm(d)
        if r > 0.0:
            _apply_rank2_exp(d / r, r, state)

    def window_leaks(self):
        """Continuum norm of the evolved bound state after each step."""
        state = np.zeros(self.model.dim, dtype=complex)
        state[0] = 1.0
        leaks = np.empty(self.n + 1)
        leaks[0] = 0.0
        for m in range(self.n):
            self.step(m, state)
            leaks[m + 1] = np.linalg.norm(state[1:])
        return leaks
