"""Independent reference computations the tests check the package against.

Everything here is deliberately brute force and shares no code with the
integration or quadrature paths under test. The exceptions cross-check
only how the package lays out its work, and reuse the pieces they do not
check:

* PerStepExpRunner, the interaction-picture step as it stood before the
  stepping loop was batched over tau, reuses the package's Filon moments;
* PerStepWaveOperator, the wave-operator loop as it stood before its
  steps were blocked, reuses the package's step directions d, each
  normalised by its own norm; its strang steps share no code with the
  package;
* per_node_series_terms and per_node_ibp_sides, the series collocation
  and the identity's quadratures as they stood before the rank-two
  kernel was exploited, reuse the kernel columns (applied by
  apply_kernel), the dense rotations below and the static tilde;
* backward_walk_defect, the uniform defect as it stood before its norms
  were bracketed during the evolution, reuses the wave-operator
  evolution and the operator norm;
* block_factor and prefix_cores, the wave operator's block kernel as
  it stood before its prefix cores were built in the folded basis: the
  unfolded (2 k, 2 k) compact-WY factor T of a block's steps, then its
  fold onto [e0, u_1, ..., u_k]; they share no code with the package;
* per_step_cores, the same cores one step at a time in extended
  precision (numpy's clongdouble), a reference for the rounding of both
  doubling paths;
* norm_bracket, the defect's bracket of one formed matrix as it stood
  before a block's stops were bracketed together unformed, reuses the
  Ritz bounds, the start block and the rounding allowance;
* per_node_first_order_tail, the closed-form first-order tail as it
  stood before the switching rate's transform took all nodes at once,
  reuses the transform one node at a time.
* per_point_bump_cumulative, the switching's cumulative bump as it
  stood before its Gauss rules were built for all points at once,
  reuses the panel table, the Gauss panels and the bump one point at a
  time.

windowed_rate_transform, the switching rate's transform truncated at a
time s, lives here since no run of the package needs it; it reuses
filon_integral, so its tests check the Filon rule on a truncated window.

Two cross-checks of the frame algebra also live here, since no run of
the package needs them: rotation_dense, exp(i theta A) as a dense
matrix, which reuses only the model's dense exchange generator; and
verify_generators (with its GeneratorCheck), which compares the frame
generator with the commutator form on dense matrices and reuses
rotation_dense and the switching profile.
"""

from dataclasses import dataclass

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


def windowed_rate_transform(profile, s, tau):
    """int_0^{min(s, 1)} gdot(t) exp(i t tau) dt.

    Truncating inside the switching window leaves a stationary boundary
    term of size gdot(s)/tau; truncating at or past the window end leaves
    none, and the integral decays faster than any power of 1/tau. At
    tau = 0 the value is g(min(s, 1)), real.
    """
    from friedrichs.errors import ConfigurationError
    from friedrichs.oscint import filon_integral

    if s < 0.0:
        raise ConfigurationError(f"s must be >= 0, got {s}")
    upper = min(float(s), 1.0)
    if upper <= 0.0:
        return 0.0 + 0.0j
    return filon_integral(profile.gdot, 0.0, upper, tau)


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


def _apply_rank2_exp_parts(u, cos_m1, isin, state):
    """In-place rotation by cos r - 1 and i sin r in span{e0, u}."""
    b0 = state[0].copy()
    uc = u.conj() @ state[1:]
    state[0] += cos_m1 * b0 - isin * uc
    state[1:] += np.multiply.outer(u, cos_m1 * uc - isin * b0)


def _apply_rank2_exp(u, r, state):
    """In-place exp(-i M) with M = |d><e0| + |e0><d|, d = r u, u unit."""
    if r == 0.0:
        return
    _apply_rank2_exp_parts(u, np.cos(r) - 1.0, 1j * np.sin(r), state)


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


class PerStepWaveOperator:
    """Full-basis evolution, one rank-two rotation of the matrix per step.

    With scheme='interaction_magnus' the steps are the package's
    interaction rotations and the matrices are wave operators, as from
    friedrichs.propagate.evolve_wave_operator. With 'strang_split' each
    step splits the co-rotating generator tau H + gdot A: a half free
    phase exp(-i tau h H / 2), the exact exchange rotation
    exp(-i h gdot(t_mid) A), and another half free phase. That scheme is
    second order, its step must resolve the free phases, and its
    matrices are rotating-frame propagators, an independent check of the
    interaction frame.

    Given an initial vector, the same steps evolve that one state, and
    run returns states in place of matrices.
    """

    def __init__(self, model, tau, n_steps, scheme="interaction_magnus",
                 initial=None):
        if scheme not in ("interaction_magnus", "strang_split"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.model = model
        self.tau = float(tau)
        self.n = int(n_steps)
        self.scheme = scheme
        self.initial = initial

    def _steps(self):
        """(rotation blocks (start, u, cos r - 1, i sin r), half phases or None)."""
        n, model = self.n, self.model
        if self.scheme == "interaction_magnus":
            from friedrichs.propagate import _interaction_blocks

            def unit_blocks():
                # each direction d normalised by its own norm, not by the
                # package's 1 / r from the Gram forms
                _, blocks = _interaction_blocks(model, np.array([self.tau]), n)
                for start, d in blocks:
                    d = d[:n - start]        # not an odd count's identity step
                    r = np.linalg.norm(d, axis=-1)
                    u = d / np.where(r > 0.0, r, 1.0)[..., None]
                    yield start, u, np.cos(r) - 1.0, 1j * np.sin(r)

            return unit_blocks(), None
        h = 1.0 / n
        theta = h * model.switching.gdot((np.arange(n) + 0.5) * h)
        u = np.broadcast_to(model.coupling, (n, 1, model.dim - 1))
        block = (0, u, (np.cos(theta) - 1.0)[:, None], (1j * np.sin(theta))[:, None])
        half = np.exp(-0.5j * h * self.tau * model.diag_energies)
        return [block], half[:, None]

    def run(self, record_s, drift_tolerance=1e-9):
        """(record times snapped to the grid, matrices or states, drift)."""
        from friedrichs.errors import IntegrationFailure, NumericalOverflow

        n = self.n
        blocks, half = self._steps()
        targets = {min(round(float(t) * n), n) for t in record_s}
        if self.initial is None:
            mat = np.eye(self.model.dim, dtype=complex)
        else:
            mat = np.array(self.initial, dtype=complex)[:, None]
        out, s_out = [], []
        drift = 0.0

        def keep(m):
            out.append(mat.copy() if self.initial is None else mat[:, 0].copy())
            s_out.append(m / n)

        if 0 in targets:
            keep(0)
        for start, u, cos_m1, isin in blocks:
            for j in range(len(cos_m1)):
                m = start + j
                if half is not None:
                    mat *= half
                _apply_rank2_exp_parts(u[j, 0], cos_m1[j, 0], isin[j, 0], mat)
                if half is not None:
                    mat *= half
                if (m + 1) in targets:
                    keep(m + 1)
                if (m + 1) % 64 == 0 or m == n - 1:
                    sq = np.abs(mat[0]) ** 2 + np.sum(np.abs(mat[1:]) ** 2, axis=0)
                    dev = float(np.max(np.abs(np.sqrt(sq) - 1.0)))
                    if not np.isfinite(dev):
                        raise NumericalOverflow(
                            f"non-finite propagator at step {m + 1}")
                    drift = max(drift, dev)
        if drift > drift_tolerance:
            raise IntegrationFailure(f"propagator drift {drift:.3e}", drift)
        return np.array(s_out), out, drift


def apply_kernel(column, x):
    """K x for the anti-Hermitian kernel with this bound-to-continuum column.

    K[1:, 0] is column, K[0, 1:] is -conj(column), and every other entry
    is zero; x is a packed vector, or a matrix taken column by column.
    """
    x = np.asarray(x, dtype=complex)
    out = np.zeros_like(x)
    out[0] = -(column.conj() @ x[1:])
    out[1:] = np.multiply.outer(column, x[0])
    return out


def per_node_series_terms(model, tau, max_order=4, quad_order=64, s_eval=1.0):
    """Wave-operator series terms with the level stacked at every node.

    Each level applies the kernel to the full (dim, dim) level value at
    each of the quad_order nodes of a panel and integrates through the
    cumulative matrix, O(q^2 dim^2) per panel and level. Same panels as
    friedrichs.volterra.wave_operator_series; returns the terms.
    """
    import math

    from friedrichs.numutil import cumulative_integration_matrix, gauss_rule
    from friedrichs.volterra import kernel_columns

    u = min(float(s_eval), 1.0)
    e_max = float(np.max(model.diag_energies))
    n_panels = max(4, math.ceil(tau * e_max * u / quad_order))
    x, w = gauss_rule(quad_order)
    cum = cumulative_integration_matrix(quad_order)
    dim = model.dim
    edges = np.linspace(0.0, u, n_panels + 1)
    eye = np.eye(dim, dtype=complex)
    starts = [eye.copy()] + [np.zeros((dim, dim), dtype=complex)
                             for _ in range(max_order)]
    for p in range(n_panels):
        a, b = edges[p], edges[p + 1]
        half = 0.5 * (b - a)
        cols = kernel_columns(model, tau, 0.5 * (a + b) + half * x)
        level_nodes = np.broadcast_to(eye, (quad_order, dim, dim))
        for i in range(1, max_order + 1):
            g = np.array([apply_kernel(col, level_nodes[m])
                          for m, col in enumerate(cols)])
            flat = g.reshape(quad_order, dim * dim)
            new_nodes = starts[i][None, :, :] \
                + half * (cum @ flat).reshape(quad_order, dim, dim)
            starts[i] = starts[i] + half * (w @ flat).reshape(dim, dim)
            level_nodes = new_nodes
    return starts


def backward_walk_defect(model, tau, s_grid=None, n_steps=1024):
    """sup_s ||1 - Omega(s)|| from every record matrix held at once.

    Takes the full list from friedrichs.propagate.evolve_wave_operator
    and walks it from the end, each norm warm-started from the last one
    taken; a grid point whose Frobenius norm, an upper bound of its
    operator norm, does not exceed the running supremum is skipped.
    Returns (supremum, grid time where it was found).
    """
    import math

    from friedrichs.numutil import _start_block, block_power_norms
    from friedrichs.propagate import evolve_wave_operator

    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 201)
    s_out, mats, _ = evolve_wave_operator(model, tau, n_steps, record_s=s_grid)
    best, s_best, v = 0.0, None, _start_block(model.dim)
    for s, omega in zip(s_out[::-1], reversed(mats)):
        np.negative(omega, out=omega)        # 1 - Omega, in place
        omega.flat[::model.dim + 1] += 1.0
        if math.sqrt(np.vdot(omega, omega).real) <= best:
            continue
        sigma, blocks = block_power_norms(lambda _, x: omega @ x,
                                          lambda _, w: omega.conj().T @ w, v[None])
        nrm, v = float(sigma[0]), blocks[0]
        if nrm > best:
            best, s_best = nrm, float(s)
    return best, s_best


def block_factor(gram, cos_m1, isin):
    """T of the compact-WY form R_k ... R_1 = 1 + X T X^dagger of k steps.

    R_j = 1 + X_j M_j X_j^dagger with X_j = [e0, u_j] and M_j =
    [[cos r - 1, -i sin r], [-i sin r, cos r - 1]]; X = [X_1, ..., X_k]
    and T = (1 - M L)^-1 M, (2 k, 2 k), with M block diagonal and L the
    strictly lower block part of X^dagger X (Schreiber & Van Loan, SIAM
    J. Sci. Stat. Comput. 10, 1989; Joffrain et al., ACM TOMS 32, 2006).
    gram is u^dagger u, the (k, k) Gram matrix of the directions; e0 is
    orthogonal to every u. Built in doubling rounds: two adjacent factors
    T1, T2 merge into [[T1, 0], [T2 G21 T1, T2]], G21 the Gram block of
    the later steps against the earlier ones. The steps are padded to a
    power of two with identity steps (M = 0), whose rows and columns of T
    are zero.
    """
    k = len(cos_m1)
    p = 1 << (k - 1).bit_length()
    t = np.zeros((p, 2, 2), dtype=complex)
    t[:k, 0, 0] = t[:k, 1, 1] = cos_m1
    t[:k, 0, 1] = t[:k, 1, 0] = -isin
    full = np.zeros((p, 2, p, 2), dtype=complex)   # X^dagger X
    full[:, 0, :, 0] = 1.0
    full[:k, 1, :k, 1] = gram
    full = full.reshape(2 * p, 2 * p)
    w = 2                                          # columns per factor
    while len(t) > 1:
        pair = np.arange(0, len(t), 2)             # the earlier factor of each pair
        g21 = full.reshape(len(t), w, len(t), w)[pair + 1, :, pair]
        merged = np.zeros((len(t) // 2, 2 * w, 2 * w), dtype=complex)
        merged[:, :w, :w] = t[0::2]
        merged[:, w:, w:] = t[1::2]
        merged[:, w:, :w] = t[1::2] @ g21 @ t[0::2]
        t, w = merged, 2 * w
    return t[0, :2 * k, :2 * k]


def prefix_cores(t, offsets):
    """Folded cores (rows, lower) of a block's prefixes from its factor t.

    The first j steps multiply to 1 + Y C_j Y^dagger with Y = [e0, u_1,
    ..., u_k]. T's leading (2 j, 2 j) block is their factor: T is block
    lower triangular, and a leading block of a triangular inverse is the
    inverse of that block. Folding its e0 rows and columns onto one
    gives the (j + 1, j + 1) core C_j. Row 1 + a of C_j (a < j) is step
    a's row of T, summed over the e0 columns, the same for every j > a:
    `lower`, (k, k + 1). Row 0 sums T's e0 rows over the first j steps;
    rows[i] is it for offsets[i] steps.
    """
    k = len(t) // 2
    t = t.reshape(k, 2, k, 2)
    lower = np.empty((k, k + 1), dtype=complex)
    lower[:, 0] = t[:, 1, :, 0].sum(axis=1)
    lower[:, 1:] = t[:, 1, :, 1]
    top = np.zeros((k + 1, k, 2), dtype=complex)   # e0 rows summed over j steps
    np.cumsum(t[:, 0], axis=0, out=top[1:])
    top = top[offsets]
    rows = np.empty((len(offsets), k + 1), dtype=complex)
    rows[:, 0] = top[:, :, 0].sum(axis=1)
    rows[:, 1:] = top[:, :, 1]
    return rows, lower


def per_step_cores(gram, cos_m1, isin):
    """Every prefix core of a block, one step at a time in clongdouble.

    Returns (tops, lower): tops[j] is row 0 of C_j for j = 0..k, lower
    the rows 1.. of C_k. Step j + 1 acts on 1 + Y C Y^dagger through
    Y^dagger Y = diag(1, gram): it adds M_j (1 + Y^dagger Y C) restricted
    to e0 and u_j to those two rows of C.
    """
    wide = np.clongdouble
    k = len(cos_m1)
    g = np.zeros((k + 1, k + 1), dtype=wide)
    g[0, 0] = 1.0
    g[1:, 1:] = gram
    core = np.zeros((k + 1, k + 1), dtype=wide)
    tops = np.zeros((k + 1, k + 1), dtype=wide)
    for j in range(k):
        m = np.array([[cos_m1[j], -isin[j]], [-isin[j], cos_m1[j]]], dtype=wide)
        idx = [0, j + 1]
        seen = g[idx] @ core
        seen[0, 0] += 1.0
        seen[1, j + 1] += 1.0
        core[idx] += m @ seen
        tops[j + 1] = core[0]
    return tops, core[1:]


def norm_bracket(m, v=None):
    """Bounds lo <= ||m||_2 <= hi from one Rayleigh-Ritz round on m itself.

    The Ritz values of m^dagger m on the orthonormal 4-column block v
    (numutil's start block when None) and the Frobenius norm of m, put
    together by numutil.ritz_bounds. lo carries no allowance; hi^2
    carries 24 gamma_N ||m||_F^2, N = n^2 + 2, the allowance of
    volterra._block_brackets for a stop that has no update (b = 0).
    Returns (lo, hi, v_next), v_next the block after one power step on
    m (v itself when m v = 0). Raises NumericalOverflow if m is not
    finite, which the Frobenius sum shows before the Ritz round reads m.
    """
    from friedrichs.errors import NumericalOverflow
    from friedrichs.numutil import _start_block, ritz_bounds, rounding_gamma

    fro = np.vdot(m, m).real
    if not np.isfinite(fro):
        raise NumericalOverflow("norm_bracket of a non-finite matrix")
    if v is None:
        v = _start_block(m.shape[1])
    b = m @ v
    gram = b.conj().T @ b
    lo, hi = ritz_bounds(gram, fro, 0.0, 24.0 * rounding_gamma(m.size + 2) * fro)
    if lo > 0.0:
        y = np.linalg.eigh(gram)[1]
        v = np.linalg.qr(((b @ y[:, ::-1]).conj().T @ m).conj().T)[0]
    return float(lo), float(hi), v


def per_node_first_order_tail(model, tau):
    """first_order_tail's column with the rate transform taken node by node."""
    from friedrichs.oscint import rate_transform

    vals = np.array([rate_transform(model.switching, tau * k)
                     for k in model.measure.nodes])
    vec = vals * model.coupling
    return vec, float(np.linalg.norm(vec))


def per_point_bump_cumulative(s):
    """model._bump_cumulative with one Gauss panel and one dot per point."""
    from friedrichs.model import _BUMP_CUM, _BUMP_EDGES, bump_function
    from friedrichs.numutil import gauss_panel

    s = np.asarray(s, dtype=float)
    flat = np.clip(s.ravel(), 0.0, 1.0)
    idx = np.minimum(np.searchsorted(_BUMP_EDGES, flat, side="right") - 1,
                     len(_BUMP_EDGES) - 2)
    out = np.empty_like(flat)
    for i, (sv, m) in enumerate(zip(flat, idx)):
        a = _BUMP_EDGES[m]
        if sv <= a:
            out[i] = _BUMP_CUM[m]
            continue
        x, w = gauss_panel(a, sv, 24)
        out[i] = _BUMP_CUM[m] + float(w @ bump_function(x))
    return out.reshape(s.shape)


def tilde_static(model, x):
    """Tilde w.r.t. the static diagonal Hamiltonian, in closed form."""
    out = np.zeros_like(x, dtype=complex)
    gaps = model.diag_energies[1:]  # lambda_out - lambda_in = k + gap_shift
    out[0, 1:] = x[0, 1:] / gaps
    out[1:, 0] = x[1:, 0] / gaps
    return out


def per_node_ibp_sides(model, tau, x_profile, y_profile, s, quad_order):
    """Both sides of the identity as dense triple products, node by node.

    The sides as friedrichs.contour._ibp_sides defines them, each term
    formed as the full matrix Pperp U^dag M U P Y at every Gauss node.
    """
    from friedrichs.numutil import gauss_panel

    dim = model.dim
    sw = model.switching
    a_dense = model.exchange_dense()
    energies = model.diag_energies

    def frame(t):
        v = rotation_dense(model, float(sw.g(t)))
        return v, v * np.exp(-1j * tau * t * energies)[None, :]

    def term(u, m, y):
        out = np.outer((u.conj().T @ m @ u)[:, 0], y[0])
        out[0, :] = 0.0
        return out

    def tilde_of(v, m):
        return v @ tilde_static(model, v.conj().T @ m @ v) @ v.conj().T

    def transport_derivative(t, v):
        xv = v.conj().T @ x_profile.value(t) @ v
        xdv = v.conj().T @ x_profile.derivative(t) @ v
        inner = xdv - 1j * float(sw.gdot(t)) * (a_dense @ xv - xv @ a_dense)
        return v @ tilde_static(model, inner) @ v.conj().T

    nodes, weights = gauss_panel(0.0, s, quad_order)
    lhs = np.zeros((dim, dim), dtype=complex)
    int_d = np.zeros((dim, dim), dtype=complex)
    int_y = np.zeros((dim, dim), dtype=complex)
    for t, w in zip(nodes, weights):
        v, u = frame(t)
        y = y_profile.value(t)
        lhs += w * term(u, x_profile.value(t), y)
        int_d += w * term(u, transport_derivative(t, v), y)
        int_y += w * term(u, tilde_of(v, x_profile.value(t)),
                          y_profile.derivative(t))

    def boundary(t):
        v, u = frame(t)
        return term(u, tilde_of(v, x_profile.value(t)), y_profile.value(t))

    rhs = (1j / tau) * (boundary(s) - boundary(0.0) - int_d - int_y)
    return lhs, rhs


def rotation_dense(model, theta):
    """Dense matrix of exp(i theta A), summed from the projector identity.

    A^2 is the projector Pi onto span{e0, c}, so the exponential series
    sums to 1 + (cos theta - 1) Pi + i sin theta A.
    """
    a = model.exchange_dense()
    return (np.eye(model.dim, dtype=complex) + (np.cos(theta) - 1.0) * (a @ a)
            + 1j * np.sin(theta) * a)


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


def verify_generators(model, tau, s_samples=(0.25, 0.5, 0.75), fd_h=2e-3):
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
