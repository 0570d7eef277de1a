"""Wave-operator series, its closed-form first-order tail, and the uniform defect.

The wave operator compares the true and frame-following dynamics. It
solves a Volterra equation driven by the interaction kernel

    K(t) = -i gdot(t) [ |c(t)><e0| + |e0><c(t)| ],   c(t)_j = e^{i tau w_j t} c_j,

which vanishes outside the switching window. Iterated integrals of K
give the series terms; parity is exact term by term (even terms preserve
the bound/continuum split, odd terms exchange it), so only odd terms
feed the leak.

The uniform defect sup_s ||1 - Omega(s)|| takes the wave operator a
block of steps at a time (propagate.WaveBlock). Each stop of a block is
bracketed by the Rayleigh-Ritz values of an 8-column block and its
Frobenius norm, both from products with the block's prefix cores.
The stops whose bracket keeps them as candidates for the supremum are
settled one block later, together, by block power iteration on the
same cores, so no stop is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalOverflow, ResourceBudgetError
from .model import FriedrichsModel, check_model_inputs
from .numutil import (_start_block, block_power_norms,
                      cumulative_integration_matrix, gauss_rule, operator_norm,
                      ritz_bounds, rounding_gamma)
from .oscint import rate_transform
from .propagate import WaveBlock, evolve_wave_operator

__all__ = [
    "WaveOperatorSeries",
    "kernel_columns",
    "wave_operator_series",
    "first_order_tail",
    "adiabatic_defect",
]

_MAX_N = 512
_MAX_ORDER = 4
#: Ritz vectors carried from block to block, and those a candidate's
#: settle starts from
_CARRIED_COLUMNS = 4
_SETTLE_COLUMNS = 2


def kernel_columns(model: FriedrichsModel, tau: float, t) -> np.ndarray:
    """Bound-to-continuum columns of K at the times t, shape (len(t), N).

    Row m is -i gdot(t_m) e^{i tau w_j t_m} c_j, the whole of K(t_m):
    K is anti-Hermitian, so its bound row is minus the conjugate of the
    column, and the other blocks vanish. Magnitudes are tau-independent.
    """
    t = np.asarray(t, dtype=float)
    phases = np.exp(1j * tau * model.diag_energies[1:] * t[:, None])
    return -1j * model.switching.gdot(t)[:, None] * phases * model.coupling


@dataclass
class WaveOperatorSeries:
    """Iterated-integral terms of the wave operator at one evaluation time."""

    terms: list[np.ndarray]        # terms[i] at s_eval; terms[0] = identity
    n_panels: int

    def parity_defects(self) -> list[float]:
        """Relative norms of the wrong-parity blocks per term (term 1 on).

        The blocks are taken w.r.t. the bound direction e0: an odd term's
        are its bound-bound entry and continuum block, an even term's its
        bound row and continuum column. Only an odd term's continuum
        block needs a spectral norm.
        """
        out = []
        for i, m in enumerate(self.terms[1:], start=1):
            scale = max(operator_norm(m), 1e-300)
            if i % 2 == 1:  # odd terms are purely off-diagonal
                bad = max(abs(m[0, 0]), operator_norm(m[1:, 1:]))
            else:
                bad = max(float(np.linalg.norm(m[0, 1:])),
                          float(np.linalg.norm(m[1:, 0])))
            out.append(bad / scale)
        return out


def wave_operator_series(model: FriedrichsModel, tau: float, max_order: int = 4,
                         quad_order: int = 64, s_eval: float = 1.0) -> WaveOperatorSeries:
    """Series terms by composite Gauss collocation over the time simplex.

    Each level integrates K(t) against the previous level cumulatively:
    within a panel the integrand is collocated at quad_order Gauss nodes
    and integrated through the Legendre cumulative matrix, which is
    spectrally accurate once the per-panel phase tau * E_max * h stays
    a modest multiple of the node count. Panel count scales with tau
    accordingly. Sized for N <= 512 and max_order <= 4.

    K(t) X depends on X only through its bound row X[0, :] and the
    contraction col(t)^dagger X[1:, :] of its continuum rows, so per
    node a level carries just those two rows, row0 and kc. With start
    the term before the panel and G[m, j] = col_m^dagger col_j,

        row0' = start[0] - half cum @ kc
        kc'   = conj(col) @ start[1:] + half (cum * G) @ row0,

    and the panel adds -half w @ kc to start[0] and half (col^T * w) @
    row0 to start[1:]. The cost per panel and level is O(q dim^2) and
    the (q, dim, dim) stack of level values is never formed; the terms
    are dense only at the panel ends.
    """
    check_model_inputs(tau=tau, s_eval=s_eval)
    n_cont = model.dim - 1
    if n_cont > _MAX_N:
        raise ResourceBudgetError(
            f"series evaluation is budgeted for N <= {_MAX_N}, got N={n_cont}")
    if not 1 <= max_order <= _MAX_ORDER:
        raise ResourceBudgetError(
            f"series order is budgeted to {_MAX_ORDER}, got {max_order}")
    if quad_order < 4:
        raise ConfigurationError("quad_order must be at least 4")
    u = min(float(s_eval), 1.0)
    e_max = float(np.max(model.diag_energies))
    n_panels = max(4, math.ceil(tau * e_max * u / quad_order))

    x, w = gauss_rule(quad_order)
    cum = cumulative_integration_matrix(quad_order)
    dim = model.dim
    edges = np.linspace(0.0, u, n_panels + 1)
    starts = [np.eye(dim, dtype=complex)] + \
        [np.zeros((dim, dim), dtype=complex) for _ in range(max_order)]

    for p in range(n_panels):
        a, b = edges[p], edges[p + 1]
        half = 0.5 * (b - a)
        t_nodes = 0.5 * (a + b) + half * x
        col = kernel_columns(model, tau, t_nodes)   # (q, N)
        cum_g = cum * (col.conj() @ col.T)
        col_w = (col * w[:, None]).T                # (N, q)
        # level 0 is the identity at every node
        row0 = np.zeros((quad_order, dim), dtype=complex)
        row0[:, 0] = 1.0
        kc = np.zeros((quad_order, dim), dtype=complex)
        kc[:, 1:] = col.conj()
        for i in range(1, max_order + 1):
            start = starts[i]
            new_row0 = start[0] - half * (cum @ kc)
            new_kc = col.conj() @ start[1:] + half * (cum_g @ row0)
            start[0] -= half * (w @ kc)
            start[1:] += half * (col_w @ row0)
            row0, kc = new_row0, new_kc

    return WaveOperatorSeries(terms=starts, n_panels=n_panels)


def first_order_tail(model: FriedrichsModel, tau: float) -> tuple[np.ndarray, float]:
    """After-window bound-to-continuum column of the first series term.

    Entries are ghat(tau * k_j) * c_j with ghat the transform of the
    switching rate; the norm scales like tau^(-beta) once tau resolves
    the small-k coupling law. Requires the threshold case gap_shift = 0.
    The series term itself carries a further factor -i from the kernel;
    comparisons against series columns align that phase explicitly.
    """
    check_model_inputs(tau=tau)
    if model.gap_shift != 0.0:
        raise ConfigurationError("first_order_tail requires gap_shift = 0")
    vec = rate_transform(model.switching, tau * model.measure.nodes) * model.coupling
    return vec, float(np.linalg.norm(vec))


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """[0, x_0, x_0 + x_1, ...]: entry j sums the first j entries."""
    return np.concatenate((np.zeros(1, dtype=x.dtype), np.cumsum(x)))


def _stop_products(blk: WaveBlock, a0v: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_j V = A_0 V - Y C_j (z V) at every stop of the block, (m, dim, c).

    a0v is A_0 V, formed. Row 0 of Y C_j (z V) is row 0 of C_j times z V;
    the other rows sum u_a (x V)[a] over the prefix's steps, accumulated
    stop by stop, so a step after the last stop enters no product.
    """
    xv = blk.x @ v
    b = np.empty((len(blk.offsets),) + a0v.shape, dtype=complex)
    b[:] = a0v
    b[:, 0] -= blk.rows @ (blk.z @ v)
    acc = np.zeros((len(v) - 1, v.shape[1]), dtype=complex)
    a = 0
    for bj, j in zip(b, blk.offsets):
        acc += blk.u[a:j].T @ xv[a:j]
        bj[1:] -= acc
        a = j
    return b


def _ritz_block(grams: np.ndarray, basis: np.ndarray, c: int) -> np.ndarray:
    """The top c Ritz vectors of a stop on basis, top first.

    grams is the stop's Gram matrix (A V)^dagger (A V) on basis V.
    Stacked grams (m, b, b) give the stops' blocks stacked, (m, dim, c).
    """
    return basis @ np.linalg.eigh(grams)[1][..., :-c - 1:-1]


def _block_brackets(blk: WaveBlock, a0: np.ndarray, v: np.ndarray | None):
    """Bounds lo_i <= ||A_i||_2 <= hi_i at every stop of a block, unformed.

    a0 = 1 - blk.omega, formed. With z = Y^dagger omega, the stop j steps
    into the block is A_j = A_0 - Y C_j z (propagate.WaveBlock). The
    Frobenius norms come from products no larger than (k + 1) x dim:

        ||A_j||_F^2 = ||A_0||_F^2 - 2 Re tr(C_j P) + ||Y C_j z||_F^2,

    P = z A_0^dagger Y, taken through Y^dagger A_0 = Y^dagger - z. Only
    row 0 of C_j changes with j (propagate._folded_cores) and e0 is
    orthogonal to every u, so tr(C_j P) is row 0 of C_j times P[:, 0]
    plus a prefix sum over the steps, and ||Y C_j z||_F^2 is the norm of
    row 0 of C_j z plus the sum of gram * (x x^dagger)^T over its
    leading j x j block.

    The Ritz basis V is v, the 4-column block carried from block to
    block (the start block when None), and one power step of the last
    stop's A^dagger A on it: 8 orthonormal columns, a block Krylov space
    that follows the stops' top singular directions through the block.
    V is Q of the QR of [v, step], so V[:, :4] R_11 = v, and A_0 V[:, :4]
    is A_0 v, formed once for the power step, over R_11's diagonal (unit
    phases, as v is orthonormal). All the stops' A_j V come from one
    pass (_stop_products). Their Gram matrices G_j give the Ritz values
    theta_1 >= ... of numutil's bracket (the rest sum to tr G_j -
    theta_1), from one batched eigvalsh. Ritz vectors are formed only
    where they are read (_ritz_block): the last stop's top four are
    carried on, and a candidate's top two start its settle (_stop_norms).

    Rounding allowance, first order in the unit roundoff. Let a =
    ||A_0||_F, b_j = sqrt(j + 1) ||C_j||_F ||z_j||_F (z_j the first j + 1
    rows), which bounds ||Y C_j z||_F also with every entry replaced by
    its modulus (Y's columns are unit vectors), and s_j = a + b_j >=
    ||A_j||_F. No sum here is longer than N = dim^2 + 2, so every
    computed product X Y is within gamma_N |X| |Y| of the exact one
    (numutil.rounding_gamma). Then the computed ||A_0||_F^2 is off by at
    most gamma_N a^2; the trace term by 2 gamma_N b_j (sqrt(dim) + 3 a),
    which includes the rounding of z that Y^dagger A_0 = Y^dagger - z
    takes as exact (||omega||_F <= sqrt(dim) + a); and ||Y C_j z||_F^2
    by gamma_N b_j^2: together at most gamma_N (2 s_j^2 + 2 b_j
    sqrt(dim)). A_j V is off by gamma_N s_j ||V||_F = gamma_N s_j
    sqrt(c) for c columns. That also covers A_0 V[:, :4] taken from A_0
    v: its products sum dim terms, and the QR's backward error and R_11's
    off-diagonal add errors first order in u from sums of at most 8 dim
    terms, with 9 dim < N. So each Ritz value is off by at most
    r = (2 sqrt(c) + 3) gamma_N s_j^2, the 3 for its Gram matrix, the
    eigensolver and V's departure from orthonormality. So theta_slack =
    r and fro_slack = (c - 1) r + gamma_N (3 s_j^2 + 2 b_j sqrt(dim)),
    one spare s_j^2 covering the subtraction and the root.

    Raises NumericalOverflow, naming the step, at the first stop whose
    Frobenius sum is not finite, before a Ritz value is read. Returns
    (lo, hi, grams, basis, v): each stop's Gram matrix on basis, for its
    Ritz block (_ritz_block), and v the block to carry.
    """
    js = blk.offsets
    u, z, x, rows = blk.u, blk.z, blk.x, blk.rows
    dim = len(a0)
    if v is None:
        v = _start_block(dim)
    flat = a0.view(float).ravel()
    fa = float(flat @ flat)
    rz = rows @ z                                      # row 0 of each C_j z
    d = np.einsum("ai,ai->a", x[:, 1:], u) - np.vecdot(z[1:], x)
    trace = (rows @ (z @ a0[0].conj())).real + _prefix_sums(d.real)[js]
    # gram * (x x^dagger)^T is Hermitian: its real part is symmetric, and
    # a leading j x j block sums to the first j entries of w
    e = (blk.gram * (x @ x.conj().T).T).real
    w = 2.0 * np.tril(e, -1).sum(axis=1) + np.diagonal(e)
    fro = fa - 2.0 * trace + np.vecdot(rz, rz).real + _prefix_sums(w)[js]
    if not np.all(np.isfinite(fro)):
        step = blk.start + js[np.argmin(np.isfinite(fro))]
        raise NumericalOverflow(f"non-finite propagator at step {step}")

    # one power step of the last stop's A^dagger A on v: A^dagger (A v) =
    # A_0^dagger (A v) - z^dagger C^dagger (Y^dagger A v), each product
    # conjugating its small side; the step's scale is divided out so that
    # it enters the QR on a par with v
    j = js[-1]
    a0v = a0 @ v
    av = a0v.copy()
    av[0] -= rows[-1] @ (z @ v)
    av[1:] -= u[:j].T @ (x[:j] @ v)
    yav = (av[1:].conj().T @ u.T).conj().T             # rows 1.. of Y^dagger A v
    cyav = np.outer(rows[-1].conj(), av[0]) + (yav[:j].conj().T @ blk.lower[:j]).conj().T
    power = (av.conj().T @ a0).conj().T - (cyav.conj().T @ z).conj().T
    scale = np.abs(power).max()
    basis, tri = np.linalg.qr(np.concatenate((v, power / scale if scale > 0.0 else power),
                                             axis=1))
    c, k = basis.shape[1], v.shape[1]
    a0_basis = np.concatenate((a0v / np.diagonal(tri)[:k], a0 @ basis[:, k:]), axis=1)
    b = _stop_products(blk, a0_basis, basis)
    grams = b.conj().swapaxes(-1, -2) @ b
    core_sq = _prefix_sums(np.vecdot(blk.lower, blk.lower).real)[js] \
        + np.vecdot(rows, rows).real
    z_sq = np.cumsum(np.vecdot(z, z).real)[js]
    bj = np.sqrt((js + 1) * core_sq * z_sq)
    s_sq = (math.sqrt(fa) + bj) ** 2
    gamma = rounding_gamma(dim * dim + 2)
    r = (2.0 * math.sqrt(c) + 3.0) * gamma * s_sq
    lo, hi = ritz_bounds(
        grams, fro, r, (c - 1) * r + gamma * (3.0 * s_sq + 2.0 * bj * math.sqrt(dim)))
    return lo, hi, grams, basis, _ritz_block(grams[-1], basis, _CARRIED_COLUMNS)


def _stop_norms(blk: WaveBlock, a0: np.ndarray, stops: np.ndarray,
                start: np.ndarray) -> np.ndarray:
    """Exact ||A_j||_2 of some stops of a block, settled together, unformed.

    a0 = 1 - omega at the block's start, stops indexes blk.offsets and
    start holds each stop's top two Ritz vectors (_ritz_block),
    (len(stops), dim, 2). Two columns suffice: the rank-two coupling
    makes 1 - Omega's top two singular values a near pair, and at
    criterion 3 the third is at most 0.063 times the first, so a round
    cuts the top residual by about (sigma_3 / sigma_1)^2. The stops go
    to numutil.block_power_norms as one batch, each applied from the
    block's cores:

        A_j V = A_0 V - Y C_j (z V),
        A_j^dagger W = A_0^dagger W - z^dagger C_j^dagger (Y^dagger W).

    Row 0 of C_j is rows[i]; its rows 1 + a are lower's, kept for the
    steps a < j and zero after (propagate._folded_cores), so a (k, m)
    mask stands in for a stack of cores. With the batch's blocks side by
    side as (dim, m c) columns, a round takes one GEMM each with A_0,
    A_0^dagger, z, z^dagger, lower, lower^dagger, u^T and u^*; row 0 of
    C_j, the one row that differs per stop, enters through a stacked
    product. Raises ConvergenceFailure naming the stop's step.
    """
    js = blk.offsets[stops]
    rows = blk.rows[stops]
    u, z, lower = blk.u, blk.z, blk.lower
    dim, k = len(a0), len(u)
    before = np.arange(k)[:, None] < js        # (k, m): step a precedes stop i
    u_conj = u.conj()
    lower_h = lower.conj().T
    z_h = z.conj().T

    def side_by_side(v):
        return np.ascontiguousarray(v.transpose(1, 0, 2)).reshape(dim, -1)

    def product(active, v):
        m, _, c = v.shape
        flat = side_by_side(v)
        zv = (z @ flat).reshape(k + 1, m, c)
        out = (a0 @ flat).reshape(dim, m, c)
        out[0] -= (rows[active][:, None, :] @ zv.transpose(1, 0, 2))[:, 0]
        xv = (lower @ zv.reshape(k + 1, -1)).reshape(k, m, c)
        xv *= before[:, active, None]
        out[1:] -= (u.T @ xv.reshape(k, -1)).reshape(dim - 1, m, c)
        return out.transpose(1, 0, 2)

    def adjoint(active, w):
        m, _, c = w.shape
        flat = side_by_side(w)
        out = (flat.conj().T @ a0).conj().T
        yw = (u_conj @ flat[1:]).reshape(k, m, c)
        yw *= before[:, active, None]
        cyw = (lower_h @ yw.reshape(k, -1)).reshape(k + 1, m, c)
        cyw += rows[active].conj().T[:, :, None] * flat[0].reshape(m, c)
        out -= z_h @ cyw.reshape(k + 1, -1)
        return out.reshape(dim, m, c).transpose(1, 0, 2)

    labels = [f"the stop at step {blk.start + j}" for j in js]
    return block_power_norms(product, adjoint, start, labels=labels)[0]


def adiabatic_defect(model: FriedrichsModel, tau: float,
                     s_grid: np.ndarray | None = None,
                     n_steps: int | None = None) -> float:
    """sup over s of || 1 - wave_operator(s) ||, the uniform error scale.

    The default grid is 200 uniform points in the window plus the frozen
    after-window value. The norms are taken while the wave operator
    evolves, a block at a time (evolve_wave_operator's on_block), and no
    stop is ever formed. A block's stops are bracketed together, lo <=
    ||1 - Omega|| <= hi, from the block's cores (_block_brackets). The
    brackets' Frobenius sums also check each stop finite, so a
    non-finite stop raises NumericalOverflow before a Ritz value is
    read. Every lower bound of the block raises the floor, the best
    lower bound of the supremum. The block's candidates, its stops with
    hi above the floor, wait one block: A_0 = 1 - Omega at their block's
    start stays in one of two alternating (dim, dim) buffers, beside the
    block's own cores. Once the next block's lower bounds have raised
    the floor, the waiting stops whose hi still exceeds it are settled
    in one batch (_stop_norms: block power iteration from each stop's
    top two Ritz vectors, converged to 1e-12 relative or the call
    fails), and their largest norm raises the floor in turn; the last
    block's candidates are settled after the evolution. A stop left out
    cannot hold the supremum, so the result is the largest exact norm,
    as if every stop had been settled.
    """
    return _settled_defect(model, tau, s_grid, n_steps)[0]


def _settled_defect(model: FriedrichsModel, tau: float, s_grid: np.ndarray | None,
                    n_steps: int | None) -> tuple[float, int, int]:
    """adiabatic_defect's (supremum, exact norms taken, batches that took them)."""
    n_cont = model.dim - 1
    if n_cont > _MAX_N:
        raise ResourceBudgetError(
            f"defect evaluation is budgeted for N <= {_MAX_N}, got N={n_cont}")
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 201)
    if n_steps is None:
        n_steps = 1024
    check_model_inputs(s_grid=s_grid)
    dim = model.dim
    buffers = [np.empty((dim, dim), dtype=complex) for _ in range(2)]
    floor = 0.0                # the best lower bound of the supremum
    best = 0.0                 # the largest exact norm
    settled = []               # the size of each batch of exact norms
    v = None
    waiting = None             # (block, A_0, stops, their hi, Ritz blocks)

    def settle():
        nonlocal floor, best
        blk, a0, stops, hi, start = waiting
        keep = hi > floor
        if keep.any():
            best = max(best, float(_stop_norms(blk, a0, stops[keep],
                                               start[keep]).max()))
            floor = max(floor, best)
            settled.append(int(keep.sum()))

    def take(blk):
        nonlocal floor, v, waiting
        a0 = buffers[0]
        buffers.reverse()
        # negating the float view is exact and several times faster than
        # negating the complex array
        np.negative(blk.omega.view(float), out=a0.view(float))
        a0.flat[::dim + 1] += 1.0
        lo, hi, grams, basis, v = _block_brackets(blk, a0, v)
        floor = max(floor, float(lo.max()))
        if waiting is not None:
            settle()
        stops = np.flatnonzero(hi > floor)
        if len(stops):
            waiting = (blk, a0, stops, hi[stops],
                       _ritz_block(grams[stops], basis, _SETTLE_COLUMNS))
        else:
            waiting = None

    evolve_wave_operator(model, tau, n_steps, record_s=s_grid, on_block=take)
    if waiting is not None:
        settle()
    return float(best), sum(settled), len(settled)
