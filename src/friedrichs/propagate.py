"""Time evolution at large adiabaticity parameter tau, and the leak metric.

The true dynamics is integrated in the interaction picture. In the
co-rotating frame the generator is tau * H + gdot(s) * A, with H fixed
diagonal and A the fixed exchange generator; taking out the free phases
exp(-i tau s H) leaves a rank-two coupling with oscillating phases. Each
step exponentiates the exactly integrated coupling, with the oscillatory
moments int gdot(t) exp(i tau omega t) dt evaluated by the Filon
machinery, so the step is limited by the smoothness of gdot alone, not
by tau (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999). A step is
a rank-two rotation exp(-i r (|u><e0| + |e0><u|)) of cost O(N).

The loop evolves a batch of T states at once, one per tau:
`evolve_true` takes one tau or a sequence of them, and a single tau is
the batch T = 1. Every operation acts on each row alone, so a row's
result does not depend on which other taus share its batch.

The generators are prepared in blocks of _RESEED_STEPS (64) steps, for
all T rows together: one real matrix product contracts the Filon
moments, shape (T, N, deg + 1), with the per-step Legendre coefficients
of gdot, so the (T, N, n_steps) array of generators never exists at
once. Within a block the free phases exp(i tau omega t) at the step
midpoints advance by powers of a fixed rotor exp(i tau omega h); each
block re-seeds them with a direct exp, which bounds the rounding the
rotor accumulates to about 64 ulps.

The loop takes two steps per iteration. The product of two rotations
is the k = 2 case of the compact-WY form below; from the bound
amplitude b0 and the overlaps w_a = <u_a, psi>, w_b = <u_b, psi> of the
continuum state psi, one 4 x 3 map per pair and row (_pair_maps, built
a block at a time) gives the bound amplitudes after both steps and the
coefficients of the continuum updates psi + x_a u_a and
psi + x_a u_a + x_b u_b. An iteration makes one overlap call, one map
product, one scaled copy and two adds for both states, so numpy's
per-call overhead is paid once for two steps. An odd count ends with an
identity step.

Every step's sum of squares of the continuum amplitudes is kept (a
pair's two in one call); the square root is the leak, and with the
bound amplitude, also kept per step, it gives the norm drift
|sqrt(|b0|^2 + cont) - 1|. Drift and finiteness are evaluated for every
step of every row. A row that goes non-finite or exceeds the drift
tolerance fails alone; the other rows of its batch are unaffected.

The wave-operator evolution applies the same rotations to a (dim, dim)
matrix. The product of a block's steps has the compact-WY form
1 + X T X^dagger with X = [e0, u_1, e0, u_2, ...] (Schreiber & Van
Loan, 1989; the T factor of Joffrain et al., 2006): one small triangular
T per block, built in log2(64) doubling rounds. The product of the
block's first j steps is 1 + Y C_j Y^dagger, Y = [e0, u_1, ..., u_k],
with C_j folded from T's leading block; only C_j's first row depends on
j. So the matrix takes one BLAS-3 update per block, with no QR and no
loop over steps, and every record stop is a prefix of its block: a
consumer gets the block once (WaveBlock) and can reduce its stops
without forming them (see _block_factor, _prefix_cores and
_prefix_product).

For s >= 1 the driving vanishes, so the interaction-frame state stays
as it was at the end of the window: a run stops at s = 1, and its leak
at any later s is the leak at s = 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConfigurationError, FriedrichsError, IntegrationFailure,
                     NumericalOverflow)
from .model import FriedrichsModel, check_model_inputs
from .numutil import legendre_projection
from .oscint import fourier_legendre_moments

__all__ = [
    "steps_for",
    "Trajectory",
    "TrajectoryBatch",
    "evolve_true",
    "evolve_wave_operator",
    "WaveBlock",
]

_MAGNUS_DEGREE = 8
_RESEED_STEPS = 64
_AUTO_STEPS = 512


def steps_for(max_step: float | None) -> int:
    """Step count in the window [0, 1] for a cap on the step; auto is 512."""
    if max_step is None:
        return _AUTO_STEPS
    if max_step <= 0.0:
        raise ConfigurationError("max_step must be positive")
    return math.ceil(1.0 / max_step)


@dataclass
class Trajectory:
    """The leak after every step of the window [0, 1], and the final state.

    window_leaks[m] is the leak at s = m / n_window_steps. final_state is
    the packed interaction-frame vector at s = 1; past the window the
    driving vanishes, so it is the state at every s >= 1.
    """

    tau: float
    unitarity_drift: float
    n_window_steps: int
    window_leaks: np.ndarray
    final_state: np.ndarray

    @property
    def sup_leak_window(self) -> float:
        return float(np.max(self.window_leaks))

    def leak_at(self, s: float) -> float:
        """Leak at s >= 0; an in-window s is looked up at its grid step."""
        if not s >= 0.0:
            raise ConfigurationError(f"s must be >= 0, got {s}")
        return float(self.window_leaks[round(min(s, 1.0) * self.n_window_steps)])


@dataclass
class TrajectoryBatch:
    """One batched run: an entry per tau, in the order the taus were given.

    An entry is the column's Trajectory, or the FriedrichsError that
    rejected that column alone.
    """

    # perfbench's tracer reads n_window_steps and unitarity_drift of what
    # evolve_true returns (this or a Trajectory) to count propagate.steps
    taus: tuple[float, ...]
    results: list
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


def _interaction_blocks(model: FriedrichsModel, taus: np.ndarray, n_steps: int):
    """Rank-two rotations of the interaction steps, _RESEED_STEPS at a time.

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
        # numpy divides complex by real through the reciprocal, so this
        # multiply gives the same bits at a quarter of the cost
        d *= (1.0 / np.where(r > 0.0, r, 1.0))[..., None]
        yield start, d, np.cos(r) - 1.0, 1j * np.sin(r)


def _pair_maps(u: np.ndarray, cos_m1: np.ndarray, isin: np.ndarray) -> np.ndarray:
    """Each pair of steps (a, b) as one linear map, (pairs, T, 4, 3).

    A state (b0, psi) with overlaps w_a = <u_a, psi>, w_b = <u_b, psi>
    goes through step a to (b1, psi + x_a u_a) and through step b to
    (b2, psi + x_a u_a + x_b u_b). The map takes z = (b0, w_a, w_b) to
    (b1, x_a, x_b, b2). With c = cos r - 1, s = -i sin r and
    g = <u_b, u_a>: b1 = (1 + c_a) b0 + s_a w_a and
    x_a = s_a b0 + c_a w_a; step b sees the overlap w_b + g x_a, so
    x_b = c_b (w_b + g x_a) + s_b b1 and
    b2 = (1 + c_b) b1 + s_b (w_b + g x_a). This is the k = 2 case of the
    compact-WY product (_block_factor, _prefix_cores): the rows are
    e0 + row 0 of C_1, the two rows of lower, and e0 + row 0 of C_2.
    """
    ca, cb = cos_m1[0::2], cos_m1[1::2]
    sa, sb = -isin[0::2], -isin[1::2]
    maps = np.zeros(ca.shape + (4, 3), dtype=complex)
    b1, x_a, x_b, b2 = np.moveaxis(maps, -2, 0)   # the rows, z's coefficients
    b1[..., 0], b1[..., 1] = ca + 1.0, sa
    x_a[..., 0], x_a[..., 1] = sa, ca
    seen_b = np.vecdot(u[1::2], u[0::2])[..., None] * x_a   # w_b + g x_a
    seen_b[..., 2] += 1.0
    np.add(cb[..., None] * seen_b, sb[..., None] * b1, out=x_b)
    np.add((cb + 1.0)[..., None] * b1, sb[..., None] * seen_b, out=b2)
    return maps


def _evolve_rows(model: FriedrichsModel, taus: np.ndarray, n: int,
                 drift_tolerance: float) -> list:
    """The stepping loop from e0: row t of the state evolves with taus[t].

    Each iteration takes a pair of steps (see _pair_maps); an odd count
    ends with an identity step (u = 0, c = s = 0). Returns one Trajectory
    or FriedrichsError per row.
    """
    rows, n_cont = len(taus), model.measure.n_nodes
    pairs = (n + 1) // 2
    # per row, pair p's z = (b0, w_a, w_b) and map output (b1, x_a, x_b, b2)
    # at columns 6p..6p + 6: its b2 is the next pair's b0, so column 3m
    # holds the bound amplitude after step m
    hist = np.empty((rows, 6 * pairs + 1), dtype=complex)
    hist[:, 0] = 1.0
    slots = hist[:, :-1].reshape(rows, pairs, 6).transpose(1, 0, 2)
    z = slots[..., :3, None]                          # (pairs, T, 3, 1)
    w = slots[..., 1:3].transpose(0, 2, 1)            # (pairs, 2, T)
    x = slots[..., 4:6].transpose(0, 2, 1)[..., None]  # (pairs, 2, T, 1)
    y = sliding_window_view(hist, 4, axis=1, writeable=True)[:, 3::6]
    y = y.transpose(1, 0, 2)[..., None]               # (pairs, T, 4, 1)
    sq = np.empty((2 * pairs + 1, rows))   # continuum sum of squares per step
    sq[0] = 0.0
    pair_sq = sq[1:].reshape(pairs, 2, rows)
    first_ok = np.empty((pairs, rows), dtype=bool)   # step a's c and s finite
    # the two continuum states of a pair; iterations alternate buffers, so
    # the previous pair's last state is read while this pair's are written
    bufs = [(b, b.view(float), b[0], b[1])
            for b in np.zeros((2, 2, rows, n_cont), dtype=complex)]
    cont = bufs[1][3]

    for start, u, cos_m1, isin in _interaction_blocks(model, taus, n):
        if len(u) % 2:
            u, cos_m1, isin = (np.concatenate((a, np.zeros_like(a[:1])))
                               for a in (u, cos_m1, isin))
        maps = _pair_maps(u, cos_m1, isin)
        first = start // 2
        first_ok[first:first + len(maps)] = (np.isfinite(cos_m1[0::2])
                                             & np.isfinite(isin[0::2]))
        u = u.reshape(len(maps), 2, rows, n_cont)
        for j in range(len(maps)):
            p = first + j
            buf, buf_r, after_a, after_b = bufs[p % 2]
            np.vecdot(u[j], cont, out=w[p])
            np.matmul(maps[j], z[p], out=y[p])
            np.multiply(u[j], x[p], out=buf)
            after_a += cont
            after_b += after_a
            np.vecdot(buf_r, buf_r, out=pair_sq[p])
            cont = after_b

    bound = hist[:, 0:3 * n + 1:3].T
    sq = sq[:n + 1]
    leaks = np.sqrt(sq)
    dev = np.abs(np.sqrt(np.abs(bound) ** 2 + sq) - 1.0)
    finite = np.isfinite(bound) & np.isfinite(sq)
    results = []
    for t, tau in enumerate(taus.tolist()):
        if not finite[:, t].all():
            step = int(np.argmin(finite[:, t]))
            # the map also reads w_b into a pair's first state, as 0 * w_b:
            # if step a's c, s and w_a are finite, the fault is step b's
            if (step % 2 and first_ok[step // 2, t]
                    and np.isfinite(hist[t, 3 * step - 2])):
                step += 1
            results.append(NumericalOverflow(
                f"non-finite state at step {step} (tau={tau})"))
            continue
        drift = float(np.max(dev[:, t]))
        if drift > drift_tolerance:
            results.append(IntegrationFailure(
                f"unitarity drift {drift:.3e} exceeds tolerance "
                f"{drift_tolerance:.1e} (tau={tau})", drift))
            continue
        results.append(Trajectory(tau=tau, unitarity_drift=drift, n_window_steps=n,
                                  window_leaks=np.ascontiguousarray(leaks[:, t]),
                                  final_state=np.concatenate((bound[n, t:t + 1],
                                                              cont[t]))))
    return results


def evolve_true(model: FriedrichsModel, tau, n_steps: int,
                drift_tolerance: float = 1e-9):
    """Integrate the driven dynamics from the bound state e0 at s = 0.

    The window [0, 1] is covered by n_steps uniform steps, and the leak
    is kept after every one of them; past the window the
    interaction-frame state is constant, so the run stops at s = 1.

    With a single tau, returns its Trajectory or raises its failure.
    With a sequence of taus, integrates them in one batch and returns a
    TrajectoryBatch in which a failed column holds its error; the other
    columns are unaffected, and each equals its single-tau run bit for
    bit.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if taus.ndim != 1 or taus.size == 0:
        raise ConfigurationError("tau must be a number or a nonempty sequence")
    for t in taus.tolist():
        check_model_inputs(tau=t)
    check_model_inputs(n_steps=n_steps)

    results = _evolve_rows(model, taus, n_steps, drift_tolerance)
    if np.ndim(tau) == 0:
        return TrajectoryBatch((float(tau),), results, n_steps).trajectories()[0]
    return TrajectoryBatch(tuple(taus.tolist()), results, n_steps)


def _total_norm_dev(state: np.ndarray) -> float:
    sq = np.abs(state[0]) ** 2 + np.sum(np.abs(state[1:]) ** 2, axis=0)
    return float(np.max(np.abs(np.sqrt(sq) - 1.0)))


def _block_factor(gram: np.ndarray, cos_m1: np.ndarray,
                  isin: np.ndarray) -> np.ndarray:
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


def _prefix_cores(t: np.ndarray, offsets: np.ndarray):
    """Folded cores of the block's prefixes: (rows, lower).

    The first j steps of a block multiply to 1 + Y C_j Y^dagger with
    Y = [e0, u_1, ..., u_k] (only its first j + 1 columns enter). T's
    leading (2 j, 2 j) block is their factor: T is block lower
    triangular, and a leading block of a triangular inverse is the
    inverse of that block. Folding its e0 rows and columns onto one
    gives the (j + 1, j + 1) core C_j. Row 1 + a of C_j (a < j) is step
    a's row of T, summed over the e0 columns; by triangularity it is the
    same for every j > a, so `lower`, (k, k + 1), holds those rows for
    all prefixes at once. Only row 0 depends on j: it sums T's e0 rows
    over the first j steps. rows[i] is that row for offsets[i] steps,
    zero from column offsets[i] + 1 on.
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


def _prefix_product(mat: np.ndarray, u: np.ndarray, z: np.ndarray,
                    x: np.ndarray, row: np.ndarray, j: int) -> None:
    """mat <- mat + Y C_j z, in place: R_j ... R_1 omega when mat holds omega.

    For the first j steps of a block, with z = Y^dagger omega: row 0 of
    C_j is `row`, its rows 1..j are the first j rows of lower (see
    _prefix_cores), and lower @ z = x, so the update takes one GEMM.
    """
    mat[0] += row[:j + 1] @ z[:j + 1]
    mat[1:] += u[:j].T @ x[:j]


@dataclass
class WaveBlock:
    """One block of the wave-operator evolution and the record stops in it.

    omega is the matrix at step `start`; the block's k steps take it to
    R_k ... R_1 omega. The stop offsets[i] steps in is omega + Y C_j z
    with j = offsets[i], Y = [e0, u_1, ..., u_k] and z = Y^dagger omega
    (see _prefix_cores for C_j: rows[i] is its row 0, lower the rest).
    omega is the evolving matrix itself: read it during the call, do not
    keep or write it. Every other field is the block's own, made for
    this block alone, and may be kept after the call.
    """

    start: int
    omega: np.ndarray     # (dim, dim)
    u: np.ndarray         # (k, N) the steps' directions
    gram: np.ndarray      # (k, k) u^dagger u
    z: np.ndarray         # (k + 1, dim) Y^dagger omega
    lower: np.ndarray     # (k, k + 1) rows 1.. of every prefix core
    x: np.ndarray         # (k, dim) lower @ z
    offsets: np.ndarray   # (m,) steps into the block of each stop
    rows: np.ndarray      # (m, k + 1) row 0 of each stop's core

    def stop_matrix(self, i: int, out: np.ndarray) -> np.ndarray:
        """The matrix at stop i, formed into out with one GEMM."""
        np.copyto(out, self.omega)
        _prefix_product(out, self.u, self.z, self.x, self.rows[i],
                        int(self.offsets[i]))
        return out


def _evolve_block(mat: np.ndarray, start: int, u: np.ndarray, cos_m1: np.ndarray,
                  isin: np.ndarray, offsets: np.ndarray,
                  on_block: Callable[[WaveBlock], None]) -> None:
    """Take mat through one block of steps, in place.

    A block with record stops (offsets) goes to on_block first. The
    block's arrays are released on return, before the next block's
    factor is built.
    """
    k = len(u)
    gram = u.conj() @ u.T
    rows, lower = _prefix_cores(_block_factor(gram, cos_m1, isin),
                                np.append(offsets, k))
    z = np.empty((k + 1, len(mat)), dtype=complex)
    z[0] = mat[0]
    np.matmul(u.conj(), mat[1:], out=z[1:])
    x = lower @ z
    if len(offsets):
        on_block(WaveBlock(start, mat, u, gram, z, lower, x, offsets, rows[:-1]))
    _prefix_product(mat, u, z, x, rows[-1], k)


# perfbench's tracer reads n_steps (third argument or keyword) and the drift
# result[2] to count propagate.wave_steps; keep both where they are
def evolve_wave_operator(model: FriedrichsModel, tau: float, n_steps: int,
                         record_s: np.ndarray, drift_tolerance: float = 1e-9,
                         on_block: Callable[[WaveBlock], None] | None = None):
    """Evolve the full basis in the interaction frame; the matrix at time s
    is the wave operator comparing true and frame dynamics.

    Takes the same rotations as evolve_true, applied to the (dim, dim)
    matrix a block at a time: each _RESEED_STEPS-step block gets one
    compact-WY factor (_block_factor), and the matrix takes the whole
    block's product as one update (_prefix_product). A record stop is a prefix
    of its block, so its matrix is the block's start matrix plus the
    prefix's update (_prefix_cores, WaveBlock.stop_matrix). A non-finite
    rotation makes its block's factor non-finite. Drift and finiteness
    are checked at every block end, so at least every 64 steps and at
    the last step. Returns (actual record times snapped to
    the grid, list of matrices, drift).

    With on_block, each block that holds record stops is handed over
    once, as a WaveBlock, before the matrix moves past it, and the list
    comes back empty: a consumer that reduces the stops as they come
    holds no matrix per record, and can reduce a block's stops together
    without forming them. The stops are not checked, so a consumer checks
    finiteness itself before it relies on one (adiabatic_defect takes it
    from the Frobenius norms it needs anyway).
    """
    check_model_inputs(tau=tau, n_steps=n_steps, record_s=record_s)
    n = int(n_steps)
    record_idx = sorted({min(round(float(t) * n), n) for t in record_s})
    mat = np.eye(model.dim, dtype=complex)
    out, s_out = [], []
    drift = 0.0

    def keep_all(blk):
        out.extend(blk.stop_matrix(i, np.empty_like(mat))
                   for i in range(len(blk.offsets)))

    for start, u, cos_m1, isin in _interaction_blocks(
            model, np.array([float(tau)]), n):
        k = len(cos_m1)
        offsets = np.array([i - start for i in record_idx
                            if start < i <= start + k or i == start == 0], dtype=int)
        s_out.extend(((start + offsets) / n).tolist())
        _evolve_block(mat, start, u[:, 0], cos_m1[:, 0], isin[:, 0], offsets,
                      keep_all if on_block is None else on_block)
        dev = _total_norm_dev(mat)
        if not np.isfinite(dev):
            raise NumericalOverflow(f"non-finite propagator at step {start + k}")
        drift = max(drift, dev)
    if drift > drift_tolerance:
        raise IntegrationFailure(
            f"propagator drift {drift:.3e} exceeds {drift_tolerance:.1e}", drift)
    return np.array(s_out), out, drift
