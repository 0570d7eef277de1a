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

The directions d = r u are formed in blocks of _RESEED_STEPS (64)
steps, for all T rows together: one real matrix product contracts the
Filon moments, shape (deg + 1, T, N), with the per-step Legendre
coefficients of gdot, so the (n_steps, T, N) array of directions never
exists at once. Within a block the free phases exp(i tau omega t) at
the step midpoints advance by powers of a fixed rotor
exp(i tau omega h); each block re-seeds them with a direct exp, which
bounds the rounding the rotor accumulates to about 64 ulps.

No block reduces over the N nodes. The phases have unit modulus, so
every angle r = |d| and every overlap <d_b, d_a> of a pair's two steps
is a quadratic form in the steps' coefficients: two (T, deg + 1,
deg + 1) Gram forms of the moments, built once per run (_step_forms),
give all of them, and with them cos r - 1, i sin r, 1 / r and (for
the stepping loop alone) every pair map, in a few whole-run products.

The loop takes two steps per iteration. The product of two rotations
is the k = 2 case of the folded product below; from the bound
amplitude b0 and the overlaps w_a = <d_a, psi>, w_b = <d_b, psi> of the
continuum state psi, one 4 x 3 map per pair and row (_pair_maps, with
1 / r folded in, so the directions are never normalised) gives the
bound amplitudes after both steps and the coefficients of the continuum
updates psi + x_a d_a and psi + x_a d_a + x_b d_b. An iteration makes
one overlap call, one map product, one scaled copy and two adds for
both states, so numpy's per-call overhead is paid once for two steps.
An odd count ends with an identity step.

Every step's sum of squares of the continuum amplitudes is kept (a
pair's two in one call); the square root is the leak, and with the
bound amplitude, also kept per step, it gives the norm drift
|sqrt(|b0|^2 + cont) - 1|. Drift and finiteness are evaluated for every
step of every row. A row that goes non-finite or exceeds the drift
tolerance fails alone; the other rows of its batch are unaffected.

The wave-operator evolution applies the same rotations to a (dim, dim)
matrix, each block's directions normalised with the given 1 / r. The
product of a block's first j steps is 1 + Y C_j Y^dagger with
Y = [e0, u_1, ..., u_k], a compact-WY form (Schreiber & Van Loan, 1989)
folded onto the k + 1 columns of Y, e0 taken once. Only C_j's first
row depends on j; the (k + 1)-column cores of every prefix are built in
log2(64) doubling rounds in that folded basis (_folded_cores). So the
matrix takes one BLAS-3 update per block, with no QR and no loop over
steps, and every record stop is a prefix of its block: a consumer gets
the block once (WaveBlock, the only code that reads the folded cores)
and can reduce its stops without forming them.

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
from .model import (_INPUT_RULES, FriedrichsModel, _count, _is_positive,
                    check_model_inputs)
from .numutil import legendre_projection
from .oscint import fourier_legendre_moments

__all__ = [
    "MAX_STEPS",
    "steps_for",
    "Trajectory",
    "TrajectoryBatch",
    "evolve_true",
    "evolve_wave_operator",
    "WaveBlock",
]

_STEP_DEGREE = 8
_RESEED_STEPS = 64
_AUTO_STEPS = 512
#: largest norm drift a run may reach; evolve_true's default, the default
#: of the sweep's [integrate] drift_tolerance, and evolve_wave_operator's bound
_DRIFT_TOLERANCE = 1e-9
#: the most steps one run may take. _evolve_rows keeps, per row and step,
#: three complex history slots (48 B), one sum of squares (8 B) and half a
#: 4 x 3 complex pair map (96 B): 152 B, so 38 MiB a row at 2^18 steps,
#: 8 times the 32768-step reference runs of the benchmark
MAX_STEPS = 2 ** 18
_INPUT_RULES.update(
    n_steps=(lambda v: _count(1)(v) and v <= MAX_STEPS,
             f"must be an integer >= 1 and at most {MAX_STEPS} (the step budget)"),
    max_step=(lambda v: v is None or (_is_positive(v) and 1.0 / float(v) <= MAX_STEPS),
              f"must be auto (None) or finite and > 0, with 1 / max_step at most "
              f"{MAX_STEPS} (the step budget)"))


def steps_for(max_step: float | None) -> int:
    """Step count in the window [0, 1] for a cap on the step; auto is 512."""
    check_model_inputs(max_step=max_step)
    return _AUTO_STEPS if max_step is None else math.ceil(1.0 / max_step)


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


def _step_forms(coeffs: np.ndarray, moments: np.ndarray, rotor: np.ndarray):
    """Every step's angle r, (steps, T), and pair overlap <d_b, d_a>, (pairs, T).

    Step m's direction is d_m = phase_m * (c_m . M): c_m = coeffs[m] holds
    its Legendre coefficients of gdot, M = moments, (deg + 1, T, N), the
    Filon moments with the coupling folded in, and phase_m the free
    phases at its midpoint. Every phase has unit modulus, so the phases
    cancel from r^2 = ||d_m||^2 = c_m^T Re(B_t) c_m, B_t = conj(M_t) M_t^T.
    The steps a = 2 i and b = a + 1 of a pair lie in one block, so
    phase_b = phase_a * p with p = rotor, the one-step rotor
    exp(i tau omega h), and <d_b, d_a> = c_b^T A_t c_a with
    A_t = (conj(M_t) * conj(p_t)) M_t^T. Both (T, deg + 1, deg + 1)
    forms are built once; the steps then cost O(deg^2) each, with no
    reduction over the N nodes.
    """
    m = moments.transpose(1, 0, 2)                        # (T, deg + 1, N)
    real = m.view(float)
    gram = real @ real.swapaxes(-1, -2)                   # Re(B)
    cross = (m.conj() * rotor.conj()[:, None]) @ m.swapaxes(-1, -2)   # A
    r = np.sqrt(np.vecdot(coeffs @ gram, coeffs))
    overlaps = np.vecdot(coeffs[0::2], coeffs[1::2] @ cross)
    return r.T, overlaps.T


def _interaction_blocks(model: FriedrichsModel, taus: np.ndarray, n_steps: int):
    """Rank-two rotations of the interaction steps, _RESEED_STEPS at a time.

    Returns (forms, blocks): forms = (1 / r, cos r - 1, i sin r, pair
    overlaps), the whole run's, (steps, T) and (steps / 2, T), as
    _pair_maps takes them; blocks yields (first step, d) per block, d of
    shape (steps, T, N). Step m of row t rotates by
    d = coupling * exp(i tau_t omega t_m) * mu_t[:, m] through the angle
    r = |d|: mu is the Filon moment of gdot against the free phase over
    the step, taken relative to the midpoint t_m, and the step's unit
    direction is u = d / r (zero when r is; then 1 / r is taken as 1).
    An odd count gets one more step, an identity step with d = 0, so
    that every block holds whole pairs; evolve_wave_operator drops it.

    The forms come from the Gram forms of the moments (_step_forms),
    once for the whole run. A block then only forms its d: the phase at
    its first step is a direct exp, step k of the block multiplies it
    by the rotor power exp(i tau omega h)^k, and one real product
    contracts the moments with the steps' coefficients.
    """
    h = 1.0 / n_steps
    deg = _STEP_DEGREE
    x, _, analysis = legendre_projection(deg + 1)
    mids = (np.arange(n_steps) + 0.5) * h
    t_nodes = mids[:, None] + 0.5 * h * x[None, :]
    # (steps, deg + 1): Legendre coefficients of gdot on each step, and a
    # zero row for an odd count's identity step
    coeffs = np.zeros((n_steps + n_steps % 2, deg + 1))
    coeffs[:n_steps] = (0.5 * h) * (model.switching.gdot(t_nodes) @ analysis.T)
    freqs = np.multiply.outer(taus, model.diag_energies[1:])
    # (deg + 1, T, N), with the coupling folded in
    moments = np.moveaxis(fourier_legendre_moments(freqs * 0.5 * h, deg), -1, 0)
    moments = np.ascontiguousarray(moments) * model.coupling
    powers = np.empty((_RESEED_STEPS,) + freqs.shape, dtype=complex)
    powers[0] = 1.0
    powers[1:] = np.exp(1j * freqs * h)
    np.multiply.accumulate(powers, axis=0, out=powers)
    r, overlaps = _step_forms(coeffs, moments, powers[1])
    # r is 0 or the root of a double, so at least 2^-537: 1 / r is finite
    inv_r = 1.0 / np.where(r > 0.0, r, 1.0)

    def blocks():
        for start in range(0, len(coeffs), _RESEED_STEPS):
            stop = min(start + _RESEED_STEPS, len(coeffs))
            seeded = moments * np.exp(1j * freqs * mids[start])
            # one real product over all rows: (steps, deg + 1) @ (deg + 1, 2 T N)
            d = coeffs[start:stop] @ seeded.view(float).reshape(deg + 1, -1)
            d = d.view(complex).reshape((stop - start,) + freqs.shape)
            d *= powers[:stop - start]
            yield start, d

    return (inv_r, np.cos(r) - 1.0, 1j * np.sin(r), overlaps), blocks()


def _pair_maps(inv_r: np.ndarray, cos_m1: np.ndarray, isin: np.ndarray,
               overlaps: np.ndarray) -> np.ndarray:
    """Each pair of steps (a, b) as one linear map, (pairs, T, 4, 3).

    A state (b0, psi) with overlaps w_a = <d_a, psi>, w_b = <d_b, psi>
    goes through step a to (b1, psi + x_a d_a) and through step b to
    (b2, psi + x_a d_a + x_b d_b). The map takes z = (b0, w_a, w_b) to
    (b1, x_a, x_b, b2). With c = (cos r - 1) / r^2, s = -i sin r / r
    and G = <d_b, d_a> (overlaps): b1 = (1 + r_a^2 c_a) b0 + s_a w_a and
    x_a = s_a b0 + c_a w_a; step b sees the overlap w_b + G x_a, so
    x_b = c_b (w_b + G x_a) + s_b b1 and
    b2 = (1 + r_b^2 c_b) b1 + s_b (w_b + G x_a). On the unit directions
    u = d / r these are the usual cos r - 1, -i sin r and <u_b, u_a>,
    with every overlap scaled by r and every coefficient by 1 / r: the
    k = 2 case of the folded prefix cores (_folded_cores), whose rows
    are e0 + row 0 of C_1, the two rows of lower, and e0 + row 0 of C_2.
    """
    # (c / r) / r: c is exactly 0 wherever 1 / r^2 would overflow
    c = cos_m1 * inv_r * inv_r
    s = -isin * inv_r
    ca, cb, sa, sb = c[0::2], c[1::2], s[0::2], s[1::2]
    maps = np.zeros(ca.shape + (4, 3), dtype=complex)
    b1, x_a, x_b, b2 = np.moveaxis(maps, -2, 0)   # the rows, z's coefficients
    b1[..., 0], b1[..., 1] = cos_m1[0::2] + 1.0, sa
    x_a[..., 0], x_a[..., 1] = sa, ca
    seen_b = overlaps[..., None] * x_a            # w_b + G x_a
    seen_b[..., 2] += 1.0
    np.add(cb[..., None] * seen_b, sb[..., None] * b1, out=x_b)
    np.add((cos_m1[1::2] + 1.0)[..., None] * b1, sb[..., None] * seen_b, out=b2)
    return maps


def _evolve_rows(model: FriedrichsModel, taus: np.ndarray, n: int,
                 drift_tolerance: float) -> list:
    """The stepping loop from e0: row t of the state evolves with taus[t].

    Each iteration takes a pair of steps (see _pair_maps); an odd count
    ends with an identity step (d = 0, c = s = 0). Returns one Trajectory
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
    # the two continuum states of a pair; iterations alternate buffers, so
    # the previous pair's last state is read while this pair's are written
    bufs = [(b, b.view(float), b[0], b[1])
            for b in np.zeros((2, 2, rows, n_cont), dtype=complex)]
    cont = bufs[1][3]

    forms, blocks = _interaction_blocks(model, taus, n)
    maps = _pair_maps(*forms)
    for start, d in blocks:
        first = start // 2
        d = d.reshape(-1, 2, rows, n_cont)
        for j in range(len(d)):
            p = first + j
            buf, buf_r, after_a, after_b = bufs[p % 2]
            np.vecdot(d[j], cont, out=w[p])
            np.matmul(maps[p], z[p], out=y[p])
            np.multiply(d[j], x[p], out=buf)
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
            # if step a's rows of the map and w_a are finite, the fault is
            # step b's
            if (step % 2 and np.isfinite(hist[t, 3 * step - 2])
                    and np.isfinite(maps[step // 2, t, :2, :2]).all()):
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
                drift_tolerance: float = _DRIFT_TOLERANCE):
    """Integrate the driven dynamics from the bound state e0 at s = 0.

    The window [0, 1] is covered by n_steps uniform steps, and the leak
    is kept after every one of them; past the window the
    interaction-frame state is constant, so the run stops at s = 1.

    With a single tau, returns its Trajectory or raises its failure.
    With a sequence of taus, integrates them in one batch and returns a
    TrajectoryBatch in which a failed column holds its error; the other
    columns are unaffected, and each equals its single-tau run bit for
    bit. An input that breaks its rule refuses the whole call.
    """
    single = np.ndim(tau) == 0
    check_model_inputs(**{"tau" if single else "taus": tau}, n_steps=n_steps,
                       drift_tolerance=drift_tolerance)
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    batch = TrajectoryBatch(_evolve_rows(model, taus, n_steps, drift_tolerance), n_steps)
    return batch.trajectories()[0] if single else batch


def _total_norm_dev(state: np.ndarray) -> float:
    """Largest |norm - 1| over the columns of a C-contiguous state.

    The column sums of squares come from the float view, where column j
    is float columns 2 j (real parts) and 2 j + 1 (imaginary parts).
    """
    assert state.flags.c_contiguous
    real = state.view(float)
    sq = np.einsum("ij,ij->j", real, real)
    return float(np.max(np.abs(np.sqrt(sq[0::2] + sq[1::2]) - 1.0)))


def _folded_cores(gram: np.ndarray, cos_m1: np.ndarray, isin: np.ndarray):
    """Cores of a block's prefixes in the folded basis: (tops, lower).

    Step j is R_j = 1 + X_j M_j X_j^dagger with X_j = [e0, u_j] and M_j =
    [[cos r - 1, -i sin r], [-i sin r, cos r - 1]]; gram is u^dagger u,
    the (k, k) Gram matrix of the directions, and e0 is orthogonal to
    every u. The first j steps multiply to 1 + Y C_j Y^dagger with
    Y = [e0, u_1, ..., u_k]; only C_j's first j + 1 rows and columns are
    nonzero. Step a adds a component along u_a that no later step
    changes, so row 1 + a of C_j is the same for every j > a: `lower`,
    (k, k + 1), holds those rows for all prefixes at once. Only row 0,
    along e0, depends on j; tops[j] is it, zero from column j + 1 on.

    Built by doubling. A segment of steps is its tops (row 0 after each
    of its prefixes) and its lower rows, on [e0, its own u]. Segment 2
    after segment 1 sees segment 1's whole product through
    H = Y_2^dagger Y_1 C_1 = [tops_1[-1]; G21 lower_1], G21 = u_2^dagger
    u_1: one product [tops_2; lower_2] H gives segment 2's rows on
    [e0, u_1], its own columns move after segment 1's, and each of its
    tops gains tops_1[-1], segment 1's product seen from e0. The steps
    are padded to a power of two with identity steps (M = 0) after the
    last; their rows and columns are zero and are cut off.
    """
    k = len(cos_m1)
    p = 1 << (k - 1).bit_length()
    # seg[i, 0] holds segment i's tops, seg[i, 1] its lower rows; a
    # one-step segment is M_j on [e0, u_j]
    seg = np.zeros((p, 2, 1, 2), dtype=complex)
    seg[:k, 0, 0, 0] = seg[:k, 1, 0, 1] = cos_m1
    seg[:k, 0, 0, 1] = seg[:k, 1, 0, 0] = -isin
    if p > k:
        gram = np.pad(gram, (0, p - k))
    w = 1                                          # steps per segment
    while len(seg) > 1:
        n = len(seg) // 2
        first, second = seg[0::2], seg[1::2]
        pairs = np.arange(n)
        g21 = gram.reshape(n, 2, w, n, 2, w)[pairs, 1, :, pairs, 0]
        h = np.empty((n, w + 1, w + 1), dtype=complex)
        h[:, 0] = first[:, 0, -1]
        np.matmul(g21, first[:, 1], out=h[:, 1:])
        merged = np.zeros((n, 2, 2 * w, 2 * w + 1), dtype=complex)
        merged[:, :, :w, :w + 1] = first
        later = merged[:, :, w:]
        later[..., :w + 1] = (second.reshape(n, 2 * w, w + 1) @ h).reshape(
            n, 2, w, w + 1)
        later[..., 0] += second[..., 0]
        later[..., w + 1:] = second[..., 1:]
        later[:, 0, :, :w + 1] += first[:, 0, -1:]
        seg, w = merged, 2 * w
    tops = np.zeros((k + 1, k + 1), dtype=complex)   # row 0 after 0..k steps
    tops[1:] = seg[0, 0, :k, :k + 1]
    return tops, seg[0, 1, :k, :k + 1]


def _side_by_side(v: np.ndarray) -> np.ndarray:
    """Per-stop blocks (m, dim, c) as the columns of one (dim, m c) operand."""
    return np.ascontiguousarray(v.transpose(1, 0, 2)).reshape(v.shape[1], -1)


@dataclass
class WaveBlock:
    """One block of the wave-operator evolution and the record stops in it.

    omega is the matrix at step `start`; the block's k steps take it to
    R_k ... R_1 omega. The stop offsets[i] steps in is omega + Y C_j z
    with j = offsets[i], Y = [e0, u_1, ..., u_k] and z = Y^dagger omega
    (see _folded_cores for C_j: tops[j] is its row 0, lower the rest).
    omega is the evolving matrix itself: read it during the call, do not
    keep or write it. Every other field is the block's own, made for
    this block alone, and may be kept after the call. Only the methods
    read the cores: with A_0 = 1 - omega, a stop's defect A_j = 1 -
    omega_j has A_j V = A_0 V - Y C_j (z V) and A_j^dagger W =
    A_0^dagger W - z^dagger C_j^dagger (Y^dagger W).
    """

    start: int
    omega: np.ndarray     # (dim, dim)
    offsets: np.ndarray   # (m,) steps into the block of each stop
    u: np.ndarray         # (k, N) the steps' directions
    gram: np.ndarray      # (k, k) u^dagger u
    z: np.ndarray         # (k + 1, dim) Y^dagger omega
    lower: np.ndarray     # (k, k + 1) rows 1.. of every prefix core
    x: np.ndarray         # (k, dim) lower @ z
    tops: np.ndarray      # (k + 1, k + 1) row 0 of the core of each prefix

    @classmethod
    def build(cls, start: int, omega: np.ndarray, u: np.ndarray, cos_m1: np.ndarray,
              isin: np.ndarray, offsets: np.ndarray) -> WaveBlock:
        """The block of the steps along u from omega at step start."""
        u_conj = u.conj()
        gram = u_conj @ u.T
        tops, lower = _folded_cores(gram, cos_m1, isin)
        z = np.concatenate((omega[:1], u_conj @ omega[1:]))
        return cls(start, omega, offsets, u, gram, z, lower, lower @ z, tops)

    def update(self, j: int, r: np.ndarray | None = None) -> np.ndarray:
        """Y C_j (z R) for the first j steps: a stop, or the block end at k.

        R (dim, c) is the identity when None: omega + update(j) is the
        matrix j steps in. C_j's rows 1..j are lower's first j, and
        lower @ z = x.
        """
        z, x = self.z[:j + 1], self.x[:j]
        if r is not None:
            z, x = z @ r, x @ r
        out = np.empty((len(self.omega), z.shape[1]), dtype=complex)
        np.matmul(self.tops[j, :j + 1], z, out=out[0])
        np.matmul(self.u[:j].T, x, out=out[1:])
        return out

    def updates(self, v: np.ndarray, stops: np.ndarray | None = None) -> np.ndarray:
        """Y C_j (z V) at several stops, (m, dim, c); the operand picks the form.

        A shared V, (dim, c), goes to every stop: rows 1.. sum u_a (x V)[a]
        over the prefix's steps, accumulated stop by stop, so a step
        after the last stop enters no product. Per-stop blocks V,
        (m, dim, c), one for each of `stops` (indexes into offsets), go
        side by side through one GEMM each with z, lower and u^T, a
        (k, m) mask keeping lower's rows of the steps before each stop
        (the masked form). Row 0 of C_j, the one row that differs per
        stop, enters through a stacked product.
        """
        dim, k = len(self.omega), len(self.u)
        if v.ndim == 2:
            xv = self.x @ v
            out = np.empty((len(self.offsets), dim, v.shape[1]), dtype=complex)
            out[:, 0] = self.tops[self.offsets] @ (self.z @ v)
            acc = np.zeros((dim - 1, v.shape[1]), dtype=complex)
            a = 0
            for o, j in zip(out, self.offsets):
                acc += self.u[a:j].T @ xv[a:j]
                o[1:] = acc
                a = j
            return out
        m, _, c = v.shape
        js = self.offsets[stops]
        zv = (self.z @ _side_by_side(v)).reshape(k + 1, m, c)
        out = np.empty((dim, m, c), dtype=complex)
        out[0] = (self.tops[js][:, None, :] @ zv.transpose(1, 0, 2))[:, 0]
        xv = (self.lower @ zv.reshape(k + 1, -1)).reshape(k, m, c)
        xv *= (np.arange(k)[:, None] < js)[..., None]
        np.matmul(self.u.T, xv.reshape(k, -1), out=out[1:].reshape(dim - 1, -1))
        return out.transpose(1, 0, 2)

    def adjoints(self, w: np.ndarray, stops: np.ndarray) -> np.ndarray:
        """z^dagger C_j^dagger (Y^dagger W) at stops, for per-stop blocks W.

        The adjoint of updates' masked form: one GEMM each with u^*,
        lower^dagger and z^dagger, row 0 of C_j entering through an
        outer product.
        """
        m, dim, c = w.shape
        k, js = len(self.u), self.offsets[stops]
        flat = _side_by_side(w)
        yw = (self.u.conj() @ flat[1:]).reshape(k, m, c)
        yw *= (np.arange(k)[:, None] < js)[..., None]
        cyw = (self.lower.conj().T @ yw.reshape(k, -1)).reshape(k + 1, m, c)
        cyw += self.tops[js].conj().T[:, :, None] * flat[0].reshape(m, c)
        out = self.z.conj().T @ cyw.reshape(k + 1, -1)
        return out.reshape(dim, m, c).transpose(1, 0, 2)

    def stop_sums(self, a0: np.ndarray, a0_sq: float) -> tuple[np.ndarray, np.ndarray]:
        """(||A_j||_F^2, b_j) at every stop, from products of at most (k + 1) x dim.

        a0 = 1 - omega and a0_sq = ||A_0||_F^2, both formed by the caller.

            ||A_j||_F^2 = ||A_0||_F^2 - 2 Re tr(C_j P) + ||Y C_j z||_F^2,

        P = z A_0^dagger Y, taken through Y^dagger A_0 = Y^dagger - z.
        Only row 0 of C_j changes with j and e0 is orthogonal to every
        u, so tr(C_j P) is row 0 of C_j times P[:, 0] plus a prefix sum
        over the steps, and ||Y C_j z||_F^2 is the norm of row 0 of C_j z
        plus the sum of gram * (x x^dagger)^T over its leading j x j
        block. b_j = sqrt(j + 1) ||C_j||_F ||z_j||_F, z_j the first
        j + 1 rows of z, bounds ||Y C_j z||_F also with every entry
        replaced by its modulus (Y's columns are unit vectors).
        """
        js, z, x = self.offsets, self.z, self.x
        rows = self.tops[js]
        rz = rows @ z                                      # row 0 of each C_j z
        d = np.einsum("ai,ai->a", x[:, 1:], self.u) - np.vecdot(z[1:], x)
        # gram * (x x^dagger)^T is Hermitian: its real part is symmetric, and
        # a leading j x j block sums to the first j entries of w
        e = (self.gram * (x @ x.conj().T).T).real
        w = 2.0 * np.tril(e, -1).sum(axis=1) + np.diagonal(e)
        sums = np.zeros((3, len(x) + 1))   # column j sums the first j steps
        np.cumsum([d.real, w, np.vecdot(self.lower, self.lower).real], axis=1,
                  out=sums[:, 1:])
        d, w, lower_sq = sums[:, js]
        trace = (rows @ (z @ a0[0].conj())).real + d
        fro = a0_sq - 2.0 * trace + np.vecdot(rz, rz).real + w
        core_sq = lower_sq + np.vecdot(rows, rows).real
        z_sq = np.cumsum(np.vecdot(z, z).real)[js]
        return fro, np.sqrt((js + 1) * core_sq * z_sq)

    def stop_matrix(self, i: int, out: np.ndarray) -> np.ndarray:
        """The matrix at stop i, formed into out with one GEMM."""
        return np.add(self.omega, self.update(int(self.offsets[i])), out=out)


# perfbench's tracer reads n_steps (third argument or keyword) and the drift
# result[2] to count propagate.wave_steps; keep both where they are
def evolve_wave_operator(model: FriedrichsModel, tau: float, n_steps: int,
                         record_s: np.ndarray,
                         on_block: Callable[[WaveBlock], None] | None = None):
    """Evolve the full basis in the interaction frame; the matrix at time s
    is the wave operator comparing true and frame dynamics.

    Takes evolve_true's rotations a _RESEED_STEPS-step block at a time
    (WaveBlock): the matrix takes each block's product as one update,
    and a record stop, a prefix of its block, is the block's start
    matrix plus the prefix's update (WaveBlock.stop_matrix). A
    non-finite rotation makes its block's cores non-finite. Drift and
    finiteness are checked at every block end, so at least every 64
    steps and at the last step; a drift above _DRIFT_TOLERANCE (1e-9)
    raises IntegrationFailure. Returns (actual record times snapped to
    the grid, list of matrices, drift).

    With on_block, each block that holds record stops is handed over
    once, as a WaveBlock, before the matrix moves past it, and the list
    comes back empty: a consumer that reduces the stops as they come
    holds no matrix per record and forms none. The stops are not
    checked, so a consumer checks finiteness itself before it relies on
    one (adiabatic_defect from WaveBlock.stop_sums).
    """
    check_model_inputs(tau=tau, n_steps=n_steps, record_s=record_s)
    n = int(n_steps)
    record_idx = np.array(sorted({min(round(float(t) * n), n) for t in record_s}),
                          dtype=int)
    first = 0           # the first stop not yet taken by a block
    mat = np.eye(model.dim, dtype=complex)
    out, s_out = [], []
    drift = 0.0

    def keep_all(blk):
        out.extend(blk.stop_matrix(i, np.empty_like(mat))
                   for i in range(len(blk.offsets)))

    (inv_r, cos_m1, isin, _), blocks = _interaction_blocks(
        model, np.array([float(tau)]), n)
    for start, d in blocks:
        k = min(len(d), n - start)   # not an odd count's identity step
        # a block takes the stops in (start, start + k], the first also 0
        last = int(np.searchsorted(record_idx, start + k, side="right"))
        offsets = record_idx[first:last] - start
        first = last
        s_out.extend(((start + offsets) / n).tolist())
        steps = slice(start, start + k)
        blk = WaveBlock.build(start, mat, d[:k, 0] * inv_r[steps], cos_m1[steps, 0],
                              isin[steps, 0], offsets)
        if len(offsets):
            (keep_all if on_block is None else on_block)(blk)
        mat += blk.update(k)
        del blk     # released before the next block's cores are built
        dev = _total_norm_dev(mat)
        if not np.isfinite(dev):
            raise NumericalOverflow(f"non-finite propagator at step {start + k}")
        drift = max(drift, dev)
    if drift > _DRIFT_TOLERANCE:
        raise IntegrationFailure(
            f"propagator drift {drift:.3e} exceeds {_DRIFT_TOLERANCE:.1e}", drift)
    return np.array(s_out), out, drift
