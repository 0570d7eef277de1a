import math

import numpy as np
import pytest

from friedrichs.contour import ibp_suite, slaved_tail_probe, verify_ibp
from friedrichs.errors import (ConfigurationError, IntegrationFailure,
                               NumericalOverflow)
from friedrichs.model import SwitchingProfile, assemble_model, \
    build_form_factor, build_grid
from friedrichs.numutil import rounding_gamma
from friedrichs.propagate import (_RESEED_STEPS, _folded_cores, _interaction_blocks,
                                  _pair_maps, evolve_true, evolve_wave_operator,
                                  MAX_STEPS, steps_for)
from friedrichs.sweep import resolve_config
from friedrichs.volterra import (adiabatic_defect, first_order_tail,
                                 wave_operator_series)

from oracles import (PerStepExpRunner, PerStepWaveOperator, block_factor,
                     dense_reference_evolve, per_step_cores, prefix_cores,
                     single_mode_model, verify_generators)

SWEEP_TAUS = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0))
SWEEP_STEPS = 2048


def _strang_state(model, tau, n_steps):
    """The bound state evolved to s = 1 by the strang oracle, rotating frame."""
    _, states, _ = PerStepWaveOperator(
        model, tau, n_steps, scheme="strang_split",
        initial=np.eye(model.dim)[0]).run([1.0])
    return states[0]


class TestEvolveTrue:
    def test_no_driving_means_no_leak(self, grid128):
        ff = build_form_factor(grid128, 1.5)
        model = assemble_model(grid128, ff, SwitchingProfile(0.0))
        tr = evolve_true(model, 300.0, 512)
        assert tr.sup_leak_window == 0.0
        assert tr.leak_at(1.5) == 0.0
        assert abs(abs(tr.final_state[0]) - 1.0) <= 1e-12
        assert np.linalg.norm(tr.final_state[1:]) == 0.0

    def test_strang_order_two_self_convergence(self, switching):
        grid = build_grid(1.0, 16, 16, 1e-4)  # N = 256
        model = assemble_model(grid, build_form_factor(grid, 1.5), switching)
        tau = 100.0
        n0 = 4000
        ref = _strang_state(model, tau, 16 * n0)
        e1 = np.linalg.norm(_strang_state(model, tau, n0) - ref)
        e2 = np.linalg.norm(_strang_state(model, tau, 2 * n0) - ref)
        assert 3.5 <= e1 / e2 <= 4.5

    def test_single_mode_against_dense_reference(self):
        model = single_mode_model(k=1.0)
        tau = 50.0
        ref = dense_reference_evolve(model, tau, s_end=2.0, h=1e-5)
        ref_leak = float(np.linalg.norm(ref[1:]))
        assert abs(evolve_true(model, tau, 2048).leak_at(2.0) - ref_leak) <= 1e-6
        # no driving past s = 1, so the strang leak there is the leak at 2
        strang_leak = np.linalg.norm(_strang_state(model, tau, 20000)[1:])
        assert abs(strang_leak - ref_leak) <= 1e-6

    def test_schemes_agree(self, model_b15_small):
        # tau = 10 lies below the tau range of every sweep
        for tau in (100.0, 10.0):
            leak_s = np.linalg.norm(_strang_state(model_b15_small, tau, 50000)[1:])
            leak_m = evolve_true(model_b15_small, tau, 4096).leak_at(1.5)
            assert abs(leak_s - leak_m) <= 1e-7

    def test_leak_frozen_after_window(self, model_b15_small):
        tr = evolve_true(model_b15_small, 200.0, 512)
        assert tr.leak_at(1.2) == tr.leak_at(1.0) == tr.window_leaks[-1]
        assert tr.leak_at(1.5) == tr.leak_at(1.0)
        # the final state carries the same leak
        assert tr.leak_at(1.5) == pytest.approx(np.linalg.norm(tr.final_state[1:]),
                                                rel=1e-14)

    def test_unitarity_drift_small_and_enforced(self, model_b15_small):
        tr = evolve_true(model_b15_small, 500.0, 512)
        assert tr.unitarity_drift <= 1e-12
        with pytest.raises(IntegrationFailure) as err:
            evolve_true(model_b15_small, 500.0, 512, drift_tolerance=1e-22)
        assert err.value.drift > 1e-22

    def test_rejects_bad_inputs(self, model_b15_small):
        with pytest.raises(ConfigurationError):
            evolve_true(model_b15_small, -5.0, 512)
        with pytest.raises(ConfigurationError):
            evolve_true(model_b15_small, 10.0, 0)
        with pytest.raises(ConfigurationError):
            evolve_true(model_b15_small, 10.0, 16).leak_at(-0.1)
        # a NaN tolerance would pass every drift, a negative one fail every run
        for tol in (np.nan, -1e-9):
            with pytest.raises(ConfigurationError, match="drift_tolerance must be"):
                evolve_true(model_b15_small, (10.0, 20.0), 16, drift_tolerance=tol)

    def test_dense_window_sampling(self, model_b15_small):
        tr = evolve_true(model_b15_small, 100.0, 256)
        assert len(tr.window_leaks) == 257
        assert tr.sup_leak_window >= tr.leak_at(1.0)


    def test_in_window_record_time_is_snapped(self, model_b15_small):
        tr = evolve_true(model_b15_small, 200.0, 512)
        assert tr.n_window_steps == 512
        snapped = round(0.3 * 512) / 512
        assert snapped == 0.30078125
        assert tr.leak_at(0.3) == tr.leak_at(snapped) == tr.window_leaks[154]
        assert tr.leak_at(0.5) == tr.window_leaks[256]


def _same_trajectory(a, b):
    return (np.array_equal(a.window_leaks, b.window_leaks)
            and a.unitarity_drift == b.unitarity_drift
            and np.array_equal(a.final_state, b.final_state))


class TestBatchedLoop:
    @pytest.fixture(scope="class")
    def batch(self, model_b15):
        return evolve_true(model_b15, SWEEP_TAUS, SWEEP_STEPS)

    def test_matches_per_step_exp_oracle(self, model_b15, batch):
        for tau, tr in zip(SWEEP_TAUS, batch.trajectories()):
            ref = PerStepExpRunner(model_b15, tau, 2048).window_leaks()
            assert abs(tr.leak_at(1.5) - ref[-1]) <= 1e-13 * ref[-1]
            assert abs(tr.sup_leak_window - ref.max()) <= 1e-13 * ref.max()
            assert tr.unitarity_drift <= 1e-13

    def test_columns_independent_of_batch(self, model_b15, batch):
        full = batch.trajectories()
        for i, tau in enumerate(SWEEP_TAUS):
            assert _same_trajectory(evolve_true(model_b15, tau, SWEEP_STEPS), full[i])
        ends = evolve_true(model_b15, SWEEP_TAUS[::4], SWEEP_STEPS).trajectories()
        assert _same_trajectory(ends[0], full[0])
        assert _same_trajectory(ends[1], full[4])

    def test_non_finite_column_fails_alone(self, model_b15_small, spoil_column):
        taus = (100.0, 300.0, 1000.0)
        clean = evolve_true(model_b15_small, taus, SWEEP_STEPS).trajectories()
        spoil_column(300.0, np.nan)
        out = evolve_true(model_b15_small, taus, SWEEP_STEPS)
        assert isinstance(out.results[1], NumericalOverflow)
        assert "step 1 " in str(out.results[1])
        assert _same_trajectory(out.results[0], clean[0])
        assert _same_trajectory(out.results[2], clean[2])
        with pytest.raises(NumericalOverflow):
            out.trajectories()
        with pytest.raises(NumericalOverflow):
            evolve_true(model_b15_small, 300.0, SWEEP_STEPS)

    def test_drifting_column_fails_alone(self, model_b15_small, spoil_column):
        taus = (100.0, 300.0, 1000.0)
        clean = evolve_true(model_b15_small, taus, SWEEP_STEPS).trajectories()
        spoil_column(1000.0, 2.0)
        out = evolve_true(model_b15_small, taus, SWEEP_STEPS)
        assert isinstance(out.results[2], IntegrationFailure)
        assert out.results[2].drift > 1e-9
        assert _same_trajectory(out.results[0], clean[0])
        assert _same_trajectory(out.results[1], clean[1])
        assert out.unitarity_drift == max(clean[0].unitarity_drift,
                                          clean[1].unitarity_drift)

    def test_batch_rejects_empty_or_nonpositive_taus(self, model_b15_small):
        with pytest.raises(ConfigurationError):
            evolve_true(model_b15_small, (), SWEEP_STEPS)
        with pytest.raises(ConfigurationError):
            evolve_true(model_b15_small, (100.0, -1.0), SWEEP_STEPS)


class TestPairedSteps:
    def test_pair_map_is_the_two_step_compact_wy_product(self, model_b15_small):
        # the maps act on the overlaps with d = r u and give coefficients
        # of d; scaled back by r they are the pair's product on u
        taus = np.array([100.0, 1e4])
        forms, blocks = _interaction_blocks(model_b15_small, taus, 256)
        _, d = next(blocks)
        maps = _pair_maps(*forms)[:len(d) // 2]
        inv_r, cos_m1, isin = (f[:len(d)] for f in forms[:3])
        u, r = d * inv_r[..., None], 1.0 / inv_r
        e0 = np.eye(1, 3)[0]
        for p in range(len(maps)):
            for t in range(len(taus)):
                steps = slice(2 * p, 2 * p + 2)
                pair = u[steps, t]
                rows, lower = _folded_cores(pair.conj() @ pair.T, cos_m1[steps, t],
                                            isin[steps, t], np.array([1, 2]))
                ref = np.array([e0 + rows[0], lower[0], lower[1], e0 + rows[1]])
                scale = np.concatenate(([1.0], r[steps, t], [1.0]))
                on_u = scale[:, None] * maps[p, t] * scale[None, :3]
                assert np.abs(on_u - ref).max() <= 1e-15

    @pytest.mark.parametrize("n_steps", [1, 3, 65, 2915])
    def test_odd_counts_match_per_step_exp_oracle(self, model_b15, n_steps):
        # an odd count ends with an identity step of the last pair
        taus = (100.0, 1e4)
        for tau, tr in zip(taus, evolve_true(model_b15, taus, n_steps).trajectories()):
            ref = PerStepExpRunner(model_b15, tau, n_steps).window_leaks()
            assert len(tr.window_leaks) == n_steps + 1
            # leaks of a unit state: every one within 1e-13 absolute
            assert np.abs(tr.window_leaks - ref).max() <= 1e-13
            assert abs(tr.leak_at(1.0) - ref[-1]) <= 1e-13 * ref[-1]
            assert abs(tr.sup_leak_window - ref.max()) <= 1e-13 * ref.max()
            assert tr.unitarity_drift <= 1e-13

    @pytest.mark.parametrize("step", [600, 601], ids=["first_of_pair",
                                                      "second_of_pair"])
    @pytest.mark.parametrize("part", ["u", "cos_m1"], ids=["u", "cos_m1"])
    def test_fault_is_named_at_its_own_step(self, model_b15_small, spoil_step,
                                            step, part):
        # the pair's map reads step b's overlap into its first state as
        # 0 * w_b, so a fault in step b must still be named at step b
        spoil_step(step, np.nan, part)
        with pytest.raises(NumericalOverflow,
                           match=f"non-finite state at step {step + 1} "):
            evolve_true(model_b15_small, 300.0, 1024)
        out = evolve_true(model_b15_small, (100.0, 300.0), 1024)
        assert all(f"step {step + 1} " in str(r) for r in out.results)


DEFECT_TAUS = tuple(float(t) for t in np.geomspace(1e2, 1e4, 4))


@pytest.fixture
def spoil_step(monkeypatch):
    """spoil(step, factor, part) scales one step's direction d (part "u")
    or its angle r (part "cos_m1"), and with r its cos r - 1, i sin r,
    1 / r and pair map."""
    from friedrichs import propagate

    blocks, forms = propagate._interaction_blocks, propagate._step_forms

    def spoil(step, factor, part="u"):
        def spoiled_forms(*args):
            r, overlaps = forms(*args)
            r[step] *= factor
            return r, overlaps

        def spoiled(model, taus, n_steps):
            angles, clean = blocks(model, taus, n_steps)
            scale = np.ones(len(angles[0]))
            scale[step] = factor
            return angles, ((start, d * scale[start:start + len(d), None, None])
                            for start, d in clean)

        if part == "cos_m1":
            monkeypatch.setattr(propagate, "_step_forms", spoiled_forms)
        else:
            monkeypatch.setattr(propagate, "_interaction_blocks", spoiled)

    return spoil


def _gram_form_bounds(coeffs, moments):
    """Bounds on |r_form^2 - r_direct^2| per step and on |G_form - G_direct|
    per pair, (steps, T) and (pairs, T), G = <d_b, d_a>.

    Both paths approximate rho^2 = sum_j |c . M_j|^2 (and G* with the
    computed rotor p), so each bound is the sum of the two paths'
    distances from it, in Higham's gamma_n (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 3; sqrt(2) gamma_{n + 2} for a
    complex inner product, sqrt(2) gamma_2 for one complex product)
    times S = sum_j sigma_j^2, or sum_j sigma_aj sigma_bj for G, with
    sigma_j = sum_k |c_k| |M_kj|:
    - the forms sum 2 N real (N complex) products into Re(B) (A, after
      one complex product with conj(p)), then two K-term real sums;
    - a formed d_j is chi (c . M_j + e_j): e_j from the seeded moments'
      product and the K-term contraction, chi the formed phase. Its
      modulus drifts by at most the two exps (|exp| within 1 + gamma_2,
      each part within an ulp) and the complex products of a block's up
      to 64 phases; a pair's conj(chi_b) chi_a is conj(p) to within the
      square of that drift. Then the 2 N-term (N-term complex) vecdot.
    Each of the at most 4 N (K + 2)^2 products a path takes may also
    lose up to 2^-1075, half the subnormal spacing, to gradual underflow,
    and enters weighted by at most (1 + sum_k |c_k|)^2 (1 + max |M|)^2.
    """
    gamma, root2 = rounding_gamma, np.sqrt(2.0)
    k, _, n = moments.shape
    phase = ((1.0 + gamma(2)) * (1.0 + root2 * gamma(2))) ** _RESEED_STEPS - 1.0
    contract = (1.0 + root2 * gamma(2)) * (1.0 + gamma(k)) - 1.0
    formed = ((1.0 + phase) * (1.0 + contract)) ** 2
    sq = (1.0 + gamma(2 * n)) * (formed + (1.0 + gamma(k)) ** 2) - 2.0
    pair = (1.0 + root2 * gamma(n + 2)) * (1.0 + gamma(2)) * (
        formed + (1.0 + root2 * gamma(2)) * (1.0 + gamma(k)) ** 2) - 2.0
    sigma = np.abs(coeffs) @ np.abs(moments).transpose(1, 0, 2)   # (T, steps, N)
    # the computed sums of sigma may fall short of the exact ones
    short = 1.0 / ((1.0 - gamma(k + 1)) ** 2 * (1.0 - gamma(n)))
    weight = ((1.0 + np.abs(coeffs).sum(axis=1)[:, None])
              * (1.0 + np.abs(moments).max())) ** 2
    under = (4 * n * (k + 2) ** 2 * weight) * 2.0 ** -1074   # both paths
    return (short * sq * np.vecdot(sigma, sigma).T + under,
            short * pair * np.vecdot(sigma[:, 1::2], sigma[:, 0::2]).T
            + np.maximum(under[0::2], under[1::2]))


class TestGramForms:
    """Step angles and pair overlaps from the Gram forms of the moments,
    against direct reductions over the directions d the blocks form."""

    @pytest.mark.parametrize("model_name, taus, n_steps", [
        ("model_b15", SWEEP_TAUS, SWEEP_STEPS),
        ("model_b15", SWEEP_TAUS, 2 * SWEEP_STEPS),
        ("model_defect", DEFECT_TAUS, 1024),
    ], ids=["sweep", "sweep_halved_step", "defect"])
    def test_forms_match_direct_reductions(self, request, monkeypatch,
                                           model_name, taus, n_steps):
        from friedrichs import propagate

        model = request.getfixturevalue(model_name)
        got = {}
        forms = propagate._step_forms

        def kept(coeffs, moments, rotor):
            got["r"], got["overlaps"] = forms(coeffs, moments, rotor)
            got["bounds"] = _gram_form_bounds(coeffs, moments)
            return got["r"], got["overlaps"]

        monkeypatch.setattr(propagate, "_step_forms", kept)
        d = np.concatenate([d for _, d in
                            _interaction_blocks(model, np.array(taus), n_steps)[1]])
        r, overlaps = got["r"], got["overlaps"]
        bound_sq, bound_pair = got["bounds"]
        # every step, the window ends too, where gdot and r reach 0
        assert r.shape == d.shape[:2] and (r == 0.0).any()
        real = d.view(float)
        direct = np.sqrt(np.vecdot(real, real))
        # |r - direct| (r + direct) = |r^2 - direct^2|, up to the two
        # square roots' rounding and this line's own
        u = np.finfo(float).eps / 2.0
        lhs = np.abs(r - direct) * (r + direct)
        assert np.all(lhs <= (1.0 + rounding_gamma(3))
                      * (bound_sq + 3.0 * u * (r + direct) ** 2))
        direct_pair = np.vecdot(d[1::2], d[0::2])
        assert np.all(np.abs(overlaps - direct_pair)
                      <= (1.0 + rounding_gamma(2)) * bound_pair)


class TestFoldedCores:
    """A block's prefix cores built in the folded basis (_folded_cores)
    against the unfolded compact-WY factor and its fold (the oracle)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 33, 63, 64])
    def test_random_steps_match_unfolded_oracle(self, k):
        # each entry sums at most 2 k products on the oracle's side, the
        # length of its unfolded factor: both sides are within a few
        # gamma_2k of the exact cores
        rng = np.random.default_rng(k)
        u = rng.standard_normal((k, 40)) + 1j * rng.standard_normal((k, 40))
        u /= np.linalg.norm(u, axis=1)[:, None]
        r = rng.uniform(0.0, np.pi / 2, k)
        gram, cos_m1, isin = u.conj() @ u.T, np.cos(r) - 1.0, 1j * np.sin(r)
        offsets = np.arange(k + 1)
        rows, lower = _folded_cores(gram, cos_m1, isin, offsets)
        want_rows, want_lower = prefix_cores(block_factor(gram, cos_m1, isin),
                                             offsets)
        scale = max(np.abs(want_rows).max(), np.abs(want_lower).max())
        assert rows.shape == want_rows.shape and lower.shape == want_lower.shape
        assert np.abs(rows - want_rows).max() <= rounding_gamma(2 * k) * scale
        assert np.abs(lower - want_lower).max() <= rounding_gamma(2 * k) * scale
        assert np.all(rows[0] == 0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs an extended long double")
    @pytest.mark.parametrize("tau", [DEFECT_TAUS[0], DEFECT_TAUS[1]])
    def test_criterion_3_blocks_match_extended_precision(self, model_defect, tau):
        # every block of a criterion-3 run, stops at 0 and k: the folded
        # cores are within 1e-15 of the largest entry of the exact ones,
        # here a per-step recurrence in extended precision, and within
        # the random test's gamma_2k of the unfolded oracle, which is
        # itself up to 1.6e-15 off the exact cores on these blocks
        (inv_r, run_cos_m1, run_isin, _), blocks = _interaction_blocks(
            model_defect, np.array([tau]), 1024)
        blocks = list(blocks)
        assert len(blocks) == 16
        for start, d in blocks:
            steps = slice(start, start + len(d))
            u = d[:, 0] * inv_r[steps]
            cos_m1, isin = run_cos_m1[steps, 0], run_isin[steps, 0]
            k = len(u)
            gram, offsets = u.conj() @ u.T, np.array([0, k])
            rows, lower = _folded_cores(gram, cos_m1, isin, offsets)
            tops, want_lower = per_step_cores(gram, cos_m1, isin)
            want_rows = tops[offsets]
            scale = float(max(np.abs(want_rows).max(), np.abs(want_lower).max()))
            assert k == _RESEED_STEPS and scale > 0.0
            assert float(np.abs(rows - want_rows).max()) <= 1e-15 * scale, start
            assert float(np.abs(lower - want_lower).max()) <= 1e-15 * scale, start
            oracle = prefix_cores(block_factor(gram, cos_m1, isin), offsets)
            assert np.abs(rows - oracle[0]).max() <= rounding_gamma(2 * k) * scale
            assert np.abs(lower - oracle[1]).max() <= rounding_gamma(2 * k) * scale


class TestBlockedWaveOperator:
    def test_matches_per_step_oracle(self, model_defect):
        # 1024 / 150 steps between records: the blocks end off the record grid
        grid = np.linspace(0.0, 1.0, 151)
        for tau in DEFECT_TAUS:
            s, mats, drift = evolve_wave_operator(model_defect, tau, 1024, grid)
            s_ref, ref, drift_ref = PerStepWaveOperator(
                model_defect, tau, 1024).run(grid)
            np.testing.assert_array_equal(s, s_ref)
            assert s[0] == 0.0 and s[-1] == 1.0 and len(mats) == 151
            assert max(np.abs(a - b).max() for a, b in zip(mats, ref)) <= 1e-13
            assert abs(drift - drift_ref) <= 1e-13

    @pytest.mark.parametrize("n_steps,stop_steps", [
        (1024, range(0, 1025, 64)),     # stops exactly on the block ends
        (1000, range(0, 1001, 100)),    # the last block has 40 steps
    ], ids=["block_ends", "partial_last_block"])
    def test_block_edges_match_per_step_oracle(self, model_defect, n_steps,
                                               stop_steps):
        grid = np.array(stop_steps) / n_steps
        for tau in DEFECT_TAUS:
            s, mats, drift = evolve_wave_operator(model_defect, tau, n_steps, grid)
            s_ref, ref, drift_ref = PerStepWaveOperator(
                model_defect, tau, n_steps).run(grid)
            np.testing.assert_array_equal(s, s_ref)
            assert max(np.abs(a - b).max() for a, b in zip(mats, ref)) <= 1e-13
            assert abs(drift - drift_ref) <= 1e-13

    @pytest.mark.parametrize("n, record_s", [
        (1024, [0.0, 0.5, 1.0, 1.5]),   # stops at 0 and at n (1.5 clamps)
        (1000, [0.3, 0.3004, 0.64, 1.0]),   # 0.3 and 0.3004 round to 300
        (333, np.linspace(0.0, 1.0, 17)),   # odd n, a stop at 0
    ], ids=["ends", "same_step", "odd_n"])
    def test_block_offsets_match_a_scan_of_every_stop(self, model_gapped_small,
                                                      n, record_s):
        # a block takes the stops in (start, start + k], the first also 0
        idx = sorted({min(round(float(t) * n), n) for t in record_s})
        want = {}
        for start in range(0, n, 64):
            offsets = [i - start for i in idx
                       if start < i <= start + 64 or i == start == 0]
            if offsets:
                want[start] = offsets
        got = {}
        s, _, _ = evolve_wave_operator(
            model_gapped_small, 100.0, n, record_s,
            on_block=lambda blk: got.setdefault(blk.start, blk.offsets.tolist()))
        assert got == want
        np.testing.assert_array_equal(
            s, [(start + j) / n for start, offs in want.items() for j in offs])

    def test_stop_at_every_step_matches_per_step_oracle(self, switching):
        # every run is one step, a 2 x 2 diagonal block of its factor
        grid = build_grid(1.0, 8, 8, 1e-3)  # N = 64
        model = assemble_model(grid, build_form_factor(grid, 1.5), switching)
        n = 200
        every = np.arange(n + 1) / n
        for tau in (100.0, 1e4):
            s, mats, drift = evolve_wave_operator(model, tau, n, every)
            _, ref, drift_ref = PerStepWaveOperator(model, tau, n).run(every)
            assert len(mats) == n + 1
            assert max(np.abs(a - b).max() for a, b in zip(mats, ref)) <= 1e-13
            assert abs(drift - drift_ref) <= 1e-13

    def test_spoiled_step_inside_a_block_fails(self, model_b15_small, spoil_step):
        # step 600 lies between records (steps 512, 614) and inside the
        # block of steps 576-639: the check at the block's end must catch it
        grid = np.linspace(0.0, 1.0, 11)
        spoil_step(600, np.nan)
        with pytest.raises(NumericalOverflow, match="step 640"):
            evolve_wave_operator(model_b15_small, 200.0, 1024, grid)
        spoil_step(600, 2.0)
        with pytest.raises(IntegrationFailure) as err:
            evolve_wave_operator(model_b15_small, 200.0, 1024, grid)
        assert err.value.drift > 1e-9


class TestGeneratorChecks:
    def test_frame_generator_equals_commutator_form(self, model_b15_small):
        chk = verify_generators(model_b15_small, 50.0)
        assert chk.max_had_vs_hr <= 1e-12

    def test_commutator_generator_is_off_diagonal(self, model_b15_small):
        chk = verify_generators(model_b15_small, 50.0)
        assert np.max(chk.commutator_diag_bound) <= 1e-12
        assert np.max(chk.commutator_diag_complement) <= 1e-12

    def test_projector_derivative_matches_finite_differences(self, model_b15_small):
        chk = verify_generators(model_b15_small, 50.0, s_samples=(0.3, 0.5, 0.7))
        assert np.all(chk.pdot_fd_error <= 1e-4)
        assert np.all(np.abs(chk.pdot_fd_ratio - 4.0) <= 0.5)


TAU_RULE = "tau must be finite and > 0"
TAUS_RULE = "taus must be a nonempty sequence of finite numbers > 0"

# every entry point that takes tau, called on a threshold model m or a
# gapped model g, and the rule it is held to
TAU_ENTRY_POINTS = {
    "evolve_true": (lambda m, g, tau: evolve_true(m, tau, 16), TAU_RULE),
    "evolve_true_batch": (lambda m, g, tau: evolve_true(m, (100.0, tau), 16),
                          TAUS_RULE),
    "evolve_wave_operator": (
        lambda m, g, tau: evolve_wave_operator(m, tau, 16, [1.0]), TAU_RULE),
    "adiabatic_defect": (lambda m, g, tau: adiabatic_defect(m, tau, n_steps=16),
                         TAU_RULE),
    "wave_operator_series": (lambda m, g, tau: wave_operator_series(m, tau),
                             TAU_RULE),
    "first_order_tail": (lambda m, g, tau: first_order_tail(m, tau), TAU_RULE),
    "verify_ibp": (lambda m, g, tau: verify_ibp(g, tau), TAU_RULE),
    "ibp_suite": (lambda m, g, tau: ibp_suite(g, tau), TAU_RULE),
    "slaved_tail_probe": (lambda m, g, tau: slaved_tail_probe(g, (100.0, tau)),
                          TAUS_RULE),
}


@pytest.mark.parametrize("tau", [0.0, -5.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", list(TAU_ENTRY_POINTS))
def test_tau_rule_at_every_entry_point(entry, tau, model_b15_small,
                                       model_gapped_small):
    call, rule = TAU_ENTRY_POINTS[entry]
    with pytest.raises(ConfigurationError, match=rule):
        call(model_b15_small, model_gapped_small, tau)


# every entry point that takes a sequence of taus, called on a gapped model
TAUS_ENTRY_POINTS = {
    "evolve_true": lambda g, taus: evolve_true(g, taus, 16),
    "slaved_tail_probe": lambda g, taus: slaved_tail_probe(g, taus),
}


@pytest.mark.parametrize("taus", [[], ("a",), [[100.0, 200.0]]],
                         ids=["empty", "string", "nested"])
@pytest.mark.parametrize("entry", list(TAUS_ENTRY_POINTS))
def test_tau_sequence_rule_at_every_entry_point(entry, taus, model_gapped_small):
    with pytest.raises(ConfigurationError, match=TAUS_RULE):
        TAUS_ENTRY_POINTS[entry](model_gapped_small, taus)


# every entry point that takes a cap on the step, called on a gapped model
MAX_STEP_ENTRY_POINTS = {
    "steps_for": lambda g, max_step: steps_for(max_step),
    "slaved_tail_probe": lambda g, max_step: slaved_tail_probe(g, (100.0, 200.0),
                                                               max_step=max_step),
}


@pytest.mark.parametrize("max_step", [0.0, -0.5, np.nan, np.inf, "auto", 5e-324,
                                      1e-300])
@pytest.mark.parametrize("entry", list(MAX_STEP_ENTRY_POINTS))
def test_max_step_rule_at_every_entry_point(entry, max_step, model_gapped_small):
    with pytest.raises(ConfigurationError,
                       match=r"max_step must be auto \(None\) or finite and > 0"):
        MAX_STEP_ENTRY_POINTS[entry](model_gapped_small, max_step)


# every entry point that takes a quadrature order, called on a threshold
# model m or a gapped model g
QUAD_ORDER_ENTRY_POINTS = {
    "wave_operator_series": lambda m, g, q: wave_operator_series(m, 100.0, quad_order=q),
    "verify_ibp": lambda m, g, q: verify_ibp(g, 50.0, quad_order=q),
    "ibp_suite": lambda m, g, q: ibp_suite(g, 50.0, quad_order=q),
}


@pytest.mark.parametrize("quad_order", [0, 2.5, 4.5, True])
@pytest.mark.parametrize("entry", list(QUAD_ORDER_ENTRY_POINTS))
def test_quad_order_rule_at_every_entry_point(entry, quad_order, model_b15_small,
                                              model_gapped_small):
    with pytest.raises(ConfigurationError, match="quad_order must be an integer >= 1"):
        QUAD_ORDER_ENTRY_POINTS[entry](model_b15_small, model_gapped_small, quad_order)


# every entry point that takes a step count, called on a threshold model m
STEP_ENTRY_POINTS = {
    "evolve_true": lambda m, n: evolve_true(m, 100.0, n),
    "evolve_true_batch": lambda m, n: evolve_true(m, (100.0, 300.0), n),
    "evolve_wave_operator": lambda m, n: evolve_wave_operator(m, 100.0, n, [0.5]),
    "adiabatic_defect": lambda m, n: adiabatic_defect(m, 100.0, n_steps=n),
}


@pytest.mark.parametrize("n_steps", [0, -5, 64.9, 64.5, True, np.nan,
                                     2 ** 18 + 1, 10 ** 300])
@pytest.mark.parametrize("entry", list(STEP_ENTRY_POINTS))
def test_step_count_rule_at_every_entry_point(entry, n_steps, model_b15_small):
    with pytest.raises(ConfigurationError, match="n_steps must be an integer >= 1"):
        STEP_ENTRY_POINTS[entry](model_b15_small, n_steps)


def test_step_budget_refuses_a_tiny_finite_cap(model_b15_small):
    # 1e-300 is finite and > 0, but its 1e300 steps are past the step budget,
    # wherever the count comes in; a cap at the budget is the budget
    budget = f"at most {MAX_STEPS} \\(the step budget\\)"
    with pytest.raises(ConfigurationError, match=f"max_step .*{budget}"):
        resolve_config({"integrate": {"max_step": "1e-300"}})
    with pytest.raises(ConfigurationError, match=f"max_step .*{budget}"):
        steps_for(1e-300)
    with pytest.raises(ConfigurationError, match=f"n_steps .*{budget}"):
        evolve_true(model_b15_small, 100.0, n_steps=math.ceil(1.0 / 1e-300))
    assert steps_for(1.0 / MAX_STEPS) == MAX_STEPS == 2 ** 18


def test_numpy_integer_step_count_accepted(model_b15_small):
    assert evolve_true(model_b15_small, 100.0, np.int64(16)).n_window_steps == 16
    s, _, _ = evolve_wave_operator(model_b15_small, 100.0, np.int32(16), [1.0])
    assert list(s) == [1.0]


# every entry point that takes an evaluation time, called on a threshold
# model m or a gapped model g, and the name of that argument
TIME_ENTRY_POINTS = {
    "wave_operator_series": (
        lambda m, g, s: wave_operator_series(m, 100.0, s_eval=s), "s_eval"),
    "verify_ibp": (lambda m, g, s: verify_ibp(g, 50.0, s=s), "s"),
    "ibp_suite": (lambda m, g, s: ibp_suite(g, 50.0, s=s), "s"),
}


@pytest.mark.parametrize("s", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", list(TIME_ENTRY_POINTS))
def test_time_rule_at_every_entry_point(entry, s, model_b15_small,
                                        model_gapped_small):
    call, name = TIME_ENTRY_POINTS[entry]
    with pytest.raises(ConfigurationError, match=f"{name} must be a finite time >= 0"):
        call(model_b15_small, model_gapped_small, s)


# every entry point that takes record times, and the name of that argument
GRID_ENTRY_POINTS = {
    "evolve_wave_operator": (
        lambda m, grid: evolve_wave_operator(m, 100.0, 16, grid), "record_s"),
    "adiabatic_defect": (
        lambda m, grid: adiabatic_defect(m, 100.0, s_grid=grid, n_steps=16), "s_grid"),
}


@pytest.mark.parametrize("grid", [[np.nan], [0.5, np.inf], [-0.25, 0.5], [], 0.5],
                         ids=["nan", "inf", "negative", "empty", "scalar"])
@pytest.mark.parametrize("entry", list(GRID_ENTRY_POINTS))
def test_record_time_rule_at_every_entry_point(entry, grid, model_b15_small):
    call, name = GRID_ENTRY_POINTS[entry]
    with pytest.raises(ConfigurationError,
                       match=f"{name} must be a nonempty sequence of finite times >= 0"):
        call(model_b15_small, grid)


class TestProjectorComparison:
    def test_offdiagonal_blocks_measure_projector_distance(self, switching):
        # ||P_tau(s) - P(s)|| equals both off-diagonal block norms of the
        # wave operator when the followed projection has rank one
        grid = build_grid(1.0, 8, 8, 1e-3)  # N = 64
        model = assemble_model(grid, build_form_factor(grid, 1.5), switching)
        tau = 50.0
        s_grid = np.array([0.5, 1.0])
        _, omegas, _ = evolve_wave_operator(model, tau, 2048, s_grid)
        for s, omega in zip(s_grid, omegas):
            p = np.zeros((model.dim, model.dim), dtype=complex)
            p[0, 0] = 1.0
            p_tau = omega @ p @ omega.conj().T
            dist = np.linalg.norm(p_tau - p, 2)
            col = np.linalg.norm(omega[1:, 0])
            row = np.linalg.norm(omega[0, 1:])
            assert abs(dist - max(col, row)) <= 1e-10
            assert abs(col - row) <= 1e-10
