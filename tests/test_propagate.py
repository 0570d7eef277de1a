import numpy as np
import pytest

from friedrichs.errors import (ConfigurationError, ContractViolation,
                               IntegrationFailure, NumericalOverflow)
from friedrichs.model import RotatingState, SwitchingProfile, assemble_model, \
    build_form_factor, build_grid
from friedrichs.propagate import (adiabatic_state, evolve_true,
                                  evolve_wave_operator, leak, to_frame,
                                  verify_generators)

from oracles import (PerStepExpRunner, PerStepWaveOperator,
                     dense_reference_evolve, single_mode_model)

SWEEP_TAUS = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0))
SWEEP_STEPS = 2048


def _strang_state(model, tau, n_steps):
    """The bound state evolved to s = 1 by the strang oracle, rotating frame."""
    _, states, _ = PerStepWaveOperator(
        model, tau, n_steps, scheme="strang_split",
        initial=model.bound_state().as_vector()).run([1.0])
    return states[0]


class TestEvolveTrue:
    def test_no_driving_means_no_leak(self, grid128):
        ff = build_form_factor(grid128, 1.5)
        model = assemble_model(grid128, ff, SwitchingProfile.zero())
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


DEFECT_TAUS = tuple(float(t) for t in np.geomspace(1e2, 1e4, 4))


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

    @pytest.fixture
    def spoil_step(self, monkeypatch):
        """spoil(step, factor) scales the rotation vector of one step."""
        from friedrichs import propagate

        blocks = propagate._interaction_blocks

        def spoil(step, factor):
            def spoiled(model, taus, n_steps):
                for start, u, cos_m1, isin in blocks(model, taus, n_steps):
                    if start <= step < start + len(cos_m1):
                        u[step - start] *= factor
                    yield start, u, cos_m1, isin

            monkeypatch.setattr(propagate, "_interaction_blocks", spoiled)

        return spoil

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


class TestAdiabaticState:
    def test_starts_at_bound_state(self, model_b15_small):
        st = adiabatic_state(model_b15_small, 100.0, 0.0)
        assert abs(st.bound_amp - 1.0) <= 1e-14
        assert np.linalg.norm(st.continuum_amps) == 0.0

    def test_zero_leak_at_all_times(self, model_b15_small):
        for s in (0.0, 0.3, 0.5, 0.9, 1.0, 1.7):
            st = adiabatic_state(model_b15_small, 123.0, s)
            assert leak(model_b15_small, st) <= 1e-12

    def test_frozen_past_window(self, model_b15_small):
        a = adiabatic_state(model_b15_small, 10.0, 1.0).as_vector()
        b = adiabatic_state(model_b15_small, 10.0, 4.0).as_vector()
        assert np.linalg.norm(a - b) <= 1e-12


class TestLeak:
    def test_bound_state_leaks_nothing(self, model_b15_small):
        assert leak(model_b15_small, model_b15_small.bound_state()) == 0.0

    def test_pure_continuum_leaks_everything(self, model_b15_small):
        n = model_b15_small.measure.n_nodes
        amps = np.zeros(n, dtype=complex)
        amps[3] = 1.0
        st = RotatingState(0.0, amps, "rotating", 0.2)
        assert abs(leak(model_b15_small, st) - 1.0) <= 1e-14

    def test_pythagorean_split(self, model_b15_small):
        n = model_b15_small.measure.n_nodes
        amps = np.zeros(n, dtype=complex)
        amps[0] = np.sqrt(0.2)
        st = RotatingState(np.sqrt(0.8), amps, "interaction", 0.4)
        assert abs(leak(model_b15_small, st) - np.sqrt(0.2)) <= 1e-14

    def test_unnormalized_rejected(self, model_b15_small):
        st = model_b15_small.bound_state()
        st.bound_amp = 1.1
        with pytest.raises(ContractViolation):
            leak(model_b15_small, st)

    def test_frame_round_trip(self, model_b15_small):
        rng = np.random.default_rng(2)
        vec = rng.standard_normal(model_b15_small.dim) \
            + 1j * rng.standard_normal(model_b15_small.dim)
        vec /= np.linalg.norm(vec)
        st = RotatingState.from_vector(vec, "rotating", 0.7)
        tau = 35.0
        for frame in ("lab", "interaction"):
            there = to_frame(model_b15_small, tau, st, frame)
            back = to_frame(model_b15_small, tau, there, "rotating")
            assert np.linalg.norm(back.as_vector() - vec) <= 1e-12
            assert abs(leak(model_b15_small, there)
                       - leak(model_b15_small, st)) <= 1e-12


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

    def test_wave_operator_consistency_across_schemes(self, switching):
        # V(g) e^{-i tau s H} Omega must reproduce the strang propagator
        grid = build_grid(1.0, 8, 8, 1e-3)
        model = assemble_model(grid, build_form_factor(grid, 1.5), switching)
        tau = 50.0
        s_grid = np.array([1.0])
        _, om_m, _ = evolve_wave_operator(model, tau, 8192, s_grid)
        _, om_s, _ = PerStepWaveOperator(model, tau, 20000,
                                         scheme="strang_split").run(s_grid)
        phases = np.exp(-1j * tau * 1.0 * model.diag_energies)
        recon = phases[:, None] * om_m[0]
        assert np.linalg.norm(recon - om_s[0], 2) <= 1e-6
