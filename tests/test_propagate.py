import numpy as np
import pytest

from friedrichs.errors import (ConfigurationError, ContractViolation,
                               IntegrationFailure, NumericalOverflow)
from friedrichs.model import RotatingState, SwitchingProfile, assemble_model, \
    build_form_factor, build_grid
from friedrichs.propagate import (IntegratorConfig, adiabatic_state,
                                  evolve_true, evolve_wave_operator, leak,
                                  resolve_scheme, to_frame, verify_generators)

from oracles import PerStepExpRunner, dense_reference_evolve, single_mode_model

SWEEP_TAUS = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0))
SWEEP_CFG = IntegratorConfig(scheme="interaction_magnus", max_step=1 / 2048.,
                             record_times=(1.5,))


def _state_at(tr, s):
    for sv, st, _ in tr.samples:
        if abs(sv - s) < 1e-12:
            return st
    raise KeyError(s)


class TestEvolveTrue:
    def test_no_driving_means_no_leak(self, grid128):
        ff = build_form_factor(grid128, 1.5)
        model = assemble_model(grid128, ff, SwitchingProfile.zero())
        for scheme in ("strang_split", "interaction_magnus"):
            cfg = IntegratorConfig(scheme=scheme, record_times=(0.5, 1.0, 1.5),
                                   window_samples=200)
            tr = evolve_true(model, 300.0, cfg)
            assert tr.sup_leak_window == 0.0
            st = _state_at(tr, 1.5)
            assert abs(abs(st.bound_amp) - 1.0) <= 1e-12
            assert np.linalg.norm(st.continuum_amps) == 0.0

    def test_strang_order_two_self_convergence(self, switching):
        grid = build_grid(1.0, 16, 16, 1e-4)  # N = 256
        model = assemble_model(grid, build_form_factor(grid, 1.5), switching)
        tau = 100.0

        def state(n):
            cfg = IntegratorConfig(scheme="strang_split", max_step=1.0 / n,
                                   record_times=(1.0,), window_samples=200)
            return _state_at(evolve_true(model, tau, cfg), 1.0).as_vector()

        n0 = 4000
        ref = state(16 * n0)
        e1 = np.linalg.norm(state(n0) - ref)
        e2 = np.linalg.norm(state(2 * n0) - ref)
        assert 3.5 <= e1 / e2 <= 4.5

    def test_single_mode_against_dense_reference(self):
        model = single_mode_model(k=1.0)
        tau = 50.0
        ref = dense_reference_evolve(model, tau, s_end=2.0, h=1e-5)
        ref_leak = float(np.linalg.norm(ref[1:]))
        for scheme, n in (("strang_split", 20000), ("interaction_magnus", 2048)):
            cfg = IntegratorConfig(scheme=scheme, max_step=1.0 / n,
                                   record_times=(2.0,), s_end=2.0,
                                   window_samples=200)
            tr = evolve_true(model, tau, cfg)
            assert abs(tr.leak_at(2.0) - ref_leak) <= 1e-6

    def test_schemes_agree(self, model_b15_small):
        tau = 100.0
        cfg_s = IntegratorConfig(scheme="strang_split", max_step=2e-5,
                                 record_times=(1.5,))
        cfg_m = IntegratorConfig(scheme="interaction_magnus", max_step=1 / 4096.,
                                 record_times=(1.5,))
        leak_s = evolve_true(model_b15_small, tau, cfg_s).leak_at(1.5)
        leak_m = evolve_true(model_b15_small, tau, cfg_m).leak_at(1.5)
        assert abs(leak_s - leak_m) <= 1e-7

    def test_leak_frozen_after_window(self, model_b15_small):
        cfg = IntegratorConfig(scheme="interaction_magnus",
                               record_times=(1.0, 1.2, 1.5))
        tr = evolve_true(model_b15_small, 200.0, cfg)
        assert tr.leak_at(1.2) == tr.leak_at(1.0)
        assert tr.leak_at(1.5) == tr.leak_at(1.0)

    def test_unitarity_drift_small_and_enforced(self, model_b15_small):
        cfg = IntegratorConfig(scheme="interaction_magnus")
        tr = evolve_true(model_b15_small, 500.0, cfg)
        assert tr.unitarity_drift <= 1e-12
        with pytest.raises(IntegrationFailure) as err:
            evolve_true(model_b15_small, 500.0,
                        IntegratorConfig(scheme="interaction_magnus",
                                         drift_tolerance=1e-22))
        assert err.value.drift > 1e-22

    def test_rejects_bad_inputs(self, model_b15_small):
        with pytest.raises(ConfigurationError):
            evolve_true(model_b15_small, -5.0, IntegratorConfig())
        bad = model_b15_small.bound_state()
        bad.bound_amp = 0.5
        with pytest.raises(ContractViolation):
            evolve_true(model_b15_small, 10.0, IntegratorConfig(), initial=bad)
        with pytest.raises(ConfigurationError):
            IntegratorConfig(scheme="rk4")
        with pytest.raises(ConfigurationError):
            IntegratorConfig(s_end=1.0, record_times=(1.5,))

    def test_auto_scheme_switches_on_budget(self, model_b15_small):
        cfg = IntegratorConfig(scheme="auto", strang_step_budget=1000)
        assert resolve_scheme(model_b15_small, 10.0, cfg) == "strang_split"
        assert resolve_scheme(model_b15_small, 1e4, cfg) == "interaction_magnus"

    def test_dense_window_sampling(self, model_b15_small):
        cfg = IntegratorConfig(scheme="interaction_magnus", window_samples=256)
        tr = evolve_true(model_b15_small, 100.0, cfg)
        assert len(tr.window_s) >= 201
        assert tr.sup_leak_window >= tr.leak_at(1.0)


    def test_in_window_record_time_is_snapped(self, model_b15_small):
        cfg = IntegratorConfig(scheme="interaction_magnus", record_times=(0.3,))
        tr = evolve_true(model_b15_small, 200.0, cfg)
        assert tr.n_window_steps == 512
        snapped = round(0.3 * 512) / 512
        assert snapped == 0.30078125
        assert [s for s, _, _ in tr.samples] == [snapped, 1.0]
        assert tr.leak_at(0.3) == tr.leak_at(snapped) == tr.window_leaks[154]
        with pytest.raises(KeyError):
            tr.leak_at(0.5)


def _same_trajectory(a, b):
    return (np.array_equal(a.window_leaks, b.window_leaks)
            and a.unitarity_drift == b.unitarity_drift
            and all(sa == sb and np.array_equal(xa.as_vector(), xb.as_vector())
                    for (sa, xa, _), (sb, xb, _) in zip(a.samples, b.samples)))


class TestBatchedLoop:
    @pytest.fixture(scope="class")
    def batch(self, model_b15):
        return evolve_true(model_b15, SWEEP_TAUS, SWEEP_CFG)

    def test_matches_per_step_exp_oracle(self, model_b15, batch):
        for tau, tr in zip(SWEEP_TAUS, batch.trajectories()):
            ref = PerStepExpRunner(model_b15, tau, 2048).window_leaks()
            assert abs(tr.leak_at(1.5) - ref[-1]) <= 1e-13 * ref[-1]
            assert abs(tr.sup_leak_window - ref.max()) <= 1e-13 * ref.max()
            assert tr.unitarity_drift <= 1e-13

    def test_columns_independent_of_batch(self, model_b15, batch):
        full = batch.trajectories()
        for i, tau in enumerate(SWEEP_TAUS):
            assert _same_trajectory(evolve_true(model_b15, tau, SWEEP_CFG), full[i])
        ends = evolve_true(model_b15, SWEEP_TAUS[::4], SWEEP_CFG).trajectories()
        assert _same_trajectory(ends[0], full[0])
        assert _same_trajectory(ends[1], full[4])

    def test_non_finite_column_fails_alone(self, model_b15_small, spoil_column):
        taus = (100.0, 300.0, 1000.0)
        clean = evolve_true(model_b15_small, taus, SWEEP_CFG).trajectories()
        spoil_column(300.0, np.nan)
        out = evolve_true(model_b15_small, taus, SWEEP_CFG)
        assert isinstance(out.results[1], NumericalOverflow)
        assert "step 1 " in str(out.results[1])
        assert _same_trajectory(out.results[0], clean[0])
        assert _same_trajectory(out.results[2], clean[2])
        with pytest.raises(NumericalOverflow):
            out.trajectories()
        with pytest.raises(NumericalOverflow):
            evolve_true(model_b15_small, 300.0, SWEEP_CFG)

    def test_drifting_column_fails_alone(self, model_b15_small, spoil_column):
        taus = (100.0, 300.0, 1000.0)
        clean = evolve_true(model_b15_small, taus, SWEEP_CFG).trajectories()
        spoil_column(1000.0, 2.0)
        out = evolve_true(model_b15_small, taus, SWEEP_CFG)
        assert isinstance(out.results[2], IntegrationFailure)
        assert out.results[2].drift > SWEEP_CFG.drift_tolerance
        assert _same_trajectory(out.results[0], clean[0])
        assert _same_trajectory(out.results[1], clean[1])
        assert out.unitarity_drift == max(clean[0].unitarity_drift,
                                          clean[1].unitarity_drift)

    def test_batch_must_share_scheme(self, model_b15_small):
        cfg = IntegratorConfig(scheme="auto", strang_step_budget=1000)
        with pytest.raises(ConfigurationError):
            evolve_true(model_b15_small, (10.0, 1e4), cfg)
        with pytest.raises(ConfigurationError):
            evolve_true(model_b15_small, (), cfg)
        with pytest.raises(ConfigurationError):
            evolve_true(model_b15_small, (100.0, -1.0), SWEEP_CFG)


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
        _, om_m, _ = evolve_wave_operator(model, tau, 8192, s_grid,
                                          scheme="interaction_magnus")
        _, om_s, _ = evolve_wave_operator(model, tau, 20000, s_grid,
                                          scheme="strang_split")
        phases = np.exp(-1j * tau * 1.0 * model.diag_energies)
        recon = phases[:, None] * om_m[0]
        assert np.linalg.norm(recon - om_s[0], 2) <= 1e-6
