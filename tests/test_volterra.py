import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from friedrichs.errors import (ConfigurationError, ConvergenceFailure,
                               NumericalOverflow, ResourceBudgetError)
from friedrichs.model import (SwitchingProfile, assemble_model,
                              build_form_factor, build_grid)
from friedrichs.numutil import cosine_graded_edges, operator_norm
from friedrichs.propagate import evolve_true
from friedrichs.volterra import (adiabatic_defect, first_order_tail,
                                 interaction_kernel, wave_operator_series)

from oracles import backward_walk_defect, per_node_series_terms

DEFECT_TAUS = tuple(float(t) for t in np.geomspace(1e2, 1e4, 4))


class TestKernel:
    def test_vanishes_outside_window(self, model_b15_small):
        for t in (-0.2, 0.0, 1.0, 1.5):
            k = interaction_kernel(model_b15_small, 10.0, t)
            assert np.linalg.norm(k.matrix()) == 0.0

    def test_anti_hermitian(self, model_b15_small):
        km = interaction_kernel(model_b15_small, 10.0, 0.37).matrix()
        assert np.linalg.norm(km + km.conj().T) <= 1e-14

    def test_entry_magnitudes_independent_of_tau(self, model_b15_small):
        m = model_b15_small
        gd = m.switching.gdot(0.3)
        for tau in (10.0, 1000.0):
            k = interaction_kernel(m, tau, 0.3)
            np.testing.assert_allclose(np.abs(k.column), gd * np.abs(m.coupling),
                                       rtol=1e-13)

    def test_apply_matches_matrix(self, model_b15_small):
        rng = np.random.default_rng(0)
        k = interaction_kernel(model_b15_small, 25.0, 0.6)
        vec = rng.standard_normal(model_b15_small.dim) \
            + 1j * rng.standard_normal(model_b15_small.dim)
        assert np.linalg.norm(k(vec) - k.matrix() @ vec) <= 1e-14


@pytest.fixture(scope="module")
def series128(model_b15_small):
    return wave_operator_series(model_b15_small, 100.0, max_order=4,
                                quad_order=64, s_eval=1.5)


class TestSeries:
    def test_zeroth_term_is_identity(self, series128, model_b15_small):
        np.testing.assert_array_equal(series128.terms[0],
                                      np.eye(model_b15_small.dim))

    def test_parity_blocks(self, series128):
        defects = series128.parity_defects()
        assert len(defects) == 4
        assert max(defects) <= 1e-9

    @pytest.mark.parametrize("order, entry", [
        (1, (0, 0)),    # odd term, bound-bound block
        (1, (3, 5)),    # odd term, continuum-continuum block
        (2, (0, 4)),    # even term, bound row into the continuum
        (2, (4, 0)),    # even term, continuum column from the bound state
    ])
    def test_parity_check_registers_planted_defect(self, series128, order, entry):
        # the blocks are exactly zero by construction; a wrong-parity
        # entry of relative size 1e-8 must show in the <= 1e-9 check
        assert series128.parity_defects()[order - 1] == 0.0
        terms = [m.copy() for m in series128.terms]
        terms[order][entry] += 1e-8 * operator_norm(terms[order])
        defects = replace(series128, terms=terms).parity_defects()
        assert 0.5e-8 <= defects[order - 1] <= 2e-8
        assert max(defects) > 1e-9

    def test_first_order_column_matches_closed_form(self, series128,
                                                    model_b15_small):
        vec, nrm = first_order_tail(model_b15_small, 100.0)
        col = series128.terms[1][1:, 0]
        assert np.linalg.norm(col - (-1j) * vec) <= 1e-8 * nrm

    def test_higher_terms_bounded_by_defect_recursion(self, series128,
                                                      model_b15_small):
        # ||term_{i+2}|| <= 2 (sup||K|| + 1) f sup_s ||term_i||
        f = adiabatic_defect(model_b15_small, 100.0, n_steps=1024)
        c = 2.0 * (model_b15_small.switching.gdot_max + 1.0)
        sups = series128.term_sup_norms
        for i in (0, 1, 2):
            assert operator_norm(series128.terms[i + 2]) <= c * f * sups[i]

    @pytest.mark.parametrize("tau", [100.0, 1000.0])
    def test_matches_per_node_collocation(self, series128, model_b15_small, tau):
        ser = series128 if tau == 100.0 else wave_operator_series(
            model_b15_small, tau, max_order=4, quad_order=64, s_eval=1.5)
        ref = per_node_series_terms(model_b15_small, tau, max_order=4,
                                    quad_order=64, s_eval=1.5)
        for term, want in zip(ser.terms, ref):
            assert np.linalg.norm(term - want) <= 1e-13 * np.linalg.norm(want)

    def test_series_reproduces_evolution(self, model_b15_small):
        tau = 1000.0
        ser = wave_operator_series(model_b15_small, tau, max_order=3,
                                   quad_order=64, s_eval=1.5)
        tr = evolve_true(model_b15_small, tau, 4096)
        f = adiabatic_defect(model_b15_small, tau, n_steps=2048)
        total = ser.partial_sum(3)
        leak_series = np.linalg.norm(total[1:, 0])
        assert abs(tr.leak_at(1.5) - leak_series) <= 10.0 * f ** 2

    def test_budget_guards(self, switching):
        grid = build_grid(1.0, 20, 32, 2.0 ** -20)  # N = 640 > budget
        model = assemble_model(grid, build_form_factor(grid, 1.5), switching)
        with pytest.raises(ResourceBudgetError):
            wave_operator_series(model, 10.0)
        with pytest.raises(ResourceBudgetError):
            adiabatic_defect(model, 10.0)

    def test_rejects_order_beyond_budget(self, model_b15_small):
        with pytest.raises(ResourceBudgetError):
            wave_operator_series(model_b15_small, 10.0, max_order=5)


class TestFirstOrderTail:
    def test_small_tau_limit_is_total_angle(self, model_b15_small):
        _, nrm = first_order_tail(model_b15_small, 1e-9)
        assert abs(nrm - model_b15_small.switching.theta_total) <= 1e-9

    def test_norm_ratio_reaches_coupling_exponent(self, model_b15_small):
        beta = model_b15_small.form_factor.beta
        for tau in (1000.0, 3000.0):
            _, n1 = first_order_tail(model_b15_small, tau)
            _, n2 = first_order_tail(model_b15_small, 2.0 * tau)
            assert abs(n1 / n2 - 2.0 ** beta) <= 0.1 * 2.0 ** beta

    def test_requires_threshold_case(self, model_gapped_small):
        with pytest.raises(ConfigurationError):
            first_order_tail(model_gapped_small, 100.0)


class TestAdiabaticDefect:
    def test_zero_driving_gives_zero(self, grid128):
        model = assemble_model(grid128, build_form_factor(grid128, 1.5),
                               SwitchingProfile.zero())
        assert adiabatic_defect(model, 100.0, n_steps=256) <= 1e-12

    @pytest.mark.parametrize("beta,expected", [(1.5, -1.0), (0.5, -0.5)])
    def test_decay_exponent(self, grid128, switching, beta, expected):
        model = assemble_model(grid128, build_form_factor(grid128, beta),
                               switching)
        taus = np.array([100.0, 1000.0, 10000.0])
        fs = [adiabatic_defect(model, t, n_steps=1024) for t in taus]
        slope = np.polyfit(np.log(taus), np.log(fs), 1)[0]
        assert abs(slope - expected) <= 0.15

    def test_constant_after_window(self, model_b15_small):
        # the defect grid includes the frozen after-window value; evolving
        # further cannot change it since the kernel support has ended
        grid_a = np.linspace(0.0, 1.0, 101)
        f_a = adiabatic_defect(model_b15_small, 200.0, s_grid=grid_a,
                               n_steps=1024)
        f_b = adiabatic_defect(model_b15_small, 200.0,
                               s_grid=np.concatenate([grid_a, [1.0]]),
                               n_steps=1024)
        assert abs(f_a - f_b) <= 1e-12

    @pytest.mark.parametrize("tau", DEFECT_TAUS)
    def test_matches_backward_walk_at_criterion_3(self, model_defect, tau):
        want, _ = backward_walk_defect(model_defect, tau, n_steps=1024)
        got = adiabatic_defect(model_defect, tau, n_steps=1024)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("extra", [[], [1.0]])
    def test_matches_backward_walk_on_after_window_grids(self, model_b15_small,
                                                          extra):
        grid = np.concatenate([np.linspace(0.0, 1.0, 101), extra])
        want, _ = backward_walk_defect(model_b15_small, 200.0, s_grid=grid)
        got = adiabatic_defect(model_b15_small, 200.0, s_grid=grid, n_steps=1024)
        assert abs(got - want) <= 1e-12 * want

    def test_matches_backward_walk_with_interior_maximum(self, model_b15_small):
        # at beta = 1.5 the defect peaks near s = 0.55 and falls by a
        # third before the window ends; the grid clusters at both ends
        grid = cosine_graded_edges(0.0, 1.0, 80)
        want, s_max = backward_walk_defect(model_b15_small, 200.0, s_grid=grid)
        assert 0.3 < s_max < 0.8
        got = adiabatic_defect(model_b15_small, 200.0, s_grid=grid, n_steps=1024)
        assert abs(got - want) <= 1e-12 * want

    def test_peak_memory_stays_below_the_record_list(self, model_defect):
        # the 201 (161, 161) record matrices alone would take 83 MB
        adiabatic_defect(model_defect, 1000.0, n_steps=1024)   # fill caches
        tracemalloc.start()
        try:
            adiabatic_defect(model_defect, 1000.0, n_steps=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_non_finite_stop_raises_overflow(self, model_b15_small, monkeypatch):
        # a NaN planted mid-block must stop the evolution at the next
        # record stop, before the norm bracket sees it
        from friedrichs import propagate

        apply_rotations = propagate._apply_rotations
        calls = []

        def planted(mat, *args):
            apply_rotations(mat, *args)
            calls.append(None)
            if len(calls) == 100:
                mat[3, 5] = np.nan

        monkeypatch.setattr(propagate, "_apply_rotations", planted)
        with pytest.raises(NumericalOverflow, match="step") as err:
            adiabatic_defect(model_b15_small, 200.0, n_steps=1024)
        assert int(str(err.value).rsplit(" ", 1)[1]) % 64 != 0

    def test_norm_failure_propagates(self, model_b15_small, monkeypatch):
        from friedrichs import volterra

        def failing(*args, **kwargs):
            raise ConvergenceFailure("planted")

        monkeypatch.setattr(volterra, "operator_norm", failing)
        with pytest.raises(ConvergenceFailure, match="planted"):
            adiabatic_defect(model_b15_small, 200.0, n_steps=1024)
