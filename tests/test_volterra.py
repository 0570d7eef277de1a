import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from friedrichs.errors import (ConfigurationError, ConvergenceFailure,
                               NumericalOverflow, ResourceBudgetError)
from friedrichs.model import (SwitchingProfile, assemble_model,
                              build_form_factor, build_grid)
from friedrichs.numutil import cosine_graded_edges, operator_norm
from friedrichs.propagate import evolve_true, evolve_wave_operator
from friedrichs.volterra import (adiabatic_defect, first_order_tail,
                                 kernel_columns, wave_operator_series)

from oracles import (apply_kernel, backward_walk_defect,
                     per_node_first_order_tail, per_node_series_terms)

DEFECT_TAUS = tuple(float(t) for t in np.geomspace(1e2, 1e4, 4))


def _kernel_dense(model, tau, t):
    """K(t) = -i gdot(t) (|c(t)><e0| + |e0><c(t)|) from its definition."""
    ct = np.exp(1j * tau * t * model.diag_energies[1:]) * model.coupling
    k = np.zeros((model.dim, model.dim), dtype=complex)
    k[1:, 0] = ct
    k[0, 1:] = ct.conj()
    return -1j * model.switching.gdot(t) * k


class TestKernel:
    def test_vanishes_outside_window(self, model_b15_small):
        cols = kernel_columns(model_b15_small, 10.0, [-0.2, 0.0, 1.0, 1.5])
        assert cols.shape == (4, model_b15_small.dim - 1)
        assert np.linalg.norm(cols) == 0.0

    def test_anti_hermitian(self, model_b15_small):
        col = kernel_columns(model_b15_small, 10.0, [0.37])[0]
        km = apply_kernel(col, np.eye(model_b15_small.dim))
        assert np.linalg.norm(km + km.conj().T) <= 1e-14

    def test_entry_magnitudes_independent_of_tau(self, model_b15_small):
        m = model_b15_small
        gd = m.switching.gdot(0.3)
        for tau in (10.0, 1000.0):
            col = kernel_columns(m, tau, [0.3])[0]
            np.testing.assert_allclose(np.abs(col), gd * np.abs(m.coupling),
                                       rtol=1e-13)

    def test_apply_matches_matrix(self, model_b15_small):
        # each row of the columns, applied as K, is K at that time
        rng = np.random.default_rng(0)
        m = model_b15_small
        times = np.array([0.1, 0.6, 0.93])
        vec = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        for t, col in zip(times, kernel_columns(m, 25.0, times)):
            want = _kernel_dense(m, 25.0, t) @ vec
            err = np.linalg.norm(apply_kernel(col, vec) - want)
            assert err <= 1e-14 * np.linalg.norm(want)


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
        # ||term_{i+2}|| <= 2 (sup||K|| + 1) f sup_s ||term_i||, the sup
        # over the series' panel ends in the window
        f = adiabatic_defect(model_b15_small, 100.0, n_steps=1024)
        c = 2.0 * (model_b15_small.switching.gdot_max + 1.0)
        ends = np.linspace(0.0, 1.0, series128.n_panels + 1)[1:]
        sups = np.max([[operator_norm(term) for term in wave_operator_series(
            model_b15_small, 100.0, max_order=4, s_eval=s).terms] for s in ends],
            axis=0)
        for i in (0, 1, 2):
            assert operator_norm(series128.terms[i + 2]) <= c * f * sups[i]

    def test_takes_no_norm(self, model_b15_small, monkeypatch):
        # every spectral norm of the package is a block power iteration;
        # the series takes none, its parity check one per term and one
        # per odd term's continuum block: 6 at max_order 4
        from friedrichs import numutil, volterra

        calls = []
        power = numutil.block_power_norms

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return power(*args, **kwargs)

        monkeypatch.setattr(numutil, "block_power_norms", counting)
        monkeypatch.setattr(volterra, "block_power_norms", counting)
        ser = wave_operator_series(model_b15_small, 100.0, max_order=4,
                                   quad_order=64, s_eval=1.5)
        assert calls == []
        ser.parity_defects()
        assert calls == [1] * 6

    def test_parity_defects_equal_the_four_block_norms(self, series128):
        # skipping the even terms' continuum norm moves no defect: each is
        # the one its parity reads from all four block norms of the term
        want = []
        for i, m in enumerate(series128.terms[1:], start=1):
            blocks = {"pp": abs(m[0, 0]), "cc": operator_norm(m[1:, 1:]),
                      "pc": float(np.linalg.norm(m[0, 1:])),
                      "cp": float(np.linalg.norm(m[1:, 0]))}
            keys = ("pp", "cc") if i % 2 else ("pc", "cp")
            want.append(max(blocks[k] for k in keys)
                        / max(operator_norm(m), 1e-300))
        assert series128.parity_defects() == want

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
        total = sum(ser.terms[:4])
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
    @pytest.mark.parametrize("tau", [1e-9, 1.0, 100.0, 1e4])
    def test_matches_per_node_transforms(self, model_defect, tau):
        # one moment call over (nodes x panels) against a Filon call per node
        vec, nrm = first_order_tail(model_defect, tau)
        want, want_nrm = per_node_first_order_tail(model_defect, tau)
        assert np.linalg.norm(vec - want) <= 1e-14 * want_nrm
        assert abs(nrm - want_nrm) <= 1e-14 * want_nrm

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


class TestImplicitBrackets:
    """lo <= ||A_j||_2 <= hi at every stop, against A_j formed explicitly.

    The brackets come from volterra._block_brackets, which never forms a
    stop: it takes the Frobenius norm and the Ritz values of A_j = A_0 -
    Y C_j z from products with the block's factors. Its hi^2 carries a
    rounding allowance derived there, not tuned: gamma_N (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.5),
    N = dim^2 + 2 the longest sum taken, times the moduli each computed
    term can reach, ((c - 1)(2 sqrt(c) + 3) + 3) s_j^2 + 2 b_j sqrt(dim)
    for c = 8 Ritz columns, s_j = ||A_0||_F + b_j and b_j =
    sqrt(j + 1) ||C_j||_F ||z_j||_F; lo^2 gives up (2 sqrt(c) + 3)
    gamma_N s_j^2. A_j is formed here by the list mode of
    evolve_wave_operator, and its norm taken by an SVD; their own
    rounding is far below those allowances at these stops.
    """

    @staticmethod
    def _check_every_stop(model, tau, grid, n_steps, monkeypatch):
        from friedrichs import volterra

        seen = []
        brackets = volterra._block_brackets

        def recording(blk, a0, v):
            out = brackets(blk, a0, v)
            seen.extend(zip((blk.start + blk.offsets).tolist(), out[0], out[1]))
            return out

        monkeypatch.setattr(volterra, "_block_brackets", recording)
        adiabatic_defect(model, tau, s_grid=grid, n_steps=n_steps)
        s, omegas, _ = evolve_wave_operator(model, tau, n_steps, grid)
        assert [step for step, _, _ in seen] == [round(t * n_steps) for t in s]
        eye = np.eye(model.dim)
        for (step, lo, hi), omega in zip(seen, omegas):
            assert lo <= np.linalg.norm(eye - omega, 2) <= hi, step

    @pytest.mark.parametrize("tau", DEFECT_TAUS)
    def test_criterion_3_stops(self, model_defect, tau, monkeypatch):
        self._check_every_stop(model_defect, tau, np.linspace(0.0, 1.0, 201),
                               1024, monkeypatch)

    def test_interior_maximum_grid(self, model_b15_small, monkeypatch):
        self._check_every_stop(model_b15_small, 200.0,
                               cosine_graded_edges(0.0, 1.0, 80), 1024,
                               monkeypatch)

    @pytest.mark.parametrize("tau", [100.0, 1e4])
    def test_stop_at_every_step(self, switching, tau, monkeypatch):
        grid = build_grid(1.0, 8, 8, 1e-3)  # N = 64
        model = assemble_model(grid, build_form_factor(grid, 1.5), switching)
        self._check_every_stop(model, tau, np.arange(201) / 200, 200,
                               monkeypatch)


class TestAdiabaticDefect:
    def test_zero_driving_gives_zero(self, grid128):
        model = assemble_model(grid128, build_form_factor(grid128, 1.5),
                               SwitchingProfile(0.0))
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

    @pytest.mark.parametrize("tau,want", zip(DEFECT_TAUS, (
        0.24834365482297605, 0.11403320639446554, 0.05181886913164594,
        0.023558284227092153)))
    def test_criterion_3_defects_pinned(self, model_defect, tau, want):
        # criterion 3's four defects to 17 digits, as the per-run QR form
        # of the wave-operator kernel gave them
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
        # a NaN planted in the rotation of step 600 (0-based, inside the
        # block of steps 576-639) first reaches the record stop at step
        # 604; the error must name that stop, and come from the block's
        # Frobenius sums before any Ritz round reads a non-finite stop
        from friedrichs import propagate, volterra

        blocks = propagate._interaction_blocks

        def planted(model, taus, n_steps):
            forms, clean = blocks(model, taus, n_steps)
            forms[2][600] = np.nan                  # i sin r of step 600
            return forms, clean

        bounds = volterra.ritz_bounds

        def finite_only(grams, *args):
            assert np.all(np.isfinite(grams))
            return bounds(grams, *args)

        monkeypatch.setattr(propagate, "_interaction_blocks", planted)
        monkeypatch.setattr(volterra, "ritz_bounds", finite_only)
        with pytest.raises(NumericalOverflow, match="at step 604$"):
            adiabatic_defect(model_b15_small, 200.0, n_steps=1024)

    def test_norm_failure_propagates(self, model_b15_small, monkeypatch):
        from friedrichs import volterra

        def failing(*args, **kwargs):
            raise ConvergenceFailure("planted")

        monkeypatch.setattr(volterra, "block_power_norms", failing)
        with pytest.raises(ConvergenceFailure, match="planted"):
            adiabatic_defect(model_b15_small, 200.0, n_steps=1024)


class TestBatchedSettle:
    """The defect settles a block's candidates together, one block late.

    volterra._stop_norms applies each stop from its block's factors and
    hands the batch to numutil.block_power_norms; no stop is formed.
    """

    @staticmethod
    def _record_settled(monkeypatch):
        from friedrichs import volterra

        settled, batches = {}, []
        stop_norms = volterra._stop_norms

        def recording(blk, a0, stops, start):
            steps = (blk.start + blk.offsets[stops]).tolist()
            batches.append(steps)
            out = stop_norms(blk, a0, stops, start)
            settled.update(zip(steps, out))
            return out

        monkeypatch.setattr(volterra, "_stop_norms", recording)
        return settled, batches

    @pytest.mark.parametrize("model_name,tau,grid", [
        ("model_defect", DEFECT_TAUS[0], None),
        ("model_defect", DEFECT_TAUS[-1], None),
        ("model_b15_small", 200.0, cosine_graded_edges(0.0, 1.0, 80)),
    ])
    def test_matches_list_mode_norms(self, request, model_name, tau, grid,
                                     monkeypatch):
        model = request.getfixturevalue(model_name)
        grid = np.linspace(0.0, 1.0, 201) if grid is None else grid
        settled, _ = self._record_settled(monkeypatch)
        got = adiabatic_defect(model, tau, s_grid=grid, n_steps=1024)
        assert got == max(settled.values())
        s, omegas, _ = evolve_wave_operator(model, tau, 1024, grid)
        want = {round(t * 1024): np.linalg.norm(np.eye(model.dim) - omega, 2)
                for t, omega in zip(s, omegas)}
        assert settled
        for step, nrm in settled.items():
            assert abs(nrm - want[step]) <= 1e-13 * want[step], step

    @pytest.mark.parametrize("tau,most_norms", zip(DEFECT_TAUS, (35, 36, 34, 31)))
    def test_streaming_forms_no_stop(self, model_defect, tau, most_norms,
                                     monkeypatch):
        from friedrichs import propagate

        formed = []
        stop_matrix = propagate.WaveBlock.stop_matrix

        def counting(self, i, out):
            formed.append(i)
            return stop_matrix(self, i, out)

        monkeypatch.setattr(propagate.WaveBlock, "stop_matrix", counting)
        settled, batches = self._record_settled(monkeypatch)
        adiabatic_defect(model_defect, tau, n_steps=1024)
        assert formed == []
        assert len(settled) <= most_norms
        assert len(batches) <= 3
        # the list mode still forms every stop through stop_matrix
        evolve_wave_operator(model_defect, tau, 1024, np.linspace(0.0, 1.0, 201))
        assert len(formed) == 201

    def test_non_convergence_names_the_stop(self, model_b15_small, monkeypatch):
        # one round cannot settle every stop of the first batch; the
        # failure names a stop of that batch by its step, and no later
        # batch is started
        from friedrichs import numutil

        _, batches = self._record_settled(monkeypatch)
        monkeypatch.setattr(numutil, "_POWER_ROUNDS", 1)
        with pytest.raises(ConvergenceFailure,
                           match=r"in 1 rounds for the stop at step (\d+) ") as err:
            adiabatic_defect(model_b15_small, 200.0, n_steps=1024)
        step = int(err.value.args[0].split("at step ")[1].split()[0])
        assert len(batches) == 1 and step in batches[0]
