import numpy as np
import pytest
from scipy.integrate import quad

from friedrichs.errors import AssemblyError, ConfigurationError
from friedrichs.model import (_BUMP_EDGES, SwitchingProfile, _bump_cumulative,
                              assemble_model, build_form_factor, build_grid,
                              build_switching, rotate)

from oracles import per_point_bump_cumulative, rotation_dense, two_level_rotation


class TestGrid:
    def test_single_panel_linear_integrand(self):
        g = build_grid(1.0, 1, 16, 1e-6)
        exact = 0.5 - 0.5 * (1e-6) ** 2
        assert abs(g.integrate(g.nodes) - exact) <= 1e-12 * exact

    def test_ratio_two_edges(self):
        g = build_grid(1.0, 20, 4, 2.0 ** -20)
        expected = 2.0 ** -np.arange(20, -1, -1.0)
        assert len(g.panel_layout.edges) == 21
        np.testing.assert_allclose(g.panel_layout.edges, expected, rtol=1e-13)

    def test_quadratic_integrand(self):
        k_min = 2.0 ** -20
        g = build_grid(1.0, 20, 8, k_min)
        exact = (1.0 - k_min ** 3) / 3.0
        assert abs(g.integrate(g.nodes ** 2) - exact) <= 1e-12 * exact

    def test_per_panel_polynomial_exactness(self):
        g = build_grid(1.0, 4, 6, 1e-2)
        edges = g.panel_layout.edges
        q = g.panel_layout.nodes_per_panel
        # degree 2q-1 polynomial integrated exactly on each panel
        deg = 2 * q - 1
        for p in range(4):
            sel = slice(p * q, (p + 1) * q)
            num = g.weights[sel] @ g.nodes[sel] ** deg
            exact = (edges[p + 1] ** (deg + 1) - edges[p] ** (deg + 1)) / (deg + 1)
            assert abs(num - exact) <= 1e-12 * abs(exact)

    def test_nodes_sorted_weights_positive(self):
        g = build_grid(2.0, 7, 5, 1e-4)
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.weights > 0)
        assert g.nodes[0] >= g.k_min and g.nodes[-1] <= g.k_max
        assert g.n_nodes == 35

    @pytest.mark.parametrize("kwargs", [
        dict(k_max=1.0, n_panels=4, nodes_per_panel=4, k_min=-1.0),
        dict(k_max=1.0, n_panels=4, nodes_per_panel=4, k_min=2.0),
        dict(k_max=0.0, n_panels=4, nodes_per_panel=4, k_min=0.0),
        dict(k_max=1.0, n_panels=0, nodes_per_panel=4, k_min=0.1),
        dict(k_max=1.0, n_panels=4, nodes_per_panel=1, k_min=0.1),
    ])
    def test_bad_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            build_grid(**kwargs)


class TestFormFactor:
    def test_unit_norm_any_beta(self, grid320):
        for beta in (0.5, 1.0, 1.5, 1.75, 2.5):
            ff = build_form_factor(grid320, beta)
            assert abs(grid320.integrate(ff.values ** 2) - 1.0) <= 1e-12

    def test_flat_profile_at_half(self, grid320):
        # beta = 1/2 makes the exponent beta - 1/2 vanish below the cutoff
        ff = build_form_factor(grid320, 0.5)
        raw = ff.values / ff.norm_constant
        below = grid320.nodes < 0.4
        np.testing.assert_allclose(raw[below], 1.0, rtol=1e-13)

    def test_small_x_power_law_at_panel_edges(self, grid320):
        beta = 1.5
        ff = build_form_factor(grid320, beta)
        raw_sq = (ff.values / ff.norm_constant) ** 2
        w = grid320.weights
        # whole panels sum exactly: edge 2^-4 = 0.0625 is below cutoff onset
        for x in (2.0 ** -4, 2.0 ** -6, 2.0 ** -8):
            mask = grid320.nodes <= x
            num = float(w[mask] @ raw_sq[mask])
            exact = x ** (2 * beta) - grid320.k_min ** (2 * beta)
            assert abs(num - exact) <= 1e-11 * exact

    def test_cumulative_law_tracks_norm_constant(self, grid320):
        # evaluated at panel edges, where the node cumsum is a whole-panel
        # quadrature; samples sit far enough above k_min that the untracked
        # [0, k_min) mass stays under the 5 percent budget (3 k_min is not
        # enough for beta <= 1: the missing mass is (k_min/x)^(2 beta))
        q = grid320.panel_layout.nodes_per_panel
        for beta in (0.5, 1.5):
            ff = build_form_factor(grid320, beta)
            cum = np.cumsum(grid320.weights * ff.values ** 2)
            x_lo = grid320.k_min * max(3.0, 1.3 * 0.05 ** (-1.0 / (2 * beta)))
            edges = grid320.panel_layout.edges
            usable = [(m, e) for m, e in enumerate(edges)
                      if x_lo <= e <= 0.45 and m >= 1]
            assert len(usable) >= 10
            for m, x in usable[:10]:
                ratio = cum[m * q - 1] / x ** (2 * beta)
                assert abs(ratio - ff.norm_constant ** 2) \
                    <= 0.05 * ff.norm_constant ** 2

    def test_rejects_degenerate_exponent(self, grid320):
        with pytest.raises(ConfigurationError):
            build_form_factor(grid320, 0.0)
        with pytest.raises(ConfigurationError):
            build_form_factor(grid320, -1.0)
        with pytest.raises(ConfigurationError):
            build_form_factor(grid320, 1.0, cutoff_fraction=1.0)


class TestSwitching:
    def test_endpoint_values(self, switching):
        theta = switching.theta_total
        assert switching.g(0.0) == 0.0
        assert abs(switching.g(1.0) - theta) <= 1e-10
        assert abs(switching.g(1.7) - theta) <= 1e-10
        assert switching.gdot(0.0) == 0.0
        assert switching.gdot(1.0001) == 0.0
        assert switching.gdot(-0.5) == 0.0

    def test_rate_max_at_midpoint(self, switching):
        s = np.linspace(0.0, 1.0, 20001)
        gd = switching.gdot(s)
        assert abs(s[np.argmax(gd)] - 0.5) <= 1e-4
        assert np.all(gd >= 0.0)
        assert abs(np.max(gd) - switching.gdot_max) <= 1e-12

    def test_g_is_antiderivative(self, switching):
        for s in (0.1, 0.35, 0.5, 0.82, 1.0):
            ref, _ = quad(switching.gdot, 0.0, s, epsabs=1e-13, limit=200)
            assert abs(switching.g(s) - ref) <= 1e-10

    def test_second_derivative_consistency(self, switching):
        h = 1e-5
        for s in (0.3, 0.5, 0.7):
            fd = (switching.gdot(s + h) - switching.gdot(s - h)) / (2 * h)
            assert abs(fd - switching.gddot(s)) <= 1e-5 * max(1.0, abs(fd))

    def test_cumulative_bump_matches_per_point_loop(self):
        # random points in and around the window, every panel edge and its
        # neighbours; the Gauss rules and dots are the loop's, bit for bit
        s = np.concatenate((np.random.default_rng(3).uniform(-0.2, 1.2, 2000),
                            _BUMP_EDGES, np.nextafter(_BUMP_EDGES, -1.0),
                            np.nextafter(_BUMP_EDGES, 2.0)))
        np.testing.assert_array_equal(_bump_cumulative(s),
                                      per_point_bump_cumulative(s))
        grid = s[:2000].reshape(40, 50)
        np.testing.assert_array_equal(_bump_cumulative(grid),
                                      per_point_bump_cumulative(grid))
        assert _bump_cumulative(0.3) == per_point_bump_cumulative(0.3)
        assert isinstance(_bump_cumulative(0.3), float)

    def test_rejects_nonpositive_angle(self):
        with pytest.raises(ConfigurationError):
            build_switching(0.0)
        with pytest.raises(ConfigurationError):
            build_switching(-0.1)


class TestAssembly:
    def test_exchange_expectation(self, model_b15):
        e0 = np.zeros(model_b15.dim, dtype=complex)
        e0[0] = 1.0
        a = model_b15.exchange_dense()
        a2 = a @ (a @ e0)
        assert abs(e0 @ a2 - 1.0) <= 1e-12

    def test_gap_shift_moves_continuum(self, grid128, switching):
        ff = build_form_factor(grid128, 1.5)
        m = assemble_model(grid128, ff, switching, gap_shift=1.0)
        assert abs((np.min(m.diag_energies[1:]) - m.diag_energies[0])
                   - (1.0 + grid128.nodes[0])) <= 1e-14

    def test_threshold_distance_is_k_min(self, model_b15):
        gaps = model_b15.diag_energies[1:] - model_b15.diag_energies[0]
        assert np.min(gaps) >= model_b15.measure.k_min * (1 - 1e-12)
        assert np.all(model_b15.diag_energies >= 0.0)

    def test_projection_properties(self, model_b15_small):
        dim = model_b15_small.dim
        p = np.zeros((dim, dim))
        p[0, 0] = 1.0
        np.testing.assert_array_equal(p @ p, p)
        np.testing.assert_array_equal(p, p.conj().T)
        assert dim == 1 + model_b15_small.measure.n_nodes

    def test_coupling_unit_norm(self, model_b15):
        assert abs(np.linalg.norm(model_b15.coupling) - 1.0) <= 1e-12

    def test_dimension_mismatch_rejected(self, grid320, grid128, switching):
        ff = build_form_factor(grid320, 1.5)
        with pytest.raises(AssemblyError):
            assemble_model(grid128, ff, switching)

    def test_negative_gap_rejected(self, grid128, switching):
        ff = build_form_factor(grid128, 1.5)
        with pytest.raises(ConfigurationError):
            assemble_model(grid128, ff, switching, gap_shift=-0.5)


# builder inputs that break their rule (non-finite, or not an integer):
# (call on a small grid, the input its error names)
BUILDER_RULES = {
    "grid-k_max-inf": (lambda g: build_grid(np.inf, 8, 4, 1e-3), "k_max"),
    "grid-k_min-inf": (lambda g: build_grid(1.0, 8, 4, np.inf), "k_min"),
    "grid-n_panels-bool": (lambda g: build_grid(1.0, True, 4, 1e-3), "n_panels"),
    "grid-nodes_per_panel-2.5": (lambda g: build_grid(1.0, 8, 2.5, 1e-3),
                                 "nodes_per_panel"),
    "form-factor-beta-inf": (lambda g: build_form_factor(g, np.inf), "beta"),
    "switching-inf": (lambda g: build_switching(np.inf), "theta_total"),
    # zero driving builds directly (SwitchingProfile(0.0)); nan and inf do not
    "profile-nan": (lambda g: SwitchingProfile(np.nan), "theta_total"),
    "profile-inf": (lambda g: SwitchingProfile(np.inf), "theta_total"),
    "assemble-gap_shift-inf": (
        lambda g: assemble_model(g, build_form_factor(g, 1.5), build_switching(1.0),
                                 gap_shift=np.inf), "gap_shift"),
}


@pytest.mark.parametrize("case", list(BUILDER_RULES))
def test_builder_rule_names_its_input(case):
    call, name = BUILDER_RULES[case]
    with pytest.raises(ConfigurationError, match=f"{name} must be"):
        call(build_grid(1.0, 4, 4, 1e-2))


def _unit_rows(dim, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


class TestRotation:
    def test_zero_angle_is_identity(self, model_b15_small):
        rows = _unit_rows(model_b15_small.dim, 3, 1)
        np.testing.assert_array_equal(rotate(model_b15_small, 0.0, rows), rows)

    def test_quarter_turn_lands_on_coupling(self, model_b15_small):
        # oracle: the rotation restricted to span{e0, c} is a 2x2 block
        m = model_b15_small
        out = rotate(m, np.pi / 2, np.eye(m.dim, dtype=complex)[:1])[0]
        overlap = m.coupling @ out[1:]
        block = two_level_rotation(np.pi / 2) @ np.array([1.0, 0.0])
        assert abs(abs(overlap) - 1.0) <= 1e-12
        assert abs(overlap - block[1]) <= 1e-12
        assert abs(out[0] - block[0]) <= 1e-12

    def test_rotation_round_trip(self, model_b15_small):
        rows = _unit_rows(model_b15_small.dim, 1, 11)
        back = rotate(model_b15_small, -0.83,
                      rotate(model_b15_small, 0.83, rows))
        assert np.linalg.norm(back - rows) <= 1e-14

    def test_norm_preservation_and_group_law(self, model_b15_small):
        # one angle pair per row
        rng = np.random.default_rng(5)
        m = model_b15_small
        rows = _unit_rows(m.dim, 6, 5)
        a, b = rng.uniform(-2, 2, size=(2, 6))
        lhs = rotate(m, a, rotate(m, b, rows))
        rhs = rotate(m, a + b, rows)
        assert np.max(np.abs(np.linalg.norm(lhs, axis=1) - 1.0)) <= 1e-14
        assert np.max(np.linalg.norm(lhs - rhs, axis=1)) <= 1e-12

    def test_dense_rotation_matches_apply(self, model_b15_small):
        m = model_b15_small
        rows = _unit_rows(m.dim, 4, 7)
        thetas = np.array([0.37, -1.2, 2.9, 0.0])
        fast = rotate(m, thetas, rows)
        for theta, row, got in zip(thetas, rows, fast):
            assert np.linalg.norm(rotation_dense(m, theta) @ row - got) <= 1e-13
