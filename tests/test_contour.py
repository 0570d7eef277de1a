import numpy as np
import pytest

from friedrichs.contour import (ContourSpec, ExchangeRateProfile,
                                PolyMatrixProfile, ibp_suite, slaved_tail_probe,
                                tilde, tilde_eigenbasis, verify_ibp)
from friedrichs.errors import (ConfigurationError, ResourceBudgetError,
                               SpectralSeparationError)

from friedrichs import contour
from friedrichs.checks import tilde_problem

from oracles import eigen_tilde, per_node_ibp_sides, single_mode_model


def _suite_profiles(model):
    """ibp_suite's profile pairs: the default, then three random pairs."""
    profiles = [("default", ExchangeRateProfile(model),
                 PolyMatrixProfile.random(model.dim, 2, seed=11))]
    for seed in (101, 102, 103):
        profiles.append((f"random-{seed}",
                         PolyMatrixProfile.random(model.dim, 3, seed=seed),
                         PolyMatrixProfile.random(model.dim, 2, seed=seed + 5000)))
    return profiles


class TestTilde:
    def test_two_level_cross_block(self):
        # unit gap divides the cross entries by one: tilde(X) = X
        h = np.diag([0.0, 1.0]).astype(complex)
        p = np.diag([1.0, 0.0]).astype(complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        out = tilde(h, p, x, ContourSpec(center=0.0, radius=0.5))
        assert np.linalg.norm(out - x) <= 1e-12

    def test_block_diagonal_annihilated(self):
        h, p, x = tilde_problem(3)
        xbd = p @ x @ p + (np.eye(8) - p) @ x @ (np.eye(8) - p)
        out = tilde(h, p, xbd, ContourSpec(center=0.0, radius=0.5))
        assert np.linalg.norm(out) <= 1e-12

    def test_matches_eigen_oracle(self):
        h, p, x = tilde_problem(3)
        spec = ContourSpec(center=0.0, radius=0.5, n_points=64)
        ref = eigen_tilde(h, x, 0.0, 0.5)
        assert np.linalg.norm(tilde(h, p, x, spec) - ref) <= 1e-10
        assert np.linalg.norm(tilde_eigenbasis(h, p, x, spec) - ref) <= 1e-13

    def test_quadrature_error_squares_with_points(self):
        h, p, x = tilde_problem(3)
        ref = eigen_tilde(h, x, 0.0, 0.5)
        res = {}
        for n in (16, 24, 32):
            spec = ContourSpec(center=0.0, radius=0.5, n_points=n)
            res[n] = np.linalg.norm(tilde(h, p, x, spec) - ref)
        # geometric convergence: doubling the points squares the residual
        assert res[32] <= 10.0 * res[16] ** 2 + 1e-13
        assert res[24] < res[16] and res[32] < res[24]

    def test_hermiticity_preserved(self):
        h, p, x = tilde_problem(3)
        xh = 0.5 * (x + x.conj().T)
        out = tilde(h, p, xh, ContourSpec(center=0.0, radius=0.5))
        assert np.linalg.norm(out - out.conj().T) <= 1e-12

    def test_linearity(self):
        h, p, x = tilde_problem(3)
        _, _, y = tilde_problem(9)
        spec = ContourSpec(center=0.0, radius=0.5)
        lhs = tilde(h, p, 2.0 * x - 0.7j * y, spec)
        rhs = 2.0 * tilde(h, p, x, spec) - 0.7j * tilde(h, p, y, spec)
        assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_vanishing_diagonal_blocks(self):
        h, p, x = tilde_problem(3)
        out = tilde(h, p, x, ContourSpec(center=0.0, radius=0.5))
        pp = p @ out @ p
        cc = (np.eye(8) - p) @ out @ (np.eye(8) - p)
        scale = np.linalg.norm(x, 2)
        assert np.linalg.norm(pp, 2) + np.linalg.norm(cc, 2) <= 1e-10 * scale

    def test_margin_violation_raises(self):
        h = np.diag([0.0, 0.55]).astype(complex)  # eigenvalue close to circle
        p = np.diag([1.0, 0.0]).astype(complex)
        x = np.eye(2, dtype=complex)
        with pytest.raises(SpectralSeparationError):
            tilde(h, p, x, ContourSpec(center=0.0, radius=0.5))

    def test_rank_mismatch_raises(self):
        h, p, x = tilde_problem(3)
        with pytest.raises(SpectralSeparationError):
            tilde(h, np.zeros((8, 8)), x, ContourSpec(center=0.0, radius=0.5))

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            ContourSpec(center=0.0, radius=0.5, n_points=8)

    @pytest.mark.parametrize("radius, n_points, rule", [
        (np.nan, 64, "radius must be finite and > 0"),
        (np.inf, 64, "radius must be finite and > 0"),
        (0.0, 64, "radius must be finite and > 0"),
        (0.5, 8, "n_points must be an integer >= 16"),
        (0.5, 16.5, "n_points must be an integer >= 16")],
        ids=["radius-nan", "radius-inf", "radius-zero", "n_points-8", "n_points-16.5"])
    def test_contour_rule_names_its_input(self, radius, n_points, rule):
        with pytest.raises(ConfigurationError, match=rule):
            ContourSpec(center=0.0, radius=radius, n_points=n_points)


class TestIbp:
    def test_zero_y_gives_zero_sides(self, model_gapped_small):
        zero = PolyMatrixProfile(np.zeros((1, model_gapped_small.dim,
                                           model_gapped_small.dim)))
        rep = verify_ibp(model_gapped_small, 50.0, y_profile=zero)
        assert rep.residual <= 1e-14
        assert rep.lhs_norm <= 1e-14

    def test_residual_small_at_order_64(self, model_gapped_small):
        rep = verify_ibp(model_gapped_small, 50.0, quad_order=64)
        assert rep.residual <= 1e-6
        assert rep.sign in (-1, 1)

    def test_refinement_reduces_residual(self, model_gapped_small):
        r48 = verify_ibp(model_gapped_small, 50.0, quad_order=48).residual
        r96 = verify_ibp(model_gapped_small, 50.0, quad_order=96).residual
        r192 = verify_ibp(model_gapped_small, 50.0, quad_order=192).residual
        assert r96 <= r48 / 4.0
        assert r192 <= r96 / 4.0 or r192 <= 1e-12

    def test_random_profile_suite(self, model_gapped_small):
        reports = ibp_suite(model_gapped_small, 50.0, quad_order=64)
        assert len(reports) == 4
        assert {r.profile_tag for r in reports} == {
            "default", "random-101", "random-102", "random-103"}
        assert all(r.residual <= 1e-6 for r in reports)
        assert len({r.sign for r in reports}) == 1

    def test_derived_sign_holds_on_two_level_probe(self):
        # Left = -Right, as derived at contour._IBP_SIGN; with the opposite
        # sign the residual would be of the size of the sides themselves
        model = single_mode_model(k=1.0, theta_total=np.pi / 4, gap_shift=1.0)
        lhs, rhs, y_bound = contour._ibp_sides(
            model, tau=40.0, x_profile=ExchangeRateProfile(model),
            y_profile=PolyMatrixProfile.random(2, 2, seed=7), s=1.25,
            quad_order=160)
        lhs, rhs = lhs @ y_bound, rhs @ y_bound
        assert contour._IBP_SIGN == -1
        assert np.linalg.norm(lhs + rhs) < 1e-3 * np.linalg.norm(lhs - rhs)

    def test_stacked_sides_match_per_node_quadrature(self, model_gapped_small,
                                                     monkeypatch):
        profiles = _suite_profiles(model_gapped_small)
        wants = [per_node_ibp_sides(model_gapped_small, 50.0, xp, yp, 1.25, 64)
                 for _, xp, yp in profiles]

        # the stacked sides apply the coefficients and never form a
        # profile's matrix at a node
        def formed(self, s):
            raise AssertionError("a profile matrix was formed")
        monkeypatch.setattr(contour._SeparableProfile, "value", formed)
        monkeypatch.setattr(contour._SeparableProfile, "derivative", formed)
        for (tag, xp, yp), want in zip(profiles, wants):
            *factors, y_bound = contour._ibp_sides(model_gapped_small, 50.0,
                                                   xp, yp, 1.25, 64)
            got = [f @ y_bound for f in factors]
            for side, (g, w) in enumerate(zip(got, want)):
                # the default left side, 2.2e-4, cancels O(1) summands (a
                # condition of ~3.6e3), which puts either quadrature
                # about 1e-12 from the exact sum
                tol = 2e-12 if (tag, side) == ("default", 0) else 1e-12
                assert np.linalg.norm(g - w) <= tol * np.linalg.norm(w), (tag, side)

    @pytest.mark.parametrize("q", [64, 128])
    def test_thin_norms_match_the_formed_sides(self, model_gapped_small, q):
        # the residual cancels the sides down to about 2e-13 of their
        # size, so its rounding is measured against theirs
        for tag, xp, yp in _suite_profiles(model_gapped_small):
            rep = verify_ibp(model_gapped_small, 50.0, xp, yp, quad_order=q)
            *factors, y_bound = contour._ibp_sides(model_gapped_small, 50.0,
                                                   xp, yp, 1.25, q)
            lhs, rhs = (f @ y_bound for f in factors)
            scale = np.linalg.norm(lhs, 2)
            assert abs(rep.lhs_norm - scale) <= 1e-13 * scale, tag
            formed = np.linalg.norm(lhs - contour._IBP_SIGN * rhs, 2)
            assert abs(rep.residual - formed) <= 1e-13 * scale, tag

    def test_gapless_model_rejected(self, model_b15_small):
        with pytest.raises(ConfigurationError):
            verify_ibp(model_b15_small, 50.0)

    def test_separable_form_reproduces_matrices(self, model_gapped_small):
        # sum_k f_k(s) C_k against the closed forms i gdot(s) A and
        # sum_k s^k C_k (derivatives i gddot(s) A and sum_k k s^(k-1) C_k)
        a = model_gapped_small.exchange_dense()
        sw = model_gapped_small.switching
        poly = PolyMatrixProfile.random(5, 3, seed=2)
        c = poly.coeffs

        def poly_closed(s, deriv):
            s = np.asarray(s, dtype=float)[..., None, None]
            if deriv:
                return sum(k * s ** (k - 1) * c[k] for k in range(1, len(c)))
            return sum(s ** k * c[k] for k in range(len(c)))

        cases = [(ExchangeRateProfile(model_gapped_small),
                  lambda s, deriv: 1j * np.multiply.outer(
                      (sw.gddot if deriv else sw.gdot)(s), a)),
                 (poly, poly_closed)]
        for prof, closed in cases:
            for s in (0.4, np.array([0.0, 0.25, 0.7, 0.95])):
                for deriv, f, matrix in (
                        (False, prof.weights, prof.value),
                        (True, prof.derivative_weights, prof.derivative)):
                    w = f(s)
                    assert w.shape == np.shape(s) + (len(prof.coeffs),)
                    summed = sum(w[..., k, None, None] * prof.coeffs[k]
                                 for k in range(len(prof.coeffs)))
                    want = closed(s, deriv)
                    scale = np.linalg.norm(want)
                    assert np.linalg.norm(summed - want) <= 1e-14 * scale
                    assert np.linalg.norm(matrix(s) - want) <= 1e-14 * scale

    def test_profile_derivatives_consistent(self, model_gapped_small):
        prof = ExchangeRateProfile(model_gapped_small)
        h = 1e-5
        fd = (prof.value(0.4 + h) - prof.value(0.4 - h)) / (2 * h)
        assert np.linalg.norm(fd - prof.derivative(0.4)) <= 1e-5
        poly = PolyMatrixProfile.random(4, 3, seed=1)
        fd = (poly.value(0.7 + h) - poly.value(0.7 - h)) / (2 * h)
        assert np.linalg.norm(fd - poly.derivative(0.7)) <= 1e-8


class TestSlavedTail:
    def test_requires_gap_and_scale(self, model_b15_small, model_gapped_small):
        with pytest.raises(ConfigurationError):
            slaved_tail_probe(model_b15_small, [100.0, 200.0])
        with pytest.raises(ConfigurationError):
            slaved_tail_probe(model_gapped_small, [10.0, 20.0])

    def test_gapped_probe_collapses_after_window(self, model_gapped_small):
        taus = [100.0, 158.5, 251.2]
        recs = slaved_tail_probe(model_gapped_small, taus, max_step=1 / 1024.)
        probes = np.array([r[1] for r in recs])
        sups = np.array([r[2] for r in recs])
        # after the window the leak sits orders of magnitude under the sup
        assert np.all(probes < 1e-4 * sups)
        slope = np.polyfit(np.log(taus), np.log(probes), 1)[0]
        assert slope <= -2.5
