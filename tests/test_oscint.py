import numpy as np
import pytest
from scipy.special import spherical_jn

from friedrichs.errors import ConfigurationError, PrecisionLimitError
from friedrichs.oscint import (BUMP_ASYMPTOTIC, _spherical_jn, bump_transform,
                               bump_transform_asymptotic, filon_integral,
                               fourier_legendre_moments, rate_transform)

from oracles import trapezoid_rate_transform, windowed_rate_transform

# high-precision quadrature values (mpmath, 30 digits) for the canonical
# bump transform int_{-1}^{1} cos(p s) exp(-1/(1-s^2)) ds
BUMP_REFERENCE = {
    0.0: 0.44399381616807943782,
    10.0: 0.014623086655132708615,
    50.0: -6.6615058862461794543e-05,
    100.0: 2.2350020671415217969e-06,
    200.0: -2.4663695842509402162e-08,
    400.0: -1.3542360227413744181e-11,
}


class TestMoments:
    def test_zero_frequency(self):
        m = fourier_legendre_moments(0.0, 6)[0]
        expected = np.zeros(7)
        expected[0] = 2.0
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_against_elementary_forms(self):
        w = 3.7
        m = fourier_legendre_moments(w, 2)[0]
        assert abs(m[0] - 2 * np.sin(w) / w) <= 1e-15
        i1 = 2j * (np.sin(w) / w ** 2 - np.cos(w) / w)
        assert abs(m[1] - i1) <= 1e-15

    def test_conjugate_at_negative_frequency(self):
        m_pos = fourier_legendre_moments(2.3, 8)[0]
        m_neg = fourier_legendre_moments(-2.3, 8)[0]
        np.testing.assert_allclose(m_neg, m_pos.conj(), rtol=0, atol=1e-16)


# w = 0 and 2e5 log-spaced |w| in [1e-8, 1e4] of each sign: the series,
# Miller and upward ranges all lie inside
_ORACLE_POS = np.geomspace(1e-8, 1e4, 200_000)
_ORACLE_W = np.concatenate([[0.0], _ORACLE_POS, -_ORACLE_POS])


class TestMomentsAgainstScipy:
    @pytest.mark.parametrize("degree", [8, 10])
    def test_spherical_bessel_matches_scipy(self, degree):
        got = _spherical_jn(_ORACLE_W, degree)
        ref = np.stack([spherical_jn(q, _ORACLE_W) for q in range(degree + 1)],
                       axis=-1)
        assert np.max(np.abs(got - ref)) <= 2e-15
        # relative accuracy down to the tiniest high-order moments
        small = np.abs(_ORACLE_W) <= 2.5
        rel = np.abs(got[small] - ref[small]) / np.where(ref[small] == 0.0, 1.0,
                                                         np.abs(ref[small]))
        assert np.max(rel) <= 1e-13

    @pytest.mark.parametrize("degree", [8, 10])
    def test_negative_frequency_is_exact_conjugate(self, degree):
        m = fourier_legendre_moments(_ORACLE_W, degree)
        assert np.array_equal(fourier_legendre_moments(-_ORACLE_W, degree), np.conj(m))


class TestFilon:
    def test_exact_for_polynomial_times_phase(self):
        # int_0^1 t^3 e^{ipt} dt has an elementary antiderivative
        p = 37.3

        def antideriv(t):
            ip = 1j * p
            return np.exp(ip * t) * (t ** 3 / ip - 3 * t ** 2 / ip ** 2
                                     + 6 * t / ip ** 3 - 6 / ip ** 4)

        exact = antideriv(1.0) - antideriv(0.0)
        got = filon_integral(lambda t: t ** 3, 0.0, 1.0, p)
        assert abs(got - exact) <= 1e-14

    def test_zero_width_interval(self):
        assert filon_integral(np.cos, 1.0, 1.0, 5.0) == 0.0


class TestRateTransform:
    def test_zero_frequency_gives_total_angle(self, switching):
        val = rate_transform(switching, 0.0)
        assert abs(val - switching.theta_total) <= 1e-14

    def test_conjugate_symmetry(self, switching):
        for p in (3.0, 57.0, 411.0):
            a = rate_transform(switching, p)
            b = rate_transform(switching, -p)
            assert abs(b - np.conj(a)) <= 1e-14

    def test_against_trapezoid_oracle(self, switching):
        ref = trapezoid_rate_transform(switching, 200.0)
        got = rate_transform(switching, 200.0)
        assert abs(got - ref) <= 1e-10

    def test_superpolynomial_decay(self, switching):
        # fitted log-log slope over a decade must beat any fixed power
        ps = np.geomspace(1e2, 1e4, 7)
        mags = np.array([abs(rate_transform(switching, p)) for p in ps])
        mags = np.maximum(mags, 1e-300)
        slope = np.polyfit(np.log(ps), np.log(mags), 1)[0]
        assert slope < -4.0


class TestWindowedTransform:
    def test_zero_frequency_is_accumulated_angle(self, switching):
        for s in (0.3, 0.8, 1.0, 2.0):
            val = windowed_rate_transform(switching, s, 0.0)
            assert abs(val.imag) <= 1e-16
            assert abs(val.real - switching.g(min(s, 1.0))) <= 1e-12

    def test_interior_truncation_decays_like_one_over_tau(self, switching):
        taus = np.geomspace(1e2, 1e4, 9)
        mags = [abs(windowed_rate_transform(switching, 0.5, t)) for t in taus]
        slope = np.polyfit(np.log(taus), np.log(mags), 1)[0]
        assert abs(slope + 1.0) <= 0.15

    def test_full_window_decays_superpolynomially(self, switching):
        taus = np.geomspace(1e2, 1e4, 7)
        mags = np.maximum(
            [abs(windowed_rate_transform(switching, 2.0, t)) for t in taus],
            1e-300)
        slope = np.polyfit(np.log(taus), np.log(mags), 1)[0]
        assert slope <= -4.0

    def test_rejects_negative_time(self, switching):
        with pytest.raises(ConfigurationError):
            windowed_rate_transform(switching, -0.1, 10.0)


class TestBumpTransform:
    @pytest.mark.parametrize("p,ref", sorted(BUMP_REFERENCE.items()))
    def test_frozen_reference_values(self, p, ref):
        assert abs(bump_transform(p) - ref) <= 1e-14

    def test_spec_value_at_zero(self):
        assert abs(bump_transform(0.0) - 0.4439938) <= 1e-6

    def test_even_in_p(self):
        for p in (3.0, 41.5, 230.0):
            assert bump_transform(p) == bump_transform(-p)

    @pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, "1.0"])
    def test_p_rule_names_its_input(self, p):
        # every finite p is in the domain; anything else is refused by name
        with pytest.raises(ConfigurationError, match="p must be finite"):
            bump_transform(p)

    def test_cancellation_floor_guard(self):
        with pytest.raises(PrecisionLimitError):
            bump_transform(800.0)
        bump_transform(600.0)  # still fine

    def test_agrees_with_asymptotic_away_from_zeros(self):
        for p in (50.0, 100.0, 200.0, 400.0):
            if abs(np.cos(BUMP_ASYMPTOTIC.phase(p))) <= 0.3:
                continue
            ratio = bump_transform(p) / bump_transform_asymptotic(p)
            assert abs(ratio - 1.0) <= 2.0 / np.sqrt(p)

    def test_correction_ratio_invariant(self):
        # r(p) = numeric/envelope - cos(phase); sqrt(p) * |r| stays small
        ps = np.linspace(50.0, 400.0, 36)
        worst = 0.0
        for p in ps:
            env = BUMP_ASYMPTOTIC.envelope(p)
            r = bump_transform(p) / env - np.cos(BUMP_ASYMPTOTIC.phase(p))
            worst = max(worst, abs(r) * np.sqrt(p))
        assert worst <= 5.0


class TestAsymptoticForm:
    def test_leading_constant(self):
        assert abs(BUMP_ASYMPTOTIC.amplitude - 2.3215273935524418) <= 1e-12

    def test_envelope_at_400(self):
        assert abs(BUMP_ASYMPTOTIC.envelope(400.0) - 5.349820136e-11) \
            <= 1e-9 * 5.35e-11

    def test_zeros_at_cosine_zeros(self):
        # solve p - sqrt(p) - 3 pi/8 = pi/2 + m pi for a few m
        for m in (10, 25, 60):
            c = 3 * np.pi / 8 + np.pi / 2 + m * np.pi
            root = ((1 + np.sqrt(1 + 4 * c)) / 2) ** 2
            val = bump_transform_asymptotic(root)
            assert abs(val) <= 1e-10 * BUMP_ASYMPTOTIC.envelope(root)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ConfigurationError):
            bump_transform_asymptotic(0.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, np.nan, np.inf])
    def test_p_rule_names_its_input(self, p):
        # finiteness is the p rule's; p > 0 is the asymptotic form's own
        match = "p must be > 0" if np.isfinite(p) else "p must be finite"
        with pytest.raises(ConfigurationError, match=match):
            bump_transform_asymptotic(p)
