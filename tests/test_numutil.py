import numpy as np
import pytest

from friedrichs.errors import ConvergenceFailure, NumericalOverflow
from friedrichs.numutil import operator_norm

from oracles import norm_bracket


def _with_singular_values(sigma, seed=0):
    rng = np.random.default_rng(seed)
    n = len(sigma)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (u * sigma) @ v.conj().T


class TestOperatorNorm:
    def test_near_degenerate_top_pair(self):
        # sigma_2 / sigma_1 = 0.96: single-vector power iteration gains
        # only a factor 0.92 a round and used to stop at its cap short of
        # the norm; the block iteration converges at sigma_5 / sigma_1
        sigma = np.concatenate(([1.0, 0.96, 0.3, 0.25], np.linspace(0.2, 0.01, 36)))
        m = _with_singular_values(sigma)
        assert abs(operator_norm(m) - 1.0) <= 1e-12

    def test_matches_svd_and_warm_start(self):
        rng = np.random.default_rng(4)
        for n in (1, 3, 4, 40):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            nrm, v = operator_norm(m, return_vector=True)
            assert abs(nrm - np.linalg.norm(m, 2)) <= 1e-12 * nrm
            assert abs(operator_norm(m, start=v) - nrm) <= 1e-12 * nrm
        assert operator_norm(np.zeros((5, 5))) == 0.0

    def test_cap_raises_instead_of_returning_an_estimate(self):
        sigma = np.concatenate(([1.0, 0.999, 0.998, 0.997, 0.996],
                                np.full(20, 0.995)))
        with pytest.raises(ConvergenceFailure):
            operator_norm(_with_singular_values(sigma), iters=3)

    def test_non_finite_rejected(self):
        m = np.eye(4, dtype=complex)
        m[1, 2] = np.nan
        with pytest.raises(NumericalOverflow):
            operator_norm(m)


class TestNormBracket:
    def test_brackets_the_norm_from_any_block(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 4, 40):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            v = None
            nrm = np.linalg.norm(m, 2)
            for _ in range(3):
                lo, hi, v = norm_bracket(m, v)
                # lo is a Ritz value; with n <= 4 it is the norm itself
                assert lo <= nrm * (1.0 + 1e-14) and nrm <= hi

    def test_tight_on_rank_two_once_warm(self):
        # interlacing leaves no slack once the block holds the range
        m = _with_singular_values(np.concatenate(([1.0, 0.9], np.zeros(38))))
        lo, hi, v = norm_bracket(m)
        lo, hi, _ = norm_bracket(m, v)
        assert 1.0 - 1e-12 <= lo <= 1.0 <= hi <= 1.0 + 1e-11
