import numpy as np
import pytest

from friedrichs import numutil
from friedrichs.errors import ConvergenceFailure, NumericalOverflow
from friedrichs.numutil import _start_block, block_power_norms, operator_norm

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

    def test_matches_svd(self):
        rng = np.random.default_rng(4)
        for n in (1, 3, 4, 40):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            nrm = operator_norm(m)
            assert abs(nrm - np.linalg.norm(m, 2)) <= 1e-12 * nrm
        assert operator_norm(np.zeros((5, 5))) == 0.0

    def test_cap_raises_instead_of_returning_an_estimate(self, monkeypatch):
        sigma = np.concatenate(([1.0, 0.999, 0.998, 0.997, 0.996],
                                np.full(20, 0.995)))
        monkeypatch.setattr(numutil, "_POWER_ROUNDS", 3)
        with pytest.raises(ConvergenceFailure, match="in 3 rounds"):
            operator_norm(_with_singular_values(sigma))

    def test_non_finite_rejected(self):
        m = np.eye(4, dtype=complex)
        m[1, 2] = np.nan
        with pytest.raises(NumericalOverflow):
            operator_norm(m)


class TestBlockPowerNorms:
    @staticmethod
    def _products(mats):
        return (lambda active, v: mats[active] @ v,
                lambda active, w: mats[active].conj().swapaxes(-1, -2) @ w)

    def test_batch_matches_svd(self):
        # operators leave the batch at different rounds; each norm and
        # Ritz block lands in its own slot
        tops = ([1.0, 0.96, 0.3, 0.25], [2.0, 0.1, 0.1, 0.1], [1.0, 0.5, 0.5, 0.5])
        tail = np.linspace(0.2, 0.01, 36)
        mats = np.stack([_with_singular_values(np.concatenate((top, tail)), seed=i)
                         for i, top in enumerate(tops)])
        start = np.stack([_start_block(40)] * 3)
        sigma, blocks = block_power_norms(*self._products(mats), start)
        np.testing.assert_allclose(sigma, [top[0] for top in tops], rtol=1e-12)
        for m, nrm, v in zip(mats, sigma, blocks):
            assert abs(np.linalg.norm(m @ v[:, 0]) - nrm) <= 1e-12 * nrm

    def test_failure_names_the_unconverged_operator(self, monkeypatch):
        slow = _with_singular_values(np.concatenate(
            ([1.0, 0.999, 0.998, 0.997, 0.996], np.full(20, 0.995))))
        mats = np.stack([np.diag(np.arange(25.0, 0.0, -1.0)), slow])
        start = np.stack([np.eye(25, 4)] * 2)
        monkeypatch.setattr(numutil, "_POWER_ROUNDS", 3)
        with pytest.raises(ConvergenceFailure, match="in 3 rounds for second "):
            block_power_norms(*self._products(mats), start,
                              labels=["first", "second"])


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
