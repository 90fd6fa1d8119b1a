"""Hermitian square root and guarded solves: residual, condition estimate, singular input."""
import numpy as np
import pytest

import ris_lab as rl
from ris_lab.linalg import COND_LIMIT, herm_sqrt, solve_pd


def test_herm_sqrt_of_a_rank_deficient_ris_correlation():
    # lambda/4 spacing at N = 196: R_I has eigenvalues at roundoff, some
    # negative, that the square root clamps
    lam = 0.1
    dims = rl.SystemDimensions.square_ris(m=4, n=196, k=2, m_e=1)
    r = rl.build_ris_correlation(dims, rl.CorrelationSpec(wavelength=lam, d_h=lam / 4,
                                                          d_v=lam / 4))
    assert np.linalg.eigvalsh(r)[0] < 1e-10 * np.linalg.eigvalsh(r)[-1]
    s = herm_sqrt(r)
    assert np.isrealobj(s)
    assert np.max(np.abs(s - s.T)) <= 1e-14 * np.max(np.abs(s))
    assert np.linalg.norm(s @ s - r, 2) <= 1e-9 * np.linalg.norm(r, 2)


def random_hpd(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + n * np.eye(n)


@pytest.mark.parametrize("n", [1, 5, 40])
def test_solve_residual_is_roundoff(n):
    a = random_hpd(n, seed=n)
    rng = np.random.default_rng(100 + n)
    b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    x, _ = solve_pd(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_condition_estimate_is_squared_cholesky_diagonal_ratio():
    a = random_hpd(12, seed=3)
    d = np.abs(np.diag(np.linalg.cholesky(a)))
    _, cond = solve_pd(a, np.eye(12))
    assert cond == pytest.approx((d.max() / d.min()) ** 2, rel=1e-14)
    assert cond <= COND_LIMIT


@pytest.mark.parametrize("a", [
    np.zeros((3, 3)),
    np.diag([1.0, 1.0, 0.0]),
    np.outer([1.0, 2.0j, -1.0], np.conj([1.0, 2.0j, -1.0])),
    np.diag([1.0, -1e-3]),
], ids=["zero", "rank_two", "rank_one", "indefinite"])
def test_singular_input_raises_with_its_condition_number(a):
    with pytest.raises(rl.IllConditionedError) as err:
        solve_pd(a, np.eye(len(a)), name="A")
    assert err.value.cond == np.inf or err.value.cond > 1e12
    assert str(err.value).startswith("A is not positive definite")

