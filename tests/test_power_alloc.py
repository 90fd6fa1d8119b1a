"""Power-split optimizer: derivatives, quadratic roots, grid search."""
import dataclasses

import numpy as np
import pytest

import ris_lab as rl
from ris_lab.power_alloc import (
    _quadratic_constants,
    grid_search_xi,
    optimal_xi,
    secrecy_derivative,
    secrecy_derivative_exact,
)
from ris_lab.rates import secrecy_gap_split

from conftest import make_setup


def terms_for(seed, m=32, n=16, k=3, m_e=2, p_t=10.0, kappa_dl=0.01, **kw):
    _, est, hw, _ = make_setup(seed=seed, m=m, n=n, k=k, m_e=m_e,
                               kappa_dl=kappa_dl, p_t=p_t, **kw)
    return rl.compute_rate_terms(est, hw, k=0)


def fig8_terms(m, n, snr_db=0.0):
    from ris_lab.experiments import ExperimentConfig, build_setup
    cfg = ExperimentConfig(m=m, n=n, k=10, m_e=4, snr_db=snr_db)
    setup = build_setup(cfg)
    return rl.compute_rate_terms(setup.est, setup.hw, k=0)


# --------------------------------------------------------------------------
# derivatives
# --------------------------------------------------------------------------

def test_exact_derivative_matches_finite_differences():
    step = 1e-6
    rng = np.random.default_rng(0)
    for trial in range(20):
        terms = terms_for(seed=500 + trial, m=int(rng.integers(24, 48)),
                          k=int(rng.integers(1, 5)),
                          p_t=float(rng.uniform(1.0, 20.0)))
        for xi in np.linspace(0.05, 0.95, 7):
            fd = (secrecy_gap_split(terms, xi + step)
                  - secrecy_gap_split(terms, xi - step)) / (2 * step)
            exact = secrecy_derivative_exact(terms, xi)
            assert exact == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_approximate_derivative_close_to_exact_for_large_arrays():
    terms = fig8_terms(m=256, n=100)
    assert terms.m_e * terms.k_users / terms.m ** 2 < 0.01
    for xi in np.linspace(0.1, 0.9, 9):
        exact = secrecy_derivative_exact(terms, xi)
        approx = secrecy_derivative(terms, xi)
        assert abs(approx - exact) <= 0.02 * abs(exact)


def test_derivative_sign_change_brackets_the_optimum():
    for m, n in [(64, 100), (128, 100), (64, 400), (128, 400)]:
        terms = fig8_terms(m, n)
        assert secrecy_derivative(terms, 0.01) > 0.0
        assert secrecy_derivative(terms, 0.99) < 0.0


# --------------------------------------------------------------------------
# closed-form optimum
# --------------------------------------------------------------------------

def test_optimal_xi_matches_grid_argmax_on_reference_configs():
    for m, n in [(64, 100), (128, 100), (64, 400), (128, 400)]:
        terms = fig8_terms(m, n)
        sol = optimal_xi(terms)
        xi_hat, _, _ = grid_search_xi(terms, 1e-3)
        assert sol.valid and sol.in_regime
        assert 0.0 < sol.xi_star <= 1.0
        assert abs(sol.xi_star - xi_hat) <= 0.02
        # stationarity: the derivative residual is negligible at the root
        ref = secrecy_derivative(terms, 1e-6)
        assert abs(sol.derivative_at_solution) < 1e-6 * abs(ref)


def test_optimal_xi_root_branch_selection():
    for m, n in [(64, 100), (128, 400)]:
        terms = fig8_terms(m, n)
        a, b, c = _quadratic_constants(terms)
        disc = b * b - 4.0 * a * c
        assert disc > 0.0
        roots = sorted([(b - np.sqrt(disc)) / (2 * a), (b + np.sqrt(disc)) / (2 * a)])
        inside = [r for r in roots if 0.0 < r <= 1.0]
        assert len(inside) == 1            # exactly one admissible root
        assert optimal_xi(terms).xi_star == pytest.approx(inside[0], rel=1e-12)


def test_optimal_xi_achieves_grid_optimum():
    for m, n in [(64, 100), (128, 400)]:
        terms = fig8_terms(m, n)
        sol = optimal_xi(terms)
        _, grid, profile = grid_search_xi(terms, 1e-3)
        best = float(np.max(profile))
        achieved = max(0.0, secrecy_gap_split(terms, sol.xi_star))
        assert achieved >= best - 1e-3


def test_optimal_xi_flags_out_of_regime():
    terms = terms_for(seed=900, m=16, n=16, k=3, m_e=2)   # M_E K / M^2 = 0.023
    sol = optimal_xi(terms)
    assert not sol.in_regime
    assert "grid_search_xi" in sol.note


# --------------------------------------------------------------------------
# grid search
# --------------------------------------------------------------------------

def test_grid_profile_unimodal_on_reference_configs():
    for m, n in [(64, 100), (128, 400)]:
        _, grid, profile = grid_search_xi(fig8_terms(m, n), 1e-2)
        pos = profile[profile > 0]
        rises = np.sign(np.diff(pos))
        switches = int(np.sum(np.abs(np.diff(rises)) > 0))
        assert switches <= 1               # single interior maximum


def test_grid_argmax_full_power_without_eavesdropper():
    # the noise-free eavesdropper bound is invariant to her path-gain
    # scale, so 'no eavesdropper' means M_E = 0: every bound constant
    # vanishes and all power goes to data. A system needs M_E >= 1, so the
    # M_E = 0 constants are set on the terms of the M_E = 1 setup.
    _, est, hw, _ = make_setup(seed=71, m=32, n=16, k=3, m_e=1, p_t=10.0,
                               kappa_dl=0.01)
    terms = rl.compute_rate_terms(est, hw, k=0)
    terms = dataclasses.replace(terms, m_e=0, a1=0.0, a3=0.0, a4=0.0, a5=0.0,
                                l1=terms.tr_q ** 2)
    xi_hat, _, _ = grid_search_xi(terms, 1e-2)
    assert xi_hat == pytest.approx(1.0)


def test_grid_argmax_stable_under_refinement():
    terms = fig8_terms(64, 100)
    coarse, _, _ = grid_search_xi(terms, 1e-2)
    fine, _, _ = grid_search_xi(terms, 1e-3)
    assert abs(coarse - fine) <= 1e-2


def test_grid_step_domain():
    terms = fig8_terms(64, 100)
    with pytest.raises(rl.InvalidParameterError):
        grid_search_xi(terms, 0.2)
    with pytest.raises(rl.InvalidParameterError):
        grid_search_xi(terms, 0.0)
