"""Power-split optimizer: the exact derivative and its bisected root."""
import dataclasses

import numpy as np
import pytest

import ris_lab as rl
from ris_lab.power_alloc import optimal_xi, secrecy_derivative
from ris_lab.rates import secrecy_rate

from conftest import make_setup

FIG8 = [(64, 100), (128, 100), (64, 400), (128, 400)]
KAPPAS = [0.0, 0.01, 0.0225]


def terms_for(seed, m=32, n=16, k=3, m_e=2, p_t=10.0, kappa_dl=0.01, **kw):
    _, est, hw, _ = make_setup(seed=seed, m=m, n=n, k=k, m_e=m_e,
                               kappa_dl=kappa_dl, p_t=p_t, **kw)
    return rl.compute_rate_terms(est, hw, k=0)


def fig8_terms(m, n, snr_db=0.0, kappa_t_bs=0.01):
    from ris_lab.experiments import ExperimentConfig, build_setup
    cfg = ExperimentConfig(m=m, n=n, k=10, m_e=4, snr_db=snr_db, kappa_t_bs=kappa_t_bs)
    setup = build_setup(cfg)
    return rl.compute_rate_terms(setup.est, setup.hw, k=0)


def gap_profile(terms, step):
    """Unclipped secrecy gap on the grid step, 2 step, ..., 1: the optimizer's reference.

    Grid points where the bound is invalid (e.g. xi = 1 with an ideal
    transmitter) hold -inf and can never win.
    """
    grid = np.arange(1, int(round(1.0 / step)) + 1) * step
    profile = np.empty_like(grid)
    for i, xi in enumerate(grid):
        try:
            profile[i] = secrecy_rate(terms, float(xi)).gap
        except (rl.BoundInvalidError, rl.InfiniteEveCapacityError):
            profile[i] = -np.inf
    return grid, profile


# --------------------------------------------------------------------------
# derivative
# --------------------------------------------------------------------------

def test_exact_derivative_matches_finite_differences():
    step = 1e-6
    rng = np.random.default_rng(0)
    for trial in range(20):
        terms = terms_for(seed=500 + trial, m=int(rng.integers(24, 48)),
                          k=int(rng.integers(1, 5)),
                          p_t=float(rng.uniform(1.0, 20.0)))
        for xi in np.linspace(0.05, 0.95, 7):
            fd = (secrecy_rate(terms, xi + step).gap
                  - secrecy_rate(terms, xi - step).gap) / (2 * step)
            exact = secrecy_derivative(terms, xi)
            assert exact == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_derivative_sign_change_brackets_the_optimum():
    for m, n in FIG8:
        terms = fig8_terms(m, n)
        assert secrecy_derivative(terms, 0.01) > 0.0
        assert secrecy_derivative(terms, 0.99) < 0.0


# --------------------------------------------------------------------------
# optimal split
# --------------------------------------------------------------------------

def brentq_root(terms):
    from scipy.optimize import brentq
    return brentq(lambda xi: secrecy_derivative(terms, xi), 1e-9, 1.0 - 1e-9,
                  xtol=1e-15)


def test_optimal_xi_matches_brentq():
    for m, n in FIG8:
        for kt in KAPPAS:
            terms = fig8_terms(m, n, kappa_t_bs=kt)
            assert terms.kappa_t_bs == kt
            assert abs(optimal_xi(terms) - brentq_root(terms)) <= 1e-9


def test_optimal_xi_root_branch_selection():
    # the derivative changes sign once on (0, 1), from + to -, and the
    # returned root lies in the grid cell of that sign change
    for m, n in [(64, 100), (128, 400)]:
        terms = fig8_terms(m, n)
        grid = np.linspace(1e-3, 1.0 - 1e-3, 999)
        signs = np.sign([secrecy_derivative(terms, float(xi)) for xi in grid])
        changes = np.flatnonzero(np.diff(signs) != 0)
        assert len(changes) == 1            # exactly one admissible root
        i = int(changes[0])
        assert signs[i] > 0.0 > signs[i + 1]
        assert grid[i] <= optimal_xi(terms) <= grid[i + 1]


def test_optimal_xi_flags_out_of_regime():
    # a small array against its users and Eve, M_E K / M^2 = 0.023, lies
    # outside the small-M_E K/M^2 regime; the exact root needs no flag
    # there and still sits at the brentq root and the grid optimum
    for kt in KAPPAS:
        terms = terms_for(seed=900, m=16, n=16, k=3, m_e=2, kappa_dl=kt)
        assert terms.m_e * terms.k_users / terms.m ** 2 > 0.01
        xi_star = optimal_xi(terms)
        assert isinstance(xi_star, float)
        assert abs(xi_star - brentq_root(terms)) <= 1e-9
        _, profile = gap_profile(terms, 1e-3)
        achieved = max(0.0, secrecy_rate(terms, xi_star).gap)
        assert achieved >= max(0.0, float(np.max(profile))) - 1e-3


def test_optimal_xi_matches_grid_argmax_on_reference_configs():
    for m, n in FIG8:
        terms = fig8_terms(m, n)
        xi_star = optimal_xi(terms)
        grid, profile = gap_profile(terms, 1e-3)
        assert 0.0 < xi_star <= 1.0
        assert abs(xi_star - grid[np.argmax(profile)]) <= 0.02
        # stationarity: the derivative residual is negligible at the root
        ref = secrecy_derivative(terms, 1e-6)
        assert abs(secrecy_derivative(terms, xi_star)) < 1e-6 * abs(ref)


def test_optimal_xi_achieves_grid_optimum():
    for m, n in [(64, 100), (128, 400)]:
        for kt in KAPPAS:
            terms = fig8_terms(m, n, kappa_t_bs=kt)
            _, profile = gap_profile(terms, 1e-3)
            best = max(0.0, float(np.max(profile)))
            achieved = max(0.0, secrecy_rate(terms, optimal_xi(terms)).gap)
            assert achieved >= best - 1e-3


def test_optimal_xi_raises_when_the_gap_is_negative_everywhere():
    terms = fig8_terms(64, 100, snr_db=-10.0)
    _, profile = gap_profile(terms, 1e-3)
    assert np.max(profile) <= 0.0
    with pytest.raises(rl.NoRealRootError):
        optimal_xi(terms)


def test_optimal_xi_rejects_nonpositive_l1():
    terms = fig8_terms(16, 16)                 # K = 10 users on 16 antennas
    assert terms.l1 <= 0.0
    with pytest.raises(rl.BoundInvalidError, match="L1 <= 0"):
        optimal_xi(terms)


# --------------------------------------------------------------------------
# the gap on a grid
# --------------------------------------------------------------------------

def test_grid_profile_unimodal_on_reference_configs():
    for m, n in [(64, 100), (128, 400)]:
        _, profile = gap_profile(fig8_terms(m, n), 1e-2)
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
    grid, profile = gap_profile(terms, 1e-2)
    assert grid[np.argmax(profile)] == pytest.approx(1.0)
    assert optimal_xi(terms) == 1.0
