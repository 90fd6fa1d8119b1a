"""Closed-form rate and secrecy expressions: self-consistency and limits."""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ris_lab as rl

from conftest import make_setup, with_eve_antennas


def rebuilt(stats, est, **fading_changes):
    """Same setup with modified large-scale gains."""
    fading = dataclasses.replace(stats.fading, **fading_changes)
    stats2 = rl.build_channel_statistics(stats.dims, fading, stats.phase_model,
                                         stats.h1, phi=np.pi / 4,
                                         r_b=stats.r_b, r_i=stats.r_i)
    return stats2, rl.ChannelEstimator(stats2, est.pilots)


# --------------------------------------------------------------------------
# Theorem-1 user rate
# --------------------------------------------------------------------------

def test_user_rate_vanishes_without_signal_power(small_setup):
    _, est, hw, _ = small_setup
    rate, s_k, _ = rl.user_rate(rl.compute_rate_terms(est, hw), 1e-12)
    assert rate < 1e-9
    assert s_k < 1e-9


def test_user_rate_hwi_term_linear_in_kappa(small_setup):
    _, est, hw, xi = small_setup
    hw1 = rl.HardwareProfile(p_t=hw.p_t, kappa_t_bs=0.02, kappa_r_ue=0.01)
    hw2 = rl.HardwareProfile(p_t=hw.p_t, kappa_t_bs=0.04, kappa_r_ue=0.02)
    _, _, i1 = rl.user_rate(rl.compute_rate_terms(est, hw1), xi)
    _, _, i2 = rl.user_rate(rl.compute_rate_terms(est, hw2), xi)
    hwi1 = 0.03 * hw.p_t / 16 * est.tr_r[0]
    assert i2 - i1 == pytest.approx(hwi1, rel=1e-9)   # doubling adds one copy


# --------------------------------------------------------------------------
# Theorem-2 eavesdropper bound
# --------------------------------------------------------------------------

def test_eve_bound_requires_masking(small_setup):
    _, est, _, _ = small_setup
    hw0 = rl.HardwareProfile(p_t=10.0)    # ideal transmitter
    terms = rl.compute_rate_terms(est, hw0)
    with pytest.raises(rl.InfiniteEveCapacityError):
        rl.eve_capacity_bound(terms, 1.0)
    with pytest.raises(rl.InfiniteEveCapacityError):
        rl.eve_capacity_no_an(terms)


def test_eve_bound_two_forms_agree(small_setup):
    _, est, hw, xi = small_setup
    for m_e in (1, 2):
        bound = rl.eve_capacity_bound(rl.compute_rate_terms(with_eve_antennas(est, m_e), hw), xi)
        assert abs(bound.c_e_bar - bound.c_e_appendix) <= 1e-9 * bound.c_e_bar


def test_eve_no_an_matches_full_power_special_case(small_setup):
    _, est, hw, _ = small_setup
    terms = rl.compute_rate_terms(est, hw)
    via_theorem = rl.eve_capacity_bound(terms, 1.0).c_e_bar
    direct = rl.eve_capacity_no_an(terms)
    assert abs(via_theorem - direct) <= 1e-9 * direct


def test_eve_no_an_monotone_in_antennas():
    stats, est, hw, _ = make_setup(seed=31, m=48, n=16, k=2, m_e=1)
    vals = [rl.eve_capacity_no_an(rl.compute_rate_terms(with_eve_antennas(est, m_e), hw))
            for m_e in (1, 2, 4, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_eve_no_an_denominator_guard():
    # rank-one Q_E violates [tr Q]^2 > M_E tr(Q^2) for M_E >= 2
    stats, est, hw, _ = make_setup(seed=32, m=12, n=9, k=2, m_e=2)
    est.stats.q_e = np.outer(np.ones(12), np.ones(12)).astype(complex)
    with pytest.raises(rl.BoundInvalidError):
        rl.eve_capacity_no_an(rl.compute_rate_terms(est, hw))


def test_eve_bound_dof_guard():
    # tiny arrays push the matched dof below M_E + 1
    stats, est, hw, xi = make_setup(seed=33, m=8, n=16, k=3, m_e=3)
    with pytest.raises(rl.BoundInvalidError):
        rl.eve_capacity_bound(rl.compute_rate_terms(est, hw), xi)


# --------------------------------------------------------------------------
# secrecy rate: composition vs split parameterization
# --------------------------------------------------------------------------

@settings(max_examples=40, derandomize=True, deadline=None)
@given(m=st.integers(24, 55), k=st.integers(1, 4), m_e=st.integers(1, 3),
       xi=st.floats(0.1, 0.99), p_t=st.floats(1.0, 30.0),
       kappa_dl=st.floats(0.0, 0.02), uncorrelated=st.booleans(),
       seed=st.integers(300, 399))
def test_secrecy_rate_forms_agree_on_random_configs(m, k, m_e, xi, p_t, kappa_dl,
                                                    uncorrelated, seed):
    # uncorrelated configs also drop the uplink distortion: the premise of
    # Prop. 3, whose independent evaluation must then agree as well
    stats, est, hw, _ = make_setup(seed=seed, m=m, n=16, k=k, m_e=m_e,
                                   correlated=not uncorrelated,
                                   kappa_ul=0.0 if uncorrelated else 0.01,
                                   kappa_dl=kappa_dl, p_t=p_t)
    terms = rl.compute_rate_terms(est, hw, k=0)
    try:
        rep = rl.secrecy_rate(terms, xi)
        eve = rl.eve_capacity_bound(terms, xi)
    except rl.BoundInvalidError:
        assume(False)
    scale = max(abs(rep.gap), 1e-6)
    assert abs(rep.gap - rl.secrecy_gap_split(terms, xi)) <= 1e-9 * scale
    assert rep.c_e_bar == eve.c_e_bar
    assert abs(eve.c_e_bar - eve.c_e_appendix) <= 1e-9 * eve.c_e_bar
    if uncorrelated:
        r_u, c_e, r_sec = rl.secrecy_uncorrelated(
            stats.dims, stats.fading, stats.h1, est.pilots.rho, est.pilots.sigma_u2,
            hw, xi, k=0)
        assert abs(r_u - rep.r_k) <= 1e-9 * rep.r_k
        assert abs(c_e - rep.c_e_bar) <= 1e-9 * rep.c_e_bar
        assert abs(r_sec - rep.r_sec) <= 1e-9 * max(rep.r_sec, 1e-9)


def test_secrecy_rate_clipping():
    # strong eavesdropper, weak user: bound exceeds the rate, so zero secrecy
    stats, est, hw, _ = make_setup(seed=41, m=24, n=16, k=3, m_e=3)
    stats2, est2 = rebuilt(stats, est, beta_3=30.0, beta_ie=20.0,
                           beta_2=tuple(0.02 * b for b in stats.fading.beta_2),
                           beta_i=tuple(0.02 * b for b in stats.fading.beta_i))
    terms = rl.compute_rate_terms(est2, hw)
    rep = rl.secrecy_rate(terms, 0.9)
    assert rep.gap < 0.0
    assert rep.r_sec == 0.0
    assert rl.secrecy_gap_split(terms, 0.9) < 0.0


# --------------------------------------------------------------------------
# Propositions 1 and 2: eavesdropper antenna thresholds
# --------------------------------------------------------------------------

def no_an_gap(est, hw, m_e, k=0):
    """Unclipped no-AN secrecy gap at M_E Eve antennas; -inf when the bound is invalid."""
    terms = rl.compute_rate_terms(with_eve_antennas(est, m_e), hw, k=k)
    rate, _, _ = rl.user_rate(terms, 1.0)
    try:
        return rate - rl.eve_capacity_no_an(terms)
    except rl.BoundInvalidError:
        return -np.inf


def make_threshold_setup(seed, m, kt, p_t=100.0):
    stats, est, _, _ = make_setup(seed=seed, m=m, n=16, k=1, m_e=1, kappa_dl=kt,
                                  p_t=p_t, rho=50.0, kappa_ul=0.0)
    stats2, est2 = rebuilt(stats, est,
                           beta_2=tuple(5.0 * b for b in stats.fading.beta_2))
    hw = rl.HardwareProfile(p_t=p_t, kappa_t_bs=kt, kappa_r_ue=kt)
    return est2, hw


def test_prop1_zero_without_transmit_distortion(small_setup):
    _, est, _, _ = small_setup
    hw0 = rl.HardwareProfile(p_t=10.0, kappa_t_bs=0.0, kappa_r_ue=0.01)
    delta, me = rl.max_eve_antennas_no_an(rl.compute_rate_terms(est, hw0))
    assert delta == 0.0 and me == 0


def test_prop1_threshold_brackets_sign_change():
    for seed, m, kt in [(1, 128, 0.0225), (3, 256, 0.01), (4, 128, 0.09)]:
        est, hw = make_threshold_setup(seed, m, kt)
        delta, me_max = rl.max_eve_antennas_no_an(rl.compute_rate_terms(est, hw))
        assert me_max >= 1
        assert no_an_gap(est, hw, me_max) >= 0.0
        assert no_an_gap(est, hw, me_max + 1) < 0.0


def test_prop1_threshold_grows_with_transmit_distortion():
    deltas = []
    for kt in (0.01, 0.0225, 0.04):
        est, hw = make_threshold_setup(7, 128, kt)
        deltas.append(rl.max_eve_antennas_no_an(rl.compute_rate_terms(est, hw))[0])
    assert deltas[0] < deltas[1] < deltas[2]


def test_prop2_threshold_brackets_split_form_sign_change():
    xi_probe = 1e-6   # the AN-protected threshold is the small-split limit
    for seed, m in [(11, 48), (12, 64)]:
        stats, est, hw, _ = make_setup(seed=seed, m=m, n=16, k=3, m_e=1,
                                       kappa_dl=0.01, p_t=10.0)
        delta, me_max = rl.max_eve_antennas_an(rl.compute_rate_terms(est, hw))
        assert 1 <= me_max < m
        terms_lo = rl.compute_rate_terms(with_eve_antennas(est, me_max), hw)
        terms_hi = rl.compute_rate_terms(with_eve_antennas(est, me_max + 1), hw)
        # the threshold is a property of the link, not of the assumed M_E
        assert rl.max_eve_antennas_an(terms_hi) == (delta, me_max)
        assert rl.secrecy_gap_split(terms_lo, xi_probe) > 0.0
        assert rl.secrecy_gap_split(terms_hi, xi_probe) < 0.0


def test_prop2_threshold_monotonicities():
    # the kappa_t_bs benefit shows when the noise floor dominates D (low SNR)
    base = dict(seed=13, m=48, n=16, k=3, m_e=1, p_t=0.05)

    def delta_for(kt, kr):
        _, est, _, _ = make_setup(**base)
        hw = rl.HardwareProfile(p_t=0.05, kappa_t_bs=kt, kappa_r_ue=kr)
        return rl.max_eve_antennas_an(rl.compute_rate_terms(est, hw))[0]

    # decreasing in the user receive distortion, increasing in the BS transmit one
    assert delta_for(0.01, 0.0) > delta_for(0.01, 0.02) > delta_for(0.01, 0.05)
    assert delta_for(0.0, 0.01) < delta_for(0.02, 0.01) < delta_for(0.05, 0.01)


# --------------------------------------------------------------------------
# Proposition 3 and the large-system chain
# --------------------------------------------------------------------------

def uncorrelated_setup(seed=51, m=24, n=64, k=3, m_e=2, rho=10.0, p_t=10.0,
                       xi=0.5, kappa_dl=0.01):
    stats, est, _, _ = make_setup(seed=seed, m=m, n=n, k=k, m_e=m_e,
                                  correlated=False, kappa_ul=0.0, rho=rho,
                                  p_t=p_t, xi=xi, kappa_dl=kappa_dl)
    hw = rl.HardwareProfile(p_t=p_t, kappa_t_bs=kappa_dl, kappa_r_ue=kappa_dl)
    return stats, est, hw, xi


def test_prop3_matches_general_pipeline():
    stats, est, hw, xi = uncorrelated_setup()
    r_u, c_e, r_sec = rl.secrecy_uncorrelated(
        stats.dims, stats.fading, stats.h1, est.pilots.rho, est.pilots.sigma_u2, hw, xi, k=0)
    rep = rl.secrecy_rate(rl.compute_rate_terms(est, hw), xi)
    assert abs(r_u - rep.r_k) <= 1e-9 * rep.r_k
    assert abs(c_e - rep.c_e_bar) <= 1e-9 * rep.c_e_bar
    assert abs(r_sec - rep.r_sec) <= 1e-9 * max(rep.r_sec, 1e-9)


def test_prop3_invariant_to_phase_configuration():
    rng = np.random.default_rng(3)
    vals = []
    for phi in (np.pi / 4, 0.0, rng.uniform(0, 2 * np.pi, 64)):
        stats, est, hw, xi = make_setup(seed=52, m=24, n=64, k=3, m_e=2,
                                        correlated=False, kappa_ul=0.0, phi=phi)
        vals.append(rl.secrecy_uncorrelated(
            stats.dims, stats.fading, stats.h1, est.pilots.rho, est.pilots.sigma_u2,
            hw, xi, k=0)[2])
    assert np.ptp(vals) < 1e-10 * max(vals)


def make_large_n_inputs(m=16, n=4096, k=6, m_e=4, seed=3, ris_gain=1.0):
    dims = rl.SystemDimensions.square_ris(m=m, n=n, k=k, m_e=m_e)
    spec = rl.CorrelationSpec()
    b1 = 0.028
    h1 = rl.build_los_channel(dims, spec, b1, np.random.default_rng(seed))
    rng = np.random.default_rng(0)
    fading = rl.LargeScaleFading(b1, tuple(ris_gain * rng.uniform(0.02, 0.1, k)),
                                 tuple(rng.uniform(0.5, 1.5, k)), 1.0, 0.05)
    hw = rl.HardwareProfile(p_t=1.0, kappa_t_bs=0.01, kappa_r_ue=0.01)
    return dims, fading, h1, hw, 0.5


def test_large_n_form_matches_prop3_at_big_ris():
    dims, fading, h1, hw, xi = make_large_n_inputs()
    _, _, exact = rl.secrecy_uncorrelated(dims, fading, h1, 1.0, 1.0, hw, xi, k=0)
    _, _, approx = rl.secrecy_large_n(
        fading.beta_2[0], fading.beta_i[0], fading.beta_1, dims.n, dims.m, dims.k,
        dims.m_e, xi, 1.0, dims.tau_u, 1.0, hw)
    assert abs(approx - exact) / exact < 0.05


def test_large_n_form_reaches_asymptotic_limit():
    dims, fading, h1, hw, xi = make_large_n_inputs(m=256, n=10_000, k=6, m_e=4)
    _, _, big_n = rl.secrecy_large_n(
        fading.beta_2[0], fading.beta_i[0], fading.beta_1, dims.n, dims.m, dims.k,
        dims.m_e, xi, 1.0, dims.tau_u, 1.0, hw)
    _, _, limit = rl.secrecy_limit(dims.m, dims.k, dims.m_e, xi, hw.kappa_t_bs, hw.kappa_r_ue)
    assert abs(big_n - limit) / limit < 0.05


def test_power_scaled_formula_reduction():
    # with ideal hardware the user branch collapses to the stated fraction
    e_u, m, k, m_e, bi, b1, xi = 100.0, 64, 6, 4, 0.05, 0.03, 0.5
    r_u, _, _ = rl.secrecy_power_scaled(e_u, m, k, m_e, bi, b1, xi, 0.0, 0.0, 1.0)
    num = xi * e_u * m * bi * b1 / k
    den = xi * e_u * (k - 1) * bi * b1 / k + 1.0
    assert r_u == pytest.approx(np.log2(1 + num / den), rel=1e-12)


def test_power_scaled_convergence_of_full_pipeline():
    # exact uncorrelated pipeline under P_t = E_u/N approaches the limit;
    # a RIS-favorable cascade keeps the secrecy rate positive in this regime
    dims, fading, h1, hw, _ = make_large_n_inputs(m=64, n=4096, ris_gain=6.0)
    e_u = 100.0
    hw_scaled = dataclasses.replace(hw, p_t=e_u / dims.n)
    _, _, exact = rl.secrecy_uncorrelated(dims, fading, h1, 1.0, 1.0, hw_scaled, 0.5, k=0)
    _, _, limit = rl.secrecy_power_scaled(e_u, dims.m, dims.k, dims.m_e,
                                          fading.beta_i[0], fading.beta_1, 0.5,
                                          hw.kappa_t_bs, hw.kappa_r_ue, hw.sigma_k2)
    assert exact > 0 and limit > 0
    assert abs(exact - limit) / limit < 0.10


def test_limit_rate_scales_log2_in_antennas():
    for m in (64, 128, 256):
        r1, _, s1 = rl.secrecy_limit(m, 6, 4, 0.5, 0.0, 0.0)
        r2, _, s2 = rl.secrecy_limit(2 * m, 6, 4, 0.5, 0.0, 0.0)
        assert s2 - s1 == pytest.approx(1.0, abs=0.1)


def test_limit_rate_guards():
    with pytest.raises(rl.InvalidParameterError):
        rl.secrecy_limit(64, 6, 4, 1.0, 0.0, 0.0)
    with pytest.raises(rl.InvalidParameterError):
        rl.secrecy_power_scaled(100.0, 64, 6, 4, 0.05, 0.03, 1.0, 0.0, 0.0, 1.0)


# --------------------------------------------------------------------------
# monotonicity properties
# --------------------------------------------------------------------------

def test_secrecy_insensitive_to_phase_noise_at_half_wavelength():
    # half-wavelength sinc correlation is near identity, so the
    # deviation-factor blend leaves every covariance (and the secrecy
    # rate at the reference scenario) essentially unchanged
    from ris_lab.experiments import ExperimentConfig, _closed_secrecy, _rate_terms, build_setup

    cfg = ExperimentConfig(m=64, n=100, k=6, m_e=4, snr_db=0.0, kappa_t_ue=0.0,
                           kappa_r_bs=0.0, kappa_t_bs=0.0, kappa_r_ue=0.0)
    vals = []
    for sp2 in (0.0, 0.1, 1.0):
        setup = build_setup(cfg.replace(sigma_p2=sp2))
        vals.append(_closed_secrecy(_rate_terms(setup), setup.xi)[2])
    assert vals[0] > 0
    assert np.ptp(vals) / vals[0] < 0.03


def test_secrecy_degrades_with_eve_antennas():
    stats, est, hw, xi = make_setup(seed=62, m=48, n=16, k=3, m_e=1, p_t=10.0)
    vals = [rl.secrecy_rate(rl.compute_rate_terms(with_eve_antennas(est, m_e), hw), xi).r_sec
            for m_e in (1, 2, 3)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
