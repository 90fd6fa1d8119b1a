"""Monte Carlo oracle: reproducibility, term validation, bound property."""
import dataclasses
import os
import warnings

import numpy as np
import pytest

import ris_lab as rl
from ris_lab.linalg import herm_trace_prod
from ris_lab.montecarlo import worker_count

from conftest import make_setup


def closed_form_terms(est, k):
    """Appendix-level closed forms for the five SINR expectations of user k."""
    stats = est.stats
    m, k_users = stats.dims.m, stats.dims.k
    trp = est.pilots.tau_u * est.pilots.rho
    sig = trp * est.tr_rpr[k]
    inter = sum(herm_trace_prod(stats.r_k[k], est.est_cov[i]) / (trp * est.tr_rpr[i])
                for i in range(k_users) if i != k)
    var = herm_trace_prod(est.c[k], est.est_cov[k]) / (trp * est.tr_rpr[k])
    an = (m - k_users) / m * float(np.real(np.trace(est.c[k])))
    return sig, inter, var, an


def test_thread_count_does_not_change_results(small_setup):
    _, est, hw, alloc = small_setup
    plan = rl.TrialPlan(n_blocks=1500, master_seed=99)   # spans several chunks
    results = {}
    for threads in ("1", "7"):
        os.environ["RIS_LAB_THREADS"] = threads
        try:
            results[threads] = (rl.estimate_user_rate(est, hw, alloc, plan),
                                rl.estimate_eve_capacity(est, hw, alloc, plan),
                                rl.estimate_secrecy(est, hw, alloc, plan))
        finally:
            del os.environ["RIS_LAB_THREADS"]
    (a, eve_a, sec_a), (b, eve_b, sec_b) = results["1"], results["7"]
    for field in ("rate", "signal", "interference", "variance", "an_leakage", "hwi"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert np.array_equal(eve_a.c_e, eve_b.c_e)
    assert np.array_equal(eve_a.c_e_se, eve_b.c_e_se)
    for field in ("rate", "rate_se", "c_e", "c_e_se", "r_sec", "r_sec_se"):
        assert np.array_equal(getattr(sec_a, field), getattr(sec_b, field))


def test_secrecy_user_half_equals_user_rate(small_setup):
    # one pass draws the user blocks on the user-rate stream, so every
    # user-side field is bit-identical to the term-by-term oracle
    _, est, hw, alloc = small_setup
    plan = rl.TrialPlan(n_blocks=700, master_seed=12)    # two chunks
    user = rl.estimate_user_rate(est, hw, alloc, plan)
    sec = rl.estimate_secrecy(est, hw, alloc, plan)
    compared = 0
    for field in dataclasses.fields(user):
        want = getattr(user, field.name)
        if want is None or field.name == "meta":
            continue
        assert np.array_equal(getattr(sec, field.name), want), field.name
        compared += 1
    assert compared == 19
    assert sec.meta["seed"] == user.meta["seed"] == 12
    assert sec.r_sec == np.mean(np.maximum(0.0, sec.rate - sec.c_e))


def test_secrecy_standard_error_is_calibrated(small_setup):
    # the spread of r_sec over independent master seeds must match the
    # delta-method SE. With 40 seeds the sample SD / true SE follows
    # chi_39 / sqrt(39): the band [0.7, 1.4] lies 2.7 and 3.5 of its SDs
    # (0.11) from 1. The users' secrecy gaps stay far above zero, so the
    # clip the SE ignores never acts.
    _, est, hw, alloc = small_setup
    values, ses = [], []
    for seed in range(1000, 1040):
        orc = rl.estimate_secrecy(est, hw, alloc, rl.TrialPlan(200, master_seed=seed))
        assert np.all(orc.rate - orc.c_e > 10 * orc.r_sec_se)
        values.append(orc.r_sec)
        ses.append(orc.r_sec_se)
    ratio = np.std(values, ddof=1) / np.median(ses)
    assert 0.7 < ratio < 1.4


def test_single_block_standard_errors_are_infinite(small_setup):
    _, est, hw, alloc = small_setup
    plan = rl.TrialPlan(n_blocks=1, master_seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nmse = rl.estimate_nmse(est, plan)
        user = rl.estimate_user_rate(est, hw, alloc, plan)
        eve = rl.estimate_eve_capacity(est, hw, alloc, plan)
        sec = rl.estimate_secrecy(est, hw, alloc, plan)
    assert np.all(np.isfinite(nmse.nmse)) and np.all(nmse.nmse_se == np.inf)
    assert np.isfinite(sec.r_sec)
    for se in (user.rate_se, user.signal_se, user.interference_se, eve.c_e_se,
               sec.r_sec_se):
        assert np.all(se == np.inf)


def test_worker_count_env_parsing():
    os.environ["RIS_LAB_THREADS"] = "3"
    try:
        assert worker_count() == 3
        os.environ["RIS_LAB_THREADS"] = "zebra"
        with pytest.raises(rl.InvalidParameterError):
            worker_count()
    finally:
        del os.environ["RIS_LAB_THREADS"]


def test_standard_errors_shrink_with_block_count(small_setup):
    _, est, hw, alloc = small_setup
    small = rl.estimate_user_rate(est, hw, alloc, rl.TrialPlan(4000, master_seed=5))
    big = rl.estimate_user_rate(est, hw, alloc, rl.TrialPlan(16000, master_seed=5))
    ratio = small.interference_se / big.interference_se
    # quadrupling the blocks should halve the standard error
    assert np.all(ratio > 1.5) and np.all(ratio < 2.7)


def test_terms_match_closed_forms_with_ideal_uplink():
    # with ideal uplink hardware every independence step behind the closed
    # forms is exact, so each term estimate must sit within 3 sigma
    stats, est, hw, alloc = make_setup(seed=8, m=24, n=16, k=3, m_e=2,
                                       correlated=False, kappa_ul=0.0,
                                       kappa_dl=0.01, p_t=10.0)
    orc = rl.estimate_user_rate(est, hw, alloc, rl.TrialPlan(20000, master_seed=17))
    for k in range(3):
        sig, inter, var, an = closed_form_terms(est, k)
        hwi = (hw.kappa_t_bs + hw.kappa_r_ue) * alloc.p_t / 24 * est.tr_r[k]
        assert abs(orc.signal[k] - sig) < 3 * orc.signal_se[k]
        assert abs(orc.interference[k] - inter) < 3 * orc.interference_se[k]
        assert abs(orc.variance[k] - var) < 3 * orc.variance_se[k]
        assert abs(orc.an_leakage[k] - an) < 3 * orc.an_leakage_se[k]
        assert abs(orc.hwi[k] - hwi) < 3 * orc.hwi_se[k]
        rate_cf, _, _ = rl.user_rate(est, hw, alloc, k=k)
        assert abs(orc.rate[k] - rate_cf) / rate_cf < 0.05


def test_distortion_couplings_bias_the_closed_forms():
    # documented limitation: with uplink distortion the estimate/channel
    # fourth-moment couplings (neglected by the closed forms) push the
    # interference and uncertainty terms beyond Monte Carlo noise
    stats, est, hw, alloc = make_setup(seed=8, m=24, n=16, k=3, m_e=2,
                                       correlated=False, kappa_ul=0.01,
                                       kappa_dl=0.01, p_t=10.0)
    orc = rl.estimate_user_rate(est, hw, alloc, rl.TrialPlan(20000, master_seed=17))
    _, inter, var, _ = closed_form_terms(est, 0)
    assert orc.variance[0] - var > 3 * orc.variance_se[0]
    # the rate itself stays accurate: the biased terms are small in I_k
    rate_cf, _, _ = rl.user_rate(est, hw, alloc, k=0)
    assert abs(orc.rate[0] - rate_cf) / rate_cf < 0.05


def test_hardened_vs_realized_receive_distortion(small_setup):
    # the per-realization receive-distortion power carries the MRT beam
    # term, roughly xi M / K times the hardened value used by the theory
    _, est, hw, alloc = small_setup
    orc = rl.estimate_user_rate(est, hw, alloc, rl.TrialPlan(4000, master_seed=3))
    hardened_r = hw.kappa_r_ue * alloc.p_t / 16 * est.tr_r[0] * (
        orc.hwi[0] / ((hw.kappa_t_bs + hw.kappa_r_ue) * alloc.p_t / 16 * est.tr_r[0]))
    assert orc.hwi_r_realized[0] > 2.0 * hw.kappa_r_ue * alloc.p_t / 16 * est.tr_r[0]
    assert orc.rate_raw[0] < orc.rate[0]


def test_nmse_oracle_reproducible(small_setup):
    _, est, _, _ = small_setup
    a = rl.estimate_nmse(est, rl.TrialPlan(3000, master_seed=21))
    b = rl.estimate_nmse(est, rl.TrialPlan(3000, master_seed=21))
    assert np.array_equal(a.nmse, b.nmse)
    assert np.all(a.nmse_se > 0)


# --------------------------------------------------------------------------
# eavesdropper oracle
# --------------------------------------------------------------------------

def test_eve_capacity_below_bound(small_setup):
    _, est, hw, alloc = small_setup
    orc = rl.estimate_eve_capacity(est, hw, alloc, rl.TrialPlan(8000, master_seed=31))
    for k in range(3):
        bound = rl.eve_capacity_bound(est, hw, alloc, m_e=2, k=k).c_e_bar
        assert orc.c_e[k] <= bound + 3 * orc.c_e_se[k]


def test_eve_gap_shrinks_with_antennas():
    gaps = []
    for m in (16, 32, 64):
        stats, est, hw, alloc = make_setup(seed=55, m=m, n=16, k=2, m_e=2,
                                           p_t=10.0, kappa_dl=0.01)
        orc = rl.estimate_eve_capacity(est, hw, alloc, rl.TrialPlan(6000, master_seed=7))
        bound = rl.eve_capacity_bound(est, hw, alloc, m_e=2, k=0).c_e_bar
        gaps.append(bound - orc.c_e[0])
    assert gaps[0] > gaps[-1]


def test_eve_rank_one_reduction():
    # M_E = 1 with pure AN: gamma_E = p |f|^2 / (q ||V^H h_E||^2)
    stats, est, hw, alloc = make_setup(seed=56, m=12, n=9, k=2, m_e=1,
                                       kappa_dl=0.0, p_t=10.0)
    hw0 = rl.HardwareProfile(kappa_t_ue=0.01, kappa_r_bs=0.01,
                             phase_noise=stats.phase_model)
    rng = np.random.default_rng(2)
    draws = rl.sample_realizations(stats, rng, 2000)
    y = rl.simulate_pilot_phase(draws["h"], stats, est.pilots, rng)
    h_hat = est.estimate(y)
    w = rl.mrt_precoder(h_hat, est)
    from ris_lab.precoding import null_space_an_batch
    v = null_space_an_batch(h_hat)
    h_e = draws["h_e"]
    f = np.einsum("bme,bmk->bek", h_e.conj(), w)[:, 0, 0]
    vh = np.einsum("bmj,bme->bje", v.conj(), h_e)[:, :, 0]
    gamma_manual = alloc.p * np.abs(f) ** 2 / (alloc.q * np.sum(np.abs(vh) ** 2, axis=1))
    manual = float(np.mean(np.log2(1.0 + gamma_manual)))

    orc = rl.estimate_eve_capacity(est, hw0, alloc, rl.TrialPlan(2000, master_seed=77))
    assert abs(orc.c_e[0] - manual) < 5 * orc.c_e_se[0] + 0.05 * manual


def test_eve_singular_corner_regularized():
    stats, est, _, _ = make_setup(seed=57, m=12, n=9, k=2, m_e=1, kappa_dl=0.0)
    hw0 = rl.HardwareProfile(kappa_t_ue=0.01, kappa_r_bs=0.01,
                             phase_noise=stats.phase_model)
    full = rl.PowerAllocation(p_t=10.0, xi=1.0, k=2, m=12)   # q = 0, kappa_t = 0
    orc = rl.estimate_eve_capacity(est, hw0, full, rl.TrialPlan(500, master_seed=1))
    assert orc.meta["sigma_e2"] == pytest.approx(1e-12 * 10.0)
    assert np.all(np.isfinite(orc.c_e))
    assert np.all(orc.c_e > 10.0)   # essentially unmasked: huge capacity


# --------------------------------------------------------------------------
# Wishart moment matching
# --------------------------------------------------------------------------

def assert_isotropic(q_e):
    """Q_E = c I for some c > 0, to roundoff."""
    c = float(np.real(q_e[0, 0]))
    assert c > 0
    assert np.allclose(q_e, c * np.eye(q_e.shape[0]), rtol=0.0, atol=1e-12 * c)


def test_wishart_moments_pure_an_corner():
    # kappa_t = 0 and isotropic Q_E: X is exactly a scaled Wishart matrix.
    # R_B = R_I = I and an orthogonal-row bridge make Q_E a multiple of I
    # and leave V independent of H_E; the RIS path and phase noise stay on.
    stats, est, _, alloc = make_setup(seed=58, m=24, n=36, k=2, m_e=2,
                                      correlated=False, p_t=10.0, bridge="dft")
    hw0 = rl.HardwareProfile(kappa_t_ue=0.01, kappa_r_bs=0.01,
                             phase_noise=stats.phase_model)
    from ris_lab.rates import wishart_match
    q_e = est.stats.q_e
    assert_isotropic(q_e)
    tr_q = float(np.real(np.trace(q_e)))
    tr_q2 = herm_trace_prod(q_e, q_e)
    phi_w, eta_w = wishart_match(tr_q, tr_q2, alloc.q, 0.0, alloc.p_t, 24, 2)
    mom = rl.estimate_wishart_moments(est, hw0, alloc, rl.TrialPlan(12000, master_seed=3))
    assert abs(mom.tr_x_over_me - eta_w * phi_w) < 3 * mom.tr_x_over_me_se
    assert abs(mom.offdiag_m2 - eta_w * phi_w ** 2) < 3 * mom.offdiag_m2_se


def test_wishart_first_moment_with_transmit_distortion():
    # isotropic Q_E as above; E{diag T} = P_t/M I then makes the matched
    # first moment exact with transmit distortion too
    stats, est, hw, alloc = make_setup(seed=59, m=24, n=36, k=2, m_e=2,
                                       correlated=False, kappa_dl=0.01, p_t=10.0,
                                       bridge="dft")
    from ris_lab.rates import wishart_match
    q_e = est.stats.q_e
    assert_isotropic(q_e)
    tr_q = float(np.real(np.trace(q_e)))
    tr_q2 = herm_trace_prod(q_e, q_e)
    phi_w, eta_w = wishart_match(tr_q, tr_q2, alloc.q, hw.kappa_t_bs, alloc.p_t, 24, 2)
    mom = rl.estimate_wishart_moments(est, hw, alloc, rl.TrialPlan(12000, master_seed=9))
    assert abs(mom.tr_x_over_me - eta_w * phi_w) < 3 * mom.tr_x_over_me_se


@pytest.mark.parametrize("seed, kappa_t_bs, master_seed", [(58, 0.0, 3), (59, 0.01, 9)])
def test_cascade_anisotropy_biases_the_wishart_match(seed, kappa_t_bs, master_seed):
    # documented limitation: with the random-bearing bridge the rank-N
    # cascade keeps Q_E anisotropic even without R_B and R_I. The users
    # share that cascade, so the AN null space V avoids Q_E's dominant
    # subspace and E{tr X} falls below the isotropic match; the bound on
    # Eve's capacity still holds
    stats, est, _, alloc = make_setup(seed=seed, m=24, n=16, k=2, m_e=2,
                                      correlated=False, p_t=10.0)
    hw = rl.HardwareProfile(kappa_t_ue=0.01, kappa_r_bs=0.01, kappa_t_bs=kappa_t_bs,
                            phase_noise=stats.phase_model)
    from ris_lab.precoding import null_space_an_batch
    from ris_lab.rates import wishart_match
    q_e = est.stats.q_e
    tr_q = float(np.real(np.trace(q_e)))
    tr_q2 = herm_trace_prod(q_e, q_e)
    phi_w, eta_w = wishart_match(tr_q, tr_q2, alloc.q, kappa_t_bs, alloc.p_t, 24, 2)
    plan = rl.TrialPlan(12000, master_seed=master_seed)
    mom = rl.estimate_wishart_moments(est, hw, alloc, plan)
    assert eta_w * phi_w - mom.tr_x_over_me > 3 * mom.tr_x_over_me_se

    # E{tr X | V, T}/M_E = q tr(V^H Q_E V) + kappa_t tr(diag(T) Q_E)
    rng = np.random.default_rng(4)
    draws = rl.sample_realizations(stats, rng, 4000)
    y = rl.simulate_pilot_phase(draws["h"], stats, est.pilots, rng)
    h_hat = est.estimate(y)
    w = rl.mrt_precoder(h_hat, est)
    v = null_space_an_batch(h_hat)
    an = np.real(np.einsum("bmj,mn,bnj->b", v.conj(), q_e, v))
    diag_t = (alloc.p * np.sum(np.abs(w) ** 2, axis=2)
              + alloc.q * np.sum(np.abs(v) ** 2, axis=2))
    cond = alloc.q * an + kappa_t_bs * diag_t @ np.real(np.diag(q_e))
    cond_se = np.std(cond, ddof=1) / np.sqrt(cond.size)
    assert abs(mom.tr_x_over_me - np.mean(cond)) < 3 * np.hypot(mom.tr_x_over_me_se, cond_se)

    orc = rl.estimate_eve_capacity(est, hw, alloc, plan)
    for k in range(2):
        bound = rl.eve_capacity_bound(est, hw, alloc, m_e=2, k=k).c_e_bar
        assert bound >= orc.c_e[k] - 3 * orc.c_e_se[k]
