"""LMMSE estimator: pilot statistics, error covariance, asymptotics."""
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ris_lab as rl
from ris_lab.errors import IllConditionedWarning

from conftest import (
    draw_channels,
    error_covariance,
    estimate_covariance,
    make_setup,
    max_asymmetry,
    min_relative_eigenvalue,
    pilot_matrix,
    time_domain_pilot_phase,
)


def test_pilot_matrix_orthogonal_unit_modulus():
    # the time-domain reference's pilots: the orthogonality the despread draw assumes
    phi = pilot_matrix(8, 5)
    assert np.allclose(np.abs(phi), 1.0)
    gram = phi.conj().T @ phi
    assert np.max(np.abs(gram - 8.0 * np.eye(5))) < 1e-10


def test_build_psi_ideal_hardware_reduction(small_setup):
    stats, est, _, _ = small_setup
    pil = rl.PilotConfig(tau_u=3, rho=7.0, sigma_u2=0.5)
    psi = rl.build_psi(stats.r_k, pil)
    for k in range(stats.dims.k):
        expect = 3 * 7.0 * stats.r_k[k] + 0.5 * np.eye(stats.dims.m)
        assert np.allclose(psi[k], expect)


def test_build_psi_diagonal_fixed_point(small_setup):
    # when every R_i is diagonal the Hadamard term equals the full sum
    stats = small_setup[0]
    rng = np.random.default_rng(5)
    # R_i = beta_2[i] R_B + beta_i[i] blend: a diagonal R_B and blend make
    # every R_i diagonal, and diagonal cascade congruences a diagonal blend
    r_b = np.diag(rng.uniform(0.5, 2.0, stats.dims.m))
    cascade = np.diag(rng.uniform(0.5, 2.0, stats.dims.m)).astype(complex)
    diag_stats = dataclasses.replace(make_setup(seed=9)[0], r_b=r_b, cascade=(cascade, cascade))
    assert all(np.array_equal(r, np.diag(np.diag(r))) for r in diag_stats.r_k)
    with_r = rl.PilotConfig(tau_u=3, rho=2.0, sigma_u2=1.0, kappa_t_ue=0.0, kappa_r_bs=0.07)
    with_t = rl.PilotConfig(tau_u=3, rho=2.0, sigma_u2=1.0, kappa_t_ue=0.07, kappa_r_bs=0.0)
    psi_r = rl.build_psi(diag_stats.r_k, with_r)
    psi_t = rl.build_psi(diag_stats.r_k, with_t)
    for a, b in zip(psi_r, psi_t):
        assert np.allclose(a, b)


def test_psi_hermitian_positive_definite(small_setup):
    _, est, _, _ = small_setup
    for psi in rl.build_psi(est.stats.r_k, est.pilots):
        assert max_asymmetry(psi) < 1e-12
        assert np.linalg.eigvalsh(psi).min() > 0


# random small configurations (M > K, as null-space AN needs), any RIS grid shape
setup_params = dict(
    seed=st.integers(500, 599), m=st.integers(5, 24), n=st.sampled_from([4, 9, 12, 16, 25]),
    k=st.integers(1, 4), correlated=st.booleans(), sigma_p2=st.floats(0.0, 0.5),
    kappa_ul=st.floats(0.0, 0.05), sigma_u2=st.floats(0.1, 2.0))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(rho=st.floats(1e-2, 1e3), **setup_params)
def test_psi_hermitian_positive_definite_on_random_configs(rho, seed, m, n, k, correlated,
                                                           sigma_p2, kappa_ul, sigma_u2):
    stats = make_setup(seed=seed, m=m, n=n, k=k, m_e=1, correlated=correlated,
                       sigma_p2=sigma_p2, kappa_ul=kappa_ul)[0]
    pilots = rl.PilotConfig(tau_u=k, rho=rho, sigma_u2=sigma_u2,
                            kappa_t_ue=kappa_ul, kappa_r_bs=kappa_ul)
    for psi in rl.build_psi(stats.r_k, pilots):
        w = np.linalg.eigvalsh(psi)
        assert max_asymmetry(psi) <= 1e-12 * w[-1]
        # Psi_k is a PSD sum plus sigma_u^2 I, so no eigenvalue is below sigma_u^2
        assert w[0] >= sigma_u2 - 1e-10 * w[-1]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(rhos=st.lists(st.floats(1e-2, 1e5), min_size=2, max_size=5), **setup_params)
def test_nmse_in_unit_interval_and_nonincreasing_in_rho(rhos, seed, m, n, k, correlated,
                                                        sigma_p2, kappa_ul, sigma_u2):
    stats = make_setup(seed=seed, m=m, n=n, k=k, m_e=1, correlated=correlated,
                       sigma_p2=sigma_p2, kappa_ul=kappa_ul)[0]
    prev = None
    for rho in sorted(rhos):
        est = rl.ChannelEstimator(stats, rl.PilotConfig(
            tau_u=k, rho=rho, sigma_u2=sigma_u2, kappa_t_ue=kappa_ul, kappa_r_bs=kappa_ul))
        assert np.all((est.nmse >= 0.0) & (est.nmse <= 1.0))
        if prev is not None:
            assert np.all(est.nmse <= prev + 1e-12)
        prev = est.nmse


def diagonal_estimator(r_diag, pilots):
    """Estimator whose every R_k is the same diagonal matrix.

    Diagonal statistics decouple the antennas, so the LMMSE estimate and
    its error reduce to per-antenna scalar formulas.
    """
    m = len(r_diag)
    stats = make_setup(seed=9, m=m, n=4, k=1, m_e=1)[0]
    # R_1 = 1.0 R_B + beta_i[0] 0 = diag(r_diag) exactly: both congruences are 0
    zero = np.zeros((m, m), dtype=complex)
    stats = dataclasses.replace(stats, r_b=np.diag(np.asarray(r_diag, dtype=float)),
                                cascade=(zero, zero),
                                fading=dataclasses.replace(stats.fading, beta_2=(1.0,)))
    return rl.ChannelEstimator(stats, pilots)


def test_lmmse_scalar_reduction():
    # M-free sanity on the closed-form gain: hhat = sqrt(rho) r y / (tau rho r + sigma^2)
    r = np.array([0.8, 0.3])
    tau, rho, sigma2 = 4, 2.5, 0.3
    est = diagonal_estimator(r, rl.PilotConfig(tau_u=tau, rho=rho, sigma_u2=sigma2))
    y = np.array([[1.3 - 0.4j], [0.2 + 0.9j]])
    got = est.estimate(y)
    expect = np.sqrt(rho) * r[:, None] * y / (tau * rho * r[:, None] + sigma2)
    assert np.allclose(got, expect)
    assert np.allclose(np.diag(error_covariance(est, 0)).real,
                       r - tau * rho * r ** 2 / (tau * rho * r + sigma2))


def test_lmmse_estimate_warns_when_ill_conditioned():
    pilots = rl.PilotConfig(tau_u=1, rho=1.0, sigma_u2=0.0)
    with pytest.warns(IllConditionedWarning):
        diagonal_estimator([1.0, 1e-14], pilots)


def test_singular_psi_raises_with_condition_number():
    pilots = rl.PilotConfig(tau_u=4, rho=1.0, sigma_u2=0.0)   # Psi = 4 R, singular
    with pytest.raises(rl.IllConditionedError) as err:
        diagonal_estimator([1.0, 0.0], pilots)
    assert err.value.cond is None or err.value.cond > 1e12


def test_estimator_rejects_fewer_pilots_than_users(small_setup):
    # the pilot length lives in PilotConfig, the user count in the statistics
    stats = small_setup[0]
    with pytest.raises(rl.InvalidParameterError, match="pilot length shorter than user count"):
        rl.ChannelEstimator(stats, rl.PilotConfig(tau_u=stats.dims.k - 1, rho=1.0))


def test_estimator_holds_only_its_gains_and_trace_products(small_setup):
    # the closed forms read trace products, so of the estimator's arrays only
    # the gains grow with M: the rest is O(K^2) floats
    est = small_setup[1]
    k = est.stats.dims.k

    def nbytes(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, list):
            return sum(nbytes(v) for v in value)
        return 8 if isinstance(value, float) else 0

    held = sum(nbytes(value) for value in vars(est).values())
    assert held <= nbytes(est.gain) + 8 * (k * k + 8 * k)


@pytest.mark.parametrize("correlated", [True, False])
def test_estimator_q_e_traces_equal_the_derived_ones(correlated):
    # the closed forms read tr Q_E and tr(Q_E^2) from the estimator, not from Q_E again
    stats, est, _, _ = make_setup(seed=3, correlated=correlated)
    q_e = stats.q_e
    assert est.tr_q == float(np.real(np.trace(q_e)))
    assert est.tr_q2 == rl.linalg.herm_trace_prod(q_e, q_e)


def test_error_covariance_limits(small_setup):
    stats = small_setup[0]
    k = 0
    # huge noise: estimator collapses, C -> R, NMSE -> 1
    pil = rl.PilotConfig(tau_u=3, rho=1.0, sigma_u2=1e9)
    est = rl.ChannelEstimator(stats, pil)
    assert est.nmse[k] > 0.999
    # growing pilot power with ideal hardware: NMSE -> 0 monotonically
    vals = []
    for rho in [1e-2, 1e0, 1e2, 1e4, 1e6]:
        est = rl.ChannelEstimator(stats, rl.PilotConfig(tau_u=3, rho=rho, sigma_u2=1.0))
        vals.append(est.nmse[k])
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-5


def test_error_covariance_psd(small_setup):
    _, est, _, _ = small_setup
    for k, r_k in enumerate(est.stats.r_k):
        c_k = error_covariance(est, k)
        assert min_relative_eigenvalue(c_k) > -1e-10
        # estimate covariance R - C is PSD as well
        assert min_relative_eigenvalue(r_k - c_k) > -1e-10


def test_nmse_bounds_and_monotonicity_in_rho(small_setup):
    stats = small_setup[0]
    prev = None
    for rho in np.logspace(-2, 5, 8):
        est = rl.ChannelEstimator(stats, rl.PilotConfig(
            tau_u=3, rho=float(rho), sigma_u2=1.0, kappa_t_ue=0.01, kappa_r_bs=0.01))
        for v in est.nmse:
            assert 0.0 <= v <= 1.0
        if prev is not None:
            assert np.all(est.nmse <= prev + 1e-12)
        prev = est.nmse


def test_estimate_covariance_and_orthogonality(small_setup, within):
    # E{hhat hhat^H} = tau rho R Psi^-1 R and E{e hhat^H} = 0 empirically
    stats, est, _, _ = small_setup
    rng = np.random.default_rng(11)
    draws = draw_channels(stats, rng, 100_000, eve=False)
    y = rl.simulate_pilot_phase(
        draws["h"], est.pilots, rl.pilot_gaussians(rng, draws["h"].shape))
    h_hat = est.estimate(y)
    h = np.swapaxes(draws["h"], 1, 2)
    k = 0
    hh = h_hat[:, :, k]
    cov = np.einsum("bi,bj->ij", hh, hh.conj()) / hh.shape[0]
    est_cov = estimate_covariance(est, k)
    rel = np.linalg.norm(cov - est_cov) / np.linalg.norm(est_cov)
    within("relative covariance error", rel, below=0.03)

    err = h[:, :, k] - hh
    cross = np.einsum("bi,bj->ij", err, hh.conj()) / hh.shape[0]
    # entrywise 3x standard-error band around zero
    scale = np.sqrt(np.outer(np.diag(error_covariance(est, k)).real,
                             np.diag(est_cov).real))
    within("normalized cross-covariance", np.max(np.abs(cross) / (scale + 1e-300)),
           below=3.0 / np.sqrt(hh.shape[0]) * 3)


def test_empirical_nmse_matches_closed_form(small_setup, within):
    _, est, _, _ = small_setup
    [orc] = rl.estimate_nmse([est], rl.TrialPlan(n_blocks=100_000, master_seed=2))
    within("relative nmse error", np.abs(orc.nmse.value - est.nmse) / est.nmse, below=0.03)


def test_lmmse_beats_perturbed_linear_estimators():
    # LMMSE optimality among linear estimators, 10 random configs
    rng = np.random.default_rng(77)
    for trial in range(10):
        stats, est, _, _ = make_setup(seed=100 + trial, m=8, n=9, k=2, m_e=1,
                                      rho=float(rng.uniform(1.0, 20.0)))
        draws = draw_channels(stats, rng, 4000, eve=False)
        y = rl.simulate_pilot_phase(
            draws["h"], est.pilots, rl.pilot_gaussians(rng, draws["h"].shape))
        h = np.swapaxes(draws["h"], 1, 2)
        k = 0
        a_opt = est.gain[k]
        delta = (rng.standard_normal(a_opt.shape) + 1j * rng.standard_normal(a_opt.shape))
        delta *= np.linalg.norm(a_opt) / np.linalg.norm(delta)
        mse_opt = np.mean(np.abs(h[:, :, k] - y[:, :, k] @ a_opt.T) ** 2)
        for sign in (+1.0, -1.0):
            a_pert = a_opt + sign * 1e-2 * delta
            mse_pert = np.mean(np.abs(h[:, :, k] - y[:, :, k] @ a_pert.T) ** 2)
            assert mse_pert > mse_opt


def test_high_power_floor(small_setup):
    stats = small_setup[0]
    pil = rl.PilotConfig(tau_u=3, rho=1e6, sigma_u2=1.0, kappa_t_ue=0.01, kappa_r_bs=0.01)
    est = rl.ChannelEstimator(stats, pil)
    floor = rl.nmse_high_power_limit(stats, pil)[0]
    assert floor > 0
    assert abs(est.nmse[0] - floor) / floor < 0.01

    ideal = rl.PilotConfig(tau_u=3, rho=1e6, sigma_u2=1.0)
    assert rl.nmse_high_power_limit(stats, ideal)[0] == 0.0

    # floor grows with the transmit-distortion factor
    floors = []
    for kappa in (0.05 ** 2, 0.1 ** 2, 0.15 ** 2):
        floors.append(rl.nmse_high_power_limit(
            stats, rl.PilotConfig(tau_u=3, rho=1.0, sigma_u2=1.0, kappa_t_ue=kappa))[0])
    assert floors[0] < floors[1] < floors[2]


def test_large_n_limit_scalar_properties():
    # balance point: gain equal to the effective noise gives exactly 1/2
    assert rl.nmse_large_n_limit(0.5, 0.25, 2.0, 1, rho=1.0, tau_u=1, sigma_u2=1.0) \
        == pytest.approx(0.5)   # gain = 0.5 + 0.5 = 1 = sigma^2/(tau rho)
    big = rl.nmse_large_n_limit(1.0, 0.1, 0.01, 10 ** 9, 1.0, 4, 1.0)
    assert big < 1e-5
    vals = [rl.nmse_large_n_limit(1.0, 0.05, 0.03, n, 1.0, 4, 1.0)
            for n in (64, 256, 1024, 4096)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_closed_form_approaches_large_n_limit():
    dims = rl.SystemDimensions.square_ris(m=8, n=4096, k=1, m_e=1)
    spec = rl.CorrelationSpec()
    b1, bi, b2 = 0.03, 0.08, 1.0
    h1 = rl.build_los_channel(dims, spec, b1, np.random.default_rng(3))
    fading = rl.LargeScaleFading(b1, (bi,), (b2,), 1.0, 0.05)
    stats = rl.build_channel_statistics(dims, fading, rl.PhaseNoiseModel(), h1,
                                        phi=np.pi / 4, r_b=None, ris_spec=None)
    est = rl.ChannelEstimator(stats, rl.PilotConfig(tau_u=1, rho=1.0, sigma_u2=1.0))
    lim = rl.nmse_large_n_limit(b2, bi, b1, 4096, 1.0, 1, 1.0)
    assert abs(est.nmse[0] - lim) / lim < 0.10


# --------------------------------------------------------------------------
# pilot-phase simulator
# --------------------------------------------------------------------------

def test_pilot_gaussians_equal_the_two_part_expression():
    # each part is written through .real/.imag into one complex array: the
    # same values as g[0] + 1j * g[1] from the same (2, ...) draw
    b, k, m = 5, 3, 4
    got = rl.pilot_gaussians(np.random.default_rng(11), (b, k, m))
    rng = np.random.default_rng(11)
    for part, shape in zip(got, [(b, k, k), (b, m, k)], strict=True):
        g = rng.standard_normal((2, *shape))
        assert np.array_equal(part, g[0] + 1j * g[1])


def test_pilot_phase_noiseless_single_user():
    stats = make_setup(seed=21, m=6, n=4, k=1, m_e=1, kappa_ul=0.0)[0]
    pil = rl.PilotConfig(tau_u=1, rho=4.0, sigma_u2=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rng = np.random.default_rng(0)
        draws = draw_channels(stats, rng, 8, eve=False)
        y = rl.simulate_pilot_phase(
            draws["h"], pil, rl.pilot_gaussians(rng, draws["h"].shape))
    expect = pil.tau_u * np.sqrt(pil.rho) * np.swapaxes(draws["h"], 1, 2)
    assert np.allclose(y, expect)


def test_despread_pilot_phase_has_the_time_domain_law(within):
    # given the channels, drawing the despread observation directly and
    # despreading tau_u simulated pilot symbols give the same law: every
    # entry of the joint covariance of all users' observations about
    # sqrt(rho) tau_u h agrees within the combined SE, the per-user blocks
    # (distortion riding on h, per-antenna noise) and the cross-user ones
    # (zero by orthogonality) alike. tau_u > K: the pilots are not square
    stats = make_setup(seed=22, m=4, n=4, k=2, m_e=1)[0]
    pil = rl.PilotConfig(tau_u=3, rho=2.0, sigma_u2=0.5, kappa_t_ue=0.2, kappa_r_bs=0.3)
    h = draw_channels(stats, np.random.default_rng(0), 1, eve=False)["h"]
    n = 40_000
    h = np.broadcast_to(h, (n, *h.shape[1:]))
    signal = pil.tau_u * np.sqrt(pil.rho) * np.swapaxes(h, 1, 2)
    rng = np.random.default_rng(1)
    upper = np.triu_indices(h.shape[1] * h.shape[2], 1)
    moments = []
    for y in (rl.simulate_pilot_phase(h, pil, rl.pilot_gaussians(rng, h.shape)),
              time_domain_pilot_phase(h, pil, rng)):
        d = (y - signal).reshape(n, -1)                     # antenna-major, user-minor
        cross = d[:, upper[0]] * d[:, upper[1]].conj()
        samples = np.concatenate([np.abs(d) ** 2, cross.real, cross.imag], axis=1)
        moments.append((samples.mean(axis=0), samples.std(axis=0, ddof=1) / np.sqrt(n)))
    (mean_a, se_a), (mean_b, se_b) = moments
    within("largest moment z-score", np.max(np.abs(mean_a - mean_b) / np.hypot(se_a, se_b)),
           below=4.5)


def test_pilot_phase_covariance_matches_psi(small_setup, within):
    stats, est, _, _ = small_setup
    rng = np.random.default_rng(13)
    draws = draw_channels(stats, rng, 100_000, eve=False)
    y = rl.simulate_pilot_phase(
        draws["h"], est.pilots, rl.pilot_gaussians(rng, draws["h"].shape))
    k = 1
    yk = y[:, :, k]
    cov = np.einsum("bi,bj->ij", yk, yk.conj()) / yk.shape[0]
    expect = est.pilots.tau_u * rl.build_psi(est.stats.r_k, est.pilots)[k]
    within("relative covariance error", np.linalg.norm(cov - expect) / np.linalg.norm(expect),
           below=0.03)
