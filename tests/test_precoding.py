"""MRT + null-space AN precoders and the data/AN power split."""
import numpy as np
import pytest

import ris_lab as rl
from ris_lab.precoding import mrt_normalizers, null_space_an_batch
from ris_lab.montecarlo import _chunk_blocks
from ris_lab.streams import CHANNEL_BLOCK

from conftest import draw_channels, error_covariance, make_setup


def test_stream_powers_budget_identity():
    p, q = rl.stream_powers(7.0, 0.35, 3, 16)
    assert p * 3 + q * 13 == pytest.approx(7.0)
    assert rl.stream_powers(1.0, 1.0, 2, 4)[1] == 0.0
    with pytest.raises(rl.InvalidParameterError):
        rl.stream_powers(1.0, 0.0, 2, 4)
    with pytest.raises(rl.InvalidParameterError):
        rl.stream_powers(1.0, 1.2, 2, 4)
    for p_t in (0.0, -1.0):
        with pytest.raises(rl.InvalidParameterError, match="total power must be positive"):
            rl.HardwareProfile(p_t=p_t)


def test_mrt_columns_normalized_statistically(small_setup):
    stats, est, _, _ = small_setup
    rng = np.random.default_rng(3)
    draws = draw_channels(stats, rng, 50_000, eve=False)
    y = rl.simulate_pilot_phase(
        draws["h"], est.pilots, rl.pilot_gaussians(rng, draws["h"].shape))
    w = rl.mrt_precoder(est.estimate(y), est)
    norms = np.mean(np.sum(np.abs(w) ** 2, axis=1), axis=0)
    assert np.all(np.abs(norms - 1.0) < 0.02)
    tr_ww = np.mean(np.sum(np.abs(w) ** 2, axis=(1, 2)))
    assert abs(tr_ww - stats.dims.k) / stats.dims.k < 0.02


def test_mrt_scalar_direction():
    # a single column is the estimate scaled by its statistical norm
    stats, est, _, _ = make_setup(seed=6, m=4, n=4, k=1, m_e=1)
    h_hat = np.array([[1.0 + 1j], [0.5 - 0.5j], [0.0 + 0j], [2.0 + 0j]])
    w = rl.mrt_precoder(h_hat, est)
    expect = h_hat[:, 0] / np.sqrt(mrt_normalizers(est)[0])
    assert np.allclose(w[:, 0], expect)


def test_null_space_coordinate_case():
    v = null_space_an_batch(np.array([[[1.0 + 0j], [0.0 + 0j]]]))[0]
    assert v.shape == (2, 1)
    assert abs(v[0, 0]) < 1e-14
    assert abs(abs(v[1, 0]) - 1.0) < 1e-14


def test_null_space_residual_and_orthonormality():
    rng = np.random.default_rng(0)
    for _ in range(5):
        h_hat = (rng.standard_normal((64, 6)) + 1j * rng.standard_normal((64, 6)))
        v = null_space_an_batch(h_hat[None])[0]
        assert v.shape == (64, 58)
        assert np.max(np.abs(h_hat.conj().T @ v)) < 1e-10 * np.max(np.abs(h_hat))
        assert np.max(np.abs(v.conj().T @ v - np.eye(58))) < 1e-10


def test_null_space_batch_matches_single():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((3, 8, 2)) + 1j * rng.standard_normal((3, 8, 2))
    vb = null_space_an_batch(h)
    for b in range(3):
        assert np.max(np.abs(h[b].conj().T @ vb[b])) < 1e-12
        assert np.max(np.abs(vb[b].conj().T @ vb[b] - np.eye(6))) < 1e-12


def test_transmit_power_budget(small_setup, within):
    # E{tr(p W W^H + q V V^H)} = E{p ||W||^2} + q (M - K) = P_t over the
    # Monte Carlo oracle's own blocks
    stats, est, hw, xi = small_setup
    p, q = rl.stream_powers(hw.p_t, xi, stats.dims.k, stats.dims.m)
    plan = rl.TrialPlan(n_blocks=20_000, master_seed=8)
    powers = []
    for idx, size in plan.chunks():
        [blk] = _chunk_blocks([est], est.stats, size, (plan.master_seed, CHANNEL_BLOCK, idx))
        powers.append(p * np.sum(np.abs(blk.w) ** 2, axis=(1, 2))
                      + q * (stats.dims.m - stats.dims.k))
    within("relative power error", abs(np.mean(np.concatenate(powers)) - hw.p_t) / hw.p_t,
           below=0.02)


def test_an_invisible_under_perfect_csi(small_setup):
    # with hhat = h the AN leakage h^H V V^H h vanishes identically
    stats = small_setup[0]
    draws = draw_channels(stats, np.random.default_rng(9), 1, eve=False)
    h = np.swapaxes(draws["h"], 1, 2)[0]
    v = null_space_an_batch(h[None])[0]
    leak = np.sum(np.abs(h.conj().T @ v) ** 2, axis=1)
    assert np.max(leak) < 1e-20 * np.sum(np.abs(h) ** 2)


def test_an_leakage_matches_error_trace(within):
    # imperfect CSI: E{h^H V V^H h} ~ (M-K)/M tr(C_k) within 5 percent
    stats, est, hw, xi = make_setup(seed=15, m=24, n=16, k=3, m_e=2,
                                    correlated=False, kappa_ul=0.0)
    orc = rl.estimate_user_rate(est, hw, xi,
                                rl.TrialPlan(n_blocks=40_000, master_seed=4))
    m, k_users = stats.dims.m, stats.dims.k
    for k in range(k_users):
        expect = (m - k_users) / m * np.trace(error_covariance(est, k)).real
        within(f"relative an leakage error[{k}]", abs(orc.an_leakage[k] - expect) / expect,
               below=0.05)
