"""The Monte Carlo kernels against their einsum forms.

The sampler and the per-block terms compute every batched contraction as
a matmul, and the AN terms through I - Q Q^H with the thin QR factor Q
of the estimate. The einsum forms below are the reference: same draws,
the explicit AN basis V of the complete QR, another summation order, so
results agree to roundoff.
"""
import numpy as np
import pytest

from ris_lab.geometry import sample_realizations
from ris_lab.montecarlo import (
    _draw_blocks,
    _eve_interference,
    _eve_log_rate,
    _transmit_diag,
    _user_terms,
)
from ris_lab.precoding import mrt_normalizers, null_space_an_batch
from ris_lab.streams import complex_normal

from conftest import make_setup

RTOL = 1e-12


def assert_close(got, want):
    """Equal to RTOL relative to the largest entry of the reference."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def einsum_realizations(stats, rng, n_draws):
    """Channel draws with the contractions written as einsums."""
    dims = stats.dims
    theta = stats.phase_model.draw(rng, (n_draws, dims.n))
    g_i = complex_normal(rng, (n_draws, dims.k, dims.n))
    g_b = complex_normal(rng, (n_draws, dims.k, dims.m))
    g_ie = complex_normal(rng, (n_draws, dims.n, dims.m_e))
    g_be = complex_normal(rng, (n_draws, dims.m, dims.m_e))
    s_i, s_b = stats.sqrt_r_i, stats.sqrt_r_b
    h_i = g_i if s_i is None else np.einsum("xn,bkn->bkx", s_i, g_i)
    h_b = g_b if s_b is None else np.einsum("xm,bkm->bkx", s_b, g_b)
    h_ie = g_ie if s_i is None else np.einsum("xn,bne->bxe", s_i, g_ie)
    h_be = g_be if s_b is None else np.einsum("xm,bme->bxe", s_b, g_be)
    h_i = h_i * np.sqrt(np.asarray(stats.fading.beta_i))[None, :, None]
    h_b = h_b * np.sqrt(np.asarray(stats.fading.beta_2))[None, :, None]
    h_ie = h_ie * np.sqrt(stats.fading.beta_ie)
    h_be = h_be * np.sqrt(stats.fading.beta_3)
    bridge = stats.h1 * stats.phi[None, :]
    rot = np.exp(1j * theta)
    h = h_b + np.einsum("mn,bkn->bkm", bridge, rot[:, None, :] * h_i)
    h_e = h_be + np.einsum("mn,bne->bme", bridge, rot[:, :, None] * h_ie)
    return {"theta": theta, "h_i": h_i, "h_b": h_b, "h_ie": h_ie,
            "h_be": h_be, "h": h, "h_e": h_e}


def einsum_user_terms(est, alloc, blk):
    m, k_users = est.stats.dims.m, est.stats.dims.k
    h = np.swapaxes(blk.h, 1, 2)
    v = null_space_an_batch(blk.h_hat)
    g = np.einsum("bmk,bmi->bki", h.conj(), blk.w)
    vh = np.einsum("bmj,bmk->bjk", v.conj(), h)
    an = np.sum(np.abs(vh) ** 2, axis=1)
    abs_g2 = np.abs(g) ** 2
    s1 = np.einsum("bkk->bk", g)
    ehat = np.einsum("bmk,bmk->bk", (h - blk.h_hat).conj(), blk.h_hat)
    diag_t = (alloc.p * np.sum(np.abs(blk.w) ** 2, axis=2)
              + alloc.q * np.sum(np.abs(v) ** 2, axis=2))
    return {"s1": s1,
            "inter": np.sum(abs_g2, axis=2) - np.abs(s1) ** 2,
            "an": an,
            "hn2": np.sum(np.abs(h) ** 2, axis=1),
            "tr_t": (alloc.p * np.sum(np.abs(blk.w) ** 2, axis=(1, 2))
                     + alloc.q * (m - k_users)),
            "var_err": np.abs(ehat) ** 2 / mrt_normalizers(est)[None, :],
            "hwi_t_real": np.einsum("bm,bmk->bk", diag_t, np.abs(h) ** 2),
            "hwi_r_real": alloc.p * np.sum(abs_g2, axis=2) + alloc.q * an}


def einsum_eve(blk, alloc, kappa_t_bs):
    """Eve's interference matrix and per-block log-rates."""
    v = null_space_an_batch(blk.h_hat)
    diag_t = (alloc.p * np.sum(np.abs(blk.w) ** 2, axis=2)
              + alloc.q * np.sum(np.abs(v) ** 2, axis=2))
    f = np.einsum("bme,bmk->bek", blk.h_e.conj(), blk.w)
    vhe = np.einsum("bmj,bme->bje", v.conj(), blk.h_e)
    x = alloc.q * np.einsum("bje,bjf->bef", vhe.conj(), vhe)
    x += kappa_t_bs * np.einsum("bme,bm,bmf->bef", blk.h_e.conj(), diag_t, blk.h_e)
    sol = np.linalg.solve(x, f)
    gamma = alloc.p * np.real(np.einsum("bek,bek->bk", f.conj(), sol))
    return x, np.log2(1.0 + np.maximum(gamma, 0.0))


@pytest.mark.parametrize("correlated", [True, False])
def test_sampler_matches_einsum_forms(correlated):
    stats, _, _, _ = make_setup(seed=11, m=8, n=16, k=2, m_e=2, correlated=correlated)
    got = sample_realizations(stats, np.random.default_rng(4), 64)
    want = einsum_realizations(stats, np.random.default_rng(4), 64)
    assert set(got) == set(want)
    for key in want:
        assert_close(got[key], want[key])


def test_block_terms_match_einsum_forms():
    _, est, hw, alloc = make_setup(seed=12, m=8, n=16, k=2, m_e=2)
    blk = _draw_blocks(est, 64, np.random.default_rng(5))
    got = _user_terms(est, alloc, blk)
    want = einsum_user_terms(est, alloc, blk)
    assert set(got) == set(want)
    for key in want:
        assert_close(got[key], want[key])
    v = null_space_an_batch(blk.h_hat)
    assert_close(_transmit_diag(blk, alloc),
                 alloc.p * np.sum(np.abs(blk.w) ** 2, axis=2)
                 + alloc.q * np.sum(np.abs(v) ** 2, axis=2))

    x_want, log_rate_want = einsum_eve(blk, alloc, hw.kappa_t_bs)
    assert_close(_eve_interference(blk, alloc, hw.kappa_t_bs), x_want)
    assert_close(_eve_log_rate(blk, alloc, hw.kappa_t_bs, 0.0), log_rate_want)
