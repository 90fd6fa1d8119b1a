"""The Monte Carlo kernels against their einsum forms.

The sampler and the per-block terms compute every batched contraction as
a matmul, and the AN terms through I - Q Q^H with the thin QR factor Q
of the estimate. The einsum forms below are the reference: same draws,
the explicit AN basis V of the complete QR, another summation order, so
results agree to roundoff.
"""
import numpy as np
import pytest

from ris_lab.geometry import template_factors
from ris_lab.montecarlo import (
    _chunk_terms,
    _eve_interference,
    _eve_log_rate,
    _nmse_terms,
    _point_terms,
    _transmit_diag,
    _user_terms,
)
from ris_lab.precoding import mrt_normalizers, null_space_an_batch, stream_powers

from conftest import (chunk_blocks, complex_normal, draw_channels, make_setup, ris_correlation,
                      sector_factor)

RTOL = 1e-12


def assert_close(got, want):
    """Equal to RTOL relative to the largest entry of the reference."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def einsum_realizations(stats, rng, n_draws):
    """Channel draws with the contractions written as einsums.

    A correlated link's Gaussians are its sector coefficients, colored by
    the dense ``sector_factor`` of its template.
    """
    dims = stats.dims
    theta = stats.phase_model.draw(rng, (n_draws, dims.n))
    g_i = complex_normal(rng, (n_draws, dims.k, dims.n))
    g_b = complex_normal(rng, (n_draws, dims.k, dims.m))
    g_ie = complex_normal(rng, (n_draws, dims.m_e, dims.n))
    g_be = complex_normal(rng, (n_draws, dims.m_e, dims.m))
    r_i = ris_correlation(stats)
    f_i = None if r_i is None else sector_factor(r_i, (dims.n // dims.n_h, dims.n_h))
    f_b = None if stats.r_b is None else sector_factor(stats.r_b, (1, dims.m))
    h_i = g_i if f_i is None else np.einsum("xn,bkn->bkx", f_i, g_i)
    h_b = g_b if f_b is None else np.einsum("xm,bkm->bkx", f_b, g_b)
    h_ie = np.swapaxes(g_ie, 1, 2) if f_i is None else np.einsum("xn,ben->bxe", f_i, g_ie)
    h_be = np.swapaxes(g_be, 1, 2) if f_b is None else np.einsum("xm,bem->bxe", f_b, g_be)
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


def einsum_user_terms(est, blk):
    h = np.swapaxes(blk.h, 1, 2)
    v = null_space_an_batch(blk.h_hat)
    g = np.einsum("bmk,bmi->bki", h.conj(), blk.w)
    vh = np.einsum("bmj,bmk->bjk", v.conj(), h)
    an = np.sum(np.abs(vh) ** 2, axis=1)
    abs_g2 = np.abs(g) ** 2
    s1 = np.einsum("bkk->bk", g)
    ehat = np.einsum("bmk,bmk->bk", (h - blk.h_hat).conj(), blk.h_hat)
    return {"s1": s1,
            "inter": np.sum(abs_g2, axis=2) - np.abs(s1) ** 2,
            "an": an,
            "hn2": np.sum(np.abs(h) ** 2, axis=1),
            "var_err": np.abs(ehat) ** 2 / mrt_normalizers(est)[None, :]}


def einsum_eve(blk, p, q, kappa_t_bs):
    """Eve's interference matrix and per-block log-rates."""
    v = null_space_an_batch(blk.h_hat)
    diag_t = (p * np.sum(np.abs(blk.w) ** 2, axis=2)
              + q * np.sum(np.abs(v) ** 2, axis=2))
    f = np.einsum("bme,bmk->bek", blk.h_e.conj(), blk.w)
    vhe = np.einsum("bmj,bme->bje", v.conj(), blk.h_e)
    x = q * np.einsum("bje,bjf->bef", vhe.conj(), vhe)
    x += kappa_t_bs * np.einsum("bme,bm,bmf->bef", blk.h_e.conj(), diag_t, blk.h_e)
    sol = np.linalg.solve(x, f)
    gamma = p * np.real(np.einsum("bek,bek->bk", f.conj(), sol))
    return x, np.log2(1.0 + np.maximum(gamma, 0.0))


@pytest.mark.parametrize("correlated", [True, False])
def test_sampler_matches_einsum_forms(correlated):
    stats, _, _, _ = make_setup(seed=11, m=8, n=16, k=2, m_e=2, correlated=correlated)
    got = draw_channels(stats, np.random.default_rng(4), 64, eve=True)
    want = einsum_realizations(stats, np.random.default_rng(4), 64)
    assert set(got) == set(want)
    for key in want:
        assert_close(got[key], want[key])


def test_block_terms_match_einsum_forms():
    _, est, hw, xi = make_setup(seed=12, m=8, n=16, k=2, m_e=2)
    p, q = stream_powers(hw.p_t, xi, 2, 8)
    blk = chunk_blocks(est, 64, (5, 0))
    got = _user_terms(est, blk)
    want = einsum_user_terms(est, blk)
    assert set(got) == set(want)
    for key in want:
        assert_close(got[key], want[key])
    v = null_space_an_batch(blk.h_hat)
    assert_close(_transmit_diag(blk, p, q),
                 p * np.sum(np.abs(blk.w) ** 2, axis=2)
                 + q * np.sum(np.abs(v) ** 2, axis=2))

    x_want, log_rate_want = einsum_eve(blk, p, q, hw.kappa_t_bs)
    h_e_h = np.swapaxes(blk.h_e, 1, 2).conj()
    assert_close(_eve_interference(blk, h_e_h, p, q, hw.kappa_t_bs), x_want)
    assert_close(_eve_log_rate(blk, p, q, hw.kappa_t_bs, 0.0), log_rate_want)


def test_chunk_terms_own_their_memory():
    # a chunk's terms are kept until the reduction, so none may be a view
    # that keeps a larger temporary, such as the (B, K, K) Gram, alive
    _, est, hw, xi = make_setup(seed=12, m=8, n=16, k=2, m_e=2)
    factors = template_factors(est.stats)
    [point] = _chunk_terms([(est, hw, xi)], _point_terms, est.stats, factors, 16, (5, 0),
                           eve=True)
    [nmse] = _chunk_terms([(est,)], _nmse_terms, est.stats, factors, 16, (5, 0), eve=False)
    for terms in (point, nmse):
        for name, arr in terms.items():
            assert arr.shape == (16, 2) and arr.base is None, name
