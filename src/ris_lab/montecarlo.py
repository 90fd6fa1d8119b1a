"""Simulation oracle for every expectation the closed forms predict.

Each estimator draws independent coherence blocks (channels, RIS phase
errors, uplink distortion, noise), runs the pilot phase and the precoder
exactly as the system model defines them, and averages the per-block
quantities. Every estimate carries a standard error.

Blocks are processed in fixed-size chunks, each with its own counter
derived substream, and chunk results are combined in index order, so the
output is bit-identical for any worker count.

Every pass shares one prefix per chunk (channel draw, pilot phase,
estimate, MRT precoder and the thin QR factor Q of the estimate); the
user-rate, eavesdropper and Wishart passes then compute only their own
terms. All batched contractions are BLAS matmuls over the block axis.

The AN precoder V, an orthonormal basis of the null space of the
estimate, enters the model only through the AN covariance
q V V^H = q (I - Q Q^H), where Q is the thin M x K orthonormal basis of
span(h_hat). No kernel forms V: the AN-space component of x is
x - Q (Q^H x), so ||V^H h_k||^2 is the power of that projection of h_k,
Eve's AN term is q P^H P with P = (I - Q Q^H) H_E, and
diag(V V^H) = 1 - |rows of Q|^2. The projection form keeps the leakage
exactly zero under perfect CSI and every quadratic form PSD.

``estimate_secrecy`` runs one pass per secrecy point: each block's user
terms and eavesdropper log-rate come from the same draw, and the secrecy
standard error is built from per-block pairs by the delta method.
``estimate_user_rate``, ``estimate_eve_capacity`` and
``estimate_wishart_moments`` remain as term-by-term oracles.

Model note: the downlink HWI powers entering the user-rate terms use the
per-antenna transmit covariance in its large-array deterministic limit
P_t/M * I (the regime in which the closed forms are derived); the
per-realization covariance p W W^H + q V V^H is still used everywhere it
appears as an actual matrix (the eavesdropper's interference and the
power-budget accounting), and the realized HWI powers are reported as
diagnostics alongside.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .estimation import ChannelEstimator, simulate_pilot_phase
from .geometry import ChannelStatistics, sample_realizations
from .hardware import HardwareProfile
from .precoding import PowerAllocation, mrt_normalizers
from .precoding import null_space_an_batch  # noqa: F401 -- bench/tracer.py wraps this binding
from .streams import CHANNEL_BLOCK, EVE_BLOCK, NMSE_BLOCK, derive_rng

CHUNK_BLOCKS = 512          # fixed: chunking must not depend on the worker count
THREADS_ENV = "RIS_LAB_THREADS"


@dataclass(frozen=True)
class TrialPlan:
    """Size and seeding of one Monte Carlo run."""

    n_blocks: int
    master_seed: int

    def __post_init__(self):
        if self.n_blocks < 1:
            raise InvalidParameterError("need at least one block")

    def chunks(self):
        sizes = [CHUNK_BLOCKS] * (self.n_blocks // CHUNK_BLOCKS)
        if self.n_blocks % CHUNK_BLOCKS:
            sizes.append(self.n_blocks % CHUNK_BLOCKS)
        return list(enumerate(sizes))


def worker_count() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise InvalidParameterError(f"{THREADS_ENV} must be an integer") from exc
    return min(8, os.cpu_count() or 1)


def _run_chunks(plan: TrialPlan, purpose: int, work):
    """Run ``work(chunk_size, rng)`` over all chunks, results in chunk order."""
    chunks = plan.chunks()
    threads = worker_count()
    if threads == 1 or len(chunks) == 1:
        return [work(size, derive_rng(plan.master_seed, purpose, idx))
                for idx, size in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(work, size, derive_rng(plan.master_seed, purpose, idx))
                   for idx, size in chunks]
        return [f.result() for f in futures]


def _stack(parts, key):
    return np.concatenate([p[key] for p in parts], axis=0)


def _se(values: np.ndarray):
    """Standard error of the mean along axis 0; inf below two samples."""
    n = values.shape[0]
    if n < 2:
        return np.full(values.shape[1:], np.inf)
    return np.std(values, axis=0, ddof=1) / np.sqrt(n)


def _mean_se(values: np.ndarray):
    """Mean and standard error along axis 0."""
    return np.mean(values, axis=0), _se(values)


def _ratio_se(num: np.ndarray, den: np.ndarray):
    """Delta-method standard error of mean(num)/mean(den), along axis 0."""
    mn, md = np.mean(num, axis=0), np.mean(den, axis=0)
    ratio = mn / md
    resid = (num - ratio * den) / md
    return ratio, _se(resid)


@dataclass
class OracleEstimates:
    """Monte Carlo estimates; every field pairs with a standard error.

    Per-user arrays have length K. Which sections are filled depends on
    which estimator produced the object.
    """

    n_blocks: int
    nmse: np.ndarray | None = None
    nmse_se: np.ndarray | None = None
    rate: np.ndarray | None = None
    rate_se: np.ndarray | None = None
    signal: np.ndarray | None = None
    signal_se: np.ndarray | None = None
    interference: np.ndarray | None = None
    interference_se: np.ndarray | None = None
    variance: np.ndarray | None = None
    variance_se: np.ndarray | None = None
    an_leakage: np.ndarray | None = None
    an_leakage_se: np.ndarray | None = None
    hwi: np.ndarray | None = None
    hwi_se: np.ndarray | None = None
    c_e: np.ndarray | None = None
    c_e_se: np.ndarray | None = None
    tr_t: float | None = None
    tr_t_se: float | None = None
    r_sec: float | None = None         # user average of max(0, rate - c_e)
    r_sec_se: float | None = None
    # Diagnostics outside the hardened bookkeeping: the raw effective-channel
    # variance (including the estimate-norm fluctuation that large-array
    # analysis suppresses), the per-realization HWI powers, and the rate
    # assembled from those raw quantities.
    variance_total: np.ndarray | None = None
    rate_raw: np.ndarray | None = None
    hwi_t_realized: np.ndarray | None = None
    hwi_r_realized: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# channel estimation oracle
# --------------------------------------------------------------------------

def estimate_nmse(est: ChannelEstimator, plan: TrialPlan) -> OracleEstimates:
    """Empirical NMSE of the LMMSE estimator over impaired pilot blocks."""
    stats = est.stats

    def work(size, rng):
        draws = sample_realizations(stats, rng, size)
        y = simulate_pilot_phase(draws["h"], stats, est.pilots, rng)
        h_hat = est.estimate(y)                       # (B, M, K)
        h = np.swapaxes(draws["h"], 1, 2)             # (B, M, K)
        err2 = np.sum(np.abs(h - h_hat) ** 2, axis=1)
        mag2 = np.sum(np.abs(h) ** 2, axis=1)
        return {"err2": err2, "mag2": mag2}

    parts = _run_chunks(plan, NMSE_BLOCK, work)
    err2, mag2 = _stack(parts, "err2"), _stack(parts, "mag2")
    nmse_hat, nmse_se = _ratio_se(err2, mag2)
    return OracleEstimates(n_blocks=plan.n_blocks, nmse=nmse_hat, nmse_se=nmse_se,
                           meta={"seed": plan.master_seed})


# --------------------------------------------------------------------------
# downlink SINR term oracle
# --------------------------------------------------------------------------

class _Blocks(NamedTuple):
    """One chunk of drawn blocks with the BS-side processing applied.

    The AN precoder V is never formed: V V^H = I - Q Q^H with Q = ``q_hat``.
    """

    h: np.ndarray          # (B, K, M) aggregate user channels
    h_e: np.ndarray        # (B, M, M_E) aggregate Eve channel
    h_hat: np.ndarray      # (B, M, K) LMMSE estimates
    w: np.ndarray          # (B, M, K) MRT precoder
    q_hat: np.ndarray      # (B, M, K) thin orthonormal basis Q of span(h_hat)


def _draw_blocks(est: ChannelEstimator, size, rng) -> _Blocks:
    """Channels, pilot phase, estimates, MRT precoder and Q for one chunk."""
    stats = est.stats
    draws = sample_realizations(stats, rng, size)
    y = simulate_pilot_phase(draws["h"], stats, est.pilots, rng)
    h_hat = est.estimate(y)
    w = h_hat / np.sqrt(mrt_normalizers(est))[None, None, :]
    q_hat = np.linalg.qr(h_hat)[0]
    return _Blocks(h=draws["h"], h_e=draws["h_e"], h_hat=h_hat, w=w, q_hat=q_hat)


def _row_power(a: np.ndarray) -> np.ndarray:
    """sum_j |a[..., j]|^2, as a real dot product of the interleaved parts."""
    parts = a.view(np.float64)
    return np.einsum("...j,...j->...", parts, parts)


def _an_component(q_hat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x - Q (Q^H x) = (I - Q Q^H) x, the AN-space part of stacked (B, M, J) x."""
    return x - q_hat @ (np.swapaxes(q_hat, 1, 2).conj() @ x)


def _transmit_diag(blk: _Blocks, alloc: PowerAllocation) -> np.ndarray:
    """Per-antenna transmit power diag(p W W^H + q V V^H), shape (B, M)."""
    return alloc.p * _row_power(blk.w) + alloc.q * (1.0 - _row_power(blk.q_hat))


def _user_terms(est: ChannelEstimator, alloc: PowerAllocation, blk: _Blocks) -> dict:
    """Per-block SINR terms of every user."""
    m, k_users = est.stats.dims.m, est.stats.dims.k
    h_conj = blk.h.conj()                             # (B, K, M)
    h = np.swapaxes(blk.h, 1, 2)                      # (B, M, K)

    g = h_conj @ blk.w                                # g[b,k,i] = h_k^H w_i
    an = np.sum(np.abs(_an_component(blk.q_hat, h)) ** 2, axis=1)  # ||V^H h_k||^2
    hn2 = np.sum(np.abs(h) ** 2, axis=1)              # ||h_k||^2

    abs_g2 = np.abs(g) ** 2
    s1 = np.diagonal(g, axis1=1, axis2=2)             # h_k^H w_k
    inter = np.sum(abs_g2, axis=2) - np.abs(s1) ** 2  # sum_{i != k} |h_k^H w_i|^2

    err = h - blk.h_hat
    ehat = np.einsum("bmk,bmk->bk", err.conj(), blk.h_hat)
    var_err = np.abs(ehat) ** 2 / mrt_normalizers(est)[None, :]

    diag_t = _transmit_diag(blk, alloc)
    hwi_t_real = (np.abs(blk.h) ** 2 @ diag_t[:, :, None])[:, :, 0]
    hwi_r_real = alloc.p * np.sum(abs_g2, axis=2) + alloc.q * an
    tr_t = alloc.p * np.sum(np.abs(blk.w) ** 2, axis=(1, 2)) + alloc.q * (m - k_users)

    return {"s1": s1, "inter": inter, "an": an, "hn2": hn2, "tr_t": tr_t,
            "var_err": var_err, "hwi_t_real": hwi_t_real, "hwi_r_real": hwi_r_real}


def _eve_interference(blk: _Blocks, alloc: PowerAllocation,
                      kappa_t_bs: float) -> np.ndarray:
    """Eve's interference matrix X = H_E^H (q V V^H + Ups_t) H_E, (B, M_E, M_E)."""
    h_e_h = np.swapaxes(blk.h_e, 1, 2).conj()         # (B, M_E, M)
    p_e = _an_component(blk.q_hat, blk.h_e)           # P = (I - Q Q^H) H_E
    x = alloc.q * (np.swapaxes(p_e, 1, 2).conj() @ p_e)
    x += kappa_t_bs * ((h_e_h * _transmit_diag(blk, alloc)[:, None, :]) @ blk.h_e)
    return x


def _eve_floor(hw: HardwareProfile, alloc: PowerAllocation) -> float:
    """Thermal floor of Eve's whitening solve: 1e-12 P_t where it is singular.

    With neither AN nor transmit distortion Eve's interference matrix is zero.
    """
    if alloc.q == 0.0 and hw.kappa_t_bs == 0.0:
        return 1e-12 * alloc.p_t
    return 0.0


def _eve_log_rate(blk: _Blocks, alloc: PowerAllocation, kappa_t_bs: float,
                  sigma_e2: float) -> np.ndarray:
    """Per-block log2(1 + SINR) of Eve under optimal combining, shape (B, K)."""
    x = _eve_interference(blk, alloc, kappa_t_bs)
    f = np.swapaxes(blk.h_e, 1, 2).conj() @ blk.w     # H_E^H w_k
    if sigma_e2 > 0.0:
        x += sigma_e2 * np.eye(x.shape[-1])[None, :, :]
    sol = np.linalg.solve(x, f)
    gamma = alloc.p * np.real(np.einsum("bek,bek->bk", f.conj(), sol))
    return np.log2(1.0 + np.maximum(gamma, 0.0))


def _reduce_user_terms(parts: list, hw: HardwareProfile, alloc: PowerAllocation,
                       m: int) -> tuple[OracleEstimates, np.ndarray]:
    """Rate estimates from the chunks' per-block user terms.

    Returns the estimates and the per-block delta-method linearization of
    each user's rate about the block means, shape (B, K), whose mean is zero.
    """
    s1 = _stack(parts, "s1")
    inter = _stack(parts, "inter")
    an = _stack(parts, "an")
    hn2 = _stack(parts, "hn2")
    tr_t = _stack(parts, "tr_t")
    var_err = _stack(parts, "var_err")
    hwi_t_real = _stack(parts, "hwi_t_real")
    hwi_r_real = _stack(parts, "hwi_r_real")

    n = s1.shape[0]
    s1_mean = np.mean(s1, axis=0)
    signal = np.abs(s1_mean) ** 2
    # Delta method for |mean|^2: project fluctuations on the mean direction.
    unit = s1_mean / np.where(np.abs(s1_mean) > 0, np.abs(s1_mean), 1.0)
    proj = np.real(s1 * unit.conj())
    signal_se = 2.0 * np.abs(s1_mean) * _se(proj)

    variance, variance_se = _mean_se(var_err)
    dev2 = np.abs(s1 - s1_mean) ** 2
    variance_total = (np.sum(dev2, axis=0) / (n - 1) if n > 1
                      else np.full(dev2.shape[1:], np.nan))

    inter_mean, inter_se = _mean_se(inter)
    an_mean, an_se = _mean_se(an)
    hn2_mean, hn2_se = _mean_se(hn2)
    kappa_dl = hw.kappa_t_bs + hw.kappa_r_ue
    hwi = kappa_dl * alloc.p_t / m * hn2_mean
    hwi_se = kappa_dl * alloc.p_t / m * hn2_se
    tr_t_mean, tr_t_se = _mean_se(tr_t)
    hwi_t_realized = hw.kappa_t_bs * np.mean(hwi_t_real, axis=0)
    hwi_r_realized = hw.kappa_r_ue * np.mean(hwi_r_real, axis=0)

    den = (alloc.p * inter_mean + alloc.p * variance + alloc.q * an_mean
           + hwi + hw.sigma_k2)
    gamma = alloc.p * signal / den
    rate = np.log2(1.0 + gamma)
    den_se = np.sqrt((alloc.p * inter_se) ** 2 + (alloc.p * variance_se) ** 2
                     + (alloc.q * an_se) ** 2 + hwi_se ** 2)
    signal_floor = np.maximum(signal, 1e-300)
    gamma_se = gamma * np.sqrt((signal_se / signal_floor) ** 2 + (den_se / den) ** 2)
    rate_se = gamma_se / ((1.0 + gamma) * np.log(2.0))

    d_signal = 2.0 * np.abs(s1_mean) * (proj - np.mean(proj, axis=0))
    d_den = (alloc.p * (inter - inter_mean) + alloc.p * (var_err - variance)
             + alloc.q * (an - an_mean) + kappa_dl * alloc.p_t / m * (hn2 - hn2_mean))
    d_rate = (gamma / ((1.0 + gamma) * np.log(2.0))
              * (d_signal / signal_floor - d_den / den))

    den_raw = (alloc.p * inter_mean + alloc.p * variance_total + alloc.q * an_mean
               + hwi_t_realized + hwi_r_realized + hw.sigma_k2)
    rate_raw = np.log2(1.0 + alloc.p * signal / den_raw)

    orc = OracleEstimates(
        n_blocks=n, rate=rate, rate_se=rate_se,
        signal=signal, signal_se=signal_se,
        interference=inter_mean, interference_se=inter_se,
        variance=variance, variance_se=variance_se,
        an_leakage=an_mean, an_leakage_se=an_se,
        hwi=hwi, hwi_se=hwi_se,
        tr_t=float(tr_t_mean), tr_t_se=float(tr_t_se),
        variance_total=variance_total, rate_raw=rate_raw,
        hwi_t_realized=hwi_t_realized, hwi_r_realized=hwi_r_realized,
    )
    return orc, d_rate


def estimate_user_rate(est: ChannelEstimator, hw: HardwareProfile,
                       alloc: PowerAllocation, plan: TrialPlan) -> OracleEstimates:
    """Term-by-term estimate of the downlink SINR for every user.

    Estimates the signal, interference, estimation-uncertainty and
    AN-leakage expectations from the realized channels and precoders,
    keeping the channel-hardening bookkeeping of the rate decomposition:
    the signal-uncertainty term is the error-driven fluctuation
    |e_k^H h_hat_k|^2 (the estimate-norm fluctuation is hardened away and
    reported separately as ``variance_total``), and the HWI power uses the
    deterministic-limit transmit profile with the measured channel energy
    (see the module note). ``rate_raw`` re-assembles the SINR from the
    un-hardened diagnostics.
    """
    def work(size, rng):
        return _user_terms(est, alloc, _draw_blocks(est, size, rng))

    parts = _run_chunks(plan, CHANNEL_BLOCK, work)
    orc, _ = _reduce_user_terms(parts, hw, alloc, est.stats.dims.m)
    orc.meta["seed"] = plan.master_seed
    return orc


def estimate_secrecy(est: ChannelEstimator, hw: HardwareProfile,
                     alloc: PowerAllocation, plan: TrialPlan) -> OracleEstimates:
    """User rates, eavesdropper capacities and the secrecy rate from one pass.

    Each block is drawn once, on the ``CHANNEL_BLOCK`` stream, and its user
    terms and Eve's log-rate come from the same channels and precoders, so
    the user-rate fields equal those of ``estimate_user_rate`` at the same
    plan. ``r_sec`` is the user average of max(0, R_k - C_k). Its standard
    error is that of the per-block pairs psi_b = mean_k(dR_bk - dC_bk), with
    dR the delta-method linearization of the rate and dC_bk = log_rate_bk - C_k,
    so it carries the user/Eve and user/user correlations of the shared
    draw; it ignores the clip at zero.
    """
    sigma_e2 = _eve_floor(hw, alloc)

    def work(size, rng):
        blk = _draw_blocks(est, size, rng)
        terms = _user_terms(est, alloc, blk)
        terms["log_rate"] = _eve_log_rate(blk, alloc, hw.kappa_t_bs, sigma_e2)
        return terms

    parts = _run_chunks(plan, CHANNEL_BLOCK, work)
    orc, d_rate = _reduce_user_terms(parts, hw, alloc, est.stats.dims.m)
    log_rate = _stack(parts, "log_rate")
    orc.c_e, orc.c_e_se = _mean_se(log_rate)
    psi = np.mean(d_rate - (log_rate - orc.c_e), axis=1)
    orc.r_sec = float(np.mean(np.maximum(0.0, orc.rate - orc.c_e)))
    orc.r_sec_se = float(_se(psi))
    orc.meta.update(seed=plan.master_seed, sigma_e2=sigma_e2)
    return orc


# --------------------------------------------------------------------------
# eavesdropper oracle
# --------------------------------------------------------------------------

def estimate_eve_capacity(est: ChannelEstimator, hw: HardwareProfile,
                          alloc: PowerAllocation, plan: TrialPlan) -> OracleEstimates:
    """Per-user ergodic eavesdropper capacity under optimal combining.

    Solves the M_E x M_E interference-whitening system per block with the
    realized AN covariance and transmit-distortion profile. In the corner
    with neither AN nor transmit distortion the system is singular and a
    tiny thermal floor 1e-12 P_t is added (reported in meta).
    """
    sigma_e2 = _eve_floor(hw, alloc)

    def work(size, rng):
        blk = _draw_blocks(est, size, rng)
        return {"log_rate": _eve_log_rate(blk, alloc, hw.kappa_t_bs, sigma_e2)}

    parts = _run_chunks(plan, EVE_BLOCK, work)
    log_rate = _stack(parts, "log_rate")
    c_e, c_e_se = _mean_se(log_rate)
    return OracleEstimates(n_blocks=plan.n_blocks, c_e=c_e, c_e_se=c_e_se,
                           meta={"seed": plan.master_seed, "sigma_e2": sigma_e2})


@dataclass
class WishartMoments:
    """Empirical first/second moments of the eavesdropper's interference matrix."""

    tr_x_over_me: float
    tr_x_over_me_se: float
    offdiag_m2: float
    offdiag_m2_se: float
    n_blocks: int


def estimate_wishart_moments(est: ChannelEstimator, hw: HardwareProfile,
                             alloc: PowerAllocation, plan: TrialPlan) -> WishartMoments:
    """Moments of X = H_E^H (q V V^H + Ups_t) H_E for the matching check.

    Returns the first functional E{tr X}/M_E and the mean squared
    off-diagonal entry. For a Wishart law with scale phi and eta degrees
    of freedom they are eta phi and eta phi^2; they equal those of
    ``wishart_match`` only where its isotropy assumptions hold, i.e. when
    Q_E is a multiple of I.
    """
    def work(size, rng):
        x = _eve_interference(_draw_blocks(est, size, rng), alloc, hw.kappa_t_bs)
        m_e = x.shape[-1]
        tr_x = np.real(np.einsum("bee->b", x))
        off = np.abs(x) ** 2
        off[:, np.arange(m_e), np.arange(m_e)] = 0.0
        denom = max(m_e * (m_e - 1), 1)
        return {"tr_x": tr_x / m_e, "off_m2": np.sum(off, axis=(1, 2)) / denom}

    parts = _run_chunks(plan, EVE_BLOCK, work)
    tr_x = _stack(parts, "tr_x")
    off = _stack(parts, "off_m2")
    tr_mean, tr_se = _mean_se(tr_x)
    off_mean, off_se = _mean_se(off)
    return WishartMoments(
        tr_x_over_me=float(tr_mean), tr_x_over_me_se=float(tr_se),
        offdiag_m2=float(off_mean), offdiag_m2_se=float(off_se),
        n_blocks=plan.n_blocks,
    )
