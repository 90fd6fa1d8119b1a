"""Simulation oracle for every expectation the closed forms predict.

Each estimator draws independent coherence blocks (channels, RIS phase
errors, uplink distortion, noise), runs the pilot phase and the precoder
exactly as the system model defines them, and averages the per-block
quantities. Every estimate carries a standard error.

Blocks are processed in chunks of ``CHUNK_BLOCKS`` = 50 blocks (the last
one may be shorter), each with its own counter derived substream, and
chunk results are combined in index order, so the output is bit-identical
for any worker count.

One call draws once per chunk, at its largest arrays: the RIS grid and BS
array of the point with the most elements and antennas. A smaller point
reads the draw's entries at its own elements (``geometry.nested_elements``)
and its leading antennas, which have its exact law when its R_I and R_B are
principal blocks of the largest (``draw_grid``); half-wavelength square
grids and exponential R_B nest exactly. So a point is bit-identical to
itself alone at the same draw grid, not to itself alone: alone it would
draw at its own arrays.

Stream layout of one chunk, at the largest arrays: the chunk stream
``derive_rng(master_seed, purpose, chunk)`` first gives the correlated
Gaussian links (``geometry.sample_realizations``), then the pilot phase's
Gaussians (``estimation.pilot_gaussians``), drawn once and scaled by the
pilot phase of every estimator of the chunk. The pilot phase is drawn
where the estimator reads it, in the despread domain: per block a K x K
transmit-distortion part, then an M x K part for receive distortion plus
noise, whatever the pilot length. The links are the users' g_i and g_b,
followed by Eve's g_ie and g_be in the secrecy oracle, which reads Eve's
channel; the NMSE oracle draws only the users' links, so its pilot
Gaussians follow g_b. The RIS phase errors come from their own
substream, ``derive_rng(master_seed, purpose, chunk, PHASE_ERRORS)``, one
(B, N) draw per law at the largest grid, and are applied by
``geometry.aggregate_channels``, which builds each point's channels from
its part of the draw in slabs of blocks and writes nothing into the draw,
so the draw is the only full-size copy of the links a chunk holds. A law
without phase errors draws nothing there, and its channels skip the
rotation.

The chunk thread pool is the only level of parallelism, and it runs at
every default size: the default 400-block run is eight chunks, a 1024-block
paper-scale run twenty chunks and one of 24 blocks. Importing this module
sets numpy's OpenBLAS to one thread, and scipy's too if the process has
already loaded it (ris_lab itself never imports scipy), so BLAS threads
never compete with the pool's workers for the CPUs. The pool runs one
worker per CPU this process may use, at most 8; the RIS_LAB_THREADS
environment variable sets the worker count instead.

Every secrecy pass shares one prefix per chunk (channel draw, pilot
phase, estimate, MRT precoder and the thin QR factor Q of the estimate),
then computes the user terms and Eve's rate. All batched contractions
are BLAS matmuls over the block axis.

The AN precoder V, an orthonormal basis of the null space of the
estimate, enters the model only through the AN covariance
q V V^H = q (I - Q Q^H), where Q is the thin M x K orthonormal basis of
span(h_hat). No kernel forms V: the AN-space component of x is
x - Q (Q^H x), so ||V^H h_k||^2 is the power of that projection of h_k,
Eve's AN term is q P^H P with P = (I - Q Q^H) H_E, and
diag(V V^H) = 1 - |rows of Q|^2. The projection form keeps the leakage
exactly zero under perfect CSI and every quadratic form PSD.

``estimate_secrecy(points, plan)`` is the one downlink oracle. Its
operating points ``(est, hw, xi)`` take K, M and M_E from
``est.stats.dims``, P_t from the ``HardwareProfile`` ``hw`` and the powers
(p, q) from ``precoding.stream_powers``; all points must nest in the
largest arrays of the call, which draw for them. ``estimate_nmse(ests,
plan)`` takes the estimators of one draw in the same way, on its own stream.

Model note: the user-rate terms keep the channel-hardening bookkeeping of
the Theorem-1 bound. The downlink HWI power uses the per-antenna transmit
covariance in its large-array deterministic limit P_t/M * I (the regime in
which the closed forms are derived) with the measured channel energy; the
per-realization covariance p W W^H + q V V^H is used where it appears as
an actual matrix, in the eavesdropper's interference.
"""
from __future__ import annotations

import ctypes
import importlib.util
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .estimation import ChannelEstimator, pilot_gaussians, simulate_pilot_phase
from .geometry import (
    ChannelStatistics,
    SystemDimensions,
    aggregate_channels,
    nested_elements,
    sample_realizations,
)
from .hardware import HardwareProfile
from .precoding import mrt_normalizers, mrt_precoder, stream_powers
from .precoding import null_space_an_batch  # noqa: F401 -- bench/tracer.py wraps this binding
from .streams import CHANNEL_BLOCK, NMSE_BLOCK, PHASE_ERRORS, derive_rng

# Fixed, so the chunking and with it every stream is the same for any worker
# count. 50 blocks split the default 400-block run into 8 equal chunks, so a
# pool of up to 8 workers (the worker_count() cap) has work for each; 128
# split it 3 x 128 + 16, unevenly over two workers, and ran slower. A
# worker's memory peak is one chunk's draw and its per-point temporaries:
# against 100 blocks, 50 cut the bench workloads' peak RSS by 11-15% with
# CPU time flat, and 25 cut it 5-9% more but raised CPU time by up to 6%
# (BENCH_chunk_blocks.json).
CHUNK_BLOCKS = 50
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
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(8, cpus)


# Thread-control symbols of the OpenBLAS in numpy and scipy wheels: numpy 2
# ships ``scipy_openblas_*64_``, recent scipy ``scipy_openblas_*``, and the
# older wheels that pyproject still admits the plain ``openblas_*`` names.
_OPENBLAS_SYMBOLS = [(f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
                     for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def _pin_openblas() -> dict:
    """Set each OpenBLAS that numpy or scipy has loaded to one thread.

    Returns the thread-count getter of every pinned library, by file
    name; empty when no bundled OpenBLAS is loaded. RTLD_NOLOAD reaches
    only libraries already in the process, never loads one.
    """
    libs_dirs = [Path(np.__file__).parent.with_name("numpy.libs")]
    scipy_spec = importlib.util.find_spec("scipy")     # locates scipy, does not import it
    if scipy_spec is not None and scipy_spec.origin:
        libs_dirs.append(Path(scipy_spec.origin).parent.with_name("scipy.libs"))
    getters = {}
    for libs_dir in libs_dirs:
        for path in sorted(libs_dir.glob("*openblas*.so")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            for set_name, get_name in _OPENBLAS_SYMBOLS:
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    setter(1)
                    getters[path.name] = getter
                    break
    return getters


# numpy's library is loaded with numpy; scipy's only if the process
# imported a compiled part of scipy before ris_lab.
_PINNED_BLAS = _pin_openblas()


def blas_threads() -> dict | None:
    """Thread count each pinned OpenBLAS reports, by file; None if none was found."""
    return {name: get() for name, get in _PINNED_BLAS.items()} or None


def _run_chunks(plan: TrialPlan, purpose: int, work):
    """Run ``work(chunk_size, key)`` over all chunks, results in chunk order.

    ``key`` is the chunk's spawn key (master_seed, purpose, chunk index).
    """
    chunks = plan.chunks()
    threads = worker_count()
    if threads == 1 or len(chunks) == 1:
        return [work(size, (plan.master_seed, purpose, idx)) for idx, size in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(work, size, (plan.master_seed, purpose, idx))
                   for idx, size in chunks]
        return [f.result() for f in futures]


def _principal_block(full: np.ndarray | None, index) -> np.ndarray | None:
    """Rows and columns ``index`` (a slice or an index array) of a template; None stays None."""
    if full is None or isinstance(index, slice):
        return full if full is None else full[index, index]
    return full[np.ix_(index, index)]


def _nests(small: ChannelStatistics, large: ChannelStatistics) -> bool:
    """Whether a draw at ``large``'s arrays gives ``small`` its exact law.

    K, M_E and the fading must be equal and small's arrays no larger: its
    RIS grid fits in large's (``nested_elements``) and M <= M'. At those
    elements and the leading M antennas, large's R_I, phases phi and R_B
    must equal small's exactly.
    """
    a, b = small.dims, large.dims
    if (a.k, a.m_e) != (b.k, b.m_e) or a.m > b.m or small.fading != large.fading:
        return False
    ris = nested_elements(a, b)
    if ris is None:
        return False
    if a.n == b.n:
        ris = slice(None)           # the same grid: compare without copies
    # np.array_equal also compares the None of an identity template
    return (np.array_equal(small.phi, large.phi[ris])
            and np.array_equal(small.r_i, _principal_block(large.r_i, ris))
            and np.array_equal(small.r_b, _principal_block(large.r_b, slice(a.m))))


def draw_grid(a: ChannelStatistics, b: ChannelStatistics) -> ChannelStatistics | None:
    """The statistics whose draw serves both, those with the larger arrays; None if none does.

    The smaller arrays must nest in the larger (``_nests``); the statistics
    may also differ in the phase-error law and the LoS bridge. Of equal
    arrays, ``a`` draws.
    """
    if a is b:
        return a
    small, large = (a, b) if (b.dims.n, b.dims.m) > (a.dims.n, a.dims.m) else (b, a)
    return large if _nests(small, large) else None


def same_channels(a: ChannelStatistics, b: ChannelStatistics) -> bool:
    """Whether statistics that share a draw build the same channels from it.

    The channels depend on the phase-error law, the arrays, the LoS bridge
    and the RIS phases; the rest of a shared draw's statistics is equal.
    """
    return (a.phase_model == b.phase_model and a.dims == b.dims
            and np.array_equal(a.h1, b.h1) and np.array_equal(a.phi, b.phi))


def _draw_grid(ests) -> ChannelStatistics:
    """The statistics whose draw serves every estimator (``draw_grid``); raises if none does."""
    if not ests:
        raise InvalidParameterError("need at least one estimator")
    grid = ests[0].stats
    for est in ests[1:]:
        grid = draw_grid(grid, est.stats)
        if grid is None:
            raise InvalidParameterError("the statistics of the estimators of one call may "
                                        "differ only in their phase-error law, LoS bridge "
                                        "and nested array sizes")
    return grid


def _nested_channels(stats: ChannelStatistics, grid: SystemDimensions, draws: dict,
                     theta: np.ndarray | None):
    """Channels (h, h_e) of ``stats`` from a draw and phase errors at the arrays ``grid``.

    ``stats`` reads the draw's elements of its RIS grid (``nested_elements``;
    all of them at the grid itself) and its leading M antennas, which
    ``aggregate_channels`` gathers slab by slab; the draw is left as it is.
    """
    elements = None if stats.dims.n == grid.n else nested_elements(stats.dims, grid)
    return aggregate_channels(stats, draws, theta, elements=elements)


def _chunk_channels(ests, grid: ChannelStatistics, size: int, key: tuple, eve: bool):
    """Per estimator in turn: (h, h_e, h_hat) of one chunk, in the module's stream layout.

    The Gaussians are drawn once, from ``grid``, the statistics with the
    largest arrays (``_draw_grid``): the links (Eve's only with ``eve``; h_e
    is None without), then the pilot phase's. Each estimator reads its
    elements and antennas of them. Channels are rebuilt where
    ``same_channels`` fails between consecutive estimators; each phase-error
    law draws its errors at the grid once, from the restarted substream. The
    previous estimate and channels are released before the next are built.
    No build writes into the draw, which is released after the last build.
    """
    rng = derive_rng(*key)
    draws = sample_realizations(grid, rng, size, eve=eve)
    g_t, g_w = pilot_gaussians(rng, (size, grid.dims.k, grid.dims.m))
    builds = [i for i, est in enumerate(ests)
              if i == 0 or not same_channels(ests[i - 1].stats, est.stats)]
    thetas = {}             # phase-error law -> its (B, N) errors at the grid
    for i, est in enumerate(ests):
        stats = est.stats
        if i in builds:
            channels = None
            law = stats.phase_model
            if not law.is_ideal and law not in thetas:
                thetas[law] = law.draw(derive_rng(*key, PHASE_ERRORS), (size, grid.dims.n))
            channels = _nested_channels(stats, grid.dims, draws, thetas.get(law))
            if i == builds[-1]:
                del draws, thetas   # the later estimators run without them
        pilot_draw = (g_t, g_w[:, :stats.dims.m])
        h_hat = est.estimate(simulate_pilot_phase(channels[0], est.pilots, pilot_draw))
        yield *channels, h_hat
        del h_hat


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

    Per-user arrays have length K. ``estimate_nmse`` fills the NMSE;
    ``estimate_secrecy`` the user-rate terms of the Theorem-1 decomposition,
    Eve's capacity and the secrecy rate. It holds estimates only; Eve's
    thermal floor is ``_eve_floor(hw, q)``.
    """

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
    r_sec: float | None = None         # user average of max(0, rate - c_e)
    r_sec_se: float | None = None


# --------------------------------------------------------------------------
# channel estimation oracle
# --------------------------------------------------------------------------

def estimate_nmse(ests, plan: TrialPlan) -> list[OracleEstimates]:
    """Empirical NMSE of LMMSE estimators over impaired pilot blocks.

    ``ests`` holds estimators that one draw serves (``draw_grid``), such
    as those of one link at several pilot powers or pilot lengths (both
    live in the ``PilotConfig``, not in the statistics, and the despread
    draw depends on neither), or of nested RIS grids. One
    ``OracleEstimates`` is returned per estimator, in order, each
    bit-identical to the estimate of that estimator alone at the same draw
    grid. Each chunk draws only the users' links, once for all of them.
    """
    ests = list(ests)
    grid = _draw_grid(ests)

    def work(size, key):
        parts = []
        for h, _, h_hat in _chunk_channels(ests, grid, size, key, eve=False):
            h = np.swapaxes(h, 1, 2)                  # (B, M, K)
            parts.append({"err2": np.sum(np.abs(h - h_hat) ** 2, axis=1),
                          "mag2": np.sum(np.abs(h) ** 2, axis=1)})
        return parts

    out = []
    for parts in zip(*_run_chunks(plan, NMSE_BLOCK, work)):
        nmse_hat, nmse_se = _ratio_se(_stack(parts, "err2"), _stack(parts, "mag2"))
        out.append(OracleEstimates(nmse=nmse_hat, nmse_se=nmse_se))
    return out


# --------------------------------------------------------------------------
# secrecy oracle: user-rate terms, Eve's capacity and the secrecy rate
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


def _chunk_blocks(ests, grid: ChannelStatistics, size: int, key: tuple):
    """Per estimator: one chunk's ``_Blocks``, from the layout of ``_chunk_channels``.

    Keeps no reference to one estimator's blocks while building the next.
    """
    channels = _chunk_channels(ests, grid, size, key, eve=True)
    for est in ests:
        h, h_e, h_hat = next(channels)
        blk = _Blocks(h=h, h_e=h_e, h_hat=h_hat, w=mrt_precoder(h_hat, est),
                      q_hat=np.linalg.qr(h_hat)[0])
        del h, h_e, h_hat
        yield blk
        del blk


def _row_power(a: np.ndarray) -> np.ndarray:
    """sum_j |a[..., j]|^2, as a real dot product of the interleaved parts."""
    parts = a.view(np.float64)
    return np.einsum("...j,...j->...", parts, parts)


def _an_component(q_hat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x - Q (Q^H x) = (I - Q Q^H) x, the AN-space part of stacked (B, M, J) x."""
    return x - q_hat @ (np.swapaxes(q_hat, 1, 2).conj() @ x)


def _transmit_diag(blk: _Blocks, p: float, q: float) -> np.ndarray:
    """Per-antenna transmit power diag(p W W^H + q V V^H), shape (B, M)."""
    return p * _row_power(blk.w) + q * (1.0 - _row_power(blk.q_hat))


def _user_terms(est: ChannelEstimator, blk: _Blocks) -> dict:
    """Per-block SINR terms of every user."""
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
    return {"s1": s1, "inter": inter, "an": an, "hn2": hn2, "var_err": var_err}


def _eve_interference(blk: _Blocks, p: float, q: float,
                      kappa_t_bs: float) -> np.ndarray:
    """Eve's interference matrix X = H_E^H (q V V^H + Ups_t) H_E, (B, M_E, M_E)."""
    h_e_h = np.swapaxes(blk.h_e, 1, 2).conj()         # (B, M_E, M)
    p_e = _an_component(blk.q_hat, blk.h_e)           # P = (I - Q Q^H) H_E
    x = q * (np.swapaxes(p_e, 1, 2).conj() @ p_e)
    x += kappa_t_bs * ((h_e_h * _transmit_diag(blk, p, q)[:, None, :]) @ blk.h_e)
    return x


def _eve_floor(hw: HardwareProfile, q: float) -> float:
    """Thermal floor of Eve's whitening solve: 1e-12 P_t where it is singular.

    With neither AN (q = 0) nor transmit distortion Eve's interference
    matrix is zero.
    """
    if q == 0.0 and hw.kappa_t_bs == 0.0:
        return 1e-12 * hw.p_t
    return 0.0


def _eve_log_rate(blk: _Blocks, p: float, q: float, kappa_t_bs: float,
                  sigma_e2: float) -> np.ndarray:
    """Per-block log2(1 + SINR) of Eve under optimal combining, shape (B, K)."""
    x = _eve_interference(blk, p, q, kappa_t_bs)
    f = np.swapaxes(blk.h_e, 1, 2).conj() @ blk.w     # H_E^H w_k
    if sigma_e2 > 0.0:
        x += sigma_e2 * np.eye(x.shape[-1])[None, :, :]
    sol = np.linalg.solve(x, f)
    gamma = p * np.real(np.einsum("bek,bek->bk", f.conj(), sol))
    return np.log2(1.0 + np.maximum(gamma, 0.0))


def _reduce_user_terms(parts: list, hw: HardwareProfile, p: float, q: float,
                       m: int) -> tuple[OracleEstimates, np.ndarray]:
    """Rate estimates from the chunks' per-block user terms.

    Returns the estimates and the per-block delta-method linearization of
    each user's rate about the block means, shape (B, K), whose mean is zero.
    The rate's standard error is that of the linearization, so it carries
    the correlations between the terms of one block.
    """
    s1 = _stack(parts, "s1")
    inter = _stack(parts, "inter")
    an = _stack(parts, "an")
    hn2 = _stack(parts, "hn2")
    var_err = _stack(parts, "var_err")

    s1_mean = np.mean(s1, axis=0)
    signal = np.abs(s1_mean) ** 2
    # Delta method for |mean|^2: project fluctuations on the mean direction.
    unit = s1_mean / np.where(np.abs(s1_mean) > 0, np.abs(s1_mean), 1.0)
    proj = np.real(s1 * unit.conj())
    signal_se = 2.0 * np.abs(s1_mean) * _se(proj)

    variance, variance_se = _mean_se(var_err)
    inter_mean, inter_se = _mean_se(inter)
    an_mean, an_se = _mean_se(an)
    hn2_mean, hn2_se = _mean_se(hn2)
    hwi_scale = (hw.kappa_t_bs + hw.kappa_r_ue) * hw.p_t / m
    hwi = hwi_scale * hn2_mean
    hwi_se = hwi_scale * hn2_se

    den = (p * inter_mean + p * variance + q * an_mean
           + hwi + hw.sigma_k2)
    gamma = p * signal / den
    rate = np.log2(1.0 + gamma)

    d_signal = 2.0 * np.abs(s1_mean) * (proj - np.mean(proj, axis=0))
    d_den = (p * (inter - inter_mean) + p * (var_err - variance)
             + q * (an - an_mean) + hwi_scale * (hn2 - hn2_mean))
    d_rate = (gamma / ((1.0 + gamma) * np.log(2.0))
              * (d_signal / np.maximum(signal, 1e-300) - d_den / den))

    orc = OracleEstimates(
        rate=rate, rate_se=_se(d_rate),
        signal=signal, signal_se=signal_se,
        interference=inter_mean, interference_se=inter_se,
        variance=variance, variance_se=variance_se,
        an_leakage=an_mean, an_leakage_se=an_se,
        hwi=hwi, hwi_se=hwi_se,
    )
    return orc, d_rate


def estimate_secrecy(points, plan: TrialPlan) -> list[OracleEstimates]:
    """User-rate terms, eavesdropper capacities and secrecy rates of operating points.

    ``points`` holds operating points ``(est, hw, xi)`` that one draw serves
    (``draw_grid``); one ``OracleEstimates`` is returned per point, in
    order, each bit-identical to the estimate of that point alone at the
    same draw grid. The points share every random number but the phase
    errors (see ``_chunk_channels``), so their differences are far less
    noisy than their standard errors. The user terms run once per run of
    consecutive points with one estimator.

    Eve's log-rate comes from the M_E x M_E interference-whitening solve,
    with ``_eve_floor(hw, q)`` where that system is singular. ``r_sec`` is
    the user average of max(0, R_k - C_k); its standard error is that of the
    per-block psi_b = mean_k(dR_bk - dC_bk), dR the delta-method
    linearization of the rate and dC_bk = log_rate_bk - C_k, so it carries
    the user/Eve and user/user correlations of the draw; it ignores the clip.
    """
    points = list(points)
    grid = _draw_grid([est for est, _, _ in points])
    runs = []       # (estimator, [(hw, p, q), ...]): consecutive points with one estimator
    for est, hw, xi in points:
        dims = est.stats.dims
        op = (hw, *stream_powers(hw.p_t, xi, dims.k, dims.m))
        if runs and runs[-1][0] is est:
            runs[-1][1].append(op)
        else:
            runs.append((est, [op]))

    def work(size, key):
        parts = []
        blocks = _chunk_blocks([est for est, _ in runs], grid, size, key)
        for est, ops in runs:
            blk = next(blocks)
            terms = _user_terms(est, blk)
            parts += [{**terms, "log_rate": _eve_log_rate(blk, p, q, hw.kappa_t_bs,
                                                          _eve_floor(hw, q))}
                      for hw, p, q in ops]
            del blk
        return parts

    out = []
    ops = [(est.stats.dims.m, op) for est, run_ops in runs for op in run_ops]
    for (m, (hw, p, q)), parts in zip(ops, zip(*_run_chunks(plan, CHANNEL_BLOCK, work))):
        orc, d_rate = _reduce_user_terms(parts, hw, p, q, m)
        log_rate = _stack(parts, "log_rate")
        orc.c_e, orc.c_e_se = _mean_se(log_rate)
        psi = np.mean(d_rate - (log_rate - orc.c_e), axis=1)
        orc.r_sec = float(np.mean(np.maximum(0.0, orc.rate - orc.c_e)))
        orc.r_sec_se = float(_se(psi))
        out.append(orc)
    return out


def estimate_user_rate(est: ChannelEstimator, hw: HardwareProfile, xi: float,
                       plan: TrialPlan) -> OracleEstimates:
    """``estimate_secrecy`` at one point; kept because the benchmark tracer wraps it."""
    return estimate_secrecy([(est, hw, xi)], plan)[0]


def estimate_eve_capacity(est: ChannelEstimator, hw: HardwareProfile, xi: float,
                          plan: TrialPlan) -> OracleEstimates:
    """``estimate_secrecy`` at one point; kept because the benchmark tracer wraps it."""
    return estimate_secrecy([(est, hw, xi)], plan)[0]
