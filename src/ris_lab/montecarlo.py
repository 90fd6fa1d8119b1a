"""Simulation oracle for every expectation the closed forms predict.

Each estimator draws independent coherence blocks (channels, RIS phase
errors, uplink distortion, noise), runs the pilot phase and the precoder
exactly as the system model defines them, and averages the per-block
quantities. Every ``Estimate`` carries its per-block influence and SE.

Blocks are processed in chunks of ``CHUNK_BLOCKS`` = 50 blocks (the last
one may be shorter), each with its own counter derived substream, and
chunk results are combined in index order, so the output is bit-identical
for any worker count.

An oracle call splits its points into draw runs (``_draw_runs``):
consecutive points whose statistics nest in the largest arrays among them.
A draw run factors the templates of its largest arrays once
(``geometry.template_factors``) and draws each chunk once, slab by slab, at
those arrays: the RIS grid and BS array of the point with the most elements
and antennas. A smaller point reads the draw's entries at its own elements
(``geometry.nested_elements``) and its leading antennas, which have its
exact law when its R_I and R_B are principal blocks of the largest
(``draw_grid``). R_I is compared by its inputs, the wavelength and the
spacings, as the statistics keep no R_I; R_B entry by entry. Square grids
at one spacing and exponential R_B nest exactly. The draw reads nothing
else of the statistics, so points may differ in their RIS phases, LoS
bridge and phase-error law: each applies its own to the draw. So a point is
bit-identical to itself alone at the same draw grid, not to itself alone:
alone it would draw at its own arrays. A point that does not nest starts
the next draw run, which draws at its own grid from the same chunk
streams: so points of two draw runs share random numbers too.

What points share below the draw is decided by object identity, once per
sweep, by ``experiments.build_setup``; in ``_chunk_terms`` consecutive points
on one statistics object share their channels, and consecutive points on one
estimator object share their pilot phase, estimate and precoders.

Stream layout of one chunk, at the largest arrays: the chunk stream
``derive_rng(master_seed, purpose, chunk)`` first gives the correlated
Gaussian links (``geometry.sample_realizations``), one slab of
``geometry.SLAB_BLOCKS`` blocks at a time (``geometry.slabs``), then the
pilot phase's Gaussians of the whole chunk (``estimation.pilot_gaussians``),
drawn once and scaled by the pilot phase of every estimator of the chunk.
The pilot phase is drawn where the estimator reads it, in the despread
domain: per block a K x K transmit-distortion part, then an M x K part for
receive distortion plus noise, whatever the pilot length. A slab's links are
the users' g_i and g_b, followed by Eve's g_ie and g_be, antenna-major, in
the secrecy oracle, which reads Eve's channel; the NMSE oracle draws only
the users' links. A correlated link's Gaussians are its coefficients in the
mirror sectors of R_I or R_B (``geometry.MirrorFactor``), which the sampler
colors and unfolds into the link. The RIS phase errors come from their
own substream, ``derive_rng(master_seed, purpose, chunk, PHASE_ERRORS)``,
restarted for each law: a law draws its errors at the largest grid from
that stream slab by slab, beside the slab's links, and numpy's von Mises
and uniform samplers take the stream one element at a time, so the slabs
hold the numbers of one (B, N) draw. ``geometry.aggregate_channels`` applies
them. Each slab's draw builds every point's rows of that slab into its
chunk-size channels at M antennas before the next slab is drawn, so a chunk
holds one slab's links and phase errors at the RIS size N, never the
chunk's. A law without phase errors draws nothing there, and its channels
skip exp(j theta).

The chunk thread pool is the only level of parallelism, and it runs at
every default size: the default 400-block run is eight chunks, a 1024-block
paper-scale run twenty chunks and one of 24 blocks. Importing this module
sets numpy's OpenBLAS to one thread, and scipy's too if the process has
already loaded it (ris_lab itself never imports scipy), so BLAS threads
never compete with the pool's workers for the CPUs. One thread works
chunks per CPU this process may use, at most 8; the RIS_LAB_THREADS
environment variable sets that count instead. The calling thread is one
of them, so one worker starts no pool, and W workers hold W malloc
arenas, not W + 1.

Every chunk runs through ``_chunk_terms``: it draws, builds the channels
and estimate of each estimator's group of points, and hands them to the
oracle's callback, which returns one dict of per-block terms per point.
``_oracle`` stacks each point's chunks into one table, which is reduced in
one place, ``_secrecy_estimates`` for the secrecy oracle, by the
operations of ``Estimate``. All batched contractions are BLAS matmuls over
the block axis.

The AN precoder V, an orthonormal basis of the null space of the
estimate, enters the model only through the AN covariance
q V V^H = q (I - Q Q^H), where Q is the thin M x K orthonormal basis of
span(h_hat). No kernel forms V: the AN-space component of x is
x - Q (Q^H x), so ||V^H h_k||^2 is the power of that projection of h_k,
Eve's AN term is q P^H P with P = (I - Q Q^H) H_E, and
diag(V V^H) = 1 - |rows of Q|^2. The projection form keeps the leakage
exactly zero under perfect CSI and every quadratic form PSD.

``estimate_secrecy(points, plan)`` is the one downlink oracle. Its
operating points (``OperatingPoint(est, hw, xi)`` or plain tuples) take K,
M and M_E from ``est.stats.dims``, P_t from the ``HardwareProfile`` ``hw``
and the powers (p, q) from ``precoding.stream_powers``.
``estimate_nmse(ests, plan)`` takes estimators, split into draw runs the
same way, on its own stream.

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
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .estimation import ChannelEstimator, pilot_gaussians, simulate_pilot_phase
from .geometry import (
    ChannelStatistics,
    aggregate_channels,
    nested_elements,
    sample_realizations,
    slabs,
    template_factors,
)
from .hardware import HardwareProfile
from .precoding import mrt_normalizers, mrt_precoder, stream_powers
from .precoding import null_space_an_batch  # noqa: F401 -- bench/tracer.py wraps this binding
from .streams import CHANNEL_BLOCK, NMSE_BLOCK, PHASE_ERRORS, derive_rng

# Fixed, so the chunking and with it every stream is the same for any worker
# count. 50 blocks split the default 400-block run into 8 equal chunks, so a
# pool of up to 8 workers (the worker_count() cap) has work for each; 128
# split it 3 x 128 + 16, unevenly over two workers, and ran slower. A
# worker's memory peak is one chunk's channels at M, one slab's draw and the
# per-point temporaries: against 100 blocks, 50 cut the bench workloads'
# peak RSS by 11-15% with CPU time flat, and 25 cut it 5-9% more but raised
# CPU time by up to 6% (BENCH_chunk_blocks.json, measured with the chunk's
# whole draw at N).
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
    """Threads that work Monte Carlo chunks, the calling thread included."""
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
    ``_oracle`` calls it once per draw run, with ``_chunk_terms`` as the
    work. The calling thread and up to ``worker_count() - 1`` pool threads
    take the chunks in index order from one queue. An exception raised in a
    chunk propagates once the other threads have emptied the queue.
    """
    pending = deque(plan.chunks())
    results = [None] * len(pending)
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                if not pending:
                    return
                idx, size = pending.popleft()
            results[idx] = work(size, (plan.master_seed, purpose, idx))

    helpers = min(worker_count(), len(pending)) - 1
    if helpers == 0:
        drain()
        return results
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for future in futures:
            future.result()
    return results


def _nests(small: ChannelStatistics, large: ChannelStatistics) -> bool:
    """Whether a draw at ``large``'s arrays gives ``small`` its exact law.

    K, M_E and the fading must be equal and small's arrays no larger: its
    RIS grid fits in large's (``nested_elements``) and M <= M'. At those
    elements and the leading M antennas, large's R_I and R_B must equal
    small's exactly. R_I is a function of the element positions and of
    ``ris_spec`` (wavelength and spacings), so at equal ``ris_spec`` (or
    both identity) a nested grid's R_I is the larger one's principal block;
    R_B's leading block is compared entry by entry. The draw reads nothing
    else: each point applies its own bridge H1 Phi and phase errors to it
    (``aggregate_channels``).
    """
    a, b = small.dims, large.dims
    if (a.k, a.m_e) != (b.k, b.m_e) or a.m > b.m or small.fading != large.fading:
        return False
    if nested_elements(a, b) is None or small.ris_spec != large.ris_spec:
        return False
    # np.array_equal also compares the None of an identity template
    return np.array_equal(small.r_b, None if large.r_b is None else large.r_b[:a.m, :a.m])


def draw_grid(*stats: ChannelStatistics) -> ChannelStatistics | None:
    """The statistics whose draw serves all of ``stats``; None if none does.

    That is the statistics with the largest (N, M), the first of them on a
    tie, provided every other nests in it (``_nests``): its RIS grid holds
    theirs at an equal ``ris_spec``, and its R_B's leading blocks equal theirs.
    So the statistics may also differ in the phase-error law, the RIS
    phases and the LoS bridge.
    """
    grid = max(stats, key=lambda s: (s.dims.n, s.dims.m))
    return grid if all(s is grid or _nests(s, grid) for s in stats) else None


def _draw_runs(ests) -> list:
    """``[grid, count]`` of each run of consecutive estimators that one draw serves.

    Greedy, in order: an estimator joins the current run while ``draw_grid``
    of the run's grid and its statistics finds one, the run's new grid;
    otherwise it starts the next run.
    """
    runs = []
    for est in ests:
        grid = draw_grid(runs[-1][0], est.stats) if runs else None
        if grid is None:
            runs.append([est.stats, 0])
        else:
            runs[-1][0] = grid
        runs[-1][1] += 1
    return runs


def _chunk_terms(points, terms, grid, factors, size: int, key: tuple, eve: bool) -> list:
    """One chunk's dict of per-block terms per point of ``points`` (tuples led by the estimator).

    Each group of consecutive points on one estimator object is estimated
    once and handed to ``terms(group, h, h_e, h_hat)``, without ``eve``
    ``terms(group, h, h_hat)``, which returns one dict of (B, K) arrays per
    point of the group. The Gaussians are drawn from ``grid``, the run's
    largest arrays, in the module's stream layout, and colored with its
    ``factors``. Each estimator reads its elements of the grid's RIS
    (``nested_elements``) and its leading antennas. Channels are built once
    per run of consecutive points on one statistics object: within one
    sweep, ``experiments.build_setup`` hands consecutive points of one link
    one statistics object, and equal statistics held as two objects build
    bit-identical channels, only twice. Each phase-error law keeps one
    restarted substream and draws its errors from it slab by slab; its
    samplers consume the stream one element at a time, so these are the
    numbers of one (B, N) draw.

    The links and the phase errors are drawn one slab of blocks at a time
    (``slabs``), and every build writes its rows of that slab into its
    chunk-size channels at M antennas before the next slab is drawn, so no
    chunk-size array at the RIS size N exists. An estimate lives only while
    its group's callback runs, and a build's channels until its last
    group's callback returns.
    """
    rng = derive_rng(*key)
    dims = grid.dims
    groups = [list(group) for _, group in groupby(points, key=lambda point: id(point[0]))]
    streams = {}            # phase-error law -> its restarted substream
    builds = deque()        # (stats, elements, channels) per run of one statistics object
    for est, *_ in points:
        stats = est.stats
        if builds and stats is builds[-1][0]:
            continue
        law = stats.phase_model
        if not law.is_ideal and law not in streams:
            streams[law] = derive_rng(*key, PHASE_ERRORS)
        own = stats.dims
        elements = None if own.n == dims.n else nested_elements(own, dims)
        shapes = [(own.k, own.m), (own.m_e, own.m)][:2 if eve else 1]
        builds.append((stats, elements,
                       [np.empty((size, *shape), dtype=complex) for shape in shapes]))
    for s in slabs(size):
        draws = sample_realizations(grid, rng, s.stop - s.start, eve=eve, factors=factors)
        thetas = {law: law.draw(stream, (s.stop - s.start, dims.n))
                  for law, stream in streams.items()}
        for stats, elements, out in builds:
            aggregate_channels(stats, draws, thetas.get(stats.phase_model),
                               elements=elements, out=[o[s] for o in out])
        del draws, thetas   # before the next slab is drawn
    g_t, g_w = pilot_gaussians(rng, (size, dims.k, dims.m))
    results = []
    for group in groups:
        est = group[0][0]
        if est.stats is not builds[0][0]:
            builds.popleft()        # the previous statistics' channels go
        h, *h_e = builds[0][2]
        # (h, h_e), h_e as the transposed view of its antenna-major layout
        channels = (h, *(np.swapaxes(x, 1, 2) for x in h_e))
        pilot_draw = (g_t, g_w[:, :est.stats.dims.m])
        results += terms(group, *channels, est.estimate(
            simulate_pilot_phase(h, est.pilots, pilot_draw)))
    return results


def _oracle(points, terms, plan: TrialPlan, purpose: int, eve: bool) -> list:
    """One table per point: each of its ``terms`` stacked over the chunks, in chunk order.

    Each draw run (``_draw_runs``) factors its grid's templates, so a skewed
    one is refused before any chunk draws, then is one ``_run_chunks``.
    """
    if not points:
        raise InvalidParameterError("need at least one estimator")
    tables = []
    for grid, count in _draw_runs([point[0] for point in points]):
        run, points = points[:count], points[count:]
        factors = template_factors(grid)
        chunks = _run_chunks(plan, purpose, lambda size, key: _chunk_terms(
            run, terms, grid, factors, size, key, eve))
        tables += [{name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
                   for parts in zip(*chunks)]
    return tables


class Estimate(NamedTuple):
    """A Monte Carlo estimate: its value and its per-block influence ``psi``.

    ``psi`` (blocks on axis 0) linearizes the estimate about the block means,
    up to a constant: a mean keeps its raw per-block values. Each operation
    applies the chain rule to it, so the correlations within a block carry,
    and the difference of two estimates of one call is block-paired.
    """

    value: np.ndarray | float
    psi: np.ndarray

    __array_ufunc__ = None      # a numpy scalar times an estimate defers to __rmul__

    @property
    def se(self):
        """Standard error of the mean of psi along axis 0; inf below two blocks."""
        n = self.psi.shape[0]
        if n < 2:
            return np.full(self.psi.shape[1:], np.inf)
        return np.std(self.psi, axis=0, ddof=1) / np.sqrt(n)

    def __add__(self, other):
        if isinstance(other, Estimate):
            return Estimate(self.value + other.value, self.psi + other.psi)
        return Estimate(self.value + other, self.psi)

    def __sub__(self, other):
        return self + -1.0 * other

    def __rmul__(self, scale):
        """scale * self, centred first, so a sum of scaled means carries none of their means."""
        return Estimate(scale * self.value, scale * (self.psi - np.mean(self.psi, axis=0)))

    def over(self, other):
        ratio = self.value / other.value
        return Estimate(ratio, (self.psi - ratio * other.psi) / other.value)

    def abs2(self):
        """|self|^2 of a complex estimate: 2|v| times the influence along v's direction."""
        mag = np.abs(self.value)
        proj = np.real(self.psi * np.conj(self.value / np.where(mag > 0, mag, 1.0)))
        return Estimate(mag ** 2, 2.0 * mag * (proj - np.mean(proj, axis=0)))

    def log2_1p_over(self, den, scale: float):
        """log2(1 + scale * self / den), by its log-derivative; a zero self has no influence."""
        gamma = scale * self.value / den.value
        return Estimate(np.log2(1.0 + gamma), gamma / ((1.0 + gamma) * np.log(2.0)) * (
            self.psi / np.maximum(self.value, 1e-300) - den.psi / den.value))

    def user_mean(self):
        """Average over the users, the last axis."""
        return Estimate(np.mean(self.value, axis=-1), np.mean(self.psi, axis=-1))


def _mean(values: np.ndarray) -> Estimate:
    """The block mean of per-block ``values``, blocks on axis 0."""
    return Estimate(np.mean(values, axis=0), values)


@dataclass
class OracleEstimates:
    """Monte Carlo estimates, each an ``Estimate`` (value and per-block influence).

    Per-user values have length K. ``estimate_nmse`` fills the NMSE;
    ``estimate_secrecy`` the user-rate terms of the Theorem-1 decomposition,
    Eve's capacity and the secrecy rate. It holds estimates only; Eve's
    thermal floor is ``_eve_floor(hw, q)``.
    """

    nmse: Estimate | None = None
    rate: Estimate | None = None
    signal: Estimate | None = None
    interference: Estimate | None = None
    variance: Estimate | None = None
    an_leakage: Estimate | None = None
    hwi: Estimate | None = None
    c_e: Estimate | None = None
    r_sec: Estimate | None = None       # user average of max(0, rate - c_e)


# --------------------------------------------------------------------------
# channel estimation oracle
# --------------------------------------------------------------------------

def _nmse_terms(group: list, h: np.ndarray, h_hat: np.ndarray) -> list:
    """NMSE callback: per-block squared error and channel energy of every user, per point."""
    h = np.swapaxes(h, 1, 2)                          # (B, M, K)
    return [{"err2": np.sum(np.abs(h - h_hat) ** 2, axis=1),
             "mag2": np.sum(np.abs(h) ** 2, axis=1)}] * len(group)


def estimate_nmse(ests, plan: TrialPlan) -> list[OracleEstimates]:
    """Empirical NMSE of LMMSE estimators over impaired pilot blocks.

    One ``OracleEstimates`` is returned per estimator of ``ests``, in
    order, each bit-identical to the estimate of that estimator alone at
    the same draw grid. The estimators of one draw run (``_draw_runs``)
    share its random numbers, such as those of one link at several pilot
    powers or pilot lengths (both live in the ``PilotConfig``, not in the
    statistics, and the despread draw depends on neither), or of nested RIS
    grids. Each chunk draws only the users' links, once per draw run and slab.
    Each NMSE is the ratio of the block means of squared error and channel energy.
    """
    return [OracleEstimates(nmse=_mean(table["err2"]).over(_mean(table["mag2"])))
            for table in _oracle([(est,) for est in ests], _nmse_terms, plan, NMSE_BLOCK,
                                 eve=False)]


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


def _blocks(est: ChannelEstimator, h: np.ndarray, h_e: np.ndarray,
            h_hat: np.ndarray) -> _Blocks:
    """One chunk's ``_Blocks`` of ``est``: its channels and estimate with the precoders."""
    return _Blocks(h=h, h_e=h_e, h_hat=h_hat, w=mrt_precoder(h_hat, est),
                   q_hat=np.linalg.qr(h_hat)[0])


def _row_power(a: np.ndarray) -> np.ndarray:
    """sum_j |a[..., j]|^2, as a real dot product of the interleaved parts."""
    parts = a.view(np.float64)
    return np.einsum("...j,...j->...", parts, parts)


def _an_component(q_hat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x - Q (Q^H x) = (I - Q Q^H) x, the AN-space part of stacked (B, M, J) x."""
    t = q_hat @ (np.swapaxes(q_hat, 1, 2).conj() @ x)
    return np.subtract(x, t, out=t)


def _transmit_diag(blk: _Blocks, p: float, q: float) -> np.ndarray:
    """Per-antenna transmit power diag(p W W^H + q V V^H), shape (B, M)."""
    return p * _row_power(blk.w) + q * (1.0 - _row_power(blk.q_hat))


def _user_terms(est: ChannelEstimator, blk: _Blocks) -> dict:
    """Per-block SINR terms of every user, (B, K) arrays kept until the reduction."""
    h_conj = blk.h.conj()                             # (B, K, M)
    h = np.swapaxes(blk.h, 1, 2)                      # (B, M, K)

    g = h_conj @ blk.w                                # g[b,k,i] = h_k^H w_i
    power = np.abs(_an_component(blk.q_hat, h))       # one float buffer for both powers
    an = np.sum(np.square(power, out=power), axis=1)  # ||V^H h_k||^2
    # reused in h's memory layout, which fixes the order of the sum over M
    power = np.swapaxes(power.reshape(blk.h.shape), 1, 2)
    hn2 = np.sum(np.square(np.abs(h, out=power), out=power), axis=1)  # ||h_k||^2
    del power

    abs_g2 = np.abs(g)
    np.square(abs_g2, out=abs_g2)
    s1 = np.diagonal(g, axis1=1, axis2=2).copy()      # h_k^H w_k; a view would keep g
    inter = np.sum(abs_g2, axis=2) - np.abs(s1) ** 2  # sum_{i != k} |h_k^H w_i|^2

    err = h - blk.h_hat
    ehat = np.einsum("bmk,bmk->bk", np.conjugate(err, out=err), blk.h_hat)
    var_err = np.abs(ehat) ** 2 / mrt_normalizers(est)[None, :]
    return {"s1": s1, "inter": inter, "an": an, "hn2": hn2, "var_err": var_err}


def _eve_interference(blk: _Blocks, h_e_h: np.ndarray, p: float, q: float,
                      kappa_t_bs: float) -> np.ndarray:
    """Eve's interference matrix X = H_E^H (q V V^H + Ups_t) H_E, (B, M_E, M_E).

    ``h_e_h`` is H_E^H, (B, M_E, M); it is scaled in place by the transmit
    diagonal, so the caller reads it first.
    """
    p_e = _an_component(blk.q_hat, blk.h_e)           # P = (I - Q Q^H) H_E
    x = q * (np.swapaxes(p_e, 1, 2).conj() @ p_e)
    h_e_h *= _transmit_diag(blk, p, q)[:, None, :]
    x += kappa_t_bs * (h_e_h @ blk.h_e)
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
    h_e_h = np.swapaxes(blk.h_e, 1, 2).conj()         # H_E^H, (B, M_E, M)
    f = h_e_h @ blk.w                                 # H_E^H w_k
    x = _eve_interference(blk, h_e_h, p, q, kappa_t_bs)
    if sigma_e2 > 0.0:
        x += sigma_e2 * np.eye(x.shape[-1])[None, :, :]
    sol = np.linalg.solve(x, f)
    gamma = p * np.real(np.einsum("bek,bek->bk", f.conj(), sol))
    return np.log2(1.0 + np.maximum(gamma, 0.0))


def _secrecy_estimates(table: dict, est: ChannelEstimator, hw: HardwareProfile,
                       xi: float) -> OracleEstimates:
    """One point's secrecy estimates from its table of per-block terms."""
    dims = est.stats.dims
    p, q = stream_powers(hw.p_t, xi, dims.k, dims.m)
    signal, inter, variance, an, hn2, c_e = (_mean(table[name]) for name in (
        "s1", "inter", "var_err", "an", "hn2", "log_rate"))
    signal = signal.abs2()
    hwi = (hw.kappa_t_bs + hw.kappa_r_ue) * hw.p_t / dims.m * hn2
    den = p * inter + p * variance + q * an + hwi + hw.sigma_k2
    rate = signal.log2_1p_over(den, p)
    r_sec = Estimate(float(np.mean(np.maximum(0.0, rate.value - c_e.value))),
                     (rate - c_e).user_mean().psi)
    return OracleEstimates(rate=rate, signal=signal, interference=inter, variance=variance,
                           an_leakage=an, hwi=hwi, c_e=c_e, r_sec=r_sec)


def _point_terms(group: list, h: np.ndarray, h_e: np.ndarray, h_hat: np.ndarray) -> list:
    """Secrecy callback: per-block terms of each ``(est, hw, xi)`` of ``group``, one estimator."""
    est = group[0][0]
    blk = _blocks(est, h, h_e, h_hat)
    terms = _user_terms(est, blk)                     # shared by the group's points
    powers = [(hw, *stream_powers(hw.p_t, xi, est.stats.dims.k, est.stats.dims.m))
              for _, hw, xi in group]
    return [{**terms, "log_rate": _eve_log_rate(blk, p, q, hw.kappa_t_bs, _eve_floor(hw, q))}
            for hw, p, q in powers]


class OperatingPoint(NamedTuple):
    """One grid point of the secrecy oracle; the statistics are ``est.stats``.

    ``xi`` is the data fraction of the hardware profile's P_t.
    """

    est: ChannelEstimator
    hw: HardwareProfile
    xi: float


def estimate_secrecy(points, plan: TrialPlan) -> list[OracleEstimates]:
    """User-rate terms, eavesdropper capacities and secrecy rates of operating points.

    ``points`` holds ``OperatingPoint``s, or plain ``(est, hw, xi)`` tuples;
    one ``OracleEstimates`` is returned per point, in order, each
    bit-identical to the estimate of that point alone at the same draw grid.
    The points of one draw run (``_draw_runs``) share every random number
    but the phase errors, so their differences (``a.r_sec - b.r_sec``) are
    far less noisy than their standard errors. Consecutive points with one
    estimator object share its pilot phase, precoders and user terms
    (``_point_terms``). Each point's table of per-block terms is reduced by
    ``_secrecy_estimates``.

    Eve's log-rate comes from the M_E x M_E interference-whitening solve,
    with ``_eve_floor(hw, q)`` where that system is singular. ``r_sec`` is
    the user average of max(0, R_k - C_k); its influence is the per-block
    psi_b = mean_k(dR_bk - dC_bk), dR and dC the influences of the rate and
    of C_k, so it carries the user/Eve and user/user correlations of the
    draw; it ignores the clip.
    """
    points = list(points)
    tables = _oracle(points, _point_terms, plan, CHANNEL_BLOCK, eve=True)
    return [_secrecy_estimates(table, *point) for point, table in zip(points, tables)]


def estimate_user_rate(est: ChannelEstimator, hw: HardwareProfile, xi: float,
                       plan: TrialPlan) -> OracleEstimates:
    """``estimate_secrecy`` at one point; kept because the benchmark tracer wraps it."""
    return estimate_secrecy([(est, hw, xi)], plan)[0]


def estimate_eve_capacity(est: ChannelEstimator, hw: HardwareProfile, xi: float,
                          plan: TrialPlan) -> OracleEstimates:
    """``estimate_secrecy`` at one point; kept because the benchmark tracer wraps it."""
    return estimate_secrecy([(est, hw, xi)], plan)[0]
