"""Monte Carlo oracle: reproducibility, term validation, bound property."""
import dataclasses
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import ris_lab as rl
from ris_lab import montecarlo
from ris_lab.experiments import ExperimentConfig, build_setup
from ris_lab.geometry import nested_elements, slabs
from ris_lab.linalg import herm_trace_prod
from ris_lab.montecarlo import (
    _eve_floor,
    _eve_interference,
    _eve_log_rate,
    _mean,
    _run_chunks,
    worker_count,
)
from ris_lab.streams import CHANNEL_BLOCK, NMSE_BLOCK, PHASE_ERRORS

from conftest import (
    draw_channels,
    error_covariance,
    estimate_covariance,
    make_setup,
    ris_correlation,
)


def closed_form_terms(est, k):
    """Appendix-level closed forms for the five SINR expectations of user k."""
    stats = est.stats
    m, k_users = stats.dims.m, stats.dims.k
    trp = est.pilots.tau_u * est.pilots.rho
    sig = trp * est.tr_rpr[k]
    inter = sum(herm_trace_prod(stats.r_k[k], estimate_covariance(est, i)) / (trp * est.tr_rpr[i])
                for i in range(k_users) if i != k)
    c_k = error_covariance(est, k)
    var = herm_trace_prod(c_k, estimate_covariance(est, k)) / (trp * est.tr_rpr[k])
    an = (m - k_users) / m * float(np.real(np.trace(c_k)))
    return sig, inter, var, an


def mixed_points(est, hw, xi):
    """Operating points that share one draw with ``est`` and mix everything else.

    ``est`` is on the link of ``make_setup(seed=3)``, at any phase-error law
    but sigma_p2 = 1. The points mix two xi, two kappa_t_bs, two P_t, two
    pilot powers, two phase-error laws and two RIS phase settings; ``est``
    appears in a run of two points and again later, not next to that run.
    Next to that later point sits an estimator on equal statistics held as
    a second object, which builds its own channels, bit-identical to
    ``est``'s; then one whose RIS phases differ, which the draw never reads.
    """
    noisy = make_setup(seed=3, sigma_p2=1.0)[1]
    loud = rl.ChannelEstimator(est.stats,
                               dataclasses.replace(est.pilots, rho=2 * est.pilots.rho))
    twin = rl.ChannelEstimator(dataclasses.replace(est.stats), est.pilots)
    phased = make_setup(seed=3, phi=np.random.default_rng(7).uniform(0, 2 * np.pi, 16))[1]
    hot = dataclasses.replace(hw, kappa_t_bs=0.05, p_t=2 * hw.p_t)
    return [(est, hw, xi), (est, hot, 0.8), (noisy, hw, 0.8), (loud, hot, xi),
            (est, hw, 0.8), (twin, hot, 0.8), (phased, hw, xi), (noisy, hot, xi)]


def assert_same_estimates(a, b):
    for field in dataclasses.fields(a):
        got, want = getattr(a, field.name), getattr(b, field.name)
        if want is None:
            assert got is None, field.name
        else:
            assert np.array_equal(got.value, want.value), field.name
            assert np.array_equal(got.psi, want.psi), field.name


def test_thread_count_does_not_change_results(small_setup, monkeypatch):
    points = mixed_points(*small_setup[1:])
    plan = rl.TrialPlan(n_blocks=1500, master_seed=99)   # spans several chunks
    results = {}
    for threads in ("1", "7"):
        monkeypatch.setenv("RIS_LAB_THREADS", threads)
        results[threads] = rl.estimate_secrecy(points, plan)
    assert len(results["1"]) == len(results["7"]) == len(points)
    for a, b in zip(results["1"], results["7"]):
        assert_same_estimates(a, b)


def test_shared_draw_leaves_the_phase_free_level_unchanged(monkeypatch):
    # a level without phase errors draws nothing from the phase substream,
    # so sharing its chunks with other levels does not move it
    _, est, hw, xi = make_setup(seed=3, sigma_p2=0.0)
    plan = rl.TrialPlan(n_blocks=700, master_seed=14)    # 14 chunks
    [alone] = rl.estimate_secrecy([(est, hw, xi)], plan)
    noisy = make_setup(seed=3, sigma_p2=1.0)[1]
    shared = rl.estimate_secrecy([(noisy, hw, xi), (est, hw, xi), (noisy, hw, xi)], plan)
    assert_same_estimates(shared[1], alone)
    # every level restarts the phase substream: repeats give the same estimate
    assert shared[0].r_sec.value == shared[2].r_sec.value
    assert shared[0].r_sec.value != alone.r_sec.value
    # so every point of a mixed call equals that point alone, at any worker count
    points = mixed_points(est, hw, xi)
    for threads in ("1", "7"):
        monkeypatch.setenv("RIS_LAB_THREADS", threads)
        for point, orc in zip(points, rl.estimate_secrecy(points, plan), strict=True):
            assert_same_estimates(orc, rl.estimate_secrecy([point], plan)[0])


def test_chunk_terms_free_each_estimate_once_its_callback_returns(small_setup, monkeypatch):
    # an estimate, its precoders and its blocks live only while its
    # estimator's callback runs: they are freed before the next pilot phase
    # runs, and the previous statistics' channels before the pilot phase of
    # the next statistics' first estimator, so a call over many estimators
    # holds its channels at M, not their estimates
    _, est, hw, xi = small_setup
    noisy = make_setup(seed=3, sigma_p2=1.0)[1]
    loud = rl.ChannelEstimator(est.stats,
                               dataclasses.replace(est.pilots, rho=2 * est.pilots.rho))
    dropped = {"estimate": [], "channels": []}      # weak references to dropped arrays
    pilot_phase = montecarlo.simulate_pilot_phase

    def checked_pilot_phase(h, *args):
        assert all(ref() is None for ref in dropped["estimate"]), "estimate"
        # channels of another build than ``h``'s are gone
        assert all(h_ref() is h or (h_ref() is None and e_ref() is None)
                   for h_ref, e_ref in dropped["channels"]), "channels"
        return pilot_phase(h, *args)

    monkeypatch.setattr(montecarlo, "simulate_pilot_phase", checked_pilot_phase)
    blocks, nmse_terms, built = montecarlo._blocks, montecarlo._nmse_terms, []

    def recorded_blocks(*args):
        blk = blocks(*args)
        dropped["estimate"].extend(weakref.ref(a) for a in (blk.h_hat, blk.w, blk.q_hat))
        dropped["channels"].append((weakref.ref(blk.h), weakref.ref(blk.h_e)))
        built.append(blk.h.shape[0])
        return blk

    def recorded_nmse_terms(group, h, h_hat):
        dropped["estimate"].append(weakref.ref(h_hat))
        built.append(h_hat.shape[0])
        return nmse_terms(group, h, h_hat)

    monkeypatch.setattr(montecarlo, "_blocks", recorded_blocks)
    monkeypatch.setattr(montecarlo, "_nmse_terms", recorded_nmse_terms)
    monkeypatch.setenv("RIS_LAB_THREADS", "1")
    plan = rl.TrialPlan(n_blocks=8, master_seed=1)
    rl.estimate_secrecy([(est, hw, xi), (loud, hw, xi), (noisy, hw, xi)], plan)
    assert built == [8] * 3
    rl.estimate_nmse([est, loud, noisy], plan)
    assert built == [8] * 6


def test_chunk_terms_hold_no_chunk_size_link_at_n():
    # a chunk draws its links and builds every statistics' channels from
    # them one slab of blocks at a time, so with three phase-error laws at
    # N = 400 one chunk peaks below the size of its links at N,
    # B (K + M_E) N complex numbers, which a chunk-size draw alone reaches
    setups = [make_setup(seed=4, n=400, sigma_p2=sigma_p2) for sigma_p2 in (0.0, 0.1, 1.0)]
    ests = [est for _, est, _, _ in setups]
    _, _, hw, xi = setups[0]
    grid, dims = ests[0].stats, ests[0].stats.dims
    factors = montecarlo.template_factors(grid)     # built once per draw run, before the trace
    points = [(est, hw, xi) for est in ests]
    blocks = montecarlo.CHUNK_BLOCKS
    tracemalloc.start()
    try:
        montecarlo._chunk_terms(points, montecarlo._point_terms, grid, factors, blocks,
                                (1, CHANNEL_BLOCK, 0), eve=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < blocks * (dims.k + dims.m_e) * dims.n * 16


# von Mises at the concentrations of each of numpy's branches (uniform below
# 1e-8, rejection up to 1e6, wrapped normal above) and on both sides of the
# Hankel switch of the circular mean (nu >= 30), and a uniform law
@pytest.mark.parametrize("law", [
    *(rl.PhaseNoiseModel("von_mises", sigma_p2) for sigma_p2 in (1e9, 4.0, 0.1, 0.01, 1e-7)),
    rl.PhaseNoiseModel("uniform", 0.5)], ids=str)
@pytest.mark.parametrize("b", [50, 24, 7])
def test_phase_errors_drawn_slab_by_slab_equal_one_draw(law, b):
    # _chunk_terms draws a law's errors slab by slab from its restarted
    # substream; the samplers take the stream one element at a time, so the
    # slabs hold the numbers of one (b, N) draw
    n, key = 37, (5, CHANNEL_BLOCK, 2, PHASE_ERRORS)
    whole = law.draw(montecarlo.derive_rng(*key), (b, n))
    stream = montecarlo.derive_rng(*key)
    slabbed = [law.draw(stream, (s.stop - s.start, n)) for s in slabs(b)]
    assert np.array_equal(np.concatenate(slabbed), whole)


def other_ris_spacing(stats):
    """``stats`` at a 0.03 m horizontal RIS spacing: the same link with another R_I."""
    return rl.build_channel_statistics(stats.dims, stats.fading, stats.phase_model, stats.h1,
                                       phi=np.angle(stats.phi), r_b=stats.r_b,
                                       ris_spec=rl.CorrelationSpec(d_h=0.03))


def two_draw_run_points(est, hw, xi):
    """Two estimators on one statistics object, the first holding two
    points, then a point that no draw shares with them: a second draw run."""
    loud = rl.ChannelEstimator(est.stats,
                               dataclasses.replace(est.pilots, rho=2 * est.pilots.rho))
    other = rl.ChannelEstimator(other_ris_spacing(est.stats), est.pilots)
    assert montecarlo.draw_grid(est.stats, other.stats) is None
    distorted = dataclasses.replace(hw, kappa_t_bs=0.05)
    return [(est, hw, xi), (est, distorted, xi), (loud, hw, xi), (other, hw, xi)]


def test_oracle_returns_one_table_per_point_stacked_in_chunk_order(small_setup):
    _, est, hw, xi = small_setup
    points = two_draw_run_points(est, hw, xi)
    other = points[3][0]
    plan = rl.TrialPlan(n_blocks=montecarlo.CHUNK_BLOCKS + 8, master_seed=5)
    tables = montecarlo._oracle(points, montecarlo._point_terms, plan, CHANNEL_BLOCK, eve=True)
    want = []
    for run, grid in ((points[:3], est.stats), (points[3:], other.stats)):
        factors = montecarlo.template_factors(grid)
        chunks = [montecarlo._chunk_terms(run, montecarlo._point_terms, grid, factors, size,
                                          (plan.master_seed, CHANNEL_BLOCK, idx), eve=True)
                  for idx, size in plan.chunks()]
        want += [{name: np.concatenate([chunk[j][name] for chunk in chunks])
                  for name in chunks[0][j]} for j in range(len(run))]
    assert len(tables) == len(want) == len(points)
    for table, point_want in zip(tables, want):
        assert set(table) == set(point_want) == {"s1", "inter", "an", "hn2", "var_err",
                                                 "log_rate"}
        for name, values in table.items():
            assert values.shape == (plan.n_blocks, est.stats.dims.k)
            assert np.array_equal(values, point_want[name])
    # one estimator's points share its user terms bit for bit; Eve's rate is
    # their own, and the other estimator of the link has its own user terms
    for name in ("s1", "inter", "an", "hn2", "var_err"):
        assert np.array_equal(tables[0][name], tables[1][name])
    assert not np.array_equal(tables[0]["log_rate"], tables[1]["log_rate"])
    assert not np.array_equal(tables[0]["s1"], tables[2]["s1"])


def test_every_draw_run_starts_from_the_same_chunk_streams(small_setup, monkeypatch):
    # a point that no draw shares with the points before it draws again,
    # at its own grid, from the same chunk streams: the draw runs of one call
    # are not independent, so a difference across them is block-paired too
    points = two_draw_run_points(*small_setup[1:])
    sample = montecarlo.sample_realizations
    starts = {}             # draw grid -> state of the chunk stream at its first draw

    def sampled(stats, rng, n_draws, *, eve, factors):
        starts.setdefault(id(stats), rng.bit_generator.state)
        return sample(stats, rng, n_draws, eve=eve, factors=factors)

    monkeypatch.setattr(montecarlo, "sample_realizations", sampled)
    monkeypatch.setenv("RIS_LAB_THREADS", "1")          # chunk 0 draws first
    plan = rl.TrialPlan(n_blocks=montecarlo.CHUNK_BLOCKS + 8, master_seed=5)
    rl.estimate_secrecy(points, plan)
    chunk_0 = montecarlo.derive_rng(plan.master_seed, CHANNEL_BLOCK, 0).bit_generator.state
    assert list(starts) == [id(points[0][0].stats), id(points[3][0].stats)]
    assert list(starts.values()) == [chunk_0, chunk_0]


def test_shared_draw_makes_a_tiny_phase_noise_level_a_paired_copy(within):
    # common random numbers: at sigma_p2 = 1e-8 the phase errors are ~1e-4 rad,
    # so r_sec moves by about 1e-4 of its standard error (measured: 1e-7 to
    # 4e-6 relative across fixtures and seeds); independent draws would
    # move it by about one standard error
    _, est, hw, xi = make_setup(seed=3, sigma_p2=0.0)
    tiny_est = make_setup(seed=3, sigma_p2=1e-8)[1]
    zero, tiny = rl.estimate_secrecy([(est, hw, xi), (tiny_est, hw, xi)],
                                     rl.TrialPlan(n_blocks=600, master_seed=15))
    assert zero.r_sec.value != tiny.r_sec.value
    within("paired r_sec shift", abs(tiny.r_sec.value - zero.r_sec.value),
           below=1e-3 * zero.r_sec.se)
    within("r_sec se", zero.r_sec.se, above=0.01 * zero.r_sec.value)


@pytest.mark.parametrize("change", ["n", "m", "r_i"])
def test_oracles_split_estimators_beyond_one_draw_into_draw_runs(change):
    # the sizes share one fading (nested_points), so only the arrays or R_I
    # decide: 8 x 8 elements fit in 14 x 14 but the 8 x 16 of N = 128 do
    # not, a larger RIS cannot draw for a larger BS array, and one grid at
    # two RIS spacings has two R_I. Points that no draw serves together
    # draw apart, each as it would alone
    if change == "r_i":
        _, est, _, _ = make_setup(seed=3)
        apart = [est, rl.ChannelEstimator(other_ris_spacing(est.stats), est.pilots)]
    else:
        sizes = {"n": ([(64, 8), (196, 8)], [(128, 8), (196, 8)]),
                 "m": ([(16, 6), (25, 8)], [(16, 8), (25, 6)])}[change]
        nesting, apart = ([point.est for point in nested_points(pair)] for pair in sizes)
        assert montecarlo.draw_grid(*(e.stats for e in nesting)) is nesting[1].stats
        assert len(rl.estimate_nmse(nesting, rl.TrialPlan(4, master_seed=1))) == 2
    a, b = (est.stats for est in apart)
    assert a.fading == b.fading
    assert montecarlo.draw_grid(a, b) is None
    hw, xi = make_setup(seed=3)[2:]
    plan = rl.TrialPlan(4, master_seed=1)
    points = [(est, hw, xi) for est in apart]
    for point, orc in zip(points, rl.estimate_secrecy(points, plan), strict=True):
        assert_same_estimates(orc, rl.estimate_secrecy([point], plan)[0])
    for est, orc in zip(apart, rl.estimate_nmse(apart, plan), strict=True):
        assert_same_estimates(orc, rl.estimate_nmse([est], plan)[0])


def test_shared_draw_serves_every_pilot_length(small_setup):
    # the despread pilot Gaussians do not depend on the pilot length, so
    # estimators of several lengths share one draw, each equal to itself alone
    _, est, hw, xi = small_setup
    longer = rl.ChannelEstimator(est.stats, dataclasses.replace(est.pilots, tau_u=5))
    plan = rl.TrialPlan(n_blocks=montecarlo.CHUNK_BLOCKS + 8, master_seed=6)
    for e, orc in zip([est, longer], rl.estimate_nmse([est, longer], plan), strict=True):
        assert_same_estimates(orc, rl.estimate_nmse([e], plan)[0])
    points = [(est, hw, xi), (longer, hw, xi)]
    for point, orc in zip(points, rl.estimate_secrecy(points, plan), strict=True):
        assert_same_estimates(orc, rl.estimate_secrecy([point], plan)[0])
    # grid points of configs that differ only in the pilot length share it
    # too: built through one sweep's memo, they hold one statistics object
    config, kept = ExperimentConfig(m=8, n=4, k=2, m_e=2), {}
    short, long_ = (build_setup(config.replace(tau_u=tau), kept).est.stats for tau in (None, 5))
    assert short is long_
    assert montecarlo.draw_grid(short, long_) is short


def nested_points(sizes):
    """Operating points of the default scenario at (N, M) array sizes.

    The fading does not depend on the sizes, and the square half-wavelength
    grids and exponential R_B nest, so each point nests in any larger one.
    """
    base = ExperimentConfig(m=8, n=4, k=2, m_e=1, snr_db=10.0)
    return [build_setup(base.replace(n=n, m=m)) for n, m in sizes]


def test_nested_point_equals_itself_alone_at_the_same_draw_grid(monkeypatch):
    # every point reads its part of one draw at the call's largest arrays,
    # so it is bit-identical to itself alone at that draw grid, at any
    # worker count; the largest point draws as it would alone
    points = nested_points([(4, 6), (9, 8), (16, 8)])
    plan = rl.TrialPlan(n_blocks=montecarlo.CHUNK_BLOCKS + 8, master_seed=31)
    ests = [point.est for point in points]
    for threads in ("1", "2"):
        monkeypatch.setenv("RIS_LAB_THREADS", threads)
        shared = rl.estimate_secrecy(points, plan)
        for point, orc in zip(points, shared, strict=True):
            assert_same_estimates(orc, rl.estimate_secrecy([point, points[-1]], plan)[0])
        for est, orc in zip(ests, rl.estimate_nmse(ests, plan), strict=True):
            assert_same_estimates(orc, rl.estimate_nmse([est, ests[-1]], plan)[0])
    assert_same_estimates(shared[-1], rl.estimate_secrecy(points[-1:], plan)[0])
    # alone, a smaller point draws at its own arrays: another sample
    assert shared[0].r_sec.value != rl.estimate_secrecy(points[:1], plan)[0].r_sec.value


def test_nested_links_have_the_smaller_arrays_law(monkeypatch, within):
    # a 2 x 2 sub-grid and the leading 6 of 8 antennas of a draw at 5 x 5
    # elements: each link's sample covariance matches beta R of the smaller
    # arrays, and the aggregate channels' match R_k and Q_E of the smaller
    # statistics. The bound is twice the sample covariance's rms Frobenius
    # error tr(R)/sqrt(B) (measured: 0.74 to 1.14 times it); reading the
    # first 4 elements of a row instead of the sub-grid misses R_I by 15 times it.
    small_est, large_est = (point.est for point in nested_points([(4, 6), (25, 8)]))
    small, large = small_est.stats, large_est.stats
    assert montecarlo.draw_grid(small, large) is large
    ris, m = nested_elements(small.dims, large.dims), small.dims.m
    # in a chunk the oracle builds the smaller point's channels from those
    # elements of the draw, and the grid's own point's from all of them
    seen = []
    aggregate = montecarlo.aggregate_channels

    def captured(stats, draws, theta, **kwargs):
        seen.append(kwargs["elements"])
        return aggregate(stats, draws, theta, **kwargs)

    def blocks(group, *chunk):
        return [montecarlo._blocks(group[0][0], *chunk)]

    monkeypatch.setattr(montecarlo, "aggregate_channels", captured)
    assert len(montecarlo._chunk_terms([(small_est,), (large_est,)], blocks, large,
                                       rl.template_factors(large), 4, (1, CHANNEL_BLOCK, 0),
                                       eve=True)) == 2
    assert np.array_equal(seen[0], ris) and seen[1] is None

    b = 20_000
    rng = np.random.default_rng(8)
    draws = rl.sample_realizations(large, rng, b, eve=True, factors=rl.template_factors(large))
    theta = small.phase_model.draw(rng, (b, large.dims.n))
    h, h_e = aggregate(small, draws, theta, elements=ris)
    links = {"h_i": draws["h_i"][:, :, ris], "h_b": draws["h_b"][:, :, :m],
             "h_ie": draws["h_ie"][:, ris], "h_be": draws["h_be"][:, :m]}

    def check_covariance(name, rows, want):
        """``rows`` (B, d) are draws of CN(0, want)."""
        got = rows.T @ rows.conj() / rows.shape[0]
        within(name, np.linalg.norm(got - want),
               below=2 * np.trace(want).real / np.sqrt(rows.shape[0]))

    fading, r_i = small.fading, ris_correlation(small)
    for k in range(small.dims.k):
        check_covariance(f"h_i covariance[{k}]", links["h_i"][:, k], fading.beta_i[k] * r_i)
        check_covariance(f"h_b covariance[{k}]", links["h_b"][:, k], fading.beta_2[k] * small.r_b)
        check_covariance(f"h covariance[{k}]", h[:, k], small.r_k[k])
    check_covariance("h_ie covariance", links["h_ie"][:, :, 0], fading.beta_ie * r_i)
    check_covariance("h_be covariance", links["h_be"][:, :, 0], fading.beta_3 * small.r_b)
    check_covariance("h_e covariance", h_e[:, :, 0], small.q_e)


@pytest.mark.parametrize("oracle", [rl.estimate_secrecy, rl.estimate_nmse])
def test_oracles_reject_an_empty_call(oracle):
    with pytest.raises(rl.InvalidParameterError, match="at least one estimator"):
        oracle([], rl.TrialPlan(4, master_seed=1))


def test_secrecy_standard_error_is_calibrated(small_setup, within):
    # the spread of r_sec, of each user's rate, and of the r_sec difference
    # to a second point at xi + 0.05 on the same estimator, over independent
    # master seeds must match the delta-method SE; the difference's is the
    # block-paired one. With 40 seeds the sample SD / true SE follows
    # chi_39 / sqrt(39): the band [0.7, 1.4] lies 2.7 and 3.5 of its SDs
    # (0.11) from 1. The users' secrecy gaps stay far above zero at both
    # points, so the clip the SE ignores never acts.
    _, est, hw, xi = small_setup
    values, ses, rates, rate_ses, diffs, diff_ses = [], [], [], [], [], []
    for seed in range(1000, 1040):
        orc, other = rl.estimate_secrecy([(est, hw, xi), (est, hw, xi + 0.05)],
                                         rl.TrialPlan(200, master_seed=seed))
        within("secrecy gap", orc.rate.value - orc.c_e.value, above=10 * orc.r_sec.se)
        within("secrecy gap at xi + 0.05", other.rate.value - other.c_e.value,
               above=10 * other.r_sec.se)
        values.append(orc.r_sec.value)
        ses.append(orc.r_sec.se)
        rates.append(orc.rate.value)
        rate_ses.append(orc.rate.se)
        diff = orc.r_sec - other.r_sec
        diffs.append(diff.value)
        diff_ses.append(diff.se)
    ratio = np.std(values, ddof=1) / np.median(ses)
    within("r_sec sd/se", ratio, above=0.7, below=1.4)
    rate_ratio = np.std(rates, axis=0, ddof=1) / np.median(rate_ses, axis=0)
    within("rate sd/se", rate_ratio, above=0.7, below=1.4)
    diff_ratio = np.std(diffs, ddof=1) / np.median(diff_ses)
    within("paired r_sec difference sd/se", diff_ratio, above=0.7, below=1.4)


def standard_error(values):
    """The oracle's former ``_se``: the standard error of the block mean, blocks on axis 0."""
    return np.std(values, axis=0, ddof=1) / np.sqrt(values.shape[0])


def hand_coded_secrecy(table, est, hw, xi):
    """Each secrecy estimate's (value, SE) by the oracle's former hand-coded delta methods.

    The reference of the ``Estimate`` operations: the signal's SE by
    projection on the mean direction, the rate's linearization d_rate, and
    r_sec's psi from centred per-block terms.
    """
    dims = est.stats.dims
    p, q = rl.stream_powers(hw.p_t, xi, dims.k, dims.m)
    s1, inter, an, hn2, var_err, log_rate = (
        table[name] for name in ("s1", "inter", "an", "hn2", "var_err", "log_rate"))
    s1_mean, inter_mean, an_mean, hn2_mean, variance, c_e = (
        np.mean(x, axis=0) for x in (s1, inter, an, hn2, var_err, log_rate))
    signal = np.abs(s1_mean) ** 2
    unit = s1_mean / np.where(np.abs(s1_mean) > 0, np.abs(s1_mean), 1.0)
    proj = np.real(s1 * unit.conj())
    hwi_scale = (hw.kappa_t_bs + hw.kappa_r_ue) * hw.p_t / dims.m
    hwi = hwi_scale * hn2_mean
    den = p * inter_mean + p * variance + q * an_mean + hwi + hw.sigma_k2
    gamma = p * signal / den
    rate = np.log2(1.0 + gamma)
    d_signal = 2.0 * np.abs(s1_mean) * (proj - np.mean(proj, axis=0))
    d_den = (p * (inter - inter_mean) + p * (var_err - variance)
             + q * (an - an_mean) + hwi_scale * (hn2 - hn2_mean))
    d_rate = (gamma / ((1.0 + gamma) * np.log(2.0))
              * (d_signal / np.maximum(signal, 1e-300) - d_den / den))
    psi = np.mean(d_rate - (log_rate - c_e), axis=1)
    return {"rate": (rate, standard_error(d_rate)),
            "signal": (signal, 2.0 * np.abs(s1_mean) * standard_error(proj)),
            "interference": (inter_mean, standard_error(inter)),
            "variance": (variance, standard_error(var_err)),
            "an_leakage": (an_mean, standard_error(an)),
            "hwi": (hwi, hwi_scale * standard_error(hn2)),
            "c_e": (c_e, standard_error(log_rate)),
            "r_sec": (float(np.mean(np.maximum(0.0, rate - c_e))), float(standard_error(psi)))}


def test_estimates_rebuild_the_hand_coded_delta_methods(small_setup):
    # every value and SE is bit-identical to the hand-coded one, but the
    # signal's and the HWI term's: their SEs scale before the standard
    # deviation instead of after it, so they agree to roundoff
    points = mixed_points(*small_setup[1:])
    plan = rl.TrialPlan(n_blocks=montecarlo.CHUNK_BLOCKS + 8, master_seed=12)
    tables = montecarlo._oracle(points, montecarlo._point_terms, plan, CHANNEL_BLOCK, eve=True)
    reordered = {"signal", "hwi"}
    for point, table in zip(points, tables, strict=True):
        orc = montecarlo._secrecy_estimates(table, *point)
        for name, (value, se) in hand_coded_secrecy(table, *point).items():
            got = getattr(orc, name)
            assert np.array_equal(got.value, value), name
            if name in reordered:
                assert np.all(np.abs(got.se - se) <= 1e-14 * se), name
            else:
                assert np.array_equal(got.se, se), name
    # the NMSE's former _ratio_se residual
    ests = [est for est, _, _ in points]
    tables = montecarlo._oracle([(est,) for est in ests], montecarlo._nmse_terms, plan,
                                NMSE_BLOCK, eve=False)
    for orc, table in zip(rl.estimate_nmse(ests, plan), tables, strict=True):
        num, den = table["err2"], table["mag2"]
        ratio = np.mean(num, axis=0) / np.mean(den, axis=0)
        assert np.array_equal(orc.nmse.value, ratio)
        assert np.array_equal(orc.nmse.se,
                              standard_error((num - ratio * den) / np.mean(den, axis=0)))


def test_single_block_standard_errors_are_infinite(small_setup):
    _, est, hw, xi = small_setup
    plan = rl.TrialPlan(n_blocks=1, master_seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [nmse] = rl.estimate_nmse([est], plan)
        [sec] = rl.estimate_secrecy([(est, hw, xi)], plan)
    for field in dataclasses.fields(rl.OracleEstimates):
        estimate = getattr(nmse if field.name == "nmse" else sec, field.name)
        assert np.all(np.isfinite(estimate.value)), field.name
        assert np.all(estimate.se == np.inf), field.name


FOUR_CHUNKS = rl.TrialPlan(n_blocks=3 * montecarlo.CHUNK_BLOCKS + 8, master_seed=5)


@pytest.mark.parametrize("threads, helpers", [("1", []), ("2", [1]), ("9", [3])])
def test_run_chunks_works_each_chunk_once_in_chunk_order(monkeypatch, threads, helpers):
    # the caller works chunks beside at most one helper per other chunk;
    # one worker starts no pool
    pools = []

    class Pool(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
    monkeypatch.setenv("RIS_LAB_THREADS", threads)
    worked = []

    def work(size, key):
        worked.append(key)
        return size, key

    results = _run_chunks(FOUR_CHUNKS, 6, work)
    assert results == [(size, (5, 6, idx)) for idx, size in FOUR_CHUNKS.chunks()]
    assert sorted(worked) == [(5, 6, idx) for idx in range(4)]
    assert pools == helpers


def test_calling_thread_works_chunks_beside_its_helpers(monkeypatch):
    monkeypatch.setenv("RIS_LAB_THREADS", "2")
    caller = threading.get_ident()
    caller_worked = threading.Event()
    runners = []

    def work(size, key):
        if threading.get_ident() == caller:
            caller_worked.set()
        else:
            caller_worked.wait(timeout=2.0)     # a helper leaves the caller a chunk
        runners.append(threading.get_ident())
        return key

    _run_chunks(FOUR_CHUNKS, 6, work)
    assert len(runners) == 4 and caller in runners


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_chunk_exception_propagates_from_either_thread(monkeypatch, failing):
    monkeypatch.setenv("RIS_LAB_THREADS", "2")
    caller = threading.get_ident()
    failed = threading.Event()

    def work(size, key):
        if (threading.get_ident() == caller) == (failing == "caller"):
            failed.set()
            raise RuntimeError(f"chunk {key[-1]} failed on the {failing}")
        failed.wait(timeout=2.0)        # the failing thread takes a chunk too
        return key

    with pytest.raises(RuntimeError, match=f"failed on the {failing}"):
        _run_chunks(FOUR_CHUNKS, 6, work)


def test_worker_count_env_parsing():
    os.environ["RIS_LAB_THREADS"] = "3"
    try:
        assert worker_count() == 3
        os.environ["RIS_LAB_THREADS"] = "zebra"
        with pytest.raises(rl.InvalidParameterError):
            worker_count()
    finally:
        del os.environ["RIS_LAB_THREADS"]


def test_worker_count_follows_the_cpu_mask(monkeypatch):
    monkeypatch.delenv("RIS_LAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    assert worker_count() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)), raising=False)
    assert worker_count() == 8
    monkeypatch.setenv("RIS_LAB_THREADS", "2")
    assert worker_count() == 2
    # without an affinity call the CPU count decides
    monkeypatch.delenv("RIS_LAB_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert worker_count() == 5


# Reads every OpenBLAS bundled with numpy and scipy that the process has
# loaded, through its own thread-count getter and independently of
# ris_lab's lookup, next to what ris_lab reports. RTLD_NOLOAD keeps the
# script from loading a library itself, at its default thread count.
BLAS_THREADS_SCRIPT = """
import ctypes, json, os, sys
from pathlib import Path
{imports}
import numpy, scipy
from ris_lab import montecarlo
counts = {{}}
for pkg in (numpy, scipy):
    for path in Path(pkg.__file__).parent.with_name(pkg.__name__ + ".libs").glob("*openblas*"):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        names = [n for n in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                             "openblas_get_num_threads64_", "openblas_get_num_threads")
                 if hasattr(lib, n)]
        counts[path.name] = getattr(lib, names[0])()
json.dump({{"counts": counts, "pinned": montecarlo.blas_threads()}}, sys.stdout)
"""


@pytest.mark.parametrize("imports", [
    "import numpy, scipy.linalg\nimport ris_lab",
    "import ris_lab",
], ids=["numpy_first", "ris_lab_first"])
def test_import_pins_every_bundled_openblas_to_one_thread(imports):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(rl.__file__).parents[1]), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT.format(imports=imports)],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(out.stdout)
    counts = result["counts"]
    if not counts:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    assert counts == {name: 1 for name in counts}
    assert counts == result["pinned"]


def test_standard_errors_shrink_with_block_count(small_setup, within):
    _, est, hw, xi = small_setup
    [small] = rl.estimate_secrecy([(est, hw, xi)], rl.TrialPlan(4000, master_seed=5))
    [big] = rl.estimate_secrecy([(est, hw, xi)], rl.TrialPlan(16000, master_seed=5))
    ratio = small.interference.se / big.interference.se
    # quadrupling the blocks should halve the standard error
    within("interference se ratio", ratio, above=1.5, below=2.7)


def test_terms_match_closed_forms_with_ideal_uplink(within):
    # with ideal uplink hardware every independence step behind the closed
    # forms is exact, so each term estimate must sit within 3 sigma
    stats, est, hw, xi = make_setup(seed=8, m=24, n=16, k=3, m_e=2,
                                    correlated=False, kappa_ul=0.0,
                                    kappa_dl=0.01, p_t=10.0)
    [orc] = rl.estimate_secrecy([(est, hw, xi)], rl.TrialPlan(20000, master_seed=17))
    for k in range(3):
        sig, inter, var, an = closed_form_terms(est, k)
        hwi = (hw.kappa_t_bs + hw.kappa_r_ue) * hw.p_t / 24 * est.tr_r[k]
        within(f"signal[{k}]", abs(orc.signal.value[k] - sig), below=3 * orc.signal.se[k])
        within(f"interference[{k}]", abs(orc.interference.value[k] - inter),
               below=3 * orc.interference.se[k])
        within(f"variance[{k}]", abs(orc.variance.value[k] - var),
               below=3 * orc.variance.se[k])
        within(f"an_leakage[{k}]", abs(orc.an_leakage.value[k] - an),
               below=3 * orc.an_leakage.se[k])
        within(f"hwi[{k}]", abs(orc.hwi.value[k] - hwi), below=3 * orc.hwi.se[k])
        rate_cf = rl.user_rate(rl.compute_rate_terms(est, hw, k=k), xi)
        within(f"relative rate error[{k}]", abs(orc.rate.value[k] - rate_cf) / rate_cf,
               below=0.05)


def test_distortion_couplings_bias_the_closed_forms(within):
    # documented limitation: with uplink distortion the estimate/channel
    # fourth-moment couplings (neglected by the closed forms) push the
    # interference and uncertainty terms beyond Monte Carlo noise
    stats, est, hw, xi = make_setup(seed=8, m=24, n=16, k=3, m_e=2,
                                    correlated=False, kappa_ul=0.01,
                                    kappa_dl=0.01, p_t=10.0)
    [orc] = rl.estimate_secrecy([(est, hw, xi)], rl.TrialPlan(20000, master_seed=17))
    _, inter, var, _ = closed_form_terms(est, 0)
    within("variance bias[0]", orc.variance.value[0] - var, above=3 * orc.variance.se[0])
    # the rate itself stays accurate: the biased terms are small in I_k
    rate_cf = rl.user_rate(rl.compute_rate_terms(est, hw, k=0), xi)
    within("relative rate error[0]", abs(orc.rate.value[0] - rate_cf) / rate_cf, below=0.05)


def test_nmse_oracle_reproducible(small_setup, monkeypatch):
    _, est, _, _ = small_setup
    plan = rl.TrialPlan(3000, master_seed=21)                 # spans several chunks
    assert len(plan.chunks()) > 1
    results = {}
    for threads in ("1", "7"):
        monkeypatch.setenv("RIS_LAB_THREADS", threads)
        [results[threads]] = rl.estimate_nmse([est], plan)
    a, b = results["1"], results["7"]
    assert np.array_equal(a.nmse.value, b.nmse.value)
    assert np.array_equal(a.nmse.se, b.nmse.se)
    assert np.all(a.nmse.se > 0)


def test_shared_nmse_call_equals_each_estimator_alone(small_setup, monkeypatch):
    # estimators at two pilot powers and two phase laws share each chunk's
    # Gaussians; each estimate is still that estimator's alone, at any worker count
    _, est, hw, xi = small_setup
    ests = [e for e, _, _ in mixed_points(est, hw, xi)]
    plan = rl.TrialPlan(n_blocks=250, master_seed=23)       # 5 chunks
    assert len(plan.chunks()) > 1
    for threads in ("1", "7"):
        monkeypatch.setenv("RIS_LAB_THREADS", threads)
        for e, orc in zip(ests, rl.estimate_nmse(ests, plan), strict=True):
            assert_same_estimates(orc, rl.estimate_nmse([e], plan)[0])


def test_nmse_oracle_draws_and_builds_only_the_users_links(small_setup, monkeypatch):
    _, est, hw, xi = small_setup
    sample, aggregate = montecarlo.sample_realizations, montecarlo.aggregate_channels
    drawn, built = [], []

    def sampled(stats, rng, n_draws, *, eve, factors):
        draws = sample(stats, rng, n_draws, eve=eve, factors=factors)
        drawn.append(sorted(draws))
        return draws

    def aggregated(stats, draws, theta, **kwargs):
        h, h_e = aggregate(stats, draws, theta, **kwargs)
        built.append(h_e is not None)
        return h, h_e

    monkeypatch.setattr(montecarlo, "sample_realizations", sampled)
    monkeypatch.setattr(montecarlo, "aggregate_channels", aggregated)
    plan = rl.TrialPlan(n_blocks=montecarlo.CHUNK_BLOCKS + 8, master_seed=5)
    # one draw and one build per slab of each chunk
    draws = sum(len(slabs(size)) for _, size in plan.chunks())
    rl.estimate_nmse([est], plan)
    assert drawn == [["h_b", "h_i"]] * draws and built == [False] * draws
    # the secrecy oracle reads Eve's channel, so it draws and builds her links
    drawn.clear(), built.clear()
    rl.estimate_secrecy([(est, hw, xi)], plan)
    assert drawn == [["h_b", "h_be", "h_i", "h_ie"]] * draws and built == [True] * draws


def test_default_run_spans_several_chunks(monkeypatch):
    # the chunk pool is the only parallelism: a default run must give every
    # worker work, in chunks of equal size, even on a host with many CPUs
    monkeypatch.delenv("RIS_LAB_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    sizes = [size for _, size in rl.TrialPlan(ExperimentConfig().n_blocks, master_seed=0).chunks()]
    assert len(sizes) >= worker_count() == 8
    assert set(sizes) == {montecarlo.CHUNK_BLOCKS}


# --------------------------------------------------------------------------
# eavesdropper oracle
# --------------------------------------------------------------------------

def test_eve_capacity_below_bound(small_setup, within):
    _, est, hw, xi = small_setup
    [orc] = rl.estimate_secrecy([(est, hw, xi)], rl.TrialPlan(8000, master_seed=31))
    for k in range(3):
        bound = rl.eve_capacity_bound(rl.compute_rate_terms(est, hw, k=k), xi)
        within(f"c_e - bound[{k}]", orc.c_e.value[k] - bound, below=3 * orc.c_e.se[k],
               inclusive=True)


def test_eve_gap_shrinks_with_antennas(within):
    # the slack of Eve's bound over her capacity shrinks as the BS array
    # grows: on one scenario (one fading, as nested_points) the three M nest
    # and share one draw run, so the gap at M = 16 less the gap at M = 64
    # has a block-paired SE, that of the difference of the two C_E
    base = ExperimentConfig(m=16, n=16, k=2, m_e=2, snr_db=10.0)
    kept = {}
    points = [build_setup(base.replace(m=m), kept) for m in (16, 32, 64)]
    assert montecarlo.draw_grid(*(point.est.stats for point in points)) is points[-1].est.stats
    oracle = rl.estimate_secrecy(points, rl.TrialPlan(24000, master_seed=7))
    bounds = [rl.eve_capacity_bound(rl.compute_rate_terms(point.est, point.hw, k=0), point.xi)
              for point in points]
    paired = oracle[0].c_e - oracle[-1].c_e
    within("gap(16) - gap(64)", bounds[0] - bounds[-1] - paired.value[0], above=3 * paired.se[0])


def test_eve_rank_one_reduction(within):
    # M_E = 1 with pure AN: gamma_E = p |f|^2 / (q ||V^H h_E||^2)
    stats, est, hw, xi = make_setup(seed=56, m=12, n=9, k=2, m_e=1,
                                    kappa_dl=0.0, p_t=10.0)
    p, q = rl.stream_powers(hw.p_t, xi, 2, 12)
    rng = np.random.default_rng(2)
    draws = draw_channels(stats, rng, 2000, eve=True)
    y = rl.simulate_pilot_phase(
        draws["h"], est.pilots, rl.pilot_gaussians(rng, draws["h"].shape))
    h_hat = est.estimate(y)
    w = rl.mrt_precoder(h_hat, est)
    from ris_lab.precoding import null_space_an_batch
    v = null_space_an_batch(h_hat)
    h_e = draws["h_e"]
    f = np.einsum("bme,bmk->bek", h_e.conj(), w)[:, 0, 0]
    vh = np.einsum("bmj,bme->bje", v.conj(), h_e)[:, :, 0]
    gamma_manual = p * np.abs(f) ** 2 / (q * np.sum(np.abs(vh) ** 2, axis=1))
    manual = float(np.mean(np.log2(1.0 + gamma_manual)))

    [orc] = rl.estimate_secrecy([(est, hw, xi)], rl.TrialPlan(2000, master_seed=77))
    within("c_e - manual[0]", abs(orc.c_e.value[0] - manual),
           below=5 * orc.c_e.se[0] + 0.05 * manual)


def test_eve_singular_corner_regularized(within):
    _, est, _, _ = make_setup(seed=57, m=12, n=9, k=2, m_e=1, kappa_dl=0.0)
    hw0 = rl.HardwareProfile(p_t=10.0)
    # xi = 1 gives q = 0, and kappa_t = 0
    [orc] = rl.estimate_secrecy([(est, hw0, 1.0)], rl.TrialPlan(500, master_seed=1))
    assert _eve_floor(hw0, 0.0) == pytest.approx(1e-12 * 10.0)
    assert np.all(np.isfinite(orc.c_e.value))
    within("c_e", orc.c_e.value, above=10.0)   # essentially unmasked: huge capacity


# --------------------------------------------------------------------------
# Wishart moment matching
# --------------------------------------------------------------------------

# Purpose tag of the Wishart-moment oracle's chunk stream; ris_lab.streams
# leaves 4 to it.
EVE_BLOCK = 4


@dataclasses.dataclass
class WishartMoments:
    """Empirical first/second moments of the eavesdropper's interference matrix."""

    tr_x_over_me: float
    tr_x_over_me_se: float
    offdiag_m2: float
    offdiag_m2_se: float


def estimate_wishart_moments(est, hw, xi, plan) -> WishartMoments:
    """Moments of X = H_E^H (q V V^H + Ups_t) H_E for the matching check.

    Returns the first functional E{tr X}/M_E and the mean squared
    off-diagonal entry. For a Wishart law with scale phi and eta degrees
    of freedom they are eta phi and eta phi^2; they equal those of
    ``wishart_match`` only where its isotropy assumptions hold, i.e. when
    Q_E is a multiple of I. The blocks are the secrecy oracle's (``_oracle``
    with ``_blocks`` of one point) on the ``EVE_BLOCK`` stream.
    """
    p, q = rl.stream_powers(hw.p_t, xi, est.stats.dims.k, est.stats.dims.m)

    def terms(_, *chunk):
        blk = montecarlo._blocks(est, *chunk)
        x = _eve_interference(blk, np.swapaxes(blk.h_e, 1, 2).conj(), p, q, hw.kappa_t_bs)
        m_e = x.shape[-1]
        tr_x = np.real(np.einsum("bee->b", x))
        off = np.abs(x) ** 2
        off[:, np.arange(m_e), np.arange(m_e)] = 0.0
        denom = max(m_e * (m_e - 1), 1)
        return [{"tr_x": tr_x / m_e, "off_m2": np.sum(off, axis=(1, 2)) / denom}]

    [table] = montecarlo._oracle([(est,)], terms, plan, EVE_BLOCK, eve=True)
    tr, off = _mean(table["tr_x"]), _mean(table["off_m2"])
    return WishartMoments(
        tr_x_over_me=float(tr.value), tr_x_over_me_se=float(tr.se),
        offdiag_m2=float(off.value), offdiag_m2_se=float(off.se),
    )


def assert_isotropic(q_e):
    """Q_E = c I for some c > 0, to roundoff."""
    c = float(np.real(q_e[0, 0]))
    assert c > 0
    assert np.allclose(q_e, c * np.eye(q_e.shape[0]), rtol=0.0, atol=1e-12 * c)


def test_wishart_moments_pure_an_corner(within):
    # kappa_t = 0 and isotropic Q_E: X is exactly a scaled Wishart matrix.
    # R_B = R_I = I and an orthogonal-row bridge make Q_E a multiple of I
    # and leave V independent of H_E; the RIS path and phase noise stay on.
    _, est, hw, xi = make_setup(seed=58, m=24, n=36, k=2, m_e=2,
                                correlated=False, p_t=10.0, bridge="dft")
    hw0 = rl.HardwareProfile(p_t=hw.p_t)
    _, q = rl.stream_powers(hw.p_t, xi, 2, 24)
    from ris_lab.rates import wishart_match
    q_e = est.stats.q_e
    assert_isotropic(q_e)
    tr_q = float(np.real(np.trace(q_e)))
    tr_q2 = herm_trace_prod(q_e, q_e)
    phi_w, eta_w = wishart_match(tr_q, tr_q2, q, 0.0, hw.p_t, 24, 2)
    mom = estimate_wishart_moments(est, hw0, xi, rl.TrialPlan(12000, master_seed=3))
    within("tr X / M_E", abs(mom.tr_x_over_me - eta_w * phi_w), below=3 * mom.tr_x_over_me_se)
    within("off-diagonal m2", abs(mom.offdiag_m2 - eta_w * phi_w ** 2),
           below=3 * mom.offdiag_m2_se)


@pytest.fixture(scope="module")
def isotropic_corner_blocks():
    """(est, hw, xi, table) at the corner of ``test_wishart_moments_pure_an_corner``.

    ``table`` holds the secrecy oracle's per-block terms of each user, from
    ``_oracle`` on its own stream with a callback of this module: Eve's
    log2(1 + gamma) (``_eve_log_rate``, which ``estimate_secrecy`` averages
    into C_E) and a = p ||w_k||^2 / q.
    """
    _, est, hw, xi = make_setup(seed=58, m=24, n=36, k=2, m_e=2,
                                correlated=False, p_t=10.0, bridge="dft")
    hw = rl.HardwareProfile(p_t=hw.p_t)
    p, q = rl.stream_powers(hw.p_t, xi, 2, 24)

    def terms(_, *chunk):
        blk = montecarlo._blocks(est, *chunk)
        return [{"log_rate": _eve_log_rate(blk, p, q, hw.kappa_t_bs, _eve_floor(hw, q)),
                 "a": p * np.sum(np.abs(blk.w) ** 2, axis=1) / q}]

    [table] = montecarlo._oracle([(est,)], terms, rl.TrialPlan(4000, master_seed=3),
                                 CHANNEL_BLOCK, eve=True)
    return est, hw, xi, table


def test_eve_capacity_matches_the_exact_law_at_the_isotropic_corner(isotropic_corner_blocks,
                                                                    within):
    # with Q_E = c I and kappa_t = 0, H_E^H w_k and H_E^H V are independent
    # Gaussians, so gamma_k = a T with T ~ BetaPrime(M_E, M - K - M_E + 1), a
    # Hotelling-type ratio (Muirhead 1982, sec. 3.2). With B ~ Beta(M_E,
    # M - K - M_E + 1), E[ln(1 + a T) | w] = E[ln(1 + (a - 1) B)]
    # + psi(M - K + 1) - psi(M - K - M_E + 1): one 40-node Gauss-Jacobi rule
    # per block and user, exact to about 1e-13 for a up to 50. The oracle's
    # C_E lies within 3 block-paired SE of that conditional mean
    from scipy.special import digamma, roots_jacobi
    _, _, _, table = isotropic_corner_blocks
    m, k, m_e = 24, 2, 2
    b_shape = m - k - m_e + 1
    # nodes and weights of the weight (1 - t)^(b - 1) (1 + t)^(M_E - 1) on [-1, 1]
    t, weights = roots_jacobi(40, b_shape - 1, m_e - 1)
    # E[ln(1 + (a - 1) B)] per block and user, B = (1 + t) / 2
    beta_term = np.log1p((table["a"][..., None] - 1.0) * (1.0 + t) / 2.0) @ weights / np.sum(weights)
    exact = (beta_term + digamma(m - k + 1) - digamma(b_shape)) / np.log(2.0)
    paired = _mean(table["log_rate"]) - _mean(exact)
    within("C_E - exact conditional mean", np.abs(paired.value), below=3 * paired.se)


def test_jensen_value_of_eve_sinr_matches_the_bound_at_the_isotropic_corner(
        isotropic_corner_blocks, within):
    # at the corner C_bar_E is Jensen's value log2(1 + E[gamma])
    # (test_eve_bound_is_jensens_value_at_the_isotropic_corner), so
    # J = log2(1 + mean gamma) over the oracle's blocks lies within 3 SE of it
    est, hw, xi, table = isotropic_corner_blocks
    gamma = _mean(np.exp2(table["log_rate"]) - 1.0)
    jensen = np.log2(1.0 + gamma.value)
    se = gamma.se / ((1.0 + gamma.value) * np.log(2.0))
    bound = [rl.eve_capacity_bound(rl.compute_rate_terms(est, hw, k=k), xi) for k in range(2)]
    within("J - C_bar_E", np.abs(jensen - bound), below=3 * se)


def test_wishart_first_moment_with_transmit_distortion(within):
    # isotropic Q_E as above; E{diag T} = P_t/M I then makes the matched
    # first moment exact with transmit distortion too
    stats, est, hw, xi = make_setup(seed=59, m=24, n=36, k=2, m_e=2,
                                    correlated=False, kappa_dl=0.01, p_t=10.0,
                                    bridge="dft")
    from ris_lab.rates import wishart_match
    q_e = est.stats.q_e
    assert_isotropic(q_e)
    tr_q = float(np.real(np.trace(q_e)))
    tr_q2 = herm_trace_prod(q_e, q_e)
    _, q = rl.stream_powers(hw.p_t, xi, 2, 24)
    phi_w, eta_w = wishart_match(tr_q, tr_q2, q, hw.kappa_t_bs, hw.p_t, 24, 2)
    mom = estimate_wishart_moments(est, hw, xi, rl.TrialPlan(12000, master_seed=9))
    within("tr X / M_E", abs(mom.tr_x_over_me - eta_w * phi_w), below=3 * mom.tr_x_over_me_se)


@pytest.mark.parametrize("seed, kappa_t_bs, master_seed", [(58, 0.0, 3), (59, 0.01, 9)])
def test_cascade_anisotropy_biases_the_wishart_match(seed, kappa_t_bs, master_seed, within):
    # documented limitation: with the random-bearing bridge the rank-N
    # cascade keeps Q_E anisotropic even without R_B and R_I. The users
    # share that cascade, so the AN null space V avoids Q_E's dominant
    # subspace and E{tr X} falls below the isotropic match; the bound on
    # Eve's capacity still holds
    stats, est, _, xi = make_setup(seed=seed, m=24, n=16, k=2, m_e=2,
                                   correlated=False, p_t=10.0)
    hw = rl.HardwareProfile(p_t=10.0, kappa_t_bs=kappa_t_bs)
    p, q = rl.stream_powers(hw.p_t, xi, 2, 24)
    from ris_lab.precoding import null_space_an_batch
    from ris_lab.rates import wishart_match
    q_e = est.stats.q_e
    tr_q = float(np.real(np.trace(q_e)))
    tr_q2 = herm_trace_prod(q_e, q_e)
    phi_w, eta_w = wishart_match(tr_q, tr_q2, q, kappa_t_bs, hw.p_t, 24, 2)
    plan = rl.TrialPlan(12000, master_seed=master_seed)
    mom = estimate_wishart_moments(est, hw, xi, plan)
    within("match bias", eta_w * phi_w - mom.tr_x_over_me, above=3 * mom.tr_x_over_me_se)

    # E{tr X | V, T}/M_E = q tr(V^H Q_E V) + kappa_t tr(diag(T) Q_E)
    rng = np.random.default_rng(4)
    draws = draw_channels(stats, rng, 4000, eve=False)
    y = rl.simulate_pilot_phase(
        draws["h"], est.pilots, rl.pilot_gaussians(rng, draws["h"].shape))
    h_hat = est.estimate(y)
    w = rl.mrt_precoder(h_hat, est)
    v = null_space_an_batch(h_hat)
    an = np.real(np.einsum("bmj,mn,bnj->b", v.conj(), q_e, v))
    diag_t = (p * np.sum(np.abs(w) ** 2, axis=2)
              + q * np.sum(np.abs(v) ** 2, axis=2))
    cond = q * an + kappa_t_bs * diag_t @ np.real(np.diag(q_e))
    cond_se = np.std(cond, ddof=1) / np.sqrt(cond.size)
    within("tr X / M_E - conditional mean", abs(mom.tr_x_over_me - np.mean(cond)),
           below=3 * np.hypot(mom.tr_x_over_me_se, cond_se))

    [orc] = rl.estimate_secrecy([(est, hw, xi)], plan)
    for k in range(2):
        bound = rl.eve_capacity_bound(rl.compute_rate_terms(est, hw, k=k), xi)
        within(f"c_e - bound[{k}]", orc.c_e.value[k] - bound, below=3 * orc.c_e.se[k],
               inclusive=True)
