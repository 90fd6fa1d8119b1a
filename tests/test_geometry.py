"""Channel statistics builders and the realization sampler."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.special import i0e, i1e

import ris_lab as rl
from ris_lab import montecarlo
from ris_lab.geometry import MirrorFactor, _rows_times, nested_elements, slabs
from ris_lab.linalg import herm_sqrt, hermitize

from conftest import (
    aggregate_covariance,
    draw_channels,
    effective_ris_correlation,
    make_setup,
    max_asymmetry,
    min_relative_eigenvalue,
    ris_correlation,
    stored_arrays,
)


# --------------------------------------------------------------------------
# phase deviation factor
# --------------------------------------------------------------------------

def test_phase_deviation_zero_noise_is_one():
    assert rl.phase_deviation_factor(rl.PhaseNoiseModel("uniform", 0.0)) == 1.0
    assert rl.phase_deviation_factor(rl.PhaseNoiseModel("von_mises", 0.0)) == 1.0
    assert rl.phase_deviation_factor(rl.PhaseNoiseModel()) == 1.0


@pytest.mark.parametrize("kind", ["von_mises", "uniform", "none"])
def test_zero_phase_noise_power_is_no_phase_noise(kind):
    # sigma_p2 = 0 means no phase noise whatever the law: zero angles drawn
    # without touching the generator, and a circular mean of exactly one
    model = rl.PhaseNoiseModel(kind, 0.0)
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    theta = model.draw(rng, (3, 5))
    assert theta.shape == (3, 5) and np.array_equal(theta, np.zeros((3, 5)))
    assert rng.bit_generator.state == state
    assert rl.phase_deviation_factor(model) == 1.0


def test_phase_deviation_uniform_value():
    # oracle: direct evaluation of sin(iota)/iota at iota = sqrt(0.3)
    iota = np.sqrt(0.3)
    expected = np.sin(iota) / iota
    got = rl.phase_deviation_factor(rl.PhaseNoiseModel("uniform", 0.1))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.9507446651178117, rel=1e-12)


def test_phase_deviation_von_mises_value():
    # oracle: scaled-Bessel-series ratio I1(10)/I0(10)
    expected = i1e(10.0) / i0e(10.0)
    got = rl.phase_deviation_factor(rl.PhaseNoiseModel("von_mises", 0.1))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.9485998259548459, rel=1e-12)


# log grid over the whole range, plus both sides of the switch from the
# power series to the asymptotic series at nu = 30
BESSEL_GRID = np.concatenate([np.logspace(-8, 12, 201),
                              [29.0, 29.999999, np.nextafter(30.0, 0.0), 30.0, 30.000001, 31.0]])


def test_phase_deviation_von_mises_matches_scaled_bessel_ratio():
    # oracle: scipy's exponentially scaled Bessel functions, I1(nu)/I0(nu)
    nus = []
    for nu in BESSEL_GRID:
        model = rl.PhaseNoiseModel("von_mises", 1.0 / nu)
        nu = model.nu_p
        nus.append(nu)
        got = rl.phase_deviation_factor(model)
        assert got == pytest.approx(i1e(nu) / i0e(nu), rel=1e-14), nu
    assert any(29.9 < nu < 30.0 for nu in nus) and any(30.0 <= nu < 30.1 for nu in nus)


def test_phase_deviation_large_concentration_stable():
    # nu up to 1e4 and beyond must not overflow the Bessel ratio
    for sigma_p2 in (1e-4, 1e-6, 1e-8):
        rho = rl.phase_deviation_factor(rl.PhaseNoiseModel("von_mises", sigma_p2))
        assert 0.0 < rho < 1.0
        assert np.isfinite(rho)


@pytest.mark.parametrize("kind", ["von_mises", "uniform"])
def test_phase_deviation_monotone_in_noise(kind):
    grid = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0]
    vals = [rl.phase_deviation_factor(rl.PhaseNoiseModel(kind, s)) for s in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_phase_deviation_negative_power_rejected():
    with pytest.raises(rl.InvalidParameterError):
        rl.PhaseNoiseModel("uniform", -0.1)


# --------------------------------------------------------------------------
# correlation builders
# --------------------------------------------------------------------------

def test_bs_correlation_identity_at_zero():
    assert np.array_equal(rl.build_bs_correlation(5, 0.0), np.eye(5))


def test_bs_correlation_exponential_entries():
    r = rl.build_bs_correlation(6, 0.6)
    assert r[0, 2] == pytest.approx(0.36)
    assert r[5, 3] == pytest.approx(0.36)
    assert np.trace(r) == pytest.approx(6.0)


def test_bs_correlation_positive_definite():
    # oracle: full eigendecomposition of the 4x4 matrix
    w = np.linalg.eigvalsh(rl.build_bs_correlation(4, 0.6))
    assert w.min() > 0.0


def test_bs_correlation_domain():
    with pytest.raises(rl.InvalidParameterError):
        rl.build_bs_correlation(4, 1.0)
    with pytest.raises(rl.InvalidParameterError):
        rl.build_bs_correlation(4, -0.1)


def test_ris_correlation_unit_diagonal_and_trace():
    dims = rl.SystemDimensions.square_ris(m=4, n=12, k=2, m_e=1)
    r = rl.build_ris_correlation(dims, rl.CorrelationSpec())
    assert np.allclose(np.diag(r), 1.0)
    assert np.trace(r) == pytest.approx(dims.n)
    assert max_asymmetry(r) < 1e-12


def test_ris_correlation_half_wavelength_neighbours_decorrelate():
    lam = 0.1
    dims = rl.SystemDimensions.square_ris(m=4, n=16, k=2, m_e=1)
    r = rl.build_ris_correlation(dims, rl.CorrelationSpec(wavelength=lam, d_h=lam / 2, d_v=lam / 2))
    assert r[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert r[0, 4] == pytest.approx(0.0, abs=1e-15)   # vertical neighbour


def test_ris_correlation_quarter_wavelength_value():
    # oracle: sin(pi/2)/(pi/2)
    lam = 0.1
    dims = rl.SystemDimensions.square_ris(m=4, n=16, k=2, m_e=1)
    r = rl.build_ris_correlation(dims, rl.CorrelationSpec(wavelength=lam, d_h=lam / 4, d_v=lam / 4))
    expected = np.sin(np.pi / 2) / (np.pi / 2)
    assert r[0, 1] == pytest.approx(expected, rel=1e-12)
    assert r[0, 1] == pytest.approx(0.6366197723675814, rel=1e-12)


def tensor_ris_correlation(dims, spec):
    """Reference R_I through the (N, N, 3) difference tensor and ``np.sinc`` itself."""
    pos = rl.geometry.ris_element_positions(dims, spec)
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sinc(2.0 * np.sqrt(np.sum(diff * diff, axis=-1)) / spec.wavelength)


@pytest.mark.parametrize("n, n_h", [(16, 4), (12, 3), (24, 8), (196, 14), (200, 8), (784, 28)])
@pytest.mark.parametrize("d_h, d_v", [(None, None), (0.025, 0.025), (0.05, 0.03)])
def test_ris_correlation_equals_tensor_formula_bit_for_bit(n, n_h, d_h, d_v):
    # the in-place build repeats np.sinc's steps on the same operands
    dims = rl.SystemDimensions(m=4, n=n, k=2, m_e=1, n_h=n_h)
    spec = rl.CorrelationSpec(wavelength=0.1, d_h=d_h, d_v=d_v)
    r = rl.build_ris_correlation(dims, spec)
    assert np.array_equal(r, tensor_ris_correlation(dims, spec))
    assert not r.flags.writeable


def test_ris_correlation_peaks_near_two_n_squared_doubles():
    # the (N, N, 3) difference tensor and np.sinc's temporaries reach 7 N^2
    dims = rl.SystemDimensions(m=4, n=900, k=2, m_e=1, n_h=30)
    tracemalloc.start()
    try:
        rl.build_ris_correlation(dims, rl.CorrelationSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * dims.n ** 2 * 8


def test_ris_correlation_row_major_positions():
    dims = rl.SystemDimensions(m=4, n=6, k=2, m_e=1, n_h=3)
    pos = rl.geometry.ris_element_positions(dims, rl.CorrelationSpec(wavelength=0.1))
    assert np.allclose(pos[4], [0.0, 0.05, 0.05])  # element 4: column 1, row 1


# --------------------------------------------------------------------------
# LoS bridge and path loss
# --------------------------------------------------------------------------

def test_los_channel_constant_modulus_and_energy():
    dims = rl.SystemDimensions.square_ris(m=6, n=16, k=2, m_e=1)
    h1 = rl.build_los_channel(dims, rl.CorrelationSpec(), beta_1=0.7,
                              rng=np.random.default_rng(1))
    assert np.allclose(np.abs(h1), np.sqrt(0.7))
    energy = np.trace(h1 @ h1.conj().T).real
    assert energy == pytest.approx(0.7 * dims.m * dims.n, rel=1e-12)


def test_los_channel_deterministic_per_seed():
    dims = rl.SystemDimensions.square_ris(m=6, n=16, k=2, m_e=1)
    a = rl.build_los_channel(dims, rl.CorrelationSpec(), 1.0, np.random.default_rng(9))
    b = rl.build_los_channel(dims, rl.CorrelationSpec(), 1.0, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_los_channel_large_n_near_identity_gram(within):
    # supports the large-RIS limit used by the asymptotic rate forms
    dims = rl.SystemDimensions.square_ris(m=8, n=512, k=2, m_e=1)
    spec = rl.CorrelationSpec()
    devs = []
    for seed in range(20):
        h1 = rl.build_los_channel(dims, spec, 1.0, np.random.default_rng(seed))
        gram = h1 @ h1.conj().T / dims.n
        devs.append(np.linalg.norm(gram - np.eye(dims.m)) / np.sqrt(dims.m))
    within("mean gram deviation from identity", np.mean(devs), below=0.2)


def test_path_loss_reference_point():
    assert rl.path_loss(1.0, 3.2) == pytest.approx(0.01)
    assert rl.path_loss(123.0, 0.0) == pytest.approx(0.01)
    assert rl.path_loss(100.0, 2.1) == pytest.approx(0.01 * 100.0 ** -2.1, rel=1e-12)
    with pytest.raises(rl.InvalidParameterError):
        rl.path_loss(0.0, 2.0)


# --------------------------------------------------------------------------
# effective correlations and aggregate covariances
# --------------------------------------------------------------------------

def test_effective_ris_correlation_endpoints():
    dims = rl.SystemDimensions.square_ris(m=4, n=16, k=2, m_e=1)
    r_i = rl.build_ris_correlation(dims, rl.CorrelationSpec())
    beta = 0.8
    assert np.allclose(effective_ris_correlation(r_i, beta, 1.0, 16), beta * r_i)
    assert np.allclose(effective_ris_correlation(r_i, beta, 0.0, 16), beta * np.eye(16))
    # identity template is a fixed point for any deviation factor
    blended = effective_ris_correlation(None, beta, 0.6366, 16)
    assert np.allclose(blended, beta * np.eye(16))


def test_effective_ris_correlation_trace_preserved():
    dims = rl.SystemDimensions.square_ris(m=4, n=36, k=2, m_e=1)
    r_i = rl.build_ris_correlation(dims, rl.CorrelationSpec())
    for rho in (0.0, 0.3, 0.95):
        r_t = effective_ris_correlation(r_i, 0.7, rho, 36)
        assert np.trace(r_t).real == pytest.approx(0.7 * 36, rel=1e-9)
        assert min_relative_eigenvalue(r_t) > -1e-10


def test_aggregate_covariance_no_ris_path():
    dims = rl.SystemDimensions.square_ris(m=4, n=9, k=2, m_e=1)
    h1 = rl.build_los_channel(dims, rl.CorrelationSpec(), 1.0, np.random.default_rng(0))
    r_bk = 0.9 * rl.build_bs_correlation(4, 0.5)
    phi = np.exp(1j * np.full(9, 0.3))
    got = aggregate_covariance(r_bk, h1, phi, np.zeros((9, 9)))
    assert np.allclose(got, r_bk)


def test_aggregate_covariance_phase_cancels_for_identity_template():
    # with R_I proportional to identity the phase configuration drops out
    stats_a = make_setup(seed=5, correlated=False, phi=np.pi / 4)[0]
    rng = np.random.default_rng(12)
    stats_b = make_setup(seed=5, correlated=False,
                         phi=rng.uniform(0, 2 * np.pi, 16))[0]
    for a, b in zip(stats_a.r_k, stats_b.r_k):
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-10
    # and the identity-template covariance is R_Bk + beta_i H1 H1^H
    hh = stats_a.h1 @ stats_a.h1.conj().T
    expect = stats_a.fading.beta_2[0] * np.eye(16) + stats_a.fading.beta_i[0] * hh
    assert np.linalg.norm(stats_a.r_k[0] - expect) / np.linalg.norm(expect) < 1e-12


@pytest.mark.parametrize("correlated", [True, False])
def test_derived_covariances_equal_the_assembled_ones_bit_for_bit(correlated):
    # r_k and q_e, derived on each read from the stored cascade congruences,
    # equal the covariances assembled in one piece from the builder's inputs
    stats = make_setup(seed=8, correlated=correlated)[0]
    fading, m, r_i = stats.fading, stats.dims.m, ris_correlation(stats)
    rho = rl.phase_deviation_factor(stats.phase_model)
    b = stats.h1 * stats.phi[None, :]
    cascade_iden = hermitize(b @ b.conj().T)
    cascade_corr = cascade_iden if r_i is None else hermitize(b @ r_i @ b.conj().T)
    blend = rho ** 2 * cascade_corr + (1.0 - rho ** 2) * cascade_iden
    base_b = np.eye(m) if stats.r_b is None else stats.r_b
    r_k = [hermitize(b2 * base_b + bi * blend) for b2, bi in zip(fading.beta_2, fading.beta_i)]
    assert all(np.array_equal(got, want) for got, want in zip(stats.r_k, r_k, strict=True))
    assert np.array_equal(stats.q_e, hermitize(fading.beta_3 * base_b + fading.beta_ie * blend))


def test_statistics_store_no_per_user_array():
    # the stored arrays, those in lists and tuples included, do not grow with K
    def stored_bytes(stats):
        return sum(a.nbytes for a in stored_arrays(stats))

    assert stored_bytes(make_setup(seed=3, k=2)[0]) == stored_bytes(make_setup(seed=3, k=6)[0])


# --------------------------------------------------------------------------
# mirror-sector factors
# --------------------------------------------------------------------------

def factor_transpose(factor):
    """F^T: the factor applied to the identity's rows, each a white sector coefficient."""
    return factor.color(np.eye(factor.grid[0] * factor.grid[1]))


def grid_rows(r, grid):
    """``MirrorFactor.of``'s row reader of a dense template ``r``: grid row i's (n_h, N) rows."""
    return lambda i: r[i * grid[1]:(i + 1) * grid[1]]


def ris_template(rows, cols):
    dims = rl.SystemDimensions(m=2, n=rows * cols, k=1, m_e=1, n_h=cols)
    return rl.build_ris_correlation(dims, rl.CorrelationSpec())


def dense_fold(r4, size, signs):
    """One sector's block of R, (a_v a_h, a_v a_h), folded from the whole R4 at once.

    ``r4`` is R as (rows, columns, rows, columns). The block's rows are R's
    at the first ``size`` = (a_v, a_h) grid rows and columns; each of its
    columns adds (sign +1) or subtracts (sign -1) R's column at the
    mirrored row, then at the mirrored column.
    """
    a_v, a_h = size
    x = r4[:a_v, :a_h]
    x = x[:, :, :a_v] + signs[0] * x[:, :, ::-1][:, :, :a_v]
    x = x[..., :a_h] + signs[1] * x[..., ::-1][..., :a_h]
    return x.reshape(a_v * a_h, a_v * a_h)


def dense_roots(r, grid):
    """Reference sector roots of a dense, mirror-symmetric template ``r`` on ``grid``."""
    r4 = r.reshape(*grid, *grid)
    roots = []
    for size, signs in zip(MirrorFactor.sectors(grid), [(1, 1), (1, -1), (-1, 1), (-1, -1)]):
        if 0 in size:
            roots.append(np.empty((0, 0)))
            continue
        s = np.kron(*(np.where(np.arange(a) == n - a, np.sqrt(0.5), 1.0)
                      for a, n in zip(size, grid)))
        block = dense_fold(r4, size, signs) * s[:, None] * s[None, :]
        roots.append(herm_sqrt(block) * (0.5 / s)[None, :])
    return roots


# a square, a wide and an odd grid, a single row, and 20 x 20, where the
# root clamps eigenvalues: the sector roots, each clamped against its own
# block's largest eigenvalue, reproduce R no worse than the whole root
@pytest.mark.parametrize("template, grid", [
    (ris_template(14, 14), (14, 14)), (ris_template(8, 16), (8, 16)),
    (ris_template(3, 5), (3, 5)), (ris_template(1, 7), (1, 7)),
    (ris_template(20, 20), (20, 20)),
    (rl.build_bs_correlation(8, 0.6), (1, 8)), (rl.build_bs_correlation(7, 0.6), (1, 7))])
def test_sector_factor_reproduces_the_template(template, grid):
    f_t = factor_transpose(MirrorFactor.of(grid_rows(template, grid), grid))
    root = herm_sqrt(template)
    assert np.linalg.norm(f_t.T @ f_t - template) <= np.linalg.norm(root @ root - template)


@pytest.mark.parametrize("grid, m", [((3, 5), 7), ((1, 7), 8), ((14, 14), 7), ((20, 20), 8)])
def test_row_read_factors_equal_the_dense_fold(grid, m):
    # template_factors reads R_I one grid row of elements at a time and R_B
    # as a one-row grid: the rows equal the dense R_I's, and the roots of
    # both factors the dense fold's, bit for bit. It reads only the grid,
    # R_B and ris_spec of the statistics
    dims = rl.SystemDimensions(m=m, n=grid[0] * grid[1], k=2, m_e=1, n_h=grid[1])
    spec = rl.CorrelationSpec()
    stats = dataclasses.replace(make_setup(seed=4, m=m, k=2, m_e=1)[0], dims=dims,
                                ris_spec=spec)
    r = rl.build_ris_correlation(dims, spec)
    assert np.array_equal(np.concatenate([rl.build_ris_correlation(
        dims, spec, slice(i * grid[1], (i + 1) * grid[1])) for i in range(grid[0])]), r)
    f_i, f_b = rl.template_factors(stats)
    assert (f_i.grid, f_b.grid) == (grid, (1, m))
    for factor, template in ((f_i, r), (f_b, stats.r_b)):
        for root, reference in zip(factor.roots, dense_roots(template, factor.grid), strict=True):
            assert root.shape == reference.shape and np.array_equal(root, reference)


def test_sector_factor_takes_one_root_per_nonempty_sector():
    assert [a.shape for a in MirrorFactor.of(grid_rows(ris_template(3, 5), (3, 5)),
                                             (3, 5)).roots] == [(6, 6), (4, 4), (3, 3), (2, 2)]
    assert [a.shape for a in MirrorFactor.of(grid_rows(ris_template(1, 7), (1, 7)),
                                             (1, 7)).roots] == [(4, 4), (3, 3), (0, 0), (0, 0)]


def test_sector_factor_makes_no_template_size_temporary():
    r = ris_template(20, 20)
    tracemalloc.start()
    try:
        MirrorFactor.of(grid_rows(r, (20, 20)), (20, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < r.nbytes


def test_template_without_mirror_symmetry_is_refused_when_factored(monkeypatch):
    # an estimator reads R_B whole; only the sampler needs the factors, which
    # are no part of the statistics: the oracle builds them once per draw
    # run, so a skewed R_B is refused before any chunk draws. R_I is built
    # from its spacings, so it is mirror-symmetric by construction
    stats, est, hw, xi = make_setup(seed=9)
    rng = np.random.default_rng(0)
    skewed = dataclasses.replace(stats, r_b=np.diag(rng.uniform(0.5, 2.0, stats.dims.m)))
    with pytest.raises(rl.InvalidParameterError):
        rl.template_factors(skewed)
    skewed_est = rl.ChannelEstimator(skewed, est.pilots)
    drawn = []
    sample = montecarlo.sample_realizations
    monkeypatch.setattr(montecarlo, "sample_realizations",
                        lambda *args, **kwargs: drawn.append(args[2]) or sample(*args, **kwargs))
    monkeypatch.setenv("RIS_LAB_THREADS", "2")
    plan = rl.TrialPlan(n_blocks=2 * montecarlo.CHUNK_BLOCKS, master_seed=1)
    with pytest.raises(rl.InvalidParameterError):
        rl.estimate_secrecy([(skewed_est, hw, xi)], plan)
    assert drawn == []
    f_i, f_b = rl.template_factors(stats)
    assert f_i.grid == (4, 4) and f_b.grid == (1, 16)
    assert not any(isinstance(getattr(stats, name), MirrorFactor)
                   for name in dir(stats) if not name.startswith("__"))


def test_covariances_hermitian_psd_invariants(small_setup):
    stats = small_setup[0]
    n, fading = stats.dims.n, stats.fading
    rho, r_i = rl.phase_deviation_factor(stats.phase_model), ris_correlation(stats)
    mats = list(stats.r_k) + [
        stats.q_e,
        effective_ris_correlation(r_i, fading.beta_i[0], rho, n),
        effective_ris_correlation(r_i, fading.beta_ie, rho, n)]
    for mat in mats:
        assert max_asymmetry(mat) < 1e-12
        assert min_relative_eigenvalue(mat) > -1e-10


def test_sample_covariance_matches_aggregate(small_setup, within):
    stats = small_setup[0]
    draws = draw_channels(stats, np.random.default_rng(2), 100_000, eve=False)
    h0 = draws["h"][:, 0, :]
    cov = np.einsum("bi,bj->ij", h0, h0.conj()) / h0.shape[0]
    rel = np.linalg.norm(cov - stats.r_k[0]) / np.linalg.norm(stats.r_k[0])
    within("relative covariance error", rel, below=0.03)


def test_sample_covariance_direct_link(small_setup, within):
    stats = small_setup[0]
    draws = draw_channels(stats, np.random.default_rng(4), 100_000, eve=False)
    hb = draws["h_b"][:, 1, :]
    cov = np.einsum("bi,bj->ij", hb, hb.conj()) / hb.shape[0]
    expect = stats.fading.beta_2[1] * stats.r_b
    within("relative covariance error", np.linalg.norm(cov - expect) / np.linalg.norm(expect),
           below=0.03)


def test_sample_covariance_eve(small_setup, within):
    stats = small_setup[0]
    draws = draw_channels(stats, np.random.default_rng(6), 60_000, eve=True)
    he = draws["h_e"]
    cov = np.einsum("bme,bne->mn", he, he.conj()) / (he.shape[0] * he.shape[2])
    within("relative covariance error",
           np.linalg.norm(cov - stats.q_e) / np.linalg.norm(stats.q_e), below=0.03)


def test_sampler_phase_errors(within):
    stats = make_setup(seed=1, sigma_p2=0.0)[0]
    draws = draw_channels(stats, np.random.default_rng(0), 10, eve=False)
    assert np.array_equal(draws["theta"], np.zeros_like(draws["theta"]))

    stats_vm = make_setup(seed=1, sigma_p2=0.1)[0]
    draws = draw_channels(stats_vm, np.random.default_rng(0), 7000, eve=False)
    mean = np.mean(np.exp(1j * draws["theta"]))
    rho = rl.phase_deviation_factor(stats_vm.phase_model)
    within("mean phasor error", abs(mean - rho), below=0.005)   # ~1e5 angle draws in total


def test_sampler_aggregate_identity(small_setup):
    # h = H1 Phi Theta h_I + h_B must hold draw by draw
    stats = small_setup[0]
    draws = draw_channels(stats, np.random.default_rng(8), 4, eve=True)
    bridge = stats.h1 * stats.phi[None, :]
    for b in range(4):
        rot = np.exp(1j * draws["theta"][b])
        for k in range(stats.dims.k):
            expect = bridge @ (rot * draws["h_i"][b, k]) + draws["h_b"][b, k]
            assert np.allclose(expect, draws["h"][b, k])
        expect_e = bridge @ (rot[:, None] * draws["h_ie"][b]) + draws["h_be"][b]
        assert np.allclose(expect_e, draws["h_e"][b])


def test_no_phase_errors_skip_the_rotation_bit_identically(small_setup):
    # theta = None (a law that draws no phase errors) skips exp(j theta);
    # the channels equal those rotated by exp(j0)
    stats = small_setup[0]
    draws = rl.sample_realizations(stats, np.random.default_rng(3), 6, eve=True,
                                   factors=rl.template_factors(stats))
    skipped = rl.aggregate_channels(stats, draws, None)
    rotated = rl.aggregate_channels(stats, draws, np.zeros((6, stats.dims.n)))
    for a, b in zip(skipped, rotated, strict=True):
        assert np.array_equal(a, b)


def whole_array_channels(stats, draws, theta, elements):
    """Reference: one GEMM by H1 over all blocks of the links rotated by exp(j theta) Phi, plus the direct links."""
    m, ris = stats.dims.m, slice(None) if elements is None else elements
    rot = stats.phi if theta is None else (np.exp(1j * theta[:, ris]) * stats.phi)[:, None, :]

    def path(x, direct):
        return _rows_times(np.multiply(rot, x[:, :, ris]), stats.h1) + direct

    h = path(draws["h_i"], draws["h_b"][:, :, :m])
    h_e = path(np.swapaxes(draws["h_ie"], 1, 2), np.swapaxes(draws["h_be"], 1, 2)[:, :, :m])
    return h, np.swapaxes(h_e, 1, 2)


@pytest.mark.parametrize("m_e", [1, 4])
@pytest.mark.parametrize("blocks", [1, 2, 26, 100])
def test_slabbed_channels_equal_one_gemm_over_all_blocks(blocks, m_e):
    # the oracle builds a chunk's channels one slab of blocks at a time,
    # each slab's rows written into the chunk-size arrays (``out``); a
    # complex GEMM row does not depend on the rows beside it, so the
    # channels equal the whole-array product bit for bit, at the draw's grid
    # and at a 3 x 3 sub-grid with 6 of its 8 antennas, and the draw is left
    # as it was. Cutting 26 blocks as 25 + 1 would fail the [26-1] case:
    # its one-row product takes another BLAS path
    grid = make_setup(seed=4, m=8, n=16, m_e=m_e)[0]
    small = make_setup(seed=5, m=6, n=9, m_e=m_e)[0]
    rng = np.random.default_rng(blocks)
    draws = rl.sample_realizations(grid, rng, blocks, eve=True,
                                   factors=rl.template_factors(grid))
    before = {name: x.copy() for name, x in draws.items()}
    for theta in (None, grid.phase_model.draw(rng, (blocks, grid.dims.n))):
        for stats, elements in ((grid, None), (small, nested_elements(small.dims, grid.dims))):
            d = stats.dims
            out = [np.empty((blocks, d.k, d.m), dtype=complex),
                   np.empty((blocks, d.m_e, d.m), dtype=complex)]
            for s in slabs(blocks):
                rl.aggregate_channels(stats, {name: x[s] for name, x in draws.items()},
                                      None if theta is None else theta[s],
                                      elements=elements, out=[o[s] for o in out])
            got = (out[0], np.swapaxes(out[1], 1, 2))
            want = whole_array_channels(stats, draws, theta, elements)
            alone = rl.aggregate_channels(stats, draws, theta, elements=elements)
            for a, b, c in zip(got, want, alone, strict=True):
                assert a.shape == b.shape and np.array_equal(a, b) and np.array_equal(c, b)
    assert all(np.array_equal(draws[name], x) for name, x in before.items())


def test_sampler_deterministic(small_setup):
    stats = small_setup[0]
    a = draw_channels(stats, np.random.default_rng(42), 5, eve=True)
    b = draw_channels(stats, np.random.default_rng(42), 5, eve=True)
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_single_realization_shapes(small_setup):
    stats = small_setup[0]
    real = draw_channels(stats, np.random.default_rng(0), 1, eve=True)
    dims = stats.dims
    assert real["h"].shape == (1, dims.k, dims.m)
    assert real["h_e"].shape == (1, dims.m, dims.m_e)
    assert real["theta"].shape == (1, dims.n)
    assert np.allclose(np.abs(np.exp(1j * real["theta"])), 1.0)


# --------------------------------------------------------------------------
# dimension invariants
# --------------------------------------------------------------------------

def test_dimension_invariants():
    with pytest.raises(rl.InvalidParameterError):
        rl.SystemDimensions(m=4, n=6, k=4, m_e=1, n_h=3)   # M <= K
    with pytest.raises(rl.InvalidParameterError):
        rl.SystemDimensions(m=8, n=7, k=2, m_e=1, n_h=3)   # grid mismatch
    with pytest.raises(rl.InvalidParameterError):
        rl.SystemDimensions(m=8, n=6, k=2, m_e=1, n_h=0)   # empty rows
