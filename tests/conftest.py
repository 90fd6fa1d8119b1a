"""Shared fixtures and helpers: small, fast system setups used across the suite.

Statistical tests assert through the ``within`` fixture, which also records
each check's value and bound in a margin ledger; ``pytest --ledger=PATH``
writes the ledger as JSON at the end of the session, and
``tests/ledger_diff.py`` compares two ledgers. Write the option with ``=``:
pytest learns it only from this file, so before that it would take a
separate PATH that exists for a test path and choose another root
directory, without this file.
"""
import dataclasses
import json

import numpy as np
import pytest
from scipy.linalg import eigh

import ris_lab as rl
from ris_lab.linalg import hermitize

LEDGER = pytest.StashKey[dict]()


def pytest_addoption(parser):
    parser.addoption("--ledger", metavar="PATH", default=None,
                     help="write the value, bound and margin of every within() check to PATH")


def pytest_configure(config):
    config.stash[LEDGER] = {}


def pytest_sessionfinish(session):
    path = session.config.getoption("--ledger")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(session.config.stash[LEDGER], fh, indent=1, sort_keys=True)
            fh.write("\n")


def recorder(records):
    """``within(name, value, below=..., above=..., inclusive=False)``, recording into ``records``.

    ``within`` asserts ``above < value < below`` elementwise (``<=`` with
    ``inclusive``; either side may be omitted) and records the check's
    value, bound and margin under ``name``. The margin is the slack to the
    nearer bound, over that bound in a one-sided check and over the
    half-width in a two-sided one: ``within("z", abs(x - y), below=3 * se)``
    reads 1 at x = y, 0.5 at 1.5 se and 0 at the bound. An array records
    its worst element, and a name checked more than once keeps its
    smallest margin.
    """
    def within(name, value, *, below=None, above=None, inclusive=False):
        sides = {side: bound for side, bound in (("below", below), ("above", above))
                 if bound is not None}
        value, *bounds = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                               for v in (value, *sides.values())))
        bounds = dict(zip(sides, bounds))
        less = np.less_equal if inclusive else np.less
        ok = np.ones(value.shape, dtype=bool)
        slack = np.full(value.shape, np.inf)
        if below is not None:
            ok &= less(value, bounds["below"])
            slack = np.minimum(slack, bounds["below"] - value)
        if above is not None:
            ok &= less(bounds["above"], value)
            slack = np.minimum(slack, value - bounds["above"])
        if len(bounds) == 2:
            scale = (bounds["below"] - bounds["above"]) / 2
        else:
            scale = np.abs(*bounds.values())
        margin = slack / scale
        worst = np.unravel_index(np.argmin(margin), margin.shape)
        record = {"value": float(value[worst]), "margin": float(margin[worst]),
                  **{side: float(bound[worst]) for side, bound in bounds.items()}}
        if name not in records or record["margin"] < records[name]["margin"]:
            records[name] = record
        assert np.all(ok), f"{name}: {value} not within ({above}, {below})"

    return within


@pytest.fixture
def within(request):
    """The ``recorder`` check of the margin ledger, under the test's node id."""
    return recorder(request.config.stash[LEDGER].setdefault(request.node.nodeid, {}))


def max_asymmetry(a):
    """Largest entrywise deviation from Hermitian symmetry."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def min_relative_eigenvalue(a):
    """Smallest eigenvalue of the Hermitian part relative to the spectral norm."""
    w = eigh(hermitize(a), eigvals_only=True)
    scale = max(abs(float(w[0])), abs(float(w[-1])), 1.0e-300)
    return float(w[0]) / scale


def effective_ris_correlation(r_i, beta_i, rho, n):
    """Phase-noise-averaged RIS correlation rho^2 R + beta (1 - rho^2) I.

    ``r_i`` is the unit-diagonal N x N correlation (None means identity);
    ``beta_i`` is the link gain. The blend preserves the trace beta_i * N.
    """
    if not 0.0 <= rho <= 1.0:
        raise rl.InvalidParameterError("deviation factor must lie in [0, 1]")
    base = np.eye(n) if r_i is None else r_i
    return beta_i * (rho ** 2 * base + (1.0 - rho ** 2) * np.eye(n))


def aggregate_covariance(r_bk, h1, phi, r_tilde):
    """BS-side covariance of one aggregate link: R_bk + (H1 Phi) Rt (H1 Phi)^H."""
    b = h1 * phi[None, :]
    return hermitize(r_bk + b @ r_tilde @ b.conj().T)


def error_covariance(est, k):
    """User k's LMMSE error covariance R_k - E[h_hat h_hat^H], as in ``compute_rate_terms``."""
    return hermitize(est.stats.r_k[k] - est.est_cov[k])


def complex_normal(rng, shape, scale=1.0):
    """Circularly symmetric complex Gaussian CN(0, scale^2) samples, re then im from ``rng``."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (scale / np.sqrt(2.0)) * (re + 1j * im)


def dft_bridge(m, n, beta_1):
    """First M rows of the N-point DFT, scaled to entry modulus sqrt(beta_1).

    For M <= N the rows are orthogonal, H1 H1^H = beta_1 N I, so the RIS
    cascade adds only a multiple of the identity to every covariance.
    """
    a = np.arange(m)[:, None]
    b = np.arange(n)[None, :]
    return np.sqrt(beta_1) * np.exp(-2j * np.pi * a * b / n)


def make_setup(seed=0, m=16, n=16, k=3, m_e=2, correlated=True, sigma_p2=0.1,
               kind="von_mises", kappa_ul=0.01, kappa_dl=0.01, rho=10.0,
               p_t=10.0, xi=0.5, sigma_u2=1.0, sigma_k2=1.0,
               phi=np.pi / 4, beta_scale=1.0, bridge="los"):
    """One random system configuration: stats, estimator, hardware, data fraction xi.

    ``correlated=False`` drops R_B and R_I only: the rank-N cascade
    (H1 Phi)(H1 Phi)^H stays in every covariance, so with the default
    bridge Q_E is not isotropic.
    ``bridge="dft"`` replaces the random-bearing LoS bridge with
    ``dft_bridge``; together with ``correlated=False`` and M <= N it makes
    Q_E = (beta_3 + beta_ie beta_1 N) I exactly.
    """
    rng = np.random.default_rng(seed)
    dims = rl.SystemDimensions.square_ris(m=m, n=n, k=k, m_e=m_e)
    spec = rl.CorrelationSpec()
    r_b = rl.build_bs_correlation(m, 0.6) if correlated else None
    r_i = rl.build_ris_correlation(dims, spec) if correlated else None
    if bridge == "dft":
        h1 = dft_bridge(m, n, beta_1=0.4 * beta_scale)
    else:
        h1 = rl.build_los_channel(dims, spec, beta_1=0.4 * beta_scale, rng=rng)
    fading = rl.LargeScaleFading(
        beta_1=0.4 * beta_scale,
        beta_i=tuple(beta_scale * rng.uniform(0.3, 1.2, k)),
        beta_2=tuple(beta_scale * rng.uniform(0.5, 1.5, k)),
        beta_3=1.1 * beta_scale, beta_ie=0.6 * beta_scale)
    pm = rl.PhaseNoiseModel(kind=kind, sigma_p2=sigma_p2) if sigma_p2 > 0 else rl.PhaseNoiseModel()
    stats = rl.build_channel_statistics(dims, fading, pm, h1, phi=phi, r_b=r_b, r_i=r_i)
    pilots = rl.PilotConfig(tau_u=k, rho=rho, sigma_u2=sigma_u2,
                            kappa_t_ue=kappa_ul, kappa_r_bs=kappa_ul)
    est = rl.ChannelEstimator(stats, pilots)
    hw = rl.HardwareProfile(p_t=p_t, kappa_t_bs=kappa_dl, kappa_r_ue=kappa_dl,
                            sigma_k2=sigma_k2)
    return stats, est, hw, xi


def draw_channels(stats, rng, n_draws, *, eve):
    """Phase errors, Gaussian links and aggregate channels of ``n_draws`` blocks, in one dict.

    Keys: theta, h_i, h_b, h and h_e, and with ``eve`` also h_ie and h_be;
    without ``eve`` h_e is None. All come from ``rng``: the phase errors
    first, then the Gaussians of ``sample_realizations``, which draws Eve's
    links only with ``eve``.
    """
    theta = stats.phase_model.draw(rng, (n_draws, stats.dims.n))
    draws = rl.sample_realizations(stats, rng, n_draws, eve=eve)
    h, h_e = rl.aggregate_channels(stats, draws, theta)
    return {**draws, "theta": theta, "h": h, "h_e": h_e}


def pilot_matrix(tau_u, k):
    """First K <= tau_u columns of the tau_u-point DFT basis: unit modulus, Phi^H Phi = tau_u I."""
    t = np.arange(tau_u)
    return np.exp(-2j * np.pi * np.outer(t, np.arange(k)) / tau_u)


def time_domain_pilot_phase(h, pilots, rng):
    """Reference pilot phase: tau_u impaired pilot symbols, then despreading.

    ``h`` (B, K, M) holds the user channels. User k sends the pilot row
    sqrt(rho) phi_k^H plus transmit distortion CN(0, rho kappa_t) per symbol;
    antenna m adds receive distortion CN(0, rho kappa_r sum_k |h_km|^2) and
    noise CN(0, sigma_u^2) per symbol. The received (B, M, tau_u) symbols are
    despread with ``pilot_matrix``; returns the (B, M, K) observations.
    """
    b, k, m = h.shape
    tau = pilots.tau_u
    phi_p = pilot_matrix(tau, k)                                       # (tau, K)
    sent = (np.sqrt(pilots.rho) * phi_p.conj().T
            + complex_normal(rng, (b, k, tau), np.sqrt(pilots.rho * pilots.kappa_t_ue)))
    d_r = np.sum(np.abs(h) ** 2, axis=1)                               # (B, M)
    ups_r = np.sqrt(pilots.rho * pilots.kappa_r_bs * d_r)[:, :, None] * complex_normal(
        rng, (b, m, tau))
    noise = complex_normal(rng, (b, m, tau), np.sqrt(pilots.sigma_u2))
    y_p = np.swapaxes(h, 1, 2) @ sent + ups_r + noise                  # (B, M, tau)
    return y_p @ phi_p


def with_eve_antennas(est, m_e):
    """The same link with an M_E-antenna eavesdropper: a new estimator on replaced dims.

    Q_E does not depend on M_E, so only the dimensions change.
    """
    stats = est.stats
    stats = dataclasses.replace(stats, dims=dataclasses.replace(stats.dims, m_e=m_e))
    return rl.ChannelEstimator(stats, est.pilots)


@pytest.fixture
def small_setup():
    return make_setup(seed=3)
