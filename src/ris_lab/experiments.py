"""Named experiments reproducing the parametric studies, with CSV output.

A single JSON-serializable configuration drives everything: scenario
geometry (users and the eavesdropper evenly dispersed on a circle,
BS and RIS at fixed standoff distances), hardware and phase-noise knobs,
the sweep grid, and the Monte Carlo budget. Every run writes one CSV
(sweep variable first, closed-form columns, oracle columns with ``_se``
companions, then seed and config hash) plus a manifest.

SNR convention: the downlink axis is P_t / sigma_k^2 in dB with
sigma_k^2 = 1, the uplink pilot axis is rho / sigma_u^2; path gains are
rescaled so the mean direct-link gain is one (see generate_scenario), so
0 dB means 'transmit power equal to the noise floor through an average
direct link'.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _pkg_version
from .errors import (
    BoundInvalidError,
    ConfigValidationError,
    InfiniteEveCapacityError,
    InvalidParameterError,
    RisLabError,
)
from .estimation import ChannelEstimator, PilotConfig, nmse_high_power_limit, nmse_large_n_limit
from .geometry import (
    CorrelationSpec,
    LargeScaleFading,
    PhaseNoiseModel,
    SystemDimensions,
    build_bs_correlation,
    build_channel_statistics,
    build_los_channel,
    build_ris_correlation,
    path_loss,
)
from .hardware import HardwareProfile
from .montecarlo import (
    THREADS_ENV,
    TrialPlan,
    estimate_nmse,
    estimate_secrecy,
    worker_count,
)
from .montecarlo import (  # noqa: F401 -- bench/tracer.py wraps these bindings
    estimate_eve_capacity,
    estimate_user_rate,
)
from .power_alloc import grid_search_xi
from .precoding import PowerAllocation
from .rates import (
    compute_rate_terms,
    eve_capacity_bound,
    secrecy_gap_split,
    secrecy_large_n,
    secrecy_limit,
    secrecy_power_scaled,
    secrecy_rate,
    secrecy_uncorrelated,
    user_rate,
)
from .streams import LOS_ANGLES, SCENARIO, derive_rng

EXPERIMENT_NAMES = (
    "nmse_vs_snr",
    "nmse_vs_N",
    "secrecy_vs_snr",
    "secrecy_vs_M",
    "secrecy_vs_N",
    "asymptotic_vs_N",
    "xi_sweep",
    "kappa_t_sweep",
    "phase_noise_sweep",
)


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings; JSON round-trips exactly."""

    # array sizes
    m: int = 64
    n: int = 100
    k: int = 6
    m_e: int = 4
    tau_u: int | None = None            # None -> K

    # powers; snr_db sets P_t = 10^(snr/10) * sigma_k2
    snr_db: float = 0.0
    pilot_snr_db: float | None = None   # None -> snr_db
    sigma_k2: float = 1.0
    sigma_u2: float = 1.0
    xi: float = 0.5

    # hardware distortion factors
    kappa_t_ue: float = 0.01
    kappa_r_bs: float = 0.01
    kappa_t_bs: float = 0.01
    kappa_r_ue: float = 0.01

    # RIS phase noise and phase setting
    phase_noise_kind: str = "von_mises"
    sigma_p2: float = 0.1
    ris_phase: float = math.pi / 4

    # spatial correlation
    bs_corr: float = 0.6
    wavelength: float = 0.1
    ris_spacing_h: float | None = None  # None -> wavelength / 2
    ris_spacing_v: float | None = None

    # scenario geometry (meters)
    circle_radius: float = 50.0
    ris_distance: float = 100.0
    bs_distance: float = 200.0
    zeta_r: float = 2.1
    zeta_d: float = 3.2
    path_gain_ref_db: float = -20.0
    ref_distance: float = 1.0
    normalize_gains: bool = True

    # sweep control
    sweep: list = field(default_factory=list)   # empty -> experiment default
    phase_noise_levels: list = field(default_factory=lambda: [0.0, 0.1, 1.0])
    power_scaling_eu_db: float = 20.0

    # Monte Carlo and output
    n_blocks: int = 400
    seed: int = 20240901
    out_dir: str = "results"

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.m <= self.k:
            raise ConfigValidationError(f"M={self.m} must exceed K={self.k}")
        if self.tau_u is not None and self.tau_u < self.k:
            raise ConfigValidationError("pilot length shorter than user count")
        if self.k < 1 or self.m_e < 1 or self.n < 1:
            raise ConfigValidationError("counts must be positive")
        if not 0.0 < self.xi <= 1.0:
            raise ConfigValidationError("xi must lie in (0, 1]")
        if not 0.0 <= self.bs_corr < 1.0:
            raise ConfigValidationError("bs_corr must lie in [0, 1)")
        if self.phase_noise_kind not in ("von_mises", "uniform", "none"):
            raise ConfigValidationError(f"unknown phase noise kind {self.phase_noise_kind!r}")
        if self.sigma_p2 < 0:
            raise ConfigValidationError("sigma_p2 must be non-negative")
        if self.n_blocks < 1:
            raise ConfigValidationError("n_blocks must be positive")
        if min(self.kappa_t_ue, self.kappa_r_bs, self.kappa_t_bs, self.kappa_r_ue) < 0:
            raise ConfigValidationError("kappa factors must be non-negative")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigValidationError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        for name, value in data.items():
            _check_type(name, value, hints[name])
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigValidationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigValidationError("config JSON must be an object")
        return cls.from_dict(data)

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def paper_scale(self) -> "ExperimentConfig":
        """Figure-scale array sizes instead of the desk-scale defaults."""
        return self.replace(m=128, n=196, k=6, m_e=4)

    def config_hash(self) -> str:
        """Hash of every setting that shapes the results; ``out_dir`` does not."""
        data = self.to_dict()
        del data["out_dir"]
        payload = json.dumps(data, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    # -- derived quantities ------------------------------------------------

    @property
    def p_t(self) -> float:
        return 10.0 ** (self.snr_db / 10.0) * self.sigma_k2

    @property
    def rho(self) -> float:
        snr = self.snr_db if self.pilot_snr_db is None else self.pilot_snr_db
        return 10.0 ** (snr / 10.0) * self.sigma_u2

    @property
    def j0(self) -> float:
        return 10.0 ** (self.path_gain_ref_db / 10.0)

    def dimensions(self, m=None, n=None) -> SystemDimensions:
        try:
            return SystemDimensions.square_ris(
                m=m or self.m, n=n or self.n, k=self.k, m_e=self.m_e,
                tau_u=self.tau_u)
        except InvalidParameterError as exc:
            raise ConfigValidationError(str(exc)) from exc

    def correlation_spec(self) -> CorrelationSpec:
        return CorrelationSpec(l=self.bs_corr, wavelength=self.wavelength,
                               d_h=self.ris_spacing_h, d_v=self.ris_spacing_v)

    def hardware(self, sigma_p2=None, kappa_t_bs=None) -> HardwareProfile:
        return HardwareProfile(
            kappa_t_ue=self.kappa_t_ue, kappa_r_bs=self.kappa_r_bs,
            kappa_t_bs=self.kappa_t_bs if kappa_t_bs is None else kappa_t_bs,
            kappa_r_ue=self.kappa_r_ue,
            sigma_u2=self.sigma_u2, sigma_k2=self.sigma_k2,
            phase_noise=self.phase_noise(sigma_p2))

    def phase_noise(self, sigma_p2=None) -> PhaseNoiseModel:
        sp2 = self.sigma_p2 if sigma_p2 is None else sigma_p2
        kind = "none" if sp2 == 0.0 else self.phase_noise_kind
        return PhaseNoiseModel(kind=kind, sigma_p2=sp2)


_JSON_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list of numbers", type(None): "null"}


def _check_type(name: str, value, hint) -> None:
    """Reject a config value that does not fit its field annotation.

    An int is accepted where a float is expected; a bool only where a bool
    is expected; list fields hold numbers.
    """
    declared = typing.get_args(hint) or (hint,)
    allowed = set(declared) | ({int} if float in declared else set())
    if isinstance(value, bool):
        fits = bool in allowed
    else:
        fits = isinstance(value, tuple(allowed))
    if isinstance(value, list):
        fits = fits and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                            for v in value)
    if not fits:
        expected = " or ".join(_JSON_NAMES[t] for t in declared)
        raise ConfigValidationError(f"config field {name!r} must be {expected}, "
                                    f"got {json.dumps(value)}")


def generate_scenario(config: ExperimentConfig, seed: int):
    """Place users and the eavesdropper on the circle; compute path gains.

    Users and Eve occupy K+1 evenly spaced points on the 50 m circle
    centered at the origin; the rotation of the pattern is drawn from the
    seed. The BS and the RIS sit on the positive x-axis at their standoff
    distances. RIS-side links use the reflected-path exponent, direct
    links the direct exponent.

    With ``normalize_gains`` the direct gains are divided by their mean g
    and the RIS-side gains by sqrt(g), which rescales every aggregate
    channel by the same factor (products of one direct gain or two
    RIS-side gains appear everywhere), so SNR = P_t / sigma_k^2 is
    measured through an average direct link.
    """
    rng = derive_rng(seed, SCENARIO)
    offset = rng.uniform(0.0, 2.0 * np.pi)
    angles = offset + 2.0 * np.pi * np.arange(config.k + 1) / (config.k + 1)
    points = config.circle_radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    bs = np.array([config.bs_distance, 0.0])
    ris = np.array([config.ris_distance, 0.0])

    j0, j1 = config.j0, config.ref_distance
    users, eve = points[:-1], points[-1]
    beta_1 = path_loss(float(np.linalg.norm(bs - ris)), config.zeta_r, j0, j1)
    beta_i = [path_loss(float(np.linalg.norm(ris - u)), config.zeta_r, j0, j1) for u in users]
    beta_2 = [path_loss(float(np.linalg.norm(bs - u)), config.zeta_d, j0, j1) for u in users]
    beta_3 = path_loss(float(np.linalg.norm(bs - eve)), config.zeta_d, j0, j1)
    beta_ie = path_loss(float(np.linalg.norm(ris - eve)), config.zeta_r, j0, j1)

    norm = 1.0
    if config.normalize_gains:
        norm = 1.0 / float(np.mean(beta_2))
        root = math.sqrt(norm)
        beta_1, beta_ie = beta_1 * root, beta_ie * root
        beta_i = [b * root for b in beta_i]
        beta_2 = [b * norm for b in beta_2]
        beta_3 = beta_3 * norm

    fading = LargeScaleFading(
        beta_1=beta_1, beta_i=tuple(beta_i), beta_2=tuple(beta_2),
        beta_3=beta_3, beta_ie=beta_ie, j0=j0, j1=j1,
        zeta_r=config.zeta_r, zeta_d=config.zeta_d)
    meta = {"user_positions": users.tolist(), "eve_position": eve.tolist(),
            "bs_position": bs.tolist(), "ris_position": ris.tolist(),
            "gain_normalization": norm}
    return fading, meta


@dataclass
class SystemSetup:
    """Everything needed to evaluate one grid point."""

    dims: SystemDimensions
    stats: object
    est: ChannelEstimator
    hw: HardwareProfile
    alloc: PowerAllocation
    fading: LargeScaleFading
    h1: np.ndarray


def build_setup(config: ExperimentConfig, m=None, n=None, sigma_p2=None,
                xi=None, kappa_t_bs=None, snr_db=None, p_t=None,
                identity_correlations=False) -> SystemSetup:
    """Assemble statistics and the estimator for one grid point."""
    dims = config.dimensions(m=m, n=n)
    spec = config.correlation_spec()
    fading, _ = generate_scenario(config, config.seed)
    h1 = build_los_channel(dims, spec, fading.beta_1,
                           derive_rng(config.seed, LOS_ANGLES, dims.n))
    if identity_correlations:
        r_b = r_i = None
    else:
        r_b = build_bs_correlation(dims.m, config.bs_corr) if config.bs_corr > 0 else None
        r_i = build_ris_correlation(dims, spec)
    hw = config.hardware(sigma_p2=sigma_p2, kappa_t_bs=kappa_t_bs)
    stats = build_channel_statistics(dims, fading, hw.phase_noise, h1,
                                     phi=config.ris_phase, r_b=r_b, r_i=r_i)
    rho = config.rho if snr_db is None else 10.0 ** (snr_db / 10.0) * config.sigma_u2
    pilots = PilotConfig(tau_u=dims.tau_u, rho=rho, sigma_u2=config.sigma_u2,
                         kappa_t_ue=config.kappa_t_ue, kappa_r_bs=config.kappa_r_bs)
    est = ChannelEstimator(stats, pilots)
    p_total = p_t if p_t is not None else (
        config.p_t if snr_db is None else 10.0 ** (snr_db / 10.0) * config.sigma_k2)
    alloc = PowerAllocation(p_t=p_total, xi=config.xi if xi is None else xi,
                            k=dims.k, m=dims.m)
    return SystemSetup(dims=dims, stats=stats, est=est, hw=hw, alloc=alloc,
                       fading=fading, h1=h1)


# --------------------------------------------------------------------------
# result table and CSV output
# --------------------------------------------------------------------------

@dataclass
class ResultTable:
    experiment: str
    columns: list
    rows: list
    meta: dict = field(default_factory=dict)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".12g")
    return str(value)


def _write_atomically(path: str, write) -> None:
    """Call ``write(fh)`` on a temporary file, then rename it onto ``path``."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def emit_csv(table: ResultTable, path: str) -> None:
    """Write the table atomically; identical tables give identical bytes."""
    if not table.rows:
        raise InvalidParameterError("refusing to write an empty result table")

    def write(fh):
        fh.write(",".join(table.columns) + "\n")
        for row in table.rows:
            if len(row) != len(table.columns):
                raise InvalidParameterError("row width does not match header")
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    _write_atomically(path, write)


def _run_environment() -> dict:
    """BLAS build and thread settings that a timing depends on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var)
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", THREADS_ENV)},
        "worker_count": worker_count(),
    }


def write_manifest(table: ResultTable, path: str, wall_time_s: float) -> None:
    """Write the run's manifest atomically, with its environment."""
    import scipy
    manifest = {
        "experiment": table.experiment,
        "config_hash": table.meta.get("config_hash"),
        "seed": table.meta.get("seed"),
        "rows": len(table.rows),
        "wall_time_s": round(wall_time_s, 3),
        "versions": {"ris_lab": _pkg_version, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "environment": _run_environment(),
        "extra": {k: v for k, v in table.meta.items()
                  if k not in ("config_hash", "seed")},
    }

    def write(fh):
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_atomically(path, write)


# --------------------------------------------------------------------------
# per-experiment runners
# --------------------------------------------------------------------------

def _mc_secrecy(setup: SystemSetup, config: ExperimentConfig):
    """Monte Carlo secrecy estimate averaged over users: (value, se)."""
    plan = TrialPlan(n_blocks=config.n_blocks, master_seed=config.seed)
    orc = estimate_secrecy(setup.est, setup.hw, setup.alloc, plan)
    return orc.r_sec, orc.r_sec_se


def _closed_secrecy(setup: SystemSetup):
    """Closed-form (user rate, eve bound, secrecy) averaged over users.

    The no-AN/no-distortion corner has a defined answer (Eve's SINR
    diverges, so the secrecy rate is zero) and is reported as such.
    """
    r_u, c_e, r_s = [], [], []
    for k in range(setup.dims.k):
        try:
            rep = secrecy_rate(setup.est, setup.hw, setup.alloc, setup.dims.m_e, k=k)
            r_u.append(rep.r_k)
            c_e.append(rep.c_e_bar)
            r_s.append(rep.r_sec)
        except InfiniteEveCapacityError:
            rate, _, _ = user_rate(setup.est, setup.hw, setup.alloc, k=k)
            r_u.append(rate)
            c_e.append(float("inf"))
            r_s.append(0.0)
    return float(np.mean(r_u)), float(np.mean(c_e)), float(np.mean(r_s))


def _run_nmse_vs_snr(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    rows = []
    for snr in grid:
        setup = build_setup(config, snr_db=float(snr))
        plan = TrialPlan(n_blocks=config.n_blocks, master_seed=config.seed)
        orc = estimate_nmse(setup.est, plan)
        floor = np.mean([nmse_high_power_limit(setup.stats, setup.est.pilots, k)
                         for k in range(setup.dims.k)])
        rows.append([float(snr), float(np.mean(setup.est.nmse)), float(floor),
                     float(np.mean(orc.nmse)),
                     float(np.sqrt(np.sum(orc.nmse_se ** 2)) / setup.dims.k),
                     config.seed, config.config_hash()])
    return ResultTable(
        "nmse_vs_snr",
        ["snr_db", "nmse_cf", "nmse_floor_cf", "nmse_mc", "nmse_mc_se",
         "seed", "config_hash"],
        rows)


def _run_nmse_vs_n(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [16, 36, 64, 100, 196, 400]
    rows = []
    for n in grid:
        setup = build_setup(config, n=int(n))
        plan = TrialPlan(n_blocks=config.n_blocks, master_seed=config.seed)
        orc = estimate_nmse(setup.est, plan)
        large_n = np.mean([
            nmse_large_n_limit(setup.fading.beta_2[k], setup.fading.beta_i[k],
                               setup.fading.beta_1, int(n), config.rho,
                               setup.dims.tau_u, config.sigma_u2)
            for k in range(setup.dims.k)])
        rows.append([int(n), float(np.mean(setup.est.nmse)), float(large_n),
                     float(np.mean(orc.nmse)),
                     float(np.sqrt(np.sum(orc.nmse_se ** 2)) / setup.dims.k),
                     config.seed, config.config_hash()])
    return ResultTable(
        "nmse_vs_N",
        ["n", "nmse_cf", "nmse_large_n_cf", "nmse_mc", "nmse_mc_se",
         "seed", "config_hash"],
        rows)


def _secrecy_sweep(config: ExperimentConfig, name, column, grid, setup_kwargs) -> ResultTable:
    rows = []
    for value in grid:
        setup = build_setup(config, **setup_kwargs(value))
        r_user, c_eve, r_sec = _closed_secrecy(setup)
        mc, mc_se = _mc_secrecy(setup, config)
        row_value = int(value) if column in ("m", "n") else float(value)
        rows.append([row_value, r_user, c_eve, r_sec, mc, mc_se,
                     config.seed, config.config_hash()])
    return ResultTable(
        name,
        [column, "r_user_cf", "c_eve_cf", "r_sec_cf", "r_sec_mc", "r_sec_mc_se",
         "seed", "config_hash"],
        rows)


def _run_secrecy_vs_snr(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]
    return _secrecy_sweep(config, "secrecy_vs_snr", "snr_db", grid,
                          lambda v: {"snr_db": float(v)})


def _run_secrecy_vs_m(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [16, 32, 64, 96, 128]
    return _secrecy_sweep(config, "secrecy_vs_M", "m", grid,
                          lambda v: {"m": int(v)})


def _run_secrecy_vs_n(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [36, 64, 100, 144, 196, 256]
    return _secrecy_sweep(config, "secrecy_vs_N", "n", grid,
                          lambda v: {"n": int(v)})


def _run_asymptotic_vs_n(config: ExperimentConfig) -> ResultTable:
    """Uncorrelated-fading asymptotics: exact, large-N, limit, power-scaled."""
    grid = config.sweep or [64, 144, 256, 576, 1024, 2048, 4096]
    e_u = 10.0 ** (config.power_scaling_eu_db / 10.0) * config.sigma_k2
    hw_dl = config.hardware()
    rows = []
    for n in grid:
        n = int(n)
        setup = build_setup(config, n=n, identity_correlations=True)
        # the uncorrelated special case assumes ideal uplink hardware
        pilots = PilotConfig(tau_u=setup.dims.tau_u, rho=config.rho,
                             sigma_u2=config.sigma_u2)
        _, _, r_prop = secrecy_uncorrelated(
            setup.dims, setup.fading, setup.h1, config.rho, setup.dims.tau_u,
            config.sigma_u2, hw_dl, setup.alloc, setup.dims.m_e, k=0)
        _, _, r_48 = secrecy_large_n(
            setup.fading.beta_2[0], setup.fading.beta_i[0], setup.fading.beta_1,
            setup.fading.beta_3, setup.fading.beta_ie, n, setup.dims.m,
            setup.dims.k, setup.dims.m_e, setup.alloc.p_t, setup.alloc.xi,
            config.rho, setup.dims.tau_u, config.sigma_u2, hw_dl)
        _, _, r_50 = secrecy_limit(setup.dims.m, setup.dims.k, setup.dims.m_e,
                                   setup.alloc.xi, hw_dl)
        alloc_scaled = PowerAllocation.power_scaled(e_u, n, setup.alloc.xi,
                                                    setup.dims.k, setup.dims.m)
        _, _, r_scaled = secrecy_uncorrelated(
            setup.dims, setup.fading, setup.h1, config.rho, setup.dims.tau_u,
            config.sigma_u2, hw_dl, alloc_scaled, setup.dims.m_e, k=0)
        _, _, r_49 = secrecy_power_scaled(
            e_u, setup.dims.m, setup.dims.k, setup.dims.m_e,
            setup.fading.beta_i[0], setup.fading.beta_1, setup.alloc.xi, hw_dl)
        rows.append([n, r_prop, r_48, r_50, r_scaled, r_49,
                     config.seed, config.config_hash()])
    return ResultTable(
        "asymptotic_vs_N",
        ["n", "r_sec_prop_cf", "r_sec_large_n_cf", "r_sec_limit_cf",
         "r_sec_scaled_cf", "r_sec_scaled_limit_cf", "seed", "config_hash"],
        rows)


def _run_xi_sweep(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [round(0.05 * i, 2) for i in range(1, 21)]
    rows = []
    for xi in grid:
        xi = float(xi)
        setup = build_setup(config, xi=xi)
        _, _, r_closed = _closed_secrecy(setup)
        terms = [compute_rate_terms(setup.est, setup.hw, setup.alloc.p_t,
                                    setup.dims.m_e, k=k)
                 for k in range(setup.dims.k)]
        try:
            r_eq = np.mean([max(0.0, secrecy_gap_split(t, xi)) for t in terms])
        except InfiniteEveCapacityError:
            r_eq = 0.0
        mc, mc_se = _mc_secrecy(setup, config)
        rows.append([xi, float(r_closed), float(r_eq), mc, mc_se,
                     config.seed, config.config_hash()])
    return ResultTable(
        "xi_sweep",
        ["xi", "r_sec_closed", "r_sec_eq40", "r_sec_mc", "r_sec_mc_se",
         "seed", "config_hash"],
        rows)


def _run_kappa_t_sweep(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [0.0, 0.05 ** 2, 0.1 ** 2, 0.15 ** 2]
    rows = []
    for kappa in grid:
        setup = build_setup(config, kappa_t_bs=float(kappa))
        r_user, c_eve, r_sec = _closed_secrecy(setup)
        mc, mc_se = _mc_secrecy(setup, config)
        rows.append([float(kappa), r_user, c_eve, r_sec, mc, mc_se,
                     config.seed, config.config_hash()])
    return ResultTable(
        "kappa_t_sweep",
        ["kappa_t_bs", "r_user_cf", "c_eve_cf", "r_sec_cf", "r_sec_mc",
         "r_sec_mc_se", "seed", "config_hash"],
        rows)


def _run_phase_noise_sweep(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [64, 100, 196, 400, 784, 1600]
    rows = []
    for n in grid:
        for sp2 in config.phase_noise_levels:
            setup = build_setup(config, n=int(n), sigma_p2=float(sp2))
            _, _, r_sec = _closed_secrecy(setup)
            mc, mc_se = _mc_secrecy(setup, config)
            rows.append([int(n), float(sp2), r_sec, mc, mc_se,
                         config.seed, config.config_hash()])
    return ResultTable(
        "phase_noise_sweep",
        ["n", "sigma_p2", "r_sec_cf", "r_sec_mc", "r_sec_mc_se",
         "seed", "config_hash"],
        rows)


_RUNNERS = {
    "nmse_vs_snr": _run_nmse_vs_snr,
    "nmse_vs_N": _run_nmse_vs_n,
    "secrecy_vs_snr": _run_secrecy_vs_snr,
    "secrecy_vs_M": _run_secrecy_vs_m,
    "secrecy_vs_N": _run_secrecy_vs_n,
    "asymptotic_vs_N": _run_asymptotic_vs_n,
    "xi_sweep": _run_xi_sweep,
    "kappa_t_sweep": _run_kappa_t_sweep,
    "phase_noise_sweep": _run_phase_noise_sweep,
}


def run_experiment(name: str, config: ExperimentConfig) -> ResultTable:
    """Produce the named experiment's ResultTable (no files written)."""
    if name not in _RUNNERS:
        raise ConfigValidationError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENT_NAMES)}")
    config.validate()
    config.dimensions()  # fail fast on infeasible sizes
    table = _RUNNERS[name](config)
    table.meta.update({"config_hash": config.config_hash(), "seed": config.seed,
                       "config": config.to_dict()})
    return table


def run_and_write(name: str, config: ExperimentConfig) -> str:
    """Run the experiment and write <out_dir>/<name>.csv plus a manifest."""
    start = time.perf_counter()
    table = run_experiment(name, config)
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, f"{name}.csv")
    emit_csv(table, csv_path)
    write_manifest(table, os.path.join(config.out_dir, f"{name}.manifest.json"),
                   time.perf_counter() - start)
    return csv_path
