"""Named experiments reproducing the parametric studies, with CSV output.

A single JSON-serializable configuration drives everything: scenario
geometry (users and the eavesdropper evenly dispersed on a circle,
BS and RIS at fixed standoff distances), hardware and phase-noise knobs,
the sweep grid, and the Monte Carlo budget. Every run writes one CSV
(sweep variable first, closed-form columns, oracle columns with ``_se``
companions, then seed and config hash) plus a manifest.

A grid point is the config with its swept fields replaced
(``config.replace(n=...)``), and ``build_setup`` reads everything from
that one config; the seed and hash columns are the base config's.
``nmse_vs_snr`` sweeps the pilot SNR (``pilot_snr_db``), the only SNR the
estimate depends on; its column keeps the name ``snr_db``.
Consecutive secrecy grid points whose statistics differ at most in the
phase-error law share one ``estimate_secrecy`` call, so one Monte Carlo
draw: ``xi_sweep``, ``kappa_t_sweep`` and ``secrecy_vs_snr`` draw once,
``phase_noise_sweep`` once per N.

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
from .errors import ConfigValidationError, InfiniteEveCapacityError, InvalidParameterError
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
from .precoding import check_power_fraction
from .montecarlo import (
    THREADS_ENV,
    TrialPlan,
    blas_threads,
    estimate_nmse,
    estimate_secrecy,
    shares_draw,
    worker_count,
)
from .montecarlo import (  # noqa: F401 -- bench/tracer.py wraps these bindings
    estimate_eve_capacity,
    estimate_user_rate,
)
from .rates import (
    compute_rate_terms,
    secrecy_gap_split,
    secrecy_large_n,
    secrecy_limit,
    secrecy_power_scaled,
    secrecy_rate,
    secrecy_uncorrelated,
    user_rate,
)
from .streams import LOS_ANGLES, SCENARIO, derive_rng

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
        self.dimensions()
        try:
            check_power_fraction(self.xi)
            PhaseNoiseModel(kind=self.phase_noise_kind, sigma_p2=self.sigma_p2)
        except InvalidParameterError as exc:
            raise ConfigValidationError(str(exc)) from exc
        if not 0.0 <= self.bs_corr < 1.0:
            raise ConfigValidationError("bs_corr must lie in [0, 1)")
        if self.n_blocks < 1:
            raise ConfigValidationError("n_blocks must be positive")
        if self.seed < 0:
            raise ConfigValidationError(f"seed must be non-negative, got {self.seed}")
        for name in ("ref_distance", "zeta_r", "zeta_d"):
            if getattr(self, name) <= 0:
                raise ConfigValidationError(f"{name} must be positive, got {getattr(self, name)}")
        pilot_field = "snr_db" if self.pilot_snr_db is None else "pilot_snr_db"
        for name, linear in (("snr_db", "p_t"), (pilot_field, "rho"),
                             ("path_gain_ref_db", "j0"), ("power_scaling_eu_db", "e_u")):
            try:
                finite = math.isfinite(getattr(self, linear))
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigValidationError(f"{name} = {getattr(self, name)} dB overflows")
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
        return _db_to_linear(self.snr_db) * self.sigma_k2

    @property
    def rho(self) -> float:
        snr = self.snr_db if self.pilot_snr_db is None else self.pilot_snr_db
        return _db_to_linear(snr) * self.sigma_u2

    @property
    def j0(self) -> float:
        return _db_to_linear(self.path_gain_ref_db)

    @property
    def e_u(self) -> float:
        """Energy E_u of the 1/N-scaled budget P_t = E_u / N of ``asymptotic_vs_N``."""
        return _db_to_linear(self.power_scaling_eu_db) * self.sigma_k2

    def dimensions(self) -> SystemDimensions:
        try:
            return SystemDimensions.square_ris(m=self.m, n=self.n, k=self.k,
                                               m_e=self.m_e, tau_u=self.tau_u)
        except InvalidParameterError as exc:
            raise ConfigValidationError(str(exc)) from exc

    def correlation_spec(self) -> CorrelationSpec:
        return CorrelationSpec(wavelength=self.wavelength,
                               d_h=self.ris_spacing_h, d_v=self.ris_spacing_v)

    def hardware(self) -> HardwareProfile:
        return HardwareProfile(p_t=self.p_t, kappa_t_bs=self.kappa_t_bs,
                               kappa_r_ue=self.kappa_r_ue, sigma_k2=self.sigma_k2)


def _db_to_linear(value_db: float) -> float:
    """10^(x/10); raises OverflowError where the linear value is not a float."""
    return 10.0 ** (value_db / 10.0)


_JSON_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list of numbers", type(None): "null"}


def _check_type(name: str, value, hint) -> None:
    """Reject a config value that does not fit its field annotation.

    An int is accepted where a float is expected; a bool only where a bool
    is expected; list fields hold numbers. A float, alone or in a list, must
    be finite: JSON parsing lets NaN and Infinity through.
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
    values = value if isinstance(value, list) else [value]
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise ConfigValidationError(f"config field {name!r} must be finite, "
                                    f"got {json.dumps(value)}")


def generate_scenario(config: ExperimentConfig) -> LargeScaleFading:
    """Place users and the eavesdropper on the circle; compute path gains.

    Users and Eve occupy K+1 evenly spaced points on the 50 m circle
    centered at the origin; the rotation of the pattern is drawn from the
    config's seed. The BS and the RIS sit on the positive x-axis at their
    standoff distances. RIS-side links use the reflected-path exponent,
    direct links the direct exponent.

    With ``normalize_gains`` the direct gains are divided by their mean g
    and the RIS-side gains by sqrt(g), which rescales every aggregate
    channel by the same factor (products of one direct gain or two
    RIS-side gains appear everywhere), so SNR = P_t / sigma_k^2 is
    measured through an average direct link.
    """
    rng = derive_rng(config.seed, SCENARIO)
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

    if config.normalize_gains:
        norm = 1.0 / float(np.mean(beta_2))
        root = math.sqrt(norm)
        beta_1, beta_ie = beta_1 * root, beta_ie * root
        beta_i = [b * root for b in beta_i]
        beta_2 = [b * norm for b in beta_2]
        beta_3 = beta_3 * norm

    # Every covariance carries the cascade gain beta_1 beta_i N, and the
    # closed forms its square: both must be floats.
    peak = max(*beta_2, beta_3) + beta_1 * max(*beta_i, beta_ie) * config.n
    if not math.isfinite(peak * peak):
        raise ConfigValidationError(
            f"path_gain_ref_db = {config.path_gain_ref_db} dB at ref_distance = "
            f"{config.ref_distance} m gives link gains whose second moments "
            f"overflow at n = {config.n}")
    return LargeScaleFading(
        beta_1=beta_1, beta_i=tuple(beta_i), beta_2=tuple(beta_2),
        beta_3=beta_3, beta_ie=beta_ie)


@dataclass
class SystemSetup:
    """Everything needed to evaluate one grid point; the statistics are ``est.stats``.

    ``xi`` is the data fraction of the hardware profile's P_t.
    """

    est: ChannelEstimator
    hw: HardwareProfile
    xi: float


def _scenario(config: ExperimentConfig):
    """Grid point basics every runner starts from: (dims, pilots, fading, h1).

    ``pilots`` is the uplink ``PilotConfig``, the one home of the rule
    rho > 0; ``h1`` is the BS-RIS LoS channel.
    """
    dims = config.dimensions()
    pilots = PilotConfig(tau_u=dims.tau_u, rho=config.rho, sigma_u2=config.sigma_u2,
                         kappa_t_ue=config.kappa_t_ue, kappa_r_bs=config.kappa_r_bs)
    fading = generate_scenario(config)
    h1 = build_los_channel(dims, config.correlation_spec(), fading.beta_1,
                           derive_rng(config.seed, LOS_ANGLES, dims.n))
    return dims, pilots, fading, h1


def build_setup(config: ExperimentConfig) -> SystemSetup:
    """Assemble statistics and the estimator for the grid point ``config``."""
    dims, pilots, fading, h1 = _scenario(config)
    r_b = build_bs_correlation(dims.m, config.bs_corr) if config.bs_corr > 0 else None
    r_i = build_ris_correlation(dims, config.correlation_spec())
    phase_model = PhaseNoiseModel(kind=config.phase_noise_kind, sigma_p2=config.sigma_p2)
    stats = build_channel_statistics(dims, fading, phase_model, h1,
                                     phi=config.ris_phase, r_b=r_b, r_i=r_i)
    return SystemSetup(est=ChannelEstimator(stats, pilots), hw=config.hardware(), xi=config.xi)


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
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var)
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", THREADS_ENV)},
        "worker_count": worker_count(),
    }


def write_manifest(table: ResultTable, path: str, wall_time_s: float) -> None:
    """Write the run's manifest atomically, with its environment."""
    manifest = {
        "experiment": table.experiment,
        "config_hash": table.meta.get("config_hash"),
        "seed": table.meta.get("seed"),
        "rows": len(table.rows),
        "wall_time_s": round(wall_time_s, 3),
        "versions": {"ris_lab": _pkg_version, "numpy": np.__version__},
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

def _secrecy_rows(config: ExperimentConfig, points, closed) -> list:
    """Rows ``[*lead, *closed(setup), r_sec_mc, r_sec_mc_se]`` of the ``(lead, config)`` points.

    Closed forms run as each point is built, so the first bad point decides
    the error. A point whose statistics, phase law and pilots equal the
    previous point's takes over its estimator, so a run holds one estimator
    per distinct link; each run of points that share a draw is one oracle call.
    """
    plan = TrialPlan(n_blocks=config.n_blocks, master_seed=config.seed)
    rows, run = [], []          # run: (row, setup) of the points that share the draw

    def finish_run():
        orcs = estimate_secrecy([(s.est, s.hw, s.xi) for _, s in run], plan)
        rows.extend(row + [orc.r_sec, orc.r_sec_se] for (row, _), orc in zip(run, orcs))
        run.clear()

    for lead, point in points:
        setup = build_setup(point)
        if run:
            last, stats = run[-1][1].est, setup.est.stats
            if not shares_draw(last.stats, stats):
                finish_run()
            elif last.stats.phase_model == stats.phase_model and last.pilots == setup.est.pilots:
                setup.est = last
        run.append((lead + closed(setup), setup))
    finish_run()
    return rows


def _rate_terms(setup: SystemSetup) -> list:
    """One RateTerms per user: the single source of every closed form."""
    return [compute_rate_terms(setup.est, setup.hw, k=k)
            for k in range(setup.est.stats.dims.k)]


def _closed_secrecy(terms: list, xi: float):
    """Closed-form [user rate, eve bound, secrecy] averaged over users.

    The no-AN/no-distortion corner has a defined answer (Eve's SINR
    diverges, so the secrecy rate is zero) and is reported as such.
    """
    per_user = []
    for user in terms:
        try:
            rep = secrecy_rate(user, xi)
            per_user.append((rep.r_k, rep.c_e_bar, rep.r_sec))
        except InfiniteEveCapacityError:
            per_user.append((user_rate(user, xi)[0], float("inf"), 0.0))
    return [float(np.mean(column)) for column in zip(*per_user)]


def _axis_value(column: str, value):
    """A sweep value as its config field's type: int for the sizes M and N."""
    return int(value) if column in ("m", "n") else float(value)


def _nmse_sweep(config: ExperimentConfig, name, column, grid, limit_column,
                limit) -> ResultTable:
    """NMSE, closed form with the user average of ``limit(setup, k)``, and Monte Carlo."""
    plan = TrialPlan(n_blocks=config.n_blocks, master_seed=config.seed)
    field_name = "pilot_snr_db" if column == "snr_db" else column
    rows = []
    for value in (_axis_value(column, v) for v in grid):
        setup = build_setup(config.replace(**{field_name: value}))
        orc, k_users = estimate_nmse(setup.est, plan), setup.est.stats.dims.k
        rows.append([value, float(np.mean(setup.est.nmse)),
                     float(np.mean([limit(setup, k) for k in range(k_users)])),
                     float(np.mean(orc.nmse)), float(np.sqrt(np.sum(orc.nmse_se ** 2)) / k_users)])
    return ResultTable(name, [column, "nmse_cf", limit_column, "nmse_mc", "nmse_mc_se"], rows)


def _run_nmse_vs_snr(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    return _nmse_sweep(config, "nmse_vs_snr", "snr_db", grid, "nmse_floor_cf",
                       lambda s, k: nmse_high_power_limit(s.est.stats, s.est.pilots, k))


def _run_nmse_vs_n(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [16, 36, 64, 100, 196, 400]

    def large_n(setup, k):
        fading, pilots = setup.est.stats.fading, setup.est.pilots
        return nmse_large_n_limit(fading.beta_2[k], fading.beta_i[k], fading.beta_1,
                                  setup.est.stats.dims.n, pilots.rho, pilots.tau_u,
                                  pilots.sigma_u2)

    return _nmse_sweep(config, "nmse_vs_N", "n", grid, "nmse_large_n_cf", large_n)


def _secrecy_sweep(config: ExperimentConfig, name, column, grid) -> ResultTable:
    """Secrecy, closed form and Monte Carlo, with the config field ``column`` swept."""
    points = (([value], config.replace(**{column: value}))
              for value in (_axis_value(column, v) for v in grid))
    rows = _secrecy_rows(config, points,
                         lambda setup: _closed_secrecy(_rate_terms(setup), setup.xi))
    return ResultTable(name, [column, "r_user_cf", "c_eve_cf", "r_sec_cf", "r_sec_mc",
                              "r_sec_mc_se"], rows)


def _run_secrecy_vs_snr(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]
    return _secrecy_sweep(config, "secrecy_vs_snr", "snr_db", grid)


def _run_secrecy_vs_m(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [16, 32, 64, 96, 128]
    return _secrecy_sweep(config, "secrecy_vs_M", "m", grid)


def _run_secrecy_vs_n(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [36, 64, 100, 144, 196, 256]
    return _secrecy_sweep(config, "secrecy_vs_N", "n", grid)


def _run_kappa_t_sweep(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [0.0, 0.05 ** 2, 0.1 ** 2, 0.15 ** 2]
    return _secrecy_sweep(config, "kappa_t_sweep", "kappa_t_bs", grid)


def _run_asymptotic_vs_n(config: ExperimentConfig) -> ResultTable:
    """Uncorrelated-fading asymptotics: exact, large-N, limit, power-scaled."""
    grid = config.sweep or [64, 144, 256, 576, 1024, 2048, 4096]
    e_u, xi, hw = config.e_u, config.xi, config.hardware()
    rows = []
    for n in grid:
        n = int(n)
        dims, pilots, fading, h1 = _scenario(config.replace(n=n))
        # the uncorrelated special case assumes ideal uplink hardware
        rho, sigma_u2 = pilots.rho, pilots.sigma_u2
        _, _, r_prop = secrecy_uncorrelated(dims, fading, h1, rho, sigma_u2, hw, xi, k=0)
        _, _, r_48 = secrecy_large_n(
            fading.beta_2[0], fading.beta_i[0], fading.beta_1, n, dims.m, dims.k,
            dims.m_e, xi, rho, dims.tau_u, sigma_u2, hw)
        _, _, r_50 = secrecy_limit(dims.m, dims.k, dims.m_e, xi, hw.kappa_t_bs, hw.kappa_r_ue)
        hw_scaled = dataclasses.replace(hw, p_t=e_u / n)     # budget shrinking as 1/N
        _, _, r_scaled = secrecy_uncorrelated(
            dims, fading, h1, rho, sigma_u2, hw_scaled, xi, k=0)
        _, _, r_49 = secrecy_power_scaled(e_u, dims.m, dims.k, dims.m_e, fading.beta_i[0],
                                          fading.beta_1, xi, hw.kappa_t_bs, hw.kappa_r_ue,
                                          hw.sigma_k2)
        rows.append([n, r_prop, r_48, r_50, r_scaled, r_49])
    return ResultTable(
        "asymptotic_vs_N",
        ["n", "r_sec_prop_cf", "r_sec_large_n_cf", "r_sec_limit_cf",
         "r_sec_scaled_cf", "r_sec_scaled_limit_cf"],
        rows)


def _run_xi_sweep(config: ExperimentConfig) -> ResultTable:
    grid = config.sweep or [round(0.05 * i, 2) for i in range(1, 21)]

    def closed(setup):
        terms = _rate_terms(setup)
        r_closed = _closed_secrecy(terms, setup.xi)[2]
        try:
            r_eq = np.mean([max(0.0, secrecy_gap_split(t, setup.xi)) for t in terms])
        except InfiniteEveCapacityError:
            r_eq = 0.0
        return [r_closed, float(r_eq)]

    points = (([xi], config.replace(xi=xi)) for xi in map(float, grid))
    return ResultTable(
        "xi_sweep",
        ["xi", "r_sec_closed", "r_sec_eq40", "r_sec_mc", "r_sec_mc_se"],
        _secrecy_rows(config, points, closed))


def _run_phase_noise_sweep(config: ExperimentConfig) -> ResultTable:
    """Secrecy per (N, sigma_p2); the levels of one N share one Monte Carlo draw."""
    grid = config.sweep or [64, 100, 196, 400, 784, 1600]
    points = (([int(n), float(sp2)], config.replace(n=int(n), sigma_p2=float(sp2)))
              for n in grid for sp2 in config.phase_noise_levels)
    return ResultTable(
        "phase_noise_sweep",
        ["n", "sigma_p2", "r_sec_cf", "r_sec_mc", "r_sec_mc_se"],
        _secrecy_rows(config, points,
                      lambda setup: [_closed_secrecy(_rate_terms(setup), setup.xi)[2]]))


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
EXPERIMENT_NAMES = tuple(_RUNNERS)


def run_experiment(name: str, config: ExperimentConfig) -> ResultTable:
    """Produce the named experiment's ResultTable (no files written)."""
    if name not in _RUNNERS:
        raise ConfigValidationError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENT_NAMES)}")
    config.validate()
    table = _RUNNERS[name](config)
    config_hash = config.config_hash()
    table.columns += ["seed", "config_hash"]
    table.rows = [row + [config.seed, config_hash] for row in table.rows]
    table.meta.update({"config_hash": config_hash, "seed": config.seed,
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
