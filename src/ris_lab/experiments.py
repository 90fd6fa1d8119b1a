"""Named experiments reproducing the parametric studies, with CSV output.

A single JSON-serializable configuration drives everything: scenario
geometry (users and the eavesdropper evenly dispersed on a circle,
BS and RIS at fixed standoff distances), hardware and phase-noise knobs,
the sweep grid, and the Monte Carlo budget. Every run writes one CSV
(sweep variable first, closed-form columns, oracle columns with ``_se``
companions, then seed and config hash) plus a manifest.

A grid point is the config with its swept fields replaced
(``config.replace(n=...)``), and ``build_setup`` reads everything from
that one config; the seed and hash columns are the base config's. Each of
the seven one-axis experiments is defined by one ``_SWEEPS`` record (swept
field, default grid, closed-form and Monte Carlo cells) run by ``_run_sweep``;
``asymptotic_vs_N`` and ``phase_noise_sweep`` have runners of their own.
``nmse_vs_snr`` sweeps the pilot SNR (``pilot_snr_db``), the only SNR the
estimate depends on; its column keeps the name ``snr_db``. A sweep is one
oracle call, which splits it into draw runs (``montecarlo._draw_runs``):
consecutive grid points that differ at most in the phase-error law, RIS
phases, pilots and nested array sizes share one Monte Carlo draw at their
largest arrays. Every default grid is one draw run, and a point is
bit-identical to itself alone at the same draw grid. An N grid that does
not nest (N = 128, an 8 x 16 grid, beside N = 196, 14 x 14) draws once per
run of points that do. Below the draw, ``build_setup`` holds the rules of
what points share, and each sweep owns the memo it fills: consecutive
points of one link get one statistics object, of one LoS input set one
bridge H1, and of one bridge and RIS grid one pair of cascade congruences;
R_I lives only while that pair is formed. The oracle shares channels and
estimates by object identity, and factors R_I and R_B per draw run.

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
    OperatingPoint,
    TrialPlan,
    blas_threads,
    estimate_nmse,
    estimate_secrecy,
    worker_count,
)
from .montecarlo import (  # noqa: F401 -- bench/tracer.py wraps these bindings
    estimate_eve_capacity,
    estimate_user_rate,
)
from .rates import (
    compute_rate_terms,
    secrecy_large_n,
    secrecy_limit,
    secrecy_power_scaled,
    secrecy_rate,
    secrecy_uncorrelated,
    user_rate,
)
from .streams import LOS_ANGLES, SCENARIO, STREAM_LAYOUT, derive_rng

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
        if self.tau_u is not None and self.tau_u < self.k:
            raise ConfigValidationError(
                f"pilot length {self.tau_u} shorter than user count {self.k}")
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
            return SystemDimensions.square_ris(m=self.m, n=self.n, k=self.k, m_e=self.m_e)
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


def _scenario(config: ExperimentConfig):
    """Grid point basics every runner starts from: (dims, pilots, fading).

    ``pilots`` is the uplink ``PilotConfig``, the one home of the pilot
    length (K where ``config.tau_u`` is None) and of the rule rho > 0.
    """
    dims = config.dimensions()
    pilots = PilotConfig(tau_u=config.k if config.tau_u is None else config.tau_u,
                         rho=config.rho, sigma_u2=config.sigma_u2,
                         kappa_t_ue=config.kappa_t_ue, kappa_r_bs=config.kappa_r_bs)
    return dims, pilots, generate_scenario(config)


def _los_channel(config: ExperimentConfig, dims, fading) -> np.ndarray:
    """The grid point's (M, N) BS-RIS LoS channel H1."""
    return build_los_channel(dims, config.correlation_spec(), fading.beta_1,
                             derive_rng(config.seed, LOS_ANGLES, dims.n))


def build_setup(config: ExperimentConfig, kept: dict | None = None) -> OperatingPoint:
    """The ``OperatingPoint`` (estimator, hardware, xi) of the grid point ``config``.

    ``kept`` is the calling sweep's memo (without one, the point is built
    afresh): the last pair built, keyed on every input of
    ``build_channel_statistics``. A point of that key reuses the statistics,
    and the estimator where its ``PilotConfig`` is equal: a P_t, xi or
    kappa_t^BS sweep holds one of each. A point of another key still takes
    from the kept statistics what its inputs share: H1 where the LoS inputs
    (seed, M, N, spec, beta_1) are equal, and the cascade congruences where
    those, the RIS grid and spacing (N, N_H, spec) and the RIS phase are, as
    along the sigma_p^2 levels of one N. R_I is built only to form a new
    cascade pair, and no statistics object keeps it. These are the only
    rules of what points share: the oracle builds channels once per
    statistics object, estimates once per estimator object and the
    templates' sector factors once per draw run.
    """
    dims, pilots, fading = _scenario(config)
    spec = config.correlation_spec()
    phase_model = PhaseNoiseModel(kind=config.phase_noise_kind, sigma_p2=config.sigma_p2)
    los = (config.seed, dims.m, dims.n, spec, fading.beta_1)
    ris = (dims.n, dims.n_h, spec)
    key = (los, ris, dims, fading, phase_model, config.ris_phase, config.bs_corr)
    kept = {} if kept is None else kept
    last, (stats, est) = kept.popitem() if kept else (None, (None, None))
    if last != key:
        r_b = build_bs_correlation(dims.m, config.bs_corr) if config.bs_corr > 0 else None
        same_los = last is not None and last[0] == los
        same_bridge = same_los and last[1] == ris and last[5] == config.ris_phase
        h1 = stats.h1 if same_los else _los_channel(config, dims, fading)
        stats = build_channel_statistics(
            dims, fading, phase_model, h1, phi=config.ris_phase, r_b=r_b, ris_spec=spec,
            r_i=None if same_bridge else build_ris_correlation(dims, spec),
            cascade=stats.cascade if same_bridge else None)
    if last != key or est.pilots != pilots:
        est = ChannelEstimator(stats, pilots)
    kept[key] = stats, est
    return OperatingPoint(est, config.hardware(), config.xi)


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
    """Write the run's manifest atomically, with its environment and stream layout."""
    manifest = {
        "experiment": table.experiment,
        "config_hash": table.meta.get("config_hash"),
        "seed": table.meta.get("seed"),
        "rows": len(table.rows),
        "wall_time_s": round(wall_time_s, 3),
        "versions": {"ris_lab": _pkg_version, "numpy": np.__version__},
        "stream_layout": STREAM_LAYOUT,
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

def _shared_draw_rows(config: ExperimentConfig, points, closed, oracle) -> list:
    """Rows ``[*lead, *closed(setup), *cells]`` of the ``(lead, config)`` points.

    Closed forms run as each point is built, so the first bad point decides
    the error. ``oracle(setups, plan)`` then gives the Monte Carlo cells of
    every ``OperatingPoint``, a list per setup, in one call that splits them
    into draw runs. The sweep owns the memo that ``build_setup`` fills, so
    the reuse ends when the sweep returns. The setups go to the oracle as
    ``build_setup`` made them: consecutive points of one link hold one
    statistics object, whose channels the oracle builds once, and those
    with equal pilots one estimator, whose pilot phase and precoders it
    computes once.
    """
    rows, setups, kept = [], [], {}
    for lead, point in points:
        setups.append(build_setup(point, kept))
        rows.append(lead + closed(setups[-1]))
    plan = TrialPlan(n_blocks=config.n_blocks, master_seed=config.seed)
    return [row + cells for row, cells in zip(rows, oracle(setups, plan), strict=True)]


def _secrecy_cells(setups, plan: TrialPlan) -> list:
    """[r_sec_mc, r_sec_mc_se] of each setup, from one ``estimate_secrecy`` call."""
    return [[orc.r_sec.value, float(orc.r_sec.se)] for orc in estimate_secrecy(setups, plan)]


def _nmse_cells(setups, plan: TrialPlan) -> list:
    """[nmse_mc, nmse_mc_se] of each setup, user averages, from one ``estimate_nmse`` call."""
    return [[float(np.mean(nmse.value)), float(np.sqrt(np.sum(nmse.se ** 2)) / nmse.value.size)]
            for nmse in (orc.nmse for orc in estimate_nmse([s.est for s in setups], plan))]


def _rate_terms(setup: OperatingPoint) -> list:
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
            per_user.append((user_rate(user, xi), float("inf"), 0.0))
    return [float(np.mean(column)) for column in zip(*per_user)]


def _closed_rates(setup: OperatingPoint) -> list:
    """[r_user_cf, c_eve_cf, r_sec_cf] of one setup: the secrecy rows' closed-form cells."""
    return _closed_secrecy(_rate_terms(setup), setup.xi)


def _closed_r_sec(setup: OperatingPoint) -> list:
    """[user-averaged closed-form secrecy rate] of one setup: a row's one closed-form cell."""
    return [_closed_rates(setup)[2]]


def _closed_nmse_floor(setup: OperatingPoint) -> list:
    """[nmse_cf, nmse_floor_cf]: user means of the NMSE and of its high-pilot-power floor."""
    est = setup.est
    return [float(np.mean(est.nmse)), float(np.mean(nmse_high_power_limit(est.stats, est.pilots)))]


def _closed_nmse_large_n(setup: OperatingPoint) -> list:
    """[nmse_cf, nmse_large_n_cf]: user means of the NMSE and of its large-RIS form."""
    est, fading, pilots = setup.est, setup.est.stats.fading, setup.est.pilots
    limits = [nmse_large_n_limit(fading.beta_2[k], fading.beta_i[k], fading.beta_1,
                                 est.stats.dims.n, pilots.rho, pilots.tau_u, pilots.sigma_u2)
              for k in range(est.stats.dims.k)]
    return [float(np.mean(est.nmse)), float(np.mean(limits))]


def _size(column: str, value) -> int:
    """A sweep value of the size M or N as an int; a fraction is a config error."""
    if value != int(value):
        raise ConfigValidationError(f"sweep value {value} of {column} must be a whole number")
    return int(value)


@dataclass(frozen=True)
class _OneAxis:
    """A one-axis experiment: the sweep of one config field. See ``_run_sweep``."""

    column: str
    field: str
    grid: tuple
    closed_columns: tuple
    closed: typing.Callable
    cells: typing.Callable


# the closed forms and oracle of the rows reporting all three rates
_RATES = {"closed_columns": ("r_user_cf", "c_eve_cf", "r_sec_cf"), "closed": _closed_rates,
          "cells": _secrecy_cells}
_SWEEPS = {
    "nmse_vs_snr": _OneAxis("snr_db", "pilot_snr_db",
                            (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                            ("nmse_cf", "nmse_floor_cf"), _closed_nmse_floor, _nmse_cells),
    "nmse_vs_N": _OneAxis("n", "n", (16, 36, 64, 100, 196, 400),
                          ("nmse_cf", "nmse_large_n_cf"), _closed_nmse_large_n, _nmse_cells),
    "secrecy_vs_snr": _OneAxis("snr_db", "snr_db",
                               (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0), **_RATES),
    "secrecy_vs_M": _OneAxis("m", "m", (16, 32, 64, 96, 128), **_RATES),
    "secrecy_vs_N": _OneAxis("n", "n", (36, 64, 100, 144, 196, 256), **_RATES),
    "xi_sweep": _OneAxis("xi", "xi", tuple(round(0.05 * i, 2) for i in range(1, 21)),
                         ("r_sec_closed",), _closed_r_sec, _secrecy_cells),
    "kappa_t_sweep": _OneAxis("kappa_t_bs", "kappa_t_bs",
                              (0.0, 0.05 ** 2, 0.1 ** 2, 0.15 ** 2), **_RATES),
}
_MC_COLUMNS = {_nmse_cells: ["nmse_mc", "nmse_mc_se"], _secrecy_cells: ["r_sec_mc", "r_sec_mc_se"]}


def _run_sweep(name: str, config: ExperimentConfig) -> ResultTable:
    """The one-axis experiment ``name``: its ``_SWEEPS`` record is its whole definition.

    The record holds the CSV ``column`` of the swept value, the config
    ``field`` each grid point sets (``pilot_snr_db`` for ``nmse_vs_snr``,
    otherwise the column), the default ``grid`` for an empty ``config.sweep``,
    the ``closed_columns`` with ``closed(setup)`` giving their cells, and
    ``cells(setups, plan)``, the Monte Carlo cells of the sweep's points
    (``_nmse_cells`` or ``_secrecy_cells``). M and N must be whole.
    """
    row = _SWEEPS[name]
    cast = (lambda value: _size(row.column, value)) if row.field in ("m", "n") else float
    points = (([value], config.replace(**{row.field: value}))
              for value in map(cast, config.sweep or row.grid))
    return ResultTable(name, [row.column, *row.closed_columns, *_MC_COLUMNS[row.cells]],
                       _shared_draw_rows(config, points, row.closed, row.cells))


def _run_asymptotic_vs_n(config: ExperimentConfig) -> ResultTable:
    """Uncorrelated-fading asymptotics per N, one closed form a column.

    ``r_sec_prop_cf`` is the exact rate (``secrecy_uncorrelated``) and
    ``r_sec_large_n_cf`` its large-N form at this M (``secrecy_large_n``).
    ``r_sec_limit_cf`` (``secrecy_limit``) is the M, N -> infinity limit,
    not the N -> infinity limit of ``r_sec_large_n_cf`` at finite M: its
    eavesdropper bound is the M -> infinity one. ``r_sec_scaled_cf`` is
    the exact rate with P_t = E_u / N, and ``r_sec_scaled_limit_cf``
    (``secrecy_power_scaled``) its N -> infinity limit at this M.
    """
    grid = [_size("n", n) for n in config.sweep or [64, 144, 256, 576, 1024, 2048, 4096]]
    e_u, xi, hw = config.e_u, config.xi, config.hardware()
    rows = []
    for n in grid:
        point = config.replace(n=n)
        dims, pilots, fading = _scenario(point)
        h1 = _los_channel(point, dims, fading)
        # the uncorrelated special case assumes ideal uplink hardware
        rho, tau_u, sigma_u2 = pilots.rho, pilots.tau_u, pilots.sigma_u2
        _, _, r_prop = secrecy_uncorrelated(dims, fading, h1, rho, tau_u, sigma_u2, hw, xi, k=0)
        _, _, r_48 = secrecy_large_n(
            fading.beta_2[0], fading.beta_i[0], fading.beta_1, n, dims.m, dims.k,
            dims.m_e, xi, rho, tau_u, sigma_u2, hw)
        _, _, r_50 = secrecy_limit(dims.m, dims.k, dims.m_e, xi, hw.kappa_t_bs, hw.kappa_r_ue)
        hw_scaled = dataclasses.replace(hw, p_t=e_u / n)     # budget shrinking as 1/N
        _, _, r_scaled = secrecy_uncorrelated(
            dims, fading, h1, rho, tau_u, sigma_u2, hw_scaled, xi, k=0)
        _, _, r_49 = secrecy_power_scaled(e_u, dims.m, dims.k, dims.m_e, fading.beta_i[0],
                                          fading.beta_1, xi, hw.kappa_t_bs, hw.kappa_r_ue,
                                          hw.sigma_k2)
        rows.append([n, r_prop, r_48, r_50, r_scaled, r_49])
    return ResultTable(
        "asymptotic_vs_N",
        ["n", "r_sec_prop_cf", "r_sec_large_n_cf", "r_sec_limit_cf",
         "r_sec_scaled_cf", "r_sec_scaled_limit_cf"],
        rows)


def _run_phase_noise_sweep(config: ExperimentConfig) -> ResultTable:
    """Secrecy per (N, sigma_p2); the levels of one N share one Monte Carlo draw."""
    grid = [_size("n", n) for n in config.sweep or [64, 100, 196, 400, 784, 1600]]
    if not config.phase_noise_levels:
        raise ConfigValidationError("phase_noise_levels must hold at least one level")
    points = (([n, float(sp2)], config.replace(n=n, sigma_p2=float(sp2)))
              for n in grid for sp2 in config.phase_noise_levels)
    return ResultTable(
        "phase_noise_sweep",
        ["n", "sigma_p2", "r_sec_cf", "r_sec_mc", "r_sec_mc_se"],
        _shared_draw_rows(config, points, _closed_r_sec, _secrecy_cells))


_RUNNERS = {"asymptotic_vs_N": _run_asymptotic_vs_n, "phase_noise_sweep": _run_phase_noise_sweep}
EXPERIMENT_NAMES = (*_SWEEPS, *_RUNNERS)


def run_experiment(name: str, config: ExperimentConfig) -> ResultTable:
    """Produce the named experiment's ResultTable (no files written)."""
    if name not in EXPERIMENT_NAMES:
        raise ConfigValidationError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENT_NAMES)}")
    config.validate()
    table = _RUNNERS[name](config) if name in _RUNNERS else _run_sweep(name, config)
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
