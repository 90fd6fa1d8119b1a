"""Experiment configs, the CLI and the files a run writes."""
import collections
import importlib
import json
import pkgutil
import tracemalloc

import numpy as np
import pytest

import ris_lab.experiments
import ris_lab.montecarlo
from ris_lab import cli
from ris_lab.errors import ConfigValidationError
from ris_lab.estimation import ChannelEstimator
from ris_lab.experiments import ExperimentConfig, build_setup, run_and_write, run_experiment
from ris_lab.geometry import SLAB_BLOCKS, ChannelStatistics, MirrorFactor, slabs
from ris_lab.montecarlo import CHUNK_BLOCKS, Estimate, OracleEstimates
from ris_lab.streams import STREAM_LAYOUT

from conftest import stored_arrays


# A run small enough for the test suite: one grid point, two blocks.
TINY = {"m": 8, "n": 4, "k": 2, "m_e": 2, "sweep": [0.0], "n_blocks": 2}


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_config_hash_ignores_out_dir(tmp_path):
    config = write_config(tmp_path, TINY)
    hashes = set()
    for out in ("a", "b"):
        assert cli.main(["nmse_vs_snr", "--config", config,
                         "--out", str(tmp_path / out)]) == 0
        manifest = json.loads((tmp_path / out / "nmse_vs_snr.manifest.json").read_text())
        hashes.add(manifest["config_hash"])
    assert len(hashes) == 1
    assert ExperimentConfig(seed=1).config_hash() != ExperimentConfig(seed=2).config_hash()


@pytest.mark.parametrize("data", [
    {"m": "64"},
    {"n_blocks": True},
    {"m": 64.0},
    {"snr_db": "0"},
    {"normalize_gains": 1},
    {"sweep": 400},
    {"sweep": ["400"]},
    {"phase_noise_kind": None},
    {"sigma_p2": float("nan")},
    {"kappa_t_bs": float("inf")},
    {"sweep": [0.0, float("-inf")]},
    {"seed": -5},
    {"ref_distance": 0},
    {"ref_distance": -1.0},
])
def test_from_dict_rejects_wrong_types(data):
    with pytest.raises(ConfigValidationError, match=next(iter(data))):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("data", [
    {"sweep": [0.0, 10.0, 20.0]},
    {"sweep": [400]},
    {},
    {"snr_db": 10, "tau_u": None, "pilot_snr_db": 5, "normalize_gains": False},
])
def test_from_dict_accepts_valid_types(data):
    config = ExperimentConfig.from_dict(data)
    for key, value in data.items():
        assert getattr(config, key) == value


def test_cli_bad_type_exits_2_with_one_line(tmp_path, capsys):
    config = write_config(tmp_path, {"m": "64"})
    assert cli.main(["nmse_vs_snr", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'m'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, sweep",
                         [("kappa_t_sweep", 0.0), ("xi_sweep", 0.5), ("secrecy_vs_snr", 0.0)],
                         ids=["kappa_t_sweep", "xi_sweep", "secrecy_vs_snr"])
def test_cli_degenerate_config_exits_2_with_one_line(tmp_path, capsys, experiment, sweep):
    # pilot power so small that E||h_hat_k||^2 underflows to zero: MRT is
    # undefined, and compute_rate_terms meets it first
    config = write_config(tmp_path, {**TINY, "sweep": [sweep], "pilot_snr_db": -3200.0,
                                     "normalize_gains": False})
    assert cli.main([experiment, "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "zero-power channel estimate" in err and "Traceback" not in err


@pytest.mark.parametrize("experiment, changes, message, args", [
    *[pytest.param(experiment, {"sweep": [value]}, f"must be positive, got {value}", [],
                   id=f"{experiment}-{value}")
      for experiment in ("nmse_vs_N", "secrecy_vs_N", "secrecy_vs_M", "asymptotic_vs_N")
      for value in (0, -4)],
    # a fractional size was once truncated: 16.9 wrote a row of m = 16
    *[pytest.param(experiment, {"sweep": [16.9]}, f"sweep value 16.9 of {column} must be a "
                   "whole number", [], id=f"{experiment}-16.9")
      for experiment, column in (("nmse_vs_N", "n"), ("secrecy_vs_N", "n"),
                                 ("secrecy_vs_M", "m"), ("asymptotic_vs_N", "n"),
                                 ("phase_noise_sweep", "n"))],
    # sizes beyond any numpy array, once a TypeError or ValueError traceback
    *[pytest.param(experiment, changes, f"{size} exceeds the largest array size", [],
                   id=f"{experiment}-{next(iter(changes))}-1e30")
      for experiment in ("nmse_vs_N", "asymptotic_vs_N")
      for changes, size in (({"n": 10**30, "sweep": [16]}, f"n = {10**30}"),
                            ({"sweep": [1e30]}, f"n = {int(1e30)}"),
                            ({"m": 10**30, "sweep": [16]}, f"m = {10**30}"))],
    pytest.param("phase_noise_sweep", {"sweep": [4], "phase_noise_levels": []},
                 "phase_noise_levels must hold at least one level", [],
                 id="phase_noise_sweep-no-levels"),
    pytest.param("xi_sweep", {"sweep": [0.0]}, "xi must lie in (0, 1]", [],
                 id="xi_sweep-0.0"),
    pytest.param("xi_sweep", {"sweep": [1.5]}, "xi must lie in (0, 1]", [],
                 id="xi_sweep-1.5"),
    pytest.param("kappa_t_sweep", {"sweep": [-0.01]}, "kappa factors must be non-negative",
                 [], id="kappa_t_sweep--0.01"),
    pytest.param("phase_noise_sweep", {"sweep": [4], "phase_noise_levels": [-0.1]},
                 "sigma_p2 must be non-negative", [], id="phase_noise_sweep--0.1"),
    pytest.param("nmse_vs_snr", {"ref_distance": 0}, "ref_distance must be positive", [],
                 id="ref_distance-0"),
    pytest.param("nmse_vs_snr", {"ref_distance": -1.0}, "ref_distance must be positive",
                 [], id="ref_distance--1.0"),
    pytest.param("nmse_vs_snr", {"seed": -5}, "seed must be non-negative", [],
                 id="seed--5"),
    pytest.param("nmse_vs_snr", {}, "seed must be non-negative", ["--seed", "-3"],
                 id="cli-seed--3"),
    # json.dumps writes NaN and Infinity as bare literals, which json.loads accepts
    pytest.param("nmse_vs_snr", {"sigma_p2": float("nan")}, "'sigma_p2' must be finite",
                 [], id="sigma_p2-NaN"),
    pytest.param("secrecy_vs_snr", {"kappa_t_bs": float("nan")},
                 "'kappa_t_bs' must be finite", [], id="kappa_t_bs-NaN"),
    pytest.param("secrecy_vs_snr", {"sweep": [float("inf")]}, "'sweep' must be finite",
                 [], id="secrecy_vs_snr-Infinity"),
    # values whose linear powers or path gains overflow a float
    pytest.param("secrecy_vs_snr", {"zeta_r": -50}, "zeta_r must be positive", [],
                 id="zeta_r--50"),
    pytest.param("asymptotic_vs_N", {"power_scaling_eu_db": 1e6},
                 "power_scaling_eu_db = 1000000.0 dB overflows", [],
                 id="power_scaling_eu_db-1e6"),
    pytest.param("secrecy_vs_N", {"snr_db": 1e6, "sweep": [16]},
                 "snr_db = 1000000.0 dB overflows", [], id="snr_db-1e6"),
    pytest.param("nmse_vs_N", {"pilot_snr_db": 1e6, "sweep": [16]},
                 "pilot_snr_db = 1000000.0 dB overflows", [], id="pilot_snr_db-1e6"),
    pytest.param("nmse_vs_N", {"path_gain_ref_db": 1e6, "sweep": [16]},
                 "path_gain_ref_db = 1000000.0 dB overflows", [], id="path_gain_ref_db-1e6"),
    # dB values whose linear value fits a float but overflows once scaled by the noise power
    pytest.param("secrecy_vs_N", {"snr_db": 3080, "sigma_k2": 100, "sweep": [16]},
                 "snr_db = 3080 dB overflows", [], id="snr_db-3080-sigma_k2-100"),
    pytest.param("nmse_vs_N", {"pilot_snr_db": 3080, "sigma_u2": 100, "sweep": [16]},
                 "pilot_snr_db = 3080 dB overflows", [], id="pilot_snr_db-3080-sigma_u2-100"),
    pytest.param("asymptotic_vs_N",
                 {"power_scaling_eu_db": 3080, "sigma_k2": 100, "sweep": [16]},
                 "power_scaling_eu_db = 3080 dB overflows", [],
                 id="power_scaling_eu_db-3080-sigma_k2-100"),
    # path gains whose cascade second moments overflow, once a NaN traceback
    *[pytest.param(experiment,
                   {"sweep": [16], "path_gain_ref_db": 3000, "normalize_gains": False},
                   "path_gain_ref_db = 3000 dB", [], id=f"{experiment}-path_gain_ref_db-3000")
      for experiment in ("nmse_vs_N", "secrecy_vs_snr", "secrecy_vs_N", "asymptotic_vs_N")],
    # rho = 0: every runner reaches the pilot configuration, the rule's one home
    *[pytest.param(experiment, {"sweep": [16], "sigma_u2": 0}, "pilot power must be positive",
                   [], id=f"{experiment}-sigma_u2-0")
      for experiment in ("asymptotic_vs_N", "secrecy_vs_N")],
    # fewer pilots than users, with an estimator and without one
    *[pytest.param(experiment, {"tau_u": 1}, "pilot length 1 shorter than user count 2", [],
                   id=f"{experiment}-tau_u-1")
      for experiment in ("nmse_vs_snr", "asymptotic_vs_N")],
])
def test_cli_nonpositive_size_in_sweep_exits_2(tmp_path, capsys, experiment, changes,
                                               message, args):
    # an out-of-range sweep value or config field fails its grid point's config,
    # before any output; a size of 0 once fell back to the config default while
    # the row said 0
    config = write_config(tmp_path, {**TINY, **changes})
    assert cli.main([experiment, "--config", config,
                     "--out", str(tmp_path / "out"), *args]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 711. PiB for an array with shape "
                                     "(100000000000000000,) and data type float64", ""])
def test_cli_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, message):
    # a size that numpy can index but no machine can allocate, such as this
    # sweep, ends in a MemoryError; the run is stubbed to raise it, so the
    # test allocates nothing
    def out_of_memory(name, config):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_and_write", out_of_memory)
    config = write_config(tmp_path, {**TINY, "sweep": [1e17]})
    assert cli.main(["nmse_vs_N", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: out of memory")
    assert message in err and "Traceback" not in err


def test_whole_number_size_as_float_is_accepted(tmp_path):
    config = write_config(tmp_path, {**TINY, "sweep": [16.0]})
    assert cli.main(["secrecy_vs_M", "--config", config, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "secrecy_vs_M.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["m", "16"]


def test_manifest_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("RIS_LAB_THREADS", "3")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    config = ExperimentConfig.from_dict({**TINY, "out_dir": str(tmp_path)})
    run_and_write("nmse_vs_snr", config)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "nmse_vs_snr.csv", "nmse_vs_snr.manifest.json"]
    manifest = json.loads((tmp_path / "nmse_vs_snr.manifest.json").read_text())
    env = manifest["environment"]
    assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                              "RIS_LAB_THREADS": "3"}
    assert env["worker_count"] == 3
    assert set(env["blas_threads"].values()) == {1}
    assert set(env["blas"]) == {"name", "version"}
    assert manifest["config_hash"] == config.config_hash()
    assert manifest["rows"] == 1
    assert manifest["stream_layout"] == STREAM_LAYOUT


def counted_draws(monkeypatch):
    """The Monte Carlo sampler's calls from now on: (chunk stream, (N, M), blocks) each."""
    draws = []
    sample = ris_lab.montecarlo.sample_realizations

    def counted(stats, rng, n_draws, *, eve, factors):
        draws.append((rng, (stats.dims.n, stats.dims.m), n_draws))
        return sample(stats, rng, n_draws, eve=eve, factors=factors)

    monkeypatch.setattr(ris_lab.montecarlo, "sample_realizations", counted)
    return draws


def chunk_slabs(draws):
    """Counter of (N, M, slab sizes) over the chunk streams of ``counted_draws``' calls.

    A chunk stream draws every slab of its chunk at one grid; the streams
    are told apart by identity, so a draw spans no chunk.
    """
    chunks = {}
    for rng, arrays, n_draws in draws:
        grid, sizes = chunks.setdefault(id(rng), (arrays, []))
        assert arrays == grid
        sizes.append(n_draws)
    return collections.Counter((*grid, tuple(sizes)) for grid, sizes in chunks.values())


def slab_sizes(blocks):
    """Block counts of the slabs a chunk of ``blocks`` is drawn in; they sum to ``blocks``."""
    sizes = tuple(s.stop - s.start for s in slabs(blocks))
    assert sum(sizes) == blocks and max(sizes) <= SLAB_BLOCKS
    return sizes


@pytest.mark.parametrize("experiment, changes, estimators, grid", [
    # the phase-noise levels of every N share each chunk's draw at the
    # largest N, not their estimators
    ("phase_noise_sweep", {"sweep": [4, 9], "phase_noise_levels": [0.0, 0.1, 1.0]}, 6,
     [(9, 8)]),
    # xi and kappa_t_bs shape neither the draw nor the estimate
    ("xi_sweep", {"sweep": [0.3, 0.7, 1.0]}, 1, [(4, 8)]),
    ("kappa_t_sweep", {"sweep": [0.0, 0.01]}, 1, [(4, 8)]),
    # a smaller RIS grid or BS array reads its part of the largest one's draw
    ("secrecy_vs_N", {"sweep": [4, 9]}, 2, [(9, 8)]),
    ("secrecy_vs_M", {"sweep": [12, 8]}, 2, [(4, 12)]),
    # 2 x 2 and 2 x 4 elements nest, 3 x 3 does not: two draw runs, one call
    ("secrecy_vs_N", {"sweep": [4, 8, 9]}, 3, [(8, 8), (9, 8)]),
], ids=["phase_noise_sweep", "xi_sweep", "kappa_t_sweep", "secrecy_vs_N", "secrecy_vs_M",
        "secrecy_vs_N_two_draw_runs"])
def test_secrecy_sweep_draws_once_per_link_and_chunk(monkeypatch, experiment, changes,
                                                     estimators, grid):
    # one oracle call per sweep, holding ``estimators`` estimators; each
    # chunk of each draw run draws once per slab, at the arrays (N, M) in
    # ``grid`` of the run's largest point, and each slab's draw builds
    # channels once per estimator, so each of the sweep's links holds one
    # statistics object (build_setup) and no link is built twice
    draws = counted_draws(monkeypatch)
    calls, built = [], collections.Counter()
    oracle = ris_lab.experiments.estimate_secrecy
    aggregate = ris_lab.montecarlo.aggregate_channels

    def counted_builds(stats, slab, theta, **kwargs):
        built[len(slab["h_i"])] += 1
        return aggregate(stats, slab, theta, **kwargs)

    def recorded(points, plan):
        points = list(points)
        calls.append(len({id(est) for est, _, _ in points}))
        return oracle(points, plan)

    monkeypatch.setattr(ris_lab.experiments, "estimate_secrecy", recorded)
    monkeypatch.setattr(ris_lab.montecarlo, "aggregate_channels", counted_builds)
    config = ExperimentConfig.from_dict({
        **TINY, "m_e": 1, **changes, "n_blocks": CHUNK_BLOCKS + 8})
    table = run_experiment(experiment, config)
    assert len(table.rows) == len(changes["sweep"]) * len(changes.get("phase_noise_levels", [0]))
    assert calls == [estimators]
    assert chunk_slabs(draws) == {(*arrays, slab_sizes(size)): 1
                                  for arrays in grid for size in (CHUNK_BLOCKS, 8)}
    want = collections.Counter()
    for size in (CHUNK_BLOCKS, 8):
        for blocks in slab_sizes(size):
            want[blocks] += estimators
    assert built == want


@pytest.mark.parametrize("experiment, sweep, grid", [
    # the pilot powers of one link share each chunk's draw
    ("nmse_vs_snr", [0.0, 10.0, 20.0], [4]),
    # the N of a nested grid share one draw at the largest N
    ("nmse_vs_N", [4, 9], [9]),
    # 2 x 2 and 2 x 4 elements nest, 3 x 3 does not: two draw runs, one call
    ("nmse_vs_N", [4, 8, 9], [8, 9]),
], ids=["nmse_vs_snr", "nmse_vs_N", "nmse_vs_N_two_draw_runs"])
def test_nmse_sweep_draws_once_per_link_and_chunk(monkeypatch, experiment, sweep, grid):
    # one oracle call over the sweep's estimators; each chunk of each draw
    # run draws once per slab, at the run's largest N in ``grid``
    draws = counted_draws(monkeypatch)
    calls = []
    oracle = ris_lab.experiments.estimate_nmse

    def recorded(ests, plan):
        ests = list(ests)
        calls.append(len(ests))
        return oracle(ests, plan)

    monkeypatch.setattr(ris_lab.experiments, "estimate_nmse", recorded)
    config = ExperimentConfig.from_dict({**TINY, "sweep": sweep, "n_blocks": CHUNK_BLOCKS + 8})
    table = run_experiment(experiment, config)
    assert [row[0] for row in table.rows] == sweep
    assert calls == [len(sweep)]
    assert chunk_slabs(draws) == {(n, TINY["m"], slab_sizes(size)): 1
                                  for n in grid for size in (CHUNK_BLOCKS, 8)}


@pytest.mark.parametrize("experiment", ["nmse_vs_N", "secrecy_vs_N", "secrecy_vs_M",
                                        "phase_noise_sweep"])
def test_default_size_grid_is_one_oracle_call(monkeypatch, experiment):
    # every default N grid is square at half-wavelength spacing and every
    # M grid exponential, so each point nests in the largest: one draw serves
    # the sweep. The oracles are stubbed: only their calls are counted.
    calls = []

    def stub(items, plan):
        calls.append(len(list(items)))
        return [OracleEstimates(nmse=Estimate(np.zeros(2), np.eye(2)),
                                r_sec=Estimate(0.0, np.arange(2.0)))
                for _ in range(calls[-1])]

    for oracle in ("estimate_nmse", "estimate_secrecy"):
        monkeypatch.setattr(ris_lab.experiments, oracle, stub)
    table = run_experiment(experiment, ExperimentConfig(m=8, k=2, m_e=1, sweep=[]))
    assert calls == [len(table.rows)]


def test_default_m_sweep_factors_only_the_largest_templates(monkeypatch):
    # R_B and R_I of the largest M only: the smaller arrays read that draw.
    # Each template's factor takes one root per mirror sector: R_B of 128
    # antennas two of 64, R_I of the 10 x 10 RIS four of 25
    roots = []
    herm_sqrt = ris_lab.geometry.herm_sqrt
    monkeypatch.setattr(ris_lab.geometry, "herm_sqrt",
                        lambda a: roots.append(a.shape) or herm_sqrt(a))
    run_experiment("secrecy_vs_M", ExperimentConfig(sweep=[], n_blocks=8))
    assert sorted(roots) == [(25, 25)] * 4 + [(64, 64)] * 2


def test_grid_that_does_not_nest_draws_each_point_alone():
    # N = 128 is an 8 x 16 grid and N = 196 is 14 x 14: the smaller does not
    # fit in the larger, so each draws on its own, as it would alone
    config = ExperimentConfig.from_dict({**TINY, "m_e": 1, "snr_db": 10.0, "n_blocks": 8})
    together = run_experiment("secrecy_vs_N", config.replace(sweep=[128, 196])).rows
    alone = [run_experiment("secrecy_vs_N", config.replace(sweep=[n])).rows[0]
             for n in (128, 196)]
    # every cell but the config hash, which hashes the sweep
    assert [row[:-1] for row in together] == [row[:-1] for row in alone]
    assert all(row[4] > 0 for row in together)      # r_sec_mc


# A valid other value of every config field; a new field must add its own.
PERTURBED = {
    "m": 12, "n": 9, "k": 3, "m_e": 1, "tau_u": 5, "snr_db": 10.0, "pilot_snr_db": 5.0,
    "sigma_k2": 2.0, "sigma_u2": 0.5, "xi": 0.3, "kappa_t_ue": 0.02, "kappa_r_bs": 0.02,
    "kappa_t_bs": 0.02, "kappa_r_ue": 0.02, "phase_noise_kind": "uniform", "sigma_p2": 0.5,
    "ris_phase": 0.3, "bs_corr": 0.3, "wavelength": 0.2, "ris_spacing_h": 0.03,
    "ris_spacing_v": 0.03, "circle_radius": 40.0, "ris_distance": 90.0, "bs_distance": 150.0,
    "zeta_r": 2.5, "zeta_d": 3.0, "path_gain_ref_db": -30.0, "ref_distance": 2.0,
    "normalize_gains": False, "sweep": [1.0], "phase_noise_levels": [0.5],
    "power_scaling_eu_db": 10.0, "n_blocks": 8, "seed": 7, "out_dir": "elsewhere",
}
STATS_ARRAYS = ("r_k", "q_e", "blend", "h1", "phi", "cascade", "r_b")
ESTIMATOR_ARRAYS = ("gain", "nmse", "tr_rpr", "tr_r_phi", "tr_c_phi", "tr_c", "tr_phi_q")


def link_arrays(setup):
    """Every statistics array, then every estimator array, of a setup."""
    return ([getattr(setup.est.stats, name) for name in STATS_ARRAYS],
            [getattr(setup.est, name) for name in ESTIMATOR_ARRAYS])


def all_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("name", list(ExperimentConfig().to_dict()))
def test_build_setup_shares_objects_only_between_equal_links(name):
    # the kept statistics and estimator are keyed on every field that
    # shapes them: a point built after another in one memo equals the
    # point built alone, and it shares an object with the other only where
    # that object's arrays are equal
    base = ExperimentConfig(**{**TINY, "sweep": []})
    point = base.replace(**{name: PERTURBED[name]})
    kept = {}
    first = build_setup(base, kept)
    after = build_setup(point, kept)
    alone = build_setup(point)
    (stats, est), (stats_alone, est_alone) = link_arrays(after), link_arrays(alone)
    assert all_equal(stats, stats_alone) and all_equal(est, est_alone)
    stats_first, est_first = link_arrays(first)
    if after.est.stats is first.est.stats:
        assert all_equal(stats_alone, stats_first)
    if after.est is first.est:
        assert all_equal(est_alone, est_first)


def test_build_setup_shares_ris_correlation_and_bridge_by_their_inputs():
    # a point that misses the kept statistics still takes from them what
    # its inputs share: H1 where the seed, arrays, spacing and beta_1 are
    # equal, and the cascade congruences where those, the RIS grid and the
    # RIS phases are. A sigma_p^2 level keeps both, a RIS phase change H1
    # only, and a change of M, of N or of the spacing neither
    base = ExperimentConfig(**{**TINY, "n": 16, "sweep": []})
    for changes, shared in (({"sigma_p2": 0.5}, (True, True)),
                            ({"m": 12}, (False, False)),
                            ({"ris_phase": 0.3}, (True, False)),
                            ({"n": 25}, (False, False)),
                            ({"ris_spacing_h": 0.03}, (False, False))):
        kept = {}
        first = build_setup(base, kept).est.stats
        after = build_setup(base.replace(**changes), kept).est.stats
        assert after is not first
        assert (after.h1 is first.h1, after.cascade is first.cascade) == shared, changes


def test_no_ris_size_template_outlives_the_set_up(monkeypatch):
    # R_I is a set-up transient: no statistics object that build_setup
    # makes stores an array of N^2 or more entries, and when the oracle
    # starts no (N, N) template is alive at all: the memory allocated since
    # the sweep began and still held stays below one template's bytes. The
    # oracle forms none either: its factor reads R_I one grid row at a
    # time, so its traced peak above what it starts with stays below one
    # template's bytes too
    n = 784
    config = ExperimentConfig.from_dict({**TINY, "m_e": 1, "sweep": [100, n],
                                         "phase_noise_levels": [0.0, 0.1]})
    seen = []
    oracle = ris_lab.montecarlo._oracle

    def traced(points, *args, **kwargs):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tables = oracle(points, *args, **kwargs)
        seen.append((held, tracemalloc.get_traced_memory()[1] - held,
                     [point[0].stats for point in points]))
        return tables

    monkeypatch.setattr(ris_lab.montecarlo, "_oracle", traced)
    tracemalloc.start()
    try:
        run_experiment("phase_noise_sweep", config)
    finally:
        tracemalloc.stop()
    [(held, peak, statistics)] = seen
    assert [stats.dims.n for stats in statistics] == [100, 100, n, n]
    for stats in statistics:
        assert max(a.size for a in stored_arrays(stats)) < stats.dims.n ** 2
    assert held < n * n * np.dtype(float).itemsize
    assert peak < n * n * np.dtype(float).itemsize


def count_builds(monkeypatch, names: dict) -> collections.Counter:
    """Calls of each ``ris_lab.experiments`` binding in ``names``, counted under its value."""
    built = collections.Counter()

    def counted(name, build):
        return lambda *args, **kwargs: built.update([name]) or build(*args, **kwargs)

    for name, counter in names.items():
        monkeypatch.setattr(ris_lab.experiments, name,
                            counted(counter, getattr(ris_lab.experiments, name)))
    return built


@pytest.mark.parametrize("experiment, changes, statistics, estimators", [
    # the grid points of one link share its statistics, and of one pilot
    # setting its estimator: the pilot SNR follows snr_db unless it is set
    ("secrecy_vs_snr", {}, 1, 7),
    ("nmse_vs_snr", {}, 1, 9),
    ("xi_sweep", {}, 1, 1),
    ("kappa_t_sweep", {}, 1, 1),
    # the phase-error law shapes the covariances: each (N, level) is a link
    ("phase_noise_sweep", {"sweep": [4, 9], "phase_noise_levels": [0.0, 0.1]}, 4, 4),
    ("nmse_vs_N", {"sweep": [4, 9]}, 2, 2),
    # an identity R_B has no factor
    ("xi_sweep", {"bs_corr": 0.0}, 1, 1),
])
def test_sweep_builds_each_link_once(monkeypatch, experiment, changes, statistics, estimators):
    # the LoS bridge H1 is built at most with the statistics, not per grid point
    built = count_builds(monkeypatch, {"build_los_channel": "los",
                                       "build_ris_correlation": "r_i",
                                       "build_channel_statistics": "statistics",
                                       "ChannelEstimator": "estimators"})
    factored = collections.Counter()
    of = MirrorFactor.of
    monkeypatch.setattr(MirrorFactor, "of",
                        staticmethod(lambda rows, grid: factored.update([grid]) or of(rows, grid)))
    config = ExperimentConfig.from_dict({**TINY, "m_e": 1, "sweep": [], **changes})
    run_experiment(experiment, config)
    # H1, R_I and the cascade congruences formed from it depend on neither
    # the phase-error law nor the pilots: the levels of one N share them, so
    # the phase-noise grid builds one H1 and one R_I per N
    bridges = len(config.sweep) if experiment == "phase_noise_sweep" else statistics
    assert built == {"los": bridges, "r_i": bridges, "statistics": statistics,
                     "estimators": estimators}
    # each sweep is one draw run at its largest arrays, which alone are
    # factored: R_I on its RIS grid, and R_B, unless it is the identity
    grid = config.replace(n=max(config.sweep or [config.n])).dimensions()
    assert factored == collections.Counter(
        [(grid.n // grid.n_h, grid.n_h), *[(1, grid.m)] * (config.bs_corr > 0)])


# the last point of each run could lend the next run its link: xi_sweep
# its statistics, the phase-noise grid's sigma_p^2 = 0.1 level its H1, R_I
# factor and cascade congruences
REPEATED_RUNS = {"xi_sweep": {},
                 "phase_noise_sweep": {"sweep": [4], "phase_noise_levels": [0.0, 0.1]}}


@pytest.mark.parametrize("experiment, links", [("xi_sweep", 1), ("phase_noise_sweep", 2)])
def test_repeated_runs_build_the_same_links(monkeypatch, experiment, links):
    # a sweep's reuse ends with the sweep, so every run in one process
    # builds what a fresh process would: its links, and one R_I and H1
    config = ExperimentConfig.from_dict({**TINY, "m_e": 1, "sweep": [],
                                         **REPEATED_RUNS[experiment]})
    runs = []
    for _ in range(2):
        with monkeypatch.context() as patch:
            runs.append(count_builds(patch, {"build_channel_statistics": "statistics",
                                             "ChannelEstimator": "estimators",
                                             "build_ris_correlation": "r_i",
                                             "build_los_channel": "h1"}))
            run_experiment(experiment, config)
    assert runs == 2 * [{"statistics": links, "estimators": links, "r_i": 1, "h1": 1}]


def holds_link_state(value) -> bool:
    """Whether ``value`` is, or holds in a dict, list or tuple, an array or link object."""
    if isinstance(value, (np.ndarray, ChannelStatistics, ChannelEstimator)):
        return True
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    return isinstance(value, (list, tuple)) and any(map(holds_link_state, value))


@pytest.mark.parametrize("experiment", list(REPEATED_RUNS))
def test_no_module_global_holds_a_link_after_a_run(experiment):
    run_experiment(experiment, ExperimentConfig.from_dict(
        {**TINY, "m_e": 1, "sweep": [], **REPEATED_RUNS[experiment]}))
    # importing ris_lab.__main__ would run the command line
    modules = [ris_lab] + [importlib.import_module(f"ris_lab.{info.name}")
                           for info in pkgutil.iter_modules(ris_lab.__path__)
                           if info.name != "__main__"]
    held = [(module.__name__, name) for module in modules
            for name, value in vars(module).items() if holds_link_state(value)]
    assert held == []


def test_nested_sweep_is_bit_identical_across_worker_counts(monkeypatch):
    config = ExperimentConfig.from_dict({**TINY, "m_e": 1, "sweep": [4, 9, 16],
                                         "n_blocks": 2 * CHUNK_BLOCKS + 8})
    tables = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("RIS_LAB_THREADS", threads)
        tables[threads] = run_experiment("phase_noise_sweep", config).rows
    assert tables["1"] == tables["2"]


SNR_GRID = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]


@pytest.mark.parametrize("experiment, grid", [
    ("nmse_vs_snr", [[snr] for snr in SNR_GRID + [25.0, 30.0]]),
    ("nmse_vs_N", [[n] for n in (16, 36, 64, 100, 196, 400)]),
    ("secrecy_vs_snr", [[snr] for snr in SNR_GRID]),
    ("secrecy_vs_M", [[m] for m in (16, 32, 64, 96, 128)]),
    ("secrecy_vs_N", [[n] for n in (36, 64, 100, 144, 196, 256)]),
    ("xi_sweep", [[xi] for xi in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
                                  0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)]),
    ("kappa_t_sweep", [[kappa] for kappa in (0.0, 0.05 ** 2, 0.1 ** 2, 0.15 ** 2)]),
    ("phase_noise_sweep", [[n, level] for n in (64, 100, 196, 400, 784, 1600)
                           for level in (0.0, 0.1, 1.0)]),
    ("asymptotic_vs_N", [[n] for n in (64, 144, 256, 576, 1024, 2048, 4096)]),
])
def test_default_grid(monkeypatch, experiment, grid):
    # an empty sweep runs the experiment's default grid; the swept columns
    # come first, and each point's lead cells stand in for its whole row,
    # so no statistics are built (asymptotic_vs_N has none and runs as is)
    monkeypatch.setattr(ris_lab.experiments, "_shared_draw_rows",
                        lambda config, points, closed, oracle: [lead for lead, _ in points])
    table = run_experiment(experiment, ExperimentConfig(sweep=[]))
    assert [row[:len(grid[0])] for row in table.rows] == grid
    assert all(type(a) is type(b) for row, lead in zip(table.rows, grid)
               for a, b in zip(row, lead))


# --------------------------------------------------------------------------
# the paper's closed-form claims
# --------------------------------------------------------------------------

def columns_of(table):
    return {name: np.array([row[i] for row in table.rows])
            for i, name in enumerate(table.columns)}


def test_asymptotic_secrecy_approaches_its_large_n_limits(within):
    # E_u = 40 dB puts the power-scaled limit at 1.47 bit/s/Hz
    config = ExperimentConfig.from_dict({"m": 8, "k": 2, "m_e": 1, "snr_db": 20.0,
                                         "power_scaling_eu_db": 40.0,
                                         "sweep": [64, 1024, 16384, 65536]})
    col = columns_of(run_experiment("asymptotic_vs_N", config))
    # secrecy survives a transmit power falling as 1/N
    within("scaled secrecy", col["r_sec_scaled_cf"], above=0.0)
    for value, limit in (("r_sec_scaled_cf", "r_sec_scaled_limit_cf"),
                         ("r_sec_large_n_cf", "r_sec_limit_cf")):
        gap = np.abs(col[value] - col[limit])
        within(f"{value} gap falls with N", gap[1:], below=gap[:-1])
        # what is left of the large-N gap at N = 65536 (0.09) is mostly the
        # finite-M term of the Eve bound, which only M -> infinity removes
        within(f"{value} gap at the largest N", gap[-1], below=0.05 * col[limit][-1])


def test_secrecy_grows_like_log_m(within):
    config = ExperimentConfig.from_dict({"n": 16, "k": 2, "m_e": 2, "snr_db": 10.0,
                                         "n_blocks": 2, "sweep": [16, 32, 64, 128]})
    col = columns_of(run_experiment("secrecy_vs_M", config))
    r_sec = col["r_sec_cf"]
    within("secrecy grows with M", r_sec[1:], above=r_sec[:-1])
    # about one bit/s/Hz per doubling of M: log2 M growth
    slope = np.polyfit(np.log2(col["m"].astype(float)), r_sec, 1)[0]
    within("log2 M slope", slope, above=0.5, below=1.5)
