"""Experiment configs, the CLI and the files a run writes."""
import collections
import json

import pytest

import ris_lab.experiments
import ris_lab.montecarlo
from ris_lab import cli
from ris_lab.errors import ConfigValidationError
from ris_lab.experiments import ExperimentConfig, run_and_write, run_experiment
from ris_lab.montecarlo import CHUNK_BLOCKS

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


@pytest.mark.parametrize("experiment, changes, calls", [
    # the phase-noise levels of one N share each chunk's draw, not their estimators
    ("phase_noise_sweep", {"sweep": [4, 9], "phase_noise_levels": [0.0, 0.1, 1.0]},
     {4: 3, 9: 3}),
    # xi and kappa_t_bs shape neither the draw nor the estimate
    ("xi_sweep", {"sweep": [0.3, 0.7, 1.0]}, {4: 1}),
    ("kappa_t_sweep", {"sweep": [0.0, 0.01]}, {4: 1}),
], ids=["phase_noise_sweep", "xi_sweep", "kappa_t_sweep"])
def test_secrecy_sweep_draws_once_per_link_and_chunk(monkeypatch, experiment, changes,
                                                     calls):
    # ``calls`` maps N to the estimator count of its one oracle call
    draws = collections.Counter()
    estimators = {}
    sample = ris_lab.montecarlo.sample_realizations
    oracle = ris_lab.experiments.estimate_secrecy

    def counted(stats, rng, n_draws):
        draws[stats.dims.n, n_draws] += 1
        return sample(stats, rng, n_draws)

    def recorded(points, plan):
        points = list(points)
        n = points[0][0].stats.dims.n
        assert n not in estimators
        estimators[n] = len({id(est) for est, _, _ in points})
        return oracle(points, plan)

    monkeypatch.setattr(ris_lab.montecarlo, "sample_realizations", counted)
    monkeypatch.setattr(ris_lab.experiments, "estimate_secrecy", recorded)
    config = ExperimentConfig.from_dict({
        **TINY, "m_e": 1, **changes, "n_blocks": CHUNK_BLOCKS + 8})
    table = run_experiment(experiment, config)
    assert len(table.rows) == len(changes["sweep"]) * len(changes.get("phase_noise_levels", [0]))
    assert estimators == calls
    assert draws == {(n, size): 1 for n in calls for size in (CHUNK_BLOCKS, 8)}
