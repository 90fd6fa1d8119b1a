"""Experiment configs, the CLI and the files a run writes."""
import json

import pytest

from ris_lab import cli
from ris_lab.errors import ConfigValidationError
from ris_lab.experiments import ExperimentConfig, run_and_write

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


def test_cli_degenerate_config_exits_2_with_one_line(tmp_path, capsys):
    # pilot power so small that E||h_hat_k||^2 underflows to zero: MRT is undefined
    config = write_config(tmp_path, {**TINY, "pilot_snr_db": -3200.0,
                                     "normalize_gains": False})
    assert cli.main(["kappa_t_sweep", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "zero-power channel estimate" in err and "Traceback" not in err


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
    assert set(env["blas"]) == {"name", "version"}
    assert manifest["config_hash"] == config.config_hash()
    assert manifest["rows"] == 1
