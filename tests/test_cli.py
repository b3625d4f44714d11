import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import pairdeg.observables
import pairdeg.spectra
from pairdeg.cli import main

BASE_CONFIG = """\
[model]
epsilons = 0, 1, 2
omegas = 2, 6, 2
n_pairs = 2
gamma = -0.5
"""


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_atlas_end_to_end(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG + """
[atlas]
window = -0.3, 0.3, -0.3, 0.3
heatmap_points = 21
""")
    out = tmp_path / "out"
    result = runner.invoke(main, ["atlas", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "degeneracies.json").read_text())
    assert doc["meta"]["version"]
    points = doc["degeneracies"]
    target = 1 / (4 * np.sqrt(2))
    pdps = [p for p in points if p["kind"] == "PSEUDO_DP"]
    assert any(abs(p["g_im"] + target) < 1e-8 for p in pdps)
    assert any(abs(p["g_im"] - target) < 1e-8 for p in pdps)
    heat = (out / "heatmap.csv").read_text().splitlines()
    assert heat[0].startswith("# config_sha256=")
    assert heat[3].split(",")[0:2] == ["-0.3", "-0.3"]
    assert len(heat) == 3 + 21 * 21


def test_atlas_window_without_roots(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG + """
[atlas]
window = 0.5, 0.6, 0.5, 0.6
heatmap_points = 5
""")
    out = tmp_path / "out"
    result = runner.invoke(main, ["atlas", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "degeneracies.json").read_text())
    assert doc["degeneracies"] == []
    heat = (out / "heatmap.csv").read_text().splitlines()
    assert len(heat) == 3 + 25


def test_atlas_finds_ep_at_gamma_049(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("gamma = -0.5", "gamma = -0.49")
                       + "\n[atlas]\nheatmap_points = 5\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["atlas", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "degeneracies.json").read_text())
    eps = [p for p in doc["degeneracies"] if p["kind"] == "EP"]
    assert any(abs(p["g_im"] + 0.207687) < 1e-5 and abs(p["g_re"]) < 1e-6
               for p in eps)


def test_cut_command(tmp_path, runner):
    y = -1 / (4 * np.sqrt(2))
    cfg = write_config(tmp_path, BASE_CONFIG + f"""
[cut]
start_re = -0.05
start_im = {y}
stop_re = 0.05
stop_im = {y}
samples = 20
pairing = true
""")
    out = tmp_path / "out"
    result = runner.invoke(main, ["cut", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    spec_lines = (out / "spectrum_cut.csv").read_text().splitlines()
    assert spec_lines[2].split(",")[2:4] == ["E1_re", "E1_im"]
    assert len(spec_lines) == 3 + 20
    pair_lines = (out / "pairing_cut.csv").read_text().splitlines()
    assert pair_lines[2].split(",")[-1] == "ReO_22+ReO_33"


def test_cut_runs_one_continuation(tmp_path, runner, monkeypatch):
    # With pairing on, both CSVs come from one continuation with vectors;
    # its eigenvalues are bit for bit those of a continuation without.
    calls = []
    continue_spectrum = pairdeg.spectra.continue_spectrum

    def counting(*args, **kwargs):
        calls.append(kwargs.get("want_vectors"))
        return continue_spectrum(*args, **kwargs)

    monkeypatch.setattr(pairdeg.spectra, "continue_spectrum", counting)
    monkeypatch.setattr(pairdeg.observables, "continue_spectrum", counting)
    y = -1 / (4 * np.sqrt(2))
    spectra = {}
    for pairing in ("true", "false"):
        cfg = write_config(tmp_path, BASE_CONFIG + f"""
[cut]
start_re = -0.05
start_im = {y}
stop_re = 0.05
stop_im = {y}
samples = 40
pairing = {pairing}
""", name=f"{pairing}.ini")
        out = tmp_path / pairing
        calls.clear()
        result = runner.invoke(main, ["cut", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert calls == [pairing == "true"]
        lines = (out / "spectrum_cut.csv").read_text().splitlines()
        spectra[pairing] = lines[1:]  # past the config hash
    assert spectra["true"] == spectra["false"]


def test_overflowing_window_fails_without_traceback(tmp_path, runner):
    # The span 2e308 overflows: a config error, raised before any sampling,
    # so no numpy warning comes ahead of it.
    cfg = write_config(tmp_path, BASE_CONFIG + """
[atlas]
window = -1e308, 1e308, -0.3, 0.3
heatmap_points = 5
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["atlas", "--config", cfg, "--out",
                                      str(tmp_path / "o")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(
        "config error: [atlas] window -1e+308, 1e+308, -0.3, 0.3 ")
    assert "non-finite" in result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize("window", ["-0.3, 0.3, nan, 0.3", "-inf, 0.3, -0.3, 0.3"])
def test_non_finite_window_is_a_config_error(tmp_path, runner, window):
    cfg = write_config(tmp_path, BASE_CONFIG + f"""
[atlas]
window = {window}
heatmap_points = 5
""")
    result = runner.invoke(main, ["atlas", "--config", cfg, "--out",
                                  str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"config error: [atlas] window {window}: "
                                    "expected finite numbers")


@pytest.mark.parametrize("command, section, key, value", [
    ("atlas", "precision", "tau_c", "nan"),
    ("sweep", "sweep", "merge_radius", "inf"),
])
def test_non_finite_number_is_a_config_error(tmp_path, runner, command, section, key,
                                             value):
    # A NaN tau_c once turned every EP UNRESOLVED, and an infinite
    # merge_radius switched off the merge distance check, both silently.
    cfg = write_config(tmp_path, BASE_CONFIG + f"""
[{section}]
{key} = {value}
""")
    result = runner.invoke(main, [command, "--config", cfg, "--out",
                                  str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.stderr == (f"config error: [{section}] {key} {value}: "
                             "expected finite numbers\n")


def test_cut_with_one_sample_is_a_config_error(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG + """
[cut]
start_re = -0.05
start_im = 0.1
stop_re = 0.05
stop_im = 0.1
samples = 1
""")
    result = runner.invoke(main, ["cut", "--config", cfg, "--out",
                                  str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "samples must be at least 2" in result.stderr


def test_encircle_command(tmp_path, runner):
    y = -1 / (4 * np.sqrt(2))
    cfg = write_config(tmp_path, BASE_CONFIG + f"""
[encircle]
center_re = 0.0
center_im = {y}
radius = 0.01
steps = 128
loops = 2
""")
    out = tmp_path / "out"
    result = runner.invoke(main, ["encircle", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "encircle_summary.json").read_text())
    assert doc["eigenvalue_period"] == 1
    assert doc["phase_period"] == 2
    assert doc["permutations"] == ["identity", "identity"]
    lines = (out / "phases.csv").read_text().splitlines()
    assert len(lines) == 3 + 2 * 128 + 1


def test_sweep_command(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG + """
[sweep]
gamma_start = -0.52
gamma_stop = -0.48
samples = 5
""")
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "events.json").read_text())
    assert len(doc["events"]) >= 1
    assert abs(doc["events"][0]["gamma"] + 0.5) <= 1e-3
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[2].split(",")[0] == "gamma"


def test_unknown_key_rejected(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG + "\n[atlas]\nbogus = 1\n")
    result = runner.invoke(main, ["atlas", "--config", cfg, "--out",
                                  str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "unknown key" in result.output


def test_unknown_section_rejected(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG + "\n[mystery]\nx = 1\n")
    result = runner.invoke(main, ["atlas", "--config", cfg, "--out",
                                  str(tmp_path / "o")])
    assert result.exit_code == 2


def test_missing_model_key_rejected(tmp_path, runner):
    cfg = write_config(tmp_path, "[model]\nepsilons = 0, 1\nomegas = 2, 2\n")
    result = runner.invoke(main, ["atlas", "--config", cfg, "--out",
                                  str(tmp_path / "o")])
    assert result.exit_code == 2


def test_invalid_model_rejected(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("omegas = 2, 6, 2",
                                                     "omegas = 2, 5, 2"))
    result = runner.invoke(main, ["atlas", "--config", cfg, "--out",
                                  str(tmp_path / "o")])
    assert result.exit_code == 2


def test_outputs_byte_identical(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG + """
[atlas]
window = -0.2, 0.2, -0.2, 0.2
heatmap_points = 11
""")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(main, ["atlas", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0
        outs.append(out)
    for fname in ("degeneracies.json", "heatmap.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_selftest_subcommand(tmp_path, runner):
    result = runner.invoke(main, ["selftest", "--out", str(tmp_path / "st")])
    assert result.exit_code == 0, result.output
    assert result.output.count("[PASS]") == 10
    doc = json.loads((tmp_path / "st" / "selftest.json").read_text())
    assert len(doc["results"]) == 10
    assert all(r["passed"] for r in doc["results"])
