import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import pairdeg.atlas
import pairdeg.cli
import pairdeg.model
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


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def load_json(path):
    """The document at ``path``, which must hold no NaN, Infinity or -Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def test_atlas_end_to_end(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG + """
[atlas]
window = -0.3, 0.3, -0.3, 0.3
heatmap_points = 21
""")
    out = tmp_path / "out"
    result = runner.invoke(main, ["atlas", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = load_json(out / "degeneracies.json")
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


@pytest.mark.parametrize("pair", ["0, 3", "2, 5"])
def test_cut_pair_out_of_range_is_a_config_error(tmp_path, runner, monkeypatch, pair):
    # Label 0 once wrapped to the last state under a column headed ReO_00,
    # and label 5 failed with an IndexError after the whole continuation.
    calls = []
    monkeypatch.setattr(pairdeg.observables, "continue_spectrum",
                        lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path, BASE_CONFIG + f"""
[cut]
start_re = -0.05
start_im = 0.1
stop_re = 0.05
stop_im = 0.1
pair = {pair}
""")
    result = runner.invoke(main, ["cut", "--config", cfg, "--out",
                                  str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.stderr == (f"config error: [cut] pair {pair}: "
                             "needs two state labels in 1..4\n")
    assert calls == []


@pytest.mark.parametrize("keys, message", [
    ("samples = 1", "[cut] samples must be at least 2"),
    ("pair = 2", "[cut] pair 2: needs two state labels in 1..4"),
    ("pair = 2, 9", "[cut] pair 2, 9: needs two state labels in 1..4"),
    ("pairing = false\n[precision]\ntau_c = -1",
     "[precision] tau_c must be positive, got -1"),
])
def test_cut_settings_are_checked_before_out_is_made(tmp_path, runner, keys, message):
    # samples = 1 once exited 2 after creating an empty --out directory, and
    # with pairing = false a negative tau_c was never read.
    cfg = write_config(tmp_path, BASE_CONFIG + "[cut]\nstart_re = -0.05\n"
                       f"start_im = 0.1\nstop_re = 0.05\nstop_im = 0.1\n{keys}\n")
    out = tmp_path / "o"
    result = runner.invoke(main, ["cut", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"config error: {message}\n"
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, section, keys, message", [
    ("atlas", "atlas", "heatmap_points = -1", "heatmap_points must be at least 1"),
    ("atlas", "atlas", "heatmap_points = 0", "heatmap_points must be at least 1"),
    ("atlas", "atlas", "heatmap_points = 1e20", "heatmap_points: 1e+20 is too large"),
    ("cut", "cut", "start_re = 0\nstart_im = 0.1\nstop_re = 0.1\nstop_im = 0.1\n"
     "samples = 1e20", "samples: 1e+20 is too large"),
    ("encircle", "encircle", "center_re = 0\ncenter_im = 0.1\nsteps = 1e20",
     "steps: 1e+20 is too large"),
    ("sweep", "sweep", "samples = 1e20", "samples: 1e+20 is too large"),
    ("atlas", "precision", "loop_steps = 10", "need at least 64 steps per loop, got 10"),
    ("sweep", "precision", "loop_steps = 63", "need at least 64 steps per loop, got 63"),
    ("atlas", "precision", "tau_c = -1", "tau_c must be positive, got -1"),
    ("atlas", "precision", "cluster_factor = -1", "cluster_factor must be positive, got -1"),
    ("atlas", "precision", "interp_radius = 0", "interp_radius must be positive, got 0"),
    ("atlas", "precision", "loop_radius = -0.01", "loop radius must be positive, got -0.01"),
    ("sweep", "precision", "tau_c = 0", "tau_c must be positive, got 0"),
    ("sweep", "sweep", "merge_radius = -1", "merge_radius must be positive, got -1"),
    ("encircle", "encircle", "center_re = 0\ncenter_im = 0.1\nsteps = 63",
     "need at least 64 steps per loop, got 63"),
    ("encircle", "encircle", "center_re = 0\ncenter_im = 0.1\nloops = 0",
     "need at least one loop"),
    ("encircle", "encircle", "center_re = 0\ncenter_im = 0.1\nradius = 0",
     "loop radius must be positive, got 0.0"),
    ("encircle", "encircle", "center_re = 0\ncenter_im = 0.1\nradius = -0.01",
     "loop radius must be positive, got -0.01"),
    ("sweep", "sweep", "samples = 1", "gamma sweep needs at least 2 samples"),
    ("atlas", "atlas", "window = 0.3, -0.3, -0.3, 0.3",
     "window 0.3, -0.3, -0.3, 0.3 is reversed: needs re_min <= re_max and im_min <= im_max"),
], ids=["heatmap-negative", "heatmap-zero", "heatmap-huge", "cut-samples-huge",
        "encircle-steps-huge", "sweep-samples-huge", "atlas-loop-steps-small",
        "sweep-loop-steps-small", "atlas-tau-c-negative", "atlas-cluster-factor-negative",
        "atlas-interp-radius-zero", "atlas-loop-radius-negative", "sweep-tau-c-zero",
        "sweep-merge-radius-negative", "encircle-steps-small", "encircle-loops-zero",
        "encircle-radius-zero", "encircle-radius-negative", "sweep-samples-one",
        "atlas-window-reversed"])
def test_count_out_of_range_is_a_config_error(tmp_path, runner, command, section, keys,
                                              message):
    # A negative or huge count once ended in a numpy traceback, a zero
    # heatmap wrote a header-only CSV, and a small loop_steps ran 64 steps.
    # A non-positive tolerance or radius once ran to a wrong answer (tau_c =
    # -1: every EP UNRESOLVED; merge_radius = -1: no event), and a loop or
    # sample count the library rejects exited 1.  A reversed atlas window
    # once wrote "0 degeneracies".
    cfg = write_config(tmp_path, BASE_CONFIG + f"\n[{section}]\n{keys}\n")
    out = tmp_path / "o"
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"config error: [{section}] {message}\n"
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("atlas", BASE_CONFIG.replace("omegas = 2, 6, 2", "omegas = 2, 6.5, 2"),
     "[model] omegas: expected an integer"),
    ("cut", BASE_CONFIG + "[cut]\nstart_re = -0.05\nstart_im = 0.1\n"
     "stop_re = 0.05\nstop_im = 0.1\npair = 2, 3.7\n",
     "[cut] pair: expected an integer"),
], ids=["model-omegas", "cut-pair"])
def test_non_integer_list_entry_is_a_config_error(tmp_path, runner, command, config,
                                                  message):
    # Each entry was once truncated: omegas 2, 6.5, 2 ran the model 2, 6, 2,
    # and pair 2, 3.7 tracked states 2 and 3.
    cfg = write_config(tmp_path, config)
    result = runner.invoke(main, [command, "--config", cfg, "--out",
                                  str(tmp_path / "o")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"config error: {message}\n"
    assert "Traceback" not in result.output


def test_atlas_builds_operators_once(tmp_path, runner, monkeypatch):
    # The classified roots and the heatmap come from one family.
    builds = []
    build = pairdeg.model.build_operator_matrices

    def counting(m):
        builds.append(m)
        return build(m)

    for module in (pairdeg.model, pairdeg.atlas, pairdeg.observables):
        monkeypatch.setattr(module, "build_operator_matrices", counting)
    cfg = write_config(tmp_path, BASE_CONFIG + "\n[atlas]\nheatmap_points = 5\n")
    result = runner.invoke(main, ["atlas", "--config", cfg, "--out",
                                  str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert len(builds) == 1


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
    doc = load_json(out / "encircle_summary.json")
    assert doc["eigenvalue_period"] == 1
    assert doc["phase_period"] == 2
    assert doc["permutations"] == ["identity", "identity"]
    lines = (out / "phases.csv").read_text().splitlines()
    assert len(lines) == 3 + 2 * 128 + 1


def test_encircle_uses_the_precision_settings(tmp_path, runner, monkeypatch):
    # The reference scaled by 10 moves every degeneracy from g to 10*g, and
    # its [precision] interp_radius with it.  At the default radius the
    # loop around the pseudo-DP would enclose two split roots.
    calls = []
    find_degeneracies = pairdeg.cli.find_degeneracies

    def recording(family, **kwargs):
        calls.append(kwargs)
        return find_degeneracies(family, **kwargs)

    monkeypatch.setattr(pairdeg.cli, "find_degeneracies", recording)
    cfg = write_config(tmp_path, BASE_CONFIG.replace("0, 1, 2", "0, 10, 20") + """
[encircle]
center_re = 0.0
center_im = -1.7677669529663687
radius = 0.1
steps = 256
loops = 2

[precision]
interp_radius = 5.0
cluster_factor = 2e-4
""")
    out = tmp_path / "out"
    result = runner.invoke(main, ["encircle", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert calls == [{"radius": 5.0, "cluster_factor": 2e-4}]
    doc = load_json(out / "encircle_summary.json")
    assert (doc["eigenvalue_period"], doc["phase_period"]) == (1, 2)
    assert doc["restored"] is True


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
    doc = load_json(out / "events.json")
    assert len(doc["events"]) >= 1
    assert abs(doc["events"][0]["gamma"] + 0.5) <= 1e-3
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[2].split(",")[0] == "gamma"


def test_unclassified_sweep_writes_null_coalescence(tmp_path, runner):
    cfg = write_config(tmp_path, BASE_CONFIG + """
[sweep]
gamma_start = -0.52
gamma_stop = -0.48
samples = 3
classify = false
""")
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    points = [p for pts in load_json(out / "events.json")["points"] for p in pts]
    assert points
    assert all(p["kind"] == "UNRESOLVED" and p["coalescence"] is None for p in points)


def test_sweep_command_passes_loop_settings(tmp_path, runner, monkeypatch):
    # [precision] loop_radius and loop_steps set the classification
    # verification loops of a sweep, as they do for atlas.
    loops = []
    turn_permutations = pairdeg.atlas._turn_permutations

    def recording(jobs):
        loops.extend(loop for _, loop, _ in jobs)
        return turn_permutations(jobs)

    monkeypatch.setattr(pairdeg.atlas, "_turn_permutations", recording)
    cfg = write_config(tmp_path, BASE_CONFIG + """
[precision]
loop_steps = 200
loop_radius = 0.005

[sweep]
gamma_start = -0.51
gamma_stop = -0.49
samples = 3
""")
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert loops
    assert all(loop.steps == 200 and loop.radius <= 0.005 for loop in loops)


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
    doc = load_json(tmp_path / "st" / "selftest.json")
    assert len(doc["results"]) == 10
    assert all(r["passed"] for r in doc["results"])
