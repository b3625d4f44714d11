"""Golden outputs of the reference config: every CLI subcommand plus selftest.

The files in ``tests/golden/`` were written by the CLI from
``tests/golden/reference.ini``.  A refactor must reproduce them: numbers to
1e-12 relative, every other token exactly.  Regenerate them only for a
change that is meant to move outputs, from the repository root:

    for c in atlas sweep encircle cut; do
        PYTHONPATH=src python -m pairdeg.cli $c \\
            --config tests/golden/reference.ini --out tests/golden
    done
    PYTHONPATH=src python -m pairdeg.cli selftest --out tests/golden
"""

import hashlib
import json
import math
import pathlib

import pytest
from click.testing import CliRunner

from pairdeg.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CONFIG = GOLDEN / "reference.ini"
REL_TOL = 1e-12
OUTPUTS = {
    "atlas": ("degeneracies.json", "heatmap.csv"),
    "sweep": ("events.json", "trajectory.csv"),
    "encircle": ("encircle_summary.json", "phases.csv"),
    "cut": ("spectrum_cut.csv", "pairing_cut.csv"),
}


def _cell_number(token):
    """The float a CSV cell spells, or None if it is not a number."""
    try:
        return float(token)
    except ValueError:
        return None


def _same_number(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _diff_csv(expected, actual):
    """First divergence as 'row R, field F: ...', or None."""
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return f"{len(act_lines)} lines, expected {len(exp_lines)}"
    header = []
    for r, (e_line, a_line) in enumerate(zip(exp_lines, act_lines), start=1):
        if e_line.startswith("#"):
            if e_line != a_line:
                return f"row {r}: {a_line!r}, expected {e_line!r}"
            continue
        e_cells, a_cells = e_line.split(","), a_line.split(",")
        if not header:
            header = e_cells
        if len(e_cells) != len(a_cells):
            return f"row {r}: {len(a_cells)} fields, expected {len(e_cells)}"
        for k, (e, a) in enumerate(zip(e_cells, a_cells)):
            name = header[k] if k < len(header) else str(k)
            x, y = _cell_number(e), _cell_number(a)
            same = (e == a) if x is None or y is None else _same_number(x, y)
            if not same:
                return f"row {r}, field {name}: {a!r}, expected {e!r}"
    return None


def _diff_json(expected, actual, path="$"):
    """First divergence as '<json path>: ...', or None."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if list(expected) != list(actual):
            return f"{path}: keys {list(actual)}, expected {list(expected)}"
        for key in expected:
            found = _diff_json(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)}, expected {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = _diff_json(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)):
        if _same_number(float(expected), float(actual)):
            return None
    elif type(expected) is type(actual) and expected == actual:
        return None
    return f"{path}: {actual!r}, expected {expected!r}"


def diff_output(name, actual_text):
    """First divergence of an output from its golden copy, or None."""
    expected_text = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        found = _diff_json(json.loads(expected_text), json.loads(actual_text))
    else:
        found = _diff_csv(expected_text, actual_text)
    return f"{name}: {found}" if found else None


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    runner = CliRunner()
    for command in OUTPUTS:
        result = runner.invoke(main, [command, "--config", str(CONFIG),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
    # selftest exits 1 on a failing criterion; its JSON still names it.
    runner.invoke(main, ["selftest", "--out", str(out)])
    return out


@pytest.mark.parametrize(
    "name", [n for names in OUTPUTS.values() for n in names] + ["selftest.json"]
)
def test_output_matches_golden(outputs, name):
    assert diff_output(name, (outputs / name).read_text()) is None


@pytest.mark.parametrize("name", [n for names in OUTPUTS.values() for n in names
                                  if n.endswith(".csv")])
def test_csv_cells_are_plain(outputs, name):
    # numpy 2 once wrote float64 scalars as np.float64(x), which a CSV
    # reader takes as text.
    lines = (outputs / name).read_text().splitlines()
    cells = [c for line in lines if not line.startswith("#") for c in line.split(",")]
    assert not [c for c in cells if "np." in c]


def test_written_defaults_match_omitted_ones(tmp_path):
    # The README's [precision] defaults and merge_radius, written out, give
    # the bytes of the golden config, which omits them, but for its hash.
    explicit = tmp_path / "explicit.ini"
    explicit.write_text(CONFIG.read_text().replace(
        "[sweep]\n", "[sweep]\nmerge_radius = 1e-4\n") + """
[precision]
tau_c = 1e-6
interp_radius = 0.5
cluster_factor = 1e-4
loop_steps = 64
loop_radius = 0.01
""")
    runner = CliRunner()
    written = []
    for config in (CONFIG, explicit):
        out = tmp_path / config.stem
        sha = hashlib.sha256(config.read_bytes()).hexdigest().encode()
        for command in ("atlas", "sweep"):
            result = runner.invoke(main, [command, "--config", str(config),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
        written.append({name: (out / name).read_bytes().replace(sha, b"<sha256>")
                        for name in OUTPUTS["atlas"] + OUTPUTS["sweep"]})
    assert written[0] == written[1]


def test_comparator_names_first_divergence():
    text = (GOLDEN / "phases.csv").read_text()
    lines = text.splitlines()
    cells = lines[5].split(",")
    value = float(cells[3])
    cells[3] = repr(value * (1 + 1e-10))
    moved = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    assert diff_output("phases.csv", moved).startswith(
        "phases.csv: row 6, field E1_re:")
    cells[3] = repr(value * (1 + 1e-14))
    nudged = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    assert diff_output("phases.csv", nudged) is None
    # numpy's scalar repr of the same number is not a plain number.
    cells[3] = f"np.float64({value!r})"
    wrapped = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    assert diff_output("phases.csv", wrapped).startswith(
        "phases.csv: row 6, field E1_re:")

    doc = json.loads((GOLDEN / "events.json").read_text())
    doc["points"][1][0]["kind"] = "DP"
    assert diff_output("events.json", json.dumps(doc)) == (
        "events.json: $.points[1][0].kind: 'DP', expected 'EP'")
    doc = json.loads((GOLDEN / "events.json").read_text())
    doc["events"][0]["gamma"] *= 1 + 1e-11
    assert diff_output("events.json", json.dumps(doc)).startswith(
        "events.json: $.events[0].gamma:")
