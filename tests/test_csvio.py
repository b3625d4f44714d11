"""The column-wise CSV writer against the row-wise writer it replaced.

``_write_csv_oracle`` formats one value at a time with ``format_value``,
as every CSV of the package was written before; the producers' old row
code is kept below too.  Every file must match byte for byte.
"""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pairdeg.cli
from pairdeg import (LoopSpec, find_degeneracies, pairing_energy_cut, spectrum_along,
                     trace_loop)
from pairdeg._csvio import CHUNK_ROWS, format_value, write_csv
from pairdeg.atlas import GammaTrajectory, sweep_gamma
from pairdeg.observables import PairingCut


def _write_csv_oracle(path, column_names, rows, meta=()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        fh.write(",".join(column_names) + "\n")
        for row in rows:
            fh.write(",".join(format_value(x) for x in row) + "\n")


def _assert_same_file(tmp_path, write, write_oracle):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write(new)
    write_oracle(old)
    assert new.read_bytes() == old.read_bytes()


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 9999999999999998.0, 1e-4,
           9.999999999999999e-05, 1e-5, 1e15, 0.1, 1 / 3, np.inf, -np.inf, np.nan]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
row_counts = st.one_of(st.integers(0, 4),
                       st.sampled_from([CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                        2 * CHUNK_ROWS + 3]))
texts = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=6)
KINDS = {
    "float64 array": lambda v: np.array(v, dtype=np.float64),
    "float list": lambda v: [float(x) for x in v],
    "np.float64 list": lambda v: [np.float64(x) for x in v],
    "int list": lambda v: [int(np.nan_to_num(x, posinf=7, neginf=-7)) % 1000 for x in v],
    "np.int64 list": lambda v: [np.int64(np.nan_to_num(x, posinf=7, neginf=-7) % 1000)
                                for x in v],
    "int64 array": lambda v: np.array([int(np.nan_to_num(x, posinf=7, neginf=-7)) % 1000
                                       for x in v], dtype=np.int64),
}


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data(), rows=row_counts,
       kinds=st.lists(st.sampled_from(sorted(KINDS) + ["str list", "mixed list"]),
                      min_size=1, max_size=5),
       meta=st.lists(texts, max_size=2))
def test_writer_matches_row_wise_oracle(tmp_path, data, rows, kinds, meta):
    columns = []
    for kind in kinds:
        if kind == "str list":
            # '%' in a value must come out as it is.
            values = data.draw(st.lists(st.one_of(texts, st.just("%s%r%%")),
                                        min_size=rows, max_size=rows))
        elif kind == "mixed list":
            values = data.draw(st.lists(st.one_of(floats, st.integers(-10**20, 10**20),
                                                  texts),
                                        min_size=rows, max_size=rows))
        else:
            values = KINDS[kind](data.draw(st.lists(floats, min_size=rows,
                                                    max_size=rows)))
        columns.append(values)
    names = [f"c{i}" for i in range(len(columns))]
    _assert_same_file(
        tmp_path,
        lambda p: write_csv(p, names, columns, meta=meta),
        lambda p: _write_csv_oracle(p, names, zip(*columns), meta=meta))


def test_numpy_floats_are_plain_numbers(tmp_path):
    assert format_value(np.float64(0.1)) == "0.1"
    write_csv(tmp_path / "x.csv", ["a", "b", "c"],
              [np.array([0.1, -0.0]), [np.float64(1e16), 2.5], [np.float64(np.nan), 3]])
    assert (tmp_path / "x.csv").read_text() == "a,b,c\n0.1,1e+16,nan\n-0.0,2.5,3\n"


@pytest.mark.parametrize("kind", ["float64 array", "float64 real view", "float list",
                                  "str list", "str array"])
def test_fast_columns_match_cell_by_cell_formatting(tmp_path, kind):
    # Each column that skips format_value writes what format_value writes
    # cell by cell, across a chunk boundary.
    rng = np.random.default_rng(4)
    rows = CHUNK_ROWS + 17
    values = rng.normal(size=rows) * 10.0 ** rng.integers(-320, 300, size=rows)
    values[:len(SPECIAL)] = SPECIAL
    column = {
        "float64 array": lambda: values,
        "float64 real view": lambda: values.astype(complex).real,
        "float list": lambda: values.tolist(),
        "str list": lambda: [format_value(x) for x in values.tolist()],
        "str array": lambda: np.array([f"x{x!r}%s" for x in values.tolist()]),
    }[kind]()
    _assert_same_file(
        tmp_path,
        lambda p: write_csv(p, ["a", "b"], [column, column]),
        lambda p: _write_csv_oracle(p, ["a", "b"], zip(column, column)))


def test_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a", "b"], [[1.0, 2.0], [3.0]])


# The producers' row code before columns: the oracle of each to_csv.

def _loop_rows(trace):
    for i, phi in enumerate(trace.phis):
        row = [float(phi)]
        for m in range(trace.dim):
            th, E = trace.thetas[i, m], trace.eigenvalues[i, m]
            row += [th.real, th.imag, E.real, E.imag]
        yield row


def _cut_rows(table):
    for g, row in zip(table.gs, table.energies):
        out = [g.real, g.imag]
        for E in row:
            out += [E.real, E.imag]
        yield out


def _pairing_rows(cut):
    for k, g in enumerate(cut.gs):
        yield ([g.real, g.imag] + [float(x) for x in cut.diagonal[k].real]
               + [float(cut.pair_sum[k].real)])


def _trajectory_rows(traj):
    for gamma, pts in zip(traj.gammas, traj.points):
        for p in pts:
            yield [float(gamma), p.g0.real, p.g0.imag, p.kind.value, p.root.multiplicity]


def _header(path):
    return path.read_text().splitlines()[1].split(",")


def test_producers_match_row_wise_oracle(tmp_path, model, pseudo_dp):
    meta = ["version=test"]
    roots = find_degeneracies(model)
    root = min(roots, key=lambda r: abs(r.g0 - pseudo_dp))
    trace = trace_loop(model, LoopSpec(root.g0, 0.01, steps=64, loops=2),
                       degeneracies=roots)
    table = spectrum_along(model, -0.1, 0.1, 300)
    cut = pairing_energy_cut(model, pseudo_dp + 0.01, pseudo_dp + 0.05, 40)
    traj = sweep_gamma(model, -0.51, -0.49, steps=3, classify_points=True)
    for obj, rows in [(trace, _loop_rows), (table, _cut_rows), (cut, _pairing_rows),
                      (traj, _trajectory_rows)]:
        def write(p, obj=obj):
            obj.to_csv(p, meta=meta)

        def write_oracle(p, obj=obj, rows=rows):
            _write_csv_oracle(p, _header(tmp_path / "new.csv"), rows(obj), meta=meta)

        _assert_same_file(tmp_path, write, write_oracle)


def test_zero_row_tables_write_a_header(tmp_path):
    traj = GammaTrajectory(gammas=np.linspace(-0.6, -0.4, 3), points=[[], [], []])
    traj.to_csv(tmp_path / "traj.csv", meta=["version=test"])
    assert (tmp_path / "traj.csv").read_text() == \
        "# version=test\ngamma,g_re,g_im,kind,multiplicity\n"
    empty = np.zeros((0, 4), dtype=complex)
    cut = PairingCut(gs=np.zeros(0, dtype=complex), diagonal=empty, energies=empty,
                     pair=(2, 3))
    cut.to_csv(tmp_path / "pairing.csv")
    assert (tmp_path / "pairing.csv").read_text() == \
        "g_re,g_im,ReO_11,ReO_22,ReO_33,ReO_44,ReO_22+ReO_33\n"


def test_heatmap_matches_row_wise_oracle(tmp_path, monkeypatch):
    grids = []
    grid_of = pairdeg.cli.discriminant_grid

    def recorded(*args):
        grids.append(grid_of(*args))
        return grids[-1]

    monkeypatch.setattr(pairdeg.cli, "discriminant_grid", recorded)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[model]\nepsilons = 0, 1, 2\nomegas = 2, 6, 2\nn_pairs = 2\n"
                   "gamma = -0.5\n[atlas]\nwindow = -0.3, 0.3, -0.2, 0.25\n"
                   "heatmap_points = 17\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(pairdeg.cli.main,
                                ["atlas", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    res, ims, grid = grids[0]
    rows = [[float(x), float(y), float(v)]
            for i, y in enumerate(ims) for x, v in zip(res, grid[i])]
    new = (out / "heatmap.csv").read_text()
    meta = [line[2:] for line in new.splitlines() if line.startswith("# ")]
    _write_csv_oracle(tmp_path / "old.csv", ["g_re", "g_im", "abs_D"], rows, meta=meta)
    assert new == (tmp_path / "old.csv").read_text()
