import math
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from gse.cli import CSV_HEADER, _format_record, _parse_n_range, main
from gse.emission import MODELS, sweep_record
from gse.params import dicke_params, params_for_coupling


@pytest.fixture()
def runner():
    return CliRunner()


def read(path):
    return Path(path).read_bytes()


def test_sweep_writes_ordered_csv(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--g", "0.05", "--n", "1000",
                                      "--detuning", "-0.1:0.1:0.05",
                                      "--out", "rows.csv"])
        assert result.exit_code == 0, result.output
        lines = Path("rows.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 5
        cells = [line.split(",") for line in lines[1:]]
        order = [(c[0], float(c[1])) for c in cells]
        assert order == sorted(order)
        models = {c[0] for c in cells}
        assert models == {"pert", "full", "fermionic"}
        assert {c[3] for c in cells} == {"1000"}


def test_sweep_single_model_and_detuning(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--model", "pert",
                                      "--detuning", "0.2", "--out", "one.csv"])
        assert result.exit_code == 0, result.output
        lines = Path("one.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("pert,0.2")


def test_sweep_deterministic_across_threads(runner):
    args = ["sweep", "--g", "0.04", "--n", "500",
            "--detuning", "-0.2:0.2:0.02", "--out", "out.csv"]
    with runner.isolated_filesystem():
        assert runner.invoke(main, args).exit_code == 0
        serial = read("out.csv")
        assert runner.invoke(main, args).exit_code == 0
        assert read("out.csv") == serial
        env = dict(os.environ, GSE_NUM_THREADS="4")
        assert runner.invoke(main, args, env=env).exit_code == 0
        assert read("out.csv") == serial


def test_sweep_empty_range_exits_2_without_file(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--detuning", "0.5:-0.5:0.01",
                                      "--out", "never.csv"])
        assert result.exit_code == 2
        assert not Path("never.csv").exists()


def test_sweep_rejects_both_couplings(runner):
    result = runner.invoke(main, ["sweep", "--g", "0.05", "--chi", "1e-3"])
    assert result.exit_code == 2


def test_unstable_point_exits_3_and_echoes_params(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--g", "0.9", "--n", "100",
                                      "--detuning", "0", "--out", "x.csv"])
        assert result.exit_code == 3
        err = result.stderr
        assert "physics error" in err
        assert "g_n" in err and "omega_c" in err


def test_bad_thread_count_exits_2(runner):
    env = dict(os.environ, GSE_NUM_THREADS="three")
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--detuning", "0",
                                      "--out", "x.csv"], env=env)
        assert result.exit_code == 2


def test_gnuplot_script_emitted(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--model", "full",
                                      "--detuning", "-0.1:0.1:0.1",
                                      "--out", "s.csv", "--emit-gnuplot"])
        assert result.exit_code == 0, result.output
        script = Path("s.csv.gp").read_text()
        assert "s.csv" in script and "plot" in script


def test_grid_varies_electron_number(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["grid", "--model", "fermionic",
                                      "--chi", "1e-3",
                                      "--n-range", "100:10000:3:log",
                                      "--detuning", "0", "--out", "g.csv"])
        assert result.exit_code == 0, result.output
        lines = Path("g.csv").read_text().splitlines()[1:]
        ns = [int(line.split(",")[3]) for line in lines]
        assert ns == [100, 1000, 10000]


def test_compare_within_default_tolerance(runner):
    result = runner.invoke(main, ["compare", "--g", "0.05", "--n", "100000",
                                  "--detuning", "-0.2:0.2:0.1"])
    assert result.exit_code == 0, result.output
    assert "within tolerance" in result.output
    assert "pert vs full" in result.output


def test_compare_strict_tolerance_exits_4(runner):
    result = runner.invoke(main, ["compare", "--g", "0.05", "--n", "100000",
                                  "--detuning", "-0.1:0.1:0.1",
                                  "--tolerance", "0"])
    assert result.exit_code == 4
    assert "exceeds tolerance" in result.stderr


def test_compare_needs_two_models(runner):
    result = runner.invoke(main, ["compare", "--model", "pert"])
    assert result.exit_code == 2


def test_oracle_certifies_small_systems(runner):
    result = runner.invoke(main, ["oracle", "--n", "3", "--g", "0.02",
                                  "--detuning", "-0.2"])
    assert result.exit_code == 0, result.output
    assert "sum_rule_residual" in result.output
    assert "ok" in result.output


def test_oracle_rejects_large_systems(runner):
    result = runner.invoke(main, ["oracle", "--n", "12"])
    assert result.exit_code == 2


def test_spectrum_output(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["spectrum", "--model", "full",
                                      "--g", "0.05", "--detuning", "0",
                                      "--points", "101", "--out", "sp.csv"])
        assert result.exit_code == 0, result.output
        lines = Path("sp.csv").read_text().splitlines()
        assert lines[0] == "omega,intensity"
        assert len(lines) == 102
        omegas = [float(line.split(",")[0]) for line in lines[1:]]
        assert omegas == sorted(omegas)
        assert all(float(line.split(",")[1]) >= 0 for line in lines[1:])


def test_config_file_supplies_defaults_and_flags_win(runner):
    with runner.isolated_filesystem():
        Path("conf.ini").write_text(
            "[sweep]\nmodel = pert\ng = 0.1\ndetuning = 0\nout = a.csv\n")
        result = runner.invoke(main, ["sweep", "--config", "conf.ini"])
        assert result.exit_code == 0, result.output
        row = Path("a.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "pert"
        assert float(row[2]) == pytest.approx(0.1)

        result = runner.invoke(main, ["sweep", "--config", "conf.ini",
                                      "--g", "0.02", "--out", "b.csv"])
        assert result.exit_code == 0, result.output
        row = Path("b.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.02)


def test_missing_config_file_exits_2(runner):
    result = runner.invoke(main, ["sweep", "--config", "nope.ini"])
    assert result.exit_code == 2


def test_raw_dicke_changes_rates(runner):
    with runner.isolated_filesystem():
        base = ["sweep", "--model", "full", "--g", "0.3", "--n", "100",
                "--detuning", "0"]
        assert runner.invoke(main, base + ["--out", "ren.csv"]).exit_code == 0
        assert runner.invoke(main, base + ["--raw-dicke",
                                           "--out", "raw.csv"]).exit_code == 0
        ren = float(Path("ren.csv").read_text().splitlines()[1].split(",")[6])
        raw = float(Path("raw.csv").read_text().splitlines()[1].split(",")[6])
        assert ren != raw


def test_grid_reports_every_unstable_point(runner):
    # at the default chi = 3e-3 and zero detuning, g_N = chi sqrt(N)
    # reaches the bound 1/2 from N = (0.5 / 3e-3)^2 ~ 27778 on: 10 of the
    # 50 log-spaced samples, 28118 ... 100000
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["grid", "--n-range", "100:100000:50:log",
                                      "--out", "g.csv"])
        assert result.exit_code == 3
        assert not Path("g.csv").exists()
        err = result.stderr.splitlines()
        assert err[0] == "physics error: 10 of 50 operating points unstable:"
        points = [line for line in err[1:] if line.startswith("  detuning=")]
        assert len(points) == 10
        assert "N=28118:" in points[0] and "N=100000:" in points[-1]
        assert all("g_n=" in line and "omega_c=" in line for line in points)


def test_non_finite_detuning_exits_2(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--detuning", "nan",
                                      "--out", "x.csv"])
        assert result.exit_code == 2
        assert "must be finite" in result.stderr


@pytest.mark.parametrize("n_range", ["2:12:11:lin", "100:100:1"])
def test_grid_rows_equal_single_point_records(runner, n_range):
    # clamped subspace dimensions (N = 2, 3) and the full ones share one
    # batch; every row must match the one-point evaluation bit for bit
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["grid", "--chi", "0.02",
                                      "--n-range", n_range,
                                      "--detuning", "-0.5:0.5:0.5",
                                      "--out", "g.csv"])
        assert result.exit_code == 0, result.output
        rows = Path("g.csv").read_text().splitlines()[1:]
    expected = []
    for model in sorted(MODELS):
        for det in (-0.5, 0.0, 0.5):
            for n in _parse_n_range(n_range):
                g_n = 0.02 * math.sqrt(n)
                params = dicke_params(params_for_coupling(1.0 + det, g_n, n))
                expected.append(_format_record(sweep_record(
                    params, model, detuning=det, g_over_omega0=g_n)))
    assert rows == expected
