import dataclasses
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gse import emission
from gse.cli import (
    CSV_HEADER,
    MAX_POINTS,
    _CSV_ROW,
    _CSV_VALUES,
    _OPTIONS,
    _parse_float_range,
    _parse_n_range,
    _write_csv,
    main,
)
from gse.emission import MODELS, sweep_columns, sweep_record
from gse.errors import ConfigurationError
from gse.params import (CHUNK_POINTS, MAX_CUTOFF, SystemParams,
                        dicke_params, params_for_coupling, stack_for_coupling)


@pytest.fixture()
def runner():
    return CliRunner()


def read(path):
    return Path(path).read_bytes()


def test_version_needs_no_installed_metadata(runner):
    # the tests run the package from its source tree, where no
    # distribution metadata names it
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output.rstrip().endswith("version 0.1.0")


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


def test_sweep_deterministic_across_threads(runner, child_env):
    args = ["sweep", "--g", "0.04", "--n", "500",
            "--detuning", "-0.2:0.2:0.02", "--out", "out.csv"]
    with runner.isolated_filesystem():
        assert runner.invoke(main, args).exit_code == 0
        serial = read("out.csv")
        assert runner.invoke(main, args).exit_code == 0
        assert read("out.csv") == serial
        subprocess.run([sys.executable, "-m", "gse.cli", *args], check=True,
                       env=child_env(OPENBLAS_NUM_THREADS="2"))
        assert read("out.csv") == serial


def test_oracle_report_does_not_depend_on_blas_threads(child_env):
    # without gse's default an unset variable means one OpenBLAS thread
    # per CPU, and the ground eigh's last bits follow the count; on a
    # one-CPU host the two runs match either way
    code = ("from gse.oracle import compare_with_oracle; "
            "from gse.params import params_for_coupling; "
            "print(repr(compare_with_oracle("
            "params_for_coupling(0.5, 0.3, 8))))")
    reports = [subprocess.run([sys.executable, "-c", code],
                              env=child_env(**variables), check=True,
                              capture_output=True, text=True).stdout
               for variables in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
    assert reports[0].startswith("OracleReport(")
    assert reports[0] == reports[1]


@pytest.mark.parametrize("variables, threads",
                         [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")],
                         ids=["unset", "explicit"])
def test_import_pins_blas_threads_unless_set(child_env, variables, threads):
    code = "import os, gse; print(os.environ['OPENBLAS_NUM_THREADS'])"
    child = subprocess.run([sys.executable, "-c", code], check=True,
                           env=child_env(**variables), capture_output=True,
                           text=True)
    assert child.stdout == threads + "\n"


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


def test_degenerate_denominator_exits_3(runner):
    # at omega_c = 3 the n = 3 target of the single polaritons is
    # degenerate; no bracket reads that block, but it is still checked
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--model", "fermionic",
                                      "--g", "1e-6", "--detuning", "2",
                                      "--out", "x.csv"])
        assert result.exit_code == 3
        assert result.stderr == (
            "physics error: |E_q - E_beta| = 0 below 1e-09 for target "
            "sector n=3, j=499999.5\n")
        assert not Path("x.csv").exists()


def test_row_error_wins_over_an_unwritable_out(runner):
    # an error in the rows takes precedence over one in the output file
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--model", "fermionic",
                                      "--g", "1e-6", "--detuning", "2",
                                      "--out", "missing/x.csv"])
        assert os.listdir() == []
    assert result.exit_code == 3
    assert result.stderr.startswith("physics error: |E_q - E_beta| = 0")


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


def test_oracle_prints_no_report_when_a_later_point_fails(runner,
                                                         monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solved a point before checking every point")
    monkeypatch.setattr("gse.oracle.compare_with_oracle", solve)
    result = runner.invoke(main, ["oracle", "--n-range", "7:9:3",
                                  "--g", "0.02"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "supports 1..8 electrons, got 9" in result.stderr


def test_oracle_help_states_the_cutoff_rules(runner):
    result = runner.invoke(main, ["oracle", "--help"])
    assert result.exit_code == 0, result.output
    # gse.params holds both numbers, so the help needs no gse.oracle
    assert ("(at most 40, escalates by 4)"
            in " ".join(result.output.split()))


def test_a_call_loads_only_what_it_runs(child_env, tmp_path):
    # gse.oracle serves one command, configparser one flag: neither loads
    # with the command line, each loads once it is used
    def loaded(code):
        code += ("; import sys; print(*(name for name in "
                 "('gse.oracle', 'configparser') if name in sys.modules))")
        return subprocess.run([sys.executable, "-c", code], check=True,
                              env=child_env(), capture_output=True,
                              text=True).stdout.split()

    assert loaded("import gse.cli") == []
    assert loaded("import gse") == []
    assert loaded("from gse import compare_with_oracle") == ["gse.oracle"]
    assert loaded("import gse; gse.compare_with_oracle") == ["gse.oracle"]
    config = tmp_path / "c.ini"
    config.write_text("[sweep]\nmodel = pert\ndetuning = 0\n"
                      "emit_gnuplot = yes\n")
    for args in (["oracle", "--n", "2"],
                 ["sweep", "--config", str(config),
                  "--out", str(tmp_path / "s.csv")]):
        subprocess.run([sys.executable, "-m", "gse.cli", *args], check=True,
                       env=child_env(), capture_output=True)
    assert (tmp_path / "s.csv.gp").is_file()


def test_oracle_overflowing_detuning_exits_2(runner):
    result = runner.invoke(main, ["oracle", "--n", "2", "--detuning", "1e308"])
    assert result.exit_code == 2, result.output
    assert "sector Hamiltonian overflows" in result.stderr


def test_oracle_cutoff_above_cap_exits_2(runner):
    result = runner.invoke(main, ["oracle", "--n", "2", "--photon-cutoff",
                                  str(MAX_CUTOFF + 1)])
    assert result.exit_code == 2, result.output
    assert f"photon_cutoff must be <= {MAX_CUTOFF}" in result.stderr


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


@pytest.mark.parametrize("spelling, exit_code, script", [
    ("maybe", 2, False), ("off", 0, False), ("yes", 0, True)])
def test_config_boolean_spellings(runner, spelling, exit_code, script):
    with runner.isolated_filesystem():
        Path("c.ini").write_text(f"[sweep]\nemit_gnuplot = {spelling}\n")
        result = runner.invoke(main, ["sweep", "--config", "c.ini",
                                      "--model", "pert", "--detuning", "0",
                                      "--out", "s.csv"])
        assert result.exit_code == exit_code, result.output
        assert Path("s.csv.gp").exists() == script
    if exit_code == 2:
        assert "bad config value emit_gnuplot = 'maybe'" in result.stderr


def test_oracle_ignores_lead_keys_in_the_config_file(runner):
    # the report stays that of the default dot level
    with runner.isolated_filesystem():
        Path("f.ini").write_text("[gse]\nomega2_ref = 3\nmu_r = 2.9\n")
        result = runner.invoke(main, ["oracle", "--config", "f.ini"])
    assert result.exit_code == 0, result.output
    assert result.stdout == runner.invoke(main, ["oracle"]).stdout


def test_config_key_the_command_does_not_take_is_ignored(runner):
    with runner.isolated_filesystem():
        Path("c.ini").write_text("[gse]\nn_sites = 3\n")
        assert runner.invoke(main, ["sweep", "--out", "plain.csv"]
                             ).exit_code == 0
        result = runner.invoke(main, ["sweep", "--config", "c.ini",
                                      "--out", "s.csv"])
        assert result.exit_code == 0, result.output
        assert read("s.csv") == read("plain.csv")


@pytest.mark.parametrize("content", [
    None,                       # no such file
    b"[gse]\ng = \xff\n",      # not UTF-8
    b"[gse]\ng = %(foo)s\n",    # interpolates a missing key
], ids=["missing", "not-utf8", "interpolation"])
def test_missing_config_file_exits_2(runner, content):
    with runner.isolated_filesystem():
        if content is not None:
            Path("bad.ini").write_bytes(content)
        result = runner.invoke(main, ["sweep", "--config", "bad.ini"])
        assert result.exit_code == 2, result.output
        assert "configuration error" in result.output


@pytest.mark.parametrize("args, directory", [
    (["sweep", "--out", "missing/x.csv"], None),
    (["spectrum", "--out", "d"], "d"),
    (["spectrum", "--out", "s.csv", "--emit-gnuplot"], "s.csv.gp"),
    pytest.param(["grid", "--n-range", "100:10000:50:log", "--detuning",
                  "-0.5:0.5:0.01", "--out", "/dev/full"], None,
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full")),
], ids=["missing-directory", "onto-a-directory", "gnuplot-onto-a-directory",
        "device-full"])
def test_unwritable_out_exits_2(runner, args, directory):
    with runner.isolated_filesystem():
        if directory is not None:
            os.mkdir(directory)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "cannot write output file" in result.output
        if args[-1] == "/dev/full":
            assert "[Errno 28] No space left on device" in result.output
        # neither file landed, and no temporary file is left
        assert os.listdir() == ([directory] if directory else [])


def test_write_csv_streams_its_rows(tmp_path):
    """The rows reach the file as they are drawn: a 10 MB CSV is never
    held in memory whole."""
    row = "x" * 206
    path = tmp_path / "rows.csv"
    tracemalloc.start()
    try:
        _write_csv(str(path), "header", (row for _ in range(50_000)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    text = path.read_text(encoding="utf-8")
    assert text == "header\n" + (row + "\n") * 50_000
    assert text.count("\n") == 50_001


def test_symlinked_out_keeps_its_link(tmp_path):
    target = tmp_path / "data" / "rows.csv"
    target.parent.mkdir()
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    _write_csv(str(link), "header", iter(["row"]))
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "header\nrow\n"
    assert sorted(os.listdir(tmp_path)) == ["data", "link.csv"]
    assert os.listdir(target.parent) == ["rows.csv"]


def test_fifo_out_is_written_in_place(tmp_path):
    # replaced by a file, the FIFO would never reach its reader
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    _write_csv(str(fifo), "header", iter(["row"]))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == ["header\nrow\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["rows.fifo"]


def test_out_is_written_in_place_without_a_temporary_file(tmp_path,
                                                        monkeypatch):
    # as in a directory that is not writable itself: open() still can
    # write the file, as it did before temporary files
    out = tmp_path / "rows.csv"
    out.write_text("old\n")

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(os, "open", refuse)
    _write_csv(str(out), "header", iter(["row"]))
    assert out.read_text() == "header\nrow\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


@pytest.mark.parametrize("existing", [None, 0o604], ids=["new", "overwrite"])
def test_out_mode_is_what_open_gives(tmp_path, existing):
    reference, out = tmp_path / "reference.csv", tmp_path / "out.csv"
    if existing is not None:
        for path in (reference, out):
            path.write_text("old\n")
            os.chmod(path, existing)
    umask = os.umask(0o027)
    try:
        with open(reference, "w", encoding="utf-8"):
            pass
        _write_csv(str(out), "header", iter([]))
    finally:
        os.umask(umask)
    assert (stat.S_IMODE(os.stat(out).st_mode)
            == stat.S_IMODE(os.stat(reference).st_mode)
            == (existing or 0o640))


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
        assert points[0] == (
            "  detuning=0.0 N=28118: collective coupling g_N=0.503053 >= "
            "sqrt(w0*wc)/2=0.5; lower polariton not real (chi=0.003, "
            "g_n=0.5030526811378705, n_electrons=28118, omega_c=1.0)")
        assert points[-1] == (
            "  detuning=0.0 N=100000: collective coupling g_N=0.948683 >= "
            "sqrt(w0*wc)/2=0.5; lower polariton not real (chi=0.003, "
            "g_n=0.9486832980505139, n_electrons=100000, omega_c=1.0)")
        assert all("g_n=" in line and "omega_c=" in line for line in points)


@pytest.mark.parametrize("args, message", [
    # detuning -1.5 gives omega_c < 0; detuning 0 holds 10 unstable points
    (["--detuning", "-1.5:0:1.5"], "omega_0 and omega_c must be positive"),
    (["--gamma-cav", "1e-9"], "gamma_cav must dominate electron tunneling "
                              "(gamma_cav >= 10*gamma_el)"),
    # every point is unstable; the last two also have chi = inf / sqrt(N)
    (["--chi", "1e305", "--n-range", "1:9007199254740992:5:log"],
     "chi must be finite, got inf"),
], ids=["omega-c", "gamma-cav", "late-invalid-point"])
def test_invalid_point_wins_over_unstable_points(runner, args, message):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["grid", "--n-range", "100:100000:50:log",
                                      *args, "--out", "g.csv"])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"configuration error: {message}\n"
        assert not Path("g.csv").exists()


# (grid flags, exit code, first line of stderr); chunks of 2 and 7 points
# split the failing points over several chunks
SPLIT_ERRORS = [
    (["--n-range", "100:100000:50:log"], 3,
     "physics error: 10 of 50 operating points unstable:"),
    # points 0 and 1 are unstable, the later ones invalid as well
    (["--chi", "1e305", "--n-range", "1:9007199254740992:5:log"], 2,
     "configuration error: chi must be finite, got inf"),
    (["--n-range", "100:100000:50:log", "--detuning", "-1.5:0:1.5"], 2,
     "configuration error: omega_0 and omega_c must be positive"),
    # degenerate throughout: the first detuning alone gives
    # |E_q - E_beta| = 9.99e-11, the whole grid 9.95e-14
    (["--model", "fermionic", "--chi", "1e-7", "--n-range", "5:59:2:log",
      "--detuning", "1.9999999999:2:1e-10"], 3,
     "physics error: |E_q - E_beta| = 9.95e-14 below 1e-09 for target "
     "sector n=3, j=2.0"),
]


@pytest.mark.parametrize("chunk", [2, 7])
@pytest.mark.parametrize("args, code, first", SPLIT_ERRORS,
                         ids=["unstable", "unstable-then-invalid",
                              "invalid-then-unstable", "degenerate"])
def test_chunk_boundaries_keep_the_error_messages(runner, chunk_points, args,
                                                  code, first, chunk):
    with runner.isolated_filesystem():
        whole = runner.invoke(main, ["grid", *args, "--out", "g.csv"])
        chunk_points(chunk)
        split = runner.invoke(main, ["grid", *args, "--out", "g.csv"])
        assert os.listdir() == []
    assert split.exit_code == whole.exit_code == code
    assert split.stderr == whole.stderr
    assert split.stderr.splitlines()[0] == first


def test_chunked_compare_prints_the_same_report(runner, chunk_points):
    args = ["compare", "--n", "1000", "--detuning", "-0.5:0.5:0.001",
            "--tolerance", "1"]
    whole = runner.invoke(main, args)
    chunk_points(7)
    split = runner.invoke(main, args)
    assert split.exit_code == whole.exit_code == 0, whole.output
    assert split.stdout == whole.stdout


@pytest.mark.parametrize("flags, raw", [([], False), (["--raw-dicke"], True)],
                         ids=["renormalized", "raw-dicke"])
def test_chunked_rows_equal_one_whole_stack(runner, flags, raw):
    # 31 detunings x 100 electron numbers: three full chunks and a partial
    # one, against one sweep_columns call per model over the whole stack
    n_range, detunings = "100:10000:100:log", "-0.3:0.3:0.02"
    det = np.repeat(_parse_float_range(detunings, "d"), 100)
    n = np.tile(_parse_n_range(n_range), 31)
    assert 3 * CHUNK_POINTS < len(n) < 4 * CHUNK_POINTS
    g_n = 3e-3 * np.sqrt(n)
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["grid", "--chi", "3e-3", "--n-range",
                                      n_range, "--detuning", detunings,
                                      *flags, "--out", "g.csv"])
        assert result.exit_code == 0, result.output
        rows = Path("g.csv").read_text().splitlines()[1:]
    stack = stack_for_coupling(det, g_n, n, raw=raw)
    expected = []
    for model in sorted(MODELS):
        columns = sweep_columns(stack, model)
        table = np.stack([columns[name] for name in _CSV_VALUES], axis=-1)
        expected += [_CSV_ROW % (model, *point, *row) for point, row in
                     zip(zip(det.tolist(), g_n.tolist(), n.tolist()),
                         table.tolist())]
    assert rows == expected


def _nan_beyond(tier, omega_c):
    """``tier`` with a NaN rate_plus wherever omega_c exceeds ``omega_c``."""
    def patched(points):
        values = list(tier(points))
        values[2] = np.where(points.omega_c > omega_c, np.nan, values[2])
        return tuple(values)
    return patched


@pytest.mark.parametrize("existing", [False, True],
                         ids=["no-files", "existing-files"])
def test_failure_in_a_later_chunk_leaves_the_outputs_alone(
        runner, monkeypatch, chunk_points, existing):
    # 5 detunings x 4 electron numbers in 5 chunks; full fails in chunks 4
    # and 5 (detunings 0.3, 0.4), pert from chunk 2 on, but full comes
    # first in sorted order and raises, counting both its chunks
    chunk_points(4)
    monkeypatch.setattr(emission, "full_tier",
                        _nan_beyond(emission.full_tier, 1.25))
    monkeypatch.setattr(emission, "pert_tier",
                        _nan_beyond(emission.pert_tier, 1.05))
    old = {"g.csv": b"old rows\n", "g.csv.gp": b"old script\n"}
    with runner.isolated_filesystem():
        if existing:
            for name, content in old.items():
                Path(name).write_bytes(content)
        result = runner.invoke(main, ["grid", "--n-range", "2:5:4",
                                      "--detuning", "0:0.4:0.1",
                                      "--emit-gnuplot", "--out", "g.csv"])
        left = {name: read(name) for name in os.listdir()}
    assert result.exit_code == 2, result.output
    assert result.stderr == (
        "configuration error: model full gives non-finite values at 8 of 20 "
        "operating points (inputs out of numerical range)\n")
    assert left == (old if existing else {})


def test_large_grid_holds_one_chunk_of_columns(runner):
    # 20,000 detunings: the stack (96 B a point), its coordinates (24 B)
    # and the compared rates (48 B) stay, the rest is one chunk's, about
    # 4.5 MB in all; every model's columns at once, as with the whole
    # grid in one chunk, would be about 19 MB
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["compare", "--n", "1000", "--detuning",
                                      "-0.5:0.49995:0.00005",
                                      "--tolerance", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert peak < 6_000_000


# a numpy RuntimeWarning on the way would be an error here (pytest turns
# warnings into errors) and leave exit code 1
@pytest.mark.parametrize("args, message", [
    (["--g", "1e-150", "--detuning", "1e300"],
     "model full gives non-finite values at 1 of 1 operating points"),
    (["--omega2-ref", "1e308", "--mu-r", "1e307"],
     "model fermionic gives non-finite values at 101 of 101 operating "
     "points"),
    # omega_c = 1e-10: lambda_minus cancels to 0 against omega_0
    (["--model", "full", "--n", "2", "--g", "1e-50",
      "--detuning=-0.9999999999"],
     "model full gives non-finite values at 1 of 1 operating points"),
    # omega_c = 1e17: the lower RWA frequency rounds to 0 and beta_mm is
    # infinite, which is no first-order amplitude to warn about
    (["--model", "pert", "--g", "1e-3", "--n", "1000", "--detuning", "1e17"],
     "model pert gives non-finite values at 1 of 1 operating points"),
], ids=["full", "fermionic", "full-lambda-minus-cancels",
        "pert-beta-infinite"])
def test_out_of_range_sweep_exits_2_without_numpy_warnings(runner, args,
                                                          message):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", *args, "--out", "x.csv"])
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"configuration error: {message} "
                                 "(inputs out of numerical range)\n")
        assert not Path("x.csv").exists()


# g^2 underflows here; pert is no reference, because its weight_p at
# detuning -0.1 is cos(pi/2) = 3.7e-33
@pytest.mark.parametrize("g", ["1e-200", "1e-300"])
def test_full_equals_fermionic_at_tiny_coupling(runner, g):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--g", g, "--detuning",
                                      "-0.1:0.1:0.2", "--out", "x.csv"])
        assert result.exit_code == 0, result.output
        rows = [line.split(",", 1) for line
                in Path("x.csv").read_text().splitlines()[1:]]
    values = {model: [rest for name, rest in rows if name == model]
              for model in ("full", "fermionic")}
    assert len(values["full"]) == 2
    assert values["full"] == values["fermionic"]


def test_non_finite_detuning_exits_2(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["sweep", "--detuning", "nan",
                                      "--out", "x.csv"])
        assert result.exit_code == 2
        assert "must be finite" in result.stderr


# (id suffix, flags, raw, SystemParams overrides) of the grid below
GRID_SETTINGS = [
    ("", [], False, {}),
    ("-raw-dicke", ["--raw-dicke"], True, {}),
    ("-overrides",
     ["--gamma-dark-plus", "0.01", "--mu-l", "2.0", "--omega2-ref", "6"],
     False, {"gamma_dark_plus": 0.01, "mu_l": 2.0, "omega_2_ref": 6.0}),
]


@pytest.mark.parametrize(
    "n_range, flags, raw, overrides",
    [(n_range, *setting[1:]) for n_range in ("2:12:11:lin", "100:100:1")
     for setting in GRID_SETTINGS],
    ids=[n_range + setting[0] for n_range in ("2:12:11:lin", "100:100:1")
         for setting in GRID_SETTINGS])
def test_grid_rows_equal_single_point_records(runner, n_range, flags, raw,
                                              overrides):
    # clamped subspace dimensions (N = 2, 3) and the full ones share one
    # batch; every row must match the one-point evaluation bit for bit
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["grid", "--chi", "0.02",
                                      "--n-range", n_range,
                                      "--detuning", "-0.5:0.5:0.5",
                                      *flags, "--out", "g.csv"])
        assert result.exit_code == 0, result.output
        rows = Path("g.csv").read_text().splitlines()[1:]
    expected = []
    for model in sorted(MODELS):
        for det in (-0.5, 0.0, 0.5):
            for n in _parse_n_range(n_range):
                g_n = 0.02 * math.sqrt(n)
                params = dicke_params(params_for_coupling(
                    1.0 + det, g_n, n, **overrides), raw)
                r = sweep_record(params, model)
                # the CSV keeps the requested bare coordinates
                expected.append(_CSV_ROW % (
                    model, det, g_n, n, r.rate_plus, r.rate_minus,
                    r.gse_rate, r.flux_plus, r.flux_minus, r.gse_flux,
                    r.weight_plus, r.weight_minus, r.tot_plus, r.tot_minus,
                    r.tot_rate))
    assert rows == expected


# Every option of every command, pinned so that a new knob shows up in
# review.  ``oracle`` takes none of the system settings: its exact
# Hamiltonian has no loss and no diamagnetic term, and the strengths it
# compares are not gated by the leads.
SYSTEM_OPTIONS = {"--config", "--omega2-ref", "--mu-l", "--mu-r",
                  "--gamma-cav", "--gamma-dark-plus", "--gamma-dark-minus"}
COMMAND_OPTIONS = {
    "sweep": SYSTEM_OPTIONS | {"--raw-dicke", "--model", "--g", "--chi",
                               "--n", "--detuning", "--out",
                               "--emit-gnuplot"},
    "grid": SYSTEM_OPTIONS | {"--raw-dicke", "--model", "--chi",
                              "--n-range", "--detuning", "--out",
                              "--emit-gnuplot"},
    "compare": SYSTEM_OPTIONS | {"--raw-dicke", "--g", "--chi", "--n",
                                 "--detuning", "--tolerance", "--out"},
    "oracle": {"--config", "--n", "--n-range", "--g", "--detuning",
               "--photon-cutoff"},
    "spectrum": SYSTEM_OPTIONS | {"--raw-dicke", "--model", "--g", "--chi",
                                  "--n", "--detuning", "--points", "--out",
                                  "--emit-gnuplot"},
}


def test_each_command_takes_exactly_its_options():
    assert set(main.commands) == set(COMMAND_OPTIONS)
    for name, command in main.commands.items():
        flags = [flag for param in command.params for flag in param.opts]
        assert sorted(flags) == sorted(COMMAND_OPTIONS[name]), name
    assert sum(len(c.params) for c in main.commands.values()) == 65


def test_every_option_is_taken_and_names_a_field():
    taken = {param.name for command in main.commands.values()
             for param in command.params}
    assert set(_OPTIONS) <= taken
    fields = {field.name for field in dataclasses.fields(SystemParams)}
    assert {option.field for option in _OPTIONS.values()
            if option.field} <= fields


# Flags no command takes, because they would change no value it checks:
# the oracle's system settings (the dot level only shifts its absolute
# ground energy), the site count everywhere, and compare --model.
REMOVED_FLAGS = [
    (["oracle", "--n", "2", "--raw-dicke"], "--raw-dicke"),
    (["oracle", "--n", "2", "--omega2-ref", "6"], "--omega2-ref"),
    (["oracle", "--n", "2", "--mu-l", "1"], "--mu-l"),
    (["oracle", "--n", "2", "--mu-r", "4"], "--mu-r"),
    (["oracle", "--n", "2", "--gamma-cav", "0.05"], "--gamma-cav"),
    (["oracle", "--n", "2", "--gamma-dark-plus", "0"], "--gamma-dark-plus"),
    (["oracle", "--n", "2", "--gamma-dark-minus", "0"], "--gamma-dark-minus"),
    *(([command, "--n-sites", "3000000"], "--n-sites")
      for command in sorted(COMMAND_OPTIONS)),
    (["compare", "--model", "all"], "--model"),
]


@pytest.mark.parametrize(
    "args, flag", REMOVED_FLAGS,
    ids=[f"{args[0]}-{flag[2:]}" for args, flag in REMOVED_FLAGS])
def test_oracle_rejects_raw_dicke(runner, args, flag):
    with runner.isolated_filesystem():
        result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert flag in result.output


def _first_row(path):
    return Path(path).read_text().splitlines()[1].split(",")


# (command, fixed flags, config key, config value, flag value, what the
# run shows of the value); test_config_file_supplies_defaults_and_flags_win
# covers sweep
CONFIG_CASES = [
    ("grid", ["--model", "pert", "--out", "o.csv"],
     "n_range", "100:100:1", "200:200:1",
     lambda result: int(_first_row("o.csv")[3])),
    ("compare", ["--n", "100000", "--detuning", "0"],
     "tolerance", "0.25", "0.5",
     lambda result: float(result.output.split("within tolerance ")[1])),
    ("spectrum", ["--out", "o.csv"], "points", "11", "21",
     lambda result: len(Path("o.csv").read_text().splitlines()) - 1),
    ("oracle", ["--n", "2"], "photon_cutoff", "16", "20",
     lambda result: int(result.output.split("cutoff=")[1].split()[0])),
]


@pytest.mark.parametrize("command, fixed, key, in_config, in_flag, shown",
                         CONFIG_CASES, ids=[c[0] for c in CONFIG_CASES])
def test_config_value_reaches_command_and_flag_beats_it(
        runner, command, fixed, key, in_config, in_flag, shown):
    with runner.isolated_filesystem():
        Path("c.ini").write_text(f"[{command}]\n{key} = {in_config}\n")
        result = runner.invoke(main, [command, "--config", "c.ini"] + fixed)
        assert result.exit_code == 0, result.output
        from_config = shown(result)
        flag = "--" + key.replace("_", "-")
        result = runner.invoke(main, [command, "--config", "c.ini", flag,
                                      in_flag] + fixed)
        assert result.exit_code == 0, result.output
        from_flag = shown(result)
    assert from_config == pytest.approx(float(in_config.split(":")[0]))
    assert from_flag == pytest.approx(float(in_flag.split(":")[0]))


@pytest.mark.parametrize("args", [
    ["compare", "--g", "0.05", "--chi", "1e-4", "--out", "x.csv"],
    ["spectrum", "--g", "0.05", "--chi", "1e-4", "--out", "x.csv"],
    ["oracle", "--n", "2", "--n-range", "2:3:2"],
])
def test_both_members_of_a_pair_as_flags_exit_2(runner, args):
    # test_sweep_rejects_both_couplings covers sweep
    with runner.isolated_filesystem():
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "not both" in result.stderr
        assert not Path("x.csv").exists()


@pytest.mark.parametrize("command, config", [
    ("sweep", "g = 0.05\nchi = 1e-4\n"),
    ("oracle", "n = 3\nn_range = 2:4:3\n"),
])
def test_both_members_of_a_pair_in_config_exit_2(runner, command, config):
    with runner.isolated_filesystem():
        Path("c.ini").write_text("[gse]\n" + config)
        result = runner.invoke(main, [command, "--config", "c.ini"])
        assert result.exit_code == 2
        assert "in the config file, not both" in result.stderr


def test_coupling_flag_hides_the_other_coupling_in_config(runner):
    with runner.isolated_filesystem():
        Path("c.ini").write_text("[sweep]\ng = 0.1\n")
        result = runner.invoke(main, ["sweep", "--config", "c.ini",
                                      "--chi", "1e-4", "--n", "100",
                                      "--model", "pert", "--detuning", "0",
                                      "--out", "o.csv"])
        assert result.exit_code == 0, result.output
        assert float(_first_row("o.csv")[2]) == pytest.approx(1e-3)


@pytest.mark.parametrize("config, flags, shown", [
    ("n = 3\n", ["--n-range", "2:2:1"], [2]),
    ("n_range = 2:4:3\n", ["--n", "3"], [3]),
])
def test_electron_number_flag_hides_the_other_in_config(runner, config,
                                                        flags, shown):
    with runner.isolated_filesystem():
        Path("c.ini").write_text("[oracle]\n" + config)
        result = runner.invoke(main, ["oracle", "--config", "c.ini"] + flags)
        assert result.exit_code == 0, result.output
        reported = [int(line.split()[0][2:]) for line in
                    result.output.splitlines() if line.startswith("N=")]
        assert reported == shown


@pytest.mark.parametrize("args", [
    ["sweep", "--n", "0"],
    ["sweep", "--chi", "0.01", "--n", "-1"],
    ["compare", "--chi", "0.01", "--n", "-1"],
    ["spectrum", "--chi", "0.01", "--n", "-1"],
    ["oracle", "--n", "-5"],
    ["oracle", "--n", "0"],
    None,
], ids=["sweep-0", "sweep-chi", "compare-chi", "spectrum-chi", "oracle-neg",
        "oracle-0", "params_for_coupling"])
def test_electron_number_below_one_is_a_configuration_error(runner, args):
    if args is None:
        with pytest.raises(ConfigurationError, match="n_electrons >= 1"):
            params_for_coupling(1.0, 0.05, 0)
        return
    with runner.isolated_filesystem():
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "N must be at least 1" in result.stderr


@pytest.mark.parametrize("args, message", [
    (["sweep", "--detuning", "0:1e-300:1e-310"],
     f"has more than {MAX_POINTS} points"),
    (["grid", "--n-range", "1:10:100000000000"],
     f"has more than {MAX_POINTS} points"),
    (["grid", "--n-range", "100:1099:1000:lin", "--detuning", "0:0.1:0.0001"],
     f"1001 detunings x 1000 electron numbers exceed {MAX_POINTS}"),
    (["spectrum", "--points", "10000000000"], f"at most {MAX_POINTS}"),
    (["sweep", "--detuning", "nan:1:0.1"], "must be finite"),
    (["sweep", "--detuning", "0:inf:0.1"], "must be finite"),
    (["grid", "--n-range", "1:100000000000000000000000:3"],
     "ends above 2**53"),
    (["sweep", "--n", "100000000000000000000000", "--detuning", "0"],
     "at most 2**53"),
    (["compare", "--tolerance", "nan"], "tolerance must be finite"),
    (["compare", "--tolerance", "inf"], "tolerance must be finite"),
    (["spectrum", "--gamma-cav", "1e154"], "overflows the Lorentzian"),
    (["spectrum", "--gamma-cav", "1e155"], "overflows the Lorentzian"),
    # the grid's span itself overflows
    (["spectrum", "--gamma-cav", "1e307"], "overflows the Lorentzian"),
    # a step below the float spacing at 1e9 (1.2e-7) repeats detunings
    (["grid", "--model", "pert", "--n-range", "100:200:2",
      "--detuning", "1e9:1000000000.0000002:0.00000005"],
     "repeats the sample 1000000000.0"),
], ids=["detuning", "n-range", "product", "spectrum-points", "nan", "inf",
        "grid-n-beyond-float", "sweep-n-beyond-float", "tolerance-nan",
        "tolerance-inf", "gamma-cav-1e154", "gamma-cav-1e155",
        "gamma-cav-1e307",
        "sub-resolution-step"])
def test_oversized_requests_exit_2_before_allocating(runner, args, message):
    with runner.isolated_filesystem():
        result = runner.invoke(main, args + ["--out", "x.csv"])
        assert result.exit_code == 2, result.output
        assert message in result.stderr
        assert not Path("x.csv").exists()


def test_point_limit_is_inclusive():
    assert len(_parse_float_range("0:0.999999:0.000001", "d")) == MAX_POINTS
    with pytest.raises(ConfigurationError):
        _parse_float_range("0:1:0.000001", "d")


def test_step_of_one_float_spacing_is_kept():
    # the float spacing at 1e9 is 1.2e-7; a step that reaches the next
    # float gives distinct samples (sub-resolution-step above does not)
    samples = _parse_float_range("1e9:1000000000.0000002:0.0000002", "d")
    assert samples.tolist() == [1e9, 1000000000.0000002]


# ------------------------------------------------ the input contract, fuzzed

def any_float():
    """Magnitudes log-uniform over the whole float range, either sign, and
    0, -0, +-inf and NaN."""
    return st.one_of(
        st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan)),
        st.builds(lambda sign, mantissa, exponent:
                  sign * math.ldexp(mantissa, exponent),
                  st.sampled_from((1.0, -1.0)),
                  st.floats(1.0, 2.0, exclude_max=True),
                  st.integers(-1074, 1023)))


def assert_contract(result, codes):
    """A documented exit code, never 1, and no exception escaping."""
    assert result.exit_code in codes, result.output
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), result.output
    assert "Traceback" not in result.output


CONTRACT = settings(max_examples=300, derandomize=True, deadline=None)


@CONTRACT
@given(any_float(), any_float(), st.lists(st.integers(1, 4), min_size=2,
                                         max_size=2).map(sorted),
       st.integers(1, 4))
def test_oracle_keeps_its_exit_codes_on_any_input(g, detuning, n_bounds,
                                                  count):
    start, stop = n_bounds
    result = CliRunner().invoke(main, [
        "oracle", f"--g={g!r}", f"--detuning={detuning!r}",
        f"--n-range={start}:{stop}:{count}"])
    assert_contract(result, {0, 2, 3, 5})
    if result.exit_code == 0:
        for line in result.stdout.splitlines():
            cells = line.split()
            if cells[0].startswith("N="):  # N, cutoff, g, E0, residual
                values = [float(cell.split("=")[1]) for cell in cells]
                assert values[-1] >= 0.0
            elif cells[0] != "label" and not line.startswith("max"):
                values = [float(cell) for cell in cells[1:]]
                assert min(values[2:]) >= 0.0  # strengths and error
            else:
                continue
            assert all(math.isfinite(value) for value in values), line


def assert_rate_rows(path):
    """Every value of a sweep or grid CSV finite, and the rates, fluxes,
    weights and tot_+- non-negative; returns the rows."""
    rows = Path(path).read_text().splitlines()[1:]
    for row in rows:
        cells = [float(cell) for cell in row.split(",")[1:]]
        assert all(math.isfinite(value) for value in cells[:3]), row
        assert all(0.0 <= value < math.inf for value in cells[3:]), row
    return rows


@pytest.mark.parametrize("model", MODELS)
@CONTRACT
@given(any_float(), any_float(),
       st.one_of(st.integers(0, 10), st.integers(0, 2**53 + 1)))
# omega_c = 1e17: pert's infinite beta_mm warned before it was rejected
@example(g=1e-3, detuning=1e17, n=1000)
def test_sweep_keeps_its_exit_codes_on_any_input(model, g, detuning, n):
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(main, [
            "sweep", f"--model={model}", f"--g={g!r}",
            f"--detuning={detuning!r}", f"--n={n}", "--out", "rows.csv"])
        assert_contract(result, {0, 2, 3})
        if result.exit_code == 0:
            assert len(assert_rate_rows("rows.csv")) == 1


@CONTRACT
@given(any_float(), any_float(),
       st.lists(st.integers(-1, 2**53 + 1), min_size=2,
                max_size=2).map(sorted),
       st.integers(0, 3))
def test_grid_keeps_its_exit_codes_on_any_input(chi, detuning, n_bounds,
                                                count):
    start, stop = n_bounds
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(main, [
            "grid", f"--chi={chi!r}", f"--detuning={detuning!r}",
            f"--n-range={start}:{stop}:{count}", "--out", "rows.csv"])
        assert_contract(result, {0, 2, 3})
        if result.exit_code == 0:
            assert 3 <= len(assert_rate_rows("rows.csv")) <= 9


@CONTRACT
@given(any_float(), any_float(),
       st.one_of(st.integers(0, 10), st.integers(0, 2**53 + 1)),
       st.one_of(st.none(), any_float()))
def test_compare_keeps_its_exit_codes_on_any_input(g, detuning, n,
                                                   tolerance):
    args = ["compare", f"--g={g!r}", f"--detuning={detuning!r}", f"--n={n}"]
    if tolerance is not None:
        args.append(f"--tolerance={tolerance!r}")
    result = CliRunner().invoke(main, args)
    assert_contract(result, {0, 2, 3, 4})
    if result.exit_code in (0, 4):
        # 'a vs b: max X mean Y' per pair, then on exit 0
        # 'max deviation X within tolerance Y'
        lines = result.stdout.splitlines()
        assert len(lines) == (4 if result.exit_code == 0 else 3)
        for line in lines:
            cells = line.split()
            values = [float(cells[i]) for i in
                      ((4, 6) if cells[1] == "vs" else (2, 5))]
            assert all(0.0 <= value < math.inf for value in values), line


@pytest.mark.parametrize("model", MODELS)
@CONTRACT
@given(any_float(), st.one_of(st.none(), any_float()),
       st.one_of(st.none(), any_float()))
def test_spectrum_keeps_its_exit_codes_on_any_input(model, gamma_cav, g,
                                                    detuning):
    # g and the detuning also keep their defaults, where the width alone
    # decides the exit code
    args = ["spectrum", f"--model={model}", f"--gamma-cav={gamma_cav!r}",
            "--points", "5", "--out", "spectrum.csv"]
    for flag, value in (("--g", g), ("--detuning", detuning)):
        if value is not None:
            args.append(f"{flag}={value!r}")
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(main, args)
        assert_contract(result, {0, 2, 3})
        if result.exit_code == 0:
            rows = Path("spectrum.csv").read_text().splitlines()[1:]
            assert len(rows) == 5
            for row in rows:  # omega may be negative, intensity not
                omega, intensity = (float(cell) for cell in row.split(","))
                assert math.isfinite(omega), row
                assert 0.0 <= intensity < math.inf, row


# The documented exit codes of each command.
EXIT_CODES = {"sweep": {0, 2, 3}, "grid": {0, 2, 3}, "compare": {0, 2, 3, 4},
              "oracle": {0, 2, 3, 5}, "spectrum": {0, 2, 3}}

# Boolean spellings configparser takes, and some it does not.
BOOLEAN_SPELLINGS = ("1", "yes", "TRUE", "on", "0", "No", "false", "off",
                     "", "2", "maybe", "tru")


def config_file(command):
    """The text of an INI file of two sections, each setting up to four
    of the command's keys in the '_' or '-' spelling: booleans spelled
    validly or not, every other value any float or an interpolation
    marker."""
    def line(key):
        if _OPTIONS[key].type is bool:
            value = st.sampled_from(BOOLEAN_SPELLINGS)
        else:
            value = st.one_of(any_float().map(repr),
                              st.sampled_from(("%(", "%(g)s")))
        return st.tuples(st.just(key),
                         st.sampled_from((key, key.replace("_", "-"))), value)

    keys = sorted(flag[2:].replace("-", "_")
                  for flag in COMMAND_OPTIONS[command] - {"--config"})
    section = st.tuples(st.sampled_from((command, "gse", "DEFAULT")),
                        st.lists(st.one_of(*map(line, keys)), max_size=4,
                                 unique_by=lambda line: line[0]))
    return st.tuples(section, section).map(lambda sections: "".join(
        f"[{name}]\n" + "".join(f"{spelling} = {value}\n"
                                for _, spelling, value in lines)
        for name, lines in sections))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.one_of(*(st.tuples(st.just(command), config_file(command))
                   for command in sorted(EXIT_CODES))))
def test_config_file_keeps_the_exit_codes(case):
    command, text = case
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("c.ini").write_text(text)
        result = runner.invoke(main, [command, "--config", "c.ini"])
    assert_contract(result, EXIT_CODES[command])
