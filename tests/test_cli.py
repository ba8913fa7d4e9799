import functools
import inspect
import math
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcorr import (
    DeformationSpec,
    DomainError,
    NumericError,
    WMatrix,
    concurrence_gwl_analytic,
    concurrence_pure,
    concurrence_werner,
    eof_from_concurrence,
    eof_werner,
    gwl,
    overlap,
    qd_gwl,
    qd_gwl_analytic,
    qd_numeric,
    qd_werner,
    werner,
)
from qcorr import cli
from qcorr import deformed as deformed_module
from qcorr import discord as discord_module
from qcorr import linalg as linalg_module
from qcorr.cli import UsageError, _bisect, _diagonal_wmatrix, csv_text, main, p_grid
from qcorr.deformed import MAX_NMAX, select_nmax
from qcorr.linalg import check_range
from qcorr.states import EXCHANGE, GWL_RANGE, WERNER_RANGE, pure_density


def wmatrix_text(psi):
    # the --wmatrix format: four complex tokens, row-major, each a repr
    return " ".join(repr(z) for z in psi.ket.tolist())


def test_p_grid():
    assert p_grid(0.0, 1.0, 0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]
    grid = p_grid(-1.0, 1.0 / 3.0, 0.01)
    assert len(grid) == 134
    assert grid[0] == -1.0
    assert abs(grid[-1] - 0.33) < 1e-12  # stays at or below the stop value
    assert p_grid(0.5, 0.5, 0.1) == [0.5]
    with pytest.raises(UsageError):
        p_grid(0.0, 1.0, 0.0)
    with pytest.raises(UsageError):
        p_grid(1.0, 0.0, 0.1)


def test_p_grid_caps_the_point_count(capsys):
    # about 2e6 points: the count is refused before any list is built
    with pytest.raises(UsageError, match="more than 1000000 grid points"):
        p_grid(0.0, 1.0, 5e-7)
    assert len(p_grid(0.0, 1.0, 1.0 / 999999.0)) == cli.MAX_GRID_POINTS
    assert main(["sweep", "--kind", "werner", "--p-step", "5e-7"]) == 1
    assert "grid points" in capsys.readouterr().err


def _listcomp_p_grid(start, stop, step):
    # frozen copy of p_grid's point list as a list comprehension, before numpy built it
    last = (stop - start) / step + 1e-9
    return [start + i * step for i in range(int(math.floor(last)) + 1)]


# analytic-sweep's 10,001-row GWL grid: a dyadic step, ending exactly at p = 1
ANALYTIC_SWEEP_GRID = (1.0 - 10000 * 16 * 2.0**-17, 1.0, 16 * 2.0**-17)


@pytest.mark.parametrize(
    "grid",
    [
        (-0.7, 0.3, 0.0003),
        (0.0, 1.0, 0.3),
        (0.1, 0.1, 0.01),
        ANALYTIC_SWEEP_GRID,
        (0.0, 1.0, 1.0 / 999999.0),
    ],
    ids=["negative-start", "uneven-step", "one-point", "analytic-sweep", "max-points"],
)
def test_p_grid_equals_the_list_comprehension(grid):
    ps = p_grid(*grid)
    assert ps == _listcomp_p_grid(*grid)
    assert all(type(x) is float for x in ps)


def test_grid_without_oracle_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # only the oracle reads --grid; the check runs before any state is built
    def no_state(*args, **kwargs):
        raise AssertionError("a state was built for --grid without --oracle")

    for name in ("werner", "gwl", "overlap"):
        monkeypatch.setattr(cli, name, no_state)
    monkeypatch.chdir(tmp_path)  # w.txt does not exist
    states = (
        ["--kind", "werner"],
        ["--kind", "gwl", "--wmatrix", "w.txt"],
        ["--kind", "deformed", "--family", "harmonic", "--nmax", "9", "--alpha", "1"],
    )
    for command in (["sweep", "--p-step", "0.5"], ["state-info", "--p", "0.2"]):
        for state in states:
            for grid in ("9", "5000"):
                assert main(command + state + ["--grid", grid]) == 1, (command, state, grid)
                out, err = capsys.readouterr()
                assert out == "" and err == "usage error: --grid applies only with --oracle\n"


# ROADMAP's near-pole GWL states, W = [[0.8, eps e^(i a)], [0, 0.6]] normalized,
# as a --wmatrix file: the optimum lies within about eps of +-z
NEAR_POLE_WMATRICES = {
    "eps-5e-3": "0.7999900001874961+0j 0.004999937501171851j 0j 0.599992500140622+0j\n",
    "eps-5e-4": "(0.7999999000000189+0j) (0.00024999996875000593+0.0004330126477656417j) 0j "
    "(0.5999999250000141+0j)\n",
}


@pytest.mark.parametrize("name", sorted(NEAR_POLE_WMATRICES))
def test_oracle_passes_on_near_pole_states(name, tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text(NEAR_POLE_WMATRICES[name])
    assert main(["verify", "--kind", "gwl", "--wmatrix", str(path)]) == 0
    assert capsys.readouterr().out.endswith("\nPASS\n")
    assert main(["sweep", "--kind", "gwl", "--wmatrix", str(path), "--oracle", "--p-step", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3 and all(float(line.split(",")[4]) < 1e-12 for line in lines[1:])


def test_oracle_grid_flag_is_capped(monkeypatch, capsys):
    # an oversized --grid is refused before any direction grid is built
    def no_grid(grid_n):
        raise AssertionError("the direction grid was built for grid_n=%d" % grid_n)

    monkeypatch.setattr(discord_module, "_direction_grid", no_grid)
    for argv in (
        ["state-info", "--kind", "werner", "--p", "-0.5", "--oracle", "--grid", "1000000"],
        ["sweep", "--kind", "werner", "--p-step", "0.5", "--oracle", "--grid", "1001"],
        ["verify", "--kind", "werner", "--p-step", "0.5", "--grid", "1001"],
    ):
        assert main(argv) == 1
        assert "grid_n must be an integer in [8, 1000]" in capsys.readouterr().err


def test_csv_text():
    text = csv_text({"p": [0.5], "eof": [0.25], "qd_analytic": [0.125]})
    assert text == "p,eof,qd_analytic\n0.5,0.25,0.125\n"
    columns = {"p": [0.1], "eof": [0.2], "qd_analytic": [0.3]}
    columns.update(qd_numeric=[0.4], residual=[0.5], concurrence=[0.6])
    text = csv_text(columns)
    lines = text.splitlines()
    assert lines[0] == "p,eof,qd_analytic,qd_numeric,residual,concurrence"
    assert lines[1] == "0.1,0.2,0.3,0.4,0.5,0.6"
    assert text.endswith("\n") and "\r" not in text
    # floats print with round-trip precision
    third = 1.0 / 3.0
    text = csv_text({"p": [third], "eof": [third], "qd_analytic": [third]})
    assert float(text.splitlines()[1].split(",")[0]) == third


def _rowwise_csv_text(columns):
    # frozen copy of csv_text as it formatted one row at a time
    lines = [",".join(columns)]
    lines += (",".join(map(repr, row)) for row in zip(*columns.values()))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [
    0.0, 1e-05, 9.999999999999999e-05, 0.0001, 1e16, 1e22, 5e-324,
    2.2250738585072014e-308, 1.0 / 3.0, -0.5, 1.0,
]
SIX_COLUMNS = ("p", "eof", "qd_analytic", "qd_numeric", "residual", "concurrence")


def _sweep_args(argv):
    return cli.build_parser().parse_args(["sweep", *argv])


def test_csv_text_equals_the_row_wise_reference():
    cases = [{name: EDGE_FLOATS[i:] + EDGE_FLOATS[:i] for i, name in enumerate(SIX_COLUMNS)}]
    for rows in (1, 2):
        for width in (3, 6):
            cases.append({name: EDGE_FLOATS[i : i + rows] for i, name in enumerate(SIX_COLUMNS[:width])})
    start, stop, step = ANALYTIC_SWEEP_GRID
    args = _sweep_args(["--kind", "gwl", "--concurrence", "0.5", "--p-start", repr(start),
                        "--p-stop", repr(stop), "--p-step", repr(step)])
    cases.append(cli.compute_rows(args, args.oracle, args.tol))
    assert len(cases[-1]["p"]) == 10001
    for columns in cases:
        assert csv_text(columns) == _rowwise_csv_text(columns)
    # repr's shortest round-trip form, exponents included
    assert csv_text({"p": [1e-05], "eof": [1e22]}) == "p,eof\n1e-05,1e+22\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "werner"],
        ["--kind", "gwl", "--concurrence", "0.5"],
        ["--kind", "deformed", "--family", "poschl-teller", "--N", "10", "--nmax", "9",
         "--alpha", "0.65", "--deformed-kind", "A"],
    ],
    ids=["werner", "gwl", "deformed"],
)
@pytest.mark.parametrize("oracle", [False, True], ids=["analytic", "oracle"])
def test_sweep_columns_hold_python_floats(argv, oracle):
    # a numpy scalar would print as np.float64(...) through repr
    argv = argv + ["--p-step", "0.25"] + (["--oracle", "--grid", "16"] if oracle else [])
    args = _sweep_args(argv)
    columns = cli.compute_rows(args, args.oracle, args.tol)
    assert len(columns) == (6 if oracle else 3)
    for name, column in columns.items():
        assert type(column) is list and column, name
        assert all(type(x) is float for x in column), name


def test_sweep_prints_the_golden_csv(capsys):
    # checked in from the row-wise formatter: 134 rows of the default GWL grid
    golden = (Path(__file__).parent / "data" / "sweep_gwl_c05.csv").read_bytes()
    assert main(["sweep", "--kind", "gwl", "--concurrence", "0.5"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden
    assert golden.count(b"\n") == 135


def test_diagonal_wmatrix():
    for c in (0.0, 0.25, 0.5, 1.0):
        psi = _diagonal_wmatrix(c)
        assert abs(concurrence_pure(psi) - c) < 1e-15
        assert psi.matrix[0, 1] == 0.0 and psi.matrix[1, 0] == 0.0
    with pytest.raises(UsageError):
        _diagonal_wmatrix(1.2)
    with pytest.raises(UsageError):
        _diagonal_wmatrix(-0.1)


def test_sweep_werner_to_file(tmp_path):
    out = tmp_path / "werner.csv"
    assert main(["sweep", "--kind", "werner", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,eof,qd_analytic"
    assert len(lines) == 135  # header plus the inclusive default grid
    ps = [float(line.split(",")[0]) for line in lines[1:]]
    assert ps[0] == -1.0
    assert abs(ps[-1] - 1.0 / 3.0) < 0.01
    assert all(b > a for a, b in zip(ps, ps[1:]))
    for line in lines[1:10]:
        p, eof, qd = (float(tok) for tok in line.split(","))
        assert abs(eof - eof_werner(p)) < 1e-15
        assert abs(qd - qd_werner(p)) < 1e-15


def test_sweep_gwl_concurrence_stdout(capsys):
    rc = main(
        ["sweep", "--kind", "gwl", "--concurrence", "0.5", "--p-start", "0.0", "--p-stop", "0.1", "--p-step", "0.05"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,eof,qd_analytic"
    assert len(lines) == 4
    psi = _diagonal_wmatrix(0.5)
    for line in lines[1:]:
        p, eof, qd = (float(tok) for tok in line.split(","))
        assert abs(qd - qd_gwl_analytic(psi, p).discord) < 1e-15


def test_sweep_wmatrix_file_with_oracle(tmp_path):
    psi = WMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]) / math.sqrt(2.0))
    src = tmp_path / "state.txt"
    src.write_text(wmatrix_text(psi))
    out = tmp_path / "curve.csv"
    rc = main(
        [
            "sweep", "--kind", "gwl", "--wmatrix", str(src), "--out", str(out),
            "--p-start", "0.2", "--p-stop", "0.4", "--p-step", "0.1",
            "--oracle", "--grid", "16",
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,eof,qd_analytic,qd_numeric,residual,concurrence"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = [float(tok) for tok in line.split(",")]
        assert cells[4] < 1e-8  # relative residual against the oracle
        assert abs(cells[1] - eof_from_concurrence(cells[5])) < 1e-12


@pytest.mark.parametrize("source", ["werner", "wmatrix"])
def test_sweep_oracle_columns_equal_the_library_calls(source, tmp_path, capsys):
    # every cell, exactly: the closed forms on the grid, the oracle state by
    # state, and the residual from those two; verify names the p of the
    # first row with the largest residual
    if source == "werner":
        state = ["--kind", "werner", "--p-start", "-1", "--p-stop", "0.3", "--p-step", "0.1"]
        rho_at = werner

        def closed_forms(ps):
            return concurrence_werner(ps), qd_werner(ps)

    else:
        path = tmp_path / "psi.txt"
        psi = WMatrix(np.array([[0.3, 0.5j], [-0.4, 0.2 + 0.6j]]) / math.sqrt(0.9))
        path.write_text(wmatrix_text(psi), encoding="utf-8")
        psi = WMatrix.from_text(path.read_text(encoding="utf-8"))
        c_pure = concurrence_pure(psi)
        state = ["--kind", "gwl", "--wmatrix", str(path), "--p-step", "0.1"]

        def rho_at(p):
            return gwl(psi, p)

        def closed_forms(ps):
            return concurrence_gwl_analytic(c_pure, ps), qd_gwl(c_pure, ps)

    assert main(["sweep", "--oracle", "--grid", "16"] + state) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,eof,qd_analytic,qd_numeric,residual,concurrence"
    columns = list(zip(*([float(tok) for tok in line.split(",")] for line in lines[1:])))
    ps, eof, qa, qn, residual, conc = (list(column) for column in columns)
    assert len(ps) > 10
    closed_conc, closed_qd = closed_forms(ps)
    assert conc == closed_conc.tolist()
    assert qa == closed_qd.tolist()
    assert eof == eof_from_concurrence(closed_conc).tolist()
    for p, a, n, r in zip(ps, qa, qn, residual):
        assert n == qd_numeric(rho_at(p), grid_n=16), p
        assert r == abs(a - n) / max(abs(a), cli.RESIDUAL_FLOOR), p
    worst = max(residual)
    rc = main(["verify", "--grid", "16"] + state)
    assert rc == (2 if worst > cli.DEFAULT_VERIFY_THRESHOLD else 0)
    out = capsys.readouterr().out
    assert "max relative residual %.6e at p=%r\n" % (worst, ps[residual.index(worst)]) in out


def test_unreadable_and_unwritable_files_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.txt").write_bytes(b"\xff 0 0 1\n")
    cases = [
        (["sweep", "--kind", "gwl", "--wmatrix", "missing.txt"], "cannot read --wmatrix 'missing.txt': No such file"),
        (["state-info", "--kind", "gwl", "--wmatrix", "latin1.txt", "--p", "0.5"], "cannot read --wmatrix 'latin1.txt': 'utf-8' codec"),
        (["sweep", "--kind", "gwl", "--wmatrix", "."], "cannot read --wmatrix '.'"),
        (["sweep", "--kind", "werner", "--out", "no-dir/w.csv"], "cannot write --out 'no-dir/w.csv': No such file"),
    ]
    for argv, message in cases:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: " + message), captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latin1.txt"]


def test_deformed_windows_too_wide_for_a_float_do_not_crash(capsys):
    # kappa^2 underflows to 0 (1e-200) or to a subnormal whose window
    # overflows (1e-160): f(n) = 1 to working precision, so the A state is
    # the harmonic one; an N whose window a float cannot hold is a domain error
    argv = ["state-info", "--kind", "deformed", "--alpha", "0.5", "--p", "0.5", "--deformed-kind", "A"]
    for kappa in ("1e-200", "1e-160"):
        spec = DeformationSpec("exciton", kappa=float(kappa))
        assert deformed_module._f_table(spec, MAX_NMAX)[MAX_NMAX] == 1.0
        n_max = select_nmax(spec, 0.5, "A")
        assert main(argv + ["--family", "exciton", "--kappa", kappa]) == 0, kappa
        exciton = capsys.readouterr().out
        assert main(argv + ["--family", "harmonic", "--nmax", str(n_max)]) == 0
        assert capsys.readouterr().out == exciton, kappa
    for family in ("poschl-teller", "morse"):
        assert main(argv + ["--family", family, "--N", "1" + "0" * 400]) == 1, family
        err = capsys.readouterr().err
        assert err.startswith("domain error: %s N = 1000" % family.replace("-", "_")), err
        assert "too wide for a float" in err


def test_gwl_needs_exactly_one_source(capsys):
    assert main(["sweep", "--kind", "gwl"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["sweep", "--kind", "gwl", "--concurrence", "0.5", "--wmatrix", "x.txt"]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_verify_pass_and_fail(capsys):
    argv = [
        "verify", "--kind", "werner",
        "--p-start", "-0.9", "--p-stop", "-0.5", "--p-step", "0.1", "--grid", "32",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "verify: kind=werner points=5 grid=32 threshold=1e-08" in out
    assert "max relative residual" in out
    assert out.rstrip().endswith("PASS")
    # an unreachable threshold flips the same run to FAIL
    assert main(argv + ["--tol", "1e-16"]) == 2
    assert capsys.readouterr().out.rstrip().endswith("FAIL")


def test_crossover_p_crossing(capsys):
    rc = main(
        [
            "crossover", "--pair", "eof-qd", "--functional", "p-crossing",
            "--family", "poschl-teller", "--N", "10", "--nmax", "9",
            "--alpha", "0.65", "--deformed-kind", "A",
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("crossover pair=eof-qd functional=p-crossing alpha=0.65 p=")
    assert "np." not in line
    p_root = float(line.rsplit("=", 1)[1])
    assert abs(p_root - 0.8785091086924077) < 1e-6


def test_crossover_p_crossing_ignores_the_p_grid_flags(capsys):
    # p-crossing scans its own points, so a --p-step it never uses once
    # exited 1 with "--p-step must be positive"
    argv = ["crossover", "--functional", "p-crossing", "--family", "harmonic", "--nmax", "20", "--alpha", "0.6"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert main(argv + ["--p-step", "0"]) == 0
    assert capsys.readouterr().out == expected


def test_crossover_alpha_max_p_reports_no_sign_change(capsys):
    rc = main(
        [
            "crossover", "--pair", "eof-qd",
            "--family", "poschl-teller", "--N", "10", "--nmax", "9",
            "--deformed-kind", "A", "--p-step", "0.05",
        ]
    )
    assert rc == 3
    assert "does not change sign" in capsys.readouterr().err


def test_crossover_ordering_switch(capsys):
    rc = main(
        [
            "crossover", "--pair", "coherent-vs-a",
            "--family", "poschl-teller", "--N", "10", "--nmax", "9",
            "--alpha-lo", "1.0", "--alpha-hi", "1.6", "--p-step", "0.02",
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("crossover pair=coherent-vs-a functional=alpha-max-p alpha=")
    assert "np." not in line
    alpha = float(line.rsplit("=", 1)[1])
    assert abs(alpha - 1.30216) < 1e-3


def test_state_info_werner(capsys):
    rc = main(["state-info", "--kind", "werner", "--p", "-0.9", "--oracle", "--grid", "16"])
    assert rc == 0
    values = {}
    for line in capsys.readouterr().out.splitlines():
        key, _, rest = line.partition(":")
        values[key.strip()] = rest.strip()
    assert abs(float(values["concurrence"]) - 0.85) < 1e-15
    assert abs(float(values["eof"]) - eof_werner(-0.9)) < 1e-15
    assert abs(float(values["qd_analytic"]) - qd_werner(-0.9)) < 1e-15
    assert abs(float(values["qd_numeric"]) - qd_werner(-0.9)) < 1e-8
    assert abs(float(values["entropy_reduced_A"]) - 1.0) < 1e-12
    assert len(values["eigenvalues"].split(",")) == 4


def test_state_info_deformed(capsys):
    rc = main(
        [
            "state-info", "--kind", "deformed", "--family", "exciton",
            "--kappa", "0.3", "--nmax", "5", "--alpha", "0.65",
            "--deformed-kind", "D", "--p", "0.8",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "pure-state concurrence:" in out
    spec = DeformationSpec("exciton", kappa=0.3, n_max=5)
    s_line = [line for line in out.splitlines() if line.startswith("overlap s:")][0]
    assert abs(float(s_line.split(":")[1]) - overlap(spec, 0.65, "D")) < 1e-12


def test_sweep_deformed_auto_truncation(tmp_path):
    # no --nmax: the truncation level comes from select_nmax
    out = tmp_path / "deformed.csv"
    rc = main(
        [
            "sweep", "--kind", "deformed", "--family", "harmonic",
            "--alpha", "0.65", "--deformed-kind", "A",
            "--p-start", "0.5", "--p-stop", "0.6", "--p-step", "0.05",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 4


def test_deformed_levels_are_capped_before_any_ket_is_built(monkeypatch, capsys):
    # without --nmax, kappa = 1e-6 states a window of 5e11 levels, which is
    # searched only up to MAX_NMAX; a larger --nmax is refused before any ket
    tops = []
    real = deformed_module.coherent_coefficients

    def recording(spec, alpha, kind):
        tops.append(spec.n_max)
        return real(spec, alpha, kind)

    monkeypatch.setattr(deformed_module, "coherent_coefficients", recording)
    argv = ["state-info", "--kind", "deformed", "--alpha", "0.5", "--p", "0.5"]
    assert main(argv + ["--family", "exciton", "--kappa", "1e-6"]) == 0
    assert max(tops) == MAX_NMAX
    capsys.readouterr()
    tops.clear()
    assert main(argv + ["--family", "harmonic", "--nmax", "1000000000"]) == 1
    assert tops == []
    assert "n_max must be an integer in [0, 100000]" in capsys.readouterr().err


def test_deformed_state_info_builds_one_ket(monkeypatch, capsys):
    # the state and the "overlap s" line share one ket; it was built twice
    calls = []
    real = deformed_module.coherent_coefficients
    monkeypatch.setattr(deformed_module, "coherent_coefficients", lambda *a: calls.append(a) or real(*a))
    argv = [
        "state-info", "--kind", "deformed", "--family", "poschl-teller", "--N", "10",
        "--nmax", "9", "--alpha", "0.65", "--deformed-kind", "A", "--p", "0.5",
    ]
    assert main(argv) == 0
    assert "overlap s: " in capsys.readouterr().out
    assert len(calls) == 1


def test_state_info_asks_for_p_before_building_a_state(monkeypatch, capsys):
    # the exciton at kappa = 1e-6 once built a 100,001-level ket before it
    # reported the missing --p
    calls = []
    monkeypatch.setattr(deformed_module, "coherent_coefficients", lambda *a: calls.append(a))
    argv = ["state-info", "--kind", "deformed", "--family", "exciton", "--kappa", "1e-6", "--alpha", "0.5"]
    assert main(argv) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--p" in err


def test_error_exit_codes(capsys):
    assert main(["state-info", "--kind", "werner"]) == 1  # missing --p
    assert "usage error" in capsys.readouterr().err
    assert main(["state-info", "--kind", "werner", "--p", "0.5"]) == 1  # out of range
    assert "domain error" in capsys.readouterr().err
    assert main(["sweep", "--kind", "nope"]) == 1  # rejected by the flag choices
    capsys.readouterr()
    argv = ["sweep", "--kind", "deformed", "--family", "morse", "--N", "18", "--nmax", "12", "--alpha", "0.5"]
    assert main(argv) == 1  # truncation outside the validity window
    assert "domain error" in capsys.readouterr().err
    assert main(["crossover", "--functional", "p-crossing", "--pair", "coherent-vs-a"]) == 1


def test_an_overlap_of_magnitude_1_stops_the_crossover(capsys):
    # alpha = 0 gives s = 1 and no quasi-Bell pair: a domain error, not a root at 0.0
    argv = ["crossover", "--pair", "coherent-vs-a", "--family", "poschl-teller", "--N", "10",
            "--nmax", "9", "--alpha-lo", "0", "--alpha-hi", "1.6"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("domain error: overlap magnitude 1 leaves no orthogonal component"), err


def test_the_quasi_bell_pair_has_no_sign_flag_and_p_crossing_needs_alpha(capsys):
    argv = ["sweep", "--kind", "deformed", "--family", "harmonic", "--nmax", "9", "--alpha", "1"]
    assert main(argv + ["--sign", "minus"]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    argv = ["crossover", "--functional", "p-crossing", "--family", "harmonic", "--nmax", "9"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "usage error: --alpha is required for deformed states\n"


def test_state_info_prints_plain_floats(capsys):
    rc = main(["state-info", "--kind", "gwl", "--concurrence", "0.5", "--p", "0.5", "--oracle", "--grid", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "np." not in out
    assert "pure-state concurrence: 0.49999999999999994\n" in out
    for line in out.splitlines():
        for token in line.partition(":")[2].split(","):
            float(token)


def test_tol_flag_does_not_outlive_its_command(capsys):
    # -1.0005 is inside [-1, 1/3] only within the --tol of 1e-3
    argv = ["sweep", "--kind", "werner", "--p-start", "-1.0005", "--p-stop", "-0.9", "--p-step", "0.05"]
    assert main(argv) == 1
    assert main(argv + ["--tol", "1e-3"]) == 0
    with pytest.warns(UserWarning, match="clamping"):
        assert main(["state-info", "--kind", "werner", "--p", "-1.0005", "--tol", "1e-3"]) == 0
    # a command that fails leaves nothing behind either
    assert main(["state-info", "--kind", "werner", "--p", "0.5", "--tol", "1e-3"]) == 1
    capsys.readouterr()
    with pytest.raises(DomainError):
        werner(1.0 / 3.0 + 5e-4)


def test_state_info_reads_one_spectrum_of_rho(monkeypatch, capsys):
    # the eigenvalues and entropy_total lines share one eigen-solve of rho; once
    # there were two, each warning "clamping 3 eigenvalue(s)" for this state
    shapes = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kw):
        shapes.append(np.shape(a)[-2:])
        return real(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["state-info", "--kind", "werner", "--p", "-1.0005", "--tol", "1e-3"]) == 0
    assert "eigenvalues: 1.000375, 0.0, 0.0, 0.0\n" in capsys.readouterr().out
    # rho once, then the two reduced states
    assert sorted(shapes) == [(2, 2), (2, 2), (4, 4)]
    assert [str(w.message) for w in caught] == ["clamping 3 eigenvalue(s) in [-0.001, 0) to zero"]
    # the warning names cmd_state_info's line, not the library's
    lines, first = inspect.getsourcelines(cli.cmd_state_info)
    assert caught[0].filename == cli.__file__
    assert first < caught[0].lineno < first + len(lines)


def test_crossover_identical_states_exit_3(capsys):
    # harmonic f(n) = 1 makes kinds C and A the same state: the gap is 0 everywhere
    rc = main(["crossover", "--pair", "coherent-vs-a", "--family", "harmonic", "--nmax", "20", "--p-step", "0.1"])
    assert rc == 3
    assert "zero at both ends" in capsys.readouterr().err


def test_bisect_endpoints():
    # g maps a list of points to their values
    assert _bisect(lambda a: np.subtract(a, 1.0), 1.0, 2.0, 1e-6, "g") == 1.0
    assert _bisect(lambda a: np.subtract(a, 2.0), 1.0, 2.0, 1e-6, "g") == 2.0
    assert abs(_bisect(lambda a: np.subtract(a, 1.25), 1.0, 2.0, 1e-9, "g") - 1.25) < 1e-9
    with pytest.raises(NumericError, match="zero at both ends"):
        _bisect(lambda a: np.zeros(len(a)), 1.0, 2.0, 1e-6, "g")


# --- blocked bisection against the one-step bisection it replaced ---------
#
# _serial_bisect is _bisect as it stood when it evaluated one point per
# call of g, kept verbatim as the frozen reference. The blocked _bisect
# must return the same float (==) at every level count and tolerance.
def _serial_bisect(g, lo, hi, tol, label):
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0 and g_hi == 0.0:
        raise NumericError(
            "%s is zero at both ends of [%g, %g]; no isolated crossing" % (label, lo, hi)
        )
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise NumericError(
            "%s does not change sign on [%g, %g] (endpoint values %g, %g)"
            % (label, lo, hi, g_lo, g_hi)
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _affine(slope, root):
    # one function for a scalar (the reference) and a list of points
    return lambda x: slope * (np.asarray(x, dtype=float) - root)


@st.composite
def _affine_cases(draw):
    lo = float(draw(st.integers(-8, 8)))
    hi = lo + 2.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        # a dyadic root is a bisection midpoint, where g is exactly 0.0
        depth = draw(st.integers(1, 30))
        root = lo + (hi - lo) * draw(st.integers(1, 2**depth - 1)) / 2**depth
    else:
        root = draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
    slope = draw(st.sampled_from([-3.0, -1e-3, 0.7, 1e5]))
    return _affine(slope, root), lo, hi


@st.composite
def _eof_minus_qd_cases(draw):
    # the p-crossing's own bracket: the highest sign change of its scan
    c = draw(st.floats(0.05, 0.95))
    scan = [1.0 - 1e-9] + [1.0 - 1e-3 * k for k in range(1, 1000)]
    scan = [p for p in scan if p > 1.0 / (1.0 + 2.0 * c) + 1e-6]
    change = np.flatnonzero(np.diff(cli._eof_minus_qd(c, scan) > 0.0))
    assume(change.size > 0)
    i = int(change[0])
    return (lambda p: cli._eof_minus_qd(c, p)), scan[i + 1], scan[i]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    case=st.one_of(_affine_cases(), _eof_minus_qd_cases()),
    levels=st.integers(1, 10),
    depth=st.integers(0, 40),
    scale=st.sampled_from([0.75, 1.0]),
    given_ends=st.booleans(),
)
def test_blocked_bisect_equals_the_one_step_reference(case, levels, depth, scale, given_ends):
    g, lo, hi = case
    # the walk stops at every depth of a block, also where tol equals the width
    tol = (hi - lo) * scale * 2.0**-depth
    ends = (g(lo), g(hi)) if given_ends else None
    expected = _serial_bisect(g, lo, hi, tol, "g")
    assert _bisect(g, lo, hi, tol, "g", levels, ends) == expected


@pytest.mark.parametrize("levels", [1, 8])
def test_blocked_bisect_keeps_the_reference_errors(levels):
    for g, match in [(lambda x: np.zeros(np.shape(x)), "zero at both ends"),
                     (_affine(1.0, 5.0), "does not change sign")]:
        for bisect in (_serial_bisect, functools.partial(_bisect, levels=levels)):
            with pytest.raises(NumericError, match=match):
                bisect(g, 1.0, 2.0, 1e-6, "g")


@pytest.mark.parametrize("levels", [1, 4])
def test_bisect_stops_at_adjacent_floats(levels):
    # a bracket of adjacent floats is still wider than tol = 1e-300; a step
    # there changes neither end, and the search once never returned
    points = []

    def g(xs):
        points.extend(xs)
        if len(points) > 2000:
            raise AssertionError("bisection did not stop")
        return [1.0 if x > 0.3 else -1.0 for x in xs]

    root = _bisect(g, 0.0, 1.0, 1e-300, "g", levels)
    assert root in (0.3, math.nextafter(0.3, 1.0))


P_CROSSING_STATES = [
    ["--family", "harmonic", "--nmax", "20"],
    ["--family", "poschl-teller", "--N", "10", "--nmax", "9"],
    ["--family", "morse", "--N", "10", "--nmax", "3"],
    ["--family", "exciton", "--kappa", "0.3", "--nmax", "5"],
]


@pytest.mark.parametrize("state", P_CROSSING_STATES)
def test_p_crossing_evaluates_the_gap_once_per_block(state, monkeypatch, capsys):
    # one call for the scan and one per 8-level block of the 24 steps; the
    # one-point bisection made 27
    sizes = []
    real = cli._eof_minus_qd

    def counting(c, p):
        sizes.append(np.size(p))
        return real(c, p)

    monkeypatch.setattr(cli, "_eof_minus_qd", counting)
    argv = ["crossover", "--functional", "p-crossing", "--alpha", "0.65", "--deformed-kind", "A"]
    assert main(argv + state) == 0
    capsys.readouterr()
    assert len(sizes) <= 4, sizes
    assert sizes[1:] == [255] * (len(sizes) - 1)


def test_alpha_max_p_makes_one_g_call_per_step(monkeypatch, capsys):
    # each g call builds two kets, so alpha-max-p bisects one alpha at a time:
    # two ends, then one per halving of [1.0, 1.6] down to 1e-4; each call takes
    # the coherent and the A concurrence as the rows of one (2, 1) C
    calls = []
    real = cli.qd_gwl
    monkeypatch.setattr(cli, "qd_gwl", lambda c, p, tol=None: calls.append(c) or real(c, p, tol))
    argv = [
        "crossover", "--pair", "coherent-vs-a", "--family", "poschl-teller", "--N", "10",
        "--nmax", "9", "--alpha-lo", "1.0", "--alpha-hi", "1.6", "--p-step", "0.02",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    steps = math.ceil(math.log2(0.6 / 1e-4))
    assert len(calls) == 2 + steps
    assert all(np.shape(c) == (2, 1) for c in calls)


COHERENT_VS_A_BRACKETS = {
    "poschl-teller": ["--family", "poschl-teller", "--N", "10", "--nmax", "9",
                      "--alpha-lo", "1.0", "--alpha-hi", "1.6"],
    "morse": ["--family", "morse", "--N", "10", "--alpha", "1.0"],
}


@pytest.mark.parametrize("family", sorted(COHERENT_VS_A_BRACKETS))
@pytest.mark.filterwarnings("ignore:discord still moving")
def test_coherent_vs_a_keeps_the_two_call_root(family, monkeypatch, capsys):
    # the frozen g of coherent-vs-a, one qd_gwl call per kind, on the same p grid
    argv = ["crossover", "--pair", "coherent-vs-a", *COHERENT_VS_A_BRACKETS[family]]
    args = cli.build_parser().parse_args(argv)
    ps = cli._p_range(args, "gwl")[2]
    spec = cli._deformation_spec(args)

    def c(alpha, kind):
        return concurrence_pure(cli._wmatrix_from_overlap(overlap(spec, alpha, kind)))

    def two_call_g(alpha):
        return float(np.max(qd_gwl(c(alpha, "C"), ps) - qd_gwl(c(alpha, "A"), ps)))

    ref = _bisect(lambda a: list(map(two_call_g, a)), args.alpha_lo, args.alpha_hi,
                  cli.DEFAULT_ROOT_TOL, "gap")
    gs = []
    monkeypatch.setattr(cli, "_bisect", lambda g, *rest: gs.append(g) or _bisect(g, *rest))
    assert main(argv) == 0
    assert "alpha=%r\n" % ref in capsys.readouterr().out
    # and the g it bisects equals the frozen one on 200 alphas of the default bracket
    alphas = np.linspace(0.2, 3.0, 200).tolist()
    assert gs[0](alphas) == list(map(two_call_g, alphas))


def _count_range_checks(monkeypatch):
    # every check_range call, by what it checks, under each name it is bound to
    calls = []
    real = linalg_module.check_range

    def counting(x, lo, hi, what, tol=None):
        calls.append(what)
        return real(x, lo, hi, what, tol)

    for name, module in list(sys.modules.items()):
        if name == "qcorr" or name.startswith("qcorr."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    return calls


def test_closed_forms_check_c_and_p_once_per_call(monkeypatch, capsys):
    # the chain of public functions checked them 10 times per gap; a
    # p-crossing command made 40 checks
    calls = _count_range_checks(monkeypatch)
    once = ["pure-state concurrence", "GWL mixing parameter"]
    for call in (lambda: cli._eof_minus_qd(0.6, [0.9, 0.95]), lambda: qd_gwl(0.6, 0.9)):
        calls.clear()
        call()
        assert calls == once
    calls.clear()
    argv = [
        "crossover", "--functional", "p-crossing", "--family", "poschl-teller", "--N", "10",
        "--nmax", "9", "--alpha", "0.65", "--deformed-kind", "A",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 8, calls


def test_p_crossing_bisects_to_the_given_tol(capsys):
    # --tol is the p-crossing's root width; without it the width is 1e-10
    argv = ["crossover", "--functional", "p-crossing", "--family", "harmonic", "--nmax", "20", "--alpha", "1.0"]

    def root(extra):
        assert main(argv + extra) == 0
        return float(capsys.readouterr().out.splitlines()[0].rsplit("=", 1)[1])

    fine = root([])
    assert root(["--tol", "1e-10"]) == fine
    coarse = root(["--tol", "1e-3"])
    assert coarse != fine and abs(coarse - fine) <= 1e-3
    assert abs(root(["--tol", "1e-6"]) - fine) <= 1e-6


# werner and gwl as they stood when each call built one state from one p,
# kept verbatim as the per-row reference for the oracle's stack
def _frozen_werner(p, tol=None):
    p = float(p)
    # validated only: the matrix is built from p as given
    check_range(p, *WERNER_RANGE, "Werner mixing parameter", tol)
    return (1.0 - p) / 4.0 * np.eye(4, dtype=complex) + p / 2.0 * EXCHANGE


def _frozen_gwl(psi, p, tol=None):
    p = float(p)
    check_range(p, *GWL_RANGE, "GWL mixing parameter", tol)
    return (1.0 - p) / 4.0 * np.eye(4, dtype=complex) + p * pure_density(psi)


@pytest.mark.parametrize(
    "state",
    [
        ["--kind", "werner", "--p-step", "0.01"],
        ["--kind", "gwl", "--concurrence", "0.37", "--p-step", "0.013"],
        ["--kind", "deformed", "--family", "morse", "--N", "10", "--nmax", "3", "--alpha", "0.8",
         "--deformed-kind", "D", "--p-start", "-0.3", "--p-step", "0.05"],
    ],
)
def test_oracle_stack_equals_the_per_row_states(state, monkeypatch, capsys):
    # the sweep's oracle stack is one broadcast over the p grid; each of its
    # matrices is the bytes that werner(p) or gwl(psi, p) built row by row
    stacks = []
    monkeypatch.setattr(cli, "qd_numeric", lambda rho, **kw: stacks.append(rho) or np.zeros(len(rho)))
    assert main(["sweep", "--oracle"] + state) == 0
    ps = [float(line.split(",")[0]) for line in capsys.readouterr().out.splitlines()[1:]]
    kind, psi, _ = cli.build_state(cli.build_parser().parse_args(["sweep"] + state), None)
    rows = [_frozen_werner(p) if kind == "werner" else _frozen_gwl(psi, p) for p in ps]
    assert len(stacks) == 1 and stacks[0].shape == (len(ps), 4, 4)
    assert stacks[0].tobytes() == np.array(rows).tobytes()


def test_non_finite_input_is_rejected(capsys):
    nan, inf = float("nan"), float("inf")
    for args in ((nan, 1.0, 0.1), (0.0, nan, 0.1), (0.0, 1.0, nan), (0.0, inf, 0.1), (-inf, 1.0, 0.1)):
        with pytest.raises(UsageError, match="finite"):
            p_grid(*args)
    assert main(["sweep", "--kind", "werner", "--p-step", "nan"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["sweep", "--kind", "gwl", "--concurrence", "0.5", "--p-start", "nan"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["state-info", "--kind", "werner", "--p", "nan"]) == 1
    assert "domain error" in capsys.readouterr().err
    assert main(["state-info", "--kind", "gwl", "--concurrence", "0.5", "--p", "nan"]) == 1
    assert "domain error" in capsys.readouterr().err


def test_deformed_spec_is_resolved_once_per_command(monkeypatch, capsys):
    # without --nmax, select_nmax picks the level once, however often the
    # command builds a state (twice per bisection step in coherent-vs-a)
    calls = []
    real = cli.select_nmax

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "select_nmax", counting)
    morse = ["--family", "morse", "--N", "10", "--alpha", "1.2"]
    commands = [
        ["state-info", "--kind", "deformed", "--p", "0.8"] + morse,
        ["sweep", "--kind", "deformed", "--p-step", "0.1"] + morse,
        ["crossover", "--pair", "eof-qd", "--functional", "p-crossing", "--deformed-kind", "A"] + morse,
        ["crossover", "--pair", "coherent-vs-a", "--p-step", "0.05"] + morse,
    ]
    for argv in commands:
        calls.clear()
        # Morse N=10 stalls at its level cap, which select_nmax reports once
        with pytest.warns(UserWarning, match="level cap"):
            assert main(argv) == 0, argv
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_parser_is_built_once_and_each_command_starts_from_the_defaults(monkeypatch, capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    seen = []
    parse = parser.parse_args

    def recording(argv=None, namespace=None):
        seen.append(parse(argv, namespace))
        return seen[-1]

    monkeypatch.setattr(parser, "parse_args", recording)
    base = ["state-info", "--kind", "werner", "--p", "-0.5"]
    assert main(base + ["--tol", "1e-3", "--oracle", "--grid", "16"]) == 0
    assert main(base) == 0
    capsys.readouterr()
    first, second = seen
    assert (first.tol, first.oracle, first.grid) == (1e-3, True, 16)
    # an absent --grid reads None: the oracle then takes 64
    assert (second.tol, second.oracle, second.grid) == (None, False, None)
    assert vars(second) == vars(cli.build_parser.__wrapped__().parse_args(base))


def test_tol_must_be_finite_and_positive(capsys):
    # parsing rejects the value before any command runs, in all four commands
    for command in ("sweep", "verify", "crossover", "state-info"):
        state = [] if command == "crossover" else ["--kind", "werner"]
        for bad in ("nan", "inf", "0", "-1"):
            assert main([command] + state + ["--tol", bad]) == 1, (command, bad)
            err = capsys.readouterr().err
            assert "usage error" in err and "--tol" in err, (command, bad)


def test_crossover_rejects_an_empty_alpha_bracket(monkeypatch, capsys):
    def no_state(*args, **kwargs):
        raise AssertionError("a state was built for an empty bracket")

    monkeypatch.setattr(cli, "overlap", no_state)
    pt = ["crossover", "--pair", "coherent-vs-a", "--family", "poschl-teller", "--N", "10", "--nmax", "9"]
    for lo, hi in (("2", "1.2"), ("1.2", "1.2"), ("nan", "1.6"), ("1.0", "nan")):
        assert main(pt + ["--alpha-lo", lo, "--alpha-hi", hi]) == 1, (lo, hi)
        err = capsys.readouterr().err
        assert "usage error" in err and "--alpha-lo" in err, (lo, hi)


def test_crossover_rejects_the_flags_it_does_not_read(tmp_path, monkeypatch, capsys):
    # crossover takes a deformed state only and runs no oracle
    def no_state(*args, **kwargs):
        raise AssertionError("a state was built for a rejected flag")

    monkeypatch.setattr(cli, "overlap", no_state)
    path = tmp_path / "psi.txt"
    path.write_text("1 0 0 0\n")
    argv = ["crossover", "--functional", "p-crossing", "--family", "harmonic", "--nmax", "20", "--alpha", "1.0"]
    for extra, flag in (
        (["--kind", "werner"], "--kind"),
        (["--kind", "gwl"], "--kind"),
        (["--wmatrix", str(path)], "--wmatrix"),
        (["--concurrence", "0.3"], "--concurrence"),
        (["--oracle"], "--oracle"),
        (["--grid", "9"], "--grid"),
    ):
        assert main(argv + extra) == 1, extra
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error:") and flag in err, (extra, err)


def test_verify_has_no_oracle_switch(capsys):
    # verify always runs the oracle
    assert main(["verify", "--kind", "werner", "--p-step", "0.5", "--oracle"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error:") and "--oracle" in err


def test_a_state_flag_of_another_kind_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # a stray flag must not leave the default --kind werner to run on without it
    def no_state(*args, **kwargs):
        raise AssertionError("a state was built for a stray flag")

    monkeypatch.setattr(cli, "overlap", no_state)
    monkeypatch.chdir(tmp_path)  # w.txt does not exist: the check runs before it is read
    gwl_flags = [["--wmatrix", "w.txt"], ["--concurrence", "0.9"]]
    deformed_flags = [
        ["--family", "morse"], ["--N", "10"], ["--kappa", "0.3"], ["--alpha", "1"], ["--nmax", "9"],
    ]
    cases = [("werner", extra) for extra in gwl_flags + deformed_flags]
    cases += [("gwl", ["--concurrence", "0.5"] + extra) for extra in deformed_flags]
    cases += [("deformed", ["--family", "harmonic", "--nmax", "9", "--alpha", "1"] + extra)
              for extra in (["--wmatrix", "w.txt"], ["--concurrence", "0.2"])]
    for kind, extra in cases:
        stray = extra[-2]
        for command in (["sweep", "--p-step", "0.5"], ["verify", "--p-step", "0.5"], ["state-info", "--p", "0.2"]):
            assert main(command + ["--kind", kind] + extra) == 1, (command, kind, extra)
            out, err = capsys.readouterr()
            assert out == "", (command, kind, extra)
            assert err == "usage error: %s does not apply to --kind %s\n" % (stray, kind)


def test_a_family_flag_of_another_family_is_a_domain_error(capsys):
    # a flag the family does not read once exited 0 with the flag dropped
    cases = [
        ("harmonic", ["--N", "10"], "N"),
        ("harmonic", ["--kappa", "0.3"], "kappa"),
        ("exciton", ["--kappa", "0.3", "--N", "10"], "N"),
        ("poschl-teller", ["--N", "10", "--kappa", "0.3"], "kappa"),
        ("morse", ["--N", "10", "--kappa", "0.3"], "kappa"),
    ]
    commands = (
        ["sweep", "--p-step", "0.5"],
        ["verify", "--p-step", "0.5"],
        ["state-info", "--p", "0.5"],
        ["crossover", "--functional", "p-crossing"],
    )
    for family, extra, name in cases:
        for command in commands:
            args = command + ["--kind", "deformed"] * (command[0] != "crossover")
            args += ["--family", family, "--alpha", "1"] + extra
            assert main(args) == 1, args
            out, err = capsys.readouterr()
            assert out == "", args
            assert err == "domain error: %s does not apply to family %s\n" % (
                name, family.replace("-", "_")
            ), args


def test_each_command_takes_this_list_of_flags():
    # adding a flag to a command that does not read it is a deliberate edit of this list
    state = ["--kind", "--wmatrix", "--concurrence", "--family", "--N", "--kappa", "--alpha",
             "--nmax", "--deformed-kind"]
    p_range = ["--p-start", "--p-stop", "--p-step"]
    expected = {
        "sweep": state + ["--oracle", "--grid", "--tol"] + p_range + ["--out"],
        "verify": state + ["--grid", "--tol"] + p_range,
        "crossover": ["--kind"] + state[3:] + ["--tol"] + p_range
        + ["--pair", "--functional", "--alpha-lo", "--alpha-hi"],
        "state-info": state + ["--oracle", "--grid", "--tol", "--p"],
    }
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(commands) == set(expected)
    for name, sp in commands.items():
        flags = [opt for action in sp._actions for opt in action.option_strings if opt != "-h"]
        assert flags == ["--help"] + expected[name], name
        kinds = next(action.choices for action in sp._actions if action.dest == "kind")
        assert kinds == (("deformed",) if name == "crossover" else ("werner", "gwl", "deformed"))


def test_non_finite_alpha_exits_1(capsys):
    argv = ["state-info", "--kind", "deformed", "--family", "harmonic", "--nmax", "9", "--p", "0.5"]
    for alpha in ("nan", "inf"):
        assert main(argv + ["--alpha", alpha]) == 1, alpha
        err = capsys.readouterr().err
        assert "domain error" in err and "alpha must be finite" in err, alpha


def test_overflowing_alpha_exits_1_without_warnings(capsys):
    argv = ["state-info", "--kind", "deformed", "--family", "harmonic", "--nmax", "9", "--p", "0.5"]
    for alpha in ("1e30", "1e100"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--alpha", alpha]) == 1, alpha
        assert caught == [], [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert "domain error: alpha = %r overflows" % float(alpha) in err, err


def test_no_command_leaves_state_for_a_later_one(capsys):
    fixed = ["state-info", "--kind", "gwl", "--concurrence", "0.5", "--p", "0.7", "--oracle", "--grid", "16"]
    assert main(fixed) == 0
    before = capsys.readouterr().out
    near_edge = ["--kind", "werner", "--p-start", "-1.0005", "--p-stop", "-0.9", "--p-step", "0.05"]
    battery = [
        (["sweep", "--tol", "1e-3"] + near_edge, 0),
        (["sweep", "--kind", "gwl", "--concurrence", "0.5", "--p-step", "0.25", "--oracle", "--grid", "16", "--tol", "1e-3"], 0),
        (["state-info", "--kind", "werner", "--p", "-1.0005", "--tol", "1e-3"], 0),
        (["state-info", "--kind", "werner", "--p", "0.5", "--tol", "1e-3"], 1),
        (["verify", "--kind", "werner", "--p-start", "-0.9", "--p-stop", "-0.5", "--p-step", "0.1", "--grid", "32", "--tol", "1e-16"], 2),
        (["state-info", "--kind", "werner", "--p", "-0.5", "--oracle", "--grid", "16"], 0),
        (["sweep", "--kind", "deformed", "--family", "poschl-teller", "--N", "10", "--alpha", "0.8", "--p-step", "0.25"], 0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eigenvalue clamp, select_nmax cap
        for argv, code in battery:
            assert main(argv) == code, argv
    capsys.readouterr()
    assert main(fixed) == 0
    assert capsys.readouterr().out == before
    # the looser --tol of the battery is gone
    assert main(["sweep"] + near_edge) == 1
    assert "domain error" in capsys.readouterr().err
    with pytest.raises(DomainError):
        werner(1.0 / 3.0 + 5e-4)


@pytest.mark.parametrize(
    "state",
    [
        ["--kind", "deformed", "--family", "poschl-teller", "--N", "10", "--alpha", "0.8"],
        ["--kind", "gwl", "--concurrence", "0.02"],
    ],
    ids=["deformed", "concurrence"],
)
@pytest.mark.filterwarnings("ignore:discord still moving")
def test_tiny_tol_does_not_reach_states_the_program_builds(state, capsys):
    # the program normalizes these states itself, so they are checked at
    # the library default whatever --tol says
    argv = ["sweep"] + state + ["--p-step", "0.05"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--tol", "1e-17"]) == 0
    assert capsys.readouterr().out == plain


def test_tiny_tol_checks_a_wmatrix_file_but_not_its_repair(tmp_path, capsys):
    # the file's norm is off by 1.3e-12: within the default, beyond 1e-17.
    # --tol decides that the file is repaired; the repaired matrix, whose
    # norm is off by 2e-16, is the program's own and passes at the default
    path = tmp_path / "w.txt"
    path.write_text("0.6 0 0 0.8000000000008j\n", encoding="utf-8")
    argv = ["sweep", "--kind", "gwl", "--wmatrix", str(path), "--p-step", "0.05"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    with pytest.warns(UserWarning, match="renormalizing"):
        assert main(argv + ["--tol", "1e-17"]) == 0
    repaired = capsys.readouterr().out
    assert repaired.splitlines()[0] == plain.splitlines()[0]
    assert len(repaired.splitlines()) == len(plain.splitlines())


def _readme_blocks():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks, fence, body = [], None, []
    for line in text.splitlines():
        if line.startswith("```"):
            if fence is None:
                fence, body = line[3:].strip(), []
            else:
                blocks.append((fence, "\n".join(body)))
                fence = None
        elif fence is not None:
            body.append(line)
    return blocks


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    blocks = _readme_blocks()
    commands = []
    for _, body in blocks:
        for command in body.replace("\\\n", " ").splitlines():
            if command.startswith("qcorr "):
                commands.append(shlex.split(command)[1:])
    assert len(commands) >= 8
    for argv in commands:
        assert main(argv) == 0, argv
    snippets = [body for fence, body in blocks if fence == "python"]
    assert len(snippets) == 1
    exec(compile(snippets[0], "README.md", "exec"), {})
    capsys.readouterr()
