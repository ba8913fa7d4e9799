import math

import numpy as np
import pytest

from qcorr import (
    DeformationSpec,
    DomainError,
    NumericError,
    WMatrix,
    concurrence_pure,
    eof_from_concurrence,
    eof_werner,
    get_tolerance,
    overlap,
    qd_gwl_analytic,
    qd_werner,
    werner,
)
from qcorr import cli
from qcorr.cli import CurveRow, UsageError, _bisect, _diagonal_wmatrix, csv_text, main, p_grid
from qcorr.linalg import DEFAULT_TOLERANCE


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


def test_csv_text():
    text = csv_text([CurveRow(p=0.5, eof=0.25, qd_analytic=0.125)], oracle=False)
    assert text == "p,eof,qd_analytic\n0.5,0.25,0.125\n"
    rows = [CurveRow(p=0.1, eof=0.2, qd_analytic=0.3, qd_numeric=0.4, residual=0.5, concurrence=0.6)]
    text = csv_text(rows, oracle=True)
    lines = text.splitlines()
    assert lines[0] == "p,eof,qd_analytic,qd_numeric,residual,concurrence"
    assert lines[1] == "0.1,0.2,0.3,0.4,0.5,0.6"
    assert text.endswith("\n") and "\r" not in text
    # floats print with round-trip precision
    third = 1.0 / 3.0
    text = csv_text([CurveRow(p=third, eof=third, qd_analytic=third)], oracle=False)
    assert float(text.splitlines()[1].split(",")[0]) == third


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
    src.write_text(psi.to_text())
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
    assert get_tolerance() == DEFAULT_TOLERANCE
    with pytest.warns(UserWarning, match="clamping"):
        assert main(["state-info", "--kind", "werner", "--p", "-1.0005", "--tol", "1e-3"]) == 0
    assert get_tolerance() == DEFAULT_TOLERANCE
    # a command that fails restores the tolerance too
    assert main(["state-info", "--kind", "werner", "--p", "0.5", "--tol", "1e-3"]) == 1
    assert get_tolerance() == DEFAULT_TOLERANCE
    capsys.readouterr()
    with pytest.raises(DomainError):
        werner(1.0 / 3.0 + 5e-4)


def test_crossover_identical_states_exit_3(capsys):
    # harmonic f(n) = 1 makes kinds C and A the same state: the gap is 0 everywhere
    rc = main(["crossover", "--pair", "coherent-vs-a", "--family", "harmonic", "--nmax", "20", "--p-step", "0.1"])
    assert rc == 3
    assert "zero at both ends" in capsys.readouterr().err


def test_bisect_endpoints():
    assert _bisect(lambda a: a - 1.0, 1.0, 2.0, 1e-6, "g") == 1.0
    assert _bisect(lambda a: a - 2.0, 1.0, 2.0, 1e-6, "g") == 2.0
    assert abs(_bisect(lambda a: a - 1.25, 1.0, 2.0, 1e-9, "g") - 1.25) < 1e-9
    with pytest.raises(NumericError, match="zero at both ends"):
        _bisect(lambda a: 0.0, 1.0, 2.0, 1e-6, "g")


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
    assert (second.tol, second.oracle, second.grid) == (None, False, 64)
    assert vars(second) == vars(cli.build_parser.__wrapped__().parse_args(base))
