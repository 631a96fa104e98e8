"""The CLI reports library errors cleanly (no tracebacks)."""

import pytest

from repro.__main__ import main


def test_unknown_table_reports_error(capsys):
    assert main(["optimize", "SELECT X FROM NOPE"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown table" in err


def test_disconnected_join_reports_error(capsys):
    assert main(["optimize", "SELECT NAME, MGR FROM DEPT, EMP"]) == 2
    assert "cartesian" in capsys.readouterr().err


def test_parse_error_reported(capsys):
    assert main(["optimize", "SELECT FROM"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["serve", "--workers", "0"],
    ["serve", "--queue-limit", "0"],
    ["serve", "--sample", "-1"],
    ["serve", "--flight-size", "-1"],
    ["serve", "--band", "0"],
    ["serve", "--pool-workers", "-1"],
    ["serve", "--slo-latency", "0.1", "--slo-target", "2"],
    ["serve", "--burst", "0"],
    ["bench-opt", "--repeat", "0"],
    ["bench-opt", "--queries", "-3"],
    ["diff", "--alternatives", "-2"],
    ["optimize", "SELECT MGR FROM DEPT", "--execute", "--limit", "-1"],
    ["bench-opt", "--workload", "chain:99x"],
    ["optimize", "SELECT MGR FROM DEPT", "--workload", "bogus"],
    ["optimize", "SELECT MGR FROM DEPT", "--rules", "bogus"],
    ["adaptive", "--max-reoptimizations", "-1"],
], ids=" ".join)
def test_bad_flag_value_is_one_error_line_and_exit_2(argv, capsys):
    """Out-of-range and malformed flag values: the message of whichever
    validator owns the range, never a traceback."""
    try:
        status = main(argv)
    except SystemExit as exc:  # rejected by argparse at parse time
        status = exc.code
    assert status == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err
