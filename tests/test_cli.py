"""Tests for the command-line interface, run in-process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import titrees
from titrees import cli, generate_ti_trees


def run_cli(capsysbinary, *argv):
    status = cli.main(list(argv))
    captured = capsysbinary.readouterr()
    return status, captured.out


class TestCountMode:
    def test_known_census_through_15(self, capsysbinary):
        status, out = run_cli(capsysbinary, "-c", "15", "--deterministic")
        assert status == 0
        lines = out.decode().splitlines()
        assert lines == [
            "1 1", "2 0", "3 0", "4 0", "5 0", "6 0", "7 1", "8 0", "9 1",
            "10 0", "11 6", "12 0", "13 24", "14 1", "15 82",
        ]

    def test_no_thousands_separators(self, capsysbinary):
        status, out = run_cli(capsysbinary, "count", "17", "--deterministic")
        assert status == 0
        assert b"," not in out
        assert out.splitlines()[-1] == b"17 324"

    def test_long_mode_spelling(self, capsysbinary):
        status, out = run_cli(capsysbinary, "--count", "7", "--deterministic")
        assert status == 0
        assert out.decode().splitlines()[6] == "7 1"

    def test_degree_bound_argument(self, capsysbinary):
        status, out = run_cli(capsysbinary, "-c", "7", "2", "--deterministic")
        assert status == 0
        assert out.decode().splitlines() == ["1 1"] + [f"{k} 0" for k in range(2, 8)]


class TestEncodingModes:
    def test_parent_list_of_trivial_tree(self, capsysbinary):
        status, out = run_cli(capsysbinary, "-p", "1", "--deterministic")
        assert status == 0
        assert out == b"\n"  # one empty line

    def test_line_counts_match_census(self, capsysbinary):
        total = generate_ti_trees(13).total()
        for mode in ("-g", "-s", "-p"):
            status, out = run_cli(capsysbinary, mode, "13", "--deterministic")
            assert status == 0
            assert len(out.splitlines()) == total

    def test_graph6_starts_with_trivial_tree(self, capsysbinary):
        status, out = run_cli(capsysbinary, "-g", "7", "--deterministic")
        assert status == 0
        assert out.decode().splitlines()[0] == "@"

    def test_sparse6_lines_have_prefix(self, capsysbinary):
        status, out = run_cli(capsysbinary, "-s", "11", "--deterministic")
        assert status == 0
        lines = out.splitlines()
        assert lines and all(line.startswith(b":") for line in lines)


class TestDeterminismAndParallel:
    def test_deterministic_runs_are_byte_identical(self, capsysbinary):
        _, first = run_cli(capsysbinary, "-p", "15", "--deterministic")
        _, second = run_cli(capsysbinary, "-p", "15", "--deterministic")
        assert first == second

    def test_parallel_output_matches_deterministic(self, capsysbinary):
        _, parallel = run_cli(capsysbinary, "-p", "14", "--threads", "2")
        _, serial = run_cli(capsysbinary, "-p", "14", "--deterministic")
        _, one_thread = run_cli(capsysbinary, "-p", "14", "--threads", "1")
        assert parallel == serial == one_thread

    def test_parallel_census_matches(self, capsysbinary):
        _, parallel = run_cli(capsysbinary, "-c", "16", "--threads", "2")
        _, serial = run_cli(capsysbinary, "-c", "16", "--deterministic")
        assert parallel == serial


class TestVerifyMode:
    def test_agreement_through_10(self, capsysbinary):
        status, out = run_cli(capsysbinary, "verify", "10", "--deterministic")
        assert status == 0
        lines = out.decode().splitlines()
        assert len(lines) == 10
        assert all("OK" in line for line in lines)
        assert lines[6] == "order 7: OK (1 trees)"

    def test_flag_implies_verify(self, capsysbinary):
        status, out = run_cli(
            capsysbinary, "-c", "8", "--verify-against-oracle", "--deterministic"
        )
        assert status == 0
        assert out.decode().startswith("order 1: OK")

    def test_respects_degree_bound(self, capsysbinary):
        status, out = run_cli(capsysbinary, "verify", "9", "3", "--deterministic")
        assert status == 0
        assert all("OK" in line for line in out.decode().splitlines())

    def test_mismatch_exits_2(self, capsysbinary, monkeypatch):
        # Force the generator to drop one tree; verify must notice.
        real = cli.generate_ti_trees

        def lossy(n, m, func):
            state = {"dropped": False}

            def filtered(tree):
                if tree.order == 7 and not state["dropped"]:
                    state["dropped"] = True
                    return
                func(tree)

            return real(n, m, filtered)

        monkeypatch.setattr(cli, "generate_ti_trees", lossy)
        status, out = run_cli(capsysbinary, "verify", "8", "--deterministic")
        assert status == 2
        assert b"order 7: MISMATCH (generator 0, oracle 1)" in out


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["-c", "0"],
            ["-c", "12", "1"],
            ["bogus", "5"],
            ["-c"],
            ["verify", "23"],
            ["-c", "5", "--threads", "0"],
        ],
    )
    def test_exit_code_1(self, capsysbinary, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1

    def test_n_max_zero_message(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["-c", "0"])
        assert "n_max" in capsys.readouterr().err


class TestOutputFile:
    def test_writes_file(self, tmp_path):
        target = tmp_path / "trees.g6"
        status = cli.main(["-g", "9", "--deterministic", "--output", str(target)])
        assert status == 0
        assert target.read_bytes().decode().splitlines()[0] == "@"

    def test_unwritable_path_exits_3(self, tmp_path, capsys):
        status = cli.main(
            ["-c", "5", "--output", str(tmp_path / "missing" / "x.txt")]
        )
        assert status == 3
        assert "I/O error" in capsys.readouterr().err


class TestClosedPipe:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_reader_closing_early_is_a_quiet_success(self, threads):
        # -p 22 writes far more than a 64 KiB pipe buffer holds.
        env = dict(os.environ, PYTHONPATH=str(Path(titrees.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "titrees.cli", "-p", "22", "--threads", threads],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert err == b""
