"""Tests for the command-line interface, run in-process."""

from __future__ import annotations

import os
import signal
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
        status, out = run_cli(capsysbinary, "-c", "15", "--threads", "1")
        assert status == 0
        lines = out.decode().splitlines()
        assert lines == [
            "1 1", "2 0", "3 0", "4 0", "5 0", "6 0", "7 1", "8 0", "9 1",
            "10 0", "11 6", "12 0", "13 24", "14 1", "15 82",
        ]

    def test_no_thousands_separators(self, capsysbinary):
        status, out = run_cli(capsysbinary, "count", "17", "--threads", "1")
        assert status == 0
        assert b"," not in out
        assert out.splitlines()[-1] == b"17 324"

    def test_long_mode_spelling(self, capsysbinary):
        status, out = run_cli(capsysbinary, "--count", "7", "--threads", "1")
        assert status == 0
        assert out.decode().splitlines()[6] == "7 1"

    def test_degree_bound_argument(self, capsysbinary):
        status, out = run_cli(capsysbinary, "-c", "7", "2", "--threads", "1")
        assert status == 0
        assert out.decode().splitlines() == ["1 1"] + [f"{k} 0" for k in range(2, 8)]


class TestEncodingModes:
    def test_parent_list_of_trivial_tree(self, capsysbinary):
        status, out = run_cli(capsysbinary, "-p", "1", "--threads", "1")
        assert status == 0
        assert out == b"\n"  # one empty line

    def test_line_counts_match_census(self, capsysbinary):
        total = sum(generate_ti_trees(13).values())
        for mode in ("-g", "-s", "-p"):
            status, out = run_cli(capsysbinary, mode, "13", "--threads", "1")
            assert status == 0
            assert len(out.splitlines()) == total

    def test_graph6_starts_with_trivial_tree(self, capsysbinary):
        status, out = run_cli(capsysbinary, "-g", "7", "--threads", "1")
        assert status == 0
        assert out.decode().splitlines()[0] == "@"

    def test_sparse6_lines_have_prefix(self, capsysbinary):
        status, out = run_cli(capsysbinary, "-s", "11", "--threads", "1")
        assert status == 0
        lines = out.splitlines()
        assert lines and all(line.startswith(b":") for line in lines)

    def test_readme_parent_list_example(self, capsysbinary):
        # README "Examples" shows the last line of `titrees -p 11`.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        expected = readme.split("$ titrees -p 11 | tail -1\n", 1)[1].split("\n", 1)[0]
        status, out = run_cli(capsysbinary, "-p", "11")
        assert status == 0
        assert out.decode().splitlines()[-1] == expected


class TestDeterminismAndParallel:
    def test_deterministic_runs_are_byte_identical(self, capsysbinary):
        _, first = run_cli(capsysbinary, "-p", "15", "--threads", "1")
        _, second = run_cli(capsysbinary, "-p", "15", "--threads", "1")
        assert first == second

    @pytest.mark.parametrize("mode", ["-g", "-s", "-p"])
    def test_parallel_output_matches_deterministic(self, capsysbinary, mode):
        # At n = 18 orders 17 and 18 are cut into 4 and 5 tasks, each
        # written as one block.
        _, parallel = run_cli(capsysbinary, mode, "18", "--threads", "2")
        _, serial = run_cli(capsysbinary, mode, "18", "--threads", "1")
        assert parallel == serial
        assert len(serial.splitlines()) == sum(generate_ti_trees(18).values())

    def test_parallel_census_matches(self, capsysbinary):
        _, parallel = run_cli(capsysbinary, "-c", "16", "--threads", "2")
        _, serial = run_cli(capsysbinary, "-c", "16", "--threads", "1")
        assert parallel == serial

    def test_default_threads_follow_the_affinity_mask(self, monkeypatch):
        # A process allowed on one CPU of a larger machine gets one worker.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._build_parser().parse_args(["count", "5"]).threads == 1


class TestVerifyMode:
    def test_agreement_through_10(self, capsysbinary):
        status, out = run_cli(capsysbinary, "verify", "10", "--threads", "1")
        assert status == 0
        lines = out.decode().splitlines()
        assert len(lines) == 10
        assert all("OK" in line for line in lines)
        assert lines[6] == "order 7: OK (1 trees)"

    def test_verify_reports_from_order_1(self, capsysbinary):
        status, out = run_cli(capsysbinary, "verify", "8", "--threads", "1")
        assert status == 0
        assert out.decode().startswith("order 1: OK")

    def test_respects_degree_bound(self, capsysbinary):
        # At m = 3 the cap leaves 5 of the 6 TI trees of order 11 and 16
        # of the 24 of order 13, so the oracle's degree filter must drop
        # trees for verify to pass.
        for m in ("3", "4"):
            status, out = run_cli(capsysbinary, "verify", "13", m, "--threads", "1")
            assert status == 0
            census = run_cli(capsysbinary, "-c", "13", m, "--threads", "1")[1].decode().split()
            counts = dict(zip(census[::2], census[1::2]))
            lines = out.decode().splitlines()
            assert lines == [f"order {k}: OK ({counts[str(k)]} trees)" for k in range(1, 14)]
            if m == "3":
                assert (counts["11"], counts["13"]) == ("5", "16")

    def test_mismatch_exits_2(self, capsysbinary, monkeypatch):
        # Force the generator to drop one tree; verify must notice.
        real = cli.generate_ti_trees

        def lossy(n, m, func):
            state = {"dropped": False}

            def filtered(parents):
                if len(parents) == 7 and not state["dropped"]:
                    state["dropped"] = True
                    return
                func(parents)

            return real(n, m, filtered)

        monkeypatch.setattr(cli, "generate_ti_trees", lossy)
        status, out = run_cli(capsysbinary, "verify", "8", "--threads", "1")
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
            ["-c", "5", "--deterministic"],
            ["-c", "5", "--verify-against-oracle"],
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
        status = cli.main(["-g", "9", "--threads", "1", "--output", str(target)])
        assert status == 0
        assert target.read_bytes().decode().splitlines()[0] == "@"

    def test_parallel_file_matches_serial_stdout(self, tmp_path, capsysbinary):
        target = tmp_path / "trees.s6"
        assert cli.main(["-s", "18", "--threads", "2", "--output", str(target)]) == 0
        status, serial = run_cli(capsysbinary, "-s", "18", "--threads", "1")
        assert status == 0
        assert target.read_bytes() == serial

    def test_unwritable_path_exits_3(self, tmp_path, capsys):
        status = cli.main(
            ["-c", "5", "--output", str(tmp_path / "missing" / "x.txt")]
        )
        assert status == 3
        assert "I/O error" in capsys.readouterr().err


def start_cli(*argv, **kwargs):
    """Run the command line in a child process, stderr piped."""
    env = dict(os.environ, PYTHONPATH=str(Path(titrees.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-m", "titrees.cli", *argv], stderr=subprocess.PIPE, env=env, **kwargs
    )


class TestClosedPipe:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_reader_closing_early_is_a_quiet_success(self, threads):
        # -p 22 writes far more than a 64 KiB pipe buffer holds.
        proc = start_cli("-p", "22", "--threads", threads, stdout=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""


class TestInterrupt:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ctrl_c_is_a_quiet_exit_130(self, threads):
        # SIGINT goes to the whole process group, as Ctrl-C in a terminal
        # does, once output beyond the single vertex's one-byte line has
        # arrived.  The rest comes from the phase-2 scan, so the signal
        # lands mid-scan however fast the run is; -p 32 prints millions of
        # lines and would run for minutes.
        proc = start_cli("-p", "32", "--threads", threads, stdout=subprocess.PIPE, start_new_session=True)
        try:
            received = b""
            while len(received) < 2:
                chunk = proc.stdout.read1()
                assert chunk, "the run ended before its phase-2 output"
                received += chunk
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert err == b""


class TestStartUp:
    def test_a_serial_run_imports_no_process_pool(self, monkeypatch):
        # The process pool's modules add about 20 ms to start-up, so
        # generate_ti_trees imports them only for a parallel run; the tree
        # records are named tuples, so dataclasses (and the inspect it
        # pulls in) never loads.  A bare interpreter imports none of these.
        # Python lists every module it imports on stderr under this variable.
        monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
        proc = start_cli("-c", "12", "--threads", "1", stdout=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert out.splitlines()[-1] == b"12 0"
        imported = {line.rsplit(b"|", 1)[-1].strip() for line in err.splitlines()}
        assert b"titrees.generation" in imported
        assert not {b"multiprocessing", b"concurrent.futures", b"dataclasses", b"inspect"} & imported
