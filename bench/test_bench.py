"""Tests of the benchmark itself: names, the correctness gate, the traced run.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

import layers
import run
from workloads import DIGESTS, WORKLOADS, census_text, check_output, command_line

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_names_are_well_formed_and_match_the_code():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert all(NAME.fullmatch(name) for name in [*WORKLOADS, *run.END_TO_END_UNITS, *layers.PER_LAYER_UNITS])
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.PER_LAYER_UNITS


def test_reference_digests_are_recorded_in_benchmark_json():
    for entry in BENCHMARK["workloads"]:
        workload = WORKLOADS[entry["name"]]
        assert DIGESTS[workload.mode, workload.n_max] in entry["why"]


def test_seed_picks_a_spelling_of_the_same_command():
    workload = WORKLOADS["emit-par"]
    spellings = {tuple(command_line(workload, seed)) for seed in range(20)}
    assert len(spellings) > 1
    assert all(argv[0] in ("-s", "sparse6", "--sparse6") and argv[1] == "24" for argv in spellings)
    assert command_line(workload, 7) == command_line(workload, 7)
    assert command_line(workload, 7, n_max=1)[1] == "1"


def test_gate_accepts_the_pinned_census_and_rejects_a_wrong_one():
    good = census_text(30)
    assert check_output("count", 30, 0, good) is None
    wrong = good.replace(b"29 3277565", b"29 3277566")
    assert "census" in check_output("count", 30, 0, wrong)
    assert "census" in check_output("count", 30, 0, good[:-1])
    assert "exit status" in check_output("count", 30, 1, good)


def test_gate_rejects_a_corrupted_output():
    corrupted = b"@\n" * 3
    assert "sha256" in check_output("graph6", 24, 0, corrupted)
    assert "sha256" in check_output("sparse6", 1, 0, b":A\n")
    assert check_output("sparse6", 1, 0, b":@\n") is None


def test_gated_cli_run_counts_a_failure():
    failures: list[str] = []
    sample = run.gated(WORKLOADS["census"], ["-c", "12", "--threads", "1"], 12, failures)
    assert not failures
    assert sample["trees"] == sum(int(x.split()[1]) for x in census_text(12).splitlines())
    assert sample["wall_s"] > 0 and sample["cpu_s"] > 0 and sample["peak_rss_mb"] > 0
    sample = run.gated(WORKLOADS["census"], ["-c", "0"], 12, failures)
    assert sample["trees"] == 0 and len(failures) == 1 and "exit status 1" in failures[0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_run_reports_every_layer_metric(name):
    result, detail = layers.traced_run(WORKLOADS[name], seed=1, seconds=0.01, src=run.SRC, n_max=16)
    assert result["correct"], detail["failures"]
    assert set(result["metrics"]) == set(layers.PER_LAYER_UNITS)
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert metrics["generation.trees"] == sum(int(x.split()[1]) for x in census_text(16).splitlines())
    assert metrics["wti.join_calls.pool"] == metrics["enumeration.pool_trees"] - 1 + metrics["enumeration.failed_joins"]
    assert detail["self_sum_s"] == pytest.approx(metrics["generation.run_s"], abs=1e-6)
    if WORKLOADS[name].mode == "count":
        assert metrics["wti.join_calls.emit"] == 0 and metrics["formats.encode_s"] == 0
    else:
        assert metrics["wti.join_calls.emit"] > 0 and metrics["formats.encode_s"] > 0


def test_forked_workers_drop_their_spans():
    layers.load_package(run.SRC)
    stage = layers.stage(layers.LAYER_TARGETS, ["-g", "18", "--threads", "2"], "graph6", 18)
    serial = layers.stage(layers.LAYER_TARGETS, ["-g", "18", "--threads", "1"], "graph6", 18)
    assert stage["failure"] is None and stage["digest"] == serial["digest"]
    # Phase-2 trees are joined and encoded in the workers only.
    assert stage["tracer"].spans["wti.join_wti_trees.emit"][0] == 0
    assert serial["tracer"].spans["wti.join_wti_trees.emit"][0] > 0


def test_missing_public_name_reports_zero_instead_of_crashing(monkeypatch):
    layers.load_package(run.SRC)
    import titrees.formats

    monkeypatch.delattr(titrees.formats, "parent_list_line")
    result, detail = layers.traced_run(WORKLOADS["emit"], seed=1, seconds=0.01, src=run.SRC, n_max=12)
    assert result["correct"]
    assert "formats.parent_list_line" in detail["missing"]
    assert result["metrics"]["formats.parent_list_us"]["value"] == 0


def test_tracer_uninstall_restores_every_binding():
    layers.load_package(run.SRC)
    import titrees.cli
    import titrees.generation

    before = (titrees.generation.join_wti_trees, dict(titrees.cli._ENCODERS), titrees.cli.main)
    tracer = layers.Tracer()
    tracer.install(layers.LAYER_TARGETS)
    assert titrees.generation.join_wti_trees is not before[0]
    assert titrees.cli._ENCODERS["graph6"] is not before[1]["graph6"]
    tracer.uninstall()
    assert (titrees.generation.join_wti_trees, titrees.cli._ENCODERS, titrees.cli.main) == before


def test_refuses_to_run_without_the_package_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "census", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_census_digest_is_the_pinned_text():
    assert hashlib.sha256(census_text(30)).hexdigest() == DIGESTS["count", 30]
