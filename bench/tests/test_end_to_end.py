"""The one command, end to end at smoke scale, and its contract."""

import json
import os
import re
import subprocess
import sys

import pytest

import harness
import layers
import reference
import run
from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def command(*extra):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_declared_metric(name, trace):
    done = command("--workload", name, "--smoke", "--seed", "3",
                   "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= harness.SMOKE_EVENTS // 2
    declared = contract()["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        # every name the command prints is a declared one, with its unit
        assert re.search(r"^  {} +\S+ {}".format(
            re.escape(metric["name"]), re.escape(metric["unit"])),
            done.stdout, re.MULTILINE), metric["name"]


def test_contract_names_match_the_code():
    declared = contract()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in declared["per_layer"]} == layers.PER_LAYER
    assert declared["paths"] == ["bench"]
    names = [w["name"] for w in declared["workloads"]] \
        + [m["name"] for m in declared["end_to_end"]] \
        + [m["name"] for m in declared["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    # every boundary's self time lands in a declared metric
    assert set(layers.SELF_METRICS) <= set(layers.PER_LAYER)
    assert set(layers.PER_CALL_METRIC.values()) <= set(layers.PER_LAYER)


def test_a_perturbed_reference_fails_the_run(monkeypatch, tmp_path):
    """The oracle can fail: shift one expected count and the command's
    verdict flips, with the exit code."""
    truth = reference.histogram

    def off_by_one(column, maxbins):
        expected = truth(column, maxbins)
        key = sorted(expected, key=str)[0]
        expected[key] = {"count": expected[key]["count"] + 1.0}
        return expected

    monkeypatch.setattr(reference, "histogram", off_by_one)
    monkeypatch.setattr(run, "SCRATCH", str(tmp_path))
    code = run.main(["--workload", "flights_warm", "--smoke", "--seed", "3",
                     "--out", str(tmp_path / "record.json")])
    assert code == 1
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["failed"] > 0 and record["failed_share"] > 0
    assert any("reference" in message for message in record["errors"])


def test_without_the_program_the_command_fails_and_prints_no_result(
        tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ it exits
    non-zero without a result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flights_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
