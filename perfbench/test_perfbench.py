"""Tests of the benchmark itself.

    python -m pytest perfbench

Each workload runs at its tiny size through the real command line; the
report checks are fed real program output and tampered copies of it.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = run.SIZES["tiny"]


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    details = json.loads(proc.stdout.splitlines()[-2])["details"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in named})
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert details["failed_frac"] == 0 and not details["problems"]
    assert set(details["machine"]) == {"python", "cpu_count", "cpu_model",
                                       "commit", "src_sha256"}
    assert len(details["report_sha256"]) == 64
    if trace:
        assert details["missing_wraps"] == []
    if trace and workload == "random-deep":
        assert details["report_sha256_workers_1"] == details["report_sha256"]


def test_same_seed_gives_same_inputs(tmp_path):
    def texts(seed: int, name: str) -> list[str]:
        workdir = tmp_path / name
        workdir.mkdir()
        return [f.read_text()
                for f in run.VerifyCli(seed, TINY, workdir).inputs()]

    assert texts(5, "a") == texts(5, "b") != texts(6, "c")


def real_report(workload: run.Workload) -> tuple[str, run.Op]:
    op = workload.op(0)
    result = run.run_op(op, workload.workdir)
    assert result.problems == [] and result.failed == 0
    return result.text, op


@pytest.mark.parametrize("old, new", [
    ("violations = 0", "violations = 1"),
    ("# lo-campaign-report v1", "# something else"),
])
def test_tampered_campaign_report_fails_the_check(tmp_path, old, new):
    text, op = real_report(run.GridPlanar(1, TINY, tmp_path))
    assert op.check(text) == (0, [])
    assert old in text
    failed, problems = op.check(text.replace(old, new, 1))
    assert problems


def test_campaign_errors_count_as_failed_operations(tmp_path):
    text, op = real_report(run.GridPlanar(1, TINY, tmp_path))
    assert op.check(text.replace("errors = 0", "errors = 2", 1)) == (2, [])


def test_campaign_check_counts_instances_and_tight(tmp_path):
    text, op = real_report(run.GridPlanar(1, TINY, tmp_path))
    fields = run.header_fields(text)
    for key in ("instances", "tight"):
        wrong = f"{key} = {int(fields[key]) + 1}"
        assert op.check(text.replace(f"{key} = {fields[key]}", wrong, 1))[1]


@pytest.mark.parametrize("key, value", [
    ("p_exact", "1"),
    ("p_projected", "0"),
    ("bound", "1/2"),
    ("k", "7"),
    ("chain_holds", "false"),
    ("target", "0,0"),
])
def test_tampered_verify_report_fails_the_check(tmp_path, key, value):
    text, op = real_report(run.VerifyCli(1, TINY, tmp_path))
    assert op.check(text) == (0, [])
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in text.splitlines()]
    assert lines != text.splitlines()
    failed, problems = op.check("\n".join(lines) + "\n")
    assert failed == 1 and problems


def test_grid_expectation_matches_known_counts():
    # lo campaign on the planar grid at n <= 3 reports 8195 instances,
    # 5545 of them tight.
    assert run.grid_expectation(run.CAMPAIGN_NORMS, 3) == (8195, 5545)


def test_tracer_restores_every_wrapped_name(capsys):
    sys.path.insert(0, str(run.SRC))
    modules = {m: importlib.import_module(f"littlewood_offord.{m}")
               for m, _, _ in tracer.WRAPS}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracer.WRAPS}
    recorder = tracer.Recorder()
    with recorder.installed():
        assert all(getattr(modules[m], a) is not fn
                   for (m, a), fn in before.items())
        assert modules["cli"].main(["bound", "6", "2"]) == 0
    assert capsys.readouterr().out == "15/64 = 0.234375\n"
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())
    assert recorder.missing == []


def test_summarize_subtracts_child_spans():
    names = ["outer", "inner"]
    # outer [0, 10] holds inner [1, 3] and inner [4, 8].
    summary = tracer.summarize(names, [0, 1, 1], [-1, 0, 0],
                               [0.0, 1.0, 4.0], [10.0, 3.0, 8.0])
    assert summary["outer"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    assert summary["inner"] == {"calls": 2, "s": 6.0, "self_s": 6.0}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "grid-planar", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
