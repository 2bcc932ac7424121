"""Smoke test of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench/test_smoke.py -q

A tiny run of each workload must print every metric named in
BENCHMARK.json with its unit; generators must be deterministic per seed;
the oracle must agree with the verdicts and exit codes that
tests/test_cli.py pins; and a directory holding only the benchmark must
make it exit with an error and no result.
"""

from __future__ import annotations

import ast
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in want:
        assert f"{m['name']} " in proc.stdout
    for name in ("failed_ratio", "wrong_verdicts", "undecided_ratio"):
        assert name in proc.stdout
    assert ("defect probe" in proc.stdout) == (workload == "certify-mix" and not trace)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(workload):
    make = workloads.WORKLOADS[workload]
    a, b, c = make(3, ROOT), make(3, ROOT), make(4, ROOT)
    assert a == b
    assert [j.doc for j in a] != [j.doc for j in c]
    assert all(j.expect in (oracle.HOLDS, oracle.FAILS) for j in a)


def test_oracle_agrees_with_hand_answers_where_it_decides():
    cases = {**workloads.demo_configs(ROOT), **workloads.HAND_CASES}
    decided = 0
    for name, doc in cases.items():
        v = oracle.verdict(doc)
        if v is not None:
            decided += 1
            assert v == workloads.HAND[name], name
    assert decided >= 6


def _max_net(slope):
    g = f"{slope}*s"
    return {"n": 2, "gains": [["0", g], [g, "0"]],
            "external_gains": ["0", "0"], "mu": ["max", "max"]}


LINEAR_MODEL = {"model": {
    "family": "linear", "A": [[[-1.0]], [[-1.0]]],
    "coupling": [{"i": 0, "j": 1, "matrix": [[0.2]]},
                 {"i": 1, "j": 0, "matrix": [[0.2]]}],
    "B": [[[1.0]], [[1.0]]], "Q": [[[2.0]], [[2.0]]], "epsilon": 0.5}}

SATURATING_PAIR = {"n": 2, "gains": [["0", "1*s/(1+s)"], ["1*s/(1+s)", "0"]],
                   "external_gains": ["0", "0"], "mu": ["sum", "sum"]}


@pytest.mark.parametrize("doc, expect, code", [
    (_max_net(0.5), oracle.HOLDS, 0),
    (_max_net(2.0), oracle.FAILS, 1),
    (SATURATING_PAIR, workloads.HAND["bounded_pair"], 0),
    (LINEAR_MODEL, oracle.HOLDS, 0),
])
def test_oracle_matches_the_cli_pins(tmp_path, doc, expect, code):
    if doc is not SATURATING_PAIR:
        assert oracle.verdict(doc) == expect
    sys.path.insert(0, str(ROOT / "src"))
    from smallgain import cli

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    job = workloads.Job("pin", doc, ("check",), expect, "pin")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        got = cli.main(["check", str(cfg), "--seed", "0"])
    assert got == code
    assert run.judge(job, "check", got, out.getvalue(), "") == "ok"


def test_oracle_does_not_use_the_program():
    for name in ("oracle.py", "workloads.py"):
        tree = ast.parse((HERE / name).read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert imported <= {"__future__", "csv", "dataclasses", "json", "math",
                            "numpy", "oracle", "pathlib", "re"}, imported


def test_certificate_recheck_rejects_a_bad_path(tmp_path):
    path = tmp_path / "p.path.csv"
    path.write_text("r,sigma_1,sigma_2,margin_min\n1,1,1,0\n2,2,2,0\n")
    assert oracle.recheck_path_csv(_max_net(0.5), str(path))[0]
    assert not oracle.recheck_path_csv(_max_net(2.0), str(path))[0]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    proc = _run("certify-mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
