"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, env=None):
    proc = subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True,
        text=True, timeout=600, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def result(lines):
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    out = result(lines)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.split() == [name, line.split()[1], unit]
                   for line in lines if line.startswith(name + " "))
    if trace == 0:
        assert any("op_fail_ratio 0.0 ratio" in line for line in lines)
        assert any("op_tail_ms is p" in line for line in lines)
    else:
        assert any("tracing overhead" in line for line in lines)


def test_wrong_answer_is_counted(capsys):
    sys.path.insert(0, HERE)
    import run

    def tamper(op, stdout):
        """Drop the top level of every canonical action reported."""
        if not op.argv[0] == "canonicalize":
            return stdout
        report = json.loads(stdout)
        levels = report["value"]["payload"]["levels"]
        levels.pop(max(levels, key=int))
        return json.dumps(report)

    code = run.main(["--workload", "colimit-deep", "--seed", "3",
                     "--seconds", "1", "--size", "tiny"], tamper=tamper)
    lines = capsys.readouterr().out.splitlines()
    out = result(lines)
    assert code == 0
    assert not out["correct"]
    assert 0 < out["failed"] < out["attempted"]
    assert any(line.startswith("# FAILED canonicalize") for line in lines)
    ratio = next(line for line in lines if line.startswith("# op_fail_ratio"))
    assert float(ratio.split()[2]) == out["failed"] / out["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_do_not_depend_on_the_hash_seed(workload):
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        lines = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                      "--inputs-only", env=env)
        digests.add(next(line for line in lines if "inputs sha256" in line))
    assert len(digests) == 1, digests


def test_exits_without_result_when_the_sources_are_missing(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
