"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at a few lines, untraced and traced, plus the
``all`` mode, and checks the shape of the result line against
``BENCHMARK.json``. It also checks that the benchmark refuses to run, with
a non-zero exit and no result line, in a directory holding only
``BENCHMARK.json`` and the benchmark's own files. Takes about a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

TOY_SIZES = {"align-drift": 40, "align-scale": 200, "tune-dev": 40, "evaluate-mt": 30}


def result_of(argv: list) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv)
    assert code == 0, f"{argv} exited {code}"
    return json.loads(buffer.getvalue().splitlines()[-1])


def check_shape(result: dict, expected: dict, argv: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (argv, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    assert set(result["metrics"]) == set(expected), (argv, set(result["metrics"]) ^ set(expected))
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}, entry
        assert isinstance(entry["value"], (int, float)), (name, entry)
        assert entry["unit"] == expected[name], (name, entry["unit"], expected[name])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }, "BENCHMARK.json workloads differ from workloads.py"
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for name, size in TOY_SIZES.items():
        WORKLOADS[name] = dataclasses.replace(WORKLOADS[name], size=size)
    for name in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
            check_shape(result_of(argv), expected, argv)
            print(f"ok {name} trace={trace}")
    argv = ["--workload", "all", "--seed", "4", "--seconds", "0", "--trace", "1"]
    expected = {
        f"{w}/{m}": unit for w in WORKLOADS for m, unit in {**end_to_end, **per_layer}.items()
    }
    check_shape(result_of(argv), expected, argv)
    print("ok all")

    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "align-drift", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    print("ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
