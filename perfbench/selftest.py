"""Self-test of the benchmark: a shortened run of every workload, traced and not.

    python3 perfbench/selftest.py

Asserts that each run prints every metric BENCHMARK.json names for its
mode, in the table and in the final JSON line, plus the operation counts;
that a traced name which no longer exists is reported absent without
stopping the run; and that the benchmark exits non-zero, printing no
result, when the program's sources are missing.  The shortened runs stop
their solves early, so they report failed operations; that is expected.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr[-2000:]}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1
            printed = {m: {"unit": v["unit"]} for m, v in result["metrics"].items()}
            assert set(printed) == set(expected), set(printed) ^ set(expected)
            for name, unit in expected.items():
                assert printed[name]["unit"] == unit, (name, printed[name], unit)
                assert any(line.split()[:1] == [name] for line in lines[:-1]), f"{name} not in table"
            assert any("ops_attempted=" in line and "ops_failed=" in line for line in lines)
            print(f"ok  {workload:<16} trace {trace}: {len(expected)} metrics printed")


def check_absent_span() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer

    import vqtoeplitz.circuits  # noqa: F401

    tracer = Tracer(enabled=True)
    tracer.install("vqtoeplitz", {"circuits.gone": "circuits.no_such_function",
                                  "circuits.run_statevector": "circuits.run_statevector"})
    try:
        assert tracer.absent == ["circuits.gone"], tracer.absent
        from vqtoeplitz.circuits import Circuit, run_statevector

        run_statevector(Circuit(1).h(0))
        assert tracer.names == ["circuits.run_statevector"], tracer.names
    finally:
        tracer.uninstall()
    print("ok  a missing traced name is reported absent; the others still record")


def check_no_sources() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "paper-1d", 0)
        assert proc.returncode != 0, "ran without the program's sources"
        assert '"metrics"' not in proc.stdout, "printed a result without the program's sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without the program's sources the benchmark exits non-zero, printing no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_absent_span()
    check_no_sources()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
