"""Self-test of the benchmark: every workload at toy size, both modes.

    python3 bench/selftest.py

Checks that each run exits 0 and prints, as its last line, exactly the keys
`correct`, `attempted`, `failed` and `metrics`; that the metrics are exactly
the ones `BENCHMARK.json` names for the mode, with its units and finite
values; and that the run reports the correctness checks it made. Then it
checks that the checks can fail: a doctored `expected.json` must give
`"correct": false`, no metrics and exit code 1, and a copy of the benchmark
without the program beside it must exit non-zero without a result.
Takes two to three minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = HERE / "out" / "selftest"

TRAIN_GATES = {"finite_loss", "val_loss_repeats", "val_loss_recorded"}
DECODE_GATES = {"nbest_ranking", "width1_equals_greedy", "quality_recorded"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = SPEC["command"] + list(args)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int) -> None:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--toy")
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int) and result["failed"] == 0, label
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, (
        label, set(result["metrics"]) ^ {m["name"] for m in wanted})
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (label, m)
    report = json.loads(lines[-2])
    gates = set(report["gates"])
    want_gates = TRAIN_GATES | DECODE_GATES
    if workload == "decode":
        want_gates |= {"checkpoint_sha256"}
    assert want_gates <= gates, (label, want_gates - gates)
    env = json.loads(lines[0])["environment"]
    assert env["blas_threads_requested"] >= 1 and env["nproc"] >= 1, label
    print(f"ok  {label}: {len(result['metrics'])} metrics, gates {sorted(gates)}")


def copy_bench(dest: Path, with_program: bool) -> None:
    """Copy the benchmark (and, if asked, the program's sources) to `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    for path in SPEC["paths"] + (["src"] if with_program else []):
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def check_gate_fails() -> None:
    doctored = SCRATCH / "doctored"
    copy_bench(doctored, with_program=True)
    recorded = doctored / "bench" / "expected.json"
    expected = json.loads(recorded.read_text(encoding="utf-8"))
    expected["toy/train_paper/3"]["val_loss"] *= 1.01
    recorded.write_text(json.dumps(expected), encoding="utf-8")
    proc = bench("--workload", "train_paper", "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--toy", cwd=doctored)
    shutil.rmtree(doctored)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1 and result["correct"] is False and result["metrics"] == {}, proc
    print("ok  a wrong recorded val_loss fails the run without timings")


def check_needs_program() -> None:
    bare = SCRATCH / "bare"
    copy_bench(bare, with_program=False)
    proc = bench("--workload", "train_paper", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok  without the program beside it the benchmark exits", proc.returncode)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace)
    check_gate_fails()
    check_needs_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
