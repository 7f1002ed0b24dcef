"""Fast self-test of the benchmark harness at tiny sizes (about 10 s).

    python3 bench/selftest.py

Checks that BENCHMARK.json and metrics.py declare the same workloads and
metrics with the same units; that every workload, untraced and traced,
emits exactly the metrics of its mode with correct = true and no failed
operation; that corrupted pins show up as failed operations; and that the
benchmark refuses to report without the typigraph sources beside it.
Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--seconds", "0", "--scale", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    problems: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        mode: {m["name"]: m["unit"] for m in spec[mode]} for mode in ("end_to_end", "per_layer")
    }
    expected = {
        "end_to_end": {name: unit for name, unit, _ in END_TO_END},
        "per_layer": {name: unit for name, unit, *_ in PER_LAYER},
    }
    for mode in expected:
        if declared[mode] != expected[mode]:
            problems.append(f"BENCHMARK.json {mode} differs from metrics.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    for workload in WORKLOADS:
        for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            try:
                res = result_of(bench("--workload", workload, "--seed", "7", "--trace", str(trace)))
            except (RuntimeError, ValueError, IndexError) as exc:
                problems.append(f"{label}: {exc}")
                continue
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{label}: correct={res['correct']} failed={res['failed']}")
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != expected[mode]:
                problems.append(f"{label}: emitted metrics differ from {mode}")
            print(f"{label}: attempted {res['attempted']} failed {res['failed']}")

    res = result_of(bench("--workload", "exact_counts", "--seed", "7", "--trace", "0", "--corrupt-pins"))
    if res["correct"] or res["failed"] == 0:
        problems.append("corrupted pins were not reported as failures")
    print(f"corrupted pins: attempted {res['attempted']} failed {res['failed']}")

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "montecarlo", "--seed", "7", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without typigraph sources the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # only if empty: a benchmark run may share it

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
