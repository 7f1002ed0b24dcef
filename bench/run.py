"""typigraph benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing. Each
repetition of the workload runs in its own child process (child.py) with a
wall-clock timeout, one at a time, so peak memory is per workload and a
hang counts as a failed operation. After the minimum number of
repetitions, more run while the next one is expected to end within
`--seconds`.

  --trace 0  end-to-end metrics, tracing off, at least three repetitions,
             each after three set-up-only children. wall_s is the body's
             wall time with every operation at its median repetition (see
             body_wall); setup_s and peak_rss_mb are medians over the run's
             children. Times are in reference seconds (pace.py): rescaled
             to a fixed core speed, so that the host's load does not move
             them.
  --trace 1  per-layer metrics: medians over traced repetitions, each
             paired with an untraced one; trace.overhead_s is the
             difference of their wall_s. The spans are written to
             .bench_out/trace-<workload>-seed<seed>.json.

Human-readable lines come first. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. An operation
is one public call or CLI invocation; it fails if it raises, exits non-zero,
times out or fails a check, and failed/attempted is the fail ratio.
The exit code is 0 once that line is printed, and 2 if there is nothing
to measure (no typigraph sources, or no repetition finished).
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES_PER_REP = 3  # set-up-only children before each untraced repetition
MIN_REPS = 3  # untraced runs: every operation gets at least a median of three
CHILD_TIMEOUT_S = 90.0


def run_child(workload, seed, scale, trace=False, setup_only=False, corrupt=False) -> dict:
    """One child process in a fresh temporary directory under the checkout.

    Returns its result, or a result with one failed operation when the child
    timed out, crashed, or printed no result.
    """
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--scale", scale]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--corrupt-pins"] * corrupt
    try:
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=workdir,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ops": [["child", False, f"timed out after {CHILD_TIMEOUT_S:.0f} s"]]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"ops": [["child", False, f"exit {proc.returncode}: {' | '.join(tail)}"]]}
    return json.loads(lines[-1][len("RESULT ") :])


def median_of(results: list[dict], key: str) -> float | None:
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def body_wall(results: list[dict]) -> float:
    """Body wall time with each operation at its median repetition.

    Every repetition runs the same operations in the same order, each timed
    in reference seconds (pace.py).
    """
    names = [op[0] for op in results[0]["body"]]
    same = [r["body"] for r in results if [op[0] for op in r["body"]] == names]
    return sum(statistics.median(body[i][1] for body in same) for i in range(len(names)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny: small inputs with their own pins, for the self-test")
    parser.add_argument("--corrupt-pins", action="store_true",
                        help="replace every pin by a wrong value (self-test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "typigraph" / "__init__.py").is_file():
        print(f"error: no typigraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)

    def child(**kw) -> dict:
        return run_child(args.workload, args.seed, args.scale, corrupt=args.corrupt_pins, **kw)

    everything: list[dict] = []
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        # untraced: set-up-only children, then one repetition; traced: a pair
        # of repetitions, untraced then traced, so the overhead compares like
        # with like
        if not args.trace:
            everything += [child(setup_only=True) for _ in range(SETUP_SAMPLES_PER_REP)]
        plain.append(child())
        everything.append(plain[-1])
        if args.trace:
            traced.append(child(trace=True))
            everything.append(traced[-1])
        rounds = len(plain)
        elapsed = time.monotonic() - start
        enough = rounds >= (1 if args.trace else MIN_REPS)
        if enough and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    with contextlib.suppress(OSError):
        (ROOT / ".bench_tmp").rmdir()  # only if empty: another run may share it

    ops = [op for r in everything for op in r["ops"]]
    failures = [op for op in ops if not op[1]]
    plain_ok = [r for r in plain if "wall_s" in r]
    traced_ok = [r for r in traced if "per_layer" in r]
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"repetitions {len(plain)} untraced, {len(traced)} traced")
    print(f"operations {len(ops)}  failed {len(failures)}  "
          f"fail_ratio {len(failures) / len(ops):.6f}")
    seen = set()
    for name, _, detail in failures:
        if (name, detail) not in seen and len(seen) < 20:
            seen.add((name, detail))
            print(f"  FAIL {name}: {detail}")
    if not plain_ok or (args.trace and not traced_ok):
        print("error: no repetition finished; nothing to report", file=sys.stderr)
        return 2

    wall = body_wall(plain_ok)
    metrics = {
        "setup_s": median_of(everything, "setup_s"),
        "wall_s": wall,
        "peak_rss_mb": median_of(plain_ok, "peak_rss_mb"),
    }
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in plain_ok)
    raws = ", ".join(f"{r['raw_wall_s']:.3f}" for r in plain_ok)
    how = {
        "setup_s": f"median of {sum('setup_s' in r for r in everything)} set-ups",
        "wall_s": f"each operation at its median of {len(plain_ok)}; whole bodies took "
        f"{walls} reference s, {raws} s",
        "peak_rss_mb": f"median of {len(plain_ok)}",
    }
    print("end-to-end (untraced)")
    for name, unit, _ in END_TO_END:
        print(f"  {name:<12} {metrics[name]:>12.6f} {unit:<3} {how[name]}")
    for point, info in plain_ok[0].get("report", {}).items():
        print(f"  {point}: exponents {info['exponents']} flagged {info['flagged']}")

    if args.trace:
        layer = {
            name: statistics.median(r["per_layer"][name] for r in traced_ok)
            for name, *_ in PER_LAYER
            if name != "trace.overhead_s"
        }
        layer["trace.overhead_s"] = body_wall(traced_ok) - body_wall(plain_ok[: len(traced_ok)])
        absent = traced_ok[0]["absent"]
        print(f"per-layer (traced medians, n={len(traced_ok)}; "
              f"tracing overhead {layer['trace.overhead_s']:+.6f} s)")
        for name, unit, kind, source in PER_LAYER:
            note = {"computed": "computed", "output": "from outputs"}.get(kind, "")
            if kind == "rate":
                note = f"base {source[0]} = {layer[source[0]]:g}"
            print(f"  {name:<44} {layer[name]:>16.6f} {unit:<6} {note}")
        if absent:
            print(f"  absent (wrapped name no longer exists, reported as 0): {', '.join(absent)}")
        top = [s for r in traced_ok for s in r["spans"] if s["parent"] is None]
        if top:
            peak = max(top, key=lambda s: s["rss_hwm_mb"])
            print(f"  peak rss {peak['rss_hwm_mb']:.1f} MB reached by {peak['name']}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "overhead_s": layer["trace.overhead_s"],
                    "absent": absent,
                    "repetitions": [
                        {"wall_s": r["wall_s"], "spans": r["spans"]} for r in traced_ok
                    ],
                },
                fh,
                indent=1,
            )
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        metrics = layer

    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
