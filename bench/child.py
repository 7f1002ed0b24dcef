"""One benchmark repetition in a fresh process; run.py starts it.

    python3 bench/child.py --workload W --seed S --scale full|tiny
        --t0 MONOTONIC [--trace] [--setup-only] [--corrupt-pins]

The working directory is a fresh temporary directory that the parent owns.
Set-up runs from process start until typigraph is imported and the input
distributions are written and loaded; `--t0` is the parent's
`time.monotonic()` just before it started this process, so set-up time
includes interpreter start. Every time the child reports is in reference
seconds (see pace.py): set-up, each operation of the body, and each span.
The last line of stdout is `RESULT <json>`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from pace import Pace

BENCH = Path(__file__).resolve().parent


def main() -> int:
    pace = Pace()
    pace.start()
    paced_from = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-pins", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH.parent / "src"))
    import typigraph as tg
    import typigraph.cli as cli

    import metrics
    from spans import Tracer
    from workloads import SCALES, WORKLOADS, Run, make_joints

    tracer = Tracer(f"{args.workload}-{args.seed}-{time.monotonic_ns()}")
    if args.trace:
        tracer.install()
    with open(BENCH / "pins.json", "r", encoding="utf-8") as fh:
        pins = json.load(fh).get(args.scale, {}).get(args.workload, {})
    if args.corrupt_pins:
        pins = {key: "corrupted" for key in pins}
    joints = make_joints(tg)

    setup = Run(tg, cli, joints, args.seed, {}, {}, tracer)
    for name, joint in joints.items():
        tg.save_distribution(joint, f"{name}.json")
    tracer.active = True
    loads = {
        name: setup.call(f"load_distribution {name}.json", tg.load_distribution, f"{name}.json")
        for name in joints
    }
    tracer.active = False
    setup_end = time.perf_counter()
    setup_raw_s = time.monotonic() - args.t0
    for name, op in loads.items():
        if op.error is None:
            setup.expect(op, op.result == joints[name], f"{name}.json does not load back equal")

    result: dict = {}
    run = Run(tg, cli, joints, args.seed, SCALES[args.scale][args.workload], pins, tracer)
    if not args.setup_only:
        workload = WORKLOADS[args.workload]
        inputs = workload.prepare(run)
        tracer.active = True
        start = time.perf_counter()
        workload.body(run, inputs)
        end = time.perf_counter()
        tracer.active = False
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pace.widen(end)
        result["wall_s"] = pace.reference_seconds(start, end)
        result["raw_wall_s"] = end - start
        result["body"] = [[op.name, pace.reference_seconds(op.start, op.end)] for op in run.ops]
        for span in tracer.spans:
            span["ref_s"] = pace.reference_seconds(span["start"], span["end"])
        workload.check(run, inputs)
        result["report"] = run.report
        if args.trace:
            result["per_layer"] = metrics.per_layer(tracer.spans, workload.counters(run, inputs))
            result["spans"] = tracer.spans
            result["absent"] = tracer.absent
    pace.widen(setup_end)  # returns at once when a body ran after set-up
    pace.stop()
    result["setup_s"] = setup_raw_s * pace.factor(paced_from, setup_end)
    result["ops"] = [
        [op.name, op.ok, op.error or "; ".join(op.failures)] for op in setup.ops + run.ops
    ]
    print("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
