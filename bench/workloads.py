"""The four benchmark workloads: inputs, timed body, checks and counters.

Each workload runs in a child process (child.py) in four steps:

  prepare(run)          inputs derived from the seed; untimed, untraced
  body(run, inputs)     the timed part: public calls or in-process CLI
                        invocations, each recorded as one operation
  check(run, inputs)    pins and invariants; a mismatch fails its operation
  counters(run, inputs) computed work counts and counts read from outputs

Pins live in pins.json, one table per scale ("full" is the benchmark,
"tiny" is the self-test) and workload. A missing pin is a failure, like a
wrong one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from collections import defaultdict
from fractions import Fraction

from metrics import SWEEP_POINTS

DEFAULT_SEED = 7

SCALES = {
    "full": {
        "exact_counts": {"tss_n": 1600, "implicit_n": 12, "degree_n": 10, "moments_n": 10},
        "exponent_sweep": {"ns": SWEEP_POINTS, "rate": 0.25},
        "montecarlo": {"n": 12, "trials": 20000},
        "graph_export": {"graph_n": 10, "graph_delta": "0.02", "sub_n": 12, "sub_delta": "0.05"},
    },
    "tiny": {
        "exact_counts": {"tss_n": 40, "implicit_n": 4, "degree_n": 4, "moments_n": 4},
        "exponent_sweep": {"ns": (8, 16), "rate": 0.25},
        "montecarlo": {"n": 6, "trials": 200},
        "graph_export": {"graph_n": 4, "graph_delta": "0.05", "sub_n": 4, "sub_delta": "0.05"},
    },
}


def make_joints(tg) -> dict:
    """T3: ternary, diagonal (1/5, 1/5, 3/10), 1/20 off it. B2: binary."""
    third = tg.Alphabet((0, 1, 2))
    off = Fraction(1, 20)
    diag = (Fraction(1, 5), Fraction(1, 5), Fraction(3, 10))
    t3 = tg.JointPmf(
        third,
        third,
        tuple(tuple(diag[i] if i == j else off for j in range(3)) for i in range(3)),
    )
    bit = tg.Alphabet((0, 1))
    b2 = tg.JointPmf(
        bit,
        bit,
        (
            (Fraction(2, 5), Fraction(1, 10)),
            (Fraction(1, 10), Fraction(2, 5)),
        ),
    )
    return {"t3": t3, "b2": b2}


def pin_text(value) -> str:
    """Exact text of a pinned value: ints, num/den, true/false, or as is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Op:
    """One public call or CLI invocation and what went wrong with it."""

    def __init__(self, name: str):
        self.name = name
        self.result = None
        self.error: str | None = None
        self.failures: list[str] = []
        self.start = self.end = 0.0  # perf_counter

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures


class Run:
    """State of one workload repetition (or of set-up) in a child process."""

    def __init__(self, tg, cli, joints, seed, cfg, pins, tracer):
        self.tg = tg
        self.cli_main = cli.main
        self.joints = joints
        self.seed = seed
        self.cfg = cfg
        self.pins = pins
        self.tracer = tracer
        self.ops: list[Op] = []
        self.report: dict = {}

    def call(self, name: str, fn, *args, **kwargs) -> Op:
        op = Op(name)
        op.start = time.perf_counter()
        try:
            op.result = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
        op.end = time.perf_counter()
        self.ops.append(op)
        return op

    def skip(self, name: str, reason: str) -> Op:
        op = Op(name)
        op.error = f"not run: {reason}"
        self.ops.append(op)
        return op

    def cli(self, argv: list[str]) -> Op:
        """Run one subcommand in-process; result is (exit code, output)."""
        buf = io.StringIO()

        def invoke():
            with self.tracer.span(f"cli.{argv[0]}"):
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    return self.cli_main(argv), buf.getvalue()

        return self.call(" ".join(argv), invoke)

    def pin(self, op: Op, key: str, value) -> None:
        text = pin_text(value)
        want = self.pins.get(key)
        if want is None:
            op.failures.append(f"{key}: no pin (observed {text[:40]})")
        elif want != text:
            op.failures.append(f"{key}: observed {text[:40]}, pinned {want[:40]}")

    def expect(self, op: Op, condition: bool, message: str) -> None:
        if not condition:
            op.failures.append(message)

    def cli_ok(self, op: Op, needle: str | None = None) -> bool:
        """Exit 0 (and `needle` in the output); False if unusable."""
        if op.error is not None:
            return False
        code, text = op.result
        self.expect(op, code == 0, f"exit {code}: {text.strip()[-200:]}")
        if needle is not None:
            self.expect(op, needle in text, f"output lacks {needle!r}")
        return code == 0


def ball_size(probs, n: int, delta: Fraction) -> int:
    """Count vectors summing to n with |c/n - p| <= delta in every cell and
    no mass where p = 0; the size of a (joint) delta-ball, from the inputs."""
    ways = {0: 1}
    for p in probs:
        lo, hi = (0, 0) if p == 0 else (
            max(0, math.ceil(n * (p - delta))),
            min(n, math.floor(n * (p + delta))),
        )
        nxt: dict[int, int] = defaultdict(int)
        for total, w in ways.items():
            for c in range(lo, min(hi, n - total) + 1):
                nxt[total + c] += w
        ways = nxt
    return ways.get(n, 0)


def _digests(run: Run, op: Op, paths) -> None:
    for path in paths:
        if os.path.exists(path):
            run.pin(op, f"sha256.{path}", sha256_file(path))
        else:
            op.failures.append(f"{path}: not written")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# exact_counts: type-level enumeration on T3, library API
# ---------------------------------------------------------------------------


class ExactCounts:
    @staticmethod
    def prepare(run: Run) -> dict:
        tg, t3, cfg = run.tg, run.joints["t3"], run.cfg
        n = cfg["degree_n"]
        params = tg.default_params(n)
        rng = random.Random(run.seed)
        queries = []
        for side, pmf, eps in (
            ("left", t3.row_marginal(), params.eps1),
            ("right", t3.col_marginal(), params.eps2),
        ):
            for t in tg.enumerate_types(pmf.alphabet.size, n, ball=(pmf, eps)):
                symbols = [s for s, c in enumerate(t.counts) for _ in range(c)]
                rng.shuffle(symbols)
                x = tg.Sequence(pmf.alphabet, tuple(symbols))
                if tg.is_typical(x, pmf, eps):
                    queries.append((side, t.counts, x))
        spec = tg.GraphSpec(joint=t3, n=n, params=params, mode="implicit")
        return {
            "tss_params": tg.default_params(cfg["tss_n"]),
            "implicit_spec": tg.GraphSpec(
                joint=t3,
                n=cfg["implicit_n"],
                params=tg.default_params(cfg["implicit_n"]),
                mode="implicit",
            ),
            "degree_graph": tg.build_graph(spec),
            "queries": queries,
            "moments_params": tg.default_params(cfg["moments_n"]),
        }

    @staticmethod
    def body(run: Run, inp: dict) -> None:
        tg, t3, cfg = run.tg, run.joints["t3"], run.cfg
        run.call(
            "typical_set_size",
            tg.typical_set_size,
            t3.row_marginal(),
            inp["tss_params"].eps1,
            cfg["tss_n"],
        )
        run.call("build_graph.implicit", tg.build_graph, inp["implicit_spec"])
        g = inp["degree_graph"]
        for side, counts, x in inp["queries"]:
            run.call(f"degree_of.{side}.{counts}", g.degree_of, x, side)
        n = cfg["moments_n"]
        rate = 2 / n
        run.call(
            "exact_pair_moments", tg.exact_pair_moments, t3, inp["moments_params"], n, rate, rate
        )

    @staticmethod
    def check(run: Run, inp: dict) -> None:
        cfg = run.cfg
        tss, graph, *degrees, moments = run.ops
        if tss.error is None:
            run.pin(tss, f"typical_set_size.n{cfg['tss_n']}", tss.result.value)
        if graph.error is None:
            g, n = graph.result, cfg["implicit_n"]
            run.pin(graph, f"implicit.n{n}.left", g.left_count.value)
            run.pin(graph, f"implicit.n{n}.right", g.right_count.value)
            run.pin(graph, f"implicit.n{n}.edges", g.edge_count.value)
        for op, (side, counts, _) in zip(degrees, inp["queries"]):
            if op.error is None:
                key = "-".join(map(str, counts))
                run.pin(op, f"degree.n{cfg['degree_n']}.{side}.{key}", op.result.value)
        if moments.error is None:
            m, n = moments.result, cfg["moments_n"]
            for field in ("m1", "m2", "alpha_exact", "left_second_exact", "right_second_exact"):
                run.pin(moments, f"moments.n{n}.{field}", getattr(m, field))

    @staticmethod
    def counters(run: Run, inp: dict) -> dict:
        spec = inp["implicit_spec"]
        m = run.ops[-1].result
        return {
            "typicality.joint_ball_size": ball_size(spec.joint.flat(), spec.n, spec.params.lam),
            "deviation.max_codebook_log2": math.log2(max(m.m1, m.m2)) if m else 0,
        }



# ---------------------------------------------------------------------------
# exponent_sweep: the paper's headline measurement on B2, library API
# ---------------------------------------------------------------------------


class ExponentSweep:
    @staticmethod
    def prepare(run: Run) -> dict:
        tg, b2 = run.tg, run.joints["b2"]
        return {
            "params": {n: tg.default_params(n) for n in run.cfg["ns"]},
            "i_xy": tg.mutual_information(b2),
            "points": {},
        }

    @staticmethod
    def body(run: Run, inp: dict) -> None:
        tg, b2, r = run.tg, run.joints["b2"], run.cfg["rate"]
        for n in run.cfg["ns"]:
            ops = {}
            inp["points"][n] = ops
            ops["moments"] = run.call(
                f"exact_pair_moments.n{n}", tg.exact_pair_moments, b2, inp["params"][n], n, r, r
            )
            m = ops["moments"].result
            names = ("suen_zero", "suen_tail", "lll", "report")
            if m is None:
                for name in names:
                    ops[name] = run.skip(f"{name}.n{n}", "moments failed")
                continue
            ops["suen_zero"] = run.call(
                f"suen_zero_bound.n{n}", tg.suen_zero_bound, m.gamma, m.theta_cap, m.theta_small
            )
            ops["suen_tail"] = run.call(
                f"suen_tail_bound.n{n}",
                tg.suen_tail_bound,
                m.gamma,
                m.theta_cap,
                m.theta_small,
                0.5,
            )
            ops["lll"] = run.call(f"lll_lower_bounds.n{n}", tg.lll_lower_bounds, m, m.m1, m.m2, n)
            lll = ops["lll"].result
            if lll is None or ops["suen_zero"].error or ops["suen_tail"].error:
                ops["report"] = run.skip(f"exponent_report.n{n}", "a bound failed")
                continue
            bounds = {
                "suen_zero": ops["suen_zero"].result,
                "suen_tail": ops["suen_tail"].result,
                "lll_symmetric": lll.symmetric if lll.symmetric_condition_ok else None,
                "lll_phi": lll.phi if lll.phi_condition_ok else None,
            }
            ops["report"] = run.call(
                f"exponent_report.n{n}", tg.exponent_report, bounds, n, r, r, inp["i_xy"]
            )

    @staticmethod
    def check(run: Run, inp: dict) -> None:
        for n, ops in inp["points"].items():
            mop = ops["moments"]
            if mop.error is None:
                for field in ("m1", "m2", "alpha_exact", "left_second_exact", "right_second_exact"):
                    run.pin(mop, f"sweep.n{n}.{field}", getattr(mop.result, field))
            for name in ("suen_zero", "suen_tail"):
                op = ops[name]
                if op.error is None:
                    run.expect(op, 0.0 <= op.result <= 1.0, f"{name} = {op.result} not in [0, 1]")
            lop = ops["lll"]
            if lop.error is None:
                lll = lop.result
                run.pin(lop, f"sweep.n{n}.symmetric_condition_ok", lll.symmetric_condition_ok)
                run.pin(lop, f"sweep.n{n}.phi_condition_ok", lll.phi_condition_ok)
                for value in (lll.symmetric, lll.phi, lll.symmetric_asymptotic_form):
                    run.expect(
                        lop, value is None or 0.0 <= value <= 1.0, f"LLL bound {value} not in [0, 1]"
                    )
            rop = ops["report"]
            if rop.error is None:
                rep = rop.result
                run.expect(rop, rep.consistency_ok is not False, "consistency_ok is False")
                for name, b in rep.bounds.items():
                    run.expect(rop, b is None or 0.0 <= b <= 1.0, f"{name} = {b} not in [0, 1]")
                # reported, not pinned: the log-domain bounds are meant to change these
                run.report[f"n{n}"] = {"exponents": rep.exponents, "flagged": rep.flagged}

    @staticmethod
    def counters(run: Run, inp: dict) -> dict:
        sizes = [
            max(ops["moments"].result.m1, ops["moments"].result.m2)
            for ops in inp["points"].values()
            if ops["moments"].result is not None
        ]
        return {"deviation.max_codebook_log2": math.log2(max(sizes)) if sizes else 0}



# ---------------------------------------------------------------------------
# montecarlo: `typigraph simulate` in-process on B2
# ---------------------------------------------------------------------------


class MonteCarlo:
    @staticmethod
    def prepare(run: Run) -> dict:
        n, trials = run.cfg["n"], run.cfg["trials"]
        rate = f"2/{n}"
        argv = ["simulate", "--dist", "b2.json", "--n", str(n), "--r1", rate, "--r2", rate]
        argv += ["--trials", str(trials), "--seed", str(run.seed), "--out", "mc.json"]
        return {"argv": argv}

    @staticmethod
    def body(run: Run, inp: dict) -> None:
        run.cli(inp["argv"])

    @staticmethod
    def check(run: Run, inp: dict) -> None:
        (op,) = run.ops
        if not run.cli_ok(op, "bracket verdict: inside"):
            return
        doc = _read_json("mc.json")["payload"]
        mc = doc["monte_carlo"]
        run.pin(op, "m1", mc["m1"])
        run.pin(op, "m2", mc["m2"])
        se = math.sqrt(mc["var_u"] / mc["trials"])
        gamma = doc["moments"]["gamma"]
        run.expect(
            op,
            abs(mc["mean_u"] - gamma) <= 4 * se,
            f"|mean_u - gamma| = |{mc['mean_u']} - {gamma}| > 4 se = {4 * se}",
        )
        run.expect(op, doc["bracket"]["inside"] is True, "bracket.inside is not true")
        if run.seed == DEFAULT_SEED:
            _digests(run, op, ("mc.json", "mc.csv"))

    @staticmethod
    def counters(run: Run, inp: dict) -> dict:
        tg, n, trials = run.tg, run.cfg["n"], run.cfg["trials"]
        m = tg.codebook_size(n, 2 / n)
        return {
            "deviation.trials": trials,
            "deviation.codewords_drawn": 2 * m * trials,
            "deviation.pair_tests": m * m * trials,
            "deviation.max_codebook_log2": math.log2(m),
        }



# ---------------------------------------------------------------------------
# graph_export: graph and subgraph export, then wring reads them back
# ---------------------------------------------------------------------------


class GraphExport:
    @staticmethod
    def prepare(run: Run) -> dict:
        c = run.cfg
        return {
            "argvs": [
                ["graph", "--dist", "b2.json", "--n", str(c["graph_n"]), "--out", "g.json",
                 "--edges", "g.csv"],
                ["wring", "--edges", "g.csv", "--graph", "g.json", "--delta", c["graph_delta"],
                 "--out", "wg.json"],
                ["subgraph", "--dist", "b2.json", "--kind", "an", "--n", str(c["sub_n"]),
                 "--out", "s.json", "--edges", "s.csv"],
                ["wring", "--edges", "s.csv", "--graph", "s.json", "--delta", c["sub_delta"],
                 "--out", "ws.json"],
            ]
        }

    @staticmethod
    def body(run: Run, inp: dict) -> None:
        for argv in inp["argvs"]:
            run.cli(argv)

    @staticmethod
    def check(run: Run, inp: dict) -> None:
        graph, wring_g, sub, wring_s = run.ops
        # the inputs do not depend on the seed, so the digests hold for every seed
        if run.cli_ok(graph, "degree-bound: PASS"):
            run.pin(graph, "graph.edges", _read_json("g.json")["edge_count"]["value"])
            _digests(run, graph, ("g.json", "g.csv"))
        if run.cli_ok(sub, "single-type verification: PASS"):
            _digests(run, sub, ("s.json", "s.csv"))
        for op, out in ((wring_g, "wg.json"), (wring_s, "ws.json")):
            if run.cli_ok(op, "converged=True"):
                payload = _read_json(out)["payload"]
                run.pin(op, f"{out}.k", payload["k"])
                _digests(run, op, (out,))

    @staticmethod
    def _edges(path: str) -> int:
        if not os.path.exists(path):
            return 0
        with open(path, "rb") as fh:
            return max(0, sum(1 for _ in fh) - 1)

    @staticmethod
    def counters(run: Run, inp: dict) -> dict:
        tg, b2, c = run.tg, run.joints["b2"], run.cfg
        params = tg.default_params(c["graph_n"])
        left = tg.typical_set_size(b2.row_marginal(), params.eps1, c["graph_n"]).value
        right = tg.typical_set_size(b2.col_marginal(), params.eps2, c["graph_n"]).value
        sub = tg.build_exact_type_subgraph(b2, c["sub_n"])
        edges_in, steps = 0, 0
        for out in ("wg.json", "ws.json"):
            if os.path.exists(out):
                payload = _read_json(out)["payload"]
                edges_in += payload["edge_count_in"]
                steps += payload["k"]
        return {
            "graph.pairs_scanned": left * right,
            "graph.edges": GraphExport._edges("g.csv"),
            "graph.csv_bytes": os.path.getsize("g.csv") if os.path.exists("g.csv") else 0,
            "subgraphs.pairs_scanned": sub.left_size.value * sub.right_size.value,
            "subgraphs.edges": GraphExport._edges("s.csv"),
            "diagnostics.edges_in": edges_in,
            "diagnostics.wring_steps": steps,
        }



WORKLOADS = {
    "exact_counts": ExactCounts,
    "exponent_sweep": ExponentSweep,
    "montecarlo": MonteCarlo,
    "graph_export": GraphExport,
}
