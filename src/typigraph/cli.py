"""Command-line front end.

Subcommands: info (entropic summary of a distribution file), graph
(build/export a typicality graph with degree-bound verification), subgraph
(single-type or auxiliary-conditional construction with rate verification),
simulate (Monte Carlo of the pair count next to its analytic bounds), and
wring (per-letter dependence removal trace on an edge CSV).

Conventions: every JSON output embeds the resolved config and its sha256;
floats are fixed at 6 decimals; exact rationals print as "num/den"; a fixed
(config, seed) pair yields byte-identical output. Exit codes: 0 success,
2 config/input error, 3 resource cap, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from .core import (
    DEFAULT_CAP,
    Alphabet,
    CapExceeded,
    CondPmf,
    InvariantViolation,
    JointPmf,
    Pmf,
    _decimal,
    _load_json,
    _repeats,
    _write_json,
    conditional_entropy,
    entropy,
    format_fraction,
    joint_entropy,
    load_distribution,
    mutual_information,
    parse_fraction,
    replace,
)
from .typicality import (
    DEFAULT_SCHEDULE,
    TypicalityParams,
    schedule_delta,
)
from .graph import (
    GRAPH_SCHEMA,
    GraphSpec,
    _is_export,
    _read_edge_csv,
    _rows,
    build_graph,
    check_degree_bound,
    export_graph,
    import_graph,
    stats,
)
from .subgraphs import (
    EDGE_SCAN_CAP,
    SUBGRAPH_SCHEMA,
    _is_subgraph_export,
    _spliced,
    build_aux_subgraph,
    build_exact_type_subgraph,
    export_subgraph,
    import_subgraph,
    measure_rates,
    verify_single_type,
)
from .deviation import bracket, simulate, suen_tail_bound
from .diagnostics import (
    EdgeDistribution,
    check_budget,
    edge_distribution,
    graph_distribution,
    pinsker_check,
    subgraph_distribution,
    wring,
    wringing_to_dict,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_INVARIANT = 4

RUN_SCHEMA = "typigraph.run/1"


class ConfigError(Exception):
    """Bad flags, files, or file contents; maps to exit code 2."""


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _f6(x: float):
    """Fix floats at 6 decimals; kill negative zero; keep JSON valid."""
    if x is None:
        return None
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    v = round(float(x), 6)
    return 0.0 if v == 0.0 else v


def _jsonify(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, float):
        return _f6(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    fields = getattr(type(obj), "_fields", None)
    if fields is not None:  # a record, as the dict of its fields
        return {name: _jsonify(getattr(obj, name)) for name in fields}
    return obj


def _config(args: argparse.Namespace) -> dict:
    """The run's config echo and the sha256 of its canonical JSON."""
    echo = {
        k: v if isinstance(v, (int, bool)) else str(v)
        for k, v in sorted(vars(args).items())
        if k != "func" and v is not None
    }
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return {"config": echo, "config_sha256": hashlib.sha256(blob.encode()).hexdigest()}


def _stamp(path: str, config: dict) -> None:
    """Inject the config echo and hash into an already-written export."""
    doc = _load_json(path)
    doc.update(config)
    _write_json(path, doc)


def _record(config: dict, payload: dict) -> dict:
    return {"schema": RUN_SCHEMA, **config, "payload": _jsonify(payload)}


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def _parse_rational(text: str, flag: str) -> Fraction:
    try:
        return parse_fraction(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _parse_rate(text: str, flag: str) -> float:
    try:
        v = float(_parse_rational(text, flag))
    except OverflowError:
        raise ConfigError(f"{flag}: {text} is out of float range") from None
    if v < 0:
        raise ConfigError(f"{flag} must be nonnegative")
    return v


def _resolve_params(args: argparse.Namespace, n: int) -> TypicalityParams:
    """The schedule's slack, replaced by each of --eps1, --eps2, --lambda
    given; an unknown schedule is refused even when all three are."""
    try:
        d = schedule_delta(n, args.schedule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    overrides = [args.eps1, args.eps2, args.lam]
    if all(v is None for v in overrides):
        return TypicalityParams(eps1=d, eps2=d, lam=d, schedule=args.schedule)
    vals = [
        d if v is None else _parse_rational(v, flag)
        for flag, v in zip(("--eps1", "--eps2", "--lambda"), overrides)
    ]
    try:
        return TypicalityParams(*vals, schedule="custom")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_joint(path: str) -> JointPmf:
    dist = _load_any(path)
    if not isinstance(dist, JointPmf):
        raise ConfigError(f"{path}: expected a joint_pmf document")
    return dist


def _load_any(path: str):
    if not os.path.exists(path):
        raise ConfigError(f"{path}: file not found")
    try:
        return load_distribution(path)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_common(args: argparse.Namespace, outputs: tuple = ("out",)) -> None:
    """Refuse bad numeric flags, and any output path among the flags named
    by outputs whose directory does not exist, before any work."""
    for flag in outputs:
        path = getattr(args, flag, None)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"{path}: no such directory {os.path.dirname(path)!r}")
    if getattr(args, "n", None) is not None and args.n < 1:
        raise ConfigError("--n must be >= 1")
    if getattr(args, "seed", None) is not None and not (0 <= args.seed < 1 << 64):
        raise ConfigError("--seed must be an unsigned 64-bit integer")
    if getattr(args, "trials", None) is not None and args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if getattr(args, "cap", None) is not None and args.cap < 1:
        raise ConfigError("--cap must be >= 1")


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


def cmd_info(args: argparse.Namespace) -> int:
    _check_common(args)
    dist = _load_any(args.dist)
    if isinstance(dist, JointPmf):
        quantities = [
            ("H(X)", entropy(dist.row_marginal())),
            ("H(Y)", entropy(dist.col_marginal())),
            ("H(XY)", joint_entropy(dist)),
            ("H(Y|X)", conditional_entropy(dist, given="row")),
            ("H(X|Y)", conditional_entropy(dist, given="col")),
            ("I(X;Y)", mutual_information(dist)),
        ]
    elif isinstance(dist, Pmf):
        quantities = [("H(X)", entropy(dist))]
    else:
        raise ConfigError(f"{args.dist}: no entropic summary for a cond_pmf")
    for name, v in quantities:
        print(f"{name} = {float(_f6(v)):.6f}")
    if args.out:
        config = _config(args)
        if args.format == "csv":
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["quantity", "bits"])
                for name, v in quantities:
                    writer.writerow([name, f"{float(_f6(v)):.6f}"])
                writer.writerow(["config_sha256", config["config_sha256"]])
        else:
            payload = {name: v for name, v in quantities}
            _write_json(args.out, _record(config, payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def cmd_graph(args: argparse.Namespace) -> int:
    _check_common(args, ("out", "edges"))
    if args.edges and not (args.out and args.mode == "explicit"):
        raise ConfigError("--edges needs --out and --mode explicit")
    joint = _load_joint(args.dist)
    params = _resolve_params(args, args.n)
    spec = GraphSpec(
        joint=joint, n=args.n, params=params, mode=args.mode, cap=args.cap
    )
    g = build_graph(spec)
    config = _config(args)
    lc, rc = g.vertex_counts()
    if spec.mode == "explicit":
        st = stats(g)
        print(
            f"left={lc} right={rc} "
            f"edges={_decimal(g.edge_count.value)} "
            f"isolated_left={st.isolated_left} isolated_right={st.isolated_right}"
        )
        report = check_degree_bound(g)
        if report.all_ok:
            print(
                "degree-bound: PASS "
                f"(worst slack {float(_f6(report.worst_slack_bits_per_symbol)):.6f} "
                "bits/symbol)"
            )
        else:
            print(f"degree-bound: FAIL ({len(report.violations)} violations)")
        if args.out:
            export_graph(g, args.out, args.edges, st)
            _stamp(args.out, config)
        if not report.all_ok:
            raise InvariantViolation("degree bound violated")
    else:
        lc, rc, edges = map(_decimal, (lc, rc, g.edge_count.value))
        print(f"left={lc} right={rc} edges={edges}")
        if args.out:
            payload = {
                "left_size": lc,
                "right_size": rc,
                "edge_count": edges,
                "edge_count_log2": g.edge_count.log2,
            }
            _write_json(args.out, _record(config, payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# subgraph
# ---------------------------------------------------------------------------


def cmd_subgraph(args: argparse.Namespace) -> int:
    _check_common(args, ("out", "edges"))
    if args.edges and not args.out:
        raise ConfigError("--edges needs --out")
    joint = _load_joint(args.dist)
    params = _resolve_params(args, args.n)
    config = _config(args)
    if args.kind == "an":
        sub = build_exact_type_subgraph(joint, args.n, params)
    else:
        if not args.aux:
            raise ConfigError("--kind gamma requires --aux CHANNEL.json")
        aux = _load_any(args.aux)
        if not isinstance(aux, CondPmf):
            raise ConfigError(f"{args.aux}: expected a cond_pmf document")
        try:
            sub = build_aux_subgraph(joint, aux, args.n, params)
        except ValueError as exc:
            raise ConfigError(f"{args.aux}: {exc}") from exc
    rates, slack = measure_rates(sub)
    if sub.kind == "single_type":
        blocks, name = "", "single-type"
        verdict = verify_single_type(sub).all_ok
    else:
        blocks, name = f" blocks={len(sub.block_lengths)}", "aux"
        t, tol = sub.target_rates, 1e-9
        verdict = (
            abs(rates.r_x - t.r_x) <= sub.delta3 + tol
            and abs(rates.r_y - t.r_y) <= sub.delta3 + tol
            and abs(rates.r_x_prime - t.r_x_prime) <= sub.delta3 + tol
            and abs(rates.r_y_prime - t.r_y_prime) <= sub.delta3 + tol
        )
    print(
        f"left={_decimal(sub.left_size.value)} right={_decimal(sub.right_size.value)} "
        f"left_degree={_decimal(sub.left_degree.value)} "
        f"right_degree={_decimal(sub.right_degree.value)}{blocks}"
    )
    print(
        f"rates: r_x={float(_f6(rates.r_x)):.6f} r_y={float(_f6(rates.r_y)):.6f} "
        f"r_x'={float(_f6(rates.r_x_prime)):.6f} "
        f"r_y'={float(_f6(rates.r_y_prime)):.6f} "
        f"gen-slack={float(_f6(slack.gen)):.6f} nc-slack={float(_f6(slack.nc)):.6f}"
    )
    print(f"{name} verification: {'PASS' if verdict else 'FAIL'}")
    c = sub.containment
    print(
        f"containment: left={c.left_contained} right={c.right_contained} "
        f"edges={c.edges_contained} premise_ok={c.premise_ok}"
    )
    if args.out:
        export_subgraph(sub, args.out, args.edges, edge_cap=args.cap)
        _stamp(args.out, config)
    if not verdict:
        raise InvariantViolation("subgraph rate verification failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_common(args)
    joint = _load_joint(args.dist)
    params = _resolve_params(args, args.n)
    r1 = _parse_rate(args.r1, "--r1")
    r2 = _parse_rate(args.r2, "--r2")
    try:
        mc = simulate(joint, params, args.n, r1, r2, args.trials, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    moments = mc.moments
    i_xy = mutual_information(joint)
    lll, report = bracket(moments, r1, r2, i_xy)
    inside = report.contains(mc.wilson_low, mc.wilson_high)
    print(
        f"P(U=0): empirical={float(_f6(mc.p_zero)):.6f} "
        f"wilson99=[{float(_f6(mc.wilson_low)):.6f}, {float(_f6(mc.wilson_high)):.6f}] "
        f"bracket=[{float(_f6(report.floor)):.6f}, {float(_f6(report.ceiling)):.6f}]"
    )
    print(f"bracket verdict: {'inside' if inside else 'OUTSIDE'}")
    config = _config(args)
    payload = {
        "monte_carlo": {
            "trials": mc.trials,
            "seed": mc.seed,
            "m1": moments.m1,
            "m2": moments.m2,
            "zero_count": mc.zero_count,
            "p_zero": mc.p_zero,
            "wilson99": [mc.wilson_low, mc.wilson_high],
            "mean_u": mc.mean_u,
            "var_u": mc.var_u,
            "tails": [[a, p] for a, p in mc.tails],
        },
        "moments": {
            "alpha": moments.alpha_exact,
            "gamma": moments.gamma,
            "theta_cap": moments.theta_cap,
            "theta_small": moments.theta_small,
            "tau": float(moments.alpha_exact),
        },
        "bounds": report.bounds,
        "exponents": report.exponents,
        "flagged": report.flagged,
        "target_exponent": report.target,
        "i_xy": i_xy,
        "regime_r1_above_mi": report.regime_r1_above_mi,
        "tightness_regime": report.tightness_regime,
        "consistency_ok": report.consistency_ok,
        "lll": lll,
        "bracket": {"low": report.floor, "high": report.ceiling, "inside": inside},
    }
    if args.out:
        _write_json(args.out, _record(config, payload))
        base, ext = os.path.splitext(args.out)
        csv_path = (base if ext.lower() == ".json" else args.out) + ".csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "empirical", "suen"])
            for a, p in mc.tails:
                if a < 1.0:
                    bound = suen_tail_bound(
                        moments.gamma, moments.theta_cap, moments.theta_small, a
                    )
                    suen_cell = f"{float(_f6(bound)):.6f}"
                else:
                    suen_cell = ""
                writer.writerow(
                    [f"{a:.6f}", f"{float(_f6(p)):.6f}", suen_cell]
                )
    return EXIT_OK


# ---------------------------------------------------------------------------
# wring
# ---------------------------------------------------------------------------


def _parse_label_column(cells: list) -> list:
    """A column's label tuples: ints when every token is its int's
    canonical spelling (so "01" and "1_0" are not), the tokens otherwise."""
    try:
        ints = [tuple(map(int, tokens)) for tokens in cells]
        if all(list(map(str, t)) == tokens for t, tokens in zip(ints, cells)):
            return ints
    except ValueError:
        pass
    return [tuple(tokens) for tokens in cells]


def _label_ids(cells: list) -> tuple[list[int], list[tuple], Alphabet]:
    """Dense first-occurrence ids of one column's label tuples, each distinct
    tuple's row of symbol indices, and the sorted alphabet of its labels."""
    dense: dict = {}
    ids = [dense.setdefault(t, len(dense)) for t in _parse_label_column(cells)]
    alphabet = Alphabet(tuple(sorted({t for labels in dense for t in labels})))
    rows = [tuple(map(alphabet.index, labels)) for labels in dense]
    return ids, rows, alphabet


def _label_distribution(path: str) -> EdgeDistribution:
    """An `x,y` label CSV's edges, marked distinct when no (x, y) pair repeats.
    Blank rows are skipped. A row of other than two cells, with an empty
    sequence, or whose sequences are not of the first edge row's
    blocklength raises ValueError naming its CSV row, and a file of no edge
    row "no edges"."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [(line, r) for line, r in enumerate(csv.reader(fh), 1) if line > 1 and r]
    for line, r in rows:
        if len(r) != 2:
            raise ValueError(f"label CSV row {line}: expected two cells, got {r!r}")
    if not rows:
        raise ValueError("no edges")
    cells = [(line, r[0].split(), r[1].split()) for line, r in rows]
    first, n = cells[0][0], len(cells[0][1])
    for line, x, y in cells:
        if not x or not y:
            raise ValueError(f"label CSV row {line}: a sequence is empty")
        if len(x) != n or len(y) != n:
            raise ValueError(
                f"label CSV row {line}: sequences of lengths {len(x)} and {len(y)}, "
                f"where row {first} sets the blocklength {n} of both"
            )
    xids, xrows, x_alpha = _label_ids([x for _, x, _ in cells])
    yids, yrows, y_alpha = _label_ids([y for _, _, y in cells])
    dist = edge_distribution(xids, yids, xrows, yrows, x_alpha, y_alpha)
    return dist if _repeats(dist.xids, dist.yids, len(xrows)) else replace(dist, distinct=True)


def _rank_distribution(path: str, graph_path: Optional[str]):
    """The edges of a rank CSV with the rosters of the export header at
    graph_path as rows and the ranks as ids; ValueError "no edges" if the
    CSV lists none. The header is read once, for its schema and its import.

    A CSV that is byte for byte the header's own export (`graph._is_export`,
    `subgraphs._is_subgraph_export`) is not read: the law of its edges is
    kept by joint types (`graph_distribution`, `subgraph_distribution`)."""
    if not graph_path:
        raise ConfigError(
            "rank-format edge CSV needs --graph HEADER.json for the rosters"
        )
    if not os.path.exists(graph_path):
        raise ConfigError(f"{graph_path}: file not found")
    try:
        doc = _load_json(graph_path)
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema == GRAPH_SCHEMA:
            g = import_graph(doc)
            if _is_export(g, path):
                return graph_distribution(g)
            joint = g.spec.joint
            left, right = list(_rows(g, "left")), list(_rows(g, "right"))
        elif schema == SUBGRAPH_SCHEMA:
            sub = import_subgraph(doc)
            if _is_subgraph_export(sub, path):
                return subgraph_distribution(sub)
            joint = sub.joint
            left, right = list(_spliced(sub, "left")), list(_spliced(sub, "right"))
        else:
            raise ConfigError(f"{graph_path}: unrecognized schema {schema!r}")
    except ValueError as exc:
        raise ConfigError(f"{graph_path}: {exc}") from exc
    xids, yids = _read_edge_csv(path, len(left), len(right))
    if not xids:
        raise ValueError("no edges")
    dist = edge_distribution(xids, yids, left, right, joint.row_alphabet, joint.col_alphabet)
    return replace(dist, distinct=True)  # _read_edge_csv refuses a repeated edge


def cmd_wring(args: argparse.Namespace) -> int:
    _check_common(args)
    try:
        check_budget(args.delta, args.sigma)
    except ValueError as exc:
        raise ConfigError(f"--{exc}") from exc
    if not os.path.exists(args.edges):
        raise ConfigError(f"{args.edges}: file not found")
    try:
        with open(args.edges, "r", encoding="utf-8", newline="") as fh:
            head = next(csv.reader(fh), None)
        if head is None:
            raise ValueError("no edges")
        if head == ["x", "y"]:
            dist = _label_distribution(args.edges)
        elif head == ["left_rank", "right_rank"]:
            dist = _rank_distribution(args.edges, args.graph)
        else:
            raise ValueError("header must be 'x,y' or 'left_rank,right_rank'")
    except ValueError as exc:
        raise ConfigError(f"{args.edges}: {exc}") from exc
    result = wring(dist, args.delta, args.sigma)
    print(
        f"wring: k={result.k} surviving={result.survivors.size}/{dist.size} "
        f"fraction={format_fraction(result.surviving_fraction)} "
        f"converged={result.converged}"
    )
    pinsker = None
    if result.converged:
        pinsker = pinsker_check(result.survivors, args.delta)
        print(f"pinsker: max per-letter TV = {float(_f6(max(pinsker))):.6f}")
    config = _config(args)
    payload = wringing_to_dict(result)
    payload["pinsker_tv"] = list(pinsker) if pinsker is not None else None
    payload["edge_count_in"] = dist.size
    if args.out:
        _write_json(args.out, _record(config, payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_dist_n_params(sub: argparse.ArgumentParser, need_n: bool = True) -> None:
    sub.add_argument("--dist", required=True, help="distribution JSON file")
    if need_n:
        sub.add_argument("--n", type=int, required=True, help="blocklength")
    sub.add_argument("--eps1", help="left slack, rational like 1/4")
    sub.add_argument("--eps2", help="right slack")
    sub.add_argument("--lambda", dest="lam", help="joint slack")
    sub.add_argument(
        "--schedule", default=DEFAULT_SCHEDULE, help="named slack schedule"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typigraph",
        description="typicality graphs: exact combinatorics, bounds, simulation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="entropic summary of a distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--out", help="write the summary record here")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_info)

    p = subs.add_parser("graph", help="build and export a typicality graph")
    _add_dist_n_params(p)
    p.add_argument("--mode", choices=("explicit", "implicit"), default="explicit")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--out", help="graph header JSON")
    p.add_argument("--edges", help="edge CSV (left_rank,right_rank)")
    p.set_defaults(func=cmd_graph)

    p = subs.add_parser("subgraph", help="explicit nearly-complete constructions")
    _add_dist_n_params(p)
    p.add_argument("--kind", choices=("an", "gamma"), required=True)
    p.add_argument("--aux", help="cond_pmf JSON for --kind gamma")
    p.add_argument("--cap", type=int, default=EDGE_SCAN_CAP, help="edge-export cap (edges)")
    p.add_argument("--out", help="subgraph header JSON")
    p.add_argument("--edges", help="edge CSV (left_rank,right_rank)")
    p.set_defaults(func=cmd_subgraph)

    p = subs.add_parser("simulate", help="Monte Carlo vs analytic bounds")
    _add_dist_n_params(p)
    p.add_argument("--r1", required=True, help="left rate, bits/symbol")
    p.add_argument("--r2", required=True, help="right rate, bits/symbol")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="combined JSON report (CSV written beside it)")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("wring", help="per-letter dependence removal trace")
    p.add_argument("--edges", required=True, help="edge CSV")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sigma", type=float, help="override the block MI budget")
    p.add_argument("--graph", help="header JSON when the CSV holds ranks")
    p.add_argument("--out", help="trace JSON")
    p.set_defaults(func=cmd_wring)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
