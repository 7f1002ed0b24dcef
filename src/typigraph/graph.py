"""Bipartite typicality graphs.

Left vertices are the eps1-typical sequences for the row marginal, right
vertices the eps2-typical sequences for the column marginal, and an edge
joins (x, y) exactly when the pair is jointly lam-typical. Vertex ids are
lexicographic ranks within each roster. Edges are stored once, left-indexed;
right-side views are transposed on demand.

Explicit mode materializes rosters and adjacency and is guarded by a cap on
candidate sequences per side. Implicit mode answers size, edge-count, and
degree queries through exact type-level counting without materializing
anything.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, Optional

from .core import (
    DEFAULT_CAP,
    CapExceeded,
    InvariantViolation,
    JointPmf,
    conditionalize,
    joint_from_dict,
    joint_to_dict,
)
from .typicality import (
    BigCount,
    JointTypeIndex,
    Sequence,
    TypicalityParams,
    _admissible_count_vectors,
    cond_typical_set_size,
    empirical_type,
    jointly_typical_pair_count,
    log2_int,
    row_type_degree,
    type_class_sequences,
    TypeVector,
    typical_set_size,
)

@dataclass(frozen=True)
class GraphSpec:
    joint: JointPmf
    n: int
    params: TypicalityParams
    mode: str = "explicit"
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.mode not in ("explicit", "implicit"):
            raise ValueError("mode must be 'explicit' or 'implicit'")
        if self.cap < 1:
            raise ValueError("cap must be positive")


def _roster(pmf, eps, n: int) -> tuple[Sequence, ...]:
    seqs = []
    for counts in _admissible_count_vectors(pmf.probs, n, Fraction(eps)):
        t = TypeVector(pmf.alphabet, counts)
        seqs.extend(type_class_sequences(t))
    seqs.sort(key=lambda s: s.symbols)
    return tuple(seqs)


def _rosters(spec: GraphSpec) -> tuple[tuple[Sequence, ...], tuple[Sequence, ...]]:
    """Left and right rosters, refused before any work when over the cap."""
    px, py = spec.joint.row_marginal(), spec.joint.col_marginal()
    for k in (px.alphabet.size, py.alphabet.size):
        if k**spec.n > spec.cap:
            raise CapExceeded(
                f"{k}^{spec.n} candidate sequences exceed cap {spec.cap}; "
                "use implicit mode"
            )
    return _roster(px, spec.params.eps1, spec.n), _roster(py, spec.params.eps2, spec.n)


@dataclass(frozen=True)
class TypicalityGraph:
    """Explicit typicality graph with materialized rosters and adjacency."""

    spec: GraphSpec
    left: tuple[Sequence, ...]
    right: tuple[Sequence, ...]
    adjacency: tuple[tuple[int, ...], ...]  # left-indexed, ascending right ids
    edge_count: BigCount

    def vertex_counts(self) -> tuple[int, int]:
        return len(self.left), len(self.right)

    def degree(self, side: str, vertex_id: int) -> BigCount:
        if side == "left":
            return BigCount.from_int(len(self.adjacency[vertex_id]))
        if side == "right":
            deg = sum(1 for nbrs in self.adjacency if vertex_id in set(nbrs))
            return BigCount.from_int(deg)
        raise ValueError("side must be 'left' or 'right'")

    def right_degrees(self) -> tuple[int, ...]:
        degs = Counter(chain.from_iterable(self.adjacency))
        return tuple(degs[j] for j in range(len(self.right)))

    def left_degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def degree_extremes(self, side: str) -> tuple[int, int]:
        degs = self.left_degrees() if side == "left" else self.right_degrees()
        if not degs:
            raise ValueError("empty roster has no degrees")
        return min(degs), max(degs)


@dataclass(frozen=True)
class ImplicitTypicalityGraph:
    """Type-level view: sizes and degrees by exact counting, no rosters."""

    spec: GraphSpec
    left_count: BigCount
    right_count: BigCount
    edge_count: BigCount

    def vertex_counts(self) -> tuple[int, int]:
        return self.left_count.value, self.right_count.value

    def degree_of(self, x: Sequence, side: str = "left") -> BigCount:
        """Exact number of typical other-side sequences jointly typical with x.

        x need not be typical itself; the degree depends on x only through
        its type.
        """
        spec = self.spec
        if side == "left":
            joint, other_eps = spec.joint, spec.params.eps2
        elif side == "right":
            joint, other_eps = spec.joint.transpose(), spec.params.eps1
        else:
            raise ValueError("side must be 'left' or 'right'")
        counts = empirical_type(x).counts
        return BigCount.from_int(
            row_type_degree(joint, counts, other_eps, spec.params.lam, spec.n)
        )


def build_graph(spec: GraphSpec):
    """Construct the typicality graph for a joint pmf at blocklength n."""
    joint, n, params = spec.joint, spec.n, spec.params
    if spec.mode == "implicit":
        return ImplicitTypicalityGraph(
            spec=spec,
            left_count=typical_set_size(joint.row_marginal(), params.eps1, n),
            right_count=typical_set_size(joint.col_marginal(), params.eps2, n),
            edge_count=jointly_typical_pair_count(joint, params, n),
        )
    left, right = _rosters(spec)
    index = JointTypeIndex.ball(joint, params.lam, n)
    adjacency = tuple(
        map(tuple, index.scan([x.symbols for x in left], [y.symbols for y in right]))
    )
    edge_total = sum(map(len, adjacency))
    return TypicalityGraph(
        spec=spec,
        left=left,
        right=right,
        adjacency=adjacency,
        edge_count=BigCount.from_int(edge_total),
    )


def degree(g: TypicalityGraph, side: str, vertex_id: int) -> BigCount:
    return g.degree(side, vertex_id)


@dataclass(frozen=True)
class VertexStats:
    left_size: BigCount
    right_size: BigCount
    edge_count: BigCount
    isolated_left: int
    isolated_right: int
    # log2-degree stats over positive-degree vertices; None if all isolated
    left_degree_log2_min: Optional[float]
    left_degree_log2_max: Optional[float]
    left_degree_log2_mean: Optional[float]
    right_degree_log2_min: Optional[float]
    right_degree_log2_max: Optional[float]
    right_degree_log2_mean: Optional[float]


def _log_stats(degs):
    logs = [math.log2(d) for d in degs if d > 0]
    if not logs:
        return None, None, None
    return min(logs), max(logs), sum(logs) / len(logs)


def stats(g: TypicalityGraph) -> VertexStats:
    ld = g.left_degrees()
    rd = g.right_degrees()
    lmin, lmax, lmean = _log_stats(ld)
    rmin, rmax, rmean = _log_stats(rd)
    return VertexStats(
        left_size=BigCount.from_int(len(g.left)),
        right_size=BigCount.from_int(len(g.right)),
        edge_count=g.edge_count,
        isolated_left=sum(1 for d in ld if d == 0),
        isolated_right=sum(1 for d in rd if d == 0),
        left_degree_log2_min=lmin,
        left_degree_log2_max=lmax,
        left_degree_log2_mean=lmean,
        right_degree_log2_min=rmin,
        right_degree_log2_max=rmax,
        right_degree_log2_mean=rmean,
    )


@dataclass(frozen=True)
class DegreeBoundReport:
    """Conditional-typicality cap on degrees, checked exactly per vertex."""

    all_ok: bool
    worst_slack_bits_per_symbol: float  # min over vertices of (log2 cap - log2 deg)/n
    violations: tuple  # (side, vertex_id, degree, bound) tuples


def check_degree_bound(g: TypicalityGraph) -> DegreeBoundReport:
    """Verify degree(x) <= |T_{eps1+lam}(col | x)| and the right analogue."""
    spec = g.spec
    n = spec.n
    w_fwd = conditionalize(spec.joint, given="row")
    w_bwd = conditionalize(spec.joint, given="col")
    slack_fwd = Fraction(spec.params.eps1) + Fraction(spec.params.lam)
    slack_bwd = Fraction(spec.params.eps2) + Fraction(spec.params.lam)
    worst = math.inf
    violations = []
    bound_cache: dict = {}

    def bound_for(seq: Sequence, w, slack) -> int:
        key = (empirical_type(seq).counts, id(w))
        if key not in bound_cache:
            bound_cache[key] = cond_typical_set_size(w, seq, slack).value
        return bound_cache[key]

    ld = g.left_degrees()
    for i, x in enumerate(g.left):
        cap = bound_for(x, w_fwd, slack_fwd)
        if ld[i] > cap:
            violations.append(("left", i, ld[i], cap))
        if ld[i] > 0:
            worst = min(worst, (log2_int(cap) - math.log2(ld[i])) / n)
    rd = g.right_degrees()
    for j, y in enumerate(g.right):
        cap = bound_for(y, w_bwd, slack_bwd)
        if rd[j] > cap:
            violations.append(("right", j, rd[j], cap))
        if rd[j] > 0:
            worst = min(worst, (log2_int(cap) - math.log2(rd[j])) / n)
    return DegreeBoundReport(
        all_ok=not violations,
        worst_slack_bits_per_symbol=worst,
        violations=tuple(violations),
    )


def edge_list(g: TypicalityGraph) -> Iterator[tuple[int, int]]:
    """Stream (left_id, right_id) pairs in lexicographic order."""
    for i, nbrs in enumerate(g.adjacency):
        for j in nbrs:
            yield (i, j)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

GRAPH_SCHEMA = "typigraph.graph/1"


def _params_to_dict(p: TypicalityParams) -> dict:
    return {
        "eps1": str(p.eps1),
        "eps2": str(p.eps2),
        "lambda": str(p.lam),
        "schedule": p.schedule,
    }


def _params_from_dict(doc: dict) -> TypicalityParams:
    return TypicalityParams(
        eps1=Fraction(doc["eps1"]),
        eps2=Fraction(doc["eps2"]),
        lam=Fraction(doc["lambda"]),
        schedule=doc["schedule"],
    )


def export_graph(
    g: TypicalityGraph, json_path: str, edges_csv_path: Optional[str] = None
) -> None:
    """JSON header (spec, sizes, log2 stats) plus optional edge CSV."""
    st = stats(g)
    header = {
        "schema": GRAPH_SCHEMA,
        "spec": {
            "joint": joint_to_dict(g.spec.joint),
            "n": g.spec.n,
            "params": _params_to_dict(g.spec.params),
            "mode": g.spec.mode,
            "cap": g.spec.cap,
        },
        "left_size": len(g.left),
        "right_size": len(g.right),
        "edge_count": {"value": str(g.edge_count.value), "log2": g.edge_count.log2},
        "isolated_left": st.isolated_left,
        "isolated_right": st.isolated_right,
        "log2_degree": {
            "left": [
                st.left_degree_log2_min,
                st.left_degree_log2_max,
                st.left_degree_log2_mean,
            ],
            "right": [
                st.right_degree_log2_min,
                st.right_degree_log2_max,
                st.right_degree_log2_mean,
            ],
        },
        "edges_csv": edges_csv_path is not None,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if edges_csv_path is not None:
        with open(edges_csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["left_rank", "right_rank"])
            writer.writerows(edge_list(g))


def read_graph_header(json_path: str):
    """Spec, rosters and edge count of an export, checked against its header.

    Rosters are re-derived deterministically from the embedded spec and must
    match the recorded sizes; the recorded edge count must equal the exact
    pair count of the spec. Nothing scans sequence pairs. Returns
    (spec, left, right, edge_count).
    """
    with open(json_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    if header.get("schema") != GRAPH_SCHEMA:
        raise ValueError(f"unexpected schema {header.get('schema')!r}")
    sdoc = header["spec"]
    spec = GraphSpec(
        joint=joint_from_dict(sdoc["joint"]),
        n=sdoc["n"],
        params=_params_from_dict(sdoc["params"]),
        mode=sdoc["mode"],
        cap=sdoc["cap"],
    )
    left, right = _rosters(spec)
    if len(left) != header["left_size"] or len(right) != header["right_size"]:
        raise InvariantViolation("roster sizes disagree with the export header")
    edge_count = int(header["edge_count"]["value"])
    exact = jointly_typical_pair_count(spec.joint, spec.params, spec.n).value
    if edge_count != exact:
        raise InvariantViolation(
            f"edge count {edge_count} in the export header differs from the "
            f"exact pair count {exact}"
        )
    return spec, left, right, edge_count


def _read_edge_csv(path: str, n_left: int, n_right: int) -> Iterator[tuple[int, int]]:
    """Yield the (left, right) rank pairs of an edge CSV in file order.

    Blank rows are skipped. Non-integer, out-of-range and repeated ranks
    raise ValueError naming the CSV row; repeats are found with one set of
    packed i*n_right + j keys.
    """
    seen: set = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["left_rank", "right_rank"]:
            raise ValueError("edge CSV must start with left_rank,right_rank")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                i, j = row
                i, j = int(i), int(j)
            except ValueError:
                raise ValueError(
                    f"edge CSV row {line}: expected two integer ranks, got {row!r}"
                ) from None
            if not (0 <= i < n_left and 0 <= j < n_right):
                raise ValueError(
                    f"edge CSV row {line}: ranks ({i}, {j}) outside the "
                    f"{n_left} x {n_right} rosters"
                )
            key = i * n_right + j
            if key in seen:
                raise ValueError(f"edge CSV row {line}: repeated edge ({i}, {j})")
            seen.add(key)
            yield i, j


def import_graph(json_path: str, edges_csv_path: Optional[str] = None):
    """Rebuild a graph from an export; bit-exact round trip.

    Rosters are re-derived deterministically from the embedded spec. With an
    edge CSV the adjacency is loaded; without one it is recomputed.
    """
    spec, left, right, edge_count = read_graph_header(json_path)
    if edges_csv_path is None:
        g = build_graph(spec)
    else:
        adj: list[list[int]] = [[] for _ in left]
        for i, j in _read_edge_csv(edges_csv_path, len(left), len(right)):
            adj[i].append(j)
        g = TypicalityGraph(
            spec=spec,
            left=left,
            right=right,
            adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
            edge_count=BigCount.from_int(sum(map(len, adj))),
        )
    if g.edge_count.value != edge_count:
        raise InvariantViolation("edge count disagrees with the export header")
    return g
