"""Bipartite typicality graphs.

Left vertices are the eps1-typical sequences for the row marginal, right
vertices the eps2-typical sequences for the column marginal, and an edge
joins (x, y) exactly when the pair is jointly lam-typical. Vertex ids are
lexicographic ranks within each roster.

A vertex's degree depends only on its type, so one degree kernel per side
(`typicality._DegreeKernel`, whose `_oriented` decides what a side is)
answers every degree question: its table gives the edge count, the
statistics and the degree bound exactly, at the level of types, and
`degree_of` asks the same kernel, which reads the table once it is built
and otherwise counts the one type. A graph holds its spec and counts only:
an explicit graph, its roster sizes capped, walks a side's rows on demand
(`_rows`), and `edge_list` streams the edges from one pair scan over them.
"""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, islice, repeat, zip_longest
from operator import add, lt, mul
from typing import Iterator, Optional

from .core import (
    DEFAULT_CAP,
    CapExceeded,
    InvariantViolation,
    JointPmf,
    conditionalize,
    float_sum,
    id_typecode,
    joint_from_dict,
    joint_to_dict,
    record,
)
from .typicality import (
    BigCount,
    JointTypeIndex,
    Sequence,
    TypicalityParams,
    _ball_boxes,
    _box_rows,
    _cond_ball_size,
    _DegreeKernel,
    _oriented,
    log2_int,
    typical_set_size,
)

@record
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


@record
class TypicalityGraph:
    """The graph of a spec: exact vertex and edge counts, degrees per type.

    Each side's degree kernel is built once, when first needed, and
    answers for that side: `stats` and `check_degree_bound` read its
    table, and `degree_of` asks it for one type. An explicit graph walks a
    side's vertices on demand (`roster`).
    """

    spec: GraphSpec
    left_count: BigCount
    right_count: BigCount
    edge_count: BigCount

    @cached_property
    def _kernels(self) -> dict:  # side -> its _DegreeKernel; outside eq, hash and repr
        return {}

    def vertex_counts(self) -> tuple[int, int]:
        return self.left_count.value, self.right_count.value

    def _kernel(self, side: str) -> _DegreeKernel:
        if side not in self._kernels:
            spec = self.spec
            self._kernels[side] = _DegreeKernel(spec.joint, spec.params, spec.n, side)
        return self._kernels[side]

    def _table(self, side: str) -> dict:
        return self._kernel(side).table()

    def degree_of(self, x: Sequence, side: str = "left") -> BigCount:
        """Exact number of typical other-side sequences jointly typical with x.

        x need not be typical itself; the degree depends on x only through
        its type, and the side's kernel counts it (see
        `_DegreeKernel.degree_of`). ValueError when x's alphabet is not the
        joint's alphabet on that side.
        """
        kernel = self._kernel(side)
        joint = self.spec.joint
        alphabet = joint.row_alphabet if side == "left" else joint.col_alphabet
        if x.alphabet != alphabet:
            raise ValueError(f"x's alphabet does not match the joint's {side} alphabet")
        counts = tuple(map(x.symbols.count, range(alphabet.size)))
        return BigCount.from_int(kernel.degree_of(counts))

    def roster(self, side: str) -> Iterator[Sequence]:
        """The "left" or "right" vertices as `Sequence`s in id (lexicographic)
        order, built as they are walked. ValueError on an implicit graph."""
        joint = _oriented(self.spec.joint, self.spec.params, side)[0]
        return map(partial(Sequence, joint.row_alphabet), _rows(self, side))


def build_graph(spec: GraphSpec) -> TypicalityGraph:
    """Construct the typicality graph for a joint pmf at blocklength n.

    The left degree table gives |L| and the edge count. Explicit mode
    refuses, with CapExceeded, rosters whose exact size is over spec.cap
    before either is walked. No sequence pair is scanned.
    """
    joint, n, params = spec.joint, spec.n, spec.params
    left_kernel = _DegreeKernel(joint, params, n, "left")
    left_table = left_kernel.table()
    left_count = sum(size for size, _ in left_table.values())
    right_count = typical_set_size(joint.col_marginal(), params.eps2, n).value
    if spec.mode == "explicit" and max(left_count, right_count) > spec.cap:
        raise CapExceeded(
            f"rosters of {left_count} and {right_count} sequences exceed "
            f"cap {spec.cap}; implicit mode builds no rosters"
        )
    g = TypicalityGraph(
        spec=spec,
        left_count=BigCount.from_int(left_count),
        right_count=BigCount.from_int(right_count),
        edge_count=BigCount.from_int(
            sum(size * deg for size, deg in left_table.values())
        ),
    )
    g._kernels["left"] = left_kernel
    return g


def _rows(g: TypicalityGraph, side: str) -> Iterator[tuple[int, ...]]:
    """The "left" or "right" roster as symbol rows in lexicographic order:
    one box walk over the side's ball boxes. ValueError at once on an
    implicit graph, whose rosters `build_graph` did not bound."""
    spec = g.spec
    if spec.mode != "explicit":
        raise ValueError("an implicit graph holds no rosters; build it in explicit mode")
    joint, eps, _ = _oriented(spec.joint, spec.params, side)
    boxes = _ball_boxes(joint.row_marginal().probs, spec.n, eps)
    return _box_rows(len(boxes), [(spec.n, boxes)])


def _vertex_degrees(g: TypicalityGraph, side: str) -> list[int]:
    """Each vertex's degree in roster order, read from its type's entry."""
    table, k = g._table(side), _oriented(g.spec.joint, g.spec.params, side)[0].row_alphabet.size
    return [table[tuple(map(row.count, range(k)))][1] for row in _rows(g, side)]


@record
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
    return min(logs), max(logs), float_sum(logs) / len(logs)


def stats(g: TypicalityGraph) -> VertexStats:
    """Isolated counts and log2-degree statistics over the rosters.

    The vertices are walked in roster order, so the means are summed in
    that order.
    """
    ld, rd = _vertex_degrees(g, "left"), _vertex_degrees(g, "right")
    return VertexStats(
        g.left_count, g.right_count, g.edge_count, ld.count(0), rd.count(0),
        *_log_stats(ld), *_log_stats(rd),
    )


@record
class DegreeBoundReport:
    """Conditional-typicality cap on degrees, checked exactly per type."""

    all_ok: bool
    worst_slack_bits_per_symbol: float  # min over types of (log2 cap - log2 deg)/n
    violations: tuple  # (side, type counts, degree, bound) tuples


def check_degree_bound(g: TypicalityGraph) -> DegreeBoundReport:
    """Verify degree(x) <= |T_{eps1+lam}(col | x)| and the right analogue.

    Both sides of the inequality depend on x only through its type, so
    each typical type is checked once.
    """
    spec = g.spec
    worst = math.inf
    violations = []
    for side in ("left", "right"):
        joint, row_eps, _ = _oriented(spec.joint, spec.params, side)
        w = conditionalize(joint)
        slack = row_eps + spec.params.lam
        for counts, (_, deg) in g._table(side).items():
            bound = _cond_ball_size(w, counts, slack)
            if deg > bound:
                violations.append((side, counts, deg, bound))
            if deg > 0:
                worst = min(worst, (log2_int(bound) - math.log2(deg)) / spec.n)
    return DegreeBoundReport(
        all_ok=not violations,
        worst_slack_bits_per_symbol=worst,
        violations=tuple(violations),
    )


def _scan_rows(g: TypicalityGraph) -> Iterator[list[int]]:
    """One pair scan over the rosters: each left vertex's right ids, in order."""
    spec = g.spec
    index = JointTypeIndex.ball(spec.joint, spec.params.lam, spec.n)
    return index.scan(_rows(g, "left"), _rows(g, "right"))


def edge_list(g: TypicalityGraph) -> Iterator[tuple[int, int]]:
    """Stream (left_id, right_id) pairs in lexicographic order, from one
    pair scan over the rosters."""
    for i, nbrs in enumerate(_scan_rows(g)):
        yield from zip(repeat(i), nbrs)


def _write_rank_csv(path: str, rows, expected: int) -> None:
    """Write a `left_rank,right_rank` edge CSV from scan rows (each left
    rank's list of right ranks, in left-rank order). InvariantViolation
    unless exactly `expected` edges were written.

    Each left rank's edges go out as one joined string, in the bytes of
    csv's default dialect: canonical decimal ranks and CRLF line ends. Right
    ranks are spelled from a table of str(k), grown to the largest rank met.
    """
    written = 0
    spell: list[str] = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("left_rank,right_rank\r\n")
        for i, nbrs in enumerate(rows):
            if nbrs:
                top = max(nbrs)
                if top >= len(spell):
                    spell.extend(map(str, range(len(spell), top + 1)))
                head = f"{i},"
                fh.write(head + f"\r\n{head}".join(map(spell.__getitem__, nbrs)) + "\r\n")
                written += len(nbrs)
    if written != expected:
        raise InvariantViolation(
            f"{written} edges written, but the exact pair count is {expected}"
        )


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


def _params_from_header(header: dict) -> TypicalityParams:
    """The slack parameters of an export header's spec.params, whose slacks
    are fraction strings. ValueError names the key that is missing or
    malformed."""
    slacks = []
    for key in ("eps1", "eps2", "lambda"):
        text = _field(header, f"spec.params.{key}", str)
        try:
            slacks.append(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"export header 'spec.params.{key}' should be a fraction string, "
                f"found {text!r}"
            ) from None
    eps1, eps2, lam = slacks
    return TypicalityParams(eps1, eps2, lam, _field(header, "spec.params.schedule", str))


def export_graph(
    g: TypicalityGraph,
    json_path: str,
    edges_csv_path: Optional[str] = None,
    st: Optional[VertexStats] = None,
) -> None:
    """JSON header (spec, sizes, log2 stats) plus optional edge CSV.

    `st` is `stats(g)` when the caller already has it; it is computed
    otherwise. The CSV is written straight from the pair scan. Its scan of
    |L|*|R| pairs is refused with CapExceeded over spec.cap, before any
    file is written.
    """
    if edges_csv_path is not None:
        nl, nr = g.vertex_counts()
        if nl * nr > g.spec.cap:
            raise CapExceeded(
                f"edge export scans {nl} x {nr} = {nl * nr} sequence pairs, "
                f"over cap {g.spec.cap}"
            )
    if st is None:
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
        "left_size": g.left_count.value,
        "right_size": g.right_count.value,
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
        _write_rank_csv(edges_csv_path, _scan_rows(g), g.edge_count.value)


def _scan_edge_rows(path: str, n_left: int, n_right: int) -> Iterator[tuple[int, int, int]]:
    """Yield (CSV row, left rank, right rank) for each edge, in file order.

    Blank rows are skipped. Non-integer and out-of-range ranks raise
    ValueError naming the CSV row; repeats are left to the caller.
    """
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
            yield line, i, j


def _repeats(lefts: array, rights: array, n_left: int) -> bool:
    """Whether some (left, right) pair of the id columns repeats. The right
    ids are counting-sorted by left id into one array of their width, and
    each left id's run is checked with a set of its own."""
    starts = list(accumulate(map(Counter(lefts).get, range(n_left), repeat(0)), initial=0))
    grouped, fill = array(rights.typecode, bytes(len(rights) * rights.itemsize)), starts[:-1]
    for i, j in zip(lefts, rights):
        grouped[fill[i]] = j
        fill[i] += 1
    return any(len(set(grouped[a:b])) != b - a for a, b in zip(starts, islice(starts, 1, None)))


def _first_repeat(path: str, n_left: int, n_right: int) -> ValueError:
    """The error that names the first repeated edge of the CSV, found by
    reading it again with a set of the packed keys i*n_right + j seen so
    far; called only once a repeat is known to come before any other
    error."""
    seen: set = set()
    for line, i, j in _scan_edge_rows(path, n_left, n_right):
        key = i * n_right + j
        if key in seen:
            return ValueError(f"edge CSV row {line}: repeated edge ({i}, {j})")
        seen.add(key)
    raise InvariantViolation("a repeated edge was counted but not found")


_CSV_CHUNK = 1 << 16  # characters of edge CSV checked per bulk step
_TWO_COMMAS = re.compile(",[^\n]*,").search


def _bulk_edge_columns(path: str, n_left: int, n_right: int):
    """The edge CSV's (left ranks, right ranks) as id columns, read and
    checked in chunks; None as soon as a chunk is not plain. Each column is
    the narrowest unsigned array that holds its roster's ranks
    (`core.id_typecode`: "H" up to 65,536 rows), so an edge costs the two
    id widths, four bytes on graph_export's 912-row rosters. A step's
    text, cells and lists are dropped before the next chunk is read.

    A plain chunk is whole lines of `rank,rank` (blank lines skipped) whose
    cells are canonical decimal ranks, as the exports write them. Cells are
    looked up in a table of each roster's rank spellings, so a miss (out of
    range, negative, signed, zero-padded, space-padded or not an integer)
    makes the chunk not plain. Repeats cost one comparison per edge while
    the packed keys i*n_right + j increase, as they do in an export;
    otherwise `_repeats` checks the columns.
    """
    left_ids = {str(k): k for k in range(n_left)}
    right_ids = left_ids if n_right == n_left else {str(k): k for k in range(n_right)}
    lefts, rights = array(id_typecode(n_left)), array(id_typecode(n_right))
    last, increasing = -1, True
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "left_rank,right_rank":
            return None
        rest, more = "", True
        while more:
            text = fh.read(_CSV_CHUNK)
            more = bool(text)
            text = rest + text
            if more:  # keep the last partial line for the next step
                cut = text.rfind("\n") + 1
                text, rest = text[:cut], text[cut:]
            text = text.strip("\n")  # universal newlines: no "\r" is left
            if "\n\n" in text:
                text = "\n".join(filter(None, text.split("\n")))
            if not text:
                continue
            if text.count(",") != text.count("\n") + 1 or _TWO_COMMAS(text):
                return None
            cells = text.replace("\n", ",").split(",")
            del text
            try:
                i = list(map(left_ids.__getitem__, cells[0::2]))
                j = list(map(right_ids.__getitem__, cells[1::2]))
            except KeyError:
                return None
            del cells
            keys = list(map(add, map(mul, i, repeat(n_right)), j))
            increasing = (
                increasing and last < keys[0] and all(map(lt, keys, islice(keys, 1, None)))
            )
            last = keys[-1]
            del keys
            lefts.fromlist(i)
            rights.fromlist(j)
            del i, j
    if not increasing and _repeats(lefts, rights, n_left):
        return None
    return lefts, rights


def _read_edge_csv(path: str, n_left: int, n_right: int) -> tuple[array, array]:
    """The edge CSV's (left ranks, right ranks) as id columns in file order,
    each the narrowest unsigned array that holds its roster's ranks
    (`core.id_typecode`), whichever way the file is read.
    `diagnostics.edge_distribution` adopts these arrays without a copy.

    The file is read in bulk while every cell is a canonical decimal rank
    inside its roster, which is how the exports spell them. Otherwise the
    whole file is read again row by row: there any spelling `int` accepts
    gives the same pairs, blank rows are skipped, and non-integer,
    out-of-range and repeated ranks raise a ValueError naming the CSV row,
    the first such row in the file. The row reader keeps only the two
    columns; repeats are found by `_repeats`, among the rows before a bad
    one if there is one, and only then is the file read a third time to
    name the row.
    """
    columns = _bulk_edge_columns(path, n_left, n_right)
    if columns is not None:
        return columns
    lefts, rights = array(id_typecode(n_left)), array(id_typecode(n_right))
    error = None
    try:
        for _, i, j in _scan_edge_rows(path, n_left, n_right):
            lefts.append(i)
            rights.append(j)
    except ValueError as exc:
        error = exc
    if _repeats(lefts, rights, n_left):
        error = _first_repeat(path, n_left, n_right)
    if error is not None:
        raise error
    return lefts, rights


def _field(header: dict, path: str, expected: type):
    """The entry of an export header at a dotted key path. ValueError names
    the first key on the path that is missing, or the key, the expected type
    and the value found when the entry has another type."""
    doc, keys = header, path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"export header has no {'.'.join(keys[: i + 1])!r}")
        doc = doc[key]
    if not isinstance(doc, expected) or isinstance(doc, bool) is not (expected is bool):
        raise ValueError(
            f"export header {path!r} should be {expected.__name__}, found {doc!r}"
        )
    return doc


def _count_field(header: dict, path: str) -> int:
    """An exact count that an export header writes as a decimal string."""
    text = _field(header, path, str)
    if not (text.isascii() and text.isdigit() and str(int(text)) == text):
        raise ValueError(
            f"export header {path!r} should be a decimal integer string, found {text!r}"
        )
    return int(text)


def import_graph(json_path: str, edges_csv_path: Optional[str] = None) -> TypicalityGraph:
    """Rebuild a graph from an export, checked against its header.

    The graph is rebuilt from the embedded spec, which scans no pair; its
    roster sizes and exact edge count must match the header. An edge CSV
    must list the edges of `edge_list` in its order; it is read and checked
    in bulk, then compared with them edge by edge.
    """
    with open(json_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    if header.get("schema") != GRAPH_SCHEMA:
        raise ValueError(f"unexpected schema {header.get('schema')!r}")
    spec = GraphSpec(
        joint=joint_from_dict(_field(header, "spec.joint", dict)),
        n=_field(header, "spec.n", int),
        params=_params_from_header(header),
        mode=_field(header, "spec.mode", str),
        cap=_field(header, "spec.cap", int),
    )
    sizes = (_field(header, "left_size", int), _field(header, "right_size", int))
    recorded = _count_field(header, "edge_count.value")
    g = build_graph(spec)
    if g.vertex_counts() != sizes:
        raise InvariantViolation("roster sizes disagree with the export header")
    if recorded != g.edge_count.value:
        raise InvariantViolation(
            f"edge count {recorded} in the export header differs from the "
            f"exact pair count {g.edge_count.value}"
        )
    if edges_csv_path is not None:
        got = zip(*_read_edge_csv(edges_csv_path, *g.vertex_counts()))
        for k, (edge, pair) in enumerate(zip_longest(edge_list(g), got)):
            if pair is None:
                raise ValueError("edge CSV ends before the last edge of the graph")
            if pair != edge:
                rows = _scan_edge_rows(edges_csv_path, *g.vertex_counts())
                line = next(islice(rows, k, None))[0]
                raise ValueError(
                    f"edge CSV row {line}: edge {pair} where the graph has "
                    + ("no more edges" if edge is None else f"{edge}")
                )
    return g
