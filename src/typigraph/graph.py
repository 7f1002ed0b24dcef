"""Bipartite typicality graphs.

Left vertices are the eps1-typical sequences for the row marginal, right
vertices the eps2-typical sequences for the column marginal, and an edge
joins (x, y) exactly when the pair is jointly lam-typical. Vertex ids are
lexicographic ranks within each roster.

A vertex's degree depends only on its type, so one degree kernel per side
(`typicality._DegreeKernel`, whose `_oriented` decides what a side is;
both sides share one when their shapes agree) answers every degree
question: its table gives the edge count, the statistics and the degree
bound exactly, at the level of types, and `degree_of` asks the same
kernel, which reads a type's filed orbit and otherwise counts the one
type. A graph holds its spec and counts only: an explicit graph, its
roster sizes capped, walks a side's rows on demand (`_rows`), and
`edge_list` streams the edges from one pair scan over them.

The pair scan (`JointTypeIndex.scan`) tests each left row against the
whole right roster at once, from bit planes of the roster, and gives the
row's neighbours as one bit set over the right ranks; its consumers read
a row's edges off that set (`_flags`) with no Python work per pair.

An export's edge CSV is defined in one place, `_rank_texts`: the writer
writes its text, and `_is_rank_csv` tells whether a file is byte for byte
that text, comparing them rank by rank as the rows stream, up to the
first difference. `_is_export` feeds it a graph's pair scan and
`subgraphs._is_subgraph_export` a subgraph's neighbour listing.
`import_graph` and `subgraphs.import_subgraph` read their header through
one `_read_header`, which also takes a header already read.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from fractions import Fraction
from functools import cached_property, partial
from itertools import compress, islice, repeat, zip_longest
from operator import add, lt, mul
from typing import Iterator, Optional

from .core import (
    DEFAULT_CAP,
    CapExceeded,
    InvariantViolation,
    JointPmf,
    _decimal,
    _load_json,
    _repeats,
    _write_json,
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

    Each side's degree kernel is built once, when first needed, or is the
    other side's when their shapes agree, and answers for that side:
    `stats` and `check_degree_bound` read its table, and `degree_of` asks
    it for one type. An explicit graph walks a side's vertices on demand
    (`roster`).
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
        """The side's kernel: the other side's when their shapes agree."""
        kernels = self._kernels
        if side not in kernels:
            spec = self.spec
            kernels[side] = _DegreeKernel.of_side(
                spec.joint, spec.params, spec.n, side, list(kernels.values())
            )
        return kernels[side]

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
    left_kernel = _DegreeKernel.of_side(joint, params, n, "left")
    left_table = left_kernel.table()
    left_count = sum(size for size, _ in left_table.values())
    right_count = typical_set_size(joint.col_marginal(), params.eps2, n).value
    if spec.mode == "explicit" and max(left_count, right_count) > spec.cap:
        raise CapExceeded(
            f"rosters of {_decimal(left_count)} and {_decimal(right_count)} sequences exceed "
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


def _scan_rows(g: TypicalityGraph) -> Iterator[int]:
    """One pair scan over the rosters: each left vertex's right ids as a bit
    set, rank j at bit |R|-1-j (`_flags`)."""
    spec = g.spec
    index = JointTypeIndex.ball(spec.joint, spec.params.lam, spec.n)
    return index.scan(_rows(g, "left"), _rows(g, "right"))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _flags(hits: int, width: int) -> bytes:
    """A scan row's bit set over width right ranks, as one 0/1 byte per
    rank in rank order: selectors for `compress`."""
    return format(hits, f"0{width}b").encode().translate(_BITS)


def edge_list(g: TypicalityGraph) -> Iterator[tuple[int, int]]:
    """Stream (left_id, right_id) pairs in lexicographic order, from one
    pair scan over the rosters."""
    ranks = range(g.vertex_counts()[1])
    for i, hits in enumerate(_scan_rows(g)):
        yield from zip(repeat(i), compress(ranks, _flags(hits, len(ranks))))


_RANK_HEAD = "left_rank,right_rank\r\n"


def _rank_texts(rows, width: int) -> Iterator[tuple[int, str]]:
    """(edge count, lines) of each left rank with an edge, in left-rank
    order: the text an export writes for that rank after its `_RANK_HEAD`.
    rows hold each left rank's right ranks, all below width: scan bit sets
    over width right ranks, or ascending lists.

    A rank's edges are one joined string, in the bytes of csv's default
    dialect: canonical decimal ranks and CRLF line ends. Right ranks are
    spelled from a table of str(k) for k below width, picked by a bit
    set's flags or by the listed ranks.
    """
    spell = list(map(str, range(width)))
    for i, nbrs in enumerate(rows):
        if not nbrs:
            continue
        if isinstance(nbrs, int):
            count, picked = nbrs.bit_count(), compress(spell, _flags(nbrs, width))
        else:
            count, picked = len(nbrs), map(spell.__getitem__, nbrs)
        head = f"{i},"
        yield count, head + f"\r\n{head}".join(picked) + "\r\n"


def _write_rank_csv(path: str, rows, expected: int, width: int) -> None:
    """Write a `left_rank,right_rank` edge CSV from the rows of
    `_rank_texts` over width right ranks, in its text. InvariantViolation
    unless exactly `expected` edges were written."""
    written = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_RANK_HEAD)
        for count, text in _rank_texts(rows, width):
            fh.write(text)
            written += count
    if written != expected:
        raise InvariantViolation(
            f"{written} edges written, but the exact pair count is {expected}"
        )


def _is_rank_csv(path: str, rows, expected: int, width: int) -> bool:
    """Whether the file at path is byte for byte the edge CSV that
    `_write_rank_csv` writes from rows over width right ranks, holding
    `expected` edges: the file is compared with the text one left rank at
    a time, as rows stream, stopping at the first difference."""
    written = 0
    with open(path, "rb") as fh:
        if fh.read(len(_RANK_HEAD)) != _RANK_HEAD.encode():
            return False
        for count, text in _rank_texts(rows, width):
            if fh.read(len(text)) != text.encode():
                return False
            written += count
        return written == expected and not fh.read(1)


def _is_export(g: TypicalityGraph, path: str) -> bool:
    """Whether the file at path is byte for byte the edge CSV that
    `export_graph` writes for g (`_is_rank_csv`), its rows from one pair
    scan that walks each roster once: only an explicit graph with an edge,
    whose |L|*|R| pair scan is under its cap, has one.
    """
    spec = g.spec
    nl, nr = g.vertex_counts()
    if spec.mode != "explicit" or not g.edge_count.value or nl * nr > spec.cap:
        return False
    return _is_rank_csv(path, _scan_rows(g), g.edge_count.value, nr)


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
        "edge_count": {"value": _decimal(g.edge_count.value), "log2": g.edge_count.log2},
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
    _write_json(json_path, header)
    if edges_csv_path is not None:
        _write_rank_csv(edges_csv_path, _scan_rows(g), g.edge_count.value, nr)


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


def _count_field(header: dict, path: str) -> str:
    """An exact count that an export header writes as a decimal string, as
    that string: it is compared with the `_decimal` digits of the rebuilt
    count and never parsed, so a count of any length imports."""
    text = _field(header, path, str)
    if not (text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")):
        raise ValueError(
            f"export header {path!r} should be a decimal integer string, found {text!r}"
        )
    return text


def _read_header(source, schema: str) -> tuple[dict, JointPmf, int, TypicalityParams]:
    """(header, joint, n, params) of an export header, read from its spec:
    the joint, the blocklength and the slack parameters, whose slacks are
    fraction strings. source is the header's path, or the document
    already read from it (a dict), which is not read again. ValueError
    when the document is not a JSON object of that schema, or naming the
    key that is missing or malformed."""
    header = source if isinstance(source, dict) else _load_json(source)
    if not isinstance(header, dict):
        raise ValueError(f"export header should be a JSON object, found {type(header).__name__}")
    if header.get("schema") != schema:
        raise ValueError(f"unexpected schema {header.get('schema')!r}")
    joint = joint_from_dict(_field(header, "spec.joint", dict))
    n = _field(header, "spec.n", int)
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
    params = TypicalityParams(*slacks, _field(header, "spec.params.schedule", str))
    return header, joint, n, params


def import_graph(json_path, edges_csv_path: Optional[str] = None) -> TypicalityGraph:
    """Rebuild a graph from an export, checked against its header.

    json_path is the header's path or its document as read (`_read_header`).
    The graph is rebuilt from the embedded spec, which scans no pair; its
    roster sizes and exact edge count must match the header. An edge CSV
    must list the edges of `edge_list` in its order; it is read and checked
    in bulk, then compared with them edge by edge.
    """
    header, joint, n, params = _read_header(json_path, GRAPH_SCHEMA)
    spec = GraphSpec(
        joint, n, params, _field(header, "spec.mode", str), _field(header, "spec.cap", int)
    )
    sizes = (_field(header, "left_size", int), _field(header, "right_size", int))
    recorded = _count_field(header, "edge_count.value")
    g = build_graph(spec)
    if g.vertex_counts() != sizes:
        raise InvariantViolation("roster sizes disagree with the export header")
    exact = _decimal(g.edge_count.value)
    if recorded != exact:
        raise InvariantViolation(
            f"edge count {recorded} in the export header differs from the "
            f"exact pair count {exact}"
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
