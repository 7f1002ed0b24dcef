"""Converse-side diagnostics on explicit edge sets and whole graphs.

These tools examine the uniform distribution over the edges of a
(sub)graph: per-letter joint laws, the dominant joint type and its
pigeonhole share, the exact block mutual information against its counting
bound, the wringing loop that conditions away per-letter dependence, the
Pinsker near-independence check, and the square-root-order strong-converse
rate bound.

All distribution arithmetic is exact (counts over the edge multiset);
entropic values are floats in bits. Every tool takes one form of an edge
multiset, an `EdgeDistribution` (`block_mi`, the wring and the Pinsker
check also take a `TypeDistribution`, below): two id
columns that name each edge's endpoints, each side's distinct symbol rows
indexed by id, and one byte column of letter-pair codes per position.
Per-letter counts are `bytes.count` calls, and conditioning filters the
columns in bulk.
`edge_distribution` builds it from ids and rows (a rank CSV gives both,
with the rosters' ranks as ids, and their arrays are adopted as they are
read); `fano_distribution` builds it from aligned `Sequence` pairs. The
columns are built, measured and conditioned edge by edge, whatever order
the ids come in.

A typicality graph or subgraph is wrung without its edges, as a
`TypeDistribution`: a product of position blocks, each kept by its joint
types. Whether a pair is an edge of a whole graph depends only on the
types of its ends and on their joint type, so the uniform law on the
edges does not change when positions are permuted, and every count the
wring reads is a sum of multinomials over the graph's joint types:
`graph_distribution` keeps the law so, as one block of every position. In
a subgraph, (x, y) is an edge when, in every u-run, their joint type is
the run's target counts, so its edges are the product over runs of one
joint-type class each, and positions are exchangeable inside a run:
`subgraph_distribution` keeps one block per u-run, of one joint type.
Both forms of a law give one interface: its exact edge count `size`, each
position's integer letter-pair counts (`letter_counts`) and `condition`;
`block_mi` takes either form. So one greedy loop in `wring`, with its
stopping rules, tie-breaks, step records and `bound_ok`, and one
`pinsker_check` serve both, and equal counts give equal floats.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, compress, repeat
from operator import add, floordiv, itemgetter, mod, mul
from typing import Optional

from .core import (
    Alphabet,
    InvariantViolation,
    JointPmf,
    _repeats,
    float_sum,
    id_typecode,
    record,
    replace,
)
from .typicality import (
    JointTypeVector,
    _compositions_in_boxes,
    _Filled,
    multinomial,
)

_FP_TOL = 1e-9
_JOIN_SLICE = 1 << 15  # edges per slice of the column build


@record
class EdgeDistribution:
    """Uniform law over an explicit edge multiset, kept as id columns.

    Edge e joins xrows[xids[e]] to yrows[yids[e]]; the rows of a side are
    distinct symbol tuples of length n, and an id column is an unsigned
    integer array in edge order, as narrow as its side's row count allows
    ("H" up to 65,536 rows), which conditioning keeps. columns[t] holds,
    edge by edge, the code a*|Y| + b of the letter pair (a, b) at position
    t: one byte per edge while |X||Y| <= 256, a tuple of ints beyond that.
    So an edge costs the two id widths plus n column bytes: 14 bytes at
    n = 10 with two "H" columns. distinct is set only where it was proved
    that no (xid, yid) pair repeats: the reader of a rank CSV refuses a
    repeat, and the ids of a label CSV or of Fano pairs are checked
    (`core._repeats`); conditioning keeps it, since a subset of a distinct
    edge set is distinct. The exact per-letter laws are derived on first
    use.
    """

    xids: array
    yids: array
    xrows: tuple
    yrows: tuple
    x_alphabet: Alphabet
    y_alphabet: Alphabet
    n: int
    columns: tuple
    distinct: bool = False

    @property
    def size(self) -> int:
        """The number of edges, repeats counted."""
        return len(self.xids)

    def pairs(self):
        """Each edge's (x symbols, y symbols), in edge order."""
        return zip(
            map(self.xrows.__getitem__, self.xids), map(self.yrows.__getitem__, self.yids)
        )

    @cached_property
    def per_letter(self) -> tuple:
        """Exact JointPmf of the letter pair at each position."""
        total = self.size
        return tuple(
            JointPmf(
                self.x_alphabet,
                self.y_alphabet,
                tuple(tuple(Fraction(c, total) for c in row) for row in counts),
            )
            for counts in self.letter_counts()
        )

    def letter_counts(self) -> list:
        """The |X| x |Y| counts of the letter pairs at each position."""
        kx, ky = self.x_alphabet.size, self.y_alphabet.size
        return [_column_counts(col, kx, ky) for col in self.columns]

    def condition(self, t: int, code: int) -> "EdgeDistribution":
        """The edges whose letter pair at position t has the code a*|Y| + b,
        with their ids, rows and columns (`_restrict`); both id columns are
        filtered edge by edge with the keep mask and keep their typecodes.
        """
        codes = self.x_alphabet.size * self.y_alphabet.size
        keep, columns = _restrict(self.columns, t, code, codes)
        xids = array(self.xids.typecode, compress(self.xids, keep))
        yids = array(self.yids.typecode, compress(self.yids, keep))
        return replace(self, xids=xids, yids=yids, columns=columns)


def _column_counts(column, kx: int, ky: int) -> list[list[int]]:
    """|X| x |Y| counts of the pair codes in one column."""
    return [[column.count(a * ky + b) for b in range(ky)] for a in range(kx)]


def _check_rows(rows: tuple, n: int, alphabet: Alphabet) -> None:
    if n < 1:
        raise ValueError("sequences must have length >= 1")
    if any(len(r) != n for r in rows):
        raise ValueError("edges must share one blocklength")
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= alphabet.size:
        raise ValueError("sequence symbol out of alphabet range")
    if len(set(rows)) != len(rows):
        raise ValueError("the rows of a side must be distinct")


def _id_column(ids, size: int) -> array:
    """ids as an unsigned integer array: such an array is adopted as given,
    and anything else (a list, a signed or a float array) is converted
    once, to the narrowest unsigned typecode that holds [0, size). A
    negative id, a float or an id too wide for that typecode raises the
    ValueError of an out-of-range id."""
    if isinstance(ids, array) and ids.typecode in "BHILQ":
        return ids
    try:
        return array(id_typecode(size), ids)
    except (OverflowError, TypeError):
        raise ValueError(f"ids must lie in [0, {size})") from None


def _joined(enc: list, ids) -> int:
    """The rows enc[i] for i in ids, joined and read as one big integer; an
    id past the rows raises the ValueError of an out-of-range id."""
    try:
        return int.from_bytes(b"".join(map(enc.__getitem__, ids)), "big")
    except IndexError:
        raise ValueError(f"ids must lie in [0, {len(enc)})") from None


def edge_distribution(
    xids, yids, xrows, yrows, x_alphabet: Alphabet, y_alphabet: Alphabet
) -> EdgeDistribution:
    """The uniform law over the edges (xrows[xids[e]], yrows[yids[e]]).

    An id column that is an unsigned integer array (as `graph._read_edge_csv`
    returns) is kept as given, not copied; other id columns are converted
    once (`_id_column`). Unsigned ids are never negative, and an id past
    its side's rows fails the lookup of its row, so no id is scanned for
    its range.

    Each row is encoded once as a row of digits (a*|Y| on the left, b on
    the right). For each slice of `_JOIN_SLICE` edges, the rows of the left
    and of the right endpoints are joined into two byte strings, one row
    per edge, whose sum, as big integers, is every edge's row of pair
    codes: no digit carries.
    The sum is cut into one piece per position, and each column is the
    join of its pieces. So the big integers stay the size of one slice,
    and at the end an edge holds its two ids and n column bytes (n codes
    where |X||Y| > 256).
    """
    xrows, yrows = tuple(map(tuple, xrows)), tuple(map(tuple, yrows))
    xids, yids = _id_column(xids, len(xrows)), _id_column(yids, len(yrows))
    if len(xids) != len(yids):
        raise ValueError("the id columns differ in length")
    if not xids:
        raise ValueError("edge set is empty")
    if not (xrows and yrows):
        raise ValueError("ids must lie in [0, 0)")
    n = len(xrows[0])
    _check_rows(xrows, n, x_alphabet)
    _check_rows(yrows, n, y_alphabet)
    ky = y_alphabet.size
    width = max(1, ((x_alphabet.size * ky - 1).bit_length() + 7) // 8)
    xenc, yenc = (
        [b"".join((a * scale).to_bytes(width, "big") for a in r) for r in rows]
        for rows, scale in ((xrows, ky), (yrows, 1))
    )
    stride = n * width
    pieces: list = [[] for _ in range(n)]
    for k in range(0, len(xids), _JOIN_SLICE):
        end = min(k + _JOIN_SLICE, len(xids))
        size = (end - k) * stride
        left, right = _joined(xenc, xids[k:end]), _joined(yenc, yids[k:end])
        blob = (left + right).to_bytes(size, "big")
        for t, column in enumerate(pieces):
            column.append(
                blob[t::n]
                if width == 1
                else tuple(
                    int.from_bytes(blob[j : j + width], "big")
                    for j in range(t * width, size, stride)
                )
            )
    columns = []
    for column in pieces:  # a column's pieces are dropped once it is joined
        columns.append(b"".join(column) if width == 1 else tuple(chain.from_iterable(column)))
        column.clear()
    return EdgeDistribution(
        xids, yids, xrows, yrows, x_alphabet, y_alphabet, n, tuple(columns)
    )


def _endpoint_ids(seqs, n: int, alphabet) -> tuple[list[int], list[tuple]]:
    """Dense first-occurrence ids of one side's sequences, by symbols, and
    the distinct symbol tuples. Each distinct object is checked once against
    the blocklength and the alphabet (by identity, then by equality)."""
    object_ids = list(map(id, seqs))
    dense: dict = {}
    by_symbols: dict = {}
    for key, s in dict(zip(object_ids, seqs)).items():
        if s.n != n:
            raise ValueError("edges must share one blocklength")
        if s.alphabet is not alphabet and s.alphabet != alphabet:
            raise ValueError("edges must share alphabets")
        dense[key] = by_symbols.setdefault(s.symbols, len(by_symbols))
    return list(map(dense.__getitem__, object_ids)), list(by_symbols)


def fano_distribution(edges) -> EdgeDistribution:
    """Exact per-letter joint laws of the uniform distribution over edges,
    given as aligned (Sequence, Sequence) pairs.

    Each side's ids are dense, in first-occurrence order of its distinct
    sequences, compared by symbols. The set is marked distinct when no
    pair repeats.
    """
    edges = tuple(edges)
    if not edges:
        raise ValueError("edge set is empty")
    x0, y0 = edges[0]
    xids, xrows = _endpoint_ids(list(map(itemgetter(0), edges)), x0.n, x0.alphabet)
    yids, yrows = _endpoint_ids(list(map(itemgetter(1), edges)), x0.n, y0.alphabet)
    dist = edge_distribution(xids, yids, xrows, yrows, x0.alphabet, y0.alphabet)
    return dist if _repeats(dist.xids, dist.yids, len(xrows)) else replace(dist, distinct=True)


# ---------------------------------------------------------------------------
# a whole typicality graph, by joint types
# ---------------------------------------------------------------------------


@record
class TypeDistribution:
    """Uniform law over the edges of a typicality graph or subgraph, kept
    as a product of position blocks, each by its joint types, instead of
    edges.

    (x, y) is an edge exactly when, on every block, the pair's restriction
    to the block's positions is an edge of that block, and permuting a
    block's positions maps its edges to edges. So the blocks' letter pairs
    are independent, the edges number the product of the block sizes, and
    the edges of one block's joint type J over its len positions number
    the multinomial M(len; J). A whole graph is one block of every
    position and many joint types; a subgraph is one block per u-run, of
    one joint type, the run's target counts.

    fixed lists the (position, pair code a*|Y| + b) conditions in order.
    blocks holds, per block, its open positions and a (weight, residual)
    pair for each J with J >= C cellwise, C the count matrix of the pairs
    fixed on the block: residual is J - C flattened row-major and weight
    is M(m; J - C), m the number of open positions. A block's size is its
    weight sum. At each of its open positions the letter-pair counts are
    the product of the other blocks' sizes times N(a, b) = sum of weight *
    residual[ab] / m, and conditioning on (a, b) touches that block only,
    keeping weight * residual[ab] / m of each J.
    """

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    n: int
    fixed: tuple
    blocks: tuple  # (open positions, ((weight, residual), ...)) per block

    @cached_property
    def _sizes(self) -> tuple:
        """Each block's edge count."""
        return tuple(sum(weight for weight, _ in types) for _, types in self.blocks)

    @property
    def size(self) -> int:
        """The number of edges, exact at any size."""
        return math.prod(self._sizes)

    def letter_counts(self) -> list:
        """The |X| x |Y| counts of the letter pairs at each position: all
        of them at its code on a fixed position, its block's shared counts
        on an open one."""
        kx, ky = self.x_alphabet.size, self.y_alphabet.size
        cells, sizes = range(kx * ky), self._sizes
        total = math.prod(sizes)
        flats = {t: [total if c == code else 0 for c in cells] for t, code in self.fixed}
        for r, (positions, types) in enumerate(self.blocks):
            if positions:
                others, m = math.prod(sizes[:r]) * math.prod(sizes[r + 1 :]), len(positions)
                shared = [others * (sum(w * res[c] for w, res in types) // m) for c in cells]
                flats.update(dict.fromkeys(positions, shared))
        rows = map(flats.get, range(self.n))
        return [[f[a * ky : (a + 1) * ky] for a in range(kx)] for f in rows]

    def condition(self, t: int, code: int) -> "TypeDistribution":
        """The edges whose letter pair at position t has the code a*|Y| + b."""
        fixed = dict(self.fixed)
        if t in fixed:
            if fixed[t] == code:
                return self
            return replace(self, blocks=tuple((positions, ()) for positions, _ in self.blocks))
        blocks = list(self.blocks)
        r = next((r for r, (positions, _) in enumerate(blocks) if t in positions), None)
        if r is None:
            raise IndexError(f"position {t} is outside 0..{self.n - 1}")
        positions, types = blocks[r]
        m = len(positions)
        blocks[r] = (
            tuple(s for s in positions if s != t),
            tuple(
                (w * res[code] // m, res[:code] + (res[code] - 1,) + res[code + 1 :])
                for w, res in types
                if res[code]
            ),
        )
        return replace(self, fixed=self.fixed + ((t, code),), blocks=tuple(blocks))


def graph_distribution(g) -> TypeDistribution:
    """The uniform law over the edges of the typicality graph g, by joint
    types, as one block of all n positions: J runs over the count matrices
    inside the per-cell lam-boxes of the joint ball whose row sums lie in
    the row ball and whose column sums lie in the column ball, the boxes of
    g's left kernel. No edge, roster or sequence is listed; every J holds
    an edge, so there are at most as many as edges. InvariantViolation
    unless the types hold g's exact edge count."""
    joint = g.spec.joint
    n, rows, cells, cols = g._kernel("left").shape
    ky = joint.col_alphabet.size
    types = tuple(
        (multinomial(n, j), j)
        for j in _compositions_in_boxes(list(chain.from_iterable(cells)), n)
        if all(lo <= sum(j[a * ky : (a + 1) * ky]) <= hi for a, (lo, hi) in enumerate(rows))
        and all(lo <= sum(j[b::ky]) <= hi for b, (lo, hi) in enumerate(cols))
    )
    block = (tuple(range(n)), types)
    law = TypeDistribution(joint.row_alphabet, joint.col_alphabet, n, (), (block,))
    _check_size(law, g.edge_count.value)
    return law


def subgraph_distribution(sub) -> TypeDistribution:
    """The uniform law over the edges of the subgraph sub, as one block per
    u-run of one joint type each: (x, y) is an edge when, in every u-run,
    their joint counts are the run's target J_u, so the edges number the
    product of the M(len_u; J_u). No edge, roster or sequence is listed.
    InvariantViolation unless that product is the subgraph's edge count
    left_size * left_degree."""
    blocks, start = [], 0
    for nu, target in zip(sub.block_lengths, sub.block_targets):
        if nu:
            j = tuple(chain.from_iterable(target))
            blocks.append((tuple(range(start, start + nu)), ((multinomial(nu, j), j),)))
        start += nu
    joint = sub.joint
    law = TypeDistribution(joint.row_alphabet, joint.col_alphabet, sub.n, (), tuple(blocks))
    _check_size(law, sub.left_size.value * sub.left_degree.value)
    return law


def _check_size(law: TypeDistribution, edges: int) -> None:
    if law.size != edges:
        raise InvariantViolation(
            f"the joint types hold {law.size} edges, but the exact pair count is {edges}"
        )


def _pair_keys(dist: EdgeDistribution):
    """Each edge's packed pair id xid*|yrows| + yid, in edge order."""
    return map(add, map(mul, dist.xids, repeat(len(dist.yrows))), dist.yids)


@record
class DominantTypeResult:
    joint_type: JointTypeVector
    edge_fraction: Fraction
    distinct_types: int
    pigeonhole_ok: bool  # fraction >= (n+1)^(-|X||Y|), exact


def dominant_joint_type(dist: EdgeDistribution) -> DominantTypeResult:
    """Most frequent joint type among edges; ties to the lexicographically
    smallest flattened count vector. Each distinct pair is typed once."""
    kx, ky = dist.x_alphabet.size, dist.y_alphabet.size
    n, width = dist.n, len(dist.yrows)
    tally: dict = {}
    for pair, c in Counter(_pair_keys(dist)).items():
        i, j = divmod(pair, width)
        cells = [0] * (kx * ky)
        for a, b in zip(dist.xrows[i], dist.yrows[j]):
            cells[a * ky + b] += 1
        key = tuple(cells)
        tally[key] = tally.get(key, 0) + c
    best_key = min(tally, key=lambda k: (-tally[k], k))
    fraction = Fraction(tally[best_key], dist.size)
    counts = tuple(
        tuple(best_key[a * ky + b] for b in range(ky)) for a in range(kx)
    )
    result = DominantTypeResult(
        joint_type=JointTypeVector(dist.x_alphabet, dist.y_alphabet, counts),
        edge_fraction=fraction,
        distinct_types=len(tally),
        pigeonhole_ok=fraction >= Fraction(1, (n + 1) ** (kx * ky)),
    )
    if not result.pigeonhole_ok:
        raise InvariantViolation(
            "dominant type fraction fell below the pigeonhole floor"
        )
    return result


# ---------------------------------------------------------------------------
# block mutual information
# ---------------------------------------------------------------------------


def block_mi(dist) -> float:
    """Exact I between the two endpoints of a uniform random edge, in bits.

    dist is an `EdgeDistribution` or a `TypeDistribution` (`_type_block_mi`).
    On edges, the terms are added one after another, in first-occurrence
    order of their pair. A term depends only on the pair's count c and the
    product of its endpoints' counts, so equal inputs share one computed
    term. On a distinct edge set every c is 1 and the pairs come in edge
    order, so the pairs are not counted: each edge's term is looked up by
    the product of its endpoints' degrees. Each side's degrees are counted
    off its id array.
    """
    if isinstance(dist, TypeDistribution):
        return _type_block_mi(dist)
    total = dist.size
    log2 = math.log2

    @lru_cache(maxsize=None)
    def term(c: int, product: int) -> float:
        return (c / total) * log2(c * total / product)

    xids, yids = dist.xids, dist.yids
    x_counts = Counter(xids)
    x_deg = list(map(x_counts.__getitem__, range(len(dist.xrows))))
    y_counts = Counter(yids)
    if dist.distinct:
        y_deg = list(map(y_counts.__getitem__, range(len(dist.yrows))))
        products = map(mul, map(x_deg.__getitem__, xids), map(y_deg.__getitem__, yids))
        terms = map(_Filled(partial(term, 1)).__getitem__, products)
    else:
        width = len(dist.yrows)
        pair_counts = Counter(_pair_keys(dist))
        products = map(
            mul,
            map(x_deg.__getitem__, map(floordiv, pair_counts, repeat(width))),
            map(y_counts.__getitem__, map(mod, pair_counts, repeat(width))),
        )
        terms = map(term, pair_counts.values(), products)
    return max(0.0, reduce(add, terms, 0.0))


def _type_block_mi(law: TypeDistribution) -> float:
    """The block MI of a law kept by joint types: the sum of its blocks'
    MIs, since the blocks' letter pairs are independent. In a block with m
    open positions, the M(m; t) vertices of a side's residual type t share
    one degree, E_t // M(m; t), E_t the weight of the types whose residual
    sums to t. So a block's MI is log2 E minus the sum of E_t / E *
    log2 degree over the row types, then the column types, each side in
    lexicographic order, E the block's size: on a whole graph, the terms
    of its two degree tables, in their order."""
    kx, ky = law.x_alphabet.size, law.y_alphabet.size

    def mi(m, types, total):
        rows, cols = {}, {}
        for weight, r in types:
            t = tuple(sum(r[a * ky : (a + 1) * ky]) for a in range(kx))
            rows[t] = rows.get(t, 0) + weight
            t = tuple(sum(r[b::ky]) for b in range(ky))
            cols[t] = cols.get(t, 0) + weight
        terms = (
            mass / total * math.log2(mass // multinomial(m, t))
            for side in (rows, cols)
            for t, mass in sorted(side.items())
        )
        return max(0.0, math.log2(total) - float_sum(terms))

    blocks = zip(law.blocks, law._sizes)
    return float_sum(mi(len(positions), types, size) for (positions, types), size in blocks)


@record
class BlockMiReport:
    exact_mi: Optional[float]  # None when edges were not supplied/too many
    count_bound: float  # log2(M1*M2 / |edges|)
    lemma_bound: float  # 2 n delta_n + |X||Y| log2(n+1)
    edge_floor_ok: bool  # |edges| >= M1 M2 2^{-2n delta} (n+1)^{-|X||Y|}
    exact_within_bound: Optional[bool]


_EXACT_MI_EDGES = 2_000_000  # largest edge set whose exact MI block_mi_bound takes


def block_mi_bound(
    m1_count: int,
    m2_count: int,
    edge_count: int,
    n: int,
    delta_n,
    x_size: int,
    y_size: int,
    edges: Optional[EdgeDistribution] = None,
) -> BlockMiReport:
    """Counting bound on the block MI of a uniform edge within M1 x M2.

    When the edge count meets the construction floor, the count bound is at
    most the closed-form 2 n delta + |X||Y| log2(n+1), and any exact MI
    computed from the supplied edge distribution must sit under it.
    """
    if min(m1_count, m2_count, edge_count) < 1:
        raise ValueError("counts must be positive")
    d = float(delta_n)
    count_bound = math.log2(m1_count) + math.log2(m2_count) - math.log2(edge_count)
    lemma_bound = 2.0 * n * d + x_size * y_size * math.log2(n + 1)
    floor_ok = (
        math.log2(edge_count)
        >= math.log2(m1_count)
        + math.log2(m2_count)
        - 2.0 * n * d
        - x_size * y_size * math.log2(n + 1)
        - _FP_TOL
    )
    exact = None
    within: Optional[bool] = None
    if edges is not None and edges.size <= _EXACT_MI_EDGES:
        exact = block_mi(edges)
        if floor_ok:
            within = exact <= lemma_bound + _FP_TOL
            if not within:
                raise InvariantViolation("exact block MI exceeded its counting bound")
    return BlockMiReport(
        exact_mi=exact,
        count_bound=count_bound,
        lemma_bound=lemma_bound,
        edge_floor_ok=floor_ok,
        exact_within_bound=within,
    )


# ---------------------------------------------------------------------------
# wringing
# ---------------------------------------------------------------------------


def _per_letter_mi(counts: list, total: int) -> float:
    """The MI of one position's letter pair, from its |X| x |Y| counts."""
    rows, cols = list(map(sum, counts)), list(map(sum, zip(*counts)))
    terms = (
        (c / total) * math.log2(c * total / (rows[a] * cols[b]))
        for a, row in enumerate(counts)
        for b, c in enumerate(row)
        if c
    )
    return max(0.0, float_sum(terms))


def _pinsker_tv(counts: list, total: int) -> float:
    """The TV between one position's letter-pair law and the product of
    its marginals, exact from its counts, then rounded once to a float."""
    rows, cols = list(map(sum, counts)), list(map(sum, zip(*counts)))
    gap = sum(
        abs(c * total - rows[a] * cols[b])
        for a, row in enumerate(counts)
        for b, c in enumerate(row)
    )
    return float(Fraction(gap, total * total))


def _restrict(columns: tuple, t: int, code: int, codes: int) -> tuple[bytes, tuple]:
    """The keep mask of the edges whose pair code at position t is `code`,
    and every column restricted to those edges.

    Byte columns are filtered with bytes operations while some byte value
    is no pair code (codes < 256): 0xFF is ORed into the byte of every
    dropped edge, as one big-integer OR per column, and then deleted.
    Columns of ints, and byte columns that use all 256 values, go through
    `compress`.
    """
    col = columns[t]
    if not isinstance(col, bytes):
        keep = bytes(map(code.__eq__, col))
        return keep, tuple(tuple(compress(c, keep)) for c in columns)
    table = bytearray(256)
    table[code] = 1
    keep = col.translate(table)
    if codes == 256:
        return keep, tuple(bytes(compress(c, keep)) for c in columns)
    table = bytearray(b"\xff" * 256)
    table[code] = 0
    size, drop = len(col), int.from_bytes(col.translate(table), "big")
    return keep, tuple(
        (int.from_bytes(c, "big") | drop).to_bytes(size, "big").translate(None, b"\xff")
        for c in columns
    )


@record
class WringingStep:
    position: int
    value: tuple  # (x label, y label) conditioned on
    surviving: int
    fraction: Fraction  # of the original edge count
    max_mi_before: float


@record
class WringingResult:
    positions: tuple
    values: tuple
    k: int
    delta: float
    sigma: float
    surviving_fraction: Fraction
    per_letter_mi: tuple  # after conditioning
    survivors: object  # the conditioned EdgeDistribution or TypeDistribution
    steps: tuple
    converged: bool
    bound_ok: Optional[bool]  # survival >= (delta/(|X||Y|(2 sigma-delta)))^k


def check_budget(delta: float, sigma: Optional[float] = None) -> None:
    """Raise ValueError unless delta is positive and finite and sigma, when
    given, is nonnegative and finite."""
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if sigma is not None and not (sigma >= 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")


def wring(dist, delta: float, sigma: Optional[float] = None) -> WringingResult:
    """Condition per-letter values until every per-letter MI is <= delta.

    Greedy: repeatedly pick the worst position (largest per-letter MI, ties
    to the smallest index), condition on its most probable value pair (ties
    lexicographic), and restrict the edge multiset. Conditioning on a point
    law is never selected (its MI is 0), so each step strictly shrinks the
    multiset. Runs past 2*sigma/delta are cut off and flagged, never
    silently truncated.

    dist is an `EdgeDistribution`, whose survivors keep its id columns and
    rows, restricted to the surviving edges (`EdgeDistribution.condition`),
    or a `TypeDistribution`, conditioned by joint types. One loop serves
    both: it reads each law's exact `size` and each position's integer
    letter-pair counts, so equal counts give equal floats. sigma defaults
    to `block_mi(dist)`, on either form.
    """
    check_budget(delta, sigma)
    kx, ky = dist.x_alphabet.size, dist.y_alphabet.size
    if sigma is None:
        sigma = block_mi(dist)
    total0 = dist.size
    hard_cap = dist.n * kx * ky
    step_cap = 2.0 * sigma / delta
    positions: list[int] = []
    values: list[tuple] = []
    steps: list[WringingStep] = []
    converged = False
    while True:
        total = dist.size
        counts = dist.letter_counts()
        mis = [_per_letter_mi(c, total) for c in counts]
        worst = max(mis)
        if worst <= delta + _FP_TOL:
            converged = True
            break
        k = len(positions)
        if k >= hard_cap or k + 1 > step_cap:
            break  # flagged partial result
        t_star = mis.index(worst)
        best = counts[t_star]
        *_, a_star, b_star = max((best[a][b], -a, -b, a, b) for a in range(kx) for b in range(ky))
        dist = dist.condition(t_star, a_star * ky + b_star)
        if not dist.size:
            # cannot happen for the argmax value; defensive, loud
            raise InvariantViolation("conditioning emptied the edge multiset")
        positions.append(t_star)
        values.append((dist.x_alphabet.label(a_star), dist.y_alphabet.label(b_star)))
        steps.append(
            WringingStep(
                position=t_star,
                value=values[-1],
                surviving=dist.size,
                fraction=Fraction(dist.size, total0),
                max_mi_before=worst,
            )
        )
    k = len(positions)
    fraction = Fraction(total, total0)
    bound_ok: Optional[bool] = None
    if converged and 2.0 * sigma - delta > 0 and k < step_cap:
        floor = (delta / (kx * ky * (2.0 * sigma - delta))) ** k
        bound_ok = float(fraction) >= floor * (1.0 - 1e-12)
    return WringingResult(
        positions=tuple(positions),
        values=tuple(values),
        k=k,
        delta=delta,
        sigma=sigma,
        surviving_fraction=fraction,
        per_letter_mi=tuple(mis),
        survivors=dist,
        steps=tuple(steps),
        converged=converged,
        bound_ok=bound_ok,
    )


def wringing_to_dict(result: WringingResult) -> dict:
    """JSON-ready trace of a wringing run."""
    return {
        "k": result.k,
        "delta": result.delta,
        "sigma": result.sigma,
        "converged": result.converged,
        "bound_ok": result.bound_ok,
        "positions": list(result.positions),
        "values": [[str(a), str(b)] for a, b in result.values],
        "surviving_fraction": str(result.surviving_fraction),
        "surviving_edges": result.survivors.size,
        "per_letter_mi": list(result.per_letter_mi),
        "steps": [
            {
                "position": s.position,
                "value": [str(s.value[0]), str(s.value[1])],
                "surviving": s.surviving,
                "fraction": str(s.fraction),
                "max_mi_before": s.max_mi_before,
            }
            for s in result.steps
        ],
    }


# ---------------------------------------------------------------------------
# near-independence and the strong-converse rate bound
# ---------------------------------------------------------------------------


def pinsker_check(dist, delta: float) -> tuple:
    """Per-letter TV to the product of marginals; each must be <= 2*sqrt(delta).

    dist is an `EdgeDistribution` or a `TypeDistribution`; each TV is exact
    from the position's letter-pair counts. Requires every per-letter MI
    to be at most delta already (run the wring first); under that
    hypothesis the bound is a theorem, so a violation raises instead of
    returning quietly.
    """
    check_budget(delta)
    total = dist.size
    cap = 2.0 * math.sqrt(delta)
    counts = dist.letter_counts()
    for t, c in enumerate(counts):
        mi = _per_letter_mi(c, total)
        if mi > delta + _FP_TOL:
            raise ValueError(
                f"per-letter MI {mi} at position {t} exceeds delta; wring first"
            )
    tvs = tuple(_pinsker_tv(c, total) for c in counts)
    for tv in tvs:
        if tv > cap + _FP_TOL:
            raise InvariantViolation(f"per-letter TV {tv} exceeded 2*sqrt(delta)")
    return tvs


def strong_converse_bound(
    per_letter_mi_sum: float, lam: float, alphabet_size: int, n: int
) -> float:
    """Rate cap sum_t I_t + 3/(1-lam) * |A| * sqrt(n), in bits.

    Diverges as lam -> 1; lam >= 1 is rejected.
    """
    if not 0 <= lam < 1:
        raise ValueError("lam must lie in [0, 1)")
    if per_letter_mi_sum < 0:
        raise ValueError("per-letter MI sum must be nonnegative")
    if alphabet_size < 1 or n < 1:
        raise ValueError("alphabet_size and n must be positive")
    return per_letter_mi_sum + 3.0 / (1.0 - lam) * alphabet_size * math.sqrt(n)
