"""Converse-side diagnostics on explicit edge sets.

These tools examine the uniform distribution over the edges of a
(sub)graph: per-letter joint laws, the dominant joint type and its
pigeonhole share, the exact block mutual information against its counting
bound, the wringing loop that conditions away per-letter dependence, the
Pinsker near-independence check, and the square-root-order strong-converse
rate bound.

All distribution arithmetic is exact (counts over the edge multiset);
entropic values are floats in bits. Every tool takes one form of the edge
multiset, an `EdgeDistribution`: two id columns that name each edge's
endpoints, each side's distinct symbol rows indexed by id, and one byte
column of letter-pair codes per position. Per-letter counts are
`bytes.count` calls, and conditioning filters the columns in bulk.
`edge_distribution` builds it from ids and rows (a rank CSV gives both,
with the rosters' ranks as ids, and their arrays are adopted as they are
read); `fano_distribution` builds it from aligned `Sequence` pairs.

Left ids that never decrease, as an export's rank CSV lists them, are
worked once per run of one id rather than once per edge: the column build
joins one repeated row per run, block MI reads the left degrees off the
run lengths, and `wring` keeps the left ids as run lengths while it
conditions. The runs are found where they are needed (`_runs`), and any
other left column is worked edge by edge, to the same columns and floats.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, floordiv, itemgetter, mod, mul, sub
from typing import Optional

from .core import Alphabet, InvariantViolation, JointPmf, id_typecode, record, replace
from .typicality import JointTypeVector, _Filled

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
    n = 10 with two "H" columns. The left ids may come in runs of one id
    (`_runs`), as a rank CSV's do; that is found by the tools that use it,
    not kept on the record. distinct is set only
    where it was proved that no (xid, yid) pair repeats: the reader of a
    rank CSV refuses a repeat, and a label CSV's ids are checked
    (`graph._repeats`); conditioning keeps it, since a subset of a distinct
    edge set is distinct. The exact per-letter laws are derived on first use.
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

    def __len__(self) -> int:
        return len(self.xids)

    def pairs(self):
        """Each edge's (x symbols, y symbols), in edge order."""
        return zip(
            map(self.xrows.__getitem__, self.xids), map(self.yrows.__getitem__, self.yids)
        )

    @cached_property
    def per_letter(self) -> tuple:
        """Exact JointPmf of the letter pair at each position."""
        kx, ky = self.x_alphabet.size, self.y_alphabet.size
        total = len(self)
        return tuple(
            JointPmf(
                self.x_alphabet,
                self.y_alphabet,
                tuple(
                    tuple(Fraction(c, total) for c in row)
                    for row in _column_counts(col, kx, ky)
                ),
            )
            for col in self.columns
        )


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


def _runs(ids, size: int) -> Optional[list]:
    """Where each id's run starts, when the ids never decrease, as an
    export's left ranks do: id i fills ids[starts[i]:starts[i + 1]], and
    starts[size] is len(ids). None when some id decreases or lies past
    [0, size).

    Each start is one `bisect_left`, and bisection keeps the starts in
    order whatever the column holds. Each run is then compared, as an
    array of its own, to its first id repeated, one run at a time: so the
    check holds no second column.
    """
    starts = [bisect_left(ids, i) for i in range(size + 1)]
    if starts[0] or starts[-1] != len(ids):
        return None
    for i, (a, b) in enumerate(zip(starts, islice(starts, 1, None))):
        if a < b and (ids[a] != i or ids[a:b] != ids[a : a + 1] * (b - a)):
            return None
    return starts


def _repeated(typecode: str, counts: list) -> array:
    """The id column of the given typecode in which id i fills a run of
    counts[i]: one array repeat per run."""
    ids = array(typecode)
    for i, c in enumerate(counts):
        if c:
            ids.extend(array(typecode, (i,)) * c)
    return ids


def _run_joined(enc: list, ids, starts: list, lo: int, hi: int) -> int:
    """`_joined(enc, ids[lo:hi])` for ids with runs `starts`: one repeat of
    a row per run."""
    return int.from_bytes(
        b"".join(
            enc[i] * (min(starts[i + 1], hi) - max(starts[i], lo))
            for i in range(ids[lo], ids[hi - 1] + 1)
        ),
        "big",
    )


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
    and of the right endpoints are joined into two byte strings (the left
    one as one repeated row per run when the left ids never decrease,
    `_runs`; one row per edge otherwise) whose sum,
    as big integers, is every edge's row of pair codes: no digit carries.
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
    starts = _runs(xids, len(xrows))
    pieces: list = [[] for _ in range(n)]
    for k in range(0, len(xids), _JOIN_SLICE):
        end = min(k + _JOIN_SLICE, len(xids))
        left = (
            _joined(xenc, xids[k:end])
            if starts is None
            else _run_joined(xenc, xids, starts, k, end)
        )
        size = (end - k) * stride
        blob = (left + _joined(yenc, yids[k:end])).to_bytes(size, "big")
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
    sequences, compared by symbols.
    """
    edges = tuple(edges)
    if not edges:
        raise ValueError("edge set is empty")
    x0, y0 = edges[0]
    xids, xrows = _endpoint_ids(list(map(itemgetter(0), edges)), x0.n, x0.alphabet)
    yids, yrows = _endpoint_ids(list(map(itemgetter(1), edges)), x0.n, y0.alphabet)
    return edge_distribution(xids, yids, xrows, yrows, x0.alphabet, y0.alphabet)


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
    fraction = Fraction(tally[best_key], len(dist))
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


def block_mi(dist: EdgeDistribution) -> float:
    """Exact I between the two endpoints of a uniform random edge, in bits.

    The terms are added one after another, in first-occurrence order of
    their pair. A term depends only on the pair's count c and the product
    of its endpoints' counts, so equal inputs share one computed term. On
    a distinct edge set every c is 1 and the pairs come in edge order, so
    the pairs are not counted: each edge's term is looked up by the product
    of its endpoints' degrees. The right degrees are counted off the right
    id array. When the left ids never decrease (`_runs`), as in an export's
    rank CSV, the left degrees are the run lengths, and each run's terms
    are looked up in one table for its left degree, keyed by the right
    degree; otherwise the left degrees are counted like the right ones.
    """
    total = len(dist)
    log2 = math.log2

    @lru_cache(maxsize=None)
    def term(c: int, product: int) -> float:
        return (c / total) * log2(c * total / product)

    xids, yids = dist.xids, dist.yids
    starts = _runs(xids, len(dist.xrows))
    if starts is None:
        x_counts = Counter(xids)
        x_deg = list(map(x_counts.__getitem__, range(len(dist.xrows))))
    else:
        x_deg = list(map(sub, islice(starts, 1, None), starts))
    y_counts = Counter(yids)
    if dist.distinct:
        y_deg = list(map(y_counts.__getitem__, range(len(dist.yrows))))
        if starts is None:
            products = map(mul, map(x_deg.__getitem__, xids), map(y_deg.__getitem__, yids))
            terms = map(_Filled(partial(term, 1)).__getitem__, products)
        else:
            tables = _Filled(lambda dx: _Filled(lambda dy: term(1, dx * dy)))
            terms = chain.from_iterable(
                map(tables[b - a].__getitem__, map(y_deg.__getitem__, yids[a:b]))
                for a, b in zip(starts, islice(starts, 1, None))
            )
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
    if edges is not None and len(edges) <= _EXACT_MI_EDGES:
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


def _per_letter_mi(column, kx: int, ky: int, total: int) -> float:
    counts = _column_counts(column, kx, ky)
    rows = [sum(r) for r in counts]
    cols = [sum(counts[a][b] for a in range(kx)) for b in range(ky)]
    acc = 0.0
    for a in range(kx):
        for b in range(ky):
            c = counts[a][b]
            if c:
                acc += (c / total) * math.log2(c * total / (rows[a] * cols[b]))
    return max(0.0, acc)


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
    survivors: EdgeDistribution  # the conditioned edge multiset
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


def wring(dist: EdgeDistribution, delta: float, sigma: Optional[float] = None) -> WringingResult:
    """Condition per-letter values until every per-letter MI is <= delta.

    Greedy: repeatedly pick the worst position (largest per-letter MI, ties
    to the smallest index), condition on its most probable value pair (ties
    lexicographic), and restrict the edge multiset. Conditioning on a point
    law is never selected (its MI is 0), so each step strictly shrinks the
    multiset. Runs past 2*sigma/delta are cut off and flagged, never
    silently truncated. The survivors keep the id columns and rows of
    `dist`, restricted to the surviving edges.

    Conditioning filters the right ids edge by edge. Left ids that never
    decrease (`_runs`) are kept per run: each step counts each run's kept
    edges in the keep mask, and the survivors' left ids are those counts'
    repeats, so they still run. Other left ids are filtered edge by edge.
    """
    check_budget(delta, sigma)
    kx, ky = dist.x_alphabet.size, dist.y_alphabet.size
    if sigma is None:
        sigma = block_mi(dist)
    total0 = len(dist)
    hard_cap = dist.n * kx * ky
    step_cap = 2.0 * sigma / delta
    columns, xids, yids = dist.columns, dist.xids, dist.yids
    starts = _runs(xids, len(dist.xrows))
    positions: list[int] = []
    values: list[tuple] = []
    steps: list[WringingStep] = []
    converged = False
    while True:
        total = len(xids)
        mis = [_per_letter_mi(col, kx, ky, total) for col in columns]
        worst = max(mis)
        if worst <= delta + _FP_TOL:
            converged = True
            break
        k = len(positions)
        if k >= hard_cap or k + 1 > step_cap:
            break  # flagged partial result
        t_star = mis.index(worst)
        counts = _column_counts(columns[t_star], kx, ky)
        best_ab = max(
            ((counts[a][b], -a, -b, a, b) for a in range(kx) for b in range(ky))
        )
        a_star, b_star = best_ab[3], best_ab[4]
        keep, columns = _restrict(columns, t_star, a_star * ky + b_star, kx * ky)
        if starts is None:
            xids = array(xids.typecode, compress(xids, keep))
        else:
            counts = [keep[a:b].count(1) for a, b in zip(starts, islice(starts, 1, None))]
            xids = _repeated(xids.typecode, counts)
            starts = list(accumulate(counts, initial=0))
        yids = array(yids.typecode, compress(yids, keep))
        if not xids:
            # cannot happen for the argmax value; defensive, loud
            raise InvariantViolation("conditioning emptied the edge multiset")
        positions.append(t_star)
        values.append((dist.x_alphabet.label(a_star), dist.y_alphabet.label(b_star)))
        steps.append(
            WringingStep(
                position=t_star,
                value=values[-1],
                surviving=len(xids),
                fraction=Fraction(len(xids), total0),
                max_mi_before=worst,
            )
        )
    total = len(xids)
    final_mi = tuple(_per_letter_mi(col, kx, ky, total) for col in columns)
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
        per_letter_mi=final_mi,
        survivors=replace(dist, xids=xids, yids=yids, columns=columns),
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
        "surviving_edges": len(result.survivors),
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


def pinsker_check(dist: EdgeDistribution, delta: float) -> tuple:
    """Per-letter TV to the product of marginals; each must be <= 2*sqrt(delta).

    Requires every per-letter MI to be at most delta already (run the wring
    first); under that hypothesis the bound is a theorem, so a violation
    raises instead of returning quietly.
    """
    check_budget(delta)
    kx, ky = dist.x_alphabet.size, dist.y_alphabet.size
    total = len(dist)
    cap = 2.0 * math.sqrt(delta)
    for t, col in enumerate(dist.columns):
        mi = _per_letter_mi(col, kx, ky, total)
        if mi > delta + _FP_TOL:
            raise ValueError(
                f"per-letter MI {mi} at position {t} exceeds delta; wring first"
            )
    tvs = []
    for law in dist.per_letter:
        rows = law.row_marginal().probs
        cols = law.col_marginal().probs
        tv = sum(
            abs(law.cell(a, b) - rows[a] * cols[b])
            for a in range(kx)
            for b in range(ky)
        )
        tvs.append(float(tv))
        if float(tv) > cap + _FP_TOL:
            raise InvariantViolation(
                f"per-letter TV {float(tv)} exceeded 2*sqrt(delta)"
            )
    return tuple(tvs)


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
