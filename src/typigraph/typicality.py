"""Sequences, types, typical sets: exact counting and membership.

A length-n sequence over a finite alphabet has a type (empirical pmf with
denominator n). Membership predicates use closed balls, decided exactly by
testing the counts against the ball's integer count boxes (`_ball_boxes`),
the same boxes every count, walk and sampler uses:

  robust typicality     max_a |N(a|x)/n - P(a)| <= delta, and no symbol with
                        P(a) = 0 occurs in x;
  conditional           max_{a,b} |N(a,b|x,y)/n - (N(a|x)/n) W(b|a)| <= delta,
                        and N(a,b) = 0 wherever W(b|a) = 0;
  joint                 the robust predicate on the pair alphabet.

Counting is exact over big integers: a type class has multinomial size and
typical-set sizes are sums of type-class sizes over the admissible ball,
never enumerations of sequences. `_box_multinomial_sum` takes that sum by a
binomial recurrence over the ball's per-cell boxes, without listing types;
its last two cells are closed by Pascal's rule in a few big-integer steps
per remainder, so a ternary ball costs one box width of such steps.
Where sequences are listed (type classes, rosters), `_box_rows` walks them
in lexicographic order inside per-block, per-symbol count boxes.

Everything that counts jointly typical pairs goes through one kernel per
side, `_DegreeKernel`: the exact degree of a row type, from compositions of
its row counts inside the per-cell boxes of the joint ball, with the column
sums tested against the integer boxes of the column ball. Partial column
sums past a column's hi are dropped as they arise; the front half of the
rows is multiplied out into a dict of partial sums, the back half is a
function of those sums memoized across row types, and the last row is
closed by one `_box_multinomial_sum` over the boxes that the partial sums
leave it. A last row of two cells (a binary column alphabet) is one window
of the binomial row of its count r, read off that row's prefix sums, built
once per r over the cell's box and kept with the kernel: at most one row per
last-row count in the ball, each of at most box width + 2 entries. Before a
type or a composition is listed, the kernel bounds its steps exactly, once
per kernel for its ball, and refuses with CapExceeded over KERNEL_STEP_CAP.
A kernel serves one side, which `_oriented` decides (the right side is the
left side on the transposed joint, with eps1 and eps2 swapped). Its
`table()`, {counts: (class size, degree)}, gives the pair count, every
vertex degree and the degree second moments as plain sums; its
`degree_of(counts)` reads that table once built and otherwise counts the
one type.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from functools import cache, partial
from typing import Iterator, Optional

from .core import (
    KERNEL_STEP_CAP,
    Alphabet,
    CapExceeded,
    CondPmf,
    JointPmf,
    Pmf,
    record,
)


# ---------------------------------------------------------------------------
# basic containers
# ---------------------------------------------------------------------------


@record
class Sequence:
    """Finite sequence stored as symbol indices into its alphabet."""

    alphabet: Alphabet
    symbols: tuple[int, ...]

    def __post_init__(self):
        syms = tuple(map(int, self.symbols))
        if not syms:
            raise ValueError("sequences must have length >= 1")
        if min(syms) < 0 or max(syms) >= self.alphabet.size:
            raise ValueError("sequence symbol out of alphabet range")
        object.__setattr__(self, "symbols", syms)

    @property
    def n(self) -> int:
        return len(self.symbols)

    def labels(self) -> tuple:
        return tuple(self.alphabet.label(s) for s in self.symbols)


@record
class TypeVector:
    """Symbol counts of a length-n sequence."""

    alphabet: Alphabet
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != self.alphabet.size:
            raise ValueError("count vector length does not match alphabet")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if sum(counts) < 1:
            raise ValueError("types need total count >= 1")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return sum(self.counts)


@record
class JointTypeVector:
    """Pair counts of two aligned length-n sequences."""

    row_alphabet: Alphabet
    col_alphabet: Alphabet
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        counts = tuple(tuple(int(c) for c in row) for row in self.counts)
        if len(counts) != self.row_alphabet.size:
            raise ValueError("row count does not match row alphabet")
        for row in counts:
            if len(row) != self.col_alphabet.size:
                raise ValueError("column count does not match column alphabet")
            if any(c < 0 for c in row):
                raise ValueError("counts must be nonnegative")
        if sum(c for row in counts for c in row) < 1:
            raise ValueError("types need total count >= 1")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return sum(c for row in self.counts for c in row)

    def flat(self) -> tuple[int, ...]:
        return tuple(c for row in self.counts for c in row)

    def row_type(self) -> TypeVector:
        return TypeVector(self.row_alphabet, tuple(sum(row) for row in self.counts))


@record
class TypicalityParams:
    """Per-n slack parameters: eps1 (left), eps2 (right), lam (joint)."""

    eps1: Fraction
    eps2: Fraction
    lam: Fraction
    schedule: str = "custom"

    def __post_init__(self):
        for name in ("eps1", "eps2", "lam"):
            v = Fraction(getattr(self, name))
            object.__setattr__(self, name, v)
            if v <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_SCHEDULE = "half-cube-root"


def schedule_delta(n: int, schedule: str = DEFAULT_SCHEDULE) -> Fraction:
    """Slack at blocklength n, rationalized to denominator 1000*n.

    The default rule delta_n = 1/(2 n^(1/3)) vanishes while sqrt(n)*delta_n
    diverges, the regime every asymptotic statement here assumes.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if schedule != DEFAULT_SCHEDULE:
        raise ValueError(f"unknown schedule {schedule!r}")
    return Fraction(round(500.0 * n ** (2.0 / 3.0)), 1000 * n)


def default_params(n: int, schedule: str = DEFAULT_SCHEDULE) -> TypicalityParams:
    d = schedule_delta(n, schedule)
    return TypicalityParams(eps1=d, eps2=d, lam=d, schedule=schedule)


@record
class BigCount:
    """Exact cardinality with a float log2 convenience view."""

    value: int
    log2: float

    @staticmethod
    def from_int(value: int) -> "BigCount":
        if value < 0:
            raise ValueError("counts are nonnegative")
        return BigCount(value=value, log2=log2_int(value))


def log2_int(v: int) -> float:
    """log2 of a nonnegative big integer (-inf at 0), good to ~1e-12."""
    if v < 0:
        raise ValueError("log2_int needs a nonnegative integer")
    if v == 0:
        return float("-inf")
    bl = v.bit_length()
    if bl <= 900:
        return math.log2(v)
    shift = bl - 900
    return math.log2(v >> shift) + shift


# ---------------------------------------------------------------------------
# empirical types and membership predicates
# ---------------------------------------------------------------------------


def empirical_type(x: Sequence) -> TypeVector:
    counts = [0] * x.alphabet.size
    for s in x.symbols:
        counts[s] += 1
    return TypeVector(x.alphabet, tuple(counts))


def empirical_joint_type(x: Sequence, y: Sequence) -> JointTypeVector:
    if x.n != y.n:
        raise ValueError("sequences must have equal length")
    kx, ky = x.alphabet.size, y.alphabet.size
    counts = [[0] * ky for _ in range(kx)]
    for a, b in zip(x.symbols, y.symbols):
        counts[a][b] += 1
    return JointTypeVector(x.alphabet, y.alphabet, tuple(tuple(r) for r in counts))


def _counts_typical(counts, probs, n: int, delta: Fraction) -> bool:
    """Counts inside the integer boxes of the closed delta-ball, which hold
    0 off the support."""
    return all(lo <= c <= hi for c, (lo, hi) in zip(counts, _ball_boxes(probs, n, delta)))


def is_typical(x: Sequence, p: Pmf, delta) -> bool:
    """Robust typicality of x for p at slack delta (closed ball, exact)."""
    if x.alphabet != p.alphabet:
        raise ValueError("sequence and pmf alphabets differ")
    return _counts_typical(empirical_type(x).counts, p.probs, x.n, Fraction(delta))


def is_cond_typical(y: Sequence, x: Sequence, w: CondPmf, delta) -> bool:
    """Conditional typicality of y given x under channel w at slack delta."""
    if x.alphabet != w.given_alphabet or y.alphabet != w.out_alphabet:
        raise ValueError("alphabets do not match the channel")
    jt = empirical_joint_type(x, y)
    return all(
        lo <= c <= hi
        for a, _, boxes in _cond_ball(w, jt.row_type().counts, Fraction(delta))
        for c, (lo, hi) in zip(jt.counts[a], boxes)
    )


def is_jointly_typical(x: Sequence, y: Sequence, p: JointPmf, lam) -> bool:
    """Joint typicality: the robust predicate on the pair alphabet."""
    if x.alphabet != p.row_alphabet or y.alphabet != p.col_alphabet:
        raise ValueError("sequence alphabets do not match the joint pmf")
    return _counts_typical(empirical_joint_type(x, y).flat(), p.flat(), x.n, Fraction(lam))


# ---------------------------------------------------------------------------
# exact counting
# ---------------------------------------------------------------------------


def multinomial(n: int, counts) -> int:
    """n! / prod(c!) for counts summing to n."""
    if sum(counts) != n:
        raise ValueError("counts must sum to n")
    out = 1
    rem = n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def type_class_size(t) -> BigCount:
    """Exact number of sequences (or sequence pairs) with exactly this type."""
    if isinstance(t, TypeVector):
        return BigCount.from_int(multinomial(t.n, t.counts))
    if isinstance(t, JointTypeVector):
        return BigCount.from_int(multinomial(t.n, t.flat()))
    raise ValueError("type_class_size expects a TypeVector or JointTypeVector")


def _index_alphabet(k: int) -> Alphabet:
    return Alphabet(tuple(range(k)))


def enumerate_types(
    alphabet_size: int, n: int, ball: Optional[tuple[Pmf, object]] = None
) -> Iterator[TypeVector]:
    """All denominator-n types, colex order, optionally restricted to the
    delta-ball of p with no mass off its support (the types of T_delta(p)).

    The types are walked inside per-cell boxes, (0, n) without a ball, last
    cell first: lex order of the reversed vectors is colex order of the
    vectors.
    """
    if alphabet_size < 1 or n < 1:
        raise ValueError("alphabet_size and n must be positive")
    if ball is None:
        alphabet, boxes = _index_alphabet(alphabet_size), [(0, n)] * alphabet_size
    else:
        p, delta = ball
        if p.alphabet.size != alphabet_size:
            raise ValueError("ball pmf does not match alphabet_size")
        alphabet, boxes = p.alphabet, _ball_boxes(p.probs, n, Fraction(delta))
    for reversed_counts in _compositions_in_boxes(boxes[::-1], n):
        yield TypeVector(alphabet, reversed_counts[::-1])


def _ball_box(p: Fraction, n: int, delta: Fraction) -> tuple[int, int]:
    """Integer count range allowed by |c/n - p| <= delta, clipped to [0, n]."""
    lo = max(0, math.ceil(n * (p - delta)))
    hi = min(n, math.floor(n * (p + delta)))
    return lo, hi


def _ball_boxes(probs, n: int, delta: Fraction) -> list[tuple[int, int]]:
    """Per-cell count ranges of the delta-ball; cells off the support hold 0.

    Every walk or sum over a ball starts here, so a negative delta is
    refused here, once, for all of them.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return [(0, 0) if p == 0 else _ball_box(p, n, delta) for p in probs]


def _suffix_sums(boxes) -> tuple[list[int], list[int]]:
    """(lo sums, hi sums) of the boxes from cell i on, for i = 0..k."""
    k = len(boxes)
    suffix_lo = [0] * (k + 1)
    suffix_hi = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + boxes[i][0]
        suffix_hi[i] = suffix_hi[i + 1] + boxes[i][1]
    return suffix_lo, suffix_hi


def _compositions_in_boxes(boxes, total: int) -> Iterator[tuple[int, ...]]:
    """Count vectors summing to total with each entry inside its (lo, hi)
    box, in lexicographic order. Each entry but the last is walked inside
    the range that the later boxes can still complete; the last entry is
    what remains of the total."""
    if any(lo > hi for lo, hi in boxes):
        return
    k = len(boxes)
    suffix_lo, suffix_hi = _suffix_sums(boxes)
    if not suffix_lo[0] <= total <= suffix_hi[0]:
        return
    if k < 2:  # () for no box, (total,) for one
        yield (total,) * k
        return
    vec = [0] * k

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        lo = max(boxes[i][0], remaining - suffix_hi[i + 1])
        hi = min(boxes[i][1], remaining - suffix_lo[i + 1])
        if i == k - 2:  # the last cell takes what remains
            for c in range(lo, hi + 1):
                vec[i], vec[i + 1] = c, remaining - c
                yield tuple(vec)
            return
        for c in range(lo, hi + 1):
            vec[i] = c
            yield from rec(i + 1, remaining - c)

    yield from rec(0, total)


def _box_multinomial_sum(boxes, total: int, unit: bool = False) -> int:
    """Sum of multinomial(total, c) over the count vectors c summing to
    total with each c_i inside its (lo, hi) box, without listing them.
    With unit=True every vector weighs 1 instead, so the sum is their number.

    A multinomial is the product of the binomials C(r_i, c_i), where r_i is
    what remains of total before cell i. So a backward pass over the cells,
    with f_k(r) = [r = 0], gives

        f_i(r) = sum over c in box i of C(r, c) * f_{i+1}(r - c),

    and the sum is f_0(total). f_i is kept only on the remainders that
    total can reach through cells 0..i-1 and that cells i..k-1 can still
    use up, and c is clipped to the window [a(r), b(r)] that keeps r - c
    in the range kept for f_{i+1}. Every remainder kept for f_i is a count
    in box i plus a remainder kept for f_{i+1}, so no window is empty.

    The last cell's f is 1 on every remainder kept for it. So the cell
    before it sums a window of one binomial row, g(r) = sum of C(r, c)
    over c in [a, b], and both ends of the window grow by 0 or 1 per
    remainder. By Pascal's rule C(r+1, c) = C(r, c) + C(r, c-1),

        sum over c in [a, b] of C(r+1, c) = 2 g(r) - C(r, b) + C(r, a-1),

    then C(r+1, a) is taken off if a grows and C(r+1, b+1) put on if b
    grows. Only the two edge binomials are carried, stepped exactly by
    C(r, c) * c = C(r, c-1) * (r - c + 1) and C(r, c) * (r + 1) =
    C(r+1, c) * (r + 1 - c), multiplying before dividing. The first
    remainder's window is one direct sum, stepped as C(r, c+1) =
    C(r, c) * (r - c) // (c + 1). Every cell before those two sums over
    its box for each remainder, C(r, c) stepped the same way from one
    `math.comb(r, c_lo)`.

    The cost is a constant number of big-integer steps per remainder of
    the second-to-last cell plus one window, and (remainders kept for f_i)
    * (width of box i) multiply-adds on each earlier cell i, where the
    former loop built a full multinomial per composition. A ternary ball
    thus costs O(width) big-integer steps and two `math.comb` calls. With
    unit weights C(r, c) is 1: the window holds b - a + 1, and f_i(r) is
    the sum of a slice of f_{i+1}.
    """
    if any(lo > hi for lo, hi in boxes):
        return 0
    k = len(boxes)
    suffix_lo, suffix_hi = _suffix_sums(boxes)
    # remainders before cell i lie in [total - prefix_hi, total - prefix_lo]
    lo_sum, hi_sum = suffix_lo[0], suffix_hi[0]
    if not lo_sum <= total <= hi_sum:
        return 0
    if k == 0:
        return 1

    def kept(i: int) -> tuple[int, int]:
        return (
            max(suffix_lo[i], total - (hi_sum - suffix_hi[i])),
            min(suffix_hi[i], total - (lo_sum - suffix_lo[i])),
        )

    f_lo, f_hi = kept(k - 1)
    f = [1] * (f_hi - f_lo + 1)
    if k > 1:
        lo, hi = boxes[k - 2]
        r_lo, r_hi = kept(k - 2)
        if unit:
            f = [
                min(hi, r - f_lo) - max(lo, r - f_hi) + 1 for r in range(r_lo, r_hi + 1)
            ]
        else:
            a, b = max(lo, r_lo - f_hi), min(hi, r_lo - f_lo)
            s = c_a = c_b = math.comb(r_lo, a)  # the window sum, C(r, a), C(r, b)
            for c in range(a, b):
                c_b = c_b * (r_lo - c) // (c + 1)
                s += c_b
            f = [s]
            for r in range(r_lo, r_hi):
                below = c_a * a // (r - a + 1)  # C(r, a - 1)
                s = 2 * s - c_b + below
                c_a += below  # C(r + 1, a)
                c_b = c_b * (r + 1) // (r + 1 - b)  # C(r + 1, b)
                if r + 1 - f_hi > a:
                    s -= c_a
                    c_a = c_a * (r + 1 - a) // (a + 1)
                    a += 1
                if b < hi and r + 1 - f_lo > b:
                    c_b = c_b * (r + 1 - b) // (b + 1)
                    s += c_b
                    b += 1
                f.append(s)
        f_lo, f_hi = r_lo, r_hi
    for i in range(k - 3, -1, -1):
        lo, hi = boxes[i]
        r_lo, r_hi = kept(i)
        g = []
        for r in range(r_lo, r_hi + 1):
            c_lo, c_hi = max(lo, r - f_hi), min(hi, r - f_lo)
            if unit:
                g.append(sum(f[r - c_hi - f_lo : r - c_lo - f_lo + 1]))
                continue
            w = math.comb(r, c_lo)
            s = 0
            for c in range(c_lo, c_hi + 1):
                s += w * f[r - c - f_lo]
                w = w * (r - c) // (c + 1)
            g.append(s)
        f, f_lo, f_hi = g, r_lo, r_hi
    return f[0]


def typical_set_size(p: Pmf, delta, n: int) -> BigCount:
    """Exact |T_delta(p)| at blocklength n by type-class summation."""
    if n < 1:
        raise ValueError("n must be positive")
    boxes = _ball_boxes(p.probs, n, Fraction(delta))
    return BigCount.from_int(_box_multinomial_sum(boxes, n))


def _cond_ball(w: CondPmf, counts, delta: Fraction) -> Iterator[tuple[int, int, list]]:
    """(a, N(a), boxes) per conditioning symbol a, in order, for the symbol
    counts N(.) of an x of length n: row a of the conditional delta-ball is
    the delta-ball around the centres N(a)/n * W(.|a), on the denominator
    n, and boxes are its integer count boxes. Undefined rows that x does
    not use are skipped; one that x uses raises ValueError before the first
    block is yielded, so a caller that stops at an empty block still sees
    it."""
    if any(row is None and na > 0 for na, row in zip(counts, w.rows)):
        raise ValueError(
            "conditional typicality undefined: x uses a symbol whose "
            "channel row is undefined"
        )
    n = sum(counts)
    for a, (na, row) in enumerate(zip(counts, w.rows)):
        if row is not None:
            yield a, na, _ball_boxes([Fraction(na, n) * p for p in row.probs], n, delta)


def _cond_ball_size(w: CondPmf, counts, delta) -> int:
    """Exact |T_delta(w | x)| for any x with symbol counts `counts`.

    Counts factor over conditioning-symbol blocks: within the N(a) positions
    where x equals a, output counts m_{a,.} range over the compositions of
    N(a) inside the boxes of row a of the conditional ball, with
    m_{a,b} = 0 wherever W(b|a) = 0.
    """
    total = 1
    for _, na, boxes in _cond_ball(w, counts, Fraction(delta)):
        total *= _box_multinomial_sum(boxes, na)
        if total == 0:
            break
    return total


def cond_typical_set_size(w: CondPmf, x: Sequence, delta) -> BigCount:
    """Exact |T_delta(w | x)|: output sequences conditionally typical given x."""
    if x.alphabet != w.given_alphabet:
        raise ValueError("sequence alphabet does not match the channel")
    return BigCount.from_int(_cond_ball_size(w, empirical_type(x).counts, delta))


# ---------------------------------------------------------------------------
# the joint-type kernel: exact degrees per row type
# ---------------------------------------------------------------------------


def _oriented(joint: JointPmf, params: TypicalityParams, side: str):
    """(joint, row eps, column eps) with the side's sequences as the rows:
    the left side is the joint's rows, the right side its columns."""
    if side == "left":
        return joint, params.eps1, params.eps2
    if side == "right":
        return joint.transpose(), params.eps2, params.eps1
    raise ValueError("side must be 'left' or 'right'")


class _DegreeKernel:
    """Exact degrees of one side's row types at blocklength n.

    `_oriented` orients the side, and `boxes` bound its typical row types.
    `table()` and `degree_of(counts)` share one set of memos, and both
    bound their work (`check`) before anything is listed; a passed bound on
    the side's ball is recorded, so it is taken once per kernel.

    The degree of a row type (n_0, ..., n_{k-1}) sums, over the count
    matrices whose row a is a composition of n_a inside that row's lam-ball
    boxes and whose column sums lie inside the integer col_eps boxes (the
    support included), the product of the rows' multinomials. Rows are
    joined through their vectors of partial column sums, and a partial sum
    past a column's hi is dropped at once: no later row can bring it back.

    The rows are split at h = k // 2. The front rows 0..h-1 are multiplied
    out into a dict {partial sums: weight}, kept per row-count prefix. The
    back rows h..k-1 are a memoized function of the front's partial sums s
    and the back row counts: F_a(s) = sum over row a's compositions c of
    multinomial(n_a, c) * F_{a+1}(s + c). The last row needs no listing:
    given s, its admissible compositions are exactly those inside the
    per-cell boxes [max(row lo, col lo - s), min(row hi, col hi - s)], so
    F_{k-1}(s) is one `_box_multinomial_sum`. With two cells the last row
    of count r needs none: its compositions are (c, r - c) for c in one
    window [a, b] of the first cell's box, weighted C(r, c), so F_{k-1}(s)
    is P_r[b + 1 - lo] - P_r[a - lo], where P_r holds the prefix sums of
    C(r, c) from the box's lo up to min(hi, r). P_r is built on first use
    from one `math.comb` and at most hi - lo exact steps, and every s with
    that r reads it: the table holds at most one row per last-row count in
    the ball, each of at most hi - lo + 2 entries. The degree is the join
    sum_s weight(s) * F_h(s). Composition lists, front dicts, prefix rows
    and all memos are shared by every row type one kernel is asked about,
    and dropped with it.

    A partial-sum vector is packed into one int, a field of `width` bits
    per column holding s_j + (2^(width-1) - 1 - hi_j): adding a packed
    composition adds the vectors, and a sum past some hi_j shows as that
    field's top bit (`_over`). Each field stays under 2^width, as it is at
    most 2^(width-1) - 1 before a count of at most n < 2^(width-1) is added.
    """

    def __init__(self, joint: JointPmf, params: TypicalityParams, n: int, side: str):
        joint, row_eps, col_eps = _oriented(joint, params, side)
        self.n = n
        self.boxes = _ball_boxes(joint.row_marginal().probs, n, row_eps)
        self._cells = [_ball_boxes(probs, n, params.lam) for probs in joint.probs]
        self._cols = _ball_boxes(joint.col_marginal().probs, n, col_eps)
        self._split = len(self._cells) // 2
        self._width = n.bit_length() + 1
        top = 1 << (self._width - 1)
        self._offsets = [top - 1 - hi for _, hi in self._cols]
        self._over = self._pack([top] * len(self._cols))
        self._rows: dict = {}  # (row, count) -> [(packed composition, multinomial)]
        # row-count prefix -> {packed partial sums: weight}
        self._front: dict = {(): {self._pack(self._offsets): 1}}
        self._back: dict = {}  # back row counts but the last -> {partial sums: F}
        self._last: dict = {}  # partial sums -> last row's box sum
        # two-cell last row: its count r -> prefix sums of C(r, c) over its
        # first cell's box
        self._binomial_rows: dict = {}
        self._checked = False  # the side's ball is bounded under the cap
        self._table: Optional[dict] = None

    def _pack(self, vec) -> int:
        return sum(v << (self._width * j) for j, v in enumerate(vec))

    def _row(self, a: int, count: int) -> list:
        key = (a, count)
        if key not in self._rows:
            self._rows[key] = [
                (self._pack(c), multinomial(count, c))
                for c in _compositions_in_boxes(self._cells[a], count)
            ]
        return self._rows[key]

    def _front_sums(self, prefix: tuple) -> dict:
        sums = self._front.get(prefix)
        if sums is None:
            over, earlier = self._over, self._front_sums(prefix[:-1])
            sums = defaultdict(int)
            for c, ways in self._row(len(prefix) - 1, prefix[-1]):
                for s, weight in earlier.items():
                    t = s + c
                    if not t & over:
                        sums[t] += weight * ways
            self._front[prefix] = sums
        return sums

    def _last_boxes(self, s: int) -> tuple[list[tuple[int, int]], int]:
        """(per-cell boxes, count) of the last row given the packed partial
        sums s: its compositions that complete s inside every column box
        are those of the count inside these boxes."""
        mask = (1 << self._width) - 1
        vec = [
            (s >> (self._width * j) & mask) - off for j, off in enumerate(self._offsets)
        ]
        boxes = [
            (max(r_lo, c_lo - v), min(r_hi, c_hi - v))
            for (r_lo, r_hi), (c_lo, c_hi), v in zip(self._cells[-1], self._cols, vec)
        ]
        return boxes, self.n - sum(vec)

    def _close(self, s: int) -> int:
        """Weighted count of the last row's compositions that complete the
        packed partial sums s inside every column box.

        With two cells that is one window [a, b] of the binomial row of the
        last row's count r, read as a difference of its prefix sums."""
        boxes, r = self._last_boxes(s)
        if len(boxes) != 2:
            return _box_multinomial_sum(boxes, r)
        (lo, hi), (lo1, hi1) = boxes
        a, b = max(lo, r - hi1), min(hi, r - lo1)
        if a > b:
            return 0
        prefix = self._binomial_rows.get(r)
        if prefix is None:
            prefix = self._binomial_rows[r] = self._binomial_prefix(r)
        base = self._cells[-1][0][0]
        return prefix[b + 1 - base] - prefix[a - base]

    def _binomial_prefix(self, r: int) -> list[int]:
        """Prefix sums of C(r, c) for c from the last row's first-cell lo up
        to min(its hi, r): entry i sums the first i of them. One `math.comb`,
        then C(r, c + 1) = C(r, c) * (r - c) // (c + 1)."""
        lo, hi = self._cells[-1][0]
        w = math.comb(r, lo)
        prefix = [0]
        for c in range(lo, min(hi, r) + 1):
            prefix.append(prefix[-1] + w)
            w = w * (r - c) // (c + 1)
        return prefix

    def _degree(self, counts: tuple) -> int:
        h, k, over = self._split, len(counts), self._over
        rows = [self._row(a, counts[a]) for a in range(h, k - 1)]
        memos = [self._back.setdefault(counts[a : k - 1], {}) for a in range(h, k - 1)]
        last = self._last

        def back(i: int, s: int) -> int:
            if i == len(rows):
                v = last.get(s)
                if v is None:
                    v = last[s] = self._close(s)
                return v
            memo = memos[i]
            v = memo.get(s)
            if v is None:
                v = 0
                for c, ways in rows[i]:
                    t = s + c
                    if not t & over:
                        v += ways * back(i + 1, t)
                memo[s] = v
            return v

        return sum(w * back(0, s) for s, w in self._front_sums(tuple(counts[:h])).items())

    def steps(self, type_boxes) -> int:
        """Exact upper bound on the steps `_degree` takes for every row type
        inside type_boxes, found without listing a type or a composition.

        A step is one (partial sums, composition) pair. Row a of a type
        lists N_a(n_a) compositions (the unit box sum), and the partial sums
        it meets number at most min(prod of N_a' over earlier rows, G), G
        the grid of partial sums that fit under the column hi's. The bound
        is the sum over types and rows of that min times N_a(n_a), which
        also bounds the shared, memoized work. It is summed by a pass over
        the rows whose states are (count total so far, capped product).
        """
        n, grid = self.n, math.prod(hi + 1 for _, hi in self._cols)
        sizes: dict = {}
        states = {(0, 1): (1, 0)}  # -> (prefixes, steps summed over them)
        last = len(type_boxes) - 1
        for a, (lo, hi) in enumerate(type_boxes):
            nxt: dict = defaultdict(lambda: (0, 0))
            for (r, product), (prefixes, done) in states.items():
                for count in range(max(lo, n - r if a == last else 0), min(hi, n - r) + 1):
                    if (a, count) not in sizes:
                        sizes[a, count] = _box_multinomial_sum(self._cells[a], count, True)
                    size = sizes[a, count]
                    key = (r + count, min(product * size, grid))
                    old_prefixes, old_done = nxt[key]
                    nxt[key] = (
                        old_prefixes + prefixes,
                        old_done + done + prefixes * product * size,
                    )
            states = nxt
        return sum(done for (r, _), (_, done) in states.items() if r == n)

    def check(self, type_boxes=None) -> None:
        """CapExceeded when the work bound for type_boxes (by default the
        side's ball) is over KERNEL_STEP_CAP; nothing is listed before it.
        The side's ball is bounded once per kernel: a pass is recorded, a
        refusal is not, so a refused kernel is refused again."""
        if type_boxes is None and self._checked:
            return
        steps = self.steps(self.boxes if type_boxes is None else type_boxes)
        if steps > KERNEL_STEP_CAP:
            raise CapExceeded(
                f"the joint-type kernel at n={self.n} needs up to {steps} steps "
                f"(2^{math.log2(steps):.1f}), over cap {KERNEL_STEP_CAP}"
            )
        if type_boxes is None:
            self._checked = True

    def table(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """{counts: (class size, degree)} for every type in the side's ball,
        built on the first call after its work is bounded."""
        if self._table is None:
            self.check()
            self._table = {
                c: (multinomial(self.n, c), self._degree(c))
                for c in _compositions_in_boxes(self.boxes, self.n)
            }
        return self._table

    def degree_of(self, counts) -> int:
        """Exact degree of the row type counts: the number of typical
        other-side sequences jointly typical with any one x of that type."""
        counts = tuple(counts)
        if len(counts) != len(self.boxes):
            raise ValueError("row type does not match the row alphabet")
        if sum(counts) != self.n:
            raise ValueError("row type does not sum to n")
        if self._table is not None and counts in self._table:
            return self._table[counts][1]
        self.check([(c, c) for c in counts])
        return self._degree(counts)


def degree_table(
    joint: JointPmf, params: TypicalityParams, n: int, side: str = "left"
) -> dict[tuple[int, ...], tuple[int, int]]:
    """{counts: (class size, degree)} for every type in the side's ball.

    Pair counts, vertex degrees and degree moments of the typicality graph
    are all sums over this table. One kernel serves every type, so its
    composition lists and memos are shared across the table.
    """
    return _DegreeKernel(joint, params, n, side).table()


def jointly_typical_pair_count(joint: JointPmf, params: TypicalityParams, n: int) -> BigCount:
    """Exact number of pairs (x, y) with x eps1-typical, y eps2-typical,
    and (x, y) jointly lam-typical."""
    table = degree_table(joint, params, n)
    return BigCount.from_int(sum(size * deg for size, deg in table.values()))


# ---------------------------------------------------------------------------
# sequence enumeration and exact uniform sampling
# ---------------------------------------------------------------------------


def _box_rows(k: int, blocks) -> Iterator[tuple[int, ...]]:
    """Symbol rows over k symbols, in lexicographic order, whose counts in
    each block of consecutive positions lie in that block's boxes.

    blocks: (length, per-symbol (lo, hi) boxes) pairs, in position order.
    The rows are walked position by position, smallest symbol first. A
    symbol is appended only while its count in the block stays <= hi and
    the counts still owed to the block's lo's (`due`) fit in the positions
    the block has left after it. A block with some lo > hi, or whose lo's
    or hi's cannot meet its length, has no rows; every other walk reaches
    a full row from every prefix, so nothing is filtered or sorted.
    """
    plan = []  # per position: (its block's counts and due, lo, hi, positions left)
    for length, boxes in blocks:
        lo = [max(l, 0) for l, _ in boxes]
        hi = [min(h, length) for _, h in boxes]
        if any(l > h for l, h in zip(lo, hi)) or sum(lo) > length or sum(hi) < length:
            return
        state = [0] * k + [sum(lo)]
        plan += [(state, lo, hi, left) for left in range(length, 0, -1)]
    n = len(plan)
    row = [0] * n
    t, s = 0, 0  # position, next symbol to try there
    while True:
        if t < n:
            state, lo, hi, left = plan[t]
            due = state[k]
            while s < k:
                c = state[s]
                if c < hi[s] and (c < lo[s] or due < left):
                    state[s], state[k], row[t] = c + 1, due - (c < lo[s]), s
                    break
                s += 1
            if s < k:
                t, s = t + 1, 0
                continue
        else:
            yield tuple(row)
        if t == 0:
            return
        t -= 1
        state, lo = plan[t][:2]
        s = row[t]
        state[s] -= 1
        state[k] += state[s] < lo[s]
        s += 1


def type_class_sequences(t: TypeVector) -> Iterator[Sequence]:
    """All sequences of exactly this type, lexicographic order."""
    for row in _box_rows(len(t.counts), [(t.n, [(c, c) for c in t.counts])]):
        yield Sequence(t.alphabet, row)


class TypicalSampler:
    """Exact uniform draws from T_delta(p) at blocklength n, as symbol lists.

    Two stages: a type is drawn with probability proportional to its exact
    class size (big-integer arithmetic, no floats), then a uniformly random
    arrangement of that type's sorted multiset is produced by Fisher-Yates.
    The table (admissible count vectors, cumulative class sizes) is built
    once per sampler; a type's multiset is expanded on its first draw, so
    memory grows with the types drawn, not with the ball.

    Stream contract: a draw reads `rng.getrandbits` only, in exactly the
    calls that `rng.randrange(total)` followed by `rng.shuffle(multiset)`
    make on a `random.Random` (CPython's `_randbelow_with_getrandbits`:
    k-bit words, rejected until below the bound). So the draws and the
    generator's state after each one equal those of that pair of calls. A
    `Random` subclass that overrides only `random()` still gets uniform
    draws, but from its `getrandbits`, so not the stream its own
    `randrange` and `shuffle` would give.
    """

    def __init__(self, p: Pmf, delta, n: int):
        self._types, self._cum, total = [], [], 0
        for counts in _compositions_in_boxes(_ball_boxes(p.probs, n, Fraction(delta)), n):
            total += multinomial(n, counts)
            self._types.append(counts)
            self._cum.append(total)
        self._total = total
        if total == 0:
            raise ValueError("typical set is empty; nothing to sample")
        self._total_bits = self._total.bit_length()
        # Fisher-Yates from the back: (i, bits of i + 1) per swap
        self._steps = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
        self._multisets: dict = {}

    def draw(self, rng: random.Random) -> list[int]:
        getrandbits = rng.getrandbits
        total, bits = self._total, self._total_bits
        r = getrandbits(bits)
        while r >= total:
            r = getrandbits(bits)
        t = bisect_right(self._cum, r)
        multiset = self._multisets.get(t)
        if multiset is None:
            multiset = self._multisets[t] = [
                s for s, c in enumerate(self._types[t]) for _ in range(c)
            ]
        buf = multiset.copy()
        for i, k in self._steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            buf[i], buf[j] = buf[j], buf[i]
        return buf


def count_types(alphabet_size: int, n: int) -> int:
    """Number of denominator-n types; at most (n+1)^alphabet_size."""
    return math.comb(n + alphabet_size - 1, alphabet_size - 1)


# ---------------------------------------------------------------------------
# sequence pairs: joint counts from bitmask popcounts
# ---------------------------------------------------------------------------


@cache
def _digit_table(a: int) -> bytes:
    """bytes.translate table sending byte a to b"1" and every other to b"0"."""
    return bytes(49 if v == a else 48 for v in range(256))


class JointTypeIndex:
    """Admissible joint types of sequence pairs, filed on demand for bitmask
    tests.

    A sequence is packed once into one position bitmask per symbol but the
    last (position t is bit n-1-t), so the joint count N(a, b) of two
    aligned sequences is the popcount of xmask[a] & ymask[b], and into one
    int type key that spells its counts of those symbols in every block.

    The positions are split into consecutive blocks: one block of all n
    positions for the joint ball, one per u-run for conditional types. A
    block admits the |X| x |Y| count matrices whose every cell lies inside
    its (lo, hi) box. Once both marginals of a block are known, the free
    cells N(a, b) with a < |X|-1 and b < |Y|-1 fix the rest of the matrix,
    so the boxes cut bounds on the free cells, their row sums, their column
    sums and their total (`_free_bounds`) that a pair meets exactly when its
    matrix is admissible. These are filed the first time a (row type,
    column type) pair is asked about, in a dict keyed by the row type key
    holding one dict of entries keyed by the column type key, so memory
    grows with the pairs of types seen and no ball or set of matrices is
    ever listed. On binary alphabets the bounds leave one interval of
    N(0, 0), filed as a frozenset: a pair test is two int-keyed lookups, a
    popcount and one set probe, which filters faster than a bitmask's shift
    and mask. An empty entry admits no pair. Bounds that are each
    satisfiable can still admit no matrix together; such a type pair is
    not skipped, and its pairs fail one by one.
    """

    def __init__(self, kx: int, ky: int, blocks):
        """blocks: (length, flat per-cell (lo, hi) count boxes) pairs, in
        position order."""
        self.kx, self.ky = kx, ky
        self._bare = (kx - 1) * (ky - 1) == 1
        self._one_probe = self._bare and len(blocks) == 1  # binary, one block
        self._blocks = list(blocks)
        n = sum(length for length, _ in blocks)
        self._bits = []
        for length, _ in blocks:
            n -= length
            self._bits.append(((1 << length) - 1) << n)
        # x type key -> {y type key -> entry}, both levels filled on lookup
        self._filed = _Filled(lambda xkey: _Filled(partial(self._file, xkey)))
        self._tables = {
            k: [_digit_table(a) for a in range(k - 1)] for k in (kx, ky) if k <= 256
        }

    @classmethod
    def ball(cls, joint: JointPmf, lam, n: int) -> "JointTypeIndex":
        """The joint lam-ball (support included) at blocklength n: one block
        of the ball's per-cell boxes, so building it lists nothing."""
        boxes = _ball_boxes(joint.flat(), n, Fraction(lam))
        return cls(joint.row_alphabet.size, joint.col_alphabet.size, [(n, boxes)])

    def _pack(self, seqs, k: int) -> list:
        """(type key, masks) of each sequence in seqs, over k symbols. The
        key spells the block counts of every symbol but the last, block by
        block, in base (block length + 1). The masks are one int on binary
        alphabets with one block, one int per block on binary alphabets,
        and one tuple of per-symbol masks per block otherwise."""
        tables = self._tables.get(k)
        if self._one_probe:  # binary, one block: the key is the count of symbol 0
            (digits,) = tables
            masks = [int(bytes(s).translate(digits), 2) for s in seqs]
            return [(m.bit_count(), m) for m in masks]
        packed = []
        for symbols in seqs:
            if tables is None:  # symbols past one byte
                last = len(symbols) - 1
                masks = [0] * (k - 1)
                for t, s in enumerate(symbols):
                    if s < k - 1:
                        masks[s] |= 1 << (last - t)
            else:
                raw = bytes(symbols)
                masks = [int(raw.translate(table), 2) for table in tables]
            if self._bare:
                block = tuple(map(masks[0].__and__, self._bits))
                counts = [[m.bit_count()] for m in block]
            else:
                block = [tuple([m & p for m in masks]) for p in self._bits]
                counts = [list(map(int.bit_count, b)) for b in block]
            key = 0
            for (length, _), cs in zip(self._blocks, counts):
                for c in cs:
                    key = key * (length + 1) + c
            packed.append((key, block))
        return packed

    def _types(self, key: int, k: int) -> list[list[int]]:
        """The full per-block count vectors over k symbols that key spells."""
        types = []
        for length, _ in reversed(self._blocks):
            counts = []
            for _ in range(k - 1):
                key, c = divmod(key, length + 1)
                counts.append(c)
            counts.reverse()
            types.append(counts + [length - sum(counts)])
        return types[::-1]

    def _file(self, xkey: int, ykey: int):
        """The entry of a pair of type keys: per block, the bounds that
        `_free_bounds` cuts from its boxes, or on binary alphabets the one
        interval they leave, as a frozenset (that set itself on one binary
        block); empty when some block admits none."""
        cells = []
        for (_, boxes), rows, cols in zip(
            self._blocks, self._types(xkey, self.kx), self._types(ykey, self.ky)
        ):
            bounds = _free_bounds(boxes, rows, cols)
            if self._bare:
                lo, hi = max(lo for lo, _ in bounds), min(hi for _, hi in bounds)
                cells.append(frozenset(range(lo, hi + 1)))
            else:
                cells.append(bounds if all(lo <= hi for lo, hi in bounds) else ())
        if self._one_probe:
            return cells[0]
        return tuple(cells) if all(cells) else ()

    def scan(self, xs, ys) -> Iterator[list[int]]:
        """For each x in xs, the ascending indices of the ys that form an
        admissible pair with it. xs and ys hold symbol tuples.

        The ys are grouped by type key, and a group whose entry with x's
        type key is empty is skipped whole.
        """
        packed = self._pack(ys, self.ky)
        groups: dict = defaultdict(list)
        for j, (key, _) in enumerate(packed):
            groups[key].append(j)
        ymasks = [masks for _, masks in packed]
        if not self._one_probe:
            ymasks = list(zip(*ymasks))  # per block
        for xkey, xmasks in self._pack(xs, self.kx):
            row = self._filed[xkey]
            hits: list[int] = []
            for ykey, ids in groups.items():
                entry = row[ykey]
                if not entry:
                    continue
                if self._one_probe:
                    hits += [j for j in ids if (xmasks & ymasks[j]).bit_count() in entry]
                    continue
                for xf, yf, cells in zip(xmasks, ymasks, entry):
                    if self._bare:
                        ids = [j for j in ids if (xf & yf[j]).bit_count() in cells]
                    else:
                        ids = [j for j in ids if _inside(cells, xf, yf[j])]
                hits += ids
            hits.sort()
            yield hits

    def count(self, xs, ys) -> int:
        """Number of admissible pairs in xs x ys, probed pair by pair: for the
        few codewords of a Monte Carlo trial, grouping costs more than it
        saves. Each codeword is packed once."""
        packed = self._pack(ys, self.ky)
        filed = self._filed
        u = 0
        if self._one_probe:
            for xkey, xmask in self._pack(xs, self.kx):
                row = filed[xkey]
                for ykey, ymask in packed:
                    u += (xmask & ymask).bit_count() in row[ykey]
            return u
        for xkey, xmasks in self._pack(xs, self.kx):
            row = filed[xkey]
            for ykey, ymasks in packed:
                entry = row[ykey]
                if not entry:
                    continue
                for xf, yf, cells in zip(xmasks, ymasks, entry):
                    if self._bare:
                        if (xf & yf).bit_count() not in cells:
                            break
                    elif not _inside(cells, xf, yf):
                        break
                else:
                    u += 1
        return u


class _Filled(dict):
    """A dict that files make(key) under a missing key on its first lookup."""

    __slots__ = ("_make",)

    def __init__(self, make):
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


def _free_bounds(boxes, rows, cols) -> list[tuple[int, int]]:
    """(lo, hi) bounds on the free cells N(a, b), a < |X|-1 and b < |Y|-1 in
    row-major order, then on their sums per row, their sums per column and
    their total, that hold exactly when the count matrix with row sums
    `rows` and column sums `cols` has every cell inside its (lo, hi) box
    (boxes: flat, row-major). The last column's N(a, |Y|-1) is rows[a]
    minus row a's free sum, the last row's N(|X|-1, b) is cols[b] minus
    column b's free sum, and the corner is cols[-1] - sum(rows[:-1]) plus
    the free total; each is in its box when that sum is in its bound."""
    kx, ky = len(rows), len(cols)
    last = [boxes[a * ky + ky - 1] for a in range(kx - 1)]
    bottom = boxes[(kx - 1) * ky : kx * ky - 1]
    corner = cols[-1] - sum(rows[:-1])
    lo, hi = boxes[-1]
    return (
        [boxes[a * ky + b] for a in range(kx - 1) for b in range(ky - 1)]
        + [(r - h, r - l) for r, (l, h) in zip(rows, last)]
        + [(c - h, c - l) for c, (l, h) in zip(cols, bottom)]
        + [(lo - corner, hi - corner)]
    )


def _inside(bounds, xf, yf) -> bool:
    """Whether the free cells of row masks xf and column masks yf, with
    their row sums, column sums and total, lie inside `_free_bounds`."""
    free = [(a & b).bit_count() for a in xf for b in yf]
    w = len(yf)
    sums = [sum(free[a * w : (a + 1) * w]) for a in range(len(xf))]
    sums += [sum(free[b::w]) for b in range(w)]
    return all(lo <= v <= hi for v, (lo, hi) in zip(free + sums + [sum(free)], bounds))


def typical_set_rate_envelope(p: Pmf, n: int, delta) -> float:
    """Two-sided rate gap c_n with |1/n log2 |T_delta(p)| - H(p)| <= c_n.

    Valid when the continuity precondition |supp|*delta <= 1/2 holds.
    """
    from .core import entropy_continuity_bound

    k = p.alphabet.size
    return entropy_continuity_bound(Fraction(delta) * k, k) + k * math.log2(n + 1) / n
