import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from typigraph import typicality
from typigraph.core import (
    KERNEL_STEP_CAP,
    Alphabet,
    CapExceeded,
    CondPmf,
    JointPmf,
    Pmf,
    conditionalize,
)
from typigraph.typicality import (
    BigCount,
    DEFAULT_SCHEDULE,
    JointTypeIndex,
    JointTypeVector,
    Sequence,
    TypeVector,
    TypicalSampler,
    cond_typical_set_size,
    count_types,
    default_params,
    degree_table,
    empirical_type,
    enumerate_types,
    is_cond_typical,
    is_jointly_typical,
    is_typical,
    jointly_typical_pair_count,
    log2_int,
    multinomial,
    schedule_delta,
    type_class_sequences,
    type_class_size,
    typical_set_rate_envelope,
    typical_set_size,
)

BIN = Alphabet((0, 1))
TERN = Alphabet((0, 1, 2))
# Row marginal of T3, the ternary joint with diagonal (1/5, 1/5, 3/10) and
# 1/20 in every cell off it.
T3_ROW = Pmf(TERN, (Fraction(3, 10), Fraction(3, 10), Fraction(2, 5)))

PROPERTY = settings.get_profile("typigraph")


def seq(alphabet, *symbols):
    return Sequence(alphabet, tuple(symbols))


# --- schedule ----------------------------------------------------------------


def test_schedule_delta_frozen():
    assert schedule_delta(4) == Fraction(63, 200)
    assert schedule_delta(8) == Fraction(1, 4)
    assert schedule_delta(12) == Fraction(2621, 12000)
    # vanishing but slower than 1/sqrt(n)
    assert float(schedule_delta(1000)) < float(schedule_delta(10))
    assert float(schedule_delta(1000)) * math.sqrt(1000) > 1
    with pytest.raises(ValueError):
        schedule_delta(0)
    with pytest.raises(ValueError):
        schedule_delta(8, "warp")


def test_default_params():
    p = default_params(8)
    assert p.eps1 == p.eps2 == p.lam == Fraction(1, 4)
    assert p.schedule == DEFAULT_SCHEDULE


# --- counting primitives ------------------------------------------------------


def test_multinomial_matches_factorials():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randrange(1, 5)
        counts = [rng.randrange(0, 6) for _ in range(k)]
        n = sum(counts)
        if n == 0:
            continue
        assert multinomial(n, tuple(counts)) == oracles.multinomial_factorial(
            n, counts
        )
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))  # counts must sum to n


def test_type_class_size_joint():
    # all four pair-cells once: 4!/(1!1!1!1!) = 24 arrangements
    t = JointTypeVector(BIN, BIN, ((1, 1), (1, 1)))
    assert type_class_size(t).value == 24
    assert type_class_size(TypeVector(BIN, (2, 2))).value == 6


def test_type_class_sequences_lex_and_complete():
    t = TypeVector(BIN, (2, 2))
    seqs = list(type_class_sequences(t))
    assert len(seqs) == 6
    symbol_lists = [s.symbols for s in seqs]
    assert symbol_lists == sorted(symbol_lists)
    assert all(empirical_type(s).counts == (2, 2) for s in seqs)


@st.composite
def box_blocks(draw):
    """k <= 3 symbols and 1-3 blocks of at most 7 positions in all, some of
    length 0, with boxes that may be empty (lo > hi) or whose sums cannot
    reach their block's length."""
    k = draw(st.integers(1, 3))
    lengths = draw(
        st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(lambda ls: sum(ls) <= 7)
    )
    blocks = []
    for length in lengths:
        ends = st.tuples(st.integers(-1, length + 1), st.integers(-1, length + 1))
        box = st.one_of(ends.map(sorted).map(tuple), ends, st.just((0, length)))
        blocks.append((length, draw(st.lists(box, min_size=k, max_size=k))))
    return k, blocks


@PROPERTY
@given(box_blocks())
def test_box_rows_match_filtering_every_row(case):
    k, blocks = case
    assert list(typicality._box_rows(k, blocks)) == oracles.box_rows(k, blocks)


@pytest.mark.parametrize("k, n", [(1, 5), (2, 7), (3, 6), (4, 5), (5, 3)])
def test_enumerate_types_matches_colex_compositions(k, n):
    types = list(enumerate_types(k, n))
    assert [t.counts for t in types] == list(oracles.compositions_colex(k, n))
    assert all(t.alphabet == Alphabet(tuple(range(k))) for t in types)


def test_enumerate_types_colex_order():
    got = [t.counts for t in enumerate_types(3, 3)]
    want = sorted(
        (c for c in itertools.product(range(4), repeat=3) if sum(c) == 3),
        key=lambda c: tuple(reversed(c)),
    )
    assert got == want
    assert len(got) == 10  # stars and bars C(5,2)


def test_enumerate_types_ball_filter():
    p = Pmf(BIN, (Fraction(1, 2), Fraction(1, 2)))
    got = {t.counts for t in enumerate_types(2, 4, ball=(p, Fraction(1, 4)))}
    assert got == {(1, 3), (2, 2), (3, 1)}
    # (3, 1) is inside the ball of (1, 0) but puts mass off its support
    point = Pmf(BIN, (Fraction(1), Fraction(0)))
    got = [t.counts for t in enumerate_types(2, 4, ball=(point, Fraction(1, 4)))]
    assert got == [(4, 0)]


@pytest.mark.parametrize(
    "probs, delta, n",
    [
        ((Fraction(1), Fraction(0)), Fraction(1, 4), 4),
        ((Fraction(1, 2), Fraction(0), Fraction(1, 2)), Fraction(1, 3), 6),
        ((Fraction(0), Fraction(3, 4), Fraction(1, 4)), Fraction(1, 2), 5),
    ],
)
def test_enumerate_types_ball_sums_to_typical_set_size(probs, delta, n):
    p = Pmf(Alphabet(tuple(range(len(probs)))), probs)
    types = list(enumerate_types(len(probs), n, ball=(p, delta)))
    colex = sorted(types, key=lambda t: tuple(reversed(t.counts)))
    assert [t.counts for t in types] == [t.counts for t in colex]
    total = sum(type_class_size(t).value for t in types)
    assert total == typical_set_size(p, delta, n).value


@pytest.mark.parametrize(
    "p, n",
    [
        (T3_ROW, 10),
        (T3_ROW, 60),
        (Pmf(BIN, (Fraction(1, 2), Fraction(1, 2))), 60),
        (Pmf(TERN, (Fraction(1, 2), Fraction(0), Fraction(1, 2))), 60),
    ],
)
def test_enumerate_types_ball_matches_filtering_loop(p, n):
    delta = schedule_delta(n)
    types = list(enumerate_types(p.alphabet.size, n, ball=(p, delta)))
    assert [t.counts for t in types] == oracles.colex_ball_types(p.probs, delta, n)
    assert all(t.alphabet == p.alphabet for t in types)


def test_count_types_matches_enumeration():
    for k, n in ((2, 6), (3, 5), (4, 4)):
        assert count_types(k, n) == len(list(enumerate_types(k, n)))
        assert count_types(k, n) <= (n + 1) ** k


def test_total_class_sizes_cover_all_sequences():
    for k, n in ((2, 7), (3, 5)):
        total = sum(type_class_size(t).value for t in enumerate_types(k, n))
        assert total == k**n


# --- typicality predicates vs the definitions --------------------------------


def test_is_typical_matches_oracle():
    p = Pmf(BIN, (Fraction(3, 4), Fraction(1, 4)))
    for symbols in itertools.product(range(2), repeat=6):
        s = Sequence(BIN, symbols)
        for delta in (Fraction(0), Fraction(1, 6), Fraction(1, 4)):
            assert is_typical(s, p, delta) == oracles.robust_typical(
                symbols, p.probs, delta
            )


def test_zero_probability_symbol_is_never_typical():
    p = Pmf(BIN, (Fraction(1), Fraction(0)))
    assert is_typical(seq(BIN, 0, 0, 0), p, Fraction(1, 2))
    # delta = 1/2 would allow count 1 numerically, but the support rule bites
    assert not is_typical(seq(BIN, 0, 0, 1), p, Fraction(1, 2))


def test_is_cond_typical_matches_oracle(binary_joint):
    w = conditionalize(binary_joint, "row")
    w_rows = [None if r is None else list(r.probs) for r in w.rows]
    x = seq(BIN, 0, 0, 1, 0, 1)
    for ysym in itertools.product(range(2), repeat=5):
        y = Sequence(BIN, ysym)
        for delta in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)):
            assert is_cond_typical(y, x, w, delta) == oracles.cond_typical(
                ysym, x.symbols, w_rows, delta
            )


def test_is_cond_typical_undefined_row():
    j = JointPmf(BIN, BIN, ((Fraction(1, 2), Fraction(1, 2)), (Fraction(0),) * 2))
    w = conditionalize(j, "row")
    x_bad = seq(BIN, 0, 1)
    with pytest.raises(ValueError, match="undefined"):
        is_cond_typical(seq(BIN, 0, 0), x_bad, w, Fraction(1, 4))
    # unused undefined rows are fine
    assert is_cond_typical(seq(BIN, 0, 1), seq(BIN, 0, 0), w, Fraction(1, 2))


@pytest.mark.parametrize("undefined", [0, 1])
def test_undefined_row_in_use_raises_in_either_symbol_order(undefined):
    # the defined row's block is empty at delta = 0 (its centre counts 2/3 and
    # 4/3 are not integers), so the answer would be 0 / False whichever
    # block comes first; the undefined row must still be reported first
    row = Pmf(BIN, (Fraction(1, 3), Fraction(2, 3)))
    rows = (None, row) if undefined == 0 else (row, None)
    w = CondPmf(BIN, BIN, rows)
    x = seq(BIN, 0, 0, 1, 1)
    with pytest.raises(ValueError, match="undefined"):
        cond_typical_set_size(w, x, Fraction(0))
    with pytest.raises(ValueError, match="undefined"):
        is_cond_typical(seq(BIN, 0, 1, 0, 1), x, w, Fraction(0))


@st.composite
def channel_pairs(draw):
    """A channel over |X|, |Y| <= 3 with zero cells and undefined rows (not
    all of them), an (x, y) pair of length <= 6 and a slack delta >= 0."""
    kx, ky = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    weights = st.lists(st.integers(0, 3), min_size=ky, max_size=ky).filter(any)
    rows = draw(
        st.lists(st.none() | weights, min_size=kx, max_size=kx).filter(lambda rs: any(rs))
    )
    n = draw(st.integers(1, 6))
    x = tuple(draw(st.lists(st.integers(0, kx - 1), min_size=n, max_size=n)))
    y = tuple(draw(st.lists(st.integers(0, ky - 1), min_size=n, max_size=n)))
    w_rows = [None if r is None else [Fraction(c, sum(r)) for c in r] for r in rows]
    return w_rows, ky, x, y, draw(st.fractions(0, 1, max_denominator=12))


def outcome(f, *args):
    """f's value, or "undefined" where it raises ValueError."""
    try:
        return f(*args)
    except ValueError:
        return "undefined"


@PROPERTY
@given(channel_pairs())
def test_is_cond_typical_matches_oracle_on_random_channels(case):
    w_rows, ky, x, y, delta = case
    xa, ya = Alphabet(tuple(range(len(w_rows)))), Alphabet(tuple(range(ky)))
    w = CondPmf(xa, ya, tuple(None if r is None else Pmf(ya, tuple(r)) for r in w_rows))
    got = outcome(is_cond_typical, Sequence(ya, y), Sequence(xa, x), w, delta)
    assert got == outcome(oracles.cond_typical, y, x, w_rows, delta)


def test_is_jointly_typical_matches_oracle(binary_joint):
    for xs in itertools.product(range(2), repeat=4):
        for ys in itertools.product(range(2), repeat=4):
            x, y = Sequence(BIN, xs), Sequence(BIN, ys)
            for delta in (Fraction(1, 10), Fraction(63, 200)):
                assert is_jointly_typical(
                    x, y, binary_joint, delta
                ) == oracles.jointly_typical(xs, ys, binary_joint.probs, delta)


@st.composite
def ball_edge_cases(draw):
    """A joint over |X|, |Y| <= 3 with zero cells and no empty row, and a
    count matrix summing to n <= 8 that may put mass off the support."""
    kx, ky, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 3), min_size=ky, max_size=ky).filter(any)
    weights = draw(st.lists(row, min_size=kx, max_size=kx))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=kx * ky - 1, max_size=kx * ky - 1)))
    flat = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return weights, flat, n


@PROPERTY
@given(ball_edge_cases())
def test_predicates_match_the_fraction_reference_on_the_ball_edge(case):
    """Every slack at which some cell sits exactly on the ball's edge,
    c/n = p +- delta: the three predicates, which test integer boxes, agree
    with the `Fraction` distances of `oracles._counts_typical`."""
    weights, flat, n = case
    kx, ky = len(weights), len(weights[0])
    xa, ya = Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky)))
    total = sum(map(sum, weights))
    joint = JointPmf(xa, ya, tuple(tuple(Fraction(v, total) for v in r) for r in weights))
    counts = [flat[a * ky : (a + 1) * ky] for a in range(kx)]
    pairs = [(a, b) for a in range(kx) for b in range(ky) for _ in range(counts[a][b])]
    x = Sequence(xa, tuple(a for a, _ in pairs))
    y = Sequence(ya, tuple(b for _, b in pairs))
    px, w = joint.row_marginal(), conditionalize(joint, "row")
    rows = [sum(r) for r in counts]
    centres = [[Fraction(rows[a], n) * p for p in w.rows[a].probs] for a in range(kx)]
    cases = (
        (is_typical, (x, px), [(rows, px.probs)]),
        (is_jointly_typical, (x, y, joint), [(flat, joint.flat())]),
        (is_cond_typical, (y, x, w), list(zip(counts, centres))),
    )
    for predicate, args, balls in cases:
        for delta in {abs(Fraction(c, n) - p) for cs, ps in balls for c, p in zip(cs, ps)}:
            want = all(oracles._counts_typical(cs, ps, n, delta) for cs, ps in balls)
            assert predicate(*args, delta) == want


def test_predicates_refuse_a_negative_delta(binary_joint):
    x = seq(BIN, 0, 1, 1, 0)
    w = conditionalize(binary_joint, "row")
    d = Fraction(-1, 8)
    for predicate, args in (
        (is_typical, (x, binary_joint.row_marginal())),
        (is_jointly_typical, (x, x, binary_joint)),
        (is_cond_typical, (x, x, w)),
    ):
        with pytest.raises(ValueError, match="delta must be nonnegative"):
            predicate(*args, d)


# --- set sizes vs brute force -------------------------------------------------


def test_typical_set_size_binary_brute():
    ps = [
        Pmf(BIN, (Fraction(1, 2), Fraction(1, 2))),
        Pmf(BIN, (Fraction(3, 4), Fraction(1, 4))),
    ]
    for p in ps:
        for n in range(1, 9):
            for delta in (Fraction(0), Fraction(1, n), Fraction(1, 4)):
                assert typical_set_size(p, delta, n).value == (
                    oracles.brute_typical_count(p.probs, delta, n)
                )


def test_typical_set_size_ternary_brute():
    p = Pmf(TERN, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    for n in (3, 5, 7):
        for delta in (Fraction(1, n), Fraction(1, 5)):
            assert typical_set_size(p, delta, n).value == (
                oracles.brute_typical_count(p.probs, delta, n)
            )


def test_typical_set_size_degenerate_cases():
    p = Pmf(BIN, (Fraction(1, 2), Fraction(1, 2)))
    assert typical_set_size(p, Fraction(1), 5).value == 2**5
    point = Pmf(BIN, (Fraction(1), Fraction(0)))
    assert typical_set_size(point, Fraction(0), 6).value == 1
    assert typical_set_size(p, Fraction(63, 200), 4).value == 14


@st.composite
def boxes_and_total(draw):
    """Up to five boxes, some empty (lo > hi) or (0, 0), and a total up to 40,
    mostly between the sums of the lows and of the highs."""
    boxes = draw(
        st.lists(
            st.one_of(
                st.just((0, 0)),
                st.builds(lambda lo, width: (lo, lo + width), st.integers(0, 10), st.integers(-2, 10)),
            ),
            max_size=5,
        )
    )
    lo_sum, hi_sum = sum(lo for lo, _ in boxes), sum(hi for _, hi in boxes)
    feasible = st.integers(min(lo_sum, 40), min(max(lo_sum, hi_sum), 40))
    return boxes, draw(st.one_of(feasible, st.integers(0, 40)))


@PROPERTY
@given(boxes_and_total())
def test_box_multinomial_sum_matches_listing(case):
    boxes, total = case
    assert typicality._box_multinomial_sum(boxes, total) == (
        oracles.box_multinomial_sum(boxes, total)
    )
    assert typicality._box_multinomial_sum(boxes, total, unit=True) == len(
        list(typicality._compositions_in_boxes(boxes, total))
    )


@PROPERTY
@given(boxes_and_total())
def test_compositions_in_boxes_match_the_filtered_product(case):
    # k = 0..5 boxes, empty and (0, 0) boxes, totals outside [sum lo, sum hi]
    boxes, total = case
    assert list(typicality._compositions_in_boxes(boxes, total)) == (
        oracles.compositions_in_boxes(boxes, total)
    )


@st.composite
def wide_boxes_and_total(draw):
    """One to three boxes of width up to 40 and a total up to 120, drawn
    mostly near the ends of the range the boxes can reach. There the cells'
    remainder ranges are clipped, so the second-to-last cell's windows
    start or end against an edge of its box, and its lower edge sits at 0
    for some remainders and grows for others."""
    boxes = draw(
        st.lists(
            st.builds(lambda lo, width: (lo, lo + width), st.integers(0, 40), st.integers(0, 40)),
            min_size=1,
            max_size=3,
        )
    )
    lo_sum, hi_sum = sum(lo for lo, _ in boxes), min(sum(hi for _, hi in boxes), 120)
    total = draw(
        st.one_of(
            st.integers(max(0, lo_sum - 2), lo_sum + 5),
            st.integers(max(0, hi_sum - 5), hi_sum + 2),
            st.integers(0, 120),
        )
    )
    return boxes, min(total, 120)


@PROPERTY
@given(wide_boxes_and_total())
def test_box_multinomial_sum_matches_listing_on_wide_windows(case):
    boxes, total = case
    assert typicality._box_multinomial_sum(boxes, total) == (
        oracles.box_multinomial_sum(boxes, total)
    )
    assert typicality._box_multinomial_sum(boxes, total, unit=True) == len(
        list(typicality._compositions_in_boxes(boxes, total))
    )


def test_typical_set_size_makes_the_same_few_comb_calls_at_every_n(monkeypatch):
    # the second-to-last cell is stepped by Pascal's rule, so a ternary ball
    # needs no math.comb per remainder: the count does not grow with n
    comb, calls = math.comb, []
    monkeypatch.setattr(math, "comb", lambda r, c: calls.append(r) or comb(r, c))
    made = {}
    for n in (400, 1600):
        calls.clear()
        typical_set_size(T3_ROW, default_params(n).eps1, n)
        made[n] = len(calls)
    assert made[400] == made[1600] <= 3


def test_typical_set_size_t3_n400_matches_listing():
    n = 400
    delta = schedule_delta(n)
    want = oracles.box_multinomial_sum(oracles.ball_boxes(T3_ROW.probs, delta, n), n)
    assert typical_set_size(T3_ROW, delta, n).value == want


def test_typical_set_size_t3_n1600_pinned():
    # sha256 of the decimal |T_delta(P_X)| for T3 at n=1600, the same value
    # as the benchmark's typical_set_size.n1600 pin
    value = typical_set_size(T3_ROW, default_params(1600).eps1, 1600).value
    assert hashlib.sha256(str(value).encode()).hexdigest() == (
        "e7b97899b27a66a70b1a57833ac4866e3cf47ab5312ba7397c7324765bbf34d8"
    )


def test_cond_typical_set_size_brute(binary_joint):
    w = conditionalize(binary_joint, "row")
    w_rows = [None if r is None else list(r.probs) for r in w.rows]
    for xsym in ((0, 0, 1, 0, 1), (1, 1, 1, 1, 1), (0, 1, 0, 1, 0, 1)):
        x = Sequence(BIN, xsym)
        for delta in (Fraction(1, 10), Fraction(1, 5), Fraction(2, 5)):
            assert cond_typical_set_size(w, x, delta).value == (
                oracles.brute_cond_typical_count(w_rows, xsym, delta, 2)
            )


def test_jointly_typical_pair_count_brute(binary_joint):
    for n in (3, 4, 5):
        params = default_params(n)
        sizes = oracles.brute_pair_count(
            binary_joint.probs, params.eps1, params.eps2, params.lam, n
        )
        got = jointly_typical_pair_count(binary_joint, params, n)
        assert got.value == sizes[2]


# --- typical-set rate envelope -------------------------------------------------


def test_typical_set_rate_envelope_default_schedule():
    p = Pmf(BIN, (Fraction(2, 5), Fraction(3, 5)))
    h = -(0.4 * math.log2(0.4) + 0.6 * math.log2(0.6))
    for n in (8, 12, 16):
        delta = schedule_delta(n)
        c_n = typical_set_rate_envelope(p, n, delta)
        rate = log2_int(typical_set_size(p, delta, n).value) / n
        assert abs(rate - h) <= c_n + 1e-12


# --- sampling -----------------------------------------------------------------


def test_sample_uniform_typical_support_and_determinism():
    p = Pmf(BIN, (Fraction(1, 2), Fraction(1, 2)))
    delta = Fraction(63, 200)
    sampler = TypicalSampler(p, delta, 4)
    rng = random.Random(11)
    seen = set()
    for _ in range(3000):
        s = Sequence(BIN, tuple(sampler.draw(rng)))
        assert is_typical(s, p, delta)
        seen.add(s.symbols)
    assert len(seen) == 14  # full coverage of the typical set

    a = TypicalSampler(p, delta, 4).draw(random.Random(3))
    b = TypicalSampler(p, delta, 4).draw(random.Random(3))
    assert a == b


def test_sample_uniform_typical_empty_set():
    p = Pmf(BIN, (Fraction(1, 3), Fraction(2, 3)))
    with pytest.raises(ValueError):
        TypicalSampler(p, Fraction(0), 4)  # 4/3 not integral


@pytest.mark.parametrize(
    "walk",
    [
        lambda d: list(enumerate_types(3, 60, ball=(T3_ROW, d))),
        lambda d: TypicalSampler(T3_ROW, d, 60),
        lambda d: typical_set_size(T3_ROW, d, 60),
        lambda d: cond_typical_set_size(
            conditionalize(JointPmf(BIN, BIN, ((Fraction(1, 4),) * 2,) * 2), "row"),
            seq(BIN, 0, 1, 1),
            d,
        ),
    ],
    ids=["enumerate_types", "TypicalSampler", "typical_set_size", "cond_typical_set_size"],
)
@pytest.mark.parametrize("delta", [-schedule_delta(60), Fraction(-1, 10)])
def test_negative_delta_refused_by_every_ball_walk(walk, delta):
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        walk(delta)


def test_sample_uniform_typical_point_mass():
    point = Pmf(BIN, (Fraction(1), Fraction(0)))
    assert TypicalSampler(point, Fraction(0), 5).draw(random.Random(0)) == [0, 0, 0, 0, 0]


def test_sampler_uniformity_chi_square():
    """Uniformity over the 14-member set: chi-square at p = 0.001, df = 13."""
    p = Pmf(BIN, (Fraction(1, 2), Fraction(1, 2)))
    delta = Fraction(63, 200)
    sampler = TypicalSampler(p, delta, 4)
    rng = random.Random(123)
    counts = {}
    draws = 14_000
    for _ in range(draws):
        s = tuple(sampler.draw(rng))
        counts[s] = counts.get(s, 0) + 1
    assert len(counts) == 14
    expected = draws / 14
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 34.528  # chi2 critical value, df=13, alpha=0.001


# --- joint-type kernel ----------------------------------------------------------


def _table_digest(table):
    text = "".join(
        f"{','.join(map(str, c))}:{size}:{deg}\n" for c, (size, deg) in sorted(table.items())
    )
    return hashlib.sha256(text.encode()).hexdigest()


# both sides' degree tables of D_k under default_params(n), recorded with the
# former kernel (one dict of final column sums per row type)
@pytest.mark.parametrize("k, n, digest", [
    (4, 20, "6329227ec8a872182016bc69fbcd53ebbd43bc76ca5b18dff310b341925365b9"),
    (5, 12, "260f09dd2aa49369a8f0ef8bf838816fef97ba6b05db04ade6792f3fce97e137"),
])
def test_degree_table_pins(diagonal_joint, k, n, digest):
    for side in ("left", "right"):
        assert _table_digest(degree_table(diagonal_joint(k), default_params(n), n, side)) == digest


def _kernel(joint, n):
    """(left kernel, row-type boxes) of joint under default_params(n)."""
    kernel = typicality._DegreeKernel.of_side(joint, default_params(n), n, "left")
    return kernel, kernel.boxes


def test_kernel_steps_sum_the_per_type_bound():
    """The pass over (count total, capped product) states equals the bound
    summed type by type: sum over rows of min(prod of earlier rows'
    composition counts, column-sum grid) times the row's own count."""
    rng = random.Random(5)
    for _ in range(40):
        kx, ky = rng.randint(1, 4), rng.randint(1, 4)
        weights = [rng.randrange(4) for _ in range(kx * ky)]
        weights[rng.randrange(kx * ky)] += 1
        a, b = Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky)))
        probs = tuple(
            tuple(Fraction(weights[i * ky + j], sum(weights)) for j in range(ky))
            for i in range(kx)
        )
        joint, n = JointPmf(a, b, probs), rng.randint(1, 10)
        kernel, boxes = _kernel(joint, n)
        cells = [typicality._ball_boxes(row, n, default_params(n).lam) for row in probs]
        cols = typicality._ball_boxes(joint.col_marginal().probs, n, default_params(n).eps2)
        grid = math.prod(hi + 1 for _, hi in cols)
        want = 0
        for counts in typicality._compositions_in_boxes(boxes, n):
            product = 1
            for row, count in zip(cells, counts):
                size = typicality._box_multinomial_sum(row, count, unit=True)
                want += min(product, grid) * size
                product *= size
            assert kernel.steps([(c, c) for c in counts]) <= want
        assert kernel.steps(boxes) == want


def test_kernel_steps_of_the_benchmark_joints(binary_joint, diagonal_joint):
    # T3 at n=12, B2 at n=192 and D5 at n=12 read 2^14.8, 2^14.4 and 2^27.4
    third = Alphabet((0, 1, 2))
    diag = (Fraction(1, 5), Fraction(1, 5), Fraction(3, 10))
    t3 = JointPmf(third, third, tuple(
        tuple(diag[i] if i == j else Fraction(1, 20) for j in range(3)) for i in range(3)
    ))
    cases = ((t3, 12, 14.8), (binary_joint, 192, 14.4), (diagonal_joint(5), 12, 27.4))
    for joint, n, log2_steps in cases:
        kernel, boxes = _kernel(joint, n)
        assert round(math.log2(kernel.steps(boxes)), 1) == log2_steps


def test_kernel_over_cap_raises_before_listing(monkeypatch, diagonal_joint):
    monkeypatch.setattr(typicality, "_compositions_in_boxes", _unlisted)
    n = 20  # D5 at n=20: up to 7,348,706,873 steps, over 2^30
    message = re.escape(f"needs up to 7348706873 steps (2^32.8), over cap {KERNEL_STEP_CAP}")
    for side in ("left", "right"):
        with pytest.raises(CapExceeded, match=message):
            degree_table(diagonal_joint(5), default_params(n), n, side)


def test_kernel_degree_of_over_cap_raises_before_listing(monkeypatch, diagonal_joint):
    """One type off the table is bounded alone, and refused before any
    composition is listed."""
    monkeypatch.setattr(typicality, "_compositions_in_boxes", _unlisted)
    monkeypatch.setattr(typicality, "KERNEL_STEP_CAP", 1000)
    kernel, _ = _kernel(diagonal_joint(5), 12)
    with pytest.raises(CapExceeded, match="over cap 1000"):
        kernel.degree_of((3, 2, 2, 3, 2))


def test_kernel_degree_of_checks_the_row_type(binary_joint):
    kernel, _ = _kernel(binary_joint, 8)
    with pytest.raises(ValueError, match="does not match the row alphabet"):
        kernel.degree_of((4, 2, 2))
    with pytest.raises(ValueError, match="does not sum to n"):
        kernel.degree_of((4, 3))


def _prefix_rows_per_side(monkeypatch, joint, n) -> list[tuple[int, int]]:
    """Both sides' tables of joint at n, each from a kernel of its own:
    per side, (prefix rows filed, last-row counts of the types counted).
    No close may make a weighted box sum."""
    box_sum, weighted = typicality._box_multinomial_sum, []
    degree, counted = typicality._DegreeKernel._degree, []

    def counted_sum(boxes, total, unit=False):
        if not unit:
            weighted.append((boxes, total))
        return box_sum(boxes, total, unit)

    def counted_degree(kernel, counts):
        counted.append(counts)
        return degree(kernel, counts)

    monkeypatch.setattr(typicality, "_box_multinomial_sum", counted_sum)
    monkeypatch.setattr(typicality._DegreeKernel, "_degree", counted_degree)
    out = []
    for side in ("left", "right"):
        counted.clear()
        kernel = typicality._DegreeKernel.of_side(joint, default_params(n), n, side)
        table = kernel.table()
        assert set(counted) <= set(table)
        out.append((len(kernel._binomial_rows), len({counts[-1] for counts in counted})))
    assert weighted == []
    return out


def test_b2_tables_close_the_last_row_from_one_prefix_row_per_remainder(
    monkeypatch, lopsided_joint
):
    # a binary last row has two cells: every close reads a binomial prefix
    # row, one per last-row count of a counted type (34 and 33 at n=192 on
    # a joint with no symmetry, where every type is counted)
    assert _prefix_rows_per_side(monkeypatch, lopsided_joint, 192) == [(34, 34), (33, 33)]


def test_b2_tables_count_one_type_per_mirror_pair(monkeypatch, binary_joint):
    # B2's letter swap keeps its boxes: the first type met of each mirror
    # pair is counted, and those meet 17 of the 33 last-row counts at n=192
    assert _prefix_rows_per_side(monkeypatch, binary_joint, 192) == [(17, 17), (17, 17)]


def test_b2_tables_step_their_row_weights(monkeypatch, binary_joint):
    # B2's rows have two cells: a listed row's weights are stepped from one
    # math.comb, a prefix row is stepped from one, and `multinomial` only
    # sizes the table's type classes
    calls = {"comb": 0, "multinomial": 0}
    comb, weigh = math.comb, typicality.multinomial

    def counted_comb(*args):
        calls["comb"] += 1
        return comb(*args)

    def counted_multinomial(*args):
        calls["multinomial"] += 1
        return weigh(*args)

    monkeypatch.setattr(math, "comb", counted_comb)
    monkeypatch.setattr(typicality, "multinomial", counted_multinomial)
    n, types, rows = 600, 0, 0
    for side in ("left", "right"):
        kernel = typicality._DegreeKernel.of_side(binary_joint, default_params(n), n, side)
        types += len(kernel.table())
        rows += len(kernel._rows) + len(kernel._binomial_rows)
    assert calls["multinomial"] == types
    assert calls["comb"] <= 2 * types + rows


def test_kernel_refused_over_the_cap_is_refused_again(monkeypatch, binary_joint):
    """Only a passed bound is recorded on the kernel."""
    monkeypatch.setattr(typicality, "KERNEL_STEP_CAP", 1000)
    kernel, _ = _kernel(binary_joint, 192)
    for _ in range(2):
        with pytest.raises(CapExceeded, match="over cap 1000"):
            kernel.check()
    with pytest.raises(CapExceeded, match="over cap 1000"):
        kernel.table()


def test_kernel_keeps_no_partial_sum_past_a_column_hi(diagonal_joint):
    """Partial sums past a column's hi are dropped as they arise: no front
    dict, back memo or last-row memo holds one."""
    for joint, n in ((diagonal_joint(3), 30), (diagonal_joint(4), 12), (diagonal_joint(5), 8)):
        kernel, boxes = _kernel(joint, n)
        for counts in typicality._compositions_in_boxes(boxes, n):
            kernel.degree_of(counts)
        stored = [kernel._last] + list(kernel._front.values()) + list(kernel._back.values())
        assert sum(map(len, stored)) > len(kernel._front)
        assert not any(s & kernel._over for memo in stored for s in memo)


# --- joint-type index ---------------------------------------------------------


def test_joint_type_index_files_each_type_apart():
    rng = random.Random(9)
    n = 10
    for k in (2, 3):
        draws = []
        for _ in range(120):
            cells = [0] * (k * k)
            for _ in range(n):
                cells[rng.randrange(k * k)] += 1
            draws.append(tuple(cells))
        for target in draws[:12]:
            index = JointTypeIndex(k, k, n, [(c, c) for c in target])
            for other in draws:
                pairs = [divmod(c, k) for c in range(k * k) for _ in range(other[c])]
                rng.shuffle(pairs)
                x = tuple(a for a, _ in pairs)
                y = tuple(b for _, b in pairs)
                assert index.count([x], [y]) == (other == target)


def test_joint_type_index_symbols_past_one_byte():
    # 300 row symbols: masks are built without the byte translation
    target = [0] * 600
    target[299 * 2 + 1] = 2  # (299, 1) twice
    target[257 * 2 + 0] = 1  # (257, 0) once
    index = JointTypeIndex(300, 2, 3, [(c, c) for c in target])
    assert index.count([(299, 257, 299)], [(1, 0, 1)]) == 1
    assert index.count([(299, 257, 299)], [(1, 1, 0)]) == 0
    assert index.count([(299, 256, 299)], [(1, 0, 1)]) == 0


def _unlisted(*args):
    raise AssertionError("the joint ball was listed")


def test_joint_ball_count_matches_listing():
    rng = random.Random(12)
    for _ in range(60):
        kx, ky = rng.randint(1, 3), rng.randint(1, 3)
        weights = [rng.randrange(4) for _ in range(kx * ky)]
        weights[rng.randrange(kx * ky)] += 1
        flat = [Fraction(w, sum(weights)) for w in weights]
        n = rng.randint(1, 8)
        lam = Fraction(rng.randrange(7), rng.randint(2, 12))
        boxes = typicality._ball_boxes(flat, n, lam)
        assert typicality._box_multinomial_sum(boxes, n, unit=True) == len(
            list(typicality._compositions_in_boxes(boxes, n))
        )


def test_joint_ball_count_of_d3_at_n30_without_listing(monkeypatch, diagonal_joint):
    monkeypatch.setattr(typicality, "_compositions_in_boxes", _unlisted)
    n = 30
    boxes = typicality._ball_boxes(diagonal_joint(3).flat(), n, default_params(n).lam)
    assert typicality._box_multinomial_sum(boxes, n, unit=True) == 2_252_221


def test_joint_ball_of_d3_at_n50_files_on_demand(monkeypatch, diagonal_joint):
    """D3 at n=50: the ball holds 30,095,340 count matrices, once refused
    over a cap on listing them. Built from its boxes, it lists none and
    agrees with the pair predicate on seeded pairs, which are drawn from
    the joint so that some are typical."""
    listed = typicality._compositions_in_boxes

    def no_whole_matrix(boxes, total):
        assert len(boxes) < 9, "a whole count matrix was listed"
        return listed(boxes, total)

    monkeypatch.setattr(typicality, "_compositions_in_boxes", no_whole_matrix)
    n, joint = 50, diagonal_joint(3)
    lam = default_params(n).lam
    index = JointTypeIndex.ball(joint, lam, n)
    rng = random.Random(50)
    cells = [(a, b) for a in range(3) for b in range(3)]
    weights = [float(p) for p in joint.flat()]
    pairs = [list(zip(*rng.choices(cells, weights, k=n))) for _ in range(12)]
    xs, ys = [tuple(x) for x, _ in pairs], [tuple(y) for _, y in pairs]
    want = [
        [j for j, y in enumerate(ys) if oracles.jointly_typical(x, y, joint.probs, lam)]
        for x in xs
    ]
    assert 0 < sum(map(len, want)) < len(xs) * len(ys)
    assert oracles.scan_ranks(index, xs, ys) == want
    assert index.count(xs, ys) == sum(map(len, want))
    assert sum(map(len, index._filed.values())) <= len(xs) * len(ys)


def test_joint_type_index_matches_predicate(binary_joint):
    n = 5
    params = default_params(n)
    index = JointTypeIndex.ball(binary_joint, params.lam, n)
    seqs = list(itertools.product(range(2), repeat=n))
    for xs, hits in zip(seqs, oracles.scan_ranks(index, seqs, seqs)):
        x = Sequence(BIN, xs)
        assert hits == [
            j
            for j, ys in enumerate(seqs)
            if is_jointly_typical(x, Sequence(BIN, ys), binary_joint, params.lam)
        ]


def _boxed(kx, ky, boxes):
    """The pair predicate straight from the boxes, unclipped: every cell of
    the joint count matrix lies in its (lo, hi)."""

    def admits(x, y):
        counts = oracles.counts_of([a * ky + b for a, b in zip(x, y)], kx * ky)
        return all(lo <= c <= hi for c, (lo, hi) in zip(counts, boxes))

    return admits


def _check_scan(kx, ky, n, boxes, xs, ys):
    """scan's rows against `_boxed`, with no bit set past the roster, and
    `count` on a fresh index against their total."""
    index = JointTypeIndex(kx, ky, n, boxes)
    rows = list(index.scan(xs, ys))
    assert all(0 <= hits < 1 << len(ys) for hits in rows)
    admits = _boxed(kx, ky, boxes)
    want = [[j for j, y in enumerate(ys) if admits(x, y)] for x in xs]
    assert oracles.scan_ranks(index, xs, ys) == want
    assert JointTypeIndex(kx, ky, n, boxes).count(xs, ys) == sum(map(len, want))
    return want


@pytest.mark.parametrize("size", [0, 1, 8, 9, 255, 256])
def test_joint_type_index_scan_roster_sizes(size):
    """Rosters on both sides of a byte and of the empty roster, on a binary
    and a ternary ball: an empty roster gives every x the empty set."""
    rng = random.Random(size)
    n = 5
    for k, weights in ((2, [4, 1, 1, 4]), (3, [4, 1, 1, 1, 4, 1, 1, 1, 6])):
        flat = [Fraction(w, sum(weights)) for w in weights]
        boxes = typicality._ball_boxes(flat, n, Fraction(1, 5))
        xs = [tuple(rng.randrange(k) for _ in range(n)) for _ in range(12)]
        ys = [tuple(rng.randrange(k) for _ in range(n)) for _ in range(size)]
        ys[: min(size, 6)] = [x for x in xs[: min(size, 6)]]  # some hits
        want = _check_scan(k, k, n, boxes, xs, ys)
        assert (sum(map(len, want)) > 0) is (size > 0)
    assert list(JointTypeIndex(2, 2, n, boxes[:4]).scan(xs, iter([]))) == [0] * len(xs)


@pytest.mark.parametrize("n", [7, 8])
def test_joint_type_index_scan_counter_widths(n):
    """n = 7 needs three counter planes and n = 8 four: boxes that reach a
    count of n, or stop one short of it, on every binary pair."""
    seqs = list(itertools.product(range(2), repeat=n))
    xs = random.Random(n).sample(seqs, 24) + [(0,) * n, (1,) * n]
    for boxes in (
        [(n, n), (0, 0), (0, 0), (0, 0)],  # the all-zero pair alone
        [(0, n - 1), (0, n), (0, n), (0, n)],  # all but the all-zero pair
        [(3, n), (0, 3), (0, 3), (3, n)],
        typicality._ball_boxes([Fraction(w, 10) for w in (4, 1, 1, 4)], n, Fraction(1, 8)),
    ):
        want = _check_scan(2, 2, n, boxes, xs, seqs)
        assert any(want) and not all(len(w) == len(seqs) for w in want)


def test_joint_type_index_scan_empty_and_clipped_boxes():
    """A box with lo > hi admits no pair, wherever its row's symbol is
    missing too; boxes past 0 and n act as if clipped to them."""
    n, k = 4, 3
    seqs = list(itertools.product(range(k), repeat=n))
    xs = seqs[::4]
    clipped = [(0, 2), (1, 4), (0, 0), (0, 4), (0, 4), (0, 4), (1, 4), (0, 4), (0, 1)]
    wide = [(-3, 2), (1, 9), (-1, 0), (-5, 4), (0, 7), (-2, 4), (1, 4), (0, 99), (-1, 1)]
    want = _check_scan(k, k, n, clipped, xs, seqs)
    assert any(want)
    assert _check_scan(k, k, n, wide, xs, seqs) == want
    for cell in (0, 4, 8):
        empty = list(clipped)
        empty[cell] = (3, 2)
        assert _check_scan(k, k, n, empty, xs, seqs) == [[]] * len(xs)


def test_joint_type_index_scan_symbols_past_one_byte():
    """Column symbols past 255 are bit-sliced without the byte translation."""
    ky, n = 300, 3
    rng = random.Random(300)
    symbols = [0, 1, 255, 256, 257, 299]
    ys = [tuple(rng.choice(symbols) for _ in range(n)) for _ in range(40)]
    xs = [(0, 1, 0), (1, 1, 1), (0, 0, 1)]
    for x, y in ((xs[0], (299, 257, 299)), (xs[2], (256, 256, 0))):
        ys.append(y)
        target = oracles.counts_of([a * ky + b for a, b in zip(x, y)], 2 * ky)
        want = _check_scan(2, ky, n, [(c, c) for c in target], xs, ys)
        assert want[xs.index(x)][-1] == len(ys) - 1
    loose = [(0, 1)] * (2 * ky)
    assert any(_check_scan(2, ky, n, loose, xs, ys))


# --- misc ---------------------------------------------------------------------


def test_log2_int_big():
    assert log2_int(2**1000) == 1000.0
    assert abs(log2_int(3**500) - 500 * math.log2(3)) < 1e-9
    assert BigCount.from_int(70).log2 == pytest.approx(math.log2(70))


def test_sequence_validation():
    with pytest.raises(ValueError):
        Sequence(BIN, ())
    with pytest.raises(ValueError):
        Sequence(BIN, (0, 2))
    s = seq(BIN, 1, 0, 1)
    assert s.n == 3
    assert s.labels() == (1, 0, 1)
    assert empirical_type(s).counts == (1, 2)


def test_sequence_validation_messages():
    with pytest.raises(ValueError, match="sequences must have length >= 1"):
        Sequence(BIN, ())
    for symbols in ((0, -1, 1), (1, 2, 0)):
        with pytest.raises(ValueError, match="sequence symbol out of alphabet range"):
            Sequence(BIN, symbols)
