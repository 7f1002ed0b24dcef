import itertools
import json
import math
import random
import re
import tracemalloc
from array import array
from fractions import Fraction

import pytest

from typigraph import diagnostics
from typigraph.core import Alphabet, InvariantViolation, id_typecode, replace
from typigraph.diagnostics import (
    block_mi,
    block_mi_bound,
    dominant_joint_type,
    edge_distribution,
    fano_distribution,
    pinsker_check,
    strong_converse_bound,
    wring,
    wringing_to_dict,
)
from typigraph.graph import _read_edge_csv
from typigraph.typicality import Sequence, schedule_delta

BIN = Alphabet((0, 1))


def matching_edges(m=16, n=8):
    """x_i = y_i = binary expansion of i: a perfect matching."""
    edges = []
    for i in range(m):
        bits = tuple((i >> (n - 1 - t)) & 1 for t in range(n))
        s = Sequence(BIN, bits)
        edges.append((s, s))
    return edges


def product_edges(n=4):
    """All pairs of two small sets: per-letter independence by construction."""
    xs = [Sequence(BIN, s) for s in itertools.product(range(2), repeat=n)]
    return [(x, y) for x in xs[:4] for y in xs[:4]]


# --- per-letter laws -------------------------------------------------------------


def test_fano_distribution_exact_laws():
    edges = matching_edges()
    dist = fano_distribution(edges)
    assert dist.n == 8
    # position 0 is always (0,0); position 7 alternates
    assert dist.per_letter[0].cell(0, 0) == 1
    assert dist.per_letter[7].cell(0, 0) == Fraction(1, 2)
    assert dist.per_letter[7].cell(1, 1) == Fraction(1, 2)
    assert dist.per_letter[7].cell(0, 1) == 0


def test_fano_distribution_validation():
    with pytest.raises(ValueError, match="empty"):
        fano_distribution(())
    a = Sequence(BIN, (0, 1))
    b = Sequence(BIN, (0, 1, 1))
    with pytest.raises(ValueError, match="blocklength"):
        fano_distribution([(a, b)])


# --- dominant type ----------------------------------------------------------------


def test_dominant_type_matching():
    res = dominant_joint_type(fano_distribution(matching_edges()))
    # weight-2 suffixes are the most numerous: C(4,2) = 6 of 16
    assert res.joint_type.counts == ((6, 0), (0, 2))
    assert res.edge_fraction == Fraction(3, 8)
    assert res.pigeonhole_ok
    assert res.distinct_types == 5


def test_dominant_type_tie_breaks_lex():
    x0 = Sequence(BIN, (0, 0))
    x1 = Sequence(BIN, (1, 1))
    res = dominant_joint_type(fano_distribution([(x0, x0), (x1, x1)]))
    # counts tie 1-1; the flattened count vectors are (2,0,0,0) and
    # (0,0,0,2); lexicographically smaller wins
    assert res.joint_type.counts == ((0, 0), (0, 2))
    assert res.edge_fraction == Fraction(1, 2)


def test_dominant_type_pigeonhole_floor():
    res = dominant_joint_type(fano_distribution(product_edges()))
    n = 4
    assert res.edge_fraction >= Fraction(1, (n + 1) ** 4)


# --- block MI ----------------------------------------------------------------------


def test_block_mi_matching_and_product():
    assert block_mi(fano_distribution(matching_edges())) == pytest.approx(4.0, abs=1e-12)
    assert block_mi(fano_distribution(product_edges())) == pytest.approx(0.0, abs=1e-12)


def test_block_mi_weighted():
    # two x values; y determined by x except one crossing edge
    x0 = Sequence(BIN, (0, 0))
    x1 = Sequence(BIN, (1, 1))
    edges = [(x0, x0), (x0, x0), (x1, x1), (x0, x1)]
    # I = H(Y) - H(Y|X): p(y=x0) = 1/2; H(Y|X) = (3/4) H(1/3) contribution
    h_y = 1.0
    h_y_given_x = 0.75 * (-(Fraction(2, 3)) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3))
    assert block_mi(fano_distribution(edges)) == pytest.approx(h_y - float(h_y_given_x), abs=1e-9)


@pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "repeat"])
def test_fano_block_mi_counts_no_pair_keys_without_repeats(repeat):
    """60,000 shuffled Fano pairs with no repeated (x, y) pair are marked
    distinct, so their block MI counts no pair keys: under 16 bytes of
    traced memory per edge at peak. One repeated pair leaves the set
    unmarked. The MI is the same float either way."""
    n, edges = 9, 60_000
    rng = random.Random(3)
    keys = rng.sample(range(1 << 2 * n), edges)
    if repeat:
        keys.append(keys[edges // 2])
    seqs = [Sequence(BIN, tuple((k >> (n - 1 - t)) & 1 for t in range(n))) for k in range(1 << n)]
    dist = fano_distribution([(seqs[k >> n], seqs[k & ((1 << n) - 1)]) for k in keys])
    assert dist.distinct is not repeat
    tracemalloc.start()
    try:
        mi = block_mi(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mi == block_mi(replace(dist, distinct=False))
    if not repeat:
        assert peak < 16 * edges, f"{peak / edges:.1f} bytes per edge"


def test_block_mi_bound_report():
    rep = block_mi_bound(
        16, 16, 16, 8, schedule_delta(8), 2, 2, edges=fano_distribution(matching_edges())
    )
    assert rep.exact_mi == pytest.approx(4.0)
    assert rep.count_bound == pytest.approx(4.0)
    assert rep.lemma_bound == pytest.approx(2 * 8 * 0.25 + 4 * math.log2(9))
    assert rep.edge_floor_ok
    assert rep.exact_within_bound
    with pytest.raises(ValueError):
        block_mi_bound(0, 16, 16, 8, Fraction(1, 4), 2, 2)


def test_block_mi_bound_without_edges():
    rep = block_mi_bound(64, 64, 16, 8, Fraction(1, 4), 2, 2)
    assert rep.exact_mi is None
    assert rep.exact_within_bound is None
    assert rep.count_bound == pytest.approx(8.0)


# --- wringing ---------------------------------------------------------------------


def test_wring_matching():
    dist = fano_distribution(matching_edges())
    res = wring(dist, 0.05)
    assert res.converged
    assert res.k == 4
    assert res.positions == (4, 5, 6, 7)  # only the low bits carry MI
    assert res.values == ((0, 0),) * 4
    assert res.surviving_fraction == Fraction(1, 16)
    assert max(res.per_letter_mi) <= 0.05
    assert res.bound_ok
    assert res.sigma == pytest.approx(4.0)
    # shrinking is monotone step by step
    fracs = [s.fraction for s in res.steps]
    assert all(a > b for a, b in zip(fracs, fracs[1:]))


def test_wring_product_is_noop():
    dist = fano_distribution(product_edges())
    res = wring(dist, 0.05)
    assert res.k == 0
    assert res.converged
    assert res.surviving_fraction == 1
    assert res.steps == ()
    # sigma = block MI = 0 here, below delta/2: the survival floor's
    # hypothesis fails, so no claim is made either way
    assert res.bound_ok is None


def test_wring_flagged_when_budget_exhausted():
    dist = fano_distribution(matching_edges())
    # sigma understated: allowance 2*sigma/delta = 2 steps, need 4
    res = wring(dist, 0.05, sigma=0.05)
    assert not res.converged
    assert res.k == 2
    assert max(res.per_letter_mi) > 0.05
    assert res.bound_ok is None


def test_wring_deterministic_and_serializable():
    dist = fano_distribution(matching_edges())
    a = wring(dist, 0.05)
    b = wring(dist, 0.05)
    assert a.positions == b.positions and a.values == b.values
    doc = wringing_to_dict(a)
    blob = json.dumps(doc, sort_keys=True)
    assert json.loads(blob)["k"] == 4
    assert json.loads(blob)["surviving_fraction"] == "1/16"


def test_wring_rejects_bad_delta():
    dist = fano_distribution(matching_edges())
    with pytest.raises(ValueError):
        wring(dist, 0.0)
    with pytest.raises(ValueError):
        wring(dist, -0.1)


@pytest.mark.parametrize(
    "delta, sigma",
    [(math.nan, None), (math.inf, None), (0.05, math.nan), (0.05, math.inf), (0.05, -1.0)],
)
def test_wring_rejects_nonfinite_budgets(delta, sigma):
    dist = fano_distribution(matching_edges())
    with pytest.raises(ValueError, match="finite"):
        wring(dist, delta, sigma)


def test_edge_distribution_from_ids_and_rows():
    xa, ya = Alphabet(("a", "b")), BIN
    dist = edge_distribution([1, 0, 1], [0, 0, 1], [(0, 0), (1, 0)], [(0, 1), (1, 1)], xa, ya)
    assert dist.size == 3
    assert list(dist.pairs()) == [((1, 0), (0, 1)), ((0, 0), (0, 1)), ((1, 0), (1, 1))]
    assert dist.columns == (bytes([2, 0, 3]), bytes([1, 1, 1]))
    seqs = [(Sequence(xa, x), Sequence(ya, y)) for x, y in dist.pairs()]
    assert block_mi(dist) == block_mi(fano_distribution(seqs))


@pytest.mark.parametrize(
    "xids, xrows, message",
    [
        ([0, 2], [(0, 0), (1, 0)], "ids must lie in"),
        ([0, -1], [(0, 0), (1, 0)], "ids must lie in"),
        ([0, 1], [(0, 0), (0, 0)], "distinct"),
        ([0, 1], [(0, 0), (1,)], "blocklength"),
        ([0, 1], [(0, 0), (2, 0)], "alphabet"),
        ([], [(0, 0)], "empty"),
        ([0], [], "ids must lie in"),
    ],
)
def test_edge_distribution_validation(xids, xrows, message):
    with pytest.raises(ValueError, match=message):
        edge_distribution(xids, [0] * len(xids), xrows, [(0, 1)], BIN, BIN)


# byte columns (2 x 2 codes) and int columns (17 x 16 codes); two rows on
# the left, three on the right
ID_CASES = {
    "bytes": (Alphabet((0, 1)), Alphabet((0, 1)), [(0, 1), (1, 0)], [(0, 0), (1, 1), (0, 1)]),
    "ints": (
        Alphabet(tuple(range(17))),
        Alphabet(tuple(range(16))),
        [(0, 16), (16, 0)],
        [(0, 15), (15, 0), (3, 3)],
    ),
}


@pytest.mark.parametrize("codes", sorted(ID_CASES))
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize(
    "bad",
    [
        lambda rows: [0, -1],
        lambda rows: array("q", [0, -1]),
        lambda rows: [0, rows],
        lambda rows: array("q", [0, rows]),
        lambda rows: array(id_typecode(rows), [0, rows]),  # adopted as given
        lambda rows: array("Q", [0, 1 << 40]),
        lambda rows: [0.0, 1.0],
        lambda rows: array("d", [0.0, 1.0]),
    ],
    ids=["neg-list", "neg-q", "past-list", "past-q", "past-narrow", "past-Q", "float-list",
         "float-d"],
)
def test_edge_distribution_refuses_ids_outside_the_rows(codes, side, bad):
    """Negative ids, ids past the side's rows and floats, given as a list or
    as an array, raise one ValueError naming the side's row count, on the
    byte-column and on the int-column path."""
    xa, ya, xrows, yrows = ID_CASES[codes]
    rows = len(xrows) if side == "x" else len(yrows)
    ids = {"x": [0, 1], "y": [0, 2], side: bad(rows)}
    with pytest.raises(ValueError, match=re.escape(f"ids must lie in [0, {rows})")):
        edge_distribution(ids["x"], ids["y"], xrows, yrows, xa, ya)


@pytest.mark.parametrize("codes", sorted(ID_CASES))
def test_edge_distribution_adopts_unsigned_ids_and_converts_the_rest(codes):
    """An unsigned id array is kept as the same object; lists, signed and
    wider arrays become one narrow unsigned array each, the same law."""
    xa, ya, xrows, yrows = ID_CASES[codes]
    xids, yids = array("H", [1, 0, 1]), array("Q", [2, 0, 1])
    dist = edge_distribution(xids, yids, xrows, yrows, xa, ya)
    assert dist.xids is xids and dist.yids is yids
    for form in (list, lambda ids: array("q", ids)):
        other = edge_distribution(form(xids), form(yids), xrows, yrows, xa, ya)
        assert other.xids.typecode == other.yids.typecode == "B"
        assert other == dist and other.columns == dist.columns


def test_edge_distribution_columns_do_not_depend_on_the_slice(monkeypatch):
    """The columns are built one slice of edges at a time: any slice length,
    on both column paths, gives the columns of a single slice."""
    rng = random.Random(5)
    for xa, ya, xrows, yrows in ID_CASES.values():
        xids = [rng.randrange(len(xrows)) for _ in range(50)]
        yids = [rng.randrange(len(yrows)) for _ in range(50)]
        want = edge_distribution(xids, yids, xrows, yrows, xa, ya).columns
        for width in (1, 3, 49, 50):
            monkeypatch.setattr(diagnostics, "_JOIN_SLICE", width)
            assert edge_distribution(xids, yids, xrows, yrows, xa, ya).columns == want


def test_rank_csv_to_block_mi_holds_each_edge_column_once(tmp_path):
    """Reading a rank CSV of 200,000 distinct edges, building its distribution
    and taking its block MI, as `wring` does, keeps the reader's id arrays
    and stays under 3 (n + 4) bytes of traced memory per edge. An edge needs
    n + 4 of them (two-byte ids, n column bytes); the rest is room for the
    per-chunk and per-slice temporaries. Ids held twice or as eight-byte
    ints, or columns cut from big integers over all edges, go past it."""
    n, sizes, edges = 10, (1000, 900), 200_000
    rng = random.Random(11)
    xrows, yrows = (
        [tuple(map(int, f"{k:0{n}b}")) for k in rng.sample(range(1 << n), size)]
        for size in sizes
    )
    keys = sorted(rng.sample(range(sizes[0] * sizes[1]), edges))
    path = tmp_path / "e.csv"
    path.write_text(
        "left_rank,right_rank\n" + "".join(f"{k // sizes[1]},{k % sizes[1]}\n" for k in keys)
    )
    del keys
    tracemalloc.start()
    try:
        xids, yids = _read_edge_csv(str(path), *sizes)
        dist = edge_distribution(xids, yids, xrows, yrows, BIN, BIN)
        block_mi(replace(dist, distinct=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.xids is xids and dist.yids is yids
    assert (xids.typecode, yids.typecode) == ("H", "H")
    assert peak < 3 * (n + 4) * edges, f"{peak / edges:.1f} bytes per edge"


# --- Pinsker and the strong converse --------------------------------------------


def test_pinsker_after_wring():
    dist = fano_distribution(matching_edges())
    res = wring(dist, 0.05)
    tvs = pinsker_check(res.survivors, 0.05)
    cap = 2 * math.sqrt(0.05)
    assert all(tv <= cap for tv in tvs)


def test_pinsker_requires_wrung_input():
    dist = fano_distribution(matching_edges())
    with pytest.raises(ValueError, match="wring"):
        pinsker_check(dist, 0.05)  # per-letter MI is 1 bit, way over delta


def test_pinsker_product_edges():
    tvs = pinsker_check(fano_distribution(product_edges()), 0.01)
    assert all(tv == 0.0 for tv in tvs)


def test_strong_converse_bound():
    # mi_sum + 3/(1 - lam) * |A| * sqrt(n) = 2 + 6 * 2 * 4
    assert strong_converse_bound(2.0, 0.5, 2, 16) == pytest.approx(50.0)
    assert strong_converse_bound(0.0, 0.0, 1, 1) == pytest.approx(3.0)
    # diverges as lam -> 1
    assert strong_converse_bound(0.0, 0.999, 2, 4) > 1000
    with pytest.raises(ValueError):
        strong_converse_bound(1.0, 1.0, 2, 4)
    with pytest.raises(ValueError):
        strong_converse_bound(-1.0, 0.5, 2, 4)
    with pytest.raises(ValueError):
        strong_converse_bound(1.0, 0.5, 0, 4)
