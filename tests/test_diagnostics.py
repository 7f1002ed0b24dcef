import itertools
import json
import math
from fractions import Fraction

import pytest

from typigraph.core import Alphabet, InvariantViolation
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
    assert len(dist) == 3
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
    ],
)
def test_edge_distribution_validation(xids, xrows, message):
    with pytest.raises(ValueError, match=message):
        edge_distribution(xids, [0] * len(xids), xrows, [(0, 1)], BIN, BIN)


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
