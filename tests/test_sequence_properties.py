"""Property tests: the sequence-level layer against edge-by-edge references.

Random rational joints with up to three symbols a side (zero cells
included) and blocklengths up to 6. The explicit graph's streamed edges and
the joint ball's pair count (`JointTypeIndex.ball(...).count`) must match
the pair predicate of `oracles`, and the graph's
type-level statistics and degree-bound check the per-vertex reference
exactly; the subgraph edge CSVs (both kinds) must list exactly the roster
pairs whose (per-block) joint type is the target; and the diagnostics
must reproduce the per-edge reference in `oracles` exactly, floats
included, on label multisets with repeated edges, and give the same floats
on rank ids into shuffled rosters as on the Sequence pairs they stand for.
The rank-CSV writer must write the bytes of the `csv.writer` reference in
`oracles`, and the bulk rank-CSV reader must read what the row-by-row
reference there reads, or raise its error, at every chunk size. The uniform
typical-set sampler must draw the reference's symbols and leave the
generator in the reference's state, whether it is built once or once per
draw, also for type tables whose total takes more than 32 bits.
"""

import csv
import itertools
import os
import random
import tempfile
from array import array
from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
import typigraph.diagnostics
import typigraph.graph
from typigraph.core import Alphabet, CondPmf, JointPmf, Pmf, product_alphabet, replace
from typigraph.deviation import simulate
from typigraph.diagnostics import (
    block_mi,
    dominant_joint_type,
    edge_distribution,
    fano_distribution,
    pinsker_check,
    wring,
)
from typigraph.graph import (
    GraphSpec,
    _bulk_edge_columns,
    _read_edge_csv,
    build_graph,
    check_degree_bound,
    edge_list,
    stats,
)
from typigraph.subgraphs import (
    build_aux_subgraph,
    build_exact_type_subgraph,
    export_subgraph,
    left_roster,
    right_roster,
)
from typigraph import typicality
from typigraph.typicality import (
    JointTypeIndex,
    Sequence,
    TypicalSampler,
    TypicalityParams,
    schedule_delta,
)

PROPERTY = settings.get_profile("typigraph")

MAX_PAIRS = 5_000

slacks = st.builds(Fraction, st.integers(1, 6), st.integers(2, 12))


@st.composite
def joints(draw):
    kx = draw(st.integers(1, 3))
    ky = draw(st.integers(1, 3))
    n = draw(st.integers(1, max(n for n in range(1, 7) if (kx * ky) ** n <= MAX_PAIRS)))
    weights = draw(
        st.lists(st.integers(0, 4), min_size=kx * ky, max_size=kx * ky).filter(any)
    )
    total = sum(weights)
    probs = tuple(
        tuple(Fraction(weights[a * ky + b], total) for b in range(ky)) for a in range(kx)
    )
    return JointPmf(Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky))), probs), n


@PROPERTY
@given(joints(), slacks, slacks, slacks, st.randoms(use_true_random=False))
def test_graph_adjacency_and_count_pairs_match_brute_force(case, eps1, eps2, lam, rnd):
    """Edges, statistics and the degree bound against the per-vertex code."""
    joint, n = case
    probs = joint.probs
    kx, ky = len(probs), len(probs[0])
    px = [sum(row) for row in probs]
    py = [sum(row[b] for row in probs) for b in range(ky)]
    left = [s for s in oracles.all_sequences(kx, n) if oracles.robust_typical(s, px, eps1)]
    right = [s for s in oracles.all_sequences(ky, n) if oracles.robust_typical(s, py, eps2)]
    params = TypicalityParams(eps1=eps1, eps2=eps2, lam=lam)

    g = build_graph(GraphSpec(joint, n, params))
    assert [x.symbols for x in g.roster("left")] == left
    assert [y.symbols for y in g.roster("right")] == right
    want = tuple(
        tuple(j for j, y in enumerate(right) if oracles.jointly_typical(x, y, probs, lam))
        for x in left
    )
    assert list(edge_list(g)) == [(i, j) for i, nbrs in enumerate(want) for j in nbrs]
    assert g.edge_count.value == sum(map(len, want))
    vs = stats(g)
    iso_left, iso_right, (lmin, lmax, lmean), (rmin, rmax, rmean) = oracles.graph_stats(
        want, len(right)
    )
    assert (vs.isolated_left, vs.isolated_right) == (iso_left, iso_right)
    # floats compared exactly: the means must be summed in roster order
    assert (vs.left_degree_log2_min, vs.left_degree_log2_max, vs.left_degree_log2_mean) == (
        lmin,
        lmax,
        lmean,
    )
    assert (
        vs.right_degree_log2_min,
        vs.right_degree_log2_max,
        vs.right_degree_log2_mean,
    ) == (rmin, rmax, rmean)
    report = check_degree_bound(g)
    worst, violations = oracles.degree_bound(left, right, want, probs, eps1, eps2, lam)
    assert report.worst_slack_bits_per_symbol == worst
    assert set(report.violations) == violations
    assert report.all_ok == (not violations)

    # codebooks of any sequences, typical or not, repeats allowed
    xs = [tuple(rnd.randrange(kx) for _ in range(n)) for _ in range(rnd.randrange(1, 6))]
    ys = [tuple(rnd.randrange(ky) for _ in range(n)) for _ in range(rnd.randrange(1, 6))]
    assert JointTypeIndex.ball(joint, lam, n).count(xs, ys) == sum(
        1 for x in xs for y in ys if oracles.jointly_typical(x, y, probs, lam)
    )


def _joint_counts(x, y, kx, ky):
    cells = [0] * (kx * ky)
    for a, b in zip(x, y):
        cells[a * ky + b] += 1
    return tuple(cells)


def _csv_edges(sub):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        export_subgraph(sub, os.path.join(tmp, "s.json"), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows[0] == ["left_rank", "right_rank"]
    return [(int(i), int(j)) for i, j in rows[1:]]


def _index_case(kx, ky, weights, lam, x, y, xs, ys):
    """(joint, boxes, lam, xs, ys): the boxes of the joint's lam-ball at the
    codewords' length, as the joint ball has, or for lam None the (c, c)
    boxes of the exact joint type of x, y."""
    flat = [Fraction(w, sum(weights)) for w in weights]
    joint = JointPmf(
        Alphabet(tuple(range(kx))),
        Alphabet(tuple(range(ky))),
        tuple(tuple(flat[a * ky : (a + 1) * ky]) for a in range(kx)),
    )
    if lam is None:
        pairs = [a * ky + b for a, b in zip(x, y)]
        boxes = [(c, c) for c in oracles.counts_of(pairs, kx * ky)]
    else:
        boxes = typicality._ball_boxes(flat, len(x), lam)
    return joint, boxes, lam, xs, ys


@st.composite
def indexed_boxes(draw):
    """An `_index_case` on a joint up to 4x4 (zero cells included), a ball
    or an exact joint type, and up to 6 row and 8 column codewords."""
    # (2, 2) twice: binary joints take the index's one-int paths
    shapes = [(2, 2), (1, 1), (1, 3), (4, 1), (2, 3), (3, 2), (3, 3), (4, 4), (2, 2), (3, 4)]
    kx, ky = draw(st.sampled_from(shapes))
    weights = draw(st.lists(st.integers(0, 4), min_size=kx * ky, max_size=kx * ky).filter(any))
    n = draw(st.integers(1, 6 if kx * ky <= 9 else 5))
    words = [st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(tuple) for k in (kx, ky)]
    xs = draw(st.lists(words[0], min_size=1, max_size=6))
    ys = draw(st.lists(words[1], min_size=1, max_size=6))
    ys += [tuple(a % ky for a in x) for x in xs[: draw(st.integers(0, 2))]]  # closer pairs
    lam = draw(st.one_of(st.none(), slacks))
    return _index_case(kx, ky, weights, lam, draw(st.sampled_from(xs)), draw(st.sampled_from(ys)), xs, ys)


X4, Y4 = [(0, 1, 2, 3, 3, 0), (3, 2, 1, 0, 1, 1)], [(0, 1, 2, 3, 0, 3), (0, 1, 3, 3, 3, 0)]


@PROPERTY
@given(indexed_boxes())
@example(_index_case(  # 4 x 4 with a zero cell, the ball
    4, 4, [3, 1, 0, 1, 1, 3, 1, 1, 1, 1, 3, 1, 1, 1, 1, 3], Fraction(1, 3), X4[0], Y4[0], X4, Y4,
))
@example(_index_case(  # the same, one exact joint type
    4, 4, [3, 1, 0, 1, 1, 3, 1, 1, 1, 1, 3, 1, 1, 1, 1, 3], None, X4[0], Y4[0], X4, Y4,
))
def test_joint_type_index_matches_the_listed_ball(case):
    """scan and count against the ball listed up front; a second question
    to the same index reads what the first one filed."""
    joint, boxes, lam, xs, ys = case
    kx, ky, n = joint.row_alphabet.size, joint.col_alphabet.size, len(xs[0])
    admits = oracles.listed_ball(kx, ky, [(n, boxes)])
    want = [[j for j, y in enumerate(ys) if admits(x, y)] for x in xs]
    indexes = [JointTypeIndex(kx, ky, n, boxes)]
    if lam is not None:
        indexes.append(JointTypeIndex.ball(joint, lam, n))
    for index in indexes:
        assert oracles.scan_ranks(index, xs, ys) == want
        assert index.count(xs, ys) == sum(map(len, want))
        assert sum(map(len, index._filed.values())) <= len(set(xs)) * len(set(ys))
    assert JointTypeIndex(kx, ky, n, boxes).count(xs, ys) == sum(map(len, want))


@PROPERTY
@given(joints(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_subgraph_edge_csvs_match_exact_type_brute_force(case, ku, rnd):
    joint, n = case
    kx, ky = joint.row_alphabet.size, joint.col_alphabet.size
    pairs = product_alphabet(joint.row_alphabet, joint.col_alphabet)
    u_alpha = Alphabet(tuple(range(ku)))
    rows = []
    for _ in pairs.symbols:
        w = [rnd.randrange(4) for _ in range(ku)]
        w[rnd.randrange(ku)] += 1
        rows.append(Pmf(u_alpha, tuple(Fraction(v, sum(w)) for v in w)))
    subs = [
        build_exact_type_subgraph(joint, n),
        build_aux_subgraph(joint, CondPmf(pairs, u_alpha, tuple(rows)), n),
    ]
    for sub in subs:
        runs, start = [], 0
        for nu, target in zip(sub.block_lengths, sub.block_targets):
            runs.append((start, start + nu, tuple(c for row in target for c in row)))
            start += nu
        left = [x.symbols for x in left_roster(sub)]
        right = [y.symbols for y in right_roster(sub)]
        want = [
            (i, j)
            for i, x in enumerate(left)
            for j, y in enumerate(right)
            if all(
                _joint_counts(x[lo:hi], y[lo:hi], kx, ky) == target
                for lo, hi, target in runs
            )
        ]
        assert _csv_edges(sub) == want


@st.composite
def label_multisets(draw):
    """Edges drawn with repeats from a few sequences, as fresh objects. Most
    edges join x to its letterwise image, so that letters depend on each
    other and the wring has work to do."""
    kx = draw(st.integers(1, 3))
    ky = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    xpool = draw(
        st.lists(st.tuples(*[st.integers(0, kx - 1)] * n), min_size=2, max_size=6)
    )
    ypool = draw(
        st.lists(st.tuples(*[st.integers(0, ky - 1)] * n), min_size=1, max_size=3)
    )
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(xpool) - 1), st.integers(-3, len(ypool) - 1)),
            min_size=6,
            max_size=40,
        )
    )
    return kx, ky, [
        (xpool[i], tuple(a % ky for a in xpool[i]) if j < 0 else ypool[j])
        for i, j in picks
    ]


def _check_diagnostics(kx, ky, raw, delta, sigma=None):
    xa, ya = Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky)))
    edges = [(Sequence(xa, x), Sequence(ya, y)) for x, y in raw]
    dist = fano_distribution(edges)
    laws = [[[law.cell(a, b) for b in range(ky)] for a in range(kx)] for law in dist.per_letter]
    assert laws == oracles.per_letter_laws(raw, kx, ky)
    _check_wring(dist, kx, ky, raw, delta, sigma)


def _check_wring(dist, kx, ky, raw, delta, sigma=None):
    """Block MI, the wring trace and the Pinsker TVs of `dist`, whose edges
    are `raw`, equal the per-edge reference's, float for float. Returns the
    wring result."""
    assert block_mi(dist) == oracles.block_mi(raw)
    got = wring(dist, delta, sigma)
    ref = oracles.wring(raw, kx, ky, delta, sigma)
    assert got.positions == ref["positions"]
    assert got.values == ref["values"]
    assert got.sigma == ref["sigma"]
    assert got.surviving_fraction == ref["fraction"]
    assert got.per_letter_mi == ref["per_letter_mi"]
    assert list(got.survivors.pairs()) == ref["edges"]
    assert [
        (s.position, s.value, s.surviving, s.fraction, s.max_mi_before) for s in got.steps
    ] == ref["steps"]
    assert (got.converged, got.bound_ok) == (ref["converged"], ref["bound_ok"])
    if got.converged:
        tvs = pinsker_check(got.survivors, delta)
        assert list(tvs) == oracles.pinsker_tvs(ref["edges"], kx, ky)
    return got


@PROPERTY
@given(label_multisets(), st.sampled_from([0.005, 0.05, 0.2]), st.sampled_from([None, 0.1]))
def test_diagnostics_match_per_edge_reference(case, delta, sigma):
    kx, ky, raw = case
    _check_diagnostics(kx, ky, raw, delta, sigma)


def test_diagnostics_wide_pair_codes_match_per_edge_reference():
    # 17 x 16 letter pairs do not fit one byte: the columns hold ints
    rng = random.Random(3)
    pool = [
        (tuple(rng.randrange(17) for _ in range(4)), tuple(rng.randrange(16) for _ in range(4)))
        for _ in range(12)
    ]
    raw = [rng.choice(pool) for _ in range(60)]
    _check_diagnostics(17, 16, raw, 0.05)


@st.composite
def distinct_edge_sets(draw, kx, ky):
    """Distinct edges in shuffled order, ranked into shuffled rosters. As in
    `label_multisets`, many edges join x to its letterwise image."""
    n = draw(st.integers(1, 5))
    xpool = draw(st.lists(st.tuples(*[st.integers(0, kx - 1)] * n), min_size=2, max_size=6))
    ypool = draw(st.lists(st.tuples(*[st.integers(0, ky - 1)] * n), min_size=1, max_size=4))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(xpool) - 1), st.integers(-3, len(ypool) - 1)),
            min_size=3,
            max_size=40,
        )
    )
    raw = draw(st.permutations(list(dict.fromkeys(
        (xpool[i], tuple(a % ky for a in xpool[i]) if j < 0 else ypool[j]) for i, j in picks
    ))))
    xrows = draw(st.permutations(sorted({x for x, _ in raw})))
    yrows = draw(st.permutations(sorted({y for _, y in raw})))
    return raw, xrows, yrows


@PROPERTY
@pytest.mark.parametrize("kx, ky", [(2, 2), (16, 16), (17, 16)])
@given(data=st.data(), delta=st.sampled_from([0.005, 0.05, 0.2]))
def test_distinct_edge_sets_match_per_edge_reference(kx, ky, data, delta):
    """With the distinct fact set, block MI skips the pair count and
    conditioning filters byte columns in bulk: binary codes, 256 codes (no
    byte value is free) and 17 x 16 codes (int columns) give the per-edge
    reference's floats, and the survivors stay distinct."""
    raw, xrows, yrows = data.draw(distinct_edge_sets(kx, ky))
    xa, ya = Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky)))
    dist = replace(
        edge_distribution(
            [xrows.index(x) for x, _ in raw], [yrows.index(y) for _, y in raw],
            xrows, yrows, xa, ya,
        ),
        distinct=True,
    )
    assert list(dist.pairs()) == raw
    assert block_mi(dist) == block_mi(replace(dist, distinct=False))
    survivors = _check_wring(dist, kx, ky, raw, delta).survivors
    assert survivors.distinct
    assert block_mi(survivors) == oracles.block_mi(list(survivors.pairs()))


def test_fresh_objects_with_equal_symbols_count_as_one_sequence():
    xa = Alphabet((0, 1))
    raw = [((0, 1), (1, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 1))] * 2
    shared = {s: Sequence(xa, s) for s in itertools.chain.from_iterable(raw)}
    fresh = [(Sequence(xa, x), Sequence(xa, y)) for x, y in raw]
    reused = [(shared[x], shared[y]) for x, y in raw]
    assert (
        block_mi(fano_distribution(fresh))
        == block_mi(fano_distribution(reused))
        == oracles.block_mi(raw)
    )


def _wring_trace(result):
    return (
        result.positions, result.values, result.k, result.sigma,
        result.surviving_fraction, result.per_letter_mi, result.steps,
        result.converged, result.bound_ok, list(result.survivors.pairs()),
        result.survivors.columns,
    )


@PROPERTY
@given(
    label_multisets(),
    st.randoms(use_true_random=False),
    st.integers(0, 3),
    st.sampled_from([0.005, 0.05, 0.2]),
)
def test_rank_ids_match_sequence_pairs(case, rnd, unused, delta):
    """Ranks into shuffled rosters (with rows no edge uses) give the same
    columns, block MI, wring trace and Pinsker TVs, float for float, as the
    Sequence pairs they stand for."""
    kx, ky, raw = case
    n = len(raw[0][0])
    xa, ya = Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky)))
    rosters = []
    for side, k in ((0, kx), (1, ky)):
        rows = set(e[side] for e in raw)
        rows |= {tuple(rnd.randrange(k) for _ in range(n)) for _ in range(unused)}
        rows = sorted(rows)
        rnd.shuffle(rows)
        rosters.append(rows)
    xrows, yrows = rosters
    rank_dist = edge_distribution(
        [xrows.index(x) for x, _ in raw], [yrows.index(y) for _, y in raw],
        xrows, yrows, xa, ya,
    )
    seq_dist = fano_distribution([(Sequence(xa, x), Sequence(ya, y)) for x, y in raw])
    assert list(rank_dist.pairs()) == list(seq_dist.pairs()) == raw
    assert rank_dist.columns == seq_dist.columns
    assert block_mi(rank_dist) == block_mi(seq_dist)
    assert dominant_joint_type(rank_dist) == dominant_joint_type(seq_dist)
    got, want = wring(rank_dist, delta), wring(seq_dist, delta)
    assert _wring_trace(got) == _wring_trace(want)
    if want.converged:
        assert pinsker_check(got.survivors, delta) == pinsker_check(want.survivors, delta)


@st.composite
def id_edge_sets(draw):
    """Edges as (left id, right id) pairs into rosters with rows no edge
    uses, sorted by left id or in drawn order, distinct or with repeats,
    with "B" or "H" id columns; binary, 3 x 2 and 17 x 16 alphabets (the
    last has int columns). Right rows include each left row's letterwise
    image, and many edges join the two, so the wring has work to do."""
    kx, ky = draw(st.sampled_from([(2, 2), (3, 2), (17, 16)]))
    n = draw(st.integers(2, 4))
    xrows = draw(st.lists(st.tuples(*[st.integers(0, kx - 1)] * n), min_size=2, max_size=8,
                          unique=True))
    extra = draw(st.lists(st.tuples(*[st.integers(0, ky - 1)] * n), max_size=3))
    yrows = draw(st.permutations(sorted({tuple(a % ky for a in x) for x in xrows} | set(extra))))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(xrows) - 1), st.integers(-8, len(yrows) - 1)),
        min_size=6, max_size=40,
    ))
    pairs = [(i, yrows.index(tuple(a % ky for a in xrows[i])) if j < 0 else j) for i, j in picks]
    distinct = draw(st.booleans())
    if distinct:
        pairs = list(dict.fromkeys(pairs))
    if draw(st.booleans()):
        pairs.sort(key=lambda e: e[0])
    return kx, ky, xrows, yrows, pairs, distinct, draw(st.sampled_from("BH")), draw(
        st.sampled_from("BH"))


@PROPERTY
@given(id_edge_sets(), st.sampled_from([0.005, 0.05, 0.2]), st.integers(1, 8))
def test_id_columns_give_the_per_edge_results(case, delta, join_slice):
    """Id columns, sorted by left id or not, give each edge's letter-pair
    codes as columns, and the block MI, the whole wring trace and the
    Pinsker TVs of the per-edge reference, float for float; the survivors
    keep the id typecodes. The column build's slices are cut short, so
    that the edges of one left id straddle them."""
    kx, ky, xrows, yrows, pairs, distinct, xcode, ycode = case
    xa, ya = Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky)))
    with mock.patch.object(typigraph.diagnostics, "_JOIN_SLICE", join_slice):
        dist = edge_distribution(
            array(xcode, [i for i, _ in pairs]), array(ycode, [j for _, j in pairs]),
            xrows, yrows, xa, ya,
        )
    dist = replace(dist, distinct=distinct)
    raw = [(xrows[i], yrows[j]) for i, j in pairs]
    column = bytes if kx * ky <= 256 else tuple
    assert dist.columns == tuple(
        column(x[t] * ky + y[t] for x, y in raw) for t in range(len(xrows[0]))
    )
    survivors = _check_wring(dist, kx, ky, raw, delta).survivors
    assert (survivors.xids.typecode, survivors.yids.typecode) == (xcode, ycode)


NON_CANONICAL = ("+1", "01", "1_0", "-0", " 1", "\u0661")  # int reads 1, 1, 10, 0, 1, 1


@st.composite
def edge_csv_texts(draw):
    """A rank CSV's text and its roster sizes: distinct pairs, sorted or not,
    with a few rows made blank, padded, quoted, non-integer, three- or
    one-column, negative, out of range, repeated or spelled in a way `int`
    accepts but the exports never write."""
    nl, nr = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, nl - 1), st.integers(0, nr - 1)), unique=True, max_size=14)
    )
    if draw(st.booleans()):
        pairs.sort()
    rows = [f"{i},{j}" for i, j in pairs]
    edits = {
        "blank": lambda i, j: "",
        "padded": lambda i, j: f" {i} ,{j}  ",
        "quoted": lambda i, j: f'"{i}",{j}',
        "non-integer": lambda i, j: draw(st.sampled_from([f"{i},x", f"{i}.5,{j}", f",{j}", " ,"])),
        "three-column": lambda i, j: f"{i},{j},0",
        "one-column": lambda i, j: f"{i}",
        "negative": lambda i, j: f"{i},-1",
        "out-of-range": lambda i, j: f"{nl},{j}",
        "non-canonical": lambda i, j: draw(
            st.sampled_from(
                [f"{s},{j}" for s in NON_CANONICAL] + [f"{i},{s}" for s in NON_CANONICAL]
            )
        ),
    }
    kinds = sorted(edits) + ["repeated", "repeated-next", "shifted"]
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 99)), max_size=3)):
        k = at % (len(rows) + 1)
        if kind == "repeated" and rows:
            rows.insert(k, rows[at % len(rows)])
        elif kind == "repeated-next" and rows:
            rows.insert(k, rows[k - 1])
        elif kind == "shifted" and len(rows) > k + 1:
            # a cell moves up a row: as many commas as rows, but not one a row
            head, _, rest = rows[k + 1].partition(",")
            rows[k : k + 2] = [f"{rows[k]},{head}", rest]
        elif kind in edits:
            rows.insert(k, edits[kind](at % nl, at % nr))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    head = draw(st.sampled_from(["left_rank,right_rank"] * 5 + ["left_rank,right", ""]))
    tail = eol if draw(st.booleans()) else ""
    return eol.join([head] + rows) + tail, nl, nr


@PROPERTY
@given(edge_csv_texts(), st.integers(1, 40))
def test_bulk_edge_reader_matches_row_reader(case, chunk):
    """Same pairs in the same order, or the same ValueError, whatever the
    chunk size; a readable file whose cells are all spelled as the exports
    spell ranks is read without the row-by-row path."""
    text, nl, nr = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            want = [(i, j) for _, i, j in oracles.read_edge_csv(path, nl, nr)]
        except ValueError as exc:
            want = str(exc)
        with mock.patch.object(typigraph.graph, "_CSV_CHUNK", chunk):
            try:
                got = list(zip(*_read_edge_csv(path, nl, nr)))
            except ValueError as exc:
                got = str(exc)
            bulk = _bulk_edge_columns(path, nl, nr)
    assert got == want
    if bulk is not None:
        assert list(zip(*bulk)) == want
    elif not oracles.non_canonical_ranks(text):
        assert not isinstance(want, list)


# right ranks on both sides of each change in digit count, and the left
# ranks of rows that follow 0, 95 or 995 empty rows
RANKS = st.one_of(st.integers(0, 12), st.sampled_from([98, 99, 100, 101, 998, 999, 1000, 1001]))


@PROPERTY
@given(
    st.sampled_from([0, 95, 995]),
    st.lists(st.lists(RANKS, unique=True, max_size=6).map(sorted), max_size=12),
)
@example(0, [])  # no edges at all
@example(995, [[]])
def test_rank_csv_writer_matches_csv_writer(skip, rows):
    """The joined-string writer writes the bytes of `csv.writer`: empty
    rows, files with no edges and ranks of every width included."""
    rows = [[]] * skip + rows
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        typigraph.graph._write_rank_csv(got, iter(rows), sum(map(len, rows)), 1002)  # past 1001, the top rank
        oracles.write_rank_csv(want, rows)
        with open(got, "rb") as fh, open(want, "rb") as gh:
            assert fh.read() == gh.read()


@st.composite
def pmfs(draw):
    """Pmfs on up to three symbols; zero cells and point masses included."""
    k = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
    return Pmf(Alphabet(tuple(range(k))), tuple(Fraction(w, sum(weights)) for w in weights))


@PROPERTY
@given(
    pmfs(),
    st.integers(1, 8),
    st.builds(Fraction, st.integers(0, 6), st.integers(2, 12)),
    st.integers(0, 2**64 - 1),
    st.integers(1, 8),
)
def test_sampler_stream_matches_per_draw_calls(p, n, delta, seed, draws):
    ref = random.Random(seed)
    want = [oracles.sample_uniform_typical(p.probs, delta, n, ref) for _ in range(draws)]
    hoisted, per_call = random.Random(seed), random.Random(seed)
    if want[0] is None:
        with pytest.raises(ValueError, match="empty"):
            TypicalSampler(p, delta, n)
    else:
        sampler = TypicalSampler(p, delta, n)
        assert [tuple(sampler.draw(hoisted)) for _ in range(draws)] == want
        assert [
            tuple(TypicalSampler(p, delta, n).draw(per_call)) for _ in range(draws)
        ] == want
    assert hoisted.getstate() == per_call.getstate() == ref.getstate()


@PROPERTY
@given(
    joints(),
    slacks,
    slacks,
    slacks,
    st.integers(0, 2**64 - 1),
    st.integers(1, 4),
    st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
)
def test_simulate_matches_the_reference_loop(case, eps1, eps2, lam, seed, trials, bits):
    """simulate reseeds one generator per trial; the reference loop builds a
    fresh one per trial and draws and tests pairs from the definitions. The
    statistics must be equal, floats included."""
    joint, n = case
    probs = joint.probs
    px = [sum(row) for row in probs]
    py = [sum(row[b] for row in probs) for b in range(len(probs[0]))]
    assume(oracles.colex_ball_types(px, eps1, n) and oracles.colex_ball_types(py, eps2, n))
    mc = simulate(joint, TypicalityParams(eps1, eps2, lam), n, bits[0] / n, bits[1] / n, trials, seed)
    m = mc.moments
    assert (m.m1, m.m2) == (1 << bits[0], 1 << bits[1])
    us = oracles.monte_carlo_counts(probs, eps1, eps2, lam, n, m.m1, m.m2, trials, seed)
    mean = sum(us) / trials
    assert mc.zero_count == us.count(0)
    assert mc.mean_u == mean
    assert mc.var_u == (
        (sum(u * u for u in us) - trials * mean * mean) / (trials - 1) if trials > 1 else 0.0
    )
    assert mc.tails == tuple(
        (a, sum(1 for u in us if u <= a * m.gamma) / trials) for a, _ in mc.tails
    )


def test_random_draws_below_a_bound_from_getrandbits():
    """The sampler inlines `Random._randbelow_with_getrandbits`; a Python
    whose `randrange` and `shuffle` draw otherwise breaks the stream here."""
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


FIVE = Alphabet(tuple(range(5)))


@pytest.mark.parametrize(
    "p, n",
    [
        (Pmf(Alphabet((0, 1, 2)), (Fraction(3, 10), Fraction(3, 10), Fraction(2, 5))), 60),
        (Pmf(FIVE, tuple(Fraction(w, 12) for w in (1, 2, 3, 2, 4))), 20),
    ],
    ids=["T3-row-n60", "five-symbols-n20"],
)
def test_sampler_stream_past_32_bits(p, n):
    """randrange(total) then shuffle over the sampler's own table, for
    totals of more than 32 bits: the same symbols and generator state after
    every draw."""
    delta = schedule_delta(n)
    sampler = TypicalSampler(p, delta, n)
    types, cum, total = sampler._types, sampler._cum, sampler._total
    assert total.bit_length() > 32
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(25):
            buf = [s for s, c in enumerate(types[bisect_right(cum, ref.randrange(total))])
                   for _ in range(c)]
            ref.shuffle(buf)
            assert sampler.draw(rng) == buf
            assert rng.getstate() == ref.getstate()
