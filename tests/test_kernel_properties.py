"""Property tests: the joint-type kernel against sequence-level brute force
and against the former kernel.

Random rational joints with up to three symbols a side (zero cells
included), blocklengths up to 8 with at most 6*10^4 sequence pairs, and
random slacks. The pair count, degrees of arbitrary (also non-typical)
sequences on both sides, both degree second moments and conditional
typical-set sizes must equal what `oracles` counts pair by pair. Both
sides' degree tables, on joints up to 5x5, must equal those of
`oracles.degree_table`, the former dict-of-final-sums kernel. On binary
joints up to n=40, the two-cell last row's close from binomial prefix rows
must equal the box sum it replaces, and the stepped weights of two-cell
row compositions must equal their multinomials. On joints with a planted
symmetry (averaged over the transpose or over a random pair of letter
permutations) and on random ones, the orbit table must equal the former
kernel's, the table counted type by type, and a separately built right
table, and the row permutations found must be exactly those that keep the
kernel's boxes.
"""

import itertools
import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from typigraph.core import Alphabet, JointPmf, conditionalize
from typigraph.deviation import exact_pair_moments
from typigraph.graph import GraphSpec, build_graph
from typigraph.typicality import (
    Sequence,
    _binomials,
    _box_multinomial_sum,
    _compositions_in_boxes,
    _DegreeKernel,
    TypicalityParams,
    cond_typical_set_size,
    default_params,
    degree_table,
    jointly_typical_pair_count,
    multinomial,
)

MAX_PAIRS = 60_000

PROPERTY = settings.get_profile("typigraph")

slacks = st.builds(Fraction, st.integers(1, 6), st.integers(2, 12))


@st.composite
def joints(draw):
    kx = draw(st.integers(1, 3))
    ky = draw(st.integers(1, 3))
    n = draw(st.integers(1, max(n for n in range(1, 9) if (kx * ky) ** n <= MAX_PAIRS)))
    weights = draw(
        st.lists(st.integers(0, 4), min_size=kx * ky, max_size=kx * ky).filter(any)
    )
    total = sum(weights)
    probs = tuple(
        tuple(Fraction(weights[a * ky + b], total) for b in range(ky)) for a in range(kx)
    )
    joint = JointPmf(Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky))), probs)
    x = tuple(draw(st.lists(st.integers(0, kx - 1), min_size=n, max_size=n)))
    y = tuple(draw(st.lists(st.integers(0, ky - 1), min_size=n, max_size=n)))
    return joint, n, x, y


@PROPERTY
@given(joints(), slacks, slacks, slacks)
def test_pair_count_degrees_and_moments_match_brute_force(case, eps1, eps2, lam):
    joint, n, x, y = case
    probs = joint.probs
    kx, ky = len(probs), len(probs[0])
    px = [sum(row) for row in probs]
    py = [sum(row[b] for row in probs) for b in range(ky)]
    left = [s for s in oracles.all_sequences(kx, n) if oracles.robust_typical(s, px, eps1)]
    right = [s for s in oracles.all_sequences(ky, n) if oracles.robust_typical(s, py, eps2)]
    left_deg = [0] * len(left)
    right_deg = [0] * len(right)
    for i, xs in enumerate(left):
        for j, ys in enumerate(right):
            if oracles.jointly_typical(xs, ys, probs, lam):
                left_deg[i] += 1
                right_deg[j] += 1
    params = TypicalityParams(eps1=eps1, eps2=eps2, lam=lam)

    assert jointly_typical_pair_count(joint, params, n).value == sum(left_deg)

    g = build_graph(GraphSpec(joint, n, params, mode="implicit"))
    flipped = tuple(zip(*probs))
    assert g.degree_of(Sequence(joint.row_alphabet, x), "left").value == (
        oracles.brute_degree(x, probs, eps2, lam)
    )
    assert g.degree_of(Sequence(joint.col_alphabet, y), "right").value == (
        oracles.brute_degree(y, flipped, eps1, lam)
    )

    if not left or not right:
        with pytest.raises(ValueError):
            exact_pair_moments(joint, params, n, 0.0, 0.0)
        return
    m = exact_pair_moments(joint, params, n, 0.0, 0.0)
    t1, t2 = len(left), len(right)
    assert m.alpha_exact == Fraction(sum(left_deg), t1 * t2)
    assert m.left_second_exact == Fraction(sum(d * d for d in left_deg), t1 * t2 * t2)
    assert m.right_second_exact == Fraction(sum(d * d for d in right_deg), t2 * t1 * t1)


@PROPERTY
@given(joints(), st.builds(Fraction, st.integers(0, 6), st.integers(1, 12)))
def test_cond_typical_set_size_matches_brute_force(case, delta):
    joint, n, x, _ = case
    w = conditionalize(joint, "row")
    w_rows = [None if r is None else list(r.probs) for r in w.rows]
    seq = Sequence(joint.row_alphabet, x)
    if any(w_rows[a] is None for a in x):
        with pytest.raises(ValueError):
            cond_typical_set_size(w, seq, delta)
        return
    want = oracles.brute_cond_typical_count(w_rows, x, delta, joint.col_alphabet.size)
    assert cond_typical_set_size(w, seq, delta).value == want


def _both_sides_match_oracle(joint, params, n):
    probs = joint.probs
    flipped = tuple(zip(*probs))
    for side, oriented, row_eps, col_eps in (
        ("left", probs, params.eps1, params.eps2),
        ("right", flipped, params.eps2, params.eps1),
    ):
        want = oracles.degree_table(oriented, row_eps, col_eps, params.lam, n)
        assert degree_table(joint, params, n, side) == want


# the largest n per cell count that keeps the former kernel fast
MAX_N_BY_CELLS = ((4, 12), (9, 8), (16, 6), (25, 5))


@st.composite
def wide_joints(draw):
    kx = draw(st.integers(1, 5))
    ky = draw(st.integers(1, 5))
    n_max = next(n for cells, n in MAX_N_BY_CELLS if kx * ky <= cells)
    n = draw(st.integers(1, n_max))
    weights = draw(
        st.lists(st.integers(0, 4), min_size=kx * ky, max_size=kx * ky).filter(any)
    )
    total = sum(weights)
    probs = tuple(
        tuple(Fraction(weights[a * ky + b], total) for b in range(ky)) for a in range(kx)
    )
    return JointPmf(Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky))), probs), n


@PROPERTY
@given(wide_joints(), slacks, slacks, slacks)
def test_degree_tables_match_former_kernel(case, eps1, eps2, lam):
    joint, n = case
    _both_sides_match_oracle(joint, TypicalityParams(eps1=eps1, eps2=eps2, lam=lam), n)


@pytest.mark.parametrize("k, n", [(3, 12), (4, 8), (5, 6)])
def test_diagonal_degree_tables_match_former_kernel(diagonal_joint, k, n):
    _both_sides_match_oracle(diagonal_joint(k), default_params(n), n)


def _closes_every_partial_sum(kernel) -> set:
    """Check `_close` against `_box_multinomial_sum` on every partial-sum
    vector the column boxes admit, met by the kernel or not, and return the
    kinds of first-cell window [a, b] seen: touching 0, touching the last
    row's count r, or empty."""
    kinds = set()
    his = [hi for _, hi in kernel._cols]
    for v0 in range(his[0] + 1):
        for v1 in range(min(his[1], kernel.n - v0) + 1):
            s = kernel._pack([v + off for v, off in zip((v0, v1), kernel._offsets)])
            boxes, r = kernel._last_boxes(s)
            assert kernel._close(s) == _box_multinomial_sum(boxes, r)
            (lo, hi), (lo1, hi1) = boxes
            a, b = max(lo, r - hi1), min(hi, r - lo1)
            if a > b:
                kinds.add("empty")
            if a == 0 <= b:
                kinds.add("0")
            if a <= b == r:
                kinds.add("r")
    return kinds


@st.composite
def binary_joints(draw):
    weights = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any))
    probs = tuple(
        tuple(Fraction(weights[2 * a + b], sum(weights)) for b in range(2)) for a in range(2)
    )
    return JointPmf(Alphabet((0, 1)), Alphabet((0, 1)), probs), draw(st.integers(1, 40))


@PROPERTY
@given(binary_joints(), slacks, slacks, slacks, st.sampled_from(("left", "right")))
def test_two_cell_close_matches_the_box_sum(case, eps1, eps2, lam, side):
    joint, n = case
    kernel = _DegreeKernel.of_side(joint, TypicalityParams(eps1=eps1, eps2=eps2, lam=lam), n, side)
    table = kernel.table()
    for s, closed in kernel._last.items():
        assert closed == _box_multinomial_sum(*kernel._last_boxes(s))
    # one prefix row per last-row count met, each at most box width + 2 long
    lo, hi = kernel._cells[-1][0]
    assert len(kernel._binomial_rows) <= len({counts[-1] for counts in table})
    assert all(len(row) <= hi - lo + 2 for row in kernel._binomial_rows.values())
    _closes_every_partial_sum(kernel)


def test_two_cell_close_meets_every_kind_of_window(binary_joint):
    kinds = set()
    for lam in (default_params(12).lam, Fraction(1, 2)):
        params = TypicalityParams(eps1=lam, eps2=lam, lam=lam)
        for side in ("left", "right"):
            kinds |= _closes_every_partial_sum(_DegreeKernel.of_side(binary_joint, params, 12, side))
    assert kinds == {"0", "r", "empty"}


@PROPERTY
@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)).map(sorted), min_size=2, max_size=2),
    st.integers(0, 60),
)
def test_stepped_binomials_are_the_multinomials_of_two_cell_boxes(boxes, total):
    """Two-cell compositions come with the first cell consecutive and
    increasing, so stepping C(total, c) from their first c gives each
    composition's multinomial."""
    comps = list(_compositions_in_boxes(boxes, total))
    if comps:
        got = list(_binomials(total, comps[0][0], comps[-1][0]))
        assert got == [multinomial(total, c) for c in comps]


@PROPERTY
@given(binary_joints(), slacks, slacks, slacks, st.sampled_from(("left", "right")))
def test_kernel_rows_weigh_each_composition_by_its_multinomial(case, eps1, eps2, lam, side):
    joint, n = case
    kernel = _DegreeKernel.of_side(joint, TypicalityParams(eps1=eps1, eps2=eps2, lam=lam), n, side)
    for a, cells in enumerate(kernel._cells):
        for count in range(n + 1):
            assert kernel._row(a, count) == [
                (kernel._pack(c), multinomial(count, c))
                for c in _compositions_in_boxes(cells, count)
            ]


def _cycle(perm) -> list:
    """The powers of a permutation, from the identity up to its order."""
    powers = [tuple(range(len(perm)))]
    while True:
        nxt = tuple(perm[a] for a in powers[-1])
        if nxt == powers[0]:
            return powers
        powers.append(nxt)


@st.composite
def planted_joints(draw):
    """(joint, planted row permutation or None, planted column permutation
    or None, whether the joint is its own transpose), n <= 8."""
    kind = draw(st.sampled_from(("transpose", "letters", "none")))
    kx = draw(st.integers(1, 4))
    ky = kx if kind == "transpose" else draw(st.integers(1, 4))
    n = draw(st.integers(1, min(8, next(n for cells, n in MAX_N_BY_CELLS if kx * ky <= cells))))
    w = draw(st.lists(st.integers(0, 4), min_size=kx * ky, max_size=kx * ky).filter(any))
    w = [w[a * ky : (a + 1) * ky] for a in range(kx)]
    pi = sigma = None
    if kind == "transpose":
        w = [[w[a][b] + w[b][a] for b in range(ky)] for a in range(kx)]
    elif kind == "letters":
        pi = draw(st.permutations(range(kx)))
        sigma = draw(st.permutations(range(ky)))
        rows, cols = _cycle(pi), _cycle(sigma)
        order = len(rows) * len(cols) // math.gcd(len(rows), len(cols))
        w = [
            [sum(w[rows[j % len(rows)][a]][cols[j % len(cols)][b]] for j in range(order))
             for b in range(ky)]
            for a in range(kx)
        ]
    total = sum(map(sum, w))
    probs = tuple(tuple(Fraction(v, total) for v in row) for row in w)
    joint = JointPmf(Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky))), probs)
    return joint, n, pi, sigma, kind == "transpose"


def _keeps_the_boxes(kernel, p) -> bool:
    """Whether some column permutation q has boxes[p[a]] = boxes[a],
    cells[p[a]][q[b]] = cells[a][b] and cols[q[b]] = cols[b]."""
    boxes, cells, cols = kernel.boxes, kernel._cells, kernel._cols
    return all(boxes[p[a]] == boxes[a] for a in range(len(p))) and any(
        all(cols[q[b]] == cols[b] for b in range(len(q)))
        and all(cells[p[a]][q[b]] == cells[a][b] for a in range(len(p)) for b in range(len(q)))
        for q in itertools.permutations(range(len(cols)))
    )


def _closure(generators, k) -> set:
    group, walk = {tuple(range(k))}, [tuple(range(k))]
    while walk:
        g = walk.pop()
        for p in generators:
            h = tuple(g[a] for a in p)
            if h not in group:
                group.add(h)
                walk.append(h)
    return group


@PROPERTY
@given(planted_joints(), slacks, st.one_of(st.none(), slacks), slacks)
def test_orbit_tables_match_the_type_by_type_tables(case, eps1, eps2, lam):
    joint, n, pi, sigma, transposed = case
    params = TypicalityParams(eps1=eps1, eps2=eps1 if eps2 is None else eps2, lam=lam)
    probs = joint.probs
    kernels = {}
    for side, oriented, row_eps, col_eps, planted in (
        ("left", probs, params.eps1, params.eps2, pi),
        ("right", tuple(zip(*probs)), params.eps2, params.eps1, sigma),
    ):
        kernel = kernels[side] = _DegreeKernel.of_side(joint, params, n, side)
        table = kernel.table()
        assert table == oracles.degree_table(oriented, row_eps, col_eps, params.lam, n)
        plain = _DegreeKernel.of_side(joint, params, n, side)
        plain._symmetries = []  # every type counted apart
        assert list(plain.table().items()) == list(table.items())
        k = len(kernel.boxes)
        group = _closure(kernel._symmetries, k)
        assert group == set(filter(partial(_keeps_the_boxes, kernel), itertools.permutations(range(k))))
        assert all(tuple(g[a] for a in h) in group for g in group for h in group)
        assert all(tuple(sorted(range(k), key=g.__getitem__)) in group for g in group)
        if planted is not None:
            assert tuple(planted) in group
    shared = _DegreeKernel.of_side(joint, params, n, "right", [kernels["left"]])
    if transposed and params.eps1 == params.eps2:
        assert shared is kernels["left"]
    assert shared.table() == kernels["right"].table()
