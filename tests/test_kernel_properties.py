"""Property tests: the joint-type kernel against sequence-level brute force
and against the former kernel.

Random rational joints with up to three symbols a side (zero cells
included), blocklengths up to 8 with at most 6*10^4 sequence pairs, and
random slacks. The pair count, degrees of arbitrary (also non-typical)
sequences on both sides, both degree second moments and conditional
typical-set sizes must equal what `oracles` counts pair by pair. Both
sides' degree tables, on joints up to 5x5, must equal those of
`oracles.degree_table`, the former dict-of-final-sums kernel.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from typigraph.core import Alphabet, JointPmf, conditionalize
from typigraph.deviation import exact_pair_moments
from typigraph.graph import GraphSpec, build_graph
from typigraph.typicality import (
    Sequence,
    TypicalityParams,
    cond_typical_set_size,
    default_params,
    degree_table,
    jointly_typical_pair_count,
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
