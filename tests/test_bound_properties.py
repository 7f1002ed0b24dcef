"""Property tests: the large-deviation layer against exact references.

The local-lemma conditions, decided in the log domain with an exact
fallback near equality, must agree with the exact `Fraction` conditions of
`oracles` on random (alpha, M1, M2), also with alpha exactly at the
symmetric threshold, 1e-30 either side of either threshold, and M1 = 1 or
M2 = 1. On random small joints with one row codeword (M1 = 1) the Suen
bound must lie above the exact P(U = 0) and every applicable local-lemma
bound below it. `bracket` must match the assembly that the CLI once did by
hand (`oracles.hand_bracket`), field for field.
"""

import itertools
from fractions import Fraction
from functools import cache

from hypothesis import assume, given, settings, strategies as st

import oracles
from typigraph import deviation
from typigraph.core import Alphabet, JointPmf, mutual_information, replace
from typigraph.deviation import (
    MomentEstimates,
    bracket,
    exact_pair_moments,
    exact_zero_probability,
    lll_lower_bounds,
)
from typigraph.typicality import TypicalityParams, default_params

PROPERTY = settings.get_profile("typigraph")

TINY = Fraction(1, 10**30)
BIT = Alphabet((0, 1))
B2 = JointPmf(BIT, BIT, ((Fraction(2, 5), Fraction(1, 10)), (Fraction(1, 10), Fraction(2, 5))))


def moments_for(alpha, m1, m2):
    return MomentEstimates(
        m1=m1,
        m2=m2,
        n=8,
        alpha_exact=alpha,
        left_second_exact=alpha * alpha,
        right_second_exact=alpha * alpha,
        gamma=float(m1 * m2 * alpha),
        theta_cap=0.0,
        theta_small=float((m1 + m2 - 2) * alpha),
    )


def symmetric_threshold(m1, m2):
    x = Fraction(1, m1)
    return x * (1 - x) ** (m1 + m2 - 2)


def phi_threshold(m1, m2):
    """A rational within 1e-84 of 1/(e (M1+M2-1))."""
    return 1 / (oracles.E_LOW * (m1 + m2 - 1))


sizes = st.one_of(st.just(1), st.integers(1, 8), st.integers(1, 400))


@st.composite
def decision_cases(draw):
    m1, m2 = draw(sizes), draw(sizes)
    kind = draw(st.sampled_from(["random", "symmetric", "phi"]))
    if kind == "random":
        num = draw(st.integers(0, 10**40))
        alpha = Fraction(num, num + draw(st.integers(1, 10**40)))
    elif kind == "symmetric":
        alpha = symmetric_threshold(m1, m2) * (1 + draw(st.sampled_from([-1, 0, 1])) * TINY)
    else:
        alpha = phi_threshold(m1, m2) * (1 + draw(st.sampled_from([-1, 1])) * TINY)
    return alpha, m1, m2


@PROPERTY
@given(decision_cases())
def test_lll_conditions_match_exact_fractions(case):
    alpha, m1, m2 = case
    b = lll_lower_bounds(moments_for(alpha, m1, m2), m1, m2, 8)
    assert b.symmetric_condition_ok == oracles.lll_symmetric_condition(alpha, m1, m2)
    assert b.phi_condition_ok == oracles.lll_phi_condition(alpha, m1, m2)
    assert (b.symmetric is not None) == b.symmetric_condition_ok
    assert (b.phi is not None) == b.phi_condition_ok


slacks = st.builds(Fraction, st.integers(1, 6), st.integers(2, 12))


@st.composite
def joints(draw):
    kx = draw(st.integers(1, 3))
    ky = draw(st.integers(1, 3))
    weights = draw(
        st.lists(st.integers(0, 4), min_size=kx * ky, max_size=kx * ky).filter(any)
    )
    total = sum(weights)
    probs = tuple(
        tuple(Fraction(weights[a * ky + b], total) for b in range(ky)) for a in range(kx)
    )
    return JointPmf(Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky))), probs)


@PROPERTY
@given(joints(), st.integers(1, 10), st.integers(0, 5), slacks, slacks, slacks)
def test_bounds_bracket_exact_zero_probability(joint, n, log2_m2, eps1, eps2, lam):
    params = TypicalityParams(eps1=eps1, eps2=eps2, lam=lam)
    try:
        m = exact_pair_moments(joint, params, n, 0.0, log2_m2 / n)
    except ValueError:  # an empty typical set: the crossing law is undefined
        assume(False)
    assert (m.m1, m.m2) == (1, 2**log2_m2)
    exact = exact_zero_probability(joint, params, n, m.m2)
    assert 0 <= exact <= 1
    _, report = bracket(m, 0.0, log2_m2 / n, mutual_information(joint))
    assert report.contains(float(exact), float(exact))


@cache
def b2_moments(n):
    """The binary joint at rates 1/4, M1 = M2 = 2^(n/4); at n = 96 and 192
    both Suen bounds underflow to 0.0."""
    return exact_pair_moments(B2, default_params(n), n, 0.25, 0.25)


@st.composite
def small_joint_moments(draw):
    joint = draw(joints())
    n = draw(st.integers(1, 8))
    params = TypicalityParams(eps1=draw(slacks), eps2=draw(slacks), lam=draw(slacks))
    r1, r2 = (draw(st.integers(0, 3)) / n for _ in range(2))
    try:
        m = exact_pair_moments(joint, params, n, r1, r2)
    except ValueError:  # an empty typical set: the crossing law is undefined
        assume(False)
    return m, r1, r2, mutual_information(joint)


@st.composite
def synthetic_moments(draw):
    """Moments of any sizes: small alpha lets a local-lemma variant apply,
    large M1 M2 alpha makes the Suen bounds underflow."""
    m1, m2 = draw(sizes), draw(sizes)
    num = draw(st.integers(0, 10**6))
    alpha = Fraction(num, num + draw(st.integers(1, 10**12)))
    m = replace(moments_for(alpha, m1, m2), theta_cap=draw(st.floats(0.0, 1e6)))
    r1, r2, i_xy = (draw(st.floats(0.0, 1.0)) for _ in range(3))
    return m, r1, r2, i_xy


bracket_cases = st.one_of(
    small_joint_moments(),
    synthetic_moments(),
    st.sampled_from([96, 192]).map(lambda n: (b2_moments(n), 0.25, 0.25, mutual_information(B2))),
)


@PROPERTY
@given(bracket_cases, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_bracket_matches_the_hand_assembly(case, low, high):
    """`bracket` against the assembly `typigraph simulate` did by hand: the
    same bounds and report, the same floor, suen_zero as the ceiling to the
    bit, and the same verdict on intervals at and around both ends."""
    m, r1, r2, i_xy = case
    lll, report = bracket(m, r1, r2, i_xy)
    want_lll, want_report, want = oracles.hand_bracket(deviation, m, r1, r2, i_xy)
    assert lll == want_lll
    assert report == want_report
    assert {name: getattr(report, name) for name in want} == want
    ends = [low, high]
    for edge in (report.floor, report.ceiling):
        ends += [edge - 2e-12, edge - 1e-12, edge, edge + 1e-12, edge + 2e-12]
    for lo, hi in itertools.product(ends, repeat=2):
        inside = oracles.hand_inside(lo, hi, want["floor"], want["ceiling"])
        assert report.contains(lo, hi) == inside
