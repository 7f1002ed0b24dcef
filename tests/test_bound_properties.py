"""Property tests: the large-deviation layer against exact references.

The local-lemma conditions, decided in the log domain with an exact
fallback near equality, must agree with the exact `Fraction` conditions of
`oracles` on random (alpha, M1, M2), also with alpha exactly at the
symmetric threshold, 1e-30 either side of either threshold, and M1 = 1 or
M2 = 1. On random small joints with one row codeword (M1 = 1) the Suen
bound must lie above the exact P(U = 0) and every applicable local-lemma
bound below it.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import oracles
from typigraph.core import Alphabet, JointPmf
from typigraph.deviation import (
    MomentEstimates,
    exact_pair_moments,
    exact_zero_probability,
    lll_lower_bounds,
    suen_zero_bound,
)
from typigraph.typicality import TypicalityParams

PROPERTY = settings.get_profile("typigraph")

TINY = Fraction(1, 10**30)


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
    assert suen_zero_bound(m.gamma, m.theta_cap, m.theta_small) >= float(exact) - 1e-12
    lll = lll_lower_bounds(m, m.m1, m.m2, n)
    for lower in (lll.symmetric, lll.phi):
        if lower is not None:
            assert lower <= float(exact) + 1e-12
