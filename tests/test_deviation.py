import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from typigraph import deviation, typicality
from typigraph.core import (
    DEFAULT_CAP,
    Alphabet,
    CapExceeded,
    InvariantViolation,
    JointPmf,
    mutual_information,
)
from typigraph.deviation import (
    MomentEstimates,
    bracket,
    codebook_size,
    deviation_exponent_target,
    exact_pair_moments,
    exact_zero_probability,
    exponent_report,
    lll_lower_bounds,
    phi_root,
    simulate,
    simulation_sizes,
    suen_tail_bound,
    suen_tail_log,
    suen_zero_bound,
    suen_zero_log,
    wilson_interval,
)
from typigraph.typicality import (
    JointTypeIndex,
    Sequence,
    TypicalSampler,
    default_params,
    is_jointly_typical,
    is_typical,
)

BIN = Alphabet((0, 1))


# --- exact moments vs brute force ---------------------------------------------


def brute_alpha(joint, params, n):
    """E[jointly typical] for independent uniform typical x, y; exact."""
    px = [sum(row) for row in joint.probs]
    py = [sum(row[b] for row in joint.probs) for b in range(2)]
    left = [
        s
        for s in itertools.product(range(2), repeat=n)
        if oracles.robust_typical(s, px, params.eps1)
    ]
    right = [
        s
        for s in itertools.product(range(2), repeat=n)
        if oracles.robust_typical(s, py, params.eps2)
    ]
    hits = sum(
        1
        for x in left
        for y in right
        if oracles.jointly_typical(x, y, joint.probs, params.lam)
    )
    return Fraction(hits, len(left) * len(right))


def test_exact_alpha_matches_brute(binary_joint):
    for n in (4, 5, 6):
        params = default_params(n)
        assert exact_pair_moments(binary_joint, params, n, 0, 0).alpha_exact == (
            brute_alpha(binary_joint, params, n)
        )


def test_second_moments_match_brute(binary_joint):
    n = 5
    params = default_params(n)
    px = [sum(row) for row in binary_joint.probs]
    py = [sum(row[b] for row in binary_joint.probs) for b in range(2)]
    left = [
        s
        for s in itertools.product(range(2), repeat=n)
        if oracles.robust_typical(s, px, params.eps1)
    ]
    right = [
        s
        for s in itertools.product(range(2), repeat=n)
        if oracles.robust_typical(s, py, params.eps2)
    ]
    t1, t2 = len(left), len(right)
    # E[(deg(x)/T2)^2] over uniform x: shared-row second moment
    acc = Fraction(0)
    for x in left:
        deg = sum(
            1 for y in right if oracles.jointly_typical(x, y, binary_joint.probs, params.lam)
        )
        acc += Fraction(deg, t2) ** 2
    want_left = acc / t1
    m = exact_pair_moments(binary_joint, params, n, 0.2, 0.2)
    assert m.left_second_exact == want_left
    assert m.alpha_exact == brute_alpha(binary_joint, params, n)
    # symmetric example: both sides agree
    assert m.right_second_exact == m.left_second_exact


@pytest.mark.parametrize(
    "rate, message",
    [(140, r"gamma = 2\^2238\.2 is out of float range"),
     (60, r"theta_cap = 2\^1436\.8 is out of float range")],
    ids=["gamma", "theta_cap"],
)
def test_moments_out_of_float_range_name_quantity(binary_joint, rate, message):
    """M = 2^1120 (gamma) or 2^480 (theta_cap only): a ValueError that names
    the quantity and its log2, not a bare OverflowError."""
    with pytest.raises(ValueError, match=message):
        exact_pair_moments(binary_joint, default_params(8), 8, rate, rate)


def test_moment_dataclass_consistency(binary_joint):
    n = 8
    params = default_params(n)
    m = exact_pair_moments(binary_joint, params, n, 0.25, 0.25)
    assert m.m1 == m.m2 == 4
    assert m.gamma == pytest.approx(16 * float(m.alpha_exact))
    assert m.theta_small == pytest.approx(6 * float(m.alpha_exact))
    # second moments dominate alpha^2 (positive correlation through sharing)
    assert m.left_second_exact >= m.alpha_exact**2


# --- codebook size ---------------------------------------------------------------


def test_codebook_size():
    assert codebook_size(12, 2 / 12) == 4
    assert codebook_size(10, 0.0) == 1
    assert codebook_size(4, 0.25) == 2
    assert codebook_size(12, 3 / 12) == 8
    # float noise right at an integer boundary must not bump the size
    assert codebook_size(4, 0.5000000000000001) == 4
    with pytest.raises(ValueError):
        codebook_size(8, -0.1)


def test_codebook_size_beyond_float_range():
    # integer n*r: the exact power of two, where 2.0 ** 1100 overflows
    assert codebook_size(4400, 0.25) == 1 << 1100
    assert codebook_size(3, 1100 / 3) == 1 << 1100
    # otherwise a size out of float range is refused, naming n*r
    with pytest.raises(ValueError, match="1100.5"):
        codebook_size(4, 1100.5 / 4)
    with pytest.raises(ValueError, match="codebook bits"):
        codebook_size(1, float(1 << 21))


# --- Suen bounds -----------------------------------------------------------------


def test_suen_zero_frozen():
    assert suen_zero_bound(4.0, 1.0, 1 / 3) == pytest.approx(math.exp(-2), abs=1e-12)


def test_suen_zero_degenerate_branches():
    assert suen_zero_bound(0.0, 1.0, 1.0) == 1.0  # no pairs, U = 0 surely
    # theta branches drop when their denominators vanish
    assert suen_zero_bound(4.0, 0.0, 0.0) == pytest.approx(math.exp(-2.0))
    assert suen_zero_bound(4.0, 1.0, 0.0) == pytest.approx(math.exp(-2.0))
    assert suen_zero_bound(4.0, 0.0, 1 / 3) == pytest.approx(math.exp(-2.0))


def test_suen_logs_are_the_bounds_exponents():
    for gamma, theta_cap, theta_small in (
        (4.0, 1.0, 1 / 3), (0.0, 1.0, 1.0), (4.0, 0.0, 0.0), (0.3, 0.01, 0.02)
    ):
        zero = suen_zero_log(gamma, theta_cap, theta_small)
        assert suen_zero_bound(gamma, theta_cap, theta_small) == math.exp(-zero)
        for a in (0.0, 0.5, 0.9):
            tail = suen_tail_log(gamma, theta_cap, theta_small, a)
            assert suen_tail_bound(gamma, theta_cap, theta_small, a) == math.exp(-tail)
    # where the bound underflows its log stays finite
    assert suen_zero_bound(6000.0, 1.0, 1.0) == 0.0
    assert suen_zero_log(6000.0, 1.0, 1.0) == pytest.approx(1000.0)
    with pytest.raises(ValueError):
        suen_zero_log(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        suen_tail_log(1.0, 0.0, 0.0, 1.0)


def test_suen_logs_where_gamma_squared_leaves_float_range():
    """gamma**2 overflows past about 1.3e154, but gamma^2/(8 Theta) need
    not: the branch is then taken as gamma * (gamma / (8 Theta))."""
    gamma, theta_cap = 1e200, 1e300
    with pytest.raises(OverflowError):
        gamma**2
    assert suen_zero_log(gamma, theta_cap, 0.0) == pytest.approx(1.25e99, rel=1e-12)
    assert suen_tail_log(gamma, theta_cap, 0.0, 0.5) == pytest.approx(3.125e98, rel=1e-12)
    # a branch past float range itself leaves the others to decide
    assert suen_zero_log(1e300, 1.0, 0.0) == 5e299
    assert suen_tail_log(1e300, 1.0, 1e200, 0.0) == pytest.approx(1e100 / 6)


def test_suen_tail_monotone_in_a():
    prev = 0.0
    for a in (0.0, 0.2, 0.4, 0.6, 0.8):
        b = suen_tail_bound(4.0, 1.0, 1 / 3, a)
        assert b >= prev - 1e-15
        prev = b
    with pytest.raises(ValueError):
        suen_tail_bound(4.0, 1.0, 1 / 3, 1.0)
    with pytest.raises(ValueError):
        suen_tail_bound(4.0, 1.0, 1 / 3, -0.1)


# --- phi root --------------------------------------------------------------------


def test_phi_root_endpoints_and_grid():
    assert phi_root(0.0) == 1.0
    assert abs(phi_root(1 / math.e) - math.e) <= 1e-9
    for i in range(100):
        x = (i / 99) * (1 / math.e)
        phi = phi_root(x)
        assert abs(phi - math.exp(x * phi)) <= 1e-12
    with pytest.raises(ValueError):
        phi_root(-0.1)
    with pytest.raises(ValueError):
        phi_root(0.4)


def test_phi_root_monotone():
    xs = [i / 99 * (1 / math.e) for i in range(100)]
    vals = [phi_root(x) for x in xs]
    assert vals == sorted(vals)
    assert vals[0] == 1.0 and vals[-1] == pytest.approx(math.e)


# --- local-lemma bounds ------------------------------------------------------------


def fake_moments(alpha, m1, m2):
    a = Fraction(alpha)
    return MomentEstimates(
        m1=m1,
        m2=m2,
        n=8,
        alpha_exact=a,
        left_second_exact=a * a,
        right_second_exact=a * a,
        gamma=float(m1 * m2 * a),
        theta_cap=0.0,
        theta_small=float((m1 + m2 - 2) * a),
    )


def test_lll_symmetric_hand_case():
    # m1 = m2 = 2, alpha = 1/100 <= x(1-x)^2 = 1/8: bound (1-1/2)^4 = 1/16
    m = fake_moments(Fraction(1, 100), 2, 2)
    b = lll_lower_bounds(m, 2, 2, 8)
    assert b.symmetric_condition_ok
    assert b.symmetric == pytest.approx(1 / 16, rel=1e-12)
    assert b.symmetric_asymptotic_form == pytest.approx(math.exp(-3))
    assert b.phi_condition_ok  # theta + tau = 3/100 <= 1/e
    load = 3 / 100
    assert b.phi == pytest.approx(math.exp(-4 / 100 * phi_root(load)), rel=1e-9)


def test_lll_conditions_fail_when_alpha_large():
    m = fake_moments(Fraction(1, 3), 4, 4)
    b = lll_lower_bounds(m, 4, 4, 8)
    assert not b.symmetric_condition_ok  # 1/3 > (1/4)(3/4)^6
    assert b.symmetric is None
    assert not b.phi_condition_ok  # 7/3 > 1/e
    assert b.phi is None


def test_lll_below_suen_when_both_apply():
    # with both families applicable the bracket must be consistent
    m = fake_moments(Fraction(1, 1000), 2, 2)
    b = lll_lower_bounds(m, 2, 2, 8)
    upper = suen_zero_bound(m.gamma, m.theta_cap, m.theta_small)
    for lower in (b.symmetric, b.phi):
        assert lower is not None
        assert lower <= upper + 1e-12


# --- exponents ---------------------------------------------------------------------


def test_deviation_exponent_target():
    assert deviation_exponent_target(0.5, 0.2, 0.3) == pytest.approx(0.2)
    assert deviation_exponent_target(0.1, 0.2, 0.3) == pytest.approx(0.0)


def test_exponent_report_flags_and_consistency():
    bounds = {
        "suen_zero": 0.5,
        "suen_tail": 1.0,
        "lll_symmetric": 0.1,
        "lll_phi": None,
    }
    rep = exponent_report(bounds, 8, 0.2, 0.2, 0.278)
    assert rep.consistency_ok
    assert "suen_zero" in rep.exponents
    assert rep.flagged["suen_tail"] == "vacuous bound (>= 1)"
    assert rep.flagged["lll_phi"] == "inapplicable"
    assert rep.target == pytest.approx(min(0.2, 0.2 + 0.2 - 0.278))
    assert not rep.regime_r1_above_mi
    assert rep.tightness_regime

    bad = exponent_report({"lll_symmetric": 0.9, "suen_zero": 0.5}, 8, 0.2, 0.2, 0.1)
    assert bad.consistency_ok is False


@pytest.mark.parametrize(
    "r1, r2, i_xy",
    [(0.278, 0.1, 0.278), (0.7, 0.2, 0.7), (1 / 6, 1 / 4, 0.278), (0.5, 0.25, 0.278)],
)
def test_report_target_is_the_one_target(r1, r2, i_xy):
    """The report's target is `deviation_exponent_target`, to the bit; at
    r1 == I(X;Y) it is r2 itself, where r1 + r2 - I rounds below it."""
    rep = exponent_report({"suen_zero": 0.5}, 8, r1, r2, i_xy)
    assert rep.target == deviation_exponent_target(r1, r2, i_xy)
    if r1 == i_xy:
        assert rep.target == r2
    none_case = exponent_report({"suen_zero": 0.5}, 8, 0.2, 0.2, 0.1)
    assert none_case.consistency_ok is None


def test_exponent_value():
    rep = exponent_report({"suen_zero": math.exp(-256 * math.log(2))}, 8, 0.4, 0.4, 0.1)
    # log2 log2 (1/bound) / n = log2(256)/8 = 1
    assert rep.exponents["suen_zero"] == pytest.approx(1.0, rel=1e-9)


def test_exponent_from_neg_log_where_the_bound_underflows():
    neg_log = 4096 * math.log(2)  # bound 2^-4096, below the float range
    bounds = {"suen_zero": 0.0, "suen_tail": 0.0}
    rep = exponent_report(bounds, 8, 0.4, 0.4, 0.1, {"suen_zero": neg_log})
    assert rep.exponents["suen_zero"] == pytest.approx(12 / 8, rel=1e-12)
    assert "suen_zero" not in rep.flagged
    # a bound without a log keeps the flag
    assert rep.flagged["suen_tail"] == "bound underflowed to 0; exponent infinite"
    # the logs are read only for a bound that underflowed
    rep = exponent_report({"suen_zero": 0.5}, 8, 0.4, 0.4, 0.1, {"suen_zero": 1e9})
    assert rep.exponents["suen_zero"] == 0.0


def test_large_codebook_bounds_finish_with_finite_exponents(binary_joint, monkeypatch):
    """B2, r = 1/4, n = 96 (M = 2^24) and 192 (M = 2^48): both local-lemma
    conditions are decided from float logs alone, and Suen's exponents are
    finite although its bounds underflow."""
    real = deviation._log_sum_nonpositive

    def no_fallback(terms, exact):
        return real(terms, lambda: pytest.fail("exact fallback taken away from equality"))

    monkeypatch.setattr(deviation, "_log_sum_nonpositive", no_fallback)
    i_xy = mutual_information(binary_joint)
    for n in (96, 192):
        m = exact_pair_moments(binary_joint, default_params(n), n, 0.25, 0.25)
        assert m.m1 == m.m2 == 1 << (n // 4)
        lll, rep = bracket(m, 0.25, 0.25, i_xy)
        assert not lll.symmetric_condition_ok and not lll.phi_condition_ok
        assert rep.bounds["suen_zero"] == 0.0  # the float bound underflows
        assert set(rep.exponents) == {"suen_zero", "suen_tail"}
        assert all(0 < e < 1 for e in rep.exponents.values())


def test_bracket_exponents_finite_where_gamma_squared_overflows(binary_joint):
    """B2, r = 1/4, n = 1600 and 2000: gamma is past 1e170, so gamma**2
    leaves float range, yet both Suen exponents are finite, and the Theta
    branch, the active one, matches its value from logs."""
    i_xy = mutual_information(binary_joint)
    for n in (1600, 2000):
        m = exact_pair_moments(binary_joint, default_params(n), n, 0.25, 0.25)
        with pytest.raises(OverflowError):
            m.gamma**2
        lll, rep = bracket(m, 0.25, 0.25, i_xy)
        assert all(0 < e < 1 for e in rep.exponents.values())
        assert rep.exponents["suen_tail"] <= rep.exponents["suen_zero"]
        theta_branch = math.exp(2 * math.log(m.gamma) - math.log(8 * m.theta_cap))
        assert suen_zero_log(m.gamma, m.theta_cap, m.theta_small) == pytest.approx(
            theta_branch, rel=1e-12
        )


def test_only_deviation_assembles_the_bracket():
    """No module of the package but `deviation` (and `__init__`, which
    re-exports) imports the pieces that the bracket is built from."""
    pieces = {"suen_zero_log", "suen_tail_log", "lll_lower_bounds", "exponent_report"}
    package = Path(deviation.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("deviation.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            offenders += [(path.name, name) for name in sorted(names & pieces)]
    assert offenders == []


# --- exact M1 = 1 law ----------------------------------------------------------------


def test_exact_zero_probability_pinned(binary_joint):
    p = exact_zero_probability(binary_joint, default_params(12), 12, 16)
    assert float(p) == pytest.approx(0.0315537990504829, rel=1e-14)
    assert exact_zero_probability(binary_joint, default_params(12), 12, 0) == 1


def test_exact_zero_probability_matches_brute(binary_joint):
    n, m2 = 5, 3
    params = default_params(n)
    px = [sum(row) for row in binary_joint.probs]
    py = [sum(row[b] for row in binary_joint.probs) for b in range(2)]
    left = [s for s in itertools.product(range(2), repeat=n)
            if oracles.robust_typical(s, px, params.eps1)]
    right = [s for s in itertools.product(range(2), repeat=n)
             if oracles.robust_typical(s, py, params.eps2)]
    # one x, then M2 independent y's: count the (x, y_1..y_M2) with no edge
    misses = sum(
        sum(1 for y in right if not oracles.jointly_typical(x, y, binary_joint.probs, params.lam))
        ** m2
        for x in left
    )
    want = Fraction(misses, len(left) * len(right) ** m2)
    assert exact_zero_probability(binary_joint, params, n, m2) == want


def test_exact_zero_probability_cap(binary_joint):
    with pytest.raises(CapExceeded):
        exact_zero_probability(binary_joint, default_params(12), 12, 1 << 22)


# --- Wilson interval -----------------------------------------------------------------


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    assert 0 < hi < 0.01
    lo2, hi2 = wilson_interval(500, 1000)
    assert lo2 < 0.5 < hi2
    lo3, hi3 = wilson_interval(500, 10_000_000)
    assert hi3 - lo3 < hi2 - lo2  # shrinks with trials
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_wilson_contains_phat():
    for succ, trials in ((13, 500), (1, 10), (999, 1000)):
        lo, hi = wilson_interval(succ, trials)
        assert lo <= succ / trials <= hi
        assert 0.0 <= lo <= hi <= 1.0


# --- codebooks and counting -----------------------------------------------------------


def test_draw_codebook(binary_joint):
    """A codebook is `size` draws from one sampler: typical, and repeated
    under the same seed."""
    n = 8
    params = default_params(n)
    px = binary_joint.row_marginal()
    sampler = TypicalSampler(px, params.eps1, n)
    rng = random.Random(4)
    cb = [Sequence(px.alphabet, tuple(sampler.draw(rng))) for _ in range(6)]
    assert all(is_typical(s, px, params.eps1) for s in cb)
    rng = random.Random(4)
    assert [tuple(sampler.draw(rng)) for _ in range(6)] == [s.symbols for s in cb]


def test_count_pairs_matches_pairwise_predicate(binary_joint):
    """The ball index counts U over drawn codebooks as the pair predicate does."""
    n = 6
    params = default_params(n)
    rng = random.Random(17)
    books = []
    for pmf, eps, size in (
        (binary_joint.row_marginal(), params.eps1, 5),
        (binary_joint.col_marginal(), params.eps2, 7),
    ):
        sampler = TypicalSampler(pmf, eps, n)
        books.append([Sequence(pmf.alphabet, tuple(sampler.draw(rng))) for _ in range(size)])
    xs, ys = books
    u = JointTypeIndex.ball(binary_joint, params.lam, n).count(
        [x.symbols for x in xs], [y.symbols for y in ys]
    )
    assert u == sum(
        1 for x in xs for y in ys if is_jointly_typical(x, y, binary_joint, params.lam)
    )


# --- Monte Carlo ------------------------------------------------------------------------


def test_simulate_deterministic(binary_joint):
    params = default_params(8)
    a = simulate(binary_joint, params, 8, 0.25, 0.25, trials=300, seed=5)
    b = simulate(binary_joint, params, 8, 0.25, 0.25, trials=300, seed=5)
    assert a == b
    c = simulate(binary_joint, params, 8, 0.25, 0.25, trials=300, seed=6)
    assert c.zero_count != a.zero_count or c.mean_u != a.mean_u


def test_simulate_pinned(binary_joint):
    """The per-trial streams at seed 5, as recorded before the sampler table
    was hoisted out of the trial loop."""
    mc = simulate(binary_joint, default_params(8), 8, 0.25, 0.25, trials=300, seed=5)
    assert (mc.moments.m1, mc.moments.m2) == (4, 4)
    assert mc.zero_count == 6
    assert mc.mean_u == 5.01
    assert mc.var_u == 6.578494983277593
    assert [p for _, p in mc.tails] == [
        0.02, 0.02, 0.02, 0.07333333333333333, 0.07333333333333333,
        0.16666666666666666, 0.16666666666666666, 0.31333333333333335,
        0.31333333333333335, 0.4633333333333333, 0.4633333333333333,
    ]


def test_simulate_work_cap(binary_joint, monkeypatch):
    params = default_params(12)
    assert simulation_sizes(12, 1.0, 1.0, 1) == (4096, 4096)  # exactly the cap
    with pytest.raises(CapExceeded, match=f"exceed cap {DEFAULT_CAP}"):
        simulation_sizes(12, 1.0, 1.0, 2)

    def refuse(*args):
        raise AssertionError("exact work started before the cap check")

    monkeypatch.setattr("typigraph.deviation.exact_pair_moments", refuse)
    monkeypatch.setattr("typigraph.deviation._DegreeKernel", refuse)
    with pytest.raises(CapExceeded):
        simulate(binary_joint, params, 12, 1.0, 1.0, trials=2, seed=1)


def _bounded_kernels(monkeypatch, joint):
    """The kernels whose steps `simulate` bounds on joint, one entry per bound."""
    steps, bounded = typicality._DegreeKernel.steps, []

    def counted(kernel, type_boxes):
        bounded.append(kernel)
        return steps(kernel, type_boxes)

    monkeypatch.setattr(typicality._DegreeKernel, "steps", counted)
    simulate(joint, default_params(8), 8, 0.25, 0.25, trials=20, seed=5)
    return bounded


def test_simulate_bounds_each_side_once(lopsided_joint, monkeypatch):
    # simulate checks both kernels, then builds their tables: one bound each
    bounded = _bounded_kernels(monkeypatch, lopsided_joint)
    assert len(bounded) == 2 and bounded[0] is not bounded[1]


def test_simulate_bounds_a_shared_kernel_once(binary_joint, monkeypatch):
    # B2's right side shares the left kernel: one kernel, one bound
    assert len(_bounded_kernels(monkeypatch, binary_joint)) == 1


def test_exact_pair_moments_bounds_both_kernels_before_any_table(lopsided_joint, monkeypatch):
    """Only the right kernel is over the cap: the refusal comes before the
    left table is built."""
    steps, table = typicality._DegreeKernel.steps, typicality._DegreeKernel.table
    bounded, built = [], []

    def right_over_cap(kernel, type_boxes):  # the second kernel bounded is the right
        if kernel not in bounded:
            bounded.append(kernel)
        if kernel is bounded[0]:
            return steps(kernel, type_boxes)
        return typicality.KERNEL_STEP_CAP + 1

    def recorded(kernel):
        built.append(kernel)
        return table(kernel)

    monkeypatch.setattr(typicality._DegreeKernel, "steps", right_over_cap)
    monkeypatch.setattr(typicality._DegreeKernel, "table", recorded)
    with pytest.raises(CapExceeded, match="over cap"):
        exact_pair_moments(lopsided_joint, default_params(8), 8, 0.25, 0.25)
    assert len(bounded) == 2 and built == []


def test_exact_pair_moments_builds_a_shared_table_once(binary_joint, monkeypatch):
    """On T3 and B2 one kernel serves both sides: it is bounded once and its
    table built once, and the moments are the pinned ones of two tables."""
    third = Alphabet((0, 1, 2))
    diag = (Fraction(1, 5), Fraction(1, 5), Fraction(3, 10))
    t3 = JointPmf(third, third, tuple(
        tuple(diag[i] if i == j else Fraction(1, 20) for j in range(3)) for i in range(3)
    ))
    kernel_type = typicality._DegreeKernel
    steps, table, degree = kernel_type.steps, kernel_type.table, kernel_type._degree
    bounded, built, counted = [], [], []

    def counted_steps(kernel, type_boxes):
        bounded.append(kernel)
        return steps(kernel, type_boxes)

    def counted_table(kernel):
        if kernel._table is None:
            built.append(kernel)
        return table(kernel)

    def counted_degree(kernel, counts):
        counted.append(counts)
        return degree(kernel, counts)

    monkeypatch.setattr(kernel_type, "steps", counted_steps)
    monkeypatch.setattr(kernel_type, "table", counted_table)
    monkeypatch.setattr(kernel_type, "_degree", counted_degree)
    for joint, n, second in (
        (t3, 10, Fraction(44298557087, 146094112500)),
        (binary_joint, 24, Fraction(76634937409484, 1330116247956937)),
    ):
        for calls in (bounded, built, counted):
            calls.clear()
        m = exact_pair_moments(joint, default_params(n), n, 2 / n, 2 / n)
        assert m.left_second_exact == m.right_second_exact == second
        assert len(bounded) == len(built) == 1 and bounded == built
        assert len(counted) == len(set(counted))  # no type counted twice


def test_simulate_mean_tracks_gamma(binary_joint):
    n = 8
    params = default_params(n)
    mc = simulate(binary_joint, params, n, 0.25, 0.25, trials=3000, seed=12)
    m = exact_pair_moments(binary_joint, params, n, 0.25, 0.25)
    assert mc.moments == m
    se = math.sqrt(mc.var_u / mc.trials)
    assert abs(mc.mean_u - m.gamma) <= 5 * se
    assert mc.moments.gamma == pytest.approx(m.gamma)
    lo, hi = mc.wilson_low, mc.wilson_high
    assert lo <= mc.p_zero <= hi


def test_simulate_paired_seed_monotone_in_m2(binary_joint):
    """Same seed, growing M2: the y-codebook draw is a prefix of the longer
    one, so U can only grow and the zero count can only shrink - per trial,
    hence in aggregate, for any trial budget."""
    n = 8
    params = default_params(n)
    zeros = []
    for r2 in (1 / 8, 2 / 8, 3 / 8):
        mc = simulate(binary_joint, params, n, 2 / 8, r2, trials=150, seed=31)
        zeros.append(mc.zero_count)
    assert zeros[0] >= zeros[1] >= zeros[2]


def test_simulate_tail_grid(binary_joint):
    params = default_params(8)
    mc = simulate(binary_joint, params, 8, 0.25, 0.25, trials=200, seed=1)
    a_values = [a for a, _ in mc.tails]
    assert a_values == sorted(a_values)
    probs = [p for _, p in mc.tails]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert probs == sorted(probs)  # tail CDF is monotone
    assert mc.tails[0][1] == pytest.approx(mc.p_zero)  # a = 0 is the zero event

    with pytest.raises(ValueError):
        simulate(binary_joint, params, 8, 0.25, 0.25, trials=0, seed=1)
