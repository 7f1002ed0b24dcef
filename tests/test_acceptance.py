"""Acceptance gate: one check per shipped guarantee, one printed line each.

Every test prints "criterion-N <name>: PASS|FAIL" before asserting, so a
`pytest -s tests/test_acceptance.py` run reads as a checklist. Checks with
a wall-clock budget time themselves and fail when they blow it.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import oracles

from typigraph import (
    Alphabet,
    CondPmf,
    GraphSpec,
    JointPmf,
    Pmf,
    Sequence,
    TypicalSampler,
    bracket,
    build_aux_subgraph,
    build_exact_type_subgraph,
    build_graph,
    conditional_entropy,
    conditionalize,
    default_params,
    deviation_exponent_target,
    edge_list,
    entropy,
    fano_distribution,
    is_cond_typical,
    is_edge,
    is_jointly_typical,
    is_typical,
    left_roster,
    measure_rates,
    mutual_information,
    phi_root,
    pinsker_check,
    product_alphabet,
    right_roster,
    simulate,
    suen_zero_bound,
    typical_set_size,
    wring,
)

BIN = Alphabet((0, 1))
TRI = Alphabet((0, 1, 2))

JOINT = JointPmf(
    BIN,
    BIN,
    (
        (Fraction(2, 5), Fraction(1, 10)),
        (Fraction(1, 10), Fraction(2, 5)),
    ),
)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion-{num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion-{num} {name}"


def _bin_sequences(n: int):
    for syms in itertools.product((0, 1), repeat=n):
        yield Sequence(BIN, syms)


# -- 1: exact counting agrees with exhaustive enumeration ---------------------


def test_criterion_1_typical_set_sizes_match_enumeration():
    start = time.monotonic()
    ok = True
    for probs in (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(1, 4)),
    ):
        p = Pmf(BIN, probs)
        for n in range(1, 11):
            for delta in (Fraction(0), Fraction(1, n), Fraction(1, 4)):
                got = typical_set_size(p, delta, n).value
                want = oracles.brute_typical_count(list(probs), delta, n)
                ok = ok and got == want
    ok = ok and time.monotonic() - start < 10.0
    _report(1, "exact typical-set sizes vs enumeration", ok)


# -- 2: graph adjacency is exactly the pairwise predicate ---------------------


def test_criterion_2_graph_adjacency_matches_pair_predicate():
    start = time.monotonic()
    ok = True
    for n in (4, 6, 8):
        params = default_params(n)
        g = build_graph(GraphSpec(joint=JOINT, n=n, params=params))
        left, right = list(g.roster("left")), list(g.roster("right"))
        if n == 4:
            ok = ok and len(left) == 14 and len(right) == 14
        px, py = JOINT.row_marginal(), JOINT.col_marginal()
        want_left = [x for x in _bin_sequences(n) if is_typical(x, px, params.eps1)]
        want_right = [y for y in _bin_sequences(n) if is_typical(y, py, params.eps2)]
        ok = ok and left == want_left and right == want_right
        edges = set(edge_list(g))
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                ok = ok and ((i, j) in edges) == is_jointly_typical(x, y, JOINT, params.lam)
    ok = ok and time.monotonic() - start < 30.0
    _report(2, "graph adjacency equals the pair predicate", ok)


# -- 3: single-type subgraph degree and size envelopes ------------------------


def test_criterion_3_single_type_degree_and_size_envelopes():
    start = time.monotonic()
    ok = True
    tol = 1e-9
    for n in (8, 10, 12):
        sub = build_exact_type_subgraph(JOINT, n)
        tj = sub.rounded_joint()
        h_y_x = conditional_entropy(tj, given="row")
        h_x = entropy(tj.row_marginal())
        h_y = entropy(tj.col_marginal())
        kx, ky = tj.row_alphabet.size, tj.col_alphabet.size
        lo = n * h_y_x - kx * ky * math.log2(n + 1)
        hi = n * h_y_x
        right = list(right_roster(sub))
        for x in left_roster(sub):
            degree = sum(1 for y in right if is_edge(sub, x, y))
            ok = ok and degree == sub.left_degree.value
            ok = ok and lo - tol <= math.log2(degree) <= hi + tol
        ok = ok and abs(sub.left_size.log2 / n - h_x) <= kx * math.log2(n + 1) / n
        ok = ok and abs(sub.right_size.log2 / n - h_y) <= ky * math.log2(n + 1) / n
    ok = ok and time.monotonic() - start < 60.0
    _report(3, "single-type degree and size envelopes", ok)


# -- 4: auxiliary construction degenerates and splits correctly ---------------


def _const_channel(joint: JointPmf) -> CondPmf:
    pairs = product_alphabet(joint.row_alphabet, joint.col_alphabet)
    u = Alphabet(("u",))
    return CondPmf(pairs, u, tuple(Pmf(u, (Fraction(1),)) for _ in pairs.symbols))


def _copy_channel(joint: JointPmf) -> CondPmf:
    pairs = product_alphabet(joint.row_alphabet, joint.col_alphabet)
    rows = tuple(
        Pmf(BIN, (Fraction(1 if a == 0 else 0), Fraction(1 if a == 1 else 0)))
        for (a, b) in pairs.symbols
    )
    return CondPmf(pairs, BIN, rows)


def test_criterion_4_aux_construction_consistency():
    n = 12
    an = build_exact_type_subgraph(JOINT, n)
    const = build_aux_subgraph(JOINT, _const_channel(JOINT), n)
    left_a, right_a = list(left_roster(an)), list(right_roster(an))
    left_c, right_c = list(left_roster(const)), list(right_roster(const))
    ok = (
        [x.symbols for x in left_a] == [x.symbols for x in left_c]
        and [y.symbols for y in right_a] == [y.symbols for y in right_c]
    )
    if ok:
        for x in left_a:
            for y in right_a:
                if is_edge(an, x, y) != is_edge(const, x, y):
                    ok = False
                    break
            if not ok:
                break

    copy = build_aux_subgraph(JOINT, _copy_channel(JOINT), n)
    rates, _ = measure_rates(copy)
    t = copy.target_rates
    ok = ok and abs(rates.r_x - t.r_x) <= 1e-12
    ok = ok and abs(rates.r_y_prime - t.r_y_prime) <= copy.delta3 + 1e-9
    _report(4, "aux construction: degenerate and copy channels", ok)


# -- 5: Monte Carlo sits inside the analytic bracket --------------------------


def test_criterion_5_monte_carlo_bracketed_by_bounds():
    start = time.monotonic()
    n, r = 12, 2 / 12
    params = default_params(n)
    mc = simulate(JOINT, params, n, r, r, trials=100_000, seed=20260814)
    _, report = bracket(mc.moments, r, r, mutual_information(JOINT))
    se = math.sqrt(mc.var_u / mc.trials)
    mean_ok = abs(mc.mean_u - mc.moments.gamma) <= 4 * se
    ok = (
        mc.moments.m1 == 4
        and mc.moments.m2 == 4
        and report.contains(mc.wilson_low, mc.wilson_high)
        and mean_ok
        and time.monotonic() - start < 300.0
    )
    _report(5, "Monte Carlo inside the analytic bracket", ok)


# -- 6: analytic kernels pinned at closed-form points --------------------------


def test_criterion_6_bound_kernels_analytic_pins():
    ok = phi_root(0.0) == 1.0
    ok = ok and abs(phi_root(1 / math.e) - math.e) <= 1e-9
    for i in range(100):
        x = (i / 99) * (1 / math.e)
        phi = phi_root(x)
        ok = ok and abs(phi - math.exp(x * phi)) <= 1e-12
    ok = ok and abs(suen_zero_bound(4.0, 1.0, 1 / 3) - math.exp(-2.0)) <= 1e-12
    _report(6, "bound kernels at closed-form points", ok)


# -- 7: emptiness probability falls as the codebooks grow ----------------------


def test_criterion_7_zero_probability_monotone_in_rate():
    n, r1 = 12, 2 / 12
    params = default_params(n)
    i_xy = mutual_information(JOINT)
    p_zeros = []
    targets = []
    m2s = []
    for k in (1, 2, 3):
        r2 = k / 12
        mc = simulate(JOINT, params, n, r1, r2, trials=1000, seed=99)
        p_zeros.append(mc.p_zero)
        m2s.append(mc.moments.m2)
        targets.append(deviation_exponent_target(r1, r2, i_xy))
    ok = m2s == [2, 4, 8]
    ok = ok and p_zeros[0] >= p_zeros[1] >= p_zeros[2]
    ok = ok and targets[0] <= targets[1] <= targets[2]
    _report(7, "P(U=0) monotone in the codebook rate", ok)


# -- 8: wringing leaves near-independent letters --------------------------------


def test_criterion_8_wringing_restores_near_independence():
    n, delta = 8, 0.05
    edges = []
    for i in range(16):
        bits = tuple((i >> (n - 1 - t)) & 1 for t in range(n))
        s = Sequence(BIN, bits)
        edges.append((s, s))
    result = wring(fano_distribution(edges), delta)
    ok = result.converged and result.surviving_fraction > 0
    ok = ok and max(result.per_letter_mi) <= delta + 1e-12
    tvs = pinsker_check(result.survivors, delta)
    ok = ok and max(tvs) <= 2 * math.sqrt(delta) + 1e-12
    _report(8, "wringing restores near-independence", ok)


# -- 9: containment facts hold on randomized premise-satisfying inputs ---------


_FACT_JOINTS = (
    JOINT,
    JointPmf(
        BIN,
        BIN,
        ((Fraction(1, 2), Fraction(1, 4)), (Fraction(0), Fraction(1, 4))),
    ),
    JointPmf(
        TRI,
        BIN,
        (
            (Fraction(1, 6), Fraction(1, 6)),
            (Fraction(1, 3), Fraction(0)),
            (Fraction(1, 6), Fraction(1, 6)),
        ),
    ),
)


def _propose_y(w: CondPmf, x: Sequence, rng: random.Random) -> Sequence:
    out = w.out_alphabet
    picks = []
    for a in x.symbols:
        row = w.rows[a]
        picks.append(
            rng.choices(range(out.size), weights=[float(q) for q in row.probs])[0]
        )
    return Sequence(out, tuple(picks))


def test_criterion_9_typicality_containment_facts():
    rng = random.Random(20260814)
    n = 10
    deltas = (Fraction(1, 10), Fraction(3, 20), Fraction(1, 5))
    dprimes = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 4))
    eps_pool = (Fraction(1, 10), Fraction(3, 20), Fraction(1, 4))
    counterexamples = 0
    samplers = {}  # one per (pmf, delta); its draws are those of a fresh one per call

    def draw_x(px, delta):
        if (px, delta) not in samplers:
            samplers[px, delta] = TypicalSampler(px, delta, n)
        return Sequence(px.alphabet, tuple(samplers[px, delta].draw(rng)))

    # chained slacks: typical x plus conditionally typical y land the pair
    # in the joint ball at delta + delta', and y in its own ball scaled by |X|
    checked_a = 0
    proposals = 0
    while checked_a < 5000:
        proposals += 1
        assert proposals < 500_000, "rejection sampler starved"
        joint = _FACT_JOINTS[proposals % 3]
        delta = deltas[proposals % 3]
        dprime = dprimes[(proposals // 3) % 3]
        px, py = joint.row_marginal(), joint.col_marginal()
        w = conditionalize(joint, given="row")
        x = draw_x(px, delta)
        y = _propose_y(w, x, rng)
        if not is_cond_typical(y, x, w, dprime):
            continue
        checked_a += 1
        lam = delta + dprime
        if not is_jointly_typical(x, y, joint, lam):
            counterexamples += 1
        if not is_typical(y, py, lam * joint.row_alphabet.size):
            counterexamples += 1

    # jointly typical pairs with a typical x give a conditionally typical y
    checked_b = 0
    proposals = 0
    while checked_b < 5000:
        proposals += 1
        assert proposals < 500_000, "rejection sampler starved"
        joint = _FACT_JOINTS[proposals % 3]
        delta = deltas[(proposals // 3) % 3]
        eps = eps_pool[proposals % 3]
        px = joint.row_marginal()
        w = conditionalize(joint, given="row")
        x = draw_x(px, delta)
        y = _propose_y(w, x, rng)
        if not is_jointly_typical(x, y, joint, eps):
            continue
        checked_b += 1
        if not is_cond_typical(y, x, w, delta + eps):
            counterexamples += 1

    ok = checked_a == 5000 and checked_b == 5000 and counterexamples == 0
    _report(9, "typicality containment facts on random instances", ok)
