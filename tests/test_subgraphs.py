import csv
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from typigraph.core import (
    Alphabet,
    CapExceeded,
    CondPmf,
    InvariantViolation,
    JointPmf,
    Pmf,
    entropy,
    product_alphabet,
)
from typigraph.subgraphs import (
    build_aux_subgraph,
    build_exact_type_subgraph,
    canonical_markov_decompositions,
    export_subgraph,
    import_subgraph,
    induced_joint,
    is_edge,
    left_roster,
    load_decomposition,
    make_decomposition,
    measure_rates,
    rate_point,
    right_roster,
    verify_decomposition,
    verify_single_type,
)
from typigraph.typicality import (
    JointTypeIndex,
    Sequence,
    TypicalityParams,
    default_params,
    empirical_joint_type,
    is_jointly_typical,
    is_typical,
)

BIN = Alphabet((0, 1))


# --- single-type construction --------------------------------------------------


def test_exact_type_subgraph_frozen_sizes(binary_joint):
    # rounded joint n*P has counts [[3,1],[1,3]], [[4,1],[1,4]], [[5,1],[1,5]]
    for n, roster, deg in ((8, 70, 16), (10, 252, 25), (12, 924, 36)):
        sub = build_exact_type_subgraph(binary_joint, n)
        assert sub.left_size.value == roster
        assert sub.right_size.value == roster
        assert sub.left_degree.value == deg
        assert sub.right_degree.value == deg
    sub8 = build_exact_type_subgraph(binary_joint, 8)
    assert sub8.block_targets == (((3, 1), (1, 3)),)


def test_degree_formula_matches_scan(binary_joint):
    sub = build_exact_type_subgraph(binary_joint, 8)
    left = list(left_roster(sub))
    right = list(right_roster(sub))
    assert len(left) == sub.left_size.value
    assert len(right) == sub.right_size.value
    degs = set()
    for x in left:
        degs.add(sum(1 for y in right if is_edge(sub, x, y)))
    assert degs == {sub.left_degree.value}  # constant across the roster
    rdegs = set()
    for y in right:
        rdegs.add(sum(1 for x in left if is_edge(sub, x, y)))
    assert rdegs == {sub.right_degree.value}


def test_is_edge_is_exact_type_match(binary_joint):
    sub = build_exact_type_subgraph(binary_joint, 8)
    left = list(left_roster(sub))
    right = list(right_roster(sub))
    x, y = left[0], right[0]
    assert is_edge(sub, x, y) == (
        (empirical_joint_type(x, y).counts,) == sub.block_targets
    )


def test_is_edge_refuses_another_blocklength_or_alphabet(binary_joint):
    """These pairs were packed into bitmasks of another shape and read as
    edges of the B2 n=8 subgraph."""
    sub = build_exact_type_subgraph(binary_joint, 8)
    y = next(right_roster(sub))
    x10 = Sequence(BIN, (0, 1, 0, 1, 1, 1, 0, 1, 0, 1))
    y10 = Sequence(BIN, (0, 1, 0, 1, 1, 0, 1, 1, 0, 1))
    ternary = Sequence(Alphabet((0, 1, 2)), (0, 0, 0, 1, 0, 1, 1, 1))
    with pytest.raises(ValueError, match="a row sequence has blocklength 10, not n=8"):
        is_edge(sub, x10, y10)
    with pytest.raises(ValueError, match="a column sequence has blocklength 10, not n=8"):
        is_edge(sub, next(left_roster(sub)), y10)
    with pytest.raises(ValueError, match=r"row sequence's alphabet \[0, 1, 2\] is not"):
        is_edge(sub, ternary, y)
    relabelled = Sequence(Alphabet(("a", "b")), y.symbols)
    with pytest.raises(ValueError, match="column sequence's alphabet"):
        is_edge(sub, Sequence(BIN, (0, 0, 0, 1, 0, 1, 1, 1)), relabelled)
    # an equal alphabet that is another object is accepted
    assert is_edge(sub, Sequence(Alphabet((0, 1)), (0, 0, 0, 1, 0, 1, 1, 1)), y)


def test_subgraph_contained_in_typicality_graph(binary_joint):
    n = 8
    params = default_params(n)
    sub = build_exact_type_subgraph(binary_joint, n, params)
    assert sub.containment.left_contained
    assert sub.containment.right_contained
    assert sub.containment.edges_contained
    # spot-check against the predicates themselves
    left = list(left_roster(sub))
    right = list(right_roster(sub))
    assert all(is_typical(x, binary_joint.row_marginal(), params.eps1) for x in left)
    for x in left[:5]:
        for y in right:
            if is_edge(sub, x, y):
                assert is_jointly_typical(x, y, binary_joint, params.lam)


def test_verify_single_type(binary_joint):
    for n in (8, 10, 12):
        rep = verify_single_type(build_exact_type_subgraph(binary_joint, n))
        assert rep.all_ok
        assert abs(rep.left_rate - rep.left_entropy) <= rep.left_rate_bound + 1e-9
        assert rep.left_degree_rate <= rep.h_col_given_row + 1e-9
        assert rep.left_degree_rate >= rep.h_col_given_row - rep.delta3 - 1e-9


def test_rosters_lex_sorted(binary_joint):
    sub = build_exact_type_subgraph(binary_joint, 8)
    ls = [s.symbols for s in left_roster(sub)]
    assert ls == sorted(ls)


def test_measure_rates_single_type(binary_joint):
    sub = build_exact_type_subgraph(binary_joint, 10)
    rates, slack = measure_rates(sub)
    assert rates.r_x == pytest.approx(math.log2(252) / 10)
    assert rates.r_y_prime == pytest.approx(math.log2(25) / 10)
    assert slack.gen == 0.0  # degrees are constant
    assert slack.nc == pytest.approx(math.log2(252) / 10 - math.log2(25) / 10)


@st.composite
def single_type_cases(draw):
    kx, ky = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = st.lists(st.integers(0, 4), min_size=kx * ky, max_size=kx * ky)
    weights = draw(cells.filter(any))
    total = sum(weights)
    probs = tuple(
        tuple(Fraction(weights[a * ky + b], total) for b in range(ky)) for a in range(kx)
    )
    slack = st.builds(Fraction, st.integers(1, 6), st.integers(2, 12))
    params = TypicalityParams(draw(slack), draw(slack), draw(slack))
    alpha = lambda k: Alphabet(tuple(range(k)))
    return JointPmf(alpha(kx), alpha(ky), probs), draw(st.integers(1, 9)), params


@settings.get_profile("typigraph")
@given(single_type_cases())
def test_single_type_matches_former_builder(tmp_path_factory, case):
    """The one-letter-U construction reproduces the former single-type
    builder (restated in oracles) field by field, rosters and edge CSV
    included up to n = 7."""
    joint, n, params = case
    sub = build_exact_type_subgraph(joint, n, params)
    ref = oracles.exact_type_subgraph(
        joint.probs, n, params.eps1, params.eps2, params.lam
    )
    assert sub.kind == "single_type"
    assert sub.block_lengths == (n,)
    assert sub.block_targets == (ref["target"],)
    assert sub.rounded_joint().probs == ref["rounded"]
    assert sub.tilde.max_error == ref["max_rounding_error"]
    assert sub.tilde.support_shrunk == ref["support_shrunk"]
    for name in ("left_size", "right_size", "left_degree", "right_degree"):
        assert getattr(sub, name).value == ref[name], name
    c = sub.containment
    assert (
        c.left_contained, c.right_contained, c.edges_contained, c.premise_ok
    ) == ref["containment"]
    assert sub.delta3 == ref["delta3"]
    if n > 7:
        return
    left, right, edges = oracles.exact_type_edges(ref["target"], n)
    assert [x.symbols for x in left_roster(sub)] == left
    assert [y.symbols for y in right_roster(sub)] == right
    tmp = tmp_path_factory.mktemp("single")
    export_subgraph(sub, str(tmp / "s.json"), str(tmp / "s.csv"))
    with open(tmp / "s.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["left_rank", "right_rank"]
    assert [(int(i), int(j)) for i, j in rows[1:]] == edges
    header = json.loads((tmp / "s.json").read_text())
    want = [[str(q) for q in row] for row in ref["rounded"]]
    assert header["rounded_joint"]["probs"] == want


# --- auxiliary construction ------------------------------------------------------


def test_const_u_equals_single_type(binary_joint, const_channel):
    n = 8
    gam = build_aux_subgraph(binary_joint, const_channel, n)
    an = build_exact_type_subgraph(binary_joint, n)
    gl = [s.symbols for s in left_roster(gam)]
    al = [s.symbols for s in left_roster(an)]
    assert gl == al
    gr = list(right_roster(gam))
    ar = list(right_roster(an))
    assert [s.symbols for s in gr] == [s.symbols for s in ar]
    for x_g, x_a in zip(left_roster(gam), left_roster(an)):
        for y_g, y_a in zip(gr, ar):
            assert is_edge(gam, x_g, y_g) == is_edge(an, x_a, y_a)


def test_copy_u_structure(binary_joint, copy_channel):
    n = 12
    sub = build_aux_subgraph(binary_joint, copy_channel, n)
    assert sub.block_lengths == (6, 6)
    assert sub.u_seq.symbols == (0,) * 6 + (1,) * 6
    assert sub.left_size.value == 1  # x is pinned inside each block
    assert sub.right_size.value == 36
    assert sub.left_degree.value == 36
    assert sub.right_degree.value == 1
    # H(Y | X U) of the rounded triple: rows are (5/6, 1/6)
    h = entropy(Pmf(BIN, (Fraction(5, 6), Fraction(1, 6))))
    assert sub.target_rates.r_y_prime == pytest.approx(h, abs=1e-9)
    assert sub.target_rates.r_x == pytest.approx(0.0, abs=1e-12)

    rates, slack = measure_rates(sub)
    assert rates.r_x == 0.0
    assert slack.gen == 0.0
    assert slack.nc == 0.0
    assert abs(rates.r_y_prime - sub.target_rates.r_y_prime) <= sub.delta3


def test_aux_requires_pair_alphabet(binary_joint):
    u = Alphabet((0, 1))
    bad = CondPmf(BIN, u, (None, None))
    with pytest.raises(ValueError, match="pair alphabet"):
        build_aux_subgraph(binary_joint, bad, 8)


def test_aux_undefined_row_inside_support(binary_joint):
    pairs = product_alphabet(BIN, BIN)
    u = Alphabet(("u",))
    rows = [Pmf(u, (Fraction(1),))] * 3 + [None]  # (1,1) has probability 2/5
    with pytest.raises(ValueError, match="support"):
        build_aux_subgraph(binary_joint, CondPmf(pairs, u, tuple(rows)), 8)


def test_aux_roster_splicing_matches_blocks(binary_joint, copy_channel):
    sub = build_aux_subgraph(binary_joint, copy_channel, 12)
    ys = [s.symbols for s in right_roster(sub)]
    assert len(ys) == 36
    assert ys == sorted(ys)
    for y in ys:
        # block 0 (first 6 positions): one 1; block 1: one 0
        assert sum(y[:6]) == 1
        assert sum(y[6:]) == 5


# --- Markov decompositions -------------------------------------------------------


def mixture_joint():
    return JointPmf(
        BIN,
        BIN,
        ((Fraction(5, 16), Fraction(3, 16)), (Fraction(3, 16), Fraction(5, 16))),
    )


def mixture_decomposition():
    u = Alphabet((0, 1))
    w = Pmf(u, (Fraction(1, 2), Fraction(1, 2)))
    p0 = Pmf(BIN, (Fraction(3, 4), Fraction(1, 4)))
    p1 = Pmf(BIN, (Fraction(1, 4), Fraction(3, 4)))
    left = CondPmf(u, BIN, (p0, p1))
    right = CondPmf(u, BIN, (p0, p1))
    return make_decomposition(w, left, right, mixture_joint())


def test_mixture_reconstructs_exactly():
    d = mixture_decomposition()
    assert d.residual == 0
    assert induced_joint(d.weights, d.left_factors, d.right_factors) == mixture_joint()
    h = entropy(Pmf(BIN, (Fraction(3, 4), Fraction(1, 4))))
    assert rate_point(d) == (pytest.approx(h), pytest.approx(h))


def test_wrong_mixture_has_residual(binary_joint):
    d = mixture_decomposition()
    r = verify_decomposition(d, binary_joint)
    assert r > 0
    with pytest.raises(ValueError, match="residual"):
        rate_point(
            make_decomposition(d.weights, d.left_factors, d.right_factors, binary_joint)
        )


def test_canonical_decompositions(binary_joint):
    d_row, d_col = canonical_markov_decompositions(binary_joint)
    assert d_row.residual == 0 and d_col.residual == 0
    hx_u, hy_u = rate_point(d_row)
    assert hx_u == pytest.approx(0.0, abs=1e-12)  # U is a copy of X
    assert hy_u == pytest.approx(0.7219280948873623, abs=1e-9)


def test_load_decomposition(binary_joint):
    doc = {
        "u_alphabet": [0, 1],
        "weights": ["1/2", "1/2"],
        "left_factors": [["3/4", "1/4"], ["1/4", "3/4"]],
        "right_factors": [["3/4", "1/4"], ["1/4", "3/4"]],
    }
    d = load_decomposition(doc, mixture_joint())
    assert d.residual == 0


def test_markov_point_certified_by_aux_subgraph():
    """Mixture decomposition rates are achieved by the explicit construction,
    up to the counting slack delta3 plus the rounding's own entropy gaps."""
    joint = mixture_joint()
    pairs = product_alphabet(BIN, BIN)
    u = Alphabet((0, 1))
    d = mixture_decomposition()
    # P(U | x, y) by Bayes, exact
    rows = []
    for (a, b) in pairs.symbols:
        post = []
        for uu in range(2):
            post.append(
                d.weights.probs[uu]
                * d.left_factors.rows[uu].probs[a]
                * d.right_factors.rows[uu].probs[b]
            )
        tot = sum(post)
        rows.append(Pmf(u, tuple(q / tot for q in post)))
    aux = CondPmf(pairs, u, tuple(rows))

    n = 16
    sub = build_aux_subgraph(joint, aux, n)
    rates, slack = measure_rates(sub)
    h_y_u = sub.target_rates.r_y
    h_y_xu = sub.target_rates.r_y_prime
    h_x_u = sub.target_rates.r_x
    h_x_yu = sub.target_rates.r_x_prime
    cap = sub.delta3 + max(h_y_u - h_y_xu, h_x_u - h_x_yu)
    assert slack.nc <= cap + 1e-9


# --- export / import ---------------------------------------------------------------


def test_subgraph_export_roundtrip(binary_joint, copy_channel, tmp_path):
    an = build_exact_type_subgraph(binary_joint, 8)
    jpath = tmp_path / "an.json"
    cpath = tmp_path / "an.csv"
    export_subgraph(an, str(jpath), str(cpath))
    an2 = import_subgraph(str(jpath))
    assert an2.block_targets == an.block_targets
    assert an2.left_size.value == an.left_size.value

    header = json.loads(jpath.read_text())
    assert header["kind"] == "single_type"
    assert header["schema"] == "typigraph.subgraph/1"
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "left_rank,right_rank"
    assert len(rows) - 1 == an.left_size.value * an.left_degree.value

    gam = build_aux_subgraph(binary_joint, copy_channel, 12)
    gpath = tmp_path / "gam.json"
    export_subgraph(gam, str(gpath))
    gam2 = import_subgraph(str(gpath))
    assert gam2.block_lengths == gam.block_lengths
    assert json.loads(gpath.read_text())["kind"] == "aux_conditional"


def test_subgraph_export_tamper_detected(binary_joint, tmp_path):
    an = build_exact_type_subgraph(binary_joint, 8)
    jpath = tmp_path / "an.json"
    export_subgraph(an, str(jpath))
    doc = json.loads(jpath.read_text())
    doc["left_size"]["value"] = "71"
    jpath.write_text(json.dumps(doc))
    with pytest.raises(InvariantViolation):
        import_subgraph(str(jpath))


def test_export_counts_written_edges(binary_joint, monkeypatch, tmp_path):
    """An edge CSV whose rows are not left_size * left_degree is refused."""
    an = build_exact_type_subgraph(binary_joint, 8)
    real = JointTypeIndex.scan

    def drop_first_edge(self, xs, ys):
        rows = real(self, xs, ys)
        yield next(rows)[1:]
        yield from rows

    monkeypatch.setattr(JointTypeIndex, "scan", drop_first_edge)
    with pytest.raises(InvariantViolation, match="1119 edges written.*1120"):
        export_subgraph(an, str(tmp_path / "a.json"), str(tmp_path / "a.csv"))


def test_export_edge_cap(binary_joint, tmp_path):
    an = build_exact_type_subgraph(binary_joint, 12)  # 924 x 924 pairs
    with pytest.raises(CapExceeded, match="cap"):
        export_subgraph(
            an, str(tmp_path / "a.json"), str(tmp_path / "a.csv"), edge_cap=1000
        )
    assert not (tmp_path / "a.json").exists()  # refused before the header
    assert not (tmp_path / "a.csv").exists()
