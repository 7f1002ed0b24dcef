import inspect
import json
import math
import random
from fractions import Fraction

import pytest

import typigraph

from typigraph.core import (
    Alphabet,
    CondPmf,
    InvariantViolation,
    JointPmf,
    Pmf,
    _decimal,
    cond_from_dict,
    cond_to_dict,
    conditional_entropy,
    conditionalize,
    entropy,
    entropy_continuity_bound,
    format_fraction,
    is_product,
    joint_entropy,
    joint_from_dict,
    joint_to_dict,
    load_distribution,
    marginalize,
    mutual_information,
    parse_fraction,
    pmf_from_dict,
    pmf_to_dict,
    product_alphabet,
    rational_approximate,
    save_distribution,
    total_variation,
)

BIN = Alphabet((0, 1))


# --- entropic functionals: values frozen against hand computation ----------


def test_entropy_frozen_values():
    assert entropy(Pmf(BIN, (Fraction(2, 5), Fraction(3, 5)))) == pytest.approx(
        0.9709505944546686, abs=1e-12
    )
    assert entropy(Pmf(BIN, (Fraction(3, 4), Fraction(1, 4)))) == pytest.approx(
        0.8112781244591328, abs=1e-12
    )
    assert entropy(Pmf(BIN, (Fraction(1, 2), Fraction(1, 2)))) == 1.0
    # 0 log 0 = 0
    assert entropy(Pmf(BIN, (Fraction(1), Fraction(0)))) == 0.0


def test_binary_joint_quantities(binary_joint):
    assert joint_entropy(binary_joint) == pytest.approx(1.7219280948873623, abs=1e-12)
    assert mutual_information(binary_joint) == pytest.approx(
        0.2780719051126377, abs=1e-12
    )
    assert conditional_entropy(binary_joint, given="row") == pytest.approx(
        0.7219280948873623, abs=1e-12
    )
    # symmetric example: both conditionals agree
    assert conditional_entropy(binary_joint, given="col") == pytest.approx(
        conditional_entropy(binary_joint, given="row"), abs=1e-12
    )
    with pytest.raises(ValueError):
        conditional_entropy(binary_joint, given="diagonal")


def test_chain_rule_random_joints():
    # H(XY) = H(X) + H(Y|X), exhaustive over a few exact joints
    cases = [
        ((Fraction(1, 2), Fraction(0)), (Fraction(1, 4), Fraction(1, 4))),
        ((Fraction(1, 8), Fraction(3, 8)), (Fraction(3, 8), Fraction(1, 8))),
        ((Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 6), Fraction(1, 3))),
    ]
    for rows in cases:
        j = JointPmf(BIN, BIN, rows)
        assert joint_entropy(j) == pytest.approx(
            entropy(j.row_marginal()) + conditional_entropy(j, "row"), abs=1e-12
        )
        assert mutual_information(j) >= -1e-12


def test_total_variation(binary_joint):
    px = binary_joint.row_marginal()
    py = binary_joint.col_marginal()
    prod = JointPmf(
        BIN, BIN, tuple(tuple(a * b for b in py.probs) for a in px.probs)
    )
    assert total_variation(binary_joint, prod) == Fraction(3, 5)
    assert total_variation(binary_joint, binary_joint) == 0
    with pytest.raises(ValueError):
        total_variation(px, binary_joint)


def test_is_product(binary_joint):
    assert not is_product(binary_joint)
    uniform = JointPmf(BIN, BIN, ((Fraction(1, 4),) * 2,) * 2)
    assert is_product(uniform)


def test_entropy_continuity_bound():
    # -eps log2(eps/k) at eps=1/4, k=2: 0.25 * log2(8) = 0.75
    assert entropy_continuity_bound(Fraction(1, 4), 2) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        entropy_continuity_bound(Fraction(3, 5), 2)
    with pytest.raises(ValueError):
        entropy_continuity_bound(Fraction(0), 2)


# --- validation -------------------------------------------------------------


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf(BIN, (Fraction(1, 2), Fraction(1, 3)))  # does not sum to 1
    with pytest.raises(ValueError):
        Pmf(BIN, (Fraction(3, 2), Fraction(-1, 2)))  # out of range
    with pytest.raises(ValueError):
        Pmf(BIN, (Fraction(1),))  # length mismatch
    with pytest.raises(ValueError):
        Alphabet((0, 0))
    with pytest.raises(ValueError):
        Alphabet(())


def test_joint_validation():
    with pytest.raises(ValueError):
        JointPmf(BIN, BIN, ((Fraction(1, 2), Fraction(1, 2)),))
    with pytest.raises(ValueError):
        JointPmf(BIN, BIN, ((Fraction(1, 2),), (Fraction(1, 2),)))


def test_cond_rows_must_match_alphabet():
    with pytest.raises(ValueError):
        CondPmf(BIN, BIN, (Pmf(Alphabet(("a", "b", "c")), (Fraction(1), 0, 0)), None))


def test_product_alphabet_row_major():
    a = Alphabet(("x", "y"))
    b = Alphabet((0, 1, 2))
    pa = product_alphabet(a, b)
    assert pa.symbols == (("x", 0), ("x", 1), ("x", 2), ("y", 0), ("y", 1), ("y", 2))
    assert pa.index(("y", 1)) == 4


# --- largest-remainder rationalization --------------------------------------


def test_rational_approximate_uniform_ternary():
    p = Pmf(Alphabet((0, 1, 2)), (Fraction(1, 3),) * 3)
    r = rational_approximate(p, 4)
    # remainders tie at 1/3; the leftover count goes to the first index
    assert r.approx.probs == (Fraction(2, 4), Fraction(1, 4), Fraction(1, 4))
    assert r.max_error == Fraction(1, 6)
    assert not r.support_shrunk


def test_rational_approximate_properties():
    cases = [
        (Pmf(BIN, (Fraction(2, 5), Fraction(3, 5))), 7),
        (Pmf(Alphabet((0, 1, 2)), (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))), 9),
        (Pmf(BIN, (Fraction(1), Fraction(0))), 5),
    ]
    for p, n in cases:
        r = rational_approximate(p, n)
        assert sum(r.approx.probs) == 1
        assert all(q.denominator <= n for q in r.approx.probs)
        assert r.max_error < Fraction(1, n)
        # zero stays zero
        for orig, rounded in zip(p.probs, r.approx.probs):
            if orig == 0:
                assert rounded == 0


def test_rational_approximate_joint_support_shrink(binary_joint):
    r = rational_approximate(binary_joint, 12)
    assert r.approx.flat() == (
        Fraction(5, 12),
        Fraction(1, 12),
        Fraction(1, 12),
        Fraction(5, 12),
    )
    tiny = JointPmf(
        BIN, BIN, ((Fraction(99, 100), Fraction(1, 100)), (Fraction(0), Fraction(0)))
    )
    r2 = rational_approximate(tiny, 3)
    assert r2.support_shrunk  # 1/100 rounds away at n=3
    with pytest.raises(ValueError):
        rational_approximate(binary_joint, 0)


# --- marginals and conditionals ---------------------------------------------


def test_conditionalize_roundtrip(binary_joint):
    w = conditionalize(binary_joint, given="row")
    px = marginalize(binary_joint, keep="row")
    for i in range(2):
        for j in range(2):
            assert px.probs[i] * w.rows[i].probs[j] == binary_joint.cell(i, j)
    assert w.rows[0].probs == (Fraction(4, 5), Fraction(1, 5))


def test_conditionalize_zero_row():
    j = JointPmf(BIN, BIN, ((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(0))))
    w = conditionalize(j, given="row")
    assert w.rows[1] is None
    assert not w.defined(1)
    assert w.defined(0)


def _random_joints(count, seed):
    """Joints up to 4 x 4 with small integer weights, zero columns included."""
    rng = random.Random(seed)
    for _ in range(count):
        kx, ky = rng.randint(1, 4), rng.randint(1, 4)
        weights = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(ky)] for _ in range(kx)]
        weights[rng.randrange(kx)][rng.randrange(ky)] += 1
        total = sum(map(sum, weights))
        probs = tuple(tuple(Fraction(w, total) for w in row) for row in weights)
        yield JointPmf(Alphabet(tuple(range(kx))), Alphabet(tuple("abcd"[:ky])), probs)


def test_column_conditional_from_the_definition():
    """Conditioning on the column variable, as conditionalize(p.transpose())
    or given="col": row j is p(i, j) / P_Y(j) over the row alphabet, None
    where P_Y(j) = 0."""
    zero_columns = 0
    for joint in _random_joints(300, seed=3):
        py = joint.col_marginal().probs
        want = tuple(
            None
            if py[j] == 0
            else Pmf(joint.row_alphabet, tuple(row[j] / py[j] for row in joint.probs))
            for j in range(joint.col_alphabet.size)
        )
        for w in (conditionalize(joint.transpose()), conditionalize(joint, given="col")):
            assert (w.given_alphabet, w.out_alphabet) == (joint.col_alphabet, joint.row_alphabet)
            assert w.rows == want
        zero_columns += want.count(None)
    assert zero_columns > 0


# --- JSON I/O ----------------------------------------------------------------


def test_parse_fraction():
    assert parse_fraction("2/5") == Fraction(2, 5)
    assert parse_fraction("0.25") == Fraction(1, 4)
    assert parse_fraction(3) == Fraction(3)
    with pytest.raises(ValueError):
        parse_fraction(0.1)  # floats are not exact
    with pytest.raises(ValueError):
        parse_fraction(True)
    assert format_fraction(Fraction(6, 4)) == "3/2"


def test_decimal_spells_counts_of_any_length():
    """str() below 10**512; past it, chunks of str() digits, with the zeros
    inside a count kept and none in front of it."""
    for v in (0, 7, 10**512 - 1, 3**1000, 2**4000):
        assert _decimal(v) == str(v)
    assert _decimal(10**512) == "1" + "0" * 512
    assert _decimal(10**9000) == "1" + "0" * 9000
    digits = "".join(random.Random(9).choice("0123456789") for _ in range(6000))
    first, rest = int(digits[:3000]), int(digits[3000:])
    assert _decimal(first * 10**3000 + rest) == digits.lstrip("0")
    for f in (Fraction(-6, 4), Fraction(0), Fraction(-5), Fraction(2**4000, 3)):
        assert format_fraction(f) == str(f)
    assert format_fraction(Fraction(10**5000 + 1, -3)) == "-1" + "0" * 4999 + "1/3"


def test_json_roundtrips(binary_joint, tmp_path):
    p = binary_joint.row_marginal()
    assert pmf_from_dict(pmf_to_dict(p)) == p
    assert joint_from_dict(joint_to_dict(binary_joint)) == binary_joint
    w = conditionalize(binary_joint, "row")
    assert cond_from_dict(cond_to_dict(w)) == w

    path = tmp_path / "j.json"
    save_distribution(binary_joint, str(path))
    assert load_distribution(str(path)) == binary_joint
    # deterministic bytes
    blob = path.read_bytes()
    save_distribution(binary_joint, str(path))
    assert path.read_bytes() == blob


def test_load_distribution_rejects_unknown(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "mystery"}))
    with pytest.raises(ValueError, match="mystery"):
        load_distribution(str(path))


def test_json_inputs_refuse_a_repeated_key(binary_joint, tmp_path):
    """A key repeated in any object of a JSON input is a ValueError naming
    it, not the last copy's value; -Infinity, which an edgeless graph's
    header holds, still reads."""
    path = tmp_path / "j.json"
    path.write_text(
        '{"type": "joint_pmf", "row_alphabet": [0, 1], "col_alphabet": [0, 1],'
        ' "probs": [["1/4", "1/4"], ["1/4", "1/4"]],'
        ' "probs": [["1/2", "0"], ["0", "1/2"]]}'
    )
    with pytest.raises(ValueError, match="repeated key 'probs'"):
        load_distribution(str(path))
    path.write_text('{"a": {"log2": -Infinity, "b": 1, "b": 2}}')
    with pytest.raises(ValueError, match="repeated key 'b'"):
        typigraph.core._load_json(str(path))
    path.write_text('{"log2": -Infinity}')
    assert typigraph.core._load_json(str(path)) == {"log2": -math.inf}


def test_tuple_labels_survive_json(tmp_path):
    pairs = product_alphabet(BIN, BIN)
    p = Pmf(pairs, (Fraction(2, 5), Fraction(1, 10), Fraction(1, 10), Fraction(2, 5)))
    path = tmp_path / "pairs.json"
    save_distribution(p, str(path))
    q = load_distribution(str(path))
    assert q == p
    assert q.alphabet.symbols == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_public_names_resolve_sorted_unique():
    names = typigraph.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(typigraph, n)] == []
    # every public object the package imports is listed, so none lingers unlisted
    public = {
        n
        for n, v in vars(typigraph).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert public == set(names)
