"""Frozen records against their former dataclass form.

Every value class of the package is a `core.record`. Each is checked here
against `oracles.dataclass_twin`, the `@dataclass(frozen=True)` declaration
it replaced, on an instance that the package itself builds: construction,
argument errors, `__post_init__` checks, equality, hash, repr, `replace`
and immutability.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

import oracles
from typigraph import core, deviation, diagnostics, graph, subgraphs, typicality
from typigraph.core import Alphabet, JointPmf, Pmf, replace

MODULES = (core, typicality, graph, subgraphs, deviation, diagnostics)
RECORDS = {
    cls.__name__: cls
    for mod in MODULES
    for cls in vars(mod).values()
    if isinstance(cls, type) and cls.__module__ == mod.__name__ and "_fields" in cls.__dict__
}


@pytest.fixture(scope="module")
def samples():
    """One instance of every record class, each built by the package."""
    bit = Alphabet((0, 1))
    joint = JointPmf(bit, bit, ((Fraction(2, 5), Fraction(1, 10)), (Fraction(1, 10), Fraction(2, 5))))
    n = 6
    params = typicality.default_params(n)
    g = graph.build_graph(graph.GraphSpec(joint, n, params))
    sub = subgraphs.build_exact_type_subgraph(joint, n)
    rates, slack = subgraphs.measure_rates(sub)
    report = deviation.simulate(joint, params, n, 0.25, 0.25, trials=20, seed=1)
    moments = report.moments
    rng = random.Random(2)

    def codebook(pmf, eps):
        draw = typicality.TypicalSampler(pmf, eps, n).draw
        return [typicality.Sequence(pmf.alphabet, tuple(draw(rng))) for _ in range(3)]

    xs = codebook(joint.row_marginal(), params.eps1)
    ys = codebook(joint.col_marginal(), params.eps2)
    dist = diagnostics.fano_distribution(list(zip(xs, ys)))
    wrung = diagnostics.wring(dist, 0.05)
    x = xs[0]
    found = [
        bit,
        joint.row_marginal(),
        joint,
        core.conditionalize(joint),
        core.rational_approximate(joint, 7),
        x,
        typicality.empirical_type(x),
        typicality.empirical_joint_type(x, ys[0]),
        params,
        g.edge_count,
        g.spec,
        g,
        graph.stats(g),
        graph.check_degree_bound(g),
        sub.containment,
        sub,
        subgraphs.verify_single_type(sub),
        rates,
        slack,
        subgraphs.canonical_markov_decompositions(joint)[0],
        moments,
        deviation.lll_lower_bounds(moments, moments.m1, moments.m2, n),
        deviation.exponent_report({"suen_zero": 0.5}, n, 0.25, 0.25, 0.278),
        report,
        dist,
        diagnostics.graph_distribution(g),
        diagnostics.dominant_joint_type(dist),
        diagnostics.block_mi_bound(3, 3, 3, n, Fraction(1, 4), 2, 2, edges=dist),
        wrung.steps[0],
        wrung,
    ]
    return {type(obj).__name__: obj for obj in found}


def test_every_value_class_is_a_record(samples):
    assert len(RECORDS) == 30
    assert set(samples) == set(RECORDS)
    for mod in MODULES:
        for cls in vars(mod).values():
            assert not dataclasses.is_dataclass(cls), cls


def _outcome(call):
    """(True, value) or (False, exception type and message)."""
    try:
        return True, call()
    except Exception as exc:  # the same failure is expected on both sides
        return False, (type(exc), str(exc))


def _failure(call):
    ok, result = _outcome(call)
    assert not ok, result
    return result[0]


def _fields(obj):
    return {name: getattr(obj, name) for name in type(obj)._fields}


def _same(record, twin):
    """The record and its twin hold the same fields, repr and hash."""
    assert repr(record) == repr(twin)
    assert _fields(record) == {name: getattr(twin, name) for name in type(record)._fields}
    hashed = _outcome(lambda: hash(record))
    assert hashed == _outcome(lambda: hash(twin))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_matches_dataclass_form(name, samples):
    cls, twin_cls = RECORDS[name], oracles.dataclass_twin(RECORDS[name])
    obj = samples[name]
    kwargs = _fields(obj)
    args = tuple(kwargs.values())

    # positional and keyword construction, defaults left out
    _same(cls(*args), twin_cls(*args))
    _same(cls(**kwargs), twin_cls(**kwargs))
    required = [f for f in cls._fields if f not in cls._defaults]
    assert cls._fields[: len(required)] == tuple(required)
    _same(cls(*args[: len(required)]), twin_cls(*args[: len(required)]))
    assert cls(**{f: kwargs[f] for f in required}) == cls(*args[: len(required)])

    # a missing, an extra, an unexpected or a duplicate argument (two extra:
    # the dataclass form of TypicalityGraph took `_kernels` as a seventh)
    first = cls._fields[0]
    missing = {f: v for f, v in kwargs.items() if f != first}
    assert _failure(lambda: cls(*args, None)) is TypeError
    for bad_args, bad_kwargs in [
        ((), missing),
        (args + (None, None), {}),
        ((), {**kwargs, "unknown": 1}),
        ((args[0],), kwargs),
    ]:
        assert _failure(lambda: cls(*bad_args, **bad_kwargs)) is TypeError
        assert _failure(lambda: twin_cls(*bad_args, **bad_kwargs)) is TypeError

    # equality: same class and fields only; a twin with equal fields is unequal
    record, twin = cls(*args), twin_cls(*args)
    assert record == obj and not record != obj
    assert record != twin and not record == twin
    assert record.__eq__(twin) is NotImplemented
    assert twin.__eq__(record) is NotImplemented
    copy = core.record(type(name, (), {"__annotations__": dict(cls.__annotations__)}))(*args)
    assert record != copy and not record == copy
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(copy))

    # replace, through __init__, beside dataclasses.replace
    last = cls._fields[-1]
    _same(replace(record, **{last: kwargs[last]}), dataclasses.replace(twin, **{last: kwargs[last]}))
    assert replace(record) is not record and replace(record) == record
    assert _failure(lambda: replace(record, unknown=1)) is TypeError
    assert _failure(lambda: dataclasses.replace(twin, unknown=1)) is TypeError

    # frozen: no field assigned or deleted, no attribute added
    for field in cls._fields:
        for target in (record, twin):
            with pytest.raises(AttributeError):
                setattr(target, field, kwargs[field])
            with pytest.raises(AttributeError):
                delattr(target, field)
    with pytest.raises(core.FrozenInstanceError):
        record.added = 1
    assert _fields(record) == kwargs


BIT = Alphabet((0, 1))
HALF = Fraction(1, 2)


def _with(obj, **changes):
    """obj's fields as positional arguments, some of them changed."""
    return tuple({**_fields(obj), **changes}.values())


# arguments each __post_init__ refuses, by class, given that class's sample
REFUSED = {
    "Alphabet": lambda _: [((0, 0),), ((),)],
    "Pmf": lambda _: [(BIT, (HALF, Fraction(1, 3))), (BIT, (Fraction(1),))],
    "JointPmf": lambda _: [(BIT, BIT, ((HALF, HALF),)), (BIT, BIT, ((HALF, 0), (0, HALF / 2)))],
    "CondPmf": lambda _: [(BIT, BIT, (None,)), (BIT, BIT, (None, Pmf(Alphabet((0,)), (1,))))],
    "Sequence": lambda _: [(BIT, ()), (BIT, (0, 2))],
    "TypeVector": lambda _: [(BIT, (1,)), (BIT, (2, -1)), (BIT, (0, 0))],
    "JointTypeVector": lambda _: [(BIT, BIT, ((1, 0),)), (BIT, BIT, ((1, -1), (0, 1)))],
    "TypicalityParams": lambda _: [(0, HALF, HALF), (HALF, HALF, -HALF)],
    "GraphSpec": lambda s: [_with(s, n=0), _with(s, mode="dense"), _with(s, cap=0)],
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_post_init_checks_still_fire(name, samples):
    cls, twin_cls = RECORDS[name], oracles.dataclass_twin(RECORDS[name])
    for args in REFUSED[name](samples[name]):
        refused = _outcome(lambda: cls(*args))
        assert not refused[0] and refused[1][0] is ValueError, refused
        assert refused == _outcome(lambda: twin_cls(*args))


def test_fields_outside_eq_hash_and_repr(samples):
    """`Alphabet._index` and `TypicalityGraph._kernels` are per-instance
    attributes, as the dataclass form's hidden fields were."""
    a, twin = Alphabet(("x", "y")), oracles.dataclass_twin(Alphabet)(("x", "y"))
    assert a._index == twin._index == {"x": 0, "y": 1}
    g = samples["TypicalityGraph"]
    fresh = replace(g)
    assert "left" in g._kernels and fresh._kernels == {}
    twin_cls = oracles.dataclass_twin(graph.TypicalityGraph)
    one, two = twin_cls(*(_fields(g).values())), twin_cls(*(_fields(g).values()))
    assert one._kernels == {} and one._kernels is not two._kernels
    assert fresh == g and hash(fresh) == hash(g) and repr(fresh) == repr(g)


@pytest.mark.parametrize(
    "name, changes",
    [
        ("BigCount", {"value": 7}),
        ("TypicalityParams", {"schedule": "other", "eps1": HALF}),
        ("EdgeDistribution", {"distinct": False}),  # the sample Fano set is marked distinct
        ("GraphSpec", {"n": 5, "cap": 9}),
    ],
)
def test_replace_changes_the_named_fields(name, changes, samples):
    obj = samples[name]
    twin = oracles.dataclass_twin(RECORDS[name])(**_fields(obj))
    changed = replace(obj, **changes)
    _same(changed, dataclasses.replace(twin, **changes))
    assert _fields(changed) == {**_fields(obj), **changes} and changed != obj


def test_post_init_is_looked_up_per_call(monkeypatch):
    calls = []
    original = typicality.Sequence.__post_init__

    def counting(self):
        calls.append(self.symbols)
        original(self)

    monkeypatch.setattr(typicality.Sequence, "__post_init__", counting)
    typicality.Sequence(BIT, (0, 1))
    replace(typicality.Sequence(BIT, (1, 1)), symbols=(1, 0))
    assert calls == [(0, 1), (1, 1), (1, 0)]


def test_cached_properties_on_records(samples):
    dist, sub = samples["EdgeDistribution"], samples["Subgraph"]
    assert dist.per_letter is dist.per_letter

    # conditioning sorted left ids files no cache beside the survivors' fields
    bit = dist.x_alphabet
    sorted_left = diagnostics.edge_distribution(
        [0, 0, 1, 1], [0, 1, 0, 1], [(0, 0), (0, 1)], [(0, 0), (1, 1)], bit, bit
    )
    survivors = sorted_left.condition(0, 0)
    assert list(survivors.xids) == [0, 1]
    assert set(vars(survivors)) == set(survivors._fields)
    assert survivors.per_letter is survivors.per_letter
    assert set(vars(survivors)) == {*survivors._fields, "per_letter"}
