"""The whole-graph wring by joint types against the wring of its edges.

A rank CSV that is byte for byte a typicality graph's own export is wrung
from the graph's joint types (`diagnostics.graph_distribution`), with the
block MI read off those types (`diagnostics.block_mi`, which takes either
form of a law). On B2, T3 and random small joints, that run must give the
edge path's positions, values, surviving counts, fractions, verdicts and
Pinsker TVs, with every float within 1e-12, and σ must be the sum over the
graph's two degree tables bit for bit. A CSV that differs from the export
in any byte, of its size or another, takes the edge path. Implicit graphs
with more than 2^63 edges are wrung by their exact size.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
import typigraph.cli
import typigraph.typicality
from typigraph.cli import main
from typigraph.core import Alphabet, JointPmf, float_sum, replace, save_distribution
from typigraph.diagnostics import (
    block_mi,
    edge_distribution,
    graph_distribution,
    pinsker_check,
    wring,
)
from typigraph.graph import (
    GraphSpec, _is_export, _read_edge_csv, _rows, build_graph, edge_list, export_graph,
)
from typigraph.typicality import TypicalityParams, default_params, degree_table

PROPERTY = settings.get_profile("typigraph")

TERNARY = Alphabet((0, 1, 2))
T3 = JointPmf(
    TERNARY,
    TERNARY,
    tuple(
        tuple((Fraction(1, 5), Fraction(1, 5), Fraction(3, 10))[i] if i == j else Fraction(1, 20)
              for j in range(3))
        for i in range(3)
    ),
)
BIN = Alphabet((0, 1))
B2 = JointPmf(BIN, BIN, ((Fraction(2, 5), Fraction(1, 10)), (Fraction(1, 10), Fraction(2, 5))))
MAX_PAIRS = 20_000  # |L| x |R| of a drawn graph, so the edge path stays quick

slacks = st.builds(Fraction, st.integers(1, 6), st.integers(2, 12))


@st.composite
def graphs(draw):
    """(joint, n, params): B2 up to n = 8 and T3 up to n = 5 on their
    default slacks, or a random joint of up to three symbols a side on
    random slacks."""
    kind = draw(st.sampled_from(["b2", "t3", "random"]))
    if kind == "b2":
        n = draw(st.integers(1, 8))
        return B2, n, default_params(n)
    if kind == "t3":
        n = draw(st.integers(1, 5))
        return T3, n, default_params(n)
    kx, ky = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(0, 4), min_size=kx * ky, max_size=kx * ky).filter(any))
    total = sum(weights)
    probs = tuple(
        tuple(Fraction(weights[a * ky + b], total) for b in range(ky)) for a in range(kx)
    )
    joint = JointPmf(Alphabet(tuple(range(kx))), Alphabet(tuple(range(ky))), probs)
    params = TypicalityParams(eps1=draw(slacks), eps2=draw(slacks), lam=draw(slacks))
    return joint, draw(st.integers(1, 8)), params


def test_t3_export_and_its_recognition_test_no_pair_alone(tmp_path, monkeypatch):
    """T3 at n = 6 (480 x 480 rows, 77,850 edges): the export and its
    recognition read every row from the bit-sliced scan, which tests no
    pair alone."""

    def pair_test(*args):
        raise AssertionError("a pair was tested alone")

    monkeypatch.setattr(typigraph.typicality.JointTypeIndex, "count", pair_test)
    g = build_graph(GraphSpec(T3, 6, default_params(6)))
    header, ranks = str(tmp_path / "g.json"), str(tmp_path / "g.csv")
    export_graph(g, header, ranks)
    assert g.edge_count.value == 77_850
    assert _is_export(g, ranks)


def _close(a, b):
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)


@PROPERTY
@given(
    graphs(),
    st.floats(0.001, 1.0),
    st.one_of(st.none(), st.floats(0.0, 2.0)),
)
def test_type_path_matches_the_edge_path(tmp_path_factory, case, delta, sigma):
    joint, n, params = case
    g = build_graph(GraphSpec(joint, n, params))
    nl, nr = g.vertex_counts()
    assume(g.edge_count.value and nl * nr <= MAX_PAIRS)
    base = tmp_path_factory.mktemp("export")
    header, ranks = str(base / "g.json"), str(base / "g.csv")
    export_graph(g, header, ranks)
    assert _is_export(g, ranks)

    law = graph_distribution(g)
    assert law.size == g.edge_count.value
    left, right = list(_rows(g, "left")), list(_rows(g, "right"))
    dist = replace(
        edge_distribution(
            *_read_edge_csv(ranks, nl, nr), left, right, joint.row_alphabet, joint.col_alphabet
        ),
        distinct=True,
    )
    got = wring(law, delta, sigma)
    want = wring(dist, delta, sigma)

    assert (got.k, got.positions, got.values) == (want.k, want.positions, want.values)
    assert got.positions == tuple(range(got.k))  # exchangeable: the open positions tie
    assert got.survivors.size == want.survivors.size
    assert got.surviving_fraction == want.surviving_fraction
    assert _close(block_mi(got.survivors), block_mi(want.survivors))
    assert (got.converged, got.bound_ok) == (want.converged, want.bound_ok)
    assert _close(got.sigma, want.sigma)
    assert len(got.per_letter_mi) == len(want.per_letter_mi)
    assert all(map(_close, got.per_letter_mi, want.per_letter_mi))
    for s, t in zip(got.steps, want.steps, strict=True):
        assert (s.position, s.value, s.surviving, s.fraction) == (
            t.position, t.value, t.surviving, t.fraction
        )
        assert _close(s.max_mi_before, t.max_mi_before)
    if want.converged:
        tvs, want_tvs = pinsker_check(got.survivors, delta), pinsker_check(want.survivors, delta)
        assert len(tvs) == len(want_tvs) and all(map(_close, tvs, want_tvs))


# --- block MI by joint types --------------------------------------------------------


def _table_sigma(joint, n, params):
    """The block MI of a uniform edge from the two degree tables, in their
    order: log2 E minus the sum of size * deg / E * log2 deg."""
    tables = [degree_table(joint, params, n, side).values() for side in ("left", "right")]
    e = sum(size * deg for size, deg in tables[0])
    terms = (size * deg / e * math.log2(deg) for table in tables for size, deg in table if deg)
    return max(0.0, math.log2(e) - float_sum(terms))


@PROPERTY
@given(graphs(), st.sampled_from(["explicit", "implicit"]))
def test_type_block_mi_is_the_degree_table_sum(tmp_path_factory, case, mode):
    """σ of the type law is the degree tables' sum bit for bit, and the
    exported edges' MI within 1e-12 where the edges are few."""
    joint, n, params = case
    g = build_graph(GraphSpec(joint, n, params, mode))
    assume(g.edge_count.value)
    sigma = block_mi(graph_distribution(g))
    assert sigma == _table_sigma(joint, n, params)
    nl, nr = g.vertex_counts()
    if mode == "explicit" and nl * nr <= MAX_PAIRS:
        ranks = str(tmp_path_factory.mktemp("export") / "g.csv")
        export_graph(g, ranks + ".json", ranks)
        left, right = list(_rows(g, "left")), list(_rows(g, "right"))
        edges = [(left[i], right[j]) for i, j in zip(*_read_edge_csv(ranks, nl, nr))]
        assert _close(sigma, oracles.block_mi(edges))


@pytest.mark.parametrize("joint, n", [(B2, n) for n in range(2, 13)] + [(T3, n) for n in range(2, 7)])
def test_type_block_mi_on_b2_and_t3(joint, n):
    params = default_params(n)
    g = build_graph(GraphSpec(joint, n, params, "implicit"))
    assert block_mi(graph_distribution(g)) == _table_sigma(joint, n, params)


@pytest.mark.parametrize("n, types", [(40, 600), (100, 4641)])
def test_implicit_graphs_past_2_63_edges_are_wrung(n, types):
    """An implicit B2 graph whose edges overflow an index is wrung from its
    joint types by their exact size, σ taken from the law itself."""
    g = build_graph(GraphSpec(B2, n, default_params(n), "implicit"))
    law = graph_distribution(g)
    assert len(law.types) == types
    assert law.size == g.edge_count.value > 2**63
    result = wring(law, 0.05)
    assert result.converged and result.sigma == _table_sigma(B2, n, default_params(n))
    assert result.survivors.size == result.surviving_fraction * law.size
    tvs = pinsker_check(result.survivors, 0.05)
    assert len(tvs) == n and max(tvs) <= 2 * math.sqrt(0.05)


# --- recognition ------------------------------------------------------------------


def test_conditioning_a_fixed_position_again():
    """Conditioning a fixed position again keeps the law on its own code and
    empties it on another, for the joint types as for the edges."""
    g = build_graph(GraphSpec(B2, 5, default_params(5)))
    xids, yids = zip(*edge_list(g))
    left, right = list(_rows(g, "left")), list(_rows(g, "right"))
    edges = edge_distribution(list(xids), list(yids), left, right, BIN, BIN)
    for law in (graph_distribution(g), edges):
        fixed = law.condition(2, 1)
        assert 0 < fixed.size < law.size
        assert fixed.condition(2, 1) == fixed
        assert fixed.condition(2, 3).size == 0
    assert graph_distribution(g).condition(2, 1).size == edges.condition(2, 1).size


@pytest.fixture
def export(tmp_path, monkeypatch):
    """B2's n = 6 export, g.json and g.csv, in tmp_path as the working
    directory; the CSV's path."""
    monkeypatch.chdir(tmp_path)
    save_distribution(B2, "joint.json")
    assert main(["graph", "--dist", "joint.json", "--n", "6", "--out", "g.json",
                 "--edges", "g.csv"]) == 0
    return tmp_path / "g.csv"


def _wring(monkeypatch, capsys, forced_edges=False):
    """(exit code, stdout, record) of `wring` on g.csv with g.json."""
    with monkeypatch.context() as patch:
        if forced_edges:
            patch.setattr(typigraph.cli, "_is_export", lambda g, path: False)
        capsys.readouterr()
        rc = main(["wring", "--edges", "g.csv", "--graph", "g.json", "--delta", "0.05",
                   "--out", "w.json"])
    with open("w.json", "rb") as fh:
        return rc, capsys.readouterr().out, fh.read()


def _lines(path):
    return path.read_bytes().split(b"\r\n")


def _lf(path):
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))


def _blank_line(path):
    path.write_bytes(path.read_bytes() + b"\r\n")


def _swap_rows(path):
    lines = _lines(path)
    lines[1], lines[-2] = lines[-2], lines[1]
    path.write_bytes(b"\r\n".join(lines))


def _same_width_rank(path):
    """The last edge's right rank moved to another right rank of the same
    digit count that its left rank does not reach: same size, one byte off."""
    lines = _lines(path)
    i, j = lines[-2].split(b",")
    reached = {line.split(b",")[1] for line in lines[1:-1] if line.split(b",")[0] == i}
    other = next(
        str(k).encode()
        for k in range(10 ** (len(j) - 1), 10 ** len(j))
        if str(k).encode() not in reached
    )
    lines[-2] = i + b"," + other
    path.write_bytes(b"\r\n".join(lines))


def _no_type_path(g):
    raise AssertionError("the type path was taken")


def test_the_exact_export_takes_the_type_path(export, monkeypatch, capsys):
    """The type path gives the edge path's record, byte for byte."""
    typed = _wring(monkeypatch, capsys)
    assert typed == _wring(monkeypatch, capsys, forced_edges=True)
    assert typed[0] == 0 and b'"surviving_edges"' in typed[2]
    monkeypatch.setattr(typigraph.cli, "graph_distribution", _no_type_path)
    with pytest.raises(AssertionError, match="type path"):
        _wring(monkeypatch, capsys)


@pytest.mark.parametrize(
    "edit, resized",
    [(_lf, True), (_blank_line, True), (_swap_rows, False), (_same_width_rank, False)],
    ids=["lf-line-ends", "appended-blank-line", "two-rows-swapped", "same-width-rank"],
)
def test_an_edited_export_takes_the_edge_path(export, monkeypatch, capsys, edit, resized):
    """A CSV that differs from the export in any byte, of the export's size
    or another, is read as edges, to the record that reading gives."""
    size, edges = export.stat().st_size, len(_lines(export)) - 2
    edit(export)
    assert (export.stat().st_size != size) == resized
    want = _wring(monkeypatch, capsys, forced_edges=True)
    assert want[0] == 0
    monkeypatch.setattr(typigraph.cli, "graph_distribution", _no_type_path)
    assert _wring(monkeypatch, capsys) == want
    assert json.loads(want[2])["payload"]["edge_count_in"] == edges


def test_an_edgeless_export_has_no_edges(tmp_path, monkeypatch, capsys):
    """A graph with no edge exports a header-only CSV, which is no export
    to recognise: wring exits 2 with "no edges", as before."""
    monkeypatch.chdir(tmp_path)
    save_distribution(B2, "joint.json")
    assert main(["graph", "--dist", "joint.json", "--n", "3", "--lambda", "1/100",
                 "--out", "g.json", "--edges", "g.csv"]) == 0
    assert "edges=0" in capsys.readouterr().out
    assert main(["wring", "--edges", "g.csv", "--graph", "g.json", "--delta", "0.05"]) == 2
    assert "no edges" in capsys.readouterr().err
