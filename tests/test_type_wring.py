"""The wring by joint types against the wring of the edges.

A rank CSV that is byte for byte a typicality graph's own export is wrung
from the graph's joint types (`diagnostics.graph_distribution`), and one
that is a subgraph's own export from one joint type per u-run
(`diagnostics.subgraph_distribution`), with the block MI read off those
types (`diagnostics.block_mi`, which takes either form of a law). On B2,
T3 and random small joints, that run must give the edge path's
positions, values, surviving counts, fractions, verdicts and Pinsker TVs,
with every float within 1e-12, and a graph's σ must be the sum over its
two degree tables bit for bit. A CSV that differs from the export in any
byte, of its size or another, takes the edge path. Implicit graphs with
more than 2^63 edges are wrung by their exact size. Each wring reads its
`--graph` header once.
"""

import builtins
import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
import typigraph.cli
import typigraph.diagnostics
import typigraph.graph
import typigraph.typicality
from typigraph.cli import main
from typigraph.core import (
    Alphabet, CondPmf, JointPmf, Pmf, float_sum, product_alphabet, replace, save_distribution,
)
from typigraph.diagnostics import (
    block_mi,
    edge_distribution,
    graph_distribution,
    pinsker_check,
    subgraph_distribution,
    wring,
    wringing_to_dict,
)
from typigraph.graph import (
    GraphSpec, _is_export, _read_edge_csv, _rows, build_graph, edge_list, export_graph,
)
from typigraph.subgraphs import (
    _neighbour_rows, _spliced, build_aux_subgraph, build_exact_type_subgraph,
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
    assert [len(kinds) for _, kinds in law.blocks] == [types]  # one block, all positions
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
    for law in (graph_distribution(g), edges):
        with pytest.raises(IndexError):
            law.condition(5, 1)


@pytest.fixture
def export(tmp_path, monkeypatch):
    """B2's n = 6 export, g.json and g.csv, in tmp_path as the working
    directory; the CSV's path."""
    monkeypatch.chdir(tmp_path)
    save_distribution(B2, "joint.json")
    assert main(["graph", "--dist", "joint.json", "--n", "6", "--out", "g.json",
                 "--edges", "g.csv"]) == 0
    return tmp_path / "g.csv"


def _wring(monkeypatch, capsys, forced_edges=False, stem="g"):
    """(exit code, stdout, record) of `wring` on STEM.csv with STEM.json."""
    with monkeypatch.context() as patch:
        if forced_edges:
            patch.setattr(typigraph.cli, "_is_export", lambda g, path: False)
            patch.setattr(typigraph.cli, "_is_subgraph_export", lambda sub, path: False)
        capsys.readouterr()
        rc = main(["wring", "--edges", f"{stem}.csv", "--graph", f"{stem}.json",
                   "--delta", "0.05", "--out", "w.json"])
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


# --- subgraphs: one block per u-run --------------------------------------------------

ALPHABETS = (BIN, TERNARY)


@st.composite
def subgraphs(draw):
    """An `an` or a `gamma` subgraph of a random binary or ternary joint at
    n <= 8; a gamma channel has up to three letters and random rows."""
    x, y = draw(st.sampled_from(ALPHABETS)), draw(st.sampled_from(ALPHABETS))
    cells = x.size * y.size
    weights = draw(st.lists(st.integers(0, 4), min_size=cells, max_size=cells).filter(any))
    probs = tuple(
        tuple(Fraction(weights[a * y.size + b], sum(weights)) for b in range(y.size))
        for a in range(x.size)
    )
    joint, n = JointPmf(x, y, probs), draw(st.integers(1, 8))
    if draw(st.booleans()):
        return build_exact_type_subgraph(joint, n)
    u = Alphabet(tuple(range(draw(st.integers(1, 3)))))
    rows = []
    for _ in range(cells):
        w = draw(st.lists(st.integers(0, 3), min_size=u.size, max_size=u.size).filter(any))
        rows.append(Pmf(u, tuple(Fraction(v, sum(w)) for v in w)))
    channel = CondPmf(product_alphabet(x, y), u, tuple(rows))
    return build_aux_subgraph(joint, channel, n)


def _subgraph_edges(sub):
    """The listed edges of sub as an `EdgeDistribution`, and as symbol pairs."""
    left, right = list(_spliced(sub, "left")), list(_spliced(sub, "right"))
    xids, yids = [], []
    for i, nbrs in enumerate(_neighbour_rows(sub, left, right)):
        xids += [i] * len(nbrs)
        yids += nbrs
    joint = sub.joint
    dist = edge_distribution(xids, yids, left, right, joint.row_alphabet, joint.col_alphabet)
    return replace(dist, distinct=True), [(left[i], right[j]) for i, j in zip(xids, yids)]


@PROPERTY
@given(subgraphs(), st.floats(0.001, 1.0))
def test_the_block_law_matches_the_subgraph_edges(sub, delta):
    """One block per u-run, of one joint type each, gives the edge path's
    wringing record on every key but σ, and σ within 1e-12 of the edges'
    block MI; the Pinsker TVs and the survivors' MI agree too."""
    assume(sub.left_size.value * sub.left_degree.value <= MAX_PAIRS)
    law = subgraph_distribution(sub)
    assert len(law.blocks) == sum(1 for nu in sub.block_lengths if nu)
    dist, pairs = _subgraph_edges(sub)
    assert law.size == dist.size == len(pairs)
    assert law.letter_counts() == dist.letter_counts()
    assert _close(block_mi(law), oracles.block_mi(pairs))
    got, want = wring(law, delta), wring(dist, delta)
    got_record, want_record = wringing_to_dict(got), wringing_to_dict(want)
    assert _close(got_record.pop("sigma"), want_record.pop("sigma"))
    assert got_record == want_record
    assert _close(block_mi(got.survivors), block_mi(want.survivors))
    if want.converged:
        assert pinsker_check(got.survivors, delta) == pinsker_check(want.survivors, delta)


def test_the_benchmark_subgraph_sigma_rounds_alike(binary_joint):
    """B2's n = 12 `an` subgraph, graph_export's: σ by types is
    log2 E - 2 log2 36 and the edges' sum of 33,264 terms is 1.5e-12 off
    it; both round to the six digits that ws.json records."""
    sub = build_exact_type_subgraph(binary_joint, 12)
    law = subgraph_distribution(sub)
    assert law.size == 33_264 and len(law.blocks) == 1
    typed, edges = block_mi(law), block_mi(_subgraph_edges(sub)[0])
    assert typed == math.log2(33_264) - (math.log2(36) + math.log2(36))
    assert abs(typed - edges) < 2e-12
    assert round(typed, 6) == round(edges, 6) == 4.681824


def test_a_tampered_subgraph_count_is_no_law(binary_joint):
    sub = build_exact_type_subgraph(binary_joint, 6)
    forged = replace(sub, left_degree=replace(sub.left_degree, value=sub.left_degree.value + 1))
    with pytest.raises(typigraph.core.InvariantViolation, match="joint types hold"):
        subgraph_distribution(forged)


def _coin(joint):
    """A channel to U that is a fair coin whatever the pair: the gamma
    subgraph's two u-runs then have targets of their own."""
    half = Pmf(BIN, (Fraction(1, 2), Fraction(1, 2)))
    pairs = product_alphabet(joint.row_alphabet, joint.col_alphabet)
    return CondPmf(pairs, BIN, (half,) * pairs.size)


GAMMA = ["--kind", "gamma", "--aux", "coin.json"]


def _export_inputs(joint):
    """joint.json and coin.json in the working directory."""
    save_distribution(joint, "joint.json")
    save_distribution(_coin(joint), "coin.json")


@pytest.fixture(params=["an", "gamma"])
def sub_export(request, binary_joint, tmp_path, monkeypatch):
    """B2's n = 10 subgraph export of the given kind, s.json and s.csv, in
    tmp_path as the working directory; the CSV's path. The gamma export
    has two u-runs, of 6 and 4 positions, and 1,080 edges."""
    monkeypatch.chdir(tmp_path)
    _export_inputs(binary_joint)
    kind = ["--kind", "an"] if request.param == "an" else GAMMA
    assert main(["subgraph", "--dist", "joint.json", "--n", "10", *kind, "--out", "s.json",
                 "--edges", "s.csv"]) == 0
    return tmp_path / "s.csv"


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} was called on the subgraph's own export")

    return refused


def test_a_subgraph_export_takes_the_type_path(sub_export, monkeypatch, capsys):
    """The exact `an` and `gamma` exports are wrung from their u-runs'
    joint types, one block a run, reading no edge into columns, to the
    edge path's record byte for byte."""
    want = _wring(monkeypatch, capsys, forced_edges=True, stem="s")
    assert want[0] == 0
    blocks, law_of = [], typigraph.cli.subgraph_distribution

    def spied(sub):
        law = law_of(sub)
        blocks.append(len(law.blocks))
        return law

    with monkeypatch.context() as patch:
        for module in (typigraph.cli, typigraph.graph):
            patch.setattr(module, "_read_edge_csv", _refuse("_read_edge_csv"))
        for module in (typigraph.cli, typigraph.diagnostics):
            patch.setattr(module, "edge_distribution", _refuse("edge_distribution"))
        patch.setattr(typigraph.cli, "subgraph_distribution", spied)
        assert _wring(monkeypatch, capsys, stem="s") == want
    runs = json.loads((sub_export.parent / "s.json").read_text()).get("u_sequence")
    assert blocks == [len(set(runs)) if runs else 1]


def _drop_last_edge(path):
    data = path.read_bytes()
    path.write_bytes(data[: data.rindex(b"\n", 0, len(data) - 1) + 1])


@pytest.mark.parametrize(
    "edit, edges",
    [(_drop_last_edge, -1), (_blank_line, 0), (_same_width_rank, 0)],
    ids=["last-edge-dropped", "appended-blank-line", "one-rank-changed"],
)
def test_an_edited_subgraph_export_takes_the_edge_path(
    sub_export, monkeypatch, capsys, edit, edges
):
    """A subgraph CSV edited in one place is read as edges, to the record
    that reading gives."""
    count = len(_lines(sub_export)) - 2
    edit(sub_export)
    want = _wring(monkeypatch, capsys, forced_edges=True, stem="s")
    assert want[0] == 0
    monkeypatch.setattr(typigraph.cli, "subgraph_distribution", _no_type_path)
    assert _wring(monkeypatch, capsys, stem="s") == want
    assert json.loads(want[2])["payload"]["edge_count_in"] == count + edges


@pytest.mark.parametrize(
    "export_argv, stem, edited",
    [
        (["graph", "--n", "6"], "g", False),
        (["graph", "--n", "6"], "g", True),
        (["subgraph", "--kind", "an", "--n", "8"], "s", False),
        (["subgraph", "--kind", "an", "--n", "8"], "s", True),
        (["subgraph", *GAMMA, "--n", "8"], "s", False),
    ],
    ids=["graph-export", "graph-edited", "an-export", "an-edited", "gamma-export"],
)
def test_each_wring_reads_its_header_once(
    binary_joint, tmp_path, monkeypatch, capsys, export_argv, stem, edited
):
    """The --graph header is opened once per wring, for its schema and its
    import, on the type path and on the edge path."""
    monkeypatch.chdir(tmp_path)
    _export_inputs(binary_joint)
    assert main([*export_argv, "--dist", "joint.json", "--out", f"{stem}.json",
                 "--edges", f"{stem}.csv"]) == 0
    if edited:
        _blank_line(tmp_path / f"{stem}.csv")
    opened, real_open = [], builtins.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.path.basename(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    assert _wring(monkeypatch, capsys, stem=stem)[0] == 0
    assert opened.count(f"{stem}.json") == 1
