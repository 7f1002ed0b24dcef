import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import oracles
import typigraph.graph
from typigraph import typicality
from typigraph.core import Alphabet, InvariantViolation, JointPmf, id_typecode
from typigraph.graph import (
    CapExceeded,
    GraphSpec,
    TypicalityGraph,
    build_graph,
    check_degree_bound,
    edge_list,
    export_graph,
    import_graph,
    stats,
)
from typigraph.typicality import (
    Sequence,
    TypicalityParams,
    default_params,
    degree_table,
    is_jointly_typical,
)

BIN = Alphabet((0, 1))


def explicit(joint, n, params=None, cap=1 << 24):
    return build_graph(
        GraphSpec(joint, n, params or default_params(n), mode="explicit", cap=cap)
    )


def vertex_degrees(g):
    """Per-vertex degrees of both sides, counted off the streamed edges."""
    edges = list(edge_list(g))
    left = Counter(i for i, _ in edges)
    right = Counter(j for _, j in edges)
    nl, nr = g.vertex_counts()
    return [left[i] for i in range(nl)], [right[j] for j in range(nr)]


def test_binary_example_n4(binary_joint):
    g = explicit(binary_joint, 4)
    assert g.vertex_counts() == (14, 14)
    assert g.edge_count.value == 78
    # rosters in lexicographic order, walked afresh on each call
    for side in ("left", "right"):
        rows = [s.symbols for s in g.roster(side)]
        assert len(rows) == 14 and rows == sorted(rows)
        assert [s.symbols for s in g.roster(side)] == rows


def test_edges_match_brute_force(binary_joint):
    for n in (3, 4, 5):
        params = default_params(n)
        g = explicit(binary_joint, n)
        l, r, e = oracles.brute_pair_count(
            binary_joint.probs, params.eps1, params.eps2, params.lam, n
        )
        assert g.vertex_counts() == (l, r)
        assert g.edge_count.value == e


def test_adjacency_matches_predicate(binary_joint):
    n = 5
    g = explicit(binary_joint, n)
    lam = g.spec.params.lam
    want = {
        (i, j)
        for i, x in enumerate(g.roster("left"))
        for j, y in enumerate(g.roster("right"))
        if is_jointly_typical(x, y, binary_joint, lam)
    }
    assert set(edge_list(g)) == want


def test_implicit_agrees_with_explicit(binary_joint):
    for n in (4, 6):
        params = default_params(n)
        ge = explicit(binary_joint, n)
        gi = build_graph(GraphSpec(binary_joint, n, params, mode="implicit"))
        assert isinstance(gi, TypicalityGraph)
        for side in ("left", "right"):
            with pytest.raises(ValueError, match="implicit graph holds no rosters"):
                gi.roster(side)
        assert gi.vertex_counts() == ge.vertex_counts()
        assert gi.edge_count.value == ge.edge_count.value
        # per-vertex degrees through exact counting
        ld, rd = vertex_degrees(ge)
        left, right = list(ge.roster("left")), list(ge.roster("right"))
        for i in (0, len(left) // 2, len(left) - 1):
            assert gi.degree_of(left[i], "left").value == ld[i]
        for j in (0, len(right) - 1):
            assert gi.degree_of(right[j], "right").value == rd[j]
        # nothing per vertex or per edge without rosters
        for needs_rosters in (stats, lambda g: next(edge_list(g))):
            with pytest.raises(ValueError, match="rosters"):
                needs_rosters(gi)


def test_degree_views(binary_joint):
    g = explicit(binary_joint, 4)
    ld, rd = vertex_degrees(g)
    assert [g.degree_of(x, "left").value for x in g.roster("left")] == ld
    assert [g.degree_of(y, "right").value for y in g.roster("right")] == rd
    assert sum(ld) == g.edge_count.value == sum(rd)
    with pytest.raises(ValueError):
        g.degree_of(next(g.roster("left")), "middle")
    with pytest.raises(ValueError):
        g.roster("middle")


def test_degree_of_refuses_another_alphabet(binary_joint):
    """A sequence over ("a", "b") got the degree of its (0, 1) twin."""
    n = 8
    g = build_graph(GraphSpec(binary_joint, n, default_params(n), mode="implicit"))
    symbols = (0, 1) * 4
    assert g.degree_of(Sequence(BIN, symbols), "left").value == 121
    for side in ("left", "right"):
        with pytest.raises(ValueError, match=f"joint's {side} alphabet"):
            g.degree_of(Sequence(Alphabet(("a", "b")), symbols), side)


def test_degree_of_reads_the_built_table(binary_joint, monkeypatch):
    """build_graph keeps the left kernel whose table it read: a typical left
    x is looked up there, with no kernel work."""
    n = 8
    g = build_graph(GraphSpec(binary_joint, n, default_params(n), mode="implicit"))
    kernel = g._kernels["left"]

    def no_work(*args):
        raise AssertionError("a table hit did kernel work")

    monkeypatch.setattr(kernel, "_degree", no_work)
    monkeypatch.setattr(kernel, "check", no_work)
    typical = Sequence(BIN, (0, 1) * 4)
    assert g.degree_of(typical, "left").value == kernel.table()[(4, 4)][1]


def test_degree_of_counts_a_type_off_the_table(binary_joint):
    """A non-typical x is counted by the side's kernel; a side whose table
    is not built gets a kernel but no table."""
    n = 8
    params = default_params(n)
    g = build_graph(GraphSpec(binary_joint, n, params, mode="implicit"))
    lopsided = Sequence(BIN, (0,) * 8)  # (8, 0) is not eps1-typical
    assert (8, 0) not in g._table("left")
    assert g.degree_of(lopsided, "left").value == oracles.row_type_degree(
        binary_joint.probs, (8, 0), params.eps2, params.lam, n
    )
    typical = Sequence(BIN, (0, 1) * 4)
    assert g.degree_of(typical, "right").value == g.degree_of(typical, "left").value
    assert g._kernels["right"]._table is None


def test_degree_of_every_right_type_shares_one_kernel(monkeypatch):
    """After build_graph, degree_of over every typical right type builds one
    kernel, and its degrees are those of the right degree table."""
    third = Alphabet((0, 1, 2))
    diag = (Fraction(1, 5), Fraction(1, 5), Fraction(3, 10))
    t3 = JointPmf(third, third, tuple(
        tuple(diag[i] if i == j else Fraction(1, 20) for j in range(3)) for i in range(3)
    ))
    n = 10
    params = default_params(n)
    g = build_graph(GraphSpec(t3, n, params, mode="implicit"))
    built = []

    class Counted(typicality._DegreeKernel):
        def __init__(self, *args):
            built.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(typigraph.graph, "_DegreeKernel", Counted)
    want = degree_table(t3, params, n, "right")
    for counts, (_, degree) in want.items():
        y = Sequence(third, tuple(b for b, c in enumerate(counts) for _ in range(c)))
        assert g.degree_of(y, "right").value == degree
    assert built == ["right"]
    assert g._kernels["right"]._table is None


def test_cap_exceeded(binary_joint):
    with pytest.raises(CapExceeded):
        explicit(binary_joint, 30, cap=1000)
    # implicit mode ignores the candidate cap
    gi = build_graph(
        GraphSpec(binary_joint, 30, default_params(30), mode="implicit", cap=1000)
    )
    assert gi.left_count.value > 1000


def test_spec_validation(binary_joint):
    with pytest.raises(ValueError):
        GraphSpec(binary_joint, 0, default_params(4))
    with pytest.raises(ValueError):
        GraphSpec(binary_joint, 4, default_params(4), mode="lazy")
    with pytest.raises(ValueError):
        GraphSpec(binary_joint, 4, default_params(4), cap=0)


def test_stats_and_isolated(binary_joint):
    g = explicit(binary_joint, 6)
    st = stats(g)
    assert st.left_size.value == len(list(g.roster("left")))
    ld, rd = vertex_degrees(g)
    assert st.isolated_left == ld.count(0)
    assert st.isolated_right == rd.count(0)
    assert st.left_degree_log2_max >= st.left_degree_log2_min
    assert st.edge_count.value == g.edge_count.value


def test_isolated_vertices_survive():
    # lopsided joint at tight slack: some typical x have no jointly typical y
    j = JointPmf(
        BIN,
        BIN,
        ((Fraction(49, 100), Fraction(1, 100)), (Fraction(1, 100), Fraction(49, 100))),
    )
    params = TypicalityParams(
        eps1=Fraction(1, 2), eps2=Fraction(1, 2), lam=Fraction(1, 100)
    )
    g = build_graph(GraphSpec(j, 4, params))
    st = stats(g)
    assert st.isolated_left > 0  # retained in the roster, not dropped
    assert st.left_size.value == 16


def test_check_degree_bound_passes(binary_joint):
    for n in (4, 6, 8):
        g = explicit(binary_joint, n)
        rep = check_degree_bound(g)
        assert rep.all_ok
        assert rep.violations == ()
        assert rep.worst_slack_bits_per_symbol >= -1e-12


def test_edge_list_order(binary_joint):
    g = explicit(binary_joint, 4)
    edges = list(edge_list(g))
    assert edges == sorted(edges)
    assert len(edges) == g.edge_count.value


def test_export_import_roundtrip(binary_joint, tmp_path):
    g = explicit(binary_joint, 4)
    jpath = tmp_path / "g.json"
    cpath = tmp_path / "g.csv"
    export_graph(g, str(jpath), str(cpath))

    g2 = import_graph(str(jpath), str(cpath))
    assert list(edge_list(g2)) == list(edge_list(g))
    for side in ("left", "right"):
        assert list(g2.roster(side)) == list(g.roster(side))

    # rebuild-from-spec path (no CSV)
    g3 = import_graph(str(jpath))
    assert list(edge_list(g3)) == list(edge_list(g))

    # byte-identical re-export
    blob = jpath.read_bytes()
    export_graph(g2, str(jpath), str(cpath))
    assert jpath.read_bytes() == blob


def test_import_rejects_tampered_header(binary_joint, tmp_path):
    import json

    g = explicit(binary_joint, 4)
    jpath = tmp_path / "g.json"
    export_graph(g, str(jpath))
    doc = json.loads(jpath.read_text())
    doc["left_size"] = 13
    jpath.write_text(json.dumps(doc))
    with pytest.raises(InvariantViolation):
        import_graph(str(jpath))

    doc["schema"] = "typigraph.graph/0"
    jpath.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema"):
        import_graph(str(jpath))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row, g: ["-1", row[1]], "outside"),
        (lambda row, g: [row[0], str(g.right_count.value)], "outside"),
        (lambda row, g: [row[0], "1.5"], "integer"),
        (lambda row, g: row + ["0"], "integer"),
        (lambda row, g: None, "repeated"),
    ],
    ids=["negative-left", "right-past-end", "non-integer", "three-fields", "repeated"],
)
def test_import_rejects_bad_edge_ranks(binary_joint, tmp_path, edit, message):
    g = explicit(binary_joint, 4)
    jpath = tmp_path / "g.json"
    cpath = tmp_path / "g.csv"
    export_graph(g, str(jpath), str(cpath))
    lines = cpath.read_text().splitlines()
    row = edit(lines[5].split(","), g)
    # None: repeat the row above, so the edge count stays the same
    lines[5] = lines[4] if row is None else ",".join(row)
    cpath.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"row 6.*{message}"):
        import_graph(str(jpath), str(cpath))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines, g: lines[:4] + [lines[5], lines[4]] + lines[6:], "row 5: edge"),
        (lambda lines, g: lines[:5] + [non_edge(g)] + lines[6:], "row 6: edge"),
        (lambda lines, g: lines[:-1], "ends before the last edge"),
    ],
    ids=["swapped", "non-edge", "truncated"],
)
def test_import_checks_edges_against_the_graph(binary_joint, tmp_path, edit, message):
    g = explicit(binary_joint, 4)
    jpath, cpath = tmp_path / "g.json", tmp_path / "g.csv"
    export_graph(g, str(jpath), str(cpath))
    lines = edit(cpath.read_text().splitlines(), g)
    cpath.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        import_graph(str(jpath), str(cpath))


@pytest.mark.parametrize(
    "body",
    [
        "0,0,1\n1\n",  # a cell moved up a row: two commas for two rows
        "0,0\n0,1\n0,1\n1,0\n",  # a repeat next to its original
        "1,0\n0,1\n1,0\n",  # a repeat in an unsorted file
        '"0",1\n1,0\n',  # quoted cells: csv reads them as integers
        "0,0\r0,1\r1,1\r",  # bare CR line ends
        "0,0\r\n\r\n 0 , 1 \r\n",  # blank row and padded ranks
        "+0,1\n01,1\n-0,0\n",  # spellings int reads, and the exports never write
        "0,1\n \n1,1\n",  # a row of one space is not blank
        "0,1\n2,0\n",  # left rank out of range
        "+0,1\n0,1\n0,x\n",  # a repeat, then a bad row: the repeat is reported
        "+0,1\n1,1\n2,0\n1,1\n",  # a bad row, then a repeat: the bad row is reported
        "0,1\n1,0",  # no final line end
        "\n0,0\r\n\r\n1,1\n\n",  # blank rows first, between and last
        "",  # header only
    ],
)
def test_bulk_edge_reader_edge_cases(tmp_path, body):
    """Every chunk size reads what the row-by-row reference reads, and a
    readable file spelled as the exports spell ranks is read in bulk."""
    path = tmp_path / "e.csv"
    path.write_bytes(("left_rank,right_rank\n" + body).encode())
    try:
        want = [(i, j) for _, i, j in oracles.read_edge_csv(str(path), 2, 2)]
    except ValueError as exc:
        want = str(exc)
    for chunk in range(1, len(body) + 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(typigraph.graph, "_CSV_CHUNK", chunk)
            try:
                got = list(zip(*typigraph.graph._read_edge_csv(str(path), 2, 2)))
            except ValueError as exc:
                got = str(exc)
            bulk = typigraph.graph._bulk_edge_columns(str(path), 2, 2)
        assert got == want, chunk
        if bulk is not None:
            assert list(zip(*bulk)) == want, chunk
        elif not oracles.non_canonical_ranks(body):
            assert not isinstance(want, list), chunk


@pytest.mark.parametrize("size, code", [(2, "B"), (256, "B"), (257, "H"), (65_536, "H"),
                                        (65_537, "I")])
@pytest.mark.parametrize("spelling", ["canonical", "non-canonical"])
def test_edge_readers_return_the_narrowest_unsigned_ids(tmp_path, size, code, spelling):
    """The bulk reader and the row-by-row fallback return equal pairs as
    arrays of the narrowest unsigned typecode that holds the roster's
    ranks, whether the ranks are spelled as the exports spell them or not."""
    pairs = list(dict.fromkeys([(0, size - 1), (1, 0), (size - 1, 1), (size - 1, size - 2)]))
    spell = str if spelling == "canonical" else "+{}".format
    path = tmp_path / "e.csv"
    path.write_text(
        "left_rank,right_rank\n" + "".join(f"{spell(i)},{spell(j)}\n" for i, j in pairs)
    )
    got = []
    for bulk in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if not bulk:
                mp.setattr(typigraph.graph, "_bulk_edge_columns", lambda *args: None)
            columns = typigraph.graph._read_edge_csv(str(path), size, size)
        assert [c.typecode for c in columns] == [code, code] == [id_typecode(size)] * 2
        got.append(list(zip(*columns)))
    assert got == [pairs, pairs]
    bulk = typigraph.graph._bulk_edge_columns(str(path), size, size)
    assert (bulk is None) is (spelling == "non-canonical")


def test_shuffled_rank_csv_is_checked_for_repeats_in_small_memory(tmp_path):
    """A rank CSV of 150,000 distinct edges in shuffled order is read in bulk
    and checked for repeated edges under 32 bytes of traced memory per
    edge: six for the two-byte id columns and one two-byte copy of the
    right ids grouped by left id, the rest room for one chunk's
    temporaries, about 1.2 MB at any size. A list and a set of every packed
    key (94 bytes per edge in all) go past it."""
    sizes, edges = (1000, 900), 150_000
    rng = random.Random(1)
    keys = rng.sample(range(sizes[0] * sizes[1]), edges)
    path = tmp_path / "e.csv"
    path.write_text(
        "left_rank,right_rank\n" + "".join(f"{k // sizes[1]},{k % sizes[1]}\n" for k in keys)
    )
    tracemalloc.start()
    try:
        lefts, rights = typigraph.graph._read_edge_csv(str(path), *sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(lefts) == [k // sizes[1] for k in keys]
    assert list(rights) == [k % sizes[1] for k in keys]
    assert peak < 32 * edges, f"{peak / edges:.1f} bytes per edge"
    with open(path, "a") as fh:  # one edge twice: not plain, so the row reader names it
        fh.write(f"{keys[7] // sizes[1]},{keys[7] % sizes[1]}\n")
    assert typigraph.graph._bulk_edge_columns(str(path), *sizes) is None


def _traced_read(path, sizes):
    """The id columns of the rank CSV at path and the traced peak of reading it."""
    tracemalloc.start()
    try:
        columns = typigraph.graph._read_edge_csv(str(path), *sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return columns, peak


def test_sorted_rank_csv_is_read_in_small_memory(tmp_path):
    """A sorted rank CSV of 150,000 edges, as the exports write it, is read
    in bulk under 18 bytes of traced memory per edge: four for the two-byte
    id columns, the rest room for one chunk's text, cells and lists. A step
    that keeps its temporaries while the next chunk is read holds two
    chunks' worth, 23 bytes per edge at this size."""
    sizes, edges = (1000, 900), 150_000
    keys = sorted(random.Random(3).sample(range(sizes[0] * sizes[1]), edges))
    path = tmp_path / "e.csv"
    path.write_text(
        "left_rank,right_rank\n" + "".join(f"{k // sizes[1]},{k % sizes[1]}\n" for k in keys)
    )
    (lefts, rights), peak = _traced_read(path, sizes)
    assert list(zip(lefts, rights)) == [divmod(k, sizes[1]) for k in keys]
    assert peak < 18 * edges, f"{peak / edges:.1f} bytes per edge"


def test_row_reader_checks_repeats_in_small_memory(tmp_path):
    """A rank CSV of 120,000 edges with every left rank spelled "+i" is read
    row by row and checked for repeats under 20 bytes of traced memory per
    edge: the two id columns and the grouped copy of `_repeats`. A set of
    every packed key (about 88 bytes per edge) goes past it. A repeat that
    follows is still named by its row."""
    sizes, edges = (1000, 900), 120_000
    keys = sorted(random.Random(5).sample(range(sizes[0] * sizes[1]), edges))
    path = tmp_path / "e.csv"
    path.write_text(
        "left_rank,right_rank\n" + "".join(f"+{k // sizes[1]},{k % sizes[1]}\n" for k in keys)
    )
    assert typigraph.graph._bulk_edge_columns(str(path), *sizes) is None
    (lefts, rights), peak = _traced_read(path, sizes)
    assert list(zip(lefts, rights)) == [divmod(k, sizes[1]) for k in keys]
    assert peak < 20 * edges, f"{peak / edges:.1f} bytes per edge"
    with open(path, "a") as fh:
        fh.write(f"{keys[9] // sizes[1]},{keys[9] % sizes[1]}\n")
    i, j = divmod(keys[9], sizes[1])
    with pytest.raises(ValueError, match=rf"row {edges + 2}: repeated edge \({i}, {j}\)"):
        typigraph.graph._read_edge_csv(str(path), *sizes)


def non_edge(g):
    edges = set(edge_list(g))
    i, j = next(p for p in itertools.product(range(14), repeat=2) if p not in edges)
    return f"{i},{j}"


def test_export_edge_cap_before_any_file(binary_joint, tmp_path):
    g = explicit(binary_joint, 4, cap=100)  # rosters of 14 fit, 196 pairs do not
    jpath, cpath = tmp_path / "g.json", tmp_path / "g.csv"
    with pytest.raises(CapExceeded, match="14 x 14 = 196"):
        export_graph(g, str(jpath), str(cpath))
    assert not jpath.exists() and not cpath.exists()
    export_graph(g, str(jpath))
    assert jpath.exists()


def test_degree_bound_violation_names_side_type_degree_bound(binary_joint, monkeypatch):
    g = explicit(binary_joint, 4)
    monkeypatch.setattr(typigraph.graph, "_cond_ball_size", lambda w, counts, slack: 1)
    rep = check_degree_bound(g)
    assert not rep.all_ok
    ld, rd = vertex_degrees(g)
    want = {
        (side, tuple(x.symbols.count(s) for s in (0, 1)), deg, 1)
        for side, degs in (("left", ld), ("right", rd))
        for x, deg in zip(g.roster(side), degs)
        if deg > 1
    }
    assert set(rep.violations) == want
    assert len(rep.violations) == len(want)  # one per type, not per vertex
