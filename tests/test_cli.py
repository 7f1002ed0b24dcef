import csv
import hashlib
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import typigraph.cli
import typigraph.deviation
import typigraph.diagnostics
import typigraph.graph
import typigraph.typicality
from typigraph.cli import main
from typigraph.core import (
    Alphabet, CondPmf, InvariantViolation, JointPmf, Pmf, product_alphabet, replace,
    save_distribution,
)
from typigraph.diagnostics import block_mi
from typigraph.subgraphs import import_subgraph

BIN = Alphabet((0, 1))


@pytest.fixture
def joint_file(binary_joint, tmp_path):
    path = tmp_path / "joint.json"
    save_distribution(binary_joint, str(path))
    return str(path)


@pytest.fixture
def copy_file(copy_channel, tmp_path):
    path = tmp_path / "copy.json"
    save_distribution(copy_channel, str(path))
    return str(path)


# --- info -------------------------------------------------------------------


def test_info_prints_all_quantities(joint_file, capsys):
    assert main(["info", "--dist", joint_file]) == 0
    out = capsys.readouterr().out
    assert "H(X) = 1.000000" in out
    assert "H(XY) = 1.721928" in out
    assert "H(Y|X) = 0.721928" in out
    assert "I(X;Y) = 0.278072" in out


def test_info_product_prints_zero_mi(tmp_path, capsys):
    j = JointPmf(BIN, BIN, ((Fraction(1, 4),) * 2,) * 2)
    path = tmp_path / "prod.json"
    save_distribution(j, str(path))
    assert main(["info", "--dist", str(path)]) == 0
    assert "I(X;Y) = 0.000000" in capsys.readouterr().out


def test_info_missing_file_exits_2(tmp_path, capsys):
    rc = main(["info", "--dist", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_info_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "pmf", "alphabet": [0, 1], "probs": ["1/2", "1/3"]}))
    rc = main(["info", "--dist", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.json" in err


def test_info_refuses_a_repeated_key(tmp_path, capsys):
    """A joint whose "probs" appears twice exits 2 naming the key, rather
    than summarising the last copy."""
    path = tmp_path / "twice.json"
    path.write_text(
        '{"type": "joint_pmf", "row_alphabet": [0, 1], "col_alphabet": [0, 1],'
        ' "probs": [["1/4", "1/4"], ["1/4", "1/4"]],'
        ' "probs": [["1/2", "0"], ["0", "1/2"]]}'
    )
    assert main(["info", "--dist", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: repeated key 'probs'" in captured.err


def test_info_json_record(joint_file, tmp_path):
    out = tmp_path / "rec.json"
    assert main(["info", "--dist", joint_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "typigraph.run/1"
    assert doc["config_sha256"]
    assert doc["payload"]["I(X;Y)"] == pytest.approx(0.278072)


def test_info_csv_record(joint_file, tmp_path):
    out = tmp_path / "rec.csv"
    assert main(["info", "--dist", joint_file, "--out", str(out), "--format", "csv"]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["quantity", "bits"]
    assert ["I(X;Y)", "0.278072"] in rows


def test_info_pmf_only_entropy(tmp_path, capsys):
    save_distribution(Pmf(BIN, (Fraction(2, 5), Fraction(3, 5))), str(tmp_path / "p.json"))
    assert main(["info", "--dist", str(tmp_path / "p.json")]) == 0
    out = capsys.readouterr().out
    assert "H(X) = 0.970951" in out
    assert "I(X;Y)" not in out


# --- graph -------------------------------------------------------------------


def test_graph_stats_line_and_export(joint_file, tmp_path, capsys):
    out = tmp_path / "g.json"
    edges = tmp_path / "g.csv"
    rc = main(
        ["graph", "--dist", joint_file, "--n", "4", "--out", str(out), "--edges", str(edges)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "left=14 right=14" in stdout
    assert "degree-bound: PASS" in stdout
    doc = json.loads(out.read_text())
    assert doc["schema"] == "typigraph.graph/1"
    assert doc["config_sha256"]
    assert doc["left_size"] == 14
    with open(edges) as fh:
        assert fh.readline().strip() == "left_rank,right_rank"


def test_graph_deterministic_bytes(joint_file, tmp_path):
    out = tmp_path / "g.json"
    main(["graph", "--dist", joint_file, "--n", "4", "--out", str(out)])
    first = out.read_bytes()
    main(["graph", "--dist", joint_file, "--n", "4", "--out", str(out)])
    assert out.read_bytes() == first


def test_graph_export_bytes_pinned(binary_joint, tmp_path, monkeypatch, capsys):
    # Recorded before the rosters came from one lexicographic box walk (they
    # were sorted type-class unions): the edge ranks pin the roster order.
    # Relative paths, because the config echo stamped into g.json holds them.
    monkeypatch.chdir(tmp_path)
    save_distribution(binary_joint, "joint.json")
    rc = main(["graph", "--dist", "joint.json", "--n", "8", "--out", "g.json",
               "--edges", "g.csv"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "left=238 right=238 edges=16814 isolated_left=0 isolated_right=0\n"
        "degree-bound: PASS (worst slack 0.135142 bits/symbol)\n"
    )
    assert hashlib.sha256((tmp_path / "g.json").read_bytes()).hexdigest() == (
        "29ac4fc0d6cd33ad24af28cf71ed234d65c962331cfa52c3ad3042db95c5f631"
    )
    assert hashlib.sha256((tmp_path / "g.csv").read_bytes()).hexdigest() == (
        "ee3087e0da5f7c239c1a542dc59c79139d85459130b71c2088526ac194659c11"
    )


def test_graph_cap_exit_3(joint_file, capsys):
    rc = main(["graph", "--dist", joint_file, "--n", "30", "--cap", "1000"])
    assert rc == 3
    assert "implicit" in capsys.readouterr().err


def test_graph_implicit_mode(joint_file, capsys):
    rc = main(["graph", "--dist", joint_file, "--n", "30", "--cap", "1000", "--mode", "implicit"])
    assert rc == 0
    assert "left=" in capsys.readouterr().out


def test_graph_implicit_record_bytes_pinned(binary_joint, tmp_path, monkeypatch, capsys):
    """`graph --mode implicit --out` writes a run record of the three exact
    counts, as decimal strings, and the edge count's log2."""
    monkeypatch.chdir(tmp_path)
    save_distribution(binary_joint, "joint.json")
    assert main(["graph", "--dist", "joint.json", "--n", "40", "--mode", "implicit",
                 "--out", "imp.json"]) == 0
    assert capsys.readouterr().out == (
        "left=1010791520232 right=1010791520232 edges=81669492725057891399460\n"
    )
    assert hashlib.sha256((tmp_path / "imp.json").read_bytes()).hexdigest() == (
        "b4973d22cbb943107e2ff9a835f39d24d5f9b6a886b9ef5f94000da74eff215c"
    )


def test_graph_failing_degree_bound_exits_4_after_writing(
    binary_joint, joint_file, tmp_path, monkeypatch, capsys
):
    """With every conditional ball cut to one sequence, each type of degree
    above 1 violates the bound: graph prints FAIL with their number, still
    writes --out, and exits 4."""
    monkeypatch.setattr(typigraph.graph, "_cond_ball_size", lambda w, counts, slack: 1)
    g = typigraph.graph.build_graph(
        typigraph.graph.GraphSpec(binary_joint, 4, typigraph.typicality.default_params(4))
    )
    k = sum(deg > 1 for side in ("left", "right") for _, deg in g._table(side).values())
    assert k > 0
    out = tmp_path / "g.json"
    assert main(["graph", "--dist", joint_file, "--n", "4", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert f"degree-bound: FAIL ({k} violations)" in captured.out
    assert "degree bound violated" in captured.err
    assert json.loads(out.read_text())["schema"] == "typigraph.graph/1"


def test_subgraph_counts_past_the_int_str_digit_limit(joint_file, tmp_path, capsys):
    """B2's an subgraph at n = 15000: its counts run past 4,300 decimal
    digits, where int-to-str stops by default, and are printed, exported and
    imported again, with the limit left in place."""
    out = tmp_path / "s.json"
    args = ["subgraph", "--dist", joint_file, "--kind", "an", "--n", "15000", "--out", str(out)]
    assert main(args) == 0
    left = capsys.readouterr().out.split()[0].removeprefix("left=")
    doc = json.loads(out.read_text())
    assert len(left) > 4300 and doc["left_size"]["value"] == left
    sub = import_subgraph(str(out))
    if sys.get_int_max_str_digits():
        with pytest.raises(ValueError):
            str(sub.left_size.value)
    doc["left_size"]["value"] = left[:-1] + str(9 - int(left[-1]))
    out.write_text(json.dumps(doc))
    with pytest.raises(InvariantViolation, match="left_size"):
        import_subgraph(str(out))


def test_graph_param_overrides(joint_file, capsys):
    rc = main(["graph", "--dist", joint_file, "--n", "4", "--lambda", "1/4"])
    assert rc == 0
    rc = main(["graph", "--dist", joint_file, "--n", "4", "--eps1", "0"])
    assert rc == 2  # slacks must be positive
    rc = main(["graph", "--dist", joint_file, "--n", "4", "--schedule", "warp"])
    assert rc == 2
    # the schedule is resolved up front, also when every slack is given
    slacks = ["--eps1", "1/4", "--eps2", "1/4", "--lambda", "1/4"]
    capsys.readouterr()
    rc = main(["graph", "--dist", joint_file, "--n", "4", *slacks, "--schedule", "warp"])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown schedule 'warp'\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["graph", "--n", "4", "--edges", "e.csv"], "--out"),
        (["subgraph", "--kind", "an", "--n", "6", "--edges", "e.csv"], "--out"),
        (
            ["graph", "--n", "4", "--mode", "implicit", "--out", "h.json", "--edges", "e.csv"],
            "--mode explicit",
        ),
    ],
    ids=["graph-no-out", "subgraph-no-out", "graph-implicit"],
)
def test_edges_flag_misuse_exit_2(joint_file, tmp_path, capsys, monkeypatch, argv, flag):
    """--edges that would write nothing is refused before any work."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(typigraph.cli, "_load_joint", no_work)
    monkeypatch.chdir(tmp_path)
    rc = main(argv + ["--dist", joint_file])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--edges" in err and flag in err
    assert list(tmp_path.iterdir()) == [tmp_path / "joint.json"]


def test_graph_edge_cap_between_roster_and_pair_counts(joint_file, tmp_path, capsys):
    """n=4 has 14 x 14 = 196 pairs: a cap of 100 admits the rosters, not the scan."""
    out, edges = tmp_path / "g.json", tmp_path / "g.csv"
    base = ["graph", "--dist", joint_file, "--n", "4", "--cap", "100", "--out", str(out)]
    assert main(base) == 0
    out.unlink()
    capsys.readouterr()
    assert main(base + ["--edges", str(edges)]) == 3
    err = capsys.readouterr().err
    assert "14 x 14 = 196" in err and "--mode implicit" not in err
    assert not out.exists() and not edges.exists()


def test_graph_header_scans_no_pair(joint_file, tmp_path, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a sequence pair was scanned")

    monkeypatch.setattr(typigraph.typicality.JointTypeIndex, "scan", no_scan)
    out = tmp_path / "g.json"
    assert main(["graph", "--dist", joint_file, "--n", "6", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["edges_csv"] is False


def test_graph_computes_stats_once(joint_file, tmp_path, monkeypatch):
    calls = []
    real = typigraph.graph.stats

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(typigraph.cli, "stats", counted)
    monkeypatch.setattr(typigraph.graph, "stats", counted)
    out = tmp_path / "g.json"
    assert main(["graph", "--dist", joint_file, "--n", "6", "--out", str(out)]) == 0
    assert len(calls) == 1


# --- subgraph ----------------------------------------------------------------


def test_subgraph_an_verification(joint_file, tmp_path, capsys):
    out = tmp_path / "an.json"
    rc = main(
        ["subgraph", "--dist", joint_file, "--n", "10", "--kind", "an", "--out", str(out)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "single-type verification: PASS" in stdout
    assert "left=252 right=252" in stdout
    doc = json.loads(out.read_text())
    assert doc["kind"] == "single_type"
    assert doc["config_sha256"]


def test_subgraph_edge_cap_exit_3(joint_file, tmp_path, capsys):
    out, edges = tmp_path / "s.json", tmp_path / "s.csv"
    rc = main(
        ["subgraph", "--dist", joint_file, "--n", "12", "--kind", "an", "--cap", "10",
         "--out", str(out), "--edges", str(edges)]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "exceeds cap 10" in err
    assert "Traceback" not in err and "--mode" not in err
    assert not out.exists() and not edges.exists()


def test_subgraph_edges_b2_n14(joint_file, tmp_path):
    """168,168 edges, listed per left vertex: the 3432 x 3432 = 11,778,624
    candidate pairs are over the default cap, the edges are not."""
    out, edges = tmp_path / "s.json", tmp_path / "s.csv"
    assert main(
        ["subgraph", "--dist", joint_file, "--n", "14", "--kind", "an",
         "--out", str(out), "--edges", str(edges)]
    ) == 0
    with open(edges, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 168_168
    assert Counter(int(i) for i, _ in rows) == dict.fromkeys(range(3432), 49)


@pytest.mark.parametrize("n", [8, 12, pytest.param(None, id="graph")])
def test_subgraph_edges_and_rank_wring_build_no_sequence_per_row(
    joint_file, tmp_path, capsys, monkeypatch, n
):
    """Rosters are kept as symbol rows: a subgraph edge export and its
    rank-CSV wring build the u-sequence and nothing per roster row, at 70
    rows a side (n=8) as at 924 (n=12), and a graph edge export and its
    wring, at 912 rows a side (n=10), build no Sequence at all."""
    graph = n is None
    export, n = (["graph"], 10) if graph else (["subgraph", "--kind", "an"], n)
    calls = []
    init = typigraph.typicality.Sequence.__post_init__

    def counted(self):
        calls.append(1)
        init(self)

    monkeypatch.setattr(typigraph.typicality.Sequence, "__post_init__", counted)
    out, edges = tmp_path / "s.json", tmp_path / "s.csv"
    assert main(
        export + ["--dist", joint_file, "--n", str(n), "--out", str(out), "--edges", str(edges)]
    ) == 0
    assert len(calls) == (0 if graph else 1)
    assert main(["wring", "--edges", str(edges), "--graph", str(out), "--delta", "0.05"]) == 0
    assert len(calls) == (0 if graph else 2)
    assert "wring:" in capsys.readouterr().out


def test_subgraph_gamma_requires_aux(joint_file, capsys):
    rc = main(["subgraph", "--dist", joint_file, "--n", "12", "--kind", "gamma"])
    assert rc == 2
    assert "--aux" in capsys.readouterr().err


def test_subgraph_gamma_with_copy_channel(joint_file, copy_file, capsys):
    rc = main(
        ["subgraph", "--dist", joint_file, "--n", "12", "--kind", "gamma", "--aux", copy_file]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "aux verification: PASS" in out
    assert "blocks=2" in out


def test_subgraph_gamma_wrong_aux_type(joint_file, tmp_path, capsys):
    bad = tmp_path / "notcond.json"
    save_distribution(Pmf(BIN, (Fraction(1, 2), Fraction(1, 2))), str(bad))
    rc = main(
        ["subgraph", "--dist", joint_file, "--n", "12", "--kind", "gamma", "--aux", str(bad)]
    )
    assert rc == 2


def test_subgraph_gamma_channel_off_the_joint_names_aux(tmp_path, capsys):
    """A channel that does not condition on the joint's pair alphabet exits
    2 naming the --aux file."""
    joint, aux = tmp_path / "t.json", tmp_path / "bin_aux.json"
    t = Alphabet((0, 1, 2))
    save_distribution(JointPmf(t, t, ((Fraction(1, 9),) * 3,) * 3), str(joint))
    pairs = product_alphabet(BIN, BIN)
    half = Pmf(BIN, (Fraction(1, 2), Fraction(1, 2)))
    save_distribution(CondPmf(pairs, BIN, (half,) * 4), str(aux))
    rc = main(["subgraph", "--dist", str(joint), "--n", "6", "--kind", "gamma",
               "--aux", str(aux)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {aux}:") and "pair alphabet" in err


def test_subgraph_failing_verification_exits_4(joint_file, tmp_path, monkeypatch, capsys):
    """A failed rate verification prints FAIL, still writes --out, and
    exits 4."""
    verify = typigraph.cli.verify_single_type
    monkeypatch.setattr(
        typigraph.cli, "verify_single_type", lambda sub: replace(verify(sub), all_ok=False)
    )
    out = tmp_path / "s.json"
    assert main(["subgraph", "--dist", joint_file, "--n", "8", "--kind", "an",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "single-type verification: FAIL" in captured.out
    assert "rate verification failed" in captured.err
    assert import_subgraph(str(out)).kind == "single_type"


# Byte pins for the subgraph export, recorded before the single-type
# subgraph became the auxiliary construction with a one-letter U. The runs
# use relative paths because the config echo stamped into s.json holds them.
SUBGRAPH_PINS = {
    "an": (
        ["--kind", "an", "--n", "8"],
        (
            "left=70 right=70 left_degree=16 right_degree=16\n"
            "rates: r_x=0.766160 r_y=0.766160 r_x'=0.500000 r_y'=0.500000 "
            "gen-slack=0.000000 nc-slack=0.266160\n"
            "single-type verification: PASS\n"
            "containment: left=True right=True edges=True premise_ok=True\n"
        ),
        "454ed9295e685b116b4d917a42e8e7f3ec17bcce5f24f336190ac11b24eb775f",
        "a4d36c3b0852baa057dd086d6a3b2d5ab81f2e0f19f63f877f8000a08e4b9cde",
    ),
    "gamma": (
        ["--kind", "gamma", "--aux", "copy.json", "--n", "12"],
        (
            "left=1 right=36 left_degree=36 right_degree=1 blocks=2\n"
            "rates: r_x=0.000000 r_y=0.430827 r_x'=0.000000 r_y'=0.430827 "
            "gen-slack=0.000000 nc-slack=0.000000\n"
            "aux verification: PASS\n"
            "containment: left=True right=True edges=True premise_ok=True\n"
        ),
        "d688ff1611aed98f5047077b507afbdd0ccd4a95e0e4aaec58460b4583a95ddd",
        "44a6099cd0dc33b3a09a8060e4a77fcf4f4b49d8d767fbe25552d185740e5c22",
    ),
}


@pytest.mark.parametrize("kind", sorted(SUBGRAPH_PINS))
def test_subgraph_export_bytes_pinned(
    binary_joint, copy_channel, tmp_path, monkeypatch, capsys, kind
):
    args, stdout, json_sha, csv_sha = SUBGRAPH_PINS[kind]
    monkeypatch.chdir(tmp_path)
    save_distribution(binary_joint, "joint.json")
    save_distribution(copy_channel, "copy.json")
    rc = main(["subgraph", "--dist", "joint.json", *args,
               "--out", "s.json", "--edges", "s.csv"])
    assert rc == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256((tmp_path / "s.json").read_bytes()).hexdigest() == json_sha
    assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == csv_sha


# --- simulate ----------------------------------------------------------------


def test_simulate_outputs(joint_file, tmp_path, capsys):
    out = tmp_path / "sim.json"
    args = [
        "simulate", "--dist", joint_file, "--n", "8",
        "--r1", "2/8", "--r2", "2/8", "--trials", "200", "--seed", "9",
        "--out", str(out),
    ]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert "bracket verdict:" in stdout
    doc = json.loads(out.read_text())
    assert doc["payload"]["monte_carlo"]["trials"] == 200
    assert doc["payload"]["bracket"]["high"] <= 1.0
    moments = doc["payload"]["moments"]
    assert moments["tau"] == round(float(Fraction(moments["alpha"])), 6)  # tau is alpha
    csv_path = tmp_path / "sim.csv"
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["a", "empirical", "suen"]
    assert len(rows) == 12  # header + 11 grid points

    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first  # fixed (config, seed): identical bytes


T3 = JointPmf(
    Alphabet((0, 1, 2)),
    Alphabet((0, 1, 2)),
    tuple(
        tuple((Fraction(1, 5), Fraction(1, 5), Fraction(3, 10))[i] if i == j else Fraction(1, 20)
              for j in range(3))
        for i in range(3)
    ),
)


def test_simulate_bytes_pinned(binary_joint, tmp_path, monkeypatch, capsys):
    """The record and CSV of a small run at r1 = r2 = 2/n: on B2 at n = 12
    as recorded before `deviation.bracket` took over the bracket's
    assembly, on T3 at n = 8 as recorded while its pairs were still counted
    one by one."""
    monkeypatch.chdir(tmp_path)
    cases = [
        (
            binary_joint, 12,
            "P(U=0): empirical=0.013500 wilson99=[0.008281, 0.021937] "
            "bracket=[0.000000, 0.641180]\n",
            {
                "mc.json": "27e4d374993fad9a5ffa0916887f3ce35479b660f8070a1745388d108684e086",
                "mc.csv": "124e1909fbc6bbe7e05406f51510d3c8fca90c8e32e30c5fe59db06076c293e7",
            },
        ),
        (
            T3, 8,
            "P(U=0): empirical=0.000000 wilson99=[0.000000, 0.003306] "
            "bracket=[0.000000, 0.641180]\n",
            {
                "mc.json": "717dcb733df47cdb2d7fe3611c38611bce5b824baf630294fbcb6591feb87d64",
                "mc.csv": "f917059b9d99b7228b64e924437e0d00b145afb948fc3a9c9921ea02dbf2b7c4",
            },
        ),
    ]
    for joint, n, stdout, digests in cases:
        save_distribution(joint, "joint.json")
        rate = f"2/{n}"
        rc = main(["simulate", "--dist", "joint.json", "--n", str(n), "--r1", rate, "--r2", rate,
                   "--trials", "2000", "--seed", "7", "--out", "mc.json"])
        assert rc == 0
        assert capsys.readouterr().out == stdout + "bracket verdict: inside\n"
        assert {
            out: hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
            for out in ("mc.json", "mc.csv")
        } == digests


def test_simulate_cap_exit_3(joint_file, tmp_path, capsys):
    """2 * 4096^2 pair tests are over the cap: refused before the exact
    moments, the trials or any write."""
    out = tmp_path / "sim.json"
    args = [
        "simulate", "--dist", joint_file, "--n", "12", "--r1", "1", "--r2", "1",
        "--trials", "2", "--seed", "1", "--out", str(out),
    ]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert "exceed cap" in captured.err
    assert "Traceback" not in captured.err and "--mode" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "joint.json"]


def test_simulate_cap_message_gives_log2_of_work(joint_file, capsys):
    # M1 = 2^1100, M2 = 2^4: the work is stated as a power of two
    args = ["simulate", "--dist", joint_file, "--n", "4", "--r1", "275",
            "--r2", "1", "--trials", "1", "--seed", "1"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "2^1104.0 Monte Carlo pair tests exceed cap" in err
    assert len(err) < 120


def test_simulate_d3_at_n50_exit_0(tmp_path, monkeypatch, capsys):
    """D3 (3/4 split over the diagonal) at n=50: the joint ball holds
    30,095,340 count matrices, which once exited 3 on a cap on listing
    them. The ball is filed per pair of codeword types instead, so no whole
    count matrix is listed and the run writes its record."""
    listed = typigraph.typicality._compositions_in_boxes

    def no_whole_matrix(boxes, total):
        assert len(boxes) < 9, "a whole count matrix was listed"
        return listed(boxes, total)

    monkeypatch.setattr(typigraph.typicality, "_compositions_in_boxes", no_whole_matrix)
    a = Alphabet((0, 1, 2))
    d3 = JointPmf(a, a, tuple(
        tuple(Fraction(1, 4) if i == j else Fraction(1, 24) for j in range(3))
        for i in range(3)
    ))
    path, out = tmp_path / "d3.json", tmp_path / "mc.json"
    save_distribution(d3, str(path))
    args = ["simulate", "--dist", str(path), "--n", "50", "--r1", "1/50",
            "--r2", "1/50", "--trials", "10", "--seed", "1", "--out", str(out)]
    assert main(args) == 0
    assert "Traceback" not in capsys.readouterr().err
    mc = json.loads(out.read_text())["payload"]["monte_carlo"]
    assert (mc["trials"], mc["m1"], mc["m2"]) == (10, 2, 2)


@pytest.mark.parametrize("command", [
    ["graph"],
    ["graph", "--mode", "implicit"],
    ["simulate", "--r1", "1/20", "--r2", "1/20", "--trials", "1", "--seed", "1"],
])
def test_kernel_cap_exit_3(command, diagonal_joint, tmp_path, monkeypatch, capsys):
    """D5 at n=20: the joint-type kernel's work bound is 7,348,706,873 steps,
    over 2^30. Both subcommands are refused from the bound, before a type or
    a composition is listed and before the joint ball is built; the error
    does not point to implicit mode, which is refused alike."""

    def unlisted(*args):
        raise AssertionError("compositions were listed")

    monkeypatch.setattr(typigraph.typicality, "_compositions_in_boxes", unlisted)
    monkeypatch.setattr(typigraph.typicality, "_box_rows", unlisted)
    monkeypatch.setattr(typigraph.typicality.JointTypeIndex, "ball", unlisted)
    path = tmp_path / "d5.json"
    save_distribution(diagonal_joint(5), str(path))
    args = [command[0], "--dist", str(path), "--n", "20", *command[1:]]
    assert main(args) == 3
    captured = capsys.readouterr()
    message = "kernel at n=20 needs up to 7348706873 steps (2^32.8), over cap 1073741824"
    assert message in captured.err
    assert "Traceback" not in captured.err and "--mode" not in captured.err
    assert captured.out == ""


def test_simulate_validation(joint_file):
    base = ["simulate", "--dist", joint_file, "--n", "8", "--r1", "0.25", "--r2", "0.25"]
    assert main(base + ["--trials", "0", "--seed", "1"]) == 2
    assert main(base + ["--trials", "10", "--seed", "-1"]) == 2
    assert main(
        ["simulate", "--dist", joint_file, "--n", "8", "--r1", "-0.5",
         "--r2", "0.25", "--trials", "10", "--seed", "1"]
    ) == 2


def test_simulate_codebook_out_of_float_range_exit_2(joint_file, capsys):
    # n*r1 = 1100.5: 2^(n*r1) is no float and no exact power of two
    args = ["simulate", "--dist", joint_file, "--n", "4", "--r1", "2201/8",
            "--r2", "1/4", "--trials", "1", "--seed", "1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "1100.5" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--r1", "--r2"])
def test_simulate_rate_out_of_float_range_exit_2(joint_file, flag, capsys):
    rates = {"--r1": "1/4", "--r2": "1/4", flag: "1e400"}
    args = ["simulate", "--dist", joint_file, "--n", "4", *(a for kv in rates.items() for a in kv),
            "--trials", "1", "--seed", "1"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert f"{flag}: 1e400 is out of float range" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def _simulate_counting_kernels(monkeypatch, path):
    """Run `simulate` on the joint at path; (kernels built, by side; their
    check and table calls; typical-set sums)."""
    built, calls, sums = [], [], []
    real_sum = typigraph.typicality.typical_set_size

    class Counted(typigraph.typicality._DegreeKernel):
        @classmethod
        def of_side(cls, joint, params, n, side, kernels=()):
            kernel = super().of_side(joint, params, n, side, kernels)
            if kernel not in kernels:  # built for this side
                built.append(side)
                kernel.side = side
            return kernel

        def check(self, type_boxes=None):
            calls.append(("check", self.side))
            super().check(type_boxes)

        def table(self):
            calls.append(("table", self.side))
            return super().table()

    def counted_sum(*args, **kwargs):
        sums.append(args)
        return real_sum(*args, **kwargs)

    for module in (typigraph.typicality, typigraph.graph, typigraph.deviation):
        monkeypatch.setattr(module, "_DegreeKernel", Counted)
        monkeypatch.setattr(module, "typical_set_size", counted_sum)
    args = ["simulate", "--dist", path, "--n", "8", "--r1", "2/8", "--r2", "2/8",
            "--trials", "20", "--seed", "3"]
    assert main(args) == 0
    return built, calls, sums


def test_simulate_builds_one_kernel_per_side(lopsided_joint, tmp_path, monkeypatch):
    """One run on a joint with no symmetry: one degree kernel per side,
    each bounded and its table built once, the ones whose tables give the
    moments, and no typical-set sum."""
    path = tmp_path / "lopsided.json"
    save_distribution(lopsided_joint, str(path))
    built, calls, sums = _simulate_counting_kernels(monkeypatch, str(path))
    assert built == ["left", "right"]
    assert calls[:2] == [("check", "left"), ("check", "right")]
    assert [c for c in calls if c[0] == "table"] == [("table", "left"), ("table", "right")]
    assert sums == []


def test_simulate_shares_one_kernel_on_a_symmetric_joint(joint_file, monkeypatch):
    """B2 is its own transpose and eps1 = eps2: the right side's shape is
    the left's, so one kernel is built, bounded first, and its one table
    gives both sides' moments."""
    built, calls, sums = _simulate_counting_kernels(monkeypatch, joint_file)
    assert built == ["left"]
    assert calls[0] == ("check", "left")
    assert [c for c in calls if c[0] == "table"] == [("table", "left")]
    assert sums == []


# --- wring ---------------------------------------------------------------------


def write_xy_csv(path, pairs):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in pairs:
            writer.writerow([" ".join(map(str, x)), " ".join(map(str, y))])


def test_wring_xy_csv(tmp_path, capsys):
    path = tmp_path / "edges.csv"
    pairs = []
    for i in range(16):
        bits = tuple((i >> (7 - t)) & 1 for t in range(8))
        pairs.append((bits, bits))
    write_xy_csv(path, pairs)
    out = tmp_path / "trace.json"
    rc = main(["wring", "--edges", str(path), "--delta", "0.05", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "k=4" in stdout
    assert "converged=True" in stdout
    doc = json.loads(out.read_text())
    assert doc["payload"]["surviving_fraction"] == "1/16"
    assert doc["payload"]["pinsker_tv"] is not None


def test_wring_product_edges_k0(tmp_path, capsys):
    path = tmp_path / "prod.csv"
    xs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    write_xy_csv(path, [(x, y) for x in xs for y in xs])
    rc = main(["wring", "--edges", str(path), "--delta", "0.05"])
    assert rc == 0
    assert "k=0" in capsys.readouterr().out


def _drop_last_edge(path):
    """Cut an edge CSV's last line: an export so cut is no longer the
    graph's own bytes, so wring reads its edges."""
    data = path.read_bytes()
    path.write_bytes(data[: data.rindex(b"\n", 0, len(data) - 1) + 1])


def test_wring_rank_csv_via_graph_header(joint_file, tmp_path, capsys, monkeypatch):
    gjson = tmp_path / "g.json"
    gcsv = tmp_path / "g.csv"
    main(["graph", "--dist", joint_file, "--n", "4", "--out", str(gjson), "--edges", str(gcsv)])
    _drop_last_edge(gcsv)
    capsys.readouterr()

    # past recognition, the rosters come from the header alone: the edge
    # path scans no pair
    def no_scan(*args, **kwargs):
        raise AssertionError("a sequence pair was scanned while reading a graph header")

    with monkeypatch.context() as patch:
        patch.setattr(typigraph.cli, "_is_export", lambda g, path: False)
        patch.setattr(typigraph.typicality.JointTypeIndex, "scan", no_scan)
        rc = main(
            ["wring", "--edges", str(gcsv), "--graph", str(gjson), "--delta", "0.3"]
        )
    assert rc == 0
    assert "wring:" in capsys.readouterr().out

    # ranks without a header file: config error
    rc = main(["wring", "--edges", str(gcsv), "--delta", "0.3"])
    assert rc == 2


def _refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} ran on the graph's own export")

    return refused


def test_wring_of_a_graph_export_reads_no_edge(joint_file, tmp_path, capsys, monkeypatch):
    """The exact export is wrung from the graph's joint types: its edges
    are not read into columns, its block MI is summed over joint types,
    not edges, no Sequence is built, and each roster is walked once, to
    recognise the file."""
    gjson, gcsv = tmp_path / "g.json", tmp_path / "g.csv"
    main(["graph", "--dist", joint_file, "--n", "4", "--out", str(gjson), "--edges", str(gcsv)])
    capsys.readouterr()
    for module, name in ((typigraph.cli, "_read_edge_csv"), (typigraph.cli, "edge_distribution")):
        monkeypatch.setattr(module, name, _refuse(name))
    block_mi, laws = typigraph.diagnostics.block_mi, []

    def by_types(law):
        laws.append(type(law).__name__)
        return block_mi(law)

    monkeypatch.setattr(typigraph.diagnostics, "block_mi", by_types)
    monkeypatch.setattr(typigraph.typicality.Sequence, "__post_init__", _refuse("Sequence"))
    walks, rows = [], typigraph.graph._rows

    def walked(g, side):
        walks.append(side)
        return rows(g, side)

    monkeypatch.setattr(typigraph.graph, "_rows", walked)
    monkeypatch.setattr(typigraph.cli, "_rows", walked)
    rc = main(["wring", "--edges", str(gcsv), "--graph", str(gjson), "--delta", "0.3"])
    assert rc == 0
    assert "wring:" in capsys.readouterr().out
    assert sorted(walks) == ["left", "right"]
    assert laws == ["TypeDistribution"]


def test_wring_of_a_graph_export_works_no_id(joint_file, tmp_path, capsys, monkeypatch):
    """Twin of the sorted-rank test on the exact export: the type path
    neither counts nor joins any id column, and still conditions."""
    gjson, gcsv = tmp_path / "g.json", tmp_path / "g.csv"
    assert main(["graph", "--dist", joint_file, "--n", "8", "--out", str(gjson),
                 "--edges", str(gcsv)]) == 0
    seen = []
    real_counter, real_joined = typigraph.diagnostics.Counter, typigraph.diagnostics._joined

    def counter(items=()):
        seen.append(list(items))
        return real_counter(seen[-1])

    def joined(enc, ids):
        seen.append(list(ids))
        return real_joined(enc, ids)

    monkeypatch.setattr(typigraph.diagnostics, "Counter", counter)
    monkeypatch.setattr(typigraph.diagnostics, "_joined", joined)
    capsys.readouterr()
    assert main(["wring", "--edges", str(gcsv), "--graph", str(gjson), "--delta", "0.02"]) == 0
    assert "k=0" not in capsys.readouterr().out
    assert seen == []


def test_wring_rejects_tampered_edge_count(joint_file, tmp_path, capsys):
    gjson = tmp_path / "g.json"
    gcsv = tmp_path / "g.csv"
    main(["graph", "--dist", joint_file, "--n", "4", "--out", str(gjson), "--edges", str(gcsv)])
    doc = json.loads(gjson.read_text())
    doc["edge_count"]["value"] = str(int(doc["edge_count"]["value"]) + 1)
    gjson.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["wring", "--edges", str(gcsv), "--graph", str(gjson), "--delta", "0.3"])
    assert rc == 4
    assert "edge count" in capsys.readouterr().err


def test_wring_empty_csv_exit_2(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y\n")
    assert main(["wring", "--edges", str(path), "--delta", "0.1"]) == 2
    path2 = tmp_path / "zero.csv"
    path2.write_text("")
    assert main(["wring", "--edges", str(path2), "--delta", "0.1"]) == 2


def test_wring_malformed_header_exit_2(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    assert main(["wring", "--edges", str(path), "--delta", "0.1"]) == 2


def test_wring_bad_rank_exit_2(joint_file, tmp_path):
    gjson = tmp_path / "g.json"
    main(["graph", "--dist", joint_file, "--n", "4", "--out", str(gjson)])
    path = tmp_path / "ranks.csv"
    path.write_text("left_rank,right_rank\n99,0\n")
    rc = main(["wring", "--edges", str(path), "--graph", str(gjson), "--delta", "0.1"])
    assert rc == 2


@pytest.mark.parametrize(
    "export",
    [
        ["graph", "--n", "4"],
        ["subgraph", "--kind", "an", "--n", "8"],
    ],
    ids=["graph", "subgraph"],
)
def test_wring_rejects_doubled_rank_csv(joint_file, tmp_path, capsys, export):
    header = tmp_path / "h.json"
    ranks = tmp_path / "e.csv"
    main(export + ["--dist", joint_file, "--out", str(header), "--edges", str(ranks)])
    lines = ranks.read_text().splitlines()
    ranks.write_text("\n".join(lines + lines[1:]) + "\n")
    capsys.readouterr()
    rc = main(["wring", "--edges", str(ranks), "--graph", str(header), "--delta", "0.3"])
    assert rc == 2
    assert f"row {len(lines) + 1}: repeated edge" in capsys.readouterr().err


SUBGRAPH_AN8 = ["subgraph", "--kind", "an", "--n", "8"]


def _drop(doc, path):
    *parents, last = path.split(".")
    for key in parents:
        doc = doc[key]
    del doc[last]


@pytest.mark.parametrize(
    "export, edit, message",
    [
        (SUBGRAPH_AN8, {"kind": "foo"}, "unknown subgraph kind 'foo'"),
        (SUBGRAPH_AN8, "kind", "no 'kind'"),
        (SUBGRAPH_AN8, "spec.n", "no 'spec.n'"),
        (["graph", "--n", "4"], "spec", "no 'spec'"),
        (["graph", "--n", "4"], "edge_count", "no 'edge_count'"),
        (["graph", "--n", "4"], "left_size", "no 'left_size'"),
        (["graph", "--n", "4"], "spec.params.eps1", "no 'spec.params.eps1'"),
        (SUBGRAPH_AN8, "spec.params.eps1", "no 'spec.params.eps1'"),
        (SUBGRAPH_AN8, "spec.params.schedule", "no 'spec.params.schedule'"),
    ],
    ids=["subgraph-kind-foo", "subgraph-no-kind", "subgraph-no-n",
         "graph-no-spec", "graph-no-edge-count", "graph-no-left-size",
         "graph-no-eps1", "subgraph-no-eps1", "subgraph-no-schedule"],
)
def test_wring_malformed_export_header_exit_2(
    joint_file, tmp_path, capsys, export, edit, message
):
    header, ranks = tmp_path / "h.json", tmp_path / "e.csv"
    main(export + ["--dist", joint_file, "--out", str(header), "--edges", str(ranks)])
    doc = json.loads(header.read_text())
    if isinstance(edit, dict):
        doc.update(edit)
    else:
        _drop(doc, edit)
    header.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["wring", "--edges", str(ranks), "--graph", str(header), "--delta", "0.3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert f"error: {header}: " in err


def test_wring_implicit_graph_header_exit_2(joint_file, tmp_path, capsys):
    """A graph header whose spec reads implicit mode names no rosters for
    the ranks: one error line, not a traceback."""
    header, ranks = tmp_path / "h.json", tmp_path / "e.csv"
    main(["graph", "--n", "4", "--dist", joint_file, "--out", str(header), "--edges", str(ranks)])
    doc = json.loads(header.read_text())
    doc["spec"]["mode"] = "implicit"
    header.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["wring", "--edges", str(ranks), "--graph", str(header), "--delta", "0.3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {header}: an implicit graph holds no rosters" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, forged, exact",
    [("left_size", "71", 70), ("right_size", "71", 70),
     ("left_degree", "17", 16), ("right_degree", "17", 16)],
)
def test_wring_tampered_subgraph_count_exit_4(
    joint_file, tmp_path, capsys, field, forged, exact
):
    header, ranks = tmp_path / "s.json", tmp_path / "s.csv"
    main(SUBGRAPH_AN8 + ["--dist", joint_file, "--out", str(header), "--edges", str(ranks)])
    doc = json.loads(header.read_text())
    doc[field]["value"] = forged
    header.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["wring", "--edges", str(ranks), "--graph", str(header), "--delta", "0.3"])
    assert rc == 4
    err = capsys.readouterr().err
    assert f"{field} {forged}" in err and f"rebuilt {exact}" in err


@pytest.mark.parametrize(
    "row, message",
    [("0,x", "integer"), ("0,1,2", "integer"), ("14,0", "outside"), ("0,-1", "outside")],
)
def test_wring_names_bad_rank_row(joint_file, tmp_path, capsys, row, message):
    gjson = tmp_path / "g.json"
    main(["graph", "--dist", joint_file, "--n", "4", "--out", str(gjson)])
    path = tmp_path / "ranks.csv"
    path.write_text(f"left_rank,right_rank\n0,0\n{row}\n")
    capsys.readouterr()
    rc = main(["wring", "--edges", str(path), "--graph", str(gjson), "--delta", "0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 3" in err and message in err


@pytest.mark.parametrize(
    "row", ["0 1,1 0,zz", "0 1", "0 1,1 0,"], ids=["three-cells", "one-cell", "trailing-comma"]
)
def test_wring_names_bad_label_row(tmp_path, capsys, row):
    """A label row of other than two cells is refused by its CSV row (a
    blank row counts), as a bad rank row is: it is neither cut to two
    cells nor indexed past its end."""
    path = tmp_path / "labels.csv"
    path.write_text(f"x,y\n0 1,1 0\n\n{row}\n1 0,0 1\n")
    capsys.readouterr()
    assert main(["wring", "--edges", str(path), "--delta", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "label CSV row 4: expected two cells" in err and repr(row.split(",")) in err


@pytest.mark.parametrize(
    "row, message",
    [("0 1 1,0 1", "lengths 3 and 2"), ("0 1,1", "lengths 2 and 1"),
     ("1 0 1,0 1 1", "lengths 3 and 3"), (" ,0 1", "a sequence is empty")],
    ids=["longer-x", "shorter-y", "both-longer", "empty-x"],
)
def test_wring_names_label_row_of_another_blocklength(tmp_path, capsys, row, message):
    """A label row whose sequences are empty or not of the first edge row's
    blocklength is refused by its CSV row, as a row of other than two
    cells is."""
    path = tmp_path / "labels.csv"
    path.write_text(f"x,y\n0 1,1 0\n\n{row}\n1 0,0 1\n")
    capsys.readouterr()
    assert main(["wring", "--edges", str(path), "--delta", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "label CSV row 4: " in err and message in err
    assert "a sequence is empty" in message or "row 2 sets the blocklength 2" in err


@pytest.mark.parametrize(
    "text, xrows, x_symbols",
    [
        ("x,y\n1 0 1,0 0 1\n01 0 1,1 0 1\n",
         (("1", "0", "1"), ("01", "0", "1")), ("0", "01", "1")),
        ("x,y\n1_0 0,0 1\n10 0,1 1\n", (("1_0", "0"), ("10", "0")), ("0", "10", "1_0")),
        ("x,y\n1 0 1,0 0 1\n-1 0 1,1 0 1\n", ((1, 0, 1), (-1, 0, 1)), (-1, 0, 1)),
    ],
    ids=["zero-padded", "underscore", "canonical"],
)
def test_label_tokens_are_ints_only_in_canonical_spelling(tmp_path, text, xrows, x_symbols):
    """A label column is read as ints only when every token is its int's
    canonical spelling; otherwise its tokens stay strings, so "01" and "1",
    or "1_0" and "10", are distinct labels and their rows distinct x rows."""
    path = tmp_path / "labels.csv"
    path.write_text(text)
    dist = typigraph.cli._label_distribution(str(path))
    x = dist.x_alphabet.symbols
    assert tuple(tuple(x[k] for k in row) for row in dist.xrows) == xrows
    assert x == x_symbols and list(dist.xids) == [0, 1]


@pytest.mark.parametrize("text", ["", "x,y\n", "x,y\r\n\r\n"], ids=["empty", "header", "blank-rows"])
def test_wring_of_a_csv_without_edges_says_no_edges(tmp_path, capsys, text):
    path = tmp_path / "edges.csv"
    path.write_text(text)
    capsys.readouterr()
    assert main(["wring", "--edges", str(path), "--delta", "0.1"]) == 2
    assert f"{path}: no edges" in capsys.readouterr().err


def _set(doc, path, value):
    *parents, last = path.split(".")
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "export, path, value, message",
    [
        (SUBGRAPH_AN8, "spec.n", "8", "'spec.n' should be int, found '8'"),
        (SUBGRAPH_AN8, "spec.n", 8.0, "'spec.n' should be int, found 8.0"),
        (SUBGRAPH_AN8, "left_size.value", 70, "'left_size.value' should be str, found 70"),
        (SUBGRAPH_AN8, "left_size.value", "070", "decimal integer string, found '070'"),
        (SUBGRAPH_AN8, "kind", ["an"], "'kind' should be str, found ['an']"),
        (["graph", "--n", "4"], "spec.n", True, "'spec.n' should be int, found True"),
        (["graph", "--n", "4"], "spec.cap", "big", "'spec.cap' should be int, found 'big'"),
        (["graph", "--n", "4"], "left_size", "14", "'left_size' should be int, found '14'"),
        (["graph", "--n", "4"], "edge_count.value", "abc", "decimal integer string, found 'abc'"),
        (["graph", "--n", "4"], "spec.params.eps1", 0.5, "'spec.params.eps1' should be str, found 0.5"),
        (SUBGRAPH_AN8, "spec.params.eps1", 0.5, "'spec.params.eps1' should be str, found 0.5"),
        (["graph", "--n", "4"], "spec.params.eps2", "wide",
         "'spec.params.eps2' should be a fraction string, found 'wide'"),
        (SUBGRAPH_AN8, "spec.params.lambda", "1/0",
         "'spec.params.lambda' should be a fraction string, found '1/0'"),
        (SUBGRAPH_AN8, "spec.params.schedule", None,
         "'spec.params.schedule' should be str, found None"),
    ],
    ids=["subgraph-n-str", "subgraph-n-float", "subgraph-count-int", "subgraph-count-zero-pad",
         "subgraph-kind-list", "graph-n-bool", "graph-cap-str", "graph-size-str",
         "graph-edge-count-abc", "graph-eps1-float", "subgraph-eps1-float", "graph-eps2-word",
         "subgraph-lambda-zero-den", "subgraph-schedule-null"],
)
def test_wring_export_header_value_types_exit_2(
    joint_file, tmp_path, capsys, export, path, value, message
):
    header, ranks = tmp_path / "h.json", tmp_path / "e.csv"
    main(export + ["--dist", joint_file, "--out", str(header), "--edges", str(ranks)])
    doc = json.loads(header.read_text())
    _set(doc, path, value)
    header.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["wring", "--edges", str(ranks), "--graph", str(header), "--delta", "0.3"])
    assert rc == 2
    err = capsys.readouterr().err
    # the fault is named under the header file, not the edge CSV
    assert f"error: {header}: export header " in err and message in err
    assert str(ranks) not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--delta", "nan"], "delta must be positive and finite"),
        (["--delta", "inf"], "delta must be positive and finite"),
        (["--delta", "0"], "delta must be positive and finite"),
        (["--delta", "0.05", "--sigma", "nan"], "sigma must be nonnegative and finite"),
        (["--delta", "0.05", "--sigma", "inf"], "sigma must be nonnegative and finite"),
        (["--delta", "0.05", "--sigma", "-1"], "sigma must be nonnegative and finite"),
    ],
)
def test_wring_rejects_nonfinite_budgets_before_reading(tmp_path, capsys, monkeypatch, flags, message):
    path = tmp_path / "edges.csv"
    write_xy_csv(path, [((0, 1), (0, 1)), ((1, 0), (1, 1))])

    def no_read(*args, **kwargs):
        raise AssertionError("the edge CSV was read")

    monkeypatch.setattr(typigraph.cli, "_label_distribution", no_read)
    assert main(["wring", "--edges", str(path), *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "export",
    [["graph", "--n", "6"], SUBGRAPH_AN8],
    ids=["graph", "subgraph"],
)
def test_exported_rank_csv_is_read_in_bulk(joint_file, tmp_path, capsys, monkeypatch, export):
    """The writer's rank spelling is the one the bulk reader's table holds:
    an export reads the same with the row-by-row reader disabled."""
    header, ranks, out = tmp_path / "h.json", tmp_path / "e.csv", tmp_path / "w.json"
    assert main(export + ["--dist", joint_file, "--out", str(header), "--edges", str(ranks)]) == 0
    doc = json.loads(header.read_text())
    sizes = [doc[side] if export[0] == "graph" else int(doc[side]["value"])
             for side in ("left_size", "right_size")]
    capsys.readouterr()

    def read_all():
        columns = typigraph.graph._read_edge_csv(str(ranks), *sizes)
        if export[0] == "graph":
            typigraph.graph.import_graph(str(header), str(ranks))
        argv = ["wring", "--edges", str(ranks), "--graph", str(header), "--delta", "0.05"]
        assert main(argv + ["--out", str(out)]) == 0
        return list(zip(*columns)), capsys.readouterr(), out.read_bytes()

    want = read_all()

    def no_rows(*args, **kwargs):
        raise AssertionError("an exported rank CSV was read row by row")

    monkeypatch.setattr(typigraph.graph, "_scan_edge_rows", no_rows)
    got = read_all()
    assert len(got[0]) == len(ranks.read_text().splitlines()) - 1 > 0
    assert got == want


@pytest.mark.parametrize(
    "export",
    [["graph", "--n", "8"], SUBGRAPH_AN8],
    ids=["graph", "subgraph"],
)
def test_wring_rank_csv_builds_no_sequence_per_edge(
    joint_file, tmp_path, capsys, monkeypatch, export
):
    header, ranks = tmp_path / "h.json", tmp_path / "e.csv"
    main(export + ["--dist", joint_file, "--out", str(header), "--edges", str(ranks)])
    doc = json.loads(header.read_text())
    sizes = [doc[side] if export[0] == "graph" else int(doc[side]["value"])
             for side in ("left_size", "right_size")]
    edges = len(ranks.read_text().splitlines()) - 1
    calls = []
    init = typigraph.typicality.Sequence.__post_init__

    def counted(self):
        calls.append(1)
        init(self)

    def no_endpoint_ids(*args, **kwargs):
        raise AssertionError("endpoint ids were recovered from Sequence objects")

    monkeypatch.setattr(typigraph.typicality.Sequence, "__post_init__", counted)
    monkeypatch.setattr(typigraph.diagnostics, "_endpoint_ids", no_endpoint_ids)
    capsys.readouterr()
    assert main(["wring", "--edges", str(ranks), "--graph", str(header), "--delta", "0.05"]) == 0
    assert f"/{edges} " in capsys.readouterr().out
    # no edge is built: the graph's rosters are symbol rows, the subgraph's
    # are built from per-block parts
    assert len(calls) <= 2 * sum(sizes) + 1 < edges
    assert (len(calls) == 0) == (export[0] == "graph")


def test_wring_label_csv_builds_no_sequence_per_edge(tmp_path, capsys, monkeypatch):
    path = tmp_path / "e.csv"
    pairs = [((a, b, a ^ b), (b, a, 1)) for a in (0, 1) for b in (0, 1)] * 50
    write_xy_csv(path, pairs)
    calls = []
    init = typigraph.typicality.Sequence.__post_init__

    def counted(self):
        calls.append(1)
        init(self)

    def no_endpoint_ids(*args, **kwargs):
        raise AssertionError("endpoint ids were recovered from Sequence objects")

    monkeypatch.setattr(typigraph.typicality.Sequence, "__post_init__", counted)
    monkeypatch.setattr(typigraph.diagnostics, "_endpoint_ids", no_endpoint_ids)
    capsys.readouterr()
    assert main(["wring", "--edges", str(path), "--delta", "0.05"]) == 0
    assert f"/{len(pairs)} " in capsys.readouterr().out
    # the ids come straight from the label tuples: no Sequence at all
    assert len(calls) == 0


@pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "repeat"])
def test_label_csv_block_mi_counts_no_pair_keys_without_repeats(tmp_path, repeat):
    """An `x,y` label CSV of 60,000 shuffled edges with no repeated (x, y)
    pair is marked distinct, so its block MI counts no pair keys: under 16
    bytes of traced memory per edge at peak, where counting them takes
    about 90. One repeated edge leaves it unmarked. The MI is the same
    float either way."""
    n, edges = 9, 60_000
    rng = random.Random(3)
    keys = rng.sample(range(1 << 2 * n), edges)
    if repeat:
        keys.append(keys[edges // 2])
    path = tmp_path / "e.csv"
    write_xy_csv(path, [
        (f"{k >> n:0{n}b}", f"{k & ((1 << n) - 1):0{n}b}") for k in keys
    ])
    dist = typigraph.cli._label_distribution(str(path))
    assert dist.distinct is not repeat
    tracemalloc.start()
    try:
        mi = block_mi(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mi == block_mi(replace(dist, distinct=False))
    if not repeat:
        assert peak < 16 * edges, f"{peak / edges:.1f} bytes per edge"


# Byte pins for wring, recorded before the edge multiset was held as rank-id
# columns. The runs use relative paths because the config echo stamped into
# the trace holds them.
WRING_LABEL_ROWS = [
    ("a b a c", "0 1 0 1"), ("a b a c", "0 1 1 1"), ("b b c c", "1 1 0 1"),
    ("c a a b", "1 0 0 0"), ("a a b c", "0 0 1 1"), ("c a a b", "1 0 0 1"),
    ("b c a a", "1 1 0 0"), ("a b a c", "0 1 0 1"), ("b b c c", "1 0 0 1"),
    ("c c b a", "1 1 1 0"), ("a a b c", "0 0 1 0"), ("a c c b", "0 1 1 0"),
]
WRING_PINS = {
    "graph": (
        ["graph", "--n", "8", "--out", "g.json", "--edges", "g.csv"],
        ["--edges", "g.csv", "--graph", "g.json", "--delta", "0.02"],
        "wring: k=4 surviving=228/16814 fraction=114/8407 converged=True\n"
        "pinsker: max per-letter TV = 0.070175\n",
        "89c13aeeafd045a1114cab6ca0b0017c6d644070a854031f63fb020e850ac9b0",
    ),
    "subgraph": (
        ["subgraph", "--kind", "an", "--n", "8", "--out", "s.json", "--edges", "s.csv"],
        ["--edges", "s.csv", "--graph", "s.json", "--delta", "0.05"],
        "wring: k=3 surviving=60/1120 fraction=3/56 converged=True\n"
        "pinsker: max per-letter TV = 0.160000\n",
        "7650adc70cf6dec2490143cc96327bd1df6226c02fc222c02c183001397fd28c",
    ),
    "labels": (
        None,
        ["--edges", "e.csv", "--delta", "0.05"],
        "wring: k=2 surviving=3/12 fraction=1/4 converged=True\n"
        "pinsker: max per-letter TV = 0.000000\n",
        "76865bda5fec545550cb7094fddda604f3c8ec21c722bf909788903abe7fd5b9",
    ),
}


@pytest.mark.parametrize("run", sorted(WRING_PINS))
def test_wring_bytes_pinned(binary_joint, tmp_path, monkeypatch, capsys, run):
    export, args, stdout, trace_sha = WRING_PINS[run]
    monkeypatch.chdir(tmp_path)
    save_distribution(binary_joint, "joint.json")
    with open("e.csv", "w", newline="") as fh:
        fh.write("x,y\r\n" + "".join(f"{x},{y}\r\n" for x, y in WRING_LABEL_ROWS))
    if export:
        assert main([export[0], "--dist", "joint.json", *export[1:]]) == 0
    capsys.readouterr()
    assert main(["wring", *args, "--out", "w.json"]) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256((tmp_path / "w.json").read_bytes()).hexdigest() == trace_sha


@pytest.mark.parametrize("run", ["graph", "subgraph"])
def test_wring_rank_csv_skips_pair_count(binary_joint, tmp_path, monkeypatch, capsys, run):
    """A rank CSV never repeats an edge, so block MI sums one term per edge
    without counting pairs, to the pinned bytes."""

    def counted(*args):
        raise AssertionError("the pair keys were counted")

    monkeypatch.setattr(typigraph.diagnostics, "_pair_keys", counted)
    test_wring_bytes_pinned(binary_joint, tmp_path, monkeypatch, capsys, run)


# --- float sums ------------------------------------------------------------------


def test_no_subcommand_sums_floats_with_the_builtin_sum(
    binary_joint, copy_channel, tmp_path, monkeypatch, capsys
):
    """Python 3.12 made `sum` over floats compensate for rounding, so a
    float summed by it differs in its last bits between versions. With a
    module-level `sum` in every typigraph module that refuses a float item,
    info, graph, both subgraph kinds, simulate (which assembles the bracket)
    and wring still run: their floats are added by `core.float_sum`."""
    builtin_sum = sum

    def int_sum(items, start=0):
        items = list(items)
        assert not any(isinstance(v, float) for v in items), "a float summed by sum()"
        return builtin_sum(items, start)

    for name, module in list(sys.modules.items()):
        if name == "typigraph" or name.startswith("typigraph."):
            monkeypatch.setattr(module, "sum", int_sum, raising=False)
    monkeypatch.chdir(tmp_path)
    save_distribution(binary_joint, "joint.json")
    save_distribution(copy_channel, "copy.json")
    runs = [
        ["info", "--dist", "joint.json", "--out", "i.json"],
        ["graph", "--dist", "joint.json", "--n", "6", "--out", "g.json", "--edges", "g.csv"],
        ["subgraph", "--dist", "joint.json", "--kind", "an", "--n", "8", "--out", "s.json"],
        ["subgraph", "--dist", "joint.json", "--kind", "gamma", "--aux", "copy.json",
         "--n", "12"],
        ["simulate", "--dist", "joint.json", "--n", "8", "--r1", "2/8", "--r2", "2/8",
         "--trials", "20", "--seed", "1"],
        ["wring", "--edges", "g.csv", "--graph", "g.json", "--delta", "0.05"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    capsys.readouterr()


# --- argparse plumbing ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["info", "--dist", "nope.json"], "nope.json: file not found"),
        (
            ["graph", "--dist", "joint.json", "--n", "4", "--eps1", "1/4",
             "--schedule", "foo"],
            "unknown schedule 'foo'",
        ),
        (
            ["subgraph", "--dist", "joint.json", "--n", "6", "--kind", "gamma"],
            "--kind gamma requires --aux",
        ),
        (
            ["simulate", "--dist", "joint.json", "--n", "3", "--eps1", "1/1000",
             "--r1", "0", "--r2", "0", "--trials", "1", "--seed", "1", "--out", "m.json"],
            "a typical set is empty",
        ),
        (
            ["simulate", "--dist", "joint.json", "--n", "4", "--r1", "x/2",
             "--r2", "0", "--trials", "1", "--seed", "1"],
            "--r1",
        ),
        (["wring", "--edges", "nope.csv", "--delta", "0.1"], "nope.csv: file not found"),
    ],
    ids=["info-missing-file", "graph-schedule", "subgraph-no-aux", "simulate-empty-set",
         "simulate-bad-rate", "wring-missing-file"],
)
def test_malformed_input_exits_2_without_traceback(
    binary_joint, tmp_path, monkeypatch, capsys, argv, message
):
    """Every subcommand refuses bad input with exit 2 and one error line;
    an exception escaping main would print a traceback instead."""
    monkeypatch.chdir(tmp_path)
    save_distribution(binary_joint, "joint.json")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["joint.json"]


def _write_inputs():
    """A pmf and a cond_pmf beside joint.json, an edge CSV of ranks and one
    of labels."""
    save_distribution(Pmf(BIN, (Fraction(1, 2), Fraction(1, 2))), "pmf.json")
    half = Pmf(BIN, (Fraction(1, 2), Fraction(1, 2)))
    save_distribution(CondPmf(BIN, BIN, (half, half)), "cond.json")
    with open("g.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("left_rank,right_rank\r\n0,0\r\n")
    with open("labels.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y\r\n0 1,0 1\r\n1 0,1 1\r\n")


SIMULATE4 = ["simulate", "--dist", "joint.json", "--n", "4", "--r1", "1/4", "--r2", "1/4",
             "--trials", "5", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["info", "--dist", "joint.json", "--out", "missing/rec.json"], "missing/rec.json"),
        (["info", "--dist", "joint.json", "--format", "csv", "--out", "missing/rec.csv"],
         "missing/rec.csv"),
        (["graph", "--dist", "joint.json", "--n", "4", "--out", "missing/g.json"],
         "missing/g.json"),
        (["graph", "--dist", "joint.json", "--n", "4", "--out", "g.json",
          "--edges", "missing/g.csv"], "missing/g.csv"),
        (["subgraph", "--dist", "joint.json", "--n", "6", "--kind", "an",
          "--out", "missing/s.json"], "missing/s.json"),
        (["subgraph", "--dist", "joint.json", "--n", "6", "--kind", "an", "--out", "s.json",
          "--edges", "missing/s.csv"], "missing/s.csv"),
        (SIMULATE4 + ["--out", "missing/mc.json"], "missing/mc.json"),
        (["wring", "--edges", "labels.csv", "--delta", "0.1", "--out", "missing/w.json"],
         "missing/w.json"),
        (["wring", "--edges", "g.csv", "--graph", "nope.json", "--delta", "0.1"],
         "nope.json: file not found"),
        (["graph", "--dist", "pmf.json", "--n", "4"], "pmf.json: expected a joint_pmf"),
        (["info", "--dist", "cond.json"], "cond.json: no entropic summary for a cond_pmf"),
    ],
    ids=["out-in-missing-dir", "info-csv-out-in-missing-dir", "graph-out-in-missing-dir",
         "graph-edges-in-missing-dir", "subgraph-out-in-missing-dir",
         "subgraph-edges-in-missing-dir", "simulate-out-in-missing-dir",
         "wring-out-in-missing-dir", "wring-missing-graph", "graph-given-pmf",
         "info-given-cond"],
)
def test_unusable_input_or_output_exits_2(
    binary_joint, tmp_path, monkeypatch, capsys, argv, message
):
    """An --out or --edges into a missing directory, refused before any
    work, a missing --graph header, and a distribution of the wrong kind
    each exit 2 with one error line naming the file, print nothing to
    stdout and write no file."""
    monkeypatch.chdir(tmp_path)
    save_distribution(binary_joint, "joint.json")
    _write_inputs()
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_unknown_subcommand_exits_2():
    assert main(["transmogrify"]) == 2


def test_missing_required_flag_exits_2():
    assert main(["graph", "--n", "4"]) == 2
