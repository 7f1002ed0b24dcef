"""The benchmark's exact pins, recomputed with the library.

Every full-scale pin of the exact_counts and exponent_sweep workloads in
`bench/pins.json` (read, never written) is computed again here from the
benchmark's own joints and scales (`bench/workloads.py`), so a kernel
change that moves an exact integer fails the tests, not only the
benchmark run. graph_export's four commands are run at full scale in a
temporary directory, and the files they write must have the pinned
digests, so a byte drift of either wring path fails the tests too.
"""

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import typigraph as tg
import typigraph.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no bytecode is written under bench/
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = writes
    return workloads


@pytest.fixture(scope="module")
def pins():
    with open(BENCH / "pins.json", encoding="utf-8") as fh:
        return json.load(fh)["full"]


def _moments(m, prefix: str) -> dict:
    return {
        f"{prefix}.{field}": getattr(m, field)
        for field in ("m1", "m2", "alpha_exact", "left_second_exact", "right_second_exact")
    }


def test_exact_counts_pins(workloads, pins):
    cfg = workloads.SCALES["full"]["exact_counts"]
    t3 = workloads.make_joints(tg)["t3"]
    got = {}
    n = cfg["tss_n"]
    got[f"typical_set_size.n{n}"] = tg.typical_set_size(
        t3.row_marginal(), tg.default_params(n).eps1, n
    ).value
    n = cfg["implicit_n"]
    g = tg.build_graph(tg.GraphSpec(t3, n, tg.default_params(n), mode="implicit"))
    for name, count in (("left", g.left_count), ("right", g.right_count), ("edges", g.edge_count)):
        got[f"implicit.n{n}.{name}"] = count.value
    n = cfg["degree_n"]
    params = tg.default_params(n)
    g = tg.build_graph(tg.GraphSpec(t3, n, params, mode="implicit"))
    for side, pmf, eps in (
        ("left", t3.row_marginal(), params.eps1),
        ("right", t3.col_marginal(), params.eps2),
    ):
        for t in tg.enumerate_types(pmf.alphabet.size, n, ball=(pmf, eps)):
            x = tg.Sequence(pmf.alphabet, tuple(s for s, c in enumerate(t.counts) for _ in range(c)))
            key = "-".join(map(str, t.counts))
            got[f"degree.n{n}.{side}.{key}"] = g.degree_of(x, side).value
    n = cfg["moments_n"]
    m = tg.exact_pair_moments(t3, tg.default_params(n), n, 2 / n, 2 / n)
    got.update(_moments(m, f"moments.n{n}"))
    assert {key: workloads.pin_text(v) for key, v in got.items()} == pins["exact_counts"]


def test_exponent_sweep_pins(workloads, pins):
    cfg = workloads.SCALES["full"]["exponent_sweep"]
    b2, rate = workloads.make_joints(tg)["b2"], cfg["rate"]
    got = {}
    for n in cfg["ns"]:
        m = tg.exact_pair_moments(b2, tg.default_params(n), n, rate, rate)
        got.update(_moments(m, f"sweep.n{n}"))
        lll = tg.lll_lower_bounds(m, m.m1, m.m2, n)
        got[f"sweep.n{n}.symmetric_condition_ok"] = lll.symmetric_condition_ok
        got[f"sweep.n{n}.phi_condition_ok"] = lll.phi_condition_ok
    assert {key: workloads.pin_text(v) for key, v in got.items()} == pins["exponent_sweep"]


def test_graph_export_pins(workloads, pins, tmp_path, monkeypatch, capsys):
    """The graph and subgraph exports and the wring of each: every digest,
    both step counts and the edge count are the pinned ones."""
    cfg = workloads.SCALES["full"]["graph_export"]
    monkeypatch.chdir(tmp_path)
    tg.save_distribution(workloads.make_joints(tg)["b2"], "b2.json")
    for argv in workloads.GraphExport.prepare(SimpleNamespace(cfg=cfg))["argvs"]:
        assert tg.cli.main(argv) == 0, argv
    capsys.readouterr()
    got = {
        f"sha256.{name}": hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("g.json", "g.csv", "s.json", "s.csv", "wg.json", "ws.json")
    }
    for name in ("wg.json", "ws.json"):
        got[f"{name}.k"] = json.loads((tmp_path / name).read_text())["payload"]["k"]
    got["graph.edges"] = json.loads((tmp_path / "g.json").read_text())["edge_count"]["value"]
    assert {key: workloads.pin_text(v) for key, v in got.items()} == pins["graph_export"]
