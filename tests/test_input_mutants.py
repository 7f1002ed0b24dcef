"""Byte mutants of every file the CLI reads: none may crash it.

Each case is one CLI invocation on small valid inputs (n <= 6) and one of
its input files to mutate: the distribution JSON, the aux `cond_pmf` JSON,
the graph and subgraph export headers (an `an` and a two-run `gamma`
subgraph), and the rank and label edge CSVs.
A mutant replaces, inserts, deletes or duplicates bytes of that file at
seeded positions (half the written bytes are past ASCII, so many mutants
are not UTF-8), or renames one key of a JSON file. Every mutant must end in
an exit code the README documents (0, 2, 3 or 4) with no exception escaping
`main`, and an exit 2 must name the mutated file.
"""

import random
import re
from fractions import Fraction

import pytest

from typigraph.cli import main
from typigraph.core import CondPmf, Pmf, product_alphabet, save_distribution

SEEDS = (3, 11, 29)
PER_SEED = 20  # random mutants per seed and case


def _mutant(data: bytes, rng: random.Random) -> bytes:
    b = bytearray(data)
    i = rng.randrange(len(b))
    op = rng.randrange(4)
    if op == 0:
        b[i] = rng.randrange(256)
    elif op == 1:
        b.insert(i, rng.randrange(256))
    elif op == 2:
        del b[i : i + rng.randint(1, 8)]
    else:
        j = rng.randrange(len(b))
        b[i:i] = b[j : j + rng.randint(1, 8)]
    return bytes(b)


def _mutants(data: bytes, json_keys: bool) -> list[bytes]:
    """The seeded byte mutants of data, then, for a JSON file, one mutant per
    key occurrence with that key's first letter replaced."""
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        out += [_mutant(data, rng) for _ in range(PER_SEED)]
    if json_keys:
        for m in re.finditer(rb'"\w+":', data):
            out.append(data[: m.start() + 1] + b"_" + data[m.start() + 2 :])
    return out


WRING_G = ["wring", "--edges", "g.csv", "--graph", "g.json", "--delta", "0.05"]
WRING_S = ["wring", "--edges", "s.csv", "--graph", "s.json", "--delta", "0.05"]
WRING_U = ["wring", "--edges", "u.csv", "--graph", "u.json", "--delta", "0.05"]
CASES = [  # (command, the input file it reads that is mutated)
    (["info", "--dist", "joint.json"], "joint.json"),
    (["graph", "--dist", "joint.json", "--n", "4", "--out", "o.json", "--edges", "o.csv"],
     "joint.json"),
    (["subgraph", "--dist", "joint.json", "--kind", "gamma", "--aux", "copy.json", "--n", "4"],
     "copy.json"),
    (WRING_G, "g.json"),
    (WRING_G, "g.csv"),
    (WRING_S, "s.json"),
    (WRING_S, "s.csv"),
    (WRING_U, "u.json"),
    (WRING_U, "u.csv"),
    (["wring", "--edges", "labels.csv", "--delta", "0.05"], "labels.csv"),
]


@pytest.fixture
def inputs(binary_joint, copy_channel, tmp_path, monkeypatch):
    """The valid inputs, written by the CLI itself; name -> bytes. u.json
    and u.csv are the gamma export of a fair-coin U at n = 6: two u-runs,
    of 4 and 2 positions, and 48 edges."""
    monkeypatch.chdir(tmp_path)
    save_distribution(binary_joint, "joint.json")
    save_distribution(copy_channel, "copy.json")
    half = Pmf(copy_channel.out_alphabet, (Fraction(1, 2), Fraction(1, 2)))
    pairs = product_alphabet(binary_joint.row_alphabet, binary_joint.col_alphabet)
    save_distribution(CondPmf(pairs, half.alphabet, (half,) * pairs.size), "coin.json")
    for argv in (
        ["graph", "--dist", "joint.json", "--n", "4", "--out", "g.json", "--edges", "g.csv"],
        ["subgraph", "--dist", "joint.json", "--kind", "an", "--n", "6", "--out", "s.json",
         "--edges", "s.csv"],
        ["subgraph", "--dist", "joint.json", "--kind", "gamma", "--aux", "coin.json", "--n", "6",
         "--out", "u.json", "--edges", "u.csv"],
    ):
        assert main(argv) == 0
    with open("labels.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y\r\n0 1 1 0,0 1 0 0\r\n1 1 0 0,1 1 0 1\r\n0 0 1 1,0 1 1 1\r\n")
    names = ("joint.json", "copy.json", "g.json", "g.csv", "s.json", "s.csv", "u.json", "u.csv",
             "labels.csv")
    return {name: (tmp_path / name).read_bytes() for name in names}


@pytest.mark.parametrize("argv, target", CASES, ids=[f"{a[0]}-{t}" for a, t in CASES])
def test_byte_mutants_exit_cleanly(inputs, tmp_path, capsys, argv, target):
    assert main(argv) == 0, "the unmutated inputs must pass"
    capsys.readouterr()
    escapes, unnamed = [], []
    for k, mutant in enumerate(_mutants(inputs[target], target.endswith(".json"))):
        (tmp_path / target).write_bytes(mutant)
        try:
            rc = main(argv)
        except BaseException as exc:  # noqa: BLE001 - any escape is the failure
            escapes.append((k, type(exc).__name__, str(exc)[:200]))
            continue
        finally:
            err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4), (k, rc, err)
        if rc == 2 and target not in err:
            unnamed.append((k, err))
    kinds = sorted({kind for _, kind, _ in escapes})
    assert not escapes, f"{len(escapes)} mutants escape main ({kinds}), first: {escapes[0]}"
    assert not unnamed, f"{len(unnamed)} exits 2 without naming {target}, first: {unnamed[0]}"
