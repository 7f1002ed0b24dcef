"""The CLI in a fresh interpreter: what its import loads, and every
subcommand run as a subprocess against the same run in process."""

import os
import subprocess
import sys
from pathlib import Path

import typigraph
from typigraph.cli import main
from typigraph.core import save_distribution

SRC = str(Path(typigraph.__file__).resolve().parents[1])


def _python(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_code_generator():
    """Value classes are records compiled with the package, so importing the
    CLI pulls in neither `dataclasses` nor `inspect`."""
    done = _python(
        ["-c", "import sys, typigraph.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"]
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Tiny runs of all five subcommands; wring reads graph's outputs, so order matters.
RUNS = [
    ["info", "--dist", "joint.json", "--out", "info.json"],
    ["graph", "--dist", "joint.json", "--n", "4", "--out", "g.json", "--edges", "g.csv"],
    ["subgraph", "--dist", "joint.json", "--kind", "an", "--n", "6", "--out", "s.json", "--edges", "s.csv"],
    ["simulate", "--dist", "joint.json", "--n", "6", "--r1", "1/4", "--r2", "1/4",
     "--trials", "50", "--seed", "7", "--out", "mc.json"],
    ["wring", "--edges", "g.csv", "--graph", "g.json", "--delta", "0.05", "--out", "w.json"],
]


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_subcommands_in_a_fresh_interpreter(binary_joint, tmp_path, monkeypatch, capsys):
    fresh, inproc = tmp_path / "fresh", tmp_path / "inproc"
    for directory in (fresh, inproc):
        directory.mkdir()
        save_distribution(binary_joint, str(directory / "joint.json"))
    monkeypatch.chdir(inproc)
    for argv in RUNS:
        done = _python(["-X", "dev", "-W", "error", "-m", "typigraph.cli", *argv], cwd=fresh)
        assert (done.returncode, done.stderr) == (0, ""), argv
        assert main(argv) == 0, argv
        assert capsys.readouterr() == (done.stdout, ""), argv
    assert _files(fresh) == _files(inproc)
    assert set(_files(fresh)) == {
        "joint.json", "info.json", "g.json", "g.csv", "s.json", "s.csv",
        "mc.json", "mc.csv", "w.json",
    }
