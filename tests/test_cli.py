"""Command-line surface: exit codes, piping, serialization, determinism."""

import importlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from framegraphs.cli import cli, main
from framegraphs.graphs import cycle, from_text, star, to_text
from framegraphs.matio import matrix_from_text


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args, stdin=None):
    return runner.invoke(cli, args, input=stdin)


# ---------------------------------------------------------------------------
# Graph commands
# ---------------------------------------------------------------------------

def test_gen(runner):
    res = run(runner, ["gen", "cycle", "5"])
    assert res.exit_code == 0
    assert from_text(res.output) == cycle(5)


def test_gen_two_parameter_family(runner):
    res = run(runner, ["gen", "complete-bipartite", "2", "3"])
    assert res.exit_code == 0
    assert from_text(res.output).degree_sequence() == (2, 2, 2, 3, 3)


def test_gen_deterministic_output(runner):
    a = run(runner, ["gen", "hypercube", "3"]).output
    b = run(runner, ["gen", "hypercube", "3"]).output
    assert a == b


def test_gen_to_file(runner, tmp_path):
    out = tmp_path / "g.txt"
    res = run(runner, ["gen", "diamond", "--out", str(out)])
    assert res.exit_code == 0
    assert from_text(out.read_text()).degree_sequence() == (2, 2, 3, 3)


def test_linegraph_stdin(runner):
    res = run(runner, ["linegraph"], stdin=to_text(star(4)))
    assert res.exit_code == 0
    lg = from_text(res.output)
    assert lg.n == 3 and lg.m == 3  # L(K_{1,3}) = K_3


def test_rootgraph_round_trip(runner, tmp_path):
    lg_text = run(runner, ["linegraph"], stdin=to_text(cycle(5))).output
    res = run(runner, ["rootgraph"], stdin=lg_text)
    assert res.exit_code == 0
    root = from_text(res.output)
    assert root.n == 5 and root.degree_sequence() == (2,) * 5  # a 5-cycle


def test_rootgraph_triangle_yields_two(runner):
    res = run(runner, ["rootgraph"], stdin="3 3\n0 1\n0 2\n1 2\n")
    assert res.exit_code == 0
    # Two graphs separated by a blank line.
    assert res.output.count("\n\n") >= 1 or res.output.count("4 3") == 1


# ---------------------------------------------------------------------------
# Frames and checks
# ---------------------------------------------------------------------------

def test_frame_star_and_parseval_check(runner):
    frame_text = run(runner, ["frame", "star", "6", "3"]).output
    res = run(runner, ["check", "parseval"], stdin=frame_text)
    assert res.exit_code == 0
    assert res.output.startswith("parseval")


def test_frame_star_custom_keep(runner):
    res = run(runner, ["frame", "star", "6", "2", "--keep", "1,5"])
    assert res.exit_code == 0
    mat = matrix_from_text(res.output)
    assert mat.shape == (2, 6)


def test_frame_lkn_tight_not_parseval(runner):
    frame_text = run(runner, ["frame", "lkn", "5"]).output
    res = run(runner, ["check", "tight"], stdin=frame_text)
    assert res.exit_code == 0
    assert res.output.startswith("tight")
    res = run(runner, ["check", "parseval"], stdin=frame_text)
    assert res.exit_code == 1


def test_frame_serialization_round_trip(runner):
    text = run(runner, ["frame", "lkn-small", "6"]).output
    mat = matrix_from_text(text)
    assert mat.shape == (4, 15)
    assert np.max(np.abs(mat @ mat.T - 6 * np.eye(4))) < 1e-8


def test_check_pattern(runner, tmp_path):
    graph_file = tmp_path / "kn.txt"
    run(runner, ["gen", "complete", "5", "--out", str(graph_file)])
    frame_text = run(runner, ["frame", "star", "5", "2"]).output
    res = run(runner, ["check", "pattern", "--graph", str(graph_file)], stdin=frame_text)
    assert res.exit_code == 0 and "match" in res.output
    run(runner, ["gen", "cycle", "5", "--out", str(graph_file)])
    res = run(runner, ["check", "pattern", "--graph", str(graph_file)], stdin=frame_text)
    assert res.exit_code == 1 and "mismatch" in res.output


def test_check_neighbor_polarity(runner):
    # Witness found -> exit 0; no witness -> exit 1.
    res = run(runner, ["check", "neighbor"], stdin=to_text(star(5)))
    assert res.exit_code == 0 and res.output.startswith("witness")
    res = run(runner, ["check", "neighbor"], stdin=to_text(cycle(4)))
    assert res.exit_code == 1 and res.output.strip() == "none"


def test_check_cycles(runner):
    res = run(runner, ["check", "cycles"], stdin=to_text(cycle(5)))
    assert res.exit_code == 0 and res.output.startswith("offending-edge")
    res = run(runner, ["check", "cycles"], stdin=to_text(cycle(4)))
    assert res.exit_code == 1


def test_check_linegraph(runner):
    res = run(runner, ["check", "linegraph"], stdin=to_text(cycle(6)))
    assert res.exit_code == 0 and "line-graph" in res.output
    res = run(runner, ["check", "linegraph"], stdin=to_text(star(4)))
    assert res.exit_code == 1 and "forbidden G1" in res.output


def test_check_erasure(runner):
    frame_text = run(runner, ["frame", "diamond"]).output
    res = run(runner, ["check", "erasure", "-e", "2"], stdin=frame_text)
    assert res.exit_code == 0 and "robust" in res.output
    res = run(runner, ["check", "erasure", "-e", "3"], stdin=frame_text)
    assert res.exit_code == 1 and "not-robust" in res.output


def test_frame_dup_chain(runner):
    listing = run(runner, ["frame", "dup-chain"])
    assert listing.exit_code == 0 and "g2" in listing.output
    res = run(runner, ["frame", "dup-chain", "g3"])
    assert res.exit_code == 0
    assert matrix_from_text(res.output).shape == (2, 5)
    res = run(runner, ["frame", "dup-chain", "bogus"])
    assert res.exit_code == 2


def test_complete_minimal(runner, tmp_path):
    frame_text = run(runner, ["frame", "diamond"]).output
    # Drop the last column to get a non-tight frame.
    mat = matrix_from_text(frame_text)[:, :3]
    from framegraphs.matio import matrix_to_text
    src = matrix_to_text(mat)
    res = run(runner, ["complete", "minimal"], stdin=src)
    assert res.exit_code == 0
    header = res.output.splitlines()[0]
    assert header.startswith("# added 1 bound")
    assert float(header.split()[-1]) == pytest.approx(1.0)
    completed = matrix_from_text(res.output)
    assert completed.shape == (2, 4)
    res = run(runner, ["complete", "twostep"], stdin=src)
    assert res.exit_code == 0
    assert res.output.splitlines()[0].startswith("# added 2")


# ---------------------------------------------------------------------------
# Classify and sweeps
# ---------------------------------------------------------------------------

def test_classify_tight_exit_code(runner, tmp_path):
    res = run(runner, ["classify"], stdin=to_text(cycle(4)))
    assert res.exit_code == 0
    assert "verdict tight" in res.output
    cert = tmp_path / "cert.txt"
    res = run(runner, ["classify", "--out", str(cert)], stdin=to_text(cycle(4)))
    assert res.exit_code == 0
    mat = matrix_from_text(cert.read_text())
    assert np.max(np.abs(mat @ mat.T - np.eye(2))) < 1e-9


def test_classify_negative_exit_code(runner):
    res = run(runner, ["classify"], stdin=to_text(cycle(7)))
    assert res.exit_code == 1
    assert "verdict not_tight" in res.output
    assert "witness neighbor" in res.output


def test_classify_text_format(runner):
    res = run(runner, ["--format", "text", "classify"], stdin=to_text(cycle(4)))
    assert res.exit_code == 0
    assert "The graph is tight" in res.output


def test_tolerance_option(runner):
    res = run(runner, ["--tol", "0.5", "gen", "cycle", "4"])
    assert res.exit_code == 2  # outside the allowed policy range


def test_sweeps(runner):
    res = run(runner, ["sweep", "root-order", "--max-n", "5"])
    assert res.exit_code == 0 and "counterexamples 0" in res.output
    res = run(runner, ["sweep", "lemma-p4", "--max-n", "5"])
    assert res.exit_code == 0
    res = run(runner, ["--format", "text", "sweep", "join-line", "--max-n", "3"])
    assert res.exit_code == 0 and "0 counterexample(s)" in res.output


# ---------------------------------------------------------------------------
# Real process: console script, pipes, error stream
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

# The installed console script runs framegraphs.cli:main, as does
# `python -m framegraphs`; the latter also works from a source checkout.
FRAMEGRAPHS = f"{shlex.quote(sys.executable)} -m framegraphs"


def shell(cmd, stdin=None):
    """Run a shell command line, with {fg} standing for the framegraphs CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        cmd.format(fg=FRAMEGRAPHS), input=stdin, shell=True,
        capture_output=True, text=True, env=env,
    )


def test_console_script_entry_point_declared():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    target = meta["project"]["scripts"]["framegraphs"]
    assert target == "framegraphs.cli:main"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_console_script_pipeline():
    res = shell("{fg} gen complete 5 | {fg} linegraph | {fg} rootgraph")
    assert res.returncode == 0
    assert from_text(res.stdout).degree_sequence() == (4, 4, 4, 4, 4)


def test_console_script_frame_pipeline():
    res = shell("{fg} frame k2kn 4 | {fg} check tight")
    assert res.returncode == 0
    assert res.stdout.startswith("tight")


def test_console_script_error_goes_to_stderr():
    res = shell("{fg} classify", stdin="4 2\n0 1\n2 3\n")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error:" in res.stderr


def test_console_script_bad_graph_text():
    res = shell("{fg} linegraph", stdin="not a graph\n")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_console_script_byte_identical():
    a = shell("{fg} frame lkn 6")
    b = shell("{fg} frame lkn 6")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
