"""Command-line surface: exit codes, piping, serialization, determinism."""

import importlib
import os
import pkgutil
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import framegraphs
from framegraphs import verify
from framegraphs.cli import cli, main
from framegraphs.constructions import diamond_frame, kn_minus_e_frame
from framegraphs.frames import Frame
from framegraphs.graphs import Graph, complete, cycle, edgeless, from_text, path, star, to_text
from framegraphs.linegraph import line_graph
from framegraphs.matio import frame_from_text, frame_to_text


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
    res = run(runner, ["gen", "edgeless", "3"])
    assert res.exit_code == 0
    assert from_text(res.output) == edgeless(3)


def test_gen_above_the_text_limit_prints_nothing(capsys):
    # No reader would accept a graph of this order, so gen does not print one.
    with pytest.raises(SystemExit) as exc:
        main(["gen", "path", "100001"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the limit of 100000" in err


def test_gen_two_parameter_family(runner):
    res = run(runner, ["gen", "complete-bipartite", "2", "3"])
    assert res.exit_code == 0
    assert from_text(res.output).degree_sequence() == (2, 2, 2, 3, 3)


def test_gen_deterministic_output(runner):
    a = run(runner, ["gen", "hypercube", "3"]).output
    b = run(runner, ["gen", "hypercube", "3"]).output
    assert a == b


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
    assert res.output == to_text(complete(3)) + "\n" + to_text(star(4))


# ---------------------------------------------------------------------------
# Frames and checks
# ---------------------------------------------------------------------------

def test_frame_star_and_parseval_check(runner):
    for argv in (["star", "6", "3"], ["kn-minus-e", "5"]):
        frame_text = run(runner, ["frame", *argv]).output
        res = run(runner, ["check", "tight"], stdin=frame_text)
        assert res.exit_code == 0
        assert res.output.split()[0] == "parseval"


def test_frame_lkn_tight_not_parseval(runner):
    frame_text = run(runner, ["frame", "lkn", "5"]).output
    res = run(runner, ["check", "tight"], stdin=frame_text)
    assert res.exit_code == 0
    assert res.output.split()[0] == "tight"
    frame_text = run(runner, ["frame", "k2kn", "4"]).output
    res = run(runner, ["check", "tight"], stdin=frame_text)
    assert res.exit_code == 0
    assert res.output.split()[0] == "tight"


@pytest.mark.parametrize("command", ["lkn", "lkn-small"])
def test_frame_lkn_refuses_oversize_orders_before_building(command, monkeypatch, capsys):
    # Graph text takes at most TEXT_MAX_N vertices, and the line graph of K_n
    # has n(n-1)/2 > 100 000 from n = 448 on: such an n is refused before
    # K_n or its frame is built, as gen refuses an order.
    from framegraphs import constructions, graphs
    calls = []

    def stub(*args):
        calls.append(args)
        raise graphs.GraphError("built")

    monkeypatch.setattr(graphs, "complete", stub)
    monkeypatch.setattr(constructions, "lkn_small_frame", stub)
    for n in ("448", "100000", str(10 ** 12)):
        with pytest.raises(SystemExit) as exc:
            main(["frame", command, n])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "exceeds the limit of 100000" in err
    assert calls == []
    with pytest.raises(SystemExit):
        main(["frame", command, "447"])
    assert calls == [(447,)]


def test_frame_serialization_round_trip(runner):
    text = run(runner, ["frame", "lkn-small", "6"]).output
    mat = frame_from_text(text).synthesis
    assert mat.shape == (4, 15)
    assert np.max(np.abs(mat @ mat.T - 6 * np.eye(4))) < 1e-8


def test_check_pattern(runner, tmp_path):
    graph_file = tmp_path / "kn.txt"
    graph_file.write_text(to_text(complete(5)))
    frame_text = run(runner, ["frame", "star", "5", "2"]).output
    res = run(runner, ["check", "pattern", "--graph", str(graph_file)], stdin=frame_text)
    assert res.exit_code == 0 and "match" in res.output
    graph_file.write_text(to_text(cycle(5)))
    res = run(runner, ["check", "pattern", "--graph", str(graph_file)], stdin=frame_text)
    assert res.exit_code == 1 and "mismatch" in res.output
    graph_file.write_text(to_text(line_graph(path(5)).line))
    frame_text = run(runner, ["frame", "laplacian"], stdin=to_text(path(5))).output
    res = run(runner, ["check", "pattern", "--graph", str(graph_file)], stdin=frame_text)
    assert res.exit_code == 0 and "match" in res.output


def test_check_pattern_reads_no_gram_entry_at_another_order(tmp_path, capsys):
    # G[0, 3] = 5e-9 (an edge) and G[1, 2] = 2e-10 (not) are within a decade
    # of the zero threshold.  A graph of another order is a mismatch before
    # G is read, so nothing warns; at the frame's order both entries warn,
    # at the command's own line.
    mat = np.eye(4)
    mat[0, 3], mat[1, 2] = 5e-9, 2e-10
    frame_file = tmp_path / "f.txt"
    frame_file.write_text(frame_to_text(Frame(mat)))
    for n, code, verdict, warned in ((5, 1, "mismatch", 0), (4, 0, "match", 2)):
        graph_file = tmp_path / f"g{n}.txt"
        graph_file.write_text(to_text(Graph(n, ((0, 3),))))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit) as exc:
                main(["check", "pattern", str(frame_file), "--graph", str(graph_file)])
        assert exc.value.code == code
        assert capsys.readouterr() == (f"{verdict}\n", "")
        assert [Path(w.filename).name for w in caught] == ["cli.py"] * warned


def test_check_pattern_refuses_two_stdin_inputs(monkeypatch, capsys):
    # FRAME defaults to '-', so '--graph -' would read stdin a second time
    # and report the graph as empty; the command refuses before reading.
    def no_stdin():
        raise AssertionError("stdin was read")
    monkeypatch.setattr("sys.stdin.read", no_stdin)
    for argv in (["check", "pattern", "--graph", "-"], ["check", "pattern", "-", "--graph", "-"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("Usage:")
        assert "Error: FRAME and --graph cannot both read stdin" in err


def test_check_neighbor_polarity(runner):
    # Witness found -> exit 0; no witness -> exit 1.
    res = run(runner, ["check", "neighbor"], stdin=to_text(star(5)))
    assert res.exit_code == 0 and res.output.startswith("witness")
    res = run(runner, ["check", "neighbor"], stdin=to_text(cycle(4)))
    assert res.exit_code == 1 and res.output.strip() == "none"


def test_check_linegraph(runner):
    res = run(runner, ["check", "linegraph"], stdin=to_text(cycle(6)))
    assert res.exit_code == 0 and "line-graph" in res.output
    res = run(runner, ["check", "linegraph"], stdin=to_text(star(4)))
    assert res.exit_code == 1 and "forbidden G1" in res.output


def test_frame_kn_minus_e_prints_the_builders_frames(runner):
    # n = 4 is the diamond frame, n = 5 the frame of G3, byte for byte.
    res = run(runner, ["frame", "kn-minus-e", "4"])
    assert res.exit_code == 0 and res.output == frame_to_text(diamond_frame())
    res = run(runner, ["frame", "kn-minus-e", "5"])
    assert res.exit_code == 0 and res.output == frame_to_text(kn_minus_e_frame(5))


def test_complete_minimal(runner, tmp_path):
    frame_text = run(runner, ["frame", "kn-minus-e", "4"]).output
    # Drop the last column to get a non-tight frame.
    src = frame_to_text(Frame(frame_from_text(frame_text).synthesis[:, :3]))
    res = run(runner, ["complete", "minimal"], stdin=src)
    assert res.exit_code == 0
    header = res.output.splitlines()[0]
    assert header.startswith("# added 1 bound")
    assert float(header.split()[-1]) == pytest.approx(1.0)
    completed = frame_from_text(res.output).synthesis
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
    mat = frame_from_text(cert.read_text()).synthesis
    assert np.max(np.abs(mat @ mat.T - np.eye(2))) < 1e-9


@pytest.mark.parametrize("target", ["missing/cert.txt", ""], ids=["no-dir", "a-dir"])
def test_classify_unwritable_out_prints_no_verdict(tmp_path, capsys, target):
    # The certificate is written before any line is printed, so a failed
    # write exits 2 with nothing on stdout.  A verdict with no certificate
    # writes no file, so the same path still prints it and exits 1.
    out = str(tmp_path / target)
    for g, code in ((cycle(4), 2), (cycle(7), 1)):
        graph = tmp_path / "g.txt"
        graph.write_text(to_text(g))
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--out", out, str(graph)])
        assert exc.value.code == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == "" and captured.err.startswith("error: ")
        else:
            assert captured.out.startswith("verdict not_tight\n") and captured.err == ""


def test_classify_negative_exit_code(runner):
    res = run(runner, ["classify"], stdin=to_text(cycle(7)))
    assert res.exit_code == 1
    assert "verdict not_tight" in res.output
    assert "witness neighbor" in res.output


def test_internal_error_exits_2(tmp_path, monkeypatch, capsys):
    # An unexpected exception is a fault of the program, not a verdict, so
    # it must not exit 1, which means "not tight".
    def fail(g):
        raise AssertionError("catalog frame is not tight")
    monkeypatch.setattr(verify, "classify", fail)
    graph = tmp_path / "g.txt"
    graph.write_text(to_text(cycle(4)))
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(graph)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" in err and "error: internal error" in err


def test_out_of_memory_is_an_input_error(monkeypatch, capsys):
    # A frame too large for the machine is an input error: one error line,
    # even for a MemoryError with no message, and no traceback.
    from framegraphs import constructions

    def fail(n):
        raise MemoryError()
    monkeypatch.setattr(constructions, "k2kn_frame", fail)
    with pytest.raises(SystemExit) as exc:
        main(["frame", "k2kn", "5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines() == ["error: out of memory"]


def test_every_error_class_is_a_value_error():
    # main maps OSError and ValueError to "error: ..." and exit 2, so an
    # error class outside ValueError would turn an input error into an
    # internal-error traceback.
    errors = {
        obj for info in pkgutil.iter_modules(framegraphs.__path__)
        if info.name != "__main__"
        for obj in vars(importlib.import_module(f"framegraphs.{info.name}")).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
        and not issubclass(obj, Warning) and obj.__module__.startswith("framegraphs.")
    }
    assert {e.__name__ for e in errors} >= {
        "GraphError", "NotALineGraph", "FrameError", "ToleranceInconsistencyError",
        "SpectralError", "MatrixFormatError"}
    assert all(issubclass(e, ValueError) for e in errors)


def _commands(group, prefix=()):
    """(path, command) for every leaf command under a click group."""
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            assert cmd.params == [], name
            yield from _commands(cmd, (*prefix, name))
        else:
            yield " ".join((*prefix, name)), cmd


def test_global_options():
    # The whole surface: a new command or option has to be added here.
    assert cli.params == []
    commands = dict(_commands(cli))
    assert set(commands) == {
        "gen", "linegraph", "rootgraph",
        "frame laplacian", "frame lkn", "frame lkn-small", "frame star", "frame k2kn",
        "frame kn-minus-e", "complete minimal", "complete twostep",
        "check tight", "check pattern", "check neighbor",
        "check linegraph", "classify",
        "sweep root-order", "sweep join-line", "sweep lemma-p4",
    }
    options = {(name, opt) for name, cmd in commands.items() for p in cmd.params
               if isinstance(p, click.Option) for opt in p.opts}
    assert options == {
        ("check pattern", "--graph"), ("classify", "--out"),
        ("sweep root-order", "--max-n"), ("sweep join-line", "--max-n"),
        ("sweep lemma-p4", "--max-n"),
    }


@pytest.mark.parametrize("argv", [
    ["gen", "cycle", "4", "--out", "f"],
    ["frame", "star", "5", "2", "--keep", "1,3"],
    ["frame", "diamond"],
    ["frame", "dup-chain"],
    ["check", "parseval"],
])
def test_removed_surface_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # A removed option or command exits 2 and writes nothing, neither to
    # stdout nor to a file.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Error:" in err
    assert list(tmp_path.iterdir()) == []


def test_sweeps(runner):
    res = run(runner, ["sweep", "root-order", "--max-n", "5"])
    assert res.exit_code == 0 and "counterexamples 0" in res.output
    res = run(runner, ["sweep", "lemma-p4", "--max-n", "5"])
    assert res.exit_code == 0
    res = run(runner, ["sweep", "join-line", "--max-n", "3"])
    assert res.exit_code == 0 and "counterexamples 0" in res.output


@pytest.mark.parametrize("argv", [
    ["sweep", "root-order", "--max-n", "1"],
    ["sweep", "root-order", "--max-n", "-3"],
    ["sweep", "lemma-p4", "--max-n", "3"],
    ["sweep", "lemma-p4", "--max-n", "0"],
    ["sweep", "join-line", "--max-n", "2"],
])
def test_vacuous_sweep_exits_2(argv, capsys):
    # A sweep that could check nothing is an error, not "checked 0".
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_sweep_counterexamples_exit_1(runner, monkeypatch):
    monkeypatch.setattr(verify, "neighbor_obstruction", lambda g: None)
    res = run(runner, ["sweep", "lemma-p4", "--max-n", "5"])
    assert res.exit_code == 1
    checked, found = (int(line.split()[1]) for line in res.output.splitlines())
    assert found == checked > 0


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


@pytest.mark.parametrize("rows, code, verdict", [
    ("1e200 1\n0 1e200", 2, None),
    ("1e120 1\n0 1e120", 0, "tight"),
    ("1e120 0\n0 2e120", 1, "not_tight"),
])
def test_console_script_extreme_scales_print_no_numpy_warning(rows, code, verdict):
    # F F^T overflows at 1e200, S F - F at 1e120: no numpy warning reaches
    # stderr, and the overflowing operator, not the finite entries, is named.
    res = shell("{fg} check tight", stdin=f"rows 2\ncols 2\n{rows}\n")
    assert res.returncode == code
    if verdict is None:
        assert res.stdout == ""
        assert res.stderr.startswith("error: frame operator") and res.stderr.count("\n") == 1
    else:
        assert res.stdout.split()[0] == verdict and res.stderr == ""


def test_console_script_bad_graph_text():
    res = shell("{fg} linegraph", stdin="not a graph\n")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_console_script_byte_identical():
    a = shell("{fg} frame lkn 6")
    b = shell("{fg} frame lkn 6")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
