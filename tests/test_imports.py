"""Import layering: the graph layers and the CLI start without numpy, and
the package resolves its exports on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import framegraphs
from framegraphs import frames, graphs, spectral, verify
from framegraphs.cli import cli
from framegraphs.graphs import complete, delete_edge, path, to_text
from framegraphs.linegraph import line_graph

ENV = {**os.environ, "PYTHONPATH": str(Path(graphs.__file__).parents[1])}

# Runs cli.main on its arguments in a fresh interpreter, then reports on
# stderr's last line whether numpy was loaded.
CHILD = """\
import sys
import framegraphs.cli
assert "numpy" not in sys.modules, "import framegraphs.cli loaded numpy"
try:
    framegraphs.cli.main(sys.argv[1:])
finally:
    print("numpy" in sys.modules, file=sys.stderr)
"""


def fresh_cli(argv, stdin=""):
    """(exit code, stdout, whether numpy was loaded) of one fresh run."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], input=stdin,
                          capture_output=True, text=True, env=ENV)
    loaded = proc.stderr.splitlines()[-1]
    assert loaded in ("True", "False"), proc.stderr
    return proc.returncode, proc.stdout, loaded == "True"


GRAPH_COMMANDS = [
    (["gen", "complete", "5"], None, 0),
    (["linegraph"], to_text(complete(5)), 0),
    (["rootgraph"], to_text(line_graph(complete(5)).line), 0),
    (["check", "linegraph"], to_text(line_graph(complete(5)).line), 0),
    (["check", "linegraph"], to_text(delete_edge(complete(5), (0, 1))), 1),
    (["check", "neighbor"], to_text(path(4)), 0),
    (["classify"], to_text(path(5)), 1),
    (["sweep", "lemma-p4", "--max-n", "5"], None, 0),
    (["sweep", "join-line", "--max-n", "4"], None, 0),
]


@pytest.mark.parametrize("argv, stdin, status", GRAPH_COMMANDS,
                         ids=[" ".join(argv) for argv, *_ in GRAPH_COMMANDS])
def test_graph_commands_load_no_numpy(argv, stdin, status):
    rc, out, numpy_loaded = fresh_cli(argv, stdin or "")
    assert (rc, numpy_loaded) == (status, False)
    assert out == CliRunner().invoke(cli, argv, input=stdin).stdout


def test_frame_commands_load_numpy_on_demand():
    rc, frame_text, numpy_loaded = fresh_cli(["frame", "lkn", "5"])
    assert rc == 0 and numpy_loaded
    rc, out, numpy_loaded = fresh_cli(["check", "tight"], frame_text)
    assert rc == 0 and numpy_loaded
    assert out.split()[0] in ("tight", "parseval")


# ---------------------------------------------------------------------------
# The lazy package
# ---------------------------------------------------------------------------

# Each export and the module it comes from.
HOMES = {
    graphs: ["Graph", "gen_named"],
    spectral: ["sym_eig"],
    frames: ["Frame", "associated_graph", "frame_operator", "gramian",
             "naimark_complement", "tightness"],
    verify: ["Certificate", "classify"],
}


def test_exports_are_the_home_objects():
    assert framegraphs.__all__ == sorted(name for names in HOMES.values() for name in names)
    for home, names in HOMES.items():
        for name in names:
            assert getattr(framegraphs, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from framegraphs import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(framegraphs.__all__)
    for name in framegraphs.__all__:
        assert namespace[name] is getattr(framegraphs, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        framegraphs.no_such_name
    assert not hasattr(framegraphs, "oriented_incidence")


def test_submodules_still_import_through_the_package():
    code = ("import sys, framegraphs\n"
            "assert 'framegraphs.constructions' not in sys.modules\n"
            "from framegraphs import constructions\n"
            "assert constructions is sys.modules['framegraphs.constructions']\n"
            "assert framegraphs.constructions is constructions\n")
    subprocess.run([sys.executable, "-c", code], check=True, env=ENV)
    # As when the package imported them eagerly, a submodule read as an
    # attribute loads then, and a graph layer loads no numpy.
    code = ("import sys, framegraphs\n"
            "assert framegraphs.verify.classify is framegraphs.classify\n"
            "assert 'numpy' not in sys.modules\n"
            "assert framegraphs.frames.Frame is framegraphs.Frame\n")
    subprocess.run([sys.executable, "-c", code], check=True, env=ENV)
