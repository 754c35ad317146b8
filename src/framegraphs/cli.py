"""Command-line surface for graph generation, frame construction, checks,
classification, and exhaustive sweeps.

Exit codes: 0 for a positive verdict or plain success, 1 for a negative
verdict, 2 for usage or internal errors.  Every command writes to stdout
only, except that `classify --out` also writes its certificate frame to a
file.  Graphs and frames are piped between commands in the text formats of
:mod:`framegraphs.graphs` and :mod:`framegraphs.matio`.

Only the commands that build, read or classify frames import the numeric
layers, when they run: the graph commands start without numpy.
"""

from __future__ import annotations

import sys
import traceback
from pathlib import Path

import click

from . import graphs, verify
from .graphs import TEXT_MAX_N, GraphError, gen_named, from_text, to_text
from .linegraph import is_line_graph, line_graph, root_graph


def _read(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text()


def _load_graph(source: str) -> graphs.Graph:
    return from_text(_read(source))


def _load_frame(source: str):
    from . import matio
    return matio.frame_from_text(_read(source))


@click.group()
def cli():
    """Tight frame graphs: generate, build, check, classify and sweep."""


# ---------------------------------------------------------------------------
# Graph commands
# ---------------------------------------------------------------------------

@cli.command()
@click.argument("family")
@click.argument("params", nargs=-1, type=int)
def gen(family, params):
    """Generate a named graph family member (e.g. `gen cycle 5`)."""
    click.echo(to_text(gen_named(family, *params)), nl=False)


@cli.command()
@click.argument("graph", default="-")
def linegraph(graph):
    """Line graph of GRAPH (file or '-' for stdin)."""
    click.echo(to_text(line_graph(_load_graph(graph)).line), nl=False)


@cli.command()
@click.argument("graph", default="-")
def rootgraph(graph):
    """Root graph(s) of a connected line graph; K_3 yields two."""
    roots = root_graph(_load_graph(graph))
    click.echo("\n".join(to_text(r) for r in roots), nl=False)


# ---------------------------------------------------------------------------
# Frame constructions
# ---------------------------------------------------------------------------

@cli.group()
def frame():
    """Build frames for graph families."""


def _emit_frame(f):
    from . import matio
    click.echo(matio.frame_to_text(f), nl=False)


@frame.command("laplacian")
@click.argument("graph", default="-")
def frame_laplacian(graph):
    """Laplacian-eigenbasis frame for the line graph of GRAPH."""
    from . import constructions
    _emit_frame(constructions.laplacian_method(_load_graph(graph)))


def _lkn_order(ctx, param, n):
    """N, refused before anything is built if L(K_n) has more vertices than graph text takes."""
    if n > 0 and (order := n * (n - 1) // 2) > TEXT_MAX_N:
        raise GraphError(f"line graph order {order} exceeds the limit of {TEXT_MAX_N}")
    return n


@frame.command("lkn")
@click.argument("n", type=int, callback=_lkn_order)
def frame_lkn(n):
    """Tight frame for the line graph of K_n in dimension n-1."""
    from . import constructions
    _emit_frame(constructions.laplacian_method(graphs.complete(n)))


@frame.command("lkn-small")
@click.argument("n", type=int, callback=_lkn_order)
def frame_lkn_small(n):
    """Tight frame for the line graph of K_n in dimension n-2."""
    from . import constructions
    _emit_frame(constructions.lkn_small_frame(n))


@frame.command("star")
@click.argument("n", type=int)
@click.argument("d", type=int)
def frame_star(n, d):
    """Parseval frame for K_n in dimension d via the star construction."""
    from . import constructions
    _emit_frame(constructions.star_frame(n, d))


@frame.command("k2kn")
@click.argument("n", type=int)
def frame_k2kn(n):
    """Tight frame for the product of K_2 and K_n."""
    from . import constructions
    _emit_frame(constructions.k2kn_frame(n))


@frame.command("kn-minus-e")
@click.argument("n", type=int)
def frame_kn_minus_e(n):
    """Parseval frame for K_n minus an edge (n >= 4); n = 4 is the diamond."""
    from . import constructions
    _emit_frame(constructions.kn_minus_e_frame(n))


# ---------------------------------------------------------------------------
# Completions
# ---------------------------------------------------------------------------

@cli.group()
def complete():
    """Complete a frame to a tight frame."""


def _emit_completion(result):
    from . import matio
    header = f"# added {len(result.added)} bound {result.bound:.17g}\n"
    click.echo(header + matio.frame_to_text(result.frame), nl=False)


@complete.command("minimal")
@click.argument("frame_src", metavar="FRAME", default="-")
def complete_minimal(frame_src):
    """Minimal tight completion (eigenvalue-deficit vectors)."""
    from . import constructions
    _emit_completion(constructions.minimal_tight_completion(_load_frame(frame_src)))


@complete.command("twostep")
@click.argument("frame_src", metavar="FRAME", default="-")
def complete_twostep(frame_src):
    """Generic two-step completion (orthogonalize rows, then equalize norms)."""
    from . import constructions
    _emit_completion(constructions.two_step_completion(_load_frame(frame_src)))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@cli.group()
def check():
    """Predicates on frames and graphs; exit 0 when the verdict is positive."""


@check.command("tight")
@click.argument("frame_src", metavar="FRAME", default="-")
def check_tight(frame_src):
    """Exit 0 iff the frame is tight; a Parseval frame prints `parseval`, not `tight`."""
    from .frames import tightness
    t = tightness(_load_frame(frame_src))
    click.echo(f"{t.kind} lower {t.lower:.17g} upper {t.upper:.17g}")
    sys.exit(0 if t.kind in ("tight", "parseval") else 1)


@check.command("pattern")
@click.argument("frame_src", metavar="FRAME", default="-")
@click.option("--graph", "graph_src", required=True, help="Graph file to compare against.")
def check_pattern(frame_src, graph_src):
    """Exit 0 iff the frame's Gram pattern equals the graph (labeled)."""
    if frame_src == graph_src == "-":
        raise click.UsageError("FRAME and --graph cannot both read stdin ('-')")
    from .frames import represents
    ok = represents(_load_frame(frame_src), _load_graph(graph_src))
    click.echo("match" if ok else "mismatch")
    sys.exit(0 if ok else 1)


@check.command("neighbor")
@click.argument("graph", default="-")
def check_neighbor(graph):
    """Common-neighbor obstruction; exit 0 when a witness is found."""
    w = verify.neighbor_obstruction(_load_graph(graph))
    if w is None:
        click.echo("none")
        sys.exit(1)
    click.echo(f"witness {w[0]} {w[1]} common {w[2]}")
    sys.exit(0)


@check.command("linegraph")
@click.argument("graph", default="-")
def check_linegraph(graph):
    """Exit 0 iff GRAPH is a line graph; otherwise print a forbidden witness:
    the first claw (G1), else one spanned by two odd triangles on an edge
    with non-adjacent apexes (van Rooij & Wilf)."""
    verdict = is_line_graph(_load_graph(graph))
    if verdict is True:
        click.echo("line-graph")
        sys.exit(0)
    _, idx, embedding = verdict
    mapped = " ".join(str(embedding[k]) for k in sorted(embedding))
    click.echo(f"forbidden G{idx} vertices {mapped}")
    sys.exit(1)


# ---------------------------------------------------------------------------
# Classification and sweeps
# ---------------------------------------------------------------------------

@cli.command()
@click.argument("graph", default="-")
@click.option("--out", type=click.Path(), help="Write the certificate frame here.")
def classify(graph, out):
    """Classify GRAPH; exit 0 only for a machine-verified tight certificate."""
    cert = verify.classify(_load_graph(graph))
    lines = [f"verdict {cert.verdict}"]
    if cert.detail:
        lines.append(f"detail {cert.detail}")
    if cert.dimension is not None:
        lines.append(f"dimension {cert.dimension}")
    if cert.witness is not None:
        kind, data = cert.witness
        lines.append(f"witness {kind} " + " ".join(str(x) for x in data))
    if out and cert.frame is not None:  # written first: a failed write prints nothing
        from . import matio
        Path(out).write_text(matio.frame_to_text(cert.frame))
        lines.append(f"certificate {out}")
    click.echo("\n".join(lines))
    sys.exit(0 if cert.verdict == "tight" else 1)


@cli.group()
def sweep():
    """Exhaustive small-graph sweeps; exit 0 when no counterexample is found."""


def _emit_report(report):
    click.echo(f"checked {report.checked}")
    click.echo(f"counterexamples {len(report.counterexamples)}")
    sys.exit(0 if report.ok else 1)


@sweep.command("root-order")
@click.option("--max-n", type=int, default=6, show_default=True)
def sweep_root_order(max_n):
    """Root-order classification sweep."""
    _emit_report(verify.root_order_theorem_check(max_n))


@sweep.command("join-line")
@click.option("--max-n", type=int, default=4, show_default=True)
def sweep_join_line(max_n):
    """Joins of connected graphs are not line graphs."""
    _emit_report(verify.join_line_check(max_n))


@sweep.command("lemma-p4")
@click.option("--max-n", type=int, default=6, show_default=True)
def sweep_lemma_p4(max_n):
    """Induced 4-paths in the root force an obstruction in the line graph."""
    _emit_report(verify.induced_path_sweep(max_n))


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=True)
    except (OSError, ValueError) as exc:  # every framegraphs error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except MemoryError as exc:  # an input too large for this machine
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        sys.exit(2)
    except Exception as exc:
        # A fault, not a verdict: Python's own exit code 1 would read "not tight".
        traceback.print_exc()
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
