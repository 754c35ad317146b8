"""Graph families, operations, induced maps, enumeration, serialization."""

import enum
import importlib.util
import itertools
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_graphs as reference
from framegraphs import graphs, linegraph
from framegraphs.graphs import (
    Graph,
    GraphError,
    beineke,
    components,
    complete,
    complete_bipartite,
    contains_induced,
    cycle,
    delete_edge,
    diamond,
    duplicate_vertex,
    enumerate_connected,
    from_text,
    gen_named,
    hypercube,
    is_connected,
    join,
    o_graph,
    path,
    star,
    to_text,
)


def small_graphs():
    """A fixed pool of small graphs used by the property-style tests."""
    pool = [
        complete(1), complete(4), path(5), cycle(6), star(5),
        complete_bipartite(2, 3), diamond(), o_graph(5), hypercube(3),
    ]
    return pool


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_edges_are_canonicalized():
    g = Graph.from_edges(3, [(2, 1), (0, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 1)


def test_invalid_graphs_rejected():
    with pytest.raises(GraphError, match="at least one vertex"):
        Graph(0, ())
    with pytest.raises(GraphError, match=r"^loop at vertex 1$"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(GraphError, match=r"^bad edge \(0, 2\) for n=2$"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(GraphError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, ((0, 1), (0, 1)))
    # The first fault in edge order is the one reported.
    with pytest.raises(GraphError, match=r"^loop at vertex 2$"):
        Graph(3, ((0, 1), (2, 2), (0, 1)))
    with pytest.raises(GraphError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, ((0, 1), (0, 1), (2, 2)))
    with pytest.raises(GraphError, match=r"^bad edge \(1, 0\) for n=3$"):
        Graph(3, ((0, 1), (1, 0)))


def test_vertices_must_be_integers():
    np = pytest.importorskip("numpy")
    for edges in [((0, 1.5),), ((0.0, 1),), (("0", 1),), ((0, None),)]:
        with pytest.raises(GraphError, match="not an integer"):
            Graph(3, edges)
    with pytest.raises(GraphError, match="not an integer"):
        Graph(3.0, ())
    # numpy integers, as np.nonzero gives them, become Python ints.
    n = 70
    u, v = np.nonzero(np.triu(np.ones((n, n), dtype=int), 1))
    g = Graph(np.int64(n), tuple(zip(u, v)))
    assert type(g.n) is int and all(type(x) is int for e in g.edges for x in e)
    assert g == complete(n) and g._rows == complete(n)._rows
    h = Graph(10, tuple(zip(*np.nonzero(np.triu(np.ones((10, 10), dtype=int), 1)))))
    assert reference.is_isomorphic(h, complete(10))
    with pytest.raises(GraphError, match=r"^bad edge"):
        Graph(3, ((np.int64(0), np.int64(3)),))


def test_malformed_edges_rejected():
    # An edge that is not a pair raises GraphError, not ValueError or
    # TypeError from unpacking it.
    for edges in [((0, 1, 2),), (5,), ((0,),), (None,), ("012",)]:
        with pytest.raises(GraphError, match="not a pair of vertices"):
            Graph(3, edges)
    # So does an unordered pair that is not a pair of integers.
    for edges, message in [([5], "not a pair of vertices"), ([(0, None)], "^None is not"),
                           ([("a", 1)], "^'a' is not an integer")]:
        with pytest.raises(GraphError, match=message):
            Graph.from_edges(3, edges)

    # Bool, IntEnum and other int subclass endpoints, one with its own
    # __str__, are stored as exact ints, so the text round trip holds.
    class Tagged(int):
        def __str__(self):
            return f"my{int(self)}"

    V = enum.IntEnum("V", "A B C D", start=0)
    for n, edges, ints in [(2, ((False, True),), ((0, 1),)),
                           (4, ((2, 3), (True, 3), (0, 2)), ((0, 2), (1, 3), (2, 3))),
                           (3, ((Tagged(0), Tagged(2)),), ((0, 2),)),
                           (4, ((V.B, V.C), (V.A, V.D)), ((0, 3), (1, 2)))]:
        g = Graph(n, edges)
        assert g.edges == ints and all(type(x) is int for e in g.edges for x in e)
        assert to_text(g) == to_text(Graph(n, ints)) and from_text(to_text(g)) == g


def test_edges_may_be_any_iterable():
    # The edges are read once, so an iterator gives the same graph as its tuple.
    k4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
    assert Graph(4, itertools.combinations(range(4), 2)) == k4
    assert Graph(4, (e for e in k4.edges)) == k4
    assert Graph(3, map(tuple, [[0, 1], [1, 2]])) == path(3)
    with pytest.raises(GraphError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, (e for e in ((0, 1), (1, 2), (0, 1))))
    with pytest.raises(GraphError, match="not an integer"):
        Graph(3, (e for e in ((0, 1), (1, 2.0))))


def test_degree_and_neighbors():
    g = diamond()
    assert g.degree_sequence() == (2, 2, 3, 3)
    assert g.neighbors(2) == frozenset({0, 1, 3})


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_family_sizes():
    assert complete(5).m == 10
    assert path(6).m == 5
    assert cycle(7).m == 7
    assert star(6).m == 5 and len(star(6).neighbors(0)) == 5
    assert complete_bipartite(2, 4).m == 8
    assert o_graph(6).m == 6  # star plus one leaf-leaf edge
    assert hypercube(3).n == 8 and hypercube(3).m == 12
    # Bit flips give the graph and labels of networkx's Q_n, its bit
    # tuples numbered in sorted order.
    nx = pytest.importorskip("networkx")
    for n in range(1, 11):
        cube = nx.convert_node_labels_to_integers(nx.hypercube_graph(n), ordering="sorted")
        assert hypercube(n) == Graph.from_edges(2 ** n, cube.edges())
    assert diamond().n == 4 and not diamond().has_edge(0, 1)


def test_family_guards():
    for bad in (lambda: cycle(2), lambda: star(1), lambda: o_graph(2),
                lambda: complete(0), lambda: beineke(10)):
        with pytest.raises(GraphError):
            bad()


def test_gen_named_dispatch():
    assert gen_named("cycle", 5) == cycle(5)
    assert gen_named("complete-bipartite", 2, 3) == complete_bipartite(2, 3)
    with pytest.raises(GraphError):
        gen_named("nope", 3)
    with pytest.raises(GraphError):
        gen_named("cycle")  # missing parameter


def test_gen_named_refuses_oversize_orders_before_building(monkeypatch):
    # No text reader accepts an order above TEXT_MAX_N, so gen_named refuses
    # it without calling the family; at the limit the family is called.
    calls = []

    def stub(*params):
        calls.append(params)
        return "built"

    for tag in ("hypercube", "path", "complete-bipartite"):
        monkeypatch.setitem(graphs._FAMILIES, tag, (stub, graphs._FAMILIES[tag][1]))
    limit = graphs.TEXT_MAX_N
    for tag, *params in (("hypercube", 40), ("hypercube", 10 ** 6), ("hypercube", 17),
                         ("path", 10 ** 9), ("path", limit + 1),
                         ("complete-bipartite", 60000, 60000),
                         ("complete-bipartite", 1, limit)):
        with pytest.raises(GraphError, match=f"exceeds the limit of {limit}"):
            gen_named(tag, *params)
    assert calls == []
    assert gen_named("hypercube", 16) == gen_named("path", limit) == "built"
    assert gen_named("complete-bipartite", 1, limit - 1) == "built"


def test_beineke_basic_identifications():
    # G1 is the claw, G3 is K_5 minus an edge, G9 is the 6-vertex wheel.
    assert reference.is_isomorphic(beineke(1), star(4))
    k5e = delete_edge(complete(5), (0, 1))
    assert reference.is_isomorphic(beineke(3), k5e)
    assert reference.is_isomorphic(beineke(9), join(complete(1), cycle(5)))
    for i in range(1, 10):
        g = beineke(i)
        assert is_connected(g)
        assert g.n in (4, 5, 6)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def test_join_is_complete_split():
    g = join(path(2), path(3))
    assert g.n == 5 and g.m == 1 + 2 + 6
    assert all(g.has_edge(u, v) for u in range(2) for v in range(2, 5))


def test_duplicate_vertex():
    g = duplicate_vertex(cycle(4), 0)
    assert g.n == 5
    assert g.neighbors(4) == g.neighbors(0) - {4} | {0}
    with pytest.raises(GraphError):
        duplicate_vertex(cycle(4), 9)


def test_delete_edge():
    g = delete_edge(complete(4), (0, 1))
    assert g == diamond()
    with pytest.raises(GraphError):
        delete_edge(g, (0, 1))


def test_components_are_ascending_like_networkx():
    nx = pytest.importorskip("networkx")
    # Breadth-first from 0 meets 9 before 2, and from 1 meets 8 before 3.
    g = Graph.from_edges(12, [(0, 9), (9, 2), (0, 5), (1, 8), (8, 3), (3, 11), (6, 7)])
    a = nx.Graph(g.edges)
    a.add_nodes_from(range(g.n))
    assert components(g) == sorted((sorted(c) for c in nx.connected_components(a)), key=min)
    assert components(g)[0] == [0, 2, 5, 9]
    for g in small_graphs() + [_relabel(path(30), 3), _relabel(cycle(9), 4)]:
        a = nx.Graph(g.edges)
        a.add_nodes_from(range(g.n))
        assert components(g) == sorted((sorted(c) for c in nx.connected_components(a)), key=min)


def test_is_connected():
    assert is_connected(path(7))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(complete(1))


def test_is_connected_agrees_with_components_on_atlas(atlas):
    nx = pytest.importorskip("networkx")
    for a, g in atlas:
        assert is_connected(g) == (len(components(g)) == 1) == nx.is_connected(a), g


# ---------------------------------------------------------------------------
# Induced maps at equal order: isomorphism
# ---------------------------------------------------------------------------

def _isomorphic(g, h):
    """Whether g and h are isomorphic, by the induced-map search: at equal
    order and size an induced map of g into h is an isomorphism, which
    classify's C_4, G2 and G6 entries rest on."""
    return g.n == h.n and g.m == h.m and contains_induced(h, g) is not None


def test_isomorphism_negative_cases():
    assert not _isomorphic(path(4), star(4))
    assert not _isomorphic(cycle(6), complete_bipartite(3, 3))
    assert not _isomorphic(complete(4), cycle(4))
    # Regular with equal degrees and size: the search decides.
    square = list(cycle(4).edges)
    two_squares = Graph.from_edges(8, square + [(u + 4, v + 4) for u, v in square])
    assert not _isomorphic(cycle(8), two_squares) and not _isomorphic(two_squares, cycle(8))


def test_isomorphism_is_equivalence_relation():
    pool = small_graphs() + [duplicate_vertex(diamond(), 2), complete(5)]
    for g in pool:
        assert _isomorphic(g, g)
    for g, h in itertools.combinations(pool, 2):
        assert _isomorphic(g, h) == _isomorphic(h, g)
    # Transitivity on a triple of relabeled copies of the same graph.
    a = diamond()
    b = Graph.from_edges(4, [(1, 3), (1, 2), (0, 3), (0, 2), (0, 1)])
    c = Graph.from_edges(4, [(0, 1), (0, 3), (1, 2), (2, 3), (1, 3)])
    assert _isomorphic(a, b) and _isomorphic(b, c) and _isomorphic(a, c)


def _relabel(g, seed):
    """g with its vertices permuted by a seeded shuffle."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@pytest.mark.parametrize("g", [path(1500), complete_bipartite(2, 1000)],
                         ids=["path1500", "k2_1000"])
def test_isomorphism_has_no_recursion_limit(g):
    h = _relabel(g, 7)
    phi = contains_induced(h, g)
    assert phi is not None and sorted(phi.values()) == list(range(g.n))
    assert all(h.has_edge(phi[u], phi[v]) for u, v in g.edges)


@given(st.integers(2, 11), st.integers(0, 2**55), st.integers(0, 10**6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_isomorphism_agrees_with_networkx(n, bits, seed, move):
    # h is a relabelled g, with one edge moved to a non-edge when move is
    # set: the induced-map search at equal order and size must agree with
    # networkx whether or not the degrees already tell the graphs apart.
    nx = pytest.importorskip("networkx")
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for i, p in enumerate(pairs) if bits >> i % 56 & 1]
    g = Graph(n, tuple(edges))
    absent = [p for p in pairs if p not in edges]
    if move and edges and absent:
        edges = edges[1:] + [absent[seed % len(absent)]]
    h = _relabel(Graph.from_edges(n, edges), seed)
    a, b = nx.Graph(g.edges), nx.Graph(h.edges)
    a.add_nodes_from(range(n))
    b.add_nodes_from(range(n))
    phi = contains_induced(h, g)
    assert (phi is not None) == nx.is_isomorphic(a, b)
    if phi is not None:
        assert sorted(h.edges) == sorted(tuple(sorted((phi[u], phi[v]))) for u, v in g.edges)


def test_only_graphs_reads_the_matcher_internals():
    # The induced-map search and the views it reads live in graphs.py;
    # every other module goes through its two questions:
    # enumerate_connected and contains_induced.
    for path_ in sorted(Path(graphs.__file__).parent.glob("*.py")):
        if path_.name != "graphs.py":
            text = path_.read_text()
            for name in ("_induced_map", "._steps"):
                assert name not in text, f"{path_.name} names {name}"
    assert graphs.contains_induced.__module__ == "framegraphs.graphs"
    assert linegraph.contains_induced is graphs.contains_induced


@given(st.integers(1, 14), st.integers(0, 2**40), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_search_order_follows_edges(n, bits, seed):
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, tuple(p for i, p in enumerate(pairs) if bits >> (i % 41) & 1))
    g = _relabel(g, seed)
    order = [u for u, _, _ in g._steps]
    assert sorted(order) == list(range(n))
    assert order == reference._search_order(g, [g.neighbors(u) for u in range(n)])
    assert list(g._steps) == reference.match_steps(g)
    if is_connected(g):
        assert all(near for _, near, _ in g._steps[1:])


def test_pattern_match_steps_follow_the_plain_rule():
    from framegraphs import verify

    patterns = [beineke(i) for i in range(1, 10)] + [path(4)]
    patterns += [shape.args[0] for n in range(1, 13) for m in range(n * (n - 1) // 2 + 1)
                 for _, _, shape in verify._catalog(n, m) if shape.func is verify._by_pattern]
    assert len(patterns) > 10
    for p in patterns:
        assert list(p._steps) == reference.match_steps(p), p


def test_a_host_builds_no_match_steps():
    pattern = hypercube(3)
    g = _relabel(pattern, 1)
    assert contains_induced(g, pattern) is not None
    assert contains_induced(g, beineke(1)) is not None
    assert "_steps" in pattern.__dict__ and "_steps" not in g.__dict__


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_reference(n):
    # Same graphs, same labels, same order: the first candidate of each
    # class survives the twin pruning and the label buckets.
    assert enumerate_connected(n) == reference.enumerate_connected(n)


def test_enumeration_matches_networkx_atlas(atlas):
    nx = pytest.importorskip("networkx")

    def key(a):
        tri = nx.triangles(a)
        return tuple(sorted((d, tri[u]) for u, d in a.degree()))

    for n in range(1, 8):
        buckets = {}
        for i, (a, _) in enumerate(atlas):
            if a.number_of_nodes() == n and nx.is_connected(a):
                buckets.setdefault(key(a), []).append((i, a))
        found = []
        for g in enumerate_connected(n):
            a = nx.Graph(g.edges)
            a.add_nodes_from(range(n))
            found += [i for i, b in buckets.get(key(a), ()) if nx.is_isomorphic(a, b)]
        assert sorted(found) == sorted(i for b in buckets.values() for i, _ in b)


def test_enumeration_views_match_networkx(views_match_networkx):
    # The enumeration works on its own bitmask rows; the adjacency views
    # each kept graph derives from its edges equal networkx's.
    for n in range(1, 8):
        for g in enumerate_connected(n):
            views_match_networkx(g)


def test_enumeration_of_order_8():
    # OEIS A001349: 11117 connected graphs on 8 vertices.
    level = enumerate_connected(8)
    assert len(level) == 11117
    assert all(g.n == 8 and is_connected(g) for g in level)


def _brute_force_connected(n):
    """Independent oracle: all edge subsets, dedup by isomorphism."""
    out = []
    pairs = list(itertools.combinations(range(n), 2))
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            g = Graph.from_edges(n, chosen)
            if is_connected(g) and not any(reference.is_isomorphic(g, h) for h in out):
                out.append(g)
    return out


def test_enumeration_counts():
    assert [len(enumerate_connected(n)) for n in range(1, 8)] == \
        [1, 1, 2, 6, 21, 112, 853]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_brute_force(n):
    fast = enumerate_connected(n)
    slow = _brute_force_connected(n)
    assert len(fast) == len(slow)
    for g in slow:
        assert sum(1 for h in fast if reference.is_isomorphic(g, h)) == 1


def test_enumeration_entries_are_connected_and_distinct():
    level = enumerate_connected(5)
    assert all(is_connected(g) for g in level)
    for g, h in itertools.combinations(level, 2):
        assert not reference.is_isomorphic(g, h)


def test_enumeration_guard():
    with pytest.raises(GraphError):
        enumerate_connected(0)
    with pytest.raises(GraphError):
        enumerate_connected(graphs.ENUMERATION_MAX_N + 1)
    with pytest.raises(GraphError):
        enumerate_connected(5, -2)  # no connected graph has m - n < -1
    # Orders and excesses are integers; a numpy order gives Python-int graphs.
    np = pytest.importorskip("numpy")
    assert {type(g.n) for g in enumerate_connected(np.int64(4))} == {int}
    assert enumerate_connected(np.int64(4), np.int64(0)) == enumerate_connected(4, 0)
    for args in [(5.0,), (5, 0.5)]:
        with pytest.raises(GraphError, match="not an integer"):
            enumerate_connected(*args)


def test_bounded_enumeration_is_the_filtered_level():
    # Same graphs, same labels, same order as the full level filtered by
    # edge excess.
    for n, excesses in [*((n, range(-1, 3)) for n in range(1, 8)), (8, (-1, 0))]:
        full = enumerate_connected(n)
        for e in excesses:
            assert enumerate_connected(n, e) == [g for g in full if g.m - g.n <= e], (n, e)
    assert [len(enumerate_connected(n, 0)) for n in (7, 8)] == [44, 112]


def test_enumeration_returns_a_fresh_list():
    # A caller may edit what it gets: the next call reads the table again.
    first = enumerate_connected(6)
    expected = list(first)
    first.clear()
    assert enumerate_connected(6) == expected and len(expected) == 112


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_table_is_what_its_script_writes():
    # The full n <= 8 table is compared in CI (about 3 s); n <= 7 here.
    spec = importlib.util.spec_from_file_location(
        "connected_table", TOOLS / "connected_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with open(graphs.CONNECTED_TABLE) as f:
        head = list(itertools.islice(f, sum(graphs.CONNECTED_COUNTS[:7])))
    assert len(head) == 996 and list(script.lines(7)) == head


def test_table_agrees_with_networkx():
    # networkx reads graph6 independently: each line is a connected graph
    # of its level's order with the enumerated edges, and level 8 has no
    # two isomorphic graphs (bucketed by Weisfeiler-Lehman hash first).
    nx = pytest.importorskip("networkx")
    with open(graphs.CONNECTED_TABLE, "rb") as f:
        lines = f.read().splitlines()
    enumerated = [g for n in range(1, 9) for g in enumerate_connected(n)]
    assert len(lines) == len(enumerated) == 12113
    buckets = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the WL hash may change
        for line, g in zip(lines, enumerated):
            a = nx.from_graph6_bytes(line)
            assert a.number_of_nodes() == g.n and nx.is_connected(a), line
            assert sorted(tuple(sorted(e)) for e in a.edges()) == list(g.edges), line
            if g.n == 8:
                buckets.setdefault(nx.weisfeiler_lehman_graph_hash(a), []).append(a)
    assert sum(map(len, buckets.values())) == 11117
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket, 2):
            assert not nx.is_isomorphic(a, b)


@pytest.fixture
def damaged_table(tmp_path, monkeypatch):
    """A function that writes a copy of the table's lines, damaged, and
    points the loader at it; the table cache is cleared around the test."""
    with open(graphs.CONNECTED_TABLE, "rb") as f:
        lines = f.read().splitlines(keepends=True)

    def damage(edit):
        copy = tmp_path / "connected.g6"
        copy.write_bytes(b"".join(edit(list(lines))))
        monkeypatch.setattr(graphs, "CONNECTED_TABLE", str(copy))
        return copy

    graphs._table.cache_clear()
    yield damage
    graphs._table.cache_clear()


def _set_line(i, line):
    def edit(lines):
        lines[i] = line
        return lines
    return edit


@pytest.mark.parametrize("edit, why", [
    (_set_line(500, b"FsRp\n"), "not 5 characters long"),  # a character short
    (_set_line(500, b"FsRpO?\n"), "not 5 characters long"),  # one too many
    (lambda lines: lines[:5000] + [lines[5000][:3]], "not 6 characters long"),  # cut
    (_set_line(500, b"FsR O\n"), "outside 63..126"),
    (_set_line(500, b"FsR\x7fO\n"), "outside 63..126"),
    (_set_line(500, b"FsRpP\n"), "nonzero padding"),  # "P" - 63 = 17: bit 0 is padding
    (lambda lines: lines[:500] + lines[501:], r"\(1, 1, 2, 6, 21, 112, 852, 11117\)"),
    (lambda lines: lines[:996], r"\(1, 1, 2, 6, 21, 112, 853\) graphs"),  # truncated
    (lambda lines: lines + lines[-1:], "11118"),
    (lambda lines: lines + [b"H" + b"?" * 6 + b"\n"], r"11117, 1\)"),  # a level 9
    (lambda lines: lines[:3] + [b"\n"] + lines[3:], "order 0"),  # a blank line
    (lambda lines: lines[996:] + lines[:996], "order 8 out of place"),
], ids=["short", "long", "cut", "space", "del", "padding", "missing", "truncated",
        "repeated", "level-9", "blank", "reordered"])
def test_damaged_table_is_rejected(damaged_table, edit, why):
    copy = damaged_table(edit)
    for n in (1, 7):
        with pytest.raises(GraphError, match=re.escape(str(copy)) + ".*" + why):
            enumerate_connected(n, 0)


def test_import_reads_no_table():
    code = ("import framegraphs.cli; from framegraphs import graphs; "
            "assert graphs._table.cache_info().currsize == 0")
    env = {**os.environ, "PYTHONPATH": str(Path(graphs.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_table_is_read_on_first_call_only(damaged_table):
    copy = damaged_table(lambda lines: lines)
    assert len(enumerate_connected(7)) == 853
    copy.unlink()  # already read: later levels decode from memory
    assert len(enumerate_connected(8, 0)) == 112


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def test_text_round_trip():
    for g in small_graphs():
        assert from_text(to_text(g)) == g
    # to_text refuses what from_text would: its output always reads back.
    with pytest.raises(GraphError, match="exceeds"):
        to_text(path(graphs.TEXT_MAX_N + 1))


def test_text_comments_and_errors():
    g = from_text("# header\n3 2\n0 1  # an edge\n\n1 2\n")
    assert g == path(3)
    for bad in ("", "3 1\n", "3 1\n1 0\n", "x y\n", "2 1\n0 one\n"):
        with pytest.raises(GraphError):
            from_text(bad)


def test_text_order_limit(monkeypatch):
    # The header is rejected before any Graph is built.
    def no_graph(*args):
        raise AssertionError("Graph built before the order check")

    monkeypatch.setattr(graphs, "Graph", no_graph)
    with pytest.raises(GraphError, match="exceeds"):
        from_text("1000000000 0\n")
    with pytest.raises(GraphError, match="exceeds"):
        from_text(f"{graphs.TEXT_MAX_N + 1} 0\n")


# ---------------------------------------------------------------------------
# Property-style invariants
# ---------------------------------------------------------------------------

@st.composite
def connected_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = enumerate_connected(n)
    return pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=5), connected_graphs(max_n=5))
def test_join_edge_count_law(g, h):
    assert join(g, h).m == g.m + h.m + g.n * h.n


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=6), st.integers(min_value=0, max_value=5))
def test_duplicate_vertex_edge_count(g, u):
    u %= g.n
    dup = duplicate_vertex(g, u)
    assert dup.n == g.n + 1
    assert dup.m == g.m + len(g.neighbors(u)) + 1
