"""Tests of the benchmark itself (not collected with the program's tests).

    python3 -m pytest -q perfbench/selftest.py

They check that each oracle rejects a corrupted result, that a smoke size
of every workload finishes in seconds with every op correct, that the
traced run's self times add up to the traced op time, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import oracles
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from framegraphs import graphs, linegraph, verify  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _classify_out(n, edges):
    cert = verify.classify(graphs.Graph(n, tuple(edges)))
    return {"verdict": cert.verdict, "witness": cert.witness,
            "frame": None if cert.frame is None else cert.frame.synthesis.tolist()}


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def test_beineke_table_is_the_set_of_minimal_non_line_graphs():
    def is_line(g):
        return all(_has_root(g.subgraph(c)) for c in nx.connected_components(g))

    def _has_root(g):
        try:
            nx.inverse_line_graph(nx.convert_node_labels_to_integers(g))
        except nx.NetworkXError:
            return False
        return True

    minimal = [
        g for g in nx.graph_atlas_g()[1:208]
        if nx.is_connected(g) and not is_line(g)
        and all(is_line(g.subgraph(set(g) - {v})) for v in g)
    ]
    table = [oracles.nx_graph(*oracles.BEINEKE[i]) for i in range(1, 10)]
    assert len(minimal) == 9
    for g in table:
        assert sum(nx.is_isomorphic(g, h) for h in minimal) == 1


def test_classify_oracle_rejects_corrupted_certificates():
    c4 = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    good = _classify_out(*c4)
    assert good["verdict"] == "tight"
    assert oracles.check_classify({"n": 4, "edges": c4[1]}, good) is None
    # Same frame claimed for C_4 minus an edge: one Gram entry should be zero.
    fewer = {"n": 4, "edges": c4[1][1:]}
    assert "Gram support" in oracles.check_classify(fewer, good)
    skewed = dict(good, frame=(np.array(good["frame"]) * [[1.0], [2.0]]).tolist())
    assert "multiple of I" in oracles.check_classify({"n": 4, "edges": c4[1]}, skewed)

    p4 = (4, [(0, 1), (1, 2), (2, 3)])
    good = _classify_out(*p4)
    assert good["verdict"] == "not_tight"
    assert oracles.check_classify({"n": 4, "edges": p4[1]}, good) is None
    kind, (u, v, w) = good["witness"]
    wrong = dict(good, witness=(kind, (u, v, (w + 1) % 4)))
    assert oracles.check_classify({"n": 4, "edges": p4[1]}, wrong) is not None
    unknown = {"verdict": "unknown", "witness": None, "frame": None}
    assert "obstruction exists" in oracles.check_classify({"n": 4, "edges": p4[1]}, unknown)
    expect = {"n": 4, "edges": p4[1], "expect": "tight"}
    assert "expected tight" in oracles.check_classify(expect, good)


def test_atlas_counts_catch_a_changed_verdict():
    counts = {n: dict(c) for n, c in oracles.ATLAS_COUNTS.items()}
    assert oracles.check_atlas_counts(counts) == []
    counts[6]["unknown"] -= 1
    counts[6]["tight"] += 1
    assert oracles.check_atlas_counts(counts) == [6]


def test_frame_chain_oracle_rejects_corruption():
    import client

    root = (5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])
    op = {"n": 5, "edges": root[1]}
    good = client.encode("frames-large", client.op_frame_chain(graphs.Graph(5, tuple(root[1]))))
    assert oracles.check_frame_chain(op, good) is None
    zeroed = dict(good, pattern_edges=good["pattern_edges"][1:])
    assert "associated_graph" in oracles.check_frame_chain(op, zeroed)
    frame = np.array(good["frame"])
    frame[:, 0] = 0.0
    assert "Gram support" in oracles.check_frame_chain(op, dict(good, frame=frame.tolist()))
    assert "tightness" in oracles.check_frame_chain(op, dict(good, kind="tight"))
    assert "round trip" in oracles.check_frame_chain(op, dict(good, roundtrip_sha1="0" * 40))


def test_recognition_oracle_rejects_wrong_roots_and_witnesses():
    import client

    root = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    n, edges = len(root[1]), oracles.line_graph_edges(root[1])
    op = {"n": n, "edges": edges, "root": root}
    out = client.encode("recognize-lines", client.op_recognize((graphs.Graph(n, tuple(edges)), True)))
    assert oracles.check_recognition(op, out) is None
    wrong_root = [7, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]]]  # same m, not the root
    assert "root" in oracles.check_recognition(op, dict(out, roots=[wrong_root]))

    claw_plus = (5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    op = {"n": 5, "edges": claw_plus[1], "root": None}
    g = graphs.Graph(5, tuple(claw_plus[1]))
    out = client.encode("recognize-lines", client.op_recognize((g, True)))
    assert out["line"][0] == 1
    assert oracles.check_recognition(op, out) is None
    idx, emb = out["line"]
    moved = [emb[0], emb[1], emb[2], 4]  # vertex 4 is not a neighbour of the centre
    assert "induce" in oracles.check_recognition(op, dict(out, line=[idx, moved]))
    assert "non-line" in oracles.check_recognition(op, dict(out, line=True))
    assert linegraph.is_line_graph(g) is not True


def test_cli_oracle_rejects_wrong_counts_and_exit_codes():
    stage = {"check": "sweep", "checked": 78}
    assert oracles.check_cli_stage(stage, {"rc": 0, "stdout": "checked 78\ncounterexamples 0\n"},
                                   None) is None
    assert oracles.check_cli_stage(stage, {"rc": 0, "stdout": "checked 77\ncounterexamples 0\n"},
                                   None) is not None
    assert oracles.check_cli_stage(stage, {"rc": 0, "stdout": "checked 78\ncounterexamples 1\n"},
                                   None) is not None
    k3 = (3, [(0, 1), (0, 2), (1, 2)])
    gen = {"check": "gen", "rc": 0, "graph": k3}
    text = "3 3\n0 1\n0 2\n1 2\n"
    assert oracles.check_cli_stage(gen, {"rc": 0, "stdout": text}, None) is None
    assert "exit code" in oracles.check_cli_stage(gen, {"rc": 1, "stdout": text}, None)
    lg = {"check": "linegraph", "rc": 0}
    assert oracles.check_cli_stage(lg, {"rc": 0, "stdout": text}, text) is None
    assert oracles.check_cli_stage(lg, {"rc": 0, "stdout": "3 2\n0 1\n1 2\n"}, text) is not None


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(x) for x in range(20, 0, -1)])
    assert value == 10.0 and pct == 50.0
    assert sum(x > value for x in range(1, 21)) == 10


def test_inputs_depend_only_on_the_seed():
    for name in workloads.GENERATORS:
        assert workloads.generate(name, 3) == workloads.generate(name, 3)
    assert workloads.generate("frames-large", 3) != workloads.generate("frames-large", 4)


def test_inputs_stay_inside_the_program_caps():
    for op in workloads.generate("classify-mix", 5):
        assert op["n"] <= workloads.CLASSIFY_MAX_N
    for op in workloads.generate("recognize-lines", 5):
        assert op["n"] <= workloads.LINE_GRAPH_MAX_N
        assert op["root_call"] == (op["n"] <= workloads.ROOT_GRAPH_MAX_N)
        if op["tag"] == "line":
            degrees = np.bincount(np.ravel(op["root"][1]))
            assert degrees.max() <= workloads.ROOT_MAX_DEGREE


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------

def _last_json(res):
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_untraced_smoke_reports_every_end_to_end_metric():
    detail, result = _last_json(_bench("--workload", "classify-mix", "--seed", "1",
                                       "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["wall_s"] < 30


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_self_times_add_up(workload):
    detail, result = _last_json(_bench("--workload", workload, "--seed", "2",
                                       "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert detail["wall_s"] < 60
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert m["trace.op_s"] > 0
    assert abs(layers + m["bench.op.self_s"] - m["trace.op_s"]) <= 1e-6 * m["trace.op_s"]
    with np.load(ROOT / detail["spans_file"]) as arrs:
        data = {k: arrs[k] for k in arrs.files}
    own = data["end"] - data["start"]
    child = np.bincount(data["parent"][data["parent"] >= 0],
                        weights=own[data["parent"] >= 0], minlength=len(own))
    assert np.all(own - child >= -1e-6)
    assert spans.summarize(data)["trace.op_s"] == pytest.approx(m["trace.op_s"])


def test_refuses_to_run_without_the_program():
    scratch = ROOT / ".perfbench_run" / "selftest-bare"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        res = _bench("--workload", "classify-mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=scratch, timeout=60)
        assert res.returncode != 0
        assert res.stdout == ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_line_graph_helper_matches_networkx():
    root = [(0, 1), (1, 2), (2, 0), (2, 3)]
    mine = oracles.nx_graph(4, oracles.line_graph_edges(root))
    theirs = nx.line_graph(nx.Graph(root))
    assert nx.is_isomorphic(mine, theirs)
