"""Workload process: sends one workload's ops to the program, one after
another (a closed loop with a single client), and records each op's
latency and output.

    python perfbench/client.py RUN_DIR        # run RUN_DIR/ops.json
    python perfbench/client.py --probe NAME   # set-up cost of workload NAME

Both modes time the import of framegraphs.cli before anything else loads
numpy.  Records go to RUN_DIR/out.jsonl, one line per op, written as the
run goes so that a run cut off by the wall-clock cap still shows which ops
finished.
"""

from __future__ import annotations

import sys
import time


def reference() -> float:
    """Seconds a fixed pure-Python loop takes, best of three: the speed of
    the machine at this moment.  The launcher divides op latencies by it."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(4000):
            d[i % 97] = d.get(i % 97, 0) + i * i % 7
        best = min(best, time.perf_counter() - t)
    return best


_ref0 = reference()
_t0 = time.perf_counter()
import framegraphs.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from framegraphs import constructions, frames, graphs, linegraph, matio, verify  # noqa: E402


# ---------------------------------------------------------------------------
# Ops.  Each takes a prepared input and returns the program's raw outputs;
# ``encode`` turns those into JSON after the timer has stopped.
# ---------------------------------------------------------------------------

def _graph(op: dict) -> graphs.Graph:
    return graphs.Graph(op["n"], tuple(tuple(e) for e in op["edges"]))


def op_classify(g):
    cert = verify.classify(g)
    return {"verdict": cert.verdict,
            "frame": None if cert.frame is None else cert.frame.synthesis,
            "witness": cert.witness}


def op_frame_chain(root):
    lg = linegraph.line_graph(root)
    f = constructions.laplacian_method(root)
    kind = frames.tightness(f).kind
    pattern = frames.associated_graph(f)
    text = matio.frame_to_text(f)
    back = matio.frame_from_text(text)
    return {"line_edges": lg.line.edges, "frame": f.synthesis, "kind": kind,
            "pattern_edges": pattern.graph.edges, "roundtrip": back.synthesis}


def op_recognize(item):
    g, root_call = item
    verdict = linegraph.is_line_graph(g)
    out = {"line": verdict}
    if root_call:
        try:
            out["roots"] = linegraph.root_graph(g)
        except linegraph.NotALineGraph:
            out["roots"] = "NotALineGraph"
    return out


def _to_json(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, graphs.Graph):
        return [x.n, [list(e) for e in x.edges]]
    if isinstance(x, dict):
        return {str(k): _to_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_to_json(v) for v in x]
    return x


def encode(workload: str, raw: dict) -> dict:
    """JSON form of an op's output for the oracles."""
    raw = dict(raw)
    if workload == "frames-large":
        raw["roundtrip_sha1"] = hashlib.sha1(raw.pop("roundtrip").tobytes()).hexdigest()
    if workload == "recognize-lines" and raw["line"] is not True:
        _, idx, emb = raw["line"]
        raw["line"] = [idx, [emb[k] for k in sorted(emb)]]
    return _to_json(raw)


def digest(raw) -> str:
    """Hash of an op's raw output, comparing frames bit for bit."""
    h = hashlib.sha1()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(repr(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x, key=str):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, graphs.Graph):
            h.update(repr((x.n, x.edges)).encode())
        else:
            h.update(repr(x).encode())

    feed(raw)
    return h.hexdigest()


# Small fixed inputs run before the first timed op (and by --probe): the
# first calls into numpy.linalg and the first Frame pay one-off costs.
WARMUP = {
    "classify-mix": (op_classify, [
        (5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        (4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ]),
    "frames-large": (op_frame_chain, [
        (6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]),
    ]),
    "recognize-lines": (op_recognize, [
        (6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5),
             (3, 4), (3, 5), (4, 5)]),
        (4, [(0, 1), (0, 2), (0, 3)]),
    ]),
    "cli-sweeps": (None, []),
}


def _prepare(workload: str, op: dict):
    g = _graph(op)
    return (g, op["root_call"]) if workload == "recognize-lines" else g


def warm_up(workload: str) -> float:
    fn, inputs = WARMUP[workload]
    t = time.perf_counter()
    for n, edges in inputs:
        item = graphs.Graph(n, tuple(edges))
        fn((item, True) if workload == "recognize-lines" else item)
    return time.perf_counter() - t


# ---------------------------------------------------------------------------
# cli-sweeps: one framegraphs.cli.main call per op, in a forked child
# ---------------------------------------------------------------------------

class CliRunner:
    """Runs CLI stages one at a time, each in a child forked from this
    process that calls framegraphs.cli.main(argv), feeding a pipeline's
    stdout onward as the next stage's stdin.

    A forked child starts with this process's imports but none of the
    program's run-time state (this process never calls the program), so
    each stage pays its own cold caches, such as enumerate_connected's;
    interpreter start-up and import are what set-up measures.
    """

    def __init__(self, run_dir: Path, traced: bool = False):
        self.run_dir = run_dir
        self.traced = traced
        self.prev_stdout = ""

    def __call__(self, op: dict, timeout: float):
        files = {k: self.run_dir / f"stage-{k}" for k in ("in", "out", "err", "cert")}
        files["spans"] = self.run_dir / "stage-spans.npz"
        for path in files.values():
            path.unlink(missing_ok=True)
        files["in"].write_text(self.prev_stdout if op["stdin_prev"] else "")
        argv = [a.replace("{cert}", str(files["cert"])) for a in op["argv"]]
        pid = os.fork()
        if pid == 0:
            self._child(argv, files)
        rc = self._wait(pid, timeout)
        self.prev_stdout = files["out"].read_text()
        if rc not in (0, 1):
            raise RuntimeError(f"exit code {rc}: {files['err'].read_text()[-300:]}")
        cert = files["cert"].read_text() if files["cert"].exists() else None
        return {"rc": rc, "stdout": self.prev_stdout, "cert": cert}, files["spans"]

    def _child(self, argv, files):
        """In the forked child: run main() on the stage's files, then exit."""
        code = 2
        try:
            for fd, path, mode in ((0, files["in"], os.O_RDONLY),
                                   (1, files["out"], os.O_WRONLY | os.O_CREAT),
                                   (2, files["err"], os.O_WRONLY | os.O_CREAT)):
                os.dup2(os.open(path, mode, 0o644), fd)
            if self.traced:
                import spans

                tracer = spans.Tracer()
                spans.install(tracer)
                main_span = tracer.open(tracer.name_id("cli.main"))
            try:
                framegraphs.cli.main(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            if self.traced:
                tracer.close(main_span)
                tracer.save(str(files["spans"]))
        except BaseException:
            # Report it and fall through: the child must reach os._exit, or
            # it would go on running the client's loop.
            import traceback

            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)

    @staticmethod
    def _wait(pid: int, timeout: float) -> int:
        """Exit code of child ``pid``; kill it after ``timeout`` seconds."""
        fd = os.pidfd_open(pid)
        try:
            if not select.select([fd], [], [], timeout)[0]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise subprocess.TimeoutExpired(f"stage {pid}", timeout)
        finally:
            os.close(fd)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

# Ops between two reference measurements take at least this long.
CALIBRATE_EVERY_S = 0.05


def run_phase(spec, items, phase, out, deadline, passes=None, seconds=None,
              tracer=None, cli=None):
    """Passes over the op list: ``passes`` of them, or as many as start
    within ``seconds`` (at least one).  Stops at the deadline.

    The reference loop runs between ops every CALIBRATE_EVERY_S; each
    record carries the mean of the two measurements around it as ``r``.
    """
    workload = spec["workload"]
    fn = {"classify-mix": op_classify, "frames-large": op_frame_chain,
          "recognize-lines": op_recognize}.get(workload)
    op_nid = tracer.name_id("bench.op") if tracer else None
    pending: list[dict] = []
    ref = reference()
    last = time.perf_counter()
    stop = None if seconds is None else time.monotonic() + seconds

    def flush():
        nonlocal ref, last
        new = reference()
        for rec in pending:
            rec["r"] = (ref + new) / 2
            json.dump(rec, out)
            out.write("\n")
        pending.clear()
        ref, last = new, time.perf_counter()

    p = 0
    while passes is None or p < passes:
        for i, item in enumerate(items):
            now = time.monotonic()
            if now > deadline or (stop is not None and p > 0 and now > stop):
                flush()
                return
            if time.perf_counter() - last > CALIBRATE_EVERY_S:
                flush()
            rec = {"ph": phase, "p": p, "i": i, "err": None}
            if tracer is not None:
                tracer.current_op = p * len(items) + i
                span = tracer.open(op_nid)
            raw = None
            t0 = time.perf_counter()
            try:
                if cli is not None:
                    raw, child_spans = cli(item, max(0.1, deadline - time.monotonic()))
                else:
                    raw = fn(item)
            except subprocess.TimeoutExpired:
                rec["err"] = "cut off by the wall-clock cap"
            except Exception as exc:  # an op that raises counts as failed
                rec["err"] = f"{type(exc).__name__}: {exc}"
            rec["t"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                if cli is not None and rec["err"] is None and child_spans.exists():
                    tracer.merge(str(child_spans), span)
            if raw is not None:
                rec["d"] = digest(raw)
                if p == 0 and phase == "run":
                    rec["out"] = raw if cli is not None else encode(workload, raw)
            pending.append(rec)
        p += 1
    flush()


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main():
    if sys.argv[1] == "--probe":
        warm = warm_up(sys.argv[2])
        print(json.dumps({"import_s": IMPORT_S, "warmup_s": warm,
                          "r": (_ref0 + reference()) / 2}))
        return
    run_dir = Path(sys.argv[1])
    spec = json.loads((run_dir / "ops.json").read_text())
    workload = spec["workload"]
    deadline = time.monotonic() + spec["budget_s"]
    warm = warm_up(workload)
    if workload == "cli-sweeps":
        items = spec["ops"]
    else:
        items = [_prepare(workload, op) for op in spec["ops"]]
    with open(run_dir / "out.jsonl", "w", buffering=1) as out:
        out.write(json.dumps({"import_s": IMPORT_S, "warmup_s": warm}) + "\n")
        cli = CliRunner(run_dir) if workload == "cli-sweeps" else None
        run_phase(spec, items, "run", out, deadline, seconds=spec["seconds"], cli=cli)
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        summary = {"peak_rss_mb": _peak_rss_mb(who)}
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            if cli is None:
                spans.install(tracer)
            else:
                cli = CliRunner(run_dir, traced=True)  # children install the spans
            run_phase(spec, items, "traced", out, deadline, passes=spec["traced_passes"],
                      tracer=tracer, cli=cli)
            arrs = tracer.arrays()
            np.savez(spec["spans_out"], **arrs)
            summary["layers"] = spans.summarize(arrs)
            summary["layers"]["cli.import_s"] = IMPORT_S
        out.write(json.dumps({"summary": summary}) + "\n")


if __name__ == "__main__":
    main()
