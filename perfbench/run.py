"""framegraphs benchmark: one seeded workload per run, checked by oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of classify-mix,
frames-large, recognize-lines, cli-sweeps, or ``all`` (each workload in
turn, each in its own processes).  The launcher

1. pins OpenBLAS to one thread and points PYTHONPATH at ./src,
2. times set-up (import of framegraphs.cli plus the workload's warm-up)
   in PROBES fresh interpreters and keeps the median,
3. generates the workload's inputs from the seed (perfbench/workloads.py),
4. runs them in one client process (perfbench/client.py): a closed loop
   with one client, making passes over the fixed op list for S seconds
   (at least one pass), under a wall-clock cap; with ``--trace 1`` the
   client then makes a fixed number of passes with spans installed
   (perfbench/spans.py),
5. checks every output with perfbench/oracles.py, which does not call the
   program, and prints one detail line and, last, the result line.

Op latencies are reported at reference machine speed (see REF_S), and each
input's latency is its median over the passes.  Metric names, units and
directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-mix", "frames-large", "recognize-lines", "cli-sweeps")

CAP_S = 150  # wall-clock cap of one run, set-up and checks included
# Seconds perfbench/client.py's reference loop takes on the reference
# machine (2 vCPU x86-64) when nothing else runs.  Other tenants of a
# shared machine slow everything by up to 1.8x for seconds at a time; a
# time t measured while the loop took r seconds is reported as
# t * REF_S / r, the time it would have taken at reference speed.
REF_S = 0.42e-3
CHECK_RESERVE_S = 15  # kept back from the client for the oracle checks
PROBES = 5
# One process per workload and at most nproc (2) busy threads: the client
# thread plus one BLAS thread.  Under default threading a pass of
# frames-large varied by half its length on a 2-vCPU machine.
ENV_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def pin_to_one_cpu() -> int:
    """Run this process and every process it starts on one CPU.  The
    reference loop then measures the CPU the ops run on: unpinned, a CLI
    child and the client measuring around it could sit on different vCPUs
    of a shared host, and scaling by the client's reference widened the
    spread of CLI times instead of narrowing it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict[str, str]:
    env = dict(os.environ, **ENV_PINS)
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def measure_setup(workload: str, env: dict, deadline: float) -> list[float]:
    """Import plus warm-up seconds at reference speed, in PROBES fresh
    interpreters."""
    out = []
    for _ in range(PROBES):
        res = subprocess.run(
            [sys.executable, str(HERE / "client.py"), "--probe", workload],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if res.returncode != 0:
            raise BenchError(f"set-up probe failed: {res.stderr.strip()[-800:]}")
        probe = json.loads(res.stdout.splitlines()[-1])
        out.append((probe["import_s"] + probe["warmup_s"]) * REF_S / probe["r"])
    return out


def run_client(spec: dict, run_dir: Path, env: dict, deadline: float) -> list[dict]:
    """Run the client; kill it at the deadline.  Returns its records."""
    (run_dir / "ops.json").write_text(json.dumps(spec))
    with open(run_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "client.py"), str(run_dir)],
                                env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    out = run_dir / "out.jsonl"
    lines = out.read_text().splitlines() if out.exists() else []
    if not lines:
        raise BenchError("client produced no records: "
                         + (run_dir / "stderr.txt").read_text().strip()[-800:])
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:  # the line being written when killed
            break
    return records


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def check_ops(workload: str, ops: list[dict], first: dict[int, dict]) -> dict[int, str]:
    """Oracle verdict for each op's first output: op index -> failure."""
    import oracles

    bad = {}
    for i, op in enumerate(ops):
        rec = first.get(i)
        if rec is None or rec["err"]:
            continue
        out = rec["out"]
        if workload == "classify-mix":
            reason = oracles.check_classify(op, out)
        elif workload == "frames-large":
            reason = oracles.check_frame_chain(op, out)
        elif workload == "recognize-lines":
            reason = oracles.check_recognition(op, out)
        else:
            prev = first.get(i - 1)
            inputs = prev["out"]["stdout"] if op["stdin_prev"] and prev and prev["out"] else None
            reason = oracles.check_cli_stage(op, out, inputs)
        if reason:
            bad[i] = reason
    if workload == "classify-mix":
        counts = collections.defaultdict(collections.Counter)
        for i, op in enumerate(ops):
            if op["tag"] == "atlas" and i in first and not first[i]["err"]:
                counts[op["n"]][first[i]["out"]["verdict"]] += 1
        for n in oracles.check_atlas_counts(counts):
            for i, op in enumerate(ops):
                if op["tag"] == "atlas" and op["n"] == n:
                    bad.setdefault(i, f"atlas verdict counts at n={n}: {dict(counts[n])}")
    return bad


def decided(workload: str, ops: list[dict], first: dict[int, dict]) -> tuple[int, int]:
    """(decided, total) verdicts.  A classify verdict is decided unless it
    is ``unknown``; the other workloads' verdicts (tightness, line or not)
    are decided whenever the op returned one."""
    total = hit = 0
    for i, op in enumerate(ops):
        rec = first.get(i)
        if rec is None or rec["err"]:
            continue
        if workload == "classify-mix":
            verdict = rec["out"]["verdict"]
        elif workload == "cli-sweeps":
            if op["check"] != "classify":
                continue
            verdict = rec["out"]["stdout"].split("\n", 1)[0].removeprefix("verdict ")
        else:
            verdict = "decided"
        total += 1
        hit += verdict != "unknown"
    return hit, total


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def op_latencies(samples: dict[int, list[float]], weight: int) -> list[float]:
    """The op mix's latency distribution: each input's median over the
    run's passes, counted ``weight`` times (the nominal number of passes),
    so that the distribution does not depend on how many passes the time
    box held."""
    return [statistics.median(ts) for ts in samples.values() for _ in range(weight)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile.  The op list is fixed, so both are too."""
    lat = sorted(latencies)
    k = max(0, len(lat) - 11)
    return lat[k], 100.0 * (k + 1) / len(lat)


def metadata(workload: str, seed: int, ops: list[dict], cpu: int) -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = res.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(ENV_PINS["OPENBLAS_NUM_THREADS"]),
        "env_pins": ENV_PINS,
        "clients": 1,
        "cap_s": CAP_S,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "op_mix": dict(collections.Counter(op["tag"] for op in ops)),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    import workloads

    started = time.monotonic()
    deadline = started + CAP_S
    cpu = pin_to_one_cpu()
    env = child_env()
    setup = measure_setup(workload, env, deadline)
    ops = workloads.generate(workload, seed)
    weight = max(1, round(seconds / workloads.PASS_SECONDS[workload]))
    traced_passes = max(1, round(seconds / 2 / workloads.PASS_SECONDS[workload]))
    run_dir = ROOT / ".perfbench_run" / f"{workload}-{seed}-{os.getpid()}"
    spans_out = ROOT / ".perfbench_out" / f"spans-{workload}.npz"
    spans_out.parent.mkdir(exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        spec = {"workload": workload, "seconds": seconds, "traced_passes": traced_passes,
                "ops": ops, "trace": trace,
                "spans_out": str(spans_out),
                "budget_s": deadline - CHECK_RESERVE_S - time.monotonic()}
        records = run_client(spec, run_dir, env, deadline - CHECK_RESERVE_S / 2)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    header = records[0]
    summary = records[-1].get("summary", {})
    samples = [r for r in records[1:] if "ph" in r]
    first = {r["i"]: r for r in samples if r["ph"] == "run" and r["p"] == 0}
    bad = check_ops(workload, ops, first)

    phases = ("run", "traced") if trace else ("run",)
    runs = [r for r in samples if r["ph"] == "run"]
    passes = 1 + max((r["p"] for r in runs), default=0)
    # Ops of the first pass that never started were cut off by the cap.
    attempted = len(runs) + len(ops) - len(first) + (traced_passes * len(ops) if trace else 0)
    ok = {ph: collections.defaultdict(list) for ph in phases}
    reasons = collections.Counter()
    for r in samples:
        ref = first.get(r["i"])
        if r["err"]:
            reasons[r["err"][:120]] += 1
        elif r["i"] in bad:
            reasons[bad[r["i"]][:120]] += 1
        elif ref is None or r.get("d") != ref.get("d"):
            reasons["output differs from the first pass"] += 1
        else:
            ok[r["ph"]][r["i"]].append(r["t"] * REF_S / r["r"])
    failed = attempted - sum(len(ts) for ph in phases for ts in ok[ph].values())
    if failed > sum(reasons.values()):
        reasons["cut off by the wall-clock cap"] += failed - sum(reasons.values())

    lat = op_latencies(ok["run"], weight) or [float("nan")]
    hit, total = decided(workload, ops, first)
    tail_s, tail_pct = tail(lat)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat) if ok["run"] else 0.0,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "ok_frac": 1.0 - failed / attempted,
        "decided_frac": hit / total if total else 0.0,
        "peak_rss_mb": summary.get("peak_rss_mb", 0.0),
    }
    detail = {
        "workload": workload, "seconds": seconds, "passes": passes,
        "ops_per_pass": len(ops), "samples": len(runs), "weight": weight,
        "wall_ops_per_s": len(runs) / sum(r["t"] for r in runs) if runs else 0.0,
        "mean_reference_s": statistics.mean(r["r"] for r in runs) if runs else None,
        "op_tail_percentile": tail_pct, "op_tail_samples": len(lat),
        "fail_frac": failed / attempted, "failures": dict(reasons.most_common(5)),
        "decided": [hit, total], "setup_probes_s": setup,
        "client_import_s": header.get("import_s"), "warmup_s": header.get("warmup_s"),
        "wall_s": time.monotonic() - started,
        "meta": metadata(workload, seed, ops, cpu),
    }
    if trace:
        layers = dict(summary.get("layers", {}))
        traced = op_latencies(ok["traced"], 1)
        layers["trace.ops_per_s"] = len(traced) / sum(traced) if traced else 0.0
        layers["trace.untraced_ops_per_s"] = values["ops_per_s"]
        layers["trace.overhead_frac"] = (
            values["ops_per_s"] / layers["trace.ops_per_s"] - 1.0
            if layers["trace.ops_per_s"] else 0.0)
        values = layers
        detail["spans_file"] = str(spans_out.relative_to(ROOT))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "values": values}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "framegraphs" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a framegraphs checkout "
              "(src/framegraphs and BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    bench = json.loads(spec_path.read_text())
    kinds = bench["per_layer"] if args.trace else bench["end_to_end"]

    if args.workload == "all":
        return run_all(args, kinds)
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    values = result.pop("values")
    detail["metric_info"] = {m["name"]: {"unit": m["unit"], "better": m["better"]}
                             for m in kinds}
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                         for m in kinds}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def run_all(args, kinds) -> int:
    """Each workload through this script in its own process, then one
    combined line with metrics named ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=CAP_S + 30,
        )
        if res.returncode != 0:
            print(res.stderr, file=sys.stderr, end="")
            return res.returncode
        lines = res.stdout.splitlines()
        print(lines[-2])
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for name, m in one["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
