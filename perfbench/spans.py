"""Spans around the program's public functions, recorded from outside src/.

``install`` replaces each traced function at every module binding through
which one layer calls another (``from x import f`` copies the binding, so
patching the source module alone would miss those calls).  Spans stay in
memory as flat arrays until the run ends; ``summarize`` turns them into
per-layer metrics, a span's self time being its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("graphs", "spectral", "linegraph", "frames", "constructions", "verify",
          "matio", "cli")

# Root span the benchmark opens around each op; its self time is time
# inside the op that no traced function covers.
OP = "bench.op"

# Module -> traced public functions: those the workloads reach.
# Constructors are found by scanning the module, since every public
# function there builds frames.
TARGETS = {
    "graphs": ["find_isomorphism", "is_isomorphic", "enumerate_connected"],
    "spectral": ["sym_eig", "numeric_rank"],
    "linegraph": ["line_graph", "is_line_graph", "contains_induced", "root_graph"],
    "frames": ["tightness", "associated_graph", "represents", "frame_bounds",
               "duplicate_vector"],
    "verify": ["classify", "neighbor_obstruction", "edge_cycle_check",
               "root_order_theorem_check", "induced_path_sweep", "join_line_check"],
    "matio": ["frame_to_text", "frame_from_text"],
}
SWEEPS = ("root_order_theorem_check", "induced_path_sweep", "join_line_check")


def _count_frames(result, args=()) -> int:
    """Frames a constructor returned: one, or each one in a catalog dict."""
    if isinstance(result, dict):
        return sum(_count_frames(v) for v in result.values())
    if type(result).__name__ == "Frame" or hasattr(result, "frame"):
        return 1
    return 0


# Span name -> value recorded with each span (a hit, a byte count, ...).
NOTES = {
    "graphs.find_isomorphism": lambda res, args: res is not None,
    "graphs.is_isomorphic": lambda res, args: bool(res),
    "linegraph.contains_induced": lambda res, args: res is not None,
    "matio.frame_to_text": lambda res, args: len(res),
    "matio.frame_from_text": lambda res, args: len(args[0]),
}


class Tracer:
    """Flat span store: name id, start, end, parent index, op id, value."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("d")
        self.stack: list[int] = []
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.value.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        note = NOTES.get(name) or (_count_frames if name.startswith("constructions.")
                                   else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.value[idx] = note(res, args)
            return res

        return traced

    def merge(self, path: str, parent: int):
        """Append the spans another process saved to ``path``, under span
        ``parent`` of this tracer."""
        with np.load(path) as data:
            ids = np.array([self.name_id(str(n)) for n in data["names"]], dtype=np.int32)
            base = len(self.name)
            par = data["parent"]
            self.name.extend(ids[data["name"]].tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(np.where(par < 0, parent, par + base).tolist())
            self.op.extend([self.op[parent]] * len(par))
            self.value.extend(data["value"].tolist())

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=float),
        }

    def save(self, path: str):
        np.savez(path, **self.arrays())


def install(tracer: Tracer):
    """Wrap the traced functions at every binding in the loaded
    framegraphs modules.  Functions a module no longer has are skipped."""
    import framegraphs

    mods = [m for k, m in sys.modules.items()
            if k == "framegraphs" or k.startswith("framegraphs.")]
    targets = []
    for layer, names in TARGETS.items():
        src = sys.modules[f"framegraphs.{layer}"]
        for fn_name in names:
            name = "verify.sweep" if fn_name in SWEEPS else f"{layer}.{fn_name}"
            if hasattr(src, fn_name):
                targets.append((getattr(src, fn_name), name))
    cons = sys.modules["framegraphs.constructions"]
    targets += [
        (obj, f"constructions.{k}") for k, obj in vars(cons).items()
        if inspect.isfunction(obj) and not k.startswith("_")
        and obj.__module__ == cons.__name__
    ]
    for orig, name in targets:
        wrapped = tracer.wrap(orig, name)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
    frame_cls = framegraphs.frames.Frame
    frame_cls.__post_init__ = tracer.wrap(frame_cls.__post_init__, "frames.Frame.init")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Per-function stats reported by name: "<span>.<stat>".
FUNCTION_STATS = [
    ("graphs.find_isomorphism", ("calls", "self_s", "hit_frac")),
    ("graphs.is_isomorphic", ("calls", "true_frac")),
    ("graphs.enumerate_connected", ("self_s",)),
    ("spectral.sym_eig", ("calls", "self_s")),
    ("linegraph.line_graph", ("self_s",)),
    ("linegraph.is_line_graph", ("calls", "self_s")),
    ("linegraph.contains_induced", ("calls", "hit_frac")),
    ("linegraph.root_graph", ("self_s",)),
    ("frames.Frame.init", ("calls", "self_s")),
    ("frames.tightness", ("self_s",)),
    ("frames.associated_graph", ("self_s",)),
    ("verify.classify", ("self_s",)),
    ("verify.neighbor_obstruction", ("self_s",)),
    ("verify.edge_cycle_check", ("self_s",)),
    ("verify.sweep", ("self_s",)),
    ("matio.frame_to_text", ("self_s",)),
    ("matio.frame_from_text", ("self_s",)),
]


def summarize(arrs: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-function and per-layer stats from saved span arrays.

    Layer ``<layer>.self_s`` sums the self time of every span of that
    layer; together with ``bench.op.self_s`` they add up to
    ``trace.op_s``, the summed duration of the op spans.
    """
    names = [str(n) for n in arrs["names"]]
    name, parent = arrs["name"], arrs["parent"]
    dur = arrs["end"] - arrs["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=own, minlength=k)
    value = np.bincount(name, weights=arrs["value"], minlength=k)
    by = {nm: i for i, nm in enumerate(names)}

    def stat(span, key):
        i = by.get(span)
        if i is None:
            return 0.0
        if key == "calls":
            return float(calls[i])
        if key == "self_s":
            return float(self_s[i])
        return float(value[i] / calls[i]) if calls[i] else 0.0

    out = {f"{span}.{key}": stat(span, key)
           for span, keys in FUNCTION_STATS for key in keys}
    prefix = np.array([nm.split(".", 1)[0] for nm in names])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_s[prefix == layer].sum()) if k else 0.0
    out["bench.op.self_s"] = stat(OP, "self_s")
    out["matio.bytes"] = float(value[prefix == "matio"].sum()) if k else 0.0
    # Frames built: values of constructor spans not inside another constructor.
    is_cons = prefix[name] == "constructions" if k else np.zeros(0, bool)
    parent_cons = np.zeros_like(is_cons)
    parent_cons[has_parent] = is_cons[parent[has_parent]]
    out["constructions.frames_built"] = float(arrs["value"][is_cons & ~parent_cons].sum())
    op_spans = name == by[OP] if OP in by else np.zeros(len(dur), bool)
    out["trace.op_s"] = float(dur[op_spans].sum())
    out["trace.spans"] = float(len(dur))
    # Child processes of cli-sweeps record their import and main() spans.
    imports = dur[name == by["cli.import"]] if "cli.import" in by else dur[:0]
    out["cli.import_s"] = float(np.median(imports)) if imports.size else 0.0
    mains = dur[name == by["cli.main"]].sum() if "cli.main" in by else 0.0
    out["cli.startup_frac"] = 1.0 - mains / out["trace.op_s"] if mains else 0.0
    return out
