"""Frames associated with graphs: constructions, certificates, obstructions.

Each export, and each submodule read as an attribute, loads on first
access (PEP 562), so ``import framegraphs`` loads no numpy.
"""

from importlib import import_module

_HOME = {
    "Certificate": "verify",
    "Frame": "frames",
    "Graph": "graphs",
    "associated_graph": "frames",
    "classify": "verify",
    "frame_operator": "frames",
    "gen_named": "graphs",
    "gramian": "frames",
    "naimark_complement": "frames",
    "sym_eig": "spectral",
    "tightness": "frames",
}

__all__ = sorted(_HOME)

_SUBMODULES = {"cli", "constructions", "frames", "graphs", "linegraph", "matio",
               "spectral", "verify"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
