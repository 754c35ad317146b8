"""Frames associated with graphs: constructions, certificates, obstructions."""

from .graphs import Graph, gen_named
from .spectral import EigDecomp, TolerancePolicy, numeric_rank, sym_eig
from .frames import (
    Frame,
    FrameBounds,
    associated_graph,
    frame_bounds,
    frame_operator,
    gramian,
    naimark_complement,
    rescale_to_parseval,
    tightness,
)
from .verify import Certificate, classify

__all__ = [
    "Certificate",
    "EigDecomp",
    "Frame",
    "FrameBounds",
    "Graph",
    "TolerancePolicy",
    "associated_graph",
    "classify",
    "frame_bounds",
    "frame_operator",
    "gen_named",
    "gramian",
    "naimark_complement",
    "numeric_rank",
    "rescale_to_parseval",
    "sym_eig",
    "tightness",
]
