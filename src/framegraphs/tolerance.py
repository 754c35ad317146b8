"""The relative tolerance policy behind every zero/nonzero decision.

It needs no numpy, so the command line can validate ``--tol`` before any
matrix layer loads; :mod:`framegraphs.spectral` re-exports both names.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative zero threshold used for all pattern and rank decisions."""

    tau_rel: float = 1e-9

    def __post_init__(self):
        if not 0 < self.tau_rel < 1e-3:
            raise ValueError("tau_rel must lie in (0, 1e-3)")

    def threshold(self, scale: float) -> float:
        return self.tau_rel * abs(scale)


DEFAULT_TOL = TolerancePolicy()
