"""Engine configuration: resource ceilings, cancellation, basis observer.

All long-running kernels take an optional EngineLimits.  Ceilings are
generous defaults sized for desk-scale experiments; hitting one raises
ResourceLimitError rather than returning a truncated answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import CancelledError, ResourceLimitError


@dataclass
class EngineLimits:
    max_reductions: int = 2_000_000  # reduction steps per Budget, made fresh for
                                     # each basis computation and for each
                                     # membership test or normal-form pass
    max_basis: int = 600             # basis elements per computation
    max_rounds: int = 50             # colon iterations in a saturation loop
    max_length: int = 200_000        # standard monomials counted in a length; also
                                     # td_roundtrip_check's component box size q^n
    level_cap: int = 4               # largest Frobenius level tried by retries
    # Cooperative cancellation: checked inside reduction loops.
    cancel: Optional[Callable[[], bool]] = None
    # Called once per freshly computed reduced basis: on_basis(ring, basis).
    # Cache hits do not re-fire, and a run stopped early, once its leads
    # prove a complete intersection, computes no basis and fires nothing.
    # Used by the acceptance suite to verify confluence of every basis the
    # engine produces.
    on_basis: Optional[Callable[..., None]] = None

    def __post_init__(self):
        # zero is legal: it forces a ceiling at once
        for name in CEILINGS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


# The integer ceilings of EngineLimits, in flag order.  Each name is also
# a CLI flag (max_reductions is --max-reductions), an FPLOCAL_* variable
# (FPLOCAL_MAX_REDUCTIONS) and a key of a campaign report's config.
CEILINGS = ("max_reductions", "max_basis", "max_rounds", "max_length", "level_cap")

DEFAULT_LIMITS = EngineLimits()


def resolve_limits(limits: Optional[EngineLimits]) -> EngineLimits:
    return DEFAULT_LIMITS if limits is None else limits


class Budget:
    """Counts reduction steps against a ceiling and polls cancellation."""

    __slots__ = ("left", "limit", "cancel")

    def __init__(self, limits: EngineLimits):
        self.limit = limits.max_reductions
        self.left = limits.max_reductions
        self.cancel = limits.cancel

    def step(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise ResourceLimitError("reductions", self.limit)
        if self.cancel is not None and self.cancel():
            raise CancelledError("computation cancelled")
