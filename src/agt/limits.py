"""Resource limits shared by completion, the pipeline driver and the CLI."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Caps making "run for a while" concrete and reproducible.

    max_seconds is None by default: wall-clock pauses would break the
    byte-identical determinism contract, so time limits are opt-in.
    """

    max_rules: int = 10_000
    max_lhs_len: int = 50
    max_rhs_len: int = 50
    max_seconds: float | None = None
    max_passes: int = 5
    stability_window: int = 500
    state_cap: int = 10**6
