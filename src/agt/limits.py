"""Resource limits shared by completion, the pipeline driver and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import UsageError


def check_limit(name: str, value, label: str | None = None) -> None:
    """Refuse a value out of range for the ``Limits`` field ``name``:
    ``max_seconds`` is None or a number greater than 0 (so not NaN), every
    other limit an integer at least 1.  The UsageError names ``label``,
    by default the field."""
    if name == "max_seconds":
        ok = value is None or isinstance(value, (int, float)) and value > 0
        least = "a number greater than 0"
    else:
        ok = isinstance(value, int) and value >= 1
        least = "at least 1"
    if not ok:
        raise UsageError(f"{label or name} must be {least}, got {value}")


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

    def __post_init__(self):
        for f in fields(self):
            check_limit(f.name, getattr(self, f.name))
