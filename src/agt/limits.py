"""Resource limits shared by completion, the pipeline driver and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import UsageError
from .fsa import DEFAULT_STATE_CAP


def check_limit(name: str, value, label: str | None = None) -> None:
    """Refuse a value for the ``Limits`` field ``name`` that is not an
    integer at least 1 (a bool is not one).  The UsageError names
    ``label``, by default the field."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise UsageError(f"{label or name} must be at least 1, got {value}")


@dataclass(frozen=True)
class Limits:
    """Caps making "run for a while" concrete and reproducible.

    Every limit is a count, so the same inputs and limits give the same
    output: completion reads max_rules, max_lhs_len and max_rhs_len;
    the pipeline driver adds max_passes and stability_window; every
    subset or product construction stops at state_cap states.
    """

    max_rules: int = 10_000
    max_lhs_len: int = 50
    max_rhs_len: int = 50
    max_passes: int = 5
    stability_window: int = 500
    state_cap: int = DEFAULT_STATE_CAP

    def __post_init__(self):
        for f in fields(self):
            check_limit(f.name, getattr(self, f.name))
