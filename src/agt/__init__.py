"""agt: automatic structures for finitely presented groups.

A library and CLI that constructs and verifies shortlex automatic
structures via Knuth-Bendix completion and word-difference machines,
computes with them (normal forms, word problem, growth, conjugacy
search, cone types), and independently builds Coxeter word acceptors
from the action table of the small-root closure.
"""

from .errors import AgtError, IntegrityError, ResourceLimitError, UsageError
from .limits import Limits
from .words import Alphabet, inverse_closed_alphabet

__version__ = "0.1.0"

__all__ = [
    "AgtError",
    "Alphabet",
    "IntegrityError",
    "Limits",
    "ResourceLimitError",
    "UsageError",
    "inverse_closed_alphabet",
    "__version__",
]
