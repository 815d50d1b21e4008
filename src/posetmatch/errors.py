"""Exception types shared across the library, and its deadline check."""

import time


class PosetmatchError(Exception):
    """Base class for all library errors."""


class CycleError(PosetmatchError):
    """The transitive closure of the given relations violates antisymmetry."""


class RangeError(PosetmatchError):
    """An element index falls outside the ground set."""


class SizeLimitError(PosetmatchError):
    """An exhaustive computation would exceed its configured budget."""


class SizeError(PosetmatchError):
    """The pattern is too large for the text."""


class MemoryBudgetError(PosetmatchError):
    """The projected down-set count exceeds the configured cap."""


class NotAModuleError(PosetmatchError):
    """A quotient was requested over a partition block that is not a module."""


class FormatError(PosetmatchError):
    """Malformed textual input."""


class PolarityError(FormatError):
    """A clause contains a variable both positively and negatively."""


class ArityError(FormatError):
    """A clause does not have exactly three literals."""


class ConstraintError(PosetmatchError):
    """A post-construction consistency assertion failed (an internal bug)."""


class TimeoutError(PosetmatchError):
    """A wall-clock cap was exceeded."""


def _check(deadline, stage):
    """Raise TimeoutError once the time.monotonic() deadline, if any, has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("%s exceeded its deadline" % stage)
