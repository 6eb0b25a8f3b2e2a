"""Shared exception types.

Each names a failure a caller may catch on its own; malformed graphs, unbased
or unfolded graphs and currents of different ranks raise a bare ValueError.
The CLI maps exit codes by base class: every ValueError (and OSError) exits
1, and MismatchBugError, which also carries the CLI's failed cross-checks
with their replay dump, exits 2.
"""


class WordFormatError(ValueError):
    """Malformed word text: unknown token, mixed formats, index out of range."""


class TrivialSubgroupError(ValueError):
    """The trivial subgroup has no core graph; callers must special-case it."""


class EmptyCoreError(ValueError):
    """Coring removed every edge, so no core graph exists."""


class NotConnectedError(ValueError):
    """Operation needs a connected graph: a walk from a basepoint, a
    canonical code, `rank`, or a covering quotient."""


class NotSubgroupError(ValueError):
    """H is not contained in K, so the relative index is undefined."""


class NotAutomorphismError(ValueError):
    """Invariance checks require a genuine automorphism, not just an endomorphism."""


class SizeLimitError(ValueError):
    """An input would exceed a fixed size ceiling: an enumeration above its
    cap, a rank above `MAX_RANK`, which bounds a departure row, or a
    departure table above `MAX_TABLE_SLOTS`."""


class RetryLimitError(RuntimeError):
    """Randomized construction failed to produce a valid object in the allowed tries."""


class MismatchBugError(RuntimeError):
    """Two routes that must agree by theorem disagreed; this is always a bug."""
