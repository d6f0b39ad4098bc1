"""Exception types shared across the library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AlphabetError(ReproError):
    """A symbol or word does not belong to the expected alphabet."""


class ParseError(ReproError):
    """A regular expression or temporal formula failed to parse.

    ``position`` is always a **character offset** into the parsed text
    (end-of-input errors point one past the last character).  When the
    ``source`` text is provided, the message carries the offending line
    with a caret under the offset.
    """

    def __init__(
        self, message: str, position: int | None = None, *, source: str | None = None
    ) -> None:
        self.position = position
        self.source = source
        if position is not None:
            message = f"{message} (at position {position})"
            if source is not None:
                line_start = source.rfind("\n", 0, position) + 1
                line_end = source.find("\n", position)
                if line_end == -1:
                    line_end = len(source)
                line = source[line_start:line_end]
                caret = " " * (position - line_start) + "^"
                message = f"{message}\n  {line}\n  {caret}"
        super().__init__(message)


class AutomatonError(ReproError):
    """An automaton is structurally malformed for the requested operation."""


#: The most states any automaton construction may discover before it gives
#: up with :func:`state_limit_exceeded`.
STATE_LIMIT = 2_000_000


def state_limit_exceeded(limit: int) -> AutomatonError:
    """The error a construction raises once it would exceed ``limit`` states."""
    return AutomatonError(f"automaton construction exceeded {limit} states")


class DeterminismError(AutomatonError):
    """An operation requiring a deterministic automaton received one that is not."""


class UnsupportedFragmentError(ReproError):
    """A formula lies outside the fragment a translation supports.

    The only such fragment in this library: future operators nested inside
    past operators (the paper's normal forms never need them).
    """


class ClassificationError(ReproError):
    """A classification query could not be answered."""


class MonitorError(ReproError):
    """A monitor stream is malformed (bad JSONL batch line, bad payload)."""


class CorpusError(ReproError):
    """A ``.ltl`` corpus file is unreadable, empty, or fails to parse.

    For parse failures, ``path`` and ``line`` locate the offending corpus
    line and ``cause`` is the underlying :class:`ParseError` (whose message,
    already embedded here, carries the character offset and caret snippet).
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        line: int | None = None,
        cause: ParseError | None = None,
    ) -> None:
        self.path = path
        self.line = line
        self.cause = cause
        super().__init__(message)
