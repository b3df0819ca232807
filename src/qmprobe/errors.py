"""Exception types shared across the package."""

from __future__ import annotations


class QmprobeError(Exception):
    """Base class for package-specific failures."""


class CapExceededError(QmprobeError, RuntimeError):
    """A configured resource cap (ball radius, vertex count, cell count,
    iteration budget) would be exceeded."""

    def __init__(self, what: str, requested, cap):
        super().__init__(f"{what}: requested {requested}, cap {cap}")
        self.what = what
        self.requested = requested
        self.cap = cap


class ConfigError(QmprobeError, ValueError):
    """A config file failed to parse or validate.  The message names the
    section and key involved."""


class LibraryIncompleteError(QmprobeError):
    """Peak reduction needed a replacement path that the q-library does
    not contain."""


class ExtractionError(QmprobeError):
    """Path extraction from a boundary support failed."""


class ReplayError(QmprobeError):
    """A certificate failed to replay.  Names the certificate."""
