"""Exception types shared across the package, and the input rules that every
reader of outside values shares."""

from __future__ import annotations


class SpecError(ValueError):
    """Invalid JSON input; carries a JSON-pointer-style path to the offending field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path if path else "/"
        self.reason = message
        super().__init__(f"{self.path}: {message}")

    def under(self, prefix: str) -> SpecError:
        """This error with its path, relative to what was read, put under `prefix`."""
        return SpecError(prefix + self.path.rstrip("/"), self.reason)


def integer(value, path: str, least: int | None = None) -> int:
    """A JSON integer (an exact int, never a bool), at least `least` when given."""
    if type(value) is not int or (least is not None and value < least):
        want = "an integer" if least is None else f"an integer >= {least}"
        raise SpecError(path, f"expected {want}, got {value!r}")
    return value


def known_keys(doc: dict, allowed, path: str) -> None:
    """Reject the first key of `doc` outside `allowed`, in sorted order, at path/<key>."""
    extra = doc.keys() - allowed
    if extra:
        raise SpecError(f"{path}/{min(extra)}", f"unknown key; expected some of {sorted(allowed)}")


class CapError(ValueError):
    """A configurable size cap was exceeded."""


class ConsistencyError(RuntimeError):
    """An identity or inequality that holds for every valid input failed.

    This means corrupted inputs or an implementation bug, never a legitimate
    outcome.  The payload carries enough data to replay the failing instance.
    """

    def __init__(self, message: str, payload: dict | None = None) -> None:
        super().__init__(message)
        self.payload = payload or {}
