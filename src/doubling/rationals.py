"""Exact rationals over the wire: "p/q" strings plus lossy decimal shadows.

Every reported number is an exact Fraction; the checks behind it compare
integer counts.  The decimal shadows exist only for human reading and CSV
export; nothing ever parses them back.
"""

from __future__ import annotations

from fractions import Fraction


def fmt(x: Fraction | int) -> str:
    """Render as an explicit "p/q" string ("17/1", never bare "17")."""
    return f"{x.numerator}/{x.denominator}"


def parse(value: str | int | Fraction) -> Fraction:
    """Parse "p/q" or "p" (also accepts ints and Fractions unchanged)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        parts = value.split("/")
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    raise ValueError(f"not a rational: {value!r}")


def shadow(x: Fraction | int) -> float:
    """The decimal shadow of an exact Fraction or int."""
    return x.numerator / x.denominator


def put(d: dict, key: str, x: Fraction | int) -> dict:
    """Store exact value under `key` and its decimal shadow under `key`_dec."""
    d[key] = fmt(x)
    d[key + "_dec"] = shadow(x)
    return d
