"""Exact rationals over the wire: "p/q" strings plus lossy decimal shadows.

The checks compare integer counts, and the results of an instance are held
as those counts (`harness.InstanceReport` and the records it holds), so
evaluating an instance writes no text.  A report is written once, where it
is written: `InstanceReport.to_json()`, as the writer reaches each of a
scan's instances or `replay` returns one, is the one place the instance loop
reaches `put`; the CSV export divides the counts themselves.
`put(d, key, num, den)` reduces num/den with one gcd and stores the "p/q"
string and its decimal shadow, so no `Fraction` is built.  The aggregate
ranks its probe by cross-multiplied counts and writes only the witnesses it
keeps.  `Fraction`s live only in the public result objects
(`DoublingStats.K` and the like) and at the edges: parsed CLI alphas, error
payloads and the construction report.  The decimal shadows exist only for
human reading and CSV export; nothing ever parses them back.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def fmt(num: Fraction | int, den: int = 1) -> str:
    """Render num/den (den > 0) in lowest terms as an explicit "p/q" string
    ("17/1", never bare "17"); `num` may be a Fraction when `den` is 1."""
    if den != 1:
        g = gcd(num, den)
        return f"{num // g}/{den // g}"
    return f"{num.numerator}/{num.denominator}"


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


def put(d: dict, key: str, num: int, den: int) -> dict:
    """Store num/den (den > 0) as "p/q" under `key` and its decimal shadow
    under `key`_dec, the text and the float of Fraction(num, den): int true
    division is correctly rounded, so the unreduced pair gives the same float."""
    d[key] = fmt(num, den)
    d[key + "_dec"] = num / den
    return d
