"""Exact rationals over the wire: "p/q" strings plus lossy decimal shadows.

The checks compare integer counts, and the results of an instance are held
as those counts (`harness.InstanceReport` and the records it holds), so
evaluating an instance writes no text.  A report is written only where it
is written: `InstanceReport.to_json()` and the `to_json()` of the records it
holds, as the writer reaches each of a scan's instances or `replay` returns
one, are the one place the instance loop reaches `put`.  The CLI writer
renders each distinct record once per artifact.  The CSV export divides the
counts themselves.
`put(d, key, num, den)` reduces num/den with one gcd and stores the "p/q"
string and its decimal shadow, so no `Fraction` is built.  The aggregate
ranks its probe by cross-multiplied counts and writes only the witnesses it
keeps.  `Fraction`s live only in the public result objects
(`DoublingStats.K` and the like) and at the edges: parsed CLI alphas, error
payloads and the construction report.  The decimal shadows exist only for
human reading and CSV export; nothing ever parses them back.
"""

from __future__ import annotations

import re
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
    """Parse "p/q" or "p", as an optional "-", ASCII digits and an optional "/"
    and ASCII digits, and nothing else (also accepts ints and Fractions unchanged)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and re.fullmatch("-?[0-9]+(/[0-9]+)?", value):
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den or 1))
    raise ValueError(f"not a rational: {value!r}")


def put(d: dict, key: str, num: int, den: int) -> dict:
    """Store num/den (den > 0) as "p/q" under `key` and its decimal shadow
    under `key`_dec, the text and the float of Fraction(num, den): int true
    division is correctly rounded, so the unreduced pair gives the same float."""
    d[key] = fmt(num, den)
    d[key + "_dec"] = num / den
    return d
