"""Print the table of powers of ten the scanner of ``_kernel.c`` rounds by.

Eisel and Lemire's method (Lemire, "Number Parsing at a Gigabyte per
Second", Software: Practice and Experience, 2021) rounds a decimal w * 10^q,
w below 2^64, to a double from the product of w with the leading 128 bits
of 10^q, truncated. ``_kernel.c`` keeps them for -22 <= q <= 22
(``POW10_128``), the exponents of the scanner's fast paths, and derives
10^q's binary exponent from ``pow5bits``. This script computes every entry
with Python integers, checks that each holds exactly 128 bits and that the
exponent ``eisel_lemire`` derives is floor(log2(10^q)), and prints the C
table:

    python scripts/pow10_table.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ryu_tables import c_list, pairs, pow5bits  # noqa: E402

LOW, HIGH = -22, 22  # the exponents of the table


def pow10_128(q: int) -> int:
    """The leading 128 bits of 10^q, truncated: those of 5^q."""
    five = 5 ** abs(q)
    if q >= 0:
        return five << (128 - five.bit_length())
    return (1 << (127 + five.bit_length())) // five


def log2_pow10(q: int) -> int:
    """floor(log2(10^q)), as ``log2_pow10`` of ``_kernel.c`` computes it."""
    return q + pow5bits(q) - 1 if q >= 0 else q - pow5bits(-q)


def main() -> None:
    for q in range(LOW, HIGH + 1):
        # 10^q * 2^(127 - e), truncated, lies in [2^127, 2^128) for the one
        # e = floor(log2(10^q)), and is the entry.
        shift = 127 - log2_pow10(q)
        scaled = (10 ** q << shift if q >= 0
                  else (1 << shift) // 10 ** -q)
        assert 2 ** 127 <= scaled < 2 ** 128 and scaled == pow10_128(q)
    print(c_list("POW10_128[][2]", "uint64_t",
                 pairs(pow10_128(q) for q in range(LOW, HIGH + 1))))


if __name__ == "__main__":
    main()
