"""Print the power-of-five tables of the float formatter in ``_kernel.c``.

Ryu (Adams, "Ryu: fast float-to-string conversion", PLDI 2018) scales a
double's binary mantissa by 5^i or 2^k / 5^i, each held to 125 bits, for
every i a double reaches. ``_kernel.c`` keeps every 26th of them, the
exact powers 5^0..5^25 and a 2-bit correction per i, and computes the rest
(``pow5`` and ``inv_pow5`` there). This script computes every value exactly
with Python integers, repeats the C reconstruction, derives the
corrections, checks that each fits its 2 bits and that every shift the C
code makes stays inside a 64-bit word, and prints the C tables:

    python scripts/ryu_tables.py
"""

from __future__ import annotations

BITS = 125  # bits of each scaled power
STEP = 26  # 5^25 < 2^64: one stored power every 26
MANTISSA_BITS, BIAS = 52, 1023


def pow5bits(e: int) -> int:
    """``pow5bits`` of ``_kernel.c``: the bit length of 5^e."""
    return ((e * 1217359) >> 19) + 1


def log10_pow2(e: int) -> int:
    """floor(log10(2^e)), as ``shortest`` of ``_kernel.c`` computes it."""
    return (e * 78913) >> 18


def log10_pow5(e: int) -> int:
    """floor(log10(5^e)), as ``shortest`` of ``_kernel.c`` computes it."""
    return (e * 732923) >> 20


def pow5(i: int) -> int:
    """5^i scaled to exactly ``BITS`` bits, truncated."""
    shift = pow5bits(i) - BITS
    return 5 ** i >> shift if shift >= 0 else 5 ** i << -shift


def inv_pow5(i: int) -> int:
    """2^(pow5bits(i) - 1 + BITS) / 5^i, rounded up (above, when exact)."""
    return (1 << (pow5bits(i) - 1 + BITS)) // 5 ** i + 1


def reaches() -> tuple[int, int, set[int]]:
    """The largest i of ``pow5`` and of ``inv_pow5`` that ``shortest`` of
    ``_kernel.c`` reads, and every shift it gives ``mul_shift``."""
    top5 = top_inv = 0
    shifts = set()
    for biased in range(2047):
        e2 = (biased or 1) - BIAS - MANTISSA_BITS - 2
        if e2 >= 0:
            q = log10_pow2(e2) - (e2 > 3)
            top_inv = max(top_inv, q)
            shifts.add(-e2 + q + BITS + pow5bits(q) - 1)
        else:
            q = log10_pow5(-e2) - (-e2 > 1)
            i = -e2 - q
            top5 = max(top5, i)
            shifts.add(q - (pow5bits(i) - BITS))
    return top5, top_inv, shifts


def corrections(top: int, inverse: bool) -> list[int]:
    """The 2-bit corrections, one per i <= ``top``, as ``pow5`` and
    ``inv_pow5`` of ``_kernel.c`` add them."""
    out = []
    for i in range(top + 1):
        if inverse:
            base = -(-i // STEP) * STEP
            exact = inv_pow5(i)
            product = (inv_pow5(base) - 1) * 5 ** (base - i)
            shift, extra = pow5bits(base) - pow5bits(i), 1
        else:
            base = i // STEP * STEP
            exact = pow5(i)
            product = pow5(base) * 5 ** (i - base)
            shift, extra = pow5bits(i) - pow5bits(base), 0
        if base == i:
            out.append(0)
            continue
        assert 0 < shift < 64
        assert inverse <= (inv_pow5(base) & (2 ** 64 - 1))  # no borrow
        corr = exact - (product >> shift) - extra
        assert 0 <= corr <= 3, (i, corr)
        out.append(corr)
    return out


def words(corr: list[int]) -> list[int]:
    """Corrections packed 16 to a 32-bit word, i at bits 2 (i % 16)."""
    return [sum(c << 2 * k for k, c in enumerate(corr[w:w + 16]))
            for w in range(0, len(corr), 16)]


def pairs(values) -> list[str]:
    """Each 128-bit value as its C pair of words, low word first."""
    return [f"{{0x{v & (2 ** 64 - 1):016x}, 0x{v >> 64:016x}}}"
            for v in values]


def c_list(declarator: str, ctype: str, values: list[str]) -> str:
    """A C array ``declarator`` of ``values``, wrapped at 78 columns."""
    text, line = [], "   "
    for v in values:
        item = f" {v},"
        if len(line) + len(item) > 78:
            text.append(line)
            line = "   "
        line += item
    text.append(line.rstrip(","))
    return (f"static const {ctype} {declarator} = {{\n" + "\n".join(text)
            + "};")


def main() -> None:
    for e in range(3529):
        assert pow5bits(e) == max(1, (5 ** e).bit_length())
    top5, top_inv, shifts = reaches()
    assert 64 < min(shifts) and max(shifts) < 128
    for e in range(1, 1651):
        assert log10_pow2(e) == len(str(2 ** e)) - 1
    for e in range(1, 2621):
        assert log10_pow5(e) == len(str(5 ** e)) - 1
    print(c_list("FIVES[]", "uint64_t",
                 [str(5 ** k) for k in range(STEP)]))
    print(c_list("POW5[][2]", "uint64_t",
                 pairs(pow5(i) for i in range(0, top5 + 1, STEP))))
    print(c_list("POW5_CORR[]", "uint32_t",
                 [f"0x{w:08x}" for w in words(corrections(top5, False))]))
    print(c_list("INV_POW5[][2]", "uint64_t",
                 pairs(inv_pow5(i) for i in range(0, top_inv + STEP, STEP))))
    print(c_list("INV_POW5_CORR[]", "uint32_t",
                 [f"0x{w:08x}" for w in words(corrections(top_inv, True))]))


if __name__ == "__main__":
    main()
