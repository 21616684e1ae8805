"""Exact cyclic convolution of integer sequences modulo p^N.

cyclic_convolve packs each sequence into one decimal.Decimal with fixed-width
decimal slots, wide enough that no cyclic output coefficient (a sum of n
products below modulus^2) can overflow its slot, and multiplies the two in
an unbounded-precision libmpdec context.  libmpdec switches from Karatsuba
to a number-theoretic transform for large operands, so the multiply is
quasi-linear.  The product's upper n slots are added onto its lower n (the
cyclic fold, done on the decimals), and the slots are read back from one
decimal string.  This needs the C decimal module: under the pure-Python
_pydecimal the multiply is quadratic.  The schoolbook loop is kept only as
the independent oracle the tests compare it with.
"""

from __future__ import annotations

import decimal

from .errors import MalformedInput

_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN)


def cyclic_convolve_schoolbook(a, b, modulus: int):
    if len(a) != len(b):
        raise MalformedInput(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                k = i + j
                if k >= n:
                    k -= n
                out[k] += ai * bj
    return [v % modulus for v in out]


def cyclic_convolve(a, b, modulus: int):
    """Cyclic convolution mod `modulus`: out[k] = sum_{i+j=k mod n} a_i b_j."""
    if modulus < 2:
        raise MalformedInput(f"modulus must be >= 2, got {modulus}")
    if len(a) != len(b):
        raise MalformedInput(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if not n:
        return []
    width = len(str(n * (modulus - 1) ** 2))

    def pack(seq):  # most significant slot first; one format call, no per-slot strings
        slots = tuple([v % modulus for v in reversed(seq)])
        return decimal.Decimal((f"%0{width}d" * n) % slots)

    product = _EXACT.multiply(pack(a), pack(b))
    half = n * width
    high = product.scaleb(-half, _EXACT).to_integral_value(decimal.ROUND_DOWN, _EXACT)
    folded = _EXACT.add(_EXACT.subtract(product, high.scaleb(half, _EXACT)), high)
    digits = str(folded).zfill(half)
    return [int(digits[i - width:i]) % modulus for i in range(half, 0, -width)]
