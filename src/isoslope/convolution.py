"""Exact cyclic convolution of integer sequences modulo p^N.

cyclic_convolve packs each sequence into one big integer (fixed-width slots
sized so no linear-convolution coefficient can overflow its slot) and lets
CPython's big-integer multiply do the work, at every length.  The schoolbook
loop is kept only as the independent oracle the tests compare it with.
"""

from __future__ import annotations

from .errors import MalformedInput


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
    # every linear-convolution coefficient is < n * modulus^2
    bound = n * (modulus - 1) * (modulus - 1) + 1
    slot_bits = -(-bound.bit_length() // 8) * 8  # whole bytes for cheap slicing
    slot_bytes = slot_bits // 8

    def pack(seq):
        acc = 0
        for v in reversed(seq):
            acc = (acc << slot_bits) | (v % modulus)
        return acc

    prod = pack(a) * pack(b)
    raw = prod.to_bytes(2 * n * slot_bytes, "little")
    out = []
    for k in range(n):
        lo = int.from_bytes(raw[k * slot_bytes:(k + 1) * slot_bytes], "little")
        hi_off = (k + n) * slot_bytes
        hi = int.from_bytes(raw[hi_off:hi_off + slot_bytes], "little")
        out.append((lo + hi) % modulus)
    return out
