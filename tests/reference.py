"""Independent oracles the tests check the production engines against.

Brute-force trace engines, structured independently of the fast path.  The
production path works in the discrete-log index domain (norms read off
exponent tables, traces folded by cyclic convolution).  Everything here
stays in the element domain instead: norms are computed by square-and-
multiply on raw polynomial arithmetic, and tuple sums are accumulated
through an element product table built from multiplication-by-a matrices.
Nothing below touches field.exp or field.dlog, so agreement between the two
paths checks the whole dlog machinery against first principles.

cyclic_convolve_schoolbook is the quadratic loop that
isoslope.convolution.cyclic_convolve is checked against.

This module needs numpy, a test dependency, and so lives with the tests
rather than in the package.
"""

from __future__ import annotations

import functools

import numpy as np

from isoslope.arith import ExtField, teichmuller_table
from isoslope.errors import DegreeTooLarge, MalformedInput

# int64 scatter products must not overflow: modulus^2 < 2^63
MAX_VECTOR_MODULUS = 3_000_000_000
# (q, q) int32 table: 4096^2 * 4 bytes = 67 MB worst case
_MAX_TABLE_Q = 1 << 12


@functools.cache
def char_values_by_element(field: ExtField, c: int, precision: int) -> tuple[int, ...]:
    """tau(norm(1 - y))^c mod p^N indexed by the element encoding of y.

    Norms go through _pow_raw (plain polynomial powering), not the dlog
    tables.
    """
    p, q = field.p, field.q
    stride = (q - 1) // (p - 1)
    tau = teichmuller_table(p, precision)
    out = [0] * q
    for y in range(q):
        one_minus = field.sub(1, y)
        if one_minus == 0:
            continue
        nm = field._pow_raw(one_minus, stride)
        if nm >= p:  # pragma: no cover
            raise AssertionError("norm left the prime field")
        out[y] = tau[pow(nm, c, p)]
    return tuple(out)


@functools.cache
def element_product_table(field: ExtField) -> np.ndarray:
    """(q, q) array with table[a, b] = a * b, from mult-by-a matrices.

    Row a is D @ M_a where D holds every element's digit vector and M_a's
    rows are the digits of a * X^i; only the m products a * X^i per row use
    field arithmetic, and those go through _mul_raw.
    """
    p, m, q = field.p, field.m, field.q
    if q > _MAX_TABLE_Q:
        raise DegreeTooLarge(f"element product table capped at q <= {_MAX_TABLE_Q}")
    digits = np.zeros((q, m), dtype=np.int64)
    rest = np.arange(q, dtype=np.int64)
    for i in range(m):
        digits[:, i] = rest % p
        rest //= p
    powers = np.array([p ** i for i in range(m)], dtype=np.int64)
    table = np.zeros((q, q), dtype=np.int32)
    for a in range(1, q):
        mat = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            img = field._mul_raw(a, p ** i)
            for k in range(m):
                img, d = divmod(img, p)
                mat[i, k] = d
        table[a] = ((digits @ mat) % p) @ powers
    table.flags.writeable = False  # shared by every caller of the cache
    return table


@functools.cache
def inverse_table(field: ExtField) -> tuple[int, ...]:
    """a^(-1) indexed by the element encoding of a, read off the product
    table as the b with a * b = 1; entry 0 is 0."""
    table = element_product_table(field)
    out = np.argmax(table == 1, axis=1)
    if any(table[a, out[a]] != 1 for a in range(1, field.q)):  # pragma: no cover
        raise AssertionError("a unit without an inverse in the product table")
    return tuple(int(b) for b in out)


@functools.cache
def trace_sums_all_points(c: tuple[int, ...], field: ExtField, precision: int) -> np.ndarray:
    """Raw tuple sums for every target at once, element-indexed.

    out[y] = sum over (x_1..x_n) in units^n with prod x_i = y of
    prod tau(norm(1 - x_i))^{c_i}, mod p^precision.  Cached and read-only:
    c's table is one fold of its last factor onto the cached table of
    c[:-1].  Multiplication by a fixed unit permutes the units, so each
    scatter of the fold is a plain permuted assignment.
    """
    modulus = field.p ** precision
    if modulus > MAX_VECTOR_MODULUS:
        raise MalformedInput(f"modulus {modulus} too large for the int64 engine")
    out = np.array(char_values_by_element(field, c[-1], precision), dtype=np.int64)
    if len(c) > 1:
        acc = trace_sums_all_points(c[:-1], field, precision)
        table = element_product_table(field)
        f_units = out[1:]
        tmp = np.zeros(field.q, dtype=np.int64)
        nxt = np.zeros(field.q, dtype=np.int64)
        for a in range(1, field.q):
            s = int(acc[a])
            if s == 0:
                continue
            tmp[table[a, 1:]] = (s * f_units) % modulus
            nxt += tmp
        # each of the <= q-1 addends is < modulus <= 3e9 and q <= 2^13,
        # so the accumulator stays far below 2^63
        out = nxt % modulus
    out.flags.writeable = False  # shared by every caller of the cache
    return out


def trace_sum_at(c: tuple[int, ...], field: ExtField, x: int, precision: int,
                 tuple_budget: int = 5_000_000) -> int:
    """Literal nested enumeration of (n-1)-tuples for a single target x; the
    last factor is x times the inverse of the running product, read from
    inverse_table, so n >= 2 needs q within element_product_table's cap."""
    if x == 0:
        raise MalformedInput("target must be a unit")
    n = len(c)
    q = field.q
    if (q - 1) ** max(n - 1, 0) > tuple_budget:
        raise DegreeTooLarge(f"enumeration over (q-1)^{n - 1} tuples exceeds budget")
    modulus = field.p ** precision
    tables = [char_values_by_element(field, ci, precision) for ci in c]
    if n == 1:
        return tables[0][x] % modulus

    total = 0
    units = range(1, q)
    inverse = inverse_table(field)

    def rec(depth: int, prod: int, val: int):
        nonlocal total
        if val == 0:
            return
        if depth == n - 1:
            last = field._mul_raw(x, inverse[prod])
            total = (total + val * tables[n - 1][last]) % modulus
            return
        for y in units:
            rec(depth + 1, field._mul_raw(prod, y), val * tables[depth][y] % modulus)

    rec(0, 1, 1)
    return total


def cyclic_convolve_schoolbook(a, b, modulus: int):
    """Cyclic convolution mod `modulus` by the quadratic loop."""
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
