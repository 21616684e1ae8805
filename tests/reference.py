"""Independent oracles the tests check the production engines against.

Brute-force trace engines, structured independently of the fast path.  The
production path works in the discrete-log index domain (norms read off
exponent tables, traces folded by cyclic convolution).  Everything here
stays in the element domain instead: norms are computed by square-and-
multiply on raw polynomial arithmetic, and tuple sums are accumulated
through an element product table built from multiplication-by-a matrices.
Nothing below touches field.exp or field.dlog, so agreement between the two
paths checks the whole dlog machinery against first principles.

trace_table and subfield_traces are the Jacobi-sum engine's oracle: the
GF(p^f) trace table as the fold of the character rows of c by
isoslope.convolution.cyclic_convolve in the dlog domain, and its entries
at the embedded units of GF(p^m).  cyclic_convolve_schoolbook is the
quadratic loop that cyclic_convolve is checked against, and
checkpoint_served_per_line the line-by-line checkpoint load, written apart
from it, that isoslope.scan._Checkpoint is checked against; fast_path_lines
gives what a checkpoint of the all-points format held beyond today's.
first_irreducible_by_trial_division finds a field's modulus by trial
division, with no gcd and no power of X.

This module needs numpy, a test dependency, and so lives with the tests
rather than in the package.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

from isoslope.arith import ExtField, embed_element, field_create, norm, teichmuller_table
from isoslope.convolution import cyclic_convolve
from isoslope.errors import DegreeTooLarge, IsoslopeError, MalformedInput
from isoslope.scan import _Head, _check_outcome, _head_value, _is_point_record

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


@functools.cache
def norm_one_minus_table(field: ExtField) -> tuple[int, ...]:
    """norm(1 - g^e) in GF(p), indexed by e; entry 0 (x = 1) is 0.

    y - 1 borrows only when digit 0 of y is zero, and the norm of
    1 - y = -(y - 1) is (-1)^m times that of y - 1, since
    (q - 1)/(p - 1) = 1 + p + .. + p^(m-1) = m mod 2 for odd p (for p = 2
    the sign is 1 either way).
    """
    p = field.p
    sign = (-1) ** field.m
    return tuple(sign * norm(field, y - 1 if y % p else y + p - 1) % p for y in field.exp)


def trace_table(c: tuple[int, ...], field: ExtField, precision: int) -> list[int]:
    """Raw tuple sums of c over the field indexed by target dlog, mod
    p^precision, with no rank sign.

    The character row of c_i holds tau(norm(1 - g^e))^c_i mod p^N at e,
    read through a length-p row of tau(v)^c_i over the residues v, and the
    table is the left fold of the rows of c by cyclic convolution.
    """
    p = field.p
    modulus = p ** precision
    norms = norm_one_minus_table(field)
    tau = teichmuller_table(p, precision)

    def char_row(ci: int) -> list[int]:
        row = [0] + [tau[pow(v, ci, p)] for v in range(1, p)]
        return [row[nm] for nm in norms]

    acc = char_row(c[0])
    for ci in c[1:]:
        acc = cyclic_convolve(acc, char_row(ci), modulus)
    return acc


@functools.cache
def subfield_traces(c: tuple[int, ...], p: int, m: int, j: int,
                    precision: int) -> tuple[int, ...]:
    """Raw tuple sums of c over GF(p^(m j)) at the embedded units of
    GF(p^m), indexed by dlog in GF(p^m), mod p^precision: entry k is the
    trace table's entry k t, g^t being the image of the generator of
    GF(p^m)."""
    small, big = field_create(p, m), field_create(p, m * j)
    table = trace_table(c, big, precision)
    t = big.dlog[embed_element(small, big, small.generator)]
    return tuple(table[k * t % (big.q - 1)] for k in range(small.q - 1))


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


def first_irreducible_by_trial_division(p: int, m: int) -> tuple[int, ...]:
    """The first monic polynomial of degree m over GF(p) (coefficients low
    first) that no monic polynomial of degree 1 .. m/2 divides, in the order
    that reads its low coefficients as the base-p digits of 0, 1, 2, ..."""

    def divides(g, f):
        rem = list(f)
        for top in range(len(f) - 1, len(g) - 2, -1):
            lead = rem[top]
            for i, gi in enumerate(g):  # g monic: this clears rem[top]
                rem[top - len(g) + 1 + i] = (rem[top - len(g) + 1 + i] - lead * gi) % p
        return not any(rem)

    divisors = [[*low, 1] for d in range(1, m // 2 + 1)
                for low in itertools.product(range(p), repeat=d)]
    for k in range(p ** m):
        f = [k // p ** i % p for i in range(m)] + [1]
        if not any(divides(g, f) for g in divisors):
            return tuple(f)
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


def checkpoint_served_per_line(path: str) -> dict[tuple, tuple[dict, int, int]]:
    """What a checkpoint load serves, by (p, c, degree, x_dlog), each as
    (head fields, x, line number), from json.loads, _is_point_record and
    the head checks run on every line; MalformedInput naming path:line
    where a line is refused.  Torn, undecodable and unparseable lines,
    integers past the digit limit among them, are dropped."""
    served = {}
    checked = set()
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if not _is_point_record(rec):
                raise MalformedInput(
                    f"{path}:{lineno}: checkpoint line is not a point record")
            value = _head_value(rec)
            outcome = (len(value[2]), *value[3:])
            if outcome not in checked:
                try:
                    _check_outcome(*value[1:])
                except (AssertionError, IsoslopeError) as exc:
                    raise MalformedInput(
                        f"{path}:{lineno}: checkpoint line breaks an "
                        f"invariant of its slopes: {exc}") from exc
                checked.add(outcome)
            served[(*value[1:4], rec["x_dlog"])] = (_Head(rec).fields, rec["x"], lineno)
    return served


def fast_path_lines(report_bytes: bytes) -> list[bytes]:
    """The lines a checkpoint of the all-points format, which held a line
    for every point, has beyond the lines of the points that did p-adic
    work: the report's fast-path records, each as json.dumps(record,
    sort_keys=True)."""
    return [json.dumps(rec, sort_keys=True).encode() + b"\n"
            for rec in json.loads(report_bytes)["records"] if rec["fast_path"]]
