"""Exact arithmetic: finite fields GF(p^m) and truncated p-adic integers.

Conventions
-----------
* An element of GF(p^m) is encoded as an integer in [0, p^m): its base-p
  digits are the coefficients of the residue polynomial, least significant
  digit = constant term.  For m = 1 the encoding is the residue itself.
* The modulus is the first monic irreducible polynomial of degree m in the
  encoding order above; the generator is the first encoded element of full
  multiplicative order p^m - 1.  Both choices are deterministic; nothing
  downstream depends on them.
* Discrete-log and exponential tables are built at construction and held
  as array('q') (8 bytes an entry), so field size is capped (default 2^21
  elements, ISOSLOPE_TABLE_LIMIT overrides).  For m >= 2 and p <= 127 the
  powers of the generator come from byte-sliced lookup tables reduced with
  bytes.translate; m = 1, and m = 2 above p = 127, multiply by polynomial
  arithmetic (_mul_raw), which stays as the oracle for both.
  field_create() checks the cap on every call and returns one shared field
  per (p, m); tables derived from fields are memoized with functools.cache,
  keyed by the field object itself.
* A truncated p-adic integer is a residue mod p^N together with N.  Residue
  zero means "divisible by p^N": its valuation is reported as a censored
  lower bound, never as an exact value.
"""

from __future__ import annotations

import functools
import itertools
import os
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DegreeTooLarge,
    FieldMismatch,
    MalformedInput,
    NotPrime,
    PrecisionMismatch,
)

DEFAULT_TABLE_LIMIT = 1 << 21
TABLE_LIMIT_ENV = "ISOSLOPE_TABLE_LIMIT"

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization; adequate for table-sized moduli."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def table_limit_from_env() -> int:
    raw = os.environ.get(TABLE_LIMIT_ENV)
    if raw is not None:
        try:
            val = int(raw)
        except ValueError as exc:
            raise MalformedInput(f"{TABLE_LIMIT_ENV} must be an integer, got {raw!r}") from exc
        if val < 2:
            raise MalformedInput(f"{TABLE_LIMIT_ENV} must be >= 2, got {val}")
        return val
    return DEFAULT_TABLE_LIMIT


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), little-endian coefficient lists
# ---------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul_mod_p(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def poly_add_mod_p(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, ai in enumerate(a):
        out[i] = ai
    for j, bj in enumerate(b):
        out[j] = (out[j] + bj) % p
    return _poly_trim(out)


def _poly_rem(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i in range(df + 1):
                a[shift + i] = (a[shift + i] - lead * f[i]) % p
        a.pop()
    return _poly_trim(a)


def _poly_mulmod(a, b, f, p):
    return _poly_rem(poly_mul_mod_p(a, b, p), f, p)


def _poly_powmod(base, e, f, p):
    acc = [1]
    cur = _poly_rem(base, f, p)
    while e:
        if e & 1:
            acc = _poly_mulmod(acc, cur, f, p)
        cur = _poly_mulmod(cur, cur, f, p)
        e >>= 1
    return acc


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        bm = [(ci * inv) % p for ci in b]
        a, b = b, _poly_rem(a, bm, p)
    return a


def _is_irreducible(f, p):
    """Rabin test: f monic of degree m is irreducible over GF(p) iff
    X^(p^m) = X mod f and gcd(X^(p^(m/l)) - X, f) = 1 for primes l | m."""
    m = len(f) - 1
    x = [0, 1]
    if _poly_powmod(x, p ** m, f, p) != _poly_rem(x, f, p):
        return False
    for ell in factorize(m):
        h = _poly_powmod(x, p ** (m // ell), f, p)
        diff = poly_add_mod_p(h, [0, p - 1], p)
        g = _poly_gcd(f, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# the extension field
# ---------------------------------------------------------------------------

def _checked_field_size(p: int, m: int) -> int:
    """p^m, after checking p, m and the table limit."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise MalformedInput(f"extension degree must be >= 1, got {m}")
    limit = table_limit_from_env()
    q = p ** m
    if q > limit:
        raise DegreeTooLarge(
            f"GF({p}^{m}) has {q} elements, over the table limit {limit}"
        )
    return q


class ExtField:
    """GF(p^m) with integer-encoded elements and full dlog/exp tables.

    exp[e] = g^e for 0 <= e < q - 1 and dlog[exp[e]] = e, both array('q');
    dlog[0] = -1.

    Construction checks the table limit.  Use field_create() rather than
    constructing directly: it shares one field per (p, m), and the memoized
    tables downstream are keyed by that field object.  Fields are never
    mutated after construction.
    """

    def __init__(self, p: int, m: int):
        q = _checked_field_size(p, m)
        self.p = p
        self.m = m
        self.q = q
        self.modulus = self._find_modulus()
        self.generator = self._find_generator()
        self._build_tables()

    # -- construction -----------------------------------------------------

    def _find_modulus(self):
        p, m = self.p, self.m
        if m == 1:
            return (0, 1)  # X itself: GF(p)[X]/(X) = GF(p)
        for k in range(p ** m):
            low = self._digits_of(k)
            f = low + [1]
            if _is_irreducible(f, p):
                return tuple(f)
        raise AssertionError("no irreducible polynomial found")  # pragma: no cover

    def _digits_of(self, a: int):
        p = self.p
        out = []
        for _ in range(self.m):
            a, r = divmod(a, p)
            out.append(r)
        return out

    def _encode(self, digits) -> int:
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    def _mul_raw(self, a: int, b: int) -> int:
        """Product via polynomial arithmetic; independent of the dlog tables."""
        if self.m == 1:
            return a * b % self.p
        prod = _poly_mulmod(self._digits_of(a), self._digits_of(b), list(self.modulus), self.p)
        return self._encode(prod + [0] * (self.m - len(prod)))

    def _pow_raw(self, a: int, e: int) -> int:
        acc, cur = 1, a
        while e:
            if e & 1:
                acc = self._mul_raw(acc, cur)
            cur = self._mul_raw(cur, cur)
            e >>= 1
        return acc

    def _find_generator(self) -> int:
        order = self.q - 1
        checks = [order // ell for ell in factorize(order)]
        for a in range(2, self.q):
            if all(self._pow_raw(a, e) != 1 for e in checks):
                return a
        if self.q == 2:
            return 1
        raise AssertionError("no generator found")  # pragma: no cover

    def _build_tables(self):
        if self.m >= 2 and self.p <= 127:
            powers = self._sliced_powers()
        else:
            powers = self._raw_powers()
        self.exp = array("q", powers)
        self.dlog = dlog = array("q", [-1]) * self.q
        for e, x in enumerate(self.exp):
            dlog[x] = e

    def _raw_powers(self):
        """g^0 .. g^(q-2) by repeated _mul_raw."""
        cur = 1
        for _ in range(self.q - 1):
            yield cur
            cur = self._mul_raw(cur, self.generator)
        if cur != 1:
            raise AssertionError("generator order check failed")  # pragma: no cover

    def _sliced_powers(self):
        """g^0 .. g^(q-2) by byte-sliced tables, for m >= 2 and p <= 127.

        An element is "spread" into an int with one byte per base-p digit.
        Multiplication by g is GF(p)-linear, so the spread of g*a is the
        digit-wise sum of one table lookup on a's low digits and one on its
        high digits; each byte of the sum is below 2p - 1 <= 252, so
        bytes.translate reduces it mod p.  Above its top byte every table
        value also carries the encoding of its key's digits, and the two
        halves' encodings add up to the encoding of a itself.
        """
        p, m = self.p, self.m
        width = 8 * m
        reduce_ = bytes(v % p for v in range(256))

        def half_table(lo, hi):
            table = {}
            for digits in itertools.product(range(p), repeat=hi - lo):
                a = self._encode([0] * lo + list(digits))
                image = bytes(self._digits_of(self._mul_raw(self.generator, a)))
                table[int.from_bytes(bytes(digits), "little")] = \
                    a << width | int.from_bytes(image, "little")
            return table

        split = m // 2
        low, high = half_table(0, split), half_table(split, m)
        low_bits, mask = 8 * split, (1 << width) - 1
        low_mask = (1 << low_bits) - 1
        cur = 1
        for _ in range(self.q - 1):
            s = low[cur & low_mask] + high[cur >> low_bits]
            yield s >> width
            cur = int.from_bytes((s & mask).to_bytes(m, "little").translate(reduce_),
                                 "little")
        if cur != 1:
            raise AssertionError("generator order check failed")  # pragma: no cover

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        out = 0
        shift = 1
        while a or b:
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += ((ra + rb) % p) * shift
            shift *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if self.m == 1:
            return (-a) % p
        out = 0
        shift = 1
        while a:
            a, ra = divmod(a, p)
            out += ((-ra) % p) * shift
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.dlog[a] + self.dlog[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self.exp[(-self.dlog[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0 if e else 1
        return self.exp[(self.dlog[a] * e) % (self.q - 1)]

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def frobenius_orbit(self, a: int) -> list[int]:
        orbit = [a]
        b = self.frobenius(a)
        while b != a:
            orbit.append(b)
            b = self.frobenius(b)
        return orbit

    def element_degree(self, a: int) -> int:
        """Degree over GF(p) of the subfield generated by a."""
        return len(self.frobenius_orbit(a))

    def eval_poly(self, coeffs, x: int) -> int:
        """Evaluate a polynomial with GF(p) coefficients at x (Horner).

        A GF(p) constant changes only digit 0 of the base-p encoding, so
        each step adds it there instead of adding digit by digit.
        """
        p = self.p
        if not x:
            return coeffs[0] % p if coeffs else 0
        exp, dlog, order = self.exp, self.dlog, self.q - 1
        dx = dlog[x]
        acc = 0
        for c in reversed(coeffs):
            if acc:
                acc = exp[(dlog[acc] + dx) % order]
            low = acc % p
            acc += (low + c) % p - low
        return acc

    def __repr__(self):  # pragma: no cover
        return f"ExtField(p={self.p}, m={self.m})"


def norm(field: ExtField, y: int) -> int:
    """Norm to GF(p): y -> y^((q-1)/(p-1)); 0 maps to 0.  Read off the
    dlog/exp tables; reference.py keeps an independent copy."""
    if not 0 <= y < field.q:
        raise FieldMismatch(f"element {y} outside GF({field.p}^{field.m})")
    if y == 0:
        return 0
    e = field.dlog[y] * ((field.q - 1) // (field.p - 1)) % (field.q - 1)
    val = field.exp[e]
    if val >= field.p:
        raise AssertionError("norm left the prime field")  # pragma: no cover
    return val


_shared_field = functools.cache(ExtField)


def field_create(p: int, m: int) -> ExtField:
    """GF(p^m), built once per (p, m).  The table limit is checked on every
    call, so a lowered limit refuses a field that is already built."""
    _checked_field_size(p, m)
    return _shared_field(p, m)


# ---------------------------------------------------------------------------
# truncated p-adic integers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Valuation:
    """Either an exact p-adic valuation or a censored lower bound."""

    is_exact: bool
    value: Fraction

    @classmethod
    def exact(cls, v) -> "Valuation":
        return cls(True, Fraction(v))

    @classmethod
    def at_least(cls, v) -> "Valuation":
        return cls(False, Fraction(v))

    def __repr__(self):
        tag = "Exact" if self.is_exact else "AtLeast"
        return f"{tag}({self.value})"


@dataclass(frozen=True)
class PadicResidue:
    """An integer known modulo p^precision."""

    p: int
    precision: int
    value: int

    def __post_init__(self):
        if self.precision < 1:
            raise MalformedInput(f"precision must be >= 1, got {self.precision}")
        object.__setattr__(self, "value", self.value % self.p ** self.precision)

    @property
    def modulus(self) -> int:
        return self.p ** self.precision

    def _check(self, other: "PadicResidue"):
        if self.p != other.p:
            raise FieldMismatch(f"residues for p={self.p} and p={other.p}")
        if self.precision != other.precision:
            raise PrecisionMismatch(
                f"precisions {self.precision} and {other.precision}; narrow explicitly"
            )

    def __add__(self, other):
        self._check(other)
        return PadicResidue(self.p, self.precision, self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return PadicResidue(self.p, self.precision, self.value - other.value)

    def __mul__(self, other):
        if isinstance(other, int):
            return PadicResidue(self.p, self.precision, self.value * other)
        self._check(other)
        return PadicResidue(self.p, self.precision, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicResidue(self.p, self.precision, -self.value)

    def div_unit(self, k: int) -> "PadicResidue":
        """Divide by an integer unit (k not divisible by p)."""
        if k % self.p == 0:
            raise ZeroDivisionError(f"{k} is not a unit mod {self.p}")
        return PadicResidue(self.p, self.precision, self.value * pow(k, -1, self.modulus))

    def narrow(self, precision: int) -> "PadicResidue":
        if precision > self.precision:
            raise PrecisionMismatch(
                f"cannot widen precision {self.precision} to {precision}"
            )
        return PadicResidue(self.p, precision, self.value)

    def is_zero(self) -> bool:
        return self.value == 0

    def valuation(self) -> Valuation:
        """Exact valuation when the residue is nonzero, else AtLeast(N)."""
        if self.value == 0:
            return Valuation.at_least(self.precision)
        v, t = 0, self.value
        while t % self.p == 0:
            t //= self.p
            v += 1
        return Valuation.exact(v)


# ---------------------------------------------------------------------------
# Teichmueller lifts and multiplicative character values
# ---------------------------------------------------------------------------

def teichmuller(p: int, y: int, precision: int) -> int:
    """Teichmueller lift of y mod p^precision.

    Iterating t -> t^p mod p^N exactly N-1 times from the naive lift lands
    on the unique (p-1)-st root of unity congruent to y mod p; 0 lifts to 0.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if precision < 1:
        raise MalformedInput(f"precision must be >= 1, got {precision}")
    y %= p
    if y == 0:
        return 0
    modulus = p ** precision
    t = y
    for _ in range(precision - 1):
        t = pow(t, p, modulus)
    return t


@functools.cache
def teichmuller_table(p: int, precision: int) -> tuple[int, ...]:
    """teichmuller(p, y, precision) for y = 0..p-1."""
    return tuple(teichmuller(p, y, precision) for y in range(p))


# ---------------------------------------------------------------------------
# field embeddings (needed to read traces of a degree-m point over GF(p^(mj)))
# ---------------------------------------------------------------------------

def _min_poly(field: ExtField, a: int):
    """Minimal polynomial of a over GF(p), as GF(p) coefficients."""
    poly = [1]  # element-coefficient poly, little-endian
    for b in field.frobenius_orbit(a):
        # multiply by (X - b)
        nxt = [0] * (len(poly) + 1)
        for i, ci in enumerate(poly):
            nxt[i + 1] = field.add(nxt[i + 1], ci)
            nxt[i] = field.add(nxt[i], field.mul(field.neg(b), ci))
        poly = nxt
    out = []
    for ci in poly:
        if ci >= field.p:
            raise AssertionError("minimal polynomial left the prime field")  # pragma: no cover
        out.append(ci)
    return out


@functools.cache
def embed_generator_dlog(small: ExtField, big: ExtField) -> int:
    """dlog (in `big`) of the image of small.generator under a field embedding.

    Any embedding works: downstream sums are Frobenius-invariant.  The image
    must be a root of the generator's minimal polynomial, searched among
    elements of exact order q_small - 1.
    """
    if small.p != big.p or big.m % small.m != 0:
        raise FieldMismatch(
            f"no embedding GF({small.p}^{small.m}) -> GF({big.p}^{big.m})"
        )
    if small.m == big.m:
        result = big.dlog[small.generator] if small.q == big.q else None
        if result is None:  # pragma: no cover
            raise FieldMismatch("same-degree fields of different size")
    else:
        mp = _min_poly(small, small.generator)
        stride = (big.q - 1) // (small.q - 1)
        order = small.q - 1
        result = None
        for u in range(1, order + 1):
            if gcd(u, order) != 1:
                continue
            cand = (u * stride) % (big.q - 1)
            if big.eval_poly(mp, big.exp[cand]) == 0:
                result = cand
                break
        if result is None:  # pragma: no cover
            raise AssertionError("no embedding found")
    return result


def embed_element(small: ExtField, big: ExtField, x: int) -> int:
    """Image of x in the bigger field under the cached embedding."""
    if x == 0:
        return 0
    t = embed_generator_dlog(small, big)
    return big.exp[(small.dlog[x] * t) % (big.q - 1)]
