"""Exact arithmetic: finite fields GF(p^m) and truncated p-adic integers.

Conventions
-----------
* An element of GF(p^m) is encoded as an integer in [0, p^m): its base-p
  digits are the coefficients of the residue polynomial, least significant
  digit = constant term.  For m = 1 the encoding is the residue itself.
* The modulus is the first monic irreducible polynomial of degree m in the
  encoding order above; the generator is the first encoded element of full
  multiplicative order p^m - 1.  Both choices are deterministic; nothing
  downstream depends on them.  A monic f of degree m is irreducible
  exactly when it has one distinct irreducible factor of degree m, so the
  modulus is the first candidate whose distinct-degree count
  (irreducible_factor_count) is 1.
* Polynomials are little-endian coefficient lists, and one set of routines
  (_fpoly_*) does their arithmetic over any field built here: over GF(p)
  for factor counts and the modulus, over GF(p^m) for roots.
* Discrete-log and exponential tables are built at construction and held
  as array('q') (8 bytes an entry), so field size is capped (default 2^21
  elements, ISOSLOPE_TABLE_LIMIT overrides).  While m(p - 1) <= 255 the
  powers of the generator are built in bulk on digit columns, one bytes
  object per base-p digit (_bulk_powers); larger fields multiply by
  _mul_raw, a schoolbook product of digit lists reduced by the modulus,
  which reads no table and stays as the oracle for both builds.
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
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction

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
    if n < 41 * 41:  # no prime factor up to 37, so none up to sqrt(n)
        return True
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
# polynomial helpers, little-endian coefficient lists
# ---------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_monic(a, p):
    """a with its coefficients reduced mod p and divided by its leading one."""
    a = _poly_trim([ci % p for ci in a])
    if not a:
        raise MalformedInput("the zero polynomial has no leading coefficient")
    inv = pow(a[-1], -1, p)
    return [ci * inv % p for ci in a]


def poly_mulmod(a, b, f, modulus: int) -> list[int]:
    """a b mod the monic f of degree m, a and b of m coefficients mod
    `modulus`: a schoolbook product reduced by X^m = -(f - X^m)."""
    m = len(f) - 1
    out = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for top in range(2 * m - 2, m - 1, -1):
        lead = out[top] % modulus
        if lead:
            for i in range(m):
                out[top - m + i] -= lead * f[i]
    return [c % modulus for c in out[:m]]


# ---------------------------------------------------------------------------
# the extension field
# ---------------------------------------------------------------------------

def check_table_size(p: int, m: int, table: str = "the field tables") -> int:
    """p^m, after checking p, m and p^m against the table limit."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise MalformedInput(f"extension degree must be >= 1, got {m}")
    limit = table_limit_from_env()
    q = p ** m
    if q > limit:
        raise DegreeTooLarge(
            f"GF({p}^{m}) has {q} elements, over the table limit {limit}", table
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
        q = check_table_size(p, m)
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
            f = self._digits_of(k) + [1]
            if irreducible_factor_count(f, p, m) == 1:  # f is its only factor
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
        return self._encode(
            poly_mulmod(self._digits_of(a), self._digits_of(b), self.modulus, self.p))

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
        if self.m * (self.p - 1) <= 255:
            self.exp = self._bulk_powers()
        else:
            self.exp = array("q", self._raw_powers())
        if self._mul_raw(self.exp[-1], self.generator) != 1:
            raise AssertionError("generator order check failed")  # pragma: no cover
        self.dlog = dlog = array("q", [-1]) * self.q
        for e, x in enumerate(self.exp):
            dlog[x] = e

    def _raw_powers(self):
        """g^0 .. g^(q-2) by repeated _mul_raw."""
        return itertools.accumulate(itertools.repeat(self.generator, self.q - 2),
                                    self._mul_raw, initial=1)

    def _bulk_powers(self) -> array:
        """g^0 .. g^(q-2) as array('q') in C-level loops, for m(p - 1) <= 255.

        The block g^0 .. g^(L-1), held as m digit columns D_k, is doubled:
        times h = g^L, new column i is sum_k M_ik D_k mod p, column k of M
        holding the digits of h X^k.  bytes.translate multiplies a column by
        a constant mod p, big-int addition adds the byte slots (each at most
        m(p - 1), so nothing carries), and one more translate reduces them.
        The encodings sum_j D_j p^j are summed the same way on 4-byte slots
        (q < 2^32 for any table that fits in memory).
        """
        p, m, n = self.p, self.m, self.q - 1
        # c -> the translate table of v -> c v mod p; times[1] reduces mod p
        times = {1: bytes(v % p for v in range(256))}

        def scaled(col: bytes, c: int) -> int:
            if c not in times:
                times[c] = bytes(c * v % p for v in range(256))
            return int.from_bytes(col.translate(times[c]), "little")

        cols, h = [b"\x01"] + [b"\x00"] * (m - 1), self.generator  # g^0 and g^L
        while len(cols[0]) < n:
            matrix = [self._digits_of(self._mul_raw(h, p ** k)) for k in range(m)]
            block = [col[:n - len(col)] for col in cols]
            cols = [col + sum(scaled(block[k], matrix[k][i]) for k in range(m)
                              if matrix[k][i])
                    .to_bytes(len(block[0]), "little").translate(times[1])
                    for i, col in enumerate(cols)]
            h = self._mul_raw(h, h)
        encoded = 0
        for col in reversed(cols):
            slots = bytearray(4 * n)
            slots[::4] = col
            encoded = encoded * p + int.from_bytes(slots, "little")
        out = bytearray(8 * n)  # little-endian 8-byte entries
        memoryview(out).cast("I")[::2] = memoryview(encoded.to_bytes(4 * n, "little")).cast("I")
        exp = array("q")
        exp.frombytes(out)
        if sys.byteorder == "big":  # pragma: no cover
            exp.byteswap()
        return exp

    # -- arithmetic -------------------------------------------------------

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b, digit by digit mod p."""
        p = self.p
        if self.m == 1:
            return (a + sign * b) % p
        out = 0
        shift = 1
        while a or b:
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += ((ra + sign * rb) % p) * shift
            shift *= p
        return out

    def add(self, a: int, b: int) -> int:
        return self._digitwise(a, b, 1)

    def neg(self, a: int) -> int:
        return self._digitwise(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        return self._digitwise(a, b, -1)

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
    dlog/exp tables; the tests' oracle (tests/reference.py) keeps an
    independent copy."""
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
    check_table_size(p, m)
    return _shared_field(p, m)


# ---------------------------------------------------------------------------
# polynomials over a field: factor counts over GF(p), roots in GF(p^m)
# ---------------------------------------------------------------------------

def _fpoly_divmod(a, f, field: ExtField):
    """Quotient and remainder of a by a monic f, over the field."""
    rem, df = list(a), len(f) - 1
    quot = [0] * max(len(a) - df, 0)
    for shift in range(len(a) - 1 - df, -1, -1):
        lead = rem.pop()
        if lead:
            quot[shift] = lead
            for i in range(df):
                rem[shift + i] = field.sub(rem[shift + i], field.mul(lead, f[i]))
    return quot, _poly_trim(rem)


def _fpoly_mulmod(a, b, f, field: ExtField):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return _fpoly_divmod(out, f, field)[1]


def _fpoly_powmod(base, e, f, field: ExtField):
    """base^e mod a monic f over the field; [] when that is zero."""
    acc, cur = [1], _fpoly_divmod(base, f, field)[1]
    while e:
        if e & 1:
            acc = _fpoly_mulmod(acc, cur, f, field)
        cur = _fpoly_mulmod(cur, cur, f, field)
        e >>= 1
    return acc


def _fpoly_gcd(a, b, field: ExtField):
    """Monic gcd over the field, for b nonzero or a monic."""
    while b:
        inv = field.inv(b[-1])
        b = [field.mul(ci, inv) for ci in b]
        a, b = b, _fpoly_divmod(a, b, field)[1]
    return a


def _x_power_gcd(f, w, p):
    """gcd(f, w - X) over GF(p), monic, for f monic and w = X^(p^i) mod f."""
    prime = _shared_field(p, 1)
    w = w + [0, 0]  # room for the X term
    w[1] = prime.sub(w[1], 1)
    return _fpoly_gcd(f, _poly_trim(w), prime)


def irreducible_factor_count(coeffs, p: int, d: int) -> int:
    """Number of distinct monic irreducible factors of degree d over GF(p)
    of a nonzero polynomial (coefficients low first), by distinct-degree
    factorization: gcd(f, X^(p^i) - X) is the product of the distinct
    irreducible factors of f whose degree divides i, so its degree is
    sum over e | i of e N_e, X^(p^i) being the p-th power of X^(p^(i-1)).
    Repeated factors count once."""
    if d < 1:
        raise MalformedInput(f"factor degree must be >= 1, got {d}")
    f = _poly_monic(coeffs, p)
    if len(f) <= 2:  # 1, or X - r with r in GF(p)
        return int(d == 1 and len(f) == 2)
    counts: dict[int, int] = {}
    w = [0, 1]
    for i in range(1, d + 1):
        w = _fpoly_powmod(w, p, f, _shared_field(p, 1))
        if d % i == 0:
            deg = len(_x_power_gcd(f, w, p)) - 1
            counts[i] = (deg - sum(e * n for e, n in counts.items() if i % e == 0)) // i
    return counts[d]


def _split_roots(h, field: ExtField, out: set):
    """Add to out the roots of h, monic with distinct roots all in the field.

    Cantor-Zassenhaus: r + d is a nonzero square exactly at the roots r of
    gcd(h, (X + d)^((q-1)/2) - 1), which for two distinct roots holds at one
    and fails at the other for about half of all d.  d is taken in the
    field's encoding order, so the split is deterministic."""
    if len(h) == 2:
        out.add(field.neg(h[0]))
        return
    half = (field.q - 1) // 2
    for d in range(field.q):
        w = _fpoly_powmod([d, 1], half, h, field) or [0]
        g = _fpoly_gcd(h, _poly_trim([field.sub(w[0], 1), *w[1:]]), field)
        if 1 < len(g) < len(h):
            _split_roots(g, field, out)
            _split_roots(_fpoly_divmod(h, g, field)[0], field, out)
            return
    raise AssertionError("no element splits the polynomial")  # pragma: no cover


def roots_in_field(field: ExtField, coeffs) -> frozenset[int]:
    """Every root in GF(p^m) of a nonzero polynomial with GF(p) coefficients
    (low first), p odd.

    The roots are those of h = gcd(u, X^(p^m) - X), u made monic; h is
    computed over GF(p), has distinct roots, all in GF(p^m), and is split
    into linear factors over GF(p^m) (_split_roots).  A GF(p) coefficient
    is its own encoding in GF(p^m)."""
    if field.p == 2:
        raise MalformedInput("root splitting needs an odd characteristic")
    out: set[int] = set()
    u, prime = _poly_monic(coeffs, field.p), _shared_field(field.p, 1)
    h = u if len(u) <= 2 else _x_power_gcd(u, _fpoly_powmod([0, 1], field.q, u, prime), field.p)
    if len(h) > 1:
        _split_roots(h, field, out)
    return frozenset(out)


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
# field embeddings (where GF(p^m) sits in GF(p^(m j)))
# ---------------------------------------------------------------------------

def embed_element(small: ExtField, big: ExtField, x: int) -> int:
    """Image of x in the bigger field: X goes to the first root r of
    small's modulus among the powers of g^((Q-1)/(q_small-1)), and x, a
    polynomial in X, to its value at r.  Only the tests call it; it stays
    because the benchmark's tracer (perfbench/tracer.py) wraps it by name."""
    if small.p != big.p or big.m % small.m != 0:
        raise FieldMismatch(
            f"no embedding GF({small.p}^{small.m}) -> GF({big.p}^{big.m})"
        )
    if small.m in (1, big.m):
        return x
    stride = (big.q - 1) // (small.q - 1)
    for u in range(small.q - 1):
        r = big.exp[u * stride]
        if big.eval_poly(small.modulus, r) == 0:
            return big.eval_poly(small._digits_of(x), r)
    raise AssertionError("no embedding found")  # pragma: no cover
