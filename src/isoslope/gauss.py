"""Raw tuple sums at closed points from Jacobi sums (Gross-Koblitz).

The j-th power trace at a point x of degree m is the raw tuple sum of c
over GF(q), q = p^f, f = m j: the cyclic convolution of the rows u ->
chi_c(1 - u), chi_c = omega^(c s), omega the Teichmueller character of
GF(q)* and s = (q - 1)/(p - 1).  By its character transform,

    raw(x) = (1/(q-1)) sum_a omega(x)^(-a) prod_i J(omega^a, chi_(c_i)).

omega(x)^(-a) depends only on a mod M = p^m - 1, and J is constant on the
Frobenius orbits a -> p a of Z/(q - 1) (J lies in Z_p, and Frobenius maps
J(omega^a, chi_c) to J(omega^(p a), chi_c)).  So one product per orbit,
added to the class mod M of every member, serves every point of degree m.
omega(x) lies in W(GF(p^m))/p^N = (Z/p^N)[X]/(F), F the field's modulus
over the integers, with omega(g) = g^(p^(m (N-1))); the sum lies in Z_p,
so only constant coefficients are read.  No field of q elements is built.

Gross-Koblitz gives the Gauss sums inside J: for 0 <= b < q - 1 with
base-p digit sum s(b), g(omega^(-b)) = -pi^(s(b)) prod_(j<f)
Gamma_p(<p^j b/(q-1)>), with pi^(p-1) = -p and Morita's Gamma_p.  In
J = g(omega^(-b1)) g(omega^(-b2)) / g(omega^(-b3)), b1 = -a, b2 = -c s and
b3 = b1 + b2 (mod q - 1), the powers of pi combine to (-p)^k with k the
number of carries of b1 + b2, so J = -(-p)^k G(b1) G(b2)/G(b3).  Where
omega^a chi_c is trivial (b3 = 0), J = -chi_c(-1) = -(-1)^(c f); reading
b3 = 0 as the fraction 1 makes the same formula give it (residue_sums).
Gamma_p is 1-Lipschitz for odd p, so mod p^N it is its value at an integer
below p^N: read from a table of length p^N within the table limit, from
block products (GammaBlocks) past it.

References: Gross-Koblitz, Ann. of Math. 109 (1979); Morita (1975);
Beukers-Cohen-Mellit, "Finite hypergeometric functions" (2015).
"""

from __future__ import annotations

import functools
from array import array
from math import comb, prod

from .arith import ExtField, check_table_size, poly_mulmod, table_limit_from_env


@functools.cache
def gamma_table(p: int, precision: int) -> array:
    """Morita's Gamma_p(x) mod p^precision for x = 0 .. p^precision - 1:
    Gamma_p(0) = 1 and Gamma_p(x + 1) = -x Gamma_p(x), with the factor x
    left out when p divides it."""
    modulus = p ** precision
    out = array("q", bytes(8 * modulus))
    g = 1
    for x in range(modulus):
        out[x] = g
        g = (-x if x % p else -1) * g % modulus
    return out


class GammaBlocks:
    """Gamma_p(n) mod p^N, 0 <= n < p^N, from block products; gamma_table
    is its oracle.  Gamma_p(n) = (-1)^n prod_(0<i<n, p∤i) i.  With n =
    sum_l d_l B^l in base B = p^k and s_l = sum_(l'>l) d_l' B^l', [0, n)
    is d_l blocks of B^l integers from s_l at each level l, so the product
    is prod_l H_l[d_l](s_l), H_l[d](s) the product of the units in
    [s, s + d B^l).  B^(l+1) divides s_l, so H_l[d] is a polynomial in s:

        H_0[d](s) = prod_(0<=i<d, p∤i) (s + i),
        H_l[d](s) = prod_(j<d) H_(l-1)[B](s + j B^l)    (l >= 1),

    and mod p^N level l needs ceil(N / (k (l+1))) coefficients, as many as
    the shift by j B^l takes from H_(l-1)[B].
    """

    def __init__(self, p: int, precision: int, k: int):
        self.modulus = modulus = p ** precision
        self.base = base = p ** k
        self.levels = []  # (B^l, [H_l[d] for d < B])
        for level in range(-(-precision // k)):
            size, step = -(-precision // (k * (level + 1))), base ** level
            truncation = [0] * size + [1]  # products are taken mod s^size
            row = [[1] + [0] * (size - 1)]
            for j in range(base):
                if level == 0:
                    factor = ([j, 1] if j % p else [1]) + [0] * size
                else:  # H_(l-1)[B](s + j B^l)
                    factor = [sum(t * comb(i, r) * (j * step) ** (i - r)
                                  for i, t in enumerate(block[r:], r)) for r in range(size)]
                row.append(poly_mulmod(row[-1], factor[:size], truncation, modulus))
            block = row.pop()
            self.levels.append((step, row))

    def __getitem__(self, n: int) -> int:
        modulus, base = self.modulus, self.base
        out, s = -1 if n & 1 else 1, 0
        for step, row in reversed(self.levels):
            d = n // step % base
            value = 0
            for coeff in reversed(row[d]):
                value = (value * s + coeff) % modulus
            out = out * value % modulus
            s += d * step
        return out


@functools.cache
def _orbit_data(p: int, f: int, precision: int):
    """(reps, sizes, gauss, digits) for Z/(q - 1), q = p^f, mod p^precision.

    reps and sizes list one representative and the size of every Frobenius
    orbit b -> p b.  The tables are indexed by b = 0 .. q - 1, with b
    standing for the fraction b/(q - 1), so the top index q - 1 stands for
    1 where 0 stands for 0: gauss[b] is G(b) = prod_(j<f) Gamma_p(p^j b/(q-1)
    mod 1), one product per orbit (G(q - 1) = Gamma_p(1)^f = (-1)^f), and
    digits[b] is the base-p digit sum s(b) (s(q - 1) = f (p - 1)).
    """
    order = p ** f - 1
    modulus = p ** precision
    limit = table_limit_from_env()
    if modulus <= limit:
        gamma = gamma_table(p, precision)
    else:  # blocks of about 100 entries: few levels, and quick to build
        gamma = GammaBlocks(p, precision, next(
            k for k in range(1, precision) if p ** k >= 100 or p ** (k + 1) > limit))
    scale = pow(order, -1, modulus)  # b/(q-1) as a p-adic integer
    steps = [p ** j for j in range(f)]
    gauss = array("q", bytes(8 * (order + 1))) if modulus <= 1 << 63 else [0] * (order + 1)
    gauss[order] = (-1) ** f % modulus
    reps, sizes = [], []
    for a in range(order):
        if gauss[a]:  # a unit, so nonzero once its orbit is filled in
            continue
        orbit = [a * step % order for step in steps]
        g = prod([gamma[b * scale % modulus] for b in orbit]) % modulus
        for b in orbit:
            gauss[b] = g
        reps.append(a)
        sizes.append(f // orbit.count(a))
    digits = [0]
    for _ in range(f):
        digits = [r + d for r in range(p) for d in digits]
    return reps, sizes, gauss, digits


@functools.cache
def residue_sums(p: int, c: tuple[int, ...], m: int, f: int, precision: int):
    """B[t] = (q - 1)^(-1) sum over a = t mod M of prod_i J(omega^a,
    chi_(c_i)), M = p^m - 1, q = p^f, m | f, mod p^precision, keyed by u =
    -t: the nonzero B as (us, bs, vs, cs).  B is constant on the orbits
    u -> p u: us holds one u per orbit of size m, read against
    omega_constants' traces, and vs every member of the smaller orbits,
    read against its constants; bs and cs hold their B.

    Orbits of Z/(q - 1) are walked by b1 = -a.  With b2 = -c s in
    1 .. q - 2 and b3 = b1 + b2 in 1 .. q - 1, J = -(-p)^k G(b1) G(b2)/G(b3)
    for every a: at b3 = q - 1 the reflection formula Gamma_p(x)
    Gamma_p(1 - x) = (-1)^(x mod p) gives J = -(-1)^(c f) = -chi_c(-1),
    k = 0.  Carries are summed over all c_i first, and the units are
    multiplied only for orbits whose total k stays below the precision.
    """
    reps, sizes, gauss, digits = _orbit_data(p, f, precision)
    order, classes = p ** f - 1, p ** m - 1
    s = order // (p - 1)
    modulus = p ** precision
    n = len(c)
    # (p - 1) k summed over c, less the sum over c of s(b2)
    carries = [n * digits[b] for b in reps]
    b3_rows = []
    for ci in c:
        shift = ci * s + 1
        b3s = [(b - shift) % order + 1 for b in reps]
        carries = [k - digits[b3] for k, b3 in zip(carries, b3s)]
        b3_rows.append(b3s)
    offset = sum(digits[order - ci * s] for ci in c)
    unit = (-1) ** n * prod(gauss[order - ci * s] for ci in c) * pow(order, -1, modulus)
    bound = precision * (p - 1) - offset
    sums = [0] * classes
    for i, k in enumerate(carries):
        if k < bound:
            b1 = reps[i]
            denominator = prod([gauss[b3s[i]] for b3s in b3_rows]) % modulus
            v = gauss[b1] ** n * pow(denominator, -1, modulus) \
                * (-p) ** ((k + offset) // (p - 1))
            u = b1 % classes
            for _ in range(sizes[i]):
                sums[u] += v
                u = u * p % classes
    out = [], [], [], []
    for u, v in enumerate(sums):
        orbit = v % modulus and {u * p ** i % classes for i in range(m)}
        if orbit and u == min(orbit):
            side = 0 if len(orbit) == m else 2
            for w in [u] if side == 0 else sorted(orbit):
                out[side].append(w)
                out[side + 1].append(unit * v % modulus)
    return tuple(map(tuple, out))


@functools.cache
def omega_constants(field: ExtField, precision: int):
    """(C, T) mod p^N, N = precision, for e < M = p^m - 1: C[e] is the
    constant coefficient of omega(g)^e in (Z/p^N)[X]/(F), g the generator,
    with omega(g) = g^(p^(m (N-1))), and T[e] = sum_(i<m) C[e p^i] its
    trace to Z_p.  At m = 1, C[e] is the Teichmueller lift of g^e."""
    p, m, order, modulus = field.p, field.m, field.q - 1, field.p ** precision
    times = functools.partial(poly_mulmod, f=field.modulus, modulus=modulus)
    omega = [field.generator // p ** i % p for i in range(m)]
    for _ in range(m * (precision - 1)):
        omega = functools.reduce(times, [omega] * p)
    constants, v = [], [1] + [0] * (m - 1)
    for _ in range(order):
        constants.append(v[0])
        v = times(v, omega)
    traces = [sum(constants[e * p ** i % order] for i in range(m)) % modulus
              for e in range(order)]
    return tuple(array("q", t) if modulus <= 1 << 63 else t for t in (constants, traces))


def raw_trace(p: int, c: tuple[int, ...], field: ExtField, j: int,
              precision: int, x: int) -> int:
    """The raw tuple sum of c over GF(p^(m j)) at x in field* = GF(p^m)*,
    mod p^precision: sum_t B[t] omega(x)^(-t), as sum over u = -t of B[t]
    C[u dlog(x) mod M].  The orbit tables' p^(m j) entries are checked
    against the table limit on every call, also when they are cached."""
    m, classes = field.m, field.q - 1
    check_table_size(p, m * j, "the orbit tables of Z/(q - 1)")
    constants, traces = omega_constants(field, precision)
    us, bs, vs, cs = residue_sums(p, c, m, m * j, precision)
    d = field.dlog[x]
    # the hot loop of every trace: a list comprehension beats map chains here
    return (sum([b * traces[u * d % classes] for u, b in zip(us, bs)])
            + sum([b * constants[u * d % classes] for u, b in zip(vs, cs)])) % p ** precision
