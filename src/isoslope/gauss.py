"""Raw tuple sums at degree-1 points from Jacobi sums (Gross-Koblitz).

Over GF(q), q = p^f, the raw tuple sum of c at a target y is the cyclic
convolution of the rows u -> chi_c(1 - u), chi_c = omega^(c s), where omega
is the Teichmueller character of GF(q)* and s = (q - 1)/(p - 1).  Its
character transform at omega^a is the product of the Jacobi sums
J(omega^a, chi_(c_i)), so

    raw(y) = (1/(q-1)) sum_a omega(y)^(-a) prod_i J(omega^a, chi_(c_i)).

At y in GF(p)*, omega(y)^(-a) = tau(y)^(-a) depends only on a mod (p - 1),
and J is constant on the Frobenius orbits a -> p a of Z/(q - 1) (it lies in
Z_p, and Frobenius maps J(omega^a, chi) to J(omega^(p a), chi^p) with
chi_c^p = chi_c).  So one product per orbit, summed into p - 1 residue
classes, gives every degree-1 target at once.

Gross-Koblitz computes the Gauss sums inside J: for 0 <= b < q - 1 with
base-p digit sum s(b),

    g(omega^(-b)) = -pi^(s(b)) prod_(j<f) Gamma_p(<p^j b/(q-1)>),

with pi^(p-1) = -p and Morita's p-adic Gamma function.  In
J = g(omega^(-b1)) g(omega^(-b2)) / g(omega^(-b3)), b1 = -a, b2 = -c s and
b3 = b1 + b2 (mod q - 1), the powers of pi combine to (-p)^k with k the
number of carries of b1 + b2, so J = -(-p)^k G(b1) G(b2)/G(b3).  The
ratio fails only where omega^a chi_c is trivial (b3 = 0), where J =
-chi_c(-1) = -(-1)^(c f); reading b3 = 0 there as the fraction 1 rather
than 0 makes the same formula give that value (see residue_sums).
Gamma_p is 1-Lipschitz for odd p, so mod p^N it is one lookup in a table
of length p^N at b/(q-1) mod p^N; no field of p^f elements is built.

References: Gross-Koblitz, "Gauss sums and the p-adic Gamma-function",
Ann. of Math. 109 (1979); Beukers-Cohen-Mellit, "Finite hypergeometric
functions" (2015).
"""

from __future__ import annotations

import functools
from array import array
from math import prod

from .arith import teichmuller_table


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
    gamma = gamma_table(p, precision)
    scale = pow(order, -1, modulus)  # b/(q-1) as a p-adic integer
    steps = [p ** j for j in range(f)]
    gauss = array("q", bytes(8 * (order + 1)))
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
def residue_sums(p: int, c: tuple[int, ...], f: int, precision: int) -> tuple[int, ...]:
    """B[t] = sum over Frobenius orbits O of a with a = t mod (p - 1) of
    |O| prod_i J(omega^a, chi_(c_i)), mod p^precision, for t < p - 1.

    Orbits are walked by b1 = -a.  With b2 = -c s in 1 .. q - 2 and b3 =
    b1 + b2 taken in 1 .. q - 1, J = -(-p)^k G(b1) G(b2)/G(b3) holds for
    every a: at b3 = q - 1 (omega^a chi_c trivial) the reflection formula
    Gamma_p(x) Gamma_p(1 - x) = (-1)^(x mod p) gives G(b1) G(b2) =
    (-1)^(f (c + 1)), so J = -(-1)^(c f) = -chi_c(-1), with k = 0.  The
    carries are summed over all c_i first, and the units are multiplied
    only for orbits whose total k stays below the precision.
    """
    reps, sizes, gauss, digits = _orbit_data(p, f, precision)
    order = p ** f - 1
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
    unit = (-1) ** n * prod(gauss[order - ci * s] for ci in c)
    bound = precision * (p - 1) - offset
    sums = [0] * (p - 1)
    for i, k in enumerate(carries):
        if k < bound:
            b1 = reps[i]
            denominator = prod([gauss[b3s[i]] for b3s in b3_rows]) % modulus
            sums[-b1 % (p - 1)] += sizes[i] * gauss[b1] ** n * pow(denominator, -1, modulus) \
                * (-p) ** ((k + offset) // (p - 1))
    return tuple(unit * v % modulus for v in sums)


def raw_trace(p: int, c: tuple[int, ...], f: int, precision: int, x: int) -> int:
    """The raw tuple sum of c over GF(p^f) at x in GF(p)*, mod p^precision:
    (p^f - 1)^(-1) sum_t tau(x)^(-t) B[t]."""
    modulus = p ** precision
    tau = teichmuller_table(p, precision)
    x_inv = pow(x, -1, p)
    total, y = 0, 1
    for b in residue_sums(p, c, f, precision):
        total += tau[y] * b
        y = y * x_inv % p
    return total * pow(p ** f - 1, -1, modulus) % modulus
