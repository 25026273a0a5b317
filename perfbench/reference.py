"""Independent reference for LFSR, shrinking and clock-controlled shrinking output.

Shares no code with shrinkca, so the benchmark's inputs stay the same when
the library changes and its outputs are checked against code the library
cannot break.

Conventions follow the spec files the CLI reads. A polynomial is an int
mask (bit k = coefficient of x^k). A register with characteristic
polynomial c of degree L outputs s_0, s_1, ... with
s_(n+L) = sum_(k<L) c_k s_(n+k); its seed string is s_0 .. s_(L-1).
The clock-controlled generator reads SR2's current bit at step t, then
advances SR2 by X_t = 1 + sum_k 2^k a_(t+taps[k]); the kept bits are
those at steps where SR1 outputs a_t = 1. Empty taps give plain shrinking.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass


def _clmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _polymod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def _powx(e: int, m: int) -> int:
    """x^e mod m."""
    result, base = _polymod(1, m), _polymod(2, m)
    while e:
        if e & 1:
            result = _polymod(_clmul(result, base), m)
        base = _polymod(_clmul(base, base), m)
        e >>= 1
    return result


@functools.cache
def _prime_factors(n: int) -> tuple[int, ...]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def is_primitive(poly: int) -> bool:
    """True when x has multiplicative order 2^n - 1 modulo poly (degree n).

    That order is reached only when poly is irreducible, so no separate
    irreducibility test is needed.
    """
    n = poly.bit_length() - 1
    if n < 1 or not poly & 1:
        return False
    order = (1 << n) - 1
    if _powx(order, poly) != 1:
        return False
    return all(_powx(order // q, poly) != 1 for q in _prime_factors(order))


def random_primitive(rng: random.Random, n: int) -> int:
    while True:
        poly = (1 << n) | rng.getrandbits(n) | 1
        if is_primitive(poly):
            return poly


def poly_text(poly: int) -> str:
    """Exponent-list form used by spec files, e.g. '0,3,4'."""
    return ",".join(str(k) for k in range(poly.bit_length()) if poly >> k & 1)


def coset_exponent(l1: int, w: int) -> int:
    """Decimation distance between interleaved keystream samples (w clock taps)."""
    return (1 << l1) - 1 if w == 0 else ((1 + (1 << w)) << (l1 - 1)) - 1


def in_regime(l1: int, l2: int, w: int) -> bool:
    """True when the attack's linear model applies.

    lambda^D (D the coset exponent, lambda a root of c2) then has full
    order 2^l2 - 1. Otherwise the coset is degenerate, the coset base is
    not primitive, or D is not invertible modulo 2^l2 - 1: all three fail
    together, whatever the polynomials.
    """
    return math.gcd(coset_exponent(l1, w), (1 << l2) - 1) == 1


def public_spec(l1: int, l2: int, c1: int, c2: int, taps: tuple[int, ...]) -> dict:
    """Spec-file form of the public parameters."""
    return {"l1": l1, "l2": l2, "c1": poly_text(c1), "c2": poly_text(c2), "taps": list(taps)}


@dataclass(frozen=True)
class Generator:
    """A seeded generator in reference form."""

    l1: int
    l2: int
    c1: int
    c2: int
    is1: tuple[int, ...]
    is2: tuple[int, ...]
    taps: tuple[int, ...] = ()

    @property
    def period(self) -> int:
        return ((1 << self.l2) - 1) << (self.l1 - 1)

    def public_json(self) -> dict:
        return public_spec(self.l1, self.l2, self.c1, self.c2, self.taps)

    def secret_json(self) -> dict:
        out = self.public_json()
        out["is1"] = "".join(map(str, self.is1))
        out["is2"] = "".join(map(str, self.is2))
        return out


def _state(seed: tuple[int, ...]) -> int:
    return sum(bit << k for k, bit in enumerate(seed))


def keystream(gen: Generator, n: int, origin: int = 0) -> str:
    """Keystream bits origin .. origin+n-1 as a '0'/'1' string, bit by bit."""
    l1, l2 = gen.l1, gen.l2
    fb1, top1 = gen.c1 ^ (1 << l1), l1 - 1
    fb2, top2 = gen.c2 ^ (1 << l2), l2 - 1
    s1, s2 = _state(gen.is1), _state(gen.is2)
    taps = tuple(enumerate(gen.taps))
    out = bytearray()
    total = origin + n
    while len(out) < total:
        if s1 & 1:
            out.append(48 + (s2 & 1))
        x = 1
        for k, tap in taps:
            x += (s1 >> tap & 1) << k
        for _ in range(x):
            s2 = (s2 >> 1) | (((s2 & fb2).bit_count() & 1) << top2)
        s1 = (s1 >> 1) | (((s1 & fb1).bit_count() & 1) << top1)
    return out[origin:].decode()


def keystream_at(gen: Generator, positions: list[int]) -> list[int]:
    """Keystream bits at arbitrary positions, without running up to them.

    Uses the interleave structure: position q*d + c is kept at SR1 step
    q*N1 + p_c (p_c the c-th 1 in SR1's period), where SR2 has advanced
    q*S + T(p_c) steps (S the advance per SR1 period, T the prefix sums
    of X_t). SR2's bit at step T is sum_i r_i s_i for x^T = sum_i r_i x^i
    mod c2.
    """
    l1 = gen.l1
    n1, n2 = (1 << l1) - 1, (1 << gen.l2) - 1
    fb1, top1 = gen.c1 ^ (1 << l1), l1 - 1
    s1 = _state(gen.is1)
    a = []
    for _ in range(n1 + l1):
        a.append(s1 & 1)
        s1 = (s1 >> 1) | (((s1 & fb1).bit_count() & 1) << top1)
    advance = [0]
    for t in range(n1):
        x = 1 + sum(a[t + tap] << k for k, tap in enumerate(gen.taps))
        advance.append(advance[-1] + x)
    ones = [t for t in range(n1) if a[t]]
    d = len(ones)
    seed2 = _state(gen.is2)
    out = []
    for p in positions:
        q, c = divmod(p, d)
        step = (q * advance[n1] + advance[ones[c]]) % n2
        out.append((_powx(step, gen.c2) & seed2).bit_count() & 1)
    return out
