"""GF(2) polynomial arithmetic, GF(2^m) field arithmetic, and 90/150 rule vectors.

Polynomials live in plain ints, one bit per degree: bit k holds the
coefficient of x^k, so 0b100101 is 1 + x^2 + x^5.  The canonical text form
is the comma-separated exponent list ("0,2,5").  Everything here is exact,
desk-scale algebra.  FieldTable keeps no table of 2^m entries; it
is refused above degree MAX_FIELD_DEGREE = 24, where the CLI attack's
full-period report becomes the wall.  The report holds 2^(l1-1) (2^m - 1)
bits at one byte each, written from the regenerated bytes; at l1 = 4,
m = 23 (67 Mbit) a whole `attack --output` run took about 0.4 s and
197 MiB peak RSS (Python 3.11, 2-vCPU VM), and both double per degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence

__all__ = [
    "MAX_FIELD_DEGREE",
    "NonPrimitiveModulus",
    "Gf2Poly",
    "RuleVector",
    "FieldTable",
    "Gf2LinearSystem",
    "is_irreducible",
    "is_primitive",
    "continuant_poly",
    "min_poly_of_power",
    "berlekamp_massey",
    "linear_complexity",
]

MAX_FIELD_DEGREE = 24


class NonPrimitiveModulus(ValueError):
    """A primitive polynomial was required but not supplied."""


def _mul_mask(a: int, b: int) -> int:
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def _divmod_mask(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def _mod_mask(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    shift = a.bit_length() - db
    while shift >= 0:
        a ^= b << shift
        shift = a.bit_length() - db
    return a


def _gcd_mask(a: int, b: int) -> int:
    while b:
        a, b = b, _mod_mask(a, b)
    return a


def _mul_mod(a: int, b: int, mod: int) -> int:
    return _mod_mask(_mul_mask(a, b), mod)


def _pow_mod(base: int, exp: int, mod: int) -> int:
    result = _mod_mask(1, mod)
    base = _mod_mask(base, mod)
    while exp:
        if exp & 1:
            result = _mul_mod(result, base, mod)
        base = _mul_mod(base, base, mod)
        exp >>= 1
    return result


def _inv_mod(a: int, mod: int) -> int:
    """Inverse of a modulo mod; requires gcd(a, mod) = 1."""
    r0, r1 = mod, _mod_mask(a, mod)
    s0, s1 = 0, 1
    while r1:
        q, r = _divmod_mask(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _mul_mask(q, s1)
    if r0 != 1:
        raise ZeroDivisionError("polynomial is not invertible modulo the given modulus")
    return _mod_mask(s0, mod)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 20 primes as bases.

    The first 13 of them already decide every n below 3.3e24 (about
    2^81); above that this is a strong probable-prime test.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while not odd & 1:
        odd >>= 1
        twos += 1
    for a in _SMALL_PRIMES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard-Brent rho)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no factor found for {n}")


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out = set()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out.add(m)
        else:
            f = _rho_factor(m)
            stack += [f, m // f]
    return sorted(out)


@dataclass(frozen=True, order=True)
class Gf2Poly:
    """Polynomial over GF(2) stored as a bit mask (bit k = coefficient of x^k)."""

    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("coefficient mask must be nonnegative")

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "Gf2Poly":
        mask = 0
        for e in exponents:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            mask |= 1 << e
        return cls(mask)

    @classmethod
    def parse(cls, text: str) -> "Gf2Poly":
        """Parse the exponent-list form: "0,2,5" means 1 + x^2 + x^5."""
        text = text.strip()
        if not text:
            return cls(0)
        return cls.from_exponents(int(part) for part in text.split(","))

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return self.mask.bit_length() - 1 if self.mask else None

    def exponents(self) -> tuple[int, ...]:
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def to_text(self) -> str:
        return ",".join(str(e) for e in self.exponents())

    def reciprocal(self) -> "Gf2Poly":
        """x^deg * p(1/x): the coefficient sequence reversed."""
        if not self.mask:
            return self
        width = self.mask.bit_length()
        rev = 0
        for k in range(width):
            if self.mask >> k & 1:
                rev |= 1 << (width - 1 - k)
        return Gf2Poly(rev)

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(self.mask ^ other.mask)

    __sub__ = __add__

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(_mul_mask(self.mask, other.mask))

    def __divmod__(self, other: "Gf2Poly") -> tuple["Gf2Poly", "Gf2Poly"]:
        q, r = _divmod_mask(self.mask, other.mask)
        return Gf2Poly(q), Gf2Poly(r)

    def __mod__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(_mod_mask(self.mask, other.mask))

    def __pow__(self, n: int) -> "Gf2Poly":
        if n < 0:
            raise ValueError("negative power")
        result = 1
        base = self.mask
        while n:
            if n & 1:
                result = _mul_mask(result, base)
            base = _mul_mask(base, base)
            n >>= 1
        return Gf2Poly(result)

    def __bool__(self) -> bool:
        return bool(self.mask)

    def __str__(self) -> str:
        return self.to_text()


def is_irreducible(p: Gf2Poly) -> bool:
    """Rabin irreducibility test over GF(2)."""
    m = p.degree
    if m is None or m < 1:
        return False
    if m == 1:
        return True
    mod = p.mask
    x = _mod_mask(0b10, mod)
    t = x
    for _ in range(m):
        t = _mul_mod(t, t, mod)
    if t != x:
        return False
    for q in _prime_factors(m):
        t = x
        for _ in range(m // q):
            t = _mul_mod(t, t, mod)
        if _gcd_mask(t ^ x, mod) != 1:
            return False
    return True


@cache
def is_primitive(p: Gf2Poly) -> bool:
    """True when p is irreducible and x generates the full multiplicative group mod p.

    Cached: a spec, its seeded copies, its field table and its minimal
    polynomials all ask about the same few polynomials.
    """
    m = p.degree
    if m is None or m < 1:
        return False
    if not p.mask & 1:
        return False
    if not is_irreducible(p):
        return False
    order = (1 << m) - 1
    for q in _prime_factors(order):
        if _pow_mod(0b10, order // q, p.mask) == 1:
            return False
    return True


def continuant_poly(rules: Sequence[int]) -> Gf2Poly:
    """Characteristic polynomial of a null-boundary 90/150 automaton.

    Built by the sub-automaton recurrence P_i = (x + R_i) P_(i-1) + P_(i-2)
    with P_(-1) = 0, P_0 = 1.  An empty rule slice yields 1.
    """
    prev2, prev = 0, 1
    for r in rules:
        prev2, prev = prev, (prev << 1) ^ (prev if r else 0) ^ prev2
    return Gf2Poly(prev)


_HEX = "0123456789ABCDEF"


@dataclass(frozen=True)
class RuleVector:
    """Per-cell rule assignment for a hybrid 90/150 automaton (0 = rule 90, 1 = rule 150).

    bits[k] rules cell k+1; the text form reads cells left to right.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) < 1:
            raise ValueError("rule vector needs at least one cell")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("rule bits must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "RuleVector":
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a binary rule string: {text!r}")
        return cls(tuple(int(ch) for ch in text))

    @classmethod
    def from_hex(cls, text: str, length: int) -> "RuleVector":
        """Unpack the MSB-first hex alias; trailing pad bits must be zero."""
        if length < 1 or length > 4 * len(text):
            raise ValueError("length does not fit the hex string")
        if 4 * len(text) - length >= 4:
            raise ValueError("hex string has surplus digits for that length")
        allbits = []
        for ch in text:
            nib = int(ch, 16)
            allbits.extend((nib >> 3 & 1, nib >> 2 & 1, nib >> 1 & 1, nib & 1))
        if any(allbits[length:]):
            raise ValueError("nonzero padding bits")
        return cls(tuple(allbits[:length]))

    def to_hex(self) -> str:
        padded = self.bits + (0,) * (-len(self.bits) % 4)
        return "".join(
            _HEX[padded[i] * 8 + padded[i + 1] * 4 + padded[i + 2] * 2 + padded[i + 3]]
            for i in range(0, len(padded), 4)
        )

    def mirrored(self) -> "RuleVector":
        return RuleVector(self.bits[::-1])

    def char_poly(self) -> Gf2Poly:
        return continuant_poly(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _powers_of_x(mod: int, m: int, count: int) -> list[int]:
    """alpha^0 .. alpha^(count-1) as masks, alpha = x modulo the degree-m modulus."""
    out = [0] * count
    v = 1
    for k in range(count):
        out[k] = v
        v <<= 1
        if v >> m & 1:
            v ^= mod
    return out


# Baby steps kept by FieldTable: the whole group up to degree 12, and at
# least the square root of its order up to MAX_FIELD_DEGREE.
_BABY_STEPS = 1 << 12


@dataclass(frozen=True)
class FieldTable:
    """GF(2^m) over a primitive modulus, with no table of 2^m entries.

    baby holds alpha^i for i < B = min(2^m - 1, 4096) and baby_log inverts
    it; giant holds alpha^(B j) for j < ceil((2^m - 1) / B), and back the
    multiplication by alpha^(-B), one table of 256 entries per byte of the
    operand.  element(k) is one index, plus one multiplication when
    k mod 2^m - 1 >= B.  discrete_log is baby-step giant-step: at most
    len(giant) lookups in baby_log, with one multiplication by alpha^(-B)
    between them.  Up to degree 12 the baby table is the whole group, so
    both are single lookups.

    The full tables are built on first read only, as the tests' oracle:
    antilog[k] is alpha^k for k in [0, 2^m - 2], log inverts it (log[0] is
    None), and zech[k] is log(1 + alpha^k), None exactly at k = 0.
    """

    modulus: Gf2Poly
    m: int
    baby: tuple[int, ...] = field(repr=False, compare=False)
    baby_log: dict[int, int] = field(repr=False, compare=False)
    giant: tuple[int, ...] = field(repr=False, compare=False)
    back: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @classmethod
    def build(cls, modulus: Gf2Poly) -> "FieldTable":
        m = modulus.degree
        if m is None or m < 1:
            raise ValueError("field modulus must have degree >= 1")
        if m > MAX_FIELD_DEGREE:
            raise ValueError(f"field degree {m} is above the supported {MAX_FIELD_DEGREE}")
        if not is_primitive(modulus):
            raise NonPrimitiveModulus(f"{modulus.to_text()} is not primitive")
        mod, order = modulus.mask, (1 << m) - 1
        baby = _powers_of_x(mod, m, min(order, _BABY_STEPS))
        stride = _pow_mod(0b10, len(baby), mod)
        giant = [1]
        for _ in range(1, -(-order // len(baby))):
            giant.append(_mul_mod(giant[-1], stride, mod))
        baby_log = dict(zip(baby, range(len(baby))))
        # v -> v alpha^(-B) is GF(2)-linear in v's bits: tabulate it per byte
        inverse = _pow_mod(0b10, order - len(baby), mod)
        back = []
        for low in range(0, m, 8):
            table = [0]
            for i in range(low, min(low + 8, m)):
                column = _mul_mod(inverse, 1 << i, mod)
                table += [t ^ column for t in table]
            back.append(tuple(table))
        return cls(modulus, m, tuple(baby), baby_log, tuple(giant), tuple(back))

    @property
    def order(self) -> int:
        """Multiplicative group order 2^m - 1."""
        return (1 << self.m) - 1

    def element(self, k: int) -> int:
        """alpha^k as a mask, for any integer k."""
        baby = self.baby
        if 0 <= k < len(baby):
            return baby[k]
        hi, lo = divmod(k % self.order, len(baby))
        return _mul_mod(baby[lo], self.giant[hi], self.modulus.mask)

    def discrete_log(self, v: int) -> int | None:
        """k in [0, 2^m - 2] with alpha^k = v; None for the zero element."""
        if v < 0 or v >> self.m:
            raise ValueError(f"{v} is not an element of GF(2^{self.m})")
        if not v:
            return None
        # log v = B j + i with i < B and j < len(giant): the first j at which
        # v alpha^(-B j) is a baby step alpha^i gives exactly that split
        for j in range(len(self.giant)):
            i = self.baby_log.get(v)
            if i is not None:
                return len(self.baby) * j + i
            acc = 0
            for k, table in enumerate(self.back):
                acc ^= table[v >> 8 * k & 255]
            v = acc
        raise ArithmeticError(f"no discrete log modulo {self.modulus.to_text()}")

    def power_sum(self, exponents: Iterable[int]) -> int | None:
        """Discrete log of sum(alpha^e); None when the sum is the zero element."""
        acc = 0
        for e in exponents:
            acc ^= self.element(e)
        return self.discrete_log(acc)

    @cached_property
    def antilog(self) -> tuple[int, ...]:
        return tuple(_powers_of_x(self.modulus.mask, self.m, self.order))

    @cached_property
    def log(self) -> tuple[int | None, ...]:
        log: list[int | None] = [None] * (1 << self.m)
        for k, v in enumerate(self.antilog):
            log[v] = k
        return tuple(log)

    @cached_property
    def zech(self) -> tuple[int | None, ...]:
        return tuple(self.log[a ^ 1] for a in self.antilog)


def min_poly_of_power(modulus: Gf2Poly, e: int) -> Gf2Poly:
    """Minimal polynomial over GF(2) of lambda^e, lambda a root of the primitive modulus.

    Berlekamp-Massey on a_j = the constant coefficient of lambda^(e j), j < 2m.
    That linear functional sends 1 to 1, so (a_j) is a nonzero trace sequence
    of lambda^e over GF(2)(lambda^e) and has lambda^e's minimal polynomial.
    Its degree is the size of the cyclotomic coset of e mod 2^m - 1.
    """
    m = modulus.degree
    if m is None or m < 1:
        raise ValueError("field modulus must have degree >= 1")
    if not is_primitive(modulus):
        raise NonPrimitiveModulus(f"{modulus.to_text()} is not primitive")
    mod = modulus.mask
    root = _pow_mod(0b10, e % ((1 << m) - 1), mod)
    power, terms = 1, []
    for _ in range(2 * m):
        terms.append(power & 1)
        power = _mul_mod(power, root, mod)
    return berlekamp_massey(terms)


def berlekamp_massey(bits: Sequence[int]) -> Gf2Poly:
    """Characteristic polynomial of the shortest LFSR generating the bits.

    The result is in ascending feedback form: with coefficients c_k and
    degree L (the linear complexity), sum_k c_k s_(n+k) = 0 for every
    window of the sequence.  An all-zero (or empty) sequence gives 1.
    """
    c = b = 1
    length, m = 0, -1
    rev = 0
    for n, s in enumerate(bits):
        rev = (rev << 1) | (s & 1)
        if (c & rev).bit_count() & 1:
            t = c
            c ^= b << (n - m)
            if 2 * length <= n:
                length, b, m = n + 1 - length, t, n
    mask = 0
    while c:
        low = c & -c
        mask |= 1 << (length - (low.bit_length() - 1))
        c ^= low
    return Gf2Poly(mask)


def linear_complexity(bits: Sequence[int]) -> int:
    deg = berlekamp_massey(bits).degree
    assert deg is not None
    return deg


class Gf2LinearSystem:
    """Incrementally reduced linear system over GF(2) in n boolean unknowns.

    Rows are augmented masks: bits 0..n-1 are coefficients, bit n the
    right-hand side.  Kept fully reduced so membership and consistency
    queries are single sweeps.  At rank n every row is e_p plus its
    right-hand side, so the unique solution is read off once and a
    determined system answers each further equation by evaluating it.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, int] = {}
        self._solution: int | None = None

    def copy(self) -> "Gf2LinearSystem":
        dup = Gf2LinearSystem(self.n)
        dup.rows = dict(self.rows)
        dup._solution = self._solution
        return dup

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, aug: int) -> int:
        coeff_mask = (1 << self.n) - 1
        vec = aug & coeff_mask
        while vec:
            piv = vec.bit_length() - 1
            row = self.rows.get(piv)
            if row is None:
                vec &= (1 << piv) - 1
                continue
            aug ^= row
            vec = aug & coeff_mask
        return aug

    def add(self, vec: int, rhs: int) -> bool:
        """Add equation vec . s = rhs; False means it contradicts the system."""
        if self._solution is not None:
            return (vec & self._solution).bit_count() & 1 == rhs & 1
        aug = self._reduce(vec | (rhs & 1) << self.n)
        v = aug & ((1 << self.n) - 1)
        if v == 0:
            return aug == 0
        piv = v.bit_length() - 1
        for p, row in self.rows.items():
            if row >> piv & 1:
                self.rows[p] = row ^ aug
        self.rows[piv] = aug
        if len(self.rows) == self.n:
            self._solution = sum((row >> self.n & 1) << p for p, row in self.rows.items())
        return True

    def solutions(self) -> Iterator[int]:
        """All solutions as bit masks, free variables counted in binary order."""
        free = [i for i in range(self.n) if i not in self.rows]
        for combo in range(1 << len(free)):
            s = 0
            for j, var in enumerate(free):
                if combo >> j & 1:
                    s |= 1 << var
            for piv, row in self.rows.items():
                if ((row & s).bit_count() & 1) ^ (row >> self.n & 1):
                    s |= 1 << piv
            yield s
