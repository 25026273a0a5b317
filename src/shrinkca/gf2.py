"""GF(2) polynomial arithmetic, GF(2^m) field arithmetic, and 90/150 rule vectors.

Polynomials live in plain ints, one bit per degree: bit k holds the
coefficient of x^k, so 0b100101 is 1 + x^2 + x^5.  The canonical text form
is the comma-separated exponent list ("0,2,5").  Everything here is exact,
desk-scale algebra: primitivity tests, minimal polynomials, Berlekamp-Massey,
GF(2^m) by baby-step giant-step (FieldTable) and a GF(2) linear system.
FieldTable is refused above degree MAX_FIELD_DEGREE = 24.  Above degree 12
it keeps B = 2^(ceil(m/2) + 1) baby steps, so its giant-step table and each
discrete log grow as 2^m / B: at degree 24 the table takes about 1.7 ms to
build and a log about 0.15 ms (2-vCPU VM, Python 3.11).  Powers run left to
right: a square is a byte-spread table lookup, and a multiplication by x is
one shift and one reduction step.
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


def _bit_bytes(bits: Sequence[int], message: str) -> bytes:
    """bits as one byte (0 or 1) each; ValueError(message) for any other value."""
    try:
        raw = bytes(bits)
    except (TypeError, ValueError) as exc:
        raise ValueError(message) from exc
    if raw.translate(None, b"\x00\x01"):
        raise ValueError(message)
    return raw


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


# Squaring over GF(2) spreads the bits, (sum a_i x^i)^2 = sum a_i x^(2i):
# _SPREAD[b] is byte b with its bit i moved to bit 2i (a 0 between digits).
_SPREAD = tuple(int("0".join(format(b, "b")), 2) for b in range(256))


def _square(a: int) -> int:
    """a * a over GF(2), one _SPREAD lookup per byte of a."""
    out = k = 0
    while a:
        out |= _SPREAD[a & 255] << k
        a >>= 8
        k += 16
    return out


def _powx(exp: int, mod: int) -> int:
    """x^exp modulo mod for exp >= 0, left to right: square, then multiply
    by x on a 1 bit, which is one shift and one reduction step."""
    result = _mod_mask(1, mod)
    top = 1 << mod.bit_length() - 1
    for bit in format(exp, "b"):
        result = _mod_mask(_square(result), mod)
        if bit == "1":
            result <<= 1
            if result & top:
                result ^= mod
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


@cache
def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1, ascending; cached, so each n is factored once."""
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
    return tuple(sorted(out))


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
            # not _square: an unreduced square keeps base's term count, and _mul_mask costs one
            # shift per term where _square reads every byte (3.6-3.9x slower at degree 64-1000)
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
        t = _mod_mask(_square(t), mod)
    if t != x:
        return False
    for q in _prime_factors(m):
        t = x
        for _ in range(m // q):
            t = _mod_mask(_square(t), mod)
        if _gcd_mask(t ^ x, mod) != 1:
            return False
    return True


@cache
def is_primitive(p: Gf2Poly) -> bool:
    """True when x has order 2^m - 1 modulo p, for m = deg p >= 1 and p(0) = 1.

    x^(2^m) = x (m squarings) gives x^(2^m - 1) = 1, x being a unit, and
    x^((2^m - 1) / q) != 1 for each prime q | 2^m - 1 leaves no lower order.
    That proves p irreducible: the 2^m - 1 powers of x are units, so every
    nonzero residue is.  Cached: a spec, its seeded copies, its field table
    and its minimal polynomials all ask about the same few polynomials.
    """
    m = p.degree
    if m is None or m < 1 or not p.mask & 1:
        return False
    mod = p.mask
    x = t = _mod_mask(0b10, mod)
    for _ in range(m):
        t = _mod_mask(_square(t), mod)
    if t != x:
        return False
    order = (1 << m) - 1
    return all(_powx(order // q, mod) != 1 for q in _prime_factors(order))


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
        _bit_bytes(self.bits, "rule bits must be 0 or 1")

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


def _baby_steps(m: int) -> int:
    """B, the baby steps FieldTable keeps at degree m.

    Up to degree 12 that is the whole group, 2^m - 1 elements.  Above it,
    B = 2^(ceil(m/2) + 1) balances the table against the logs: a build costs
    about B steps plus (2^m - 1) / B giant steps, a log at most (2^m - 1) / B
    steps, and an attack takes few logs (at most 17 on the ladder).
    """
    return (1 << m) - 1 if m <= 12 else 1 << (m + 1) // 2 + 1


def _times_table(c: int, mod: int, m: int) -> tuple[tuple[int, ...], ...]:
    """v -> v c modulo the degree-m modulus, tabulated per byte of v.

    That map is GF(2)-linear in v's bits, so the table of byte k is the XOR
    span of the columns c x^i, 8k <= i < 8k + 8: 256 entries.  There is one
    table per byte of MAX_FIELD_DEGREE = 24 bits, so v c is
    low[v & 255] ^ mid[v >> 8 & 255] ^ high[v >> 16]; a byte at or above
    m, always 0 in v, has the table (0,).
    """
    tables = []
    column = c
    for first in range(0, MAX_FIELD_DEGREE, 8):
        table = [0]
        for _ in range(first, min(first + 8, m)):
            table += [t ^ column for t in table]
            column <<= 1
            if column >> m & 1:
                column ^= mod
        tables.append(tuple(table))
    return tuple(tables)


@dataclass(frozen=True)
class FieldTable:
    """GF(2^m) over a primitive modulus, with no table of 2^m entries.

    baby holds alpha^i for i < B = _baby_steps(m), which is 2^m - 1 up to
    degree 12 and 2^(ceil(m/2) + 1) above it, and baby_log inverts it;
    giant holds alpha^(B j) for j < ceil((2^m - 1) / B), and back the
    multiplication by alpha^(-B), tabulated per byte of the operand
    (_times_table).  element(k) is one index, plus one multiplication when
    k mod 2^m - 1 >= B.  discrete_log is baby-step giant-step: at most
    len(giant) lookups in baby_log, with one multiplication by alpha^(-B)
    between them.  Up to degree 12 the baby table is the whole group, so
    both are single lookups.  At degree 24, B = 8192 and len(giant) = 2048.

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
        mod, order, steps = modulus.mask, (1 << m) - 1, _baby_steps(m)
        baby = _powers_of_x(mod, m, steps + 1)
        low, mid, high = _times_table(baby.pop(), mod, m)  # times alpha^B
        giant = [1]
        for _ in range(1, -(-order // steps)):
            v = giant[-1]
            giant.append(low[v & 255] ^ mid[v >> 8 & 255] ^ high[v >> 16])
        back = _times_table(_powx(order - steps, mod), mod, m)
        return cls(modulus, m, tuple(baby), dict(zip(baby, range(steps))), tuple(giant), back)

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
        get, (low, mid, high) = self.baby_log.get, self.back
        for j in range(len(self.giant)):
            i = get(v)
            if i is not None:
                return len(self.baby) * j + i
            v = low[v & 255] ^ mid[v >> 8 & 255] ^ high[v >> 16]
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
    root = _powx(e % ((1 << m) - 1), mod)
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
    Every bit must be 0 or 1.
    """
    c = b = 1
    length, m = 0, -1
    rev = 0
    for n, s in enumerate(_bit_bytes(bits, "bits must be 0 or 1")):
        rev = (rev << 1) | s
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
    right-hand side.  Kept in echelon form: each row is stored under its
    pivot, its highest coefficient bit, and add reduces the new equation
    alone, rewriting no stored row.  So a pivot variable depends only on
    the variables below it, and one ascending back-substitution gives each
    solution.  At rank n the unique solution is found once, and a
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

    @property
    def solution(self) -> int | None:
        """The unique solution once the rank is n, else None.

        add never changes a determined system, so it can be shared, not copied.
        """
        return self._solution

    def _reduce(self, aug: int) -> int:
        vec = aug & (1 << self.n) - 1
        while vec:  # a row touches no bit above its pivot
            piv = vec.bit_length() - 1
            aug ^= self.rows.get(piv, 0)
            vec = aug & (1 << piv) - 1
        return aug

    def add(self, vec: int, rhs: int) -> bool:
        """Add equation vec . s = rhs; False means it contradicts the system."""
        if self._solution is not None:
            return (vec & self._solution).bit_count() & 1 == rhs & 1
        aug = self._reduce(vec | (rhs & 1) << self.n)
        v = aug & ((1 << self.n) - 1)
        if v == 0:
            return aug == 0
        self.rows[v.bit_length() - 1] = aug
        if len(self.rows) == self.n:
            self._solution = next(self.solutions())
        return True

    def solutions(self) -> Iterator[int]:
        """All solutions as bit masks: free variables counted in binary order, pivots set ascending."""
        free = [i for i in range(self.n) if i not in self.rows]
        rows, rhs = sorted(self.rows.items()), 1 << self.n
        for combo in range(1 << len(free)):
            # s carries bit n, so row & s holds the row's right-hand side: its parity is the pivot
            s = rhs | sum(1 << var for j, var in enumerate(free) if combo >> j & 1)
            for piv, row in rows:
                s |= ((row & s).bit_count() & 1) << piv
            yield s ^ rhs
