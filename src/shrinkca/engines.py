"""Bit sequences, LFSR stepping, and hybrid 90/150 cellular automata.

Register and automaton states are held as ints (bit k = stage A_k, or cell
k+1).  An LFSR with characteristic polynomial sum c_k x^k (monic, degree L)
realizes s_(n+L) = sum_(k<L) c_k s_(n+k); stage A_0 is the output.
Each cell of an automaton outputs an LFSR sequence of its characteristic
polynomial, and every register read, at any origin, goes through `_lfsr_digits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .gf2 import Gf2LinearSystem, Gf2Poly, NonPrimitiveModulus, RuleVector, _bit_bytes, _mul_mod, _powx, is_primitive

__all__ = [
    "ZeroSeed",
    "BitSeq",
    "LfsrState",
    "lfsr_generate",
    "lfsr_bytes",
    "lfsr_bit_iter",
    "CaState",
    "ca_step",
    "ca_generate",
    "decimate",
    "solve_cell_seed",
]


class ZeroSeed(ValueError):
    """An all-zero register seed where a nonzero one is required."""


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_VALUES = bytes.maketrans(b"01", b"\x00\x01")


class BitSeq:
    """Immutable 0/1 sequence with an absolute starting position.

    The bits are held as one `bytes` object, one byte (0 or 1) per bit;
    `bits` and slices are tuple views of it.
    """

    __slots__ = ("_raw", "origin")

    def __init__(self, bits: Sequence[int], origin: int = 0) -> None:
        if isinstance(bits, int):  # bytes(5) would be five zero bits
            raise ValueError(f"bits must be a sequence of 0/1 values, got {bits!r}")
        raw = _bit_bytes(bits, "bits must be 0 or 1")
        if origin < 0:
            raise ValueError("origin must be nonnegative")
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "origin", origin)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BitSeq is immutable")

    @classmethod
    def _adopt(cls, raw: bytes, origin: int) -> "BitSeq":
        """Wrap 0/1 bytes that are already checked, with no copy and no scan."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "_raw", raw)
        object.__setattr__(seq, "origin", origin)
        return seq

    @classmethod
    def parse(cls, text: str, origin: int = 0) -> "BitSeq":
        raw = text.strip().encode("ascii", "replace")
        if raw.translate(None, b"01"):
            raise ValueError(f"not a bit string: {text!r}")
        if origin < 0:
            raise ValueError("origin must be nonnegative")
        return cls._adopt(raw.translate(_VALUES), origin)

    @property
    def raw(self) -> bytes:
        """The bits as 0/1 bytes."""
        return self._raw

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self._raw)

    def at(self, position: int) -> int:
        """Bit at an absolute position."""
        idx = position - self.origin
        if idx < 0 or idx >= len(self._raw):
            raise IndexError(f"position {position} outside [{self.origin}, {self.origin + len(self._raw)})")
        return self._raw[idx]

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self) -> Iterator[int]:
        return iter(self._raw)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return tuple(self._raw[idx])
        return self._raw[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitSeq):
            return NotImplemented
        return (self._raw, self.origin) == (other._raw, other.origin)

    def __hash__(self) -> int:
        return hash((self._raw, self.origin))

    def __reduce__(self):
        return (BitSeq, (self._raw, self.origin))

    def __repr__(self) -> str:
        return f"BitSeq.parse({str(self)!r}, origin={self.origin})"

    def __str__(self) -> str:
        return self._raw.translate(_DIGITS).decode("ascii")


def _seed_to_int(seed: Sequence[int]) -> int:
    """The bits packed into one int, bit k = seed[k]."""
    raw = _bit_bytes(seed, "seed bits must be 0 or 1")
    return int(raw[::-1].translate(_DIGITS), 2) if raw else 0


@dataclass(frozen=True)
class LfsrState:
    """LFSR configuration: primitive characteristic polynomial plus stage contents.

    seed[k] is stage A_k = s_k, so the seed doubles as the first L output bits.
    """

    charpoly: Gf2Poly
    seed: tuple[int, ...]

    def __post_init__(self) -> None:
        deg = self.charpoly.degree
        if deg is None or deg < 1:
            raise ValueError("characteristic polynomial must have degree >= 1")
        if not is_primitive(self.charpoly):
            raise NonPrimitiveModulus(f"{self.charpoly.to_text()} is not primitive")
        if len(self.seed) != deg:
            raise ValueError(f"seed length {len(self.seed)} != degree {deg}")
        if not _seed_to_int(self.seed):
            raise ZeroSeed("LFSR seed must be nonzero")


def lfsr_bit_iter(charpoly: Gf2Poly, seed: Sequence[int]) -> Iterator[int]:
    """Endless output bits of the register; no primitivity check here."""
    deg = charpoly.degree
    if deg is None or deg < 1:
        raise ValueError("characteristic polynomial must have degree >= 1")
    if len(seed) != deg:
        raise ValueError("seed length mismatch")
    state = _seed_to_int(seed)
    feedback = charpoly.mask ^ (1 << deg)
    top = deg - 1
    while True:
        yield state & 1
        new = (state & feedback).bit_count() & 1
        state = (state >> 1) | (new << top)


def lfsr_bytes(charpoly: Gf2Poly, seed: Sequence[int] | int, n: int) -> bytes:
    """First n output bits of the register as 0/1 bytes; no primitivity check here.

    The seed is as for `_lfsr_digits`: a long int prefix saves the steps
    that would recompute it.
    """
    return _lfsr_digits(charpoly, seed, n).translate(_VALUES)


def _lfsr_digits(charpoly: Gf2Poly, seed: Sequence[int] | int, n: int, origin: int = 0) -> bytes:
    """Output bits origin .. origin + n - 1 of the register as ASCII digits, the form format() gives.

    A sequence seed is the register's first L bits.  Since
    s_t = <x^t mod p, seed>, the first min(2L, n) bits from `origin` are
    read off x^origin mod p, one shift and reduction a bit.  An int seed is
    a known prefix of the output from position 0 (bit t = s_t), of which
    the bits below max(L, its bit length) are read; `origin` must be 0.
    The rest comes from the known bits, packed into one int.  If x^m = r(x)
    mod p, then s_(t+m) is the sum of s_(t+i) over r's exponents i.  With
    m <= K for the K bits known, that gives the next m - deg r bits with
    one shift and XOR per term of r.  m starts at L, with r the lower terms
    of p, and doubles (r squared mod p) whenever 2m <= K, so once 2L bits
    are known each step appends more than K/2 - L bits, whatever p's terms
    are.  On p(x^d) every r is a polynomial in x^d, so each step appends at
    least d bits, where m - L + 1 would give one.
    """
    deg = charpoly.degree
    if deg is None or deg < 1:
        raise ValueError("characteristic polynomial must have degree >= 1")
    if n < 0 or origin < 0:
        raise ValueError("bit count and origin must be nonnegative")
    mod = charpoly.mask
    if isinstance(seed, int):
        if seed < 0 or origin:
            raise ValueError("an int seed is a nonnegative prefix from position 0")
        state, known = seed, max(deg, seed.bit_length())
    elif len(seed) != deg:
        raise ValueError("seed length mismatch")
    else:
        fill, top, x = _seed_to_int(seed), 1 << deg, _powx(origin, mod)
        state, known = 0, min(2 * deg, n)
        for i in range(known):
            state |= ((x & fill).bit_count() & 1) << i
            x <<= 1
            if x & top:
                x ^= mod
    r, m = mod ^ (1 << deg), deg
    terms = Gf2Poly(r).exponents()
    while known < n:
        while 2 * m <= known:
            r, m = _mul_mod(r, r, mod), 2 * m
            terms = Gf2Poly(r).exponents()
        width = min(m - r.bit_length() + 1, n - known)
        block, base = 0, known - m
        for i in terms:
            block ^= state >> (base + i)
        state |= (block & ((1 << width) - 1)) << known
        known += width
    state &= (1 << n) - 1
    return format(state, f"0{n}b")[::-1].encode("ascii") if n else b""


def lfsr_generate(reg: LfsrState, n: int) -> BitSeq:
    """First n output bits s_0, s_1, ..."""
    return BitSeq._adopt(lfsr_bytes(reg.charpoly, reg.seed, n), 0)


@dataclass(frozen=True)
class CaState:
    """Null-boundary hybrid 90/150 automaton: rule vector plus cell contents.

    cells[k] is cell k+1.  The all-zero configuration is legal (it is the
    fixed point, useful for superposition arguments).
    """

    rules: RuleVector
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.rules):
            raise ValueError("cell count must match rule vector length")
        _bit_bytes(self.cells, "cells must be 0 or 1")


def _ca_states(rules: RuleVector, state: int, steps: int) -> Iterator[int]:
    """The automaton's states at times 0 .. steps - 1 from `state`, as ints."""
    full = (1 << len(rules)) - 1
    r = _seed_to_int(rules.bits)
    for _ in range(steps):
        yield state
        state = ((state << 1) & full) ^ (state >> 1) ^ (state & r)


def ca_step(state: CaState) -> CaState:
    """One synchronous update: cell i becomes left + right (+ self under rule 150)."""
    _, nxt = _ca_states(state.rules, _seed_to_int(state.cells), 2)
    return CaState(state.rules, tuple(nxt >> k & 1 for k in range(len(state.cells))))


def ca_generate(state: CaState, n: int) -> list[BitSeq]:
    """Vertical output sequences of every cell over n states (the initial one included)."""
    if n < 0:
        raise ValueError("state count must be nonnegative")
    # row t of `rows` is state t in cell order, so cell k+1 is every width-th byte from k
    width = len(state.cells)
    states = _ca_states(state.rules, _seed_to_int(state.cells), n)
    rows = "".join(format(s, f"0{width}b")[::-1] for s in states).encode("ascii").translate(_VALUES)
    return [BitSeq._adopt(rows[k::width], 0) for k in range(width)]


def decimate(seq: BitSeq, step: int, residue: int) -> BitSeq:
    """Bits of seq at absolute positions congruent to residue mod step."""
    if step < 1:
        raise ValueError("step must be positive")
    residue %= step
    first = seq.origin + (residue - seq.origin) % step
    return BitSeq._adopt(seq.raw[first - seq.origin :: step], (first - residue) // step)


def _cell_basis_traces(rules: RuleVector, cell: int, steps: int) -> list[int]:
    """Row masks: bit j of row t is cell `cell`'s value at time t from unit seed e_j."""
    n = len(rules)
    if not 1 <= cell <= n:
        raise ValueError(f"cell index must be in [1, {n}]")
    # The update matrix M is symmetric, so M^t is: cell `cell` of M^t e_j is
    # cell j of M^t e_cell, and row t is the state at time t from e_cell.
    return list(_ca_states(rules, 1 << (cell - 1), steps))


def solve_cell_seed(rules: RuleVector, cell: int, target: Sequence[int]) -> CaState | None:
    """Lexicographically least seed whose given cell traces out `target`, or None.

    Linearity makes this a GF(2) solve.  The system is kept fully reduced
    with each row's pivot its highest cell, so a pivot cell depends only on
    free cells before it, and the solution with every free cell 0 is the
    least one.  The whole target is checked for 0/1 bits before the solve.
    """
    n = len(rules)
    bits = _bit_bytes(target, "target bits must be 0 or 1")
    rows = _cell_basis_traces(rules, cell, len(bits))
    sys = Gf2LinearSystem(n)
    for row, bit in zip(rows, bits):
        if not sys.add(row, bit):
            return None
    solution = next(sys.solutions())
    return CaState(rules, tuple(solution >> k & 1 for k in range(n)))
