"""Bit sequences, LFSR stepping, and hybrid 90/150 cellular automata.

Register and automaton states are held as ints (bit k = stage A_k, or cell
k+1).  An LFSR with characteristic polynomial sum c_k x^k (monic, degree L)
realizes s_(n+L) = sum_(k<L) c_k s_(n+k); stage A_0 is the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .gf2 import Gf2LinearSystem, Gf2Poly, NonPrimitiveModulus, RuleVector, is_primitive

__all__ = [
    "ZeroSeed",
    "BitSeq",
    "LfsrState",
    "lfsr_generate",
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


@dataclass(frozen=True)
class BitSeq:
    """Immutable 0/1 sequence with an absolute starting position."""

    bits: tuple[int, ...]
    origin: int = 0

    def __post_init__(self) -> None:
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):
            raise ValueError("bits must be 0 or 1")
        if self.origin < 0:
            raise ValueError("origin must be nonnegative")

    @classmethod
    def parse(cls, text: str, origin: int = 0) -> "BitSeq":
        text = text.strip()
        if any(ch not in "01" for ch in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(tuple(int(ch) for ch in text), origin)

    def at(self, position: int) -> int:
        """Bit at an absolute position."""
        idx = position - self.origin
        if idx < 0 or idx >= len(self.bits):
            raise IndexError(f"position {position} outside [{self.origin}, {self.origin + len(self.bits)})")
        return self.bits[idx]

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, idx: int) -> int:
        return self.bits[idx]

    def __str__(self) -> str:
        return bytes(self.bits).translate(_DIGITS).decode("ascii")


def _seed_to_int(seed: Sequence[int]) -> int:
    state = 0
    for k, bit in enumerate(seed):
        if bit not in (0, 1):
            raise ValueError("seed bits must be 0 or 1")
        state |= bit << k
    return state


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
        if not any(self.seed):
            raise ZeroSeed("LFSR seed must be nonzero")

    @property
    def length(self) -> int:
        return len(self.seed)


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


def lfsr_generate(reg: LfsrState, n: int) -> BitSeq:
    """First n output bits s_0, s_1, ..."""
    if n < 0:
        raise ValueError("bit count must be nonnegative")
    it = lfsr_bit_iter(reg.charpoly, reg.seed)
    return BitSeq(tuple(next(it) for _ in range(n)))


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
        if any(c not in (0, 1) for c in self.cells):
            raise ValueError("cells must be 0 or 1")

    @property
    def length(self) -> int:
        return len(self.cells)


def ca_step(state: CaState) -> CaState:
    """One synchronous update: cell i becomes left + right (+ self under rule 150)."""
    n = len(state.cells)
    full = (1 << n) - 1
    c = _seed_to_int(state.cells)
    r = _seed_to_int(state.rules.bits)
    nxt = ((c << 1) & full) ^ (c >> 1) ^ (c & r)
    return CaState(state.rules, tuple(nxt >> k & 1 for k in range(n)))


def ca_generate(state: CaState, n: int) -> list[BitSeq]:
    """Vertical output sequences of every cell over n states (the initial one included)."""
    if n < 0:
        raise ValueError("state count must be nonnegative")
    traces: list[list[int]] = [[] for _ in state.cells]
    cur = state
    for _ in range(n):
        for k, bit in enumerate(cur.cells):
            traces[k].append(bit)
        cur = ca_step(cur)
    return [BitSeq(tuple(t)) for t in traces]


def decimate(seq: BitSeq, step: int, residue: int) -> BitSeq:
    """Bits of seq at absolute positions congruent to residue mod step."""
    if step < 1:
        raise ValueError("step must be positive")
    residue %= step
    first = seq.origin + (residue - seq.origin) % step
    picked = tuple(seq.at(p) for p in range(first, seq.origin + len(seq), step))
    return BitSeq(picked, origin=(first - residue) // step)


def _cell_basis_traces(rules: RuleVector, cell: int, steps: int) -> list[int]:
    """Row masks: bit j of row t is cell `cell`'s value at time t from unit seed e_j."""
    n = len(rules)
    if not 1 <= cell <= n:
        raise ValueError(f"cell index must be in [1, {n}]")
    full = (1 << n) - 1
    r = _seed_to_int(rules.bits)
    rows = [0] * steps
    for j in range(n):
        c = 1 << j
        for t in range(steps):
            rows[t] |= (c >> (cell - 1) & 1) << j
            c = ((c << 1) & full) ^ (c >> 1) ^ (c & r)
    return rows


def solve_cell_seed(rules: RuleVector, cell: int, target: Sequence[int]) -> CaState | None:
    """Lexicographically least seed whose given cell traces out `target`, or None.

    Linearity makes this a GF(2) solve; the lexicographic choice greedily
    pins cells left to right, preferring 0.
    """
    n = len(rules)
    rows = _cell_basis_traces(rules, cell, len(target))
    sys = Gf2LinearSystem(n)
    for row, bit in zip(rows, target):
        if bit not in (0, 1):
            raise ValueError("target bits must be 0 or 1")
        if not sys.add(row, bit):
            return None
    for k in range(n):
        probe = sys.copy()
        if probe.add(1 << k, 0):
            sys = probe
        else:
            sys.add(1 << k, 1)
    solution = next(sys.solutions())
    return CaState(rules, tuple(solution >> k & 1 for k in range(n)))
