"""Shrinking and clock-controlled shrinking keystream generators.

Both combine a control register SR1 (length l1, characteristic polynomial
c1) with a generating register SR2 (l2, c2).  The plain shrinking rule
keeps SR2's bit when SR1 outputs 1 and discards it otherwise.  The
clock-controlled variant first decimates SR2 irregularly: at step t it
reads SR2's current bit b'_t, then advances SR2 by

    X_t = 1 + sum_k 2^k * A_(taps[k])(t)

positions, where A_i(t) are SR1 stages.  The shrinking rule is then
applied to {b'_t} as before, and SR1 steps once.  Empty taps make X_t
identically 1, which is the plain generator again.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import accumulate, compress
from typing import Iterator, Sequence

from .engines import BitSeq, ZeroSeed, lfsr_bit_iter, lfsr_bytes
from .gf2 import Gf2Poly, NonPrimitiveModulus, is_primitive

__all__ = [
    "GeneratorSpec",
    "ShrunkenStats",
    "shrink_generate",
    "ccsg_generate",
    "clock_advances",
    "decimated_stream",
    "clock_counts",
    "shrunken_stats",
]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(data: dict, key: str) -> int:
    """data[key], which must be a JSON integer."""
    if not _is_int(data[key]):
        raise ValueError(f"{key} must be an integer, got {data[key]!r}")
    return data[key]


def _json_bits(data: dict, key: str) -> tuple[int, ...] | None:
    """data[key], which must be a JSON string of 0/1; absent or null means None."""
    text = data.get(key)
    if text is None:
        return None
    if not isinstance(text, str) or text.strip("01"):
        raise ValueError(f"{key} must be a string of 0/1, got {text!r}")
    return tuple(map(int, text))


def _json_poly(data: dict, key: str, degree: int) -> Gf2Poly:
    """data[key], a JSON string of exponents, each checked against degree before use."""
    text = data[key]
    if not isinstance(text, str):
        raise ValueError(f"{key} must be a string of exponents, got {text!r}")
    if any(not 0 <= int(part) <= degree for part in text.split(",")):
        raise ValueError(f"{key} exponents must lie in [0, {degree}], got {text!r}")
    return Gf2Poly.parse(text)


def _json_taps(data: dict) -> tuple[int, ...]:
    """data["taps"], which must be a JSON list of integers; absent means no taps."""
    taps = data.get("taps", [])
    if not isinstance(taps, list) or not all(map(_is_int, taps)):
        raise ValueError(f"taps must be a list of integers, got {taps!r}")
    return tuple(taps)


@dataclass(frozen=True)
class GeneratorSpec:
    """Static parameters of a (clock-controlled) shrinking generator.

    Seeds are optional so the same object can describe the public part an
    attacker sees.  taps lists SR1 stage indices (0-based, each < l1)
    feeding the clock sum; the empty tuple means plain shrinking.
    """

    l1: int
    l2: int
    c1: Gf2Poly
    c2: Gf2Poly
    is1: tuple[int, ...] | None = None
    is2: tuple[int, ...] | None = None
    taps: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.l1 < 1:
            raise ValueError("l1 must be >= 1")
        if self.l2 <= self.l1:
            raise ValueError("l2 must exceed l1")
        if math.gcd(self.l1, self.l2) != 1:
            raise ValueError(f"register lengths {self.l1}, {self.l2} must be coprime")
        if self.c1.degree != self.l1:
            raise ValueError(f"c1 degree {self.c1.degree} != l1 {self.l1}")
        if self.c2.degree != self.l2:
            raise ValueError(f"c2 degree {self.c2.degree} != l2 {self.l2}")
        for name, poly in (("c1", self.c1), ("c2", self.c2)):
            if not is_primitive(poly):
                raise NonPrimitiveModulus(f"{name} = {poly.to_text()} is not primitive")
        for name, seed, length in (("is1", self.is1, self.l1), ("is2", self.is2, self.l2)):
            if seed is None:
                continue
            if len(seed) != length or any(b not in (0, 1) for b in seed):
                raise ValueError(f"{name} must be {length} bits")
            if not any(seed):
                raise ZeroSeed(f"{name} must be nonzero")
        if len(set(self.taps)) != len(self.taps):
            raise ValueError("taps must be distinct")
        if any(t < 0 or t >= self.l1 for t in self.taps):
            raise ValueError(f"taps must lie in [0, {self.l1})")
        if self.taps and len(self.taps) == self.l1:
            warnings.warn(
                "tap count equals the control register length; clocking leaks the whole SR1 state",
                stacklevel=3,
            )

    @classmethod
    def from_json(cls, data: dict) -> "GeneratorSpec":
        l1, l2 = _json_int(data, "l1"), _json_int(data, "l2")
        return cls(
            l1=l1,
            l2=l2,
            c1=_json_poly(data, "c1", l1),
            c2=_json_poly(data, "c2", l2),
            is1=_json_bits(data, "is1"),
            is2=_json_bits(data, "is2"),
            taps=_json_taps(data),
        )

    @classmethod
    def from_file(cls, path: str) -> "GeneratorSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def to_json(self) -> dict:
        out: dict = {
            "l1": self.l1,
            "l2": self.l2,
            "c1": self.c1.to_text(),
            "c2": self.c2.to_text(),
        }
        if self.is1 is not None:
            out["is1"] = "".join(map(str, self.is1))
        if self.is2 is not None:
            out["is2"] = "".join(map(str, self.is2))
        if self.taps:
            out["taps"] = list(self.taps)
        return out

    def with_seeds(self, is1: tuple[int, ...], is2: tuple[int, ...]) -> "GeneratorSpec":
        return GeneratorSpec(self.l1, self.l2, self.c1, self.c2, is1, is2, self.taps)


def _require_seeds(spec: GeneratorSpec) -> None:
    if spec.is1 is None or spec.is2 is None:
        raise ValueError("both seeds are required to generate a keystream")


def _clocked_steps(spec: GeneratorSpec) -> Iterator[tuple[int, int, int]]:
    """Per step t: (a_t, b'_t, X_t), advancing both registers accordingly."""
    _require_seeds(spec)
    fb1 = spec.c1.mask ^ (1 << spec.l1)
    top1 = spec.l1 - 1
    state1 = 0
    assert spec.is1 is not None and spec.is2 is not None
    for k, bit in enumerate(spec.is1):
        state1 |= bit << k
    sr2 = lfsr_bit_iter(spec.c2, spec.is2)
    while True:
        bprime = next(sr2)
        x = 1
        for k, tap in enumerate(spec.taps):
            x += (state1 >> tap & 1) << k
        for _ in range(x - 1):
            next(sr2)
        yield state1 & 1, bprime, x
        new = (state1 & fb1).bit_count() & 1
        state1 = (state1 >> 1) | (new << top1)


def clock_advances(a: Sequence[int], taps: Sequence[int]) -> list[int]:
    """SR2's advance before each SR1 step t that the SR1 bits a fix.

    Entry t is X_0 + ... + X_(t-1), for t = 0 .. len(a) - max(taps): step t
    reads a[t + tap] for every tap, so a fixes X_t while t + max(taps) < len(a).
    """
    n = len(a) - max(taps, default=0)
    if n < 0:
        return []
    steps = [1] * n
    for k, tap in enumerate(taps):
        steps = [x + (bit << k) for x, bit in zip(steps, a[tap:])]
    return list(accumulate(steps, initial=0))


def _interleave(spec: GeneratorSpec, n: int) -> BitSeq:
    """First n keystream bits, one interleaving column at a time.

    Over one SR1 period of N1 = 2^l1 - 1 steps the d = 2^(l1-1) ones of
    SR1 fall where SR2 has advanced off_0 < ... < off_(d-1) positions, and
    the whole period advances SR2 by S.  Column c of the keystream, bits
    c, c + d, c + 2d, ..., is therefore SR2's PN sequence read from off_c
    with stride S, modulo SR2's period 2^l2 - 1.  Only the SR2 bits the
    columns reach are generated, at most one period.
    """
    if n < 0:
        raise ValueError("bit count must be nonnegative")
    _require_seeds(spec)
    assert spec.is1 is not None and spec.is2 is not None
    nper = (1 << spec.l1) - 1
    a = lfsr_bytes(spec.c1, spec.is1, nper + spec.l1)
    adv = clock_advances(a, spec.taps)
    offsets, advance = list(compress(adv, a[:nper])), adv[nper]
    d = len(offsets)
    rows = -(-n // d)
    if not rows:
        return BitSeq(b"")
    period = (1 << spec.l2) - 1
    size = min(offsets[-1] + (rows - 1) * advance + 1, period)
    sr2 = lfsr_bytes(spec.c2, spec.is2, size)
    # only a full-period buffer is ever read past its end, so wrapping is exact
    stride = advance % period or period
    out = bytearray(rows * d)
    for c, off in enumerate(offsets):
        parts, left, start = [], rows, off % period
        while left:
            part = sr2[start : start + left * stride : stride]
            parts.append(part)
            left -= len(part)
            start += len(part) * stride - period
        out[c::d] = b"".join(parts)
    del out[n:]
    return BitSeq(out)


def shrink_generate(spec: GeneratorSpec, n: int) -> BitSeq:
    """Plain shrinking generator keystream (taps must be empty)."""
    if spec.taps:
        raise ValueError("shrink_generate needs an untapped spec; use ccsg_generate")
    return _interleave(spec, n)


def ccsg_generate(spec: GeneratorSpec, n: int) -> BitSeq:
    """Clock-controlled shrinking generator keystream (taps must be nonempty)."""
    if not spec.taps:
        raise ValueError("ccsg_generate needs at least one tap; use shrink_generate")
    return _interleave(spec, n)


def decimated_stream(spec: GeneratorSpec, n: int) -> BitSeq:
    """First n bits of the irregularly decimated SR2 stream {b'_t}."""
    if n < 0:
        raise ValueError("bit count must be nonnegative")
    steps = _clocked_steps(spec)
    return BitSeq(tuple(next(steps)[1] for _ in range(n)))


def clock_counts(spec: GeneratorSpec, n: int) -> tuple[int, ...]:
    """First n clocking amounts X_0, X_1, ..."""
    if n < 0:
        raise ValueError("count must be nonnegative")
    steps = _clocked_steps(spec)
    return tuple(next(steps)[2] for _ in range(n))


@dataclass(frozen=True)
class ShrunkenStats:
    """Closed-form sequence figures for a plain shrinking generator."""

    period: int
    ones_per_period: int
    lc_lower: float
    lc_upper: int


def shrunken_stats(l1: int, l2: int) -> ShrunkenStats:
    """Period, balance, and linear-complexity bounds from the register lengths."""
    if l1 < 1 or l2 <= l1 or math.gcd(l1, l2) != 1:
        raise ValueError("need coprime lengths with l2 > l1 >= 1")
    period = ((1 << l2) - 1) << (l1 - 1)
    ones = 1 << (l1 + l2 - 2)
    upper = l2 << (l1 - 1)
    lower = l2 * 2 ** (l1 - 2) if l1 >= 2 else l2 / 2
    return ShrunkenStats(period, ones, lower, upper)
