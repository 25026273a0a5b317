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

import copy
import io
import math
import warnings
from dataclasses import dataclass, field
from itertools import accumulate, compress
from typing import Iterable, Iterator, Sequence

from .engines import (
    _VALUES,
    BitSeq,
    ZeroSeed,
    _lfsr_digits,
    _seed_to_int,
    lfsr_bit_iter,
    lfsr_bytes,
)
from .gf2 import Gf2Poly, NonPrimitiveModulus, berlekamp_massey, is_primitive

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
    message = f"{key} must be a string of exponents, got {text!r}"
    if not isinstance(text, str):
        raise ValueError(message)
    try:
        exponents = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(message) from None
    if any(not 0 <= e <= degree for e in exponents):
        raise ValueError(f"{key} exponents must lie in [0, {degree}], got {text!r}")
    return Gf2Poly.parse(text)


def _json_taps(data: dict) -> tuple[int, ...]:
    """data["taps"], which must be a JSON list of integers; absent means no taps."""
    taps = data.get("taps", [])
    if not isinstance(taps, list) or not all(map(_is_int, taps)):
        raise ValueError(f"taps must be a list of integers, got {taps!r}")
    return tuple(taps)


def _check_degree(key: str, poly: Gf2Poly, length: int) -> None:
    """c1 or c2 (key) must have its register's length, l1 or l2, as its degree."""
    if poly.degree != length:
        raise ValueError(f"{key} degree {poly.degree} != l{key[1]} {length}")


def _check_shape(l1: int, l2: int, c2: Gf2Poly, taps: Sequence[int]) -> None:
    """The rules on l1, l2, c2's degree and the clock taps, which linearize applies too."""
    _check_degree("c2", c2, l2)
    if l1 < 1:
        raise ValueError("l1 must be >= 1")
    if l2 <= l1:
        raise ValueError("l2 must exceed l1")
    if math.gcd(l1, l2) != 1:
        raise ValueError(f"register lengths {l1}, {l2} must be coprime")
    if len(set(taps)) != len(taps):
        raise ValueError("taps must be distinct")
    if any(t < 0 or t >= l1 for t in taps):
        raise ValueError(f"taps must lie in [0, {l1})")


def _check_seeds(l1: int, l2: int, is1: Sequence[int] | None, is2: Sequence[int] | None) -> None:
    """Each seed given must have its register's length, 0/1 bits and a 1."""
    for name, seed, length in (("is1", is1, l1), ("is2", is2, l2)):
        if seed is None:
            continue
        wrong = ValueError(f"{name} must be {length} bits")
        if len(seed) != length:
            raise wrong
        try:
            value = _seed_to_int(seed)  # refuses any bit but the ints 0 and 1
        except ValueError:
            raise wrong from None
        if not value:
            raise ZeroSeed(f"{name} must be nonzero")


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
        _check_shape(self.l1, self.l2, self.c2, self.taps)
        _check_degree("c1", self.c1, self.l1)
        for name, poly in (("c1", self.c1), ("c2", self.c2)):
            if not is_primitive(poly):
                raise NonPrimitiveModulus(f"{name} = {poly.to_text()} is not primitive")
        _check_seeds(self.l1, self.l2, self.is1, self.is2)
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
        """This spec with seeds is1 and is2.

        Only the seeds are checked: the rest was checked, and warned about,
        when this spec was built, so a seeded copy does not warn again.
        """
        _check_seeds(self.l1, self.l2, is1, is2)
        seeded = copy.copy(self)
        object.__setattr__(seeded, "is1", is1)
        object.__setattr__(seeded, "is2", is2)
        return seeded


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


def _walk(buf: bytes, start: int, stride: int, count: int) -> bytearray:
    """buf[(start + k * stride) % len(buf)] for k < count, one slice per wrap."""
    parts = []
    while count:
        part = buf[start : start + count * stride : stride]
        parts.append(part)
        count -= len(part)
        start += len(part) * stride - len(buf)
    return bytearray().join(parts)


def _from_digits(digits: bytes, table: bytes | None) -> bytes:
    """ASCII digits as 0/1 bytes, or as a translation table's images of 0 and 1."""
    images = b"\x00\x01" if table is None else table[:2]
    return digits if images == b"01" else digits.translate(bytes.maketrans(b"01", images))


def _column_base(rows: bytes, width: int, l2: int) -> Gf2Poly:
    """The minimal polynomial of the columns of digit `rows`; x when every column is zero.

    rows holds at least 2 * l2 rows of `width` columns, each column a
    decimation of one l2-stage m-sequence, so every column is annihilated by
    one irreducible polynomial of degree at most l2.  A nonzero column has
    no l2 zeros in a row, so the first 1 of the first l2 rows lies in one,
    and Berlekamp-Massey on its first 2 * l2 bits returns that polynomial.
    The zero sequence satisfies s_(t+1) = 0, which is x.
    """
    first = rows.find(b"1", 0, l2 * width)
    if first < 0:
        return Gf2Poly(0b10)
    return berlekamp_massey(rows[first % width : 2 * l2 * width : width].translate(_VALUES))


def _extended(rows: bytes, width: int, l2: int, count: int) -> bytes:
    """The first `count` digits of the interleave whose first rows are `rows` (see `_column_base`).

    Every column satisfies base(x), so the interleave of `width` columns
    satisfies base(x^width), and `_lfsr_digits` continues it from all of `rows`.
    """
    base = _column_base(rows, width, l2)
    spread = Gf2Poly.from_exponents(e * width for e in base.exponents())
    return _lfsr_digits(spread, int(rows[::-1], 2), count)


# A window that wraps SR2's period is built in blocks of rows: about
# _BLOCK_BYTES of output each, and never fewer than _BLOCK_ROWS rows, since
# every block costs one slice per column.  Writing the (13, 14) period, 64 rows
# a block took 30 % longer than 256 and 1024 rows 80 % longer, while blocks of
# 2^17 to 2^20 bytes cost the same from (3, 16) to (13, 14).
_BLOCK_BYTES = 1 << 19
_BLOCK_ROWS = 256

# A window inside one SR2 period is extended from its first 2 * l2 rows
# only when that saves more than _EXTEND_BITS bits of lfsr_bytes output.  The
# extension's fixed cost, one Berlekamp-Massey run and one more lfsr_bytes
# call, measured 25-45 us on a 2-vCPU VM, about what 2^14 bits cost there.
_EXTEND_BITS = 1 << 14


def _window(
    spec: GeneratorSpec, n: int, origin: int = 0, table: bytes | None = None
) -> Iterable[bytes]:
    """Keystream bits origin .. origin + n - 1 as consecutive blocks of 0/1 bytes.

    With a translation table (as for bytes.translate) the blocks carry its
    images of 0 and 1 instead.  Everything whose size follows SR2's period
    is built before this returns; the blocks themselves are made as they
    are read.

    Over one SR1 period of N1 = 2^l1 - 1 steps the d = 2^(l1-1) ones of
    SR1 fall where SR2 has advanced off_0 < ... < off_(d-1) positions, and
    the whole period advances SR2 by S.  Keystream bit q * d + c is
    therefore SR2's bit at step off_c + q * S, modulo SR2's period
    P = 2^l2 - 1: column c is SR2's PN sequence read from off_c with
    stride S.  Bits repeat with period d * P, so the origin is taken
    modulo that, and the window covers rows q0 .. q1 of the columns.

    SR2 is read from is2 at the window's first row q0, origin
    J = q0 * S mod P (`_lfsr_digits` jumps there), so SR2 is run over the
    window's own span only, never over the rows it skips.  It is read as
    ASCII digits, the form format() gives, and each block is translated
    once at the end, or not at all for the digits table.

    A window whose column reads stay inside one SR2 period is one block.
    Its first h = min(rows, 2 l2) rows are one strided slice of SR2 per
    column.  Every column is SR2's PN sequence decimated by S, so every
    column is annihilated by base(x), the minimal polynomial of alpha^S for
    alpha a root of c2: one irreducible polynomial of degree at most l2.
    Berlekamp-Massey on 2 l2 bits of a nonzero column finds it exactly
    (`_column_base`), and the interleave of d columns then satisfies
    base(x^d) = base(x)^d, so the window's other rows are lfsr_bytes of
    base(x^d) continued from the h rows (`_extended`): d bits a row, where
    the strided slices read S >= d SR2 bits a row.  The extension is taken
    when it saves more than _EXTEND_BITS such bits,
    (rows - h) * S - (col + n) > _EXTEND_BITS; shorter windows, such as
    the 4096-bit messages of an attack session, keep the strided slices.

    Past one SR2 period, with g = gcd(S, P), the columns are rotations of
    the decimated columns v_rho[k] = sr2[(rho + k * S) mod P], one per
    residue rho mod g, each of period P / g and built by one strided walk
    of one SR2 period, after which the SR2 period is dropped: column c
    starting at SR2 step t is
    v_rho rotated by ((t - rho) / g) * (S / g)^-1 mod P / g, rho = t mod g.
    S / g is invertible mod P / g, since a prime dividing both would divide
    g once more.  g is 1 whenever the attack's model applies.  Each v_rho is
    kept repeated, so any run of a block's rows is one slice of it, and
    each block fills its rows of every column from those slices.

    SR1 is read only as far as the request needs: an m-sequence has no run
    of l1 zeros, so k * l1 bits hold its first k ones, and a window inside
    row 0 needs only the ones up to its last column.
    """
    if n < 0:
        raise ValueError("bit count must be nonnegative")
    if origin < 0:
        raise ValueError("origin must be nonnegative")
    _require_seeds(spec)
    assert spec.is1 is not None and spec.is2 is not None
    if not n:
        return [b""]
    d, period, nper = 1 << (spec.l1 - 1), (1 << spec.l2) - 1, (1 << spec.l1) - 1
    first, col = divmod(origin % (d * period), d)
    rows = (col + n - 1) // d + 1
    width = d if rows > 1 else col + n
    span = nper if first or rows > 1 else min(nper, width * spec.l1)
    a = lfsr_bytes(spec.c1, spec.is1, span + spec.l1)
    adv = clock_advances(a, spec.taps)
    offsets, advance = list(compress(adv, a[:span]))[:width], adv[span]
    jump = first * advance % period
    if offsets[-1] + (rows - 1) * advance < period:
        head = min(rows, 2 * spec.l2)
        if (rows - head) * advance - (col + n) <= _EXTEND_BITS:
            head = rows
        out = bytearray(head * width)
        sr2 = _lfsr_digits(spec.c2, spec.is2, offsets[-1] + (head - 1) * advance + 1, jump)
        for c, off in enumerate(offsets):
            out[c::width] = sr2[off::advance]
        if head < rows:
            return [_from_digits(_extended(out, width, spec.l2, col + n)[col:], table)]
        del out[col + n :], out[:col]
        return [_from_digits(out, table)]
    sr2 = _lfsr_digits(spec.c2, spec.is2, period, jump)
    stride = advance % period
    g = math.gcd(stride, period)
    length = period // g
    inv = pow(stride // g, -1, length)
    block = min(max(_BLOCK_BYTES // width, _BLOCK_ROWS), rows)
    repeats = 1 + -(-block // length)  # a slice of block rows from any start < length
    columns: dict[int, bytearray] = {}
    starts = []
    for off in offsets:
        start = off % period
        rho = start % g
        if rho not in columns:
            column = _from_digits(_walk(sr2, rho, stride or period, length), table)
            column *= repeats
            columns[rho] = column
        starts.append((columns[rho], (start - rho) // g * inv % length))
    del sr2

    def blocks() -> Iterator[bytearray]:
        """Rows block at a time: column c's row q is column[(shift + q) % length]."""
        for q0 in range(0, rows, block):
            count = min(block, rows - q0)
            out = bytearray(count * width)
            for c, (column, shift) in enumerate(starts):
                k = (shift + q0) % length
                out[c::width] = column[k : k + count]
            del out[col + n - q0 * width :]
            if not q0:
                del out[:col]
            yield out
            del out  # before the next block is made, so one block is alive at a time

    return blocks()


def _joined(blocks: Iterable[bytes], origin: int) -> BitSeq:
    """The 0/1 blocks of `_window` (at least one) as one BitSeq starting at origin.

    They are appended to one growing buffer, which getvalue hands over
    uncopied, so a full period peaks near one byte a bit, where a join holds
    the blocks and their copy; a window of one bytes block is that block.
    """
    blocks = iter(blocks)
    buf = io.BytesIO(next(blocks))
    buf.seek(0, io.SEEK_END)
    buf.writelines(blocks)
    return BitSeq._adopt(buf.getvalue(), origin)


def _interleave(spec: GeneratorSpec, n: int, origin: int = 0) -> BitSeq:
    """Keystream bits origin .. origin + n - 1: the blocks of `_window`, joined."""
    return _joined(_window(spec, n, origin), origin)


def shrink_generate(
    spec: GeneratorSpec, n: int, origin: int = 0, table: bytes | None = None
) -> BitSeq | Iterable[bytes]:
    """Plain shrinking generator keystream, bits origin .. origin + n - 1 (taps must be empty).

    With a translation table the bits come as `_window`'s blocks of its
    images of 0 and 1, not as one BitSeq.
    """
    if spec.taps:
        raise ValueError("spec has clock taps; use ccsg")
    return _interleave(spec, n, origin) if table is None else _window(spec, n, origin, table)


def ccsg_generate(
    spec: GeneratorSpec, n: int, origin: int = 0, table: bytes | None = None
) -> BitSeq | Iterable[bytes]:
    """Clock-controlled shrinking generator keystream, bits origin .. origin + n - 1 (taps nonempty).

    A translation table works as in `shrink_generate`.
    """
    if not spec.taps:
        raise ValueError("spec has no clock taps; use shrink")
    return _interleave(spec, n, origin) if table is None else _window(spec, n, origin, table)


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
