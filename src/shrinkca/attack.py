"""Known-plaintext state recovery for (clock-controlled) shrinking generators.

Input: public parameters (register lengths, feedback polynomials, clock
taps) and an intercepted keystream prefix starting at position 0.  The
keystream is viewed as an interleaving of d = 2^(l1-1) columns, every one
a shifted copy of a single PN sequence of period 2^l2 - 1.

Phase 2 recovers the seeds.  Hypotheses on SR1 place the 1s of its output
period, which fixes each column's shift against column 0; a hypothesis
survives if its column bits match column 0 directly (stage one) and stay
consistent when merged into a GF(2) linear system over the column-0 seed
(stage two).  Stage two eliminates only while that system is
underdetermined: once l2 independent bits fix the seed, each further bit
is one inner product to check.  SR1 is primitive, so every hypothesis's
output is a window of one m-sequence period, and the column shifts of every
node, prefix or complete, are differences of one clock over that period,
both built once per attack.
Survivors are completed to SR2 seeds by solving that system at the
decimation-inverse rows, then verified by regeneration.  On the intercepted
bits alone, this is Zeng, Yang and Rao's linear consistency test
(CRYPTO '89).

Phase 1 names the keystream bits the intercept determines without guessing:
window identities taken from the 90/150 model's sub-automaton polynomials
collapse, via shift-and-add in GF(2^l2), into single keystream bits outside
the intercepted prefix.  Those bits add no rank to phase 2: each is the XOR
of intercepted bits in its own column, at that column's shift, so its
equation is a sum of equations phase 2 already holds at the same node.
`full_attack` therefore searches the intercept alone and, on success, lists
phase 1's positions without reading a bit.  A failed attack is the search's
Exhausted; ConflictingReconstruction comes only from `phase1_reconstruct`
(through `KnownBits.add`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

from .engines import BitSeq, lfsr_bytes
from .generators import GeneratorSpec, _interleave, _joined, _window, clock_advances
from .gf2 import FieldTable, Gf2LinearSystem, Gf2Poly, RuleVector
from .linearize import DegenerateCoset, coset_exponent, linearize_model

__all__ = [
    "Exhausted",
    "Ambiguous",
    "ConflictingReconstruction",
    "NonInvertible",
    "KnownBits",
    "Phase1Record",
    "HypothesisRecord",
    "Phase2Result",
    "AttackResult",
    "subtriangle_expressions",
    "phase1_reconstruct",
    "is2_bit_positions",
    "phase2_search",
    "full_attack",
]


class Exhausted(RuntimeError):
    """Every SR1 hypothesis contradicted the intercepted material."""


class Ambiguous(RuntimeError):
    """More than one seed pair regenerates the intercepted prefix."""

    def __init__(
        self,
        candidates: list[tuple[tuple[int, ...], tuple[int, ...]]],
        nodes_expanded: int = 0,
    ):
        self.candidates = candidates
        self.nodes_expanded = nodes_expanded
        listing = "; ".join(
            "is1=" + "".join(map(str, a)) + " is2=" + "".join(map(str, b)) for a, b in candidates
        )
        super().__init__(f"{len(candidates)} seed pairs fit the intercepted prefix: {listing}")


class ConflictingReconstruction(ValueError):
    """Two derivations assign different values to the same keystream position."""


class NonInvertible(ValueError):
    """The decimation distance is not invertible modulo 2^l2 - 1."""


class KnownBits:
    """Partial keystream knowledge: position -> (bit, provenance).

    Re-adding a position with the same value is a no-op (the earliest
    provenance wins); a differing value raises ConflictingReconstruction.
    """

    def __init__(self, period: int):
        if period < 1:
            raise ValueError("period must be positive")
        self.period = period
        self._entries: dict[int, tuple[int, str]] = {}

    def add(self, position: int, bit: int, provenance: str) -> bool:
        """Record one bit; True when the position was previously unknown."""
        if not 0 <= position < self.period:
            raise ValueError(f"position {position} outside one period [0, {self.period})")
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        current = self._entries.get(position)
        if current is None:
            self._entries[position] = (bit, provenance)
            return True
        if current[0] != bit:
            raise ConflictingReconstruction(
                f"position {position}: {current[0]} ({current[1]}) vs {bit} ({provenance})"
            )
        return False

    def get(self, position: int) -> int | None:
        entry = self._entries.get(position)
        return entry[0] if entry else None

    def provenance(self, position: int) -> str | None:
        entry = self._entries.get(position)
        return entry[1] if entry else None

    def positions(self, provenance: str | None = None) -> tuple[int, ...]:
        if provenance is None:
            return tuple(sorted(self._entries))
        return tuple(sorted(p for p, (_, src) in self._entries.items() if src == provenance))

    def columns(self, stride: int) -> list[dict[int, int]]:
        """Known bits of every interleaving column, keyed by row index in ascending order."""
        out: list[dict[int, int]] = [{} for _ in range(stride)]
        for p in sorted(self._entries):
            out[p % stride][p // stride] = self._entries[p][0]
        return out

    def __contains__(self, position: int) -> bool:
        return position in self._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class Phase1Record:
    """One window identity and the keystream positions it produced."""

    ca: int
    cell: int
    power: int
    offsets: tuple[int, ...]
    row_shift: int
    positions: tuple[int, ...]


def subtriangle_expressions(rules: RuleVector, cell: int, power: int) -> tuple[int, ...]:
    """Offsets o with sum_o z(t+o) = 0 pattern source: exponents of P_(cell-1)^power.

    P_(cell-1) is the characteristic polynomial of the automaton's first
    cell-1 cells; its powers give the window identities relating cell
    `cell`'s trace back to the cell-1 trace.
    """
    if not 2 <= cell <= len(rules):
        raise ValueError(f"cell must be in [2, {len(rules)}]")
    if power < 1:
        raise ValueError("power must be >= 1")
    return (RuleVector(rules.bits[: cell - 1]).char_poly() ** power).exponents()


def _span_masks(d: int, r: int) -> dict[int, int]:
    """mask[s] for s = 1, 2, 4, .. < d: bit e set for every e < r with e = s mod 2s."""
    mask = {}
    s = 1
    while s < d:
        bits, width = 1 << s, 2 * s
        while width < r:
            bits |= bits << width
            width *= 2
        mask[s] = bits & ((1 << r) - 1)
        s *= 2
    return mask


def _column_span(poly: int, mask: dict[int, int], d: int) -> int:
    """min(2^a, d) for poly / x^u = S(x^(2^a)), u its lowest exponent; 0 for one term.

    mask is _span_masks(d, r) for some r above poly's degree.
    """
    q = poly >> ((poly & -poly).bit_length() - 1)
    if q == 1:
        return 0
    span = 1
    while span < d and not q & mask[span]:
        span *= 2
    return span


def _require_zero_origin(intercepted: BitSeq) -> None:
    if intercepted.origin != 0:
        raise ValueError("interception must start at keystream position 0")


def _identities(
    ca_pair: tuple[RuleVector, RuleVector], d: int, r: int, table: FieldTable
) -> Iterator[tuple[int, int, int, tuple[int, ...], int]]:
    """Every window identity an r-bit prefix holds: (ca, cell, power, offsets, row shift).

    The identities are the powers of each sub-automaton polynomial P = P_(cell-1),
    stepped once per automaton by P_i = (x + R_i) P_(i-1) + P_(i-2).  P^k stays in
    one interleaving column (its offsets agree modulo d = 2^(l1-1)) exactly when
    step = max(d >> a, 1) divides k, 2^a the largest power of two dividing every
    exponent of P / x^u, u the lowest; only those powers are built.  A power is
    yielded when its column power sum is nonzero: the window sum at offsets
    t + o is then the bit at t + offsets[0] + d * row shift.
    """
    mask = _span_masks(d, r)
    for ca_idx, rv in enumerate(ca_pair):
        prev2, prev = 0, 1
        for cell in range(2, len(rv) + 1):
            if cell > r:
                break
            prev2, prev = prev, (prev << 1) ^ (prev if rv.bits[cell - 2] else 0) ^ prev2
            # P / x^u = S(x^(2^a)) with S not a square.  For k = 2^c m, m odd,
            # S^k = S^m(x^(2^c)) and S^m is no square (its derivative S^(m-1) S'
            # is nonzero), so d divides every exponent of P^k / x^(uk) exactly when
            # d | 2^a k, that is when step = max(d >> a, 1) divides k.  P / x^u has
            # degree below cell <= r, so mask[s] covers its terms x^e with e = s mod 2s:
            # the span, min(2^a, d), is the first s < d they all miss, or d.
            span = _column_span(prev, mask, d)
            if not span:  # one term
                continue
            step, top = d // span, (r - 1) // (cell - 1)
            if step > top:  # no window fits
                continue
            acc = base = Gf2Poly(prev) ** step
            for power in range(step, top + 1, step):
                poly, acc = acc, acc * base
                offsets = poly.exponents()
                shift = table.power_sum((o - offsets[0]) // d for o in offsets)
                if shift is not None:
                    yield ca_idx, cell, power, offsets, shift


def _intercepted_bits(intercepted: BitSeq, period: int) -> KnownBits:
    """The intercepted prefix as known bits, refused unless 1 <= length <= period."""
    if not 1 <= len(intercepted) <= period:
        raise ValueError(f"intercepted length must be in [1, {period}]")
    known = KnownBits(period)
    # the positions are distinct, so no entry can conflict: none goes through add
    entry = ((0, "intercepted"), (1, "intercepted"))
    known._entries = {p: entry[bit] for p, bit in enumerate(intercepted.raw)}
    return known


def phase1_reconstruct(
    intercepted: BitSeq,
    ca_pair: tuple[RuleVector, RuleVector],
    l1: int,
    table: FieldTable,
) -> tuple[KnownBits, tuple[Phase1Record, ...]]:
    """Extend the intercepted prefix with every bit the window identities pin down.

    The identities are `_identities`'s.  Shift-and-add turns each window sum into
    a single column bit, usually far beyond the prefix; a bit that contradicts
    one already known raises ConflictingReconstruction.
    """
    _require_zero_origin(intercepted)
    d = 1 << (l1 - 1)
    period = d * table.order
    known = _intercepted_bits(intercepted, period)
    raw, r = intercepted.raw, len(intercepted)
    records = []
    for ca_idx, cell, power, offsets, shift in _identities(ca_pair, d, r, table):
        produced = []
        for t in range(r - offsets[-1]):
            value = 0
            for o in offsets:
                value ^= raw[t + o]
            pos = (t + offsets[0] + d * shift) % period
            if known.add(pos, value, "reconstructed"):
                produced.append(pos)
        if produced:
            records.append(Phase1Record(ca_idx, cell, power, offsets, shift, tuple(produced)))
    return known, tuple(records)


def _phase1_positions(
    r: int, ca_pair: tuple[RuleVector, RuleVector], l1: int, table: FieldTable
) -> tuple[tuple[int, ...], tuple[Phase1Record, ...]]:
    """Phase 1's reconstructed positions and records on an r-bit prefix of a real keystream.

    A real keystream satisfies every identity, so phase 1 on it raises no
    conflict, and `KnownBits.add` reports a new position whatever its bit: each
    identity produces the positions (t + offsets[0] + d * shift) mod period,
    t < r - offsets[-1], that neither the prefix nor an earlier identity holds.
    No bit is read.
    """
    d = 1 << (l1 - 1)
    period = d * table.order
    known: set[int] = set()
    records = []
    for ca_idx, cell, power, offsets, shift in _identities(ca_pair, d, r, table):
        # start < period, so the part of the run that wraps lies below r
        start = (offsets[0] + d * shift) % period
        run = range(max(start, r), min(start + r - offsets[-1], period))
        produced = tuple(p for p in run if p not in known)
        if produced:
            known.update(produced)
            records.append(Phase1Record(ca_idx, cell, power, offsets, shift, produced))
    return tuple(sorted(known)), tuple(records)


def is2_bit_positions(l1: int, l2: int, distance: int | None = None) -> tuple[int, ...]:
    """PN-column rows holding SR2's seed bits b_0 .. b_(l2-1).

    Row j_i satisfies j_i * distance = i mod 2^l2 - 1; the default distance
    is the plain-shrinking value 2^l1 - 1.
    """
    if l1 < 1 or l2 < 1:
        raise ValueError("register lengths must be >= 1")
    nrows = (1 << l2) - 1
    dist = ((1 << l1) - 1) if distance is None else distance
    dist %= nrows
    try:
        inv = pow(dist, -1, nrows)
    except ValueError as exc:
        raise NonInvertible(f"distance {dist} is not invertible mod {nrows}") from exc
    return tuple(i * inv % nrows for i in range(l2))


@dataclass(frozen=True)
class HypothesisRecord:
    """One SR1-hypothesis check: which column was tested and how it fared."""

    prefix: tuple[int, ...]
    column: int | None
    shift: int | None
    outcome: str
    row: int | None = None


@dataclass
class Phase2Result:
    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]]
    nodes_expanded: int
    records: tuple[HypothesisRecord, ...]


def _sr1_ring(c1: Gf2Poly) -> tuple[bytes, dict[bytes, int]]:
    """2 N1 + l1 output bits of SR1, N1 = 2^l1 - 1, and each l1-bit window's offset.

    c1 is primitive, so every nonzero seed is one window of the period:
    seed s starts at i = offsets[bytes(s)], and ring[i : i + N1 + l1] is
    lfsr_bytes(c1, s, N1 + l1).
    """
    l1 = c1.degree
    nper = (1 << l1) - 1
    ring = lfsr_bytes(c1, (1,) + (0,) * (l1 - 1), 2 * nper + l1)
    return ring, {ring[i : i + l1]: i for i in range(nper)}


def _sr1_clock(c1: Gf2Poly, taps: Sequence[int]) -> Callable[..., Iterator[int]]:
    """SR2's advance at SR1's 1s number start .. stop - 1 (stop <= d) of one period, from any seed.

    Each seed's SR1 output is a window of one ring (`_sr1_ring`), so its
    advances are differences of one clock over that ring: from the seed's
    offset `at`, its c-th 1 is the ring's (k + c)-th, k the ring's 1s before
    `at`, and SR2 has advanced clock[ones[k + c]] - clock[at] by then.  The
    ring holds N1 + l1 bits past every offset, so every clock entry a window
    reads fixes each of its taps.
    """
    ring, ring_at = _sr1_ring(c1)
    clock = clock_advances(ring, taps)
    ones = list(compress(range(len(ring)), ring))
    d = 1 << (c1.degree - 1)

    def advances(seed: bytes, start: int, stop: int = d) -> Iterator[int]:
        at = ring_at[seed]
        k, base = bisect_left(ones, at), clock[at]
        return (clock[i] - base for i in ones[k + start : k + stop])

    return advances


def _columns_due(prefix: Sequence[int], taps: Sequence[int]) -> int:
    """Columns an SR1 prefix of fewer than l1 bits makes due: its 1s at steps t <= len - max(taps).

    Step t reads bit t + max(taps) at most, so the prefix fixes SR2's advance
    up to there; a prefix shorter than max(taps) fixes none.
    """
    return sum(prefix[: max(len(prefix) - max(taps, default=0) + 1, 0)])


def phase2_search(known: KnownBits, spec: GeneratorSpec, table: FieldTable) -> Phase2Result:
    """Depth-first SR1 hypothesis search with column-consistency pruning.

    nodes_expanded counts complete SR1 candidates examined; pruned
    prefixes never contribute.  Candidate order follows the search:
    earlier next-1 placements first.
    """
    l1, l2 = spec.l1, spec.l2
    d = 1 << (l1 - 1)
    nrows = table.order
    jrows = is2_bit_positions(l1, l2, coset_exponent(l1, len(spec.taps)))
    inv = jrows[1]
    advances = _sr1_clock(spec.c1, spec.taps)

    cols = known.columns(d)
    base_rows = cols[0]

    # pn row q as a linear form over the column-0 seed (pn_0 .. pn_(l2-1)):
    # the coefficients of x^q mod base, which is alpha^q; hypotheses revisit rows
    form = lru_cache(maxsize=None)(table.element)
    top, modulus = 1 << table.m, table.modulus.mask

    base_sys = Gf2LinearSystem(l2)
    for q, bit in base_rows.items():
        if not base_sys.add(form(q), bit):
            raise Exhausted(f"column-0 bits are linearly inconsistent at row {q}")

    records: list[HypothesisRecord] = []
    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    nodes = 0

    def check_column(
        cidx: int, shift: int, sys: Gf2LinearSystem, prefix: tuple[int, ...]
    ) -> Gf2LinearSystem | None:
        colbits = cols[cidx].items()
        for q, bit in colbits:
            if base_rows.get((q + shift) % nrows, bit) != bit:
                records.append(HypothesisRecord(prefix, cidx, shift, "rejected", q))
                return None
        # a determined system is only evaluated, never changed, so it is shared
        merged = sys if sys.solution is not None else sys.copy()
        prev, vec = -2, 0
        for q, bit in colbits:
            if q == prev + 1:  # the next row along a run: form(q + shift) = x form(q - 1 + shift)
                vec <<= 1
                if vec & top:
                    vec ^= modulus
            else:
                vec = form((q + shift) % nrows)
            prev = q
            if not merged.add(vec, bit):
                records.append(HypothesisRecord(prefix, cidx, shift, "rejected", q))
                return None
        records.append(HypothesisRecord(prefix, cidx, shift, "accepted"))
        return merged

    def visit(a_bits: list[int], sys: Gf2LinearSystem, next_col: int) -> None:
        """Check the columns SR1 bits a_bits make due, then place the next 1.

        Column c belongs to SR1's c-th 1; a complete hypothesis makes every
        column due.  The clock reads a prefix at the prefix padded with 0s
        to a seed, whose SR1 output starts with the prefix.
        """
        nonlocal nodes
        k, prefix = len(a_bits), tuple(a_bits)
        if k == l1:
            nodes += 1
        stop = d if k == l1 else _columns_due(a_bits, spec.taps)
        seed = bytes(a_bits + [0] * (l1 - k))
        for col, adv in enumerate(advances(seed, next_col, stop), next_col):
            sys = check_column(col, adv * inv % nrows, sys, prefix)
            if sys is None:
                return
        if k < l1:
            for pos in range(k, l1):
                visit(a_bits + [0] * (pos - k) + [1], sys, stop)
            visit(a_bits + [0] * (l1 - k), sys, stop)
            return
        # the forms at jrows are lambda^0 .. lambda^(l2-1), a basis: distinct
        # solutions give distinct seeds
        for sol in sys.solutions():
            is2 = tuple((form(j) & sol).bit_count() & 1 for j in jrows)
            if any(is2):
                candidates.append((prefix, is2))
                records.append(HypothesisRecord(prefix, None, None, "survivor"))

    visit([1], base_sys, 0)
    if not candidates:
        raise Exhausted("no SR1/SR2 seed pair survives the column checks")
    return Phase2Result(candidates, nodes, tuple(records))


@dataclass(frozen=True)
class AttackResult:
    """Recovered seeds, what each phase did, and the public spec they belong to."""

    is1: tuple[int, ...]
    is2: tuple[int, ...]
    reconstructed_positions: tuple[int, ...]
    nodes_expanded: int
    phase1_records: tuple[Phase1Record, ...]
    phase2_records: tuple[HypothesisRecord, ...]
    spec: GeneratorSpec

    def keystream_blocks(self, table: bytes | None = None) -> Iterable[bytes]:
        """One full keystream period from the recovered seeds, in consecutive blocks of rows.

        Regenerated on each call: the SR2 period and its decimated column are
        built before this returns, and each block as it is read, so the
        period is never held whole.  The blocks are 0/1 bytes, or with a
        table (as for bytes.translate) its images of 0 and 1.
        """
        spec = self.spec.with_seeds(self.is1, self.is2)
        return _window(spec, ((1 << spec.l2) - 1) << (spec.l1 - 1), 0, table)

    @property
    def keystream(self) -> BitSeq:
        """One full keystream period, d (2^l2 - 1) bits, regenerated on each read.

        It is `keystream_blocks()` joined into one BitSeq, so a read holds the
        period at one byte a bit; the CLI writes the blocks instead.
        """
        return _joined(self.keystream_blocks(), 0)


def full_attack(intercepted: BitSeq, spec: GeneratorSpec) -> AttackResult:
    """Recover both seeds from an intercepted prefix and public parameters.

    Phase 2 searches the intercepted bits alone; phase 1 then only names the
    positions its identities determine.  A phase-1 bit adds no rank to the
    search: it is the XOR of intercepted bits in its own column, at that
    column's shift, so its equation is a sum of equations the same node holds.
    Candidates and nodes_expanded are therefore those of a search on phase 1's
    bits.  When a candidate regenerates the prefix, the prefix is a real
    keystream, which no identity contradicts, so phase 1's records and
    positions follow from positions alone.

    Raises DegenerateCoset when the coset base is not primitive (the
    exponent shares a factor with 2^l2 - 1), before any field is built;
    Exhausted when nothing fits (e.g. tampered material), from the search
    or from regeneration; Ambiguous when several seed pairs fit.  Phase 1
    with its bits is never run, so a prefix it would contradict fails as
    Exhausted, not ConflictingReconstruction.  The result's keystream is
    not built here: reading it regenerates the period.
    """
    _require_zero_origin(intercepted)
    d, n = 1 << (spec.l1 - 1), len(intercepted)
    if n < d:
        raise ValueError(f"need at least {d} intercepted bits, got {n}")
    model = linearize_model(spec.l1, spec.c2, len(spec.taps))
    e = coset_exponent(spec.l1, len(spec.taps))
    shared = math.gcd(e, (1 << spec.l2) - 1)
    if shared != 1:  # lambda^e then has order below 2^l2 - 1
        raise DegenerateCoset(
            f"coset base {model.base.to_text()} of exponent {e} over c2 = {spec.c2.to_text()}"
            f" is not primitive: gcd({e}, 2^{spec.l2} - 1) = {shared}"
        )
    table = FieldTable.build(model.base)
    result = phase2_search(_intercepted_bits(intercepted, d * table.order), spec, table)
    fits = [
        (is1, is2)
        for is1, is2 in result.candidates
        if _interleave(spec.with_seeds(is1, is2), n).raw == intercepted.raw
    ]
    if not fits:
        raise Exhausted("every surviving candidate failed regeneration")
    if len(fits) > 1:
        raise Ambiguous(fits, result.nodes_expanded)
    positions, p1records = _phase1_positions(n, model.pair, spec.l1, table)
    is1, is2 = fits[0]
    return AttackResult(
        is1=is1,
        is2=is2,
        reconstructed_positions=positions,
        nodes_expanded=result.nodes_expanded,
        phase1_records=p1records,
        phase2_records=result.records,
        spec=spec,
    )
