"""Known-plaintext state recovery for (clock-controlled) shrinking generators.

Input: public parameters (register lengths, feedback polynomials, clock
taps) and an intercepted keystream prefix starting at position 0.  The
keystream is viewed as an interleaving of d = 2^(l1-1) columns, every one
a shifted copy of a single PN sequence of period 2^l2 - 1.

Phase 1 grows the known-bit set without guessing: window identities taken
from the 90/150 model's sub-automaton polynomials collapse, via
shift-and-add in GF(2^l2), into single keystream bits outside the
intercepted prefix.

Phase 2 recovers the seeds.  Hypotheses on SR1 place the 1s of its output
period, which fixes each column's shift against column 0; a hypothesis
survives if its column bits match column 0 directly (stage one) and stay
consistent when merged into a GF(2) linear system over the column-0 seed
(stage two).  Survivors are completed to SR2 seeds by solving that system
at the decimation-inverse rows, then verified by regeneration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .engines import BitSeq, lfsr_bit_iter
from .generators import GeneratorSpec, ccsg_generate, shrink_generate
from .gf2 import FieldTable, Gf2LinearSystem, RuleVector, continuant_poly, min_poly_of_power
from .linearize import coset_exponent, linearize_generator

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

    def column_bits(self, column: int, stride: int) -> dict[int, int]:
        """Known bits of one interleaving column, keyed by row index."""
        out = {}
        for p, (bit, _) in self._entries.items():
            if p % stride == column:
                out[p // stride] = bit
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
    return (continuant_poly(rules.bits[: cell - 1]) ** power).exponents()


def phase1_reconstruct(
    intercepted: BitSeq,
    ca_pair: tuple[RuleVector, RuleVector],
    l1: int,
    table: FieldTable,
) -> tuple[KnownBits, tuple[Phase1Record, ...]]:
    """Extend the intercepted prefix with every bit the window identities pin down.

    Windows whose offsets agree modulo d = 2^(l1-1) stay inside one
    interleaving column; shift-and-add turns the window sum into a single
    column bit, usually far beyond the prefix.
    """
    if intercepted.origin != 0:
        raise ValueError("interception must start at keystream position 0")
    d = 1 << (l1 - 1)
    nrows = table.order
    period = d * nrows
    r = len(intercepted)
    if r < 1 or r > period:
        raise ValueError(f"intercepted length must be in [1, {period}]")
    known = KnownBits(period)
    for p, bit in enumerate(intercepted):
        known.add(p, bit, "intercepted")
    records = []
    for ca_idx, rv in enumerate(ca_pair):
        for cell in range(2, len(rv) + 1):
            if cell - 1 > r - 1:
                break
            base = continuant_poly(rv.bits[: cell - 1])
            acc = base
            for power in range(1, (r - 1) // (cell - 1) + 1):
                offsets = acc.exponents()
                acc = acc * base
                if len(offsets) < 2:
                    continue
                residue = offsets[0] % d
                if any(o % d != residue for o in offsets[1:]):
                    continue
                shift = table.power_sum((o - offsets[0]) // d for o in offsets)
                if shift is None:
                    continue
                produced = []
                for t in range(r - offsets[-1]):
                    value = 0
                    for o in offsets:
                        value ^= intercepted[t + o]
                    col = (t + offsets[0]) % d
                    row = (t + offsets[0]) // d
                    pos = col + d * ((row + shift) % nrows)
                    if known.add(pos, value, "reconstructed"):
                        produced.append(pos)
                if produced:
                    records.append(
                        Phase1Record(ca_idx, cell, power, offsets, shift, tuple(produced))
                    )
    return known, tuple(records)


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


def phase2_search(known: KnownBits, spec: GeneratorSpec, table: FieldTable) -> Phase2Result:
    """Depth-first SR1 hypothesis search with column-consistency pruning.

    nodes_expanded counts complete SR1 candidates examined; pruned
    prefixes never contribute.  Candidate order follows the search:
    earlier next-1 placements first.
    """
    l1, l2 = spec.l1, spec.l2
    d = 1 << (l1 - 1)
    nrows = table.order
    nper = (1 << l1) - 1
    jrows = is2_bit_positions(l1, l2, coset_exponent(l1, len(spec.taps)))
    inv = jrows[1]

    cols = [known.column_bits(c, d) for c in range(d)]
    base_rows = dict(cols[0])

    # pn row q as a linear form over the column-0 seed (pn_0 .. pn_(l2-1)):
    # the coefficients of x^q mod base, which is antilog[q]
    vvecs = table.antilog

    base_sys = Gf2LinearSystem(l2)
    for q in sorted(base_rows):
        if not base_sys.add(vvecs[q], base_rows[q]):
            raise Exhausted(f"column-0 bits are linearly inconsistent at row {q}")

    max_tap = max(spec.taps) if spec.taps else 0
    records: list[HypothesisRecord] = []
    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    nodes = 0

    def clock_prefix(bits: list[int], pos: int) -> int:
        """Total SR2 advance before the kept bit at SR1 step pos."""
        if not spec.taps:
            return pos
        total = 0
        for t in range(pos):
            x = 1
            for k, tap in enumerate(spec.taps):
                x += bits[t + tap] << k
            total += x
        return total

    def check_column(
        cidx: int, shift: int, sys: Gf2LinearSystem, prefix: tuple[int, ...]
    ) -> Gf2LinearSystem | None:
        colbits = cols[cidx]
        for q in sorted(colbits):
            row = (q + shift) % nrows
            if row in base_rows and base_rows[row] != colbits[q]:
                records.append(HypothesisRecord(prefix, cidx, shift, "rejected", q))
                return None
        merged = sys.copy()
        for q in sorted(colbits):
            if not merged.add(vvecs[(q + shift) % nrows], colbits[q]):
                records.append(HypothesisRecord(prefix, cidx, shift, "rejected", q))
                return None
        records.append(HypothesisRecord(prefix, cidx, shift, "accepted"))
        return merged

    def flush(
        a_bits: list[int],
        ones: list[int],
        sys: Gf2LinearSystem,
        next_col: int,
        prefix: tuple[int, ...],
    ) -> tuple[Gf2LinearSystem | None, int]:
        """Run due column checks in order; returns (system or None, next column)."""
        while next_col < len(ones):
            pos = ones[next_col]
            if pos + max_tap > len(a_bits):
                break
            shift = clock_prefix(a_bits, pos) * inv % nrows
            nxt = check_column(next_col, shift, sys, prefix)
            if nxt is None:
                return None, next_col
            sys = nxt
            next_col += 1
        return sys, next_col

    def complete(a_bits: list[int], sys: Gf2LinearSystem, next_col: int) -> None:
        nonlocal nodes
        nodes += 1
        is1 = tuple(a_bits)
        full = list(islice(lfsr_bit_iter(spec.c1, is1), nper + l1))
        ones = [t for t in range(nper) if full[t]]
        assert len(ones) == d
        sys2, ncol = flush(full, ones, sys, next_col, is1)
        if sys2 is None:
            return
        assert ncol == len(ones)
        values = [sys2.value_of(vvecs[j]) for j in jrows]
        if all(v is not None for v in values):
            seeds = [tuple(values)]
        else:
            seen = []
            for sol in sys2.solutions():
                cand = tuple((vvecs[j] & sol).bit_count() & 1 for j in jrows)
                if cand not in seen:
                    seen.append(cand)
            seeds = seen
        for is2 in seeds:
            if not any(is2):
                continue
            candidates.append((is1, is2))
            records.append(HypothesisRecord(is1, None, None, "survivor"))

    def descend(
        a_bits: list[int], ones: list[int], sys: Gf2LinearSystem, next_col: int
    ) -> None:
        filled = len(a_bits)
        if filled == l1:
            complete(a_bits, sys, next_col)
            return
        for pos in range(filled, l1):
            branch = a_bits + [0] * (pos - filled) + [1]
            if len(branch) == l1:
                complete(branch, sys, next_col)
                continue
            sys2, ncol = flush(branch, ones + [pos], sys, next_col, tuple(branch))
            if sys2 is None:
                continue
            descend(branch, ones + [pos], sys2, ncol)
        descend(a_bits + [0] * (l1 - filled), ones, sys, next_col)

    start_sys, start_col = flush([1], [0], base_sys, 0, (1,))
    if start_sys is not None:
        descend([1], [0], start_sys, start_col)
    if not candidates:
        raise Exhausted("no SR1/SR2 seed pair survives the column checks")
    return Phase2Result(candidates, nodes, tuple(records))


@dataclass(frozen=True)
class AttackResult:
    is1: tuple[int, ...]
    is2: tuple[int, ...]
    keystream: BitSeq
    reconstructed_positions: tuple[int, ...]
    nodes_expanded: int
    phase1_records: tuple[Phase1Record, ...]
    phase2_records: tuple[HypothesisRecord, ...]


def full_attack(intercepted: BitSeq, spec: GeneratorSpec) -> AttackResult:
    """Recover both seeds from an intercepted prefix and public parameters.

    Raises Exhausted when nothing fits (e.g. tampered material),
    Ambiguous when several seed pairs fit, ConflictingReconstruction when
    phase 1 derives contradictory bits.
    """
    d = 1 << (spec.l1 - 1)
    if len(intercepted) < d:
        raise ValueError(f"need at least {d} intercepted bits, got {len(intercepted)}")
    pair = linearize_generator(spec.l1, spec.c2, len(spec.taps))
    base = min_poly_of_power(spec.c2, coset_exponent(spec.l1, len(spec.taps)))
    table = FieldTable.build(base)
    known, p1records = phase1_reconstruct(intercepted, pair, spec.l1, table)
    result = phase2_search(known, spec, table)
    generate = ccsg_generate if spec.taps else shrink_generate
    verified = []
    for is1, is2 in result.candidates:
        if generate(spec.with_seeds(is1, is2), len(intercepted)).raw == intercepted.raw:
            verified.append((is1, is2))
    if not verified:
        raise Exhausted("every surviving candidate failed regeneration")
    if len(verified) > 1:
        raise Ambiguous(verified, result.nodes_expanded)
    is1, is2 = verified[0]
    period = d * table.order
    keystream = generate(spec.with_seeds(is1, is2), period)
    return AttackResult(
        is1=is1,
        is2=is2,
        keystream=keystream,
        reconstructed_positions=known.positions("reconstructed"),
        nodes_expanded=result.nodes_expanded,
        phase1_records=p1records,
        phase2_records=result.records,
    )
