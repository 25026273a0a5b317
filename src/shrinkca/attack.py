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
from itertools import compress
from typing import Sequence

from .engines import BitSeq, lfsr_bytes
from .generators import GeneratorSpec, ccsg_generate, clock_advances, shrink_generate
from .gf2 import FieldTable, Gf2LinearSystem, Gf2Poly, RuleVector, min_poly_of_power
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


def phase1_reconstruct(
    intercepted: BitSeq,
    ca_pair: tuple[RuleVector, RuleVector],
    l1: int,
    table: FieldTable,
) -> tuple[KnownBits, tuple[Phase1Record, ...]]:
    """Extend the intercepted prefix with every bit the window identities pin down.

    The identities are the powers of each sub-automaton polynomial P = P_(cell-1),
    stepped once per automaton by P_i = (x + R_i) P_(i-1) + P_(i-2).  P^k stays in
    one interleaving column (its offsets agree modulo d = 2^(l1-1)) exactly when
    step = max(d >> a, 1) divides k, 2^a the largest power of two dividing every
    exponent of P / x^u, u the lowest; only those powers are built.  Shift-and-add
    turns the window sum into a single column bit, usually far beyond the prefix.
    """
    if intercepted.origin != 0:
        raise ValueError("interception must start at keystream position 0")
    d = 1 << (l1 - 1)
    period = d * table.order
    r = len(intercepted)
    if r < 1 or r > period:
        raise ValueError(f"intercepted length must be in [1, {period}]")
    known = KnownBits(period)
    for p, bit in enumerate(intercepted):
        known.add(p, bit, "intercepted")
    records = []
    for ca_idx, rv in enumerate(ca_pair):
        prev2, prev = 0, 1
        for cell in range(2, len(rv) + 1):
            if cell > r:
                break
            prev2, prev = prev, (prev << 1) ^ (prev if rv.bits[cell - 2] else 0) ^ prev2
            # P / x^u = S(x^(2^a)) with S not a square.  For k = 2^c m, m odd,
            # S^k = S^m(x^(2^c)) and S^m is no square (its derivative S^(m-1) S'
            # is nonzero), so d divides every exponent of P^k / x^(uk) exactly when
            # d | 2^a k, that is when step = max(d >> a, 1) divides k.  coeffs[s::2s]
            # holds the terms x^e of P / x^u with e = s mod 2s: span ends at min(2^a, d).
            coeffs = format(prev, "b")[::-1].lstrip("0")
            span = 1
            while span < d and "1" not in coeffs[span :: 2 * span]:
                span *= 2
            step, top = d // span, (r - 1) // (cell - 1)
            if coeffs == "1" or step > top:  # one term, or no window fits
                continue
            acc = base = Gf2Poly(prev) ** step
            for power in range(step, top + 1, step):
                poly, acc = acc, acc * base
                offsets = poly.exponents()
                shift = table.power_sum((o - offsets[0]) // d for o in offsets)
                if shift is None:
                    continue
                produced = []
                for t in range(r - offsets[-1]):
                    value = 0
                    for o in offsets:
                        value ^= intercepted[t + o]
                    pos = (t + offsets[0] + d * shift) % period
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

    cols = known.columns(d)
    base_rows = cols[0]

    # pn row q as a linear form over the column-0 seed (pn_0 .. pn_(l2-1)):
    # the coefficients of x^q mod base, which is antilog[q]
    vvecs = table.antilog

    base_sys = Gf2LinearSystem(l2)
    for q, bit in base_rows.items():
        if not base_sys.add(vvecs[q], bit):
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
        merged = sys.copy()
        for q, bit in colbits:
            if not merged.add(vvecs[(q + shift) % nrows], bit):
                records.append(HypothesisRecord(prefix, cidx, shift, "rejected", q))
                return None
        records.append(HypothesisRecord(prefix, cidx, shift, "accepted"))
        return merged

    def flush(
        bits: Sequence[int], sys: Gf2LinearSystem, next_col: int, prefix: tuple[int, ...]
    ) -> tuple[Gf2LinearSystem | None, int]:
        """Run the column checks the SR1 bits make due, in order.

        Column c belongs to SR1's c-th 1; it is due once the bits fix SR2's
        advance up to that step.  Returns (system or None, next column).
        """
        adv = clock_advances(bits, spec.taps)
        due = list(compress(adv, bits))[:d]
        for col in range(next_col, len(due)):
            nxt = check_column(col, due[col] * inv % nrows, sys, prefix)
            if nxt is None:
                return None, col
            sys = nxt
        return sys, len(due)

    def complete(a_bits: list[int], sys: Gf2LinearSystem, next_col: int) -> None:
        nonlocal nodes
        nodes += 1
        is1 = tuple(a_bits)
        sys2, ncol = flush(lfsr_bytes(spec.c1, is1, nper + l1), sys, next_col, is1)
        if sys2 is None:
            return
        assert ncol == d
        # the forms at jrows are lambda^0 .. lambda^(l2-1), a basis: distinct
        # solutions give distinct seeds
        for sol in sys2.solutions():
            is2 = tuple((vvecs[j] & sol).bit_count() & 1 for j in jrows)
            if any(is2):
                candidates.append((is1, is2))
                records.append(HypothesisRecord(is1, None, None, "survivor"))

    def descend(a_bits: list[int], sys: Gf2LinearSystem, next_col: int) -> None:
        filled = len(a_bits)
        for pos in range(filled, l1):
            branch = a_bits + [0] * (pos - filled) + [1]
            if len(branch) == l1:
                complete(branch, sys, next_col)
                continue
            sys2, ncol = flush(branch, sys, next_col, tuple(branch))
            if sys2 is None:
                continue
            descend(branch, sys2, ncol)
        complete(a_bits + [0] * (l1 - filled), sys, next_col)

    start_sys, start_col = flush([1], base_sys, 0, (1,))
    if start_sys is not None:
        descend([1], start_sys, start_col)
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
