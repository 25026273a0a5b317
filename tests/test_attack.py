import hashlib
import itertools
import math
import random
import tracemalloc
import warnings

import pytest

from shrinkca.attack import (
    Ambiguous,
    ConflictingReconstruction,
    Exhausted,
    KnownBits,
    NonInvertible,
    Phase1Record,
    _column_span,
    _columns_due,
    _span_masks,
    _sr1_clock,
    _sr1_ring,
    full_attack,
    is2_bit_positions,
    phase1_reconstruct,
    phase2_search,
    subtriangle_expressions,
)
from shrinkca.engines import BitSeq, lfsr_bytes
from shrinkca import attack
from shrinkca.gf2 import (
    FieldTable,
    Gf2Poly,
    NonPrimitiveModulus,
    RuleVector,
    is_primitive,
    min_poly_of_power,
)
from shrinkca.generators import (
    GeneratorSpec,
    _clocked_steps,
    _interleave,
    ccsg_generate,
    clock_advances,
    shrink_generate,
)
from shrinkca.linearize import (
    DegenerateCoset,
    coset_exponent,
    linearize_generator,
    linearize_model,
)

INTERCEPT = "101000011001110011010011"
RECONSTRUCTED = tuple(range(56, 64)) + tuple(range(152, 168)) + tuple(range(184, 192))


def public_spec() -> GeneratorSpec:
    return GeneratorSpec(4, 5, Gf2Poly.parse("0,3,4"), Gf2Poly.parse("0,1,3,4,5"))


def true_spec() -> GeneratorSpec:
    return public_spec().with_seeds((1, 0, 0, 1), (1, 0, 1, 0, 1))


def phase1_setup():
    pub = public_spec()
    pair = linearize_generator(pub.l1, pub.c2)
    table = FieldTable.build(min_poly_of_power(pub.c2, 15))
    return pub, pair, table


class TestKnownBits:
    def test_add_and_query(self):
        kb = KnownBits(60)
        assert kb.add(3, 1, "intercepted")
        assert not kb.add(3, 1, "reconstructed")  # same value, not new
        assert kb.get(3) == 1
        assert 3 in kb
        assert 4 not in kb
        assert len(kb) == 1
        assert kb.provenance(3) == "intercepted"

    def test_conflict_raises(self):
        kb = KnownBits(60)
        kb.add(3, 1, "intercepted")
        with pytest.raises(ConflictingReconstruction):
            kb.add(3, 0, "reconstructed")

    def test_columns(self):
        kb = KnownBits(24)
        kb.add(2, 1, "intercepted")
        kb.add(10, 0, "intercepted")
        kb.add(18, 1, "intercepted")
        kb.add(5, 1, "intercepted")
        cols = kb.columns(8)
        assert cols == [{}, {}, {0: 1, 1: 0, 2: 1}, {}, {}, {0: 1}, {}, {}]
        assert [list(col) for col in cols] == [[], [], [0, 1, 2], [], [], [0], [], []]

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError, match="period must be positive"):
            KnownBits(0)

    @pytest.mark.parametrize("position", [-1, 24])
    def test_position_outside_the_period(self, position):
        kb = KnownBits(24)
        with pytest.raises(ValueError, match="outside one period"):
            kb.add(position, 1, "intercepted")
        assert len(kb) == 0

    def test_bit_must_be_0_or_1(self):
        kb = KnownBits(24)
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            kb.add(3, 2, "intercepted")
        assert 3 not in kb

    def test_positions_by_provenance(self):
        kb = KnownBits(24)
        kb.add(0, 1, "intercepted")
        kb.add(9, 0, "reconstructed")
        assert set(kb.positions()) == {0, 9}
        assert set(kb.positions("reconstructed")) == {9}


class TestSubtriangles:
    def test_power_one_is_continuant(self):
        _, pair, _ = phase1_setup()
        assert subtriangle_expressions(pair[1], 3, 1) == (0, 1, 2)
        assert subtriangle_expressions(pair[0], 3, 1) == (0, 2)

    def test_squaring_doubles_offsets(self):
        _, pair, _ = phase1_setup()
        assert subtriangle_expressions(pair[0], 3, 2) == (0, 4)
        assert subtriangle_expressions(pair[0], 3, 4) == (0, 8)
        assert subtriangle_expressions(pair[0], 3, 8) == (0, 16)
        assert subtriangle_expressions(pair[1], 3, 4) == (0, 4, 8)


class TestIs2Positions:
    def test_goldens(self):
        assert is2_bit_positions(4, 5) == (0, 29, 27, 25, 23)
        assert is2_bit_positions(2, 3) == (0, 5, 3)

    def test_rows_recover_register_bits(self):
        # column 0 at row j_i carries SR2 seed bit i when the control seed leads with 1
        pub = true_spec()
        z = list(shrink_generate(pub, 248))
        assert [z[8 * j] for j in is2_bit_positions(4, 5)] == list(pub.is2)

    def test_non_invertible_distance(self):
        with pytest.raises(NonInvertible):
            is2_bit_positions(2, 4, distance=5)


class TestPhase1:
    def test_exact_positions(self):
        pub, pair, table = phase1_setup()
        known, records = phase1_reconstruct(BitSeq.parse(INTERCEPT), pair, 4, table)
        assert len(known) == 24 + 32
        assert set(known.positions("reconstructed")) == set(RECONSTRUCTED)

    def test_values_match_ground_truth(self):
        pub, pair, table = phase1_setup()
        known, _ = phase1_reconstruct(BitSeq.parse(INTERCEPT), pair, 4, table)
        z = list(shrink_generate(true_spec(), 248))
        for p in known.positions():
            assert known.get(p) == z[p]

    def test_row_values(self):
        # reconstructed interleaving rows, column-major, rows 7, 19, 20, 23
        pub, pair, table = phase1_setup()
        known, _ = phase1_reconstruct(BitSeq.parse(INTERCEPT), pair, 4, table)
        rows = {7: "01110010", 19: "00111101", 20: "01001111", 23: "11101110"}
        for row, bits in rows.items():
            assert [known.get(8 * row + c) for c in range(8)] == [int(b) for b in bits]

    def test_record_ledger(self):
        pub, pair, table = phase1_setup()
        _, records = phase1_reconstruct(BitSeq.parse(INTERCEPT), pair, 4, table)
        summary = {(r.ca, r.cell, r.power, r.offsets, r.row_shift) for r in records}
        assert summary == {
            (0, 3, 4, (0, 8), 19),
            (0, 3, 8, (0, 16), 7),
            (0, 5, 4, (0, 8, 16), 23),
        }

    def test_requires_zero_origin(self):
        pub, pair, table = phase1_setup()
        with pytest.raises(ValueError):
            phase1_reconstruct(BitSeq((1, 0), origin=3), pair, 4, table)

    def test_soundness_random_lengths(self):
        # every reconstructed bit equals ground truth, any prefix length
        pub, pair, table = phase1_setup()
        z = list(shrink_generate(true_spec(), 248))
        for r in range(1, 60, 7):
            known, _ = phase1_reconstruct(BitSeq(tuple(z[:r])), pair, 4, table)
            for p in known.positions():
                assert known.get(p) == z[p]


def phase1_every_power(intercepted, pair, l1, table):
    """Phase 1 by its definition: every power of every sub-automaton polynomial,
    kept when its offsets agree modulo d and its column power sum is nonzero."""
    d = 1 << (l1 - 1)
    nrows = table.order
    r = len(intercepted)
    known = KnownBits(d * nrows)
    for p, bit in enumerate(intercepted):
        known.add(p, bit, "intercepted")
    records = []
    for ca, rv in enumerate(pair):
        for cell in range(2, min(len(rv), r) + 1):
            for power in range(1, (r - 1) // (cell - 1) + 1):
                offsets = subtriangle_expressions(rv, cell, power)
                if len(offsets) == 1 or any((o - offsets[0]) % d for o in offsets):
                    continue
                shift = table.power_sum((o - offsets[0]) // d for o in offsets)
                if shift is None:
                    continue
                produced = []
                for t in range(r - offsets[-1]):
                    value = sum(intercepted[t + o] for o in offsets) % 2
                    col, row = (t + offsets[0]) % d, (t + offsets[0]) // d
                    pos = col + d * ((row + shift) % nrows)
                    if known.add(pos, value, "reconstructed"):
                        produced.append(pos)
                if produced:
                    records.append(Phase1Record(ca, cell, power, offsets, shift, tuple(produced)))
    return known, tuple(records)


def phase1_outcome(fn, intercepted, pair, l1, table):
    """Records and every known bit with its provenance, or the conflict raised."""
    try:
        known, records = fn(intercepted, pair, l1, table)
    except ConflictingReconstruction as exc:
        return str(exc)
    return [(p, known.get(p), known.provenance(p)) for p in known.positions()], records


class TestPhase1Oracle:
    # (l1, l2, c1, c2): every tap count is in the attack's regime for these
    SMALL = [
        (1, 3, "0,1", "0,1,3"),
        (2, 3, "0,1,2", "0,1,3"),
        (3, 5, "0,2,3", "0,2,5"),
        (4, 5, "0,3,4", "0,1,3,4,5"),
        (5, 7, "0,2,5", "0,1,7"),
    ]
    # the public specs the attack-search benchmark workload attacks
    SEARCH = [
        (7, 9, "0,3,7", "0,1,4,5,6,8,9", (4,)),
        (7, 10, "0,1,2,3,7", "0,7,10", ()),
        (7, 11, "0,1,2,3,5,6,7", "0,2,3,4,5,8,11", (3,)),
        (8, 9, "0,1,2,3,6,7,8", "0,1,2,3,6,7,9", ()),
        (8, 11, "0,1,2,7,8", "0,4,5,8,9,10,11", ()),
    ]

    @staticmethod
    def check(pub, intercepts):
        w = len(pub.taps)
        pair = linearize_generator(pub.l1, pub.c2, w)
        table = FieldTable.build(min_poly_of_power(pub.c2, coset_exponent(pub.l1, w)))
        productive = 0
        for z in intercepts:
            expected = phase1_outcome(phase1_every_power, z, pair, pub.l1, table)
            assert phase1_outcome(phase1_reconstruct, z, pair, pub.l1, table) == expected, z
            productive += isinstance(expected, tuple) and bool(expected[1])
        return productive

    @pytest.mark.filterwarnings("ignore:tap count equals")
    @pytest.mark.parametrize("l1,l2,c1,c2", SMALL)
    def test_every_tap_count(self, l1, l2, c1, c2):
        rng = random.Random(l1)
        d = 1 << (l1 - 1)
        period = d * ((1 << l2) - 1)
        productive = 0
        for w in range(l1 + 1):
            pub = GeneratorSpec(l1, l2, Gf2Poly.parse(c1), Gf2Poly.parse(c2), taps=tuple(range(w)))
            gen = ccsg_generate if w else shrink_generate
            intercepts = []
            for r in (d, 3 * d, rng.randint(1, 8 * d), min(period, 256)):
                is1 = (1,) + tuple(rng.randrange(2) for _ in range(l1 - 1))
                is2 = (1,) + tuple(rng.randrange(2) for _ in range(l2 - 1))
                intercepts.append(BitSeq(gen(pub.with_seeds(is1, is2), r).raw))
                intercepts.append(BitSeq(tuple(rng.randrange(2) for _ in range(r))))
            productive += self.check(pub, intercepts)
        assert productive

    @pytest.mark.parametrize("l1,l2,c1,c2,taps", SEARCH)
    def test_search_specs(self, l1, l2, c1, c2, taps):
        rng = random.Random(l2)
        pub = GeneratorSpec(l1, l2, Gf2Poly.parse(c1), Gf2Poly.parse(c2), taps=taps)
        gen = ccsg_generate if taps else shrink_generate
        r = max(3 << (l1 - 1), 2 * (l1 + l2))
        intercepts = []
        for _ in range(2):
            is1 = (1,) + tuple(rng.randrange(2) for _ in range(l1 - 1))
            is2 = (1,) + tuple(rng.randrange(2) for _ in range(l2 - 1))
            intercepts.append(BitSeq(gen(pub.with_seeds(is1, is2), r).raw))
        assert self.check(pub, intercepts) == len(intercepts)


def identities_every_power(ca_pair, d, r, table):
    """`attack._identities` with its own power sum and discrete log for every power."""
    mask = _span_masks(d, r)
    for ca_idx, rv in enumerate(ca_pair):
        prev2, prev = 0, 1
        for cell in range(2, len(rv) + 1):
            if cell > r:
                break
            prev2, prev = prev, (prev << 1) ^ (prev if rv.bits[cell - 2] else 0) ^ prev2
            span = _column_span(prev, mask, d)
            if not span:
                continue
            step, top = d // span, (r - 1) // (cell - 1)
            if step > top:
                continue
            acc = base = Gf2Poly(prev) ** step
            for power in range(step, top + 1, step):
                poly, acc = acc, acc * base
                offsets = poly.exponents()
                shift = table.power_sum((o - offsets[0]) // d for o in offsets)
                if shift is not None:
                    yield ca_idx, cell, power, offsets, shift


class TestIdentitiesPerCell:
    @pytest.mark.filterwarnings("ignore:tap count equals")
    # l1 1..9 with l2 <= 13, as bench/differential.py draws them, and l1 1..6 with
    # l2 17..23; every tap count 0, 1, 2 and l1 at each l1, and r in d..8d
    @pytest.mark.parametrize("l2_low,l2_high,rounds", [(2, 13, 3), (17, 23, 1)])
    def test_one_log_per_cell_equals_one_per_power(self, l2_low, l2_high, rounds, monkeypatch):
        rng = random.Random(f"identities:{l2_low}")
        logs = []
        power_sum = FieldTable.power_sum
        monkeypatch.setattr(FieldTable, "power_sum", lambda t, e: logs.append(1) or power_sum(t, e))
        checked = 0
        for l1 in [l1 for l1 in range(1, 10 if l2_high <= 13 else 7) for _ in range(rounds)]:
            fields = [m for m in range(max(l1 + 1, l2_low), l2_high + 1) if math.gcd(l1, m) == 1]
            for w in sorted({0, 1, 2, l1} & set(range(l1 + 1))):
                l2 = rng.choice(fields)
                c2 = Gf2Poly(1 << l2 | rng.getrandbits(l2) | 1)
                while not is_primitive(c2):
                    c2 = Gf2Poly(1 << l2 | rng.getrandbits(l2) | 1)
                try:
                    model = linearize_model(l1, c2, w)
                    table = FieldTable.build(model.base)
                except (DegenerateCoset, NonPrimitiveModulus):
                    continue  # clocking regime this model cannot linearize
                d = 1 << (l1 - 1)
                r = rng.randint(d, 8 * d)
                logs.clear()
                got = list(attack._identities(model.pair, d, r, table))
                # one log per cell that holds a window; no sampled cell has Q(alpha) = 0
                assert len(logs) == len({(ca, cell) for ca, cell, *_ in got})
                assert got == list(identities_every_power(model.pair, d, r, table)), (l1, c2, w, r)
                checked += 1
        assert checked >= 20 * rounds


def string_span(poly: int, d: int) -> int:
    """The column span read off the coefficient string of poly / x^u: 0 for one term."""
    coeffs = format(poly, "b")[::-1].lstrip("0")
    if coeffs == "1":
        return 0
    span = 1
    while span < d and "1" not in coeffs[span :: 2 * span]:
        span *= 2
    return span


class TestColumnSpan:
    @pytest.mark.parametrize("l1", range(1, 10))
    def test_masks_agree_with_coefficient_string(self, l1):
        # sub-automaton polynomials of random rule vectors, raised to 2^j m and
        # shifted by x^u, so every span up to d occurs; r runs down to deg + 1
        rng = random.Random(f"span:{l1}")
        d = 1 << (l1 - 1)
        for _ in range(20):
            rv = RuleVector(tuple(rng.getrandbits(1) for _ in range(rng.randint(1, 24))))
            for cell in range(1, len(rv) + 1):
                base = RuleVector(rv.bits[:cell]).char_poly()
                poly = base ** (rng.choice((1, 3, 5)) << rng.randrange(l1 + 1))
                poly = poly.mask << rng.randrange(4)
                for r in (poly.bit_length(), poly.bit_length() + rng.randrange(1, 3 * d + 2)):
                    assert _column_span(poly, _span_masks(d, r), d) == string_span(poly, d)
        for u in range(3 * d):
            assert _column_span(1 << u, _span_masks(d, u + 1), d) == string_span(1 << u, d) == 0


class TestPhase2:
    def test_unique_survivor(self):
        pub, pair, table = phase1_setup()
        known, _ = phase1_reconstruct(BitSeq.parse(INTERCEPT), pair, 4, table)
        result = phase2_search(known, pub, table)
        assert result.candidates == [((1, 0, 0, 1), (1, 0, 1, 0, 1))]
        assert result.nodes_expanded == 4

    def test_rejections_with_rows(self):
        pub, pair, table = phase1_setup()
        known, _ = phase1_reconstruct(BitSeq.parse(INTERCEPT), pair, 4, table)
        result = phase2_search(known, pub, table)
        rejected = {
            r.prefix: (r.column, r.shift, r.row)
            for r in result.records
            if r.outcome == "rejected"
        }
        assert rejected == {
            (1, 0, 1): (1, 27, 23),
            (1, 0, 0, 0): (1, 23, 0),
            (1, 1, 1): (2, 27, 23),
            (1, 1, 0, 1): (2, 25, 1),
            (1, 1, 0, 0): (2, 23, 2),
        }

    def test_survivor_record_present(self):
        pub, pair, table = phase1_setup()
        known, _ = phase1_reconstruct(BitSeq.parse(INTERCEPT), pair, 4, table)
        result = phase2_search(known, pub, table)
        survivors = [r.prefix for r in result.records if r.outcome == "survivor"]
        assert survivors == [(1, 0, 0, 1)]

    def test_deterministic(self):
        pub, pair, table = phase1_setup()
        known, _ = phase1_reconstruct(BitSeq.parse(INTERCEPT), pair, 4, table)
        a = phase2_search(known, pub, table)
        b = phase2_search(known, pub, table)
        assert a.candidates == b.candidates
        assert a.records == b.records


class TestSr1Ring:
    @pytest.mark.parametrize("l1", range(1, 9))
    def test_windows_are_lfsr_outputs(self, l1):
        polys = [
            p
            for p in (Gf2Poly(1 << l1 | mask) for mask in range(1, 1 << l1, 2))
            if is_primitive(p)
        ][:3]
        nper = (1 << l1) - 1
        for c1 in polys:
            ring, offsets = _sr1_ring(c1)
            assert len(offsets) == nper
            for seed in nonzero_seeds(l1):
                at = offsets[bytes(seed)]
                assert ring[at : at + nper + l1] == lfsr_bytes(c1, seed, nper + l1), (c1, seed)


def clock_cases(l1: int):
    """(c1, taps) for three primitive c1 of degree l1 and the tap sets the attack meets."""
    polys = [
        p
        for p in (Gf2Poly(1 << l1 | mask) for mask in range(1, 1 << l1, 2))
        if is_primitive(p)
    ][:3]
    tap_sets = {(), (l1 - 1,), (0, l1 - 1), tuple(range(l1))}
    return itertools.product(polys, sorted(tap_sets))


class TestSr1Clock:
    @pytest.mark.parametrize("l1", range(1, 9))
    def test_leaf_advances_match_own_window(self, l1):
        # the per-attack clock against clock_advances on the seed's own SR1 output
        nper, d = (1 << l1) - 1, 1 << (l1 - 1)
        for c1, taps in clock_cases(l1):
            ring, offsets = _sr1_ring(c1)
            advances = _sr1_clock(c1, taps)
            for seed in nonzero_seeds(l1):
                at = offsets[bytes(seed)]
                window = ring[at : at + nper + l1]
                due = list(itertools.compress(clock_advances(window, taps), window))[:d]
                assert len(due) == d
                for start in (0, 1, d - 1):
                    got = list(advances(bytes(seed), start))
                    assert got == due[start:], (c1, taps, seed, start)

    @pytest.mark.parametrize("l1", range(2, 9))
    def test_prefix_advances_match_own_bits(self, l1):
        # a prefix the search visits reads its due columns at the prefix padded
        # to a seed, against clock_advances on the prefix's own bits; prefixes
        # shorter than max(taps) make no column due
        d = 1 << (l1 - 1)
        for c1, taps in clock_cases(l1):
            advances = _sr1_clock(c1, taps)
            for k in range(1, l1):
                for rest in itertools.product((0, 1), repeat=k - 1):
                    prefix = (1, *rest)
                    due = list(itertools.compress(clock_advances(prefix, taps), prefix))[:d]
                    stop = _columns_due(prefix, taps)
                    assert stop == len(due), (c1, taps, prefix)
                    seed = bytes(prefix + (0,) * (l1 - k))
                    assert list(advances(seed, 0, stop)) == due, (c1, taps, prefix)


class TestFullAttack:
    def test_golden_instance(self):
        res = full_attack(BitSeq.parse(INTERCEPT), public_spec())
        assert res.is1 == (1, 0, 0, 1)
        assert res.is2 == (1, 0, 1, 0, 1)
        assert res.nodes_expanded == 4
        assert res.reconstructed_positions == RECONSTRUCTED
        assert len(res.keystream) == 248
        assert str(res.keystream)[:24] == INTERCEPT

    def test_regenerates_whole_period(self):
        res = full_attack(BitSeq.parse(INTERCEPT), public_spec())
        assert list(res.keystream) == list(shrink_generate(true_spec(), 248))

    def test_full_period_roundtrip(self):
        z = shrink_generate(true_spec(), 248)
        res = full_attack(z, public_spec())
        assert list(res.keystream) == list(z)

    def test_clocked_generator(self):
        pub = GeneratorSpec(3, 5, Gf2Poly.parse("0,2,3"), Gf2Poly.parse("0,2,5"), taps=(0,))
        truth = pub.with_seeds((1, 0, 1), (1, 1, 0, 0, 1))
        z = ccsg_generate(truth, 124)
        res = full_attack(BitSeq(z.bits[:12]), pub)
        assert res.is1 == (1, 0, 1)
        assert res.is2 == (1, 1, 0, 0, 1)
        assert list(res.keystream) == list(z)

    def test_mid_stream_seed_is_normalized(self):
        # true SR1 seed starts with 0; the attack returns the shifted
        # equivalent whose control stream starts with 1
        pub = public_spec()
        truth = pub.with_seeds((0, 1, 1, 0), (1, 1, 0, 0, 1))
        z = shrink_generate(truth, 248)
        res = full_attack(BitSeq(z.bits[:24]), pub)
        assert res.is1 == (1, 1, 0, 0)
        assert res.is2 == (1, 0, 0, 1, 1)
        assert list(res.keystream) == list(z)

    @pytest.mark.parametrize("flip", [0, 5, 23])
    def test_tampered_intercept_detected(self, flip):
        bits = [int(c) for c in INTERCEPT]
        bits[flip] ^= 1
        with pytest.raises(Exhausted):
            full_attack(BitSeq(tuple(bits)), public_spec())

    @pytest.mark.parametrize("flip", [0, 5, 23])
    def test_tampered_intercept_fails_in_one_search(self, flip, monkeypatch):
        # a failed attack is the search's Exhausted: phase 1 never runs, and
        # the search runs once, on the intercept
        def fail(*args):
            raise AssertionError("phase 1 run for a failed attack")

        searches = []

        def search(*args):
            searches.append(args)
            return phase2_search(*args)

        monkeypatch.setattr(attack, "phase1_reconstruct", fail)
        monkeypatch.setattr(attack, "_phase1_positions", fail)
        monkeypatch.setattr(attack, "phase2_search", search)
        bits = [int(c) for c in INTERCEPT]
        bits[flip] ^= 1
        with pytest.raises(Exhausted):
            full_attack(BitSeq(tuple(bits)), public_spec())
        assert len(searches) == 1

    def test_candidates_must_regenerate_the_intercept(self, monkeypatch):
        # the search's candidates are checked by regeneration: one that does not
        # give the intercept is dropped, so it alone is Exhausted, and beside the
        # true pair it leaves that pair, not Ambiguous
        true, wrong = ((1, 0, 0, 1), (1, 0, 1, 0, 1)), ((1, 0, 0, 1), (0, 1, 1, 0, 1))
        pub, z = public_spec(), BitSeq.parse(INTERCEPT)
        assert shrink_generate(pub.with_seeds(*wrong), len(z)).raw != z.raw
        monkeypatch.setattr(attack, "phase2_search", lambda *args: attack.Phase2Result([wrong], 7, ()))
        with pytest.raises(Exhausted, match="every surviving candidate failed regeneration"):
            full_attack(z, pub)
        monkeypatch.setattr(attack, "phase2_search", lambda *args: attack.Phase2Result([wrong, true], 7, ()))
        res = full_attack(z, pub)
        assert (res.is1, res.is2, res.nodes_expanded) == (*true, 7)

    def test_ambiguous_reports_all_candidates(self):
        pub = GeneratorSpec(2, 3, Gf2Poly.parse("0,1,2"), Gf2Poly.parse("0,1,3"))
        truth = pub.with_seeds((0, 1), (0, 0, 1))
        z = shrink_generate(truth, 14)
        with pytest.raises(Ambiguous) as exc:
            full_attack(BitSeq(z.bits[:2]), pub)
        cands = exc.value.candidates
        assert len(cands) == 4
        # normalized truth: control stream 011011... starts at its first 1
        assert ((1, 1), (0, 1, 0)) in cands
        for is1, is2 in cands:
            regen = shrink_generate(pub.with_seeds(is1, is2), 2)
            assert list(regen) == list(z)[:2]

    def test_intercept_too_short_to_decide(self):
        # an attack-period benchmark instance (seed 128, cycle 39): the two
        # pairs agree on the first 43 keystream bits, so no attack can tell
        # them apart from these 38
        pub = GeneratorSpec.from_json(
            {"l1": 3, "l2": 16, "c1": "0,1,3", "c2": "0,2,5,6,8,9,13,14,16", "taps": []}
        )
        intercept = BitSeq.parse("01101011110100010100110110100101111100")
        planted = (bit_tuple("111"), bit_tuple("0110100101111111"))
        other = (bit_tuple("110"), bit_tuple("0110100101111111"))
        with pytest.raises(Ambiguous) as exc:
            full_attack(intercept, pub)
        assert exc.value.candidates == [planted, other]
        period = 4 * ((1 << 16) - 1)
        a, b = (shrink_generate(pub.with_seeds(*pair), period).raw for pair in (planted, other))
        assert a[:38] == b[:38] == intercept.raw
        assert next(i for i, (x, y) in enumerate(zip(a, b)) if x != y) == 43

    @pytest.mark.parametrize("r, pairs", [(4, 512), (8, 32)])
    def test_short_intercept_verifies_every_pair(self, r, pairs):
        # with r < l2 no leaf's system is determined: each of the d = 4 leaves
        # adds r independent equations and yields 2^(l2 - r) pairs, and each
        # of them is regenerated and fits the intercept
        pub = GeneratorSpec.from_json({"l1": 3, "l2": 11, "c1": "0,1,3", "c2": "0,2,11"})
        planted = (bit_tuple("111"), bit_tuple("10011010111"))
        intercept = shrink_generate(pub.with_seeds(*planted), r)
        with pytest.raises(Ambiguous) as exc:
            full_attack(BitSeq(intercept.raw), pub)
        assert len(exc.value.candidates) == pairs == 4 << 11 - r
        assert planted in exc.value.candidates
        assert exc.value.nodes_expanded == 4

    def test_intercept_must_cover_one_column_block(self):
        with pytest.raises(ValueError):
            full_attack(BitSeq.parse("1010101"), public_spec())

    def test_requires_zero_origin(self):
        with pytest.raises(ValueError):
            full_attack(BitSeq((1,) * 24, origin=5), public_spec())

    def test_origin_refused_before_model(self, monkeypatch):
        def fail(*args):
            raise AssertionError("linear model built for a refused intercept")

        monkeypatch.setattr(attack, "linearize_model", fail)
        with pytest.raises(ValueError, match="interception must start at keystream position 0"):
            full_attack(BitSeq((1,) * 24, origin=5), public_spec())

    def test_missing_seeds_not_required(self):
        # attack must run from the public part alone
        res = full_attack(BitSeq.parse(INTERCEPT), public_spec())
        assert res.is1 is not None

    def test_seeded_copies_do_not_warn(self):
        # the caller silenced the tap-count warning when it built the spec;
        # verification and the report build seeded copies, which must not warn again
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pub = GeneratorSpec(3, 5, Gf2Poly.parse("0,2,3"), Gf2Poly.parse("0,2,5"), taps=(0, 1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = full_attack(BitSeq.parse("111100001111010000100000"), pub)
            assert len(res.keystream) == 4 * 31
        assert (res.is1, res.is2) == ((1, 0, 1), (1, 0, 1, 1, 0))


class TestLazyReport:
    def test_full_attack_holds_no_period(self):
        # the (6, 17) period is 32 * (2^17 - 1) bits, 4 MiB at a byte a bit
        pub = GeneratorSpec(6, 17, Gf2Poly.parse("0,1,6"), Gf2Poly.parse("0,3,17"))
        truth = pub.with_seeds((1, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1))
        period = 32 * ((1 << 17) - 1)
        intercepted = shrink_generate(truth, 96)
        tracemalloc.start()
        try:
            res = full_attack(intercepted, pub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.is1, res.is2) == (truth.is1, truth.is2)
        assert peak < period
        assert res.keystream == shrink_generate(truth, period)


class TestPrimalityProofs:
    def test_one_proof_per_polynomial(self):
        # c1, c2 and the base minpoly(lambda^E); the seeded copies that
        # verification and the report build, and the field table, reuse them
        is_primitive.cache_clear()
        pub = GeneratorSpec(6, 17, Gf2Poly.parse("0,1,6"), Gf2Poly.parse("0,3,17"))
        truth = pub.with_seeds((1, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1))
        res = full_attack(shrink_generate(truth, 96), pub)
        assert len(res.keystream) == 32 * ((1 << 17) - 1)
        assert (res.is1, res.is2) == (truth.is1, truth.is2)
        assert is_primitive.cache_info().misses <= 3


class TestRandomizedSoundness:
    @pytest.mark.filterwarnings("ignore:tap count equals")
    def test_small_sweep(self):
        import warnings

        from shrinkca.linearize import DegenerateCoset
        from shrinkca.gf2 import NonPrimitiveModulus

        rng = random.Random(67)
        primitives = {2: ["0,1,2"], 3: ["0,1,3", "0,2,3"], 5: ["0,2,5", "0,3,5"]}
        unique = 0
        for _ in range(40):
            l1 = rng.choice([2, 3])
            l2 = rng.choice([d for d in primitives if d > l1])
            c1 = Gf2Poly.parse(rng.choice(primitives[l1]))
            c2 = Gf2Poly.parse(rng.choice(primitives[l2]))
            taps = ()
            if rng.random() < 0.5:
                taps = tuple(sorted(rng.sample(range(l1), rng.randrange(1, l1 + 1))))
            is1 = tuple(rng.randrange(2) for _ in range(l1))
            is2 = tuple(rng.randrange(2) for _ in range(l2))
            if not any(is1):
                is1 = (1,) + is1[1:]
            if not any(is2):
                is2 = (1,) + is2[1:]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pub = GeneratorSpec(l1, l2, c1, c2, taps=taps)
                truth = pub.with_seeds(is1, is2)
            period = ((1 << l2) - 1) << (l1 - 1)
            gen = ccsg_generate if taps else shrink_generate
            z = gen(truth, period)
            r = 3 << (l1 - 1)
            try:
                res = full_attack(BitSeq(z.bits[:r]), pub)
            except (DegenerateCoset, NonPrimitiveModulus, NonInvertible):
                continue  # clocking regime this model cannot linearize
            except Ambiguous as exc:
                for is1c, is2c in exc.candidates:
                    regen = gen(pub.with_seeds(is1c, is2c), r)
                    assert list(regen) == list(z)[:r]
                continue
            assert list(res.keystream) == list(z)
            assert res.nodes_expanded <= 1 << (l1 - 1)
            unique += 1
        assert unique >= 10


def bit_tuple(text: str) -> tuple[int, ...]:
    return tuple(map(int, text))


def nonzero_seeds(n: int) -> list[tuple[int, ...]]:
    return [s for s in itertools.product((0, 1), repeat=n) if any(s)]


def record_lines(records) -> list[str]:
    lines = []
    for r in records:
        where = "" if r.column is None else f" c{r.column} s{r.shift}"
        row = "" if r.row is None else f" r{r.row}"
        lines.append(f"{''.join(map(str, r.prefix))}{where} {r.outcome}{row}")
    return lines


# (l1, l2, c1, c2, taps, intercept, candidates, nodes, records): the records
# pin the search order and every column's shift on tapped specs
PINNED_TAPPED = [
    (3, 5, "0,2,3", "0,2,5", (1,), "101010110001", [("110", "10011")], 4, """
        1 c0 s0 accepted | 11 c1 s3 accepted | 111 c2 s6 accepted | 111 c3 s26 rejected r0
        110 c2 s23 accepted | 110 c3 s29 accepted | 110 survivor | 101 c1 s20 accepted
        101 c2 s26 rejected r2 | 100 c1 s6 rejected r26
    """),
    (3, 5, "0,1,3", "0,2,3,4,5", (0, 2), "00011011", [("101", "01101")], 4, """
        11 c0 s0 accepted | 111 c1 s10 accepted | 111 c2 s15 rejected r0
        110 c1 s5 accepted | 110 c2 s20 rejected r0 | 101 c0 s0 accepted
        101 c1 s2 accepted | 101 c2 s12 accepted | 101 c3 s17 accepted | 101 survivor
        100 c0 s0 accepted | 100 c1 s15 accepted | 100 c2 s17 accepted | 100 c3 s27 rejected r0
    """),
    (4, 5, "0,3,4", "0,1,3,4,5", (1, 3), "101110100110001110100111", [("1011", "10101")], 8, """
        111 c0 s0 accepted | 1111 c1 s16 rejected r2 | 1110 c1 s8 accepted
        1110 c2 s24 rejected r2 | 1101 c0 s0 accepted | 1101 c1 s16 rejected r2
        1100 c0 s0 accepted | 1100 c1 s8 accepted | 1100 c2 s1 rejected r0
        101 c0 s0 accepted | 1011 c1 s20 accepted | 1011 c2 s28 accepted
        1011 c3 s21 accepted | 1011 c4 s3 accepted | 1011 c5 s19 accepted
        1011 c6 s27 accepted | 1011 c7 s12 accepted | 1011 survivor
        1010 c1 s20 accepted | 1010 c2 s9 rejected r0 | 1001 c0 s0 accepted
        1001 c1 s24 accepted | 1001 c2 s6 accepted | 1001 c3 s22 rejected r0
        1000 c0 s0 accepted | 1000 c1 s13 rejected r0
    """),
]


class TestPhase2Pinned:
    @pytest.mark.parametrize("l1,l2,c1,c2,taps,intercept,candidates,nodes,records", PINNED_TAPPED)
    def test_tapped_records(self, l1, l2, c1, c2, taps, intercept, candidates, nodes, records):
        pub = GeneratorSpec(l1, l2, Gf2Poly.parse(c1), Gf2Poly.parse(c2), taps=taps)
        table = FieldTable.build(min_poly_of_power(pub.c2, coset_exponent(l1, len(taps))))
        pair = linearize_generator(l1, pub.c2, len(taps))
        known, _ = phase1_reconstruct(BitSeq.parse(intercept), pair, l1, table)
        result = phase2_search(known, pub, table)
        assert result.candidates == [(bit_tuple(a), bit_tuple(b)) for a, b in candidates]
        assert result.nodes_expanded == nodes
        assert record_lines(result.records) == [
            line.strip() for line in records.replace("\n", "|").split("|") if line.strip()
        ]


# (l1, l2, c1, c2, taps, is1, is2, nodes, record count, sha256 of the record
# lines): the attack-search benchmark's five public specs, each attacked on
# one planted pair through the first max(3 d, 2 (l1 + l2)) bits; columns past
# the column-0 seed's l2 independent bits are checked by evaluation
PINNED_SEARCH = [
    (7, 9, "0,3,7", "0,1,4,5,6,8,9", (4,), "1011110", "110011110", 64, 240, "95ccf974955df925"),
    (7, 10, "0,1,2,3,7", "0,7,10", (), "1110110", "0101011001", 38, 149, "8655d74efc21860c"),
    (7, 11, "0,1,2,3,5,6,7", "0,2,3,4,5,8,11", (3,), "1110100", "11111110010", 58, 232,
     "4c8ef865141d6c5f"),
    (8, 9, "0,1,2,3,6,7,8", "0,1,2,3,6,7,9", (), "10010101", "100101101", 20, 180,
     "beafbb9d140b2f8c"),
    (8, 11, "0,1,2,7,8", "0,4,5,8,9,10,11", (), "10111100", "10100000001", 72, 281,
     "878b0322b6b66a82"),
]


class TestPhase2Search:
    @pytest.mark.parametrize("l1,l2,c1,c2,taps,is1,is2,nodes,count,digest", PINNED_SEARCH)
    def test_search_specs(self, l1, l2, c1, c2, taps, is1, is2, nodes, count, digest):
        pub = GeneratorSpec(l1, l2, Gf2Poly.parse(c1), Gf2Poly.parse(c2), taps=taps)
        gen = ccsg_generate if taps else shrink_generate
        planted = (bit_tuple(is1), bit_tuple(is2))
        z = gen(pub.with_seeds(*planted), max(3 << (l1 - 1), 2 * (l1 + l2)))
        table = FieldTable.build(min_poly_of_power(pub.c2, coset_exponent(l1, len(taps))))
        pair = linearize_generator(l1, pub.c2, len(taps))
        known, _ = phase1_reconstruct(z, pair, l1, table)
        result = phase2_search(known, pub, table)
        assert result.candidates == [planted]
        assert result.nodes_expanded == nodes
        lines = record_lines(result.records)
        assert len(lines) == count
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == digest


def oracle_prefix(spec: GeneratorSpec, n: int) -> bytes:
    """First n keystream bits from the bit-serial step machine."""
    out = bytearray()
    steps = _clocked_steps(spec)
    while len(out) < n:
        a, bprime, _ = next(steps)
        if a:
            out.append(bprime)
    return bytes(out)


class TestExhaustiveCompleteness:
    # one primitive (c1, c2) per shape with l1 <= 3, l2 <= 5
    SHAPES = {
        (1, 2): ("0,1", "0,1,2"),
        (1, 3): ("0,1", "0,1,3"),
        (2, 3): ("0,1,2", "0,1,3"),
        (2, 5): ("0,1,2", "0,2,5"),
        (3, 4): ("0,1,3", "0,1,4"),
        (3, 5): ("0,2,3", "0,2,5"),
    }

    @pytest.mark.filterwarnings("ignore:tap count equals")
    @pytest.mark.parametrize("l1,l2", sorted(SHAPES))
    def test_candidates_equal_brute_force(self, l1, l2):
        """For every tap set and every seed pair, the attack's answer on the
        pair's intercept (and on that intercept with its last bit flipped)
        is exactly the set of pairs with is1[0] = 1 that produce it."""
        c1, c2 = (Gf2Poly.parse(text) for text in self.SHAPES[l1, l2])
        d = 1 << (l1 - 1)
        attacked, degenerate = 0, []
        for w in range(l1 + 1):
            for taps in itertools.combinations(range(l1), w):
                pub = GeneratorSpec(l1, l2, c1, c2, taps=taps)
                in_regime = math.gcd(coset_exponent(l1, w), (1 << l2) - 1) == 1
                if not in_regime:
                    degenerate.append(taps)
                for r in (d, 3 * d):
                    fits: dict[bytes, set] = {}
                    for is1 in nonzero_seeds(l1):
                        for is2 in nonzero_seeds(l2):
                            z = oracle_prefix(pub.with_seeds(is1, is2), r)
                            fits.setdefault(z, set())
                            if is1[0] == 1:
                                fits[z].add((is1, is2))
                    intercepts = set(fits) | {z[:-1] + bytes([z[-1] ^ 1]) for z in fits}
                    for z in sorted(intercepts):
                        if not in_regime:
                            with pytest.raises(DegenerateCoset, match="coset size"):
                                full_attack(BitSeq(z), pub)
                            continue
                        try:
                            res = full_attack(BitSeq(z), pub)
                            found = {(res.is1, res.is2)}
                        except Ambiguous as exc:
                            found = set(exc.candidates)
                        except Exhausted:
                            found = set()
                        assert found == fits.get(z, set()), (taps, r, z)
                        attacked += 1
        assert attacked
        # only D = 35 (all three taps) shares a factor, 5, with 2^4 - 1
        assert degenerate == ([(0, 1, 2)] if (l1, l2) == (3, 4) else [])


def phase1_then_phase2(intercepted: BitSeq, spec: GeneratorSpec):
    """The attack as phase 1 with its bits, then the search on them: seeds,
    reconstructed positions, nodes and phase 1's records, for a spec in regime."""
    model = linearize_model(spec.l1, spec.c2, len(spec.taps))
    table = FieldTable.build(model.base)
    known, records = phase1_reconstruct(intercepted, model.pair, spec.l1, table)
    result = phase2_search(known, spec, table)
    verified = [
        pair
        for pair in result.candidates
        if _interleave(spec.with_seeds(*pair), len(intercepted)).raw == intercepted.raw
    ]
    if not verified:
        raise Exhausted("every surviving candidate failed regeneration")
    if len(verified) > 1:
        raise Ambiguous(verified, result.nodes_expanded)
    (is1, is2), = verified
    return is1, is2, known.positions("reconstructed"), result.nodes_expanded, records


def attack_outcome(fn, intercepted, spec):
    try:
        return fn(intercepted, spec)
    except Exception as exc:  # the exception's type and text are part of the outcome
        return f"{type(exc).__name__}: {exc}"


def random_primitive(rng: random.Random, m: int) -> Gf2Poly:
    while True:
        poly = Gf2Poly(1 << m | rng.getrandbits(m) | 1)
        if is_primitive(poly):
            return poly


class TestSearchOnIntercept:
    """full_attack searches the intercepted bits alone: phase 1's bits add no rank."""

    @pytest.mark.filterwarnings("ignore:tap count equals")
    def test_phase1_bits_change_no_candidate(self):
        # on genuine intercepts phase 1 never conflicts, its positions pass agrees
        # with it, and phase 2 finds the same candidates, in the same order, and
        # expands the same nodes with and without phase 1's bits
        rng = random.Random("search-on-intercept")
        compared = productive = 0
        for _ in range(150):
            l1 = rng.randint(2, 7)
            l2 = rng.choice([m for m in range(l1 + 1, 12) if math.gcd(l1, m) == 1])
            w = min(rng.choice((0, 1, 2, l1)), l1)
            if math.gcd(coset_exponent(l1, w), (1 << l2) - 1) != 1:
                continue
            taps = tuple(sorted(rng.sample(range(l1), w)))
            c1, c2 = random_primitive(rng, l1), random_primitive(rng, l2)
            pub = GeneratorSpec(l1, l2, c1, c2, taps=taps)
            d = 1 << (l1 - 1)
            r = rng.randint(d, 6 * d)
            genuine = rng.random() < 0.7
            if genuine:
                gen = ccsg_generate if taps else shrink_generate
                is1 = (1,) + tuple(rng.getrandbits(1) for _ in range(l1 - 1))
                is2 = tuple(rng.getrandbits(1) for _ in range(l2 - 1)) + (1,)
                z = BitSeq(gen(pub.with_seeds(is1, is2), r).raw)
            else:
                z = BitSeq(tuple(rng.getrandbits(1) for _ in range(r)))
            pair = linearize_generator(l1, pub.c2, w)
            table = FieldTable.build(min_poly_of_power(pub.c2, coset_exponent(l1, w)))
            try:
                known, records = phase1_reconstruct(z, pair, l1, table)
            except ConflictingReconstruction:
                assert not genuine
                continue
            if genuine:
                assert attack._phase1_positions(r, pair, l1, table) == (
                    known.positions("reconstructed"),
                    records,
                )
            productive += bool(records)
            alone = attack._intercepted_bits(z, d * table.order)
            outcomes = []
            for bits in (known, alone):
                try:
                    found = phase2_search(bits, pub, table)
                    outcomes.append((found.candidates, found.nodes_expanded))
                except Exhausted:
                    outcomes.append("Exhausted")
            assert outcomes[0] == outcomes[1], (pub.to_json(), str(z))
            compared += 1
        assert compared >= 100 and productive >= 50

    @pytest.mark.filterwarnings("ignore:tap count equals")
    @pytest.mark.parametrize("l1,l2", sorted(TestExhaustiveCompleteness.SHAPES))
    def test_full_attack_equals_phase1_then_phase2(self, l1, l2):
        # every tap set in regime, the intercept of every seed pair and random
        # bits at lengths d to 5d, and random bits one past the period: all but
        # phase 2's records, and the type and text of Ambiguous and ValueError,
        # are the two-phase attack's; where that attack finds no seed pair
        # (ConflictingReconstruction or Exhausted), full_attack is Exhausted
        c1, c2 = (Gf2Poly.parse(text) for text in TestExhaustiveCompleteness.SHAPES[l1, l2])
        rng = random.Random(f"two-phase:{l1}:{l2}")
        d = 1 << (l1 - 1)
        period = d * ((1 << l2) - 1)
        outcomes = set()
        for w in range(l1 + 1):
            if math.gcd(coset_exponent(l1, w), (1 << l2) - 1) != 1:
                continue
            for taps in itertools.combinations(range(l1), w):
                pub = GeneratorSpec(l1, l2, c1, c2, taps=taps)
                for r in sorted({d, 2 * d, 3 * d, min(5 * d, period), period + 1}):
                    intercepts = {bytes(rng.getrandbits(1) for _ in range(r)) for _ in range(4)}
                    if r <= period:
                        intercepts |= {
                            oracle_prefix(pub.with_seeds(is1, is2), r)
                            for is1 in nonzero_seeds(l1)
                            for is2 in nonzero_seeds(l2)
                        }
                    for raw in sorted(intercepts):
                        z = BitSeq(raw)
                        want = attack_outcome(phase1_then_phase2, z, pub)
                        kind = want.split(":")[0] if isinstance(want, str) else "recovered"
                        outcomes.add(kind)
                        if kind in ("ConflictingReconstruction", "Exhausted"):
                            with pytest.raises(Exhausted):
                                full_attack(z, pub)
                            continue
                        got = attack_outcome(full_attack, z, pub)
                        if not isinstance(got, str):
                            got = (got.is1, got.is2, got.reconstructed_positions,
                                   got.nodes_expanded, got.phase1_records)
                        assert got == want, (taps, raw)
        assert {"recovered", "Exhausted", "ValueError"} <= outcomes
