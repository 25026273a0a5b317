import itertools
import random

import pytest

from shrinkca.engines import (
    BitSeq,
    CaState,
    LfsrState,
    ZeroSeed,
    _cell_basis_traces,
    _lfsr_digits,
    _seed_to_int,
    ca_generate,
    ca_step,
    decimate,
    lfsr_bit_iter,
    lfsr_bytes,
    lfsr_generate,
    solve_cell_seed,
)
from shrinkca.gf2 import Gf2Poly, NonPrimitiveModulus, RuleVector, _mod_mask
from test_gf2 import pow_mod_right_to_left

# 10 successive states of the 10-cell automaton with rules 0111001110
AUTOMATON_ROWS = [
    "0001110110",
    "0010010001",
    "0111101010",
    "1011101011",
    "0001101001",
    "0010101110",
    "0110000101",
    "1001001100",
    "0111110010",
    "1011011111",
]


DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def bits(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def oracle_step(rules: tuple[int, ...], cells: tuple[int, ...]) -> tuple[int, ...]:
    """One update from the rule definition: left + right (+ self under rule 150), null boundaries."""
    padded = (0,) + cells + (0,)
    return tuple((padded[i] + padded[i + 2] + rule * padded[i + 1]) % 2 for i, rule in enumerate(rules))


def oracle_states(rules: tuple[int, ...], cells: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    states = []
    for _ in range(n):
        states.append(cells)
        cells = oracle_step(rules, cells)
    return states


def random_automaton(rng: random.Random) -> tuple[RuleVector, tuple[int, ...]]:
    n = rng.choice((1, 2, rng.randrange(3, 40)))
    return RuleVector(tuple(rng.randrange(2) for _ in range(n))), tuple(rng.randrange(2) for _ in range(n))


class TestBitSeq:
    def test_parse_and_iter(self):
        s = BitSeq.parse("10110")
        assert s.bits == (1, 0, 1, 1, 0)
        assert s.origin == 0
        assert list(s) == [1, 0, 1, 1, 0]
        assert len(s) == 5
        assert str(s) == "10110"
        assert s[1:3] == (0, 1)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            BitSeq.parse("10x1")

    def test_absolute_positions(self):
        s = BitSeq((1, 0, 1), origin=4)
        assert s.at(4) == 1
        assert s.at(5) == 0
        assert s.at(6) == 1
        with pytest.raises(IndexError):
            s.at(3)
        with pytest.raises(IndexError):
            s.at(7)

    @pytest.mark.parametrize("bad", [5, (2,), (-1,), ("1",), None, "01", (0, 1, 256)])
    def test_rejects_non_bits(self, bad):
        with pytest.raises(ValueError):
            BitSeq(bad)

    def test_rejects_negative_origin(self):
        with pytest.raises(ValueError):
            BitSeq((1, 0), origin=-1)
        with pytest.raises(ValueError):
            BitSeq.parse("10", origin=-1)

    def test_any_bit_sequence(self):
        want = BitSeq.parse("0110")
        for src in ((0, 1, 1, 0), [0, 1, 1, 0], b"\x00\x01\x01\x00", bytearray(b"\x00\x01\x01\x00")):
            assert BitSeq(src) == want
        assert BitSeq((True, False)) == BitSeq((1, 0))

    def test_tuple_views(self):
        s = BitSeq.parse("10110")
        assert type(s.bits) is tuple
        assert type(s[1:4]) is tuple and s[1:4] == (0, 1, 1)
        assert s[-1] == 0
        assert s.raw == b"\x01\x00\x01\x01\x00"

    def test_equality_and_hash(self):
        a, b = BitSeq.parse("1011", origin=2), BitSeq((1, 0, 1, 1), origin=2)
        assert a == b and hash(a) == hash(b)
        assert a != BitSeq.parse("1011") and a != BitSeq.parse("1010", origin=2)
        assert len({a, b, BitSeq.parse("1011")}) == 2
        assert BitSeq(()) == BitSeq.parse("")

    def test_immutable(self):
        s = BitSeq.parse("10")
        with pytest.raises(AttributeError):
            s.origin = 3

    def test_str_parse_round_trip(self):
        rng = random.Random(5)
        for n in (0, 1, 7, 64, 1000):
            s = BitSeq(tuple(rng.getrandbits(1) for _ in range(n)), origin=n)
            assert BitSeq.parse(str(s), origin=n) == s


class TestLfsrBytes:
    def test_against_bit_serial_oracle(self):
        # every degree 1..31 with x^L + 1, x^L and random (mostly
        # non-primitive) polynomials; runs cover up to 3 periods of
        # 2^L - 1 bits, capped at 3 * 4095
        rng = random.Random(31)
        for deg in range(1, 32):
            masks = [(1 << deg) | 1, 1 << deg] + [(1 << deg) | rng.getrandbits(deg) for _ in range(4)]
            for mask in masks:
                poly = Gf2Poly(mask)
                seed = tuple(rng.getrandbits(1) for _ in range(deg))
                span = 3 * min((1 << deg) - 1, 4095)
                for n in (0, 1, deg - 1, deg, deg + 1, rng.randrange(span + 1)):
                    want = bytes(itertools.islice(lfsr_bit_iter(poly, seed), n))
                    assert lfsr_bytes(poly, seed, n) == want, (poly.to_text(), seed, n)

    def test_long_runs_against_oracle(self):
        # long enough for many doublings of m, with the top lower term of p
        # right under x^L and far below it
        rng = random.Random(61)
        for text in ("0,30,31", "0,3,31", "0,27,28,29,30,31", "1,2,24", "0,1,2,5,61"):
            poly = Gf2Poly.parse(text)
            seed = tuple(rng.getrandbits(1) for _ in range(poly.degree))
            n = 100_000 + rng.randrange(1000)
            want = bytes(itertools.islice(lfsr_bit_iter(poly, seed), n))
            assert lfsr_bytes(poly, seed, n) == want, text

    def test_rejects_bad_arguments(self):
        poly = Gf2Poly.parse("0,1,4")
        with pytest.raises(ValueError):
            lfsr_bytes(poly, (1, 0, 0), 5)
        with pytest.raises(ValueError):
            lfsr_bytes(poly, (1, 0, 0, 0), -1)
        with pytest.raises(ValueError):
            lfsr_bytes(Gf2Poly.parse("0"), (), 5)
        with pytest.raises(ValueError):
            _lfsr_digits(poly, (1, 0, 0, 0), 5, -1)
        with pytest.raises(ValueError):  # an int seed is a prefix from position 0
            _lfsr_digits(poly, 0b1001, 5, 3)

    @staticmethod
    def _start_cases(rng: random.Random):
        """(poly, seed) pairs: every degree 1..31 with x^L + 1, x^L and random
        (mostly non-primitive) polynomials, then dense degrees 64, 200 and 1000;
        each with a random seed and the all-zero one."""
        for deg in [*range(1, 32), 64, 200, 1000]:
            if deg < 32:
                masks = [(1 << deg) | 1, 1 << deg] + [(1 << deg) | rng.getrandbits(deg) for _ in range(2)]
            else:
                masks = [(1 << deg) | rng.getrandbits(deg) | 1]
            for mask in masks:
                for seed in (tuple(rng.getrandbits(1) for _ in range(deg)), (0,) * deg):
                    yield Gf2Poly(mask), seed

    def test_start_at_any_origin(self):
        """Bits origin .. origin + n - 1 against the bit-serial register; at 2^40,
        against the stages <x^(2^40) x^i mod p, seed> continued bit-serially."""
        rng = random.Random(2 * 40)
        for poly, seed in self._start_cases(rng):
            deg, fill = poly.degree, _seed_to_int(seed)
            lengths = (0, 1, deg, 2 * deg + 1, rng.randrange(4 * deg + 64))
            near = (0, 1, deg - 1, deg, 2 * deg, rng.randrange(4 * deg + 64))
            serial = bytes(itertools.islice(lfsr_bit_iter(poly, seed), max(near) + max(lengths)))
            x40 = pow_mod_right_to_left(2, 1 << 40, poly.mask)
            far = tuple((_mod_mask(x40 << i, poly.mask) & fill).bit_count() & 1 for i in range(deg))
            serial_far = bytes(itertools.islice(lfsr_bit_iter(poly, far), max(lengths)))
            for n in lengths:
                for origin in near:
                    got = _lfsr_digits(poly, seed, n, origin)
                    assert got == serial[origin : origin + n].translate(DIGITS), (poly.to_text(), origin, n)
                assert _lfsr_digits(poly, seed, n, 1 << 40) == serial_far[:n].translate(DIGITS), (poly.to_text(), n)
                assert _lfsr_digits(poly, fill, n) == serial[:n].translate(DIGITS), (poly.to_text(), n)


class TestSeedToInt:
    def test_matches_the_bit_loop(self):
        rng = random.Random(2000)
        for size in (0, 1, 2, 63, 64, 65, *(rng.randrange(2001) for _ in range(40)), 2000):
            seed = tuple(rng.getrandbits(1) for _ in range(size))
            assert _seed_to_int(seed) == sum(bit << k for k, bit in enumerate(seed)), size
            assert _seed_to_int(list(seed)) == _seed_to_int(bytes(seed)) == _seed_to_int(seed)

    @pytest.mark.parametrize("seed", [(1, 2, 0), (0, -1), (1, "1"), "10", (1, 256), (0.0, 1)])
    def test_rejects_non_bits(self, seed):
        with pytest.raises(ValueError, match="seed bits must be 0 or 1"):
            _seed_to_int(seed)


class TestLfsr:
    def test_first_register_stream(self):
        reg = LfsrState(Gf2Poly.parse("0,2,3"), (1, 0, 0))
        assert str(lfsr_generate(reg, 14)) == "10011101001110"

    def test_second_register_stream(self):
        reg = LfsrState(Gf2Poly.parse("0,1,4"), (1, 0, 0, 0))
        assert str(lfsr_generate(reg, 15)) == "100010011010111"

    def test_zero_seed_rejected(self):
        with pytest.raises(ZeroSeed):
            LfsrState(Gf2Poly.parse("0,2,3"), (0, 0, 0))

    def test_nonprimitive_rejected(self):
        with pytest.raises(NonPrimitiveModulus):
            LfsrState(Gf2Poly.parse("0,1,2,3,4"), (1, 0, 0, 0))

    def test_seed_length_must_match_degree(self):
        with pytest.raises(ValueError):
            LfsrState(Gf2Poly.parse("0,2,3"), (1, 0))

    @pytest.mark.parametrize("bit", [2, -1, 1.0, "1"])
    def test_seed_bits_checked_when_built(self, bit):
        with pytest.raises(ValueError, match="seed bits must be 0 or 1"):
            LfsrState(Gf2Poly.parse("0,1,4"), (bit, 0, 0, 0))

    def test_iter_matches_generate(self):
        reg = LfsrState(Gf2Poly.parse("0,1,4"), (1, 1, 0, 1))
        stream = lfsr_bit_iter(reg.charpoly, reg.seed)
        assert [next(stream) for _ in range(40)] == list(lfsr_generate(reg, 40))

    @pytest.mark.parametrize("text", ["0,1,2", "0,1,3", "0,1,4", "0,2,5"])
    def test_pn_period_and_balance(self, text):
        charpoly = Gf2Poly.parse(text)
        deg = charpoly.degree
        period = (1 << deg) - 1
        reg = LfsrState(charpoly, (1,) + (0,) * (deg - 1))
        out = list(lfsr_generate(reg, 2 * period))
        assert out[:period] == out[period:]
        assert sum(out[:period]) == 1 << (deg - 1)
        # no shorter period divides it
        for div in range(1, period):
            if period % div == 0 and any(
                out[i] != out[i + div] for i in range(period - div)
            ):
                break
        else:
            assert period == 1

    def test_recurrence_holds(self):
        charpoly = Gf2Poly.parse("0,1,4")
        low = [k for k in charpoly.exponents() if k < 4]
        out = list(lfsr_generate(LfsrState(charpoly, (1, 1, 1, 0)), 60))
        for n in range(60 - 4):
            assert out[n + 4] == (sum(out[n + k] for k in low) & 1)


class TestCellularAutomaton:
    def test_printed_state_table(self):
        st = CaState(RuleVector.from_string("0111001110"), bits(AUTOMATON_ROWS[0]))
        for row in AUTOMATON_ROWS[1:]:
            st = ca_step(st)
            assert "".join(map(str, st.cells)) == row

    def test_vertical_traces(self):
        st = CaState(RuleVector.from_string("0111001110"), bits(AUTOMATON_ROWS[0]))
        traces = ca_generate(st, 10)
        assert len(traces) == 10
        assert str(traces[0]) == "0001000101"
        for k in range(10):
            assert str(traces[k]) == "".join(row[k] for row in AUTOMATON_ROWS)

    def test_zero_states_allowed(self):
        st = CaState(RuleVector.from_string("010"), (0, 0, 0))
        assert ca_step(st).cells == (0, 0, 0)
        assert ca_generate(st, 0) == [BitSeq(()) for _ in range(3)]

    def test_cell_count_must_match_rules(self):
        with pytest.raises(ValueError):
            CaState(RuleVector.from_string("010"), (1, 0))

    @pytest.mark.parametrize("cell", [2, -1, 1.0, "1", None])
    def test_cells_must_be_bits(self, cell):
        with pytest.raises(ValueError, match="cells must be 0 or 1"):
            CaState(RuleVector.from_string("010"), (1, cell, 0))

    def test_superposition(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randrange(1, 24)
            rules = RuleVector(tuple(rng.randrange(2) for _ in range(n)))
            u = tuple(rng.randrange(2) for _ in range(n))
            v = tuple(rng.randrange(2) for _ in range(n))
            w = tuple(a ^ b for a, b in zip(u, v))
            stepped = ca_step(CaState(rules, w)).cells
            su = ca_step(CaState(rules, u)).cells
            sv = ca_step(CaState(rules, v)).cells
            assert stepped == tuple(a ^ b for a, b in zip(su, sv))

    def test_neighborhood_semantics(self):
        # null boundaries; rule 90 ignores the cell itself, rule 150 keeps it
        st = CaState(RuleVector.from_string("01"), (1, 1))
        assert ca_step(st).cells == (1, 0)
        st = CaState(RuleVector.from_string("10"), (1, 0))
        assert ca_step(st).cells == (1, 1)

    def test_traces_against_tuple_oracle(self):
        rng = random.Random(90150)
        for _ in range(60):
            rules, cells = random_automaton(rng)
            size = len(cells)
            for n in sorted({0, 1, size - 1, size, size + 1, 3 * size}):
                states = oracle_states(rules.bits, cells, n)
                expected = [BitSeq(tuple(s[k] for s in states)) for k in range(size)]
                assert ca_generate(CaState(rules, cells), n) == expected, (rules, cells, n)

    def test_cell_basis_against_unit_seed_loop(self):
        rng = random.Random(150)
        for _ in range(60):
            rules, _ = random_automaton(rng)
            size = len(rules)
            cell = rng.randrange(1, size + 1)
            steps = rng.randrange(3 * size + 2)
            rows = [0] * steps
            for j in range(size):
                unit = tuple(int(k == j) for k in range(size))
                for t, state in enumerate(oracle_states(rules.bits, unit, steps)):
                    rows[t] |= state[cell - 1] << j
            assert _cell_basis_traces(rules, cell, steps) == rows, (rules, cell, steps)

    def test_trace_obeys_char_poly(self):
        rules = RuleVector.from_string("0111001110")
        charpoly = rules.char_poly()
        low = [k for k in charpoly.exponents() if k < 10]
        st = CaState(rules, bits(AUTOMATON_ROWS[0]))
        for trace in ca_generate(st, 30):
            seq = list(trace)
            for n in range(30 - 10):
                assert seq[n + 10] == (sum(seq[n + k] for k in low) & 1)


class TestDecimate:
    def test_pn_decimation_golden(self):
        b = BitSeq.parse("100010011010111" * 7)
        assert str(decimate(b, 7, 0)) == "111010110010001"
        assert str(decimate(b, 7, 3)) == "010001111010110"

    def test_respects_absolute_origin(self):
        s = BitSeq((1, 0, 1), origin=4)
        d = decimate(s, 2, 0)
        assert d.bits == (1, 1)
        assert d.origin == 2

    def test_identity_decimation(self):
        s = BitSeq.parse("110100")
        assert decimate(s, 1, 0).bits == s.bits

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            decimate(BitSeq.parse("101"), 0, 0)

    def test_residue_normalized_by_step(self):
        s = BitSeq.parse("110100101")
        assert decimate(s, 3, 5).bits == decimate(s, 3, 2).bits


class TestSolveCellSeed:
    def test_recovers_printed_automaton_seed(self):
        rules = RuleVector.from_string("0111001110")
        target = BitSeq.parse("0001000101")
        st = solve_cell_seed(rules, 1, target)
        assert st is not None
        assert st.cells == bits(AUTOMATON_ROWS[0])

    def test_roundtrip_exhaustive_small(self):
        rng = random.Random(43)
        for _ in range(12):
            n = rng.randrange(2, 7)
            rules = RuleVector(tuple(rng.randrange(2) for _ in range(n)))
            cell = rng.randrange(1, n + 1)
            for seedmask in range(1 << n):
                seed = tuple(seedmask >> k & 1 for k in range(n))
                trace = ca_generate(CaState(rules, seed), 2 * n)[cell - 1]
                st = solve_cell_seed(rules, cell, trace)
                assert st is not None
                regen = ca_generate(st, 2 * n)[cell - 1]
                assert regen.bits == trace.bits

    def test_least_seed_against_brute_force(self):
        rng = random.Random(288)
        for _ in range(60):
            n = rng.randrange(1, 9)
            rules = RuleVector(tuple(rng.randrange(2) for _ in range(n)))
            cell = rng.randrange(1, n + 1)
            target = tuple(rng.randrange(2) for _ in range(rng.randrange(2 * n + 1)))
            # product() walks the seeds in lexicographic order
            fits = (
                seed
                for seed in itertools.product((0, 1), repeat=n)
                if ca_generate(CaState(rules, seed), len(target))[cell - 1].bits == target
            )
            least = next(fits, None)
            st = solve_cell_seed(rules, cell, target)
            assert (st and st.cells) == least, (rules, cell, target)

    def test_inconsistent_target_returns_none(self):
        rules = RuleVector.from_string("0111001110")
        assert solve_cell_seed(rules, 1, BitSeq.parse("1" * 25)) is None

    def test_target_bits_checked_before_solving(self):
        # the 5 came after a prefix the solve had already found inconsistent,
        # and 1.0 passed the per-bit check and failed inside the linear system
        rules = RuleVector.from_string("01")
        for target in ([1, 1, 1, 1, 1, 1, 5], [1, 1.0, 0], [2], "101"):
            with pytest.raises(ValueError, match="target bits must be 0 or 1"):
                solve_cell_seed(rules, 1, target)

    def test_cell_index_validated(self):
        rules = RuleVector.from_string("010")
        with pytest.raises(ValueError):
            solve_cell_seed(rules, 0, BitSeq.parse("101"))
        with pytest.raises(ValueError):
            solve_cell_seed(rules, 4, BitSeq.parse("101"))
