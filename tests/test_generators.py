import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from itertools import accumulate, chain, combinations, islice

import pytest

import shrinkca
from shrinkca import generators
from shrinkca.engines import ZeroSeed, lfsr_bit_iter, lfsr_bytes
from shrinkca.gf2 import Gf2Poly, NonPrimitiveModulus, _pow_mod, berlekamp_massey, is_primitive
from shrinkca.generators import (
    GeneratorSpec,
    _clocked_steps,
    ccsg_generate,
    clock_advances,
    clock_counts,
    decimated_stream,
    shrink_generate,
    shrunken_stats,
)
from shrinkca.linearize import coset_exponent


def plain_spec() -> GeneratorSpec:
    return GeneratorSpec(
        3,
        4,
        Gf2Poly.parse("0,2,3"),
        Gf2Poly.parse("0,1,4"),
        (1, 0, 0),
        (1, 0, 0, 0),
    )


def clocked_spec() -> GeneratorSpec:
    return GeneratorSpec(
        3,
        4,
        Gf2Poly.parse("0,2,3"),
        Gf2Poly.parse("0,1,4"),
        (1, 0, 0),
        (1, 0, 0, 0),
        taps=(0,),
    )


class TestSpecValidation:
    def test_lengths_must_be_coprime(self):
        with pytest.raises(ValueError, match="coprime"):
            GeneratorSpec(2, 4, Gf2Poly.parse("0,1,2"), Gf2Poly.parse("0,1,4"))

    def test_control_register_must_be_shorter(self):
        with pytest.raises(ValueError):
            GeneratorSpec(4, 3, Gf2Poly.parse("0,3,4"), Gf2Poly.parse("0,1,3"))

    def test_poly_degree_must_match_length(self):
        with pytest.raises(ValueError):
            GeneratorSpec(3, 4, Gf2Poly.parse("0,1,2"), Gf2Poly.parse("0,1,4"))

    def test_poly_must_be_primitive(self):
        with pytest.raises(NonPrimitiveModulus):
            GeneratorSpec(3, 4, Gf2Poly.parse("0,2,3"), Gf2Poly.parse("0,1,2,3,4"))

    def test_zero_seeds_rejected(self):
        with pytest.raises(ZeroSeed):
            plain_spec().with_seeds((0, 0, 0), (1, 0, 0, 0))
        with pytest.raises(ZeroSeed):
            plain_spec().with_seeds((1, 0, 0), (0, 0, 0, 0))

    @pytest.mark.parametrize("bit", [1.0, 2, -1, "1"])
    def test_seed_bits_must_be_ints_0_or_1(self, bit):
        # refused when the spec is built, not later by the generator
        base = plain_spec()
        with pytest.raises(ValueError, match="^is1 must be 3 bits$"):
            GeneratorSpec(3, 4, base.c1, base.c2, (bit, 0, 0), (1, 0, 0, 0))
        with pytest.raises(ValueError, match="^is2 must be 4 bits$"):
            GeneratorSpec(3, 4, base.c1, base.c2, (1, 0, 0), (bit, 0, 0, 0))
        with pytest.raises(ValueError, match="^is2 must be 4 bits$"):
            base.with_seeds((1, 0, 0), (1, 0, 0, bit))

    def test_tap_bounds(self):
        base = plain_spec()
        with pytest.raises(ValueError):
            GeneratorSpec(3, 4, base.c1, base.c2, taps=(3,))
        with pytest.raises(ValueError):
            GeneratorSpec(3, 4, base.c1, base.c2, taps=(0, 0))

    def test_full_tap_coverage_warns(self):
        base = plain_spec()
        with pytest.warns(UserWarning):
            GeneratorSpec(3, 4, base.c1, base.c2, taps=(0, 1, 2))

    def test_seedless_spec_is_public(self):
        spec = GeneratorSpec(4, 5, Gf2Poly.parse("0,3,4"), Gf2Poly.parse("0,1,3,4,5"))
        assert spec.is1 is None and spec.is2 is None
        with pytest.raises(ValueError):
            shrink_generate(spec, 8)


class TestJsonRoundtrip:
    def test_public_fields(self):
        spec = GeneratorSpec(4, 5, Gf2Poly.parse("0,3,4"), Gf2Poly.parse("0,1,3,4,5"))
        assert GeneratorSpec.from_json(spec.to_json()) == spec

    def test_seeds_and_taps(self):
        spec = clocked_spec()
        data = spec.to_json()
        assert data["is1"] == "100"
        assert data["is2"] == "1000"
        assert data["taps"] == [0]
        assert GeneratorSpec.from_json(data) == spec

    def test_missing_key(self):
        with pytest.raises(KeyError):
            GeneratorSpec.from_json({"l1": 3, "l2": 4, "c1": "0,2,3"})


class TestShrink:
    def test_printed_output_line(self):
        assert str(shrink_generate(plain_spec(), 13)) == "1010110110010"

    def test_rejects_clocked_spec(self):
        with pytest.raises(ValueError):
            shrink_generate(clocked_spec(), 8)

    def test_periodicity(self):
        stats = shrunken_stats(3, 4)
        z = list(shrink_generate(plain_spec(), 2 * stats.period))
        assert z[: stats.period] == z[stats.period :]
        assert sum(z[: stats.period]) == stats.ones_per_period


class TestClocked:
    def test_clock_counts_line(self):
        assert list(clock_counts(clocked_spec(), 19)) == [
            2, 1, 1, 2, 2, 2, 1, 2, 1, 1, 2, 2, 2, 1, 2, 1, 1, 2, 2,
        ]

    def test_decimated_line(self):
        assert str(decimated_stream(clocked_spec(), 20)) == "10010110111010101011"

    def test_output_line(self):
        assert str(ccsg_generate(clocked_spec(), 12)) == "110101011011"

    def test_rejects_plain_spec(self):
        with pytest.raises(ValueError):
            ccsg_generate(plain_spec(), 8)

    def test_decimated_stream_of_plain_spec_is_sr2(self):
        assert str(decimated_stream(plain_spec(), 15)) == "100010011010111"
        assert berlekamp_massey(list(decimated_stream(plain_spec(), 30))) == Gf2Poly.parse("0,1,4")

    def test_deterministic(self):
        spec = clocked_spec()
        assert list(ccsg_generate(spec, 200)) == list(ccsg_generate(spec, 200))

    def test_keep_rule(self):
        # output bits are exactly the decimated bits at positions where SR1 reads 1
        spec = clocked_spec()
        a = [1, 0, 0, 1, 1, 1, 0] * 3
        bprime = list(decimated_stream(spec, 21))
        kept = [b for a_t, b in zip(a, bprime) if a_t]
        assert kept == list(ccsg_generate(spec, len(kept)))


def oracle_keystream(spec: GeneratorSpec, n: int) -> tuple[int, ...]:
    """Keystream from the bit-serial step machine: keep b'_t where SR1 reads 1."""
    out = []
    for a, bprime, _ in _clocked_steps(spec):
        if len(out) == n:
            break
        if a:
            out.append(bprime)
    return tuple(out)


def random_primitive(rng: random.Random, degree: int) -> Gf2Poly:
    while True:
        middle = rng.getrandbits(degree - 1) << 1 if degree > 1 else 0
        poly = Gf2Poly(1 | middle | 1 << degree)
        if is_primitive(poly):
            return poly


def random_seed(rng: random.Random, length: int) -> tuple[int, ...]:
    while True:
        seed = tuple(rng.getrandbits(1) for _ in range(length))
        if any(seed):
            return seed


def random_spec(rng: random.Random, l1: int, l2: int, w: int) -> GeneratorSpec:
    taps = tuple(sorted(rng.sample(range(l1), w)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # w = l1 warns about leaking SR1
        return GeneratorSpec(
            l1,
            l2,
            random_primitive(rng, l1),
            random_primitive(rng, l2),
            random_seed(rng, l1),
            random_seed(rng, l2),
            taps,
        )


def engine(spec: GeneratorSpec, n: int) -> tuple[int, ...]:
    return (ccsg_generate if spec.taps else shrink_generate)(spec, n).bits


class TestEngineAgainstOracle:
    def test_random_specs_every_tap_count(self):
        rng = random.Random(2010)
        shapes = [(l1, l2) for l1 in range(1, 6) for l2 in range(l1 + 1, 10) if math.gcd(l1, l2) == 1]
        for l1, l2 in shapes:
            for w in range(l1 + 1):
                spec = random_spec(rng, l1, l2, w)
                period = shrunken_stats(l1, l2).period
                for n in (0, 1, rng.randrange(3 * period + 1)):
                    assert engine(spec, n) == oracle_keystream(spec, n), (spec, n)

    @pytest.mark.parametrize("l1,l2", [(3, 5), (4, 7), (5, 6)])
    def test_full_period_all_taps(self, l1, l2):
        # w = l1 makes the per-period SR2 advance exceed the SR2 period, so
        # every column read wraps around the SR2 buffer many times
        spec = random_spec(random.Random(l1 * 100 + l2), l1, l2, l1)
        period = shrunken_stats(l1, l2).period
        assert engine(spec, period) == oracle_keystream(spec, period)

    def test_full_period_memory_follows_output(self):
        # at (8, 13, 8 taps) one SR1 period advances SR2 by S = 32895, so
        # repeating the SR2 period to cover every column would take
        # (2^13 - 1) S bytes, about 270 MB; the 1 Mbit output takes 9 bytes a bit
        spec = random_spec(random.Random(8138), 8, 13, 8)
        period = shrunken_stats(8, 13).period
        tracemalloc.start()
        try:
            z = ccsg_generate(spec, period)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(z) == period
        assert peak < 16 * period
        assert z.bits[:256] == oracle_keystream(spec, 256)

    def test_full_period_bytes_per_bit(self):
        # the (6, 17) full period is 4.2 Mbit; one byte a bit for the
        # output plus one SR2 period leaves well under 6 bytes a bit,
        # where a tuple of ints alone would take 8
        spec = random_spec(random.Random(617), 6, 17, 0)
        period = shrunken_stats(6, 17).period
        tracemalloc.start()
        try:
            z = shrink_generate(spec, period)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(z) == period
        assert peak < 6 * period
        assert z[:256] == oracle_keystream(spec, 256)

    def test_full_period_adopts_its_buffer(self):
        # the row blocks are appended to one buffer that the BitSeq adopts:
        # no joined copy of the period and no scan for non-0/1 bytes
        spec = random_spec(random.Random(617), 6, 17, 0)
        period = shrunken_stats(6, 17).period
        tracemalloc.start()
        try:
            z = shrink_generate(spec, period)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(z) == period
        assert peak < 1.5 * period

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_short_request_reads_sr1_only_as_far_as_needed(self):
        # one SR1 period at l1 = 33 is 2^33 bytes, far above the child's
        # 512 MiB address space; a prefix needs only its first ones
        child = textwrap.dedent(
            """
            import resource
            from itertools import islice
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
            from shrinkca.generators import GeneratorSpec, _clocked_steps, _interleave
            for taps in ((), (0,), (5, 20, 32)):
                spec = GeneratorSpec.from_json({
                    "l1": 33, "l2": 35, "c1": "0,13,33", "c2": "0,2,35",
                    "is1": "101100111000111100001111100000111",
                    "is2": "10110011100011110000111110000011111", "taps": list(taps),
                })
                for n in (0, 1, 8, 64, 1000):
                    kept = (b for a, b, _ in _clocked_steps(spec) if a)
                    assert _interleave(spec, n).raw == bytes(islice(kept, n)), (taps, n)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shrinkca.__file__)))
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def oracle_period(spec: GeneratorSpec) -> bytes:
    """One keystream period, d * (2^l2 - 1) bits, from the bit-serial step machine."""
    kept = (bprime for a, bprime, _ in _clocked_steps(spec) if a)
    return bytes(islice(kept, shrunken_stats(spec.l1, spec.l2).period))


def assert_windows(spec: GeneratorSpec, rng: random.Random, count: int) -> None:
    """Random windows (origin, n), n up to 3 periods, origins in [0, 3 periods)."""
    truth = oracle_period(spec)
    period = len(truth)
    for _ in range(count):
        n = rng.choice((0, 1, rng.randrange(1, 4 << spec.l1), rng.randrange(3 * period + 1)))
        origin = rng.choice((0, rng.randrange(2 << spec.l1), rng.randrange(3 * period)))
        window = bytes(truth[(origin + i) % period] for i in range(n))
        z = engine_window(spec, n, origin)
        assert (z.raw, z.origin) == (window, origin), (spec, n, origin)


def engine_window(spec: GeneratorSpec, n: int, origin: int):
    return (ccsg_generate if spec.taps else shrink_generate)(spec, n, origin=origin)


# SR2 advance S per SR1 period sharing a factor g with 2^l2 - 1: the columns
# are then rotations of g decimated columns of (2^l2 - 1) / g bits each
NON_INVERTIBLE = {(3, 4, 3): 5, (3, 10, 1): 11, (4, 11, 1): 23, (5, 12, 3): 13}


class TestColumnModel:
    """Windows at any origin against the bit-serial oracle."""

    def test_random_windows(self):
        rng = random.Random(1005)
        shapes = [(l1, l2) for l1 in range(1, 6) for l2 in range(l1 + 1, 13) if math.gcd(l1, l2) == 1]
        for l1, l2 in rng.sample(shapes, 16):
            spec = random_spec(rng, l1, l2, rng.randrange(l1 + 1))
            assert_windows(spec, rng, 30)

    @pytest.mark.parametrize("shape", sorted(NON_INVERTIBLE))
    def test_non_invertible_advance(self, shape):
        l1, l2, w = shape
        assert math.gcd(coset_exponent(l1, w), (1 << l2) - 1) == NON_INVERTIBLE[shape]
        spec = random_spec(random.Random(l1 * 100 + l2), l1, l2, w)
        assert_windows(spec, random.Random(l2), 25)

    @pytest.mark.parametrize("shape", [(4, 7, 0), (5, 9, 1), *sorted(NON_INVERTIBLE)])
    def test_one_walk_per_residue(self, shape, monkeypatch):
        residues, walk = [], generators._walk

        def counted(buf, start, stride, count):
            residues.append(start)
            return walk(buf, start, stride, count)

        monkeypatch.setattr(generators, "_walk", counted)
        spec = random_spec(random.Random(sum(shape)), *shape)
        z = engine_window(spec, 3 * shrunken_stats(spec.l1, spec.l2).period, 5)
        assert z.raw[:64] == bytes(oracle_keystream(spec, 69)[5:])
        assert 1 <= len(residues) == len(set(residues)) <= NON_INVERTIBLE.get(shape, 1)

    @pytest.mark.parametrize("w", [0, 2])
    def test_one_jump_to_the_first_row(self, w, monkeypatch):
        """Every window jumps SR2 once, to its first row, and runs it over its own rows only."""
        spec = random_spec(random.Random(1517 + w), 4, 17, w)
        d, period = 8, (1 << 17) - 1
        offsets, advance = [], 0
        for a, _, x in islice(_clocked_steps(spec), 15):
            if a:
                offsets.append(advance)
            advance += x
        seed = sum(bit << k for k, bit in enumerate(spec.is2))

        def bit_at(position: int) -> int:
            q, c = divmod(position % (d * period), d)
            t = (q * advance + offsets[c]) % period
            return (_pow_mod(2, t, spec.c2.mask) & seed).bit_count() & 1

        jumps, sr2_bits = [], []
        lfsr = generators._lfsr_digits

        def counted_lfsr(charpoly, seed_, n, origin=0):
            if charpoly == spec.c2:
                jumps.append(origin)
                sr2_bits.append(n)
            return lfsr(charpoly, seed_, n, origin)

        monkeypatch.setattr(generators, "_lfsr_digits", counted_lfsr)
        near_end = next(q for q in range(period - 1, 0, -1) if q * advance % period > period - 2 * advance)
        windows = [
            (1, 0),
            (64, d * 100 + 3),  # skips fewer than 2^16 SR2 bits
            (64, d * (1 << 13) + 5),  # skips more than 2^16
            (64, d * (1 << 40) + 1),
            (400, d * near_end + 2),  # straddles SR2's period
            (64, d * period - 20),  # straddles the keystream's period
            (d * period // advance + 3 * d, d * 9000 + 7),  # reads past one SR2 period
            (1, 3 * d * period + 6),
        ]
        for n, origin in windows:
            jumps.clear()
            sr2_bits.clear()
            z = engine_window(spec, n, origin)
            first = origin % (d * period) // d
            rows = (origin % d + n - 1) // d + 1
            assert jumps == [first * advance % period], (n, origin)
            assert len(sr2_bits) == 1 and sr2_bits[0] <= min(rows * advance, period), (n, origin)
            probes = [*range(min(n, 32)), *range(max(n - 32, 0), n)]
            assert [z.raw[i] for i in probes] == [bit_at(origin + i) for i in probes], (n, origin)


class TestRowBlocks:
    """A window that wraps SR2's period streams in blocks of rows; shrunk blocks cross many edges."""

    @pytest.fixture(params=[1, 2, 5], ids=lambda rows: f"{rows}-rows")
    def rows(self, request, monkeypatch):
        monkeypatch.setattr(generators, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(generators, "_BLOCK_ROWS", request.param)
        return request.param

    @pytest.mark.parametrize("shape", [(3, 5, 0), (4, 7, 2), (5, 9, 1), *sorted(NON_INVERTIBLE)])
    def test_windows_against_the_step_machine(self, rows, shape):
        spec = random_spec(random.Random(sum(shape) + rows), *shape)
        truth = oracle_period(spec)
        period = len(truth)
        length = ((1 << spec.l2) - 1) // NON_INVERTIBLE.get(shape, 1)  # rows of one column period
        d = 1 << (spec.l1 - 1)
        windows = [
            (period, 0),
            (period, 3 * d + 1),
            (3 * period + 7, period - 2),  # three keystream periods
            (d * (length + rows) + 1, 5),  # past one column period
            (d * rows + 1, d * rows - 1),  # one bit past an edge at each end
        ]
        for n, origin in windows:
            z = engine_window(spec, n, origin)
            assert z.raw == bytes(truth[(origin + i) % period] for i in range(n)), (n, origin)
        assert_windows(spec, random.Random(rows), 10)

    def test_full_period_comes_in_blocks(self, rows):
        spec = random_spec(random.Random(47), 4, 7, 0)
        blocks = list(generators._window(spec, shrunken_stats(4, 7).period))
        assert len(blocks) == -(-127 // rows)
        assert [len(b) for b in blocks[:-1]] == [8 * rows] * (len(blocks) - 1)
        assert b"".join(blocks) == oracle_period(spec)

    @pytest.mark.parametrize("n,origin", [(0, 3), (5, 9), (200, 0), (2000, 37)])
    def test_translated_blocks(self, rows, n, origin):
        spec = random_spec(random.Random(59), 5, 9, 1)
        table = bytes.maketrans(b"\x00\x01", b"01")
        digits = b"".join(generators._window(spec, n, origin, table))
        assert digits == engine_window(spec, n, origin).raw.translate(table)


PRIMITIVE_UP_TO_5 = [
    Gf2Poly(mask) for mask in range(2, 1 << 6) if mask & 1 and is_primitive(Gf2Poly(mask))
]


def spread(poly: Gf2Poly, d: int) -> Gf2Poly:
    """poly(x^d)."""
    return Gf2Poly.from_exponents(e * d for e in poly.exponents())


def packed(bits: bytes) -> int:
    return sum(bit << t for t, bit in enumerate(bits))


class TestSpreadRecurrence:
    """lfsr_bytes on p(x^d) is d interleaved sequences of p; int seeds read as tuple seeds."""

    def test_spread_polynomial_interleaves_columns(self):
        assert len(PRIMITIVE_UP_TO_5) == 1 + 1 + 2 + 2 + 6
        rng = random.Random(2205)
        for p in PRIMITIVE_UP_TO_5:
            deg = p.degree
            for d in range(1, 9):
                rows = 3 * ((1 << deg) - 1) + rng.randrange(1, 9)
                seeds = [tuple(rng.getrandbits(1) for _ in range(deg)) for _ in range(d)]
                z = bytearray(rows * d)
                for c, seed in enumerate(seeds):
                    z[c::d] = lfsr_bytes(p, seed, rows)
                q = spread(p, d)
                assert lfsr_bytes(q, tuple(z[: d * deg]), len(z)) == z, (p.to_text(), d)
                assert lfsr_bytes(q, packed(z[: d * deg]), len(z)) == z, (p.to_text(), d)
                longer = rng.randrange(d * deg, len(z) + 1)
                assert lfsr_bytes(q, packed(z[:longer]), len(z)) == z, (p.to_text(), d, longer)

    def test_int_seeds_equal_tuple_seeds(self):
        rng = random.Random(2206)
        for deg in range(1, 32):
            poly = Gf2Poly((1 << deg) | rng.getrandbits(deg))
            seed = tuple(rng.getrandbits(1) for _ in range(deg))
            n = rng.randrange(3 * deg + 200)
            want = lfsr_bytes(poly, seed, n)
            assert lfsr_bytes(poly, packed(seed), n) == want, (poly.to_text(), seed, n)
            # any longer prefix gives the same bits, its top zeros included or not
            longer = bytes(seed) + want[deg : rng.randrange(deg, max(deg, n) + 1)]
            assert lfsr_bytes(poly, packed(longer), n) == want
        with pytest.raises(ValueError):
            lfsr_bytes(Gf2Poly.parse("0,1,4"), -1, 5)


class TestColumnBase:
    def test_all_zero_columns_have_no_base(self):
        for l2, width in ((3, 1), (5, 4), (8, 16)):
            rows = b"0" * 2 * l2 * width
            # no nonzero column: the base is x, since the zero sequence satisfies s_(t+1) = 0
            assert generators._column_base(rows, width, l2) == Gf2Poly(0b10)
            assert generators._extended(rows, width, l2, 1000) == b"0" * 1000

    def test_zero_columns_beside_nonzero_ones(self):
        # decimated columns of one l2-stage register with any start, some of them zero
        rng = random.Random(2207)
        for p in PRIMITIVE_UP_TO_5[2:]:
            deg, width = p.degree, 4
            seeds = [(0,) * deg] + [tuple(rng.getrandbits(1) for _ in range(deg)) for _ in range(width - 1)]
            seeds[rng.randrange(1, width)] = (1,) + (0,) * (deg - 1)  # at least one nonzero column
            rows = 5 * deg
            z = bytearray(rows * width)
            for c, seed in enumerate(seeds):
                z[c::width] = lfsr_bytes(p, seed, rows)
            digits = z.translate(bytes.maketrans(b"\x00\x01", b"01"))
            head = digits[: 2 * deg * width]
            assert generators._column_base(head, width, deg) == p
            assert generators._extended(head, width, deg, len(z)) == digits
            # column 0 alone is the zero sequence: base x, continued as zeros
            assert generators._column_base(head[::width], 1, deg) == Gf2Poly(0b10)
            assert generators._extended(head[::width], 1, deg, rows) == b"0" * rows


def ones_positions(spec: GeneratorSpec) -> tuple[list[int], int]:
    """SR2's advance at each SR1 one over one SR1 period, and over the whole period."""
    offsets, advance = [], 0
    for a, _, x in islice(_clocked_steps(spec), (1 << spec.l1) - 1):
        if a:
            offsets.append(advance)
        advance += x
    return offsets, advance


class TestExtension:
    """Windows inside one SR2 period, longer than 2 l2 rows, continued by base(x^d)."""

    @pytest.fixture
    def extended(self, monkeypatch):
        """The rows each `_extended` call continues from, one entry per call."""
        calls, extend = [], generators._extended

        def counted(rows, width, l2, count):
            calls.append(len(rows) // width)
            return extend(rows, width, l2, count)

        monkeypatch.setattr(generators, "_extended", counted)
        return calls

    def test_windows_against_the_step_machine(self, extended, monkeypatch):
        monkeypatch.setattr(generators, "_EXTEND_BITS", float("-inf"))
        rng = random.Random(2208)
        shapes = [(l1, l2) for l1 in range(1, 4) for l2 in range(l1 + 1, 9) if math.gcd(l1, l2) == 1]
        for l1, l2 in shapes:
            for taps in chain.from_iterable(combinations(range(l1), w) for w in range(l1 + 1)):
                spec = random_spec(rng, l1, l2, 0)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # taps on every stage warn about leaking SR1
                    spec = GeneratorSpec(l1, l2, spec.c1, spec.c2, spec.is1, spec.is2, taps)
                truth = oracle_period(spec)
                period, d = len(truth), 1 << (l1 - 1)
                offsets, advance = ones_positions(spec)
                # the most rows whose column reads stay inside one SR2 period
                rows = ((1 << l2) - 2 - offsets[-1]) // advance + 1
                before = len(extended)
                for _ in range(12):
                    origin = rng.randrange(2 * period)
                    n = rng.randrange(1, max(rows * d - origin % d, 1) + 1)
                    z = engine_window(spec, n, origin)
                    assert z.raw == bytes(truth[(origin + i) % period] for i in range(n)), (spec, n, origin)
                if rows > 2 * l2 + 2:
                    assert len(extended) > before, spec
                assert all(r == 2 * l2 for r in extended[before:])
        assert len(extended) > 100

    @pytest.mark.parametrize("w", [0, 2])
    def test_crossover_follows_the_bits_saved(self, extended, w):
        # (4, 19): d = 8 and S >= 15, so 2^16 bits read 2^17 SR2 bits or more
        # the strided way and save far more than 2^14; 4096 bits save less
        spec = random_spec(random.Random(419 + w), 4, 19, w)
        for n, origin, extends in ((4096, 5, False), (1 << 16, 8 * 3 + 5, True), (1 << 16, 0, True)):
            del extended[:]
            z = engine_window(spec, n, origin)
            assert bool(extended) == extends, n
            rng = random.Random(n)
            probes = sorted({*range(64), *range(n - 64, n), *rng.sample(range(n), 200)})
            assert bytes(z.raw[i] for i in probes) == keystream_bits(spec, [origin + i for i in probes])


def keystream_bits(spec: GeneratorSpec, positions: list[int]) -> bytes:
    """Bits at absolute positions by jump-ahead: bit q * d + c is SR2's bit at q * S + off_c."""
    offsets, advance = ones_positions(spec)
    seed = sum(bit << k for k, bit in enumerate(spec.is2))
    out = []
    for p in positions:
        q, c = divmod(p, len(offsets))
        t = (q * advance + offsets[c]) % ((1 << spec.l2) - 1)
        out.append((_pow_mod(2, t, spec.c2.mask) & seed).bit_count() & 1)
    return bytes(out)


class TestClockAdvances:
    def test_against_clock_counts(self):
        rng = random.Random(4242)
        for l1 in range(1, 7):
            for w in range(l1 + 1):
                spec = random_spec(rng, l1, l1 + 1, w)
                reach = max(spec.taps, default=0)
                for n in (0, reach - 1, reach, reach + 1, rng.randrange(40)):
                    a = list(islice(lfsr_bit_iter(spec.c1, spec.is1), max(n, 0)))
                    steps = clock_counts(spec, len(a) - reach) if len(a) >= reach else ()
                    expected = list(accumulate(steps, initial=0)) if len(a) >= reach else []
                    assert clock_advances(a, spec.taps) == expected, (spec, n)
                    assert clock_advances(bytes(a), spec.taps) == expected

    def test_small_cases(self):
        assert clock_advances([1, 0, 1], ()) == [0, 1, 2, 3]
        assert clock_advances([1, 0, 1], (0, 2)) == [0, 4]
        assert clock_advances([1, 0], (0, 2)) == [0]
        assert clock_advances([1], (0, 2)) == []


class TestStats:
    @pytest.mark.parametrize(
        "l1,l2,period,ones,lo,hi",
        [
            (3, 4, 60, 32, 8, 16),
            (4, 5, 248, 128, 20, 40),
            (1, 2, 3, 2, 1.0, 2),
            (2, 3, 14, 8, 3, 6),
        ],
    )
    def test_closed_forms(self, l1, l2, period, ones, lo, hi):
        st = shrunken_stats(l1, l2)
        assert st.period == period
        assert st.ones_per_period == ones
        assert st.lc_lower == lo
        assert st.lc_upper == hi

    def test_matches_simulation(self):
        from shrinkca.gf2 import linear_complexity

        spec = plain_spec()
        stats = shrunken_stats(3, 4)
        z = list(shrink_generate(spec, 2 * stats.period))
        assert stats.lc_lower < linear_complexity(z) <= stats.lc_upper


class TestRandomizedConsistency:
    def test_clocked_against_direct_simulation(self):
        # independent simulation: explicit SR2 bit list, cursor skipping
        rng = random.Random(47)
        from shrinkca.engines import LfsrState, lfsr_generate

        for _ in range(30):
            l1, l2 = 3, 5
            c1 = Gf2Poly.parse("0,2,3")
            c2 = Gf2Poly.parse("0,2,5")
            is1 = tuple(rng.randrange(2) for _ in range(l1))
            is2 = tuple(rng.randrange(2) for _ in range(l2))
            if not any(is1):
                is1 = (1,) + is1[1:]
            if not any(is2):
                is2 = (1,) + is2[1:]
            taps = tuple(sorted(rng.sample(range(l1), rng.randrange(1, l1))))
            spec = GeneratorSpec(l1, l2, c1, c2, is1, is2, taps=taps)
            a = list(lfsr_generate(LfsrState(c1, is1), 400))
            b = list(lfsr_generate(LfsrState(c2, is2), 4000))
            astate = list(is1)
            z = []
            cursor = 0
            t = 0
            while len(z) < 60:
                x = 1 + sum((astate[k] & 1) << j for j, k in enumerate(taps))
                if a[t]:
                    z.append(b[cursor])
                cursor += x
                # SR1 recurrence for 0,2,3: s_{t+3} = s_t + s_{t+2}
                astate = astate[1:] + [astate[0] ^ astate[2]]
                t += 1
            assert z == list(ccsg_generate(spec, 60))
