import json
import math
import random
import tracemalloc
import warnings
from itertools import accumulate, islice

import pytest

from shrinkca.engines import ZeroSeed, lfsr_bit_iter
from shrinkca.gf2 import Gf2Poly, NonPrimitiveModulus, berlekamp_massey, is_primitive
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

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(plain_spec().to_json()))
        assert GeneratorSpec.from_file(path) == plain_spec()

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
