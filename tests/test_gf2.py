import math
import random
import time
import tracemalloc

import pytest

from shrinkca.attack import phase1_reconstruct, phase2_search
from shrinkca.engines import BitSeq
from shrinkca.generators import GeneratorSpec, shrink_generate
from shrinkca.gf2 import (
    FieldTable,
    Gf2LinearSystem,
    Gf2Poly,
    NonPrimitiveModulus,
    RuleVector,
    berlekamp_massey,
    continuant_poly,
    is_irreducible,
    is_primitive,
    linear_complexity,
    min_poly_of_power,
)
from shrinkca.gf2 import (
    _divmod_mask,
    _mod_mask,
    _mul_mask,
    _mul_mod,
    _powx,
    _prime_factors,
    _square,
)
from shrinkca.linearize import coset_exponent, linearize_generator

X = Gf2Poly(2)
ONE = Gf2Poly(1)
ZERO = Gf2Poly(0)


def pow_mod_right_to_left(base: int, exp: int, mod: int) -> int:
    """base^exp modulo mod, right to left through _mul_mod: the oracle for _powx at base x."""
    result = _mod_mask(1, mod)
    base = _mod_mask(base, mod)
    while exp:
        if exp & 1:
            result = _mul_mod(result, base, mod)
        base = _mul_mod(base, base, mod)
        exp >>= 1
    return result


def brute_irreducible(p: Gf2Poly) -> bool:
    deg = p.degree
    if deg is None or deg < 1:
        return False
    for mask in range(2, 1 << (deg // 2 + 1)):
        if divmod(p, Gf2Poly(mask))[1] == ZERO and Gf2Poly(mask).degree < deg:
            return False
    return True


def brute_primitive(p: Gf2Poly) -> bool:
    deg = p.degree
    if deg is None or deg < 1 or not brute_irreducible(p):
        return False
    order = (1 << deg) - 1
    acc = X % p
    for k in range(1, order):
        if acc == ONE:
            return False
        acc = (acc * X) % p
    return acc == ONE


def irreducible_then_order(p: Gf2Poly) -> bool:
    """Primitivity as Rabin's irreducibility test followed by the order test."""
    m = p.degree
    if m is None or m < 1 or not p.mask & 1 or not is_irreducible(p):
        return False
    order = (1 << m) - 1
    return all(_powx(order // q, p.mask) != 1 for q in _prime_factors(order))


def conjugate_product_min_poly(modulus: Gf2Poly, e: int) -> Gf2Poly:
    # product of (x + lambda^(e 2^i)) over the conjugates, by repeated squaring
    m, mod = modulus.degree, modulus.mask
    root = _powx(e % ((1 << m) - 1), mod)
    coeffs = [1]  # field elements, lowest degree first
    conj = root
    while True:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] ^= _mul_mod(coeffs[i + 1], conj, mod)
        conj = _mul_mod(conj, conj, mod)
        if conj == root:
            break
    assert all(c <= 1 for c in coeffs), "conjugate product left GF(2)"
    return Gf2Poly(sum(c << i for i, c in enumerate(coeffs)))


def run_recurrence(charpoly: Gf2Poly, seed: list[int], n: int) -> list[int]:
    # direct s_{t+L} = sum_{k<L} c_k s_{t+k}, independent of the engines module
    deg = charpoly.degree
    low = [k for k in charpoly.exponents() if k < deg]
    bits = list(seed)
    while len(bits) < n:
        bits.append(sum(bits[-deg + k] for k in low) & 1)
    return bits[:n]


class TestGf2Poly:
    def test_parse_roundtrip(self):
        p = Gf2Poly.parse("0,2,5")
        assert p.mask == 0b100101
        assert p.to_text() == "0,2,5"
        assert p.exponents() == (0, 2, 5)
        assert p.degree == 5
        assert str(p) == "0,2,5"

    def test_parse_empty_is_zero(self):
        assert Gf2Poly.parse("").mask == 0
        assert Gf2Poly.parse("").degree is None

    def test_from_exponents_collapses_duplicates(self):
        assert Gf2Poly.from_exponents([0, 0, 2]) == Gf2Poly.parse("0,2")

    def test_from_exponents_rejects_negative(self):
        with pytest.raises(ValueError):
            Gf2Poly.from_exponents([-1])

    def test_add_is_xor(self):
        assert Gf2Poly.parse("0,1") + Gf2Poly.parse("1,2") == Gf2Poly.parse("0,2")
        assert Gf2Poly.parse("0,3") + Gf2Poly.parse("0,3") == ZERO

    def test_mul_golden(self):
        # (x+1)(x^2+x+1) = x^3+1
        assert Gf2Poly.parse("0,1") * Gf2Poly.parse("0,1,2") == Gf2Poly.parse("0,3")

    def test_pow_golden(self):
        assert Gf2Poly.parse("0,1") ** 2 == Gf2Poly.parse("0,2")
        assert Gf2Poly.parse("0,2,5") ** 0 == ONE
        with pytest.raises(ValueError):
            Gf2Poly.parse("0,1") ** -1

    def test_divmod_law(self):
        rng = random.Random(3)
        for _ in range(200):
            a = Gf2Poly(rng.randrange(1 << 16))
            b = Gf2Poly(rng.randrange(1, 1 << 8))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree is None or r.degree < b.degree

    def test_ring_identities(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b, c = (Gf2Poly(rng.randrange(1 << 12)) for _ in range(3))
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_zero_is_falsy(self):
        assert not ZERO
        assert ONE

    def test_mod_mask_matches_divmod_remainder(self):
        rng = random.Random(13)
        for _ in range(500):
            a = rng.getrandbits(rng.randrange(0, 262))
            b = rng.getrandbits(rng.randrange(1, 132)) | 1
            assert _mod_mask(a, b) == _divmod_mask(a, b)[1]
        assert _mod_mask(0b1011, 0b1011) == 0
        assert _mod_mask(0b101, 0b1011) == 0b101
        with pytest.raises(ZeroDivisionError):
            _mod_mask(0b101, 0)


class TestKernels:
    """_square and _powx against the bit-serial _mul_mask and the right-to-left loop."""

    def test_square_matches_mul_mask(self):
        rng = random.Random(1100)
        cases = [0, 1, 2, 3, 255, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 65) - 1]
        for bits in (*range(1, 80), *(rng.randrange(80, 1101) for _ in range(60)), 1100):
            cases.append(rng.getrandbits(bits) | 1 << bits - 1)  # dense
            cases.append(1 << bits - 1 | 1 << rng.randrange(bits) | rng.randrange(2))  # sparse
        for a in cases:
            assert _square(a) == _mul_mask(a, a), hex(a)

    def test_pow_mod_matches_right_to_left(self):
        rng = random.Random(2 ** 40)
        degrees = (*range(1, 40), 63, 64, 65, *(rng.randrange(40, 1101) for _ in range(16)), 1100)
        for deg in degrees:
            exps = (0, 1, 2, 3, deg - 1, deg, rng.getrandbits(8), rng.getrandbits(45), 1 << 40, (1 << deg) - 1)
            for mod in (1 << deg | rng.getrandbits(deg), 1 << deg, 1 << deg | 1):
                for exp in exps[: 8 if deg > 200 else None]:
                    assert _powx(exp, mod) == pow_mod_right_to_left(0b10, exp, mod), (deg, mod, exp)
        for exp in (0, 1, 5):  # the degree-1 moduli x + 1 and x, and the degree-0 modulus 1
            assert _powx(exp, 0b11) == pow_mod_right_to_left(0b10, exp, 0b11) == 1  # x = 1 mod x + 1
            assert _powx(exp, 0b10) == pow_mod_right_to_left(0b10, exp, 0b10) == (exp == 0)
            assert _powx(exp, 1) == pow_mod_right_to_left(0b10, exp, 1) == 0  # modulo 1 everything is 0
        with pytest.raises(ZeroDivisionError):
            _powx(3, 0)


class TestIrreduciblePrimitive:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0,1", True),
            ("0,1,2", True),
            ("0,1,3", True),
            ("0,2,3", True),
            ("0,1,4", True),
            ("0,3,4", True),
            ("0,1,2,4,5", True),
            ("0,1,2,3,4", False),  # irreducible but order 5
            ("0,2,4", False),  # (x^2+x+1)^2
        ],
    )
    def test_primitive_goldens(self, text, expected):
        assert is_primitive(Gf2Poly.parse(text)) is expected

    def test_irreducible_not_primitive(self):
        p = Gf2Poly.parse("0,1,2,3,4")
        assert is_irreducible(p)
        assert not is_primitive(p)

    def test_degenerate_inputs(self):
        assert not is_primitive(ONE)
        assert not is_primitive(ZERO)
        assert not is_irreducible(ONE)
        assert not is_primitive(X)  # zero constant term

    @pytest.mark.parametrize("text", ["0,1,2,5,61", "0,3,5,6,62", "0,38,89"])
    def test_large_degrees_are_fast(self, text):
        # 2^61 - 1 and 2^89 - 1 are prime; 2^62 - 1 = 3 * 715827883 * 2147483647
        start = time.perf_counter()
        assert is_primitive(Gf2Poly.parse(text))
        assert time.perf_counter() - start < 1.0

    def test_prime_factors_against_trial_division(self):
        def trial(n):
            out, f = [], 2
            while f * f <= n:
                if n % f == 0:
                    out.append(f)
                    while n % f == 0:
                        n //= f
                f += 1 if f == 2 else 2
            return out + ([n] if n > 1 else [])

        for n in range(1, 1 << 16):  # uncached, so the cache keeps only the 2^m - 1 asked for
            assert _prime_factors.__wrapped__(n) == tuple(trial(n)), n
        assert _prime_factors((1 << 62) - 1) == (3, 715827883, 2147483647)
        assert _prime_factors((1 << 67) - 1) == (193707721, 761838257287)
        assert _prime_factors((1 << 67) - 1) is _prime_factors((1 << 67) - 1)
        assert 3 * 715827883 * 2147483647 == (1 << 62) - 1
        assert 193707721 * 761838257287 == (1 << 67) - 1

    def test_every_degree_up_to_12_against_the_oracle(self):
        for mask in range(1 << 13):
            p = Gf2Poly(mask)
            assert is_primitive(p) == irreducible_then_order(p), p.to_text()

    def test_primitive_counts_are_totient_over_degree(self):
        for m in range(1, 13):
            order = (1 << m) - 1
            phi = order
            for q in _prime_factors(order):
                phi -= phi // q
            count = sum(map(is_primitive, map(Gf2Poly, range(1 << m | 1, 2 << m, 2))))
            assert count == phi // m, m

    def test_seeded_degrees_13_to_64_against_the_oracle(self):
        # random polynomials with p(0) = 1, drawn at each degree until one is primitive
        rng = random.Random(64)
        for m in range(13, 65):
            p = None
            while p is None or not is_primitive(p):
                p = Gf2Poly(1 << m | rng.getrandbits(m) | 1)
                assert is_primitive(p) == irreducible_then_order(p), p.to_text()

    def test_against_brute_force(self):
        rng = random.Random(13)
        for _ in range(300):
            deg = rng.randrange(1, 11)
            p = Gf2Poly(1 << deg | rng.randrange(1 << deg))
            assert is_irreducible(p) == brute_irreducible(p), p.to_text()
            assert is_primitive(p) == brute_primitive(p), p.to_text()


class TestContinuant:
    @pytest.mark.parametrize(
        "rules,expected",
        [
            ("01111", "0,2,5"),
            ("00001", "0,1,2,4,5"),
            ("10000", "0,1,2,4,5"),
            ("0", "1"),
            ("1", "0,1"),
        ],
    )
    def test_goldens(self, rules, expected):
        got = continuant_poly([int(c) for c in rules])
        assert got == Gf2Poly.parse(expected)

    def test_empty_is_one(self):
        assert continuant_poly([]) == ONE

    def test_against_matrix_determinant(self):
        # fraction-free elimination on (xI + M) with exact polynomial division
        def det_oracle(rules):
            n = len(rules)
            m = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = X + (ONE if rules[i] else ZERO)
                if i > 0:
                    m[i][i - 1] = ONE
                if i + 1 < n:
                    m[i][i + 1] = ONE
            prev = ONE
            for k in range(n - 1):
                if not m[k][k]:
                    swap = next((r for r in range(k + 1, n) if m[r][k]), None)
                    if swap is None:
                        continue
                    m[k], m[swap] = m[swap], m[k]
                for i in range(k + 1, n):
                    for j in range(k + 1, n):
                        q, r = divmod(m[i][j] * m[k][k] + m[i][k] * m[k][j], prev)
                        assert not r
                        m[i][j] = q
                    m[i][k] = ZERO
                prev = m[k][k]
            return m[n - 1][n - 1]

        rng = random.Random(11)
        for _ in range(120):
            rules = [rng.randrange(2) for _ in range(rng.randrange(1, 17))]
            assert continuant_poly(rules) == det_oracle(rules), rules

    def test_reversal_invariance(self):
        rng = random.Random(17)
        for _ in range(100):
            rules = [rng.randrange(2) for _ in range(rng.randrange(1, 20))]
            assert continuant_poly(rules) == continuant_poly(rules[::-1])


class TestRuleVector:
    def test_from_string(self):
        rv = RuleVector.from_string("0111001110")
        assert rv.bits == (0, 1, 1, 1, 0, 0, 1, 1, 1, 0)
        assert len(rv) == 10
        assert str(rv) == "0111001110"

    def test_hex_golden(self):
        rv = RuleVector.from_hex("8C0300C031", 40)
        assert str(rv) == "1000110000000011000000001100000000110001"
        assert rv.to_hex() == "8C0300C031"

    def test_hex_roundtrip_random(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randrange(1, 65)
            rv = RuleVector(tuple(rng.randrange(2) for _ in range(n)))
            assert RuleVector.from_hex(rv.to_hex(), n) == rv

    def test_hex_errors(self):
        with pytest.raises(ValueError):
            RuleVector.from_hex("8C", 20)  # too short
        with pytest.raises(ValueError):
            RuleVector.from_hex("8C00", 8)  # surplus digits
        with pytest.raises(ValueError):
            RuleVector.from_hex("F", 3)  # nonzero padding
        with pytest.raises(ValueError):
            RuleVector.from_string("012")
        with pytest.raises(ValueError):
            RuleVector(())
        for bit in (2, -1, 1.0, "1", None):
            with pytest.raises(ValueError, match="rule bits must be 0 or 1"):
                RuleVector((1, bit, 0))

    def test_mirrored(self):
        rv = RuleVector.from_string("0111001110")
        assert str(rv.mirrored()) == "0111001110"[::-1]
        assert rv.mirrored().char_poly() == rv.char_poly()

    def test_char_poly_golden(self):
        assert RuleVector.from_string("01111").char_poly() == Gf2Poly.parse("0,2,5")


class TestFieldTable:
    def test_goldens_degree5(self):
        t = FieldTable.build(Gf2Poly.parse("0,1,2,4,5"))
        assert t.order == 31
        assert t.zech[1] == 19
        assert t.zech[2] == 7
        assert t.zech[4] == 14
        assert t.power_sum([0, 1, 2]) == 23
        assert t.power_sum([1, 2, 4]) == 29

    def test_zech_identity(self):
        t = FieldTable.build(Gf2Poly.parse("0,1,2,4,5"))
        assert [k for k in range(t.order) if t.zech[k] is None] == [0]
        for k in range(1, t.order):
            # alpha^zech(k) = 1 + alpha^k
            assert t.antilog[t.zech[k]] == 1 ^ t.antilog[k]

    def test_zech_is_lazy(self):
        t = FieldTable.build(Gf2Poly.parse("0,1,2,4,5"))
        assert not {"antilog", "log", "zech"} & set(vars(t))
        assert t.zech is t.zech and t.antilog is t.antilog and t.log is t.log

    def test_log_antilog_inverse(self):
        t = FieldTable.build(Gf2Poly.parse("0,3,4"))
        assert t.log[0] is None
        for v in range(1, 16):
            assert t.antilog[t.log[v]] == v
        for k in range(15):
            assert t.log[t.antilog[k]] == k

    def test_power_sum_edge_cases(self):
        t = FieldTable.build(Gf2Poly.parse("0,1,4"))
        assert t.power_sum([]) is None
        assert t.power_sum([3, 3]) is None
        assert t.power_sum([0]) == 0
        assert t.power_sum([5]) == 5

    def test_rejects_nonprimitive(self):
        with pytest.raises(NonPrimitiveModulus):
            FieldTable.build(Gf2Poly.parse("0,1,2,3,4"))

    def test_rejects_degenerate_degrees(self):
        with pytest.raises(ValueError):
            FieldTable.build(ONE)
        with pytest.raises(ValueError):
            FieldTable.build(Gf2Poly.parse("0,3,25"))

    @pytest.mark.parametrize("m", range(1, 17))
    def test_every_element_against_full_tables(self, m):
        # the first primitive modulus of degree m, so degrees 13..16 take the giant steps
        mod = next(p for p in map(Gf2Poly, range(1 << m | 1, 2 << m, 2)) if is_primitive(p))
        t = FieldTable.build(mod)
        assert t.order == (1 << m) - 1 == len(t.antilog)
        assert (len(t.giant) == 1) == (m <= 12)  # up to degree 12 the baby table is the group
        assert [t.element(k) for k in range(t.order)] == list(t.antilog)
        assert [t.discrete_log(v) for v in range(1 << m)] == list(t.log)
        assert [t.power_sum([0, k]) for k in range(t.order)] == list(t.zech)
        assert t.element(-1) == t.antilog[-1] and t.element(t.order) == 1

    @pytest.mark.parametrize("m", range(13, 25))
    def test_baby_steps_balance_the_logs(self, m):
        # above degree 12, B = 2^(ceil(m/2) + 1) baby steps and ceil((2^m - 1) / B) giant steps
        rng = random.Random(m)
        mod = next(p for p in map(Gf2Poly, range(1 << m | 1, 2 << m, 2)) if is_primitive(p))
        t = FieldTable.build(mod)
        order, steps = (1 << m) - 1, 2 ** (math.ceil(m / 2) + 1)
        assert len(t.baby) == len(t.baby_log) == steps
        assert len(t.giant) == -(-order // steps)
        assert t.giant == tuple(pow_mod_right_to_left(0b10, steps * j, mod.mask) for j in range(len(t.giant)))
        boundaries = [steps * j for j in rng.sample(range(1, len(t.giant)), min(8, len(t.giant) - 1))]
        for k in (0, 1, steps - 1, steps, steps + 1, order - 1, *boundaries, *(b - 1 for b in boundaries)):
            v = pow_mod_right_to_left(0b10, k, mod.mask)
            assert t.element(k) == v and t.element(k + order) == v and t.element(k - order) == v, k
            assert t.discrete_log(v) == k, k

    @pytest.mark.parametrize("m", range(17, 25))
    def test_random_elements_against_pow_mod(self, m):
        rng = random.Random(m)
        while True:
            mod = Gf2Poly(1 << m | rng.getrandbits(m) | 1)
            if is_primitive(mod):
                break
        t = FieldTable.build(mod)
        order = t.order
        for _ in range(40):
            k = rng.randrange(-3 * order, 3 * order)
            v = _powx(k % order, mod.mask)
            assert t.element(k) == v
            assert t.discrete_log(v) == k % order
            exps = [rng.randrange(2 * order) for _ in range(rng.randrange(1, 5))]
            acc = 0
            for e in exps:
                acc ^= _powx(e, mod.mask)
            log = t.power_sum(exps)
            assert (acc == 0) if log is None else _powx(log, mod.mask) == acc
        assert t.discrete_log(0) is None
        assert t.power_sum([5, 5 + order]) is None
        assert "antilog" not in vars(t) and "log" not in vars(t)

    def test_discrete_log_rejects_non_elements(self):
        t = FieldTable.build(Gf2Poly.parse("0,1,4"))
        for v in (-1, 16, 1 << 40):
            with pytest.raises(ValueError):
                t.discrete_log(v)

    def test_attack_builds_no_full_table(self):
        # l2 = 17: a full table would hold 2^17 entries; the attack needs none
        pub = GeneratorSpec(3, 17, Gf2Poly.parse("0,2,3"), Gf2Poly.parse("0,3,17"))
        assert is_primitive(pub.c2)
        secret = pub.with_seeds((1, 0, 1), (0, 1) * 8 + (1,))
        intercepted = BitSeq(shrink_generate(secret, 40).bits)
        pair = linearize_generator(pub.l1, pub.c2)
        t = FieldTable.build(min_poly_of_power(pub.c2, coset_exponent(pub.l1, 0)))
        known, records = phase1_reconstruct(intercepted, pair, pub.l1, t)
        result = phase2_search(known, pub, t)
        assert records and (secret.is1, secret.is2) in result.candidates
        assert not {"antilog", "log", "zech"} & set(vars(t))

    def test_degree_24_build_is_small(self):
        mod = Gf2Poly.parse("0,1,2,7,24")
        tracemalloc.start()
        try:
            t = FieldTable.build(mod)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        k = 0xABCDEF
        assert t.discrete_log(t.element(k)) == k


class TestMinPolyOfPower:
    @pytest.mark.parametrize(
        "modulus,e,expected",
        [
            ("0,1,4", 7, "0,3,4"),
            ("0,1,2,4,5", 7, "0,2,5"),
            ("0,1,2,4,5", 35, "0,1,2,4,5"),  # 35 = 4 mod 31, conjugate of alpha
            ("0,2,3", 1, "0,2,3"),
            ("0,2,3", 2, "0,2,3"),
        ],
    )
    def test_goldens(self, modulus, e, expected):
        assert min_poly_of_power(Gf2Poly.parse(modulus), e) == Gf2Poly.parse(expected)

    def test_root_property(self):
        # alpha^e must be a root of its minimal polynomial
        mod = Gf2Poly.parse("0,2,5")
        t = FieldTable.build(mod)
        rng = random.Random(29)
        for _ in range(40):
            e = rng.randrange(1, t.order)
            mp = min_poly_of_power(mod, e)
            assert t.power_sum([e * k % t.order for k in mp.exponents()]) is None

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_conjugate_product(self, m):
        # every exponent class, degenerate cosets and e = 0 mod 2^m - 1 included,
        # on moduli with proper subfields (m = 4, 6, 8, 9, 10) as well
        moduli = [p for p in map(Gf2Poly, range(1 << m, 2 << m)) if is_primitive(p)][:3]
        for modulus in moduli:
            for e in range(-3, (1 << m) + 3):
                assert min_poly_of_power(modulus, e) == conjugate_product_min_poly(modulus, e)

    def test_large_degree_root_and_coset_size(self):
        rng = random.Random(61)
        for _ in range(12):
            m = rng.randrange(11, 65)
            modulus = Gf2Poly(1 << m | rng.getrandbits(m) | 1)
            while not is_primitive(modulus):
                modulus = Gf2Poly(1 << m | rng.getrandbits(m) | 1)
            order, mod = (1 << m) - 1, modulus.mask
            for e in (rng.randrange(order), order // 3, order // 7 * 5, 0):
                mp = min_poly_of_power(modulus, e)
                coset = {e * (1 << i) % order for i in range(m)}
                assert mp.degree == len(coset)
                root = _powx(e, mod)
                value = 0
                for k in mp.exponents():
                    value ^= pow_mod_right_to_left(root, k, mod)
                assert value == 0


class TestBerlekampMassey:
    def test_example_streams(self):
        assert berlekamp_massey([1, 0, 0, 1, 1, 1, 0] * 3) == Gf2Poly.parse("0,2,3")
        b = [1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1]
        assert berlekamp_massey(b * 2) == Gf2Poly.parse("0,1,4")

    def test_refuses_bits_other_than_0_and_1(self):
        # [3, 2, 5, 1] was read by parity, as [1, 0, 1, 1]
        for bits in ([3, 2, 5, 1], [1, 0, 2], [1, 1.0, 0], [1, -1], "1011"):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                berlekamp_massey(bits)
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                linear_complexity(bits)
        assert berlekamp_massey(b"\x01\x00\x01\x01") == berlekamp_massey([1, 0, 1, 1]) == Gf2Poly.parse("0,1,2")

    def test_decimated_pn_stream(self):
        bits = [int(c) for c in "111010110010001"]
        assert berlekamp_massey(bits) == Gf2Poly.parse("0,3,4")

    def test_degenerate_streams(self):
        assert berlekamp_massey([]) == ONE
        assert berlekamp_massey([0, 0, 0, 0]) == ONE
        assert linear_complexity([0] * 10) == 0
        assert linear_complexity([0, 0, 1]) == 3

    def test_pn_roundtrip_exhaustive(self):
        for text in ("0,1,2", "0,1,3", "0,2,3", "0,1,4", "0,3,4"):
            charpoly = Gf2Poly.parse(text)
            deg = charpoly.degree
            for seedmask in range(1, 1 << deg):
                seed = [seedmask >> k & 1 for k in range(deg)]
                stream = run_recurrence(charpoly, seed, 4 * deg)
                assert berlekamp_massey(stream) == charpoly
                assert linear_complexity(stream) == deg

    def test_pn_roundtrip_random(self):
        rng = random.Random(31)
        pool = [Gf2Poly(1 << d | m) for d in range(5, 11) for m in range(1, 1 << d, 2)]
        primitives = [p for p in pool if is_primitive(p)]
        for _ in range(60):
            charpoly = rng.choice(primitives)
            deg = charpoly.degree
            seed = [rng.randrange(2) for _ in range(deg)]
            if not any(seed):
                seed[0] = 1
            stream = run_recurrence(charpoly, seed, 4 * deg)
            assert berlekamp_massey(stream) == charpoly


def pinned(s: Gf2LinearSystem, vec: int) -> int | None:
    """The value the system forces on vec . x, or None, read off consistency adds."""
    fits = [s.copy().add(vec, bit) for bit in (0, 1)]
    return None if all(fits) else fits.index(True)


class TestLinearSystem:
    def test_solve_pair(self):
        s = Gf2LinearSystem(2)
        assert s.add(0b11, 1)  # x0 + x1 = 1
        assert s.add(0b10, 1)  # x1 = 1
        assert pinned(s, 0b01) == 0
        assert pinned(s, 0b10) == 1
        assert list(s.solutions()) == [0b10]
        assert s.rank == 2

    def test_contradiction(self):
        s = Gf2LinearSystem(3)
        assert s.add(0b101, 1)
        assert s.add(0b011, 0)
        assert not s.add(0b110, 0)  # forces x0+x2 = 0 against row one

    def test_redundant_equation_is_consistent(self):
        s = Gf2LinearSystem(3)
        assert s.add(0b101, 1)
        assert s.add(0b101, 1)
        assert s.rank == 1

    def test_underdetermined_value_is_none(self):
        s = Gf2LinearSystem(3)
        s.add(0b101, 1)
        assert pinned(s, 0b001) is None
        assert pinned(s, 0b101) == 1

    def test_solutions_enumeration(self):
        s = Gf2LinearSystem(3)
        s.add(0b101, 1)
        sols = list(s.solutions())
        assert sols == [0b100, 0b001, 0b110, 0b011]
        for v in sols:
            assert ((v & 1) ^ (v >> 2 & 1)) == 1

    def test_copy_is_independent(self):
        s = Gf2LinearSystem(2)
        s.add(0b01, 1)
        c = s.copy()
        c.add(0b10, 0)
        assert pinned(s, 0b10) is None
        assert pinned(c, 0b10) == 0

    def test_random_consistency(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randrange(2, 9)
            truth = rng.randrange(1 << n)
            s = Gf2LinearSystem(n)
            for _ in range(2 * n):
                vec = rng.randrange(1, 1 << n)
                rhs = (truth & vec).bit_count() & 1
                assert s.add(vec, rhs)
            assert truth in set(s.solutions())

    def test_against_brute_force(self):
        """Every add's answer and the solution set match the assignments that
        satisfy the equations so far, through rank n and past it, in copies
        taken at rank n - 1 and n as well."""

        def satisfies(x: int, vec: int, rhs: int) -> bool:
            return (x & vec).bit_count() & 1 == rhs

        def feed(s: Gf2LinearSystem, fits: list[int], eqs) -> list[int]:
            for vec, rhs in eqs:
                kept = [x for x in fits if satisfies(x, vec, rhs)]
                assert s.add(vec, rhs) == bool(kept), (vec, rhs)
                fits = kept or fits
                sols = list(s.solutions())
                assert len(sols) == len(set(sols))
                assert sorted(sols) == fits
            return fits

        rng = random.Random(53)
        for n in range(1, 11):
            for _ in range(4):
                truth = rng.randrange(1 << n)

                def equation():
                    vec = rng.randrange(1 << n)
                    rhs = (truth & vec).bit_count() & 1
                    return vec, rhs ^ (rng.random() < 0.3)

                s = Gf2LinearSystem(n)
                fits = list(range(1 << n))
                copies = []
                while s.rank < n:
                    if s.rank == n - 1 and not copies:
                        copies.append((s.copy(), fits))
                    fits = feed(s, fits, [equation()])
                copies.append((s.copy(), fits))
                fits = feed(s, fits, [equation() for _ in range(3 * n)])
                assert len(fits) == 1
                for dup, dup_fits in copies:
                    feed(dup, dup_fits, [equation() for _ in range(3 * n)])
                assert sorted(s.solutions()) == fits
