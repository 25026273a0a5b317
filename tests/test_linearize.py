import random
import time

import pytest

from shrinkca import linearize
from shrinkca.gf2 import (
    Gf2Poly,
    RuleVector,
    _inv_mod,
    _mod_mask,
    _mul_mask,
    is_irreducible,
    is_primitive,
    min_poly_of_power,
)
from shrinkca.linearize import (
    DegenerateCoset,
    SynthesisFailed,
    coset_exponent,
    concatenate_once,
    concatenation_chain,
    linearize_generator,
    linearize_model,
    synthesize_ca_pair,
)


def dfs_synthesize_ca_pair(target: Gf2Poly) -> tuple[RuleVector, RuleVector]:
    """The two mirror-image 90/150 rule vectors with the given characteristic polynomial.

    Depth-first search over rule bits (0 before 1) with the sub-automaton
    recurrence P_i = (x + R_i) P_(i-1) + P_(i-2).  Once the head passes the
    midpoint, the cofactor B = target * P_(i-1)^(-1) mod P_i must be the
    continuant of the remaining tail, so deg B = L - i - 1 exactly; other
    residues prune the branch.  The first vector found is returned with its
    mirror (for irreducible targets these are the only two solutions).
    """
    deg = target.degree
    if deg is None or deg < 1:
        raise ValueError("target must have degree >= 1")
    if not is_irreducible(target):
        raise ValueError(f"{target.to_text()} is not irreducible")
    goal = target.mask
    found: tuple[int, ...] | None = None

    def dfs(i: int, prev: int, cur: int, rules: tuple[int, ...]) -> None:
        nonlocal found
        if found is not None:
            return
        if i == deg:
            if cur == goal:
                found = rules
            return
        if 2 * i >= deg and i >= 1:
            cofactor = _mod_mask(_mul_mask(_mod_mask(goal, cur), _inv_mod(prev, cur)), cur)
            if cofactor.bit_length() - 1 != deg - i - 1:
                return
        for r in (0, 1):
            dfs(i + 1, cur, (cur << 1) ^ (cur if r else 0) ^ prev, rules + (r,))

    dfs(0, 0, 1, ())
    if found is None:
        raise SynthesisFailed(f"no 90/150 automaton realizes {target.to_text()}")
    rv = RuleVector(found)
    return rv, rv.mirrored()


def random_irreducible(rng: random.Random, degree: int) -> Gf2Poly:
    while True:
        p = Gf2Poly(1 << degree | rng.getrandbits(degree) | 1)
        if is_irreducible(p):
            return p


def random_primitive(rng: random.Random, max_degree: int) -> Gf2Poly:
    while True:
        deg = rng.randrange(2, max_degree + 1)
        p = Gf2Poly(1 << deg | rng.randrange(1 << deg) | 1)
        if is_primitive(p):
            return p


class TestCosetExponent:
    @pytest.mark.parametrize(
        "l1,w,expected",
        [(3, 0, 7), (4, 0, 15), (2, 0, 3), (3, 1, 11), (3, 3, 35), (4, 3, 71)],
    )
    def test_values(self, l1, w, expected):
        assert coset_exponent(l1, w) == expected

    def test_w_bounds(self):
        with pytest.raises(ValueError):
            coset_exponent(3, 4)
        with pytest.raises(ValueError):
            coset_exponent(3, -1)

    def test_l1_bound(self):
        with pytest.raises(ValueError, match="l1 must be >= 1"):
            coset_exponent(0, 0)


class TestSynthesize:
    def test_degree5_pair(self):
        pair = synthesize_ca_pair(Gf2Poly.parse("0,2,5"))
        assert tuple(str(r) for r in pair) == ("01111", "11110")

    def test_degree5_selfreciprocal_pair(self):
        pair = synthesize_ca_pair(Gf2Poly.parse("0,1,2,4,5"))
        assert tuple(str(r) for r in pair) == ("00001", "10000")

    def test_pair_is_mirror_image(self):
        pair = synthesize_ca_pair(Gf2Poly.parse("0,2,5"))
        assert pair[1] == pair[0].mirrored()

    def test_char_poly_matches_target(self):
        target = Gf2Poly.parse("0,3,4")
        for rv in synthesize_ca_pair(target):
            assert rv.char_poly() == target

    def test_irreducible_but_nonprimitive_target(self):
        target = Gf2Poly.parse("0,1,2,3,4")
        for rv in synthesize_ca_pair(target):
            assert rv.char_poly() == target

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            synthesize_ca_pair(Gf2Poly.parse("0,1") * Gf2Poly.parse("0,1,2"))
        with pytest.raises(ValueError):
            synthesize_ca_pair(Gf2Poly(1))

    def test_self_verifies_on_random_primitives(self):
        rng = random.Random(53)
        seen = set()
        while len(seen) < 25:
            target = random_primitive(rng, 12)
            if target in seen:
                continue
            seen.add(target)
            found, mirror = synthesize_ca_pair(target)
            assert found.char_poly() == target
            assert mirror == found.mirrored()
            assert len(found) == target.degree


    def test_matches_dfs_on_every_irreducible_to_degree_12(self):
        count = 0
        for deg in range(1, 13):
            for mask in range(1 << deg, 2 << deg):
                target = Gf2Poly(mask)
                if is_irreducible(target):
                    assert synthesize_ca_pair(target) == dfs_synthesize_ca_pair(target)
                    count += 1
        assert count == 2 + 1 + 2 + 3 + 6 + 9 + 18 + 30 + 56 + 99 + 186 + 335

    def test_matches_dfs_on_random_irreducibles_13_to_20(self):
        rng = random.Random(67)
        for _ in range(200):
            target = random_irreducible(rng, rng.randrange(13, 21))
            assert synthesize_ca_pair(target) == dfs_synthesize_ca_pair(target)

    def test_both_vectors_realize_the_target(self):
        rng = random.Random(71)
        for _ in range(60):
            target = random_irreducible(rng, rng.randrange(2, 90))
            first, mirror = synthesize_ca_pair(target)
            assert first.char_poly() == target
            assert mirror.char_poly() == target
            assert mirror == first.mirrored()
            assert first.bits < mirror.bits

    def test_degree_one(self):
        assert synthesize_ca_pair(Gf2Poly.parse("1")) == (RuleVector((0,)),) * 2
        assert synthesize_ca_pair(Gf2Poly.parse("0,1")) == (RuleVector((1,)),) * 2

    def test_failure_path_is_unreachable_but_raises(self, monkeypatch):
        # Every irreducible target has a root with degree-1 quotients (the
        # tests above), so SynthesisFailed is only reached with Euclid broken.
        monkeypatch.setattr(linearize, "_euclid_rules", lambda f, g: None)
        with pytest.raises(SynthesisFailed):
            synthesize_ca_pair(Gf2Poly.parse("0,2,5"))


class TestConcatenation:
    def test_palindrome_step(self):
        rv = RuleVector.from_string("01111")
        assert str(concatenate_once(rv)) == "0111001110"

    def test_printed_chains_to_length_20(self):
        chains = {
            "01111": "01110011111111001110",
            "11110": "11111111100111111111",
            "10000": "10001100000000110001",
            "00001": "00000000011000000000",
        }
        for start, final in chains.items():
            chain = concatenation_chain(RuleVector.from_string(start), 2)
            assert len(chain) == 3
            assert str(chain[-1]) == final

    def test_squares_char_poly(self):
        rng = random.Random(59)
        for _ in range(60):
            n = rng.randrange(1, 21)
            rv = RuleVector(tuple(rng.randrange(2) for _ in range(n)))
            doubled = concatenate_once(rv)
            assert len(doubled) == 2 * n
            assert doubled.char_poly() == rv.char_poly() ** 2

    def test_chain_lengths(self):
        rv = RuleVector.from_string("110")
        chain = concatenation_chain(rv, 3)
        assert [len(r) for r in chain] == [3, 6, 12, 24]

    def test_negative_steps(self):
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            concatenation_chain(RuleVector.from_string("110"), -1)


class TestLinearizeGenerator:
    def test_40_cell_pair(self):
        pair = linearize_generator(4, Gf2Poly.parse("0,1,3,4,5"))
        assert [r.to_hex() for r in pair] == ["0060180600", "8C0300C031"]
        assert [len(r) for r in pair] == [40, 40]

    def test_char_poly_law(self):
        base = min_poly_of_power(Gf2Poly.parse("0,1,3,4,5"), 15)
        assert base == Gf2Poly.parse("0,1,2,4,5")
        for rv in linearize_generator(4, Gf2Poly.parse("0,1,3,4,5")):
            assert rv.char_poly() == base ** 8

    def test_clocked_coset_keeps_register_poly(self):
        # D = 35 = 4 mod 31 is a conjugate of the register polynomial root
        pair = linearize_generator(3, Gf2Poly.parse("0,1,2,4,5"), 3)
        assert [str(r) for r in pair] == [
            "00000000011000000000",
            "10001100000000110001",
        ]
        for rv in pair:
            assert rv.char_poly() == Gf2Poly.parse("0,1,2,4,5") ** 4

    def test_minimal_control_register(self):
        pair = linearize_generator(2, Gf2Poly.parse("0,1,3"))
        base = min_poly_of_power(Gf2Poly.parse("0,1,3"), 3)
        for rv in pair:
            assert len(rv) == 6
            assert rv.char_poly() == base ** 2

    def test_degenerate_coset(self):
        with pytest.raises(DegenerateCoset):
            linearize_generator(3, Gf2Poly.parse("0,1,4"), 3)

    def test_cell_cap(self):
        # 19 * 2^16 cells is above the cap; it is refused before any algebra
        assert 19 << 16 > linearize.MAX_CELLS >= 13 << 11
        with pytest.raises(ValueError, match=f"{19 << 16} cells .* MAX_CELLS = {linearize.MAX_CELLS}"):
            linearize_generator(17, Gf2Poly.parse("0,1,2,5,19"))
        # the ladder's largest rung, (12, 13), stays within it
        assert [len(rv) for rv in linearize_generator(12, Gf2Poly.parse("0,1,3,4,13"))] == [13 << 11] * 2

    @pytest.mark.parametrize("c2", ["0,3,31", "0,1,2,5,61"])
    def test_large_register_within_a_second(self, c2):
        c2 = Gf2Poly.parse(c2)
        start = time.perf_counter()
        pair = linearize_generator(3, c2)
        assert time.perf_counter() - start < 1.0
        base = min_poly_of_power(c2, coset_exponent(3, 0))
        for rv in pair:
            assert len(rv) == 4 * c2.degree
            assert rv.char_poly() == base**4

    def test_model_chains_end_in_the_pair(self):
        c2 = Gf2Poly.parse("0,1,3,4,5")
        model = linearize_model(4, c2)
        assert model.base == min_poly_of_power(c2, 15)
        assert model.pair == linearize_generator(4, c2)
        for chain, seed in zip(model.chains, synthesize_ca_pair(model.base)):
            assert chain == concatenation_chain(seed, 3)

    def test_random_instances_obey_char_poly_law(self):
        import math

        rng = random.Random(61)
        primitives = {
            3: ["0,1,3", "0,2,3"],
            4: ["0,1,4", "0,3,4"],
            5: ["0,2,5", "0,3,5", "0,1,2,4,5"],
            7: ["0,3,7", "0,1,7"],
        }
        for _ in range(20):
            l1 = rng.choice([2, 3, 4])
            choices = [d for d in primitives if d > l1 and math.gcd(l1, d) == 1]
            l2 = rng.choice(choices)
            c2 = Gf2Poly.parse(rng.choice(primitives[l2]))
            w = rng.randrange(0, l1 + 1)
            try:
                pair = linearize_generator(l1, c2, w)
            except DegenerateCoset:
                continue
            base = min_poly_of_power(c2, coset_exponent(l1, w))
            for rv in pair:
                assert len(rv) == l2 * (1 << (l1 - 1))
                assert rv.char_poly() == base ** (1 << (l1 - 1))
