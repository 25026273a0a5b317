"""Modelling a (clock-controlled) shrinking generator by 90/150 automata.

The interleaved keystream is a uniform decimation of one PN sequence: the
SR2 stream sampled at distance E = 2^l1 - 1 apart (plain shrinking), or
D = (1 + 2^w) 2^(l1-1) - 1 with w clock taps.  Its minimal polynomial is
that of lambda^E (resp. lambda^D) for a root lambda of c2; a pair of
mirror-image 90/150 automata realizes it, and (l1 - 1) concatenation steps
square the characteristic polynomial up to the full keystream length.

The pair is synthesized in polynomial time after Cattell and Muzio
("Synthesis of one-dimensional linear hybrid cellular automata", IEEE
TCAD 15(3), 1996): one GF(2)-linear solve of size l2 gives the
sub-automaton polynomial P_(l2-1), and one Euclid run on (base, P_(l2-1))
reads off the rule bits.  linearize_model computes base once and keeps the
concatenation chains; linearize_generator, the attack and the CLI read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import (
    Gf2LinearSystem,
    Gf2Poly,
    RuleVector,
    _divmod_mask,
    _inv_mod,
    _mod_mask,
    _mul_mask,
    _mul_mod,
    is_irreducible,
    min_poly_of_power,
)

__all__ = [
    "MAX_CELLS",
    "SynthesisFailed",
    "DegenerateCoset",
    "coset_exponent",
    "synthesize_ca_pair",
    "concatenate_once",
    "concatenation_chain",
    "Linearization",
    "linearize_model",
    "linearize_generator",
]


# Cells per automaton, l2 * 2^(l1-1), above which linearize_model refuses a
# spec up front.  Its time and memory grow linearly with the cells: the CLI's
# linearize took 1.2 s and 150 MiB peak RSS at 1.2 M cells, 5.2 s and 585 MiB
# at 5.2 M (Python 3.11, 2-vCPU VM).  The largest ladder rung has 26,624.
MAX_CELLS = 1 << 20


class SynthesisFailed(ValueError):
    """No 90/150 rule vector has the requested characteristic polynomial."""


class DegenerateCoset(ValueError):
    """The decimation exponent's cyclotomic coset is smaller than l2.

    The decimated stream then lives in a proper subfield and the usual
    length bookkeeping breaks down; such parameter sets are rejected.
    full_attack raises it too when the coset is full but its base is not
    primitive, since the attack's field is built over that base.
    """


def coset_exponent(l1: int, w: int) -> int:
    """Decimation distance between interleaved keystream samples.

    w = 0 is the plain shrinking generator; w >= 1 counts clock taps.
    """
    if l1 < 1:
        raise ValueError("l1 must be >= 1")
    if w < 0 or w > l1:
        raise ValueError("tap count must lie in [0, l1]")
    if w == 0:
        return (1 << l1) - 1
    return ((1 + (1 << w)) << (l1 - 1)) - 1


def _euclid_rules(f: int, g: int) -> tuple[int, ...] | None:
    """(R_1, ..., R_n) when Euclid on (f, g) has only quotients x + R_i and ends at 1."""
    rules = []
    while g:
        q, r = _divmod_mask(f, g)
        if q >> 1 != 1:
            return None
        rules.append(q & 1)
        f, g = g, r
    return tuple(reversed(rules)) if f == 1 else None


def synthesize_ca_pair(target: Gf2Poly) -> tuple[RuleVector, RuleVector]:
    """The two mirror-image 90/150 rule vectors with the given characteristic polynomial.

    Cattell-Muzio synthesis: with f = P_n the target and s = (x^2 + x) f'
    mod f, the sub-automaton polynomial P_(n-1) of a realizing automaton
    is a root y = s z of y^2 + s y + 1 = 0 (mod f), i.e. z solves the
    GF(2)-linear equation z^2 + z = 1/s^2, one n x n solve.  Its two roots
    z0, z0 + 1 give the automaton and its mirror.  Euclid on (f, y) then
    has quotients x + R_n, ..., x + R_1 by the recurrence
    P_i = (x + R_i) P_(i-1) + P_(i-2).  For irreducible targets these two
    are the only solutions.

    The pair is (min, mirror): the lexicographically smaller vector (rule
    90 before 150, cell 1 first) comes first, so the output does not hang
    on which root the solve lists first and matches the order of a search
    over rule bits that tries 0 before 1: ("01111", "11110") for
    1 + x^2 + x^5, ("00001", "10000") for 1 + x + x^2 + x^4 + x^5.
    """
    deg = target.degree
    if deg is None or deg < 1:
        raise ValueError("target must have degree >= 1")
    if not is_irreducible(target):
        raise ValueError(f"{target.to_text()} is not irreducible")
    f = target.mask
    if deg == 1:
        rv = RuleVector((f & 1,))
        return rv, rv
    derivative = sum(1 << (k - 1) for k in range(1, deg + 1, 2) if f >> k & 1)
    s = _mod_mask(_mul_mask(0b110, derivative), f)
    rhs = _inv_mod(_mul_mod(s, s, f), f)
    # z -> z^2 + z column by column (x^i -> x^2i + x^i), read off as rows
    rows = [0] * deg
    square = 1
    for i in range(deg):
        col = square ^ (1 << i)
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << i
            col ^= low
        square = _mod_mask(square << 2, f)
    system = Gf2LinearSystem(deg)
    if all(system.add(row, rhs >> j & 1) for j, row in enumerate(rows)):
        for z in system.solutions():
            rules = _euclid_rules(f, _mul_mod(s, z, f))
            if rules is not None:
                rv = RuleVector(min(rules, rules[::-1]))
                return rv, rv.mirrored()
    raise SynthesisFailed(f"no 90/150 automaton realizes {target.to_text()}")


def concatenate_once(rv: RuleVector) -> RuleVector:
    """Complement the last rule, then append the mirror image.

    The result has twice the length and the squared characteristic
    polynomial.
    """
    head = rv.bits[:-1] + (rv.bits[-1] ^ 1,)
    return RuleVector(head + head[::-1])


def concatenation_chain(rv: RuleVector, steps: int) -> list[RuleVector]:
    """[rv, one concatenation, two, ...]; length steps + 1."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    chain = [rv]
    for _ in range(steps):
        chain.append(concatenate_once(chain[-1]))
    return chain


@dataclass(frozen=True)
class Linearization:
    """The keystream's minimal polynomial and the automata that realize it.

    base is minpoly(lambda^E) over GF(2); chains holds, per automaton of
    the mirror pair, the synthesized l2-cell automaton and each of its
    l1 - 1 concatenations.
    """

    base: Gf2Poly
    chains: tuple[list[RuleVector], list[RuleVector]]

    @property
    def pair(self) -> tuple[RuleVector, RuleVector]:
        """The full-length automata, l2 * 2^(l1-1) cells each."""
        return self.chains[0][-1], self.chains[1][-1]


def linearize_model(l1: int, c2: Gf2Poly, w: int = 0) -> Linearization:
    """base = minpoly(lambda^E), one synthesis, and its concatenation chains.

    Raises ValueError above MAX_CELLS cells per automaton, and
    DegenerateCoset when lambda^E does not generate the full field GF(2^l2).
    """
    l2 = c2.degree
    if l2 is None or l2 < 1:
        raise ValueError("c2 must have degree >= 1")
    exponent = coset_exponent(l1, w)
    cells = l2 << (l1 - 1)
    if cells > MAX_CELLS:
        raise ValueError(f"the model needs {cells} cells per automaton, above MAX_CELLS = {MAX_CELLS}")
    base = min_poly_of_power(c2, exponent)
    if base.degree != l2:
        raise DegenerateCoset(
            f"exponent {exponent} has coset size {base.degree} < {l2} over c2 = {c2.to_text()}"
        )
    a, b = synthesize_ca_pair(base)
    return Linearization(base, (concatenation_chain(a, l1 - 1), concatenation_chain(b, l1 - 1)))


def linearize_generator(l1: int, c2: Gf2Poly, w: int = 0) -> tuple[RuleVector, RuleVector]:
    """Mirror pair of 90/150 automata modelling the full keystream.

    Each has l2 * 2^(l1-1) cells.  Raises DegenerateCoset when lambda^D
    does not generate the full field GF(2^l2).
    """
    return linearize_model(l1, c2, w).pair
