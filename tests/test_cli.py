import dataclasses
import functools
import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from itertools import combinations_with_replacement, islice

import pytest

import shrinkca
from shrinkca.attack import full_attack
from shrinkca import cli
from shrinkca.cli import _build_parser, main
from shrinkca.engines import BitSeq, CaState, ca_generate, lfsr_bit_iter, solve_cell_seed
from shrinkca.generators import GeneratorSpec, _clocked_steps, ccsg_generate, shrink_generate
from shrinkca.gf2 import Gf2Poly, RuleVector, _powx, is_primitive
from shrinkca.linearize import MAX_CELLS, linearize_generator, linearize_model

EXAMPLE1 = {"l1": 3, "l2": 4, "c1": "0,2,3", "c2": "0,1,4", "is1": "100", "is2": "1000"}
EXAMPLE2 = dict(EXAMPLE1, taps=[0])
PUBLIC53 = {"l1": 4, "l2": 5, "c1": "0,3,4", "c2": "0,1,3,4,5"}
INTERCEPT53 = "101000011001110011010011"
README53 = dict(PUBLIC53, is1="1001", is2="10101")
PUBLIC_L1_33 = {"l1": 33, "l2": 35, "c2": "0,2,35"}
CA10 = {"rules": "0111001110", "cells": "0001110110"}  # the printed 10-cell automaton


@pytest.fixture
def spec_file(tmp_path):
    def write(data, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_shrink_printed_line(self, capsys, spec_file):
        code, out, _ = run(
            capsys, "generate", "--spec", spec_file(EXAMPLE1), "--kind", "shrink", "--bits", "13"
        )
        assert code == 0
        assert out == "1010110110010\n"

    def test_ccsg_printed_line(self, capsys, spec_file):
        code, out, _ = run(
            capsys, "generate", "--spec", spec_file(EXAMPLE2), "--kind", "ccsg", "--bits", "12"
        )
        assert code == 0
        assert out == "110101011011\n"

    def test_lfsr_stream(self, capsys, spec_file):
        code, out, _ = run(
            capsys, "generate", "--spec", spec_file(EXAMPLE1), "--kind", "lfsr", "--bits", "7"
        )
        assert code == 0
        assert out == "1001110\n"

    def test_ca_trace(self, capsys, spec_file):
        spec = spec_file({"rules": "0111001110", "cells": "0001110110"})
        code, out, _ = run(capsys, "generate", "--spec", spec, "--kind", "ca", "--bits", "10")
        assert code == 0
        assert out == "0001000101\n"

    def test_ca_origin_is_a_slice(self, capsys, spec_file):
        spec = spec_file({"rules": "0111001110", "cells": "0001110110"})
        argv = ["generate", "--spec", spec, "--kind", "ca"]
        code, whole, _ = run(capsys, *argv, "--bits", "10")
        assert code == 0
        assert run(capsys, *argv, "--bits", "6", "--origin", "4") == (0, whole[4:], "")

    def test_zero_bits_emits_empty_line(self, capsys, spec_file):
        code, out, _ = run(
            capsys, "generate", "--spec", spec_file(EXAMPLE1), "--kind", "shrink", "--bits", "0"
        )
        assert code == 0
        assert out == "\n"

    def test_origin_skips_prefix(self, capsys, spec_file):
        code, out, _ = run(
            capsys,
            "generate",
            "--spec",
            spec_file(EXAMPLE1),
            "--kind",
            "shrink",
            "--bits",
            "8",
            "--origin",
            "5",
        )
        assert code == 0
        assert out == "10110010\n"

    def test_output_file(self, capsys, spec_file, tmp_path):
        target = tmp_path / "bits.txt"
        code, out, _ = run(
            capsys,
            "generate",
            "--spec",
            spec_file(EXAMPLE1),
            "--kind",
            "shrink",
            "--bits",
            "13",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "1010110110010\n"

    @pytest.mark.parametrize("kind", ["shrink", "lfsr"])
    def test_unwritable_output_exits_2(self, capsys, spec_file, tmp_path, kind):
        argv = ["generate", "--spec", spec_file(README53), "--kind", kind, "--bits", "13"]
        code, out, err = run(capsys, *argv, "--output", str(tmp_path))  # a directory
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_kind_requires_matching_taps(self, capsys, spec_file):
        code, _, err = run(
            capsys, "generate", "--spec", spec_file(EXAMPLE1), "--kind", "ccsg", "--bits", "5"
        )
        assert code == 2
        assert "error:" in err
        code, _, err = run(
            capsys, "generate", "--spec", spec_file(EXAMPLE2), "--kind", "shrink", "--bits", "5"
        )
        assert code == 2

    def test_invalid_spec_values(self, capsys, spec_file):
        bad = dict(EXAMPLE1, l1=2, c1="0,1,2")  # gcd(2, 4) = 2
        code, _, err = run(
            capsys, "generate", "--spec", spec_file(bad), "--kind", "shrink", "--bits", "5"
        )
        assert code == 2
        assert "coprime" in err

    def test_zero_seed_rejected(self, capsys, spec_file):
        bad = dict(EXAMPLE1, is1="000")
        code, _, err = run(
            capsys, "generate", "--spec", spec_file(bad), "--kind", "shrink", "--bits", "5"
        )
        assert code == 2

    def test_missing_key(self, capsys, spec_file):
        code, _, err = run(
            capsys, "generate", "--spec", spec_file({"l1": 3}), "--kind", "shrink", "--bits", "5"
        )
        assert code == 2

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "generate",
            "--spec",
            str(tmp_path / "missing.json"),
            "--kind",
            "shrink",
            "--bits",
            "5",
        )
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "generate", "--spec", str(path), "--kind", "shrink", "--bits", "5")
        assert code == 2

    @pytest.mark.parametrize("taps", [None, 5, "01", [0.5], [True]])
    def test_taps_must_be_integer_list(self, capsys, spec_file, taps):
        code, _, err = run(
            capsys,
            "generate",
            "--spec",
            spec_file(dict(EXAMPLE1, taps=taps)),
            "--kind",
            "ccsg",
            "--bits",
            "5",
        )
        assert code == 2
        assert "taps must be a list of integers" in err

    @pytest.mark.parametrize("key,value", [("l1", "3"), ("l2", 4.0), ("l1", None)])
    def test_lengths_must_be_integers(self, capsys, spec_file, key, value):
        code, _, err = run(
            capsys,
            "generate",
            "--spec",
            spec_file(dict(EXAMPLE1, **{key: value})),
            "--kind",
            "shrink",
            "--bits",
            "5",
        )
        assert code == 2
        assert f"{key} must be an integer" in err

    @pytest.mark.parametrize(
        "kind,key,value",
        [("shrink", "is1", 100), ("shrink", "is2", 1000), ("shrink", "is1", [1, 0, 0]), ("lfsr", "is1", 100)],
    )
    def test_seeds_must_be_bit_strings(self, capsys, spec_file, kind, key, value):
        code, _, err = run(
            capsys,
            "generate",
            "--spec",
            spec_file(dict(EXAMPLE1, **{key: value})),
            "--kind",
            kind,
            "--bits",
            "5",
        )
        assert code == 2
        assert f"{key} must be a string of 0/1" in err

    @pytest.mark.parametrize("kind", ["shrink", "lfsr"])
    def test_exponents_checked_before_the_mask_is_built(self, capsys, spec_file, kind):
        # 1 << 99999999999 would ask for 12.5 GB
        key = "c2" if kind == "shrink" else "c1"
        bad = dict(EXAMPLE1, **{key: EXAMPLE1[key] + ",99999999999"})
        code, _, err = run(
            capsys, "generate", "--spec", spec_file(bad), "--kind", kind, "--bits", "5"
        )
        assert code == 2
        assert f"{key} exponents must lie in" in err

    @pytest.mark.parametrize("key", ["c1", "c2"])
    @pytest.mark.parametrize("value", ["0,3,4,", "", "0,x"])
    def test_exponents_must_be_integers(self, capsys, spec_file, key, value):
        bad = dict(EXAMPLE1, **{key: value})
        code, out, err = run(
            capsys, "generate", "--spec", spec_file(bad), "--kind", "shrink", "--bits", "5"
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"error: {key} must be a string of exponents, got {value!r}"

    def test_lfsr_checks_c1_degree_as_shrink_does(self, capsys, spec_file):
        data = {"l1": 5, "l2": 7, "c1": "0,1,3", "c2": "0,1,7", "is1": "101", "is2": "1000000"}
        errors = []
        for kind in ("shrink", "lfsr"):
            code, out, err = run(
                capsys, "generate", "--spec", spec_file(data), "--kind", kind, "--bits", "8"
            )
            assert (code, out) == (2, "")
            errors.append(err.splitlines()[0])
        assert errors == ["error: c1 degree 3 != l1 5"] * 2

    def test_lfsr_reads_only_c1_and_is1(self, capsys, spec_file):
        spec = spec_file({"l1": 3, "c": "0,2,3", "seed": "100"})
        code, _, err = run(capsys, "generate", "--spec", spec, "--kind", "lfsr", "--bits", "7")
        assert code == 2
        assert "c1" in err

    def test_ca_cells_must_be_bit_string(self, capsys, spec_file):
        spec = spec_file({"rules": "0111", "cells": 1011})
        code, _, err = run(capsys, "generate", "--spec", spec, "--kind", "ca", "--bits", "4")
        assert code == 2
        assert "cells must be a string of 0/1" in err

    def test_negative_origin_rejected(self, capsys, spec_file):
        argv = ["generate", "--spec", spec_file(EXAMPLE1), "--kind", "shrink", "--bits", "8"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--origin", "-3"])
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err


# (l1, l2) up to (5, 13), plain and tapped; (6, 17) takes seconds per automaton
FULL_PERIOD_SPECS = [
    {"l1": 3, "l2": 7, "c1": "0,1,3", "c2": "0,1,7", "is1": "101", "is2": "0011010", "taps": []},
    {"l1": 4, "l2": 11, "c1": "0,1,4", "c2": "0,2,11", "is1": "0110", "is2": "10000000001", "taps": [1]},
    {"l1": 5, "l2": 11, "c1": "0,2,5", "c2": "0,2,11", "is1": "11101", "is2": "01011100110", "taps": []},
    {
        "l1": 5, "l2": 13, "c1": "0,2,5", "c2": "0,1,3,4,13",
        "is1": "10011", "is2": "1111011000001", "taps": [0, 3],
    },
]


class TestModelAtFullPeriod:
    @pytest.mark.parametrize(
        "data", FULL_PERIOD_SPECS, ids=lambda d: f"{d['l1']}-{d['l2']}-{len(d['taps'])}"
    )
    def test_both_automata_print_the_keystream(self, capsys, spec_file, data):
        kind = "ccsg" if data["taps"] else "shrink"
        period = str((1 << (data["l1"] - 1)) * ((1 << data["l2"]) - 1))
        argv = ["generate", "--spec", spec_file(data), "--kind", kind, "--bits", period]
        code, keystream, _ = run(capsys, *argv)
        assert code == 0
        c2 = GeneratorSpec.from_json(data).c2
        for rv in linearize_generator(data["l1"], c2, len(data["taps"])):
            st = solve_cell_seed(rv, 1, tuple(map(int, keystream[: 2 * len(rv)])))
            assert st is not None
            ca = spec_file({"rules": str(rv), "cells": "".join(map(str, st.cells))}, "ca.json")
            argv = ["generate", "--spec", ca, "--kind", "ca", "--bits", period]
            assert run(capsys, *argv) == (0, keystream, "")


def ca_cell1_oracle(rules: tuple[int, ...], cells: tuple[int, ...], origin: int, n: int) -> str:
    """Cell 1 at times origin .. origin + n - 1, from the rule definition alone.

    One step is left + right (+ self under rule 150) with null boundaries;
    the jump to the origin squares the matrix whose columns are the steps of
    the unit states, so a far origin costs log(origin) matrix products.
    """

    def step(state: tuple[int, ...]) -> tuple[int, ...]:
        padded = (0,) + state + (0,)
        return tuple((padded[i] + padded[i + 2] + rule * padded[i + 1]) % 2 for i, rule in enumerate(rules))

    def as_int(state: tuple[int, ...]) -> int:
        return sum(bit << k for k, bit in enumerate(state))

    def apply(columns: list[int], state: int) -> int:
        out = 0
        for k, column in enumerate(columns):
            if state >> k & 1:
                out ^= column
        return out

    size = len(rules)
    power = [as_int(step(tuple(int(k == j) for k in range(size)))) for j in range(size)]
    jumped = as_int(cells)
    while origin:
        if origin & 1:
            jumped = apply(power, jumped)
        power = [apply(power, column) for column in power]
        origin >>= 1
    state = tuple(jumped >> k & 1 for k in range(size))
    out = []
    for _ in range(n):
        out.append(state[0])
        state = step(state)
    return "".join(map(str, out))


class TestLinearKindsSweep:
    """`generate --kind ca` and `--kind lfsr` against stepping, at every kind of origin."""

    @staticmethod
    def check(capsys, spec, kind, size, rng, oracle):
        """Origins 0, L - 1, L, 2L, random and 2^40; bit counts 0, 1, L, 2L and random."""
        for origin in (0, size - 1, size, 2 * size, rng.randrange(1 << 12), 1 << 40):
            counts = (0, 1, size, 2 * size, rng.randrange(300))
            want = oracle(origin, max(counts))
            for n in counts:
                argv = ["--kind", kind, "--bits", str(n), "--origin", str(origin)]
                got = run(capsys, "generate", "--spec", spec, *argv)
                assert got == (0, want[:n] + "\n", ""), (spec, origin, n)

    def check_ca(self, capsys, spec_file, rng, rules, cells):
        spec = spec_file({"rules": "".join(map(str, rules)), "cells": "".join(map(str, cells))})
        oracle = functools.partial(ca_cell1_oracle, rules, cells)
        self.check(capsys, spec, "ca", len(rules), rng, oracle)

    def test_ca_matches_stepping(self, capsys, spec_file):
        rng = random.Random(23)
        for _ in range(60):
            size = rng.randrange(1, 41)
            rules = tuple(rng.randrange(2) for _ in range(size))
            self.check_ca(capsys, spec_file, rng, rules, tuple(rng.randrange(2) for _ in range(size)))

    def test_ca_singular_and_zero_cells(self, capsys, spec_file):
        # a single rule-90 cell has characteristic polynomial x: its state is 0 after one step
        assert RuleVector((0,)).char_poly() == Gf2Poly.parse("1")
        rng = random.Random(90)
        for cells in ((1,), (0,)):
            self.check_ca(capsys, spec_file, rng, (0,), cells)
        for size in (1, 2, 3, 17, 40):
            rules = tuple(rng.randrange(2) for _ in range(size))
            self.check_ca(capsys, spec_file, rng, rules, (0,) * size)

    def test_lfsr_matches_stepping(self, capsys, spec_file):
        rng = random.Random(1023)
        for _ in range(30):
            size = rng.randrange(2, 17)
            while not is_primitive(c1 := Gf2Poly(1 << size | rng.getrandbits(size) | 1)):
                pass
            state = rng.randrange(1, 1 << size)
            seed = tuple(state >> k & 1 for k in range(size))
            spec = spec_file({"l1": size, "c1": c1.to_text(), "is1": "".join(map(str, seed))})

            def oracle(origin, n):
                start = origin % ((1 << size) - 1)
                return "".join(map(str, islice(lfsr_bit_iter(c1, seed), start, start + n)))

            self.check(capsys, spec, "lfsr", size, rng, oracle)


# Specs that linearize_model alone would model but GeneratorSpec refuses,
# each with the c1 that makes it a full generate spec and the refusal
REFUSED_SHAPES = [
    ({"l1": 2, "l2": 4, "c2": "0,1,4"}, "0,1,2", "register lengths 2, 4 must be coprime"),
    ({"l1": 5, "l2": 3, "c2": "0,1,3"}, "0,2,5", "l2 must exceed l1"),
    ({"l1": 3, "l2": 4, "c2": "0,1,4", "taps": [7]}, "0,1,3", "taps must lie in [0, 3)"),
    ({"l1": 3, "l2": 4, "c2": "0,1,4", "taps": [-1]}, "0,1,3", "taps must lie in [0, 3)"),
    ({"l1": 3, "l2": 4, "c2": "0,1,4", "taps": [1, 1]}, "0,1,3", "taps must be distinct"),
]


class TestLinearize:
    def test_rule_vector_lines(self, capsys, spec_file):
        spec = spec_file({"l1": 4, "l2": 5, "c2": "0,1,3,4,5", "taps": []})
        code, out, err = run(capsys, "linearize", "--spec", spec)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "0000000001100000000110000000011000000000 0060180600",
            "1000110000000011000000001100000000110001 8C0300C031",
        ]

    def test_trace_on_stderr(self, capsys, spec_file):
        spec = spec_file({"l1": 4, "l2": 5, "c2": "0,1,3,4,5", "taps": []})
        code, out, err = run(capsys, "linearize", "--spec", spec, "--trace")
        assert code == 0
        assert "concatenation chain" in err
        assert "8C0300C031" in err

    def test_trace_chain_bytes(self, capsys, spec_file):
        spec = spec_file({"l1": 3, "l2": 5, "c2": "0,2,5", "taps": []})
        code, out, err = run(capsys, "linearize", "--spec", spec, "--trace")
        assert code == 0
        assert out == "00010010011001001000 12648\n11001100100100110011 CC933\n"
        assert err == (
            "automaton 1 concatenation chain:\n"
            "  step 0: 00011 18\n"
            "  step 1: 0001001000 120\n"
            "  step 2: 00010010011001001000 12648\n"
            "automaton 2 concatenation chain:\n"
            "  step 0: 11000 C0\n"
            "  step 1: 1100110011 CCC\n"
            "  step 2: 11001100100100110011 CC933\n"
        )

    def test_clocked_20_cell_pair(self, capsys, spec_file):
        spec = spec_file({"l1": 3, "l2": 5, "c2": "0,1,2,4,5", "taps": [0, 1, 2]})
        code, out, _ = run(capsys, "linearize", "--spec", spec)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[0] == "00000000011000000000"
        assert lines[1].split()[0] == "10001100000000110001"

    @pytest.mark.parametrize("taps", [None, 5, "01"])
    def test_taps_must_be_integer_list(self, capsys, spec_file, taps):
        spec = spec_file({"l1": 4, "l2": 5, "c2": "0,1,3,4,5", "taps": taps})
        code, _, err = run(capsys, "linearize", "--spec", spec)
        assert code == 2
        assert "taps must be a list of integers" in err

    def test_exponents_checked_against_l2(self, capsys, spec_file):
        spec = spec_file({"l1": 4, "l2": 5, "c2": "0,1,3,4,5,99999999999"})
        code, _, err = run(capsys, "linearize", "--spec", spec)
        assert code == 2
        assert "c2 exponents must lie in [0, 5]" in err

    def test_l2_required(self, capsys, spec_file):
        # without l2 nothing would bound c2's exponents before its mask is built
        spec = spec_file({"l1": 4, "c2": "0,1,3,4,5"})
        code, _, err = run(capsys, "linearize", "--spec", spec)
        assert code == 2
        assert "l2" in err

    def test_c2_degree_must_be_l2(self, capsys, spec_file):
        spec = spec_file({"l1": 4, "l2": 6, "c2": "0,1,3,4,5"})
        code, _, err = run(capsys, "linearize", "--spec", spec)
        assert code == 2
        assert "c2 degree 5 != l2 6" in err

    @pytest.mark.parametrize(
        "public,c1,message", REFUSED_SHAPES, ids=["2-4", "5-3", "tap-7", "tap-minus-1", "taps-1-1"]
    )
    def test_refuses_what_generate_refuses(self, capsys, spec_file, public, c1, message):
        code, out, err = run(capsys, "linearize", "--spec", spec_file(public))
        first_line = err.partition("\n")[0]
        assert (code, out, first_line) == (2, "", f"error: {message}")
        seeds = {"is1": "1".ljust(public["l1"], "0"), "is2": "1".ljust(public["l2"], "0")}
        kind = "ccsg" if public.get("taps") else "shrink"
        argv = ["generate", "--spec", spec_file(dict(public, c1=c1, **seeds)), "--kind", kind]
        code, _, generate_err = run(capsys, *argv, "--bits", "8")
        assert (code, generate_err.partition("\n")[0]) == (2, first_line)

    def test_refuses_exactly_what_the_library_refuses(self, capsys, spec_file):
        """Every l1 <= 4, l2 <= 7 and tap multiset over -1..l1, with the first primitive c1 and c2."""
        first_primitive = {
            m: next(p for p in map(Gf2Poly, range(1 << m, 2 << m)) if is_primitive(p)) for m in range(1, 8)
        }
        for l1 in range(1, 5):
            for l2 in range(1, 8):
                c1, c2 = first_primitive[l1], first_primitive[l2]
                for w in range(l1 + 1):
                    for taps in combinations_with_replacement(range(-1, l1 + 1), w):
                        expected = (0, "")
                        try:
                            with warnings.catch_warnings():
                                warnings.simplefilter("ignore")
                                GeneratorSpec(l1, l2, c1, c2, taps=taps)
                            linearize_model(l1, c2, w)
                        except ValueError as exc:
                            expected = (2, f"error: {exc}\n")
                        spec = spec_file({"l1": l1, "l2": l2, "c2": c2.to_text(), "taps": list(taps)})
                        code, _, err = run(capsys, "linearize", "--spec", spec)
                        assert (code, err) == expected, (l1, l2, taps)

    def test_degenerate_coset(self, capsys, spec_file):
        spec = spec_file({"l1": 3, "l2": 4, "c2": "0,1,4", "taps": [0, 1, 2]})
        code, _, err = run(capsys, "linearize", "--spec", spec)
        assert code == 2
        assert "coset" in err


class TestAttack:
    def test_golden_json(self, capsys, spec_file):
        code, out, _ = run(
            capsys, "attack", "--spec", spec_file(PUBLIC53), "--intercepted", INTERCEPT53
        )
        assert code == 0
        data = json.loads(out)
        assert data["is1"] == "1001"
        assert data["is2"] == "10101"
        assert len(data["keystream"]) == 248
        assert data["keystream"].startswith(INTERCEPT53)
        assert data["nodes_expanded"] == 4
        assert data["reconstructed_positions"] == sorted(
            list(range(56, 64)) + list(range(152, 168)) + list(range(184, 192))
        )

    def test_trace_on_stderr(self, capsys, spec_file):
        code, _, err = run(
            capsys,
            "attack",
            "--spec",
            spec_file(PUBLIC53),
            "--intercepted",
            INTERCEPT53,
            "--trace",
        )
        assert code == 0
        assert "phase 1 window identities" in err
        assert "phase 2 hypotheses" in err
        # phase 2 searches the intercept alone, so each column is rejected at an intercepted row
        assert "  111 column=2 shift=27: rejected row=0\n" in err
        assert "  101 column=1 shift=27: rejected row=2\n" in err
        assert "  1000 column=1 shift=23: rejected row=0\n" in err

    def test_tampered_intercept_exit_3(self, capsys, spec_file):
        tampered = "0" + INTERCEPT53[1:]
        code, _, err = run(
            capsys, "attack", "--spec", spec_file(PUBLIC53), "--intercepted", tampered
        )
        assert code == 3
        assert "error:" in err

    def test_ambiguous_exit_4(self, capsys, spec_file):
        spec = spec_file({"l1": 2, "l2": 3, "c1": "0,1,2", "c2": "0,1,3"})
        code, _, err = run(capsys, "attack", "--spec", spec, "--intercepted", "01")
        assert code == 4
        assert "seed pairs fit" in err

    def test_nonzero_origin_rejected(self, capsys, spec_file):
        code, _, err = run(
            capsys,
            "attack",
            "--spec",
            spec_file(PUBLIC53),
            "--intercepted",
            INTERCEPT53,
            "--origin",
            "3",
        )
        assert code == 2

    def test_short_intercept_rejected(self, capsys, spec_file):
        code, _, err = run(
            capsys, "attack", "--spec", spec_file(PUBLIC53), "--intercepted", "1010"
        )
        assert code == 2
        assert "intercepted bits" in err

    def test_output_file(self, capsys, spec_file, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            "attack",
            "--spec",
            spec_file(PUBLIC53),
            "--intercepted",
            INTERCEPT53,
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["is1"] == "1001"

    def test_roundtrip_with_generate(self, capsys, spec_file):
        seeded = dict(PUBLIC53, is1="1001", is2="10101")
        code, out, _ = run(
            capsys, "generate", "--spec", spec_file(seeded), "--kind", "shrink", "--bits", "24"
        )
        assert code == 0
        prefix = out.strip()
        code, out, _ = run(
            capsys, "attack", "--spec", spec_file(PUBLIC53, "pub.json"), "--intercepted", prefix
        )
        assert code == 0
        assert json.loads(out)["is1"] == "1001"


    def test_coset_base_not_primitive_is_refused(self, capsys, spec_file):
        # E = 35 shares the factor 5 with 2^8 - 1: the coset is full, its base is not primitive
        spec = spec_file({"l1": 3, "l2": 8, "c1": "0,2,3", "c2": "0,1,2,3,6,7,8", "taps": [0, 1, 2]})
        with pytest.warns(UserWarning, match="tap count equals"):
            code, out, err = run(capsys, "attack", "--spec", spec, "--intercepted", "1" * 12)
        assert (code, out) == (2, "")
        assert err == (
            "error: coset base 0,1,2,3,4,7,8 of exponent 35 over c2 = 0,1,2,3,6,7,8"
            " is not primitive: gcd(35, 2^8 - 1) = 5\n"
        )
        code, out, err = run(capsys, "linearize", "--spec", spec)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2


TAPPED_5_13 = {"l1": 5, "l2": 13, "c1": "0,2,5", "c2": "0,1,3,4,13", "taps": [0, 3]}


def report_oracle(public: dict, intercepted: str) -> bytes:
    """The attack report as the CLI formatted it with str() and one json.dumps."""
    result = full_attack(BitSeq.parse(intercepted), GeneratorSpec.from_json(public))
    payload = {
        "is1": "".join(map(str, result.is1)),
        "is2": "".join(map(str, result.is2)),
        "keystream": str(result.keystream),
        "reconstructed_positions": list(result.reconstructed_positions),
        "nodes_expanded": result.nodes_expanded,
    }
    return (json.dumps(payload, indent=2) + "\n").encode()


class TestOutputBytes:
    """stdout and --output carry the same bytes, and the report those of the old formatter."""

    def both_ways(self, capsys, tmp_path, *argv) -> bytes:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        target = tmp_path / "out"
        assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
        written = target.read_bytes()
        assert written == out.encode()
        return written

    @pytest.mark.parametrize(
        "public,seeds",
        [(PUBLIC53, ("1001", "10101")), (TAPPED_5_13, ("10011", "1111011000001"))],
        ids=["4-5-0", "5-13-2"],
    )
    def test_attack_report_matches_the_oracle(self, capsys, spec_file, tmp_path, public, seeds):
        secret = GeneratorSpec.from_json(dict(public, is1=seeds[0], is2=seeds[1]))
        gen = ccsg_generate if public.get("taps") else shrink_generate
        intercepted = str(gen(secret, 48))
        argv = ["attack", "--spec", spec_file(public), "--intercepted", intercepted]
        assert self.both_ways(capsys, tmp_path, *argv) == report_oracle(public, intercepted)

    @pytest.mark.parametrize("bits", ["0", "13"])
    @pytest.mark.parametrize(
        "kind,data",
        [
            ("shrink", EXAMPLE1),
            ("ccsg", EXAMPLE2),
            ("lfsr", EXAMPLE1),
            ("ca", {"rules": "0111001110", "cells": "0001110110"}),
        ],
    )
    def test_generate(self, capsys, spec_file, tmp_path, kind, data, bits):
        argv = ["generate", "--spec", spec_file(data), "--kind", kind, "--bits", bits]
        out = self.both_ways(capsys, tmp_path, *argv, "--origin", "2")
        assert len(out) == int(bits) + 1 and out.endswith(b"\n")

    @pytest.mark.parametrize("data", [PUBLIC53, TAPPED_5_13], ids=["4-5-0", "5-13-2"])
    def test_linearize(self, capsys, spec_file, tmp_path, data):
        out = self.both_ways(capsys, tmp_path, "linearize", "--spec", spec_file(data))
        model = linearize_model(data["l1"], Gf2Poly.parse(data["c2"]), len(data.get("taps", [])))
        assert out == b"".join(f"{rv} {rv.to_hex()}\n".encode() for rv in model.pair)


SECRET_6_17 = {
    "l1": 6,
    "l2": 17,
    "c1": "0,1,6",
    "c2": "0,3,17",
    "is1": "100101",
    "is2": "10110011100011110",
}
PUBLIC_6_17 = {k: v for k, v in SECRET_6_17.items() if k not in ("is1", "is2")}


class TestStreamedReport:
    """The (6, 17) report: 32 * (2^17 - 1) = 4.2 Mbit, written in 8 blocks of rows."""

    PERIOD = 32 * ((1 << 17) - 1)

    def argv(self, spec_file) -> list[str]:
        intercepted = str(shrink_generate(GeneratorSpec.from_json(SECRET_6_17), 96))
        return ["attack", "--spec", spec_file(PUBLIC_6_17), "--intercepted", intercepted]

    def test_stdout_and_output_carry_the_keystream(self, capsys, spec_file, tmp_path):
        argv = self.argv(spec_file)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        target = tmp_path / "report.json"
        assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()
        report = json.loads(out)
        assert (report["is1"], report["is2"]) == (SECRET_6_17["is1"], SECRET_6_17["is2"])
        ks = report["keystream"]
        assert len(ks) == self.PERIOD and ks[:96] == argv[-1]
        edges = [e + i for e in range(0, self.PERIOD, 32 << 14) for i in (-1, 0) if e + i >= 0]
        rng = random.Random(617)
        positions = sorted({*edges, *rng.sample(range(self.PERIOD), 400), self.PERIOD - 1})
        secret = GeneratorSpec.from_json(SECRET_6_17)
        assert "".join(ks[p] for p in positions) == keystream_at(secret, positions)

    def test_peak_memory_below_a_byte_per_bit(self, spec_file, tmp_path):
        # the period as 0/1 bytes alone would be one byte a bit; the CLI holds
        # the continued decimated column and one block of rows at a time
        argv = self.argv(spec_file)
        target = tmp_path / "report.json"
        tracemalloc.start()
        try:
            code = main([*argv, "--output", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and target.stat().st_size > self.PERIOD
        assert peak < self.PERIOD / 2


class TestReportBytes:
    def test_report_is_what_json_dumps_indents(self, capsys, spec_file, monkeypatch):
        argv = ["attack", "--spec", spec_file(PUBLIC53), "--intercepted", INTERCEPT53]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["reconstructed_positions"]
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        attack = cli.full_attack

        def no_positions(*args):
            return dataclasses.replace(attack(*args), reconstructed_positions=())

        monkeypatch.setattr(cli, "full_attack", no_positions)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["reconstructed_positions"] == []
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestStreamedGenerate:
    """(4, 23): a window of 2^25 bits reads SR2 over 4 periods, so it wraps and streams."""

    SPEC = {
        "l1": 4, "l2": 23, "c1": "0,3,4", "c2": "0,5,23",
        "is1": "1001", "is2": "10110011100011110000111",
    }
    SR2_PERIOD = (1 << 23) - 1

    def test_peak_memory_follows_the_sr2_period(self, spec_file, tmp_path):
        # the decimated column continued to one SR2 period from its first
        # 2 l2 entries, kept with one block's overlap, and one block of rows,
        # where the joined window took 2 bytes a bit (64 MiB)
        bits = 1 << 25
        target = tmp_path / "bits.txt"
        argv = ["generate", "--spec", spec_file(self.SPEC), "--kind", "shrink", "--bits", str(bits)]
        tracemalloc.start()
        try:
            code = main([*argv, "--origin", "3", "--output", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2.5 * self.SR2_PERIOD < bits
        out = target.read_bytes()
        assert len(out) == bits + 1 and out.endswith(b"\n")
        rng = random.Random(423)
        positions = sorted({*range(64), *range(bits - 64, bits), *rng.sample(range(bits), 300)})
        spec = GeneratorSpec.from_json(self.SPEC)
        assert bytes(out[p] for p in positions).decode() == keystream_at(spec, [p + 3 for p in positions])

    @pytest.mark.parametrize("bits,origin", [(1 << 18, 4000), (3 << 22, 17)], ids=["extended", "wrapping"])
    def test_stdout_equals_output(self, capsys, spec_file, tmp_path, bits, origin):
        argv = ["generate", "--spec", spec_file(self.SPEC), "--kind", "shrink", "--bits", str(bits)]
        argv += ["--origin", str(origin)]
        code, out, err = run(capsys, *argv)
        assert (code, err, len(out)) == (0, "", bits + 1)
        target = tmp_path / "bits.txt"
        assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--kind", "shrink", "--bits", "5"),
        ("linearize",),
        ("attack", "--intercepted", INTERCEPT53),
    ],
)
def test_missing_spec_key_is_named(capsys, spec_file, argv):
    spec = {k: v for k, v in PUBLIC53.items() if k != "l2"}
    code, out, err = run(capsys, argv[0], "--spec", spec_file(spec), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "error: missing spec key 'l2'\n"


@pytest.mark.parametrize(
    "argv,key",
    [
        (("generate", "--kind", "shrink", "--bits", "5"), "c1"),
        (("generate", "--kind", "shrink", "--bits", "5"), "c2"),
        (("generate", "--kind", "lfsr", "--bits", "5"), "c1"),
        (("linearize",), "c2"),
        (("attack", "--intercepted", INTERCEPT53), "c1"),
        (("attack", "--intercepted", INTERCEPT53), "c2"),
    ],
)
def test_repeated_exponent_is_refused(capsys, spec_file, argv, key):
    # "0,3,3" is not read as 1 + x^3: a repeated exponent is a typo, not a term
    value = PUBLIC53[key] + "," + PUBLIC53[key].split(",")[1]
    spec = dict(README53, **{key: value})
    code, out, err = run(capsys, argv[0], "--spec", spec_file(spec), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {key} exponents must be distinct, got {value!r}\n"


def test_linearize_reads_no_c1(capsys, spec_file):
    # linearize takes l1, l2, c2 and taps; c1 is SR1's, which the model does not use
    spec = dict(PUBLIC53, c1="0,3,3,4")
    assert run(capsys, "linearize", "--spec", spec_file(spec)) == run(
        capsys, "linearize", "--spec", spec_file(PUBLIC53)
    )


class TestRepeatedCalls:
    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_no_state_carried_between_calls(self, capsys, spec_file):
        argv = ["attack", "--spec", spec_file(PUBLIC53), "--intercepted", INTERCEPT53]
        code, traced, err = run(capsys, *argv, "--trace")
        assert code == 0
        assert "phase 2 hypotheses" in err
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out == traced
        assert err == ""


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(EXAMPLE1))
        proc = subprocess.run(
            [sys.executable, "-m", "shrinkca", "generate", "--spec", str(path), "--kind", "shrink", "--bits", "13"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1010110110010\n"

    def test_tap_count_warns_once(self, tmp_path):
        # from_json warns; the attack's seeded copies of the spec must not warn again
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"l1": 3, "l2": 5, "c1": "0,2,3", "c2": "0,2,5", "taps": [0, 1, 2]}))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shrinkca.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "shrinkca", "attack", "--spec", str(path), "--intercepted", "111100001111010000100000"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is2"] == "10110"
        assert proc.stderr.count("UserWarning: tap count equals") == 1

    @pytest.mark.parametrize(
        "data,argv",
        [
            (README53, ["generate", "--kind", "shrink", "--bits", "1000000"]),
            ({"l1": 13, "l2": 14, "c2": "0,1,6,10,14"}, ["linearize"]),  # 143 kB of rules
        ],
        ids=["generate", "linearize"],
    )
    def test_reader_closing_early_ends_quietly(self, tmp_path, data, argv):
        # both outputs outgrow a pipe buffer, so the writer meets the closed pipe
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shrinkca.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "shrinkca", *argv, "--spec", str(path)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(5)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert len(head) == 5
        assert err == b""

    def test_no_arguments_shows_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shrinkca"], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "usage" in (proc.stderr + proc.stdout).lower()


def _cap_address_space() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
class TestTooLargeForMemory:
    @pytest.mark.parametrize(
        "data,argv",
        [
            (README53, ["generate", "--kind", "shrink", "--bits", "100000000000"]),
            (PUBLIC_L1_33, ["linearize"]),  # two automata of 35 * 2^32 cells
            (README53, ["generate", "--kind", "lfsr", "--bits", "100000000000", "--origin", "7"]),
            (CA10, ["generate", "--kind", "ca", "--bits", "100000000000", "--origin", "7"]),
        ],
        ids=["generate", "linearize", "lfsr", "ca"],
    )
    def test_exit_2_without_traceback(self, tmp_path, data, argv):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shrinkca.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "shrinkca", *argv, "--spec", str(path)],
            env=env,
            preexec_fn=_cap_address_space,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def _run_capped(tmp_path, data: dict, argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI in a child process under a 512 MiB address space."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shrinkca.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "shrinkca", *argv, "--spec", str(path)],
        env=env,
        preexec_fn=_cap_address_space,
        capture_output=True,
        text=True,
    )


def keystream_at(spec: GeneratorSpec, positions: list[int]) -> str:
    """Bits at absolute positions, by jump-ahead over one SR1 period of the step machine.

    Bit q * d + c is SR2's bit at step q * S + off_c, with off_c SR2's
    advance at SR1's c-th one and S its advance over the whole period;
    SR2's bit at step t is <x^t mod c2, is2>.
    """
    offsets, advance = [], 0
    for a, _, x in islice(_clocked_steps(spec), (1 << spec.l1) - 1):
        if a:
            offsets.append(advance)
        advance += x
    seed = sum(bit << k for k, bit in enumerate(spec.is2))
    bits = []
    for p in positions:
        q, c = divmod(p, len(offsets))
        t = (q * advance + offsets[c]) % ((1 << spec.l2) - 1)
        bits.append(str((_powx(t, spec.c2.mask) & seed).bit_count() & 1))
    return "".join(bits)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
class TestCostFollowsOutput:
    def test_linearize_refused_by_the_cell_cap(self, tmp_path):
        proc = _run_capped(tmp_path, PUBLIC_L1_33, ["linearize"])
        assert proc.returncode == 2
        assert f"{35 << 32} cells" in proc.stderr and f"MAX_CELLS = {MAX_CELLS}" in proc.stderr
        assert proc.stdout == ""

    def test_generate_far_origin_jumps(self, tmp_path):
        # the keystream period at (4, 23) is 8 * (2^23 - 1) bits; skipping
        # 2^40 of them one by one would not fit in the child's address space
        data = {
            "l1": 4, "l2": 23, "c1": "0,1,4", "c2": "0,5,23",
            "is1": "1011", "is2": "10110011100011110000111",
        }
        origin = 1 << 40
        proc = _run_capped(
            tmp_path, data, ["generate", "--kind", "shrink", "--bits", "64", "--origin", str(origin)]
        )
        assert proc.returncode == 0, proc.stderr
        period = 8 * ((1 << 23) - 1)
        window = [(origin + i) % period for i in range(64)]
        assert proc.stdout == keystream_at(GeneratorSpec.from_json(data), window) + "\n"
        # SR1's own stream jumps to its origin too, with period 2^4 - 1
        proc = _run_capped(
            tmp_path, data, ["generate", "--kind", "lfsr", "--bits", "64", "--origin", str(origin)]
        )
        assert proc.returncode == 0, proc.stderr
        sr1 = lfsr_bit_iter(Gf2Poly.parse(data["c1"]), tuple(map(int, data["is1"])))
        start = origin % 15
        assert proc.stdout == "".join(map(str, islice(sr1, start, start + 64))) + "\n"

    def test_generate_ca_far_origin_jumps(self, tmp_path):
        # a primitive characteristic polynomial gives every nonzero state
        # period 2^16 - 1, so stepping from origin mod that is the reference
        data = {"rules": "1010100000000000", "cells": "1011001110001111"}
        rules = RuleVector.from_string(data["rules"])
        assert is_primitive(rules.char_poly())
        origin = 1 << 40
        proc = _run_capped(
            tmp_path, data, ["generate", "--kind", "ca", "--bits", "64", "--origin", str(origin)]
        )
        assert proc.returncode == 0, proc.stderr
        start = origin % ((1 << 16) - 1)
        cell1 = ca_generate(CaState(rules, tuple(map(int, data["cells"]))), start + 64)[0]
        assert proc.stdout == "".join(map(str, cell1[start:])) + "\n"
