import json
import subprocess
import sys

import pytest

from shrinkca.cli import _build_parser, main

EXAMPLE1 = {"l1": 3, "l2": 4, "c1": "0,2,3", "c2": "0,1,4", "is1": "100", "is2": "1000"}
EXAMPLE2 = dict(EXAMPLE1, taps=[0])
PUBLIC53 = {"l1": 4, "l2": 5, "c1": "0,3,4", "c2": "0,1,3,4,5"}
INTERCEPT53 = "101000011001110011010011"


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
        assert "rejected row=23" in err

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

    def test_no_arguments_shows_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shrinkca"], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "usage" in (proc.stderr + proc.stdout).lower()
