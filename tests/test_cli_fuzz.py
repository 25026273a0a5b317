"""Malformed specs and arguments never escape the CLI's exit-code contract."""

import contextlib
import io
import json
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shrinkca.cli import main  # noqa: E402

# well-formed starting points, each with the generate kinds it suits; the
# fuzzer mutates, drops or keeps each key
BASES = [
    ({"l1": 3, "l2": 4, "c1": "0,2,3", "c2": "0,1,4", "is1": "100", "is2": "1000"}, ["shrink", "lfsr"]),
    ({"l1": 3, "l2": 4, "c1": "0,2,3", "c2": "0,1,4", "is1": "100", "is2": "1000", "taps": [0]}, ["ccsg"]),
    ({"l1": 4, "l2": 5, "c1": "0,3,4", "c2": "0,1,3,4,5", "is1": "1001", "is2": "10101"}, ["shrink"]),
    ({"l1": 3, "l2": 11, "c1": "0,1,3", "c2": "0,2,11", "is1": "011", "is2": "10000000001"}, ["shrink"]),
    ({"l1": 2, "l2": 5, "c1": "0,1,2", "c2": "0,2,5", "is1": "11", "is2": "00101", "taps": [0, 1]}, ["ccsg"]),
    ({"rules": "0111001110", "cells": "0001110110"}, ["ca"]),
]

# degrees stay at most 12 and bit counts at most 10^4, so no case asks for much memory
small_ints = st.integers(-2, 12)
exponents = st.lists(small_ints, max_size=6).map(lambda es: ",".join(map(str, es)))
bit_text = st.text(alphabet="01", max_size=13)
junk = st.one_of(
    st.none(),
    st.booleans(),
    small_ints,
    st.floats(-3, 13, allow_nan=False),
    st.text(alphabet="01,-2 3a", max_size=12),
    st.lists(small_ints, max_size=4),
    st.dictionaries(st.text(max_size=3), small_ints, max_size=2),
)
VALUES = {
    "l1": st.one_of(small_ints, junk),
    "l2": st.one_of(small_ints, junk),
    "c1": st.one_of(exponents, junk),
    "c2": st.one_of(exponents, junk),
    "is1": st.one_of(bit_text, junk),
    "is2": st.one_of(bit_text, junk),
    "taps": st.one_of(st.lists(st.integers(-1, 5), max_size=4), junk),
    "rules": st.one_of(bit_text, junk),
    "cells": st.one_of(bit_text, junk),
}
BAD_OPTIONS = {
    "--kind": st.text(max_size=4),
    "--bits": st.one_of(st.integers(-2, -1).map(str), st.text(max_size=4)),
    "--origin": st.one_of(st.integers(-2, 64).map(str), st.text(max_size=3)),
    "--intercepted": st.text(alphabet="01 x-", max_size=40),
    "--output": st.just(""),
}


@st.composite
def cases(draw) -> tuple[bytes, list[str]]:
    """A spec file's bytes and a command line reading it: mostly well formed,
    now and then with a key, an option or the whole file malformed."""
    base, kinds = draw(st.sampled_from(BASES))
    spec = dict(base)
    for key in draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=3, unique=True)):
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(VALUES[key])
    content = json.dumps(spec).encode()
    if not draw(st.integers(0, 9)):
        content = draw(st.one_of(st.binary(max_size=24), junk.map(json.dumps).map(str.encode)))

    command = draw(st.sampled_from(["generate", "generate", "linearize", "attack", "attack"]))
    argv = [command, "--spec", "{spec}"]
    if command == "generate":
        argv += ["--kind", draw(st.sampled_from(kinds + ["shrink", "ccsg", "lfsr", "ca"]))]
        argv += ["--bits", str(draw(st.integers(0, 10_000)))]
        argv += ["--origin", str(draw(st.integers(0, 64)))]
    if command == "attack":
        argv += ["--intercepted", draw(st.text(alphabet="01", min_size=1, max_size=40))]
    if command != "generate" and draw(st.booleans()):
        argv.append("--trace")
    if not draw(st.integers(0, 4)):
        flag = draw(st.sampled_from(sorted(BAD_OPTIONS)))
        argv += [flag, draw(BAD_OPTIONS[flag])]
    if not draw(st.integers(0, 9)):
        del argv[draw(st.integers(0, len(argv) - 1))]
    return content, argv


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_exit_code_contract(spec_path, case):
    content, argv = case
    spec_path.write_bytes(content)
    argv = [str(spec_path) if arg == "{spec}" else arg for arg in argv]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tap count equal to l1
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
            assert code == 2, (argv, content)
    assert code in (0, 2, 3, 4), (argv, content, sink.getvalue())
