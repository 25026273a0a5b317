"""Differential digests: sha256s over what the attack and the CLI do on seeded samples.

Usage (from the repository root):

    python3 bench/differential.py

It prints three lines, `library <sha256>`, `cli <sha256>` and
`linear <sha256>`. Run it at two checkouts: a change that claims the
attack's output, or the CLI's, is byte-identical must print the same
digest as its parent. `bench/differential.expected` holds the three lines
the tree prints, and CI diffs a run against it, so a change that alters
them updates that file and says why.

The library sample is COUNT instances drawn from random.Random(SEED). Each has l1
in 1..9, a coprime l2 in l1 + 1..13, primitive c1 and c2, 0, 1, 2 or l1
clock taps, nonzero seeds, and an intercept of d..8d bits (d = 2^(l1-1));
40 % of the intercepts are random bits, not keystream. The digest covers,
per instance and in order:

- phase 1's records and every known bit with its provenance;
- phase 2's candidates, nodes expanded and records;
- `full_attack`'s seeds, reconstructed positions, nodes and records;

and, wherever a step raises, the exception's type and text instead.

The cli digest covers the command line: every request of perfbench's three
workload schedules (seed CLI_SEED, CLI_CYCLES cycles each) goes through
`cli.main` once to stdout and once with `--output`, and the digest covers
each run's exit code, stderr, stdout and output-file bytes, in order.

The linear digest covers the register reads: for k = 1 .. LINEAR_CELLS,
`generate --kind lfsr` on a primitive register of random degree 1..64 and
a random nonzero seed, and `generate --kind ca` on a random automaton of
k cells (every ninth one all-zero), each at origins 0, L - 1, L, 2L, a
random one and 2^40, through `cli.main` to stdout, drawn from
random.Random(LINEAR_SEED).

Stdlib only; not part of the tests or of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from shrinkca import (  # noqa: E402
    BitSeq,
    FieldTable,
    GeneratorSpec,
    Gf2Poly,
    ccsg_generate,
    full_attack,
    is_primitive,
    phase1_reconstruct,
    phase2_search,
    shrink_generate,
)
from shrinkca import cli  # noqa: E402
from shrinkca.linearize import linearize_model  # noqa: E402
from workloads import WORKLOADS, Schedule  # noqa: E402

COUNT = 3000
SEED = "differential"
CLI_SEED = 903
CLI_CYCLES = 3
LINEAR_SEED = "linear"
LINEAR_CELLS = 199


def _primitive(rng: random.Random, m: int) -> Gf2Poly:
    while True:
        p = Gf2Poly(1 << m | rng.getrandbits(m) | 1)
        if is_primitive(p):
            return p


def _seed(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        bits = tuple(rng.getrandbits(1) for _ in range(n))
        if any(bits):
            return bits


def _text(bits) -> str:
    return "".join(map(str, bits))


def _instance(rng: random.Random) -> tuple[GeneratorSpec, BitSeq]:
    l1 = rng.randint(1, 9)
    l2 = rng.choice([m for m in range(l1 + 1, 14) if math.gcd(l1, m) == 1])
    w = min(rng.choice((0, 1, 2, l1)), l1)
    taps = tuple(sorted(rng.sample(range(l1), w)))
    public = GeneratorSpec(l1, l2, _primitive(rng, l1), _primitive(rng, l2), taps=taps)
    d = 1 << (l1 - 1)
    r = rng.randint(d, 8 * d)
    if rng.random() < 0.4:
        return public, BitSeq([rng.getrandbits(1) for _ in range(r)])
    generate = ccsg_generate if taps else shrink_generate
    return public, generate(public.with_seeds(_seed(rng, l1), _seed(rng, l2)), r)


def _outcome(fn, *args) -> tuple[object, str]:
    """(fn's value, ""), or (None, the type and text of the exception it raised)."""
    try:
        value = fn(*args)
    except Exception as exc:  # every failure is part of the output under test
        return None, f"{type(exc).__name__}: {exc}"
    return value, ""


def _attack_text(public: GeneratorSpec, intercepted: BitSeq) -> str:
    def phases():
        model = linearize_model(public.l1, public.c2, len(public.taps))
        table = FieldTable.build(model.base)
        known, records = phase1_reconstruct(intercepted, model.pair, public.l1, table)
        lines = [repr(records)]
        lines += [f"{p} {known.get(p)} {known.provenance(p)}" for p in known.positions()]
        found, error = _outcome(phase2_search, known, public, table)
        if found is None:
            lines.append(error)
        else:
            lines += [repr(found.candidates), str(found.nodes_expanded), repr(found.records)]
        return "\n".join(lines)

    text, error = _outcome(phases)
    result, attack = _outcome(full_attack, intercepted, public)
    if result is not None:
        attack = repr(
            (
                result.is1,
                result.is2,
                result.reconstructed_positions,
                result.nodes_expanded,
                result.phase1_records,
                result.phase2_records,
            )
        )
    return f"{public.to_json()} {intercepted}\n{text or error}\n{attack}\n"


def _cli_run(argv: list[str], output: Path | None) -> bytes:
    """Exit code, stderr, stdout and output-file bytes of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = output.read_bytes() if output is not None and output.exists() else b""
    if output is not None:
        output.unlink(missing_ok=True)
    parts = [str(code).encode(), err.getvalue().encode(), out.getvalue().encode(), written]
    return b"".join(len(part).to_bytes(8, "big") + part for part in parts)


def cli_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, wl in WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            sched = Schedule(wl, CLI_SEED, workdir)
            for index in range(CLI_CYCLES):
                for req in sched.cycle(index):
                    output = workdir / "out"
                    argv = req.argv(output)
                    digest.update(_cli_run(argv[:-2], None))  # argv ends in --output, path
                    digest.update(_cli_run(argv, output))
    return digest.hexdigest()


def linear_digest() -> str:
    rng = random.Random(LINEAR_SEED)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        for cells in range(1, LINEAR_CELLS + 1):
            l1 = rng.randint(1, 64)
            register = {"l1": l1, "c1": _primitive(rng, l1).to_text(), "is1": _text(_seed(rng, l1))}
            state = [rng.getrandbits(1) for _ in range(cells)]
            if cells % 9 == 0:
                state = [0] * cells
            automaton = {"rules": _text(rng.getrandbits(1) for _ in range(cells)), "cells": _text(state)}
            for kind, data, size in (("lfsr", register, l1), ("ca", automaton, cells)):
                path.write_text(json.dumps(data))
                for origin in (0, size - 1, size, 2 * size, rng.randrange(1 << 20), 1 << 40):
                    bits = rng.randrange(4 * size + 64)
                    argv = ["generate", "--spec", str(path), "--kind", kind, "--bits", str(bits)]
                    digest.update(_cli_run([*argv, "--origin", str(origin)], None))
    return digest.hexdigest()


def library_digest() -> str:
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    for _ in range(COUNT):
        digest.update(_attack_text(*_instance(rng)).encode())
    return digest.hexdigest()


def main() -> None:
    warnings.simplefilter("ignore")  # l1 taps warn that the clock leaks SR1
    print(f"library {library_digest()}")
    print(f"cli     {cli_digest()}")
    print(f"linear  {linear_digest()}")


if __name__ == "__main__":
    main()
