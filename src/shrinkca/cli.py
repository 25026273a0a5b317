"""Command-line front end: generate keystreams, build CA models, run the attack.

Exit codes: 0 success, 2 validation problem (bad arguments, malformed
spec, zero seed, non-primitive polynomial, degenerate parameters),
3 attack found no consistent state (exhausted search or conflicting
reconstruction), 4 attack found several.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .attack import Ambiguous, ConflictingReconstruction, Exhausted, full_attack
from .engines import BitSeq, CaState, LfsrState, ca_generate, lfsr_generate
from .generators import (
    GeneratorSpec,
    _json_bits,
    _json_int,
    _json_poly,
    _json_taps,
    ccsg_generate,
    shrink_generate,
)
from .gf2 import RuleVector, min_poly_of_power
from .linearize import (
    concatenation_chain,
    coset_exponent,
    linearize_generator,
    synthesize_ca_pair,
)

__all__ = ["main"]


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("spec file must hold a JSON object")
    return data


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _bits_arg(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative bit count")
    return n


def _required_bits(data: dict, key: str) -> tuple[int, ...]:
    bits = _json_bits(data, key)
    if bits is None:
        raise ValueError(f"{key} is required")
    return bits


def _cmd_generate(args: argparse.Namespace) -> int:
    data = _load_json(args.spec)
    total = args.origin + args.bits
    if args.kind == "lfsr":
        reg = LfsrState(_json_poly(data, "c1", _json_int(data, "l1")), _required_bits(data, "is1"))
        bits = lfsr_generate(reg, total)
    elif args.kind == "ca":
        rules = RuleVector(_required_bits(data, "rules"))
        bits = ca_generate(CaState(rules, _required_bits(data, "cells")), total)[0]
    else:
        spec = GeneratorSpec.from_json(data)
        if args.kind == "shrink" and spec.taps:
            raise ValueError("spec has clock taps; use --kind ccsg")
        if args.kind == "ccsg" and not spec.taps:
            raise ValueError("spec has no clock taps; use --kind shrink")
        gen = shrink_generate if args.kind == "shrink" else ccsg_generate
        bits = gen(spec, total)
    _emit(str(bits)[args.origin :] + "\n", args.output)
    return 0


def _cmd_linearize(args: argparse.Namespace) -> int:
    data = _load_json(args.spec)
    l1, l2 = _json_int(data, "l1"), _json_int(data, "l2")
    c2 = _json_poly(data, "c2", l2)
    if c2.degree != l2:
        raise ValueError(f"c2 degree {c2.degree} != l2 {l2}")
    w = len(_json_taps(data))
    pair = linearize_generator(l1, c2, w)
    if args.trace:
        seeds = synthesize_ca_pair(min_poly_of_power(c2, coset_exponent(l1, w)))
        for idx, seed in enumerate(seeds):
            print(f"automaton {idx + 1} concatenation chain:", file=sys.stderr)
            for step, rv in enumerate(concatenation_chain(seed, l1 - 1)):
                print(f"  step {step}: {rv} {rv.to_hex()}", file=sys.stderr)
    _emit("".join(f"{rv} {rv.to_hex()}\n" for rv in pair), args.output)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    if args.origin != 0:
        raise ValueError("the attack needs an interception starting at position 0")
    spec = GeneratorSpec.from_json(_load_json(args.spec))
    intercepted = BitSeq.parse(args.intercepted)
    result = full_attack(intercepted, spec)
    if args.trace:
        print("phase 1 window identities:", file=sys.stderr)
        for rec in result.phase1_records:
            print(
                f"  ca={rec.ca + 1} cell={rec.cell} power={rec.power}"
                f" offsets={list(rec.offsets)} row_shift={rec.row_shift}"
                f" -> positions {list(rec.positions)}",
                file=sys.stderr,
            )
        print("phase 2 hypotheses:", file=sys.stderr)
        for rec in result.phase2_records:
            where = "" if rec.column is None else f" column={rec.column} shift={rec.shift}"
            row = "" if rec.row is None else f" row={rec.row}"
            prefix = "".join(map(str, rec.prefix))
            print(f"  {prefix}{where}: {rec.outcome}{row}", file=sys.stderr)
        print(f"nodes expanded: {result.nodes_expanded}", file=sys.stderr)
    payload = {
        "is1": "".join(map(str, result.is1)),
        "is2": "".join(map(str, result.is2)),
        "keystream": str(result.keystream),
        "reconstructed_positions": list(result.reconstructed_positions),
        "nodes_expanded": result.nodes_expanded,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinkca",
        description="Shrinking-generator toolkit: keystreams, 90/150 models, state recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit keystream or register/automaton output bits")
    gen.add_argument("--spec", required=True, help="JSON parameter file")
    gen.add_argument("--kind", required=True, choices=("shrink", "ccsg", "lfsr", "ca"))
    gen.add_argument("--bits", required=True, type=_bits_arg, help="number of bits to emit")
    gen.add_argument("--origin", type=_bits_arg, default=0, help="skip this many leading bits")
    gen.add_argument("--output", help="write bits here instead of stdout")
    gen.set_defaults(func=_cmd_generate)

    lin = sub.add_parser("linearize", help="build the mirror pair of 90/150 automata")
    lin.add_argument("--spec", required=True, help="JSON parameter file (l1, l2, c2, taps)")
    lin.add_argument("--trace", action="store_true", help="show concatenation steps on stderr")
    lin.add_argument("--output", help="write rule vectors here instead of stdout")
    lin.set_defaults(func=_cmd_linearize)

    atk = sub.add_parser("attack", help="recover seeds from an intercepted prefix")
    atk.add_argument("--spec", required=True, help="JSON file with public parameters")
    atk.add_argument("--intercepted", required=True, help="keystream prefix as a bit string")
    atk.add_argument("--origin", type=int, default=0, help="position of the first bit (must be 0)")
    atk.add_argument("--trace", action="store_true", help="show both phases on stderr")
    atk.add_argument("--output", help="write the JSON result here instead of stdout")
    atk.set_defaults(func=_cmd_attack)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Exhausted, ConflictingReconstruction) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Ambiguous as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:  # ValueError covers every validation error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
