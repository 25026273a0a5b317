"""Command-line front end: generate keystreams, build CA models, run the attack.

Exit codes: 0 success, 2 validation problem (bad arguments, malformed
spec, zero seed, non-primitive polynomial, degenerate parameters, a
request too large for the memory available),
3 attack found no consistent state (Exhausted), 4 attack found several.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from typing import Iterable, Sequence

from .attack import Ambiguous, Exhausted, full_attack
from .engines import (
    _DIGITS,
    BitSeq,
    CaState,
    LfsrState,
    _ca_states,
    _lfsr_digits,
    _seed_to_int,
)
from .generators import (
    GeneratorSpec,
    _check_degree,
    _check_shape,
    _json_bits,
    _json_int,
    _json_poly,
    _json_taps,
    ccsg_generate,
    shrink_generate,
)
from .gf2 import RuleVector
from .linearize import linearize_model

__all__ = ["main"]


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("spec file must hold a JSON object")
    return data


def _emit(chunks: Iterable[bytes], output: str | None) -> None:
    """Write ASCII chunks in order: to the file as bytes, or to stdout as text."""
    if output is None:
        for chunk in chunks:
            sys.stdout.write(chunk.decode("ascii"))
    else:
        with open(output, "wb") as fh:
            fh.writelines(chunks)


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
    if args.kind in ("shrink", "ccsg"):
        gen = shrink_generate if args.kind == "shrink" else ccsg_generate
        digits: Iterable[bytes] = gen(GeneratorSpec.from_json(data), args.bits, args.origin, _DIGITS)
        if args.output is None:
            # one write: a request too large to hold exits 2 with nothing printed
            digits = [b"".join(digits)]
    else:
        if args.kind == "lfsr":
            l1 = _json_int(data, "l1")
            c1 = _json_poly(data, "c1", l1)
            _check_degree("c1", c1, l1)
            reg = LfsrState(c1, _required_bits(data, "is1"))
            poly, seed = reg.charpoly, reg.seed
        else:
            # cell 1 obeys the automaton's characteristic polynomial (Cayley-Hamilton),
            # so its first L bits seed the register that continues it
            st = CaState(RuleVector(_required_bits(data, "rules")), _required_bits(data, "cells"))
            poly = st.rules.char_poly()
            seed = tuple(s & 1 for s in _ca_states(st.rules, _seed_to_int(st.cells), len(st.cells)))
        digits = [_lfsr_digits(poly, seed, args.bits, args.origin)]
    _emit(chain(digits, [b"\n"]), args.output)
    return 0


def _cmd_linearize(args: argparse.Namespace) -> int:
    data = _load_json(args.spec)
    l1, l2 = _json_int(data, "l1"), _json_int(data, "l2")
    c2, taps = _json_poly(data, "c2", l2), _json_taps(data)
    _check_shape(l1, l2, c2, taps)
    model = linearize_model(l1, c2, len(taps))
    if args.trace:
        for idx, chain in enumerate(model.chains):
            print(f"automaton {idx + 1} concatenation chain:", file=sys.stderr)
            for step, rv in enumerate(chain):
                print(f"  step {step}: {rv} {rv.to_hex()}", file=sys.stderr)
    _emit([f"{rv} {rv.to_hex()}\n".encode() for rv in model.pair], args.output)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    spec = GeneratorSpec.from_json(_load_json(args.spec))
    intercepted = BitSeq.parse(args.intercepted, args.origin)
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
    # The report is what json.dumps(..., indent=2) prints, written out, since
    # Python's C encoder does not indent; the period's digits go in block by
    # block, with no joined copy.  Every field is digits, so nothing needs escaping.
    positions = ",\n    ".join(map(str, result.reconstructed_positions))
    head = '{\n  "is1": "%s",\n  "is2": "%s",\n  "keystream": "' % (
        "".join(map(str, result.is1)),
        "".join(map(str, result.is2)),
    )
    tail = '",\n  "reconstructed_positions": %s,\n  "nodes_expanded": %d\n}\n' % (
        f"[\n    {positions}\n  ]" if positions else "[]",
        result.nodes_expanded,
    )
    digits = result.keystream_blocks(_DIGITS)
    _emit(chain([head.encode()], digits, [tail.encode()]), args.output)
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
    except Exhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Ambiguous as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except KeyError as exc:  # the spec readers index the JSON object by key
        print(f"error: missing spec key {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ValueError covers every validation error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: request too large for the memory available", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
