"""Check a `generate` output file against perfbench's reference at 64 sampled positions.

Usage (from the repository root):

    python3 bench/check_window.py SPEC OUTPUT KIND ORIGIN BITS SEED

SPEC is the spec file that `python -m shrinkca generate` read and OUTPUT the
file it wrote: BITS digits and a newline, for the window of BITS bits at
ORIGIN. KIND is `lfsr`, `shrink` or `ccsg`. SEED seeds the draw of the 64
positions. An `lfsr` bit at step t is x^t mod c1 dotted with is1
(`reference._powx`); a generator bit comes from `reference.keystream_at`,
which jumps to each position along the column interleave, so neither
reads the library. Exits nonzero when the file's length or a sampled bit
differs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from reference import Generator, _powx, keystream_at  # noqa: E402


def _mask(text: str) -> int:
    return sum(1 << int(e) for e in text.split(","))


def _bits(text: str) -> tuple[int, ...]:
    return tuple(map(int, text))


def expected(spec: dict, kind: str, positions: list[int]) -> list[int]:
    """The reference's bits at absolute positions of the spec's `kind` stream."""
    if kind == "lfsr":
        seed = sum(bit << k for k, bit in enumerate(_bits(spec["is1"])))
        return [(_powx(p, _mask(spec["c1"])) & seed).bit_count() & 1 for p in positions]
    gen = Generator(
        spec["l1"], spec["l2"], _mask(spec["c1"]), _mask(spec["c2"]),
        _bits(spec["is1"]), _bits(spec["is2"]), tuple(spec.get("taps", ())),
    )
    return keystream_at(gen, positions)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("output")
    parser.add_argument("kind", choices=("lfsr", "shrink", "ccsg"))
    parser.add_argument("origin", type=int)
    parser.add_argument("bits", type=int)
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    out = Path(args.output).read_text()
    if len(out) != args.bits + 1 or not out.endswith("\n"):
        print(f"expected {args.bits} digits and a newline, got {len(out)} characters", file=sys.stderr)
        return 1
    positions = sorted(random.Random(args.seed).sample(range(args.bits), 64))
    want = expected(spec, args.kind, [args.origin + p for p in positions])
    for p, bit in zip(positions, want):
        if int(out[p]) != bit:
            print(f"bit {args.origin + p}: wrote {out[p]}, reference {bit}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
