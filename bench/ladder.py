"""Scale ladder: where one attack's time goes, rung by rung, up to l2 = 61.

Usage (from the repository root):

    python3 bench/ladder.py > ladder.json

The gated benchmark (perfbench/) stops at l2 = 17 and l1 = 8, so it cannot
see the costs that grow with the SR2 period 2^l2 - 1 or with 2^(l1-1).
Each rung (l1, l2, taps) here is one attack with polynomials and seeds
drawn from a random.Random seeded by the rung itself, so every checkout
attacks the same instances. The intercept is the first
r = max(3 * 2^(l1-1), 2 * (l1 + l2)) keystream bits.

One run is one `full_attack` with the caches of `is_primitive` and of
`gf2._prime_factors` cleared first, so it factors each 2^m - 1 and proves
c1, c2 and the base again, as a CLI attack in a fresh process does.
Its layers are timed inside that call, by wrapping the functions it calls
for the length of the run:

- linearize: `linearize_model`, min_poly included
- min_poly: `min_poly_of_power` of the coset exponent
- field: `FieldTable.build`
- phase1: `attack._phase1_positions`, the positions pass that names phase 1's
  positions once the search on the intercept has recovered the seeds
- phase2: `phase2_search`, the one search on the intercept
- full_attack: the whole attack, with its report unread
- regeneration: the full-period keystream the attack reports, which
  `AttackResult.keystream` regenerates each time it is read
- report: the CLI's write of the recovered period, streamed as ASCII digit
  blocks (`AttackResult.keystream_blocks`) to os.devnull by the CLI's own
  writer

regeneration and report are timed only when full_attack recovers.

The wrappers also count calls; the run wraps `FieldTable.discrete_log` too,
and the rung reports its calls per attack as `discrete_logs`.

Rungs with l2 above the field cap (gf2.MAX_FIELD_DEGREE) time linearize
and min_poly only, since neither builds a field: the attack refuses them at
`FieldTable.build`, so their other layers are listed under "skipped" and
their outcome is "skipped", not an error.

A rung runs RUNS times in a child process and reports each layer's median
and its (min, max), and the median count of discrete logs. A child still
running after CAP_S seconds is killed and the rung is recorded as a
timeout. Stdlib only; not part of the tests or of BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNGS = (
    (5, 11, 0),
    (8, 9, 0),
    (7, 11, 1),
    (7, 15, 0),
    (3, 16, 0),
    (6, 17, 0),
    (4, 19, 0),
    (5, 21, 1),
    (4, 23, 0),
    (10, 11, 0),
    (11, 13, 0),
    (12, 13, 0),
    (13, 14, 0),
    (13, 15, 1),
    (3, 29, 0),
    (3, 31, 0),
    (3, 61, 0),
)
LAYERS = (
    "linearize",
    "min_poly",
    "field",
    "phase1",
    "phase2",
    "regeneration",
    "full_attack",
    "report",
)
RUNS = 7
CAP_S = 60


def _instance(l1: int, l2: int, w: int):
    from shrinkca import (
        BitSeq,
        GeneratorSpec,
        Gf2Poly,
        ccsg_generate,
        is_primitive,
        shrink_generate,
    )

    rng = random.Random(f"ladder:{l1}:{l2}:{w}")

    def primitive(m: int) -> Gf2Poly:
        while True:
            p = Gf2Poly(1 << m | rng.getrandbits(m) | 1)
            if is_primitive(p):
                return p

    taps = tuple(sorted(rng.sample(range(l1), w)))
    public = GeneratorSpec(l1, l2, primitive(l1), primitive(l2), taps=taps)
    is1 = (1,) + tuple(rng.getrandbits(1) for _ in range(l1 - 1))
    is2 = tuple(rng.getrandbits(1) for _ in range(l2 - 1)) + (1,)
    generate = ccsg_generate if w else shrink_generate
    r = max(3 << (l1 - 1), 2 * (l1 + l2))
    intercepted = BitSeq(generate(public.with_seeds(is1, is2), r).raw)
    return public, (is1, is2), intercepted


def _one_run(l1: int, l2: int, w: int) -> tuple[dict[str, float], str, dict[str, int]]:
    from shrinkca import attack, full_attack, is_primitive, linearize
    from shrinkca.cli import _emit
    from shrinkca.engines import _DIGITS
    from shrinkca.gf2 import MAX_FIELD_DEGREE, FieldTable, _prime_factors

    public, planted, intercepted = _instance(l1, l2, w)
    times: dict[str, float] = {}
    calls: dict[str, int] = {}

    def timed(name, fn):
        def call(*args):
            start = perf_counter()
            out = fn(*args)
            times[name] = times.get(name, 0.0) + perf_counter() - start
            calls[name] = calls.get(name, 0) + 1
            return out

        return call

    wrapped = (
        (linearize, "min_poly_of_power", "min_poly"),
        (attack, "linearize_model", "linearize"),
        (FieldTable, "build", "field"),
        (attack, "_phase1_positions", "phase1"),
        (attack, "phase2_search", "phase2"),
        (FieldTable, "discrete_log", "discrete_log"),
    )
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in wrapped]
    for owner, attr, name in wrapped:
        setattr(owner, attr, timed(name, getattr(owner, attr)))
    is_primitive.cache_clear()
    _prime_factors.cache_clear()
    try:
        result = timed("full_attack", full_attack)(intercepted, public)
    except Exception as exc:  # an attack that does not recover is recorded, not fatal
        return times, "skipped" if l2 > MAX_FIELD_DEGREE else type(exc).__name__, calls
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    if (result.is1, result.is2) != planted:
        return times, "wrong seeds", calls
    timed("regeneration", lambda: result.keystream)()
    timed("report", lambda: _emit(result.keystream_blocks(_DIGITS), os.devnull))()
    return times, "recovered", calls


def _rung(l1: int, l2: int, w: int) -> dict:
    runs = [_one_run(l1, l2, w) for _ in range(RUNS)]
    layers = [k for k in LAYERS if k in runs[0][0]]
    entry = {
        "outcome": sorted({outcome for _, outcome, _ in runs}),
        "median_s": {k: statistics.median(t[k] for t, _, _ in runs) for k in layers},
        "discrete_logs": statistics.median(c.get("discrete_log", 0) for _, _, c in runs),
        "min_max_s": {
            k: [min(t[k] for t, _, _ in runs), max(t[k] for t, _, _ in runs)] for k in layers
        },
    }
    skipped = [k for k in LAYERS if k not in layers]
    if skipped:
        entry["skipped"] = skipped
    return entry


def _git(*args: str) -> str | None:
    try:
        argv = ["git", "-C", str(ROOT), *args]
        return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "shrinkca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "src")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "src_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "runs": RUNS,
        "cap_s": CAP_S,
    }


def main() -> None:
    if sys.argv[1:2] == ["--rung"]:
        sys.path.insert(0, str(SRC))
        print(json.dumps(_rung(*map(int, sys.argv[2:5]))))
        return
    rungs = []
    for l1, l2, w in RUNGS:
        argv = [sys.executable, __file__, "--rung", str(l1), str(l2), str(w)]
        entry: dict = {"l1": l1, "l2": l2, "taps": w}
        try:
            child = subprocess.run(argv, capture_output=True, text=True, timeout=CAP_S, check=True)
            entry.update(json.loads(child.stdout))
        except subprocess.TimeoutExpired:
            entry["timeout"] = True
        except subprocess.CalledProcessError as exc:
            entry["error"] = exc.stderr.strip().splitlines()[-1:]
        print(json.dumps(entry), file=sys.stderr)
        rungs.append(entry)
    print(json.dumps({"stamp": _stamp(), "rungs": rungs}, indent=1))


if __name__ == "__main__":
    main()
