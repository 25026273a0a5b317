"""The benchmark's own checks, on desk-scale (--smoke) workloads.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
from workloads import SENDER_BITS, SMOKE, WORKLOADS, intercept_length  # noqa: E402

from shrinkca import (  # noqa: E402
    Ambiguous,
    BitSeq,
    ConflictingReconstruction,
    DegenerateCoset,
    Exhausted,
    GeneratorSpec,
    Gf2Poly,
    NonInvertible,
    NonPrimitiveModulus,
    ccsg_generate,
    full_attack,
    is_primitive,
    shrink_generate,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _random_generator(rng: random.Random, l1: int, l2: int, w: int) -> reference.Generator:
    c1, c2 = reference.random_primitive(rng, l1), reference.random_primitive(rng, l2)
    taps = tuple(sorted(rng.sample(range(l1), w)))
    is1 = (1,) + tuple(rng.getrandbits(1) for _ in range(l1 - 1))
    is2 = tuple(rng.getrandbits(1) for _ in range(l2 - 1)) + (1,)
    return reference.Generator(l1, l2, c1, c2, is1, is2, taps)


def test_reference_primitivity_matches_library():
    rng = random.Random(1)
    for n in range(2, 14):
        for _ in range(30):
            p = (1 << n) | rng.getrandbits(n) | 1
            assert reference.is_primitive(p) == is_primitive(Gf2Poly(p))


def test_reference_keystream_matches_library():
    rng = random.Random(2)
    for _ in range(40):
        l1 = rng.randrange(2, 6)
        l2 = rng.choice([n for n in range(l1 + 1, 12) if math.gcd(n, l1) == 1])
        gen = _random_generator(rng, l1, l2, rng.randrange(0, l1))
        spec = GeneratorSpec.from_json(gen.secret_json())
        lib = ccsg_generate if gen.taps else shrink_generate
        n = gen.period + 40
        ref = reference.keystream(gen, n)
        assert ref == str(lib(spec, n))
        origin = rng.randrange(1, 40)
        assert reference.keystream(gen, 30, origin) == ref[origin : origin + 30]
        positions = [rng.randrange(n) for _ in range(40)]
        assert reference.keystream_at(gen, positions) == [int(ref[p]) for p in positions]


def test_regime_rule_matches_library():
    rng = random.Random(3)
    for l1 in range(2, 6):
        for l2 in [n for n in range(l1 + 1, 11) if math.gcd(n, l1) == 1]:
            for w in range(0, l1):
                gen = _random_generator(rng, l1, l2, w)
                public = GeneratorSpec.from_json(gen.public_json())
                prefix = BitSeq.parse(reference.keystream(gen, intercept_length(l1, l2)))
                try:
                    full_attack(prefix, public)
                    raised = False
                except (DegenerateCoset, NonInvertible, NonPrimitiveModulus):
                    raised = True
                except (Ambiguous, Exhausted, ConflictingReconstruction):
                    raised = False  # the attack ran, so the instance is in regime
                assert raised == (not reference.in_regime(l1, l2, w)), (l1, l2, w)


@pytest.mark.parametrize("table", [WORKLOADS, SMOKE], ids=["full", "smoke"])
def test_schedules_stay_in_regime(table):
    assert sorted(table) == sorted(w["name"] for w in BENCH["workloads"])
    for wl in table.values():
        for l1, l2, w in wl.sessions:
            assert reference.in_regime(l1, l2, w) and w < l1
            assert intercept_length(l1, l2) <= SENDER_BITS


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, seed: int, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace)]
    proc = _run(*args, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    result = _result(workload, 5, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_counts_repeat(workload):
    first, second = _result(workload, 7, 1), _result(workload, 7, 1)
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "bit", "byte"):
            assert second["metrics"][name] == metric, name


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        args = ["--workload", "keystream", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = _run(*args, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
