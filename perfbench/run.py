"""Benchmark for shrinkca: the real CLI entry point, driven in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload attack-period --seed 1 --seconds 20 --trace 0

One client, one process, closed loop: each `shrinkca.cli.main` request is
sent when the previous one has returned. Inputs come from --seed alone
(see workloads.py); every answer is checked against the planted truth with
the independent reference in reference.py, outside the timed spans.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json;
--trace 1 re-runs the first cycle's requests with layer spans (layers.py)
and prints the per-layer metrics. --smoke swaps in desk-scale workloads.

The last line of stdout is the result; the line before it carries the run's
stamp and sample counts. Exits 2 without a result when the sources are
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import keystream, keystream_at
from workloads import SMOKE, WORKLOADS, Request, Schedule, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 15
SAMPLED_POSITIONS = 64
# The host-speed slice's nominal time, about its median on a 2-vCPU VM with
# Python 3.11.7. End-to-end times are reported as they would read on a host
# where the slice takes this long; see _host_slice.
REF_SLICE_S = 0.0025


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "shrinkca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def _host_slice() -> float:
    """Seconds one fixed pure-Python loop takes now: the host's current speed.

    On a shared host the same code can run up to 1.5x slower at some moments
    than at others, for a second or for tens of minutes, and the program's
    time moves with it. Each timed span is bracketed by two slices and scaled by
    REF_SLICE_S over their mean, so a time reads as it would at a fixed host
    speed. The loop does integer, bit and list work like the program's, and
    calls nothing in shrinkca, so no program change can move it.
    """
    start = perf_counter()
    x, bits = 1, []
    for i in range(20000):
        x = (x * 5 + i) & 0xFFFFF
        bits.append(x & 1)
    return perf_counter() - start


def _measure_setup(paths: list[Path]) -> tuple[float, float]:
    """One fresh-process set-up time: start to ready, import and spec loading included.

    Returns (seconds scaled to the reference host speed, raw seconds).
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, paths)]
    before = _host_slice()
    start = perf_counter()
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True}
    with subprocess.Popen(argv, **pipes) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    raw = ready - start
    return raw * 2 * REF_SLICE_S / (before + _host_slice()), raw


def _call(cli, argv: list[str]) -> tuple[float, int | None, str]:
    """One CLI request: (wall seconds, exit code or None on an escaped exception, stderr)."""
    err = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed request, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    finally:
        elapsed = perf_counter() - start
    return elapsed, code, err.getvalue()


def _check_generate(req: Request, text: str) -> str | None:
    expected = req.expected
    if expected is None:
        expected = keystream(req.gen, req.bits, req.origin)
    if text != expected + "\n":
        return "generate output differs from the reference keystream"
    return None


def _check_attack(req: Request, text: str, rng: random.Random) -> str | None:
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    gen = req.gen
    if report.get("is1") != "".join(map(str, gen.is1)) or report.get("is2") != "".join(
        map(str, gen.is2)
    ):
        return f"recovered seeds {report.get('is1')}/{report.get('is2')} are not the planted pair"
    ks = report.get("keystream", "")
    if len(ks) != gen.period:
        return f"report keystream has {len(ks)} bits, the period is {gen.period}"
    n = min(len(req.prefix), len(ks))
    if ks[:n] != req.prefix[:n]:
        return "report keystream does not start with the sender's keystream"
    positions = sorted(rng.sample(range(gen.period), SAMPLED_POSITIONS)) + [gen.period - 1]
    for pos, bit in zip(positions, keystream_at(gen, positions)):
        if ks[pos] != str(bit):
            return f"report keystream bit {pos} differs from the reference"
    if not isinstance(report.get("nodes_expanded"), int) or not isinstance(
        report.get("reconstructed_positions"), list
    ):
        return "report lacks nodes_expanded or reconstructed_positions"
    return None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # request times scaled to the reference host speed, and as measured
    times: dict[str, list[float]] = field(default_factory=lambda: {"attack": [], "generate": []})
    raw: dict[str, list[float]] = field(default_factory=lambda: {"attack": [], "generate": []})
    slices: list[float] = field(default_factory=list)
    attacks_ok: int = 0
    bits_ok: int = 0
    attack_specs: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def _send(
    cli,
    req: Request,
    out: Path,
    tally: Tally,
    check_rng: random.Random,
    around: contextlib.AbstractContextManager | None = None,
) -> tuple[float, str | None]:
    """Send one request, time it, check its answer; returns (raw seconds, output text or None).

    `around` wraps the request alone, not the garbage collection and host
    slices before it or the slice and check after it.
    """
    gc.collect()
    before = _host_slice()
    with around or contextlib.nullcontext():
        elapsed, code, err = _call(cli, req.argv(out))
    after = _host_slice()
    tally.attempted += 1
    tally.times[req.kind].append(elapsed * 2 * REF_SLICE_S / (before + after))
    tally.raw[req.kind].append(elapsed)
    tally.slices += (before, after)
    if req.kind == "attack":
        tally.attack_specs.append(json.dumps(req.spec, sort_keys=True))
    if code != 0 or "Traceback" in err:
        tally.fail(f"{req.kind} exit {code}: {err.strip()[-400:]}")
        return elapsed, None
    text = out.read_text(encoding="utf-8")
    if req.kind == "generate":
        problem = _check_generate(req, text)
    else:
        problem = _check_attack(req, text, check_rng)
    if problem:
        tally.fail(f"{req.kind}: {problem}")
        return elapsed, None
    if req.kind == "generate":
        tally.bits_ok += req.bits
    else:
        tally.attacks_ok += 1
    return elapsed, text


def _end_to_end(times: dict, tally: Tally, setup: list[float]) -> dict[str, float]:
    """End-to-end metrics from the given request and set-up times."""
    return {
        "attacks_per_s": tally.attacks_ok / sum(times["attack"]),
        "attack_s_p50": statistics.median(times["attack"]),
        "keystream_bits_per_s": tally.bits_ok / sum(times["generate"]),
        "generate_s_p50": statistics.median(times["generate"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _samples(tally: Tally, setup: list[float]) -> dict:
    """Sample counts per timing, plus a p90 wherever ten samples lie beyond it."""
    out: dict = {
        "attack_requests": len(tally.times["attack"]),
        "generate_requests": len(tally.times["generate"]),
        "setup_processes": len(setup),
    }
    for kind, values in tally.times.items():
        if len(values) >= 100:
            out[f"{kind}_s_p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def _run_plain(
    cli,
    wl: Workload,
    sched: Schedule,
    first: list[Request],
    seconds: float,
    workdir: Path,
    seed: int,
) -> tuple[Tally, int, list[tuple[float, float]]]:
    """Run whole cycles until the time is up; returns (tally, cycles, set-up probes).

    The set-up probes are spread evenly over the run, between requests, so
    their median follows the host's speed over the whole run rather than
    over the second before it. Each probe loads the spec files of the cycle
    in progress; every cycle has the same mix of instance classes.
    """
    tally = Tally()
    setup: list[tuple[float, float]] = []
    start = perf_counter()
    cycle, requests = 0, first
    while True:
        check_rng = random.Random(f"check:{wl.name}:{seed}:{cycle}")
        paths = sorted({req.spec_path for req in requests})
        for req in requests:
            due = len(setup) * seconds / SETUP_REPEATS
            if len(setup) < SETUP_REPEATS and perf_counter() - start >= due:
                setup.append(_measure_setup(paths))
            out = workdir / ("out.json" if req.kind == "attack" else "out.txt")
            _send(cli, req, out, tally, check_rng)
            out.unlink(missing_ok=True)
        while perf_counter() - start >= seconds and len(setup) < SETUP_REPEATS:
            setup.append(_measure_setup(paths))
        shutil.rmtree(workdir / f"cycle-{cycle}")
        cycle += 1
        if perf_counter() - start >= seconds:
            return tally, cycle, setup
        requests = sched.cycle(cycle)


def _run_traced(
    cli, wl: Workload, requests: list[Request], seconds: float, workdir: Path, seed: int
) -> tuple[Tally, dict[str, float], dict]:
    """Repeat the first cycle with layer spans until the time is up."""
    from layers import Recorder, timed_library, traced_attack, traced_generate

    rec = Recorder()
    tally = Tally()
    rows: list[dict] = []
    first_counts: dict[int, dict[str, int]] = {}
    start = perf_counter()
    repeat = 0
    while True:
        check_rng = random.Random(f"check:{wl.name}:{seed}:0")
        for index, req in enumerate(requests):
            rid = repeat * len(requests) + index
            out = workdir / ("out.json" if req.kind == "attack" else "out.txt")
            around = contextlib.ExitStack()
            around.enter_context(rec.span("cli.request", rid))
            around.enter_context(timed_library(rec, rid, req.kind))
            before = len(rec.spans)
            t_req, text = _send(cli, req, out, tally, check_rng, around)
            output_bytes = out.stat().st_size if out.exists() else 0
            out.unlink(missing_ok=True)
            if text is None:
                continue
            gc.collect()
            first_span = len(rec.spans)
            try:
                with rec.span("pipeline", rid):
                    if req.kind == "attack":
                        outcome = traced_attack(rec, rid, req.spec, req.intercept)
                    else:
                        outcome = traced_generate(rec, rid, req.spec, req.bits, req.origin)
            except Exception:
                tally.fail(f"traced {req.kind} raised: {traceback.format_exc()[-400:]}")
                continue
            if not _same_answer(req, outcome.answer, text):
                tally.fail(f"traced {req.kind} pipeline disagrees with the CLI request")
                continue
            counts = dict(outcome.counts, **{"cli.output_bytes": output_bytes})
            if first_counts.setdefault(index, counts) != counts:
                tally.fail(f"counts of request {index} changed between repeats")
            spans = rec.spans[first_span:]
            library = [s for s in rec.spans[before:first_span] if s.name == "cli.library"]
            rows.append(
                {
                    "kind": req.kind,
                    "repeat": repeat,
                    "counts": counts,
                    "t_req": t_req,
                    "t_lib": sum(s.seconds for s in library),
                    "pipeline": spans[0].seconds - sum(s.seconds for s in spans if s.probe),
                    "layers": {s.name: s.seconds for s in spans[1:]},
                    "probes": {s.name for s in spans if s.probe},
                }
            )
        repeat += 1
        if perf_counter() - start >= seconds:
            break
    primary = "generate" if wl.streams else "attack"
    metrics = _per_layer(rows, primary)
    trace = {"spans": [vars(s) for s in rec.spans], "repeats": repeat}
    return tally, metrics, trace


def _same_answer(req: Request, answer: dict, text: str) -> bool:
    """Render the pipeline's raw answer as the CLI does and compare."""
    if req.kind == "generate":
        return "".join(map(str, answer["bits"][answer["origin"] :])) + "\n" == text
    if answer["verified"] != 1:
        return False
    report = json.loads(text)
    return (
        "".join(map(str, answer["is1"])) == report["is1"]
        and "".join(map(str, answer["is2"])) == report["is2"]
        and str(answer["keystream"]) == report["keystream"]
        and list(answer["reconstructed_positions"]) == report["reconstructed_positions"]
        and answer["nodes_expanded"] == report["nodes_expanded"]
    )


def _per_layer(rows: list[dict], primary: str) -> dict[str, float]:
    by_kind = {kind: [r for r in rows if r["kind"] == kind] for kind in ("attack", "generate")}

    def span_p50(kind: str, name: str) -> float:
        return statistics.median([r["layers"][name] for r in by_kind[kind] if name in r["layers"]])

    counts: dict[str, int] = {}
    for r in rows:
        if r["repeat"]:
            continue
        for name, value in r["counts"].items():
            counts[name] = counts.get(name, 0) + value
    main = by_kind[primary]
    gen = by_kind["generate"]
    attack = {name.removeprefix("attack."): value for name, value in counts.items()}
    return {
        "gf2.min_poly_s": span_p50("attack", "gf2.min_poly"),
        "gf2.field_table_s": span_p50("attack", "gf2.field_table"),
        "gf2.field_table_entries": counts["gf2.field_table_entries"],
        "gf2.spec_validate_s": span_p50(primary, "gf2.spec_validate"),
        "linearize.generator_s": span_p50("attack", "linearize.generator"),
        "linearize.synthesize_s": span_p50("attack", "linearize.synthesize"),
        "linearize.cells": counts["linearize.cells"],
        "attack.phase1_s": span_p50("attack", "attack.phase1"),
        "attack.phase1.identities": attack["phase1.identities"],
        "attack.phase1.positions": attack["phase1.positions"],
        "attack.phase1.yield": attack["phase1.positions"] / attack["phase1.intercepted"],
        "attack.phase2_s": span_p50("attack", "attack.phase2"),
        "attack.phase2.nodes": attack["phase2.nodes"],
        "attack.phase2.rejected": attack["phase2.rejected"],
        "attack.phase2.survivors": attack["phase2.survivors"],
        "attack.phase2.survivor_ratio": attack["phase2.survivors"] / attack["phase2.nodes"],
        "attack.verify_s": span_p50("attack", "attack.verify"),
        "attack.verify.candidates": attack["verify.candidates"],
        "attack.verify.pass_ratio": attack["verify.passed"] / attack["verify.candidates"],
        "generators.full_period_s": span_p50("attack", "generators.full_period"),
        "generators.full_period_bits": counts["generators.full_period_bits"],
        "generators.prefix_bits_per_s": sum(r["counts"]["generators.prefix_bits"] for r in gen)
        / sum(r["layers"]["generators.prefix"] for r in gen),
        "engines.bitseq_s": span_p50("generate", "engines.bitseq"),
        "cli.overhead_s": statistics.median([r["t_req"] - r["t_lib"] for r in main]),
        "cli.output_bytes": counts["cli.output_bytes"],
        "trace.coverage": sum(
            sum(v for k, v in r["layers"].items() if k not in r["probes"]) + r["t_req"] - r["t_lib"]
            for r in main
        )
        / sum(r["t_req"] for r in main),
        "trace.overhead": sum(r["pipeline"] for r in main) / sum(r["t_lib"] for r in main),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="desk-scale workloads")
    args = parser.parse_args(argv)

    if not (SRC / "shrinkca" / "cli.py").is_file():
        print(f"perfbench: no shrinkca sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        sched = Schedule(wl, args.seed, workdir)
        first = sched.cycle(0)
        setup: list[float] = []

        sys.path.insert(0, str(SRC))
        from shrinkca import cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported shrinkca from {cli.__file__}, not from {SRC}")
        meta = {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
        }
        if args.trace:
            tally, values, trace = _run_traced(cli, wl, first, args.seconds, workdir, args.seed)
            meta["repeats"] = trace["repeats"]
            names = spec["per_layer"]
        else:
            tally, cycles, probes = _run_plain(
                cli, wl, sched, first, args.seconds, workdir, args.seed
            )
            setup = [scaled for scaled, _ in probes]
            values = _end_to_end(tally.times, tally, setup)
            meta["cycles"] = cycles
            meta["host_slice_s_p50"] = statistics.median(tally.slices)
            meta["unscaled"] = _end_to_end(tally.raw, tally, [raw for _, raw in probes])
            specs = tally.attack_specs
            meta["attack_spec_repeat_share"] = (len(specs) - len(set(specs))) / len(specs)
            names = spec["end_to_end"]
        meta.update(_stamp())
        meta["samples"] = _samples(tally, setup)
        meta["fail_share"] = tally.failed / tally.attempted
        meta["errors"] = tally.errors
        if args.trace:
            out = WORK / f"trace-{wl.name}-{args.seed}.json"
            out.write_text(json.dumps({"meta": meta, "metrics": values, **trace}), encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({"meta": meta}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
