"""Spans around each layer's public calls, for the traced run.

The program has no telemetry of its own yet, so the traced run re-runs each
request as a decomposed pipeline: the same public calls `full_attack` (or
`generate`) makes, in the same order, each inside a span. It must reproduce
the CLI's answer exactly. When the library stops making these calls, the
spans stop adding up to the request time, and trace.coverage shows it.

Probe spans time a call outside that order, to split a layer further (the
synthesis inside linearize_generator, the BitSeq check inside a generator);
they are left out of the coverage sum.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from shrinkca import (
    BitSeq,
    FieldTable,
    GeneratorSpec,
    ccsg_generate,
    coset_exponent,
    linearize_generator,
    min_poly_of_power,
    phase1_reconstruct,
    phase2_search,
    shrink_generate,
    synthesize_ca_pair,
)
from shrinkca import cli as shrinkca_cli

# The library calls the CLI makes inside one request, by subcommand.
LIBRARY_CALLS = {"attack": ("full_attack",), "generate": ("shrink_generate", "ccsg_generate")}


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    probe: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Spans kept in memory; written out once the run ends."""

    spans: list[Span] = field(default_factory=list)
    _open: list[Span] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, request: int, probe: bool = False) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), parent, request, name, 0.0, probe=probe)
        self.spans.append(sp)
        self._open.append(sp)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._open.pop()


@contextlib.contextmanager
def timed_library(rec: Recorder, request: int, kind: str) -> Iterator[None]:
    """Wrap the library calls inside a CLI request in a `cli.library` span.

    Raises AttributeError when the CLI no longer makes the call by that
    name: the decomposition is stale and has to follow the program.
    """
    originals = {name: getattr(shrinkca_cli, name) for name in LIBRARY_CALLS[kind]}

    def wrap(fn):
        def timed(*args, **kwargs):
            with rec.span("cli.library", request):
                return fn(*args, **kwargs)

        return timed

    for name, fn in originals.items():
        setattr(shrinkca_cli, name, wrap(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(shrinkca_cli, name, fn)


@dataclass
class Outcome:
    """What the decomposed pipeline produced, plus the counts it saw."""

    answer: dict
    counts: dict[str, int]


def traced_attack(rec: Recorder, request: int, spec_json: dict, intercept: str) -> Outcome:
    """`full_attack` as its public calls, in its order, one span each."""
    with rec.span("gf2.spec_validate", request, probe=True):
        spec = GeneratorSpec.from_json(spec_json)
    intercepted = BitSeq.parse(intercept)
    w = len(spec.taps)
    with rec.span("linearize.generator", request):
        pair = linearize_generator(spec.l1, spec.c2, w)
    with rec.span("gf2.min_poly", request):
        base = min_poly_of_power(spec.c2, coset_exponent(spec.l1, w))
    with rec.span("gf2.field_table", request):
        table = FieldTable.build(base)
    with rec.span("attack.phase1", request):
        known, records = phase1_reconstruct(intercepted, pair, spec.l1, table)
    with rec.span("attack.phase2", request):
        result = phase2_search(known, spec, table)
    generate = ccsg_generate if spec.taps else shrink_generate
    with rec.span("attack.verify", request):
        verified = [
            (is1, is2)
            for is1, is2 in result.candidates
            if tuple(generate(spec.with_seeds(is1, is2), len(intercepted))) == intercepted.bits
        ]
    # Raw values only: the caller renders them once the pipeline span has
    # closed, so rendering is not counted as pipeline time.
    answer: dict = {"verified": len(verified)}
    period = (1 << (spec.l1 - 1)) * table.order
    keystream = None
    if len(verified) == 1:
        is1, is2 = verified[0]
        with rec.span("generators.full_period", request):
            keystream = generate(spec.with_seeds(is1, is2), period)
        answer.update(
            is1=is1,
            is2=is2,
            keystream=keystream,
            reconstructed_positions=known.positions("reconstructed"),
            nodes_expanded=result.nodes_expanded,
        )
    with rec.span("linearize.synthesize", request, probe=True):
        synthesize_ca_pair(base)
    outcomes = [r.outcome for r in result.records]
    counts = {
        "gf2.field_table_entries": len(table.antilog) + len(table.log) + len(table.zech),
        "linearize.cells": len(pair[0]) + len(pair[1]),
        "attack.phase1.identities": len(records),
        "attack.phase1.positions": len(known.positions("reconstructed")),
        "attack.phase1.intercepted": len(intercepted),
        "attack.phase2.nodes": result.nodes_expanded,
        "attack.phase2.rejected": outcomes.count("rejected"),
        "attack.phase2.survivors": outcomes.count("survivor"),
        "attack.verify.candidates": len(result.candidates),
        "attack.verify.passed": len(verified),
        "generators.full_period_bits": len(keystream) if keystream is not None else 0,
    }
    return Outcome(answer, counts)


def traced_generate(
    rec: Recorder, request: int, spec_json: dict, bits: int, origin: int
) -> Outcome:
    """The generate subcommand's library call, plus a probe of its BitSeq check."""
    with rec.span("gf2.spec_validate", request, probe=True):
        spec = GeneratorSpec.from_json(spec_json)
    generate = ccsg_generate if spec.taps else shrink_generate
    with rec.span("generators.prefix", request):
        out = generate(spec, origin + bits)
    with rec.span("engines.bitseq", request, probe=True):
        BitSeq(out.bits)
    return Outcome({"bits": out.bits, "origin": origin}, {"generators.prefix_bits": origin + bits})
