"""In-memory spans around the program's public functions.

The benchmark wraps each name as the calling module sees it (for example
``g2sum.enumerator.matching_condition`` or ``g2sum.cli.enumerate_emb``),
so the program itself is not edited.  A span is
``[name, start_ns, end_ns, parent_index]``; counters that a ratio needs
(distinct inputs, certificate rules, rows loaded) are updated by the same
wrapper.  ``self_times`` subtracts the part of a span covered by its
children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


class Tracer:
    """Spans and counters of one process; ``patch`` installs, ``unpatch`` restores."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, observe: Callable | None = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, Counter, dict]:
        """Hand over everything recorded since the last call and start afresh."""
        spans, counts, distinct = list(self.spans), self.counts, self.distinct
        self.spans.clear()
        self.counts = Counter()
        self.distinct = defaultdict(set)
        return spans, counts, distinct


def _count_block(tracer: Tracer, args: tuple, _result) -> None:
    tracer.counts["building_blocks.calls"] += 1
    tracer.distinct["building_blocks"].add(args)


def _count_certificate(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["embedding.certificates"] += 1
    tracer.counts["embedding.rule." + result.verdict_a.rule] += 1
    # A certificate reads only these fields of each block, so pairs that
    # agree on them need one certificate between them.
    tracer.distinct["embedding"].add(tuple((b.rank, b.l_bound, b.triple) for b in args))


def _count_glue(tracer: Tracer, _args: tuple, _result) -> None:
    tracer.counts["enumerator.glue_calls"] += 1


def _count_records(tracer: Tracer, _args: tuple, result) -> None:
    tracer.counts["enumerator.records"] += len(result)


def _count_rows(tracer: Tracer, _args: tuple, result) -> None:
    if result is not None:
        tracer.counts["catalog.rows"] += len(result)


def install_cli(tracer: Tracer) -> None:
    """Wrap every layer boundary that a CLI command crosses."""
    import g2sum.cli as cli
    import g2sum.enumerator as enumerator

    tracer.patch(cli, "main", "cli.main")
    for attr in ("load_nikulin", "load_fano", "load_joyce"):
        tracer.patch(cli, attr, "catalog." + attr, _count_rows)
    for attr in ("enumerate_emb", "enumerate_mirror", "enumerate_seq", "enumerate_large_rank"):
        tracer.patch(cli, attr, "enumerator." + attr, _count_records)
    for attr in ("distinct_betti", "count_matched_pairs", "compare_joyce"):
        tracer.patch(cli, attr, "enumerator." + attr)
    tracer.patch(cli, "euler_crosscheck", "building_blocks.euler_crosscheck")
    for attr in ("fano_block", "involution_block", "quartic_blowup_block"):
        tracer.patch(enumerator, attr, "building_blocks." + attr, _count_block)
    tracer.patch(enumerator, "matching_condition", "embedding.matching_condition", _count_certificate)
    tracer.patch(enumerator, "glue_betti", "enumerator.glue_betti", _count_glue)
    tracer.patch(enumerator, "mirror_pairs", "catalog.mirror_pairs")


LATTICE_PRIMITIVES = ("signature", "determinant", "smith_normal_form", "discriminant")


def install_lattice(tracer: Tracer) -> None:
    """Wrap the engine calls of one lattice analysis, including nested ones."""
    import g2sum.lattice_core as lattice_core

    tracer.patch(lattice_core, "parse_lattice_expr", "lattice_core.parse")
    for attr in LATTICE_PRIMITIVES:
        tracer.patch(lattice_core.IntLattice, attr, "lattice_core." + attr)
