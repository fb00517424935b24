"""Workload protocol shared by the benchmark workloads.

A run measures one fixed *pass*: a list of at least 100 ops whose
content is the same for every seed.  The seed orders the ops and makes
the choices that do not change the amount of work (which popular test
point a cache hit asks for).  The runner *replays* the pass until the
run's time is up, restoring the workload's starting state before each
replay (:meth:`Workload.reset`), so every replay does the same work and
each op position is timed several times, minutes apart at most.

An op's latency is the fastest of its replays.  The host this benchmark
was built on alternates between full speed and about 1.65x slower in
stretches of 0.1-0.6 s, and the slow share drifts over tens of seconds;
an op that ran slow in one replay usually ran at full speed in another,
so the fastest replay measures the program rather than the neighbours
(see README.md, "Noise").  When ops are independent
(:attr:`Workload.independent_ops`), the runner spends the host's fast
moments on the positions that have not yet run in one.

Inputs are drawn from a finite universe per workload, and the reference
files under ``perfbench/refs/`` hold the expected verdicts of that whole
universe, so every execution of every op is checked.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFS_DIR = Path(__file__).resolve().parent / "refs"


@dataclass
class Op:
    """One unit of measured work."""

    kind: str
    key: tuple
    args: dict = field(default_factory=dict)


@dataclass
class OpResult:
    """Outcome of one executed op."""

    op: Op
    op_id: int
    latency_s: float
    output: object = None
    error: str = ""


@dataclass
class Verdict:
    """Correctness of one op against the reference."""

    ok: bool
    detail: str = ""
    drift: float = 0.0


#: Seed of the fixed choices that set a pass's content.  Deliberately
#: not the run's seed: every seed measures the same work.
CONTENT_SEED = 1997


def op_span(tracer, op_id: int):
    """The op's span when tracing, a no-op context otherwise."""
    return (tracer.span("op", op_id) if tracer is not None
            else contextlib.nullcontext())


def grid(lower: float, upper: float, n: int) -> tuple[float, ...]:
    """*n* cell-centred points spanning ``[lower, upper]``."""
    return tuple(lower + (k + 0.5) / n * (upper - lower) for k in range(n))


def split(items: Sequence, n: int) -> list[list]:
    """*items* cut into *n* contiguous groups whose sizes differ by at
    most one."""
    items = list(items)
    n = min(n, len(items))
    bounds = [round(k * len(items) / n) for k in range(n + 1)]
    return [items[bounds[k]:bounds[k + 1]] for k in range(n)]


def load_reference(name: str) -> dict:
    """The committed reference file of workload *name*."""
    with open(REFS_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def close_enough(value: float, expected: float, *, rel: float,
                 abs_: float) -> bool:
    """``|value - expected| <= abs_ + rel * |expected|`` (inf-safe)."""
    if value == expected:
        return True
    return abs(value - expected) <= abs_ + rel * abs(expected)


class Workload:
    """Base class: seeded pass, set-up, execution and checking."""

    name = "base"
    #: Replays a traced run executes (fixed, so counters repeat exactly).
    trace_replays = 1
    #: True when the work of each block of :meth:`units` does not depend
    #: on the blocks before it, so a timed run may run the blocks in any
    #: order and any number of times (``run.measure_independent``).
    independent_ops = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self) -> np.random.Generator:
        """Generator of this run's seeded choices."""
        return np.random.default_rng(self.seed)

    def parameters(self) -> dict:
        """Workload parameters stamped into the run's provenance."""
        return {}

    def setup(self):
        """Build everything the ops need; no solver work."""
        raise NotImplementedError

    def pass_ops(self, state) -> list[Op]:
        """The run's pass: fixed content, in the seed's order."""
        raise NotImplementedError

    def units(self, ops: list[Op]) -> list[list[int]]:
        """Blocks of positions that depend on no other block, in pass
        order: a run of independent ops may run a block at any time,
        its positions in order.  Every op alone by default."""
        return [[i] for i in range(len(ops))]

    def warm_up(self, state, ops: list[Op]) -> None:
        """Untimed work after set-up that fills caches users keep warm."""

    def reset(self, state) -> None:
        """Restore the state every replay of the pass starts from."""

    def execute(self, state, op: Op):
        raise NotImplementedError

    def run_pass(self, state, ops: list[Op], first_id: int,
                 tracer=None, deadline=None) -> list[OpResult]:
        """Execute *ops* serially, one closed-loop caller, stopping early
        once :func:`time.perf_counter` passes *deadline*."""
        results = []
        for offset, op in enumerate(ops):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            op_id = first_id + offset
            with op_span(tracer, op_id):
                start = time.perf_counter()
                try:
                    output, error = self.execute(state, op), ""
                except Exception as exc:  # a raising op counts as failed
                    output, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - start
            results.append(OpResult(op, op_id, latency, output, error))
        return results

    def pass_seconds(self, latencies: list[float]) -> float:
        """Duration of one replay whose ops take *latencies*, in pass
        order: one closed-loop caller runs them back to back."""
        return sum(latencies)

    def check(self, result: OpResult, reference: dict) -> Verdict:
        raise NotImplementedError

    def counters(self, state, tracer, results: list[OpResult]) -> dict:
        """Workload-specific layer counters of a traced pass."""
        return {}

    def close(self, state) -> None:
        """Release what :meth:`setup` acquired."""
