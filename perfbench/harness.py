"""Closed-loop execution of a workload's ops, with failure accounting.

One caller, one thread: each call starts only after the previous one has
returned. An op is one `bago answer` invocation without process start-up,
answered three ways, each from freshly parsed text so that no path inherits
entailment caches that another path warmed:

  parse -> certain_answers(via="chase")           phase answer_chase
  parse -> certain_answers(via="rewrite")         phase answer_rewrite
  parse -> rewrite()                              phase compile
           evaluate_rewriting() over that parse   phase eval_rewriting

Every parse is one sample of phase setup. A call's time is the CPU time of
this process while it runs (the engine is single-threaded and does no I/O),
not its wall time: on a virtual machine the hypervisor may hand the CPU to
another guest in the middle of a call, and that stolen time is neither the
program's work nor the same from run to run. Wall times are kept beside the
CPU times for the detail record. Each timed call runs under the
workload's time limit; a call that raises (RecursionError included) or
overruns fails, and is charged the limit in place of its elapsed time, so
fixing a failure never reads as a slowdown. The three answer bags of an op
must be equal tuple by tuple, and equal to that op's bags in every earlier
repetition; anything else raises Mismatch.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from bago import (
    BagOntology,
    certain_answers,
    evaluate_rewriting,
    parse_abox,
    parse_cq,
    parse_tbox,
    rewrite,
)

PHASES = ("setup", "answer_chase", "answer_rewrite", "compile", "eval_rewriting")
PARSES_PER_OP = 3


class CallTimeout(Exception):
    pass


class Mismatch(Exception):
    """The answer paths disagree: a correctness failure, never a timing one."""


@contextmanager
def time_limit(seconds: float):
    """Raise CallTimeout in this (main) thread once `seconds` have passed."""

    def expire(signum, frame):
        raise CallTimeout(f"exceeded the {seconds} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def charged(elapsed: float, failed: bool, limit: float) -> float:
    """Time a call counts for: its elapsed time, or the limit if it failed."""
    return limit if failed else elapsed


@dataclass
class Api:
    """The public functions the benchmark calls; the traced run wraps them."""

    parse_tbox: object = parse_tbox
    parse_abox: object = parse_abox
    parse_cq: object = parse_cq
    certain_answers: object = certain_answers
    rewrite: object = rewrite
    evaluate_rewriting: object = evaluate_rewriting


@dataclass
class Failure:
    op: str
    phase: str
    error: str
    message: str
    where: str

    def to_json(self):
        return dict(self.__dict__)


@dataclass
class OpResult:
    name: str
    times: dict[str, list[float]] = field(default_factory=dict)
    wall: dict[str, list[float]] = field(default_factory=dict)
    bags: dict[str, object] = field(default_factory=dict)
    failures: list[Failure] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def _innermost(exc: BaseException) -> str:
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name if tb is not None else ""


def run_op(api: Api, op, limit: float) -> OpResult:
    res = OpResult(op.name, {p: [] for p in PHASES}, {p: [] for p in PHASES})

    def call(phase, fn):
        # Start every call from a collected heap, so that a collection owed to
        # an earlier call's garbage never lands inside this one's timing.
        gc.collect()
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with time_limit(limit):
                out = fn()
        except Exception as exc:  # per call: record, charge, keep going
            res.failures.append(
                Failure(op.name, phase, type(exc).__name__, str(exc)[:200], _innermost(exc))
            )
            out, failed = None, True
        else:
            failed = False
        res.times[phase].append(charged(time.process_time() - cpu, failed, limit))
        res.wall[phase].append(charged(time.perf_counter() - start, failed, limit))
        return out

    def parse():
        return call("setup", lambda: (
            api.parse_tbox(op.tbox), api.parse_abox(op.abox), api.parse_cq(op.query)
        ))

    def skip(phase, why):
        res.failures.append(Failure(op.name, phase, "NotRun", why, ""))
        res.times[phase].append(charged(0.0, True, limit))
        res.wall[phase].append(charged(0.0, True, limit))

    for phase, via in (("answer_chase", "chase"), ("answer_rewrite", "rewrite")):
        inputs = parse()
        if inputs is None:
            skip(phase, "inputs failed to parse")
            continue
        tbox, abox, q = inputs
        res.bags[phase] = call(
            phase, lambda: api.certain_answers(q, BagOntology(tbox, abox), via=via)
        )

    inputs = parse()
    if inputs is None:
        skip("compile", "inputs failed to parse")
        skip("eval_rewriting", "inputs failed to parse")
    else:
        tbox, abox, q = inputs
        rw = call("compile", lambda: api.rewrite(q, tbox))
        if rw is None:
            skip("eval_rewriting", "compile failed")
        else:
            res.bags["eval_rewriting"] = call(
                "eval_rewriting", lambda: api.evaluate_rewriting(rw, abox)
            )
    res.bags = {p: b for p, b in res.bags.items() if b is not None}
    return res


def first_difference(a, b) -> str:
    if a.arity != b.arity:
        return f"arity {a.arity} vs {b.arity}"
    for tup in sorted(a.support() | b.support()):
        if a.get(tup) != b.get(tup):
            return f"({','.join(tup)}): {a.get(tup)} vs {b.get(tup)}"
    return ""


def check_op(res: OpResult, reference: dict) -> None:
    """All bags of an op agree with each other and with earlier repetitions."""
    for phase, bag in res.bags.items():
        ref_phase, ref = reference.setdefault(res.name, (phase, bag))
        if bag != ref:
            raise Mismatch(
                f"op {res.name}: {phase} and {ref_phase} differ at "
                f"{first_difference(ref, bag)}"
            )


@dataclass
class Rep:
    """One repetition of the whole batch."""

    ops: list[OpResult]

    def total(self, phase: str, sample: int = 0, clock: str = "times") -> float:
        return sum(getattr(r, clock)[phase][sample] for r in self.ops)


def run_batches(api: Api, workload, seconds: float, min_reps: int, reference: dict,
                on_op=None) -> list[Rep]:
    """Repeat the batch until `seconds` have passed and `min_reps` are done."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        results = []
        for op in workload.ops:
            if on_op is not None:
                on_op(len(reps), op)
            res = run_op(api, op, workload.limit_s)
            check_op(res, reference)
            # Only the reference bags stay alive: bags piling up over the
            # repetitions would inflate peak RSS and the collector's work.
            res.bags = {}
            results.append(res)
        reps.append(Rep(results))
    return reps


def phase_samples(reps: list[Rep], phase: str, clock: str = "times") -> list[float]:
    """Batch totals of a phase: one per repetition, PARSES_PER_OP for setup.

    `clock` is "times" for CPU times or "wall" for wall times.
    """
    per_rep = PARSES_PER_OP if phase == "setup" else 1
    return [rep.total(phase, j, clock) for rep in reps for j in range(per_rep)]


def summary(samples: list[float]) -> dict:
    """Median, quartiles, sample count and the highest supported percentile.

    A percentile is supported when at least ten samples lie beyond it.
    """
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        pct = int(100 * (n - 10) / n)
        out["top_percentile"] = pct
        out["top_value"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out
