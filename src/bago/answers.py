"""Certain-answer entry points and the dual-execution cross-check harness.

Certain answers of a rooted query over a satisfiable core ontology reduce to
evaluating the query over the chase at a depth equal to its atom count. The
chase path builds only what the query can reach of that stage
(`chase(k, depth, query=q)`): witnesses down to the query's largest distance
from a root, along the roles it names, with the concepts it names, and one
copy of each run per role atom. The rewriting path compiles the query
against the TBox alone and evaluates the result over the bare ABox; both
paths must produce the same bag, and the cross-check harness compares them
tuple by tuple.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    RESOURCE_LIMITS,
    CrosscheckMismatch,
    NotRooted,
    UnsatisfiableOntology,
    UnsupportedTBoxKind,
)
from .ontology import CORE, BagOntology, is_satisfiable
from .chase import chase, required_depth
from .bagalg import AnswerBag, eval_cq
from .query import CQ, is_rooted
from .randgen import random_instance
from .rewrite import evaluate_rewriting, rewrite

VIA_CHASE = "chase"
VIA_REWRITE = "rewrite"
VIA_BOTH = "both"


def _validate(q: CQ, k: BagOntology):
    """The checks of every answer but satisfiability, which each run makes
    once: `chase` makes it, and the rewriting path alone calls
    `_check_satisfiable`."""
    if k.tbox.kind != CORE:
        raise UnsupportedTBoxKind("certain answers are supported for core TBoxes only")
    if not is_rooted(q):
        raise NotRooted("certain answers are supported for rooted queries only")


def _check_satisfiable(k: BagOntology):
    if not is_satisfiable(k):
        raise UnsatisfiableOntology("the ontology has no bag model")


def _both_paths(q: CQ, k: BagOntology) -> tuple[AnswerBag, AnswerBag]:
    """The answers over the chase and via the rewriting, validated once; the
    chase's satisfiability check serves both paths."""
    _validate(q, k)
    through_chase = eval_cq(q, chase(k, required_depth(q), query=q).counted)
    return through_chase, evaluate_rewriting(rewrite(q, k.tbox), k.abox)


def certain_answers(q: CQ, k: BagOntology, via: str = VIA_CHASE) -> AnswerBag:
    """Bag certain answers, computed over the chase, via the rewriting, or
    both ways, raising `CrosscheckMismatch` where the two differ."""
    if via == VIA_BOTH:
        through_chase, through_rewrite = _both_paths(q, k)
        if through_chase != through_rewrite:
            raise CrosscheckMismatch(_first_difference(through_chase, through_rewrite))
        return through_chase
    _validate(q, k)
    if via == VIA_CHASE:
        return eval_cq(q, chase(k, required_depth(q), query=q).counted)
    if via == VIA_REWRITE:
        _check_satisfiable(k)
        return evaluate_rewriting(rewrite(q, k.tbox), k.abox)
    raise ValueError(f"unknown evaluation path {via!r}")


@dataclass(frozen=True)
class CertRequest:
    query: CQ
    ontology: BagOntology
    tuple: tuple[str, ...]
    threshold: float  # a nonnegative integer or math.inf

    def __post_init__(self):
        if len(self.tuple) != len(self.query.answer_vars):
            raise ValueError(
                f"tuple arity {len(self.tuple)} does not match query arity "
                f"{len(self.query.answer_vars)}"
            )


def bag_cert(r: CertRequest, via: str = VIA_CHASE) -> bool:
    """Does the certain multiplicity of the tuple reach the threshold?

    A threshold of 0 holds trivially; an infinite threshold never holds
    because every computed multiplicity is finite. Either is decided once
    the input is validated, as `certain_answers` validates it otherwise.
    """
    if r.threshold == 0 or math.isinf(r.threshold):
        _validate(r.query, r.ontology)
        _check_satisfiable(r.ontology)
        return r.threshold == 0
    return certain_answers(r.query, r.ontology, via=via).get(r.tuple) >= r.threshold


def _first_difference(chase_bag: AnswerBag, rewrite_bag: AnswerBag) -> str:
    for tup in sorted(chase_bag.support() | rewrite_bag.support()):
        a, b = chase_bag.get(tup), rewrite_bag.get(tup)
        if a != b:
            return f"({','.join(tup)}): chase={a} rewrite={b}"
    return "bags differ"


@dataclass
class CrosscheckOutcome:
    label: str
    passed: bool
    chase_bag: Optional[AnswerBag] = None
    rewrite_bag: Optional[AnswerBag] = None
    detail: str = ""


@dataclass
class CrosscheckReport:
    outcomes: list[CrosscheckOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.passed)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    def summary(self) -> str:
        return f"{self.passed}/{self.total} PASS"


def crosscheck_one(tbox, abox, q: CQ, label: str = "instance") -> CrosscheckOutcome:
    """Run both evaluation paths on one instance and compare exactly.

    An error on either path propagates, as it would from `certain_answers`.
    """
    via_chase, via_rewrite = _both_paths(q, BagOntology(tbox, abox))
    if via_chase == via_rewrite:
        return CrosscheckOutcome(label, True, via_chase, via_rewrite)
    return CrosscheckOutcome(
        label, False, via_chase, via_rewrite,
        detail=_first_difference(via_chase, via_rewrite),
    )


def crosscheck_random(trials: int, seed: int) -> CrosscheckReport:
    """Seeded batch of random instances, each checked on both paths."""
    rng = random.Random(seed)
    report = CrosscheckReport()
    for i in range(trials):
        tbox, abox, q = random_instance(rng)
        try:
            outcome = crosscheck_one(tbox, abox, q, label=f"instance {i}")
        except RESOURCE_LIMITS:
            raise  # a resource limit is not a failed comparison; the CLI exits 5
        except Exception as exc:  # per instance: report, do not abort the batch
            outcome = CrosscheckOutcome(f"instance {i}", False, detail=f"error: {exc}")
        report.outcomes.append(outcome)
    return report
