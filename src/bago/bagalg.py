"""Bag evaluation semantics.

Answers to a query over a bag interpretation form an AnswerBag: a finite map
from tuples of individual names to positive multiplicities. A conjunctive
query contributes, for every valuation of its variables that satisfies the
equalities (and, where present, inequalities), the product of the extension
multiplicities of its atom images, each repeated atom counted separately, as
in bag relational algebra. Answer tuples range over named elements only;
existential variables may pass through anonymous elements.

A conjunctive query is compiled against the interpretation before it runs.
Each equality class gets one integer slot in a flat list; a class pinned to
an individual starts filled with its name. The atoms are ordered connected
first, atoms over answer variables first, and each becomes a step that
either binds one new slot from a row (a concept's extension, a role's
successors or predecessors of a bound end, or the elements that have a row;
for a slot of names only, the individuals that have one when they are fewer)
or multiplies by one entry when all its slots are bound; atoms over
individuals alone are read once at compile time. Kind restrictions (named,
anonymous) and inequalities filter where their slots are bound. The steps up
to the last one binding an answer variable enumerate answer tuples. The
rest of the query splits into components that share no later slot, and each
component returns one sum per answer binding (summed once when it reads no
answer binding) instead of every valuation being emitted: the sum-product
of the N-semiring (Green, Karvounarakis and Tannen), with every sum and
product checked. Each level of the walk is an iterator on an explicit
stack, so a query of any length runs without recursion.

Bag-algebra queries are evaluated over relations of individual names: one
bag of name tuples per (predicate, arity), read straight from a BagABox (or
from the named part of a BagInterpretation). These are the N-semiring
relations of Green, Karvounarakis and Tannen. Evaluation is structural
recursion: atoms select and rename their relation's tuples, joins multiply on
shared variables, equality filters zero out mismatches (or append a pinned
column for a fresh variable), projections sum out columns, and the three bag
unions / difference act pointwise through `errors.combine`. The four binary
nodes share one base class carrying their s-expression tag and combine op.
Every node carries its answer-variable list; the variable side conditions are
checked at construction time and violations raise IllFormedQuery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import ClassVar, Iterable, Mapping, NamedTuple, Optional, Union

from .errors import (ArityMismatch, IllFormedQuery, ParseError, checked_add, checked_mul,
                     checked_sum, combine)
from .ontology import BagABox, ConceptAssertion, check_individual, check_name
from .chase import Anon, BagInterpretation, ChaseResult
from .query import CQ, ConceptAtom, Const, InequalityAtom, RoleAtom, Term, Var


class AnswerBag:
    """A finite bag of answer tuples; zero entries are never stored."""

    def __init__(self, arity: int, entries: Mapping[tuple[str, ...], int] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        self.arity = arity
        store: dict[tuple[str, ...], int] = {}
        for tup, m in items:
            if len(tup) != arity:
                raise ArityMismatch(f"tuple {tup} does not have arity {arity}")
            if m < 0:
                raise ValueError("multiplicities are nonnegative")
            if m:
                store[tuple(tup)] = checked_add(store.get(tuple(tup), 0), m)
        self._entries = store

    def get(self, tup: tuple[str, ...]) -> int:
        return self._entries.get(tuple(tup), 0)

    def items(self):
        return sorted(self._entries.items())

    def support(self):
        return frozenset(self._entries)

    def __len__(self):
        return len(self._entries)

    def __bool__(self):
        return bool(self._entries)

    def __eq__(self, other):
        return (
            isinstance(other, AnswerBag)
            and self.arity == other.arity
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self._entries.items())))

    def __repr__(self):
        inner = ", ".join(f"({','.join(t)})->{m}" for t, m in self.items())
        return f"AnswerBag[{self.arity}]{{{inner}}}"

    def to_text(self) -> str:
        if not self._entries:
            return "EMPTY\n"
        return "".join(f"({','.join(tup)}) {m}\n" for tup, m in self.items())


def bag_ops(op: str, b1: AnswerBag, b2: AnswerBag) -> AnswerBag:
    """Dispatch on op in {intersection, max-union, arith-union, difference}."""
    if b1.arity != b2.arity:
        raise ArityMismatch(f"arity {b1.arity} vs {b2.arity}")
    return AnswerBag(b1.arity, combine(op, b1._entries, b2._entries))


def bag_intersect(b1: AnswerBag, b2: AnswerBag) -> AnswerBag:
    return bag_ops("intersection", b1, b2)


def bag_max_union(b1: AnswerBag, b2: AnswerBag) -> AnswerBag:
    return bag_ops("max-union", b1, b2)


def bag_arith_union(b1: AnswerBag, b2: AnswerBag) -> AnswerBag:
    return bag_ops("arith-union", b1, b2)


def bag_diff(b1: AnswerBag, b2: AnswerBag) -> AnswerBag:
    return bag_ops("difference", b1, b2)


def parse_answer_tuple(text: str) -> tuple[str, ...]:
    """Parse "(Lee,Hill)" / "()" into a tuple of individual names."""
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ParseError(f"expected a parenthesized tuple, got {text!r}")
    inner = stripped[1:-1].strip()
    if not inner:
        return ()
    names = tuple(part.strip() for part in inner.split(","))
    for name in names:
        check_individual(name)
    return names


# -- conjunctive query evaluation --------------------------------------------

# Kinds a variable may range over, as the type its elements must have.
NAMED_ONLY = str
ANON_ONLY = Anon
ANY_ELEMENT = object


class _CompiledQuery:
    """Equality classes resolved to slots, one per class.

    A class holding an individual gets a slot filled with its name. Any other
    class gets an empty slot, whose kind `named` (True for names only, False
    for witnesses only, None for either) is the one its variables agree on.
    A class with two individuals, with an individual and an anonymous-only
    variable, or with two kinds makes the query `empty`.
    """

    def __init__(self, q: CQ, kinds: Mapping[Var, type]):
        self.slot_of: dict[Term, int] = {}
        self.slots: list = []
        self.named: list = []
        self.empty = False
        for j, cls in enumerate(q.equality_classes().classes()):
            name, kind = None, ANY_ELEMENT
            for t in cls:
                self.slot_of[t] = j
                if type(t) is Const:
                    self.empty |= name is not None or kind is ANON_ONLY
                    name = t.name
                else:
                    wanted = kinds.get(t, ANY_ELEMENT)
                    if wanted is not ANY_ELEMENT:
                        self.empty |= kind not in (ANY_ELEMENT, wanted)
                        self.empty |= wanted is ANON_ONLY and name is not None
                        kind = wanted
            self.slots.append(name)
            self.named.append(None if name is not None or kind is ANY_ELEMENT
                              else kind is NAMED_ONLY)


class _Plan(NamedTuple):
    """A CQ compiled against one interpretation.

    `slots` holds one slot per representative variable and one per
    individual, filled with its name. `prefix` binds every answer variable
    (the slots in `answer`); each of its bindings is weighted by `factor`, the
    atoms over individuals alone, and by the sum of every component of the
    rest of the query. The `independent` components read no prefix slot, so
    they are summed once; the `dependent` ones are summed per binding.
    """

    slots: list
    factor: int
    prefix: tuple
    dependent: list
    independent: list
    answer: list


# A step reads `index` itself when `via` is -1, else the row `index[slots[via]]`.
# An extend step [index, via, out, named, neqs, checks] binds slot `out` to each
# element of its row that has the slot's kind (`named`: True for a name, False
# for a witness, None for either) and differs from the slots in `neqs`; its
# weight is the element's multiplicity times the entries of its `checks`. A
# check step (index, via, at) is its row's entry at slots[at]. A level is an
# extend step with the checks that follow it, and a component is the checks
# before its first level together with its levels.
_EMPTY: dict = {}


def _row(index, via, slots):
    return index if via < 0 else index.get(slots[via], _EMPTY)


def _check(check, slots) -> int:
    index, via, at = check
    return _row(index, via, slots).get(slots[at], 0)


def _weigh(head, slots, weight: int) -> int:
    for check in head:
        weight = checked_mul(weight, _check(check, slots))
    return weight


def _weights(level, slots):
    """The weight of each element of the level's row that passes its filters,
    yielded while the level's slot is bound to it."""
    index, via, out, named, neqs, checks = level
    for el, m in _row(index, via, slots).items():
        if named is not None and (type(el) is str) is not named:
            continue
        if neqs and any(slots[j] == el for j in neqs):
            continue
        slots[out] = el
        for check in checks:
            m = checked_mul(m, _check(check, slots))
            if not m:
                break
        else:
            yield m


def _bindings(levels, slots, weight: int):
    """The weight of every binding of the levels' slots, yielded while it is in
    `slots`: one iterator per level on an explicit stack, no recursion."""
    if not levels:
        yield weight
        return
    stack = [(_weights(levels[0], slots), weight)]
    while stack:
        weights, w = stack[-1]
        for m in weights:
            m = checked_mul(w, m)
            if len(stack) == len(levels):
                yield m
            else:
                stack.append((_weights(levels[len(stack)], slots), m))
                break
        else:
            stack.pop()


def _level_sum(level, slots) -> int:
    index, via, _, named, neqs, checks = level
    if named is None and not neqs and not checks:  # a bare row sums in one call
        return checked_sum(_row(index, via, slots).values())
    return checked_sum(_weights(level, slots))


def _sum(component, slots) -> int:
    """The sum over the component's bindings of the product of their weights."""
    head, levels = component
    weight = _weigh(head, slots, 1)
    if not weight or not levels:
        return weight
    total = 0
    for w in _bindings(levels[:-1], slots, weight):
        total = checked_add(total, checked_mul(w, _level_sum(levels[-1], slots)))
    return total


def _order(free: list[set[int]], preferred: set[int], sizes: list[int]) -> list[int]:
    """Atom indices, connected first: each atom shares a slot with those before
    it while any does, atoms over answer slots first, then smaller extensions."""
    key = [(not (slots & preferred), sizes[i], i) for i, slots in enumerate(free)]
    by_slot: dict[int, list[int]] = {}
    ready = []
    for i, slots in enumerate(free):
        for j in slots:
            by_slot.setdefault(j, []).append(i)
        if not slots:
            ready.append(key[i])
    heapify(ready)
    starts = sorted(key, reverse=True)
    placed, order = [False] * len(free), []
    while len(order) < len(free):
        i = heappop(ready)[2] if ready else starts.pop()[2]
        if placed[i]:
            continue
        placed[i] = True
        order.append(i)
        for j in free[i]:
            for a in by_slot.pop(j, ()):  # a slot's atoms become ready once
                if not placed[a]:
                    heappush(ready, key[a])
    return order


def _reads(step) -> tuple:
    """The slots a step reads: its row's, its checked entry's, its inequalities'."""
    return (step[1], step[2]) if type(step) is tuple else (step[1], *step[4])


def _levels(steps) -> tuple:
    """Steps grouped as a component: leading checks, then levels."""
    head, levels = [], []
    for step in steps:
        if type(step) is tuple:
            (levels[-1][5] if levels else head).append(step)
        else:
            levels.append(step)
    return head, levels


def _compile(q: CQ, interp: BagInterpretation, compiled: _CompiledQuery) -> Optional[_Plan]:
    """q's plan over interp, or None when atoms or inequalities over
    individuals alone already make the answer empty."""
    slots, named, slot_of = compiled.slots, compiled.named, compiled.slot_of
    consts = {j for j, name in enumerate(slots) if name is not None}
    answer = [slot_of[v] for v in q.answer_vars]
    atoms, sizes, neqs = [], [], []  # atoms as (predicate, is a role, slots)
    for a in q.atoms:
        if isinstance(a, ConceptAtom):
            atoms.append((a.concept, False, (slot_of[a.term],)))
            sizes.append(len(interp.concepts.get(a.concept, _EMPTY)))
        elif isinstance(a, RoleAtom):
            atoms.append((a.role, True, (slot_of[a.subject], slot_of[a.object])))
            sizes.append(interp.edge_count(a.role))
        elif isinstance(a, InequalityAtom):
            neqs.append((slot_of[a.left], slot_of[a.right]))

    bound, bind_step, steps = set(consts), {}, []
    factor = 1

    def extend(index, via, out):
        kind = named[out]
        if via < 0 or via in consts:  # a row fixed at compile time is filtered now
            index = _row(index, via, slots)
            if kind is not None:
                index = {el: m for el, m in index.items() if (type(el) is str) is kind}
            via, kind = -1, None
        bind_step[out] = len(steps)
        bound.add(out)
        steps.append([index, via, out, kind, [], []])

    def check(index, via, at):
        nonlocal factor
        if via < 0 or via in consts:
            if at in consts:
                factor = checked_mul(factor, _check((index, via, at), slots))
                return
            index, via = _row(index, via, slots), -1
        steps.append((index, via, at))

    free = [set(terms) - consts for *_, terms in atoms]
    for i in _order(free, set(answer) - consts, sizes):
        predicate, is_role, terms = atoms[i]
        if not is_role:
            ext = interp.concepts.get(predicate, _EMPTY)
            (check if terms[0] in bound else extend)(ext, -1, terms[0])
            continue
        # The predecessor rows are fetched only where a step binds through them.
        s, o = terms
        if s in bound:
            (check if o in bound else extend)(interp.rows(predicate), s, o)
        elif o in bound:
            extend(interp.rows(predicate, True), o, s)
        elif s == o:  # a self-loop atom binds one slot
            rows = interp.rows(predicate)
            extend({u: m for u, row in rows.items() if (m := row.get(u))}, -1, s)
        else:  # the answer end first, over the elements that have a row
            inverted = o in answer and s not in answer
            if inverted:
                s, o = o, s
            rows = interp.rows(predicate, inverted)
            names = interp.names
            # A slot of names only starts from the individuals when they are
            # fewer: a chase's rows are mostly its witnesses'.
            if named[s] and len(names) < len(rows):
                extend({u: 1 for u in names if u in rows}, -1, s)
            else:
                extend(dict.fromkeys(rows, 1), -1, s)
            extend(rows, s, o)
    if not factor:
        return None
    # An inequality filters where its later slot is bound; between two
    # names it holds, and x != x never does.
    for x, y in neqs:
        if x == y:
            return None
        if x not in consts or y not in consts:
            if bind_step.get(x, -1) < bind_step.get(y, -1):
                x, y = y, x
            steps[bind_step[x]][4].append(y)

    cut = max((bind_step[j] + 1 for j in answer if j in bind_step), default=0)
    prefix_slots = {j for j, k in bind_step.items() if k < cut}
    # The rest splits into components that share no slot bound after the cut;
    # each step joins the components of the slots it reads, or starts one.
    comp: list[int] = []
    for k, step in enumerate(steps[cut:]):
        linked = {comp[bind_step[j] - cut] for j in _reads(step) if bind_step.get(j, -1) >= cut}
        c = min(linked, default=k)
        if len(linked) > 1:
            comp = [c if x in linked else x for x in comp]
        comp.append(c)
    groups: dict[int, list] = {}
    for c, step in zip(comp, steps[cut:]):
        groups.setdefault(c, []).append(step)
    dependent, independent = [], []
    for group in groups.values():
        reads_prefix = any(j in prefix_slots for step in group for j in _reads(step))
        (dependent if reads_prefix else independent).append(_levels(group))
    return _Plan(slots, factor, _levels(steps[:cut]), dependent, independent, answer)


def _eval_resolved(q, interp, compiled):
    """Sum of per-valuation products, grouped by the answer tuple."""
    arity = len(q.answer_vars)
    plan = None if compiled.empty else _compile(q, interp, compiled)
    if plan is None:
        return AnswerBag(arity)
    slots = plan.slots
    head, levels = plan.prefix
    weight = _weigh(head, slots, plan.factor)
    for component in plan.independent:
        if not weight:
            break
        weight = checked_mul(weight, _sum(component, slots))
    answers: dict[tuple[str, ...], int] = {}
    if weight:
        for w in _bindings(levels, slots, weight):
            for component in plan.dependent:
                w = checked_mul(w, _sum(component, slots))
                if not w:
                    break
            else:
                # Answer slots hold names only (their kind is NAMED_ONLY).
                key = tuple(slots[j] for j in plan.answer)
                answers[key] = checked_add(answers.get(key, 0), w)
    return AnswerBag(arity, answers)


def eval_cq(q: CQ, i: BagInterpretation) -> AnswerBag:
    """Bag answers: sum over valuations of the product of atom multiplicities."""
    kinds = {v: NAMED_ONLY for v in q.answer_vars}
    return _eval_resolved(q, i, _CompiledQuery(q, kinds))


def eval_cq_neq(q: CQ, i: BagInterpretation) -> AnswerBag:
    """As eval_cq; inequality atoms additionally discard violating valuations."""
    return eval_cq(q, i)


def eval_partitioned(q: CQ, z: Iterable[Var], result: ChaseResult) -> AnswerBag:
    """Answers restricted to valuations sending exactly z to anonymous elements."""
    zset = set(z)
    existential = set(q.existential_vars())
    if not zset <= existential:
        raise ValueError("z must be a subset of the existential variables")
    kinds = {v: NAMED_ONLY for v in q.answer_vars}
    for v in existential:
        kinds[v] = ANON_ONLY if v in zset else NAMED_ONLY
    compiled = _CompiledQuery(q, kinds)
    return _eval_resolved(q, result.union, compiled)


# -- bag-algebra queries ------------------------------------------------------

def _merge_vars(*groups):
    seen: dict[Var, None] = {}
    for group in groups:
        for v in group:
            seen.setdefault(v, None)
    return tuple(seen)


@dataclass(frozen=True)
class BalgAtom:
    predicate: str
    terms: tuple[Term, ...]
    answer_vars: tuple[Var, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if len(self.terms) not in (1, 2):
            raise IllFormedQuery("atoms are unary (concepts) or binary (roles)")
        object.__setattr__(
            self, "answer_vars",
            _merge_vars([t for t in self.terms if isinstance(t, Var)]),
        )


@dataclass(frozen=True)
class BalgEqFilter:
    child: "BALGQuery"
    var: Var
    term: Term
    answer_vars: tuple[Var, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if self.var not in self.child.answer_vars:
            raise IllFormedQuery(
                f"equality filter variable {self.var} is not answered by the operand"
            )
        extra = (self.term,) if isinstance(self.term, Var) else ()
        object.__setattr__(
            self, "answer_vars", _merge_vars(self.child.answer_vars, extra)
        )


@dataclass(frozen=True)
class BalgProject:
    projected: tuple[Var, ...]
    child: "BALGQuery"
    answer_vars: tuple[Var, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if len(set(self.projected)) != len(self.projected):
            raise IllFormedQuery("projected variables must be distinct")
        child_vars = set(self.child.answer_vars)
        for v in self.projected:
            if v not in child_vars:
                raise IllFormedQuery(f"cannot project away unanswered variable {v}")
        object.__setattr__(
            self, "answer_vars",
            tuple(v for v in self.child.answer_vars if v not in set(self.projected)),
        )


@dataclass(frozen=True)
class BalgBinary:
    """Two operands; unions and difference need equal answer variables, joins merge them."""

    left: "BALGQuery"
    right: "BALGQuery"
    answer_vars: tuple[Var, ...] = field(init=False, compare=False)
    tag: ClassVar[str]  # s-expression head
    combine: ClassVar[Optional[str]]  # the errors.combine op applied pointwise

    def __post_init__(self):
        if set(self.left.answer_vars) != set(self.right.answer_vars):
            raise IllFormedQuery(f"{self.tag} requires identical answer variables")
        object.__setattr__(self, "answer_vars", self.left.answer_vars)


class BalgJoin(BalgBinary):
    tag, combine = "join", None  # multiplies on the shared variables instead

    def __post_init__(self):
        object.__setattr__(
            self, "answer_vars",
            _merge_vars(self.left.answer_vars, self.right.answer_vars),
        )


class BalgMaxUnion(BalgBinary):
    tag, combine = "max-union", "max-union"


class BalgArithUnion(BalgBinary):
    tag, combine = "arith-union", "arith-union"


class BalgDiff(BalgBinary):
    tag, combine = "diff", "difference"


_BINARY_BY_TAG = {cls.tag: cls for cls in (BalgJoin, BalgMaxUnion, BalgArithUnion, BalgDiff)}


BALGQuery = Union[
    BalgAtom, BalgJoin, BalgEqFilter, BalgProject,
    BalgMaxUnion, BalgArithUnion, BalgDiff,
]


# (predicate, arity) -> bag of name tuples; a name can be a concept and a role.
Relations = dict[tuple[str, int], dict[tuple[str, ...], int]]


def _relations(source: Union[BagABox, BagInterpretation]) -> Relations:
    """The source as name relations; anonymous elements of an interpretation drop out."""
    rels: Relations = {}
    if isinstance(source, BagABox):
        for a, m in source.entries():
            if isinstance(a, ConceptAssertion):
                rels.setdefault((a.concept, 1), {})[(a.individual,)] = m
            else:
                rels.setdefault((a.role, 2), {})[(a.subject, a.object)] = m
        return rels
    for name, ext in source.concepts.items():
        rels[(name, 1)] = {(el,): m for el, m in ext.items() if type(el) is str}
    for name, ext in source.roles.items():
        rels[(name, 2)] = {pair: m for pair, m in ext.items()
                           if type(pair[0]) is str and type(pair[1]) is str}
    return rels


def eval_balg(q: BALGQuery, source: Union[BagABox, BagInterpretation]) -> AnswerBag:
    """Structural evaluation over the source's name relations.

    Tuple positions follow q.answer_vars.
    """
    return AnswerBag(len(q.answer_vars), _eval_node(q, _relations(source)))


def _eval_node(q, rels: Relations) -> dict[tuple[str, ...], int]:
    if isinstance(q, BalgAtom):
        return _eval_atom(q, rels)
    if isinstance(q, BalgEqFilter):
        return _eval_eqfilter(q, rels)
    if isinstance(q, BalgProject):
        child = _eval_node(q.child, rels)
        keep = [i for i, v in enumerate(q.child.answer_vars)
                if v not in set(q.projected)]
        out: dict[tuple[str, ...], int] = {}
        for tup, m in child.items():
            key = tuple(tup[i] for i in keep)
            out[key] = checked_add(out.get(key, 0), m)
        return out
    if not isinstance(q, BalgBinary):
        raise IllFormedQuery(f"unknown query node {type(q).__name__}")
    left = _eval_node(q.left, rels)
    right = _eval_node(q.right, rels)
    if isinstance(q, BalgJoin):
        return _join(q, left, right)
    perm = [q.right.answer_vars.index(v) for v in q.left.answer_vars]
    remapped = {tuple(tup[i] for i in perm): m for tup, m in right.items()}
    return combine(q.combine, left, remapped)


def _eval_atom(q: BalgAtom, rels: Relations) -> dict[tuple[str, ...], int]:
    """The relation's tuples matching q's constants and repeated variables, by position.

    Kept positions hold each variable's first occurrence; every other position
    is fixed by them, so distinct tuples keep distinct keys.
    """
    consts, repeats, first = [], [], {}
    for i, t in enumerate(q.terms):
        if isinstance(t, Const):
            consts.append((i, t.name))
        elif t in first:
            repeats.append((i, first[t]))
        else:
            first[t] = i
    keep = [first[v] for v in q.answer_vars]
    rel = rels.get((q.predicate, len(q.terms)), {})
    return {tuple(names[i] for i in keep): m for names, m in rel.items()
            if all(names[i] == name for i, name in consts)
            and all(names[i] == names[j] for i, j in repeats)}


def _join(q: BalgJoin, left, right) -> dict[tuple[str, ...], int]:
    lvars, rvars = q.left.answer_vars, q.right.answer_vars
    shared = [v for v in rvars if v in set(lvars)]
    lpos = [lvars.index(v) for v in shared]
    rpos = [rvars.index(v) for v in shared]
    residual = [i for i, v in enumerate(rvars) if v not in set(lvars)]
    index: dict[tuple[str, ...], list[tuple[tuple[str, ...], int]]] = {}
    for tup, m in right.items():
        index.setdefault(tuple(tup[i] for i in rpos), []).append(
            (tuple(tup[i] for i in residual), m)
        )
    out: dict[tuple[str, ...], int] = {}
    for tup, m in left.items():
        for rest, rm in index.get(tuple(tup[i] for i in lpos), ()):
            key = tup + rest
            out[key] = checked_add(out.get(key, 0), checked_mul(m, rm))
    return out


def _eval_eqfilter(q: BalgEqFilter, rels: Relations) -> dict[tuple[str, ...], int]:
    child = _eval_node(q.child, rels)
    pos = q.child.answer_vars.index(q.var)
    if isinstance(q.term, Const):
        return {tup: m for tup, m in child.items() if tup[pos] == q.term.name}
    if q.term in q.child.answer_vars:
        tpos = q.child.answer_vars.index(q.term)
        return {tup: m for tup, m in child.items() if tup[pos] == tup[tpos]}
    return {tup + (tup[pos],): m for tup, m in child.items()}


# -- s-expression form --------------------------------------------------------

def to_sexpr(q: BALGQuery, indent: int = 0) -> str:
    pad = "  " * indent

    def term_str(t: Term) -> str:
        return f'"{t.name}"' if isinstance(t, Const) else t.name

    if isinstance(q, BalgAtom):
        return f"{pad}(atom {q.predicate} {' '.join(term_str(t) for t in q.terms)})"
    if isinstance(q, BalgEqFilter):
        child = to_sexpr(q.child, indent + 1)
        return f"{pad}(eq-filter\n{child}\n{pad}  {q.var.name} {term_str(q.term)})"
    if isinstance(q, BalgProject):
        names = " ".join(v.name for v in q.projected)
        child = to_sexpr(q.child, indent + 1)
        return f"{pad}(project ({names})\n{child})"
    left = to_sexpr(q.left, indent + 1)
    right = to_sexpr(q.right, indent + 1)
    return f"{pad}({q.tag}\n{left}\n{right})"


_SEXPR_TOKEN_RE = re.compile(r'\(|\)|"[^"\n]*"|[^\s()"]+')


def parse_balg(text: str) -> BALGQuery:
    """Parse the s-expression form emitted by to_sexpr."""
    stripped = re.sub(r"#[^\n]*", "", text)
    tokens = _SEXPR_TOKEN_RE.findall(stripped)
    pos = 0

    def next_token():
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of bag-algebra expression")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_term(tok) -> Term:
        if tok.startswith('"') and tok.endswith('"'):
            name = tok[1:-1]
            check_individual(name)
            return Const(name)
        if not re.match(r"[A-Za-z_][A-Za-z0-9_]*\Z", tok):
            raise ParseError(f"invalid term {tok!r}")
        return Var(tok)

    def parse_var(tok, what) -> Var:
        term = parse_term(tok)
        if not isinstance(term, Var):
            raise ParseError(f"{what} expects a variable, found {tok!r}")
        return term

    def parse_node() -> BALGQuery:
        tok = next_token()
        if tok != "(":
            raise ParseError(f"expected '(', found {tok!r}")
        head = next_token()
        if head == "atom":
            pred = check_name(next_token(), "predicate")
            terms = []
            while tokens[pos] != ")":
                terms.append(parse_term(next_token()))
            next_token()
            return BalgAtom(pred, tuple(terms))
        if head == "project":
            if next_token() != "(":
                raise ParseError("expected a variable list after project")
            projected = []
            while tokens[pos] != ")":
                projected.append(parse_var(next_token(), "project"))
            next_token()
            child = parse_node()
            if next_token() != ")":
                raise ParseError("expected ')' to close project")
            return BalgProject(tuple(projected), child)
        if head == "eq-filter":
            child = parse_node()
            var = parse_var(next_token(), "eq-filter")
            term = parse_term(next_token())
            if next_token() != ")":
                raise ParseError("expected ')' to close eq-filter")
            return BalgEqFilter(child, var, term)
        if head in _BINARY_BY_TAG:
            left = parse_node()
            right = parse_node()
            if next_token() != ")":
                raise ParseError(f"expected ')' to close {head}")
            return _BINARY_BY_TAG[head](left, right)
        raise ParseError(f"unknown operator {head!r}")

    try:
        node = parse_node()
    except IndexError:
        raise ParseError("unexpected end of bag-algebra expression") from None
    if pos != len(tokens):
        raise ParseError(f"trailing input after expression: {tokens[pos]!r}")
    return node
