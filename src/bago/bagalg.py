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
successors or predecessors of a bound end, or the elements that have a row)
or multiplies by one entry when all its slots are bound; atoms over
individuals alone come first, as checks weighed once before any binding.
Kind restrictions (named, anonymous) and inequalities filter where their
slots are bound. The steps up to the last one binding an answer variable
enumerate answer tuples. The rest of the query splits into components that
share no later slot, and each component returns one sum per answer binding
(summed once when it reads no answer binding) instead of every valuation
being emitted: the sum-product of the N-semiring (Green, Karvounarakis and
Tannen), in exact integers: only an answer is held to 64 bits, where its
AnswerBag is built. Each level of the walk is an iterator on an explicit
stack, so a query of any length runs without recursion. One loop binds
every step; over the query's own chase, a step that can enter a copy of a
cut run binds only canonical copies and weighs each by the copies of the
full chase it stands for (see the note above `_EMPTY`); any other query
reads the full last stage instead.

Bag-algebra queries are evaluated over relations of individual names: one bag
of name tuples per (predicate, arity): a BagABox's own store, as it is, or
built from the named part of a BagInterpretation. These are the N-semiring
relations of Green, Karvounarakis and Tannen, so equal subexpressions denote
equal bags. Evaluation is one post-order pass over an explicit stack that
gives each node a positional key: its operator, its operands' ids and the
column positions it reads, with no variable name. Keys are interned bottom-up,
so subterms that differ only in their variables' names are one operation, run
once. A reverse pass folds each chain of like unions into one n-ary union (a
max-union reads each leaf once), drops a difference's subtrahend from the
max-union it subtracts from (max(a, b) ∸ b = a ∸ b), and runs only what a run
operation reads. Atoms select their relation's tuples (distinct variables read
the relation itself), joins multiply on matched columns (by one lookup per left
tuple when they are all the right's), equality filters keep matching tuples
(or append a copy of a column for a fresh variable), projections sum out
columns, and the unions and difference act pointwise through `errors.combine`.
A result is dropped once its last consumer has read it; the root's becomes the
AnswerBag's store. The four binary nodes share one base class carrying their
s-expression tag and combine op. Every node carries its answer-variable list;
the variable side conditions are checked at construction time and violations
raise IllFormedQuery. Printing the s-expression form keeps an explicit stack,
and parsing reads it into nested lists on one, each list becoming its node as
it closes, so any depth round-trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import ClassVar, Iterable, Mapping, NamedTuple, Optional, Union

from .errors import (U64_MAX, ArityMismatch, IllFormedQuery, MultiplicityOverflow, ParseError,
                     combine)
from .ontology import BagABox, Relations, check_individual, check_name
from .chase import Anon, BagInterpretation, ChaseResult, kept_copies
from .query import (CQ, ConceptAtom, Const, InequalityAtom, RoleAtom, Term, Var,
                    connected_components)


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
                store[tuple(tup)] = store.get(tuple(tup), 0) + m
        self._own(store)

    def _own(self, store: dict[tuple[str, ...], int]) -> "AnswerBag":
        """Take a fresh map of arity-long tuples to positive counts as it is."""
        if store and max(store.values()) > U64_MAX:
            raise MultiplicityOverflow("an answer multiplicity exceeds the 64-bit range")
        self._entries = store
        return self

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

class _Plan(NamedTuple):
    """A CQ compiled against one interpretation.

    `slots` holds one slot per representative variable and one per
    individual, filled with its name. `prefix` binds every answer variable
    (the slots in `answer`); each of its bindings is weighted by the sum of
    every component of the rest of the query. The `independent` components
    read no prefix slot, so they are summed once; the `dependent` ones are
    summed per binding.
    """

    slots: list
    prefix: tuple
    dependent: list
    independent: list
    answer: list


# A step reads `index` itself when `via` is -1, else the row `index[slots[via]]`.
# An extend step [index, via, out, named, neqs, checks, copies] binds slot `out`
# to each element of its row that has the slot's kind (`named`: True for a
# name, False for a witness, None for either) and differs from the slots in
# `neqs`; its weight is the element's multiplicity times the entries of its
# `checks`. A check step (index, via, at) is its row's entry at slots[at]. A
# level is an extend step with the checks that follow it, and a component is
# the checks before its first level together with its levels. An atom over
# individuals alone is ordered first, so it is a check before any level.
#
# Over q's chase, which cuts runs short, `copies` is (runs, kept, key, used) on a
# step that can enter a copy of a run: one that starts a scan or reads the
# row of a slot that may hold a name (a witness's neighbours lie in its own
# copy, or are names). `_weights` binds every step in one loop, and where a
# step with `copies` reads a scan or a name's row it binds into copy i of run
# r only when i <= used[r] + 1: the copies of a run are isomorphic, so each
# homomorphism into the full chase is counted once, as the one that enters
# the copies of each run in order 1, 2, ... A copy already used weighs 1;
# entering the next weighs k - used[r], the unused copies of the full chase
# it stands for; `kept` is kept_copies(q). Every walk restores `used` as it
# backtracks, so each component sums from the prefix's state on its own. `key`
# is the row's (role name, inverted) for a step that reads a slot's row, which
# the bare-row sum needs. On every other step, and over a chase with no cut
# run, `copies` is None.
_EMPTY: dict = {}


def _row(index, via, slots):
    return index if via < 0 else index.get(slots[via], _EMPTY)


def _check(check, slots) -> int:
    index, via, at = check
    return _row(index, via, slots).get(slots[at], 0)


def _weigh(head, slots, weight: int) -> int:
    for check in head:
        weight *= _check(check, slots)
    return weight


def _weights(level, slots):
    """The weight of each element of the level's row that passes its filters
    (see `copies` above), yielded while the level's slot is bound to it."""
    index, via, out, named, neqs, checks, copies = level
    runs = entered = None
    if copies is not None and (via < 0 or type(slots[via]) is not Anon):
        runs, _, _, used = copies
    for el, m in _row(index, via, slots).items():
        if named is not None and (type(el) is str) is not named:
            continue
        if neqs and any(slots[j] == el for j in neqs):
            continue
        if runs is not None and type(el) is Anon:
            top = el
            while top.depth > 1:
                top = top.parent
            r = (top.parent, top.role.name, top.role.inverted)
            k = runs.get(r)
            if k is not None:
                n = used.get(r, 0)
                if top.index > n + 1:
                    continue
                if top.index > n:  # the element enters the run's next copy
                    entered, used[r] = r, top.index
                    m *= k - n
        slots[out] = el
        for check in checks:
            m *= _check(check, slots)
            if not m:
                break
        else:
            yield m
        if entered is not None:
            used[entered], entered = n, None


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
            if len(stack) == len(levels):
                yield w * m
            else:
                stack.append((_weights(levels[len(stack)], slots), w * m))
                break
        else:
            stack.pop()


def _level_sum(level, slots) -> int:
    index, via, _, named, neqs, checks, copies = level
    if named is None and not neqs and not checks and (copies is None or via >= 0):
        # A bare row sums in one call; a name's row adds the copies its run
        # was cut short by.
        total = sum(_row(index, via, slots).values())
        if copies is not None and type(u := slots[via]) is str:
            runs, kept, key, _ = copies
            total += runs.get((u, *key), kept) - kept
        return total
    return sum(_weights(level, slots))


def _sum(component, slots) -> int:
    """The sum over the component's bindings of the product of their weights."""
    head, levels = component
    weight = _weigh(head, slots, 1)
    if not weight or not levels:
        return weight
    return sum(w * _level_sum(levels[-1], slots) for w in _bindings(levels[:-1], slots, weight))


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


def _compile(q: CQ, interp: BagInterpretation, kinds: Mapping[Var, bool]) -> Optional[_Plan]:
    """q's plan over interp, or None when its answer is empty.

    `kinds` maps a variable to True (names only) or False (witnesses only).
    Each equality class gets one slot: filled with its individual's name if
    it holds one, else empty, of the kind its variables agree on (`named`,
    None for either). The answer is empty when a class holds two
    individuals, an individual and a witnesses-only variable, or two kinds,
    and when an inequality reads x != x.
    """
    slot_of: dict[Term, int] = {}
    slots, named = [], []
    for j, cls in enumerate(q.equality_classes().classes()):
        name = kind = None
        for t in cls:
            slot_of[t] = j
            if type(t) is Const:
                if name is not None or kind is False:
                    return None
                name = t.name
            elif (wanted := kinds.get(t)) is not None:
                if (kind is not None and kind is not wanted) or (not wanted and name is not None):
                    return None
                kind = wanted
        slots.append(name)
        named.append(None if name is not None else kind)
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
    runs, used = interp.runs, {}
    kept = kept_copies(q) if runs else 0

    def extend(index, via, out, key=None):
        kind = named[out]
        fixed = via < 0 or via in consts
        copies = None
        if runs and kind is not True and (fixed or named[via] is not False):
            copies = (runs, kept, key, used)
        if fixed:  # a row fixed at compile time is filtered now
            index = _row(index, via, slots)
            if kind is not None:
                index = {el: m for el, m in index.items() if (type(el) is str) is kind}
            via, kind = -1, None
        bind_step[out] = len(steps)
        bound.add(out)
        steps.append([index, via, out, kind, [], [], copies])

    def check(index, via, at):
        if via < 0 or via in consts:
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
            if o in bound:
                check(interp.rows(predicate), s, o)
            else:
                extend(interp.rows(predicate), s, o, (predicate, False))
        elif o in bound:
            extend(interp.rows(predicate, True), o, s, (predicate, True))
        elif s == o:  # a self-loop atom binds one slot
            rows = interp.rows(predicate)
            extend({u: m for u, row in rows.items() if (m := row.get(u))}, -1, s)
        else:  # the answer end first, over the elements that have a row
            inverted = o in answer and s not in answer
            if inverted:
                s, o = o, s
            rows = interp.rows(predicate, inverted)
            extend(dict.fromkeys(rows, 1), -1, s)
            extend(rows, s, o, (predicate, inverted))
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
    # The rest splits into components that share no slot bound after the cut:
    # each step is linked to the step that binds each slot it reads.
    rest = range(cut, len(steps))
    links: dict[int, list[int]] = {k: [] for k in rest}
    for k in rest:
        for j in _reads(steps[k]):
            if bind_step.get(j, -1) >= cut:
                links[k].append(bind_step[j])
                links[bind_step[j]].append(k)
    dependent, independent = [], []
    for comp in connected_components(rest, links.__getitem__):
        group = [steps[k] for k in sorted(comp)]
        reads_prefix = any(j in prefix_slots for step in group for j in _reads(step))
        (dependent if reads_prefix else independent).append(_levels(group))
    return _Plan(slots, _levels(steps[:cut]), dependent, independent, answer)


def _eval_resolved(q, interp, kinds):
    """Sum of per-valuation products, grouped by the answer tuple."""
    arity = len(q.answer_vars)
    if interp.query not in (None, q):
        interp = interp.full()  # chased for another query: it may miss what q reaches
    plan = _compile(q, interp, kinds)
    if plan is None:
        return AnswerBag(arity)
    slots = plan.slots
    head, levels = plan.prefix
    weight = _weigh(head, slots, 1)
    for component in plan.independent:
        if not weight:
            break
        weight *= _sum(component, slots)
    answers: dict[tuple[str, ...], int] = {}
    if weight:
        for w in _bindings(levels, slots, weight):
            for component in plan.dependent:
                w *= _sum(component, slots)
                if not w:
                    break
            else:
                # Answer slots hold names only (their kind is True).
                key = tuple(slots[j] for j in plan.answer)
                answers[key] = answers.get(key, 0) + w
    return AnswerBag(arity)._own(answers)


def eval_cq(q: CQ, i: BagInterpretation) -> AnswerBag:
    """Bag answers: sum over valuations of the product of atom multiplicities."""
    return _eval_resolved(q, i, dict.fromkeys(q.answer_vars, True))


def eval_cq_neq(q: CQ, i: BagInterpretation) -> AnswerBag:
    """As eval_cq; inequality atoms additionally discard violating valuations."""
    return eval_cq(q, i)


def eval_partitioned(q: CQ, z: Iterable[Var], result: ChaseResult) -> AnswerBag:
    """Answers restricted to valuations sending exactly z to anonymous elements."""
    zset = set(z)
    existential = set(q.existential_vars())
    if not zset <= existential:
        raise ValueError("z must be a subset of the existential variables")
    kinds = dict.fromkeys(q.answer_vars, True)
    for v in existential:
        kinds[v] = v not in zset
    return _eval_resolved(q, result.union, kinds)


# -- bag-algebra queries ------------------------------------------------------

@dataclass(frozen=True)
class BalgAtom:
    predicate: str
    terms: tuple[Term, ...]
    answer_vars: tuple[Var, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if len(self.terms) not in (1, 2):
            raise IllFormedQuery("atoms are unary (concepts) or binary (roles)")
        object.__setattr__(self, "answer_vars",
                           tuple(dict.fromkeys(t for t in self.terms if isinstance(t, Var))))


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
        object.__setattr__(self, "answer_vars",
                           tuple(dict.fromkeys(self.child.answer_vars + extra)))


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
        object.__setattr__(self, "answer_vars",
                           tuple(dict.fromkeys(self.left.answer_vars + self.right.answer_vars)))


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


def _relations(interp: BagInterpretation) -> Relations:
    """The named part of an interpretation as name relations; anonymous elements drop out."""
    rels: Relations = {}
    for name, ext in interp.concepts.items():
        rels[(name, 1)] = {(el,): m for el, m in ext.items() if type(el) is str}
    for name, ext in interp.roles.items():
        rels[(name, 2)] = {pair: m for pair, m in ext.items()
                           if type(pair[0]) is str and type(pair[1]) is str}
    return rels


def eval_balg(q: BALGQuery, source: Union[BagABox, BagInterpretation]) -> AnswerBag:
    """Evaluation over the source's name relations, each distinct positional
    operation once. Tuple positions follow q.answer_vars."""
    ops, inputs, uses = _plan(q)
    rels = source.relations if isinstance(source, BagABox) else _relations(source)
    results: list = [None] * len(ops)
    for j, op in enumerate(ops):
        if not uses[j]:  # no operation that runs reads it
            continue
        results[j] = _apply(op, [results[c] for c in inputs[j]], rels)
        for c in inputs[j]:  # a result goes once its last consumer has read it
            uses[c] -= 1
            if not uses[c]:
                results[c] = None
    out = results[-1]  # an atom's may be the ABox's own relation, or _EMPTY
    return AnswerBag(len(q.answer_vars))._own(dict(out) if ops[-1][0] == "atom" else out)


# An operation is a flat tuple: its tag, the ids of its operands, then the
# positions it reads. No variable name enters it, so two subterms that differ
# only in their variables' names are one operation.
#   ("atom", predicate, *spec)      spec per term: its column, or a pinned name
#   ("project", c, *kept columns)
#   ("eq-col", c, column, column) / ("eq-const", c, column, name) /
#   ("eq-new", c, column)           the last appends a copy of the column
#   ("join", l, r, *per right column: its left column or -1)
#   (combine op, l, r, *per left column: its right column, where they differ)


def _plan(root) -> tuple[list, list, list[int]]:
    """The tree's distinct operations, operands first and the root last, the
    ids each reads (see `_fold`), and how many operations that run read each.

    Keys are interned bottom-up: a node's key holds its operands' ids and is
    never built by walking its subtree again.
    """
    order, stack = [], [root]
    while stack:  # pre-order, right operand first; reversed, it is post-order
        node = stack.pop()
        order.append(node)
        if isinstance(node, BalgBinary):
            stack += (node.left, node.right)
        elif isinstance(node, (BalgProject, BalgEqFilter)):
            stack.append(node.child)
        elif not isinstance(node, BalgAtom):
            raise IllFormedQuery(f"unknown query node {type(node).__name__}")
    ids: dict[int, int] = {}  # id(node) -> operation id
    interned: dict[tuple, int] = {}
    inputs: list[tuple] = []
    for node in reversed(order):
        key = _key(node, ids)
        j = interned.get(key)
        if j is None:
            j = interned[key] = len(inputs)
            inputs.append(key[1:3] if isinstance(node, BalgBinary)
                          else () if type(node) is BalgAtom else key[1:2])
        ids[id(node)] = j
    return _fold(list(interned), inputs)


def _fold(ops, inputs):
    """One reverse pass, readers first: a union whose columns line up reads the
    leaves of its chain of like unions (max is idempotent: each once), a
    difference drops its subtrahend from the max-union on its left, and what
    no run operation reads is not run."""
    direct, uses, absorbed = [0] * len(ops), [0] * len(ops), {}
    for operands in inputs:
        for c in operands:
            direct[c] += 1
    uses[-1] = 1
    for j in range(len(ops) - 1, -1, -1):
        op = ops[j]
        if not uses[j]:
            continue
        if len(op) == 3 and op[0] in ("max-union", "arith-union"):
            tag, out, stack = op[0], [], list(inputs[j])
            while stack:  # through each like union that only its parent reads
                c = stack.pop()
                if ops[c][0] == tag and len(ops[c]) == 3 and direct[c] == 1:
                    stack += inputs[c]
                elif c != absorbed.get(j):
                    out.append(c)
            inputs[j] = list(dict.fromkeys(out)) if tag == "max-union" else out
        elif len(op) == 3 and op[0] == "difference" and direct[op[1]] == 1:
            if ops[op[1]][0] == "max-union":  # max(a, b) ∸ b = a ∸ b
                absorbed[op[1]] = op[2]
        for c in inputs[j]:
            uses[c] += 1
    return ops, inputs, uses


def _key(node, ids) -> tuple:
    if type(node) is BalgAtom:
        cols = node.answer_vars
        return ("atom", node.predicate,
                *[t.name if type(t) is Const else cols.index(t) for t in node.terms])
    if type(node) is BalgProject:
        gone = node.projected
        return ("project", ids[id(node.child)],
                *[i for i, v in enumerate(node.child.answer_vars) if v not in gone])
    if type(node) is BalgEqFilter:
        c, cols, term = ids[id(node.child)], node.child.answer_vars, node.term
        pos = cols.index(node.var)
        if type(term) is Const:
            return ("eq-const", c, pos, term.name)
        if term in cols:
            return ("eq-col", c, pos, cols.index(term))
        return ("eq-new", c, pos)
    lcols, rcols = node.left.answer_vars, node.right.answer_vars
    l, r = ids[id(node.left)], ids[id(node.right)]
    if node.combine is None:
        return ("join", l, r, *[lcols.index(v) if v in lcols else -1 for v in rcols])
    if lcols == rcols:
        return (node.combine, l, r)
    return (node.combine, l, r, *[rcols.index(v) for v in lcols])


def _apply(op, args, rels: Relations) -> dict[tuple[str, ...], int]:
    """One operation over its operands' results `args`, which it never mutates."""
    tag = op[0]
    if tag == "atom":
        return _scan(rels.get((op[1], len(op) - 2), _EMPTY), op[2:])
    if tag == "join":
        return _join(*args, op[3:])
    child = args[0] if args else None
    if tag == "project":
        i = op[2] if len(op) == 3 else None
        keys = [(tup[i],) for tup in child] if i is not None else map(_columns(op[2:]), child)
        out: dict[tuple[str, ...], int] = {}
        for key, m in zip(keys, child.values()):
            out[key] = out.get(key, 0) + m
        return out
    if tag == "eq-const":
        pos, name = op[2:]
        return {tup: m for tup, m in child.items() if tup[pos] == name}
    if tag == "eq-col":
        pos, other = op[2:]
        return {tup: m for tup, m in child.items() if tup[pos] == tup[other]}
    if tag == "eq-new":
        pos = op[2]
        return {tup + (tup[pos],): m for tup, m in child.items()}
    if len(op) > 3:  # a binary union or difference whose right columns move
        remap = _columns(op[3:])
        args = [child, {remap(tup): m for tup, m in args[1].items()}]
    return combine(tag, *args)


def _scan(rel, spec) -> dict[tuple[str, ...], int]:
    """An atom's tuples: a column number keeps its position (a repeated one
    must match it), a name pins it. Columns follow first occurrences, so
    distinct variables, (0,) or (0, 1), read the relation itself."""
    if spec == (0, 0):
        return {(a,): m for (a, b), m in rel.items() if a == b}
    names = [s for s in spec if type(s) is str]
    if not names:
        return rel
    if len(names) == len(spec):
        m = rel.get(spec, 0)
        return {(): m} if m else {}
    at = 1 - spec.index(0)  # one pinned end and one kept
    name = spec[at]
    return {(tup[1 - at],): m for tup, m in rel.items() if tup[at] == name}


def _join(left, right, cols) -> dict[tuple[str, ...], int]:
    """Left tuples extended by the right columns that no left column matches."""
    if -1 not in cols:  # the right map is its own index: a keyed semi-join
        if len(cols) == 1:
            i = cols[0]
            return {t: m * rm for t, m in left.items() if (rm := right.get((t[i],)))}
        lkey = _columns(cols)
        return {t: m * rm for t, m in left.items() if (rm := right.get(lkey(t)))}
    shared = [i for i, c in enumerate(cols) if c >= 0]
    rkey, lkey = _columns(shared), _columns([cols[i] for i in shared])
    rest = _columns([i for i, c in enumerate(cols) if c < 0])
    index: dict[tuple[str, ...], list[tuple[tuple[str, ...], int]]] = {}
    for tup, m in right.items():
        index.setdefault(rkey(tup), []).append((rest(tup), m))
    out: dict[tuple[str, ...], int] = {}
    for tup, m in left.items():
        for extra, rm in index.get(lkey(tup), ()):
            key = tup + extra
            out[key] = out.get(key, 0) + m * rm
    return out


def _columns(positions):
    """The function from a tuple to the tuple of its values at positions."""
    if len(positions) == 1:
        i = positions[0]
        return lambda tup: (tup[i],)
    return itemgetter(*positions) if positions else lambda tup: ()


# -- s-expression form --------------------------------------------------------

# Operands indent two spaces a level down to this depth and no further, so the
# printed form grows linearly with nesting; `parse_balg` ignores the spaces.
_INDENT_LEVELS = 64


def to_sexpr(q: BALGQuery) -> str:
    """One line per node, operands indented below it; an explicit stack of
    nodes and closing text, so any depth prints."""
    out: list[str] = []
    stack: list = [(q, 0)]
    while stack:
        item, depth = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        pad = "  " * min(depth, _INDENT_LEVELS)
        if isinstance(item, BalgAtom):
            out.append(f"{pad}(atom {item.predicate} {' '.join(map(str, item.terms))})")
        elif isinstance(item, BalgEqFilter):
            out.append(f"{pad}(eq-filter\n")
            stack += ((f"\n{pad}  {item.var.name} {item.term})", 0),
                      (item.child, depth + 1))
        elif isinstance(item, BalgProject):
            out.append(f"{pad}(project ({' '.join(v.name for v in item.projected)})\n")
            stack += ((")", 0), (item.child, depth + 1))
        else:
            out.append(f"{pad}({item.tag}\n")
            stack += ((")", 0), (item.right, depth + 1), ("\n", 0), (item.left, depth + 1))
    return "".join(out)


# A lone '"' is a token of its own, so it fails as a name or a term.
_SEXPR_TOKEN_RE = re.compile(r'\(|\)|"[^"\n]*"|[^\s()"]+|"')


def parse_balg(text: str) -> BALGQuery:
    """Parse the s-expression form emitted by to_sexpr.

    The tokens fill nested lists on one explicit stack, so any nesting depth
    parses. A list becomes its node when it closes, its operands having
    closed before it; only project's variable list stays a list.
    """
    lists: list[list] = [[]]
    for tok in _SEXPR_TOKEN_RE.findall(re.sub(r"#[^\n]*", "", text)):
        if tok == "(":
            lists.append([])
        elif tok != ")":
            lists[-1].append(tok)
        elif len(lists) > 1:
            form = lists.pop()
            lists[-1].append(form if lists[-1] == ["project"] else _node(form))
        else:
            raise ParseError("unexpected ')'")
    top = lists[0]
    if len(lists) > 1 or not top:
        raise ParseError("unexpected end of bag-algebra expression")
    if type(top[0]) is str:
        raise ParseError(f"expected '(', found {top[0]!r}")
    if len(top) > 1:
        raise ParseError("trailing input after expression")
    return top[0]


def _node(form: list) -> BALGQuery:
    """The node of one form whose operands are nodes already, once its shape
    is checked: per argument, a token (t), project's variable list (l) or a
    node (n)."""
    head, args = (form[0], form[1:]) if form else (None, [])
    if type(head) is not str:
        raise ParseError("expected an operator after '('")
    shape = "".join("t" if type(a) is str else "l" if type(a) is list else "n" for a in args)
    if head == "atom" and args and shape == "t" * len(args):
        return BalgAtom(check_name(args[0], "predicate"), tuple(map(_term, args[1:])))
    if head == "project" and shape == "ln" and all(type(v) is str for v in args[0]):
        return BalgProject(tuple(_var(v, head) for v in args[0]), args[1])
    if head == "eq-filter" and shape == "ntt":
        return BalgEqFilter(args[0], _var(args[1], head), _term(args[2]))
    if head in _BINARY_BY_TAG and shape == "nn":
        return _BINARY_BY_TAG[head](*args)
    if head in ("atom", "project", "eq-filter") or head in _BINARY_BY_TAG:
        raise ParseError(f"ill-formed {head} expression")
    raise ParseError(f"unknown operator {head!r}")


def _term(tok: str) -> Term:
    if len(tok) > 1 and tok[0] == tok[-1] == '"':
        return Const(check_individual(tok[1:-1]))
    if not re.match(r"[A-Za-z_][A-Za-z0-9_]*\Z", tok):
        raise ParseError(f"invalid term {tok!r}")
    return Var(tok)


def _var(tok: str, what: str) -> Var:
    term = _term(tok)
    if not isinstance(term, Var):
        raise ParseError(f"{what} expects a variable, found {tok!r}")
    return term
