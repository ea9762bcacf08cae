"""Bag evaluation semantics.

Answers to a query over a bag interpretation form an AnswerBag: a finite map
from tuples of individual names to positive multiplicities. A conjunctive
query contributes, for every valuation of its variables that satisfies the
equalities (and, where present, inequalities), the product of the extension
multiplicities of its atom images, each repeated atom counted separately, as
in bag relational algebra. Answer tuples range over named elements only;
existential variables may pass through anonymous elements.

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
from typing import ClassVar, Iterable, Mapping, Optional, Union

from .errors import (ArityMismatch, IllFormedQuery, ParseError, checked_add, checked_mul,
                     combine)
from .ontology import BagABox, ConceptAssertion, Role, check_individual, check_name
from .chase import Anon, BagInterpretation, ChaseResult, Element, Named
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

NAMED_ONLY = "named"
ANON_ONLY = "anon"
ANY_ELEMENT = "any"


class _CompiledQuery:
    """Equality classes resolved to constants or representative variables."""

    def __init__(self, q: CQ, rep_kind: Mapping[Var, str]):
        eq = q.equality_classes()
        self.resolution: dict[Term, object] = {}
        self.empty = False
        self.rep_kind: dict[Var, str] = {}
        for cls in eq.classes():
            consts = sorted({t for t in cls if isinstance(t, Const)})
            if len(consts) > 1:
                self.empty = True
                return
            if consts:
                value = Named(consts[0].name)
                for t in cls:
                    self.resolution[t] = value
                # A class pinned to an individual cannot be anonymous.
                if any(rep_kind.get(t) == ANON_ONLY for t in cls if isinstance(t, Var)):
                    self.empty = True
                    return
            else:
                rep = min(cls, key=lambda t: t.name)
                kinds = {rep_kind.get(t, ANY_ELEMENT) for t in cls if isinstance(t, Var)}
                kinds.discard(ANY_ELEMENT)
                if len(kinds) > 1:
                    self.empty = True
                    return
                kind = kinds.pop() if kinds else ANY_ELEMENT
                for t in cls:
                    self.resolution[t] = rep
                self.rep_kind[rep] = kind

    def resolve(self, t: Term):
        r = self.resolution.get(t)
        if r is not None:
            return r
        return Named(t.name) if isinstance(t, Const) else t


def _atom_patterns(q: CQ, compiled: _CompiledQuery):
    patterns = []
    for a in q.atoms:
        if isinstance(a, ConceptAtom):
            patterns.append(("c", a.concept, (compiled.resolve(a.term),)))
        elif isinstance(a, RoleAtom):
            patterns.append(
                ("r", a.role, (compiled.resolve(a.subject), compiled.resolve(a.object)))
            )
    return patterns


def _order_patterns(patterns, interp):
    def ext_size(p):
        kind, name, _ = p
        ext = interp.concepts.get(name) if kind == "c" else interp.roles.get(name)
        return len(ext) if ext else 0

    remaining = sorted(range(len(patterns)), key=lambda i: (ext_size(patterns[i]), i))
    ordered: list[int] = []
    bound: set[Var] = set()
    pool = list(remaining)
    while pool:
        connected = [
            i for i in pool
            if any(isinstance(t, Var) and t in bound for t in patterns[i][2])
        ] or pool
        nxt = connected[0]
        pool.remove(nxt)
        ordered.append(nxt)
        bound.update(t for t in patterns[nxt][2] if isinstance(t, Var))
    return [patterns[i] for i in ordered]


def _kind_ok(el: Element, kind: str) -> bool:
    if kind == NAMED_ONLY:
        return isinstance(el, Named)
    if kind == ANON_ONLY:
        return isinstance(el, Anon)
    return True


def _eval_resolved(q, interp, compiled):
    """Sum of per-valuation products, grouped by the answer tuple."""
    if compiled.empty:
        return AnswerBag(len(q.answer_vars))
    patterns = _order_patterns(_atom_patterns(q, compiled), interp)
    inequalities = [
        (compiled.resolve(a.left), compiled.resolve(a.right))
        for a in q.atoms
        if isinstance(a, InequalityAtom)
    ]
    answer_reps = [compiled.resolve(v) for v in q.answer_vars]
    binding: dict[Var, Element] = {}
    answers: dict[tuple[str, ...], int] = {}

    def value_of(t):
        return binding[t] if isinstance(t, Var) else t

    def emit(weight):
        for left, right in inequalities:
            if value_of(left) == value_of(right):
                return
        tup = []
        for rep in answer_reps:
            el = value_of(rep)
            if not isinstance(el, Named):
                return
            tup.append(el.name)
        key = tuple(tup)
        answers[key] = checked_add(answers.get(key, 0), weight)

    def matches(pattern):
        kind, name, terms = pattern
        if kind == "c":
            (t,) = terms
            ext = interp.concepts.get(name, {})
            if isinstance(t, Var) and t in binding:
                t = binding[t]
            if isinstance(t, Var):
                for el, m in ext.items():
                    yield {t: el}, m
            else:
                m = ext.get(t, 0)
                if m:
                    yield {}, m
            return
        t1, t2 = terms
        v1 = binding.get(t1, t1) if isinstance(t1, Var) else t1
        v2 = binding.get(t2, t2) if isinstance(t2, Var) else t2
        b1, b2 = isinstance(v1, Var), isinstance(v2, Var)
        if not b1 and not b2:
            m = interp.role_mult(name, v1, v2)
            if m:
                yield {}, m
        elif not b1:
            for el, m in interp.successors(Role(name), v1).items():
                yield {v2: el}, m
        elif not b2:
            for el, m in interp.successors(Role(name, True), v2).items():
                yield {v1: el}, m
        else:
            for (u, w), m in interp.roles.get(name, {}).items():
                if v1 == v2 and u != w:
                    continue
                yield ({v1: u} if v1 == v2 else {v1: u, v2: w}), m

    def kind_of(rep):
        return compiled.rep_kind.get(rep, ANY_ELEMENT)

    def walk(i, weight):
        if i == len(patterns):
            emit(weight)
            return
        for new_binding, m in matches(patterns[i]):
            ok = True
            for var, el in new_binding.items():
                if not _kind_ok(el, kind_of(var)):
                    ok = False
                    break
            if not ok:
                continue
            binding.update(new_binding)
            walk(i + 1, checked_mul(weight, m))
            for var in new_binding:
                del binding[var]

    walk(0, 1)
    return AnswerBag(len(q.answer_vars), answers)


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
        rels[(name, 1)] = {(el.name,): m for el, m in ext.items() if isinstance(el, Named)}
    for name, ext in source.roles.items():
        rels[(name, 2)] = {(u.name, v.name): m for (u, v), m in ext.items()
                           if isinstance(u, Named) and isinstance(v, Named)}
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
    out: dict[tuple[str, ...], int] = {}
    for names, m in rels.get((q.predicate, len(q.terms)), {}).items():
        bound: dict[Var, str] = {}
        for t, name in zip(q.terms, names):
            if isinstance(t, Const):
                if t.name != name:
                    break
            elif bound.setdefault(t, name) != name:
                break
        else:
            key = tuple(bound[v] for v in q.answer_vars)
            out[key] = checked_add(out.get(key, 0), m)
    return out


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
