"""Conjunctive query syntax and structural analysis.

A CQ is an ordered head of answer variables plus a multiset of body atoms;
repeated atoms are kept because they change bag answers. Equality atoms induce
an equivalence relation on the query's terms, and the Gaifman graph has one
node per equivalence class of a mentioned term and one edge per role atom.

Grammar (one query per input, ``#`` comments allowed)::

    q(x, z) :- Edge(x, y), hasColour(x, z), w = y, u = "Lee"

Unquoted identifiers in the body are variables; tokens wrapped in double
quotes are individuals. Inequality atoms cannot be written in this grammar;
they exist only in internally constructed realisability subqueries.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Optional, TypeVar, Union

from .errors import (
    NotEqualityConsistent,
    NotRooted,
    ParseError,
    RepeatedAnswerVariable,
    SafetyViolation,
)
from .ontology import check_individual, check_name


@dataclass(frozen=True, order=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True, order=True)
class Const:
    name: str

    def __str__(self):
        return f'"{self.name}"'


Term = Union[Var, Const]


def term_key(t: Term):
    # Constants sort before variables so class representatives prefer them.
    return (0, t.name) if isinstance(t, Const) else (1, t.name)


@dataclass(frozen=True)
class ConceptAtom:
    concept: str
    term: Term

    def __str__(self):
        return f"{self.concept}({self.term})"

    @property
    def terms(self):
        return (self.term,)


@dataclass(frozen=True)
class RoleAtom:
    role: str
    subject: Term
    object: Term

    def __str__(self):
        return f"{self.role}({self.subject},{self.object})"

    @property
    def terms(self):
        return (self.subject, self.object)


@dataclass(frozen=True)
class EqualityAtom:
    left: Term
    right: Term

    def __str__(self):
        return f"{self.left} = {self.right}"

    @property
    def terms(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class InequalityAtom:
    left: Term
    right: Term

    def __str__(self):
        return f"{self.left} != {self.right}"

    @property
    def terms(self):
        return (self.left, self.right)


QueryAtom = Union[ConceptAtom, RoleAtom, EqualityAtom, InequalityAtom]


def atom_key(atom: QueryAtom):
    """Canonical atom order: concept, role, equality, inequality; then names."""
    if isinstance(atom, ConceptAtom):
        return (0, atom.concept, str(atom.term), "")
    if isinstance(atom, RoleAtom):
        return (1, atom.role, str(atom.subject), str(atom.object))
    if isinstance(atom, EqualityAtom):
        return (2, "", str(atom.left), str(atom.right))
    return (3, "", str(atom.left), str(atom.right))


Node = TypeVar("Node", bound=Hashable)


def connected_components(nodes: Iterable[Node],
                         neighbours: Callable[[Node], Iterable[Node]]) -> list[frozenset[Node]]:
    """The connected components of the graph that `neighbours` spans on `nodes`,
    in the order of their first node; neighbours outside `nodes` are left out."""
    nodes = list(nodes)
    inside, seen = set(nodes), set()
    out = []
    for node in nodes:
        if node in seen:
            continue
        comp = {node}
        stack = [node]
        while stack:
            for nxt in neighbours(stack.pop()):
                if nxt in inside and nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen.update(comp)
        out.append(frozenset(comp))
    return out


class EqClasses:
    """The equivalence relation on terms induced by the equality atoms: the
    components of the graph whose edges are the equality atoms."""

    def __init__(self, atoms: Iterable[QueryAtom]):
        atoms = list(atoms)
        equal: dict[Term, list[Term]] = {t: [] for a in atoms for t in a.terms}
        for a in atoms:
            if isinstance(a, EqualityAtom):
                equal[a.left].append(a.right)
                equal[a.right].append(a.left)
        self._classes = connected_components(equal, equal.__getitem__)
        self._class_of: dict[Term, frozenset[Term]] = {
            t: cls for cls in self._classes for t in cls
        }

    def class_of(self, t: Term) -> frozenset[Term]:
        return self._class_of.get(t, frozenset((t,)))

    def classes(self) -> list[frozenset[Term]]:
        """The classes, in the order their first terms occur in the atoms."""
        return list(self._classes)

    def constants_of(self, t: Term) -> list[Const]:
        return sorted((m for m in self.class_of(t) if isinstance(m, Const)),
                      key=term_key)


class CQ:
    """A safe conjunctive query; atom multiset order-insensitive equality."""

    def __init__(self, answer_vars: Iterable[Var], atoms: Iterable[QueryAtom],
                 allow_inequalities: bool = False):
        self.answer_vars = tuple(answer_vars)
        self.atoms = tuple(atoms)
        seen = set()
        for v in self.answer_vars:
            if v in seen:
                raise RepeatedAnswerVariable(f"answer variable {v} repeated in head")
            seen.add(v)
        if not allow_inequalities:
            for a in self.atoms:
                if isinstance(a, InequalityAtom):
                    raise ParseError("inequality atoms are not allowed in queries")
        if not any(isinstance(a, (ConceptAtom, RoleAtom)) for a in self.atoms):
            raise SafetyViolation("query must contain at least one concept or role atom")
        self._eq = EqClasses(self.atoms)
        self._check_safety()

    def _check_safety(self):
        anchored = set()
        for a in self.atoms:
            if isinstance(a, (ConceptAtom, RoleAtom)):
                for t in a.terms:
                    anchored.add(self._eq.class_of(t))
        for v in self.variables():
            # The query grammar's names, so none is the rewriting's fresh `_z`.
            check_name(v.name, "variable")
            if self._eq.class_of(v) not in anchored:
                raise SafetyViolation(
                    f"variable {v} is not connected to any concept or role atom"
                )

    def variables(self) -> tuple[Var, ...]:
        seen: dict[Var, None] = {v: None for v in self.answer_vars}
        for a in self.atoms:
            for t in a.terms:
                if isinstance(t, Var):
                    seen.setdefault(t, None)
        return tuple(seen)

    def existential_vars(self) -> tuple[Var, ...]:
        head = set(self.answer_vars)
        return tuple(sorted((v for v in self.variables() if v not in head),
                            key=term_key))

    def positive_atoms(self) -> list[QueryAtom]:
        return [a for a in self.atoms if isinstance(a, (ConceptAtom, RoleAtom))]

    def equality_classes(self) -> EqClasses:
        return self._eq

    @cached_property
    def gaifman(self) -> dict[frozenset[Term], set[frozenset[Term]]]:
        """The Gaifman graph: each class of a mentioned term, mapped to the
        classes a role atom joins it to; a self-loop is no edge."""
        eq = self._eq
        graph: dict[frozenset[Term], set[frozenset[Term]]] = {c: set() for c in eq.classes()}
        for a in self.atoms:
            if isinstance(a, RoleAtom):
                s, o = eq.class_of(a.subject), eq.class_of(a.object)
                if s != o:
                    graph[s].add(o)
                    graph[o].add(s)
        return graph

    @cached_property
    def reach(self) -> Optional[int]:
        """The largest Gaifman distance of a class from a root, a class that
        holds an answer variable or an individual; None when a class lies
        apart from every root. One breadth-first walk, made when first read."""
        graph, eq = self.gaifman, self._eq
        layer = {eq.class_of(t) for t in self.answer_vars}
        layer.update(eq.class_of(t) for a in self.atoms for t in a.terms if type(t) is Const)
        seen, reach = set(layer), -1
        while layer:
            reach += 1
            ahead = set()
            for c in layer:
                ahead |= graph[c]
            layer = ahead - seen
            seen |= layer
        return reach if len(seen) == len(graph) else None

    @cached_property
    def _atom_index(self) -> dict[Term, list[int]]:
        """Each term's atom positions, ascending, one per atom mentioning it."""
        index: dict[Term, list[int]] = {}
        for i, a in enumerate(self.atoms):
            for t in dict.fromkeys(a.terms):
                index.setdefault(t, []).append(i)
        return index

    def __eq__(self, other):
        return (
            isinstance(other, CQ)
            and self.answer_vars == other.answer_vars
            and Counter(self.atoms) == Counter(other.atoms)
        )

    def __hash__(self):
        return hash((self.answer_vars, frozenset(Counter(self.atoms).items())))

    def __repr__(self):
        return f"CQ({self.to_text().strip()!r})"

    def to_text(self, name: str = "q") -> str:
        head = ", ".join(v.name for v in self.answer_vars)
        body = ", ".join(str(a) for a in sorted(self.atoms, key=atom_key))
        return f"{name}({head}) :- {body}\n"


def is_rooted(q: CQ) -> bool:
    """Every Gaifman component touches an answer variable or an individual:
    the walk from those reaches every class."""
    return q.reach is not None


def ma_connected_partition(q: CQ, z: Iterable[Var]) -> list[frozenset[Var]]:
    """Partition z into its maximally-connected-in-the-anonymous-part subsets.

    Each subset is a union of equality classes and maximal among the classes
    of z connected in the Gaifman graph through nodes inside z. Raises
    NotEqualityConsistent when an equality links z to a term outside it.
    """
    zset = frozenset(z)
    if not zset:
        return []
    eq, graph = q.equality_classes(), q.gaifman
    z_classes = {eq.class_of(v) for v in zset}
    for cls in z_classes:
        if not cls <= zset:
            raise NotEqualityConsistent(
                f"{sorted(map(str, cls))} is not equality-consistent with z")
    subsets = [frozenset(v for c in comp for v in c)
               for comp in connected_components(z_classes, lambda c: graph.get(c, ()))]
    return sorted(subsets, key=lambda s: min(v.name for v in s))


def atoms_mentioning(q: CQ, vars_: Iterable[Var]) -> list[QueryAtom]:
    """The sub-conjunction of all atoms mentioning at least one given variable."""
    index = q._atom_index
    hits = {i for v in vars_ for i in index.get(v, ())}
    return [q.atoms[i] for i in sorted(hits)]


def linking_atom(q: CQ, cluster: frozenset[Var]) -> RoleAtom:
    """The canonically least role atom with exactly one end in the cluster;
    exists for every rooted query.

    A cluster of existential variables without one is a whole Gaifman
    component with no answer variable or individual: NotRooted.

    Atoms whose outward endpoint is a variable are preferred over atoms
    linking to an individual: the compiled form anchors the cluster's
    identifying equalities on that variable, which keeps its column in every
    branch; among such atoms the choice changes no answer. A cluster is a
    part of `ma_connected_partition(q, z)`, so z is not needed:
    every term outside the cluster that its atoms mention lies outside z.
    """
    candidates = [a for a in atoms_mentioning(q, cluster)
                  if isinstance(a, RoleAtom) and (a.subject in cluster) != (a.object in cluster)]
    if not candidates:
        raise NotRooted(
            f"no linking atom for cluster {sorted(v.name for v in cluster)}: its "
            "component touches no answer variable or individual"
        )

    def outward_is_const(a: RoleAtom) -> bool:
        return isinstance(a.object if a.subject in cluster else a.subject, Const)

    return min(candidates, key=lambda a: (outward_is_const(a), atom_key(a)))


def outward_terms(q: CQ, cluster: frozenset[Var]) -> list[Term]:
    """Terms outside the cluster that its induced subquery mentions, in
    canonical order. As in `linking_atom`, the cluster alone decides."""
    return sorted({t for a in atoms_mentioning(q, cluster) for t in a.terms if t not in cluster},
                  key=term_key)


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<turnstile>:-)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<comma>,)
      | (?P<eq>=)
      | (?P<quoted>"[^"\n]*")
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _where(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of an offset, counted only for an error."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str):
    """(kind, value, offset) triples, whitespace and comments dropped."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", *_where(text, pos))
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, what, tok):
        return ParseError(f"expected {what}, found {tok[1] or 'end of input'!r}",
                          *_where(self.text, tok[2]))

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise self.error(what, tok)
        return tok

    def term(self) -> Term:
        tok = self.next()
        if tok[0] == "ident":
            return Var(tok[1])
        if tok[0] == "quoted":
            name = tok[1][1:-1]
            try:
                return Const(check_individual(name))
            except ParseError as exc:  # the line is counted only for an error
                raise ParseError(exc.args[0], _where(self.text, tok[2])[0]) from None
        raise self.error("a term", tok)


def parse_cq(text: str) -> CQ:
    """Parse a query; raises ParseError / SafetyViolation with positions."""
    p = _Parser(text)
    p.expect("ident", "query name")
    p.expect("lpar", "'('")
    answer_vars: list[Var] = []
    if p.peek()[0] != "rpar":
        while True:
            tok = p.expect("ident", "an answer variable")
            answer_vars.append(Var(tok[1]))
            if p.peek()[0] == "comma":
                p.next()
            else:
                break
    p.expect("rpar", "')'")
    p.expect("turnstile", "':-'")

    atoms: list[QueryAtom] = []
    while True:
        tok = p.peek()
        if tok[0] == "ident" and p.tokens[p.pos + 1][0] == "lpar":
            p.next()
            pred = tok[1]
            p.next()  # lpar
            first = p.term()
            if p.peek()[0] == "comma":
                p.next()
                second = p.term()
                p.expect("rpar", "')'")
                atoms.append(RoleAtom(pred, first, second))
            else:
                p.expect("rpar", "')'")
                atoms.append(ConceptAtom(pred, first))
        else:
            left = p.term()
            p.expect("eq", "'='")
            right = p.term()
            if isinstance(left, Const) and isinstance(right, Const):
                if left != right:
                    warnings.warn(
                        f"equality {left} = {right} between distinct individuals: "
                        "the query always evaluates to the empty bag"
                    )
                atoms.append(EqualityAtom(left, right))
            elif isinstance(left, Const):
                atoms.append(EqualityAtom(right, left))
            else:
                atoms.append(EqualityAtom(left, right))
        if p.peek()[0] == "comma":
            p.next()
        else:
            break
    p.expect("eof", "end of query")
    return CQ(answer_vars, atoms)
