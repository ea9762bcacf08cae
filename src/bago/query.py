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
from typing import Iterable, Union

from .errors import (
    InternalStructureError,
    ParseError,
    RepeatedAnswerVariable,
    SafetyViolation,
)
from .ontology import check_individual


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


class EqClasses:
    """The equivalence relation on terms induced by the equality atoms."""

    def __init__(self, atoms: Iterable[QueryAtom]):
        parent: dict[Term, Term] = {}

        def find(t):
            root = t
            while parent[root] != root:
                root = parent[root]
            while parent[t] != root:
                parent[t], t = root, parent[t]
            return root

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        atoms = list(atoms)
        for atom in atoms:
            for t in atom.terms:
                parent.setdefault(t, t)
        for atom in atoms:
            if isinstance(atom, EqualityAtom):
                union(atom.left, atom.right)
        groups: dict[Term, set[Term]] = {}
        for t in parent:
            groups.setdefault(find(t), set()).add(t)
        self._class_of: dict[Term, frozenset[Term]] = {}
        for members in groups.values():
            cls = frozenset(members)
            for t in members:
                self._class_of[t] = cls

    def class_of(self, t: Term) -> frozenset[Term]:
        return self._class_of.get(t, frozenset((t,)))

    def classes(self) -> list[frozenset[Term]]:
        return sorted(set(self._class_of.values()), key=lambda c: term_key(min(c, key=term_key)))

    def constants_of(self, t: Term) -> list[Const]:
        return sorted((m for m in self.class_of(t) if isinstance(m, Const)),
                      key=term_key)


class GaifmanGraph:
    """Nodes are equality classes of mentioned terms; edges come from role atoms."""

    def __init__(self, atoms: Iterable[QueryAtom], eq: EqClasses):
        atoms = list(atoms)
        self.nodes = frozenset(eq.class_of(t) for a in atoms for t in a.terms)
        edges: set[frozenset[frozenset[Term]]] = set()
        for a in atoms:
            if isinstance(a, RoleAtom):
                edges.add(frozenset((eq.class_of(a.subject), eq.class_of(a.object))))
        adjacency: dict[frozenset[Term], set[frozenset[Term]]] = {n: set() for n in self.nodes}
        for edge in edges:
            pair = list(edge)
            if len(pair) == 1:
                continue
            adjacency[pair[0]].add(pair[1])
            adjacency[pair[1]].add(pair[0])
        self._adjacency = adjacency

    def neighbours(self, node):
        return self._adjacency.get(node, set())

    def components(self) -> list[frozenset[frozenset[Term]]]:
        seen: set[frozenset[Term]] = set()
        out = []
        for node in self.nodes:
            if node in seen:
                continue
            comp = {node}
            stack = [node]
            while stack:
                for nxt in self._adjacency[stack.pop()]:
                    if nxt not in comp:
                        comp.add(nxt)
                        stack.append(nxt)
            seen.update(comp)
            out.append(frozenset(comp))
        return out


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
        self._gaifman = None

    def _check_safety(self):
        anchored = set()
        for a in self.atoms:
            if isinstance(a, (ConceptAtom, RoleAtom)):
                for t in a.terms:
                    anchored.add(self._eq.class_of(t))
        for v in self.variables():
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

    def gaifman(self) -> GaifmanGraph:
        if self._gaifman is None:
            self._gaifman = GaifmanGraph(self.atoms, self._eq)
        return self._gaifman

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
    """Every Gaifman component touches an answer variable or an individual."""
    head = set(q.answer_vars)
    for component in q.gaifman().components():
        if not any(
            any(isinstance(t, Const) or t in head for t in cls)
            for cls in component
        ):
            return False
    return True


def equality_consistent(q: CQ, z: Iterable[Var]) -> bool:
    """No equality links a variable of z with a term outside z."""
    zset = set(z)
    for a in q.atoms:
        if isinstance(a, EqualityAtom):
            sides = [t in zset if isinstance(t, Var) else False for t in a.terms]
            if sides[0] != sides[1]:
                return False
    return True


def ma_connected_partition(q: CQ, z: Iterable[Var]) -> list[frozenset[Var]]:
    """Partition z into its maximally-connected-in-the-anonymous-part subsets.

    Each subset is a union of equality classes and maximal among the classes
    of z connected in the Gaifman graph through nodes inside z.
    """
    zset = frozenset(z)
    if not zset:
        return []
    eq = q.equality_classes()
    graph = q.gaifman()
    z_classes = {eq.class_of(v) for v in zset}
    for cls in z_classes:
        if not cls <= zset:
            raise ValueError(f"{sorted(map(str, cls))} is not equality-consistent with z")
    seen: set[frozenset[Term]] = set()
    subsets: list[frozenset[Var]] = []
    for cls in z_classes:
        if cls in seen:
            continue
        comp = {cls}
        stack = [cls]
        while stack:
            for nxt in graph.neighbours(stack.pop()):
                if nxt in z_classes and nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen.update(comp)
        subsets.append(frozenset(v for c in comp for v in c))
    return sorted(subsets, key=lambda s: min(v.name for v in s))


def atoms_mentioning(q: CQ, vars_: Iterable[Var]) -> list[QueryAtom]:
    """The sub-conjunction of all atoms mentioning at least one given variable."""
    vset = set(vars_)
    return [a for a in q.atoms if any(t in vset for t in a.terms)]


def linking_candidates(q: CQ, z_prime: Iterable[Var], z: Iterable[Var] | None = None) -> list[RoleAtom]:
    """Role atoms of the z'-induced subquery with exactly one endpoint in z."""
    zp = set(z_prime)
    zfull = set(z) if z is not None else zp
    out = []
    for a in atoms_mentioning(q, zp):
        if not isinstance(a, RoleAtom):
            continue
        ends = [t in zfull if isinstance(t, Var) else False for t in a.terms]
        if ends[0] != ends[1]:
            out.append(a)
    return sorted(set(out), key=atom_key)


def linking_atom(q: CQ, z_prime: Iterable[Var], z: Iterable[Var] | None = None) -> RoleAtom:
    """The canonically least linking atom; exists for every rooted query.

    Atoms whose outward endpoint is a variable are preferred over atoms
    linking to an individual: the compiled form anchors the cluster's
    identifying equalities on that variable, and any answer is unchanged
    because the choice of linking atom never affects the evaluation.
    """
    zp = set(z_prime)
    zfull = set(z) if z is not None else zp
    candidates = linking_candidates(q, z_prime, z)
    if not candidates:
        raise InternalStructureError(
            f"no linking atom for {sorted(v.name for v in set(z_prime))}"
        )

    def outward_is_const(a: RoleAtom) -> bool:
        t = a.object if (isinstance(a.subject, Var) and a.subject in zfull) else a.subject
        return isinstance(t, Const)

    return min(candidates, key=lambda a: (outward_is_const(a), atom_key(a)))


def outward_terms(q: CQ, z_prime: Iterable[Var], z: Iterable[Var] | None = None) -> list[Term]:
    """All non-z terms mentioned in the z'-induced subquery, in canonical order."""
    zp = set(z_prime)
    zfull = set(z) if z is not None else zp
    out = set()
    for a in atoms_mentioning(q, zp):
        for t in a.terms:
            if isinstance(t, Const) or t not in zfull:
                out.add(t)
    return sorted(out, key=term_key)


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


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line=line, col=col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1] or 'end of input'!r}",
                             line=tok[2], col=tok[3])
        return tok

    def term(self) -> Term:
        tok = self.next()
        if tok[0] == "ident":
            return Var(tok[1])
        if tok[0] == "quoted":
            name = tok[1][1:-1]
            check_individual(name, line=tok[2])
            return Const(name)
        raise ParseError(f"expected a term, found {tok[1] or 'end of input'!r}",
                         line=tok[2], col=tok[3])


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
    # The tokenizer only admits identifiers starting with a letter, so user
    # variables can never collide with generated '_'-prefixed fresh variables.
    return CQ(answer_vars, atoms)
