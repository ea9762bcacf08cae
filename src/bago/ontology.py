"""Vocabulary, TBoxes, and bag ABoxes.

A TBox is a finite set of inclusion and disjointness axioms over concepts
(atomic names and existential restrictions over possibly-inverse roles) and,
for kind "r" only, over roles. A bag ABox maps ground assertions to positive
multiplicities, laid out once as name relations: one bag of name tuples per
(predicate, arity), which the bag algebra, the chase's stage 0 and the
satisfiability check read as they are; `parse_abox` merges each line straight
into them. All values are immutable after construction.

Entailment between concepts is reflexive-transitive reachability in the graph
whose edges are the concept inclusions, augmented (kind "r" only) with the
edges induced by role inclusions on the existential restrictions; a concept's
subsumees are reachability over the same edges reversed. Role entailment
closes the role-inclusion graph under inverse symmetry.

Text formats:

  TBox, one axiom per line, ``#`` comments, optional leading ``KIND CORE`` /
  ``KIND R`` directive (default CORE)::

      A SUB B
      EX R SUB B
      A SUB EX R-
      DISJ A EX R
      R SUBR S-      # kind R only
      DISJR R S      # kind R only

  ABox, one assertion per line, omitted count means 1, repeated lines sum (a
  sum past 2^64 - 1 is raised after the last line, so a bad line wins)::

      A(a) 3
      hasMngr(Lee,Hill) 2
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import U64_MAX, ParseError

CORE = "core"
R = "r"

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_INDIVIDUAL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def check_name(name, what, line=None):
    if not _NAME_RE.match(name):
        raise ParseError(f"invalid {what} name {name!r}", line=line)
    return name


def check_individual(name, line=None):
    if not _INDIVIDUAL_RE.match(name):
        raise ParseError(f"invalid individual name {name!r}", line=line)
    return name


@dataclass(frozen=True, order=True)
class Role:
    """An atomic role or its inverse; double inversion never occurs."""

    name: str
    inverted: bool = False

    @property
    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self):
        return self.name + ("-" if self.inverted else "")


@dataclass(frozen=True, order=True)
class AtomicConcept:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True, order=True)
class ExistsRole:
    role: Role

    def __str__(self):
        return f"EX {self.role}"


Concept = Union[AtomicConcept, ExistsRole]


def concept_key(c: Concept):
    """Canonical order: atomic concepts first, then existential restrictions."""
    if isinstance(c, AtomicConcept):
        return (0, c.name, False)
    return (1, c.role.name, c.role.inverted)


@dataclass(frozen=True)
class ConceptInclusion:
    sub: Concept
    sup: Concept

    def __str__(self):
        return f"{self.sub} SUB {self.sup}"


@dataclass(frozen=True)
class RoleInclusion:
    sub: Role
    sup: Role

    def __str__(self):
        return f"{self.sub} SUBR {self.sup}"


@dataclass(frozen=True)
class ConceptDisjointness:
    first: Concept
    second: Concept

    def __str__(self):
        return f"DISJ {self.first} {self.second}"


@dataclass(frozen=True)
class RoleDisjointness:
    first: Role
    second: Role

    def __str__(self):
        return f"DISJR {self.first} {self.second}"


Axiom = Union[ConceptInclusion, RoleInclusion, ConceptDisjointness, RoleDisjointness]


class TBox:
    """An immutable axiom set with cached entailment closures."""

    def __init__(self, axioms: Iterable[Axiom] = (), kind: str = CORE):
        if kind not in (CORE, R):
            raise ValueError(f"unknown TBox kind {kind!r}")
        axioms = frozenset(axioms)
        if kind == CORE:
            for ax in axioms:
                if isinstance(ax, (RoleInclusion, RoleDisjointness)):
                    raise ParseError(f"role axiom {ax} is not allowed in a core TBox")
        self.kind = kind
        self.axioms = axioms

        inclusions: list[tuple[Concept, Concept]] = []
        role_edges: dict[Role, set[Role]] = {}
        for ax in axioms:
            if isinstance(ax, ConceptInclusion):
                inclusions.append((ax.sub, ax.sup))
            elif isinstance(ax, RoleInclusion):
                for sub, sup in ((ax.sub, ax.sup), (ax.sub.inverse, ax.sup.inverse)):
                    role_edges.setdefault(sub, set()).add(sup)
                    inclusions.append((ExistsRole(sub), ExistsRole(sup)))
        concept_edges: dict[Concept, set[Concept]] = {}
        concept_back: dict[Concept, set[Concept]] = {}  # the same edges reversed
        for sub, sup in inclusions:
            concept_edges.setdefault(sub, set()).add(sup)
            concept_back.setdefault(sup, set()).add(sub)
        self._concept_edges = concept_edges
        self._concept_back = concept_back
        self._role_edges = role_edges
        self._concept_reach: dict[Concept, frozenset[Concept]] = {}
        self._role_reach: dict[Role, frozenset[Role]] = {}
        self._concept_subsumees: dict[Concept, tuple[Concept, ...]] = {}

    def __eq__(self, other):
        return (
            isinstance(other, TBox)
            and self.kind == other.kind
            and self.axioms == other.axioms
        )

    def __hash__(self):
        return hash((self.kind, self.axioms))

    def __repr__(self):
        return f"TBox(kind={self.kind!r}, axioms={len(self.axioms)})"

    @staticmethod
    def _reach(node, edges, cache):
        cached = cache.get(node)
        if cached is not None:
            return cached
        seen = {node}
        stack = [node]
        while stack:
            for nxt in edges.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        result = frozenset(seen)
        cache[node] = result
        return result

    def concepts_entailed_by(self, c: Concept) -> frozenset[Concept]:
        """All concepts D with this TBox entailing c ⊑ D (including c)."""
        return self._reach(c, self._concept_edges, self._concept_reach)

    def entails_concept(self, sub: Concept, sup: Concept) -> bool:
        return sup in self.concepts_entailed_by(sub)

    def roles_entailed_by(self, r: Role) -> frozenset[Role]:
        return self._reach(r, self._role_edges, self._role_reach)

    def entails_role(self, sub: Role, sup: Role) -> bool:
        return sup in self.roles_entailed_by(sub)

    def concept_subsumees(self, c: Concept) -> tuple[Concept, ...]:
        """All concepts C0 with C0 ⊑ c entailed, in canonical order."""
        cached = self._concept_subsumees.get(c)
        if cached is not None:
            return cached
        result = tuple(sorted(self._reach(c, self._concept_back, {}), key=concept_key))
        self._concept_subsumees[c] = result
        return result

    def concept_disjointness(self):
        return [ax for ax in self.axioms if isinstance(ax, ConceptDisjointness)]

    def role_disjointness(self):
        return [ax for ax in self.axioms if isinstance(ax, RoleDisjointness)]

    def to_text(self) -> str:
        lines = [f"KIND {self.kind.upper()}"]
        lines.extend(sorted(str(ax) for ax in self.axioms))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, order=True)
class ConceptAssertion:
    concept: str
    individual: str

    def __str__(self):
        return f"{self.concept}({self.individual})"


@dataclass(frozen=True, order=True)
class RoleAssertion:
    role: str
    subject: str
    object: str

    def __str__(self):
        return f"{self.role}({self.subject},{self.object})"


Assertion = Union[ConceptAssertion, RoleAssertion]


# (predicate, arity) -> bag of name tuples; a name can be a concept and a role.
Relations = dict[tuple[str, int], dict[tuple[str, ...], int]]


def _split(a: Assertion) -> tuple[tuple[str, int], tuple[str, ...]]:
    if isinstance(a, ConceptAssertion):
        return (a.concept, 1), (a.individual,)
    return (a.role, 2), (a.subject, a.object)


def _assertion(predicate: str, names: tuple[str, ...]) -> Assertion:
    return (ConceptAssertion if len(names) == 1 else RoleAssertion)(predicate, *names)


class BagABox:
    """A finite bag of ground assertions, kept as name relations.

    `relations` is the only store: {(predicate, arity): {tuple of names: m}},
    a concept assertion C(a) at (C, 1) with key (a,) and a role assertion
    R(a,b) at (R, 2) with key (a, b). Zero entries are never stored. Every
    other view is read off it: `entries` groups the assertions by predicate,
    not in insertion order, and `items` sorts them.
    """

    def __init__(self, entries: Mapping[Assertion, int] | Iterable[tuple[Assertion, int]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        self.relations: Relations = {}
        for assertion, count in items:
            if count < 1:
                raise ValueError(f"multiplicity of {assertion} must be >= 1, got {count}")
            key, names = _split(assertion)
            rel = self.relations.setdefault(key, {})
            rel[names] = rel.get(names, 0) + count
            if rel[names] > U64_MAX:
                raise ValueError(f"multiplicity of {assertion} exceeds the 64-bit range")

    def __eq__(self, other):
        return isinstance(other, BagABox) and self.relations == other.relations

    def __hash__(self):
        return hash(frozenset(self.entries()))

    def __len__(self):
        return sum(map(len, self.relations.values()))

    def __repr__(self):
        return f"BagABox({len(self)} assertions)"

    def items(self):
        """(assertion, multiplicity) pairs sorted by arity, predicate, then names."""
        return [(_assertion(p, names), m)
                for (p, _), rel in sorted(self.relations.items(), key=lambda kv: kv[0][::-1])
                for names, m in sorted(rel.items())]

    def entries(self):
        """(assertion, multiplicity) pairs grouped by predicate; `items` sorts them."""
        return [(_assertion(p, names), m)
                for (p, _), rel in self.relations.items() for names, m in rel.items()]

    def multiplicity(self, assertion: Assertion) -> int:
        key, names = _split(assertion)
        return self.relations.get(key, {}).get(names, 0)

    def support(self) -> frozenset[Assertion]:
        return frozenset(a for a, _ in self.entries())

    def individuals(self) -> tuple[str, ...]:
        return tuple(sorted({n for rel in self.relations.values() for names in rel for n in names}))

    def scaled(self, factor: int) -> "BagABox":
        """The same support with every multiplicity scaled by a positive factor."""
        if factor < 1:
            raise ValueError("scaling factor must be positive")
        return BagABox((a, m * factor) for a, m in self.entries())

    def flattened(self) -> "BagABox":
        """The support with all multiplicities forced to 1."""
        return BagABox((a, 1) for a in self.support())

    def to_text(self) -> str:
        return "".join(f"{a} {m}\n" for a, m in self.items())


@dataclass(frozen=True)
class BagOntology:
    tbox: TBox
    abox: BagABox


# -- satisfiability ----------------------------------------------------------

def _disjoint_with(axioms) -> dict:
    """Each first side of a disjointness axiom, mapped to its second sides."""
    index: dict = {}
    for ax in axioms:
        index.setdefault(ax.first, set()).add(ax.second)
    return index


def is_satisfiable(k: BagOntology) -> bool:
    """Decide whether the ontology has a bag model.

    Bag satisfiability coincides with set satisfiability of the support, so
    only the support of the ABox is consulted: multiplicities never matter.
    Names seeded with the same concepts are closed once, and each closure is
    checked against an index of the declared disjoint pairs.
    """
    tbox = k.tbox
    concept_disj = _disjoint_with(tbox.concept_disjointness())
    role_disj = _disjoint_with(tbox.role_disjointness())
    if not concept_disj and not role_disj:
        return True

    def violates(index, entailed):
        return any(c in index and not index[c].isdisjoint(entailed) for c in entailed)

    # Named individuals: the concepts each one is seeded with, the roles of each pair.
    seeds: dict[str, set[Concept]] = {}
    pair_roles: dict[tuple[str, str], set[Role]] = {}
    for (name, arity), rel in k.abox.relations.items():
        if arity == 1:
            concept = AtomicConcept(name)
            for (a,) in rel:
                seeds.setdefault(a, set()).add(concept)
            continue
        role = Role(name)
        ex, ex_inverse = ExistsRole(role), ExistsRole(role.inverse)
        forward, backward = tbox.roles_entailed_by(role), tbox.roles_entailed_by(role.inverse)
        for u, v in rel:
            seeds.setdefault(u, set()).add(ex)
            seeds.setdefault(v, set()).add(ex_inverse)
            if role_disj:
                pair_roles.setdefault((u, v), set()).update(forward)
                pair_roles.setdefault((v, u), set()).update(backward)
    if any(violates(role_disj, roles) for roles in pair_roles.values()):
        return False
    named: set[Concept] = set()
    for base in {frozenset(b) for b in seeds.values()}:
        entailed = set().union(*map(tbox.concepts_entailed_by, base))
        if violates(concept_disj, entailed):
            return False
        named |= entailed

    # Activated roles: roles whose anonymous witnesses the chase could force.
    # A witness along a role has the closure of its inverse's EX and a fresh
    # edge in both orientations.
    frontier = [c.role for c in named if isinstance(c, ExistsRole)]
    activated = set(frontier)
    while frontier:
        role = frontier.pop()
        closure = tbox.concepts_entailed_by(ExistsRole(role.inverse))
        if (violates(concept_disj, closure)
                or violates(role_disj, tbox.roles_entailed_by(role))
                or violates(role_disj, tbox.roles_entailed_by(role.inverse))):
            return False
        for c in closure:
            if isinstance(c, ExistsRole) and c.role not in activated:
                activated.add(c.role)
                frontier.append(c.role)
    return True


# -- text formats ------------------------------------------------------------

def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_role_token(token: str, line=None) -> Role:
    inverted = token.endswith("-")
    name = token[:-1] if inverted else token
    check_name(name, "role", line)
    return Role(name, inverted)


def _parse_concept_tokens(tokens: list[str], lineno: int) -> Concept:
    if len(tokens) == 1:
        return AtomicConcept(check_name(tokens[0], "concept", lineno))
    if len(tokens) == 2 and tokens[0] == "EX":
        return ExistsRole(_parse_role_token(tokens[1], lineno))
    raise ParseError(f"malformed concept {' '.join(tokens)!r}", line=lineno)


def parse_tbox(text: str) -> TBox:
    kind = CORE
    kind_seen = False
    axioms: list[Axiom] = []
    saw_axiom = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _strip_comment(raw).split()
        if not tokens:
            continue
        if tokens[0] == "KIND":
            if kind_seen or saw_axiom:
                raise ParseError("KIND directive must be the first line", line=lineno)
            if len(tokens) != 2 or tokens[1] not in ("CORE", "R"):
                raise ParseError("expected KIND CORE or KIND R", line=lineno)
            kind = CORE if tokens[1] == "CORE" else R
            kind_seen = True
            continue
        saw_axiom = True
        if tokens[0] == "DISJ":
            body = tokens[1:]
            if not body:
                raise ParseError("expected DISJ <concept> <concept>", line=lineno)
            # Operand split: each operand is one token or an `EX role` pair.
            first_len = 2 if body[0] == "EX" else 1
            first = _parse_concept_tokens(body[:first_len], lineno)
            second = _parse_concept_tokens(body[first_len:], lineno)
            axioms.append(ConceptDisjointness(first, second))
        elif tokens[0] == "DISJR":
            if len(tokens) != 3:
                raise ParseError("expected DISJR <role> <role>", line=lineno)
            if kind != R:
                raise ParseError("role axioms require KIND R", line=lineno)
            axioms.append(
                RoleDisjointness(
                    _parse_role_token(tokens[1], lineno),
                    _parse_role_token(tokens[2], lineno),
                )
            )
        elif "SUBR" in tokens:
            if tokens.count("SUBR") != 1:
                raise ParseError("malformed role inclusion", line=lineno)
            if kind != R:
                raise ParseError("role axioms require KIND R", line=lineno)
            i = tokens.index("SUBR")
            if i != 1 or len(tokens) != 3:
                raise ParseError("expected <role> SUBR <role>", line=lineno)
            axioms.append(
                RoleInclusion(
                    _parse_role_token(tokens[0], lineno),
                    _parse_role_token(tokens[2], lineno),
                )
            )
        elif "SUB" in tokens:
            if tokens.count("SUB") != 1:
                raise ParseError("malformed concept inclusion", line=lineno)
            i = tokens.index("SUB")
            sub = _parse_concept_tokens(tokens[:i], lineno)
            sup = _parse_concept_tokens(tokens[i + 1 :], lineno)
            axioms.append(ConceptInclusion(sub, sup))
        else:
            raise ParseError(f"unrecognized axiom {' '.join(tokens)!r}", line=lineno)
    return TBox(axioms, kind=kind)


_ASSERTION_RE = re.compile(
    r"(?P<pred>[A-Za-z][A-Za-z0-9_]*)\(\s*(?P<a1>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"(?:,\s*(?P<a2>[A-Za-z_][A-Za-z0-9_]*)\s*)?\)\s*(?:(?P<count>\d+)\s*)?\Z"
)


def parse_abox(text: str) -> BagABox:
    """One pass per line, each merged straight into `BagABox.relations`.

    A bad line raises at its line. A sum past 2^64 - 1 raises only after every
    line has parsed (a later bad line wins), naming the first one to cross.
    """
    relations: Relations = {}
    overflow = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        if not stripped:
            continue
        m = _ASSERTION_RE.match(stripped)
        if not m:
            raise ParseError(f"malformed assertion {stripped!r}", line=lineno)
        pred, a1, a2, count = m.groups()
        try:
            count = int(count) if count else 1
        except ValueError:  # past int()'s digit limit; `\d` admits any decimal digit
            digits = "".join(map(str, map(int, count))).lstrip("0")
            if len(digits) > 20:  # U64_MAX has 20 digits
                raise ParseError("multiplicity exceeds the 64-bit range", line=lineno) from None
            count = int(digits or "0")
        if count < 1:
            raise ParseError("multiplicity must be a positive integer", line=lineno)
        if count > U64_MAX:
            raise ParseError("multiplicity exceeds the 64-bit range", line=lineno)
        names = (a1,) if a2 is None else (a1, a2)
        rel = relations.setdefault((pred, len(names)), {})
        total = rel[names] = rel.get(names, 0) + count
        if total > U64_MAX and overflow is None:
            overflow = f"{pred}({','.join(names)})"
    if overflow is not None:  # summed repeated lines left the 64-bit range
        raise ParseError(f"multiplicity of {overflow} exceeds the 64-bit range")
    abox = BagABox()
    abox.relations = relations
    return abox
