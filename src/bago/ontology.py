"""Vocabulary, TBoxes, and bag ABoxes.

A TBox is a finite set of inclusion and disjointness axioms over concepts
(atomic names and existential restrictions over possibly-inverse roles) and,
for kind "r" only, over roles. A bag ABox maps ground assertions to positive
multiplicities. All values are immutable after construction.

Entailment between concepts is reflexive-transitive reachability in the graph
whose edges are the concept inclusions, augmented (kind "r" only) with the
edges induced by role inclusions on the existential restrictions. Role
entailment closes the role-inclusion graph under inverse symmetry.

Text formats:

  TBox, one axiom per line, ``#`` comments, optional leading ``KIND CORE`` /
  ``KIND R`` directive (default CORE)::

      A SUB B
      EX R SUB B
      A SUB EX R-
      DISJ A EX R
      R SUBR S-      # kind R only
      DISJR R S      # kind R only

  ABox, one assertion per line, omitted count means 1, repeated lines sum::

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
RESERVED_INDIVIDUAL_PREFIX = "_probe_"


def check_name(name, what, line=None):
    if not _NAME_RE.match(name):
        raise ParseError(f"invalid {what} name {name!r}", line=line)
    return name


def check_individual(name, line=None):
    if not _INDIVIDUAL_RE.match(name):
        raise ParseError(f"invalid individual name {name!r}", line=line)
    if name.startswith(RESERVED_INDIVIDUAL_PREFIX):
        raise ParseError(
            f"individual name {name!r} uses the reserved prefix "
            f"{RESERVED_INDIVIDUAL_PREFIX!r}",
            line=line,
        )
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

        concept_edges: dict[Concept, set[Concept]] = {}
        role_edges: dict[Role, set[Role]] = {}
        for ax in axioms:
            if isinstance(ax, ConceptInclusion):
                concept_edges.setdefault(ax.sub, set()).add(ax.sup)
                concept_edges.setdefault(ax.sup, set())
            elif isinstance(ax, RoleInclusion):
                for sub, sup in ((ax.sub, ax.sup), (ax.sub.inverse, ax.sup.inverse)):
                    role_edges.setdefault(sub, set()).add(sup)
                    role_edges.setdefault(sup, set())
                    concept_edges.setdefault(ExistsRole(sub), set()).add(ExistsRole(sup))
                    concept_edges.setdefault(ExistsRole(sup), set())
        self._concept_edges = concept_edges
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
        found = {c}
        for node in self._concept_edges:
            if c in self.concepts_entailed_by(node):
                found.add(node)
        result = tuple(sorted(found, key=concept_key))
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


def entails_concept(tbox: TBox, sub: Concept, sup: Concept) -> bool:
    return tbox.entails_concept(sub, sup)


def entails_role(tbox: TBox, sub: Role, sup: Role) -> bool:
    return tbox.entails_role(sub, sup)


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


def _assertion_key(a: Assertion):
    if isinstance(a, ConceptAssertion):
        return (0, a.concept, a.individual, "")
    return (1, a.role, a.subject, a.object)


class BagABox:
    """A finite bag of ground assertions; zero entries are never stored."""

    def __init__(self, entries: Mapping[Assertion, int] | Iterable[tuple[Assertion, int]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        merged: dict[Assertion, int] = {}
        for assertion, count in items:
            if count < 1:
                raise ValueError(f"multiplicity of {assertion} must be >= 1, got {count}")
            merged[assertion] = merged.get(assertion, 0) + count
            if merged[assertion] > U64_MAX:
                raise ValueError(f"multiplicity of {assertion} exceeds the 64-bit range")
        self._entries = merged

    def __eq__(self, other):
        return isinstance(other, BagABox) and self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return f"BagABox({len(self._entries)} assertions)"

    def items(self):
        return sorted(self._entries.items(), key=lambda kv: _assertion_key(kv[0]))

    def entries(self):
        """(assertion, multiplicity) pairs in insertion order; `items` sorts them."""
        return self._entries.items()

    def multiplicity(self, assertion: Assertion) -> int:
        return self._entries.get(assertion, 0)

    def support(self) -> frozenset[Assertion]:
        return frozenset(self._entries)

    def individuals(self) -> tuple[str, ...]:
        names = set()
        for a in self._entries:
            if isinstance(a, ConceptAssertion):
                names.add(a.individual)
            else:
                names.add(a.subject)
                names.add(a.object)
        return tuple(sorted(names))

    def scaled(self, factor: int) -> "BagABox":
        """The same support with every multiplicity scaled by a positive factor."""
        if factor < 1:
            raise ValueError("scaling factor must be positive")
        return BagABox({a: m * factor for a, m in self._entries.items()})

    def flattened(self) -> "BagABox":
        """The support with all multiplicities forced to 1."""
        return BagABox({a: 1 for a in self._entries})

    def to_text(self) -> str:
        return "".join(f"{a} {m}\n" for a, m in self.items())


@dataclass(frozen=True)
class BagOntology:
    tbox: TBox
    abox: BagABox


# -- satisfiability ----------------------------------------------------------

def is_satisfiable(k: BagOntology) -> bool:
    """Decide whether the ontology has a bag model.

    Bag satisfiability coincides with set satisfiability of the support, so
    only the support of the ABox is consulted: multiplicities never matter.
    """
    tbox, abox = k.tbox, k.abox
    concept_disj = tbox.concept_disjointness()
    role_disj = tbox.role_disjointness()
    if not concept_disj and not role_disj:
        return True

    def violates_concepts(entailed):
        return any(
            ax.first in entailed and ax.second in entailed for ax in concept_disj
        )

    def violates_roles(entailed):
        return any(ax.first in entailed and ax.second in entailed for ax in role_disj)

    # Named individuals: close the asserted concept memberships.
    seeds: dict[str, set[Concept]] = {}
    pair_roles: dict[tuple[str, str], set[Role]] = {}
    for assertion in abox.support():
        if isinstance(assertion, ConceptAssertion):
            seeds.setdefault(assertion.individual, set()).add(
                AtomicConcept(assertion.concept)
            )
        else:
            role = Role(assertion.role)
            seeds.setdefault(assertion.subject, set()).add(ExistsRole(role))
            seeds.setdefault(assertion.object, set()).add(ExistsRole(role.inverse))
            pair = (assertion.subject, assertion.object)
            pair_roles.setdefault(pair, set()).update(tbox.roles_entailed_by(role))
            rpair = (assertion.object, assertion.subject)
            pair_roles.setdefault(rpair, set()).update(
                tbox.roles_entailed_by(role.inverse)
            )

    entailed_at: dict[str, set[Concept]] = {}
    for individual, base in seeds.items():
        entailed = set()
        for c in base:
            entailed.update(tbox.concepts_entailed_by(c))
        entailed_at[individual] = entailed
        if violates_concepts(entailed):
            return False

    for roles in pair_roles.values():
        if violates_roles(roles):
            return False

    # Activated roles: roles whose anonymous witnesses the chase could force.
    activated: set[Role] = set()
    frontier: list[Role] = []
    for entailed in entailed_at.values():
        for c in entailed:
            if isinstance(c, ExistsRole) and c.role not in activated:
                activated.add(c.role)
                frontier.append(c.role)
    closures: dict[Role, frozenset[Concept]] = {}
    while frontier:
        role = frontier.pop()
        closure = tbox.concepts_entailed_by(ExistsRole(role.inverse))
        closures[role] = closure
        for c in closure:
            if isinstance(c, ExistsRole) and c.role not in activated:
                activated.add(c.role)
                frontier.append(c.role)

    for role in activated:
        if violates_concepts(closures[role]):
            return False
        # Both orientations of the fresh edge created for this role.
        if violates_roles(tbox.roles_entailed_by(role)):
            return False
        if violates_roles(tbox.roles_entailed_by(role.inverse)):
            return False
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
    entries: list[tuple[Assertion, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        if not stripped:
            continue
        m = _ASSERTION_RE.match(stripped)
        if not m:
            raise ParseError(f"malformed assertion {stripped!r}", line=lineno)
        count = int(m.group("count")) if m.group("count") else 1
        if count < 1:
            raise ParseError("multiplicity must be a positive integer", line=lineno)
        if count > U64_MAX:
            raise ParseError("multiplicity exceeds the 64-bit range", line=lineno)
        if m.group("a2") is None:
            check_individual(m.group("a1"), lineno)
            entries.append((ConceptAssertion(m.group("pred"), m.group("a1")), count))
        else:
            check_individual(m.group("a1"), lineno)
            check_individual(m.group("a2"), lineno)
            entries.append(
                (RoleAssertion(m.group("pred"), m.group("a1"), m.group("a2")), count)
            )
    try:
        return BagABox(entries)
    except ValueError as exc:  # summed repeated lines can leave the 64-bit range
        raise ParseError(str(exc)) from None
