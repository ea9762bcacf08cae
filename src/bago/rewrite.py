"""Compilation of rooted queries into bag-algebra queries.

A subset z of the existential variables is sent to the anonymous part of the
canonical model. It can be exactly when each of its maximal clusters
(connected unions of equality classes that hold only existential variables)
is realisable, and a cluster's verdict depends on the cluster alone, since
all its Gaifman neighbours lie outside z. The compiler therefore (1) decides
the realisability of every cluster once: one scan of its atoms rejects a
cluster that fails the tree-witness shape condition, and a two-individual
probe decides each of the others. The all-existential classes fall into
connected components; a cluster never spans two of them and an atom touches
at most one, so the choices of z inside different components are
independent. For each component on its own, the compiler (2) forms every
alternative as a set of pairwise non-adjacent realisable clusters, (3)
collapses each cluster of it to its single linking atom plus identifying
equalities, and (4) chases the collapsed atoms of the component back
through the TBox: concept atoms become max unions of
entailed subsumees, and the linking atoms become those unions minus the
atoms already accounted for by named successors, so that anonymous
witnesses are counted exactly once. Each component compiles to the
arithmetic union of its alternatives, with its own existential variables
projected inside; joined with the atoms outside every component, this is
the arithmetic union over every z (joins and projections distribute over
arithmetic unions in the N-semiring), and it evaluates over the bare ABox
to the same bag as the chase path. A branch, one per z, is built only when
it is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable, Iterable, Mapping, Optional

from .errors import (
    InternalStructureError,
    MultipleAnchors,
    NotEqualityConsistent,
    NotRooted,
    RewriteLimitExceeded,
    UnsatisfiableOntology,
    UnsupportedTBoxKind,
)
from .ontology import (
    CORE,
    AtomicConcept,
    BagABox,
    BagOntology,
    Concept,
    ExistsRole,
    Role,
    RoleAssertion,
    TBox,
)
# Unused here; kept because perfbench's traced run wraps bago.rewrite.interpretation_from_abox.
from .chase import _View, chase, interpretation_from_abox, required_depth
from .bagalg import (
    AnswerBag,
    BALGQuery,
    BalgArithUnion,
    BalgAtom,
    BalgDiff,
    BalgEqFilter,
    BalgJoin,
    BalgMaxUnion,
    BalgProject,
    eval_balg,
    eval_cq_neq,
)
from .query import (
    CQ,
    ConceptAtom,
    Const,
    EqClasses,
    EqualityAtom,
    InequalityAtom,
    RoleAtom,
    Term,
    Var,
    atoms_mentioning,
    is_rooted,
    linking_atom,
    ma_connected_partition,
    outward_terms,
    term_key,
)

# The probe's individuals lie outside the individual-name grammar, so no
# query constant or ABox name can be either of them.
PROBE_ANCHOR = "@anchor"
PROBE_FRESH = "@fresh"

REALISABLE = "realisable"
NOT_EQUALITY_CONSISTENT = "not-equality-consistent"
UNREALISABLE = "unrealisable"

# Clusters found plus component alternatives emitted, per rewriting. A cluster
# gets at most one probe, so this bounds the probes too.
REWRITE_BUDGET = 1024
# Reading a branch or its certificate first puts every z in subset order, in
# time and memory linear in their number; past this many, reading refuses.
MAX_LISTED_BRANCHES = 1 << 16

@dataclass(frozen=True)
class ProbeWitness:
    subset: frozenset[Var]
    alpha: RoleAtom
    anchor: str
    value: int


@dataclass(frozen=True)
class RealisabilityCertificate:
    z: frozenset[Var]
    verdict: str
    witnesses: tuple[ProbeWitness, ...] = ()
    failing: Optional[frozenset[Var]] = None

    @property
    def realisable(self) -> bool:
        return self.verdict == REALISABLE


def _misshapen(q: CQ, cluster: frozenset[Var]) -> bool:
    """Whether the cluster fails the tree-witness shape condition, so that no
    probe can realise it.

    Over a core TBox an anonymous element meets the rest of the model only
    through the edge it was born on, and the probe's fresh individual only
    through its one assertion. So every role atom between the cluster and an
    outward term (all of which the probe sends to its anchor) must read as
    one role in one direction from the outward term, and no role atom may
    join two terms of one equality class inside the cluster: neither kind of
    element has a self-loop. As in `linking_atom`, the cluster alone
    decides.
    """
    eq = q.equality_classes()
    link = None
    for a in atoms_mentioning(q, cluster):
        if not isinstance(a, RoleAtom):
            continue
        sub_in, obj_in = a.subject in cluster, a.object in cluster
        if sub_in and obj_in:
            if eq.class_of(a.subject) == eq.class_of(a.object):
                return True
        elif link is None:
            link = (a.role, sub_in)
        elif link != (a.role, sub_in):
            return True
    return False


def build_probe(q: CQ, cluster: frozenset[Var],
                alpha: RoleAtom | None = None) -> tuple[CQ, BagABox, str]:
    """The Boolean probe, its one-assertion ABox, and the anchor individual.

    As in `linking_atom`, the cluster alone decides. Raises
    MultipleAnchors when the cluster links outward to two distinct
    individuals; the cluster is then unrealisable regardless of any choice.
    """
    if alpha is None:
        alpha = linking_atom(q, cluster)
    outward = outward_terms(q, cluster)
    anchors = sorted({t.name for t in outward if isinstance(t, Const)})
    if len(anchors) > 1:
        raise MultipleAnchors(
            f"cluster {sorted(v.name for v in cluster)} is linked to individuals "
            f"{anchors[0]!r} and {anchors[1]!r}"
        )
    anchor = anchors[0] if anchors else PROBE_ANCHOR
    atoms = list(atoms_mentioning(q, cluster))
    for t in outward:
        if isinstance(t, Var):
            atoms.append(EqualityAtom(t, Const(anchor)))
    for v in sorted(cluster, key=term_key):
        atoms.append(InequalityAtom(v, Const(anchor)))
    probe = CQ((), atoms, allow_inequalities=True)
    if alpha.object in cluster:
        abox = BagABox({RoleAssertion(alpha.role, anchor, PROBE_FRESH): 1})
    else:
        abox = BagABox({RoleAssertion(alpha.role, PROBE_FRESH, anchor): 1})
    return probe, abox, anchor


def is_realisable(tbox: TBox, q: CQ, z: Iterable[Var]) -> RealisabilityCertificate:
    """Decide whether z can be folded into the anonymous part of the chase.

    Raises NotRooted when a cluster of z links to no term outside it.
    """
    if tbox.kind != CORE:
        raise UnsupportedTBoxKind("realisability is defined for core TBoxes")
    zset = frozenset(z)
    try:
        clusters = ma_connected_partition(q, zset)
    except NotEqualityConsistent:
        return RealisabilityCertificate(zset, NOT_EQUALITY_CONSISTENT)
    witnesses = []
    for cluster in clusters:
        # Either refusal decides the cluster with no probe built.
        if _misshapen(q, cluster):
            return RealisabilityCertificate(zset, UNREALISABLE, failing=cluster)
        try:
            alpha = linking_atom(q, cluster)
            probe, probe_abox, anchor = build_probe(q, cluster, alpha=alpha)
        except MultipleAnchors:
            return RealisabilityCertificate(zset, UNREALISABLE, failing=cluster)
        try:
            probe_chase = chase(BagOntology(tbox, probe_abox), required_depth(probe))
        except UnsatisfiableOntology:  # no model has an edge along alpha's role
            return RealisabilityCertificate(zset, UNREALISABLE, failing=cluster)
        value = eval_cq_neq(probe, probe_chase.union).get(())
        witness = ProbeWitness(cluster, alpha, anchor, value)
        if value < 1:
            return RealisabilityCertificate(zset, UNREALISABLE, witnesses=(witness,),
                                            failing=cluster)
        witnesses.append(witness)
    return RealisabilityCertificate(zset, REALISABLE, witnesses=tuple(witnesses))


def _link_atoms(q: CQ, cluster: frozenset[Var], alpha: RoleAtom) -> list:
    """A cluster's replacement: its linking atom plus identifying equalities,
    each outward variable equated with every individual and every later term
    (individuals sort first)."""
    outward = outward_terms(q, cluster)
    named = [t for t in outward if isinstance(t, Const)]
    return [alpha] + [EqualityAtom(y, t) for i, y in enumerate(outward) if isinstance(y, Var)
                      for t in named + outward[i + 1:]]


def _substitute(q: CQ, replacement: Mapping[frozenset[Var], list]) -> CQ:
    """Put each cluster's replacement where the cluster's first atom stood."""
    if not replacement:
        return q
    owner = {v: subset for subset in replacement for v in subset}
    emitted: set[frozenset[Var]] = set()
    new_atoms = []
    for atom in q.atoms:
        touched = {owner[t] for t in atom.terms if isinstance(t, Var) and t in owner}
        if not touched:
            new_atoms.append(atom)
            continue
        subset = touched.pop()
        if subset not in emitted:
            emitted.add(subset)
            new_atoms.extend(replacement[subset])
    return CQ(q.answer_vars, new_atoms)


def collapse(q: CQ, z: Iterable[Var]) -> CQ:
    """Replace each ma-connected cluster by its linking atom plus equalities.

    Raises NotEqualityConsistent when an equality links z to a term outside
    it, and NotRooted when a cluster links to no term outside it.
    """
    return _substitute(q, {
        cluster: _link_atoms(q, cluster, linking_atom(q, cluster))
        for cluster in ma_connected_partition(q, z)
    })


# Every fresh variable is this one name: each sits in one atom projected away
# right above it, query variables cannot start with `_`, and evaluation keys by
# position. So no operator sees two, and equal subterms print identically.
_Z = Var("_z")


def _zeta(concept: Concept, t: Term) -> BALGQuery:
    """Atom template: A(t), or a projected role atom for EX R / EX R-."""
    if isinstance(concept, AtomicConcept):
        return BalgAtom(concept.name, (t,))
    role = concept.role
    terms = (_Z, t) if role.inverted else (t, _Z)
    return BalgProject((_Z,), BalgAtom(role.name, terms))


def _eta(tbox: TBox, concept: Concept, t: Term) -> BALGQuery:
    """Max union of the atom templates of all entailed subsumees."""
    node = None
    for sub in tbox.concept_subsumees(concept):
        piece = _zeta(sub, t)
        node = piece if node is None else BalgMaxUnion(node, piece)
    return node


def _theta(tbox: TBox, role: Role, t: Term) -> BALGQuery:
    """Entailed successors minus the ones already present as plain atoms."""
    return BalgDiff(_eta(tbox, ExistsRole(role), t), _zeta(ExistsRole(role), t))


def chase_back(q_z: CQ, z: Iterable[Var], tbox: TBox) -> BALGQuery:
    """Rewrite a collapsed query so it evaluates over the bare ABox."""
    if tbox.kind != CORE:
        raise UnsupportedTBoxKind("chase-back is defined for core TBoxes")
    existential = set(q_z.existential_vars())
    zset = frozenset(z) & existential
    conjuncts, equalities, always_empty = _translate(q_z.atoms, zset, tbox)
    return _close(conjuncts, equalities, always_empty, q_z.equality_classes(),
                  existential - zset)


def _translate(items: Iterable, zset: frozenset[Var], tbox: TBox):
    """Concept and role atoms as compiled conjuncts, equality atoms as pairs,
    and whether two distinct individuals are equated.

    Items that are not query atoms (a component's slot) stay in place among
    the conjuncts.
    """
    conjuncts: list = []
    equalities: list[tuple[Term, Term]] = []
    always_empty = False
    for atom in items:
        if isinstance(atom, ConceptAtom):
            if atom.term in zset:
                raise InternalStructureError(f"unexpected concept atom {atom} on z")
            conjuncts.append(_eta(tbox, AtomicConcept(atom.concept), atom.term))
        elif isinstance(atom, RoleAtom):
            sub_in = isinstance(atom.subject, Var) and atom.subject in zset
            obj_in = isinstance(atom.object, Var) and atom.object in zset
            if sub_in and obj_in:
                raise InternalStructureError(f"unexpected all-z role atom {atom}")
            if obj_in:
                conjuncts.append(_theta(tbox, Role(atom.role), atom.subject))
            elif sub_in:
                conjuncts.append(_theta(tbox, Role(atom.role, True), atom.object))
            else:
                conjuncts.append(BalgAtom(atom.role, (atom.subject, atom.object)))
        elif isinstance(atom, EqualityAtom):
            left, right = atom.left, atom.right
            if isinstance(left, Const) and isinstance(right, Const):
                if left != right:
                    always_empty = True
                continue
            equalities.append((left, right))
        elif isinstance(atom, InequalityAtom):
            raise InternalStructureError("inequality atoms cannot be rewritten")
        else:
            conjuncts.append(atom)
    return conjuncts, equalities, always_empty


def _close(conjuncts: list[BALGQuery], equalities: list[tuple[Term, Term]],
           always_empty: bool, eq: EqClasses, existential: Iterable[Var]) -> BALGQuery:
    """Join the conjuncts, filter by the equalities, project the existential
    variables away, and empty the result if two individuals were equated.

    Each join takes the first remaining conjunct that shares a variable with
    those already joined, so that no product of unrelated conjuncts is built
    before the one that links them; only when none does is the next one in
    atom order taken.
    """
    node, unjoined = conjuncts[0], list(conjuncts[1:])
    while unjoined:
        joined = set(node.answer_vars)
        pick = next((i for i, piece in enumerate(unjoined)
                     if not joined.isdisjoint(piece.answer_vars)), 0)
        node = BalgJoin(node, unjoined.pop(pick))

    pending = list(equalities)
    while pending:
        progressed = False
        rest = []
        bound = set(node.answer_vars)
        for left, right in pending:
            if left == right:
                progressed = True
                continue
            if isinstance(left, Var) and left in bound:
                node = BalgEqFilter(node, left, right)
            elif isinstance(right, Var) and right in bound:
                node = BalgEqFilter(node, right, left)
            else:
                rest.append((left, right))
                continue
            bound = set(node.answer_vars)
            progressed = True
        if not progressed:
            # Residual equalities live in classes whose variables occur in no
            # concept/role atom. Safety pins each such class to an individual,
            # so every variable admits exactly one named value: the equalities
            # multiply by 1 and can be dropped. Two distinct individuals in
            # one class make the query empty. Pinned answer variables are
            # restored as constant columns by evaluate_rewriting; the query
            # grammar itself has no constant-column former.
            for left, right in rest:
                anchor = left if isinstance(left, Var) else right
                consts = eq.constants_of(anchor)
                if not consts:
                    raise InternalStructureError(
                        f"equality {left} = {right} is detached from all atoms"
                    )
                if len(consts) > 1:
                    always_empty = True
            pending = []
            continue
        pending = rest

    project_away = tuple(
        v for v in sorted(existential, key=term_key) if v in set(node.answer_vars)
    )
    if project_away:
        node = BalgProject(project_away, node)
    if always_empty:
        node = BalgDiff(node, node)
    return node


@dataclass(frozen=True)
class RewriteBranch:
    z: frozenset[Var]
    collapsed: CQ
    compiled: BALGQuery


@dataclass(frozen=True)
class Rewriting:
    """A compiled query, with its branches and certificates as views.

    `branches` (one per realisable z, in subset order) and the leading
    certificates are built from the per-component alternatives when read;
    their length is known without building any.
    """

    source: CQ
    tbox: TBox
    branches: Sequence[RewriteBranch]
    combined: BALGQuery
    certificates: Sequence[RealisabilityCertificate]


def _clusters(q: CQ) -> list[tuple[frozenset[Var], int, int]]:
    """Every connected union of equality classes that hold only existential
    variables: its variables, its classes as a bitmask, and the bitmask of
    the classes in it or adjacent to it.

    A class holding an answer variable or an individual is never part of an
    equality-consistent z, so no cluster contains one. Each cluster found
    counts against REWRITE_BUDGET.
    """
    head = set(q.answer_vars)
    eq, graph = q.equality_classes(), q.gaifman
    bit: dict[frozenset[Term], int] = {}
    for v in q.existential_vars():
        cls = eq.class_of(v)
        if cls not in bit and all(isinstance(t, Var) and t not in head for t in cls):
            bit[cls] = 1 << len(bit)
    if len(bit) > REWRITE_BUDGET:
        raise _over_budget()
    classes = list(bit)
    adjacent = [sum(bit[n] for n in graph[cls] if n in bit) for cls in classes]

    def members(mask: int) -> list[int]:
        return [i for i in range(len(classes)) if mask >> i & 1]

    def reach(mask: int) -> int:
        out = mask
        for i in members(mask):
            out |= adjacent[i]
        return out

    found = set(bit.values())
    frontier = list(found)
    while frontier:
        grown = []
        for mask in frontier:
            for i in members(reach(mask) & ~mask):
                bigger = mask | 1 << i
                if bigger not in found:
                    found.add(bigger)
                    grown.append(bigger)
                    if len(found) > REWRITE_BUDGET:
                        raise _over_budget()
        frontier = grown
    return [
        (frozenset(v for i in members(mask) for v in classes[i]), mask, reach(mask))
        for mask in found
    ]


def _over_budget() -> RewriteLimitExceeded:
    return RewriteLimitExceeded(
        f"rewriting needs more than {REWRITE_BUDGET:,} clusters and component "
        "alternatives"
    )


def _balanced_union(nodes: list[BALGQuery]) -> BALGQuery:
    """Arithmetic union of the nodes, pairing neighbours level by level, so
    the tree is logarithmically deep in the number of branches."""
    while len(nodes) > 1:
        paired = [BalgArithUnion(a, b) for a, b in zip(nodes[::2], nodes[1::2])]
        nodes = paired + nodes[len(paired) * 2:]
    return nodes[0]


@dataclass
class _Factors:
    """The pieces a rewriting is assembled from.

    Per component: its alternatives in subset order, each a z with its
    clusters, and their compiled nodes. Outside the components: the compiled
    conjuncts in atom order, with a component's index where its first atom
    stood, and the equality atoms.
    """

    q: CQ
    alternatives: list[list[tuple[frozenset[Var], tuple[frozenset[Var], ...]]]]
    nodes: list[list[BALGQuery]]
    conjuncts: list
    equalities: list[tuple[Term, Term]]
    always_empty: bool
    witness: dict[frozenset[Var], ProbeWitness]
    replacement: dict[frozenset[Var], list]
    order_key: Callable
    _order: Optional[list[tuple[int, ...]]] = None

    def count(self) -> int:
        return prod(len(alts) for alts in self.alternatives)

    def assemble(self, parts: list[BALGQuery]) -> BALGQuery:
        """The outside conjuncts joined with one node per component."""
        conjuncts = [parts[c] if isinstance(c, int) else c for c in self.conjuncts]
        return _close(conjuncts, self.equalities, self.always_empty,
                      self.q.equality_classes(), self.q.existential_vars())

    def _choice(self, j: int):
        """The j-th z in subset order: one alternative index per component."""
        if self._order is None:
            if self.count() > MAX_LISTED_BRANCHES:
                raise RewriteLimitExceeded(
                    f"{self.count():,} branches; at most {MAX_LISTED_BRANCHES:,} can be listed"
                )
            self._order = sorted(
                product(*(range(len(alts)) for alts in self.alternatives)),
                key=lambda pick: self.order_key(self._z(pick)),
            )
        return self._order[j]

    def _z(self, pick) -> frozenset[Var]:
        return frozenset().union(*(alts[i][0] for alts, i in zip(self.alternatives, pick)))

    def _clusters_of(self, pick) -> list[frozenset[Var]]:
        return [s for alts, i in zip(self.alternatives, pick) for s in alts[i][1]]

    def branch(self, j: int) -> RewriteBranch:
        pick = self._choice(j)
        collapsed = _substitute(
            self.q, {s: self.replacement[s] for s in self._clusters_of(pick)}
        )
        compiled = self.assemble([nodes[i] for nodes, i in zip(self.nodes, pick)])
        return RewriteBranch(self._z(pick), collapsed, compiled)

    def certificate(self, j: int) -> RealisabilityCertificate:
        pick = self._choice(j)
        parts = sorted(self._clusters_of(pick), key=lambda s: min(v.name for v in s))
        return RealisabilityCertificate(
            self._z(pick), REALISABLE, witnesses=tuple(self.witness[s] for s in parts)
        )


def rewrite(q: CQ, tbox: TBox) -> Rewriting:
    """Compile a rooted query over a core TBox into its bag-algebra rewriting.

    Branches come in subset order: by size of z, then lexicographically by
    the positions of z's variables among the sorted existential variables.
    The certificates are one per branch, in branch order, followed by one per
    unrealisable cluster. Clusters found plus component alternatives
    emitted may not exceed REWRITE_BUDGET.
    """
    if tbox.kind != CORE:
        raise UnsupportedTBoxKind("rewriting is defined for core TBoxes")
    if not is_rooted(q):
        raise NotRooted("only rooted queries admit a rewriting")
    position = {v: i for i, v in enumerate(q.existential_vars())}

    def subset_order(z: frozenset[Var]):
        return len(z), sorted(position[v] for v in z)

    clusters = sorted(_clusters(q), key=lambda c: subset_order(c[0]))
    budget = REWRITE_BUDGET - len(clusters)
    # A cluster with no adjacent class outside itself is a whole component.
    components = [cluster for cluster, mask, closed in clusters if mask == closed]
    slot = {v: c for c, members in enumerate(components) for v in members}
    witness: dict[frozenset[Var], ProbeWitness] = {}
    replacement: dict[frozenset[Var], list] = {}
    realisable: list[list] = [[] for _ in components]
    failed = []
    for cluster, mask, closed in clusters:
        cert = is_realisable(tbox, q, cluster)
        if not cert.realisable:
            failed.append(cert)
            continue
        (witness[cluster],) = cert.witnesses
        replacement[cluster] = _link_atoms(q, cluster, witness[cluster].alpha)
        realisable[slot[next(iter(cluster))]].append((cluster, mask, closed))

    alternatives, nodes = [], []
    for members, candidates in zip(components, realisable):
        # Each alternative is a set of pairwise disjoint, non-adjacent
        # realisable clusters, which are then exactly its maximal clusters.
        found = []
        stack = [(0, (), 0)]
        while stack:
            start, chosen, blocked = stack.pop()
            budget -= 1
            if budget < 0:
                raise _over_budget()
            found.append((frozenset().union(*chosen), chosen))
            for i in range(start, len(candidates)):
                cluster, mask, closed = candidates[i]
                if not mask & blocked:
                    stack.append((i + 1, chosen + (cluster,), blocked | closed))
        found.sort(key=lambda alt: subset_order(alt[0]))
        atoms = atoms_mentioning(q, members)
        if len(atoms) == len(q.atoms):
            sub = q
        else:
            # Its boundary terms are its head, so its own existentials are
            # projected inside it.
            boundary = {t for a in atoms for t in a.terms if t not in members}
            sub = CQ([v for v in q.variables() if v in boundary], atoms)
        alternatives.append(found)
        nodes.append([
            chase_back(_substitute(sub, {s: replacement[s] for s in chosen}), zset, tbox)
            for zset, chosen in found
        ])

    # An atom touches at most one component; the component's slot stands
    # where its first atom stood.
    items, placed = [], set()
    for atom in q.atoms:
        home = next((slot[t] for t in atom.terms if t in slot), None)
        if home is None:
            items.append(atom)
        elif home not in placed:
            placed.add(home)
            items.append(home)
    factors = _Factors(q, alternatives, nodes, *_translate(items, frozenset(), tbox),
                       witness, replacement, subset_order)
    combined = factors.assemble([_balanced_union(n) for n in nodes])
    n = factors.count()
    return Rewriting(
        q, tbox, _View(n, factors.branch), combined,
        _View(n + len(failed),
              lambda j: factors.certificate(j) if j < n else failed[j - n]),
    )


def evaluate_rewriting(rw: Rewriting, abox: BagABox) -> AnswerBag:
    """Evaluate the combined rewriting over the ABox, in head-variable order.

    Answer variables that the compiled query cannot carry as columns (their
    equality class is pinned to an individual and they occur in no atom) are
    filled in from that individual here.
    """
    bag = eval_balg(rw.combined, abox)
    head = rw.source.answer_vars
    node_vars = rw.combined.answer_vars
    if tuple(node_vars) == tuple(head):
        return bag
    eq = rw.source.equality_classes()
    columns = []
    for v in head:
        if v in node_vars:
            columns.append(node_vars.index(v))
        else:
            consts = eq.constants_of(v)
            if not consts:
                raise InternalStructureError(f"no column for answer variable {v}")
            columns.append(consts[0].name)
    return AnswerBag(len(head), (
        (tuple(tup[c] if isinstance(c, int) else c for c in columns), m)
        for tup, m in bag.items()
    ))
