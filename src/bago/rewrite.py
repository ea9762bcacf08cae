"""Compilation of rooted queries into bag-algebra queries.

A subset z of the existential variables is sent to the anonymous part of the
canonical model. It can be exactly when each of its maximal clusters
(connected unions of equality classes that hold only existential variables)
is realisable, and a cluster's verdict depends on the cluster alone, since
all its Gaifman neighbours lie outside z. The compiler therefore (1) decides
the realisability of every cluster once, by evaluating a two-individual
probe, (2) forms every z as a set of pairwise non-adjacent realisable
clusters, (3) collapses each cluster of z to its single linking atom plus
identifying equalities, and (4) chases the collapsed query back through the
TBox: concept atoms become max unions of entailed subsumees, and the linking
atoms become those unions minus the atoms already accounted for by named
successors, so that anonymous witnesses are counted exactly once. The
arithmetic union of the branches, one per z, evaluates over the bare ABox to
the same bag as the chase path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .errors import (
    InternalStructureError,
    MultipleAnchors,
    NotRooted,
    RewriteLimitExceeded,
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
from .chase import chase, interpretation_from_abox, required_depth
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
    EqualityAtom,
    InequalityAtom,
    RoleAtom,
    Term,
    Var,
    atoms_mentioning,
    equality_consistent,
    is_rooted,
    linking_atom,
    linking_candidates,
    ma_connected_partition,
    outward_terms,
    term_key,
)

PROBE_ANCHOR = "_probe_a"
PROBE_FRESH = "_probe_b"

REALISABLE = "realisable"
NOT_EQUALITY_CONSISTENT = "not-equality-consistent"
UNREALISABLE = "unrealisable"

MAX_EXISTENTIAL_VARS = 20

LinkChooser = Callable[[list[RoleAtom]], RoleAtom]


@dataclass(frozen=True)
class ProbeWitness:
    subset: frozenset[Var]
    alpha: RoleAtom
    anchor: str
    probe_query: CQ
    probe_abox: BagABox
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


def _choose(
    chooser: Optional[LinkChooser],
    q: CQ,
    subset: frozenset[Var],
    zset: frozenset[Var],
) -> RoleAtom:
    candidates = linking_candidates(q, subset, zset)
    if not candidates:
        raise InternalStructureError(
            f"no linking atom for cluster {sorted(v.name for v in subset)}"
        )
    if chooser is None:
        return linking_atom(q, subset, zset)
    pick = chooser(candidates)
    if pick not in candidates:
        raise InternalStructureError("link chooser returned a non-candidate atom")
    return pick


def build_probe(
    q: CQ,
    z_prime: Iterable[Var],
    z: Iterable[Var] | None = None,
    alpha: RoleAtom | None = None,
) -> tuple[CQ, BagABox, str]:
    """The Boolean probe, its one-assertion ABox, and the anchor individual.

    Raises MultipleAnchors when the cluster links outward to two distinct
    individuals; the cluster is then unrealisable regardless of any choice.
    """
    zp = frozenset(z_prime)
    zfull = frozenset(z) if z is not None else zp
    if alpha is None:
        alpha = linking_atom(q, zp, zfull)
    outward = outward_terms(q, zp, zfull)
    anchors = sorted({t.name for t in outward if isinstance(t, Const)})
    if len(anchors) > 1:
        raise MultipleAnchors(
            f"cluster {sorted(v.name for v in zp)} is linked to individuals "
            f"{anchors[0]!r} and {anchors[1]!r}"
        )
    anchor = anchors[0] if anchors else PROBE_ANCHOR
    atoms = list(atoms_mentioning(q, zp))
    for t in outward:
        if isinstance(t, Var):
            atoms.append(EqualityAtom(t, Const(anchor)))
    for v in sorted(zp, key=term_key):
        atoms.append(InequalityAtom(v, Const(anchor)))
    probe = CQ((), atoms, allow_inequalities=True)
    object_in_z = isinstance(alpha.object, Var) and alpha.object in zfull
    if object_in_z:
        abox = BagABox({RoleAssertion(alpha.role, anchor, PROBE_FRESH): 1})
    else:
        abox = BagABox({RoleAssertion(alpha.role, PROBE_FRESH, anchor): 1})
    return probe, abox, anchor


def is_realisable(
    tbox: TBox,
    q: CQ,
    z: Iterable[Var],
    link_chooser: Optional[LinkChooser] = None,
) -> RealisabilityCertificate:
    """Decide whether z can be folded into the anonymous part of the chase."""
    if tbox.kind != CORE:
        raise UnsupportedTBoxKind("realisability is defined for core TBoxes")
    zset = frozenset(z)
    if not equality_consistent(q, zset):
        return RealisabilityCertificate(zset, NOT_EQUALITY_CONSISTENT)
    witnesses = []
    for subset in ma_connected_partition(q, zset):
        try:
            alpha = _choose(link_chooser, q, subset, zset)
            probe, probe_abox, anchor = build_probe(q, subset, zset, alpha=alpha)
        except MultipleAnchors:
            return RealisabilityCertificate(zset, UNREALISABLE, failing=subset)
        depth = required_depth(probe)
        probe_chase = chase(BagOntology(tbox, probe_abox), depth)
        value = eval_cq_neq(probe, probe_chase.union).get(())
        if value < 1:
            return RealisabilityCertificate(
                zset, UNREALISABLE,
                witnesses=(ProbeWitness(subset, alpha, anchor, probe, probe_abox, value),),
                failing=subset,
            )
        witnesses.append(ProbeWitness(subset, alpha, anchor, probe, probe_abox, value))
    return RealisabilityCertificate(zset, REALISABLE, witnesses=tuple(witnesses))


def _link_atoms(q: CQ, subset: frozenset[Var], zset: frozenset[Var],
                alpha: RoleAtom) -> list:
    """A cluster's replacement: its linking atom plus identifying equalities."""
    outward = outward_terms(q, subset, zset)
    atoms: list = [alpha]
    seen_pairs = set()
    for y in outward:
        if not isinstance(y, Var):
            continue
        for t in outward:
            if t == y:
                continue
            pair = frozenset((y, t))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            atoms.append(EqualityAtom(y, t))
    return atoms


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


def collapse(
    q: CQ,
    z: Iterable[Var],
    link_chooser: Optional[LinkChooser] = None,
) -> CQ:
    """Replace each ma-connected cluster by its linking atom plus equalities."""
    zset = frozenset(z)
    return _substitute(q, {
        subset: _link_atoms(q, subset, zset, _choose(link_chooser, q, subset, zset))
        for subset in ma_connected_partition(q, zset)
    })


class _FreshVars:
    def __init__(self):
        self.counter = 0

    def __call__(self) -> Var:
        self.counter += 1
        return Var(f"_z{self.counter}")


def _zeta(concept: Concept, t: Term, fresh: _FreshVars) -> BALGQuery:
    """Atom template: A(t), or a projected role atom for EX R / EX R-."""
    if isinstance(concept, AtomicConcept):
        return BalgAtom(concept.name, (t,))
    role = concept.role
    y = fresh()
    terms = (y, t) if role.inverted else (t, y)
    return BalgProject((y,), BalgAtom(role.name, terms))


def _eta(tbox: TBox, concept: Concept, t: Term, fresh: _FreshVars) -> BALGQuery:
    """Max union of the atom templates of all entailed subsumees."""
    node = None
    for sub in tbox.concept_subsumees(concept):
        piece = _zeta(sub, t, fresh)
        node = piece if node is None else BalgMaxUnion(node, piece)
    return node


def _theta(tbox: TBox, role: Role, t: Term, fresh: _FreshVars) -> BALGQuery:
    """Entailed successors minus the ones already present as plain atoms."""
    return BalgDiff(_eta(tbox, ExistsRole(role), t, fresh),
                    _zeta(ExistsRole(role), t, fresh))


def chase_back(
    q_z: CQ,
    z: Iterable[Var],
    tbox: TBox,
    fresh: Optional[_FreshVars] = None,
) -> BALGQuery:
    """Rewrite a collapsed query so it evaluates over the bare ABox."""
    if tbox.kind != CORE:
        raise UnsupportedTBoxKind("chase-back is defined for core TBoxes")
    zset = frozenset(z) & set(q_z.existential_vars())
    if fresh is None:
        fresh = _FreshVars()
    conjuncts: list[BALGQuery] = []
    equalities: list[tuple[Term, Term]] = []
    always_empty = False
    for atom in q_z.atoms:
        if isinstance(atom, ConceptAtom):
            if atom.term in zset:
                raise InternalStructureError(f"unexpected concept atom {atom} on z")
            conjuncts.append(_eta(tbox, AtomicConcept(atom.concept), atom.term, fresh))
        elif isinstance(atom, RoleAtom):
            sub_in = isinstance(atom.subject, Var) and atom.subject in zset
            obj_in = isinstance(atom.object, Var) and atom.object in zset
            if sub_in and obj_in:
                raise InternalStructureError(f"unexpected all-z role atom {atom}")
            if obj_in:
                conjuncts.append(_theta(tbox, Role(atom.role), atom.subject, fresh))
            elif sub_in:
                conjuncts.append(_theta(tbox, Role(atom.role, True), atom.object, fresh))
            else:
                conjuncts.append(BalgAtom(atom.role, (atom.subject, atom.object)))
        elif isinstance(atom, EqualityAtom):
            left, right = atom.left, atom.right
            if isinstance(left, Const) and isinstance(right, Const):
                if left != right:
                    always_empty = True
                continue
            equalities.append((left, right))
        else:
            raise InternalStructureError("inequality atoms cannot be rewritten")
    node = conjuncts[0]
    for piece in conjuncts[1:]:
        node = BalgJoin(node, piece)

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
            eq = q_z.equality_classes()
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
        v for v in sorted(set(q_z.existential_vars()) - zset, key=term_key)
        if v in set(node.answer_vars)
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
    source: CQ
    tbox: TBox
    branches: tuple[RewriteBranch, ...]
    combined: BALGQuery
    certificates: tuple[RealisabilityCertificate, ...]


def _clusters(q: CQ) -> list[tuple[frozenset[Var], int, int]]:
    """Every connected union of equality classes that hold only existential
    variables: its variables, its classes as a bitmask, and the bitmask of
    the classes in it or adjacent to it.

    A class holding an answer variable or an individual is never part of an
    equality-consistent z, so no cluster contains one.
    """
    head = set(q.answer_vars)
    eq, graph = q.equality_classes(), q.gaifman()
    bit: dict[frozenset[Term], int] = {}
    for v in q.existential_vars():
        cls = eq.class_of(v)
        if cls not in bit and all(isinstance(t, Var) and t not in head for t in cls):
            bit[cls] = 1 << len(bit)
    classes = list(bit)
    adjacent = [sum(bit[n] for n in graph.neighbours(cls) if n in bit) for cls in classes]

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
        frontier = grown
    return [
        (frozenset(v for i in members(mask) for v in classes[i]), mask, reach(mask))
        for mask in found
    ]


def _balanced_union(nodes: list[BALGQuery]) -> BALGQuery:
    """Arithmetic union of the nodes, pairing neighbours level by level, so
    the tree is logarithmically deep in the number of branches."""
    while len(nodes) > 1:
        paired = [BalgArithUnion(a, b) for a, b in zip(nodes[::2], nodes[1::2])]
        nodes = paired + nodes[len(paired) * 2:]
    return nodes[0]


def rewrite(q: CQ, tbox: TBox, link_chooser: Optional[LinkChooser] = None) -> Rewriting:
    """Compile a rooted query over a core TBox into its bag-algebra rewriting.

    Branches come in subset order: by size of z, then lexicographically by
    the positions of z's variables among the sorted existential variables.
    The certificates are one per branch, in branch order, followed by one per
    cluster whose probe failed.
    """
    if tbox.kind != CORE:
        raise UnsupportedTBoxKind("rewriting is defined for core TBoxes")
    if not is_rooted(q):
        raise NotRooted("only rooted queries admit a rewriting")
    existential = q.existential_vars()
    if len(existential) > MAX_EXISTENTIAL_VARS:
        raise RewriteLimitExceeded(
            f"{len(existential)} existential variables; rewriting is "
            f"capped at {MAX_EXISTENTIAL_VARS}"
        )
    position = {v: i for i, v in enumerate(existential)}

    def subset_order(z: frozenset[Var]):
        return len(z), sorted(position[v] for v in z)

    witness: dict[frozenset[Var], ProbeWitness] = {}
    replacement: dict[frozenset[Var], list] = {}
    realisable = []
    failed = []
    for cluster, mask, closed in sorted(_clusters(q), key=lambda c: subset_order(c[0])):
        cert = is_realisable(tbox, q, cluster, link_chooser=link_chooser)
        if not cert.realisable:
            failed.append(cert)
            continue
        (witness[cluster],) = cert.witnesses
        replacement[cluster] = _link_atoms(q, cluster, cluster, witness[cluster].alpha)
        realisable.append((cluster, mask, closed))

    # Each realisable z is a set of pairwise disjoint, non-adjacent realisable
    # clusters, which are then exactly its maximal clusters.
    zs = []
    stack = [(0, frozenset(), 0)]
    while stack:
        start, zset, blocked = stack.pop()
        zs.append(zset)
        for i in range(start, len(realisable)):
            cluster, mask, closed = realisable[i]
            if not mask & blocked:
                stack.append((i + 1, zset | cluster, blocked | closed))

    branches = []
    certificates = []
    fresh = _FreshVars()  # shared across branches: no shadowing in the output
    for zset in sorted(zs, key=subset_order):
        parts = ma_connected_partition(q, zset)
        certificates.append(RealisabilityCertificate(
            zset, REALISABLE, witnesses=tuple(witness[s] for s in parts)
        ))
        collapsed = _substitute(q, {s: replacement[s] for s in parts})
        compiled = chase_back(collapsed, zset, tbox, fresh=fresh)
        branches.append(RewriteBranch(zset, collapsed, compiled))
    combined = _balanced_union([b.compiled for b in branches])
    return Rewriting(q, tbox, tuple(branches), combined, tuple(certificates + failed))


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
