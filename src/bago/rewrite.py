"""Compilation of rooted queries into bag-algebra queries.

For every subset z of the existential variables that could be sent to the
anonymous part of the canonical model, the compiler (1) decides realisability
by evaluating a two-individual probe, (2) collapses each maximally connected
z-cluster to its single linking atom plus identifying equalities, and
(3) chases the collapsed query back through the TBox: concept atoms become
max unions of entailed subsumees, and the linking atoms become those unions
minus the atoms already accounted for by named successors, so that anonymous
witnesses are counted exactly once. The arithmetic union of the surviving
branches evaluates over the bare ABox to the same bag as the chase path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional

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


def collapse(
    q: CQ,
    z: Iterable[Var],
    link_chooser: Optional[LinkChooser] = None,
) -> CQ:
    """Replace each ma-connected cluster by its linking atom plus equalities."""
    zset = frozenset(z)
    if not zset:
        return q
    subsets = ma_connected_partition(q, zset)
    replacement: dict[frozenset[Var], list] = {}
    owner: dict[Var, frozenset[Var]] = {}
    for subset in subsets:
        alpha = _choose(link_chooser, q, subset, zset)
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
        replacement[subset] = atoms
        for v in subset:
            owner[v] = subset
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


class _FreshVars:
    def __init__(self, prefix: str = "_z"):
        self.prefix = prefix
        self.counter = 0

    def __call__(self) -> Var:
        self.counter += 1
        return Var(f"{self.prefix}{self.counter}")


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


def _subsets_in_order(vars_: tuple[Var, ...]):
    ordered = sorted(vars_, key=term_key)
    for size in range(len(ordered) + 1):
        for combo in combinations(ordered, size):
            yield frozenset(combo)


def rewrite(q: CQ, tbox: TBox, link_chooser: Optional[LinkChooser] = None) -> Rewriting:
    """Compile a rooted query over a core TBox into its bag-algebra rewriting."""
    if tbox.kind != CORE:
        raise UnsupportedTBoxKind("rewriting is defined for core TBoxes")
    if not is_rooted(q):
        raise NotRooted("only rooted queries admit a rewriting")
    existential = q.existential_vars()
    if len(existential) > MAX_EXISTENTIAL_VARS:
        raise RewriteLimitExceeded(
            f"{len(existential)} existential variables; subset enumeration is "
            f"capped at {MAX_EXISTENTIAL_VARS}"
        )
    branches = []
    certificates = []
    fresh = _FreshVars()  # shared across branches: no shadowing in the output
    for zset in _subsets_in_order(existential):
        cert = is_realisable(tbox, q, zset, link_chooser=link_chooser)
        certificates.append(cert)
        if not cert.realisable:
            continue
        collapsed = collapse(q, zset, link_chooser=link_chooser)
        compiled = chase_back(collapsed, zset, tbox, fresh=fresh)
        branches.append(RewriteBranch(zset, collapsed, compiled))
    combined = branches[0].compiled
    for branch in branches[1:]:
        combined = BalgArithUnion(combined, branch.compiled)
    return Rewriting(q, tbox, tuple(branches), combined, tuple(certificates))


def evaluate_rewriting(rw: Rewriting, abox: BagABox) -> AnswerBag:
    """Evaluate the combined rewriting over the ABox, in head-variable order.

    Answer variables that the compiled query cannot carry as columns (their
    equality class is pinned to an individual and they occur in no atom) are
    filled in from that individual here.
    """
    stage0 = interpretation_from_abox(abox)
    bag = eval_balg(rw.combined, stage0)
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
