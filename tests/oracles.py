"""Independent reference implementations used only to check the engine.

Everything here is written against the definitions directly: full valuation
enumeration for conjunctive queries, literal structural recursion with
domain-wide sums for bag-algebra queries, the bag chase one element and one
stage at a time (concept closure, deficits, pointwise-max union and bag
containment), the chase dump with each witness written as its whole
ancestry, a from-scratch set-semantics chase (one witness per unsatisfied
existential) over (predicate, names) assertions, coloring models built by
hand, the ABox text parsed one assertion per line, and an ABox's support,
scalings and flattening read off its relations. Both chases compute their
own inclusion closure from the TBox's axioms. None of it shares evaluation
code with the package: it reads interpretations only through their
extensions and accessors, ABoxes only through their relations, and builds
them only through the `BagInterpretation` and `BagABox` constructors.
"""

import re
from itertools import product

from bago.chase import Anon, BagInterpretation
from bago.errors import U64_MAX, ParseError
from bago.ontology import (
    AtomicConcept,
    BagABox,
    ConceptInclusion,
    ExistsRole,
    Role,
    check_individual,
)
from bago.query import ConceptAtom, Const, EqualityAtom, InequalityAtom, RoleAtom, Var
from bago.bagalg import (
    BalgArithUnion,
    BalgAtom,
    BalgDiff,
    BalgEqFilter,
    BalgJoin,
    BalgMaxUnion,
    BalgProject,
)
from bago.threecol import AUX_VERTEX, COLOR_NAMES


def brute_eval_cq(q, interp, z_anon=None):
    """Literal sum-over-valuations evaluation; optionally restrict existential
    variables to anonymous (for z_anon) / named (for the rest) elements."""
    domain = sorted(interp.domain, key=str)
    variables = list(q.variables())
    answer_vars = list(q.answer_vars)
    existential = [v for v in variables if v not in answer_vars]
    z_anon = set(z_anon) if z_anon is not None else None
    answers = {}
    for values in product(domain, repeat=len(variables)):
        lam = dict(zip(variables, values))

        def resolve(t):
            return lam[t] if isinstance(t, Var) else t.name

        if any(resolve(a.left) != resolve(a.right)
               for a in q.atoms if isinstance(a, EqualityAtom)):
            continue
        if any(resolve(a.left) == resolve(a.right)
               for a in q.atoms if isinstance(a, InequalityAtom)):
            continue
        if z_anon is not None:
            if any(not isinstance(lam[v], Anon) for v in existential if v in z_anon):
                continue
            if any(type(lam[v]) is not str for v in existential if v not in z_anon):
                continue
        if any(type(lam[v]) is not str for v in answer_vars):
            continue
        weight = 1
        for atom in q.atoms:
            if isinstance(atom, ConceptAtom):
                weight *= interp.concept_mult(atom.concept, resolve(atom.term))
            elif isinstance(atom, RoleAtom):
                weight *= interp.role_mult(
                    atom.role, resolve(atom.subject), resolve(atom.object)
                )
            if weight == 0:
                break
        if weight == 0:
            continue
        key = tuple(lam[v] for v in answer_vars)
        answers[key] = answers.get(key, 0) + weight
    return answers


def brute_eval_balg(node, abox):
    """Literal structural recursion over all tuples of the ABox's individuals."""
    named = abox.individuals()

    def value(n, lam):
        if isinstance(n, BalgAtom):
            names = tuple(lam[t] if isinstance(t, Var) else t.name for t in n.terms)
            return abox.relations.get((n.predicate, len(names)), {}).get(names, 0)
        if isinstance(n, BalgJoin):
            return value(n.left, lam) * value(n.right, lam)
        if isinstance(n, BalgEqFilter):
            t = lam[n.term] if isinstance(n.term, Var) else n.term.name
            if lam[n.var] != t:
                return 0
            return value(n.child, lam)
        if isinstance(n, BalgProject):
            total = 0
            for values in product(named, repeat=len(n.projected)):
                inner = dict(lam)
                inner.update(zip(n.projected, values))
                total += value(n.child, inner)
            return total
        left, right = value(n.left, lam), value(n.right, lam)
        if isinstance(n, BalgMaxUnion):
            return max(left, right)
        if isinstance(n, BalgArithUnion):
            return left + right
        if isinstance(n, BalgDiff):
            return max(0, left - right)
        raise TypeError(n)

    answers = {}
    for tup in product(named, repeat=len(node.answer_vars)):
        m = value(node, dict(zip(node.answer_vars, tup)))
        if m:
            answers[tup] = m
    return answers


# -- bag chase oracle ----------------------------------------------------------

def concept_closure(i, u, tbox):
    """Max multiplicity forced at u for every concept, via entailed subsumees."""
    seeds = {AtomicConcept(name): ext[u] for name, ext in i.concepts.items() if ext.get(u, 0)}
    for name in i._edges:  # the role names with an edge
        for role in (Role(name), Role(name, True)):
            m = i.exists_mult(role, u)
            if m:
                seeds[ExistsRole(role)] = m
    closure = {}
    for c0, m in seeds.items():
        for c in _set_closure(tbox.axioms, {c0}):
            closure[c] = max(closure.get(c, 0), m)
    return closure


def chase_step(prev, tbox):
    """One stage of the canonical construction over the previous stage.

    Every element's concept multiplicities become its closure values over
    `prev`, and each deficit delta = ccl(u)(EX R) - (EX R)(u) gets delta
    fresh witnesses, each with one edge of multiplicity 1.
    """
    domain = set(prev.domain)
    concepts = {name: dict(ext) for name, ext in prev.concepts.items()}
    roles = {name: dict(ext) for name, ext in prev.roles.items()}
    for u in prev.domain:
        for c, m in concept_closure(prev, u, tbox).items():
            if isinstance(c, AtomicConcept):
                concepts.setdefault(c.name, {})[u] = m
                continue
            role = c.role
            for j in range(1, m - prev.exists_mult(role, u) + 1):
                w = Anon(u, role, j)
                domain.add(w)
                roles.setdefault(role.name, {})[(w, u) if role.inverted else (u, w)] = 1
    return BagInterpretation(domain, concepts, roles)


def _pointwise_max(x, y):
    out = {name: dict(ext) for name, ext in x.items()}
    for name, ext in y.items():
        mine = out.setdefault(name, {})
        for key, m in ext.items():
            mine[key] = max(mine.get(key, 0), m)
    return out


def bag_union(a, b):
    """Pointwise-max union of two interpretations."""
    return BagInterpretation(a.domain | b.domain, _pointwise_max(a.concepts, b.concepts),
                             _pointwise_max(a.roles, b.roles))


def contains(a, b):
    """Bag containment: b's extensions are pointwise dominated by a's."""
    return b.domain <= a.domain and all(
        mine.get(name, {}).get(key, 0) >= m
        for mine, theirs in ((a.concepts, b.concepts), (a.roles, b.roles))
        for name, ext in theirs.items()
        for key, m in ext.items()
    )


# -- chase dumps ---------------------------------------------------------------

def _path_key(el):
    """Names first, sorted; then witnesses by depth, then by their path of
    (role, direction, index) steps from the name at the root down."""
    steps = []
    while isinstance(el, Anon):
        steps.append((el.role.name, el.role.inverted, el.index))
        el = el.parent
    return len(steps), el, steps[::-1]


def _full_text(el):
    """A witness as its whole ancestry, `_w(parent,role,index)`."""
    if not isinstance(el, Anon):
        return el
    role = el.role.name + ("-" if el.role.inverted else "")
    return f"_w({_full_text(el.parent)},{role},{el.index})"


def reference_dump(interp):
    """The interpretation's facts, one to a line, each witness written as its
    whole ancestry at every mention: concepts, then roles, by name, each in
    the canonical order of its elements."""
    concepts = [f"{name}({_full_text(el)}) {m}"
                for name in sorted(interp.concepts)
                for el, m in sorted(interp.concepts[name].items(),
                                    key=lambda kv: _path_key(kv[0]))]
    roles = interp.roles
    facts = [f"{name}({_full_text(u)},{_full_text(v)}) {m}"
             for name in sorted(roles)
             for (u, v), m in sorted(roles[name].items(),
                                     key=lambda kv: (_path_key(kv[0][0]), _path_key(kv[0][1])))]
    return "".join(line + "\n" for line in concepts + facts)


_DEFINITION_RE = re.compile(r"(@\d+) = _w\(([^,()]+),([A-Za-z][A-Za-z0-9_]*-?),(\d+)\)\n")
_ID_RE = re.compile(r"@\d+")


def expand_dump(text):
    """The dump with every witness id replaced by its whole ancestry and the
    definition lines dropped, as `reference_dump` writes it.

    Asserts the id form: the definitions come before every fact line, number
    the witnesses 1, 2, ... in order, and name a parent that is a name or an
    earlier id; no two define the same witness, and every id a fact names is
    defined.
    """
    ids, lines, facts = {}, [], False
    for line in text.splitlines(keepends=True):
        m = _DEFINITION_RE.fullmatch(line)
        if m is None:
            facts = facts or not line.startswith("#")
            lines.append(_ID_RE.sub(lambda w: ids[w.group()], line))
            continue
        wid, parent, role, index = m.groups()
        assert not facts, f"{wid} is defined after a fact line"
        assert wid == f"@{len(ids) + 1}", f"{wid} is out of sequence"
        assert parent in ids or not parent.startswith("@"), f"{wid} names an undefined parent"
        ids[wid] = f"_w({ids.get(parent, parent)},{role},{index})"
    assert len(set(ids.values())) == len(ids), "a witness is defined twice"
    return "".join(lines)


# -- set-semantics oracle ------------------------------------------------------

def _set_closure(tbox_axioms, seeds):
    """Reflexive-transitive inclusion closure computed from the axiom list."""
    edges = {}
    for ax in tbox_axioms:
        if isinstance(ax, ConceptInclusion):
            edges.setdefault(ax.sub, set()).add(ax.sup)
    out = set(seeds)
    frontier = list(seeds)
    while frontier:
        for nxt in edges.get(frontier.pop(), ()):
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


def set_chase(tbox, assertions, depth):
    """Classical set chase: saturate concepts, one witness per missing role."""
    concepts = {}
    roles = {}
    domain = set()
    for predicate, names in assertions:
        if len(names) == 1:
            concepts.setdefault(predicate, set()).add(names[0])
        else:
            roles.setdefault(predicate, set()).add(names)
        domain.update(names)
    counter = [0]
    for _ in range(depth):
        current = sorted(domain)
        for el in current:
            seeds = {AtomicConcept(c) for c, ext in concepts.items() if el in ext}
            for r, ext in roles.items():
                if any(s == el for s, _ in ext):
                    seeds.add(ExistsRole(Role(r)))
                if any(o == el for _, o in ext):
                    seeds.add(ExistsRole(Role(r, True)))
            for c in _set_closure(tbox.axioms, seeds):
                if isinstance(c, AtomicConcept):
                    concepts.setdefault(c.name, set()).add(el)
                else:
                    role = c.role
                    ext = roles.setdefault(role.name, set())
                    pairs = {(s, o) for s, o in ext}
                    has = any(
                        (o if role.inverted else s) == el for s, o in pairs
                    )
                    if not has:
                        counter[0] += 1
                        w = f"__w{counter[0]}"
                        domain.add(w)
                        ext.add((w, el) if role.inverted else (el, w))
    return concepts, roles, domain


def set_certain_answers(q, tbox, assertions):
    """Tuples with a homomorphism into the set chase (depth = atom count)."""
    depth = sum(1 for a in q.atoms if isinstance(a, (ConceptAtom, RoleAtom)))
    concepts, roles, domain = set_chase(tbox, assertions, depth)
    named = {n for _, names in assertions for n in names}

    # Union-find over the query terms for the equality atoms.
    parent = {}

    def find(t):
        parent.setdefault(t, t)
        root = t
        while parent[root] != root:
            root = parent[root]
        while parent[t] != root:
            parent[t], t = root, parent[t]
        return root

    for atom in q.atoms:
        for t in atom.terms:
            find(t)
    for atom in q.atoms:
        if isinstance(atom, EqualityAtom):
            parent[find(atom.left)] = find(atom.right)

    rep_const = {}
    for t in list(parent):
        if isinstance(t, Const):
            r = find(t)
            if r in rep_const and rep_const[r] != t.name:
                return set()  # two individuals equated: no homomorphism
            rep_const[r] = t.name

    positive = [a for a in q.atoms if isinstance(a, (ConceptAtom, RoleAtom))]

    def slot(t, binding):
        r = find(t)
        if r in rep_const:
            return rep_const[r]
        return binding.get(r)

    def search(i, binding):
        if i == len(positive):
            return True
        atom = positive[i]
        if isinstance(atom, ConceptAtom):
            ext = concepts.get(atom.concept, set())
            v = slot(atom.term, binding)
            if v is not None:
                return v in ext and search(i + 1, binding)
            r = find(atom.term)
            for el in ext:
                binding[r] = el
                if search(i + 1, binding):
                    return True
            binding.pop(r, None)
            return False
        s, o = slot(atom.subject, binding), slot(atom.object, binding)
        rs, ro = find(atom.subject), find(atom.object)
        for (u, w) in roles.get(atom.role, set()):
            if s is not None and u != s:
                continue
            if o is not None and w != o:
                continue
            if s is None and o is None and rs == ro and u != w:
                continue
            added = []
            if s is None:
                binding[rs] = u
                added.append(rs)
            if slot(atom.object, binding) is None:
                binding[ro] = w
                added.append(ro)
            if binding.get(rs, s) == u and slot(atom.object, binding) == w:
                if search(i + 1, binding):
                    return True
            for r in added:
                binding.pop(r, None)
        return False

    arity = len(q.answer_vars)
    out = set()
    for tup in product(sorted(named), repeat=arity):
        binding = {}
        ok = True
        for v, name in zip(q.answer_vars, tup):
            r = find(v)
            if r in rep_const:
                if rep_const[r] != name:
                    ok = False
                    break
            elif binding.get(r, name) != name:
                ok = False
                break
            else:
                binding[r] = name
        if ok and search(0, binding):
            out.add(tup)
    return out


# -- coloring models -----------------------------------------------------------

def hand_built_coloring_model(graph, coloring, variant="core"):
    """The model induced by a color assignment for the vertices, built
    extension by extension."""
    n = len(graph.vertices)
    aux = AUX_VERTEX
    colors = COLOR_NAMES
    domain = set(graph.vertices) | {aux} | set(colors.values())
    vertex_ext = {u: 1 for u in graph.vertices}
    vertex_ext[aux] = 1
    edge_ext = {}
    for u, v in graph.edge_pairs():
        edge_ext[(u, v)] = 1
        edge_ext[(v, u)] = 1
    edge_ext[(aux, aux)] = 1
    colour_ext = {(u, colors[coloring[u]]): 1 for u in graph.vertices}
    colour_ext[(aux, colors["r"])] = 1
    concepts = {"Vertex": vertex_ext}
    roles = {"Edge": edge_ext, "hasColour": colour_ext}
    if variant == "core":
        concepts["ACol"] = {colors["r"]: n + 1, colors["g"]: n, colors["b"]: n}
    elif variant == "r":
        assign_ext = {}
        for u in graph.vertices:
            for c in colors.values():
                assign_ext[(u, c)] = 1
        assign_ext[(aux, colors["r"])] = 1
        reach_ext = {(aux, aux): 1}
        for u in graph.vertices:
            reach_ext[(aux, u)] = 1
            reach_ext[(u, aux)] = 1
        for u in graph.vertices:
            for v in graph.vertices:
                if u != v:
                    reach_ext[(u, v)] = 1
        roles["Assign"] = assign_ext
        roles["Reachable"] = reach_ext
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return BagInterpretation(domain, concepts, roles)


# -- ABox text -----------------------------------------------------------------

_ASSERTION_RE = re.compile(
    r"(?P<pred>[A-Za-z][A-Za-z0-9_]*)\(\s*(?P<a1>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"(?:,\s*(?P<a2>[A-Za-z_][A-Za-z0-9_]*)\s*)?\)\s*(?:(?P<count>\d+)\s*)?\Z"
)


def reference_parse_abox(text):
    """The ABox parser one assertion per line: every line is matched and
    checked, each individual checked again on its own, and each
    (predicate, names) count merged in line order; the merged counts are
    then laid out as relations for the `BagABox` constructor."""
    merged, overflow = {}, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        pos = raw.find("#")
        stripped = (raw if pos < 0 else raw[:pos]).strip()
        if not stripped:
            continue
        m = _ASSERTION_RE.match(stripped)
        if not m:
            raise ParseError(f"malformed assertion {stripped!r}", line=lineno)
        # Each digit read on its own, leading zeros dropped: a count of more
        # than 20 digits is past U64_MAX and may be past int()'s digit limit.
        digits = "".join(str(int(c)) for c in m.group("count") or "1").lstrip("0")
        if len(digits) > 20:
            raise ParseError("multiplicity exceeds the 64-bit range", line=lineno)
        count = int(digits or "0")
        if count < 1:
            raise ParseError("multiplicity must be a positive integer", line=lineno)
        if count > U64_MAX:
            raise ParseError("multiplicity exceeds the 64-bit range", line=lineno)
        names = (m.group("a1"),) if m.group("a2") is None else (m.group("a1"), m.group("a2"))
        for name in names:
            check_individual(name, lineno)
        key = (m.group("pred"), names)
        merged[key] = merged.get(key, 0) + count
        if merged[key] > U64_MAX and overflow is None:
            overflow = key
    if overflow is not None:  # summed repeated lines left the 64-bit range
        raise ParseError(f"multiplicity of {overflow[0]}({','.join(overflow[1])}) "
                         "exceeds the 64-bit range")
    relations = {}
    for (predicate, names), m in merged.items():
        relations.setdefault((predicate, len(names)), {})[names] = m
    return BagABox(relations)


# -- ABox views ----------------------------------------------------------------

def support(abox):
    """The ABox's assertions as (predicate, names) tuples, multiplicities dropped."""
    return frozenset((p, names) for (p, _), rel in abox.relations.items() for names in rel)


def scaled(abox, factor):
    """The same support with every multiplicity times the factor."""
    return BagABox({key: {names: m * factor for names, m in rel.items()}
                    for key, rel in abox.relations.items()})


def flattened(abox):
    """The support with every multiplicity 1."""
    return BagABox({key: dict.fromkeys(rel, 1) for key, rel in abox.relations.items()})
