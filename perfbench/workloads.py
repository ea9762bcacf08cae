"""Seeded workload generators.

Every workload is plain `.dl` / `.bag` / `.cq` text; the engine sees it only
through its public parsers. The same (workload, seed) pair always yields
byte-identical text, because each generator draws from its own
`random.Random` seeded with a string that names the workload and the seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One `bago answer` invocation: the three input texts of one query."""

    name: str
    tbox: str
    abox: str
    query: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    # Time limit for one timed call; a call over it fails and is charged it.
    # A few times the slowest passing call, so a slow machine does not fail.
    limit_s: float
    # Extra cases run once, outside the timed batch, that fail at the time
    # the benchmark was written. They stay visible in the detail record.
    known_failures: tuple[Op, ...] = ()

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops + self.known_failures:
            for text in (op.name, op.tbox, op.abox, op.query):
                h.update(text.encode())
                h.update(b"\0")
        return h.hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# -- abox_scale ---------------------------------------------------------------

ABOX_SCALE_TBOX = """\
# core TBox with existential chains: A -R-> B -S-> B -S-> ...
A SUB EX R
EX R- SUB B
B SUB EX S
EX S- SUB B
C SUB A
"""

ABOX_SCALE_QUERIES = (
    ("chain3", "q(x) :- R(x, y), S(y, z), B(z)\n"),
    ("pair2", "q(x, y) :- R(x, y), S(y, z)\n"),
    ("repeated", "q(x) :- R(x, y), R(x, y), B(y)\n"),
    ("concept_role", "q(x) :- C(x), R(x, y)\n"),
)

ABOX_SCALE_N = 1500


def _shuffled(rng: random.Random, values, n: int) -> list:
    """n values drawn from `values` in equal shares (as near as n allows), shuffled."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def abox_scale_text(rng: random.Random, n: int) -> str:
    """About 2*n assertions over n individuals, multiplicities 1..5.

    The seed picks which individuals each assertion names. How many
    assertions there are of each concept and role, and of each multiplicity,
    is the same for every seed, so that runs on different seeds do the same
    amount of work and differ only in the random graph.
    """
    lines = []
    concepts = _shuffled(rng, "ABC", n)
    for concept, m in zip(concepts, _shuffled(rng, range(1, 6), n)):
        lines.append(f"{concept}(i{rng.randrange(n)}) {m}\n")
    roles = _shuffled(rng, "RS", n)
    for role, m in zip(roles, _shuffled(rng, range(1, 6), n)):
        lines.append(f"{role}(i{rng.randrange(n)},i{rng.randrange(n)}) {m}\n")
    return "".join(lines)


def abox_scale(seed: int, n: int = ABOX_SCALE_N) -> Workload:
    abox = abox_scale_text(_rng("abox_scale", seed), n)
    ops = tuple(Op(name, ABOX_SCALE_TBOX, abox, q) for name, q in ABOX_SCALE_QUERIES)
    return Workload(
        "abox_scale",
        "data-bound: chase, eval_cq and eval_balg grow with ABox size; rewrite is tiny",
        ops,
        limit_s=5.0,
    )


# -- query_width --------------------------------------------------------------

QUERY_WIDTH_TBOX = """\
# self-feeding existential: every A has an R-successor that is again an A
A SUB EX R
EX R- SUB A
"""

PATH_LENGTHS = (6, 8, 10)
STAR_WIDTHS = (6, 7, 8)
# Star k = 10 compiles, then its rewriting nests one level per branch and
# evaluation exceeds the interpreter's recursion limit.
FAILING_STAR_WIDTHS = (10,)


def path_query(length: int) -> str:
    terms = ["x"] + [f"y{i}" for i in range(1, length + 1)]
    body = ", ".join(f"R({a}, {b})" for a, b in zip(terms, terms[1:]))
    return f"q(x) :- {body}\n"


def star_query(width: int) -> str:
    body = ", ".join(f"R(x, y{i})" for i in range(1, width + 1))
    return f"q(x) :- {body}\n"


def query_width_abox(rng: random.Random) -> str:
    """Four individuals on one R-cycle, each an A twice: only names vary.

    The seed permutes the cycle and picks the names, so every seed costs the
    same and the data side stays negligible.
    """
    names = [f"a{n}" for n in rng.sample(range(10, 100), 4)]
    lines = [f"A({a}) 2\n" for a in names]
    lines += [f"R({a},{b}) 1\n" for a, b in zip(names, names[1:] + names[:1])]
    return "".join(lines)


def query_width(seed: int) -> Workload:
    abox = query_width_abox(_rng("query_width", seed))

    def op(name, q):
        return Op(name, QUERY_WIDTH_TBOX, abox, q)

    ops = tuple(op(f"path_L{n}", path_query(n)) for n in PATH_LENGTHS) + tuple(
        op(f"star_k{k}", star_query(k)) for k in STAR_WIDTHS
    )
    failing = tuple(op(f"star_k{k}", star_query(k)) for k in FAILING_STAR_WIDTHS)
    return Workload(
        "query_width",
        "compile-bound: rewrite walks 2^|existentials| subsets; the data side is tiny",
        ops,
        known_failures=failing,
        limit_s=10.0,
    )


# -- mult_heavy ---------------------------------------------------------------

MULT_HEAVY_TBOX = """\
# company vocabulary, where every manager is again an employee with a manager
KIND CORE
SalEmp SUB Emp
ITEmp SUB Emp
Emp SUB EX hasMngr
EX hasMngr- SUB Mngr
Mngr SUB Emp
"""

MULT_HEAVY_QUERIES = (
    ("managed", "q(x) :- hasMngr(x, y)\n"),
    ("managed_by_mngr", "q(x) :- hasMngr(x, y), Mngr(y)\n"),
    ("two_up", "q(x) :- hasMngr(x, y), hasMngr(y, z)\n"),
    ("two_up_emp", "q(x) :- hasMngr(x, y), hasMngr(y, z), Emp(z)\n"),
)

# Multiplicities of the concept assertions and of the named manager edges.
MULT_HEAVY_CONCEPT_MULTS = (6000, 4000, 2000)
MULT_HEAVY_EDGE_MULTS = (300, 100)


def mult_heavy_abox(rng: random.Random) -> str:
    """Three employees of large multiplicity and two named manager edges.

    The seed picks the names and which employee gets which multiplicity and
    concept; the multiplicities themselves are the same for every seed.
    """
    people = [f"p{n}" for n in rng.sample(range(10, 100), 4)]
    concepts = ["SalEmp", "ITEmp", "Emp"]
    rng.shuffle(concepts)
    mults = list(MULT_HEAVY_CONCEPT_MULTS)
    rng.shuffle(mults)
    lines = [f"{c}({p}) {m}\n" for c, p, m in zip(concepts, people, mults)]
    boss = people[3]
    lines += [f"hasMngr({p},{boss}) {m}\n" for p, m in zip(people, MULT_HEAVY_EDGE_MULTS)]
    lines.append(f"Mngr({boss}) 1\n")
    rng.shuffle(lines)
    return "".join(lines)


def mult_heavy(seed: int) -> Workload:
    abox = mult_heavy_abox(_rng("mult_heavy", seed))
    ops = tuple(Op(name, MULT_HEAVY_TBOX, abox, q) for name, q in MULT_HEAVY_QUERIES)
    return Workload(
        "mult_heavy",
        "multiplicity-bound: the chase births one anonymous witness per unit of "
        "multiplicity on a few fat individuals; the rewriting path does not",
        ops,
        limit_s=5.0,
    )


WORKLOADS = {"abox_scale": abox_scale, "query_width": query_width, "mult_heavy": mult_heavy}
