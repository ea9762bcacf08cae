"""Every instance of a small scope, on both answer paths and the reference.

The scope:
- every TBox of at most one axiom over A, B, EX R and EX R-: an inclusion
  of two distinct basic concepts, or their disjointness;
- every ABox of one or two distinct assertions from A(a), B(b), R(a,b) and
  R(b,a), each with multiplicity 1 or 3;
- every safe rooted q(x) of one or two distinct atoms over A, B, R and the
  variables x and y, plus each one-atom query with y replaced by "a".

On each instance the chase path, the rewrite path and `brute_eval_cq` over
iterated `chase_step` agree, or both paths raise the same `BagoError` type.
Tier-1 checks a fixed slice of every stratum (axioms, assertions, atoms).
The whole scope runs with

    PYTHONPATH=src python tests/test_small_scope.py

which prints the instance count per stratum and exits 1 on any failure.
"""

import sys
from collections import Counter
from itertools import combinations, product

from bago import BagOntology, certain_answers, parse_abox, parse_cq, parse_tbox
from bago.answers import VIA_CHASE, VIA_REWRITE
from bago.chase import interpretation_from_abox, required_depth
from bago.errors import BagoError
from bago.query import is_rooted

from oracles import brute_eval_cq, chase_step

BASIC = ("A", "B", "EX R", "EX R-")
TBOXES = (
    [()]
    + [(f"{sub} SUB {sup}",) for sub, sup in product(BASIC, BASIC) if sub != sup]
    + [(f"DISJ {first} {second}",) for first, second in combinations(BASIC, 2)]
)
ASSERTIONS = ("A(a)", "B(b)", "R(a,b)", "R(b,a)")
ABOXES = [
    tuple(f"{assertion} {m}" for assertion, m in zip(chosen, counts))
    for size in (1, 2)
    for chosen in combinations(ASSERTIONS, size)
    for counts in product((1, 3), repeat=size)
]
ATOMS = ("A(x)", "A(y)", "B(x)", "B(y)", "R(x, x)", "R(x, y)", "R(y, x)", "R(y, y)")


def _queries():
    bodies = [(atom,) for atom in ATOMS] + list(combinations(ATOMS, 2))
    bodies += [(atom.replace("y", '"a"'),) for atom in ATOMS if "y" in atom]
    queries = []
    for body in bodies:
        if not any("x" in atom for atom in body):
            continue  # unsafe: x is in no atom
        q = parse_cq(f"q(x) :- {', '.join(body)}")
        if is_rooted(q):
            queries.append((body, q))
    return queries


QUERIES = _queries()
# Instances per stratum (axioms, assertions, atoms): 19 TBoxes, 8 + 24
# ABoxes, 7 + 16 queries.
COUNTS = {(0, 1, 1): 56, (0, 1, 2): 128, (0, 2, 1): 168, (0, 2, 2): 384,
          (1, 1, 1): 1008, (1, 1, 2): 2304, (1, 2, 1): 3024, (1, 2, 2): 6912}
# Tier-1 checks every SLICE-th instance of each stratum.
SLICE = 5


def instances():
    """(stratum, TBox lines, ABox lines, query body, query) for the whole scope."""
    for tbox, abox, (body, q) in product(TBOXES, ABOXES, QUERIES):
        yield (len(tbox), len(abox), len(body)), tbox, abox, body, q


def _answer(q, k, via):
    try:
        return dict(certain_answers(q, k, via=via).items())
    except BagoError as exc:
        return type(exc)


def check(tbox, abox, q):
    """None when the instance passes, else what went wrong."""
    tbox, abox = parse_tbox("".join(f"{line}\n" for line in tbox)), parse_abox("\n".join(abox))
    k = BagOntology(tbox, abox)
    chased, rewritten = _answer(q, k, VIA_CHASE), _answer(q, k, VIA_REWRITE)
    if chased != rewritten:
        return f"chase={chased} rewrite={rewritten}"
    if isinstance(chased, type):
        return None
    reference = interpretation_from_abox(abox)
    for _ in range(required_depth(q)):
        reference = chase_step(reference, tbox)
    expected = brute_eval_cq(q, reference)
    return None if chased == expected else f"both={chased} reference={expected}"


def run(stride=1):
    """Check every stride-th instance of each stratum; return the instance
    count per stratum and the failures."""
    seen, checked, failures = Counter(), Counter(), []
    for stratum, tbox, abox, body, q in instances():
        seen[stratum] += 1
        if (seen[stratum] - 1) % stride:
            continue
        checked[stratum] += 1
        fault = check(tbox, abox, q)
        if fault is not None:
            failures.append(f"{' ; '.join(tbox + abox)} | q(x) :- {', '.join(body)}: {fault}")
    assert dict(seen) == COUNTS
    return checked, failures


def test_a_slice_of_every_stratum_agrees_on_both_paths_and_the_reference():
    checked, failures = run(SLICE)
    assert failures == []
    assert checked == {s: -(-n // SLICE) for s, n in COUNTS.items()}


if __name__ == "__main__":
    checked, failures = run()
    for stratum, n in sorted(checked.items()):
        print("axioms={} assertions={} atoms={}: {} instances".format(*stratum, n))
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"small scope: {sum(checked.values()) - len(failures)}/{sum(checked.values())} PASS")
    sys.exit(1 if failures else 0)
