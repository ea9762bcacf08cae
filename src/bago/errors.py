"""Exception hierarchy and the pointwise bag kernel.

Multiplicities at the boundary are unsigned 64-bit integers: ABox
multiplicities are checked when parsed, answer multiplicities when their
AnswerBag is built, and everything in between is exact (Python integers
never wrap), so both answer paths report overflow on the same inputs.

`combine` is the one n-ary pointwise kernel behind every bag union, intersection
and difference (bags as the N-semiring of Green et al.).
"""

U64_MAX = 2**64 - 1


class BagoError(Exception):
    """Base class for every error raised by this package."""


class ParseError(BagoError):
    """Malformed input text (TBox, ABox, query, graph, or answer tuple)."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class SafetyViolation(ParseError):
    """A query variable whose equality class touches no concept/role atom."""


class RepeatedAnswerVariable(ParseError):
    """An answer variable listed more than once in a query head."""


class NotRooted(BagoError):
    """Query has a Gaifman component with no answer variable or individual."""


class UnsupportedTBoxKind(BagoError):
    """Operation is defined for core TBoxes only (no role axioms)."""


class UnsatisfiableOntology(BagoError):
    """Certain answers over an unsatisfiable ontology are refused."""


class MultiplicityOverflow(BagoError):
    """An answer multiplicity passes U64_MAX; raised only where an AnswerBag is built."""


class IllFormedQuery(BagoError):
    """A bag-algebra query node violates its variable side conditions."""


class ArityMismatch(BagoError):
    """Binary bag operation applied to answer bags of different arities."""


class InvalidGraph(BagoError):
    """Graph input violates the reduction's shape requirements."""


class MultipleAnchors(BagoError):
    """A variable cluster links outward to two distinct individuals."""


class NotEqualityConsistent(BagoError):
    """A variable set that an equality links to a term outside it."""


class CrosscheckMismatch(BagoError):
    """The chase and rewriting evaluation paths disagree."""


class ChaseLimitExceeded(BagoError):
    """The chase would need more anonymous elements than its budget."""


class RewriteLimitExceeded(BagoError):
    """Rewriting would pass its budget, or its branches are too many to list."""


# What ends a run for want of resources: the CLI exits 5 on each of these, and
# a cross-check lets them through rather than count a failed comparison.
RESOURCE_LIMITS = (ChaseLimitExceeded, RewriteLimitExceeded, RecursionError, MemoryError)


class InternalStructureError(BagoError):
    """An internal invariant failed (e.g. no linking atom for a rooted query)."""


def combine(op, *maps):
    """Pointwise `op` folded over the maps, as a new map; zero results are dropped.

    A union copies the largest map and updates it from the others (a union of
    none is empty); intersection and difference fold two or more from the left.
    """
    if op == "max-union" or op == "arith-union":
        rest = sorted(maps, key=len)
        out = dict(rest.pop()) if rest else {}
        for small in rest:
            if op == "max-union":
                out.update({k: m for k, m in small.items() if out.get(k, 0) < m})
            else:
                out.update({k: out.get(k, 0) + m for k, m in small.items()})
        return {k: m for k, m in out.items() if m} if 0 in out.values() else out
    if op not in ("intersection", "difference"):
        raise ValueError(f"unknown bag operation {op!r}")
    out, *rest = maps
    for b in rest:
        if op == "difference":
            out = {k: d for k, m in out.items() if (d := m - b.get(k, 0)) > 0}
        else:
            out = {k: m if m <= n else n for k, m in out.items() if m and (n := b.get(k))}
    return out
