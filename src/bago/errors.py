"""Exception hierarchy and checked multiplicity arithmetic.

Multiplicities live in the unsigned 64-bit range. Evaluation never wraps or
saturates: any intermediate product or sum above U64_MAX raises
MultiplicityOverflow so that cross-checks cannot silently diverge.

`combine` is the one pointwise kernel behind every bag union, intersection,
difference and containment test (bags as the N-semiring of Green et al.).
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
    """A multiplicity left the unsigned 64-bit range during evaluation."""


class IllFormedQuery(BagoError):
    """A bag-algebra query node violates its variable side conditions."""


class ArityMismatch(BagoError):
    """Binary bag operation applied to answer bags of different arities."""


class InvalidGraph(BagoError):
    """Graph input violates the reduction's shape requirements."""


class MultipleAnchors(BagoError):
    """A variable cluster links outward to two distinct individuals."""


class CrosscheckMismatch(BagoError):
    """The chase and rewriting evaluation paths disagree."""


class ChaseLimitExceeded(BagoError):
    """The chase would need more anonymous elements than its budget."""


# What ends a run for want of resources: the CLI exits 5 on each of these, and
# a cross-check lets them through rather than count a failed comparison.
RESOURCE_LIMITS = (ChaseLimitExceeded, RecursionError, MemoryError)


class RewriteLimitExceeded(BagoError):
    """Query has too many existential variables for rewriting."""


class InternalStructureError(BagoError):
    """An internal invariant failed (e.g. no linking atom for a rooted query)."""


def checked_add(a, b):
    c = a + b
    if c > U64_MAX:
        raise MultiplicityOverflow(f"sum {a} + {b} exceeds the 64-bit range")
    return c


def checked_mul(a, b):
    c = a * b
    if c > U64_MAX:
        raise MultiplicityOverflow(f"product {a} * {b} exceeds the 64-bit range")
    return c


# op -> (pointwise function, the keys whose result can be nonzero)
_COMBINE = {
    "intersection": (min, lambda a, b: a.keys() & b.keys()),
    "max-union": (max, lambda a, b: a.keys() | b.keys()),
    "arith-union": (checked_add, lambda a, b: a.keys() | b.keys()),
    "difference": (lambda a, b: max(a - b, 0), lambda a, b: a.keys()),
}


def combine(op, a, b):
    """Pointwise `op` of two multiplicity maps; zero results are dropped."""
    try:
        fn, keys = _COMBINE[op]
    except KeyError:
        raise ValueError(f"unknown bag operation {op!r}") from None
    out = {}
    for k in keys(a, b):
        m = fn(a.get(k, 0), b.get(k, 0))
        if m:
            out[k] = m
    return out
