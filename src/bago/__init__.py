"""Bag-semantics OBDA engine for DL-Lite_core ontologies."""

from .errors import (
    ArityMismatch,
    BagoError,
    ChaseLimitExceeded,
    CrosscheckMismatch,
    IllFormedQuery,
    InvalidGraph,
    MultipleAnchors,
    MultiplicityOverflow,
    NotEqualityConsistent,
    NotRooted,
    ParseError,
    RepeatedAnswerVariable,
    SafetyViolation,
    UnsatisfiableOntology,
    UnsupportedTBoxKind,
)
from .ontology import (
    AtomicConcept,
    BagABox,
    BagOntology,
    ConceptDisjointness,
    ConceptInclusion,
    ExistsRole,
    Role,
    RoleDisjointness,
    RoleInclusion,
    TBox,
    is_satisfiable,
    parse_abox,
    parse_tbox,
)
from .query import (
    CQ,
    ConceptAtom,
    Const,
    EqualityAtom,
    InequalityAtom,
    RoleAtom,
    Var,
    is_rooted,
    linking_atom,
    ma_connected_partition,
    parse_cq,
)
from .chase import (
    Anon,
    BagInterpretation,
    ChaseResult,
    chase,
    interpretation_from_abox,
    required_depth,
)
from .bagalg import (
    AnswerBag,
    BalgArithUnion,
    BalgAtom,
    BalgDiff,
    BalgEqFilter,
    BalgJoin,
    BalgMaxUnion,
    BalgProject,
    bag_ops,
    eval_balg,
    eval_cq,
    eval_cq_neq,
    eval_partitioned,
    parse_balg,
    to_sexpr,
)
from .rewrite import (
    RealisabilityCertificate,
    Rewriting,
    build_probe,
    chase_back,
    collapse,
    evaluate_rewriting,
    is_realisable,
    rewrite,
)
from .answers import (
    CertRequest,
    bag_cert,
    certain_answers,
    crosscheck_one,
    crosscheck_random,
)
from .threecol import Graph, coloring_model, gen_3col, parse_coloring, parse_graph

__version__ = "0.1.0"
