"""Max-CSP toolkit: instance model, structural parameters, exact and
approximate solvers, gadget instance generators, and a brute-force oracle."""

from .errors import (
    ContractViolationError,
    LemmaViolationError,
    MalformedInstanceError,
    MaxCspError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
)
from .model import (
    Assignment,
    Constraint,
    Formula,
    Kind,
    Literal,
    and_term,
    as_threshold,
    as_threshold_formula,
    at_least,
    count_satisfied,
    eval_constraint,
    majority,
    normalize_parity,
    or_clause,
    parity,
)
from .graphs import Graph, IncidenceGraph, VertexSplit, build_incidence_graph
from .structure import (
    BudgetedResult,
    NdPartition,
    ParamReport,
    analyze_graph,
    feedback_vertex_set,
    is_feedback_vertex_set,
    is_vertex_cover,
    neighborhood_diversity,
    vertex_cover_number,
)
from .oracle import (
    OracleResult,
    max_csp_bruteforce,
    parity_gauss_satisfiable,
    random_formula,
)
from .forest_solver import peel_forest, solve_forest
from .cover_solver import residual_exact_max, solve_via_vertex_cover
from .fvs_solver import approx_via_fvs, plan_route
from .cnf_approx import (
    ClausePartition,
    SparseVariableSelection,
    approx_max_cnf,
    clause_partition,
    is_balanced,
    select_sparse_variables,
)
from .reductions import (
    CnfReduction,
    DnfReduction,
    GadgetIndex,
    MccGraph,
    ThresholdReduction,
    cnf_to_majority,
    complete_mcc,
    edgeless_mcc,
    mcc_to_cnf,
    mcc_to_dnf,
    mcc_to_threshold,
    random_mcc,
    threshold_to_majority,
)
from .formats import (
    instance_digest,
    parse_instance,
    parse_mcc,
    serialize_instance,
    serialize_mcc,
)
from .report import SolveReport, fraction_str, parse_fraction

__version__ = "0.1.0"
