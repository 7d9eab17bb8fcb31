"""Approximation scheme for MAX-THRESHOLD parameterized by an incidence
feedback vertex set.

With a feedback vertex set F of size k, either the instance is small enough
(m at most (1 + 2/eps) * k) to solve exactly with the residual solver, or we
guess the assignment of F's variable vertices, delete F's constraint
vertices, solve the acyclic residual exactly with the forest solver, and keep
the best candidate evaluated on the original formula.  The best candidate
satisfies at least (1 - eps) * OPT constraints.

Constraints are read in place (``Constraint.effective_threshold``), and one
incidence graph per request serves the FVS search, the FVS checks and the
approx route, which compiles the instance once (``forest_solver.Forest``):
each guess costs one O(n + m + occ) peel, 2^|F's variables| peels in all,
in ``product`` order, and the first best guess wins.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .cover_solver import residual_exact_max
from .errors import MalformedInstanceError, PreconditionError, ResourceLimitError
from .forest_solver import Forest, solve_forest
from .graphs import IncidenceGraph, VertexSplit, build_incidence_graph, check_split_range, is_acyclic
from .model import Assignment, Formula, Kind, count_satisfied
from .oracle import OracleResult
from .report import parse_fraction
from .structure import feedback_vertex_set, fvs_bounds

ROUTE_EXACT_SMALL = "exact-small"
ROUTE_APPROX = "approx"


def plan_route(f: Formula, fvs: VertexSplit, epsilon) -> str:
    """Route selection with exact rational arithmetic on the threshold."""
    eps = parse_fraction(epsilon)
    if not 0 < eps < 1:
        raise PreconditionError(f"epsilon must be in (0, 1), got {eps}")
    return ROUTE_EXACT_SMALL if _is_small(f.num_constraints, fvs.size, eps) else ROUTE_APPROX


def _is_small(m: int, k: int, eps: Fraction) -> bool:
    return Fraction(m) <= (1 + Fraction(2) / eps) * k


def solve_with_fvs_search(f: Formula, epsilon, max_fvs: int) -> OracleResult:
    """``approx_via_fvs`` with a minimum incidence FVS of at most ``max_fvs``.

    When the FVS lower bound alone selects the exact-small route, so does
    every FVS, and that route reads only F's size: the greedy FVS is then
    passed, if it fits the budget, and the exact search skipped.
    Otherwise the search runs first, so a minimum above the budget raises
    ``ResourceLimitError`` before epsilon or the constraint kinds are checked.
    """
    inc = build_incidence_graph(f)
    lower, greedy = fvs_bounds(inc.graph, max_fvs)
    try:
        eps = parse_fraction(epsilon)
    except MalformedInstanceError:
        eps = None
    settled = eps is not None and 0 < eps < 1 and _is_small(f.num_constraints, lower, eps)
    if settled and len(greedy) <= max_fvs:
        witness = greedy
    else:
        fvs = feedback_vertex_set(inc.graph, max_fvs)
        if fvs.exceeded:
            raise ResourceLimitError(
                f"no incidence feedback vertex set within budget {max_fvs}; raise --max-fvs"
            )
        witness = fvs.witness
    return approx_via_fvs(f, inc.split(witness), epsilon, inc)


def approx_via_fvs(f: Formula, fvs: VertexSplit, epsilon, inc: IncidenceGraph | None = None) -> OracleResult:
    """(1 - eps)-approximate MAX-THRESHOLD given a feedback vertex set, checked
    on ``inc``, the incidence graph of ``f`` (built when not given); the
    result carries its route.  The exact-small route reads only |F|, so
    every FVS that selects it gives the same result.
    """
    if any(c.kind is Kind.PARITY for c in f.constraints):
        raise PreconditionError("feedback-vertex-set scheme handles only threshold-style constraints")
    check_split_range(f, fvs)
    inc = build_incidence_graph(f) if inc is None else inc
    if not is_acyclic(inc.graph, inc.vertices_of(fvs)):
        raise PreconditionError("deleting the given vertices does not leave a forest")
    route = plan_route(f, fvs, epsilon)

    if route == ROUTE_EXACT_SMALL:
        res = residual_exact_max(f)
        return OracleResult(res.value, res.witness, route)
    forest = Forest(f, inc, fvs)
    best_value = -1
    best_witness: Assignment | None = None
    for sigma in product((0, 1), repeat=len(forest.fixed)):
        tree = solve_forest(forest, sigma)
        # Deleted constraints can be satisfied incidentally, so score the
        # witness on the original formula.
        value = count_satisfied(f, tree.witness)
        if value < tree.value:
            raise AssertionError("original evaluation lost residual constraints")
        if value > best_value:
            best_value = value
            best_witness = tree.witness
    if best_witness is None:
        raise AssertionError("no forest guess scored")
    return OracleResult(best_value, best_witness, route)
