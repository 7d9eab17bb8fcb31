"""Exact MAX-THRESHOLD parameterized by an incidence vertex cover.

Branch over all assignments of the cover's variable side; constraints outside
the cover then have all variables fixed and are counted directly, while the
at-most-k covered constraints form a residual whose optimum is found by
testing constraint subsets in decreasing size with a type-vector counting
argument: variables with identical occurrence patterns are interchangeable,
so only the number set to true per pattern matters.  Once a level of subsets
outnumbers the assignments of the residual's occurring variables, those
assignments are enumerated instead (see ``residual_exact_max``).
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import Sequence

from .errors import ContractViolationError, PreconditionError
from .graphs import VertexSplit, build_incidence_graph
from .model import (
    Assignment,
    Constraint,
    Formula,
    as_threshold_formula,
    count_satisfied,
    eval_constraint,
    simplify_fix_variable,
)
from .oracle import _CHUNK_BITS, OracleResult, _first_max_satisfied_set

CoverSplit = VertexSplit


def type_vector(var: int, constraints: Sequence[Constraint]) -> tuple[int, ...]:
    """Occurrence pattern of ``var``: +1 positive, -1 negative, 0 absent, per constraint."""
    out = []
    for c in constraints:
        entry = 0
        for lit in c.literals:
            if lit.var == var:
                entry = 1 if lit.positive else -1
                break
        out.append(entry)
    return tuple(out)


def _occurrence_maps(num_vars: int, constraints: Sequence[Constraint]) -> list[dict[int, int]]:
    """Per variable, the map constraint-position -> +1/-1 for its occurrences."""
    occ: list[dict[int, int]] = [dict() for _ in range(num_vars + 1)]
    for j, c in enumerate(constraints):
        for lit in c.literals:
            occ[lit.var][j] = 1 if lit.positive else -1
    return occ


def _group_by_type(
    occ: Sequence[dict[int, int]], variables: Sequence[int], positions: Sequence[int]
) -> dict[tuple[int, ...], list[int]]:
    """Type classes of ``variables`` over the constraints at ``positions``:
    variables with the same occurrence pattern there share a class, and
    variables that occur in none of them are left out."""
    groups: dict[tuple[int, ...], list[int]] = {}
    zero = (0,) * len(positions)
    for x in variables:
        vec = tuple(occ[x].get(j, 0) for j in positions)
        if vec != zero:
            groups.setdefault(vec, []).append(x)
    if len(groups) > min(3 ** min(len(positions), 40), len(variables)):
        raise AssertionError("more type classes than possible")
    return groups


def feasible_true_counts(
    num_vars: int,
    constraints: Sequence[Constraint],
    groups: dict[tuple[int, ...], list[int]] | None = None,
) -> dict[tuple[int, ...], int] | None:
    """Search for per-type-class counts of true variables satisfying every constraint.

    Constraint i is satisfied when (true positives) + (false negatives) meets
    its threshold.  Complete backtracking over the classes with interval
    pruning on each constraint's reachable satisfied-literal count; classes
    are visited in sorted vector order and counts tried in increasing order,
    so the first solution is deterministic.
    """
    k = len(constraints)
    if groups is None:
        occ = _occurrence_maps(num_vars, constraints)
        groups = _group_by_type(occ, range(1, num_vars + 1), range(k))
    vectors = sorted(groups)
    sizes = [len(groups[v]) for v in vectors]
    targets = [c.effective_threshold() for c in constraints]

    # Base satisfied count per constraint if every class chose 0 true
    # variables: negative occurrences all count as true literals.
    base = [0] * k
    for vec, size in zip(vectors, sizes):
        for i, entry in enumerate(vec):
            if entry == -1:
                base[i] += size
    # Maximum extra satisfied literals reachable from class index ci onward.
    # A +1 entry gains by setting variables true, a -1 entry by leaving the
    # class at 0, so the slack per class is its size for +1 entries only.
    suffix_gain = [[0] * k for _ in range(len(vectors) + 1)]
    for ci in range(len(vectors) - 1, -1, -1):
        for i in range(k):
            gain = sizes[ci] if vectors[ci][i] == 1 else 0
            suffix_gain[ci][i] = suffix_gain[ci + 1][i] + gain

    chosen: dict[tuple[int, ...], int] = {}

    def rec(ci: int, sat: list[int]) -> bool:
        if any(sat[i] + suffix_gain[ci][i] < targets[i] for i in range(k)):
            return False
        if ci == len(vectors):
            return True
        vec = vectors[ci]
        for count in range(sizes[ci] + 1):
            nxt = list(sat)
            for i, entry in enumerate(vec):
                if entry == 1:
                    nxt[i] += count
                elif entry == -1:
                    nxt[i] -= count
            if rec(ci + 1, nxt):
                chosen[vec] = count
                return True
        return False

    if rec(0, base):
        for vec in vectors:
            chosen.setdefault(vec, 0)
        return chosen
    return None


def _selection_to_assignment(
    num_vars: int,
    groups: dict[tuple[int, ...], list[int]],
    selection: dict[tuple[int, ...], int],
) -> Assignment:
    bits = [0] * num_vars
    for vec, members in groups.items():
        for x in sorted(members)[: selection.get(vec, 0)]:
            bits[x - 1] = 1
    return Assignment(tuple(bits))


def _subset_witness(
    thr: Formula, occ: Sequence[dict[int, int]], variables: Sequence[int], subset: Sequence[int]
) -> Assignment | None:
    """An assignment satisfying every constraint of ``subset``, or None."""
    groups = _group_by_type(occ, variables, subset)
    selection = feasible_true_counts(thr.num_vars, [thr.constraints[j] for j in subset], groups)
    if selection is None:
        return None
    return _selection_to_assignment(thr.num_vars, groups, selection)


def residual_exact_max(f: Formula) -> OracleResult:
    """Maximum simultaneously satisfiable constraints of a small residual.

    Tests constraint subsets in decreasing cardinality (lexicographic within
    a size) and returns on the first feasible subset; monotonicity of
    feasibility under taking subsets makes that the optimum.  The witness
    sets, per type class, the lowest-index variables true.

    A level of C(m, s) subsets costs more than enumerating the 2^r
    assignments of the r occurring variables once C(m, s) > 2^r.  From the
    first such level on, when r fits one oracle chunk, the satisfied sets of
    the maximisers are enumerated instead: the first feasible subset of the
    remaining levels is the first of them in the same order, and its witness
    comes from the same type-class search, so the result is unchanged.
    """
    thr = as_threshold_formula(f)
    m = thr.num_constraints
    occ = _occurrence_maps(thr.num_vars, thr.constraints)
    relevant = [x for x in range(1, thr.num_vars + 1) if occ[x]]
    r = len(relevant)
    for size in range(m, -1, -1):
        if r <= _CHUNK_BITS and comb(m, size) > 1 << r:
            subset = _first_max_satisfied_set(thr.constraints, relevant)
            witness = _subset_witness(thr, occ, relevant, subset)
            if witness is None or len(subset) > size:
                raise AssertionError("a maximiser's satisfied set failed the subset search")
            return OracleResult(len(subset), witness)
        for subset in combinations(range(m), size):
            witness = _subset_witness(thr, occ, relevant, subset)
            if witness is not None:
                return OracleResult(size, witness)
    raise AssertionError("the empty subset is always feasible")


def verify_cover(f: Formula, cover: VertexSplit) -> None:
    for x in cover.variables:
        if not 1 <= x <= f.num_vars:
            raise PreconditionError(f"variable {x} is not in the formula")
    for j in cover.constraints:
        if not 0 <= j < f.num_constraints:
            raise PreconditionError(f"constraint index {j} is not in the formula")
    inc = build_incidence_graph(f)
    vs = inc.vertices_of(cover)
    for u, v in inc.graph.edge_list():
        if u not in vs and v not in vs:
            var = inc.variable_at(u) if inc.is_variable_vertex(u) else inc.variable_at(v)
            con = inc.constraint_at(v) if not inc.is_variable_vertex(v) else inc.constraint_at(u)
            raise PreconditionError(
                f"not a vertex cover: occurrence of variable {var} in constraint {con} uncovered"
            )


def solve_via_vertex_cover(f: Formula, cover: VertexSplit) -> OracleResult:
    """Exact optimum given a verified vertex cover of the incidence graph."""
    try:
        thr = as_threshold_formula(f)
    except ContractViolationError as exc:
        raise PreconditionError(str(exc)) from exc
    verify_cover(thr, cover)
    cover_vars = sorted(cover.variables)
    covered = sorted(cover.constraints)
    outside = [j for j in range(thr.num_constraints) if j not in cover.constraints]
    for j in outside:
        if not set(thr.constraints[j].variables) <= set(cover_vars):
            raise AssertionError("uncovered constraint with a variable outside the cover")

    best_value = -1
    best_witness: Assignment | None = None
    for sigma in product((0, 1), repeat=len(cover_vars)):
        probe = Assignment.zeros(thr.num_vars)
        for x, v in zip(cover_vars, sigma):
            probe = probe.replace(x, v)
        fixed_count = sum(1 for j in outside if eval_constraint(thr.constraints[j], probe))

        residual = Formula(thr.num_vars, tuple(thr.constraints[j] for j in covered))
        delta = 0
        for x, v in zip(cover_vars, sigma):
            residual, d = simplify_fix_variable(residual, x, v)
            delta += d
        sub = residual_exact_max(residual)

        total = fixed_count + delta + sub.value
        witness = sub.witness
        for x, v in zip(cover_vars, sigma):
            witness = witness.replace(x, v)
        if count_satisfied(thr, witness) != total:
            raise AssertionError("cover solver bookkeeping mismatch")
        if total > best_value:
            best_value = total
            best_witness = witness
    if best_witness is None:
        raise AssertionError("no cover assignment scored")
    return OracleResult(best_value, best_witness)


def all_constraints_cover(f: Formula) -> VertexSplit:
    """The always-valid cover consisting of every constraint vertex."""
    return VertexSplit(frozenset(), frozenset(range(f.num_constraints)))
