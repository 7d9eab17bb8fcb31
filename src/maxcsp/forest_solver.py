"""Exact polynomial-time MAX-THRESHOLD on formulas with acyclic incidence graphs.

The solver peels variable vertices from the leaves of each incidence tree
toward the root.  When the deepest remaining variable is processed, all its
child constraints have already lost their other variables, so each child is a
unit threshold on that variable alone and the locally best value is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContractViolationError, PreconditionError
from .graphs import bfs_tree, build_incidence_graph, find_cycle
from .model import Assignment, Formula, Kind, as_threshold_formula
from .oracle import OracleResult


@dataclass(frozen=True)
class PeelOutcome:
    witness: Assignment
    steps: int
    removed_satisfied: int
    removed_unsatisfied: int


def solve_forest(f: Formula) -> OracleResult:
    """Exact Max value and witness for a forest-incidence THRESHOLD instance.

    OR, AND and MAJORITY constraints are accepted and converted to explicit
    thresholds; PARITY is not expressible this way and is rejected.  A cyclic
    incidence graph is a precondition error.
    """
    out = peel_forest(f)
    return OracleResult(out.removed_satisfied, out.witness)


def peel_forest(f: Formula) -> PeelOutcome:
    if any(c.kind is Kind.PARITY for c in f.constraints):
        raise PreconditionError("forest solver handles only threshold-style constraints")
    try:
        thr = as_threshold_formula(f)
    except ContractViolationError as exc:
        raise PreconditionError(str(exc)) from exc
    inc = build_incidence_graph(thr)
    if find_cycle(inc.graph) is not None:
        raise PreconditionError("incidence graph contains a cycle")

    n, m = thr.num_vars, thr.num_constraints
    # Working state, all indexed by variable id (1-based) or constraint position.
    lits: list[dict[int, bool]] = [
        {lit.var: lit.positive for lit in c.literals} for c in thr.constraints
    ]
    thresholds: list[int] = [c.threshold for c in thr.constraints]  # type: ignore[misc]
    var_cons: list[set[int]] = [set() for _ in range(n + 1)]
    for j, c in enumerate(thr.constraints):
        for lit in c.literals:
            var_cons[lit.var].add(j)
    con_alive = [True] * m
    var_alive = [False] + [bool(cons) for cons in var_cons[1:]]
    bits = [0] * (n + 1)
    stats = {"satisfied": 0, "unsatisfied": 0, "steps": 0}

    def cleanup(touched: Iterable[int]) -> None:
        # Remove the always-true constraints among ``touched`` (counted
        # satisfied) and the exhausted ones with a positive threshold
        # (unsatisfied), then the variables left with no occurrences.
        # Removing either changes no other constraint, so one pass over the
        # constraints a step touched reaches the fixpoint.
        for j in touched:
            if not con_alive[j] or (thresholds[j] != 0 and lits[j]):
                continue
            con_alive[j] = False
            stats["satisfied" if thresholds[j] == 0 else "unsatisfied"] += 1
            for v in lits[j]:
                var_cons[v].discard(j)
                if not var_cons[v]:
                    var_alive[v] = False
            lits[j] = {}

    cleanup(range(m))
    # Peeling one component changes no other, so every root sees the
    # vertices this first cleanup removed and nothing else.
    removed = frozenset(
        [inc.variable_vertex(v) for v in range(1, n + 1) if not var_alive[v]]
        + [inc.constraint_vertex(j) for j in range(m) if not con_alive[j]]
    )

    visited: set[int] = set()
    for root_var in range(1, n + 1):
        if not var_alive[root_var] or inc.variable_vertex(root_var) in visited:
            continue
        root_vertex = inc.variable_vertex(root_var)
        depth, parent = bfs_tree(inc.graph, root_vertex, removed)
        visited.update(depth)
        order = sorted(
            (v for v in depth if inc.is_variable_vertex(v)),
            key=lambda v: (-depth[v], inc.variable_at(v)),
        )
        for vertex in order:
            var = inc.variable_at(vertex)
            if not var_alive[var]:
                continue
            stats["steps"] += 1
            parent_vertex = parent.get(vertex)
            parent_con = None
            if parent_vertex is not None:
                j = inc.constraint_at(parent_vertex)
                if con_alive[j] and var in lits[j]:
                    parent_con = j
            favor_true = favor_false = 0
            for j in sorted(var_cons[var]):
                if j == parent_con:
                    continue
                if len(lits[j]) != 1:
                    raise AssertionError("non-unit child constraint during peel")
                if thresholds[j] == 1:
                    if lits[j][var]:
                        favor_true += 1
                    else:
                        favor_false += 1
                # threshold >= 2 on a single literal: satisfied by neither value
            if favor_true > favor_false:
                value = 1
            elif favor_false > favor_true:
                value = 0
            elif parent_con is not None:
                value = 1 if lits[parent_con][var] else 0
            else:
                value = 1
            bits[var] = value
            touched = sorted(var_cons[var])
            for j in touched:
                literal_true = lits[j][var] == bool(value)
                del lits[j][var]
                if literal_true:
                    thresholds[j] -= 1
            var_cons[var].clear()
            var_alive[var] = False
            cleanup(touched)

    if any(con_alive):
        raise AssertionError("peel terminated with live constraints")
    return PeelOutcome(
        witness=Assignment(tuple(bits[1:])),
        steps=stats["steps"],
        removed_satisfied=stats["satisfied"],
        removed_unsatisfied=stats["unsatisfied"],
    )


def half_guarantee_value(f: Formula) -> int:
    """Solve a forest instance whose thresholds do not exceed their arities.

    For such instances the peel satisfies at least half of all constraints;
    the returned optimum is checked against that bound.
    """
    thr = as_threshold_formula(f)
    for c in thr.constraints:
        if c.threshold > c.arity:  # type: ignore[operator]
            raise PreconditionError(
                "half guarantee requires every threshold to be at most the arity"
            )
    value = solve_forest(thr).value
    if 2 * value < thr.num_constraints:
        raise AssertionError("half guarantee violated; this is a solver bug")
    return value
