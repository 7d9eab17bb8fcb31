"""Exact polynomial-time MAX-THRESHOLD on formulas with acyclic incidence graphs.

The solver peels variable vertices from the leaves of each incidence tree
toward the root.  When the deepest remaining variable is processed, all its
child constraints have already lost their other variables, so each child is a
unit threshold on that variable alone and the locally best value is optimal.

An instance is compiled once (``Forest``) and then peeled by O(n + m + occ)
list arithmetic, so the feedback-vertex-set scheme pays one peel per guess.
After a first cleanup, each component is rooted at its lowest live variable
and peeled by (-BFS depth, variable index), neighbours in increasing order;
this order fixes the witness.  A variable takes the value that satisfies more
of its unit child thresholds, on a tie the one that makes its literal in the
parent constraint true, and without a parent 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError
from .graphs import IncidenceGraph, VertexSplit, bfs_tree, build_incidence_graph, find_cycle
from .model import Assignment, Formula, Kind
from .oracle import OracleResult


@dataclass(frozen=True)
class PeelOutcome:
    witness: Assignment
    steps: int
    removed_satisfied: int
    removed_unsatisfied: int


class Forest:
    """A PARITY-free instance compiled for the peel: its incidence graph, and
    per constraint j its literal signs (``signs[j]``, variable -> sign) and
    its effective threshold.  The vertices of ``removed``, whose deletion
    must leave a forest, are not peeled: its constraints are ``deleted``, and
    its variables, ``fixed`` in increasing order, take each peel's values.
    """

    __slots__ = ("inc", "signs", "thresholds", "deleted", "fixed")

    def __init__(self, f: Formula, inc: IncidenceGraph, removed: VertexSplit | None = None):
        self.inc = inc
        self.signs = tuple({var: positive for var, positive in c.literals} for c in f.constraints)
        self.thresholds = tuple(c.effective_threshold() for c in f.constraints)
        self.deleted = removed.constraints if removed else frozenset()
        self.fixed = tuple(sorted(removed.variables)) if removed else ()


def _compile(f: Formula) -> Forest:
    if any(c.kind is Kind.PARITY for c in f.constraints):
        raise PreconditionError("forest solver handles only threshold-style constraints")
    inc = build_incidence_graph(f)
    if find_cycle(inc.graph) is not None:
        raise PreconditionError("incidence graph contains a cycle")
    return Forest(f, inc)


def solve_forest(f: Formula | Forest, values: Sequence[int] = ()) -> OracleResult:
    """Exact Max value and witness for a forest-incidence THRESHOLD instance.

    OR, AND and MAJORITY constraints are accepted as their thresholds;
    PARITY is not expressible this way and is rejected.  A cyclic incidence
    graph is a precondition error.  On a compiled ``Forest``, ``values``
    sets its fixed variables, and the value counts the kept constraints.
    """
    out = peel_forest(f, values)
    return OracleResult(out.removed_satisfied, out.witness)


def peel_forest(f: Formula | Forest, values: Sequence[int] = ()) -> PeelOutcome:
    """One peel of ``f``, compiled first when it is a ``Formula``.  ``values``
    sets ``f.fixed`` in order; each true literal lowers its constraint's
    threshold by one, down to 0."""
    forest = f if isinstance(f, Forest) else _compile(f)
    inc, signs, thresholds = forest.inc, forest.signs, list(forest.thresholds)
    n, m, adj = inc.num_vars, inc.num_constraints, inc.graph.adj
    # live literals per constraint; live constraints per variable vertex,
    # stale once the variable is peeled
    live = [len(s) for s in signs]
    degree = [len(adj[v]) for v in range(n)]
    con_alive = [True] * m
    for j in forest.deleted:
        con_alive[j] = False
        for v in adj[n + j]:
            degree[v] -= 1
    bits = [0] * n
    for var, value in zip(forest.fixed, values, strict=True):
        bits[var - 1], degree[var - 1] = value, 0
        for w in adj[var - 1]:
            live[w - n] -= 1
            if signs[w - n][var] == value:
                thresholds[w - n] = max(thresholds[w - n] - 1, 0)
    tally = [0, 0]  # constraints removed satisfied, unsatisfied

    def cleanup(touched: Iterable[int]) -> None:
        # Remove the always-true constraints among ``touched`` (counted
        # satisfied) and the exhausted ones with a positive threshold
        # (unsatisfied).  Removing either changes no other constraint, so
        # one pass over the constraints a step touched reaches the fixpoint.
        for j in touched:
            if not con_alive[j] or (thresholds[j] != 0 and live[j]):
                continue
            con_alive[j] = False
            tally[thresholds[j] != 0] += 1
            for v in adj[n + j]:
                degree[v] -= 1

    cleanup(range(m))
    # Peeling one component changes no other, so every root sees the
    # vertices this first cleanup removed and nothing else.
    removed = frozenset([v for v in range(n) if degree[v] <= 0])
    removed |= {n + j for j in range(m) if not con_alive[j]}
    steps = 0
    visited: set[int] = set()
    for root in range(n):
        if degree[root] <= 0 or root in visited:
            continue
        depth, parent = bfs_tree(inc.graph, root, removed)
        visited.update(depth)
        for vertex in sorted((v for v in depth if v < n), key=lambda v: (-depth[v], v)):
            if degree[vertex] <= 0:
                continue
            steps += 1
            var, up = vertex + 1, parent[vertex]
            cons = [w - n for w in adj[vertex] if con_alive[w - n]]
            parent_con = up - n if up is not None and con_alive[up - n] else None
            favor = 0  # unit children that 1 satisfies, less those that 0 does
            for j in cons:
                if j != parent_con:
                    if live[j] != 1:
                        raise AssertionError("non-unit child constraint during peel")
                    if thresholds[j] == 1:  # a threshold >= 2 on one literal never holds
                        favor += 1 if signs[j][var] else -1
            if favor:
                value = int(favor > 0)
            elif parent_con is not None:
                value = int(signs[parent_con][var])
            else:
                value = 1
            bits[vertex] = value
            for j in cons:
                live[j] -= 1
                if signs[j][var] == value:
                    thresholds[j] -= 1
            cleanup(cons)
    if any(con_alive):
        raise AssertionError("peel terminated with live constraints")
    return PeelOutcome(Assignment(tuple(bits)), steps, tally[0], tally[1])

