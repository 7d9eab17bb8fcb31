"""Structural graph parameters: neighborhood diversity, vertex cover, feedback vertex set.

Neighborhood diversity is exact and polynomial.  Vertex cover and feedback
vertex set are exact but exponential, so both run under a budget and report
when the budget is exceeded instead of searching unboundedly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInstanceError
from .graphs import Graph, TwoCore, find_cycle, is_acyclic

DEFAULT_VC_BUDGET = 16
DEFAULT_FVS_BUDGET = 12


@dataclass(frozen=True)
class NdPartition:
    """Coarsest partition of the vertices into twin classes.

    Every class is a module inducing either a clique or an independent set;
    a singleton class is recorded as independent.
    """

    classes: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class BudgetedResult:
    """Outcome of a budgeted exact search: a size and witness, or exceeded."""

    size: int | None
    witness: tuple[int, ...] | None
    budget: int

    @property
    def exceeded(self) -> bool:
        return self.size is None


@dataclass(frozen=True)
class ParamReport:
    nd: int
    vc: BudgetedResult
    fvs: BudgetedResult
    nd_partition: NdPartition


def neighborhood_diversity(g: Graph) -> NdPartition:
    """Group vertices u, v together iff N(u) \\ {v} == N(v) \\ {u}.

    Twin equivalence yields the unique coarsest partition into clique or
    independent-set modules, so the class count is the neighborhood
    diversity.
    """
    n = g.num_vertices
    assigned = [False] * n
    classes: list[tuple[int, ...]] = []
    for u in range(n):
        if assigned[u]:
            continue
        cls = [u]
        assigned[u] = True
        for v in range(u + 1, n):
            if not assigned[v] and g.adj[u] - {v} == g.adj[v] - {u}:
                cls.append(v)
                assigned[v] = True
        classes.append(tuple(cls))
    kinds = []
    for cls in classes:
        if len(cls) == 1:
            kinds.append("independent")
        else:
            kinds.append("clique" if cls[1] in g.adj[cls[0]] else "independent")
    return NdPartition(tuple(classes), tuple(kinds))


def is_vertex_cover(g: Graph, vertices) -> bool:
    vs = set(vertices)
    return all(u in vs or v in vs for u, v in g.edge_list())


def is_feedback_vertex_set(g: Graph, vertices) -> bool:
    return is_acyclic(g, frozenset(vertices))


def vertex_cover_number(g: Graph, budget: int = DEFAULT_VC_BUDGET) -> BudgetedResult:
    """Exact minimum vertex cover if its size is within the budget.

    Bounded branching: pick the lexicographically first uncovered edge and
    branch on its two endpoints.  Ties between optimal witnesses go to the
    lexicographically smallest vertex set.
    """
    if budget < 0:
        raise MalformedInstanceError("budget must be non-negative")
    edges = g.edge_list()
    best: list = [None, None]  # size, witness

    def first_uncovered(chosen: set[int]) -> tuple[int, int] | None:
        for u, v in edges:
            if u not in chosen and v not in chosen:
                return u, v
        return None

    def rec(chosen: set[int]) -> None:
        edge = first_uncovered(chosen)
        if edge is None:
            cand = tuple(sorted(chosen))
            if best[0] is None or (len(cand), cand) < (best[0], best[1]):
                best[0], best[1] = len(cand), cand
            return
        if len(chosen) >= budget:
            return
        if best[0] is not None and len(chosen) + 1 > best[0]:
            return
        for w in edge:
            chosen.add(w)
            rec(chosen)
            chosen.remove(w)

    rec(set())
    return BudgetedResult(best[0], best[1], budget)


def feedback_vertex_set(g: Graph, budget: int = DEFAULT_FVS_BUDGET) -> BudgetedResult:
    """Exact minimum feedback vertex set if its size is within the budget.

    Complete bounded-depth search: find a short cycle and branch on each of
    its vertices.  Every node carries the 2-core of G − chosen, updated
    incrementally by the degree-at-most-one deletion rule, so a node whose
    core is empty is a leaf without a cycle search.  The greedy FVS of
    ``fvs_bounds`` is the first incumbent when it fits the budget, and a
    node is pruned when ``len(chosen)`` plus the core's cycle-rank bound
    exceeds the budget or the incumbent's size.  Both tests are strict and
    every FVS contains a vertex of the branched cycle, so every minimum FVS
    is still reached and ties between optimal witnesses go to the
    lexicographically smallest vertex set.  Previously explored deletion
    sets are memoized.
    """
    if budget < 0:
        raise MalformedInstanceError("budget must be non-negative")
    root = TwoCore(g)
    greedy = _greedy_fvs(root)
    best: list = [len(greedy), greedy] if len(greedy) <= budget else [None, None]
    seen: set[frozenset[int]] = set()

    def rec(chosen: frozenset[int], core: TwoCore) -> None:
        seen.add(chosen)
        if core.is_empty:
            cand = tuple(sorted(chosen))
            if best[0] is None or (len(cand), cand) < (best[0], best[1]):
                best[0], best[1] = len(cand), cand
            return
        bound = len(chosen) + _cycle_rank_bound(core)
        if bound > budget or (best[0] is not None and bound > best[0]):
            return
        for v in sorted(find_cycle(g, core.dead)):
            child = chosen | {v}
            if child not in seen:
                rec(child, core.without(v))

    rec(frozenset(), root)
    return BudgetedResult(best[0], best[1], budget)


def fvs_bounds(g: Graph) -> tuple[int, tuple[int, ...]]:
    """A lower bound on the minimum FVS of ``g`` and a greedy FVS (sorted)."""
    root = TwoCore(g)
    return _cycle_rank_bound(root), _greedy_fvs(root)


def _cycle_rank_bound(core: TwoCore) -> int:
    # The core has E edges on V vertices, so its cycle rank is at least
    # E − V + 1, and deleting a vertex of core degree d lowers it by at most
    # d − 1: an FVS needs at least as many vertices as the fewest largest
    # degrees whose (d − 1) sum reaches E − V + 1.  Zero on an empty core.
    dead = core.dead
    degrees = sorted((d for v, d in enumerate(core.degree) if v not in dead), reverse=True)
    need = sum(degrees) // 2 - len(degrees) + 1
    count = 0
    for d in degrees:
        if need <= 0:
            break
        need -= d - 1
        count += 1
    return count


def _greedy_fvs(core: TwoCore) -> tuple[int, ...]:
    # Delete the live vertex of highest core degree (smallest index on
    # ties) until the core is empty.
    chosen = []
    live = [v for v in range(core.graph.num_vertices) if v not in core.dead]
    while live:
        v = max(live, key=core.degree.__getitem__)  # the first of the largest
        chosen.append(v)
        core = core.without(v)
        live = [u for u in live if u not in core.dead]
    return tuple(sorted(chosen))


def analyze_graph(
    g: Graph,
    vc_budget: int = DEFAULT_VC_BUDGET,
    fvs_budget: int = DEFAULT_FVS_BUDGET,
) -> ParamReport:
    nd = neighborhood_diversity(g)
    vc = vertex_cover_number(g, vc_budget)
    fvs = feedback_vertex_set(g, fvs_budget)
    if vc.witness is not None and not is_vertex_cover(g, vc.witness):
        raise AssertionError("vertex cover witness failed verification")
    if fvs.witness is not None and not is_feedback_vertex_set(g, fvs.witness):
        raise AssertionError("feedback vertex set witness failed verification")
    return ParamReport(nd.k, vc, fvs, nd)
