"""Structural graph parameters: neighborhood diversity, vertex cover, feedback vertex set.

Neighborhood diversity is exact and polynomial.  Vertex cover and feedback
vertex set are exact but exponential, so both run under a budget and report
when the budget is exceeded instead of searching unboundedly.  The twin
classes and the vertex-cover search read the sorted adjacency lists
(``Graph.adj``), so the twin lookup costs O(V + E) in all and a cover search
node O(V + E); the FVS search keeps a 2-core per node, branches
once per run of core-degree-2 vertices and cuts a node tied with the
incumbent when no completion of it is lexicographically smaller.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

from .errors import ContractViolationError, MalformedInstanceError
from .graphs import Graph, TwoCore, is_acyclic

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
    diversity.  Non-adjacent twins share their open neighbourhood N(v) and
    adjacent twins their closed one N[v], so one lookup of each per vertex
    finds its class; classes come in order of their smallest vertex.
    """
    by_open: dict[tuple[int, ...], list[int]] = {}
    by_closed: dict[tuple[int, ...], list[int]] = {}
    classes: list[list[int]] = []
    for u, nbrs in enumerate(g.adj):
        # an isolated vertex has no adjacent twin, so its N[u] is not kept
        i = bisect(nbrs, u)
        closed = nbrs[:i] + (u,) + nbrs[i:]
        cls = by_open.get(nbrs) or by_closed.get(closed)
        if cls is None:
            cls = []
            classes.append(cls)
        cls.append(u)
        by_open[nbrs] = cls
        if nbrs:
            by_closed[closed] = cls
    kinds = tuple("clique" if len(cls) > 1 and cls[1] in g.adj[cls[0]] else "independent" for cls in classes)
    return NdPartition(tuple(map(tuple, classes)), kinds)


def _graph_vertices(g: Graph, vertices) -> frozenset[int]:
    """``vertices`` as a set, once each is one of g's 0..|V| - 1."""
    vs = list(vertices)
    outside = next((v for v in vs if not 0 <= v < g.num_vertices), None)
    if outside is not None:
        raise ContractViolationError(f"vertex {outside} is not in a graph on {g.num_vertices} vertices")
    return frozenset(vs)


def is_vertex_cover(g: Graph, vertices) -> bool:
    vs = _graph_vertices(g, vertices)
    return all(u in vs or v in vs for u, v in g.edge_list())


def is_feedback_vertex_set(g: Graph, vertices) -> bool:
    return is_acyclic(g, _graph_vertices(g, vertices))


def vertex_cover_number(g: Graph, budget: int = DEFAULT_VC_BUDGET) -> BudgetedResult:
    """Exact minimum vertex cover if its size is within the budget.

    Bounded branching on the adjacency lists: pick the lexicographically
    first uncovered edge and branch on its two endpoints.  A greedy maximal
    matching of the uncovered edges (in vertex order, so its first edge is
    the branched one) bounds what any cover below a node still needs, and
    the node is pruned, as soon as the matching grows that far, when the
    cover so far plus the matching exceeds the budget or the incumbent's
    size.  Both tests are strict and every minimal
    cover is the leaf of the branch that always picks its own endpoint, so
    every minimum cover within the budget is reached and ties between
    optimal witnesses go to the lexicographically smallest vertex set.
    One node costs O(V + E).
    """
    if budget < 0:
        raise MalformedInstanceError("budget must be non-negative")
    # Each vertex with its neighbours above it: a neighbour below u is chosen or
    # matched by u's turn (had it been free, it would have matched), so the scan
    # looks only up, and only chosen vertices and partners are marked used.
    later = [(u, nbrs[bisect(nbrs, u) :]) for u, nbrs in enumerate(g.adj) if nbrs and nbrs[-1] > u]
    best: list = [None, None]  # size, witness

    def rec(chosen: tuple[int, ...]) -> None:
        # greedy matching of the uncovered edges over the unchosen vertices,
        # stopped, and the node pruned, once it takes the bound past the limit
        limit = budget if best[0] is None else min(budget, best[0])
        used = set(chosen)
        bound = len(chosen)  # chosen plus the matching so far
        edge = None
        for u, nbrs in later:
            if u in used:
                continue
            for w in nbrs:
                if w not in used:
                    break
            else:
                # no free neighbour above u, so none at all: u stays unmatched
                continue
            used.add(w)
            bound += 1
            if bound > limit:
                return
            if edge is None:
                edge = (u, w)
        if edge is None:
            cand = tuple(sorted(chosen))
            if best[0] is None or (len(cand), cand) < (best[0], best[1]):
                best[0], best[1] = len(cand), cand
            return
        for w in edge:
            rec(chosen + (w,))

    rec(())
    return BudgetedResult(best[0], best[1], budget)


def feedback_vertex_set(g: Graph, budget: int = DEFAULT_FVS_BUDGET) -> BudgetedResult:
    """Exact minimum feedback vertex set if its size is within the budget.

    Complete bounded-depth search: find a cycle and branch on its branch
    set.  Every node carries the 2-core of G − chosen, updated incrementally
    by the degree-at-most-one deletion rule, so a node whose core is empty
    is a leaf without a cycle search, and the cycle search
    (``TwoCore.branch_cycle``) runs on that core without peeling again.  A
    run is a maximal path of core-degree-2 vertices, and a cycle's branch
    set is its vertices of core degree at least three plus the smallest
    vertex of each run on it (the degree-2 bypass of Cygan et al.,
    *Parameterized Algorithms*, 2015, §3.3).  Deleting any vertex of a run
    leaves the same 2-core, so a minimum FVS that uses some other vertex of
    a run can swap in the run's smallest vertex and become lexicographically
    smaller: the lexicographically smallest minimum FVS meets every
    cycle's branch set.  The greedy FVS of ``fvs_bounds`` is the first
    incumbent when it fits the budget, and a node is pruned when
    ``len(chosen)`` plus the core's cycle-rank bound exceeds the budget or
    the incumbent's size.  Both tests are strict, so that FVS is still
    reached whenever it fits the budget, and ties between optimal witnesses
    go to the lexicographically smallest vertex set.  Previously explored
    deletion sets are memoized.

    A node whose bound equals the incumbent's size k can only yield an FVS
    of size k that is lexicographically smaller than the incumbent.  Such an
    FVS adds r = k − |chosen| vertices, all live in the node's core: a
    vertex outside the core lies on no cycle of G − chosen, so dropping it
    would leave an FVS below the bound.  So the node is cut when chosen plus
    the r smallest live core vertices, sorted, is not below the incumbent's
    witness, and a branch vertex v is skipped, before its child core is
    built, when chosen ∪ {v} plus the r − 1 smallest other live vertices is
    not; the child's core lies in this core less v, and a larger v gives no
    smaller completion, so the loop stops there.
    """
    if budget < 0:
        raise MalformedInstanceError("budget must be non-negative")
    root = TwoCore(g)
    greedy = _greedy_fvs(root, budget)
    best: list = [len(greedy), greedy] if len(greedy) <= budget else [None, None]
    seen: set[frozenset[int]] = set()

    def rec(chosen: frozenset[int], core: TwoCore) -> None:
        seen.add(chosen)
        if core.is_empty:
            cand = tuple(sorted(chosen))
            if best[0] is None or (len(cand), cand) < (best[0], best[1]):
                best[0], best[1] = len(cand), cand
            return
        need = _cycle_rank_bound(core)
        bound = len(chosen) + need
        if bound > budget or (best[0] is not None and bound > best[0]):
            return
        # Tied with the incumbent (see above): a completion adds ``need`` live
        # core vertices, and the core has that many, as the bound counts them.
        tied = best[0] == bound
        if tied:
            low = core.lowest(need)
            if tuple(sorted(chosen.union(low))) >= best[1]:
                return
        for v in core.branch_cycle():
            child = chosen | {v}
            if child in seen:
                continue
            if tied and tuple(sorted(child.union([u for u in low if u != v][: need - 1]))) >= best[1]:
                break  # a larger v completes no lower
            rec(child, core.without(v))

    rec(frozenset(), root)
    return BudgetedResult(best[0], best[1], budget)


def fvs_bounds(g: Graph, limit: int) -> tuple[int, tuple[int, ...]]:
    """A lower bound on the minimum FVS of ``g`` and a greedy FVS (sorted),
    cut to ``limit + 1`` vertices when it has more than ``limit``."""
    root = TwoCore(g)
    return _cycle_rank_bound(root), _greedy_fvs(root, limit)


def _cycle_rank_bound(core: TwoCore) -> int:
    # The core has E edges on V vertices, so its cycle rank is at least
    # E − V + 1, and deleting a vertex of core degree d lowers it by at most
    # d − 1: an FVS needs at least as many vertices as the fewest largest
    # degrees whose (d − 1) sum reaches E − V + 1.  Zero on an empty core.
    degrees = sorted(filter(None, core.degree), reverse=True)
    need = sum(degrees) // 2 - len(degrees) + 1
    count = 0
    for d in degrees:
        if need <= 0:
            break
        need -= d - 1
        count += 1
    return count


def _greedy_fvs(core: TwoCore, limit: int) -> tuple[int, ...]:
    # Delete the live vertex of highest core degree (smallest index on
    # ties) until the core is empty, or until limit + 1 picks show that
    # the greedy set is above the limit.
    chosen = []
    live = [v for v in range(core.graph.num_vertices) if v not in core.dead]
    while live and len(chosen) <= limit:
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
