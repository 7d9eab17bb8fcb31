"""Structural graph parameters: neighborhood diversity, vertex cover, feedback vertex set.

Neighborhood diversity is exact and polynomial.  Vertex cover and feedback
vertex set are exact but exponential, so both run under a budget and report
when the budget is exceeded instead of searching unboundedly.  The twin
classes and the vertex-cover search read the graph's adjacency bitsets
(``Graph.masks``); the FVS search keeps a 2-core per node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInstanceError
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
    by_open: dict[int, list[int]] = {}
    by_closed: dict[int, list[int]] = {}
    classes: list[list[int]] = []
    for u, nbrs in enumerate(g.masks):
        closed = nbrs | 1 << u
        cls = by_open.get(nbrs) or by_closed.get(closed)
        if cls is None:
            cls = []
            classes.append(cls)
        cls.append(u)
        by_open[nbrs] = by_closed[closed] = cls
    kinds = tuple(
        "clique" if len(cls) > 1 and cls[1] in g.adj[cls[0]] else "independent" for cls in classes
    )
    return NdPartition(tuple(map(tuple, classes)), kinds)


def is_vertex_cover(g: Graph, vertices) -> bool:
    vs = set(vertices)
    return all(u in vs or v in vs for u, v in g.edge_list())


def is_feedback_vertex_set(g: Graph, vertices) -> bool:
    return is_acyclic(g, frozenset(vertices))


def vertex_cover_number(g: Graph, budget: int = DEFAULT_VC_BUDGET) -> BudgetedResult:
    """Exact minimum vertex cover if its size is within the budget.

    Bounded branching on bitsets: pick the lexicographically first
    uncovered edge and branch on its two endpoints.  A greedy maximal
    matching of the uncovered edges (in vertex order, so its first edge is
    the branched one) bounds what any cover below a node still needs, and
    the node is pruned when the cover so far plus that matching exceeds the
    budget or the incumbent's size.  Both tests are strict and every minimal
    cover is the leaf of the branch that always picks its own endpoint, so
    every minimum cover within the budget is reached and ties between
    optimal witnesses go to the lexicographically smallest vertex set.
    """
    if budget < 0:
        raise MalformedInstanceError("budget must be non-negative")
    masks = g.masks
    touched = sum(1 << v for v, m in enumerate(masks) if m)
    best: list = [None, None]  # size, witness

    def rec(chosen: int, size: int) -> None:
        # greedy matching of the uncovered edges over the unchosen vertices
        free = touched & ~chosen
        matched = 0
        edge = None
        while free:
            low = free & -free
            u = low.bit_length() - 1
            nbrs = masks[u] & free
            free ^= low
            if nbrs:
                w = nbrs & -nbrs
                free ^= w
                matched += 1
                if edge is None:
                    edge = (u, w.bit_length() - 1)
        if edge is None:
            cand = tuple(v for v in range(g.num_vertices) if chosen >> v & 1)
            if best[0] is None or (size, cand) < (best[0], best[1]):
                best[0], best[1] = size, cand
            return
        bound = size + matched
        if bound > budget or (best[0] is not None and bound > best[0]):
            return
        for w in edge:
            rec(chosen | 1 << w, size + 1)

    rec(0, 0)
    return BudgetedResult(best[0], best[1], budget)


def feedback_vertex_set(g: Graph, budget: int = DEFAULT_FVS_BUDGET) -> BudgetedResult:
    """Exact minimum feedback vertex set if its size is within the budget.

    Complete bounded-depth search: find a short cycle and branch on each of
    its vertices.  Every node carries the 2-core of G − chosen, updated
    incrementally by the degree-at-most-one deletion rule, so a node whose
    core is empty is a leaf without a cycle search, and the cycle search
    (``TwoCore.short_cycle``) runs on that core without peeling again.  The
    greedy FVS of ``fvs_bounds`` is the first incumbent when it fits the
    budget, and a node is pruned when ``len(chosen)`` plus the core's
    cycle-rank bound exceeds the budget or the incumbent's size.  Both tests
    are strict and every FVS contains a vertex of the branched cycle, so
    every minimum FVS is still reached and ties between optimal witnesses go
    to the lexicographically smallest vertex set.  Previously explored
    deletion sets are memoized.
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
        for v in sorted(core.short_cycle()):
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
