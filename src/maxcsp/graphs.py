"""Simple undirected graphs and the variable-constraint incidence graph."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from typing import Iterable, Iterator

from .errors import MalformedInstanceError, PreconditionError
from .model import Formula


class Graph:
    """Immutable simple undirected graph on vertices 0..num_vertices-1.

    ``adj[v]`` lists the neighbours of v once each, in increasing order;
    repeated edges and both orientations of an edge collapse to one.
    """

    __slots__ = ("num_vertices", "adj")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]] = ()):
        if num_vertices < 0:
            raise MalformedInstanceError("num_vertices must be non-negative")
        adj: list[set[int]] = [set() for _ in range(num_vertices)]
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise MalformedInstanceError(f"edge ({u},{v}) out of range")
            if u == v:
                raise MalformedInstanceError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.num_vertices = num_vertices
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_list(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.num_vertices) for v in self.adj[u] if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph({self.num_vertices}, edges={self.num_edges})"


class TwoCore:
    """The 2-core of G − removed, kept as the set of deleted vertices.

    ``dead`` holds ``removed`` plus every vertex outside the 2-core: the
    vertices that repeatedly deleting a vertex of degree at most one takes
    away.  ``degree[v]`` is the number of neighbours of v outside ``dead``
    for every live v, and 0 for every dead v, so the live vertices are those
    of non-zero degree (each at least two).  The core is empty exactly when
    G − removed is a forest, and every cycle of G − removed lies inside the
    core.  ``branch_cycle`` is the FVS search's cycle search on the core;
    ``find_cycle`` walks the core for any cycle.
    """

    __slots__ = ("graph", "dead", "degree")

    def __init__(self, g: Graph, removed: Iterable[int] = frozenset()):
        self.graph = g
        self.dead = dead = set(removed)
        # most vertices have no removed neighbour, and isdisjoint builds no set
        self.degree = [
            0 if v in dead else len(a) if dead.isdisjoint(a) else len(a) - len(dead.intersection(a))
            for v, a in enumerate(g.adj)
        ]
        self._delete([v for v, d in enumerate(self.degree) if d <= 1 and v not in dead])

    @property
    def is_empty(self) -> bool:
        return not any(self.degree)

    def without(self, v: int) -> TwoCore:
        """The 2-core after also deleting ``v``; peels outward from v only."""
        child = TwoCore.__new__(TwoCore)
        child.graph, child.dead, child.degree = self.graph, set(self.dead), self.degree.copy()
        child._delete([v])
        return child

    def lowest(self, r: int) -> list[int]:
        """The ``r`` smallest live vertices, in order (all of them if fewer)."""
        return list(islice(compress(range(len(self.degree)), self.degree), r))

    def branch_cycle(self) -> list[int] | None:
        """The branch set of a cycle of the core with few branch options, or
        None when the core is empty.

        A run is a maximal path of core-degree-2 vertices; a component that
        is a bare cycle is one run.  A cycle's branch set holds its vertices
        of core degree at least three and the smallest vertex of each run on
        it.  The search is a BFS over the core in which a whole run is one
        step: a run entered at one level is walked to its far end at that
        level.  So BFS depth counts branch options rather than vertices.  It
        starts from each vertex of core degree at least three in turn, keeps
        the cycle with the fewest options closed by a non-tree edge, and
        stops once one of at most four options is in hand; a bare cycle is
        taken at once.  The branch set comes sorted, and is deterministic
        for a fixed graph and core.
        """
        g, degree = self.graph, self.degree
        adj = g.adj
        walked: set[int] = set()
        best: list[int] | None = None
        for root in range(g.num_vertices):
            d = degree[root]
            if not d or root in walked:
                continue
            if d == 2:
                # walk the run both ways; back at root, it is a bare cycle
                run = [root]
                for first in [x for x in adj[root] if degree[x]]:
                    prev, cur = root, first
                    while cur != root and degree[cur] == 2:
                        run.append(cur)
                        prev, cur = cur, next(x for x in adj[cur] if x != prev and degree[x])
                    if cur == root:
                        return [min(run)]
                walked.update(run)
                continue
            parent: dict[int, int | None] = {root: None}
            frontier = [root]
            found: list[int] | None = None
            while frontier and found is None:
                nxt = []
                for u in frontier:
                    if degree[u] == 2:
                        # u entered a run: walk on to its far end
                        prev, cur = parent[u], u
                        while True:
                            for w in adj[cur]:
                                if w != prev and degree[w]:
                                    break
                            if w in parent:
                                found = _close_cycle(cur, w, parent)
                                break
                            parent[w] = cur
                            if degree[w] != 2:
                                nxt.append(w)
                                break
                            prev, cur = cur, w
                    else:
                        for w in adj[u]:
                            if not degree[w]:
                                continue
                            if w not in parent:
                                parent[w] = u
                                nxt.append(w)
                            elif parent[u] != w and parent[w] != u:
                                found = _close_cycle(u, w, parent)
                                break
                    if found is not None:
                        break
                frontier = nxt
            if found is None:
                continue
            # A run on a cycle lies on it whole, so the runs are the maximal
            # stretches of core-degree-2 vertices.  The cycle was reached from
            # a vertex of core degree at least three, so it has one to start at.
            i = next(i for i, v in enumerate(found) if degree[v] != 2)
            options: list[int] = []
            low = -1  # smallest vertex of the run being passed, if any
            for v in found[i:] + found[:i]:
                if degree[v] != 2:
                    if low >= 0:
                        options.append(low)
                        low = -1
                    options.append(v)
                elif low < 0 or v < low:
                    low = v
            if low >= 0:
                options.append(low)
            if best is None or len(options) < len(best):
                best = options
                if len(best) <= 4:
                    break
        return None if best is None else sorted(best)

    def _delete(self, stack: list[int]) -> None:
        # Delete the stacked vertices, then every vertex whose degree drops
        # to one.  Each vertex is deleted once and each edge lowers one
        # degree once, so a whole-graph pass is linear.
        adj, dead, degree = self.graph.adj, self.dead, self.degree
        while stack:
            v = stack.pop()
            if v in dead:
                continue
            dead.add(v)
            degree[v] = 0
            for w in adj[v]:
                if w not in dead:
                    degree[w] -= 1
                    if degree[w] == 1:
                        stack.append(w)


def bfs_tree(
    g: Graph, root: int, removed: frozenset[int] = frozenset()
) -> tuple[dict[int, int], dict[int, int | None]]:
    """Breadth-first depths and parents from ``root``, ignoring removed vertices."""
    depth = {root: 0}
    parent: dict[int, int | None] = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w in removed or w in depth:
                    continue
                depth[w] = depth[u] + 1
                parent[w] = u
                nxt.append(w)
        frontier = nxt
    return depth, parent


def is_acyclic(g: Graph, removed: Iterable[int] = frozenset()) -> bool:
    """Forest test on the subgraph induced by the non-removed vertices."""
    return TwoCore(g, removed).is_empty


def find_cycle(g: Graph, removed: Iterable[int] = frozenset()) -> list[int] | None:
    """Return the vertex list of a cycle of G − removed, or None exactly
    when G − removed is a forest.

    Peels G − removed to its 2-core first, so a forest costs one linear
    pass.  Then walks from the smallest live vertex, each step to the
    smallest live neighbour other than the one it came from, until it
    reaches a vertex it has walked through; the cycle runs from there, in
    walk order.  Every core vertex has two live neighbours, so the walk
    never stops short of closing a cycle.
    """
    core = TwoCore(g, removed)
    live = core.lowest(1)
    if not live:
        return None
    adj, degree = g.adj, core.degree
    prev, cur = -1, live[0]
    at = {cur: 0}  # the walked vertices in walk order, to their positions
    while True:
        w = next(x for x in adj[cur] if x != prev and degree[x])
        if w in at:
            return list(at)[at[w]:]
        at[w] = len(at)
        prev, cur = cur, w


def _close_cycle(u: int, w: int, parent: dict[int, int | None]) -> list[int]:
    # u and w hang in one BFS tree, so their root paths meet; the edge uw is
    # not a tree edge, and in a simple graph the cycle has at least 3 vertices
    path_u = _path_to_root(u, parent)
    path_w = _path_to_root(w, parent)
    set_w = {v: i for i, v in enumerate(path_w)}
    i, v = next((i, v) for i, v in enumerate(path_u) if v in set_w)
    return path_u[: i + 1] + path_w[: set_w[v]][::-1]


def _path_to_root(v: int, parent: dict[int, int | None]) -> list[int]:
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    return path


@dataclass(frozen=True)
class VertexSplit:
    """A set of incidence-graph vertices split into its two sides.

    ``variables`` holds 1-based variable indices, ``constraints`` holds
    0-based constraint positions.
    """

    variables: frozenset[int]
    constraints: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.variables) + len(self.constraints)


def check_split_range(f: Formula, split: VertexSplit) -> None:
    """Raise ``PreconditionError`` unless every vertex of ``split`` is in ``f``."""
    for x in split.variables:
        if not 1 <= x <= f.num_vars:
            raise PreconditionError(f"variable {x} is not in the formula")
    for j in split.constraints:
        if not 0 <= j < f.num_constraints:
            raise PreconditionError(f"constraint index {j} is not in the formula")


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite occurrence graph of a formula.

    Vertices 0..num_vars-1 are the variables (variable i at vertex i-1) and
    vertices num_vars..num_vars+m-1 are the constraints (constraint position
    j at vertex num_vars+j).
    """

    num_vars: int
    num_constraints: int
    graph: Graph

    def variable_vertex(self, var: int) -> int:
        return var - 1

    def constraint_vertex(self, index: int) -> int:
        return self.num_vars + index

    def is_variable_vertex(self, vertex: int) -> bool:
        return vertex < self.num_vars

    def variable_at(self, vertex: int) -> int:
        return vertex + 1

    def constraint_at(self, vertex: int) -> int:
        return vertex - self.num_vars

    def split(self, vertices: Iterable[int]) -> VertexSplit:
        vs, cs = set(), set()
        for v in vertices:
            if not 0 <= v < self.graph.num_vertices:
                raise MalformedInstanceError(f"vertex {v} outside the incidence graph")
            if self.is_variable_vertex(v):
                vs.add(self.variable_at(v))
            else:
                cs.add(self.constraint_at(v))
        return VertexSplit(frozenset(vs), frozenset(cs))

    def vertices_of(self, split: VertexSplit) -> frozenset[int]:
        out = {self.variable_vertex(x) for x in split.variables}
        out |= {self.constraint_vertex(j) for j in split.constraints}
        return frozenset(out)


def build_incidence_graph(f: Formula) -> IncidenceGraph:
    """One vertex per variable and per constraint, edges marking occurrence.

    Variables with no occurrences become isolated vertices.
    """
    n, m = f.num_vars, f.num_constraints
    edges: Iterator[tuple[int, int]] = (
        (lit.var - 1, n + j) for j, c in enumerate(f.constraints) for lit in c.literals
    )
    return IncidenceGraph(n, m, Graph(n + m, edges))
