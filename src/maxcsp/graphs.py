"""Simple undirected graphs and the variable-constraint incidence graph."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MalformedInstanceError, PreconditionError
from .model import Formula


class Graph:
    """Immutable simple undirected graph on vertices 0..num_vertices-1."""

    __slots__ = ("num_vertices", "adj", "sorted_adj")

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
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self.sorted_adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in range(self.num_vertices) for v in self.adj[u] if u < v)

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
    for every live v.  The core is empty exactly when G − removed is a
    forest, and every cycle of G − removed lies inside the core.
    """

    __slots__ = ("graph", "dead", "degree")

    def __init__(self, g: Graph, removed: Iterable[int] = frozenset()):
        self.graph = g
        self.dead = dead = set(removed)
        self.degree = [len(a - dead) for a in g.adj]
        self._delete([v for v, d in enumerate(self.degree) if d <= 1 and v not in dead])

    @property
    def is_empty(self) -> bool:
        return self.dead.issuperset(range(self.graph.num_vertices))

    def without(self, v: int) -> TwoCore:
        """The 2-core after also deleting ``v``; peels outward from v only."""
        child = TwoCore.__new__(TwoCore)
        child.graph, child.dead, child.degree = self.graph, set(self.dead), self.degree.copy()
        child._delete([v])
        return child

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
            for w in g.sorted_adj[u]:
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
    """Return the vertex list of a short cycle, or None if the graph is a forest.

    Peels G − removed to its 2-core first, so a forest costs one linear
    pass.  Otherwise runs a BFS from each core vertex, over the core only,
    and keeps the shortest cycle closed by a non-tree edge; scanning stops
    once a cycle of length four is in hand (short enough for branching).
    Deterministic for a fixed graph.
    """
    core = TwoCore(g, removed)
    if core.is_empty:
        return None
    dead = core.dead
    best: list[int] | None = None
    for root in range(g.num_vertices):
        if root in dead:
            continue
        depth = {root: 0}
        parent: dict[int, int | None] = {root: None}
        frontier = [root]
        found: list[int] | None = None
        while frontier and found is None:
            nxt = []
            for u in frontier:
                for w in g.sorted_adj[u]:
                    if w in dead:
                        continue
                    if w not in depth:
                        depth[w] = depth[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent.get(w) != u:
                        found = _close_cycle(u, w, parent)
                        if found is not None:
                            break
                if found is not None:
                    break
            frontier = nxt
        if found is not None and (best is None or len(found) < len(best)):
            best = found
            if len(best) <= 4:
                return best
    return best


def _close_cycle(u: int, w: int, parent: dict[int, int | None]) -> list[int] | None:
    path_u = _path_to_root(u, parent)
    path_w = _path_to_root(w, parent)
    set_w = {v: i for i, v in enumerate(path_w)}
    for i, v in enumerate(path_u):
        if v in set_w:
            cycle = path_u[: i + 1] + path_w[: set_w[v]][::-1]
            return cycle if len(cycle) >= 3 else None
    return None


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
