import random

import pytest

from maxcsp import (
    ContractViolationError,
    Formula,
    random_formula,
    Graph,
    MalformedInstanceError,
    MccGraph,
    analyze_graph,
    at_least,
    build_incidence_graph,
    complete_mcc,
    feedback_vertex_set,
    is_feedback_vertex_set,
    is_vertex_cover,
    mcc_to_threshold,
    neighborhood_diversity,
    or_clause,
    vertex_cover_number,
)

from maxcsp.graphs import TwoCore, find_cycle, is_acyclic
from maxcsp.structure import fvs_bounds

from helpers import (
    brute_lex_min_fvs,
    brute_lex_min_vertex_cover,
    brute_min_fvs,
    brute_min_vertex_cover,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_forest_by_union_find,
    joined_by_paths,
    minimum_partition_size,
    path_graph,
    petersen_graph,
    random_forest_graph,
    random_fvs_variable_hub_instance,
    random_graph,
    random_small_fvs_instance,
    reference_fvs,
    relabel,
    star_graph,
    subdivided,
    theta_graph,
    twin_classes,
    with_pendant_trees,
)


def test_nd_complete_bipartite():
    assert neighborhood_diversity(complete_bipartite(2, 3)).k == 2


def test_nd_path_four_vertices():
    g = path_graph(4)
    nd = neighborhood_diversity(g)
    assert nd.k == minimum_partition_size(g) == 4


def test_nd_edgeless():
    from maxcsp import Graph

    assert neighborhood_diversity(Graph(5)).k == 1


def test_nd_keeps_no_closed_neighbourhood_of_an_isolated_vertex():
    # N[u] of isolated vertex u is a u-bit int, so keeping one per isolated
    # vertex took memory quadratic in them: 1.5 MB at 2^12, 64 GiB at 2^20
    import tracemalloc

    g = Graph(1 << 12, [(0, 1)])
    tracemalloc.start()
    try:
        nd = neighborhood_diversity(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(c) for c in nd.classes] == [2, (1 << 12) - 2]
    assert peak < 1 << 19


def test_nd_matches_exhaustive_partition_search():
    rng = random.Random(7)
    for n in range(1, 8):
        for _ in range(6):
            g = random_graph(n, rng.random(), rng)
            assert neighborhood_diversity(g).k == minimum_partition_size(g)


def test_nd_classes_partition_and_kinds():
    g = complete_graph(4)
    nd = neighborhood_diversity(g)
    assert nd.k == 1 and nd.kinds == ("clique",)
    assert sorted(v for cls in nd.classes for v in cls) == list(range(4))


def test_vc_star():
    res = vertex_cover_number(star_graph(4), 16)
    assert res.size == 1 and res.witness == (0,)


def test_vc_cycle4():
    assert vertex_cover_number(cycle_graph(4), 16).size == 2


def test_vc_petersen():
    res = vertex_cover_number(petersen_graph(), 6)
    assert res.size == brute_min_vertex_cover(petersen_graph(), 6) == 6
    assert is_vertex_cover(petersen_graph(), res.witness)


def test_vc_budget_exceeded():
    res = vertex_cover_number(petersen_graph(), 5)
    assert res.exceeded and res.witness is None


def test_vc_witness_holds_high_numbered_constraint_vertices():
    # Constraint vertices are numbered from n up.  The one minimum cover of
    # the first incidence graph is its three constraint vertices; in the
    # second it is the one constraint vertex, numbered 2^12.
    f = Formula(8, (or_clause(1, 2), or_clause(1, 3), or_clause(4, 5, 6, 7, 8)))
    res = vertex_cover_number(build_incidence_graph(f).graph, 8)
    assert (res.size, res.witness) == (3, (8, 9, 10))
    n = 1 << 12
    res = vertex_cover_number(build_incidence_graph(Formula(n, (or_clause(1, 2),))).graph, 8)
    assert (res.size, res.witness) == (1, (n,))


def _traced(fn):
    # fn() and the peak of the memory it allocated
    import tracemalloc

    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nd_and_vc_memory_grows_linearly_on_path_incidence_graphs():
    # Per-vertex neighbour bitsets as wide as the graph made this peak grow
    # about 12x from 2048 to 8192 variables; adjacency lists grow it 4x.
    peaks = []
    for n in (2048, 8192):
        g = build_incidence_graph(Formula(n, tuple(or_clause(i, i + 1) for i in range(1, n)))).graph
        (nd, vc), peak = _traced(lambda: (neighborhood_diversity(g), vertex_cover_number(g)))
        assert nd.k == 2 * n - 1 and vc.exceeded
        peaks.append(peak)
    assert peaks[1] <= 5 * peaks[0], peaks


def test_vc_of_four_constraints_on_every_variable_is_the_constraint_vertices():
    n = 512
    cons = tuple(at_least(j + 1, *(v if (v + j) % 3 else -v for v in range(1, n + 1))) for j in range(4))
    res = vertex_cover_number(build_incidence_graph(Formula(n, cons)).graph)
    assert (res.size, res.witness) == (4, (n, n + 1, n + 2, n + 3))


def _vc_nodes(g: Graph, budget: int) -> int:
    # the search nodes of one vertex_cover_number call: the calls of its inner rec
    import sys

    from maxcsp import structure

    nodes = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "rec" and frame.f_code.co_filename == structure.__file__:
            nodes.append(1)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        vertex_cover_number(g, budget)
    finally:
        sys.setprofile(previous)
    return len(nodes)


def test_vc_search_nodes_are_pinned():
    # Any maximal matching is a valid bound and any uncovered edge a valid
    # branch, so the covers alone do not pin the matching's smallest partner
    # or the first-edge rule: partnering the largest free neighbour makes
    # 65, 9 and 39 nodes here.
    assert _vc_nodes(petersen_graph(), 6) == 59
    assert _vc_nodes(petersen_graph(), 5) == 11
    assert _vc_nodes(build_incidence_graph(mcc_to_threshold(complete_mcc(2, 2)).formula).graph, 16) == 27


def test_fvs_above_its_budget_stops_the_greedy_incumbent(monkeypatch):
    # the greedy FVS of this graph takes hundreds of picks; past the budget
    # its 13th shows it does not fit, and the root's bound is above 12
    calls = _count_calls(monkeypatch, "without")
    g = build_incidence_graph(random_formula(2048, 2048, {"OR": 1}, (3, 3), 5)).graph
    assert feedback_vertex_set(g, 12).exceeded
    assert len(calls) <= 13


def test_fvs_forest_is_zero():
    assert feedback_vertex_set(path_graph(6), 12).size == 0


def test_fvs_cycle5():
    res = feedback_vertex_set(cycle_graph(5), 12)
    assert res.size == 1
    assert is_feedback_vertex_set(cycle_graph(5), res.witness)


def test_fvs_k4():
    res = feedback_vertex_set(complete_graph(4), 12)
    assert res.size == brute_min_fvs(complete_graph(4), 4) == 2


def test_fvs_budget_exceeded():
    assert feedback_vertex_set(complete_graph(6), 1).exceeded


def test_fvs_at_most_vc_on_random_graphs():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng.randint(2, 8), rng.random(), rng)
        vc = vertex_cover_number(g, 8)
        fvs = feedback_vertex_set(g, 8)
        assert vc.size is not None and fvs.size is not None
        assert fvs.size <= vc.size


def test_exact_values_match_brute_force_on_random_graphs():
    rng = random.Random(13)
    for _ in range(15):
        g = random_graph(rng.randint(2, 7), rng.random(), rng)
        assert vertex_cover_number(g, 7).size == brute_min_vertex_cover(g, 7)
        assert feedback_vertex_set(g, 7).size == brute_min_fvs(g, 7)


def test_witnesses_verify_and_are_lex_minimal():
    g = cycle_graph(6)
    vc = vertex_cover_number(g, 16)
    assert is_vertex_cover(g, vc.witness)
    # both {0,2,4} and {1,3,5} are optimal; lexicographic rule picks {0,2,4}
    assert vc.witness == (0, 2, 4)
    fvs = feedback_vertex_set(g, 12)
    assert fvs.witness == (0,)


@pytest.mark.parametrize(
    "check, vertices, outside",
    [
        (is_feedback_vertex_set, [0, 99], 99),
        (is_vertex_cover, [0, 1, 42], 42),
        (is_vertex_cover, [-1, 0, 1], -1),
        (is_feedback_vertex_set, [3, 7], 3),
    ],
)
def test_witness_checks_reject_vertices_outside_the_graph(check, vertices, outside):
    # on the triangle (vertices 0..2) both checks used to ignore such a vertex
    # and answer True; the first one outside 0..|V| - 1 is named
    with pytest.raises(ContractViolationError, match=f"vertex {outside} is not in a graph on 3 vertices"):
        check(cycle_graph(3), vertices)


def test_negative_budget_rejected():
    with pytest.raises(MalformedInstanceError):
        vertex_cover_number(path_graph(2), -1)
    with pytest.raises(MalformedInstanceError):
        feedback_vertex_set(path_graph(2), -1)


def test_analyze_graph_on_incidence():
    f = Formula(2, (or_clause(1, 2), or_clause(-2)))
    inc = build_incidence_graph(f)
    report = analyze_graph(inc.graph)
    assert report.fvs.size == 0
    assert report.vc.size is not None
    # constraint vertex degree equals arity
    assert inc.graph.degree(inc.constraint_vertex(0)) == 2
    assert inc.graph.degree(inc.constraint_vertex(1)) == 1


def test_incidence_isolated_variable():
    f = Formula(1, ())
    inc = build_incidence_graph(f)
    assert inc.graph.num_vertices == 1
    assert inc.graph.degree(0) == 0


def test_incidence_empty_formula():
    inc = build_incidence_graph(Formula(0, ()))
    assert inc.graph.num_vertices == 0 and inc.graph.num_edges == 0


def test_incidence_edges_match_occurrences():
    f = Formula(2, (or_clause(1, 2), or_clause(-2)))
    inc = build_incidence_graph(f)
    assert inc.graph.edge_list() == [
        (0, inc.constraint_vertex(0)),
        (1, inc.constraint_vertex(0)),
        (1, inc.constraint_vertex(1)),
    ]


def _fvs_families():
    """Seeded small graphs on which the lexicographic FVS witness is checked."""
    rng = random.Random(41)
    for _ in range(6):
        yield random_forest_graph(rng.randint(1, 12), rng.randint(1, 3), rng)
    for n in range(5, 10):
        yield relabel(cycle_graph(n), rng)
    for _ in range(4):
        parts = [cycle_graph(rng.randint(3, 6)) for _ in range(rng.randint(2, 3))]
        yield relabel(disjoint_union(*parts), rng)
    for _ in range(5):
        yield relabel(with_pendant_trees(cycle_graph(rng.randint(3, 7)), rng.randint(1, 6), rng), rng)
    for _ in range(4):
        yield relabel(with_pendant_trees(disjoint_union(cycle_graph(5), complete_graph(4)), 4, rng), rng)
    for _ in range(8):
        yield random_graph(rng.randint(2, 9), rng.random(), rng)
    yield build_incidence_graph(mcc_to_threshold(complete_mcc(2, 2)).formula).graph


def test_fvs_witness_is_brute_force_lex_smallest_minimum():
    for g in _fvs_families():
        res = feedback_vertex_set(g, 12)
        assert res.witness == brute_lex_min_fvs(g, 12), g
        assert res.size == len(res.witness)


def test_find_cycle_is_none_exactly_on_forests():
    rng = random.Random(43)
    graphs = list(_fvs_families())
    graphs += [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(60)]
    for g in graphs:
        some = frozenset(v for v in range(g.num_vertices) if rng.random() < 0.2)
        for removed in (frozenset(), some):
            forest = is_forest_by_union_find(g, removed)
            assert is_acyclic(g, removed) == forest
            cycle = find_cycle(g, removed)
            assert (cycle is None) == forest
            if cycle is None:
                continue
            assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
            assert not removed & set(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert b in g.adj[a]


def test_find_cycle_walks_from_the_smallest_live_vertex():
    # the 9-cycle comes first in vertex order; pendant trees hang off both
    g = with_pendant_trees(disjoint_union(cycle_graph(9), cycle_graph(4)), 20, random.Random(5))
    assert find_cycle(g) == list(range(9))


def test_adjacency_is_one_increasing_symmetric_list_per_vertex():
    rng = random.Random(79)
    graphs = list(_fvs_families()) + list(_chain_families())
    graphs += [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(60)]
    for g in graphs:
        edges = g.edge_list()
        assert edges == sorted(set(edges)) and all(u < v for u, v in edges), g
        assert g.num_edges == len(edges)
        for v, nbrs in enumerate(g.adj):
            assert all(a < b for a, b in zip(nbrs, nbrs[1:])), (g, v)
            assert all(v in g.adj[w] for w in nbrs), (g, v)
        # repeated edges in both orientations collapse to one
        doubled = edges + [(v, u) for u, v in edges] + edges[::-1]
        rng.shuffle(doubled)
        again = Graph(g.num_vertices, doubled)
        assert again.adj == g.adj and again.edge_list() == edges


def test_fvs_lower_bound_is_at_most_the_minimum():
    rng = random.Random(47)
    graphs = list(_fvs_families()) + [random_graph(rng.randint(1, 9), rng.random(), rng) for _ in range(60)]
    for g in graphs:
        lower, _ = fvs_bounds(g, g.num_vertices)
        assert lower <= len(brute_lex_min_fvs(g, g.num_vertices)), g
    for n in range(3, 9):
        assert fvs_bounds(cycle_graph(n), n)[0] == 1
    assert fvs_bounds(complete_graph(4), 4)[0] == brute_min_fvs(complete_graph(4), 4) == 2
    assert fvs_bounds(path_graph(5), 5) == (0, ())


def test_greedy_fvs_is_a_feedback_vertex_set():
    rng = random.Random(53)
    graphs = list(_fvs_families()) + [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(60)]
    for g in graphs:
        lower, greedy = fvs_bounds(g, g.num_vertices)
        assert list(greedy) == sorted(set(greedy))
        assert is_forest_by_union_find(g, greedy), g
        assert len(greedy) >= lower


def test_witness_is_lex_smallest_when_the_greedy_fvs_is_minimum_but_not_lex_smallest():
    # Greedy deletes 1 (degree 3, the smallest index of four) and then 2;
    # {0, 2} has the same size and is lexicographically smaller.
    g = Graph(5, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert fvs_bounds(g, g.num_vertices)[1] == (1, 2)
    assert feedback_vertex_set(g, 12).witness == brute_lex_min_fvs(g, 12) == (0, 2)


def _count_calls(monkeypatch, method: str = "branch_cycle") -> list:
    # one entry per call of the TwoCore method; "branch_cycle" counts cycle
    # searches, "without" the child cores built
    calls = []
    original = getattr(TwoCore, method)

    def counting(core, *args):
        calls.append(1)
        return original(core, *args)

    monkeypatch.setattr(TwoCore, method, counting)
    return calls


def test_gadget_fvs_is_found_with_few_cycle_searches(monkeypatch):
    calls = _count_calls(monkeypatch)
    g = build_incidence_graph(mcc_to_threshold(complete_mcc(2, 3)).formula).graph
    res = feedback_vertex_set(g, 8)
    assert res.witness == (33, 38, 49, 50, 60, 61)
    # 38 branching once per run; 67 on every vertex of the shortest cycle,
    # and 1867 without the cycle-rank bound and the greedy incumbent.
    assert len(calls) == 38


def test_k3_gadget_fvs_is_searched_in_few_nodes(monkeypatch):
    calls = _count_calls(monkeypatch)
    g = build_incidence_graph(mcc_to_threshold(complete_mcc(3, 3)).formula).graph
    assert feedback_vertex_set(g, 14).exceeded
    # 388 cycle searches branching once per run (1334 TwoCore.without calls;
    # 5523 on every vertex of the shortest cycle)
    assert len(calls) <= 500
    calls.clear()
    res = feedback_vertex_set(g, 18)
    assert res.witness == (0, 1, 3, 80, 85, 96, 107, 108, 118, 129, 130, 140, 141, 151, 152)
    # 3249 with the tie cut (10 171 TwoCore.without calls), 3511 without it
    assert len(calls) <= 3400


def test_fvs_at_every_budget_up_to_the_minimum():
    # At a budget equal to the minimum the search may not prune a node whose
    # bound meets the budget; below it, it finds nothing.
    rng = random.Random(59)
    graphs = list(_fvs_families()) + [random_graph(rng.randint(3, 8), rng.random(), rng) for _ in range(30)]
    graphs.append(Graph(5, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)]))
    for g in graphs:
        lex = brute_lex_min_fvs(g, g.num_vertices)
        for budget in range(len(lex) + 1):
            res = feedback_vertex_set(g, budget)
            assert res.witness == (lex if budget == len(lex) else None), (g, budget)


def _vc_graphs():
    # the FVS families but their 28-vertex gadget, whose enumeration takes minutes
    rng = random.Random(61)
    yield from (g for g in _fvs_families() if g.num_vertices <= 20)
    for _ in range(40):
        yield random_graph(rng.randint(1, 10), rng.random(), rng)
    for seed in range(6):
        f = random_formula(5, 6, {"THRESHOLD": 1, "OR": 1, "PARITY": 1}, (1, 3), seed)
        yield build_incidence_graph(f).graph


def test_vc_at_every_budget_up_to_the_minimum():
    # The matching bound prunes strictly, so at a budget equal to the minimum
    # the lexicographically smallest minimum cover is still found; below it,
    # the search reports exceeded.
    for g in _vc_graphs():
        lex = brute_lex_min_vertex_cover(g, g.num_vertices)
        for budget in range(len(lex) + 1):
            res = vertex_cover_number(g, budget)
            assert res.witness == (lex if budget == len(lex) else None), (g, budget)
            assert res.exceeded == (budget < len(lex))
        assert vertex_cover_number(g, len(lex) + 3).witness == lex


def test_nd_classes_and_kinds_equal_the_pairwise_twin_test():
    rng = random.Random(67)
    graphs = list(_vc_graphs())
    graphs += [complete_graph(5), Graph(4), complete_bipartite(3, 2), Graph(6, [(0, 1), (2, 3), (4, 5)])]
    graphs += [relabel(disjoint_union(complete_graph(3), Graph(3), star_graph(3)), rng) for _ in range(5)]
    for g in graphs:
        nd = neighborhood_diversity(g)
        classes = twin_classes(g)
        assert list(nd.classes) == classes, g
        kinds = ["clique" if len(c) > 1 and c[1] in g.adj[c[0]] else "independent" for c in classes]
        assert list(nd.kinds) == kinds, g


def _bouquet(lengths) -> Graph:
    # cycles through vertex 0, the k-th through lengths[k] new vertices
    return joined_by_paths(1, [(0, 0, k) for k in lengths])


def _chain_families():
    """Seeded graphs made mostly of degree-2 runs, to check the run bypass."""
    rng = random.Random(71)
    for base in (complete_graph(4), complete_graph(5), petersen_graph()):
        for _ in range(3):
            yield relabel(subdivided(base, [rng.randint(1, 6) for _ in range(base.num_edges)]), rng)
    for lengths in ((0, 1, 2), (1, 1, 1), (2, 5, 3), (0, 3, 3, 4), (1, 2, 3, 4, 5)):
        yield relabel(theta_graph(lengths), rng)
    for lengths in ((2, 2), (2, 3, 4), (5, 2, 6, 3)):
        yield relabel(_bouquet(lengths), rng)
    # K4 plus a second run between two of its vertices, and pendant trees
    k4_twice = Graph(7, complete_graph(4).edge_list() + [(0, 4), (4, 5), (5, 6), (6, 1)])
    yield relabel(with_pendant_trees(k4_twice, 5, rng), rng)
    # bare cycles beside a subdivided K4
    k4 = subdivided(complete_graph(4), [2, 1, 3, 1, 2, 4])
    yield relabel(disjoint_union(cycle_graph(5), k4, cycle_graph(3), _bouquet((2, 3))), rng)
    for _ in range(4):
        yield build_incidence_graph(random_small_fvs_instance(rng, hubs=rng.randint(2, 3))[0]).graph
        yield build_incidence_graph(random_fvs_variable_hub_instance(rng)[0]).graph
    edges = sorted(complete_mcc(2, 2).edges)
    for graph in ([edges[0]], [edges[0], edges[3]], edges[:3], edges):
        yield build_incidence_graph(mcc_to_threshold(MccGraph(2, 2, frozenset(graph))).formula).graph


def test_fvs_equals_the_reference_search_on_chain_heavy_graphs():
    # Branching once per run must leave the size, the witness and the
    # exceeded verdict as the search that branches on every cycle vertex.
    for g in _chain_families():
        lex = reference_fvs(g, g.num_vertices)
        if g.num_vertices <= 20:
            assert lex == brute_lex_min_fvs(g, g.num_vertices), g
        for budget in range(len(lex) + 2):
            res = feedback_vertex_set(g, budget)
            assert res.witness == reference_fvs(g, budget), (g, budget)
            assert res.size == (None if res.witness is None else len(res.witness))


def _runs(core: TwoCore) -> dict[int, frozenset[int]]:
    # every core-degree-2 vertex mapped to the vertex set of its run, by a
    # flood fill over the core-degree-2 vertices
    g, live = core.graph, [v for v in range(core.graph.num_vertices) if v not in core.dead]
    runs: dict[int, frozenset[int]] = {}
    for v in live:
        if core.degree[v] != 2 or v in runs:
            continue
        run, stack = {v}, [v]
        while stack:
            for w in g.adj[stack.pop()]:
                if w not in core.dead and core.degree[w] == 2 and w not in run:
                    run.add(w)
                    stack.append(w)
        for w in run:
            runs[w] = frozenset(run)
    return runs


def test_branch_cycle_is_the_branch_set_of_a_cycle():
    rng = random.Random(73)
    graphs = list(_chain_families()) + list(_fvs_families())
    graphs += [random_graph(rng.randint(3, 12), rng.random(), rng) for _ in range(60)]
    for g in graphs:
        some = frozenset(v for v in range(g.num_vertices) if rng.random() < 0.15)
        for removed in (frozenset(), some):
            core = TwoCore(g, removed)
            options = core.branch_cycle()
            assert (options is None) == core.is_empty
            if options is None:
                continue
            assert options == sorted(set(options))
            runs = _runs(core)
            cycle = set()
            for v in options:
                assert v not in core.dead
                if core.degree[v] == 2:
                    assert v == min(runs[v])
                    cycle |= runs[v]
                else:
                    cycle.add(v)
            # the options and their runs hold a cycle, and each run lies on it whole
            assert not is_forest_by_union_find(g, set(range(g.num_vertices)) - cycle), (g, removed)
            assert all(sum(w in cycle for w in g.adj[v]) >= 2 for v in cycle)


def test_branch_cycle_takes_a_bare_cycle_at_once_and_a_short_one_in_a_dense_core():
    assert TwoCore(disjoint_union(complete_graph(5), relabel(cycle_graph(6), random.Random(1)))).branch_cycle() == [0, 1, 2]
    g = disjoint_union(path_graph(2), relabel(cycle_graph(7), random.Random(2)), complete_graph(4))
    assert TwoCore(g).branch_cycle() == [min(range(2, 9))] == [2]
    assert TwoCore(theta_graph((3, 4, 5))).branch_cycle() == [0, 1, 2, 5]


def _graphs_where(keep, count: int, seed: int):
    # the first ``count`` seeded random graphs, with their lexicographically
    # smallest minimum FVS, on which keep(greedy FVS, that FVS) holds
    rng = random.Random(seed)
    while count:
        g = random_graph(rng.randint(5, 11), rng.uniform(0.2, 0.6), rng)
        lex = brute_lex_min_fvs(g, g.num_vertices)
        if keep(fvs_bounds(g, g.num_vertices)[1], lex):
            count -= 1
            yield g, lex


def _high_index_answers():
    # a dense core under pendant trees, relabelled so that the core takes the
    # highest indices: every FVS lies there, and every low vertex is off the core
    rng = random.Random(79)
    for _ in range(10):
        g = with_pendant_trees(random_graph(rng.randint(4, 8), rng.uniform(0.4, 0.9), rng), rng.randint(3, 10), rng)
        n = g.num_vertices
        g = Graph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edge_list()])
        yield g, brute_lex_min_fvs(g, n)


def _dense_six_variable_formulas():
    # incidence graphs of THRESHOLD/MAJORITY formulas on 6 variables, with
    # constraints of arity 2-4 (as in the benchmark's six-variable family) or 3-6
    for seed in range(10):
        arity = (2, 4) if seed % 2 else (3, 6)
        f = random_formula(6, 8 + seed, {"THRESHOLD": 1, "MAJORITY": 1}, arity, seed)
        g = build_incidence_graph(f).graph
        yield g, brute_lex_min_fvs(g, g.num_vertices)


TIE_CUT_FAMILIES = {
    "greedy-minimum-not-lex-smallest": lambda: _graphs_where(lambda gr, lex: len(gr) == len(lex) and gr != lex, 10, 83),
    "greedy-larger-and-lex-smaller": lambda: _graphs_where(lambda gr, lex: len(gr) > len(lex) and gr < lex, 8, 89),
    "high-index-answers": _high_index_answers,
    "dense-six-variable-formulas": _dense_six_variable_formulas,
}


@pytest.mark.parametrize("family", TIE_CUT_FAMILIES)
def test_fvs_tie_cut_keeps_the_brute_force_witness(family):
    # The cut drops only tied nodes whose completions cannot beat the
    # incumbent, so every budget from 0 to the minimum plus one gives the
    # brute-force answer or exceeded.
    for g, lex in TIE_CUT_FAMILIES[family]():
        for budget in range(len(lex) + 2):
            res = feedback_vertex_set(g, budget)
            assert res.witness == (lex if budget >= len(lex) else None), (g, budget)
            assert res.size == (len(lex) if budget >= len(lex) else None)


def test_fvs_equals_brute_force_on_random_small_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw) -> Graph:
        n = draw(st.integers(1, 11))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph(n, draw(st.lists(st.sampled_from(pairs))) if pairs else [])

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @hypothesis.given(graphs())
    def check(g):
        lex = brute_lex_min_fvs(g, g.num_vertices)
        for budget in range(len(lex) + 2):
            assert feedback_vertex_set(g, budget).witness == (lex if budget >= len(lex) else None)

    check()


def test_fvs_tie_cut_builds_few_child_cores(monkeypatch):
    calls = _count_calls(monkeypatch, "without")
    g = build_incidence_graph(mcc_to_threshold(complete_mcc(2, 2)).formula).graph
    assert feedback_vertex_set(g, 12).witness == (0, 1, 3, 20, 26, 27)
    assert len(calls) == 251  # 605 without the tie cut
    calls.clear()
    f = random_formula(6, 16, {"THRESHOLD": 1, "MAJORITY": 1}, (2, 4), 3)
    assert feedback_vertex_set(build_incidence_graph(f).graph, 12).witness == (0, 1, 2, 3, 4)
    assert len(calls) == 16  # 111 without the tie cut
