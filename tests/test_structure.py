import random

import pytest

from maxcsp import (
    Formula,
    random_formula,
    Graph,
    MalformedInstanceError,
    analyze_graph,
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
    minimum_partition_size,
    path_graph,
    petersen_graph,
    random_forest_graph,
    random_graph,
    relabel,
    star_graph,
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


def test_find_cycle_prefers_short_cycles():
    # the 9-cycle comes first in vertex order; pendant trees hang off both
    g = with_pendant_trees(disjoint_union(cycle_graph(9), cycle_graph(4)), 20, random.Random(5))
    assert len(find_cycle(g)) == 4


def test_fvs_lower_bound_is_at_most_the_minimum():
    rng = random.Random(47)
    graphs = list(_fvs_families()) + [random_graph(rng.randint(1, 9), rng.random(), rng) for _ in range(60)]
    for g in graphs:
        lower, _ = fvs_bounds(g)
        assert lower <= len(brute_lex_min_fvs(g, g.num_vertices)), g
    for n in range(3, 9):
        assert fvs_bounds(cycle_graph(n))[0] == 1
    assert fvs_bounds(complete_graph(4))[0] == brute_min_fvs(complete_graph(4), 4) == 2
    assert fvs_bounds(path_graph(5)) == (0, ())


def test_greedy_fvs_is_a_feedback_vertex_set():
    rng = random.Random(53)
    graphs = list(_fvs_families()) + [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(60)]
    for g in graphs:
        lower, greedy = fvs_bounds(g)
        assert list(greedy) == sorted(set(greedy))
        assert is_forest_by_union_find(g, greedy), g
        assert len(greedy) >= lower


def test_witness_is_lex_smallest_when_the_greedy_fvs_is_minimum_but_not_lex_smallest():
    # Greedy deletes 1 (degree 3, the smallest index of four) and then 2;
    # {0, 2} has the same size and is lexicographically smaller.
    g = Graph(5, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert fvs_bounds(g)[1] == (1, 2)
    assert feedback_vertex_set(g, 12).witness == brute_lex_min_fvs(g, 12) == (0, 2)


def test_gadget_fvs_is_found_with_few_cycle_searches(monkeypatch):
    calls = []
    search = TwoCore.short_cycle

    def counting(core):
        calls.append(1)
        return search(core)

    monkeypatch.setattr(TwoCore, "short_cycle", counting)
    g = build_incidence_graph(mcc_to_threshold(complete_mcc(2, 3)).formula).graph
    res = feedback_vertex_set(g, 8)
    assert res.witness == (33, 38, 49, 50, 60, 61)
    # 67 with the cycle-rank bound and the greedy incumbent; 1867 without.
    assert len(calls) <= 200


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
