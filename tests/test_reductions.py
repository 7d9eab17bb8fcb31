import itertools
import random
from fractions import Fraction

import pytest

from maxcsp import (
    ContractViolationError,
    Formula,
    Kind,
    MalformedInstanceError,
    MccGraph,
    at_least,
    build_incidence_graph,
    cnf_to_majority,
    complete_mcc,
    edgeless_mcc,
    feedback_vertex_set,
    is_feedback_vertex_set,
    majority,
    max_csp_bruteforce,
    mcc_to_cnf,
    mcc_to_dnf,
    mcc_to_threshold,
    neighborhood_diversity,
    or_clause,
    random_formula,
    random_mcc,
    threshold_to_majority,
)

from helpers import has_multicolored_clique


def single_edge_graph():
    return MccGraph(2, 2, frozenset({((1, 1), (2, 1))}))


def test_mcc_graph_normalizes_and_validates():
    g = MccGraph(2, 2, frozenset({((2, 1), (1, 2))}))
    assert g.has_edge(1, 2, 2, 1)
    with pytest.raises(Exception):
        MccGraph(2, 2, frozenset({((1, 1), (1, 2))}))


def test_mcc_to_cnf_single_edge():
    out = mcc_to_cnf(single_edge_graph())
    f = out.formula
    assert f.num_vars == 2 and f.num_constraints == 3
    assert max_csp_bruteforce(f).value == 3  # satisfiable


def test_mcc_to_cnf_complete_graph_has_no_clauses():
    out = mcc_to_cnf(complete_mcc(2, 2))
    assert out.formula.num_constraints == 0


def test_mcc_to_cnf_edgeless_unsatisfiable():
    out = mcc_to_cnf(edgeless_mcc(2, 2))
    f = out.formula
    assert f.num_constraints == 4
    assert max_csp_bruteforce(f).value < 4


def test_mcc_to_cnf_padding_non_power_of_two():
    g = complete_mcc(2, 3)
    out = mcc_to_cnf(g)
    # padded to 4, so 2 bits per part and 4*4 - 9 existing-pair clauses... all
    # pairs involving a padded vertex are non-edges
    assert out.index.meta["padded_part_size"] == 4
    assert out.formula.num_vars == 4
    assert out.formula.num_constraints == 16 - 9
    assert max_csp_bruteforce(out.formula).value == out.formula.num_constraints


def test_mcc_cnf_equivalence_exhaustive_k2_n2():
    pairs = [((1, u), (2, v)) for u in (1, 2) for v in (1, 2)]
    for bits in itertools.product((0, 1), repeat=4):
        edges = frozenset(e for e, b in zip(pairs, bits) if b)
        g = MccGraph(2, 2, edges)
        f = mcc_to_cnf(g).formula
        sat = max_csp_bruteforce(f).value == f.num_constraints
        assert sat == has_multicolored_clique(g)


def test_mcc_to_dnf_single_edge():
    red = mcc_to_dnf(single_edge_graph())
    assert red.formula.num_constraints == 1
    assert red.target == 1
    assert red.epsilon == Fraction(1, 4)
    assert max_csp_bruteforce(red.formula).value == 1


def test_mcc_to_dnf_edgeless():
    red = mcc_to_dnf(edgeless_mcc(2, 2))
    assert red.formula.num_constraints == 0
    assert max_csp_bruteforce(red.formula).value == 0 < red.target


def test_mcc_to_dnf_triangle():
    g = MccGraph(3, 2, frozenset({((1, 1), (2, 1)), ((1, 1), (3, 1)), ((2, 1), (3, 1))}))
    red = mcc_to_dnf(g)
    assert red.target == 3
    assert max_csp_bruteforce(red.formula).value == 3


def test_mcc_to_dnf_at_most_one_term_per_pair():
    g = complete_mcc(2, 2)
    red = mcc_to_dnf(g)
    # any assignment picks one vertex pair, so exactly one of the four terms
    assert max_csp_bruteforce(red.formula).value == 1


def test_mcc_to_threshold_single_edge_counts():
    red = mcc_to_threshold(single_edge_graph())
    f = red.formula
    assert f.num_vars == 8
    assert f.num_constraints == 12
    assert max_csp_bruteforce(f).value == 12


def test_mcc_to_threshold_edgeless_unsatisfiable():
    red = mcc_to_threshold(edgeless_mcc(2, 2))
    f = red.formula
    assert max_csp_bruteforce(f).value < f.num_constraints


def test_mcc_threshold_equivalence_exhaustive_k2_n2():
    pairs = [((1, u), (2, v)) for u in (1, 2) for v in (1, 2)]
    for bits in itertools.product((0, 1), repeat=4):
        edges = frozenset(e for e, b in zip(pairs, bits) if b)
        g = MccGraph(2, 2, edges)
        f = mcc_to_threshold(g).formula
        sat = max_csp_bruteforce(f).value == f.num_constraints
        assert sat == has_multicolored_clique(g)


def test_mcc_threshold_fvs_witness():
    for seed in range(5):
        g = random_mcc(2, 2, 0.5, seed)
        red = mcc_to_threshold(g)
        bound = 2 * g.parts + 4 * (g.parts * (g.parts - 1) // 2)
        assert len(red.fvs_constraints) == bound
        inc = build_incidence_graph(red.formula)
        vertices = [inc.constraint_vertex(j) for j in red.fvs_constraints]
        assert is_feedback_vertex_set(inc.graph, vertices)
        exact = feedback_vertex_set(inc.graph, bound)
        assert exact.size is not None and exact.size <= bound


@pytest.mark.parametrize("k, n, minimum", [(2, 2, 6), (2, 3, 6), (3, 3, 15)])
def test_complete_mcc_threshold_gadget_fvs_minimum_beside_the_shipped_bound(k, n, minimum):
    # the shipped FVS has 2k + 4 C(k, 2) constraint vertices (8 at k = 2, 18
    # at k = 3); the exact search finds the minimum within it and nothing
    # one below, as tools/fvs_nodes.py prints
    red = mcc_to_threshold(complete_mcc(k, n))
    bound = 2 * k + 4 * (k * (k - 1) // 2)
    assert len(red.fvs_constraints) == bound == {2: 8, 3: 18}[k]
    g = build_incidence_graph(red.formula).graph
    assert feedback_vertex_set(g, bound).size == minimum
    assert feedback_vertex_set(g, minimum - 1).exceeded


def test_mcc_cnf_nd_bound():
    for seed in range(5):
        g = random_mcc(2, 2, 0.6, seed)
        red = mcc_to_cnf(g)
        inc = build_incidence_graph(red.formula)
        k = g.parts
        assert neighborhood_diversity(inc.graph).k <= k + k * (k - 1) // 2


def test_threshold_to_majority_d_positive():
    f = Formula(4, (at_least(3, 1, 2, 3, 4),))
    out = threshold_to_majority(f)
    main = out.constraints[0]
    assert main.kind is Kind.MAJORITY and main.arity == 6
    units = out.constraints[1:]
    assert len(units) == 2
    assert all(u.arity == 1 and not u.literals[0].positive for u in units)
    assert (max_csp_bruteforce(f).value == f.num_constraints) == (
        max_csp_bruteforce(out).value == out.num_constraints
    )


def test_threshold_to_majority_d_negative():
    f = Formula(4, (at_least(1, 1, 2, 3, 4),))
    out = threshold_to_majority(f)
    main = out.constraints[0]
    assert main.arity == 6
    units = out.constraints[1:]
    assert len(units) == 2 and all(u.literals[0].positive for u in units)


def test_threshold_to_majority_odd_arity_evening():
    f = Formula(3, (at_least(2, 1, 2, 3),))
    out = threshold_to_majority(f)
    main = out.constraints[0]
    assert main.arity == 4 and main.kind is Kind.MAJORITY
    assert len(out.constraints) == 2  # one evening unit only, d == 0


def test_threshold_to_majority_equisatisfiable_random():
    rng = random.Random(1)
    for trial in range(40):
        n = rng.randint(2, 7)
        f = random_formula(n, rng.randint(1, 4), {"THRESHOLD": 1}, (1, min(4, n)), seed=trial)
        out = threshold_to_majority(f)
        assert all(c.kind is Kind.MAJORITY for c in out.constraints)
        sat_in = max_csp_bruteforce(f).value == f.num_constraints
        sat_out = max_csp_bruteforce(out).value == out.num_constraints
        assert sat_in == sat_out


def test_threshold_to_majority_preserves_fvs():
    rng = random.Random(2)
    for trial in range(10):
        n = rng.randint(2, 6)
        f = random_formula(n, rng.randint(1, 5), {"THRESHOLD": 1}, (1, min(3, n)), seed=100 + trial)
        out = threshold_to_majority(f)
        a = feedback_vertex_set(build_incidence_graph(f).graph, 6)
        b = feedback_vertex_set(build_incidence_graph(out).graph, 6)
        assert a.size == b.size


def test_threshold_to_majority_rejects_other_kinds():
    with pytest.raises(ContractViolationError):
        threshold_to_majority(Formula(1, (or_clause(1),)))


def test_cnf_to_majority_module_of_binary_clauses():
    f = Formula(2, (or_clause(1, 2), or_clause(-1, 2), or_clause(1, -2)))
    out = cnf_to_majority(f)
    mains = out.constraints[:3]
    assert all(c.kind is Kind.MAJORITY and c.arity == 3 for c in mains)
    units = out.constraints[3:]
    assert len(units) == 1  # one module, one shared dummy
    assert max_csp_bruteforce(out).value == out.num_constraints


def test_cnf_to_majority_unit_module_unchanged():
    f = Formula(1, (or_clause(1),))
    out = cnf_to_majority(f)
    assert out.num_vars == 1
    assert out.constraints[0].arity == 1


def test_cnf_to_majority_equisatisfiable_random():
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randint(2, 6)
        f = random_formula(n, rng.randint(1, 6), {"OR": 1}, (1, min(3, n)), seed=trial)
        out = cnf_to_majority(f)
        sat_in = max_csp_bruteforce(f).value == f.num_constraints
        sat_out = max_csp_bruteforce(out).value == out.num_constraints
        assert sat_in == sat_out


def test_cnf_to_majority_nd_at_most_doubles_on_gadget_family():
    # The doubling bound is tied to clause modules of arity two, which is
    # what the clique gadgets with part size 2 produce; a single arity-four
    # module already needs two distinguishable dummies and breaks it.
    for seed in range(10):
        # capped at 1, which draws the same complete graph as any larger value
        g = random_mcc(3, 2, min(1.0, 0.1 * seed + 0.2), seed)
        f = mcc_to_cnf(g).formula
        nd_in = neighborhood_diversity(build_incidence_graph(f).graph).k
        nd_out = neighborhood_diversity(build_incidence_graph(cnf_to_majority(f)).graph).k
        assert nd_out <= 2 * nd_in


def test_cnf_to_majority_binary_module_is_tight():
    f = Formula(2, (or_clause(1, 2), or_clause(-1, 2)))
    out = cnf_to_majority(f)
    nd_in = neighborhood_diversity(build_incidence_graph(f).graph).k
    nd_out = neighborhood_diversity(build_incidence_graph(out).graph).k
    assert nd_out == 2 * nd_in


def test_cnf_to_majority_empty_clause():
    f = Formula(1, (or_clause(),))
    out = cnf_to_majority(f)
    assert max_csp_bruteforce(out).value < out.num_constraints


def test_cnf_to_majority_rejects_other_kinds():
    with pytest.raises(ContractViolationError):
        cnf_to_majority(Formula(1, (majority(1),)))


def test_has_multicolored_clique_enumerator():
    assert has_multicolored_clique(complete_mcc(3, 2))
    assert not has_multicolored_clique(edgeless_mcc(2, 2))
    assert has_multicolored_clique(single_edge_graph())


@pytest.mark.parametrize("edge_prob", [-0.1, 2.0, float("nan")])
def test_random_mcc_rejects_edge_probability_outside_unit_interval(edge_prob):
    with pytest.raises(MalformedInstanceError, match="edge probability"):
        random_mcc(2, 2, edge_prob, 0)


def test_gadget_index_chain_lengths():
    g = random_mcc(2, 3, 0.6, 5)
    red = mcc_to_threshold(g)
    for i in range(1, 3):
        for vertex in range(1, 4):
            assert len(red.index.variables[f"part{i}/chain{vertex}"]) == vertex
    for u, v in g.edges_between(1, 2):
        chain = red.index.variables[f"pair1.2/chain{u}.{v}"]
        assert len(chain) == g.part_size + 1 - v


def test_mcc_cnf_and_dnf_equivalence_part_size_four():
    for seed in range(25):
        g = random_mcc(2, 4, 0.3 + 0.02 * seed, seed)
        clique = has_multicolored_clique(g)
        f = mcc_to_cnf(g).formula
        assert (max_csp_bruteforce(f).value == f.num_constraints) == clique
        red = mcc_to_dnf(g)
        assert (max_csp_bruteforce(red.formula).value == red.target) == clique


def test_mcc_threshold_equivalence_part_size_four():
    # keep the gadget small enough for the oracle: edges may only enter the
    # last two vertices of part two, whose chains are short
    allowed = [((1, u), (2, v)) for u in (1, 2, 3, 4) for v in (3, 4)]
    rng = random.Random(12)
    checked = sat_seen = 0
    while checked < 8:
        edges = frozenset(e for e in allowed if rng.random() < 0.4)
        g = MccGraph(2, 4, edges)
        red = mcc_to_threshold(g)
        if red.formula.num_vars > 23:
            continue
        clique = has_multicolored_clique(g)
        res = max_csp_bruteforce(red.formula, var_limit=23)
        assert (res.value == red.formula.num_constraints) == clique
        checked += 1
        sat_seen += clique
    assert sat_seen > 0
