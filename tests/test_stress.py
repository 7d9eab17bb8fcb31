"""Adversarial randomized stress tests beyond the per-module suites."""

import itertools
import random
from fractions import Fraction

from maxcsp import (
    Constraint,
    Formula,
    Kind,
    Literal,
    VertexSplit,
    approx_via_fvs,
    build_incidence_graph,
    count_satisfied,
    is_feedback_vertex_set,
    max_csp_bruteforce,
    parity_gauss_satisfiable,
    residual_exact_max,
    solve_forest,
    solve_via_vertex_cover,
)

from helpers import (
    naive_max_csp,
    random_forest_formula,
    random_fvs_variable_hub_instance,
    random_small_fvs_instance,
    simplify_fix_variable,
)


def test_forest_solver_nasty_distributions():
    # duplicate constraints, zero thresholds, thresholds above arity,
    # multiple components, and majority mixes all at once
    rng = random.Random(71)
    for trial in range(150):
        n = rng.randint(1, 9)
        parent = list(range(n + 12))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        constraints = []
        for j in range(rng.randint(1, 8)):
            arity = rng.randint(0, 3)
            chosen = []
            for var in rng.sample(range(1, n + 1), min(arity, n)):
                if find(var - 1) != find(n + j):
                    parent[find(var - 1)] = find(n + j)
                    chosen.append(var)
            lits = tuple(Literal(v, bool(rng.getrandbits(1))) for v in chosen)
            kind = rng.choice(["t", "m", "o", "a"])
            if kind == "t":
                constraints.append(
                    Constraint(Kind.THRESHOLD, lits, threshold=rng.randint(0, len(lits) + 2))
                )
            elif kind == "m":
                constraints.append(Constraint(Kind.MAJORITY, lits))
            elif kind == "o":
                constraints.append(Constraint(Kind.OR, lits))
            else:
                constraints.append(Constraint(Kind.AND, lits))
            if rng.random() < 0.3:
                constraints.append(constraints[-1])  # exact duplicate, new vertex
                parent.append(len(parent))
        # duplicates add constraint vertices; rebuild union-find consistency by
        # only keeping formulas whose incidence graph is actually a forest
        f = Formula(n, tuple(constraints))
        from maxcsp.graphs import find_cycle

        if find_cycle(build_incidence_graph(f).graph) is not None:
            continue
        assert solve_forest(f).value == naive_max_csp(f)[0]


def test_cover_solver_with_redundant_covers():
    # covers larger than necessary, including every vertex of one side
    rng = random.Random(72)
    for trial in range(40):
        f = random_forest_formula(rng, max_vars=8, max_cons=6)
        all_cons = VertexSplit(frozenset(), frozenset(range(f.num_constraints)))
        all_vars = VertexSplit(frozenset(range(1, f.num_vars + 1)), frozenset())
        both = VertexSplit(
            frozenset(range(1, f.num_vars + 1)), frozenset(range(f.num_constraints))
        )
        expect = max_csp_bruteforce(f).value
        assert solve_via_vertex_cover(f, all_cons).value == expect
        assert solve_via_vertex_cover(f, all_vars).value == expect
        assert solve_via_vertex_cover(f, both).value == expect


def test_fvs_with_mixed_vertex_sets():
    rng = random.Random(73)
    for trial in range(30):
        f1, s1 = random_small_fvs_instance(rng, max_vars=8, max_cons=6, hubs=1)
        f2, s2 = random_fvs_variable_hub_instance(rng, max_vars=6, max_cons=5)
        # merge the two instances into one formula with a combined fvs of
        # one constraint vertex and one variable vertex
        offset_v = f1.num_vars
        offset_c = f1.num_constraints
        shifted = []
        for c in f2.constraints:
            lits = tuple(Literal(l.var + offset_v, l.positive) for l in c.literals)
            shifted.append(
                Constraint(c.kind, lits, threshold=c.threshold)
                if c.kind is Kind.THRESHOLD
                else Constraint(c.kind, lits)
            )
        f = Formula(f1.num_vars + f2.num_vars, f1.constraints + tuple(shifted))
        fvs = VertexSplit(
            frozenset(x + offset_v for x in s2.variables),
            s1.constraints,
        )
        inc = build_incidence_graph(f)
        assert is_feedback_vertex_set(inc.graph, inc.vertices_of(fvs))
        opt = max_csp_bruteforce(f).value
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            rep = approx_via_fvs(f, fvs, eps)
            assert Fraction(rep.value) >= (1 - eps) * opt


def test_residual_exact_max_deterministic_and_optimal_witness():
    from maxcsp import random_formula

    for trial in range(20):
        f = random_formula(7, 4, {"THRESHOLD": 1, "MAJORITY": 1}, (1, 4), seed=600 + trial)
        a = residual_exact_max(f)
        b = residual_exact_max(f)
        assert a == b
        assert count_satisfied(f, a.witness) == a.value == naive_max_csp(f)[0]


def test_zero_variable_formulas_through_all_entry_points():
    f = Formula(
        0,
        (
            Constraint(Kind.THRESHOLD, (), threshold=0),
            Constraint(Kind.THRESHOLD, (), threshold=1),
            Constraint(Kind.OR, ()),
            Constraint(Kind.AND, ()),
        ),
    )
    assert max_csp_bruteforce(f).value == 2
    assert solve_forest(f).value == 2
    assert (
        solve_via_vertex_cover(
            f, VertexSplit(frozenset(), frozenset(range(f.num_constraints)))
        ).value
        == 2
    )
    rep = approx_via_fvs(f, VertexSplit(frozenset(), frozenset()), "0.5")
    assert rep.value == 2


def test_empty_formula_through_all_entry_points():
    f = Formula(0, ())
    assert max_csp_bruteforce(f).value == 0
    assert solve_forest(f).value == 0
    assert approx_via_fvs(f, VertexSplit(frozenset(), frozenset()), "0.5").value == 0


def test_parity_gauss_wide_systems():
    # bit-packed rows are plain integers, so width is unbounded
    rng = random.Random(74)
    n = 120
    constraints = []
    for _ in range(80):
        arity = rng.randint(1, 6)
        variables = rng.sample(range(1, n + 1), arity)
        lits = tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables)
        constraints.append(Constraint(Kind.PARITY, lits, parity_rhs=rng.getrandbits(1)))
    f = Formula(n, tuple(constraints))
    sat, witness = parity_gauss_satisfiable(f)
    if sat:
        assert count_satisfied(f, witness) == f.num_constraints
    # planting a solution must always be satisfiable
    hidden = [rng.getrandbits(1) for _ in range(n)]
    planted = []
    for c in constraints:
        total = sum(
            (hidden[l.var - 1] if l.positive else 1 - hidden[l.var - 1]) for l in c.literals
        )
        planted.append(Constraint(Kind.PARITY, c.literals, parity_rhs=total % 2))
    sat, witness = parity_gauss_satisfiable(Formula(n, tuple(planted)))
    assert sat


def test_simplify_chain_full_elimination_matches_eval():
    from maxcsp import random_formula

    rng = random.Random(75)
    for trial in range(40):
        n = rng.randint(1, 6)
        f = random_formula(
            n, rng.randint(1, 6),
            {"OR": 1, "AND": 1, "PARITY": 1, "THRESHOLD": 1, "MAJORITY": 1},
            (1, min(3, n)), seed=trial,
        )
        for bits in itertools.product((0, 1), repeat=n):
            g = f
            total = 0
            for x, v in enumerate(bits, start=1):
                g, d = simplify_fix_variable(g, x, v)
                total += d
            # fully-fixed formula: remaining constraints have no literals
            from maxcsp import Assignment, eval_constraint

            leftover = sum(
                1 for c in g.constraints if eval_constraint(c, Assignment(bits))
            )
            assert total + leftover == count_satisfied(f, Assignment(bits))
            break  # one assignment per formula keeps this quick
