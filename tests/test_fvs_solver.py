import random
from fractions import Fraction
from itertools import product

import pytest

from maxcsp import (
    Formula,
    PreconditionError,
    VertexSplit,
    approx_via_fvs,
    as_threshold_formula,
    at_least,
    count_satisfied,
    majority,
    max_csp_bruteforce,
    plan_route,
    solve_forest,
    solve_via_vertex_cover,
)

from helpers import random_forest_formula, random_small_fvs_instance, simplify_fix_variable

EMPTY = VertexSplit(frozenset(), frozenset())


def test_forest_instance_is_solved_exactly():
    rng = random.Random(1)
    for _ in range(25):
        f = random_forest_formula(rng, max_vars=10, max_cons=8)
        report = approx_via_fvs(f, EMPTY, "0.5")
        assert report.value == max_csp_bruteforce(f).value
        assert report.route == "approx"  # empty set routes through the tree solver


def test_small_route_is_exact():
    # The route solves the whole instance as one residual; the vertex-cover
    # solver on the cover of every constraint vertex is the reference.
    rng = random.Random(2)
    small = 0
    for _ in range(20):
        f, fvs = random_small_fvs_instance(rng, max_vars=8, max_cons=5, hubs=2)
        report = approx_via_fvs(f, fvs, "0.25")
        if report.route == "exact-small":
            small += 1
            assert report.value == max_csp_bruteforce(f).value
            everything = VertexSplit(frozenset(), frozenset(range(f.num_constraints)))
            ref = solve_via_vertex_cover(as_threshold_formula(f), everything)
            assert (report.value, report.witness) == (ref.value, ref.witness)
    assert small > 0


def test_guarantee_on_small_fvs_instances():
    rng = random.Random(3)
    for _ in range(60):
        f, fvs = random_small_fvs_instance(rng, max_vars=10, max_cons=8, hubs=2)
        opt = max_csp_bruteforce(f).value
        for eps in ("0.25", "0.5"):
            report = approx_via_fvs(f, fvs, eps)
            assert Fraction(report.value) >= (1 - Fraction(eps)) * opt
            assert count_satisfied(f, report.witness) == report.value


def test_route_boundary_exact():
    # One hub constraint over two variables in a 4-cycle with itself: build a
    # tiny instance with fvs witness of size 1 and vary the clause count
    # around the threshold floor((1 + 2/eps) * k).
    eps = Fraction(1, 4)
    k = 1
    boundary = int((1 + 2 / eps) * k)  # 9
    for m, expected in ((boundary, "exact-small"), (boundary + 1, "approx")):
        fillers = tuple(at_least(1, i + 2) for i in range(m - 1))
        hub = at_least(1, 1, 2)
        f = Formula(m + 1, (hub,) + fillers)
        fvs = VertexSplit(frozenset(), frozenset({0}))
        assert plan_route(f, fvs, eps) == expected
        report = approx_via_fvs(f, fvs, eps)
        assert report.route == expected


def test_value_at_least_forest_value_after_deletion():
    rng = random.Random(7)
    for _ in range(30):
        f, fvs = random_small_fvs_instance(rng, max_vars=9, max_cons=6, hubs=1)
        report = approx_via_fvs(f, fvs, "0.5")
        if report.route != "approx":
            continue
        from maxcsp import as_threshold_formula

        thr = as_threshold_formula(f)
        kept = [j for j in range(thr.num_constraints) if j not in fvs.constraints]
        best_tree = 0
        for bits in product((0, 1), repeat=len(sorted(fvs.variables))):
            residual = thr
            for x, v in zip(sorted(fvs.variables), bits):
                residual, _ = simplify_fix_variable(residual, x, v)
            residual = Formula(thr.num_vars, tuple(residual.constraints[j] for j in kept))
            best_tree = max(best_tree, solve_forest(residual).value)
        assert report.value >= best_tree


def test_invalid_fvs_rejected():
    f = Formula(2, (at_least(1, 1, 2), at_least(2, 1, 2)))
    with pytest.raises(PreconditionError):
        approx_via_fvs(f, EMPTY, "0.5")


def test_epsilon_domain_checked():
    f = Formula(1, (at_least(1, 1),))
    with pytest.raises(PreconditionError):
        approx_via_fvs(f, EMPTY, "0")
    with pytest.raises(PreconditionError):
        approx_via_fvs(f, EMPTY, "1")


def test_rejects_parity():
    from maxcsp import parity

    f = Formula(2, (parity(0, 1, 2),))
    with pytest.raises(PreconditionError):
        approx_via_fvs(f, EMPTY, "0.5")


def test_majority_instances_handled():
    f = Formula(5, (majority(1, 2, 3), majority(-4, 2), majority(5)))
    report = approx_via_fvs(f, EMPTY, "0.5")
    assert report.value == max_csp_bruteforce(f).value


def test_variable_vertices_in_the_feedback_set():
    from helpers import random_fvs_variable_hub_instance
    from maxcsp import build_incidence_graph, is_feedback_vertex_set

    rng = random.Random(13)
    guesses_exercised = 0
    for _ in range(30):
        f, fvs = random_fvs_variable_hub_instance(rng)
        inc = build_incidence_graph(f)
        assert is_feedback_vertex_set(inc.graph, inc.vertices_of(fvs))
        opt = max_csp_bruteforce(f).value
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            report = approx_via_fvs(f, fvs, eps)
            assert Fraction(report.value) >= (1 - eps) * opt
            if report.route == "approx":
                guesses_exercised += 1
    assert guesses_exercised > 0


def _count_exact_searches(monkeypatch) -> list:
    from maxcsp import fvs_solver

    calls = []
    search = fvs_solver.feedback_vertex_set

    def counting(g, budget):
        calls.append(budget)
        return search(g, budget)

    monkeypatch.setattr(fvs_solver, "feedback_vertex_set", counting)
    return calls


def _cycle_with_fillers(fillers: int) -> Formula:
    # two constraints on variables 1 and 2 close a 4-cycle; each filler is a
    # unit constraint on a variable of its own
    cycle = (at_least(1, 1, 2), at_least(2, 1, -2))
    return Formula(2 + fillers, cycle + tuple(at_least(1, 3 + i) for i in range(fillers)))


def test_exact_search_is_skipped_only_when_the_bound_settles_the_route(monkeypatch):
    from maxcsp.fvs_solver import solve_with_fvs_search

    calls = _count_exact_searches(monkeypatch)
    # lower bound 1, so m <= 1 + 2/eps settles exact-small
    for fillers, eps, searched in (
        (0, "1/4", False),
        (7, "1/4", False),  # m = 9 = (1 + 8) * 1
        (8, "1/4", True),  # m = 10: only the exact size decides the route
        (30, "1/2", True),
        (2, "99/100", True),  # m = 4 > 1 + 200/99
        (1, "99/100", False),
    ):
        calls.clear()
        f = _cycle_with_fillers(fillers)
        report = solve_with_fvs_search(f, eps, 12)
        assert bool(calls) == searched, (fillers, eps)
        # the minimum FVS has one vertex, so the searched cases are the ones
        # beyond 1 + 2/eps constraints
        assert report.route == ("approx" if searched else "exact-small")


def _fvs_as_instances():
    from maxcsp import MccGraph, complete_mcc, mcc_to_threshold, random_formula, serialize_instance

    kinds = {"OR": 1, "AND": 1, "THRESHOLD": 2, "MAJORITY": 1}
    for seed in range(24):
        n, m = 3 + seed % 5, 2 + seed % 9
        yield f"rand{seed}", serialize_instance(random_formula(n, m, kinds, (1, 3), seed))
    edges = sorted(complete_mcc(2, 2).edges)
    for i, graph in enumerate([[e] for e in edges] + [[edges[0], edges[3]]]):
        yield f"gadget{i}", serialize_instance(mcc_to_threshold(MccGraph(2, 2, frozenset(graph))).formula)


def test_fvs_as_output_is_the_same_without_the_shortcut(tmp_path, capsys, monkeypatch):
    from maxcsp import fvs_solver, structure
    from maxcsp.cli import main

    calls = _count_exact_searches(monkeypatch)
    skipped = 0
    for name, text in _fvs_as_instances():
        path = tmp_path / f"{name}.mcsp"
        path.write_text(text)
        outputs = []
        for shortcut in (True, False):
            with monkeypatch.context() as patch:
                if not shortcut:
                    # a lower bound of 0 settles nothing on a non-empty instance
                    patch.setattr(fvs_solver, "fvs_bounds", lambda g, limit: (0, structure.fvs_bounds(g, limit)[1]))
                calls.clear()
                for eps in ("1/4", "1/2", "9/10"):
                    code = main(["solve", "--alg", "fvs-as", "--epsilon", eps, str(path), "--json", "--with-oracle"])
                    captured = capsys.readouterr()
                    outputs.append((code, captured.out, captured.err))
                if shortcut:
                    skipped += 3 - len(calls)
                else:
                    assert len(calls) == 3
        assert outputs[:3] == outputs[3:], name
    assert skipped >= 30


def _mixed_kinds(rng: random.Random, f: Formula) -> Formula:
    """``f`` with each constraint's kind redrawn among OR, AND, MAJORITY and
    THRESHOLD (which keeps its threshold)."""
    from maxcsp import Constraint, Kind

    out = []
    for c in f.constraints:
        kind = rng.choice((Kind.OR, Kind.AND, Kind.MAJORITY, Kind.THRESHOLD))
        threshold = c.effective_threshold() if kind is Kind.THRESHOLD else None
        out.append(Constraint(kind, c.literals, threshold=threshold))
    return Formula(f.num_vars, tuple(out))


def _sigma_loop_instances():
    """(family, formula, feedback vertex set) for the approx-route comparison."""
    from helpers import random_fvs_variable_hub_instance
    from maxcsp import Constraint, Kind, Literal

    rng = random.Random(61)
    for _ in range(40):
        yield ("hub-constraints", *random_small_fvs_instance(rng, max_vars=9, max_cons=9, hubs=2))
        # thresholds from 0 to one above the arity
        yield ("hub-constraints-thr", *random_small_fvs_instance(rng, max_vars=9, max_cons=9, majority_only=False))
        yield ("hub-variable", *random_fvs_variable_hub_instance(rng))
        f, fvs = random_fvs_variable_hub_instance(rng, max_vars=9, max_cons=9, majority_only=False)
        yield ("hub-variable-thr", f, fvs)
        yield ("hub-variable-kinds", _mixed_kinds(rng, f), fvs)
        # F holds the hub variable and a constraint that closes more cycles
        # among the other variables
        others = list(range(1, f.num_vars))
        scope = rng.sample(others, min(len(others), rng.randint(2, 3)))
        hub = Constraint(Kind.THRESHOLD, tuple(Literal(v, rng.random() < 0.5) for v in scope),
                         threshold=rng.randint(0, len(scope) + 1))
        both = Formula(f.num_vars, f.constraints + (hub,))
        split = VertexSplit(fvs.variables, frozenset({f.num_constraints}))
        yield ("hub-both", _mixed_kinds(rng, both), split)


def test_approx_route_equals_sigma_loop(monkeypatch):
    from helpers import sigma_loop_fvs
    from maxcsp import forest_solver

    calls = {"peel": 0, "cycle": 0}
    peel, cycle = forest_solver.peel_forest, forest_solver.find_cycle

    def peel_spy(*args):
        calls["peel"] += 1
        return peel(*args)

    def cycle_spy(*args):
        calls["cycle"] += 1
        return cycle(*args)

    approx = {}
    for family, f, fvs in _sigma_loop_instances():
        for eps in (Fraction(1, 2), Fraction(9, 10)):
            calls.update(peel=0, cycle=0)
            with monkeypatch.context() as patch:
                patch.setattr(forest_solver, "peel_forest", peel_spy)
                patch.setattr(forest_solver, "find_cycle", cycle_spy)
                res = approx_via_fvs(f, fvs, eps)
            if res.route != "approx":
                continue
            approx[family] = approx.get(family, 0) + 1
            assert (res.value, res.witness) == sigma_loop_fvs(f, fvs), (family, f, fvs)
            # one peel per sigma and no cycle search: the FVS check showed
            # that the graph less F is a forest
            assert calls == {"peel": 1 << len(fvs.variables), "cycle": 0}
    assert set(approx) == {
        "hub-constraints", "hub-constraints-thr", "hub-variable", "hub-variable-thr", "hub-variable-kinds", "hub-both"
    }, approx
