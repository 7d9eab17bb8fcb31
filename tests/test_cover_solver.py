import itertools
import random

import pytest

from maxcsp import (
    Constraint,
    ContractViolationError,
    Formula,
    Kind,
    Literal,
    PreconditionError,
    ResourceLimitError,
    parity,
    VertexSplit,
    and_term,
    at_least,
    count_satisfied,
    max_csp_bruteforce,
    or_clause,
    random_formula,
    residual_exact_max,
    solve_via_vertex_cover,
)
from maxcsp import cover_solver, oracle
from maxcsp.cover_solver import feasible_true_counts

from helpers import random_cover_instance, sigma_loop_vertex_cover, simplify_fix_variable, subset_search_residual_max


def _all_constraints(f: Formula) -> VertexSplit:
    """The always-valid cover of every constraint vertex and no variable."""
    return VertexSplit(frozenset(), frozenset(range(f.num_constraints)))


def test_residual_conflicting_pair():
    f = Formula(2, (at_least(2, 1, 2), at_least(1, -1)))
    res = residual_exact_max(f)
    assert res.value == 1


def test_residual_single_unit():
    f = Formula(1, (at_least(1, 1),))
    res = residual_exact_max(f)
    assert res.value == 1 and res.witness.value(1) == 1


def test_residual_matches_oracle_on_random_instances():
    rng = random.Random(4)
    from maxcsp import random_formula

    for trial in range(60):
        f = random_formula(
            8, 3, {"THRESHOLD": 2, "MAJORITY": 1}, (1, 5), seed=300 + trial
        )
        assert residual_exact_max(f).value == max_csp_bruteforce(f).value


def test_residual_witness_consistent():
    rng = random.Random(8)
    from maxcsp import random_formula

    for trial in range(30):
        f = random_formula(7, 4, {"THRESHOLD": 1}, (1, 4), seed=900 + trial)
        res = residual_exact_max(f)
        assert count_satisfied(f, res.witness) == res.value


def test_residual_invariant_under_renaming_within_type_class():
    # variables 1 and 2 occur identically; swapping them preserves the value
    f = Formula(3, (at_least(2, 1, 2, 3), at_least(1, -1, -2)))
    g = Formula(3, (at_least(2, 2, 1, 3), at_least(1, -2, -1)))
    assert residual_exact_max(f).value == residual_exact_max(g).value


def test_feasibility_monotone_under_subsets():
    from maxcsp import random_formula

    for trial in range(25):
        f = random_formula(6, 4, {"THRESHOLD": 1}, (1, 4), seed=50 + trial)
        cons = list(f.constraints)
        full = list(range(len(cons)))
        for size in range(len(cons), -1, -1):
            for subset in itertools.combinations(full, size):
                chosen = [cons[j] for j in subset]
                if feasible_true_counts(f.num_vars, chosen) is not None:
                    for sub2 in itertools.combinations(subset, max(size - 1, 0)):
                        inner = [cons[j] for j in sub2]
                        assert feasible_true_counts(f.num_vars, inner) is not None


def test_solve_with_all_constraints_cover():
    f = Formula(2, (or_clause(1, 2), and_term(1, 2)))
    res = solve_via_vertex_cover(f, _all_constraints(f))
    assert res.value == 2 and res.witness.bits == (1, 1)


def test_solve_with_variable_cover():
    cons = tuple(or_clause(1) for _ in range(5)) + tuple(or_clause(-1) for _ in range(3))
    f = Formula(1, cons)
    res = solve_via_vertex_cover(f, VertexSplit(frozenset({1}), frozenset()))
    assert res.value == 5 and res.witness.value(1) == 1


def test_invalid_cover_rejected():
    f = Formula(2, (or_clause(1, 2),))
    with pytest.raises(PreconditionError):
        solve_via_vertex_cover(f, VertexSplit(frozenset({1}), frozenset()))


def test_mixed_cover_matches_oracle():
    rng = random.Random(19)
    for _ in range(60):
        f, cover = random_cover_instance(rng, max_vars=12, extra_cons=6)
        res = solve_via_vertex_cover(f, cover)
        assert res.value == max_csp_bruteforce(f).value
        assert count_satisfied(f, res.witness) == res.value


def test_cover_solver_handles_parity_free_kinds_only():
    from maxcsp import parity

    f = Formula(2, (parity(0, 1, 2),))
    with pytest.raises(PreconditionError):
        solve_via_vertex_cover(f, _all_constraints(f))


def _random_constraint(rng: random.Random, n: int, max_arity: int) -> Constraint:
    arity = rng.randint(0, min(max_arity, n))
    lits = tuple(Literal(v, bool(rng.getrandbits(1))) for v in rng.sample(range(1, n + 1), arity))
    kind = rng.choice((Kind.OR, Kind.AND, Kind.THRESHOLD, Kind.MAJORITY))
    if kind is Kind.THRESHOLD:
        return Constraint(kind, lits, threshold=rng.randint(0, arity + 1))
    return Constraint(kind, lits)


def _routing_formulas():
    """Seeded residuals for the routing differential test, by family."""
    rng = random.Random(20261018)
    for _ in range(300):
        n, m = rng.randint(1, 7), rng.randint(1, 10)
        yield "random", Formula(n, tuple(_random_constraint(rng, n, 4) for _ in range(m)))
    for n in range(3):
        yield "empty", Formula(n, ())
    for _ in range(40):
        # only arity-0 constraints: r = 0, every constraint is constant
        n, m = rng.randint(0, 3), rng.randint(1, 8)
        yield "arity-0", Formula(n, tuple(_random_constraint(rng, 0, 0) for _ in range(m)))
    for _ in range(100):
        # residuals of fixed variables carry THRESHOLD 0 and above the arity
        n, m = rng.randint(2, 7), rng.randint(2, 10)
        f = Formula(n, tuple(_random_constraint(rng, n, 4) for _ in range(m)))
        for x in rng.sample(range(1, n + 1), rng.randint(1, 2)):
            f, _ = simplify_fix_variable(f, x, rng.getrandbits(1))
        yield "fixed", f
    for _ in range(60):
        # x and not-x for several variables: many maximisers, each satisfying
        # a different set of the unit constraints
        n = rng.randint(2, 5)
        units = [Constraint(Kind.OR, (Literal(x, sign),)) for x in range(1, n + 1) for sign in (True, False)]
        extra = [_random_constraint(rng, n, 3) for _ in range(rng.randint(0, 3))]
        cons = units + extra
        rng.shuffle(cons)
        yield "ties", Formula(n, tuple(cons))
    for _ in range(60):
        # AND terms over few variables conflict, so the optimum lies levels
        # below m
        n, m = rng.randint(4, 6), rng.randint(6, 9)
        cons = []
        for _ in range(m):
            variables = rng.sample(range(1, n + 1), rng.randint(2, n))
            cons.append(Constraint(Kind.AND, tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables)))
        yield "gapped", Formula(n, tuple(cons))
    for _ in range(20):
        # r > 16 occurring variables: the enumeration is never used
        n = rng.randint(17, 19)
        order = rng.sample(range(1, n + 1), n)
        cons = []
        for part in (order[: n // 3], order[n // 3 : 2 * n // 3], order[2 * n // 3 :]):
            lits = tuple(Literal(v, bool(rng.getrandbits(1))) for v in part)
            cons.append(Constraint(Kind.THRESHOLD, lits, threshold=rng.randint(0, len(lits) + 1)))
        cons += [_random_constraint(rng, n, 4) for _ in range(rng.randint(0, 3))]
        yield "wide", Formula(n, tuple(cons))


def _enumerated(f: Formula, value: int) -> bool:
    """Whether the residual's assignments are enumerated: the whole set is
    infeasible and the occurring variables fit one 16-bit oracle chunk."""
    r = len({lit.var for c in f.constraints for lit in c.literals})
    return r <= 16 and value < f.num_constraints


def test_routed_residual_equals_subset_search(monkeypatch):
    calls = []
    enumerate_sets = oracle._BitCounts.first_max_satisfied_set

    def spy(kernel):
        calls.append(kernel)
        return enumerate_sets(kernel)

    monkeypatch.setattr(oracle._BitCounts, "first_max_satisfied_set", spy)
    seen = {}
    total = 0
    for family, f in _routing_formulas():
        total += 1
        calls.clear()
        res = residual_exact_max(f)
        value, witness = subset_search_residual_max(f)
        assert (res.value, res.witness) == (value, witness), (family, f)
        enumerated = _enumerated(f, value)
        assert len(calls) == int(enumerated)
        m = f.num_constraints
        where = "never" if not enumerated else "m-1, m-2" if value >= m - 2 else "deeper"
        seen[family, where] = seen.get((family, where), 0) + 1
    assert total >= 500
    for where in ("m-1, m-2", "never"):
        assert seen.get(("random", where), 0) >= 10, seen
    assert seen.get(("gapped", "deeper"), 0) >= 10, seen
    for family in ("random", "arity-0", "fixed", "ties"):
        assert sum(n for (fam, w), n in seen.items() if fam == family and w != "never") >= 10, seen
    assert seen.get(("wide", "never")) == 20
    assert seen.get(("empty", "never")) == 3


def test_residual_without_enumeration_beyond_one_chunk(monkeypatch):
    # With the oracle's chunk limit below r, every level is a subset search.
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 1)
    monkeypatch.setattr(oracle._BitCounts, "first_max_satisfied_set", None)
    rng = random.Random(77)
    would_enumerate = 0
    for _ in range(40):
        n, m = rng.randint(2, 6), rng.randint(3, 8)
        f = Formula(n, tuple(_random_constraint(rng, n, 3) for _ in range(m)))
        if len({lit.var for c in f.constraints for lit in c.literals}) < 2:
            continue
        res = residual_exact_max(f)
        assert (res.value, res.witness) == subset_search_residual_max(f)
        would_enumerate += _enumerated(f, res.value)
    # with 16-bit chunks these residuals would have been enumerated
    assert would_enumerate >= 10


def test_residual_of_complementary_units_tests_one_subset_then_enumerates(monkeypatch):
    # 100 pairs x_v, not x_v over 16 variables: the whole set is infeasible,
    # and the optimum lies 100 levels below it.  Its satisfied set is found
    # by enumeration, so only the whole set and that set are tested.
    n = 16
    f = Formula(n, tuple(or_clause(s * (i % n + 1)) for i in range(100) for s in (1, -1)))
    calls = []
    feasible = cover_solver.feasible_true_counts

    def spy(*args):
        calls.append(args)
        return feasible(*args)

    monkeypatch.setattr(cover_solver, "feasible_true_counts", spy)
    res = residual_exact_max(f)
    assert len(calls) <= 2
    assert res.value == max_csp_bruteforce(f).value == 100
    # the first set in combinations order takes every positive unit
    assert res.witness.bits == (1,) * n


def test_residual_enumeration_reads_the_oracle_chunk_constant(monkeypatch):
    # The route check and the kernel read one constant: with 2-bit chunks a
    # five-variable residual is never enumerated, so never from chunk 0 alone.
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 2)
    kinds = {"OR": 1, "THRESHOLD": 1, "AND": 1}
    for seed in range(200):
        f = random_formula(5, 8, kinds, (1, 3), seed)
        res = residual_exact_max(f)
        assert (res.value, res.witness) == subset_search_residual_max(f), seed


def test_first_max_satisfied_set_refuses_several_chunks(monkeypatch):
    # the maximisers are narrowed only within one chunk
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 2)
    oracle._BitCounts([or_clause(1, 2)], [1, 2]).first_max_satisfied_set()
    with pytest.raises(AssertionError, match="^3 variables exceed one 2-bit oracle chunk$"):
        oracle._BitCounts([or_clause(1, 2, 3)], [1, 2, 3]).first_max_satisfied_set()


def _random_vertex_cover(rng: random.Random, f: Formula) -> VertexSplit:
    """A random subset of the variables, then every constraint that still has
    a variable outside it, then a few more constraints."""
    chosen = frozenset(x for x in range(1, f.num_vars + 1) if rng.random() < 0.5)
    cons = {
        j
        for j, c in enumerate(f.constraints)
        if not chosen.issuperset(c.variables) or rng.random() < 0.2
    }
    return VertexSplit(chosen, frozenset(cons))


def _cover_formulas():
    """Seeded (formula, cover) pairs for the cover-solver differential test, by family."""
    rng = random.Random(5052)
    for _ in range(160):
        n, m = rng.randint(1, 8), rng.randint(0, 10)
        f = Formula(n, tuple(_random_constraint(rng, n, 4) for _ in range(m)))
        yield "all-variables", f, VertexSplit(frozenset(range(1, n + 1)), frozenset())
    for _ in range(100):
        n, m = rng.randint(0, 7), rng.randint(0, 8)
        f = Formula(n, tuple(_random_constraint(rng, n, 4) for _ in range(m)))
        yield "all-constraints", f, _all_constraints(f)
    for _ in range(160):
        n, m = rng.randint(1, 9), rng.randint(1, 10)
        f = Formula(n, tuple(_random_constraint(rng, n, 4) for _ in range(m)))
        yield "mixed", f, _random_vertex_cover(rng, f)
    for _ in range(40):
        f, cover = random_cover_instance(rng, max_vars=9, cover_vars=rng.randint(1, 4), extra_cons=6)
        yield "designed", f, cover
    for _ in range(40):
        # arity-0 constraints are constant: they count for every sigma or none
        n = rng.randint(1, 6)
        cons = [_random_constraint(rng, 0, 0) for _ in range(rng.randint(1, 4))]
        cons += [_random_constraint(rng, n, 3) for _ in range(rng.randint(0, 5))]
        rng.shuffle(cons)
        f = Formula(n, tuple(cons))
        cover = rng.choice((VertexSplit(frozenset(range(1, n + 1)), frozenset()), _random_vertex_cover(rng, f)))
        yield "arity-0", f, cover
    for _ in range(60):
        # x and not-x for several variables: many sigma share the best total
        n = rng.randint(2, 6)
        units = [Constraint(Kind.OR, (Literal(x, sign),)) for x in range(1, n + 1) for sign in (True, False)]
        cons = units + [_random_constraint(rng, n, 3) for _ in range(rng.randint(0, 2))]
        rng.shuffle(cons)
        f = Formula(n, tuple(cons))
        cover = rng.choice((VertexSplit(frozenset(range(1, n + 1)), frozenset()), _random_vertex_cover(rng, f)))
        yield "ties", f, cover


def test_cover_solver_equals_sigma_loop(monkeypatch):
    calls = {"residual": 0, "check": 0}
    residual, counter = cover_solver.residual_exact_max, cover_solver.satisfied_counter

    def residual_spy(f):
        calls["residual"] += 1
        return residual(f)

    def counter_spy(f):
        count = counter(f)

        def check_spy(x):
            calls["check"] += 1
            return count(x)

        return check_spy

    monkeypatch.setattr(cover_solver, "residual_exact_max", residual_spy)
    monkeypatch.setattr(cover_solver, "satisfied_counter", counter_spy)
    seen: dict[str, int] = {}
    for family, f, cover in _cover_formulas():
        calls.update(residual=0, check=0)
        res = solve_via_vertex_cover(f, cover)
        assert (res.value, res.witness) == sigma_loop_vertex_cover(f, cover), (family, f, cover)
        # one bookkeeping check per sigma, one residual solve per assignment
        # of the cover variables that occur in covered constraints
        keyed = {x for j in cover.constraints for x in f.constraints[j].variables} & cover.variables
        assert calls == {"residual": 1 << len(keyed), "check": 1 << len(cover.variables)}
        seen[family] = seen.get(family, 0) + 1
    assert sum(seen.values()) >= 500
    assert len(seen) == 6, seen


def test_cover_solver_outside_counts_over_several_chunks(monkeypatch):
    # With a 2-bit chunk the outside counts come from several kernel chunks.
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 2)
    chunks = []
    counts = oracle._BitCounts.counts

    def spy(kernel, high):
        chunks.append(high)
        return counts(kernel, high)

    monkeypatch.setattr(oracle._BitCounts, "counts", spy)
    rng = random.Random(606)
    for _ in range(60):
        n, m = rng.randint(3, 7), rng.randint(1, 9)
        f = Formula(n, tuple(_random_constraint(rng, n, 4) for _ in range(m)))
        cover = rng.choice((VertexSplit(frozenset(range(1, n + 1)), frozenset()), _random_vertex_cover(rng, f)))
        res = solve_via_vertex_cover(f, cover)
        assert (res.value, res.witness) == sigma_loop_vertex_cover(f, cover)
    assert max(chunks) >= 1


def test_cover_solver_with_sixteen_cover_variables():
    # With every variable in the cover and no covered constraint the solver's
    # first best sigma in product order is the oracle's lexicographically
    # first maximiser.
    rng = random.Random(1616)
    n = 16
    f = Formula(n, tuple(_random_constraint(rng, n, 5) for _ in range(12)))
    res = solve_via_vertex_cover(f, VertexSplit(frozenset(range(1, n + 1)), frozenset()))
    best = max_csp_bruteforce(f)
    assert (res.value, res.witness) == (best.value, best.witness)


def test_cover_solver_rejects_parity_in_any_cover():
    f = Formula(3, (or_clause(1, 2), parity(1, 2, 3), at_least(2, 1, 3)))
    for cover in (
        _all_constraints(f),
        VertexSplit(frozenset({1, 2, 3}), frozenset()),
        VertexSplit(frozenset({2}), frozenset({1, 2})),
    ):
        with pytest.raises(PreconditionError, match="PARITY constraint has no threshold form"):
            solve_via_vertex_cover(f, cover)


def test_residual_keeps_the_need_of_the_full_arity(monkeypatch):
    # MAJORITY over 5 literals needs 3; with x1 and x2 in the cover, its
    # residual over x3..x5 needs 3 less the cover literals made true, never
    # the 2 that a MAJORITY over three literals would need.
    f = Formula(5, (Constraint(Kind.MAJORITY, (Literal(1), Literal(2, False), Literal(3), Literal(4), Literal(5))),))
    residuals = []
    real = cover_solver.residual_exact_max

    def spy(g):
        residuals.append(g.constraints)
        return real(g)

    monkeypatch.setattr(cover_solver, "residual_exact_max", spy)
    res = solve_via_vertex_cover(f, VertexSplit(frozenset({1, 2}), frozenset({0})))
    assert (res.value, res.witness.bitstring()) == (1, "00110")
    lits = (Literal(3), Literal(4), Literal(5))
    # keys in product order of (x1, x2): 00, 01, 10, 11
    assert residuals == [(at_least(t, *lits),) for t in (2, 3, 1, 2)]


def test_residual_exact_max_rejects_parity():
    with pytest.raises(ContractViolationError):
        residual_exact_max(Formula(3, (or_clause(1, 2), parity(1, 2, 3))))


def test_verify_cover_reports_first_uncovered_occurrence():
    # Occurrences (variable, constraint) left uncovered: (3, 1), (2, 2), (3, 2);
    # the first in incidence edge order is the smallest variable's.
    f = Formula(3, (or_clause(1), or_clause(1, 3), at_least(1, 2, -3)))
    with pytest.raises(PreconditionError) as exc:
        solve_via_vertex_cover(f, VertexSplit(frozenset({1}), frozenset()))
    assert str(exc.value) == "not a vertex cover: occurrence of variable 2 in constraint 2 uncovered"
    with pytest.raises(PreconditionError, match="^variable 4 is not in the formula$"):
        solve_via_vertex_cover(f, VertexSplit(frozenset({4}), frozenset({0, 1, 2})))
    with pytest.raises(PreconditionError, match="^constraint index 3 is not in the formula$"):
        solve_via_vertex_cover(f, VertexSplit(frozenset(), frozenset({0, 1, 2, 3})))


def test_residual_node_budget_counts_every_search_of_one_call(monkeypatch):
    # With 1-bit chunks every level below the whole set is a subset search,
    # so one call runs several type-class searches.  Their nodes share the
    # budget, and the next call starts afresh.
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 1)
    f = random_formula(5, 8, {"OR": 1, "THRESHOLD": 1, "AND": 1}, (1, 3), 3)
    searches, nodes = [], []
    feasible = cover_solver.feasible_true_counts

    def spy(num_vars, constraints, groups, visit):
        searches.append(1)

        def counted():
            nodes.append(1)
            visit()

        return feasible(num_vars, constraints, groups, counted)

    monkeypatch.setattr(cover_solver, "feasible_true_counts", spy)
    expected = residual_exact_max(f)
    needed = len(nodes)
    assert len(searches) >= 3 and needed > len(searches)
    monkeypatch.setattr(cover_solver, "RESIDUAL_NODE_BUDGET", needed)
    assert residual_exact_max(f) == residual_exact_max(f) == expected
    monkeypatch.setattr(cover_solver, "RESIDUAL_NODE_BUDGET", needed - 1)
    message = f"residual of 8 constraints over 5 variables needs more than {needed - 1} search nodes"
    with pytest.raises(ResourceLimitError, match=message):
        residual_exact_max(f)


def test_type_class_search_visits_do_not_grow_with_class_size():
    # Four THRESHOLD constraints on disjoint quarters, each needing half its
    # quarter (an incidence vertex cover of 4), and one class that would need
    # at least half and at most half less one of its variables true.  Only
    # the counts whose child can still meet every threshold are tried, so
    # the visits do not depend on n.
    def search(n, constraints):
        nodes = []
        selection = feasible_true_counts(n, constraints, visit=lambda: nodes.append(1))
        return selection, len(nodes)

    for n in (2**10, 2**12):
        q = n // 4
        quarters = [
            Constraint(Kind.THRESHOLD, tuple(Literal(x, True) for x in range(i * q + 1, (i + 1) * q + 1)), threshold=q // 2)
            for i in range(4)
        ]
        selection, visits = search(n, quarters)
        assert sorted(selection.values()) == [q // 2] * 4 and visits == 5
        clash = [
            Constraint(Kind.THRESHOLD, tuple(Literal(x, True) for x in range(1, n + 1)), threshold=n // 2),
            Constraint(Kind.THRESHOLD, tuple(Literal(x, False) for x in range(1, n + 1)), threshold=n - n // 2 + 1),
        ]
        assert search(n, clash) == (None, 1)
