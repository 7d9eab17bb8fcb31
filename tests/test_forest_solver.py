import random

import pytest

from maxcsp import (
    Formula,
    PreconditionError,
    at_least,
    count_satisfied,
    majority,
    max_csp_bruteforce,
    or_clause,
    parity,
    peel_forest,
    solve_forest,
)

from helpers import (
    exhaustive_forest_threshold_formulas,
    half_guarantee_value,
    naive_max_csp,
    random_forest_formula,
)


def test_single_unit_constraint():
    f = Formula(1, (at_least(1, 1),))
    res = solve_forest(f)
    assert res.value == 1 and res.witness.value(1) == 1


def test_spec_style_examples_match_oracle():
    f = Formula(2, (at_least(1, 1, 2), at_least(1, -1), at_least(1, -2)))
    assert solve_forest(f).value == naive_max_csp(f)[0] == 2

    f = Formula(2, (at_least(2, 1, 2), at_least(1, -1), at_least(1, 2)))
    assert solve_forest(f).value == naive_max_csp(f)[0] == 2


def test_witness_achieves_value():
    rng = random.Random(2)
    for _ in range(50):
        f = random_forest_formula(rng, max_vars=10, max_cons=8)
        res = solve_forest(f)
        assert count_satisfied(f, res.witness) == res.value


def test_exhaustive_small_grammar_optimal():
    count = 0
    for f in exhaustive_forest_threshold_formulas(max_vars=2, max_cons=2):
        assert solve_forest(f).value == naive_max_csp(f)[0]
        count += 1
    assert count > 300


def test_random_forests_optimal():
    rng = random.Random(17)
    for _ in range(120):
        f = random_forest_formula(rng, max_vars=12, max_cons=10)
        assert solve_forest(f).value == max_csp_bruteforce(f).value


def test_accepts_or_and_majority_kinds():
    f = Formula(3, (or_clause(1, 2), majority(2, 3), or_clause(-3)))
    assert solve_forest(f).value == naive_max_csp(f)[0]


def test_rejects_cyclic_incidence():
    f = Formula(2, (at_least(1, 1, 2), at_least(2, 1, 2)))
    with pytest.raises(PreconditionError):
        solve_forest(f)


def test_rejects_parity():
    with pytest.raises(PreconditionError):
        solve_forest(Formula(2, (parity(0, 1, 2),)))


def test_component_additivity():
    rng = random.Random(23)
    for _ in range(20):
        a = random_forest_formula(rng, max_vars=6, max_cons=5)
        b = random_forest_formula(rng, max_vars=6, max_cons=5)
        shifted = []
        for c in b.constraints:
            from maxcsp import Constraint, Literal

            lits = tuple(Literal(l.var + a.num_vars, l.positive) for l in c.literals)
            shifted.append(Constraint(c.kind, lits, threshold=c.threshold))
        union = Formula(a.num_vars + b.num_vars, a.constraints + tuple(shifted))
        assert (
            solve_forest(union).value
            == solve_forest(a).value + solve_forest(b).value
        )


def test_peel_steps_bounded_by_variable_count():
    rng = random.Random(29)
    for _ in range(40):
        f = random_forest_formula(rng, max_vars=15, max_cons=12)
        out = peel_forest(f)
        assert out.steps <= f.num_vars
        assert out.removed_satisfied + out.removed_unsatisfied == f.num_constraints


def test_half_guarantee_examples():
    f = Formula(1, (at_least(1, 1), at_least(1, -1)))
    assert half_guarantee_value(f) == 1

    f = Formula(2, (at_least(1, 1, 2),))
    assert 2 * half_guarantee_value(f) >= 1


def test_half_guarantee_random_forests():
    rng = random.Random(41)
    for _ in range(200):
        f = random_forest_formula(rng, max_vars=12, max_cons=10, threshold_within_arity=True)
        value = half_guarantee_value(f)
        assert 2 * value >= f.num_constraints


def test_half_guarantee_rejects_threshold_above_arity():
    f = Formula(1, (at_least(2, 1),))
    with pytest.raises(PreconditionError):
        half_guarantee_value(f)


def test_zero_threshold_counts_satisfied():
    f = Formula(1, (at_least(0, 1),))
    assert solve_forest(f).value == 1


def test_isolated_variables_default_to_zero():
    f = Formula(3, (at_least(1, 2),))
    res = solve_forest(f)
    assert res.value == 1
    assert res.witness.value(1) == 0 and res.witness.value(3) == 0


def _long_forest(rng: random.Random, n: int, legs: int) -> Formula:
    """``n`` variables: a spine linked by binary thresholds, every ``legs + 1``-th
    variable on the spine and the others hung off it, each with a unit constraint.

    ``legs=0`` gives a path.  The unit constraints keep every variable alive
    until the peel reaches it, so the peel takes exactly one step per variable.
    """
    def lit(v: int) -> int:
        return v if rng.random() < 0.5 else -v

    constraints = []
    spine_prev = None
    for v in range(1, n + 1):
        if (v - 1) % (legs + 1) == 0:
            if spine_prev is not None:
                constraints.append(at_least(rng.randint(1, 2), lit(spine_prev), lit(v)))
            spine_prev = v
        else:
            constraints.append(at_least(rng.randint(1, 2), lit(spine_prev), lit(v)))
        constraints.append(at_least(1, lit(v)))
    return Formula(n, tuple(constraints))


@pytest.mark.parametrize("legs", [0, 3])
def test_long_path_and_caterpillar(legs):
    f = _long_forest(random.Random(31 + legs), 2000, legs)
    out = peel_forest(f)
    assert out.steps == f.num_vars
    assert out.removed_satisfied + out.removed_unsatisfied == f.num_constraints
    res = solve_forest(f)
    assert res.value == count_satisfied(f, res.witness) == out.removed_satisfied
