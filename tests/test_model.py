import itertools
import random

import pytest

from maxcsp import (
    Assignment,
    Constraint,
    Formula,
    Kind,
    Literal,
    MalformedInstanceError,
    ContractViolationError,
    and_term,
    at_least,
    count_satisfied,
    eval_constraint,
    majority,
    normalize_parity,
    or_clause,
    parity,
)
from maxcsp.model import satisfied_counter

from helpers import satisfying_assignments, simplify_fix_variable


def test_eval_or_with_negative_literal():
    c = or_clause(1, -2)
    assert eval_constraint(c, Assignment((0, 0))) is True


def test_eval_threshold_two_of_three():
    c = at_least(2, 1, 2, -3)
    assert eval_constraint(c, Assignment((1, 0, 0))) is True


def test_eval_parity_sum_even_fails_rhs_one():
    c = parity(1, 1, 2)
    assert eval_constraint(c, Assignment((1, 1))) is False


def test_eval_and_majority():
    assert eval_constraint(and_term(1, 2), Assignment((1, 1))) is True
    assert eval_constraint(and_term(1, 2), Assignment((1, 0))) is False
    assert eval_constraint(majority(1, 2, 3), Assignment((1, 1, 0))) is True
    assert eval_constraint(majority(1, 2, 3), Assignment((1, 0, 0))) is False


def test_empty_constraint_semantics():
    a = Assignment(())
    f = Formula(0, ())
    assert count_satisfied(f, a) == 0
    assert eval_constraint(or_clause(), a) is False
    assert eval_constraint(and_term(), a) is True
    assert eval_constraint(at_least(0), a) is True
    assert eval_constraint(at_least(1), a) is False
    assert eval_constraint(parity(0), a) is True
    assert eval_constraint(parity(1), a) is False
    assert eval_constraint(majority(), a) is True


def test_threshold_above_arity_is_false():
    c = at_least(3, 1, 2)
    for bits in itertools.product((0, 1), repeat=2):
        assert eval_constraint(c, Assignment(bits)) is False


def test_count_satisfied_examples():
    f = Formula(1, (or_clause(1), or_clause(-1)))
    assert count_satisfied(f, Assignment((1,))) == 1
    f2 = Formula(2, (or_clause(1), or_clause(1, 2), or_clause(-2)))
    assert count_satisfied(f2, Assignment((1, 0))) == 3


def test_duplicate_variable_rejected():
    with pytest.raises(MalformedInstanceError):
        or_clause(1, -1)
    with pytest.raises(MalformedInstanceError):
        at_least(1, 2, 2)


def test_payload_validation():
    with pytest.raises(MalformedInstanceError):
        Constraint(Kind.OR, (Literal(1),), threshold=1)
    with pytest.raises(MalformedInstanceError):
        Constraint(Kind.MAJORITY, (Literal(1),), threshold=1)
    with pytest.raises(MalformedInstanceError):
        Constraint(Kind.PARITY, (Literal(1),))
    with pytest.raises(MalformedInstanceError):
        Constraint(Kind.THRESHOLD, (Literal(1),), threshold=-1)


def test_formula_validates_variable_range():
    with pytest.raises(MalformedInstanceError):
        Formula(1, (or_clause(2),))


def test_formula_stats():
    f = Formula(3, (or_clause(1, 2), at_least(1, 3), parity(0, 1, 2, 3)))
    assert f.num_constraints == 3
    assert f.occ == 6


def test_eval_requires_defined_variables():
    with pytest.raises(MalformedInstanceError):
        eval_constraint(or_clause(2), Assignment((1,)))


def test_majority_equals_half_threshold():
    import random

    rng = random.Random(11)
    for _ in range(200):
        arity = rng.randint(0, 4)
        variables = rng.sample(range(1, 5), arity)
        lits = tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables)
        maj = Constraint(Kind.MAJORITY, lits)
        thr = Constraint(Kind.THRESHOLD, lits, threshold=(arity + 1) // 2)
        for bits in itertools.product((0, 1), repeat=4):
            a = Assignment(bits)
            assert eval_constraint(maj, a) == eval_constraint(thr, a)


def test_normalize_parity_examples():
    c = normalize_parity(parity(1, 1, -2))
    assert c.parity_rhs == 0 and all(l.positive for l in c.literals)
    c = normalize_parity(parity(0, -1, -2))
    assert c.parity_rhs == 0
    c = normalize_parity(parity(1, -1, 2, -3))
    assert c.parity_rhs == 1


def test_normalize_parity_preserves_satisfying_sets_exhaustively():
    for arity in range(0, 5):
        variables = tuple(range(1, arity + 1))
        for signs in itertools.product((True, False), repeat=arity):
            for rhs in (0, 1):
                c = Constraint(
                    Kind.PARITY,
                    tuple(Literal(v, s) for v, s in zip(variables, signs)),
                    parity_rhs=rhs,
                )
                assert satisfying_assignments(c, variables) == satisfying_assignments(
                    normalize_parity(c), variables
                )


def test_normalize_parity_wrong_kind():
    with pytest.raises(ContractViolationError):
        normalize_parity(or_clause(1))


def test_simplify_examples():
    f = Formula(3, (at_least(2, 1, 2, -3),))
    res, delta = simplify_fix_variable(f, 1, 1)
    assert delta == 0
    assert res.constraints[0].threshold == 1
    assert res.constraints[0].variables == (2, 3)

    f = Formula(2, (or_clause(-1, 2),))
    res, delta = simplify_fix_variable(f, 1, 1)
    assert delta == 0
    assert res.constraints[0].variables == (2,)

    f = Formula(2, (parity(1, 1, 2),))
    res, delta = simplify_fix_variable(f, 1, 1)
    assert res.constraints[0].parity_rhs == 0


def test_simplify_or_true_removes_with_delta():
    f = Formula(2, (or_clause(1, 2),))
    res, delta = simplify_fix_variable(f, 1, 1)
    assert delta == 1 and res.num_constraints == 0


def test_simplify_and_false_removes_without_delta():
    f = Formula(2, (and_term(1, 2),))
    res, delta = simplify_fix_variable(f, 1, 0)
    assert delta == 0 and res.num_constraints == 0


def test_simplify_majority_converts_to_explicit_threshold():
    f = Formula(3, (majority(1, 2, 3),))
    res, _ = simplify_fix_variable(f, 1, 0)
    c = res.constraints[0]
    assert c.kind is Kind.THRESHOLD and c.threshold == 2 and c.arity == 2


def test_simplify_undefined_variable():
    with pytest.raises(ContractViolationError):
        simplify_fix_variable(Formula(1, ()), 2, 0)


def test_simplify_count_identity_randomized():
    import random

    from maxcsp import random_formula

    rng = random.Random(5)
    for trial in range(40):
        n = rng.randint(2, 6)
        f = random_formula(
            n,
            rng.randint(1, 6),
            {"OR": 1, "AND": 1, "PARITY": 1, "THRESHOLD": 2, "MAJORITY": 1},
            (1, min(3, n)),
            seed=trial,
        )
        x = rng.randint(1, n)
        v = rng.getrandbits(1)
        res, delta = simplify_fix_variable(f, x, v)
        for bits in itertools.product((0, 1), repeat=n):
            if bits[x - 1] != v:
                continue
            a = Assignment(bits)
            assert count_satisfied(f, a) == delta + count_satisfied(res, a)


def _naive_holds(c: Constraint, bits: tuple[int, ...]) -> bool:
    """Each kind's definition, read literal by literal."""
    values = [bits[lit.var - 1] == (1 if lit.positive else 0) for lit in c.literals]
    if c.kind is Kind.OR:
        return any(values)
    if c.kind is Kind.AND:
        return all(values)
    if c.kind is Kind.PARITY:
        return sum(values) % 2 == c.parity_rhs
    if c.kind is Kind.MAJORITY:
        return 2 * sum(values) >= len(values)
    return sum(values) >= c.threshold


def _every_constraint(variables: tuple[int, ...], signs: tuple[bool, ...]):
    lits = tuple(Literal(v, s) for v, s in zip(variables, signs))
    yield Constraint(Kind.OR, lits)
    yield Constraint(Kind.AND, lits)
    yield Constraint(Kind.MAJORITY, lits)
    for rhs in (0, 1):
        yield Constraint(Kind.PARITY, lits, parity_rhs=rhs)
    for t in range(len(lits) + 2):
        yield Constraint(Kind.THRESHOLD, lits, threshold=t)


def test_evaluator_equals_each_kinds_definition():
    import random

    rng = random.Random(31)
    n = 6
    for arity in range(6):
        constraints = []
        for _ in range(4):
            variables = tuple(rng.sample(range(1, n + 1), arity))
            signs = tuple(bool(rng.getrandbits(1)) for _ in range(arity))
            constraints.extend(_every_constraint(variables, signs))
        f = Formula(n, tuple(constraints))
        for bits in itertools.product((0, 1), repeat=n):
            a = Assignment(bits)
            expected = [_naive_holds(c, bits) for c in constraints]
            assert [eval_constraint(c, a) for c in constraints] == expected
            assert count_satisfied(f, a) == sum(expected)


def test_eval_rejects_too_short_assignment_for_every_kind():
    for c in _every_constraint((1, 3), (True, False)):
        with pytest.raises(MalformedInstanceError, match="variable 3 is not defined"):
            eval_constraint(c, Assignment((1, 0)))
    with pytest.raises(MalformedInstanceError):
        count_satisfied(Formula(3, (or_clause(1),)), Assignment((1, 0)))


def _random_constraint(rng: random.Random, num_vars: int) -> Constraint:
    # arity 0 included; thresholds from 0 to two above the arity
    arity = rng.randint(0, min(num_vars, 5))
    lits = [Literal(v, rng.random() < 0.5) for v in rng.sample(range(1, num_vars + 1), arity)]
    kind = rng.choice(list(Kind))
    if kind is Kind.PARITY:
        return Constraint(kind, lits, parity_rhs=rng.randint(0, 1))
    if kind is Kind.THRESHOLD:
        return Constraint(kind, lits, threshold=rng.randint(0, arity + 2))
    return Constraint(kind, lits)


def test_satisfied_counter_equals_count_satisfied():
    rng = random.Random(71)
    kinds_seen = set()
    for _ in range(300):
        n = rng.randint(0, 7)
        f = Formula(n, tuple(_random_constraint(rng, n) for _ in range(rng.randint(0, 8))))
        kinds_seen.update(c.kind for c in f.constraints)
        count = satisfied_counter(f)
        for bits in itertools.product((0, 1), repeat=n):
            x = sum(b << i for i, b in enumerate(bits))
            assert count(x) == count_satisfied(f, Assignment(bits)), (f, bits)
    assert kinds_seen == set(Kind)


@pytest.mark.parametrize(
    "constraint, holds",
    [
        (at_least(0, 1, -2), True),  # threshold 0 always holds
        (at_least(3, 1, -2), False),  # threshold above the arity never does
        (Constraint(Kind.OR, ()), False),
        (Constraint(Kind.AND, ()), True),
        (Constraint(Kind.MAJORITY, ()), True),
        (Constraint(Kind.PARITY, (), parity_rhs=0), True),
        (Constraint(Kind.PARITY, (), parity_rhs=1), False),
    ],
)
def test_satisfied_counter_edge_constraints(constraint, holds):
    f = Formula(2, (constraint,))
    for bits in itertools.product((0, 1), repeat=2):
        x = bits[0] | bits[1] << 1
        assert satisfied_counter(f)(x) == holds == count_satisfied(f, Assignment(bits))


def test_satisfied_counter_without_variables():
    empty = (Constraint(Kind.OR, ()), Constraint(Kind.AND, ()), Constraint(Kind.PARITY, (), parity_rhs=0))
    assert satisfied_counter(Formula(0, ()))(0) == 0
    assert satisfied_counter(Formula(0, empty))(0) == 2 == count_satisfied(Formula(0, empty), Assignment(()))
