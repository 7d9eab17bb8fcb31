import random

import pytest

from maxcsp import (
    Assignment,
    Constraint,
    ContractViolationError,
    Formula,
    Kind,
    Literal,
    MalformedInstanceError,
    ResourceLimitError,
    and_term,
    at_least,
    count_satisfied,
    eval_constraint,
    majority,
    max_csp_bruteforce,
    or_clause,
    parity,
    parity_gauss_satisfiable,
    random_formula,
    serialize_instance,
)

from maxcsp import oracle
from helpers import naive_max_csp


def test_oracle_complementary_units():
    f = Formula(1, (or_clause(1), or_clause(-1)))
    assert max_csp_bruteforce(f).value == 1


def test_oracle_parity_triangle():
    f = Formula(3, (parity(1, 1, 2), parity(1, 2, 3), parity(1, 1, 3)))
    res = max_csp_bruteforce(f)
    assert res.value == 2
    assert count_satisfied(f, Assignment((1, 0, 1))) == 2


def test_oracle_matches_independent_recount():
    rng = random.Random(42)
    for trial in range(20):
        n = rng.randint(1, 10)
        f = random_formula(
            n,
            rng.randint(1, 8),
            {"OR": 1, "AND": 1, "PARITY": 1, "THRESHOLD": 1, "MAJORITY": 1},
            (1, min(3, n)),
            seed=trial,
        )
        value, witness = naive_max_csp(f)
        res = max_csp_bruteforce(f)
        assert res.value == value
        assert res.witness == witness  # lexicographically-first maximizer


def test_oracle_var_limit():
    f = Formula(5, (or_clause(1),))
    with pytest.raises(ResourceLimitError):
        max_csp_bruteforce(f, var_limit=4)


def test_oracle_empty_formula():
    res = max_csp_bruteforce(Formula(0, ()))
    assert res.value == 0 and len(res.witness) == 0


def test_oracle_invariant_under_constraint_permutation():
    rng = random.Random(9)
    f = random_formula(8, 6, {"THRESHOLD": 1, "OR": 1}, (1, 3), seed=77)
    base = max_csp_bruteforce(f)
    order = list(range(f.num_constraints))
    for _ in range(5):
        rng.shuffle(order)
        g = Formula(f.num_vars, tuple(f.constraints[i] for i in order))
        res = max_csp_bruteforce(g)
        assert res.value == base.value and res.witness == base.witness


def assert_matches_naive(f):
    """The oracle and the kernel's counts, chunk after chunk, agree with the
    plain product enumeration on value and on the lexicographically first
    maximizer."""
    value, witness = naive_max_csp(f)
    res = max_csp_bruteforce(f)
    assert res.value == value
    assert res.witness == witness
    n = f.num_vars
    kernel = oracle._BitCounts(f.constraints, range(1, n + 1))
    counts = [count for high in range(kernel.num_chunks) for count in kernel.counts(high)]
    first = counts.index(max(counts))
    assert counts[first] == value
    assert Assignment(tuple(first >> (n - i) & 1 for i in range(1, n + 1))) == witness


@pytest.mark.parametrize("n", [16, 17])
def test_oracle_kernels_meet_at_one_chunk(n):
    # 16 variables are one chunk's most, and 17 the fewest that take two;
    # the constraints read the first and last index bits
    f = random_formula(n, 6, {"OR": 1, "PARITY": 1, "THRESHOLD": 1, "MAJORITY": 1}, (1, 4), seed=1600 + n)
    f = Formula(n, f.constraints + (or_clause(1, -n), parity(1, 2, n - 1)))
    assert oracle._BitCounts.fits(n) == (n == 16)
    assert oracle._BitCounts(f.constraints, range(1, n + 1)).num_chunks == (1 if n == 16 else 2)
    assert_matches_naive(f)


@pytest.mark.parametrize("n", [17, 18])
def test_oracle_kernel_multi_chunk(n):
    # 2^17 and 2^18 assignments span two and four chunks of 2^16; the
    # constraints touch both the chunk-invariant low bits and the high bits
    f = random_formula(n, 5, {"OR": 1, "PARITY": 1, "THRESHOLD": 1, "MAJORITY": 1}, (1, 4), seed=10)
    assert any(lit.var <= n - 16 for c in f.constraints for lit in c.literals)
    assert_matches_naive(f)


def test_oracle_kernel_many_small_chunks(monkeypatch):
    # the same chunk split at small n: every variable above the low bits is
    # a per-chunk scalar
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 3)
    rng = random.Random(17)
    kinds = {"OR": 1, "AND": 1, "PARITY": 1, "THRESHOLD": 1, "MAJORITY": 1}
    for trial in range(40):
        n = rng.randint(1, 9)
        f = random_formula(n, rng.randint(0, 12), kinds, (0, min(4, n)), seed=500 + trial)
        assert_matches_naive(f)


def test_oracle_kernel_forced_ties():
    n = 17
    # optimum 2 at x17=1, x1=0 (first chunk) and at x1=1, x17=0 (second chunk)
    assert_matches_naive(Formula(n, (or_clause(1, 17), or_clause(-1, -17))))
    # every maximizer has x1=1, so none lies in the first chunk; ties inside
    # the second chunk go to the smallest index
    res = max_csp_bruteforce(Formula(n, (or_clause(1), parity(0, 2, 3), or_clause(-2, 16))))
    assert res.value == 3 and res.witness == Assignment((1,) + (0,) * (n - 1))
    # every assignment ties: the witness is all zeros
    res = max_csp_bruteforce(Formula(n, (parity(1, 4, 5), parity(0, 4, 5))))
    assert res.value == 1 and res.witness == Assignment.zeros(n)


def test_oracle_kernel_constant_constraints():
    # arity-0 OR never holds, arity-0 AND always does; THRESHOLD 0 always
    # holds and a threshold above the arity never does
    f = Formula(
        3,
        (
            Constraint(Kind.OR, ()),
            Constraint(Kind.AND, ()),
            Constraint(Kind.MAJORITY, ()),
            at_least(0, 1, -2),
            at_least(3, 1, 2),
            at_least(5, -1, 2, 3),
            and_term(1, -3),
            majority(-1, 2, 3),
        ),
    )
    assert_matches_naive(f)
    assert max_csp_bruteforce(Formula(2, (Constraint(Kind.OR, ()), at_least(3, 1, 2)))).value == 0


@pytest.mark.parametrize("rhs", [0, 1])
def test_oracle_kernel_parity_rhs(rhs):
    f = Formula(
        5,
        (
            parity(rhs, 1, -2, 3),
            parity(rhs, -4, 5),
            parity(rhs),
            parity(1 - rhs, 2, 4),
            parity(rhs, Literal(1, False), Literal(5, False)),
        ),
    )
    assert_matches_naive(f)


def test_oracle_kernel_counts_beyond_16_bits(monkeypatch):
    # 70 000 satisfied constraints overflow any 16-bit counter: the counts
    # take 17 bit planes, in one chunk or, x1 numbering the chunks, in two
    f = Formula(2, (or_clause(1),) * 40_000 + (or_clause(-2),) * 30_000 + (parity(0, 1, 2),) * 5)
    assert_matches_naive(f)
    assert max_csp_bruteforce(f).value == 70_000
    expected = [30_005, 0, 70_000, 40_005]
    assert oracle._BitCounts(f.constraints, [1, 2]).counts(0) == expected
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 1)
    kernel = oracle._BitCounts(f.constraints, [1, 2])
    assert kernel.counts(0) + kernel.counts(1) == expected


def test_oracle_kernel_rejects_counts_beyond_uint8(monkeypatch):
    # the oracle's variable cap, whatever var_limit says
    monkeypatch.setattr(oracle, "_MAX_KERNEL_VARS", 4)
    with pytest.raises(ResourceLimitError):
        max_csp_bruteforce(Formula(5, (or_clause(1),)))


def test_gauss_single_equation():
    f = Formula(2, (parity(1, 1, 2),))
    sat, witness = parity_gauss_satisfiable(f)
    assert sat and count_satisfied(f, witness) == 1


def test_gauss_triangle_unsat():
    f = Formula(3, (parity(1, 1, 2), parity(1, 2, 3), parity(1, 1, 3)))
    sat, witness = parity_gauss_satisfiable(f)
    assert not sat and witness is None


def test_gauss_empty_system():
    sat, witness = parity_gauss_satisfiable(Formula(3, ()))
    assert sat and witness == Assignment((0, 0, 0))


def test_gauss_rejects_non_parity():
    with pytest.raises(ContractViolationError):
        parity_gauss_satisfiable(Formula(1, (or_clause(1),)))


def test_gauss_free_variables_default_to_zero():
    f = Formula(3, (parity(1, 2),))
    sat, witness = parity_gauss_satisfiable(f)
    assert sat and witness == Assignment((0, 1, 0))


def test_gauss_agrees_with_oracle():
    rng = random.Random(31)
    for trial in range(60):
        n = rng.randint(1, 12)
        f = random_formula(
            n, rng.randint(1, 10), {"PARITY": 1}, (1, min(4, n)), seed=1000 + trial
        )
        sat, witness = parity_gauss_satisfiable(f)
        opt = max_csp_bruteforce(f).value
        assert sat == (opt == f.num_constraints)
        if sat:
            assert count_satisfied(f, witness) == f.num_constraints


def test_random_formula_deterministic():
    spec = dict(
        num_vars=9,
        num_constraints=12,
        kind_mix={"OR": 2, "PARITY": 1},
        arity_range=(1, 4),
        seed=123,
    )
    a = random_formula(**spec)
    b = random_formula(**spec)
    assert serialize_instance(a) == serialize_instance(b)


def test_random_formula_shape():
    f = random_formula(6, 15, {"THRESHOLD": 1}, (2, 4), seed=5)
    assert f.num_constraints == 15
    for c in f.constraints:
        assert 2 <= c.arity <= 4
        assert c.kind is Kind.THRESHOLD
        assert 1 <= c.threshold <= c.arity


def test_random_formula_infeasible_spec():
    with pytest.raises(MalformedInstanceError):
        random_formula(3, 5, {"OR": 1}, (1, 4), seed=0)
    with pytest.raises(MalformedInstanceError):
        random_formula(3, 5, {}, (1, 2), seed=0)
    with pytest.raises(MalformedInstanceError):
        random_formula(3, 5, {"OR": 0}, (1, 2), seed=0)


@pytest.mark.parametrize("num_vars, num_constraints", [(3, -2), (-1, 0)])
def test_random_formula_rejects_negative_counts(num_vars, num_constraints):
    with pytest.raises(MalformedInstanceError, match="negative count"):
        random_formula(num_vars, num_constraints, {"OR": 1}, (0, 0), seed=0)


def every_kind_formula(rng, n, m, pools=None):
    """Random constraints of every kind, arity 0..min(4, n), thresholds
    0..arity+1 and both parity right-hand sides.  Each constraint draws its
    variables from one of ``pools`` (default: all n variables)."""
    constraints = []
    for _ in range(m):
        kind = rng.choice(list(Kind))
        pool = rng.choice(pools or [range(1, n + 1)])
        variables = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        lits = tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables)
        if kind is Kind.PARITY:
            constraints.append(Constraint(kind, lits, parity_rhs=rng.getrandbits(1)))
        elif kind is Kind.THRESHOLD:
            constraints.append(Constraint(kind, lits, threshold=rng.randint(0, len(lits) + 1)))
        else:
            constraints.append(Constraint(kind, lits))
    return Formula(n, tuple(constraints))


def assert_kernel_matches_scalar(f, variables):
    """The kernel over ``variables`` at the current ``_CHUNK_BITS``: each
    constraint's held set in each chunk, and each count, against
    ``eval_constraint`` and ``count_satisfied`` at every index; in one
    chunk, also the largest count and the maximisers' first satisfied set."""
    kernel = oracle._BitCounts(f.constraints, variables)
    n = len(variables)
    assert kernel.num_chunks == 1 << (n - min(n, oracle._CHUNK_BITS))
    sets = []
    for high in range(kernel.num_chunks):
        counts = kernel.counts(high)
        held = []
        for c in f.constraints:
            # the set where c holds: h of its high literals true in this chunk
            parity, key, low_sets, positive, negative = kernel._score(c)
            h = (high & positive).bit_count() + (negative & ~high).bit_count()
            held.append(low_sets[(key ^ h) & 1] if parity else low_sets[max(key - h, 0)])
        for i in range(1 << kernel.chunk_bits):
            index = (high << kernel.chunk_bits) + i
            bits = [0] * f.num_vars
            for p, x in enumerate(variables):
                bits[x - 1] = (index >> (n - 1 - p)) & 1
            a = Assignment(tuple(bits))
            assert counts[i] == count_satisfied(f, a)
            satisfied = [j for j, c in enumerate(f.constraints) if held[j] >> i & 1]
            assert satisfied == [j for j, c in enumerate(f.constraints) if eval_constraint(c, a)]
            sets.append((counts[i], satisfied))
    if kernel.num_chunks == 1:
        best = max(count for count, _ in sets)
        value, maximisers = kernel.best(0)
        assert value == best
        assert maximisers == sum(1 << i for i, (count, _) in enumerate(sets) if count == best)
        assert kernel.first_max_satisfied_set() == min(s for count, s in sets if count == best)


@pytest.mark.parametrize("chunk_bits", [16, 3, 2, 1])
def test_kernel_chunks_match_scalar_evaluation(monkeypatch, chunk_bits):
    # rows over the high variables only, the low ones only, or both, with
    # the variables in natural and in shuffled order
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(chunk_bits)
    for trial in range(12):
        n = rng.randint(1, 7)
        for variables in (list(range(1, n + 1)), rng.sample(range(1, n + 1), n)):
            split = max(n - chunk_bits, 0)
            pools = [p for p in (variables[:split], variables[split:], variables) if p]
            f = every_kind_formula(rng, n, rng.randint(0, 14), pools)
            assert_kernel_matches_scalar(f, variables)
            assert_matches_naive(f)


@pytest.mark.parametrize("chunk_bits", [16, 3, 2, 1])
def test_kernel_counts_beyond_255_rows(monkeypatch, chunk_bits):
    # 500 rows: counts above 255 take a ninth bit plane
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    f = every_kind_formula(random.Random(31), 6, 200)
    f = Formula(6, f.constraints + random_formula(6, 300, {"OR": 1}, (1, 3), seed=32).constraints)
    assert_kernel_matches_scalar(f, list(range(1, 7)))
    assert_matches_naive(f)
    assert max_csp_bruteforce(f).value > 255
