import random

import numpy as np
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
    """The oracle, through whichever kernel it picks, and the numpy kernel
    built directly agree with the plain product enumeration on value and on
    the lexicographically first maximizer."""
    value, witness = naive_max_csp(f)
    res = max_csp_bruteforce(f)
    assert res.value == value
    assert res.witness == witness
    n = f.num_vars
    kernel = oracle._SatisfiedCounts(f.constraints, range(1, n + 1))
    counts = np.concatenate([kernel.counts(high) for high in range(kernel.num_chunks)])
    first = int(np.argmax(counts))
    assert counts[first] == value
    assert Assignment(tuple(first >> (n - i) & 1 for i in range(1, n + 1))) == witness


@pytest.mark.parametrize("n", [16, 17])
def test_oracle_kernels_meet_at_one_chunk(n):
    # 16 variables are the bitset kernel's most, and 17 the numpy kernel's
    # fewest in production; the constraints read the first and last index bits
    f = random_formula(n, 6, {"OR": 1, "PARITY": 1, "THRESHOLD": 1, "MAJORITY": 1}, (1, 4), seed=1600 + n)
    f = Formula(n, f.constraints + (or_clause(1, -n), parity(1, 2, n - 1)))
    assert oracle._BitCounts.fits(n) == (n == 16)
    assert_matches_naive(f)
    if n == 16:
        bits = oracle._BitCounts(f.constraints, range(1, n + 1))
        assert bits.counts() == oracle._SatisfiedCounts(f.constraints, range(1, n + 1)).counts(0).tolist()


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


def test_oracle_kernel_counts_beyond_16_bits():
    # 70 000 satisfied constraints overflow any 16-bit counter; the bitset
    # kernel's counts take 17 bit planes, and the numpy kernel's sums of more
    # than 255 rows are int32
    f = Formula(2, (or_clause(1),) * 40_000 + (or_clause(-2),) * 30_000 + (parity(0, 1, 2),) * 5)
    assert_matches_naive(f)
    assert max_csp_bruteforce(f).value == 70_000
    expected = [30_005, 0, 70_000, 40_005]
    assert oracle._BitCounts(f.constraints, [1, 2]).counts() == expected
    assert oracle._SatisfiedCounts(f.constraints, [1, 2]).counts(0).tolist() == expected


def test_oracle_kernel_rejects_counts_beyond_uint8(monkeypatch):
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


def every_kind_formula(rng, n, m, spread=False):
    """Random constraints of every kind, arity 0..min(4, n), thresholds
    0..arity+1 and both parity right-hand sides.  With ``spread`` each
    constraint draws its variables from the last 1..n variables only, so
    its highest index bit, and its width in the kernel, varies."""
    constraints = []
    for _ in range(m):
        kind = rng.choice(list(Kind))
        pool = range(rng.randint(1, n) if spread else 1, n + 1)
        variables = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        lits = tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables)
        if kind is Kind.PARITY:
            constraints.append(Constraint(kind, lits, parity_rhs=rng.getrandbits(1)))
        elif kind is Kind.THRESHOLD:
            constraints.append(Constraint(kind, lits, threshold=rng.randint(0, len(lits) + 1)))
        else:
            constraints.append(Constraint(kind, lits))
    return Formula(n, tuple(constraints))


# (chunk bits, block bytes): one block; several blocks per chunk; several
# chunks of one block; several chunks of several blocks.  Each layout lets
# blocks shrink to one position.
KERNEL_LAYOUTS = [(16, 1 << 19), (16, 64), (3, 1 << 19), (4, 1)]


def set_kernel_layout(monkeypatch, chunk_bits, block_bytes, merge_cells=None):
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(oracle, "_MIN_BLOCK_BITS", 0)
    if merge_cells is not None:
        monkeypatch.setattr(oracle, "_MERGE_CELLS", merge_cells)


def group_layout(kernel):
    """(width, "at least" rows, PARITY rows) of each width group of a
    kernel, narrowest first."""
    return [(table.shape[1].bit_length() - 1, k - s, e - k) for s, k, e, table, _ in kernel._groups]


def assert_kernel_matches_scalar(f, variables):
    kernel = oracle._SatisfiedCounts(f.constraints, variables)
    form = kernel._form
    n = len(variables)
    size = 1 << kernel.chunk_bits
    sets = []
    block = 1 << kernel._block_bits
    rank = np.argsort(kernel._order)
    # _LinearForm's rows: the varying constraints, "at least" ones first,
    # each kind in constraint order
    varying = [j for j in range(f.num_constraints) if j not in form.const]
    row_of = {j: r for r, j in enumerate(sorted(varying, key=lambda j: f.constraints[j].kind is Kind.PARITY))}
    every_count = []
    for high in range(kernel.num_chunks):
        counts = kernel.counts(high)
        every_count += counts.tolist()
        # every row's held value at every assignment of the chunk, block by
        # block: each group's 2^w held columns tiled over the block, rows in
        # _LinearForm order
        held = np.concatenate(
            [
                np.concatenate(
                    [np.zeros((0, block), dtype=bool)]
                    + [np.tile(group[-1], block // group[-1].shape[1]) for group in kernel._groups]
                )[rank]
                for _ in kernel._held_blocks(high)
            ],
            axis=1,
        )
        for i in range(size):
            index = (high << kernel.chunk_bits) + i
            bits = [0] * f.num_vars
            for p, x in enumerate(variables):
                bits[x - 1] = (index >> (n - 1 - p)) & 1
            a = Assignment(tuple(bits))
            assert counts[i] == count_satisfied(f, a)
            satisfied = []
            for j, c in enumerate(f.constraints):
                got = form.const[j] if j in form.const else bool(held[row_of[j], i])
                assert got == eval_constraint(c, a)
                if got:
                    satisfied.append(j)
            sets.append((counts[i], satisfied))
    if oracle._BitCounts.fits(n):
        # the bitset kernel's counts, and the maximisers' satisfied set that
        # comes first in combinations order
        bits = oracle._BitCounts(f.constraints, variables)
        assert bits.counts() == every_count
        best = max(count for count, _ in sets)
        assert bits.value == best
        assert bits.first_max_satisfied_set() == min(s for count, s in sets if count == best)


@pytest.mark.parametrize("chunk_bits, block_bytes", KERNEL_LAYOUTS)
def test_kernel_layouts_match_scalar_evaluation(monkeypatch, chunk_bits, block_bytes):
    set_kernel_layout(monkeypatch, chunk_bits, block_bytes)
    rng = random.Random(chunk_bits * 1000 + block_bytes)
    for trial in range(12):
        n = rng.randint(1, 7)
        f = every_kind_formula(rng, n, rng.randint(0, 14))
        variables = list(range(1, n + 1))
        assert_kernel_matches_scalar(f, variables)
        rng.shuffle(variables)
        assert_kernel_matches_scalar(f, variables)
        assert_matches_naive(f)


@pytest.mark.parametrize("chunk_bits, block_bytes", KERNEL_LAYOUTS)
def test_kernel_counts_beyond_255_rows(monkeypatch, chunk_bits, block_bytes):
    # 300 varying rows: a block's per-position sums leave uint8
    set_kernel_layout(monkeypatch, chunk_bits, block_bytes)
    f = every_kind_formula(random.Random(31), 6, 200)
    f = Formula(6, f.constraints + random_formula(6, 300, {"OR": 1}, (1, 3), seed=32).constraints)
    assert_kernel_matches_scalar(f, list(range(1, 7)))
    assert_matches_naive(f)
    assert max_csp_bruteforce(f).value > 255


def test_kernel_needs_stay_within_block_budget(monkeypatch):
    # 2000 rows over 16 variables: blocks are short, so a chunk has hundreds
    # of them, and their needs must be built a bounded slice at a time.
    budget = 1 << 18
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
    widths = []
    true_counts = oracle._LinearForm.true_counts

    def spy(form, x):
        widths.append(x.shape[1])
        assert len(form.cols) * x.shape[1] <= oracle._BLOCK_BYTES
        return true_counts(form, x)

    monkeypatch.setattr(oracle._LinearForm, "true_counts", spy)
    n = 16
    f = random_formula(n, 2000, {"OR": 2, "PARITY": 1, "THRESHOLD": 1}, (1, 3), seed=44)
    kernel = oracle._SatisfiedCounts(f.constraints, range(1, n + 1))
    counts = kernel.counts(0)
    assert len(widths) > 1
    rng = random.Random(45)
    for index in [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(40)]:
        a = Assignment(tuple((index >> (n - i)) & 1 for i in range(1, n + 1)))
        assert counts[index] == count_satisfied(f, a)


def test_group_widths_merge_narrow_groups_that_save_too_little(monkeypatch):
    monkeypatch.setattr(oracle, "_MERGE_CELLS", 100)
    # widths 0..6 with 1, 0, 3, 0, 2, 1, 4 rows: width 5's one row would
    # save 32 cells and joins 6; width 4's two save 64 and join 6; width 2's
    # three save 180 of 64 and stay; width 0's row saves 3 and joins 2
    assert oracle._group_widths([1, 0, 3, 0, 2, 1, 4]) == [2, 1, 2, 3, 6, 6, 6]
    monkeypatch.setattr(oracle, "_MERGE_CELLS", 0)
    assert oracle._group_widths([1, 0, 3, 0, 2, 1, 4]) == list(range(7))


def test_grouped_kernel_reads_each_row_over_its_own_width(monkeypatch):
    # rows over only the last variables beside rows over the first, of both
    # kinds, and constant rows; no merging and one 2^8-position block
    set_kernel_layout(monkeypatch, 16, 1 << 19, merge_cells=0)
    f = Formula(
        8,
        (
            or_clause(8),
            parity(1, 7, -8),
            at_least(2, 6, -7, 8),
            parity(0, -6, 8),
            or_clause(1, -2),
            and_term(-1, 8),
            parity(1, 1, 5),
            majority(2, -3, 4),
            Constraint(Kind.OR, ()),
            at_least(0, 3, 4),
            at_least(4, 1, 2, 3),
            parity(1),
        ),
    )
    kernel = oracle._SatisfiedCounts(f.constraints, range(1, 9))
    assert kernel._block_bits == 8
    # widths 1, 2, 3 and 8: x8 is index bit 0 and x1 bit 7
    assert group_layout(kernel) == [(1, 1, 0), (2, 0, 1), (3, 1, 1), (7, 1, 0), (8, 2, 1)]
    assert_kernel_matches_scalar(f, list(range(1, 9)))
    assert_matches_naive(f)
    # merged at the default cost, the same rows are one group of width 8
    monkeypatch.setattr(oracle, "_MERGE_CELLS", 1 << 15)
    assert group_layout(oracle._SatisfiedCounts(f.constraints, range(1, 9))) == [(8, 5, 3)]


@pytest.mark.parametrize("chunk_bits, block_bytes", KERNEL_LAYOUTS)
def test_grouped_kernel_layouts_match_scalar_evaluation(monkeypatch, chunk_bits, block_bytes):
    # every row compared over its own width: rows of both kinds spread over
    # several groups, constant rows, one chunk (checked against the bitset
    # kernel too) or several, one block or several
    set_kernel_layout(monkeypatch, chunk_bits, block_bytes, merge_cells=0)
    rng = random.Random(7000 + chunk_bits * 1000 + block_bytes)
    spread = 0  # kernels whose rows of each kind lie in two groups or more
    for trial in range(10):
        n = rng.randint(3, 8)
        f = every_kind_formula(rng, n, rng.randint(8, 16), spread=True)
        variables = list(range(1, n + 1))
        layout = group_layout(oracle._SatisfiedCounts(f.constraints, variables))
        spread += sum(geq > 0 for _, geq, _ in layout) >= 2 and sum(par > 0 for _, _, par in layout) >= 2
        assert_kernel_matches_scalar(f, variables)
        rng.shuffle(variables)
        assert_kernel_matches_scalar(f, variables)
        assert_matches_naive(f)
    # a one-byte budget leaves blocks of one position, where every row has width 0
    assert spread >= 2 or block_bytes == 1


@pytest.mark.parametrize("chunk_bits, block_bytes", [(16, 1 << 19), (4, 1 << 19)])
def test_grouped_kernel_counts_beyond_255_rows(monkeypatch, chunk_bits, block_bytes):
    # 320 varying rows spread over every width: a block's sums leave uint8
    # while the narrow groups' sums are tiled into the wide ones
    set_kernel_layout(monkeypatch, chunk_bits, block_bytes, merge_cells=0)
    rng = random.Random(33)
    f = every_kind_formula(rng, 7, 80, spread=True)
    f = Formula(7, f.constraints + random_formula(7, 240, {"OR": 1, "PARITY": 1}, (1, 2), seed=34).constraints)
    kernel = oracle._SatisfiedCounts(f.constraints, range(1, 8))
    assert len(kernel._form.target) > 255 and len(kernel._groups) >= 4
    assert_kernel_matches_scalar(f, list(range(1, 8)))
    assert_matches_naive(f)
