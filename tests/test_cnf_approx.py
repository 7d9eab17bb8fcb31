import random
from fractions import Fraction

import numpy as np
import pytest

from maxcsp import (
    Assignment,
    Constraint,
    ContractViolationError,
    Formula,
    Kind,
    LemmaViolationError,
    Literal,
    MalformedInstanceError,
    PreconditionError,
    ResourceLimitError,
    approx_max_cnf,
    clause_partition,
    count_satisfied,
    is_balanced,
    max_csp_bruteforce,
    or_clause,
    random_formula,
    select_sparse_variables,
)

from maxcsp import cnf_approx
from helpers import (
    best_of_trials,
    expected_unsatisfied,
    fraction_clause_split,
    fraction_select_sparse_variables,
    planted_satisfiable_cnf,
    random_cnf,
    random_fill,
)


def uniform_clauses(num_vars, sizes, rng):
    clauses = []
    for size in sizes:
        variables = rng.sample(range(1, num_vars + 1), size)
        clauses.append(
            Constraint(Kind.OR, tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables))
        )
    return Formula(num_vars, tuple(clauses))


def balanced_test_instance(rng=None, units=8, longs=8, num_vars=20, long_arity=20):
    """Half unit clauses, half arity-20 clauses; with window exponent 1 and
    eps=0.4 the cutoff lands at 2 and the split is balanced."""
    rng = rng or random.Random(0)
    clauses = []
    for _ in range(units):
        v = rng.randint(1, 4)
        clauses.append(or_clause(v if rng.getrandbits(1) else -v))
    for _ in range(longs):
        variables = rng.sample(range(1, num_vars + 1), long_arity)
        clauses.append(
            Constraint(Kind.OR, tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables))
        )
    return Formula(num_vars, tuple(clauses))


def test_partition_all_short():
    rng = random.Random(1)
    f = uniform_clauses(10, [2] * 12, rng)
    part = clause_partition(f, "0.25")
    assert part.cutoff == 3
    assert part.medium == () and part.long == ()
    assert len(part.short) == 12


def test_partition_bimodal():
    rng = random.Random(2)
    sizes = [1] * 50 + [1000] * 50
    f = uniform_clauses(1200, sizes, rng)
    part = clause_partition(f, "0.25")
    assert part.cutoff == 2
    assert len(part.short) == 50 and len(part.long) == 50 and part.medium == ()


def test_partition_cutoff_is_minimal():
    rng = random.Random(3)
    for trial in range(15):
        sizes = [rng.randint(1, 30) for _ in range(rng.randint(1, 40))]
        f = uniform_clauses(40, sizes, rng)
        eps_prime = Fraction(rng.randint(1, 4), 10)
        part = clause_partition(f, eps_prime, window_exponent=2)
        ratio = eps_prime ** (-2)
        m = f.num_constraints
        # independent exhaustive scan
        best = None
        for d in range(1, max(sizes) + 2):
            mass = sum(1 for s in sizes if d <= s and Fraction(s) <= ratio * d)
            if Fraction(mass) <= eps_prime * m:
                best = d
                break
        assert part.cutoff == best
        for j in part.medium:
            assert part.cutoff <= f.constraints[j].arity <= ratio * part.cutoff
        assert Fraction(len(part.medium)) <= eps_prime * m


def test_partition_rejects_non_cnf():
    from maxcsp import at_least

    with pytest.raises(ContractViolationError):
        clause_partition(Formula(1, (at_least(1, 1),)), "0.25")


@pytest.mark.parametrize("window_exponent", [-1, 0])
def test_partition_rejects_window_exponent_below_one(window_exponent):
    # below 1 the window ratio is at most 1, and every clause would count as long
    f = Formula(2, (or_clause(1), or_clause(1, 2)))
    with pytest.raises(MalformedInstanceError, match=f"got {window_exponent}"):
        clause_partition(f, "0.25", window_exponent)


def test_selection_empty_when_long_side_within_stop_bound():
    # eps = 0.6: the balance bound is 0.3*m and the stop bound 0.36*m, so a
    # long side between the two is balanced yet needs no selection at all.
    f = balanced_test_instance(units=7, longs=3, num_vars=20)
    eps = Fraction(3, 5)
    part = clause_partition(f, eps * eps, window_exponent=1)
    assert len(part.long) == 3 and len(part.short) == 7
    assert is_balanced(part, eps)
    sel = select_sparse_variables(part, eps)
    assert sel.variables == ()
    assert sel.remaining_long == part.long


def test_selection_qualifies_and_audits_on_balanced_instance():
    f = balanced_test_instance()
    eps = Fraction(2, 5)
    part = clause_partition(f, eps * eps, window_exponent=1)
    assert part.cutoff == 2
    assert is_balanced(part, eps)
    sel = select_sparse_variables(part, eps)
    m = f.num_constraints
    assert Fraction(sel.audit["short_clauses_touched"]) <= eps * m / 4
    assert Fraction(sel.audit["long_clauses_with_few_chosen"]) <= eps * eps * m
    assert Fraction(len(sel.variables)) * eps <= m
    assert len(sel.remaining_long) <= eps * eps * m


def test_selection_matches_independent_simulation():
    f = balanced_test_instance(units=6, longs=10)
    eps = Fraction(2, 5)
    part = clause_partition(f, eps * eps, window_exponent=1)
    sel = select_sparse_variables(part, eps)

    # independent greedy replay
    short_count = {}
    for j in part.short:
        for v in f.constraints[j].variables:
            short_count[v] = short_count.get(v, 0) + 1
    live = set(part.long)
    chosen = []
    while len(live) > eps * eps * f.num_constraints:
        cands = {}
        for j in live:
            for v in f.constraints[j].variables:
                if v not in chosen:
                    cands[v] = cands.get(v, 0) + 1
        best = min(
            cands, key=lambda v: (Fraction(short_count.get(v, 0), cands[v]), v)
        )
        assert Fraction(short_count.get(best, 0), cands[best]) <= (eps / 4) ** 2
        chosen.append(best)
        for j in list(live):
            inactive = sum(1 for v in f.constraints[j].variables if v in chosen)
            if Fraction(inactive) * eps > 1:
                live.discard(j)
    assert tuple(chosen) == sel.variables
    assert tuple(sorted(live)) == sel.remaining_long


def test_selection_requires_balance():
    rng = random.Random(4)
    f = uniform_clauses(10, [1] * 10, rng)
    part = clause_partition(f, "0.25")
    with pytest.raises(PreconditionError):
        select_sparse_variables(part, "0.5")


def test_exact_path_on_all_short_satisfiable():
    rng = random.Random(5)
    for trial in range(10):
        f = planted_satisfiable_cnf(rng, num_vars=12, num_clauses=14, arities=[1, 2, 3])
        report = approx_max_cnf(f, "0.3", seed=trial)
        assert report.route == "unbalanced-short"
        assert report.value == f.num_constraints == max_csp_bruteforce(f).value


def test_random_path_expectation():
    rng = random.Random(6)
    f = random_cnf(rng, num_vars=30, num_clauses=100, arities=[10, 11, 12])
    mu = float(expected_unsatisfied(f))
    assert mu <= 100 * 2**-10
    # sample mean within 3 standard errors
    sample_rng = random.Random(99)
    samples = []
    for _ in range(2000):
        a = Assignment(tuple(sample_rng.getrandbits(1) for _ in range(f.num_vars)))
        samples.append(f.num_constraints - count_satisfied(f, a))
    arr = np.asarray(samples, dtype=float)
    se = arr.std(ddof=1) / np.sqrt(len(arr)) if arr.std(ddof=1) > 0 else 1e-9
    assert abs(arr.mean() - mu) <= 3 * se + 1e-12


def test_end_to_end_guarantee_mixed():
    rng = random.Random(7)
    eps = "0.49"
    for trial in range(12):
        f = random_cnf(rng, num_vars=14, num_clauses=20, arities=[1, 2, 3, 12])
        opt = max_csp_bruteforce(f).value
        report = approx_max_cnf(f, eps, seed=trial)
        assert Fraction(report.value) >= (1 - Fraction(eps)) * opt


def test_balanced_branch_beats_baselines():
    f = balanced_test_instance()
    eps = "0.4"
    report = approx_max_cnf(f, eps, seed=11, trials=8, window_exponent=1)
    assert report.route == "balanced"
    # baseline 1: exact on all short clauses, zeros elsewhere
    from maxcsp.cnf_approx import _project_and_solve
    from maxcsp.oracle import max_csp_bruteforce as backend

    part = clause_partition(f, Fraction(2, 5) ** 2, window_exponent=1)
    base_short = _project_and_solve(f, part.short, backend)
    for trial in range(8):
        short_cand = random_fill(base_short, f.num_vars, random.Random(f"11:{trial}:short"))
        rand_cand = random_fill({}, f.num_vars, random.Random(f"11:{trial}:rand"))
        assert report.value >= count_satisfied(f, short_cand)
        assert report.value >= count_satisfied(f, rand_cand)


def test_determinism():
    f = balanced_test_instance()
    a = approx_max_cnf(f, "0.4", seed=3, trials=6, window_exponent=1)
    b = approx_max_cnf(f, "0.4", seed=3, trials=6, window_exponent=1)
    assert a == b


def test_selection_failure_falls_back_to_unbalanced_handling():
    # Balanced split in which every variable of the long side also sits in a
    # short unit clause, so no variable meets the sparsity ratio: the
    # selection raises, and the scheme falls back to the dominant short side.
    clauses = [or_clause(v) for v in range(1, 10)]
    rng = random.Random(3)
    for _ in range(4):
        lits = tuple(Literal(v, bool(rng.getrandbits(1))) for v in range(1, 10))
        clauses.append(Constraint(Kind.OR, lits))
    f = Formula(9, tuple(clauses))
    eps = Fraction(1, 2)
    part = clause_partition(f, eps * eps, window_exponent=1)
    assert len(part.short) == 9 and len(part.long) == 4
    assert is_balanced(part, eps)
    with pytest.raises(Exception) as err:
        select_sparse_variables(part, eps)
    assert "sparse" in str(err.value)
    rep = approx_max_cnf(f, eps, seed=0, trials=4, window_exponent=1)
    assert rep.route == "unbalanced-short"
    assert rep.value >= 9  # the short side is solved exactly


def test_epsilon_domain():
    f = Formula(1, (or_clause(1),))
    with pytest.raises(PreconditionError):
        approx_max_cnf(f, "0", seed=0)
    with pytest.raises(PreconditionError):
        approx_max_cnf(f, "1", seed=0)


def test_backend_limit_error_message():
    rng = random.Random(8)
    f = random_cnf(rng, num_vars=12, num_clauses=10, arities=[2, 3])
    with pytest.raises(ResourceLimitError) as err:
        approx_max_cnf(f, "0.3", seed=0, backend_var_limit=4)
    assert "raise the backend limit" in str(err.value)


def test_unbalanced_long_route():
    rng = random.Random(9)
    f = random_cnf(rng, num_vars=25, num_clauses=40, arities=[15, 16])
    report = approx_max_cnf(f, "0.3", seed=1, trials=4, window_exponent=1)
    assert report.route == "unbalanced-long"
    assert count_satisfied(f, report.witness) == report.value


CW_FAMILIES = {
    "balanced": (balanced_test_instance, "0.4", 1),
    "unbalanced-short": (lambda rng: random_cnf(rng, 12, 20, [1, 2, 3]), "0.3", 4),
    "unbalanced-long": (lambda rng: random_cnf(rng, 25, 40, [15, 16]), "0.3", 1),
}


def spy_candidates(monkeypatch):
    """Record the candidates of each scoring batch of approx_max_cnf."""
    seen = []
    score = cnf_approx._best_in_batch

    def spy(f, candidates, *args):
        seen.append(candidates)
        return score(f, candidates, *args)

    monkeypatch.setattr(cnf_approx, "_best_in_batch", spy)
    return seen


@pytest.mark.parametrize("trials", [1, 2, 32])
@pytest.mark.parametrize("route", sorted(CW_FAMILIES))
def test_batched_scoring_matches_per_trial_loop(monkeypatch, route, trials):
    make, eps, window = CW_FAMILIES[route]
    seen = spy_candidates(monkeypatch)
    for seed in range(4):
        f = make(random.Random(300 + seed))
        seen.clear()
        report = approx_max_cnf(f, eps, seed=seed, trials=trials, window_exponent=window)
        assert report.route == route
        assert (report.value, report.witness) == best_of_trials(f, seen[0], seed, trials)


def test_batched_scoring_over_several_batches(monkeypatch):
    seen = spy_candidates(monkeypatch)
    f = balanced_test_instance(random.Random(5))
    # 5000 trials of 20 variables fit in one batch of the default size, so
    # batches of 1700 trials stand in for a larger instance
    monkeypatch.setattr(cnf_approx, "_BATCH_BYTES", 1700 * f.num_vars)
    report = approx_max_cnf(f, "0.4", seed=2, trials=5000, window_exponent=1)
    assert report.route == "balanced"
    assert len(seen) >= 2
    assert (report.value, report.witness) == best_of_trials(f, seen[0], 2, 5000)


def test_batch_ties_go_to_the_earlier_trial_before_the_earlier_label():
    # small formulas tie often, so a later label often first reaches the
    # best value at an earlier trial than the labels before it
    rng = random.Random(8)
    candidates = [("a", {1: 0}), ("b", {}), ("c", {2: 1})]
    trials = range(8)
    later_label_wins = 0
    for seed in range(40):
        f = random_cnf(rng, 6, 4, [1, 2])
        expected = best_of_trials(f, candidates, seed, len(trials))
        assert cnf_approx._best_in_batch(f, candidates, seed, trials) == expected
        first_label = cnf_approx._best_in_batch(f, candidates[:1], seed, trials)
        later_label_wins += first_label[0] == expected[0] and first_label != expected
    assert later_label_wins >= 5


def test_winner_is_rechecked_against_count_satisfied(monkeypatch):
    top = cnf_approx._top

    def inflated(planes, full):
        value, maximisers = top(planes, full)
        return value + 1, maximisers

    monkeypatch.setattr(cnf_approx, "_top", inflated)
    with pytest.raises(AssertionError, match="count_satisfied"):
        approx_max_cnf(balanced_test_instance(), "0.4", seed=0, trials=4, window_exponent=1)


def selection_outcome(select, partition, eps):
    try:
        return select(partition, eps)
    except (PreconditionError, LemmaViolationError) as exc:
        return type(exc), str(exc)


def benchmark_shaped_cnfs():
    """10 unit clauses and 10 arity-20 clauses over n = 40 ... 120 variables."""
    for n in (40, 60, 80, 100, 120):
        for seed in range(2):
            units = random_formula(n, 10, {"OR": 1}, (1, 1), seed=2 * seed)
            longs = random_formula(n, 10, {"OR": 1}, (20, 20), seed=2 * seed + 1)
            yield Formula(n, units.constraints + longs.constraints)


def random_balanced_cnfs():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(20, 60)
        short = random_cnf(rng, n, rng.randint(4, 16), [1, 2])
        long = random_cnf(rng, n, rng.randint(4, 16), [10, 15, 20])
        yield Formula(n, short.constraints + long.constraints)


def degenerate_cnfs():
    """Every variable of the long side also sits in a unit clause, so no
    variable is sparse and the selection raises."""
    rng = random.Random(3)
    for longs in (2, 4, 6):
        clauses = [or_clause(v) for v in range(1, 10)]
        for _ in range(longs):
            clauses.append(
                Constraint(Kind.OR, tuple(Literal(v, bool(rng.getrandbits(1))) for v in range(1, 10)))
            )
        yield Formula(9, tuple(clauses))


def boundary_cnf():
    """22 unit clauses and 64 clauses over all 22 variables: at eps = 1/2
    every variable's ratio is 1/64, exactly the (eps/4)^2 bound, which the
    selection accepts."""
    rng = random.Random(5)
    clauses = [or_clause(v) for v in range(1, 23)]
    for _ in range(64):
        clauses.append(
            Constraint(Kind.OR, tuple(Literal(v, bool(rng.getrandbits(1))) for v in range(1, 23)))
        )
    yield Formula(22, tuple(clauses))


def test_integer_selection_matches_fraction_reference():
    kinds = {}
    for family, formulas in (
        ("benchmark", benchmark_shaped_cnfs()),
        ("random", random_balanced_cnfs()),
        ("degenerate", degenerate_cnfs()),
        ("boundary", boundary_cnf()),
    ):
        for f in formulas:
            for eps in (Fraction(1, 5), Fraction(3, 10), Fraction(2, 5), Fraction(1, 2)):
                # the pipeline's split, and splits that are balanced more often
                for eps_prime, window_exponent in ((eps * eps, 1), (Fraction(1, 4), 1), (Fraction(1, 9), 0)):
                    split = fraction_clause_split(f, eps_prime, window_exponent)
                    if window_exponent:
                        part = clause_partition(f, eps_prime, window_exponent)
                        assert (part.cutoff, part.short, part.medium, part.long) == split
                    else:
                        # clause_partition rejects exponent 0, but its one-size
                        # window still splits the clauses for the selection
                        part = cnf_approx.ClausePartition(f, *split)
                    got = selection_outcome(select_sparse_variables, part, eps)
                    if isinstance(got, cnf_approx.SparseVariableSelection):
                        got = (got.variables, got.remaining_long, got.audit)
                    assert got == selection_outcome(fraction_select_sparse_variables, part, eps)
                    kind = got[0].__name__ if isinstance(got[0], type) else "selected"
                    kinds.setdefault(family, set()).add(kind)
    assert kinds == {
        "benchmark": {"selected", "PreconditionError"},
        "random": {"selected", "PreconditionError", "LemmaViolationError"},
        "degenerate": {"PreconditionError", "LemmaViolationError"},
        "boundary": {"selected", "PreconditionError", "LemmaViolationError"},
    }
    # eps = 1/2 on the split approx_max_cnf makes with window exponent 1
    part = clause_partition(next(boundary_cnf()), Fraction(1, 4), 1)
    assert select_sparse_variables(part, Fraction(1, 2)).variables == (1, 2, 3)


@pytest.mark.parametrize("free_count", [0, 1, 31, 32, 33, 200])
def test_candidate_draw_equals_one_getrandbits_per_free_variable(free_count):
    num_vars = free_count + 3
    base = {free_count + 1: 1, free_count + 2: 0, free_count + 3: 1}
    for seed in (0, 1, 12345):
        trials = range(seed % 3, seed % 3 + 4)
        for label in ("a", "b:7", ""):
            columns = cnf_approx._columns(label, base, num_vars, seed, trials)
            assert len(columns) == num_vars
            assert all(0 <= column < 1 << len(trials) for column in columns)
            for t, trial in enumerate(trials):
                rng = random.Random(f"{seed}:{trial}:{label}")
                expected = [base[v] if v in base else rng.getrandbits(1) for v in range(1, num_vars + 1)]
                assert [(column >> t) & 1 for column in columns] == expected, (seed, trial, label)
