"""Exact MAX-THRESHOLD parameterized by an incidence vertex cover.

Branch over all assignments of the cover's variable side; constraints outside
the cover then have all variables fixed and are counted directly, while the
at-most-k covered constraints form a residual whose optimum is found by
testing constraint subsets in decreasing size with a type-vector counting
argument: variables with identical occurrence patterns are interchangeable,
so only the number set to true per pattern matters.  A residual whose
constraints cannot all hold and whose occurring variables number at most 16
has those variables' assignments enumerated instead of its smaller subsets
(see ``residual_exact_max``, which runs under a node budget).

Both enumerations, the cover assignments' counts and a small residual's,
run in the oracle's bitset kernel (``_BitCounts``, Python ints).
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Callable, Sequence

from .errors import PreconditionError, ResourceLimitError
from .graphs import VertexSplit, check_split_range
from .model import Assignment, Constraint, Formula, Kind, Literal, satisfied_counter
from .oracle import OracleResult, _BitCounts

# Type-class search nodes (``feasible_true_counts``) that one
# ``residual_exact_max`` call may visit in all: about 60 times the largest
# total of the test suite and the benchmark corpora at seeds 0-3 (1 552).
RESIDUAL_NODE_BUDGET = 100_000


def _occurrence_maps(num_vars: int, constraints: Sequence[Constraint]) -> list[dict[int, int]]:
    """Per variable, the map constraint-position -> +1/-1 for its occurrences."""
    occ: list[dict[int, int]] = [dict() for _ in range(num_vars + 1)]
    for j, c in enumerate(constraints):
        for lit in c.literals:
            occ[lit.var][j] = 1 if lit.positive else -1
    return occ


def _group_by_type(
    occ: Sequence[dict[int, int]], variables: Sequence[int], positions: Sequence[int]
) -> dict[tuple[int, ...], list[int]]:
    """Type classes of ``variables`` over the constraints at ``positions``:
    variables with the same occurrence pattern there share a class, and
    variables that occur in none of them are left out."""
    groups: dict[tuple[int, ...], list[int]] = {}
    zero = (0,) * len(positions)
    for x in variables:
        vec = tuple(occ[x].get(j, 0) for j in positions)
        if vec != zero:
            groups.setdefault(vec, []).append(x)
    if len(groups) > min(3 ** min(len(positions), 40), len(variables)):
        raise AssertionError("more type classes than possible")
    return groups


def feasible_true_counts(
    num_vars: int,
    constraints: Sequence[Constraint],
    groups: dict[tuple[int, ...], list[int]] | None = None,
    visit: Callable[[], None] | None = None,
) -> dict[tuple[int, ...], int] | None:
    """Search for per-type-class counts of true variables satisfying every constraint.

    Constraint i is satisfied when (true positives) + (false negatives) meets
    its threshold.  Complete backtracking over the classes with interval
    pruning on each constraint's reachable satisfied-literal count; classes
    are visited in sorted vector order and counts tried in increasing order,
    so the first solution is deterministic.  ``visit`` is called at every
    search node, so a caller can count them.
    """
    k = len(constraints)
    if groups is None:
        occ = _occurrence_maps(num_vars, constraints)
        groups = _group_by_type(occ, range(1, num_vars + 1), range(k))
    vectors = sorted(groups)
    sizes = [len(groups[v]) for v in vectors]
    targets = [c.effective_threshold() for c in constraints]

    # Base satisfied count per constraint if every class chose 0 true
    # variables: negative occurrences all count as true literals.
    base = [0] * k
    for vec, size in zip(vectors, sizes):
        for i, entry in enumerate(vec):
            if entry == -1:
                base[i] += size
    # Maximum extra satisfied literals reachable from class index ci onward.
    # A +1 entry gains by setting variables true, a -1 entry by leaving the
    # class at 0, so the slack per class is its size for +1 entries only.
    suffix_gain = [[0] * k for _ in range(len(vectors) + 1)]
    for ci in range(len(vectors) - 1, -1, -1):
        for i in range(k):
            gain = sizes[ci] if vectors[ci][i] == 1 else 0
            suffix_gain[ci][i] = suffix_gain[ci + 1][i] + gain

    chosen: dict[tuple[int, ...], int] = {}

    def rec(ci: int, sat: list[int]) -> bool:
        if visit is not None:
            visit()
        if any(sat[i] + suffix_gain[ci][i] < targets[i] for i in range(k)):
            return False
        if ci == len(vectors):
            return True
        # try only the counts whose child passes the prune above: a +1 entry
        # bounds the count from below, a -1 entry from above
        vec = vectors[ci]
        lo, hi = 0, sizes[ci]
        for i, entry in enumerate(vec):
            slack = sat[i] + suffix_gain[ci + 1][i] - targets[i]
            if entry == 1:
                lo = max(lo, -slack)
            elif entry == -1:
                hi = min(hi, slack)
        for count in range(lo, hi + 1):
            nxt = list(sat)
            for i, entry in enumerate(vec):
                if entry == 1:
                    nxt[i] += count
                elif entry == -1:
                    nxt[i] -= count
            if rec(ci + 1, nxt):
                chosen[vec] = count
                return True
        return False

    if rec(0, base):
        for vec in vectors:
            chosen.setdefault(vec, 0)
        return chosen
    return None


def _selection_to_assignment(
    num_vars: int,
    groups: dict[tuple[int, ...], list[int]],
    selection: dict[tuple[int, ...], int],
) -> Assignment:
    bits = [0] * num_vars
    for vec, members in groups.items():
        for x in sorted(members)[: selection.get(vec, 0)]:
            bits[x - 1] = 1
    return Assignment(tuple(bits))


def _subset_witness(
    f: Formula,
    occ: Sequence[dict[int, int]],
    variables: Sequence[int],
    subset: Sequence[int],
    visit: Callable[[], None],
) -> Assignment | None:
    """An assignment satisfying every constraint of ``subset``, or None."""
    groups = _group_by_type(occ, variables, subset)
    selection = feasible_true_counts(f.num_vars, [f.constraints[j] for j in subset], groups, visit)
    if selection is None:
        return None
    return _selection_to_assignment(f.num_vars, groups, selection)


def residual_exact_max(f: Formula) -> OracleResult:
    """Maximum simultaneously satisfiable constraints of a small residual.

    Tests constraint subsets in decreasing cardinality (lexicographic within
    a size) and returns on the first feasible subset; monotonicity of
    feasibility under taking subsets makes that the optimum.  The witness
    sets, per type class, the lowest-index variables true.

    Below the whole set, when the r occurring variables are at most 16,
    their 2^r assignments are enumerated instead, by the oracle's bitset
    kernel.  An assignment that
    satisfies a feasible subset of the optimum's size satisfies exactly that
    subset, so the first feasible subset is the first of the maximisers'
    satisfied sets in the same order, and its witness comes from the same
    type-class search.

    The type-class searches of one call visit at most
    ``RESIDUAL_NODE_BUDGET`` nodes in all; one more raises
    ``ResourceLimitError``, and a PARITY constraint ``ContractViolationError``.
    """
    m = f.num_constraints
    occ = _occurrence_maps(f.num_vars, f.constraints)
    relevant = [x for x in range(1, f.num_vars + 1) if occ[x]]
    nodes = 0

    def visit() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > RESIDUAL_NODE_BUDGET:
            raise ResourceLimitError(
                f"residual of {m} constraints over {len(relevant)} variables needs more than "
                f"{RESIDUAL_NODE_BUDGET} search nodes"
            )
    for size in range(m, -1, -1):
        if size < m and _BitCounts.fits(len(relevant)):
            subset = _BitCounts(f.constraints, relevant).first_max_satisfied_set()
            witness = _subset_witness(f, occ, relevant, subset, visit)
            if witness is None:
                raise AssertionError("a maximiser's satisfied set failed the subset search")
            return OracleResult(len(subset), witness)
        for subset in combinations(range(m), size):
            witness = _subset_witness(f, occ, relevant, subset, visit)
            if witness is not None:
                return OracleResult(size, witness)
    raise AssertionError("the empty subset is always feasible")


def verify_cover(f: Formula, cover: VertexSplit) -> None:
    check_split_range(f, cover)
    # the first uncovered occurrence in edge order: smallest variable, then
    # smallest constraint
    uncovered = min(
        (
            (lit.var, j)
            for j, c in enumerate(f.constraints)
            if j not in cover.constraints
            for lit in c.literals
            if lit.var not in cover.variables
        ),
        default=None,
    )
    if uncovered is not None:
        var, con = uncovered
        raise PreconditionError(
            f"not a vertex cover: occurrence of variable {var} in constraint {con} uncovered"
        )


def solve_via_vertex_cover(f: Formula, cover: VertexSplit) -> OracleResult:
    """Exact optimum given a verified vertex cover of the incidence graph.

    The constraints outside the cover are counted for all 2^k assignments of
    the k cover variables by the oracle's bitset kernel, chunk by chunk, in
    ``product`` order.  The residual of the
    covered constraints depends only on the cover variables that occur in
    it, so it is built in one pass and solved once per assignment of those:
    each covered constraint becomes a THRESHOLD on its literals off the
    cover that needs its effective threshold less the cover literals made
    true, down to 0.  Every assignment's witness is re-counted on the whole
    formula with ``satisfied_counter``, independently of the kernel, and the
    first assignment in ``product`` order with the largest total wins.
    """
    if any(c.kind is Kind.PARITY for c in f.constraints):
        raise PreconditionError("PARITY constraint has no threshold form")
    verify_cover(f, cover)
    cover_vars = sorted(cover.variables)
    covered = tuple(f.constraints[j] for j in sorted(cover.constraints))
    outside = [c for j, c in enumerate(f.constraints) if j not in cover.constraints]
    for c in outside:
        if not cover.variables.issuperset(c.variables):
            raise AssertionError("uncovered constraint with a variable outside the cover")
    kernel = _BitCounts(outside, cover_vars)
    fixed_counts = chain.from_iterable(kernel.counts(high) for high in range(kernel.num_chunks))
    # Assignments are bitsets, bit x - 1 for variable x.  sigmas lists the
    # cover assignments in ``product`` order; a residual depends only on the
    # cover variables that occur in covered constraints, the key.
    cover_mask = sum(1 << (x - 1) for x in cover_vars)
    keyed_mask = sum(1 << (x - 1) for x in cover.variables & {lit.var for c in covered for lit in c.literals})
    sigmas = [0]
    for x in cover_vars:
        sigmas = [s | b for s in sigmas for b in (0, 1 << (x - 1))]
    count = satisfied_counter(f)

    residuals: dict[int, tuple[int, int]] = {}  # key -> residual total, witness off the cover
    best_value = -1
    best = 0
    for fixed_count, sigma in zip(fixed_counts, sigmas):
        key = sigma & keyed_mask
        solved = residuals.get(key)
        if solved is None:
            true_lits = {Literal(x, bool(key >> (x - 1) & 1)) for x in cover_vars}
            residual = []
            for c in covered:
                off_cover = tuple(lit for lit in c.literals if lit.var not in cover.variables)
                need = max(c.effective_threshold() - sum(lit in true_lits for lit in c.literals), 0)
                residual.append(Constraint(Kind.THRESHOLD, off_cover, threshold=need))
            sub = residual_exact_max(Formula(f.num_vars, tuple(residual)))
            rest = int(sub.witness.bitstring()[::-1] or "0", 2) & ~cover_mask
            solved = residuals[key] = (sub.value, rest)
        residual_total, rest = solved

        total = fixed_count + residual_total
        if count(rest | sigma) != total:
            raise AssertionError("cover solver bookkeeping mismatch")
        if total > best_value:
            best_value = total
            best = rest | sigma
    if best_value < 0:
        raise AssertionError("no cover assignment scored")
    # bit n above best makes bin() print all n bits, none when n = 0
    return OracleResult(best_value, Assignment(tuple(map(int, bin(best | 1 << f.num_vars)[:2:-1]))))
