"""Randomized approximation scheme for MAX-CNF (OR constraints only).

Pipeline: split clauses into short / medium / long by scanning for a size
cutoff whose window [d, L*d] holds almost no clause mass, drop the medium
window, then either solve the dominant short side exactly, satisfy a
dominant long side with random assignments, or, in the balanced case, pick a
set of variables that occur almost exclusively in long clauses, solve the
untouched short clauses exactly and randomize the rest.  Candidates are
always scored against the original formula, a batch of trials at a time on
the oracle's bit planes, and the best of a fixed number of trials is
returned, so fixed seeds give identical reports.

The exact step is pluggable; the default backend is the brute-force oracle
applied to the relevant subformula projected onto its occurring variables.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    ContractViolationError,
    LemmaViolationError,
    MalformedInstanceError,
    PreconditionError,
    ResourceLimitError,
)
from .model import Assignment, Constraint, Formula, Kind, Literal, count_satisfied
from .oracle import DEFAULT_VAR_LIMIT, OracleResult, _add, _top, max_csp_bruteforce
from .report import parse_fraction

DEFAULT_TRIALS = 32
DEFAULT_WINDOW_EXPONENT = 4
# drawn row bytes a scoring batch may hold: trials times variables
_BATCH_BYTES = 1 << 20

ExactBackend = Callable[[Formula], OracleResult]


@dataclass(frozen=True)
class ClausePartition:
    """Three-way split of a CNF by clause size.

    ``cutoff`` is the smallest d >= 1 whose window [d, r * d], with
    r = epsilon_prime ** -window_exponent, contains at most an epsilon_prime
    fraction of all clauses; short means size < d, long means size > r * d.
    """

    formula: Formula
    cutoff: int
    short: tuple[int, ...]
    medium: tuple[int, ...]
    long: tuple[int, ...]

    @property
    def num_clauses(self) -> int:
        return self.formula.num_constraints


@dataclass(frozen=True)
class SparseVariableSelection:
    """Variables chosen for random assignment in the balanced branch.

    The selection guarantees, and re-checks at runtime, that few short
    clauses touch the chosen variables, that almost every long clause
    contains many of them, and that the set itself is small.
    """

    variables: tuple[int, ...]
    remaining_long: tuple[int, ...]
    audit: dict[str, int]


def _require_cnf(f: Formula) -> None:
    if any(c.kind is not Kind.OR for c in f.constraints):
        raise ContractViolationError("expected a CNF formula (OR constraints only)")


def clause_partition(
    f: Formula, epsilon_prime, window_exponent: int = DEFAULT_WINDOW_EXPONENT
) -> ClausePartition:
    """Find the smallest size cutoff whose medium window is nearly empty.

    Scans d = 1, 2, ... up to one past the largest clause size, where the
    window is empty and the bound holds vacuously, so the scan always
    terminates.
    """
    _require_cnf(f)
    eps_prime = parse_fraction(epsilon_prime)
    if not 0 < eps_prime < 1:
        raise PreconditionError(f"epsilon_prime must be in (0, 1), got {eps_prime}")
    if window_exponent < 1:
        raise MalformedInstanceError(f"window exponent must be at least 1, got {window_exponent}")
    ratio = eps_prime ** (-window_exponent)
    m = f.num_constraints
    sizes = [c.arity for c in f.constraints]
    max_size = max(sizes, default=0)
    cutoff = None
    # Sizes and counts are integers, so n <= x exactly when n <= floor(x).
    max_mass = math.floor(eps_prime * m)
    for d in range(1, max_size + 2):
        top = math.floor(ratio * d)
        if sum(1 for s in sizes if d <= s <= top) <= max_mass:
            cutoff = d
            break
    if cutoff is None:
        raise AssertionError("no cutoff found; the scan past the largest clause always succeeds")
    top = math.floor(ratio * cutoff)
    short = tuple(j for j, s in enumerate(sizes) if s < cutoff)
    medium = tuple(j for j, s in enumerate(sizes) if cutoff <= s <= top)
    long = tuple(j for j, s in enumerate(sizes) if s > top)
    return ClausePartition(formula=f, cutoff=cutoff, short=short, medium=medium, long=long)


def is_balanced(partition: ClausePartition, epsilon) -> bool:
    """Both the short and the long side hold at least an eps/2 clause fraction."""
    bound = math.ceil(parse_fraction(epsilon) / 2 * partition.num_clauses)
    return len(partition.short) >= bound and len(partition.long) >= bound


def select_sparse_variables(partition: ClausePartition, epsilon) -> SparseVariableSelection:
    """Greedily pick variables that are sparse in short clauses.

    Repeatedly takes the variable minimizing (short occurrences) / (live long
    occurrences), requiring the ratio to be at most (eps/4)^2; drops a live
    long clause once more than 1/eps of its variables have been picked; stops
    when at most eps^2 * m long clauses remain live.  The three selection
    properties are re-checked before returning and any violation raises.
    """
    eps = parse_fraction(epsilon)
    if not 0 < eps < 1:
        raise PreconditionError(f"epsilon must be in (0, 1), got {eps}")
    if not is_balanced(partition, eps):
        raise PreconditionError("selection requires a balanced short/long split")
    f = partition.formula
    m = f.num_constraints

    short_count: dict[int, int] = {}
    for j in partition.short:
        for var in f.constraints[j].variables:
            short_count[var] = short_count.get(var, 0) + 1
    live: set[int] = set(partition.long)
    live_occ: dict[int, set[int]] = {}
    clause_vars: dict[int, tuple[int, ...]] = {}
    for j in partition.long:
        clause_vars[j] = f.constraints[j].variables
        for var in clause_vars[j]:
            live_occ.setdefault(var, set()).add(j)

    chosen: list[int] = []
    chosen_set: set[int] = set()
    picked_in_clause: dict[int, int] = {j: 0 for j in partition.long}
    # Ratio tests in integers, with eps = num/den; a count n exceeds a
    # rational x exactly when it exceeds floor(x).
    num, den = eps.numerator, eps.denominator
    stop_bound = math.floor(eps * eps * m)
    max_picked = den // num  # floor(1/eps)

    while len(live) > stop_bound:
        best_var, best_short, best_occ = None, 0, 0
        for var, occ in live_occ.items():
            if var in chosen_set or not occ:
                continue
            short = short_count.get(var, 0)
            # short/len(occ) against best_short/best_occ; the smaller variable wins ties
            lhs, rhs = short * best_occ, best_short * len(occ)
            if best_var is None or lhs < rhs or (lhs == rhs and var < best_var):
                best_var, best_short, best_occ = var, short, len(occ)
        # best_short/best_occ > (eps/4)^2
        if best_var is None or best_short * 16 * den * den > num * num * best_occ:
            raise LemmaViolationError(
                "no sufficiently sparse variable exists; the balanced split is degenerate"
            )
        chosen.append(best_var)
        chosen_set.add(best_var)
        for j in sorted(live_occ[best_var]):
            if j not in live:
                continue
            picked_in_clause[j] += 1
            if picked_in_clause[j] > max_picked:
                live.discard(j)
                for var in clause_vars[j]:
                    occ = live_occ.get(var)
                    if occ is not None:
                        occ.discard(j)

    touched_short = sum(
        1
        for j in partition.short
        if any(v in chosen_set for v in f.constraints[j].variables)
    )
    sparse_long = sum(
        1
        for j in partition.long
        if sum(1 for v in f.constraints[j].variables if v in chosen_set) <= max_picked
    )
    audit = {
        "short_clauses_touched": touched_short,
        "long_clauses_with_few_chosen": sparse_long,
        "chosen_size": len(chosen),
    }
    if touched_short > math.floor(eps * m / 4):
        raise LemmaViolationError("too many short clauses touch the chosen variables")
    if sparse_long > stop_bound:
        raise LemmaViolationError("too many long clauses contain few chosen variables")
    if len(chosen) > math.floor(m / eps):
        raise LemmaViolationError("chosen variable set is larger than m/eps")
    return SparseVariableSelection(tuple(chosen), tuple(sorted(live)), audit)


def _project_and_solve(
    f: Formula, clause_indices: Sequence[int], backend: ExactBackend
) -> dict[int, int]:
    """Solve the given clauses exactly; returns values for occurring variables."""
    if not clause_indices:
        return {}
    variables = sorted({v for j in clause_indices for v in f.constraints[j].variables})
    rename = {v: i + 1 for i, v in enumerate(variables)}
    clauses = []
    for j in clause_indices:
        lits = tuple(Literal(rename[lit.var], lit.positive) for lit in f.constraints[j].literals)
        clauses.append(Constraint(Kind.OR, lits))
    sub = Formula(len(variables), tuple(clauses))
    result = backend(sub)
    return {v: result.witness.value(rename[v]) for v in variables}


_TOP_BIT = bytes(b"01"[b >> 7] for b in range(256))


def _columns(label: str, base: dict[int, int], num_vars: int, seed: int, trials: range) -> list[int]:
    """Variable v's column, at index v - 1: bit t is its value in the
    ``label`` candidate of trial ``trials[t]``, the base value or, for the k
    free variables in ascending order, one ``getrandbits(1)`` each of
    ``random.Random(f"{seed}:{trial}:{label}")``: the top bit of byte 3 of
    each little-endian word of ``randbytes(4 * k)``.  With the k-byte rows
    joined first trial last, free variable i's bits are ``table[i::k]``."""
    full = (1 << len(trials)) - 1
    columns = [full if base.get(v) else 0 for v in range(1, num_vars + 1)]
    free = [v for v in range(1, num_vars + 1) if v not in base]
    k = len(free)
    table = b"".join(
        random.Random(f"{seed}:{trial}:{label}").randbytes(4 * k)[3::4] for trial in reversed(trials)
    ).translate(_TOP_BIT)
    for i, v in enumerate(free):
        columns[v - 1] = int(table[i::k], 2)
    return columns


def _best_in_batch(
    f: Formula, candidates: Sequence[tuple[str, dict[int, int]]], seed: int, trials: range
) -> tuple[int, Assignment]:
    """The satisfied clauses and the assignment of the first best candidate
    of ``trials`` in (trial, label) order.  A clause holds on the OR of its
    literals' columns; a label's first best trial is the lowest bit of the
    top set of the planes those sets add up to."""
    full = (1 << len(trials)) - 1
    best = None
    for label, base in candidates:
        columns = _columns(label, base, f.num_vars, seed, trials)
        planes: list[int] = []
        for c in f.constraints:
            held = 0
            for x, positive in c.literals:
                held |= columns[x - 1] if positive else columns[x - 1] ^ full
            _add(planes, held)
        value, maximisers = _top(planes, full)
        t = (maximisers & -maximisers).bit_length() - 1
        if best is None or value > best[0] or (value == best[0] and t < best[1]):
            best = value, t, columns
    value, t, columns = best
    return value, Assignment(tuple((column >> t) & 1 for column in columns))


def approx_max_cnf(
    f: Formula,
    epsilon,
    seed: int,
    trials: int = DEFAULT_TRIALS,
    window_exponent: int = DEFAULT_WINDOW_EXPONENT,
    exact_backend: ExactBackend | None = None,
    backend_var_limit: int = DEFAULT_VAR_LIMIT,
) -> OracleResult:
    """Best-of-trials randomized (1 - eps)-approximation for MAX-CNF; the
    result carries the route taken.

    The expectation guarantee requires eps < 1/8 and the default window
    exponent; larger eps values are accepted and simply run the same
    pipeline.  In the balanced branch each trial also scores the two
    unbalanced strategies (exact short side, all random) so the result never
    falls below either baseline.  ``backend_var_limit`` bounds every exact
    step, whichever backend solves it (the oracle when ``exact_backend`` is
    None).
    """
    try:
        _require_cnf(f)
    except ContractViolationError as exc:
        raise PreconditionError(str(exc)) from exc
    eps = parse_fraction(epsilon)
    if not 0 < eps < 1:
        raise PreconditionError(f"epsilon must be in (0, 1), got {eps}")
    if trials < 1:
        raise PreconditionError("trials must be at least 1")

    def exact(sub: Formula) -> OracleResult:
        if sub.num_vars > backend_var_limit:
            raise ResourceLimitError(
                f"exact backend limit is {backend_var_limit} variables but the "
                f"subformula has {sub.num_vars}; raise the backend limit or use "
                "fewer variables"
            )
        if exact_backend is None:
            return max_csp_bruteforce(sub, var_limit=backend_var_limit)
        return exact_backend(sub)

    partition = clause_partition(f, eps * eps, window_exponent)
    m = f.num_constraints
    if len(partition.medium) > (eps * eps * m):
        raise AssertionError("medium window holds more clause mass than allowed")

    balanced = is_balanced(partition, eps)
    selection: SparseVariableSelection | None = None
    if balanced:
        try:
            selection = select_sparse_variables(partition, eps)
        except LemmaViolationError:
            selection = None  # fall back to handling the larger side below

    candidates: list[tuple[str, dict[int, int]]] = []
    if selection is not None:
        route = "balanced"
        chosen = set(selection.variables)
        untouched_short = [
            j
            for j in partition.short
            if not any(v in chosen for v in f.constraints[j].variables)
        ]
        candidates.append(("main", _project_and_solve(f, untouched_short, exact)))
        try:
            # baseline: the unbalanced-short strategy on the same instance
            candidates.append(("short", _project_and_solve(f, partition.short, exact)))
        except ResourceLimitError:
            pass  # the baseline is optional quality, the main candidate stands
        candidates.append(("rand", {}))
    else:
        if not balanced:
            # dropped-side accounting: the side being discarded is small
            smaller = min(len(partition.short), len(partition.long))
            if Fraction(smaller) >= eps / 2 * m:
                raise AssertionError("unbalanced branch reached with both sides large")
        if len(partition.short) >= len(partition.long):
            route = "unbalanced-short"
            candidates.append(("main", _project_and_solve(f, partition.short, exact)))
        else:
            route = "unbalanced-long"
            candidates.append(("main", {}))

    # Score the candidates a bounded batch of trials at a time; the first
    # maximum in (trial, label) order wins.
    batch = max(1, _BATCH_BYTES // max(1, f.num_vars))
    best_value = -1
    for first in range(0, trials, batch):
        value, witness = _best_in_batch(f, candidates, seed, range(first, min(first + batch, trials)))
        if value > best_value:
            best_value, best_witness = value, witness
    if count_satisfied(f, best_witness) != best_value:
        raise AssertionError("batched score of the winning candidate differs from count_satisfied")
    return OracleResult(best_value, best_witness, route)
