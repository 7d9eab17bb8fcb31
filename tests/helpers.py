"""Shared test utilities: independent oracles and instance generators."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Iterable

from maxcsp import (
    Assignment,
    Constraint,
    ContractViolationError,
    Formula,
    Graph,
    Kind,
    Literal,
    MccGraph,
    PreconditionError,
    VertexSplit,
    as_threshold_formula,
    count_satisfied,
    solve_forest,
)
from maxcsp.cnf_approx import _require_cnf


def naive_max_csp(f: Formula) -> tuple[int, Assignment]:
    """Independent enumerator: plain product loop, first maximizer wins."""
    best_v, best_a = -1, None
    for bits in itertools.product((0, 1), repeat=f.num_vars):
        a = Assignment(bits)
        v = count_satisfied(f, a)
        if v > best_v:
            best_v, best_a = v, a
    return best_v, best_a


@functools.cache
def _satisfied_column(num_vars: int, c: Constraint) -> tuple[int, ...]:
    # count_satisfied of c alone under each assignment, in product order
    alone = Formula(num_vars, (c,))
    return tuple(count_satisfied(alone, Assignment(bits)) for bits in itertools.product((0, 1), repeat=num_vars))


def naive_max_value(f: Formula) -> int:
    """The optimum of ``naive_max_csp`` by the same enumeration, summing
    per-constraint columns that are computed once per (variable count,
    constraint) and shared by every formula that reuses the constraint."""
    return max(map(sum, zip(*(_satisfied_column(f.num_vars, c) for c in f.constraints))), default=0)


def simplify_fix_variable(f: Formula, var: int, value: int) -> tuple[Formula, int]:
    """Eliminate ``var`` from ``f`` by fixing it to ``value``.

    Returns the residual formula (same num_vars, the variable simply no
    longer occurs) together with the number of constraints that became
    permanently satisfied and were removed.  MAJORITY constraints touched by
    the elimination are converted to explicit THRESHOLD first so their
    threshold does not re-derive from the shrunken arity.

    For every assignment ``a`` of the remaining variables:
    ``count_satisfied(f, a with var=value) == delta + count_satisfied(residual, a)``.
    """
    if not 1 <= var <= f.num_vars:
        raise ContractViolationError(f"variable {var} is not defined in the formula")
    if value not in (0, 1):
        raise ContractViolationError("value must be 0 or 1")
    out: list[Constraint] = []
    delta = 0
    for c in f.constraints:
        if var not in c.variables:
            out.append(c)
            continue
        lit = next(l for l in c.literals if l.var == var)
        lit_true = bool(value) if lit.positive else not value
        rest = tuple(l for l in c.literals if l.var != var)
        if c.kind is Kind.OR:
            if lit_true:
                delta += 1
            else:
                out.append(Constraint(Kind.OR, rest))
        elif c.kind is Kind.AND:
            if lit_true:
                out.append(Constraint(Kind.AND, rest))
            # a falsified AND is permanently unsatisfied and dropped, delta += 0
        elif c.kind is Kind.PARITY:
            rhs = c.parity_rhs ^ 1 if lit_true else c.parity_rhs
            out.append(Constraint(Kind.PARITY, rest, parity_rhs=rhs))
        else:
            t = c.effective_threshold()
            if lit_true:
                t = max(t - 1, 0)
            out.append(Constraint(Kind.THRESHOLD, rest, threshold=t))
    return Formula(f.num_vars, tuple(out)), delta


def half_guarantee_value(f: Formula) -> int:
    """Solve a forest instance whose thresholds do not exceed their arities.

    For such instances the peel satisfies at least half of all constraints;
    the returned optimum is checked against that bound.
    """
    thr = as_threshold_formula(f)
    for c in thr.constraints:
        if c.threshold > c.arity:  # type: ignore[operator]
            raise PreconditionError(
                "half guarantee requires every threshold to be at most the arity"
            )
    value = solve_forest(thr).value
    if 2 * value < thr.num_constraints:
        raise AssertionError("half guarantee violated; this is a solver bug")
    return value


def expected_unsatisfied(f: Formula, clause_indices: Iterable[int] | None = None) -> Fraction:
    """Expected number of clauses a uniform random assignment leaves false."""
    _require_cnf(f)
    indices = range(f.num_constraints) if clause_indices is None else clause_indices
    return sum(
        (Fraction(1, 2 ** f.constraints[j].arity) for j in indices), Fraction(0)
    )


def has_multicolored_clique(g: MccGraph) -> bool:
    """Direct enumeration over one vertex per part; exponential, test scale."""
    choices = range(1, g.part_size + 1)
    for pick in itertools.product(choices, repeat=g.parts):
        ok = True
        for i in range(1, g.parts + 1):
            for j in range(i + 1, g.parts + 1):
                if not g.has_edge(i, pick[i - 1], j, pick[j - 1]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def subset_search_residual_max(f: Formula) -> tuple[int, Assignment]:
    """Plain subset search of the exact residual, without the cost routing.

    Tests constraint subsets by decreasing size, lexicographically within a
    size, and returns on the first feasible one; the witness sets the
    lowest-index variables of each type class true.
    """
    from maxcsp.cover_solver import feasible_true_counts

    thr = as_threshold_formula(f)
    m = thr.num_constraints
    for size in range(m, -1, -1):
        for subset in itertools.combinations(range(m), size):
            cons = [thr.constraints[j] for j in subset]
            groups: dict[tuple[int, ...], list[int]] = {}
            for x in range(1, thr.num_vars + 1):
                vec = []
                for c in cons:
                    sign = next((1 if lit.positive else -1 for lit in c.literals if lit.var == x), 0)
                    vec.append(sign)
                if any(vec):
                    groups.setdefault(tuple(vec), []).append(x)
            selection = feasible_true_counts(thr.num_vars, cons, groups)
            if selection is not None:
                bits = [0] * thr.num_vars
                for vec, members in groups.items():
                    for x in members[: selection[vec]]:
                        bits[x - 1] = 1
                return size, Assignment(tuple(bits))
    raise AssertionError("the empty subset is always feasible")


def sigma_loop_vertex_cover(f: Formula, cover: VertexSplit) -> tuple[int, Assignment]:
    """The vertex-cover solver as one plain loop over the cover assignments.

    For each sigma in ``product`` order: set the cover variables one by one,
    evaluate the outside constraints constraint by constraint, fix every
    cover variable in the residual of the covered constraints and solve it.
    The first sigma with a strictly larger total wins.  ``cover`` must be a
    valid vertex cover of a PARITY-free formula.
    """
    from maxcsp import eval_constraint, residual_exact_max

    thr = as_threshold_formula(f)
    cover_vars = sorted(cover.variables)
    covered = sorted(cover.constraints)
    outside = [j for j in range(thr.num_constraints) if j not in cover.constraints]
    best_value, best_witness = -1, None
    for sigma in itertools.product((0, 1), repeat=len(cover_vars)):
        probe = Assignment.zeros(thr.num_vars)
        for x, v in zip(cover_vars, sigma):
            probe = probe.replace(x, v)
        fixed_count = sum(1 for j in outside if eval_constraint(thr.constraints[j], probe))
        residual = Formula(thr.num_vars, tuple(thr.constraints[j] for j in covered))
        delta = 0
        for x, v in zip(cover_vars, sigma):
            residual, d = simplify_fix_variable(residual, x, v)
            delta += d
        sub = residual_exact_max(residual)
        total = fixed_count + delta + sub.value
        witness = sub.witness
        for x, v in zip(cover_vars, sigma):
            witness = witness.replace(x, v)
        if total > best_value:
            best_value, best_witness = total, witness
    return best_value, best_witness


def sigma_loop_fvs(f: Formula, fvs: VertexSplit) -> tuple[int, Assignment]:
    """The approx route of the feedback-vertex-set scheme as one plain loop.

    For each sigma in ``product`` order: fix the F variables one by one with
    ``simplify_fix_variable``, drop F's constraints, solve the residual
    formula with ``solve_forest``, put sigma into its witness and score that
    on the whole formula.  The first sigma with a strictly larger score wins.
    ``fvs`` must be a feedback vertex set of a PARITY-free formula.
    """
    thr = as_threshold_formula(f)
    guess_vars = sorted(fvs.variables)
    kept = [j for j in range(thr.num_constraints) if j not in fvs.constraints]
    best_value, best_witness = -1, None
    for sigma in itertools.product((0, 1), repeat=len(guess_vars)):
        residual = thr
        for x, v in zip(guess_vars, sigma):
            residual, _ = simplify_fix_variable(residual, x, v)
        residual = Formula(thr.num_vars, tuple(residual.constraints[j] for j in kept))
        witness = solve_forest(residual).witness
        for x, v in zip(guess_vars, sigma):
            witness = witness.replace(x, v)
        value = count_satisfied(thr, witness)
        if value > best_value:
            best_value, best_witness = value, witness
    return best_value, best_witness


def satisfying_assignments(c: Constraint, variables: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All assignments of the given variables that satisfy the constraint."""
    from maxcsp import eval_constraint

    n = max(variables, default=0)
    out = set()
    for bits in itertools.product((0, 1), repeat=n):
        a = Assignment(bits)
        if eval_constraint(c, a):
            out.add(tuple(bits[v - 1] for v in variables))
    return out


def set_partitions(items: list):
    """All set partitions of ``items`` (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def minimum_partition_size(g: Graph) -> int:
    """Exhaustive neighborhood-diversity oracle for small graphs."""
    best = g.num_vertices if g.num_vertices else 0
    for part in set_partitions(list(range(g.num_vertices))):
        ok = True
        for cls in part:
            cls_set = set(cls)
            for v in range(g.num_vertices):
                inside = set(g.adj[v]) & cls_set
                expected = cls_set - {v}
                if inside and inside != expected:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = min(best, len(part))
    return best


def brute_min_vertex_cover(g: Graph, max_size: int) -> int | None:
    """Smallest cover size by subset enumeration, None if above max_size."""
    edges = g.edge_list()
    for size in range(0, max_size + 1):
        for subset in itertools.combinations(range(g.num_vertices), size):
            s = set(subset)
            if all(u in s or v in s for u, v in edges):
                return size
    return None


def brute_lex_min_vertex_cover(g: Graph, max_size: int) -> tuple[int, ...] | None:
    """Lexicographically smallest minimum vertex cover, by enumeration.

    Subsets come by size, then in lexicographic order, so the first one
    that touches every edge is the answer.
    """
    edges = g.edge_list()
    for size in range(0, max_size + 1):
        for subset in itertools.combinations(range(g.num_vertices), size):
            s = set(subset)
            if all(u in s or v in s for u, v in edges):
                return subset
    return None


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Twin classes by the definition, pairwise: u and v are twins when
    N(u) - {v} == N(v) - {u}; classes in order of their smallest vertex."""
    classes: list[list[int]] = []
    for v in range(g.num_vertices):
        for cls in classes:
            u = cls[0]
            if set(g.adj[u]) - {v} == set(g.adj[v]) - {u}:
                cls.append(v)
                break
        else:
            classes.append([v])
    return [tuple(cls) for cls in classes]


def brute_min_fvs(g: Graph, max_size: int) -> int | None:
    from maxcsp import is_feedback_vertex_set

    for size in range(0, max_size + 1):
        for subset in itertools.combinations(range(g.num_vertices), size):
            if is_feedback_vertex_set(g, subset):
                return size
    return None


def brute_lex_min_fvs(g: Graph, max_size: int) -> tuple[int, ...] | None:
    """Lexicographically smallest minimum feedback vertex set, by enumeration.

    Subsets come by size, then in lexicographic order, so the first one
    that leaves a forest is the answer.
    """
    edges = g.edge_list()
    for size in range(0, max_size + 1):
        for subset in itertools.combinations(range(g.num_vertices), size):
            if is_forest_by_union_find(g, subset, edges):
                return subset
    return None


def reference_fvs(g: Graph, budget: int) -> tuple[int, ...] | None:
    """The lexicographically smallest minimum FVS within ``budget``, or None.

    The branch-and-bound search without the degree-2 bypass: it branches on
    every vertex of ``find_cycle(g, chosen)``, under the same memo,
    cycle-rank bound and greedy incumbent as ``feedback_vertex_set``.
    """
    from maxcsp.graphs import TwoCore, find_cycle
    from maxcsp.structure import _cycle_rank_bound, _greedy_fvs

    root = TwoCore(g)
    greedy = _greedy_fvs(root, g.num_vertices)
    best: list = [greedy] if len(greedy) <= budget else [None]
    seen: set[frozenset[int]] = set()

    def rec(chosen: frozenset[int], core: TwoCore) -> None:
        seen.add(chosen)
        if core.is_empty:
            cand = tuple(sorted(chosen))
            if best[0] is None or (len(cand), cand) < (len(best[0]), best[0]):
                best[0] = cand
            return
        bound = len(chosen) + _cycle_rank_bound(core)
        if bound > budget or (best[0] is not None and bound > len(best[0])):
            return
        for v in sorted(find_cycle(g, chosen)):
            child = chosen | {v}
            if child not in seen:
                rec(child, core.without(v))

    rec(frozenset(), root)
    return best[0]


def is_forest_by_union_find(g: Graph, removed=(), edges=None) -> bool:
    """Forest test independent of the library: no edge closes a union-find cycle."""
    gone = set(removed)
    parent = list(range(g.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edge_list() if edges is None else edges:
        if u in gone or v in gone:
            continue
        a, b = find(u), find(v)
        if a == b:
            return False
        parent[a] = b
    return True


# Small graph zoo ------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def random_forest_graph(n: int, trees: int, rng: random.Random) -> Graph:
    """Random forest on n vertices: each vertex past the first ``trees``
    hangs off a uniformly chosen earlier vertex, under a random relabelling."""
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[v], label[rng.randrange(v)]) for v in range(trees, n)]
    return Graph(n, edges)


def relabel(g: Graph, rng: random.Random) -> Graph:
    label = list(range(g.num_vertices))
    rng.shuffle(label)
    return Graph(g.num_vertices, [(label[u], label[v]) for u, v in g.edge_list()])


def disjoint_union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edge_list()]
        offset += g.num_vertices
    return Graph(offset, edges)


def with_pendant_trees(g: Graph, extra: int, rng: random.Random) -> Graph:
    """``g`` plus ``extra`` new vertices, each hung off a random earlier vertex."""
    n = g.num_vertices
    edges = g.edge_list() + [(v, rng.randrange(v)) for v in range(n, n + extra)]
    return Graph(n + extra, edges)


def joined_by_paths(num_vertices: int, paths) -> Graph:
    """Vertices 0..num_vertices-1, and per (u, v, k) in ``paths`` a path
    from u to v through k new vertices (u == v makes a cycle through u)."""
    n, edges = num_vertices, []
    for u, v, k in paths:
        path = [u, *range(n, n + k), v]
        n += k
        edges += zip(path, path[1:])
    return Graph(n, edges)


def subdivided(g: Graph, lengths) -> Graph:
    """``g`` with its i-th edge (in ``edge_list`` order) replaced by a path
    through ``lengths[i]`` new vertices."""
    return joined_by_paths(g.num_vertices, [(u, v, k) for (u, v), k in zip(g.edge_list(), lengths)])


def theta_graph(lengths) -> Graph:
    """Two hub vertices joined by one path through ``k`` new vertices per k
    in ``lengths`` (at most one k may be 0, a direct edge)."""
    return joined_by_paths(2, [(0, 1, k) for k in lengths])


def random_graph(n: int, edge_prob: float, rng: random.Random) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob
    ]
    return Graph(n, edges)


# Random instance generators -------------------------------------------------


def random_threshold_constraint(
    rng: random.Random,
    variables: list[int],
    majority_only: bool = False,
    threshold_within_arity: bool = False,
) -> Constraint:
    lits = tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables)
    if majority_only:
        return Constraint(Kind.MAJORITY, lits)
    arity = len(lits)
    hi = arity if threshold_within_arity else arity + 1
    t = rng.randint(0, max(hi, 0))
    return Constraint(Kind.THRESHOLD, lits, threshold=t)


def random_forest_formula(
    rng: random.Random,
    max_vars: int = 20,
    max_cons: int = 12,
    majority_only: bool = False,
    threshold_within_arity: bool = False,
) -> Formula:
    """Random THRESHOLD formula whose incidence graph is a forest.

    Builds constraints one at a time, taking each next literal from a
    component (over incidence vertices) not yet linked to the constraint, so
    no cycle ever forms.
    """
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_cons)
    parent = list(range(n + m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    constraints = []
    for j in range(m):
        con_node = n + j
        arity = rng.randint(1, 3)
        chosen: list[int] = []
        candidates = list(range(1, n + 1))
        rng.shuffle(candidates)
        for var in candidates:
            if len(chosen) == arity:
                break
            if find(var - 1) != find(con_node):
                parent[find(var - 1)] = find(con_node)
                chosen.append(var)
        if not chosen:
            continue
        constraints.append(
            random_threshold_constraint(rng, chosen, majority_only, threshold_within_arity)
        )
    if not constraints:
        constraints.append(
            random_threshold_constraint(rng, [1], majority_only, threshold_within_arity)
        )
    return Formula(n, tuple(constraints))


def random_small_fvs_instance(
    rng: random.Random,
    max_vars: int = 12,
    max_cons: int = 10,
    hubs: int = 2,
    majority_only: bool = True,
) -> tuple[Formula, VertexSplit]:
    """Forest instance plus up to ``hubs`` extra constraints that close cycles.

    Deleting the hub constraint vertices restores the forest, so they witness
    a feedback vertex set of size at most ``hubs``.
    """
    base = random_forest_formula(
        rng, max_vars=max_vars, max_cons=max_cons, majority_only=majority_only
    )
    n = base.num_vars
    constraints = list(base.constraints)
    hub_positions = []
    for _ in range(hubs):
        arity = rng.randint(2, min(4, n)) if n >= 2 else 1
        variables = rng.sample(range(1, n + 1), arity)
        hub_positions.append(len(constraints))
        constraints.append(
            random_threshold_constraint(rng, variables, majority_only=majority_only)
        )
    return Formula(n, tuple(constraints)), VertexSplit(
        frozenset(), frozenset(hub_positions)
    )


def random_fvs_variable_hub_instance(
    rng: random.Random,
    max_vars: int = 10,
    max_cons: int = 8,
    majority_only: bool = True,
) -> tuple[Formula, VertexSplit]:
    """Forest instance plus one hub variable threaded through several
    constraints; deleting the hub variable vertex restores the forest."""
    base = random_forest_formula(
        rng, max_vars=max_vars - 1, max_cons=max_cons, majority_only=majority_only
    )
    hub = base.num_vars + 1
    touched = rng.sample(
        range(base.num_constraints), min(rng.randint(2, 4), base.num_constraints)
    )
    constraints = []
    for j, c in enumerate(base.constraints):
        if j in touched:
            lits = tuple(c.literals) + (Literal(hub, bool(rng.getrandbits(1))),)
            constraints.append(
                Constraint(c.kind, lits, threshold=c.threshold)
                if c.kind is Kind.THRESHOLD
                else Constraint(c.kind, lits)
            )
        else:
            constraints.append(c)
    f = Formula(hub, tuple(constraints))
    return f, VertexSplit(frozenset({hub}), frozenset())


def random_cover_instance(
    rng: random.Random,
    max_vars: int = 14,
    cover_vars: int = 2,
    cover_cons: int = 2,
    extra_cons: int = 8,
) -> tuple[Formula, VertexSplit]:
    """Instance whose incidence graph is covered by a small designed set.

    ``cover_cons`` constraints range over any variables; every other
    constraint uses only the ``cover_vars`` designated variables, so the
    designated variable and constraint vertices cover all incidence edges.
    """
    n = rng.randint(max(cover_vars, 2), max_vars)
    hub_vars = list(range(1, cover_vars + 1))
    constraints = []
    cover_positions = []
    for _ in range(cover_cons):
        arity = rng.randint(1, min(5, n))
        variables = rng.sample(range(1, n + 1), arity)
        cover_positions.append(len(constraints))
        constraints.append(random_threshold_constraint(rng, variables))
    if hub_vars:
        for _ in range(extra_cons):
            arity = rng.randint(1, len(hub_vars))
            variables = rng.sample(hub_vars, arity)
            constraints.append(random_threshold_constraint(rng, variables))
    f = Formula(n, tuple(constraints))
    return f, VertexSplit(frozenset(hub_vars), frozenset(cover_positions))


def random_cnf(
    rng: random.Random,
    num_vars: int,
    num_clauses: int,
    arities: list[int],
) -> Formula:
    clauses = []
    for _ in range(num_clauses):
        arity = rng.choice(arities)
        arity = min(arity, num_vars)
        variables = rng.sample(range(1, num_vars + 1), arity)
        clauses.append(
            Constraint(
                Kind.OR,
                tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables),
            )
        )
    return Formula(num_vars, tuple(clauses))


def random_fill(base: dict[int, int], num_vars: int, rng: random.Random) -> Assignment:
    """One cw-as candidate: ``base``'s values, and a ``getrandbits(1)`` of
    ``rng`` for each other variable in ascending order."""
    bits = []
    for var in range(1, num_vars + 1):
        if var in base:
            bits.append(base[var])
        else:
            bits.append(rng.getrandbits(1))
    return Assignment(tuple(bits))


def best_of_trials(
    f: Formula, candidates: list[tuple[str, dict[int, int]]], seed: int, trials: int
) -> tuple[int, Assignment]:
    """The cw-as candidate scoring as one plain loop: for each trial and
    label in order, fill the label's base from
    ``random.Random(f"{seed}:{trial}:{label}")`` and count its satisfied
    clauses one by one; the first strictly larger value wins."""
    best_value, best_witness = -1, None
    for trial in range(trials):
        for label, base in candidates:
            candidate = random_fill(base, f.num_vars, random.Random(f"{seed}:{trial}:{label}"))
            value = count_satisfied(f, candidate)
            if value > best_value:
                best_value, best_witness = value, candidate
    return best_value, best_witness


def fraction_clause_split(f: Formula, eps_prime: Fraction, window_exponent: int):
    """``cnf_approx.clause_partition``'s scan with every size test a
    ``Fraction`` comparison: (cutoff, short, medium, long)."""
    ratio = eps_prime ** (-window_exponent)
    sizes = [c.arity for c in f.constraints]
    for d in range(1, max(sizes, default=0) + 2):
        mass = sum(1 for s in sizes if d <= s and Fraction(s) <= ratio * d)
        if Fraction(mass) <= eps_prime * f.num_constraints:
            break
    top = ratio * d
    return (
        d,
        tuple(j for j, s in enumerate(sizes) if s < d),
        tuple(j for j, s in enumerate(sizes) if d <= s and Fraction(s) <= top),
        tuple(j for j, s in enumerate(sizes) if Fraction(s) > top),
    )


def fraction_select_sparse_variables(partition, eps: Fraction):
    """``cnf_approx.select_sparse_variables`` with every ratio test a
    ``Fraction`` comparison, as one plain greedy loop; returns
    (variables, remaining_long, audit) and raises where it raises."""
    from maxcsp import LemmaViolationError

    if not 0 < eps < 1:
        raise PreconditionError(f"epsilon must be in (0, 1), got {eps}")
    f, m = partition.formula, partition.num_clauses
    bound = eps / 2 * m
    if not (Fraction(len(partition.short)) >= bound and Fraction(len(partition.long)) >= bound):
        raise PreconditionError("selection requires a balanced short/long split")
    short_count: dict[int, int] = {}
    for j in partition.short:
        for var in f.constraints[j].variables:
            short_count[var] = short_count.get(var, 0) + 1
    live: set[int] = set(partition.long)
    live_occ: dict[int, set[int]] = {}
    for j in partition.long:
        for var in f.constraints[j].variables:
            live_occ.setdefault(var, set()).add(j)
    chosen: list[int] = []
    picked_in_clause = {j: 0 for j in partition.long}
    while Fraction(len(live)) > eps * eps * m:
        best_var, best_ratio = None, None
        for var, occ in live_occ.items():
            if var in chosen or not occ:
                continue
            ratio = Fraction(short_count.get(var, 0), len(occ))
            if best_ratio is None or ratio < best_ratio or (ratio == best_ratio and var < best_var):
                best_var, best_ratio = var, ratio
        if best_var is None or best_ratio > (eps / 4) ** 2:
            raise LemmaViolationError(
                "no sufficiently sparse variable exists; the balanced split is degenerate"
            )
        chosen.append(best_var)
        for j in sorted(live_occ[best_var]):
            if j not in live:
                continue
            picked_in_clause[j] += 1
            if Fraction(picked_in_clause[j]) * eps > 1:
                live.discard(j)
                for var in f.constraints[j].variables:
                    if var in live_occ:
                        live_occ[var].discard(j)
    touched_short = sum(
        1 for j in partition.short if any(v in chosen for v in f.constraints[j].variables)
    )
    sparse_long = sum(
        1
        for j in partition.long
        if Fraction(sum(1 for v in f.constraints[j].variables if v in chosen)) * eps <= 1
    )
    audit = {
        "short_clauses_touched": touched_short,
        "long_clauses_with_few_chosen": sparse_long,
        "chosen_size": len(chosen),
    }
    if Fraction(touched_short) > eps * m / 4:
        raise LemmaViolationError("too many short clauses touch the chosen variables")
    if Fraction(sparse_long) > eps * eps * m:
        raise LemmaViolationError("too many long clauses contain few chosen variables")
    if Fraction(len(chosen)) * eps > m:
        raise LemmaViolationError("chosen variable set is larger than m/eps")
    return tuple(chosen), tuple(sorted(live)), audit


def planted_satisfiable_cnf(
    rng: random.Random, num_vars: int, num_clauses: int, arities: list[int]
) -> Formula:
    """CNF guaranteed satisfiable: every clause holds under a hidden assignment."""
    hidden = [rng.getrandbits(1) for _ in range(num_vars)]
    clauses = []
    for _ in range(num_clauses):
        arity = min(rng.choice(arities), num_vars)
        variables = rng.sample(range(1, num_vars + 1), arity)
        lits = [Literal(v, bool(rng.getrandbits(1))) for v in variables]
        pick = rng.randrange(arity)
        v = variables[pick]
        lits[pick] = Literal(v, hidden[v - 1] == 1)
        clauses.append(Constraint(Kind.OR, tuple(lits)))
    return Formula(num_vars, tuple(clauses))


def exhaustive_forest_threshold_formulas(max_vars: int = 3, max_cons: int = 3):
    """Every THRESHOLD formula from a small grammar with forest incidence.

    Grammar: up to ``max_vars`` variables, constraint multisets of size up to
    ``max_cons`` drawn from all unit and binary threshold constraints with
    every sign pattern and every threshold in [0, arity + 1].
    """
    for n in range(1, max_vars + 1):
        pool = []
        for v in range(1, n + 1):
            for sign in (True, False):
                for t in range(0, 3):
                    pool.append(Constraint(Kind.THRESHOLD, (Literal(v, sign),), threshold=t))
        for v in range(1, n + 1):
            for w in range(v + 1, n + 1):
                for sv in (True, False):
                    for sw in (True, False):
                        for t in range(0, 4):
                            pool.append(
                                Constraint(
                                    Kind.THRESHOLD,
                                    (Literal(v, sv), Literal(w, sw)),
                                    threshold=t,
                                )
                            )
        for m in range(0, max_cons + 1):
            for combo in itertools.combinations_with_replacement(range(len(pool)), m):
                constraints = tuple(pool[i] for i in combo)
                if _incidence_is_forest(n, constraints):
                    yield Formula(n, constraints)


@functools.cache
def extended_forest_grammar() -> tuple[Formula, ...]:
    """The formulas of ``_extended_forest_grammar``, built once per run."""
    return tuple(_extended_forest_grammar())


def _extended_forest_grammar():
    """Three exhaustive grammar slices, all with forest incidence and n+m <= 8.

    Slice one: every threshold formula over <= 3 variables with <= 3
    constraints of arity <= 2 (all signs, thresholds up to arity + 1).
    Slice two: every unit-constraint formula over 5 variables with <= 3
    constraints.  Slice three: every formula over 4 variables with <= 2
    constraints of arity <= 2.
    """
    yield from exhaustive_forest_threshold_formulas(max_vars=3, max_cons=3)

    unit_pool = [
        Constraint(Kind.THRESHOLD, (Literal(v, sign),), threshold=t)
        for v in range(1, 6)
        for sign in (True, False)
        for t in range(0, 3)
    ]
    for m in range(0, 4):
        for combo in itertools.combinations_with_replacement(range(len(unit_pool)), m):
            yield Formula(5, tuple(unit_pool[i] for i in combo))

    pool4 = [
        Constraint(Kind.THRESHOLD, (Literal(v, sign),), threshold=t)
        for v in range(1, 5)
        for sign in (True, False)
        for t in range(0, 3)
    ]
    for v in range(1, 5):
        for w in range(v + 1, 5):
            for sv in (True, False):
                for sw in (True, False):
                    for t in range(0, 4):
                        pool4.append(
                            Constraint(
                                Kind.THRESHOLD,
                                (Literal(v, sv), Literal(w, sw)),
                                threshold=t,
                            )
                        )
    for m in range(0, 3):
        for combo in itertools.combinations_with_replacement(range(len(pool4)), m):
            constraints = tuple(pool4[i] for i in combo)
            if _incidence_is_forest(4, constraints):
                yield Formula(4, constraints)


def _incidence_is_forest(n: int, constraints: tuple[Constraint, ...]) -> bool:
    parent = list(range(n + len(constraints)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, c in enumerate(constraints):
        for lit in c.literals:
            a, b = find(lit.var - 1), find(n + j)
            if a == b:
                return False
            parent[a] = b
    return True
