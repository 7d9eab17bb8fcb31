"""Property tests of the forest and cover layers, the instance format, the
model's satisfied counts and the oracle's bitset kernel.

The examples are derandomized, so every run draws the same ones.
"""

import itertools
from fractions import Fraction
from unittest.mock import patch

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from maxcsp import (  # noqa: E402
    Assignment,
    Constraint,
    Formula,
    Kind,
    Literal,
    VertexSplit,
    approx_via_fvs,
    build_incidence_graph,
    count_satisfied,
    max_csp_bruteforce,
    parse_instance,
    serialize_instance,
    solve_forest,
    solve_via_vertex_cover,
    vertex_cover_number,
)
from maxcsp import oracle  # noqa: E402
from maxcsp.model import eval_constraint, satisfied_counter  # noqa: E402
from helpers import simplify_fix_variable  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=60, deadline=None, database=None)
# 60 draws of ``formulas()`` miss a PARITY constraint with an odd number of
# negations, so the counter property draws more
COUNTER_PROFILE = settings(PROFILE, max_examples=200)
# the product enumeration of up to 2^16 assignments is the cost of a kernel
# example, so the kernel property draws fewer
KERNEL_PROFILE = settings(PROFILE, max_examples=30)
KINDS = (Kind.OR, Kind.AND, Kind.MAJORITY, Kind.THRESHOLD)


@st.composite
def constraints(draw, variables: list[int], kinds=KINDS) -> Constraint:
    """One constraint over ``variables``, in order, with random signs; a
    THRESHOLD's threshold runs from 0 to one above the arity."""
    kind = draw(st.sampled_from(kinds))
    lits = tuple(Literal(v, draw(st.booleans())) for v in variables)
    if kind is Kind.THRESHOLD:
        return Constraint(kind, lits, threshold=draw(st.integers(0, len(lits) + 1)))
    if kind is Kind.PARITY:
        return Constraint(kind, lits, parity_rhs=draw(st.integers(0, 1)))
    return Constraint(kind, lits)


@st.composite
def forests(draw, max_vars: int = 8, min_cons: int = 0, max_cons: int = 8) -> Formula:
    """A PARITY-free formula whose incidence graph is a forest.

    Each constraint takes its variables from distinct components of the
    incidence graph built so far, so no cycle closes.
    """
    n = draw(st.integers(1, max_vars))
    m = draw(st.integers(min_cons, max_cons))
    component = list(range(n + 1))  # by variable; constraints join components

    def find(x: int) -> int:
        while component[x] != x:
            x = component[x]
        return x

    out = []
    for _ in range(m):
        wanted = draw(st.lists(st.integers(1, n), max_size=3, unique=True))
        chosen: list[int] = []
        for v in wanted:
            if all(find(v) != find(u) for u in chosen):
                chosen.append(v)
        for v in chosen[1:]:
            component[find(v)] = find(chosen[0])
        out.append(draw(constraints(chosen)))
    return Formula(n, tuple(out))


@st.composite
def fvs_instances(draw) -> tuple[Formula, VertexSplit]:
    """A forest plus feedback vertices: hub constraints over any variables
    and, optionally, a new hub variable added to some of the constraints.
    The forest has at least four constraints, so that with one feedback
    vertex and eps = 9/10 the scheme takes its approx route."""
    base = draw(forests(max_vars=7, min_cons=4, max_cons=10))
    n = base.num_vars
    cons = list(base.constraints)
    hub_cons = []
    for _ in range(draw(st.integers(0, 2))):
        scope = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
        hub_cons.append(len(cons))
        cons.append(draw(constraints(scope)))
    hub_vars = frozenset()
    if draw(st.booleans()) and cons:
        n += 1
        hub_vars = frozenset({n})
        touched = draw(st.lists(st.integers(0, len(cons) - 1), min_size=1, max_size=4, unique=True))
        for j in touched:
            c = cons[j]
            lits = c.literals + (Literal(n, draw(st.booleans())),)
            cons[j] = Constraint(c.kind, lits, threshold=c.threshold)
    return Formula(n, tuple(cons)), VertexSplit(hub_vars, frozenset(hub_cons))


@st.composite
def cover_instances(draw) -> tuple[Formula, VertexSplit]:
    """A PARITY-free formula with a planted incidence vertex cover: a few
    cover variables, at most two covered constraints over any variables, and
    every other constraint over cover variables only, in shuffled order."""
    n = draw(st.integers(1, 8))
    cover_vars = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
    covered = [
        draw(constraints(draw(st.lists(st.integers(1, n), max_size=4, unique=True))))
        for _ in range(draw(st.integers(0, 2)))
    ]
    outside = [
        draw(constraints(draw(st.lists(st.sampled_from(cover_vars), max_size=len(cover_vars), unique=True))))
        for _ in range(draw(st.integers(0, 6)))
    ]
    order = draw(st.permutations(range(len(covered) + len(outside))))
    cons = [(covered + outside)[i] for i in order]
    positions = frozenset(j for j, i in enumerate(order) if i < len(covered))
    return Formula(n, tuple(cons)), VertexSplit(frozenset(cover_vars), positions)


@st.composite
def formulas(draw) -> Formula:
    """Any formula of every kind, empty literal lists included."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 6))
    out = []
    for _ in range(m):
        scope = draw(st.lists(st.integers(1, n), max_size=n, unique=True)) if n else []
        out.append(draw(constraints(scope, KINDS + (Kind.PARITY,))))
    return Formula(n, tuple(out))


@PROFILE
@given(forests())
def test_forest_solver_equals_the_oracle(f):
    res = solve_forest(f)
    assert res.value == max_csp_bruteforce(f).value
    assert count_satisfied(f, res.witness) == res.value


@PROFILE
@given(fvs_instances(), st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)]))
def test_fvs_scheme_meets_its_bound(instance, eps):
    f, fvs = instance
    res = approx_via_fvs(f, fvs, eps)
    assert Fraction(res.value) >= (1 - eps) * max_csp_bruteforce(f).value
    assert count_satisfied(f, res.witness) == res.value


@PROFILE
@given(cover_instances())
def test_cover_solver_equals_the_oracle(instance):
    # with the planted cover and with the minimum cover the search finds
    f, planted = instance
    inc = build_incidence_graph(f)
    found = inc.split(vertex_cover_number(inc.graph).witness)
    opt = max_csp_bruteforce(f).value
    for cover in (planted, found):
        res = solve_via_vertex_cover(f, cover)
        assert res.value == opt, (f, cover)
        assert count_satisfied(f, res.witness) == res.value


@st.composite
def kernel_formulas(draw) -> Formula:
    """0 to 15 variables and constraints of every kind over at most four of
    them: empty ones, thresholds from 0 to one above the arity, and repeats
    of an earlier constraint.  The kernel property adds a 16-variable
    example, the kernel's most."""
    n = draw(st.integers(0, 15))
    out: list[Constraint] = []
    for _ in range(draw(st.integers(0, 6))):
        if out and draw(st.integers(0, 3)) == 0:
            out.append(draw(st.sampled_from(out)))
            continue
        scope = draw(st.lists(st.integers(1, n), max_size=4, unique=True)) if n else []
        out.append(draw(constraints(scope, KINDS + (Kind.PARITY,))))
    return Formula(n, tuple(out))


SIXTEEN = Formula(
    16,
    (
        Constraint(Kind.OR, (Literal(1), Literal(16, False))),
        Constraint(Kind.OR, (Literal(1), Literal(16, False))),
        Constraint(Kind.THRESHOLD, (Literal(8),), threshold=2),
        Constraint(Kind.PARITY, (Literal(2), Literal(15), Literal(16)), parity_rhs=0),
        Constraint(Kind.MAJORITY, (Literal(1, False), Literal(9), Literal(16))),
        Constraint(Kind.AND, (Literal(1), Literal(16, False))),
    ),
)


@KERNEL_PROFILE
@given(kernel_formulas(), st.integers(2, 4))
@example(Formula(0, ()), 2)
@example(Formula(0, (Constraint(Kind.AND, ()), Constraint(Kind.PARITY, (), parity_rhs=1))), 3)
@example(SIXTEEN, 4)
def test_bitset_kernel_equals_the_product_enumeration(f, chunk_bits):
    # the value, the first maximiser in product order, and the maximisers'
    # satisfied set that comes first in combinations order; then the counts
    # and the oracle's answer in one chunk and in chunks of ``chunk_bits``
    assignments = [Assignment(bits) for bits in itertools.product((0, 1), repeat=f.num_vars)]
    sets = [[j for j, c in enumerate(f.constraints) if eval_constraint(c, a)] for a in assignments]
    value = max(map(len, sets))
    first = next(i for i, s in enumerate(sets) if len(s) == value)
    kernel = oracle._BitCounts(f.constraints, range(1, f.num_vars + 1))
    best, maximisers = kernel.best(0)
    assert (best, (maximisers & -maximisers).bit_length() - 1) == (value, first)
    assert kernel.first_max_satisfied_set() == min(s for s in sets if len(s) == value)
    for bits in (oracle._CHUNK_BITS, chunk_bits):
        with patch.object(oracle, "_CHUNK_BITS", bits):
            kernel = oracle._BitCounts(f.constraints, range(1, f.num_vars + 1))
            assert [n for high in range(kernel.num_chunks) for n in kernel.counts(high)] == list(map(len, sets))
            res = max_csp_bruteforce(f)
        assert (res.value, res.witness) == (value, assignments[first])


@PROFILE
@given(formulas())
def test_serialize_then_parse_is_the_identity(f):
    assert parse_instance(serialize_instance(f)) == f


def _assignments(n: int):
    # every total assignment of n variables, with its int: bit i − 1 is variable i
    for x in range(1 << n):
        yield x, Assignment(tuple(x >> i & 1 for i in range(n)))


@COUNTER_PROFILE
@given(formulas())
def test_satisfied_counter_equals_count_satisfied(f):
    count = satisfied_counter(f)
    for x, a in _assignments(f.num_vars):
        assert count(x) == count_satisfied(f, a), (f, x)


@PROFILE
@given(formulas().filter(lambda f: f.num_vars > 0), st.data())
def test_fixing_a_variable_splits_off_its_delta(f, data):
    var = data.draw(st.integers(1, f.num_vars))
    value = data.draw(st.integers(0, 1))
    residual, delta = simplify_fix_variable(f, var, value)
    assert residual.num_vars == f.num_vars
    assert all(var not in c.variables for c in residual.constraints)
    for _, a in _assignments(f.num_vars):
        if a.value(var) == value:
            assert count_satisfied(f, a) == delta + count_satisfied(residual, a), (f, var, value)
