"""Hardness-construction instance generators with structural audits in mind.

Each generator is a pure function from a multicolored k-partite graph (or an
input formula) to an instance whose satisfiability or optimum encodes the
source problem, plus an index of where each gadget landed so tests and tools
can audit the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ContractViolationError, MalformedInstanceError
from .model import (
    Constraint,
    Formula,
    Kind,
    Literal,
)

Edge = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class MccGraph:
    """k-partite graph with equal part sizes; edges cross distinct parts.

    Edges are stored normalized with the lower part first.  Vertices are
    (part, index) with both 1-based.
    """

    parts: int
    part_size: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.parts < 1 or self.part_size < 1:
            raise MalformedInstanceError("parts and part_size must be positive")
        normalized = set()
        for (i, u), (j, v) in self.edges:
            if i == j:
                raise MalformedInstanceError(f"edge inside part {i}")
            if not (1 <= i <= self.parts and 1 <= j <= self.parts):
                raise MalformedInstanceError(f"part index out of range in edge (({i},{u}),({j},{v}))")
            if not (1 <= u <= self.part_size and 1 <= v <= self.part_size):
                raise MalformedInstanceError(f"vertex index out of range in edge (({i},{u}),({j},{v}))")
            if i > j:
                i, u, j, v = j, v, i, u
            normalized.add(((i, u), (j, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    def has_edge(self, i: int, u: int, j: int, v: int) -> bool:
        if i > j:
            i, u, j, v = j, v, i, u
        return ((i, u), (j, v)) in self.edges

    def edges_between(self, i: int, j: int) -> list[tuple[int, int]]:
        """Sorted (u, v) pairs with u in part i and v in part j, i < j."""
        if not i < j:
            raise AssertionError(f"edges_between needs i < j, got {i} and {j}")
        return sorted((u, v) for (a, u), (b, v) in self.edges if a == i and b == j)


def complete_mcc(parts: int, part_size: int) -> MccGraph:
    edges = {
        ((i, u), (j, v))
        for i in range(1, parts + 1)
        for j in range(i + 1, parts + 1)
        for u in range(1, part_size + 1)
        for v in range(1, part_size + 1)
    }
    return MccGraph(parts, part_size, frozenset(edges))


def edgeless_mcc(parts: int, part_size: int) -> MccGraph:
    return MccGraph(parts, part_size, frozenset())


def random_mcc(parts: int, part_size: int, edge_prob: float, seed: int) -> MccGraph:
    if not 0 <= edge_prob <= 1:
        raise MalformedInstanceError(f"edge probability must be in [0, 1], got {edge_prob}")
    rng = random.Random(seed)
    edges = set()
    for i in range(1, parts + 1):
        for j in range(i + 1, parts + 1):
            for u in range(1, part_size + 1):
                for v in range(1, part_size + 1):
                    if rng.random() < edge_prob:
                        edges.add(((i, u), (j, v)))
    return MccGraph(parts, part_size, frozenset(edges))


@dataclass
class GadgetIndex:
    """Where each named gadget landed: variable ids and constraint positions."""

    variables: dict[str, tuple[int, ...]] = field(default_factory=dict)
    constraints: dict[str, tuple[int, ...]] = field(default_factory=dict)
    meta: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CnfReduction:
    formula: Formula
    index: GadgetIndex


@dataclass(frozen=True)
class DnfReduction:
    formula: Formula
    index: GadgetIndex
    target: int
    epsilon: Fraction


@dataclass(frozen=True)
class ThresholdReduction:
    formula: Formula
    index: GadgetIndex
    fvs_constraints: tuple[int, ...]


def _code(vertex: int, bits: int) -> tuple[int, ...]:
    """Binary code of vertex-1, most significant bit first."""
    value = vertex - 1
    return tuple((value >> (bits - 1 - p)) & 1 for p in range(bits))


def _code_index(g: MccGraph) -> tuple[GadgetIndex, int, int]:
    """The index of a binary-code encoding with each part's code bits, the
    part size padded to a power of two, and the code bits per part."""
    bits = (g.part_size - 1).bit_length()
    padded = 1 << bits
    index = GadgetIndex(meta={"padded_part_size": padded, "bits_per_part": bits})
    for i in range(1, g.parts + 1):
        index.variables[f"part{i}/bits"] = tuple(range((i - 1) * bits + 1, i * bits + 1))
    return index, padded, bits


def _pair_literals(bits: int, i: int, u: int, j: int, v: int) -> tuple[Literal, ...]:
    """Part i's code bits of vertex u, then part j's of vertex v, each literal
    positive where the code bit is 1."""
    return tuple(
        Literal((part - 1) * bits + p + 1, bit == 1)
        for part, vertex in ((i, u), (j, v))
        for p, bit in enumerate(_code(vertex, bits))
    )


def mcc_to_cnf(g: MccGraph) -> CnfReduction:
    """One OR clause per cross-part non-edge, excluding exactly that vertex pair.

    Parts are padded with isolated vertices to the next power of two so every
    vertex has a fixed-width binary code; a padded vertex participates only
    in non-edges, so choosing it violates a clause.  The output is
    satisfiable iff the graph has a multicolored clique.
    """
    index, padded, bits = _code_index(g)
    clauses: list[Constraint] = []
    for i in range(1, g.parts + 1):
        for j in range(i + 1, g.parts + 1):
            start = len(clauses)
            for u in range(1, padded + 1):
                for v in range(1, padded + 1):
                    if not g.has_edge(i, u, j, v):
                        clauses.append(Constraint(Kind.OR, _pair_literals(bits, i, u, j, v)))
            index.constraints[f"pair{i}.{j}/exclusions"] = tuple(range(start, len(clauses)))
    return CnfReduction(Formula(g.parts * bits, tuple(clauses)), index)


def mcc_to_dnf(g: MccGraph) -> DnfReduction:
    """One AND term per edge, satisfied by exactly that vertex pair.

    At most one term per part pair holds under any assignment, so the
    optimum is C(k,2) iff the graph has a multicolored clique; the bundled
    epsilon = 1/k^2 makes (1-epsilon)*C(k,2) > C(k,2)-1.
    """
    index, _, bits = _code_index(g)
    terms: list[Constraint] = []
    for i in range(1, g.parts + 1):
        for j in range(i + 1, g.parts + 1):
            start = len(terms)
            for u, v in g.edges_between(i, j):
                terms.append(Constraint(Kind.AND, _pair_literals(bits, i, u, j, v)))
            index.constraints[f"pair{i}.{j}/terms"] = tuple(range(start, len(terms)))
    target = g.parts * (g.parts - 1) // 2
    return DnfReduction(
        Formula(g.parts * bits, tuple(terms)), index, target, Fraction(1, g.parts * g.parts)
    )


def _at_least(t: int, lits: list[Literal]) -> Constraint:
    return Constraint(Kind.THRESHOLD, tuple(lits), threshold=t)


def _at_most(t: int, lits: list[Literal]) -> Constraint:
    # At most t of s literals true means at least s-t of the negations hold.
    return Constraint(
        Kind.THRESHOLD,
        tuple(l.negated() for l in lits),
        threshold=max(len(lits) - t, 0),
    )


def mcc_to_threshold(g: MccGraph) -> ThresholdReduction:
    """Vertex/edge selection chains with counting constraints.

    Each part carries one variable chain per vertex (chain length equals the
    vertex index) whose links force truth to propagate from the last variable
    to the first; per-part at-most-one/at-least-one constraints select
    exactly one chain.  Each part pair carries one chain per edge with length
    complementary to the part-two endpoint, link clauses tying an edge chain
    to its part-one endpoint, and a counting pair forcing exactly
    part_size + 1 true variables, which aligns the selected edge with the
    selected part-two vertex.  The instance is satisfiable iff the graph has
    a multicolored clique, and deleting the selection and counting
    constraints leaves subdivided stars, so they witness a feedback vertex
    set of size 2k + 4*C(k,2).
    """
    n = g.part_size
    index = GadgetIndex()
    variables_used = 0
    constraints: list[Constraint] = []

    def new_chain(length: int, key: str) -> tuple[int, ...]:
        nonlocal variables_used
        chain = tuple(range(variables_used + 1, variables_used + length + 1))
        variables_used += length
        index.variables[key] = chain
        return chain

    def add(key: str, cons: list[Constraint]) -> tuple[int, ...]:
        positions = tuple(range(len(constraints), len(constraints) + len(cons)))
        constraints.extend(cons)
        index.constraints[key] = positions
        return positions

    fvs: list[int] = []
    part_chains: dict[int, list[tuple[int, ...]]] = {}
    for i in range(1, g.parts + 1):
        chains = []
        for vertex in range(1, n + 1):
            chain = new_chain(vertex, f"part{i}/chain{vertex}")
            chains.append(chain)
            links = [
                Constraint(Kind.OR, (Literal(y), Literal(z, False)))
                for y, z in zip(chain, chain[1:])
            ]
            add(f"part{i}/chain{vertex}/links", links)
        part_chains[i] = chains
        firsts = [Literal(chain[0]) for chain in chains]
        lasts = [Literal(chain[-1]) for chain in chains]
        fvs.extend(add(f"part{i}/at-most-one", [_at_most(1, firsts)]))
        fvs.extend(add(f"part{i}/at-least-one", [_at_least(1, lasts)]))

    for i in range(1, g.parts + 1):
        for j in range(i + 1, g.parts + 1):
            pair = f"pair{i}.{j}"
            edge_chains: dict[tuple[int, int], tuple[int, ...]] = {}
            for u, v in g.edges_between(i, j):
                chain = new_chain(n + 1 - v, f"{pair}/chain{u}.{v}")
                edge_chains[(u, v)] = chain
                links = [
                    Constraint(Kind.OR, (Literal(y), Literal(z, False)))
                    for y, z in zip(chain, chain[1:])
                ]
                add(f"{pair}/chain{u}.{v}/links", links)
            firsts = [Literal(chain[0]) for chain in edge_chains.values()]
            lasts = [Literal(chain[-1]) for chain in edge_chains.values()]
            fvs.extend(add(f"{pair}/at-most-one", [_at_most(1, firsts)]))
            fvs.extend(add(f"{pair}/at-least-one", [_at_least(1, lasts)]))
            for (u, v), chain in edge_chains.items():
                first_of_u = part_chains[i][u - 1][0]
                link = Constraint(Kind.OR, (Literal(first_of_u), Literal(chain[0], False)))
                add(f"{pair}/edge{u}.{v}/link", [link])
            counted = [
                Literal(x) for chain in edge_chains.values() for x in chain
            ] + [Literal(x) for chain in part_chains[j] for x in chain]
            fvs.extend(add(f"{pair}/count-lower", [_at_least(n + 1, counted)]))
            fvs.extend(add(f"{pair}/count-upper", [_at_most(n + 1, counted)]))

    formula = Formula(variables_used, tuple(constraints))
    return ThresholdReduction(formula, index, tuple(fvs))


def threshold_to_majority(f: Formula) -> Formula:
    """Rewrite THRESHOLD constraints as MAJORITY by padding with forced dummies.

    Odd-arity constraints first gain one dummy forced false to even the
    arity.  A constraint at threshold arity/2 + d then gains 2|d| dummies,
    all forced false when d > 0 and all forced true when d < 0, landing the
    threshold exactly at half the new arity.  The result is equisatisfiable
    and the incidence feedback vertex set is unchanged, because every new
    vertex hangs off the graph as a pendant path.
    """
    if any(c.kind is not Kind.THRESHOLD for c in f.constraints):
        raise ContractViolationError("threshold_to_majority expects only THRESHOLD constraints")
    next_var = f.num_vars
    converted: list[Constraint] = []
    units: list[Constraint] = []

    def fresh() -> int:
        nonlocal next_var
        next_var += 1
        return next_var

    for c in f.constraints:
        lits = list(c.literals)
        t = c.threshold  # type: ignore[assignment]
        if len(lits) % 2 == 1:
            y = fresh()
            lits.append(Literal(y))
            units.append(Constraint(Kind.MAJORITY, (Literal(y, False),)))
        d = t - len(lits) // 2
        for _ in range(2 * abs(d)):
            y = fresh()
            lits.append(Literal(y))
            # d > 0: the dummy must stay false, so the unit is (not y);
            # d < 0: the dummy must stay true, so the unit is (y).
            units.append(Constraint(Kind.MAJORITY, (Literal(y, d < 0),)))
        converted.append(Constraint(Kind.MAJORITY, tuple(lits)))
    return Formula(next_var, tuple(converted) + tuple(units))


def cnf_to_majority(f: Formula) -> Formula:
    """Rewrite OR clauses as MAJORITY by sharing forced-true dummies per module.

    Clauses are grouped by their variable set; a group of arity a gains a-1
    fresh dummies, each forced true by a unit, appended positively to every
    clause of the group, so a majority among the 2a-1 literals needs at
    least one original literal.  The dummies form at most one new module per
    old clause module, so the incidence neighborhood diversity at most
    doubles.
    """
    if any(c.kind is not Kind.OR for c in f.constraints):
        raise ContractViolationError("cnf_to_majority expects only OR constraints")
    next_var = f.num_vars
    module_dummies: dict[frozenset[int], tuple[int, ...]] = {}
    units: list[Constraint] = []
    for c in f.constraints:
        key = frozenset(c.variables)
        if key in module_dummies:
            continue
        count = len(key) - 1 if len(key) >= 1 else 1
        dummies = tuple(range(next_var + 1, next_var + count + 1))
        next_var += count
        module_dummies[key] = dummies
        for z in dummies:
            units.append(Constraint(Kind.MAJORITY, (Literal(z),)))
    converted: list[Constraint] = []
    for c in f.constraints:
        key = frozenset(c.variables)
        dummies = module_dummies[key]
        if len(key) == 0:
            # An empty clause is always false; a single dummy forced true via
            # its unit makes the negated-literal majority constraint
            # unsatisfiable together with that unit.
            converted.append(Constraint(Kind.MAJORITY, (Literal(dummies[0], False),)))
            continue
        lits = tuple(c.literals) + tuple(Literal(z) for z in dummies)
        converted.append(Constraint(Kind.MAJORITY, lits))
    return Formula(next_var, tuple(converted) + tuple(units))
