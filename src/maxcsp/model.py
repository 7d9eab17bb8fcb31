"""Core instance model: literals, constraints, formulas, assignments.

Variables are 1-based indices; names are an I/O concern.  All types are
immutable after construction and every operation is a pure function, so
instances can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from .errors import ContractViolationError, MalformedInstanceError


class Kind(str, Enum):
    OR = "OR"
    AND = "AND"
    PARITY = "PARITY"
    THRESHOLD = "THRESHOLD"
    MAJORITY = "MAJORITY"


class Literal(NamedTuple):
    var: int
    positive: bool = True

    @staticmethod
    def from_int(value: int) -> "Literal":
        if value == 0:
            raise MalformedInstanceError("literal 0 does not reference a variable")
        return Literal(abs(value), value > 0)

    def to_int(self) -> int:
        return self.var if self.positive else -self.var

    def negated(self) -> "Literal":
        return Literal(self.var, not self.positive)


def _as_literals(values: Iterable[int | Literal]) -> tuple[Literal, ...]:
    out = []
    for v in values:
        out.append(v if isinstance(v, Literal) else Literal.from_int(v))
    return tuple(out)


@dataclass(frozen=True)
class Constraint:
    """One typed constraint over an ordered list of literals.

    ``parity_rhs`` is meaningful only for PARITY and ``threshold`` only for
    THRESHOLD.  A MAJORITY constraint carries no explicit threshold; it is
    implied as ceil(arity / 2).  A THRESHOLD with threshold larger than the
    arity is representable and always false (solvers create such constraints
    transiently), and a threshold of 0 is always true.
    """

    kind: Kind
    literals: tuple[Literal, ...]
    parity_rhs: int | None = None
    threshold: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "literals", _as_literals(self.literals))
        seen = set()
        for lit in self.literals:
            if lit.var < 1:
                raise MalformedInstanceError(f"variable index {lit.var} out of range")
            if lit.var in seen:
                raise MalformedInstanceError(
                    f"variable {lit.var} occurs more than once in one constraint"
                )
            seen.add(lit.var)
        if self.kind is Kind.PARITY:
            if self.parity_rhs not in (0, 1):
                raise MalformedInstanceError("PARITY constraint needs parity_rhs in {0,1}")
        elif self.parity_rhs is not None:
            raise MalformedInstanceError(f"{self.kind.value} constraint cannot carry parity_rhs")
        if self.kind is Kind.THRESHOLD:
            if self.threshold is None or self.threshold < 0:
                raise MalformedInstanceError("THRESHOLD constraint needs a threshold >= 0")
        elif self.threshold is not None:
            raise MalformedInstanceError(f"{self.kind.value} constraint cannot carry a threshold")

    @property
    def arity(self) -> int:
        return len(self.literals)

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(lit.var for lit in self.literals)

    def effective_threshold(self) -> int:
        """Number of true literals required: every kind except PARITY is
        "at least t literals true"."""
        if self.kind is Kind.THRESHOLD:
            return self.threshold  # type: ignore[return-value]
        if self.kind is Kind.OR:
            return 1
        if self.kind is Kind.AND:
            return self.arity
        if self.kind is Kind.MAJORITY:
            return (self.arity + 1) // 2
        raise ContractViolationError(f"{self.kind.value} constraint has no threshold")


def or_clause(*lits: int | Literal) -> Constraint:
    return Constraint(Kind.OR, _as_literals(lits))


def and_term(*lits: int | Literal) -> Constraint:
    return Constraint(Kind.AND, _as_literals(lits))


def parity(rhs: int, *lits: int | Literal) -> Constraint:
    return Constraint(Kind.PARITY, _as_literals(lits), parity_rhs=rhs)


def at_least(t: int, *lits: int | Literal) -> Constraint:
    return Constraint(Kind.THRESHOLD, _as_literals(lits), threshold=t)


def majority(*lits: int | Literal) -> Constraint:
    return Constraint(Kind.MAJORITY, _as_literals(lits))


@dataclass(frozen=True)
class Formula:
    """A multiset of constraints over variables 1..num_vars.

    Duplicate constraints are permitted; the Max objective counts
    multiplicity.
    """

    num_vars: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.num_vars < 0:
            raise MalformedInstanceError("num_vars must be non-negative")
        for c in self.constraints:
            for lit in c.literals:
                if lit.var > self.num_vars:
                    raise MalformedInstanceError(
                        f"literal references variable {lit.var} but formula has "
                        f"{self.num_vars} variables"
                    )

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def occ(self) -> int:
        """Total number of literal occurrences (sum of arities)."""
        return sum(c.arity for c in self.constraints)


@dataclass(frozen=True, order=True)
class Assignment:
    """Total 0/1 assignment, bit i (0-based) holds the value of variable i+1."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise MalformedInstanceError("assignment bits must be 0 or 1")

    @staticmethod
    def zeros(num_vars: int) -> "Assignment":
        return Assignment((0,) * num_vars)

    def __len__(self) -> int:
        return len(self.bits)

    def value(self, var: int) -> int:
        if not 1 <= var <= len(self.bits):
            raise MalformedInstanceError(f"variable {var} is not defined by this assignment")
        return self.bits[var - 1]

    def replace(self, var: int, value: int) -> "Assignment":
        bits = list(self.bits)
        bits[var - 1] = value
        return Assignment(tuple(bits))

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)


def eval_constraint(c: Constraint, a: Assignment) -> bool:
    """Decide whether assignment ``a`` satisfies constraint ``c``."""
    for lit in c.literals:
        if lit.var > len(a.bits):
            raise MalformedInstanceError(f"variable {lit.var} is not defined by this assignment")
    return _holds(c, a.bits)


def _holds(c: Constraint, bits: tuple[int, ...]) -> bool:
    # PARITY tests the parity of the true literals; every other kind is
    # "at least t literals true".  ``bits`` must define every variable of c.
    true_count = 0
    for var, positive in c.literals:
        if bits[var - 1] == positive:
            true_count += 1
    kind = c.kind
    if kind is Kind.THRESHOLD:
        return true_count >= c.threshold  # type: ignore[operator]
    if kind is Kind.PARITY:
        return (true_count & 1) == c.parity_rhs
    return true_count >= c.effective_threshold()


def count_satisfied(f: Formula, a: Assignment) -> int:
    """Number of constraints of ``f`` satisfied by the total assignment ``a``."""
    if len(a) != f.num_vars:
        raise MalformedInstanceError(
            f"assignment covers {len(a)} variables, formula has {f.num_vars}"
        )
    bits = a.bits
    return sum(1 for c in f.constraints if _holds(c, bits))


def satisfied_counter(f: Formula) -> Callable[[int], int]:
    """``count(x)``: the number of constraints of ``f`` that the assignment
    ``x`` satisfies, where bit i − 1 of the int ``x`` is variable i.

    Each constraint's positive and negative literal sets become bitsets
    once, so one count costs two popcounts per constraint.  A constraint
    holds when its true literals, (x & pos) + |neg| − (x & neg) counted in
    bits, reach its threshold; a PARITY constraint when the parity of
    x & (pos | neg) plus |neg| is its right-hand side.
    """
    geq: list[tuple[int, int, int]] = []  # pos, neg, threshold less |neg|
    odd: list[tuple[int, int]] = []  # pos | neg, the parity that holds
    for c in f.constraints:
        pos = sum(1 << (var - 1) for var, positive in c.literals if positive)
        neg = sum(1 << (var - 1) for var, positive in c.literals if not positive)
        if c.kind is Kind.PARITY:
            odd.append((pos | neg, c.parity_rhs ^ (neg.bit_count() & 1)))  # type: ignore[operator]
        else:
            geq.append((pos, neg, c.effective_threshold() - neg.bit_count()))

    def count(x: int) -> int:
        return sum((x & pos).bit_count() - (x & neg).bit_count() >= need for pos, neg, need in geq) + sum(
            (x & lits).bit_count() & 1 == rhs for lits, rhs in odd
        )

    return count


def normalize_parity(c: Constraint) -> Constraint:
    """Rewrite a PARITY constraint to use only positive literals.

    Each negated literal contributes a constant 1 on the left side, so the
    right-hand side flips once per negation.  The satisfying assignments are
    unchanged.
    """
    if c.kind is not Kind.PARITY:
        raise ContractViolationError("normalize_parity expects a PARITY constraint")
    negs = sum(1 for lit in c.literals if not lit.positive)
    rhs = c.parity_rhs ^ (negs & 1)  # type: ignore[operator]
    return Constraint(
        Kind.PARITY,
        tuple(Literal(lit.var, True) for lit in c.literals),
        parity_rhs=rhs,
    )


def as_threshold(c: Constraint) -> Constraint:
    """Express an OR/AND/MAJORITY/THRESHOLD constraint as an explicit THRESHOLD."""
    if c.kind is Kind.THRESHOLD:
        return c
    if c.kind is Kind.PARITY:
        raise ContractViolationError(f"{c.kind.value} constraint has no threshold form")
    return Constraint(Kind.THRESHOLD, c.literals, threshold=c.effective_threshold())


def as_threshold_formula(f: Formula) -> Formula:
    return Formula(f.num_vars, tuple(as_threshold(c) for c in f.constraints))


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
