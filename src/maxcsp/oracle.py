"""Ground-truth engines: exhaustive Max-CSP search, GF(2) satisfiability,
and a seeded random-instance generator."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractViolationError, MalformedInstanceError, ResourceLimitError
from .model import (
    Assignment,
    Constraint,
    Formula,
    Kind,
    Literal,
    normalize_parity,
)

DEFAULT_VAR_LIMIT = 26
_CHUNK_BITS = 16
_MAX_KERNEL_VARS = 255


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: Assignment


def max_csp_bruteforce(f: Formula, var_limit: int = DEFAULT_VAR_LIMIT) -> OracleResult:
    """Exact optimum over all 2^n assignments.

    The witness is the lexicographically first maximizer over the tuple
    (x1, ..., xn).  Enumeration is vectorized in fixed-size chunks; variable
    x1 maps to the most significant index bit so that ascending chunk order
    is lexicographic order.  At most 255 variables, whatever ``var_limit``.
    """
    n = f.num_vars
    # A constraint's variables are distinct, so its true-literal count is at
    # most n; the kernel's uint8 accumulator holds it only up to 255.
    limit = min(var_limit, _MAX_KERNEL_VARS)
    if n > limit:
        raise ResourceLimitError(
            f"instance has {n} variables, oracle limit is {limit}"
        )
    kernel = _SatisfiedCounts(f.constraints, range(1, n + 1))
    best_value = -1
    best_index = 0
    for high in range(kernel.num_chunks):
        counts = kernel.counts(high)
        # argmax is the first maximiser, so ties go to the smaller index
        i = int(np.argmax(counts))
        if counts[i] > best_value:
            best_value = int(counts[i])
            best_index = (high << kernel.chunk_bits) + i
    bits = tuple((best_index >> (n - i)) & 1 for i in range(1, n + 1))
    return OracleResult(best_value, Assignment(bits))


class _SatisfiedCounts:
    """Satisfied counts of ``constraints`` over the 2^n assignments of the n
    ``variables``, which hold every variable of the constraints.

    ``variables[p]`` is index bit n - 1 - p: the first variable is the most
    significant bit, so ascending index order is ``itertools.product`` order.
    Indices run in ``num_chunks`` chunks of 2^``chunk_bits``.  Index bits
    below ``chunk_bits`` repeat in every chunk, so their arrays are built
    once; bits above are constant within a chunk and enter each constraint's
    count as a scalar.  True literals are counted in a ``uint8`` scratch
    array, so n must be at most 255.
    """

    def __init__(self, constraints: Sequence[Constraint], variables: Sequence[int]):
        n = len(variables)
        self.chunk_bits = min(n, _CHUNK_BITS)
        self.num_chunks = 1 << (n - self.chunk_bits)
        idx = np.arange(1 << self.chunk_bits)
        # per index bit below chunk_bits and sign, that literal's 0/1 value at
        # every position of a chunk
        low: dict[tuple[int, bool], np.ndarray] = {}
        for b in range(self.chunk_bits):
            bits = ((idx >> b) & 1).astype(np.uint8)
            low[b, True] = bits
            low[b, False] = bits ^ 1
        bit_of = {x: n - 1 - p for p, x in enumerate(variables)}
        self._specs = [self._spec(c, bit_of, low) for c in constraints]
        # Constraints that hold or fail whatever the assignment never reach
        # the arrays.
        self._always = sum(spec is True for spec in self._specs)
        self._varying = [spec for spec in self._specs if not isinstance(spec, bool)]
        self._acc = np.empty(1 << self.chunk_bits, dtype=np.uint8)

    @staticmethod
    def one_chunk(num_vars: int) -> bool:
        """Whether the assignments of ``num_vars`` variables fit one chunk."""
        return num_vars <= _CHUNK_BITS

    def _spec(self, c: Constraint, bit_of: Mapping[int, int], low: dict):
        """True or False for a constraint that holds or fails whatever the
        assignment, else ``(lows, highs, is_parity, rhs)``: the ``low`` arrays
        of its literals on bits below ``chunk_bits``, and the others' bits,
        counted from ``chunk_bits``, with their signs.  Every kind except
        PARITY is "at least t literals true"."""
        lows, highs = [], []
        for lit in c.literals:
            b = bit_of[lit.var]
            if b < self.chunk_bits:
                lows.append(low[b, lit.positive])
            else:
                highs.append((b - self.chunk_bits, lit.positive))
        if c.kind is Kind.PARITY:
            return lows, highs, True, c.parity_rhs
        t = c.effective_threshold()
        if t <= 0 or t > c.arity:
            return t <= 0
        return lows, highs, False, t

    def counts(self, high: int) -> np.ndarray:
        """Satisfied count of each assignment of chunk ``high``, in a new array."""
        counts = np.full(len(self._acc), self._always, dtype=np.int32)
        for spec in self._varying:
            counts += self._row(spec, high)
        return counts

    def mask(self, j: int, high: int) -> np.ndarray | bool:
        """Which assignments of chunk ``high`` satisfy constraint ``j``: a new
        boolean array, or a bool for a constant constraint."""
        spec = self._specs[j]
        return spec if isinstance(spec, bool) else self._row(spec, high)

    def _row(self, spec, high: int) -> np.ndarray:
        lows, highs, is_parity, rhs = spec
        acc = self._acc
        acc.fill(sum(((high >> s) & 1) == p for s, p in highs) if highs else 0)
        for bits in lows:
            acc += bits
        if is_parity:
            acc &= 1
            return acc == rhs
        return acc >= rhs


def parity_gauss_satisfiable(f: Formula) -> tuple[bool, Assignment | None]:
    """Decide whether all PARITY constraints can hold simultaneously.

    Gaussian elimination over GF(2) on bit-packed integer rows; pivoting
    scans variables in ascending index order.  When consistent, returns one
    satisfying assignment with every free variable set to 0.
    """
    if any(c.kind is not Kind.PARITY for c in f.constraints):
        raise ContractViolationError("parity_gauss_satisfiable expects only PARITY constraints")
    rows: list[int] = []
    rhs: list[int] = []
    for c in f.constraints:
        norm = normalize_parity(c)
        mask = 0
        for lit in norm.literals:
            mask |= 1 << (lit.var - 1)
        rows.append(mask)
        rhs.append(norm.parity_rhs)  # type: ignore[arg-type]

    pivots: list[tuple[int, int]] = []  # (column bit, row index)
    used: list[int] = []
    for col in range(f.num_vars):
        bit = 1 << col
        pivot = None
        for r in range(len(rows)):
            if r not in used and rows[r] & bit:
                pivot = r
                break
        if pivot is None:
            continue
        for r in range(len(rows)):
            if r != pivot and rows[r] & bit:
                rows[r] ^= rows[pivot]
                rhs[r] ^= rhs[pivot]
        pivots.append((col, pivot))
        used.append(pivot)
    for r in range(len(rows)):
        if rows[r] == 0 and rhs[r] == 1:
            return False, None
    bits = [0] * f.num_vars
    for col, r in pivots:
        bits[col] = rhs[r]
    return True, Assignment(tuple(bits))


_KIND_ORDER = (Kind.OR, Kind.AND, Kind.PARITY, Kind.THRESHOLD, Kind.MAJORITY)


def random_formula(
    num_vars: int,
    num_constraints: int,
    kind_mix: Mapping[Kind | str, float],
    arity_range: tuple[int, int],
    seed: int,
) -> Formula:
    """Deterministic random instance: same arguments, same formula.

    Literal variables are drawn without replacement per constraint, signs are
    uniform, thresholds are uniform in [1, arity], parity right-hand sides
    are uniform bits.
    """
    lo, hi = arity_range
    if not 0 <= lo <= hi:
        raise MalformedInstanceError(f"invalid arity range {arity_range}")
    if hi > num_vars:
        raise MalformedInstanceError(
            f"arity range max {hi} exceeds the number of variables {num_vars}"
        )
    mix: dict[Kind, float] = {}
    for k, w in kind_mix.items():
        try:
            kind = k if isinstance(k, Kind) else Kind(str(k).upper())
        except ValueError:
            raise MalformedInstanceError(f"unknown constraint kind {k!r}") from None
        if w < 0:
            raise MalformedInstanceError("kind weights must be non-negative")
        mix[kind] = mix.get(kind, 0.0) + w
    kinds = [k for k in _KIND_ORDER if mix.get(k, 0.0) > 0]
    if not kinds:
        raise MalformedInstanceError("kind_mix selects no constraint kind")
    weights = [mix[k] for k in kinds]

    rng = random.Random(seed)
    constraints = []
    for _ in range(num_constraints):
        kind = rng.choices(kinds, weights)[0]
        arity = rng.randint(lo, hi)
        variables = rng.sample(range(1, num_vars + 1), arity)
        lits = tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables)
        if kind is Kind.PARITY:
            constraints.append(Constraint(kind, lits, parity_rhs=rng.getrandbits(1)))
        elif kind is Kind.THRESHOLD:
            t = rng.randint(1, arity) if arity >= 1 else 0
            constraints.append(Constraint(kind, lits, threshold=t))
        else:
            constraints.append(Constraint(kind, lits))
    return Formula(num_vars, tuple(constraints))
