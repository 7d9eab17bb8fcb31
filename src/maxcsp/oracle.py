"""Ground-truth engines: exhaustive Max-CSP search, GF(2) satisfiability,
and a seeded random-instance generator."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

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
# A kernel scores the constraints that read only its low _CHUNK_BITS
# variables once, on ints of 2^_CHUNK_BITS bits, and adds the others again
# in every chunk.  Narrower chunks add more constraints again in more
# chunks; wider ones score every constraint on longer ints.  On the
# oracle-compare shards (n = 16-20, 16-60 constraints, seeds 0 and 1) the
# oracle took 113, 66 and 93 ms in all at 14, 16 and 18 bits (CPython 3.11,
# a 2-vCPU x86-64 VM).
_CHUNK_BITS = 16
# 2^255 assignments are beyond any enumeration, so the oracle refuses more
# variables whatever ``var_limit`` says: a raised limit still ends in a
# ResourceLimitError on an instance of hundreds of variables.
_MAX_KERNEL_VARS = 255
_PARITY = Kind.PARITY


@dataclass(frozen=True)
class OracleResult:
    """A solver's optimum or best value, an assignment reaching it, and the
    route the solver took when it has more than one."""

    value: int
    witness: Assignment
    route: str | None = None


def max_csp_bruteforce(f: Formula, var_limit: int = DEFAULT_VAR_LIMIT) -> OracleResult:
    """Exact optimum over all 2^n assignments.

    The witness is the lexicographically first maximizer over the tuple
    (x1, ..., xn).  Variable x1 maps to the most significant index bit so
    that ascending index order is lexicographic order.  The assignments are
    scored by ``_BitCounts`` one chunk of 2^``_CHUNK_BITS`` at a time, and
    the first chunk with the largest count gives its lowest maximiser.  At
    most ``_MAX_KERNEL_VARS`` variables, whatever ``var_limit``.
    """
    n = f.num_vars
    limit = min(var_limit, _MAX_KERNEL_VARS)
    if n > limit:
        raise ResourceLimitError(
            f"instance has {n} variables, oracle limit is {limit}"
        )
    kernel = _BitCounts(f.constraints, range(1, n + 1))
    best_value = -1
    best_index = 0
    for high in range(kernel.num_chunks):
        value, maximisers = kernel.best(high)
        # ties go to the earlier chunk, and within it to the smallest index
        if value > best_value:
            best_value = value
            best_index = (high << kernel.chunk_bits) + (maximisers & -maximisers).bit_length() - 1
    bits = tuple((best_index >> (n - i)) & 1 for i in range(1, n + 1))
    return OracleResult(best_value, Assignment(bits))


def _add(planes: list[int], carry: int) -> None:
    """Add one to the counts at the indices in ``carry``, ripple-carry
    through ``planes``, plane p holding bit p of every count."""
    for p, plane in enumerate(planes):
        planes[p] = plane ^ carry
        carry &= plane
        if not carry:
            return
    if carry:
        planes.append(carry)


def _top(planes: list[int], full: int) -> tuple[int, int]:
    """The largest count in ``planes`` over the indices in ``full``, and the
    set of those indices reaching it, scanning the planes from the top."""
    value = 0
    maximisers = full
    for p in reversed(range(len(planes))):
        higher = maximisers & planes[p]
        if higher:
            maximisers = higher
            value |= 1 << p
    return value, maximisers


class _BitCounts:
    """Satisfied counts of ``constraints`` over the 2^n assignments of the n
    ``variables``, which hold every variable of the constraints.

    ``variables[p]`` is index bit n - 1 - p: the first variable is the most
    significant bit, so ascending index order is ``itertools.product``
    order.  Indices run in ``num_chunks`` chunks of 2^``chunk_bits``, with
    ``chunk_bits`` = min(n, ``_CHUNK_BITS``): the low variables are a
    chunk's index bits, and the high ones number the chunks.

    A set of a chunk's assignments is a Python int whose bit i is index i.
    A low variable's column, the indices where it is 1, is one period
    doubled up to 2^``chunk_bits`` bits.  A constraint's low literals are
    scored once: for PARITY the XOR of their sets, the odd set, and
    otherwise the "at least k" levels ``at[k] |= at[k - 1] & lit`` for k up
    to the threshold t.  With h of its high literals true in a chunk, it
    holds on ``at[max(t - h, 0)]``, or for PARITY on the odd set when
    ``(rhs ^ h) & 1`` and on its complement otherwise.  Held sets are added
    ripple-carry into bit planes; the constraints that read no high variable
    are added once into the base planes, and each chunk copies those and
    adds the rest.  Scanning a chunk's planes from the top gives its largest
    count and the set of indices reaching it.
    """

    @staticmethod
    def fits(num_vars: int) -> bool:
        """Whether ``num_vars`` variables are few enough for one chunk."""
        return num_vars <= _CHUNK_BITS

    def __init__(self, constraints: Sequence[Constraint], variables: Sequence[int]):
        n = len(variables)
        self.chunk_bits = bits = min(n, _CHUNK_BITS)
        self.num_chunks = 1 << (n - bits)
        self._full = full = (1 << (1 << bits)) - 1
        self._constraints = constraints
        # a high variable's bit in the chunk number
        self._high_bit = {x: n - bits - 1 - p for p, x in enumerate(variables[:n - bits])}
        # low variables[n - bits + q] is index bit j = bits - 1 - q: runs of 2^j
        # zeros and ones.  A Literal is a (var, positive) tuple, so it looks
        # its set up.
        self._literal: dict[tuple[int, bool], int] = {}
        for q, x in enumerate(variables[n - bits:]):
            run = 1 << (bits - 1 - q)
            column = ((1 << run) - 1) << run
            period = run << 1
            while period < 1 << bits:
                column |= column << period
                period <<= 1
            self._literal[x, True] = column
            self._literal[x, False] = column ^ full
        self._base: list[int] = []
        self._high = []  # _score of each constraint that reads a high variable
        for c in constraints:
            scored = self._score(c)
            if scored[3] | scored[4]:
                self._high.append(scored)
            else:
                parity, key, sets, _, _ = scored  # h = 0
                _add(self._base, sets[key & 1] if parity else sets[key])

    def _score(self, c: Constraint) -> tuple[bool, int, list[int], int, int]:
        """``c`` as (PARITY, rhs or t, sets, positive, negative): ``sets`` are
        its low literals' complement and odd set for PARITY and ``at`` levels
        otherwise, and ``positive`` and ``negative`` the chunk-number bits of
        its high literals of each sign."""
        literal = self._literal
        lits = c.literals
        positive = negative = 0
        if self._high_bit:
            for x, sign in lits:
                bit = self._high_bit.get(x)
                if bit is None:
                    continue
                if sign:
                    positive |= 1 << bit
                else:
                    negative |= 1 << bit
            if positive | negative:
                lits = [lit for lit in lits if lit in literal]
        if c.kind is _PARITY:
            odd = 0
            for lit in lits:
                odd ^= literal[lit]
            return True, c.parity_rhs, [odd ^ self._full, odd], positive, negative
        t = c.effective_threshold()
        if t > len(c.literals):
            return False, 0, [0], 0, 0
        # at[k]: the assignments with at least k of the low literals so far true
        at = [self._full] + [0] * t
        levels = range(t, 0, -1)
        for lit in lits:
            mask = literal[lit]
            for k in levels:
                at[k] |= at[k - 1] & mask
        return False, t, at, positive, negative

    def planes(self, high: int) -> list[int]:
        """The bit planes of chunk ``high``'s counts."""
        planes = list(self._base)
        for parity, key, sets, positive, negative in self._high:
            h = (high & positive).bit_count() + (negative & ~high).bit_count()
            _add(planes, sets[(key ^ h) & 1] if parity else sets[max(key - h, 0)])
        return planes

    def best(self, high: int) -> tuple[int, int]:
        """The largest count in chunk ``high``, and the set of its indices
        reaching it."""
        return _top(self.planes(high), self._full)

    def counts(self, high: int) -> list[int]:
        """Satisfied count of each assignment of chunk ``high``, in index order."""
        size = 1 << self.chunk_bits
        counts = [0] * size
        for p, plane in enumerate(self.planes(high)):
            # index 0 first; the bit above the top index keeps the leading zeros
            bits = bin(plane | 1 << size)[:2:-1]
            weight = 1 << p
            counts = [count + weight if bit == "1" else count for count, bit in zip(counts, bits)]
        return counts

    def first_max_satisfied_set(self) -> list[int]:
        """The maximisers' satisfied set that comes first in
        ``itertools.combinations`` order, for a kernel of one chunk.

        The maximisers' sets have one size, and the first of them is the one
        whose membership vector, constraint 0 first, is largest: the
        maximisers are narrowed, constraint by constraint, to those at which
        it holds whenever one of them does.
        """
        if self.num_chunks > 1:
            n = self.chunk_bits + len(self._high_bit)
            raise AssertionError(f"{n} variables exceed one {_CHUNK_BITS}-bit oracle chunk")
        chosen = []
        _, best = self.best(0)
        for j, c in enumerate(self._constraints):
            parity, key, sets, _, _ = self._score(c)  # h = 0
            held = best & (sets[key & 1] if parity else sets[key])
            if held:
                best = held
                chosen.append(j)
        return chosen


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
    if num_vars < 0 or num_constraints < 0:
        raise MalformedInstanceError(
            f"negative count: {num_vars} variables, {num_constraints} constraints"
        )
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
        if not math.isfinite(w):
            raise MalformedInstanceError(f"kind weight {w!r} is not finite")
        if w < 0:
            raise MalformedInstanceError("kind weights must be non-negative")
        mix[kind] = mix.get(kind, 0.0) + w
    kinds = [k for k in _KIND_ORDER if mix.get(k, 0.0) > 0]
    if not kinds:
        raise MalformedInstanceError("kind_mix selects no constraint kind")
    weights = [mix[k] for k in kinds]
    if not math.isfinite(sum(weights)):
        raise MalformedInstanceError("the kind weights' total is not finite")

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
