"""Ground-truth engines: exhaustive Max-CSP search, GF(2) satisfiability,
and a seeded random-instance generator."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ContractViolationError, MalformedInstanceError, ResourceLimitError
from .model import (
    Assignment,
    Constraint,
    Formula,
    Kind,
    Literal,
    normalize_parity,
)

# numpy is imported by each function that uses it, so that importing the
# package, and the commands that score at most 2^_CHUNK_BITS assignments at
# once (with _BitCounts) or none, do not load it.
if TYPE_CHECKING:
    import numpy as np

DEFAULT_VAR_LIMIT = 26
# _BitCounts scores up to _CHUNK_BITS variables, and _SatisfiedCounts more in
# chunks of 2^_CHUNK_BITS assignments.  At 18 variables and 40 constraints
# the bitset kernel takes about 1.4 ms against numpy's 0.7 ms (CPython 3.11,
# numpy 2.4, one x86-64 core), and at 16 about 0.45 against 0.72 ms.
_CHUNK_BITS = 16
_BLOCK_BYTES = 1 << 19
_MIN_BLOCK_BITS = 8
# A width group costs about 5 us of numpy calls per block (its comparisons,
# its sum and the tiled add into the next wider group's), the time of about
# 2^15 to 2^16 comparisons and sums at about 0.1 ns each (numpy 2.4, one
# x86-64 core); a group merges into the next wider one below 2^15 saved cells.
_MERGE_CELLS = 1 << 15
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
    that ascending index order is lexicographic order.  Up to
    ``_CHUNK_BITS`` variables the assignments are scored by ``_BitCounts``
    in Python ints; above, they are scored in fixed-size chunks by the
    numpy ``_SatisfiedCounts``, which compares a constraint only over the
    low index bits it reads, in width groups merged while that saves fewer
    than ``_MERGE_CELLS`` comparisons a block, with tables within
    ``_BLOCK_BYTES``.  At most 255 variables, whatever ``var_limit``.
    """
    n = f.num_vars
    # A constraint's variables are distinct, so its threshold is at most n;
    # the kernel's uint8 needs hold it only up to 255.
    limit = min(var_limit, _MAX_KERNEL_VARS)
    if n > limit:
        raise ResourceLimitError(
            f"instance has {n} variables, oracle limit is {limit}"
        )
    if _BitCounts.fits(n):
        small = _BitCounts(f.constraints, range(1, n + 1))
        best_value = small.value
        best_index = (small.maximisers & -small.maximisers).bit_length() - 1
    else:
        import numpy as np
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


class _BitCounts:
    """Satisfied counts of ``constraints`` over the 2^n assignments of the n
    ``variables``, which hold every variable of the constraints, for n at
    most ``_CHUNK_BITS``; index bits are laid out as in ``_SatisfiedCounts``.

    A set of assignments is a Python int whose bit i is index i.  A
    variable's column, the indices where it is 1, is one period doubled up
    to 2^n bits.  A constraint's held set is, for PARITY, the XOR of its
    literals' sets (complemented for right-hand side 0), and otherwise the
    "at least t" recurrence ``at[k] |= at[k - 1] & lit`` over them.  The
    held sets are added ripple-carry into bit planes, plane p holding bit p
    of every count; scanning the planes from the top gives the largest
    count, ``value``, and the set of indices reaching it, ``maximisers``.
    """

    @staticmethod
    def fits(num_vars: int) -> bool:
        """Whether ``num_vars`` variables are few enough for this kernel; the
        numpy ``_SatisfiedCounts`` scores more."""
        return num_vars <= _CHUNK_BITS

    def __init__(self, constraints: Sequence[Constraint], variables: Sequence[int]):
        n = len(variables)
        if not self.fits(n):
            raise AssertionError(f"{n} variables exceed one {_CHUNK_BITS}-bit oracle chunk")
        self._size = size = 1 << n
        self._full = full = (1 << size) - 1
        self._constraints = constraints
        # variables[p] is index bit j = n - 1 - p: runs of 2^j zeros and
        # ones.  A Literal is a (var, positive) tuple, so it looks its set up.
        self._literal: dict[tuple[int, bool], int] = {}
        for p, x in enumerate(variables):
            run = 1 << (n - 1 - p)
            column = ((1 << run) - 1) << run
            period = run << 1
            while period < size:
                column |= column << period
                period <<= 1
            self._literal[x, True] = column
            self._literal[x, False] = column ^ full
        self._planes: list[int] = []
        for c in constraints:
            carry = self._held(c)
            for p, plane in enumerate(self._planes):
                self._planes[p] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    self._planes.append(carry)
        self.value = 0
        self.maximisers = full
        for p in reversed(range(len(self._planes))):
            higher = self.maximisers & self._planes[p]
            if higher:
                self.maximisers = higher
                self.value |= 1 << p

    def _held(self, c: Constraint) -> int:
        """The set of assignments at which ``c`` holds."""
        literal = self._literal
        if c.kind is _PARITY:
            odd = 0
            for lit in c.literals:
                odd ^= literal[lit]
            return odd if c.parity_rhs else odd ^ self._full
        t = c.effective_threshold()
        if t > len(c.literals):
            return 0
        # at[k]: the assignments with at least k of the literals so far true
        at = [self._full] + [0] * t
        levels = range(t, 0, -1)
        for lit in c.literals:
            mask = literal[lit]
            for k in levels:
                at[k] |= at[k - 1] & mask
        return at[t]

    def counts(self) -> list[int]:
        """Satisfied count of each assignment, in index order."""
        counts = [0] * self._size
        for p, plane in enumerate(self._planes):
            # index 0 first; the bit above the top index keeps the leading zeros
            bits = bin(plane | 1 << self._size)[:2:-1]
            weight = 1 << p
            counts = [count + weight if bit == "1" else count for count, bit in zip(counts, bits)]
        return counts

    def first_max_satisfied_set(self) -> list[int]:
        """The maximisers' satisfied set that comes first in
        ``itertools.combinations`` order.

        The maximisers' sets have one size, and the first of them is the one
        whose membership vector, constraint 0 first, is largest: the
        maximisers are narrowed, constraint by constraint, to those at which
        it holds whenever one of them does.
        """
        chosen = []
        best = self.maximisers
        for j, c in enumerate(self._constraints):
            held = best & self._held(c)
            if held:
                best = held
                chosen.append(j)
        return chosen


class _LinearForm:
    """``constraints`` as linear forms over the 0/1 values of ``variables``,
    which hold every variable of the constraints: a constraint's true
    literals number base + sum(+-x_v), base counting its negated literals.

    A constraint that holds or fails whatever the assignment is a bool in
    ``const``, and ``always`` counts those that hold; every other one is a
    row, the "at least" ones first, each kind in constraint order.  The
    first ``num_geq`` rows hold when the count is at least ``target``, their
    threshold (every kind except PARITY); the rest are PARITY rows and hold
    when the count's parity is ``target``.  Row r's
    literals are ``cols[starts[r]:starts[r] + arity[r]]``, positions in
    ``variables``, with ``neg`` 1 for a negated literal.
    """

    def __init__(self, constraints: Sequence[Constraint], variables: Sequence[int]):
        import numpy as np
        geq: list[tuple[int, int]] = []  # (constraint, target)
        par: list[tuple[int, int]] = []
        self.const: dict[int, bool] = {}
        for j, c in enumerate(constraints):
            parity = c.kind is Kind.PARITY
            t = c.parity_rhs if parity else c.effective_threshold()
            if c.literals and (parity or 0 < t <= c.arity):
                (par if parity else geq).append((j, t))
            else:
                # an empty PARITY constraint holds when its right-hand side is 0
                self.const[j] = t <= 0
        self.always = sum(self.const.values())
        self.num_geq = len(geq)
        rows = geq + par
        self.target = np.array([t for _, t in rows], dtype=np.int32)[:, None]
        pos = {x: p for p, x in enumerate(variables)}
        lits = [(pos[var], not positive) for j, _ in rows for var, positive in constraints[j].literals]
        self.cols = np.array([p for p, _ in lits], dtype=np.intp)
        self.neg = np.array([q for _, q in lits], dtype=np.uint8)[:, None]
        self.arity = np.array([constraints[j].arity for j, _ in rows], dtype=np.intp)
        self.starts = np.cumsum(self.arity) - self.arity

    def true_counts(self, x: np.ndarray) -> np.ndarray:
        """Each row's true literals at each column of ``x``: 0/1 values, one
        row per variable in ``variables`` order."""
        import numpy as np
        return np.add.reduceat(x[self.cols] ^ self.neg, self.starts, axis=0, dtype=np.int32)

    def score(self, x: np.ndarray) -> np.ndarray:
        """Satisfied count at each column of ``x``, laid out as in
        ``true_counts``: a row holds when its count is at least its target
        in the first ``num_geq`` rows, and when its count mod 2 equals its
        target in the PARITY rows."""
        import numpy as np
        counts = self.true_counts(x)
        k = self.num_geq
        counts[k:] &= 1
        held = np.empty(counts.shape, dtype=bool)
        np.greater_equal(counts[:k], self.target[:k], out=held[:k])
        np.equal(counts[k:], self.target[k:], out=held[k:])
        return np.add.reduce(held, axis=0, dtype=np.int64) + self.always


def _group_widths(rows_per_width: list[int]) -> list[int]:
    """The width each width's rows are compared over: from the widest down,
    a width's rows join the next wider group when that costs fewer than
    ``_MERGE_CELLS`` more comparisons per block."""
    group = list(range(len(rows_per_width)))
    wider = None
    for w in reversed(group):
        rows = rows_per_width[w]
        if rows and wider is not None and rows * ((1 << wider) - (1 << w)) < _MERGE_CELLS:
            group[w] = wider
        elif rows:
            wider = w
    return group


class _SatisfiedCounts:
    """Satisfied counts of ``constraints`` over the 2^n assignments of the n
    ``variables``, which hold every variable of the constraints.

    ``variables[p]`` is index bit n - 1 - p: the first variable is the most
    significant bit, so ascending index order is ``itertools.product`` order.
    Indices run in ``num_chunks`` chunks of 2^``chunk_bits``, and each chunk
    in blocks of 2^b.  Bits from b up are constant within a block, so they
    only lower each row's need; the needs are built for a slice of blocks at
    a time, as many as keep that work within ``_BLOCK_BYTES``.

    Bits below b repeat in every block.  A row's width w is the highest of
    them that it reads plus one, or 0 when it reads none: its true literals
    on them (mod 2 for PARITY) repeat every 2^w positions, so it is compared
    only over a block's first 2^w.  Rows of one width form a group, and a
    group merges into the next wider one when that costs fewer than
    ``_MERGE_CELLS`` more comparisons.  A ``uint8`` table built once holds
    each group's true literals at its 2^w positions.  Per block, one
    comparison per kind of row and one sum score a group; each group's sums
    are added, tiled, to the next wider group's, and the widest group's are
    tiled over the block.  b is the largest that keeps the groups' tables
    within ``_BLOCK_BYTES``, but at least ``_MIN_BLOCK_BITS``: shorter blocks
    cost more in per-block overhead than they save.  Needs are held in
    ``uint8``, so n must be at most 255.
    """

    def __init__(self, constraints: Sequence[Constraint], variables: Sequence[int]):
        import numpy as np
        n = len(variables)
        self.chunk_bits = min(n, _CHUNK_BITS)
        self.num_chunks = 1 << (n - self.chunk_bits)
        form = self._form = _LinearForm(constraints, variables)
        rows = len(form.target)
        bit = n - 1 - form.cols  # each literal's index bit
        # b is the largest whose width groups' tables fit _BLOCK_BYTES, but
        # at least _MIN_BLOCK_BITS
        b = self.chunk_bits
        while True:
            low_bit = bit < b
            width = np.maximum.reduceat((bit + 1) * low_bit, form.starts)
            rows_per_width = np.bincount(width, minlength=b + 1).tolist()
            group = _group_widths(rows_per_width)
            cells = sum(r << g for r, g in zip(rows_per_width, group))
            if b <= _MIN_BLOCK_BITS or cells <= _BLOCK_BYTES:
                break
            b -= 1
        width = np.array(group)[width]  # each row's group width
        group_rows = np.bincount(width, minlength=b + 1).tolist()
        group_geq = np.bincount(width[:form.num_geq], minlength=b + 1).tolist()
        self._block_bits = b
        self._shift = np.arange(n - 1, -1, -1)[:, None]
        # rows by width; _LinearForm puts the "at least" rows first, and the
        # stable sort keeps them first within a width
        self._order = order = np.argsort(width, kind="stable")
        self._parity = (order >= form.num_geq)[:, None]
        # each row's true literals on the low bits when they are all 0: the
        # tables count them, and so do a block's true literals at its first
        # index, so each need adds them back
        low_at_0 = np.add.reduceat(form.neg[:, 0] & low_bit, form.starts, dtype=np.int32)[order]
        self._target = form.target[order] + low_at_0[:, None]
        # step[r, p] is what row r's true literals gain when variables[p]
        # turns from 0 to 1: 1 for a positive literal, -1 (255) for a negated
        # one
        step = np.zeros((rows, n), dtype=np.uint8)
        step[np.repeat(np.arange(rows), form.arity), form.cols] = np.where(form.neg[:, 0], 255, 1)
        step = step[order]
        # _groups: (first row, first PARITY row, end row, true literals, held
        # values), rows in width order, a group's tables one row per row
        self._groups = []
        e = 0
        for w, group_size in enumerate(group_rows):
            if not group_size:
                continue
            s, e = e, e + group_size
            k = s + group_geq[w]
            table = np.empty((group_size, 1 << w), dtype=np.uint8)
            table[:, 0] = low_at_0[s:e]
            for j in range(w):
                # index bit j doubles the positions counted so far
                size, p = 1 << j, n - 1 - j
                np.add(table[:, :size], step[s:e, p:p + 1], out=table[:, size:2 * size])
            if e > k:
                table[k - s:] &= 1
            self._groups.append((s, k, e, table, np.empty(table.shape, dtype=bool)))
        # a block's satisfied counts fit uint8 up to 255 rows
        self._sum_type = np.uint8 if rows <= 255 else np.int32
        # blocks per slice: a block's needs take about 9 bytes per variable
        # (its first assignment) and 24 per literal (the gather, its XOR and
        # the int32 arithmetic of the rows)
        self._slice = max(1, _BLOCK_BYTES // (9 * n + 24 * len(form.cols) + 1))

    def _needs(self, blocks: np.ndarray) -> np.ndarray:
        """Each row's need in each of ``blocks`` (columns), rows in width
        order: its target less its true literals on the block's bits from b
        up, at least 0, or mod 2 for a PARITY row."""
        import numpy as np
        form = self._form
        # the assignment at each block's first index, one column per block
        x = (((blocks << self._block_bits) >> self._shift) & 1).astype(np.uint8)
        need = self._target - form.true_counts(x)[self._order]
        return np.where(self._parity, need & 1, np.maximum(need, 0)).astype(np.uint8)

    def _held_blocks(self, high: int):
        """The first position in chunk ``high`` of each of its blocks, with
        which rows hold at each position of the block in the groups' held
        values, which the next block overwrites.  The needs are built a
        slice of blocks at a time."""
        import numpy as np
        per_chunk = 1 << (self.chunk_bits - self._block_bits)
        for lo in range(0, per_chunk, self._slice):
            need = self._needs(np.arange(lo, min(lo + self._slice, per_chunk)) + high * per_chunk)
            for i in range(need.shape[1]):
                for s, k, e, table, held in self._groups:
                    if k > s:
                        np.greater_equal(table[:k - s], need[s:k, i:i + 1], out=held[:k - s])
                    if e > k:
                        np.equal(table[k - s:], need[k:e, i:i + 1], out=held[k - s:])
                yield (lo + i) << self._block_bits

    def _block_counts(self, out: np.ndarray) -> None:
        """The satisfied varying rows at each position of the block last
        yielded by ``_held_blocks``, written to ``out``."""
        import numpy as np
        sums = None
        for _, _, _, _, held in self._groups:
            wider = np.add.reduce(held, axis=0, dtype=self._sum_type)
            if sums is not None:
                tiled = wider.reshape(-1, len(sums))
                tiled += sums
            sums = wider
        if sums is None:
            out[:] = 0
            return
        size = len(sums)
        out[:size] = sums
        while size < len(out):
            out[size:2 * size] = out[:size]
            size *= 2

    def counts(self, high: int) -> np.ndarray:
        """Satisfied count of each assignment of chunk ``high``, in a new array."""
        import numpy as np
        size = 1 << self._block_bits
        counts = np.empty(1 << self.chunk_bits, dtype=np.int32)
        for start in self._held_blocks(high):
            self._block_counts(counts[start:start + size])
        counts += self._form.always
        return counts


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
