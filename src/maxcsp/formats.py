"""Text formats: MCSP instance files and MCC multicolored-graph files.

MCSP is DIMACS-adjacent so existing CNF tooling can read the ``o``-only
subset::

    c free-form comment
    p mcsp <num_vars> <num_constraints>
    o <lit>... 0        OR clause
    a <lit>... 0        AND term
    x <b> <lit>... 0    PARITY with right-hand side bit b
    t <T> <lit>... 0    THRESHOLD, at least T literals true
    m <lit>... 0        MAJORITY (threshold implied, never explicit)

Literals are nonzero signed integers.  Constraints may have empty literal
lists (for example ``t 1 0``), which some gadget outputs require.

MCC files::

    p mcc <k> <n>
    e <i> <u> <j> <v>   edge between vertex u of part i and vertex v of part j
"""

from __future__ import annotations

import hashlib
import re
from typing import Callable

from .errors import MalformedInstanceError, ParseError, ResourceLimitError
from .model import Constraint, Formula, Kind, Literal

_KIND_TO_TAG = {
    Kind.OR: "o",
    Kind.AND: "a",
    Kind.PARITY: "x",
    Kind.THRESHOLD: "t",
    Kind.MAJORITY: "m",
}
_TAG_TO_KIND = {v: k for k, v in _KIND_TO_TAG.items()}
_DECIMAL = re.compile(r"[+-]?[0-9]+")
# The most variables an instance file may declare.  The commands allocate per
# declared variable, whether or not a constraint uses it; the most is the
# incidence graph's build, about 240 bytes each (an empty set is 216 bytes,
# plus its list and tuple slots).  2^20 variables keep that near 240 MiB, so a
# header alone cannot ask for more.
MAX_DECLARED_VARS = 1 << 20


def plain_number(convert: Callable) -> Callable:
    """A parser like ``convert`` (``int``, ``float`` or ``Fraction``) that takes only ASCII text
    without ``_``, and integers only as ``[+-]?[0-9]+`` (Python's parsers also take ``1_0`` and
    non-ASCII digits); other text raises ``ValueError``.  It has ``convert``'s name, for argparse."""

    def parse(text: str):
        if not text.isascii() or "_" in text or convert is int and _DECIMAL.fullmatch(text) is None:
            raise ValueError(text)
        return convert(text)

    parse.__name__ = convert.__name__
    return parse


_decimal = plain_number(int)


def parse_instance(text: str) -> Formula:
    """Parse MCSP text into a Formula, reporting errors with line numbers.
    A header that declares more than ``MAX_DECLARED_VARS`` variables raises
    ``ResourceLimitError`` before anything is built per variable."""
    num_vars: int | None = None
    declared: int | None = None
    constraints: list[Constraint] = []
    # On ASCII text without an underscore, ``int`` reads exactly the tokens
    # ``_decimal`` does, and a per-token match would add a fifth to parsing.
    to_int = int if text.isascii() and "_" not in text else _decimal
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        tag = tokens[0]
        if tag == "p":
            if num_vars is not None:
                raise ParseError(ln, "duplicate header line")
            if len(tokens) != 4 or tokens[1] != "mcsp":
                raise ParseError(ln, f"bad header {line!r}, expected 'p mcsp <vars> <constraints>'")
            try:
                num_vars, declared = to_int(tokens[2]), to_int(tokens[3])
            except ValueError:
                raise ParseError(ln, "header counts must be integers") from None
            if num_vars < 0 or declared < 0:
                raise ParseError(ln, "header counts must be non-negative")
            if num_vars > MAX_DECLARED_VARS:
                raise ResourceLimitError(
                    f"instance declares {num_vars} variables, the limit is {MAX_DECLARED_VARS}"
                )
            continue
        if num_vars is None:
            raise ParseError(ln, "constraint line before header")
        if tag not in _TAG_TO_KIND:
            raise ParseError(ln, f"unknown line kind {tag!r}")
        kind = _TAG_TO_KIND[tag]
        body = tokens[1:]
        parity_rhs = None
        threshold = None
        if kind is Kind.PARITY:
            if not body:
                raise ParseError(ln, "parity line needs a right-hand-side bit")
            if body[0] not in ("0", "1"):
                raise ParseError(ln, f"parity right-hand side must be 0 or 1, got {body[0]!r}")
            parity_rhs = int(body[0])
            body = body[1:]
        elif kind is Kind.THRESHOLD:
            if not body:
                raise ParseError(ln, "threshold line needs a threshold value")
            try:
                threshold = to_int(body[0])
            except ValueError:
                raise ParseError(ln, f"threshold must be an integer, got {body[0]!r}") from None
            if threshold < 0:
                raise ParseError(ln, "threshold must be non-negative")
            body = body[1:]
        if not body or body[-1] != "0":
            raise ParseError(ln, "constraint line must end with 0")
        lits: list[Literal] = []
        seen: set[int] = set()
        for tok in body[:-1]:
            try:
                value = to_int(tok)
            except ValueError:
                raise ParseError(ln, f"literal {tok!r} is not an integer") from None
            if value == 0:
                raise ParseError(ln, "literal 0 inside a constraint (0 terminates the line)")
            var = abs(value)
            if var > num_vars:
                raise ParseError(ln, f"literal {value} out of range, formula has {num_vars} variables")
            if var in seen:
                raise ParseError(ln, f"variable {var} appears twice (possibly with both signs)")
            seen.add(var)
            lits.append(Literal(var, value > 0))
        try:
            constraints.append(
                Constraint(kind, tuple(lits), parity_rhs=parity_rhs, threshold=threshold)
            )
        except MalformedInstanceError as exc:
            raise ParseError(ln, str(exc)) from None
    if num_vars is None:
        raise ParseError(0, "missing 'p mcsp' header")
    if len(constraints) != declared:
        raise ParseError(
            0, f"header declares {declared} constraints but body has {len(constraints)}"
        )
    return Formula(num_vars, tuple(constraints))


def serialize_instance(f: Formula) -> str:
    """Canonical MCSP text: insertion order, single spaces, terminal 0 per line."""
    lines = [f"p mcsp {f.num_vars} {f.num_constraints}"]
    for c in f.constraints:
        parts = [_KIND_TO_TAG[c.kind]]
        if c.kind is Kind.PARITY:
            parts.append(str(c.parity_rhs))
        elif c.kind is Kind.THRESHOLD:
            parts.append(str(c.threshold))
        parts.extend(str(lit.to_int()) for lit in c.literals)
        parts.append("0")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def instance_digest(f: Formula) -> str:
    return hashlib.sha256(serialize_instance(f).encode("ascii")).hexdigest()


def parse_mcc(text: str):
    """Parse an MCC k-partite graph file; duplicate edges are collapsed."""
    from .reductions import MccGraph

    parts: int | None = None
    size: int | None = None
    edges: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if parts is not None:
                raise ParseError(ln, "duplicate header line")
            if len(tokens) != 4 or tokens[1] != "mcc":
                raise ParseError(ln, f"bad header {line!r}, expected 'p mcc <k> <n>'")
            try:
                parts, size = _decimal(tokens[2]), _decimal(tokens[3])
            except ValueError:
                raise ParseError(ln, "header counts must be integers") from None
            if parts < 1 or size < 1:
                raise ParseError(ln, "part count and part size must be positive")
            continue
        if tokens[0] != "e":
            raise ParseError(ln, f"unknown line kind {tokens[0]!r}")
        if parts is None:
            raise ParseError(ln, "edge line before header")
        if len(tokens) != 5:
            raise ParseError(ln, "edge line must be 'e <i> <u> <j> <v>'")
        try:
            i, u, j, v = (_decimal(t) for t in tokens[1:])
        except ValueError:
            raise ParseError(ln, "edge fields must be integers") from None
        if i == j:
            raise ParseError(ln, f"edge within part {i} is not allowed")
        if not (1 <= i <= parts and 1 <= j <= parts):
            raise ParseError(ln, f"part index out of range in {line!r}")
        if not (1 <= u <= size and 1 <= v <= size):
            raise ParseError(ln, f"vertex index out of range in {line!r}")
        if i > j:
            i, u, j, v = j, v, i, u
        edges.add(((i, u), (j, v)))
    if parts is None:
        raise ParseError(0, "missing 'p mcc' header")
    return MccGraph(parts, size, frozenset(edges))


def serialize_mcc(g) -> str:
    lines = [f"p mcc {g.parts} {g.part_size}"]
    for (i, u), (j, v) in sorted(g.edges):
        lines.append(f"e {i} {u} {j} {v}")
    return "\n".join(lines) + "\n"
