"""Solve reports, which the CLI builds from a solver's result, and their JSON form.

Rationals are emitted as exact ``p/q`` strings so reports are diff-able and
byte-stable.  Wall time is excluded from the JSON unless explicitly asked
for, because report bytes must not vary between identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedInstanceError
from .formats import plain_number
from .model import Assignment, Formula, count_satisfied

_FRACTION = plain_number(Fraction)


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text) -> Fraction:
    """Exact rational from user input; floats go through str to keep intent.
    Text that names no finite rational in plain ASCII (``plain_number``) raises ``MalformedInstanceError``."""
    try:
        return _FRACTION(str(text)) if isinstance(text, (str, float)) else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise MalformedInstanceError(f"not a rational number: {text!r}") from None


@dataclass
class SolveReport:
    algorithm: str
    value: int
    witness: Assignment | None
    oracle_value: int | None = None
    ratio: Fraction | None = None
    epsilon: Fraction | None = None
    seed: int | None = None
    trials: int | None = None
    route: str | None = None
    satisfiable: bool | None = None
    wall_time_ms: float | None = None

    def verify(self, f: Formula) -> None:
        if self.witness is not None and count_satisfied(f, self.witness) != self.value:
            raise AssertionError("report value does not match its witness")
        if self.oracle_value is not None and self.ratio is not None:
            if self.oracle_value > 0 and self.ratio != Fraction(self.value, self.oracle_value):
                raise AssertionError("report ratio does not match value/oracle_value")

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "algorithm": self.algorithm,
            "value": self.value,
            "witness": self.witness.bitstring() if self.witness is not None else None,
            "oracle_value": self.oracle_value,
            "ratio": fraction_str(self.ratio) if self.ratio is not None else None,
            "epsilon": fraction_str(self.epsilon) if self.epsilon is not None else None,
            "seed": self.seed,
            "trials": self.trials,
            "route": self.route,
            "satisfiable": self.satisfiable,
        }
        if include_timing:
            out["wall_time_ms"] = self.wall_time_ms
        return out
