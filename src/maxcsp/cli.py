"""Command-line interface: analyze, solve, generate, compare.

Exit codes: 0 success, 1 parse or validation error, 2 precondition error,
3 resource limit.  Every invocation with fixed arguments and seed produces
byte-identical output; wall-clock timing is only emitted with --timing.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import cnf_approx, cover_solver, fvs_solver, oracle, reductions, structure
from .errors import (
    ContractViolationError,
    MalformedInstanceError,
    MaxCspError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
)
from .formats import (
    instance_digest,
    parse_instance,
    parse_mcc,
    serialize_instance,
)
from .forest_solver import solve_forest
from .graphs import build_incidence_graph
from .model import Formula, Kind, as_threshold_formula
from .report import SolveReport, fraction_str, parse_fraction

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3

# Seconds of serial compare work after which the rest goes to a worker pool:
# about what starting a 2-process pool costs (12-28 ms on a 2-vCPU VM).
_POOL_AFTER_S = 0.02


def _read_text(path: str) -> str:
    """The ASCII text of ``path`` (``-`` is standard input); a non-ASCII byte
    raises ``ParseError`` naming it and its line.  Line ends are left as read:
    the parsers split lines with ``str.splitlines``."""
    if path == "-":
        # the bytes under the locale's text layer, so every locale decodes alike
        stream = getattr(sys.stdin, "buffer", None)
        data = stream.read() if stream is not None else sys.stdin.read().encode()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"not ASCII, byte 0x{data[exc.start]:02x}", path) from None


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _budgeted_json(res: structure.BudgetedResult, inc) -> dict:
    if res.exceeded:
        return {"status": "exceeds-budget", "budget": res.budget, "size": None, "witness": None}
    split = inc.split(res.witness)
    return {
        "status": "ok",
        "budget": res.budget,
        "size": res.size,
        "witness": {
            "variables": sorted(split.variables),
            "constraints": sorted(split.constraints),
        },
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    f = parse_instance(_read_text(args.file))
    inc = build_incidence_graph(f)
    report = structure.analyze_graph(inc.graph, args.max_vc, args.max_fvs)
    payload = {
        "instance_digest": instance_digest(f),
        "num_vars": f.num_vars,
        "num_constraints": f.num_constraints,
        "occ": f.occ,
        "nd": report.nd,
        "nd_class_sizes": sorted((len(c) for c in report.nd_partition.classes), reverse=True),
        "vc": _budgeted_json(report.vc, inc),
        "fvs": _budgeted_json(report.fvs, inc),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"variables={f.num_vars} constraints={f.num_constraints} occ={f.occ}")
        print(f"nd={report.nd}")
        for name, res in (("vc", report.vc), ("fvs", report.fvs)):
            if res.exceeded:
                print(f"{name}=exceeds-budget({res.budget})")
            else:
                print(f"{name}={res.size}")
    return EXIT_OK


def _exact_memo(var_limit: int) -> cnf_approx.ExactBackend:
    """Exact optima of the formulas one command meets, each solved once.

    A command builds its own memo, so nothing is cached from one command to
    the next; a solve that raises is not cached.  The oracle is looked up on
    its module at call time, so a wrapper installed there sees every call.
    """
    return functools.cache(lambda sub: oracle.max_csp_bruteforce(sub, var_limit=var_limit))


@dataclasses.dataclass(frozen=True)
class SolveOptions:
    """Every value a solver reads besides the instance; the defaults are the
    flags' defaults.  An out-of-range value raises ``MalformedInstanceError``."""

    epsilon: str | None = None
    seed: int = 0
    trials: int = cnf_approx.DEFAULT_TRIALS
    window_exponent: int = cnf_approx.DEFAULT_WINDOW_EXPONENT
    max_vc: int = structure.DEFAULT_VC_BUDGET
    max_fvs: int = structure.DEFAULT_FVS_BUDGET
    oracle_limit: int = oracle.DEFAULT_VAR_LIMIT

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise MalformedInstanceError(f"--trials must be at least 1, got {self.trials}")
        if self.oracle_limit < 0:
            raise MalformedInstanceError(f"--oracle-limit must be at least 0, got {self.oracle_limit}")


def _solve_vc(f: Formula, budget: int) -> oracle.OracleResult:
    inc = build_incidence_graph(f)
    cover = structure.vertex_cover_number(inc.graph, budget)
    if cover.exceeded:
        raise ResourceLimitError(f"no incidence vertex cover within budget {budget}; raise --max-vc")
    return cover_solver.solve_via_vertex_cover(f, inc.split(cover.witness))


def _solve_parity(f: Formula) -> oracle.OracleResult:
    """All constraints when the system is consistent, else none."""
    if any(c.kind is not Kind.PARITY for c in f.constraints):
        raise PreconditionError("parity-sat requires a pure PARITY instance")
    satisfiable, witness = oracle.parity_gauss_satisfiable(f)
    return oracle.OracleResult(f.num_constraints if satisfiable else 0, witness)


# Each ``--alg`` name and its solver, (formula, SolveOptions, exact backend) ->
# OracleResult, for ``solve`` and ``compare`` alike.  An entry looks its solver
# up when it runs, so a wrapper installed on the solver's module sees every call.
SOLVERS = {
    "oracle": lambda f, o, exact: exact(f),
    "tree": lambda f, o, exact: solve_forest(f),
    "vc": lambda f, o, exact: _solve_vc(f, o.max_vc),
    "fvs-as": lambda f, o, exact: fvs_solver.solve_with_fvs_search(f, o.epsilon, o.max_fvs),
    "cw-as": lambda f, o, exact: cnf_approx.approx_max_cnf(
        f, o.epsilon, seed=o.seed, trials=o.trials, window_exponent=o.window_exponent,
        exact_backend=exact, backend_var_limit=o.oracle_limit,
    ),
    "parity-sat": lambda f, o, exact: _solve_parity(f),
}
# the approximation schemes, which need an epsilon
EPSILON_ALGS = frozenset(name for name in SOLVERS if name.endswith("-as"))


def _solve_instance(f: Formula, alg: str, options: SolveOptions, exact: cnf_approx.ExactBackend) -> SolveReport:
    """Run ``alg`` on ``f`` and build its report; the one place a report is
    built, for ``solve`` and ``compare`` alike."""
    if alg in EPSILON_ALGS and options.epsilon is None:
        raise PreconditionError(f"--epsilon is required for {alg}")
    res = SOLVERS[alg](f, options, exact)
    # epsilon is parsed only now, so the solver's own checks set the exit code
    return SolveReport(
        algorithm=alg,
        value=res.value,
        witness=res.witness,
        epsilon=parse_fraction(options.epsilon) if alg in EPSILON_ALGS else None,
        seed=options.seed if alg == "cw-as" else None,
        trials=options.trials if alg == "cw-as" else None,
        route=res.route,
        satisfiable=res.value == f.num_constraints if alg == "parity-sat" else None,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    options = SolveOptions(**{field.name: getattr(args, field.name) for field in dataclasses.fields(SolveOptions)})
    f = parse_instance(_read_text(args.file))
    exact = _exact_memo(options.oracle_limit)
    started = time.perf_counter()
    report = _solve_instance(f, args.alg, options, exact)
    report.wall_time_ms = (time.perf_counter() - started) * 1000.0
    if args.with_oracle:
        try:
            opt = exact(f)
            report.oracle_value = opt.value
            if opt.value > 0:
                report.ratio = Fraction(report.value, opt.value)
        except ResourceLimitError:
            report.oracle_value = None
    report.verify(f)
    if args.json:
        payload = {**report.to_json_dict(args.timing), "instance_digest": instance_digest(f)}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        line = f"algorithm={report.algorithm} value={report.value}"
        if report.satisfiable is not None:
            line += f" satisfiable={str(report.satisfiable).lower()}"
        if report.route is not None:
            line += f" route={report.route}"
        if report.oracle_value is not None:
            line += f" oracle={report.oracle_value}"
            if report.ratio is not None:
                line += f" ratio={fraction_str(report.ratio)}"
        if report.witness is not None:
            line += f" witness={report.witness.bitstring()}"
        if args.timing:
            line += f" time_ms={report.wall_time_ms:.3f}"
        print(line)
    return EXIT_OK


def _mcc_from_args(args: argparse.Namespace) -> reductions.MccGraph:
    sources = {
        "--graph": args.graph is not None,
        "--complete": args.complete,
        "--edgeless": args.edgeless,
        "--edge-prob": args.edge_prob is not None,
    }
    if sum(sources.values()) > 1:
        given = ", ".join(name for name, on in sources.items() if on)
        raise PreconditionError(f"choose one of --graph, --complete, --edgeless or --edge-prob, got {given}")
    if args.graph is not None:
        sizes = ", ".join(name for name, value in (("--k", args.k), ("--n", args.n)) if value is not None)
        if sizes:
            raise PreconditionError(f"--graph gives k and n, so --k and --n do not apply, got {sizes}")
        return parse_mcc(_read_text(args.graph))
    if args.k is None or args.n is None:
        raise PreconditionError("either --graph or both --k and --n are required")
    if args.complete:
        return reductions.complete_mcc(args.k, args.n)
    if args.edgeless:
        return reductions.edgeless_mcc(args.k, args.n)
    if args.edge_prob is not None:
        return reductions.random_mcc(args.k, args.n, args.edge_prob, args.seed)
    raise PreconditionError("choose one of --complete, --edgeless or --edge-prob")


def cmd_generate(args: argparse.Namespace) -> int:
    kind = args.what
    comments: list[str] = [f"c generator {kind}"]
    if kind in ("mcc-cnf", "mcc-dnf", "mcc-thr"):
        g = _mcc_from_args(args)
        comments.append(f"c mcc k={g.parts} n={g.part_size} edges={len(g.edges)}")
        if kind == "mcc-cnf":
            out = reductions.mcc_to_cnf(g)
            formula = out.formula
        elif kind == "mcc-dnf":
            red = reductions.mcc_to_dnf(g)
            formula = red.formula
            comments.append(f"c target {red.target}")
            comments.append(f"c epsilon {fraction_str(red.epsilon)}")
        else:
            red = reductions.mcc_to_threshold(g)
            formula = red.formula
            fvs = " ".join(str(j) for j in red.fvs_constraints)
            comments.append(f"c fvs-witness-constraints {fvs}")
    elif kind in ("thr2maj", "cnf2maj"):
        if args.input is None:
            raise PreconditionError(f"{kind} requires --input")
        src = parse_instance(_read_text(args.input))
        formula = (
            reductions.threshold_to_majority(as_threshold_formula(src))
            if kind == "thr2maj"
            else reductions.cnf_to_majority(src)
        )
    elif kind == "random":
        mix = {}
        for part in args.kinds.split(","):
            name, _, weight = part.partition("=")
            try:
                mix[name.strip()] = float(weight) if weight else 1.0
            except ValueError:
                raise MalformedInstanceError(f"kind weight is not a number: {weight!r}") from None
        formula = oracle.random_formula(
            args.num_vars,
            args.num_constraints,
            mix,
            (args.arity_min, args.arity_max),
            args.seed,
        )
    else:
        raise PreconditionError(f"unknown generator {kind!r}")
    text = "\n".join(comments) + "\n" + serialize_instance(formula)
    _write_text(args.output, text)
    return EXIT_OK


def _compare_task(task: tuple) -> list[tuple]:
    """Rows of one instance; module level so it can cross process boundaries.

    The file is parsed once, and every exact solve of the task (the oracle
    row, cw-as projections, the oracle_opt column) goes through one memo.
    A file that does not parse or cannot be read fails only its own rows.
    """
    path, name, runs, options = task
    try:
        f = parse_instance(_read_text(path))
    except (ParseError, MalformedInstanceError, OSError):
        return [(name, alg, eps or "", None, None, "", "error:parse", None) for alg, eps in runs]
    exact = _exact_memo(options.oracle_limit)
    solved = []
    # The oracle row runs first, so its time_ms holds the exact solve that
    # the other rows reuse.
    for alg, eps_str in sorted(runs, key=lambda run: run[0] != "oracle"):
        started = time.perf_counter()
        status = "ok"
        report: SolveReport | None = None
        try:
            report = _solve_instance(f, alg, dataclasses.replace(options, epsilon=eps_str), exact)
        except PreconditionError:
            status = "error:precondition"
        except ResourceLimitError:
            status = "error:resource"
        except MaxCspError:
            status = "error:solver"
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if report is not None:
            report.verify(f)
        value = None if report is None else report.value
        solved.append((alg, eps_str or "", value, status, elapsed_ms))
    try:
        opt: int | None = exact(f).value
    except ResourceLimitError:
        opt = None
    rows = []
    for alg, eps, value, status, elapsed_ms in solved:
        ratio = fraction_str(Fraction(value, opt)) if value is not None and opt else ""
        oracle_opt = "unavailable" if opt is None else opt
        rows.append((name, alg, eps, value, oracle_opt, ratio, status, elapsed_ms))
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise MalformedInstanceError(f"--workers must be at least 1, got {args.workers}")
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    for a in algs:
        if a not in SOLVERS:
            raise PreconditionError(f"unknown algorithm {a!r}")
    options = SolveOptions(seed=args.seed, trials=args.trials, oracle_limit=args.oracle_limit)
    epsilons = [
        fraction_str(parse_fraction(e.strip()))
        for e in (args.epsilons.split(",") if args.epsilons else [])
        if e.strip()
    ]
    files = sorted(
        name for name in os.listdir(args.dir) if name.endswith(".mcsp")
    )
    missing = [a for a in algs if a in EPSILON_ALGS and not epsilons]
    if files and missing:
        raise PreconditionError(f"{missing[0]} requires --epsilons")
    runs = [(alg, eps) for alg in algs for eps in (epsilons if alg in EPSILON_ALGS else [None])]
    tasks = [(os.path.join(args.dir, name), name, runs, options) for name in files]
    # Serial first: the pool starts only once the tasks run so far have
    # taken longer than starting it costs, and never for a single task left.
    rows: list[tuple] = []
    started = time.perf_counter()
    for i, task in enumerate(tasks):
        rows += _compare_task(task)
        left = len(tasks) - i - 1
        if args.workers > 1 and left > 1 and time.perf_counter() - started >= _POOL_AFTER_S:
            # imported here, so the other commands never load multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(args.workers, left)) as pool:
                for task_rows in pool.map(_compare_task, tasks[i + 1 :]):
                    rows += task_rows
            break
    rows.sort(key=lambda r: (r[0], r[1], Fraction(r[2]) if r[2] else Fraction(-1)))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["instance", "algorithm", "epsilon", "value", "oracle_opt", "ratio", "status", "time_ms"]
    )
    for name, alg, eps, value, opt, ratio, status, elapsed in rows:
        writer.writerow(
            [
                name,
                alg,
                eps,
                "" if value is None else value,
                "" if opt is None else opt,
                ratio,
                status,
                f"{elapsed:.3f}" if args.timing and elapsed is not None else "",
            ]
        )
    _write_text(args.output, buf.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maxcsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="incidence-graph structural parameters")
    p.add_argument("file")
    p.add_argument("--max-vc", type=int, default=structure.DEFAULT_VC_BUDGET)
    p.add_argument("--max-fvs", type=int, default=structure.DEFAULT_FVS_BUDGET)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="run one solver on one instance")
    p.add_argument("file")
    p.add_argument("--alg", choices=tuple(SOLVERS), required=True)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=cnf_approx.DEFAULT_TRIALS)
    p.add_argument("--window-exponent", type=int, default=cnf_approx.DEFAULT_WINDOW_EXPONENT)
    p.add_argument("--max-vc", type=int, default=structure.DEFAULT_VC_BUDGET)
    p.add_argument("--max-fvs", type=int, default=structure.DEFAULT_FVS_BUDGET)
    p.add_argument("--oracle-limit", type=int, default=oracle.DEFAULT_VAR_LIMIT)
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("generate", help="emit instances and gadget reductions")
    p.add_argument("what", choices=["mcc-cnf", "mcc-dnf", "mcc-thr", "thr2maj", "cnf2maj", "random"])
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--graph", default=None, help="MCC graph file")
    p.add_argument("--input", default=None, help="MCSP input for thr2maj/cnf2maj")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--complete", action="store_true")
    p.add_argument("--edgeless", action="store_true")
    p.add_argument("--edge-prob", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-vars", type=int, default=10)
    p.add_argument("--num-constraints", type=int, default=10)
    p.add_argument("--kinds", default="OR=1")
    p.add_argument("--arity-min", type=int, default=1)
    p.add_argument("--arity-max", type=int, default=3)

    p = sub.add_parser("compare", help="ratio table over a directory of instances")
    p.add_argument("--algs", required=True)
    p.add_argument("--epsilons", "--epsilon", default="")
    p.add_argument("--dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=cnf_approx.DEFAULT_TRIALS)
    p.add_argument("--oracle-limit", type=int, default=oracle.DEFAULT_VAR_LIMIT)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--timing", action="store_true")
    p.add_argument("-o", "--output", required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by ``build_parser`` on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called many times in one process.

    The parser is built once, and ``cmd_<command>`` is looked up on this
    module at each call, so a wrapper installed there sees every call.
    """
    args = _parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ParseError, MalformedInstanceError, ContractViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MaxCspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
