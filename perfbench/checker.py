"""Untimed output checks.

``check(request, outcome, corpus, reference)`` returns None when the output of
one request is correct and a one-line reason otherwise.  Reference optima come
from ``max_csp_bruteforce`` and are cached per instance, because every pass
repeats the same inputs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from maxcsp import (
    Assignment,
    Formula,
    Kind,
    build_incidence_graph,
    count_satisfied,
    max_csp_bruteforce,
    parse_instance,
)

from corpus import Corpus, Request

ORACLE_CHECK_VARS = 22
EXACT_ALGORITHMS = {"tree", "vc"}


@dataclass(frozen=True)
class Outcome:
    """What one ``cli.main`` call produced."""

    code: int | str  # exit code, or the name of an exception that escaped
    stdout: str
    stderr: str
    written: str | None  # contents of the file the request writes, if any


class Reference:
    """Oracle optima per instance name, computed on first use."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._opt: dict[str, int | None] = {}

    def optimum(self, name: str) -> int | None:
        if name not in self._opt:
            f = self.corpus.instances[name].formula
            self._opt[name] = max_csp_bruteforce(f).value if f.num_vars <= ORACLE_CHECK_VARS else None
        return self._opt[name]


def known_defect_hit(req: Request, out: Outcome) -> bool:
    """True when a request with a known defect failed in exactly the known way."""
    return req.known_defect is not None and out.code == 1 and req.known_defect in out.stderr


def check(req: Request, out: Outcome, corpus: Corpus, ref: Reference, golden: dict | None = None) -> str | None:
    if out.code != 0:
        return f"exit {out.code}: {out.stderr.strip()[:200]}"
    try:
        if req.command == "solve":
            return _check_solve(req, json.loads(out.stdout), corpus, ref, golden)
        if req.command == "analyze":
            return _check_analyze(req, json.loads(out.stdout), corpus)
        if req.command == "compare":
            return _check_compare(req, out.written or "", corpus, ref)
        if req.command == "generate":
            return _check_generate(req, out.written or "")
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return f"unknown command {req.command!r}"


def _algorithm(req: Request) -> str:
    return req.argv[req.argv.index("--alg") + 1]


def _check_solve(req: Request, rep: dict, corpus: Corpus, ref: Reference, golden: dict | None) -> str | None:
    inst = corpus.instances[req.instances[0]]
    f = inst.formula
    if rep["instance_digest"] != inst.digest:
        return "instance_digest does not match the input file"
    value = rep["value"]
    if rep["witness"] is not None:
        witness = Assignment(tuple(int(b) for b in rep["witness"]))
        if count_satisfied(f, witness) != value:
            return f"witness satisfies {count_satisfied(f, witness)} constraints, report says {value}"
    alg = _algorithm(req)
    if golden is not None:
        want = golden.get(inst.name + " " + alg)
        if want is not None and want != {"value": value, "witness": rep["witness"]}:
            return "value or witness differs from the recorded golden output"
    opt = ref.optimum(inst.name)
    if opt is None:
        return None
    if value > opt:
        return f"value {value} exceeds the optimum {opt}"
    if alg == "parity-sat":
        if rep["satisfiable"] != (opt == f.num_constraints):
            return "parity-sat satisfiability disagrees with the oracle"
        return None
    exact = alg in EXACT_ALGORITHMS or (alg == "fvs-as" and rep["route"] == "exact-small")
    if exact and value != opt:
        return f"exact {alg} value {value} differs from the optimum {opt}"
    if alg == "fvs-as" and value < (1 - Fraction(req.epsilon)) * opt:
        return f"fvs-as value {value} below (1 - eps) * {opt}"
    return None


def _forest_after_removing(f: Formula, removed: set[int]) -> bool:
    """Union-find acyclicity test of the incidence graph minus ``removed`` vertices."""
    n = f.num_vars
    parent = list(range(n + f.num_constraints))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, c in enumerate(f.constraints):
        for lit in c.literals:
            u, v = lit.var - 1, n + j
            if u in removed or v in removed:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def _vertices(f: Formula, witness: dict) -> set[int]:
    return {x - 1 for x in witness["variables"]} | {f.num_vars + j for j in witness["constraints"]}


def _check_analyze(req: Request, rep: dict, corpus: Corpus) -> str | None:
    inst = corpus.instances[req.instances[0]]
    f = inst.formula
    if rep["instance_digest"] != inst.digest:
        return "instance_digest does not match the input file"
    if (rep["num_vars"], rep["num_constraints"]) != (f.num_vars, f.num_constraints):
        return "variable or constraint count differs from the input"
    if not 1 <= rep["nd"] <= f.num_vars + f.num_constraints:
        return f"neighborhood diversity {rep['nd']} out of range"
    for key in ("vc", "fvs"):
        part = rep[key]
        if part["status"] != "ok":
            return f"{key} search exceeded its budget"
        if len(_vertices(f, part["witness"])) != part["size"]:
            return f"{key} size does not match its witness"
        # A vertex cover is also a feedback vertex set, so a planted cover bounds both.
        bounded = inst.witness_kind == "cover" or key == inst.witness_kind
        if bounded and inst.witness_size is not None and part["size"] > inst.witness_size:
            return f"{key} size {part['size']} exceeds the planted {inst.witness_kind} {inst.witness_size}"
    vc = _vertices(f, rep["vc"]["witness"])
    edges = build_incidence_graph(f).graph.edge_list()
    if any(u not in vc and v not in vc for u, v in edges):
        return "vc witness leaves an occurrence uncovered"
    if not _forest_after_removing(f, _vertices(f, rep["fvs"]["witness"])):
        return "fvs witness leaves a cycle"
    return None


def _check_compare(req: Request, text: str, corpus: Corpus, ref: Reference) -> str | None:
    rows = list(csv.DictReader(io.StringIO(text)))
    if {row["instance"].removesuffix(".mcsp") for row in rows} != set(req.instances):
        return "compare rows do not cover exactly the shard's instances"
    for row in rows:
        if row["status"] != "ok":
            return f"{row['instance']} {row['algorithm']}: status {row['status']}"
        name = row["instance"].removesuffix(".mcsp")
        value, opt = int(row["value"]), int(row["oracle_opt"])
        if opt != ref.optimum(name):
            return f"{name}: oracle_opt {opt} differs from the reference {ref.optimum(name)}"
        if opt > 0 and Fraction(row["ratio"]) != Fraction(value, opt):
            return f"{name} {row['algorithm']}: ratio {row['ratio']} is not {value}/{opt}"
        if row["algorithm"] == "oracle" and (value != opt or row["ratio"] != "1/1"):
            return f"{name}: oracle row does not read 1/1"
        if row["algorithm"] == "parity-sat":
            m = corpus.instances[name].formula.num_constraints
            if (value == m) != (opt == m) or value not in (0, m):
                return f"{name}: parity-sat disagrees with the oracle"
        if value > opt:
            return f"{name} {row['algorithm']}: value {value} exceeds the optimum {opt}"
    return None


_MAJORITY_OUTPUTS = {"thr2maj", "cnf2maj"}


def _check_generate(req: Request, text: str) -> str | None:
    f = parse_instance(text)
    if req.argv[1] in _MAJORITY_OUTPUTS and any(c.kind is not Kind.MAJORITY for c in f.constraints):
        return f"{req.argv[1]} output holds non-MAJORITY constraints"
    if req.argv[1] == "mcc-thr" and "c fvs-witness-constraints" not in text:
        return "mcc-thr output lacks its FVS witness comment"
    return None


def approx_ratios(req: Request, out: Outcome) -> list[Fraction]:
    """value/oracle of the approximate results of one request, where known."""
    if req.command != "compare" or out.code != 0 or not out.written:
        return []
    return [
        Fraction(row["ratio"])
        for row in csv.DictReader(io.StringIO(out.written))
        if row["algorithm"] == "cw-as" and row["ratio"]
    ]


def result_count(req: Request, out: Outcome) -> int:
    """Solve, analyze and generate give one result; compare one per CSV row."""
    if out.code != 0:
        return 0
    if req.command == "compare":
        return max(len(out.written.splitlines()) - 1, 0) if out.written else 0
    return 1
