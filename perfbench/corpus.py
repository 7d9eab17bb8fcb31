"""Seeded corpora and request lists for the three benchmark workloads.

Everything here is built from the public ``maxcsp`` API only: the model
constructors, ``random_formula``, the ``reductions`` generators and
``serialize_instance``.  The same (workload, seed) pair gives byte-identical
files and the same request order.  Instance families are stratified (fixed
size lists, and for the 6-variable family a fixed optimum gap) so that the
cost of one pass over the requests varies little between seeds.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from maxcsp import (
    Constraint,
    Formula,
    Kind,
    Literal,
    MccGraph,
    complete_mcc,
    mcc_to_threshold,
    random_formula,
    serialize_instance,
)

THR2MAJ_DEFECT = "threshold_to_majority expects only THRESHOLD constraints"


@dataclass
class Instance:
    """One generated instance and what is known about it."""

    name: str
    family: str
    formula: Formula
    witness_size: int | None = None  # size of a planted witness, in incidence vertices
    witness_kind: str = "fvs"  # "fvs" or "cover"
    comments: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        head = "".join(f"c {line}\n" for line in self.comments)
        return head + serialize_instance(self.formula)

    @property
    def digest(self) -> str:
        return hashlib.sha256(serialize_instance(self.formula).encode("ascii")).hexdigest()

    def describe(self) -> dict:
        f = self.formula
        kinds = Counter(c.kind.value for c in f.constraints)
        return {
            "name": self.name,
            "family": self.family,
            "n": f.num_vars,
            "m": f.num_constraints,
            "kinds": dict(sorted(kinds.items())),
            "witness": None if self.witness_size is None else f"{self.witness_kind}<={self.witness_size}",
        }


@dataclass
class Request:
    """One ``maxcsp`` command line plus what the checker needs to judge it."""

    label: str  # request kind, e.g. "solve-tree"
    argv: list[str]
    instances: list[str] = field(default_factory=list)  # names of the inputs
    output: str | None = None  # file the command writes
    epsilon: str | None = None
    known_defect: str | None = None  # expected error text of a known defect

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Corpus:
    workload: str
    seed: int
    work_dir: str
    instances: dict[str, Instance]
    requests: list[Request]
    warmups: list[Request] = field(default_factory=list)  # one per label, the same instances on every seed

    def manifest(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "instances": [i.describe() for i in self.instances.values()],
            "requests": [r.argv for r in self.requests],
        }


def _formula(num_vars: int, constraints: list[Constraint], rng: random.Random) -> Formula:
    rng.shuffle(constraints)
    return Formula(num_vars, tuple(constraints))


def _lit(rng: random.Random, var: int) -> Literal:
    return Literal(var, bool(rng.getrandbits(1)))


def _threshold_like(rng: random.Random, variables: list[int]) -> Constraint:
    """THRESHOLD with a uniform threshold in [1, arity], or MAJORITY."""
    lits = tuple(_lit(rng, v) for v in variables)
    if rng.random() < 0.5:
        return Constraint(Kind.MAJORITY, lits)
    return Constraint(Kind.THRESHOLD, lits, threshold=rng.randint(1, len(lits)))


# ---------------------------------------------------------------- forests
#
# The forest families take two generators: ``topo`` fixes the incidence graph
# and the constraint order from the family and size alone, and ``rng`` (the
# workload seed) draws signs, kinds and thresholds.  The FVS search and the
# peel cost depend on the graph, so a pass costs nearly the same on every seed.


def path_instance(topo: random.Random, rng: random.Random, n: int) -> Formula:
    """x1 - c1 - x2 - ... - xn plus unit constraints: a forest incidence graph."""
    edges = [[v, v + 1] for v in range(1, n)] + [[topo.randint(1, n)] for _ in range(n // 4)]
    return _semantics(topo, rng, n, edges)


def caterpillar_instance(topo: random.Random, rng: random.Random, n: int) -> Formula:
    """A spine of binary constraints with legs of arity 2 or 3 hanging off it."""
    spine = n // 3
    edges = [[v, v + 1] for v in range(1, spine)]
    nxt = spine + 1
    while nxt <= n:
        width = min(topo.randint(1, 2), n - nxt + 1)
        legs = list(range(nxt, nxt + width))
        nxt += width
        edges.append([topo.randint(1, spine)] + legs)
        if topo.random() < 0.5:
            edges.append([legs[-1]])
    return _semantics(topo, rng, n, edges)


def hub_constraint_instance(topo: random.Random, rng: random.Random, n: int, hubs: int) -> Formula:
    """A random tree plus ``hubs`` constraints of arity 3 to 5; the hubs form an FVS."""
    edges = [[topo.randint(1, v - 1), v] for v in range(2, n + 1)]
    edges += [topo.sample(range(1, n + 1), topo.randint(3, 5)) for _ in range(hubs)]
    return _semantics(topo, rng, n, edges)


def hub_variable_instance(topo: random.Random, rng: random.Random, n: int, threads: int) -> Formula:
    """A random tree over x2..xn plus binary constraints tying x1 to it; {x1} is an FVS."""
    edges = [[topo.randint(2, v - 1), v] for v in range(3, n + 1)]
    edges += [[1, v] for v in topo.sample(range(2, n + 1), threads)]
    return _semantics(topo, rng, n, edges)


def _semantics(topo: random.Random, rng: random.Random, n: int, scopes: list[list[int]]) -> Formula:
    topo.shuffle(scopes)
    return Formula(n, tuple(_threshold_like(rng, scope) for scope in scopes))


# ---------------------------------------------------------------- small dense
#
# The residual search and the FVS search on these instances vary several-fold
# between random draws of one shape.  So each instance is drawn from a pool
# fixed by its position, and the workload seed negates a random subset of its
# variables everywhere: the incidence graph, the optimum and the searched
# subsets stay, the bytes and the optimal assignments change.


def negate_variables(rng: random.Random, f: Formula) -> Formula:
    """Flip the sign of every occurrence of a random subset of the variables."""
    flip = [False] + [bool(rng.getrandbits(1)) for _ in range(f.num_vars)]
    return Formula(
        f.num_vars,
        tuple(
            Constraint(
                c.kind,
                tuple(Literal(lit.var, lit.positive != flip[lit.var]) for lit in c.literals),
                parity_rhs=c.parity_rhs,
                threshold=c.threshold,
            )
            for c in f.constraints
        ),
    )


def _pool(family: str, index: int) -> random.Random:
    return random.Random(f"pool:{family}:{index}")


def cover_instance(rng: random.Random, n: int, cover_vars: int, cover_cons: int, outside: int) -> Formula:
    """Planted incidence vertex cover: variables 1..cover_vars plus the
    ``cover_cons`` wide constraints.  Every other constraint uses cover
    variables only."""
    cons = [_threshold_like(rng, rng.sample(range(1, n + 1), rng.randint(3, 6))) for _ in range(cover_cons)]
    cover = list(range(1, cover_vars + 1))
    cons += [_threshold_like(rng, rng.sample(cover, rng.randint(1, cover_vars))) for _ in range(outside)]
    return _formula(n, cons, rng)


def _satisfied(c: Constraint, bits: tuple[int, ...]) -> bool:
    true = sum(1 for lit in c.literals if bits[lit.var - 1] == int(lit.positive))
    need = c.threshold if c.kind is Kind.THRESHOLD else (c.arity + 1) // 2
    return true >= need


def optimum_gap(f: Formula) -> int:
    """m minus the optimum, by enumeration; only for the tiny 6-variable family."""
    best = max(
        sum(1 for c in f.constraints if _satisfied(c, bits))
        for bits in product((0, 1), repeat=f.num_vars)
    )
    return f.num_constraints - best


def six_variable_instance(rng: random.Random, m: int, gap: int) -> Formula:
    """First ``random_formula`` draw with 6 variables, m constraints and the given gap.

    The residual search of the cover solver grows with the gap, so fixing it
    keeps the per-instance cost close across seeds.
    """
    while True:
        f = random_formula(6, m, {Kind.THRESHOLD: 1, Kind.MAJORITY: 1}, (2, 4), rng.randrange(2**31))
        if optimum_gap(f) == gap:
            return f


# ---------------------------------------------------------------- builders


def first_of_each_label(requests: list[Request]) -> list[Request]:
    """The first request of every label; taken before the seeded shuffle, so
    the warm-up inputs sit at the same corpus positions on every seed."""
    first: dict[str, Request] = {}
    for r in requests:
        first.setdefault(r.label, r)
    return list(first.values())


class _Builder:
    def __init__(self, workload: str, seed: int, work_dir: str, workers: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.corpus = Corpus(workload, seed, work_dir, {}, [])
        self.workers = workers

    def path(self, *parts: str) -> str:
        return os.path.join(self.corpus.work_dir, *parts)

    def add(self, inst: Instance, subdir: str = "inst") -> str:
        self.corpus.instances[inst.name] = inst
        path = self.path(subdir, inst.name + ".mcsp")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(inst.text)
        return path

    def solve(self, label: str, inst: Instance, path: str, *extra: str, epsilon: str | None = None) -> Request:
        argv = ["solve", path, "--json", *extra]
        if epsilon is not None:
            argv += ["--epsilon", epsilon]
        return Request(label, argv, [inst.name], epsilon=epsilon)


def _topology(family: str, n: int) -> random.Random:
    return random.Random(f"topology:{family}:{n}")


TREE_SIZES = (200, 250, 300, 350, 400)
FVS_SIZES = (40, 45, 50, 55, 60)


def structured_solve(b: _Builder) -> list[Request]:
    rng, reqs = b.rng, []
    for n in TREE_SIZES:
        for shape, make in (("path", path_instance), ("caterpillar", caterpillar_instance)):
            inst = Instance(f"{shape}{n}", shape, make(_topology(shape, n), rng, n), 0)
            reqs.append(b.solve("solve-tree", inst, b.add(inst), "--alg", "tree"))
    for n in FVS_SIZES:
        for hubs in (1, 2):
            f = hub_constraint_instance(_topology(f"hubcon{hubs}", n), rng, n, hubs)
            inst = Instance(f"hubcon{n}-{hubs}", "hub-constraints", f, hubs)
            reqs.append(b.solve("solve-fvs-approx", inst, b.add(inst), "--alg", "fvs-as", epsilon="1/2"))
        inst = Instance(f"hubvar{n}", "hub-variable", hub_variable_instance(_topology("hubvar", n), rng, n, 4), 1)
        reqs.append(b.solve("solve-fvs-approx", inst, b.add(inst), "--alg", "fvs-as", epsilon="1/2"))
    b.corpus.warmups = first_of_each_label(reqs)
    rng.shuffle(reqs)
    return reqs


CNF_SIZES = (16, 18, 20)
SHARD_COPIES = 2


def oracle_compare(b: _Builder) -> list[Request]:
    rng, reqs = b.rng, []
    shard_kinds = (
        ("cnf", {Kind.OR: 1}, (1, 4), ["--algs", "oracle,cw-as", "--epsilons", "1/4,1/2"]),
        ("mixed", {k: 1 for k in Kind}, (1, 4), ["--algs", "oracle"]),
        ("parity", {Kind.PARITY: 1}, (2, 5), ["--algs", "oracle,parity-sat"]),
    )
    for family, mix, arity, algs in shard_kinds:
        for copy in range(SHARD_COPIES):
            shard = f"{family}{copy}"
            names = []
            for n in CNF_SIZES:
                # parity systems alternate between m < n (mostly consistent) and m > n
                m = (n - 2 if n % 4 else n + 4) if family == "parity" else 3 * n
                f = random_formula(n, m, mix, arity, rng.randrange(2**31))
                inst = Instance(f"{shard}-n{n}", family, f)
                b.add(inst, os.path.join("shards", shard))
                names.append(inst.name)
            out = b.path("out", shard + ".csv")
            argv = ["compare", "--dir", b.path("shards", shard), *algs, "--seed", "7", "--workers", str(b.workers), "-o", out]
            reqs.append(Request("compare-" + family, argv, names, output=out))
    os.makedirs(b.path("out"), exist_ok=True)
    for n in (40, 60, 80, 100, 120):
        for copy in range(4):
            units = random_formula(n, 10, {Kind.OR: 1}, (1, 1), rng.randrange(2**31))
            longs = random_formula(n, 10, {Kind.OR: 1}, (20, 20), rng.randrange(2**31))
            inst = Instance(f"balanced{n}-{copy}", "balanced-cnf", Formula(n, units.constraints + longs.constraints))
            reqs.append(
                b.solve("solve-cw-balanced", inst, b.add(inst), "--alg", "cw-as", "--window-exponent", "1", "--seed", str(copy), epsilon="2/5")
            )
    for n in (25, 30, 35, 40):
        for copy in range(2):
            f = random_formula(n, 40, {Kind.OR: 1}, (15, 16), rng.randrange(2**31))
            inst = Instance(f"longcnf{n}-{copy}", "long-cnf", f)
            reqs.append(
                b.solve("solve-cw-long", inst, b.add(inst), "--alg", "cw-as", "--window-exponent", "1", "--seed", str(copy), epsilon="3/10")
            )
    b.corpus.warmups = first_of_each_label(reqs)
    rng.shuffle(reqs)
    return reqs


SIX_VAR_STRATA = tuple((m, gap) for m in (16, 18, 20) for gap in (2, 3)) * 10
COVER_SHAPES = tuple((cover_vars, cover_cons) for cover_vars in (3, 4, 5) for cover_cons in (3, 4, 5)) + ((4, 4),) * 3


def exact_residual(b: _Builder) -> list[Request]:
    rng, reqs = b.rng, []
    dense: list[tuple[Instance, str]] = []
    for i, (cover_vars, cover_cons) in enumerate(COVER_SHAPES):
        pool = _pool("cover", i)
        f = cover_instance(pool, 16 + i % 6, cover_vars, cover_cons, pool.randint(4, 6))
        inst = Instance(f"cover{i}", "cover", negate_variables(rng, f), cover_vars + cover_cons, "cover")
        dense.append((inst, b.add(inst)))
    for i, (m, gap) in enumerate(SIX_VAR_STRATA):
        f = six_variable_instance(_pool("six", i), m, gap)
        inst = Instance(f"six{i}-m{m}-gap{gap}", "six-variable", negate_variables(rng, f), 6, "cover")
        dense.append((inst, b.add(inst)))
    # The four single-edge graphs and one of the two perfect matchings; gadgets of
    # denser graphs cost up to ten times more and would dominate the pass.
    edges = sorted(complete_mcc(2, 2).edges)
    graphs = [[e] for e in edges] + [rng.choice([[edges[0], edges[3]], [edges[1], edges[2]]])]
    for i, graph in enumerate(graphs):
        red = mcc_to_threshold(MccGraph(2, 2, frozenset(graph)))
        fvs = " ".join(map(str, red.fvs_constraints))
        f = negate_variables(rng, red.formula)
        inst = Instance(f"gadget{i}", "mcc-thr", f, len(red.fvs_constraints), "fvs", (f"fvs-witness-constraints {fvs}",))
        dense.append((inst, b.add(inst)))
    for inst, path in dense:
        reqs.append(b.solve("solve-vc", inst, path, "--alg", "vc"))
        reqs.append(Request("analyze", ["analyze", path, "--json"], [inst.name]))
        reqs.append(b.solve("solve-fvs-exact", inst, path, "--alg", "fvs-as", epsilon="1/4"))

    def gen(name: str) -> str:
        return b.path("gen", name)

    os.makedirs(b.path("gen"), exist_ok=True)
    thr_input = Instance("thr-input", "threshold", random_formula(12, 16, {Kind.THRESHOLD: 1}, (2, 5), rng.randrange(2**31)))
    thr_path = b.add(thr_input)
    mcc_seed = str(rng.randrange(1000))
    writes = [
        Request("generate", ["generate", "mcc-cnf", "-o", gen("cnf.mcsp"), "--k", "3", "--n", "2", "--edge-prob", "0.6", "--seed", mcc_seed], output=gen("cnf.mcsp")),
        Request("generate", ["generate", "mcc-dnf", "-o", gen("dnf.mcsp"), "--k", "3", "--n", "2", "--edge-prob", "0.6", "--seed", mcc_seed], output=gen("dnf.mcsp")),
        Request("generate", ["generate", "mcc-thr", "-o", gen("thr.mcsp"), "--k", "2", "--n", "2", "--complete"], output=gen("thr.mcsp")),
        Request("generate", ["generate", "cnf2maj", "-o", gen("cnf-maj.mcsp"), "--input", gen("cnf.mcsp")], output=gen("cnf-maj.mcsp")),
        Request("generate", ["generate", "thr2maj", "-o", gen("thr-maj.mcsp"), "--input", thr_path], [thr_input.name], output=gen("thr-maj.mcsp")),
        # README chain mcc-thr -> thr2maj: exits 1 because the gadget has OR links.
        Request(
            "generate",
            ["generate", "thr2maj", "-o", gen("gadget-maj.mcsp"), "--input", gen("thr.mcsp")],
            output=gen("gadget-maj.mcsp"),
            known_defect=THR2MAJ_DEFECT,
        ),
    ]
    b.corpus.warmups = first_of_each_label(reqs + writes)
    # Reads are shuffled; writes keep their chain order and are spread among them.
    rng.shuffle(reqs)
    stride = len(reqs) // len(writes)
    for k, w in enumerate(writes):
        reqs.insert(k * (stride + 1), w)
    return reqs


_BUILDERS = {
    "structured-solve": structured_solve,
    "oracle-compare": oracle_compare,
    "exact-residual": exact_residual,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, work_dir: str, workers: int = 2) -> Corpus:
    """Generate the corpus of ``workload`` for ``seed`` under ``work_dir``.

    ``workers`` is the ``compare --workers`` value; it changes no input.
    """
    b = _Builder(workload, seed, work_dir, workers)
    b.corpus.requests = _BUILDERS[workload](b)
    return b.corpus
