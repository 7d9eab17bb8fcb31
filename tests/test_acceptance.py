"""Acceptance suite: one test per criterion, each ending in a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from maxcsp import (
    Constraint,
    Formula,
    Kind,
    Literal,
    MccGraph,
    VertexSplit,
    approx_max_cnf,
    approx_via_fvs,
    as_threshold_formula,
    at_least,
    build_incidence_graph,
    clause_partition,
    cnf_to_majority,
    count_satisfied,
    edgeless_mcc,
    feedback_vertex_set,
    is_balanced,
    is_feedback_vertex_set,
    max_csp_bruteforce,
    mcc_to_cnf,
    mcc_to_dnf,
    mcc_to_threshold,
    neighborhood_diversity,
    normalize_parity,
    parity_gauss_satisfiable,
    plan_route,
    random_formula,
    random_mcc,
    select_sparse_variables,
    serialize_instance,
    solve_forest,
    solve_via_vertex_cover,
    threshold_to_majority,
)
from maxcsp.cli import main as cli_main

from helpers import (
    exhaustive_forest_threshold_formulas,
    expected_unsatisfied,
    half_guarantee_value,
    has_multicolored_clique,
    planted_satisfiable_cnf,
    random_cnf,
    random_cover_instance,
    random_fill,
    random_forest_formula,
    random_small_fvs_instance,
    satisfying_assignments,
)


def report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


# --------------------------------------------------------------------------
# shared instance pools


def _balanced_cnf(seed: int, units: int = 8, longs: int = 8, num_vars: int = 20) -> Formula:
    rng = random.Random(seed)
    clauses = []
    for _ in range(units):
        v = rng.randint(1, 4)
        clauses.append(Constraint(Kind.OR, (Literal(v, bool(rng.getrandbits(1))),)))
    for _ in range(longs):
        variables = rng.sample(range(1, num_vars + 1), 20)
        clauses.append(
            Constraint(Kind.OR, tuple(Literal(v, bool(rng.getrandbits(1))) for v in variables))
        )
    return Formula(num_vars, tuple(clauses))


BALANCED_EPS = Fraction(2, 5)
BALANCED_SEEDS = list(range(10))


@pytest.fixture(scope="module")
def reduction_pool():
    """Criterion 7 instance pool, shared with the criterion 8 audits."""
    k2 = []
    pairs = [((1, u), (2, v)) for u in (1, 2) for v in (1, 2)]
    for bits in itertools.product((0, 1), repeat=4):
        edges = frozenset(e for e, b in zip(pairs, bits) if b)
        k2.append(MccGraph(2, 2, edges))

    k3 = []
    attempts = 0
    strata = [0.25, 0.4, 0.55, 0.7]
    while len(k3) < 98 and attempts < 2000:
        p = strata[attempts % len(strata)]
        g = random_mcc(3, 2, p, 10_000 + attempts)
        attempts += 1
        vars_needed = mcc_to_threshold(g).formula.num_vars
        if vars_needed <= 22:
            k3.append(g)
    # force both outcomes into the pool
    k3.append(
        MccGraph(3, 2, frozenset({((1, 1), (2, 1)), ((1, 1), (3, 1)), ((2, 1), (3, 1))}))
    )
    k3.append(edgeless_mcc(3, 2))
    return {"k2": k2, "k3": k3}


# --------------------------------------------------------------------------


def test_criterion_01_forest_solver_exactness():
    from helpers import extended_forest_grammar, naive_max_value

    exhaustive = 0
    for f in extended_forest_grammar():
        assert f.num_vars + f.num_constraints <= 10
        assert solve_forest(f).value == naive_max_value(f)
        exhaustive += 1
    assert exhaustive > 10_000

    rng = random.Random(101)
    randoms = 0
    for _ in range(500):
        f = random_forest_formula(rng, max_vars=20, max_cons=12)
        assert solve_forest(f).value == max_csp_bruteforce(f).value
        randoms += 1
    report(1, "forest solver exactness", f"{exhaustive} exhaustive + {randoms} random, zero mismatches")


def test_criterion_02_half_guarantee():
    from helpers import extended_forest_grammar

    checked = 0
    for f in extended_forest_grammar():
        if all(c.threshold <= c.arity for c in f.constraints):
            assert 2 * half_guarantee_value(f) >= f.num_constraints
            checked += 1
    rng = random.Random(202)
    for _ in range(500):
        f = random_forest_formula(
            rng, max_vars=20, max_cons=12, threshold_within_arity=True
        )
        assert 2 * half_guarantee_value(f) >= f.num_constraints
        checked += 1
    report(2, "half guarantee", f"{checked} instances, zero exceptions")


def test_criterion_03_vc_solver_exactness():
    rng = random.Random(303)
    splits = [(2, 2), (1, 3), (3, 1), (0, 4), (4, 0), (2, 1)]
    checked = 0
    for i in range(200):
        cv, cc = splits[i % len(splits)]
        f, cover = random_cover_instance(
            rng, max_vars=14, cover_vars=cv, cover_cons=cc, extra_cons=rng.randint(2, 8)
        )
        assert cover.size <= 4
        res = solve_via_vertex_cover(f, cover)  # verifies the cover internally
        assert res.value == max_csp_bruteforce(f).value
        assert count_satisfied(f, res.witness) == res.value
        checked += 1
    report(3, "vc solver exactness", f"{checked} instances with cover size <= 4, zero mismatches")


def test_criterion_04_fvs_approx_guarantee():
    from helpers import random_fvs_variable_hub_instance

    rng = random.Random(404)
    checked = 0
    routes = {"exact-small": 0, "approx": 0}
    variable_guesses = 0
    for i in range(200):
        if i % 4 == 3:
            f, fvs = random_fvs_variable_hub_instance(
                rng, max_vars=12, max_cons=10, majority_only=True
            )
            variable_guesses += 1
        else:
            hubs = rng.randint(1, 2)
            f, fvs = random_small_fvs_instance(
                rng, max_vars=12, max_cons=10, hubs=hubs, majority_only=True
            )
        inc = build_incidence_graph(f)
        assert is_feedback_vertex_set(inc.graph, inc.vertices_of(fvs))
        assert fvs.size <= 2
        opt = max_csp_bruteforce(f).value
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            rep = approx_via_fvs(f, fvs, eps)
            assert Fraction(rep.value) >= (1 - eps) * opt
            routes[rep.route] += 1
        checked += 1
    assert routes["exact-small"] > 0 and routes["approx"] > 0
    assert variable_guesses > 0

    # route selection at the boundary m = floor((1 + 2/eps) * k)
    for eps in (Fraction(1, 4), Fraction(1, 2)):
        k = 1
        boundary = int((1 + 2 / eps) * k)
        for m, expected in ((boundary, "exact-small"), (boundary + 1, "approx")):
            fillers = tuple(at_least(1, i + 2) for i in range(m - 1))
            f = Formula(m + 1, (at_least(1, 1, 2),) + fillers)
            split = VertexSplit(frozenset(), frozenset({0}))
            assert plan_route(f, split, eps) == expected
            assert approx_via_fvs(f, split, eps).route == expected
    report(
        4,
        "fvs approximation guarantee",
        f"{checked} instances x 2 epsilons, routes {routes}, boundary exact",
    )


def test_criterion_05_cnf_approx_paths():
    # exact path: all clauses short, satisfiable by construction
    rng = random.Random(505)
    for i in range(20):
        n = rng.randint(8, 20)
        f = planted_satisfiable_cnf(rng, n, rng.randint(8, 20), [1, 2, 3])
        rep = approx_max_cnf(f, "0.3", seed=i)
        assert rep.route == "unbalanced-short"
        assert rep.value == f.num_constraints
        if n <= 14:
            assert rep.value == max_csp_bruteforce(f).value

    # random path: mean unsatisfied over 2000 samples within 3 standard errors
    rng = random.Random(606)
    f = random_cnf(rng, num_vars=30, num_clauses=100, arities=[10, 11, 12])
    mu = float(expected_unsatisfied(f))
    assert mu <= 100 * 2**-10 < 1
    gen = np.random.default_rng(4242)
    samples = gen.integers(0, 2, size=(2000, f.num_vars), dtype=np.uint8)
    unsat = np.zeros(2000, dtype=np.int32)
    for c in f.constraints:
        sat = np.zeros(2000, dtype=bool)
        for lit in c.literals:
            sat |= samples[:, lit.var - 1] == (1 if lit.positive else 0)
        unsat += ~sat
    mean = unsat.mean()
    sd = unsat.std(ddof=1)
    se = sd / np.sqrt(len(unsat)) if sd > 0 else 1e-9
    assert abs(mean - mu) <= 3 * se

    # end to end on mixed instances with oracle-computable optimum
    eps = Fraction("0.49")
    rng = random.Random(707)
    checked = 0
    for i in range(50):
        if i % 2 == 0:
            f = random_cnf(rng, rng.randint(8, 16), rng.randint(10, 24), [1, 2, 3])
        else:
            short = random_cnf(rng, 16, rng.randint(12, 18), [1, 2, 3])
            longs = random_cnf(rng, 16, max(2, len(short.constraints) // 5), [12, 13])
            f = Formula(16, short.constraints + longs.constraints)
        opt = max_csp_bruteforce(f).value
        rep = approx_max_cnf(f, eps, seed=i, trials=32)
        assert Fraction(rep.value) >= (1 - eps) * opt
        checked += 1

    # balanced branch under a reduced window exponent: never below the two
    # baseline strategies (exact short side + random fill, all random)
    from maxcsp.cnf_approx import _project_and_solve
    from maxcsp.oracle import max_csp_bruteforce as backend

    balanced_runs = 0
    for seed in BALANCED_SEEDS:
        f = _balanced_cnf(seed)
        part = clause_partition(f, BALANCED_EPS * BALANCED_EPS, window_exponent=1)
        assert is_balanced(part, BALANCED_EPS)
        rep = approx_max_cnf(f, BALANCED_EPS, seed=seed, trials=8, window_exponent=1)
        assert rep.route == "balanced"
        base_short = _project_and_solve(f, part.short, backend)
        for trial in range(8):
            cand_short = random_fill(base_short, f.num_vars, random.Random(f"{seed}:{trial}:short"))
            cand_rand = random_fill({}, f.num_vars, random.Random(f"{seed}:{trial}:rand"))
            assert rep.value >= count_satisfied(f, cand_short)
            assert rep.value >= count_satisfied(f, cand_rand)
        balanced_runs += 1

    # long side dominating under the reduced exponent
    rng = random.Random(808)
    for i in range(3):
        f = random_cnf(rng, 24, 30, [15, 16])
        opt = max_csp_bruteforce(f, var_limit=24).value
        rep = approx_max_cnf(f, "0.3", seed=i, trials=32, window_exponent=1)
        assert rep.route == "unbalanced-long"
        assert Fraction(rep.value) >= (1 - Fraction(3, 10)) * opt

    report(
        5,
        "cnf approximation paths",
        f"20 exact-path, 2000-sample expectation, {checked} mixed >= (1-eps)OPT, "
        f"{balanced_runs} balanced >= baselines, 3 long-route",
    )


def test_criterion_06_sparse_selection_invariants():
    checked = 0
    for seed in BALANCED_SEEDS:
        f = _balanced_cnf(seed)
        m = f.num_constraints
        part = clause_partition(f, BALANCED_EPS * BALANCED_EPS, window_exponent=1)
        sel = select_sparse_variables(part, BALANCED_EPS)  # raises on violation
        chosen = set(sel.variables)
        touched_short = sum(
            1 for j in part.short if any(v in chosen for v in f.constraints[j].variables)
        )
        few_chosen_long = sum(
            1
            for j in part.long
            if Fraction(sum(1 for v in f.constraints[j].variables if v in chosen))
            * BALANCED_EPS
            <= 1
        )
        assert Fraction(touched_short) <= BALANCED_EPS * m / 4
        assert Fraction(few_chosen_long) <= BALANCED_EPS * BALANCED_EPS * m
        assert Fraction(len(chosen)) <= m / BALANCED_EPS
        checked += 1
    report(6, "sparse-selection invariants", f"{checked} balanced runs, zero violations")


def test_criterion_07_reduction_correctness(reduction_pool):
    cnf_checked = thr_checked = dnf_checked = 0
    sat_seen = unsat_seen = 0
    for g in reduction_pool["k2"] + reduction_pool["k3"]:
        clique = has_multicolored_clique(g)
        sat_seen += clique
        unsat_seen += not clique

        cnf = mcc_to_cnf(g).formula
        cnf_sat = max_csp_bruteforce(cnf).value == cnf.num_constraints
        assert cnf_sat == clique
        cnf_checked += 1

        thr = mcc_to_threshold(g).formula
        thr_res = max_csp_bruteforce(thr, var_limit=22)
        assert (thr_res.value == thr.num_constraints) == clique
        thr_checked += 1

        dnf = mcc_to_dnf(g)
        opt = max_csp_bruteforce(dnf.formula).value
        assert (opt == dnf.target) == clique
        assert opt <= dnf.target
        dnf_checked += 1
    assert len(reduction_pool["k2"]) == 16
    assert len(reduction_pool["k3"]) >= 100
    assert sat_seen >= 5 and unsat_seen >= 5
    report(
        7,
        "reduction correctness",
        f"{cnf_checked} cnf / {thr_checked} threshold / {dnf_checked} dnf instances, "
        f"{sat_seen} with cliques, {unsat_seen} without",
    )


def test_criterion_08_structural_audits(reduction_pool):
    nd_checked = fvs_checked = maj_nd_checked = fvs_preserved = 0
    for label, graphs in (("k2", reduction_pool["k2"]), ("k3", reduction_pool["k3"])):
        for g in graphs:
            k = g.parts
            nd_bound = k + k * (k - 1) // 2
            fvs_bound = 2 * k + 4 * (k * (k - 1) // 2)

            cnf = mcc_to_cnf(g).formula
            nd_in = neighborhood_diversity(build_incidence_graph(cnf).graph).k
            assert nd_in <= nd_bound
            nd_checked += 1

            maj = cnf_to_majority(cnf)
            nd_out = neighborhood_diversity(build_incidence_graph(maj).graph).k
            assert nd_out <= 2 * nd_in
            maj_nd_checked += 1

            red = mcc_to_threshold(g)
            inc = build_incidence_graph(red.formula)
            witness = [inc.constraint_vertex(j) for j in red.fvs_constraints]
            assert len(witness) == fvs_bound
            assert is_feedback_vertex_set(inc.graph, witness)
            converted = threshold_to_majority(as_threshold_formula(red.formula))
            inc2 = build_incidence_graph(converted)
            witness2 = [inc2.constraint_vertex(j) for j in red.fvs_constraints]
            assert is_feedback_vertex_set(inc2.graph, witness2)
            fvs_checked += 1

            if label == "k2":
                exact = feedback_vertex_set(inc.graph, fvs_bound)
                assert exact.size is not None and exact.size <= fvs_bound
                exact2 = feedback_vertex_set(inc2.graph, fvs_bound)
                assert exact2.size == exact.size
                fvs_preserved += 1

    # exact fvs preservation on small random threshold instances as well
    rng = random.Random(909)
    for trial in range(10):
        n = rng.randint(2, 6)
        f = random_formula(n, rng.randint(1, 5), {"THRESHOLD": 1}, (1, min(3, n)), seed=trial)
        a = feedback_vertex_set(build_incidence_graph(f).graph, 6)
        b = feedback_vertex_set(build_incidence_graph(threshold_to_majority(f)).graph, 6)
        assert a.size == b.size
        fvs_preserved += 1
    report(
        8,
        "structural audits",
        f"nd bound x{nd_checked}, majority nd doubling x{maj_nd_checked}, "
        f"fvs witness x{fvs_checked}, exact fvs preservation x{fvs_preserved}",
    )


def test_criterion_09_conversion_equisatisfiability():
    rng = random.Random(111)
    thr_checked = 0
    while thr_checked < 100:
        n = rng.randint(2, 10)
        f = random_formula(
            n, rng.randint(1, 4), {"THRESHOLD": 1}, (1, min(4, n)), seed=5000 + thr_checked * 7 + n
        )
        out = threshold_to_majority(f)
        if out.num_vars > 22:
            continue
        sat_in = max_csp_bruteforce(f).value == f.num_constraints
        sat_out = max_csp_bruteforce(out, var_limit=22).value == out.num_constraints
        assert sat_in == sat_out
        thr_checked += 1

    cnf_checked = 0
    while cnf_checked < 100:
        n = rng.randint(2, 8)
        f = random_formula(
            n, rng.randint(1, 6), {"OR": 1}, (1, min(3, n)), seed=9000 + cnf_checked * 11 + n
        )
        out = cnf_to_majority(f)
        sat_in = max_csp_bruteforce(f).value == f.num_constraints
        sat_out = max_csp_bruteforce(out, var_limit=22).value == out.num_constraints
        assert sat_in == sat_out
        cnf_checked += 1
    report(
        9,
        "conversion equisatisfiability",
        f"{thr_checked} threshold-to-majority + {cnf_checked} cnf-to-majority, zero exceptions",
    )


def test_criterion_10_parity_consistency():
    rng = random.Random(222)
    checked = 0
    sat_seen = unsat_seen = 0
    for trial in range(300):
        n = rng.randint(1, 15)
        f = random_formula(
            n, rng.randint(1, 12), {"PARITY": 1}, (1, min(5, n)), seed=3000 + trial
        )
        sat, witness = parity_gauss_satisfiable(f)
        opt = max_csp_bruteforce(f).value
        assert sat == (opt == f.num_constraints)
        if sat:
            assert count_satisfied(f, witness) == f.num_constraints
            sat_seen += 1
        else:
            unsat_seen += 1
        checked += 1
    assert sat_seen > 0 and unsat_seen > 0

    normalized = 0
    for arity in range(0, 5):
        variables = tuple(range(1, arity + 1))
        for signs in itertools.product((True, False), repeat=arity):
            for rhs in (0, 1):
                c = Constraint(
                    Kind.PARITY,
                    tuple(Literal(v, s) for v, s in zip(variables, signs)),
                    parity_rhs=rhs,
                )
                norm = normalize_parity(c)
                assert all(lit.positive for lit in norm.literals)
                assert satisfying_assignments(c, variables) == satisfying_assignments(
                    norm, variables
                )
                normalized += 1
    report(
        10,
        "parity consistency",
        f"{checked} systems vs oracle ({sat_seen} sat, {unsat_seen} unsat), "
        f"{normalized} normalizations exhaustive",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    forest = Formula(
        3, (at_least(1, 1, 2), at_least(1, -1), at_least(2, 2, 3), at_least(1, -3))
    )
    inst = tmp_path / "inst.mcsp"
    inst.write_text(serialize_instance(forest))
    cnf = tmp_path / "cnf.mcsp"
    cnf.write_text(serialize_instance(random_cnf(random.Random(5), 8, 10, [1, 2, 3])))

    def capture(argv):
        code = cli_main(argv)
        assert code == 0
        return capsys.readouterr().out.encode()

    invocations = [
        ["analyze", str(inst), "--json"],
        ["solve", "--alg", "oracle", str(inst), "--json", "--with-oracle"],
        ["solve", "--alg", "tree", str(inst), "--json"],
        ["solve", "--alg", "vc", str(inst), "--json"],
        ["solve", "--alg", "fvs-as", "--epsilon", "0.25", str(inst), "--json"],
        ["solve", "--alg", "cw-as", "--epsilon", "0.3", "--seed", "11", "--trials", "8", str(cnf), "--json"],
    ]
    for argv in invocations:
        assert capture(argv) == capture(argv), f"non-deterministic output for {argv}"

    for i, args in enumerate(
        [
            ["generate", "random", "--num-vars", "6", "--num-constraints", "9",
             "--kinds", "OR=1,PARITY=1,THRESHOLD=1", "--arity-min", "1",
             "--arity-max", "3", "--seed", "21"],
            ["generate", "mcc-thr", "--k", "2", "--n", "2", "--edge-prob", "0.5", "--seed", "3"],
        ]
    ):
        out1, out2 = tmp_path / f"g{i}a.mcsp", tmp_path / f"g{i}b.mcsp"
        assert cli_main(args + ["-o", str(out1)]) == 0
        assert cli_main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = random.Random(33)
    for i in range(4):
        f = random_forest_formula(rng, max_vars=8, max_cons=6)
        (corpus / f"f{i}.mcsp").write_text(serialize_instance(f))
    compare_args = [
        "compare", "--algs", "oracle,tree,fvs-as", "--epsilons", "0.25,0.5",
        "--dir", str(corpus), "--seed", "4", "--workers", "2",
    ]
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert cli_main(compare_args + ["-o", str(out1)]) == 0
    assert cli_main(compare_args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()

    # one out-of-process run to confirm the installed entry point behaves
    proc1 = subprocess.run(
        [sys.executable, "-m", "maxcsp", "solve", "--alg", "tree", str(inst), "--json"],
        capture_output=True,
    )
    proc2 = subprocess.run(
        [sys.executable, "-m", "maxcsp", "solve", "--alg", "tree", str(inst), "--json"],
        capture_output=True,
    )
    assert proc1.returncode == proc2.returncode == 0
    assert proc1.stdout == proc2.stdout
    report(11, "cli determinism", "8 invocation kinds byte-identical, parallel compare included")
