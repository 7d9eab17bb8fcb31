import concurrent.futures
import json
import os
import subprocess
import sys
import time

import pytest

from maxcsp import (
    Formula,
    Kind,
    at_least,
    instance_digest,
    or_clause,
    parity,
    parse_instance,
    serialize_instance,
)
from maxcsp import cli, cover_solver
from maxcsp.cli import main

FOREST = "p mcsp 2 3\nt 1 1 2 0\nt 1 -1 0\nt 1 -2 0\n"
CYCLIC = "p mcsp 2 2\nt 1 1 2 0\nt 2 1 2 0\n"
PARITY = "p mcsp 3 3\nx 1 1 2 0\nx 1 2 3 0\nx 1 1 3 0\n"
PARITY_SAT = "p mcsp 3 2\nx 1 1 2 0\nx 0 2 3 0\n"
MIXED = "p mcsp 4 5\no 1 -2 0\na 2 3 0\nx 1 1 3 4 0\nt 2 -1 2 4 0\nm -3 -4 1 0\n"
THRESHOLD_MIX = "p mcsp 4 5\no 1 -2 0\na 2 3 0\nt 2 -1 2 4 0\nm -3 -4 1 0\nt 1 -4 0\n"
# variable 5 occurs nowhere, so its bit in the cw-as witness comes from the seed
CNF = "p mcsp 5 5\no 1 2 0\no -1 3 0\no -2 -3 0\no 1 2 3 4 0\no -4 0\n"


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_json(tmp_path, capsys):
    path = write(tmp_path, "a.mcsp", FOREST)
    code, out = run_cli(capsys, "analyze", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["num_vars"] == 2
    assert payload["fvs"]["size"] == 0
    assert payload["vc"]["status"] == "ok"


def test_solve_oracle_and_tree_agree(tmp_path, capsys):
    path = write(tmp_path, "a.mcsp", FOREST)
    code, out1 = run_cli(capsys, "solve", "--alg", "oracle", path, "--json")
    assert code == 0
    code, out2 = run_cli(capsys, "solve", "--alg", "tree", path, "--json")
    assert code == 0
    assert json.loads(out1)["value"] == json.loads(out2)["value"] == 2


def test_solve_tree_on_cyclic_is_precondition_error(tmp_path, capsys):
    path = write(tmp_path, "a.mcsp", CYCLIC)
    code, _ = run_cli(capsys, "solve", "--alg", "tree", path)
    assert code == 2


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.mcsp", "p mcsp 1 1\no 1 -1 0\n")
    code, _ = run_cli(capsys, "solve", "--alg", "oracle", path)
    assert code == 1


def test_solve_oracle_limit_exit_code(tmp_path, capsys):
    f = Formula(6, (or_clause(1),))
    path = write(tmp_path, "big.mcsp", serialize_instance(f))
    code, _ = run_cli(capsys, "solve", "--alg", "oracle", path, "--oracle-limit", "4")
    assert code == 3


def test_solve_parity_sat(tmp_path, capsys):
    path = write(tmp_path, "p.mcsp", PARITY)
    code, out = run_cli(capsys, "solve", "--alg", "parity-sat", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfiable"] is False and payload["witness"] is None


def test_solve_vc_and_fvs(tmp_path, capsys):
    path = write(tmp_path, "a.mcsp", FOREST)
    code, out = run_cli(capsys, "solve", "--alg", "vc", path, "--json", "--with-oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == payload["oracle_value"] == 2
    assert payload["ratio"] == "1/1"
    code, out = run_cli(
        capsys, "solve", "--alg", "fvs-as", "--epsilon", "0.25", path, "--json"
    )
    assert code == 0
    assert json.loads(out)["epsilon"] == "1/4"


def test_solve_missing_epsilon(tmp_path, capsys):
    path = write(tmp_path, "a.mcsp", FOREST)
    code, _ = run_cli(capsys, "solve", "--alg", "fvs-as", path)
    assert code == 2


# (instance, solve options, the exact `solve --json` output)
PINNED_SOLVE_JSON = [
    (MIXED, ["--alg", "oracle"], '''\
{
  "algorithm": "oracle",
  "epsilon": null,
  "instance_digest": "353ca042dbcdb1b07e93765ade15ed137d5331dc49cf7669e170b9df3062eb3f",
  "oracle_value": null,
  "ratio": null,
  "route": null,
  "satisfiable": null,
  "seed": null,
  "trials": null,
  "value": 4,
  "witness": "1111"
}
'''),
    (FOREST, ["--alg", "tree"], '''\
{
  "algorithm": "tree",
  "epsilon": null,
  "instance_digest": "94fec349a310a6f63d8d4f70a7dc6cec64473c1efb70243f4078c4f578e7f733",
  "oracle_value": null,
  "ratio": null,
  "route": null,
  "satisfiable": null,
  "seed": null,
  "trials": null,
  "value": 2,
  "witness": "10"
}
'''),
    (THRESHOLD_MIX, ["--alg", "vc"], '''\
{
  "algorithm": "vc",
  "epsilon": null,
  "instance_digest": "2c288072a012f9eebd784f011789fe571ec41865dfa0b4b6c6cb3ffe26184a18",
  "oracle_value": null,
  "ratio": null,
  "route": null,
  "satisfiable": null,
  "seed": null,
  "trials": null,
  "value": 4,
  "witness": "1110"
}
'''),
    (FOREST, ["--alg", "fvs-as", "--epsilon", "1/4"], '''\
{
  "algorithm": "fvs-as",
  "epsilon": "1/4",
  "instance_digest": "94fec349a310a6f63d8d4f70a7dc6cec64473c1efb70243f4078c4f578e7f733",
  "oracle_value": null,
  "ratio": null,
  "route": "approx",
  "satisfiable": null,
  "seed": null,
  "trials": null,
  "value": 2,
  "witness": "10"
}
'''),
    (CYCLIC, ["--alg", "fvs-as", "--epsilon", "0.5"], '''\
{
  "algorithm": "fvs-as",
  "epsilon": "1/2",
  "instance_digest": "ac03655f5c2333a11cc32d793fed13dc83d993fd62a495d177e9a5b5ff0e57af",
  "oracle_value": null,
  "ratio": null,
  "route": "exact-small",
  "satisfiable": null,
  "seed": null,
  "trials": null,
  "value": 2,
  "witness": "11"
}
'''),
    (CNF, ["--alg", "cw-as", "--epsilon", "1/4", "--seed", "7", "--trials", "3"], '''\
{
  "algorithm": "cw-as",
  "epsilon": "1/4",
  "instance_digest": "249947725486d2ca685c54e6f2321e042ef585124e28d6e535b9582e2f4aea7a",
  "oracle_value": null,
  "ratio": null,
  "route": "unbalanced-short",
  "satisfiable": null,
  "seed": 7,
  "trials": 3,
  "value": 5,
  "witness": "01000"
}
'''),
    (PARITY_SAT, ["--alg", "parity-sat"], '''\
{
  "algorithm": "parity-sat",
  "epsilon": null,
  "instance_digest": "44aa477dcec716dc5d64326c96b504c86ea02524ed810197d2274fd53bdc7018",
  "oracle_value": null,
  "ratio": null,
  "route": null,
  "satisfiable": true,
  "seed": null,
  "trials": null,
  "value": 2,
  "witness": "100"
}
'''),
    (PARITY, ["--alg", "parity-sat"], '''\
{
  "algorithm": "parity-sat",
  "epsilon": null,
  "instance_digest": "aa64c3783559a982a938531faad4d8cf799b8f0c12cd99129ec371c160b818df",
  "oracle_value": null,
  "ratio": null,
  "route": null,
  "satisfiable": false,
  "seed": null,
  "trials": null,
  "value": 0,
  "witness": null
}
'''),
    (THRESHOLD_MIX, ["--alg", "vc", "--with-oracle"], '''\
{
  "algorithm": "vc",
  "epsilon": null,
  "instance_digest": "2c288072a012f9eebd784f011789fe571ec41865dfa0b4b6c6cb3ffe26184a18",
  "oracle_value": 4,
  "ratio": "1/1",
  "route": null,
  "satisfiable": null,
  "seed": null,
  "trials": null,
  "value": 4,
  "witness": "1110"
}
'''),
]


@pytest.mark.parametrize("text, argv, expected", PINNED_SOLVE_JSON)
def test_solve_json_bytes_are_pinned(tmp_path, capsys, text, argv, expected):
    # The report's bytes, every field included, are fixed for each algorithm,
    # and only this output prints the instance digest.
    path = write(tmp_path, "a.mcsp", text)
    code, out = run_cli(capsys, "solve", path, "--json", *argv)
    assert code == 0
    assert out == expected
    assert json.loads(out)["instance_digest"] == instance_digest(parse_instance(text))


# a six-variable THRESHOLD/MAJORITY instance and a planted-cover instance, as in
# the benchmark's exact-residual corpus
SIX_VARIABLE = (
    "p mcsp 6 16\nt 1 -2 -6 0\nm -4 3 1 -6 0\nm 2 -1 0\nm 6 5 0\nm 6 -5 -4 -2 0\nm 1 3 -5 0\n"
    "m -2 1 4 5 0\nt 1 -3 -2 0\nt 1 3 -1 5 -6 0\nt 1 -3 -5 -2 0\nm 3 6 1 0\nm -5 -2 -3 -4 0\n"
    "t 2 -5 2 3 0\nm -2 5 -6 4 0\nt 1 1 5 0\nm 3 6 1 0\n"
)
PLANTED_COVER = "p mcsp 16 8\nm 5 -12 -14 0\nm -2 -3 0\nm 10 13 5 14 -4 -2 0\nt 1 8 1 6 -2 16 0\nt 1 -1 -2 0\nt 1 1 0\nm 3 0\nm -2 0\n"
# the arguments of a `generate` that writes the instance
GADGET = ["mcc-thr", "--k", "2", "--n", "2", "--complete"]


def _budgeted(budget, size=None, variables=(), constraints=()):
    if size is None:
        return {"budget": budget, "size": None, "status": "exceeds-budget", "witness": None}
    witness = {"constraints": list(constraints), "variables": list(variables)}
    return {"budget": budget, "size": size, "status": "ok", "witness": witness}


# (instance text or generate arguments, analyze options, the `analyze --json`
# payload); the output's bytes are that payload as `json.dumps(indent=2,
# sort_keys=True)` prints it
PINNED_ANALYZE_JSON = [
    (SIX_VARIABLE, [], {
        "fvs": _budgeted(12, 5, [1, 2, 3, 4, 5]),
        "instance_digest": "7a03065cbecadafbd8e2483eed213ece59807a9cf8987041687bebfcd256afdd",
        "nd": 19, "nd_class_sizes": [2, 2, 2] + [1] * 16,
        "num_constraints": 16, "num_vars": 6, "occ": 49,
        "vc": _budgeted(16, 6, [1, 2, 3, 4, 5, 6]),
    }),
    (PLANTED_COVER, [], {
        "fvs": _budgeted(12, 2, [1, 5]),
        "instance_digest": "497be6ba4fbba201bdbfd695b03956bfd9007fa092f598e5013db72ee8643849",
        "nd": 16, "nd_class_sizes": [4, 3, 3, 2] + [1] * 12,
        "num_constraints": 8, "num_vars": 16, "occ": 21,
        "vc": _budgeted(16, 6, [1, 2, 3], [0, 2, 3]),
    }),
    (GADGET, [], {
        "fvs": _budgeted(12, 6, [1, 2, 4], [8, 14, 15]),
        "instance_digest": "7e7dc0f684fc3169e0280256ea4c0aa3c4bdd15c4f17accef6b274100ed7a23d",
        "nd": 27, "nd_class_sizes": [2] + [1] * 26,
        "num_constraints": 16, "num_vars": 12, "occ": 50,
        "vc": _budgeted(16, 12, range(1, 13)),
    }),
    (GADGET, ["--max-vc", "5", "--max-fvs", "5"], {
        "fvs": _budgeted(5),
        "instance_digest": "7e7dc0f684fc3169e0280256ea4c0aa3c4bdd15c4f17accef6b274100ed7a23d",
        "nd": 27, "nd_class_sizes": [2] + [1] * 26,
        "num_constraints": 16, "num_vars": 12, "occ": 50,
        "vc": _budgeted(5),
    }),
    (MIXED, ["--max-vc", "1", "--max-fvs", "0"], {
        "fvs": _budgeted(0),
        "instance_digest": "353ca042dbcdb1b07e93765ade15ed137d5331dc49cf7669e170b9df3062eb3f",
        "nd": 8, "nd_class_sizes": [2, 1, 1, 1, 1, 1, 1, 1],
        "num_constraints": 5, "num_vars": 4, "occ": 13,
        "vc": _budgeted(1),
    }),
    ("p mcsp 0 0\n", [], {
        "fvs": _budgeted(12, 0),
        "instance_digest": "ff25cb64fd7a92cd5c80357fdde96a1237fcfb52096aa5d77ea38d5b34f36a01",
        "nd": 0, "nd_class_sizes": [],
        "num_constraints": 0, "num_vars": 0, "occ": 0,
        "vc": _budgeted(16, 0),
    }),
]


@pytest.mark.parametrize("source, argv, expected", PINNED_ANALYZE_JSON)
def test_analyze_json_bytes_are_pinned(tmp_path, capsys, source, argv, expected):
    path = str(tmp_path / "a.mcsp")
    if isinstance(source, list):
        assert main(["generate", *source, "-o", path]) == 0
    else:
        write(tmp_path, "a.mcsp", source)
    code, out = run_cli(capsys, "analyze", path, "--json", *argv)
    assert code == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "{file}", "--alg", "cw-as", "--epsilon", "abc"], "'abc'"),
        (["solve", "{file}", "--alg", "cw-as", "--epsilon", "1/0"], "'1/0'"),
        (["solve", "{file}", "--alg", "fvs-as", "--epsilon", "0.5x"], "'0.5x'"),
        (["compare", "--algs", "oracle,cw-as", "--epsilons", "abc", "--dir", "{dir}", "-o", "{out}"], "'abc'"),
        (["generate", "random", "-o", "{out}", "--kinds", "FOO=1"], "'FOO'"),
        (["generate", "random", "-o", "{out}", "--kinds", "OR=x"], "'x'"),
        (["solve", "{dir}/missing.mcsp", "--alg", "oracle"], "missing.mcsp"),
        (["generate", "thr2maj", "-o", "{out}", "--input", "{dir}/missing.mcsp"], "missing.mcsp"),
        (["compare", "--algs", "oracle", "--dir", "{dir}/missing", "-o", "{out}"], "missing"),
        (["generate", "random", "-o", "{out}", "--num-vars", "3", "--num-constraints", "-2"], "-2 constraints"),
        (["generate", "random", "-o", "{out}", "--num-vars", "-1"], "-1 variables"),
        (["generate", "mcc-cnf", "-o", "{out}", "--k", "2", "--n", "2", "--edge-prob", "2"], "got 2.0"),
        (["generate", "mcc-cnf", "-o", "{out}", "--k", "2", "--n", "2", "--edge-prob", "nan"], "got nan"),
        (["solve", "{file}", "--alg", "cw-as", "--epsilon", "1/4", "--window-exponent", "-1"], "got -1"),
        (["solve", "{file}", "--alg", "cw-as", "--epsilon", "1/4", "--window-exponent", "0"], "got 0"),
        (["compare", "--algs", "oracle", "--dir", "{dir}", "--workers", "0", "-o", "{out}"], "got 0"),
        (["compare", "--algs", "oracle", "--dir", "{dir}", "--workers", "-5", "-o", "{out}"], "got -5"),
        (["solve", "{file}", "--alg", "cw-as", "--epsilon", "1/4", "--trials", "0"], "trials must be at least 1, got 0"),
        (["compare", "--algs", "cw-as", "--epsilons", "1/4", "--dir", "{dir}", "--trials", "0", "-o", "{out}"],
         "trials must be at least 1, got 0"),
        (["solve", "{file}", "--alg", "oracle", "--oracle-limit", "-1"], "oracle-limit must be at least 0, got -1"),
        # the options are checked whatever the algorithm, also one that reads none of them
        (["solve", "{file}", "--alg", "tree", "--trials", "0"], "trials must be at least 1, got 0"),
        (["compare", "--algs", "oracle", "--dir", "{dir}", "--oracle-limit", "-1", "-o", "{out}"],
         "oracle-limit must be at least 0, got -1"),
    ],
)
def test_bad_arguments_and_paths_exit_1_with_an_error_line(tmp_path, capsys, argv, message):
    # a CNF forest, so cw-as and fvs-as reach their epsilon
    file = write(tmp_path, "a.mcsp", "p mcsp 2 2\no 1 2 0\no -1 0\n")
    out = str(tmp_path / "out.txt")
    argv = [a.format(file=file, dir=tmp_path, out=out) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "sources, given",
    [
        (["--complete", "--edgeless", "--edge-prob", "0.3"], "--complete, --edgeless, --edge-prob"),
        (["--complete", "--edge-prob", "0.3"], "--complete, --edge-prob"),
        (["--edgeless", "--edge-prob", "0.3"], "--edgeless, --edge-prob"),
        (["--graph", "{graph}", "--complete"], "--graph, --complete"),
        (["--graph", "{graph}", "--edgeless"], "--graph, --edgeless"),
        (["--graph", "{graph}", "--edge-prob", "0.3"], "--graph, --edge-prob"),
    ],
)
def test_generate_graph_sources_exclude_each_other(tmp_path, capsys, sources, given):
    graph = str(tmp_path / "g.mcc")
    out = str(tmp_path / "c.mcsp")
    sources = [a.format(graph=graph) for a in sources]
    assert main(["generate", "mcc-cnf", "-o", out, "--k", "2", "--n", "2", *sources]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and f"got {given}" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("what", ["mcc-cnf", "mcc-dnf", "mcc-thr"])
@pytest.mark.parametrize(
    "sizes, given",
    [(["--k", "2"], "--k"), (["--n", "2"], "--n"), (["--k", "5", "--n", "7"], "--k, --n")],
)
def test_generate_graph_gives_k_and_n(tmp_path, capsys, what, sizes, given):
    graph = write(tmp_path, "g.mcc", "p mcc 2 2\ne 1 1 2 2\n")
    out = str(tmp_path / "c.mcsp")
    assert main(["generate", what, "-o", out, "--graph", graph, *sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and f"got {given}" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not os.path.exists(out)
    assert main(["generate", what, "-o", out, "--graph", graph]) == 0
    assert "c mcc k=2 n=2 edges=1" in (tmp_path / "c.mcsp").read_text()


def test_generate_random_deterministic(tmp_path, capsys):
    out1 = str(tmp_path / "r1.mcsp")
    out2 = str(tmp_path / "r2.mcsp")
    for out in (out1, out2):
        code = main(
            [
                "generate", "random", "-o", out,
                "--num-vars", "6", "--num-constraints", "8",
                "--kinds", "OR=1,THRESHOLD=2", "--arity-min", "1",
                "--arity-max", "3", "--seed", "9",
            ]
        )
        assert code == 0
    assert (tmp_path / "r1.mcsp").read_bytes() == (tmp_path / "r2.mcsp").read_bytes()


def test_generate_mcc_chain(tmp_path, capsys):
    graph = str(tmp_path / "g.mcc")
    code = main(["generate", "mcc-thr", "-o", str(tmp_path / "t.mcsp"), "--k", "2", "--n", "2", "--edge-prob", "0.5", "--seed", "3"])
    assert code == 0
    text = (tmp_path / "t.mcsp").read_text()
    assert "fvs-witness-constraints" in text
    # generated instance parses and solves
    code, out = run_cli(capsys, "solve", "--alg", "oracle", str(tmp_path / "t.mcsp"), "--json")
    assert code == 0


def test_generate_dnf_records_target_and_epsilon(tmp_path, capsys):
    code = main(["generate", "mcc-dnf", "-o", str(tmp_path / "d.mcsp"), "--k", "2", "--n", "2", "--complete"])
    assert code == 0
    text = (tmp_path / "d.mcsp").read_text()
    assert "c target 1" in text and "c epsilon 1/4" in text


def test_generate_conversions(tmp_path, capsys):
    src = write(tmp_path, "thr.mcsp", "p mcsp 3 1\nt 2 1 2 3 0\n")
    code = main(["generate", "thr2maj", "--input", src, "-o", str(tmp_path / "m.mcsp")])
    assert code == 0
    text = (tmp_path / "m.mcsp").read_text()
    assert "m " in text and "t " not in text.replace("c generator", "")

    cnf = write(tmp_path, "cnf.mcsp", "p mcsp 2 1\no 1 2 0\n")
    code = main(["generate", "cnf2maj", "--input", cnf, "-o", str(tmp_path / "m2.mcsp")])
    assert code == 0


def test_compare_deterministic_with_workers(tmp_path, capsys, monkeypatch):
    from fractions import Fraction
    import random as random_mod

    from helpers import random_small_fvs_instance

    for i in range(3):
        f = Formula(2 + i, (at_least(1, 1, 2), at_least(1, -1), at_least(1, -2)))
        write(tmp_path, f"i{i}.mcsp", serialize_instance(f))
    rng = random_mod.Random(6)
    for i in range(3):
        f, _ = random_small_fvs_instance(rng, max_vars=8, max_cons=6, hubs=2)
        write(tmp_path, f"cyc{i}.mcsp", serialize_instance(f))
    monkeypatch.setattr(cli, "_POOL_AFTER_S", 0)  # the pool runs all but the first file
    args = [
        "compare", "--algs", "oracle,tree,fvs-as", "--epsilons", "0.25,0.5",
        "--dir", str(tmp_path), "--seed", "7", "--workers", "2",
    ]
    code = main(args + ["-o", str(tmp_path / "out1.csv")])
    assert code == 0
    code = main(args + ["-o", str(tmp_path / "out2.csv")])
    assert code == 0
    b1 = (tmp_path / "out1.csv").read_bytes()
    assert b1 == (tmp_path / "out2.csv").read_bytes()
    text = b1.decode()
    header = text.splitlines()[0]
    assert header == "instance,algorithm,epsilon,value,oracle_opt,ratio,status,time_ms"
    saw_tree_error = False
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if cells[1] == "tree" and cells[6] == "ok":
            # the tree solver is exact wherever it applies
            assert cells[5] == "1/1"
        if cells[1] == "tree" and cells[0].startswith("cyc"):
            assert cells[6] == "error:precondition"
            saw_tree_error = True
        if cells[1] == "fvs-as" and cells[2] == "1/4":
            assert Fraction(cells[5]) >= Fraction(3, 4)
    assert saw_tree_error


def test_compare_schedule_independent(tmp_path, capsys, monkeypatch):
    import random as random_mod

    from helpers import random_forest_formula

    monkeypatch.setattr(cli, "_POOL_AFTER_S", 0)  # the pool runs all but the first file
    rng = random_mod.Random(77)
    for i in range(5):
        f = random_forest_formula(rng, max_vars=8, max_cons=6)
        write(tmp_path, f"w{i}.mcsp", serialize_instance(f))
    outputs = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}.csv"
        code = main(
            [
                "compare", "--algs", "oracle,tree", "--dir", str(tmp_path),
                "--seed", "1", "--workers", str(workers), "-o", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records its size and the tasks
    it is given, and runs them in this process."""

    made: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = None
        RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.tasks = list(tasks)
        return map(fn, self.tasks)


def compare_dir_of_small_files(tmp_path, count):
    texts = (FOREST, PARITY, CYCLIC)
    for i in range(count):
        write(tmp_path, f"f{i}.mcsp", texts[i % len(texts)])
    return ["compare", "--algs", "oracle,tree", "--dir", str(tmp_path), "--seed", "2"]


def test_compare_small_dir_starts_no_pool(tmp_path, capsys, monkeypatch):
    args = compare_dir_of_small_files(tmp_path, 3)
    assert main(args + ["--workers", "1", "-o", str(tmp_path / "serial.csv")]) == 0
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert main(args + ["--workers", "2", "-o", str(tmp_path / "two.csv")]) == 0
    assert RecordingPool.made == []
    assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


@pytest.mark.parametrize("workers, pool_size", [(2, 2), (64, 3)])
def test_compare_pool_gets_the_files_after_the_first(tmp_path, capsys, monkeypatch, workers, pool_size):
    args = compare_dir_of_small_files(tmp_path, 4)
    assert main(args + ["--workers", "1", "-o", str(tmp_path / "serial.csv")]) == 0
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_POOL_AFTER_S", 0)
    out = tmp_path / "pool.csv"
    assert main(args + ["--workers", str(workers), "-o", str(out)]) == 0
    [pool] = RecordingPool.made
    assert pool.max_workers == pool_size
    assert [task[1] for task in pool.tasks] == ["f1.mcsp", "f2.mcsp", "f3.mcsp"]
    assert out.read_bytes() == (tmp_path / "serial.csv").read_bytes()


@pytest.mark.parametrize("alg", ["oracle", "tree"])
def test_compare_rechecks_each_value_against_its_witness(tmp_path, capsys, monkeypatch, alg):
    from maxcsp import oracle

    solver = oracle if alg == "oracle" else cli
    name = "max_csp_bruteforce" if alg == "oracle" else "solve_forest"
    real = getattr(solver, name)

    def one_too_many(f, *args, **kwargs):
        res = real(f, *args, **kwargs)
        return oracle.OracleResult(res.value + 1, res.witness)

    monkeypatch.setattr(solver, name, one_too_many)
    write(tmp_path, "a.mcsp", FOREST)
    out = tmp_path / "out.csv"
    with pytest.raises(AssertionError, match="does not match its witness"):
        main(["compare", "--algs", alg, "--dir", str(tmp_path), "--workers", "1", "-o", str(out)])
    assert not out.exists()


def test_compare_empty_dir(tmp_path, capsys):
    sub = tmp_path / "empty"
    sub.mkdir()
    code = main(["compare", "--algs", "oracle", "--dir", str(sub), "-o", str(tmp_path / "e.csv")])
    assert code == 0
    assert (tmp_path / "e.csv").read_text().splitlines() == [
        "instance,algorithm,epsilon,value,oracle_opt,ratio,status,time_ms"
    ]


def test_importing_the_cli_loads_no_multiprocessing():
    # solve, analyze and generate import the CLI module alone; compare imports
    # the process pool when it starts one
    code = "import sys, maxcsp.cli; print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_residual_search_past_its_budget_exits_3_within_seconds(tmp_path, capsys):
    # The greedy FVS (15) settles the exact-small route at eps 1/100, so the
    # residual is the whole gadget: one type-class search over 81 constraints
    # and 72 variables, which would not finish without its node budget.
    path = str(tmp_path / "g.mcsp")
    assert main(["generate", "mcc-thr", "-o", path, "--k", "3", "--n", "3", "--complete"]) == 0
    started = time.perf_counter()
    code = main(["solve", path, "--alg", "fvs-as", "--epsilon", "1/100", "--max-fvs", "18"])
    assert time.perf_counter() - started < 5
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    budget = cover_solver.RESIDUAL_NODE_BUDGET
    assert captured.err == f"error: residual of 81 constraints over 72 variables needs more than {budget} search nodes\n"


def test_compare_row_past_the_residual_budget_reads_error_resource(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cover_solver, "RESIDUAL_NODE_BUDGET", 0)
    write(tmp_path, "a.mcsp", THRESHOLD_MIX)
    out = tmp_path / "t.csv"
    assert main(["compare", "--algs", "oracle,vc", "--dir", str(tmp_path), "-o", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["a.mcsp,oracle,,4,4,1/1,ok,", "a.mcsp,vc,,,4,,error:resource,"]
    assert main(["solve", str(tmp_path / "a.mcsp"), "--alg", "vc"]) == 3


def test_cli_runs_as_module(tmp_path):
    path = write(tmp_path, "a.mcsp", FOREST)
    proc = subprocess.run(
        [sys.executable, "-m", "maxcsp", "solve", "--alg", "tree", path, "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 2


def test_stdin_stdout_support(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(FOREST))
    code, out = run_cli(capsys, "solve", "--alg", "oracle", "-", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_generate_readme_thr2maj_chain(tmp_path, capsys):
    t, m = str(tmp_path / "t.mcsp"), str(tmp_path / "m.mcsp")
    assert main(["generate", "mcc-thr", "-o", t, "--k", "2", "--n", "2", "--complete"]) == 0
    assert main(["generate", "thr2maj", "-o", m, "--input", t]) == 0
    f = parse_instance((tmp_path / "m.mcsp").read_text())
    assert f.num_constraints > 0
    assert all(c.kind is Kind.MAJORITY for c in f.constraints)


def test_compare_unknown_algorithm_is_reported_before_bad_options(tmp_path, capsys):
    write(tmp_path, "a.mcsp", FOREST)
    out = tmp_path / "out.csv"
    code = main(["compare", "--algs", "bogus", "--dir", str(tmp_path), "--trials", "0", "-o", str(out)])
    assert code == 2
    assert "unknown algorithm 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_solve_cw_as_on_non_cnf_is_precondition_error(tmp_path, capsys):
    path = write(tmp_path, "a.mcsp", FOREST)
    code, _ = run_cli(capsys, "solve", "--alg", "cw-as", "--epsilon", "1/4", path)
    assert code == 2


def count_oracle_calls(monkeypatch) -> list:
    """Record every formula the CLI hands to the oracle."""
    from maxcsp import oracle

    calls = []
    real = oracle.max_csp_bruteforce

    def counting(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(oracle, "max_csp_bruteforce", counting)
    return calls


def test_solve_oracle_with_oracle_runs_the_oracle_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "a.mcsp", FOREST)
    calls = count_oracle_calls(monkeypatch)
    code, out = run_cli(capsys, "solve", "--alg", "oracle", path, "--with-oracle", "--json")
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out)
    assert payload["value"] == payload["oracle_value"] == 2 and payload["ratio"] == "1/1"


def test_compare_bad_file_fails_only_its_rows(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_POOL_AFTER_S", 0)  # the pool runs all but the first file
    good = tmp_path / "good"
    good.mkdir()
    write(good, "a.mcsp", FOREST)
    write(good, "c.mcsp", PARITY)
    args = ["compare", "--algs", "oracle,fvs-as", "--epsilons", "1/2", "--seed", "3"]
    assert main(args + ["--dir", str(good), "--workers", "1", "-o", str(tmp_path / "good.csv")]) == 0
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    write(mixed, "a.mcsp", FOREST)
    write(mixed, "b.mcsp", "p mcsp 1 1\no 1 -1 0\n")  # a variable twice in one clause
    write(mixed, "c.mcsp", PARITY)
    (mixed / "d.mcsp").write_bytes(b"c caf\xc3\xa9\n" + FOREST.encode())  # not ASCII
    csvs = []
    for workers in ("1", "2"):
        out = tmp_path / f"mixed{workers}.csv"
        assert main(args + ["--dir", str(mixed), "--workers", workers, "-o", str(out)]) == 0
        csvs.append(out.read_text())
    assert csvs[0] == csvs[1]
    lines = csvs[0].splitlines()
    bad = ("b.mcsp", "d.mcsp")
    assert [line for line in lines if not line.startswith(bad)] == (
        (tmp_path / "good.csv").read_text().splitlines()
    )
    assert [line for line in lines if line.startswith(bad)] == [
        f"{name},{alg},{eps},,,,error:parse,"
        for name in bad
        for alg, eps in (("fvs-as", "1/2"), ("oracle", ""))
    ]


def test_compare_unreadable_entry_fails_only_its_rows(tmp_path, capsys):
    good = tmp_path / "good"
    good.mkdir()
    write(good, "a.mcsp", FOREST)
    args = ["compare", "--algs", "oracle,tree", "--workers", "1"]
    assert main(args + ["--dir", str(good), "-o", str(tmp_path / "good.csv")]) == 0
    (good / "x.mcsp").mkdir()  # listed like an instance, but a directory
    assert main(args + ["--dir", str(good), "-o", str(tmp_path / "mixed.csv")]) == 0
    lines = (tmp_path / "mixed.csv").read_text().splitlines()
    assert [line for line in lines if not line.startswith("x.mcsp")] == (
        (tmp_path / "good.csv").read_text().splitlines()
    )
    assert [line for line in lines if line.startswith("x.mcsp")] == [
        "x.mcsp,oracle,,,,,error:parse,",
        "x.mcsp,tree,,,,,error:parse,",
    ]


def test_compare_solver_error_fails_only_its_rows(tmp_path, capsys, monkeypatch):
    from maxcsp import cnf_approx
    from maxcsp.errors import LemmaViolationError

    write(tmp_path, "a.mcsp", CNF)
    write(tmp_path, "b.mcsp", "p mcsp 2 2\no 1 2 0\no -1 0\n")
    args = [
        "compare", "--algs", "oracle,cw-as", "--epsilons", "1/4,1/2", "--seed", "7",
        "--dir", str(tmp_path), "--workers", "1",
    ]
    assert main(args + ["-o", str(tmp_path / "good.csv")]) == 0
    real = cnf_approx.approx_max_cnf

    def failing_on_two_variables(f, *a, **kw):
        if f.num_vars == 2:
            raise LemmaViolationError("selection failed")
        return real(f, *a, **kw)

    monkeypatch.setattr(cnf_approx, "approx_max_cnf", failing_on_two_variables)
    assert main(args + ["-o", str(tmp_path / "bad.csv")]) == 0
    assert capsys.readouterr().err == ""
    good = (tmp_path / "good.csv").read_text().splitlines()
    bad = (tmp_path / "bad.csv").read_text().splitlines()
    failed = "b.mcsp,cw-as,"
    assert [line for line in bad if not line.startswith(failed)] == (
        [line for line in good if not line.startswith(failed)]
    )
    assert [line for line in bad if line.startswith(failed)] == [
        "b.mcsp,cw-as,1/4,,2,,error:solver,",
        "b.mcsp,cw-as,1/2,,2,,error:solver,",
    ]


@pytest.mark.parametrize(
    "text, argv, code",
    [
        (CYCLIC, ["--epsilon", "abc", "--max-fvs", "0"], 3),
        (CYCLIC, ["--epsilon", "2", "--max-fvs", "0"], 3),
        (CYCLIC, ["--epsilon", "1/4", "--max-fvs", "0"], 3),
        (CYCLIC, ["--epsilon", "abc"], 1),
        (CYCLIC, ["--epsilon", "2"], 2),
        (PARITY, ["--epsilon", "1/4"], 2),
        (PARITY, ["--epsilon", "1/4", "--max-fvs", "0"], 3),
    ],
)
def test_fvs_as_exit_codes(tmp_path, capsys, text, argv, code):
    # The exact FVS search runs before epsilon and the constraint kinds are
    # checked, so a search over budget exits 3 whatever else is wrong.
    path = write(tmp_path, "a.mcsp", text)
    assert main(["solve", "--alg", "fvs-as", path] + argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_compare_solves_each_formula_once_and_matches_solve(tmp_path, capsys, monkeypatch):
    import csv
    import random as random_mod

    from maxcsp import approx_max_cnf, max_csp_bruteforce, random_formula

    from helpers import random_cnf

    rng = random_mod.Random(12)
    formulas = {
        "full.mcsp": random_cnf(rng, num_vars=7, num_clauses=9, arities=[1, 2, 3]),
        # variable 1 occurs nowhere, so cw-as projects onto a smaller formula
        "gap.mcsp": Formula(6, (or_clause(2, -3), or_clause(-2, 4), or_clause(5), or_clause(-6, 3))),
        "rand.mcsp": random_formula(8, 12, {"OR": 1}, (1, 3), seed=4),
    }
    for name, f in formulas.items():
        write(tmp_path, name, serialize_instance(f))
    epsilons = ("1/4", "1/2")
    expected = []
    for name in sorted(formulas):
        f = formulas[name]
        exact = [f]
        for eps in epsilons:
            def recording(sub):
                if sub not in exact:
                    exact.append(sub)
                return max_csp_bruteforce(sub)

            approx_max_cnf(f, eps, seed=7, exact_backend=recording)
        expected.extend(exact)
    assert len(expected) > len(formulas)  # some projection differs from its instance

    calls = count_oracle_calls(monkeypatch)
    out = tmp_path / "out.csv"
    code = main(
        [
            "compare", "--algs", "oracle,cw-as", "--epsilons", ",".join(epsilons),
            "--dir", str(tmp_path), "--seed", "7", "--workers", "1", "-o", str(out),
        ]
    )
    assert code == 0
    assert calls == expected

    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3 * len(formulas)
    for row in rows:
        path = str(tmp_path / row["instance"])
        argv = ["solve", "--alg", row["algorithm"], path, "--seed", "7", "--json"]
        if row["epsilon"]:
            argv += ["--epsilon", row["epsilon"]]
        code, text = run_cli(capsys, *argv)
        assert code == 0
        assert row["value"] == str(json.loads(text)["value"])
        code, text = run_cli(capsys, "solve", "--alg", "oracle", path, "--json")
        assert row["oracle_opt"] == str(json.loads(text)["value"])
        assert row["status"] == "ok"


# 21 clauses on which cw-as at epsilon 1/2 and seed 0 satisfies 19 with one
# or two trials and 20 with the default eight
CNF_TRIALS = "p mcsp 6 21\n" + "".join(
    f"o {c} 0\n"
    for c in (
        "5 -1 2 -4", "-1 -5", "2", "1 -4 -2", "3 -6 4 -1", "4 -2", "-1 -5 6 4", "-5 3 2", "4 -6 1 3", "-2 -4",
        "-4", "5", "-2", "5 2 1", "-4", "3 -4", "2 -3 6 -5", "4 3 2", "2 -4", "4 2 -1", "-3 -2 -1",
    )
)
# (instance, epsilon) per solver: a threshold forest for the exact solvers, a
# cyclic threshold instance with incidence FVS 2 for fvs-as, so its budget
# matters, a CNF for cw-as and a PARITY system for parity-sat
SOLVER_CASES = {
    "oracle": ("forest", None),
    "tree": ("forest", None),
    "vc": ("forest", None),
    "fvs-as": (THRESHOLD_MIX, "1/4"),
    "cw-as": (CNF_TRIALS, "1/2"),
    "parity-sat": (PARITY_SAT, None),
}


@pytest.mark.parametrize("alg", list(cli.SOLVERS))
def test_compare_value_equals_solve_for_every_solver(tmp_path, capsys, alg):
    # compare builds its options without solve's flags, so a budget or
    # default that differs from solve's shows as a failed row or another value
    import csv
    import random as random_mod

    from helpers import random_forest_formula

    text, epsilon = SOLVER_CASES[alg]
    if text == "forest":
        text = serialize_instance(random_forest_formula(random_mod.Random(17), max_vars=10, max_cons=8))
    path = write(tmp_path, "a.mcsp", text)
    eps = [] if epsilon is None else ["--epsilon", epsilon]
    code, out = run_cli(capsys, "solve", path, "--alg", alg, "--json", *eps)
    assert code == 0
    csv_path = tmp_path / "out.csv"
    argv = ["compare", "--algs", alg, "--dir", str(tmp_path), "--workers", "1", "-o", str(csv_path), *eps]
    assert main(argv) == 0
    [row] = csv.DictReader(csv_path.open())
    assert row["status"] == "ok"
    assert row["value"] == str(json.loads(out)["value"])


def test_non_ascii_input_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "cafe.mcsp"
    path.write_bytes(FOREST.encode() + b"c caf\xc3\xa9\n")
    commands = (
        ["solve", str(path), "--alg", "oracle"],
        ["analyze", str(path)],
        ["generate", "thr2maj", "-o", str(tmp_path / "out.mcsp"), "--input", str(path)],
    )
    for argv in commands:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not ASCII, byte 0xc3 (line 5)\n"
    assert not (tmp_path / "out.mcsp").exists()


@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
def test_non_ascii_stdin_is_a_parse_error_in_every_locale(encoding):
    # Standard input is decoded as ASCII like a named file, whatever the
    # locale's encoding of the text layer.
    env = {**os.environ, "PYTHONIOENCODING": encoding}
    for argv in (["solve", "-", "--alg", "oracle"], ["analyze", "-"]):
        proc = subprocess.run(
            [sys.executable, "-m", "maxcsp", *argv],
            input=FOREST.encode() + b"c caf\xc3\xa9\n",
            capture_output=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"error: -: not ASCII, byte 0xc3 (line 5)\n"


def test_fvs_exact_small_on_six_variables_and_24_constraints(tmp_path, capsys):
    # The exact residual once tested constraint subsets down to the optimum
    # (17 of 24) here, about 23 s; its 2^6 assignments are enumerated now.
    from maxcsp import random_formula

    f = random_formula(6, 24, {Kind.THRESHOLD: 1}, (2, 4), 5)
    path = write(tmp_path, "six.mcsp", serialize_instance(f))
    code, out = run_cli(
        capsys, "solve", path, "--alg", "fvs-as", "--epsilon", "1/4", "--with-oracle"
    )
    assert code == 0
    fields = dict(item.split("=") for item in out.split())
    assert fields["route"] == "exact-small"
    assert fields["value"] == fields["oracle"] == "17"


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "a.mcsp", FOREST)
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for argv in [["solve", path, "--alg", "tree"], ["analyze", path], ["solve", path, "--alg", "vc"]] * 2:
        assert main(argv) == 0
    assert len(built) == 1


def test_options_do_not_carry_over_between_calls(tmp_path, capsys):
    inst = tmp_path / "inst"
    inst.mkdir()
    mixed = write(inst, "a.mcsp", MIXED)
    cnf = write(inst, "b.mcsp", CNF)
    gen = str(tmp_path / "gen.mcsp")
    table = str(tmp_path / "table.csv")
    defaults = [
        ["solve", cnf, "--alg", "cw-as", "--epsilon", "1/4"],
        ["solve", mixed, "--json", "--alg", "oracle"],
        ["analyze", mixed],
        ["generate", "random", "-o", gen],
        ["compare", "--algs", "oracle,cw-as,fvs-as", "--epsilons", "1/4", "--dir", str(inst), "-o", table],
    ]
    others = [
        ["solve", cnf, "--alg", "cw-as", "--epsilon", "1/2", "--seed", "9", "--trials", "3",
         "--window-exponent", "2", "--with-oracle", "--timing", "--json"],
        ["solve", mixed, "--alg", "fvs-as", "--epsilon", "1/2", "--max-fvs", "0"],
        ["analyze", mixed, "--max-vc", "1", "--max-fvs", "0", "--json"],
        ["generate", "random", "-o", gen, "--seed", "5", "--num-vars", "4", "--kinds", "AND=1"],
        ["compare", "--algs", "oracle,cw-as,fvs-as", "--epsilons", "1/2", "--dir", str(inst), "--seed", "3",
         "--trials", "2", "--oracle-limit", "4", "--workers", "1", "--timing", "-o", table],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        written = [open(p).read() for p in (gen, table) if p in argv]
        return code, captured.out, captured.err, written

    alone = []
    for argv in defaults:
        cli._parser.cache_clear()
        alone.append(run(argv))
    for argv in others:
        run(argv)
    assert [run(argv) for argv in defaults] == alone
    assert alone[1] == (0, PINNED_SOLVE_JSON[0][2], "", [])


@pytest.mark.parametrize(
    "argv", [["solve", "{file}"], ["solve", "{file}", "--alg", "best"], ["resolve", "{file}"]]
)
def test_usage_errors_repeat_exactly(tmp_path, capsys, argv):
    argv = [a.format(file=write(tmp_path, "a.mcsp", FOREST)) for a in argv]
    cli._parser.cache_clear()
    seen = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        seen.append((exc.value.code, captured.out, captured.err))
    assert seen[0] == seen[1]
    code, out, err = seen[0]
    assert (code, out) == (2, "") and err.startswith("usage: maxcsp")


def test_command_wrapper_installed_later_sees_the_next_call(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "a.mcsp", FOREST)
    assert main(["solve", path, "--alg", "tree"]) == 0
    seen = []
    real = cli.cmd_solve

    def recording(args):
        seen.append(args.alg)
        return real(args)

    monkeypatch.setattr(cli, "cmd_solve", recording)
    assert main(["solve", path, "--alg", "oracle"]) == 0
    assert seen == ["oracle"]
