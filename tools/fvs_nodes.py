"""Size, witness and node count of the exact FVS search on fixed graphs.

One line per graph:

    <group> <name> <budget> <size> <nodes> <cycles> <witness>

``size`` and ``witness`` are ``-`` when the minimum FVS is above the
budget.  ``nodes`` counts the ``TwoCore.without`` calls that one
``feedback_vertex_set`` call makes, the greedy incumbent's included, and
``cycles`` its ``TwoCore.branch_cycle`` calls (cycle searches).  The
graphs are the incidence graphs of

- the complete ``mcc-thr`` gadgets for k = 2, n = 2 and 3 (budget 12) and
  k = 3, n = 3 (budgets 14 and 18, just below and above its minimum of 15);
- every instance that a ``solve --alg fvs-as`` or ``analyze`` request of the
  structured-solve and exact-residual workloads of ``perfbench/corpus.py``
  reads, at the given seed (default 1), at the default budget, in corpus
  order.

A ``total`` line per group sums its nodes and its cycle searches.  The script runs the ``src/`` and
``perfbench/`` of the directory it is started in, so one copy of it serves a
checkout that lacks it:

    python3 tools/fvs_nodes.py > change.txt
    (cd ../parent && python3 ../change/tools/fvs_nodes.py) > parent.txt
    diff parent.txt change.txt

The sizes and witnesses of two correct checkouts agree; the two counts
show how much the search branches.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

FVS_LABELS = ("solve-fvs-approx", "solve-fvs-exact", "analyze")
GADGETS = ((2, 2, 12), (2, 3, 12), (3, 3, 14), (3, 3, 18))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1, help="corpus seed (default 1)")
    return p.parse_args(argv)


def corpus_formulas(corpus_mod, workload: str, seed: int):
    """(name, formula) of each instance an FVS request of the workload reads."""
    work_dir = tempfile.mkdtemp(prefix="fvs-nodes-")
    try:
        corpus = corpus_mod.build(workload, seed, work_dir, workers=1)
        wanted = {name for req in corpus.requests if req.label in FVS_LABELS for name in req.instances}
        return [(name, inst.formula) for name, inst in corpus.instances.items() if name in wanted]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "maxcsp" / "__init__.py").is_file():
        print(f"error: no maxcsp sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from maxcsp import build_incidence_graph, complete_mcc, feedback_vertex_set, mcc_to_threshold
    from maxcsp.graphs import TwoCore
    from maxcsp.structure import DEFAULT_FVS_BUDGET

    import corpus as corpus_mod

    counts = [0, 0]  # TwoCore.without, TwoCore.branch_cycle
    without, branch_cycle = TwoCore.without, TwoCore.branch_cycle

    def counting_without(core, v):
        counts[0] += 1
        return without(core, v)

    def counting_branch_cycle(core):
        counts[1] += 1
        return branch_cycle(core)

    TwoCore.without, TwoCore.branch_cycle = counting_without, counting_branch_cycle
    groups = [("gadget", [(f"mcc-thr-k{k}-n{n}", mcc_to_threshold(complete_mcc(k, n)).formula, b) for k, n, b in GADGETS])]
    for workload in ("structured-solve", "exact-residual"):
        formulas = corpus_formulas(corpus_mod, workload, args.seed)
        groups.append((workload, [(name, f, DEFAULT_FVS_BUDGET) for name, f in formulas]))
    for group, graphs in groups:
        total = [0, 0]
        for name, formula, budget in graphs:
            counts[:] = [0, 0]
            res = feedback_vertex_set(build_incidence_graph(formula).graph, budget)
            total = [t + c for t, c in zip(total, counts)]
            size = "-" if res.exceeded else str(res.size)
            witness = "-" if res.exceeded else ",".join(map(str, res.witness))
            print(f"{group} {name} {budget} {size} {counts[0]} {counts[1]} {witness}", flush=True)
        print(f"total {group} {total[0]} {total[1]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
