"""Chunks and per-chunk rows of the oracle's satisfied-count kernels.

One line per kernel (``oracle._BitCounts``):

    <group> <name> n=<n> rows=<rows> chunks=<chunks> per-chunk=<high>

where ``rows`` counts the kernel's constraints, ``chunks`` is the number of
2^16-assignment chunks, and ``per-chunk`` counts the rows that read a
variable numbering the chunks, which every chunk adds again to a copy of
the base planes that the other rows are added to once.  The kernels are

- ``oracle-compare``: ``max_csp_bruteforce`` on every instance of the
  ``compare`` shards of the oracle-compare workload of
  ``perfbench/corpus.py``, at the given seed (default 1);
- ``exact-residual``: every kernel that the cover solver builds while the
  ``solve --alg vc`` and ``solve --alg fvs-as`` requests of the
  exact-residual workload run, in request order, named by request label and
  instance.

A ``total`` line per group counts the kernels, those of several chunks,
the chunks, and the rows added per chunk over all chunks.  Nothing is
timed, so two runs of one checkout print the same lines.  The script runs
the ``src/`` and ``perfbench/`` of the directory it is started in:

    python3 tools/oracle_cells.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

SHARD_FAMILIES = ("cnf", "mixed", "parity")
COVER_LABELS = ("solve-vc", "solve-fvs-exact")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1, help="corpus seed (default 1)")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "maxcsp" / "__init__.py").is_file():
        print(f"error: no maxcsp sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from maxcsp import cli, oracle

    import corpus as corpus_mod

    built = []  # (n, rows, chunks, rows re-added per chunk) of each kernel
    init = oracle._BitCounts.__init__

    def recording_init(kernel, constraints, variables):
        init(kernel, constraints, variables)
        built.append((len(variables), len(constraints), kernel.num_chunks, len(kernel._high)))

    oracle._BitCounts.__init__ = recording_init
    work_dir = tempfile.mkdtemp(prefix="oracle-cells-")
    try:
        kernels = []
        corpus = corpus_mod.build("oracle-compare", args.seed, work_dir, workers=1)
        for name, inst in corpus.instances.items():
            if inst.family in SHARD_FAMILIES:
                built.clear()
                oracle.max_csp_bruteforce(inst.formula)
                kernels.append(("oracle-compare", name, built[0]))
        corpus = corpus_mod.build("exact-residual", args.seed, work_dir, workers=1)
        for req in corpus.requests:
            if req.label in COVER_LABELS:
                built.clear()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main(req.argv)
                kernels.extend(("exact-residual", f"{req.label}:{req.instances[0]}", k) for k in built)
    finally:
        oracle._BitCounts.__init__ = init
        shutil.rmtree(work_dir, ignore_errors=True)
    for group in ("oracle-compare", "exact-residual"):
        total = [0, 0, 0, 0]  # kernels, kernels of several chunks, chunks, rows added per chunk
        for name, (n, rows, chunks, high) in ((name, k) for g, name, k in kernels if g == group):
            print(f"{group} {name} n={n} rows={rows} chunks={chunks} per-chunk={high}")
            total = [total[0] + 1, total[1] + (chunks > 1), total[2] + chunks, total[3] + chunks * high]
        print(
            f"total {group} kernels={total[0]} several-chunks={total[1]} chunks={total[2]} "
            f"per-chunk-rows={total[3]}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
