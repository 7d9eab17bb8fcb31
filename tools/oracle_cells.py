"""Width groups and compared cells of the oracle's satisfied-count kernels.

One line per kernel.  A numpy kernel (``_SatisfiedCounts``, more than 16
variables) prints

    <group> <name> n=<n> rows=<rows> b=<b> groups=<width:rows,...> cells=<cells> full=<full>

where ``rows`` counts the constraints that are not constant, ``b`` is the
block's index bits, and ``groups`` lists each width group (the low index
bits its rows are compared over, and how many rows it has), narrowest
first, or ``-`` when there are none.  ``cells`` is the number of (row,
position) comparisons the kernel makes over all 2^n positions, and
``full`` is rows × 2^n, what comparing every row at every position would
take.  A bitset kernel (``_BitCounts``, at most 16 variables) prints

    <group> <name> n=<n> rows=<rows> bits

where ``rows`` counts every constraint, each one 2^n-bit held set.  The
kernels are

- ``oracle-compare``: ``max_csp_bruteforce`` on every instance of the
  ``compare`` shards of the oracle-compare workload of
  ``perfbench/corpus.py``, at the given seed (default 1);
- ``exact-residual``: every kernel that the cover solver builds while the
  ``solve --alg vc`` and ``solve --alg fvs-as`` requests of the
  exact-residual workload run, in request order, named by request label and
  instance.

A ``total`` line per group sums the numpy kernels' ``cells`` and ``full``,
counts them and those with more than one group, and counts the bitset
kernels.  Nothing is timed, so two runs of one
checkout print the same lines.  The script runs the ``src/`` and
``perfbench/`` of the directory it is started in:

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


def layout(kernel) -> tuple[int, int, int, list[tuple[int, int]]]:
    """(n, rows, b, [(width, rows) per group]) of a numpy kernel."""
    groups = [(table.shape[1].bit_length() - 1, e - s) for s, _, e, table, _ in kernel._groups]
    return len(kernel._shift), len(kernel._form.target), kernel._block_bits, groups


def line(group: str, name: str, n: int, rows: int, b: int, groups: list[tuple[int, int]]) -> tuple[str, int, int]:
    cells = sum(r << w for w, r in groups) << (n - b)
    full = rows << n
    widths = ",".join(f"{w}:{r}" for w, r in groups) or "-"
    return f"{group} {name} n={n} rows={rows} b={b} groups={widths} cells={cells} full={full}", cells, full


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "maxcsp" / "__init__.py").is_file():
        print(f"error: no maxcsp sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from maxcsp import cli, oracle

    import corpus as corpus_mod

    built = []  # a numpy kernel's layout, or a bitset kernel's (n, rows)
    init = oracle._SatisfiedCounts.__init__
    bits_init = oracle._BitCounts.__init__

    def recording_init(kernel, constraints, variables):
        init(kernel, constraints, variables)
        built.append(layout(kernel))

    def recording_bits_init(kernel, constraints, variables):
        bits_init(kernel, constraints, variables)
        built.append((len(variables), len(constraints)))

    oracle._SatisfiedCounts.__init__ = recording_init
    oracle._BitCounts.__init__ = recording_bits_init
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
        oracle._SatisfiedCounts.__init__ = init
        oracle._BitCounts.__init__ = bits_init
        shutil.rmtree(work_dir, ignore_errors=True)
    for group in ("oracle-compare", "exact-residual"):
        total = [0, 0, 0, 0, 0]  # cells, full, kernels, kernels of several groups, bitset kernels
        for name, kernel in ((name, k) for g, name, k in kernels if g == group):
            if len(kernel) == 2:
                print(f"{group} {name} n={kernel[0]} rows={kernel[1]} bits")
                total[4] += 1
                continue
            text, cells, full = line(group, name, *kernel)
            print(text)
            total = [total[0] + cells, total[1] + full, total[2] + 1, total[3] + (len(kernel[3]) > 1), total[4]]
        print(
            f"total {group} cells={total[0]} full={total[1]} kernels={total[2]} "
            f"several-groups={total[3]} bitset-kernels={total[4]}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
