"""One digest per benchmark workload and seed, over every request's output.

For each workload of ``perfbench/corpus.py`` and each given seed, the corpus
is generated in a fresh temporary directory and every request runs once,
in order and in-process, through ``maxcsp.cli.main``.  One line is printed:

    <workload> <seed> <requests> <sha256>

Requests run as the benchmark runs them (``perfbench/run.call``).  The hash
covers each request's argv, exit code, standard output, standard error and
the file it writes when it succeeds, with the temporary directory replaced
by a fixed name, so two checkouts that behave alike print the same lines.  The
script runs the ``src/`` and ``perfbench/`` of the directory it is started
in, so one copy of it serves a checkout that lacks it:

    python3 tools/output_digests.py 0 1 2 3 > change.txt
    (cd ../parent && python3 ../change/tools/output_digests.py 0 1 2 3) > parent.txt
    diff parent.txt change.txt

``compare`` requests run with ``--workers 1``, so no process pool starts.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

WORK = "<work>"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("seeds", nargs="+", type=int, help="corpus seeds")
    return p.parse_args(argv)


def digest(cli, run, checker, corpus_mod, workload: str, seed: int) -> tuple[int, str]:
    work_dir = tempfile.mkdtemp(prefix="digest-")
    try:
        corpus = corpus_mod.build(workload, seed, work_dir, workers=1)
        h = hashlib.sha256()
        for req in corpus.requests:
            _, out = run.call(cli, req, checker.Outcome)
            written = "-" if out.written is None else "+" + out.written
            for text in (" ".join(req.argv), str(out.code), out.stdout, out.stderr, written):
                data = text.replace(work_dir, WORK).encode("utf-8")
                h.update(b"%d:" % len(data) + data)
        return len(corpus.requests), h.hexdigest()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "maxcsp" / "__init__.py").is_file():
        print(f"error: no maxcsp sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from maxcsp import cli

    import checker
    import corpus as corpus_mod
    import run

    for workload in corpus_mod.WORKLOADS:
        for seed in args.seeds:
            requests, hexdigest = digest(cli, run, checker, corpus_mod, workload, seed)
            print(f"{workload} {seed} {requests} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
