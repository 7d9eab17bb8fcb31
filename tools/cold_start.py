"""What a fresh ``maxcsp`` process loads to serve one request of each kind.

For each workload of ``perfbench/corpus.py``, the corpus is generated at
seed 1 in a fresh temporary directory, and the first request
of each label (the corpus's warm-up requests) runs through
``maxcsp.cli.main`` in a new interpreter of its own.  One line per request:

    <workload> <label> exit=<code> numpy=<yes|no> maxcsp_modules=<k> modules=<n>

``numpy`` says whether numpy was loaded when the request returned,
``maxcsp_modules`` counts the package's modules then loaded, and ``modules``
every module in ``sys.modules``.  Nothing is timed, so two runs of one
checkout in one environment print the same lines.  The package counts in
Python ints everywhere and needs no third-party module, so the script
exits 1 when any request has loaded numpy.
``compare`` requests run with ``--workers 1``, so no process pool starts.  The script runs the
``src/`` and ``perfbench/`` of the directory it is started in:

    python3 tools/cold_start.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# the warm-up requests are taken before the corpus's seeded shuffle, so which
# commands run does not depend on the seed
SEED = 1

# run in the new interpreter: one request, then what it loaded
CHILD = """\
import contextlib, io, json, sys
from maxcsp import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
ours = sum(1 for m in sys.modules if m == "maxcsp" or m.startswith("maxcsp."))
print(json.dumps([code, "numpy" in sys.modules, ours, len(sys.modules)]))
"""


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "maxcsp" / "__init__.py").is_file():
        print(f"error: no maxcsp sources under {root / 'src'}", file=sys.stderr)
        return 2
    src = str(root / "src")
    sys.path[:0] = [src, str(root / "perfbench")]
    import corpus as corpus_mod

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    status = 0
    for workload in corpus_mod.WORKLOADS:
        work_dir = tempfile.mkdtemp(prefix="cold-start-")
        try:
            corpus = corpus_mod.build(workload, SEED, work_dir, workers=1)
            for req in corpus.warmups:
                proc = subprocess.run(
                    [sys.executable, "-c", CHILD, json.dumps(req.argv)],
                    capture_output=True, text=True, env=env, check=True,
                )
                code, numpy, ours, modules = json.loads(proc.stdout)
                print(
                    f"{workload} {req.label} exit={code} numpy={'yes' if numpy else 'no'} "
                    f"maxcsp_modules={ours} modules={modules}",
                    flush=True,
                )
                if numpy:
                    print(f"error: {workload} {req.label} loaded numpy", file=sys.stderr)
                    status = 1
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
