"""Closed-loop benchmark of the ``maxcsp`` command line.

One client calls ``maxcsp.cli.main(argv)`` in-process and sends the next
request only when the previous one has returned.  The requests come from a
corpus generated from ``--seed`` (see ``corpus.py``); the timed phase runs
whole passes over the request list until they have taken ``--seconds``.  Every
output is checked after the timed phase (see ``checker.py``).

    python3 perfbench/run.py --workload structured-solve --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``corpus.WORKLOADS``.  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` runs the same requests untraced and then traced (``compare`` with ``--workers 1``, because
pool workers are other processes) and prints the per-layer metrics of the
traced phase, including the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
GOLDEN_SEED = 0
SETUP_REPEATS = 5
MIN_PASSES = 5


@dataclass
class Phase:
    """Latencies and outputs of one closed-loop phase."""

    latencies: list[list[float]] = field(default_factory=list)  # per pass, per request
    records: list[tuple[int, object]] = field(default_factory=list)  # (request index, Outcome)
    pass_seconds: list[float] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.latencies)

    @property
    def samples(self) -> int:
        return sum(len(p) for p in self.latencies)

    def request_latencies(self) -> list[float]:
        """Per request, its fastest latency over the passes.

        Every pass repeats the same requests.  On a shared machine, load from
        outside the benchmark slows whole stretches of seconds by up to half;
        the fastest of five or more passes is the request's own cost.
        """
        return [min(col) for col in zip(*self.latencies)]

    def percentile_ms(self, q: int) -> float:
        return statistics.quantiles(self.request_latencies(), n=100, method="inclusive")[q - 1] * 1000.0

    def results_per_s(self, results_per_pass: float) -> float:
        """Results of one pass over the time one pass takes at the per-request latencies."""
        return results_per_pass / sum(self.request_latencies())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a name in corpus.WORKLOADS")
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--write-golden",
        action="store_true",
        help="run one pass and record its solve outputs as the golden file of this workload and seed",
    )
    return p.parse_args(argv)


def call(cli, req, outcome_type) -> tuple[float, object]:
    """One timed ``cli.main`` call; the file it writes is read after the clock stops."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(req.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception fails this request, not the run
            code = type(exc).__name__
            print(f"{code}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - started
    written = None
    if req.output is not None and code == 0 and os.path.exists(req.output):
        with open(req.output, encoding="ascii") as fh:
            written = fh.read()
    return elapsed, outcome_type(code, out.getvalue(), err.getvalue(), written)


def run_phase(cli, requests, seconds: float, outcome_type, tracer=None, after_pass=None) -> Phase:
    """Whole passes over ``requests`` until they have taken ``seconds`` (at least
    MIN_PASSES).  ``after_pass`` runs between passes, off the clock."""
    phase = Phase()
    while phase.passes < MIN_PASSES or sum(phase.pass_seconds) < seconds:
        pass_started = time.perf_counter()
        lat = []
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.current_request = len(phase.records)
            elapsed, outcome = call(cli, req, outcome_type)
            lat.append(elapsed)
            phase.records.append((i, outcome))
        phase.latencies.append(lat)
        phase.pass_seconds.append(time.perf_counter() - pass_started)
        if after_pass is not None:
            after_pass(phase)
    return phase


def time_import() -> None:
    """Start a fresh interpreter that imports maxcsp, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import maxcsp"], cwd=ROOT, env=env, check=True)


def set_up(corpus_mod, cli, outcome_type, args, work_dir: Path):
    """One set-up: interpreter start and import, corpus generation and writes,
    and one warm-up request per request kind, on the same corpus positions
    whatever the seed.  Returns the corpus and the set-up's duration."""
    started = time.perf_counter()
    time_import()
    corpus = corpus_mod.build(args.workload, args.seed, str(work_dir), workers=1 if args.trace else 2)
    for req in corpus.warmups:
        call(cli, req, outcome_type)
    return corpus, time.perf_counter() - started


def write_manifest(corpus) -> Path:
    """n, m, kind mix and witness size of every instance, and the request list."""
    path = WORK / "manifest" / f"{corpus.workload}-seed{corpus.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(corpus.manifest(), fh, indent=1)
    return path


def golden_path(workload: str, seed: int) -> Path:
    return HERE / "golden" / f"{workload}-seed{seed}.json"


def load_golden(workload: str, seed: int) -> dict | None:
    path = golden_path(workload, seed)
    if not path.exists():
        return None
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def write_golden(corpus, phase: Phase) -> Path:
    golden = {}
    for i, out in phase.records:
        req = corpus.requests[i]
        if req.command == "solve" and out.code == 0:
            rep = json.loads(out.stdout)
            alg = req.argv[req.argv.index("--alg") + 1]
            golden[f"{req.instances[0]} {alg}"] = {"value": rep["value"], "witness": rep["witness"]}
    path = golden_path(corpus.workload, corpus.seed)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


@dataclass
class Verdicts:
    attempted: int = 0
    failed: int = 0
    known_defect: int = 0
    results: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "Verdicts") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known_defect += other.known_defect
        self.results += other.results
        for reason, count in other.failures.items():
            self.failures[reason] = self.failures.get(reason, 0) + count


def check_phase(checker, corpus, phase: Phase, ref, golden) -> Verdicts:
    v = Verdicts()
    memo: dict[tuple[int, object], str | None] = {}
    for i, out in phase.records:
        req = corpus.requests[i]
        v.attempted += 1
        v.results += checker.result_count(req, out)
        if checker.known_defect_hit(req, out):
            v.known_defect += 1
            continue
        key = (i, out)
        if key not in memo:
            memo[key] = checker.check(req, out, corpus, ref, golden)
        if memo[key] is not None:
            v.failed += 1
            reason = f"{' '.join(req.argv[:2])}: {memo[key]}"
            v.failures[reason] = v.failures.get(reason, 0) + 1
    return v


def peak_rss_mb() -> float:
    """High-water RSS so far; read before the checks, which run the oracle in-process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(phase: Phase, v: Verdicts, setups: list[float], rss_mb: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (phase.percentile_ms(50), "ms"),
        "latency_p90_ms": (phase.percentile_ms(90), "ms"),
        "results_per_s": (phase.results_per_s(v.results / phase.passes), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def print_report(args, corpus, phase: Phase, v: Verdicts, metrics: dict, ratios, extra: list[str]) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(
        f"  {len(corpus.requests)} requests per pass, {phase.passes} passes, {phase.samples} timed requests "
        f"in {sum(phase.pass_seconds):.2f} s; latency percentiles are over the {len(corpus.requests)} "
        f"per-request fastest latencies, results_per_s divides by their sum"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:16.6f} {unit}")
    error_rate = (v.failed + v.known_defect) / v.attempted
    print(
        f"  {'error_rate':48s} {error_rate:16.6f} fraction "
        f"({v.failed} failed + {v.known_defect} known-defect of {v.attempted} attempted)"
    )
    if ratios:
        print(f"  {'approx_ratio_min':48s} {float(min(ratios)):16.6f} fraction ({min(ratios)}, n={len(ratios)})")
    for line in extra:
        print(line)
    for reason, count in sorted(v.failures.items()):
        print(f"  FAILED x{count}: {reason}")


def traced_run(cli, checker, tracer_mod, args, corpus, phase: Phase, ref, golden, extra: list[str]) -> tuple[Verdicts, dict]:
    """Run the requests again under the tracer; per-layer metrics of that phase."""
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        traced = run_phase(cli, corpus.requests, args.seconds, checker.Outcome, tr)
    finally:
        tr.uninstall()
    v = check_phase(checker, corpus, phase, ref, golden)
    vt = check_phase(checker, corpus, traced, ref, golden)
    layers = tracer_mod.layer_metrics(tr, traced.passes, vt.results)
    untraced_p50, traced_p50 = phase.percentile_ms(50), traced.percentile_ms(50)
    layers["trace.latency_p50_ms"] = traced_p50
    layers["trace.overhead_ms"] = traced_p50 - untraced_p50
    layers["trace.request_s"] = sum(map(sum, traced.latencies)) / traced.passes
    rows = sum(checker.result_count(corpus.requests[i], out) for i, out in traced.records if corpus.requests[i].command == "compare")
    layers["cli.compare.rows"] = rows / traced.passes
    metrics = {name: (value, tracer_mod.unit_of(name)) for name, value in layers.items()}
    v.merge(vt)

    spans_path = WORK / "trace" / f"{args.workload}-seed{args.seed}.tsv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tr.write(str(spans_path))
    extra = extra + [
        f"  untraced latency_p50_ms {untraced_p50:.6f} over {phase.samples} requests; "
        f"traced {traced_p50:.6f} over {traced.samples}; compare ran with --workers 1",
        f"  {len(tr)} spans written to {spans_path.relative_to(ROOT)}",
        "  largest self time per pass (share of request time):",
    ]
    selfs = sorted(((val, k) for k, val in layers.items() if k.endswith(".self_s")), reverse=True)
    extra += [f"    {k:46s} {val:10.4f} s {val / layers['trace.request_s']:7.1%}" for val, k in selfs[:8]]
    print_report(args, corpus, traced, v, metrics, [], extra)
    return v, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "maxcsp" / "__init__.py").is_file():
        print(f"error: no maxcsp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    from maxcsp import cli

    import checker
    import corpus as corpus_mod
    import tracer as tracer_mod

    if args.workload not in corpus_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(corpus_mod.WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        corpus, first = set_up(corpus_mod, cli, checker.Outcome, args, run_dir / "setup0")
        setups = [first]

        def set_up_again(phase: Phase | None = None) -> None:
            # Host load comes in stretches of several seconds.  Set-up k is due
            # at (k - 1/2)/(SETUP_REPEATS - 1) of the timed phase, so the set-ups
            # fall in more of those stretches than back-to-back ones would.
            due = (len(setups) - 0.5) / (SETUP_REPEATS - 1) * args.seconds
            if len(setups) < SETUP_REPEATS and (phase is None or sum(phase.pass_seconds) >= due):
                setups.append(set_up(corpus_mod, cli, checker.Outcome, args, run_dir / f"setup{len(setups)}")[1])

        manifest = write_manifest(corpus)
        if args.write_golden:
            phase = run_phase(cli, corpus.requests, 0, checker.Outcome)
            print(f"wrote {write_golden(corpus, phase)}")
            return 0
        golden = load_golden(args.workload, args.seed)
        ref = checker.Reference(corpus)
        phase = run_phase(cli, corpus.requests, args.seconds, checker.Outcome, after_pass=set_up_again)
        while len(setups) < SETUP_REPEATS:
            set_up_again()
        rss_mb = peak_rss_mb()
        extra = [f"  manifest written to {manifest.relative_to(ROOT)}"]
        if args.trace:
            v, metrics = traced_run(cli, checker, tracer_mod, args, corpus, phase, ref, golden, extra)
        else:
            v = check_phase(checker, corpus, phase, ref, golden)
            ratios = [r for i, out in phase.records for r in checker.approx_ratios(corpus.requests[i], out)]
            metrics = end_to_end(phase, v, setups, rss_mb)
            print_report(args, corpus, phase, v, metrics, ratios, extra)
        result = {
            "correct": v.failed == 0,
            "attempted": v.attempted,
            "failed": v.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
