"""Span recording around the public functions of every ``maxcsp`` module.

``Tracer.install()`` replaces each traced function with a wrapper wherever a
``maxcsp`` module holds a reference to it (``cli.solve_forest``,
``forest_solver.find_cycle``, ``cnf_approx.max_csp_bruteforce`` and so on),
and ``uninstall()`` puts every original back.  A wrapper records one span:
the function name, start, end, parent span and request id.  Spans stay in
memory in flat arrays and are written out by ``write``.

Per-element helpers that run once per constraint or literal inside the
traced layers (``eval_constraint``, ``as_threshold``, the constraint
constructors, ``fraction_str``...) are not wrapped: their cost stays in the
self time of the layer that calls them, and wrapping them would multiply the
tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Iterable

MODULES = (
    "model",
    "graphs",
    "structure",
    "oracle",
    "forest_solver",
    "cover_solver",
    "fvs_solver",
    "cnf_approx",
    "reductions",
    "formats",
    "report",
    "cli",
)

NOT_TRACED = {
    "model.eval_constraint",
    "model.as_threshold",
    "model.normalize_parity",
    "model.or_clause",
    "model.and_term",
    "model.parity",
    "model.at_least",
    "model.majority",
    "report.fraction_str",
    "report.parse_fraction",
}

METHODS = {"report.verify": ("report", "SolveReport", "verify")}


def _on_peel(tr: "Tracer", args, result) -> None:
    tr.counts["forest_solver.peel_forest.steps"] += result.steps


def _on_route(layer: str) -> Callable:
    def hook(tr: "Tracer", args, result) -> None:
        tr.counts[f"{layer}.route.{result.route}"] += 1

    return hook


def _on_oracle(tr: "Tracer", args, result) -> None:
    f = args[0]
    tr.counts["oracle.assignments"] += 1 << f.num_vars
    tr.oracle_inputs.add(hash(f))


def _on_parse(tr: "Tracer", args, result) -> None:
    tr.counts["formats.parse_instance.bytes"] += len(args[0])


HOOKS: dict[str, Callable] = {
    "forest_solver.peel_forest": _on_peel,
    "fvs_solver.approx_via_fvs": _on_route("fvs_solver"),
    "cnf_approx.approx_max_cnf": _on_route("cnf_approx"),
    "oracle.max_csp_bruteforce": _on_oracle,
    "formats.parse_instance": _on_parse,
}


def traced_functions() -> dict[str, Callable]:
    """Qualified name -> original function, for every function the tracer wraps."""
    out: dict[str, Callable] = {}
    for short in MODULES:
        mod = sys.modules[f"maxcsp.{short}"]
        for name, fn in vars(mod).items():
            qual = f"{short}.{name}"
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not name.startswith("_")
                and qual not in NOT_TRACED
            ):
                out[qual] = fn
    for qual, (short, cls, meth) in METHODS.items():
        out[qual] = getattr(getattr(sys.modules[f"maxcsp.{short}"], cls), meth)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_request = -1
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.oracle_inputs: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, qual: str, fn: Callable) -> Callable:
        nid = self._name_ids.setdefault(qual, len(self.names))
        if nid == len(self.names):
            self.names.append(qual)
        hook = HOOKS.get(qual)
        stack, now = self._stack, time.perf_counter
        name_of, parent, request, start, end = self.name_of, self.parent, self.request, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.current_request)
            end.append(0.0)
            stack.append(idx)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        originals = traced_functions()
        wrappers = {id(fn): self.wrap(qual, fn) for qual, fn in originals.items()}
        targets: list[object] = [sys.modules["maxcsp"]]
        targets += [sys.modules[f"maxcsp.{m}"] for m in MODULES]
        for qual, (short, cls, meth) in METHODS.items():
            targets.append(getattr(sys.modules[f"maxcsp.{short}"], cls))
        for target in targets:
            for name, value in list(vars(target).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((target, name, value))
                    setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, value in reversed(self._patched):
            setattr(target, name, value)
        self._patched.clear()

    def spans(self) -> Iterable[tuple[str, float, float, int, int]]:
        for i in range(len(self.start)):
            yield self.names[self.name_of[i]], self.start[i], self.end[i], self.parent[i], self.request[i]

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, name, start, end, parent, request."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trequest\n")
            for i, (name, s, e, p, r) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{s:.9f}\t{e:.9f}\t{p}\t{r}\n")


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Per span, its duration minus the durations of its direct children.

    ``spans`` holds (name, start, end, parent index) with parents listed
    before their children, as the tracer records them.  Spans of one thread
    nest, so the children of a span cover disjoint parts of its interval.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def under(spans: list[tuple[str, float, float, int]], ancestor: str) -> list[bool]:
    """Per span, whether some strict ancestor is named ``ancestor``."""
    out = [False] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            out[i] = out[parent] or spans[parent][0] == ancestor
    return out


# Names whose self time is reported under one layer name.
GROUPS = {"reductions.": "reductions.generate", "cli.": "cli.main"}

SELF_S = (
    "graphs.find_cycle",
    "structure.feedback_vertex_set",
    "forest_solver.peel_forest",
    "graphs.bfs_tree",
    "graphs.is_acyclic",
    "graphs.build_incidence_graph",
    "fvs_solver.approx_via_fvs",
    "oracle.max_csp_bruteforce",
    "oracle.parity_gauss_satisfiable",
    "cnf_approx.approx_max_cnf",
    "cnf_approx.clause_partition",
    "cnf_approx.select_sparse_variables",
    "cover_solver.residual_exact_max",
    "cover_solver.feasible_true_counts",
    "cover_solver.solve_via_vertex_cover",
    "structure.vertex_cover_number",
    "structure.neighborhood_diversity",
    "model.count_satisfied",
    "model.simplify_fix_variable",
    "formats.parse_instance",
    "formats.serialize_instance",
    "reductions.generate",
    "report.make_report",
    "report.verify",
    "cli.main",
)
CALLS = (
    "graphs.find_cycle",
    "forest_solver.peel_forest",
    "oracle.max_csp_bruteforce",
    "cover_solver.residual_exact_max",
    "cover_solver.feasible_true_counts",
    "model.count_satisfied",
    "model.simplify_fix_variable",
    "reductions.generate",
)
# Counter name -> (span name, required ancestor): spans counted only under the ancestor.
NESTED = {
    "structure.feedback_vertex_set.nodes": ("graphs.find_cycle", "structure.feedback_vertex_set"),
    "fvs_solver.sigma_guesses": ("forest_solver.peel_forest", "fvs_solver.approx_via_fvs"),
    "cnf_approx.backend_calls": ("oracle.max_csp_bruteforce", "cnf_approx.approx_max_cnf"),
}
ROUTES = (
    "fvs_solver.route.approx",
    "fvs_solver.route.exact-small",
    "cnf_approx.route.balanced",
    "cnf_approx.route.unbalanced-short",
    "cnf_approx.route.unbalanced-long",
)


def _layer(name: str) -> str:
    for prefix, group in GROUPS.items():
        if name.startswith(prefix):
            return group
    return name


def layer_metrics(tr: Tracer, passes: int, results: int) -> dict[str, float]:
    """Per-layer numbers of one traced phase, per pass over the request list.

    Times and counts are divided by ``passes``; ratios and rates are not.
    ``results`` is the number of results the traced phase produced.
    """
    spans = [(name, s, e, p) for name, s, e, p, _ in tr.spans()]
    selfs = self_times(spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for (name, _, _, _), t in zip(spans, selfs):
        layer = _layer(name)
        self_s[layer] += t
        calls[layer] += 1
    out: dict[str, float] = {}
    for layer in SELF_S:
        out[f"{layer}.self_s"] = self_s[layer] / passes
    for layer in CALLS:
        out[f"{layer}.calls"] = calls[layer] / passes
    for counter, (name, ancestor) in NESTED.items():
        inside = under(spans, ancestor)
        out[counter] = sum(1 for (n, _, _, _), hit in zip(spans, inside) if hit and n == name) / passes
    for route in ROUTES:
        out[route] = tr.counts[route] / passes
    out["forest_solver.peel_forest.steps"] = tr.counts["forest_solver.peel_forest.steps"] / passes
    out["oracle.assignments"] = tr.counts["oracle.assignments"] / passes
    out["oracle.assignments_per_s"] = _ratio(tr.counts["oracle.assignments"], self_s["oracle.max_csp_bruteforce"])
    out["oracle.distinct_ratio"] = _ratio(len(tr.oracle_inputs), calls["oracle.max_csp_bruteforce"] / passes)
    out["cover_solver.subset_hit_ratio"] = _ratio(
        calls["cover_solver.residual_exact_max"], calls["cover_solver.feasible_true_counts"]
    )
    out["formats.parse_instance.bytes_per_s"] = _ratio(
        tr.counts["formats.parse_instance.bytes"], self_s["formats.parse_instance"]
    )
    out["formats.serialize_instance.calls_per_result"] = _ratio(calls["formats.serialize_instance"], results)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("self_s", "request_s")):
        return "s"
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "fraction"
    return "count"


def better(name: str) -> str:
    """Rates, useful-work ratios and rows delivered are better higher; time and work lower."""
    return "higher" if name.endswith(("_per_s", "_ratio", ".rows")) else "lower"
