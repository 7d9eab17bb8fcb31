import sys

import pytest

import tracer
import maxcsp
from maxcsp import Formula, at_least, or_clause


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert tracer.under(spans, "a") == [False, False, True, False]
    assert tracer.under(spans, "root") == [False, True, True, True]


def _bindings():
    out = {}
    for name in ("maxcsp",) + tuple(f"maxcsp.{m}" for m in tracer.MODULES):
        for attr, value in vars(sys.modules[name]).items():
            if callable(value):
                out[(name, attr)] = value
    out[("SolveReport", "verify")] = maxcsp.SolveReport.verify
    return out


def test_wrappers_record_spans_and_restore_the_original_functions():
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert maxcsp.forest_solver.find_cycle is not before[("maxcsp.forest_solver", "find_cycle")]
        assert maxcsp.cli.solve_forest is maxcsp.fvs_solver.solve_forest
        f = Formula(2, (or_clause(1, -2), at_least(1, 2)))
        maxcsp.solve_forest(f)
    finally:
        tr.uninstall()
    assert _bindings() == before
    names = [name for name, *_ in tr.spans()]
    assert names[0] == "forest_solver.solve_forest"
    assert "graphs.find_cycle" in names and "forest_solver.peel_forest" in names
    spans = [(n, s, e, p) for n, s, e, p, _ in tr.spans()]
    assert all(t >= 0 for t in tracer.self_times(spans))
    assert tr.counts["forest_solver.peel_forest.steps"] > 0


def test_layer_metrics_names_match_units():
    tr = tracer.Tracer()
    metrics = tracer.layer_metrics(tr, passes=1, results=1)
    for name in metrics:
        assert tracer.unit_of(name) and tracer.better(name) in ("higher", "lower")
