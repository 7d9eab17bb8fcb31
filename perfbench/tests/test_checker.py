import json

import pytest

import checker
import corpus
from maxcsp import cli


def _run(req):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(req.argv)
    written = None
    if req.output and code == 0:
        with open(req.output, encoding="ascii") as fh:
            written = fh.read()
    return checker.Outcome(code, out.getvalue(), err.getvalue(), written)


@pytest.fixture(scope="module")
def residual(tmp_path_factory):
    c = corpus.build("exact-residual", 2, str(tmp_path_factory.mktemp("er")))
    return c, checker.Reference(c)


def _first(c, label, family=None):
    for r in c.requests:
        if r.label == label and (family is None or c.instances[r.instances[0]].family == family):
            return r
    raise LookupError(label)


def _with_stdout(out, **changes):
    rep = json.loads(out.stdout)
    rep.update(changes)
    return checker.Outcome(out.code, json.dumps(rep), out.stderr, out.written)


def test_correct_exact_output_passes(residual):
    c, ref = residual
    req = _first(c, "solve-vc", "six-variable")
    assert checker.check(req, _run(req), c, ref) is None


def test_corrupted_witness_is_rejected(residual):
    c, ref = residual
    req = _first(c, "solve-vc", "cover")
    out = _run(req)
    bits = json.loads(out.stdout)["witness"]
    flipped = "".join("1" if b == "0" else "0" for b in bits)
    assert "witness satisfies" in checker.check(req, _with_stdout(out, witness=flipped), c, ref)


def test_wrong_value_is_rejected(residual):
    c, ref = residual
    req = _first(c, "solve-fvs-exact", "six-variable")
    out = _run(req)
    rep = json.loads(out.stdout)
    # a value that matches no witness, and a witness-free report that is not optimal
    assert checker.check(req, _with_stdout(out, value=rep["value"] - 1), c, ref) is not None
    bad = _with_stdout(out, value=rep["value"] - 1, witness=None)
    assert "differs from the optimum" in checker.check(req, bad, c, ref)


def test_wrong_digest_is_rejected(residual):
    c, ref = residual
    req = _first(c, "analyze")
    out = _run(req)
    assert "instance_digest" in checker.check(req, _with_stdout(out, instance_digest="0" * 64), c, ref)


def test_known_defect_is_recognised(residual):
    c, ref = residual
    req = next(r for r in c.requests if r.known_defect)
    for r in c.requests:  # its input is written by an earlier request of the pass
        if r.output == req.argv[req.argv.index("--input") + 1]:
            _run(r)
    out = _run(req)
    assert out.code == 1 and checker.known_defect_hit(req, out)
    assert checker.check(req, out, c, ref).startswith("exit 1")


def test_inconsistent_compare_row_is_rejected(tmp_path):
    c = corpus.build("oracle-compare", 1, str(tmp_path), workers=1)
    ref = checker.Reference(c)
    req = next(r for r in c.requests if r.label == "compare-mixed")
    out = _run(req)
    assert checker.check(req, out, c, ref) is None
    lines = out.written.splitlines()
    fields = lines[1].split(",")
    fields[5] = "1/2"  # ratio column
    bad = checker.Outcome(0, out.stdout, out.stderr, "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    assert checker.check(req, bad, c, ref) is not None


def test_generated_file_must_parse(residual):
    c, ref = residual
    req = next(r for r in c.requests if r.command == "generate" and r.known_defect is None)
    out = checker.Outcome(0, "", "", "p mcsp 2 1\no 3 0\n")
    assert checker.check(req, out, c, ref).startswith("unreadable output")


def test_golden_mismatch_is_rejected(tmp_path):
    c = corpus.build("structured-solve", 0, str(tmp_path))
    req = next(r for r in c.requests if r.label == "solve-tree")
    out = _run(req)
    ref = checker.Reference(c)
    rep = json.loads(out.stdout)
    key = f"{req.instances[0]} tree"
    same = {key: {"value": rep["value"], "witness": rep["witness"]}}
    assert checker.check(req, out, c, ref, same) is None
    other = {key: {"value": rep["value"], "witness": "0" * len(rep["witness"])}}
    assert "golden" in checker.check(req, out, c, ref, other)
