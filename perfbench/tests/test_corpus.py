import os

import pytest

import corpus


def _files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_corpus_and_order(tmp_path, workload):
    a = corpus.build(workload, 5, str(tmp_path / "a"))
    b = corpus.build(workload, 5, str(tmp_path / "b"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    argv = lambda c, root: [[arg.replace(str(root), "<work>") for arg in r.argv] for r in c.requests]  # noqa: E731
    assert argv(a, tmp_path / "a") == argv(b, tmp_path / "b")
    assert a.manifest()["instances"] == b.manifest()["instances"]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_other_seed_gives_other_inputs(tmp_path, workload):
    a = corpus.build(workload, 1, str(tmp_path / "a"))
    b = corpus.build(workload, 2, str(tmp_path / "b"))
    assert _files(tmp_path / "a") != _files(tmp_path / "b")


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_warmups_use_the_same_instances_on_every_seed(tmp_path, workload):
    a = corpus.build(workload, 1, str(tmp_path / "a"))
    b = corpus.build(workload, 2, str(tmp_path / "b"))
    assert sorted(r.label for r in a.warmups) == sorted({r.label for r in a.requests})
    assert [(r.label, r.instances) for r in a.warmups] == [(r.label, r.instances) for r in b.warmups]


def test_manifest_describes_every_instance(tmp_path):
    c = corpus.build("exact-residual", 0, str(tmp_path))
    for entry in c.manifest()["instances"]:
        assert entry["n"] > 0 and entry["m"] > 0 and entry["kinds"]
        if entry["family"] in ("cover", "six-variable", "mcc-thr"):
            assert entry["witness"]


def test_six_variable_instances_have_the_requested_gap(tmp_path):
    c = corpus.build("exact-residual", 3, str(tmp_path))
    for inst in c.instances.values():
        if inst.family == "six-variable":
            gap = int(inst.name.rsplit("gap", 1)[1])
            assert corpus.optimum_gap(inst.formula) == gap


def test_generate_chains_keep_their_order(tmp_path):
    c = corpus.build("exact-residual", 4, str(tmp_path))
    outputs = [r.output for r in c.requests if r.command == "generate"]
    for r in c.requests:
        if "--input" in r.argv:
            src = r.argv[r.argv.index("--input") + 1]
            if src in outputs:
                assert outputs.index(src) < outputs.index(r.output)
