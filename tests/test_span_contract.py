"""The benchmark's span contract holds on shrunken workloads.

``perfbench/run.py`` lists, per workload, the spans and "parent>child" edges
that a traced run must see fire, and ``perfbench/tracer.py`` wraps only the
public functions of the traced modules. A refactor that moves a public call
under a new caller, or behind a private helper that the benchmark cannot see,
breaks that list. This test reads both files as they are, runs each workload's
configs at desk scale through the CLI with the tracer installed, at one worker and
at two, whose spans the tracer adopts across threads, and checks that every
expected span fires.
"""
import contextlib
import importlib.util
import io
import json
import threading
from pathlib import Path

import pytest

import mmclab
from mmclab import cli

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("run").WORKLOADS
Tracer = _load("tracer").Tracer


def _shrunk(doc: dict) -> dict:
    """Two trials, so that two workers each run a task, at most 20 epochs of any fit and
    at most 200 evaluation rows."""
    doc = dict(doc, trials=2)
    train, eval_sec = dict(doc.get("train", {})), dict(doc.get("eval", {}))
    for key in ("epochs", "probe_epochs"):
        if key in train:
            train[key] = min(train[key], 20)
    if "n_eval" in eval_sec:
        eval_sec["n_eval"] = min(eval_sec["n_eval"], 200)
    return dict(doc, train=train, eval=eval_sec)


@pytest.mark.parametrize("workload,threads", [
    pytest.param(workload, threads, id=workload if threads == 1 else f"{workload}-two-workers")
    for workload in sorted(WORKLOADS) for threads in (1, 2)])
def test_every_expected_span_fires(workload, threads, tmp_path):
    spec = WORKLOADS[workload]
    paths = []
    for name in spec["configs"]:
        doc = json.loads((BENCH_DIR / "configs" / f"{name}.json").read_text())
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(_shrunk(doc)))
    tracer = Tracer()
    tracer.install(mmclab)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for path in paths:
                cli.main(["run", "--config", str(path), "--out", str(tmp_path / path.stem),
                          "--seed", "3", "--threads", str(threads)])
    finally:
        tracer.uninstall()
    report = tracer.report(0.0)
    fired = set(report["calls"]) | set(report["edges"])
    assert [span for span in spec["spans"] if span not in fired] == []
    # a pool runs every task, at one worker too, so no task runs on this thread
    tasks = {s[5] for s in report["spans"] if s[1] == "harness._run_task"}
    assert tasks and threading.get_ident() not in tasks
    assert report["counts"]["harness.errors"] == 0
