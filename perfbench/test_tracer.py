"""Self-tests of the benchmark's tracer and verdict table.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import mmclab  # noqa: E402
from mmclab import cli, datagen, evaluation, training  # noqa: E402

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [(1, "a", 0.0, 10.0, None, 1),
             (2, "b", 1.0, 4.0, 1, 1),
             (3, "c", 3.0, 6.0, 1, 2),      # overlaps b, on another thread
             (4, "d", 2.0, 3.0, 2, 1)]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"a": 5.0, "b": 2.0, "c": 3.0, "d": 1.0})


def test_install_patches_every_alias_and_uninstall_restores():
    original = datagen.project_latents
    tracer = Tracer()
    tracer.install(mmclab)
    try:
        assert datagen.project_latents is not original
        assert evaluation.project_latents is datagen.project_latents
        assert training.svd_top is mmclab.numerics.svd_top
        assert cli.run_experiment is mmclab.harness.run_experiment
        assert training.svd_top.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert datagen.project_latents is original
    assert evaluation.project_latents is original


def _small_config(tmp_path) -> Path:
    doc = json.loads((BENCH_DIR / "configs" / "dm1-mmcl.json").read_text())
    doc["trials"] = 4
    doc["train"]["n_train"] = 500
    doc["eval"]["n_eval"] = 500
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_run_covers_aliases_and_accounts_for_wall_time(tmp_path, threads):
    config = _small_config(tmp_path)
    tracer = Tracer()
    tracer.install(mmclab)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            started = perf_counter()
            cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                      "--threads", str(threads)])
            wall = perf_counter() - started
    finally:
        tracer.uninstall()
    report = tracer.report(wall)
    assert "evaluation.evaluate_zero_shot>datagen.project_latents" in report["edges"]
    assert "training.mmcl_fit_closed_form>numerics.svd_top" in report["edges"]
    assert "harness.run_experiment>harness._run_task" in report["edges"]
    assert report["counts"]["harness.tasks"] == 4
    assert report["counts"]["evaluation.rows"] == 4 * 500
    assert report["counts"]["covariance.flops"] == 4 * 2 * 500 * 2 * 2
    expected = report["wall_s"] + report["overlap_excess_s"]
    assert report["accounted_s"] == pytest.approx(expected, rel=1e-9)
    assert 0 <= report["glue_s"] < 0.01 * wall
    assert run.trace_problems(["cli.main", "harness.never_called"], report) == [
        "expected span harness.never_called never fired"]


CSV_HEAD = "run_id,method,split,group,metric,pass\n"


@pytest.mark.parametrize("rows, ok", [
    (["t0,supcon,true,overall,accuracy,false",
      "t0,supcon,true,minority,accuracy,false",
      "t0,supcon,true,y=-1,accuracy,"], True),
    (["t0,supcon,true,overall,accuracy,true",
      "t0,supcon,true,minority,accuracy,false"], False),
    (["t0,supcon,true,overall,accuracy,false"], False),
    (["t0,supcon,true,overall,accuracy,false",
      "t0,supcon,true,minority,accuracy,false",
      "t0,supcon,train,overall,accuracy,false"], False),
    (["t0,supcon,,error,error,false"], False),
])
def test_expected_verdict_table(rows, ok):
    ops = run.operations("supcon-dm1", CSV_HEAD + "\n".join(rows) + "\n")
    assert ops == {"t0/supcon": ok}


def test_other_configs_expect_every_check_to_pass():
    ops = run.operations("dm1-sl", CSV_HEAD + "t0,sl,true,overall,accuracy,true\n"
                                              "t1,sl,true,overall,accuracy,false\n")
    assert ops == {"t0/sl": True, "t1/sl": False}
