import hashlib
import json

import numpy as np
import pytest

from mmclab import ValidationError, theory
from mmclab.cli import main as cli_main
from mmclab.harness import (CSV_COLUMNS, check_passes, config_from_dict,
                            config_from_file, emit_csv, emit_json_summary,
                            run_experiment, summarize)


def _tiny_dm1_config(**extra):
    doc = {
        "experiment": "dm1-robustness", "name": "tiny", "root_seed": 5, "trials": 2,
        "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.05, "p_spu": 0.95},
        "modality": {"d_I": 2, "d_T": 2},
        "methods": ["mmcl-closed"],
        "train": {"n_train": 2000, "p_dim": 2, "rho": 1.0},
        "eval": {"n_eval": 2000, "splits": ["true"]},
        "tolerance": 0.06,
    }
    doc.update(extra)
    return doc


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError, match="frobnicate"):
        config_from_dict(_tiny_dm1_config(frobnicate=1))
    bad = _tiny_dm1_config()
    bad["train"]["momentum"] = 0.9
    with pytest.raises(ValidationError, match="momentum"):
        config_from_dict(bad)


def test_zero_trials_rejected():
    with pytest.raises(ValidationError, match="trials"):
        config_from_dict(_tiny_dm1_config(trials=0))


@pytest.mark.parametrize("section,key,value", [
    ("train", "n_train", "500"),
    ("train", "epochs", 2000.0),
    ("train", "probe_epochs", True),
    ("eval", "n_eval", 0),
    ("eval", "adversarial_probe_epochs", -5),
    ("eval", "supcon_restarts", -1),
    ("train", "lr", float("nan")),
    ("train", "probe_lr", 0.0),
    ("eval", "splits", "true"),
    ("eval", "splits", ["true", 1]),
])
def test_section_field_types_rejected(section, key, value):
    bad = _tiny_dm1_config()
    bad[section][key] = value
    with pytest.raises(ValidationError, match=f"{section}.{key}"):
        config_from_dict(bad)
    override = _tiny_dm1_config(method_overrides={"mmcl-closed": {section: {key: value}}})
    with pytest.raises(ValidationError, match=f"method_overrides.mmcl-closed.{section}.{key}"):
        config_from_dict(override)


@pytest.mark.parametrize("extra,key", [
    ({"tolerance": -0.01}, "tolerance"),
    ({"tolerance": float("inf")}, "tolerance"),
    ({"min_pass_fraction": 1.5}, "min_pass_fraction"),
    ({"min_pass_fraction": float("nan")}, "min_pass_fraction"),
    ({"slacks": {"mmcl:true:overall:accuracy": float("nan")}}, "slacks.mmcl:true"),
    ({"sweep": {"n_train": [100, "200"]}}, "sweep.n_train"),
    ({"trials": True}, "trials"),
    ({"data": {"model": "dm1", "sigma_core": float("nan")}}, "data.sigma_core"),
    ({"root_seed": "7"}, "root_seed"),
    ({"root_seed": 1.5}, "root_seed"),
    ({"root_seed": None}, "root_seed"),
    ({"root_seed": False}, "root_seed"),
    ({"data": "dm1"}, "data"),
    ({"modality": [2, 2]}, "modality"),
    ({"slacks": 5}, "slacks"),
    ({"method_overrides": {"sl": 5}}, "method_overrides.sl"),
    ({"method_overrides": {"sl": {"train": 5}}}, "method_overrides.sl.train"),
    ({"methods": "sl"}, "methods"),
    ({"experiment": "dm2-robustness"}, "data.model"),
])
def test_top_level_numbers_rejected(extra, key):
    with pytest.raises(ValidationError, match=key):
        config_from_dict(_tiny_dm1_config(**extra))


def test_unknown_method_rejected():
    with pytest.raises(ValidationError, match="finetune"):
        config_from_dict(_tiny_dm1_config(methods=["finetune"]))


def test_sweep_requires_nonempty_lists():
    with pytest.raises(ValidationError):
        config_from_dict(_tiny_dm1_config(sweep={"pi_core": []}))


def test_sweep_cardinality_is_exact():
    doc = {
        "experiment": "caption-sweep-dm1", "name": "sweepcount", "root_seed": 1,
        "trials": 2,
        "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.05, "p_spu": 0.9},
        "modality": {"d_I": 2, "d_T": 2},
        "methods": ["mmcl-closed"],
        "train": {"n_train": 400, "p_dim": 2, "rho": 1.0},
        "eval": {"n_eval": 500, "splits": ["true"]},
        "sweep": {"pi_core": [0.0, 0.5, 1.0], "pi_spu": [0.0, 1.0]},
    }
    records = run_experiment(config_from_dict(doc))
    # per (cell, trial): overall + minority + four (y, a) groups
    assert len(records) == 3 * 2 * 2 * 6
    assert not any(r.error for r in records)
    run_ids = {r.run_id for r in records}
    assert len(run_ids) == 3 * 2 * 2


def test_records_carry_prediction_and_value_together():
    records = run_experiment(config_from_dict(_tiny_dm1_config()))
    checked = [r for r in records if r.passed is not None]
    assert checked
    for rec in checked:
        assert rec.prediction is not None and rec.comparator is not None
        assert np.isfinite(rec.value)


def test_check_passes_directions():
    assert check_passes(0.9, 0.85, "lower-bound", 0.0)
    assert not check_passes(0.8, 0.85, "lower-bound", 0.01)
    assert check_passes(0.5, 0.55, "upper-bound", 0.0)
    assert check_passes(0.56, 0.55, "upper-bound", 0.02)
    assert check_passes(0.515, 0.5, "equality-threshold", 0.02)
    assert not check_passes(0.53, 0.5, "equality-threshold", 0.02)
    assert check_passes(1.0, True, "boolean-condition", 0.0)


def test_emit_csv_header_only_for_empty_records(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_round_trip_nine_significant_digits(tmp_path):
    import csv

    records = run_experiment(config_from_dict(_tiny_dm1_config(trials=1)))
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    value_idx = rows[0].index("value")
    for row in rows[1:]:
        assert row[value_idx] == f"{float(row[value_idx]):.9g}"


def test_csv_bytes_identical_across_reruns_and_threads(tmp_path):
    doc = _tiny_dm1_config(trials=3)
    doc["sweep"] = {"p_spu": [0.9, 0.95]}
    digests = []
    for threads in (1, 1, 8):
        records = run_experiment(config_from_dict(doc), threads=threads)
        path = tmp_path / f"t{len(digests)}.csv"
        emit_csv(records, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1] == digests[2]


def test_failed_cell_records_error_and_suite_continues():
    doc = _tiny_dm1_config(trials=1, methods=["mmcl-closed", "mmcl-analytic"])
    doc["sweep"] = {"sigma_spu": [-0.5, 0.05]}  # first cell violates the domain
    records = run_experiment(config_from_dict(doc))
    errors = [r for r in records if r.error]
    fine = [r for r in records if not r.error]
    assert [r.method for r in errors] == ["mmcl-closed", "mmcl-analytic"] and fine
    summary = summarize(records)
    assert summary["errors"] and not summary["all_passed"]


def test_json_summary_aggregates_and_verdict(tmp_path):
    records = run_experiment(config_from_dict(_tiny_dm1_config()))
    summary = emit_json_summary(records, tmp_path / "summary.json")
    loaded = json.loads((tmp_path / "summary.json").read_text())
    assert loaded["n_records"] == len(records)
    overall = [c for c in loaded["cells"]
               if c["group"] == "overall" and c["split"] == "true"]
    assert overall and {"mean", "min", "max"} <= set(overall[0])
    assert loaded["all_passed"] == summary["all_passed"]


def test_verify_theorems_kind_rejected(tmp_path):
    # the preset union is `mmclab verify --suite all`, not an experiment kind
    doc = {"experiment": "verify-theorems", "root_seed": 3}
    with pytest.raises(ValidationError, match="experiment"):
        config_from_dict(doc)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == 2


_DM1 = {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.05, "p_spu": 0.95}
_DM1_SMALL = {"modality": {"d_I": 2, "d_T": 2},
              "train": {"n_train": 400, "p_dim": 2, "rho": 1.0, "epochs": 200},
              "eval": {"n_eval": 400, "splits": ["true", "train"]}}
_ZERO_SHOT = theory.zero_shot_robustness_dm1(1.0, 0.05, 0.95)
_ID = theory.in_distribution_predictions_dm1(1.0, 0.05, 0.95)


@pytest.mark.parametrize("doc,declared", [
    ({"experiment": "dm1-robustness", "data": _DM1, "methods": ["mmcl-closed", "sl"],
      **_DM1_SMALL},
     {("mmcl-closed", "true", "overall"): (_ZERO_SHOT, "overall"),
      ("mmcl-closed", "true", "minority"): (_ZERO_SHOT, "minority"),
      ("sl", "true", "overall"): (theory.sl_failure_bounds_dm1(), "overall"),
      ("sl", "true", "minority"): (theory.sl_failure_bounds_dm1(), "minority")}),
    ({"experiment": "dm2-robustness", "methods": ["sl"],
      "data": {"model": "dm2", "m": 3, "alpha": 10.0, "beta": 1 / 3},
      "modality": {"d_I": 6}, "train": {"exhaustive": True, "epochs": 200},
      "eval": {"exhaustive": True, "splits": ["true"]}},
     {("sl", "true", "overall"): (theory.sl_shift_ceiling_dm2(10.0, 1 / 3), "overall")}),
    ({"experiment": "caption-sweep-dm1", "data": {**_DM1, "pi_core": 0.5, "pi_spu": 1.0},
      "methods": ["mmcl-closed"], **_DM1_SMALL},
     {("mmcl-closed", "true", "minority"):
      (theory.masked_minority_accuracy_dm1(1.0, 0.05, 0.95, 0.5), "minority")}),
    ({"experiment": "method-compare", "data": _DM1, "methods": ["mmcl-closed", "sl"],
      **_DM1_SMALL},
     {("sl", "train", "overall"): (_ID, "sl_id"),
      ("mmcl-closed", "train", "overall"): (_ID, "mmcl_id")}),
], ids=["dm1-robustness", "dm2-robustness", "caption-sweep-dm1", "method-compare"])
def test_theory_checks_carry_the_declared_prediction_and_comparator(doc, declared):
    records = run_experiment(config_from_dict({"name": "decl", "root_seed": 2, **doc}))
    seen = set()
    for rec in records:
        key = (rec.method, rec.split, rec.group)
        if key in declared:
            pred, name = declared[key]
            assert (rec.prediction, rec.comparator) == (pred.values[name],
                                                        pred.comparators[name]), key
            seen.add(key)
    assert seen == set(declared)


def test_suite_presets_are_valid_configs():
    from mmclab.harness import suite_configs

    names = [cfg.name for cfg in suite_configs("all", root_seed=9)]
    assert names == ["dm1-mmcl", "dm1-sl", "dm2-mmcl", "dm2-sl", "captions-dm1",
                     "captions-dm2", "supcon-dm1", "supcon-dm2", "id-control"]
    for cfg in suite_configs("all", root_seed=9):
        assert cfg.root_seed == 9
    with pytest.raises(ValidationError):
        suite_configs("nope")


def test_cli_run_and_exit_codes(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(_tiny_dm1_config()))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "results.csv").exists() and (out / "summary.json").exists()
    # a zero slack on a Monte Carlo accuracy forces a failed comparison -> exit code 1
    failing = _tiny_dm1_config(slacks={"mmcl:true:overall:accuracy": 0.0})
    config_path.write_text(json.dumps(failing))
    assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    # a negative slack is an invalid config -> exit code 2
    invalid = _tiny_dm1_config(slacks={"mmcl:true:overall:accuracy": -1.0})
    config_path.write_text(json.dumps(invalid))
    assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 2


def test_cli_sweep_requires_sweep_section(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(_tiny_dm1_config()))
    assert cli_main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == 2


def test_cli_seed_override_changes_stream(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(_tiny_dm1_config(trials=1)))
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out),
                         "--seed", str(seed)]) == 0
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] != outs[1]


def test_config_from_file_matches_dict(tmp_path):
    doc = _tiny_dm1_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert config_from_file(path) == config_from_dict(doc)
