import contextlib
import csv
import ctypes
import hashlib
import json
import re
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

from mmclab import (DomainError, TrainingError, ValidationError, cli, datagen, harness, numerics,
                    theory)
from mmclab.cli import main as cli_main
from mmclab.training import GRAD_TOL
from mmclab.harness import (CSV_COLUMNS, config_from_dict,
                            config_from_file, emit_csv, emit_json_summary,
                            run_experiment, summarize)


_DM1 = {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.05, "p_spu": 0.95}


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
    # the SupCon attack fits nothing, so no eval key sets an attack probe's budget
    bad = _tiny_dm2_config(methods=["supcon"], eval={"exhaustive": True, "supcon_restarts": 1,
                                                     "adversarial_probe_epochs": 20000})
    with pytest.raises(ValidationError, match="adversarial_probe_epochs"):
        config_from_dict(bad)


def test_zero_trials_rejected():
    with pytest.raises(ValidationError, match="trials"):
        config_from_dict(_tiny_dm1_config(trials=0))


@pytest.mark.parametrize("section,key,value", [
    ("train", "n_train", "500"),
    ("train", "epochs", 2000.0),
    ("train", "probe_epochs", True),
    ("eval", "n_eval", 0),
    ("eval", "supcon_restarts", 1.5),  # still an integer switch, as older configs set it
    ("eval", "supcon_restarts", -1),
    ("train", "lr", float("nan")),
    ("train", "probe_lr", 0.0),
    ("eval", "splits", "true"),
    ("eval", "splits", ["true", 1]),
    ("eval", "splits", ["true", "train", "true"]),
    ("train", "p_dim", "2"),
    ("train", "rho", "1.0"),
    ("modality", "d_I", "2"),
    ("modality", "noise_sigma_I", "0.1"),
    ("modality", "dictionary", 3),
    ("eval", "noise_sigma", "0"),
    ("train", "exhaustive", "false"),
    ("eval", "exhaustive", 1),
    ("eval", "supcon_geometry", "no"),
    # out of the domain
    ("modality", "noise_sigma_I", -1.0),
    ("modality", "noise_sigma_T", -1.0),
    ("eval", "noise_sigma", -1.0),
    ("train", "rho", 0),
    ("train", "rho", -1.0),
    ("modality", "dictionary", "bogus"),
    ("train", "n_train", 1),
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
    ({"data": {"model": "dm1", "sigma_core": "1.0"}}, "data.sigma_core"),
    ({"data": {"model": "dm1", "p_spu": [0.9]}}, "data.p_spu"),
    ({"data": {"model": "dm1", "sigma_spu": True}}, "data.sigma_spu"),
    ({"sweep": {"p_spu": [0.9, "0.95"]}}, "sweep.p_spu"),
    ({"experiment": "dm2-robustness", "data": {"model": "dm2", "m": 2.7}}, "data.m"),
    ({"experiment": "dm2-robustness", "data": {"model": "dm2", "m": 1}}, "data.m"),
    ({"experiment": "dm2-robustness", "data": {"model": "dm2"}, "sweep": {"m": [3, 2.0]}},
     "sweep.m"),
    ({"methods": ["mmcl-closed", "mmcl-closed"]}, "methods"),
    ({"sweep": {"p_dim": ["2"]}}, "sweep.p_dim"),
    ({"sweep": {"rho": ["1.0"]}}, "sweep.rho"),
    # a key of the other data model
    ({"experiment": "caption-sweep-dm1", "data": {**_DM1, "pi": 0.1}}, "data.pi"),
    ({"data": {**_DM1, "alpha": 9.0}}, "data.alpha"),
    ({"sweep": {"m": [2, 3]}}, "sweep.m"),
    ({"experiment": "dm2-robustness", "data": {"model": "dm2", "pi_core": 0.5}},
     "data.pi_core"),
    # a dm2-only switch turned on for dm1 data
    ({"train": {"n_train": 100, "exhaustive": True}}, "train.exhaustive"),
    ({"eval": {"exhaustive": True}}, "eval.exhaustive"),
    ({"experiment": "method-compare", "methods": ["supcon"],
      "eval": {"supcon_geometry": True}}, "eval.supcon_geometry"),
    ({"experiment": "method-compare", "methods": ["supcon"],
      "eval": {"supcon_restarts": 1}}, "eval.supcon_restarts"),
    ({"method_overrides": {"mmcl-closed": {"eval": {"exhaustive": True}}}},
     "method_overrides.mmcl-closed.eval.exhaustive"),
    # values out of the data model's domain, found when the cells are built
    ({"data": {**_DM1, "p_spu": 0.3}}, "p_spu must lie in"),
    ({"data": {**_DM1, "sigma_core": 0}}, "sigma_core must be > 0"),
    ({"data": {**_DM1, "sigma_spu": -1}}, "sigma_spu must be >= 0"),
    ({"data": {**_DM1, "pi_core": 1.5}}, "pi_core must lie in"),
    ({"data": {**_DM1, "exponent_variant": "squared"}}, "data.exponent_variant"),
    ({"sweep": {"sigma_spu": [0.05, -0.5]}}, "sweep cell {'sigma_spu': -0.5}"),
    ({"modality": {"d_I": 1, "d_T": 2}}, "modality.d_I is 1, below the latent dimension 2"),
    ({"modality": {"d_I": 2, "d_T": 1}}, "modality.d_T is 1"),
    ({"experiment": "dm2-robustness", "data": {"model": "dm2", "m": 2},
      "modality": {"d_I": 4}, "sweep": {"m": [2, 3]}},
     "modality.d_I is 4, below the latent dimension 6 .*sweep cell {'m': 3}"),
    ({"method_overrides": {"mmcl-closed": {"modality": {"d_T": 1}}}},
     r"modality.d_T is 1, .*mmcl-closed"),
    ({"experiment": "dm2-robustness", "data": {"model": "dm2", "alpha": 0}},
     "alpha must be > 0, got 0"),
    ({"experiment": "dm2-robustness", "data": {"model": "dm2", "beta": 1}},
     r"beta must lie in \[0, 1\), got 1"),
])
def test_top_level_numbers_rejected(extra, key):
    with pytest.raises(ValidationError, match=key):
        config_from_dict(_tiny_dm1_config(**extra))


def _tiny_dm2_config(**extra):
    doc = {
        "experiment": "dm2-robustness", "name": "tiny2", "root_seed": 5,
        "data": {"model": "dm2", "m": 3, "alpha": 0.7, "beta": 0.3333},
        "methods": ["mmcl-closed"],
        "train": {"exhaustive": True, "p_dim": 6},
        "eval": {"exhaustive": True, "splits": ["true"]},
    }
    doc.update(extra)
    return doc


# supcon on dm2 loads at alpha > 1 only, where its checks hold
SUPCON_DM2_DATA = {"model": "dm2", "m": 3, "alpha": 1.5, "beta": 0.3333}


@pytest.mark.parametrize("doc,match", [
    (_tiny_dm1_config(train={"p_dim": 2}), r"train\.n_train .*mmcl-closed"),
    (_tiny_dm1_config(eval={"splits": ["true"]}), r"eval\.n_eval .*mmcl-closed"),
    (_tiny_dm1_config(methods=["mmcl-analytic", "sl"], train={"p_dim": 2}),
     r"train\.n_train .*\(method sl\)"),
    (_tiny_dm2_config(train={"p_dim": 6}), r"train\.n_train"),
    (_tiny_dm2_config(eval={"splits": ["true"]}), r"eval\.n_eval"),
    (_tiny_dm2_config(method_overrides={"mmcl-closed": {"eval": {"exhaustive": False}}}),
     r"eval\.n_eval"),
    (_tiny_dm1_config(train={"p_dim": 2}, sweep={"sigma_spu": [0.05, 0.1]}),
     r"train\.n_train .*mmcl-closed\) \(sweep cell \{'sigma_spu': 0\.05\}\)"),
], ids=["dm1-n_train", "dm1-n_eval", "dm1-sl-n_train", "dm2-n_train", "dm2-n_eval",
        "dm2-override-n_eval", "swept-n_train"])
def test_sampled_data_needs_its_size(doc, match):
    with pytest.raises(ValidationError, match=match):
        config_from_dict(doc)


def test_resolver_fills_defaults_from_the_merged_sections():
    # an override's image noise is its evaluation noise, and d_T follows its d_I
    doc = _tiny_dm1_config(methods=["mmcl-closed", "mmcl-analytic", "sl"], modality={},
                           train={"n_train": 2000},
                           method_overrides={"sl": {"modality": {"d_I": 40,
                                                                 "noise_sigma_I": 0.3}}})
    config = config_from_dict(doc)
    params, mask, _, _ = harness._build_cell(config, {})

    def resolve(method):
        return harness._method_sections(config, method, {}, params, mask)

    modality, train, eval_sec, row = resolve("mmcl-closed")
    assert (modality["d_I"], modality["d_T"], eval_sec["noise_sigma"]) == (2, 2, 0.0)
    # the CSV row leaves an unset p_dim empty
    assert (train["p_dim"], row["p_dim"], train["draws"], eval_sec["counted"]) == (
        2, None, True, False)
    assert not resolve("mmcl-analytic")[1]["draws"]
    modality, _, eval_sec, _ = resolve("sl")
    assert (modality["d_I"], modality["d_T"], eval_sec["noise_sigma"]) == (40, 40, 0.3)
    doc["eval"]["noise_sigma"] = 0.0  # a stated evaluation noise wins
    config = config_from_dict(doc)
    assert resolve("sl")[2]["noise_sigma"] == 0.0


@pytest.mark.parametrize("doc", [
    _tiny_dm1_config(methods=["mmcl-analytic"], train={"p_dim": 2}),
    _tiny_dm1_config(methods=["sl"], train={},
                     method_overrides={"sl": {"train": {"n_train": 100}}}),
    _tiny_dm1_config(train={"p_dim": 2}, sweep={"n_train": [100, 200]}),
    _tiny_dm2_config(),
    _tiny_dm2_config(methods=["mmcl-analytic"], train={"p_dim": 6}, eval={"splits": ["true"]}),
], ids=["analytic", "override", "sweep", "dm2-exhaustive", "dm2-counted"])
def test_sample_sizes_are_found_where_they_apply(doc):
    config_from_dict(doc)


@pytest.mark.parametrize("doc,match", [
    (_tiny_dm2_config(train={"exhaustive": True, "p_dim": 6, "n_train": 7}),
     r"train\.n_train is 7, but train\.exhaustive .*\(method mmcl-closed\)$"),
    (_tiny_dm2_config(method_overrides={"mmcl-closed": {"train": {"n_train": 7}}}),
     r"train\.n_train is 7, .*\(method mmcl-closed\)$"),
    (_tiny_dm2_config(sweep={"n_train": [7, 8]}),
     r"train\.n_train is 7, .*\(method mmcl-closed\) \(sweep cell \{'n_train': 7\}\)"),
], ids=["train", "override", "sweep"])
def test_exhaustive_training_rejects_an_n_train(doc, match):
    # the fit trains on every enumerated row, so a stated n_train would be a false CSV column
    with pytest.raises(ValidationError, match=match):
        config_from_dict(doc)


def test_a_population_fit_leaves_n_train_empty(tmp_path):
    doc = _tiny_dm1_config(trials=1, methods=["mmcl-closed", "mmcl-analytic"])
    records = run_experiment(config_from_dict(doc))
    assert {(r.method, r.params["n_train"]) for r in records} == {
        ("mmcl-closed", 2000), ("mmcl-analytic", None)}
    emit_csv(records, tmp_path / "results.csv")
    with open(tmp_path / "results.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {(row["method"], row["n_train"]) for row in rows} == {
        ("mmcl-closed", "2000"), ("mmcl-analytic", "")}


def test_dm2_switches_off_are_accepted_on_dm1():
    doc = _tiny_dm1_config(experiment="method-compare")
    doc["train"]["exhaustive"] = False
    doc["eval"].update(exhaustive=False, supcon_geometry=False, supcon_restarts=0)
    assert config_from_dict(doc).eval["supcon_restarts"] == 0


@pytest.mark.parametrize("extra,key", [
    ({"data": {"model": "dm1", "sigma_core": "1.0"}}, "data.sigma_core"),
    ({"train": {"n_train": 100, "p_dim": "2"}}, "train.p_dim"),
    ({"experiment": "method-compare", "methods": ["supcon"],
      "eval": {"n_eval": 100, "supcon_geometry": True}}, "eval.supcon_geometry"),
    ({"train": {"p_dim": 2}}, "train.n_train"),
    ({"eval": {"splits": ["true"]}}, "eval.n_eval"),
    ({"eval": {"n_eval": 100, "splits": ["true", "ood"]}}, "eval.splits: ood"),
    ({"method_overrides": {"mmcl-closed": {"eval": {"splits": ["ood"]}}}},
     "method_overrides.mmcl-closed.eval.splits: ood"),
    ({"eval": {"n_eval": 100, "splits": []}}, "eval.splits must be a non-empty list"),
    ({"method_overrides": {"mmcl-closed": {"eval": {"splits": []}}}},
     "method_overrides.mmcl-closed.eval.splits must be a non-empty list"),
    ({"methods": []}, "methods must be a non-empty list"),
    ({"name": 5}, "name"),
    ({"name": ["a", "b"]}, "name"),
    ({"slacks": {"nonsense": 0.1}}, "'nonsense'"),
    ({"slacks": {"mmcl:true:accuracy": 0.1}}, "'mmcl:true:accuracy'"),
    ({"slacks": {"clip:true:overall:accuracy": 0.1}}, "'clip:true:overall:accuracy'"),
    ({"slacks": {"mmcl:ood:overall:accuracy": 0.1}}, "'mmcl:ood:overall:accuracy'"),
    ({"slacks": {"mmcl:true:overall:acc": 0.1}}, "'mmcl:true:overall:acc'"),
    ({"slacks": {"mmcl:true:minortiy:accuracy": 0.0}}, "'mmcl:true:minortiy:accuracy'"),
    ({"slacks": {"sl:true:overall:collinearity_residual": 0.0}},
     "'sl:true:overall:collinearity_residual'"),
    # the dm2 sl true-split ceiling is vacuous at alpha 0.7, so no cell checks it
    ({**_tiny_dm2_config(methods=["sl"], slacks={"sl:true:overall:accuracy": 0.0}),
      "modality": {}},
     "'sl:true:overall:accuracy'"),
    ({"method_overrides": {"sl": {"train": {"n_train": 500}}}},
     "method_overrides.sl names a method that methods does not list"),
    ({"data": {**_DM1, "p_spu": 0.3}}, "p_spu"),
    ({"data": {**_DM1, "sigma_core": 0}}, "sigma_core"),
    ({"data": {**_DM1, "sigma_spu": -1}}, "sigma_spu"),
    ({"data": {**_DM1, "pi_core": 1.5}}, "pi_core"),
    ({"data": {**_DM1, "exponent_variant": "squared"}},
     "data.exponent_variant must be one of linear, got 'squared': the masked covariance "
     "is linear in pi_core"),
    ({"sweep": {"sigma_spu": [0.05, -0.5]}}, "sweep cell"),
    ({"modality": {"d_I": 2, "d_T": 2, "noise_sigma_I": -1}}, "modality.noise_sigma_I"),
    ({"modality": {"d_I": 2, "d_T": 2, "noise_sigma_T": -1}}, "modality.noise_sigma_T"),
    ({"eval": {"n_eval": 100, "noise_sigma": -1}}, "eval.noise_sigma"),
    ({"train": {"n_train": 100, "rho": 0}}, "train.rho"),
    ({"train": {"n_train": 100, "rho": -1}}, "train.rho"),
    ({"modality": {"d_I": 2, "dictionary": "bogus"}}, "modality.dictionary"),
    ({"train": {"n_train": 1}}, "train.n_train"),
    ({"modality": {"d_I": 1}}, "modality.d_I"),
], ids=["data.sigma_core", "train.p_dim", "dm1-supcon_geometry", "train.n_train-missing",
        "eval.n_eval-missing", "eval.splits-unknown", "override-eval.splits-unknown",
        "eval.splits-empty", "override-eval.splits-empty", "methods-empty",
        "name-number", "name-list", "slack-one-part", "slack-three-parts",
        "slack-family", "slack-split", "slack-metric", "slack-group", "slack-unchecked",
        "slack-vacuous-ceiling", "override-unlisted-method", "p_spu-domain", "sigma_core-zero",
        "sigma_spu-negative", "pi_core-domain", "exponent_variant-unknown",
        "sweep-cell-domain", "noise_sigma_I-negative", "noise_sigma_T-negative",
        "eval.noise_sigma-negative", "rho-zero", "rho-negative", "dictionary-unknown",
        "n_train-one", "d_I-below-l"])
def test_cli_exits_2_on_a_mistyped_data_number(tmp_path, capsys, extra, key):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(_tiny_dm1_config(**extra)))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "dm1"], ["run", "--config", "c.json"], ["sweep", "--config", "c.json"],
], ids=["verify", "run", "sweep"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_rejects_threads_below_one(tmp_path, capsys, command, threads):
    with pytest.raises(SystemExit) as exc:
        cli_main([*command, "--out", str(tmp_path / "o"), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content", [None, b'{"experiment": ', b"\xff\xfe{}"],
                         ids=["missing", "malformed-json", "not-utf8"])
def test_cli_exits_2_on_an_unreadable_config(tmp_path, capsys, content):
    config_path = tmp_path / "cfg.json"
    if content is not None:
        config_path.write_bytes(content)
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(config_path) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "dm2"], ["run"], ["sweep"],
], ids=["verify", "run", "sweep"])
@pytest.mark.parametrize("nested", [False, True], ids=["file", "under-a-file"])
def test_cli_exits_2_when_out_is_not_a_directory(tmp_path, capsys, command, nested):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(_tiny_dm1_config(sweep={"p_dim": [1, 2]})))
    if command[0] != "verify":
        command = [*command, "--config", str(config_path)]
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker / "o" if nested else blocker
    assert cli_main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and "Traceback" not in err
    assert blocker.read_text() == "keep"


def test_docs_example_covers_every_field():
    from pathlib import Path

    from mmclab.harness import _FIELDS, _SWEEPS

    doc = (Path(__file__).parent.parent / "docs" / "configuration.md").read_text()
    example = doc.split("```jsonc")[1].split("```")[0]
    missing = sorted(f"{sec}.{key}" for sec, key in _FIELDS if f'"{key}"' not in example)
    assert not missing
    listed = example.split("Sweepable:")[1].split(".")[0].replace("//", "")
    assert sorted(k.strip() for k in listed.split(",")) == sorted(_SWEEPS)


def test_configuration_doc_names_every_schema_key():
    # docs/configuration.md restates the schema; a key it does not name has drifted
    import re
    from pathlib import Path

    doc = (Path(__file__).parent.parent / "docs" / "configuration.md").read_text()
    missing = [f"{sec}.{key}" for sec, key in harness._FIELDS
               if not re.search(rf"`({sec}\.)?{key}`", doc)]
    missing += [key for key in harness._TOP_FIELDS if f"`{key}`" not in doc]
    assert not missing


def test_config_example_is_a_loadable_cut_of_the_documented_example():
    # README runs docs/config_example.json, and docs/configuration.md says every
    # key it sets has the value that the annotated example gives it
    import re
    from pathlib import Path

    docs = Path(__file__).parent.parent / "docs"
    text = (docs / "configuration.md").read_text()
    block = text.split("```jsonc\n", 1)[1].split("\n```", 1)[0]
    annotated = json.loads(re.sub(r"//.*", "", block))
    config_from_dict(annotated)
    config_from_file(docs / "config_example.json")

    def assert_cut(part, whole, where):
        for key, value in part.items():
            assert key in whole, f"{where}{key} is not in the annotated example"
            if isinstance(value, dict):
                assert_cut(value, whole[key], f"{where}{key}.")
            else:
                assert value == whole[key], f"{where}{key} differs"

    assert_cut(json.loads((docs / "config_example.json").read_text()), annotated, "")


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


def test_comparator_directions():
    passes = theory.COMPARATORS
    assert passes["lower-bound"](0.9, 0.85, 0.0)
    assert not passes["lower-bound"](0.8, 0.85, 0.01)
    assert passes["upper-bound"](0.5, 0.55, 0.0)
    assert passes["upper-bound"](0.56, 0.55, 0.02)
    assert passes["equality-threshold"](0.515, 0.5, 0.02)
    assert not passes["equality-threshold"](0.53, 0.5, 0.02)
    with pytest.raises(DomainError, match="boolean-condition"):
        theory.TheoremPrediction(values={"x": 1.0}, comparators={"x": "boolean-condition"})


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
    # a p_spu sweep runs one task per (cell, trial); a caption sweep runs all of a
    # trial's cells in one task; the mixed sweep interleaves two caption groups
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the 8 workers switch often
    try:
        for sweep in ({"p_spu": [0.9, 0.95]},
                      {"pi_core": [0.0, 0.5, 1.0], "pi_spu": [0.0, 1.0]},
                      {"pi_core": [0.0, 1.0], "p_spu": [0.9, 0.95]}):
            doc = _tiny_dm1_config(trials=3, sweep=sweep)
            digests = []
            for threads in (1, 1, 8):
                records = run_experiment(config_from_dict(doc), threads=threads)
                path = tmp_path / f"t{len(digests)}.csv"
                emit_csv(records, path)
                digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            assert digests[0] == digests[1] == digests[2], sweep
    finally:
        sys.setswitchinterval(switch)


def test_the_cells_of_a_caption_group_run_on_its_first_cells_stream():
    # p_spu 0.9 groups cells 0 and 1, p_spu 0.95 cells 2 and 3; records still come
    # back cell-major and trial-minor, one run_id per (cell, trial)
    doc = _tiny_dm1_config(trials=2, sweep={"p_spu": [0.9, 0.95], "pi_core": [0.0, 1.0]})
    records = run_experiment(config_from_dict(doc))
    ids = {r.run_id[-8:]: r.seed for r in records}
    assert list(ids) == [f"c{c:03d}-t{t:02d}" for c in range(4) for t in range(2)]
    assert ids == {f"c{c:03d}-t{t:02d}": numerics.stream_id_for(c - c % 2, t)
                   for c in range(4) for t in range(2)}


def test_a_groups_first_cell_writes_the_rows_of_its_levels_run_alone():
    # the first cell of a caption group draws what it would draw alone, so its rows
    # are those of the same config swept at that cell's levels only
    swept = _tiny_dm1_config(trials=2, sweep={"pi_core": [0.0, 0.5], "pi_spu": [0.0, 1.0]})
    alone = _tiny_dm1_config(trials=2, sweep={"pi_core": [0.0], "pi_spu": [0.0]})

    def rows(records):
        return [replace(r, wall_time=0.0) for r in records]

    first = [r for r in run_experiment(config_from_dict(swept)) if "-c000-" in r.run_id]
    assert first and rows(first) == rows(run_experiment(config_from_dict(alone)))


def test_sl_reads_the_same_values_in_every_caption_cell_of_a_trial():
    # the caption levels mask only the text side, which sl never sees: on the shared
    # draws its fit and its scores are the same in each cell of a trial
    doc = _tiny_dm1_config(trials=2, methods=["mmcl-closed", "sl"],
                           train={"n_train": 500, "p_dim": 2, "rho": 1.0, "epochs": 200},
                           sweep={"pi_core": [0.0, 0.5, 1.0]})
    values = {}
    for r in run_experiment(config_from_dict(doc)):
        values.setdefault((r.method, r.run_id[-3:], r.group), set()).add(r.value)
    assert {len(v) for (method, *_), v in values.items() if method == "sl"} == {1}
    assert {len(v) for (method, *_), v in values.items() if method == "mmcl-closed"} == {3}


def _caption_group_doc():
    """One caption group of 6 cells that runs the mmcl closed form, a wide sl and
    supcon, as the paper's caption experiments compare them."""
    return _tiny_dm1_config(
        experiment="caption-sweep-dm1", trials=2, methods=["mmcl-closed", "sl", "supcon"],
        train={"n_train": 1000, "p_dim": 2, "rho": 1.0, "probe_epochs": 20},
        eval={"n_eval": 1000, "splits": ["true"]},
        method_overrides={"sl": {"modality": {"d_I": 100, "noise_sigma_I": 0.1},
                                 "train": {"n_train": 50, "epochs": 20}}},
        slacks={"supcon:true:overall:accuracy": 0.5, "supcon:true:minority:accuracy": 1.0},
        sweep={"pi_core": [0.0, 0.5, 1.0], "pi_spu": [0.0, 1.0]})


def _counted(monkeypatch, module, name, calls, fail=None):
    """Count the calls of ``module.name`` in ``calls[name]``; raise ``fail`` if set."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        if fail is not None:
            raise fail
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_caption_group_fits_sl_and_supcon_once_per_trial(monkeypatch, threads):
    # sl and supcon never read the captions, so each trial fits them once for its 6
    # cells (sl_fit_gd: the sl fit and the supcon probe); mmcl fits once per cell
    calls = {}
    for name in ("sl_fit_gd", "supcon_fit_closed_form", "mmcl_fit_closed_form"):
        _counted(monkeypatch, harness.training, name, calls)
    records = run_experiment(config_from_dict(_caption_group_doc()), threads=threads)
    assert calls == {"sl_fit_gd": 4, "supcon_fit_closed_form": 2, "mmcl_fit_closed_form": 12}
    rows = {}
    for r in records:
        rows.setdefault((r.method, r.run_id[-3:]), set()).add(r.run_id)
    assert {len(cells) for cells in rows.values()} == {6}   # every cell writes its rows


def test_a_failed_sl_fit_writes_an_error_row_in_every_caption_cell(monkeypatch):
    # a failure is not shared: each of the 6 cells of each of 2 trials tries the sl
    # fit and writes its own error row, and the mmcl rows keep their values
    config = config_from_dict({**_caption_group_doc(), "methods": ["mmcl-closed", "sl"],
                               "slacks": {}})

    def untimed(records, method):
        return [replace(r, wall_time=0.0) for r in records if r.method == method]

    clean = run_experiment(config)
    calls = {}
    _counted(monkeypatch, harness.training, "sl_fit_gd", calls,
             fail=TrainingError("diverged at epoch 3"))
    records = run_experiment(config)
    errors = untimed(records, "sl")
    assert calls == {"sl_fit_gd": 12} and len({r.run_id for r in errors}) == len(errors) == 12
    assert {(r.group, r.passed, r.error) for r in errors} == {
        ("error", False, "TrainingError: diverged at epoch 3")}
    assert untimed(records, "mmcl-closed") == untimed(clean, "mmcl-closed")


@pytest.mark.parametrize("threads", [1, 2])
def test_the_draw_memo_is_empty_after_a_run_also_when_a_task_raises(monkeypatch, threads):
    opened, real = [], datagen._shared_draws

    @contextlib.contextmanager
    def spy():
        with real() as memo:
            opened.append(memo)
            yield memo
            assert memo  # the task shared its draws

    monkeypatch.setattr(datagen, "_shared_draws", spy)
    config = config_from_dict(_tiny_dm1_config(trials=2, sweep={"pi_core": [0.0, 1.0]}))
    run_experiment(config, threads=threads)
    assert opened == [{}, {}] and getattr(datagen._TASK, "memo", None) is None

    fit, fits = harness.training.mmcl_fit_closed_form, []

    def failing(*args, **kwargs):
        fits.append(None)
        if len(fits) > 1:
            raise RuntimeError("fit failed")
        return fit(*args, **kwargs)

    monkeypatch.setattr(harness.training, "mmcl_fit_closed_form", failing)
    opened.clear()
    with pytest.raises(RuntimeError, match="fit failed"):
        run_experiment(config, threads=threads)
    assert opened and all(memo == {} for memo in opened)
    assert getattr(datagen._TASK, "memo", None) is None


@pytest.mark.parametrize("doc", [
    {"experiment": "dm1-robustness", "name": "wide-sl", "root_seed": 4, "trials": 2,
     "data": _DM1, "modality": {"d_I": 2000, "noise_sigma_I": 0.1}, "methods": ["sl"],
     "train": {"n_train": 300, "epochs": 40}, "eval": {"n_eval": 2000, "splits": ["true"]}},
    {"experiment": "dm2-robustness", "name": "m10", "root_seed": 4, "trials": 2,
     "data": {"model": "dm2", "m": 10, "alpha": 0.7, "beta": 0.3},
     "modality": {"d_I": 200, "d_T": 200, "noise_sigma_I": 0.1, "noise_sigma_T": 0.1},
     "methods": ["mmcl-closed"], "train": {"n_train": 4000, "p_dim": 20},
     "eval": {"n_eval": 4000, "splits": ["true", "train"]}},
    # a noisy two-factor rule, W_enc^T W, drawn in its image
    {"experiment": "method-compare", "name": "supcon-noisy", "root_seed": 4, "trials": 2,
     "data": {"model": "dm2", "m": 3, "alpha": 1.5, "beta": 1 / 3},
     "modality": {"d_I": 400, "noise_sigma_I": 0.3}, "methods": ["supcon"],
     "train": {"n_train": 2000, "p_dim": 6, "probe_epochs": 300},
     "eval": {"n_eval": 4000, "splits": ["true", "train"]}},
], ids=["sl-d2000", "dm2-m10-sampled", "supcon-probe-noisy"])
def test_csv_bytes_identical_at_sizes_where_blas_threads(tmp_path, doc):
    digests = []
    for threads in (1, 2):
        path = tmp_path / f"t{threads}.csv"
        emit_csv(run_experiment(config_from_dict(doc), threads=threads), path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


THREAD_CALLS = ("openblas_get_num_threads", "openblas_set_num_threads")


@pytest.mark.skipif(numerics._openblas(*THREAD_CALLS) is None,
                    reason="BLAS thread count cannot be controlled here")
@pytest.mark.parametrize("threads,trials,in_task,recorded", [
    (2, 2, 2, 2), (3, 2, 2, 2), (3, 3, 1, 1), (2, 1, 4, None)])
def test_blas_threads_split_across_workers_and_restored(monkeypatch, threads, trials,
                                                        in_task, recorded):
    # BLAS starts at 4 threads; workers in use are min(threads, trials)
    get, put, _ = numerics._openblas(*THREAD_CALLS)
    before = get()
    seen = []

    def task(config, blas, *args):
        seen.append((get(), blas))
        return []

    def failing(config, blas, *args):
        raise RuntimeError("task failed")

    monkeypatch.setattr(harness, "_run_task", task)
    config = config_from_dict(_tiny_dm1_config(trials=trials))
    try:
        put(4)
        run_experiment(config, threads=threads)
        assert get() == 4
        assert seen == [(in_task, recorded)] * trials
        monkeypatch.setattr(harness, "_run_task", failing)
        with pytest.raises(RuntimeError, match="task failed"):
            run_experiment(config, threads=threads)
        assert get() == 4
    finally:
        put(before)


@pytest.mark.parametrize("threads", [1, 2])
def test_each_cell_is_built_once_per_run(monkeypatch, threads):
    # the checks of a dm2 caption cell count an exact accuracy; a run builds each
    # of its 2 cells once, not once per (cell, trial) task
    calls = []
    counted = theory.zero_shot_accuracy_dm2

    def spy(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(theory, "zero_shot_accuracy_dm2", spy)
    config = config_from_dict({
        "experiment": "caption-sweep-dm2", "name": "cap2", "trials": 8,
        "data": {"model": "dm2", "m": 3, "alpha": 1.1, "beta": 1 / 3},
        "modality": {"d_I": 6, "d_T": 6}, "methods": ["mmcl-analytic"],
        "train": {"p_dim": 6}, "eval": {"splits": ["true"]}, "sweep": {"pi": [0.3, 0.6]}})
    assert len(calls) == 2                      # at load
    records = run_experiment(config, threads=threads)
    assert len({rec.run_id for rec in records}) == 16
    assert len(calls) == 4
    assert sorted(set(calls)) == sorted(set(calls[:2]))


@pytest.mark.parametrize("threads", [1, 2])
def test_each_method_is_resolved_once_per_cell_at_load_and_once_per_run(monkeypatch, threads):
    # the plan holds each method's sections, so no (cell, trial) task resolves them
    # again; 4 cells in 2 caption groups make 16 tasks
    calls = []
    resolve = harness._method_sections

    def spy(config, method, cell, *args):
        calls.append((method, tuple(sorted(cell.items()))))
        return resolve(config, method, cell, *args)

    monkeypatch.setattr(harness, "_method_sections", spy)
    exhaustive = {"train": {"exhaustive": True}, "eval": {"exhaustive": True}}
    config = config_from_dict({
        "experiment": "caption-sweep-dm2", "name": "cap2", "trials": 8,
        "data": {"model": "dm2", "m": 3, "alpha": 1.1, "beta": 1 / 3},
        "modality": {"d_I": 6, "d_T": 6}, "methods": ["mmcl-analytic", "mmcl-closed"],
        "train": {"p_dim": 6}, "eval": {"splits": ["true"]},
        "method_overrides": {"mmcl-closed": exhaustive},
        "sweep": {"pi": [0.3, 0.6], "alpha": [1.1, 1.5]}})
    resolved = {(method, tuple(sorted(cell.items()))) for cell in harness._sweep_cells(config)
                for method in config.methods}
    assert sorted(calls) == sorted(resolved)                    # at load
    records = run_experiment(config, threads=threads)
    assert len({rec.run_id for rec in records}) == 32 and not any(r.error for r in records)
    assert sorted(calls) == sorted([*resolved, *resolved])    # once more by the run


def test_summary_records_blas_threads_per_worker():
    config = config_from_dict(_tiny_dm1_config(trials=2))
    assert summarize(run_experiment(config))["blas_threads_per_worker"] is None
    calls = numerics._openblas(*THREAD_CALLS)
    expected = None if calls is None else max(1, calls[0]() // 2)
    assert summarize(run_experiment(config, threads=2))["blas_threads_per_worker"] == expected


def test_an_uncontrolled_blas_runs_pooled_at_the_serial_bytes(monkeypatch, tmp_path):
    # README: a BLAS that cannot be controlled keeps its default, recorded as null
    config = config_from_dict(_tiny_dm1_config(trials=2))
    emit_csv(run_experiment(config), tmp_path / "serial.csv")
    found = numerics._openblas
    monkeypatch.setattr(numerics, "_openblas",
                        lambda *names: None if names == THREAD_CALLS else found(*names))
    records = run_experiment(config, threads=2)
    emit_csv(records, tmp_path / "pooled.csv")
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert summarize(records)["blas_threads_per_worker"] is None


def test_failed_cell_records_error_and_suite_continues():
    # every value is in its domain, but only a run finds that exhaustive m = 10
    # data exceeds ENUMERATION_CAP: in the first cell the enumerating method
    # records an error while the counted analytic fit runs, and the second cell runs
    doc = _tiny_dm2_config(trials=1, methods=["mmcl-closed", "mmcl-analytic"],
                           train={"exhaustive": True}, sweep={"m": [10, 2]})
    records = run_experiment(config_from_dict(doc))
    errors = [r for r in records if r.error]
    fine = [r for r in records if not r.error]
    assert [r.method for r in errors] == ["mmcl-closed"]
    assert {(r.method, r.run_id[-8:]) for r in fine} == {
        ("mmcl-analytic", "c000-t00"), ("mmcl-closed", "c001-t00"),
        ("mmcl-analytic", "c001-t00")}
    assert all(r.error.startswith("SizeError") and r.run_id.endswith("c000-t00")
               for r in errors)
    summary = summarize(records)
    assert summary["errors"] and not summary["all_passed"]


def test_error_records_carry_the_methods_parameter_row():
    # exhaustive m = 10 data exceeds ENUMERATION_CAP, so that cell records an error;
    # its row is the successful m = 2 cell's row but for m
    doc = _tiny_dm2_config(trials=1, modality={"d_I": 20, "d_T": 20},
                           train={"exhaustive": True, "p_dim": 4}, sweep={"m": [10, 2]})
    records = run_experiment(config_from_dict(doc))
    (error,) = [r for r in records if r.error]
    rows = {json.dumps(r.params, sort_keys=True) for r in records if not r.error}
    assert len(rows) == 1 and error.params == dict(json.loads(rows.pop()), m=10)
    assert {"d_I", "d_T", "p_dim", "alpha", "beta"} <= set(error.params)


def _exact_dm2_config(experiment, methods, **extra):
    """m = 3, alpha = 1.1, beta = 0.5: the perfect-accuracy condition fails at
    every pi, yet true-split accuracy is 1/2 + 2^-3 wherever u > v alpha."""
    doc = {"experiment": experiment, "name": "exact", "root_seed": 5,
           "data": {"model": "dm2", "m": 3, "alpha": 1.1, "beta": 0.5},
           "methods": methods,
           "train": {"exhaustive": True, "p_dim": 6},
           "eval": {"exhaustive": True, "splits": ["true", "train"]},
           "tolerance": 0.0}
    doc.update(extra)
    return config_from_dict(doc)


def _overall(records):
    return {(r.method, r.params.get("pi"), r.split): (r.value, r.prediction, r.passed)
            for r in records if r.group == "overall"}


def test_dm2_robustness_checks_the_exact_accuracy_at_slack_zero():
    records = run_experiment(_exact_dm2_config("dm2-robustness",
                                               ["mmcl-closed", "mmcl-analytic"]))
    assert _overall(records) == {(method, None, split): (value, value, True)
                                 for method in ("mmcl-closed", "mmcl-analytic")
                                 for split, value in (("true", 0.625), ("train", 1.0))}


def test_caption_sweep_dm2_checks_the_exact_accuracy_at_slack_zero():
    config = _exact_dm2_config("caption-sweep-dm2", ["mmcl-analytic"],
                               sweep={"pi": [0.3, 0.5]})
    assert _overall(run_experiment(config)) == {
        ("mmcl-analytic", pi, split): (value, value, True)
        for pi, true in ((0.3, 0.5), (0.5, 0.625))
        for split, value in (("true", true), ("train", 1.0))}


@pytest.mark.parametrize("modality,eval_sec,overrides", [
    ({"noise_sigma_I": 0.3}, {"n_eval": 2000}, {}),
    ({}, {"noise_sigma": 0.1}, {}),
    ({}, {}, {"mmcl-analytic": {"eval": {"noise_sigma": 0.1, "exhaustive": True}}}),
], ids=["image-noise", "eval-noise", "override-noise"])
def test_noisy_analytic_dm2_evaluation_is_rejected(modality, eval_sec, overrides):
    # counting assumes noiseless inputs, and so do the checks it is compared with
    doc = {"experiment": "dm2-robustness", "name": "noisy-analytic", "root_seed": 3,
           "data": {"model": "dm2", "m": 3, "alpha": 0.7, "beta": 1 / 3},
           "modality": {"d_I": 8, "d_T": 8, **modality},
           "methods": ["mmcl-analytic"], "train": {"p_dim": 6},
           "eval": {**eval_sec, "splits": ["true", "train"]}, "method_overrides": overrides}
    with pytest.raises(ValidationError, match=r"mmcl-analytic on dm2 .*must be 0, got 0\.[13]"):
        config_from_dict(doc)
    # the image noise is free when evaluation overrides it to 0
    doc["modality"]["noise_sigma_I"] = 0.3
    doc["eval"]["noise_sigma"] = 0.0
    doc["method_overrides"] = {}
    config_from_dict(doc)


def test_counted_evaluation_accepts_and_ignores_n_eval_and_exhaustive(tmp_path):
    # the frozen benchmark copy of captions-dm2 still sets n_eval and a slack
    from pathlib import Path

    path = Path(__file__).parent.parent / "perfbench" / "configs" / "captions-dm2.json"
    doc = dict(json.loads(path.read_text()), trials=1)
    digests = set()
    for eval_sec in ({"n_eval": 50000}, {"n_eval": 1}, {"exhaustive": True}, {}):
        doc["eval"] = {**eval_sec, "splits": ["true"]}
        records = run_experiment(config_from_dict(doc))
        assert all(r.passed is not False for r in records)
        emit_csv(records, tmp_path / "results.csv")
        digests.add(hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest())
    assert len(digests) == 1


def test_mmcl_gd_runs_from_a_config_and_records_a_diverging_lr():
    doc = _tiny_dm1_config(trials=1, methods=["mmcl-closed", "mmcl-gd"],
                           train={"n_train": 5000, "p_dim": 2, "rho": 1.0},
                           eval={"n_eval": 5000, "splits": ["true"]})
    records = run_experiment(config_from_dict(doc))
    assert not any(r.error for r in records)
    checks = {(r.method, r.group): r.passed for r in records if r.passed is not None}
    assert checks == {(method, group): True for method in ("mmcl-closed", "mmcl-gd")
                      for group in ("overall", "minority")}
    doc["train"]["lr"] = 1e6
    errors = [r for r in run_experiment(config_from_dict(doc)) if r.error]
    assert [r.method for r in errors] == ["mmcl-gd"]
    assert errors[0].error.startswith("TrainingError") and "lr=1000000.0" in errors[0].error


def _recorded_gd_fits(monkeypatch):
    """Record the ``training_meta`` of every GD fit that later runs make: sl,
    the SupCon probes (``probe_fit`` calls ``sl_fit_gd``) and mmcl-gd."""
    metas = []
    for name in ("sl_fit_gd", "mmcl_fit_gd"):
        def recorded(*args, _fit=getattr(harness.training, name), **kwargs):
            model = _fit(*args, **kwargs)
            metas.append(model.training_meta)
            return model
        monkeypatch.setattr(harness.training, name, recorded)
    return metas


def _assert_epochs_reported(meta):
    # a fit stops short of its budget exactly when its gradient norm fell under GRAD_TOL
    assert 0 <= meta["epochs_run"] <= meta["epochs"]
    assert (meta["epochs_run"] < meta["epochs"]) == (meta["final_grad_norm"] < GRAD_TOL)


def test_every_gd_fit_reports_the_epochs_it_ran(monkeypatch):
    metas = _recorded_gd_fits(monkeypatch)
    configs = [replace(cfg, trials=1) for cfg in harness.suite_configs("all", 7)]
    configs.append(config_from_dict(_tiny_dm1_config(trials=1, methods=["mmcl-gd"])))
    fitted = {}
    for cfg in configs:
        metas.clear()
        run_experiment(cfg)
        fitted[cfg.name] = list(metas)
    assert {name for name, fits in fitted.items() if fits} == {
        "dm1-sl", "dm2-sl", "supcon-dm1", "supcon-dm2", "id-control", "tiny"}
    assert [meta["fit"] for meta in fitted["tiny"]] == ["gd"]
    for meta in (meta for fits in fitted.values() for meta in fits):
        _assert_epochs_reported(meta)


def test_probe_narrow_fits_that_never_converge_report_their_whole_budget(monkeypatch):
    # the benchmark's frozen budgets: the supcon-dm1 probe (2000 epochs),
    # dm2-sl (40000) and the supcon-dm2 probe (60000) all end far above
    # GRAD_TOL; the supcon-dm2 attack is an exact scan and fits nothing
    from pathlib import Path

    metas = _recorded_gd_fits(monkeypatch)
    for name in ("supcon-dm1", "dm2-sl", "supcon-dm2"):
        run_experiment(config_from_file(
            Path(__file__).parent.parent / "perfbench" / "configs" / f"{name}.json"))
    assert [(meta["epochs"], meta["epochs_run"] == meta["epochs"]) for meta in metas] == [
        (2000, True), (40000, True), (60000, True)]
    for meta in metas:
        _assert_epochs_reported(meta)


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


_DM1_SMALL = {"modality": {"d_I": 2, "d_T": 2},
              "train": {"n_train": 400, "p_dim": 2, "rho": 1.0, "epochs": 200,
                        "probe_epochs": 200},
              "eval": {"n_eval": 400, "splits": ["true", "train"]}}
_DM2 = {"model": "dm2", "m": 3, "alpha": 10.0, "beta": 1 / 3}


def _declared_table(model):
    """The checks a cell of ``_table_doc(model)`` must carry, stated from theory
    directly: (method, split, group, metric) -> (prediction, comparator)."""
    def declared(pred, name):
        return pred.values[name], pred.comparators[name]

    if model == "dm1":
        zero_shot = theory.zero_shot_robustness_dm1(1.0, 0.05, 0.95, 0.5)
        sl = theory.sl_failure_bounds_dm1()
        table = {(method, "true", group, "accuracy"): declared(pred, group)
                 for method, pred in (("mmcl-closed", zero_shot), ("sl", sl))
                 for group in ("overall", "minority")}
        table.update({
            ("mmcl-closed", "train", "overall", "accuracy"): declared(zero_shot, "train"),
            ("sl", "train", "overall", "accuracy"):
            declared(theory.in_distribution_predictions_dm1(1.0, 0.05), "sl_id"),
            ("sl-vs-mmcl", "train", "overall", "id_gap"): (0.0, "lower-bound"),
            ("supcon", "true", "overall", "accuracy"): (0.5, "upper-bound"),
            ("supcon", "true", "minority", "accuracy"): (0.0, "upper-bound")})
        return table
    counted = theory.zero_shot_accuracy_dm2(3, 10.0, 1 / 3)
    table = {("mmcl-analytic", split, "overall", "accuracy"): declared(counted, split)
             for split in ("true", "train")}
    table.update({
        ("sl", "true", "overall", "accuracy"):
        declared(theory.sl_shift_ceiling_dm2(10.0, 1 / 3), "overall"),
        ("sl", "train", "overall", "accuracy"): (1.0, "equality-threshold"),
        ("supcon", "true", "overall", "accuracy"): (0.5, "equality-threshold"),
        ("supcon", "train", "overall", "accuracy"): (1.0, "equality-threshold"),
        ("supcon", "true", "geometry", "collinearity_residual"): (0.0, "upper-bound"),
        ("supcon", "true", "adversarial", "best_probe_accuracy"): (0.75, "upper-bound")})
    return table


def _table_doc(model, experiment):
    """A small config of one data model that emits every key of its table."""
    if model == "dm1":
        return {"experiment": experiment, "name": "decl", "root_seed": 2,
                "data": {**_DM1, "pi_core": 0.5, "pi_spu": 1.0},
                "methods": ["mmcl-closed", "sl", "supcon"], **_DM1_SMALL}
    return {"experiment": experiment, "name": "decl", "root_seed": 2, "data": _DM2,
            "modality": {"d_I": 6, "d_T": 6}, "methods": ["mmcl-analytic", "sl", "supcon"],
            "train": {"exhaustive": True, "p_dim": 6, "epochs": 200, "probe_epochs": 200},
            "eval": {"exhaustive": True, "splits": ["true", "train"], "supcon_geometry": True,
                     "supcon_restarts": 1}}


@pytest.mark.parametrize("experiment", harness.EXPERIMENT_KINDS)
def test_theory_checks_carry_the_declared_prediction_and_comparator(experiment):
    # on every data model it allows, an experiment kind checks its records against
    # that model's one table, and checks nothing else
    for model in harness._KINDS[experiment]:
        declared = _declared_table(model)
        seen = set()
        for rec in run_experiment(config_from_dict(_table_doc(model, experiment))):
            key = (rec.method, rec.split, rec.group, rec.metric)
            assert rec.experiment == experiment
            assert (rec.prediction, rec.comparator) == declared.get(key, (None, None)), key
            seen.add(key)
        assert set(declared) <= seen, (model, set(declared) - seen)


@pytest.mark.parametrize("experiment", harness.EXPERIMENT_KINDS)
def test_every_kind_builds_its_data_models_table(experiment):
    # the kind only limits the data model; the table and its keys come from the model
    for model in harness._KINDS[experiment]:
        config = config_from_dict(_table_doc(model, experiment))
        params, mask, _, checks = harness._build_cell(config, {})
        assert {key: check[:2] for key, check in checks.items()} == harness._CHECKS[model](
            params, mask)


def test_each_plan_holds_exactly_the_checks_its_run_compares():
    # every (cell, trial) compares each check of its cell's plan, with the plan's
    # prediction, comparator and slack, and writes no row of the model's table that
    # the plan dropped
    configs = [replace(cfg, trials=min(cfg.trials, 2)) for cfg in harness.suite_configs("all", 7)]
    configs += [config_from_dict(_table_doc(model, experiment))
                for experiment in harness.EXPERIMENT_KINDS for model in harness._KINDS[experiment]]
    for config in configs:
        plans = [harness._build_cell(config, cell) for cell in harness._sweep_cells(config)]
        tables = [harness._CHECKS[config.data["model"]](params, mask)
                  for params, mask, _, _ in plans]
        checked = {}
        for rec in run_experiment(config):
            cell_idx = int(rec.run_id.rsplit("-", 2)[1][1:])
            checks = plans[cell_idx][3]
            family = "mmcl" if rec.method.startswith("mmcl") else rec.method
            key = (family, rec.split, rec.group, rec.metric)
            assert rec.error is None and (key in checks or key not in tables[cell_idx]), key
            if key in checks:
                prediction, comparator, slack = checks[key]
                assert (rec.prediction, rec.comparator) == (prediction, comparator), key
                assert rec.passed == theory.COMPARATORS[comparator](rec.value, prediction, slack)
                checked.setdefault(rec.run_id, set()).add(key)
            else:
                assert (rec.prediction, rec.comparator, rec.passed) == (None, None, None), key
        expected = {f"{config.name}-c{c:03d}-t{t:02d}": set(plan[3])
                    for c, plan in enumerate(plans) for t in range(config.trials)}
        assert checked == {run_id: keys for run_id, keys in expected.items() if keys}, config.name
        assert all(plan[3] for plan in plans), config.name


def test_a_slack_is_the_exact_keys_then_the_groups_wildcard_then_the_tolerance():
    # dm1 zero-shot checks are equalities, so a value 0.1 or 0.25 off its prediction
    # passes exactly when the slack that applies reaches that far
    doc = _tiny_dm1_config(eval={"n_eval": 2000, "splits": ["true", "train"]}, tolerance=0.3,
                           slacks={"mmcl:true:overall:accuracy": 0.05,
                                   "mmcl:true:*:accuracy": 0.2})
    config = config_from_dict(doc)
    checks = harness._build_cell(config, {})[3]
    slacks = {"overall": 0.05, "minority": 0.2}
    assert {key: slack for key, (_, _, slack) in checks.items()} == {
        **{("mmcl", "true", group, "accuracy"): slack for group, slack in slacks.items()},
        ("mmcl", "train", "overall", "accuracy"): 0.3}
    verdicts = {(key[1], key[2], off): harness._compare(checks, key, checks[key][0] + off)["passed"]
                for key in checks for off in (0.1, 0.25)}
    assert verdicts == {("true", "overall", 0.1): False, ("true", "overall", 0.25): False,
                        ("true", "minority", 0.1): True, ("true", "minority", 0.25): False,
                        ("train", "overall", 0.1): True, ("train", "overall", 0.25): True}
    assert harness._compare(checks, ("mmcl", "true", "y=+1,a=-1", "accuracy"), 0.0) == {}


@pytest.mark.parametrize("key", ["supcon:true:overall:accuracy", "mmcl:train:overall:accuracy",
                                 "sl-vs-mmcl:train:overall:id_gap"])
def test_a_slack_key_loads_only_where_a_run_reaches_its_check(key):
    # the tiny config runs mmcl-closed on the true split: the dm1 table checks each
    # key, but no run of the config compares it
    with pytest.raises(ValidationError, match=re.escape(repr(key)) + " name no check"):
        config_from_dict(_tiny_dm1_config(slacks={key: 0.01}))
    # each key loads once a listed method evaluates its split, after overrides
    train = {"eval": {"splits": ["true", "train"]}}
    doc = _tiny_dm1_config(methods=["mmcl-closed", "sl", "supcon"], slacks={key: 0.01},
                           method_overrides={"mmcl-closed": train, "sl": train})
    assert config_from_dict(doc).slacks == {key: 0.01}


def test_the_id_gap_slack_needs_sl_and_an_mmcl_method_on_train():
    gap = {"sl-vs-mmcl:train:overall:id_gap": 0.0}
    train = {"eval": {"splits": ["train"]}}
    for overrides in ({"sl": train}, {"mmcl-closed": train}):
        doc = _tiny_dm1_config(methods=["mmcl-closed", "sl"], slacks=gap,
                               method_overrides=overrides)
        with pytest.raises(ValidationError, match="id_gap"):
            config_from_dict(doc)
    doc = _tiny_dm1_config(methods=["mmcl-gd", "sl"], slacks=gap,
                           eval={"n_eval": 2000, "splits": ["train"]})
    assert config_from_dict(doc).slacks == gap


def test_each_id_gap_row_names_its_cell(tmp_path):
    # the gap row carries the data-model parameters and caption levels that sl and
    # mmcl share, so summarize keeps one entry per sweep cell and the CSV names the cell
    doc = _tiny_dm1_config(methods=["mmcl-closed", "sl"], sweep={"p_spu": [0.9, 0.999]},
                           eval={"n_eval": 2000, "splits": ["train"]},
                           method_overrides={"sl": {"train": {"n_train": 200, "epochs": 200}}})
    records = run_experiment(config_from_dict(doc))
    gaps = [cell for cell in summarize(records)["cells"] if cell["metric"] == "id_gap"]
    assert [(cell["params"]["p_spu"], cell["n"]) for cell in gaps] == [(0.9, 2), (0.999, 2)]
    assert gaps[0]["params"] == {"sigma_core": 1.0, "sigma_spu": 0.05, "p_spu": 0.9}
    emit_csv(records, tmp_path / "results.csv")
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["metric"] == "id_gap"]
    assert [row["p_spu"] for row in rows] == ["0.9", "0.9", "0.999", "0.999"]
    assert {row["sigma_spu"] for row in rows} == {"0.05"}
    assert not any(row["n_train"] for row in rows)


def test_the_supcon_geometry_slack_needs_the_geometry_switched_on():
    key = {"supcon:true:geometry:collinearity_residual": 1e-8}
    doc = _tiny_dm2_config(experiment="method-compare", data=SUPCON_DM2_DATA,
                           methods=["supcon"], slacks=key)
    with pytest.raises(ValidationError, match="collinearity_residual' name no check"):
        config_from_dict(doc)
    doc["eval"] = {"exhaustive": True, "splits": ["train"], "supcon_geometry": True}
    assert config_from_dict(doc).slacks == key


@pytest.mark.parametrize("p_dim", [2, 9])
def test_a_counted_analytic_fit_needs_p_dim_2m_at_load(tmp_path, capsys, p_dim):
    # counting assumes the pair structure of the p_dim = 2m fit: p_dim 2 at m = 3
    # wrote a "not pair-structured" [ERROR] row at run time, and p_dim 9 a DimensionError
    doc = _tiny_dm2_config(methods=["mmcl-analytic"], train={"p_dim": p_dim})
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"train.p_dim must be 2m = 6, got {p_dim}" in err and "Traceback" not in err
    doc["sweep"] = {"p_dim": [6, p_dim]}
    with pytest.raises(ValidationError, match=rf"got {p_dim}, .*\(sweep cell \{{'p_dim': {p_dim}\}}\)"):
        config_from_dict(doc)
    doc["sweep"] = {"p_dim": [6]}
    assert config_from_dict(doc).sweep == {"p_dim": [6]}


@pytest.mark.parametrize("method,modality", [
    ("mmcl-closed", {"d_I": 3, "d_T": 2}), ("mmcl-closed", {"d_I": 2, "d_T": 3}),
    ("mmcl-analytic", {"d_I": 4, "d_T": 4}), ("supcon", {"d_I": 2, "d_T": 5})])
def test_a_p_dim_above_the_fits_rank_fails_at_load(tmp_path, capsys, method, modality):
    # the fit's covariance is d_I x d_T (mmcl-closed), l x l (mmcl-analytic) or d_I x d_I
    # (supcon), so p_dim 3 has no rank-3 fit here; it used to write a DimensionError row
    doc = _tiny_dm1_config(trials=1, methods=[method], modality=modality,
                           train={"n_train": 2000, "p_dim": 3})
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert (f"train.p_dim is 3, above 2, the largest rank this fit can reach "
            f"(method {method})") in err
    assert "Traceback" not in err
    doc["sweep"] = {"p_dim": [2, 3]}
    with pytest.raises(ValidationError, match=r"above 2, .*\(sweep cell \{'p_dim': 3\}\)"):
        config_from_dict(doc)
    doc["sweep"] = {"p_dim": [1, 2]}  # the bound itself fits
    records = run_experiment(config_from_dict(doc))
    assert records and not any(r.error for r in records)


def test_mmcl_gd_and_sl_take_any_p_dim():
    doc = _tiny_dm1_config(trials=1, methods=["mmcl-gd", "sl"],
                           train={"n_train": 200, "p_dim": 3, "epochs": 50})
    records = run_experiment(config_from_dict(doc))
    assert {r.method for r in records} == {"mmcl-gd", "sl"} and not any(r.error for r in records)


def test_a_wildcard_slack_key_loads_only_where_a_check_exists():
    # only the dm2 table checks best_probe_accuracy, and only a supcon attack reaches it
    slacks = {"supcon:true:*:best_probe_accuracy": 1e-9}
    attack = _tiny_dm2_config(experiment="method-compare", data=SUPCON_DM2_DATA,
                              methods=["supcon"], slacks=slacks,
                              eval={"exhaustive": True, "splits": ["true"],
                                    "supcon_restarts": 1})
    assert config_from_dict(attack).slacks == slacks
    dm1 = _tiny_dm1_config(experiment="method-compare", methods=["supcon"], slacks=slacks)
    with pytest.raises(ValidationError, match=r"'supcon:true:\*:best_probe_accuracy'"):
        config_from_dict(dm1)


def test_a_slack_key_loads_when_any_sweep_cell_checks_it():
    # the sl true-split ceiling exists at alpha 10 and is vacuous at alpha 0.7 and 0.8
    doc = _tiny_dm2_config(methods=["sl"], slacks={"sl:true:overall:accuracy": 0.0})
    doc["sweep"] = {"alpha": [10.0, 0.7]}
    assert config_from_dict(doc).slacks == {"sl:true:overall:accuracy": 0.0}
    doc["sweep"] = {"alpha": [0.7, 0.8]}
    with pytest.raises(ValidationError, match="'sl:true:overall:accuracy' name no check"):
        config_from_dict(doc)


def _masked_dm1_config(experiment, pi_core, splits):
    """captions-dm1 at one masking level, checked at the default 0.02 tolerance."""
    return config_from_dict({
        "experiment": experiment, "name": "masked", "root_seed": 3, "trials": 2,
        "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.02, "p_spu": 0.999,
                 "pi_core": pi_core},
        "modality": {"d_I": 2, "d_T": 2}, "methods": ["mmcl-closed"],
        "train": {"n_train": 50000, "p_dim": 2, "rho": 1.0},
        "eval": {"n_eval": 50000, "splits": splits}})


@pytest.mark.parametrize("pi_core", [0.5, 0.0])
def test_masked_dm1_robustness_is_checked_against_the_masked_closed_form(pi_core):
    # the unmasked closed form (minority 0.6918) would fail these cells, which
    # measure about 0.632 at pi_core = 0.5
    pred = theory.zero_shot_robustness_dm1(1.0, 0.02, 0.999, pi_core)
    records = run_experiment(_masked_dm1_config("dm1-robustness", pi_core, ["true"]))
    checked = {(r.run_id, r.group): (r.prediction, r.passed) for r in records
               if r.passed is not None}
    assert checked == {(f"masked-c000-t{trial:02d}", group): (pred.values[group], True)
                       for trial in range(2) for group in ("overall", "minority")}


def test_masked_method_compare_checks_the_masked_train_accuracy():
    pred = theory.zero_shot_robustness_dm1(1.0, 0.02, 0.999, 0.5).values["train"]
    records = run_experiment(_masked_dm1_config("method-compare", 0.5, ["train"]))
    checked = [(r.prediction, r.passed) for r in records if r.passed is not None]
    assert checked == [(pred, True)] * 2


def test_id_control_at_p_09_passes_at_its_slack():
    # the majority-only value 0.9191 missed these fits (about 0.900) by 0.019
    config = config_from_dict({
        "experiment": "method-compare", "name": "id-09", "root_seed": 0, "trials": 3,
        "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.1, "p_spu": 0.9},
        "modality": {"d_I": 2, "d_T": 2}, "methods": ["mmcl-closed"],
        "train": {"n_train": 20000, "p_dim": 2, "rho": 1.0},
        "eval": {"n_eval": 20000, "splits": ["train"]},
        "slacks": {"mmcl:train:overall:accuracy": 0.01}})
    checked = [r for r in run_experiment(config) if r.passed is not None]
    assert len(checked) == 3 and all(r.passed for r in checked)
    assert checked[0].prediction == pytest.approx(0.8997, abs=5e-5)


def test_every_preset_check_names_a_comparator_of_the_table():
    # the harness's own constants (1.0, 0.5, 0.75, id_gap >= 0) meet no other
    # comparator check before a record is compared
    seen = set()
    for cfg in harness.suite_configs("all", 0):
        for cell in harness._sweep_cells(cfg):
            checks = harness._build_cell(cfg, cell)[3]
            assert checks, (cfg.name, cell)
            for key, (prediction, comparator, _) in checks.items():
                assert comparator in theory.COMPARATORS, (cfg.name, cell, key)
                assert np.isfinite(prediction), (cfg.name, cell, key)
                seen.add(comparator)
    assert seen == set(theory.COMPARATORS)


def test_make_params_reads_the_dataclass_defaults():
    assert harness._make_params({"model": "dm1"}) == datagen.DataModel1Params()
    assert harness._make_params({"model": "dm2"}) == datagen.DataModel2Params()


def test_an_unmasked_cell_leaves_its_caption_columns_empty(tmp_path):
    records = run_experiment(config_from_dict(_tiny_dm1_config(trials=1)))
    assert not {"pi_core", "pi_spu", "pi"} & {k for r in records for k in r.params}
    emit_csv(records, tmp_path / "results.csv")
    with open(tmp_path / "results.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row[k] == "" for row in rows for k in ("pi_core", "pi_spu", "pi"))


def test_a_built_preset_shares_no_mutable_object_with_the_table():
    before = json.dumps(harness.PRESETS, sort_keys=True)
    for cfg in harness.suite_configs("all"):
        cfg.eval["splits"].append("train")
        cfg.data["model"] = None
        for values in cfg.sweep.values():
            values.append(values[0])
        for override in cfg.method_overrides.values():
            override["train"]["extra"] = 1
    assert json.dumps(harness.PRESETS, sort_keys=True) == before
    docs = [doc for docs in harness.PRESETS.values() for doc in docs]
    for cfg, doc in zip(harness.suite_configs("all"), docs, strict=True):
        assert (cfg.data, cfg.eval, cfg.sweep, cfg.method_overrides) == (
            doc["data"], doc["eval"], doc.get("sweep", {}), doc.get("method_overrides", {}))


def test_suite_presets_are_valid_configs():
    from mmclab.harness import suite_configs

    names = [cfg.name for cfg in suite_configs("all", root_seed=9)]
    assert names == ["dm1-mmcl", "dm1-sl", "dm2-mmcl", "dm2-sl", "captions-dm1",
                     "captions-dm2", "supcon-dm1", "supcon-dm2", "id-control"]
    for cfg in suite_configs("all", root_seed=9):
        assert cfg.root_seed == 9
        assert cfg.min_pass_fraction == 1.0  # verify summarizes at this default
    # the table holds plain JSON documents, as a benchmark config file does
    docs = [doc for docs in harness.PRESETS.values() for doc in docs]
    assert [doc["name"] for doc in docs] == names
    assert all(json.loads(json.dumps(doc)) == doc for doc in docs)
    with pytest.raises(ValidationError):
        suite_configs("nope")


def test_supcon_attack_row_is_written_exactly_when_restarts_are_on_and_fits_nothing(
        monkeypatch):
    # the attack is the exact threshold scan of evaluation.supcon_group_geometry: any
    # positive count writes its one row, and the main probe stays the only GD fit
    sl_fit_gd, fits = harness.training.sl_fit_gd, []

    def counted_sl_fit_gd(*args, **kwargs):  # probe_fit fits through it
        fits.append(kwargs.get("epochs"))
        return sl_fit_gd(*args, **kwargs)

    monkeypatch.setattr(harness.training, "sl_fit_gd", counted_sl_fit_gd)
    doc = _tiny_dm2_config(experiment="method-compare", data=SUPCON_DM2_DATA,
                           methods=["supcon"],
                           train={"exhaustive": True, "p_dim": 6, "probe_epochs": 50},
                           eval={"exhaustive": True, "splits": ["true"]})
    for restarts in (0, 1, 5):
        doc["eval"]["supcon_restarts"] = restarts
        fits.clear()
        records = run_experiment(config_from_dict(doc))
        attacks = [r for r in records if r.metric == "best_probe_accuracy"]
        assert [(r.split, r.group, r.comparator) for r in attacks] == (
            [("true", "adversarial", "upper-bound")] if restarts else [])
        assert fits == [50]


@pytest.mark.parametrize("m,alpha", [(2, 1.5), (3, 1.5), (4, 1.5), (5, 1.5), (2, 1.2)])
def test_supcon_dm2_preset_passes_every_check_off_its_m_and_alpha(m, alpha):
    # the preset document at other m (alpha 1.5) and alpha (m 2): the group means
    # stay collinear to rounding, whichever way each pair's line points, and the
    # exact attack sits at the 3/4 ceiling
    (doc,) = [doc for doc in harness.PRESETS["supcon"] if doc["name"] == "supcon-dm2"]
    doc = json.loads(json.dumps(doc))
    doc["data"].update(m=m, alpha=alpha)
    doc["modality"] = {"d_I": 2 * m, "d_T": 2 * m}
    doc["train"]["p_dim"] = 2 * m
    records = run_experiment(config_from_dict(doc))
    verdicts = [r.passed for r in records if r.passed is not None]
    assert len(verdicts) == 4 and all(verdicts)
    values = {r.metric: r.value for r in records if r.group in ("geometry", "adversarial")}
    assert values["collinearity_residual"] < 1e-12 and values["best_probe_accuracy"] == 0.75


@pytest.mark.parametrize("m,alpha", [(2, 0.5), (2, 0.8), (2, 1.0), (5, 1.0)])
def test_supcon_dm2_at_alpha_up_to_one_fails_at_load(tmp_path, m, alpha):
    # the true-split 0.5 equality and the 0.75 attack ceiling need the interleaved
    # group order of alpha > 1: below it the groups lie in class order, and at
    # alpha = 1 two of them coincide
    (doc,) = [doc for doc in harness.PRESETS["supcon"] if doc["name"] == "supcon-dm2"]
    doc = json.loads(json.dumps(doc))
    doc["data"].update(m=m, alpha=alpha)
    doc["modality"] = {"d_I": 2 * m, "d_T": 2 * m}
    doc["train"]["p_dim"] = 2 * m
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValidationError, match=rf"supcon on dm2 needs alpha > 1, got {alpha}"):
        config_from_dict(doc)


def test_an_id_gap_with_two_mmcl_methods_on_train_fails_at_load(tmp_path):
    # id_gap pairs sl with one mmcl method, so two on train would leave it to list order
    doc = json.loads(json.dumps(harness.PRESETS["id"][0]))
    doc["methods"] = ["mmcl-closed", "mmcl-analytic", "sl"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValidationError, match=r"\['mmcl-closed', 'mmcl-analytic'\]"):
        config_from_dict(doc)
    doc["method_overrides"]["mmcl-analytic"] = {"eval": {"splits": ["true"]}}
    assert config_from_dict(doc).methods == ("mmcl-closed", "mmcl-analytic", "sl")


def test_supcon_dm1_probe_is_decided_by_its_first_step():
    # the encoder has rank one, so the bias-free probe predicts the sign of its
    # first step along the encoder row; more epochs cannot change a report
    (cfg,) = [c for c in harness.suite_configs("supcon", 7) if c.name == "supcon-dm1"]
    assert cfg.train["probe_epochs"] == 100
    runs = [run_experiment(replace(cfg, train={**cfg.train, "probe_epochs": epochs}))
            for epochs in (1, 100)]
    one, hundred = ([replace(rec, wall_time=0.0) for rec in recs] for recs in runs)
    assert one == hundred and len(one) > 2


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


def test_a_run_that_makes_no_check_says_so_and_exits_0(tmp_path, capsys):
    # SupCon on model 1 is checked on the true split alone, so a train-only run
    # compares nothing; nothing failed either, so the exit code is 0
    doc = _tiny_dm1_config(methods=["supcon"], eval={"n_eval": 2000, "splits": ["train"]})
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_records"] > 0 and not any("passed" in c for c in summary["cells"])
    assert capsys.readouterr().out == f"{summary['n_records']} records; no checks made\n"


def _no_library(path):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize("cdll", [_no_library, lambda path: object()],
                         ids=["no-library", "no-mallopt"])
def test_the_heap_policy_is_skipped_without_glibcs_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._keep_freed_heap() is None


def test_the_cli_pads_glibcs_heap_before_it_runs(monkeypatch, tmp_path):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace(mallopt=mallopt))
    missing = tmp_path / "missing.json"
    assert cli_main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert calls == [(-3, 16 << 20), (-2, 16 << 20)]  # M_MMAP_THRESHOLD, M_TOP_PAD


def test_cli_verify_writes_the_suite_csv(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["verify", "--suite", "dm2", "--out", str(out)]) == 0
    emit_csv(harness.run_suite("dm2", 0), tmp_path / "expected.csv")
    assert (out / "results.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert "all checks passed" in capsys.readouterr().out


def test_cli_run_reports_a_fit_that_fails_at_run_time(tmp_path, capsys):
    # a failure that depends on the draw: at root seed 0 both training rows of
    # n_train 2 share a class, so the SupCon class means miss the other one
    config_path, out = tmp_path / "cfg.json", tmp_path / "out"
    config_path.write_text(json.dumps(_tiny_dm1_config(
        trials=1, root_seed=0, methods=["supcon"], train={"n_train": 2, "p_dim": 2, "rho": 1.0})))
    assert cli_main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert "[ERROR] tiny-c000-t00: ArgumentError: class 1 has no examples" in capsys.readouterr().out
    with open(out / "results.csv", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["group"], row["value"], row["pass"]) == ("error", "nan", "false")


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
