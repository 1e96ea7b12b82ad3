import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from mmclab import ValidationError, harness, numerics, theory
from mmclab.cli import main as cli_main
from mmclab.harness import (CSV_COLUMNS, check_passes, config_from_dict,
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
    params, mask, _ = harness._build_cell(config, {})

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
    ({"name": 5}, "name"),
    ({"name": ["a", "b"]}, "name"),
    ({"slacks": {"nonsense": 0.1}}, "'nonsense'"),
    ({"slacks": {"mmcl:true:accuracy": 0.1}}, "'mmcl:true:accuracy'"),
    ({"slacks": {"clip:true:overall:accuracy": 0.1}}, "'clip:true:overall:accuracy'"),
    ({"slacks": {"mmcl:ood:overall:accuracy": 0.1}}, "'mmcl:ood:overall:accuracy'"),
    ({"slacks": {"mmcl:true:overall:acc": 0.1}}, "'mmcl:true:overall:acc'"),
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
        "name-number", "name-list", "slack-one-part", "slack-three-parts",
        "slack-family", "slack-split", "slack-metric", "p_spu-domain", "sigma_core-zero",
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


def test_check_passes_directions():
    assert check_passes(0.9, 0.85, "lower-bound", 0.0)
    assert not check_passes(0.8, 0.85, "lower-bound", 0.01)
    assert check_passes(0.5, 0.55, "upper-bound", 0.0)
    assert check_passes(0.56, 0.55, "upper-bound", 0.02)
    assert check_passes(0.515, 0.5, "equality-threshold", 0.02)
    assert not check_passes(0.53, 0.5, "equality-threshold", 0.02)
    with pytest.raises(ValidationError, match="boolean-condition"):
        check_passes(1.0, True, "boolean-condition", 0.0)


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


@pytest.mark.skipif(numerics._openblas_threads() is None,
                    reason="BLAS thread count cannot be controlled here")
@pytest.mark.parametrize("threads,trials,in_task,recorded", [
    (2, 2, 2, 2), (3, 2, 2, 2), (3, 3, 1, 1), (2, 1, 4, None)])
def test_blas_threads_split_across_workers_and_restored(monkeypatch, threads, trials,
                                                        in_task, recorded):
    # BLAS starts at 4 threads; workers in use are min(threads, trials)
    get, put = numerics._openblas_threads()
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


def test_summary_records_blas_threads_per_worker():
    config = config_from_dict(_tiny_dm1_config(trials=2))
    assert summarize(run_experiment(config))["blas_threads_per_worker"] is None
    calls = numerics._openblas_threads()
    expected = None if calls is None else max(1, calls[0]() // 2)
    assert summarize(run_experiment(config, threads=2))["blas_threads_per_worker"] == expected


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
                     "supcon_restarts": 1, "adversarial_probe_epochs": 200}}


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
        params, mask, checks = harness._build_cell(config, {})
        assert checks == harness._CHECKS[model](params, mask)


def test_check_tables_use_only_the_slack_key_vocabulary():
    # every family, split and metric a table checks can be named by a slacks key
    for model, data in (("dm1", {**_DM1, "pi_core": 0.0}), ("dm1", _DM1), ("dm2", _DM2),
                        ("dm2", {**_DM2, "alpha": 0.7, "pi": 0.5})):
        checks = harness._CHECKS[model](harness._make_params(data), harness._make_mask(data))
        for key in checks:
            harness._check_slack_key(":".join(key))


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
            checks = harness._build_cell(cfg, cell)[2]
            assert checks, (cfg.name, cell)
            for key, (prediction, comparator) in checks.items():
                assert comparator in theory.COMPARATORS, (cfg.name, cell, key)
                assert np.isfinite(prediction), (cfg.name, cell, key)
                seen.add(comparator)
    assert seen == set(theory.COMPARATORS)


def test_suite_presets_are_valid_configs():
    from mmclab.harness import suite_configs

    names = [cfg.name for cfg in suite_configs("all", root_seed=9)]
    assert names == ["dm1-mmcl", "dm1-sl", "dm2-mmcl", "dm2-sl", "captions-dm1",
                     "captions-dm2", "supcon-dm1", "supcon-dm2", "id-control"]
    for cfg in suite_configs("all", root_seed=9):
        assert cfg.root_seed == 9
        assert cfg.min_pass_fraction == 1.0  # verify summarizes at this default
    with pytest.raises(ValidationError):
        suite_configs("nope")


def test_supcon_attack_fits_one_probe_for_any_restart_count(monkeypatch):
    # the adversarial probe's loss is convex in its scores, so restarts would all
    # reach one rule: a positive count runs the attack once, beside the main probe
    probe_fit, fits = harness.training.probe_fit, []

    def counted_probe_fit(*args, **kwargs):
        fits.append(kwargs.get("epochs"))
        return probe_fit(*args, **kwargs)

    monkeypatch.setattr(harness.training, "probe_fit", counted_probe_fit)
    doc = _tiny_dm2_config(experiment="method-compare", methods=["supcon"],
                           train={"exhaustive": True, "p_dim": 6, "probe_epochs": 50},
                           eval={"exhaustive": True, "splits": ["true"],
                                 "supcon_restarts": 5, "adversarial_probe_epochs": 70})
    records = run_experiment(config_from_dict(doc))
    attacks = [r for r in records if r.metric == "best_probe_accuracy"]
    assert [(r.split, r.group, r.comparator) for r in attacks] == [
        ("true", "adversarial", "upper-bound")]
    assert fits == [50, 70]
    doc["eval"]["supcon_restarts"] = 0
    fits.clear()
    records = run_experiment(config_from_dict(doc))
    assert fits == [50] and not any(r.metric == "best_probe_accuracy" for r in records)


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
