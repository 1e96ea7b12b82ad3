"""Experiment configs, a deterministic parallel runner, theory comparisons, and
CSV/JSON report emission.

A config is a JSON document (see docs/config_example.json). Sweeps expand to a
cartesian grid of cells. Each trial of a group of cells that differ only in caption
levels runs as one task on the counter-based random stream of the group's first
cell, so results are byte-identical for a fixed root seed at any thread count.
"""
from __future__ import annotations

import copy
import csv
import itertools
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import covariance, datagen, evaluation, theory, training
from .datagen import CaptionMask, DataModel1Params, DataModel2Params
from .errors import DomainError, MmclabError, ValidationError
from .numerics import (DICTIONARY_KINDS, RngStream, blas_threads_per_worker,
                       make_dictionary, stream_id_for)

METHODS = ("mmcl-closed", "mmcl-gd", "mmcl-analytic", "sl", "supcon")

CSV_COLUMNS = ("run_id", "experiment", "seed", "method", "n_train", "d_I", "d_T",
               "p_dim", "rho", "sigma_core", "sigma_spu", "p_spu", "m", "alpha",
               "beta", "pi_core", "pi_spu", "pi", "split", "group", "metric",
               "value", "prediction", "comparator", "pass")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description. Sections are plain dicts so configs
    round-trip through JSON unchanged."""

    experiment: str
    name: str
    root_seed: int = 0
    trials: int = 1
    tolerance: float = 0.02
    min_pass_fraction: float = 1.0
    data: dict = field(default_factory=dict)
    modality: dict = field(default_factory=dict)
    methods: tuple = ()
    train: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    slacks: dict = field(default_factory=dict)
    method_overrides: dict = field(default_factory=dict)


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}


def _check_keys(section: dict, allowed: set, where: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {', '.join(unknown)}")


def _require_int(value, where: str, low: int):
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValidationError(f"{where} must be an integer >= {low}, got {value!r}")


def _require_number(value, where: str, rule: str = "", ok=lambda v: True):
    """A finite int or float (not a bool) for which ``ok`` holds."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or not ok(value)):
        raise ValidationError(f"{where} must be a finite number{rule}, got {value!r}")


def _require_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a JSON object, got {value!r}")
    return dict(value)


def _require_strings(value, where: str, allowed: tuple):
    """A non-empty list of distinct strings, each one of ``allowed``."""
    if (not isinstance(value, list) or not value or not all(isinstance(v, str) for v in value)
            or len(set(value)) < len(value)):
        raise ValidationError(f"{where} must be a non-empty list of unique strings, got {value!r}")
    bad = [v for v in value if v not in allowed]
    if bad:
        raise ValidationError(f"unknown {where}: {', '.join(bad)} "
                              f"(expected any of {', '.join(allowed)})")


def _require_a(kind: type, what: str):
    """A value of ``kind``; a bool passes only as a bool, not as an int."""
    def check(value, where: str):
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ValidationError(f"{where} must be {what}, got {value!r}")
    return check


def _require_one_of(allowed: tuple, why: str = ""):
    def check(value, where: str):
        if value not in allowed:
            raise ValidationError(f"{where} must be one of {', '.join(allowed)}, "
                                  f"got {value!r}{why}")
    return check


_NUMBER, _COUNT = _require_number, partial(_require_int, low=1)
_TWO_OR_MORE = partial(_require_int, low=2)
_STEP = partial(_require_number, rule=" > 0", ok=lambda v: v > 0)
_NONNEG = partial(_require_number, rule=" >= 0", ok=lambda v: v >= 0)
_BOOL, _TEXT = _require_a(bool, "true or false"), _require_a(str, "a string")
# top-level key -> its rule; the defaults live on ExperimentConfig
_TOP_FIELDS = {"name": _TEXT, "root_seed": _require_a(int, "an integer"),
               "trials": _COUNT, "tolerance": _NONNEG,
               "min_pass_fraction": partial(_require_number, rule=" in [0, 1]",
                                            ok=lambda v: 0 <= v <= 1)}
# The config schema: (section, key) -> (type rule, sweeps, data model or None for both)
_FIELDS = {(sec, key): (rule, sweeps, model) for sec, rule, sweeps, model, keys in (
    ("data", _TEXT, False, None, "model"),
    ("data", _NUMBER, True, "dm1", "sigma_core sigma_spu p_spu pi_core pi_spu"),
    # a no-op that older configs still set; no other value loads
    ("data", _require_one_of(("linear",), ": the masked covariance is linear in pi_core"),
     False, "dm1", "exponent_variant"),
    ("data", _TWO_OR_MORE, True, "dm2", "m"),
    ("data", _NUMBER, True, "dm2", "alpha beta pi"),
    ("modality", _COUNT, False, None, "d_I d_T"),
    ("modality", _NONNEG, False, None, "noise_sigma_I noise_sigma_T"),
    ("modality", _require_one_of(DICTIONARY_KINDS), False, None, "dictionary"),
    ("train", _TWO_OR_MORE, True, None, "n_train"),
    ("train", _COUNT, True, None, "p_dim"),
    ("train", _STEP, True, None, "rho"),
    ("train", _STEP, False, None, "lr probe_lr"),
    ("train", _COUNT, False, None, "epochs probe_epochs"),
    ("train", _BOOL, False, "dm2", "exhaustive"),
    ("eval", _COUNT, False, None, "n_eval"),
    ("eval", partial(_require_strings, allowed=datagen.SPLITS), False, None, "splits"),
    ("eval", _BOOL, False, "dm2", "exhaustive supcon_geometry"),
    ("eval", _NONNEG, False, None, "noise_sigma"),
    ("eval", partial(_require_int, low=0), False, "dm2", "supcon_restarts"),
) for key in keys.split()}
# sweep key -> the section its values land in
_SWEEPS = {key: sec for (sec, key), (_, sweeps, _) in _FIELDS.items() if sweeps}
# sweep cells whose values differ only in these share one task per trial
_CAPTION_LEVELS = {level for levels in datagen.MASK_LEVELS.values() for level in levels}


def _check_field(section: str, key: str, value, model: str, where: str):
    """Type-check one value by its ``_FIELDS`` rule, and reject a key of the other
    data model: a data key always, a train or eval switch only when turned on."""
    rule, _, owner = _FIELDS[section, key]
    rule(value, where)
    if owner not in (None, model) and (section == "data" or value):
        raise ValidationError(f"{where} applies to {owner} data only, not {model}")


def _check_sections(sections: dict, model: str, prefix: str = ""):
    """Reject unknown keys and every value that breaks its ``_FIELDS`` row."""
    for name, section in sections.items():
        _check_keys(section, {key for sec, key in _FIELDS if sec == name}, prefix + name)
        for key, value in section.items():
            _check_field(name, key, value, model, f"{prefix}{name}.{key}")


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate a config from a parsed JSON document. The config owns a
    deep copy, so it shares no list or object with ``doc``."""
    doc = _require_object(copy.deepcopy(doc), "config document")
    _check_keys(doc, _TOP_KEYS, "config")
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENT_KINDS:
        raise ValidationError(
            f"experiment must be one of {EXPERIMENT_KINDS}, got {experiment!r}")
    scalars = {"name": experiment, **{key: doc[key] for key in _TOP_FIELDS if key in doc}}
    for key, value in scalars.items():
        _TOP_FIELDS[key](value, key)
    slacks = _require_object(doc.get("slacks", {}), "slacks")
    for key, value in slacks.items():
        _NONNEG(value, f"slacks.{key}")
    sections = {name: _require_object(doc.get(name, {}), name)
                for name in ("data", "modality", "train", "eval", "sweep")}
    sweep = sections.pop("sweep")
    methods = doc.get("methods", [])
    _require_strings(methods, "methods", METHODS)
    models = _KINDS[experiment]
    model = sections["data"].get("model")
    if model not in models:
        raise ValidationError(f"data.model must be {' or '.join(models)} for "
                              f"{experiment}, got {model!r}")
    _check_sections(sections, model)
    _check_keys(sweep, set(_SWEEPS), "sweep")
    for key, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ValidationError(f"sweep.{key} must be a non-empty list")
        for value in values:
            _check_field(_SWEEPS[key], key, value, model, f"sweep.{key}")
    overrides = _require_object(doc.get("method_overrides", {}), "method_overrides")
    for mth, sec in overrides.items():
        where = f"method_overrides.{mth}"
        _check_keys(_require_object(sec, where), {"modality", "train", "eval"}, where)
        _check_sections({name: _require_object(value, f"{where}.{name}")
                         for name, value in sec.items()}, model, where + ".")
        if mth not in methods:
            raise ValidationError(f"{where} names a method that methods does not list")
    config = ExperimentConfig(
        experiment=experiment, **scalars,
        data=sections["data"], modality=sections["modality"], methods=tuple(methods),
        train=sections["train"], eval=sections["eval"], sweep=sweep,
        slacks=slacks, method_overrides=overrides,
    )
    _check_cells(config)
    return config


def _check_cells(config: ExperimentConfig):
    """Build every sweep cell's plan (``_build_cell``), so that a value out of its
    domain or a setting the run cannot honour (a p_dim above what its method can fit
    among them) fails before anything runs, naming its sweep cell; enumeration caps
    stay with the run. Each ``slacks`` key must name a check of some cell's plan."""
    slack_keys = set()
    for cell in _sweep_cells(config):
        try:
            checks = _build_cell(config, cell)[3]
        except MmclabError as exc:
            raise ValidationError(f"{exc} (sweep cell {cell})" if cell else str(exc)) from exc
        slack_keys.update(f"{f}:{s}:{g}:{m}" for f, s, group, m in checks for g in (group, "*"))
    unknown = sorted(set(config.slacks) - slack_keys)
    if unknown:
        raise ValidationError(f"slacks keys {', '.join(map(repr, unknown))} name no check of "
                              f"this config; its slack keys are {', '.join(sorted(slack_keys))}")


def config_from_file(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(doc)


@dataclass(frozen=True)
class RunRecord:
    """One measured (or derived) metric for one cell, trial and method."""

    run_id: str
    experiment: str
    seed: int
    method: str
    params: dict
    split: str
    group: str
    metric: str
    value: float
    prediction: float | None = None
    comparator: str | None = None
    passed: bool | None = None
    wall_time: float = 0.0
    error: str | None = None
    blas_threads: int | None = None  # BLAS threads per pool worker; None at the BLAS default


# ---------------------------------------------------------------------------
# cell execution


def _sweep_cells(config: ExperimentConfig) -> list[dict]:
    if not config.sweep:
        return [{}]
    keys = list(config.sweep)
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(config.sweep[k] for k in keys))]


def _build_cell(config: ExperimentConfig, cell: dict) -> tuple:
    """The plan of one sweep cell: (data model, caption mask, method -> resolved
    sections (``_method_sections``), checks). Overrides never touch the data section
    that the model and mask read. The checks are the table rows a run reaches (each
    method's family on its ``eval.splits``, the SupCon geometry and attack rows when
    on, id_gap when sl and one mmcl method evaluate train; two raise, as does SupCon on dm2
    at alpha <= 1), each as (prediction, comparator, slack); a slack is the exact key's,
    else its ``*`` group's, else tolerance."""
    data = dict(config.data)
    data.update((k, v) for k, v in cell.items() if _SWEEPS[k] == "data")
    params, mask = _make_params(data), _make_mask(data)
    sections = {method: _method_sections(config, method, cell, params, mask)
                for method in config.methods}
    reached = set()  # (family, split, metric) of every row a run of the cell writes
    for method, (_, _, ev, _) in sections.items():
        family = "mmcl" if method.startswith("mmcl") else method
        reached.update((family, split, "accuracy") for split in ev["splits"])
        reached.update((family, "true", metric) for metric, on in (
            ("collinearity_residual", ev["supcon_geometry"]),
            ("best_probe_accuracy", ev["supcon_restarts"])) if on)
    if data["model"] == "dm2" and params.alpha <= 1 and any(f == "supcon" for f, _, _ in reached):
        raise ValidationError(f"supcon on dm2 needs alpha > 1, got {params.alpha}: its checks "
                              "assume the interleaved group order that alpha > 1 gives")
    if {("sl", "train", "accuracy"), ("mmcl", "train", "accuracy")} <= reached:
        paired = [mth for mth, (_, _, ev, _) in sections.items()
                  if mth.startswith("mmcl") and "train" in ev["splits"]]
        if len(paired) > 1:
            raise ValidationError(f"id_gap pairs sl with one mmcl method on train, not {paired}")
        reached.add(("sl-vs-mmcl", "train", "id_gap"))
    checks = {(f, s, g, m): (*declared, config.slacks.get(
                  f"{f}:{s}:{g}:{m}", config.slacks.get(f"{f}:{s}:*:{m}", config.tolerance)))
              for (f, s, g, m), declared in _CHECKS[data["model"]](params, mask).items()
              if (f, s, m) in reached}
    return params, mask, sections, checks


def _method_sections(config: ExperimentConfig, method: str, cell: dict, params,
                     mask: CaptionMask) -> tuple[dict, dict, dict, dict]:
    """The one resolver of a (cell, method), read by ``_build_cell`` into its plan:
    the config's sections merged with the method's overrides and the cell's sweep
    values, every default filled in, and two derived switches, ``train["draws"]``
    (false for mmcl-analytic, which fits the population covariance) and
    ``eval["counted"]`` (the analytic fit on model 2, whose pair-structured rule
    ``evaluation.count_zero_shot`` scores; n_eval and exhaustive go unused there).
    Raises ``ValidationError`` for a missing sample size, an n_train beside
    train.exhaustive, a noisy counted evaluation or one off p_dim 2m, d_I, d_T < l, or
    a p_dim above the rank its fit can reach (mmcl-gd and sl have no bound).
    Returns (modality, train, eval, CSV parameter row); the row leaves p_dim empty
    where the config does, and n_train where it does or the fit draws no rows."""
    override = config.method_overrides.get(method, {})
    modality = {"dictionary": "identity-embed", "noise_sigma_I": 0.0, "noise_sigma_T": 0.0,
                "d_I": params.l, **config.modality, **override.get("modality", {})}
    modality.setdefault("d_T", modality["d_I"])
    train = {**config.train, **override.get("train", {})}
    train.update((k, v) for k, v in cell.items() if _SWEEPS[k] == "train")
    row = {"p_dim": train.get("p_dim")}
    train = {"n_train": None, "p_dim": params.l, "rho": 1.0, "exhaustive": False, **train,
             "draws": method != "mmcl-analytic"}
    if train["exhaustive"] and train["n_train"] is not None:
        raise ValidationError(f"train.n_train is {train['n_train']}, but train.exhaustive "
                              f"trains on every enumerated row (method {method})")
    eval_sec = {"n_eval": None, "splits": ["true"], "exhaustive": False,
                "noise_sigma": modality["noise_sigma_I"], "supcon_geometry": False,
                "supcon_restarts": 0, **config.eval, **override.get("eval", {}),
                "counted": method == "mmcl-analytic" and isinstance(params, DataModel2Params)}
    if train["draws"] and not train["exhaustive"] and train["n_train"] is None:
        raise ValidationError(f"train.n_train is required for sampled training data "
                              f"(method {method})")
    if not (eval_sec["exhaustive"] or eval_sec["counted"]) and eval_sec["n_eval"] is None:
        raise ValidationError(f"eval.n_eval is required for sampled evaluation "
                              f"(method {method})")
    if eval_sec["counted"] and (eval_sec["noise_sigma"] > 0 or train["p_dim"] != params.l):
        raise ValidationError(f"{method} on dm2 is counted, so train.p_dim must be 2m = "
                              f"{params.l}, got {train['p_dim']}, and eval.noise_sigma (default "
                              f"modality.noise_sigma_I) must be 0, got {eval_sec['noise_sigma']}")
    for key in ("d_I", "d_T"):
        if modality[key] < params.l:
            raise ValidationError(f"modality.{key} is {modality[key]}, below the latent "
                                  f"dimension {params.l} (method {method})")
    bound = {"mmcl-closed": min(modality["d_I"], modality["d_T"]), "mmcl-analytic": params.l,
             "supcon": modality["d_I"]}.get(method, train["p_dim"])
    if train["p_dim"] > bound:
        raise ValidationError(f"train.p_dim is {train['p_dim']}, above {bound}, the largest "
                              f"rank this fit can reach (method {method})")
    row.update(n_train=train["n_train"] if train["draws"] else None, rho=train["rho"],
               d_I=modality["d_I"], d_T=modality["d_T"], **asdict(params), **mask.levels)
    return modality, train, eval_sec, row


def _gd_args(section: dict, prefix: str = "") -> dict:
    """The step size and epoch budget a section sets, as ``prefix`` + lr and
    ``prefix`` + epochs; the trainer's own defaults fill in the rest."""
    return {arg: section[prefix + arg] for arg in ("lr", "epochs") if prefix + arg in section}


def _make_params(data: dict):
    """The data model's parameters: the values ``data`` sets, the dataclass's defaults
    for the rest."""
    cls = DataModel1Params if data["model"] == "dm1" else DataModel2Params
    return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


def _make_mask(data: dict) -> CaptionMask:
    """The variant whose levels ``data`` sets (``_FIELDS`` keeps each level on its
    own model), or none; an unset level keeps its default of 1."""
    variant = next((v for v, levels in datagen.MASK_LEVELS.items()
                    if set(levels) & set(data)), "none")
    return CaptionMask(variant, **{k: data[k] for k in datagen.MASK_LEVELS[variant] if k in data})


def _report_rows(report: evaluation.EvalReport, split: str) -> list[tuple]:
    rows = [("overall", "accuracy", report.overall_accuracy)]
    if any(g.minority for g in report.groups.values()):
        rows.append(("minority", "accuracy", report.minority_accuracy()))
    rows.extend((key, "accuracy", stat.accuracy) for key, stat in report.groups.items())
    return [(split, group, metric, value) for group, metric, value in rows]


def _run_method(method: str, params, mask: CaptionMask | None, modality: dict, train: dict,
                eval_sec: dict, rng: RngStream) -> list[tuple]:
    """Fit one method in one (cell, trial) on its resolved sections (``_method_sections``)
    and mask, None for sl and supcon. Returns (split, group, metric, value) tuples."""
    kind = modality["dictionary"]
    dict_image = make_dictionary(modality["d_I"], params.l, kind, rng.child(1))
    dict_text = make_dictionary(modality["d_T"], params.l, kind, rng.child(2))
    image_cfg = datagen.ModalityConfig(dict_image, modality["noise_sigma_I"])
    text_cfg = datagen.ModalityConfig(dict_text, modality["noise_sigma_T"])
    eval_cfg = datagen.ModalityConfig(dict_image, eval_sec["noise_sigma"])
    p_dim, rho = train["p_dim"], train["rho"]
    if train["draws"]:  # n_train is None exactly when train.exhaustive is set
        latents = params.draw("train", train["n_train"], rng.child(20))
    extra = []  # supcon's rows beyond the split reports

    if method.startswith("mmcl"):
        if method == "mmcl-analytic":
            if isinstance(params, DataModel1Params):
                s = covariance.population_cross_cov_dm1(params, mask)
            else:
                s = covariance.population_cross_cov_dm2(params, mask.pi)
            model = training.mmcl_fit_closed_form(s, p_dim, rho, dict_image, dict_text)
        else:
            dataset = datagen.make_paired_dataset(latents, image_cfg, text_cfg, mask,
                                                  rng.child(21))
            if method == "mmcl-closed":
                s = covariance.empirical_cross_cov(dataset)
                model = training.mmcl_fit_closed_form(s, p_dim, rho)
            else:
                model = training.mmcl_fit_gd(dataset, p_dim, rho, **_gd_args(train),
                                             rng=rng.child(22))
        prompts = evaluation.build_prompts(params, dict_text)
        if eval_sec["counted"]:
            def evaluate(params, split, image_cfg, n_eval, rng):
                return evaluation.count_zero_shot(model, prompts, params, split, image_cfg)
        else:
            evaluate = partial(evaluation.evaluate_zero_shot, model, prompts)
    elif method == "sl":
        images = datagen.project_latents(latents.z, image_cfg, rng.child(23))
        model = training.sl_fit_gd(images, latents.y, **_gd_args(train), rng=rng.child(24))
        evaluate = partial(evaluation.evaluate_sl, model)
    else:  # supcon
        dataset = datagen.make_paired_dataset(latents, image_cfg, image_cfg,
                                              CaptionMask.none(), rng.child(21))
        cov = covariance.supcon_class_mean_cov(dataset)
        encoder = training.supcon_fit_closed_form(cov, p_dim, rho)
        probe = training.probe_fit(encoder.transform(dataset.x_image), latents.y,
                                   **_gd_args(train, "probe_"), rng=rng.child(25))
        evaluate = partial(evaluation.evaluate_probe, encoder, probe)
        geometry, attack = eval_sec["supcon_geometry"], eval_sec["supcon_restarts"] > 0
        if geometry or attack:
            true_data = datagen.make_paired_dataset(
                datagen.enumerate_latents_dm2(params, "true"), eval_cfg, eval_cfg,
                CaptionMask.none(), rng.child(26))
            geo = evaluation.supcon_group_geometry(encoder, true_data)
        if geometry:
            extra.append(("true", "geometry", "collinearity_residual", geo.residual))
        if attack:  # strongest attack: no linear probe beats the best threshold cut
            extra.append(("true", "adversarial", "best_probe_accuracy",
                          geo.best_threshold_accuracy))

    rows = []
    n_eval = None if eval_sec["exhaustive"] else eval_sec["n_eval"]
    for i, split in enumerate(eval_sec["splits"]):
        report = evaluate(params, split, eval_cfg, n_eval, rng.child(40 + i))
        rows.extend(_report_rows(report, split))
    return rows + extra


# ---------------------------------------------------------------------------
# theory comparisons


def _declared(pred: theory.TheoremPrediction, key: str) -> tuple:
    """A check exactly as a theory function declares it: (prediction, comparator)."""
    return pred.values[key], pred.comparators[key]


# Each table maps (family, split, group, metric) -> (prediction, comparator)
# for one cell of its data model, whatever the experiment kind. Constants that
# no theory function computes (perfect supervised training accuracy on model 2,
# the supervised-contrastive claims, id_gap >= 0) carry their comparator here;
# every other check comes from theory unchanged.


def _dm1_checks(params, mask) -> dict:
    mmcl = theory.zero_shot_robustness_dm1(params.sigma_core, params.sigma_spu, params.p_spu,
                                           mask.pi_core)
    sl = theory.sl_failure_bounds_dm1()
    checks = {(family, "true", group, "accuracy"): _declared(pred, group)
              for family, pred in (("mmcl", mmcl), ("sl", sl))
              for group in ("overall", "minority")}
    idp = theory.in_distribution_predictions_dm1(params.sigma_core, params.sigma_spu)
    checks.update({("mmcl", "train", "overall", "accuracy"): _declared(mmcl, "train"),
                   ("sl", "train", "overall", "accuracy"): _declared(idp, "sl_id"),
                   ("sl-vs-mmcl", "train", "overall", "id_gap"): (0.0, "lower-bound"),
                   ("supcon", "true", "overall", "accuracy"): (0.5, "upper-bound"),
                   ("supcon", "true", "minority", "accuracy"): (0.0, "upper-bound")})
    return checks


def _dm2_checks(params, mask) -> dict:
    pred = theory.zero_shot_accuracy_dm2(params.m, params.alpha, params.beta, mask.pi)
    checks = {("mmcl", split, "overall", "accuracy"): _declared(pred, split)
              for split in datagen.SPLITS}
    checks.update({("sl", "train", "overall", "accuracy"): (1.0, "equality-threshold"),
                   ("supcon", "true", "overall", "accuracy"): (0.5, "equality-threshold"),
                   ("supcon", "train", "overall", "accuracy"): (1.0, "equality-threshold"),
                   ("supcon", "true", "geometry", "collinearity_residual"): (0.0, "upper-bound"),
                   ("supcon", "true", "adversarial", "best_probe_accuracy"): (0.75, "upper-bound")})
    try:
        sl = theory.sl_shift_ceiling_dm2(params.alpha, params.beta)
    except DomainError:
        return checks  # vacuous bound: nothing to compare
    checks[("sl", "true", "overall", "accuracy")] = _declared(sl, "overall")
    return checks


# data model -> the checks of one of its cells
_CHECKS = {"dm1": _dm1_checks, "dm2": _dm2_checks}
# experiment kind -> the data models it runs on; the kind is otherwise a CSV label
_KINDS = {"dm1-robustness": ("dm1",), "dm2-robustness": ("dm2",),
          "caption-sweep-dm1": ("dm1",), "caption-sweep-dm2": ("dm2",),
          "method-compare": ("dm1", "dm2")}
EXPERIMENT_KINDS = tuple(_KINDS)


def _compare(checks: dict, key: tuple, value) -> dict:
    """The prediction, comparator and verdict of one value; empty if unchecked."""
    if key not in checks:
        return {}
    prediction, comparator, slack = checks[key]
    return {"prediction": prediction, "comparator": comparator,
            "passed": theory.COMPARATORS[comparator](value, prediction, slack)}


# ---------------------------------------------------------------------------
# runner


def _run_task(config: ExperimentConfig, blas_threads: int | None, group: list, trial: int,
              build) -> list[list[RunRecord]]:
    """One trial of a group of cells that differ only in caption masks, one list of
    records per cell, all on the stream of the group's first cell. A memo
    (``datagen._shared_draws``) makes each sampled draw once, and each method's rows once
    per mask it reads: mmcl* per cell, sl and supcon per task (the first cell pays).
    A failure is not kept, so each cell writes its own error row."""
    seed = stream_id_for(group[0], trial)
    with datagen._shared_draws():
        return [_run_cell(config, blas_threads, i, trial, seed, build) for i in group]


def _run_cell(config: ExperimentConfig, blas_threads: int | None, cell_idx: int, trial: int,
              seed: int, build) -> list[RunRecord]:
    run_id = f"{config.name}-c{cell_idx:03d}-t{trial:02d}"
    rng = RngStream(config.root_seed, seed)
    started = time.perf_counter()
    rows = []  # the RunRecord fields that vary within the cell
    measured = {}
    params, mask, sections, checks = build(cell_idx)
    for method, (modality, train, eval_sec, param_row) in sections.items():
        reads = mask if method.startswith("mmcl") else None
        try:
            values = datagen._shared((method, reads), lambda: _run_method(
                method, params, reads, modality, train, eval_sec, rng.child(METHODS.index(method))))
        except MmclabError as error:
            rows.append(dict(method=method, params=param_row, split="", group="error",
                             metric="error", value=float("nan"), passed=False,
                             error=f"{type(error).__name__}: {error}"))
            continue
        family = "mmcl" if method.startswith("mmcl") else method
        for split, group, metric, value in values:
            key = (family, split, group, metric)
            rows.append(dict(method=method, params=param_row, split=split, group=group,
                             metric=metric, value=float(value), **_compare(checks, key, value)))
            measured[key] = float(value)
    # derived in-distribution comparison when both model families ran on train
    sl_id, mmcl_id = (measured.get((f, "train", "overall", "accuracy")) for f in ("sl", "mmcl"))
    if sl_id is not None and mmcl_id is not None:
        gap = sl_id - mmcl_id
        rows.append(dict(method="sl-vs-mmcl", params={**asdict(params), **mask.levels},
                         split="train", group="overall", metric="id_gap", value=gap,
                         **_compare(checks, ("sl-vs-mmcl", "train", "overall", "id_gap"), gap)))
    elapsed = time.perf_counter() - started
    return [RunRecord(run_id=run_id, experiment=config.experiment, seed=seed,
                      wall_time=elapsed, blas_threads=blas_threads, **row) for row in rows]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[RunRecord]:
    """Run every sweep cell and trial; deterministic for a fixed root seed
    regardless of thread count (records come back in cell-major, trial-minor
    order; one task runs each trial of a group of cells that differ only in caption
    levels, on its own stream). A pool of min(threads, tasks) workers, at least one,
    runs the tasks; BLAS threads are split across two or more."""
    cells = _sweep_cells(config)
    groups = {}
    for cell_idx, cell in enumerate(cells):
        key = tuple(item for item in cell.items() if item[0] not in _CAPTION_LEVELS)
        groups.setdefault(key, []).append(cell_idx)
    built, lock = {}, threading.Lock()

    def build(cell_idx):  # by the cell's first task, so a trace sees its theory calls in one
        with lock:
            if cell_idx not in built:
                built[cell_idx] = _build_cell(config, cells[cell_idx])
            return built[cell_idx]

    tasks = [(group, trial) for group in groups.values() for trial in range(config.trials)]
    workers = max(1, min(threads, len(tasks)))
    # the pool joins its workers before the BLAS thread count is restored
    with (blas_threads_per_worker(workers) as blas,
          ThreadPoolExecutor(max_workers=workers) as pool):
        chunks = list(pool.map(lambda t: _run_task(config, blas, *t, build), tasks))
    by_cell = {(cell_idx, trial): recs for (group, trial), chunk in zip(tasks, chunks)
               for cell_idx, recs in zip(group, chunk)}
    return [rec for key in sorted(by_cell) for rec in by_cell[key]]


# ---------------------------------------------------------------------------
# emission


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"  # nan and inf print as nan, inf and -inf


def emit_csv(records: list[RunRecord], path) -> None:
    """Write records as CSV with a fixed column order and 9-significant-digit
    numbers; output bytes depend only on the records (group keys may contain
    commas, hence the csv writer). A params dict, shared by the records of one
    (cell, method), is formatted once."""
    shared = {id(rec.params): rec.params for rec in records}  # one per (cell, method)
    shared = {k: {c: _fmt(v) for c, v in p.items() if c in CSV_COLUMNS} for k, p in shared.items()}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            row = {"run_id": rec.run_id, "experiment": rec.experiment,
                   "seed": rec.seed, "method": rec.method, "split": rec.split,
                   "group": rec.group, "metric": rec.metric, "value": rec.value,
                   "prediction": rec.prediction, "comparator": rec.comparator,
                   "pass": rec.passed}
            texts = {col: _fmt(value) for col, value in row.items()} | shared[id(rec.params)]
            writer.writerow([texts.get(col, "") for col in CSV_COLUMNS])


def summarize(records: list[RunRecord], min_pass_fraction: float = 1.0) -> dict:
    """Aggregate per cell (mean/min/max over trials) and compute the verdict."""
    shared = {id(rec.params): rec.params for rec in records}  # one per (cell, method)
    shared = {key: json.dumps(params, sort_keys=True) for key, params in shared.items()}
    groups = {}
    for rec in records:
        key = (rec.experiment, shared[id(rec.params)], rec.method,
               rec.split, rec.group, rec.metric)
        groups.setdefault(key, []).append(rec)
    cells = []
    all_passed = True
    for key in sorted(groups, key=str):
        recs = groups[key]
        values = [r.value for r in recs if not math.isnan(r.value)]
        checked = [r for r in recs if r.passed is not None]
        entry = {
            "experiment": key[0], "params": json.loads(key[1]), "method": key[2],
            "split": key[3], "group": key[4], "metric": key[5],
            "n": len(recs),
            "mean": float(np.mean(values)) if values else None,
            "min": float(np.min(values)) if values else None,
            "max": float(np.max(values)) if values else None,
        }
        if checked:
            frac = sum(bool(r.passed) for r in checked) / len(checked)
            entry["prediction"] = checked[0].prediction
            entry["comparator"] = checked[0].comparator
            entry["pass_fraction"] = frac
            entry["passed"] = frac >= min_pass_fraction
            all_passed = all_passed and entry["passed"]
        cells.append(entry)
    errors = [{"run_id": r.run_id, "error": r.error} for r in records if r.error]
    pooled = {r.blas_threads for r in records if r.blas_threads is not None}
    return {
        "n_records": len(records),
        "experiments": sorted({r.experiment for r in records}),
        "cells": cells,
        "errors": errors,
        "all_passed": all_passed and not errors,
        "total_wall_time": round(sum({r.run_id: r.wall_time for r in records}.values()), 3),
        # the smallest per-worker count when a suite's configs split BLAS differently
        "blas_threads_per_worker": min(pooled) if pooled else None,
    }


def emit_json_summary(records: list[RunRecord], path,
                      min_pass_fraction: float = 1.0) -> dict:
    summary = summarize(records, min_pass_fraction)
    with open(path, "w", encoding="utf-8") as fh:  # one write: json.dump writes every token
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


# ---------------------------------------------------------------------------
# preset verification suites


_ID_DATA = {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.01, "p_spu": 0.999}
_SL_ID = theory.in_distribution_predictions_dm1(_ID_DATA["sigma_core"],
                                                _ID_DATA["sigma_spu"]).values["sl_id"]

# suite name -> its config documents, each a plain JSON document that
# ``suite_configs`` loads with the root seed added; "all" runs every suite in this order
PRESETS = {
    "dm1": ({
        "experiment": "dm1-robustness", "name": "dm1-mmcl", "trials": 1, "tolerance": 0.02,
        "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.02, "p_spu": 0.999},
        "modality": {"d_I": 2, "d_T": 2, "noise_sigma_I": 0.0, "noise_sigma_T": 0.0},
        "methods": ["mmcl-closed"],
        "train": {"n_train": 20000, "p_dim": 2, "rho": 1.0},
        "eval": {"n_eval": 20000, "splits": ["true"]},
    }, {
        "experiment": "dm1-robustness", "name": "dm1-sl", "trials": 10,
        "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.01, "p_spu": 0.99},
        "modality": {"d_I": 2000, "noise_sigma_I": 0.1},
        "methods": ["sl"],
        # the verdict is locked in well before the 20000-epoch default, though the
        # direction is not: at 5000 epochs the fit's cosine to the hard-margin
        # limit is only about 0.05. 5000 keeps the 10-trial suite fast
        "train": {"n_train": 500, "epochs": 5000},
        "eval": {"n_eval": 10000, "splits": ["true"]},
        "slacks": {"sl:true:overall:accuracy": 0.0,
                   "sl:true:minority:accuracy": 0.0},
    }),
    "dm2": ({
        "experiment": "dm2-robustness", "name": "dm2-mmcl",
        "data": {"model": "dm2", "m": 3, "alpha": 0.7, "beta": 1.0 / 3.0},
        "modality": {"d_I": 6, "d_T": 6},
        "methods": ["mmcl-closed", "mmcl-analytic"],
        "train": {"exhaustive": True, "p_dim": 6, "rho": 1.0},
        "eval": {"exhaustive": True, "splits": ["true", "train"]},
        "slacks": {"mmcl:true:overall:accuracy": 0.0,
                   "mmcl:train:overall:accuracy": 0.0},
    }, {
        "experiment": "dm2-robustness", "name": "dm2-sl",
        "data": {"model": "dm2", "m": 3, "alpha": 10.0, "beta": 1.0 / 3.0},
        "modality": {"d_I": 6},
        "methods": ["sl"],
        # predictions on both exhaustive splits are final by epoch 250: 250, 1000
        # and 5000 epochs write the CSV bytes of 40000 at seeds 0-9
        "train": {"exhaustive": True, "epochs": 5000},
        "eval": {"exhaustive": True, "splits": ["true", "train"]},
        "slacks": {"sl:true:overall:accuracy": 0.0,
                   "sl:train:overall:accuracy": 0.0},
    }),
    "captions": ({
        "experiment": "caption-sweep-dm1", "name": "captions-dm1", "tolerance": 0.02,
        "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.02, "p_spu": 0.999},
        "modality": {"d_I": 2, "d_T": 2},
        "methods": ["mmcl-closed"],
        "train": {"n_train": 50000, "p_dim": 2, "rho": 1.0},
        "eval": {"n_eval": 50000, "splits": ["true"]},
        "sweep": {"pi_core": [0.0, 0.5, 1.0], "pi_spu": [0.0, 1.0]},
    }, {
        "experiment": "caption-sweep-dm2", "name": "captions-dm2",
        "data": {"model": "dm2", "m": 30, "alpha": 1.1, "beta": 1.0 / 3.0},
        "modality": {"d_I": 60, "d_T": 60},
        "methods": ["mmcl-analytic"],
        "train": {"p_dim": 60, "rho": 1.0},
        # counted exactly at m = 30, where enumeration would need m 4^m rows
        "eval": {"splits": ["true"]},
        "sweep": {"pi": [0.3, 0.6]},
        "slacks": {"mmcl:true:overall:accuracy": 0.0},
    }),
    "supcon": ({
        "experiment": "method-compare", "name": "supcon-dm1",
        "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.01, "p_spu": 0.999},
        "modality": {"d_I": 2, "d_T": 2},
        "methods": ["supcon"],
        # the encoder has rank one, so the bias-free probe's rule is the sign of
        # its first step: 1, 10 and 100 epochs write the CSV bytes of 20000 at
        # seeds 0-9 (README "Known red check")
        "train": {"n_train": 20000, "p_dim": 2, "rho": 1.0, "probe_epochs": 100},
        "eval": {"n_eval": 20000, "splits": ["true"]},
        # claimed bounds 0.50 / 0.00; measurements land near 0.74 / 0.50, see notes
        "slacks": {"supcon:true:overall:accuracy": 0.05,
                   "supcon:true:minority:accuracy": 0.10},
    }, {
        "experiment": "method-compare", "name": "supcon-dm2",
        "data": {"model": "dm2", "m": 2, "alpha": 1.5, "beta": 1.0 / 3.0},
        "modality": {"d_I": 4, "d_T": 4},
        "methods": ["supcon"],
        # probe predictions on both exhaustive splits are final by epoch 250: 250,
        # 1000 and 5000 epochs write the CSV bytes of 60000 at seeds 0-9
        "train": {"exhaustive": True, "p_dim": 4, "rho": 1.0, "probe_epochs": 5000},
        "eval": {"exhaustive": True, "splits": ["true", "train"],
                 "supcon_geometry": True, "supcon_restarts": 20},
        "slacks": {"supcon:true:overall:accuracy": 0.0,
                   "supcon:train:overall:accuracy": 0.0,
                   "supcon:true:geometry:collinearity_residual": 1e-8,
                   "supcon:true:*:best_probe_accuracy": 1e-9},
    }),
    "id": ({
        "experiment": "method-compare", "name": "id-control",
        "data": _ID_DATA,
        "modality": {"d_I": 2, "d_T": 2},
        "methods": ["mmcl-closed", "sl"],
        "train": {"n_train": 20000, "p_dim": 2, "rho": 1.0},
        "eval": {"n_eval": 20000, "splits": ["train"]},
        "method_overrides": {
            "sl": {"modality": {"d_I": 2000, "noise_sigma_I": 0.1},
                   "train": {"n_train": 500, "epochs": 5000}},
        },
        "slacks": {"sl:train:overall:accuracy": _SL_ID - 0.985,
                   "mmcl:train:overall:accuracy": 0.01,
                   "sl-vs-mmcl:train:overall:id_gap": 0.0},
    },),
}
SUITES = ("all", *PRESETS)


def suite_configs(suite: str, root_seed: int = 0) -> list[ExperimentConfig]:
    """Preset configs implementing the verification suites."""
    if suite not in SUITES:
        raise ValidationError(f"unknown suite {suite!r}; expected one of {SUITES}")
    names = PRESETS if suite == "all" else (suite,)
    return [config_from_dict({**doc, "root_seed": root_seed})
            for name in names for doc in PRESETS[name]]


def run_suite(suite: str, root_seed: int = 0, threads: int = 1) -> list[RunRecord]:
    """Run a preset suite; every preset checks each trial (min_pass_fraction 1.0)."""
    return [rec for cfg in suite_configs(suite, root_seed)
            for rec in run_experiment(cfg, threads)]
