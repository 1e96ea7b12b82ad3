"""The names `from mmclab import *` reaches. A change to this list is an API
change: a removal must be deliberate, and an addition must be meant for users."""
import mmclab

PUBLIC_API = [
    "ArgumentError", "CaptionMask", "ConfigurationError", "DataModel1Params",
    "DataModel2Params", "Dictionary", "DimensionError", "DomainError", "EvalReport",
    "ExperimentConfig", "GroupGeometry", "LatentBatch", "MMCLModel",
    "MmclabError", "ModalityConfig", "NumericError", "PairedDataset",
    "RngStream", "RunRecord", "SLModel", "SizeError", "SupConEncoder",
    "TheoremPrediction", "TrainingError", "ValidationError", "build_prompts",
    "caption_masking_threshold_dm2", "config_from_dict", "config_from_file",
    "count_zero_shot", "covariance", "datagen", "emit_csv", "emit_json_summary",
    "empirical_cross_cov", "enumerate_latents_dm2", "errors", "evaluate_probe",
    "evaluate_sl", "evaluate_zero_shot", "evaluation", "harness",
    "in_distribution_predictions_dm1", "make_dictionary", "make_paired_dataset",
    "mmcl_fit_closed_form", "mmcl_fit_gd", "numerics", "perfect_zero_shot_condition_dm2",
    "phi_cdf", "population_cross_cov_dm1", "population_cross_cov_dm2", "probe_fit",
    "project_latents", "run_experiment", "run_suite", "sample_latents_dm1",
    "sample_latents_dm2", "sl_failure_bounds_dm1", "sl_fit_gd", "sl_shift_ceiling_dm2",
    "suite_configs", "summarize", "supcon_class_mean_cov", "supcon_fit_closed_form",
    "supcon_group_geometry", "svd_top", "theory", "training", "zero_shot_accuracy_dm2",
    "zero_shot_robustness_dm1",
]


def test_public_api_is_the_listed_names():
    assert sorted(mmclab.__all__) == PUBLIC_API
