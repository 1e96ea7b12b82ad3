"""mmclab: a numerical laboratory for linear multimodal contrastive learning.

Synthetic data models with controlled spurious correlations, closed-form and
gradient-descent trainers for contrastive / supervised / supervised-contrastive
linear models, zero-shot evaluation with grouped accuracy reports, closed-form
robustness predictions, and a deterministic experiment harness that checks
measurements against the predictions.
"""

from .covariance import (ClassMeanCov, CrossCov, empirical_cross_cov,
                         population_cross_cov_dm1, population_cross_cov_dm2,
                         supcon_class_mean_cov)
from .datagen import (CaptionMask, DataModel1Params, DataModel2Params, LatentBatch,
                      ModalityConfig, PairedDataset, enumerate_latents_dm2,
                      make_paired_dataset, project_latents, sample_latents_dm1,
                      sample_latents_dm2)
from .errors import (ArgumentError, ConfigurationError, DimensionError, DomainError,
                     MmclabError, NumericError, SizeError, TrainingError,
                     ValidationError)
from .evaluation import (EvalReport, EvalSampler, GroupGeometry, PromptSet,
                         build_prompts, evaluate_probe, evaluate_sl,
                         evaluate_zero_shot, supcon_group_geometry,
                         zero_shot_predict)
from .harness import (ExperimentConfig, RunRecord, config_from_dict, config_from_file,
                      emit_csv, emit_json_summary, run_experiment, run_suite,
                      suite_configs, summarize)
from .numerics import (Dictionary, RngStream, SvdTop, make_dictionary, phi_cdf,
                       svd_top)
from .theory import (TheoremPrediction, in_distribution_predictions_dm1, sl_failure_bounds_dm1,
                     zero_shot_robustness_dm1, sl_shift_ceiling_dm2, perfect_zero_shot_condition_dm2,
                     masked_minority_accuracy_dm1, caption_masking_threshold_dm2)
from .training import (MMCLModel, ProbeModel, SLModel, SupConEncoder,
                       mmcl_fit_closed_form, mmcl_fit_gd, mmcl_loss, probe_fit,
                       sl_fit_gd, supcon_fit_closed_form)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
