#!/usr/bin/env python3
"""What caption detail buys: masking sweeps for both data models.

Model 1: captions keep the core-feature variation with probability pi_core.
Overall and minority accuracy climb with pi_core and ignore pi_spu, and follow
the robustness closed form with sigma_core^2 scaled by pi_core, as the masked
covariance is.

Model 2: captions keep off-class features with probability pi. Robust
classification switches on sharply at the closed-form threshold.
"""
from mmclab import (CaptionMask, DataModel1Params, DataModel2Params,
                    ModalityConfig, RngStream, empirical_cross_cov, build_prompts,
                    make_dictionary, make_paired_dataset, mmcl_fit_closed_form,
                    population_cross_cov_dm2, sample_latents_dm1,
                    zero_shot_robustness_dm1, caption_masking_threshold_dm2)
from mmclab.evaluation import evaluate_zero_shot

rng = RngStream(root_seed=0)

# ---- model 1: sweep the core-detail probability
params = DataModel1Params(sigma_core=1.0, sigma_spu=0.02, p_spu=0.999)
cfg = ModalityConfig(make_dictionary(2, 2))
prompts = build_prompts(params, cfg.dictionary)

print("== model 1: accuracy vs caption detail ==")
print("pi_core  overall: measured  predicted   minority: measured  predicted")
for pi_core in (0.0, 0.25, 0.5, 0.75, 1.0):
    mask = CaptionMask.model1(pi_core=pi_core, pi_spu=0.0)
    latents = sample_latents_dm1(params, 50000, "train", rng.child(int(pi_core * 100)))
    data = make_paired_dataset(latents, cfg, cfg, mask, rng.child(int(pi_core * 100) + 1))
    model = mmcl_fit_closed_form(empirical_cross_cov(data), 2, 1.0)
    report = evaluate_zero_shot(model, prompts, params, "true", cfg, 50000,
                                rng.child(int(pi_core * 100) + 2))
    pred = zero_shot_robustness_dm1(1.0, 0.02, 0.999, pi_core)
    print(f"  {pi_core:.2f}            {report.overall_accuracy:.4f}     "
          f"{pred.values['overall']:.4f}              {report.minority_accuracy():.4f}     "
          f"{pred.values['minority']:.4f}")
print("(the measurements track the prediction; mentioning spurious detail "
      "has no effect)")

# ---- model 2: threshold behavior in pi
m, alpha, beta = 30, 1.1, 1 / 3
params2 = DataModel2Params(m, alpha, beta)
cfg2 = ModalityConfig(make_dictionary(params2.l, params2.l))
prompts2 = build_prompts(params2, cfg2.dictionary)
pi_tilde = caption_masking_threshold_dm2(m, alpha, beta)

print(f"\n== model 2: accuracy vs pi (threshold {pi_tilde:.4f}) ==")
for pi in (0.1, 0.3, 0.42, 0.46, 0.6, 0.9):
    cov = population_cross_cov_dm2(params2, pi=pi)
    model = mmcl_fit_closed_form(cov, params2.l, 1.0, cfg2.dictionary, cfg2.dictionary)
    report = evaluate_zero_shot(model, prompts2, params2, "true", cfg2, 50000,
                                rng.child(1000 + int(pi * 100)))
    side = "above" if pi > pi_tilde else "below"
    print(f"  pi={pi:.2f} ({side} threshold): accuracy {report.overall_accuracy:.4f}")
print("(pi=0 would reduce captions to bare labels: no robustness gain at all)")
