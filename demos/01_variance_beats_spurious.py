#!/usr/bin/env python3
"""Binary model with a high-variance core feature and a low-variance spurious one.

The supervised linear model latches onto the spurious coordinate (worse than
chance on the minority groups where the shortcut fails), while the contrastive
zero-shot classifier keeps weighting the core feature by its variance and stays
well above chance everywhere. Measurements are printed next to the closed-form
predictions.
"""
from mmclab import (CaptionMask, DataModel1Params, ModalityConfig,
                    RngStream, empirical_cross_cov, build_prompts, make_dictionary,
                    make_paired_dataset, mmcl_fit_closed_form, sample_latents_dm1,
                    sl_fit_gd, sl_failure_bounds_dm1, zero_shot_robustness_dm1)
from mmclab import theory
from mmclab.datagen import project_latents
from mmclab.evaluation import evaluate_sl, evaluate_zero_shot

rng = RngStream(root_seed=0)
params = DataModel1Params(sigma_core=1.0, sigma_spu=0.02, p_spu=0.999)

# ---- contrastive model: closed form from the empirical cross-covariance
cfg2 = ModalityConfig(make_dictionary(2, 2))
train = make_paired_dataset(sample_latents_dm1(params, 20000, "train", rng.child(1)),
                            cfg2, cfg2, CaptionMask.none(), rng.child(2))
mmcl = mmcl_fit_closed_form(empirical_cross_cov(train), p_dim=2, rho=1.0)
prompts = build_prompts(params, cfg2.dictionary)
report = evaluate_zero_shot(mmcl, prompts, params, "true", cfg2, 20000, rng.child(3))

bound = zero_shot_robustness_dm1(params.sigma_core, params.sigma_spu, params.p_spu)
print("== contrastive zero-shot on the shifted (true) distribution ==")
print(f"(no model can beat {theory.DM1_BEST_POSSIBLE_ACCURACY:.4f} here; "
      "the core feature itself is noisy)")
print(f"overall  : {report.overall_accuracy:.4f}   predicted {bound.values['overall']:.4f}")
print(f"minority : {report.minority_accuracy():.4f}   predicted {bound.values['minority']:.4f}")
for key, stat in report.groups.items():
    print(f"  {key}: {stat.accuracy:.4f}  (n={stat.count}, +-{stat.mc_radius:.4f})")

# ---- supervised model: overparameterized regime where the shortcut wins
sl_params = DataModel1Params(sigma_core=1.0, sigma_spu=0.01, p_spu=0.99)
cfg_wide = ModalityConfig(make_dictionary(2000, 2), noise_sigma=0.1)
latents = sample_latents_dm1(sl_params, 500, "train", rng.child(4))
images = project_latents(latents.z, cfg_wide, rng.child(5))
sl = sl_fit_gd(images, latents.y, epochs=5000, rng=rng.child(6))
sl_report = evaluate_sl(sl, sl_params, "true", cfg_wide, 10000, rng.child(7))

limits = sl_failure_bounds_dm1()
print("\n== supervised learning in the overparameterized regime ==")
print(f"overall  : {sl_report.overall_accuracy:.4f}   bound <= {limits.values['overall']:.4f}")
print(f"minority : {sl_report.minority_accuracy():.4f}   bound <= {limits.values['minority']:.4f}"
      "  (worse than chance)")

core, spu = sl.W[0, 0], sl.W[1, 0]
print(f"learned weight ratio spurious/core: {spu / core:.2f}  (> 1 means the "
      "shortcut dominates)")
